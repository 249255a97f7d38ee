//! A tiny, dependency-free flag parser.
//!
//! Supports `--flag value`, `--flag=value`, and boolean `--flag` forms,
//! with typed accessors and an unknown-flag check so typos fail loudly.

use std::collections::HashMap;
use std::fmt;

/// A parse or validation error, displayed to the user verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(String);

impl ArgError {
    /// Creates an error with a verbatim message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed flags for one subcommand.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, Option<String>>,
}

impl Args {
    /// Parses raw arguments (everything after the subcommand).
    ///
    /// # Errors
    ///
    /// Returns an error for positional arguments (everything must be a
    /// `--flag`) or a flag missing its `--` prefix.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut values = HashMap::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(token) = iter.next() {
            let Some(flag) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument '{token}' (flags look like --name value)"
                )));
            };
            if let Some((name, value)) = flag.split_once('=') {
                values.insert(name.to_owned(), Some(value.to_owned()));
            } else if iter.peek().is_some_and(|next| !next.starts_with("--")) {
                values.insert(flag.to_owned(), iter.next());
            } else {
                values.insert(flag.to_owned(), None);
            }
        }
        Ok(Self { values })
    }

    /// Rejects any flag not in `known` (catches typos).
    ///
    /// # Errors
    ///
    /// Returns an error naming the first unknown flag.
    pub fn expect_only(&self, known: &[&str]) -> Result<(), ArgError> {
        for name in self.values.keys() {
            if !known.contains(&name.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{name} (expected one of: {})",
                    known
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }

    /// True if the boolean flag is present.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// String value of a flag; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns an error if the flag is present without a value, so a
    /// truncated invocation cannot silently skip what the flag asks for.
    pub fn get(&self, name: &str) -> Result<Option<&str>, ArgError> {
        match self.values.get(name) {
            Some(None) => Err(ArgError(format!("flag --{name} needs a value"))),
            value => Ok(value.and_then(Option::as_deref)),
        }
    }

    /// Typed value with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the flag is present but lacks a value or fails
    /// to parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name)? {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| ArgError(format!("could not parse --{name} value '{text}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| (*s).to_owned())).unwrap()
    }

    #[test]
    fn parses_space_and_equals_forms() {
        let args = parse(&["--minutes", "45", "--seed=7", "--fixed"]);
        assert_eq!(args.get_or("minutes", 0u64).unwrap(), 45);
        assert_eq!(args.get_or("seed", 0u64).unwrap(), 7);
        assert!(args.flag("fixed"));
        assert!(!args.flag("missing"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let args = parse(&[]);
        assert_eq!(args.get_or("minutes", 105u64).unwrap(), 105);
    }

    #[test]
    fn rejects_positional_arguments() {
        let err = Args::parse(vec!["oops".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("positional"));
    }

    #[test]
    fn rejects_unknown_flags() {
        let args = parse(&["--mintues", "45"]);
        let err = args.expect_only(&["minutes", "seed"]).unwrap_err();
        assert!(err.to_string().contains("--mintues"));
    }

    #[test]
    fn rejects_bad_typed_values() {
        let args = parse(&["--minutes", "soon"]);
        assert!(args.get_or("minutes", 0u64).is_err());
    }

    #[test]
    fn boolean_flag_followed_by_flag() {
        let args = parse(&["--fixed", "--minutes", "30"]);
        assert!(args.flag("fixed"));
        assert_eq!(args.get_or("minutes", 0u64).unwrap(), 30);
    }

    #[test]
    fn valueless_flag_with_typed_access_errors() {
        let args = parse(&["--minutes"]);
        assert!(args.get_or("minutes", 0u64).is_err());
        let err = args.get("minutes").unwrap_err();
        assert!(err.to_string().contains("needs a value"), "{err}");
        assert_eq!(args.get("seed"), Ok(None));
    }
}
