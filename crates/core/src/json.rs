//! A minimal JSON value and parser shared by the scenario loaders.
//!
//! The workspace is offline (no serde), so the chaos and MPC scenario
//! loaders carry their own parser — strict enough to reject the malformed
//! files a hand-edited scenario produces. This module used to live inside
//! [`crate::chaos`]; it was hoisted here so `bz-predict` can parse its
//! scenario files through the same code path.

use std::fmt;

/// Deepest nesting of arrays and objects a document may have. The parser
/// recurses once per level, so without a bound one request body of
/// brackets overflows a server worker's stack. The bundled scenarios
/// nest 3 deep.
const MAX_DEPTH: usize = 64;

/// The largest whole number a document may give a field: 2^53 − 1. Every
/// integer up to 2^53 has an exact `f64`, but the literal 2^53 + 1 parses
/// to 2^53 too, so 2^53 itself may stand for a rounded value.
pub const MAX_WHOLE: u64 = (1 << 53) - 1;

/// A JSON parsing error carrying the 1-based line and column where
/// parsing failed, so a hand-edited scenario file can be fixed without
/// counting bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the line and column of the first
    /// malformed construct, of arrays and objects nested more than 64
    /// deep, or of trailing garbage after the document.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut parser = JsonParser {
            text,
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != text.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Looks up `name` in an object (`None` on other kinds or absence).
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Json> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a whole number in `[0, max]`, `max` being at most
    /// [`MAX_WHOLE`]; `name` is the field it came from.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the field when the value is not a
    /// number, or not a whole number in range.
    pub fn whole(&self, name: &str, max: u64) -> Result<u64, JsonError> {
        let max = max.min(MAX_WHOLE);
        match self.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= max as f64 => Ok(n as u64),
            _ => Err(JsonError::new(format!(
                "'{name}' must be a whole number in [0, {max}]"
            ))),
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl JsonParser<'_> {
    fn error(&self, message: &str) -> JsonError {
        let consumed = &self.text.as_bytes()[..self.pos.min(self.text.len())];
        let line = 1 + consumed.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + consumed.iter().rev().take_while(|&&b| b != b'\n').count();
        JsonError::new(format!(
            "json error at line {line}, column {column}: {message}"
        ))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// An array or object, one level deeper than its parent.
    fn nested(&mut self) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = if self.peek() == Some(b'{') {
            self.object()
        } else {
            self.array()
        };
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(hex);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the plain run up to the next quote or escape.
                    // The document is a `&str` and `pos` only ever steps
                    // over ASCII bytes and whole runs, so it sits on a
                    // character boundary.
                    let rest = self
                        .text
                        .get(self.pos..)
                        .ok_or_else(|| self.error("string splits a character"))?;
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.error(&format!("number '{text}' overflows"))),
            Err(_) => Err(self.error(&format!("bad number '{text}'"))),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_all_value_kinds() {
        let doc = Json::parse(
            r#"{"s": "a\n\"bA", "n": -2.5e1, "b": true, "x": null,
                "arr": [1, 2, {"k": false}]}"#,
        )
        .unwrap();
        assert_eq!(doc.field("s").unwrap().as_str(), Some("a\n\"bA"));
        assert_eq!(doc.field("n").unwrap().as_f64(), Some(-25.0));
        assert_eq!(doc.field("b"), Some(&Json::Bool(true)));
        assert_eq!(doc.field("x"), Some(&Json::Null));
        let arr = doc.field("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].field("k"), Some(&Json::Bool(false)));
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1} x",
            "[1, 2",
            "{\"a\" 1}",
            "\"unterminated",
            "{\"a\": nul}",
            "{\"a\": 1e}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn json_parser_refuses_numbers_past_f64() {
        let err = Json::parse("1e400").unwrap_err();
        assert!(
            err.to_string().contains("number '1e400' overflows"),
            "{err}"
        );
        assert!(Json::parse("[-1e400]").is_err());
        assert_eq!(Json::parse("1e308"), Ok(Json::Num(1e308)));
    }

    #[test]
    fn whole_reads_only_exact_whole_numbers_in_range() {
        let whole = |text: &str, max: u64| Json::parse(text).unwrap().whole("n", max);
        assert_eq!(whole("0", MAX_WHOLE), Ok(0));
        assert_eq!(whole("9007199254740991", MAX_WHOLE), Ok(MAX_WHOLE));
        assert_eq!(whole("16", 16), Ok(16));
        assert_eq!(whole("4", u64::MAX), Ok(4));
        // 2^53 + 1 parses to 2^53, so neither is read.
        for bad in [
            "9007199254740992",
            "9007199254740993",
            "1e300",
            "-1",
            "0.5",
            "\"7\"",
        ] {
            let err = whole(bad, u64::MAX).unwrap_err();
            assert_eq!(
                err.to_string(),
                "'n' must be a whole number in [0, 9007199254740991]"
            );
        }
        assert!(whole("17", 16).is_err());
    }

    #[test]
    fn json_parser_accepts_nesting_up_to_the_depth_bound() {
        let arrays = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&arrays).is_ok());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        let half = MAX_DEPTH / 2;
        let mixed = format!("{}null{}", "[{\"k\":".repeat(half), "}]".repeat(half));
        assert!(Json::parse(&mixed).is_ok());
    }

    #[test]
    fn json_parser_rejects_nesting_past_the_depth_bound() {
        let deep = MAX_DEPTH + 1;
        let arrays = format!("{}{}", "[".repeat(deep), "]".repeat(deep));
        let err = Json::parse(&arrays).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 64"), "{err}");
        let objects = format!("{}1{}", "{\"k\":".repeat(deep), "}".repeat(deep));
        assert!(Json::parse(&objects).is_err());
        // Far past the bound, unclosed: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(10_000)).is_err());
    }

    #[test]
    fn json_parser_reads_a_mebibyte_string() {
        let body = "é".repeat(1 << 19);
        let doc = Json::parse(&format!("{{\"name\":\"{body}\\n\"}}")).unwrap();
        let name = doc.field("name").and_then(Json::as_str).unwrap();
        assert_eq!(name.len(), (1 << 20) + 1);
        assert!(name.starts_with("éé") && name.ends_with("é\n"));
    }

    /// Pieces the token-soup property strings together: structure,
    /// escapes, literals, numbers and multi-byte characters.
    const PIECES: [&str; 24] = [
        "{", "}", "[", "]", "\"", "\\", ":", ",", " ", "\n", "\"k\"", "1", "-", ".", "e", "true",
        "nul", "\\u", "00e9", "\\ud800", "é", "€", "\u{7f}", "0",
    ];

    /// A valid document ending in `}`, so every strict prefix is
    /// incomplete.
    const DOC: &str = r#"{"name": "b-é€\u00e9\n", "n": -2.5e1, "on": [true, false, null],
        "grid": {"k": [1, 2, {"deep": [[]]}]}}"#;

    proptest::proptest! {
        #[test]
        fn json_parser_survives_token_soup(
            picks in proptest::collection::vec(0usize..PIECES.len(), 0..48),
        ) {
            let text: String = picks.iter().map(|&i| PIECES[i]).collect();
            for (cut, _) in text.char_indices() {
                let _ = Json::parse(&text[..cut]);
            }
            let _ = Json::parse(&text);
        }

        #[test]
        fn json_parser_refuses_every_truncation(cut in 0usize..DOC.len()) {
            proptest::prop_assume!(DOC.is_char_boundary(cut));
            proptest::prop_assert!(Json::parse(DOC).is_ok());
            proptest::prop_assert!(Json::parse(&DOC[..cut]).is_err(), "accepted {:?}", &DOC[..cut]);
        }

        #[test]
        fn json_parser_survives_bit_flips(at in 0usize..DOC.len(), bit in 0u8..8) {
            let mut bytes = DOC.as_bytes().to_vec();
            bytes[at] ^= 1 << bit;
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn json_parser_bounds_any_mix_of_nesting(
            kinds in proptest::collection::vec(0u8..2, 0..MAX_DEPTH * 2),
        ) {
            let open: String = kinds.iter().map(|&k| if k == 0 { "[" } else { "{\"k\":" }).collect();
            let close: String = kinds.iter().rev().map(|&k| if k == 0 { "]" } else { "}" }).collect();
            let parsed = Json::parse(&format!("{open}0{close}"));
            proptest::prop_assert_eq!(parsed.is_ok(), kinds.len() <= MAX_DEPTH, "depth {}", kinds.len());
            proptest::prop_assert!(Json::parse(&open).is_err());
        }
    }

    #[test]
    fn json_errors_carry_line_and_column() {
        // The stray token sits on line 3, column 10.
        let err = Json::parse("{\n  \"a\": 1,\n  \"b\": oops\n}").unwrap_err();
        assert_eq!(
            err.to_string(),
            "json error at line 3, column 8: expected a value"
        );

        let err = Json::parse("[1, 2").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }
}
