//! Metric keys: `&'static str` for fixed instrumentation points, owned
//! strings for dynamic keys like `wsn.node.21.sent`.

use std::borrow::{Borrow, Cow};
use std::fmt;
use std::ops::Deref;

/// A metric key.
///
/// Most instrumentation points name their metric with a string literal,
/// which converts at zero cost. Per-entity keys — one counter per mote,
/// one gauge per fault kind — are built at runtime with `format!` and
/// convert from `String`:
///
/// ```
/// use bz_obs::MetricKey;
///
/// let fixed: MetricKey = "wsn.packets.sent".into();
/// let per_node: MetricKey = format!("wsn.node.{}.sent", 21).into();
/// assert_eq!(per_node.as_str(), "wsn.node.21.sent");
/// assert!(per_node < fixed); // plain string ordering: "wsn.n…" < "wsn.p…"
/// ```
///
/// Ordering, equality, and hashing all delegate to the underlying string,
/// so registry maps stay sorted by key text and snapshots can be indexed
/// by `&str`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MetricKey(Cow<'static, str>);

impl MetricKey {
    /// The key text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&'static str> for MetricKey {
    fn from(name: &'static str) -> Self {
        Self(Cow::Borrowed(name))
    }
}

impl From<String> for MetricKey {
    fn from(name: String) -> Self {
        Self(Cow::Owned(name))
    }
}

impl From<&MetricKey> for MetricKey {
    fn from(key: &MetricKey) -> Self {
        key.clone()
    }
}

impl Borrow<str> for MetricKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl Deref for MetricKey {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` honors width/alignment specifiers in table formatting.
        f.pad(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn static_and_owned_keys_compare_equal() {
        let a = MetricKey::from("wsn.node.7.sent");
        let b: MetricKey = format!("wsn.node.{}.sent", 7).into();
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
    }

    #[test]
    fn maps_are_indexable_by_str() {
        let mut map: BTreeMap<MetricKey, u64> = BTreeMap::new();
        map.insert("fault.recycle_pump_dead.active".into(), 1);
        map.insert(format!("wsn.node.{}.sent", 21).into(), 9);
        assert_eq!(map["fault.recycle_pump_dead.active"], 1);
        assert_eq!(map["wsn.node.21.sent"], 9);
    }

    #[test]
    fn display_honors_width() {
        let key = MetricKey::from("abc");
        assert_eq!(format!("{key:<6}|"), "abc   |");
    }
}
