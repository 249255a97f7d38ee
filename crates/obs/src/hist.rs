//! Fixed-bucket histograms.
//!
//! The BT-ADPT variance histogram in `bz-wsn` bins values between observed
//! extremes with constant memory; metrics histograms borrow the same
//! counters-per-slot idiom but fix the bucket edges up front, because a
//! metric's edges must mean the same thing in every exported run (a
//! re-binning histogram would make two runs incomparable).

use std::borrow::Cow;

/// Default bucket upper edges: a power-of-two ladder wide enough for
/// millisecond delays, send periods in seconds, and queue depths alike.
pub const DEFAULT_BUCKETS: &[f64] = &[
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
];

/// A histogram over fixed, caller-supplied bucket edges.
///
/// A value lands in the first bucket whose upper edge is `>=` the value;
/// values above the last edge land in the implicit overflow bucket, so
/// `counts()` has one more entry than `edges()`.
///
/// # Example
///
/// ```
/// use bz_obs::FixedHistogram;
///
/// let mut hist = FixedHistogram::new(&[1.0, 10.0]);
/// hist.observe(0.3); // first bucket
/// hist.observe(1.0); // still the first bucket: edges are inclusive
/// hist.observe(5.0); // second bucket
/// hist.observe(99.0); // overflow bucket
/// assert_eq!(hist.counts(), &[2, 1, 1]);
/// assert_eq!(hist.count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    /// Borrowed from the caller's `'static` set, or owned when restored
    /// from a checkpoint (and freed with the histogram).
    edges: Cow<'static, [f64]>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl FixedHistogram {
    /// Creates a histogram over `edges` (ascending upper bucket edges).
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly ascending.
    #[must_use]
    pub fn new(edges: &'static [f64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|pair| pair[0] < pair[1]),
            "histogram edges must be strictly ascending"
        );
        Self {
            edges: Cow::Borrowed(edges),
            counts: vec![0; edges.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket upper edges.
    #[must_use]
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bucket counters; the final entry is the overflow bucket.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (∞ before any observation).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ before any observation).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean of all observations, or `None` before the first.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Records one observation. Non-finite values are counted in the
    /// overflow bucket but excluded from `sum`/`min`/`max`.
    pub fn observe(&mut self, value: f64) {
        self.count = self.count.saturating_add(1);
        let slot = if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            self.edges
                .iter()
                .position(|&edge| value <= edge)
                .unwrap_or(self.edges.len())
        } else {
            self.edges.len()
        };
        self.counts[slot] = self.counts[slot].saturating_add(1);
    }
}

use bz_state::Persist;

impl Persist for FixedHistogram {
    fn save(&self, w: &mut bz_state::Writer) {
        w.put_len(self.edges.len());
        for &edge in self.edges.iter() {
            w.put_f64(edge);
        }
        self.counts.save(w);
        w.put_u64(self.count);
        w.put_f64(self.sum);
        w.put_f64(self.min);
        w.put_f64(self.max);
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        let n = r.take_len()?;
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            edges.push(r.take_f64()?);
        }
        let counts = Vec::<u64>::load(r)?;
        if counts.len() != edges.len() + 1 {
            return Err(bz_state::StateError::Invalid {
                what: "histogram counts",
                reason: format!(
                    "{} slot(s) for {} edge(s); expected {}",
                    counts.len(),
                    edges.len(),
                    edges.len() + 1
                ),
            });
        }
        Ok(Self {
            edges: Cow::Owned(edges),
            counts,
            count: r.take_u64()?,
            sum: r.take_f64()?,
            min: r.take_f64()?,
            max: r.take_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_on_edges_fall_in_the_lower_bucket() {
        let mut hist = FixedHistogram::new(&[1.0, 2.0, 4.0]);
        for value in [1.0, 2.0, 4.0] {
            hist.observe(value);
        }
        assert_eq!(hist.counts(), &[1, 1, 1, 0]);
    }

    #[test]
    fn below_first_edge_and_overflow() {
        let mut hist = FixedHistogram::new(&[10.0]);
        hist.observe(-5.0);
        hist.observe(10.000_001);
        assert_eq!(hist.counts(), &[1, 1]);
        assert_eq!(hist.min(), -5.0);
        assert!((hist.max() - 10.000_001).abs() < 1e-12);
    }

    #[test]
    fn mean_and_sum_accumulate() {
        let mut hist = FixedHistogram::new(DEFAULT_BUCKETS);
        assert_eq!(hist.mean(), None);
        hist.observe(2.0);
        hist.observe(6.0);
        assert_eq!(hist.mean(), Some(4.0));
        assert_eq!(hist.sum(), 8.0);
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn non_finite_goes_to_overflow_without_poisoning_stats() {
        let mut hist = FixedHistogram::new(&[1.0]);
        hist.observe(f64::NAN);
        hist.observe(0.5);
        assert_eq!(hist.counts(), &[1, 1]);
        assert_eq!(hist.sum(), 0.5);
        assert_eq!(hist.count(), 2);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_edges() {
        let _ = FixedHistogram::new(&[2.0, 1.0]);
    }
}
