//! Streaming statistics used across the reproduction.
//!
//! The adaptive transmission scheme of §IV-B computes a *population*
//! variance `var(X) = E[X²] − (E[X])²` over a sliding window of recent
//! sensor samples; [`SlidingWindow`] implements exactly that definition so
//! the networking code matches the paper, and [`Cdf`] backs the Fig. 15
//! distribution plots.

use std::collections::VecDeque;

/// A fixed-capacity sliding window computing the paper's population
/// variance `E[X²] − (E[X])²` over the most recent `capacity` samples.
///
/// The window keeps running sums so pushing a sample is O(1); a periodic
/// exact recomputation guards against floating-point drift on very long
/// runs.
///
/// # Example
///
/// ```
/// use bz_simcore::stats::SlidingWindow;
///
/// let mut window = SlidingWindow::new(4);
/// for x in [1.0, 1.0, 1.0, 1.0] {
///     window.push(x);
/// }
/// assert_eq!(window.variance(), Some(0.0));
/// window.push(5.0); // evicts one of the 1.0s
/// assert!(window.variance().unwrap() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    capacity: usize,
    samples: VecDeque<f64>,
    sum: f64,
    sum_sq: f64,
    pushes_since_rebuild: usize,
}

/// How often the running sums are recomputed exactly from the stored
/// samples (cheap insurance against drift; windows are small).
const REBUILD_PERIOD: usize = 4_096;

impl SlidingWindow {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            capacity,
            samples: VecDeque::with_capacity(capacity),
            sum: 0.0,
            sum_sq: 0.0,
            pushes_since_rebuild: 0,
        }
    }

    /// Pushes a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, value: f64) {
        if self.samples.len() == self.capacity {
            if let Some(evicted) = self.samples.pop_front() {
                self.sum -= evicted;
                self.sum_sq -= evicted * evicted;
            }
        }
        self.samples.push_back(value);
        self.sum += value;
        self.sum_sq += value * value;

        self.pushes_since_rebuild += 1;
        if self.pushes_since_rebuild >= REBUILD_PERIOD {
            self.rebuild();
        }
    }

    fn rebuild(&mut self) {
        self.sum = self.samples.iter().sum();
        self.sum_sq = self.samples.iter().map(|x| x * x).sum();
        self.pushes_since_rebuild = 0;
    }

    /// Number of samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the samples currently in the window, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum / self.samples.len() as f64)
        }
    }

    /// The paper's population variance `E[X²] − (E[X])²` over the window,
    /// or `None` when empty. Clamped at zero against rounding.
    #[must_use]
    pub fn variance(&self) -> Option<f64> {
        let n = self.samples.len() as f64;
        if self.samples.is_empty() {
            None
        } else {
            Some((self.sum_sq / n - (self.sum / n).powi(2)).max(0.0))
        }
    }
}

/// An empirical cumulative distribution function built from a finite
/// sample set; backs the Fig. 15 send-period CDF.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. Non-finite samples are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    #[must_use]
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(!sorted.is_empty(), "CDF requires at least one sample");
        assert!(
            sorted.iter().all(|x| x.is_finite()),
            "CDF samples must be finite"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Self { sorted }
    }

    /// Fraction of samples ≤ `x`, in `[0, 1]`.
    #[must_use]
    pub fn at(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile for `q ∈ [0, 1]` (nearest-rank method).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Mean of the underlying samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Minimum sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false — construction rejects empty sample sets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

bz_state::persist_struct!(SlidingWindow {
    capacity,
    samples,
    sum,
    sum_sq,
    pushes_since_rebuild,
});

/// Mean of a slice; `None` when empty. Convenience for sensor fusion code
/// ("T_room is computed by averaging temperature readings from a set of
/// sensors" — §III-B).
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_window_matches_naive_variance() {
        let mut window = SlidingWindow::new(5);
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut naive: VecDeque<f64> = VecDeque::new();
        for &x in &data {
            window.push(x);
            if naive.len() == 5 {
                naive.pop_front();
            }
            naive.push_back(x);
            let n = naive.len() as f64;
            let mean = naive.iter().sum::<f64>() / n;
            let expected = naive.iter().map(|v| v * v).sum::<f64>() / n - mean * mean;
            let got = window.variance().unwrap();
            assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
        }
    }

    #[test]
    fn sliding_window_eviction() {
        let mut w = SlidingWindow::new(2);
        w.push(1.0);
        w.push(2.0);
        w.push(3.0); // evicts 1.0
        assert!((w.mean().unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn sliding_window_starts_empty() {
        let w = SlidingWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.variance(), None);
        assert_eq!(w.mean(), None);
    }

    #[test]
    fn sliding_window_constant_signal_has_zero_variance() {
        let mut w = SlidingWindow::new(10);
        for _ in 0..100 {
            w.push(25.0);
        }
        assert_eq!(w.variance(), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn sliding_window_rejects_zero_capacity() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn sliding_window_survives_rebuild_period() {
        let mut w = SlidingWindow::new(3);
        for i in 0..(REBUILD_PERIOD * 2 + 5) {
            w.push(i as f64);
        }
        // Last three values are k-2, k-1, k: variance of {0,1,2} = 2/3.
        // The paper's E[X²]−(E[X])² form cancels catastrophically at large
        // magnitudes, so allow a generous absolute tolerance here.
        assert!((w.variance().unwrap() - 2.0 / 3.0).abs() < 1e-4);
    }

    #[test]
    fn cdf_basic() {
        let cdf = Cdf::from_samples([2.0, 2.0, 2.0, 64.0]);
        assert!((cdf.at(1.9) - 0.0).abs() < 1e-12);
        assert!((cdf.at(2.0) - 0.75).abs() < 1e-12);
        assert!((cdf.at(64.0) - 1.0).abs() < 1e-12);
        assert!((cdf.mean() - 17.5).abs() < 1e-12);
        assert_eq!(cdf.min(), 2.0);
        assert_eq!(cdf.max(), 64.0);
        assert_eq!(cdf.len(), 4);
    }

    #[test]
    fn cdf_quantiles() {
        let cdf = Cdf::from_samples((1..=100).map(f64::from));
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 50.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn cdf_rejects_empty() {
        let _ = Cdf::from_samples(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn cdf_rejects_nan() {
        let _ = Cdf::from_samples([1.0, f64::NAN]);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), None);
        assert!((mean(&[24.0, 26.0]).unwrap() - 25.0).abs() < 1e-12);
    }
}
