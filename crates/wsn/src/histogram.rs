//! Histogram-based variance clustering (Algorithm 1) and its exact oracle.
//!
//! The adaptive transmission scheme needs a threshold λ that separates
//! "stable" variances from "transition" variances. The optimal λ minimizes
//! the total intra-cluster distance over the history of observed variances,
//! but storing every variance is not practical on an MSP430. §IV-B instead
//! bins variances into an `N`-slot histogram between the observed extremes
//! and runs the clustering over slot centers weighted by their counters —
//! constant memory and constant compute for any fixed `N`.
//!
//! [`ExactClusterer`] keeps the full history (the simulation can afford
//! what the mote cannot) and serves as the ground-truth oracle for the
//! Fig. 12(a)/Fig. 13 accuracy measurements.

/// Classification of a variance sample against a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Below the threshold: the signal is in its stable state.
    Stable,
    /// At or above the threshold: the signal is in a transition state.
    Transition,
}

/// Classifies a variance against a threshold.
#[must_use]
pub fn classify(variance: f64, lambda: f64) -> Stability {
    if variance < lambda {
        Stability::Stable
    } else {
        Stability::Transition
    }
}

/// The constant-memory histogram of §IV-B.
///
/// # Example
///
/// ```
/// use bz_wsn::histogram::{classify, Stability, VarianceHistogram};
///
/// let mut histogram = VarianceHistogram::new(40);
/// for _ in 0..100 {
///     histogram.observe(0.001); // stable sensor noise
/// }
/// for _ in 0..10 {
///     histogram.observe(5.0); // door-event transitions
/// }
/// let lambda = histogram.threshold().expect("two distinct values seen");
/// assert_eq!(classify(0.001, lambda), Stability::Stable);
/// assert_eq!(classify(5.0, lambda), Stability::Transition);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceHistogram {
    n_slots: usize,
    var_min: f64,
    var_max: f64,
    /// Saturating: the counters are reset weekly, so they hold at most
    /// 302,400 samples at a 2 s period, and a `u32` halves the memory of
    /// the 36 histograms a system keeps.
    counts: Vec<u32>,
    observed: u64,
}

impl VarianceHistogram {
    /// Creates a histogram with `n_slots` slots (the paper's `N`).
    ///
    /// # Panics
    ///
    /// Panics if `n_slots < 2`.
    #[must_use]
    pub fn new(n_slots: usize) -> Self {
        assert!(n_slots >= 2, "need at least two slots to cluster");
        Self {
            n_slots,
            var_min: f64::INFINITY,
            var_max: f64::NEG_INFINITY,
            counts: vec![0; n_slots],
            observed: 0,
        }
    }

    /// Number of variances observed since the last reset.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Smallest variance observed so far (∞ before any observation).
    #[must_use]
    pub fn var_min(&self) -> f64 {
        self.var_min
    }

    /// Largest variance observed so far (−∞ before any observation).
    #[must_use]
    pub fn var_max(&self) -> f64 {
        self.var_max
    }

    /// Width of one slot, or 0 while the range is degenerate.
    #[must_use]
    pub fn slot_width(&self) -> f64 {
        if self.var_max > self.var_min {
            (self.var_max - self.var_min) / self.n_slots as f64
        } else {
            0.0
        }
    }

    /// Center of 1-based slot `i` (the paper's `c_i`).
    #[must_use]
    pub fn slot_center(&self, i: usize) -> f64 {
        debug_assert!((1..=self.n_slots).contains(&i));
        self.var_min + (i as f64 - 0.5) * self.slot_width()
    }

    fn slot_of(&self, variance: f64) -> usize {
        let width = self.slot_width();
        if width == 0.0 {
            return 0;
        }
        // Plain truncation instead of `.floor()`: they differ only on
        // negative non-integers, and every negative index clamps to slot
        // 0 either way — skipping the libm call is observationally
        // identical.
        let idx = ((variance - self.var_min) / width) as isize;
        idx.clamp(0, self.n_slots as isize - 1) as usize
    }

    /// Records a variance observation. If it falls outside the current
    /// `[var_min, var_max]` range the histogram is re-binned: existing
    /// counters are rounded to the new slot centers, exactly the
    /// approximation-error mechanism the paper discusses for Fig. 13.
    ///
    /// # Panics
    ///
    /// Panics if `variance` is negative or not finite.
    pub fn observe(&mut self, variance: f64) {
        assert!(
            variance.is_finite() && variance >= 0.0,
            "variance must be finite and non-negative, got {variance}"
        );
        self.observed += 1;

        if variance < self.var_min || variance > self.var_max {
            let new_min = self.var_min.min(variance);
            let new_max = self.var_max.max(variance);
            self.rebin(new_min, new_max);
        }
        let slot = self.slot_of(variance);
        self.counts[slot] = self.counts[slot].saturating_add(1);
    }

    /// Re-bins existing counters onto a new range by mapping each old slot
    /// center to its nearest new slot.
    fn rebin(&mut self, new_min: f64, new_max: f64) {
        let old_counts = std::mem::replace(&mut self.counts, vec![0; self.n_slots]);
        let old_min = self.var_min;
        let old_width = self.slot_width();
        self.var_min = new_min;
        self.var_max = new_max;
        if old_width > 0.0 {
            for (i, count) in old_counts.into_iter().enumerate() {
                if count > 0 {
                    let center = old_min + (i as f64 + 0.5) * old_width;
                    let slot = self.slot_of(center);
                    self.counts[slot] = self.counts[slot].saturating_add(count);
                }
            }
        } else {
            // Degenerate old range: everything sat at old_min.
            let total = old_counts
                .iter()
                .fold(0u32, |sum, &c| sum.saturating_add(c));
            if total > 0 && old_min.is_finite() {
                let slot = self.slot_of(old_min);
                self.counts[slot] = self.counts[slot].saturating_add(total);
            }
        }
    }

    /// Algorithm 1: enumerate the `N − 1` candidate splits, compute the
    /// total intra-cluster distance of each (counters weighted against
    /// *unweighted* cluster centers of slot positions, exactly as the
    /// paper defines `cc1`/`cc2`), and return
    /// `λ = var_min + j* · Δvar` for the best split.
    ///
    /// Returns `None` until at least two distinct variance values have
    /// been observed (the range is degenerate before that).
    ///
    /// The result is bit-identical to evaluating the definition split by
    /// split. Each slot center is computed once. Every sum still adds its
    /// terms left to right, so each one rounds exactly as a fresh sum
    /// would: `cc1` is a running prefix sum, and the `cc2` and distance
    /// sums run slot-major, so the `N − 1` independent sums advance
    /// together instead of one after another. Empty slots are skipped in
    /// the distance sums: their terms are `+0.0`, which can change only
    /// the sign of a zero sum, and the sums are only compared.
    #[must_use]
    pub fn threshold(&self) -> Option<f64> {
        if self.slot_width() == 0.0 {
            return None;
        }
        let n = self.n_slots;
        let centers: Vec<f64> = (1..=n).map(|k| self.slot_center(k)).collect();
        // Split j (1..n) puts 0-based slots 0..j in cluster 1 and j..n in
        // cluster 2; index j of each vector below belongs to split j.
        let mut cc1 = vec![0.0; n];
        let mut prefix = 0.0;
        for j in 1..n {
            prefix += centers[j - 1];
            cc1[j] = prefix / j as f64;
        }
        // Slot k joins cluster 2 of every split j <= k.
        let mut cc2 = vec![0.0; n];
        for (k, &center) in centers.iter().enumerate().skip(1) {
            for sum in &mut cc2[1..=k] {
                *sum += center;
            }
        }
        for (j, mean) in cc2.iter_mut().enumerate().skip(1) {
            *mean /= (n - j) as f64;
        }
        let mut sum1 = vec![0.0; n];
        let mut sum2 = vec![0.0; n];
        for (k, (&count, &center)) in self.counts.iter().zip(&centers).enumerate() {
            if count == 0 {
                continue;
            }
            let weight = count as f64;
            for (sum, &mean) in sum2[1..=k].iter_mut().zip(&cc2[1..=k]) {
                *sum += weight * (center - mean).abs();
            }
            for (sum, &mean) in sum1[k + 1..].iter_mut().zip(&cc1[k + 1..]) {
                *sum += weight * (center - mean).abs();
            }
        }
        let mut best_j = 1;
        let mut best_sum = f64::INFINITY;
        for j in 1..n {
            if !(cc1[j].is_finite() && cc2[j].is_finite()) {
                // Overflowed centers: an empty slot's term would be NaN and
                // a full one's ∞, so this split can never be the best.
                continue;
            }
            if sum1[j] + sum2[j] < best_sum {
                best_sum = sum1[j] + sum2[j];
                best_j = j;
            }
        }
        Some(self.var_min + best_j as f64 * self.slot_width())
    }

    /// The range `[var_min + w, var_min + (N − 1)·w]` that every λ of
    /// [`Self::threshold`] lies in, for slot width `w`, without running
    /// the clustering. `None` exactly when `threshold` is `None`.
    ///
    /// λ is `var_min + j·w` for a split `j` in `1..N`, and rounding is
    /// monotone, so the bounds hold bit for bit: a variance below the
    /// first classifies stable and one at or above the second classifies
    /// transition, whatever λ turns out to be.
    #[must_use]
    pub(crate) fn threshold_bounds(&self) -> Option<(f64, f64)> {
        let width = self.slot_width();
        if width == 0.0 {
            return None;
        }
        Some((
            self.var_min + width,
            self.var_min + (self.n_slots - 1) as f64 * width,
        ))
    }

    /// Zeroes the counters while keeping the learned range — the paper's
    /// periodic cleanup ("each U_i can be reset to be zero to eliminate
    /// approximation errors cumulated in the past week").
    pub fn reset_counters(&mut self) {
        self.counts.fill(0);
        self.observed = 0;
    }

    /// The raw counters (for inspection/tests).
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        self.counts.iter().map(|&count| u64::from(count)).collect()
    }
}

/// The exact clustering oracle: stores every variance and finds the split
/// minimizing Algorithm 1's objective evaluated on the *exact* values —
/// i.e. the `N → ∞` limit of the histogram method, in which the cluster
/// centers become the midpoints of the two value ranges (the unweighted
/// mean of infinitely many slot centers). Comparing a finite-`N`
/// histogram against this oracle isolates the *discretization* error of
/// the approximation, which is precisely what the paper's Fig. 12(a) and
/// Fig. 13 accuracy curves quantify.
#[derive(Debug, Clone, Default)]
pub struct ExactClusterer {
    values: Vec<f64>,
}

impl ExactClusterer {
    /// Creates an empty oracle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a variance.
    ///
    /// # Panics
    ///
    /// Panics if `variance` is negative or not finite.
    pub fn observe(&mut self, variance: f64) {
        assert!(variance.is_finite() && variance >= 0.0);
        self.values.push(variance);
    }

    /// The optimal threshold, or `None` until two distinct values exist.
    /// λ is placed midway between the two clusters' boundary members.
    ///
    /// Objective (the `N → ∞` limit of Algorithm 1): for a candidate
    /// split `t`, the clusters are `[var_min, t]` and `[t, var_max]` with
    /// centers at the midpoints of those ranges; the cost is the summed
    /// L1 distance of every stored value to its cluster's center.
    #[must_use]
    pub fn threshold(&self) -> Option<f64> {
        if self.values.len() < 2 {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len();
        if sorted[0] == sorted[n - 1] {
            return None;
        }
        // Prefix sums for O(log n) cost evaluation of any
        // contiguous-range L1 distance to a given center.
        let prefix: Vec<f64> = sorted
            .iter()
            .scan(0.0, |acc, &v| {
                *acc += v;
                Some(*acc)
            })
            .collect();
        let range_sum = |lo: usize, hi: usize| -> f64 {
            // Sum of sorted[lo..=hi].
            prefix[hi] - if lo == 0 { 0.0 } else { prefix[lo - 1] }
        };
        // L1 distance of sorted[lo..=hi] to `center`.
        let cost_to_center = |lo: usize, hi: usize, center: f64| -> f64 {
            let split = sorted[lo..=hi].partition_point(|&v| v <= center) + lo;
            let below = split.saturating_sub(lo) as f64;
            let below_sum = if split == lo {
                0.0
            } else {
                range_sum(lo, split - 1)
            };
            let above = (hi + 1 - split) as f64;
            let above_sum = range_sum(lo, hi) - below_sum;
            (below * center - below_sum) + (above_sum - above * center)
        };

        let vmin = sorted[0];
        let vmax = sorted[n - 1];
        let mut best = f64::INFINITY;
        let mut best_t = None;
        for s in 0..n - 1 {
            if sorted[s] == sorted[s + 1] {
                continue; // identical boundary values cannot be separated
            }
            let t = (sorted[s] + sorted[s + 1]) / 2.0;
            let cc1 = (vmin + t) / 2.0;
            let cc2 = (t + vmax) / 2.0;
            let cost = cost_to_center(0, s, cc1) + cost_to_center(s + 1, n - 1, cc2);
            if cost < best {
                best = cost;
                best_t = Some(t);
            }
        }
        best_t
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_unit_enum!(Stability { Stable, Transition });
impl bz_state::Persist for VarianceHistogram {
    /// Each counter is saved as a `u64` word, the layout of every
    /// checkpoint format.
    fn save(&self, w: &mut bz_state::Writer) {
        w.put(&self.n_slots);
        w.put(&self.var_min);
        w.put(&self.var_max);
        w.put_len(self.counts.len());
        for &count in &self.counts {
            w.put_u64(u64::from(count));
        }
        w.put(&self.observed);
    }

    /// Refuses a counter above `u32::MAX`, and a histogram whose counters
    /// do not match its slot count: the next observation would index past
    /// them.
    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        let n_slots = r.take()?;
        let var_min = r.take()?;
        let var_max = r.take()?;
        let counts = Vec::<u64>::load(r)?
            .into_iter()
            .map(|count| {
                u32::try_from(count).map_err(|_| bz_state::StateError::Invalid {
                    what: "VarianceHistogram",
                    reason: format!("counter {count} is above u32::MAX"),
                })
            })
            .collect::<Result<_, _>>()?;
        let histogram = Self {
            n_slots,
            var_min,
            var_max,
            counts,
            observed: r.take()?,
        };
        if histogram.n_slots < 2 || histogram.counts.len() != histogram.n_slots {
            return Err(bz_state::StateError::Invalid {
                what: "VarianceHistogram",
                reason: format!(
                    "{} counters for {} slots",
                    histogram.counts.len(),
                    histogram.n_slots
                ),
            });
        }
        Ok(histogram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bz_state::Persist;

    #[test]
    fn counters_saturate_save_as_u64_words_and_refuse_one_past_u32() {
        let mut histogram = VarianceHistogram::new(4);
        for variance in [0.0, 1.0, 1.0] {
            histogram.observe(variance);
        }
        histogram.counts[0] = u32::MAX;
        histogram.observe(0.0);
        assert_eq!(histogram.counts(), [u64::from(u32::MAX), 0, 0, 2]);
        let mut w = bz_state::Writer::new();
        histogram.save(&mut w);
        let mut words = bz_state::Writer::new();
        words.put(&4usize);
        words.put(&0.0f64);
        words.put(&1.0f64);
        words.put(&histogram.counts());
        words.put(&4u64);
        assert_eq!(w.as_bytes(), words.as_bytes());
        let restored = VarianceHistogram::load(&mut bz_state::Reader::new(w.as_bytes()));
        assert_eq!(restored, Ok(histogram.clone()));
        let mut past = w.into_bytes();
        // The first counter word follows the slot count, the range and
        // the counter count.
        past[32..40].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        let err = VarianceHistogram::load(&mut bz_state::Reader::new(&past)).unwrap_err();
        assert!(
            err.to_string().contains("4294967296 is above u32::MAX"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_counters_that_do_not_match_the_slots() {
        let mut histogram = VarianceHistogram::new(40);
        histogram.observe(0.0);
        histogram.observe(1.0);
        histogram.counts.truncate(3);
        let mut w = bz_state::Writer::new();
        histogram.save(&mut w);
        let loaded = VarianceHistogram::load(&mut bz_state::Reader::new(w.as_bytes()));
        if let Ok(restored) = &loaded {
            // The next observation indexes the counters by slot.
            restored.clone().observe(0.9);
        }
        let err = loaded.unwrap_err().to_string();
        assert!(err.contains("3 counters for 40 slots"), "{err}");
    }

    /// A bimodal variance stream like a real sensor produces: a dense
    /// cluster of tiny stable-state variances and a sparse cluster of
    /// large transition variances.
    fn bimodal_stream() -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..300 {
            v.push(0.001 + 0.0005 * f64::from(i % 7)); // stable: ~0.001–0.004
        }
        for i in 0..30 {
            v.push(0.8 + 0.05 * f64::from(i % 5)); // transitions: ~0.8–1.0
        }
        v
    }

    /// Algorithm 1 evaluated directly, as `threshold` did before it
    /// cached the slot centers: the bit-exact reference for the kernel.
    fn reference_threshold(h: &VarianceHistogram) -> Option<f64> {
        if h.slot_width() == 0.0 {
            return None;
        }
        let n = h.n_slots;
        let mut best_j = 1;
        let mut best_sum = f64::INFINITY;
        for j in 1..n {
            let cc1: f64 = (1..=j).map(|k| h.slot_center(k)).sum::<f64>() / j as f64;
            let cc2: f64 = ((j + 1)..=n).map(|k| h.slot_center(k)).sum::<f64>() / (n - j) as f64;
            let sum1: f64 = (1..=j)
                .map(|k| h.counts()[k - 1] as f64 * (h.slot_center(k) - cc1).abs())
                .sum();
            let sum2: f64 = ((j + 1)..=n)
                .map(|k| h.counts()[k - 1] as f64 * (h.slot_center(k) - cc2).abs())
                .sum();
            if sum1 + sum2 < best_sum {
                best_sum = sum1 + sum2;
                best_j = j;
            }
        }
        Some(h.var_min() + best_j as f64 * h.slot_width())
    }

    /// SplitMix64: a seeded stream for the differential test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn threshold_is_bit_identical_to_the_direct_evaluation() {
        let mut checked = 0u32;
        for (n, seeds, stride) in [
            (2, 40, 1),
            (3, 40, 1),
            (10, 40, 1),
            (40, 12, 2),
            (100, 4, 8),
        ] {
            for seed in 0..seeds {
                let mut state = seed ^ (n as u64) << 32;
                let mut h = VarianceHistogram::new(n);
                // Scales span stable noise to door-event bursts; a growing
                // scale keeps re-binning the histogram.
                let mut scale = 1e-4;
                for step in 0..400u32 {
                    let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                    let variance = match splitmix(&mut state) % 10 {
                        0 => scale * 1e3 * u,
                        1 => 0.0,
                        2 => scale, // repeats pile counts into one slot
                        _ => scale * u,
                    };
                    let range = (h.var_min(), h.var_max());
                    h.observe(variance);
                    let mut fresh = range != (h.var_min(), h.var_max());
                    if step % 97 == 96 {
                        scale *= 10.0;
                    }
                    if splitmix(&mut state).is_multiple_of(150) {
                        h.reset_counters();
                        fresh = true;
                    }
                    if !fresh && step % stride != 0 {
                        continue;
                    }
                    let (fast, direct) = (h.threshold(), reference_threshold(&h));
                    assert_eq!(
                        fast.map(f64::to_bits),
                        direct.map(f64::to_bits),
                        "N={n} seed={seed} step={step}: {fast:?} vs {direct:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 40_000, "{checked} thresholds compared");
    }

    #[test]
    fn threshold_matches_the_direct_evaluation_at_extreme_ranges() {
        for n in [2, 3, 10, 40] {
            for (low, high) in [
                (0.0, 5e-324),
                (0.0, f64::MAX),
                (1e300, f64::MAX),
                (-0.0, 1.0),
            ] {
                let mut h = VarianceHistogram::new(n);
                h.observe(low);
                h.observe(high);
                h.observe(high);
                let direct = reference_threshold(&h);
                assert_eq!(h.threshold().map(f64::to_bits), direct.map(f64::to_bits));
                h.reset_counters();
                let direct = reference_threshold(&h);
                assert_eq!(h.threshold().map(f64::to_bits), direct.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn threshold_lies_within_its_bounds() {
        let mut checked = 0u32;
        for n in [2, 3, 40] {
            for seed in 0..20u64 {
                let mut state = seed ^ (n as u64) << 32;
                let mut h = VarianceHistogram::new(n);
                // A large base makes `var_min + w` round to `var_min` in
                // some streams: the bounds then hold with equality.
                let base = [0.0, 1.0, 1e20][seed as usize % 3];
                for step in 0..300u32 {
                    let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                    let spread = if step % 50 < 5 { 1e3 } else { 1e-2 };
                    h.observe(base + spread * u);
                    if splitmix(&mut state).is_multiple_of(100) {
                        h.reset_counters();
                    }
                    let (lambda, bounds) = (h.threshold(), h.threshold_bounds());
                    assert_eq!(lambda.is_some(), bounds.is_some(), "N={n} seed={seed}");
                    if let (Some(lambda), Some((low, high))) = (lambda, bounds) {
                        assert!(
                            low <= lambda && lambda <= high,
                            "{low} <= {lambda} <= {high}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 10_000, "{checked} thresholds bounded");
        for (low, high) in [(0.0, 5e-324), (0.0, f64::MAX), (1e300, f64::MAX)] {
            let mut h = VarianceHistogram::new(40);
            h.observe(low);
            h.observe(high);
            assert_eq!(h.threshold().is_some(), h.threshold_bounds().is_some());
            if let (Some(lambda), Some((l, u))) = (h.threshold(), h.threshold_bounds()) {
                assert!(l <= lambda && lambda <= u);
            }
        }
    }

    #[test]
    fn classify_boundaries() {
        assert_eq!(classify(0.1, 0.5), Stability::Stable);
        assert_eq!(classify(0.5, 0.5), Stability::Transition);
        assert_eq!(classify(0.9, 0.5), Stability::Transition);
    }

    #[test]
    fn histogram_needs_two_distinct_values() {
        let mut h = VarianceHistogram::new(40);
        assert_eq!(h.threshold(), None);
        h.observe(0.5);
        assert_eq!(h.threshold(), None);
        h.observe(0.5);
        assert_eq!(h.threshold(), None);
        h.observe(0.9);
        assert!(h.threshold().is_some());
    }

    #[test]
    fn histogram_separates_bimodal_clusters() {
        let mut h = VarianceHistogram::new(40);
        for v in bimodal_stream() {
            h.observe(v);
        }
        let lambda = h.threshold().unwrap();
        assert!(
            lambda > 0.01 && lambda < 0.8,
            "λ = {lambda} should fall between the clusters"
        );
        // Every stable sample classifies stable, every burst transition.
        assert_eq!(classify(0.004, lambda), Stability::Stable);
        assert_eq!(classify(0.8, lambda), Stability::Transition);
    }

    #[test]
    fn histogram_matches_paper_worked_example() {
        // Figure 9: varmax=10, varmin=0, N=5, counters U = [5,10,3,7,5].
        // The example computes total distance 28 at j=3; j=3 is in fact
        // the optimum for these counters, so λ = 0 + 3·2 = 6.
        let mut h = VarianceHistogram::new(5);
        // Anchor the range.
        h.observe(0.0);
        h.observe(10.0);
        // Remove the anchors' counts by resetting, keeping the range.
        h.reset_counters();
        for (slot, count) in [(1.0_f64, 5), (3.0, 10), (5.0, 3), (7.0, 7), (9.0, 5)] {
            for _ in 0..count {
                h.observe(slot);
            }
        }
        assert_eq!(h.counts(), &[5, 10, 3, 7, 5]);
        let lambda = h.threshold().unwrap();
        assert!((lambda - 6.0).abs() < 1e-9, "λ = {lambda}");
    }

    #[test]
    fn rebinning_preserves_total_count() {
        let mut h = VarianceHistogram::new(10);
        for v in [0.1, 0.2, 0.3, 0.15, 0.25] {
            h.observe(v);
        }
        let before: u64 = h.counts().iter().sum();
        // Force a range expansion.
        h.observe(5.0);
        let after: u64 = h.counts().iter().sum();
        assert_eq!(after, before + 1);
        assert_eq!(h.var_max(), 5.0);
    }

    #[test]
    fn counter_reset_keeps_range() {
        let mut h = VarianceHistogram::new(10);
        h.observe(0.0);
        h.observe(2.0);
        h.reset_counters();
        assert_eq!(h.observed(), 0);
        assert_eq!(h.var_min(), 0.0);
        assert_eq!(h.var_max(), 2.0);
        assert!(h.counts().iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "at least two slots")]
    fn histogram_rejects_tiny_n() {
        let _ = VarianceHistogram::new(1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn histogram_rejects_negative_variance() {
        VarianceHistogram::new(10).observe(-0.1);
    }

    #[test]
    fn oracle_needs_two_distinct_values() {
        let mut o = ExactClusterer::new();
        assert_eq!(o.threshold(), None);
        o.observe(1.0);
        assert_eq!(o.threshold(), None);
        o.observe(1.0);
        assert_eq!(o.threshold(), None);
        o.observe(3.0);
        assert!(o.threshold().is_some());
        assert_eq!(o.values.len(), 3);
    }

    #[test]
    fn oracle_separates_the_mode_centers() {
        let mut o = ExactClusterer::new();
        for v in bimodal_stream() {
            o.observe(v);
        }
        let lambda = o.threshold().unwrap();
        // The range-centered objective may place λ near the edge of the
        // dense cluster, but it must classify the two mode centers apart.
        assert_eq!(classify(0.002, lambda), Stability::Stable, "λ = {lambda}");
        assert_eq!(classify(0.9, lambda), Stability::Transition, "λ = {lambda}");
    }

    #[test]
    fn histogram_approaches_oracle_with_large_n() {
        let stream = bimodal_stream();
        let mut oracle = ExactClusterer::new();
        let mut coarse = VarianceHistogram::new(4);
        let mut fine = VarianceHistogram::new(64);
        for &v in &stream {
            oracle.observe(v);
            coarse.observe(v);
            fine.observe(v);
        }
        let l_oracle = oracle.threshold().unwrap();
        let l_fine = fine.threshold().unwrap();
        let l_coarse = coarse.threshold().unwrap();
        // Every λ must separate the two modes, i.e. classify both mode
        // centers the same way the oracle does. (Algorithm 1 optimizes a
        // slightly different objective — unweighted slot centers — so its
        // λ need not converge numerically to the oracle's, only agree in
        // its decisions; that agreement is what Fig. 12(a) measures.)
        for lambda in [l_fine, l_coarse] {
            for v in [0.002, 0.9] {
                assert_eq!(classify(v, lambda), classify(v, l_oracle));
            }
        }
    }

    #[test]
    fn oracle_two_point_split_is_midpoint() {
        let mut o = ExactClusterer::new();
        o.observe(1.0);
        o.observe(3.0);
        assert!((o.threshold().unwrap() - 2.0).abs() < 1e-12);
    }
}
