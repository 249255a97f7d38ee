//! Seedable deterministic random number generation.
//!
//! The kernel ships its own xoshiro256** implementation rather than pulling
//! in an external generator: the simulators need reproducibility above all
//! else, and owning the generator guarantees the bit stream never changes
//! under a dependency upgrade. No OS entropy is ever consulted — a run is a
//! pure function of its seed.
//!
//! Normal sampling is *versioned* through [`NoiseKernel`] (see the
//! [`noise`](crate::noise) module): both kernels consume exactly two raw
//! draws per sample, so the stream position is always the xoshiro state
//! array alone and [`Rng::skip_normals`] stays an exact fixed stride
//! regardless of which kernel is active.

use crate::noise::{ziggurat_normal, NoiseKernel};

/// A deterministic xoshiro256** pseudo-random generator.
///
/// # Example
///
/// ```
/// use bz_simcore::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
    kernel: NoiseKernel,
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanding it through
    /// SplitMix64 as the xoshiro authors recommend. Uses the default
    /// [`NoiseKernel`]; see [`Rng::with_kernel`] to pin a version.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next(), next(), next(), next()];
        Self {
            state,
            kernel: NoiseKernel::default(),
        }
    }

    /// Returns this generator with its noise kernel pinned to `kernel`.
    /// The raw stream (`next_u64` and everything built on it) is
    /// unaffected; only how [`standard_normal`](Self::standard_normal)
    /// maps draws to samples changes.
    #[must_use]
    pub fn with_kernel(mut self, kernel: NoiseKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Forks an independent generator whose stream is decorrelated from
    /// this one. Use this to give each simulated device its own stream so
    /// adding a device never perturbs the others. The child inherits the
    /// parent's noise kernel.
    #[must_use]
    pub fn fork(&mut self) -> Self {
        let kernel = self.kernel;
        Self::seed_from(self.next_u64() ^ 0xA5A5_5A5A_DEAD_BEEF).with_kernel(kernel)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling (Lemire); the biased low zone is
        // rejected to keep the stream statistics clean. The rejection
        // threshold is `2^64 mod bound`, which is strictly less than
        // `bound`, so the historical fast-accept pre-check
        // (`low >= bound && low < bound.wrapping_neg()`) accepted a strict
        // subset of what this single test accepts — removing it leaves the
        // emitted stream bit-identical (pinned by
        // `below_stream_is_pinned`).
        let threshold = bound.wrapping_neg().wrapping_rem(bound);
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// A standard normal sample using this generator's [`NoiseKernel`]
    /// (one value per call; always exactly two raw draws).
    pub fn standard_normal(&mut self) -> f64 {
        match self.kernel {
            NoiseKernel::V1 => {
                // Box–Muller; avoid ln(0) by nudging u1 away from zero.
                let u1 = self.next_f64().max(f64::MIN_POSITIVE);
                let u2 = self.next_f64();
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            }
            NoiseKernel::V2 => {
                let r0 = self.next_u64();
                let r1 = self.next_u64();
                ziggurat_normal(r0, r1)
            }
        }
    }

    /// Advances the state exactly as `count` discarded
    /// [`standard_normal`](Self::standard_normal) draws would, without
    /// paying for the sample evaluation.
    ///
    /// Both noise kernels consume exactly two raw draws per sample with no
    /// stream-visible rejection (see [`NoiseKernel`]), so skipping is a
    /// fixed stride regardless of the active kernel: callers that compute
    /// a value only to throw it away (e.g. a sensor read whose sibling
    /// channel is unused) can skip instead and leave the stream — and
    /// therefore every later draw — bit-identical.
    pub fn skip_normals(&mut self, count: usize) {
        for _ in 0..count {
            self.next_u64();
            self.next_u64();
        }
    }

    /// A normal sample with the given `mean` and standard deviation `sd`.
    ///
    /// # Panics
    ///
    /// Panics if `sd` is negative.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(sd >= 0.0, "standard deviation must be non-negative");
        mean + sd * self.standard_normal()
    }
}

impl bz_state::Persist for Rng {
    fn save(&self, w: &mut bz_state::Writer) {
        self.state.save(w);
        // The kernel is part of the stream's identity: the same xoshiro
        // position replayed under a different kernel yields different
        // samples, so a checkpoint must restore both together.
        self.kernel.save(w);
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        let state = <[u64; 4]>::load(r)?;
        let kernel = NoiseKernel::load(r)?;
        if state == [0; 4] {
            // The all-zero state is xoshiro's one fixed point: every draw
            // would return the same value forever. No reachable stream
            // position encodes to it, so reject rather than restore a
            // degenerate generator.
            return Err(bz_state::StateError::Invalid {
                what: "Rng",
                reason: "all-zero xoshiro state".to_owned(),
            });
        }
        Ok(Self { state, kernel })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = Rng::seed_from(9);
        let mut child = parent.fork();
        let matches = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Rng::seed_from(4);
        for _ in 0..10_000 {
            let x = rng.uniform(-3.0, 7.0);
            assert!((-3.0..7.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut rng = Rng::seed_from(5);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            let x = rng.below(8);
            assert!(x < 8);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(6);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Rng::seed_from(8);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn skip_normals_matches_discarded_draws_under_both_kernels() {
        for kernel in [NoiseKernel::V1, NoiseKernel::V2] {
            let mut skipped = Rng::seed_from(13).with_kernel(kernel);
            let mut drawn = Rng::seed_from(13).with_kernel(kernel);
            skipped.skip_normals(3);
            for _ in 0..3 {
                let _ = drawn.standard_normal();
            }
            assert_eq!(skipped, drawn, "{kernel}");
            // And the streams stay locked together afterwards.
            for _ in 0..16 {
                assert_eq!(skipped.next_u64(), drawn.next_u64(), "{kernel}");
            }
        }
    }

    #[test]
    fn fork_propagates_the_kernel() {
        let mut v1 = Rng::seed_from(9).with_kernel(NoiseKernel::V1);
        assert_eq!(v1.fork().kernel, NoiseKernel::V1);
        let mut v2 = Rng::seed_from(9).with_kernel(NoiseKernel::V2);
        assert_eq!(v2.fork().kernel, NoiseKernel::V2);
    }

    #[test]
    fn kernel_selection_leaves_the_raw_stream_untouched() {
        let mut a = Rng::seed_from(77).with_kernel(NoiseKernel::V1);
        let mut b = Rng::seed_from(77).with_kernel(NoiseKernel::V2);
        for _ in 0..256 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.below(97), b.below(97));
        assert_eq!(a.next_f64().to_bits(), b.next_f64().to_bits());
    }

    /// Pinned from the tree immediately before the `below` branch
    /// simplification: the single-threshold rejection must emit exactly
    /// the sequence the historical double-branch code emitted.
    #[test]
    fn below_stream_is_pinned() {
        const EXPECTED: [u64; 40] = [
            0, 4, 9, 8, 63, 162, 2, 0, 4, 3, 2, 3, 0, 6, 88, 443, 4, 1, 0, 6, 1, 5, 4, 9, 100, 601,
            7, 0, 2, 10, 1, 8, 10, 8, 17, 5, 3, 4, 0, 11,
        ];
        let mut rng = Rng::seed_from(0xB0B0_1234);
        let bounds = [3u64, 7, 10, 12, 100, 1000, 6, 2, 5, 17];
        let mut vals = Vec::new();
        for round in 0..4 {
            for &b in &bounds {
                vals.push(rng.below(b + round));
            }
        }
        assert_eq!(vals, EXPECTED);
        // The raw stream position (i.e. the number of consumed draws,
        // including rejections) must also be unchanged.
        assert_eq!(rng.next_u64(), 0x199c_2d25_9077_d407);
    }

    /// `below` must stay exactly uniform for small bounds: the rejection
    /// threshold makes every residue appear exactly `floor(2^64 / bound)`
    /// or `ceil` times over the full period, so over a large sample each
    /// residue's frequency must sit within tight binomial bounds.
    #[test]
    fn below_small_bounds_are_uniform() {
        for bound in 2u64..=9 {
            let mut rng = Rng::seed_from(0xD157 + bound);
            let n = 40_000u64;
            let mut counts = vec![0u64; bound as usize];
            for _ in 0..n {
                counts[rng.below(bound) as usize] += 1;
            }
            let expected = n as f64 / bound as f64;
            // 5-sigma binomial envelope: p = 1/bound.
            let sigma = (n as f64 * (1.0 / bound as f64) * (1.0 - 1.0 / bound as f64)).sqrt();
            for (residue, &count) in counts.iter().enumerate() {
                assert!(
                    (count as f64 - expected).abs() < 5.0 * sigma,
                    "bound {bound} residue {residue}: {count} vs {expected}"
                );
            }
        }
    }

    /// Pinned V1 Box–Muller output: the V1 kernel is the compatibility
    /// anchor for every pre-seam export and must never change.
    #[test]
    fn v1_normals_are_pinned() {
        const EXPECTED: [u64; 8] = [
            0xbff9_f4d7_a69f_3672,
            0x3fea_0563_f7ef_6fec,
            0xbffa_0932_8f6e_ada7,
            0xbff0_19a1_4459_e1c5,
            0xbfea_c208_2842_bfe2,
            0xbfd9_84f7_ca2d_2db1,
            0x3fee_88f1_95a3_353c,
            0xbfce_c289_1fc6_5281,
        ];
        let mut rng = Rng::seed_from(0x0001_CAFE).with_kernel(NoiseKernel::V1);
        for (i, &bits) in EXPECTED.iter().enumerate() {
            assert_eq!(rng.standard_normal().to_bits(), bits, "sample {i}");
        }
        assert_eq!(rng.next_u64(), 0x24e1_4751_1bca_99f3);
    }

    #[test]
    fn persist_round_trips_the_kernel() {
        for kernel in [NoiseKernel::V1, NoiseKernel::V2] {
            let mut rng = Rng::seed_from(5).with_kernel(kernel);
            let _ = rng.standard_normal();
            let mut w = bz_state::Writer::new();
            bz_state::Persist::save(&rng, &mut w);
            let bytes = w.into_bytes();
            let mut r = bz_state::Reader::new(&bytes);
            let back: Rng = bz_state::Persist::load(&mut r).expect("load");
            assert_eq!(back, rng, "{kernel}");
            assert_eq!(back.kernel, kernel);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        let _ = Rng::seed_from(1).below(0);
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_rejects_inverted() {
        let _ = Rng::seed_from(1).uniform(2.0, 1.0);
    }
}
