//! Versioned normal-noise kernels for [`Rng`](crate::Rng).
//!
//! Every sensor read, weather wander step, and fault perturbation in the
//! simulator draws Gaussian noise, and those draws dominate the per-tick
//! transcendental budget (`ln`/`sqrt`/`cos` per Box–Muller sample). This
//! module gives the generator a *versioned* seam so the sampler can be
//! replaced without silently invalidating historical exports:
//!
//! - [`NoiseKernel::V1`] — the original Box–Muller sampler, kept
//!   bit-compatible forever as the reference for all exports produced
//!   before the seam existed.
//! - [`NoiseKernel::V2`] — a table-driven ziggurat sampler (Marsaglia &
//!   Tsang layout, 128 layers) that replaces the three transcendentals
//!   with a table compare and one multiply on ~98.8% of draws.
//!
//! # The fixed-stride contract
//!
//! Both kernels consume **exactly two raw 64-bit draws per sample**, with
//! no data-dependent rejection visible to the main stream. V1 does this
//! naturally (Box–Muller needs two uniforms). V2 gets the same stride by
//! construction: the first draw provides the candidate bits, and the
//! second seeds a *local* SplitMix64 scramble that supplies however many
//! continuation bits the rare rejection/tail paths need. The xoshiro
//! stream therefore advances by a fixed amount per sample under either
//! kernel, which keeps three load-bearing properties intact:
//!
//! 1. `Rng::skip_normals(n)` remains an exact 2·n-draw stride — the
//!    single-channel fast sensor reads stay bit-identical to full reads.
//! 2. The generator's stream position is fully described by the xoshiro
//!    state array — checkpoints need no extra ziggurat cursor.
//! 3. Reordering samplers across forked generators never perturbs
//!    sibling streams, exactly as before.
//!
//! The scrambled continuation bits are as statistically sound as the
//! primary stream (SplitMix64 is the same finalizer used to seed xoshiro
//! itself); the `noise_stats` suite verifies both kernels against the
//! exact normal CDF and against each other.

use std::sync::OnceLock;

/// Which normal sampler an [`Rng`](crate::Rng) uses. See the module docs
/// for the compatibility contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseKernel {
    /// Box–Muller; bit-compatible with every pre-seam export.
    V1,
    /// Table-driven ziggurat; the default since the round-2 campaign.
    #[default]
    V2,
}

bz_state::persist_unit_enum!(NoiseKernel { V1, V2 });

impl NoiseKernel {
    /// Resolves the kernel from the `BZ_NOISE` environment variable
    /// (`v1`/`1` or `v2`/`2`), defaulting to [`NoiseKernel::V2`].
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value — a typo'd `BZ_NOISE=v3` must not
    /// silently run the default kernel while the operator believes they
    /// pinned a version.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("BZ_NOISE") {
            Ok(v) if v.trim().is_empty() => Self::V2,
            Ok(v) => Self::parse(&v)
                .unwrap_or_else(|| panic!("BZ_NOISE must be v1 or v2, got '{}'", v.trim())),
            Err(_) => Self::V2,
        }
    }

    /// Parses a kernel name as `BZ_NOISE` spells it (`v1`/`1` or
    /// `v2`/`2`, any case).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "v1" | "1" => Some(Self::V1),
            "v2" | "2" => Some(Self::V2),
            _ => None,
        }
    }

    /// The canonical lowercase name (`"v1"` / `"v2"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::V1 => "v1",
            Self::V2 => "v2",
        }
    }
}

impl std::fmt::Display for NoiseKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of ziggurat rectangles.
const LAYERS: usize = 128;
/// Rightmost layer edge `r` for 128 layers (Marsaglia & Tsang).
const TAIL_START: f64 = 3.442_619_855_899;
/// Common rectangle area `v` for 128 layers.
const AREA: f64 = 9.912_563_035_262_17e-3;
/// Magnitude scale: candidate bits are interpreted as a signed 63-bit
/// integer, so table entries are normalized by 2^63.
const SCALE: f64 = 9_223_372_036_854_775_808.0; // 2^63 exactly

struct Tables {
    /// Acceptance thresholds: accept `|hz| < k[i]` without a float compare.
    k: [u64; LAYERS],
    /// Layer-edge x coordinates scaled by 2^-63.
    w: [f64; LAYERS],
    /// Density at the layer edges, `exp(-x_i^2 / 2)`.
    f: [f64; LAYERS],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut k = [0u64; LAYERS];
        let mut w = [0f64; LAYERS];
        let mut f = [0f64; LAYERS];
        let mut dn = TAIL_START;
        let mut tn = dn;
        let q = AREA / (-0.5 * dn * dn).exp();
        // Casting a positive in-range f64 to u64 saturates and cannot wrap.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            k[0] = ((dn / q) * SCALE) as u64;
        }
        k[1] = 0;
        w[0] = q / SCALE;
        w[LAYERS - 1] = dn / SCALE;
        f[0] = 1.0;
        f[LAYERS - 1] = (-0.5 * dn * dn).exp();
        for i in (1..=LAYERS - 2).rev() {
            dn = (-2.0 * (AREA / dn + (-0.5 * dn * dn).exp()).ln()).sqrt();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                k[i + 1] = ((dn / tn) * SCALE) as u64;
            }
            tn = dn;
            f[i] = (-0.5 * dn * dn).exp();
            w[i] = dn / SCALE;
        }
        Tables { k, w, f }
    })
}

/// SplitMix64 step — the same finalizer `Rng::seed_from` uses.
#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `f64` in `[0, 1)` from 53 high bits, matching `Rng::next_f64`.
#[inline]
#[allow(clippy::cast_precision_loss)]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One standard-normal sample from exactly two raw draws: `r0` supplies
/// the signed candidate bits, `r1` seeds the local scramble that feeds
/// the rare rejection and tail paths.
#[inline]
#[allow(clippy::cast_possible_wrap, clippy::cast_precision_loss)]
pub(crate) fn ziggurat_normal(r0: u64, r1: u64) -> f64 {
    let t = tables();
    let mut hz = r0 as i64;
    let mut scramble = r1;
    loop {
        let iz = (hz & 127) as usize;
        if hz.unsigned_abs() < t.k[iz] {
            // ~98.8% of draws take this branch: one compare, one multiply.
            return hz as f64 * t.w[iz];
        }
        if iz == 0 {
            // Base layer: sample the tail beyond TAIL_START by the
            // standard exponential-acceptance construction.
            loop {
                let u1 = unit_f64(splitmix(&mut scramble));
                let u2 = unit_f64(splitmix(&mut scramble));
                let x = -(1.0 - u1).ln() / TAIL_START;
                let y = -(1.0 - u2).ln();
                if y + y > x * x {
                    let mag = TAIL_START + x;
                    return if hz > 0 { mag } else { -mag };
                }
            }
        }
        // Wedge between the rectangle and the density curve.
        let x = hz as f64 * t.w[iz];
        let u = unit_f64(splitmix(&mut scramble));
        if t.f[iz] + u * (t.f[iz - 1] - t.f[iz]) < (-0.5 * x * x).exp() {
            return x;
        }
        hz = splitmix(&mut scramble) as i64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_invariants_hold() {
        let t = tables();
        // Edges decrease monotonically from the tail start toward zero.
        assert!((t.w[LAYERS - 1] * SCALE - TAIL_START).abs() < 1e-12);
        for i in 1..LAYERS {
            assert!(t.w[i] >= t.w[i - 1] || i == 1, "w must grow with i");
            assert!(t.f[i] <= t.f[i - 1], "density falls away from the mode");
        }
        assert!((t.f[0] - 1.0).abs() < 1e-15);
        // Acceptance thresholds stay inside the signed 63-bit magnitude.
        for i in 0..LAYERS {
            assert!(t.k[i] <= 1u64 << 63, "k[{i}] out of range");
        }
    }

    #[test]
    fn fast_path_magnitudes_stay_inside_the_layer() {
        let t = tables();
        // An accepted |hz| < k[iz] must map below the layer edge.
        for iz in 1..LAYERS {
            if t.k[iz] == 0 {
                continue;
            }
            let x = (t.k[iz] - 1) as f64 * t.w[iz];
            assert!(x.abs() <= TAIL_START, "layer {iz} escapes the tail start");
        }
    }

    #[test]
    fn env_parsing_round_trips() {
        assert_eq!(NoiseKernel::parse("v1"), Some(NoiseKernel::V1));
        assert_eq!(NoiseKernel::parse("V2"), Some(NoiseKernel::V2));
        assert_eq!(NoiseKernel::parse("2"), Some(NoiseKernel::V2));
        assert_eq!(NoiseKernel::parse("box-muller"), None);
        assert_eq!(NoiseKernel::V1.name(), "v1");
        assert_eq!(NoiseKernel::V2.to_string(), "v2");
    }

    #[test]
    fn sampler_is_a_pure_function_of_its_two_draws() {
        let a = ziggurat_normal(0x0123_4567_89AB_CDEF, 42);
        let b = ziggurat_normal(0x0123_4567_89AB_CDEF, 42);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn tail_path_produces_values_beyond_the_tail_start() {
        // Candidate bits that select layer 0 with a huge magnitude force
        // the tail path; the result must land beyond TAIL_START with the
        // sign of the candidate.
        let pos = ziggurat_normal(i64::MAX as u64 & !127, 7);
        assert!(pos > TAIL_START, "tail sample {pos}");
        let neg = ziggurat_normal(i64::MIN as u64, 7);
        assert!(neg < -TAIL_START, "tail sample {neg}");
    }
}
