//! Batch psychrometric kernels operating over zone slices.
//!
//! The thermal plant evaluates the same property functions for every
//! subspace each tick. These kernels take parallel `f64` slices (one
//! element per zone) and evaluate the scalar kernels element-wise in a
//! single pass, giving the compiler a tight, branch-free loop to
//! auto-vectorize and sparing the per-call overhead of the newtype
//! wrappers.
//!
//! # Bit-exactness contract
//!
//! Every function here performs **exactly the arithmetic of its scalar
//! counterpart, in the same operation order, element by element**. Rust
//! floating-point semantics are strict (no fast-math reassociation), so
//! batch results are bit-identical to scalar results — the property the
//! scalar-parity suite in `crates/thermal` and `crates/core` locks down.

use crate::moist_air::{dry_air_density, relative_humidity_from_humidity_ratio};
use crate::units::{Celsius, KgPerKg};

/// Asserts the parallel-slice contract shared by every batch kernel.
macro_rules! same_len {
    ($a:expr, $b:expr) => {
        assert_eq!(
            $a.len(),
            $b.len(),
            "batch kernel slices must have equal lengths"
        );
    };
}

/// Batch relative humidity from humidity ratio:
/// `out[i] = rh(temps_c[i], ratios[i])` in percent.
///
/// # Panics
///
/// Panics if the slices have different lengths or any ratio is negative.
pub fn relative_humidity_batch(temps_c: &[f64], ratios: &[f64], out: &mut [f64]) {
    same_len!(temps_c, out);
    same_len!(ratios, out);
    for ((t, w), o) in temps_c.iter().zip(ratios.iter()).zip(out.iter_mut()) {
        *o = relative_humidity_from_humidity_ratio(Celsius::new(*t), KgPerKg::new(*w))
            .expect("humidity ratio must be non-negative")
            .get();
    }
}

/// Batch dry-air density at standard pressure:
/// `out[i] = rho(temps_c[i])` in kg/m³.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dry_air_density_batch(temps_c: &[f64], out: &mut [f64]) {
    same_len!(temps_c, out);
    for (t, o) in temps_c.iter().zip(out.iter_mut()) {
        *o = dry_air_density(Celsius::new(*t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Percent;

    const TEMPS: [f64; 4] = [18.5, 24.0, 28.9, 31.2];
    const RATIOS: [f64; 4] = [0.009, 0.0136, 0.0233, 0.0258];

    #[test]
    fn relative_humidity_matches_scalar_bitwise() {
        let mut out = [0.0; 4];
        relative_humidity_batch(&TEMPS, &RATIOS, &mut out);
        for i in 0..4 {
            let scalar = relative_humidity_from_humidity_ratio(
                Celsius::new(TEMPS[i]),
                KgPerKg::new(RATIOS[i]),
            )
            .unwrap();
            assert_eq!(scalar.get().to_bits(), out[i].to_bits());
            // Sanity: these are real humidity percentages.
            let _typed = Percent::new(out[i]);
            assert!(out[i] > 0.0 && out[i] <= 100.0);
        }
    }

    #[test]
    fn density_matches_scalar_bitwise() {
        let mut out = [0.0; 4];
        dry_air_density_batch(&TEMPS, &mut out);
        for (t, o) in TEMPS.iter().zip(out.iter()) {
            assert_eq!(dry_air_density(Celsius::new(*t)).to_bits(), o.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_lengths_panic() {
        let mut out = [0.0; 3];
        dry_air_density_batch(&TEMPS, &mut out);
    }
}
