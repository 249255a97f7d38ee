//! Online reduced-order model identification.
//!
//! [`ZoneIdentifier`] fits a linear *rate* surrogate of one subspace —
//!
//! ```text
//! dT/dt ≈ θ · φ,   φ = [u_rad, u_vent, T_out − T, occupants, 1]
//! ```
//!
//! — by recursive least squares with exponential forgetting, from the
//! **sensed** room-temperature trajectory only (the over-the-air
//! readings the controllers already receive; never privileged plant
//! state). The regressor entries are the controls the strategy itself
//! applied last cycle, the deterministic nominal outdoor temperature,
//! and the occupancy stream; the target is the sensed temperature rate
//! over one control period.
//!
//! θ is seeded from the physics prior
//! [`bz_thermal::zone::ZoneParams::surrogate_prior`], so the optimizer
//! has a usable model from the first cycle and RLS only has to correct
//! it.

/// Dimension of the regressor/parameter vectors.
pub const DIM: usize = 5;

/// Tuning of the recursive least-squares estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdentifyConfig {
    /// Forgetting factor λ (per update; 1.0 = infinite memory).
    pub forgetting: f64,
    /// Initial covariance diagonal: how little the prior is trusted.
    /// Small values keep the estimate near the physics prior; large
    /// values let the data take over quickly.
    pub initial_covariance: f64,
}

impl Default for IdentifyConfig {
    fn default() -> Self {
        Self {
            forgetting: 0.998,
            initial_covariance: 1.0,
        }
    }
}

/// Recursive least-squares estimator of one subspace's rate model.
#[derive(Debug, Clone)]
pub struct ZoneIdentifier {
    theta: [f64; DIM],
    p: [[f64; DIM]; DIM],
    forgetting: f64,
    pub(crate) samples: u64,
}

impl ZoneIdentifier {
    /// An estimator seeded at `prior` (see
    /// [`bz_thermal::zone::ZoneParams::surrogate_prior`]).
    #[must_use]
    pub fn with_prior(prior: [f64; DIM], config: IdentifyConfig) -> Self {
        let mut p = [[0.0; DIM]; DIM];
        for (i, row) in p.iter_mut().enumerate() {
            row[i] = config.initial_covariance;
        }
        Self {
            theta: prior,
            p,
            forgetting: config.forgetting.clamp(0.5, 1.0),
            samples: 0,
        }
    }

    /// One RLS update with regressor `phi` and observed rate `y` (K/s).
    /// Non-finite inputs are ignored.
    pub fn update(&mut self, phi: [f64; DIM], y: f64) {
        if !y.is_finite() || phi.iter().any(|v| !v.is_finite()) {
            return;
        }
        // k = P φ / (λ + φᵀ P φ)
        let mut p_phi = [0.0; DIM];
        for (out, row) in p_phi.iter_mut().zip(&self.p) {
            *out = dot(row, &phi);
        }
        let denom = self.forgetting + dot(&phi, &p_phi);
        if denom <= 1e-12 {
            return;
        }
        let mut gain = [0.0; DIM];
        for (g, pp) in gain.iter_mut().zip(&p_phi) {
            *g = pp / denom;
        }
        let error = y - dot(&self.theta, &phi);
        for (t, g) in self.theta.iter_mut().zip(&gain) {
            *t += g * error;
        }
        // P = (P − k φᵀ P) / λ
        for (row, g) in self.p.iter_mut().zip(&gain) {
            for (cell, pp) in row.iter_mut().zip(&p_phi) {
                *cell = (*cell - g * pp) / self.forgetting;
            }
        }
        self.samples += 1;
    }

    /// Current parameter estimate.
    #[must_use]
    pub fn theta(&self) -> [f64; DIM] {
        self.theta
    }
}

fn dot(a: &[f64; DIM], b: &[f64; DIM]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

// The full estimator is persisted — θ, the covariance, and the sample
// count are all needed for the RLS recursion to continue bit-identically
// after a restore.
bz_state::persist_struct!(ZoneIdentifier {
    theta,
    p,
    forgetting,
    samples,
});

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic zone with known parameters; the estimator must
    /// recover them from noiseless rate observations.
    const TRUE_THETA: [f64; DIM] = [-4.0e-3, -0.1, 7.0e-4, 1.3e-3, 1.7e-3];

    fn regressor(i: u64) -> [f64; DIM] {
        // A deterministic, persistently exciting input sequence.
        let k = i as f64;
        [
            (0.5 + 0.5 * (k * 0.7).sin()).clamp(0.0, 1.0),
            0.012 * (0.5 + 0.5 * (k * 1.3).cos()),
            3.0 + 2.0 * (k * 0.31).sin(),
            f64::from(u32::from(i % 7 < 3)) * 2.0,
            1.0,
        ]
    }

    #[test]
    fn converges_to_the_true_parameters_from_a_zero_prior() {
        let mut rls = ZoneIdentifier::with_prior(
            [0.0; DIM],
            IdentifyConfig {
                forgetting: 1.0,
                // The vent-flow regressor is O(0.01), so its direction
                // needs a large prior covariance to converge in finitely
                // many noiseless samples.
                initial_covariance: 1.0e6,
            },
        );
        for i in 0..4_000 {
            let phi = regressor(i);
            rls.update(phi, dot(&TRUE_THETA, &phi));
        }
        for (est, truth) in rls.theta().iter().zip(&TRUE_THETA) {
            assert!(
                (est - truth).abs() < 1e-5,
                "θ {:?} vs {:?}",
                rls.theta(),
                TRUE_THETA
            );
        }
    }

    #[test]
    fn a_tight_prior_dominates_until_data_accumulates() {
        let prior = TRUE_THETA;
        let mut rls = ZoneIdentifier::with_prior(
            prior,
            IdentifyConfig {
                forgetting: 0.998,
                initial_covariance: 1e-6,
            },
        );
        // A handful of wildly wrong observations barely move θ.
        for i in 0..5 {
            rls.update(regressor(i), 10.0);
        }
        for (est, truth) in rls.theta().iter().zip(&TRUE_THETA) {
            assert!(
                (est - truth).abs() < 0.05,
                "θ moved too far: {est} vs {truth}"
            );
        }
    }

    #[test]
    fn non_finite_observations_are_rejected() {
        let mut rls = ZoneIdentifier::with_prior([1.0; DIM], IdentifyConfig::default());
        rls.update([f64::NAN; DIM], 0.0);
        rls.update([1.0; DIM], f64::INFINITY);
        assert_eq!(rls.samples, 0);
        assert_eq!(rls.theta(), [1.0; DIM]);
    }
}
