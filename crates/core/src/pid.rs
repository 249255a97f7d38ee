//! The PID controller used by both control modules.
//!
//! §III-B: "To achieve a rapid and robust control of F_mix, we adopt the
//! Proportional-Integral-Derivative (PID) algorithm in the control" — and
//! §III-C designs "a similar PID controller" for the airbox coil flow.
//! This implementation adds the two ingredients any deployed PID needs:
//! output clamping and conditional-integration anti-windup.

/// PID gains and output limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain, per second.
    pub ki: f64,
    /// Derivative gain, seconds.
    pub kd: f64,
    /// Lower output clamp.
    pub output_min: f64,
    /// Upper output clamp.
    pub output_max: f64,
}

impl PidConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any gain is negative, a gain is non-finite, or
    /// `output_min > output_max`.
    #[must_use]
    pub fn new(kp: f64, ki: f64, kd: f64, output_min: f64, output_max: f64) -> Self {
        assert!(
            kp >= 0.0 && ki >= 0.0 && kd >= 0.0,
            "gains must be non-negative"
        );
        assert!(
            kp.is_finite() && ki.is_finite() && kd.is_finite(),
            "gains must be finite"
        );
        assert!(output_min <= output_max, "output clamps inverted");
        Self {
            kp,
            ki,
            kd,
            output_min,
            output_max,
        }
    }
}

/// A discrete PID controller with clamping and anti-windup.
///
/// # Example
///
/// ```
/// use bz_core::pid::{Pid, PidConfig};
///
/// // Flow controller: 3.9 K of temperature error should open the valve.
/// let mut pid = Pid::new(PidConfig::new(0.5, 0.01, 0.0, 0.0, 1.0));
/// let output = pid.step(3.9, 1.0);
/// assert!(output > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Pid {
    config: PidConfig,
    integral: f64,
    last_error: Option<f64>,
    obs: bz_obs::Handle,
}

impl Pid {
    /// Creates a controller at rest, counting saturation against the
    /// global `bz_obs` registry.
    #[must_use]
    pub fn new(config: PidConfig) -> Self {
        Self {
            config,
            integral: 0.0,
            last_error: None,
            obs: bz_obs::Handle::global(),
        }
    }

    /// Redirects this controller's metrics to `obs` (per-run isolation).
    #[must_use]
    pub fn with_obs(mut self, obs: bz_obs::Handle) -> Self {
        self.obs = obs;
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PidConfig {
        &self.config
    }

    /// Advances the controller with the current `error` (setpoint −
    /// measurement convention is the caller's) over `dt_s` seconds and
    /// returns the clamped output.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not positive or `error` is not finite.
    pub fn step(&mut self, error: f64, dt_s: f64) -> f64 {
        assert!(dt_s > 0.0 && dt_s.is_finite(), "dt must be positive");
        assert!(error.is_finite(), "error must be finite");

        let derivative = match self.last_error {
            Some(last) => (error - last) / dt_s,
            None => 0.0,
        };
        self.last_error = Some(error);

        // Back-calculation anti-windup: when the output saturates, the
        // integral is reset to the value consistent with the clamped
        // output. Unlike conditional integration, this cannot trap the
        // controller in a limit cycle bouncing between both rails (the
        // integral always lands where the output left off).
        let tentative_integral = self.integral + error * dt_s;
        let unclamped = self.config.kp * error
            + self.config.ki * tentative_integral
            + self.config.kd * derivative;
        let clamped = unclamped.clamp(self.config.output_min, self.config.output_max);
        if clamped != unclamped {
            self.obs.counter_inc("core.pid.saturation");
        }
        if clamped != unclamped && self.config.ki > 0.0 {
            self.integral =
                (clamped - self.config.kp * error - self.config.kd * derivative) / self.config.ki;
        } else {
            self.integral = tentative_integral;
        }
        clamped
    }

    /// Resets the internal state (integral and derivative history).
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
    }

    /// Serializes the controller state (integral, derivative memory). The
    /// gains and the obs handle are rebuilt from config on restore.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        w.put_f64(self.integral);
        self.last_error.save(w);
    }

    /// Restores the state saved by [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.integral = r.take_f64()?;
        self.last_error = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple(kp: f64, ki: f64, kd: f64) -> Pid {
        Pid::new(PidConfig::new(kp, ki, kd, -10.0, 10.0))
    }

    #[test]
    fn proportional_action() {
        let mut pid = simple(2.0, 0.0, 0.0);
        assert!((pid.step(3.0, 1.0) - 6.0).abs() < 1e-12);
        assert!((pid.step(-1.5, 1.0) + 3.0).abs() < 1e-12);
    }

    #[test]
    fn integral_accumulates() {
        let mut pid = simple(0.0, 1.0, 0.0);
        assert!((pid.step(1.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((pid.step(1.0, 1.0) - 2.0).abs() < 1e-12);
        assert!((pid.step(1.0, 1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn derivative_reacts_to_change() {
        let mut pid = simple(0.0, 0.0, 2.0);
        // First step has no history: derivative 0.
        assert_eq!(pid.step(1.0, 1.0), 0.0);
        // Error rose by 4 over 2 s → derivative 2 → output 4.
        assert!((pid.step(5.0, 2.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn output_is_clamped() {
        let mut pid = Pid::new(PidConfig::new(100.0, 0.0, 0.0, 0.0, 1.0));
        assert_eq!(pid.step(5.0, 1.0), 1.0);
        assert_eq!(pid.step(-5.0, 1.0), 0.0);
    }

    #[test]
    fn anti_windup_stops_integral_growth_at_saturation() {
        let mut pid = Pid::new(PidConfig::new(0.0, 1.0, 0.0, 0.0, 1.0));
        for _ in 0..100 {
            assert_eq!(pid.step(5.0, 1.0), 1.0);
        }
        // Without anti-windup the integral would be ~500 and take ~100
        // negative-error steps to unwind; with it, recovery is immediate.
        assert!(pid.integral < 6.0, "integral wound up to {}", pid.integral);
        let recovered = pid.step(-1.0, 1.0);
        assert!(
            recovered < 1.0,
            "controller should leave saturation promptly"
        );
    }

    #[test]
    fn closed_loop_converges_on_first_order_plant() {
        // Plant: dx/dt = (u − x)/τ. PID should drive x to the setpoint.
        let mut pid = Pid::new(PidConfig::new(2.0, 0.25, 0.0, 0.0, 10.0));
        let mut x = 0.0;
        let setpoint = 5.0;
        let tau = 20.0;
        for _ in 0..2_000 {
            let u = pid.step(setpoint - x, 1.0);
            x += (u - x) / tau;
        }
        assert!((x - setpoint).abs() < 0.05, "settled at {x}");
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = simple(1.0, 1.0, 1.0);
        pid.step(3.0, 1.0);
        pid.reset();
        assert_eq!(pid.integral, 0.0);
        // Derivative history cleared: next step has zero derivative term.
        let out = pid.step(1.0, 1.0);
        assert!((out - 2.0).abs() < 1e-12); // kp·1 + ki·1 + kd·0
    }

    #[test]
    #[should_panic(expected = "gains must be non-negative")]
    fn rejects_negative_gain() {
        let _ = PidConfig::new(-1.0, 0.0, 0.0, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "clamps inverted")]
    fn rejects_inverted_clamps() {
        let _ = PidConfig::new(1.0, 0.0, 0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_zero_dt() {
        simple(1.0, 0.0, 0.0).step(1.0, 0.0);
    }
}
