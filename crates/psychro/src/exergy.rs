//! Exergy and ideal-cycle (Carnot) relations.
//!
//! §II of the paper defines the exergy of a heat flux `Q` moved at working
//! temperature `T` relative to a room at reference temperature `T₀` as
//! `Ex = Q·(1 − T/T₀)`: the smaller the temperature gradient, the less work
//! the thermodynamic cycle must consume. The Carnot-fraction chiller model
//! built on these relations is what makes 18 °C water cheaper to produce
//! than 8 °C water, which is the entire economic argument of BubbleZERO.

use crate::units::{Kelvin, Watts};

/// Exergy content of a heat flux `heat` moved at absolute working
/// temperature `working` relative to the reference `reference`
/// (`Ex = Q·(1 − T/T₀)`, the paper's Equation in §II).
///
/// The sign convention follows the paper: for cooling (working temperature
/// below the reference), the exergy is positive and grows with the gradient.
///
/// # Example
///
/// ```
/// use bz_psychro::{exergy_of_heat, Celsius, Watts};
///
/// let room = Celsius::new(25.0).to_kelvin();
/// let q = Watts::new(1000.0);
/// // Moving 1 kW with 18 °C water takes far less exergy than with 8 °C air.
/// let high_temp = exergy_of_heat(q, Celsius::new(18.0).to_kelvin(), room);
/// let low_temp = exergy_of_heat(q, Celsius::new(8.0).to_kelvin(), room);
/// assert!(high_temp.get() < low_temp.get());
/// ```
#[must_use]
pub fn exergy_of_heat(heat: Watts, working: Kelvin, reference: Kelvin) -> Watts {
    heat * (1.0 - working.get() / reference.get()).abs()
}

/// Ideal (Carnot) coefficient of performance for a cooling cycle lifting
/// heat from `evaporator` to `condenser`: `COP = T_evap / (T_cond − T_evap)`.
///
/// # Panics
///
/// Panics if `condenser` is not strictly warmer than `evaporator` (the cycle
/// would require no work, and the formula diverges).
#[must_use]
pub fn carnot_cop_cooling(evaporator: Kelvin, condenser: Kelvin) -> f64 {
    let lift = condenser.get() - evaporator.get();
    assert!(
        lift > 0.0,
        "condenser ({condenser}) must be warmer than evaporator ({evaporator})"
    );
    evaporator.get() / lift
}

/// A vapor-compression chiller modeled as a fixed fraction of the Carnot
/// limit.
///
/// Real chillers achieve 25–45 % of Carnot; the fraction (the "second-law
/// efficiency") is the single calibration constant in the COP story. With
/// an efficiency of 0.30 and a 35 °C tropical condenser this model gives
/// COP ≈ 4.5 at 16 °C evaporation (18 °C water) and ≈ 2.9 at 6 °C
/// evaporation (8 °C water), matching Fig. 11 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarnotChiller {
    /// Fraction of the Carnot COP the machine achieves, in `(0, 1]`.
    efficiency: f64,
    /// Condenser absolute temperature (heat-rejection side).
    condenser: Kelvin,
}

impl CarnotChiller {
    /// Creates a chiller model with the given second-law `efficiency` and
    /// heat-rejection (condenser) temperature.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]`.
    #[must_use]
    pub fn new(efficiency: f64, condenser: Kelvin) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "second-law efficiency {efficiency} must be in (0, 1]"
        );
        Self {
            efficiency,
            condenser,
        }
    }

    /// Actual COP when evaporating at `evaporator`.
    ///
    /// # Panics
    ///
    /// Panics if `evaporator` is not colder than the condenser.
    #[must_use]
    pub fn cop(&self, evaporator: Kelvin) -> f64 {
        self.efficiency * carnot_cop_cooling(evaporator, self.condenser)
    }

    /// Electrical power required to move `heat` of cooling duty while
    /// evaporating at `evaporator`.
    ///
    /// # Panics
    ///
    /// Panics if `evaporator` is not colder than the condenser.
    #[must_use]
    pub fn electrical_power(&self, heat: Watts, evaporator: Kelvin) -> Watts {
        heat / self.cop(evaporator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Celsius;

    fn tropical_chiller() -> CarnotChiller {
        CarnotChiller::new(0.30, Celsius::new(35.0).to_kelvin())
    }

    #[test]
    fn exergy_grows_with_gradient() {
        let room = Celsius::new(25.0).to_kelvin();
        let q = Watts::new(1_000.0);
        let ex18 = exergy_of_heat(q, Celsius::new(18.0).to_kelvin(), room);
        let ex8 = exergy_of_heat(q, Celsius::new(8.0).to_kelvin(), room);
        assert!(ex18.get() < ex8.get());
        // 18 °C vs 25 °C room: 1 − 291.15/298.15 ≈ 2.35% of Q.
        assert!((ex18.get() - 23.5).abs() < 0.2, "got {ex18}");
    }

    #[test]
    fn exergy_zero_at_reference() {
        let room = Celsius::new(25.0).to_kelvin();
        let ex = exergy_of_heat(Watts::new(500.0), room, room);
        assert!(ex.get().abs() < 1e-9);
    }

    #[test]
    fn carnot_reference_value() {
        // 16 °C evap, 35 °C cond: 289.15 / 19 ≈ 15.2.
        let cop = carnot_cop_cooling(
            Celsius::new(16.0).to_kelvin(),
            Celsius::new(35.0).to_kelvin(),
        );
        assert!((cop - 15.22).abs() < 0.05, "got {cop}");
    }

    #[test]
    #[should_panic(expected = "must be warmer")]
    fn carnot_rejects_inverted_lift() {
        let _ = carnot_cop_cooling(
            Celsius::new(35.0).to_kelvin(),
            Celsius::new(16.0).to_kelvin(),
        );
    }

    #[test]
    fn chiller_matches_paper_cops() {
        let chiller = tropical_chiller();
        // 18 °C supply water → evaporator ~16 °C → COP ≈ 4.5 (paper: 4.52).
        let cop_radiant = chiller.cop(Celsius::new(16.0).to_kelvin());
        assert!((cop_radiant - 4.52).abs() < 0.15, "got {cop_radiant}");
        // 8 °C supply water → evaporator ~6 °C → COP ≈ 2.9 (paper: 2.82).
        let cop_vent = chiller.cop(Celsius::new(6.0).to_kelvin());
        assert!((cop_vent - 2.89).abs() < 0.15, "got {cop_vent}");
    }

    #[test]
    fn electrical_power_is_heat_over_cop() {
        let chiller = tropical_chiller();
        let evap = Celsius::new(16.0).to_kelvin();
        let p = chiller.electrical_power(Watts::new(964.8), evap);
        assert!((p.get() - 964.8 / chiller.cop(evap)).abs() < 1e-9);
        // Should land near the paper's 213.4 W for the radiant module.
        assert!((p.get() - 213.4).abs() < 10.0, "got {p}");
    }

    #[test]
    #[should_panic(expected = "second-law efficiency")]
    fn chiller_rejects_bad_efficiency() {
        let _ = CarnotChiller::new(1.5, Celsius::new(35.0).to_kelvin());
    }

    #[test]
    fn chiller_cop_improves_with_warmer_evaporator() {
        let chiller = tropical_chiller();
        let mut previous = 0.0;
        for t in [2.0, 6.0, 10.0, 14.0, 18.0] {
            let cop = chiller.cop(Celsius::new(t).to_kelvin());
            assert!(cop > previous);
            previous = cop;
        }
    }
}
