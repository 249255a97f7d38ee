//! Zone (subspace) air states and their dynamics.
//!
//! The BubbleZERO laboratory is one 60 m³ space logically divided into four
//! equal subspaces (§III-A, Figure 2), each served by its own airbox /
//! CO₂-flap pair. Each subspace is modeled as a well-mixed air volume with
//! three states — dry-bulb temperature, humidity ratio, and CO₂
//! concentration — coupled to its neighbours by turbulent mixing and to the
//! outdoors by envelope conduction and (during door/window events)
//! bulk air exchange.

use bz_psychro::{
    dew_point, dry_air_density, humidity_ratio_from_dew_point,
    relative_humidity_from_humidity_ratio, Celsius, KgPerKg, Percent, Ppm, CP_DRY_AIR, MAGNUS_A,
};

/// Identifier of one of the four equal subspaces of the laboratory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SubspaceId {
    /// Subspace 1 (contains the door).
    S1,
    /// Subspace 2 (adjacent to the door).
    S2,
    /// Subspace 3.
    S3,
    /// Subspace 4.
    S4,
}

impl SubspaceId {
    /// All four subspaces, in order.
    pub const ALL: [SubspaceId; 4] = [Self::S1, Self::S2, Self::S3, Self::S4];

    /// Zero-based index of this subspace.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::S1 => 0,
            Self::S2 => 1,
            Self::S3 => 2,
            Self::S4 => 3,
        }
    }

    /// Subspace from a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in `0..4`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }

    /// Human-readable label matching the paper's figures ("Subsp1" …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::S1 => "Subsp1",
            Self::S2 => "Subsp2",
            Self::S3 => "Subsp3",
            Self::S4 => "Subsp4",
        }
    }

    /// Which ceiling panel serves this subspace: panel 0 spans subspaces
    /// 1–2, panel 1 spans subspaces 3–4 (two panels, §III-B).
    #[must_use]
    pub fn panel(self) -> usize {
        match self {
            Self::S1 | Self::S2 => 0,
            Self::S3 | Self::S4 => 1,
        }
    }
}

impl std::fmt::Display for SubspaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Instantaneous air state of one subspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirState {
    /// Dry-bulb temperature.
    pub temperature: Celsius,
    /// Humidity ratio (kg water vapor / kg dry air).
    pub humidity_ratio: KgPerKg,
    /// CO₂ concentration.
    pub co2: Ppm,
}

impl AirState {
    /// Builds an air state from temperature, *dew point*, and CO₂ — the
    /// description used throughout the paper.
    #[must_use]
    pub fn from_dew_point(temperature: Celsius, dew: Celsius, co2: Ppm) -> Self {
        Self {
            temperature,
            humidity_ratio: humidity_ratio_from_dew_point(dew),
            co2,
        }
    }

    /// Relative humidity implied by this state.
    #[must_use]
    pub fn relative_humidity(&self) -> Percent {
        relative_humidity_from_humidity_ratio(self.temperature, self.humidity_ratio)
            .expect("zone humidity ratio is non-negative")
    }

    /// Dew point implied by this state. Bone-dry air, which a zone step
    /// can produce by clamping its humidity ratio at 0, dews at −243.12 °C
    /// (−[`MAGNUS_A`]): the Magnus formula's limit as RH falls to 0.
    #[must_use]
    pub fn dew_point(&self) -> Celsius {
        let rh = self.relative_humidity();
        // Fully saturated (or super-saturated) air dews at its own
        // temperature.
        if rh.get() >= 100.0 {
            self.temperature
        } else if rh.get() <= 0.0 {
            Celsius::new(-MAGNUS_A)
        } else {
            dew_point(self.temperature, rh)
        }
    }
}

/// Static parameters of one subspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneParams {
    /// Air volume, m³ (15 m³ for a quarter of the 60 m³ lab).
    pub volume_m3: f64,
    /// Envelope conductance to outdoors, W/K. The lab's insulated facades
    /// and double glazing put this around 35–45 W/K per subspace.
    pub envelope_ua: f64,
    /// Effective thermal-mass multiplier: interior surfaces and furniture
    /// add heat capacity beyond the air itself.
    pub thermal_mass_factor: f64,
    /// Constant internal sensible gain (equipment, lighting, solar through
    /// the double glazing), W.
    pub internal_gain_w: f64,
    /// Background infiltration air exchange with outdoors, m³/s (cracks,
    /// envelope leakage — small for the sealed container lab).
    pub infiltration_m3s: f64,
}

impl ZoneParams {
    /// Calibrated parameters for a quarter of the BubbleZERO laboratory.
    ///
    /// Calibration targets (§V): steady-state radiant extraction of
    /// ~965 W across 4 subspaces at ΔT ≈ 4–10 K against the outdoors, and
    /// a 30-minute pull-down from 28.9 °C to 25 °C.
    #[must_use]
    pub fn bubble_zero_subspace() -> Self {
        Self {
            volume_m3: 15.0,
            envelope_ua: 38.0,
            thermal_mass_factor: 3.0,
            internal_gain_w: 95.0,
            infiltration_m3s: 0.0002,
        }
    }

    /// Dry-air mass contained in the zone at `temperature`, kg.
    #[must_use]
    pub fn air_mass(&self, temperature: Celsius) -> f64 {
        self.volume_m3 * dry_air_density(temperature)
    }

    /// Effective heat capacity of the zone, J/K.
    #[must_use]
    pub fn heat_capacity(&self, temperature: Celsius) -> f64 {
        self.air_mass(temperature) * CP_DRY_AIR * self.thermal_mass_factor
    }

    /// Physics-derived prior for a reduced-order *rate* model of the
    /// zone, used to seed recursive least squares in `bz-predict` before
    /// any sensed data has arrived (read-only calibration hook — the
    /// identifier never reads live zone state).
    ///
    /// Returns `[θ_rad, θ_vent, θ_env, θ_occ, θ_bias]` for the surrogate
    ///
    /// ```text
    /// dT/dt ≈ θ_rad·u_rad + θ_vent·u_vent + θ_env·(T_out − T)
    ///         + θ_occ·occupants + θ_bias      [K/s]
    /// ```
    ///
    /// where `u_rad ∈ [0, 1]` is normalized radiant loop flow,
    /// `u_vent` is airbox fan flow in m³/s, `radiant_capacity_w` is the
    /// sensible extraction this subspace sees at full radiant flow, and
    /// `occupant_sensible_w` is one occupant's sensible gain.
    #[must_use]
    pub fn surrogate_prior(&self, radiant_capacity_w: f64, occupant_sensible_w: f64) -> [f64; 5] {
        // Nominal supply-to-room delta for ventilation air; the airboxes
        // deliver dehumidified air a few kelvin below the room.
        const VENT_SUPPLY_DELTA_K: f64 = 5.0;
        let reference = Celsius::new(25.0);
        let capacity = self.heat_capacity(reference);
        [
            -radiant_capacity_w / capacity,
            -VENT_SUPPLY_DELTA_K * dry_air_density(reference) * CP_DRY_AIR / capacity,
            self.envelope_ua / capacity,
            occupant_sensible_w / capacity,
            self.internal_gain_w / capacity,
        ]
    }
}

/// Per-step exogenous inputs applied to a zone by the plant assembly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ZoneInputs {
    /// Net sensible heat added by HVAC surfaces (radiant panels are
    /// negative — they remove heat), W.
    pub hvac_sensible_w: f64,
    /// Moisture removed from the zone air by HVAC surfaces (panel
    /// condensation), kg/s — non-negative, subtracted from the balance.
    pub hvac_condensation_kg_s: f64,
    /// Occupant sensible heat, W.
    pub occupant_sensible_w: f64,
    /// Occupant latent moisture release, kg/s.
    pub occupant_latent_kg_s: f64,
    /// Occupant CO₂ generation, m³/s of pure CO₂.
    pub occupant_co2_m3s: f64,
    /// Ventilation supply air flow into the zone, m³/s (matched by an
    /// equal exhaust of zone air through the CO₂ flap).
    pub ventilation_m3s: f64,
    /// Temperature of the ventilation supply air.
    pub ventilation_temp: Celsius,
    /// Humidity ratio of the ventilation supply air.
    pub ventilation_ratio: KgPerKg,
    /// CO₂ concentration of the ventilation supply air.
    pub ventilation_co2: Ppm,
    /// Bulk air exchange with outdoors from open doors/windows, m³/s.
    pub opening_exchange_m3s: f64,
}

/// One subspace: parameters plus mutable air state.
#[derive(Debug, Clone)]
pub struct Zone {
    /// Static parameters.
    params: ZoneParams,
    /// Current air state.
    state: AirState,
}

impl Zone {
    /// Creates a zone with the given parameters and initial state.
    #[must_use]
    pub fn new(params: ZoneParams, initial: AirState) -> Self {
        Self {
            params,
            state: initial,
        }
    }

    /// Current air state.
    #[must_use]
    pub fn state(&self) -> AirState {
        self.state
    }

    /// Advances the zone by `dt_s` seconds under the given inputs and
    /// boundary conditions. `neighbor_exchange` is a pre-computed list of
    /// `(mix_flow_m3s, neighbor_state)` pairs describing turbulent exchange
    /// with adjacent subspaces.
    ///
    /// Explicit Euler is adequate: with the calibrated parameters the
    /// fastest time constant (ventilation flush of a 15 m³ volume at
    /// ~0.03 m³/s) is ~500 s, three orders above the 1 s step.
    pub fn step(
        &mut self,
        dt_s: f64,
        inputs: &ZoneInputs,
        outdoor: AirState,
        neighbor_exchange: &[(f64, AirState)],
    ) {
        debug_assert!(dt_s > 0.0 && dt_s.is_finite());
        // Same arithmetic as `ZoneParams::air_mass`/`heat_capacity`, with
        // the shared density factored out.
        let rho = dry_air_density(self.state.temperature);
        let air_mass = self.params.volume_m3 * rho;
        let heat_capacity = air_mass * CP_DRY_AIR * self.params.thermal_mass_factor;
        let t = self.state.temperature.get();

        // --- Sensible energy balance -------------------------------------
        let mut q = inputs.hvac_sensible_w + inputs.occupant_sensible_w;
        q += self.params.internal_gain_w;
        q += self.params.envelope_ua * (outdoor.temperature.get() - t);

        // Air exchanged with outdoors: infiltration + door/window openings.
        let outdoor_exchange = self.params.infiltration_m3s + inputs.opening_exchange_m3s;
        q += outdoor_exchange * rho * CP_DRY_AIR * (outdoor.temperature.get() - t);

        // Ventilation supply (the same mass leaves through the flap at
        // zone conditions, hence the simple delta form).
        q += inputs.ventilation_m3s * rho * CP_DRY_AIR * (inputs.ventilation_temp.get() - t);

        // Inter-zone turbulent mixing.
        for &(flow, neighbor) in neighbor_exchange {
            q += flow * rho * CP_DRY_AIR * (neighbor.temperature.get() - t);
        }

        // Latent coupling of moisture exchange is carried in the moisture
        // balance below; condensed water never forms in the zone air
        // itself (the panels handle surface condensation separately).
        let new_t = t + q * dt_s / heat_capacity;

        // --- Moisture balance --------------------------------------------
        let w = self.state.humidity_ratio.get();
        let mut dw = (inputs.occupant_latent_kg_s - inputs.hvac_condensation_kg_s) / air_mass;
        dw += outdoor_exchange * rho / air_mass * (outdoor.humidity_ratio.get() - w);
        dw += inputs.ventilation_m3s * rho / air_mass * (inputs.ventilation_ratio.get() - w);
        for &(flow, neighbor) in neighbor_exchange {
            dw += flow * rho / air_mass * (neighbor.humidity_ratio.get() - w);
        }
        let new_w = (w + dw * dt_s).max(0.0);

        // --- CO₂ balance ---------------------------------------------------
        // Concentrations in ppm; occupant generation of pure CO₂ converts
        // via 1 m³ CO₂ into V m³ of air = 1e6/V ppm.
        let c = self.state.co2.get();
        let volume = self.params.volume_m3;
        let mut dc = inputs.occupant_co2_m3s * 1.0e6 / volume;
        dc += outdoor_exchange / volume * (outdoor.co2.get() - c);
        dc += inputs.ventilation_m3s / volume * (inputs.ventilation_co2.get() - c);
        for &(flow, neighbor) in neighbor_exchange {
            dc += flow / volume * (neighbor.co2.get() - c);
        }
        let new_c = (c + dc * dt_s).max(0.0);

        self.state = AirState {
            temperature: Celsius::new(new_t),
            humidity_ratio: KgPerKg::new(new_w),
            co2: Ppm::new(new_c),
        };
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_unit_enum!(SubspaceId { S1, S2, S3, S4 });

/// Air temperatures a restore accepts, °C: the range of the Magnus
/// dew-point formula ([`bz_psychro::dew_point_checked`]). Hotter air has
/// no dew point there, and from about 99.3 °C its saturation pressure
/// passes the total pressure; `bz_psychro` asserts against both.
const RESTORABLE_AIR_C: std::ops::RangeInclusive<f64> = -45.0..=60.0;

impl bz_state::Persist for AirState {
    fn save(&self, w: &mut bz_state::Writer) {
        w.put(&self.temperature);
        w.put(&self.humidity_ratio);
        w.put(&self.co2);
    }

    /// Refuses air no step can produce: a temperature outside −45 °C to
    /// 60 °C, a non-finite humidity ratio or CO₂, or a negative one. The
    /// psychrometric functions that read this air assert against them.
    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        let state = Self {
            temperature: r.take()?,
            humidity_ratio: r.take()?,
            co2: r.take()?,
        };
        let (t, w, c) = (
            state.temperature.get(),
            state.humidity_ratio.get(),
            state.co2.get(),
        );
        if !(RESTORABLE_AIR_C.contains(&t) && w.is_finite() && c.is_finite()) || w < 0.0 || c < 0.0
        {
            return Err(bz_state::StateError::Invalid {
                what: "AirState",
                reason: format!("{t} °C, humidity ratio {w}, {c} ppm CO₂ is not physical air"),
            });
        }
        Ok(state)
    }
}
bz_state::persist_struct!(ZoneParams {
    volume_m3,
    envelope_ua,
    thermal_mass_factor,
    internal_gain_w,
    infiltration_m3s,
});
bz_state::persist_struct!(ZoneInputs {
    hvac_sensible_w,
    hvac_condensation_kg_s,
    occupant_sensible_w,
    occupant_latent_kg_s,
    occupant_co2_m3s,
    ventilation_m3s,
    ventilation_temp,
    ventilation_ratio,
    ventilation_co2,
    opening_exchange_m3s,
});
bz_state::persist_struct!(Zone { params, state });

#[cfg(test)]
mod tests {
    use super::*;
    use bz_psychro::Ppm;

    fn tropical_outdoor() -> AirState {
        AirState::from_dew_point(Celsius::new(28.9), Celsius::new(27.4), Ppm::new(410.0))
    }

    fn fresh_zone(t: f64, dew: f64) -> Zone {
        Zone::new(
            ZoneParams::bubble_zero_subspace(),
            AirState::from_dew_point(Celsius::new(t), Celsius::new(dew), Ppm::new(500.0)),
        )
    }

    #[test]
    fn subspace_ids_round_trip() {
        for id in SubspaceId::ALL {
            assert_eq!(SubspaceId::from_index(id.index()), id);
        }
        assert_eq!(SubspaceId::S1.label(), "Subsp1");
        assert_eq!(SubspaceId::S1.panel(), 0);
        assert_eq!(SubspaceId::S2.panel(), 0);
        assert_eq!(SubspaceId::S3.panel(), 1);
        assert_eq!(SubspaceId::S4.panel(), 1);
    }

    #[test]
    fn surrogate_prior_has_physical_signs_and_scale() {
        let params = ZoneParams::bubble_zero_subspace();
        let [rad, vent, env, occ, bias] = params.surrogate_prior(240.0, 70.0);
        // Cooling inputs pull the temperature down; loads push it up.
        assert!(rad < 0.0 && vent < 0.0);
        assert!(env > 0.0 && occ > 0.0 && bias > 0.0);
        // Full radiant flow on ~54 kJ/K of effective mass: a few mK/s.
        assert!((-rad - 240.0 / params.heat_capacity(Celsius::new(25.0))).abs() < 1e-12);
        assert!(-rad > 1e-3 && -rad < 1e-2, "θ_rad {rad}");
        // Envelope coupling is UA/C.
        assert!(
            (env - params.envelope_ua / params.heat_capacity(Celsius::new(25.0))).abs() < 1e-12
        );
    }

    #[test]
    fn air_state_dew_point_round_trip() {
        let s = AirState::from_dew_point(Celsius::new(25.0), Celsius::new(18.0), Ppm::new(400.0));
        assert!((s.dew_point().get() - 18.0).abs() < 1e-6);
        assert!((s.relative_humidity().get() - 65.2).abs() < 1.0);
    }

    #[test]
    fn saturated_state_dews_at_own_temperature() {
        let s = AirState {
            temperature: Celsius::new(20.0),
            humidity_ratio: humidity_ratio_from_dew_point(Celsius::new(25.0)),
            co2: Ppm::new(400.0),
        };
        assert!((s.dew_point().get() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn idle_zone_drifts_toward_outdoor() {
        let mut zone = fresh_zone(25.0, 18.0);
        let outdoor = tropical_outdoor();
        for _ in 0..3_600 {
            zone.step(1.0, &ZoneInputs::default(), outdoor, &[]);
        }
        let s = zone.state();
        assert!(
            s.temperature.get() > 26.0,
            "zone should warm toward outdoors, got {}",
            s.temperature
        );
        // Internal gains (equipment + solar through glazing) hold the idle
        // room a couple of Kelvin above the outdoors.
        assert!(s.temperature.get() < outdoor.temperature.get() + 3.5);
        // Infiltration slowly humidifies the room toward the outdoor dew.
        assert!(s.dew_point().get() > 18.0);
    }

    #[test]
    fn hvac_extraction_cools_the_zone() {
        let mut zone = fresh_zone(28.9, 27.4);
        let inputs = ZoneInputs {
            hvac_sensible_w: -400.0,
            ..ZoneInputs::default()
        };
        for _ in 0..1_800 {
            zone.step(1.0, &inputs, tropical_outdoor(), &[]);
        }
        assert!(
            zone.state().temperature.get() < 26.5,
            "got {}",
            zone.state().temperature
        );
    }

    #[test]
    fn dry_ventilation_dries_the_zone() {
        let mut zone = fresh_zone(25.0, 24.0);
        let supply =
            AirState::from_dew_point(Celsius::new(14.0), Celsius::new(14.0), Ppm::new(410.0));
        let inputs = ZoneInputs {
            ventilation_m3s: 0.03,
            ventilation_temp: supply.temperature,
            ventilation_ratio: supply.humidity_ratio,
            ventilation_co2: supply.co2,
            ..ZoneInputs::default()
        };
        let before = zone.state().dew_point().get();
        for _ in 0..1_800 {
            zone.step(1.0, &inputs, tropical_outdoor(), &[]);
        }
        let after = zone.state().dew_point().get();
        assert!(after < before - 3.0, "dew {before} -> {after}");
    }

    #[test]
    fn occupants_raise_co2_and_moisture() {
        let mut zone = fresh_zone(25.0, 18.0);
        let inputs = ZoneInputs {
            occupant_sensible_w: 70.0,
            occupant_latent_kg_s: 5.0e-5, // ~one seated adult
            occupant_co2_m3s: 5.2e-6,
            ..ZoneInputs::default()
        };
        let c0 = zone.state().co2.get();
        let w0 = zone.state().humidity_ratio.get();
        for _ in 0..600 {
            zone.step(1.0, &inputs, tropical_outdoor(), &[]);
        }
        assert!(zone.state().co2.get() > c0 + 50.0);
        assert!(zone.state().humidity_ratio.get() > w0);
    }

    #[test]
    fn door_opening_pulls_zone_toward_outdoor_fast() {
        let mut zone = fresh_zone(25.0, 18.0);
        let inputs = ZoneInputs {
            opening_exchange_m3s: 0.25,
            ..ZoneInputs::default()
        };
        for _ in 0..120 {
            zone.step(1.0, &inputs, tropical_outdoor(), &[]);
        }
        // Two minutes of open door at 0.25 m³/s turns over the subspace
        // air twice; the dew point should have risen by several degrees.
        assert!(zone.state().dew_point().get() > 22.0, "{:?}", zone.state());
    }

    #[test]
    fn neighbor_mixing_equalizes_temperature() {
        let mut cold = fresh_zone(22.0, 15.0);
        let hot_state =
            AirState::from_dew_point(Celsius::new(28.0), Celsius::new(20.0), Ppm::new(600.0));
        for _ in 0..1_200 {
            cold.step(1.0, &ZoneInputs::default(), hot_state, &[(0.05, hot_state)]);
        }
        assert!(cold.state().temperature.get() > 26.0);
        assert!(cold.state().co2.get() > 540.0);
    }

    #[test]
    fn moisture_never_goes_negative() {
        let mut zone = fresh_zone(25.0, 5.0);
        let bone_dry = AirState {
            temperature: Celsius::new(14.0),
            humidity_ratio: KgPerKg::new(0.0),
            co2: Ppm::new(0.0),
        };
        let inputs = ZoneInputs {
            ventilation_m3s: 0.5,
            ventilation_temp: bone_dry.temperature,
            ventilation_ratio: bone_dry.humidity_ratio,
            ventilation_co2: bone_dry.co2,
            ..ZoneInputs::default()
        };
        for _ in 0..10_000 {
            zone.step(1.0, &inputs, bone_dry, &[]);
        }
        assert!(zone.state().humidity_ratio.get() >= 0.0);
        assert!(zone.state().co2.get() >= 0.0);
    }

    #[test]
    fn heat_capacity_scales_with_mass_factor() {
        let mut p = ZoneParams::bubble_zero_subspace();
        let base = p.heat_capacity(Celsius::new(25.0));
        p.thermal_mass_factor *= 2.0;
        assert!((p.heat_capacity(Celsius::new(25.0)) - 2.0 * base).abs() < 1e-6);
    }
}
