//! Radiant ceiling panels.
//!
//! Each of the two metal ceiling panels is a thermal node coupled on one
//! side to the mixed chilled water circulating through it and on the other
//! side — by thermal radiation and natural convection — to the air of the
//! two subspaces it spans. The model's central hazard is the paper's
//! central hazard: if the surface falls below the local dew point,
//! condensation forms on the panel and drips.

use bz_psychro::{
    humidity_ratio_from_dew_point, latent_heat_of_vaporization, water_volumetric_heat_capacity,
    Celsius, CP_DRY_AIR,
};

use crate::zone::AirState;

/// Static parameters of one radiant ceiling panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PanelParams {
    /// Radiating surface area, m² (half the lab ceiling each).
    pub area_m2: f64,
    /// Combined radiant + convective surface coefficient, W/(m²·K).
    /// Chilled ceilings run at ~11 in cooling.
    pub surface_coefficient: f64,
    /// Water-side conductance at design flow, W/K.
    pub water_ua: f64,
    /// Design water flow used to scale the water-side conductance, m³/s.
    pub design_flow_m3s: f64,
    /// Thermal capacitance of panel metal + contained water, J/K.
    pub capacitance_j_k: f64,
}

impl PanelParams {
    /// Calibrated parameters for one BubbleZERO ceiling panel (spans two
    /// subspaces ≈ 13 m² of active surface).
    #[must_use]
    pub fn bubble_zero_panel() -> Self {
        Self {
            area_m2: 13.0,
            surface_coefficient: 11.0,
            water_ua: 160.0,
            design_flow_m3s: 1.0e-4,
            capacitance_j_k: 1.2e5,
        }
    }
}

/// Result of advancing a panel by one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PanelStep {
    /// Sensible heat removed from each of the two served subspaces, W
    /// (positive = cooling the room).
    pub heat_from_zones_w: [f64; 2],
    /// Temperature of the water leaving the panel (the return pipe).
    pub water_return_temp: Celsius,
    /// Heat absorbed by the water stream, W.
    pub heat_to_water_w: f64,
    /// Condensate formed on the panel surface this step, kg.
    pub condensate_kg: f64,
    /// Moisture drawn out of each served subspace's air by surface
    /// condensation, kg/s (zero when the surface is above the dew point).
    pub zone_condensation_kg_s: [f64; 2],
}

/// One radiant ceiling panel with its surface-temperature state.
#[derive(Debug, Clone)]
pub struct RadiantPanel {
    params: PanelParams,
    surface_temp: Celsius,
    total_condensate_kg: f64,
}

impl RadiantPanel {
    /// Creates a panel whose surface starts in equilibrium with `initial`
    /// room air.
    #[must_use]
    pub fn new(params: PanelParams, initial: Celsius) -> Self {
        Self {
            params,
            surface_temp: initial,
            total_condensate_kg: 0.0,
        }
    }

    /// Current surface temperature.
    #[must_use]
    pub fn surface_temperature(&self) -> Celsius {
        self.surface_temp
    }

    /// Total condensate accumulated on this panel since the start, kg.
    /// Any positive value means the anti-condensation control failed.
    #[must_use]
    pub fn total_condensate(&self) -> f64 {
        self.total_condensate_kg
    }

    /// Water-side heat-exchange effectiveness at `flow_m3s`: the fraction
    /// of the inlet-to-surface temperature difference that the water picks
    /// up before leaving. NTU-style, with conductance scaling ~flow^0.6
    /// inside the tubes.
    #[must_use]
    pub fn water_effectiveness(&self, flow_m3s: f64) -> f64 {
        if flow_m3s <= 0.0 {
            return 0.0;
        }
        let c_w = flow_m3s * water_volumetric_heat_capacity(self.surface_temp);
        let ua = self.params.water_ua * (flow_m3s / self.params.design_flow_m3s).powf(0.6);
        1.0 - (-ua / c_w).exp()
    }

    /// Advances the panel by `dt_s` seconds.
    ///
    /// `water_in` and `flow_m3s` describe the mixed water entering the
    /// panel (zero flow = stagnant loop). `zones` are the air states of
    /// the two subspaces this panel spans.
    pub fn step(
        &mut self,
        dt_s: f64,
        water_in: Celsius,
        flow_m3s: f64,
        zones: [AirState; 2],
    ) -> PanelStep {
        debug_assert!(dt_s > 0.0 && flow_m3s >= 0.0);
        let t_s = self.surface_temp.get();
        let half_area = self.params.area_m2 / 2.0;

        // Room side: radiant+convective exchange with each subspace.
        let mut heat_from_zones_w = [0.0; 2];
        let mut q_room = 0.0;
        for (i, zone) in zones.iter().enumerate() {
            let q = self.params.surface_coefficient * half_area * (zone.temperature.get() - t_s);
            heat_from_zones_w[i] = q;
            q_room += q;
        }

        // Condensation: vapor mass transfer onto any patch colder than the
        // local dew point (heat/mass transfer analogy: β = h_c/(ρ·cp),
        // with the convective share of the surface coefficient ≈ 40%).
        let mut condensate_kg = 0.0;
        let mut q_latent = 0.0;
        let mut zone_condensation_kg_s = [0.0; 2];
        for (i, zone) in zones.iter().enumerate() {
            let w_sat_at_surface = humidity_ratio_from_dew_point(self.surface_temp).get();
            let excess = zone.humidity_ratio.get() - w_sat_at_surface;
            if excess > 0.0 {
                let beta = 0.4 * self.params.surface_coefficient / CP_DRY_AIR; // kg/(m²·s) per ΔW
                let rate = beta * half_area * excess;
                zone_condensation_kg_s[i] = rate;
                condensate_kg += rate * dt_s;
                q_latent += rate * latent_heat_of_vaporization(self.surface_temp);
            }
        }
        self.total_condensate_kg += condensate_kg;

        // Water side.
        let (q_water, return_temp) = if flow_m3s > 0.0 {
            let eff = self.water_effectiveness(flow_m3s);
            let c_w = flow_m3s * water_volumetric_heat_capacity(self.surface_temp);
            let q = eff * c_w * (t_s - water_in.get());
            let t_out = water_in.get() + eff * (t_s - water_in.get());
            (q, Celsius::new(t_out))
        } else {
            (0.0, water_in)
        };

        // Surface energy balance.
        let d_ts = (q_room + q_latent - q_water) * dt_s / self.params.capacitance_j_k;
        self.surface_temp = Celsius::new(t_s + d_ts);

        PanelStep {
            heat_from_zones_w,
            water_return_temp: return_temp,
            heat_to_water_w: q_water,
            condensate_kg,
            zone_condensation_kg_s,
        }
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_struct!(PanelParams {
    area_m2,
    surface_coefficient,
    water_ua,
    design_flow_m3s,
    capacitance_j_k,
});
bz_state::persist_struct!(RadiantPanel {
    params,
    surface_temp,
    total_condensate_kg,
});

#[cfg(test)]
mod tests {
    use super::*;
    use bz_psychro::Ppm;

    fn room_air(t: f64, dew: f64) -> AirState {
        AirState::from_dew_point(Celsius::new(t), Celsius::new(dew), Ppm::new(500.0))
    }

    fn panel_at(t: f64) -> RadiantPanel {
        RadiantPanel::new(PanelParams::bubble_zero_panel(), Celsius::new(t))
    }

    #[test]
    fn chilled_water_pulls_surface_down_and_cools_room() {
        let mut panel = panel_at(25.0);
        let zones = [room_air(25.0, 16.0), room_air(25.0, 16.0)];
        let mut last = PanelStep {
            heat_from_zones_w: [0.0; 2],
            water_return_temp: Celsius::new(18.0),
            heat_to_water_w: 0.0,
            condensate_kg: 0.0,
            zone_condensation_kg_s: [0.0; 2],
        };
        for _ in 0..1_800 {
            last = panel.step(1.0, Celsius::new(18.0), 1.0e-4, zones);
        }
        // Surface settles between water and room temperature.
        let t_s = panel.surface_temperature().get();
        assert!(t_s > 18.0 && t_s < 25.0, "surface {t_s}");
        // Both subspaces are being cooled, symmetrically.
        assert!(last.heat_from_zones_w[0] > 100.0);
        assert!((last.heat_from_zones_w[0] - last.heat_from_zones_w[1]).abs() < 1e-9);
        // Return water warmer than supply, cooler than surface.
        assert!(last.water_return_temp.get() > 18.0);
        assert!(last.water_return_temp.get() < t_s + 1e-9);
        // Energy balance at steady state: room heat ≈ water heat.
        let total_room: f64 = last.heat_from_zones_w.iter().sum();
        assert!(
            (total_room - last.heat_to_water_w).abs() < 0.05 * last.heat_to_water_w,
            "room {total_room} vs water {}",
            last.heat_to_water_w
        );
        // No condensation: room dew point (16 °C) is below the surface.
        assert_eq!(panel.total_condensate(), 0.0);
    }

    #[test]
    fn steady_extraction_matches_paper_scale() {
        // Two panels together should be able to remove roughly the paper's
        // 964.8 W from a 25 °C room with 18 °C supply water at design flow.
        let mut panel = panel_at(25.0);
        let zones = [room_air(25.0, 16.0), room_air(25.0, 16.0)];
        let mut q = 0.0;
        for _ in 0..3_600 {
            q = panel
                .step(1.0, Celsius::new(18.0), 1.0e-4, zones)
                .heat_to_water_w;
        }
        // One panel ≈ 480 W → two panels ≈ 960 W.
        assert!((q - 482.0).abs() < 120.0, "per-panel extraction {q} W");
    }

    #[test]
    fn stagnant_loop_lets_surface_float_to_room() {
        let mut panel = panel_at(20.0);
        let zones = [room_air(26.0, 15.0), room_air(26.0, 15.0)];
        for _ in 0..7_200 {
            panel.step(1.0, Celsius::new(18.0), 0.0, zones);
        }
        assert!((panel.surface_temperature().get() - 26.0).abs() < 0.3);
    }

    #[test]
    fn condensation_occurs_below_dew_point() {
        let mut panel = panel_at(16.0);
        // Humid room: dew point 22 °C, panel surface forced cold.
        let zones = [room_air(27.0, 22.0), room_air(27.0, 22.0)];
        let step = panel.step(1.0, Celsius::new(10.0), 1.0e-4, zones);
        assert!(step.condensate_kg > 0.0);
        assert!(panel.total_condensate() > 0.0);
    }

    #[test]
    fn no_condensation_when_surface_above_dew() {
        let mut panel = panel_at(20.0);
        let zones = [room_air(25.0, 18.0), room_air(25.0, 18.0)];
        for _ in 0..600 {
            let s = panel.step(1.0, Celsius::new(18.5), 1.0e-4, zones);
            assert_eq!(s.condensate_kg, 0.0);
        }
    }

    #[test]
    fn effectiveness_increases_with_flow_then_saturates() {
        let panel = panel_at(20.0);
        let e_low = panel.water_effectiveness(0.2e-4);
        let e_mid = panel.water_effectiveness(1.0e-4);
        assert!(e_low > e_mid, "low flow has more residence time per liter");
        assert!(e_mid > 0.3 && e_mid < 1.0);
        assert_eq!(panel.water_effectiveness(0.0), 0.0);
    }

    #[test]
    fn higher_flow_removes_more_heat() {
        // Capacity rises with flow even though per-liter effectiveness
        // falls — this is the property the F_mix PID relies on.
        let zones = [room_air(25.0, 16.0), room_air(25.0, 16.0)];
        let q_at = |flow: f64| {
            let mut panel = panel_at(25.0);
            let mut q = 0.0;
            for _ in 0..3_600 {
                q = panel
                    .step(1.0, Celsius::new(18.0), flow, zones)
                    .heat_to_water_w;
            }
            q
        };
        let q_half = q_at(0.5e-4);
        let q_full = q_at(1.0e-4);
        assert!(q_full > q_half * 1.1, "q_half {q_half}, q_full {q_full}");
    }

    #[test]
    fn asymmetric_zones_cool_asymmetrically() {
        let mut panel = panel_at(22.0);
        let zones = [room_air(27.0, 16.0), room_air(24.0, 16.0)];
        let step = panel.step(1.0, Celsius::new(18.0), 1.0e-4, zones);
        assert!(step.heat_from_zones_w[0] > step.heat_from_zones_w[1]);
    }
}
