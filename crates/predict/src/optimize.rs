//! The receding-horizon plan and its optimizer.
//!
//! A [`Plan`] discretizes the horizon into `step_s`-wide steps and holds,
//! per step, a radiant flow *scale* per panel (a multiplier applied to
//! the reactive PID's flow target, so scale 1.0 is exactly the paper's
//! behaviour) and a fan-level *cap* per subspace (an upper bound on the
//! reactive fan choice). [`optimize`] runs projected coordinate descent
//! over that discrete space against the identified rate models,
//! minimizing predicted electrical energy plus a comfort penalty on
//! forecast-occupied steps; steps forecast occupied are locked to full
//! service, so the optimizer can only economize on empty rooms and on
//! how it approaches an arrival.
//!
//! [`project_dew_safe`] is the hard condensation constraint: it zeroes
//! the radiant scale on every (step, panel) whose predicted panel
//! surface temperature sits within the dew margin of the predicted
//! ceiling dew point — or whose forecast is missing — and every plan the
//! MPC strategy emits passes through it last.

use bz_thermal::airbox::FanLevel;

use crate::identify::DIM;

/// The discrete radiant flow scales coordinate descent chooses from.
pub const RADIANT_SCALES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// A horizon of planned control relaxations.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Simulation time of step 0, s.
    pub start_s: f64,
    /// Width of one step, s.
    pub step_s: f64,
    /// Per step, per panel: multiplier on the reactive flow target.
    pub radiant_scale: Vec<[f64; 2]>,
    /// Per step, per subspace: upper bound on the reactive fan level.
    pub fan_cap: Vec<[FanLevel; 4]>,
}

impl Plan {
    /// The do-nothing plan: full radiant service and no fan cap on every
    /// step. Executing it reproduces the reactive baseline exactly.
    #[must_use]
    pub fn full_service(start_s: f64, step_s: f64, horizon: usize) -> Self {
        Self {
            start_s,
            step_s,
            radiant_scale: vec![[1.0; 2]; horizon],
            fan_cap: vec![[FanLevel::L4; 4]; horizon],
        }
    }

    /// The step covering simulation time `now_s` (clamped to the last
    /// step; the strategy replans long before a plan runs out).
    #[must_use]
    pub fn index_at(&self, now_s: f64) -> usize {
        if self.radiant_scale.is_empty() || self.step_s <= 0.0 {
            return 0;
        }
        let raw = ((now_s - self.start_s) / self.step_s).floor();
        (raw.max(0.0) as usize).min(self.radiant_scale.len() - 1)
    }

    /// The radiant scale commanded for `panel` at `now_s` (1.0 for an
    /// empty plan).
    #[must_use]
    pub fn radiant_scale_at(&self, now_s: f64, panel: usize) -> f64 {
        if self.radiant_scale.is_empty() {
            return 1.0;
        }
        self.radiant_scale[self.index_at(now_s)][panel]
    }

    /// The fan cap commanded for `subspace` at `now_s` ([`FanLevel::L4`]
    /// — no cap — for an empty plan).
    #[must_use]
    pub fn fan_cap_at(&self, now_s: f64, subspace: usize) -> FanLevel {
        if self.fan_cap.is_empty() {
            return FanLevel::L4;
        }
        self.fan_cap[self.index_at(now_s)][subspace]
    }
}

/// Everything [`optimize`] needs to evaluate a candidate plan.
#[derive(Debug, Clone)]
pub struct HorizonProblem {
    /// Simulation time of step 0, s.
    pub start_s: f64,
    /// Width of one step, s.
    pub step_s: f64,
    /// Number of steps.
    pub horizon: usize,
    /// Latest sensed room temperature per subspace, °C.
    pub initial_temp_c: [f64; 4],
    /// Identified rate model per subspace (see [`crate::identify`]).
    pub theta: [[f64; DIM]; 4],
    /// Nominal outdoor temperature per step, °C.
    pub outdoor_c: Vec<f64>,
    /// Occupancy forecast per step per subspace.
    pub occupied: Vec<[bool; 4]>,
    /// Comfort temperature target, °C.
    pub target_c: f64,
    /// Deviation inside this band is free, K.
    pub comfort_band_k: f64,
    /// Penalty weight on squared out-of-band deviation during
    /// forecast-occupied steps, W/K².
    pub comfort_weight: f64,
    /// Sensible extraction one subspace sees at full radiant scale, W.
    pub radiant_unit_w: f64,
    /// Chiller COP priced against radiant extraction.
    pub radiant_cop: f64,
    /// Chiller COP priced against ventilation cooling.
    pub vent_cop: f64,
    /// Nominal supply-to-room delta priced for ventilation cooling, K.
    pub vent_delta_k: f64,
    /// Loop pump electrical power per panel at full scale, W.
    pub pump_w: f64,
}

/// Density × heat capacity of air for pricing ventilation flow, J/(m³·K).
const AIR_RHO_CP: f64 = 1.2 * 1_006.0;

/// Predicted electrical energy plus comfort penalty of `plan`, J-ish
/// (the absolute scale is irrelevant — only the ordering of candidate
/// plans matters to coordinate descent).
#[must_use]
pub fn cost(plan: &Plan, problem: &HorizonProblem) -> f64 {
    let n = problem.horizon.min(plan.radiant_scale.len());
    let mut total = 0.0;
    let mut temp = problem.initial_temp_c;
    for j in 0..n {
        let scales = plan.radiant_scale[j];
        let caps = plan.fan_cap[j];
        let outdoor = problem
            .outdoor_c
            .get(j)
            .copied()
            .unwrap_or(problem.target_c);
        let occupied = problem.occupied.get(j).copied().unwrap_or([true; 4]);
        // Electrical terms.
        for scale in &scales {
            total += problem.pump_w * scale.powi(3) * problem.step_s;
        }
        for s in 0..4 {
            let scale = scales[s / 2];
            total += problem.radiant_unit_w * scale / problem.radiant_cop * problem.step_s;
            let fan = caps[s];
            total += fan.power_w() * problem.step_s;
            total += AIR_RHO_CP * fan.flow_m3s() * problem.vent_delta_k / problem.vent_cop
                * problem.step_s;
        }
        // Comfort penalty on the *predicted* state during occupied steps,
        // then roll the model forward one step.
        for s in 0..4 {
            if occupied[s] {
                let deviation = (temp[s] - problem.target_c).abs() - problem.comfort_band_k;
                if deviation > 0.0 {
                    total += problem.comfort_weight * deviation * deviation * problem.step_s;
                }
            }
            let phi = [
                scales[s / 2],
                caps[s].flow_m3s(),
                outdoor - temp[s],
                if occupied[s] { 1.0 } else { 0.0 },
                1.0,
            ];
            let rate: f64 = problem.theta[s].iter().zip(&phi).map(|(t, p)| t * p).sum();
            temp[s] += rate * problem.step_s;
        }
    }
    total
}

/// Projected coordinate descent over the discrete plan space.
///
/// Starts from full service; steps forecast occupied keep radiant scale
/// 1.0 and fan cap [`FanLevel::L4`] (service is never planned away from
/// people — the optimizer economizes on empty steps and arrival
/// approaches only). Deterministic: fixed sweep order, first-best tie
/// breaking.
#[must_use]
pub fn optimize(problem: &HorizonProblem, sweeps: usize) -> Plan {
    let mut plan = Plan::full_service(problem.start_s, problem.step_s, problem.horizon);
    if problem.horizon == 0 {
        return plan;
    }
    let occupied_panel = |j: usize, panel: usize| -> bool {
        problem
            .occupied
            .get(j)
            .is_none_or(|o| o[panel * 2] || o[panel * 2 + 1])
    };
    let occupied_subspace =
        |j: usize, s: usize| -> bool { problem.occupied.get(j).is_none_or(|o| o[s]) };

    let mut best_cost = cost(&plan, problem);
    for _ in 0..sweeps.max(1) {
        let mut improved = false;
        for j in 0..problem.horizon {
            for panel in 0..2 {
                if occupied_panel(j, panel) {
                    continue;
                }
                let original = plan.radiant_scale[j][panel];
                let mut best_scale = original;
                for scale in RADIANT_SCALES {
                    if scale == original {
                        continue;
                    }
                    plan.radiant_scale[j][panel] = scale;
                    let c = cost(&plan, problem);
                    if c < best_cost {
                        best_cost = c;
                        best_scale = scale;
                    }
                }
                if best_scale != original {
                    improved = true;
                }
                plan.radiant_scale[j][panel] = best_scale;
            }
            for s in 0..4 {
                if occupied_subspace(j, s) {
                    continue;
                }
                let original = plan.fan_cap[j][s];
                let mut best_cap = original;
                for cap in FanLevel::ALL {
                    if cap == original {
                        continue;
                    }
                    plan.fan_cap[j][s] = cap;
                    let c = cost(&plan, problem);
                    if c < best_cost {
                        best_cost = c;
                        best_cap = cap;
                    }
                }
                if best_cap != original {
                    improved = true;
                }
                plan.fan_cap[j][s] = best_cap;
            }
        }
        if !improved {
            break;
        }
    }
    plan
}

/// The hard condensation constraint: zeroes the radiant scale of every
/// (step, panel) whose predicted surface temperature `surface_c` is
/// within `margin_k` of the predicted ceiling dew point `dew_c` — or
/// whose forecast is missing (shorter than the plan), which is treated
/// as risky. Returns the number of plan slots forced to zero.
///
/// This runs **last** on every plan the MPC strategy emits, after the
/// optimizer, so no ordering of other passes can reintroduce flow into
/// a dew-risk step.
pub fn project_dew_safe(
    plan: &mut Plan,
    surface_c: &[[f64; 2]],
    dew_c: &[[f64; 2]],
    margin_k: f64,
) -> usize {
    let mut zeroed = 0;
    for (j, scales) in plan.radiant_scale.iter_mut().enumerate() {
        for (panel, scale) in scales.iter_mut().enumerate() {
            let safe = match (surface_c.get(j), dew_c.get(j)) {
                (Some(surface), Some(dew)) => {
                    let (surface, dew) = (surface[panel], dew[panel]);
                    surface.is_finite() && dew.is_finite() && surface > dew + margin_k
                }
                _ => false,
            };
            if !safe && *scale != 0.0 {
                *scale = 0.0;
                zeroed += 1;
            }
        }
    }
    zeroed
}

bz_state::persist_struct!(Plan {
    start_s,
    step_s,
    radiant_scale,
    fan_cap,
});

#[cfg(test)]
mod tests {
    use super::*;
    use bz_thermal::zone::ZoneParams;

    fn office_problem(horizon: usize, occupied: Vec<[bool; 4]>) -> HorizonProblem {
        let prior = ZoneParams::bubble_zero_subspace().surrogate_prior(240.0, 70.0);
        HorizonProblem {
            start_s: 0.0,
            step_s: 120.0,
            horizon,
            initial_temp_c: [25.0; 4],
            theta: [prior; 4],
            outdoor_c: vec![28.9; horizon],
            occupied,
            target_c: 25.0,
            comfort_band_k: 0.5,
            comfort_weight: 5_000.0,
            radiant_unit_w: 240.0,
            radiant_cop: 6.0,
            vent_cop: 3.0,
            vent_delta_k: 5.0,
            pump_w: 6.0,
        }
    }

    #[test]
    fn full_service_plan_reads_back_identity_everywhere() {
        let plan = Plan::full_service(100.0, 60.0, 5);
        assert_eq!(plan.radiant_scale.len(), 5);
        for t in [0.0, 100.0, 250.0, 10_000.0] {
            for panel in 0..2 {
                assert_eq!(plan.radiant_scale_at(t, panel), 1.0);
            }
            for s in 0..4 {
                assert_eq!(plan.fan_cap_at(t, s), FanLevel::L4);
            }
        }
        // The empty plan is also identity.
        let empty = Plan::full_service(0.0, 60.0, 0);
        assert_eq!(empty.radiant_scale_at(30.0, 1), 1.0);
        assert_eq!(empty.fan_cap_at(30.0, 2), FanLevel::L4);
    }

    #[test]
    fn index_lookup_clamps_to_the_plan() {
        let plan = Plan::full_service(100.0, 60.0, 3);
        assert_eq!(plan.index_at(0.0), 0);
        assert_eq!(plan.index_at(100.0), 0);
        assert_eq!(plan.index_at(161.0), 1);
        assert_eq!(plan.index_at(1e9), 2);
    }

    #[test]
    fn occupied_steps_stay_at_full_service() {
        let plan = optimize(&office_problem(6, vec![[true; 4]; 6]), 3);
        assert_eq!(plan.radiant_scale, vec![[1.0; 2]; 6]);
        assert_eq!(plan.fan_cap, vec![[FanLevel::L4; 4]; 6]);
    }

    #[test]
    fn empty_steps_shed_load_and_never_cost_more() {
        // Occupied for 2 steps, then empty for the rest of the horizon.
        let mut occupied = vec![[true; 4]; 2];
        occupied.extend(vec![[false; 4]; 8]);
        let problem = office_problem(10, occupied);
        let plan = optimize(&problem, 3);
        assert!(
            plan.radiant_scale[2..].iter().any(|s| s[0] < 1.0),
            "no shedding: {:?}",
            plan.radiant_scale
        );
        assert!(
            plan.fan_cap[2..].iter().any(|c| c[0] < FanLevel::L4),
            "no fan capping: {:?}",
            plan.fan_cap
        );
        // Occupied steps untouched.
        assert_eq!(&plan.radiant_scale[..2], &[[1.0; 2]; 2]);
        assert!(cost(&plan, &problem) <= cost(&Plan::full_service(0.0, 120.0, 10), &problem));
    }

    #[test]
    fn recovery_before_a_forecast_arrival_is_planned() {
        // Empty now, people arrive at step 10 and stay. The optimizer may
        // shed early but the steps just before the arrival must carry
        // enough service that the predicted occupied temperature is in
        // band.
        let mut occupied = vec![[false; 4]; 10];
        occupied.extend(vec![[true; 4]; 5]);
        let problem = office_problem(15, occupied);
        let plan = optimize(&problem, 3);
        // Verify via the model: roll the plan out and check the occupied
        // steps are within tolerance.
        let mut temp = problem.initial_temp_c;
        for j in 0..15 {
            if j >= 10 {
                for t in &temp {
                    assert!(
                        (t - 25.0).abs() < 1.0,
                        "occupied step {j} out of band: {temp:?}\nplan {:?}",
                        plan.radiant_scale
                    );
                }
            }
            for (s, t) in temp.iter_mut().enumerate() {
                let phi = [
                    plan.radiant_scale[j][s / 2],
                    plan.fan_cap[j][s].flow_m3s(),
                    problem.outdoor_c[j] - *t,
                    if problem.occupied[j][s] { 1.0 } else { 0.0 },
                    1.0,
                ];
                let rate: f64 = problem.theta[s].iter().zip(&phi).map(|(t, p)| t * p).sum();
                *t += rate * problem.step_s;
            }
        }
    }

    #[test]
    fn optimizer_is_deterministic() {
        let mut occupied = vec![[true; 4]; 3];
        occupied.extend(vec![[false; 4]; 7]);
        let problem = office_problem(10, occupied);
        assert_eq!(optimize(&problem, 3), optimize(&problem, 3));
    }

    #[test]
    fn dew_projection_zeroes_risky_and_unknown_steps() {
        let mut plan = Plan::full_service(0.0, 60.0, 4);
        let surface = [[21.0, 18.2], [21.0, 25.0], [17.9, 21.0]];
        let dew = [[18.0, 18.0], [18.0, 18.0], [18.0, 18.0]];
        let zeroed = project_dew_safe(&mut plan, &surface, &dew, 0.5);
        // (0,1): 18.2 ≤ 18.5 risky; (2,0): 17.9 ≤ 18.5 risky; step 3 has
        // no forecast at all → both panels zeroed.
        assert_eq!(zeroed, 4);
        assert_eq!(plan.radiant_scale[0], [1.0, 0.0]);
        assert_eq!(plan.radiant_scale[1], [1.0, 1.0]);
        assert_eq!(plan.radiant_scale[2], [0.0, 1.0]);
        assert_eq!(plan.radiant_scale[3], [0.0, 0.0]);
    }

    #[test]
    fn dew_projection_rejects_non_finite_forecasts() {
        let mut plan = Plan::full_service(0.0, 60.0, 1);
        let zeroed = project_dew_safe(&mut plan, &[[f64::NAN, 25.0]], &[[18.0, f64::NAN]], 0.5);
        assert_eq!(zeroed, 2);
        assert_eq!(plan.radiant_scale[0], [0.0, 0.0]);
    }
}
