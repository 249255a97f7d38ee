//! Property-based tests (proptest) over the core invariants of every
//! subsystem: psychrometric round-trips, statistics equivalences,
//! controller clamping, histogram/oracle invariants, hydraulic bounds,
//! zone-state positivity, and channel conservation.

use proptest::prelude::*;

use bubblezero::core::pid::{Pid, PidConfig};
use bubblezero::psychro::{dew_point, exergy_of_heat, humidity_ratio_from_dew_point};

proptest! {
    // ---------------- psychrometrics -----------------------------------

    #[test]
    fn dew_point_round_trips_through_rh(
        t in -10.0..45.0f64,
        dew_offset in 0.5..25.0f64,
    ) {
        use bubblezero::psychro::{relative_humidity_from_dew_point, Celsius};
        let dew_in = t - dew_offset;
        prop_assume!(dew_in > -40.0);
        let rh = relative_humidity_from_dew_point(Celsius::new(t), Celsius::new(dew_in));
        prop_assume!(rh.get() > 0.5);
        let dew_out = dew_point(Celsius::new(t), rh);
        prop_assert!((dew_out.get() - dew_in).abs() < 1e-6);
    }

    #[test]
    fn dew_point_never_exceeds_dry_bulb(
        t in -10.0..45.0f64,
        rh in 1.0..100.0f64,
    ) {
        use bubblezero::psychro::{Celsius, Percent};
        let dew = dew_point(Celsius::new(t), Percent::new(rh));
        prop_assert!(dew.get() <= t + 1e-9);
    }

    #[test]
    fn humidity_ratio_monotone_in_dew_point(
        dew_lo in -5.0..25.0f64,
        delta in 0.1..10.0f64,
    ) {
        use bubblezero::psychro::Celsius;
        let w_lo = humidity_ratio_from_dew_point(Celsius::new(dew_lo));
        let w_hi = humidity_ratio_from_dew_point(Celsius::new(dew_lo + delta));
        prop_assert!(w_hi.get() > w_lo.get());
    }

    #[test]
    fn exergy_is_non_negative_and_zero_at_reference(
        q in 0.0..10_000.0f64,
        t_work in 270.0..310.0f64,
        t_ref in 280.0..310.0f64,
    ) {
        use bubblezero::psychro::{Kelvin, Watts};
        let ex = exergy_of_heat(Watts::new(q), Kelvin::new(t_work), Kelvin::new(t_ref));
        prop_assert!(ex.get() >= 0.0);
        let at_ref = exergy_of_heat(Watts::new(q), Kelvin::new(t_ref), Kelvin::new(t_ref));
        prop_assert!(at_ref.get().abs() < 1e-9);
    }

    // ---------------- statistics ----------------------------------------

    #[test]
    fn sliding_window_matches_naive_variance(
        values in prop::collection::vec(-100.0..100.0f64, 1..60),
        capacity in 1usize..12,
    ) {
        use bubblezero::simcore::stats::SlidingWindow;
        let mut window = SlidingWindow::new(capacity);
        let mut naive: Vec<f64> = Vec::new();
        for &v in &values {
            window.push(v);
            naive.push(v);
            if naive.len() > capacity {
                naive.remove(0);
            }
            let n = naive.len() as f64;
            let mean = naive.iter().sum::<f64>() / n;
            let expected =
                (naive.iter().map(|x| x * x).sum::<f64>() / n - mean * mean).max(0.0);
            let got = window.variance().unwrap();
            prop_assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
        }
    }

    #[test]
    fn cdf_quantiles_are_ordered_and_bounded(
        values in prop::collection::vec(-1000.0..1000.0f64, 1..50),
        q1 in 0.0..1.0f64,
        q2 in 0.0..1.0f64,
    ) {
        use bubblezero::simcore::stats::Cdf;
        let cdf = Cdf::from_samples(values.clone());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(cdf.quantile(lo) <= cdf.quantile(hi));
        prop_assert!(cdf.quantile(0.0) >= cdf.min() - 1e-12);
        prop_assert!(cdf.quantile(1.0) <= cdf.max() + 1e-12);
        // at() is a valid CDF: 0 below min, 1 at max.
        prop_assert!((cdf.at(cdf.max()) - 1.0).abs() < 1e-12);
        prop_assert!(cdf.at(cdf.min() - 1.0) == 0.0);
    }

    // ---------------- controller ----------------------------------------

    #[test]
    fn pid_output_always_within_clamps(
        kp in 0.0..10.0f64,
        ki in 0.0..1.0f64,
        kd in 0.0..1.0f64,
        lo in -5.0..0.0f64,
        hi in 0.0..5.0f64,
        errors in prop::collection::vec(-100.0..100.0f64, 1..100),
    ) {
        let mut pid = Pid::new(PidConfig::new(kp, ki, kd, lo, hi));
        for e in errors {
            let out = pid.step(e, 1.0);
            prop_assert!(out >= lo - 1e-12 && out <= hi + 1e-12);
        }
    }

    // ---------------- histogram / oracle ---------------------------------

    #[test]
    fn histogram_lambda_lies_within_observed_range(
        values in prop::collection::vec(0.0..100.0f64, 3..200),
        n in 2usize..64,
    ) {
        use bubblezero::wsn::histogram::VarianceHistogram;
        let mut h = VarianceHistogram::new(n);
        for &v in &values {
            h.observe(v);
        }
        if let Some(lambda) = h.threshold() {
            prop_assert!(lambda >= h.var_min() - 1e-9);
            prop_assert!(lambda <= h.var_max() + 1e-9);
        }
        let total: u64 = h.counts().iter().sum();
        prop_assert_eq!(total, values.len() as u64);
    }

    #[test]
    fn oracle_lambda_separates_at_least_one_value_each_side(
        values in prop::collection::vec(0.0..100.0f64, 2..200),
    ) {
        use bubblezero::wsn::histogram::ExactClusterer;
        let mut oracle = ExactClusterer::new();
        for &v in &values {
            oracle.observe(v);
        }
        if let Some(lambda) = oracle.threshold() {
            let below = values.iter().filter(|&&v| v < lambda).count();
            let above = values.iter().filter(|&&v| v >= lambda).count();
            prop_assert!(below >= 1, "λ={lambda} leaves nothing below");
            prop_assert!(above >= 1, "λ={lambda} leaves nothing above");
        }
    }

    // ---------------- hydraulics -----------------------------------------

    #[test]
    fn pump_flow_is_monotone_and_invertible(
        v1 in 0.0..5.0f64,
        v2 in 0.0..5.0f64,
    ) {
        use bubblezero::psychro::Volts;
        use bubblezero::thermal::hydronics::Pump;
        let pump = Pump::radiant_loop();
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(pump.flow(Volts::new(lo)) <= pump.flow(Volts::new(hi)) + 1e-15);
        // voltage_for inverts flow for achievable targets.
        let f = pump.flow(Volts::new(hi));
        if f > 0.0 {
            let back = pump.flow(pump.voltage_for(f));
            prop_assert!((back - f).abs() < 1e-9);
        }
    }

    #[test]
    fn mixed_water_temperature_is_bounded_by_sources(
        supply_flow in 0.0..2.0e-4f64,
        recycle_flow in 0.0..2.0e-4f64,
        tank in 5.0..20.0f64,
        ret in 15.0..30.0f64,
    ) {
        use bubblezero::psychro::Celsius;
        use bubblezero::thermal::hydronics::mix_supply_and_recycle;
        if let Some(mix) = mix_supply_and_recycle(
            supply_flow,
            recycle_flow,
            Celsius::new(tank),
            Celsius::new(ret),
        ) {
            let lo = tank.min(ret) - 1e-9;
            let hi = tank.max(ret) + 1e-9;
            prop_assert!(mix.mixed_temp.get() >= lo && mix.mixed_temp.get() <= hi);
            prop_assert!((mix.mixed_flow_m3s - supply_flow - recycle_flow).abs() < 1e-15);
        }
    }

    // ---------------- zone physics ---------------------------------------

    #[test]
    fn zone_states_stay_physical_under_arbitrary_hvac(
        hvac_w in -2_000.0..500.0f64,
        vent_flow in 0.0..0.05f64,
        vent_temp in 8.0..30.0f64,
        vent_dew_offset in 0.5..15.0f64,
        steps in 10usize..600,
    ) {
        use bubblezero::psychro::{Celsius, Ppm};
        use bubblezero::thermal::zone::{AirState, SubspaceId, Zone, ZoneInputs, ZoneParams};
        let _ = SubspaceId::S1;
        let outdoor = AirState::from_dew_point(
            Celsius::new(30.0),
            Celsius::new(27.0),
            Ppm::new(410.0),
        );
        let mut zone = Zone::new(
            ZoneParams::bubble_zero_subspace(),
            AirState::from_dew_point(Celsius::new(28.0), Celsius::new(26.0), Ppm::new(500.0)),
        );
        let vent_dew = vent_temp - vent_dew_offset;
        let supply = AirState::from_dew_point(
            Celsius::new(vent_temp),
            Celsius::new(vent_dew.max(-5.0)),
            Ppm::new(410.0),
        );
        let inputs = ZoneInputs {
            hvac_sensible_w: hvac_w,
            ventilation_m3s: vent_flow,
            ventilation_temp: supply.temperature,
            ventilation_ratio: supply.humidity_ratio,
            ventilation_co2: supply.co2,
            ..ZoneInputs::default()
        };
        for _ in 0..steps {
            zone.step(1.0, &inputs, outdoor, &[]);
            let state = zone.state();
            prop_assert!(state.humidity_ratio.get() >= 0.0);
            prop_assert!(state.co2.get() >= 0.0);
            prop_assert!(state.temperature.get() > -10.0 && state.temperature.get() < 50.0,
                "temperature {} left the physical envelope", state.temperature);
        }
    }

    // ---------------- energy ---------------------------------------------

    #[test]
    fn battery_lifetime_monotone_in_send_period(
        p1 in 2u64..64,
        p2 in 2u64..64,
    ) {
        use bubblezero::simcore::SimDuration;
        use bubblezero::wsn::energy::EnergyModel;
        let model = EnergyModel::telosb_2aa();
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let life_lo = model.lifetime_years(
            SimDuration::from_secs(2),
            SimDuration::from_secs(lo),
        );
        let life_hi = model.lifetime_years(
            SimDuration::from_secs(2),
            SimDuration::from_secs(hi),
        );
        prop_assert!(life_hi >= life_lo - 1e-12);
    }

    // ---------------- multihop --------------------------------------------

    #[test]
    fn multicast_never_costs_more_than_flooding(
        placements in prop::collection::vec((0.0..200.0f64, 0.0..200.0f64), 2..40),
        subscriber_picks in prop::collection::vec(0usize..40, 1..10),
        range in 15.0..80.0f64,
    ) {
        use bubblezero::wsn::message::{DataType, NodeId};
        use bubblezero::wsn::multihop::MultihopNetwork;
        let mut net = MultihopNetwork::new(range);
        for (i, &(x, y)) in placements.iter().enumerate() {
            net.place(NodeId::new(i as u16), x, y);
        }
        for &pick in &subscriber_picks {
            let idx = pick % placements.len();
            net.subscribe(NodeId::new(idx as u16), DataType::Temperature);
        }
        let source = NodeId::new(0);
        let multicast = net.multicast(source, DataType::Temperature).unwrap();
        let (flood_tx, radius) = net.flood(source).unwrap();
        prop_assert!(multicast.transmissions <= flood_tx);
        prop_assert!(multicast.max_hops <= radius);
        // Every reached subscriber really subscribed, and nothing is both
        // reached and unreachable.
        for node in &multicast.reached {
            prop_assert!(!multicast.unreachable.contains(node));
        }
    }

    // ---------------- thermal comfort ---------------------------------------

    #[test]
    fn ppd_is_at_least_five_percent_and_symmetric(vote in -3.0..3.0f64) {
        use bubblezero::thermal::comfort::ppd;
        prop_assert!(ppd(vote) >= 5.0 - 1e-9);
        prop_assert!(ppd(vote) <= 100.0);
        prop_assert!((ppd(vote) - ppd(-vote)).abs() < 1e-9);
    }

    #[test]
    fn pmv_monotone_in_temperature(
        t in 18.0..32.0f64,
        delta in 0.5..4.0f64,
        rh in 30.0..85.0f64,
    ) {
        use bubblezero::psychro::{Celsius, Percent};
        use bubblezero::thermal::comfort::{pmv, ComfortInputs};
        let cool = pmv(&ComfortInputs::tropical_office(
            Celsius::new(t),
            Celsius::new(t),
            Percent::new(rh),
        ));
        let warm = pmv(&ComfortInputs::tropical_office(
            Celsius::new(t + delta),
            Celsius::new(t + delta),
            Percent::new(rh),
        ));
        prop_assert!(warm > cool, "PMV fell from {cool} to {warm}");
    }

    // ---------------- fault schedules ---------------------------------------

    #[test]
    fn fault_application_is_idempotent(
        at_mins in 0u64..100,
        query_mins in 0u64..200,
        airbox in 0usize..4,
    ) {
        use bubblezero::simcore::SimTime;
        use bubblezero::thermal::faults::{ActuatorFault, FaultEvent, FaultSchedule};
        use bubblezero::thermal::plant::ActuatorCommands;
        let schedule = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_mins(at_mins),
            repaired_at: None,
            fault: ActuatorFault::CoilPumpDead { airbox },
        }]);
        let commands = ActuatorCommands::all_off();
        let now = SimTime::from_mins(query_mins);
        let once = schedule.apply(&commands, now);
        let twice = schedule.apply(&once, now);
        prop_assert_eq!(once, twice);
        // And the fault only ever bites at/after its start time.
        if query_mins < at_mins {
            prop_assert_eq!(once, commands);
        }
    }

    // ---------------- channel ---------------------------------------------

    #[test]
    fn channel_conserves_every_offered_frame(
        sends in prop::collection::vec((0u64..5_000, 0u16..30), 1..200),
        seed in 0u64..1_000,
    ) {
        use bubblezero::simcore::{Rng, SimTime};
        use bubblezero::wsn::channel::{Network, NetworkConfig};
        use bubblezero::wsn::message::{DataType, Message, NodeId};
        let mut network = Network::new(NetworkConfig::telosb(), Rng::seed_from(seed));
        let mut sorted = sends.clone();
        sorted.sort();
        for &(at_ms, node) in &sorted {
            let at = SimTime::from_millis(at_ms);
            let msg = Message::new(NodeId::new(node), DataType::Temperature, 1.0, at);
            network.send(at, msg);
        }
        let delivered = network.advance(SimTime::from_secs(60)).len() as u64;
        let stats = network.stats();
        prop_assert_eq!(stats.offered, sorted.len() as u64);
        prop_assert_eq!(stats.delivered, delivered);
        // Conservation: every offered frame is delivered, collided,
        // faded, or dropped for a busy channel.
        prop_assert_eq!(
            stats.delivered + stats.collided + stats.faded + stats.busy_drops,
            stats.offered
        );
    }
}
