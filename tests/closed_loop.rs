//! Cross-crate integration tests: the full BubbleZERO closed loop against
//! the calibrated laboratory, checked against the paper's headline claims.

use bubblezero::core::baseline::AirConSystem;
use bubblezero::core::metrics::CopSummary;
use bubblezero::core::system::{BubbleZeroSystem, SystemConfig};
use bubblezero::simcore::{SimDuration, SimTime};
use bubblezero::thermal::disturbance::{DisturbanceSchedule, OpeningEvent, OpeningKind};
use bubblezero::thermal::plant::PlantConfig;
use bubblezero::thermal::zone::SubspaceId;

fn paper_system() -> BubbleZeroSystem {
    BubbleZeroSystem::new(SystemConfig::paper_deployment(
        PlantConfig::bubble_zero_lab(),
    ))
}

#[test]
fn pulldown_reaches_both_targets() {
    let mut system = paper_system();
    system.run_seconds(40 * 60);
    for id in SubspaceId::ALL {
        let temp = system.plant().zone_temperature(id).get();
        let dew = system.plant().zone_dew_point(id).get();
        assert!((temp - 25.0).abs() < 1.0, "{id} temperature {temp}");
        assert!((dew - 18.0).abs() < 1.2, "{id} dew point {dew}");
    }
}

#[test]
fn equilibrium_holds_for_an_hour() {
    let mut system = paper_system();
    system.run_seconds(40 * 60);
    // One further hour: every 5-minute checkpoint stays in the comfort box.
    for _ in 0..12 {
        system.run_seconds(300);
        for id in SubspaceId::ALL {
            let temp = system.plant().zone_temperature(id).get();
            let dew = system.plant().zone_dew_point(id).get();
            assert!((temp - 25.0).abs() < 1.2, "{id} drifted to {temp}");
            assert!((dew - 18.0).abs() < 1.3, "{id} dew drifted to {dew}");
        }
    }
}

#[test]
fn no_condensation_even_with_disturbances() {
    let schedule = DisturbanceSchedule::new(vec![
        OpeningEvent {
            at: SimTime::from_mins(35),
            duration: SimDuration::from_secs(15),
            kind: OpeningKind::Door,
        },
        OpeningEvent {
            at: SimTime::from_mins(50),
            duration: SimDuration::from_secs(120),
            kind: OpeningKind::Door,
        },
        OpeningEvent {
            at: SimTime::from_mins(65),
            duration: SimDuration::from_secs(60),
            kind: OpeningKind::Window,
        },
    ]);
    let plant = PlantConfig::bubble_zero_lab().with_disturbances(schedule);
    let mut system = BubbleZeroSystem::new(SystemConfig::paper_deployment(plant));
    system.run_seconds(80 * 60);
    // The panel surface has a ~7-minute thermal time constant, so a step
    // rise in dew point can graze it before the mixing loop warms it; the
    // control must keep any such contact to an invisible trace (the paper
    // reports no condensation — milligrams over 26 m² of panel are far
    // below a visible film).
    assert!(
        system.plant().panel_condensate_total() < 5.0e-3,
        "panel condensate {} kg is more than a trace",
        system.plant().panel_condensate_total()
    );
}

#[test]
fn panel_surface_stays_above_room_dew_after_warmup() {
    let mut system = paper_system();
    system.run_seconds(10 * 60);
    for _ in 0..60 {
        system.run_seconds(60);
        for panel in 0..2 {
            let surface = system.plant().panel_surface(panel).get();
            let zone_a = SubspaceId::from_index(2 * panel);
            let zone_b = SubspaceId::from_index(2 * panel + 1);
            let dew = system
                .plant()
                .zone_dew_point(zone_a)
                .max(system.plant().zone_dew_point(zone_b))
                .get();
            assert!(
                surface > dew - 0.2,
                "panel {panel} surface {surface} vs dew {dew}"
            );
        }
    }
}

#[test]
fn whole_system_is_deterministic() {
    let run = || {
        let mut system = paper_system();
        system.run_seconds(20 * 60);
        let plant = system.plant();
        (
            plant.zone_state(SubspaceId::S1),
            plant.zone_state(SubspaceId::S4),
            system.network().stats().delivered,
            plant.meters().radiant_removed,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn bubble_zero_beats_the_aircon_baseline() {
    // BubbleZERO steady-state COP.
    let mut system = paper_system();
    system.run_seconds(40 * 60);
    system.plant_mut_reset_meters();
    system.run_seconds(20 * 60);
    let cop = CopSummary::from_meters(system.plant().meters());

    // AirCon on the same physics.
    let mut aircon = AirConSystem::for_bubble_zero_lab();
    aircon.run_seconds(40 * 60);
    aircon.reset_meters();
    aircon.run_seconds(20 * 60);
    let aircon_cop = aircon.measured_cop().expect("metered");

    assert!(
        cop.cop_overall() > aircon_cop * 1.25,
        "BubbleZERO {:.2} should clearly beat AirCon {:.2}",
        cop.cop_overall(),
        aircon_cop
    );
    // And the radiant module must beat the ventilation module — the
    // low-exergy ordering.
    assert!(cop.cop_radiant() > cop.cop_ventilation());
}

#[test]
fn door_event_is_localized_to_subspaces_one_and_two() {
    let schedule = DisturbanceSchedule::new(vec![OpeningEvent {
        at: SimTime::from_mins(45),
        duration: SimDuration::from_secs(120),
        kind: OpeningKind::Door,
    }]);
    let plant = PlantConfig::bubble_zero_lab().with_disturbances(schedule);
    let mut system = BubbleZeroSystem::new(SystemConfig::paper_deployment(plant));
    system.run_seconds(45 * 60);
    let before: Vec<f64> = SubspaceId::ALL
        .iter()
        .map(|&id| system.plant().zone_dew_point(id).get())
        .collect();
    // Track peaks through the event and a couple of minutes after.
    let mut peaks = before.clone();
    for _ in 0..240 {
        system.run_seconds(1);
        for (i, &id) in SubspaceId::ALL.iter().enumerate() {
            peaks[i] = peaks[i].max(system.plant().zone_dew_point(id).get());
        }
    }
    let rises: Vec<f64> = peaks.iter().zip(&before).map(|(p, b)| p - b).collect();
    assert!(
        rises[0] > rises[2] && rises[0] > rises[3],
        "S1 ({:.2}) should rise more than S3 ({:.2})/S4 ({:.2})",
        rises[0],
        rises[2],
        rises[3]
    );
    assert!(rises[0] > 0.3, "the 2-minute opening should be visible");
}

#[test]
fn trial_with_different_seeds_still_converges() {
    for seed in [1u64, 99, 0xDEAD] {
        let plant = PlantConfig::bubble_zero_lab().with_seed(seed);
        let config = SystemConfig {
            seed: seed ^ 0xABCD,
            ..SystemConfig::paper_deployment(plant)
        };
        let mut system = BubbleZeroSystem::new(config);
        system.run_seconds(40 * 60);
        let temp = system.plant().zone_temperature(SubspaceId::S2).get();
        assert!((temp - 25.0).abs() < 1.2, "seed {seed}: {temp}");
    }
}
