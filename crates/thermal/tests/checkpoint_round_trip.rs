//! Checkpoint round-trip: a plant restored mid-run into a fresh process
//! must continue bit-identically to the original — zone physics, water
//! loops, weather wander, every sensor's noise stream, and the stuck-at
//! fault latches all resume exactly where they left off.

use bz_psychro::Volts;
use bz_simcore::SimDuration;
use bz_simcore::SimTime;
use bz_state::{Reader, Writer};
use bz_thermal::airbox::FanLevel;
use bz_thermal::plant::{
    ActuatorCommands, AirboxActuation, PlantConfig, RadiantLoopCommand, ThermalPlant,
};
use bz_thermal::sensors::{SensorFault, SensorFaultEvent, SensorFaultSchedule, SensorTarget};
use bz_thermal::zone::SubspaceId;

fn live_commands() -> ActuatorCommands {
    ActuatorCommands {
        radiant: [RadiantLoopCommand {
            supply_voltage: Volts::new(3.2),
            recycle_voltage: Volts::new(2.1),
        }; 2],
        airboxes: [AirboxActuation {
            coil_pump_voltage: Volts::new(4.0),
            fan: FanLevel::L3,
            flap_open: true,
        }; 4],
    }
}

/// Drives one step and returns everything observable: ground truth plus
/// every sensor reading (which also advances every sensor noise stream).
fn drive(plant: &mut ThermalPlant) -> Vec<f64> {
    plant.step(SimDuration::from_secs(1), &live_commands());
    let mut out = Vec::new();
    for id in SubspaceId::ALL {
        let s = plant.zone_state(id);
        out.extend([s.temperature.get(), s.humidity_ratio.get(), s.co2.get()]);
        let (t, rh) = plant.read_room(id);
        out.extend([t.get(), rh.get()]);
        out.push(plant.read_co2(id).get());
    }
    for panel in 0..2 {
        out.push(plant.read_mixed_temp(panel).get());
        out.push(plant.read_return_temp(panel).get());
        out.push(plant.read_mixed_flow(panel));
        for k in 0..6 {
            let (t, rh) = plant.read_ceiling_sensor(panel, k);
            out.extend([t.get(), rh.get()]);
        }
    }
    for airbox in 0..4 {
        let (t, rh) = plant.read_airbox_outlet(airbox);
        out.extend([t.get(), rh.get(), plant.read_coil_flow(airbox)]);
    }
    out.push(plant.read_supply_temp().get());
    out.push(plant.read_vent_supply_temp().get());
    let telemetry = plant.telemetry();
    out.extend([
        telemetry.radiant_heat_removed_w,
        telemetry.vent_heat_removed_w,
        telemetry.radiant_chiller_w,
        telemetry.vent_chiller_w,
        telemetry.pump_power_w,
        telemetry.fan_power_w,
    ]);
    let meters = plant.meters();
    out.extend([meters.radiant_chiller.get(), meters.pumps.get()]);
    out
}

fn config_with_sensor_faults() -> PlantConfig {
    let mut config = PlantConfig::bubble_zero_lab();
    // An active stuck-at plus a noise burst exercise the stuck latch and
    // the fault RNG across the checkpoint boundary.
    config.sensor_faults = SensorFaultSchedule::new(vec![
        SensorFaultEvent {
            at: SimTime::from_secs(30),
            repaired_at: None,
            target: SensorTarget::Room(1),
            fault: SensorFault::StuckAt,
        },
        SensorFaultEvent {
            at: SimTime::from_secs(10),
            repaired_at: None,
            target: SensorTarget::Co2(2),
            fault: SensorFault::NoiseBurst { sd: 25.0 },
        },
        SensorFaultEvent {
            at: SimTime::from_secs(40),
            repaired_at: None,
            target: SensorTarget::Ceiling(7),
            fault: SensorFault::DriftRamp { per_hour: 2.0 },
        },
    ]);
    config
}

#[test]
fn restored_plant_continues_bit_identically() {
    let config = config_with_sensor_faults();

    let mut original = ThermalPlant::new(config.clone()).with_obs(bz_obs::Handle::isolated());
    for _ in 0..120 {
        let _ = drive(&mut original);
    }

    let mut w = Writer::new();
    original.save_state(&mut w);
    let bytes = w.into_bytes();

    // "Fresh process": a brand-new plant from the same config, state
    // overwritten from the checkpoint.
    let mut restored = ThermalPlant::new(config).with_obs(bz_obs::Handle::isolated());
    restored
        .load_state(&mut Reader::new(&bytes))
        .expect("saved plant state decodes");
    assert_eq!(restored.now(), original.now());

    for step in 0..240 {
        let a = drive(&mut original);
        let b = drive(&mut restored);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "step {step}, observable {i}: original {x:?} != restored {y:?}"
            );
        }
    }
}

#[test]
fn saving_twice_without_stepping_is_stable() {
    let mut plant =
        ThermalPlant::new(PlantConfig::bubble_zero_lab()).with_obs(bz_obs::Handle::isolated());
    for _ in 0..50 {
        let _ = drive(&mut plant);
    }
    let mut w1 = Writer::new();
    plant.save_state(&mut w1);
    let mut w2 = Writer::new();
    plant.save_state(&mut w2);
    // Saving is read-only: two consecutive snapshots are byte-identical.
    assert_eq!(w1.into_bytes(), w2.into_bytes());
}

#[test]
fn corrupted_plant_state_errors_cleanly() {
    let mut plant =
        ThermalPlant::new(PlantConfig::bubble_zero_lab()).with_obs(bz_obs::Handle::isolated());
    let _ = drive(&mut plant);
    let mut w = Writer::new();
    plant.save_state(&mut w);
    let bytes = w.into_bytes();
    // Truncation at any of a few depths must error, never panic.
    for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
        let mut fresh =
            ThermalPlant::new(PlantConfig::bubble_zero_lab()).with_obs(bz_obs::Handle::isolated());
        assert!(fresh.load_state(&mut Reader::new(&bytes[..cut])).is_err());
    }
}

#[test]
fn restore_carries_initial_indoor_changes() {
    // Guard against a restore that silently keeps constructor state: a
    // checkpoint taken after 600 s of warm-up, when the room has already
    // moved from the initial condition, must overwrite a fresh plant's.
    let config = PlantConfig::bubble_zero_lab();
    let mut warm = ThermalPlant::new(config.clone()).with_obs(bz_obs::Handle::isolated());
    for _ in 0..600 {
        warm.step(SimDuration::from_secs(1), &live_commands());
    }
    let mut w = Writer::new();
    warm.save_state(&mut w);
    let bytes = w.into_bytes();

    let mut fresh = ThermalPlant::new(config).with_obs(bz_obs::Handle::isolated());
    let before = fresh.zone_state(SubspaceId::S1).temperature;
    fresh
        .load_state(&mut Reader::new(&bytes))
        .expect("saved plant state decodes");
    let after = fresh.zone_state(SubspaceId::S1).temperature;
    assert_ne!(before.get().to_bits(), after.get().to_bits());
    assert_eq!(
        after.get().to_bits(),
        warm.zone_state(SubspaceId::S1).temperature.get().to_bits()
    );
}
