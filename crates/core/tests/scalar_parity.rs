//! Byte-identity regression gate for the hot-path optimizations.
//!
//! The fast path (single-channel sensor reads, batched event drains,
//! allocation-free counters) must be *invisible* in
//! every export: a trial driven through the optimized code produces
//! metric JSONL and CSV files byte-identical to the scalar reference
//! path, and leaves the plant in a bit-identical physical state. The
//! reference path is the pre-optimization code, preserved behind
//! `PlantConfig::scalar_reference` (env: `BZ_SCALAR_REFERENCE`).
//!
//! The contract is *per noise version*: V1 and V2 emit different bit
//! streams by design, but within each kernel the scalar and fast paths
//! must agree bytewise, so the parity trial runs once per kernel.

use bz_core::system::{BubbleZeroSystem, SystemConfig};
use bz_obs::Handle;
use bz_simcore::NoiseKernel;
use bz_thermal::disturbance::DisturbanceSchedule;
use bz_thermal::plant::PlantConfig;
use bz_thermal::zone::SubspaceId;

const SEED: u64 = 0x5EED_0001;
const MINUTES: u64 = 10;

/// Bit patterns of the end-of-run physical state.
fn plant_fingerprint(system: &BubbleZeroSystem) -> Vec<u64> {
    let plant = system.plant();
    let mut bits = Vec::new();
    for s in 0..4 {
        let state = plant.zone_state(SubspaceId::from_index(s));
        bits.push(state.temperature.get().to_bits());
        bits.push(state.humidity_ratio.get().to_bits());
        bits.push(state.co2.get().to_bits());
    }
    for panel in 0..2 {
        bits.push(plant.panel_surface(panel).get().to_bits());
        bits.push(plant.loop_mixed_temp(panel).get().to_bits());
    }
    bits.push(plant.radiant_tank_temperature().get().to_bits());
    bits.push(plant.vent_tank_temperature().get().to_bits());
    let meters = plant.meters();
    bits.push(meters.radiant_chiller.get().to_bits());
    bits.push(meters.vent_chiller.get().to_bits());
    bits.push(meters.pumps.get().to_bits());
    bits.push(meters.fans.get().to_bits());
    bits
}

/// Runs the bundled trial scenario and returns (JSONL, CSV, state bits).
fn run_trial(scalar_reference: bool, noise: NoiseKernel) -> (Vec<u8>, Vec<u8>, Vec<u64>) {
    let plant = PlantConfig::bubble_zero_lab()
        .with_seed(SEED ^ 0x9E37)
        .with_noise(noise)
        .with_disturbances(DisturbanceSchedule::figure10_afternoon())
        .with_scalar_reference(scalar_reference);
    let config = SystemConfig {
        seed: SEED,
        ..SystemConfig::paper_deployment(plant)
    };
    let obs = Handle::isolated();
    let mut system = BubbleZeroSystem::with_obs(config, obs.clone());
    for minute in 1..=MINUTES {
        system.run_seconds(60);
        obs.record_counters(minute * 60_000);
    }
    let mut jsonl = Vec::new();
    obs.write_jsonl(&mut jsonl).expect("jsonl export");
    let mut csv = Vec::new();
    obs.write_csv(&mut csv).expect("csv export");
    let bits = plant_fingerprint(&system);
    (jsonl, csv, bits)
}

fn assert_parity(noise: NoiseKernel) {
    let (jsonl_ref, csv_ref, bits_ref) = run_trial(true, noise);
    let (jsonl_fast, csv_fast, bits_fast) = run_trial(false, noise);

    assert!(!jsonl_ref.is_empty(), "reference export must not be empty");
    assert!(
        jsonl_ref.len() > 1_000,
        "export suspiciously small: {} bytes",
        jsonl_ref.len()
    );
    assert_eq!(
        jsonl_ref, jsonl_fast,
        "{noise} fast-path JSONL export diverged from the scalar reference"
    );
    assert_eq!(
        csv_ref, csv_fast,
        "{noise} fast-path CSV export diverged from the scalar reference"
    );
    assert_eq!(
        bits_ref, bits_fast,
        "{noise} fast-path plant state diverged from the scalar reference"
    );
}

#[test]
fn fast_path_exports_are_byte_identical_to_the_scalar_reference_under_v1() {
    assert_parity(NoiseKernel::V1);
}

#[test]
fn fast_path_exports_are_byte_identical_to_the_scalar_reference_under_v2() {
    assert_parity(NoiseKernel::V2);
}
