//! Regression: with `horizon == 0` the MPC strategy is *byte-identical*
//! to the reactive baseline — same plant trajectory, same metric export,
//! to the last byte. This pins the begin-cycle early-return and the
//! delegate-only decision paths: any stray metric, span, or estimator
//! update under horizon 0 fails this test.

use bz_predict::compare::{run_strategy, MpcScenario, OccupancyWindow};
use bz_predict::strategy::MpcConfig;
use bz_simcore::SimDuration;

/// A short occupied/empty cycle — enough control cycles to exercise every
/// decision path without slowing the suite.
fn short_scenario() -> MpcScenario {
    MpcScenario {
        name: "parity".to_string(),
        seed: 7_741,
        duration: SimDuration::from_mins(12),
        period_s: 360.0,
        windows: (0..4)
            .map(|subspace| OccupancyWindow {
                subspace,
                start_s: 0.0,
                end_s: 180.0,
                count: 2,
            })
            .collect(),
    }
}

#[test]
fn horizon_zero_mpc_is_byte_identical_to_reactive() {
    let scenario = short_scenario();
    let reactive = run_strategy(&scenario, None);
    let inert_mpc = run_strategy(&scenario, Some(MpcConfig::disabled()));

    assert_eq!(reactive.strategy, "reactive");
    assert_eq!(inert_mpc.strategy, "mpc");
    assert_eq!(
        reactive.energy_kj, inert_mpc.energy_kj,
        "energy must match bit-for-bit"
    );
    assert_eq!(
        reactive.comfort_violation_min,
        inert_mpc.comfort_violation_min
    );
    assert_eq!(reactive.condensate_kg, inert_mpc.condensate_kg);
    assert!(
        reactive.export == inert_mpc.export,
        "exports differ: reactive {} bytes vs mpc {} bytes",
        reactive.export.len(),
        inert_mpc.export.len()
    );
    assert!(
        !reactive.export.is_empty(),
        "export must not be vacuously empty"
    );
}

#[test]
fn repeated_runs_export_identical_bytes() {
    let scenario = short_scenario();
    let first = run_strategy(&scenario, Some(MpcConfig::office()));
    let second = run_strategy(&scenario, Some(MpcConfig::office()));
    assert!(
        first.export == second.export,
        "MPC runs must be deterministic"
    );
    assert_eq!(first.energy_kj, second.energy_kj);
}

/// CRC-64/XZ of the MPC strategy's JSONL export over the bundled office
/// scenario, per noise kernel. The occupancy profile is learned after the
/// first 90-minute period and the next two are planned, so the forecast,
/// identification and horizon constants all reach the export.
#[test]
fn bundled_office_mpc_export_is_pinned() {
    let run = run_strategy(&MpcScenario::bundled_office(), Some(MpcConfig::office()));
    let expected = match bz_simcore::NoiseKernel::from_env() {
        bz_simcore::NoiseKernel::V1 => 0x8b70_9687_ab09_6fc9,
        bz_simcore::NoiseKernel::V2 => 0xd3e2_898f_3438_78e8,
    };
    let crc = bz_state::crc64::checksum(&run.export);
    assert_eq!(crc, expected, "mpc export CRC {crc:#018x}");
}
