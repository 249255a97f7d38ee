//! End-to-end acceptance of the bundled chaos scenario: the system must
//! detect every injected fault, degrade only the faulted panel's
//! subspaces, avoid condensation while degraded, recover after repair,
//! and export byte-identical metrics for the same seed.

use bz_core::chaos::{ChaosScenario, AFFECTED_THRESHOLD_MIN};
use bz_core::session::Session;

fn run_once() -> (bz_core::chaos::ResilienceReport, Vec<u8>) {
    let obs = bz_obs::Handle::isolated();
    obs.enable();
    let mut run = ChaosScenario::bundled_basic().begin_with_obs(obs.clone());
    run.step_minutes(u64::MAX);
    let report = run.finish();
    let mut jsonl = Vec::new();
    obs.write_jsonl(&mut jsonl).expect("export never fails");
    (report, jsonl)
}

#[test]
fn bundled_scenario_degrades_gracefully_and_recovers() {
    let (report, _) = run_once();

    // The supervisor noticed the fault burst promptly (the pump watchdog
    // needs a couple of probe windows, so "promptly" is minutes).
    let ttd = report.time_to_detect_s.expect("faults must be detected");
    assert!(ttd > 0.0 && ttd < 900.0, "ttd {ttd}");
    // And the system settled back into the comfort band after repair.
    let ttr = report.time_to_recover_s.expect("system must recover");
    assert!((0.0..1_800.0).contains(&ttr), "ttr {ttr}");
    assert!(report.detections >= 3, "detections {}", report.detections);
    assert!(report.recoveries >= 3, "recoveries {}", report.recoveries);

    // Panel 0 (subspaces 1–2) carries every fault; subspaces 3–4 must
    // ride through inside the comfort band.
    assert!(
        (1..=2).contains(&report.subspaces_affected),
        "affected {}",
        report.subspaces_affected
    );
    let [v1, v2, v3, v4] = report.violation_minutes;
    assert!(v1 + v2 > 1.0, "faulted panel should degrade: {v1} + {v2}");
    assert!(v3 < AFFECTED_THRESHOLD_MIN, "Subsp3 degraded: {v3} min");
    assert!(v4 < AFFECTED_THRESHOLD_MIN, "Subsp4 degraded: {v4} min");

    // Safe mode's whole job: no condensation even with the dew-margin
    // inputs untrustworthy and the recycle pump seized.
    assert!(
        report.condensate_kg < 0.01,
        "condensate {} kg",
        report.condensate_kg
    );
}

#[test]
fn same_seed_exports_are_byte_identical() {
    let (report_a, jsonl_a) = run_once();
    let (report_b, jsonl_b) = run_once();
    assert!(!jsonl_a.is_empty());
    assert_eq!(report_a, report_b);
    assert_eq!(jsonl_a, jsonl_b);
}

/// CRC-64/XZ of the bundled scenario's JSONL export, per noise kernel.
/// The run exercises the ventilation, radiant and supervisor constants
/// under faults, so a constant that drifts from the value the exports
/// were written with fails here.
#[test]
fn bundled_export_is_pinned() {
    let (_, jsonl) = run_once();
    let expected = match bz_simcore::NoiseKernel::from_env() {
        bz_simcore::NoiseKernel::V1 => 0x78be_1e25_3dca_ff12,
        bz_simcore::NoiseKernel::V2 => 0xe25e_fc59_e17a_0110,
    };
    let crc = bz_state::crc64::checksum(&jsonl);
    assert_eq!(crc, expected, "chaos export CRC {crc:#018x}");
}
