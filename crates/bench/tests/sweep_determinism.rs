//! The sweep runner's determinism contract: scheduling must never leak
//! into the outputs.
//!
//! Two halves:
//! 1. Serial vs. parallel equivalence — the same sweep executed with one
//!    worker and with four produces byte-identical per-run metrics and an
//!    identical merged report (the CI determinism gate checks the same
//!    property through the `bzctl sweep` binary).
//! 2. A property test that any permutation of job completion order yields
//!    the same merged report, since the merge is keyed by run index.

use bz_bench::sweep::{
    execute_resumable, parse_grid, report_csv, report_jsonl, summary_table, RunResult, RunSummary,
    Scenario, SweepSpec,
};
use proptest::prelude::*;

/// A small but real sweep: 2 seeds × 2 grid points of the trial scenario.
fn test_sweep() -> Vec<bz_bench::sweep::RunSpec> {
    SweepSpec {
        scenario: Scenario::Trial,
        seeds: vec![11, 12],
        minutes: 2,
        grid: parse_grid("bt-fixed=true,false").unwrap(),
    }
    .expand()
}

fn unwrap_all(results: Vec<Result<(RunResult, u64), String>>) -> Vec<RunResult> {
    results
        .into_iter()
        .map(|outcome| outcome.map(|(result, _)| result))
        .collect::<Result<Vec<_>, _>>()
        .expect("sweep runs succeed")
}

#[test]
fn serial_and_parallel_sweeps_are_byte_identical() {
    let specs = test_sweep();
    let serial = unwrap_all(execute_resumable(&specs, 1, None));
    let parallel = unwrap_all(execute_resumable(&specs, 4, None));

    assert_eq!(serial.len(), 4);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.label, p.label);
        assert_eq!(s.summary, p.summary, "summary differs for {}", s.label);
        assert!(
            s.metrics_jsonl == p.metrics_jsonl,
            "per-run metrics for {} differ between --jobs 1 and --jobs 4",
            s.label
        );
        assert!(!s.metrics_jsonl.is_empty(), "metrics export is non-trivial");
    }
    assert_eq!(report_csv(&serial), report_csv(&parallel));
    assert_eq!(report_jsonl(&serial), report_jsonl(&parallel));
    assert_eq!(summary_table(&serial), summary_table(&parallel));
}

#[test]
fn repeated_parallel_sweeps_are_stable() {
    // Same sweep twice under maximum scheduling freedom: results must
    // match run-to-run, not just against a serial reference.
    let specs = test_sweep();
    let first = unwrap_all(execute_resumable(&specs, 4, None));
    let second = unwrap_all(execute_resumable(&specs, 4, None));
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl);
        assert_eq!(a.summary, b.summary);
    }
}

/// Synthetic results for the permutation property (no simulation needed:
/// the property under test is purely about the merge).
fn synthetic_results(n: usize) -> Vec<RunResult> {
    (0..n)
        .map(|index| RunResult {
            index,
            label: format!("trial-s{index:04}"),
            seed: index as u64,
            scenario: "trial",
            params: String::new(),
            summary: RunSummary {
                t_end_c: 24.0 + index as f64 * 0.25,
                dew_end_c: 17.0 + index as f64 * 0.125,
                condensate_kg: index as f64 * 1e-6,
                delivery_pct: 99.0 - index as f64 * 0.5,
                packets_sent: 1000 + index as u64,
                energy_kj: 150.0 + index as f64 * 2.0,
                cop: 3.0 + index as f64 * 0.01,
                lifetime_y: 2.0 + index as f64 * 0.1,
            },
            metrics_jsonl: format!("{{\"run\":{index}}}\n").into_bytes(),
        })
        .collect()
}

proptest! {
    #[test]
    fn any_completion_order_yields_the_same_merged_report(
        keys in prop::collection::vec(0u64..1_000_000, 16..17),
    ) {
        // Derive a permutation from the sampled keys: results arrive in
        // the order of their key, modelling arbitrary job completion.
        let baseline = synthetic_results(keys.len());
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let permuted: Vec<RunResult> = order.iter().map(|&i| baseline[i].clone()).collect();

        prop_assert_eq!(report_csv(&permuted), report_csv(&baseline));
        prop_assert_eq!(report_jsonl(&permuted), report_jsonl(&baseline));
        prop_assert_eq!(summary_table(&permuted), summary_table(&baseline));
    }
}
