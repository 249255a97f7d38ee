//! A sweep checkpoint directory written under one noise kernel is never
//! reused by a sweep under the other: `--resume` re-runs every run and
//! merges to the bytes of a fresh sweep under the resuming kernel.
//!
//! Each sweep runs as its own `bzctl` process, so `BZ_NOISE` never
//! touches the environment of this or any other test.

use std::path::Path;
use std::process::Command;

/// Runs a two-run trial sweep, writing the merged report to `report`,
/// and returns its stdout. `noise` sets `BZ_NOISE`; `None` leaves the
/// default kernel.
fn sweep(noise: Option<&str>, report: &Path, extra: &[&str]) -> String {
    let flags = "sweep --scenario trial --runs 2 --minutes 3 --jobs 2 --quiet --metrics-out";
    let mut bzctl = Command::new(env!("CARGO_BIN_EXE_bzctl"));
    bzctl
        .args(flags.split(' '))
        .arg(report)
        .args(extra)
        .env_remove("BZ_NOISE");
    if let Some(noise) = noise {
        bzctl.env("BZ_NOISE", noise);
    }
    let out = bzctl.output().expect("bzctl starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sweep failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn a_v1_resume_reruns_a_default_kernel_sweep_instead_of_reusing_it() {
    let dir = std::env::temp_dir().join(format!("bzctl-noise-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let checkpointed = ["--checkpoint-dir", ckpt, "--checkpoint-every", "60"];

    let default_report = dir.join("default.jsonl");
    sweep(None, &default_report, &checkpointed);
    let fresh_v1 = dir.join("fresh-v1.jsonl");
    sweep(Some("v1"), &fresh_v1, &[]);
    let resumed_v1 = dir.join("resumed-v1.jsonl");
    let out = sweep(
        Some("v1"),
        &resumed_v1,
        &[checkpointed.as_slice(), &["--resume"]].concat(),
    );

    assert!(
        out.contains("0 run(s) served from completion records"),
        "{out}"
    );
    let fresh = std::fs::read(&fresh_v1).unwrap();
    assert_ne!(
        fresh,
        std::fs::read(&default_report).unwrap(),
        "the kernels must differ for this test to mean anything"
    );
    assert_eq!(
        std::fs::read(&resumed_v1).unwrap(),
        fresh,
        "a V1 resume must merge to a fresh V1 sweep's bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}
