//! `bzctl endurance` steps a minute at a time through the one checkpoint
//! loop, so its snapshots and its injected crash fall at the minute the
//! flags name, not at the end of a simulated day.
//!
//! Each run is its own `bzctl` process under the default noise kernel,
//! so no two runs share the global telemetry registry.

use std::process::{Command, Output};

/// Runs `bzctl` with the whitespace-separated `line`.
fn bzctl(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bzctl"))
        .args(line.split_whitespace())
        .env_remove("BZ_NOISE")
        .output()
        .expect("bzctl starts")
}

/// Runs `bzctl`, expects success, and returns its stdout.
fn ok(line: &str) -> String {
    let out = bzctl(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{line} failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn endurance_checkpoints_and_crashes_at_the_minute_its_flags_name() {
    let dir = std::env::temp_dir().join(format!("bzctl-endurance-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.display();
    ok(&format!(
        "endurance --days 1 --metrics-out {dir}/reference.jsonl"
    ));

    // The crashed run records telemetry too: its snapshots carry it.
    let hourly = format!("endurance --days 1 --checkpoint-dir {dir}/ckpt --checkpoint-every 3600");
    let crashed = bzctl(&format!(
        "{hourly} --crash-at 7200 --metrics-out {dir}/crashed.jsonl"
    ));
    let stderr = String::from_utf8_lossy(&crashed.stderr);
    assert!(!crashed.status.success());
    assert!(stderr.contains("crash injected at t=7200s"), "{stderr}");
    let listed = ok(&format!("checkpoint inspect {dir}/ckpt"));
    assert!(
        listed.contains("t=3600s") && listed.contains("t=7200s"),
        "{listed}"
    );

    let out = ok(&format!(
        "{hourly} --resume --metrics-out {dir}/resumed.jsonl"
    ));
    assert!(out.contains("at t=7200s"), "{out}");
    let read = |name: &str| std::fs::read(format!("{dir}/{name}.jsonl")).unwrap();
    assert!(
        read("resumed") == read("reference"),
        "a resumed endurance run must export the uninterrupted bytes"
    );
    std::fs::remove_dir_all(dir.to_string()).ok();
}

#[test]
fn a_run_without_telemetry_does_not_resume_into_an_export() {
    let dir = std::env::temp_dir().join(format!("bzctl-metrics-off-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.display();
    let chaos = "chaos --minutes 6";
    let reference = ok(chaos);
    ok(&format!("{chaos} --metrics-out {dir}/reference.jsonl"));

    // Its snapshots carry a registry that recorded nothing, so a resume
    // that exports must refuse them, naming both labels.
    let run = format!("{chaos} --checkpoint-dir {dir}/off --checkpoint-every 60");
    assert!(!bzctl(&format!("{run} --crash-at 180")).status.success());
    let refused = bzctl(&format!("{run} --resume --metrics-out {dir}/x.jsonl"));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success(), "resumed into an export");
    assert!(
        stderr.contains("minutes=6 metrics=off noise=v2") && stderr.contains("minutes=6 noise=v2"),
        "{stderr}"
    );
    // With the flags it crashed with, it finishes as if uninterrupted.
    let resumed = ok(&format!("{run} --resume"));
    assert!(resumed.contains("at t=180s"), "{resumed}");
    assert!(resumed.ends_with(&reference), "{resumed}");

    // A run that records resumes to the uninterrupted export.
    let run = format!("{chaos} --checkpoint-dir {dir}/on --checkpoint-every 60");
    let crashed = bzctl(&format!("{run} --crash-at 180 --metrics-out {dir}/y.jsonl"));
    assert!(!crashed.status.success());
    ok(&format!("{run} --resume --metrics-out {dir}/resumed.jsonl"));
    let read = |name: &str| std::fs::read(format!("{dir}/{name}.jsonl")).unwrap();
    assert!(read("resumed") == read("reference"));
    std::fs::remove_dir_all(dir.to_string()).ok();
}
