//! A checkpoint directory written by a format-2 build, whose telemetry
//! section spells out every event's key, still resumes under this build
//! to the export of the run that was never interrupted.
//!
//! The fixture is what `bzctl trial --minutes 2 --seed 7 --metrics-out …
//! --checkpoint-dir … --checkpoint-every 60 --crash-at 60` left behind in
//! that build.

use std::path::Path;
use std::process::Command;

use bz_state::crc64::checksum;

/// CRC-64/XZ of `bzctl trial --minutes 2 --seed 7 --metrics-out` as the
/// format-2 build exported it, uninterrupted.
const UNINTERRUPTED_CRC: u64 = 0x6ddf_609a_3296_1cae;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trial-s7-crash-at-60-v2/ckpt-000000060000.bzck"
);

/// Runs the two-minute trial with `extra` flags, exporting to `metrics`,
/// and returns its stdout and stderr.
fn trial(metrics: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bzctl"))
        .args(["trial", "--minutes", "2", "--seed", "7", "--quiet"])
        .arg("--metrics-out")
        .arg(metrics)
        .args(extra)
        .env_remove("BZ_NOISE")
        .output()
        .expect("bzctl starts");
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "trial failed: {text}");
    text
}

#[test]
fn a_format_2_trial_checkpoint_resumes_to_the_uninterrupted_export() {
    let dir = std::env::temp_dir().join(format!("bzctl-legacy-ckpt-{}", std::process::id()));
    let ckpt = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt).unwrap();
    let legacy = std::fs::read(FIXTURE).unwrap();
    assert_eq!(
        legacy[4..8],
        2u32.to_le_bytes(),
        "written by a format-2 build"
    );
    std::fs::write(ckpt.join("ckpt-000000060000.bzck"), &legacy).unwrap();

    let resumed = dir.join("resumed.jsonl");
    let flags = ["--checkpoint-every", "60", "--resume", "--checkpoint-dir"];
    let out = trial(&resumed, &[&flags[..], &[ckpt.to_str().unwrap()]].concat());
    assert!(out.contains("resumed from"), "{out}");
    let fresh = dir.join("fresh.jsonl");
    trial(&fresh, &[]);

    let resumed = std::fs::read(&resumed).unwrap();
    assert_eq!(checksum(&resumed), UNINTERRUPTED_CRC);
    assert_eq!(resumed, std::fs::read(&fresh).unwrap());
    // The resumed run's own snapshot is in the current format.
    let written = std::fs::read(ckpt.join("ckpt-000000120000.bzck")).unwrap();
    assert_eq!(written[4..8], bz_state::FORMAT_VERSION.to_le_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}
