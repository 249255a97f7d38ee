//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Each `fig1x` binary reruns the corresponding experiment of the paper's
//! §V evaluation, prints the paper's rows/series to stdout, and writes the
//! full series as CSV under [`output_dir`] for plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod sweep;
pub mod throughput;

use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Directory figure CSVs are written to: `$BZ_FIG_OUT` or
/// `target/figures`. Created on first use.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn output_dir() -> PathBuf {
    let dir = std::env::var_os("BZ_FIG_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/figures"));
    fs::create_dir_all(&dir).expect("create figure output directory");
    dir
}

/// Prints a section header in a consistent style.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints one `label: value` row, aligned.
pub fn row(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<46} {value}");
}

/// Prints a paper-vs-measured comparison row.
pub fn compare(label: &str, paper: impl std::fmt::Display, measured: impl std::fmt::Display) {
    println!("  {label:<38} paper: {paper:<12} measured: {measured}");
}

/// Runs a fig/ablation harness body under the standard profiling hooks:
/// when `$BZ_METRICS_OUT` is set, the global bz-obs handle records the
/// run, and the collected metrics (JSONL, or CSV when the path ends in
/// `.csv`) are written there with the summary table printed after it.
/// Every `bz-bench` binary `main` is one call to this.
///
/// # Panics
///
/// Panics if the export file cannot be written.
pub fn harness(body: impl FnOnce()) {
    let Some(path) = std::env::var_os("BZ_METRICS_OUT").map(PathBuf::from) else {
        body();
        return;
    };
    let obs = bz_obs::Handle::global();
    obs.enable();
    obs.reset();
    body();
    obs.disable();
    if let Err(e) = export_metrics(&obs, &path) {
        panic!("{e}");
    }
    header("profiling metrics");
    println!("{}", obs.summary_table());
    println!("  metrics written to {}", path.display());
}

/// Writes `obs`'s export to `path` through a buffer: CSV when the path
/// ends in `.csv`, JSONL otherwise. The buffer is flushed here, so a
/// failed last write is reported, not lost on drop.
///
/// # Errors
///
/// Names the path and whether creating or writing it failed.
pub fn export_metrics(obs: &bz_obs::Handle, path: &Path) -> Result<(), String> {
    let shown = path.display();
    let file = fs::File::create(path).map_err(|e| format!("cannot create {shown}: {e}"))?;
    let mut out = BufWriter::new(file);
    let written: io::Result<()> = if path.extension().is_some_and(|e| e == "csv") {
        obs.write_csv(&mut out)
    } else {
        obs.write_jsonl(&mut out)
    };
    written
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write {shown}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dir_is_created() {
        let dir = output_dir();
        assert!(dir.is_dir());
    }

    #[test]
    #[cfg(unix)]
    fn an_export_whose_writes_fail_reports_the_error() {
        let obs = bz_obs::Handle::isolated();
        obs.enable();
        obs.gauge_set("probe", 0, 1.0);
        // The export fits the buffer, so only the flush meets the full
        // device.
        let err = export_metrics(&obs, Path::new("/dev/full")).unwrap_err();
        assert!(err.starts_with("cannot write /dev/full"), "{err}");
    }
}
