//! Sample summaries and the metric record every run prints.
//!
//! Percentiles come from `bz_bench::load::summarize` (nearest rank), with
//! one extra rule: a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a p99 needs 1000 samples.

use std::fmt::Write as _;
use std::time::Duration;

use bz_bench::load::summarize;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Which percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pct {
    /// The median.
    P50,
    /// The 99th percentile.
    P99,
}

impl Pct {
    fn share_beyond(self) -> f64 {
        match self {
            Pct::P50 => 0.5,
            Pct::P99 => 0.01,
        }
    }

    /// Fewest samples for which this percentile may be reported.
    #[must_use]
    pub fn min_samples(self) -> usize {
        (MIN_BEYOND as f64 / self.share_beyond()).ceil() as usize
    }
}

/// The percentile of nanosecond samples, in microseconds, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile_us(samples: &[u64], pct: Pct) -> Option<f64> {
    if samples.len() < pct.min_samples() {
        return None;
    }
    let summary = summarize(&mut samples.to_vec());
    Some(match pct {
        Pct::P50 => summary.p50_us,
        Pct::P99 => summary.p99_us,
    })
}

/// Contiguous blocks a run's samples are cut into for [`blocked_p50_us`].
const BLOCKS: usize = 20;

/// The p50 of time-ordered nanosecond samples, in microseconds, as the
/// mean over [`BLOCKS`] consecutive blocks of each block's p50. The shared
/// host this benchmark was defined on switches between a fast and a slow
/// phase every few seconds; a plain p50 jumps to whichever phase held
/// more samples, while the mean of block p50s weighs both phases by the
/// time they lasted. `None` when a block would hold too few samples.
#[must_use]
pub fn blocked_p50_us(samples: &[u64]) -> Option<f64> {
    let size = samples.len() / BLOCKS;
    if size < Pct::P50.min_samples() {
        return None;
    }
    let p50s: Option<Vec<f64>> = samples
        .chunks(size)
        .take(BLOCKS)
        .map(|block| percentile_us(block, Pct::P50))
        .collect();
    p50s.map(|p50s| p50s.iter().sum::<f64>() / p50s.len() as f64)
}

/// Median of `values` (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// A duration as whole nanoseconds, saturating.
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The result of one run: the counts and named metrics the benchmark
/// prints as its last line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured part of the run.
    pub attempted: u64,
    /// Operations that failed (transport error, non-2xx, failed check).
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problem(format!("{name} is not a finite number"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Records a percentile metric, or a problem when the samples do not
    /// support it.
    pub fn put_pct(
        &mut self,
        name: &str,
        samples: &[u64],
        pct: Pct,
        scale: f64,
        unit: &'static str,
    ) {
        match percentile_us(samples, pct) {
            Some(us) => self.put(name, us * scale, unit),
            None => self.problem(format!(
                "{name}: {} samples, {} needed for {pct:?}",
                samples.len(),
                pct.min_samples()
            )),
        }
    }

    /// Records the [`blocked_p50_us`] of time-ordered samples, or a
    /// problem when there are too few.
    pub fn put_blocked_p50(&mut self, name: &str, samples: &[u64], scale: f64, unit: &'static str) {
        match blocked_p50_us(samples) {
            Some(us) => self.put(name, us * scale, unit),
            None => self.problem(format!(
                "{name}: {} samples, {} needed",
                samples.len(),
                BLOCKS * Pct::P50.min_samples()
            )),
        }
    }

    /// Marks the run incorrect.
    pub fn problem(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    /// The value of a recorded metric.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Keeps only the named metrics, in the given order.
    pub fn retain(&mut self, names: &[&str]) {
        let mut kept = Vec::with_capacity(names.len());
        for name in names {
            if let Some(i) = self.metrics.iter().position(|(n, _, _)| n == name) {
                kept.push(self.metrics.swap_remove(i));
            }
        }
        self.metrics = kept;
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=999).map(|us| us * 1_000).collect();
        assert_eq!(percentile_us(&samples, Pct::P99), None);
        assert_eq!(percentile_us(&samples[..19], Pct::P50), None);
        let samples: Vec<u64> = (1..=1000).map(|us| us * 1_000).collect();
        assert_eq!(percentile_us(&samples, Pct::P99), Some(990.0));
        assert_eq!(percentile_us(&samples, Pct::P50), Some(500.0));
    }

    #[test]
    fn blocked_p50_weighs_both_phases_by_time() {
        assert_eq!(blocked_p50_us(&[1_000; 399]), None);
        // 12 blocks in a slow phase (3 us), 8 in a fast one (1 us): a plain
        // p50 reads 3, the blocked p50 the time-weighted 2.2.
        let mut samples = vec![3_000u64; 12 * 20];
        samples.extend(vec![1_000u64; 8 * 20]);
        assert_eq!(percentile_us(&samples, Pct::P50), Some(3.0));
        let blocked = blocked_p50_us(&samples).unwrap();
        assert!((blocked - 2.2).abs() < 1e-9, "{blocked}");
    }

    #[test]
    fn json_is_one_line_with_the_four_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.put("setup_s", 0.5, "s");
        let json = outcome.to_json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
