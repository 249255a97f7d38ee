//! Named time-series recording and CSV export.
//!
//! Every figure harness records the quantities it needs into a
//! [`TraceRecorder`] while the simulation runs and dumps them to CSV (or
//! reads them back for assertions) afterwards. Series are stored in
//! insertion order so exports are stable across runs.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::time::SimTime;

/// One recorded observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the observation was made.
    pub at: SimTime,
    /// The observed value.
    pub value: f64,
}

/// A single named time series.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<Sample>,
}

impl Series {
    /// All samples in recording order.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent sample.
    #[must_use]
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Value at or immediately before `at` (step interpolation), or `None`
    /// if `at` precedes the first sample.
    #[must_use]
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        let idx = self.samples.partition_point(|s| s.at <= at);
        idx.checked_sub(1).map(|i| self.samples[i].value)
    }

    /// Iterates samples within `[from, to]` inclusive.
    pub fn between(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = Sample> + '_ {
        let start = self.samples.partition_point(|s| s.at < from);
        self.samples[start..]
            .iter()
            .take_while(move |s| s.at <= to)
            .copied()
    }
}

/// A collection of named time series recorded during a simulation run.
///
/// # Example
///
/// ```
/// use bz_simcore::{SimTime, TraceRecorder};
///
/// let mut trace = TraceRecorder::new();
/// trace.record("subspace1.temperature", SimTime::ZERO, 28.9);
/// trace.record("subspace1.temperature", SimTime::from_mins(30), 25.0);
/// let series = trace.series("subspace1.temperature").unwrap();
/// assert_eq!(series.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    // Insertion-ordered: (name, series). Linear scan is fine — a run has a
    // few dozen series and recording indexes by position via `SeriesId`
    // lookups at the call sites that are hot.
    series: Vec<(String, Series)>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample to the named series, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite or if `at` precedes the last sample
    /// already recorded for this series (series must be time-ordered).
    pub fn record(&mut self, name: &str, at: SimTime, value: f64) {
        assert!(
            value.is_finite(),
            "recorded value for {name} must be finite"
        );
        let series = match self.series.iter_mut().find(|(n, _)| n == name) {
            Some((_, s)) => s,
            None => {
                self.series.push((name.to_owned(), Series::default()));
                &mut self.series.last_mut().expect("just pushed").1
            }
        };
        if let Some(last) = series.samples.last() {
            assert!(
                at >= last.at,
                "series {name} must be recorded in time order ({at} < {})",
                last.at
            );
        }
        series.samples.push(Sample { at, value });
    }

    /// Looks up a series by name.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series
            .iter()
            .find_map(|(n, s)| (n == name).then_some(s))
    }

    /// Renders the named series side by side as wide-format CSV with one
    /// row per distinct timestamp (`time_s,<name1>,<name2>,…`), using step
    /// interpolation for series that lack a sample at a given timestamp.
    /// Empty cells are emitted before a series' first sample.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `out`.
    ///
    /// # Panics
    ///
    /// Panics if any requested series does not exist.
    pub fn write_wide_csv<W: Write>(&self, names: &[&str], mut out: W) -> io::Result<()> {
        let selected: Vec<&Series> = names
            .iter()
            .map(|n| {
                self.series(n)
                    .unwrap_or_else(|| panic!("series {n} not recorded"))
            })
            .collect();
        let mut times: Vec<SimTime> = selected
            .iter()
            .flat_map(|s| s.samples.iter().map(|x| x.at))
            .collect();
        times.sort_unstable();
        times.dedup();

        let mut buffer = String::new();
        buffer.push_str("time_s");
        for n in names {
            let _ = write!(buffer, ",{n}");
        }
        buffer.push('\n');
        for t in times {
            let _ = write!(buffer, "{:.3}", t.as_secs_f64());
            for s in &selected {
                match s.value_at(t) {
                    Some(v) => {
                        let _ = write!(buffer, ",{v:.6}");
                    }
                    None => buffer.push(','),
                }
            }
            buffer.push('\n');
        }
        out.write_all(buffer.as_bytes())
    }
}

bz_state::persist_struct!(Sample { at, value });
bz_state::persist_struct!(Series { samples });

impl bz_state::Persist for TraceRecorder {
    fn save(&self, w: &mut bz_state::Writer) {
        self.series.save(w);
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        Ok(Self {
            series: bz_state::Persist::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn records_and_reads_back() {
        let mut trace = TraceRecorder::new();
        trace.record("a", t(0), 1.0);
        trace.record("a", t(1), 2.0);
        trace.record("b", t(0), 9.0);
        assert_eq!(trace.series.len(), 2);
        assert_eq!(trace.series("a").unwrap().len(), 2);
        assert_eq!(trace.series("b").unwrap().last().unwrap().value, 9.0);
        assert!(trace.series("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn rejects_out_of_order_samples() {
        let mut trace = TraceRecorder::new();
        trace.record("a", t(5), 1.0);
        trace.record("a", t(4), 2.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan() {
        let mut trace = TraceRecorder::new();
        trace.record("a", t(0), f64::NAN);
    }

    #[test]
    fn step_interpolation() {
        let mut trace = TraceRecorder::new();
        trace.record("a", t(10), 1.0);
        trace.record("a", t(20), 2.0);
        let s = trace.series("a").unwrap();
        assert_eq!(s.value_at(t(5)), None);
        assert_eq!(s.value_at(t(10)), Some(1.0));
        assert_eq!(s.value_at(t(15)), Some(1.0));
        assert_eq!(s.value_at(t(20)), Some(2.0));
        assert_eq!(s.value_at(t(99)), Some(2.0));
    }

    #[test]
    fn between_and_means() {
        let mut trace = TraceRecorder::new();
        for i in 0..10 {
            trace.record("a", t(i), i as f64);
        }
        let s = trace.series("a").unwrap();
        let window: Vec<f64> = s.between(t(3), t(5)).map(|x| x.value).collect();
        assert_eq!(window, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn wide_csv_aligns_timestamps() {
        let mut trace = TraceRecorder::new();
        trace.record("x", t(1), 1.0);
        trace.record("x", t(3), 3.0);
        trace.record("y", t(2), 20.0);
        let mut out = Vec::new();
        trace.write_wide_csv(&["x", "y"], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "time_s,x,y");
        assert_eq!(lines.len(), 4);
        // t=1: y has no value yet → empty cell.
        assert_eq!(lines[1], "1.000,1.000000,");
        // t=2: x holds at 1.0.
        assert_eq!(lines[2], "2.000,1.000000,20.000000");
        assert_eq!(lines[3], "3.000,3.000000,20.000000");
    }

    #[test]
    #[should_panic(expected = "not recorded")]
    fn wide_csv_rejects_unknown_series() {
        let trace = TraceRecorder::new();
        let _ = trace.write_wide_csv(&["nope"], Vec::new());
    }
}
