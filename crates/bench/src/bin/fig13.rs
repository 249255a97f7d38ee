//! Figure 13 — adaptation accuracy as time elapses (N = 40).
//!
//! The histogram is re-binned whenever `var_max`/`var_min` move, which
//! costs accuracy early; once enough events have anchored the range the
//! accuracy climbs into the high 90s. This harness reruns the 5-hour
//! trial and reports the accuracy in 10-minute bins.

use std::fs::File;
use std::io::{BufWriter, Write as _};

use bz_bench::{compare, header, output_dir};
use bz_core::scenario::{NetworkTrial, VarianceReplay};
use bz_simcore::SimDuration;

fn main() {
    bz_bench::harness(|| {
        header("Fig. 13 — accuracy over time at N = 40");
        println!("  running the 5-hour networking trial once...");
        let outcome = NetworkTrial::paper_setup().run();
        let replay =
            VarianceReplay::from_decisions(&outcome.decisions, outcome.stream_types.len(), 100);
        let series = replay.accuracy_over_time(40, SimDuration::from_mins(10));

        println!("  {:>10} {:>14}", "time (s)", "accuracy (%)");
        let path = output_dir().join("fig13.csv");
        let mut file = BufWriter::new(File::create(&path).expect("create csv"));
        writeln!(file, "time_s,accuracy").expect("write");
        for (at, accuracy) in &series {
            println!("  {:>10.0} {:>14.1}", at.as_secs_f64(), accuracy * 100.0);
            writeln!(file, "{:.0},{accuracy:.6}", at.as_secs_f64()).expect("write");
        }
        file.flush().expect("write");
        println!("  series written to {}", path.display());

        header("Paper claims vs measured");
        let early: Vec<f64> = series
            .iter()
            .filter(|(at, _)| at.as_hours_f64() < 1.0)
            .map(|(_, a)| *a)
            .collect();
        let late: Vec<f64> = series
            .iter()
            .filter(|(at, _)| at.as_hours_f64() >= 2.0)
            .map(|(_, a)| *a)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        compare(
            "first-hour accuracy (%)",
            "~87-93",
            format!("{:.1}", 100.0 * mean(&early)),
        );
        compare(
            "post-stabilization accuracy (%)",
            "97-99",
            format!("{:.1}", 100.0 * mean(&late)),
        );
        compare(
            "late > early (accuracy climbs)",
            "yes",
            if mean(&late) > mean(&early) {
                "yes"
            } else {
                "no"
            },
        );
    });
}
