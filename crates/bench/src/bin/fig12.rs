//! Figure 12 — choosing the histogram size N.
//!
//! Runs the 5-hour §V-C networking trial once, then replays the logged
//! variance streams through histograms of every size N, comparing each
//! decision against the exact-clustering oracle: (a) accuracy vs N,
//! (b) RAM bytes vs N on the MSP430, (c) CPU time vs N for one
//! Algorithm 1 pass.

use std::fs::File;
use std::io::{BufWriter, Write as _};

use bz_bench::{compare, header, output_dir};
use bz_core::scenario::{NetworkTrial, VarianceReplay};
use bz_wsn::platform::{clustering_time_ms, histogram_ram_bytes};

fn main() {
    bz_bench::harness(|| {
        header("Fig. 12 — histogram size N: accuracy / RAM / CPU");
        println!("  running the 5-hour networking trial once...");
        let outcome = NetworkTrial::paper_setup().run();
        println!(
            "  {} decisions across {} streams, {} scripted events",
            outcome.decisions.len(),
            outcome.stream_types.len(),
            outcome.events.len()
        );
        let replay =
            VarianceReplay::from_decisions(&outcome.decisions, outcome.stream_types.len(), 100);

        header("sweep");
        println!(
            "  {:>4} {:>14} {:>12} {:>14}",
            "N", "accuracy (%)", "RAM (bytes)", "CPU time (ms)"
        );
        let path = output_dir().join("fig12.csv");
        let mut file = BufWriter::new(File::create(&path).expect("create csv"));
        writeln!(file, "n,accuracy,ram_bytes,cpu_ms").expect("write");
        let mut acc_40 = 0.0;
        let mut acc_70 = 0.0;
        for n in (5..=70).step_by(5) {
            let accuracy = replay.accuracy_for_histogram_size(n);
            let ram = histogram_ram_bytes(n);
            let cpu = clustering_time_ms(n);
            if n == 40 {
                acc_40 = accuracy;
            }
            if n == 70 {
                acc_70 = accuracy;
            }
            println!("  {n:>4} {:>14.1} {ram:>12} {cpu:>14.0}", accuracy * 100.0);
            writeln!(file, "{n},{accuracy:.6},{ram},{cpu:.3}").expect("write");
        }
        file.flush().expect("write");
        println!("  sweep written to {}", path.display());

        header("Paper claims vs measured");
        compare(
            "accuracy at large N (%)",
            "~98",
            format!("{:.1}", acc_70 * 100.0),
        );
        compare(
            "accuracy at default N=40 (%)",
            "high-90s",
            format!("{:.1}", acc_40 * 100.0),
        );
        compare("RAM at N=60 (bytes)", "130", histogram_ram_bytes(60));
        compare(
            "CPU time at N=60 (ms)",
            "1600",
            format!("{:.0}", clustering_time_ms(60)),
        );
    });
}
