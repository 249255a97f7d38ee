//! Figure 14 — T_snd adaptation of one battery device across door events.
//!
//! Zooms in on the busiest temperature stream over a two-hour snapshot of
//! the networking trial: the send period sits at 64 s (2 s sampling ×
//! w = 32) while the room is stable, snaps to 2 s when a door opens, and
//! the detection delay stays within a few seconds.

use std::fs::File;
use std::io::{BufWriter, Write as _};

use bz_bench::{compare, header, output_dir, row};
use bz_core::scenario::NetworkTrial;
use bz_simcore::SimDuration;
use bz_wsn::message::DataType;

fn main() {
    bz_bench::harness(|| {
        header("Fig. 14 — send-period adaptation across door events");
        println!("  running the 5-hour networking trial once...");
        let outcome = NetworkTrial::paper_setup().run();
        let stream = outcome
            .s1_temperature_stream
            .or_else(|| outcome.busiest_stream(DataType::Temperature))
            .expect("temperature stream");
        row("zoomed stream (subspace 1 room temperature)", stream);
        row("scripted events (door)", outcome.door_events.len());

        // The paper plots a 2-hour snapshot covering five events.
        let snapshot_end = SimDuration::from_hours(2);
        header("snapshot series (send period + room dew point)");
        let path = output_dir().join("fig14.csv");
        let mut file = BufWriter::new(File::create(&path).expect("create csv"));
        writeln!(file, "time_s,send_period_s,dew_point_c").expect("write");
        let dew = outcome
            .dew_trace
            .series("Subsp1.dew_point")
            .expect("recorded");
        let mut last_printed = -600.0;
        for d in outcome
            .decisions
            .iter()
            .filter(|d| d.stream == stream)
            .filter(|d| d.at.as_millis() <= snapshot_end.as_millis())
        {
            let t = d.at.as_secs_f64();
            let dew_now = dew.value_at(d.at).unwrap_or(f64::NAN);
            writeln!(
                file,
                "{t:.0},{:.0},{dew_now:.3}",
                d.send_period.as_secs_f64()
            )
            .expect("write");
            // Console: print ~every 5 minutes plus every period change.
            if t - last_printed >= 300.0 {
                println!(
                    "  t={t:>7.0}s  T_snd={:>4.0}s  dew={dew_now:.2}°C",
                    d.send_period.as_secs_f64()
                );
                last_printed = t;
            }
        }
        file.flush().expect("write");
        println!("  series written to {}", path.display());

        header("Paper claims vs measured");
        let periods: Vec<f64> = outcome
            .decisions
            .iter()
            .filter(|d| d.stream == stream)
            .map(|d| d.send_period.as_secs_f64())
            .collect();
        let max_period = periods.iter().cloned().fold(0.0, f64::max);
        let min_period = periods.iter().cloned().fold(f64::INFINITY, f64::min);
        compare("stable send period (s)", "64", format!("{max_period:.0}"));
        compare("event send period (s)", "2", format!("{min_period:.0}"));

        let delays: Vec<Option<f64>> =
            outcome.door_detection_delays_s(stream, SimDuration::from_mins(3));
        let detected: Vec<f64> = delays.iter().flatten().copied().collect();
        let detected_count = detected.len();
        row(
            "events detected by this stream",
            format!("{detected_count}/{}", delays.len()),
        );
        if !detected.is_empty() {
            let avg = detected.iter().sum::<f64>() / detected.len() as f64;
            let max = detected.iter().cloned().fold(0.0, f64::max);
            compare("average detection delay (s)", "2.7", format!("{avg:.1}"));
            compare("maximum detection delay (s)", "4", format!("{max:.1}"));
        }
    });
}
