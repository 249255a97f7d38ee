//! Figure 10 — overall HVAC performance of the afternoon trial.
//!
//! Reruns the §V-A experiment (13:00–14:45, targets 25 °C / 18 °C dew,
//! door openings at 14:05 for 15 s and 14:25 for 2 min) and reports the
//! paper's claims: per-subspace temperature and dew-point series, the
//! ~30-minute convergence, the subspace-1/2 localization of the short
//! door event, and the ~15-minute recovery from the long one.

use std::fs::File;
use std::io::{BufWriter, Write as _};

use bz_bench::{compare, header, output_dir, row};
use bz_core::metrics::{comfort_fraction, convergence_minutes, recovery_minutes};
use bz_core::scenario::{AfternoonTrial, TRIAL_START_HOUR};
use bz_simcore::{SimDuration, SimTime};
use bz_thermal::zone::SubspaceId;

fn main() {
    bz_bench::harness(|| {
        header("Fig. 10 — BubbleZERO afternoon trial (13:00-14:45)");
        let trial = AfternoonTrial::paper_setup();
        let outcome = trial.run();

        // Console series at the paper's plot resolution (5-minute ticks).
        header("Fig. 10(a)/(b) series (5-minute ticks)");
        println!(
            "  {:<9} {:>7} {:>7} {:>7} {:>7} {:>8} | {:>7} {:>7} {:>7} {:>7} {:>8}",
            "time", "T1", "T2", "T3", "T4", "T_out", "dew1", "dew2", "dew3", "dew4", "dew_out"
        );
        for minute in (0..=105).step_by(5) {
            let t = SimTime::from_mins(minute);
            let value = |name: &str| {
                outcome
                    .trace
                    .series(name)
                    .and_then(|s| s.value_at(t))
                    .unwrap_or(f64::NAN)
            };
            println!(
                "  {:<9} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>8.2} | {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>8.2}",
                t.as_clock_label(TRIAL_START_HOUR),
                value("Subsp1.temperature"),
                value("Subsp2.temperature"),
                value("Subsp3.temperature"),
                value("Subsp4.temperature"),
                value("outdoor.temperature"),
                value("Subsp1.dew_point"),
                value("Subsp2.dew_point"),
                value("Subsp3.dew_point"),
                value("Subsp4.dew_point"),
                value("outdoor.dew_point"),
            );
        }

        header("Paper claims vs measured");
        let dwell = SimDuration::from_mins(8);
        for id in SubspaceId::ALL {
            let temp = outcome
                .trace
                .series(&format!("{}.temperature", id.label()))
                .expect("recorded");
            let dew = outcome
                .trace
                .series(&format!("{}.dew_point", id.label()))
                .expect("recorded");
            // Tolerance matched to the steady-state hover amplitude (the
            // paper's own plotted traces wiggle roughly ±0.5 K).
            let t_conv = convergence_minutes(temp, 25.0, 0.8, dwell);
            let d_conv = convergence_minutes(dew, 18.0, 1.0, dwell);
            compare(
                &format!("{} temperature convergence (min)", id.label()),
                "~30",
                t_conv.map_or("never".into(), |m| format!("{m:.1}")),
            );
            compare(
                &format!("{} dew-point convergence (min)", id.label()),
                "~30",
                d_conv.map_or("never".into(), |m| format!("{m:.1}")),
            );
        }

        // Short door event at 14:05 (minute 65): localized to subspaces 1-2.
        let event1 = SimTime::from_mins(65);
        let window_end = event1 + SimDuration::from_mins(8);
        let bump = |name: &str| {
            let series = outcome.trace.series(name).expect("recorded");
            let before = series.value_at(event1).unwrap_or(f64::NAN);
            let peak = series
                .between(event1, window_end)
                .map(|s| s.value)
                .fold(f64::NEG_INFINITY, f64::max);
            peak - before
        };
        header("14:05 door opening (15 s) — dew bump by subspace");
        compare(
            "Subsp1 dew bump (K)",
            "~0.6",
            format!("{:.2}", bump("Subsp1.dew_point")),
        );
        compare(
            "Subsp2 dew bump (K)",
            "~0.6",
            format!("{:.2}", bump("Subsp2.dew_point")),
        );
        compare(
            "Subsp3 dew bump (K)",
            "small",
            format!("{:.2}", bump("Subsp3.dew_point")),
        );
        compare(
            "Subsp4 dew bump (K)",
            "small",
            format!("{:.2}", bump("Subsp4.dew_point")),
        );

        // Long door event at 14:25 (minute 85): all subspaces, ~15 min recovery.
        let event2 = SimTime::from_mins(85);
        header("14:25 door opening (2 min) — excursion and recovery");
        let window2 = event2 + SimDuration::from_mins(10);
        for id in SubspaceId::ALL {
            let dew = outcome
                .trace
                .series(&format!("{}.dew_point", id.label()))
                .expect("recorded");
            let before = dew.value_at(event2).unwrap_or(f64::NAN);
            let peak = dew
                .between(event2, window2)
                .map(|s| s.value)
                .fold(f64::NEG_INFINITY, f64::max);
            compare(
                &format!("{} dew excursion (K)", id.label()),
                "significant",
                format!("{:.2}", peak - before),
            );
            // Recovery band matched to the observed equilibrium scatter
            // (the dew point holds ~18.3-18.8 °C, see the hold metric above).
            let rec = recovery_minutes(dew, event2, 18.0, 1.2);
            compare(
                &format!("{} dew recovery (min)", id.label()),
                "~15",
                rec.map_or("never".into(), |m| format!("{m:.1}")),
            );
        }

        header("Equilibrium hold and safety");
        let hold_from = SimTime::from_mins(40);
        let hold_to = SimTime::from_mins(64);
        let temp1 = outcome
            .trace
            .series("Subsp1.temperature")
            .expect("recorded");
        let dew1 = outcome.trace.series("Subsp1.dew_point").expect("recorded");
        row(
            "Subsp1 temp within 25±0.8 °C, 13:40-14:04",
            format!(
                "{:.0}%",
                100.0 * comfort_fraction(temp1, hold_from, hold_to, 25.0, 0.8)
            ),
        );
        row(
            "Subsp1 dew within 18±1.0 °C, 13:40-14:04",
            format!(
                "{:.0}%",
                100.0 * comfort_fraction(dew1, hold_from, hold_to, 18.0, 1.0)
            ),
        );
        row(
            "panel condensate over the whole trial (kg)",
            format!("{:.6}", outcome.panel_condensate_kg),
        );
        row(
            "network delivery ratio",
            format!("{:.4}", outcome.channel.delivery_ratio()),
        );

        // CSV export.
        let dir = output_dir();
        let path = dir.join("fig10.csv");
        let names: Vec<String> = SubspaceId::ALL
            .iter()
            .flat_map(|id| {
                [
                    format!("{}.temperature", id.label()),
                    format!("{}.dew_point", id.label()),
                ]
            })
            .chain([
                "outdoor.temperature".to_owned(),
                "outdoor.dew_point".to_owned(),
            ])
            .collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut file = BufWriter::new(File::create(&path).expect("create csv"));
        outcome
            .trace
            .write_wide_csv(&name_refs, &mut file)
            .and_then(|()| file.flush())
            .expect("write csv");
        println!("\nseries written to {}", path.display());
    });
}
