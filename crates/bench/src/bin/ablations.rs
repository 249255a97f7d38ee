//! Ablations over the reproduction's design choices.
//!
//! Four sweeps, each isolating one knob that DESIGN.md calls out:
//!
//! 1. **Radiant dew margin** — safety headroom above the measured ceiling
//!    dew point vs condensation risk and cooling capacity.
//! 2. **Control period** — how often the modules decide vs convergence
//!    and stability.
//! 3. **BT-ADPT parameters** — sliding-window length and the
//!    stable-runs-to-double threshold vs traffic and detection delay.
//! 4. **AC schedule staggering** — contention-driven phase reshuffling vs
//!    naive aligned schedules.

use bz_bench::{header, row};
use bz_core::radiant::RadiantConfig;
use bz_core::scenario::NetworkTrial;
use bz_core::system::{BubbleZeroSystem, SystemConfig};
use bz_simcore::{Rng, SimDuration, SimTime};
use bz_thermal::disturbance::{DisturbanceSchedule, OpeningEvent, OpeningKind};
use bz_thermal::plant::PlantConfig;
use bz_thermal::zone::SubspaceId;
use bz_wsn::ac_schedule::AcScheduler;
use bz_wsn::adaptive::{AdaptiveConfig, BtAdaptive};
use bz_wsn::channel::{Network, NetworkConfig};
use bz_wsn::message::{DataType, Message, NodeId};

fn aggressive_disturbances() -> DisturbanceSchedule {
    DisturbanceSchedule::new(vec![
        OpeningEvent {
            at: SimTime::from_mins(35),
            duration: SimDuration::from_secs(120),
            kind: OpeningKind::Door,
        },
        OpeningEvent {
            at: SimTime::from_mins(55),
            duration: SimDuration::from_secs(180),
            kind: OpeningKind::Door,
        },
    ])
}

fn ablate_dew_margin() {
    header("Ablation 1 — radiant dew margin (safety vs capacity)");
    println!(
        "  {:>10} {:>16} {:>14} {:>12}",
        "margin K", "condensate mg", "mean rad W", "T end °C"
    );
    for margin in [0.0, 0.25, 0.5, 1.0, 2.0] {
        let config = SystemConfig {
            radiant: RadiantConfig {
                dew_margin_k: margin,
            },
            ..SystemConfig::paper_deployment(
                PlantConfig::bubble_zero_lab().with_disturbances(aggressive_disturbances()),
            )
        };
        let mut system = BubbleZeroSystem::new(config);
        let mut radiant_w = 0.0;
        let mut samples = 0u32;
        for minute in 0..75 {
            system.run_seconds(60);
            if minute >= 30 {
                radiant_w += system.plant().telemetry().radiant_heat_removed_w;
                samples += 1;
            }
        }
        println!(
            "  {margin:>10.2} {:>16.1} {:>14.0} {:>12.2}",
            system.plant().panel_condensate_total() * 1.0e6,
            radiant_w / f64::from(samples),
            system.plant().zone_temperature(SubspaceId::S1).get(),
        );
    }
    println!("  -> more margin = less condensation risk but less capacity headroom");
}

fn ablate_control_period() {
    header("Ablation 2 — control period (reactivity vs stability)");
    println!(
        "  {:>10} {:>12} {:>12} {:>16}",
        "period s", "T end °C", "dew end °C", "condensate mg"
    );
    for period in [1u64, 5, 15, 60] {
        let config = SystemConfig {
            control_period: SimDuration::from_secs(period),
            ..SystemConfig::paper_deployment(
                PlantConfig::bubble_zero_lab().with_disturbances(aggressive_disturbances()),
            )
        };
        let mut system = BubbleZeroSystem::new(config);
        system.run_seconds(75 * 60);
        println!(
            "  {period:>10} {:>12.2} {:>12.2} {:>16.1}",
            system.plant().zone_temperature(SubspaceId::S1).get(),
            system.plant().zone_dew_point(SubspaceId::S1).get(),
            system.plant().panel_condensate_total() * 1.0e6,
        );
    }
    println!("  -> the paper's 5 s cycle is comfortably inside the stable band");
}

/// Drives one BT-ADPT instance over a synthetic signal with five step
/// events and returns (mean send period s, mean detection delay s).
fn drive_adaptive(window_len: usize, stable_runs: u32) -> (f64, f64) {
    let mut config = AdaptiveConfig::with_sampling(SimDuration::from_secs(2));
    config.window_len = window_len;
    config.stable_runs_to_double = stable_runs;
    let mut scheduler = BtAdaptive::new(config);
    let mut rng = Rng::seed_from(0xAB1A);

    let total_samples = 9_000usize; // 5 hours at 2 s
    let event_every = 1_800; // every hour of samples
    let mut period_sum = 0.0;
    let mut period_count = 0u32;
    let mut delays = Vec::new();
    let mut pending_event: Option<SimTime> = None;
    for i in 0..total_samples {
        let now = SimTime::from_secs(2 * i as u64);
        let in_event = i % event_every >= 900 && i % event_every < 920;
        if i % event_every == 900 {
            pending_event = Some(now);
        }
        let value = if in_event {
            25.0 + 0.15 * f64::from((i % event_every - 900) as u32)
        } else {
            25.0 + rng.normal(0.0, 0.01)
        };
        let outcome = scheduler.on_sample(now, value);
        if let (Some(event_at), Some(bz_wsn::histogram::Stability::Transition)) =
            (pending_event, outcome.classified)
        {
            delays.push(now.since(event_at).as_secs_f64());
            pending_event = None;
        }
        period_sum += outcome.send_period.as_secs_f64();
        period_count += 1;
    }
    let mean_delay = if delays.is_empty() {
        f64::NAN
    } else {
        delays.iter().sum::<f64>() / delays.len() as f64
    };
    (period_sum / f64::from(period_count), mean_delay)
}

fn ablate_btadpt() {
    header("Ablation 3 — BT-ADPT window length / doubling threshold");
    println!(
        "  {:>8} {:>12} {:>16} {:>18}",
        "window", "stable_runs", "mean T_snd s", "detect delay s"
    );
    for (window, runs) in [(5, 10), (10, 5), (10, 10), (10, 20), (20, 10)] {
        let (mean_period, delay) = drive_adaptive(window, runs);
        println!("  {window:>8} {runs:>12} {mean_period:>16.1} {delay:>18.1}");
    }
    println!("  -> longer windows detect slower; fewer stable runs stretch faster");
}

fn ablate_ac_stagger() {
    header("Ablation 4 — AC schedule staggering (the §IV contention fix)");
    let run = |adaptive: bool| -> f64 {
        let config = NetworkConfig {
            residual_loss: 0.0,
            ..NetworkConfig::telosb()
        };
        let mut network = Network::new(config, Rng::seed_from(77));
        let mut seed = Rng::seed_from(78);
        let period = SimDuration::from_millis(250);
        let mut schedulers: Vec<AcScheduler> = (0..24)
            .map(|_| {
                let s = AcScheduler::new(period, seed.fork());
                if adaptive {
                    s
                } else {
                    s.non_adaptive()
                }
            })
            .collect();
        let mut next: Vec<SimTime> = schedulers
            .iter()
            .map(|s| s.next_fire(SimTime::ZERO))
            .collect();
        let horizon = SimTime::from_secs(90);
        let mut now = SimTime::ZERO;
        while now < horizon {
            for (i, sched) in schedulers.iter().enumerate() {
                if next[i] <= now {
                    let msg = Message::on_channel(
                        NodeId::new(i as u16),
                        DataType::FlowRate,
                        i as u16,
                        1.0,
                        now,
                    );
                    network.send(now, msg);
                    next[i] = sched.next_fire(now + SimDuration::from_millis(1));
                }
            }
            let _ = network.advance(now);
            for (msg, failure) in network.take_failures() {
                let idx = msg.source().get() as usize;
                schedulers[idx].report_failure(failure);
                next[idx] = schedulers[idx].next_fire(now + SimDuration::from_millis(1));
            }
            now += SimDuration::from_millis(1);
        }
        let _ = network.advance(horizon + SimDuration::from_secs(1));
        network.stats().delivery_ratio()
    };
    let naive = run(false);
    let adaptive = run(true);
    row("delivery ratio, aligned schedules", format!("{naive:.3}"));
    row(
        "delivery ratio, adaptive staggering",
        format!("{adaptive:.3}"),
    );
    row(
        "loss reduction",
        format!("{:.0}%", 100.0 * (1.0 - (1.0 - adaptive) / (1.0 - naive))),
    );
}

fn ablate_duration_sanity() {
    // Guard against silent coverage loss: the networking trial must cover
    // its full five hours with events throughout.
    let outcome = NetworkTrial::paper_setup()
        .with_duration(SimDuration::from_mins(30))
        .run();
    row(
        "sanity: 30-min trial decisions",
        format!("{}", outcome.decisions.len()),
    );
}

fn main() {
    bz_bench::harness(|| {
        ablate_dew_margin();
        ablate_control_period();
        ablate_btadpt();
        ablate_ac_stagger();
        header("sanity");
        ablate_duration_sanity();
    });
}
