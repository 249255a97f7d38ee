//! `bzctl` subcommand implementations.

use std::fs::File;

use bz_core::baseline::{AirConConfig, AirConSystem};
use bz_core::chaos::ChaosScenario;
use bz_core::metrics::CopSummary;
use bz_core::scenario::{NetworkTrial, TRIAL_START_HOUR};
use bz_core::session::Session;
use bz_core::system::{BtMode, BubbleZeroSystem, SystemConfig};
use bz_psychro::{Celsius, Ppm};
use bz_simcore::{SimDuration, TraceRecorder};
use bz_thermal::comfort::{pmv, ppd, ComfortInputs};
use bz_thermal::disturbance::DisturbanceSchedule;
use bz_thermal::plant::PlantConfig;
use bz_thermal::zone::SubspaceId;
use bz_wsn::message::{DataType, NodeId};
use bz_wsn::multihop::MultihopNetwork;

use bz_bench::sweep;

use crate::args::{ArgError, Args};
use crate::checkpoint::{CheckpointOpts, RunCheckpoints};

/// Top-level usage text.
pub const USAGE: &str = "\
bzctl — drive the BubbleZERO reproduction from the shell

USAGE:
    bzctl <command> [flags]

COMMANDS:
    trial      run the closed-loop afternoon trial
                 --minutes N (105)  --seed S  --csv PATH  --quiet
                 --metrics-out PATH  [checkpoint flags]
    cop        steady-state COP comparison vs the AirCon baseline
                 --settle-mins N (40)  --meter-mins N (20)
                 --metrics-out PATH
    network    run the wireless networking trial
                 --minutes N (300)  --fixed  --metrics-out PATH
    comfort    PMV/PPD report for a room condition
                 --temp T (25)  --dew D (18)  --panel P (22)
    multihop   building-scale multicast planning
                 --wings N (3)  --range M (20)
    sniff      run with a sniffer attached and dump the capture
                 --minutes N (10)  --csv PATH  --metrics-out PATH
    endurance  long continuous run with periodic events
                 --days N (1)  --metrics-out PATH  --stream
                 [checkpoint flags]
    sweep      parallel batch of independent scenario runs
                 --scenario trial|network|endurance (trial)
                 --runs N (4)  --seed-base S  --minutes N (5)
                 --grid \"key=v1,v2;key2=v3\"  --jobs N (1)
                 --out-dir DIR  --metrics-out PATH  --quiet
                 [checkpoint flags]  (--checkpoint-every 60 by default)
                 grid keys: dew-margin-k control-period-s ac-period-s
                 residual-loss bt-fixed occupancy-rate weather-seed
                 strategy
    bench      wall-clock performance measurements
                 throughput  --minutes N (1920)  --seed S
                 --json-out PATH (BENCH_0009.json)  --baseline F
                 --check --min-sim-per-wall F
                 (BZ_NOISE=v1|v2 picks the noise kernel)
    chaos      full-stack fault-injection run with a resilience report
                 --scenario PATH (bundled)  --minutes N  --seed S
                 --metrics-out PATH  [checkpoint flags]
    mpc        occupancy-aware model-predictive control (bz-predict)
                 --scenario PATH (bundled office)  --minutes N  --seed S
                 --horizon N (15)  --compare  --jobs N (1)
                 --metrics-out PATH  --quiet
                 [checkpoint flags]
    serve      multi-tenant control-plane service (docs/SERVE.md)
                 --addr A (127.0.0.1:7033)  --threads N (8)
                 --max-inflight N (4)  --checkpoint-dir DIR  --quiet
                 SIGINT/SIGTERM or POST /admin/shutdown drains and
                 checkpoints every tenant before exiting
    loadgen    closed-loop load test against a running serve
                 --addr A (127.0.0.1:7033)  --tenants N (1000)
                 --connections N (16)  --minutes N (2)  --seed-base S
                 --step-minutes N (1)  --json-out PATH (BENCH_0010.json)
                 --check --min-rps F --max-p99-ms F
                 --mirror --seed S --minutes N --metrics-out PATH
                   (drive ONE tenant over the wire and download its
                    JSONL export for byte-comparison against trial)
    checkpoint  inspect snapshot files or directories
                 inspect PATH  (file or --checkpoint-dir directory)
    help       print this text

checkpoint flags (see docs/CHECKPOINTS.md):
    --checkpoint-dir DIR     where crash-safe snapshots live
    --checkpoint-every SECS  simulated seconds between snapshots
    --resume                 restore from the newest good snapshot
    --crash-at SECS          deterministic crash injection (testing)
A resumed run continues bit-identically: its exports are byte-identical
to the same run never having been interrupted. Corrupt or torn snapshot
files are reported, skipped, and the newest good one used instead.

`--metrics-out PATH` enables the bz-obs telemetry layer for the run and
writes the collected metrics to PATH — JSONL by default, CSV when PATH
ends in `.csv` (see docs/OBSERVABILITY.md). The export is deterministic:
two runs with the same seed produce byte-identical files.

`endurance --stream` writes metric events through to `--metrics-out` as
they happen instead of buffering them.

`sweep` executes every run against an isolated metrics registry on a
work-stealing thread pool; `--out-dir` writes one `run-NNN.jsonl` per
run and `--metrics-out` writes the merged report. Per-run files are
byte-identical for any `--jobs` value. With `--checkpoint-dir` each run
keeps its snapshots in `run-NNN/`: `--crash-at` fails every run at that
simulated time and `--resume` finishes them. `mpc --compare` likewise runs
both strategies against isolated registries, so its exports are
byte-identical for any `--jobs` value.
";

/// Runs a subcommand; returns the text to print or a usage error.
///
/// # Errors
///
/// Returns an error for unknown commands, unknown flags, or unparsable
/// flag values.
pub fn run(command: &str, raw: Vec<String>) -> Result<String, ArgError> {
    if command == "bench" {
        return bench(raw);
    }
    if command == "checkpoint" {
        return checkpoint_inspect(raw);
    }
    let args = Args::parse(raw)?;
    match command {
        "trial" => trial(&args),
        "cop" => cop(&args),
        "network" => network(&args),
        "comfort" => comfort(&args),
        "multihop" => multihop(&args),
        "sniff" => sniff(&args),
        "endurance" => endurance(&args),
        "sweep" => sweep(&args),
        "chaos" => chaos(&args),
        "mpc" => mpc(&args),
        "serve" => serve(&args),
        "loadgen" => loadgen(&args),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(ArgError::new(format!(
            "unknown command '{other}'\n\n{USAGE}"
        ))),
    }
}

/// Turns telemetry on (cleared) when `--metrics-out` was given and
/// returns its path (JSONL, or CSV when it ends in `.csv`).
///
/// # Errors
///
/// Returns an error if the flag is present without a path, so a
/// truncated invocation cannot silently skip the export.
fn metrics_begin(args: &Args) -> Result<Option<String>, ArgError> {
    let path = args.get("metrics-out")?.map(str::to_owned);
    if path.is_some() {
        let obs = bz_obs::Handle::global();
        obs.enable();
        obs.reset();
    }
    Ok(path)
}

/// Disables telemetry and writes the metric export to `path` (CSV when
/// the path ends in `.csv`, JSONL otherwise; skipped when `streamed` —
/// the bytes are already on disk and only the totals tail is flushed).
/// Appends the summary table to `out`.
fn metrics_finish(path: Option<&str>, streamed: bool, out: &mut String) -> Result<(), ArgError> {
    let Some(path) = path else {
        return Ok(());
    };
    let obs = bz_obs::Handle::global();
    obs.disable();
    if streamed {
        obs.finish_stream()
            .map_err(|e| ArgError::new(format!("cannot finish stream to {path}: {e}")))?;
        *out += &format!("\nmetrics streamed to {path}\n{}", obs.summary_table());
    } else {
        let file =
            File::create(path).map_err(|e| ArgError::new(format!("cannot create {path}: {e}")))?;
        let written = if path.ends_with(".csv") {
            obs.write_csv(file)
        } else {
            obs.write_jsonl(file)
        };
        written.map_err(|e| ArgError::new(format!("cannot write {path}: {e}")))?;
        *out += &format!("\nmetrics written to {path}\n{}", obs.summary_table());
    }
    Ok(())
}

/// Runs `run` to its end: first resumes it from the newest good
/// checkpoint when `--resume` asked for one, then steps it a minute at a
/// time, writing each due snapshot and firing `--crash-at` after every
/// minute. Resume notes are appended to `out`.
fn drive(
    run: &mut dyn Session,
    checkpoints: &mut RunCheckpoints,
    out: &mut String,
) -> Result<(), ArgError> {
    checkpoints.resume(out, |r| run.load_state(r))?;
    while !run.is_done() {
        run.step_minute();
        checkpoints.after_step(run.now_ms(), |w| run.save_state(w))?;
    }
    Ok(())
}

/// Splices the shared checkpoint flag family into a command's known
/// flags before the `expect_only` typo check.
fn expect_only_with_checkpoints(args: &Args, base: &[&str]) -> Result<(), ArgError> {
    let mut known: Vec<&str> = base.to_vec();
    known.extend_from_slice(crate::checkpoint::FLAGS);
    args.expect_only(&known)
}

fn trial(args: &Args) -> Result<String, ArgError> {
    expect_only_with_checkpoints(args, &["minutes", "seed", "csv", "quiet", "metrics-out"])?;
    let minutes: u64 = args.get_or("minutes", 105)?;
    let seed: u64 = args.get_or("seed", 0x5EED_0001)?;
    let quiet = args.flag("quiet");
    let csv = args.get("csv")?;
    let opts = CheckpointOpts::from_args(args)?;
    let mut checkpoints = opts.session("trial", &format!("trial seed={seed} minutes={minutes}"))?;
    let metrics = metrics_begin(args)?;

    let spec = sweep::RunSpec {
        index: 0,
        scenario: sweep::Scenario::Trial,
        seed,
        minutes,
        params: Vec::new(),
    };
    let mut system = sweep::build_system(&spec, bz_obs::Handle::global()).map_err(ArgError::new)?;
    let mut trace = TraceRecorder::new();
    let mut out = String::new();
    let resumed = checkpoints.resume(&mut out, |r| {
        system.load_state(r)?;
        trace = bz_state::Persist::load(r)?;
        Ok(())
    })?;
    let start_minute = resumed.map_or(0, |tick_ms| tick_ms / 60_000);
    for minute in start_minute + 1..=minutes {
        system.run_seconds(60);
        // Per-minute counter samples give the export trajectories, not
        // just end-of-run totals.
        system.obs().record_counters(system.now().as_millis());
        let plant = system.plant();
        for id in SubspaceId::ALL {
            trace.record(
                &format!("{}.temperature", id.label()),
                system.now(),
                plant.zone_temperature(id).get(),
            );
            trace.record(
                &format!("{}.dew_point", id.label()),
                system.now(),
                plant.zone_dew_point(id).get(),
            );
        }
        if !quiet && minute % 10 == 0 {
            out += &format!(
                "{}  T1={:.2} °C  dew1={:.2} °C  radiant={:.0} W  vent={:.0} W\n",
                system.now().as_clock_label(TRIAL_START_HOUR),
                plant.zone_temperature(SubspaceId::S1).get(),
                plant.zone_dew_point(SubspaceId::S1).get(),
                plant.telemetry().radiant_heat_removed_w,
                plant.telemetry().vent_heat_removed_w,
            );
        }
        checkpoints.after_step(system.now().as_millis(), |w| {
            system.save_state(w);
            bz_state::Persist::save(&trace, w);
        })?;
    }
    let plant = system.plant();
    out += &format!(
        "\nfinal: T1 {:.2} °C, dew1 {:.2} °C, condensate {:.6} kg, delivery {:.1}%\n",
        plant.zone_temperature(SubspaceId::S1).get(),
        plant.zone_dew_point(SubspaceId::S1).get(),
        plant.panel_condensate_total(),
        100.0 * system.network().stats().delivery_ratio(),
    );
    if let Some(path) = csv {
        let names: Vec<String> = SubspaceId::ALL
            .iter()
            .flat_map(|id| {
                [
                    format!("{}.temperature", id.label()),
                    format!("{}.dew_point", id.label()),
                ]
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let file =
            File::create(path).map_err(|e| ArgError::new(format!("cannot create {path}: {e}")))?;
        trace
            .write_wide_csv(&refs, file)
            .map_err(|e| ArgError::new(format!("cannot write {path}: {e}")))?;
        out += &format!("series written to {path}\n");
    }
    metrics_finish(metrics.as_deref(), false, &mut out)?;
    Ok(out)
}

fn cop(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["settle-mins", "meter-mins", "metrics-out"])?;
    let settle: u64 = args.get_or("settle-mins", 40)?;
    let meter: u64 = args.get_or("meter-mins", 20)?;
    let metrics = metrics_begin(args)?;

    let mut system = BubbleZeroSystem::new(SystemConfig::paper_deployment(
        PlantConfig::bubble_zero_lab(),
    ));
    system.run_seconds(settle * 60);
    system.plant_mut_reset_meters();
    system.obs().record_counters(system.now().as_millis());
    system.run_seconds(meter * 60);
    system.obs().record_counters(system.now().as_millis());
    let summary = CopSummary::from_meters(system.plant().meters());

    let mut aircon = AirConSystem::new(AirConConfig::for_bubble_zero_lab());
    aircon.run_seconds(settle * 60);
    aircon.reset_meters();
    aircon.run_seconds(meter * 60);
    let aircon_cop = aircon.measured_cop().unwrap_or(f64::NAN);

    let mut out = format!(
        "COP over a {meter}-minute window after {settle} minutes of settling:\n\
         \n\
         AirCon (all-air baseline)   {aircon_cop:>6.2}\n\
         Bubble-C (radiant)          {:>6.2}\n\
         Bubble-V (ventilation)      {:>6.2}\n\
         BubbleZERO (overall)        {:>6.2}\n\
         improvement over AirCon     {:>6.1}%\n",
        summary.cop_radiant(),
        summary.cop_ventilation(),
        summary.cop_overall(),
        100.0 * summary.improvement_over(aircon_cop),
    );
    metrics_finish(metrics.as_deref(), false, &mut out)?;
    Ok(out)
}

fn network(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["minutes", "fixed", "metrics-out"])?;
    let minutes: u64 = args.get_or("minutes", 300)?;
    let mode = if args.flag("fixed") {
        BtMode::Fixed
    } else {
        BtMode::Adaptive
    };
    let metrics = metrics_begin(args)?;
    let outcome = NetworkTrial::with_mode(mode)
        .with_duration(SimDuration::from_mins(minutes))
        .run();
    bz_obs::Handle::global().record_counters(SimDuration::from_mins(minutes).as_millis());
    let tx: u64 = outcome.reports.iter().map(|r| r.transmissions).sum();
    let samples: u64 = outcome.reports.iter().map(|r| r.samples).sum();
    let lifetimes: Vec<f64> = outcome
        .reports
        .iter()
        .filter_map(|r| r.lifetime_years)
        .collect();
    let mean_life = lifetimes.iter().sum::<f64>() / lifetimes.len().max(1) as f64;
    let mut out = format!(
        "{minutes}-minute networking trial ({mode:?} battery mode):\n\
         packets {tx} of {samples} samples, delivery {:.1}%, mean MAC delay {:.1} ms\n\
         mean projected device lifetime {mean_life:.2} years\n",
        100.0 * outcome.channel.delivery_ratio(),
        outcome.channel.mean_delay_ms(),
    );
    if mode == BtMode::Adaptive {
        let periods = outcome.send_periods_s(DataType::Temperature);
        if !periods.is_empty() {
            let mean = periods.iter().sum::<f64>() / periods.len() as f64;
            out += &format!("mean temperature send period {mean:.1} s\n");
        }
    }
    metrics_finish(metrics.as_deref(), false, &mut out)?;
    Ok(out)
}

fn comfort(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["temp", "dew", "panel"])?;
    let temp: f64 = args.get_or("temp", 25.0)?;
    let dew: f64 = args.get_or("dew", 18.0)?;
    let panel: f64 = args.get_or("panel", 22.0)?;
    if dew >= temp {
        return Err(ArgError::new(format!(
            "--dew {dew} must be below --temp {temp}"
        )));
    }

    let zone = bz_thermal::zone::AirState::from_dew_point(
        Celsius::new(temp),
        Celsius::new(dew),
        Ppm::new(600.0),
    );
    let radiant = ComfortInputs::for_radiant_zone(zone, Celsius::new(panel), 0.25);
    let all_air = ComfortInputs::tropical_office(
        zone.temperature,
        zone.temperature,
        zone.relative_humidity(),
    );
    let vote_radiant = pmv(&radiant);
    let vote_all_air = pmv(&all_air);
    Ok(format!(
        "comfort at {temp} °C / {dew} °C dew (panel surface {panel} °C):\n\
         radiant ceiling:  PMV {vote_radiant:+.2}  PPD {:.1}%\n\
         all-air (no MRT benefit): PMV {vote_all_air:+.2}  PPD {:.1}%\n\
         radiant advantage: {:.2} PMV\n",
        ppd(vote_radiant),
        ppd(vote_all_air),
        vote_all_air - vote_radiant,
    ))
}

fn multihop(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["wings", "range"])?;
    let wings: u16 = args.get_or("wings", 3)?;
    let range: f64 = args.get_or("range", 20.0)?;
    if wings == 0 || range <= 0.0 {
        return Err(ArgError::new("--wings and --range must be positive"));
    }

    let mut net = MultihopNetwork::new(range);
    let mut id = 0u16;
    let mut controllers = Vec::new();
    for wing in 0..wings {
        for row in 0..3u16 {
            for col in 0..4u16 {
                let node = NodeId::new(id);
                net.place(
                    node,
                    f64::from(col) * 12.0,
                    f64::from(wing) * 40.0 + f64::from(row) * 12.0,
                );
                if row == 1 && col == 2 {
                    controllers.push(node);
                }
                id += 1;
            }
        }
    }
    for &controller in &controllers {
        net.subscribe(controller, DataType::Temperature);
    }
    let source = NodeId::new(0);
    let multicast = net
        .multicast(source, DataType::Temperature)
        .expect("source placed");
    let (flood_tx, radius) = net.flood(source).expect("source placed");
    Ok(format!(
        "{} motes across {wings} wings, connected = {}\n\
         multicast from the corner: {} transmissions, {} max hops, {} reached, {} unreachable\n\
         flooding baseline: {flood_tx} transmissions, network radius {radius}\n",
        net.len(),
        net.is_connected(),
        multicast.transmissions,
        multicast.max_hops,
        multicast.reached.len(),
        multicast.unreachable.len(),
    ))
}

fn sniff(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["minutes", "csv", "metrics-out"])?;
    let minutes: u64 = args.get_or("minutes", 10)?;
    let csv = args.get("csv")?;
    let metrics = metrics_begin(args)?;
    let config = SystemConfig {
        enable_sniffer: true,
        ..SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab())
    };
    let mut system = BubbleZeroSystem::new(config);
    for _ in 0..minutes {
        system.run_seconds(60);
        system.obs().record_counters(system.now().as_millis());
    }
    let sniffer = system.sniffer().expect("sniffer enabled");

    let mut out = format!(
        "sniffer capture over {minutes} minutes: {} packets, mean MAC delay {:.1} ms

traffic by type:
",
        sniffer.len(),
        sniffer.mean_delay_ms().unwrap_or(0.0),
    );
    let mut traffic: Vec<_> = sniffer.traffic_by_type().into_iter().collect();
    traffic.sort_by_key(|(_, count)| std::cmp::Reverse(*count));
    for (data_type, count) in traffic {
        out += &format!(
            "  {data_type:<22} {count}
"
        );
    }
    let summaries = sniffer.stream_summaries();
    out += &format!(
        "
{} distinct streams captured
",
        summaries.len()
    );

    if let Some(path) = csv {
        let file =
            File::create(path).map_err(|e| ArgError::new(format!("cannot create {path}: {e}")))?;
        sniffer
            .write_csv(file)
            .map_err(|e| ArgError::new(format!("cannot write {path}: {e}")))?;
        out += &format!(
            "capture written to {path}
"
        );
    }
    metrics_finish(metrics.as_deref(), false, &mut out)?;
    Ok(out)
}

fn endurance(args: &Args) -> Result<String, ArgError> {
    expect_only_with_checkpoints(args, &["days", "metrics-out", "stream"])?;
    let days: u64 = args.get_or("days", 1)?;
    if days == 0 || days > 30 {
        return Err(ArgError::new("--days must be between 1 and 30"));
    }
    let opts = CheckpointOpts::from_args(args)?;
    if opts.active() && args.flag("stream") {
        // Streamed metrics bypass the in-memory registry, so there is no
        // registry state to snapshot — the two modes are exclusive.
        return Err(ArgError::new(
            "--stream cannot be combined with checkpointing flags",
        ));
    }
    let mut checkpoints = opts.session("endurance", &format!("endurance days={days}"))?;
    let metrics = metrics_begin(args)?;
    let stream = args.flag("stream");
    if stream {
        let Some(path) = &metrics else {
            return Err(ArgError::new("--stream needs --metrics-out PATH"));
        };
        if path.ends_with(".csv") {
            return Err(ArgError::new(
                "--stream writes JSONL; --metrics-out must not end in .csv",
            ));
        }
        let file =
            File::create(path).map_err(|e| ArgError::new(format!("cannot create {path}: {e}")))?;
        bz_obs::Handle::global().stream_to(Box::new(file));
    }
    let duration = SimDuration::from_hours(days * 24);
    let mut rng = bz_simcore::Rng::seed_from(0x7DA7);
    let plant = PlantConfig::bubble_zero_lab()
        .with_disturbances(DisturbanceSchedule::periodic_events(duration, &mut rng));
    let mut system = BubbleZeroSystem::new(SystemConfig::paper_deployment(plant));
    let mut out = String::new();
    let resumed = checkpoints.resume(&mut out, |r| system.load_state(r))?;
    let start_day = resumed.map_or(0, |tick_ms| tick_ms / (24 * 3_600_000));
    for day in start_day + 1..=days {
        system.run_seconds(24 * 3_600);
        system.obs().record_counters(system.now().as_millis());
        out += &format!(
            "day {day}: T1 {:.2} °C, dew1 {:.2} °C, condensate {:.4} kg
",
            system.plant().zone_temperature(SubspaceId::S1).get(),
            system.plant().zone_dew_point(SubspaceId::S1).get(),
            system.plant().panel_condensate_total(),
        );
        checkpoints.after_step(system.now().as_millis(), |w| system.save_state(w))?;
    }
    let reports = system.bt_device_reports();
    let mean_life =
        reports.iter().filter_map(|r| r.lifetime_years).sum::<f64>() / reports.len().max(1) as f64;
    out += &format!(
        "
after {days} day(s): delivery {:.1}%, mean projected device lifetime {mean_life:.2} years
",
        100.0 * system.network().stats().delivery_ratio(),
    );
    metrics_finish(metrics.as_deref(), stream, &mut out)?;
    Ok(out)
}

/// Parallel batch of independent scenario runs with per-run metric
/// isolation. `--out-dir` writes one `run-NNN.jsonl` metrics file per
/// run; `--metrics-out` writes the merged report (CSV when the path ends
/// in `.csv`, JSONL otherwise). Because every run records into its own
/// isolated registry and the merge is keyed by run index, the outputs
/// are byte-identical for any `--jobs` value.
fn sweep(args: &Args) -> Result<String, ArgError> {
    expect_only_with_checkpoints(
        args,
        &[
            "scenario",
            "runs",
            "seed-base",
            "minutes",
            "grid",
            "jobs",
            "out-dir",
            "metrics-out",
            "quiet",
        ],
    )?;
    let scenario =
        sweep::Scenario::parse(args.get("scenario")?.unwrap_or("trial")).map_err(ArgError::new)?;
    let runs: u64 = args.get_or("runs", 4)?;
    if runs == 0 {
        return Err(ArgError::new("--runs must be positive"));
    }
    let seed_base: u64 = args.get_or("seed-base", 0x5EED_0001)?;
    let minutes: u64 = args.get_or("minutes", 5)?;
    if minutes == 0 {
        return Err(ArgError::new("--minutes must be positive"));
    }
    let jobs: usize = args.get_or("jobs", 1)?;
    if jobs == 0 {
        return Err(ArgError::new("--jobs must be positive"));
    }
    let quiet = args.flag("quiet");
    let grid = sweep::parse_grid(args.get("grid")?.unwrap_or("")).map_err(ArgError::new)?;
    let report_path = args.get("metrics-out")?;
    let out_dir = args.get("out-dir")?;
    let mut opts = CheckpointOpts::from_args(args)?;
    // Sweep runs are short: snapshot every simulated minute by default.
    opts.policy.every_s.get_or_insert(60);

    let spec = sweep::SweepSpec {
        scenario,
        seeds: (0..runs).map(|i| seed_base + i).collect(),
        minutes,
        grid,
    };
    let run_specs = spec.expand();
    let checkpoints = opts.dir.as_deref().map(|root| (root, opts.policy));
    let outcomes = sweep::execute_resumable(&run_specs, jobs, checkpoints);
    let (mut results, mut failed) = (Vec::new(), String::new());
    let (mut resumed, mut stepped) = (0, 0);
    for (run, outcome) in run_specs.iter().zip(outcomes) {
        match outcome {
            Ok((result, start_minute)) => {
                resumed += usize::from(start_minute > 0);
                stepped += minutes.saturating_sub(start_minute);
                results.push(result);
            }
            Err(e) => failed += &format!("\n  run {} ({}): {e}", run.index, run.label()),
        }
    }
    if !failed.is_empty() {
        return Err(ArgError::new(format!(
            "{} of {} run(s) failed:{failed}",
            run_specs.len() - results.len(),
            run_specs.len(),
        )));
    }

    let mut out = format!(
        "sweep: {} run(s) of {} minute(s) each ({} scenario, {} job(s))\n",
        results.len(),
        minutes,
        scenario.name(),
        jobs,
    );
    if opts.active() {
        out += &format!(
            "crash-safety: {resumed} of {} run(s) resumed, \
             {stepped} of {} simulated minute(s) stepped\n",
            results.len(),
            minutes * results.len() as u64,
        );
    }
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| ArgError::new(format!("cannot create {dir}: {e}")))?;
        for result in &results {
            let path = format!("{dir}/run-{:03}.jsonl", result.index);
            std::fs::write(&path, &result.metrics_jsonl)
                .map_err(|e| ArgError::new(format!("cannot write {path}: {e}")))?;
        }
        out += &format!("per-run metrics written to {dir}/run-NNN.jsonl\n");
    }
    if let Some(path) = report_path {
        let report = if path.ends_with(".csv") {
            sweep::report_csv(&results)
        } else {
            sweep::report_jsonl(&results)
        };
        std::fs::write(path, report)
            .map_err(|e| ArgError::new(format!("cannot write {path}: {e}")))?;
        out += &format!("merged report written to {path}\n");
    }
    if !quiet {
        out += "\n";
        out += &sweep::summary_table(&results);
    }
    Ok(out)
}

/// `bzctl bench <name>`: wall-clock performance measurements. The only
/// bench so far is `throughput`, which runs the bundled trial scenario
/// with telemetry off, reports sim-seconds per wall-second, and writes
/// the `BENCH_*.json` record CI gates on (see docs/PERFORMANCE.md).
/// `BZ_NOISE` picks the noise kernel, as for every other command.
fn bench(raw: Vec<String>) -> Result<String, ArgError> {
    let mut raw = raw;
    let which = if raw.first().is_some_and(|t| !t.starts_with("--")) {
        raw.remove(0)
    } else {
        return Err(ArgError::new(
            "usage: bzctl bench throughput [--minutes N] [--seed S] \
             [--json-out PATH] [--baseline F] [--check --min-sim-per-wall F]",
        ));
    };
    if which != "throughput" {
        return Err(ArgError::new(format!(
            "unknown bench '{which}' (expected: throughput)"
        )));
    }
    let args = Args::parse(raw)?;
    args.expect_only(&[
        "minutes",
        "seed",
        "json-out",
        "baseline",
        "check",
        "min-sim-per-wall",
    ])?;
    let minutes: u64 = args.get_or("minutes", bz_bench::throughput::DEFAULT_SIM_MINUTES)?;
    if minutes == 0 {
        return Err(ArgError::new("--minutes must be positive"));
    }
    let seed: u64 = args.get_or("seed", bz_bench::throughput::DEFAULT_SEED)?;
    let baseline: f64 = args.get_or("baseline", f64::NAN)?;
    let baseline = (!baseline.is_nan()).then_some(baseline);
    let json_out = args.get("json-out")?.unwrap_or("BENCH_0009.json");
    let check = args.flag("check");
    let floor: f64 = args.get_or("min-sim-per-wall", 0.0)?;
    if check && floor <= 0.0 {
        return Err(ArgError::new("--check needs --min-sim-per-wall FLOOR"));
    }

    let report = bz_bench::throughput::measure_trial(minutes, seed);
    let mut out = report.summary_line();
    out += "\n";
    if let Some(base) = baseline {
        out += &format!(
            "baseline {base:.0} sim-s/wall-s, speedup {:.2}x\n",
            report.sim_per_wall / base,
        );
    }
    std::fs::write(json_out, report.to_json(baseline))
        .map_err(|e| ArgError::new(format!("cannot write {json_out}: {e}")))?;
    out += &format!("bench record written to {json_out}\n");
    if check && report.sim_per_wall < floor {
        return Err(ArgError::new(format!(
            "throughput regression: {:.0} sim-s/wall-s is below the floor {floor:.0}",
            report.sim_per_wall,
        )));
    }
    if check {
        out += &format!(
            "check passed: {:.0} >= floor {floor:.0}\n",
            report.sim_per_wall
        );
    }
    Ok(out)
}

/// `bzctl serve`: runs the multi-tenant control-plane service until a
/// signal or `POST /admin/shutdown` drains it (see docs/SERVE.md). The
/// returned text is the post-drain summary; while running, the service
/// prints its bound address unless `--quiet`.
fn serve(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["addr", "threads", "max-inflight", "checkpoint-dir", "quiet"])?;
    let threads: usize = args.get_or("threads", 8)?;
    if threads == 0 {
        return Err(ArgError::new("--threads must be positive"));
    }
    let config = bz_serve::ServeConfig {
        addr: args.get("addr")?.unwrap_or("127.0.0.1:7033").to_owned(),
        threads,
        max_inflight: args.get_or("max-inflight", 4)?,
        checkpoint_dir: args.get("checkpoint-dir")?.map(std::path::PathBuf::from),
        quiet: args.flag("quiet"),
    };
    bz_serve::server::install_signal_handlers();
    let server = bz_serve::Server::bind(config)
        .map_err(|e| ArgError::new(format!("cannot bind the listener: {e}")))?;
    let report = server
        .run()
        .map_err(|e| ArgError::new(format!("serve failed: {e}")))?;
    let mut out = format!(
        "serve drained: {} tenants, {} requests served, {} shed\n",
        report.tenants, report.requests, report.shed
    );
    for path in &report.checkpoints {
        out += &format!("final checkpoint written to {}\n", path.display());
    }
    Ok(out)
}

/// `bzctl loadgen`: drives a running `bzctl serve` instance. The default
/// mode is the closed-loop load test (tenant fleet + latency
/// percentiles + `BENCH_0010.json`); `--mirror` instead drives one
/// tenant to completion and downloads its JSONL export so CI can diff
/// it byte-for-byte against `bzctl trial --metrics-out`.
fn loadgen(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&[
        "addr",
        "tenants",
        "connections",
        "minutes",
        "seed-base",
        "step-minutes",
        "json-out",
        "check",
        "min-rps",
        "max-p99-ms",
        "mirror",
        "seed",
        "metrics-out",
    ])?;
    let addr = args.get("addr")?.unwrap_or("127.0.0.1:7033").to_owned();

    if args.flag("mirror") {
        let seed: u64 = args.get_or("seed", 0x5EED_0001)?;
        let minutes: u64 = args.get_or("minutes", 5)?;
        if minutes == 0 {
            return Err(ArgError::new("--minutes must be positive"));
        }
        let Some(path) = args.get("metrics-out")? else {
            return Err(ArgError::new("--mirror needs --metrics-out PATH"));
        };
        let name = format!("mirror-s{seed}-m{minutes}");
        let bytes = bz_serve::load::mirror(&addr, seed, minutes, &name)
            .map_err(|e| ArgError::new(format!("mirror run failed: {e}")))?;
        std::fs::write(path, &bytes)
            .map_err(|e| ArgError::new(format!("cannot write {path}: {e}")))?;
        return Ok(format!(
            "mirror tenant '{name}' driven to completion over the wire\n\
             wire export written to {path} ({} bytes)\n",
            bytes.len()
        ));
    }

    let tenants: usize = args.get_or("tenants", 1_000)?;
    let minutes: u64 = args.get_or("minutes", 2)?;
    if tenants == 0 || minutes == 0 {
        return Err(ArgError::new("--tenants and --minutes must be positive"));
    }
    let check = args.flag("check");
    let min_rps: f64 = args.get_or("min-rps", 0.0)?;
    let max_p99_ms: f64 = args.get_or("max-p99-ms", 0.0)?;
    if check && min_rps <= 0.0 && max_p99_ms <= 0.0 {
        return Err(ArgError::new(
            "--check needs --min-rps F and/or --max-p99-ms F",
        ));
    }
    let json_out = args
        .get("json-out")?
        .unwrap_or(bz_bench::load::DEFAULT_JSON_OUT);
    let config = bz_serve::load::LoadgenConfig {
        addr,
        tenants,
        connections: args.get_or("connections", 16)?,
        minutes_per_tenant: minutes,
        seed_base: args.get_or("seed-base", 0x10AD_0001)?,
        step_minutes: args.get_or("step-minutes", 1)?,
    };
    let report =
        bz_serve::load::run(&config).map_err(|e| ArgError::new(format!("loadgen failed: {e}")))?;
    let mut out = report.summary();
    std::fs::write(json_out, report.to_json())
        .map_err(|e| ArgError::new(format!("cannot write {json_out}: {e}")))?;
    out += &format!("bench record written to {json_out}\n");
    if check {
        if min_rps > 0.0 && report.requests_per_second < min_rps {
            return Err(ArgError::new(format!(
                "loadgen regression: {:.0} req/s is below the floor {min_rps:.0}",
                report.requests_per_second
            )));
        }
        if max_p99_ms > 0.0 && report.latency.p99_us > max_p99_ms * 1_000.0 {
            return Err(ArgError::new(format!(
                "loadgen regression: p99 {:.2}ms is above the ceiling {max_p99_ms:.2}ms",
                report.latency.p99_us / 1_000.0
            )));
        }
        out += "check passed\n";
    }
    Ok(out)
}

/// `bzctl checkpoint inspect PATH`: prints the metadata of one snapshot
/// file, or the per-file status (including corruption diagnostics) of a
/// whole checkpoint directory.
fn checkpoint_inspect(raw: Vec<String>) -> Result<String, ArgError> {
    let usage = "usage: bzctl checkpoint inspect PATH";
    let mut raw = raw;
    if raw.first().map(String::as_str) != Some("inspect") {
        return Err(ArgError::new(usage));
    }
    raw.remove(0);
    let [path] = raw.as_slice() else {
        return Err(ArgError::new(usage));
    };
    crate::checkpoint::inspect(path)
}

/// Loads a chaos scenario (the bundled acceptance scenario unless
/// `--scenario PATH` points at a JSON file), applies any `--minutes` /
/// `--seed` overrides, runs it, and prints the resilience report. The
/// machine-greppable `chaos-result:` line carries the headline numbers
/// for CI smoke checks.
fn chaos(args: &Args) -> Result<String, ArgError> {
    expect_only_with_checkpoints(args, &["scenario", "minutes", "seed", "metrics-out"])?;
    let mut scenario = match args.get("scenario")? {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError::new(format!("cannot read {path}: {e}")))?;
            ChaosScenario::from_json(&text).map_err(|e| ArgError::new(format!("{path}: {e}")))?
        }
        None => ChaosScenario::bundled_basic(),
    };
    let default_mins = (scenario.duration.as_secs_f64() / 60.0).round() as u64;
    let minutes: u64 = args.get_or("minutes", default_mins)?;
    if minutes == 0 {
        return Err(ArgError::new("--minutes must be positive"));
    }
    scenario.duration = SimDuration::from_mins(minutes);
    scenario.seed = args.get_or("seed", scenario.seed)?;
    let opts = CheckpointOpts::from_args(args)?;
    let mut checkpoints = opts.session(
        "chaos",
        &format!(
            "chaos scenario={} seed={} minutes={minutes}",
            scenario.name, scenario.seed
        ),
    )?;
    let metrics = metrics_begin(args)?;

    let mut chaos_run = scenario.begin_with_obs(bz_obs::Handle::global());
    let mut out = String::new();
    drive(&mut chaos_run, &mut checkpoints, &mut out)?;
    let report = chaos_run.finish();
    out += &report.render();
    out += "\n";
    out += &report.summary_line();
    out += "\n";
    metrics_finish(metrics.as_deref(), false, &mut out)?;
    Ok(out)
}

/// Runs the bz-predict MPC subsystem over an occupancy scenario (the
/// bundled office day unless `--scenario PATH` points at a JSON file).
/// With `--compare` it runs MPC and the reactive baseline head-to-head
/// on the same seed and prints an energy-vs-comfort report plus a
/// machine-greppable `mpc-result:` line. Both strategies record into
/// isolated telemetry registries, so `--metrics-out` receives the MPC
/// run's export directly and the bytes are identical for any `--jobs`
/// value.
fn mpc(args: &Args) -> Result<String, ArgError> {
    expect_only_with_checkpoints(
        args,
        &[
            "scenario",
            "minutes",
            "seed",
            "horizon",
            "compare",
            "jobs",
            "metrics-out",
            "quiet",
        ],
    )?;
    let mut scenario = match args.get("scenario")? {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError::new(format!("cannot read {path}: {e}")))?;
            bz_predict::MpcScenario::from_json(&text)
                .map_err(|e| ArgError::new(format!("{path}: {e}")))?
        }
        None => bz_predict::MpcScenario::bundled_office(),
    };
    let default_mins = (scenario.duration.as_secs_f64() / 60.0).round() as u64;
    let minutes: u64 = args.get_or("minutes", default_mins)?;
    if minutes == 0 {
        return Err(ArgError::new("--minutes must be positive"));
    }
    scenario.duration = SimDuration::from_mins(minutes);
    scenario.seed = args.get_or("seed", scenario.seed)?;
    let mut config = bz_predict::MpcConfig::office();
    config.horizon = args.get_or("horizon", config.horizon)?;
    let jobs: usize = args.get_or("jobs", 1)?;
    if jobs == 0 {
        return Err(ArgError::new("--jobs must be positive"));
    }
    let quiet = args.flag("quiet");
    let metrics_path = args.get("metrics-out")?;
    if metrics_path.is_some_and(|path| path.ends_with(".csv")) {
        return Err(ArgError::new(
            "mpc exports JSONL; --metrics-out must not end in .csv",
        ));
    }
    let opts = CheckpointOpts::from_args(args)?;
    if opts.active() && args.flag("compare") {
        return Err(ArgError::new(
            "checkpointing flags apply to a single `mpc` simulation, not --compare \
             (checkpoint the strategies as separate runs instead)",
        ));
    }
    let mut checkpoints = opts.session(
        "mpc",
        &format!(
            "mpc scenario={} seed={} minutes={minutes} horizon={}",
            scenario.name, scenario.seed, config.horizon
        ),
    )?;

    let mut out = String::new();
    let mpc_run = if args.flag("compare") {
        let report = bz_predict::compare(&scenario, config, jobs);
        if quiet {
            out += &report.summary_line();
            out += "\n";
        } else {
            out += &report.render();
        }
        report.mpc
    } else {
        let mut strategy_run = bz_predict::compare::begin_strategy(&scenario, Some(config));
        drive(&mut strategy_run, &mut checkpoints, &mut out)?;
        let run = strategy_run.finish();
        out += &format!(
            "mpc run: scenario {} ({minutes} min, seed {})\n\
             energy {:.1} kJ (radiant chiller {:.1}, vent chiller {:.1}, pumps {:.1}, fans {:.1})\n\
             occupied comfort violation {:.1} subspace-min, condensate {:.4} kg\n",
            scenario.name,
            scenario.seed,
            run.energy_kj,
            run.radiant_chiller_kj,
            run.vent_chiller_kj,
            run.pumps_kj,
            run.fans_kj,
            run.comfort_violation_min,
            run.condensate_kg,
        );
        run
    };
    if let Some(path) = metrics_path {
        std::fs::write(path, &mpc_run.export)
            .map_err(|e| ArgError::new(format!("cannot write {path}: {e}")))?;
        out += &format!("metrics written to {path}\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(command: &str, flags: &[&str]) -> String {
        run(command, flags.iter().map(|s| (*s).to_owned()).collect()).unwrap()
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok("help", &[]).contains("bzctl"));
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run("frobnicate", Vec::new()).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn comfort_reports_radiant_advantage() {
        let out = run_ok("comfort", &["--temp", "25", "--dew", "18", "--panel", "21"]);
        assert!(out.contains("radiant advantage"));
        assert!(out.contains("PMV"));
    }

    #[test]
    fn comfort_rejects_supersaturated_input() {
        let err = run(
            "comfort",
            vec!["--temp".into(), "20".into(), "--dew".into(), "25".into()],
        )
        .unwrap_err();
        assert!(err.to_string().contains("below"));
    }

    #[test]
    fn multihop_plans_a_building() {
        let out = run_ok("multihop", &["--wings", "2"]);
        assert!(out.contains("connected = true"));
        assert!(out.contains("flooding baseline"));
    }

    #[test]
    fn trial_runs_short() {
        let out = run_ok("trial", &["--minutes", "3", "--quiet"]);
        assert!(out.contains("final:"));
    }

    #[test]
    fn serve_and_loadgen_round_trip() {
        let server = bz_serve::Server::bind(bz_serve::ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            quiet: true,
            ..bz_serve::ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());

        let dir = std::env::temp_dir().join("bzctl-loadgen");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("BENCH_0010.json");
        let out = run_ok(
            "loadgen",
            &[
                "--addr",
                &addr,
                "--tenants",
                "6",
                "--connections",
                "2",
                "--minutes",
                "1",
                "--json-out",
                json.to_str().unwrap(),
                "--check",
                "--min-rps",
                "1",
            ],
        );
        assert!(out.contains("req/s"), "{out}");
        assert!(out.contains("check passed"), "{out}");
        let record = std::fs::read_to_string(&json).unwrap();
        assert!(record.contains("\"bench\": \"serve-loadgen\""), "{record}");
        assert!(record.contains("\"tenants\": 6"), "{record}");

        // Mirror mode: the wire-paced export equals the offline bytes.
        let wire = dir.join("wire.jsonl");
        let out = run_ok(
            "loadgen",
            &[
                "--addr",
                &addr,
                "--mirror",
                "--seed",
                "7",
                "--minutes",
                "3",
                "--metrics-out",
                wire.to_str().unwrap(),
            ],
        );
        assert!(out.contains("wire export written"), "{out}");
        let offline = bz_bench::sweep::run_one(&bz_bench::sweep::RunSpec {
            index: 0,
            scenario: bz_bench::sweep::Scenario::Trial,
            seed: 7,
            minutes: 3,
            params: Vec::new(),
        })
        .unwrap();
        assert_eq!(std::fs::read(&wire).unwrap(), offline.metrics_jsonl);

        handle.request_shutdown();
        thread.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loadgen_rejects_bad_inputs() {
        for flags in [
            vec!["--tenants", "0"],
            vec!["--mirror"],
            vec!["--check", "--tenants", "1"],
            vec![
                "--addr",
                "127.0.0.1:1",
                "--tenants",
                "1",
                "--connections",
                "1",
            ],
        ] {
            let raw: Vec<String> = flags.iter().map(|s| (*s).to_owned()).collect();
            assert!(run("loadgen", raw).is_err(), "{flags:?} should fail");
        }
    }

    #[test]
    fn trial_rejects_typoed_flag() {
        let err = run("trial", vec!["--mintues".into(), "3".into()]).unwrap_err();
        assert!(err.to_string().contains("unknown flag"));
    }

    #[test]
    fn sniff_runs_short() {
        let out = run_ok("sniff", &["--minutes", "1"]);
        assert!(out.contains("sniffer capture"));
        assert!(out.contains("temperature"));
    }

    #[test]
    fn endurance_rejects_silly_day_counts() {
        assert!(run("endurance", vec!["--days".into(), "0".into()]).is_err());
        assert!(run("endurance", vec!["--days".into(), "99".into()]).is_err());
    }

    #[test]
    fn network_runs_short() {
        let out = run_ok("network", &["--minutes", "2"]);
        assert!(out.contains("networking trial"));
        assert!(out.contains("delivery"));
    }
    #[test]
    fn sweep_runs_a_small_grid() {
        let out = run_ok(
            "sweep",
            &[
                "--runs",
                "2",
                "--minutes",
                "1",
                "--grid",
                "bt-fixed=true,false",
                "--jobs",
                "2",
            ],
        );
        assert!(out.contains("sweep: 4 run(s)"));
        assert!(out.contains("mean delivery"));
    }

    #[test]
    fn sweep_strategy_axis_reports_energy_delta() {
        let out = run_ok(
            "sweep",
            &[
                "--runs",
                "1",
                "--minutes",
                "1",
                "--grid",
                "strategy=reactive,mpc;occupancy-rate=0.5",
                "--jobs",
                "2",
            ],
        );
        assert!(out.contains("sweep: 2 run(s)"));
        assert!(out.contains("energy delta mpc vs reactive"));
    }

    #[test]
    fn sweep_rejects_bad_inputs() {
        assert!(run("sweep", vec!["--runs".into(), "0".into()]).is_err());
        assert!(run("sweep", vec!["--jobs".into(), "0".into()]).is_err());
        assert!(run("sweep", vec!["--grid".into(), "frobnicate=1".into()]).is_err());
        assert!(run("sweep", vec!["--scenario".into(), "nope".into()]).is_err());
        assert!(run("sweep", vec!["--metrics-out".into()]).is_err());
        for (flag, value) in [
            ("--kill", "0:2"),
            ("--retries", "2"),
            ("--backoff-ms", "50"),
        ] {
            let err = run_err("sweep", &[flag, value]);
            assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn bench_throughput_writes_the_json_record() {
        let dir = std::env::temp_dir().join("bzctl-bench-throughput");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("BENCH_test.json");
        let out = run_ok(
            "bench",
            &[
                "throughput",
                "--minutes",
                "1",
                "--json-out",
                json.to_str().unwrap(),
                "--baseline",
                "1",
            ],
        );
        assert!(out.contains("throughput: 60 sim-seconds"));
        assert!(out.contains("speedup"));
        let record = std::fs::read_to_string(&json).unwrap();
        assert!(record.contains("\"bench\": \"throughput\""));
        assert!(record.contains("\"baseline_sim_per_wall\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_throughput_check_enforces_the_floor() {
        let dir = std::env::temp_dir().join("bzctl-bench-floor");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("BENCH_test.json");
        let err = run(
            "bench",
            vec![
                "throughput".into(),
                "--minutes".into(),
                "1".into(),
                "--json-out".into(),
                json.to_str().unwrap().into(),
                "--check".into(),
                "--min-sim-per-wall".into(),
                "1e18".into(),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("throughput regression"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_rejects_bad_inputs() {
        assert!(run("bench", vec![]).is_err());
        assert!(run("bench", vec!["frobnicate".into()]).is_err());
        assert!(run(
            "bench",
            vec!["throughput".into(), "--minutes".into(), "0".into()]
        )
        .is_err());
        assert!(run("bench", vec!["throughput".into(), "--check".into()]).is_err());
        for (flag, value) in [
            ("--ab", "1"),
            ("--noise", "v1"),
            ("--checkpoint-dir", "d"),
            ("--checkpoint-every", "60"),
        ] {
            let err = run_err("bench", &["throughput", flag, value]);
            assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn chaos_runs_bundled_short() {
        let out = run_ok("chaos", &["--minutes", "5"]);
        assert!(out.contains("chaos scenario 'bundled-basic'"));
        assert!(out.contains("chaos-result: scenario=bundled-basic"));
    }

    #[test]
    fn chaos_loads_the_bundled_scenario_file() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/chaos_basic.json"
        );
        let out = run_ok("chaos", &["--scenario", path, "--minutes", "3"]);
        assert!(out.contains("chaos-result: scenario=bundled-basic"));
    }

    #[test]
    fn chaos_rejects_bad_inputs() {
        assert!(run("chaos", vec!["--scenario".into()]).is_err());
        assert!(run("chaos", vec!["--minutes".into(), "0".into()]).is_err());
        let err = run(
            "chaos",
            vec!["--scenario".into(), "/nonexistent.json".into()],
        )
        .unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn cop_metrics_out_requires_a_value() {
        let err = run("cop", vec!["--metrics-out".into()]).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
    }

    #[test]
    fn sniff_metrics_out_requires_a_value() {
        let err = run("sniff", vec!["--metrics-out".into()]).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
    }

    #[test]
    fn mpc_compare_runs_short() {
        let out = run_ok("mpc", &["--minutes", "4", "--compare", "--quiet"]);
        assert!(out.contains("mpc-result: scenario=office"));
    }

    #[test]
    fn mpc_single_run_reports_energy() {
        let out = run_ok("mpc", &["--minutes", "3", "--horizon", "4"]);
        assert!(out.contains("mpc run: scenario office"));
        assert!(out.contains("energy"));
        assert!(out.contains("condensate"));
    }

    #[test]
    fn mpc_loads_the_bundled_scenario_file() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/mpc_office.json"
        );
        let out = run_ok("mpc", &["--scenario", path, "--minutes", "3"]);
        assert!(out.contains("scenario office"));
    }

    #[test]
    fn mpc_rejects_bad_inputs() {
        assert!(run("mpc", vec!["--scenario".into()]).is_err());
        assert!(run("mpc", vec!["--minutes".into(), "0".into()]).is_err());
        assert!(run("mpc", vec!["--jobs".into(), "0".into()]).is_err());
        assert!(run("mpc", vec!["--frobnicate".into()]).is_err());
        assert!(run("mpc", vec!["--metrics-out".into(), "/tmp/mpc.csv".into()]).is_err());
        let err = run("mpc", vec!["--scenario".into(), "/nonexistent.json".into()]).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn mpc_writes_the_metrics_file() {
        let dir = std::env::temp_dir().join("bzctl-mpc-artifacts");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("mpc.jsonl");
        let out = run_ok(
            "mpc",
            &["--minutes", "3", "--metrics-out", metrics.to_str().unwrap()],
        );
        assert!(out.contains("metrics written to"));
        let export = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            export.contains("\"kind\""),
            "JSONL export looks wrong: {export}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flamegraph_out_is_an_unknown_flag() {
        for command in "trial cop network sniff endurance chaos mpc".split(' ') {
            let err = run_err(command, &["--flamegraph-out", "run.folded"]);
            assert!(
                err.contains("unknown flag --flamegraph-out"),
                "{command}: {err}"
            );
        }
    }

    fn run_err(command: &str, flags: &[&str]) -> String {
        run(command, flags.iter().map(|s| (*s).to_owned()).collect())
            .unwrap_err()
            .to_string()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bzctl-ckpt-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn value_flags_without_a_value_are_errors() {
        let err = run_err("trial", &["--minutes", "1", "--quiet", "--csv"]);
        assert!(err.contains("flag --csv needs a value"), "{err}");
        // Fails before binding: this address can never bind (the port is
        // out of range, so no lookup is tried), so only the flag check can
        // produce this error.
        let err = run_err("serve", &["--addr", "127.0.0.1:99999", "--checkpoint-dir"]);
        assert!(err.contains("flag --checkpoint-dir needs a value"), "{err}");
    }

    #[test]
    fn checkpoint_flags_validate_across_commands() {
        let err = run_err("trial", &["--resume", "--minutes", "1", "--quiet"]);
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = run_err(
            "endurance",
            &["--stream", "--checkpoint-dir", "/tmp/x", "--days", "1"],
        );
        assert!(err.contains("--stream cannot be combined"), "{err}");
        let err = run_err(
            "mpc",
            &["--compare", "--checkpoint-dir", "/tmp/x", "--minutes", "3"],
        );
        assert!(err.contains("--compare"), "{err}");
        assert!(run_err("checkpoint", &[]).contains("usage"));
        assert!(run_err("checkpoint", &["frobnicate"]).contains("usage"));
    }

    #[test]
    fn trial_crash_resume_reproduces_the_uninterrupted_csv() {
        let dir = scratch("trial-resume");
        let ckpt = dir.join("ckpt");
        let baseline_csv = dir.join("baseline.csv");
        let resumed_csv = dir.join("resumed.csv");
        run_ok(
            "trial",
            &[
                "--minutes",
                "4",
                "--quiet",
                "--csv",
                baseline_csv.to_str().unwrap(),
            ],
        );
        // First attempt: checkpoints every simulated minute, dies at 2.
        let err = run_err(
            "trial",
            &[
                "--minutes",
                "4",
                "--quiet",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                "60",
                "--crash-at",
                "120",
            ],
        );
        assert!(err.contains("crash injected"), "{err}");
        // Second attempt resumes from the t=120s snapshot and finishes.
        let out = run_ok(
            "trial",
            &[
                "--minutes",
                "4",
                "--quiet",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--resume",
                "--csv",
                resumed_csv.to_str().unwrap(),
            ],
        );
        assert!(out.contains("resumed from"), "{out}");
        assert_eq!(
            std::fs::read(&baseline_csv).unwrap(),
            std::fs::read(&resumed_csv).unwrap(),
            "resumed trial must reproduce the uninterrupted series byte-for-byte"
        );
        let inspect = run_ok("checkpoint", &["inspect", ckpt.to_str().unwrap()]);
        assert!(inspect.contains("kind=trial"), "{inspect}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trial_resume_skips_a_corrupted_snapshot_for_the_previous_good_one() {
        let dir = scratch("trial-corrupt");
        let ckpt = dir.join("ckpt");
        let baseline_csv = dir.join("baseline.csv");
        let resumed_csv = dir.join("resumed.csv");
        run_ok(
            "trial",
            &[
                "--minutes",
                "3",
                "--quiet",
                "--csv",
                baseline_csv.to_str().unwrap(),
            ],
        );
        let err = run_err(
            "trial",
            &[
                "--minutes",
                "3",
                "--quiet",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                "60",
                "--crash-at",
                "120",
            ],
        );
        assert!(err.contains("crash injected"), "{err}");
        // Tear the newest snapshot mid-write: truncate to half its size.
        let newest = bz_state::CheckpointDir::open(&ckpt).file_for_tick(120_000);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let inspect = run_ok("checkpoint", &["inspect", ckpt.to_str().unwrap()]);
        assert!(inspect.contains("BAD"), "{inspect}");
        let out = run_ok(
            "trial",
            &[
                "--minutes",
                "3",
                "--quiet",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--resume",
                "--csv",
                resumed_csv.to_str().unwrap(),
            ],
        );
        assert!(out.contains("skipping corrupt checkpoint"), "{out}");
        assert!(out.contains("resumed from"), "{out}");
        assert!(out.contains("t=60s"), "{out}");
        assert_eq!(
            std::fs::read(&baseline_csv).unwrap(),
            std::fs::read(&resumed_csv).unwrap(),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_crash_resume_reproduces_the_uninterrupted_report() {
        let dir = scratch("chaos-resume");
        let ckpt = dir.join("ckpt");
        let baseline = run_ok("chaos", &["--minutes", "6"]);
        let err = run_err(
            "chaos",
            &[
                "--minutes",
                "6",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                "60",
                "--crash-at",
                "180",
            ],
        );
        assert!(err.contains("crash injected"), "{err}");
        let resumed = run_ok(
            "chaos",
            &[
                "--minutes",
                "6",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--resume",
            ],
        );
        assert!(resumed.contains("resumed from"), "{resumed}");
        assert!(
            resumed.ends_with(&baseline),
            "resumed chaos report must match the uninterrupted one:\n--- baseline\n{baseline}\n--- resumed\n{resumed}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mpc_crash_resume_reproduces_the_uninterrupted_export() {
        let dir = scratch("mpc-resume");
        let ckpt = dir.join("ckpt");
        let baseline_jsonl = dir.join("baseline.jsonl");
        let resumed_jsonl = dir.join("resumed.jsonl");
        run_ok(
            "mpc",
            &[
                "--minutes",
                "4",
                "--metrics-out",
                baseline_jsonl.to_str().unwrap(),
            ],
        );
        let err = run_err(
            "mpc",
            &[
                "--minutes",
                "4",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                "60",
                "--crash-at",
                "120",
            ],
        );
        assert!(err.contains("crash injected"), "{err}");
        let out = run_ok(
            "mpc",
            &[
                "--minutes",
                "4",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--resume",
                "--metrics-out",
                resumed_jsonl.to_str().unwrap(),
            ],
        );
        assert!(out.contains("resumed from"), "{out}");
        assert_eq!(
            std::fs::read(&baseline_jsonl).unwrap(),
            std::fs::read(&resumed_jsonl).unwrap(),
            "resumed mpc metrics export must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_crash_at_then_resume_matches_an_uninterrupted_sweep() {
        let dir = scratch("sweep-resume");
        let sweep = |name: &str, extra: &[&str]| {
            let mut argv: Vec<String> = ["--runs", "3", "--minutes", "3", "--quiet"]
                .iter()
                .chain(extra)
                .map(|s| (*s).to_owned())
                .collect();
            let report = dir.join(format!("{name}.jsonl"));
            let runs = dir.join(name);
            for (flag, path) in [("--metrics-out", &report), ("--out-dir", &runs)] {
                argv.extend([flag.to_owned(), path.to_str().unwrap().to_owned()]);
            }
            run("sweep", argv)
        };
        let read = |name: &str| {
            let mut files = vec![std::fs::read(dir.join(format!("{name}.jsonl"))).unwrap()];
            for index in 0..3 {
                let run = dir.join(name).join(format!("run-{index:03}.jsonl"));
                files.push(std::fs::read(run).unwrap());
            }
            files
        };
        sweep("reference", &[]).unwrap();
        for jobs in ["1", "2"] {
            let ckpt = dir.join(format!("ckpt-{jobs}"));
            let checkpointed = ["--jobs", jobs, "--checkpoint-dir", ckpt.to_str().unwrap()];
            let checkpointed = [checkpointed.as_slice(), &["--checkpoint-every", "60"]].concat();
            let crashed = [checkpointed.as_slice(), &["--crash-at", "120"]].concat();
            let err = sweep("crashed", &crashed).unwrap_err().to_string();
            assert!(err.contains("3 of 3 run(s) failed"), "{err}");
            assert!(err.contains("crash injected at t=120s"), "{err}");

            let resume = [checkpointed.as_slice(), &["--resume"]].concat();
            let out = sweep("resumed", &resume).unwrap();
            assert!(
                out.contains("3 of 3 run(s) resumed, 3 of 9 simulated minute(s) stepped"),
                "{out}"
            );
            assert_eq!(read("resumed"), read("reference"), "--jobs {jobs}");
            // A finished sweep resumes at every run's end.
            let out = sweep("again", &resume).unwrap();
            assert!(out.contains("0 of 9 simulated minute(s) stepped"), "{out}");
            assert_eq!(read("again"), read("reference"), "--jobs {jobs}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn endurance_stream_requires_metrics_out() {
        let err = run(
            "endurance",
            vec!["--stream".into(), "--days".into(), "1".into()],
        )
        .unwrap_err();
        assert!(err.to_string().contains("--stream needs --metrics-out"));
        let err = run(
            "endurance",
            vec![
                "--stream".into(),
                "--metrics-out".into(),
                "/tmp/x.csv".into(),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("must not end in .csv"));
    }
}
