//! The repository benchmark of the BubbleZERO reproduction.
//!
//! Each workload runs in one process from the root of a checkout:
//!
//! * `serve-fleet` — 1000 trial tenants behind an in-process `bz-serve`
//!   server, stepped one minute at a time by an open-loop generator;
//! * `serve-mixed` — the same server with trial, chaos and mpc tenants and
//!   a seeded mix of steps, observations, setpoint reads, telemetry taps,
//!   snapshots and restores;
//! * `trial-batch` (run on request, not scored) — the bundled afternoon
//!   trial simulated by one thread with telemetry off.
//!
//! An untraced run prints the [`END_TO_END`] metrics; a traced run prints
//! the [`per_layer`] breakdown. See `README.md` beside this crate.

pub mod layers;
pub mod schedule;
pub mod serve;
pub mod stats;
pub mod trial;

/// The scored workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["serve-fleet", "serve-mixed"];

/// A workload the binary runs on request but `BENCHMARK.json` does not
/// score: its single-thread throughput follows the host's speed phases
/// (see `README.md`).
pub const MANUAL_WORKLOAD: &str = "trial-batch";

/// End-to-end metrics every untraced run prints: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_per_wall", "sim-s/s"),
    ("step_p50_ms", "ms"),
    ("served_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run prints: `(name, unit)`.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("core.step_second_ns", "ns"),
        ("core.control_second_ns", "ns"),
        ("core.plain_second_ns", "ns"),
        ("thermal.plant_step_ns", "ns"),
        ("thermal.sensor_read_ns", "ns"),
        ("wsn.advance_ns", "ns"),
        ("simcore.event_drain_ns", "ns"),
        ("core.supervisor_validate_ns", "ns"),
        ("sim.unattributed_share", "ratio"),
        ("wsn.offered", "count"),
        ("wsn.delivered", "count"),
        ("wsn.collided", "count"),
        ("wsn.busy_drops", "count"),
        ("wsn.backoffs", "count"),
        ("wsn.tx_per_sample", "ratio"),
        ("core.detections", "count"),
        ("simcore.pending_events", "count"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_owned(), unit))
    .collect();
    for op in schedule::Op::ALL {
        let op = op.label();
        names.push((format!("client.ttfb_us.{op}.p50"), "us"));
        names.push((format!("client.ttfb_us.{op}.p99"), "us"));
        names.push((format!("http.parse_us.{op}"), "us"));
        names.push((format!("http.write_us.{op}"), "us"));
        names.push((format!("serve.wait_us.{op}.p50"), "us"));
        names.push((format!("serve.wait_us.{op}.p99"), "us"));
    }
    for (name, unit) in [
        ("serve.lookup_us", "us"),
        ("serve.step_us.trial", "us"),
        ("serve.step_us.chaos", "us"),
        ("serve.step_us.mpc", "us"),
        ("state.snapshot_us", "us"),
        ("state.restore_us", "us"),
        ("state.snapshot_bytes", "bytes"),
        ("obs.tap_us", "us"),
        ("obs.events_per_tenant", "count"),
        ("step_p99_ms", "ms"),
        ("snapshot_p99_ms", "ms"),
        ("restore_p99_ms", "ms"),
        ("tap_p99_ms", "ms"),
        ("error_ratio", "ratio"),
        ("serve.requests", "count"),
        ("serve.shed", "count"),
        ("loadgen.lag_p99_ms", "ms"),
        ("bench.trace_overhead", "ratio"),
    ] {
        names.push((name.to_owned(), unit));
    }
    names
}

/// Runs one workload and returns its outcome, holding exactly the metrics
/// of the run kind (end-to-end, or per-layer when `trace`). `rate`
/// overrides a serve workload's offered rate.
///
/// # Errors
///
/// Returns a message for an unknown workload.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    rate: Option<f64>,
) -> Result<stats::Outcome, String> {
    let shape = |base: serve::Shape| serve::Shape {
        rate: rate.unwrap_or(base.rate),
        ..base
    };
    let mut out = match workload {
        MANUAL_WORKLOAD => {
            let mut out = trial::run(seed, seconds, trace);
            if trace {
                // No serve traffic here: the serve layers come from the
                // probe on a fresh server and the replays alone.
                match serve::Running::start() {
                    Ok(server) => {
                        layers::report(&mut out, server.addr, &serve::Traffic::default(), 0, seed);
                        if let Err(e) = server.stop() {
                            out.problem(format!("probe server did not drain: {e}"));
                        }
                    }
                    Err(e) => out.problem(format!("probe server: {e}")),
                }
            }
            out
        }
        "serve-fleet" => serve::run(&shape(serve::FLEET), seed, seconds, trace),
        "serve-mixed" => serve::run(&shape(serve::MIXED), seed, seconds, trace),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {}, or {MANUAL_WORKLOAD})",
                WORKLOADS.join(", ")
            ))
        }
    };
    let expected: Vec<String> = if trace {
        per_layer().into_iter().map(|(name, _)| name).collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, _)| (*name).to_owned())
            .collect()
    };
    let refs: Vec<&str> = expected.iter().map(String::as_str).collect();
    out.retain(&refs);
    let missing: Vec<&str> = refs
        .iter()
        .copied()
        .filter(|name| out.get(name).is_none())
        .collect();
    if !missing.is_empty() {
        out.problem(format!("metrics not measured: {}", missing.join(", ")));
    }
    Ok(out)
}
