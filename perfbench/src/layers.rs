//! The serve-side per-layer breakdown of a traced run.
//!
//! Wire-level numbers (`client.ttfb_us`, `serve.wait_us` and the op
//! percentiles) come from the run's own traffic for every operation it
//! sent at least 1000 times, and otherwise from a probe: an open-loop
//! burst of that operation against probe tenants on the same server. The
//! layer costs are replays on benchmark-owned instances through each
//! crate's public API: the HTTP codec on the requests and response sizes
//! the run produced, registry lookups at the workload's tenant count, and
//! tenant step, snapshot, restore and tap calls.

use std::net::SocketAddr;
use std::time::Instant;

use bz_serve::client::Client;
use bz_serve::http::{read_request, Response};
use bz_serve::tenants::{build_tenant, Registry, Tenant};

use crate::schedule::{Kind, Op, Planned};
use crate::serve::{create_body, create_tenants, drive, Traffic};
use crate::stats::{nanos, percentile_us, Outcome, Pct};

/// Simulated seconds of the simulator trace in a serve workload's traced
/// run.
pub const TRACE_SIM_SECONDS: u64 = 6 * 3600;

/// Timed repetitions of each replay.
const REPS: usize = 60;

/// Probe tenants per server.
const PROBE_TENANTS: usize = 100;

/// Offered rate of the probe, requests per second.
const PROBE_RATE: f64 = 500.0;

/// Simulated minutes the state and tap replays' tenant has run; the tap
/// replay reads the last minute's telemetry, as a tap that keeps up does.
const REPLAY_MINUTES: u64 = 5;

/// Times `f` once per repetition and returns the median, microseconds.
fn p50_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            nanos(start.elapsed())
        })
        .collect();
    percentile_us(&samples, Pct::P50).unwrap_or(f64::NAN)
}

/// The request bytes `bz_serve::client::Client` writes for one request.
fn wire_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{method} {path} HTTP/1.1\r\nhost: bz-serve\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// A representative request of each operation; restores carry `restore`.
fn representative(op: Op, restore: &[u8]) -> Vec<u8> {
    match op {
        Op::Step => wire_request("POST", "/tenants/t-0001/step", b"{\"minutes\":1}"),
        Op::Observe => wire_request(
            "POST",
            "/tenants/t-0001/observe",
            b"{\"name\":\"room.temp_c\",\"value\":23.4}",
        ),
        Op::Setpoints => wire_request("GET", "/tenants/t-0001/setpoints", b""),
        Op::Tap => wire_request("GET", "/tenants/t-0001/telemetry?from=120", b""),
        Op::Snapshot => wire_request("GET", "/tenants/t-0001/snapshot", b""),
        Op::Restore => wire_request("POST", "/tenants/t-0001/restore", restore),
    }
}

/// Runs the probe for `missing` operations on probe tenants at `addr`.
fn probe(addr: SocketAddr, missing: &[Op], seed: u64) -> Result<Traffic, String> {
    let names: Vec<String> = (0..PROBE_TENANTS).map(|i| format!("probe-{i}")).collect();
    let kinds = vec![Kind::Trial; PROBE_TENANTS];
    create_tenants(addr, &names, &kinds, seed).map_err(|e| format!("probe setup: {e}"))?;
    // Every round sends each needed op to every probe tenant, snapshots
    // before restores, so each restore has a snapshot to send back.
    let ops: Vec<Op> = Op::ALL
        .into_iter()
        .filter(|op| {
            missing.contains(op) || (*op == Op::Snapshot && missing.contains(&Op::Restore))
        })
        .collect();
    let rounds = Pct::P99.min_samples().div_ceil(PROBE_TENANTS);
    let planned: Vec<Planned> = (0..rounds)
        .flat_map(|_| {
            ops.iter()
                .flat_map(|&op| (0..PROBE_TENANTS).map(move |tenant| Planned { tenant, op }))
        })
        .collect();
    let traffic = drive(addr, &names, &kinds, usize::MAX, &planned, PROBE_RATE);
    if traffic.failed > 0 {
        return Err(format!("probe failed: {:?}", traffic.errors));
    }
    Ok(traffic)
}

/// A tenant of `kind` built in-process through `build_tenant`.
fn tenant(kind: Kind, name: &str, seed: u64) -> Tenant {
    build_tenant(&create_body(name, kind, seed)).expect("bundled tenant specs build")
}

/// Writes every serve-side per-layer metric for a traced run whose traffic
/// was `traffic`, served at `addr` to a workload of `tenants` tenants.
pub fn report(out: &mut Outcome, addr: SocketAddr, traffic: &Traffic, tenants: usize, seed: u64) {
    let missing: Vec<Op> = Op::ALL
        .into_iter()
        .filter(|&op| traffic.of(op, |s| s.service_ns).len() < Pct::P99.min_samples())
        .collect();
    let probed = if missing.is_empty() {
        Traffic::default()
    } else {
        match probe(addr, &missing, seed) {
            Ok(probed) => probed,
            Err(why) => {
                out.problem(why);
                Traffic::default()
            }
        }
    };
    let source = |op: Op| {
        if missing.contains(&op) {
            &probed
        } else {
            traffic
        }
    };

    // Replays: codec, registry, compute.
    let restore_body = if traffic.restore_body.is_empty() {
        &probed.restore_body
    } else {
        &traffic.restore_body
    };
    let mut parse = [0.0; 6];
    let mut write = [0.0; 6];
    for op in Op::ALL {
        let bytes = representative(op, restore_body);
        parse[op.index()] = p50_us(REPS, || {
            let request =
                read_request(&mut bytes.as_slice()).expect("representative requests parse");
            std::hint::black_box(request);
        });
        let sizes = source(op).of(op, |s| s.response_bytes as u64);
        let size = sizes.iter().sum::<u64>() / sizes.len().max(1) as u64;
        let response = Response::octets(200, vec![b'x'; size as usize]);
        let mut sink = Vec::with_capacity(size as usize + 256);
        write[op.index()] = p50_us(REPS, || {
            sink.clear();
            response
                .write_to(&mut sink, true)
                .expect("writing to a Vec cannot fail");
            std::hint::black_box(&sink);
        });
        out.put(
            format!("http.parse_us.{}", op.label()),
            parse[op.index()],
            "us",
        );
        out.put(
            format!("http.write_us.{}", op.label()),
            write[op.index()],
            "us",
        );
    }

    let registry = Registry::new();
    let lookup_tenants = tenants.max(PROBE_TENANTS);
    let names: Vec<String> = (0..lookup_tenants).map(|i| format!("t-{i:04}")).collect();
    for name in &names {
        registry
            .insert(tenant(Kind::Trial, name, seed))
            .expect("registry names are unique");
    }
    let order = crate::schedule::permutation(names.len(), seed);
    let lookup = p50_us(REPS, || {
        for &i in &order {
            std::hint::black_box(registry.get(&names[i]));
        }
    }) / order.len() as f64;
    drop(registry);
    out.put("serve.lookup_us", lookup, "us");

    let mut step = [0.0; 3];
    for (slot, kind) in [Kind::Trial, Kind::Chaos, Kind::Mpc]
        .into_iter()
        .enumerate()
    {
        let t = tenant(kind, "replay", seed);
        step[slot] = p50_us(REPS, || {
            assert_eq!(t.step_minutes(1), 1, "replay tenants stay live");
        });
        out.put(format!("serve.step_us.{}", kind.label()), step[slot], "us");
    }

    let t = tenant(Kind::Trial, "replay", seed);
    t.step_minutes(REPLAY_MINUTES - 1);
    let last_minute = t.obs.events_len();
    t.step_minutes(1);
    let mut bytes = Vec::new();
    let snapshot = p50_us(REPS, || bytes = t.snapshot().to_wire_bytes());
    let restore = p50_us(REPS, || {
        let checkpoint =
            bz_state::Checkpoint::from_wire_bytes(&bytes).expect("own snapshot decodes");
        t.restore(&checkpoint).expect("own snapshot restores");
    });
    let tap = p50_us(REPS, || {
        std::hint::black_box(t.telemetry_from(last_minute));
    });
    out.put("state.snapshot_us", snapshot, "us");
    out.put("state.restore_us", restore, "us");
    out.put("state.snapshot_bytes", bytes.len() as f64, "bytes");
    out.put("obs.tap_us", tap, "us");
    out.put("obs.events_per_tenant", t.obs.events_len() as f64, "count");

    // Wire numbers, and the wait that is left after the replayed work.
    for op in Op::ALL {
        let from = source(op);
        let service = from.of(op, |s| s.service_ns);
        let wait: Vec<u64> = from
            .samples
            .iter()
            .filter(|s| s.op == op)
            .map(|s| {
                let compute = match op {
                    Op::Step => {
                        step[match s.kind {
                            Kind::Trial => 0,
                            Kind::Chaos => 1,
                            Kind::Mpc => 2,
                        }]
                    }
                    Op::Snapshot => snapshot,
                    Op::Restore => restore,
                    Op::Tap => tap,
                    Op::Observe | Op::Setpoints => 0.0,
                };
                let work_us = parse[op.index()] + lookup + compute + write[op.index()];
                s.service_ns.saturating_sub((work_us * 1e3) as u64)
            })
            .collect();
        for pct in [Pct::P50, Pct::P99] {
            let suffix = if pct == Pct::P50 { "p50" } else { "p99" };
            out.put_pct(
                &format!("client.ttfb_us.{}.{suffix}", op.label()),
                &service,
                pct,
                1.0,
                "us",
            );
            out.put_pct(
                &format!("serve.wait_us.{}.{suffix}", op.label()),
                &wait,
                pct,
                1.0,
                "us",
            );
        }
    }
    for (name, op) in [
        ("snapshot_p99_ms", Op::Snapshot),
        ("restore_p99_ms", Op::Restore),
        ("tap_p99_ms", Op::Tap),
    ] {
        out.put_pct(
            name,
            &source(op).of(op, |s| s.latency_ns),
            Pct::P99,
            1e-3,
            "ms",
        );
    }
    let lag_source = if traffic.samples.is_empty() {
        &probed
    } else {
        traffic
    };
    let lags: Vec<u64> = lag_source.samples.iter().map(|s| s.lag_ns).collect();
    out.put_pct("loadgen.lag_p99_ms", &lags, Pct::P99, 1e-3, "ms");
    out.put(
        "error_ratio",
        traffic.failed as f64 / traffic.attempted.max(1) as f64,
        "ratio",
    );

    match server_stats(addr) {
        Ok((requests, shed)) => {
            out.put("serve.requests", requests, "count");
            out.put("serve.shed", shed, "count");
        }
        Err(why) => out.problem(why),
    }
}

/// `requests` and `shed` from `GET /stats`.
fn server_stats(addr: SocketAddr) -> Result<(f64, f64), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let text = client.get_ok("/stats").map_err(|e| e.to_string())?.text();
    let doc = bz_core::json::Json::parse(&text).map_err(|e| e.to_string())?;
    let field = |name: &str| doc.field(name).and_then(bz_core::json::Json::as_f64);
    match (field("requests"), field("shed")) {
        (Some(requests), Some(shed)) => Ok((requests, shed)),
        _ => Err(format!("unreadable /stats reply: {text}")),
    }
}
