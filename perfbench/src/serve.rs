//! The `serve-fleet` and `serve-mixed` workloads: an in-process
//! `bz_serve::Server` on a fresh port-0 listener, tenants created over the
//! wire, and an open-loop generator timing every request from the moment
//! it was due.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bz_serve::client::{Client, WireResponse};
use bz_serve::server::ShutdownHandle;
use bz_serve::{ServeConfig, Server, ShutdownReport};

use crate::schedule::{intended_offset, plan, Kind, Mix, Op, Planned, STEPS_ONLY};
use crate::stats::{median, nanos, peak_rss_mb, Outcome, Pct};

/// Server worker threads (the machine has two cores).
const SERVER_THREADS: usize = 2;

/// Generator connections, one thread each; never more than the workers,
/// so no connection waits for another to close.
const CONNECTIONS: usize = 2;

/// Times the server is bound and populated to measure `setup_s` (the
/// median is reported).
const SETUP_REPS: usize = 3;

/// Simulated minutes every trial tenant is created with: far more than
/// any run steps, so no tenant reaches its scenario end.
const TRIAL_MINUTES: u64 = 1_000_000;

/// Simulated minute every tenant is advanced to before the windows.
const AGE_MINUTES: u64 = 10;

/// A generator whose send lag p99 exceeds this makes the run invalid.
const MAX_LAG_P99_MS: f64 = 250.0;

/// One serve workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Hosted tenants, not counting the mirror.
    pub tenants: usize,
    /// Offered requests per second, fixed for every run.
    pub rate: f64,
    /// Operation weights, in `Op::ALL` order.
    pub mix: Mix,
    /// Out of every 20 tenants, how many are chaos and how many mpc; the
    /// rest are trial.
    pub chaos_mpc_per_20: (usize, usize),
}

/// `serve-fleet`: 1000 trial tenants, one-minute steps only.
pub const FLEET: Shape = Shape {
    tenants: 1000,
    rate: 450.0,
    mix: STEPS_ONLY,
    chaos_mpc_per_20: (0, 0),
};

/// `serve-mixed`: 1000 tenants of all three families and every operation.
pub const MIXED: Shape = Shape {
    tenants: 1000,
    rate: 600.0,
    mix: [50, 8, 10, 11, 11, 10],
    chaos_mpc_per_20: (2, 1),
};

impl Shape {
    /// The family of tenant `i`; the mirror (last) is always trial.
    fn kinds(&self) -> Vec<Kind> {
        let (chaos, mpc) = self.chaos_mpc_per_20;
        let mut kinds: Vec<Kind> = (0..self.tenants)
            .map(|i| match i % 20 {
                r if r < chaos => Kind::Chaos,
                r if r < chaos + mpc => Kind::Mpc,
                _ => Kind::Trial,
            })
            .collect();
        kinds.push(Kind::Trial);
        kinds
    }
}

/// The create-request body of tenant `name` of family `kind`.
#[must_use]
pub fn create_body(name: &str, kind: Kind, seed: u64) -> String {
    match kind {
        Kind::Trial => format!(
            "{{\"name\":\"{name}\",\"scenario\":\"trial\",\"seed\":{seed},\"minutes\":{TRIAL_MINUTES}}}"
        ),
        Kind::Chaos => format!("{{\"name\":\"{name}\",\"scenario\":\"chaos\",\"bundled\":true}}"),
        Kind::Mpc => format!(
            "{{\"name\":\"{name}\",\"scenario\":\"mpc\",\"strategy\":\"mpc\",\"bundled\":true}}"
        ),
    }
}

/// A running in-process server.
pub struct Running {
    /// Where it listens.
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<io::Result<ShutdownReport>>,
}

impl Running {
    /// Binds a fresh server on port 0 and starts it.
    ///
    /// # Errors
    ///
    /// Returns socket errors from binding.
    pub fn start() -> io::Result<Self> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: SERVER_THREADS,
            max_inflight: 4,
            checkpoint_dir: None,
            quiet: true,
        })?;
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            shutdown,
            thread,
        })
    }

    /// Drains the server and waits for it to exit.
    ///
    /// # Errors
    ///
    /// Returns the server's own error, or one if its thread panicked.
    pub fn stop(self) -> io::Result<ShutdownReport> {
        self.shutdown.request_shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Runs `each(client, i)` for every `i` in `0..count`, over
/// [`CONNECTIONS`] parallel connections to `addr`.
fn fan_out(
    addr: SocketAddr,
    count: usize,
    each: impl Fn(&mut Client, usize) -> io::Result<()> + Sync,
) -> io::Result<()> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let each = &each;
                scope.spawn(move || -> io::Result<()> {
                    let mut client = Client::connect(addr)?;
                    (c..count)
                        .step_by(CONNECTIONS)
                        .try_for_each(|i| each(&mut client, i))
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("a setup connection panicked"))
    })
}

/// Creates `names[i]` of family `kinds[i]`, and steps each new tenant
/// once. A tenant's first minute costs several times a later one (its
/// telemetry and controller state are allocated then), so this one-time
/// cost lands in `setup_s`.
///
/// # Errors
///
/// Returns the first transport error or unexpected status.
pub fn create_tenants(
    addr: SocketAddr,
    names: &[String],
    kinds: &[Kind],
    seed: u64,
) -> io::Result<()> {
    fan_out(addr, names.len(), |client, i| {
        let body = create_body(&names[i], kinds[i], seed.wrapping_add(i as u64));
        let response = client.request("POST", "/tenants", body.as_bytes())?;
        if response.status != 201 {
            return Err(io::Error::other(format!(
                "creating {}: HTTP {}: {}",
                names[i],
                response.status,
                response.text()
            )));
        }
        client.post_ok(&format!("/tenants/{}/step", names[i]), "{\"minutes\":1}")?;
        Ok(())
    })
}

/// Advances every tenant to minute [`AGE_MINUTES`], untimed. A tenant's
/// per-minute cost falls over its first minutes as its sensors'
/// adaptive sampling settles; past that the windows see tenants in a
/// steady state, so a window's numbers do not depend on when it ran.
///
/// # Errors
///
/// Returns the first transport error or a reply at another minute.
fn age(addr: SocketAddr, names: &[String]) -> io::Result<()> {
    fan_out(addr, names.len(), |client, i| {
        let reply = client.post_ok(
            &format!("/tenants/{}/advance", names[i]),
            &format!("{{\"to_minute\":{AGE_MINUTES}}}"),
        )?;
        match field_u64(&reply.text(), "minute") {
            Some(AGE_MINUTES) => Ok(()),
            other => Err(io::Error::other(format!(
                "{} advanced to minute {other:?}, not {AGE_MINUTES}",
                names[i]
            ))),
        }
    })
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The operation.
    pub op: Op,
    /// The target tenant's family.
    pub kind: Kind,
    /// From the intended send time to the last response byte.
    pub latency_ns: u64,
    /// From the actual send to the last response byte.
    pub service_ns: u64,
    /// How late the request was sent for its schedule.
    pub lag_ns: u64,
    /// When it was due, from the start of the schedule.
    pub due_ns: u64,
    /// Response body bytes.
    pub response_bytes: usize,
}

/// The generator's view of one tenant between requests.
#[derive(Debug, Default)]
struct TenantView {
    /// The last snapshot's bytes and the minute it was taken at.
    snapshot: Option<(Vec<u8>, u64)>,
    /// The telemetry tap cursor.
    cursor: usize,
}

/// What one window of traffic did.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Every completed request.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Failed requests (transport, non-2xx, or a failed output check).
    pub failed: u64,
    /// Simulated minutes stepped, over all tenants.
    pub stepped_minutes: u64,
    /// Steps that reached the mirror tenant.
    pub mirror_steps: u64,
    /// Wall seconds from the first due time to the last completion.
    pub window_s: f64,
    /// One failure description per failed request (first few kept).
    pub errors: Vec<String>,
    /// One restore body (a real snapshot), for the parse replay.
    pub restore_body: Vec<u8>,
}

impl Traffic {
    /// Samples of one operation, by `pick`.
    #[must_use]
    pub fn of(&self, op: Op, pick: impl Fn(&Sample) -> u64) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|s| s.op == op)
            .map(pick)
            .collect()
    }
}

/// Reads `"field":N` out of a flat JSON reply.
fn field_u64(text: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `tick_ms` stamped in a BZCK envelope's meta block, read without
/// checking the payload CRC (the server that restores it does that).
fn snapshot_tick_ms(bytes: &[u8]) -> Option<u64> {
    use bz_state::Persist as _;
    let meta_len = usize::try_from(u64::from_le_bytes(bytes.get(8..16)?.try_into().ok()?)).ok()?;
    let meta = bytes.get(16..16usize.checked_add(meta_len)?)?;
    let meta = bz_state::CheckpointMeta::load(&mut bz_state::Reader::new(meta)).ok()?;
    Some(meta.tick_ms)
}

/// The request an operation sends to tenant `name`.
fn request_for(op: Op, name: &str, view: &TenantView, k: usize) -> (&'static str, String, Vec<u8>) {
    match op {
        Op::Step => (
            "POST",
            format!("/tenants/{name}/step"),
            b"{\"minutes\":1}".to_vec(),
        ),
        Op::Observe => (
            "POST",
            format!("/tenants/{name}/observe"),
            format!(
                "{{\"name\":\"room.temp_c\",\"value\":{:.1}}}",
                22.0 + (k % 50) as f64 * 0.1
            )
            .into_bytes(),
        ),
        Op::Setpoints => ("GET", format!("/tenants/{name}/setpoints"), Vec::new()),
        Op::Tap => (
            "GET",
            format!("/tenants/{name}/telemetry?from={}", view.cursor),
            Vec::new(),
        ),
        Op::Snapshot => ("GET", format!("/tenants/{name}/snapshot"), Vec::new()),
        Op::Restore => (
            "POST",
            format!("/tenants/{name}/restore"),
            view.snapshot
                .as_ref()
                .map(|(b, _)| b.clone())
                .unwrap_or_default(),
        ),
    }
}

/// Checks one response and updates the tenant view; `Err` names why the
/// request counts as failed. Returns the simulated minutes stepped.
fn check(op: Op, response: &WireResponse, view: &mut TenantView) -> Result<u64, String> {
    if !(200..300).contains(&response.status) {
        return Err(format!(
            "{op:?}: HTTP {}: {}",
            response.status,
            response.text()
        ));
    }
    match op {
        Op::Step => {
            let text = response.text();
            if field_u64(&text, "stepped") != Some(1) || !text.contains("\"done\":false") {
                return Err(format!("step did not advance one live minute: {text}"));
            }
            Ok(1)
        }
        Op::Tap => {
            view.cursor = response
                .header("x-bz-next-cursor")
                .and_then(|v| v.parse().ok())
                .ok_or("tap reply without a cursor")?;
            Ok(0)
        }
        Op::Snapshot => {
            let tick =
                snapshot_tick_ms(&response.body).ok_or("snapshot without a readable tick")?;
            view.snapshot = Some((response.body.clone(), tick / 60_000));
            Ok(0)
        }
        Op::Restore => {
            let expected = view.snapshot.as_ref().map(|(_, minute)| *minute);
            let minute = field_u64(&response.text(), "minute");
            if minute.is_none() || minute != expected {
                return Err(format!(
                    "restore replied minute {minute:?}, its snapshot was taken at {expected:?}"
                ));
            }
            Ok(0)
        }
        Op::Observe | Op::Setpoints => Ok(0),
    }
}

/// Sends `planned` at a fixed `rate` over [`CONNECTIONS`] connections,
/// request `k` going out on connection `k % CONNECTIONS` once it is due;
/// requests still unsent a second after the schedule ends are dropped.
/// Each connection waits for its previous reply before the next send, so
/// a slow reply delays later requests, and that delay is counted: every
/// latency runs from the intended send time.
#[must_use]
pub fn drive(
    addr: SocketAddr,
    names: &[String],
    kinds: &[Kind],
    mirror: usize,
    planned: &[Planned],
    rate: f64,
) -> Traffic {
    let views: Vec<Mutex<TenantView>> = (0..names.len()).map(|_| Mutex::default()).collect();
    let mirror_steps = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    // A generator this far behind its schedule stops sending: the run is
    // invalid anyway (see `MAX_LAG_P99_MS`), and a saturated calibration
    // run stays bounded in time.
    let cutoff = start + intended_offset(planned.len(), rate) + Duration::from_secs(1);
    let per_connection: Vec<Traffic> = std::thread::scope(|scope| {
        let views = &views;
        let mirror_steps = &mirror_steps;
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut traffic = Traffic::default();
                    let mut client = Client::connect(addr).ok();
                    for k in (c..planned.len()).step_by(CONNECTIONS) {
                        let Planned { tenant, op } = planned[k];
                        let due = start + intended_offset(k, rate);
                        let now = Instant::now();
                        if now > cutoff {
                            break;
                        }
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let mut view = views[tenant].lock().expect("a generator thread panicked");
                        let (method, path, body) = request_for(op, &names[tenant], &view, k);
                        if op == Op::Restore && traffic.restore_body.is_empty() {
                            traffic.restore_body.clone_from(&body);
                        }
                        traffic.attempted += 1;
                        let sent = Instant::now();
                        let result = match client.as_mut() {
                            Some(client) => client.request(method, &path, &body),
                            None => Err(io::Error::other("not connected")),
                        };
                        let done = Instant::now();
                        let outcome = match &result {
                            Ok(response) => check(op, response, &mut view),
                            Err(e) => {
                                client = Client::connect(addr).ok();
                                Err(format!("{op:?}: transport: {e}"))
                            }
                        };
                        drop(view);
                        match outcome {
                            Ok(minutes) => {
                                traffic.stepped_minutes += minutes;
                                if tenant == mirror && op == Op::Step {
                                    mirror_steps.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(why) => {
                                traffic.failed += 1;
                                if traffic.errors.len() < 5 {
                                    traffic.errors.push(why);
                                }
                            }
                        }
                        if let Ok(response) = result {
                            traffic.samples.push(Sample {
                                op,
                                kind: kinds[tenant],
                                latency_ns: nanos(done.saturating_duration_since(due)),
                                service_ns: nanos(done - sent),
                                lag_ns: nanos(sent.saturating_duration_since(due)),
                                due_ns: nanos(due - start),
                                response_bytes: response.body.len(),
                            });
                        }
                    }
                    traffic
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("generator thread panicked"))
            .collect()
    });
    let mut total = Traffic {
        window_s: start.elapsed().as_secs_f64(),
        mirror_steps: mirror_steps.load(Ordering::Relaxed),
        ..Traffic::default()
    };
    for part in per_connection {
        total.samples.extend(part.samples);
        total.attempted += part.attempted;
        total.failed += part.failed;
        total.stepped_minutes += part.stepped_minutes;
        total.errors.extend(part.errors);
        if total.restore_body.is_empty() {
            total.restore_body = part.restore_body;
        }
    }
    total.samples.sort_by_key(|s| s.due_ns);
    total
}

/// The sweep spec a trial tenant of `seed` is built from.
fn trial_spec(seed: u64) -> bz_bench::sweep::RunSpec {
    bz_bench::sweep::RunSpec {
        index: 0,
        scenario: bz_bench::sweep::Scenario::Trial,
        seed,
        minutes: TRIAL_MINUTES,
        params: Vec::new(),
    }
}

/// Checks the mirror tenant: its wire export must equal an in-process
/// `TenantSession` of the same spec stepped the same number of minutes.
fn check_mirror(addr: SocketAddr, name: &str, seed: u64, minutes: u64) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let wire = client
        .get_ok(&format!("/tenants/{name}/metrics"))
        .map_err(|e| e.to_string())?
        .body;
    let obs = bz_obs::Handle::isolated();
    let system = bz_bench::sweep::build_system(&trial_spec(seed), obs.clone())?;
    let mut session = bz_core::session::TenantSession::new(system, obs, TRIAL_MINUTES);
    for _ in 0..minutes {
        session.step_minute();
    }
    let mut local = Vec::new();
    session
        .obs()
        .write_jsonl(&mut local)
        .map_err(|e| e.to_string())?;
    if wire == local {
        Ok(())
    } else {
        Err(format!(
            "mirror export after {minutes} steps differs from the in-process session \
             ({} wire bytes, {} local bytes)",
            wire.len(),
            local.len()
        ))
    }
}

/// A populated server ready for traffic.
struct Fleet {
    /// The server.
    server: Running,
    /// Tenant names; the mirror is last.
    names: Vec<String>,
    /// Tenant families, parallel to `names`.
    kinds: Vec<Kind>,
    /// Index of the mirror tenant.
    mirror: usize,
    /// Seed the mirror was created with.
    mirror_seed: u64,
}

/// Binds a fresh server and populates it; returns it with the time that
/// took.
///
/// # Errors
///
/// Returns socket errors and failed creates.
fn setup(shape: &Shape, seed: u64) -> io::Result<(Fleet, f64)> {
    let kinds = shape.kinds();
    let mirror = kinds.len() - 1;
    let names: Vec<String> = (0..kinds.len())
        .map(|i| {
            if i == mirror {
                "mirror".to_owned()
            } else {
                format!("t-{i:04}")
            }
        })
        .collect();
    let start = Instant::now();
    let server = Running::start()?;
    create_tenants(server.addr, &names, &kinds, seed)?;
    let took = start.elapsed().as_secs_f64();
    let fleet = Fleet {
        server,
        names,
        kinds,
        mirror,
        mirror_seed: seed.wrapping_add(mirror as u64),
    };
    Ok((fleet, took))
}

/// Writes the end-to-end metrics of one window.
fn report_window(out: &mut Outcome, traffic: &Traffic) {
    let steps = traffic.of(Op::Step, |s| s.latency_ns);
    out.put(
        "sim_per_wall",
        (traffic.stepped_minutes * 60) as f64 / traffic.window_s,
        "sim-s/s",
    );
    out.put_blocked_p50("step_p50_ms", &steps, 1e-3, "ms");
    out.put_pct("step_p99_ms", &steps, Pct::P99, 1e-3, "ms");
    let completed = traffic.samples.len() as u64 - traffic.failed.min(traffic.samples.len() as u64);
    out.put("served_rps", completed as f64 / traffic.window_s, "req/s");
}

/// Send lag p99 of a window in milliseconds, when the window is long
/// enough.
fn lag_p99_ms(traffic: &Traffic) -> Option<f64> {
    let lags: Vec<u64> = traffic.samples.iter().map(|s| s.lag_ns).collect();
    crate::stats::percentile_us(&lags, Pct::P99).map(|us| us / 1e3)
}

/// A serve workload run.
#[must_use]
pub fn run(shape: &Shape, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (fleet, first_setup_s) = match setup(shape, seed) {
        Ok(ready) => ready,
        Err(e) => {
            out.failed = 1;
            out.problem(format!("setup failed: {e}"));
            return out;
        }
    };

    if let Err(e) = age(fleet.server.addr, &fleet.names) {
        out.failed = 1;
        out.problem(format!("aging the tenants failed: {e}"));
        let _ = fleet.server.stop();
        return out;
    }
    let mut mirror_steps = AGE_MINUTES;

    let steps_only: Vec<bool> = (0..fleet.names.len()).map(|i| i == fleet.mirror).collect();
    let count = (shape.rate * seconds as f64) as usize;
    let window = |plan_seed: u64| {
        let planned = plan(&fleet.kinds, &steps_only, &shape.mix, count, plan_seed);
        drive(
            fleet.server.addr,
            &fleet.names,
            &fleet.kinds,
            fleet.mirror,
            &planned,
            shape.rate,
        )
    };
    let traffic = window(seed);
    out.attempted += traffic.attempted;
    out.failed += traffic.failed;
    for error in &traffic.errors {
        out.problem(error.clone());
    }
    mirror_steps += traffic.mirror_steps;
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    report_window(&mut out, &traffic);
    match lag_p99_ms(&traffic) {
        Some(lag) if lag <= MAX_LAG_P99_MS => {}
        lag => out.problem(format!(
            "generator lag p99 {lag:?} ms exceeds {MAX_LAG_P99_MS} ms: run is invalid"
        )),
    }

    let mut traced = None;
    if trace {
        let second = window(seed ^ 0x7ACE);
        mirror_steps += second.mirror_steps;
        traced = Some(second);
    }

    out.attempted += 1;
    if let Err(why) = check_mirror(
        fleet.server.addr,
        &fleet.names[fleet.mirror],
        fleet.mirror_seed,
        mirror_steps,
    ) {
        out.failed += 1;
        out.problem(why);
    }

    if let Some(second) = traced {
        let untraced_p50 = out.get("step_p50_ms").unwrap_or(f64::NAN);
        let mut traced_out = Outcome::default();
        report_window(&mut traced_out, &second);
        let traced_p50 = traced_out.get("step_p50_ms").unwrap_or(f64::NAN);
        out.attempted += second.attempted;
        out.failed += second.failed;
        crate::layers::report(&mut out, fleet.server.addr, &second, shape.tenants, seed);
        out.put("bench.trace_overhead", traced_p50 / untraced_p50, "ratio");
        match bz_bench::sweep::build_system(&trial_spec(seed), bz_obs::Handle::isolated()) {
            Ok(mut system) => {
                crate::trial::trace_sim(&mut system, crate::layers::TRACE_SIM_SECONDS)
                    .report(&mut out)
            }
            Err(e) => out.problem(e),
        }
    }

    if let Err(e) = fleet.server.stop() {
        out.problem(format!("server did not drain cleanly: {e}"));
    }

    // The remaining setup repetitions run after the measured part, so the
    // memory they leave behind cannot reach `peak_rss_mb`.
    let mut setups = vec![first_setup_s];
    for _ in 1..SETUP_REPS {
        match setup(shape, seed) {
            Ok((again, took)) => {
                setups.push(took);
                if let Err(e) = again.server.stop() {
                    out.problem(format!("server did not drain cleanly: {e}"));
                }
            }
            Err(e) => out.problem(format!("setup failed: {e}")),
        }
    }
    out.put("setup_s", median(&setups), "s");
    out
}
