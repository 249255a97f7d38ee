//! The TCP server: a fixed worker pool over `std::net::TcpListener`,
//! an HTTP router onto the tenant registry, and graceful shutdown with
//! final per-tenant checkpoints.
//!
//! Concurrency model: the accept thread hands connections to `threads`
//! workers over an MPSC channel; each worker owns one connection at a
//! time and serves keep-alive requests on it until the peer closes,
//! errors, or shutdown is requested. A connection that sits idle between
//! requests for a second while another accepted connection waits for a
//! worker is closed, so idle clients cannot lock the server out. Tenant
//! state is behind the sharded registry locks plus one mutex per tenant,
//! so requests for different tenants proceed fully in parallel. A
//! request that panics is answered 500 and its connection closed; the
//! worker goes on to the next connection.
//!
//! Shutdown (SIGINT/SIGTERM or `POST /admin/shutdown`): the listener
//! stops accepting, in-flight connections finish their current request,
//! workers drain and join, and every live tenant is checkpointed into
//! the configured directory via the atomic temp → fsync → rename path.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, Request, Response};
use crate::tenants::{build_tenant, Registry, Tenant};
use bz_obs::{json_escape, JsonF64};

/// How long a worker blocks on an idle keep-alive connection before
/// re-checking the shutdown flag and the queue of waiting connections.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// How long a keep-alive connection may sit idle at a request boundary
/// while another accepted connection waits for a worker, before it is
/// closed to free its worker.
const IDLE_YIELD: Duration = Duration::from_secs(1);

/// How long the accept thread sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7033` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads serving connections.
    pub threads: usize,
    /// Per-tenant bound on concurrently admitted requests; beyond it
    /// requests are shed with 429.
    pub max_inflight: u32,
    /// Where final per-tenant checkpoints go on graceful shutdown
    /// (`None` skips them).
    pub checkpoint_dir: Option<PathBuf>,
    /// Suppress startup/shutdown prints.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7033".to_owned(),
            threads: 8,
            max_inflight: 4,
            checkpoint_dir: None,
            quiet: false,
        }
    }
}

/// What a graceful shutdown left behind.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Tenants live at shutdown.
    pub tenants: usize,
    /// Requests served over the server's lifetime.
    pub requests: u64,
    /// Requests shed (429) over the server's lifetime.
    pub shed: u64,
    /// Final checkpoints written, in name order.
    pub checkpoints: Vec<PathBuf>,
}

/// Shared state every worker sees.
struct Shared {
    registry: Registry,
    shutdown: AtomicBool,
    requests: AtomicU64,
    shed: AtomicU64,
    max_inflight: u32,
    /// Accepted connections no worker has taken yet.
    queued: AtomicUsize,
}

/// A handle that can request shutdown from another thread (the CLI's
/// signal path and the tests use this).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shared>);

impl ShutdownHandle {
    /// Asks the server to stop accepting, drain, and exit `run`.
    pub fn request_shutdown(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
    }
}

/// The bound server, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServeConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the shared state.
    ///
    /// # Errors
    ///
    /// Returns any socket error from binding.
    pub fn bind(config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry: Registry::new(),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            max_inflight: config.max_inflight.max(1),
            queued: AtomicUsize::new(0),
        });
        Ok(Self {
            listener,
            local_addr,
            config,
            shared,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can request shutdown from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared))
    }

    /// Serves until shutdown is requested (admin endpoint, handle, or a
    /// delivered SIGINT/SIGTERM if [`install_signal_handlers`] ran),
    /// then drains, writes final checkpoints, and reports.
    ///
    /// # Errors
    ///
    /// Returns socket errors from the accept loop and checkpoint I/O
    /// errors from the final drain.
    pub fn run(self) -> io::Result<ShutdownReport> {
        self.listener.set_nonblocking(true)?;
        let (sender, receiver) = mpsc::channel::<TcpStream>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers: Vec<_> = (0..self.config.threads.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("bz-serve-{i}"))
                    .spawn(move || worker_loop(&receiver, &shared))
                    .expect("spawning a worker thread")
            })
            .collect();

        if !self.config.quiet {
            println!("bz-serve listening on {}", self.local_addr);
        }
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) || signal_requested() {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Bounded read timeout so idle keep-alive connections
                    // notice shutdown at request boundaries.
                    let _ = stream.set_read_timeout(Some(IDLE_POLL));
                    let _ = stream.set_nodelay(true);
                    self.shared.queued.fetch_add(1, Ordering::Relaxed);
                    if sender.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: close the channel, let workers finish their connections.
        drop(sender);
        for worker in workers {
            let _ = worker.join();
        }

        let tenants = self.shared.registry.all();
        let mut checkpoints = Vec::new();
        if let Some(dir) = &self.config.checkpoint_dir {
            std::fs::create_dir_all(dir)?;
            for tenant in &tenants {
                let path = dir.join(format!("tenant-{}.bzck", tenant.name));
                tenant
                    .snapshot()
                    .write_atomic(&path)
                    .map_err(|e| io::Error::other(e.to_string()))?;
                checkpoints.push(path);
            }
        }
        let report = ShutdownReport {
            tenants: tenants.len(),
            requests: self.shared.requests.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            checkpoints,
        };
        if !self.config.quiet {
            println!(
                "bz-serve drained: {} tenants, {} requests served, {} shed, {} checkpoints",
                report.tenants,
                report.requests,
                report.shed,
                report.checkpoints.len()
            );
        }
        Ok(report)
    }
}

fn worker_loop(receiver: &Mutex<mpsc::Receiver<TcpStream>>, shared: &Shared) {
    loop {
        let stream = {
            let guard = receiver
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok(stream) = stream else {
            return; // channel closed: shutdown drain
        };
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        let _ = serve_connection(stream, shared);
    }
}

/// Serves one connection's keep-alive request sequence.
fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Since when this connection, idle at a request boundary, has seen
    // another connection waiting for a worker.
    let mut waited_on_since: Option<Instant> = None;
    loop {
        // Wait at the request boundary for the next request's first bytes.
        if reader.buffer().is_empty() {
            match reader.fill_buf() {
                Ok([]) => return Ok(()), // peer closed cleanly
                Ok(_) => waited_on_since = None,
                Err(e) if timed_out(&e) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    if shared.queued.load(Ordering::Relaxed) == 0 {
                        waited_on_since = None;
                    } else if waited_on_since.get_or_insert_with(Instant::now).elapsed()
                        >= IDLE_YIELD
                    {
                        return Ok(()); // free the worker for the waiting one
                    }
                    continue;
                }
                Err(_) => return Ok(()), // torn connection
            }
        }
        let request = match http::read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()), // peer closed cleanly
            Err(e) if timed_out(&e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue; // a request stalled mid-way
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let too_large = e.get_ref().is_some_and(|e| e.is::<http::BodyTooLarge>());
                let response = Response::error(if too_large { 413 } else { 400 }, &e.to_string());
                let _ = response.write_to(&mut writer, false);
                return Ok(());
            }
            Err(_) => return Ok(()), // torn connection
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        let keep_alive = !request.wants_close() && !shutting_down;
        // A panicking request (say, a step over restored state that is out
        // of physical range) ends its connection, not the worker.
        let response = match panic::catch_unwind(AssertUnwindSafe(|| route(&request, shared))) {
            Ok(response) => response,
            Err(payload) => {
                let why = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("unknown cause");
                let response = Response::error(500, &format!("the request panicked: {why}"));
                let _ = response.write_to(&mut writer, false);
                return Ok(());
            }
        };
        response.write_to(&mut writer, keep_alive)?;
        writer.flush()?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Whether a read gave up at the socket's read timeout.
fn timed_out(e: &io::Error) -> bool {
    e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut
}

/// Dispatches one request against the registry.
fn route(request: &Request, shared: &Shared) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(200, "{\"ok\":true}".to_owned()),
        ("GET", ["stats"]) => Response::json(
            200,
            format!(
                "{{\"tenants\":{},\"requests\":{},\"shed\":{}}}",
                shared.registry.len(),
                shared.requests.load(Ordering::Relaxed),
                shared.shed.load(Ordering::Relaxed)
            ),
        ),
        ("POST", ["admin", "shutdown"]) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::json(200, "{\"ok\":true,\"draining\":true}".to_owned())
        }
        ("POST", ["tenants"]) => create_tenant(request, shared),
        ("GET", ["tenants"]) => list_tenants(shared),
        (method, ["tenants", name]) => match (method, shared.registry.get(name)) {
            (_, None) => not_found(name),
            ("GET", Some(tenant)) => Response::json(200, tenant_status(&tenant)),
            ("DELETE", Some(_)) => {
                shared.registry.remove(name);
                Response {
                    status: 204,
                    content_type: "application/json",
                    headers: Vec::new(),
                    body: Vec::new(),
                }
            }
            _ => method_not_allowed(),
        },
        (method, ["tenants", name, action]) => match shared.registry.get(name) {
            None => not_found(name),
            Some(tenant) => {
                let Some(_permit) = tenant.admit(shared.max_inflight) else {
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    return Response::error(
                        429,
                        &format!("tenant '{name}' is at its in-flight bound; retry"),
                    );
                };
                tenant_action(method, action, request, &tenant)
            }
        },
        _ => Response::error(404, &format!("no route for {}", request.path)),
    }
}

fn tenant_action(method: &str, action: &str, request: &Request, tenant: &Tenant) -> Response {
    match (method, action) {
        ("POST", "step") => {
            let minutes = match body_u64(request, "minutes", 1) {
                Ok(minutes) => minutes,
                Err(response) => return *response,
            };
            let stepped = tenant.step_minutes(minutes);
            step_report(stepped, tenant.progress())
        }
        ("POST", "advance") => {
            let target = match body_u64(request, "to_minute", tenant.total_minutes) {
                Ok(target) => target,
                Err(response) => return *response,
            };
            let stepped = tenant.advance_to_minute(target);
            step_report(stepped, tenant.progress())
        }
        ("POST", "observe") => {
            let body = String::from_utf8_lossy(&request.body);
            let doc = match bz_core::json::Json::parse(&body) {
                Ok(doc) => doc,
                Err(e) => return Response::error(400, &e.to_string()),
            };
            let Some(name) = doc.field("name").and_then(bz_core::json::Json::as_str) else {
                return Response::error(400, "missing string field 'name'");
            };
            if !crate::tenants::valid_name(name) {
                return Response::error(400, "'name' must be 1-128 chars of [A-Za-z0-9._-]");
            }
            let Some(value) = doc.field("value").and_then(bz_core::json::Json::as_f64) else {
                return Response::error(400, "missing number field 'value'");
            };
            match tenant.ingest(name, value) {
                Some(now_ms) => Response::json(200, format!("{{\"ok\":true,\"now_ms\":{now_ms}}}")),
                None => Response::error(
                    409,
                    &format!(
                        "tenant '{}' already records {} ingest names; '{name}' is not one",
                        tenant.name,
                        crate::tenants::MAX_INGEST_NAMES
                    ),
                ),
            }
        }
        ("GET", "setpoints") => match tenant.readback() {
            Some(readback) => Response::json(200, readback_json(&readback)),
            None => Response::error(
                409,
                &format!(
                    "tenant '{}' runs the {} scenario, which exposes status only",
                    tenant.name, tenant.scenario
                ),
            ),
        },
        ("GET", "metrics") => Response::jsonl(200, tenant.metrics_jsonl()),
        ("GET", "telemetry") => {
            let from = request
                .query_param("from")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(0);
            let (lines, next) = tenant.telemetry_from(from);
            Response::jsonl(200, lines).with_header("x-bz-next-cursor", next.to_string())
        }
        ("GET", "snapshot") => Response::octets(200, tenant.snapshot().to_wire_bytes())
            .with_header("x-bz-config-crc", format!("{:016x}", tenant.id.crc())),
        ("POST", "restore") => {
            let checkpoint = match bz_state::Checkpoint::from_wire_bytes(&request.body) {
                Ok(checkpoint) => checkpoint,
                Err(e) => return Response::error(400, &e.to_string()),
            };
            match tenant.restore(&checkpoint) {
                Ok(now_ms) => Response::json(
                    200,
                    format!(
                        "{{\"ok\":true,\"minute\":{},\"now_ms\":{now_ms}}}",
                        now_ms / 60_000
                    ),
                ),
                Err(message) => Response::error(409, &message),
            }
        }
        _ => method_not_allowed(),
    }
}

fn create_tenant(request: &Request, shared: &Shared) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::error(503, "server is draining");
    }
    let body = String::from_utf8_lossy(&request.body);
    let tenant = match build_tenant(&body) {
        Ok(tenant) => tenant,
        Err(e) => return Response::error(e.status, &e.message),
    };
    match shared.registry.insert(tenant) {
        Ok(tenant) => Response::json(201, tenant_status(&tenant)),
        Err(e) => Response::error(e.status, &e.message),
    }
}

fn list_tenants(shared: &Shared) -> Response {
    let tenants = shared.registry.all();
    let mut body = String::from("{\"tenants\":[");
    for (i, tenant) in tenants.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('"');
        body.push_str(&json_escape(&tenant.name));
        body.push('"');
    }
    body.push_str(&format!("],\"count\":{}}}", tenants.len()));
    Response::json(200, body)
}

fn tenant_status(tenant: &Tenant) -> String {
    let (now_ms, done) = tenant.progress();
    format!(
        "{{\"name\":\"{}\",\"scenario\":\"{}\",\"now_ms\":{now_ms},\"minute\":{},\
         \"total_minutes\":{},\"done\":{done},\"config_crc\":\"{:016x}\",\"shed\":{}}}",
        json_escape(&tenant.name),
        json_escape(&tenant.scenario),
        now_ms / 60_000,
        tenant.total_minutes,
        tenant.id.crc(),
        tenant.shed.load(Ordering::Relaxed)
    )
}

/// The reply to a step or advance: minutes stepped plus the tenant's
/// progress, whose fields come from one read under the tenant lock.
fn step_report(stepped: u64, (now_ms, done): (u64, bool)) -> Response {
    Response::json(
        200,
        format!(
            "{{\"stepped\":{stepped},\"minute\":{},\"now_ms\":{now_ms},\"done\":{done}}}",
            now_ms / 60_000
        ),
    )
}

fn readback_json(readback: &bz_core::session::SetpointReadback) -> String {
    let mut body = format!("{{\"now_ms\":{},", readback.now_ms);
    body.push_str("\"zone_temp_c\":[");
    push_f64s(&mut body, &readback.zone_temp_c);
    body.push_str("],\"zone_dew_c\":[");
    push_f64s(&mut body, &readback.zone_dew_c);
    body.push_str("],\"radiant_v\":[");
    for (i, (supply, recycle)) in readback.radiant_v.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"supply\":{},\"recycle\":{}}}",
            JsonF64(*supply),
            JsonF64(*recycle)
        ));
    }
    body.push_str("],\"airboxes\":[");
    for (i, airbox) in readback.airboxes.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"coil_pump_v\":{},\"fan\":\"{}\",\"flap_open\":{}}}",
            JsonF64(airbox.coil_pump_v),
            airbox.fan,
            airbox.flap_open
        ));
    }
    body.push_str(&format!("],\"strategy\":\"{}\"}}", readback.strategy));
    body
}

fn push_f64s(body: &mut String, values: &[f64]) {
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&JsonF64(*value).to_string());
    }
}

/// Reads `{"<field>": N}` from the request body, defaulting when the
/// body is empty or the field is absent.
fn body_u64(request: &Request, field: &str, default: u64) -> Result<u64, Box<Response>> {
    if request.body.is_empty() {
        return Ok(default);
    }
    let body = String::from_utf8_lossy(&request.body);
    let doc = bz_core::json::Json::parse(&body)
        .map_err(|e| Box::new(Response::error(400, &e.to_string())))?;
    doc.field(field).map_or(Ok(default), |value| {
        value
            .whole(field, bz_core::json::MAX_WHOLE)
            .map_err(|e| Box::new(Response::error(400, &e.to_string())))
    })
}

fn not_found(name: &str) -> Response {
    Response::error(404, &format!("no tenant named '{name}'"))
}

fn method_not_allowed() -> Response {
    Response::error(405, "method not allowed on this route")
}

#[cfg(unix)]
mod signals {
    //! Minimal libc-free signal hook: `signal(2)` via a raw FFI
    //! declaration, flipping one process-wide flag the accept loop
    //! polls. `bz_core` forbids unsafe code, so this single unsafe
    //! block lives here in the serve layer.

    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// Routes SIGINT and SIGTERM into a graceful drain of any running
/// server in this process. Call once before [`Server::run`].
pub fn install_signal_handlers() {
    #[cfg(unix)]
    signals::install();
}

fn signal_requested() -> bool {
    #[cfg(unix)]
    {
        signals::requested()
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::tenants::tenant;
    use bz_core::checkpoint::RunIdentity;
    use bz_core::session::Session;

    /// A session whose every step panics, as one restored over state
    /// out of physical range would.
    struct PanicsOnStep;

    impl Session for PanicsOnStep {
        fn now_ms(&self) -> u64 {
            0
        }

        fn is_done(&self) -> bool {
            false
        }

        fn step_minute(&mut self) {
            panic!("a step over state out of range");
        }

        fn save_state(&self, _: &mut bz_state::Writer) {}

        fn load_state(&mut self, _: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
            Ok(())
        }
    }

    #[test]
    fn panicking_requests_get_500_and_the_workers_live_on() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            quiet: true,
            ..ServeConfig::default()
        })
        .expect("binding a loopback listener");
        let id = RunIdentity::new(
            crate::tenants::CHECKPOINT_KIND,
            "panics",
            bz_simcore::NoiseKernel::default(),
        );
        let panics = tenant(
            "panics".to_owned(),
            "trial",
            id,
            30,
            bz_obs::Handle::isolated(),
            Box::new(PanicsOnStep),
        );
        server.shared.registry.insert(panics).unwrap();
        let (addr, handle) = (server.local_addr(), server.shutdown_handle());
        let thread = std::thread::spawn(move || server.run());
        let connect = || Client::connect(addr).expect("connecting to the test server");

        // This connection holds one worker for the whole test.
        let mut client = connect();
        let spec = "{\"name\":\"ok\",\"scenario\":\"trial\",\"seed\":7,\"minutes\":30}";
        client.post_ok("/tenants", spec).unwrap();
        client
            .post_ok("/tenants/ok/step", "{\"minutes\":1}")
            .unwrap();
        for _ in 0..3 {
            let stepped = connect()
                .request("POST", "/tenants/panics/step", b"{\"minutes\":1}")
                .expect("a 500, not a dropped connection");
            assert_eq!(stepped.status, 500, "{}", stepped.text());
            assert!(stepped.text().contains("a step over state out of range"));
            assert_eq!(stepped.header("connection"), Some("close"));
        }
        assert_eq!(connect().get_ok("/healthz").unwrap().status, 200);
        let stepped = connect()
            .post_ok("/tenants/ok/step", "{\"minutes\":1}")
            .unwrap()
            .text();
        assert!(stepped.contains("\"minute\":2"), "{stepped}");
        handle.request_shutdown();
        thread
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }
}
