//! End-to-end tests over a real TCP socket: the determinism contract
//! (wire-driven tenants export the offline bytes), snapshot/restore
//! across server instances and from a format-2 build, backpressure
//! shedding, the 400/413/500 paths, idle connections yielding to
//! waiting ones, and graceful shutdown with final checkpoints.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bz_serve::server::ShutdownReport;
use bz_serve::{Client, ServeConfig, Server};

/// A server running on its own thread, torn down via the shutdown
/// handle when the test is done.
struct TestServer {
    addr: SocketAddr,
    handle: bz_serve::server::ShutdownHandle,
    thread: JoinHandle<std::io::Result<ShutdownReport>>,
}

fn start(config: ServeConfig) -> TestServer {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        quiet: true,
        ..config
    })
    .expect("binding a loopback listener");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    TestServer {
        addr,
        handle,
        thread,
    }
}

impl TestServer {
    fn client(&self) -> Client {
        Client::connect(self.addr).expect("connecting to the test server")
    }

    fn stop(self) -> ShutdownReport {
        self.handle.request_shutdown();
        self.thread
            .join()
            .expect("server thread")
            .expect("clean shutdown")
    }
}

#[test]
fn wire_driven_tenant_exports_the_offline_bytes() {
    let server = start(ServeConfig::default());
    let mut client = server.client();

    client
        .post_ok(
            "/tenants",
            "{\"name\":\"det\",\"scenario\":\"trial\",\"seed\":7,\"minutes\":5}",
        )
        .unwrap();
    // Drive it over the wire in mixed-size steps.
    client
        .post_ok("/tenants/det/step", "{\"minutes\":2}")
        .unwrap();
    client
        .post_ok("/tenants/det/advance", "{\"to_minute\":5}")
        .unwrap();
    let status = client.get_ok("/tenants/det").unwrap().text();
    assert!(status.contains("\"done\":true"), "{status}");
    let wire = client.get_ok("/tenants/det/metrics").unwrap().body;

    let offline = bz_bench::sweep::run_one(&bz_bench::sweep::RunSpec {
        index: 0,
        scenario: bz_bench::sweep::Scenario::Trial,
        seed: 7,
        minutes: 5,
        params: Vec::new(),
    })
    .unwrap();
    assert_eq!(
        wire, offline.metrics_jsonl,
        "wire pacing must not change a single exported byte"
    );
    server.stop();
}

#[test]
fn snapshot_restores_across_server_instances() {
    let source = start(ServeConfig::default());
    let spec = "{\"name\":\"mig\",\"scenario\":\"trial\",\"seed\":11,\"minutes\":4}";
    let mut client = source.client();
    client.post_ok("/tenants", spec).unwrap();
    client
        .post_ok("/tenants/mig/step", "{\"minutes\":2}")
        .unwrap();
    let snapshot = client.get_ok("/tenants/mig/snapshot").unwrap();
    let crc = snapshot.header("x-bz-config-crc").unwrap().to_owned();
    let envelope = snapshot.body;
    source.stop();

    // A brand-new server instance: create the same config, restore the
    // envelope, finish the run.
    let target = start(ServeConfig::default());
    let mut client = target.client();
    let created = client.post_ok("/tenants", spec).unwrap().text();
    assert!(created.contains(&crc), "same config ⇒ same identity CRC");
    let restored = client
        .request("POST", "/tenants/mig/restore", &envelope)
        .unwrap();
    assert_eq!(restored.status, 200, "{}", restored.text());
    assert!(restored.text().contains("\"minute\":2"));
    client.post_ok("/tenants/mig/advance", "").unwrap();
    let migrated = client.get_ok("/tenants/mig/metrics").unwrap().body;
    target.stop();

    let offline = bz_bench::sweep::run_one(&bz_bench::sweep::RunSpec {
        index: 0,
        scenario: bz_bench::sweep::Scenario::Trial,
        seed: 11,
        minutes: 4,
        params: Vec::new(),
    })
    .unwrap();
    assert_eq!(
        migrated, offline.metrics_jsonl,
        "a restore over the wire must continue byte-identically"
    );
}

#[test]
fn restore_replies_report_the_snapshot_minute_while_other_clients_step() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    client
        .post_ok("/tenants", "{\"name\":\"race\",\"seed\":4,\"minutes\":600}")
        .unwrap();
    client
        .post_ok("/tenants/race/step", "{\"minutes\":2}")
        .unwrap();
    let envelope = client.get_ok("/tenants/race/snapshot").unwrap().body;

    // Three more clients step the same tenant for as long as the restores
    // run (four requests fit the default admission bound), so steps keep
    // landing right after a restore.
    let stop = Arc::new(AtomicBool::new(false));
    let steppers: Vec<_> = (0..3)
        .map(|_| {
            let (addr, stop) = (server.addr, Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut steps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let response = client
                        .request("POST", "/tenants/race/step", b"{\"minutes\":1}")
                        .unwrap();
                    assert_eq!(response.status, 200, "{}", response.text());
                    steps += 1;
                }
                steps
            })
        })
        .collect();
    for _ in 0..200 {
        let restored = client
            .request("POST", "/tenants/race/restore", &envelope)
            .unwrap();
        assert_eq!(restored.status, 200, "{}", restored.text());
        assert!(
            restored.text().contains("\"minute\":2,\"now_ms\":120000}"),
            "a restore reply must report the snapshot's minute: {}",
            restored.text()
        );
    }
    stop.store(true, Ordering::Relaxed);
    for stepper in steppers {
        assert!(
            stepper.join().unwrap() > 0,
            "every stepper ran concurrently"
        );
    }
    server.stop();
}

#[test]
fn restore_refuses_a_snapshot_of_a_different_config() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    client
        .post_ok("/tenants", "{\"name\":\"a\",\"seed\":1,\"minutes\":3}")
        .unwrap();
    client
        .post_ok("/tenants", "{\"name\":\"b\",\"seed\":2,\"minutes\":3}")
        .unwrap();
    let envelope = client.get_ok("/tenants/a/snapshot").unwrap().body;
    let refused = client
        .request("POST", "/tenants/b/restore", &envelope)
        .unwrap();
    assert_eq!(refused.status, 409, "{}", refused.text());
    assert!(refused.text().contains("different configuration"));
    server.stop();
}

#[test]
fn telemetry_tap_pages_through_the_event_stream() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    client
        .post_ok("/tenants", "{\"name\":\"t\",\"seed\":3,\"minutes\":3}")
        .unwrap();
    client
        .post_ok("/tenants/t/step", "{\"minutes\":1}")
        .unwrap();
    let first = client.get_ok("/tenants/t/telemetry?from=0").unwrap();
    let cursor: usize = first.header("x-bz-next-cursor").unwrap().parse().unwrap();
    assert!(cursor > 0);
    assert!(!first.body.is_empty());

    client.post_ok("/tenants/t/advance", "").unwrap();
    let rest = client
        .get_ok(&format!("/tenants/t/telemetry?from={cursor}"))
        .unwrap();
    let full = client.get_ok("/tenants/t/metrics").unwrap().body;
    let mut stitched = first.body.clone();
    stitched.extend_from_slice(&rest.body);
    assert!(
        full.starts_with(&stitched),
        "paged telemetry must reassemble into the export's event prefix"
    );
    server.stop();
}

#[test]
fn shutdown_writes_final_checkpoints() {
    let dir = std::env::temp_dir().join(format!("bz-serve-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = start(ServeConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = server.client();
    client
        .post_ok("/tenants", "{\"name\":\"ck-1\",\"seed\":5,\"minutes\":3}")
        .unwrap();
    client
        .post_ok("/tenants", "{\"name\":\"ck-2\",\"seed\":6,\"minutes\":3}")
        .unwrap();
    client
        .post_ok("/tenants/ck-1/step", "{\"minutes\":2}")
        .unwrap();
    // Shutdown over the wire, like an operator would.
    client.post_ok("/admin/shutdown", "").unwrap();
    let report = server.thread.join().unwrap().unwrap();
    assert_eq!(report.tenants, 2);
    assert_eq!(report.checkpoints.len(), 2);

    let envelope = bz_state::Checkpoint::read(&dir.join("tenant-ck-1.bzck")).unwrap();
    assert_eq!(envelope.meta.kind, "serve");
    assert_eq!(envelope.meta.tick_ms, 120_000, "checkpointed mid-run state");
    assert!(envelope.meta.label.contains("noise="));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_bound_sheds_with_429_under_load() {
    let server = start(ServeConfig {
        max_inflight: 1,
        threads: 8,
        ..ServeConfig::default()
    });
    let mut client = server.client();
    client
        .post_ok(
            "/tenants",
            "{\"name\":\"hot\",\"scenario\":\"trial\",\"seed\":9,\"minutes\":60}",
        )
        .unwrap();

    // Hammer one tenant from several connections; with a bound of one
    // in-flight request, some must be shed with 429 and the server must
    // stay consistent throughout.
    let addr = server.addr;
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut shed = 0u64;
                for _ in 0..20 {
                    let response = client
                        .request("POST", "/tenants/hot/step", b"{\"minutes\":1}")
                        .unwrap();
                    match response.status {
                        200 => {}
                        429 => shed += 1,
                        other => panic!("unexpected status {other}: {}", response.text()),
                    }
                }
                shed
            })
        })
        .collect();
    let shed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        shed > 0,
        "4 hammering connections against a bound of 1 must shed"
    );

    let stats = client.get_ok("/stats").unwrap().text();
    assert!(stats.contains(&format!("\"shed\":{shed}")), "{stats}");
    server.stop();
}

#[test]
fn unknown_routes_and_tenants_are_clean_errors() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    assert_eq!(client.request("GET", "/nope", b"").unwrap().status, 404);
    assert_eq!(
        client.request("GET", "/tenants/ghost", b"").unwrap().status,
        404
    );
    assert_eq!(
        client
            .request("PATCH", "/tenants/ghost", b"")
            .unwrap()
            .status,
        404
    );
    let bad = client.request("POST", "/tenants", b"{").unwrap();
    assert_eq!(bad.status, 400);
    client
        .post_ok("/tenants", "{\"name\":\"x\",\"seed\":1,\"minutes\":2}")
        .unwrap();
    assert_eq!(
        client.request("PATCH", "/tenants/x", b"").unwrap().status,
        405
    );
    let dup = client
        .request(
            "POST",
            "/tenants",
            b"{\"name\":\"x\",\"seed\":1,\"minutes\":2}",
        )
        .unwrap();
    assert_eq!(dup.status, 409);
    assert_eq!(
        client.request("DELETE", "/tenants/x", b"").unwrap().status,
        204
    );
    assert_eq!(
        client.request("GET", "/tenants/x", b"").unwrap().status,
        404
    );
    server.stop();
}

/// Posts one reading named `name` to tenant `tenant`'s observe route.
fn observe(client: &mut Client, tenant: &str, name: &str, value: f64) -> (u16, String) {
    let body = format!("{{\"name\":\"{name}\",\"value\":{value}}}");
    let reply = client
        .request(
            "POST",
            &format!("/tenants/{tenant}/observe"),
            body.as_bytes(),
        )
        .unwrap();
    (reply.status, reply.text())
}

#[test]
fn an_ingested_reading_is_a_gauge_at_the_tenant_clock() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    client
        .post_ok("/tenants", r#"{"name":"i","minutes":3}"#)
        .unwrap();
    client
        .post_ok("/tenants/i/step", r#"{"minutes":1}"#)
        .unwrap();
    let (status, body) = observe(&mut client, "i", "room.temp_c", 24.5);
    assert_eq!(
        (status, body.as_str()),
        (200, r#"{"ok":true,"now_ms":60000}"#)
    );
    let metrics = client.get_ok("/tenants/i/metrics").unwrap().text();
    assert!(
        metrics.contains(
            "{\"kind\":\"gauge\",\"name\":\"ingest.room.temp_c\",\"t_ms\":60000,\"value\":24.5}\n"
        ),
        "{metrics}"
    );
    server.stop();
}

#[test]
fn an_ingest_name_outside_the_tenant_name_rule_is_refused() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    client
        .post_ok("/tenants", r#"{"name":"i","minutes":3}"#)
        .unwrap();
    let too_long = "n".repeat(129);
    for name in ["", "room temp", "room/temp", "t\\u00e9", too_long.as_str()] {
        let (status, body) = observe(&mut client, "i", name, 1.0);
        assert_eq!(status, 400, "{name:?}: {body}");
        assert!(body.contains("1-128 chars"), "{body}");
    }
    let metrics = client.get_ok("/tenants/i/metrics").unwrap().text();
    assert!(!metrics.contains("ingest."), "{metrics}");
    let longest = "n".repeat(128);
    assert_eq!(observe(&mut client, "i", &longest, 1.0).0, 200);
    server.stop();
}

#[test]
fn a_new_ingest_name_past_the_cap_is_refused() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    client
        .post_ok("/tenants", r#"{"name":"i","minutes":3}"#)
        .unwrap();
    for n in 0..bz_serve::tenants::MAX_INGEST_NAMES {
        assert_eq!(observe(&mut client, "i", &format!("s{n}"), 1.0).0, 200);
    }
    let (status, body) = observe(&mut client, "i", "one.more", 1.0);
    assert_eq!(status, 409, "{body}");
    // A name the tenant already records is still accepted.
    assert_eq!(observe(&mut client, "i", "s7", 2.0).0, 200);
    let metrics = client.get_ok("/tenants/i/metrics").unwrap().text();
    assert!(!metrics.contains("one.more"), "{metrics}");
    assert_eq!(
        metrics.matches("\"kind\":\"gauge_last\"").count(),
        bz_serve::tenants::MAX_INGEST_NAMES
    );
    server.stop();
}

#[test]
fn documents_that_would_panic_or_clamp_are_refused() {
    // Each used to be accepted: the seed rounded to 2^53, the minutes
    // clamped to u64::MAX, and the mpc, noise-burst and door tenants
    // panicked (or, in release, wrapped their clock) on a later step.
    let server = start(ServeConfig::default());
    let mut client = server.client();
    for doc in [
        r#"{"name":"s","scenario":"trial","seed":9007199254740993,"minutes":5}"#,
        r#"{"name":"t","scenario":"trial","minutes":1e300}"#,
        r#"{"name":"m","scenario":"mpc","seed":1,"duration_min":60,"period_s":3600,
            "windows":[{"subspace":0,"start_s":0,"end_s":1800,"count":5000}]}"#,
        r#"{"name":"n","scenario":"chaos","faults":[{"layer":"sensor",
            "kind":"noise_burst","target":"room","index":0,"sd":-5,"at_s":60}]}"#,
        r#"{"name":"d","scenario":"chaos","disturbances":[{"kind":"door",
            "at_s":60,"duration_s":1e300}]}"#,
    ] {
        let reply = client.request("POST", "/tenants", doc.as_bytes()).unwrap();
        assert_eq!(reply.status, 400, "{doc}: {}", reply.text());
    }
    client
        .post_ok("/tenants", r#"{"name":"ok","minutes":2}"#)
        .unwrap();
    let step = client
        .request("POST", "/tenants/ok/step", br#"{"minutes":1e300}"#)
        .unwrap();
    assert_eq!(step.status, 400, "{}", step.text());
    assert!(step.text().contains("'minutes' must be a whole number"));
    client
        .post_ok("/tenants/ok/step", r#"{"minutes":1}"#)
        .unwrap();
    server.stop();
}

#[test]
fn deeply_nested_request_body_is_a_clean_400() {
    // Unbounded JSON recursion used to overflow a worker's stack, which
    // aborts the whole server.
    let server = start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let mut client = server.client();
    let deep = "[".repeat(10_000);
    let reply = client
        .request("POST", "/tenants", deep.as_bytes())
        .expect("the server answers instead of aborting");
    assert_eq!(reply.status, 400, "{}", reply.text());
    assert_eq!(server.client().get_ok("/healthz").unwrap().status, 200);
    server.stop();
}

#[test]
fn a_chunked_request_gets_one_400_and_a_close() {
    // A chunked body used to be read as empty, and its chunk lines were
    // then parsed as the next request on the same connection.
    use std::io::{Read, Write};
    let server = start(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr).unwrap();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        )
        .unwrap();
    let mut replies = String::new();
    stream.read_to_string(&mut replies).unwrap();
    assert_eq!(replies.matches("HTTP/1.1 ").count(), 1, "{replies}");
    assert!(replies.starts_with("HTTP/1.1 400 "), "{replies}");
    server.stop();
}

#[test]
fn an_over_limit_body_gets_413_before_it_is_read() {
    use std::io::{Read, Write};
    let server = start(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr).unwrap();
    let head = format!(
        "POST /tenants HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        bz_serve::http::MAX_BODY_BYTES + 1
    );
    stream.write_all(head.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");
    assert!(reply.contains("connection: close\r\n"), "{reply}");
    assert_eq!(server.client().get_ok("/healthz").unwrap().status, 200);
    server.stop();
}

#[test]
fn panicking_requests_get_500_and_the_workers_live_on() {
    // A restore can decode and still leave physical state out of range,
    // so that the next step panics. That used to end a worker for good.
    let server = start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let spec = |name: &str| {
        format!("{{\"name\":\"{name}\",\"scenario\":\"trial\",\"seed\":7,\"minutes\":30}}")
    };
    // This connection holds one worker for the whole test.
    let mut client = server.client();
    client.post_ok("/tenants", &spec("ok")).unwrap();
    client
        .post_ok("/tenants/ok/step", "{\"minutes\":1}")
        .unwrap();
    let snapshot = client.get_ok("/tenants/ok/snapshot").unwrap().body;
    let mut broken = bz_state::Checkpoint::from_wire_bytes(&snapshot).unwrap();
    broken.payload[88] ^= 0xFF;
    let broken = broken.to_wire_bytes();
    for i in 0..3 {
        let name = format!("p{i}");
        client.post_ok("/tenants", &spec(&name)).unwrap();
        let restored = client
            .request("POST", &format!("/tenants/{name}/restore"), &broken)
            .unwrap();
        assert_eq!(restored.status, 200, "{}", restored.text());
        let stepped = server
            .client()
            .request("POST", &format!("/tenants/{name}/step"), b"{\"minutes\":1}")
            .expect("a 500, not a dropped connection");
        assert_eq!(stepped.status, 500, "{}", stepped.text());
        assert_eq!(stepped.header("connection"), Some("close"));
    }
    assert_eq!(server.client().get_ok("/healthz").unwrap().status, 200);
    let stepped = server
        .client()
        .post_ok("/tenants/ok/step", "{\"minutes\":1}")
        .unwrap()
        .text();
    assert!(stepped.contains("\"minute\":2"), "{stepped}");
    server.stop();
}

#[test]
fn a_format_2_snapshot_restores_and_replays_the_uninterrupted_export() {
    // Downloaded from a format-2 build at minute 1 of this tenant's run.
    let envelope = include_bytes!("fixtures/trial-s7-minute1-v2.bzck");
    assert_eq!(envelope[4..8], 2u32.to_le_bytes());
    /// CRC-64/XZ of that build's export of the same run, uninterrupted.
    const UNINTERRUPTED_CRC: u64 = 0xb966_637c_b0ed_b876;
    let server = start(ServeConfig::default());
    let mut client = server.client();
    client
        .post_ok(
            "/tenants",
            "{\"name\":\"legacy\",\"scenario\":\"trial\",\"seed\":7,\"minutes\":3}",
        )
        .unwrap();
    let restored = client
        .request("POST", "/tenants/legacy/restore", envelope)
        .unwrap();
    assert_eq!(restored.status, 200, "{}", restored.text());
    assert!(restored.text().contains("\"minute\":1"));
    client.post_ok("/tenants/legacy/advance", "").unwrap();
    let replayed = client.get_ok("/tenants/legacy/metrics").unwrap().body;
    server.stop();
    assert_eq!(bz_state::crc64::checksum(&replayed), UNINTERRUPTED_CRC);
}

#[test]
fn an_idle_keep_alive_connection_yields_its_worker_to_a_waiting_one() {
    // With one worker, a client that sent a request and then went quiet
    // must not keep the worker from a client that is waiting for it.
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};
    let server = start(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let mut idle = std::net::TcpStream::connect(server.addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    idle.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let mut reply = Vec::new();
    let mut chunk = [0u8; 512];
    while !reply.ends_with(b"{\"ok\":true}") {
        let n = idle.read(&mut chunk).unwrap();
        assert!(n > 0, "closed before the first reply");
        reply.extend_from_slice(&chunk[..n]);
    }
    assert!(reply.starts_with(b"HTTP/1.1 200 "));

    let mut waiting = std::net::TcpStream::connect(server.addr).unwrap();
    let bound = Duration::from_millis(2_500);
    waiting.set_read_timeout(Some(bound)).unwrap();
    let asked = Instant::now();
    waiting
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut answer = String::new();
    waiting
        .read_to_string(&mut answer)
        .expect("the waiting client is answered");
    let elapsed = asked.elapsed();
    assert!(elapsed < bound, "answered after {elapsed:?}");
    assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
    // The idle connection was closed between requests, not mid-way.
    assert_eq!(idle.read(&mut chunk).unwrap(), 0);
    server.stop();
}
