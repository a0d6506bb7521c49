//! End-to-end tests over a real socket: boot the server on an ephemeral
//! port, speak HTTP/1.1 to it with `TcpStream`, and verify the service
//! guarantees — concurrent dedup onto one simulation, structured cached
//! errors, byte-identical artifacts, backpressure, streaming, drain.
//!
//! `kepler_sim::devices_created()` is process-global, so every test takes
//! `serial()`: the simulation-count witnesses would otherwise observe each
//! other's devices.

use characterize::analysis::{render_static_analysis, static_analysis};
use characterize::campaign::Campaign;
use characterize::energy::{energy_breakdown, sampling_error};
use characterize::figures::power_profile;
use characterize::report::{
    render_energy_breakdown, render_fig1, render_sampling_error, render_table1,
};
use characterize::tables::table1;
use sim_serve::json::{self, Json};
use sim_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct TestServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn boot(mut cfg: ServerConfig) -> Self {
        cfg.addr = "127.0.0.1:0".to_string();
        let server = Server::bind(cfg).expect("bind ephemeral port");
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run());
        Self {
            addr,
            shutdown,
            handle: Some(handle),
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().expect("server thread exits cleanly");
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        json::parse(std::str::from_utf8(&self.body).expect("utf-8 body")).expect("json body")
    }
}

/// One full request/response over a fresh connection. Asks for
/// `Connection: close` so EOF delimits the response (the server now keeps
/// connections alive by default).
fn request(addr: SocketAddr, method: &str, target: &str, body: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Reply {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = std::str::from_utf8(&raw[..split]).expect("utf-8 head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let mut body = raw[split + 4..].to_vec();
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked")
    {
        body = dechunk(&body);
    }
    Reply {
        status,
        headers,
        body,
    }
}

/// Decode a chunked body (sizes in hex, CRLF-framed, 0-chunk terminator).
fn dechunk(mut raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let eol = raw
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(std::str::from_utf8(&raw[..eol]).unwrap().trim(), 16)
            .expect("hex chunk size");
        raw = &raw[eol + 2..];
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&raw[..size]);
        raw = &raw[size + 2..]; // skip the chunk's trailing CRLF
    }
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_capacity: 32,
        cache_dir: None,
        default_artifact_reps: 1,
        request_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    }
}

// -- the acceptance-criteria test -------------------------------------------

/// Eight concurrent identical `POST /v1/runs` cost exactly ONE simulation
/// (witnessed by the process-global device counter) and produce eight
/// byte-identical bodies.
#[test]
fn eight_concurrent_identical_runs_cost_one_simulation() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());
    let addr = srv.addr;
    let before = kepler_sim::devices_created();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                request(addr, "POST", "/v1/runs", Some(r#"{"workload": "sten"}"#))
            })
        })
        .collect();
    let replies: Vec<Reply> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let after = kepler_sim::devices_created();
    assert_eq!(
        after - before,
        1,
        "8 identical in-flight requests must collapse onto one simulation"
    );
    for r in &replies {
        assert_eq!(r.status, 200);
        assert_eq!(
            r.body, replies[0].body,
            "deduplicated requests must serve identical bodies"
        );
    }
    let doc = replies[0].json();
    assert_eq!(doc.get("workload").unwrap().as_str(), Some("sten"));
    assert!(
        doc.get("median")
            .unwrap()
            .get("energy_j")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    srv.stop();
}

/// A second configuration of a program the server has already run replays
/// the first run's recorded trace: no functional device, one replay device,
/// and the body a fresh server computes by simulating.
#[test]
fn a_second_configuration_replays_the_first_ones_trace() {
    let _guard = serial();
    let at_614 = r#"{"workload": "sten", "config": "614", "reps": 1}"#;
    let mut srv = TestServer::boot(quick_config());
    let first = request(
        srv.addr,
        "POST",
        "/v1/runs",
        Some(r#"{"workload": "sten", "reps": 1}"#),
    );
    assert_eq!(first.status, 200);
    let created = kepler_sim::devices_created();
    let replayed = kepler_sim::devices_replayed();
    let second = request(srv.addr, "POST", "/v1/runs", Some(at_614));
    assert_eq!(second.status, 200);
    assert_eq!(kepler_sim::devices_created(), created, "no functional run");
    assert_eq!(kepler_sim::devices_replayed(), replayed + 1);
    let metrics = request(srv.addr, "GET", "/metrics", None).json();
    let campaign = metrics.get("campaign").unwrap();
    assert_eq!(campaign.get("simulated").unwrap().as_u64(), Some(1));
    assert_eq!(campaign.get("trace_replays").unwrap().as_u64(), Some(1));
    let process = metrics.get("process").unwrap();
    assert_eq!(process.get("trace_db_traces").unwrap().as_u64(), Some(1));
    assert!(process.get("trace_db_bytes").unwrap().as_u64() > Some(0));
    srv.stop();

    let mut fresh = TestServer::boot(quick_config());
    let created = kepler_sim::devices_created();
    let direct = request(fresh.addr, "POST", "/v1/runs", Some(at_614));
    assert_eq!(direct.status, 200);
    assert_eq!(kepler_sim::devices_created(), created + 1, "a fresh run");
    assert_eq!(second.body, direct.body);
    fresh.stop();
}

/// A run the paper excludes as too-fast-to-measure answers `422` with a
/// stable error code, and the poisoned cache entry round-trips as the
/// same structured error — without re-simulating.
#[test]
fn cached_measurement_error_round_trips_as_stable_422() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());
    let body = r#"{"workload": "lbfs-wlw", "input": "entire USA"}"#;
    let before = kepler_sim::devices_created();
    let first = request(srv.addr, "POST", "/v1/runs", Some(body));
    let simulated = kepler_sim::devices_created() - before;
    assert_eq!(first.status, 422);
    let doc = first.json();
    let err = doc.get("error").unwrap();
    assert_eq!(
        err.get("code").unwrap().as_str(),
        Some("insufficient_samples")
    );
    assert!(err.get("observed_samples").unwrap().as_u64().is_some());
    assert!(simulated >= 1);

    // Second request: served from the poisoned memo entry, byte-identical,
    // no new simulation.
    let before = kepler_sim::devices_created();
    let second = request(srv.addr, "POST", "/v1/runs", Some(body));
    assert_eq!(kepler_sim::devices_created() - before, 0);
    assert_eq!(second.status, 422);
    assert_eq!(second.body, first.body);

    // The cached error is visible in /metrics.
    let metrics = request(srv.addr, "GET", "/metrics", None).json();
    let campaign = metrics.get("campaign").unwrap();
    assert_eq!(campaign.get("cached_errors").unwrap().as_u64(), Some(1));
    assert_eq!(
        metrics
            .get("http")
            .unwrap()
            .get("responses_by_status")
            .unwrap()
            .get("422")
            .unwrap()
            .as_u64(),
        Some(2)
    );
    srv.stop();
}

/// Artifact bodies are byte-identical to what `repro` prints: the same
/// renderer output plus the `println!` newline.
#[test]
fn artifact_bodies_match_repro_rendering_bytes() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());
    let t1 = request(srv.addr, "GET", "/v1/artifacts/table1", None);
    assert_eq!(t1.status, 200);
    assert_eq!(t1.header("content-type"), Some("text/plain; charset=utf-8"));
    assert_eq!(
        t1.body,
        format!("{}\n", render_table1(&table1())).into_bytes()
    );

    let f1 = request(srv.addr, "GET", "/v1/artifacts/fig1", None);
    assert_eq!(f1.status, 200);
    assert_eq!(
        f1.body,
        format!("{}\n", render_fig1(&power_profile("sgemm"))).into_bytes()
    );

    let missing = request(srv.addr, "GET", "/v1/artifacts/table9", None);
    assert_eq!(missing.status, 404);
    assert_eq!(
        missing
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("unknown_artifact")
    );
    srv.stop();
}

/// The two energy-lab artifacts are served byte-identical to what `repro`
/// prints (renderer output + the `println!` newline), and `POST /v1/runs`
/// responses carry the per-class energy breakdown.
#[test]
fn energy_artifacts_match_repro_rendering_bytes() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());

    let local = Campaign::in_memory();
    let eb = request(srv.addr, "GET", "/v1/artifacts/energy-breakdown", None);
    assert_eq!(eb.status, 200);
    assert_eq!(
        eb.body,
        format!(
            "{}\n",
            render_energy_breakdown(&energy_breakdown(&local, 1))
        )
        .into_bytes()
    );
    let se = request(srv.addr, "GET", "/v1/artifacts/energy-sampling-error", None);
    assert_eq!(se.status, 200);
    assert_eq!(
        se.body,
        format!("{}\n", render_sampling_error(&sampling_error(&local, 1))).into_bytes()
    );

    // Both names are discoverable.
    let listing = request(srv.addr, "GET", "/v1/artifacts", None).json();
    let names: Vec<&str> = listing
        .get("artifacts")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(|n| n.as_str())
        .collect();
    assert!(names.contains(&"energy-breakdown"));
    assert!(names.contains(&"energy-sampling-error"));

    // A run response reconciles: per-class energies (residual included)
    // sum to the board energy it reports.
    let run = request(
        srv.addr,
        "POST",
        "/v1/runs",
        Some(r#"{"workload": "sten"}"#),
    );
    assert_eq!(run.status, 200);
    let bd = run.json().get("energy_breakdown").unwrap().clone();
    let board = bd.get("board_energy_j").unwrap().as_f64().unwrap();
    let classes = bd.get("classes").unwrap();
    let sum: f64 = gpower::EnergyClass::ALL
        .iter()
        .map(|c| classes.get(c.name()).unwrap().as_f64().unwrap())
        .sum();
    assert!(board > 0.0);
    assert!(
        ((sum - board) / board).abs() < 1e-9,
        "classes {sum} vs board {board}"
    );
    srv.stop();
}

/// The `static-analysis` artifact is served byte-identical to what
/// `repro static-analysis` prints at the same repetition count, and its
/// name is discoverable in the artifact listing.
#[test]
fn static_analysis_artifact_matches_repro_rendering_bytes() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());

    let local = Campaign::in_memory();
    let sa = request(srv.addr, "GET", "/v1/artifacts/static-analysis", None);
    assert_eq!(sa.status, 200);
    assert_eq!(
        sa.body,
        format!("{}\n", render_static_analysis(&static_analysis(&local, 1))).into_bytes()
    );

    let listing = request(srv.addr, "GET", "/v1/artifacts", None).json();
    let names: Vec<&str> = listing
        .get("artifacts")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(|n| n.as_str())
        .collect();
    assert!(names.contains(&"static-analysis"));
    srv.stop();
}

/// `/metrics` speaks both dialects (JSON default, Prometheus on
/// `?format=prometheus` or a text-preferring `Accept`), and every
/// response carries a distinct `X-Request-Id`.
#[test]
fn metrics_content_negotiation_and_request_ids() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());
    let addr = srv.addr;

    let j = request(addr, "GET", "/metrics", None);
    assert_eq!(j.status, 200);
    assert_eq!(j.header("content-type"), Some("application/json"));
    let rid_json = j
        .header("x-request-id")
        .expect("id on JSON reply")
        .to_string();
    assert!(rid_json.starts_with("req-"));

    let p = request(addr, "GET", "/metrics?format=prometheus", None);
    assert_eq!(p.status, 200);
    assert!(p
        .header("content-type")
        .unwrap()
        .starts_with("text/plain; version=0.0.4"));
    assert_ne!(p.header("x-request-id"), Some(rid_json.as_str()));
    let text = String::from_utf8(p.body).unwrap();
    assert!(text.contains("# HELP simserve_http_requests_total"));
    assert!(text.contains("# TYPE simserve_http_request_duration_ms histogram"));
    assert!(text.contains(r#"le="+Inf""#));
    assert!(text.contains(r#"endpoint="GET /metrics""#));

    // Accept-header negotiation without the query parameter.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: text/plain\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let via_accept = parse_response(&raw);
    assert!(via_accept
        .header("content-type")
        .unwrap()
        .starts_with("text/plain; version=0.0.4"));
    assert!(String::from_utf8(via_accept.body)
        .unwrap()
        .contains("simserve_queue_workers"));
    srv.stop();
}

/// With one worker and a one-slot queue, a third concurrent measurement is
/// shed with `503` + `Retry-After` while the first two are still admitted.
#[test]
fn full_queue_sheds_load_with_retry_after() {
    let _guard = serial();
    let mut srv = TestServer::boot(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..quick_config()
    });
    let addr = srv.addr;
    // Occupy the single worker with a cold three-rep run...
    let first = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            "/v1/runs",
            Some(r#"{"workload": "mst", "reps": 3}"#),
        )
    });
    wait_until(&srv, |s| {
        s.get("queue").unwrap().get("active").unwrap().as_u64() == Some(1)
    });
    // ...fill the single queue slot with a second, distinct run...
    let second = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            "/v1/runs",
            Some(r#"{"workload": "nw", "reps": 3}"#),
        )
    });
    wait_until(&srv, |s| {
        s.get("queue").unwrap().get("depth").unwrap().as_u64() == Some(1)
    });
    // ...and the third admission is rejected immediately.
    let shed = request(addr, "POST", "/v1/runs", Some(r#"{"workload": "nn"}"#));
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert_eq!(
        shed.json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("queue_full")
    );
    // The admitted pair still completes normally.
    assert_eq!(first.join().unwrap().status, 200);
    assert_eq!(second.join().unwrap().status, 200);
    srv.stop();
}

/// One TCP connection serves many requests: a keep-alive client issues a
/// mix of inline (healthz, metrics) and queued (runs) requests over a
/// single dial, and the server answers each with `Connection: keep-alive`
/// until the client stops.
#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());
    let mut client = sim_serve::HttpClient::new(srv.addr);
    for _ in 0..3 {
        let h = client.request("GET", "/healthz", b"").expect("healthz");
        assert_eq!(h.status, 200);
        assert_eq!(h.header("connection"), Some("keep-alive"));
    }
    let run = client
        .request("POST", "/v1/runs", br#"{"workload": "sten"}"#)
        .expect("run");
    assert_eq!(run.status, 200);
    let m = client.request("GET", "/metrics", b"").expect("metrics");
    assert_eq!(m.status, 200);
    let stats = client.stats();
    assert_eq!(stats.connects, 1, "five requests over a single dial");
    assert_eq!(stats.requests, 5);
    assert_eq!(stats.stale_retries, 0);
    srv.stop();
}

/// `/healthz` and `/metrics` never enter the job queue: with the single
/// worker occupied and the one queue slot full (every measurement would
/// be shed), both still answer `200` immediately.
#[test]
fn healthz_and_metrics_bypass_a_saturated_queue() {
    let _guard = serial();
    let mut srv = TestServer::boot(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..quick_config()
    });
    let addr = srv.addr;
    // Occupy the single worker...
    let first = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            "/v1/runs",
            Some(r#"{"workload": "mst", "reps": 3}"#),
        )
    });
    wait_until(&srv, |s| {
        s.get("queue").unwrap().get("active").unwrap().as_u64() == Some(1)
    });
    // ...and fill the single queue slot.
    let second = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            "/v1/runs",
            Some(r#"{"workload": "nw", "reps": 3}"#),
        )
    });
    wait_until(&srv, |s| {
        s.get("queue").unwrap().get("depth").unwrap().as_u64() == Some(1)
    });
    // Both inline endpoints answer promptly while measurements would shed.
    let t0 = Instant::now();
    let h = request(addr, "GET", "/healthz", None);
    let m = request(addr, "GET", "/metrics", None);
    assert_eq!(h.status, 200);
    assert_eq!(h.json().get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(m.status, 200);
    let queue = m.json().get("queue").unwrap().clone();
    let busy = queue.get("active").unwrap().as_u64().unwrap()
        + queue.get("depth").unwrap().as_u64().unwrap();
    assert!(busy >= 1, "queue must still be saturated: {}", queue.dump());
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "inline endpoints must not wait behind the queue"
    );
    assert_eq!(first.join().unwrap().status, 200);
    assert_eq!(second.join().unwrap().status, 200);
    srv.stop();
}

/// Poll `/metrics` until `pred` holds (deadline-bounded).
fn wait_until(srv: &TestServer, pred: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let doc = request(srv.addr, "GET", "/metrics", None).json();
        if pred(&doc) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting on /metrics: {}",
            doc.dump()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `?stream=1` answers chunked NDJSON: `progress` events from the
/// campaign, then exactly one terminal `result` line.
#[test]
fn streaming_sweep_emits_progress_then_result() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());
    let reply = request(
        srv.addr,
        "POST",
        "/v1/sweep?stream=1",
        Some(r#"{"workload": "sten", "core_mhz": [705, 614], "mem_mhz": [2600]}"#),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("transfer-encoding"), Some("chunked"));
    assert_eq!(reply.header("content-type"), Some("application/x-ndjson"));
    let rid = reply
        .header("x-request-id")
        .expect("id on stream")
        .to_string();
    let text = String::from_utf8(reply.body).unwrap();
    let lines: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).expect("each NDJSON line parses"))
        .collect();
    assert!(!lines.is_empty());
    // Every stream line carries the request id the response header named.
    for l in &lines {
        assert_eq!(l.get("id").unwrap().as_str(), Some(rid.as_str()));
    }
    let (progress, terminal): (Vec<&Json>, Vec<&Json>) = lines
        .iter()
        .partition(|l| l.get("event").unwrap().as_str() == Some("progress"));
    assert_eq!(terminal.len(), 1, "exactly one result line: {text}");
    assert!(!progress.is_empty(), "sweep must stream progress: {text}");
    for p in &progress {
        assert!(
            p.get("done").unwrap().as_u64().unwrap() <= p.get("total").unwrap().as_u64().unwrap()
        );
    }
    let result = terminal[0];
    assert_eq!(result.get("status").unwrap().as_u64(), Some(200));
    let body = result.get("body").unwrap();
    assert_eq!(body.get("points").unwrap().as_arr().unwrap().len(), 2);
    assert!(!body
        .get("pareto_frontier")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());
    srv.stop();
}

/// Request-reading limits answer before any measurement: oversized bodies
/// are `413`, bad routes `404`, wrong methods `405` with `Allow`.
#[test]
fn request_limits_and_routing_errors() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());
    let addr = srv.addr;

    // Oversized body: rejected from the Content-Length alone.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST /v1/runs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        1024 * 1024
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    assert_eq!(parse_response(&raw).status, 413);

    assert_eq!(request(addr, "GET", "/nope", None).status, 404);
    let r = request(addr, "GET", "/v1/runs", None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));
    let r = request(addr, "POST", "/v1/artifacts/table4", None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));

    // Healthz + workload discovery.
    let h = request(addr, "GET", "/healthz", None);
    assert_eq!(h.status, 200);
    assert_eq!(h.json().get("status").unwrap().as_str(), Some("ok"));
    let w = request(addr, "GET", "/v1/workloads", None).json();
    assert!(w.get("workloads").unwrap().as_arr().unwrap().len() >= 30);
    srv.stop();
}

/// Stopping the server drains cleanly: the accept loop exits, workers
/// join, and the port stops answering.
#[test]
fn shutdown_drains_and_stops_listening() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());
    let addr = srv.addr;
    assert_eq!(request(addr, "GET", "/healthz", None).status, 200);
    srv.stop();
    // The listener is gone; a fresh connection must fail (allow a moment
    // for the OS to tear the socket down).
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err()
        || TcpStream::connect(addr)
            .and_then(|mut s| {
                s.set_read_timeout(Some(Duration::from_millis(500)))?;
                write!(s, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")?;
                let mut buf = Vec::new();
                s.read_to_end(&mut buf).map(|_| buf.is_empty())
            })
            .unwrap_or(true);
    assert!(refused, "drained server must not answer new requests");
}

/// The drain is event-driven: with one connection still in flight when
/// shutdown is requested, `Server::run` must return promptly after that
/// connection finishes — it sleeps on a condvar the closing handler
/// signals, never running out its 10 s fallback deadline.
#[test]
fn drain_latency_is_bounded_by_the_last_connection() {
    let _guard = serial();
    let mut srv = TestServer::boot(quick_config());
    let addr = srv.addr;
    assert_eq!(request(addr, "GET", "/healthz", None).status, 200);

    // Park one connection mid-request: announce a body and never send it,
    // so the handler sits in the body read until we hang up.
    let mut parked = TcpStream::connect(addr).expect("connect");
    write!(
        parked,
        "POST /v1/runs HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n"
    )
    .expect("write partial request");
    std::thread::sleep(Duration::from_millis(100)); // let it get accepted

    // Request shutdown; the accept loop exits and the drain starts
    // waiting on the parked connection.
    srv.shutdown.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(200));

    // Release the connection; the server must exit almost immediately.
    drop(parked);
    let t0 = Instant::now();
    if let Some(h) = srv.handle.take() {
        h.join().expect("server thread exits cleanly");
    }
    let drain = t0.elapsed();
    assert!(
        drain < Duration::from_secs(2),
        "drain took {drain:?} after the last connection closed"
    );
}
