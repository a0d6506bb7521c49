//! Coordinator/worker topology tests, in-process: worker `Server`s and a
//! coordinator `Server` (its `dispatch.workers` pointing at them) talk
//! over real sockets and share one on-disk campaign cache, exactly like
//! the multi-process deployment `serve --worker` builds.
//!
//! Because all "nodes" live in one test process, the process-global
//! `kepler_sim::devices_created()` counter witnesses simulations across
//! the whole cluster — which is precisely what the cross-node dedup
//! guarantee is about. Tests take `serial()` so the witnesses don't
//! observe each other.

use characterize::campaign::Campaign;
use sim_serve::api;
use sim_serve::json::{self, Json};
use sim_serve::{DispatchConfig, Dispatcher, HttpClient, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

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

/// A fresh shared cache directory for one test's cluster.
fn scratch_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sim-serve-dist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn worker_config(cache: &Path) -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_capacity: 32,
        cache_dir: Some(cache.to_path_buf()),
        request_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    }
}

fn coordinator_config(
    cache: &Path,
    workers: Vec<SocketAddr>,
    dispatch: DispatchConfig,
) -> ServerConfig {
    ServerConfig {
        workers: 8,
        dispatch: DispatchConfig {
            workers,
            ..dispatch
        },
        ..worker_config(cache)
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut client = HttpClient::new(addr);
    let resp = client
        .request("POST", path, body.as_bytes())
        .expect("request");
    (resp.status, resp.body)
}

fn metrics(addr: SocketAddr) -> Json {
    let mut client = HttpClient::new(addr);
    let resp = client.request("GET", "/metrics", b"").expect("metrics");
    json::parse(&resp.text()).expect("metrics json")
}

fn dispatch_counter(doc: &Json, name: &str) -> u64 {
    doc.get("dispatch")
        .expect("coordinator metrics carry a dispatch section")
        .get(name)
        .unwrap_or_else(|| panic!("dispatch counter {name}"))
        .as_u64()
        .unwrap()
}

/// Eight identical concurrent requests through a coordinator and two
/// workers cost exactly ONE simulation cluster-wide: rendezvous hashing
/// routes every identical unit to the same worker, whose in-flight dedup
/// collapses them, and the coordinator renders from the shared cache.
#[test]
fn cross_node_dedup_costs_one_simulation() {
    let _guard = serial();
    let cache = scratch_cache("dedup");
    let mut w1 = TestServer::boot(worker_config(&cache));
    let mut w2 = TestServer::boot(worker_config(&cache));
    let mut coord = TestServer::boot(coordinator_config(
        &cache,
        vec![w1.addr, w2.addr],
        DispatchConfig::default(),
    ));
    let addr = coord.addr;

    let before = kepler_sim::devices_created();
    let handles: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || post(addr, "/v1/runs", r#"{"workload": "sten"}"#)))
        .collect();
    let replies: Vec<(u16, Vec<u8>)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let after = kepler_sim::devices_created();

    assert_eq!(
        after - before,
        1,
        "8 identical requests across 3 nodes must cost one simulation"
    );
    for (status, body) in &replies {
        assert_eq!(*status, 200);
        assert_eq!(
            body, &replies[0].1,
            "deduplicated requests must serve identical bodies"
        );
    }
    // The unit really traveled: every job fanned its unit to a worker and
    // nothing fell back to coordinator-local execution.
    let doc = metrics(addr);
    assert_eq!(dispatch_counter(&doc, "units_dispatched"), 8);
    assert_eq!(dispatch_counter(&doc, "units_local"), 0);
    assert_eq!(dispatch_counter(&doc, "worker_errors"), 0);

    coord.stop();
    w1.stop();
    w2.stop();
    let _ = std::fs::remove_dir_all(&cache);
}

/// A worker that dies mid-sweep: it accepts `conns` connections, reads a
/// request from each and hangs up without answering a byte, then stops
/// listening entirely (connection refused).
fn doomed_worker(conns: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().take(conns).flatten() {
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
        }
    });
    addr
}

/// Killing a worker mid-sweep loses nothing: its chunks are requeued with
/// backoff and re-homed to the surviving worker, the sweep completes with
/// zero errors, the retry counters show up in `/metrics`, and the
/// distributed response is byte-identical to a single-process one.
#[test]
fn worker_death_requeues_chunks_and_sweep_completes() {
    let _guard = serial();
    let cache = scratch_cache("death");
    let mut live = TestServer::boot(worker_config(&cache));
    let doomed = doomed_worker(2);
    let mut coord = TestServer::boot(coordinator_config(
        &cache,
        vec![live.addr, doomed],
        DispatchConfig {
            chunk_units: 2,
            backoff: Duration::from_millis(5),
            ..DispatchConfig::default()
        },
    ));

    // A 16-point grid so both workers own several chunks.
    let body = r#"{"workload": "sten", "reps": 1,
        "core_mhz": [540, 575, 614, 640, 666, 705, 730, 758],
        "mem_mhz": [324, 2600]}"#;
    let (status, resp_body) = post(coord.addr, "/v1/sweep", body);
    assert_eq!(status, 200);
    let doc = json::parse(std::str::from_utf8(&resp_body).unwrap()).unwrap();
    assert!(doc.get("error").is_none(), "sweep must complete cleanly");
    assert_eq!(doc.get("points").unwrap().as_arr().unwrap().len(), 16);
    assert!(!doc
        .get("pareto_frontier")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());

    // The dead worker's share was retried onto the survivor.
    let m = metrics(coord.addr);
    assert!(dispatch_counter(&m, "worker_errors") >= 1);
    assert!(dispatch_counter(&m, "chunks_retried") >= 1);
    assert!(dispatch_counter(&m, "units_dispatched") >= 1);

    coord.stop();
    live.stop();
    let _ = std::fs::remove_dir_all(&cache);

    // Bit-identical merge: a plain single-process server (cold, private
    // cache) must serve the same sweep byte-for-byte.
    let solo_cache = scratch_cache("death-solo");
    let mut solo = TestServer::boot(worker_config(&solo_cache));
    let (solo_status, solo_body) = post(solo.addr, "/v1/sweep", body);
    assert_eq!(solo_status, 200);
    assert_eq!(
        solo_body, resp_body,
        "distributed sweep must merge bit-identically to the single-process path"
    );
    solo.stop();
    let _ = std::fs::remove_dir_all(&solo_cache);
}

/// Read one request (headers, then a `Content-Length` body); `false` once
/// the peer has closed the connection.
fn read_request(reader: &mut BufReader<TcpStream>) -> bool {
    let mut len = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return false;
        }
        let line = line.trim_end().to_ascii_lowercase();
        if let Some(v) = line.strip_prefix("content-length:") {
            len = v.trim().parse().unwrap();
        }
        if line.is_empty() {
            break;
        }
    }
    reader.read_exact(&mut vec![0u8; len]).is_ok()
}

const OK_REPLY: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";

/// A fake worker: it reads each request in full, then `respond` writes
/// whatever it likes; the connection stays open while `respond` returns
/// `true`. Returns its address and a count of accepted connections.
fn fake_worker(respond: fn(&mut TcpStream) -> bool) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            count.fetch_add(1, Ordering::SeqCst);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            std::thread::spawn(move || while read_request(&mut reader) && respond(&mut stream) {});
        }
    });
    (addr, accepted)
}

/// Repeating a request through a coordinator whose memo already holds
/// every unit sends nothing to the workers: the repeat is rendered from
/// the memo, byte-identical, without a simulation or a chunk.
#[test]
fn warm_units_never_leave_the_coordinator() {
    let _guard = serial();
    let cache = scratch_cache("warm");
    let mut worker = TestServer::boot(worker_config(&cache));
    let mut coord = TestServer::boot(coordinator_config(
        &cache,
        vec![worker.addr],
        DispatchConfig::default(),
    ));
    let requests = [
        ("/v1/runs", r#"{"workload": "sten", "config": "614"}"#),
        (
            "/v1/sweep",
            r#"{"workload": "sten", "core_mhz": [540, 705], "mem_mhz": [324, 2600]}"#,
        ),
    ];
    let send_all = || -> Vec<(u16, Vec<u8>)> {
        requests
            .iter()
            .map(|(path, body)| post(coord.addr, path, body))
            .collect()
    };

    let cold = send_all();
    let cold_metrics = metrics(coord.addr);
    assert_eq!(dispatch_counter(&cold_metrics, "units_dispatched"), 1 + 4);
    assert_eq!(dispatch_counter(&cold_metrics, "units_cached"), 0);

    let devices = kepler_sim::devices_created();
    let warm = send_all();
    assert_eq!(kepler_sim::devices_created(), devices, "a repeat simulates");
    for ((status, body), (_, cold_body)) in warm.iter().zip(&cold) {
        assert_eq!(*status, 200);
        assert_eq!(body, cold_body, "a warm repeat must serve the cold body");
    }
    let warm_metrics = metrics(coord.addr);
    assert_eq!(
        dispatch_counter(&warm_metrics, "chunks_sent"),
        dispatch_counter(&cold_metrics, "chunks_sent"),
        "warm units must not cross the wire"
    );
    assert_eq!(dispatch_counter(&warm_metrics, "units_cached"), 1 + 4);

    coord.stop();
    worker.stop();
    let _ = std::fs::remove_dir_all(&cache);
}

/// Sequential fan-outs to one worker share one pooled connection.
#[test]
fn dispatcher_reuses_one_connection_per_worker() {
    let _guard = serial();
    let (addr, accepted) = fake_worker(|s| s.write_all(OK_REPLY).is_ok());
    let dispatcher = Dispatcher::new(DispatchConfig {
        workers: vec![addr],
        ..DispatchConfig::default()
    });
    let campaign = Campaign::in_memory();
    for workload in ["sten", "nn", "sgemm"] {
        let body = format!(r#"{{"workload": "{workload}"}}"#);
        let params = api::parse_run_request(body.as_bytes()).unwrap();
        dispatcher.execute(&api::run_units(&params), &campaign);
    }
    let c = &dispatcher.counters;
    assert_eq!(c.units_dispatched.load(Ordering::Relaxed), 3);
    assert_eq!(c.worker_errors.load(Ordering::Relaxed), 0);
    assert_eq!(accepted.load(Ordering::SeqCst), 1, "one connection, reused");
}

/// The 16-point sweep of the worker-death test, and a 4-point follow-up
/// with distinct units.
const ROBUST_SWEEP: &str = r#"{"workload": "sten", "reps": 1,
    "core_mhz": [540, 575, 614, 640, 666, 705, 730, 758],
    "mem_mhz": [324, 2600]}"#;
const FOLLOW_UP_SWEEP: &str =
    r#"{"workload": "sten", "core_mhz": [540, 614, 705, 758], "mem_mhz": [1300]}"#;

/// A broken or slow worker never yields a wrong body. A worker that
/// answers `/v1/units` with a half-written response and hangs up costs a
/// retry on the healthy worker; one that stalls past `steal_after` loses
/// its queued chunks to stealing. Either way the coordinator serves the
/// solo server's bytes, and after a broken exchange the next request
/// through the same coordinator still succeeds.
#[test]
fn broken_or_slow_worker_never_yields_a_wrong_body() {
    let _guard = serial();
    let solo_cache = scratch_cache("robust-solo");
    let mut solo = TestServer::boot(worker_config(&solo_cache));
    let expected = [
        post(solo.addr, "/v1/sweep", ROBUST_SWEEP),
        post(solo.addr, "/v1/sweep", FOLLOW_UP_SWEEP),
    ];
    solo.stop();
    let _ = std::fs::remove_dir_all(&solo_cache);
    assert!(expected.iter().all(|(status, _)| *status == 200));

    let half_written: fn(&mut TcpStream) -> bool = |s| {
        let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n{\"exec");
        false
    };
    let stalled: fn(&mut TcpStream) -> bool = |s| {
        std::thread::sleep(Duration::from_millis(300));
        s.write_all(OK_REPLY).is_ok()
    };
    for (case, respond) in [("half-written", half_written), ("stalled", stalled)] {
        let cache = scratch_cache(&format!("robust-{case}"));
        let mut live = TestServer::boot(worker_config(&cache));
        let (fake, _) = fake_worker(respond);
        let mut coord = TestServer::boot(coordinator_config(
            &cache,
            vec![live.addr, fake],
            DispatchConfig {
                chunk_units: 2,
                backoff: Duration::from_millis(5),
                ..DispatchConfig::default()
            },
        ));
        let got = post(coord.addr, "/v1/sweep", ROBUST_SWEEP);
        assert_eq!(got, expected[0], "{case}: the body differs from solo");
        if case == "half-written" {
            let m = metrics(coord.addr);
            assert!(dispatch_counter(&m, "worker_errors") >= 1, "{case}");
            let again = post(coord.addr, "/v1/sweep", FOLLOW_UP_SWEEP);
            assert_eq!(
                again, expected[1],
                "{case}: the follow-up differs from solo"
            );
        }
        coord.stop();
        live.stop();
        let _ = std::fs::remove_dir_all(&cache);
    }
}
