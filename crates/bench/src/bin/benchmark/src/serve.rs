//! `serve_coord`: one request script sent by two closed-loop keep-alive
//! clients through a coordinator with one worker, both `serve` processes
//! at default flags sharing a cache directory. Each rep boots fresh
//! processes on a fresh cache directory. The cold phase simulates and
//! writes records; the warm phase is HTTP parse/queue/render, the
//! coordinator's fan-out to the worker, and campaign memo reads.

use crate::dvfs::PROGRAMS;
use crate::spans::{now_ns, Spans};
use crate::stats::{percentile_ms, Pick, RequestStream, Summary};
use crate::{Opts, Report};
use sim_serve::json::Json;
use sim_serve::HttpClient;
use std::io::{BufRead, BufReader, Read as _};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct `POST /v1/runs` bodies: every swept program × two configs.
pub const RUN_POOL: usize = 32;
/// Pool index of the sweep request, then of the health check.
const SWEEP: usize = RUN_POOL;
const HEALTHZ: usize = RUN_POOL + 1;
/// Concurrent closed-loop clients, each one keep-alive connection.
const CLIENTS: usize = 2;
/// Seconds of each rep's warm phase.
const WARM_S: f64 = 3.0;
/// Fewest server boots a run measures, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// FNV-1a 64 of each pool response body, one hex digest per line in pool
/// order, as a single `serve` process answers them; coordinator bodies
/// must equal them.
const GOLDEN_BODIES: &str = include_str!("../golden/serve-bodies.txt");

/// The request pool: method, path and body of each entry.
fn pool() -> Vec<(&'static str, &'static str, String)> {
    let mut p: Vec<_> = PROGRAMS
        .iter()
        .flat_map(|k| {
            ["default", "614"].map(|c| {
                let body = format!(r#"{{"workload": "{k}", "config": "{c}", "reps": 1}}"#);
                ("POST", "/v1/runs", body)
            })
        })
        .collect();
    p.push((
        "POST",
        "/v1/sweep",
        r#"{"workload": "sgemm", "core_mhz": [324, 500, 614, 758], "mem_mhz": [1300, 2600], "reps": 1}"#
            .to_string(),
    ));
    p.push(("GET", "/healthz", String::new()));
    assert_eq!(p.len(), HEALTHZ + 1);
    p
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// A `serve` process on an ephemeral port, killed and reaped on drop.
struct Node {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

/// Start `serve` at its default flags apart from an ephemeral address and
/// the shared cache directory, and wait until `/healthz` answers 200.
fn boot(bin: &Path, cache: &Path, workers: &[SocketAddr]) -> Node {
    let mut cmd = Command::new(bin);
    cmd.args(["--addr", "127.0.0.1:0", "--cache-dir"])
        .arg(cache)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for w in workers {
        cmd.arg("--worker").arg(w.to_string());
    }
    let mut child = cmd.spawn().expect("spawn serve");
    let mut reader = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut addr = None;
    let mut line = String::new();
    while addr.is_none() && reader.read_line(&mut line).is_ok_and(|n| n > 0) {
        addr = line
            .strip_prefix("[serve] listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        line.clear();
    }
    // Keep draining stderr so the server never blocks on a full pipe.
    let drain = std::thread::spawn(move || {
        let _ = reader.read_to_end(&mut Vec::new());
    });
    let mut node = Node {
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        drain: Some(drain),
    };
    // Panicking here drops `node`, which stops the child.
    node.addr = addr.expect("serve reports its address");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !matches!(HttpClient::new(node.addr).request("GET", "/healthz", b""), Ok(r) if r.status == 200)
    {
        assert!(Instant::now() < deadline, "serve never became healthy");
        std::thread::sleep(Duration::from_millis(1));
    }
    node
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    /// Client-side milliseconds of warm `/v1/runs` requests.
    runs_ms: Vec<f64>,
    failed: u64,
    mismatched: u64,
    connects: u64,
    requests: u64,
    spans: Spans,
}

/// Scrape a process's `/metrics` document.
fn scrape(addr: SocketAddr) -> Option<Json> {
    let resp = HttpClient::new(addr).request("GET", "/metrics", b"").ok()?;
    sim_serve::json::parse(&resp.text()).ok()
}

fn path_f64(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// (count, sum_ms) of one endpoint's server-side latency histogram.
fn endpoint(doc: &Json, label: &str) -> (f64, f64) {
    (
        path_f64(doc, &["http", "endpoints", label, "count"]),
        path_f64(doc, &["http", "endpoints", label, "sum_ms"]),
    )
}

/// Server-side mean milliseconds of `label` between two scrapes.
fn mean_between(before: &Json, after: &Json, label: &str) -> f64 {
    let (c0, s0) = endpoint(before, label);
    let (c1, s1) = endpoint(after, label);
    if c1 > c0 {
        (s1 - s0) / (c1 - c0)
    } else {
        0.0
    }
}

struct Rep {
    /// Seconds from the first spawn to the last exit.
    total_s: f64,
    setup_s: f64,
    cold_s: f64,
    warm_s: f64,
    rss_mb: f64,
    logs: Vec<ClientLog>,
    bodies: Vec<Vec<u8>>,
    cold_failed: u64,
    /// `/metrics` of each node after the cold phase and after the warm
    /// phase (traced reps only).
    scrapes: Option<(Vec<Json>, Vec<Json>)>,
}

impl Rep {
    /// Warm-phase requests per second.
    fn warm_rate(&self) -> f64 {
        self.logs
            .iter()
            .map(|l| l.latencies_ms.len())
            .sum::<usize>() as f64
            / self.warm_s
    }
}

fn one_rep(opts: &Opts, rep: usize, traced: bool) -> Rep {
    let bin = opts.bin("serve");
    let cache = opts.fresh_dir(&format!("serve-{rep}"));
    let start = Instant::now();
    let worker = boot(&bin, &cache, &[]);
    let front = boot(&bin, &cache, &[worker.addr]);
    let nodes = [front, worker];
    let setup_s = start.elapsed().as_secs_f64();
    let addr = nodes[0].addr;
    let pool = pool();

    // Cold phase: every pool entry once, two clients taking the next one.
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let cold: Vec<Vec<(usize, Option<Vec<u8>>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = HttpClient::new(addr);
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some((method, path, body)) = pool.get(i) else {
                            return got;
                        };
                        let resp = client.request(method, path, body.as_bytes());
                        got.push((i, resp.ok().filter(|r| r.status == 200).map(|r| r.body)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cold client panicked"))
            .collect()
    });
    let cold_s = t.elapsed().as_secs_f64();
    let mut bodies = vec![Vec::new(); pool.len()];
    let mut cold_failed = 0;
    for (i, body) in cold.into_iter().flatten() {
        match body {
            Some(b) => bodies[i] = b,
            None => cold_failed += 1,
        }
    }
    let before = traced.then(|| nodes.iter().filter_map(|n| scrape(n.addr)).collect());

    // Warm phase: seeded streams over the same pool, for `WARM_S`.
    let stop = Instant::now() + Duration::from_secs_f64(WARM_S);
    let t = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (pool, bodies) = (&pool, &bodies);
                let stream = RequestStream::new(opts.seed, (rep * CLIENTS + c) as u64);
                s.spawn(move || warm_client(addr, pool, bodies, stream, stop, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm client panicked"))
            .collect()
    });
    let warm_s = t.elapsed().as_secs_f64();
    let rss_mb = nodes
        .iter()
        .map(|n| crate::sys::status_mb(n.child.id(), "VmHWM").unwrap_or(0.0))
        .sum();
    let scrapes = before.map(|b| (b, nodes.iter().filter_map(|n| scrape(n.addr)).collect()));
    drop(nodes);
    let _ = std::fs::remove_dir_all(&cache);
    Rep {
        total_s: start.elapsed().as_secs_f64(),
        setup_s,
        cold_s,
        warm_s,
        rss_mb,
        logs,
        bodies,
        cold_failed,
        scrapes,
    }
}

fn warm_client(
    addr: SocketAddr,
    pool: &[(&str, &str, String)],
    bodies: &[Vec<u8>],
    stream: RequestStream,
    stop: Instant,
    traced: bool,
) -> ClientLog {
    let mut client = HttpClient::new(addr);
    let mut log = ClientLog::default();
    for pick in stream {
        if Instant::now() >= stop {
            break;
        }
        let i = match pick {
            Pick::Run(i) => i,
            Pick::Sweep => SWEEP,
            Pick::Healthz => HEALTHZ,
        };
        let (method, path, body) = &pool[i];
        let t0 = now_ns();
        let resp = if traced {
            let c = &mut client;
            log.spans.time("client.request", |_| {
                c.request(method, path, body.as_bytes())
            })
        } else {
            client.request(method, path, body.as_bytes())
        };
        let ms = (now_ns() - t0) as f64 * 1e-6;
        log.latencies_ms.push(ms);
        if i < RUN_POOL {
            log.runs_ms.push(ms);
        }
        match resp {
            Ok(r) if r.status == 200 && r.body == bodies[i] => {}
            Ok(r) if r.status == 200 => log.mismatched += 1,
            _ => log.failed += 1,
        }
    }
    let stats = client.stats();
    log.connects = stats.connects;
    log.requests = stats.requests;
    log
}

pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let golden: Vec<&str> = GOLDEN_BODIES.lines().collect();
    // Boot again while another rep is expected to end in time.
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(one_rep(opts, reps.len(), false));
        let typical = Summary::of(&reps.iter().map(|x| x.total_s).collect::<Vec<_>>()).median;
        if reps.len() >= MIN_REPS && t0.elapsed().as_secs_f64() + typical > opts.seconds {
            break;
        }
    }
    let n_measured = reps.len();
    if opts.trace {
        reps.push(one_rep(opts, n_measured, true));
    }

    for (n, rep) in reps.iter().enumerate() {
        let digests: Vec<String> = rep
            .bodies
            .iter()
            .map(|b| format!("{:016x}", fnv1a64(b)))
            .collect();
        let differ = digests.iter().zip(&golden).filter(|(d, g)| d != g).count()
            + digests.len().abs_diff(golden.len());
        r.check(differ == 0, || {
            format!("rep {n}: {differ} cold bodies differ from the committed digests")
        });
        r.check(rep.cold_failed == 0, || {
            format!("rep {n}: {} cold requests failed", rep.cold_failed)
        });
        let (failed, mismatched) = rep
            .logs
            .iter()
            .fold((0, 0), |(f, m), l| (f + l.failed, m + l.mismatched));
        r.check(mismatched == 0, || {
            format!("rep {n}: {mismatched} warm bodies differ from their cold bodies")
        });
        r.check(failed == 0, || {
            format!("rep {n}: {failed} warm requests failed")
        });
    }

    let measured = &reps[..n_measured];
    let mut lat = Vec::new();
    for rep in measured {
        r.attempted += (rep.bodies.len()
            + rep.logs.iter().map(|l| l.latencies_ms.len()).sum::<usize>())
            as u64;
        r.failed += rep.cold_failed
            + rep
                .logs
                .iter()
                .map(|l| l.failed + l.mismatched)
                .sum::<u64>();
        for l in &rep.logs {
            lat.extend_from_slice(&l.latencies_ms);
        }
    }
    let pick = |f: fn(&Rep) -> f64| measured.iter().map(f).collect::<Vec<f64>>();
    r.e2e("setup_s", &pick(|x| x.setup_s));
    r.e2e("wall_s", &pick(|x| x.cold_s));
    r.e2e("peak_rss_mb", &pick(|x| x.rss_mb));
    r.e2e("rate_per_s", &pick(Rep::warm_rate));
    // Client-side warm latency of the untraced reps, nearest-rank over
    // every request.
    r.layer("client.p50_ms", percentile_ms(&lat, 0.50));
    r.layer("client.p99_ms", percentile_ms(&lat, 0.99));
    eprintln!(
        "[benchmark] serve_coord: {} warm requests in {n_measured} reps",
        lat.len()
    );

    if let Some(traced) = reps.get_mut(n_measured) {
        layers(&mut r, traced);
    }
    r
}

/// Per-layer metrics of the traced rep, from each process's `/metrics`
/// before and after its warm phase.
fn layers(r: &mut Report, rep: &mut Rep) {
    // Spans time the warm requests, so tracing costs show as lost rate.
    let untraced_rate = r.end_to_end["rate_per_s"].median;
    let traced_rate = rep.warm_rate();
    let Some((before, after)) = &rep.scrapes else {
        r.check(false, || "traced rep could not scrape /metrics".to_string());
        return;
    };
    r.check(before.len() == after.len() && !after.is_empty(), || {
        "a node did not answer /metrics".to_string()
    });
    let (front0, front1) = (&before[0], &after[0]);
    let runs_mean = mean_between(front0, front1, "POST /v1/runs");
    r.layer("http.runs_server_mean_ms", runs_mean);
    r.layer(
        "http.sweep_server_mean_ms",
        mean_between(front0, front1, "POST /v1/sweep"),
    );
    r.layer(
        "http.healthz_server_mean_ms",
        mean_between(front0, front1, "GET /healthz"),
    );
    if let (Some(w0), Some(w1)) = (before.get(1), after.get(1)) {
        let units_mean = mean_between(w0, w1, "POST /v1/units");
        r.layer("http.units_server_mean_ms", units_mean);
    }
    let runs_ms: Vec<f64> = rep
        .logs
        .iter()
        .flat_map(|l| l.runs_ms.iter().copied())
        .collect();
    let client_mean = runs_ms.iter().sum::<f64>() / runs_ms.len().max(1) as f64;
    r.layer("http.client_overhead_ms", client_mean - runs_mean);
    let shed: f64 = after
        .iter()
        .map(|d| path_f64(d, &["http", "responses_by_status", "503"]))
        .sum();
    r.layer("http.shed", shed);
    let connects: u64 = rep.logs.iter().map(|l| l.connects).sum();
    let requests: u64 = rep.logs.iter().map(|l| l.requests).sum();
    r.layer("client.connects", connects as f64);
    r.layer("client.reused", requests.saturating_sub(connects) as f64);
    for (name, key) in [
        ("dispatch.units_dispatched", "units_dispatched"),
        ("dispatch.units_local", "units_local"),
        ("dispatch.chunks_sent", "chunks_sent"),
        ("dispatch.chunks_retried", "chunks_retried"),
        ("dispatch.chunks_stolen", "chunks_stolen"),
        ("dispatch.worker_errors", "worker_errors"),
    ] {
        r.layer(name, path_f64(front1, &["dispatch", key]));
    }
    let warm_chunks = path_f64(front1, &["dispatch", "chunks_sent"])
        - path_f64(front0, &["dispatch", "chunks_sent"]);
    let warm_requests = path_f64(front1, &["http", "requests_total"])
        - path_f64(front0, &["http", "requests_total"]);
    r.layer(
        "dispatch.chunks_per_warm_request",
        warm_chunks / warm_requests.max(1.0),
    );
    let s1 = |k: &str| path_f64(front1, &["campaign", k]);
    r.layer("campaign.simulated", s1("simulated"));
    r.layer("campaign.memo_hits", s1("memo_hits"));
    r.layer("campaign.disk_hits", s1("disk_hits"));
    r.layer("campaign.trace_replays", s1("trace_replays"));
    r.layer("trace.overhead_frac", untraced_rate / traced_rate - 1.0);
    let mut spans = Spans::new(None);
    for l in &mut rep.logs {
        spans.extend(std::mem::take(&mut l.spans));
    }
    r.spans.extend(spans);
}
