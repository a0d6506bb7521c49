//! Load generator for the characterization service.
//!
//! ```text
//! loadgen [--addr A] [--concurrency C] [--dups N] [--warm-requests N]
//!         [--no-keepalive] [--topology LIST | --no-topology] [--out FILE]
//!
//! --addr A          target an already-running server; by default an
//!                   in-process server is booted on an ephemeral port
//!                   (workers = available parallelism, no disk cache)
//! --concurrency C   client threads per phase (default 8)
//! --dups N          identical concurrent requests in the dedup phases
//!                   (default 32)
//! --warm-requests N request count for the warm_keepalive phase
//!                   (default 2000)
//! --no-keepalive    one fresh connection per request — the
//!                   pre-keep-alive measurement mode (warm_keepalive
//!                   still forces reuse, so the report shows both)
//! --topology LIST   worker counts for the multi-process scaling phases
//!                   (default 1,2,8)
//! --no-topology     skip the multi-process phases
//! --out FILE        write the JSON report to FILE instead of stdout
//! ```
//!
//! Single-process phases, each reporting throughput, p50/p95/p99 latency,
//! and connection-reuse counts:
//!
//! 1. `cold`  — distinct workload × config runs, simulation-bound
//! 2. `warm`  — the same requests again, served from the campaign memo
//! 3. `warm_keepalive` — the warm set cycled for `--warm-requests`
//!    requests over persistent connections (one per concurrency slot);
//!    the sustained-throughput number
//! 4. `dedup` — N identical concurrent requests (one simulation underneath)
//! 5. `healthz` — the no-op endpoint, pure HTTP overhead
//!
//! Topology phases boot real `serve` subprocesses (each pinned to one
//! simulation thread via `SIM_PAR_THREADS=1`, all sharing one fresh cache
//! directory) and drive the coordinator:
//!
//! 6. `cold_{N}workers` — the cold set through a coordinator fanning
//!    units out to N workers (N from `--topology`)
//! 7. `dedup_cross_node` — identical concurrent requests through a
//!    coordinator + 2 workers; `devices_delta` counts simulations
//!    actually run across all three processes (rendezvous hashing +
//!    the shared cache make it 1)
//!
//! The report (`BENCH_SERVE.json` in CI) is hand-rolled flat JSON.

use sim_serve::{HttpClient, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read as _};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fast single-kernel programs spanning the suites; crossed with two
/// configurations they make the distinct-request pool.
const COLD_KEYS: [&str; 8] = ["sgemm", "sten", "nn", "pf", "md", "s2d", "lbm", "cutcp"];
const CONFIGS: [&str; 2] = ["default", "614"];

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr A] [--concurrency C] [--dups N] [--warm-requests N] \
         [--no-keepalive] [--topology LIST | --no-topology] [--out FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr_arg: Option<String> = None;
    let mut concurrency = 8usize;
    let mut dups = 32usize;
    let mut warm_requests = 2000usize;
    let mut keepalive = true;
    let mut topology: Vec<usize> = vec![1, 2, 8];
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => match args.next() {
                Some(v) => addr_arg = Some(v),
                None => usage(),
            },
            "--concurrency" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => concurrency = n,
                _ => usage(),
            },
            "--dups" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => dups = n,
                _ => usage(),
            },
            "--warm-requests" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => warm_requests = n,
                _ => usage(),
            },
            "--no-keepalive" => keepalive = false,
            "--topology" => match args.next().map(|v| {
                v.split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
            }) {
                Some(Ok(list)) if list.iter().all(|&n| n > 0) => topology = list,
                _ => usage(),
            },
            "--no-topology" => topology.clear(),
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => usage(),
            },
            _ => usage(),
        }
    }

    // Target: an external server, or an in-process one on an ephemeral port.
    let (addr, embedded) = match addr_arg {
        Some(a) => {
            let addr = a
                .to_socket_addrs()
                .ok()
                .and_then(|mut it| it.next())
                .unwrap_or_else(|| {
                    eprintln!("[loadgen] cannot resolve {a}");
                    std::process::exit(1);
                });
            (addr, None)
        }
        None => {
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            let server = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers,
                queue_capacity: 256,
                cache_dir: None,
                default_artifact_reps: 1,
                request_timeout: Duration::from_secs(600),
                ..ServerConfig::default()
            })
            .expect("bind ephemeral server");
            let addr = server.local_addr();
            let shutdown = server.shutdown_handle();
            let handle = std::thread::spawn(move || server.run());
            eprintln!("[loadgen] embedded server on {addr} ({workers} workers)");
            (addr, Some((shutdown, handle)))
        }
    };

    let cold_bodies: Vec<String> = COLD_KEYS
        .iter()
        .flat_map(|k| {
            CONFIGS
                .iter()
                .map(move |c| format!(r#"{{"workload": "{k}", "config": "{c}"}}"#))
        })
        .collect();
    let dup_body = r#"{"workload": "tpacf"}"#.to_string();

    let mut phases = Vec::new();
    phases.push(run_phase(
        "cold".into(),
        addr,
        "POST",
        "/v1/runs",
        &cold_bodies,
        concurrency,
        keepalive,
    ));
    phases.push(run_phase(
        "warm".into(),
        addr,
        "POST",
        "/v1/runs",
        &cold_bodies,
        concurrency,
        keepalive,
    ));
    let warm_bodies: Vec<String> = cold_bodies
        .iter()
        .cycle()
        .take(warm_requests)
        .cloned()
        .collect();
    phases.push(run_phase(
        "warm_keepalive".into(),
        addr,
        "POST",
        "/v1/runs",
        &warm_bodies,
        concurrency,
        true,
    ));
    let dup_bodies: Vec<String> = std::iter::repeat_with(|| dup_body.clone())
        .take(dups)
        .collect();
    phases.push(run_phase(
        "dedup".into(),
        addr,
        "POST",
        "/v1/runs",
        &dup_bodies,
        dups,
        keepalive,
    ));
    let health_bodies: Vec<String> = std::iter::repeat_with(String::new).take(200).collect();
    phases.push(run_phase(
        "healthz".into(),
        addr,
        "GET",
        "/healthz",
        &health_bodies,
        concurrency,
        keepalive,
    ));

    if let Some((shutdown, handle)) = embedded {
        shutdown.store(true, Ordering::SeqCst);
        let _ = handle.join();
    }

    if !topology.is_empty() {
        phases.extend(topology_phases(&topology, &cold_bodies, concurrency, dups));
    }

    let report = render_report(concurrency, dups, keepalive, &phases);
    match out {
        Some(path) => {
            std::fs::write(&path, &report).expect("write report");
            eprintln!("[loadgen] wrote {}", path.display());
        }
        None => println!("{report}"),
    }
}

struct Phase {
    name: String,
    requests: usize,
    errors: usize,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    /// TCP connections dialed across all slots.
    connects: u64,
    /// Requests that rode an already-open connection.
    reused: u64,
    /// Extra phase-specific report fields, rendered as raw JSON values.
    extra: Vec<(String, String)>,
}

impl Phase {
    fn throughput_rps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.requests as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Nearest-rank percentile over the sorted latency set — the service's
    /// one exact-percentile definition ([`sim_serve::metrics`]'s
    /// `nearest_rank_ms`), shared so `loadgen` reports and the server's
    /// histogram estimates can never drift apart in definition (they may
    /// differ by at most one histogram bucket width; docs/SERVE.md).
    fn percentile_ms(&self, q: f64) -> f64 {
        sim_serve::metrics::nearest_rank_ms(&self.latencies_ms, q).unwrap_or(0.0)
    }
}

/// Fire `bodies` at `addr` from `concurrency` threads, each owning one
/// [`HttpClient`] (so keep-alive mode reuses one connection per slot);
/// every non-2xx/4xx reply (and every transport failure) counts as an
/// error.
fn run_phase(
    name: String,
    addr: SocketAddr,
    method: &'static str,
    path: &'static str,
    bodies: &[String],
    concurrency: usize,
    keepalive: bool,
) -> Phase {
    let bodies = Arc::new(bodies.to_vec());
    let next = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..concurrency.max(1))
        .map(|_| {
            let bodies = Arc::clone(&bodies);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut client = HttpClient::new(addr);
                if !keepalive {
                    client = client.no_keepalive();
                }
                let mut lat = Vec::new();
                let mut errors = 0usize;
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= bodies.len() {
                        return (lat, errors, client.stats());
                    }
                    let r0 = Instant::now();
                    let status = match client.request(method, path, bodies[i].as_bytes()) {
                        Ok(resp) => resp.status,
                        Err(_) => 0,
                    };
                    lat.push(r0.elapsed().as_secs_f64() * 1e3);
                    if !(200..500).contains(&status) {
                        errors += 1;
                    }
                }
            })
        })
        .collect();
    let mut latencies_ms = Vec::new();
    let mut errors = 0;
    let mut connects = 0u64;
    let mut completed = 0u64;
    for h in handles {
        let (lat, errs, stats) = h.join().expect("phase thread");
        latencies_ms.extend(lat);
        errors += errs;
        connects += stats.connects;
        completed += stats.requests;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    latencies_ms.sort_by(f64::total_cmp);
    let reused = completed.saturating_sub(connects);
    eprintln!(
        "[loadgen] {name}: {} requests in {wall_s:.3}s ({errors} errors, {connects} connects, {reused} reused)",
        bodies.len()
    );
    Phase {
        name,
        requests: bodies.len(),
        errors,
        wall_s,
        latencies_ms,
        connects,
        reused,
        extra: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Multi-process topology phases
// ---------------------------------------------------------------------------

/// A `serve` subprocess bound to an ephemeral port; killed on drop.
struct Node {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn serve_bin() -> Option<PathBuf> {
    let bin = std::env::current_exe().ok()?.with_file_name("serve");
    bin.exists().then_some(bin)
}

/// Boot one `serve` process on an ephemeral port and parse the bound
/// address from its startup line. `SIM_PAR_THREADS=1` pins each process
/// to one simulation thread so the scaling phases measure topology, not
/// core contention between co-located processes.
fn spawn_serve(
    bin: &Path,
    cache: &Path,
    queue: usize,
    worker_addrs: &[SocketAddr],
) -> Option<Node> {
    let mut cmd = Command::new(bin);
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg("2")
        .arg("--queue")
        .arg(queue.to_string())
        .arg("--cache-dir")
        .arg(cache)
        .env("SIM_PAR_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for w in worker_addrs {
        cmd.arg("--worker").arg(w.to_string());
    }
    let mut child = cmd.spawn().ok()?;
    let stderr = child.stderr.take()?;
    let mut reader = BufReader::new(stderr);
    let mut addr = None;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if let Some(rest) = line.strip_prefix("[serve] listening on ") {
            addr = rest.split_whitespace().next().and_then(|s| s.parse().ok());
            break;
        }
    }
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = reader.read_to_end(&mut sink);
    });
    match addr {
        Some(a) => Some(Node { child, addr: a }),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            eprintln!("[loadgen] serve subprocess failed to report an address");
            None
        }
    }
}

/// Boot `n` workers plus a coordinator fronting them, all sharing `cache`.
fn boot_cluster(bin: &Path, cache: &Path, n: usize, queue: usize) -> Option<(Node, Vec<Node>)> {
    let workers: Vec<Node> = (0..n)
        .map_while(|_| spawn_serve(bin, cache, queue, &[]))
        .collect();
    if workers.len() != n {
        return None;
    }
    let waddrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let coord = spawn_serve(bin, cache, queue, &waddrs)?;
    Some((coord, workers))
}

/// Sum of `devices_created` across a set of nodes' `/metrics` endpoints —
/// the number of simulations actually constructed, process-global per
/// node.
fn devices_created_total(nodes: &[SocketAddr]) -> u64 {
    nodes
        .iter()
        .map(|&a| {
            let mut c = HttpClient::new(a);
            match c.request("GET", "/metrics", b"") {
                Ok(resp) => scrape_u64(&resp.text(), "\"devices_created\""),
                Err(_) => 0,
            }
        })
        .sum()
}

/// Pull the first integer following `key` in a JSON document.
fn scrape_u64(text: &str, key: &str) -> u64 {
    let Some(at) = text.find(key) else { return 0 };
    text[at + key.len()..]
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// The multi-process phases: `cold_{N}workers` scaling plus
/// `dedup_cross_node`. Each boots a fresh cluster on a fresh cache
/// directory so every run is genuinely cold.
fn topology_phases(
    topology: &[usize],
    cold_bodies: &[String],
    concurrency: usize,
    dups: usize,
) -> Vec<Phase> {
    let Some(bin) = serve_bin() else {
        eprintln!("[loadgen] serve binary not found next to loadgen; skipping topology phases");
        return Vec::new();
    };
    let mut phases = Vec::new();
    let scratch = std::env::temp_dir().join(format!("loadgen-topo-{}", std::process::id()));

    for &n in topology {
        let cache = scratch.join(format!("cold-{n}"));
        let Some((coord, workers)) = boot_cluster(&bin, &cache, n, 64) else {
            eprintln!("[loadgen] cannot boot {n}-worker cluster; skipping cold_{n}workers");
            continue;
        };
        let mut p = run_phase(
            format!("cold_{n}workers"),
            coord.addr,
            "POST",
            "/v1/runs",
            cold_bodies,
            concurrency,
            true,
        );
        p.extra.push(("workers".into(), n.to_string()));
        phases.push(p);
        drop(coord);
        drop(workers);
        let _ = std::fs::remove_dir_all(&cache);
    }

    // Cross-node dedup: identical requests through a coordinator + 2
    // workers must cost one simulation total.
    let cache = scratch.join("dedup");
    match boot_cluster(&bin, &cache, 2, 64.max(2 * dups)) {
        Some((coord, workers)) => {
            let nodes: Vec<SocketAddr> = std::iter::once(coord.addr)
                .chain(workers.iter().map(|w| w.addr))
                .collect();
            let before = devices_created_total(&nodes);
            let bodies: Vec<String> =
                std::iter::repeat_with(|| r#"{"workload": "tpacf", "reps": 1}"#.to_string())
                    .take(dups)
                    .collect();
            let mut p = run_phase(
                "dedup_cross_node".into(),
                coord.addr,
                "POST",
                "/v1/runs",
                &bodies,
                dups,
                true,
            );
            let delta = devices_created_total(&nodes).saturating_sub(before);
            eprintln!("[loadgen] dedup_cross_node: devices_delta={delta}");
            p.extra.push(("devices_delta".into(), delta.to_string()));
            phases.push(p);
            drop(coord);
            drop(workers);
        }
        None => eprintln!("[loadgen] cannot boot dedup cluster; skipping dedup_cross_node"),
    }
    let _ = std::fs::remove_dir_all(&scratch);
    phases
}

fn render_report(concurrency: usize, dups: usize, keepalive: bool, phases: &[Phase]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"concurrency\": {concurrency},\n"));
    s.push_str(&format!("  \"dup_requests\": {dups},\n"));
    s.push_str(&format!("  \"keepalive\": {keepalive},\n"));
    s.push_str("  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let extra: String = p
            .extra
            .iter()
            .map(|(k, v)| format!(", \"{k}\": {v}"))
            .collect();
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"requests\": {}, \"errors\": {}, \"wall_s\": {:.3}, \
             \"throughput_rps\": {:.1}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"connects\": {}, \"reused\": {}{}}}{}\n",
            p.name,
            p.requests,
            p.errors,
            p.wall_s,
            p.throughput_rps(),
            p.percentile_ms(0.50),
            p.percentile_ms(0.95),
            p.percentile_ms(0.99),
            p.connects,
            p.reused,
            extra,
            if i + 1 < phases.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
