//! The characterization service daemon.
//!
//! ```text
//! serve [--addr A] [--workers N] [--queue N] [--cache-dir DIR | --no-cache]
//!       [--trace-dir DIR] [--reps 1|3] [--timeout-s S] [--worker ADDR]...
//!
//! --addr A        bind address (default 127.0.0.1:8077; port 0 = ephemeral)
//! --workers N     measurement worker threads (default 2)
//! --worker ADDR   (repeatable) fan measurement units out to the `serve`
//!                 process at ADDR; with one or more `--worker` flags this
//!                 instance becomes a coordinator (see docs/DISTRIBUTED.md).
//!                 Workers must share this instance's --cache-dir — results
//!                 travel through the on-disk campaign cache, not the wire
//! --queue N       pending-job capacity before load is shed (default 64)
//! --cache-dir DIR campaign cache directory (default target/campaign-cache,
//!                 shared with `repro` so a warm `repro` run pre-warms the
//!                 service)
//! --no-cache      in-process memoization only
//! --trace-dir DIR keep the launch-trace database in DIR, across restarts
//!                 (default: in memory). Functional runs record traces,
//!                 and later units of a recorded program (any
//!                 configuration — this is what makes fine /v1/sweep
//!                 grids cheap) re-simulate from them without functional
//!                 execution; see docs/TRACE.md
//! --reps R        default repetitions for /v1/artifacts (default 3, the
//!                 paper's methodology and the goldens' setting)
//! --timeout-s S   per-request job deadline (default 300)
//! ```
//!
//! SIGTERM/SIGINT trigger a graceful drain: stop accepting, run every
//! admitted job to completion, join the workers, exit 0.

use sim_serve::{install_signal_handlers, Server, ServerConfig};
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr A] [--workers N] [--queue N] [--cache-dir DIR | --no-cache] \
         [--trace-dir DIR] [--reps 1|3] [--timeout-s S] [--worker ADDR]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServerConfig {
        cache_dir: Some(PathBuf::from("target/campaign-cache")),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => match args.next() {
                Some(v) => cfg.addr = v,
                None => usage(),
            },
            "--workers" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => cfg.workers = n,
                _ => usage(),
            },
            "--queue" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => cfg.queue_capacity = n,
                _ => usage(),
            },
            "--cache-dir" => match args.next() {
                Some(d) => cfg.cache_dir = Some(PathBuf::from(d)),
                None => usage(),
            },
            "--no-cache" => cfg.cache_dir = None,
            "--trace-dir" => match args.next() {
                Some(d) => cfg.trace_dir = Some(PathBuf::from(d)),
                None => usage(),
            },
            "--reps" => match args.next().as_deref() {
                Some("1") => cfg.default_artifact_reps = 1,
                Some("3") => cfg.default_artifact_reps = 3,
                _ => usage(),
            },
            "--timeout-s" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) if s > 0 => cfg.request_timeout = Duration::from_secs(s),
                _ => usage(),
            },
            "--worker" => match args
                .next()
                .and_then(|v| v.to_socket_addrs().ok())
                .and_then(|mut it| it.next())
            {
                Some(addr) => cfg.dispatch.workers.push(addr),
                None => usage(),
            },
            _ => usage(),
        }
    }

    install_signal_handlers();
    let server = match Server::bind(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[serve] cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    eprintln!(
        "[serve] listening on {} | workers={} queue={} cache={} traces={} artifact_reps={} dispatch_workers={}",
        server.local_addr(),
        cfg.workers,
        cfg.queue_capacity,
        cfg.cache_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "none".to_string()),
        cfg.trace_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "none".to_string()),
        cfg.default_artifact_reps,
        cfg.dispatch.workers.len(),
    );
    server.run();
    eprintln!("[serve] drained, exiting");
}
