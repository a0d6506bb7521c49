//! The repository benchmark: three workloads that cover the simulator end
//! to end, each measured untraced, plus a separate traced pass that times
//! calls into each layer. See `README.md` beside this package.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--spans FILE]
//!
//! --workload NAME  repro_cold | dvfs_sweep | serve_coord
//!                  (default: all three, in that order)
//! --seed N         input seed (default 1)
//! --seconds S      measuring time per workload (default 35)
//! --trace 1        also run the traced pass and report per-layer metrics
//!                  (default 1; 0 reports end-to-end metrics only)
//! --out FILE       write every summary, layer metric and check as JSON
//! --spans FILE     write the traced passes' spans as a Chrome trace
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). The exit code is non-zero when any check fails.
//!
//! `benchmark --sweep-child DIR SEED` is the child process each
//! `dvfs_sweep` rep runs in; see `dvfs.rs`.

mod dvfs;
mod pipeline;
mod repro;
mod serve;
mod spans;
mod stats;
mod sys;

use spans::Spans;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// End-to-end metrics every workload reports: (name, unit). Request-latency
/// percentiles are not among them: a run of `repro_cold` holds only two or
/// three regenerations, so they are per-layer metrics of `serve_coord`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics every traced pass reports: (name, unit). A layer a
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("device.run_s", "s"),
    ("device.run_at_dispatch_s", "s"),
    ("device.run_preexec_miss_s", "s"),
    ("device.run_preexec_hit_s", "s"),
    ("device.units_at_dispatch", "count"),
    ("device.units_preexec_miss", "count"),
    ("device.units_preexec_hit", "count"),
    ("device.longest_unit_s", "s"),
    ("device.host_est_s", "s"),
    ("pool.idle_s", "s"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_ratio", "fraction"),
    ("sched.replay_s", "s"),
    ("sched.launches", "count"),
    ("sched.us_per_launch", "us"),
    ("power.finish_s", "s"),
    ("power.sensor_s", "s"),
    ("power.k20power_s", "s"),
    ("power.sampler_s", "s"),
    ("power.samples", "count"),
    ("tracedb.store_s", "s"),
    ("tracedb.load_s", "s"),
    ("tracedb.loads", "count"),
    ("tracedb.bytes", "bytes"),
    ("campaign.memo_resolve_us", "us"),
    ("campaign.disk_resolve_us", "us"),
    ("campaign.record_store_s", "s"),
    ("campaign.simulated", "count"),
    ("campaign.memo_hits", "count"),
    ("campaign.disk_hits", "count"),
    ("campaign.trace_replays", "count"),
    ("render.artifacts_s", "s"),
    ("http.runs_server_mean_ms", "ms"),
    ("http.sweep_server_mean_ms", "ms"),
    ("http.healthz_server_mean_ms", "ms"),
    ("http.units_server_mean_ms", "ms"),
    ("http.client_overhead_ms", "ms"),
    ("http.shed", "count"),
    ("client.connects", "count"),
    ("client.reused", "count"),
    ("client.p50_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("dispatch.units_dispatched", "count"),
    ("dispatch.units_local", "count"),
    ("dispatch.chunks_sent", "count"),
    ("dispatch.chunks_retried", "count"),
    ("dispatch.chunks_stolen", "count"),
    ("dispatch.worker_errors", "count"),
    ("dispatch.chunks_per_warm_request", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.reconcile_err", "fraction"),
];

/// The workloads, in the order a full invocation runs them.
pub const WORKLOADS: [&str; 3] = ["repro_cold", "dvfs_sweep", "serve_coord"];

/// Threads the rayon pool gives a stage of `n` items.
pub fn pool_threads(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
        .min(n)
        .max(1)
}

/// Settings shared by every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for caches, trace DBs and server state; removed
    /// when the benchmark ends.
    pub work: PathBuf,
    /// Directory holding the `repro` and `serve` binaries.
    pub bin_dir: PathBuf,
}

impl Opts {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// A fresh, empty scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        dir
    }
}

/// What one workload measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, Summary>,
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Spans,
}

impl Report {
    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("[benchmark] CHECK FAILED: {msg}");
            self.errors.push(msg);
        }
    }

    pub fn e2e(&mut self, name: &'static str, samples: &[f64]) {
        self.end_to_end.insert(name, Summary::of(samples));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The metrics this run reports, checked against the declared lists:
    /// every declared metric present, nothing undeclared, all finite.
    fn metrics(&mut self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut out = Vec::new();
        let mut problems = Vec::new();
        for &(name, unit) in declared {
            let value = if trace {
                Some(self.layers.get(name).copied().unwrap_or(0.0))
            } else {
                self.end_to_end.get(name).map(|s| s.median)
            };
            match value {
                Some(v) if v.is_finite() => out.push((name, unit, v)),
                _ => problems.push(format!("metric {name} missing or not finite")),
            }
        }
        let known = |n: &str| PER_LAYER.iter().chain(&END_TO_END).any(|(d, _)| *d == n);
        for name in self.layers.keys().chain(self.end_to_end.keys()) {
            if !known(name) {
                problems.push(format!("metric {name} is not declared"));
            }
        }
        for p in problems {
            self.check(false, || p);
        }
        out
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--out FILE] [--spans FILE]\nworkloads: {}",
        WORKLOADS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--sweep-child") {
        if let Err(e) = dvfs::child(&argv[1..]) {
            eprintln!("[benchmark] {e}");
            std::process::exit(2);
        }
        return;
    }
    let mut workloads: Vec<&'static str> = WORKLOADS.to_vec();
    let mut seed = 1u64;
    let mut seconds = 35.0f64;
    let mut trace = true;
    let mut out: Option<PathBuf> = None;
    let mut spans_out: Option<PathBuf> = None;
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => {
                let w = value();
                match WORKLOADS.iter().find(|k| **k == w) {
                    Some(k) => workloads = vec![*k],
                    None => {
                        eprintln!("[benchmark] unknown workload: {w}");
                        usage();
                    }
                }
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => match value().parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => usage(),
            },
            "--trace" => match value().as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => usage(),
            },
            "--out" => out = Some(PathBuf::from(value())),
            "--spans" => spans_out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }

    let exe = std::env::current_exe().expect("path of the running executable");
    let bin_dir = exe
        .parent()
        .expect("executable has a directory")
        .to_path_buf();
    for b in ["repro", "serve"] {
        if !bin_dir.join(b).is_file() {
            eprintln!(
                "[benchmark] {} not found beside the benchmark; build it with run.sh",
                bin_dir.join(b).display()
            );
            std::process::exit(1);
        }
    }
    let opts = Opts {
        seed,
        seconds,
        trace,
        work: PathBuf::from(".bench_run").join(std::process::id().to_string()),
        bin_dir,
    };

    let mut reports: Vec<(&str, Report)> = Vec::new();
    for w in &workloads {
        eprintln!("[benchmark] {w}: seed {seed}, {seconds} s");
        let report = match *w {
            "repro_cold" => repro::run(&opts),
            "dvfs_sweep" => dvfs::run(&opts),
            "serve_coord" => serve::run(&opts),
            _ => unreachable!("workload names are validated"),
        };
        reports.push((w, report));
    }
    let _ = std::fs::remove_dir_all(&opts.work);
    let _ = std::fs::remove_dir(".bench_run");

    let mut all_spans = Spans::new(None);
    let mut doc = String::from("{\n");
    let mut metrics_line: Vec<String> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let n_reports = reports.len();
    for (i, (w, r)) in reports.iter_mut().enumerate() {
        let metrics = r.metrics(trace);
        print_report(w, r, trace);
        for (name, unit, v) in &metrics {
            let key = if workloads.len() == 1 {
                name.to_string()
            } else {
                format!("{w}.{name}")
            };
            metrics_line.push(format!(
                "\"{key}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        attempted += r.attempted;
        failed += r.failed;
        correct &= r.correct();
        doc.push_str(&report_json(w, r));
        doc.push_str(if i + 1 < n_reports { ",\n" } else { "\n" });
        all_spans.extend(std::mem::take(&mut r.spans));
    }
    doc.push_str("}\n");
    if let Some(path) = out {
        write_file(&path, &doc);
    }
    if let Some(path) = spans_out {
        write_file(&path, &all_spans.chrome_trace());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics_line.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn write_file(path: &Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("[benchmark] cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn print_report(w: &str, r: &Report, trace: bool) {
    println!(
        "== {w}: {} | attempted {} failed {}",
        if r.correct() { "correct" } else { "INCORRECT" },
        r.attempted,
        r.failed
    );
    for (name, unit) in END_TO_END {
        if let Some(s) = r.end_to_end.get(name) {
            println!(
                "  {name:<14} {:>14.6} {unit:<4} q1 {:.6} q3 {:.6} n {}",
                s.median, s.q1, s.q3, s.n
            );
        }
    }
    if trace {
        for (name, unit) in PER_LAYER {
            let v = r.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<34} {v:>16.6} {unit}");
        }
    }
}

fn report_json(w: &str, r: &Report) -> String {
    let e2e: Vec<String> = r
        .end_to_end
        .iter()
        .map(|(k, s)| {
            format!(
                "\"{k}\": {{\"median\": {:?}, \"q1\": {:?}, \"q3\": {:?}, \"n\": {}}}",
                s.median, s.q1, s.q3, s.n
            )
        })
        .collect();
    let layers: Vec<String> = r
        .layers
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    let self_s: Vec<String> = r
        .spans
        .self_times()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    let errors: Vec<String> = r
        .errors
        .iter()
        .map(|e| format!("{:?}", e.replace('"', "'")))
        .collect();
    format!(
        "  \"{w}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}],\n    \
         \"end_to_end\": {{{}}},\n    \"per_layer\": {{{}}},\n    \"span_self_s\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        errors.join(", "),
        e2e.join(", "),
        layers.join(", "),
        self_s.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists this binary emits are exactly the ones
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn every_emitted_metric_is_declared_and_every_declared_one_emitted() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = sim_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap_or_else(|| panic!("{key} list"))
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn a_report_emits_every_declared_metric_and_flags_strays() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.e2e(name, &[1.0, 2.0]);
        }
        assert_eq!(r.metrics(false).len(), END_TO_END.len());
        assert!(r.correct());
        // Layers a workload never calls read 0.
        assert_eq!(r.metrics(true).len(), PER_LAYER.len());
        r.layer("no.such_metric", 1.0);
        r.metrics(true);
        assert!(!r.correct(), "an undeclared metric is an error");
        let mut r = Report::default();
        r.e2e("wall_s", &[1.0]);
        r.metrics(false);
        assert!(!r.correct(), "a missing end-to-end metric is an error");
    }
}
