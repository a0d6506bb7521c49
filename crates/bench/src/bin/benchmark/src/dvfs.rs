//! `dvfs_sweep`: a seeded 32 × 3 clock grid swept over 16 trace-eligible
//! programs, entirely by trace replay. It runs no functional execution in
//! its measured phase, so its time is the fluid scheduler, trace-DB
//! decoding and the power pipeline — the opposite of `repro_cold`.
//!
//! Each measured sweep runs in a fresh child process
//! (`benchmark --sweep-child DIR SEED`), so its peak resident set is its
//! own and not whatever this process's allocator kept from earlier work.
//!
//! Set-up, sweeps and the traced replay pass each run on one thread. On a
//! two-vCPU host a two-thread sweep waits at every program's barrier for
//! the slower vCPU, and its rep-to-rep spread measured twice that of one
//! thread; the work itself, and the layers it exercises, are the same.

use crate::pipeline::{
    launches, measure_live, measure_replay, memo_layers, power_layers, replay_layers,
};
use crate::spans::{now_ns, Spans};
use crate::stats::{dvfs_grid, Rng};
use crate::{Opts, Report};
use characterize::campaign::{sim_fingerprint, Campaign, CampaignConfig, SweepPoint};
use characterize::experiment::{measure_with_device_config, measure_with_device_config_recording};
use characterize::{trace_key, GpuConfigKind, StoredTrace, TraceDb};
use gpower::{PowerError, Reading};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::bench::{Benchmark, InputSpec};
use workloads::registry;

/// The trace-eligible programs swept, each on its first input.
pub const PROGRAMS: [&str; 16] = [
    "nb", "sc", "cutcp", "lbm", "mriq", "sad", "sgemm", "sten", "bp", "ge", "nn", "nw", "pf",
    "fft", "mf", "s2d",
];
/// Fewest recordings and sweeps a run measures, however slow the host.
const MIN_REPS: usize = 2;
/// Seeded sweep points re-measured live, by functional execution.
const LIVE_CHECKS: usize = 8;

type Sweep = Vec<(SweepPoint, Result<Reading, PowerError>)>;

fn program(key: &str) -> (Box<dyn Benchmark>, InputSpec) {
    let b = registry::by_key(key).expect("swept program is registered");
    let input = b.inputs()[0].clone();
    (b, input)
}

fn tkey(b: &dyn Benchmark, input: &InputSpec) -> String {
    let mem = GpuConfigKind::Default.device_config().mem_model.tag();
    trace_key(&b.spec().cache_key(), &input.cache_key(), &mem)
}

/// Record every program's launch trace into a fresh DB at `dir`, from a
/// cold launch memo, one program after another with one pre-execution
/// worker. Returns false if some program was not eligible.
fn record(dir: &Path) -> bool {
    kepler_sim::reset_exec_cache();
    kepler_sim::set_exec_jobs(1);
    let db = TraceDb::new(dir.to_path_buf(), sim_fingerprint());
    let eligible = PROGRAMS.iter().all(|k| {
        let (b, input) = program(k);
        let cfg = GpuConfigKind::Default.device_config();
        let (_, st) = measure_with_device_config_recording(b.as_ref(), &input, cfg, 0);
        let Some(st) = st else { return false };
        db.store(&tkey(b.as_ref(), &input), &st);
        true
    });
    kepler_sim::set_exec_jobs(0);
    eligible
}

/// One full sweep: `Campaign::sweep` over the grid for every program.
fn sweep_all(c: &Campaign, grid: &[SweepPoint]) -> Vec<Sweep> {
    PROGRAMS
        .iter()
        .map(|k| {
            let (b, input) = program(k);
            c.sweep(b.as_ref(), &input, grid, 1)
        })
        .collect()
}

/// One point's reading as text: the bit patterns of its floats and its
/// sample count, so two lines are equal exactly when the readings are
/// bit-identical.
pub fn reading_line(res: &Result<Reading, PowerError>) -> String {
    match res {
        Ok(r) => {
            let bits = [
                r.active_runtime_s,
                r.energy_j,
                r.avg_power_w,
                r.threshold_w,
                r.idle_w,
            ]
            .map(|f| format!("{:016x}", f.to_bits()));
            format!("{} {}", bits.join(" "), r.n_active_samples)
        }
        Err(e) => format!("error {e:?}"),
    }
}

/// Reading lines of a sweep, program-major: point `g` of program `p` is
/// line `p * grid.len() + g`.
fn lines_of(sweeps: &[Sweep]) -> Vec<String> {
    sweeps
        .iter()
        .flatten()
        .map(|(_, res)| reading_line(res))
        .collect()
}

/// Lines that differ between two sweeps, or are missing from either.
fn differing(a: &[String], b: &[String]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
}

/// `benchmark --sweep-child DIR SEED`: one full sweep over the seed's grid
/// with a fresh campaign over the trace DB in `DIR`. Prints one reading
/// line per point, then the campaign's `trace_replays` and `simulated`
/// and the process's peak resident set in MB.
pub fn child(args: &[String]) -> Result<(), String> {
    let [dir, seed] = args else {
        return Err("usage: benchmark --sweep-child DIR SEED".to_string());
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
    let c = Campaign::new(CampaignConfig {
        trace_dir: Some(PathBuf::from(dir)),
        ..CampaignConfig::default()
    });
    let sweeps = sweep_all(&c, &dvfs_grid(seed));
    let mut out = lines_of(&sweeps).join("\n");
    let s = c.stats();
    let peak_mb = crate::sys::status_mb(std::process::id(), "VmHWM").ok_or("no VmHWM")?;
    out.push_str(&format!(
        "\n{} {} {peak_mb}\n",
        s.trace_replays, s.simulated
    ));
    print!("{out}");
    Ok(())
}

/// What one child sweep printed.
struct ChildSweep {
    lines: Vec<String>,
    /// The child campaign's `trace_replays` and `simulated`.
    stats: String,
    /// The child's own peak resident set. `wait4` cannot give it: a
    /// spawned child shares this process's memory until it execs, so its
    /// `ru_maxrss` also covers this process's peak.
    peak_mb: f64,
}

/// Run one sweep in a child process: its wall time, from spawn to exit,
/// and what it printed.
fn sweep_in_child(traces: &Path, seed: u64) -> (f64, Result<ChildSweep, String>) {
    let exe = std::env::current_exe().expect("path of the running executable");
    let t = Instant::now();
    let out = Command::new(exe)
        .arg("--sweep-child")
        .arg(traces)
        .arg(seed.to_string())
        .env("SIM_PAR_THREADS", "1")
        .stdin(Stdio::null())
        .output()
        .expect("run sweep child");
    let wall = t.elapsed().as_secs_f64();
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return (wall, Err(format!("sweep child {}: {err}", out.status)));
    }
    let mut lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    let last = lines.pop().unwrap_or_default();
    let (stats, peak) = last.rsplit_once(' ').unwrap_or_default();
    let got = match peak.parse() {
        Ok(peak_mb) => Ok(ChildSweep {
            lines,
            stats: stats.to_string(),
            peak_mb,
        }),
        Err(_) => Err(format!("sweep child ended with {last:?}")),
    };
    (wall, got)
}

pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let grid = dvfs_grid(opts.seed);
    let units = (PROGRAMS.len() * grid.len()) as u64;

    let traces = opts.fresh_dir("dvfs-traces");
    let (mut setup, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<String>> = None;
    let t0 = Instant::now();
    loop {
        // Set-up: every sweep replays traces recorded just before it, so
        // the set-up samples are spread over the run like the sweeps.
        let _ = std::fs::remove_dir_all(&traces);
        let t = Instant::now();
        let eligible = record(&traces);
        setup.push(t.elapsed().as_secs_f64());
        r.check(eligible, || {
            "a swept program is not trace-eligible".to_string()
        });

        r.attempted += units;
        let (wall, got) = sweep_in_child(&traces, opts.seed);
        walls.push(wall);
        let expected = format!("{units} 0");
        match got {
            Ok(ChildSweep {
                lines,
                stats,
                peak_mb,
            }) => {
                rss.push(peak_mb);
                r.check(stats == expected, || {
                    format!("sweep did not replay every unit: {stats:?}, expected {expected:?}")
                });
                let errors = lines.iter().filter(|l| l.starts_with("error")).count();
                let differ = first.as_deref().map_or(0, |f| differing(f, &lines));
                r.failed += (errors + differ) as u64;
                r.check(errors == 0, || {
                    format!("{errors} sweep points failed to measure")
                });
                r.check(differ == 0, || {
                    format!("{differ} sweep points differ from the first rep")
                });
                r.check(lines.len() as u64 == units, || {
                    format!(
                        "sweep child printed {} points, expected {units}",
                        lines.len()
                    )
                });
                first.get_or_insert(lines);
            }
            Err(e) => {
                r.failed += units;
                r.check(false, || e);
            }
        }
        // Record and sweep again only if that is expected to end in time.
        let elapsed = t0.elapsed().as_secs_f64();
        if walls.len() >= MIN_REPS && elapsed + elapsed / walls.len() as f64 > opts.seconds {
            break;
        }
    }
    let first = first.unwrap_or_default();
    r.e2e("setup_s", &setup);
    r.e2e("wall_s", &walls);
    // Missing when every child failed, which the metric check reports.
    if !rss.is_empty() {
        r.e2e("peak_rss_mb", &rss);
    }
    let rates: Vec<f64> = walls.iter().map(|w| units as f64 / w).collect();
    r.e2e("rate_per_s", &rates);

    // Replay must agree with functional execution at seeded points.
    let mut rng = Rng::new(opts.seed);
    for _ in 0..LIVE_CHECKS {
        let (p, g) = (rng.below(PROGRAMS.len()), rng.below(grid.len()));
        let (b, input) = program(PROGRAMS[p]);
        let live = measure_with_device_config(b.as_ref(), &input, grid[g].device_config(), 0)
            .map(|m| m.reading);
        r.attempted += 1;
        let ok = first.get(p * grid.len() + g) == Some(&reading_line(&live));
        r.failed += u64::from(!ok);
        r.check(ok, || {
            format!(
                "{} at {:?}: replay differs from live run",
                PROGRAMS[p], grid[g]
            )
        });
    }

    if opts.trace {
        let untraced = r.end_to_end["wall_s"].median;
        traced_pass(opts, &mut r, &grid, &first, untraced);
    }
    r
}

/// The layer breakdown: a traced recording, then every grid point as
/// `TraceDb::load` + `TraceReplayDevice::replay` + the power chain, both
/// on one thread like the measured work, then the campaign's memo,
/// record-store and disk paths.
fn traced_pass(
    opts: &Opts,
    r: &mut Report,
    grid: &[SweepPoint],
    first: &[String],
    untraced_wall: f64,
) {
    let units = PROGRAMS.len() * grid.len();
    let dir = opts.fresh_dir("dvfs-traced");
    let db = TraceDb::new(dir.clone(), sim_fingerprint());
    kepler_sim::reset_exec_cache();
    kepler_sim::set_exec_jobs(1);
    let recorded: Vec<(Spans, Option<StoredTrace>, f64)> = (0..PROGRAMS.len())
        .map(|p| {
            let (b, input) = program(PROGRAMS[p]);
            let mut sp = Spans::new(Some(p as u32));
            let st = sp.time("record", |sp| {
                let cfg = GpuConfigKind::Default.device_config();
                let (_, st) = measure_live(sp, b.as_ref(), &input, cfg, 0);
                if let Some(st) = &st {
                    sp.time("tracedb.store", |_| db.store(&tkey(b.as_ref(), &input), st));
                }
                st
            });
            let run_s = sp.total("device.run");
            (sp, st, run_s)
        })
        .collect();
    kepler_sim::set_exec_jobs(0);
    let (hits, misses) = kepler_sim::exec_cache_stats();
    let mut setup = Spans::new(None);
    let mut run_s = 0.0;
    for (sp, st, s) in recorded {
        r.check(st.is_some(), || "traced recording not eligible".to_string());
        run_s += s;
        setup.extend(sp);
    }
    let bytes: u64 = std::fs::read_dir(&dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);

    let start = now_ns();
    let logs: Vec<(Spans, usize, bool)> = (0..units)
        .map(|u| {
            let (p, g) = (u / grid.len(), u % grid.len());
            let (b, input) = program(PROGRAMS[p]);
            let mut sp = Spans::new(Some(u as u32));
            let (n, ok) = sp.time("unit", |sp| {
                let st = sp.time("tracedb.load", |_| db.load(&tkey(b.as_ref(), &input)));
                let Some(st) = st else { return (0, false) };
                let key = b.spec().key;
                let res = measure_replay(sp, key, &input, grid[g].device_config(), 0, &st);
                let line = reading_line(&res.map(|m| m.reading));
                (
                    launches(&st.run),
                    first.get(p * grid.len() + g) == Some(&line),
                )
            });
            (sp, n, ok)
        })
        .collect();
    let end = now_ns();
    let mut pass = Spans::new(None);
    let (mut n_launches, mut mismatched) = (0, 0);
    for (sp, n, ok) in logs {
        n_launches += n;
        mismatched += usize::from(!ok);
        pass.extend(sp);
    }
    r.check(mismatched == 0, || {
        format!("{mismatched} traced replays differ from the campaign sweep")
    });
    let rec = pass.reconcile(start, end, 1);
    r.check(rec.max_err() <= 0.02, || {
        format!("traced pass does not reconcile: {rec:?}")
    });

    // Campaign paths: a memo-only sweep, then memo hits on the same
    // campaign; a sweep that also writes records; a fresh campaign that
    // reads them back.
    let mut aux = Spans::new(None);
    let memo_only = Campaign::new(CampaignConfig {
        trace_dir: Some(dir.clone()),
        ..CampaignConfig::default()
    });
    aux.time("campaign.sweep", |_| sweep_all(&memo_only, grid));
    aux.time("campaign.memo_resolve", |_| sweep_all(&memo_only, grid));
    let records = opts.fresh_dir("dvfs-records");
    let writer = Campaign::new(CampaignConfig {
        cache_dir: Some(records.clone()),
        trace_dir: Some(dir.clone()),
        ..CampaignConfig::default()
    });
    let written = aux.time("campaign.sweep_store", |_| sweep_all(&writer, grid));
    let reader = Campaign::new(CampaignConfig {
        cache_dir: Some(records),
        ..CampaignConfig::default()
    });
    let read = aux.time("campaign.disk_resolve", |_| sweep_all(&reader, grid));
    let ws = writer.stats();
    r.check(reader.stats().disk_hits == units as u64, || {
        format!("record read-back was not all disk hits: {}", reader.stats())
    });
    let bad = differing(first, &lines_of(&written)) + differing(first, &lines_of(&read));
    r.check(bad == 0, || {
        format!("{bad} points differ after a record round trip")
    });

    let replay_s = pass.total("sched.replay");
    r.layer("device.run_s", run_s);
    r.layer("device.run_preexec_miss_s", run_s);
    r.layer("device.units_preexec_miss", PROGRAMS.len() as f64);
    r.layer("device.longest_unit_s", setup.longest("device.run"));
    r.layer("pool.idle_s", rec.pool_idle_s());
    memo_layers(r, hits, misses);
    replay_layers(r, replay_s, n_launches);
    power_layers(r, &pass);
    r.layer("tracedb.store_s", setup.total("tracedb.store"));
    r.layer("tracedb.load_s", pass.total("tracedb.load"));
    r.layer("tracedb.loads", units as f64);
    r.layer("tracedb.bytes", bytes as f64);
    let per_unit_us = |name| aux.total(name) * 1e6 / units as f64;
    r.layer(
        "campaign.memo_resolve_us",
        per_unit_us("campaign.memo_resolve"),
    );
    r.layer(
        "campaign.disk_resolve_us",
        per_unit_us("campaign.disk_resolve"),
    );
    r.layer(
        "campaign.record_store_s",
        aux.total("campaign.sweep_store") - aux.total("campaign.sweep"),
    );
    r.layer("campaign.simulated", ws.simulated as f64);
    r.layer("campaign.memo_hits", ws.memo_hits as f64);
    r.layer("campaign.disk_hits", ws.disk_hits as f64);
    r.layer("campaign.trace_replays", ws.trace_replays as f64);
    r.layer("trace.overhead_frac", rec.wall_s / untraced_wall - 1.0);
    r.layer("trace.reconcile_err", rec.max_err());
    eprintln!(
        "[benchmark] dvfs_sweep traced: {:.2}s replay pass, {:.2}s in sched.replay",
        rec.wall_s, replay_s
    );
    r.spans.extend(setup);
    r.spans.extend(pass);
    r.spans.extend(aux);
}
