//! `repro_cold`: the researcher's headline number — a cold
//! `repro all --quick --no-cache` in a child process, whose stdout must
//! byte-match the committed golden. Most of its time is functional
//! execution of trace-ineligible programs; it touches no disk, trace DB or
//! HTTP. The seed is unused: the paper matrix is fixed.

use crate::pipeline::{
    launches, measure_live, measure_replay, memo_layers, power_layers, replay_layers, same_outcome,
};
use crate::spans::{now_ns, Spans};
use crate::stats::Rng;
use crate::{Opts, Report};
use characterize::campaign::{plan_artifacts, Artifact, Campaign, RunRequest};
use characterize::figures::{input_power_figure, power_profile, power_range_figure, ratio_figure};
use characterize::report::*;
use characterize::tables::{table1, table2, table3, table4};
use characterize::{GpuConfigKind, StoredTrace};
use rayon::prelude::*;
use std::collections::HashSet;
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::registry;

/// `repro all --quick --no-cache` stdout.
const GOLDEN: &[u8] = include_bytes!("../golden/repro-all-quick.out");
/// Units the ten `all` artifacts request, and how many are distinct.
const REQUESTED: u64 = 504;
const UNIQUE: usize = 247;
/// `repro`'s `all`, in output order.
const ALL: [&str; 10] = [
    "table1", "fig1", "fig2", "fig3", "fig4", "table2", "table3", "table4", "fig5", "fig6",
];
/// Runs of `repro table1` before each regeneration; the median of all of
/// them is the set-up time. Spread over the whole run, they see the host at
/// the same speeds as the regenerations do, not at one instant.
const SETUPS_PER_REP: usize = 5;
/// Fewest regenerations a run measures, however slow the host.
const MIN_REPS: usize = 2;
/// Seeded units re-measured through `characterize::experiment::measure`.
const SPOT_CHECKS: usize = 10;

pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let repro = opts.bin("repro");

    let (mut setup, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        // Set-up: start the binary and render the inventory table, which
        // needs no measurements; its output is the golden's first artifact.
        for _ in 0..SETUPS_PER_REP {
            let t = Instant::now();
            let out = Command::new(&repro)
                .arg("table1")
                .stdin(Stdio::null())
                .stderr(Stdio::null())
                .output();
            setup.push(t.elapsed().as_secs_f64());
            let ok = matches!(&out, Ok(o) if o.status.success() && GOLDEN.starts_with(&o.stdout));
            r.check(ok, || format!("repro table1 failed or differs: {out:?}"));
        }

        r.attempted += 1;
        let t = Instant::now();
        let child = Command::new(&repro)
            .args(["all", "--quick", "--no-cache"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn repro");
        let (out, peak_mb) = crate::sys::wait_with_rusage(child).expect("reap repro");
        walls.push(t.elapsed().as_secs_f64());
        rss.push(peak_mb);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let summary = format!("requested={REQUESTED} unique={UNIQUE} ");
        let ok = out.status.success() && out.stdout == GOLDEN && stderr.contains(&summary);
        if !ok {
            r.failed += 1;
        }
        r.check(ok, || {
            format!(
                "repro all --quick --no-cache: {}, stdout {} golden, stderr: {}",
                out.status,
                if out.stdout == GOLDEN {
                    "matches"
                } else {
                    "differs from"
                },
                stderr.lines().last().unwrap_or("")
            )
        });
        // Start another rep only if it is expected to end in time.
        let typical = crate::stats::Summary::of(&walls).median;
        if walls.len() >= MIN_REPS && t0.elapsed().as_secs_f64() + typical > opts.seconds {
            break;
        }
    }
    r.e2e("setup_s", &setup);
    r.e2e("wall_s", &walls);
    r.e2e("peak_rss_mb", &rss);
    let rates: Vec<f64> = walls.iter().map(|w| REQUESTED as f64 / w).collect();
    r.e2e("rate_per_s", &rates);

    if opts.trace {
        let untraced = r.end_to_end["wall_s"].median;
        traced_pass(opts, &mut r, untraced);
    }
    r
}

/// One unit of the plan, run live with spans.
struct LiveUnit {
    spans: Spans,
    start_ns: u64,
    end_ns: u64,
    /// Seconds in `Device::new` + `Benchmark::run`.
    run_s: f64,
    outcome: Result<characterize::experiment::Measurement, gpower::PowerError>,
    /// `None`: some launch executed at dispatch.
    stored: Option<StoredTrace>,
}

type LaunchId = (String, Vec<u64>, u32, u32, [u64; 2]);

fn launch_ids(st: &StoredTrace) -> HashSet<LaunchId> {
    st.run
        .launches
        .iter()
        .map(|l| {
            (
                l.kernel.clone(),
                l.params.clone(),
                l.grid,
                l.block_threads,
                l.mem_fp,
            )
        })
        .collect()
}

/// The layer breakdown of a cold regeneration, in-process.
///
/// The 247-unit plan runs on the rayon pool after `reset_exec_cache()`,
/// each unit as `Device::new` + `Benchmark::run` + the power chain, with a
/// trace recorder attached. A unit whose recorder saw a launch bypass
/// pre-execution ran at dispatch. A pre-executed unit counts as a launch
/// memo hit when every launch it made had already been made by a unit that
/// finished before it started, and as a miss otherwise (a unit racing
/// another over the same launch counts as a miss). Eligible units are then
/// replayed from their traces, which times the scheduler alone; the
/// difference is host-side work (functional execution, input generation,
/// memory fingerprinting). A campaign then executes the same plan and
/// renders the ten artifacts, which must equal the golden.
fn traced_pass(opts: &Opts, r: &mut Report, untraced_wall: f64) {
    let wanted: Vec<Artifact> = ALL.iter().filter_map(|a| Artifact::from_name(a)).collect();
    let plan: Vec<RunRequest> = plan_artifacts(&wanted, 1);
    r.check(plan.len() == UNIQUE, || {
        format!("plan has {} units, expected {UNIQUE}", plan.len())
    });

    kepler_sim::reset_exec_cache();
    let threads = crate::pool_threads(plan.len());
    let start = now_ns();
    let mut units: Vec<LiveUnit> = (0..plan.len())
        .into_par_iter()
        .map(|i| {
            let req = &plan[i];
            let b = registry::by_key(req.key).expect("planned workload is registered");
            let mut spans = Spans::new(Some(i as u32));
            let t0 = now_ns();
            let (outcome, stored) = spans.time("unit", |sp| {
                measure_live(
                    sp,
                    b.as_ref(),
                    &req.input,
                    req.config.device_config(),
                    req.rep,
                )
            });
            LiveUnit {
                run_s: spans.total("device.run"),
                spans,
                start_ns: t0,
                end_ns: now_ns(),
                outcome,
                stored,
            }
        })
        .collect();
    let end = now_ns();
    let (hits, misses) = kepler_sim::exec_cache_stats();

    let mut live = Spans::new(None);
    let ids: Vec<Option<HashSet<LaunchId>>> = units
        .iter()
        .map(|u| u.stored.as_ref().map(launch_ids))
        .collect();
    let (mut at_dispatch, mut pre_miss, mut pre_hit) = ((0, 0.0), (0, 0.0), (0, 0.0));
    for (i, u) in units.iter().enumerate() {
        let class = match &ids[i] {
            None => &mut at_dispatch,
            Some(mine) => {
                let mut seen: HashSet<&LaunchId> = HashSet::new();
                for (j, v) in units.iter().enumerate() {
                    if j != i && v.end_ns <= u.start_ns {
                        seen.extend(ids[j].iter().flatten());
                    }
                }
                if mine.iter().all(|k| seen.contains(k)) {
                    &mut pre_hit
                } else {
                    &mut pre_miss
                }
            }
        };
        class.0 += 1;
        class.1 += u.run_s;
    }
    for u in &mut units {
        live.extend(std::mem::take(&mut u.spans));
    }
    let rec = live.reconcile(start, end, threads);
    r.check(rec.max_err() <= 0.02, || {
        format!("traced pass does not reconcile: {rec:?}")
    });

    // Replay every eligible unit from its own trace: scheduler only.
    let mut aux = Spans::new(None);
    let (mut replay_s, mut preexec_run_s, mut n_launches) = (0.0, 0.0, 0usize);
    for (i, u) in units.iter().enumerate() {
        let Some(st) = &u.stored else { continue };
        let req = &plan[i];
        let mut sp = Spans::new(Some(i as u32));
        let again = sp.time("replay", |sp| {
            measure_replay(
                sp,
                req.key,
                &req.input,
                req.config.device_config(),
                req.rep,
                st,
            )
        });
        r.check(same_outcome(&again, &u.outcome), || {
            format!("replay of unit {i} ({}) differs from its live run", req.key)
        });
        replay_s += sp.total("sched.replay");
        preexec_run_s += u.run_s;
        n_launches += launches(&st.run);
        aux.extend(sp);
    }

    // The copied seed derivation and the re-assembled pipeline reproduce
    // the library's measurement bit for bit.
    let mut rng = Rng::new(opts.seed);
    for i in rng.distinct(SPOT_CHECKS, plan.len()) {
        let req = &plan[i];
        let b = registry::by_key(req.key).expect("registered");
        let direct = characterize::experiment::measure(b.as_ref(), &req.input, req.config, req.rep);
        r.check(same_outcome(&direct, &units[i].outcome), || {
            format!("unit {i} ({}) differs from experiment::measure", req.key)
        });
    }

    // The campaign path repro takes, then rendering, then a warm resolve.
    let campaign = Campaign::in_memory();
    aux.time("campaign.execute", |_| campaign.execute(&plan));
    let text = aux.time("render.artifacts", |_| render_all(&campaign));
    r.check(text.as_bytes() == GOLDEN, || {
        "in-process rendering differs from the golden".to_string()
    });
    aux.time("campaign.memo_resolve", |_| campaign.execute(&plan));
    let cs = campaign.stats();

    let live_s = rec.wall_s;
    r.layer("device.run_s", live.total("device.run"));
    r.layer("device.run_at_dispatch_s", at_dispatch.1);
    r.layer("device.run_preexec_miss_s", pre_miss.1);
    r.layer("device.run_preexec_hit_s", pre_hit.1);
    r.layer("device.units_at_dispatch", at_dispatch.0 as f64);
    r.layer("device.units_preexec_miss", pre_miss.0 as f64);
    r.layer("device.units_preexec_hit", pre_hit.0 as f64);
    r.layer("device.longest_unit_s", live.longest("device.run"));
    r.layer("device.host_est_s", preexec_run_s - replay_s);
    r.layer("pool.idle_s", rec.pool_idle_s());
    memo_layers(r, hits, misses);
    replay_layers(r, replay_s, n_launches);
    power_layers(r, &live);
    let memo_s = aux.total("campaign.memo_resolve");
    r.layer("campaign.memo_resolve_us", memo_s * 1e6 / plan.len() as f64);
    r.layer("campaign.simulated", cs.simulated as f64);
    r.layer("campaign.memo_hits", cs.memo_hits as f64);
    r.layer("campaign.disk_hits", cs.disk_hits as f64);
    r.layer("campaign.trace_replays", cs.trace_replays as f64);
    r.layer("render.artifacts_s", aux.total("render.artifacts"));
    r.layer("trace.overhead_frac", live_s / untraced_wall - 1.0);
    r.layer("trace.reconcile_err", rec.max_err());
    eprintln!(
        "[benchmark] repro_cold traced: {live_s:.2}s on {threads} threads, \
         {} at dispatch / {} pre-exec miss / {} pre-exec hit units",
        at_dispatch.0, pre_miss.0, pre_hit.0
    );
    r.spans.extend(live);
    r.spans.extend(aux);
}

/// `repro all --quick` stdout, rendered in-process from a warm campaign.
fn render_all(c: &Campaign) -> String {
    use GpuConfigKind::{Default, Ecc, C324, C614};
    let reps = 1;
    let mut s = String::new();
    let mut put = |text: String| {
        s.push_str(&text);
        s.push('\n');
    };
    put(render_table1(&table1()));
    put(render_fig1(&power_profile("sgemm")));
    let f2 = ratio_figure(c, Default, C614, reps);
    put(render_ratio_figure(
        &f2,
        "Figure 2: effects of the 614 configuration",
    ));
    let f3 = ratio_figure(c, C614, C324, reps);
    put(render_ratio_figure(
        &f3,
        "Figure 3: effects of the 324 configuration",
    ));
    let f4 = ratio_figure(c, Default, Ecc, reps);
    put(render_ratio_figure(&f4, "Figure 4: effects of ECC"));
    put(render_table2(&table2(c)));
    put(render_table3(&table3(c, reps)));
    put(render_table4(&table4(c, reps)));
    put(render_fig5(&input_power_figure(c, reps)));
    put(render_fig6(&power_range_figure(c, reps)));
    s
}
