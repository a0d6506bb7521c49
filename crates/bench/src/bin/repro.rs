//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--no-cache] [--cache-dir DIR] [--trace-dir DIR]
//!       [--jobs N] [ARTIFACT...]
//!
//! ARTIFACT: table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6
//!           energy-breakdown energy-sampling-error static-analysis
//!           cache-sensitivity trdata all        (default: all)
//! ```
//!
//! `--quick` runs one repetition per configuration instead of the paper's
//! three (the shapes are identical; only Table 2's variability needs the
//! full three, which it always uses).
//!
//! `--jobs N` sets the worker-pool size for the simulator's pre-executed
//! launches (default: one worker per core). Purely a wall-clock knob —
//! results are bit-identical for every N; see `docs/CAMPAIGN.md`.
//!
//! All requested artifacts draw from one shared measurement campaign: the
//! union of their run matrices is deduplicated and executed exactly once,
//! and every unit is persisted to an on-disk cache (default
//! `target/campaign-cache`, override with `--cache-dir`, disable with
//! `--no-cache`) so a re-run that changes nothing simulates nothing. The
//! closing summary on stderr reports `simulated=`/`memo_hits=`/
//! `disk_hits=` counters.
//!
//! `--trace-dir DIR` additionally records each program's launch trace to
//! DIR on cold functional runs and *replays* from it on later runs whose
//! campaign records are absent (e.g. a fresh `--cache-dir`): replayed
//! units re-simulate timing/power from the trace without functional
//! execution, bit-identically. See `docs/TRACE.md`.

use characterize::analysis::{render_static_analysis, static_analysis};
use characterize::cache::{cache_sensitivity, render_cache_sensitivity};
use characterize::campaign::{plan_artifacts, Artifact, Campaign, CampaignConfig};
use characterize::energy::{energy_breakdown, sampling_error};
use characterize::figures::{input_power_figure, power_profile, power_range_figure, ratio_figure};
use characterize::report::*;
use characterize::tables::{table1, table2, table3, table4, tr_detail};
use characterize::GpuConfigKind;
use std::path::PathBuf;

/// `all` in output order. `trdata` (the companion technical report's full
/// per-program sweep) stays opt-in: it is the most expensive matrix. The
/// two energy-lab artifacts are also opt-in so the `all` output (and its
/// goldens) stay byte-identical across releases.
const ALL: [&str; 10] = [
    "table1", "fig1", "fig2", "fig3", "fig4", "table2", "table3", "table4", "fig5", "fig6",
];

/// Opt-in artifacts accepted alongside the `all` set.
const EXTRA: [&str; 5] = [
    "trdata",
    "energy-breakdown",
    "energy-sampling-error",
    "static-analysis",
    "cache-sensitivity",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--no-cache] [--cache-dir DIR] [--trace-dir DIR] [--jobs N] [ARTIFACT...]\n\
         artifacts: {} {} all",
        ALL.join(" "),
        EXTRA.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut no_cache = false;
    let mut cache_dir: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut selectors: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--no-cache" => no_cache = true,
            "--cache-dir" => match args.next() {
                Some(d) => cache_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("[repro] --cache-dir needs a directory argument");
                    usage();
                }
            },
            "--trace-dir" => match args.next() {
                Some(d) => trace_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("[repro] --trace-dir needs a directory argument");
                    usage();
                }
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => kepler_sim::set_exec_jobs(n),
                _ => {
                    eprintln!("[repro] --jobs needs a positive worker count");
                    usage();
                }
            },
            s if s.starts_with("--") => {
                eprintln!("[repro] unknown flag: {s}");
                usage();
            }
            s => selectors.push(s.to_string()),
        }
    }
    if selectors.is_empty() {
        selectors.push("all".to_string());
    }

    // Expand `all` and validate, preserving request order without dupes.
    let mut artifacts: Vec<&str> = Vec::new();
    for s in &selectors {
        let expanded: Vec<&str> = if s == "all" {
            ALL.to_vec()
        } else if let Some(a) = EXTRA.iter().find(|a| **a == s.as_str()) {
            vec![*a]
        } else if let Some(a) = ALL.iter().find(|a| **a == s.as_str()) {
            vec![*a]
        } else {
            eprintln!("[repro] unknown artifact: {s}");
            usage();
        };
        for a in expanded {
            if !artifacts.contains(&a) {
                artifacts.push(a);
            }
        }
    }

    let reps = if quick { 1 } else { 3 };
    let campaign = Campaign::new(CampaignConfig {
        cache_dir: if no_cache {
            None
        } else {
            Some(cache_dir.unwrap_or_else(|| PathBuf::from("target/campaign-cache")))
        },
        telemetry: None,
        trace_dir,
    });

    // Prefetch: execute the deduplicated union of every requested
    // artifact's run matrix once; the generators below then resolve
    // entirely from the memo.
    let t0 = std::time::Instant::now();
    let wanted: Vec<Artifact> = artifacts
        .iter()
        .filter_map(|a| Artifact::from_name(a))
        .collect();
    let raw: usize = wanted.iter().map(|a| a.runs(reps).len()).sum();
    let plan = plan_artifacts(&wanted, reps);
    let unique = campaign.execute(&plan);

    for what in &artifacts {
        match *what {
            "table1" => println!("{}", render_table1(&table1())),
            "fig1" => println!("{}", render_fig1(&power_profile("sgemm"))),
            "fig2" => {
                let f = ratio_figure(&campaign, GpuConfigKind::Default, GpuConfigKind::C614, reps);
                println!(
                    "{}",
                    render_ratio_figure(&f, "Figure 2: effects of the 614 configuration")
                );
            }
            "fig3" => {
                let f = ratio_figure(&campaign, GpuConfigKind::C614, GpuConfigKind::C324, reps);
                println!(
                    "{}",
                    render_ratio_figure(&f, "Figure 3: effects of the 324 configuration")
                );
            }
            "fig4" => {
                let f = ratio_figure(&campaign, GpuConfigKind::Default, GpuConfigKind::Ecc, reps);
                println!("{}", render_ratio_figure(&f, "Figure 4: effects of ECC"));
            }
            "table2" => println!("{}", render_table2(&table2(&campaign))),
            "table3" => println!("{}", render_table3(&table3(&campaign, reps))),
            "table4" => println!("{}", render_table4(&table4(&campaign, reps))),
            "fig5" => println!("{}", render_fig5(&input_power_figure(&campaign, reps))),
            "fig6" => println!("{}", render_fig6(&power_range_figure(&campaign, reps))),
            "trdata" => println!("{}", render_tr_detail(&tr_detail(&campaign, reps))),
            "energy-breakdown" => {
                println!(
                    "{}",
                    render_energy_breakdown(&energy_breakdown(&campaign, reps))
                )
            }
            "energy-sampling-error" => {
                println!(
                    "{}",
                    render_sampling_error(&sampling_error(&campaign, reps))
                )
            }
            "static-analysis" => {
                println!(
                    "{}",
                    render_static_analysis(&static_analysis(&campaign, reps))
                )
            }
            "cache-sensitivity" => {
                println!(
                    "{}",
                    render_cache_sensitivity(&cache_sensitivity(&campaign, reps))
                )
            }
            _ => unreachable!(),
        }
    }

    let stats = campaign.stats();
    let (pre_hits, pre_misses) = kepler_sim::exec_cache_stats();
    let retained_mb = kepler_sim::exec_cache_retained_bytes() as f64 / 1e6;
    let charged_mb = kepler_sim::exec_cache_charged_bytes() as f64 / 1e6;
    eprintln!(
        "[repro] done in {:?} | requested={raw} unique={unique} | {stats} | pre-exec hits={pre_hits} misses={pre_misses} retained={retained_mb:.1}MB charged={charged_mb:.1}MB",
        t0.elapsed()
    );
}
