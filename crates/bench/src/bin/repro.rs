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
//! `--jobs N` caps the shard workers of each of the simulator's
//! pre-executed launches (default: one per core); a launch shards only
//! onto cores that no other launch is running blocks on. Purely a
//! wall-clock knob — results are bit-identical for every N; see
//! `docs/CAMPAIGN.md`.
//!
//! All requested artifacts draw from one shared measurement campaign: the
//! union of their run matrices is deduplicated and executed exactly once,
//! and every unit is persisted to an on-disk cache (default
//! `target/campaign-cache`, override with `--cache-dir`, disable with
//! `--no-cache`) so a re-run that changes nothing simulates nothing. The
//! closing summary on stderr reports `simulated=`/`memo_hits=`/
//! `disk_hits=` counters.
//!
//! Every functional run records its program's launch trace, and later
//! configurations and reps of that program *replay* it: replayed units
//! re-simulate timing/power from the trace without functional execution,
//! bit-identically. The traces live in memory unless `--trace-dir DIR`
//! keeps them in DIR, where later runs whose campaign records are absent
//! (e.g. a fresh `--cache-dir`) replay them too. The closing summary
//! reports `trace_replays=` and the trace DB's size. See `docs/TRACE.md`.

use characterize::artifact::{plan_artifacts, Artifact};
use characterize::campaign::{Campaign, CampaignConfig};
use std::path::PathBuf;

fn usage() -> ! {
    let names: Vec<&str> = Artifact::VARIANTS.iter().map(|a| a.name()).collect();
    eprintln!(
        "usage: repro [--quick] [--no-cache] [--cache-dir DIR] [--trace-dir DIR] [--jobs N] [ARTIFACT...]\n\
         artifacts: {} all",
        names.join(" ")
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
    let mut artifacts: Vec<Artifact> = Vec::new();
    for s in &selectors {
        let expanded: &[Artifact] = if s == "all" {
            Artifact::ALL
        } else if let Some(a) = Artifact::from_name(s) {
            &[a]
        } else {
            eprintln!("[repro] unknown artifact: {s}");
            usage();
        };
        for &a in expanded {
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
    let raw: usize = artifacts.iter().map(|a| a.runs(reps).len()).sum();
    let unique = campaign.execute(&plan_artifacts(&artifacts, reps));

    for a in &artifacts {
        println!("{}", a.render(&campaign, reps));
    }

    let stats = campaign.stats();
    let traces = campaign.trace_usage();
    eprintln!(
        "[repro] done in {:?} | requested={raw} unique={unique} | {stats} | trace-db traces={} bytes={:.2}MB",
        t0.elapsed(),
        traces.traces,
        traces.bytes as f64 / 1e6
    );
}
