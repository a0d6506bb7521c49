//! Run the sim-analyze static analyzer over one workload — or the whole
//! registry — and gate the findings on a committed baseline.
//!
//! ```text
//! analyze --workload <key> [--input <index|name>] [--baseline FILE] [--json]
//! analyze --all [same options]
//! analyze --list
//! ```
//!
//! Per workload the analyzer captures every launch (geometry, resources,
//! declared footprint), proves or refutes clauses 1–2 of the
//! `parallel_safe` contract, runs the launch-configuration lints, and
//! classifies the program memory- vs compute-bound from declared
//! arithmetic intensity. Exit status: 0 when every workload is clean after
//! baselining, 1 when any unbaselined finding remains, 2 on usage errors.
//! This is the CI gate: `analyze --all --baseline analyze-baseline.txt`.

use rayon::prelude::*;
use sim_analyze::{analyze_workload, Baseline, WorkloadAnalysis};
use workloads::bench::Benchmark;
use workloads::registry;

struct Args {
    workload: Option<String>,
    input: Option<String>,
    baseline: Option<String>,
    json: bool,
    all: bool,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: analyze --workload <key> [--input <index|name>] [--baseline FILE] [--json]\n\
         \x20      analyze --all [same options]\n\
         \x20      analyze --list"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        input: None,
        baseline: None,
        json: false,
        all: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" | "-w" => args.workload = it.next().or_else(|| usage()),
            "--input" | "-i" => args.input = it.next().or_else(|| usage()),
            "--baseline" | "-b" => args.baseline = it.next().or_else(|| usage()),
            "--json" => args.json = true,
            "--all" => args.all = true,
            "--list" => args.list = true,
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("unknown argument '{a}'");
                usage();
            }
        }
    }
    args
}

fn load_baseline(path: Option<&str>) -> Baseline {
    let Some(path) = path else {
        return Baseline::default();
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    Baseline::parse_file(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    })
}

fn analyze_one(
    bench: &dyn Benchmark,
    input_sel: Option<&str>,
    base: &Baseline,
) -> WorkloadAnalysis {
    let input = &bench::select_input(&bench.inputs(), input_sel);
    let mut wa = analyze_workload(bench, input);
    base.apply(&mut wa);
    wa
}

fn main() {
    let args = parse_args();

    if args.list {
        println!("{:12} {:8} regular", "key", "suite");
        for b in registry::all().into_iter().chain(registry::variants()) {
            let spec = b.spec();
            println!(
                "{:12} {:8} {}",
                spec.key,
                spec.suite.name(),
                if spec.regular { "yes" } else { "no" }
            );
        }
        return;
    }

    let benches: Vec<Box<dyn Benchmark>> = if args.all {
        registry::all()
            .into_iter()
            .chain(registry::variants())
            .collect()
    } else {
        let Some(key) = args.workload.as_deref() else {
            usage();
        };
        let Some(bench) = registry::by_key(key) else {
            eprintln!("unknown workload '{key}' (try --list)");
            std::process::exit(2);
        };
        vec![bench]
    };

    let t0 = std::time::Instant::now();
    let input_sel = args.input.as_deref();
    let base = load_baseline(args.baseline.as_deref());
    let analyses: Vec<WorkloadAnalysis> = benches
        .into_par_iter()
        .map(|b| analyze_one(b.as_ref(), input_sel, &base))
        .collect();
    eprintln!(
        "[analyze] {} workload{} in {:?}",
        analyses.len(),
        if analyses.len() == 1 { "" } else { "s" },
        t0.elapsed()
    );

    if args.json {
        println!(
            "[{}]",
            analyses
                .iter()
                .map(WorkloadAnalysis::to_json)
                .collect::<Vec<_>>()
                .join(",")
        );
    } else {
        for wa in &analyses {
            print!("{}", wa.render_text());
        }
    }

    let errors: usize = analyses.iter().map(WorkloadAnalysis::errors).sum();
    let warnings: usize = analyses.iter().map(WorkloadAnalysis::warnings).sum();
    let suppressed: usize = analyses.iter().map(|w| w.suppressed.len()).sum();
    println!(
        "== summary: {} workload{}, {} error{}, {} warning{}, {} baselined",
        analyses.len(),
        if analyses.len() == 1 { "" } else { "s" },
        errors,
        if errors == 1 { "" } else { "s" },
        warnings,
        if warnings == 1 { "" } else { "s" },
        suppressed
    );
    let dirty: Vec<&str> = analyses
        .iter()
        .filter(|w| !w.clean())
        .map(|w| w.workload.as_str())
        .collect();
    if !dirty.is_empty() {
        eprintln!("[analyze] FAILED: findings in {}", dirty.join(", "));
        std::process::exit(1);
    }
}
