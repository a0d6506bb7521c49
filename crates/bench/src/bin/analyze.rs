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
use sim_analyze::{analyze_workload, AnalysisFinding, Baseline, Verdict, WorkloadAnalysis};
use sim_telemetry::json::Json;
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

/// One workload's analysis as a JSON object.
fn to_json(wa: &WorkloadAnalysis) -> Json {
    fn finding_json(f: &AnalysisFinding) -> Json {
        Json::obj([
            ("kernel", Json::str(&f.kernel)),
            ("code", Json::str(&f.code)),
            ("severity", Json::str(f.severity.name())),
            ("message", Json::str(&f.message)),
        ])
    }
    let units = wa.units.iter().map(|u| {
        Json::obj([
            ("kernel", Json::str(&u.kernel)),
            ("grid", Json::num(f64::from(u.grid))),
            ("block_threads", Json::num(f64::from(u.block_threads))),
            ("launches", Json::num(f64::from(u.launches))),
            ("parallel_safe", Json::Bool(u.parallel_safe)),
            ("declared", Json::Bool(u.declared)),
            (
                "verdict",
                match &u.verdict {
                    None => Json::Null,
                    Some(Verdict::Provable) => Json::str("provable"),
                    Some(Verdict::Unprovable(r)) => Json::obj([("unprovable", Json::str(r))]),
                },
            ),
        ])
    });
    // Intensity is a ratio of declared estimates: six decimals carry it.
    let intensity = (wa.classification.intensity * 1e6).round() / 1e6;
    Json::obj([
        ("workload", Json::str(&wa.workload)),
        ("input", Json::str(&wa.input)),
        ("launches", Json::num(f64::from(wa.launches))),
        ("class", Json::str(wa.classification.class.name())),
        ("intensity", Json::num(intensity)),
        ("units", Json::Arr(units.collect())),
        (
            "findings",
            Json::Arr(wa.findings.iter().map(finding_json).collect()),
        ),
        (
            "suppressed",
            Json::Arr(wa.suppressed.iter().map(finding_json).collect()),
        ),
    ])
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
            "{}",
            Json::Arr(analyses.iter().map(to_json).collect()).dump()
        );
    } else {
        for wa in &analyses {
            print!("{}", wa.render_text());
        }
    }

    let errors: usize = analyses.iter().map(WorkloadAnalysis::errors).sum();
    let warnings: usize = analyses.iter().map(WorkloadAnalysis::warnings).sum();
    let suppressed: usize = analyses.iter().map(|w| w.suppressed.len()).sum();
    let summary = format!(
        "== summary: {} workload{}, {} error{}, {} warning{}, {} baselined",
        analyses.len(),
        if analyses.len() == 1 { "" } else { "s" },
        errors,
        if errors == 1 { "" } else { "s" },
        warnings,
        if warnings == 1 { "" } else { "s" },
        suppressed
    );
    // With --json, stdout carries exactly one JSON document.
    if args.json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use sim_telemetry::json;
    use workloads::bench::InputSpec;

    #[test]
    fn json_parses_and_reads_back_escaped_names() {
        let b = registry::by_key("sc").unwrap();
        let input = InputSpec::new("t", 4096, 0, 0, 1.0);
        let mut wa = analyze_workload(b.as_ref(), &input);
        let workload = "x\"y\\z\nw\tv\ru";
        wa.workload = workload.into();
        let js = json::parse(&to_json(&wa).dump()).unwrap();
        assert_eq!(js.get("workload").and_then(Json::as_str), Some(workload));
        assert_eq!(js.get("class").and_then(Json::as_str), Some("memory-bound"));
        assert_eq!(
            js.get("units").and_then(Json::as_arr).map(<[Json]>::len),
            Some(wa.units.len())
        );
    }
}
