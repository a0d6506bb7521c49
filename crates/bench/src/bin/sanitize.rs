//! Run the sim-sanitizer checkers over one workload — or the whole
//! 34-program registry — the way `compute-sanitizer` wraps a CUDA binary.
//!
//! ```text
//! sanitize --workload <key> [--input <index|name>]
//!          [--checkers default|all|lints|<name,...>]
//!          [--allowlist FILE] [--no-workload-allowlist]
//!          [--json [FILE]]
//! sanitize --all [same options]
//! sanitize --list
//! ```
//!
//! Exit status: 0 when every run is clean after allowlisting, 1 when any
//! unallowlisted finding remains, 2 on usage errors. This is the CI gate:
//! `sanitize --all --allowlist sanitize-baseline.txt`.

use characterize::sanity::{sanitize_run_raw, workload_allowlist};
use rayon::prelude::*;
use sim_sanitizer::{Allowlist, CheckerSet, Report};
use sim_telemetry::json::Json;
use workloads::bench::Benchmark;
use workloads::registry;

struct Args {
    workload: Option<String>,
    input: Option<String>,
    checkers: CheckerSet,
    allowlist: Option<String>,
    use_workload_allowlist: bool,
    json: bool,
    json_out: Option<String>,
    all: bool,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sanitize --workload <key> [--input <index|name>] \
         [--checkers default|all|lints|<name,...>] \
         [--allowlist FILE] [--no-workload-allowlist] [--json [FILE]]\n\
         \x20      sanitize --all [same options]\n\
         \x20      sanitize --list"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        input: None,
        checkers: CheckerSet::default(),
        allowlist: None,
        use_workload_allowlist: true,
        json: false,
        json_out: None,
        all: false,
        list: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" | "-w" => args.workload = it.next().or_else(|| usage()),
            "--input" | "-i" => args.input = it.next().or_else(|| usage()),
            "--checkers" | "-k" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.checkers = CheckerSet::parse(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--allowlist" | "-a" => args.allowlist = it.next().or_else(|| usage()),
            "--no-workload-allowlist" => args.use_workload_allowlist = false,
            "--json" => {
                args.json = true;
                // Optional file operand: next token not starting with '-'.
                if let Some(next) = it.peek() {
                    if !next.starts_with('-') {
                        args.json_out = it.next();
                    }
                }
            }
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

fn load_extra_allowlist(path: Option<&str>) -> Allowlist {
    let Some(path) = path else {
        return Allowlist::default();
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read allowlist {path}: {e}");
        std::process::exit(2);
    });
    Allowlist::parse_file(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    })
}

fn sanitize_one(
    bench: &dyn Benchmark,
    input_sel: Option<&str>,
    args: &Args,
    extra: &Allowlist,
) -> Report {
    let input = &bench::select_input(&bench.inputs(), input_sel);
    let mut run = sanitize_run_raw(bench, input, args.checkers);
    let list = if args.use_workload_allowlist {
        workload_allowlist(bench, extra)
    } else {
        extra.clone()
    };
    list.apply(&mut run.report);
    run.report
}

fn main() {
    let args = parse_args();

    if args.list {
        println!("{:12} {:8} allowlist", "key", "suite");
        for b in registry::all().into_iter().chain(registry::variants()) {
            let spec = b.spec();
            let entries = b.sanitizer_allowlist();
            println!(
                "{:12} {:8} {}",
                spec.key,
                spec.suite.name(),
                if entries.is_empty() {
                    "-".to_string()
                } else {
                    entries.join("  ")
                }
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
    let extra = load_extra_allowlist(args.allowlist.as_deref());
    let reports: Vec<Report> = benches
        .into_par_iter()
        .map(|b| sanitize_one(b.as_ref(), input_sel, &args, &extra))
        .collect();
    eprintln!(
        "[sanitize] {} run{} in {:?}",
        reports.len(),
        if reports.len() == 1 { "" } else { "s" },
        t0.elapsed()
    );

    if args.json {
        let body = Json::Arr(reports.iter().map(Report::to_json).collect()).dump();
        match &args.json_out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &body) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("[sanitize] wrote {path} ({} bytes)", body.len());
            }
            None => println!("{body}"),
        }
    }
    if !args.json || args.json_out.is_some() {
        for rep in &reports {
            print!("{}", rep.render_text());
        }
    }

    let dirty: Vec<&Report> = reports.iter().filter(|r| !r.clean()).collect();
    let errors: usize = reports.iter().map(Report::errors).sum();
    let warnings: usize = reports.iter().map(Report::warnings).sum();
    let suppressed: usize = reports.iter().map(|r| r.suppressed.len()).sum();
    let summary = format!(
        "== summary: {} run{}, {} error{}, {} warning{}, {} allowed",
        reports.len(),
        if reports.len() == 1 { "" } else { "s" },
        errors,
        if errors == 1 { "" } else { "s" },
        warnings,
        if warnings == 1 { "" } else { "s" },
        suppressed
    );
    // JSON on stdout must be the only thing there.
    if args.json && args.json_out.is_none() {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    if !dirty.is_empty() {
        let keys: Vec<&str> = dirty.iter().map(|r| r.workload.as_str()).collect();
        eprintln!("[sanitize] FAILED: findings in {}", keys.join(", "));
        std::process::exit(1);
    }
}
