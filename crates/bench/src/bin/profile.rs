//! Profile one workload under one of the paper's four GPU configurations,
//! with the simulator's telemetry layer recording the run end to end.
//!
//! ```text
//! profile --workload <key> [--input <index|name>]
//!         [--config default|614|324|ECC|cache|cache614]
//!         [--out trace.json] [--format chrome|jsonl|csv]
//!         [--events N] [--rep R]
//! profile --list
//! ```
//!
//! Writes the event trace to `--out` (format inferred from the extension
//! when `--format` is omitted; `.json` loads directly into `chrome://tracing`
//! or <https://ui.perfetto.dev>) and prints a per-kernel profile table —
//! time, energy, branch divergence, coalescing efficiency and bank-conflict
//! share from the simulator's `KernelCounters` — plus the telemetry-backed
//! per-phase energy breakdown and its reconciliation against the
//! ground-truth power trace.

use characterize::report::render_phase_breakdown;
use characterize::sanity::measure_traced_checked;
use characterize::{measure_traced, GpuConfigKind};
use sim_sanitizer::{Allowlist, CheckerSet};
use sim_telemetry::{build_timeline, chrome_trace, csv, jsonl};
use workloads::registry;

struct Args {
    workload: Option<String>,
    input: Option<String>,
    config: GpuConfigKind,
    out: Option<String>,
    format: Option<String>,
    events: usize,
    rep: u64,
    check: bool,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: profile --workload <key> [--input <index|name>] \
         [--config default|614|324|ECC|cache|cache614] [--out trace.json] \
         [--format chrome|jsonl|csv] [--events N] [--rep R] [--check]\n\
         \x20      profile --list"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        input: None,
        config: GpuConfigKind::Default,
        out: None,
        format: None,
        events: 1 << 20,
        rep: 0,
        check: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" | "-w" => args.workload = Some(val()),
            "--input" | "-i" => args.input = Some(val()),
            "--config" | "-c" => {
                let v = val();
                args.config = GpuConfigKind::from_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown config '{v}' (want default|614|324|ECC|cache|cache614)");
                    std::process::exit(2);
                });
            }
            "--out" | "-o" => args.out = Some(val()),
            "--format" | "-f" => args.format = Some(val()),
            "--events" => args.events = val().parse().unwrap_or_else(|_| usage()),
            "--rep" => args.rep = val().parse().unwrap_or_else(|_| usage()),
            "--check" => args.check = true,
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

fn main() {
    let args = parse_args();

    if args.list {
        println!("{:12} {:8} inputs", "key", "suite");
        for b in registry::all().into_iter().chain(registry::variants()) {
            let spec = b.spec();
            let inputs: Vec<&str> = b.inputs().iter().map(|i| i.name).collect();
            println!(
                "{:12} {:8} {}",
                spec.key,
                spec.suite.name(),
                inputs.join("; ")
            );
        }
        return;
    }

    let Some(key) = args.workload.as_deref() else {
        usage();
    };
    let Some(bench) = registry::by_key(key) else {
        eprintln!("unknown workload '{key}' (try --list)");
        std::process::exit(2);
    };
    let input = &bench::select_input(&bench.inputs(), args.input.as_deref());

    let spec = bench.spec();
    eprintln!(
        "[profile] {} ({}) input '{}' config {} ...",
        spec.key,
        spec.name,
        input.name,
        args.config.name()
    );
    let t0 = std::time::Instant::now();
    let dev0 = kepler_sim::devices_created();
    let (m, check_report) = if args.check {
        let (m, rep) = measure_traced_checked(
            bench.as_ref(),
            input,
            args.config,
            args.rep,
            args.events,
            CheckerSet::default(),
            &Allowlist::default(),
        );
        (m, Some(rep))
    } else {
        (
            measure_traced(bench.as_ref(), input, args.config, args.rep, args.events),
            None,
        )
    };
    eprintln!(
        "[profile] simulated in {:?} ({} device{}), {} events recorded ({} dropped)",
        t0.elapsed(),
        kepler_sim::devices_created() - dev0,
        if kepler_sim::devices_created() - dev0 == 1 {
            ""
        } else {
            "s"
        },
        m.events.len(),
        m.dropped_events
    );

    // Per-kernel profile table.
    println!(
        "Per-kernel profile: {} input '{}' under {}",
        spec.key,
        input.name,
        args.config.name()
    );
    println!(
        "{:22} {:>6} {:>10} {:>11} {:>7} {:>7} {:>7}",
        "kernel", "grid", "time [s]", "energy [J]", "diverg", "coalsc", "bankcf"
    );
    for s in &m.stats {
        println!(
            "{:22} {:>6} {:>10.4} {:>11.2} {:>6.1}% {:>6.1}% {:>6.1}%",
            s.kernel,
            s.grid,
            s.duration_s,
            s.energy_j,
            100.0 * s.counters.divergence(),
            100.0 * s.counters.coalescing_efficiency(),
            100.0 * s.counters.bank_conflict_share()
        );
    }

    // Cache-tier summary: only meaningful under the cache memory model.
    if args.config.device_config().mem_model.cache().is_some() {
        let mut total = kepler_sim::KernelCounters::default();
        for s in &m.stats {
            total.merge(&s.counters);
        }
        println!();
        println!(
            "Cache tiers: L1 {:.1}% | L2 {:.1}% | sectors l1={:.3e} l2={:.3e} mshr={:.3e} dram={:.3e}",
            100.0 * total.l1_hit_rate(),
            100.0 * total.l2_hit_rate(),
            total.l1_hits,
            total.l2_hits,
            total.mshr_merges,
            total.dram_transactions,
        );
    }

    // Instruction-class energy attribution of the board trace integral.
    println!();
    println!(
        "Instruction-class energy breakdown (board {:.2} J, unmodeled {:+.2}%)",
        m.breakdown.board_energy_j,
        100.0 * m.breakdown.unmodeled_frac()
    );
    println!("{:10} {:>12} {:>7}", "class", "energy [J]", "share");
    for (class, j) in m.breakdown.rows() {
        let share = if m.breakdown.board_energy_j > 0.0 {
            100.0 * j / m.breakdown.board_energy_j
        } else {
            0.0
        };
        println!("{:10} {:>12.3} {:>6.2}%", class.name(), j, share);
    }

    // Phase breakdown + reconciliation.
    let tl = build_timeline(&m.events);
    println!();
    print!("{}", render_phase_breakdown(&tl));
    let truth = m.trace.total_energy();
    let rel = if truth > 0.0 {
        (tl.total_energy_j() - truth).abs() / truth
    } else {
        0.0
    };
    println!(
        "Reconciliation: timeline {:.2} J vs ground-truth trace {:.2} J (rel err {:.2e})",
        tl.total_energy_j(),
        truth,
        rel
    );
    match &m.reading {
        Ok(r) => println!(
            "K20Power reading: active {:.2} s, {:.2} J, {:.1} W avg (threshold {:.1} W)",
            r.active_runtime_s, r.energy_j, r.avg_power_w, r.threshold_w
        ),
        Err(e) => println!("K20Power reading: run rejected ({e})"),
    }

    // Combined summary when the sanitizer rode along (--check).
    if let Some(rep) = &check_report {
        println!();
        print!("{}", rep.render_text());
        println!(
            "Sanitize summary: {} error{}, {} warning{}, {} allowed",
            rep.errors(),
            if rep.errors() == 1 { "" } else { "s" },
            rep.warnings(),
            if rep.warnings() == 1 { "" } else { "s" },
            rep.suppressed.len()
        );
    }

    // Export.
    if let Some(out) = &args.out {
        let format = args.format.clone().unwrap_or_else(|| {
            if out.ends_with(".jsonl") {
                "jsonl".into()
            } else if out.ends_with(".csv") {
                "csv".into()
            } else {
                "chrome".into()
            }
        });
        let body = match format.as_str() {
            "chrome" => chrome_trace(&m.events),
            "jsonl" => jsonl(&m.events),
            "csv" => csv(&m.events),
            _ => {
                eprintln!("unknown format '{format}' (want chrome|jsonl|csv)");
                std::process::exit(2);
            }
        };
        if let Err(e) = std::fs::write(out, &body) {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("[profile] wrote {} ({} bytes, {format})", out, body.len());
    }
}
