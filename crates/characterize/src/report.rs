//! Plain-text rendering of tables and figures, matching the layout of the
//! paper's evaluation section closely enough to eyeball side by side.

use crate::figures::{InputPowerRow, PowerProfile, PowerRangeCell, RatioFigure};
use crate::tables::{Table1Row, Table2Row, Table3Row, Table4Row};
use std::fmt::Write;

fn opt(v: Option<f64>) -> String {
    v.map_or_else(|| "   n/a".to_string(), |x| format!("{x:6.2}"))
}

/// Render Table 1.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Table 1: program names, number of global kernels, inputs"
    )
    .unwrap();
    writeln!(s, "{:8} {:12} {:>3}  Inputs", "Program", "Suite", "#K").unwrap();
    for r in rows {
        writeln!(
            s,
            "{:8} {:12} {:>3}  {}",
            r.name,
            r.suite.name(),
            r.kernels,
            r.inputs.join("; ")
        )
        .unwrap();
    }
    s
}

/// Render Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    writeln!(s, "Table 2: maximum and average measurement variability").unwrap();
    writeln!(
        s,
        "{:12} {:>9} {:>11} {:>9} {:>11}",
        "", "max time", "max energy", "avg time", "avg energy"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:12} {:>8.1}% {:>10.1}% {:>8.1}% {:>10.1}%",
            r.suite.map_or("Overall", |x| x.name()),
            r.max_time_pct,
            r.max_energy_pct,
            r.avg_time_pct,
            r.avg_energy_pct
        )
        .unwrap();
    }
    s
}

/// Render Table 3.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Table 3: alternate implementations of L-BFS and SSSP relative to default"
    )
    .unwrap();
    writeln!(
        s,
        "{:6} {:7} {:>8} {:>7} {:>7} {:>7}",
        "Alg", "variant", "config", "time", "energy", "power"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:6} {:7} {:>8} {} {} {}",
            r.algorithm,
            r.variant,
            r.config.name(),
            opt(r.time_ratio),
            opt(r.energy_ratio),
            opt(r.power_ratio)
        )
        .unwrap();
    }
    s
}

/// Render Table 4.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Table 4: cross-benchmark BFS comparison (default config)"
    )
    .unwrap();
    writeln!(
        s,
        "{:6} {:>12} {:>12} {:>12}   per 100k vertices",
        "", "time", "energy", "power"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:6} {:>12.4} {:>12.2} {:>12.4}",
            r.key, r.per_vertex.0, r.per_vertex.1, r.per_vertex.2
        )
        .unwrap();
    }
    writeln!(
        s,
        "{:6} {:>12} {:>12} {:>12}   per 100k edges",
        "", "time", "energy", "power"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:6} {:>12.4} {:>12.2} {:>12.4}",
            r.key, r.per_edge.0, r.per_edge.1, r.per_edge.2
        )
        .unwrap();
    }
    s
}

/// Render Figure 1 as an ASCII power-over-time plot.
pub fn render_fig1(p: &PowerProfile) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Figure 1: sample power profile ({}, threshold {:.1} W, idle {:.1} W, active {:.2} s)",
        p.key, p.threshold_w, p.idle_w, p.active_runtime_s
    )
    .unwrap();
    let peak = p.samples.iter().map(|x| x.watts).fold(1.0, f64::max);
    let end = p.samples.last().map_or(1.0, |x| x.t);
    const ROWS: usize = 16;
    const COLS: usize = 78;
    let mut grid = vec![vec![b' '; COLS]; ROWS];
    // Threshold line.
    let thr_row = ROWS - 1 - ((p.threshold_w / peak) * (ROWS - 1) as f64) as usize;
    for c in grid[thr_row.min(ROWS - 1)].iter_mut() {
        *c = b'-';
    }
    for sm in &p.samples {
        let col = ((sm.t / end) * (COLS - 1) as f64) as usize;
        let row = ROWS - 1 - ((sm.watts / peak).clamp(0.0, 1.0) * (ROWS - 1) as f64) as usize;
        grid[row.min(ROWS - 1)][col.min(COLS - 1)] = b'*';
    }
    for (i, row) in grid.iter().enumerate() {
        let label = peak * (ROWS - 1 - i) as f64 / (ROWS - 1) as f64;
        writeln!(s, "{label:6.0}W |{}", String::from_utf8_lossy(row)).unwrap();
    }
    writeln!(s, "        +{}", "-".repeat(COLS)).unwrap();
    writeln!(s, "         0s{:>width$.1}s", end, width = COLS - 3).unwrap();
    s
}

/// Render a ratio figure (Figures 2, 3, 4).
pub fn render_ratio_figure(f: &RatioFigure, title: &str) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "{title} ({} relative to {})",
        f.alt.name(),
        f.base.name()
    )
    .unwrap();
    writeln!(
        s,
        "{:12} {:>6} {:>28} {:>28} {:>28}",
        "Suite",
        "n",
        "runtime min/q1/med/q3/max",
        "energy min/q1/med/q3/max",
        "power min/q1/med/q3/max"
    )
    .unwrap();
    for sb in &f.suites {
        let b = |x: &gpower::BoxStats| {
            format!(
                "{:5.2} {:5.2} {:5.2} {:5.2} {:5.2}",
                x.min, x.q1, x.median, x.q3, x.max
            )
        };
        writeln!(
            s,
            "{:12} {:>6} {:>28} {:>28} {:>28}",
            sb.suite.name(),
            sb.time.n,
            b(&sb.time),
            b(&sb.energy),
            b(&sb.power)
        )
        .unwrap();
    }
    writeln!(s, "per program:").unwrap();
    for p in &f.programs {
        writeln!(
            s,
            "  {:8} {:12} {:26} time {:5.2}  energy {:5.2}  power {:5.2}",
            p.key,
            p.suite.name(),
            p.input,
            p.time,
            p.energy,
            p.power
        )
        .unwrap();
    }
    if !f.excluded.is_empty() {
        writeln!(
            s,
            "excluded (insufficient power samples): {}",
            f.excluded.join(", ")
        )
        .unwrap();
    }
    s
}

/// Render Figure 5.
pub fn render_fig5(rows: &[InputPowerRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Figure 5: power when varying the program input (relative to the first input)"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:12} {:26} ratio {:5.2}  ({:5.1} W)",
            r.key, r.input, r.power_ratio, r.power_w
        )
        .unwrap();
    }
    s
}

/// Render Figure 6.
pub fn render_fig6(cells: &[PowerRangeCell]) -> String {
    let mut s = String::new();
    writeln!(s, "Figure 6: range of power consumption (absolute watts)").unwrap();
    writeln!(
        s,
        "{:12} {:>8} {:>6} {:>28}",
        "Suite", "config", "n", "power min/q1/med/q3/max"
    )
    .unwrap();
    for c in cells {
        writeln!(
            s,
            "{:12} {:>8} {:>6} {:5.1} {:5.1} {:5.1} {:5.1} {:5.1}",
            c.suite.name(),
            c.config.name(),
            c.n_programs,
            c.power.min,
            c.power.q1,
            c.power.median,
            c.power.q3,
            c.power.max
        )
        .unwrap();
    }
    s
}

/// Render the technical report's detailed per-program results.
pub fn render_tr_detail(rows: &[crate::tables::TrDetailRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Detailed results (companion technical report): absolute medians"
    )
    .unwrap();
    writeln!(
        s,
        "{:12} {:26} {:>8} {:>9} {:>10} {:>8}",
        "Program", "Input", "config", "time [s]", "energy [J]", "pwr [W]"
    )
    .unwrap();
    let f = |v: Option<f64>, w: usize| match v {
        Some(x) => format!("{x:>w$.1}"),
        None => format!("{:>w$}", "n/a"),
    };
    for r in rows {
        writeln!(
            s,
            "{:12} {:26} {:>8} {} {} {}",
            r.key,
            r.input,
            r.config.name(),
            f(r.time_s, 9),
            f(r.energy_j, 10),
            f(r.power_w, 8)
        )
        .unwrap();
    }
    s
}

/// Render the telemetry-backed per-phase energy breakdown of one run.
///
/// The phases come from the simulator's board-interval events: `idle`
/// (pre-run lead-in and post-tail floor), `gap` (host-side time between
/// kernels), `kernel_static` (idle + static overhead while a kernel runs)
/// and `tail` (the driver's power decay after the last kernel). The dynamic
/// SM energy is everything the kernels' blocks actually drew; together the
/// five rows sum to the ground-truth trace energy.
pub fn render_phase_breakdown(tl: &sim_telemetry::Timeline) -> String {
    use sim_telemetry::BoardPhase;
    let total = tl.total_energy_j();
    let mut s = String::new();
    writeln!(s, "Per-phase energy breakdown (telemetry)").unwrap();
    writeln!(s, "{:14} {:>12} {:>7}", "phase", "energy [J]", "share").unwrap();
    let pct = |e: f64| {
        if total > 0.0 {
            100.0 * e / total
        } else {
            0.0
        }
    };
    let mut row = |name: &str, e: f64| {
        writeln!(s, "{:14} {:>12.2} {:>6.1}%", name, e, pct(e)).unwrap();
    };
    for phase in [
        BoardPhase::Idle,
        BoardPhase::Gap,
        BoardPhase::KernelStatic,
        BoardPhase::Tail,
    ] {
        row(phase.name(), tl.phase_energy_j(phase));
    }
    row("sm-dynamic", tl.sm_energy_j);
    row("total", total);
    writeln!(
        s,
        "SMs active: {}   DRAM moved: {:.2} GB (peak {:.1} GB/s, contended {:.2} s)",
        tl.sms.len(),
        tl.dram_bytes / 1e9,
        tl.dram_peak_bytes_per_s / 1e9,
        tl.contention_s
    )
    .unwrap();
    for lane in &tl.sms {
        writeln!(
            s,
            "  SM {:>2}: {:>9.2} J  busy {:>7.3} s  issue {:>5.1}%  peak blocks {}",
            lane.sm,
            lane.energy_j,
            lane.busy_s,
            100.0 * lane.mean_issue_frac(),
            lane.peak_resident
        )
        .unwrap();
    }
    s
}

/// Render the per-workload instruction-class energy-breakdown table.
///
/// Each workload block lists every [`gpower::EnergyClass`] with its
/// attributed joules and share of the board trace-integral energy; the
/// rows sum to the board energy exactly (the `unmodeled` residual is
/// defined by subtraction and carries its own signed share).
pub fn render_energy_breakdown(rows: &[crate::energy::EnergyBreakdownRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Instruction-class energy attribution (default config, board trace integral)"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{} [{}]  board {:.2} J  unmodeled {:+.2}%",
            r.key, r.input, r.board_energy_j, r.unmodeled_pct
        )
        .unwrap();
        for (class, j) in &r.classes {
            let share = if r.board_energy_j > 0.0 {
                100.0 * j / r.board_energy_j
            } else {
                0.0
            };
            writeln!(s, "  {:10} {:>12.3} J {:>7.2}%", class, j, share).unwrap();
        }
    }
    s
}

/// Render the sampled-energy error study: one row per sampling policy,
/// followed by the per-workload signed errors as figure data.
pub fn render_sampling_error(rows: &[crate::energy::SamplingErrorRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Sampled-energy error vs. sensor-sampling policy (default config)"
    )
    .unwrap();
    writeln!(
        s,
        "{:22} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "policy", "rate", "phase", "jitter", "window", "mean |err|", "max |err|"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:22} {:>6.0}Hz {:>7.2}s {:>7.2}s {:>7.2}s {:>9.3}% {:>9.3}%",
            r.policy, r.rate_hz, r.phase_s, r.jitter_s, r.window_s, r.mean_abs_pct, r.max_abs_pct
        )
        .unwrap();
    }
    writeln!(s, "per-workload signed error [%]:").unwrap();
    for r in rows {
        write!(s, "  {:22}", r.policy).unwrap();
        for (key, pct) in &r.per_workload_pct {
            write!(s, " {key}={pct:+.3}").unwrap();
        }
        writeln!(s).unwrap();
    }
    s
}

/// Render any figure/table data as CSV for downstream plotting.
pub fn ratio_figure_csv(fig: &RatioFigure) -> String {
    let mut s = String::from("key,suite,input,time_ratio,energy_ratio,power_ratio\n");
    for p in &fig.programs {
        writeln!(
            s,
            "{},{},\"{}\",{},{},{}",
            p.key,
            p.suite.name(),
            p.input,
            p.time,
            p.energy,
            p.power
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::table1;

    #[test]
    fn table1_renders_all_programs() {
        let s = render_table1(&table1());
        assert!(s.contains("L-BFS"));
        assert!(s.contains("NSP"));
        assert!(s.lines().count() >= 36);
    }

    #[test]
    fn csv_export_shape() {
        use crate::configs::GpuConfigKind;
        use crate::figures::{ProgramRatio, RatioFigure};
        use workloads::bench::Suite;
        let fig = RatioFigure {
            base: GpuConfigKind::Default,
            alt: GpuConfigKind::C614,
            programs: vec![ProgramRatio {
                key: "nb".into(),
                suite: Suite::CudaSdk,
                input: "100k bodies".into(),
                time: 1.15,
                energy: 0.97,
                power: 0.85,
            }],
            suites: vec![],
            excluded: vec![],
        };
        let csv = ratio_figure_csv(&fig);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "key,suite,input,time_ratio,energy_ratio,power_ratio"
        );
        assert!(lines
            .next()
            .unwrap()
            .starts_with("nb,CUDA SDK,\"100k bodies\",1.15"));
    }

    #[test]
    fn phase_breakdown_renders_all_phases_and_lanes() {
        let _serial = crate::serial();
        use crate::configs::GpuConfigKind;
        use crate::experiment::measure_traced;
        use workloads::registry;
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let m = measure_traced(b.as_ref(), input, GpuConfigKind::Default, 0, 1 << 20);
        let tl = sim_telemetry::build_timeline(&m.events);
        let s = render_phase_breakdown(&tl);
        for name in [
            "idle",
            "gap",
            "kernel_static",
            "tail",
            "sm-dynamic",
            "total",
        ] {
            assert!(s.contains(name), "missing {name} in:\n{s}");
        }
        assert!(s.contains("SM  0:"), "{s}");
        // The rendered total is the reconciled trace energy.
        let rel = (tl.total_energy_j() - m.trace.total_energy()).abs() / m.trace.total_energy();
        assert!(rel < 1e-6);
    }

    #[test]
    fn opt_formats_none() {
        assert!(opt(None).contains("n/a"));
        assert_eq!(opt(Some(1.5)).trim(), "1.50");
    }
}
