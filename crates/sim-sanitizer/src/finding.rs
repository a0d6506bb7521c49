//! The finding vocabulary: which checker fired, how bad it is, and the
//! aggregated report a sanitized run produces.

use sim_telemetry::json::Json;
use std::fmt;

/// The individual checkers. Correctness checkers gate CI; performance
/// lints are advisory and opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Checker {
    /// Intra-block shared-memory races (same barrier epoch, different
    /// threads, at least one plain write).
    RaceShared,
    /// Global-memory races: intra-block (same epoch) and cross-block
    /// conflicting access within one launch.
    RaceGlobal,
    /// Threads of one block executing different numbers of explicit
    /// `__syncthreads()`.
    BarrierDivergence,
    /// Accesses outside a buffer's registered extent.
    OutOfBounds,
    /// Reads of `alloc`'d (cudaMalloc-like) memory never written by the
    /// device or host.
    UninitRead,
    /// Performance lint: global access pattern far from coalesced.
    Uncoalesced,
    /// Performance lint: shared-memory bank-conflict hotspot.
    BankConflict,
    /// Performance lint: launch cannot occupy the machine.
    LowOccupancy,
}

impl Checker {
    pub const ALL: [Checker; 8] = [
        Checker::RaceShared,
        Checker::RaceGlobal,
        Checker::BarrierDivergence,
        Checker::OutOfBounds,
        Checker::UninitRead,
        Checker::Uncoalesced,
        Checker::BankConflict,
        Checker::LowOccupancy,
    ];

    /// The correctness checkers — the default set, and what the CI gate
    /// runs.
    pub const CORRECTNESS: [Checker; 5] = [
        Checker::RaceShared,
        Checker::RaceGlobal,
        Checker::BarrierDivergence,
        Checker::OutOfBounds,
        Checker::UninitRead,
    ];

    /// Stable name used in reports, allowlists and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Checker::RaceShared => "race-shared",
            Checker::RaceGlobal => "race-global",
            Checker::BarrierDivergence => "barrier-divergence",
            Checker::OutOfBounds => "oob",
            Checker::UninitRead => "uninit-read",
            Checker::Uncoalesced => "uncoalesced",
            Checker::BankConflict => "bank-conflict",
            Checker::LowOccupancy => "low-occupancy",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }

    /// True for the advisory performance lints.
    pub fn is_lint(self) -> bool {
        matches!(
            self,
            Checker::Uncoalesced | Checker::BankConflict | Checker::LowOccupancy
        )
    }
}

impl fmt::Display for Checker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory (performance lints, write/write races).
    Warning,
    /// A correctness hazard.
    Error,
}

impl Severity {
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One aggregated finding: all occurrences of one hazard class on one
/// (kernel, buffer) pair, across every launch of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub checker: Checker,
    pub severity: Severity,
    /// Kernel display name the hazard occurred in.
    pub kernel: String,
    /// Short hazard class, e.g. `"write/write"`, `"read/write"`,
    /// `"atomic/plain"`, or the lint name.
    pub hazard: String,
    /// Buffer the hazard touched (label if the workload named it, else
    /// `"buf<id>"`); empty for kernel-level findings like barrier
    /// divergence and lints.
    pub buffer: String,
    /// Occurrence count aggregated over the run.
    pub count: u64,
    /// First launch index the hazard was seen in.
    pub first_launch: u32,
    /// Human detail from the first occurrence (example site).
    pub message: String,
}

impl Finding {
    /// One-line rendering used by the text report.
    pub fn render(&self) -> String {
        let site = if self.buffer.is_empty() {
            self.kernel.clone()
        } else {
            format!("{} @ {}", self.kernel, self.buffer)
        };
        format!(
            "[{}] {} {}: {} ({} occurrence{}, first in launch {}): {}",
            self.severity,
            self.checker,
            site,
            self.hazard,
            self.count,
            if self.count == 1 { "" } else { "s" },
            self.first_launch,
            self.message
        )
    }
}

/// The result of sanitizing one workload run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload key (or a free-form run label).
    pub workload: String,
    /// Input name the run used.
    pub input: String,
    /// Active findings, most severe first.
    pub findings: Vec<Finding>,
    /// Findings matched by an allowlist entry (kept for transparency).
    pub suppressed: Vec<Finding>,
    /// Kernels whose only cross-block interaction on some words was
    /// all-atomic — classified benign, per kernel: distinct conflicting
    /// words. The atomics-aware analogue of compute-sanitizer not flagging
    /// atomic traffic.
    pub benign_atomic: Vec<(String, u64)>,
    /// Launches observed.
    pub launches: u32,
    /// Per-thread accesses observed.
    pub accesses: u64,
}

impl Report {
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// True when no unallowlisted finding remains.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the report as human-readable text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== sanitize {} ({}) — {} launches, {} accesses",
            self.workload, self.input, self.launches, self.accesses
        );
        if self.findings.is_empty() {
            let _ = writeln!(out, "   no findings");
        }
        for f in &self.findings {
            let _ = writeln!(out, "   {}", f.render());
        }
        for f in &self.suppressed {
            let _ = writeln!(out, "   [allowed] {}", f.render());
        }
        for (kernel, words) in &self.benign_atomic {
            let _ = writeln!(
                out,
                "   [benign] {kernel}: {words} word{} with cross-block all-atomic access",
                if *words == 1 { "" } else { "s" }
            );
        }
        out
    }

    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        fn finding_json(f: &Finding) -> Json {
            Json::obj([
                ("checker", Json::str(f.checker.name())),
                ("severity", Json::str(f.severity.name())),
                ("kernel", Json::str(&f.kernel)),
                ("hazard", Json::str(&f.hazard)),
                ("buffer", Json::str(&f.buffer)),
                ("count", Json::num(f.count as f64)),
                ("first_launch", Json::num(f64::from(f.first_launch))),
                ("message", Json::str(&f.message)),
            ])
        }
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("input", Json::str(&self.input)),
            ("launches", Json::num(f64::from(self.launches))),
            ("accesses", Json::num(self.accesses as f64)),
            (
                "findings",
                Json::Arr(self.findings.iter().map(finding_json).collect()),
            ),
            (
                "suppressed",
                Json::Arr(self.suppressed.iter().map(finding_json).collect()),
            ),
            (
                "benign_atomic",
                Json::Arr(
                    self.benign_atomic
                        .iter()
                        .map(|(k, w)| {
                            Json::obj([("kernel", Json::str(k)), ("words", Json::num(*w as f64))])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Convert the active findings into telemetry events stamped at `t`,
    /// so profile traces carry the annotations.
    pub fn to_events(&self, t: f64) -> Vec<sim_telemetry::Event> {
        self.findings
            .iter()
            .map(|f| sim_telemetry::Event::Finding {
                t,
                checker: f.checker.name().to_string(),
                severity: f.severity.name().to_string(),
                kernel: f.kernel.clone(),
                message: format!("{} @ {}: {}", f.hazard, f.buffer, f.message),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_names_round_trip() {
        for c in Checker::ALL {
            assert_eq!(Checker::from_name(c.name()), Some(c));
        }
        assert_eq!(Checker::from_name("nope"), None);
    }

    #[test]
    fn correctness_set_excludes_lints() {
        for c in Checker::CORRECTNESS {
            assert!(!c.is_lint());
        }
        let lints: Vec<Checker> = Checker::ALL.into_iter().filter(|c| c.is_lint()).collect();
        assert_eq!(lints.len(), 3);
    }

    fn sample_finding() -> Finding {
        Finding {
            checker: Checker::RaceGlobal,
            severity: Severity::Error,
            kernel: "sssp_topo".into(),
            hazard: "read/write".into(),
            buffer: "dist".into(),
            count: 12,
            first_launch: 3,
            message: "thread 5 of block 0 vs thread 9 of block 2 on word 17".into(),
        }
    }

    #[test]
    fn report_counts_and_render() {
        let rep = Report {
            workload: "sssp".into(),
            input: "rmat20".into(),
            findings: vec![sample_finding()],
            launches: 7,
            accesses: 1000,
            ..Report::default()
        };
        assert_eq!(rep.errors(), 1);
        assert_eq!(rep.warnings(), 0);
        assert!(!rep.clean());
        let txt = rep.render_text();
        assert!(txt.contains("race-global"));
        assert!(txt.contains("12 occurrences"));
    }

    #[test]
    fn json_parses_and_reads_back_escaped_names() {
        let workload = "x\"y\\z\nw\tv\ru";
        let rep = Report {
            workload: workload.into(),
            findings: vec![sample_finding()],
            ..Report::default()
        };
        let js = sim_telemetry::json::parse(&rep.to_json().dump()).unwrap();
        assert_eq!(js.get("workload").and_then(Json::as_str), Some(workload));
        let findings = js.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(
            findings[0].get("checker").and_then(Json::as_str),
            Some("race-global")
        );
        assert_eq!(findings[0].get("count").and_then(Json::as_u64), Some(12));
    }

    #[test]
    fn findings_become_telemetry_events() {
        let rep = Report {
            findings: vec![sample_finding()],
            ..Report::default()
        };
        let evs = rep.to_events(4.5);
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            sim_telemetry::Event::Finding {
                t,
                checker,
                severity,
                kernel,
                ..
            } => {
                assert_eq!(*t, 4.5);
                assert_eq!(checker, "race-global");
                assert_eq!(severity, "error");
                assert_eq!(kernel, "sssp_topo");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
