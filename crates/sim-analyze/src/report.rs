//! Workload-level analysis: run capture, prove every launch unit, lint
//! every launch configuration, classify boundedness, and aggregate the
//! results into findings gated by a committed baseline.

use crate::capture::{analysis_config, capture_workload, dedupe_units, LaunchRecord};
use crate::classify::{classify_workload, Classification};
use crate::lints::launch_lints;
use crate::prover::{prove_footprint, Verdict};
use sim_sanitizer::{glob_match, Severity};
use std::collections::BTreeMap;
use workloads::bench::{Benchmark, InputSpec};

/// One deduplicated launch unit with its proof verdict.
#[derive(Debug, Clone)]
pub struct UnitAnalysis {
    pub kernel: String,
    pub grid: u32,
    pub block_threads: u32,
    /// Launches collapsed into this unit.
    pub launches: u32,
    pub parallel_safe: bool,
    pub has_params: bool,
    /// Whether the kernel declared a footprint.
    pub declared: bool,
    /// The prover's verdict; `None` when undeclared.
    pub verdict: Option<Verdict>,
}

/// One aggregated static-analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisFinding {
    pub workload: String,
    pub kernel: String,
    /// Stable finding code: `unproven-parallel-safe`, `provable-unclaimed`,
    /// `unprovable-footprint`, or a lint code.
    pub code: String,
    pub severity: Severity,
    pub message: String,
}

impl AnalysisFinding {
    pub fn render(&self) -> String {
        format!(
            "[{}] {} {}: {}",
            self.severity, self.code, self.kernel, self.message
        )
    }
}

/// The full static analysis of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadAnalysis {
    pub workload: String,
    pub input: String,
    /// Raw launches captured.
    pub launches: u32,
    pub units: Vec<UnitAnalysis>,
    /// Active findings, most severe first.
    pub findings: Vec<AnalysisFinding>,
    /// Findings matched by a baseline entry (kept for transparency).
    pub suppressed: Vec<AnalysisFinding>,
    pub classification: Classification,
}

impl WorkloadAnalysis {
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

    /// True when no unbaselined finding remains.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `(provable, unprovable, undeclared)` unit counts.
    pub fn verdict_counts(&self) -> (usize, usize, usize) {
        let provable = self
            .units
            .iter()
            .filter(|u| matches!(u.verdict, Some(Verdict::Provable)))
            .count();
        let unprovable = self
            .units
            .iter()
            .filter(|u| matches!(u.verdict, Some(Verdict::Unprovable(_))))
            .count();
        let undeclared = self.units.iter().filter(|u| !u.declared).count();
        (provable, unprovable, undeclared)
    }

    /// Render the analysis as human-readable text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (p, u, n) = self.verdict_counts();
        let _ = writeln!(
            out,
            "== analyze {} ({}) — {} launches in {} units: {} provable, {} unprovable, \
{} undeclared; static class {}{}",
            self.workload,
            self.input,
            self.launches,
            self.units.len(),
            p,
            u,
            n,
            self.classification.class.name(),
            if self.classification.intensity > 0.0 {
                format!(" ({:.2} ops/B)", self.classification.intensity)
            } else {
                String::new()
            }
        );
        if self.findings.is_empty() {
            let _ = writeln!(out, "   no findings");
        }
        for f in &self.findings {
            let _ = writeln!(out, "   {}", f.render());
        }
        for f in &self.suppressed {
            let _ = writeln!(out, "   [baselined] {}", f.render());
        }
        out
    }
}

/// Derive the contract findings for one unit.
fn contract_findings(workload: &str, u: &UnitAnalysis, out: &mut Vec<AnalysisFinding>) {
    match (&u.verdict, u.parallel_safe) {
        (Some(Verdict::Provable), true) | (None, false) => {}
        (Some(Verdict::Provable), false) => out.push(AnalysisFinding {
            workload: workload.into(),
            kernel: u.kernel.clone(),
            code: "provable-unclaimed".into(),
            severity: Severity::Warning,
            message: format!(
                "footprint proves clauses 1-2 of parallel_safe for grid {} x {} threads; \
verify clause 3 (purity) and opt in to enable pre-execution",
                u.grid, u.block_threads
            ),
        }),
        (Some(Verdict::Unprovable(r)), true) => out.push(AnalysisFinding {
            workload: workload.into(),
            kernel: u.kernel.clone(),
            code: "unproven-parallel-safe".into(),
            severity: Severity::Error,
            message: format!("claims parallel_safe but the footprint refutes it: {r}"),
        }),
        (Some(Verdict::Unprovable(r)), false) => out.push(AnalysisFinding {
            workload: workload.into(),
            kernel: u.kernel.clone(),
            code: "unprovable-footprint".into(),
            severity: Severity::Warning,
            message: format!("not parallel-safe, and provably so: {r}"),
        }),
        (None, true) => out.push(AnalysisFinding {
            workload: workload.into(),
            kernel: u.kernel.clone(),
            code: "unproven-parallel-safe".into(),
            severity: Severity::Error,
            message: "claims parallel_safe but declares no footprint to prove it".into(),
        }),
    }
}

/// Analyze one workload: capture its launches on `input`, prove and lint
/// every deduplicated unit, classify, and aggregate findings. No baseline
/// is applied.
pub fn analyze_workload(bench: &dyn Benchmark, input: &InputSpec) -> WorkloadAnalysis {
    let records = capture_workload(bench, input);
    analyze_records(bench.spec().key, input.name, &records)
}

/// The analysis core, split out so tests can feed synthetic records.
pub fn analyze_records(workload: &str, input: &str, records: &[LaunchRecord]) -> WorkloadAnalysis {
    let cfg = analysis_config();
    let units: Vec<UnitAnalysis> = dedupe_units(records)
        .into_iter()
        .map(|(rec, launches)| UnitAnalysis {
            kernel: rec.kernel.clone(),
            grid: rec.grid,
            block_threads: rec.block_threads,
            launches,
            parallel_safe: rec.parallel_safe,
            has_params: rec.has_params,
            declared: rec.footprint.is_some(),
            verdict: rec.footprint.as_ref().map(prove_footprint),
        })
        .collect();

    let mut findings = Vec::new();
    for (rec, _) in dedupe_units(records) {
        for lint in launch_lints(&cfg, &rec) {
            findings.push(AnalysisFinding {
                workload: workload.into(),
                kernel: rec.kernel.clone(),
                code: lint.code.into(),
                severity: Severity::Warning,
                message: lint.message,
            });
        }
    }
    for u in &units {
        contract_findings(workload, u, &mut findings);
    }
    // Aggregate duplicates (same kernel+code from several units) and order
    // most severe first, then by kernel and code for stable output.
    let mut agg: BTreeMap<(String, String), AnalysisFinding> = BTreeMap::new();
    for f in findings {
        agg.entry((f.kernel.clone(), f.code.clone())).or_insert(f);
    }
    let mut findings: Vec<AnalysisFinding> = agg.into_values().collect();
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.kernel.cmp(&b.kernel))
            .then_with(|| a.code.cmp(&b.code))
    });

    WorkloadAnalysis {
        workload: workload.into(),
        input: input.into(),
        launches: records.len() as u32,
        classification: classify_workload(records),
        units,
        findings,
        suppressed: Vec::new(),
    }
}

/// One parsed baseline entry: `[workload:]code:kernel-glob` (same shape as
/// the sanitizer's allowlist; `*` wildcards the workload or code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub workload: Option<String>,
    pub code: Option<String>,
    pub kernel: String,
}

impl BaselineEntry {
    pub fn parse(s: &str) -> Option<BaselineEntry> {
        let fields: Vec<&str> = s.split(':').collect();
        let (workload, code, kernel) = match fields.as_slice() {
            [c, k] => (None, *c, *k),
            [w, c, k] => (Some(*w), *c, *k),
            _ => return None,
        };
        Some(BaselineEntry {
            workload: match workload {
                None | Some("*") => None,
                Some(w) => Some(w.to_string()),
            },
            code: match code {
                "*" => None,
                c => Some(c.to_string()),
            },
            kernel: kernel.to_string(),
        })
    }

    pub fn matches(&self, f: &AnalysisFinding) -> bool {
        if let Some(w) = &self.workload {
            if *w != f.workload {
                return false;
            }
        }
        if let Some(c) = &self.code {
            if *c != f.code {
                return false;
            }
        }
        glob_match(&self.kernel, &f.kernel)
    }
}

/// The committed expected-findings baseline (`analyze-baseline.txt`).
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    entries: Vec<BaselineEntry>,
}

impl Baseline {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parse a baseline file: `#` comments, blank lines, one entry per
    /// line.
    pub fn parse_file(text: &str) -> Result<Baseline, String> {
        let mut entries = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let e = BaselineEntry::parse(line)
                .ok_or_else(|| format!("line {}: bad baseline entry {line:?}", lineno + 1))?;
            entries.push(e);
        }
        Ok(Baseline { entries })
    }

    /// Move baselined findings into `suppressed`.
    pub fn apply(&self, wa: &mut WorkloadAnalysis) {
        if self.entries.is_empty() {
            return;
        }
        let (allowed, active): (Vec<_>, Vec<_>) = wa
            .findings
            .drain(..)
            .partition(|f| self.entries.iter().any(|e| e.matches(f)));
        wa.findings = active;
        wa.suppressed.extend(allowed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::registry;

    #[test]
    fn clean_claimed_workload_has_no_contract_findings() {
        let b = registry::by_key("sgemm").unwrap();
        let input = InputSpec::new("t", 64, 0, 0, 1.0);
        let wa = analyze_workload(b.as_ref(), &input);
        let (p, u, n) = wa.verdict_counts();
        assert_eq!((p, u, n), (1, 0, 0));
        assert!(
            wa.findings.iter().all(|f| f.severity != Severity::Error),
            "{}",
            wa.render_text()
        );
    }

    #[test]
    fn sort_reports_atomics_and_scatter_as_unprovable_and_chunk_hist_as_claimable() {
        let b = registry::by_key("st").unwrap();
        let input = InputSpec::new("t", 4096, 0, 0, 1.0);
        let wa = analyze_workload(b.as_ref(), &input);
        let codes_of = |k: &str| -> Vec<String> {
            wa.findings
                .iter()
                .filter(|f| f.kernel == k)
                .map(|f| f.code.clone())
                .collect()
        };
        assert!(codes_of("sort_histogram").contains(&"unprovable-footprint".into()));
        assert!(codes_of("sort_scatter").contains(&"unprovable-footprint".into()));
        assert!(codes_of("sort_chunk_hist").contains(&"provable-unclaimed".into()));
        assert!(wa.errors() == 0, "{}", wa.render_text());
    }

    #[test]
    fn baseline_suppresses_expected_findings() {
        let b = registry::by_key("st").unwrap();
        let input = InputSpec::new("t", 4096, 0, 0, 1.0);
        let mut wa = analyze_workload(b.as_ref(), &input);
        let n = wa.findings.len();
        assert!(n >= 3);
        let base = Baseline::parse_file(
            "st:unprovable-footprint:sort_*\nst:provable-unclaimed:sort_chunk_hist\n",
        )
        .unwrap();
        base.apply(&mut wa);
        assert_eq!(wa.suppressed.len(), 3);
        assert_eq!(wa.findings.len(), n - 3, "{}", wa.render_text());
    }

    #[test]
    fn baseline_parse_rejects_malformed_lines() {
        assert!(Baseline::parse_file("a:b:c:d").is_err());
        assert!(Baseline::parse_file("# comment only\n").unwrap().is_empty());
        let b = Baseline::parse_file("*:*:k1\ncode:k2 # trailing\n").unwrap();
        assert_eq!(b.len(), 2);
    }
}
