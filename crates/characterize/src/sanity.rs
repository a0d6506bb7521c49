//! Sanitized runs: executing a benchmark program with the
//! [`sim_sanitizer`] checkers attached, and optionally with full telemetry
//! at the same time (so profile traces carry the findings).

use crate::configs::GpuConfigKind;
use crate::experiment::{measure_traced, TracedMeasurement};
use kepler_sim::Device;
use sim_sanitizer::{Allowlist, CheckerSet, Report, Sanitizer};
use std::sync::Arc;
use workloads::bench::{Benchmark, InputSpec};

/// A run under the sanitizer: its [`Report`] plus the program's own result
/// checksum (the sanitizer must never change the answer).
#[derive(Debug, Clone)]
pub struct SanitizedRun {
    pub report: Report,
    pub checksum: f64,
}

/// Build the effective allowlist for `bench`: its own
/// [`Benchmark::sanitizer_allowlist`] entries (scoped to its key) merged
/// with `extra` (e.g. a committed baseline file).
///
/// Panics on a malformed workload-provided entry — that is a bug in the
/// workload, not an input error.
pub fn workload_allowlist(bench: &dyn Benchmark, extra: &Allowlist) -> Allowlist {
    let key = bench.spec().key;
    let mut list = Allowlist::from_workload(key, bench.sanitizer_allowlist())
        .unwrap_or_else(|e| panic!("{e}"));
    list.extend(extra.clone());
    list
}

/// Run `bench` on `input` under the default configuration with the given
/// checkers attached and return the raw report — no allowlist applied.
pub fn sanitize_run_raw(
    bench: &dyn Benchmark,
    input: &InputSpec,
    checks: CheckerSet,
) -> SanitizedRun {
    let kind = GpuConfigKind::Default;
    let cfg = kind.device_config();
    let san = Arc::new(Sanitizer::new(bench.spec().key, input.name, &cfg, checks));
    let mut dev = Device::new(cfg);
    dev.set_access_observer(san.clone());
    let out = bench.run(&mut dev, input);
    SanitizedRun {
        report: san.report(),
        checksum: out.checksum,
    }
}

/// [`sanitize_run_raw`] followed by the workload's own allowlist plus
/// `extra` — the standard pipeline.
pub fn sanitize_run(
    bench: &dyn Benchmark,
    input: &InputSpec,
    checks: CheckerSet,
    extra: &Allowlist,
) -> SanitizedRun {
    let mut run = sanitize_run_raw(bench, input, checks);
    workload_allowlist(bench, extra).apply(&mut run.report);
    run
}

/// A traced measurement with the sanitizer riding along: the usual
/// [`measure_traced`] pipeline, then a second sanitized run whose findings
/// are appended to the event stream as [`sim_telemetry::Event::Finding`]s
/// stamped at the end of the trace.
///
/// Two runs are used so the measured reading stays bit-identical to the
/// untraced pipeline (same seeds, same code path) while the checkers still
/// see every access.
pub fn measure_traced_checked(
    bench: &dyn Benchmark,
    input: &InputSpec,
    kind: GpuConfigKind,
    rep: u64,
    event_capacity: usize,
    checks: CheckerSet,
    extra: &Allowlist,
) -> (TracedMeasurement, Report) {
    let mut traced = measure_traced(bench, input, kind, rep, event_capacity);
    let run = sanitize_run(bench, input, checks, extra);
    assert_eq!(
        run.checksum,
        traced.checksum,
        "sanitizer perturbed the computation of {}",
        bench.spec().key
    );
    let t_end = traced.trace.end_time();
    traced.events.extend(run.report.to_events(t_end));
    (traced, run.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_telemetry::Event;
    use workloads::registry;

    #[test]
    fn clean_workloads_sanitize_clean() {
        let _serial = crate::serial();
        // No-false-positive gate: hazard-free workloads must stay clean
        // under the correctness checkers with no allowlist at all.
        for key in ["sgemm", "fft", "md"] {
            let b = registry::by_key(key).unwrap();
            let input = &b.inputs()[0];
            let run = sanitize_run_raw(b.as_ref(), input, CheckerSet::default());
            assert!(
                run.report.clean(),
                "{key} should be hazard-free:\n{}",
                run.report.render_text()
            );
            assert!(run.report.accesses > 0);
            assert!(run.report.launches > 0);
        }
    }

    #[test]
    fn checked_trace_carries_findings_and_matches_plain_reading() {
        let _serial = crate::serial();
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let (traced, report) = measure_traced_checked(
            b.as_ref(),
            input,
            GpuConfigKind::Default,
            0,
            1 << 20,
            CheckerSet::default(),
            &Allowlist::default(),
        );
        // The reading is the untraced pipeline's reading (sanitizer rides
        // a separate run).
        let plain =
            crate::experiment::measure(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        assert_eq!(traced.reading.unwrap().energy_j, plain.reading.energy_j);
        // Finding events appear iff the report has findings.
        let n_finding_events = traced
            .events
            .iter()
            .filter(|e| matches!(e, Event::Finding { .. }))
            .count();
        assert_eq!(n_finding_events, report.findings.len());
    }
}
