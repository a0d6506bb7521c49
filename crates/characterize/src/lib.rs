//! # characterize
//!
//! The paper's contribution: the energy/power/performance characterization
//! study. This crate drives the 34 [`workloads`] programs through the four
//! GPU configurations on the [`kepler_sim`] device, measures each run with
//! the emulated sensor + K20Power tool from [`gpower`], applies the paper's
//! three-repetition median methodology, and generates the data behind
//! every table and figure of the evaluation section.

pub mod analysis;
pub mod artifact;
pub mod cache;
pub mod campaign;
pub mod configs;
pub mod energy;
pub mod experiment;
pub mod figures;
pub mod report;
pub mod sanity;
pub mod tables;
pub mod tracedb;

pub use analysis::{
    render_static_analysis, static_analysis, static_analysis_runs, StaticAnalysis,
    StaticAnalysisRow,
};
pub use artifact::{plan_artifacts, Artifact};
pub use cache::{
    cache_sensitivity, cache_sensitivity_runs, render_cache_sensitivity, CacheSensitivity,
    CacheSensitivityRow, CACHE_SERVED_THRESHOLD,
};
pub use campaign::{
    pareto_front, sim_fingerprint, sweep_grid, Campaign, CampaignConfig, CampaignStats, RunRequest,
    SweepPoint, SWEEP_CORE_MHZ, SWEEP_MEM_MHZ,
};
pub use configs::GpuConfigKind;
pub use energy::{
    energy_breakdown, energy_runs, sampling_error, EnergyBreakdownRow, SamplingErrorRow, ENERGY_SET,
};
pub use experiment::{
    combine_median3, measure, measure_median3, measure_traced, measure_with_device_config,
    Measurement, MedianMeasurement, TracedMeasurement,
};
pub use sanity::{
    measure_traced_checked, sanitize_run, sanitize_run_raw, workload_allowlist, SanitizedRun,
};
pub use tracedb::{trace_key, StoredTrace, TraceDb, TraceUsage, TRACE_FORMAT};

/// Serializes this crate's tests that create simulated devices.
/// `kepler_sim::devices_created()` is process-global, so a test that
/// witnesses "no simulation happened" between two reads of it would
/// otherwise count a sibling test's devices.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
