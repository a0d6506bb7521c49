//! The power-measurement observability lab: instruction-class energy
//! attribution and the emulated sampling-sensor error study.
//!
//! Two artifacts ride on the shared measurement campaign:
//!
//! * `energy-breakdown` — for each workload of [`ENERGY_SET`], the board
//!   trace-integral energy split across instruction classes
//!   ([`gpower::EnergyClass`]) by the nominal per-class model, with the
//!   thermal/jitter residual reported as the `unmodeled` class. The rows
//!   of one workload sum to its board energy *exactly* (the residual is
//!   defined by subtraction, never dropped).
//! * `energy-sampling-error` — for each [`gpower::study_policies`]
//!   sampling policy, the error of the polling sensor's energy estimate
//!   against the board trace integral, per workload and aggregated.
//!
//! Both draw the *same* run slice (one input per workload, default
//! configuration), so a warm campaign serves either artifact without a
//! single extra simulation.

use crate::campaign::{rep_indices, Campaign, RunRequest};
use crate::configs::GpuConfigKind;
use gpower::{study_policies, AveragingWindow};
use rayon::prelude::*;
use serde::Serialize;
use workloads::registry;

/// The energy-study workload set: one program per behavioural family
/// (dense FP32, stencil, n-body FP64, peak-FLOPS, molecular dynamics,
/// histogramming, and two irregular graph codes), all measurable at the
/// default configuration on their first input.
pub const ENERGY_SET: [&str; 8] = ["sgemm", "sten", "nb", "mf", "md", "tpacf", "lbfs", "sbfs"];

/// The runs both energy artifacts need: every [`ENERGY_SET`] workload on
/// its first input at the default configuration.
pub fn energy_runs(reps: u64) -> Vec<RunRequest> {
    let mut runs = Vec::new();
    for key in ENERGY_SET {
        let b = registry::by_key(key).unwrap();
        let input = b.inputs()[0].clone();
        for rep in rep_indices(reps) {
            runs.push(RunRequest {
                key: b.spec().key,
                input: input.clone(),
                config: GpuConfigKind::Default,
                rep,
            });
        }
    }
    runs
}

/// One workload's instruction-class energy attribution.
#[derive(Debug, Clone, Serialize)]
pub struct EnergyBreakdownRow {
    pub key: &'static str,
    pub input: String,
    /// Exact trace-integral energy of the run, joules.
    pub board_energy_j: f64,
    /// `(class name, joules)` in [`EnergyClass::ALL`] order; sums to
    /// `board_energy_j` exactly (the last entry is the residual).
    pub classes: Vec<(&'static str, f64)>,
    /// Signed residual share, percent of board energy.
    pub unmodeled_pct: f64,
}

/// The per-workload energy-breakdown table (default configuration).
pub fn energy_breakdown(c: &Campaign, reps: u64) -> Vec<EnergyBreakdownRow> {
    let cfg = GpuConfigKind::Default.device_config();
    ENERGY_SET
        .par_iter()
        .map(|key| {
            let b = registry::by_key(key).unwrap();
            let input = b.inputs()[0].clone();
            let m = c
                .measurement(b.as_ref(), &input, GpuConfigKind::Default, reps)
                .expect("energy-set workloads must be measurable at default");
            let bd = kepler_sim::attribute_energy(
                &cfg,
                &m.counters,
                m.trace_end_s,
                m.kernel_time_s,
                m.board_energy_j,
            );
            EnergyBreakdownRow {
                key,
                input: input.name.to_string(),
                board_energy_j: bd.board_energy_j,
                classes: bd.rows().map(|(c, j)| (c.name(), j)).collect(),
                unmodeled_pct: 100.0 * bd.unmodeled_frac(),
            }
        })
        .collect()
}

/// One sampling policy's energy-estimation error over the workload set.
#[derive(Debug, Clone, Serialize)]
pub struct SamplingErrorRow {
    /// Policy name from [`gpower::study_policies`].
    pub policy: &'static str,
    pub rate_hz: f64,
    pub phase_s: f64,
    pub jitter_s: f64,
    /// Trailing averaging window, seconds; 0 for instantaneous reads.
    pub window_s: f64,
    /// Signed relative error per workload, percent, in [`ENERGY_SET`]
    /// order.
    pub per_workload_pct: Vec<(&'static str, f64)>,
    /// Mean of |error| over the workloads, percent.
    pub mean_abs_pct: f64,
    /// Worst |error| over the workloads, percent.
    pub max_abs_pct: f64,
}

/// The sampled-energy error study: one row per sampling policy.
pub fn sampling_error(c: &Campaign, reps: u64) -> Vec<SamplingErrorRow> {
    // (key, board energy, per-policy sampled energies) per workload.
    let measured: Vec<(&'static str, f64, Vec<f64>)> = ENERGY_SET
        .par_iter()
        .map(|key| {
            let b = registry::by_key(key).unwrap();
            let input = b.inputs()[0].clone();
            let m = c
                .measurement(b.as_ref(), &input, GpuConfigKind::Default, reps)
                .expect("energy-set workloads must be measurable at default");
            (*key, m.board_energy_j, m.sampled_energy_j.clone())
        })
        .collect();
    study_policies()
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let per_workload_pct: Vec<(&'static str, f64)> = measured
                .iter()
                .map(|(key, truth, sampled)| (*key, 100.0 * (sampled[pi] - truth) / truth))
                .collect();
            let abs: Vec<f64> = per_workload_pct.iter().map(|(_, e)| e.abs()).collect();
            SamplingErrorRow {
                policy: p.name,
                rate_hz: p.rate_hz,
                phase_s: p.phase_s,
                jitter_s: p.jitter_s,
                window_s: match p.window {
                    AveragingWindow::Instantaneous => 0.0,
                    AveragingWindow::Trailing { window_s } => window_s,
                },
                mean_abs_pct: abs.iter().sum::<f64>() / abs.len() as f64,
                max_abs_pct: abs.iter().fold(0.0, |a: f64, &b| a.max(b)),
                per_workload_pct,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpower::EnergyClass;

    #[test]
    fn energy_set_workloads_exist_with_inputs() {
        for key in ENERGY_SET {
            let b = registry::by_key(key).unwrap_or_else(|| panic!("unknown key {key}"));
            assert!(!b.inputs().is_empty(), "{key} has no inputs");
        }
        assert_eq!(energy_runs(1).len(), ENERGY_SET.len());
        assert_eq!(energy_runs(3).len(), ENERGY_SET.len() * 3);
    }

    /// The tentpole reconciliation invariant: for every workload of the
    /// set, the per-class energies (residual included) sum to the board
    /// trace integral to float precision, and the nominal model explains
    /// the run to within the thermal/jitter envelope.
    #[test]
    fn breakdown_reconciles_for_every_energy_set_workload() {
        let _serial = crate::serial();
        let c = Campaign::in_memory();
        let rows = energy_breakdown(&c, 1);
        assert_eq!(rows.len(), ENERGY_SET.len());
        for r in &rows {
            let sum: f64 = r.classes.iter().map(|(_, j)| j).sum();
            let rel = (sum - r.board_energy_j).abs() / r.board_energy_j;
            assert!(rel < 1e-12, "{}: rel {rel}", r.key);
            assert_eq!(r.classes.len(), EnergyClass::ALL.len());
            assert_eq!(r.classes.last().unwrap().0, "unmodeled");
            assert!(
                r.unmodeled_pct.abs() < 5.0,
                "{}: unmodeled {}%",
                r.key,
                r.unmodeled_pct
            );
            assert!(r.board_energy_j > 0.0);
        }
    }

    /// Faster sampling shrinks the estimation error: the 100 Hz
    /// instantaneous policy beats 1 Hz on aggregate, and its worst-case
    /// error is tight.
    #[test]
    fn sampling_error_improves_with_rate() {
        let _serial = crate::serial();
        let c = Campaign::in_memory();
        let rows = sampling_error(&c, 1);
        assert_eq!(rows.len(), study_policies().len());
        let by_name = |n: &str| rows.iter().find(|r| r.policy == n).unwrap();
        let slow = by_name("inst-1hz");
        let fast = by_name("inst-100hz");
        assert!(fast.mean_abs_pct < slow.mean_abs_pct);
        assert!(fast.max_abs_pct < 2.0, "100 Hz err {}", fast.max_abs_pct);
        for r in &rows {
            assert_eq!(r.per_workload_pct.len(), ENERGY_SET.len());
        }
    }
}
