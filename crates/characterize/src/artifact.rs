//! The artifact catalogue: every table and figure `repro` prints and
//! `GET /v1/artifacts/{name}` serves, with its name, the slice of the
//! measurement matrix it needs, and how it is generated and rendered.
//!
//! Adding an artifact is one variant here: its name, its runs and its
//! render arm. `repro` and the service pick it up from [`Artifact::VARIANTS`].

use crate::analysis::{render_static_analysis, static_analysis, static_analysis_runs};
use crate::cache::{cache_sensitivity, cache_sensitivity_runs, render_cache_sensitivity};
use crate::campaign::{Campaign, RunRequest};
use crate::configs::GpuConfigKind;
use crate::energy::{energy_breakdown, energy_runs, sampling_error};
use crate::figures::{
    input_power_figure, input_power_figure_runs, power_profile, power_range_figure,
    power_range_figure_runs, ratio_figure, ratio_figure_runs,
};
use crate::report::*;
use crate::tables::{
    table1, table2, table2_runs, table3, table3_runs, table4, table4_runs, tr_detail,
    tr_detail_runs,
};
use std::collections::HashSet;

/// One artifact, in listing order: the paper's tables and figures in
/// `repro all` output order, then the opt-in ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Program inventory; needs no measurements.
    Table1,
    /// Sample power profile from its own fixed-seed run; needs no
    /// measurements from the matrix.
    Fig1,
    Fig2,
    Fig3,
    Fig4,
    Table2,
    Table3,
    Table4,
    Fig5,
    Fig6,
    /// The companion technical report's full per-program sweep.
    TrDetail,
    /// Instruction-class energy-attribution table over the energy-study
    /// workload set.
    EnergyBreakdown,
    /// Sampled-energy error vs. sensor-sampling policy.
    SamplingError,
    /// Static boundedness class vs. measured clock sensitivity
    /// (cross-validation of the `sim-analyze` classifier).
    StaticAnalysis,
    /// Flat-DRAM vs sectored-cache comparison: hit rates, core-clock
    /// sensitivity under both memory models, static cache class.
    CacheSensitivity,
}

impl Artifact {
    /// Every artifact, in listing order.
    pub const VARIANTS: [Artifact; 15] = [
        Artifact::Table1,
        Artifact::Fig1,
        Artifact::Fig2,
        Artifact::Fig3,
        Artifact::Fig4,
        Artifact::Table2,
        Artifact::Table3,
        Artifact::Table4,
        Artifact::Fig5,
        Artifact::Fig6,
        Artifact::TrDetail,
        Artifact::EnergyBreakdown,
        Artifact::SamplingError,
        Artifact::StaticAnalysis,
        Artifact::CacheSensitivity,
    ];

    /// `repro all`, in output order. `trdata` (the most expensive matrix)
    /// and the analysis artifacts stay opt-in so the `all` output and its
    /// goldens stay byte-identical across releases.
    pub const ALL: &'static [Artifact] = Self::VARIANTS.split_at(10).0;

    /// The selector `repro` and the service accept.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Table1 => "table1",
            Artifact::Fig1 => "fig1",
            Artifact::Fig2 => "fig2",
            Artifact::Fig3 => "fig3",
            Artifact::Fig4 => "fig4",
            Artifact::Table2 => "table2",
            Artifact::Table3 => "table3",
            Artifact::Table4 => "table4",
            Artifact::Fig5 => "fig5",
            Artifact::Fig6 => "fig6",
            Artifact::TrDetail => "trdata",
            Artifact::EnergyBreakdown => "energy-breakdown",
            Artifact::SamplingError => "energy-sampling-error",
            Artifact::StaticAnalysis => "static-analysis",
            Artifact::CacheSensitivity => "cache-sensitivity",
        }
    }

    /// Resolve an artifact from its [`Self::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::VARIANTS.into_iter().find(|a| a.name() == name)
    }

    /// The runs this artifact needs at the given repetition count.
    pub fn runs(self, reps: u64) -> Vec<RunRequest> {
        match self {
            Artifact::Table1 | Artifact::Fig1 => Vec::new(),
            Artifact::Fig2 => ratio_figure_runs(GpuConfigKind::Default, GpuConfigKind::C614, reps),
            Artifact::Fig3 => ratio_figure_runs(GpuConfigKind::C614, GpuConfigKind::C324, reps),
            Artifact::Fig4 => ratio_figure_runs(GpuConfigKind::Default, GpuConfigKind::Ecc, reps),
            // Table 2's variability is meaningless without all three reps.
            Artifact::Table2 => table2_runs(),
            Artifact::Table3 => table3_runs(reps),
            Artifact::Table4 => table4_runs(reps),
            Artifact::Fig5 => input_power_figure_runs(reps),
            Artifact::Fig6 => power_range_figure_runs(reps),
            Artifact::TrDetail => tr_detail_runs(reps),
            // Both energy artifacts draw the same run slice.
            Artifact::EnergyBreakdown | Artifact::SamplingError => energy_runs(reps),
            // Same slice as Figure 2: a warm campaign adds no runs.
            Artifact::StaticAnalysis => static_analysis_runs(reps),
            Artifact::CacheSensitivity => cache_sensitivity_runs(reps),
        }
    }

    /// Generate and render the artifact from `c`, without the trailing
    /// newline `repro` prints after it. Runs the campaign has not
    /// prefetched are simulated on demand.
    pub fn render(self, c: &Campaign, reps: u64) -> String {
        match self {
            Artifact::Table1 => render_table1(&table1()),
            Artifact::Fig1 => render_fig1(&power_profile("sgemm")),
            Artifact::Fig2 => render_ratio_figure(
                &ratio_figure(c, GpuConfigKind::Default, GpuConfigKind::C614, reps),
                "Figure 2: effects of the 614 configuration",
            ),
            Artifact::Fig3 => render_ratio_figure(
                &ratio_figure(c, GpuConfigKind::C614, GpuConfigKind::C324, reps),
                "Figure 3: effects of the 324 configuration",
            ),
            Artifact::Fig4 => render_ratio_figure(
                &ratio_figure(c, GpuConfigKind::Default, GpuConfigKind::Ecc, reps),
                "Figure 4: effects of ECC",
            ),
            Artifact::Table2 => render_table2(&table2(c)),
            Artifact::Table3 => render_table3(&table3(c, reps)),
            Artifact::Table4 => render_table4(&table4(c, reps)),
            Artifact::Fig5 => render_fig5(&input_power_figure(c, reps)),
            Artifact::Fig6 => render_fig6(&power_range_figure(c, reps)),
            Artifact::TrDetail => render_tr_detail(&tr_detail(c, reps)),
            Artifact::EnergyBreakdown => render_energy_breakdown(&energy_breakdown(c, reps)),
            Artifact::SamplingError => render_sampling_error(&sampling_error(c, reps)),
            Artifact::StaticAnalysis => render_static_analysis(&static_analysis(c, reps)),
            Artifact::CacheSensitivity => render_cache_sensitivity(&cache_sensitivity(c, reps)),
        }
    }
}

/// Collect the deduplicated run matrix of a set of artifacts. Requests are
/// deduplicated by canonical cache key, preserving first-seen order.
pub fn plan_artifacts(artifacts: &[Artifact], reps: u64) -> Vec<RunRequest> {
    let mut seen = HashSet::new();
    let mut plan = Vec::new();
    for a in artifacts {
        for req in a.runs(reps) {
            if seen.insert(req.cache_key()) {
                plan.push(req);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_back_to_their_artifact() {
        for a in Artifact::VARIANTS {
            assert_eq!(Artifact::from_name(a.name()), Some(a));
        }
        assert_eq!(Artifact::from_name("table9"), None);
        assert_eq!(Artifact::from_name("all"), None);
        let all: Vec<&str> = Artifact::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            all,
            [
                "table1", "fig1", "fig2", "fig3", "fig4", "table2", "table3", "table4", "fig5",
                "fig6"
            ]
        );
    }

    /// The `all --quick` plan: 504 requested units, 247 distinct; the
    /// inventory and the sample power profile request none.
    #[test]
    fn all_quick_plans_247_of_504_units() {
        assert!(Artifact::Table1.runs(1).is_empty());
        assert!(Artifact::Fig1.runs(1).is_empty());
        let requested: usize = Artifact::ALL.iter().map(|a| a.runs(1).len()).sum();
        assert_eq!(requested, 504);
        assert_eq!(plan_artifacts(Artifact::ALL, 1).len(), 247);
    }
}
