//! # sim-analyze — static analysis over declared kernel footprints
//!
//! Everything in this crate runs *without executing kernels on the timing
//! model*: a workload is captured once (one [`capture::LaunchRecord`] per
//! launch), and all verdicts derive from the declared
//! [`kepler_sim::KernelFootprint`], the launch geometry, and
//! [`kepler_sim::KernelResources`].
//!
//! Three analyses:
//!
//! - **Disjointness prover** ([`prover`]): verifies clauses 1–2 of the
//!   `parallel_safe` contract — per-buffer write-privacy across blocks, no
//!   value-returning global atomics, and reduction targets that nothing
//!   else reads or writes — with two exact engines (element map for
//!   small footprints, interval/stride sweep with a pair budget for large
//!   ones). A blown budget is a sound *refusal*, never a wrong `Provable`.
//! - **Launch-configuration lints** ([`lints`]): block size not a warp
//!   multiple, grid underfilling the 13-SM K20c, shared-memory overflow,
//!   low theoretical occupancy with limiter attribution.
//! - **Boundedness classifier** ([`classify`]): static arithmetic
//!   intensity (declared ops / declared bytes) against the K20c roofline
//!   ridge, cross-validated by the `static-analysis` artifact against
//!   measured clock sensitivity.
//!
//! [`report::analyze_workload`] glues them together and gates the result
//! on a committed baseline (`analyze-baseline.txt`), mirroring the
//! sanitizer's allowlist workflow.

pub mod capture;
pub mod classify;
pub mod lints;
pub mod prover;
pub mod report;

pub use capture::{analysis_config, capture_workload, dedupe_units, Capture, LaunchRecord};
pub use classify::{
    cache_class_launch, cache_class_workload, classify_workload, CacheClass, Classification,
    StaticClass, RIDGE_OPS_PER_BYTE,
};
pub use lints::{launch_lints, Lint, LOW_OCCUPANCY_THRESHOLD};
pub use prover::{brute_force_disjoint, prove_footprint, prove_footprint_with, Verdict};
pub use report::{
    analyze_records, analyze_workload, AnalysisFinding, Baseline, BaselineEntry, UnitAnalysis,
    WorkloadAnalysis,
};
