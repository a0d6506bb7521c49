//! Workload-wide contract checks:
//!
//! 1. Every kernel that *claims* `parallel_safe` has a footprint the
//!    prover verifies — the acceptance bar for the static analyzer.
//! 2. The four programs with value-returning atomics (histo, st, ep, eip)
//!    are reported unprovable, clause 2 (or clause 1 for sort's scatter).
//!    tpacf's histogram flush reduces with `red.add` and proves.
//! 3. Dynamic witness: replaying each workload with the sanitizer's
//!    [`FootprintObserver`] attached finds **zero** accesses outside the
//!    declared footprint — the declarations are not just provable but
//!    true.

use sim_analyze::{analysis_config, analyze_workload, prover::Verdict};
use sim_sanitizer::FootprintObserver;
use std::sync::Arc;
use workloads::bench::InputSpec;
use workloads::registry;

/// Small inputs (debug builds execute functionally; paper-scale inputs are
/// far too slow here). Sizes mirror `workloads/tests/exec_equivalence.rs`.
fn small_input(key: &str) -> Option<InputSpec> {
    let (n, m, seed) = match key {
        "eip" => (4096, 16, 0),
        "ep" => (4096, 16, 0),
        "nb" => (512, 0, 1),
        "sc" => (8192, 0, 0),
        "cutcp" => (10, 400, 0),
        "histo" => (4096, 256, 0),
        "lbm" => (24, 2, 0),
        "mriq" => (512, 64, 0),
        "sad" => (32, 2, 0),
        "sgemm" => (64, 0, 0),
        "sten" => (20, 2, 0),
        "tpacf" => (300, 0, 0),
        "bp" => (2048, 0, 0),
        "ge" => (32, 0, 0),
        "nn" => (4096, 1, 0),
        "nw" => (64, 0, 0),
        "pf" => (512, 4, 0),
        "fft" => (64, 2, 0),
        "mf" => (1024, 16, 0),
        "s2d" => (64, 2, 0),
        "st" => (4096, 0, 0),
        "md" => (512, 16, 0),
        "mum" => (256, 25, 0),
        "qtc" => (200, 0, 0),
        _ => return None,
    };
    let mut input = InputSpec::new("contract", n, m, 0, 1.0);
    input.seed = seed;
    Some(input)
}

#[test]
fn every_claimed_parallel_safe_kernel_proves() {
    let mut checked = 0;
    for bench in registry::all() {
        let Some(input) = small_input(bench.spec().key) else {
            continue;
        };
        let wa = analyze_workload(bench.as_ref(), &input);
        for u in &wa.units {
            if !u.parallel_safe {
                continue;
            }
            checked += 1;
            assert_eq!(
                u.verdict,
                Some(Verdict::Provable),
                "{}/{} claims parallel_safe but does not prove: {:?}",
                wa.workload,
                u.kernel,
                u.verdict
            );
        }
        assert_eq!(wa.errors(), 0, "{}", wa.render_text());
    }
    assert!(checked >= 20, "only {checked} claimed kernels proved");
}

#[test]
fn known_atomic_programs_are_reported_unprovable() {
    // The four programs whose atomics return a value; each must surface at
    // least one clause-2 refutation (plus sort's scatter, refuted on
    // clause 1).
    for key in ["histo", "st", "ep", "eip"] {
        let bench = registry::by_key(key).unwrap();
        let wa = analyze_workload(bench.as_ref(), &small_input(key).unwrap());
        let clause2 = wa.units.iter().any(
            |u| matches!(&u.verdict, Some(Verdict::Unprovable(r)) if r.starts_with("clause 2")),
        );
        assert!(
            clause2,
            "{key}: no clause-2 refutation\n{}",
            wa.render_text()
        );
    }
    let wa = analyze_workload(
        registry::by_key("st").unwrap().as_ref(),
        &small_input("st").unwrap(),
    );
    let scatter = wa
        .units
        .iter()
        .find(|u| u.kernel == "sort_scatter")
        .expect("sort_scatter unit");
    let reason = scatter.verdict.as_ref().unwrap().reason().unwrap();
    assert!(reason.starts_with("clause 1"), "{reason}");
}

#[test]
fn declared_footprints_match_observed_access_streams() {
    // Replay every regular workload in observed mode (no pre-execution)
    // with the FootprintObserver checking each global access against the
    // declared spans. A single stray access fails the suite.
    let mut total_checked = 0u64;
    for bench in registry::all() {
        let Some(input) = small_input(bench.spec().key) else {
            continue;
        };
        let obs = Arc::new(FootprintObserver::new());
        let mut dev = kepler_sim::Device::new(analysis_config());
        dev.set_access_observer(obs.clone());
        dev.set_launch_inspector(obs.clone());
        bench.run(&mut dev, &input);
        let (checked, _skipped) = obs.launches();
        assert!(
            checked > 0,
            "{}: no launch carried a footprint",
            bench.spec().key
        );
        assert!(
            obs.clean(),
            "{}: observed accesses outside declared footprints: {:#?}",
            bench.spec().key,
            obs.mismatches()
        );
        total_checked += obs.accesses_checked();
    }
    assert!(
        total_checked > 1_000_000,
        "only {total_checked} accesses witnessed"
    );
}
