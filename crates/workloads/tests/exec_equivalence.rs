//! Serial-vs-parallel equivalence: every regular workload, and every
//! irregular one whose kernels opt into `parallel_safe` (md, mum, qtc),
//! must produce a bit-identical outcome whether its kernels execute at
//! dispatch time (the simulator's reference semantics), are pre-executed
//! serially, or are pre-executed sharded across worker threads — and that
//! must hold under more than one clock configuration AND under both memory
//! models (the per-block cache simulation keeps every block cost a pure
//! function of its own access stream; see `docs/MEMORY.md`). Replaying a
//! recorded trace under a foreign configuration is covered by
//! `characterize`'s `trace_equivalence` suite.
//!
//! Sharding matters most where blocks reduce into shared words (tpacf's
//! bins and qtc's argmax): each shard logs its `red`s and the device folds
//! them after the shard patches. Benchmarks whose kernels use
//! value-returning atomics never opt into `parallel_safe`, so for them
//! every strategy degenerates to exec-at-dispatch; including them keeps
//! the coverage statement simple ("every regular workload") and guards
//! against a future opt-in that would violate the contract.

use kepler_sim::{CacheConfig, ClockConfig, Device, DeviceConfig, ExecStrategy, MemoryModel};
use workloads::bench::{Benchmark, InputSpec};
use workloads::registry;

/// Small inputs (debug builds execute functionally, so paper-scale inputs
/// are far too slow here). Sizes mirror each workload's own unit tests.
fn small_input(key: &str) -> Option<InputSpec> {
    let (n, m, seed) = match key {
        // CUDA SDK
        "eip" => (4096, 16, 0),
        "ep" => (4096, 16, 0),
        "nb" => (512, 0, 1),
        "sc" => (8192, 0, 0),
        // Parboil
        "cutcp" => (10, 400, 0),
        "histo" => (4096, 256, 0),
        "lbm" => (24, 2, 0),
        "mriq" => (512, 64, 0),
        "sad" => (32, 2, 0),
        "sgemm" => (64, 0, 0),
        "sten" => (20, 2, 0),
        "tpacf" => (300, 0, 0),
        // Rodinia
        "bp" => (2048, 0, 0),
        "ge" => (32, 0, 0),
        "nn" => (4096, 1, 0),
        "nw" => (64, 0, 0),
        "pf" => (512, 4, 0),
        // SHOC
        "fft" => (64, 2, 0),
        "mf" => (1024, 16, 0),
        "s2d" => (64, 2, 0),
        "st" => (4096, 0, 0),
        // Irregular in Table 1, but every kernel opts in.
        "md" => (512, 16, 0),
        "mum" => (256, 25, 0),
        "qtc" => (200, 0, 0),
        _ => return None,
    };
    let mut input = InputSpec::new("equiv", n, m, 0, 1.0);
    input.seed = seed;
    Some(input)
}

/// Run one benchmark under one strategy and fold the complete observable
/// outcome — result checksum, simulated kernel time, and every aggregate
/// counter — into a bitwise digest vector.
fn outcome(
    bench: &dyn Benchmark,
    input: &InputSpec,
    clocks: ClockConfig,
    mem_model: MemoryModel,
    strategy: ExecStrategy,
) -> Vec<u64> {
    let mut cfg = DeviceConfig::k20c(clocks, false);
    cfg.mem_model = mem_model;
    let mut dev = Device::new(cfg);
    dev.set_exec_strategy(strategy);
    let out = bench.run(&mut dev, input);
    let c = dev.total_counters();
    let mut digest = vec![
        out.checksum.to_bits(),
        dev.kernel_time().to_bits(),
        c.blocks,
        c.threads,
        c.warps,
        c.issue_cycles.to_bits(),
        c.dram_bytes.to_bits(),
        c.useful_bytes.to_bits(),
        c.transactions.to_bits(),
        c.ideal_transactions.to_bits(),
        c.atomics.to_bits(),
        c.shared_accesses.to_bits(),
        c.bank_conflict_cycles.to_bits(),
        c.barriers.to_bits(),
        c.slots.to_bits(),
        c.active_lanes.to_bits(),
    ];
    digest.extend(c.lane_ops.iter().map(|v| v.to_bits()));
    digest.extend([
        c.l1_hits.to_bits(),
        c.l2_hits.to_bits(),
        c.dram_transactions.to_bits(),
        c.mshr_merges.to_bits(),
    ]);
    digest
}

#[test]
fn every_regular_workload_is_strategy_invariant() {
    let benches = registry::all();
    let mut covered = 0usize;
    // Two clock configs under the flat model, plus the cache model at
    // default clocks: the equivalence contract must survive the per-block
    // cache simulation too.
    let (default, c614) = (ClockConfig::k20_default(), ClockConfig::k20_614());
    let passes = [
        (default, MemoryModel::FlatDram),
        (c614, MemoryModel::FlatDram),
        (default, MemoryModel::Cached(CacheConfig::k20())),
    ];
    for (clocks, mem_model) in passes {
        for bench in &benches {
            let spec = bench.spec();
            let Some(input) = small_input(spec.key) else {
                assert!(
                    !spec.regular,
                    "no small input for regular bench {:?}",
                    spec.key
                );
                continue;
            };

            // Reference semantics, then each pre-execution variant.
            let reference = outcome(
                bench.as_ref(),
                &input,
                clocks,
                mem_model,
                ExecStrategy::AtDispatch,
            );
            for (label, strategy) in [
                ("pre-exec serial", ExecStrategy::PreExec { jobs: 1 }),
                ("pre-exec sharded", ExecStrategy::PreExec { jobs: 3 }),
            ] {
                let pre = outcome(bench.as_ref(), &input, clocks, mem_model, strategy);
                assert_eq!(
                    reference, pre,
                    "{} ({label}) diverged from exec-at-dispatch",
                    spec.key
                );
            }
            covered += 1;
        }
    }
    // 21 regular programs in Table 1 plus md, mum and qtc, each checked
    // under two clock configs (flat) plus the cache model.
    assert_eq!(covered, 72, "workload coverage changed");
}
