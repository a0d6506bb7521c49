//! Serial-vs-parallel equivalence: every regular workload must produce a
//! bit-identical outcome whether its kernels execute at dispatch time
//! (the simulator's reference semantics), are pre-executed serially, are
//! pre-executed sharded across worker threads, or are replayed from the
//! process-wide pre-execution cache — and that must hold under more than
//! one clock configuration AND under both memory models (the per-block
//! cache simulation keeps every block cost a pure function of its own
//! access stream; see `docs/MEMORY.md`). The cache is shared across
//! configurations by design (`docs/PERF.md`), so a replay must also match
//! when the cache was filled under the other clock configuration, whose
//! clock-seeded dispatch order differs.
//!
//! Benchmarks whose kernels use atomics never opt into `parallel_safe`,
//! so for them every strategy degenerates to exec-at-dispatch; including
//! them keeps the coverage statement simple ("every regular workload")
//! and guards against a future opt-in that would violate the contract.
//!
//! Everything runs inside ONE `#[test]` function: the pre-execution cache
//! is process-global, and the cold-path assertions need `reset_exec_cache`
//! calls that must not race a concurrently running test.

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
    // cache simulation too. Each pass names the other flat clock config,
    // which fills the cache for the cross-configuration replay.
    let (default, c614) = (ClockConfig::k20_default(), ClockConfig::k20_614());
    let passes = [
        (default, c614, MemoryModel::FlatDram),
        (c614, default, MemoryModel::FlatDram),
        (default, c614, MemoryModel::Cached(CacheConfig::k20())),
    ];
    for (clocks, other_clocks, mem_model) in passes {
        for bench in &benches {
            let spec = bench.spec();
            if !spec.regular {
                continue;
            }
            let input = small_input(spec.key)
                .unwrap_or_else(|| panic!("no small input for regular bench {:?}", spec.key));

            // Reference semantics, then each pre-execution variant cold
            // (cache cleared), then a warm run that must replay from cache,
            // then a replay from a cache filled under the other clocks.
            let reference = outcome(
                bench.as_ref(),
                &input,
                clocks,
                mem_model,
                ExecStrategy::AtDispatch,
            );
            let serial = ExecStrategy::PreExec { jobs: 1 };
            for (label, strategy) in [
                ("pre-exec serial", serial),
                ("pre-exec sharded", ExecStrategy::PreExec { jobs: 3 }),
            ] {
                kepler_sim::reset_exec_cache();
                let cold = outcome(bench.as_ref(), &input, clocks, mem_model, strategy);
                assert_eq!(
                    reference, cold,
                    "{} ({label}, cold) diverged from exec-at-dispatch",
                    spec.key
                );
                let warm = outcome(bench.as_ref(), &input, clocks, mem_model, strategy);
                assert_eq!(
                    reference, warm,
                    "{} ({label}, cache replay) diverged from exec-at-dispatch",
                    spec.key
                );
            }

            // A cold serial fill under the other clocks: each launch it
            // pre-executes is a miss, retained (these small inputs stay far
            // under the cache's byte budget) for the replay to hit.
            kepler_sim::reset_exec_cache();
            outcome(bench.as_ref(), &input, other_clocks, mem_model, serial);
            let (hits_before, filled) = kepler_sim::exec_cache_stats();
            let crossed = outcome(bench.as_ref(), &input, clocks, mem_model, serial);
            assert_eq!(
                reference, crossed,
                "{} (replay of a cache filled under other clocks) diverged from exec-at-dispatch",
                spec.key
            );
            if filled > 0 {
                assert!(
                    kepler_sim::exec_cache_stats().0 > hits_before,
                    "{}: a cache filled under other clocks served no launch",
                    spec.key
                );
            }
            covered += 1;
        }
    }
    // 21 regular programs in Table 1, each checked under two clock
    // configs (flat) plus the cache model.
    assert_eq!(covered, 63, "regular-workload coverage changed");
}
