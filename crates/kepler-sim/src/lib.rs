//! # kepler-sim
//!
//! An execution-driven, Kepler-class (Tesla K20c) GPU simulator.
//!
//! The paper this workspace reproduces attributes every one of its findings
//! to a small set of architectural mechanisms: warp-level SIMT execution
//! with branch divergence, 128-byte memory-transaction coalescing, shared
//! memory banking, SM occupancy, a core clock domain and a memory clock
//! domain that can be scaled independently (DVFS, with voltage following
//! frequency), and ECC protection of main memory. This crate models exactly
//! those mechanisms, so the paper's observations re-emerge from first
//! principles rather than being hard-coded.
//!
//! ## Model overview
//!
//! * **Functional layer** — kernels implement [`kernel::Kernel`] and run
//!   their *real algorithm* on typed device buffers via a CUDA-like API
//!   ([`block::BlockCtx`] / [`block::ThreadCtx`]): global loads/stores,
//!   atomics and reductions, shared memory, and per-class compute ops.
//!   Results are read back and validated by tests, so the traces that drive
//!   the timing model come from genuine computation.
//! * **Warp layer** — each warp's 32 per-thread op streams are aligned into
//!   warp instructions: inactive lanes are branch divergence, global-memory
//!   slots run segment coalescing, shared slots run bank-conflict analysis,
//!   and same-address atomics serialize ([`warp`]).
//! * **Timing layer** — a fluid (progress-based) scheduler
//!   ([`scheduler`]) dispatches blocks to SM occupancy slots; between
//!   events, each SM's issue bandwidth is shared by its resident blocks and
//!   the global DRAM bandwidth is shared by all memory-demanding blocks,
//!   with a per-block memory-level-parallelism cap so low-occupancy kernels
//!   see exposed latency. Compute and memory streams overlap.
//! * **Power layer** — per-block compute/memory energy (scaled by the
//!   square of the clock domain's voltage) is released in proportion to
//!   progress, yielding a piecewise-constant ground-truth
//!   [`gpower::PowerTrace`] that the emulated sensor then samples.
//!
//! **Timing-dependent irregularity is genuine:** a launch's dispatch order
//! is a shuffle of its blocks within windows of the co-residency width,
//! drawn from a device RNG seeded by the jitter seed *and* the clock
//! configuration ([`scheduler::dispatch_order`]). The order is fixed before
//! the first block runs, and the blocks execute functionally in that
//! order, so blocks of one kernel observe the global-memory writes of the
//! blocks dispatched before them. Changing the clock configuration changes
//! the order, hence how far worklist or constraint propagation travels
//! within a single kernel pass — the mechanism the paper invokes to explain
//! why LonestarGPU codes respond super-linearly to small frequency changes.
//! Completions only decide which SM each block lands on. Block execution
//! reads neither the RNG nor simulated time, so running the blocks first
//! and then scheduling their costs is exactly executing each block when
//! it dispatches; live launches and trace replay take this one path.

pub mod access;
pub mod attribution;
pub mod block;
pub mod buffer;
pub mod coalesce;
pub mod config;
pub mod cost;
pub mod counters;
pub mod device;
pub mod footprint;
pub mod kernel;
pub mod mem;
pub mod occupancy;
pub mod ops;
pub mod scheduler;
pub mod trace;
pub mod warp;

/// Version tag of the simulator's timing/power model. Bump whenever a
/// change alters simulated numbers (scheduler, cost model, power model,
/// jitter), so persisted measurement caches keyed on it are invalidated.
pub const SIM_VERSION: &str = "kepler-sim/2";

/// 64-bit FNV-1a over a byte string: the workspace's one fingerprint and
/// content-address hash (memory-model tags, campaign record and trace file
/// names, jitter seeds, rendezvous placement).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(FNV_PRIME)
    })
}

pub use access::{Access, AccessEvent, AccessKind, AccessObserver, MemSpace};
pub use attribution::{attribute_energy, class_activity, energy_model, phase_durations};
pub use block::{BlockCtx, SharedBuf, ThreadCtx};
pub use buffer::{DevBuffer, GlobalMem};
pub use config::{ClockConfig, DeviceConfig, PowerParams};
pub use counters::{KernelCounters, LaunchStats};
pub use device::devices_created;
pub use device::devices_replayed;
pub use device::{exec_cache_stats, exec_jobs, reset_exec_cache, set_exec_jobs};
pub use device::{Device, ExecStrategy, LaunchOpts};
pub use footprint::{
    BlockFootprint, BufAccess, BufRef, FpBuilder, FpKind, KernelFootprint, LaunchInspector,
    LaunchSummary, Span,
};
pub use kernel::{Kernel, KernelResources, ParamKey};
pub use mem::{CacheConfig, CacheCounters, CacheSim, MemoryModel};
pub use occupancy::{occupancy_report, resident_blocks, Limiter, OccupancyReport};
pub use ops::CompClass;
pub use trace::{
    decode_launch, encode_launch, LaunchTrace, RunTrace, TraceOp, TraceRecorder, TraceReplayDevice,
};

/// Structured-event observability layer (re-exported for convenience):
/// attach a [`telemetry::TelemetrySink`] with [`Device::set_telemetry`] to
/// stream kernel/block/power/DRAM events out of a run.
pub use sim_telemetry as telemetry;

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(super::fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
