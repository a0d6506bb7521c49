//! Adapters from the simulator's types to `gpower`'s instruction-class
//! energy-attribution model.
//!
//! `gpower` sits *below* this crate in the dependency graph, so its
//! [`gpower::EnergyModel`] / [`gpower::ClassActivity`] are plain-number
//! structs; this module fills them from a [`DeviceConfig`] and the
//! [`KernelCounters`] a run collects, applying exactly the mapping the
//! power layer uses:
//!
//! * per-op energies come from [`crate::config::PowerParams`] at their
//!   *nominal* values (a live device perturbs them thermally per run —
//!   that drift is what the breakdown's `unmodeled` residual measures);
//! * core-side classes scale with the squared relative core voltage,
//!   memory-side classes with the squared relative memory voltage and the
//!   scheduler's ECC energy factor;
//! * shared-memory energy covers both issued shared compute slots and raw
//!   lane accesses, as in [`crate::cost::BlockCost::comp_energy`];
//! * idle lanes are `slots * 32 - active_lanes`, the divergence overhead.

use crate::config::DeviceConfig;
use crate::counters::KernelCounters;
use crate::device::{LEAD_IN_S, LEAD_OUT_S, TAIL_DECAY_S};
use crate::ops::CompClass;
use gpower::{ClassActivity, EnergyBreakdown, EnergyModel, PhaseDurations};

/// The memory-side energy multiplier under ECC. The scheduler
/// (`run_launch_pooled`) and this module's energy model both use it.
pub const ECC_ENERGY_FACTOR: f64 = 1.25;

/// Build the per-class energy model of a device configuration, at nominal
/// (unperturbed) coefficients.
pub fn energy_model(cfg: &DeviceConfig) -> EnergyModel {
    let p = &cfg.power;
    // Cache-hit energies come from the memory model, not PowerParams:
    // under flat DRAM there are no caches and the terms are zero.
    let (e_l1, e_l2) = match cfg.mem_model.cache() {
        Some(cc) => (cc.e_l1_byte, cc.e_l2_byte),
        None => (0.0, 0.0),
    };
    EnergyModel {
        e_fp32_add: p.e_fp32_add,
        e_fp32_mul: p.e_fp32_mul,
        e_fp32_fma: p.e_fp32_fma,
        e_fp64: p.e_fp64,
        e_int: p.e_int,
        e_sfu: p.e_sfu,
        e_shared: p.e_shared,
        e_idle_lane: p.e_idle_lane,
        e_dram_byte: p.e_dram_byte,
        e_txn: p.e_txn,
        e_atomic: p.e_atomic,
        e_l1_byte: e_l1,
        e_l2_byte: e_l2,
        idle_w: p.idle_w,
        active_overhead_w: p.active_overhead_w,
        gap_overhead_w: p.gap_overhead_w,
        core_v2: cfg.clocks.core_vrel * cfg.clocks.core_vrel,
        mem_v2: cfg.clocks.mem_vrel * cfg.clocks.mem_vrel,
        ecc_energy_factor: if cfg.ecc { ECC_ENERGY_FACTOR } else { 1.0 },
    }
}

/// Map a run's aggregated counters to per-class activity under the
/// flat-DRAM model (every coalesced byte is DRAM traffic, no cache rows).
pub fn class_activity(c: &KernelCounters) -> ClassActivity {
    ClassActivity {
        fp32_add_ops: c.lane_ops[CompClass::Fp32Add.idx()],
        fp32_mul_ops: c.lane_ops[CompClass::Fp32Mul.idx()],
        fp32_fma_ops: c.lane_ops[CompClass::Fp32Fma.idx()],
        fp64_ops: c.lane_ops[CompClass::Fp64.idx()],
        int_ops: c.lane_ops[CompClass::Int.idx()],
        sfu_ops: c.lane_ops[CompClass::Sfu.idx()],
        shared_ops: c.lane_ops[CompClass::Shared.idx()] + c.shared_accesses,
        atomics: c.atomics,
        dram_bytes: c.dram_bytes,
        transactions: c.transactions,
        l1_sectors: 0.0,
        l2_sectors: 0.0,
        barriers: c.barriers,
        idle_lanes: (c.slots * 32.0 - c.active_lanes).max(0.0),
    }
}

/// Map counters to per-class activity under `cfg`'s memory model. Under a
/// cache model the DRAM-side activity shrinks to the missing 32-byte
/// sectors (demand fetches + dirty writebacks) and the hit sectors appear
/// as L1/L2 activity; under [`crate::mem::MemoryModel::FlatDram`] this is
/// exactly [`class_activity`].
pub fn class_activity_for(cfg: &DeviceConfig, c: &KernelCounters) -> ClassActivity {
    let mut a = class_activity(c);
    if cfg.mem_model.cache().is_some() {
        a.dram_bytes = c.dram_transactions * crate::mem::SECTOR_BYTES as f64;
        a.transactions = c.dram_transactions;
        a.l1_sectors = c.l1_hits;
        a.l2_sectors = c.l2_hits;
    }
    a
}

/// Phase durations of a finished run's trace: the fixed lead-in/out and
/// tail windows of [`crate::Device`], plus the measured totals.
pub fn phase_durations(cfg: &DeviceConfig, trace_end_s: f64, kernel_s: f64) -> PhaseDurations {
    PhaseDurations {
        total_s: trace_end_s,
        kernel_s,
        lead_in_s: LEAD_IN_S,
        lead_out_s: LEAD_OUT_S,
        tail_s: cfg.power.tail_s,
        decay_s: TAIL_DECAY_S,
    }
}

/// One-call attribution: split `board_energy_j` (the trace integral of a
/// run under `cfg`) across instruction classes given the run's counters
/// and measured durations.
pub fn attribute_energy(
    cfg: &DeviceConfig,
    counters: &KernelCounters,
    trace_end_s: f64,
    kernel_s: f64,
    board_energy_j: f64,
) -> EnergyBreakdown {
    energy_model(cfg).attribute(
        &class_activity_for(cfg, counters),
        &phase_durations(cfg, trace_end_s, kernel_s),
        board_energy_j,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockCtx;
    use crate::buffer::DevBuffer;
    use crate::config::ClockConfig;
    use crate::device::{Device, LaunchOpts};
    use crate::kernel::Kernel;
    use gpower::EnergyClass;

    struct MixedKernel {
        x: DevBuffer<f32>,
    }

    impl Kernel for MixedKernel {
        fn name(&self) -> &'static str {
            "mixed"
        }
        fn run_block(&self, blk: &mut BlockCtx) {
            let x = self.x;
            blk.for_each_thread(|t| {
                let i = t.gtid() as usize;
                if i < x.len() {
                    let v = t.ld(&x, i);
                    t.fma32(8);
                    t.sfu(1);
                    t.int_op(4);
                    t.st(&x, i, v + 1.0);
                }
            });
        }
    }

    fn run_once(cfg: DeviceConfig) -> (f64, f64, f64, KernelCounters, DeviceConfig) {
        let snapshot = cfg.clone();
        let mut dev = Device::new(cfg);
        let x = dev.alloc_from(&vec![1.0f32; 4096]);
        let k = MixedKernel { x };
        dev.launch_with(
            &k,
            32,
            128,
            LaunchOpts {
                work_multiplier: 1e4,
            },
        );
        let counters = dev.total_counters();
        let kernel_s = dev.kernel_time();
        let (trace, _) = dev.finish();
        (
            trace.total_energy(),
            trace.end_time(),
            kernel_s,
            counters,
            snapshot,
        )
    }

    #[test]
    fn breakdown_reconciles_to_board_integral() {
        let (board, end, kernel_s, counters, cfg) =
            run_once(DeviceConfig::k20c(ClockConfig::k20_default(), false));
        let b = attribute_energy(&cfg, &counters, end, kernel_s, board);
        let sum: f64 = b.rows().map(|(_, j)| j).sum();
        let rel = (sum - board).abs() / board;
        assert!(rel < 1e-12, "rel {rel}");
        // The nominal model explains the run to within the thermal/jitter
        // envelope (±1.2% thermal on dynamic+active overhead, ±0.4% jitter).
        assert!(
            b.unmodeled_frac().abs() < 0.05,
            "unmodeled {}",
            b.unmodeled_frac()
        );
        // The classes this kernel exercises are present.
        assert!(b.class_j(EnergyClass::Fp32) > 0.0);
        assert!(b.class_j(EnergyClass::Sfu) > 0.0);
        assert!(b.class_j(EnergyClass::Int) > 0.0);
        assert!(b.class_j(EnergyClass::LdSt) > 0.0);
        assert!(b.class_j(EnergyClass::Static) > 0.0);
        assert_eq!(b.class_j(EnergyClass::Atomic), 0.0);
        assert_eq!(b.class_j(EnergyClass::Sync), 0.0);
    }

    #[test]
    fn static_power_dominates_an_idle_heavy_run() {
        let (board, end, kernel_s, counters, cfg) =
            run_once(DeviceConfig::k20c(ClockConfig::k20_default(), false));
        let b = attribute_energy(&cfg, &counters, end, kernel_s, board);
        // Lead-in/out alone is 6 s of idle floor; short kernels make the
        // static class the largest.
        assert!(b.class_j(EnergyClass::Static) > board * 0.3);
        assert!(kernel_s < end);
    }

    #[test]
    fn ecc_and_low_voltage_change_the_model_not_the_counters() {
        let base = energy_model(&DeviceConfig::k20c(ClockConfig::k20_default(), false));
        let ecc = energy_model(&DeviceConfig::k20c(ClockConfig::k20_default(), true));
        assert_eq!(base.ecc_energy_factor, 1.0);
        assert_eq!(ecc.ecc_energy_factor, ECC_ENERGY_FACTOR);
        let lo = energy_model(&DeviceConfig::k20c(ClockConfig::k20_324(), false));
        assert!((lo.core_v2 - 0.85 * 0.85).abs() < 1e-12);
        assert!((lo.mem_v2 - 0.85 * 0.85).abs() < 1e-12);
    }

    #[test]
    fn activity_maps_counters_one_to_one() {
        let c = KernelCounters {
            lane_ops: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            shared_accesses: 10.0,
            slots: 4.0,
            active_lanes: 100.0,
            atomics: 9.0,
            dram_bytes: 11.0,
            transactions: 12.0,
            barriers: 13.0,
            ..Default::default()
        };
        let a = class_activity(&c);
        assert_eq!(a.fp32_add_ops, 1.0);
        assert_eq!(a.fp32_mul_ops, 2.0);
        assert_eq!(a.fp32_fma_ops, 3.0);
        assert_eq!(a.fp64_ops, 4.0);
        assert_eq!(a.int_ops, 5.0);
        assert_eq!(a.sfu_ops, 6.0);
        assert_eq!(a.shared_ops, 17.0);
        assert_eq!(a.idle_lanes, 4.0 * 32.0 - 100.0);
        assert_eq!(a.atomics, 9.0);
        assert_eq!(a.dram_bytes, 11.0);
        assert_eq!(a.transactions, 12.0);
        assert_eq!(a.barriers, 13.0);
    }

    #[test]
    fn cached_model_remaps_dram_activity_to_sectors() {
        let c = KernelCounters {
            dram_bytes: 4096.0,
            transactions: 32.0,
            l1_hits: 50.0,
            l2_hits: 20.0,
            dram_transactions: 10.0,
            ..Default::default()
        };
        let flat_cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let flat = class_activity_for(&flat_cfg, &c);
        assert_eq!(flat, class_activity(&c));
        assert_eq!(flat.l1_sectors, 0.0);
        let mut cfg = flat_cfg.clone();
        cfg.mem_model = crate::mem::MemoryModel::Cached(crate::mem::CacheConfig::k20());
        let cached = class_activity_for(&cfg, &c);
        assert_eq!(cached.dram_bytes, 320.0);
        assert_eq!(cached.transactions, 10.0);
        assert_eq!(cached.l1_sectors, 50.0);
        assert_eq!(cached.l2_sectors, 20.0);
        // And the model picks up the cache-hit coefficients.
        let m = energy_model(&cfg);
        assert!(m.e_l1_byte > 0.0 && m.e_l2_byte > 0.0);
        assert_eq!(energy_model(&flat_cfg).e_l1_byte, 0.0);
    }

    #[test]
    fn phase_durations_expose_device_constants() {
        let cfg = DeviceConfig::default();
        let p = phase_durations(&cfg, 20.0, 5.0);
        assert_eq!(p.lead_in_s, LEAD_IN_S);
        assert_eq!(p.lead_out_s, LEAD_OUT_S);
        assert_eq!(p.tail_s, cfg.power.tail_s);
        assert_eq!(p.decay_s, TAIL_DECAY_S);
        // 20 - 3 - 3 - 5 - 2.5 - 0.5
        assert!((p.gap_s() - 6.0).abs() < 1e-12);
    }
}
