//! The fluid (progress-based) block scheduler.
//!
//! A launch's blocks dispatch in the order [`dispatch_order`] draws, each
//! to the least-loaded SM as occupancy slots free up; between scheduler
//! events each SM's issue bandwidth is shared by its resident blocks and
//! the global DRAM bandwidth is shared by all blocks still demanding memory
//! (with a per-block memory-level-parallelism cap so low-occupancy kernels
//! see exposed latency). A block's compute and memory streams drain
//! concurrently — the usual GPU overlap — and the block completes when
//! both are empty and its latency floor has elapsed.
//!
//! The dispatch order is a clock-seeded shuffle fixed before the first
//! block runs; completions decide only which SM each block lands on. Block
//! execution reads neither the RNG nor simulated time, so the device runs
//! a launch's blocks in this order first and then hands the scheduler
//! their costs ([`run_launch_pooled`]). For kernels with intra-launch data
//! sharing (atomics, worklists) the order is what the blocks observe of
//! each other, and it shifts with the clock configuration.

use crate::attribution::ECC_ENERGY_FACTOR;
use crate::config::DeviceConfig;
use crate::cost::BlockCost;
use crate::mem::{arbitrate_l2, XbarScratch};
use gpower::PowerTrace;
use rand::rngs::SmallRng;
use rand::Rng;
use sim_telemetry::{BoardPhase, Event, TelemetrySink};
use std::hint::select_unpredictable;

/// Result of scheduling one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct SchedOutcome {
    /// Kernel duration in simulated seconds.
    pub duration_s: f64,
    /// Board energy over the kernel window, joules (includes static power).
    pub energy_j: f64,
}

/// Declares [`Resident`]: one `Vec` per field, plus the whole-row
/// operations that must touch every column in lockstep.
macro_rules! columns {
    ($(#[$m:meta])* struct $name:ident { $($(#[$fm:meta])* $f:ident: $t:ty,)* }) => {
        $(#[$m])*
        #[derive(Default)]
        struct $name {
            $($(#[$fm])* $f: Vec<$t>,)*
        }

        impl $name {
            fn len(&self) -> usize {
                self.sm.len()
            }

            /// Empty every column and pre-size it for `rows` blocks.
            fn reset(&mut self, rows: usize) {
                $(self.$f.clear(); self.$f.reserve(rows);)*
            }

            /// Retire row `i`: the last row moves into its place, exactly
            /// as `Vec::swap_remove` on a vector of rows would.
            fn swap_remove(&mut self, i: usize) {
                $(self.$f.swap_remove(i);)*
            }

            #[cfg(any(debug_assertions, test))]
            fn caps(&self) -> [usize; [$(stringify!($f)),*].len()] {
                [$(self.$f.capacity()),*]
            }
        }
    };
}

columns! {
    /// The blocks currently resident on some SM, stored column-wise: row
    /// `i` of every column is one block. Dispatch appends a row and retire
    /// swap-removes one, so row order is the resident order every
    /// floating-point sum of the interval loop runs in.
    struct Resident {
        sm: usize,
        /// Logical block index within the grid (for telemetry).
        block: u32,
        comp_rem: f64,
        mem_rem: f64,
        /// L2-hit sector traffic still to drain (bytes). Zero under
        /// [`crate::mem::MemoryModel::FlatDram`], where every coalesced byte
        /// rides the DRAM stream instead.
        l2_rem: f64,
        comp_total: f64,
        mem_total: f64,
        l2_total: f64,
        /// Voltage-scaled joules released in proportion to compute progress.
        comp_energy: f64,
        /// Voltage-scaled joules released in proportion to memory progress.
        mem_energy: f64,
        /// Voltage-scaled joules released in proportion to L2-stream progress
        /// (L1 + L2 hit energy; core-side, so scaled by the core voltage).
        l2_energy: f64,
        /// Earliest completion time (latency floor).
        min_end: f64,
        /// Rates for the current interval.
        rate_c: f64,
        rate_m: f64,
        rate_l2: f64,
    }
}

const EPS: f64 = 1e-9;

/// Reusable scheduler working memory.
///
/// Everything the fluid loop needs per interval — per-SM aggregates, the
/// DRAM rate memo, the telemetry accumulators and the resident-block
/// columns — lives here, so a launch
/// driven through [`run_launch_pooled`] performs **zero heap allocations
/// per scheduling interval** once the launch is set up (a debug assertion
/// in the loop enforces this). A [`crate::device::Device`] owns one and
/// reuses it across every launch of the program run.
#[derive(Default)]
pub struct SchedScratch {
    /// Blocks currently resident on some SM.
    resident: Resident,
    /// Per-SM resident-block count.
    sm_resident: Vec<usize>,
    /// Per-SM resident warps. A block's warp count is integer-valued, so
    /// this f64 sum is exact and can be maintained incrementally on
    /// dispatch and retire without perturbing the per-interval rate math.
    sm_warps: Vec<f64>,
    /// Per-SM count of blocks still draining their compute stream,
    /// maintained incrementally (dispatch: +1, stream drain: -1).
    sm_demand: Vec<u32>,
    /// Per-SM issue rate of each compute-hungry block this interval.
    sm_rate: Vec<f64>,
    /// `level_mask[r]` = bitmask of SMs with exactly `r` resident blocks.
    /// Together with `min_level` this answers "first least-loaded SM" in
    /// O(1) instead of a scan over all SMs per dispatch.
    level_mask: Vec<u64>,
    /// `dram_rate[n]`: the DRAM rate each of `n` demanders receives, or
    /// NaN if not yet computed this launch.
    dram_rate: Vec<f64>,
    /// L2 water-fill demander lists: row indices, their SMs and the
    /// granted rates. Empty every interval under `FlatDram`.
    l2_idx: Vec<usize>,
    l2_sm: Vec<usize>,
    l2_rates: Vec<f64>,
    /// SM↔L2 crossbar arbiter working memory.
    xbar: XbarScratch,
    /// Telemetry per-SM accumulators for the current interval.
    sm_watts: Vec<f64>,
    sm_issue: Vec<f64>,
}

/// The per-block DRAM rate when `demanders` blocks share one MLP `cap`.
///
/// Global DRAM bandwidth is water-filled over the demanding blocks in up
/// to three rounds. All blocks of a launch share one cap, so every
/// demander enters a round with the same rate and takes the same share;
/// each share is subtracted from the remaining bandwidth once per demander
/// (in sequence, as a per-block fill would), and either every demander
/// stays uncapped or none does. The result is bit-identical to the rate
/// each block would receive from a per-block fill (the test module's
/// `reference_run_launch` runs one).
fn shared_cap_rate(demanders: usize, cap: f64, dram_bps: f64) -> f64 {
    let mut remaining = dram_bps;
    let mut rate = 0.0f64;
    let mut uncapped = demanders;
    for _ in 0..3 {
        if uncapped == 0 || remaining <= EPS {
            break;
        }
        let fair = remaining / uncapped as f64;
        let take = fair.min(cap - rate);
        if take <= EPS {
            break;
        }
        rate += take;
        for _ in 0..uncapped {
            remaining -= take;
        }
        uncapped = if rate < cap - EPS { uncapped } else { 0 };
    }
    rate
}

/// A stream's remaining work after an interval, with float residue
/// clamped: a stream within a relative epsilon of empty is empty
/// (otherwise the loop would crawl through rounding leftovers in 1 ns
/// steps).
#[inline]
fn drained_to_zero(rem: f64, total: f64) -> f64 {
    select_unpredictable(rem <= 1e-9 * total + EPS, 0.0, rem)
}

/// `t.min(acc)` for a running minimum `acc` that is never NaN, as one
/// compare: a NaN `t` is skipped either way.
#[inline]
fn earlier(t: f64, acc: f64) -> f64 {
    if t < acc {
        t
    } else {
        acc
    }
}

/// Write into `order` the order in which a launch's `grid` blocks
/// dispatch, for `occupancy` resident blocks per SM.
///
/// On real hardware, blocks that are co-resident interleave
/// nondeterministically and the interleaving shifts with the clock
/// configuration. We model this by shuffling the block order within
/// windows of roughly the co-residency width. The device RNG is seeded
/// from the jitter seed *and* the clock configuration, so changing the
/// frequency genuinely changes the order racy kernels observe — the
/// paper's timing-dependent-irregularity mechanism. The draws come after
/// the launch-overhead draw and before the per-dispatch jitter draws of
/// [`run_launch_pooled`].
pub fn dispatch_order(
    cfg: &DeviceConfig,
    rng: &mut SmallRng,
    grid: u32,
    occupancy: usize,
    order: &mut Vec<u32>,
) {
    let window = (cfg.num_sms * occupancy * 2).max(2);
    order.clear();
    order.extend(0..grid);
    if cfg.interleave_shuffle {
        for chunk in order.chunks_mut(window) {
            for i in (1..chunk.len()).rev() {
                let j = rng.gen_range(0..=i);
                chunk.swap(i, j);
            }
        }
    }
}

/// Run one kernel launch through the fluid model.
///
/// The blocks dispatch in `order` (from [`dispatch_order`], drawn with the
/// same `occupancy`); `costs` holds each block's functional cost, indexed
/// by block. One jitter draw per dispatch is taken from `rng`. Power
/// segments are appended to `trace` starting at its current end time.
///
/// When `telemetry` is attached, the scheduler emits a structured event
/// stream: `BlockDispatch`/`BlockComplete` per block, and per scheduling
/// interval one `SmInterval` per occupied SM (its dynamic watts and issue
/// utilization), one `BoardInterval` with the static/uncore share, and one
/// `DramInterval` (aggregate bandwidth plus `DramContentionOpen`/`Close`
/// edges when ≥2 blocks compete). The per-interval events partition the
/// exact watts pushed into `trace`, so summing their energy reproduces the
/// launch's trace energy. `launch_id` tags every event with the caller's
/// launch ordinal. With `telemetry` `None` the instrumentation reduces to a
/// branch per site.
///
/// `scratch` is caller-owned working memory; reusing one across launches
/// makes the steady-state interval loop allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn run_launch_pooled(
    cfg: &DeviceConfig,
    rng: &mut SmallRng,
    trace: &mut PowerTrace,
    order: &[u32],
    costs: &[BlockCost],
    occupancy: usize,
    work_multiplier: f64,
    launch_id: u32,
    telemetry: Option<&dyn TelemetrySink>,
    scratch: &mut SchedScratch,
) -> SchedOutcome {
    assert!(!order.is_empty(), "grid must have at least one block");
    assert_eq!(costs.len(), order.len(), "one cost per block of the grid");
    assert!(cfg.num_sms <= 64, "the dispatch level masks hold 64 SMs");
    let grid = order.len() as u32;
    let p = &cfg.power;
    let vc2 = cfg.clocks.core_vrel * cfg.clocks.core_vrel;
    let vm2 = cfg.clocks.mem_vrel * cfg.clocks.mem_vrel;
    let core_hz = cfg.clocks.core_hz();
    let dram_bps = cfg.dram_bytes_per_s();
    let dram_lat = cfg.dram_latency();
    let ecc_energy_factor = if cfg.ecc { ECC_ENERGY_FACTOR } else { 1.0 };
    // The caches and the SM↔L2 crossbar live in the *core* clock domain,
    // so the L2 stream's bandwidth scales with the graphics clock:
    // cache-resident codes keep slowing down when the core clock drops,
    // even though they barely touch DRAM.
    let cache_cfg = cfg.mem_model.cache();
    let l2_bps = cache_cfg.map_or(0.0, |cc| cc.l2_bytes_per_core_cycle * core_hz);
    let l2_port_bps = cache_cfg.map_or(0.0, |cc| cc.xbar_port_bytes_per_core_cycle * core_hz);
    // Under FlatDram no block has an L2 stream: every `l2_*` column stays
    // exactly +0.0 (zero energy at zero rate), so the loop skips their
    // updates and their +0.0 power terms — adding +0.0 to the positive
    // interval watts is the identity.
    let has_l2 = cache_cfg.is_some();

    let t_start = trace.end_time();
    let mut now = t_start;
    let mut energy = 0.0f64;
    let mut next_block = 0u32;
    let mut completed = 0u32;

    let slots = cfg.num_sms * occupancy;
    let SchedScratch {
        resident: r,
        sm_resident,
        sm_warps,
        sm_demand,
        sm_rate,
        level_mask,
        dram_rate,
        l2_idx,
        l2_sm,
        l2_rates,
        xbar,
        sm_watts,
        sm_issue,
    } = scratch;
    r.reset(slots);
    sm_resident.clear();
    sm_resident.resize(cfg.num_sms, 0);
    sm_warps.clear();
    sm_warps.resize(cfg.num_sms, 0.0);
    sm_demand.clear();
    sm_demand.resize(cfg.num_sms, 0);
    sm_rate.clear();
    sm_rate.resize(cfg.num_sms, 0.0);
    level_mask.clear();
    level_mask.resize(occupancy + 1, 0);
    level_mask[0] = if cfg.num_sms == 64 {
        u64::MAX
    } else {
        (1u64 << cfg.num_sms) - 1
    };
    // Lowest residency level with a resident SM: the invariant that makes
    // "first least-loaded SM" a trailing_zeros instead of a scan.
    let mut min_level = 0usize;
    dram_rate.clear();
    dram_rate.resize(slots + 1, f64::NAN);
    l2_idx.clear();
    l2_idx.reserve(slots);
    l2_sm.clear();
    l2_sm.reserve(slots);
    l2_rates.clear();
    l2_rates.reserve(slots);
    xbar.reserve(cfg.num_sms, slots);
    sm_watts.clear();
    sm_watts.resize(cfg.num_sms, 0.0);
    sm_issue.clear();
    sm_issue.resize(cfg.num_sms, 0.0);

    let mut dram_contended = false;
    // Blocks with an undrained memory stream, maintained incrementally.
    let mut mem_demanders = 0u32;
    // The warp count every block of the launch shares (its block width in
    // warps), hence one MLP cap for all of them: set by the first dispatch.
    let mut launch_warps = 0.0f64;

    #[cfg(debug_assertions)]
    macro_rules! scratch_caps {
        () => {
            (
                r.caps(),
                (
                    sm_resident.capacity(),
                    sm_warps.capacity(),
                    sm_demand.capacity(),
                    sm_rate.capacity(),
                    level_mask.capacity(),
                    dram_rate.capacity(),
                    sm_watts.capacity(),
                    sm_issue.capacity(),
                ),
                (
                    l2_idx.capacity(),
                    l2_sm.capacity(),
                    l2_rates.capacity(),
                    xbar.caps(),
                ),
            )
        };
    }
    #[cfg(debug_assertions)]
    let caps0 = scratch_caps!();

    while completed < grid {
        // Dispatch while there are free occupancy slots, always to the
        // lowest-numbered least-loaded SM (the level masks track the
        // residency histogram so this needs no per-dispatch scan).
        while next_block < grid {
            if min_level >= occupancy {
                break;
            }
            let sm = level_mask[min_level].trailing_zeros() as usize;
            let block = order[next_block as usize];
            let cost = &costs[block as usize];
            let jitter = 1.0 + cfg.jitter * (rng.gen::<f64>() - 0.5) * 2.0;
            let mult = work_multiplier * jitter;
            let comp = (cost.issue_cycles * mult).max(100.0);
            // Tier split: under FlatDram every coalesced byte rides the
            // DRAM stream (the pre-cache model, verbatim); under a cache
            // model the DRAM stream shrinks to the missing sectors and the
            // L2 hits form a second, core-clocked stream.
            let (mem, l2, floor, mem_energy, l2_energy) = match cache_cfg {
                None => (
                    cost.dram_bytes_with_ecc(cfg) * mult,
                    0.0,
                    if cost.transactions > 0 { dram_lat } else { 0.0 } + 0.5e-6,
                    cost.mem_energy(p) * mult * vm2 * ecc_energy_factor,
                    0.0,
                ),
                Some(cc) => (
                    cost.cached_dram_bytes(cfg) * mult,
                    cost.l2_hits as f64 * crate::mem::SECTOR_BYTES as f64 * mult,
                    if cost.dram_transactions > 0 {
                        dram_lat
                    } else if cost.l2_hits > 0 {
                        cc.l2_latency_s
                    } else {
                        0.0
                    } + 0.5e-6,
                    cost.cached_dram_energy(p) * mult * vm2 * ecc_energy_factor,
                    (cost.l1_energy(cc) + cost.l2_energy(cc)) * mult * vc2,
                ),
            };
            let warps = cost.warps.max(1) as f64;
            if next_block == 0 {
                launch_warps = warps;
            }
            assert!(
                warps == launch_warps,
                "blocks of one launch must share a warp count"
            );
            let comp_energy = cost.comp_energy(p) * mult * vc2;
            let (mem_total, l2_total) = (mem.max(EPS), l2.max(EPS));
            r.sm.push(sm);
            r.block.push(block);
            r.comp_rem.push(comp);
            r.mem_rem.push(mem);
            r.l2_rem.push(l2);
            r.comp_total.push(comp);
            r.mem_total.push(mem_total);
            r.l2_total.push(l2_total);
            r.comp_energy.push(comp_energy);
            r.mem_energy.push(mem_energy);
            r.l2_energy.push(l2_energy);
            r.min_end.push(now + floor);
            r.rate_c.push(0.0);
            r.rate_m.push(0.0);
            r.rate_l2.push(0.0);
            // The occupancy slot the block lands in is the SM's residency
            // *before* this dispatch.
            let slot = sm_resident[sm];
            let bit = 1u64 << sm;
            level_mask[min_level] &= !bit;
            level_mask[min_level + 1] |= bit;
            sm_resident[sm] = slot + 1;
            if level_mask[min_level] == 0 {
                // This SM was (one of) the last at the minimum level and
                // just moved up one: the new minimum is exactly one higher.
                min_level += 1;
            }
            sm_warps[sm] += warps;
            // `comp` is clamped to >= 100 cycles, so a fresh block always
            // demands compute.
            sm_demand[sm] += 1;
            if mem > EPS {
                mem_demanders += 1;
            }
            next_block += 1;
            if let Some(sink) = telemetry {
                sink.record(Event::BlockDispatch {
                    t: now,
                    launch: launch_id,
                    block,
                    sm: sm as u16,
                    slot: slot as u16,
                });
            }
        }
        let n = r.len();

        // Rates for this interval.
        // Compute: each SM's issue bandwidth, derated when too few warps
        // are resident to hide latency, shared among its compute-hungry
        // blocks — one rate per SM, which the row pass below hands to each
        // of its blocks. The per-SM warp/demand aggregates are maintained
        // incrementally on dispatch/retire/stream-drain.
        for s in 0..cfg.num_sms {
            if sm_demand[s] > 0 {
                let eff = (sm_warps[s] / cfg.latency_hiding_warps).min(1.0);
                sm_rate[s] = core_hz * eff / sm_demand[s] as f64;
            }
        }
        // Memory: global DRAM bandwidth water-filled over demanding blocks,
        // each capped by its memory-level parallelism. The caps are shared,
        // so every demander gets the same rate, a function of the demander
        // count alone (see `shared_cap_rate`).
        debug_assert_eq!(
            mem_demanders as usize,
            r.mem_rem.iter().filter(|&&m| m > EPS).count()
        );
        let demanders = mem_demanders as usize;
        if dram_rate[demanders].is_nan() {
            let cap = launch_warps * cfg.mlp_per_warp * 128.0 / dram_lat;
            dram_rate[demanders] = shared_cap_rate(demanders, cap, dram_bps);
        }
        let dram_share = dram_rate[demanders];
        // L2: aggregate cache bandwidth water-filled over demanding
        // blocks, each capped by its SM's crossbar port share.
        if has_l2 {
            l2_idx.clear();
            l2_sm.clear();
            for i in 0..n {
                r.rate_l2[i] = 0.0;
                if r.l2_rem[i] > EPS {
                    l2_idx.push(i);
                    l2_sm.push(r.sm[i]);
                }
            }
            l2_rates.clear();
            l2_rates.resize(l2_idx.len(), 0.0);
            arbitrate_l2(l2_sm, l2_rates, cfg.num_sms, l2_bps, l2_port_bps, xbar);
            for (k, &i) in l2_idx.iter().enumerate() {
                r.rate_l2[i] = l2_rates[k];
            }
        }

        // Rates, time to the next event and power over this interval, in
        // one pass over the rows. Each block takes its SM's issue rate
        // while it still computes, and the shared DRAM rate while it still
        // moves memory. The watts are summed in resident order, stream by
        // stream; the minimum over the candidate event times is exact in
        // any order.
        // Which way a row's conditions go is data-dependent, so the loop
        // selects instead of branching.
        let mut dt = f64::INFINITY;
        // With one DRAM rate for every demander, the earliest memory drain
        // is the smallest remaining stream over that rate: correctly
        // rounded division by a positive rate is monotone, so this is
        // exactly the minimum of the per-block quotients.
        let mut next_mem = f64::INFINITY;
        let mut watts = p.idle_w + p.active_overhead_w * vc2;
        {
            let (sm, min_end) = (&r.sm[..n], &r.min_end[..n]);
            let (comp_rem, mem_rem, l2_rem) = (&r.comp_rem[..n], &r.mem_rem[..n], &r.l2_rem[..n]);
            let (rate_c, rate_m, rate_l2) =
                (&mut r.rate_c[..n], &mut r.rate_m[..n], &r.rate_l2[..n]);
            let (comp_total, mem_total, l2_total) =
                (&r.comp_total[..n], &r.mem_total[..n], &r.l2_total[..n]);
            let (comp_energy, mem_energy, l2_energy) =
                (&r.comp_energy[..n], &r.mem_energy[..n], &r.l2_energy[..n]);
            for i in 0..n {
                let (c, m, l) = (comp_rem[i], mem_rem[i], l2_rem[i]);
                let rc = select_unpredictable(c > EPS, sm_rate[sm[i]], 0.0);
                rate_c[i] = rc;
                let rm = select_unpredictable(m > EPS, dram_share, 0.0);
                rate_m[i] = rm;
                let rl = rate_l2[i];
                // A rate is nonzero only while its stream is undrained, so
                // `rate > EPS` alone selects the draining streams.
                dt = earlier(select_unpredictable(rc > EPS, c / rc, f64::INFINITY), dt);
                next_mem = earlier(select_unpredictable(rm > EPS, m, f64::INFINITY), next_mem);
                if has_l2 {
                    dt = earlier(select_unpredictable(rl > EPS, l / rl, f64::INFINITY), dt);
                }
                // Once every stream is empty a block waits on its floor.
                let waiting = (c <= EPS) & (m <= EPS) & (l <= EPS) & (min_end[i] > now);
                dt = earlier(
                    select_unpredictable(waiting, min_end[i] - now, f64::INFINITY),
                    dt,
                );
                watts += comp_energy[i] * (rc / comp_total[i].max(EPS));
                watts += mem_energy[i] * (rm / mem_total[i]);
                if has_l2 {
                    watts += l2_energy[i] * (rl / l2_total[i]);
                }
            }
        }
        if next_mem.is_finite() {
            dt = earlier(next_mem / dram_share, dt);
        }
        if !dt.is_finite() {
            // Nothing is draining and no latency floor lies ahead of
            // `now`. The only legitimate way here is floors that rounding
            // left marginally in the past, so jump straight to the
            // furthest one and let its blocks retire this interval —
            // instead of crawling toward it in fixed 1e-7 steps. A block
            // that still has stream work but zero rate would spin forever;
            // fail loudly instead.
            assert!(
                !(0..n).any(|i| r.comp_rem[i] > EPS || r.mem_rem[i] > EPS || r.l2_rem[i] > EPS),
                "scheduler stall: active block has stream work but zero rate \
                 (is mlp_per_warp, the L2 bandwidth or the issue rate zero?)"
            );
            let horizon = r.min_end.iter().copied().fold(now, f64::max);
            dt = horizon - now;
        }
        let dt = dt.max(1e-9);

        if let Some(sink) = telemetry {
            // The interval events partition `watts`: the BoardInterval
            // carries the static/uncore share and each occupied SM carries
            // its blocks' dynamic share, so Σ interval energies == the
            // energy pushed into the trace.
            sink.record(Event::BoardInterval {
                t0: now,
                t1: now + dt,
                watts: p.idle_w + p.active_overhead_w * vc2,
                phase: BoardPhase::KernelStatic,
            });
            sm_watts.fill(0.0);
            sm_issue.fill(0.0);
            for i in 0..n {
                sm_watts[r.sm[i]] += r.comp_energy[i] * (r.rate_c[i] / r.comp_total[i].max(EPS))
                    + r.mem_energy[i] * (r.rate_m[i] / r.mem_total[i])
                    + r.l2_energy[i] * (r.rate_l2[i] / r.l2_total[i]);
                sm_issue[r.sm[i]] += r.rate_c[i] / core_hz;
            }
            for s in 0..cfg.num_sms {
                if sm_resident[s] > 0 {
                    sink.record(Event::SmInterval {
                        t0: now,
                        t1: now + dt,
                        sm: s as u16,
                        watts: sm_watts[s],
                        issue_frac: sm_issue[s].min(1.0),
                        resident: sm_resident[s] as u16,
                    });
                }
            }
            let bytes_per_s: f64 = r.rate_m.iter().copied().sum();
            let demanders = mem_demanders as u16;
            sink.record(Event::DramInterval {
                t0: now,
                t1: now + dt,
                bytes_per_s,
                demanders,
            });
            if demanders >= 2 && !dram_contended {
                dram_contended = true;
                sink.record(Event::DramContentionOpen { t: now, demanders });
            } else if demanders < 2 && dram_contended {
                dram_contended = false;
                sink.record(Event::DramContentionClose { t: now });
            }
        }

        trace.push(dt, watts);
        energy += watts * dt;
        now += dt;

        // Advance progress. Stream drains update the per-SM aggregates in
        // place; blocks that completed are counted here and retired below.
        let mut retiring = 0u32;
        {
            let (sm, min_end) = (&r.sm[..n], &r.min_end[..n]);
            let (comp_total, mem_total, l2_total) =
                (&r.comp_total[..n], &r.mem_total[..n], &r.l2_total[..n]);
            let (rate_c, rate_m, rate_l2) = (&r.rate_c[..n], &r.rate_m[..n], &r.rate_l2[..n]);
            let (comp_rem, mem_rem, l2_rem) = (
                &mut r.comp_rem[..n],
                &mut r.mem_rem[..n],
                &mut r.l2_rem[..n],
            );
            let demand = &mut sm_demand[..];
            let mut mem_drained = 0u32;
            for i in 0..n {
                let (c0, m0) = (comp_rem[i], mem_rem[i]);
                let c = drained_to_zero(c0 - rate_c[i] * dt, comp_total[i]);
                let m = drained_to_zero(m0 - rate_m[i] * dt, mem_total[i]);
                comp_rem[i] = c;
                mem_rem[i] = m;
                if has_l2 {
                    l2_rem[i] = drained_to_zero(l2_rem[i] - rate_l2[i] * dt, l2_total[i]);
                }
                let l = l2_rem[i];
                demand[sm[i]] -= ((c0 > EPS) & (c <= EPS)) as u32;
                mem_drained += ((m0 > EPS) & (m <= EPS)) as u32;
                let done = (c <= EPS) & (m <= EPS) & (l <= EPS) & (now + 1e-12 >= min_end[i]);
                retiring += done as u32;
            }
            mem_demanders -= mem_drained;
        }
        // Retire completed blocks by swap-remove in one scan: the row
        // moved into a freed slot is examined next, so blocks retire in
        // exactly the order of an advance-and-retire scan.
        let mut i = 0;
        while retiring > 0 {
            let done = r.comp_rem[i] <= EPS
                && r.mem_rem[i] <= EPS
                && r.l2_rem[i] <= EPS
                && now + 1e-12 >= r.min_end[i];
            if done {
                let sm = r.sm[i];
                let res = sm_resident[sm];
                let bit = 1u64 << sm;
                level_mask[res] &= !bit;
                level_mask[res - 1] |= bit;
                sm_resident[sm] = res - 1;
                if res - 1 < min_level {
                    min_level = res - 1;
                }
                sm_warps[sm] -= launch_warps;
                if let Some(sink) = telemetry {
                    sink.record(Event::BlockComplete {
                        t: now,
                        launch: launch_id,
                        block: r.block[i],
                        sm: sm as u16,
                    });
                }
                r.swap_remove(i);
                completed += 1;
                retiring -= 1;
            } else {
                i += 1;
            }
        }

        // The tentpole invariant: once a launch is set up, the interval
        // loop must not grow (= reallocate) any scratch vector.
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            scratch_caps!(),
            caps0,
            "scheduler interval allocated: a scratch vector grew"
        );
    }

    if dram_contended {
        if let Some(sink) = telemetry {
            sink.record(Event::DramContentionClose { t: now });
        }
    }

    SchedOutcome {
        duration_s: now - t_start,
        energy_j: energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClockConfig;
    use crate::kernel::KernelResources;
    use crate::occupancy::resident_blocks;
    use crate::ops::CompClass;
    use rand::SeedableRng;

    /// Schedule a launch whose costs come from `cost`, called once per
    /// block in dispatch order: the device's sequence of
    /// [`dispatch_order`], the cost slice and [`run_launch_pooled`] on a
    /// fresh scratch.
    #[allow(clippy::too_many_arguments)]
    fn run_with_cost_fn(
        cfg: &DeviceConfig,
        rng: &mut SmallRng,
        trace: &mut PowerTrace,
        grid: u32,
        block_threads: u32,
        resources: &KernelResources,
        work_multiplier: f64,
        launch_id: u32,
        telemetry: Option<&dyn TelemetrySink>,
        mut cost: impl FnMut(u32) -> BlockCost,
    ) -> SchedOutcome {
        let occupancy = resident_blocks(cfg, block_threads, resources);
        let mut order = Vec::new();
        dispatch_order(cfg, rng, grid, occupancy, &mut order);
        let mut costs = vec![BlockCost::default(); grid as usize];
        for &b in &order {
            costs[b as usize] = cost(b);
        }
        run_launch_pooled(
            cfg,
            rng,
            trace,
            &order,
            &costs,
            occupancy,
            work_multiplier,
            launch_id,
            telemetry,
            &mut SchedScratch::default(),
        )
    }

    fn compute_block(fma_lane_ops: u64) -> BlockCost {
        let mut c = BlockCost {
            threads: 256,
            warps: 8,
            slots: fma_lane_ops / 32,
            active_lanes: fma_lane_ops,
            ..BlockCost::default()
        };
        c.lane_ops[CompClass::Fp32Fma.idx()] = fma_lane_ops;
        c.issue_cycles = (fma_lane_ops / 32) as f64 * CompClass::Fp32Fma.cycles_per_warp_op();
        c
    }

    fn memory_block(bytes: f64) -> BlockCost {
        BlockCost {
            threads: 256,
            warps: 8,
            dram_bytes: bytes,
            useful_bytes: bytes,
            transactions: (bytes / 128.0) as u64,
            ideal_transactions: (bytes / 128.0) as u64,
            issue_cycles: bytes / 128.0 * 0.5,
            ..BlockCost::default()
        }
    }

    fn sched(cfg: &DeviceConfig, grid: u32, cost: BlockCost) -> SchedOutcome {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut trace = PowerTrace::new();
        let mut c = cfg.clone();
        c.jitter = 0.0;
        run_with_cost_fn(
            &c,
            &mut rng,
            &mut trace,
            grid,
            256,
            &KernelResources::default(),
            1.0,
            0,
            None,
            |_| cost,
        )
    }

    #[test]
    fn compute_bound_scales_with_core_clock() {
        let hi = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let lo = DeviceConfig::k20c(ClockConfig::k20_614(), false);
        let block = compute_block(4_000_000);
        let t_hi = sched(&hi, 260, block).duration_s;
        let t_lo = sched(&lo, 260, block).duration_s;
        let ratio = t_lo / t_hi;
        assert!((ratio - 705.0 / 614.0).abs() < 0.03, "ratio {ratio}");
    }

    /// A block whose traffic is (almost) all L2 hits: the DRAM stream is
    /// empty, the L2 stream dominates both compute and the latency floor.
    fn cache_resident_block(l2_hits: u64) -> BlockCost {
        BlockCost {
            threads: 256,
            warps: 8,
            transactions: l2_hits / 4,
            ideal_transactions: l2_hits / 4,
            l2_hits,
            issue_cycles: l2_hits as f64 * 0.1,
            ..BlockCost::default()
        }
    }

    fn cached(clocks: ClockConfig) -> DeviceConfig {
        let mut cfg = DeviceConfig::k20c(clocks, false);
        cfg.mem_model = crate::mem::MemoryModel::Cached(crate::mem::CacheConfig::k20());
        cfg
    }

    #[test]
    fn cache_resident_workload_scales_with_core_clock() {
        // The tentpole timing claim: the L2 stream lives in the core clock
        // domain, so a cache-resident workload keeps scaling with the
        // graphics clock even though it barely touches DRAM — unlike the
        // flat-DRAM memory-bound case below, which ignores the core clock.
        let hi = cached(ClockConfig::k20_default());
        let lo = cached(ClockConfig::k20_614());
        let block = cache_resident_block(2_000_000);
        let t_hi = sched(&hi, 260, block).duration_s;
        let t_lo = sched(&lo, 260, block).duration_s;
        let ratio = t_lo / t_hi;
        assert!((ratio - 705.0 / 614.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn cached_dram_stream_still_ignores_core_clock() {
        // Under the cache model a workload whose sectors all miss to DRAM
        // behaves like the flat memory-bound case: core clock irrelevant.
        let hi = cached(ClockConfig::k20_default());
        let lo = cached(ClockConfig::k20_614());
        let mut block = memory_block(40_000_000.0);
        block.dram_transactions = (40_000_000.0 / 32.0) as u64;
        let t_hi = sched(&hi, 260, block).duration_s;
        let t_lo = sched(&lo, 260, block).duration_s;
        let ratio = t_lo / t_hi;
        assert!(ratio < 1.05, "ratio {ratio}");
    }

    #[test]
    fn memory_bound_ignores_core_clock() {
        let hi = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let lo = DeviceConfig::k20c(ClockConfig::k20_614(), false);
        let block = memory_block(40_000_000.0);
        let t_hi = sched(&hi, 260, block).duration_s;
        let t_lo = sched(&lo, 260, block).duration_s;
        let ratio = t_lo / t_hi;
        assert!(ratio < 1.05, "ratio {ratio}");
    }

    #[test]
    fn memory_bound_scales_with_mem_clock() {
        let hi = DeviceConfig::k20c(ClockConfig::k20_614(), false);
        let lo = DeviceConfig::k20c(ClockConfig::k20_324(), false);
        let block = memory_block(40_000_000.0);
        let t_hi = sched(&hi, 260, block).duration_s;
        let t_lo = sched(&lo, 260, block).duration_s;
        let ratio = t_lo / t_hi;
        assert!(ratio > 6.0 && ratio < 8.5, "ratio {ratio}");
    }

    #[test]
    fn ecc_slows_memory_bound_only() {
        let off = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let on = DeviceConfig::k20c(ClockConfig::k20_default(), true);
        let mem = memory_block(40_000_000.0);
        let ratio_mem = sched(&on, 260, mem).duration_s / sched(&off, 260, mem).duration_s;
        assert!(ratio_mem > 1.1, "mem ratio {ratio_mem}");
        let comp = compute_block(4_000_000);
        let ratio_comp = sched(&on, 260, comp).duration_s / sched(&off, 260, comp).duration_s;
        assert!(ratio_comp < 1.02, "comp ratio {ratio_comp}");
    }

    #[test]
    fn lower_clocks_lower_power() {
        let configs = [
            ClockConfig::k20_default(),
            ClockConfig::k20_614(),
            ClockConfig::k20_324(),
        ];
        let block = compute_block(4_000_000);
        let mut powers = Vec::new();
        for c in configs {
            let cfg = DeviceConfig::k20c(c, false);
            let o = sched(&cfg, 260, block);
            powers.push(o.energy_j / o.duration_s);
        }
        assert!(powers[0] > powers[1], "{powers:?}");
        assert!(powers[1] > powers[2], "{powers:?}");
    }

    #[test]
    fn compute_bound_power_drop_exceeds_frequency_drop() {
        // Paper observation 3: with voltage scaling, power reductions on
        // compute-bound codes can exceed the core-frequency reduction.
        let hi = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let lo = DeviceConfig::k20c(ClockConfig::k20_614(), false);
        let block = compute_block(8_000_000);
        let a = sched(&hi, 260, block);
        let b = sched(&lo, 260, block);
        let power_ratio = (b.energy_j / b.duration_s) / (a.energy_j / a.duration_s);
        assert!(
            power_ratio < 614.0 / 705.0 + 0.02,
            "power ratio {power_ratio}"
        );
    }

    #[test]
    fn low_occupancy_cannot_saturate_dram() {
        // A single resident block is limited by its memory-level
        // parallelism: its achieved bandwidth must stay far below the
        // device peak, while a full grid gets close to it.
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let block = memory_block(1_000_000.0);
        let one = sched(&cfg, 1, block);
        let bw_one = 1_000_000.0 / one.duration_s;
        assert!(bw_one < 0.2 * cfg.dram_bytes_per_s(), "bw {bw_one:.3e}");
        let many = sched(&cfg, 2080, block);
        let bw_many = 2080.0 * 1_000_000.0 / many.duration_s;
        assert!(bw_many > 0.8 * cfg.dram_bytes_per_s(), "bw {bw_many:.3e}");
    }

    #[test]
    fn duration_positive_and_energy_consistent() {
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let o = sched(&cfg, 13, compute_block(100_000));
        assert!(o.duration_s > 0.0);
        assert!(o.energy_j > 0.0);
        // Average power must exceed idle and stay below board TDP.
        let avg = o.energy_j / o.duration_s;
        assert!(avg > cfg.power.idle_w && avg < 250.0, "avg {avg}");
    }

    #[test]
    fn trace_end_advances_by_duration() {
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut trace = PowerTrace::new();
        trace.push(1.0, 25.0);
        let o = run_with_cost_fn(
            &cfg,
            &mut rng,
            &mut trace,
            26,
            256,
            &KernelResources::default(),
            1.0,
            0,
            None,
            |_| compute_block(1_000_000),
        );
        assert!((trace.end_time() - (1.0 + o.duration_s)).abs() < 1e-9);
    }

    #[test]
    fn dispatch_order_is_a_window_shuffled_permutation() {
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut trace = PowerTrace::new();
        let mut order = Vec::new();
        run_with_cost_fn(
            &cfg,
            &mut rng,
            &mut trace,
            64,
            256,
            &KernelResources::default(),
            1.0,
            0,
            None,
            |i| {
                order.push(i);
                compute_block(10_000)
            },
        );
        // Every block executes exactly once.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        // And co-resident interleaving means it is (almost surely) not the
        // identity permutation.
        assert_ne!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn dispatch_order_depends_on_rng_seed() {
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let collect = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut trace = PowerTrace::new();
            let mut order = Vec::new();
            run_with_cost_fn(
                &cfg,
                &mut rng,
                &mut trace,
                64,
                256,
                &KernelResources::default(),
                1.0,
                0,
                None,
                |i| {
                    order.push(i);
                    compute_block(10_000)
                },
            );
            order
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn telemetry_intervals_reconcile_with_launch_energy() {
        use sim_telemetry::{build_timeline, EventTrace};
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let sink = EventTrace::with_capacity(1 << 20);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut trace = PowerTrace::new();
        let o = run_with_cost_fn(
            &cfg,
            &mut rng,
            &mut trace,
            130,
            256,
            &KernelResources::default(),
            1.0,
            3,
            Some(&sink),
            |i| {
                if i % 2 == 0 {
                    compute_block(500_000)
                } else {
                    memory_block(2_000_000.0)
                }
            },
        );
        let events = sink.take();
        assert_eq!(sink.dropped(), 0);
        let tl = build_timeline(&events);
        // The interval events partition the trace watts exactly.
        let rel = (tl.total_energy_j() - o.energy_j).abs() / o.energy_j;
        assert!(
            rel < 1e-9,
            "timeline {} vs outcome {}",
            tl.total_energy_j(),
            o.energy_j
        );
        // Every block dispatched and completed once, tagged with our launch id.
        use sim_telemetry::Event;
        let dispatches = events
            .iter()
            .filter(|e| matches!(e, Event::BlockDispatch { launch: 3, .. }))
            .count();
        let completions = events
            .iter()
            .filter(|e| matches!(e, Event::BlockComplete { launch: 3, .. }))
            .count();
        assert_eq!(dispatches, 130);
        assert_eq!(completions, 130);
        // Issue utilization stays within [0, 1] on every lane.
        for lane in &tl.sms {
            for seg in &lane.segments {
                assert!((0.0..=1.0).contains(&seg.issue_frac), "{seg:?}");
            }
        }
        // Memory blocks compete for DRAM: contention must have been seen.
        assert!(tl.contention_s > 0.0);
    }

    #[test]
    fn telemetry_does_not_perturb_the_simulation() {
        use sim_telemetry::EventTrace;
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let run = |sink: Option<&dyn sim_telemetry::TelemetrySink>| {
            let mut rng = SmallRng::seed_from_u64(5);
            let mut trace = PowerTrace::new();
            let o = run_with_cost_fn(
                &cfg,
                &mut rng,
                &mut trace,
                64,
                256,
                &KernelResources::default(),
                1.0,
                0,
                sink,
                |_| compute_block(1_000_000),
            );
            (o.duration_s, o.energy_j, trace.end_time())
        };
        let silent = run(None);
        let recorder = EventTrace::with_capacity(1 << 16);
        let observed = run(Some(&recorder));
        assert_eq!(silent, observed);
        assert!(!recorder.is_empty());
    }

    #[test]
    fn dispatch_records_the_occupied_slot() {
        use sim_telemetry::EventTrace;
        // 26 blocks over 13 SMs, all dispatched before any completes: each
        // SM receives exactly two blocks, into slots 0 then 1.
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let sink = EventTrace::with_capacity(1 << 16);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut trace = PowerTrace::new();
        run_with_cost_fn(
            &cfg,
            &mut rng,
            &mut trace,
            26,
            256,
            &KernelResources::default(),
            1.0,
            0,
            Some(&sink),
            |_| compute_block(100_000),
        );
        let mut per_sm: Vec<Vec<u16>> = vec![Vec::new(); cfg.num_sms];
        for e in sink.take() {
            if let Event::BlockDispatch { sm, slot, .. } = e {
                per_sm[sm as usize].push(slot);
            }
        }
        for (sm, slots) in per_sm.iter().enumerate() {
            assert_eq!(slots, &[0, 1], "sm {sm} got slots {slots:?}");
        }
    }

    #[test]
    fn latency_floor_grid_completes_without_crawling() {
        use sim_telemetry::EventTrace;
        // Blocks with no memory traffic to drain but a (huge) DRAM latency
        // floor: the scheduler must jump across the floor in one interval,
        // never crawl toward it in fixed sub-floor steps.
        let mut cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        cfg.jitter = 0.0;
        cfg.dram_latency_s = 5e-3; // 50_000x a 1e-7 crawl step
        let cost = BlockCost {
            threads: 256,
            warps: 8,
            transactions: 1, // arms the latency floor
            ..BlockCost::default()
        };
        let sink = EventTrace::with_capacity(1 << 16);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut trace = PowerTrace::new();
        let o = run_with_cost_fn(
            &cfg,
            &mut rng,
            &mut trace,
            26,
            256,
            &KernelResources::default(),
            1.0,
            0,
            Some(&sink),
            |_| cost,
        );
        assert!(o.duration_s >= cfg.dram_latency());
        let intervals = sink
            .take()
            .iter()
            .filter(|e| matches!(e, Event::BoardInterval { .. }))
            .count();
        assert!(intervals < 20, "floor wait took {intervals} intervals");
    }

    #[test]
    #[should_panic(expected = "scheduler stall")]
    fn zero_rate_stall_fails_loudly_instead_of_spinning() {
        // With no memory-level parallelism a memory stream can never
        // drain. The old fallback crawled forever in 1e-7 steps; now the
        // scheduler detects the stall.
        let mut cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        cfg.jitter = 0.0;
        cfg.mlp_per_warp = 0.0;
        sched(&cfg, 4, memory_block(1_000_000.0));
    }

    #[test]
    #[should_panic(expected = "share a warp count")]
    fn blocks_with_differing_warp_counts_are_rejected() {
        // Every block of a launch has the launch's width in warps, so all
        // share one MLP cap; a block that disagrees is a caller bug.
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let mut rng = SmallRng::seed_from_u64(1);
        run_with_cost_fn(
            &cfg,
            &mut rng,
            &mut PowerTrace::new(),
            4,
            256,
            &KernelResources::default(),
            1.0,
            0,
            None,
            |i| BlockCost {
                warps: 8 + i,
                ..memory_block(1_000_000.0)
            },
        );
    }

    #[test]
    fn pooled_scratch_matches_fresh_and_stops_growing() {
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let occupancy = resident_blocks(&cfg, 256, &KernelResources::default());
        let costs: Vec<BlockCost> = (0..130)
            .map(|i| {
                if i % 2 == 0 {
                    compute_block(500_000)
                } else {
                    memory_block(2_000_000.0)
                }
            })
            .collect();
        let run = |scratch: &mut SchedScratch| {
            let mut rng = SmallRng::seed_from_u64(9);
            let mut trace = PowerTrace::new();
            let mut order = Vec::new();
            dispatch_order(&cfg, &mut rng, 130, occupancy, &mut order);
            let o = run_launch_pooled(
                &cfg, &mut rng, &mut trace, &order, &costs, occupancy, 1.0, 0, None, scratch,
            );
            (o.duration_s, o.energy_j, trace.end_time())
        };
        let mut pooled = SchedScratch::default();
        let first = run(&mut pooled);
        let caps = (pooled.resident.caps(), pooled.dram_rate.capacity());
        // Re-running on warm scratch is bit-identical to the first (fresh)
        // run and allocates nothing new.
        let second = run(&mut pooled);
        assert_eq!(first, second);
        assert_eq!(caps, (pooled.resident.caps(), pooled.dram_rate.capacity()));
    }

    #[test]
    fn work_multiplier_scales_duration_linearly() {
        let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        let block = memory_block(1_000_000.0);
        let t1 = sched_mult(&cfg, block, 1.0);
        let t10 = sched_mult(&cfg, block, 10.0);
        let ratio = t10 / t1;
        assert!((ratio - 10.0).abs() < 1.0, "ratio {ratio}");
    }

    fn sched_mult(cfg: &DeviceConfig, cost: BlockCost, mult: f64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut trace = PowerTrace::new();
        let mut c = cfg.clone();
        c.jitter = 0.0;
        run_with_cost_fn(
            &c,
            &mut rng,
            &mut trace,
            260,
            256,
            &KernelResources::default(),
            mult,
            0,
            None,
            |_| cost,
        )
        .duration_s
    }

    /// The columnar interval loop against the row-per-block loop it
    /// replaced.
    mod oracle {
        use super::*;
        use proptest::prelude::*;

        struct Active {
            sm: usize,
            /// Logical block index within the grid (for telemetry).
            block: u32,
            comp_rem: f64,
            mem_rem: f64,
            /// L2-hit sector traffic still to drain (bytes). Zero under
            /// [`crate::mem::MemoryModel::FlatDram`], where every coalesced byte
            /// rides the DRAM stream instead.
            l2_rem: f64,
            comp_total: f64,
            mem_total: f64,
            l2_total: f64,
            /// Voltage-scaled joules released in proportion to compute progress.
            comp_energy: f64,
            /// Voltage-scaled joules released in proportion to memory progress.
            mem_energy: f64,
            /// Voltage-scaled joules released in proportion to L2-stream progress
            /// (L1 + L2 hit energy; core-side, so scaled by the core voltage).
            l2_energy: f64,
            /// Earliest completion time (latency floor).
            min_end: f64,
            warps: f64,
            /// Scratch: rates for the current interval.
            rate_c: f64,
            rate_m: f64,
            rate_l2: f64,
        }

        /// The working memory of [`reference_run_launch`]: the scratch layout
        /// the row-per-block loop was written against.
        #[derive(Default)]
        struct RefScratch {
            /// Blocks currently resident on some SM.
            active: Vec<Active>,
            /// Per-SM resident-block count.
            sm_resident: Vec<usize>,
            /// Per-SM resident warps. `Active::warps` is integer-valued, so this
            /// f64 sum is exact and can be maintained incrementally on dispatch
            /// and retire without perturbing the per-interval rate math.
            sm_warps: Vec<f64>,
            /// Per-SM count of blocks still draining their compute stream,
            /// maintained incrementally (dispatch: +1, stream drain: -1).
            sm_demand: Vec<u32>,
            /// `level_mask[r]` = bitmask of SMs with exactly `r` resident blocks.
            /// Together with `min_level` this answers "first least-loaded SM" in
            /// O(1) instead of a scan over all SMs per dispatch.
            level_mask: Vec<u64>,
            /// Water-filling worklists (indices into `active`).
            uncapped: Vec<usize>,
            next_uncapped: Vec<usize>,
            /// L2 water-fill demander lists: indices into `active`, their SMs and
            /// the granted rates. Empty every interval under `FlatDram`.
            l2_idx: Vec<usize>,
            l2_sm: Vec<usize>,
            l2_rates: Vec<f64>,
            /// SM↔L2 crossbar arbiter working memory.
            xbar: XbarScratch,
            /// Telemetry per-SM accumulators for the current interval.
            sm_watts: Vec<f64>,
            sm_issue: Vec<f64>,
            /// Window-shuffled dispatch order for the current launch.
            order: Vec<u32>,
        }

        /// The interval loop as it stood before the columnar rewrite: one
        /// `Active` row per block, every rate, quotient and power term
        /// recomputed for every block in every interval. Kept verbatim as the
        /// oracle the columnar loop must match bit for bit.
        #[allow(clippy::too_many_arguments)]
        fn reference_run_launch(
            cfg: &DeviceConfig,
            rng: &mut SmallRng,
            trace: &mut PowerTrace,
            grid: u32,
            block_threads: u32,
            resources: &KernelResources,
            work_multiplier: f64,
            launch_id: u32,
            telemetry: Option<&dyn TelemetrySink>,
            mut exec: impl FnMut(u32) -> BlockCost,
        ) -> SchedOutcome {
            let scratch = &mut RefScratch::default();
            assert!(grid >= 1, "grid must have at least one block");
            assert!(cfg.num_sms <= 64, "the dispatch level masks hold 64 SMs");
            let occupancy = resident_blocks(cfg, block_threads, resources);
            let p = &cfg.power;
            let vc2 = cfg.clocks.core_vrel * cfg.clocks.core_vrel;
            let vm2 = cfg.clocks.mem_vrel * cfg.clocks.mem_vrel;
            let core_hz = cfg.clocks.core_hz();
            let dram_bps = cfg.dram_bytes_per_s();
            let dram_lat = cfg.dram_latency();
            let ecc_energy_factor = if cfg.ecc { 1.25 } else { 1.0 };
            // The caches and the SM↔L2 crossbar live in the *core* clock domain,
            // so the L2 stream's bandwidth scales with the graphics clock:
            // cache-resident codes keep slowing down when the core clock drops,
            // even though they barely touch DRAM.
            let cache_cfg = cfg.mem_model.cache();
            let l2_bps = cache_cfg.map_or(0.0, |cc| cc.l2_bytes_per_core_cycle * core_hz);
            let l2_port_bps =
                cache_cfg.map_or(0.0, |cc| cc.xbar_port_bytes_per_core_cycle * core_hz);

            let t_start = trace.end_time();
            let mut now = t_start;
            let mut energy = 0.0f64;
            let mut next_block = 0u32;
            let mut completed = 0u32;

            let slots = cfg.num_sms * occupancy;
            let RefScratch {
                active,
                sm_resident,
                sm_warps,
                sm_demand,
                level_mask,
                uncapped,
                next_uncapped,
                l2_idx,
                l2_sm,
                l2_rates,
                xbar,
                sm_watts,
                sm_issue,
                order,
            } = scratch;
            active.clear();
            active.reserve(slots);
            sm_resident.clear();
            sm_resident.resize(cfg.num_sms, 0);
            sm_warps.clear();
            sm_warps.resize(cfg.num_sms, 0.0);
            sm_demand.clear();
            sm_demand.resize(cfg.num_sms, 0);
            level_mask.clear();
            level_mask.resize(occupancy + 1, 0);
            level_mask[0] = if cfg.num_sms == 64 {
                u64::MAX
            } else {
                (1u64 << cfg.num_sms) - 1
            };
            // Lowest residency level with a resident SM: the invariant that makes
            // "first least-loaded SM" a trailing_zeros instead of a scan.
            let mut min_level = 0usize;
            uncapped.clear();
            uncapped.reserve(slots);
            next_uncapped.clear();
            next_uncapped.reserve(slots);
            l2_idx.clear();
            l2_idx.reserve(slots);
            l2_sm.clear();
            l2_sm.reserve(slots);
            l2_rates.clear();
            l2_rates.reserve(slots);
            xbar.reserve(cfg.num_sms, slots);
            sm_watts.clear();
            sm_watts.resize(cfg.num_sms, 0.0);
            sm_issue.clear();
            sm_issue.resize(cfg.num_sms, 0.0);

            // Execution order: on real hardware, blocks that are co-resident
            // interleave nondeterministically and the interleaving shifts with the
            // clock configuration. We model this by shuffling the block order
            // within windows of roughly the co-residency width. The device RNG is
            // seeded from the jitter seed *and* the clock configuration, so
            // changing the frequency genuinely changes the order racy kernels
            // observe — the paper's timing-dependent-irregularity mechanism.
            let window = (cfg.num_sms * occupancy * 2).max(2);
            order.clear();
            order.extend(0..grid);
            if cfg.interleave_shuffle {
                for chunk in order.chunks_mut(window) {
                    for i in (1..chunk.len()).rev() {
                        let j = rng.gen_range(0..=i);
                        chunk.swap(i, j);
                    }
                }
            }

            let mut dram_contended = false;
            // Blocks with an undrained memory stream, maintained incrementally.
            let mut mem_demanders = 0u32;

            #[cfg(debug_assertions)]
            macro_rules! scratch_caps {
                () => {
                    (
                        (
                            active.capacity(),
                            sm_resident.capacity(),
                            sm_warps.capacity(),
                            sm_demand.capacity(),
                            level_mask.capacity(),
                            uncapped.capacity(),
                            next_uncapped.capacity(),
                            sm_watts.capacity(),
                            sm_issue.capacity(),
                            order.capacity(),
                        ),
                        (
                            l2_idx.capacity(),
                            l2_sm.capacity(),
                            l2_rates.capacity(),
                            xbar.caps(),
                        ),
                    )
                };
            }
            #[cfg(debug_assertions)]
            let caps0 = scratch_caps!();

            while completed < grid {
                // Dispatch while there are free occupancy slots, always to the
                // lowest-numbered least-loaded SM (the level masks track the
                // residency histogram so this needs no per-dispatch scan).
                while next_block < grid {
                    if min_level >= occupancy {
                        break;
                    }
                    let sm = level_mask[min_level].trailing_zeros() as usize;
                    let block = order[next_block as usize];
                    let cost = exec(block);
                    let jitter = 1.0 + cfg.jitter * (rng.gen::<f64>() - 0.5) * 2.0;
                    let mult = work_multiplier * jitter;
                    let comp = (cost.issue_cycles * mult).max(100.0);
                    // Tier split: under FlatDram every coalesced byte rides the
                    // DRAM stream (the pre-cache model, verbatim); under a cache
                    // model the DRAM stream shrinks to the missing sectors and the
                    // L2 hits form a second, core-clocked stream.
                    let (mem, l2, floor, mem_energy, l2_energy) = match cache_cfg {
                        None => (
                            cost.dram_bytes_with_ecc(cfg) * mult,
                            0.0,
                            if cost.transactions > 0 { dram_lat } else { 0.0 } + 0.5e-6,
                            cost.mem_energy(p) * mult * vm2 * ecc_energy_factor,
                            0.0,
                        ),
                        Some(cc) => (
                            cost.cached_dram_bytes(cfg) * mult,
                            cost.l2_hits as f64 * crate::mem::SECTOR_BYTES as f64 * mult,
                            if cost.dram_transactions > 0 {
                                dram_lat
                            } else if cost.l2_hits > 0 {
                                cc.l2_latency_s
                            } else {
                                0.0
                            } + 0.5e-6,
                            cost.cached_dram_energy(p) * mult * vm2 * ecc_energy_factor,
                            (cost.l1_energy(cc) + cost.l2_energy(cc)) * mult * vc2,
                        ),
                    };
                    let warps = cost.warps.max(1) as f64;
                    active.push(Active {
                        sm,
                        block,
                        comp_rem: comp,
                        mem_rem: mem,
                        l2_rem: l2,
                        comp_total: comp,
                        mem_total: mem.max(EPS),
                        l2_total: l2.max(EPS),
                        comp_energy: cost.comp_energy(p) * mult * vc2,
                        mem_energy,
                        l2_energy,
                        min_end: now + floor,
                        warps,
                        rate_c: 0.0,
                        rate_m: 0.0,
                        rate_l2: 0.0,
                    });
                    // The occupancy slot the block lands in is the SM's residency
                    // *before* this dispatch.
                    let slot = sm_resident[sm];
                    let bit = 1u64 << sm;
                    level_mask[min_level] &= !bit;
                    level_mask[min_level + 1] |= bit;
                    sm_resident[sm] = slot + 1;
                    if level_mask[min_level] == 0 {
                        // This SM was (one of) the last at the minimum level and
                        // just moved up one: the new minimum is exactly one higher.
                        min_level += 1;
                    }
                    sm_warps[sm] += warps;
                    // `comp` is clamped to >= 100 cycles, so a fresh block always
                    // demands compute.
                    sm_demand[sm] += 1;
                    if mem > EPS {
                        mem_demanders += 1;
                    }
                    next_block += 1;
                    if let Some(sink) = telemetry {
                        sink.record(Event::BlockDispatch {
                            t: now,
                            launch: launch_id,
                            block,
                            sm: sm as u16,
                            slot: slot as u16,
                        });
                    }
                }

                // Compute rates for this interval.
                // Compute: each SM's issue bandwidth, derated when too few warps
                // are resident to hide latency, shared among its compute-hungry
                // blocks. The per-SM warp/demand aggregates are maintained
                // incrementally on dispatch/retire/stream-drain.
                for b in active.iter_mut() {
                    b.rate_c = if b.comp_rem > EPS {
                        let eff = (sm_warps[b.sm] / cfg.latency_hiding_warps).min(1.0);
                        core_hz * eff / sm_demand[b.sm] as f64
                    } else {
                        0.0
                    };
                    b.rate_m = 0.0;
                    b.rate_l2 = 0.0;
                }
                // Memory: global DRAM bandwidth water-filled over demanding blocks,
                // each capped by its memory-level parallelism.
                let mut remaining_bw = dram_bps;
                uncapped.clear();
                uncapped.extend((0..active.len()).filter(|&i| active[i].mem_rem > EPS));
                for _ in 0..3 {
                    if uncapped.is_empty() || remaining_bw <= EPS {
                        break;
                    }
                    let fair = remaining_bw / uncapped.len() as f64;
                    next_uncapped.clear();
                    for &i in uncapped.iter() {
                        let cap = active[i].warps * cfg.mlp_per_warp * 128.0 / dram_lat;
                        let take = fair.min(cap - active[i].rate_m);
                        if take > EPS {
                            active[i].rate_m += take;
                            remaining_bw -= take;
                            if active[i].rate_m < cap - EPS {
                                next_uncapped.push(i);
                            }
                        }
                    }
                    std::mem::swap(uncapped, next_uncapped);
                }
                // L2: aggregate cache bandwidth water-filled over demanding
                // blocks, each capped by its SM's crossbar port share. Under
                // FlatDram no block ever has an L2 stream, so this is skipped.
                if cache_cfg.is_some() {
                    l2_idx.clear();
                    l2_sm.clear();
                    for (i, b) in active.iter().enumerate() {
                        if b.l2_rem > EPS {
                            l2_idx.push(i);
                            l2_sm.push(b.sm);
                        }
                    }
                    l2_rates.clear();
                    l2_rates.resize(l2_idx.len(), 0.0);
                    arbitrate_l2(l2_sm, l2_rates, cfg.num_sms, l2_bps, l2_port_bps, xbar);
                    for (k, &i) in l2_idx.iter().enumerate() {
                        active[i].rate_l2 = l2_rates[k];
                    }
                }

                // Time to the next event.
                let mut dt = f64::INFINITY;
                for b in active.iter() {
                    if b.rate_c > EPS && b.comp_rem > EPS {
                        dt = dt.min(b.comp_rem / b.rate_c);
                    }
                    if b.rate_m > EPS && b.mem_rem > EPS {
                        dt = dt.min(b.mem_rem / b.rate_m);
                    }
                    if b.rate_l2 > EPS && b.l2_rem > EPS {
                        dt = dt.min(b.l2_rem / b.rate_l2);
                    }
                    if b.comp_rem <= EPS && b.mem_rem <= EPS && b.l2_rem <= EPS && b.min_end > now {
                        dt = dt.min(b.min_end - now);
                    }
                }
                if !dt.is_finite() {
                    // Nothing is draining and no latency floor lies ahead of
                    // `now`. The only legitimate way here is floors that rounding
                    // left marginally in the past, so jump straight to the
                    // furthest one and let its blocks retire this interval —
                    // instead of crawling toward it in fixed 1e-7 steps. A block
                    // that still has stream work but zero rate would spin forever;
                    // fail loudly instead.
                    assert!(
                        !active
                            .iter()
                            .any(|b| b.comp_rem > EPS || b.mem_rem > EPS || b.l2_rem > EPS),
                        "scheduler stall: active block has stream work but zero rate \
                         (is mlp_per_warp, the L2 bandwidth or the issue rate zero?)"
                    );
                    let horizon = active.iter().map(|b| b.min_end).fold(now, f64::max);
                    dt = horizon - now;
                }
                let dt = dt.max(1e-9);

                // Power over this interval.
                let mut watts = p.idle_w + p.active_overhead_w * vc2;
                for b in active.iter() {
                    watts += b.comp_energy * (b.rate_c / b.comp_total.max(EPS));
                    watts += b.mem_energy * (b.rate_m / b.mem_total);
                    watts += b.l2_energy * (b.rate_l2 / b.l2_total);
                }

                if let Some(sink) = telemetry {
                    // The interval events partition `watts`: the BoardInterval
                    // carries the static/uncore share and each occupied SM carries
                    // its blocks' dynamic share, so Σ interval energies == the
                    // energy pushed into the trace.
                    sink.record(Event::BoardInterval {
                        t0: now,
                        t1: now + dt,
                        watts: p.idle_w + p.active_overhead_w * vc2,
                        phase: BoardPhase::KernelStatic,
                    });
                    sm_watts.fill(0.0);
                    sm_issue.fill(0.0);
                    for b in active.iter() {
                        sm_watts[b.sm] += b.comp_energy * (b.rate_c / b.comp_total.max(EPS))
                            + b.mem_energy * (b.rate_m / b.mem_total)
                            + b.l2_energy * (b.rate_l2 / b.l2_total);
                        sm_issue[b.sm] += b.rate_c / core_hz;
                    }
                    for s in 0..cfg.num_sms {
                        if sm_resident[s] > 0 {
                            sink.record(Event::SmInterval {
                                t0: now,
                                t1: now + dt,
                                sm: s as u16,
                                watts: sm_watts[s],
                                issue_frac: sm_issue[s].min(1.0),
                                resident: sm_resident[s] as u16,
                            });
                        }
                    }
                    let bytes_per_s: f64 = active.iter().map(|b| b.rate_m).sum();
                    let demanders = mem_demanders as u16;
                    sink.record(Event::DramInterval {
                        t0: now,
                        t1: now + dt,
                        bytes_per_s,
                        demanders,
                    });
                    if demanders >= 2 && !dram_contended {
                        dram_contended = true;
                        sink.record(Event::DramContentionOpen { t: now, demanders });
                    } else if demanders < 2 && dram_contended {
                        dram_contended = false;
                        sink.record(Event::DramContentionClose { t: now });
                    }
                }

                trace.push(dt, watts);
                energy += watts * dt;
                now += dt;

                // Advance progress and retire completed blocks. Stream drains and
                // retires update the per-SM aggregates in place.
                let mut i = 0;
                while i < active.len() {
                    {
                        let b = &mut active[i];
                        let was_comp = b.comp_rem > EPS;
                        let was_mem = b.mem_rem > EPS;
                        b.comp_rem -= b.rate_c * dt;
                        b.mem_rem -= b.rate_m * dt;
                        b.l2_rem -= b.rate_l2 * dt;
                        // Clamp float residue: a stream within a relative epsilon
                        // of empty is empty (otherwise the loop would crawl through
                        // rounding leftovers in 1 ns steps).
                        if b.comp_rem <= 1e-9 * b.comp_total + EPS {
                            b.comp_rem = 0.0;
                        }
                        if b.mem_rem <= 1e-9 * b.mem_total + EPS {
                            b.mem_rem = 0.0;
                        }
                        if b.l2_rem <= 1e-9 * b.l2_total + EPS {
                            b.l2_rem = 0.0;
                        }
                        if was_comp && b.comp_rem <= EPS {
                            sm_demand[b.sm] -= 1;
                        }
                        if was_mem && b.mem_rem <= EPS {
                            mem_demanders -= 1;
                        }
                    }
                    let done = {
                        let b = &active[i];
                        b.comp_rem <= EPS
                            && b.mem_rem <= EPS
                            && b.l2_rem <= EPS
                            && now + 1e-12 >= b.min_end
                    };
                    if done {
                        let sm = active[i].sm;
                        let r = sm_resident[sm];
                        let bit = 1u64 << sm;
                        level_mask[r] &= !bit;
                        level_mask[r - 1] |= bit;
                        sm_resident[sm] = r - 1;
                        if r - 1 < min_level {
                            min_level = r - 1;
                        }
                        sm_warps[sm] -= active[i].warps;
                        if let Some(sink) = telemetry {
                            sink.record(Event::BlockComplete {
                                t: now,
                                launch: launch_id,
                                block: active[i].block,
                                sm: active[i].sm as u16,
                            });
                        }
                        active.swap_remove(i);
                        completed += 1;
                    } else {
                        i += 1;
                    }
                }

                // The tentpole invariant: once a launch is set up, the interval
                // loop must not grow (= reallocate) any scratch vector.
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    scratch_caps!(),
                    caps0,
                    "scheduler interval allocated: a scratch vector grew"
                );
            }

            if dram_contended {
                if let Some(sink) = telemetry {
                    sink.record(Event::DramContentionClose { t: now });
                }
            }

            SchedOutcome {
                duration_s: now - t_start,
                energy_j: energy,
            }
        }

        /// One random launch for the oracle comparison.
        #[derive(Debug, Clone)]
        struct LaunchCase {
            grid: u32,
            block_threads: u32,
            resources: KernelResources,
            work_multiplier: f64,
            costs: Vec<BlockCost>,
        }

        /// Draw one launch: a grid of 1–600 blocks whose occupancy (1–16
        /// blocks per SM) is set through the block width and shared memory,
        /// with per-block costs mixing compute-only, DRAM-only, mixed and
        /// zero-traffic blocks that only wait on their latency floor. Every
        /// block has the launch's width in warps, as on the device.
        fn draw_launch(rng: &mut SmallRng, cfg: &DeviceConfig) -> LaunchCase {
            let grid = rng.gen_range(1..=600u32);
            let occupancy = rng.gen_range(1..=16u32);
            let block_threads = rng.gen_range(1..=128u32);
            let resources = KernelResources {
                regs_per_thread: 32,
                shared_bytes: 49_152 / occupancy,
            };
            assert_eq!(
                resident_blocks(cfg, block_threads, &resources),
                occupancy as usize
            );
            let work_multiplier = if rng.gen::<bool>() {
                1.0
            } else {
                rng.gen_range(0.5..20.0)
            };
            let warps = block_threads.div_ceil(32);
            let costs = (0..grid)
                .map(|_| {
                    let mut c = BlockCost {
                        threads: warps * 32,
                        warps,
                        ..BlockCost::default()
                    };
                    let kind = rng.gen_range(0..4u32);
                    if kind == 0 || kind == 2 {
                        let ops = rng.gen_range(1..4_000_000u64);
                        c.lane_ops[CompClass::Fp32Fma.idx()] = ops;
                        c.slots = ops / 32 + 1;
                        c.active_lanes = ops;
                        c.issue_cycles = rng.gen_range(0.0..400_000.0);
                    }
                    if kind == 1 || kind == 2 {
                        let txns = rng.gen_range(1..40_000u64);
                        c.transactions = txns;
                        c.ideal_transactions = rng.gen_range(1..=txns);
                        c.dram_bytes = txns as f64 * 128.0;
                        c.useful_bytes = c.dram_bytes * 0.75;
                        c.atomics = rng.gen_range(0..4u64);
                        let sectors = txns * 4;
                        c.l1_hits = rng.gen_range(0..=sectors / 4);
                        c.l2_hits = rng.gen_range(0..=sectors - c.l1_hits);
                        c.dram_transactions = sectors - c.l1_hits - c.l2_hits;
                        c.issue_cycles += txns as f64 * 0.5;
                    }
                    if kind == 3 {
                        // No bytes to move, but a transaction arms the latency
                        // floor the block must wait out.
                        c.transactions = rng.gen_range(1..4u64);
                    }
                    c
                })
                .collect();
            LaunchCase {
                grid,
                block_threads,
                resources,
                work_multiplier,
                costs,
            }
        }

        /// Everything a launch sequence observably produces, with floats as bit
        /// patterns (events via `Debug`, which round-trips every f64 exactly).
        struct Observed {
            outcomes: Vec<(u64, u64)>,
            segments: Vec<(u64, u64, u64)>,
            events: Vec<String>,
            dispatch_order: Vec<u32>,
            rng_after: u64,
        }

        fn observe(
            cfg: &DeviceConfig,
            launches: &[LaunchCase],
            telemetry: bool,
            mut run: impl FnMut(
                &mut SmallRng,
                &mut PowerTrace,
                &LaunchCase,
                u32,
                Option<&dyn TelemetrySink>,
                &mut Vec<u32>,
            ) -> SchedOutcome,
        ) -> Observed {
            use sim_telemetry::EventTrace;
            let sink = EventTrace::with_capacity(1 << 20);
            let sink_ref: Option<&dyn TelemetrySink> = if telemetry { Some(&sink) } else { None };
            let mut rng = SmallRng::seed_from_u64(cfg.jitter_seed);
            let mut trace = PowerTrace::new();
            trace.push(0.25, cfg.power.idle_w);
            let mut dispatched = Vec::new();
            let mut outcomes = Vec::new();
            for (id, l) in launches.iter().enumerate() {
                let o = run(
                    &mut rng,
                    &mut trace,
                    l,
                    id as u32,
                    sink_ref,
                    &mut dispatched,
                );
                outcomes.push((o.duration_s.to_bits(), o.energy_j.to_bits()));
            }
            assert_eq!(sink.dropped(), 0, "event ring too small for the case");
            Observed {
                outcomes,
                segments: trace
                    .segments()
                    .iter()
                    .map(|s| (s.t0.to_bits(), s.t1.to_bits(), s.watts.to_bits()))
                    .collect(),
                events: sink.take().iter().map(|e| format!("{e:?}")).collect(),
                dispatch_order: dispatched,
                rng_after: rng.gen(),
            }
        }

        /// Panic at the first field and position where two observations part.
        fn assert_same(a: &Observed, b: &Observed, what: &str) {
            fn first_diff<T: PartialEq + std::fmt::Debug>(
                x: &[T],
                y: &[T],
                field: &str,
                what: &str,
            ) {
                if let Some(i) = (0..x.len().min(y.len())).find(|&i| x[i] != y[i]) {
                    panic!("{what}: {field}[{i}] differs: {:?} vs {:?}", x[i], y[i]);
                }
                assert_eq!(x.len(), y.len(), "{what}: {field} lengths differ");
            }
            first_diff(&a.outcomes, &b.outcomes, "outcomes", what);
            first_diff(&a.dispatch_order, &b.dispatch_order, "dispatch order", what);
            first_diff(&a.segments, &b.segments, "trace segments", what);
            first_diff(&a.events, &b.events, "events", what);
            assert_eq!(a.rng_after, b.rng_after, "{what}: rng state differs");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The columnar loop is an exact rewrite of the row-per-block one:
            /// on random launch sequences — both memory models, jitter and
            /// window shuffling on and off, ECC on and off, telemetry on and
            /// off — it produces bit-identical
            /// outcomes, power-trace segments, telemetry event streams,
            /// dispatch orders and RNG draws. Two launches run back to back on
            /// one pooled scratch, so scratch reuse is covered too.
            #[test]
            fn columnar_loop_matches_the_reference_bit_for_bit(
                seed in 0u64..u64::MAX,
                cached in 0u8..2,
                flags in 0u8..16,
            ) {
                let clocks = [
                    ClockConfig::k20_default(),
                    ClockConfig::k20_614(),
                    ClockConfig::k20_324(),
                ];
                let mut rng = SmallRng::seed_from_u64(seed);
                let ecc = flags & 8 != 0;
                let mut cfg = DeviceConfig::k20c(clocks[rng.gen_range(0..3usize)], ecc);
                if cached == 1 {
                    cfg.mem_model = crate::mem::MemoryModel::Cached(crate::mem::CacheConfig::k20());
                }
                if flags & 1 == 0 {
                    cfg.jitter = 0.0;
                }
                cfg.interleave_shuffle = flags & 2 != 0;
                let telemetry = flags & 4 != 0;
                cfg.jitter_seed = seed;
                let launches = [draw_launch(&mut rng, &cfg), draw_launch(&mut rng, &cfg)];

                // The reference runs each block's cost closure at its
                // dispatch; the columnar side draws the whole order first
                // and schedules the block-indexed cost slice.
                let reference = observe(&cfg, &launches, telemetry, |rng, trace, l, id, sink, dispatched| {
                    reference_run_launch(
                        &cfg, rng, trace, l.grid, l.block_threads, &l.resources,
                        l.work_multiplier, id, sink, |b| {
                            dispatched.push(b);
                            l.costs[b as usize]
                        },
                    )
                });
                let mut scratch = SchedScratch::default();
                let mut order = Vec::new();
                let columnar = observe(&cfg, &launches, telemetry, |rng, trace, l, id, sink, dispatched| {
                    let occupancy = resident_blocks(&cfg, l.block_threads, &l.resources);
                    dispatch_order(&cfg, rng, l.grid, occupancy, &mut order);
                    dispatched.extend_from_slice(&order);
                    run_launch_pooled(
                        &cfg, rng, trace, &order, &l.costs, occupancy,
                        l.work_multiplier, id, sink, &mut scratch,
                    )
                });
                assert_same(
                    &reference,
                    &columnar,
                    &format!("seed {seed}, cached {cached}, flags {flags:#06b}"),
                );
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_cost() -> impl Strategy<Value = BlockCost> {
            (1u64..5_000_000, 0u64..200_000, 1u32..=8).prop_map(|(cycles, txns, warps)| {
                let mut c = BlockCost {
                    issue_cycles: cycles as f64 * 0.2,
                    dram_bytes: txns as f64 * 128.0,
                    useful_bytes: txns as f64 * 96.0,
                    transactions: txns,
                    ideal_transactions: txns,
                    warps,
                    threads: warps * 32,
                    slots: cycles,
                    active_lanes: cycles * 32,
                    ..BlockCost::default()
                };
                c.lane_ops[CompClass::Fp32Fma.idx()] = cycles * 32;
                c
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Every launch terminates with positive duration and an
            /// average power between idle and a board ceiling.
            #[test]
            fn prop_launch_power_bounded(cost in arb_cost(), grid in 1u32..200) {
                let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
                let mut rng = SmallRng::seed_from_u64(3);
                let mut trace = PowerTrace::new();
                let o = run_with_cost_fn(
                    &cfg, &mut rng, &mut trace, grid, 256,
                    &KernelResources::default(), 1.0, 0, None, |_| cost,
                );
                prop_assert!(o.duration_s > 0.0);
                let avg = o.energy_j / o.duration_s;
                prop_assert!(avg >= cfg.power.idle_w * 0.99, "avg {avg}");
                prop_assert!(avg < 450.0, "avg {avg}");
            }

            /// Lower clocks never make any workload faster.
            #[test]
            fn prop_slower_clocks_never_speed_up(cost in arb_cost()) {
                let hi = DeviceConfig::k20c(ClockConfig::k20_default(), false);
                let lo = DeviceConfig::k20c(ClockConfig::k20_324(), false);
                let t_hi = sched(&hi, 52, cost).duration_s;
                let t_lo = sched(&lo, 52, cost).duration_s;
                prop_assert!(t_lo >= t_hi * 0.999, "hi {t_hi} lo {t_lo}");
            }

            /// ECC never makes any workload faster.
            #[test]
            fn prop_ecc_never_speeds_up(cost in arb_cost()) {
                let off = DeviceConfig::k20c(ClockConfig::k20_default(), false);
                let on = DeviceConfig::k20c(ClockConfig::k20_default(), true);
                let t_off = sched(&off, 52, cost).duration_s;
                let t_on = sched(&on, 52, cost).duration_s;
                prop_assert!(t_on >= t_off * 0.999);
            }

            /// Doubling the work multiplier at least doubles nothing less
            /// than ~the duration (monotone, near-linear extrapolation).
            #[test]
            fn prop_multiplier_monotone(cost in arb_cost()) {
                let cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
                let t1 = sched_mult(&cfg, cost, 10.0);
                let t2 = sched_mult(&cfg, cost, 20.0);
                prop_assert!(t2 > t1 * 1.5, "t1 {t1} t2 {t2}");
            }
        }
    }
}
