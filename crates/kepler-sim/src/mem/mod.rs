//! Memory-hierarchy subsystem: a configurable two-level sectored cache
//! model (per-SM L1, shared L2) with MSHR merging, inserted *behind* the
//! coalesced-transaction access stream.
//!
//! The functional layer keeps producing the same coalesced 128-byte
//! segments it always has (so the sanitizer, footprints and telemetry see
//! an unchanged stream); when a [`MemoryModel::Cached`] config is active, a
//! fresh per-block [`CacheSim`] classifies every 32-byte sector of that
//! stream into L1-hit / L2-hit / DRAM tiers and the fluid scheduler prices
//! each tier separately. A fresh simulator per block keeps [`crate::cost::
//! BlockCost`] a pure function of the block's own access stream — which is
//! what makes pre-executed memoization, sharded execution and trace replay
//! remain bitwise-equivalent under the cache model (the per-block L2 view
//! models intra-block reuse only; cross-block sharing is deliberately out
//! of scope, see docs/MEMORY.md).
//!
//! Under the default [`MemoryModel::FlatDram`] no `CacheSim` is ever
//! constructed and every simulated number is bit-identical to the
//! pre-cache simulator.

mod l1;
mod l2;
mod mshr;
mod xbar;

pub use l1::L1Cache;
pub use l2::{L2Cache, ReadOutcome, WriteOutcome};
pub use mshr::Mshr;
pub use xbar::{arbitrate_l2, XbarScratch};

use serde::{Deserialize, Serialize};

/// Sector granularity: caches track validity (and dirtiness in L2) per
/// 32-byte sector.
pub const SECTOR_BYTES: u64 = 32;
/// Cache-line granularity: tags cover 128-byte lines of four sectors —
/// the same granularity as the coalescer's DRAM segments.
pub const LINE_BYTES: u64 = 128;
/// Sectors per line.
pub const SECTORS_PER_LINE: u32 = 4;
/// Version tag for the memory model; folded into the campaign/trace
/// fingerprints so persisted records are invalidated when the cache
/// semantics change.
pub const MODEL_VERSION: &str = "mem-model/1";

/// Geometry, bandwidth and energy knobs of the cache hierarchy. All sizes
/// are in bytes; bandwidths are per *core* cycle because the L2 sits in
/// the core clock domain on Kepler (which is why cache-resident
/// "memory-bound" programs keep scaling with the core clock — the
/// sharpened version of the paper's central finding).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Per-SM L1 data cache capacity. Kepler splits 64 KB of SRAM between
    /// shared memory and L1: 16/32/48 KB are the legal L1 sizes.
    pub l1_bytes: usize,
    /// L1 associativity (ways per set).
    pub l1_assoc: usize,
    /// Shared L2 capacity (1.25 MB on the K20c).
    pub l2_bytes: usize,
    /// L2 associativity (ways per set).
    pub l2_assoc: usize,
    /// Outstanding-miss budget: MSHR entries per L1 (one entry tracks one
    /// 128-byte line with a pending-sector mask).
    pub mshr_entries: usize,
    /// Aggregate L2 bandwidth, bytes per core cycle (all banks).
    pub l2_bytes_per_core_cycle: f64,
    /// Per-SM crossbar port bandwidth toward L2, bytes per core cycle.
    pub xbar_port_bytes_per_core_cycle: f64,
    /// L2 round-trip latency floor, seconds (applies when a block's memory
    /// traffic is served entirely from L2).
    pub l2_latency_s: f64,
    /// Energy per byte served by the L1, joules (core voltage domain).
    pub e_l1_byte: f64,
    /// Energy per byte served by the L2, joules (core voltage domain).
    pub e_l2_byte: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::k20()
    }
}

impl CacheConfig {
    /// The K20c hierarchy at the default 48 KB-shared / 16 KB-L1 split.
    pub fn k20() -> Self {
        Self {
            l1_bytes: 16 * 1024,
            l1_assoc: 4,
            l2_bytes: 1280 * 1024,
            l2_assoc: 16,
            mshr_entries: 64,
            l2_bytes_per_core_cycle: 1024.0,
            xbar_port_bytes_per_core_cycle: 128.0,
            l2_latency_s: 0.25e-6,
            e_l1_byte: 2e-12,
            e_l2_byte: 10e-12,
        }
    }

    /// The K20c hierarchy with a different shared/L1 split (16, 32 or
    /// 48 KB of L1).
    pub fn k20_with_l1_kb(l1_kb: usize) -> Self {
        assert!(
            matches!(l1_kb, 16 | 32 | 48),
            "Kepler L1 split must be 16, 32 or 48 KB"
        );
        Self {
            l1_bytes: l1_kb * 1024,
            ..Self::k20()
        }
    }

    /// Fingerprint over every knob that changes simulated numbers. Part of
    /// the memory-model fingerprint used by campaign/trace/memo keys.
    pub fn fingerprint(&self) -> u64 {
        let s = format!(
            "{}|l1={}x{}|l2={}x{}|mshr={}|bw={:.3}/{:.3}|lat={:.3e}|e={:.3e}/{:.3e}",
            MODEL_VERSION,
            self.l1_bytes,
            self.l1_assoc,
            self.l2_bytes,
            self.l2_assoc,
            self.mshr_entries,
            self.l2_bytes_per_core_cycle,
            self.xbar_port_bytes_per_core_cycle,
            self.l2_latency_s,
            self.e_l1_byte,
            self.e_l2_byte,
        );
        crate::fnv1a64(s.as_bytes())
    }
}

/// Which memory system the timing layer prices the access stream against.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum MemoryModel {
    /// The original flat DRAM bandwidth server — bit-identical to the
    /// simulator before the cache hierarchy existed.
    #[default]
    FlatDram,
    /// The sectored L1/L2 hierarchy with MSHRs and the SM↔L2 crossbar.
    Cached(CacheConfig),
}

impl MemoryModel {
    /// The cache configuration, if the hierarchy is enabled.
    pub fn cache(&self) -> Option<&CacheConfig> {
        match self {
            MemoryModel::FlatDram => None,
            MemoryModel::Cached(c) => Some(c),
        }
    }

    /// Stable fingerprint of the model, used in memo keys, trace manifests
    /// and campaign cache keys so results from one model never alias
    /// results from another.
    pub fn fingerprint(&self) -> u64 {
        match self {
            MemoryModel::FlatDram => crate::fnv1a64(b"flat-dram"),
            MemoryModel::Cached(c) => c.fingerprint(),
        }
    }

    /// Short human-readable tag for cache keys and log lines.
    pub fn tag(&self) -> String {
        match self {
            MemoryModel::FlatDram => "flat".to_string(),
            MemoryModel::Cached(c) => format!("cache-{:016x}", c.fingerprint()),
        }
    }
}

/// Counters a per-block cache simulation produces, all in 32-byte sector
/// units. `dram_transactions` counts sector fetches *and* dirty-sector
/// writebacks — it is the cache model's replacement for the flat model's
/// 128-byte segment count on the DRAM bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub dram_transactions: u64,
    pub mshr_merges: u64,
}

/// One block's view of the memory hierarchy: an L1 with its MSHR file and
/// a private L2 image. Constructed (or [`CacheSim::reset`]) per block;
/// deterministic (no hashing, no RNG) and order-independent across blocks
/// by construction.
pub struct CacheSim {
    cfg: CacheConfig,
    l1: L1Cache,
    l2: L2Cache,
    mshr: Mshr,
    pub counters: CacheCounters,
    /// Scratch (line, sector-mask) list for the warp access being
    /// classified; bounded by 32 lanes × a few sectors each.
    segs: Vec<(u64, u8)>,
}

impl CacheSim {
    pub fn new(cfg: &CacheConfig) -> Self {
        Self {
            cfg: *cfg,
            l1: L1Cache::new(cfg.l1_bytes, cfg.l1_assoc),
            l2: L2Cache::new(cfg.l2_bytes, cfg.l2_assoc),
            mshr: Mshr::new(cfg.mshr_entries),
            counters: CacheCounters::default(),
            segs: Vec::with_capacity(64),
        }
    }

    /// Reset for the next block: O(1) epoch-based invalidation unless the
    /// geometry changed, in which case the arrays are rebuilt.
    pub fn reset(&mut self, cfg: &CacheConfig) {
        if self.cfg != *cfg {
            *self = Self::new(cfg);
            return;
        }
        self.l1.reset();
        self.l2.reset();
        self.mshr.reset();
        self.counters = CacheCounters::default();
    }

    /// Group a warp's gathered lane accesses into (line, sector-mask)
    /// pairs, preserving first-touch order (deterministic).
    fn gather(&mut self, addrs: &[u64], bytes: &[u32]) {
        self.segs.clear();
        for (&addr, &b) in addrs.iter().zip(bytes) {
            let nb = b.max(1) as u64;
            let first = addr / SECTOR_BYTES;
            let last = (addr + nb - 1) / SECTOR_BYTES;
            for s in first..=last {
                let line = s / SECTORS_PER_LINE as u64;
                let bit = 1u8 << (s % SECTORS_PER_LINE as u64);
                match self.segs.iter_mut().find(|(l, _)| *l == line) {
                    Some((_, m)) => *m |= bit,
                    None => self.segs.push((line, bit)),
                }
            }
        }
    }

    /// Classify one warp-wide global load.
    pub fn load(&mut self, addrs: &[u64], bytes: &[u32]) {
        self.gather(addrs, bytes);
        for i in 0..self.segs.len() {
            let (line, mask) = self.segs[i];
            for s in 0..SECTORS_PER_LINE {
                let bit = 1u8 << s;
                if mask & bit == 0 {
                    continue;
                }
                if self.l1.probe(line, bit) {
                    self.counters.l1_hits += 1;
                } else if self.mshr.pending(line, bit) {
                    // A miss to this sector is already in flight: the LSU
                    // merges into the existing MSHR entry.
                    self.counters.mshr_merges += 1;
                } else {
                    match self.l2.read(line, bit) {
                        ReadOutcome::Hit => self.counters.l2_hits += 1,
                        ReadOutcome::Miss { writeback_sectors } => {
                            self.counters.dram_transactions += 1 + writeback_sectors;
                        }
                    }
                    if let Some((rline, rmask)) = self.mshr.allocate(line, bit) {
                        // The oldest outstanding miss retires to make room:
                        // its fetched sectors fill into the L1.
                        self.l1.fill(rline, rmask);
                    }
                }
            }
        }
    }

    /// Classify one warp-wide global store. The L1 is write-evict (stores
    /// invalidate their line and go straight to L2); the L2 is
    /// write-allocate without fetch-on-write-miss.
    pub fn store(&mut self, addrs: &[u64], bytes: &[u32]) {
        self.gather(addrs, bytes);
        for i in 0..self.segs.len() {
            let (line, mask) = self.segs[i];
            self.l1.invalidate(line);
            for s in 0..SECTORS_PER_LINE {
                let bit = 1u8 << s;
                if mask & bit == 0 {
                    continue;
                }
                match self.l2.write(line, bit) {
                    WriteOutcome::Hit => self.counters.l2_hits += 1,
                    WriteOutcome::Alloc { writeback_sectors } => {
                        self.counters.dram_transactions += writeback_sectors;
                    }
                }
            }
        }
    }

    /// Classify one warp-wide global atomic: bypasses (and invalidates)
    /// the L1, read-modify-writes at the L2 — where Kepler resolves
    /// atomics.
    pub fn atomic(&mut self, addrs: &[u64]) {
        const ATOMIC_BYTES: [u32; 32] = [4; 32];
        self.gather(addrs, &ATOMIC_BYTES[..addrs.len()]);
        for i in 0..self.segs.len() {
            let (line, mask) = self.segs[i];
            self.l1.invalidate(line);
            for s in 0..SECTORS_PER_LINE {
                let bit = 1u8 << s;
                if mask & bit == 0 {
                    continue;
                }
                match self.l2.read(line, bit) {
                    ReadOutcome::Hit => self.counters.l2_hits += 1,
                    ReadOutcome::Miss { writeback_sectors } => {
                        self.counters.dram_transactions += 1 + writeback_sectors;
                    }
                }
                self.l2.mark_dirty(line, bit);
            }
        }
    }

    /// End-of-block: retire all outstanding misses into the L1 and write
    /// the block's surviving dirty L2 sectors back to DRAM. Stores a block
    /// overwrites repeatedly thus reach DRAM exactly once.
    pub fn finish(&mut self) {
        while let Some((line, mask)) = self.mshr.pop() {
            self.l1.fill(line, mask);
        }
        self.counters.dram_transactions += self.l2.flush_dirty();
    }

    /// Outstanding MSHR entries right now (test/invariant hook).
    pub fn mshr_live(&self) -> usize {
        self.mshr.live()
    }

    /// High-water mark of outstanding MSHR entries (test/invariant hook).
    pub fn mshr_max_live(&self) -> usize {
        self.mshr.max_live()
    }

    /// Structural invariants of both cache levels (test hook): every
    /// valid way's sector mask fits the line, and no set holds more valid
    /// ways than its associativity.
    pub fn assert_invariants(&self) {
        self.l1.assert_invariants();
        self.l2.assert_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seq(addrs: &[u64]) -> (Vec<u64>, Vec<u32>) {
        (addrs.to_vec(), vec![4; addrs.len()])
    }

    /// Hand-checked micro-trace: a known per-level hit/miss sequence.
    #[test]
    fn micro_trace_hits_each_level_in_order() {
        let cfg = CacheConfig::k20();
        let mut sim = CacheSim::new(&cfg);

        // 1. Cold load of one 4-byte word: L1 miss, L2 miss -> 1 DRAM
        //    sector fetch; the miss sits in an MSHR (L1 not yet filled).
        let (a, b) = seq(&[0x1000]);
        sim.load(&a, &b);
        assert_eq!(
            sim.counters,
            CacheCounters {
                l1_hits: 0,
                l2_hits: 0,
                dram_transactions: 1,
                mshr_merges: 0
            }
        );
        assert_eq!(sim.mshr_live(), 1);

        // 2. Same sector again while the miss is outstanding: MSHR merge.
        sim.load(&a, &b);
        assert_eq!(sim.counters.mshr_merges, 1);
        assert_eq!(sim.counters.dram_transactions, 1);

        // 3. A different sector of the same line: L1 miss, L2 *hit* is
        //    wrong — the line is allocated but only sector 0 was fetched —
        //    so this is an L2 sector miss: one more DRAM fetch.
        let (c, d) = seq(&[0x1020]);
        sim.load(&c, &d);
        assert_eq!(sim.counters.dram_transactions, 2);
        assert_eq!(sim.counters.l2_hits, 0);

        // 4. Retire outstanding misses, then re-touch sector 0: now the
        //    L1 holds it -> L1 hit.
        sim.finish();
        assert_eq!(sim.mshr_live(), 0);
        sim.load(&a, &b);
        assert_eq!(sim.counters.l1_hits, 1);

        // 5. A store to that line write-evicts it from L1 and write-hits
        //    the valid L2 sector.
        sim.store(&a, &b);
        assert_eq!(sim.counters.l2_hits, 1);
        // 6. The next load misses L1 (evicted) but hits L2.
        sim.load(&a, &b);
        assert_eq!(sim.counters.l2_hits, 2);
        assert_eq!(sim.counters.l1_hits, 1);

        // 7. finish() writes the one dirty sector back to DRAM.
        let before = sim.counters.dram_transactions;
        sim.finish();
        assert_eq!(sim.counters.dram_transactions, before + 1);
    }

    #[test]
    fn store_then_finish_writes_back_once() {
        let cfg = CacheConfig::k20();
        let mut sim = CacheSim::new(&cfg);
        let (a, b) = seq(&[0x2000]);
        // Three stores to the same sector coalesce in L2: write-allocate
        // (no fetch), then two write hits.
        sim.store(&a, &b);
        sim.store(&a, &b);
        sim.store(&a, &b);
        assert_eq!(sim.counters.dram_transactions, 0);
        assert_eq!(sim.counters.l2_hits, 2);
        sim.finish();
        assert_eq!(sim.counters.dram_transactions, 1);
        // A second finish must not write back again.
        sim.finish();
        assert_eq!(sim.counters.dram_transactions, 1);
    }

    #[test]
    fn atomics_bypass_l1_and_dirty_l2() {
        let cfg = CacheConfig::k20();
        let mut sim = CacheSim::new(&cfg);
        let addrs = [0x3000u64, 0x3000, 0x3004];
        sim.atomic(&addrs);
        // One sector: fetched once from DRAM, then RMW in L2.
        assert_eq!(sim.counters.dram_transactions, 1);
        sim.atomic(&addrs);
        assert_eq!(sim.counters.l2_hits, 1);
        assert_eq!(sim.counters.l1_hits, 0);
        sim.finish();
        // The RMW'd sector is dirty: one writeback.
        assert_eq!(sim.counters.dram_transactions, 2);
    }

    #[test]
    fn streaming_footprint_larger_than_l2_thrashes() {
        let mut cfg = CacheConfig::k20();
        cfg.l1_bytes = 2 * 1024; // shrink both levels so a 16 KB stream
        cfg.l2_bytes = 4 * 1024; // exceeds each by 4-8x
        let mut sim = CacheSim::new(&cfg);
        // Stream 16 KB twice: the footprint is far larger than either
        // cache level, so the second pass finds (almost) nothing resident.
        for _pass in 0..2 {
            for i in 0..512u64 {
                let (a, b) = seq(&[0x10_0000 + i * 32]);
                sim.load(&a, &b);
            }
        }
        // MSHR retirement can leave a sliver of pass-1 tail in the L1 when
        // pass 2 starts, so allow a small hit count, but the traffic must
        // be overwhelmingly DRAM.
        assert!(
            sim.counters.dram_transactions >= 900,
            "dram {}",
            sim.counters.dram_transactions
        );
        sim.assert_invariants();
    }

    #[test]
    fn reset_clears_all_state() {
        let cfg = CacheConfig::k20();
        let mut sim = CacheSim::new(&cfg);
        let (a, b) = seq(&[0x4000]);
        sim.load(&a, &b);
        sim.finish();
        sim.reset(&cfg);
        assert_eq!(sim.counters, CacheCounters::default());
        assert_eq!(sim.mshr_live(), 0);
        // After reset the same load is cold again.
        sim.load(&a, &b);
        assert_eq!(sim.counters.dram_transactions, 1);
        assert_eq!(sim.counters.l1_hits, 0);
    }

    #[test]
    fn fingerprints_distinguish_models_and_splits() {
        assert_ne!(
            MemoryModel::FlatDram.fingerprint(),
            MemoryModel::Cached(CacheConfig::k20()).fingerprint()
        );
        assert_ne!(
            CacheConfig::k20_with_l1_kb(16).fingerprint(),
            CacheConfig::k20_with_l1_kb(48).fingerprint()
        );
        assert_eq!(MemoryModel::FlatDram.tag(), "flat");
        assert!(MemoryModel::Cached(CacheConfig::k20())
            .tag()
            .starts_with("cache-"));
        assert_eq!(MemoryModel::default(), MemoryModel::FlatDram);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// MSHR merging never exceeds the outstanding-miss budget, sector
        /// fills stay within their line, and no set overflows its
        /// associativity — across arbitrary access streams.
        #[test]
        fn cache_invariants_hold_over_random_streams(
            ops in proptest::collection::vec((0u8..3, 0u64..4096), 1..200)
        ) {
            let mut cfg = CacheConfig::k20();
            cfg.l1_bytes = 2 * 1024;
            cfg.l2_bytes = 8 * 1024;
            cfg.mshr_entries = 4;
            let mut sim = CacheSim::new(&cfg);
            for (kind, slot) in ops {
                // Spread accesses over a 512 KB window so sets and the
                // tiny MSHR file are exercised hard.
                let addr = slot * 128 + (slot % 7) * 4;
                match kind {
                    0 => sim.load(&[addr], &[4]),
                    1 => sim.store(&[addr], &[8]),
                    _ => sim.atomic(&[addr]),
                }
                prop_assert!(sim.mshr_live() <= cfg.mshr_entries);
                sim.assert_invariants();
            }
            prop_assert!(sim.mshr_max_live() <= cfg.mshr_entries);
            sim.finish();
            prop_assert_eq!(sim.mshr_live(), 0);
            sim.assert_invariants();
        }

        /// Counter conservation: every classified sector lands in exactly
        /// one tier, so hit counters never exceed the touched-sector total.
        #[test]
        fn counters_are_conserved(
            addrs in proptest::collection::vec(0u64..65536, 1..64)
        ) {
            let cfg = CacheConfig::k20();
            let mut sim = CacheSim::new(&cfg);
            let bytes = vec![4u32; addrs.len()];
            let mut sectors = 0u64;
            for chunk in addrs.chunks(8) {
                sim.load(chunk, &bytes[..chunk.len()]);
                let mut seen: Vec<u64> = chunk
                    .iter()
                    .flat_map(|a| (a / SECTOR_BYTES)..=((a + 3) / SECTOR_BYTES))
                    .collect();
                seen.sort_unstable();
                seen.dedup();
                sectors += seen.len() as u64;
            }
            let c = sim.counters;
            prop_assert_eq!(
                c.l1_hits + c.l2_hits + c.dram_transactions + c.mshr_merges,
                sectors
            );
        }
    }
}
