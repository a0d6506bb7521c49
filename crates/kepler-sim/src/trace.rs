//! Launch-trace capture and trace-driven re-simulation.
//!
//! The campaign re-measures the same program under many clock/ECC
//! configurations. For kernels honouring the [`crate::Kernel::parallel_safe`]
//! contract the *functional* outcome of every launch — the per-block
//! [`BlockCost`]s the scheduler consumes — is configuration-independent
//! (see `docs/PERF.md`), and every stochastic quantity the device adds on
//! top (constructor wobble, launch-overhead draw, scheduler shuffle and
//! jitter) is a pure function of the device configuration and the launch
//! sequence, never of functional results. A recorded run can therefore be
//! re-simulated for *any* configuration from its trace alone:
//!
//! * [`TraceRecorder`] — attached to a live [`Device`] via
//!   [`Device::set_trace_recorder`]; captures each launch's identity
//!   (kernel name, params, geometry, memory fingerprint), resources and
//!   per-block costs, plus the host-gap timeline, into a [`RunTrace`]. Launches that cannot take the
//!   pre-execution path (irregular kernels, unfingerprintable buffers, runs
//!   under the sanitizer) mark the run ineligible — recording never guesses.
//! * [`encode_launch`] / [`decode_launch`] — a compact column-major
//!   delta/zigzag/varint binary codec for one launch's cost stream;
//!   consecutive blocks of regular kernels differ in few fields, so
//!   identical columns compress to one byte per block.
//! * [`TraceReplayDevice`] — re-simulates a [`RunTrace`] under any
//!   [`crate::DeviceConfig`] without functional execution, reusing the
//!   fluid scheduler's cost model so results are bit-identical to a live
//!   simulation of the same configuration and jitter seed.

use crate::config::DeviceConfig;
use crate::cost::BlockCost;
use crate::counters::{KernelCounters, LaunchStats};
use crate::device::{CostSource, Device};
use crate::kernel::KernelResources;
use gpower::PowerTrace;
use std::collections::HashMap;
use std::sync::Mutex;

/// Identity of a pre-executed launch: two launches with equal keys execute
/// identically under the `parallel_safe` contract. The recorder
/// deduplicates a run's launches by it, and a [`LaunchTrace`] carries its
/// fields.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct LaunchKey {
    /// Kernel display name plus its scalar parameters ([`crate::Kernel::params`]).
    pub kernel: String,
    pub params: Vec<u64>,
    pub grid: u32,
    pub block_threads: u32,
    /// Fingerprint of the full pre-launch memory image.
    pub mem_fp: [u64; 2],
}

/// One recorded launch: identity ([`LaunchKey`] fields), static resources,
/// and the per-block cost stream the scheduler replays.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchTrace {
    /// Kernel display name.
    pub kernel: String,
    /// Scalar launch parameters ([`crate::Kernel::params`]).
    pub params: Vec<u64>,
    pub grid: u32,
    pub block_threads: u32,
    /// Static resources, for the occupancy calculation at replay time.
    pub resources: KernelResources,
    /// Fingerprint of the pre-launch memory image (content-addressing).
    pub mem_fp: [u64; 2],
    /// Per-block costs, indexed by block id.
    pub costs: Vec<BlockCost>,
}

/// One step of a recorded run's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceOp {
    /// Replay `launches[launch]` with this work multiplier. The multiplier
    /// lives in the op, not the launch record, so host loops that re-launch
    /// an identical kernel share one deduplicated [`LaunchTrace`].
    Launch { launch: usize, work_multiplier: f64 },
    /// Host-side time between kernels ([`Device::host_gap`]).
    HostGap { seconds: f64 },
}

/// A full recorded program run: deduplicated launch records plus the
/// ordered op timeline referencing them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTrace {
    pub launches: Vec<LaunchTrace>,
    pub ops: Vec<TraceOp>,
}

#[derive(Default)]
struct RecorderInner {
    launches: Vec<LaunchTrace>,
    index: HashMap<LaunchKey, usize>,
    ops: Vec<TraceOp>,
    /// First kernel that could not take the pre-execution path; set once,
    /// poisons the whole run (a partial trace cannot be replayed).
    ineligible: Option<String>,
}

/// Observes a live [`Device`]'s launches and host gaps into a [`RunTrace`].
/// Purely passive: attaching a recorder never perturbs execution, timing,
/// RNG draws or results.
#[derive(Default)]
pub struct TraceRecorder {
    inner: Mutex<RecorderInner>,
}

impl TraceRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_launch(
        &self,
        key: &LaunchKey,
        resources: KernelResources,
        costs: &[BlockCost],
        work_multiplier: f64,
    ) {
        let mut inner = self.inner.lock().unwrap();
        if inner.ineligible.is_some() {
            return;
        }
        let idx = match inner.index.get(key) {
            Some(&i) => i,
            None => {
                let i = inner.launches.len();
                inner.launches.push(LaunchTrace {
                    kernel: key.kernel.clone(),
                    params: key.params.clone(),
                    grid: key.grid,
                    block_threads: key.block_threads,
                    resources,
                    mem_fp: key.mem_fp,
                    costs: costs.to_vec(),
                });
                inner.index.insert(key.clone(), i);
                i
            }
        };
        inner.ops.push(TraceOp::Launch {
            launch: idx,
            work_multiplier,
        });
    }

    pub(crate) fn record_gap(&self, seconds: f64) {
        let mut inner = self.inner.lock().unwrap();
        if inner.ineligible.is_none() {
            inner.ops.push(TraceOp::HostGap { seconds });
        }
    }

    pub(crate) fn mark_ineligible(&self, kernel: &str) {
        let mut inner = self.inner.lock().unwrap();
        if inner.ineligible.is_none() {
            // What was recorded so far can never be replayed: free it now.
            *inner = RecorderInner {
                ineligible: Some(kernel.to_string()),
                ..RecorderInner::default()
            };
        }
    }

    /// The kernel that made this run unrecordable, if any.
    pub fn ineligible_kernel(&self) -> Option<String> {
        self.inner.lock().unwrap().ineligible.clone()
    }

    /// Take the recorded run. `None` if any launch was ineligible — the
    /// caller falls back to functional execution forever for this program.
    pub fn finish(&self) -> Option<RunTrace> {
        let mut inner = self.inner.lock().unwrap();
        if inner.ineligible.is_some() {
            return None;
        }
        Some(RunTrace {
            launches: std::mem::take(&mut inner.launches),
            ops: std::mem::take(&mut inner.ops),
        })
    }
}

/// Re-simulates a [`RunTrace`] under an arbitrary configuration: the same
/// launch-overhead, scheduling and power pipeline as a live [`Device`], fed
/// from recorded per-block costs instead of functional execution.
///
/// Does **not** count against [`crate::devices_created`] — that counter
/// witnesses functional simulations; replays are tallied separately by
/// [`crate::devices_replayed`].
pub struct TraceReplayDevice {
    dev: Device,
}

impl TraceReplayDevice {
    pub fn new(cfg: DeviceConfig) -> Self {
        Self {
            dev: Device::new_replay(cfg),
        }
    }

    /// Re-simulate the recorded timeline.
    ///
    /// # Panics
    /// If an op references a launch index outside `run.launches` (a
    /// malformed trace — the on-disk layer validates before handing one in).
    pub fn replay(&mut self, run: &RunTrace) {
        for op in &run.ops {
            match *op {
                TraceOp::Launch {
                    launch,
                    work_multiplier,
                } => {
                    let lt = &run.launches[launch];
                    self.dev.launch_core(
                        lt.kernel.clone().into(),
                        lt.grid,
                        lt.block_threads,
                        lt.resources,
                        work_multiplier,
                        CostSource::Recorded(&lt.costs),
                    );
                }
                TraceOp::HostGap { seconds } => self.dev.host_gap(seconds),
            }
        }
    }

    /// Sum of kernel durations (see [`Device::kernel_time`]).
    pub fn kernel_time(&self) -> f64 {
        self.dev.kernel_time()
    }

    /// Aggregated counters over all replayed launches.
    pub fn total_counters(&self) -> KernelCounters {
        self.dev.total_counters()
    }

    /// Per-launch stats so far.
    pub fn stats(&self) -> &[LaunchStats] {
        self.dev.stats()
    }

    /// End the run (driver tail + lead-out) and return the ground-truth
    /// power trace, exactly like [`Device::finish`].
    pub fn finish(self) -> (PowerTrace, Vec<LaunchStats>) {
        self.dev.finish()
    }
}

// ---- binary codec ---------------------------------------------------------

/// Codec version byte; bump on any layout change so stale records decode to
/// `None` instead of garbage. v2 added the four cache-tier columns.
const CODEC_VERSION: u8 = 2;

/// Number of per-block cost columns (4 f64 + 18 u64 + 2 u32 fields).
const COST_COLUMNS: usize = 24;

pub(crate) fn cost_to_words(c: &BlockCost) -> [u64; COST_COLUMNS] {
    let mut w = [0u64; COST_COLUMNS];
    w[0] = c.issue_cycles.to_bits();
    w[1] = c.dram_bytes.to_bits();
    w[2] = c.useful_bytes.to_bits();
    w[3] = c.bank_conflict_cycles.to_bits();
    w[4] = c.transactions;
    w[5] = c.ideal_transactions;
    w[6] = c.atomics;
    w[7..14].copy_from_slice(&c.lane_ops);
    w[14] = c.shared_accesses;
    w[15] = c.barriers;
    w[16] = c.slots;
    w[17] = c.active_lanes;
    w[18] = c.warps as u64;
    w[19] = c.threads as u64;
    w[20] = c.l1_hits;
    w[21] = c.l2_hits;
    w[22] = c.dram_transactions;
    w[23] = c.mshr_merges;
    w
}

fn cost_from_words(w: &[u64; COST_COLUMNS]) -> Option<BlockCost> {
    let mut lane_ops = [0u64; 7];
    lane_ops.copy_from_slice(&w[7..14]);
    Some(BlockCost {
        issue_cycles: f64::from_bits(w[0]),
        dram_bytes: f64::from_bits(w[1]),
        useful_bytes: f64::from_bits(w[2]),
        bank_conflict_cycles: f64::from_bits(w[3]),
        transactions: w[4],
        ideal_transactions: w[5],
        atomics: w[6],
        lane_ops,
        shared_accesses: w[14],
        barriers: w[15],
        slots: w[16],
        active_lanes: w[17],
        warps: u32::try_from(w[18]).ok()?,
        threads: u32::try_from(w[19]).ok()?,
        l1_hits: w[20],
        l2_hits: w[21],
        dram_transactions: w[22],
        mshr_merges: w[23],
    })
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None // over-long encoding
}

fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    ((z >> 1) as i64 ^ -((z & 1) as i64)) as u64
}

/// Serialize one launch record: a small header (identity + geometry +
/// resources + fingerprint) followed by the cost stream as column-major
/// delta/zigzag/varint columns. Deterministic: equal records encode to
/// equal bytes, so the payload hash is a content address.
pub fn encode_launch(lt: &LaunchTrace) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + lt.costs.len() * 8);
    out.push(CODEC_VERSION);
    put_varint(&mut out, lt.kernel.len() as u64);
    out.extend_from_slice(lt.kernel.as_bytes());
    put_varint(&mut out, lt.params.len() as u64);
    for &p in &lt.params {
        put_varint(&mut out, p);
    }
    put_varint(&mut out, lt.grid as u64);
    put_varint(&mut out, lt.block_threads as u64);
    put_varint(&mut out, lt.resources.regs_per_thread as u64);
    put_varint(&mut out, lt.resources.shared_bytes as u64);
    out.extend_from_slice(&lt.mem_fp[0].to_le_bytes());
    out.extend_from_slice(&lt.mem_fp[1].to_le_bytes());
    put_varint(&mut out, lt.costs.len() as u64);
    let words: Vec<[u64; COST_COLUMNS]> = lt.costs.iter().map(cost_to_words).collect();
    for col in 0..COST_COLUMNS {
        let mut prev = 0u64;
        for w in &words {
            put_varint(&mut out, zigzag(w[col].wrapping_sub(prev)));
            prev = w[col];
        }
    }
    out
}

/// Decode a launch record. `None` on any truncation, trailing garbage,
/// version mismatch, malformed field or launch geometry the device
/// rejects — corrupt records must degrade to a clean functional re-run,
/// never to wrong numbers or a panic.
pub fn decode_launch(buf: &[u8]) -> Option<LaunchTrace> {
    let mut pos = 0usize;
    if *buf.get(pos)? != CODEC_VERSION {
        return None;
    }
    pos += 1;
    let klen = usize::try_from(get_varint(buf, &mut pos)?).ok()?;
    let kernel = String::from_utf8(buf.get(pos..pos.checked_add(klen)?)?.to_vec()).ok()?;
    pos += klen;
    let plen = usize::try_from(get_varint(buf, &mut pos)?).ok()?;
    // A params count cannot exceed the remaining bytes (each takes >= 1).
    if plen > buf.len() - pos {
        return None;
    }
    let mut params = Vec::with_capacity(plen);
    for _ in 0..plen {
        params.push(get_varint(buf, &mut pos)?);
    }
    let grid = u32::try_from(get_varint(buf, &mut pos)?).ok()?;
    let block_threads = u32::try_from(get_varint(buf, &mut pos)?).ok()?;
    // Geometry the launch core refuses would panic at replay.
    if grid == 0 || !(1..=1024).contains(&block_threads) {
        return None;
    }
    let resources = KernelResources {
        regs_per_thread: u32::try_from(get_varint(buf, &mut pos)?).ok()?,
        shared_bytes: u32::try_from(get_varint(buf, &mut pos)?).ok()?,
    };
    let mut mem_fp = [0u64; 2];
    for fp in &mut mem_fp {
        let bytes = buf.get(pos..pos + 8)?;
        *fp = u64::from_le_bytes(bytes.try_into().ok()?);
        pos += 8;
    }
    let blocks = usize::try_from(get_varint(buf, &mut pos)?).ok()?;
    if blocks != grid as usize {
        return None;
    }
    // Each block contributes >= COST_COLUMNS varint bytes.
    if blocks > (buf.len() - pos) / COST_COLUMNS + 1 {
        return None;
    }
    let mut words = vec![[0u64; COST_COLUMNS]; blocks];
    for col in 0..COST_COLUMNS {
        let mut prev = 0u64;
        for w in words.iter_mut() {
            prev = prev.wrapping_add(unzigzag(get_varint(buf, &mut pos)?));
            w[col] = prev;
        }
    }
    if pos != buf.len() {
        return None; // trailing garbage
    }
    let costs = words
        .iter()
        .map(cost_from_words)
        .collect::<Option<Vec<_>>>()?;
    // Every block of a launch has the launch's width in warps, which the
    // scheduler requires; a record that mixes warp counts is corrupt.
    if costs.windows(2).any(|w| w[0].warps != w[1].warps) {
        return None;
    }
    Some(LaunchTrace {
        kernel,
        params,
        grid,
        block_threads,
        resources,
        mem_fp,
        costs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockCtx;
    use crate::buffer::DevBuffer;
    use crate::config::ClockConfig;
    use crate::kernel::{Kernel, ParamKey};

    fn sample_cost(i: u64) -> BlockCost {
        BlockCost {
            issue_cycles: 1000.0 + i as f64 * 0.25,
            dram_bytes: 4096.0,
            useful_bytes: 4000.0 - i as f64,
            transactions: 32 + i,
            ideal_transactions: 32,
            atomics: 0,
            lane_ops: [i, 2 * i, 0, 0, 5, 0, 1],
            shared_accesses: 64,
            bank_conflict_cycles: 1.5,
            barriers: 2,
            slots: 100 + i,
            active_lanes: 3200,
            warps: 4,
            threads: 128,
            l1_hits: 3 * i,
            l2_hits: i / 2,
            dram_transactions: 16 + i,
            mshr_merges: i % 3,
        }
    }

    fn sample_launch(blocks: u64) -> LaunchTrace {
        LaunchTrace {
            kernel: "stencil_step".to_string(),
            params: vec![7, u64::MAX, 1 << 40],
            grid: blocks as u32,
            block_threads: 128,
            resources: KernelResources {
                regs_per_thread: 40,
                shared_bytes: 2048,
            },
            mem_fp: [0xDEAD_BEEF_0BAD_F00D, 42],
            costs: (0..blocks).map(sample_cost).collect(),
        }
    }

    #[test]
    fn codec_round_trips_bitwise() {
        let lt = sample_launch(33);
        let bytes = encode_launch(&lt);
        let back = decode_launch(&bytes).expect("decodes");
        assert_eq!(lt, back);
        // f64 fields round-trip bitwise, not just approximately.
        for (a, b) in lt.costs.iter().zip(&back.costs) {
            assert_eq!(a.issue_cycles.to_bits(), b.issue_cycles.to_bits());
            assert_eq!(a.useful_bytes.to_bits(), b.useful_bytes.to_bits());
        }
    }

    #[test]
    fn codec_compresses_regular_streams() {
        // Identical consecutive blocks: every delta column is zeros, so the
        // whole cost stream costs ~1 byte per block per column.
        let mut lt = sample_launch(1);
        lt.costs = vec![sample_cost(5); 256];
        lt.grid = 256;
        let bytes = encode_launch(&lt);
        let naive = 256 * std::mem::size_of::<BlockCost>();
        // First block pays full f64 bit patterns (~10 varint bytes each);
        // every later block costs one zero-delta byte per column.
        assert!(
            bytes.len() < naive / 4,
            "{} bytes vs naive {naive}",
            bytes.len()
        );
    }

    #[test]
    fn codec_rejects_truncation_corruption_and_trailing_bytes() {
        let bytes = encode_launch(&sample_launch(9));
        assert!(decode_launch(&bytes).is_some());
        // Every truncation point fails cleanly.
        for cut in 0..bytes.len() {
            assert!(decode_launch(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        // Trailing garbage fails.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_launch(&long).is_none());
        // Wrong codec version fails.
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xff;
        assert!(decode_launch(&wrong).is_none());
        // Empty input fails.
        assert!(decode_launch(&[]).is_none());
        // Blocks that disagree on their warp count fail.
        let mut mixed = sample_launch(9);
        mixed.costs[4].warps = 5;
        assert!(decode_launch(&encode_launch(&mixed)).is_none());
        // So does geometry no launch can have: an empty grid, or a block
        // of 0 or more than 1024 threads.
        assert!(decode_launch(&encode_launch(&sample_launch(0))).is_none());
        for block_threads in [0, 1025] {
            let bad = LaunchTrace {
                block_threads,
                ..sample_launch(9)
            };
            assert!(decode_launch(&encode_launch(&bad)).is_none());
        }
    }

    /// Parallel-safe saxpy for recording tests.
    struct PSaxpy {
        x: DevBuffer<f32>,
        y: DevBuffer<f32>,
        a: f32,
    }
    impl Kernel for PSaxpy {
        fn name(&self) -> &'static str {
            "psaxpy"
        }
        fn parallel_safe(&self) -> bool {
            true
        }
        fn params(&self) -> Vec<u64> {
            ParamKey::new().buf(&self.x).buf(&self.y).f(self.a).done()
        }
        fn run_block(&self, blk: &mut BlockCtx) {
            let (x, y, a) = (self.x, self.y, self.a);
            let n = x.len();
            blk.for_each_thread(|t| {
                let i = t.gtid() as usize;
                if i < n {
                    let xv = t.ld(&x, i);
                    let yv = t.ld(&y, i);
                    t.fma32(1);
                    t.st(&y, i, a * xv + yv);
                }
            });
        }
    }

    /// Order-dependent kernel (no `parallel_safe`): must poison recording.
    struct Racy;
    impl Kernel for Racy {
        fn name(&self) -> &'static str {
            "racy"
        }
        fn run_block(&self, blk: &mut BlockCtx) {
            blk.for_each_thread(|t| {
                t.int_op(1);
            });
        }
    }

    fn cfg(seed: u64) -> DeviceConfig {
        let mut c = DeviceConfig::k20c(ClockConfig::k20_default(), false);
        c.jitter_seed = seed;
        c
    }

    /// Run a two-launch host loop with a gap, optionally recording.
    fn run_program(cfg: DeviceConfig, rec: Option<std::sync::Arc<TraceRecorder>>) -> (f64, f64) {
        let mut dev = Device::new(cfg);
        if let Some(r) = rec {
            dev.set_trace_recorder(r);
        }
        let n = 4096usize;
        let x = dev.alloc_from(&vec![2.0f32; n]);
        let y = dev.alloc_from(&vec![1.0f32; n]);
        let k = PSaxpy { x, y, a: 1.5 };
        dev.launch(&k, (n as u32).div_ceil(128), 128);
        dev.host_gap(0.25);
        dev.launch(&k, (n as u32).div_ceil(128), 128);
        let kt = dev.kernel_time();
        let (trace, _) = dev.finish();
        (kt, trace.total_energy())
    }

    #[test]
    fn recording_is_passive_and_replay_is_bit_identical() {
        let plain = run_program(cfg(11), None);
        let rec = std::sync::Arc::new(TraceRecorder::new());
        let recorded = run_program(cfg(11), Some(rec.clone()));
        assert_eq!(plain.0.to_bits(), recorded.0.to_bits(), "kernel time");
        assert_eq!(plain.1.to_bits(), recorded.1.to_bits(), "energy");

        let run = rec.finish().expect("all launches eligible");
        // Host loop deduplicates: two ops reference one launch record.
        // (The second launch re-reads y it wrote, so the memory fingerprint
        // differs — expect two records but three ops including the gap.)
        assert_eq!(run.ops.len(), 3);
        assert!(matches!(run.ops[1], TraceOp::HostGap { seconds } if seconds == 0.25));

        // Replay under the same config/seed: bit-identical timing/energy.
        let mut rd = TraceReplayDevice::new(cfg(11));
        rd.replay(&run);
        assert_eq!(rd.kernel_time().to_bits(), plain.0.to_bits());
        let (trace, stats) = rd.finish();
        assert_eq!(trace.total_energy().to_bits(), plain.1.to_bits());
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].kernel, "psaxpy");

        // Replay under a *different* config matches a live run of that
        // config (same functional costs, different scheduler/power).
        let other = run_program(cfg(77), None);
        let mut rd = TraceReplayDevice::new(cfg(77));
        rd.replay(&run);
        assert_eq!(rd.kernel_time().to_bits(), other.0.to_bits());
        let (trace, _) = rd.finish();
        assert_eq!(trace.total_energy().to_bits(), other.1.to_bits());
    }

    #[test]
    fn replay_does_not_count_as_a_simulation() {
        let rec = std::sync::Arc::new(TraceRecorder::new());
        run_program(cfg(3), Some(rec.clone()));
        let run = rec.finish().unwrap();
        let created = crate::devices_created();
        let replayed = crate::devices_replayed();
        let mut rd = TraceReplayDevice::new(cfg(3));
        rd.replay(&run);
        assert_eq!(crate::devices_created(), created, "no functional device");
        assert_eq!(crate::devices_replayed(), replayed + 1);
    }

    #[test]
    fn ineligible_launch_poisons_the_recording() {
        let rec = std::sync::Arc::new(TraceRecorder::new());
        let mut dev = Device::new(cfg(5));
        dev.set_trace_recorder(rec.clone());
        let n = 1024usize;
        let x = dev.alloc_from(&vec![1.0f32; n]);
        let y = dev.alloc_from(&vec![1.0f32; n]);
        dev.launch(&PSaxpy { x, y, a: 2.0 }, 8, 128);
        dev.launch(&Racy, 4, 64); // exec-at-dispatch: unrecordable
        assert!(rec.finish().is_none());
        assert_eq!(rec.ineligible_kernel().as_deref(), Some("racy"));
    }
}
