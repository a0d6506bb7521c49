//! The CUDA-like execution context kernels run in.
//!
//! A block executes its threads in *phases*: each
//! [`BlockCtx::for_each_thread`] call runs the closure once per thread (in
//! thread-id order) and ends with an implicit `__syncthreads()` barrier, so
//! shared-memory producer/consumer patterns across phases are well defined.
//! Within a phase, each thread records an op stream; as soon as the last
//! lane of a warp has run, the warp's streams are folded into warp
//! instructions by [`crate::warp`].

use crate::access::{Access, AccessEvent, AccessKind, AccessObserver, MemSpace};
use crate::buffer::{DevBuffer, DevCopy, GlobalMem, RedOp};
use crate::cost::BlockCost;
use crate::mem::{CacheConfig, CacheSim};
use crate::ops::{CompClass, Op};
use crate::warp::{reduce_warp_cached, WarpScratch};
use std::any::Any;
use std::marker::PhantomData;

/// Reusable per-executor scratch pooled across blocks: the 32 lane stream
/// buffers of the warp being recorded keep their capacities, so
/// steady-state block execution allocates nothing for op recording or warp
/// reduction. One scratch belongs to one executor thread; the device owns
/// one for the serial path and parallel execution gives each worker its
/// own.
#[derive(Default)]
pub struct ExecScratch {
    streams: [Vec<Op>; 32],
    syncs: Vec<u32>,
    warp: WarpScratch,
    /// Pooled per-block cache simulator (kept across blocks so its arrays
    /// are reused; only consulted when [`BlockCtx::enable_cache`] ran).
    cache: Option<CacheSim>,
}

/// A typed handle to a block's shared-memory array.
pub struct SharedBuf<T> {
    slot: usize,
    word_base: u32,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for SharedBuf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedBuf<T> {}

impl<T> SharedBuf<T> {
    pub fn len(&self) -> usize {
        self.len
    }
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-block execution context: functional state plus the trace recorder.
pub struct BlockCtx<'a> {
    pub(crate) mem: &'a mut GlobalMem,
    block_idx: u32,
    grid_dim: u32,
    block_dim: u32,
    scratch: ExecScratch,
    shared: Vec<Box<dyn Any + Send>>,
    shared_words: u32,
    cost: BlockCost,
    phases: u32,
    observer: Option<&'a dyn AccessObserver>,
    launch_id: u32,
    /// Explicit syncs already folded into the cost (max across threads).
    syncs_costed: u32,
    /// Whether this block classifies its accesses through the scratch's
    /// pooled [`CacheSim`] (set by [`BlockCtx::enable_cache`]).
    cache_on: bool,
}

impl<'a> BlockCtx<'a> {
    #[cfg(test)]
    pub(crate) fn new(
        mem: &'a mut GlobalMem,
        block_idx: u32,
        grid_dim: u32,
        block_dim: u32,
    ) -> Self {
        Self::with_scratch(mem, block_idx, grid_dim, block_dim, ExecScratch::default())
    }

    /// Construct a block reusing a pooled [`ExecScratch`]; reclaim it with
    /// [`BlockCtx::finish`]. Stream buffers keep their capacities across
    /// blocks, so after warm-up no per-block allocation happens here.
    pub(crate) fn with_scratch(
        mem: &'a mut GlobalMem,
        block_idx: u32,
        grid_dim: u32,
        block_dim: u32,
        mut scratch: ExecScratch,
    ) -> Self {
        assert!((1..=1024).contains(&block_dim), "block size 1..=1024");
        debug_assert!(scratch.streams.iter().all(Vec::is_empty));
        scratch.syncs.clear();
        Self {
            mem,
            block_idx,
            grid_dim,
            block_dim,
            scratch,
            shared: Vec::new(),
            shared_words: 0,
            cost: BlockCost {
                threads: block_dim,
                warps: block_dim.div_ceil(32),
                ..BlockCost::default()
            },
            phases: 0,
            observer: None,
            launch_id: 0,
            syncs_costed: 0,
            cache_on: false,
        }
    }

    /// Attach the device's access observer for the duration of this block.
    pub(crate) fn attach_observer(&mut self, obs: &'a dyn AccessObserver, launch_id: u32) {
        self.observer = Some(obs);
        self.launch_id = launch_id;
    }

    /// Route this block's global-memory stream through the cache
    /// hierarchy. The pooled simulator is reset (O(1) epoch bump) or built
    /// for `cfg`; its counters land in the block cost at
    /// [`BlockCtx::finish`]. A fresh simulator per block keeps the cost a
    /// pure function of the block's own access stream.
    pub(crate) fn enable_cache(&mut self, cfg: &CacheConfig) {
        match self.scratch.cache.as_mut() {
            Some(sim) => sim.reset(cfg),
            None => self.scratch.cache = Some(CacheSim::new(cfg)),
        }
        self.cache_on = true;
    }

    /// This block's index within the grid.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// Number of blocks in the grid.
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// Threads per block.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// Allocate a shared-memory array of `len` default-initialized `T`s.
    pub fn shared_alloc<T: DevCopy>(&mut self, len: usize) -> SharedBuf<T> {
        let slot = self.shared.len();
        self.shared.push(Box::new(vec![T::default(); len]));
        let word_base = self.shared_words;
        self.shared_words += ((len * std::mem::size_of::<T>()).div_ceil(4)) as u32;
        SharedBuf {
            slot,
            word_base,
            len,
            _marker: PhantomData,
        }
    }

    /// Run one phase: the closure executes once per thread, in thread order,
    /// followed by an implicit barrier. Returns after the phase's trace has
    /// been folded into the block cost.
    pub fn for_each_thread(&mut self, mut f: impl FnMut(&mut ThreadCtx<'_, 'a>)) {
        for tid in 0..self.block_dim {
            // The thread takes ownership of its stream buffer so op
            // recording skips the per-op indexing into the stream table.
            let lane = (tid % 32) as usize;
            let stream = std::mem::take(&mut self.scratch.streams[lane]);
            let mut tc = ThreadCtx {
                blk: self,
                tid,
                stream,
            };
            f(&mut tc);
            let ThreadCtx { stream, .. } = tc;
            self.scratch.streams[lane] = stream;
            // The warp's streams are complete once its last lane has run.
            // Nothing a later thread does reads the block cost, the warp
            // scratch or the cache simulator, and warps still reduce in
            // index order, so every sum and cache access keeps its order.
            if lane == 31 || tid + 1 == self.block_dim {
                self.reduce_warp(lane + 1);
            }
        }
        self.end_phase();
    }

    /// Fold the first `lanes` stream buffers (one warp) into the block
    /// cost and clear them for the next warp.
    fn reduce_warp(&mut self, lanes: usize) {
        let cache = if self.cache_on {
            self.scratch.cache.as_mut()
        } else {
            None
        };
        let streams = &mut self.scratch.streams[..lanes];
        reduce_warp_cached(streams, &mut self.cost, &mut self.scratch.warp, cache);
        streams.iter_mut().for_each(Vec::clear);
    }

    fn end_phase(&mut self) {
        if self.phases > 0 {
            // Barrier cost: each warp re-issues a sync instruction.
            self.cost.barriers += 1;
            self.cost.issue_cycles += 2.0 * self.cost.warps as f64;
        }
        // Explicit in-phase barriers (`ThreadCtx::sync`) cost the same per
        // executed barrier; the block proceeds at the pace of the thread
        // that executed the most.
        let sync_max = self.scratch.syncs.iter().copied().max().unwrap_or(0);
        if sync_max > self.syncs_costed {
            let fresh = (sync_max - self.syncs_costed) as u64;
            self.cost.barriers += fresh;
            self.cost.issue_cycles += 2.0 * fresh as f64 * self.cost.warps as f64;
            self.syncs_costed = sync_max;
        }
        self.phases += 1;
    }

    /// Finish the block and return its accumulated cost.
    #[cfg(test)]
    pub(crate) fn into_cost(self) -> BlockCost {
        self.finish().0
    }

    /// Finish the block, returning its cost and the scratch for reuse by
    /// the next block.
    pub(crate) fn finish(mut self) -> (BlockCost, ExecScratch) {
        if self.cache_on {
            if let Some(sim) = self.scratch.cache.as_mut() {
                // Retire outstanding misses and write back dirty sectors,
                // then land the tier counters in the block cost.
                sim.finish();
                let c = sim.counters;
                self.cost.l1_hits = c.l1_hits;
                self.cost.l2_hits = c.l2_hits;
                self.cost.dram_transactions = c.dram_transactions;
                self.cost.mshr_merges = c.mshr_merges;
            }
        }
        if let Some(obs) = self.observer {
            obs.observe(AccessEvent::BlockEnd {
                launch: self.launch_id,
                block: self.block_idx,
                phases: self.phases,
                syncs: &self.scratch.syncs,
            });
        }
        (self.cost, self.scratch)
    }

    fn shared_vec<T: DevCopy>(&self, s: &SharedBuf<T>) -> &Vec<T> {
        self.shared[s.slot]
            .downcast_ref::<Vec<T>>()
            .expect("shared buffer type mismatch")
    }

    fn shared_vec_mut<T: DevCopy>(&mut self, s: &SharedBuf<T>) -> &mut Vec<T> {
        self.shared[s.slot]
            .downcast_mut::<Vec<T>>()
            .expect("shared buffer type mismatch")
    }
}

/// Per-thread view of the block context: the API kernels program against.
pub struct ThreadCtx<'b, 'a> {
    blk: &'b mut BlockCtx<'a>,
    tid: u32,
    /// This thread's op stream, owned for the duration of the thread's
    /// phase closure (taken from and returned to the block's scratch).
    stream: Vec<Op>,
}

macro_rules! atomic_rmw {
    ($(#[$doc:meta])* $name:ident, $t:ty, $op:expr) => {
        $(#[$doc])*
        pub fn $name(&mut self, buf: &DevBuffer<$t>, idx: usize, v: $t) -> $t {
            self.push(Op::GAtom { addr: buf.addr_of(idx) });
            let oob = idx >= buf.len;
            self.observe(
                MemSpace::Global,
                AccessKind::Atomic,
                buf.id as u32,
                idx as u64,
                buf.addr_of(idx),
                std::mem::size_of::<$t>() as u32,
                oob,
            );
            if oob && self.sanitized() {
                return <$t>::default();
            }
            let old = self.blk.mem.load(buf, idx);
            let f: fn($t, $t) -> $t = $op;
            self.blk.mem.store(buf, idx, f(old, v));
            old
        }
    };
}

impl<'b, 'a> ThreadCtx<'b, 'a> {
    #[inline]
    fn push(&mut self, op: Op) {
        // Merge back-to-back compute ops of the same class so stream length
        // tracks instruction slots.
        if let (Op::Comp { class, n }, Some(Op::Comp { class: lc, n: ln })) =
            (op, self.stream.last_mut())
        {
            if *lc == class {
                if let Some(sum) = ln.checked_add(n) {
                    *ln = sum;
                    return;
                }
                // Saturated: start a fresh entry instead of wrapping the
                // lane-op count on very long loops.
            }
        }
        self.stream.push(op);
    }

    /// Report an access to the attached observer, if any.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn observe(
        &self,
        space: MemSpace,
        kind: AccessKind,
        buffer: u32,
        index: u64,
        addr: u64,
        bytes: u32,
        oob: bool,
    ) {
        if let Some(obs) = self.blk.observer {
            obs.observe(AccessEvent::Access(Access {
                launch: self.blk.launch_id,
                block: self.blk.block_idx,
                tid: self.tid,
                phase: self.blk.phases,
                space,
                kind,
                buffer,
                index,
                addr,
                bytes,
                oob,
            }));
        }
    }

    /// True when an observer is attached and `oob` access should be
    /// reported-and-skipped rather than panicking.
    #[inline]
    fn sanitized(&self) -> bool {
        self.blk.observer.is_some()
    }

    /// Thread index within the block.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Global thread index (`blockIdx.x * blockDim.x + threadIdx.x`).
    pub fn gtid(&self) -> u32 {
        self.blk.block_idx * self.blk.block_dim + self.tid
    }

    pub fn block_idx(&self) -> u32 {
        self.blk.block_idx
    }

    pub fn block_dim(&self) -> u32 {
        self.blk.block_dim
    }

    pub fn grid_dim(&self) -> u32 {
        self.blk.grid_dim
    }

    /// Total threads in the grid.
    pub fn grid_threads(&self) -> u32 {
        self.blk.grid_dim * self.blk.block_dim
    }

    // ---- global memory ----

    /// Global load.
    #[inline]
    pub fn ld<T: DevCopy>(&mut self, buf: &DevBuffer<T>, idx: usize) -> T {
        let bytes = std::mem::size_of::<T>() as u32;
        self.push(Op::Gld {
            addr: buf.addr_of(idx),
            bytes,
        });
        let oob = idx >= buf.len;
        self.observe(
            MemSpace::Global,
            AccessKind::Read,
            buf.id as u32,
            idx as u64,
            buf.addr_of(idx),
            bytes,
            oob,
        );
        if oob && self.sanitized() {
            return T::default();
        }
        self.blk.mem.load(buf, idx)
    }

    /// Global store.
    #[inline]
    pub fn st<T: DevCopy>(&mut self, buf: &DevBuffer<T>, idx: usize, v: T) {
        let bytes = std::mem::size_of::<T>() as u32;
        self.push(Op::Gst {
            addr: buf.addr_of(idx),
            bytes,
        });
        let oob = idx >= buf.len;
        self.observe(
            MemSpace::Global,
            AccessKind::Write,
            buf.id as u32,
            idx as u64,
            buf.addr_of(idx),
            bytes,
            oob,
        );
        if oob && self.sanitized() {
            return;
        }
        self.blk.mem.store(buf, idx, v);
    }

    // ---- global atomics ----

    atomic_rmw!(
        /// `atomicAdd` on a `u32` word; returns the old value.
        atomic_add_u32, u32, |a, b| a.wrapping_add(b));
    atomic_rmw!(
        /// `atomicSub` on a `u32` word; returns the old value.
        atomic_sub_u32, u32, |a, b| a.wrapping_sub(b));
    atomic_rmw!(
        /// `atomicMin` on a `u32` word; returns the old value.
        atomic_min_u32, u32, |a, b| a.min(b));
    atomic_rmw!(
        /// `atomicMax` on a `u32` word; returns the old value.
        atomic_max_u32, u32, |a, b| a.max(b));
    atomic_rmw!(
        /// `atomicOr` on a `u32` word; returns the old value.
        atomic_or_u32, u32, |a, b| a | b);
    atomic_rmw!(
        /// `atomicExch` on a `u32` word; returns the old value.
        atomic_exch_u32, u32, |_a, b| b);
    atomic_rmw!(
        /// `atomicAdd` on an `i32` word; returns the old value.
        atomic_add_i32, i32, |a, b| a.wrapping_add(b));
    atomic_rmw!(
        /// `atomicMin` on an `i32` word; returns the old value.
        atomic_min_i32, i32, |a, b| a.min(b));
    atomic_rmw!(
        /// `atomicAdd` on an `f32` word; returns the old value.
        atomic_add_f32, f32, |a, b| a + b);
    atomic_rmw!(
        /// `atomicMin` on an `f32` word; returns the old value.
        atomic_min_f32, f32, |a, b| if b < a { b } else { a });

    /// `atomicCAS` on a `u32` word; returns the old value.
    pub fn atomic_cas_u32(&mut self, buf: &DevBuffer<u32>, idx: usize, cmp: u32, val: u32) -> u32 {
        self.push(Op::GAtom {
            addr: buf.addr_of(idx),
        });
        let oob = idx >= buf.len;
        self.observe(
            MemSpace::Global,
            AccessKind::Atomic,
            buf.id as u32,
            idx as u64,
            buf.addr_of(idx),
            4,
            oob,
        );
        if oob && self.sanitized() {
            return 0;
        }
        let old = self.blk.mem.load(buf, idx);
        if old == cmp {
            self.blk.mem.store(buf, idx, val);
        }
        old
    }

    // ---- global reductions ----

    /// `red.global.add.u32`: add `v` to a `u32` word, returning nothing.
    pub fn red_add_u32(&mut self, buf: &DevBuffer<u32>, idx: usize, v: u32) {
        self.red(buf, idx, RedOp::Add, v);
    }

    /// `red.global.max.u32`: raise a `u32` word to at least `v`, returning
    /// nothing.
    pub fn red_max_u32(&mut self, buf: &DevBuffer<u32>, idx: usize, v: u32) {
        self.red(buf, idx, RedOp::Max, v);
    }

    /// A reduction costs what an atomic costs, but the thread never sees
    /// the old value, so a `parallel_safe` launch may reduce into words
    /// its other blocks reduce into: a sharded pre-execution logs each
    /// shard's reductions and folds them after the shard patches.
    fn red(&mut self, buf: &DevBuffer<u32>, idx: usize, op: RedOp, v: u32) {
        self.push(Op::GAtom {
            addr: buf.addr_of(idx),
        });
        let oob = idx >= buf.len;
        self.observe(
            MemSpace::Global,
            AccessKind::Reduce,
            buf.id as u32,
            idx as u64,
            buf.addr_of(idx),
            4,
            oob,
        );
        if oob && self.sanitized() {
            return;
        }
        self.blk.mem.reduce(buf, idx, op, v);
    }

    // ---- shared memory ----

    /// Shared-memory load.
    pub fn sld<T: DevCopy>(&mut self, s: &SharedBuf<T>, idx: usize) -> T {
        let word = s.word_base + ((idx * std::mem::size_of::<T>()) / 4) as u32;
        self.push(Op::Shm { word });
        let oob = idx >= s.len;
        self.observe_shared(AccessKind::Read, s, idx, oob);
        if oob && self.sanitized() {
            return T::default();
        }
        self.blk.shared_vec(s)[idx]
    }

    /// Shared-memory store.
    pub fn sst<T: DevCopy>(&mut self, s: &SharedBuf<T>, idx: usize, v: T) {
        let word = s.word_base + ((idx * std::mem::size_of::<T>()) / 4) as u32;
        self.push(Op::Shm { word });
        let oob = idx >= s.len;
        self.observe_shared(AccessKind::Write, s, idx, oob);
        if oob && self.sanitized() {
            return;
        }
        self.blk.shared_vec_mut(s)[idx] = v;
    }

    #[inline]
    fn observe_shared<T: DevCopy>(
        &self,
        kind: AccessKind,
        s: &SharedBuf<T>,
        idx: usize,
        oob: bool,
    ) {
        let elem = std::mem::size_of::<T>();
        self.observe(
            MemSpace::Shared,
            kind,
            s.slot as u32,
            idx as u64,
            s.word_base as u64 * 4 + (idx * elem) as u64,
            elem as u32,
            oob,
        );
    }

    /// An explicit `__syncthreads()` *inside* a phase. The structural
    /// barrier at the end of [`BlockCtx::for_each_thread`] is always
    /// uniform; use this to model a conditionally executed barrier — the
    /// sanitizer's barrier-divergence checker compares per-thread counts at
    /// block end, and each executed barrier costs the same as a phase
    /// boundary.
    pub fn sync(&mut self) {
        if self.blk.scratch.syncs.is_empty() {
            self.blk
                .scratch
                .syncs
                .resize(self.blk.block_dim as usize, 0);
        }
        self.blk.scratch.syncs[self.tid as usize] += 1;
    }

    // ---- compute ----

    /// Record `n` FP32 adds/subs/compares.
    #[inline]
    pub fn fp32_add(&mut self, n: u32) {
        self.comp(CompClass::Fp32Add, n);
    }

    /// Record `n` FP32 multiplies.
    #[inline]
    pub fn fp32_mul(&mut self, n: u32) {
        self.comp(CompClass::Fp32Mul, n);
    }

    /// Record `n` FP32 fused multiply-adds (2 FLOPs each).
    #[inline]
    pub fn fma32(&mut self, n: u32) {
        self.comp(CompClass::Fp32Fma, n);
    }

    /// Record `n` FP64 operations.
    #[inline]
    pub fn fp64(&mut self, n: u32) {
        self.comp(CompClass::Fp64, n);
    }

    /// Record `n` integer/logic/address ops.
    #[inline]
    pub fn int_op(&mut self, n: u32) {
        self.comp(CompClass::Int, n);
    }

    /// Record `n` special-function ops (sqrt, sin, exp, 1/x ...).
    #[inline]
    pub fn sfu(&mut self, n: u32) {
        self.comp(CompClass::Sfu, n);
    }

    /// Record `n` conflict-free shared-memory accesses in aggregate. Use
    /// this for tight tile loops together with [`ThreadCtx::shared_get`];
    /// for conflict-sensitive patterns use [`ThreadCtx::sld`]/[`ThreadCtx::sst`]
    /// which analyze banks per access.
    #[inline]
    pub fn smem(&mut self, n: u32) {
        self.comp(CompClass::Shared, n);
    }

    /// Functional read of shared memory with no trace recording; pair with
    /// [`ThreadCtx::smem`] to account for the traffic in aggregate. Still
    /// visible to the sanitizer's observer.
    pub fn shared_get<T: DevCopy>(&self, s: &SharedBuf<T>, idx: usize) -> T {
        let oob = idx >= s.len;
        self.observe_shared(AccessKind::Read, s, idx, oob);
        if oob && self.sanitized() {
            return T::default();
        }
        self.blk.shared_vec(s)[idx]
    }

    /// Functional write of shared memory with no trace recording; pair with
    /// [`ThreadCtx::smem`]. Still visible to the sanitizer's observer.
    pub fn shared_set<T: DevCopy>(&mut self, s: &SharedBuf<T>, idx: usize, v: T) {
        let oob = idx >= s.len;
        self.observe_shared(AccessKind::Write, s, idx, oob);
        if oob && self.sanitized() {
            return;
        }
        self.blk.shared_vec_mut(s)[idx] = v;
    }

    #[inline]
    fn comp(&mut self, class: CompClass, n: u32) {
        if n > 0 {
            self.push(Op::Comp { class, n });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CompClass;

    /// The phase-end reduction `for_each_thread` made before warps were
    /// reduced as their last lane finished: every thread's stream of the
    /// phase is recorded, then the streams are folded warp by warp. Kept
    /// as the oracle for `prop_warp_at_a_time_matches_the_phase_end_reduction`.
    fn reference_for_each_thread<'a>(
        blk: &mut BlockCtx<'a>,
        mut f: impl FnMut(&mut ThreadCtx<'_, 'a>),
    ) {
        let mut streams = Vec::with_capacity(blk.block_dim as usize);
        for tid in 0..blk.block_dim {
            let mut tc = ThreadCtx {
                blk: &mut *blk,
                tid,
                stream: Vec::new(),
            };
            f(&mut tc);
            streams.push(tc.stream);
        }
        let mut cache = if blk.cache_on {
            blk.scratch.cache.as_mut()
        } else {
            None
        };
        for warp in streams.chunks(32) {
            reduce_warp_cached(
                warp,
                &mut blk.cost,
                &mut blk.scratch.warp,
                cache.as_deref_mut(),
            );
        }
        blk.end_phase();
    }

    fn with_block<R>(block_dim: u32, f: impl FnOnce(&mut BlockCtx) -> R) -> (R, BlockCost) {
        let mut mem = GlobalMem::new();
        let mut blk = BlockCtx::new(&mut mem, 0, 1, block_dim);
        let r = f(&mut blk);
        (r, blk.into_cost())
    }

    #[test]
    fn thread_ids_and_dims() {
        let ((), cost) = with_block(64, |blk| {
            let mut seen = Vec::new();
            blk.for_each_thread(|t| {
                seen.push((t.tid(), t.gtid(), t.block_dim(), t.grid_dim()));
            });
            assert_eq!(seen.len(), 64);
            assert_eq!(seen[5], (5, 5, 64, 1));
        });
        assert_eq!(cost.threads, 64);
        assert_eq!(cost.warps, 2);
    }

    #[test]
    fn global_roundtrip_through_threads() {
        let mut mem = GlobalMem::new();
        let buf = mem.alloc::<u32>(32);
        let mut blk = BlockCtx::new(&mut mem, 0, 1, 32);
        blk.for_each_thread(|t| {
            let i = t.tid() as usize;
            t.st(&buf, i, t.tid() * 2);
        });
        blk.for_each_thread(|t| {
            let i = t.tid() as usize;
            let v = t.ld(&buf, i);
            assert_eq!(v, t.tid() * 2);
        });
        let cost = blk.into_cost();
        // Coalesced store + coalesced load -> 2 transactions total.
        assert_eq!(cost.transactions, 2);
        assert_eq!(cost.barriers, 1); // second phase adds a barrier
        assert_eq!(mem.slice(&buf)[7], 14);
    }

    #[test]
    fn cache_enabled_block_reports_tier_counters() {
        let mut mem = GlobalMem::new();
        let buf = mem.alloc::<u32>(32);
        let mut blk = BlockCtx::new(&mut mem, 0, 1, 32);
        blk.enable_cache(&CacheConfig::k20());
        blk.for_each_thread(|t| {
            let i = t.tid() as usize;
            t.st(&buf, i, t.tid());
        });
        blk.for_each_thread(|t| {
            let i = t.tid() as usize;
            let _ = t.ld(&buf, i);
        });
        let cost = blk.into_cost();
        // The store allocates the warp's 4 sectors in L2 (write-allocate,
        // no fetch), the reload hits them there, and finish() writes the
        // dirty sectors back.
        assert_eq!(cost.l2_hits, 4);
        assert_eq!(cost.dram_transactions, 4);
        // The flat-model fields are untouched by the cache.
        assert_eq!(cost.transactions, 2);

        // Without enable_cache the counters stay zero.
        let mut plain = BlockCtx::new(&mut mem, 0, 1, 32);
        plain.for_each_thread(|t| {
            let i = t.tid() as usize;
            let _ = t.ld(&buf, i);
        });
        let pc = plain.into_cost();
        assert_eq!(pc.l1_hits + pc.l2_hits + pc.dram_transactions, 0);
    }

    #[test]
    fn shared_memory_across_phases() {
        let ((), _cost) = with_block(32, |blk| {
            let sh = blk.shared_alloc::<u32>(32);
            blk.for_each_thread(|t| {
                let i = t.tid() as usize;
                t.sst(&sh, i, t.tid() + 100);
            });
            // Reversed consumption only works because of the barrier.
            blk.for_each_thread(|t| {
                let i = 31 - t.tid() as usize;
                assert_eq!(t.sld(&sh, i), 31 - t.tid() + 100);
            });
        });
    }

    #[test]
    fn atomic_add_accumulates_across_threads() {
        let mut mem = GlobalMem::new();
        let buf = mem.alloc::<u32>(1);
        let mut blk = BlockCtx::new(&mut mem, 0, 1, 128);
        blk.for_each_thread(|t| {
            t.atomic_add_u32(&buf, 0, 1);
        });
        let cost = blk.into_cost();
        assert_eq!(mem.slice(&buf)[0], 128);
        assert_eq!(cost.atomics, 128);
    }

    #[test]
    fn atomic_cas_first_writer_wins() {
        let mut mem = GlobalMem::new();
        let buf = mem.alloc_init::<u32>(1, u32::MAX);
        let mut blk = BlockCtx::new(&mut mem, 0, 1, 16);
        let mut winners = 0;
        blk.for_each_thread(|t| {
            if t.atomic_cas_u32(&buf, 0, u32::MAX, t.tid()) == u32::MAX {
                winners += 1;
            }
        });
        assert_eq!(winners, 1);
        assert_eq!(mem.slice(&buf)[0], 0); // thread 0 ran first
    }

    #[test]
    fn atomic_min_and_max() {
        let mut mem = GlobalMem::new();
        let lo = mem.alloc_init::<u32>(1, u32::MAX);
        let hi = mem.alloc::<u32>(1);
        let mut blk = BlockCtx::new(&mut mem, 0, 1, 32);
        blk.for_each_thread(|t| {
            t.atomic_min_u32(&lo, 0, 100 - t.tid());
            t.atomic_max_u32(&hi, 0, t.tid());
        });
        assert_eq!(mem.slice(&lo)[0], 69);
        assert_eq!(mem.slice(&hi)[0], 31);
    }

    #[test]
    fn atomic_f32_add() {
        let mut mem = GlobalMem::new();
        let acc = mem.alloc::<f32>(1);
        let mut blk = BlockCtx::new(&mut mem, 0, 1, 64);
        blk.for_each_thread(|t| {
            t.atomic_add_f32(&acc, 0, 0.5);
        });
        assert!((mem.slice(&acc)[0] - 32.0).abs() < 1e-6);
    }

    #[test]
    fn compute_ops_merge_in_stream() {
        let ((), cost) = with_block(32, |blk| {
            blk.for_each_thread(|t| {
                for _ in 0..10 {
                    t.fma32(1);
                }
                t.int_op(3);
            });
        });
        assert_eq!(cost.lane_ops[CompClass::Fp32Fma.idx()], 320);
        assert_eq!(cost.lane_ops[CompClass::Int.idx()], 96);
        // Merged: one fma slot-run of 10 + one int run of 3 -> 13 slots.
        assert_eq!(cost.slots, 13);
    }

    #[test]
    fn compute_merge_saturates_instead_of_wrapping() {
        let ((), cost) = with_block(1, |blk| {
            blk.for_each_thread(|t| {
                t.int_op(u32::MAX - 2);
                t.int_op(10); // would wrap a u32 slot count
            });
        });
        // The merge split at the saturation point instead of wrapping (or
        // panicking): the full total survives in the 64-bit counters.
        assert_eq!(cost.slots, u32::MAX as u64 + 8);
        assert_eq!(cost.lane_ops[CompClass::Int.idx()], u32::MAX as u64 + 8);
    }

    #[test]
    fn explicit_sync_costs_like_a_barrier() {
        let ((), plain) = with_block(64, |blk| {
            blk.for_each_thread(|t| t.int_op(1));
        });
        let ((), synced) = with_block(64, |blk| {
            blk.for_each_thread(|t| {
                t.int_op(1);
                t.sync();
                t.sync();
            });
        });
        assert_eq!(plain.barriers, 0);
        assert_eq!(synced.barriers, 2);
        assert!(synced.issue_cycles > plain.issue_cycles);
    }

    #[test]
    fn divergent_exit_shows_in_cost() {
        let ((), cost) = with_block(32, |blk| {
            blk.for_each_thread(|t| {
                if t.tid() < 8 {
                    t.fma32(20);
                }
            });
        });
        assert!(cost.divergence() > 0.7);
    }

    #[test]
    fn zero_count_compute_ignored() {
        let ((), cost) = with_block(32, |blk| {
            blk.for_each_thread(|t| t.fma32(0));
        });
        assert_eq!(cost.slots, 0);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn oversized_block_rejected() {
        let mut mem = GlobalMem::new();
        let _ = BlockCtx::new(&mut mem, 0, 1, 2048);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Run a random block of `block_dim` threads and `phases` phases
        /// through `for_each_thread`, or through the reference, and return
        /// its cost as bits and the memory image's fingerprint. Most lanes
        /// share each stream slot's op kind so warps form full
        /// instructions; some lanes take another kind (mixed kinds at one
        /// slot), stream lengths vary per thread, and some threads `sync`.
        fn run_random_block(
            seed: u64,
            block_dim: u32,
            phases: u32,
            cache: Option<&CacheConfig>,
            reference: bool,
        ) -> (Vec<u64>, [u64; 2]) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            const N: usize = 4096;
            let mut mem = GlobalMem::new();
            let g = mem.alloc::<u32>(N);
            let fl = mem.alloc::<f32>(N);
            let mut blk = BlockCtx::new(&mut mem, 0, 1, block_dim);
            if let Some(cc) = cache {
                blk.enable_cache(cc);
            }
            let sh = blk.shared_alloc::<u32>(1024);
            for phase in 0..phases as u64 {
                let body = |t: &mut ThreadCtx<'_, '_>| {
                    let tid = t.tid() as usize;
                    let mut lane = SmallRng::seed_from_u64(seed ^ phase << 48 ^ tid as u64);
                    let len = lane.gen_range(0..12);
                    for slot in 0..len {
                        let mut kind = SmallRng::seed_from_u64(seed ^ phase << 48 ^ slot << 32)
                            .gen_range(0..10);
                        if lane.gen_bool(0.2) {
                            kind = lane.gen_range(0..10);
                        }
                        let idx = match lane.gen_range(0..3) {
                            0 => tid,
                            1 => tid * 33,
                            _ => lane.gen_range(0..N),
                        } % N;
                        match kind {
                            0 => drop(t.ld(&g, idx)),
                            1 => t.st(&g, idx, tid as u32),
                            2 => drop(t.ld(&fl, idx)),
                            3 => t.st(&fl, idx, -0.5 * tid as f32),
                            4 => drop(t.atomic_add_u32(&g, idx % 64, 1)),
                            5 => drop(t.sld(&sh, idx % 1024)),
                            6 => t.sst(&sh, idx % 1024, slot as u32),
                            7 => t.fma32(lane.gen_range(1..4)),
                            8 => t.sfu(1),
                            _ => t.sync(),
                        }
                    }
                };
                if reference {
                    reference_for_each_thread(&mut blk, body);
                } else {
                    blk.for_each_thread(body);
                }
            }
            let cost = blk.into_cost();
            (
                crate::trace::cost_to_words(&cost).to_vec(),
                mem.fingerprint().unwrap(),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// For any access pattern, DRAM traffic covers the useful bytes
            /// and the divergence fraction stays in [0, 1].
            #[test]
            fn prop_cost_invariants(
                idxs in proptest::collection::vec(0usize..4096, 1..256),
                block_dim in 1u32..=256,
            ) {
                let mut mem = GlobalMem::new();
                let buf = mem.alloc::<u32>(4096);
                let mut blk = BlockCtx::new(&mut mem, 0, 1, block_dim);
                blk.for_each_thread(|t| {
                    let i = t.tid() as usize;
                    if i < idxs.len() {
                        let _ = t.ld(&buf, idxs[i]);
                        t.int_op((i % 5) as u32 + 1);
                    }
                });
                let cost = blk.into_cost();
                prop_assert!(cost.dram_bytes >= cost.useful_bytes);
                prop_assert!(cost.issue_cycles > 0.0);
                let d = cost.divergence();
                prop_assert!((0.0..=1.0).contains(&d), "divergence {}", d);
                prop_assert!(cost.ideal_transactions <= cost.transactions);
            }

            /// Atomics functionally accumulate regardless of the pattern.
            #[test]
            fn prop_atomic_add_sums(adds in proptest::collection::vec(1u32..100, 1..128)) {
                let mut mem = GlobalMem::new();
                let acc = mem.alloc::<u32>(1);
                let dim = adds.len() as u32;
                let mut blk = BlockCtx::new(&mut mem, 0, 1, dim);
                blk.for_each_thread(|t| {
                    t.atomic_add_u32(&acc, 0, adds[t.tid() as usize]);
                });
                let expect: u32 = adds.iter().sum();
                prop_assert_eq!(mem.slice(&acc)[0], expect);
            }

            /// Reducing each warp as its last lane returns gives the block
            /// cost, f64 fields by bits and tier counters included, and
            /// the memory image that the phase-end reduction gives.
            #[test]
            fn prop_warp_at_a_time_matches_the_phase_end_reduction(
                seed in 0u64..u64::MAX,
                block_dim in 1u32..=1024,
                phases in 1u32..=3,
            ) {
                for cache in [None, Some(CacheConfig::k20())] {
                    let [new, reference] = [false, true].map(|reference| {
                        run_random_block(seed, block_dim, phases, cache.as_ref(), reference)
                    });
                    prop_assert_eq!(new, reference, "cache model: {}", cache.is_some());
                }
            }

            /// Shared memory round-trips any permutation across a barrier.
            #[test]
            fn prop_shared_roundtrip(perm_seed in 0u64..1000) {
                use rand::seq::SliceRandom;
                use rand::SeedableRng;
                let mut r = rand::rngs::SmallRng::seed_from_u64(perm_seed);
                let mut perm: Vec<usize> = (0..64).collect();
                perm.shuffle(&mut r);
                let mut mem = GlobalMem::new();
                let mut blk = BlockCtx::new(&mut mem, 0, 1, 64);
                let sh = blk.shared_alloc::<u32>(64);
                blk.for_each_thread(|t| {
                    let i = t.tid() as usize;
                    t.sst(&sh, perm[i], i as u32 * 3);
                });
                blk.for_each_thread(|t| {
                    let i = t.tid() as usize;
                    let got = t.sld(&sh, perm[i]);
                    assert_eq!(got, i as u32 * 3);
                });
            }
        }
    }
}
