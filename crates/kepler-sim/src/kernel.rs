//! The kernel abstraction: what a GPU "global function" looks like to the
//! simulator.

use crate::block::BlockCtx;
use crate::buffer::DevBuffer;
use crate::footprint::KernelFootprint;

/// Static resource usage of a kernel, used for the occupancy calculation
/// (how many blocks fit on one SM simultaneously).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    /// Registers per thread (the K20c has 65,536 per SM).
    pub regs_per_thread: u32,
    /// Static shared memory per block, bytes (48 KiB per SM).
    pub shared_bytes: u32,
}

impl Default for KernelResources {
    fn default() -> Self {
        Self {
            regs_per_thread: 32,
            shared_bytes: 0,
        }
    }
}

/// A GPU kernel. `run_block` is called once per block, *at the simulated
/// time the block is dispatched to an SM*, with a [`BlockCtx`] that provides
/// the CUDA-like thread API and records the block's trace.
///
/// Blocks of the same launch therefore observe global-memory side effects of
/// blocks dispatched before them — which is how the simulator models the
/// intra-kernel data races and timing-dependent behaviour of irregular
/// codes.
///
/// Kernels whose blocks are *independent* of dispatch order can opt out of
/// that serialization via [`Kernel::parallel_safe`], which lets the device
/// pre-execute the whole grid (sharded over worker threads) ahead of
/// scheduling, and makes the launch recordable, so a recorded trace can
/// replay its block costs under any configuration (see `docs/PERF.md`).
///
/// `Sync` is a supertrait so a `&dyn Kernel` can be shared with the
/// pre-execution workers; kernels are plain parameter structs, so this is
/// automatic in practice.
pub trait Kernel: Sync {
    /// Kernel name (for stats and reports).
    fn name(&self) -> &'static str {
        "kernel"
    }

    /// Display name recorded in [`crate::LaunchStats`]. Defaults to
    /// [`Kernel::name`]; override to attach a dynamically built name (an
    /// owned `String`) without needing a leaked `&'static str`.
    fn display_name(&self) -> std::borrow::Cow<'static, str> {
        std::borrow::Cow::Borrowed(self.name())
    }

    /// Resource usage for the occupancy calculation.
    fn resources(&self) -> KernelResources {
        KernelResources::default()
    }

    /// Execute one block functionally, recording its trace.
    fn run_block(&self, blk: &mut BlockCtx);

    /// Whether this kernel's blocks may be executed out of dispatch order.
    ///
    /// Returning `true` is a contract with three clauses, all about *global*
    /// memory within a single launch:
    ///
    /// 1. no block reads a location that another block of the same launch
    ///    writes (reading your *own* earlier writes is fine);
    /// 2. no value-returning global atomics, and a `red` target
    ///    ([`crate::ThreadCtx::red_add_u32`], [`crate::ThreadCtx::red_max_u32`])
    ///    is not otherwise read or written in the launch (an atomic's old
    ///    value depends on which blocks ran before it; a `red` returns
    ///    nothing, and integer add and max reach the same value in any
    ///    order, so shards may log their reductions and fold them later);
    /// 3. `run_block` is a pure function of the kernel's parameters, the
    ///    launch geometry and the pre-launch memory image — no interior
    ///    mutability, I/O or other hidden state.
    ///
    /// Under the contract, executing blocks in any order (or concurrently on
    /// separate memory shards) is bit-identical to exec-at-dispatch, so the
    /// device may pre-execute the grid and schedule its costs afterwards,
    /// and a recorded trace of them replays under any configuration. Kernels that violate the contract while claiming it will
    /// produce wrong results *deterministically* — the serial-vs-parallel
    /// equivalence tests catch this. Default: `false` (exec-at-dispatch,
    /// the right choice for every irregular/racy kernel).
    fn parallel_safe(&self) -> bool {
        false
    }

    /// Scalar launch parameters that influence `run_block` but are not
    /// stored in device memory (problem dims, scaling constants, iteration
    /// counters, ...), folded into the launch identity a trace records.
    ///
    /// Kernels returning `true` from [`Kernel::parallel_safe`] MUST list
    /// every such field here (floats via `to_bits()`): two launches with
    /// equal kernel name, geometry, memory image and `params` are assumed
    /// to execute identically. Irrelevant for exec-at-dispatch kernels.
    fn params(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Optionally declare the launch's global-memory access footprint (per
    /// block, as strided element spans — see [`crate::footprint`]).
    ///
    /// A declaration lets the static analyzer *prove* clauses 1–2 of the
    /// [`Kernel::parallel_safe`] contract instead of trusting the opt-in,
    /// and feeds the static boundedness classifier; the sanitizer's
    /// footprint observer checks every observed access against it, so a
    /// wrong declaration cannot survive the test suite. Purely
    /// descriptive: the simulator's execution and timing are unaffected.
    /// Default: `None` (undeclared).
    fn footprint(&self, grid: u32, block_threads: u32) -> Option<KernelFootprint> {
        let _ = (grid, block_threads);
        None
    }
}

/// Builder for [`Kernel::params`]: folds buffer bindings and scalar
/// parameters into the cache-key vector with a uniform encoding.
///
/// Fold every `DevBuffer` field with [`ParamKey::buf`] — buffers are
/// identified by base address, which distinguishes e.g. the two directions
/// of a ping-pong pair even when their *contents* happen to coincide — and
/// every scalar with [`ParamKey::u`] / [`ParamKey::f`].
#[derive(Default)]
pub struct ParamKey(Vec<u64>);

impl ParamKey {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold a buffer binding (identity, not contents — the memory image
    /// fingerprint covers contents).
    pub fn buf<T>(mut self, b: &DevBuffer<T>) -> Self {
        self.0.push(b.addr_of(0));
        self
    }

    /// Fold an integer scalar.
    pub fn u(mut self, v: u64) -> Self {
        self.0.push(v);
        self
    }

    /// Fold an `f32` scalar, bitwise.
    pub fn f(mut self, v: f32) -> Self {
        self.0.push(v.to_bits() as u64);
        self
    }

    /// Fold an `f64` scalar, bitwise. Use this for double-precision
    /// parameters — folding them through [`ParamKey::f`] via `as f32`
    /// would collide distinct values that round to the same single.
    pub fn f64(mut self, v: f64) -> Self {
        self.0.push(v.to_bits());
        self
    }

    pub fn done(self) -> Vec<u64> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Kernel for Nop {
        fn run_block(&self, _blk: &mut BlockCtx) {}
    }

    #[test]
    fn default_name_and_resources() {
        let k = Nop;
        assert_eq!(k.name(), "kernel");
        assert_eq!(k.display_name(), "kernel");
        assert_eq!(k.resources().regs_per_thread, 32);
        assert_eq!(k.resources().shared_bytes, 0);
        // Exec-at-dispatch is the default: opting into pre-execution is an
        // explicit, per-kernel statement.
        assert!(!k.parallel_safe());
        assert!(k.params().is_empty());
        // Footprints are opt-in too.
        assert!(k.footprint(4, 128).is_none());
    }

    #[test]
    fn param_key_f64_is_bitwise() {
        // Two doubles that collide when rounded to f32 must produce
        // distinct keys through the f64 fold.
        let a = 1.000_000_000_1_f64;
        let b = 1.000_000_000_2_f64;
        assert_eq!(a as f32, b as f32, "test premise: f32 rounding collides");
        let ka = ParamKey::new().f64(a).done();
        let kb = ParamKey::new().f64(b).done();
        assert_ne!(ka, kb);
        assert_eq!(ka, vec![a.to_bits()]);
        // And the f32 fold keeps its historical encoding.
        assert_eq!(ParamKey::new().f(1.5).done(), vec![1.5f32.to_bits() as u64]);
    }

    #[test]
    fn display_name_can_be_owned() {
        struct Named(String);
        impl Kernel for Named {
            fn display_name(&self) -> std::borrow::Cow<'static, str> {
                std::borrow::Cow::Owned(self.0.clone())
            }
            fn run_block(&self, _blk: &mut BlockCtx) {}
        }
        let k = Named("from-cli".to_string());
        assert_eq!(k.display_name(), "from-cli");
        assert_eq!(k.name(), "kernel"); // default untouched
    }
}
