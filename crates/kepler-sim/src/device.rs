//! The simulated GPU device: memory management, kernel launches, the
//! simulated clock, and the ground-truth power trace.

use crate::access::{AccessEvent, AccessObserver};
use crate::block::{BlockCtx, ExecScratch};
use crate::buffer::{DevBuffer, DevCopy, GlobalMem, Patch};
use crate::config::DeviceConfig;
use crate::cost::BlockCost;
use crate::counters::{KernelCounters, LaunchStats};
use crate::footprint::{LaunchInspector, LaunchSummary};
use crate::kernel::{Kernel, KernelResources};
use crate::mem::CacheConfig;
use crate::occupancy::resident_blocks;
use crate::scheduler::{dispatch_order, run_launch_pooled, SchedScratch};
use crate::trace::LaunchKey;
use gpower::PowerTrace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_telemetry::{BoardPhase, Event, TelemetrySink};
use std::borrow::Cow;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide count of simulated program runs (one per [`Device`]
/// constructed). The campaign layer uses this as an independent witness
/// that a cached measurement really skipped the simulator: a cache hit
/// leaves the counter untouched.
static DEVICES_CREATED: AtomicU64 = AtomicU64::new(0);

/// Total number of [`Device`]s constructed by this process so far.
pub fn devices_created() -> u64 {
    DEVICES_CREATED.load(Ordering::Relaxed)
}

/// Process-wide count of trace replays (one per
/// [`crate::trace::TraceReplayDevice`] constructed). Deliberately separate
/// from [`devices_created`]: a replay re-simulates timing/power without
/// functional execution, so cache-hit witnesses must not see it as a
/// simulation.
static DEVICES_REPLAYED: AtomicU64 = AtomicU64::new(0);

/// Total number of trace-replay devices constructed by this process so far.
pub fn devices_replayed() -> u64 {
    DEVICES_REPLAYED.load(Ordering::Relaxed)
}

/// Worker threads used to shard pre-executed launches; 0 means "one per
/// available core". Set once at startup from `repro --jobs`.
static EXEC_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-default worker count for pre-executed launches
/// (`repro --jobs N`). `0` restores the default of one worker per core.
/// Results are bit-identical for every value — this is purely a wall-clock
/// / CPU-occupancy knob.
pub fn set_exec_jobs(n: usize) {
    EXEC_JOBS.store(n, Ordering::Relaxed);
}

/// The effective pre-execution worker count. The core count is read once:
/// `available_parallelism` re-reads the cgroup limits on every call.
pub fn exec_jobs() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    match EXEC_JOBS.load(Ordering::Relaxed) {
        0 => *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }),
        n => n,
    }
}

/// Launches pre-executed since process start or the last
/// [`reset_exec_cache`].
static PRE_EXECUTED: AtomicU64 = AtomicU64::new(0);

/// `(0, n)`, where `n` launches were pre-executed since process start or
/// the last [`reset_exec_cache`]. Nothing is a hit: recorded traces, not a
/// launch cache, reuse functional work across configurations. Kept, with
/// its signature, only because the repository benchmark links it.
pub fn exec_cache_stats() -> (u64, u64) {
    (0, PRE_EXECUTED.load(Ordering::Relaxed))
}

/// Zero the count [`exec_cache_stats`] reports. Kept only because the
/// repository benchmark links it.
pub fn reset_exec_cache() {
    PRE_EXECUTED.store(0, Ordering::Relaxed);
}

/// How a device functionally executes the blocks of a launch whose kernel
/// declares [`Kernel::parallel_safe`]. (Kernels that don't always use
/// [`ExecStrategy::AtDispatch`] — that ordering *is* their semantics.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStrategy {
    /// Run the blocks serially in dispatch order against the live memory
    /// image, even if the kernel permits reordering.
    AtDispatch,
    /// Pre-execute the whole grid ahead of scheduling — in dispatch order
    /// with one worker, sharded over `jobs` worker threads otherwise — and
    /// schedule its per-block costs; a pre-executed launch is recordable
    /// ([`crate::trace`]). Bit-identical to [`ExecStrategy::AtDispatch`]
    /// under the `parallel_safe` contract, for any `jobs >= 1`.
    PreExec {
        /// Worker threads for the functional execution.
        jobs: usize,
    },
}

/// Run one block functionally and return its cost, threading the pooled
/// scratch through; `observer` (with the launch ordinal) watches its
/// accesses when given.
#[allow(clippy::too_many_arguments)]
fn exec_one_block(
    kernel: &dyn Kernel,
    mem: &mut GlobalMem,
    block_idx: u32,
    grid: u32,
    block_threads: u32,
    scratch: &mut ExecScratch,
    cache: Option<&CacheConfig>,
    observer: Option<(&dyn AccessObserver, u32)>,
) -> BlockCost {
    let mut blk =
        BlockCtx::with_scratch(mem, block_idx, grid, block_threads, std::mem::take(scratch));
    if let Some(cc) = cache {
        blk.enable_cache(cc);
    }
    if let Some((obs, launch)) = observer {
        blk.attach_observer(obs, launch);
    }
    kernel.run_block(&mut blk);
    let (cost, s) = blk.finish();
    *scratch = s;
    cost
}

/// Where the launch core takes a launch's per-block costs from.
pub(crate) enum CostSource<'a> {
    /// Functional execution of a live kernel: sharded pre-execution, or the
    /// blocks run in dispatch order against the live memory image.
    Kernel(&'a dyn Kernel),
    /// A recorded cost stream, indexed by block (trace replay).
    Recorded(&'a [BlockCost]),
}

/// Per-launch options.
#[derive(Debug, Clone, Copy)]
pub struct LaunchOpts {
    /// Extrapolation factor: the functionally executed grid represents
    /// `work_multiplier` times as much (homogeneous) work at paper scale.
    /// Timing, energy and counters are scaled accordingly.
    pub work_multiplier: f64,
}

impl Default for LaunchOpts {
    fn default() -> Self {
        Self {
            work_multiplier: 1.0,
        }
    }
}

/// A simulated Tesla K20c.
///
/// A `Device` models one *program run*: construct it, allocate buffers,
/// launch kernels (possibly in host-driven loops with [`Device::read`]
/// between launches), then call [`Device::finish`] to obtain the
/// ground-truth power trace — including the idle lead-in and the driver's
/// tail-power window — ready for the emulated sensor.
pub struct Device {
    cfg: DeviceConfig,
    mem: GlobalMem,
    trace: PowerTrace,
    rng: SmallRng,
    launches: Vec<LaunchStats>,
    telemetry: Option<Arc<dyn TelemetrySink>>,
    access: Option<Arc<dyn AccessObserver>>,
    inspector: Option<Arc<dyn LaunchInspector>>,
    /// Pooled execution scratch reused by every serially executed block of
    /// every launch on this device.
    scratch: ExecScratch,
    /// Pooled scheduler working memory reused by every launch, making the
    /// fluid loop's steady state allocation-free.
    sched: SchedScratch,
    /// Pooled dispatch-order buffer, refilled by every launch.
    order: Vec<u32>,
    /// Per-device execution strategy override; `None` follows the process
    /// default (`PreExec` with [`exec_jobs`] workers).
    exec: Option<ExecStrategy>,
    /// Attached trace recorder (see [`crate::trace`]); purely passive.
    recorder: Option<Arc<crate::trace::TraceRecorder>>,
}

/// Idle time recorded before the first kernel, seconds. Gives the
/// measurement tool an unambiguous idle level, like a real run.
pub const LEAD_IN_S: f64 = 3.0;
/// Idle time recorded after the tail, seconds.
pub const LEAD_OUT_S: f64 = 3.0;
/// Duration of the decay step between the driver tail and idle, seconds
/// (held at 40% of the gap overhead; see [`Device::finish`]).
pub const TAIL_DECAY_S: f64 = 0.5;

impl Device {
    pub fn new(cfg: DeviceConfig) -> Self {
        DEVICES_CREATED.fetch_add(1, Ordering::Relaxed);
        Self::build(cfg)
    }

    /// Construct a device for trace replay: identical perturbation model and
    /// RNG seeding to [`Device::new`] (so a replay under the same config and
    /// jitter seed is bit-identical to a live run), but counted under
    /// [`devices_replayed`] instead of [`devices_created`].
    pub(crate) fn new_replay(cfg: DeviceConfig) -> Self {
        DEVICES_REPLAYED.fetch_add(1, Ordering::Relaxed);
        Self::build(cfg)
    }

    fn build(mut cfg: DeviceConfig) -> Self {
        // Run-to-run perturbations a real board shows between repetitions:
        // a small thermal drift of the dynamic power and a tiny effective
        // clock wobble. Seeded by jitter_seed so repetitions differ the way
        // the paper's Table 2 reports.
        {
            let mut r = SmallRng::seed_from_u64(cfg.jitter_seed ^ 0x007E_4A11_u64);
            let thermal = 1.0 + 0.012 * (r.gen::<f64>() - 0.5) * 2.0;
            let p = &mut cfg.power;
            for e in [
                &mut p.e_fp32_add,
                &mut p.e_fp32_mul,
                &mut p.e_fp32_fma,
                &mut p.e_fp64,
                &mut p.e_int,
                &mut p.e_sfu,
                &mut p.e_shared,
                &mut p.e_dram_byte,
                &mut p.e_txn,
                &mut p.e_atomic,
                &mut p.e_idle_lane,
                &mut p.active_overhead_w,
            ] {
                *e *= thermal;
            }
            let wobble = 1.0 + 0.006 * (r.gen::<f64>() - 0.5) * 2.0;
            cfg.clocks.core_mhz *= wobble;
            cfg.dram_peak_bps *= 2.0 - wobble;
        }
        let mut trace = PowerTrace::new();
        trace.push(LEAD_IN_S, cfg.power.idle_w);
        // The seed folds in the clock configuration: co-resident block
        // interleaving on real hardware shifts with the clocks, which is
        // how a frequency change perturbs racy (irregular) kernels.
        let clock_hash =
            (cfg.clocks.core_mhz as u64) << 20 ^ (cfg.clocks.mem_mhz as u64) << 4 ^ cfg.ecc as u64;
        let rng = SmallRng::seed_from_u64(cfg.jitter_seed ^ clock_hash ^ 0xD1CE_5EED);
        Self {
            cfg,
            mem: GlobalMem::new(),
            trace,
            rng,
            launches: Vec::new(),
            telemetry: None,
            access: None,
            inspector: None,
            scratch: ExecScratch::default(),
            sched: SchedScratch::default(),
            order: Vec::new(),
            exec: None,
            recorder: None,
        }
    }

    /// Attach a trace recorder (see [`crate::trace::TraceRecorder`]). The
    /// recorder observes launches and host gaps without perturbing
    /// execution, RNG draws or results; launches that cannot take the
    /// pre-execution path mark the recording ineligible.
    pub fn set_trace_recorder(&mut self, rec: Arc<crate::trace::TraceRecorder>) {
        self.recorder = Some(rec);
    }

    /// Override how `parallel_safe` launches execute on this device (the
    /// equivalence tests pin both sides of the comparison with this).
    /// Without an override the device follows the process default:
    /// `PreExec { jobs: exec_jobs() }`.
    pub fn set_exec_strategy(&mut self, strategy: ExecStrategy) {
        self.exec = Some(strategy);
    }

    /// Attach a telemetry sink. Call right after [`Device::new`] for full
    /// coverage: the sink immediately receives a `ConfigSnapshot` of the
    /// run's clock/ECC configuration plus `BoardInterval`s covering
    /// whatever the trace already holds (the idle lead-in, when attached at
    /// construction), and every subsequent launch, host gap and the finish
    /// tail emit their structured events. Without a sink the simulator's
    /// instrumented paths cost one branch each.
    pub fn set_telemetry(&mut self, sink: Arc<dyn TelemetrySink>) {
        sink.record(Event::ConfigSnapshot {
            t: self.trace.end_time(),
            core_mhz: self.cfg.clocks.core_mhz,
            mem_mhz: self.cfg.clocks.mem_mhz,
            ecc: self.cfg.ecc,
        });
        // Retroactively cover segments recorded before attachment, so the
        // event stream's interval energy still reconciles with the trace.
        for seg in self.trace.segments() {
            let phase = if (seg.watts - self.cfg.power.idle_w).abs() < 1e-9 {
                BoardPhase::Idle
            } else {
                BoardPhase::Gap
            };
            sink.record(Event::BoardInterval {
                t0: seg.t0,
                t1: seg.t1,
                watts: seg.watts,
                phase,
            });
        }
        self.telemetry = Some(sink);
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<dyn TelemetrySink>> {
        self.telemetry.as_ref()
    }

    /// Attach an access observer (the sanitizer hook). Call right after
    /// [`Device::new`], before allocating buffers, so the observer sees
    /// every buffer's lifecycle; buffers allocated before attachment are
    /// simply unknown to it. With an observer attached, out-of-bounds
    /// accesses are reported and skipped instead of panicking (see
    /// [`crate::access`]); everything else about the run is unchanged.
    pub fn set_access_observer(&mut self, obs: Arc<dyn AccessObserver>) {
        self.access = Some(obs);
    }

    /// The attached access observer, if any.
    pub fn access_observer(&self) -> Option<&Arc<dyn AccessObserver>> {
        self.access.as_ref()
    }

    /// Attach a launch inspector (the static analyzer's capture hook): it
    /// receives one [`LaunchSummary`] per launch — geometry, resources,
    /// the `parallel_safe` opt-in and the declared footprint — right
    /// before the launch executes. Unlike an access observer, an
    /// inspector does *not* disable launch pre-execution: it watches the
    /// static declarations, not the access stream, so attaching one never
    /// changes execution or results.
    pub fn set_launch_inspector(&mut self, ins: Arc<dyn LaunchInspector>) {
        self.inspector = Some(ins);
    }

    fn observe_alloc<T: DevCopy>(&self, buf: &DevBuffer<T>, initialized: bool) {
        if let Some(obs) = &self.access {
            obs.observe(AccessEvent::BufferAlloc {
                id: buf.id as u32,
                base: buf.base,
                len: buf.len as u64,
                elem_bytes: std::mem::size_of::<T>() as u32,
                initialized,
            });
        }
    }

    fn observe_host_write(&self, id: usize, lo: u64, hi: u64) {
        if let Some(obs) = &self.access {
            obs.observe(AccessEvent::BufferHostWrite {
                id: id as u32,
                lo,
                hi,
            });
        }
    }

    /// Name a buffer in sanitizer reports. No-op without an observer.
    pub fn label_buffer<T: DevCopy>(&self, buf: &DevBuffer<T>, label: &str) {
        if let Some(obs) = &self.access {
            obs.observe(AccessEvent::BufferLabel {
                id: buf.id as u32,
                label,
            });
        }
    }

    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.trace.end_time()
    }

    // ---- memory ----

    /// Allocate a device buffer. Functionally default-initialized, but —
    /// like `cudaMalloc` — the sanitizer's uninitialized-read checker
    /// treats its contents as undefined until written; use
    /// [`Device::alloc_init`] when the algorithm relies on zeroed memory.
    pub fn alloc<T: DevCopy>(&mut self, len: usize) -> DevBuffer<T> {
        let buf = self.mem.alloc(len);
        self.observe_alloc(&buf, false);
        buf
    }

    /// Allocate a buffer filled with `init`.
    pub fn alloc_init<T: DevCopy>(&mut self, len: usize, init: T) -> DevBuffer<T> {
        let buf = self.mem.alloc_init(len, init);
        self.observe_alloc(&buf, true);
        buf
    }

    /// Allocate and upload from a host slice.
    pub fn alloc_from<T: DevCopy>(&mut self, data: &[T]) -> DevBuffer<T> {
        let buf = self.mem.alloc_from(data);
        self.observe_alloc(&buf, true);
        buf
    }

    /// Read a buffer back to the host.
    pub fn read<T: DevCopy>(&self, buf: &DevBuffer<T>) -> Vec<T> {
        self.mem.slice(buf).to_vec()
    }

    /// Borrow a buffer's contents.
    pub fn slice<T: DevCopy>(&self, buf: &DevBuffer<T>) -> &[T] {
        self.mem.slice(buf)
    }

    /// Read a single element.
    pub fn read_at<T: DevCopy>(&self, buf: &DevBuffer<T>, idx: usize) -> T {
        self.mem.slice(buf)[idx]
    }

    /// Overwrite a buffer from a host slice.
    pub fn write<T: DevCopy>(&mut self, buf: &DevBuffer<T>, data: &[T]) {
        self.mem.vec_mut(buf).copy_from_slice(data);
        self.observe_host_write(buf.id, 0, buf.len as u64);
    }

    /// Overwrite a single element.
    pub fn write_at<T: DevCopy>(&mut self, buf: &DevBuffer<T>, idx: usize, v: T) {
        self.mem.vec_mut(buf)[idx] = v;
        self.observe_host_write(buf.id, idx as u64, idx as u64 + 1);
    }

    /// Fill a buffer with a value (a host-side `cudaMemset`).
    pub fn fill<T: DevCopy>(&mut self, buf: &DevBuffer<T>, v: T) {
        self.mem.vec_mut(buf).fill(v);
        self.observe_host_write(buf.id, 0, buf.len as u64);
    }

    // ---- execution ----

    /// Launch `grid` blocks of `block_threads` threads.
    pub fn launch(&mut self, kernel: &dyn Kernel, grid: u32, block_threads: u32) -> &LaunchStats {
        self.launch_with(kernel, grid, block_threads, LaunchOpts::default())
    }

    /// Launch with explicit options (work-multiplier extrapolation).
    pub fn launch_with(
        &mut self,
        kernel: &dyn Kernel,
        grid: u32,
        block_threads: u32,
        opts: LaunchOpts,
    ) -> &LaunchStats {
        let name = kernel.display_name();
        let resources = kernel.resources();
        let launch_id = self.launches.len() as u32;
        if let Some(ins) = &self.inspector {
            ins.inspect(LaunchSummary {
                launch: launch_id,
                kernel: &name,
                grid,
                block_threads,
                resources,
                parallel_safe: kernel.parallel_safe(),
                has_params: !kernel.params().is_empty(),
                footprint: kernel.footprint(grid, block_threads),
            });
        }
        if let Some(obs) = &self.access {
            obs.observe(AccessEvent::LaunchBegin {
                launch: launch_id,
                kernel: &name,
                grid,
                block_threads,
                regs_per_thread: resources.regs_per_thread,
                shared_bytes: resources.shared_bytes,
            });
        }
        self.launch_core(
            name,
            grid,
            block_threads,
            resources,
            opts.work_multiplier,
            CostSource::Kernel(kernel),
        );
        let stats = self.launches.last().expect("the launch core records it");
        if let Some(obs) = &self.access {
            obs.observe(AccessEvent::LaunchEnd {
                launch: launch_id,
                stats,
            });
        }
        stats
    }

    /// The one launch pipeline, shared by live launches and trace replay:
    /// the launch-overhead draw and gap, the dispatch order, the per-block
    /// costs from `source`, fluid scheduling, counters and the retire
    /// event. Block execution reads neither the RNG nor simulated time, so
    /// running the blocks in dispatch order before scheduling them is
    /// exactly the hardware's execute-at-dispatch; a replay under the same
    /// device state is bit-identical to the live launch it recorded.
    pub(crate) fn launch_core(
        &mut self,
        name: Cow<'static, str>,
        grid: u32,
        block_threads: u32,
        resources: KernelResources,
        work_multiplier: f64,
        source: CostSource<'_>,
    ) {
        assert!(grid >= 1, "empty grid");
        assert!(
            (1..=1024).contains(&block_threads),
            "block size must be 1..=1024"
        );
        // Host/driver launch overhead: the GPU sits warm between kernels.
        let gap_w = self.cfg.power.idle_w
            + self.cfg.power.gap_overhead_w * self.cfg.clocks.core_vrel * self.cfg.clocks.core_vrel;
        let overhead_start = self.trace.end_time();
        let overhead = self.cfg.launch_overhead_s * (1.0 + self.rng.gen::<f64>() * 0.2);
        self.trace.push(overhead, gap_w);

        let start = self.trace.end_time();
        let launch_id = self.launches.len() as u32;
        if let Some(sink) = &self.telemetry {
            sink.record(Event::BoardInterval {
                t0: overhead_start,
                t1: start,
                watts: gap_w,
                phase: BoardPhase::Gap,
            });
            sink.record(Event::KernelLaunch {
                t: start,
                launch: launch_id,
                name: name.to_string(),
                grid,
                block_threads,
            });
        }
        let occupancy = resident_blocks(&self.cfg, block_threads, &resources);
        let mut order = std::mem::take(&mut self.order);
        dispatch_order(&self.cfg, &mut self.rng, grid, occupancy, &mut order);
        // Kernels declaring dispatch-order independence are pre-executed,
        // which makes the launch recordable; irregular kernels — and every
        // launch under the sanitizer, which must watch the real access
        // stream — run their blocks in dispatch order.
        let ran;
        let costs: &[BlockCost] = match source {
            CostSource::Recorded(costs) => costs,
            CostSource::Kernel(kernel) => {
                let strategy = self
                    .exec
                    .unwrap_or_else(|| ExecStrategy::PreExec { jobs: exec_jobs() });
                let pre = match strategy {
                    ExecStrategy::PreExec { jobs }
                        if kernel.parallel_safe() && self.access.is_none() =>
                    {
                        self.pre_execute(kernel, &name, block_threads, &order, launch_id, jobs)
                    }
                    _ => None,
                };
                if let Some(rec) = &self.recorder {
                    match &pre {
                        Some((key, costs)) => {
                            rec.record_launch(key, resources, costs, work_multiplier)
                        }
                        None => rec.mark_ineligible(&name),
                    }
                }
                ran = match pre {
                    Some((_, costs)) => costs,
                    None => self.run_blocks(kernel, block_threads, &order, launch_id),
                };
                &ran
            }
        };
        let outcome = run_launch_pooled(
            &self.cfg,
            &mut self.rng,
            &mut self.trace,
            &order,
            costs,
            occupancy,
            work_multiplier,
            launch_id,
            self.telemetry.as_deref(),
            &mut self.sched,
        );
        // Summed in dispatch order, like the scheduler consumes the costs.
        let mut counters = KernelCounters::default();
        for &b in &order {
            counters.add_block(&costs[b as usize], work_multiplier);
        }
        self.order = order;
        if let Some(sink) = &self.telemetry {
            sink.record(Event::KernelRetire {
                t: self.trace.end_time(),
                launch: launch_id,
                duration_s: outcome.duration_s,
                energy_j: outcome.energy_j,
            });
        }
        self.launches.push(LaunchStats {
            kernel: name,
            start_s: start,
            duration_s: outcome.duration_s,
            energy_j: outcome.energy_j,
            grid,
            block_threads,
            counters,
        });
    }

    /// Run a launch's blocks functionally, one after another in dispatch
    /// `order`, against the live memory image — with the access observer
    /// attached, if any — and return their costs indexed by block.
    fn run_blocks(
        &mut self,
        kernel: &dyn Kernel,
        block_threads: u32,
        order: &[u32],
        launch_id: u32,
    ) -> Vec<BlockCost> {
        let grid = order.len() as u32;
        let cache = self.cfg.mem_model.cache().copied();
        let observer = self.access.as_deref().map(|obs| (obs, launch_id));
        let mut costs = vec![BlockCost::default(); order.len()];
        for &b in order {
            costs[b as usize] = exec_one_block(
                kernel,
                &mut self.mem,
                b,
                grid,
                block_threads,
                &mut self.scratch,
                cache.as_ref(),
                observer,
            );
        }
        costs
    }

    /// Functionally execute a `parallel_safe` launch ahead of scheduling,
    /// apply its global-memory effects, and return the launch's identity
    /// (for an attached trace recorder) with its per-block costs, indexed
    /// by block.
    ///
    /// `None` means the launch cannot be pre-executed (some buffer's type
    /// has no dedicated slot variant, so the memory image can be neither
    /// fingerprinted nor cloned); the caller falls back to running the
    /// blocks in dispatch order, which is always correct.
    fn pre_execute(
        &mut self,
        kernel: &dyn Kernel,
        name: &str,
        block_threads: u32,
        order: &[u32],
        launch_id: u32,
        jobs: usize,
    ) -> Option<(LaunchKey, Vec<BlockCost>)> {
        let grid = order.len() as u32;
        let key = LaunchKey {
            kernel: name.to_string(),
            params: kernel.params(),
            grid,
            block_threads,
            mem_fp: self.mem.fingerprint()?,
        };
        PRE_EXECUTED.fetch_add(1, Ordering::Relaxed);
        let jobs = jobs.clamp(1, grid as usize);
        if jobs == 1 {
            // One worker runs the grid in dispatch order against the live
            // image: the at-dispatch run itself, known to be recordable.
            let costs = self.run_blocks(kernel, block_threads, order, launch_id);
            return Some((key, costs));
        }
        // Contiguous block shards, each executed against its own clone of
        // the pre-launch image and diffed against it. Under the
        // `parallel_safe` contract the shards' write sets are disjoint, so
        // the shard patches concatenated in shard order rebuild the serial
        // post-state bit-for-bit.
        let cache_cfg = self.cfg.mem_model.cache().copied();
        let base = &self.mem;
        let shard = grid.div_ceil(jobs as u32);
        let results: Vec<(Vec<BlockCost>, Patch)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs as u32)
                .map(|j| {
                    // Workers past the grid's last shard get no blocks.
                    let lo = (j * shard).min(grid);
                    let hi = ((j + 1) * shard).min(grid);
                    s.spawn(move || {
                        let mut m = base.try_clone().expect("fingerprinted image clones");
                        let mut scratch = ExecScratch::default();
                        let costs = (lo..hi)
                            .map(|b| {
                                exec_one_block(
                                    kernel,
                                    &mut m,
                                    b,
                                    grid,
                                    block_threads,
                                    &mut scratch,
                                    cache_cfg.as_ref(),
                                    None,
                                )
                            })
                            .collect();
                        (costs, base.diff(&m))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pre-exec worker panicked"))
                .collect()
        });
        let mut costs = Vec::with_capacity(grid as usize);
        let mut writes = Patch::default();
        for (c, w) in results {
            costs.extend(c);
            writes.append(w);
        }
        self.mem.apply(&writes);
        Some((key, costs))
    }

    /// Record host-side time between kernels (the driver keeps the GPU
    /// warm, drawing the gap power).
    pub fn host_gap(&mut self, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        if let Some(rec) = &self.recorder {
            rec.record_gap(seconds);
        }
        let gap_w = self.cfg.power.idle_w
            + self.cfg.power.gap_overhead_w * self.cfg.clocks.core_vrel * self.cfg.clocks.core_vrel;
        if let Some(sink) = &self.telemetry {
            let t0 = self.trace.end_time();
            sink.record(Event::BoardInterval {
                t0,
                t1: t0 + seconds,
                watts: gap_w,
                phase: BoardPhase::Gap,
            });
        }
        self.trace.push(seconds, gap_w);
    }

    /// All launches so far.
    pub fn stats(&self) -> &[LaunchStats] {
        &self.launches
    }

    /// Sum of kernel durations so far — the simulator's own ground-truth
    /// "active runtime" (the tool's threshold-based estimate is what the
    /// harness reports, as in the paper).
    pub fn kernel_time(&self) -> f64 {
        self.launches.iter().map(|l| l.duration_s).sum()
    }

    /// Aggregated counters over all launches.
    pub fn total_counters(&self) -> KernelCounters {
        let mut t = KernelCounters::default();
        for l in &self.launches {
            t.merge(&l.counters);
        }
        t
    }

    /// End the run: record the driver's tail-power window and a trailing
    /// idle period, then return the full ground-truth trace.
    pub fn finish(mut self) -> (PowerTrace, Vec<LaunchStats>) {
        let p = &self.cfg.power;
        let gap_w =
            p.idle_w + p.gap_overhead_w * self.cfg.clocks.core_vrel * self.cfg.clocks.core_vrel;
        let decay_w = p.idle_w + 0.4 * (gap_w - p.idle_w);
        if let Some(sink) = &self.telemetry {
            let t0 = self.trace.end_time();
            sink.record(Event::BoardInterval {
                t0,
                t1: t0 + p.tail_s,
                watts: gap_w,
                phase: BoardPhase::Tail,
            });
            sink.record(Event::BoardInterval {
                t0: t0 + p.tail_s,
                t1: t0 + p.tail_s + TAIL_DECAY_S,
                watts: decay_w,
                phase: BoardPhase::Tail,
            });
            sink.record(Event::BoardInterval {
                t0: t0 + p.tail_s + TAIL_DECAY_S,
                t1: t0 + p.tail_s + TAIL_DECAY_S + LEAD_OUT_S,
                watts: p.idle_w,
                phase: BoardPhase::Idle,
            });
        }
        self.trace.push(p.tail_s, gap_w);
        self.trace.push(TAIL_DECAY_S, decay_w);
        self.trace.push(LEAD_OUT_S, p.idle_w);
        (self.trace, self.launches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockCtx;
    use crate::config::ClockConfig;
    use crate::kernel::Kernel;

    /// y[i] = a*x[i] + y[i] over the whole grid.
    struct Saxpy {
        x: DevBuffer<f32>,
        y: DevBuffer<f32>,
        a: f32,
    }

    impl Kernel for Saxpy {
        fn name(&self) -> &'static str {
            "saxpy"
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

    fn device() -> Device {
        Device::new(DeviceConfig::k20c(ClockConfig::k20_default(), false))
    }

    #[test]
    fn saxpy_computes_and_times() {
        let mut dev = device();
        let n = 1 << 14;
        let x = dev.alloc_from(&vec![2.0f32; n]);
        let y = dev.alloc_from(&vec![1.0f32; n]);
        let stats = dev.launch(&Saxpy { x, y, a: 3.0 }, (n as u32).div_ceil(256), 256);
        assert!(stats.duration_s > 0.0);
        assert_eq!(stats.counters.blocks as usize, n / 256);
        let out = dev.read(&y);
        assert!(out.iter().all(|&v| (v - 7.0).abs() < 1e-6));
    }

    #[test]
    fn trace_has_lead_in_kernel_and_tail() {
        let mut dev = device();
        let n = 1 << 16;
        let x = dev.alloc_from(&vec![1.0f32; n]);
        let y = dev.alloc_from(&vec![1.0f32; n]);
        dev.launch_with(
            &Saxpy { x, y, a: 2.0 },
            (n as u32).div_ceil(256),
            256,
            LaunchOpts {
                work_multiplier: 1e5,
            },
        );
        let (trace, stats) = dev.finish();
        assert!(trace.end_time() > 6.0);
        // Idle at start, busy in the middle.
        assert!((trace.watts_at(0.5) - 25.0).abs() < 1.0);
        let mid = stats[0].start_s + stats[0].duration_s / 2.0;
        assert!(trace.watts_at(mid) > 40.0);
        // Idle again at the very end.
        assert!((trace.watts_at(trace.end_time() - 0.5) - 25.0).abs() < 1.0);
    }

    #[test]
    fn work_multiplier_scales_counters() {
        let mut dev = device();
        let n = 1 << 12;
        let x = dev.alloc_from(&vec![1.0f32; n]);
        let y = dev.alloc_from(&vec![1.0f32; n]);
        let k = Saxpy { x, y, a: 2.0 };
        let s = dev.launch_with(
            &k,
            (n as u32).div_ceil(256),
            256,
            LaunchOpts {
                work_multiplier: 50.0,
            },
        );
        // 2 loads + 1 store of 4 bytes per element, x50.
        let expected = (n * 12) as f64 * 50.0;
        assert!((s.counters.useful_bytes - expected).abs() < 1e-6);
    }

    #[test]
    fn host_gap_extends_trace_at_warm_power() {
        let mut dev = device();
        let t0 = dev.now();
        dev.host_gap(2.0);
        assert!((dev.now() - t0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_time_accumulates() {
        let mut dev = device();
        let n = 4096;
        let x = dev.alloc_from(&vec![1.0f32; n]);
        let y = dev.alloc_from(&vec![1.0f32; n]);
        let k = Saxpy { x, y, a: 2.0 };
        dev.launch(&k, 16, 256);
        dev.launch(&k, 16, 256);
        assert_eq!(dev.stats().len(), 2);
        let sum: f64 = dev.stats().iter().map(|l| l.duration_s).sum();
        assert!((dev.kernel_time() - sum).abs() < 1e-12);
    }

    #[test]
    fn determinism_with_same_seed() {
        let run = |seed: u64| {
            let mut cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
            cfg.jitter_seed = seed;
            let mut dev = Device::new(cfg);
            let n = 1 << 12;
            let x = dev.alloc_from(&vec![1.0f32; n]);
            let y = dev.alloc_from(&vec![1.0f32; n]);
            // Enough work that per-block jitter dominates the latency floor.
            dev.launch_with(
                &Saxpy { x, y, a: 2.0 },
                16,
                256,
                LaunchOpts {
                    work_multiplier: 1e4,
                },
            );
            dev.kernel_time()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn telemetry_covers_the_whole_run_and_reconciles() {
        use sim_telemetry::{build_timeline, BoardPhase, Event, EventTrace};

        let mut dev = device();
        let sink = Arc::new(EventTrace::with_capacity(1 << 20));
        dev.set_telemetry(sink.clone());
        let n = 1 << 14;
        let x = dev.alloc_from(&vec![1.0f32; n]);
        let y = dev.alloc_from(&vec![1.0f32; n]);
        let k = Saxpy { x, y, a: 2.0 };
        dev.launch_with(
            &k,
            (n as u32).div_ceil(256),
            256,
            LaunchOpts {
                work_multiplier: 1e4,
            },
        );
        dev.host_gap(1.5);
        dev.launch(&k, (n as u32).div_ceil(256), 256);
        let (trace, stats) = dev.finish();

        let events = sink.events();
        assert_eq!(sink.dropped(), 0);

        // One config snapshot, one launch/retire pair per launch.
        let snaps = events
            .iter()
            .filter(|e| matches!(e, Event::ConfigSnapshot { .. }))
            .count();
        assert_eq!(snaps, 1);
        let launches: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::KernelLaunch { .. }))
            .collect();
        assert_eq!(launches.len(), 2);
        if let Event::KernelLaunch { name, launch, .. } = launches[0] {
            assert_eq!(name, "saxpy");
            assert_eq!(*launch, 0);
        }
        let retires = events
            .iter()
            .filter(|e| matches!(e, Event::KernelRetire { .. }))
            .count();
        assert_eq!(retires, 2);

        // The interval events tile the full trace: lead-in, launch gaps,
        // kernel windows, host gap, tail, lead-out. Their energy must
        // reproduce the ground-truth trace energy.
        let tl = build_timeline(&events);
        let truth = trace.total_energy();
        let rel = (tl.total_energy_j() - truth).abs() / truth;
        assert!(
            rel < 1e-6,
            "timeline {} vs trace {}",
            tl.total_energy_j(),
            truth
        );
        assert!((tl.end_time - trace.end_time()).abs() < 1e-9);

        // Phases present: idle lead-in/out, launch-overhead + host gaps,
        // kernel-static windows, and the driver tail.
        for phase in [
            BoardPhase::Idle,
            BoardPhase::Gap,
            BoardPhase::KernelStatic,
            BoardPhase::Tail,
        ] {
            assert!(tl.phase_energy_j(phase) > 0.0, "missing {phase:?}");
        }

        // Per-launch retire energy matches LaunchStats.
        for (i, s) in stats.iter().enumerate() {
            let retire = events.iter().find_map(|e| match e {
                Event::KernelRetire {
                    launch, energy_j, ..
                } if *launch == i as u32 => Some(*energy_j),
                _ => None,
            });
            assert_eq!(retire, Some(s.energy_j));
        }
    }

    #[test]
    fn telemetry_attachment_leaves_results_unchanged() {
        let run = |with_sink: bool| {
            let mut cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
            cfg.jitter_seed = 9;
            let mut dev = Device::new(cfg);
            if with_sink {
                dev.set_telemetry(Arc::new(sim_telemetry::EventTrace::with_capacity(1 << 16)));
            }
            let n = 1 << 12;
            let x = dev.alloc_from(&vec![1.0f32; n]);
            let y = dev.alloc_from(&vec![1.0f32; n]);
            dev.launch(&Saxpy { x, y, a: 2.0 }, 16, 256);
            let (trace, stats) = dev.finish();
            (trace.total_energy(), stats[0].duration_s)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn access_observer_sees_run_and_leaves_results_unchanged() {
        use crate::access::{AccessEvent, AccessKind, AccessObserver};
        use std::sync::Mutex;

        #[derive(Default)]
        struct Tally {
            allocs: usize,
            reads: u64,
            writes: u64,
            blocks: usize,
            launches: usize,
        }
        struct Obs(Mutex<Tally>);
        impl AccessObserver for Obs {
            fn observe(&self, ev: AccessEvent<'_>) {
                let mut t = self.0.lock().unwrap();
                match ev {
                    AccessEvent::BufferAlloc { .. } => t.allocs += 1,
                    AccessEvent::Access(a) => match a.kind {
                        AccessKind::Read => t.reads += 1,
                        _ => t.writes += 1,
                    },
                    AccessEvent::BlockEnd { .. } => t.blocks += 1,
                    AccessEvent::LaunchEnd { .. } => t.launches += 1,
                    _ => {}
                }
            }
        }

        let run = |observe: bool| {
            let mut dev = device();
            let obs = Arc::new(Obs(Mutex::new(Tally::default())));
            if observe {
                dev.set_access_observer(obs.clone());
            }
            let n = 1 << 12;
            let x = dev.alloc_from(&vec![1.0f32; n]);
            let y = dev.alloc_from(&vec![1.0f32; n]);
            dev.launch(&Saxpy { x, y, a: 2.0 }, 16, 256);
            let (trace, stats) = dev.finish();
            let t = std::mem::take(&mut *obs.0.lock().unwrap());
            (trace.total_energy(), stats[0].duration_s, t)
        };
        let (e0, d0, _) = run(false);
        let (e1, d1, t) = run(true);
        assert_eq!((e0, d0), (e1, d1));
        assert_eq!(t.allocs, 2);
        assert_eq!(t.reads, 2 * 4096); // two loads per element
        assert_eq!(t.writes, 4096);
        assert_eq!(t.blocks, 16);
        assert_eq!(t.launches, 1);
    }

    #[test]
    fn oob_access_is_skipped_under_observation() {
        use crate::access::{AccessEvent, AccessObserver};
        use std::sync::atomic::{AtomicU32, Ordering};

        struct OobCount(AtomicU32);
        impl AccessObserver for OobCount {
            fn observe(&self, ev: AccessEvent<'_>) {
                if let AccessEvent::Access(a) = ev {
                    if a.oob {
                        self.0.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }

        struct OobStore {
            buf: DevBuffer<f32>,
        }
        impl Kernel for OobStore {
            fn run_block(&self, blk: &mut BlockCtx) {
                let buf = self.buf;
                blk.for_each_thread(|t| {
                    // Off-by-the-whole-block: every thread stores past the end.
                    t.st(&buf, buf.len() + t.tid() as usize, 1.0);
                });
            }
        }

        let mut dev = device();
        let obs = Arc::new(OobCount(AtomicU32::new(0)));
        dev.set_access_observer(obs.clone());
        let buf = dev.alloc_init::<f32>(8, 0.0);
        dev.launch(&OobStore { buf }, 1, 32); // would panic unobserved
        assert_eq!(obs.0.load(Ordering::Relaxed), 32);
        assert!(dev.read(&buf).iter().all(|&v| v == 0.0));
    }

    /// Each block takes a ticket from one global counter: an irregular
    /// kernel whose output records the order its blocks ran in.
    struct Tickets {
        next: DevBuffer<u32>,
        ticket: DevBuffer<u32>,
    }

    impl Kernel for Tickets {
        fn name(&self) -> &'static str {
            "tickets"
        }
        fn run_block(&self, blk: &mut BlockCtx) {
            let (next, ticket) = (self.next, self.ticket);
            blk.for_each_thread(|t| {
                if t.tid() == 0 {
                    let mine = t.atomic_add_u32(&next, 0, 1);
                    t.st(&ticket, t.block_idx() as usize, mine);
                }
            });
        }
    }

    #[test]
    fn irregular_blocks_run_in_dispatch_order() {
        use sim_telemetry::EventTrace;

        struct Silent;
        impl AccessObserver for Silent {
            fn observe(&self, _: AccessEvent<'_>) {}
        }

        let grid = 64u32;
        for observed in [false, true] {
            let mut dev = device();
            let sink = Arc::new(EventTrace::with_capacity(1 << 16));
            dev.set_telemetry(sink.clone());
            if observed {
                dev.set_access_observer(Arc::new(Silent));
            }
            let next = dev.alloc_init::<u32>(1, 0);
            let ticket = dev.alloc_init::<u32>(grid as usize, u32::MAX);
            dev.launch(&Tickets { next, ticket }, grid, 32);
            let dispatched: Vec<u32> = sink
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::BlockDispatch { block, .. } => Some(*block),
                    _ => None,
                })
                .collect();
            let mut by_ticket = vec![u32::MAX; grid as usize];
            for (block, t) in dev.read(&ticket).into_iter().enumerate() {
                by_ticket[t as usize] = block as u32;
            }
            assert_eq!(by_ticket, dispatched, "observer attached: {observed}");
            assert_ne!(dispatched, (0..grid).collect::<Vec<_>>(), "not shuffled");
        }
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn bad_block_size_rejected() {
        let mut dev = device();
        let x = dev.alloc_from(&[0.0f32]);
        let y = dev.alloc_from(&[0.0f32]);
        dev.launch(&Saxpy { x, y, a: 1.0 }, 1, 0);
    }

    /// Saxpy with the `parallel_safe` opt-in: every thread reads and writes
    /// only its own `y[i]`, so blocks are dispatch-order independent.
    struct PSaxpy(Saxpy);

    impl Kernel for PSaxpy {
        fn name(&self) -> &'static str {
            "psaxpy"
        }
        fn parallel_safe(&self) -> bool {
            true
        }
        fn params(&self) -> Vec<u64> {
            crate::kernel::ParamKey::new()
                .buf(&self.0.x)
                .buf(&self.0.y)
                .f(self.0.a)
                .done()
        }
        fn run_block(&self, blk: &mut BlockCtx) {
            self.0.run_block(blk);
        }
    }

    /// Build a device + data and run one PSaxpy launch under `strategy`,
    /// returning (y contents, duration, energy, counter fingerprint).
    fn psaxpy_run(strategy: Option<ExecStrategy>, n: usize) -> (Vec<f32>, f64, f64, f64) {
        let mut dev = device();
        if let Some(s) = strategy {
            dev.set_exec_strategy(s);
        }
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
        let x = dev.alloc_from(&x);
        let y = dev.alloc_from(&y);
        let k = PSaxpy(Saxpy { x, y, a: 1.5 });
        let stats = dev.launch(&k, (n as u32).div_ceil(128), 128);
        let (d, e) = (stats.duration_s, stats.energy_j);
        let c = stats.counters;
        (dev.read(&y), d, e, c.issue_cycles + c.dram_bytes)
    }

    #[test]
    fn pre_exec_strategies_are_bit_identical() {
        let n = 4096;
        let serial = psaxpy_run(Some(ExecStrategy::AtDispatch), n);
        let pre1 = psaxpy_run(Some(ExecStrategy::PreExec { jobs: 1 }), n);
        let pre3 = psaxpy_run(Some(ExecStrategy::PreExec { jobs: 3 }), n);
        // 12 workers over 32 blocks: shards of 3 leave the last one none.
        let pre12 = psaxpy_run(Some(ExecStrategy::PreExec { jobs: 12 }), n);
        for (i, other) in [&pre1, &pre3, &pre12].into_iter().enumerate() {
            assert!(
                serial
                    .0
                    .iter()
                    .zip(&other.0)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "y diverged in variant {i}"
            );
            assert_eq!(
                serial.1.to_bits(),
                other.1.to_bits(),
                "duration, variant {i}"
            );
            assert_eq!(serial.2.to_bits(), other.2.to_bits(), "energy, variant {i}");
            assert_eq!(
                serial.3.to_bits(),
                other.3.to_bits(),
                "counters, variant {i}"
            );
        }
    }

    #[test]
    fn pre_exec_falls_back_on_untyped_buffers() {
        let mut dev = device();
        let rec = Arc::new(crate::trace::TraceRecorder::new());
        dev.set_trace_recorder(rec.clone());
        let _odd = dev.alloc_init::<u64>(8, 7); // Slot::Other: unfingerprintable
        let x = dev.alloc_from(&vec![2.0f32; 1024]);
        let y = dev.alloc_from(&vec![1.0f32; 1024]);
        dev.launch(&PSaxpy(Saxpy { x, y, a: 2.0 }), 8, 128);
        assert_eq!(
            rec.ineligible_kernel().as_deref(),
            Some("psaxpy"),
            "the fallback runs at dispatch, which no trace can replay"
        );
        assert!(dev.read(&y).iter().all(|&v| v == 5.0));
    }
}
