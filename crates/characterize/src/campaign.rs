//! The measurement campaign engine.
//!
//! The paper's evaluation is **one measurement matrix** — every program ×
//! input × clock/ECC configuration × repetition — from which every table
//! and figure is derived. Before this module existed, each artifact
//! generator re-simulated its own overlapping slice of that matrix (the
//! default configuration alone was swept four times by `repro all`). A
//! [`Campaign`] instead:
//!
//! * **plans** — collects the deduplicated run matrix requested by any set
//!   of artifacts ([`plan_artifacts`] over the [`crate::artifact`]
//!   catalogue and the `*_runs()` planners behind it);
//! * **executes** — runs the unique (workload, input, config, rep) units
//!   on the rayon pool in (workload, input) groups, exactly once per
//!   process, with in-flight deduplication so even unplanned concurrent
//!   requests cannot double-simulate;
//! * **memoizes** — results (including *measurement failures*, the paper's
//!   324-MHz exclusions) are kept in-process and served to every artifact;
//! * **replays** — the first functional run of a (program, input, memory
//!   model) records its launch trace into the campaign's trace DB
//!   ([`crate::tracedb`], in memory unless a trace directory is given), and
//!   every later configuration, rep and sweep point of it re-simulates
//!   timing and power from that trace, without functional execution — one
//!   that arrives while the trace is being recorded waits for it;
//! * **persists** — each unit is written to a content-addressed on-disk
//!   cache keyed by `(workload key, input, config, rep, seed, sim-version
//!   fingerprint)` in a versioned plain-text record. Corrupt or truncated
//!   entries and records from an older simulator model are re-run, never
//!   fatal.
//!
//! Median-of-three readings are *derived* from the three cached single
//! runs via [`combine_median3`], so the rep is the cache unit and a quick
//! (1-rep) figure shares its rep-0 simulation with the full methodology.

use crate::configs::GpuConfigKind;
use crate::experiment::{
    combine_median3, measure_from_trace, measure_recording, measure_with_device_config, run_seed,
    Measurement, MedianMeasurement,
};
use crate::tracedb::{trace_key, StoredTrace, TraceDb, TraceUsage};
use gpower::{PowerError, Reading};
use kepler_sim::{fnv1a64, ClockConfig, DeviceConfig, KernelCounters, TraceRecorder};
use rayon::prelude::*;
use sim_telemetry::{Event, TelemetrySink};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use workloads::bench::{Benchmark, InputSpec, ItemCounts};
use workloads::registry;

/// The catalogue lives in [`crate::artifact`]; the repository benchmark
/// still imports it from here.
pub use crate::artifact::{plan_artifacts, Artifact};

/// Version prefix of the canonical cache key and the on-disk record
/// layout. Bump when the record format changes shape.
const FORMAT_VERSION: &str = "v3";
const RECORD_MAGIC: &str = "gpgpu-campaign v3";
const RECORD_END: &str = "end gpgpu-campaign";

/// Fingerprint of the simulation + measurement model this build produces.
/// Any change that alters simulated numbers bumps one of the component
/// version tags, which invalidates every persisted record at load time.
pub fn sim_fingerprint() -> u64 {
    let ident = format!(
        "{}|{}|{}|characterize/{}",
        kepler_sim::SIM_VERSION,
        kepler_sim::mem::MODEL_VERSION,
        gpower::MEASUREMENT_VERSION,
        env!("CARGO_PKG_VERSION"),
    );
    fnv1a64(ident.as_bytes())
}

/// One unit of the measurement matrix: a single repetition of one program
/// input under one configuration.
#[derive(Debug, Clone)]
pub struct RunRequest {
    pub key: &'static str,
    pub input: InputSpec,
    pub config: GpuConfigKind,
    pub rep: u64,
}

impl RunRequest {
    /// The unit's canonical cache key — the same identity every cache
    /// layer uses, and the partition key a dispatch coordinator shards
    /// by (units with equal keys must land on the same worker so the
    /// in-flight dedup can collapse them).
    pub fn cache_key(&self) -> String {
        canonical_key_parts(self.key, &self.input, self.config.name(), self.rep)
    }
}

/// Rep indices a `reps` request expands to: the paper's three repetitions,
/// or the single rep-0 run in `--quick` mode.
pub fn rep_indices(reps: u64) -> std::ops::Range<u64> {
    if reps >= 3 {
        0..3
    } else {
        0..1
    }
}

/// Split deduplicated units into (program, input) groups, in first-seen
/// order with plan order kept inside each group, then order the groups
/// largest first by unit count (a stable sort, so ties keep first-seen
/// order). The functional execution a group's configurations share stays
/// on one thread, and the largest groups start first so the pool's last
/// groups are short ones.
fn affine_groups<'a>(units: &[&'a RunRequest]) -> Vec<Vec<&'a RunRequest>> {
    let mut index: HashMap<(&str, String), usize> = HashMap::new();
    let mut groups: Vec<Vec<&RunRequest>> = Vec::new();
    for &u in units {
        let g = *index
            .entry((u.key, u.input.cache_key()))
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[g].push(u);
    }
    groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
    groups
}

/// The canonical identity of one run unit, *without* the model
/// fingerprint (the fingerprint is stored inside the record so an
/// outdated entry is observed as stale rather than silently orphaned).
/// `cfg_tag` is [`GpuConfigKind::name`] for the paper's named settings or
/// [`SweepPoint::cache_tag`] for a sweep grid point.
/// Public face of [`canonical_key_parts`]: the cache identity of one unit
/// under an arbitrary configuration tag ([`GpuConfigKind::name`] or
/// [`SweepPoint::cache_tag`]). Lets a coordinator compute partition keys
/// for sweep units without executing anything.
pub fn unit_cache_key(key: &str, input: &InputSpec, cfg_tag: &str, rep: u64) -> String {
    canonical_key_parts(key, input, cfg_tag, rep)
}

fn canonical_key_parts(key: &str, input: &InputSpec, cfg_tag: &str, rep: u64) -> String {
    // The seed is derived from (key, input, rep), but it is part of the
    // paper's methodology, so it is folded into the identity explicitly:
    // a change to the seeding scheme must invalidate cached measurements.
    let seed = run_seed(key, input.name, rep);
    let spec_key = registry::by_key(key)
        .map(|b| b.spec().cache_key())
        .unwrap_or_else(|| key.to_string());
    // The memory model is an explicit part of a unit's identity: a run
    // under the cache hierarchy must never collide with a flat-DRAM run
    // of the same workload, whatever the config tags happen to be named.
    // Tags that are not named configs (sweep grid points) run flat.
    let mem = GpuConfigKind::from_name(cfg_tag)
        .map(|k| k.mem_tag())
        .unwrap_or_else(|| kepler_sim::MemoryModel::FlatDram.tag());
    format!(
        "{FORMAT_VERSION}|{spec_key}|{}|cfg={cfg_tag}|mem={mem}|rep={rep}|seed={seed:016x}",
        input.cache_key(),
    )
}

// ---------------------------------------------------------------------------
// Clock sweeps (the what-if grid behind `POST /v1/sweep`)
// ---------------------------------------------------------------------------

/// Valid core-clock range of a sweep point, MHz (the K20c driver ladder
/// spans 324–758 MHz).
pub const SWEEP_CORE_MHZ: (f64, f64) = (324.0, 758.0);
/// Valid memory-clock range of a sweep point, MHz.
pub const SWEEP_MEM_MHZ: (f64, f64) = (324.0, 2600.0);

/// Known (clock MHz, relative voltage) pairs of the K20c core DVFS ladder.
const CORE_VREL_LADDER: [(f64, f64); 6] = [
    (324.0, 0.85),
    (614.0, 0.95),
    (640.0, 0.96),
    (666.0, 0.98),
    (705.0, 1.0),
    (758.0, 1.03),
];

/// The memory domain exposes only two voltages (324 MHz and 2.6 GHz).
const MEM_VREL_LADDER: [(f64, f64); 2] = [(324.0, 0.85), (2600.0, 1.0)];

/// Clamped piecewise-linear interpolation over a (clock, vrel) ladder.
fn interp_vrel(mhz: f64, ladder: &[(f64, f64)]) -> f64 {
    let (lo, hi) = (ladder[0], ladder[ladder.len() - 1]);
    if mhz <= lo.0 {
        return lo.1;
    }
    if mhz >= hi.0 {
        return hi.1;
    }
    for w in ladder.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if mhz <= x1 {
            return y0 + (y1 - y0) * (mhz - x0) / (x1 - x0);
        }
    }
    hi.1
}

/// One point of a clock sweep: an arbitrary core/memory clock pair with
/// domain voltages interpolated from the K20c DVFS ladder. A point that
/// lands exactly on a driver setting reproduces that setting's voltages,
/// so e.g. `SweepPoint { core_mhz: 614.0, mem_mhz: 2600.0 }` measures
/// bit-identically to [`GpuConfigKind::C614`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    pub core_mhz: f64,
    pub mem_mhz: f64,
}

impl SweepPoint {
    /// Whether both clocks are finite and inside the driver's range.
    pub fn is_valid(&self) -> bool {
        self.core_mhz.is_finite()
            && self.mem_mhz.is_finite()
            && (SWEEP_CORE_MHZ.0..=SWEEP_CORE_MHZ.1).contains(&self.core_mhz)
            && (SWEEP_MEM_MHZ.0..=SWEEP_MEM_MHZ.1).contains(&self.mem_mhz)
    }

    /// The clock configuration of this point, with interpolated voltages.
    pub fn clock_config(&self) -> ClockConfig {
        ClockConfig {
            core_mhz: self.core_mhz,
            mem_mhz: self.mem_mhz,
            core_vrel: interp_vrel(self.core_mhz, &CORE_VREL_LADDER),
            mem_vrel: interp_vrel(self.mem_mhz, &MEM_VREL_LADDER),
        }
    }

    /// The device configuration of this point (ECC off, like the paper's
    /// clock studies).
    pub fn device_config(&self) -> DeviceConfig {
        DeviceConfig::k20c(self.clock_config(), false)
    }

    /// Cache-identity tag. Clocks participate by their exact bit patterns,
    /// so `614` and `614.0000001` are distinct cache entries.
    pub fn cache_tag(&self) -> String {
        format!(
            "sweep:c{:016x}:m{:016x}",
            self.core_mhz.to_bits(),
            self.mem_mhz.to_bits()
        )
    }
}

/// The cartesian grid of a sweep request, deduplicated by exact clock bit
/// patterns, preserving first-seen order.
pub fn sweep_grid(core_mhz: &[f64], mem_mhz: &[f64]) -> Vec<SweepPoint> {
    let mut seen = HashSet::new();
    let mut grid = Vec::new();
    for &c in core_mhz {
        for &m in mem_mhz {
            if seen.insert((c.to_bits(), m.to_bits())) {
                grid.push(SweepPoint {
                    core_mhz: c,
                    mem_mhz: m,
                });
            }
        }
    }
    grid
}

/// Pareto-optimality flags for `(runtime, energy)` pairs, index-matched to
/// the input: `true` iff no other point is at least as good on both axes
/// and strictly better on one. Unmeasurable points should be filtered out
/// before calling (a NaN never dominates and is never dominated).
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<bool> {
    points
        .iter()
        .enumerate()
        .map(|(i, &(t, e))| {
            !points
                .iter()
                .enumerate()
                .any(|(j, &(tj, ej))| j != i && tj <= t && ej <= e && (tj < t || ej < e))
        })
        .collect()
}

/// Counter snapshot of a campaign's cache behaviour. Obtained from
/// [`Campaign::stats`], which is safe to call from any thread at any time
/// (the `repro` closing summary and the `sim-serve` `/metrics` endpoint
/// both read it live).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Simulations actually executed by this process.
    pub simulated: u64,
    /// Requests served from the in-process memo.
    pub memo_hits: u64,
    /// Requests served from the on-disk cache.
    pub disk_hits: u64,
    /// On-disk records rejected because their model fingerprint differs
    /// from this build (each forced a re-run).
    pub disk_stale: u64,
    /// On-disk records rejected as corrupt/truncated (each forced a
    /// re-run).
    pub disk_corrupt: u64,
    /// Units being resolved past the record caches *right now*:
    /// simulating, replaying, or waiting for their program's trace to be
    /// recorded. Concurrent duplicate requests waiting on one of them are
    /// not counted.
    pub in_flight: u64,
    /// Memoized units whose cached outcome is a measurement *error* (the
    /// paper's too-fast-to-measure exclusions, served as first-class
    /// values).
    pub cached_errors: u64,
    /// Units re-simulated from a recorded launch trace instead of
    /// functional execution (never counted in `simulated`).
    pub trace_replays: u64,
    /// Trace manifests rejected for a model-fingerprint mismatch (each
    /// fell back to a functional run that re-recorded).
    pub trace_stale: u64,
    /// Trace manifests or launch records rejected as corrupt/truncated
    /// (each fell back to a functional run that re-recorded).
    pub trace_corrupt: u64,
}

impl CampaignStats {
    /// Total requests resolved (any source).
    pub fn resolved(&self) -> u64 {
        self.simulated + self.memo_hits + self.disk_hits
    }

    /// Requests served without simulating (any cache layer).
    pub fn hits(&self) -> u64 {
        self.memo_hits + self.disk_hits
    }
}

impl std::fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulated={} memo_hits={} disk_hits={} stale={} corrupt={} in_flight={} \
             cached_errors={} trace_replays={} trace_stale={} trace_corrupt={}",
            self.simulated,
            self.memo_hits,
            self.disk_hits,
            self.disk_stale,
            self.disk_corrupt,
            self.in_flight,
            self.cached_errors,
            self.trace_replays,
            self.trace_stale,
            self.trace_corrupt
        )
    }
}

/// Campaign construction options.
#[derive(Default)]
pub struct CampaignConfig {
    /// Directory of the persistent cache. `None` disables persistence
    /// (in-process memoization still applies).
    pub cache_dir: Option<PathBuf>,
    /// Optional sink for `CacheLookup` / `CampaignProgress` events.
    pub telemetry: Option<Arc<dyn TelemetrySink>>,
    /// Directory of the launch-trace database ([`crate::tracedb`]), whose
    /// traces then outlive the process. `None` keeps the campaign's traces
    /// in memory. Either way, units whose program has a recorded trace are
    /// re-simulated from it (no functional execution), and functional runs
    /// record one.
    pub trace_dir: Option<PathBuf>,
}

#[derive(Default)]
struct CampaignState {
    memo: HashMap<String, Result<Measurement, PowerError>>,
    inflight: HashSet<String>,
    /// Trace keys a functional run is recording right now
    /// ([`RecordingClaim`]); other units of the key wait for its trace.
    recording: HashSet<String>,
    /// Trace keys whose recording turned ineligible. Every launch before a
    /// program's first irregular one is deterministic, so that depends only
    /// on (program, input, memory model): these units simulate without a
    /// claim for the campaign's lifetime.
    unrecordable: HashSet<String>,
    /// Recordings that stored a trace. A unit that missed the trace DB
    /// claims a key only while this is unchanged, so a trace stored between
    /// its miss and its claim is loaded, not recorded twice.
    recorded: u64,
    /// Memo entries holding an `Err` (maintained at insertion so
    /// [`Campaign::stats`] never scans the memo).
    cached_errors: u64,
}

impl CampaignState {
    fn memoize(&mut self, ckey: String, res: Result<Measurement, PowerError>) {
        if res.is_err() {
            self.cached_errors += 1;
        }
        self.memo.insert(ckey, res);
    }
}

/// Ownership of one in-flight unit. Dropping it, however the owner's
/// resolution ends, takes the key out of `inflight` and wakes the waiters,
/// so a unit whose run panics leaves the next request a retry rather than
/// a key that never resolves.
struct InFlight<'a> {
    campaign: &'a Campaign,
    key: &'a str,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut g = self
            .campaign
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        g.inflight.remove(self.key);
        drop(g);
        self.campaign.done.notify_all();
    }
}

/// Ownership of one trace key being recorded. Dropping it, however the
/// recording ends (stored, not stored, or panicked), releases the key and
/// wakes the units waiting on it; the recorder's ineligibility hook
/// ([`RecordingClaim::recorder`]) releases it earlier, at the run's first
/// irregular launch.
struct RecordingClaim {
    state: Arc<Mutex<CampaignState>>,
    done: Arc<Condvar>,
    tkey: String,
    /// Whether the recording stored a trace, which the waiters then load.
    stored: bool,
}

impl RecordingClaim {
    /// A recorder whose first ineligible launch releases the claim and
    /// marks the key never recordable, so the units waiting on it simulate
    /// at once rather than after the whole run.
    fn recorder(&self) -> TraceRecorder {
        let (state, done, tkey) = (self.state.clone(), self.done.clone(), self.tkey.clone());
        TraceRecorder::with_ineligible_hook(move || {
            let mut g = state.lock().unwrap_or_else(|e| e.into_inner());
            g.recording.remove(&tkey);
            g.unrecordable.insert(tkey);
            drop(g);
            done.notify_all();
        })
    }
}

impl Drop for RecordingClaim {
    fn drop(&mut self) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        g.recording.remove(&self.tkey);
        if self.stored {
            g.recorded += 1;
        }
        drop(g);
        self.done.notify_all();
    }
}

/// How a unit that missed the record caches is measured
/// ([`Campaign::source`]).
enum Source {
    /// Replay its program's stored trace.
    Replay(Arc<StoredTrace>),
    /// Simulate, recording the trace under this claim.
    Record(RecordingClaim),
    /// Simulate a program that can never record its trace.
    Simulate,
}

/// The launch trace shared by the units of one [`Campaign::sweep`]. Sweep
/// points differ only in clocks, so they share one trace identity (the
/// memory model is the same at every point) and one decoded trace serves
/// them all. Only a successful load is kept: on a cold sweep the first
/// point to miss records the trace, and the others wait for it and then
/// load it here.
#[derive(Default)]
struct SweepTrace(Mutex<Option<Arc<StoredTrace>>>);

impl SweepTrace {
    fn load(&self, db: &TraceDb, tkey: &str) -> Option<Arc<StoredTrace>> {
        let mut held = self.0.lock().expect("sweep trace lock poisoned");
        if held.is_none() {
            *held = db.load(tkey).map(Arc::new);
        }
        held.clone()
    }
}

/// The shared measurement campaign: every table and figure generator pulls
/// its readings from one of these, so `repro all` performs each unique
/// simulation exactly once and a warm-cache re-run simulates nothing.
pub struct Campaign {
    cache_dir: Option<PathBuf>,
    telemetry: Option<Arc<dyn TelemetrySink>>,
    fingerprint: u64,
    started: Instant,
    /// Shared with the ineligibility hooks of running recordings.
    state: Arc<Mutex<CampaignState>>,
    done: Arc<Condvar>,
    trace_db: TraceDb,
    simulated: AtomicU64,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    disk_stale: AtomicU64,
    disk_corrupt: AtomicU64,
    trace_replays: AtomicU64,
}

impl Campaign {
    pub fn new(cfg: CampaignConfig) -> Self {
        Self {
            cache_dir: cfg.cache_dir,
            telemetry: cfg.telemetry,
            fingerprint: sim_fingerprint(),
            started: Instant::now(),
            state: Arc::default(),
            done: Arc::default(),
            trace_db: match cfg.trace_dir {
                Some(dir) => TraceDb::new(dir, sim_fingerprint()),
                None => TraceDb::in_memory(sim_fingerprint()),
            },
            simulated: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_stale: AtomicU64::new(0),
            disk_corrupt: AtomicU64::new(0),
            trace_replays: AtomicU64::new(0),
        }
    }

    /// A campaign with in-process memoization only.
    pub fn in_memory() -> Self {
        Self::new(CampaignConfig::default())
    }

    /// Override the model fingerprint. Test hook: lets a test plant a
    /// record that a correctly-fingerprinted campaign must treat as stale.
    #[doc(hidden)]
    pub fn with_fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = fingerprint;
        self
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CampaignStats {
        let (in_flight, cached_errors) = {
            let g = self.state.lock().unwrap();
            (g.inflight.len() as u64, g.cached_errors)
        };
        CampaignStats {
            simulated: self.simulated.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_stale: self.disk_stale.load(Ordering::Relaxed),
            disk_corrupt: self.disk_corrupt.load(Ordering::Relaxed),
            in_flight,
            cached_errors,
            trace_replays: self.trace_replays.load(Ordering::Relaxed),
            trace_stale: self.trace_db.stale(),
            trace_corrupt: self.trace_db.corrupt(),
        }
    }

    /// The traces the campaign's trace DB holds and their encoded bytes.
    pub fn trace_usage(&self) -> TraceUsage {
        self.trace_db.usage()
    }

    /// Whether the in-process memo holds `key`'s result or its cached
    /// measurement error. Looks only in the memo: no disk probe, no wait
    /// on an in-flight unit, no counter update.
    pub fn is_memoized(&self, key: &str) -> bool {
        self.state
            .lock()
            .expect("campaign state poisoned")
            .memo
            .contains_key(key)
    }

    fn emit(&self, ev: Event) {
        if let Some(sink) = &self.telemetry {
            sink.record(ev);
        }
    }

    fn wall(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Execute a planned set of requests on the rayon pool, deduplicated
    /// by cache identity. Returns the number of unique units resolved.
    ///
    /// The units run in (program, input) groups ([`affine_groups`]). A
    /// group runs on one pool thread, in plan order: its first unit of each
    /// memory model records the trace, and the group's other
    /// configurations and reps replay it.
    pub fn execute(&self, plan: &[RunRequest]) -> usize {
        let mut seen = HashSet::new();
        let unique: Vec<&RunRequest> = plan
            .iter()
            .filter(|r| seen.insert(canonical_key_parts(r.key, &r.input, r.config.name(), r.rep)))
            .collect();
        let total = unique.len() as u32;
        let progress = AtomicU64::new(0);
        affine_groups(&unique).par_iter().for_each(|group| {
            for req in group {
                if let Some(b) = registry::by_key(req.key) {
                    let _ = self.run(b.as_ref(), &req.input, req.config, req.rep);
                }
                let done = progress.fetch_add(1, Ordering::Relaxed) as u32 + 1;
                self.emit(Event::CampaignProgress {
                    t: self.wall(),
                    done,
                    total,
                });
            }
        });
        unique.len()
    }

    /// One unit of the matrix, memoized: serve from the in-process memo,
    /// else from disk, else replay the program's recorded trace, else wait
    /// for another unit of the program that is recording it and replay,
    /// else simulate. A unit simulates at most once per process (a second
    /// concurrent request for it waits for the first), and a program
    /// simulates once per memory model unless it cannot be recorded.
    pub fn run(
        &self,
        bench: &dyn Benchmark,
        input: &InputSpec,
        config: GpuConfigKind,
        rep: u64,
    ) -> Result<Measurement, PowerError> {
        let ckey = canonical_key_parts(bench.spec().key, input, config.name(), rep);
        self.resolve_unit(
            ckey,
            bench,
            input,
            config.device_config(),
            rep,
            &SweepTrace::default(),
        )
    }

    /// One unit of a clock sweep, memoized under the point's cache tag.
    /// Shares every cache layer (and the in-flight dedup) with [`run`]; a
    /// sweep point that coincides with a named configuration still has its
    /// own cache identity (`cfg=sweep:...` vs `cfg=default`), since the
    /// sweep's voltage model is interpolated rather than named.
    pub fn run_sweep_point(
        &self,
        bench: &dyn Benchmark,
        input: &InputSpec,
        point: SweepPoint,
        rep: u64,
    ) -> Result<Measurement, PowerError> {
        self.sweep_point_in(bench, input, point, rep, &SweepTrace::default())
    }

    fn sweep_point_in(
        &self,
        bench: &dyn Benchmark,
        input: &InputSpec,
        point: SweepPoint,
        rep: u64,
        trace: &SweepTrace,
    ) -> Result<Measurement, PowerError> {
        let ckey = canonical_key_parts(bench.spec().key, input, &point.cache_tag(), rep);
        self.resolve_unit(ckey, bench, input, point.device_config(), rep, trace)
    }

    /// The trace identity of a campaign unit: no clock/ECC configuration,
    /// repetition or seed — one recorded trace serves the whole config x rep
    /// matrix — but bound to the memory model, whose cache-tier counters
    /// are baked into the recorded block costs (see [`crate::tracedb`]).
    fn unit_trace_key(bench: &dyn Benchmark, input: &InputSpec, cfg: &DeviceConfig) -> String {
        trace_key(
            &bench.spec().cache_key(),
            &input.cache_key(),
            &cfg.mem_model.tag(),
        )
    }

    /// Resolve one unit under an explicit device configuration: memo ->
    /// disk -> **trace replay** -> wait for a recording -> simulate,
    /// recording the functional run's trace (when every launch was
    /// recordable) for the units after it. The trace comes from `trace`
    /// when an earlier unit of the same sweep already loaded it.
    fn resolve_unit(
        &self,
        ckey: String,
        bench: &dyn Benchmark,
        input: &InputSpec,
        cfg: DeviceConfig,
        rep: u64,
        trace: &SweepTrace,
    ) -> Result<Measurement, PowerError> {
        self.resolve(ckey, || {
            let tkey = Self::unit_trace_key(bench, input, &cfg);
            let res = match self.source(&tkey, trace) {
                Source::Replay(st) => {
                    let res = measure_from_trace(bench.spec().key, input, cfg, rep, &st);
                    self.trace_replays.fetch_add(1, Ordering::Relaxed);
                    return res;
                }
                Source::Record(mut claim) => {
                    let (res, stored) = measure_recording(bench, input, cfg, rep, claim.recorder());
                    if let Some(st) = stored {
                        self.trace_db.store(&tkey, &st);
                        claim.stored = true;
                    }
                    res
                }
                Source::Simulate => measure_with_device_config(bench, input, cfg, rep),
            };
            self.simulated.fetch_add(1, Ordering::Relaxed);
            res
        })
    }

    /// How a unit of trace key `tkey` that missed the record caches is
    /// measured: replay the stored trace; else, while another unit records
    /// it, wait and look again; else claim the key and record it, unless
    /// the key is known never to record.
    fn source(&self, tkey: &str, trace: &SweepTrace) -> Source {
        // `recorded` as of this unit's last trace-DB miss.
        let mut missed_at = None;
        loop {
            let mut g = self.state.lock().expect("campaign state poisoned");
            while g.recording.contains(tkey) {
                g = self.done.wait(g).expect("campaign state poisoned");
            }
            if g.unrecordable.contains(tkey) {
                return Source::Simulate;
            }
            if missed_at == Some(g.recorded) {
                g.recording.insert(tkey.to_string());
                return Source::Record(RecordingClaim {
                    state: self.state.clone(),
                    done: self.done.clone(),
                    tkey: tkey.to_string(),
                    stored: false,
                });
            }
            missed_at = Some(g.recorded);
            drop(g);
            if let Some(st) = trace.load(&self.trace_db, tkey) {
                return Source::Replay(st);
            }
        }
    }

    /// A sweep-point reading at the requested repetition count, mirroring
    /// [`Campaign::reading`]'s median-of-three / quick split.
    fn sweep_reading(
        &self,
        bench: &dyn Benchmark,
        input: &InputSpec,
        point: SweepPoint,
        reps: u64,
        trace: &SweepTrace,
    ) -> Result<Reading, PowerError> {
        if reps >= 3 {
            let runs = [
                self.sweep_point_in(bench, input, point, 0, trace)?,
                self.sweep_point_in(bench, input, point, 1, trace)?,
                self.sweep_point_in(bench, input, point, 2, trace)?,
            ];
            Ok(combine_median3(&runs).reading)
        } else {
            self.sweep_point_in(bench, input, point, 0, trace)
                .map(|m| m.reading)
        }
    }

    /// Resolve every point of a sweep grid on the rayon pool. Returns
    /// `(point, outcome)` in grid order; unmeasurable points carry their
    /// error as a value (the 324-MHz-style exclusions survive a sweep).
    /// The points share one trace identity, so the program's trace is read
    /// and decoded once per sweep, not once per point.
    #[allow(clippy::type_complexity)]
    pub fn sweep(
        &self,
        bench: &dyn Benchmark,
        input: &InputSpec,
        grid: &[SweepPoint],
        reps: u64,
    ) -> Vec<(SweepPoint, Result<Reading, PowerError>)> {
        let total = grid.len() as u32;
        let progress = AtomicU64::new(0);
        let trace = SweepTrace::default();
        grid.par_iter()
            .map(|&p| {
                let res = self.sweep_reading(bench, input, p, reps, &trace);
                let done = progress.fetch_add(1, Ordering::Relaxed) as u32 + 1;
                self.emit(Event::CampaignProgress {
                    t: self.wall(),
                    done,
                    total,
                });
                (p, res)
            })
            .collect()
    }

    /// The record-cache half of [`Campaign::resolve_unit`]: memo, in-flight
    /// wait, disk. When both record caches miss, `measure` runs (replaying
    /// or simulating) and its outcome is persisted and memoized the same
    /// way either way, so a replayed unit warms the record cache with a
    /// record bit-identical to a live run's.
    fn resolve(
        &self,
        ckey: String,
        measure: impl FnOnce() -> Result<Measurement, PowerError>,
    ) -> Result<Measurement, PowerError> {
        {
            let mut g = self.state.lock().unwrap();
            loop {
                if let Some(v) = g.memo.get(&ckey) {
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                    self.emit(Event::CacheLookup {
                        t: self.wall(),
                        key: ckey.clone(),
                        hit: true,
                        disk: false,
                    });
                    return v.clone();
                }
                if g.inflight.contains(&ckey) {
                    g = self.done.wait(g).unwrap();
                } else {
                    break;
                }
            }
            // Disk probe under the lock: records are tiny, and probing
            // here keeps hit accounting race-free.
            if let Some(rec) = self.load_record(&ckey) {
                g.memoize(ckey.clone(), rec.clone());
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.emit(Event::CacheLookup {
                    t: self.wall(),
                    key: ckey.clone(),
                    hit: true,
                    disk: true,
                });
                return rec;
            }
            g.inflight.insert(ckey.clone());
        }
        let res = {
            let _owner = InFlight {
                campaign: self,
                key: &ckey,
            };
            // Replay or simulate outside the lock so the pool keeps
            // stealing work.
            let res = measure();
            self.store_record(&ckey, &res);
            let mut g = self.state.lock().expect("campaign state poisoned");
            g.memoize(ckey.clone(), res.clone());
            res
        };
        self.emit(Event::CacheLookup {
            t: self.wall(),
            key: ckey,
            hit: false,
            disk: false,
        });
        res
    }

    /// The paper's median-of-three, derived from the three cached reps.
    /// Bit-identical to [`crate::experiment::measure_median3`]: both feed
    /// the same per-rep measurements through [`combine_median3`].
    pub fn median3(
        &self,
        bench: &dyn Benchmark,
        input: &InputSpec,
        config: GpuConfigKind,
    ) -> Result<MedianMeasurement, PowerError> {
        let runs = [
            self.run(bench, input, config, 0)?,
            self.run(bench, input, config, 1)?,
            self.run(bench, input, config, 2)?,
        ];
        Ok(combine_median3(&runs))
    }

    /// A reading at the requested repetition count: the median-of-three
    /// methodology, or the single rep-0 run in `--quick` mode.
    pub fn reading(
        &self,
        bench: &dyn Benchmark,
        input: &InputSpec,
        config: GpuConfigKind,
        reps: u64,
    ) -> Result<Reading, PowerError> {
        if reps >= 3 {
            self.median3(bench, input, config).map(|m| m.reading)
        } else {
            self.run(bench, input, config, 0).map(|m| m.reading)
        }
    }

    /// Like [`Campaign::reading`] but with the ancillary fields (items,
    /// counters, variability) the tables need.
    pub fn measurement(
        &self,
        bench: &dyn Benchmark,
        input: &InputSpec,
        config: GpuConfigKind,
        reps: u64,
    ) -> Result<MedianMeasurement, PowerError> {
        if reps >= 3 {
            self.median3(bench, input, config)
        } else {
            self.run(bench, input, config, 0)
                .map(|m| MedianMeasurement {
                    reading: m.reading,
                    items: m.items,
                    counters: m.counters,
                    time_variability_pct: 0.0,
                    energy_variability_pct: 0.0,
                    board_energy_j: m.board_energy_j,
                    trace_end_s: m.trace_end_s,
                    kernel_time_s: m.kernel_time_s,
                    sampled_energy_j: m.sampled_energy_j,
                })
        }
    }

    // -- persistence --------------------------------------------------------

    fn record_path(&self, ckey: &str) -> Option<PathBuf> {
        self.cache_dir
            .as_ref()
            .map(|d| d.join(format!("{:016x}.camp", fnv1a64(ckey.as_bytes()))))
    }

    /// Load one record, verifying fingerprint and full key. Any failure is
    /// a miss: stale and corrupt (including non-UTF-8) entries bump their
    /// counters and will be overwritten by the re-run's store.
    fn load_record(&self, ckey: &str) -> Option<Result<Measurement, PowerError>> {
        let path = self.record_path(ckey)?;
        let body = std::fs::read(&path).ok()?;
        match std::str::from_utf8(&body).ok().and_then(parse_record) {
            Some((fp, key, res)) => {
                if key != ckey {
                    // Hash collision or hand-edited file: treat as absent.
                    None
                } else if fp != self.fingerprint {
                    self.disk_stale.fetch_add(1, Ordering::Relaxed);
                    None
                } else {
                    Some(res)
                }
            }
            None => {
                self.disk_corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist one record. Best-effort: an unwritable cache directory
    /// degrades to memo-only operation. The write goes through a unique
    /// temporary file + rename so concurrent processes never observe a
    /// torn record.
    fn store_record(&self, ckey: &str, res: &Result<Measurement, PowerError>) {
        let Some(path) = self.record_path(ckey) else {
            return;
        };
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let body = format_record(self.fingerprint, ckey, res);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, body).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// Record format (hand-rolled: the workspace builds offline, serde is a shim)
// ---------------------------------------------------------------------------

pub(crate) fn fbits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

pub(crate) fn parse_fbits(tok: &str) -> Option<f64> {
    u64::from_str_radix(tok, 16).ok().map(f64::from_bits)
}

/// Render one record. Floats are stored as their exact bit patterns so a
/// round-trip through the cache is bit-identical to the live measurement.
fn format_record(fingerprint: u64, ckey: &str, res: &Result<Measurement, PowerError>) -> String {
    let mut s = String::new();
    s.push_str(RECORD_MAGIC);
    s.push('\n');
    s.push_str(&format!("fingerprint {fingerprint:016x}\n"));
    s.push_str(&format!("key {ckey}\n"));
    match res {
        Ok(m) => {
            let r = &m.reading;
            s.push_str("status ok\n");
            s.push_str(&format!(
                "reading {} {} {} {} {} {}\n",
                fbits(r.active_runtime_s),
                fbits(r.energy_j),
                fbits(r.avg_power_w),
                fbits(r.threshold_w),
                fbits(r.idle_w),
                r.n_active_samples
            ));
            s.push_str(&format!("checksum {}\n", fbits(m.checksum)));
            match &m.items {
                Some(it) => s.push_str(&format!("items {} {}\n", it.vertices, it.edges)),
                None => s.push_str("items none\n"),
            }
            let c = &m.counters;
            s.push_str(&format!(
                "counters {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
                c.blocks,
                c.threads,
                c.warps,
                fbits(c.issue_cycles),
                fbits(c.dram_bytes),
                fbits(c.useful_bytes),
                fbits(c.transactions),
                fbits(c.ideal_transactions),
                fbits(c.atomics),
                fbits(c.lane_ops[0]),
                fbits(c.lane_ops[1]),
                fbits(c.lane_ops[2]),
                fbits(c.lane_ops[3]),
                fbits(c.lane_ops[4]),
                fbits(c.lane_ops[5]),
                fbits(c.lane_ops[6]),
                fbits(c.shared_accesses),
                fbits(c.bank_conflict_cycles),
                fbits(c.barriers),
                fbits(c.slots),
                fbits(c.active_lanes),
                fbits(c.l1_hits),
                fbits(c.l2_hits),
                fbits(c.dram_transactions),
                fbits(c.mshr_merges),
                0 // reserved
            ));
            s.push_str(&format!(
                "board {} {} {}\n",
                fbits(m.board_energy_j),
                fbits(m.trace_end_s),
                fbits(m.kernel_time_s)
            ));
            s.push_str(&format!("sampled {}", m.sampled_energy_j.len()));
            for &e in &m.sampled_energy_j {
                s.push(' ');
                s.push_str(&fbits(e));
            }
            s.push('\n');
        }
        Err(PowerError::InsufficientSamples(n)) => {
            s.push_str("status err\n");
            s.push_str(&format!("error insufficient {n}\n"));
        }
        Err(PowerError::NoSamples) => {
            s.push_str("status err\n");
            s.push_str("error nosamples\n");
        }
    }
    s.push_str(RECORD_END);
    s.push('\n');
    s
}

/// Parse one record back. `None` on any malformation — including a missing
/// terminator line, which is how a truncated write is detected.
fn parse_record(body: &str) -> Option<(u64, String, Result<Measurement, PowerError>)> {
    let mut lines = body.lines();
    if lines.next()? != RECORD_MAGIC {
        return None;
    }
    let fp_line = lines.next()?;
    let fp = u64::from_str_radix(fp_line.strip_prefix("fingerprint ")?, 16).ok()?;
    let key = lines.next()?.strip_prefix("key ")?.to_string();
    let status = lines.next()?;
    let res: Result<Measurement, PowerError> = match status {
        "status ok" => {
            let rtoks: Vec<&str> = lines
                .next()?
                .strip_prefix("reading ")?
                .split_whitespace()
                .collect();
            if rtoks.len() != 6 {
                return None;
            }
            let reading = Reading {
                active_runtime_s: parse_fbits(rtoks[0])?,
                energy_j: parse_fbits(rtoks[1])?,
                avg_power_w: parse_fbits(rtoks[2])?,
                threshold_w: parse_fbits(rtoks[3])?,
                idle_w: parse_fbits(rtoks[4])?,
                n_active_samples: rtoks[5].parse().ok()?,
            };
            let checksum = parse_fbits(lines.next()?.strip_prefix("checksum ")?)?;
            let items_line = lines.next()?.strip_prefix("items ")?;
            let items = if items_line == "none" {
                None
            } else {
                let mut it = items_line.split_whitespace();
                Some(ItemCounts {
                    vertices: it.next()?.parse().ok()?,
                    edges: it.next()?.parse().ok()?,
                })
            };
            let ctoks: Vec<&str> = lines
                .next()?
                .strip_prefix("counters ")?
                .split_whitespace()
                .collect();
            if ctoks.len() != 26 {
                return None;
            }
            let mut counters = KernelCounters {
                blocks: ctoks[0].parse().ok()?,
                threads: ctoks[1].parse().ok()?,
                warps: ctoks[2].parse().ok()?,
                issue_cycles: parse_fbits(ctoks[3])?,
                dram_bytes: parse_fbits(ctoks[4])?,
                useful_bytes: parse_fbits(ctoks[5])?,
                transactions: parse_fbits(ctoks[6])?,
                ideal_transactions: parse_fbits(ctoks[7])?,
                atomics: parse_fbits(ctoks[8])?,
                ..Default::default()
            };
            for i in 0..7 {
                counters.lane_ops[i] = parse_fbits(ctoks[9 + i])?;
            }
            counters.shared_accesses = parse_fbits(ctoks[16])?;
            counters.bank_conflict_cycles = parse_fbits(ctoks[17])?;
            counters.barriers = parse_fbits(ctoks[18])?;
            counters.slots = parse_fbits(ctoks[19])?;
            counters.active_lanes = parse_fbits(ctoks[20])?;
            counters.l1_hits = parse_fbits(ctoks[21])?;
            counters.l2_hits = parse_fbits(ctoks[22])?;
            counters.dram_transactions = parse_fbits(ctoks[23])?;
            counters.mshr_merges = parse_fbits(ctoks[24])?;
            let btoks: Vec<&str> = lines
                .next()?
                .strip_prefix("board ")?
                .split_whitespace()
                .collect();
            if btoks.len() != 3 {
                return None;
            }
            let mut stoks = lines.next()?.strip_prefix("sampled ")?.split_whitespace();
            let n: usize = stoks.next()?.parse().ok()?;
            let sampled_energy_j: Vec<f64> = stoks.map(parse_fbits).collect::<Option<_>>()?;
            if sampled_energy_j.len() != n {
                return None;
            }
            Ok(Measurement {
                reading,
                checksum,
                items,
                counters,
                board_energy_j: parse_fbits(btoks[0])?,
                trace_end_s: parse_fbits(btoks[1])?,
                kernel_time_s: parse_fbits(btoks[2])?,
                sampled_energy_j,
            })
        }
        "status err" => {
            let err_line = lines.next()?.strip_prefix("error ")?;
            if err_line == "nosamples" {
                Err(PowerError::NoSamples)
            } else {
                let n = err_line.strip_prefix("insufficient ")?.parse().ok()?;
                Err(PowerError::InsufficientSamples(n))
            }
        }
        _ => return None,
    };
    if lines.next()? != RECORD_END {
        return None;
    }
    Some((fp, key, res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::measure_median3;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::path::Path;
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;
    use std::time::Duration;

    static TEST_DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A unique scratch cache directory per test (no tempfile dependency).
    fn scratch_dir(tag: &str) -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "gpgpu-campaign-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn disk_campaign(dir: &Path) -> Campaign {
        Campaign::new(CampaignConfig {
            cache_dir: Some(dir.to_path_buf()),
            ..CampaignConfig::default()
        })
    }

    fn readings_bit_identical(a: &Reading, b: &Reading) -> bool {
        a.active_runtime_s.to_bits() == b.active_runtime_s.to_bits()
            && a.energy_j.to_bits() == b.energy_j.to_bits()
            && a.avg_power_w.to_bits() == b.avg_power_w.to_bits()
            && a.threshold_w.to_bits() == b.threshold_w.to_bits()
            && a.idle_w.to_bits() == b.idle_w.to_bits()
            && a.n_active_samples == b.n_active_samples
    }

    #[test]
    fn campaign_median3_matches_direct_measurement_bitwise() {
        let _serial = crate::serial();
        let dir = scratch_dir("roundtrip");
        let b = registry::by_key("sgemm").unwrap();
        let input = &b.inputs()[0];
        let direct = measure_median3(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();

        // Cold campaign: rep 0 simulates and records, reps 1 and 2 replay
        // its trace; all three persist.
        let c1 = disk_campaign(&dir);
        let m1 = c1
            .median3(b.as_ref(), input, GpuConfigKind::Default)
            .unwrap();
        assert!(readings_bit_identical(&m1.reading, &direct.reading));
        assert_eq!(m1.counters, direct.counters);
        let s = c1.stats();
        assert_eq!((s.simulated, s.trace_replays), (1, 2), "{s}");

        // Warm campaign, same directory: serves the records from disk
        // without touching the simulator, bit-identical.
        let before = kepler_sim::devices_created();
        let c2 = disk_campaign(&dir);
        let m2 = c2
            .median3(b.as_ref(), input, GpuConfigKind::Default)
            .unwrap();
        assert_eq!(
            kepler_sim::devices_created(),
            before,
            "cache hit must skip simulation"
        );
        let s = c2.stats();
        assert_eq!((s.simulated, s.disk_hits), (0, 3), "{s}");
        assert!(readings_bit_identical(&m2.reading, &direct.reading));
        assert_eq!(m2.counters, direct.counters);
        assert_eq!(
            m2.time_variability_pct.to_bits(),
            direct.time_variability_pct.to_bits()
        );
        assert_eq!(
            m2.energy_variability_pct.to_bits(),
            direct.energy_variability_pct.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_hit_skips_simulation_and_is_counted() {
        let _serial = crate::serial();
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let c = Campaign::in_memory();
        let m1 = c.run(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        assert_eq!(c.stats().simulated, 1);
        let before = kepler_sim::devices_created();
        let m2 = c.run(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        assert_eq!(kepler_sim::devices_created(), before);
        assert_eq!(c.stats().memo_hits, 1);
        assert!(readings_bit_identical(&m1.reading, &m2.reading));
    }

    #[test]
    fn stale_fingerprint_forces_rerun() {
        let _serial = crate::serial();
        let dir = scratch_dir("stale");
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        // Plant a record under a deliberately different fingerprint.
        let old = disk_campaign(&dir).with_fingerprint(0xDEAD_BEEF);
        old.run(b.as_ref(), input, GpuConfigKind::Default, 0)
            .unwrap();
        assert_eq!(old.stats().simulated, 1);
        // A correctly-fingerprinted campaign must re-run, not trust it.
        let c = disk_campaign(&dir);
        c.run(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        let s = c.stats();
        assert_eq!((s.simulated, s.disk_hits, s.disk_stale), (1, 0, 1), "{s}");
        // ... and its store repaired the record for the next campaign.
        let c2 = disk_campaign(&dir);
        c2.run(b.as_ref(), input, GpuConfigKind::Default, 0)
            .unwrap();
        assert_eq!(c2.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_record_forces_clean_rerun() {
        let _serial = crate::serial();
        let dir = scratch_dir("truncated");
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let c1 = disk_campaign(&dir);
        let m1 = c1
            .run(b.as_ref(), input, GpuConfigKind::Default, 0)
            .unwrap();
        // Truncate the single record on disk (simulates a torn write that
        // bypassed the tmp+rename path, e.g. a full disk).
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1);
        let body = std::fs::read_to_string(&files[0]).unwrap();
        std::fs::write(&files[0], &body[..body.len() / 2]).unwrap();
        let c2 = disk_campaign(&dir);
        let m2 = c2
            .run(b.as_ref(), input, GpuConfigKind::Default, 0)
            .unwrap();
        let s = c2.stats();
        assert_eq!((s.simulated, s.disk_hits, s.disk_corrupt), (1, 0, 1), "{s}");
        assert!(readings_bit_identical(&m1.reading, &m2.reading));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record that is not UTF-8 is corrupt, not a silent miss: counted,
    /// re-run, and overwritten by the re-run's store.
    #[test]
    fn a_non_utf8_record_counts_as_corrupt() {
        let _serial = crate::serial();
        let dir = scratch_dir("non-utf8");
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let m1 = disk_campaign(&dir)
            .run(b.as_ref(), input, GpuConfigKind::Default, 0)
            .unwrap();
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1);
        let mut body = std::fs::read(&files[0]).unwrap();
        body[RECORD_MAGIC.len() + 1] = 0xFF;
        std::fs::write(&files[0], &body).unwrap();
        let c2 = disk_campaign(&dir);
        let m2 = c2
            .run(b.as_ref(), input, GpuConfigKind::Default, 0)
            .unwrap();
        let s = c2.stats();
        assert_eq!((s.simulated, s.disk_hits, s.disk_corrupt), (1, 0, 1), "{s}");
        assert!(readings_bit_identical(&m1.reading, &m2.reading));
        let c3 = disk_campaign(&dir);
        c3.run(b.as_ref(), input, GpuConfigKind::Default, 0)
            .unwrap();
        assert_eq!(c3.stats().disk_hits, 1, "the re-run healed the record");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn measurement_errors_are_cached_too() {
        let _serial = crate::serial();
        // lbfs-wlw on its largest input is the paper's "too fast to
        // measure" case; the campaign must not re-simulate it on every
        // request (the 324-MHz sweep would otherwise never warm up).
        let dir = scratch_dir("errors");
        let b = registry::by_key("lbfs-wlw").unwrap();
        let input = b.inputs().last().unwrap().clone();
        let c1 = disk_campaign(&dir);
        let e1 = c1
            .run(b.as_ref(), &input, GpuConfigKind::Default, 0)
            .unwrap_err();
        assert_eq!(c1.stats().simulated, 1);
        let c2 = disk_campaign(&dir);
        let before = kepler_sim::devices_created();
        let e2 = c2
            .run(b.as_ref(), &input, GpuConfigKind::Default, 0)
            .unwrap_err();
        assert_eq!(kepler_sim::devices_created(), before);
        assert_eq!(c2.stats().disk_hits, 1);
        assert_eq!(e1, e2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execute_deduplicates_the_plan() {
        let _serial = crate::serial();
        let b = registry::by_key("sten").unwrap();
        let input = b.inputs()[0].clone();
        let c = Campaign::in_memory();
        let req = RunRequest {
            key: "sten",
            input,
            config: GpuConfigKind::Default,
            rep: 0,
        };
        // The same unit requested three times plans down to one run.
        let unique = c.execute(&[req.clone(), req.clone(), req]);
        assert_eq!(unique, 1);
        assert_eq!(c.stats().simulated, 1);
    }

    /// Grouped execution records each (program, input)'s trace under its
    /// first configuration and replays it for the others, measuring exactly
    /// what direct functional runs measure.
    #[test]
    fn execute_replays_each_groups_later_configurations_and_matches_direct_runs() {
        let _serial = crate::serial();
        let configs = [
            GpuConfigKind::Default,
            GpuConfigKind::C614,
            GpuConfigKind::Ecc,
        ];
        let plan: Vec<RunRequest> = ["sten", "nn"]
            .into_iter()
            .flat_map(|key| {
                let input = registry::by_key(key).unwrap().inputs()[0].clone();
                configs.map(|config| RunRequest {
                    key,
                    input: input.clone(),
                    config,
                    rep: 0,
                })
            })
            .collect();
        let grouped = Campaign::in_memory();
        let replayed = kepler_sim::devices_replayed();
        assert_eq!(grouped.execute(&plan), plan.len());
        let s = grouped.stats();
        assert_eq!((s.simulated, s.trace_replays), (2, 4), "{s}");
        assert_eq!(kepler_sim::devices_replayed(), replayed + 4);
        assert_eq!(grouped.trace_usage().traces, 2, "one trace per program");
        for req in &plan {
            let b = registry::by_key(req.key).unwrap();
            let cfg = req.config.device_config();
            let want = measure_with_device_config(b.as_ref(), &req.input, cfg, 0);
            let got = grouped.run(b.as_ref(), &req.input, req.config, 0);
            assert_eq!(
                format_record(0, "unit", &got),
                format_record(0, "unit", &want),
                "{} under {}",
                req.key,
                req.config.name()
            );
        }
        assert_eq!(grouped.stats().memo_hits, plan.len() as u64);
    }

    /// A program whose run panics: every call panics, and none may wait
    /// forever on a key an earlier panicking call left in flight.
    struct Panics;

    impl Benchmark for Panics {
        fn spec(&self) -> workloads::bench::BenchSpec {
            workloads::bench::BenchSpec {
                key: "panics",
                name: "PANICS",
                suite: workloads::bench::Suite::Shoc,
                kernels: 1,
                regular: true,
                description: "panics in every run",
            }
        }
        fn inputs(&self) -> Vec<InputSpec> {
            vec![InputSpec::new("one", 1, 0, 0, 1.0)]
        }
        fn run(
            &self,
            _dev: &mut kepler_sim::Device,
            _input: &InputSpec,
        ) -> workloads::bench::RunOutput {
            panic!("the program failed its own check")
        }
    }

    fn run_panics(c: &Campaign, config: GpuConfigKind) -> bool {
        let input = &Panics.inputs()[0];
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.run(&Panics, input, config, 0)
        }))
        .is_err()
    }

    #[test]
    fn a_panicking_unit_releases_its_key() {
        let _serial = crate::serial();
        let c = Arc::new(Campaign::in_memory());
        assert!(run_panics(&c, GpuConfigKind::Default), "the unit panics");
        // The same unit again, on another thread: it must run (and panic)
        // rather than wait forever for the first call's result.
        let (tx, rx) = mpsc::channel();
        let again = c.clone();
        let retry = std::thread::spawn(move || tx.send(run_panics(&again, GpuConfigKind::Default)));
        let retried = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(retried, Ok(true), "the retry waited on a dead key");
        retry.join().expect("retry thread").expect("result sent");
        assert_eq!(c.stats().in_flight, 0, "both panics released the key");
    }

    /// A panicking recording releases its trace key: the program at a
    /// second configuration, on another thread, runs (and panics) rather
    /// than wait forever for a trace that will never be stored.
    #[test]
    fn a_panicking_recording_releases_its_trace_key() {
        let _serial = crate::serial();
        let c = Arc::new(Campaign::in_memory());
        assert!(run_panics(&c, GpuConfigKind::Default), "the unit panics");
        let (tx, rx) = mpsc::channel();
        let other = c.clone();
        let run = std::thread::spawn(move || tx.send(run_panics(&other, GpuConfigKind::C614)));
        let ran = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            ran,
            Ok(true),
            "the second configuration waited on a dead recording"
        );
        run.join().expect("run thread").expect("result sent");
        let g = c.state.lock().unwrap();
        assert!(g.recording.is_empty() && g.unrecordable.is_empty());
    }

    /// Poll `cond` for up to 10 s; whether it came true.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// A unit resolving on a thread of its own.
    struct Pending {
        rx: mpsc::Receiver<Result<Measurement, PowerError>>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Pending {
        /// Resolve `bench`'s first input at `config`.
        fn start(c: &Arc<Campaign>, bench: &Arc<dyn Benchmark>, config: GpuConfigKind) -> Self {
            let (c, bench) = (c.clone(), bench.clone());
            let (tx, rx) = mpsc::channel();
            let thread = std::thread::spawn(move || {
                let input = &bench.inputs()[0];
                let _ = tx.send(c.run(bench.as_ref(), input, config, 0));
            });
            Self { rx, thread }
        }

        /// The unit's outcome, or `None` if it takes more than 10 s.
        fn outcome(self) -> Option<Result<Measurement, PowerError>> {
            let res = self.rx.recv_timeout(Duration::from_secs(10)).ok()?;
            self.thread.join().expect("unit thread");
            Some(res)
        }
    }

    /// A registry program whose functional runs first call `gate`.
    struct Gated<F> {
        inner: Box<dyn Benchmark>,
        gate: F,
    }

    impl<F: Fn() + Send + Sync> Benchmark for Gated<F> {
        fn spec(&self) -> workloads::bench::BenchSpec {
            self.inner.spec()
        }
        fn inputs(&self) -> Vec<InputSpec> {
            self.inner.inputs()
        }
        fn run(
            &self,
            dev: &mut kepler_sim::Device,
            input: &InputSpec,
        ) -> workloads::bench::RunOutput {
            (self.gate)();
            self.inner.run(dev, input)
        }
    }

    /// Two first units of one eligible program at once: one records the
    /// trace, the other waits for it and replays, and both read what direct
    /// runs read. The recording's functional run starts only once both
    /// units are in flight, so the second arrives while it records.
    #[test]
    fn concurrent_first_units_of_a_program_share_one_recording() {
        let _serial = crate::serial();
        let c = Arc::new(Campaign::in_memory());
        let watched = c.clone();
        let bench: Arc<dyn Benchmark> = Arc::new(Gated {
            inner: registry::by_key("sten").unwrap(),
            gate: move || {
                let both = eventually(|| watched.stats().in_flight == 2);
                assert!(both, "the other unit never arrived");
            },
        });
        let configs = [GpuConfigKind::Default, GpuConfigKind::C614];
        let pending = configs.map(|config| Pending::start(&c, &bench, config));
        let sten = registry::by_key("sten").unwrap();
        let input = &sten.inputs()[0];
        for (config, unit) in configs.into_iter().zip(pending) {
            let got = unit.outcome().expect("the unit resolved");
            let want = measure_with_device_config(sten.as_ref(), input, config.device_config(), 0);
            assert_eq!(
                format_record(0, "unit", &got),
                format_record(0, "unit", &want),
                "{}",
                config.name()
            );
        }
        let s = c.stats();
        assert_eq!(
            (s.simulated, s.trace_replays, s.in_flight),
            (1, 1, 0),
            "{s}"
        );
    }

    /// A kernel without `parallel_safe`: it executes at dispatch, so a run
    /// that launches it cannot be recorded.
    struct Irregular;

    impl kepler_sim::Kernel for Irregular {
        fn name(&self) -> &'static str {
            "irregular"
        }
        fn run_block(&self, blk: &mut kepler_sim::BlockCtx) {
            blk.for_each_thread(|t| t.int_op(1));
        }
    }

    /// A program that launches an irregular kernel first, then holds its
    /// run until two of its runs have started.
    #[derive(Default)]
    struct IrregularFirst {
        runs: AtomicU32,
    }

    impl Benchmark for IrregularFirst {
        fn spec(&self) -> workloads::bench::BenchSpec {
            workloads::bench::BenchSpec {
                key: "irregular-first",
                name: "IRREGULAR-FIRST",
                suite: workloads::bench::Suite::LonestarGpu,
                kernels: 1,
                regular: false,
                description: "an irregular launch, then a wait for a second run",
            }
        }
        fn inputs(&self) -> Vec<InputSpec> {
            vec![InputSpec::new("one", 1, 0, 0, 1.0)]
        }
        fn run(
            &self,
            dev: &mut kepler_sim::Device,
            _input: &InputSpec,
        ) -> workloads::bench::RunOutput {
            self.runs.fetch_add(1, Ordering::SeqCst);
            dev.launch(&Irregular, 4, 64);
            let both = eventually(|| self.runs.load(Ordering::SeqCst) >= 2);
            assert!(both, "the other configuration never started its run");
            workloads::bench::RunOutput {
                checksum: 0.0,
                items: None,
            }
        }
    }

    /// An ineligible recording wakes the unit waiting on it at its first
    /// irregular launch, not when it ends: the recording run cannot end
    /// before the other configuration's run has started. Both simulate,
    /// and the key is never claimed again.
    #[test]
    fn an_ineligible_recording_wakes_its_waiter_at_its_first_irregular_launch() {
        let _serial = crate::serial();
        let c = Arc::new(Campaign::in_memory());
        let bench: Arc<dyn Benchmark> = Arc::new(IrregularFirst::default());
        let configs = [GpuConfigKind::Default, GpuConfigKind::C614];
        for unit in configs.map(|config| Pending::start(&c, &bench, config)) {
            let resolved = unit.outcome();
            assert!(resolved.is_some(), "a unit waited for the whole recording");
        }
        let s = c.stats();
        assert_eq!(
            (s.simulated, s.trace_replays, s.in_flight),
            (2, 0, 0),
            "{s}"
        );
        let g = c.state.lock().unwrap();
        assert!(g.recording.is_empty());
        assert_eq!(g.unrecordable.len(), 1);
    }

    #[test]
    fn flat_and_cached_units_never_collide_in_any_cache_layer() {
        let _serial = crate::serial();
        let dir = scratch_dir("memmodel");
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        // The memory model is spelled out in the canonical identity.
        let kf = canonical_key_parts("sten", input, GpuConfigKind::Default.name(), 0);
        let kc = canonical_key_parts("sten", input, GpuConfigKind::Cache.name(), 0);
        assert!(kf.contains("|mem=flat|"), "{kf}");
        assert!(kc.contains("|mem=cache-"), "{kc}");
        assert_ne!(kf, kc);
        // Cold: both models simulate — no memo/disk collision.
        let c1 = disk_campaign(&dir);
        let mf = c1
            .run(b.as_ref(), input, GpuConfigKind::Default, 0)
            .unwrap();
        let mc = c1.run(b.as_ref(), input, GpuConfigKind::Cache, 0).unwrap();
        assert_eq!(c1.stats().simulated, 2, "{}", c1.stats());
        assert_eq!(
            mf.counters.dram_transactions + mf.counters.mshr_merges,
            0.0,
            "flat model has no cache tiers"
        );
        assert!(
            mc.counters.dram_transactions > 0.0 && mc.counters.mshr_merges > 0.0,
            "cache model classifies the access stream: {:?}",
            mc.counters
        );
        // Warm: both served from disk, bit-identical, still distinct.
        let c2 = disk_campaign(&dir);
        let wf = c2
            .run(b.as_ref(), input, GpuConfigKind::Default, 0)
            .unwrap();
        let wc = c2.run(b.as_ref(), input, GpuConfigKind::Cache, 0).unwrap();
        let s = c2.stats();
        assert_eq!((s.simulated, s.disk_hits), (0, 2), "{s}");
        assert!(readings_bit_identical(&wf.reading, &mf.reading));
        assert!(readings_bit_identical(&wc.reading, &mc.reading));
        assert_eq!(wc.counters, mc.counters);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_format_rejects_malformed_bodies() {
        let m = Measurement {
            reading: Reading {
                active_runtime_s: 1.5,
                energy_j: 150.0,
                avg_power_w: 100.0,
                threshold_w: 55.0,
                idle_w: 25.0,
                n_active_samples: 15,
            },
            checksum: 42.0,
            items: Some(ItemCounts {
                vertices: 7,
                edges: 11,
            }),
            counters: Default::default(),
            board_energy_j: 812.5,
            trace_end_s: 14.25,
            kernel_time_s: 5.125,
            sampled_energy_j: vec![810.0, 813.5, 812.0],
        };
        let body = format_record(0xABCD, "v2|k|i|cfg=default|rep=0|seed=0", &Ok(m.clone()));
        let (fp, key, res) = parse_record(&body).unwrap();
        assert_eq!(fp, 0xABCD);
        assert_eq!(key, "v2|k|i|cfg=default|rep=0|seed=0");
        let back = res.unwrap();
        assert!(readings_bit_identical(&back.reading, &m.reading));
        assert_eq!(back.items, m.items);
        assert_eq!(back.board_energy_j.to_bits(), m.board_energy_j.to_bits());
        assert_eq!(back.trace_end_s.to_bits(), m.trace_end_s.to_bits());
        assert_eq!(back.kernel_time_s.to_bits(), m.kernel_time_s.to_bits());
        assert_eq!(back.sampled_energy_j, m.sampled_energy_j);
        // Truncation at any line boundary is rejected.
        let lines: Vec<&str> = body.lines().collect();
        for cut in 1..lines.len() {
            let partial = lines[..cut].join("\n");
            assert!(parse_record(&partial).is_none(), "cut at {cut} accepted");
        }
        // Error records round-trip as well.
        let err = format_record(1, "k", &Err(PowerError::InsufficientSamples(4)));
        assert_eq!(
            parse_record(&err).unwrap().2.unwrap_err(),
            PowerError::InsufficientSamples(4)
        );
        assert!(parse_record("garbage").is_none());
    }

    /// Floats a record must carry bit for bit: signed zeros, infinities,
    /// subnormals, NaNs of either sign and any payload, arbitrary bits.
    fn arb_f64(rng: &mut TestRng) -> f64 {
        const EDGES: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e-310];
        match rng.below(4) {
            0 => EDGES[rng.below(EDGES.len() as u64) as usize],
            1 => f64::from_bits(rng.next_u64() | 0x7ff0_0000_0000_0001),
            2 => rng.unit_f64() * 1e3,
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    fn arb_measurement(rng: &mut TestRng) -> Measurement {
        let reading = Reading {
            active_runtime_s: arb_f64(rng),
            energy_j: arb_f64(rng),
            avg_power_w: arb_f64(rng),
            threshold_w: arb_f64(rng),
            idle_w: arb_f64(rng),
            n_active_samples: rng.next_u64() as usize,
        };
        let counters = KernelCounters {
            blocks: rng.next_u64(),
            threads: rng.next_u64(),
            warps: rng.next_u64(),
            issue_cycles: arb_f64(rng),
            dram_bytes: arb_f64(rng),
            useful_bytes: arb_f64(rng),
            transactions: arb_f64(rng),
            ideal_transactions: arb_f64(rng),
            atomics: arb_f64(rng),
            lane_ops: std::array::from_fn(|_| arb_f64(rng)),
            shared_accesses: arb_f64(rng),
            bank_conflict_cycles: arb_f64(rng),
            barriers: arb_f64(rng),
            slots: arb_f64(rng),
            active_lanes: arb_f64(rng),
            l1_hits: arb_f64(rng),
            l2_hits: arb_f64(rng),
            dram_transactions: arb_f64(rng),
            mshr_merges: arb_f64(rng),
        };
        Measurement {
            reading,
            checksum: arb_f64(rng),
            items: (rng.below(2) == 0).then(|| ItemCounts {
                vertices: rng.next_u64(),
                edges: rng.next_u64(),
            }),
            counters,
            board_energy_j: arb_f64(rng),
            trace_end_s: arb_f64(rng),
            kernel_time_s: arb_f64(rng),
            sampled_energy_j: (0..rng.below(6)).map(|_| arb_f64(rng)).collect(),
        }
    }

    /// Random records: any fingerprint, a key of any characters but line
    /// breaks, and an arbitrary measurement or either measurement error.
    struct ArbRecord;

    impl Strategy for ArbRecord {
        type Value = (u64, String, Result<Measurement, PowerError>);
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let key = (0..rng.below(40))
                .filter_map(|_| char::from_u32(rng.below(0x11_0000) as u32))
                .filter(|c| !matches!(c, '\n' | '\r'))
                .collect();
            let res = match rng.below(4) {
                0 => Err(PowerError::NoSamples),
                1 => Err(PowerError::InsufficientSamples(rng.next_u64() as usize)),
                _ => Ok(arb_measurement(rng)),
            };
            (rng.next_u64(), key, res)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every record `format_record` writes parses back to its
        /// fingerprint, key and outcome bit for bit: every float is written
        /// as its bits, and re-formatting the parsed record writes the same
        /// bytes.
        #[test]
        fn every_formatted_record_parses_back_bit_for_bit(rec in ArbRecord) {
            let (fp, key, res) = rec;
            let body = format_record(fp, &key, &res);
            let back = parse_record(&body);
            let (fp2, key2, res2) = back.unwrap_or_else(|| panic!("rejected {body:?}"));
            prop_assert_eq!((fp2, &key2), (fp, &key));
            prop_assert_eq!(format_record(fp2, &key2, &res2), body);
        }

        /// Arbitrary text, truncations and one-byte edits of a valid record
        /// never panic the parser, and a record cut anywhere before its
        /// final newline never parses.
        #[test]
        fn parse_record_survives_arbitrary_and_damaged_text(
            rec in ArbRecord,
            junk in proptest::collection::vec(0u8..=255, 0..512),
            cut in 0usize..8192,
            at in 0usize..8192,
            byte in 0u8..=255,
        ) {
            let _ = parse_record(&String::from_utf8_lossy(&junk));
            let body = format_record(rec.0, &rec.1, &rec.2).into_bytes();
            let cut = cut % (body.len() - 1);
            let truncated = String::from_utf8_lossy(&body[..cut]);
            prop_assert!(parse_record(&truncated).is_none(), "cut at {cut} parsed");
            let mut edited = body;
            let at = at % edited.len();
            edited[at] = byte;
            let _ = parse_record(&String::from_utf8_lossy(&edited));
        }
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(sim_fingerprint(), sim_fingerprint());
        assert_ne!(sim_fingerprint(), 0);
    }

    /// A sweep point on a driver ladder setting reproduces that setting's
    /// voltages exactly, so its measurement is bit-identical to the named
    /// configuration's.
    #[test]
    fn sweep_point_on_ladder_matches_named_config_bitwise() {
        let _serial = crate::serial();
        let p = SweepPoint {
            core_mhz: 614.0,
            mem_mhz: 2600.0,
        };
        assert_eq!(p.clock_config(), ClockConfig::k20_614());
        let low = SweepPoint {
            core_mhz: 324.0,
            mem_mhz: 324.0,
        };
        assert_eq!(low.clock_config(), ClockConfig::k20_324());

        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let c = Campaign::in_memory();
        let named = c.run(b.as_ref(), input, GpuConfigKind::C614, 0).unwrap();
        let swept = c.run_sweep_point(b.as_ref(), input, p, 0).unwrap();
        assert!(readings_bit_identical(&named.reading, &swept.reading));
        // Distinct cache identities: the point is no memo hit, but it
        // shares the named run's trace identity and replays it.
        let s = c.stats();
        assert_eq!(
            (s.simulated, s.memo_hits, s.trace_replays),
            (1, 0, 1),
            "{s}"
        );
    }

    /// Interpolated voltages stay monotone and clamped inside the ladder.
    #[test]
    fn sweep_voltage_interpolation_is_monotone_and_clamped() {
        let v = |mhz| {
            SweepPoint {
                core_mhz: mhz,
                mem_mhz: 2600.0,
            }
            .clock_config()
            .core_vrel
        };
        assert_eq!(v(324.0), 0.85);
        assert_eq!(v(758.0), 1.03);
        let mut last = 0.0;
        for mhz in [324.0, 400.0, 500.0, 614.0, 640.0, 666.0, 705.0, 758.0] {
            let cur = v(mhz);
            assert!(cur >= last, "vrel not monotone at {mhz}");
            last = cur;
        }
        // Midpoint of the 324..614 segment.
        let mid = v(469.0);
        assert!((mid - 0.9).abs() < 1e-12, "mid {mid}");
    }

    #[test]
    fn sweep_grid_deduplicates_and_orders() {
        let g = sweep_grid(&[705.0, 614.0, 705.0], &[2600.0, 2600.0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].core_mhz, 705.0);
        assert_eq!(g[1].core_mhz, 614.0);
        assert!(g[0].is_valid());
        assert!(!SweepPoint {
            core_mhz: 100.0,
            mem_mhz: 2600.0
        }
        .is_valid());
        assert!(!SweepPoint {
            core_mhz: f64::NAN,
            mem_mhz: 2600.0
        }
        .is_valid());
    }

    #[test]
    fn pareto_front_flags_non_dominated_points() {
        // (runtime, energy): a dominates c; b trades off against a.
        let pts = [(1.0, 10.0), (2.0, 5.0), (3.0, 12.0), (1.0, 10.0)];
        let flags = pareto_front(&pts);
        // Duplicates of a frontier point both survive (neither strictly
        // dominates the other).
        assert_eq!(flags, vec![true, true, false, true]);
        assert_eq!(pareto_front(&[]), Vec::<bool>::new());
    }

    /// Sweep records persist and round-trip like named-config records.
    #[test]
    fn sweep_records_round_trip_through_disk_cache() {
        let _serial = crate::serial();
        let dir = scratch_dir("sweep");
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let p = SweepPoint {
            core_mhz: 500.0,
            mem_mhz: 2600.0,
        };
        let c1 = disk_campaign(&dir);
        let m1 = c1.run_sweep_point(b.as_ref(), input, p, 0).unwrap();
        assert_eq!(c1.stats().simulated, 1);
        let before = kepler_sim::devices_created();
        let c2 = disk_campaign(&dir);
        let m2 = c2.run_sweep_point(b.as_ref(), input, p, 0).unwrap();
        assert_eq!(kepler_sim::devices_created(), before);
        assert_eq!(c2.stats().disk_hits, 1);
        assert!(readings_bit_identical(&m1.reading, &m2.reading));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sweeps_bit_identical(
        a: &[(SweepPoint, Result<Reading, PowerError>)],
        b: &[(SweepPoint, Result<Reading, PowerError>)],
    ) {
        assert_eq!(a.len(), b.len());
        for ((pa, ra), (pb, rb)) in a.iter().zip(b) {
            assert_eq!(pa, pb);
            match (ra, rb) {
                (Ok(x), Ok(y)) => assert!(readings_bit_identical(x, y), "{pa:?}"),
                (Err(x), Err(y)) => assert_eq!(x, y, "{pa:?}"),
                _ => panic!("{pa:?}: one side measured, the other did not"),
            }
        }
    }

    fn trace_campaign(traces: &Path) -> Campaign {
        Campaign::new(CampaignConfig {
            trace_dir: Some(traces.to_path_buf()),
            ..CampaignConfig::default()
        })
    }

    /// A sweep reads its program's trace once and shares it across the
    /// points; the readings are bit-identical to resolving every point on
    /// its own, each with its own trace load.
    #[test]
    fn sweep_sharing_one_trace_matches_per_point_runs() {
        let _serial = crate::serial();
        let traces = scratch_dir("sweep-traces");
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        trace_campaign(&traces)
            .run(b.as_ref(), input, GpuConfigKind::Default, 0)
            .unwrap();
        let grid = sweep_grid(&[400.0, 555.5, 705.0], &[324.0, 2600.0]);

        let swept = trace_campaign(&traces);
        let sweep = swept.sweep(b.as_ref(), input, &grid, 1);
        let single = trace_campaign(&traces);
        let points: Vec<_> = grid
            .iter()
            .map(|&p| {
                let res = single.run_sweep_point(b.as_ref(), input, p, 0);
                (p, res.map(|m| m.reading))
            })
            .collect();
        sweeps_bit_identical(&sweep, &points);
        for s in [swept.stats(), single.stats()] {
            assert_eq!(
                (s.simulated, s.trace_replays),
                (0, grid.len() as u64),
                "{s}"
            );
        }
        let _ = std::fs::remove_dir_all(&traces);
    }

    /// A cold sweep over an empty trace directory simulates one point, at
    /// any pool size: the first point to miss records the trace, and the
    /// others wait for it and replay.
    #[test]
    fn cold_sweep_simulates_once() {
        let _serial = crate::serial();
        let traces = scratch_dir("cold-sweep-traces");
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let grid = sweep_grid(&[400.0, 500.0, 600.0, 705.0], &[2600.0]);

        let cold = trace_campaign(&traces);
        let sweep = cold.sweep(b.as_ref(), input, &grid, 1);
        let s = cold.stats();
        assert_eq!((s.simulated, s.trace_replays), (1, 3), "{s}");

        // The recorded trace replays every point to the same readings.
        let warm = trace_campaign(&traces);
        sweeps_bit_identical(&sweep, &warm.sweep(b.as_ref(), input, &grid, 1));
        assert_eq!(warm.stats().simulated, 0);
        let _ = std::fs::remove_dir_all(&traces);
    }

    /// `stats()` exposes the cached-error count and the live in-flight
    /// gauge (zero at rest).
    #[test]
    fn stats_report_cached_errors_and_in_flight() {
        let _serial = crate::serial();
        let b = registry::by_key("lbfs-wlw").unwrap();
        let input = b.inputs().last().unwrap().clone();
        let c = Campaign::in_memory();
        assert_eq!(c.stats().in_flight, 0);
        assert_eq!(c.stats().cached_errors, 0);
        let _ = c
            .run(b.as_ref(), &input, GpuConfigKind::Default, 0)
            .unwrap_err();
        let s = c.stats();
        assert_eq!(s.cached_errors, 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.simulated, 1);
    }
}
