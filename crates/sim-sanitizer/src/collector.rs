//! The [`Sanitizer`]: an [`AccessObserver`] that runs the selected
//! checkers over the functional access stream and aggregates findings.
//!
//! ## Race detection model
//!
//! *Within a block*, the functional layer is deterministic (threads run in
//! tid order) but the hardware is not: two threads of one block that touch
//! the same word in the same barrier epoch, with at least one plain write,
//! are unordered on a real GPU — a race. Barrier epochs give exact
//! happens-before: accesses separated by a `__syncthreads()` are ordered
//! and never conflict.
//!
//! *Across blocks* of one launch there is no ordering at all, so any word
//! with a plain write from one block and any access from another is a
//! genuine (timing-dependent) conflict. Words whose cross-block traffic is
//! entirely atomic are classified benign, the way `compute-sanitizer`
//! treats atomics — they are counted per kernel but not reported as
//! findings.
//!
//! Findings are aggregated per (checker, kernel, hazard, buffer) so a
//! worklist code launching thousands of kernels produces a compact report.

use crate::finding::{Checker, Finding, Report, Severity};
use kepler_sim::{
    occupancy, AccessEvent, AccessKind, AccessObserver, DeviceConfig, KernelResources, MemSpace,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Which checkers a [`Sanitizer`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerSet {
    enabled: [bool; Checker::ALL.len()],
}

impl Default for CheckerSet {
    /// The correctness checkers — what the CI gate runs.
    fn default() -> Self {
        Self::correctness()
    }
}

impl CheckerSet {
    pub fn none() -> Self {
        Self {
            enabled: [false; Checker::ALL.len()],
        }
    }

    pub fn correctness() -> Self {
        let mut s = Self::none();
        for c in Checker::CORRECTNESS {
            s.enable(c);
        }
        s
    }

    pub fn all() -> Self {
        Self {
            enabled: [true; Checker::ALL.len()],
        }
    }

    /// Just the performance lints.
    pub fn lints() -> Self {
        let mut s = Self::none();
        for c in Checker::ALL {
            if c.is_lint() {
                s.enable(c);
            }
        }
        s
    }

    pub fn enable(&mut self, c: Checker) -> &mut Self {
        self.enabled[Self::idx(c)] = true;
        self
    }

    pub fn disable(&mut self, c: Checker) -> &mut Self {
        self.enabled[Self::idx(c)] = false;
        self
    }

    pub fn on(&self, c: Checker) -> bool {
        self.enabled[Self::idx(c)]
    }

    fn idx(c: Checker) -> usize {
        Checker::ALL.iter().position(|&x| x == c).unwrap()
    }

    /// Parse a CLI spec: `default` (correctness), `all`, `lints`, or a
    /// comma-separated list of checker names.
    pub fn parse(spec: &str) -> Result<CheckerSet, String> {
        match spec {
            "default" | "correctness" => return Ok(Self::correctness()),
            "all" => return Ok(Self::all()),
            "lints" => return Ok(Self::lints()),
            _ => {}
        }
        let mut s = Self::none();
        for name in spec.split(',') {
            let name = name.trim();
            let c = Checker::from_name(name).ok_or_else(|| {
                format!(
                    "unknown checker {name:?} (expected one of: {})",
                    Checker::ALL.map(|c| c.name()).join(", ")
                )
            })?;
            s.enable(c);
        }
        Ok(s)
    }
}

/// First-witness-per-access-class record for one word's cross-block
/// traffic within a launch.
#[derive(Default, Clone, Copy)]
struct ClassWitness {
    block: Option<u32>,
    multi: bool,
}

impl ClassWitness {
    fn add(&mut self, b: u32) {
        match self.block {
            None => self.block = Some(b),
            Some(x) if x != b => self.multi = true,
            _ => {}
        }
    }

    /// Was this class seen from any block other than `b`?
    fn other_than(&self, b: u32) -> bool {
        self.multi || matches!(self.block, Some(x) if x != b)
    }
}

#[derive(Default, Clone, Copy)]
struct CrossState {
    reads: ClassWitness,
    writes: ClassWitness,
    atoms: ClassWitness,
    reported: bool,
}

/// Intra-block per-word state, valid for one (block, phase).
#[derive(Default, Clone, Copy)]
struct WordState {
    block: u32,
    phase: u32,
    reader: Option<u32>,
    writer: Option<u32>,
    atom: Option<u32>,
}

struct BufInfo {
    label: Option<String>,
    /// Per-element written bitmap; `None` when the buffer was initialized
    /// at allocation (`alloc_init`/`alloc_from`).
    unwritten: Option<Vec<u64>>,
}

impl BufInfo {
    fn name(&self, id: u32) -> String {
        self.label.clone().unwrap_or_else(|| format!("buf{id}"))
    }
}

#[derive(Clone)]
struct LaunchInfo {
    kernel: String,
    grid: u32,
    block_threads: u32,
    res: KernelResources,
}

#[derive(PartialEq, Eq, PartialOrd, Ord, Hash)]
struct AggKey {
    checker: Checker,
    kernel: String,
    hazard: String,
    buffer: String,
}

struct Agg {
    severity: Severity,
    count: u64,
    first_launch: u32,
    message: String,
}

#[derive(Default)]
struct State {
    launches: u32,
    accesses: u64,
    cur: Option<LaunchInfo>,
    buffers: Vec<Option<BufInfo>>,
    intra: HashMap<(MemSpace, u64), WordState>,
    cross: HashMap<u64, CrossState>,
    benign: BTreeMap<String, u64>,
    findings: HashMap<AggKey, Agg>,
}

/// The sanitizer: attach to a [`kepler_sim::Device`] with
/// [`kepler_sim::Device::set_access_observer`], run the workload, then
/// collect the [`Report`].
pub struct Sanitizer {
    workload: String,
    input: String,
    cfg: DeviceConfig,
    checks: CheckerSet,
    state: Mutex<State>,
}

impl Sanitizer {
    pub fn new(workload: &str, input: &str, cfg: &DeviceConfig, checks: CheckerSet) -> Self {
        Self {
            workload: workload.to_string(),
            input: input.to_string(),
            cfg: cfg.clone(),
            checks,
            state: Mutex::new(State::default()),
        }
    }

    /// Snapshot the aggregated findings as a [`Report`] (most severe
    /// first). Call after the run completes.
    pub fn report(&self) -> Report {
        let st = self.state.lock().unwrap();
        let mut findings: Vec<Finding> = st
            .findings
            .iter()
            .map(|(k, a)| Finding {
                checker: k.checker,
                severity: a.severity,
                kernel: k.kernel.clone(),
                hazard: k.hazard.clone(),
                buffer: k.buffer.clone(),
                count: a.count,
                first_launch: a.first_launch,
                message: a.message.clone(),
            })
            .collect();
        findings.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.checker.cmp(&b.checker))
                .then_with(|| a.kernel.cmp(&b.kernel))
                .then_with(|| a.buffer.cmp(&b.buffer))
                .then_with(|| a.hazard.cmp(&b.hazard))
        });
        Report {
            workload: self.workload.clone(),
            input: self.input.clone(),
            findings,
            suppressed: Vec::new(),
            benign_atomic: st.benign.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            launches: st.launches,
            accesses: st.accesses,
        }
    }
}

impl State {
    fn kernel_name(&self) -> String {
        self.cur
            .as_ref()
            .map(|l| l.kernel.clone())
            .unwrap_or_else(|| "<outside launch>".to_string())
    }

    fn buffer_name(&self, space: MemSpace, id: u32) -> String {
        match space {
            MemSpace::Shared => format!("shared{id}"),
            MemSpace::Global => match self.buffers.get(id as usize) {
                Some(Some(b)) => b.name(id),
                _ => format!("buf{id}"),
            },
        }
    }

    fn record(
        &mut self,
        checker: Checker,
        severity: Severity,
        hazard: &str,
        buffer: String,
        launch: u32,
        message: impl FnOnce() -> String,
    ) {
        let key = AggKey {
            checker,
            kernel: self.kernel_name(),
            hazard: hazard.to_string(),
            buffer,
        };
        match self.findings.get_mut(&key) {
            Some(agg) => agg.count += 1,
            None => {
                self.findings.insert(
                    key,
                    Agg {
                        severity,
                        count: 1,
                        first_launch: launch,
                        message: message(),
                    },
                );
            }
        }
    }
}

/// Race hazard classes and their severities: plain write/write is the
/// lower-severity hazard (often a same-value flag write), anything mixing
/// a read or an atomic with an unordered plain access is an error —
/// mirroring compute-sanitizer's hazard levels.
const WAW: (&str, Severity) = ("write/write", Severity::Warning);
const RW: (&str, Severity) = ("read/write", Severity::Error);
const ATOMIC_PLAIN: (&str, Severity) = ("atomic/plain", Severity::Error);

impl AccessObserver for Sanitizer {
    fn observe(&self, ev: AccessEvent<'_>) {
        let st = &mut *self.state.lock().unwrap();
        match ev {
            AccessEvent::BufferAlloc {
                id,
                len,
                initialized,
                ..
            } => {
                let idx = id as usize;
                if st.buffers.len() <= idx {
                    st.buffers.resize_with(idx + 1, || None);
                }
                let unwritten = if initialized {
                    None
                } else {
                    Some(vec![0u64; (len as usize).div_ceil(64)])
                };
                st.buffers[idx] = Some(BufInfo {
                    label: None,
                    unwritten,
                });
            }
            AccessEvent::BufferHostWrite { id, lo, hi } => {
                if let Some(Some(b)) = st.buffers.get_mut(id as usize) {
                    if let Some(bits) = &mut b.unwritten {
                        if lo == 0 && hi as usize >= bits.len() * 64 {
                            b.unwritten = None; // fully written
                        } else {
                            for i in lo..hi {
                                bits[(i / 64) as usize] |= 1 << (i % 64);
                            }
                        }
                    }
                }
            }
            AccessEvent::BufferLabel { id, label } => {
                if let Some(Some(b)) = st.buffers.get_mut(id as usize) {
                    b.label = Some(label.to_string());
                }
            }
            AccessEvent::LaunchBegin {
                kernel,
                grid,
                block_threads,
                regs_per_thread,
                shared_bytes,
                ..
            } => {
                st.cur = Some(LaunchInfo {
                    kernel: kernel.to_string(),
                    grid,
                    block_threads,
                    res: KernelResources {
                        regs_per_thread,
                        shared_bytes,
                    },
                });
            }
            AccessEvent::Access(a) => {
                st.accesses += 1;
                self.check_access(st, &a);
            }
            AccessEvent::BlockEnd { launch, syncs, .. } => {
                st.intra.clear();
                if self.checks.on(Checker::BarrierDivergence) && !syncs.is_empty() {
                    let min = *syncs.iter().min().unwrap();
                    let max = *syncs.iter().max().unwrap();
                    if min != max {
                        let laggard = syncs.iter().position(|&c| c == min).unwrap();
                        st.record(
                            Checker::BarrierDivergence,
                            Severity::Error,
                            "divergent sync count",
                            String::new(),
                            launch,
                            || {
                                format!(
                                    "threads reached between {min} and {max} barriers \
(e.g. thread {laggard} stopped at {min})"
                                )
                            },
                        );
                    }
                }
            }
            AccessEvent::LaunchEnd { launch, stats } => {
                st.launches += 1;
                // Benign classification: words whose cross-block traffic
                // was entirely atomic, from more than one block.
                let benign_words = st
                    .cross
                    .values()
                    .filter(|c| c.atoms.multi && !c.reported)
                    .count() as u64;
                if benign_words > 0 {
                    let kernel = st.kernel_name();
                    *st.benign.entry(kernel).or_insert(0) += benign_words;
                }
                st.cross.clear();
                self.check_lints(st, launch, stats);
                st.cur = None;
            }
        }
    }
}

impl Sanitizer {
    fn check_access(&self, st: &mut State, a: &kepler_sim::Access) {
        if a.oob {
            if self.checks.on(Checker::OutOfBounds) {
                let buffer = st.buffer_name(a.space, a.buffer);
                let (tid, block, idx) = (a.tid, a.block, a.index);
                let kind = match a.kind {
                    AccessKind::Read => "read",
                    AccessKind::Write => "write",
                    AccessKind::Atomic => "atomic",
                    AccessKind::Reduce => "reduction",
                };
                st.record(
                    Checker::OutOfBounds,
                    Severity::Error,
                    kind,
                    buffer,
                    a.launch,
                    || format!("thread {tid} of block {block} accessed element {idx} past the end"),
                );
            }
            return; // an OOB access takes part in no other analysis
        }

        // Uninitialized-read tracking (global only; shared memory is
        // zero-initialized per block by `shared_alloc`, like static
        // __shared__ arrays are *not* — but our functional model defines
        // them, so only global alloc() is flagged).
        if a.space == MemSpace::Global {
            if let Some(Some(b)) = st.buffers.get_mut(a.buffer as usize) {
                if let Some(bits) = &mut b.unwritten {
                    let (word, bit) = ((a.index / 64) as usize, a.index % 64);
                    let written = bits[word] & (1 << bit) != 0;
                    match a.kind {
                        AccessKind::Write | AccessKind::Atomic | AccessKind::Reduce => {
                            bits[word] |= 1 << bit
                        }
                        AccessKind::Read => {}
                    }
                    if !written && a.kind == AccessKind::Read && self.checks.on(Checker::UninitRead)
                    {
                        let buffer = st.buffer_name(a.space, a.buffer);
                        let (tid, block, idx) = (a.tid, a.block, a.index);
                        st.record(
                            Checker::UninitRead,
                            Severity::Error,
                            "read of unwritten element",
                            buffer,
                            a.launch,
                            || {
                                format!(
                                    "thread {tid} of block {block} read element {idx} \
before any write (buffer came from alloc, not alloc_init)"
                                )
                            },
                        );
                    }
                }
            }
        }

        let checker = match a.space {
            MemSpace::Shared => Checker::RaceShared,
            MemSpace::Global => Checker::RaceGlobal,
        };
        if !self.checks.on(checker) {
            return;
        }

        // Intra-block, same-epoch conflicts (exact happens-before from
        // barrier epochs).
        let entry = st.intra.entry((a.space, a.addr)).or_default();
        if entry.block != a.block || entry.phase != a.phase {
            *entry = WordState {
                block: a.block,
                phase: a.phase,
                ..WordState::default()
            };
        }
        let mut hazard: Option<((&str, Severity), u32)> = None;
        let other = |t: Option<u32>| t.filter(|&x| x != a.tid);
        match a.kind {
            AccessKind::Read => {
                if let Some(w) = other(entry.writer) {
                    hazard = Some((RW, w));
                } else if let Some(x) = other(entry.atom) {
                    hazard = Some((ATOMIC_PLAIN, x));
                }
                entry.reader.get_or_insert(a.tid);
            }
            AccessKind::Write => {
                if let Some(r) = other(entry.reader) {
                    hazard = Some((RW, r));
                } else if let Some(w) = other(entry.writer) {
                    hazard = Some((WAW, w));
                } else if let Some(x) = other(entry.atom) {
                    hazard = Some((ATOMIC_PLAIN, x));
                }
                entry.writer = Some(a.tid);
            }
            AccessKind::Atomic | AccessKind::Reduce => {
                if let Some(w) = other(entry.writer) {
                    hazard = Some((ATOMIC_PLAIN, w));
                } else if let Some(r) = other(entry.reader) {
                    hazard = Some((ATOMIC_PLAIN, r));
                }
                entry.atom = Some(a.tid);
            }
        }
        if let Some(((name, severity), other_tid)) = hazard {
            let buffer = st.buffer_name(a.space, a.buffer);
            let (tid, block, idx, phase) = (a.tid, a.block, a.index, a.phase);
            st.record(checker, severity, name, buffer, a.launch, || {
                format!(
                    "threads {other_tid} and {tid} of block {block} touched element {idx} \
in the same barrier epoch ({phase}) with no ordering"
                )
            });
        }

        // Cross-block conflicts within the launch (global memory only —
        // shared memory is private to a block).
        if a.space == MemSpace::Global {
            let cross = st.cross.entry(a.addr).or_default();
            let mut hazard: Option<((&str, Severity), &'static str)> = None;
            match a.kind {
                AccessKind::Read => {
                    if cross.writes.other_than(a.block) {
                        hazard = Some((RW, "plain write"));
                    } else if cross.atoms.other_than(a.block) {
                        hazard = Some((ATOMIC_PLAIN, "atomic"));
                    }
                    cross.reads.add(a.block);
                }
                AccessKind::Write => {
                    if cross.reads.other_than(a.block) {
                        hazard = Some((RW, "plain read"));
                    } else if cross.writes.other_than(a.block) {
                        hazard = Some((WAW, "plain write"));
                    } else if cross.atoms.other_than(a.block) {
                        hazard = Some((ATOMIC_PLAIN, "atomic"));
                    }
                    cross.writes.add(a.block);
                }
                AccessKind::Atomic | AccessKind::Reduce => {
                    if cross.writes.other_than(a.block) {
                        hazard = Some((ATOMIC_PLAIN, "plain write"));
                    } else if cross.reads.other_than(a.block) {
                        hazard = Some((ATOMIC_PLAIN, "plain read"));
                    }
                    cross.atoms.add(a.block);
                }
            }
            if let Some(((name, severity), seen)) = hazard {
                if !cross.reported {
                    st.cross.get_mut(&a.addr).unwrap().reported = true;
                    let buffer = st.buffer_name(a.space, a.buffer);
                    let (tid, block, idx) = (a.tid, a.block, a.index);
                    let hazard_name = format!("cross-block {name}");
                    st.record(checker, severity, &hazard_name, buffer, a.launch, || {
                        format!(
                            "thread {tid} of block {block} conflicted with a {seen} \
from another block on element {idx} (blocks of one launch are unordered)"
                        )
                    });
                } else {
                    st.cross.get_mut(&a.addr).unwrap().reported = true;
                }
            }
        }
    }

    fn check_lints(&self, st: &mut State, launch: u32, stats: &kepler_sim::LaunchStats) {
        let Some(info) = st.cur.clone() else { return };
        let c = &stats.counters;
        if self.checks.on(Checker::Uncoalesced) && c.transactions >= 64.0 {
            let eff = c.coalescing_efficiency();
            if eff < 0.33 {
                st.record(
                    Checker::Uncoalesced,
                    Severity::Warning,
                    "uncoalesced global access",
                    String::new(),
                    launch,
                    || {
                        format!(
                            "coalescing efficiency {:.0}%: {:.0} transactions issued where \
{:.0} would serve the useful bytes",
                            eff * 100.0,
                            c.transactions,
                            c.ideal_transactions
                        )
                    },
                );
            }
        }
        if self.checks.on(Checker::BankConflict) {
            let share = c.bank_conflict_share();
            if share > 0.2 {
                st.record(
                    Checker::BankConflict,
                    Severity::Warning,
                    "bank-conflict hotspot",
                    String::new(),
                    launch,
                    || {
                        format!(
                            "{:.0}% of issue cycles lost to shared-memory bank conflicts",
                            share * 100.0
                        )
                    },
                );
            }
        }
        if self.checks.on(Checker::LowOccupancy) {
            let resident = occupancy::resident_blocks(&self.cfg, info.block_threads, &info.res);
            let warps_per_block = info.block_threads.div_ceil(32) as usize;
            let occ = (resident * warps_per_block) as f64 / self.cfg.max_warps_per_sm as f64;
            let starved_grid = (info.grid as usize) < self.cfg.num_sms;
            if occ < 0.25 || starved_grid {
                st.record(
                    Checker::LowOccupancy,
                    Severity::Warning,
                    "low-occupancy launch",
                    String::new(),
                    launch,
                    || {
                        if starved_grid {
                            format!(
                                "grid of {} blocks cannot fill {} SMs",
                                info.grid, self.cfg.num_sms
                            )
                        } else {
                            format!(
                                "{} resident blocks x {} warps = {:.0}% of SM warp slots",
                                resident,
                                warps_per_block,
                                occ * 100.0
                            )
                        }
                    },
                );
            }
        }
    }
}
