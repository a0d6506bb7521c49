//! The [`FootprintObserver`]: a dynamic witness for declared access
//! footprints.
//!
//! Kernels may declare their per-block global-memory footprint via
//! [`kepler_sim::Kernel::footprint`]; the static analyzer (`sim-analyze`)
//! proves the `parallel_safe` contract from those declarations. A wrong
//! declaration would make the proof vacuous, so this observer closes the
//! loop: attached as *both* a [`LaunchInspector`] (to receive the declared
//! spans) and an [`AccessObserver`] (to receive the observed access
//! stream), it checks that every observed global access of every block
//! falls inside that block's declaration:
//!
//! * a plain read must be covered by a declared read or atomic span,
//! * a plain write by a declared write or atomic span,
//! * an atomic by a declared atomic span,
//! * a reduction by a declared reduce span.
//!
//! A reduce span covers reductions and nothing else, so a read, a write
//! or a value-returning atomic of a declared reduction target is caught:
//! the prover's clause-2 proof that nothing else touches the target holds
//! only while the run agrees.
//!
//! Launches without a declared footprint are skipped (and counted);
//! out-of-bounds accesses are left to the sanitizer's own checker.
//! Over-approximation is allowed by design — declared-but-never-observed
//! elements are fine — so a clean witness run means "nothing escaped the
//! declaration", which is exactly what the prover needs.

use kepler_sim::{
    AccessEvent, AccessKind, AccessObserver, FpKind, KernelFootprint, LaunchInspector,
    LaunchSummary, MemSpace, Span,
};
use std::collections::HashMap;
use std::sync::Mutex;

/// Per-(block, buffer) declared spans, split by kind for O(spans)
/// membership tests.
#[derive(Debug, Default, Clone)]
struct DeclaredSpans {
    reads: Vec<Span>,
    writes: Vec<Span>,
    atomics: Vec<Span>,
    reductions: Vec<Span>,
}

impl DeclaredSpans {
    fn covers(&self, kind: AccessKind, idx: u64) -> bool {
        let (primary, fallback): (&[Span], &[Span]) = match kind {
            AccessKind::Read => (&self.reads, &self.atomics),
            AccessKind::Write => (&self.writes, &self.atomics),
            AccessKind::Atomic => (&self.atomics, &[]),
            AccessKind::Reduce => (&self.reductions, &[]),
        };
        primary.iter().any(|s| s.contains(idx)) || fallback.iter().any(|s| s.contains(idx))
    }
}

/// The indexed declaration of the launch currently executing.
struct CurrentLaunch {
    launch: u32,
    kernel: String,
    /// `blocks[block][buffer id] -> declared spans`.
    blocks: Vec<HashMap<u32, DeclaredSpans>>,
}

/// One aggregated disagreement between declaration and observation.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintMismatch {
    pub kernel: String,
    /// Buffer id of the undeclared access (display name is the
    /// sanitizer's business; the witness only has ids).
    pub buffer: u32,
    pub kind: AccessKind,
    /// Occurrences aggregated over the run.
    pub count: u64,
    /// First offending (block, element index) pair, as the example site.
    pub block: u32,
    pub index: u64,
}

impl FootprintMismatch {
    pub fn render(&self) -> String {
        let kind = match self.kind {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Atomic => "atomic",
            AccessKind::Reduce => "reduction",
        };
        format!(
            "{}: observed {kind} of buf{} element {} from block {} outside the declared \
footprint ({} occurrence{})",
            self.kernel,
            self.buffer,
            self.index,
            self.block,
            self.count,
            if self.count == 1 { "" } else { "s" },
        )
    }
}

#[derive(Default)]
struct FoState {
    current: Option<CurrentLaunch>,
    mismatches: HashMap<(String, u32, AccessKind), FootprintMismatch>,
    launches_checked: u32,
    launches_skipped: u32,
    accesses_checked: u64,
}

/// Dynamic footprint checker. Attach the same `Arc` with both
/// [`kepler_sim::Device::set_launch_inspector`] and
/// [`kepler_sim::Device::set_access_observer`], run the workload, then read
/// [`FootprintObserver::mismatches`].
#[derive(Default)]
pub struct FootprintObserver {
    state: Mutex<FoState>,
}

impl FootprintObserver {
    pub fn new() -> Self {
        Self::default()
    }

    /// All disagreements seen so far, sorted for stable output.
    pub fn mismatches(&self) -> Vec<FootprintMismatch> {
        let st = self.state.lock().unwrap();
        let mut out: Vec<FootprintMismatch> = st.mismatches.values().cloned().collect();
        out.sort_by(|a, b| {
            a.kernel
                .cmp(&b.kernel)
                .then(a.buffer.cmp(&b.buffer))
                .then(a.index.cmp(&b.index))
        });
        out
    }

    /// `(launches with a declared footprint, launches without one)`.
    pub fn launches(&self) -> (u32, u32) {
        let st = self.state.lock().unwrap();
        (st.launches_checked, st.launches_skipped)
    }

    /// Global accesses tested against a declaration.
    pub fn accesses_checked(&self) -> u64 {
        self.state.lock().unwrap().accesses_checked
    }

    /// True when every checked access was covered.
    pub fn clean(&self) -> bool {
        self.state.lock().unwrap().mismatches.is_empty()
    }
}

fn index_footprint(fp: &KernelFootprint) -> Vec<HashMap<u32, DeclaredSpans>> {
    fp.blocks
        .iter()
        .map(|blk| {
            let mut by_buf: HashMap<u32, DeclaredSpans> = HashMap::new();
            for a in &blk.accesses {
                let d = by_buf.entry(a.buf.id).or_default();
                match a.kind {
                    FpKind::Read => d.reads.push(a.span),
                    FpKind::Write => d.writes.push(a.span),
                    FpKind::Atomic => d.atomics.push(a.span),
                    FpKind::Reduce => d.reductions.push(a.span),
                }
            }
            by_buf
        })
        .collect()
}

impl LaunchInspector for FootprintObserver {
    fn inspect(&self, s: LaunchSummary<'_>) {
        let mut st = self.state.lock().unwrap();
        match &s.footprint {
            Some(fp) => {
                st.launches_checked += 1;
                st.current = Some(CurrentLaunch {
                    launch: s.launch,
                    kernel: s.kernel.to_string(),
                    blocks: index_footprint(fp),
                });
            }
            None => {
                st.launches_skipped += 1;
                st.current = None;
            }
        }
    }
}

impl AccessObserver for FootprintObserver {
    fn observe(&self, ev: AccessEvent<'_>) {
        let AccessEvent::Access(a) = ev else { return };
        if a.space != MemSpace::Global || a.oob {
            return;
        }
        let st = &mut *self.state.lock().unwrap();
        let Some(cur) = &st.current else { return };
        if cur.launch != a.launch {
            return;
        }
        let covered = cur
            .blocks
            .get(a.block as usize)
            .and_then(|bufs| bufs.get(&a.buffer))
            .is_some_and(|d| d.covers(a.kind, a.index));
        let kernel = cur.kernel.clone();
        st.accesses_checked += 1;
        if !covered {
            st.mismatches
                .entry((kernel.clone(), a.buffer, a.kind))
                .and_modify(|m| m.count += 1)
                .or_insert(FootprintMismatch {
                    kernel,
                    buffer: a.buffer,
                    kind: a.kind,
                    count: 1,
                    block: a.block,
                    index: a.index,
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_sim::{
        BlockCtx, ClockConfig, DevBuffer, Device, DeviceConfig, Kernel, KernelFootprint, Span,
    };
    use std::sync::Arc;

    fn device() -> Device {
        Device::new(DeviceConfig::k20c(ClockConfig::k20_default(), false))
    }

    /// Copies block-partitioned ranges; footprint declared `exact`ly or
    /// deliberately missing one element, per the test.
    struct Copy {
        src: DevBuffer<f32>,
        dst: DevBuffer<f32>,
        declare_short: bool,
    }

    impl Kernel for Copy {
        fn name(&self) -> &'static str {
            "fo_copy"
        }
        fn footprint(&self, grid: u32, block_threads: u32) -> Option<KernelFootprint> {
            let k = self;
            let dim = block_threads as u64;
            let declared = if k.declare_short { dim - 1 } else { dim };
            Some(KernelFootprint::per_block(grid, 0.0, move |b, fp| {
                fp.read(&k.src, Span::range(b as u64 * dim, declared));
                fp.write(&k.dst, Span::range(b as u64 * dim, declared));
            }))
        }
        fn run_block(&self, blk: &mut BlockCtx) {
            let (src, dst) = (self.src, self.dst);
            blk.for_each_thread(|t| {
                let i = t.gtid() as usize;
                let v = t.ld(&src, i);
                t.st(&dst, i, v);
            });
        }
    }

    fn run_copy(declare_short: bool) -> Arc<FootprintObserver> {
        let mut dev = device();
        let obs = Arc::new(FootprintObserver::new());
        dev.set_access_observer(obs.clone());
        dev.set_launch_inspector(obs.clone());
        let src = dev.alloc_init::<f32>(128, 1.0);
        let dst = dev.alloc_init::<f32>(128, 0.0);
        dev.launch(
            &Copy {
                src,
                dst,
                declare_short,
            },
            4,
            32,
        );
        obs
    }

    #[test]
    fn exact_declaration_is_clean() {
        let obs = run_copy(false);
        assert!(obs.clean(), "{:?}", obs.mismatches());
        assert_eq!(obs.launches(), (1, 0));
        assert_eq!(obs.accesses_checked(), 256);
    }

    #[test]
    fn undeclared_access_is_flagged_with_site() {
        let obs = run_copy(true);
        let ms = obs.mismatches();
        // The last thread of each block reads and writes an undeclared
        // element: one aggregated mismatch per (buffer, kind).
        assert_eq!(ms.len(), 2, "{ms:?}");
        for m in &ms {
            assert_eq!(m.kernel, "fo_copy");
            assert_eq!(m.count, 4); // one per block
            assert_eq!(m.index % 32, 31);
            assert!(m.render().contains("outside the declared footprint"));
        }
    }

    #[test]
    fn launches_without_footprints_are_skipped() {
        struct NoFp {
            dst: DevBuffer<f32>,
        }
        impl Kernel for NoFp {
            fn name(&self) -> &'static str {
                "fo_nofp"
            }
            fn run_block(&self, blk: &mut BlockCtx) {
                let dst = self.dst;
                blk.for_each_thread(|t| t.st(&dst, t.gtid() as usize, 1.0));
            }
        }
        let mut dev = device();
        let obs = Arc::new(FootprintObserver::new());
        dev.set_access_observer(obs.clone());
        dev.set_launch_inspector(obs.clone());
        let dst = dev.alloc_init::<f32>(64, 0.0);
        dev.launch(&NoFp { dst }, 2, 32);
        assert!(obs.clean());
        assert_eq!(obs.launches(), (0, 1));
        assert_eq!(obs.accesses_checked(), 0);
    }

    #[test]
    fn atomic_spans_cover_plain_reads_and_writes() {
        // Reads and writes may be covered by a declared atomic span
        // (atomics read and write), but a plain-write span never covers an
        // observed atomic.
        let d = DeclaredSpans {
            writes: vec![Span::range(0, 4)],
            atomics: vec![Span::point(9)],
            ..DeclaredSpans::default()
        };
        assert!(d.covers(AccessKind::Read, 9));
        assert!(d.covers(AccessKind::Write, 9));
        assert!(d.covers(AccessKind::Write, 3));
        assert!(!d.covers(AccessKind::Atomic, 3));
        assert!(d.covers(AccessKind::Atomic, 9));
        assert!(!d.covers(AccessKind::Read, 3));
    }

    #[test]
    fn reduce_spans_cover_reductions_only() {
        let d = DeclaredSpans {
            reductions: vec![Span::range(0, 4)],
            ..DeclaredSpans::default()
        };
        assert!(d.covers(AccessKind::Reduce, 3));
        assert!(!d.covers(AccessKind::Reduce, 4));
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Atomic] {
            assert!(!d.covers(kind, 3), "{kind:?}");
        }
    }

    /// Every thread adds one into bin `tid % 4`, by `red` or by a
    /// value-returning atomic; the footprint declares `declared` bins as a
    /// reduce span.
    struct Bins {
        bins: DevBuffer<u32>,
        declared: u64,
        atomic: bool,
    }

    impl Kernel for Bins {
        fn name(&self) -> &'static str {
            "fo_bins"
        }
        fn footprint(&self, grid: u32, _block_threads: u32) -> Option<KernelFootprint> {
            let k = self;
            Some(KernelFootprint::per_block(grid, 0.0, move |_b, fp| {
                fp.reduce(&k.bins, Span::range(0, k.declared));
            }))
        }
        fn run_block(&self, blk: &mut BlockCtx) {
            let (bins, atomic) = (self.bins, self.atomic);
            blk.for_each_thread(|t| {
                let b = (t.tid() % 4) as usize;
                if atomic {
                    t.atomic_add_u32(&bins, b, 1);
                } else {
                    t.red_add_u32(&bins, b, 1);
                }
            });
        }
    }

    fn run_bins(declared: u64, atomic: bool) -> Vec<FootprintMismatch> {
        let mut dev = device();
        let obs = Arc::new(FootprintObserver::new());
        dev.set_access_observer(obs.clone());
        dev.set_launch_inspector(obs.clone());
        let bins = dev.alloc_init::<u32>(4, 0);
        let k = Bins {
            bins,
            declared,
            atomic,
        };
        dev.launch(&k, 2, 32);
        assert_eq!(dev.read(&bins), [16; 4], "observation changes no result");
        obs.mismatches()
    }

    #[test]
    fn reductions_inside_their_span_are_clean() {
        assert_eq!(run_bins(4, false), []);
    }

    #[test]
    fn a_reduction_outside_its_span_is_flagged() {
        let ms = run_bins(3, false);
        assert_eq!(ms.len(), 1, "{ms:?}");
        assert_eq!(
            (ms[0].kind, ms[0].index, ms[0].count),
            (AccessKind::Reduce, 3, 16)
        );
        assert!(ms[0].render().contains("observed reduction"));
    }

    #[test]
    fn a_value_returning_atomic_on_a_reduce_span_is_flagged() {
        let ms = run_bins(4, true);
        assert_eq!(ms.len(), 1, "{ms:?}");
        assert_eq!((ms[0].kind, ms[0].count), (AccessKind::Atomic, 64));
    }
}
