//! Declared global-memory access footprints: the static counterpart of the
//! [`crate::access`] observation stream.
//!
//! A kernel may describe, per block, which elements of which device buffers
//! it reads, writes, updates atomically or reduces into — as a set of
//! arithmetic progressions ([`Span`]s) over element indices. The declaration is
//! *concrete*: [`KernelFootprint::per_block`] evaluates ordinary Rust per
//! block index, so 2-D decompositions, wavefronts and ping-pong launches
//! all express naturally without a symbolic affine language.
//!
//! Two consumers sit on top of this module:
//!
//! * the **disjointness prover** (`sim-analyze`) statically verifies
//!   clauses 1–2 of the [`crate::Kernel::parallel_safe`] contract from the
//!   declared spans (no cross-block read-after-write, no value-returning
//!   global atomics, reduction targets touched by nothing else);
//! * the **footprint observer** (`sim-sanitizer`) dynamically checks that
//!   every observed access falls inside the declaration, so a declaration
//!   is never silently wrong.
//!
//! Declarations may *over-approximate* reads of buffers the launch never
//! writes (e.g. [`FpBuilder::read_all`] for a data-dependent gather from a
//! read-only table): the dynamic check still passes, and the prover only
//! needs precision where writes are involved. Writes should be declared
//! exactly — an over-approximated write set can make a provably safe
//! kernel unprovable, never the reverse, so over-approximation is always
//! *sound*.

use crate::buffer::DevBuffer;
use crate::kernel::KernelResources;

/// What a declared access does — mirrors [`crate::AccessKind`] but lives on
/// the declaration side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpKind {
    Read,
    Write,
    /// Atomic read-modify-write. Any declared atomic makes the launch
    /// unprovable under clause 2, but keeps the dynamic witness exact.
    Atomic,
    /// Reduction (`red`): an integer update that returns nothing. Blocks
    /// may reduce into the same elements, which clause 2 allows as long
    /// as no block reads or writes those elements otherwise.
    Reduce,
}

/// An arithmetic progression of element indices:
/// `start, start + stride, ..., start + (count-1) * stride`.
///
/// `stride >= 1`; a `count` of 0 is the empty span (builders drop it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    pub start: u64,
    pub count: u64,
    pub stride: u64,
}

impl Span {
    /// The single element `idx`.
    pub fn point(idx: u64) -> Span {
        Span {
            start: idx,
            count: 1,
            stride: 1,
        }
    }

    /// `count` consecutive elements from `start`.
    pub fn range(start: u64, count: u64) -> Span {
        Span {
            start,
            count,
            stride: 1,
        }
    }

    /// `count` elements from `start`, `stride` apart.
    pub fn strided(start: u64, count: u64, stride: u64) -> Span {
        assert!(stride >= 1, "span stride must be >= 1");
        Span {
            start,
            count,
            stride,
        }
    }

    /// The half-open element range `[lo, hi)`, as a convenience.
    pub fn interval(lo: u64, hi: u64) -> Span {
        Span::range(lo, hi.saturating_sub(lo))
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of elements (== `count`; spans never self-overlap since
    /// `stride >= 1`).
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Largest index contained (undefined for empty spans).
    pub fn max_index(&self) -> u64 {
        self.start + (self.count - 1) * self.stride
    }

    /// Whether `idx` is a member.
    pub fn contains(&self, idx: u64) -> bool {
        if self.count == 0 || idx < self.start {
            return false;
        }
        let off = idx - self.start;
        off.is_multiple_of(self.stride) && off / self.stride < self.count
    }

    /// Iterate the member indices (small spans only; the prover's exact
    /// fallback and tests use this).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(move |i| self.start + i * self.stride)
    }

    /// Exact emptiness test of the intersection of two arithmetic
    /// progressions, via the extended Euclidean algorithm. This is the
    /// prover's core primitive: `a.intersects(b)` is true iff some element
    /// index is a member of both spans.
    pub fn intersects(&self, other: &Span) -> bool {
        if self.count == 0 || other.count == 0 {
            return false;
        }
        // Cheap bounding-interval rejection first.
        let (alo, ahi) = (self.start, self.max_index());
        let (blo, bhi) = (other.start, other.max_index());
        if ahi < blo || bhi < alo {
            return false;
        }
        // Solve start_a + i*s == start_b + j*t over the overlap window.
        let (a, s) = (self.start as i128, self.stride as i128);
        let (b, t) = (other.start as i128, other.stride as i128);
        let (g, _, _) = egcd(s, t);
        if (b - a).rem_euclid(g) != 0 {
            return false;
        }
        // CRT: x ≡ a (mod s), x ≡ b (mod t) ⇒ x ≡ x0 (mod lcm(s, t)).
        let lcm = s / g * t;
        let (_, inv, _) = egcd((s / g).rem_euclid(t / g), t / g);
        let k = ((b - a) / g).rem_euclid(t / g) * inv.rem_euclid(t / g) % (t / g);
        let x0 = (a + s * k.rem_euclid(t / g)).rem_euclid(lcm);
        // First common value >= max(alo, blo) congruent to x0 mod lcm.
        let lo = alo.max(blo) as i128;
        let hi = ahi.min(bhi) as i128;
        let first = x0 + (lo - x0 + lcm - 1).div_euclid(lcm) * lcm;
        first <= hi
    }
}

/// Extended gcd: returns `(g, x, y)` with `a*x + b*y == g`, `g > 0` for
/// positive inputs.
fn egcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = egcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// Identity of a buffer in a declaration — captured from the
/// [`DevBuffer`] handle so declarations and observations line up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufRef {
    /// The device-global buffer id (matches `Access::buffer`).
    pub id: u32,
    /// Base byte address.
    pub base: u64,
    /// Length in elements.
    pub len: u64,
    /// Element width in bytes.
    pub elem_bytes: u32,
}

impl BufRef {
    pub fn of<T>(buf: &DevBuffer<T>) -> BufRef {
        BufRef {
            id: buf.id as u32,
            base: buf.base,
            len: buf.len as u64,
            elem_bytes: std::mem::size_of::<T>() as u32,
        }
    }
}

/// One declared access: a span of one buffer, with a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufAccess {
    pub buf: BufRef,
    pub kind: FpKind,
    pub span: Span,
}

/// Everything one block touches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockFootprint {
    pub accesses: Vec<BufAccess>,
}

impl BlockFootprint {
    /// Declared bytes moved by this block (reads + writes + atomics +
    /// reductions).
    pub fn bytes(&self) -> f64 {
        self.accesses
            .iter()
            .map(|a| a.span.count as f64 * a.buf.elem_bytes as f64)
            .sum()
    }
}

/// The full per-launch declaration: one [`BlockFootprint`] per block, plus
/// an estimate of the arithmetic work per block for the static
/// boundedness classifier.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelFootprint {
    /// Indexed by block index; length == grid.
    pub blocks: Vec<BlockFootprint>,
    /// Estimated arithmetic operations per block (flops + int + sfu),
    /// averaged over the grid. Zero means "unestimated".
    pub ops_per_block: f64,
}

impl KernelFootprint {
    /// Build a footprint by evaluating `f` once per block index.
    pub fn per_block(grid: u32, ops_per_block: f64, f: impl Fn(u32, &mut FpBuilder)) -> Self {
        let blocks = (0..grid)
            .map(|b| {
                let mut builder = FpBuilder::default();
                f(b, &mut builder);
                BlockFootprint {
                    accesses: builder.accesses,
                }
            })
            .collect();
        KernelFootprint {
            blocks,
            ops_per_block,
        }
    }

    /// Total declared bytes over the whole grid.
    pub fn total_bytes(&self) -> f64 {
        self.blocks.iter().map(BlockFootprint::bytes).sum()
    }

    /// Declared bytes per block, averaged.
    pub fn bytes_per_block(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.total_bytes() / self.blocks.len() as f64
        }
    }

    /// Whether any block declares an atomic access.
    pub fn has_atomics(&self) -> bool {
        self.blocks
            .iter()
            .any(|b| b.accesses.iter().any(|a| a.kind == FpKind::Atomic))
    }
}

/// Accumulates one block's declared accesses. Spans are clipped to the
/// buffer's extent (kernels guard tail blocks with `if gid >= n return`,
/// so a declaration of the nominal block range is the natural idiom) and
/// empty results are dropped.
#[derive(Debug, Default)]
pub struct FpBuilder {
    accesses: Vec<BufAccess>,
}

impl FpBuilder {
    fn push(&mut self, buf: BufRef, kind: FpKind, span: Span) {
        let clipped = clip(span, buf.len);
        if !clipped.is_empty() {
            self.accesses.push(BufAccess {
                buf,
                kind,
                span: clipped,
            });
        }
    }

    pub fn read<T>(&mut self, buf: &DevBuffer<T>, span: Span) {
        self.push(BufRef::of(buf), FpKind::Read, span);
    }

    pub fn write<T>(&mut self, buf: &DevBuffer<T>, span: Span) {
        self.push(BufRef::of(buf), FpKind::Write, span);
    }

    pub fn atomic<T>(&mut self, buf: &DevBuffer<T>, span: Span) {
        self.push(BufRef::of(buf), FpKind::Atomic, span);
    }

    /// Declare a read of the entire buffer — the sound over-approximation
    /// for data-dependent gathers from tables the launch never writes.
    pub fn read_all<T>(&mut self, buf: &DevBuffer<T>) {
        let len = buf.len() as u64;
        self.push(BufRef::of(buf), FpKind::Read, Span::range(0, len));
    }

    /// Declare an atomic update anywhere in the buffer (data-dependent
    /// atomics, e.g. histogram bins).
    pub fn atomic_all<T>(&mut self, buf: &DevBuffer<T>) {
        let len = buf.len() as u64;
        self.push(BufRef::of(buf), FpKind::Atomic, Span::range(0, len));
    }

    pub fn reduce<T>(&mut self, buf: &DevBuffer<T>, span: Span) {
        self.push(BufRef::of(buf), FpKind::Reduce, span);
    }

    /// Declare a reduction anywhere in the buffer (data-dependent targets,
    /// e.g. histogram bins).
    pub fn reduce_all<T>(&mut self, buf: &DevBuffer<T>) {
        let len = buf.len() as u64;
        self.push(BufRef::of(buf), FpKind::Reduce, Span::range(0, len));
    }

    /// Declare a write that may land anywhere in the buffer (data-dependent
    /// scatter). Makes the launch unprovable for grids > 1 — which is the
    /// honest verdict for such kernels.
    pub fn write_all<T>(&mut self, buf: &DevBuffer<T>) {
        let len = buf.len() as u64;
        self.push(BufRef::of(buf), FpKind::Write, Span::range(0, len));
    }
}

/// Clip a span to indices `< len`.
fn clip(span: Span, len: u64) -> Span {
    if span.count == 0 || span.start >= len {
        return Span {
            start: span.start.min(len),
            count: 0,
            stride: span.stride.max(1),
        };
    }
    let max_count = (len - 1 - span.start) / span.stride + 1;
    Span {
        start: span.start,
        count: span.count.min(max_count),
        stride: span.stride,
    }
}

/// Per-launch static summary handed to a [`LaunchInspector`] right before
/// the launch executes.
#[derive(Debug)]
pub struct LaunchSummary<'a> {
    /// Launch index within the device's lifetime.
    pub launch: u32,
    pub kernel: &'a str,
    pub grid: u32,
    pub block_threads: u32,
    pub resources: KernelResources,
    /// Value of [`crate::Kernel::parallel_safe`] for this launch.
    pub parallel_safe: bool,
    /// Whether the kernel overrides [`crate::Kernel::params`] (non-empty).
    pub has_params: bool,
    /// The declared footprint, if the kernel provides one.
    pub footprint: Option<KernelFootprint>,
}

/// Receiver for per-launch static summaries. Unlike
/// [`crate::AccessObserver`], attaching an inspector does *not* change how
/// launches execute — pre-execution stays enabled — so capture is cheap
/// enough to run over every workload.
pub trait LaunchInspector: Send + Sync {
    fn inspect(&self, summary: LaunchSummary<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_membership_and_bounds() {
        let s = Span::strided(10, 4, 3); // 10 13 16 19
        assert_eq!(s.max_index(), 19);
        assert!(s.contains(10) && s.contains(19) && s.contains(13));
        assert!(!s.contains(11) && !s.contains(22) && !s.contains(7));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![10, 13, 16, 19]);
    }

    #[test]
    fn interval_intersection_exact() {
        assert!(Span::range(0, 10).intersects(&Span::range(9, 5)));
        assert!(!Span::range(0, 10).intersects(&Span::range(10, 5)));
        assert!(Span::point(7).intersects(&Span::range(0, 8)));
    }

    #[test]
    fn strided_intersection_uses_congruences() {
        // Evens vs odds over the same window: never meet.
        let evens = Span::strided(0, 100, 2);
        let odds = Span::strided(1, 100, 2);
        assert!(!evens.intersects(&odds));
        assert!(evens.intersects(&Span::strided(0, 100, 3))); // share 0, 6, ...
                                                              // stride 6 from 2 vs stride 10 from 4: 2+6i == 4+10j ⇒ 6i-10j=2,
                                                              // solutions exist (i=2, j=1 → 14).
        let a = Span::strided(2, 50, 6);
        let b = Span::strided(4, 50, 10);
        assert!(a.intersects(&b));
        // Same strides, but windows that stop before the first solution.
        let a = Span::strided(2, 2, 6); // 2, 8
        let b = Span::strided(4, 1, 10); // 4
        assert!(!a.intersects(&b));
    }

    #[test]
    fn intersection_agrees_with_enumeration() {
        // Exhaustive cross-check on a lattice of small spans.
        let spans: Vec<Span> = (0..4)
            .flat_map(|start| {
                (1..5).flat_map(move |stride| {
                    (0..4).map(move |count| Span::strided(start, count, stride))
                })
            })
            .collect();
        for a in &spans {
            for b in &spans {
                let brute = a.iter().any(|x| b.contains(x));
                assert_eq!(
                    a.intersects(b),
                    brute,
                    "intersects mismatch for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn builder_clips_to_buffer_extent() {
        let mut mem = crate::buffer::GlobalMem::new();
        let buf = mem.alloc::<u32>(100);
        let mut b = FpBuilder::default();
        b.write(&buf, Span::range(96, 16)); // tail block past the end
        b.read(&buf, Span::range(200, 8)); // fully out of range: dropped
        b.read(&buf, Span::strided(90, 50, 4)); // 90 94 98 | 102...
        assert_eq!(b.accesses.len(), 2);
        assert_eq!(b.accesses[0].span, Span::range(96, 4));
        assert_eq!(b.accesses[1].span, Span::strided(90, 3, 4));
    }

    #[test]
    fn per_block_footprint_partitions() {
        let mut mem = crate::buffer::GlobalMem::new();
        let buf = mem.alloc::<f32>(1000);
        let fp = KernelFootprint::per_block(4, 256.0, |b, f| {
            f.write(&buf, Span::range(b as u64 * 256, 256));
        });
        assert_eq!(fp.blocks.len(), 4);
        assert_eq!(fp.blocks[3].accesses[0].span.count, 232); // clipped
        assert!(!fp.has_atomics());
        assert!((fp.total_bytes() - 4000.0).abs() < 1e-9);
    }
}
