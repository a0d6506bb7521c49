//! Functional device memory: typed global buffers in a flat address space.
//!
//! Every buffer gets a 256-byte-aligned base address so element indices map
//! to the byte addresses that the coalescing analysis operates on.

use std::any::Any;
use std::marker::PhantomData;

/// Types that may live in device memory.
pub trait DevCopy: Copy + Default + Send + Sync + 'static {}
impl<T: Copy + Default + Send + Sync + 'static> DevCopy for T {}

/// A typed handle to a device buffer. Cheap to copy; the storage lives in
/// [`GlobalMem`].
pub struct DevBuffer<T> {
    pub(crate) id: usize,
    pub(crate) base: u64,
    pub(crate) len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for DevBuffer<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DevBuffer<T> {}

impl<T> DevBuffer<T> {
    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address of element `idx`.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.base + (idx * std::mem::size_of::<T>()) as u64
    }
}

/// Storage for one buffer. The workloads' element types get dedicated
/// variants so that `load`/`store` resolve the type with one predictable
/// enum branch: within each arm the `&dyn Any` coercion has a statically
/// known vtable, so the `downcast_ref` folds to a constant at
/// monomorphization instead of an indirect `type_id` call per access.
enum Slot {
    U32(Vec<u32>),
    F32(Vec<f32>),
    I32(Vec<i32>),
    Other(Box<dyn Any + Send + Sync>),
}

impl Slot {
    fn new<T: DevCopy>(v: Vec<T>) -> Slot {
        let mut v = Some(v);
        let any: &mut dyn Any = &mut v;
        if let Some(s) = any.downcast_mut::<Option<Vec<u32>>>() {
            return Slot::U32(s.take().unwrap());
        }
        if let Some(s) = any.downcast_mut::<Option<Vec<f32>>>() {
            return Slot::F32(s.take().unwrap());
        }
        if let Some(s) = any.downcast_mut::<Option<Vec<i32>>>() {
            return Slot::I32(s.take().unwrap());
        }
        Slot::Other(Box::new(v.take().unwrap()))
    }

    #[inline]
    fn get<T: DevCopy>(&self) -> &Vec<T> {
        let v: Option<&Vec<T>> = match self {
            Slot::U32(v) => (v as &dyn Any).downcast_ref(),
            Slot::F32(v) => (v as &dyn Any).downcast_ref(),
            Slot::I32(v) => (v as &dyn Any).downcast_ref(),
            Slot::Other(b) => b.downcast_ref(),
        };
        v.expect("buffer type mismatch")
    }

    #[inline]
    fn get_mut<T: DevCopy>(&mut self) -> &mut Vec<T> {
        let v: Option<&mut Vec<T>> = match self {
            Slot::U32(v) => (v as &mut dyn Any).downcast_mut(),
            Slot::F32(v) => (v as &mut dyn Any).downcast_mut(),
            Slot::I32(v) => (v as &mut dyn Any).downcast_mut(),
            Slot::Other(b) => b.downcast_mut(),
        };
        v.expect("buffer type mismatch")
    }
}

/// The element types with a dedicated [`Slot`] variant, all 4 bytes wide,
/// so one `u32` carries any element's exact bit pattern.
trait Bits: Copy {
    fn bits(self) -> u32;
    fn from_bits(b: u32) -> Self;
}

impl Bits for u32 {
    fn bits(self) -> u32 {
        self
    }
    fn from_bits(b: u32) -> u32 {
        b
    }
}

impl Bits for f32 {
    fn bits(self) -> u32 {
        self.to_bits()
    }
    fn from_bits(b: u32) -> f32 {
        f32::from_bits(b)
    }
}

impl Bits for i32 {
    fn bits(self) -> u32 {
        self as u32
    }
    fn from_bits(b: u32) -> i32 {
        b as i32
    }
}

/// An integer reduction (PTX `red`): combines a value into a `u32`
/// element and returns nothing. Add and max commute and associate exactly,
/// so reductions into one element give the same result in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RedOp {
    Add,
    Max,
}

impl RedOp {
    fn apply(self, old: u32, v: u32) -> u32 {
        match self {
            RedOp::Add => old.wrapping_add(v),
            RedOp::Max => old.max(v),
        }
    }
}

/// One logged reduction: `op` of `v` into element `idx` of `slot`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Red {
    slot: usize,
    idx: usize,
    op: RedOp,
    v: u32,
}

/// A launch's global-memory effects as a patch against the pre-launch
/// image: runs of changed elements, in order, plus the runs' new element
/// bits, plus the reductions the launch logged. Sharded pre-execution
/// diffs each shard into one; applying one to the image it was diffed
/// against reproduces the post-launch image bit for bit.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Patch {
    /// `(slot, start, len)` per run.
    runs: Vec<(usize, usize, usize)>,
    /// The runs' new element bits, concatenated in run order.
    bits: Vec<u32>,
    /// Reductions, folded onto the image after every run is written.
    reds: Vec<Red>,
}

impl Patch {
    /// Append `later`'s runs and reductions. Applying the result applies
    /// `self`'s runs, then `later`'s, so where both write an element
    /// `later` wins; then it folds every reduction.
    pub(crate) fn append(&mut self, mut later: Patch) {
        self.runs.append(&mut later.runs);
        self.bits.append(&mut later.bits);
        self.reds.append(&mut later.reds);
    }

    /// Append the runs where `after` differs bitwise from `before`
    /// (`-0.0` vs `0.0` and NaN payloads count as changes).
    fn diff_slice<T: Bits>(&mut self, slot: usize, before: &[T], after: &[T]) {
        let differs = |i: usize| before[i].bits() != after[i].bits();
        let mut i = 0;
        while let Some(start) = (i..after.len()).find(|&j| differs(j)) {
            let end = (start..after.len())
                .find(|&j| !differs(j))
                .unwrap_or(after.len());
            self.runs.push((slot, start, end - start));
            self.bits.extend(after[start..end].iter().map(|x| x.bits()));
            i = end;
        }
    }
}

fn write_run<T: Bits>(dst: &mut [T], start: usize, bits: &[u32]) {
    for (d, &b) in dst[start..start + bits.len()].iter_mut().zip(bits) {
        *d = T::from_bits(b);
    }
}

/// The device's global memory: an arena of typed buffers.
#[derive(Default)]
pub struct GlobalMem {
    slots: Vec<Slot>,
    next_base: u64,
    /// Reductions logged instead of applied, on a shard image (see
    /// [`GlobalMem::defer_reductions`]).
    deferred: Option<Vec<Red>>,
}

const BASE_ALIGN: u64 = 256;

impl GlobalMem {
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            next_base: BASE_ALIGN,
            deferred: None,
        }
    }

    /// Allocate a zero/default-initialized buffer of `len` elements.
    pub fn alloc<T: DevCopy>(&mut self, len: usize) -> DevBuffer<T> {
        self.alloc_init(len, T::default())
    }

    /// Allocate a buffer of `len` copies of `init`.
    pub fn alloc_init<T: DevCopy>(&mut self, len: usize, init: T) -> DevBuffer<T> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let base = self.next_base;
        self.next_base += bytes.div_ceil(BASE_ALIGN).max(1) * BASE_ALIGN;
        let id = self.slots.len();
        self.slots.push(Slot::new(vec![init; len]));
        DevBuffer {
            id,
            base,
            len,
            _marker: PhantomData,
        }
    }

    /// Allocate a buffer initialized from a host slice.
    pub fn alloc_from<T: DevCopy>(&mut self, data: &[T]) -> DevBuffer<T> {
        let buf = self.alloc::<T>(data.len());
        self.vec_mut(&buf).copy_from_slice(data);
        buf
    }

    /// Immutable view of a buffer's contents.
    #[inline]
    pub fn slice<T: DevCopy>(&self, buf: &DevBuffer<T>) -> &[T] {
        self.slots[buf.id].get::<T>()
    }

    /// Mutable view of a buffer's contents.
    #[inline]
    pub fn vec_mut<T: DevCopy>(&mut self, buf: &DevBuffer<T>) -> &mut [T] {
        self.slots[buf.id].get_mut::<T>()
    }

    /// Functional load.
    #[inline]
    pub fn load<T: DevCopy>(&self, buf: &DevBuffer<T>, idx: usize) -> T {
        self.slice(buf)[idx]
    }

    /// Functional store.
    #[inline]
    pub fn store<T: DevCopy>(&mut self, buf: &DevBuffer<T>, idx: usize, v: T) {
        self.vec_mut(buf)[idx] = v;
    }

    /// Reduce `v` into element `idx` with `op`, or log the reduction when
    /// this image defers them.
    pub(crate) fn reduce(&mut self, buf: &DevBuffer<u32>, idx: usize, op: RedOp, v: u32) {
        match &mut self.deferred {
            Some(log) => {
                assert!(idx < buf.len, "reduction past the end of a buffer");
                log.push(Red {
                    slot: buf.id,
                    idx,
                    op,
                    v,
                });
            }
            None => {
                let e = &mut self.vec_mut(buf)[idx];
                *e = op.apply(*e, v);
            }
        }
    }

    /// Total bytes currently allocated (for tests/reporting).
    pub fn allocated_bytes(&self) -> u64 {
        self.next_base - BASE_ALIGN
    }

    // ---- pre-execution support (see Device::pre_execute) ----

    /// Deep copy for speculative execution, or `None` if any buffer holds a
    /// type outside the dedicated variants.
    pub(crate) fn try_clone(&self) -> Option<GlobalMem> {
        let slots = self
            .slots
            .iter()
            .map(|s| match s {
                Slot::U32(v) => Some(Slot::U32(v.clone())),
                Slot::F32(v) => Some(Slot::F32(v.clone())),
                Slot::I32(v) => Some(Slot::I32(v.clone())),
                Slot::Other(_) => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some(GlobalMem {
            slots,
            next_base: self.next_base,
            deferred: None,
        })
    }

    /// Log this image's reductions instead of applying them. A shard of a
    /// launch defers its reductions, so its diff ([`GlobalMem::diff`])
    /// carries them for the fold instead of a partial sum in place.
    pub(crate) fn defer_reductions(&mut self) {
        self.deferred = Some(Vec::new());
    }

    /// 128-bit content fingerprint of the whole memory image (slot types,
    /// lengths and element bits, in slot order), or `None` if any buffer is
    /// a `Slot::Other`. Two memories with equal fingerprints are treated as
    /// identical by the trace recorder's launch identity, so both lanes
    /// must collide before two distinct launches could share a record.
    pub(crate) fn fingerprint(&self) -> Option<[u64; 2]> {
        // Lane 1: splitmix64 absorption. Lane 2: a degree-n polynomial in
        // an odd multiplier (Horner form). Independent enough that joint
        // collisions on non-adversarial data are out of reach.
        #[inline]
        fn mix(h: u64, v: u64) -> u64 {
            let mut x = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
        let mut h1 = 0x0B5E_55ED_5EED_F00Du64;
        let mut h2 = 0x2545_F491_4F6C_DD1Du64;
        let mut absorb = |v: u64| {
            h1 = mix(h1, v);
            h2 = h2.wrapping_mul(0x0000_0100_0000_01B3).wrapping_add(v);
        };
        absorb(self.next_base);
        for s in &self.slots {
            match s {
                Slot::U32(v) => {
                    absorb(0x7531 ^ (v.len() as u64) << 16);
                    v.iter().for_each(|&x| absorb(x as u64));
                }
                Slot::F32(v) => {
                    absorb(0x8642 ^ (v.len() as u64) << 16);
                    v.iter().for_each(|&x| absorb(x.to_bits() as u64));
                }
                Slot::I32(v) => {
                    absorb(0x9753 ^ (v.len() as u64) << 16);
                    v.iter().for_each(|&x| absorb(x as u32 as u64));
                }
                Slot::Other(_) => return None,
            }
        }
        Some([h1, h2])
    }

    /// The patch that turns `self` into `after`, a typed clone of `self`
    /// (see [`GlobalMem::try_clone`]) that a launch then wrote to, with
    /// the reductions `after` deferred.
    pub(crate) fn diff(&self, after: &GlobalMem) -> Patch {
        debug_assert_eq!(self.slots.len(), after.slots.len());
        let mut patch = Patch {
            reds: after.deferred.clone().unwrap_or_default(),
            ..Patch::default()
        };
        for (slot, pair) in self.slots.iter().zip(&after.slots).enumerate() {
            match pair {
                (Slot::U32(a), Slot::U32(b)) => patch.diff_slice(slot, a, b),
                (Slot::F32(a), Slot::F32(b)) => patch.diff_slice(slot, a, b),
                (Slot::I32(a), Slot::I32(b)) => patch.diff_slice(slot, a, b),
                _ => unreachable!("diffed images are typed clones of one image"),
            }
        }
        patch
    }

    /// Write a patch's runs in place, then fold its reductions.
    pub(crate) fn apply(&mut self, patch: &Patch) {
        let mut bits = &patch.bits[..];
        for &(slot, start, len) in &patch.runs {
            let (run, rest) = bits.split_at(len);
            bits = rest;
            match &mut self.slots[slot] {
                Slot::U32(v) => write_run(v, start, run),
                Slot::F32(v) => write_run(v, start, run),
                Slot::I32(v) => write_run(v, start, run),
                Slot::Other(_) => unreachable!("patches cover typed slots only"),
            }
        }
        for r in &patch.reds {
            match &mut self.slots[r.slot] {
                Slot::U32(v) => v[r.idx] = r.op.apply(v[r.idx], r.v),
                _ => unreachable!("reductions target u32 buffers"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut m = GlobalMem::new();
        let b = m.alloc_from(&[1u32, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(m.load(&b, 1), 2);
        m.store(&b, 1, 42);
        assert_eq!(m.slice(&b), &[1, 42, 3]);
    }

    #[test]
    fn buffers_do_not_overlap() {
        let mut m = GlobalMem::new();
        let a = m.alloc::<u64>(100);
        let b = m.alloc::<u64>(100);
        let a_end = a.addr_of(99) + 8;
        assert!(b.addr_of(0) >= a_end);
    }

    #[test]
    fn addresses_are_aligned_and_typed() {
        let mut m = GlobalMem::new();
        let a = m.alloc::<f32>(10);
        assert_eq!(a.addr_of(0) % 256, 0);
        assert_eq!(a.addr_of(3) - a.addr_of(0), 12);
        let b = m.alloc::<f64>(10);
        assert_eq!(b.addr_of(2) - b.addr_of(0), 16);
    }

    #[test]
    fn default_initialized() {
        let mut m = GlobalMem::new();
        let a = m.alloc::<i32>(4);
        assert_eq!(m.slice(&a), &[0, 0, 0, 0]);
        let b = m.alloc_init(3, 7u8);
        assert_eq!(m.slice(&b), &[7, 7, 7]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_confusion_panics() {
        let mut m = GlobalMem::new();
        let a = m.alloc::<u32>(4);
        // Forge a differently-typed handle to the same slot.
        let forged = DevBuffer::<f64> {
            id: a.id,
            base: a.base,
            len: a.len,
            _marker: PhantomData,
        };
        let _ = m.load(&forged, 0);
    }

    #[test]
    fn empty_buffer_is_fine() {
        let mut m = GlobalMem::new();
        let a = m.alloc::<u32>(0);
        assert!(a.is_empty());
        assert_eq!(m.slice(&a).len(), 0);
    }

    #[test]
    fn allocated_bytes_tracks_usage() {
        let mut m = GlobalMem::new();
        assert_eq!(m.allocated_bytes(), 0);
        m.alloc::<u8>(1000);
        assert!(m.allocated_bytes() >= 1000);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut m = GlobalMem::new();
        let a = m.alloc_from(&[1u32, 2, 3]);
        let b = m.alloc_from(&[1.5f32, -2.5]);
        let fp0 = m.fingerprint().unwrap();
        assert_eq!(
            m.fingerprint().unwrap(),
            fp0,
            "fingerprint is a pure function"
        );
        m.store(&a, 1, 99);
        let fp1 = m.fingerprint().unwrap();
        assert_ne!(fp0, fp1);
        m.store(&a, 1, 2); // restore
        assert_eq!(m.fingerprint().unwrap(), fp0);
        // Sign of zero is content: -0.0 and 0.0 must not collide.
        m.store(&b, 0, 0.0);
        let fpz = m.fingerprint().unwrap();
        m.store(&b, 0, -0.0);
        assert_ne!(m.fingerprint().unwrap(), fpz);
    }

    #[test]
    fn fingerprint_and_clone_bail_on_untyped_slots() {
        let mut m = GlobalMem::new();
        m.alloc::<u32>(4);
        assert!(m.fingerprint().is_some());
        assert!(m.try_clone().is_some());
        m.alloc::<u64>(4); // no dedicated variant -> Slot::Other
        assert!(m.fingerprint().is_none());
        assert!(m.try_clone().is_none());
    }

    /// Every slot's element bits, in slot order (without [`Bits`], so the
    /// checks below do not share its code).
    fn image_bits(m: &GlobalMem) -> Vec<Vec<u32>> {
        m.slots
            .iter()
            .map(|s| match s {
                Slot::U32(v) => v.clone(),
                Slot::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
                Slot::I32(v) => v.iter().map(|&x| x as u32).collect(),
                Slot::Other(_) => unreachable!("typed images only"),
            })
            .collect()
    }

    /// Set element `i` of `slot` to the bit pattern `b`.
    fn set_bits(m: &mut GlobalMem, slot: usize, i: usize, b: u32) {
        match &mut m.slots[slot] {
            Slot::U32(v) => write_run(v, i, &[b]),
            Slot::F32(v) => write_run(v, i, &[b]),
            Slot::I32(v) => write_run(v, i, &[b]),
            Slot::Other(_) => unreachable!("typed images only"),
        }
    }

    /// Negative zero and a quiet NaN with a payload, as `f32` bits.
    const NEG_ZERO: u32 = 0x8000_0000;
    const NAN_PAYLOAD: u32 = 0x7FC0_1234;

    #[test]
    fn diff_then_apply_roundtrips() {
        let mut m = GlobalMem::new();
        let a = m.alloc_from(&[1u32, 2, 3]);
        let b = m.alloc_from(&[0.0f32; 6]);
        let _empty = m.alloc::<f32>(0);
        let c = m.alloc_from(&[-1i32, -2]);
        let mut after = m.try_clone().unwrap();
        after.store(&a, 0, 7); // a run at the slot's start
        after.store(&b, 1, -0.0); // bitwise change, equal under `==`
        after.store(&b, 2, f32::from_bits(NAN_PAYLOAD));
        after.store(&b, 5, 4.25); // a run at the slot's end
        after.store(&c, 0, 5);
        after.store(&c, 1, 6); // every element of the slot
        let patch = m.diff(&after);
        assert_eq!(patch.runs, [(0, 0, 1), (1, 1, 2), (1, 5, 1), (3, 0, 2)]);
        m.apply(&patch);
        assert_eq!(image_bits(&m), image_bits(&after));
        assert_eq!(m.fingerprint(), after.fingerprint());
        assert_eq!(m.diff(&after), Patch::default(), "identical images");
    }

    #[test]
    fn shard_patches_apply_in_shard_order() {
        let mut base = GlobalMem::new();
        let v = base.alloc_from(&[0.0f32; 4]);
        // Shard 1 wrote elements 0..2 and shard 2 element 3; both wrote
        // element 1, and the later shard wins as in a serial run.
        let mut s1 = base.try_clone().unwrap();
        s1.store(&v, 0, 1.0);
        s1.store(&v, 1, 2.0);
        let mut s2 = base.try_clone().unwrap();
        s2.store(&v, 1, 3.0);
        s2.store(&v, 3, -0.0);
        let mut writes = base.diff(&s1);
        writes.append(base.diff(&s2));
        base.apply(&writes);
        let got = base.slice(&v);
        assert_eq!(got[..3], [1.0, 3.0, 0.0]);
        assert!(got[3] == 0.0 && got[3].is_sign_negative(), "keeps -0.0");
    }

    #[test]
    fn deferred_reductions_fold_after_the_runs() {
        let mut base = GlobalMem::new();
        let bins = base.alloc_from(&[10u32, 0]);
        let out = base.alloc_from(&[0u32; 2]);
        // Two shards reduce into both bins and write their own element.
        let mut writes = Patch::default();
        for (shard, v) in [(0usize, 5u32), (1, 7)] {
            let mut m = base.try_clone().unwrap();
            m.defer_reductions();
            m.reduce(&bins, 0, RedOp::Add, v);
            m.reduce(&bins, 1, RedOp::Max, v);
            m.store(&out, shard, v);
            assert_eq!(m.slice(&bins), &[10, 0], "a shard logs its reductions");
            writes.append(base.diff(&m));
        }
        base.apply(&writes);
        assert_eq!(base.slice(&bins), &[22, 7]);
        assert_eq!(base.slice(&out), &[5, 7]);
        // Without deferral a reduction lands at once.
        base.reduce(&bins, 0, RedOp::Add, u32::MAX);
        assert_eq!(base.slice(&bins)[0], 21, "adds wrap");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        /// A random typed image: up to 6 slots of random element types,
        /// 0–40 elements each, drawn from a small pool of bit patterns
        /// (so later writes often rewrite an equal value).
        fn image(r: &mut SmallRng) -> GlobalMem {
            let mut m = GlobalMem::new();
            for _ in 0..r.gen_range(1..=6) {
                let bits: Vec<u32> = (0..r.gen_range(0..=40)).map(|_| pattern(r)).collect();
                let id = match r.gen_range(0..3) {
                    0 => m.alloc::<u32>(bits.len()).id,
                    1 => m.alloc::<f32>(bits.len()).id,
                    _ => m.alloc::<i32>(bits.len()).id,
                };
                for (i, &b) in bits.iter().enumerate() {
                    set_bits(&mut m, id, i, b);
                }
            }
            m
        }

        fn pattern(r: &mut SmallRng) -> u32 {
            [0, 1, NEG_ZERO, NAN_PAYLOAD, 0x7F80_0001, r.gen()][r.gen_range(0..6usize)]
        }

        /// Every element of `m` as `(slot, index)`.
        fn elements(m: &GlobalMem) -> Vec<(usize, usize)> {
            let bits = image_bits(m);
            (0..bits.len())
                .flat_map(|s| (0..bits[s].len()).map(move |i| (s, i)))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]

            /// Diff then apply reproduces the post-image bit for bit, and
            /// identical images give an empty patch. Write densities run
            /// from none-changed to all-changed.
            #[test]
            fn prop_diff_then_apply_reproduces_the_post_image(seed in 0u64..u64::MAX) {
                let mut r = SmallRng::seed_from_u64(seed);
                let mut before = image(&mut r);
                let mut after = before.try_clone().unwrap();
                let density = [0.0, 0.1, 0.5, 1.0][r.gen_range(0..4usize)];
                let old = image_bits(&before);
                for (s, i) in elements(&before) {
                    if r.gen_bool(density) {
                        let new = if density == 1.0 { !old[s][i] } else { pattern(&mut r) };
                        set_bits(&mut after, s, i, new);
                    }
                }
                let patch = before.diff(&after);
                prop_assert_eq!(patch.bits.len(), patch.runs.iter().map(|r| r.2).sum::<usize>());
                if density == 1.0 {
                    prop_assert_eq!(patch.bits.len(), elements(&before).len());
                }
                prop_assert_eq!(before.diff(&before.try_clone().unwrap()), Patch::default());
                before.apply(&patch);
                prop_assert_eq!(image_bits(&before), image_bits(&after));
                prop_assert_eq!(before.diff(&after), Patch::default());
            }

            /// For random disjoint per-shard write sets, the shard patches
            /// concatenated in shard order and applied to the base give the
            /// serial post-image.
            #[test]
            fn prop_shard_patches_rebuild_the_serial_image(seed in 0u64..u64::MAX) {
                let mut r = SmallRng::seed_from_u64(seed);
                let base = image(&mut r);
                let jobs = r.gen_range(1..=4usize);
                let mut serial = base.try_clone().unwrap();
                let mut shards: Vec<GlobalMem> =
                    (0..jobs).map(|_| base.try_clone().unwrap()).collect();
                for (s, i) in elements(&base) {
                    if r.gen_bool(0.4) {
                        let b = pattern(&mut r);
                        set_bits(&mut serial, s, i, b);
                        set_bits(&mut shards[r.gen_range(0..jobs)], s, i, b);
                    }
                }
                let mut writes = Patch::default();
                for shard in &shards {
                    writes.append(base.diff(shard));
                }
                let mut merged = base.try_clone().unwrap();
                merged.apply(&writes);
                prop_assert_eq!(image_bits(&merged), image_bits(&serial));
            }
        }
    }
}
