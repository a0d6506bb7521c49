//! The disjointness prover: a sound, decidable check of clauses 1–2 of the
//! [`kepler_sim::Kernel::parallel_safe`] contract from a declared
//! [`KernelFootprint`].
//!
//! * **Clause 2** (no value-returning atomics; a reduction target is not
//!   otherwise read or written) has a syntactic half — any declared
//!   [`FpKind::Atomic`] span refutes it — and a disjointness half: every
//!   element of an [`FpKind::Reduce`] span is touched by no read or write
//!   of *any* block, the reducing block's own included. Reductions into
//!   the same element from many blocks are the point and never conflict.
//! * **Clause 1** (no cross-block read-after-write) is proven by showing
//!   the stronger property that every element *written* by some block is
//!   touched by **no other block at all** — neither written (order would
//!   matter) nor read (a cross-block RAW/WAR). Reads of buffers the launch
//!   never writes or reduces into are ignored: they cannot participate in
//!   a hazard, which is what makes sound over-approximations like
//!   [`kepler_sim::FpBuilder::read_all`] free.
//!
//! Two exact engines back the check, picked by declared size:
//!
//! * an **element map** for small footprints — every declared element of a
//!   written buffer is enumerated into a hash map keyed by index, the
//!   direct transcription of the definition;
//! * an **interval/stride sweep** for everything else — per written
//!   buffer, spans sort by start index and each span is tested against the
//!   still-active spans of other blocks with the exact
//!   arithmetic-progression intersection ([`Span::intersects`], extended
//!   Euclid + CRT). The sweep is also exact; a pair-test budget turns
//!   pathological inputs into a *refusal* (`Unprovable`), never a wrong
//!   `Provable` — refusal is always sound.

use kepler_sim::{FpKind, KernelFootprint, Span};
use std::collections::HashMap;

/// Default element budget below which the element-map engine runs.
pub const EXACT_ELEMENT_BUDGET: u64 = 1 << 20;
/// Default cap on span-pair intersection tests in the sweep engine.
pub const PAIR_TEST_BUDGET: u64 = 4_000_000;

/// The prover's answer for one launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Clauses 1–2 hold: no declared atomics, every written element is
    /// private to its writer block, and every reduced element is only
    /// reduced into.
    Provable,
    /// A refutation or a refusal; the string says which and where.
    Unprovable(String),
}

impl Verdict {
    pub fn provable(&self) -> bool {
        matches!(self, Verdict::Provable)
    }

    /// The refutation/refusal text, if any.
    pub fn reason(&self) -> Option<&str> {
        match self {
            Verdict::Provable => None,
            Verdict::Unprovable(r) => Some(r),
        }
    }
}

/// One declared access flattened out of the per-block footprint.
#[derive(Debug, Clone, Copy)]
struct Item {
    block: u32,
    kind: FpKind,
    span: Span,
}

/// Whether two accesses `(block, kind)` to a common element break the
/// contract: a reduction against any read or write (clause 2, within one
/// block too), or two blocks of which at least one writes (clause 1).
fn conflicting((ab, ak): (u32, FpKind), (bb, bk): (u32, FpKind)) -> bool {
    match (ak == FpKind::Reduce, bk == FpKind::Reduce) {
        (true, true) => false,
        (true, false) | (false, true) => true,
        (false, false) => ab != bb && (ak == FpKind::Write || bk == FpKind::Write),
    }
}

/// Prove clauses 1–2 with the default budgets.
pub fn prove_footprint(fp: &KernelFootprint) -> Verdict {
    prove_footprint_with(fp, EXACT_ELEMENT_BUDGET, PAIR_TEST_BUDGET)
}

/// Prove with explicit engine budgets. `exact_budget` of 0 forces the
/// sweep engine (the property tests cross-check both engines against
/// brute-force enumeration this way).
pub fn prove_footprint_with(fp: &KernelFootprint, exact_budget: u64, pair_budget: u64) -> Verdict {
    // Clause 2: no global atomics.
    for (b, blk) in fp.blocks.iter().enumerate() {
        for a in &blk.accesses {
            if a.kind == FpKind::Atomic {
                return Verdict::Unprovable(format!(
                    "clause 2: block {b} declares an atomic on buf{}",
                    a.buf.id
                ));
            }
        }
    }

    // Clause 1 and clause 2's reductions: group spans by buffer, keep only
    // buffers the launch writes or reduces into.
    let mut by_buf: HashMap<u32, Vec<Item>> = HashMap::new();
    let mut updated: HashMap<u32, bool> = HashMap::new();
    for (b, blk) in fp.blocks.iter().enumerate() {
        for a in &blk.accesses {
            *updated.entry(a.buf.id).or_default() |= a.kind != FpKind::Read;
            by_buf.entry(a.buf.id).or_default().push(Item {
                block: b as u32,
                kind: a.kind,
                span: a.span,
            });
        }
    }

    let mut pair_tests = 0u64;
    let mut buf_ids: Vec<u32> = by_buf.keys().copied().collect();
    buf_ids.sort_unstable();
    for id in buf_ids {
        if !updated[&id] {
            continue; // read-only this launch: no hazard possible
        }
        let items = &mut by_buf.get_mut(&id).unwrap()[..];
        let elements: u64 = items.iter().map(|i| i.span.count).sum();
        let verdict = if elements <= exact_budget {
            prove_buffer_exact(id, items)
        } else {
            prove_buffer_sweep(id, items, pair_budget, &mut pair_tests)
        };
        if let Verdict::Unprovable(_) = verdict {
            return verdict;
        }
    }
    Verdict::Provable
}

/// Element-map engine: enumerate every declared element of one written or
/// reduced buffer and look for a conflicting pair of accesses.
fn prove_buffer_exact(id: u32, items: &[Item]) -> Verdict {
    // index -> (owner block, owner ever wrote it), over reads and writes
    let mut owner: HashMap<u64, (u32, bool)> = HashMap::new();
    // Writes first so reads are checked against the full write set, and
    // reductions last, against every read and write.
    for pass in [FpKind::Write, FpKind::Read, FpKind::Reduce] {
        for it in items.iter().filter(|i| i.kind == pass) {
            for idx in it.span.iter() {
                let Some((b, wrote)) = owner.get_mut(&idx) else {
                    if pass != FpKind::Reduce {
                        owner.insert(idx, (it.block, pass == FpKind::Write));
                    }
                    continue;
                };
                let prior = (*b, if *wrote { FpKind::Write } else { FpKind::Read });
                if conflicting(prior, (it.block, pass)) {
                    return conflict(id, idx, prior, (it.block, pass));
                }
                *wrote |= pass == FpKind::Write;
            }
        }
    }
    Verdict::Provable
}

/// Interval/stride sweep engine: sort one buffer's spans by start index,
/// keep the spans whose window is still open, and intersection-test each
/// new span against the open spans it would conflict with.
fn prove_buffer_sweep(id: u32, items: &mut [Item], budget: u64, tests: &mut u64) -> Verdict {
    items.sort_by_key(|i| (i.span.start, i.block));
    // Open spans: (window end, item). Pruned as the sweep line passes.
    let mut open: Vec<(u64, Item)> = Vec::new();
    for it in items.iter() {
        open.retain(|(end, _)| *end >= it.span.start);
        for (_, o) in &open {
            if !conflicting((o.block, o.kind), (it.block, it.kind)) {
                continue;
            }
            *tests += 1;
            if *tests > budget {
                return Verdict::Unprovable(format!(
                    "refused: span-pair budget ({budget} tests) exhausted on buf{id}"
                ));
            }
            if o.span.intersects(&it.span) {
                // An intersection with sorted input means o.start <= it.start,
                // so report the common element nearest the sweep line.
                let idx = it
                    .span
                    .iter()
                    .find(|&x| o.span.contains(x))
                    .unwrap_or(it.span.start);
                return conflict(id, idx, (o.block, o.kind), (it.block, it.kind));
            }
        }
        open.push((it.span.max_index(), *it));
    }
    Verdict::Provable
}

/// The refutation for conflicting accesses `(block, kind)` on element `idx`.
fn conflict(id: u32, idx: u64, a: (u32, FpKind), b: (u32, FpKind)) -> Verdict {
    let (reducer, other) = match (a.1, b.1) {
        (FpKind::Reduce, _) => (a, b),
        (_, FpKind::Reduce) => (b, a),
        _ => {
            return Verdict::Unprovable(format!(
                "clause 1: blocks {} and {} overlap on buf{id} element {idx} with a write involved",
                a.0, b.0
            ))
        }
    };
    let verb = if other.1 == FpKind::Write {
        "writes"
    } else {
        "reads"
    };
    Verdict::Unprovable(format!(
        "clause 2: block {} reduces into buf{id} element {idx}, which block {} {verb}",
        reducer.0, other.0
    ))
}

/// Brute-force oracle: materialize every block's accesses per element and
/// apply the definition directly. Test-support; exported so the property
/// tests and the documentation example can call it.
pub fn brute_force_disjoint(fp: &KernelFootprint) -> Verdict {
    if fp.has_atomics() {
        return Verdict::Unprovable("clause 2: atomics declared".into());
    }
    // (buffer, index) -> every (block, kind) touching it
    let mut touch: HashMap<(u32, u64), Vec<(u32, FpKind)>> = HashMap::new();
    for (b, blk) in fp.blocks.iter().enumerate() {
        for a in &blk.accesses {
            for idx in a.span.iter() {
                touch
                    .entry((a.buf.id, idx))
                    .or_default()
                    .push((b as u32, a.kind));
            }
        }
    }
    for ((id, idx), who) in touch {
        // A reduced element that anything reads or writes refutes.
        let reducer = who.iter().find(|t| t.1 == FpKind::Reduce);
        if let (Some(&r), Some(&p)) = (reducer, who.iter().find(|t| t.1 != FpKind::Reduce)) {
            return conflict(id, idx, r, p);
        }
        // So does an element with a writer and a touch from another block.
        let Some(&w) = who.iter().find(|t| t.1 == FpKind::Write) else {
            continue;
        };
        if let Some(&other) = who.iter().find(|t| t.0 != w.0) {
            return conflict(id, idx, w, other);
        }
    }
    Verdict::Provable
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_sim::buffer::GlobalMem;
    use kepler_sim::KernelFootprint;

    fn mem() -> GlobalMem {
        GlobalMem::new()
    }

    #[test]
    fn partitioned_writes_are_provable() {
        let mut m = mem();
        let buf = m.alloc::<f32>(1024);
        let fp = KernelFootprint::per_block(4, 1.0, |b, f| {
            f.write(&buf, Span::range(b as u64 * 256, 256));
            f.read(&buf, Span::range(b as u64 * 256, 256)); // own elements
        });
        assert_eq!(prove_footprint(&fp), Verdict::Provable);
        assert_eq!(
            prove_footprint_with(&fp, 0, PAIR_TEST_BUDGET),
            Verdict::Provable
        );
    }

    #[test]
    fn cross_block_read_of_written_element_refutes() {
        let mut m = mem();
        let buf = m.alloc::<f32>(1024);
        let fp = KernelFootprint::per_block(4, 1.0, |b, f| {
            f.write(&buf, Span::range(b as u64 * 256, 256));
            // Halo read bleeding one element into the neighbour's range.
            f.read(&buf, Span::range(b as u64 * 256, 257));
        });
        assert!(!prove_footprint(&fp).provable());
        assert!(!prove_footprint_with(&fp, 0, PAIR_TEST_BUDGET).provable());
        assert!(prove_footprint(&fp)
            .reason()
            .unwrap()
            .starts_with("clause 1"));
    }

    #[test]
    fn atomics_refute_clause_two() {
        let mut m = mem();
        let buf = m.alloc::<u32>(16);
        let fp = KernelFootprint::per_block(2, 1.0, |_b, f| {
            f.atomic(&buf, Span::point(0));
        });
        let v = prove_footprint(&fp);
        assert!(v.reason().unwrap().starts_with("clause 2"));
    }

    #[test]
    fn targets_only_reduced_into_are_provable() {
        let mut m = mem();
        let input = m.alloc::<u32>(1024);
        let bins = m.alloc::<u32>(32);
        let best = m.alloc::<u32>(1);
        // Every block reduces into every bin and into one shared maximum.
        let fp = KernelFootprint::per_block(4, 1.0, |b, f| {
            f.read(&input, Span::range(b as u64 * 256, 256));
            f.reduce_all(&bins);
            f.reduce(&best, Span::point(0));
        });
        assert_eq!(prove_footprint(&fp), Verdict::Provable);
        assert_eq!(
            prove_footprint_with(&fp, 0, PAIR_TEST_BUDGET),
            Verdict::Provable
        );
        assert_eq!(brute_force_disjoint(&fp), Verdict::Provable);
    }

    #[test]
    fn reduce_targets_read_or_written_by_any_block_refute() {
        let mut m = mem();
        let bins = m.alloc::<u32>(32);
        // (block with the extra access, its kind): another block's read,
        // another block's write, and the reducing block's own read/write.
        for (extra_block, write) in [(3, false), (3, true), (0, false), (0, true)] {
            let fp = KernelFootprint::per_block(4, 1.0, |b, f| {
                if b == 0 {
                    f.reduce(&bins, Span::range(8, 8));
                }
                if b == extra_block {
                    if write {
                        f.write(&bins, Span::point(15));
                    } else {
                        f.read(&bins, Span::range(15, 4));
                    }
                }
            });
            for v in [
                prove_footprint(&fp),
                prove_footprint_with(&fp, 0, PAIR_TEST_BUDGET),
                brute_force_disjoint(&fp),
            ] {
                let reason = v
                    .reason()
                    .unwrap_or_else(|| panic!("block {extra_block} write {write}: proved {fp:?}"));
                assert!(reason.starts_with("clause 2"), "{reason}");
                assert!(reason.contains("element 15"), "{reason}");
            }
        }
    }

    #[test]
    fn reads_of_read_only_buffers_never_conflict() {
        let mut m = mem();
        let table = m.alloc::<f32>(64);
        let out = m.alloc::<f32>(64);
        let fp = KernelFootprint::per_block(4, 1.0, |b, f| {
            f.read_all(&table); // every block reads everything
            f.write(&out, Span::range(b as u64 * 16, 16));
        });
        assert_eq!(prove_footprint(&fp), Verdict::Provable);
    }

    #[test]
    fn interleaved_strided_writes_are_provable() {
        let mut m = mem();
        let buf = m.alloc::<f32>(1024);
        // Block b writes indices congruent to b mod 4: disjoint lattices.
        let fp = KernelFootprint::per_block(4, 1.0, |b, f| {
            f.write(&buf, Span::strided(b as u64, 256, 4));
        });
        assert_eq!(prove_footprint(&fp), Verdict::Provable);
        assert_eq!(
            prove_footprint_with(&fp, 0, PAIR_TEST_BUDGET),
            Verdict::Provable
        );
    }

    #[test]
    fn colliding_strides_refute() {
        let mut m = mem();
        let buf = m.alloc::<f32>(4096);
        // stride 6 from 2 and stride 10 from 4 share 14.
        let fp = KernelFootprint::per_block(2, 1.0, |b, f| {
            if b == 0 {
                f.write(&buf, Span::strided(2, 50, 6));
            } else {
                f.write(&buf, Span::strided(4, 50, 10));
            }
        });
        assert!(!prove_footprint(&fp).provable());
        assert!(!prove_footprint_with(&fp, 0, PAIR_TEST_BUDGET).provable());
    }

    #[test]
    fn budget_refusal_is_unprovable_not_wrong() {
        let mut m = mem();
        let buf = m.alloc::<f32>(1 << 16);
        let fp = KernelFootprint::per_block(64, 1.0, |b, f| {
            f.write(&buf, Span::strided(b as u64, 1 << 10, 64));
        });
        // Force the sweep with an absurdly small pair budget.
        let v = prove_footprint_with(&fp, 0, 3);
        assert!(v.reason().unwrap().contains("budget"));
        // With real budgets the same footprint proves.
        assert_eq!(prove_footprint(&fp), Verdict::Provable);
    }

    #[test]
    fn single_block_footprints_are_trivially_provable() {
        let mut m = mem();
        let buf = m.alloc::<f32>(256);
        let fp = KernelFootprint::per_block(1, 1.0, |_b, f| {
            f.read_all(&buf);
            f.write_all(&buf);
        });
        assert_eq!(prove_footprint(&fp), Verdict::Provable);
    }

    #[test]
    fn write_all_from_many_blocks_refutes() {
        let mut m = mem();
        let buf = m.alloc::<f32>(256);
        let fp = KernelFootprint::per_block(2, 1.0, |_b, f| {
            f.write_all(&buf);
        });
        assert!(!prove_footprint(&fp).provable());
    }
}
