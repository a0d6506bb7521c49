//! Property tests: on randomized small grids (at most 4x4 = 16 blocks),
//! both prover engines must agree exactly with brute-force enumeration of
//! the declared element sets — same provability, never a wrong `Provable`.

use kepler_sim::buffer::GlobalMem;
use kepler_sim::{KernelFootprint, Span};
use proptest::prelude::*;
use sim_analyze::prover::{brute_force_disjoint, prove_footprint, prove_footprint_with};

/// One randomized declared access: `(block, buffer slot, kind, start,
/// count, stride)`. Kind 0..=6 reads, 7..=8 writes, 9 atomics, 10..=11
/// reductions — reads dominate so provable and unprovable cases both occur
/// often.
type RawAccess = (u32, u8, u8, u64, u64, u64);

fn build(grid: u32, accesses: &[RawAccess]) -> KernelFootprint {
    let mut m = GlobalMem::new();
    let bufs = [
        m.alloc::<f32>(512),
        m.alloc::<f32>(512),
        m.alloc::<f32>(512),
    ];
    KernelFootprint::per_block(grid, 1.0, |b, f| {
        for &(blk, buf, kind, start, count, stride) in accesses {
            if blk % grid != b {
                continue;
            }
            let buf = &bufs[(buf % 3) as usize];
            let span = Span::strided(start, count, stride);
            match kind {
                0..=6 => f.read(buf, span),
                7 | 8 => f.write(buf, span),
                9 => f.atomic(buf, span),
                _ => f.reduce(buf, span),
            }
        }
    })
}

proptest! {
    #[test]
    fn engines_agree_with_brute_force(
        grid in 1u32..=16,
        accesses in proptest::collection::vec(
            (0u32..16, 0u8..3, 0u8..12, 0u64..64, 1u64..8, 1u64..6),
            0..12,
        ),
    ) {
        let fp = build(grid, &accesses);
        let oracle = brute_force_disjoint(&fp).provable();
        let fast = prove_footprint(&fp);
        // Forcing the sweep engine (element budget 0) must not change the
        // answer either; the pair budget is far above what 12 spans need.
        let sweep = prove_footprint_with(&fp, 0, 1 << 20);
        prop_assert_eq!(
            fast.provable(), oracle,
            "default engine disagrees with brute force: {:?} (grid {}, accesses {:?})",
            fast.reason(), grid, accesses
        );
        prop_assert_eq!(
            sweep.provable(), oracle,
            "sweep engine disagrees with brute force: {:?} (grid {}, accesses {:?})",
            sweep.reason(), grid, accesses
        );
    }

    #[test]
    fn partitioned_grids_always_prove(
        grid in 1u32..=16,
        chunk in 1u64..=32,
        stride_mode in 0u8..2,
    ) {
        // Canonical safe patterns: contiguous partition or mod-grid
        // lattice. Both must prove under every engine.
        let mut m = GlobalMem::new();
        let buf = m.alloc::<f32>(1024);
        let fp = KernelFootprint::per_block(grid, 1.0, |b, f| {
            let span = if stride_mode == 0 {
                Span::range(b as u64 * chunk, chunk)
            } else {
                Span::strided(b as u64, chunk, grid as u64)
            };
            f.write(&buf, span);
            f.read(&buf, span);
        });
        prop_assert!(brute_force_disjoint(&fp).provable());
        prop_assert!(prove_footprint(&fp).provable());
        prop_assert!(prove_footprint_with(&fp, 0, 1 << 20).provable());
    }
}
