//! MUM — Rodinia MUMmerGPU: aligning query reads against a reference
//! sequence. The original walks a suffix tree on the GPU; we use the
//! equivalent suffix-*array* formulation (binary search for the longest
//! prefix match), which preserves the benchmark's essence: per-query
//! data-dependent loop counts and pointer-chasing-style uncoalesced loads
//! through a big index structure (substitution recorded in DESIGN.md).

use crate::bench::{BenchSpec, Benchmark, InputSpec, ItemCounts, RunOutput, Suite};
use crate::inputs::sequences::{queries, reference};
use kepler_sim::{
    BlockCtx, DevBuffer, Device, Kernel, KernelFootprint, LaunchOpts, ParamKey, Span,
};

const BLOCK: u32 = 128;

struct MatchKernel {
    reference: DevBuffer<u32>,
    suffix_array: DevBuffer<u32>,
    queries: DevBuffer<u32>,
    match_len: DevBuffer<u32>,
    ref_len: usize,
    query_len: usize,
    num_queries: usize,
}

impl Kernel for MatchKernel {
    fn parallel_safe(&self) -> bool {
        true
    }
    fn params(&self) -> Vec<u64> {
        ParamKey::new()
            .buf(&self.reference)
            .buf(&self.suffix_array)
            .buf(&self.queries)
            .buf(&self.match_len)
            .u(self.ref_len as u64)
            .u(self.query_len as u64)
            .u(self.num_queries as u64)
            .done()
    }
    fn name(&self) -> &'static str {
        "mummer_match"
    }
    fn footprint(&self, grid: u32, block_threads: u32) -> Option<KernelFootprint> {
        let k = self;
        let dim = block_threads as u64;
        let len = k.query_len as u64;
        // At most: a binary search of log2(ref_len) steps plus the two
        // neighbors, each comparing up to the whole query at 3 int ops a
        // character.
        let probes = (usize::BITS - k.ref_len.leading_zeros()) as f64 + 2.0;
        let ops = probes * 3.0 * (len * dim) as f64;
        Some(KernelFootprint::per_block(grid, ops, |b, fp| {
            let first = b as u64 * dim;
            // The search walks the whole index and reference.
            fp.read_all(&k.suffix_array);
            fp.read_all(&k.reference);
            fp.read(&k.queries, Span::range(first * len, dim * len));
            fp.write(&k.match_len, Span::range(first, dim));
        }))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let k = self;
        blk.for_each_thread(|t| {
            let q = t.gtid() as usize;
            if q >= k.num_queries {
                return;
            }
            let qbase = q * k.query_len;
            // Binary search the suffix array for the query's longest
            // prefix match.
            let mut lo = 0usize;
            let mut hi = k.ref_len;
            let mut best = 0u32;
            while lo < hi {
                let mid = (lo + hi) / 2;
                let suf = t.ld(&k.suffix_array, mid) as usize;
                // Compare query against reference[suf..].
                let mut l = 0usize;
                let mut cmp = std::cmp::Ordering::Equal;
                while l < k.query_len && suf + l < k.ref_len {
                    let qc = t.ld(&k.queries, qbase + l);
                    let rc = t.ld(&k.reference, suf + l);
                    t.int_op(3);
                    match qc.cmp(&rc) {
                        std::cmp::Ordering::Equal => l += 1,
                        o => {
                            cmp = o;
                            break;
                        }
                    }
                }
                best = best.max(l as u32);
                t.int_op(4);
                match cmp {
                    std::cmp::Ordering::Less => hi = mid,
                    _ => lo = mid + 1,
                }
            }
            // The longest match sits adjacent to the insertion point; the
            // search path may have skipped one of the two neighbors.
            for cand in [lo.wrapping_sub(1), lo] {
                if cand >= k.ref_len {
                    continue;
                }
                let suf = t.ld(&k.suffix_array, cand) as usize;
                let mut l = 0usize;
                while l < k.query_len && suf + l < k.ref_len {
                    let qc = t.ld(&k.queries, qbase + l);
                    let rc = t.ld(&k.reference, suf + l);
                    t.int_op(3);
                    if qc != rc {
                        break;
                    }
                    l += 1;
                }
                best = best.max(l as u32);
            }
            t.st(&k.match_len, q, best);
        });
    }
}

/// Host reference: longest prefix of `query` occurring in `reference`.
pub fn host_longest_match(reference: &[u8], query: &[u8]) -> u32 {
    let mut best = 0;
    for start in 0..reference.len() {
        let mut l = 0;
        while l < query.len() && start + l < reference.len() && reference[start + l] == query[l] {
            l += 1;
        }
        best = best.max(l);
    }
    best as u32
}

/// The MUM benchmark.
pub struct Mummer;

impl Benchmark for Mummer {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            key: "mum",
            name: "MUM",
            suite: Suite::Rodinia,
            kernels: 3,
            regular: false,
            description: "Sequence alignment against an indexed reference (MUMmerGPU)",
        }
    }

    fn inputs(&self) -> Vec<InputSpec> {
        // Paper: 100bp and 25bp reads. n = queries, m = read length.
        vec![
            InputSpec::new("100bp", 2048, 100, 0, 18_000.0),
            InputSpec::new("25bp", 4096, 25, 0, 21_000.0),
        ]
    }

    fn run(&self, dev: &mut Device, input: &InputSpec) -> RunOutput {
        let ref_len = 16 * 1024;
        let reference_seq = reference(ref_len, input.seed);
        let qs = queries(&reference_seq, input.n, input.m, input.seed + 1);
        // Suffix array of the reference.
        let mut sa: Vec<u32> = (0..ref_len as u32).collect();
        sa.sort_by(|&a, &b| reference_seq[a as usize..].cmp(&reference_seq[b as usize..]));
        let k = MatchKernel {
            reference: dev.alloc_from(&reference_seq.iter().map(|&c| c as u32).collect::<Vec<_>>()),
            suffix_array: dev.alloc_from(&sa),
            queries: dev.alloc_from(&qs.iter().map(|&c| c as u32).collect::<Vec<_>>()),
            match_len: dev.alloc::<u32>(input.n),
            ref_len,
            query_len: input.m,
            num_queries: input.n,
        };
        dev.launch_with(
            &k,
            (input.n as u32).div_ceil(BLOCK),
            BLOCK,
            LaunchOpts {
                work_multiplier: input.mult,
            },
        );
        let got = dev.read(&k.match_len);
        // Spot-check against the (quadratic) host reference.
        for q in (0..input.n).step_by(211) {
            let expect = host_longest_match(&reference_seq, &qs[q * input.m..(q + 1) * input.m]);
            assert_eq!(got[q], expect, "match length mismatch for query {q}");
        }
        // Most mutated-substring queries should match most of their length.
        let long_matches = got.iter().filter(|&&l| l as usize > input.m / 2).count();
        assert!(long_matches > input.n / 4, "{long_matches} long matches");
        RunOutput {
            checksum: got.iter().map(|&v| v as f64).sum(),
            items: Some(ItemCounts {
                vertices: input.n as u64,
                edges: (input.n * input.m) as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_sim::{ClockConfig, DeviceConfig};

    fn device() -> Device {
        Device::new(DeviceConfig::k20c(ClockConfig::k20_default(), false))
    }

    #[test]
    fn mum_matches_host() {
        Mummer.run(&mut device(), &InputSpec::new("t", 256, 25, 0, 1.0));
    }

    #[test]
    fn host_longest_match_basics() {
        let r = b"ACGTACGT".to_vec();
        assert_eq!(host_longest_match(&r, b"CGTA"), 4);
        assert_eq!(host_longest_match(&r, b"TTTT"), 1);
        assert_eq!(host_longest_match(&r, b""), 0);
    }

    #[test]
    fn mum_is_divergent() {
        let mut dev = device();
        Mummer.run(&mut dev, &InputSpec::new("t", 256, 25, 0, 1.0));
        // Data-dependent binary-search/compare loops diverge.
        assert!(dev.total_counters().divergence() > 0.15);
    }
}
