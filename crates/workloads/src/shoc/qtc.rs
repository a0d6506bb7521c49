//! QTC — SHOC quality-threshold clustering: repeatedly, every unclustered
//! point proposes the cluster of all points within the quality threshold
//! of itself; the largest proposal wins and its members are removed.
//! Quadratic candidate scans with shrinking point sets and a global
//! argmax reduction per round — divergent and reduction-heavy. Each kernel
//! writes only its own points' elements and the argmax is a `red.max`, so
//! every launch is `parallel_safe`.

use crate::bench::{BenchSpec, Benchmark, InputSpec, RunOutput, Suite};
use crate::inputs::util::f32_vec;
use kepler_sim::{
    BlockCtx, DevBuffer, Device, Kernel, KernelFootprint, LaunchOpts, ParamKey, Span,
};

const BLOCK: u32 = 128;

struct CountKernel {
    xy: DevBuffer<f32>,
    clustered: DevBuffer<u32>,
    counts: DevBuffer<u32>,
    n: usize,
    thr2: f32,
}
impl Kernel for CountKernel {
    fn parallel_safe(&self) -> bool {
        true
    }
    fn params(&self) -> Vec<u64> {
        ParamKey::new()
            .buf(&self.xy)
            .buf(&self.clustered)
            .buf(&self.counts)
            .u(self.n as u64)
            .f(self.thr2)
            .done()
    }
    fn name(&self) -> &'static str {
        "qtc_count"
    }
    fn footprint(&self, grid: u32, block_threads: u32) -> Option<KernelFootprint> {
        let k = self;
        let dim = block_threads as u64;
        // Each point tests every point: two fma and a compare per pair.
        let ops = 5.0 * k.n as f64 * dim as f64;
        Some(KernelFootprint::per_block(grid, ops, |b, fp| {
            fp.read_all(&k.xy);
            fp.read_all(&k.clustered);
            fp.write(&k.counts, Span::range(b as u64 * dim, dim));
        }))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let k = self;
        blk.for_each_thread(|t| {
            let i = t.gtid() as usize;
            if i >= k.n {
                return;
            }
            if t.ld(&k.clustered, i) != 0 {
                t.st(&k.counts, i, 0);
                return;
            }
            let (xi, yi) = (t.ld(&k.xy, 2 * i), t.ld(&k.xy, 2 * i + 1));
            let mut cnt = 0u32;
            for j in 0..k.n {
                if t.ld(&k.clustered, j) != 0 {
                    continue;
                }
                let dx = t.ld(&k.xy, 2 * j) - xi;
                let dy = t.ld(&k.xy, 2 * j + 1) - yi;
                t.fma32(2);
                if dx * dx + dy * dy <= k.thr2 {
                    cnt += 1;
                }
            }
            t.int_op(k.n as u32);
            t.st(&k.counts, i, cnt);
        });
    }
}

/// Global argmax over candidate counts (packed value<<16|index max
/// reduction; index inverted so ties break to the lowest index).
struct ArgmaxKernel {
    counts: DevBuffer<u32>,
    best: DevBuffer<u32>,
    n: usize,
}
impl Kernel for ArgmaxKernel {
    fn parallel_safe(&self) -> bool {
        true
    }
    fn params(&self) -> Vec<u64> {
        ParamKey::new()
            .buf(&self.counts)
            .buf(&self.best)
            .u(self.n as u64)
            .done()
    }
    fn name(&self) -> &'static str {
        "qtc_reduce"
    }
    fn footprint(&self, grid: u32, block_threads: u32) -> Option<KernelFootprint> {
        let k = self;
        let dim = block_threads as u64;
        Some(KernelFootprint::per_block(
            grid,
            3.0 * dim as f64,
            |b, fp| {
                fp.read(&k.counts, Span::range(b as u64 * dim, dim));
                fp.reduce(&k.best, Span::point(0));
            },
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let k = self;
        blk.for_each_thread(|t| {
            let i = t.gtid() as usize;
            if i >= k.n {
                return;
            }
            let c = t.ld(&k.counts, i);
            t.int_op(3);
            let packed = (c << 16) | (0xFFFF - i as u32);
            t.red_max_u32(&k.best, 0, packed);
        });
    }
}

struct RemoveKernel {
    xy: DevBuffer<f32>,
    clustered: DevBuffer<u32>,
    n: usize,
    center: usize,
    thr2: f32,
    round: u32,
}
impl Kernel for RemoveKernel {
    fn parallel_safe(&self) -> bool {
        true
    }
    fn params(&self) -> Vec<u64> {
        ParamKey::new()
            .buf(&self.xy)
            .buf(&self.clustered)
            .u(self.n as u64)
            .u(self.center as u64)
            .f(self.thr2)
            .u(self.round as u64)
            .done()
    }
    fn name(&self) -> &'static str {
        "qtc_remove"
    }
    fn footprint(&self, grid: u32, block_threads: u32) -> Option<KernelFootprint> {
        let k = self;
        let dim = block_threads as u64;
        Some(KernelFootprint::per_block(
            grid,
            5.0 * dim as f64,
            |b, fp| {
                let own = Span::range(b as u64 * dim, dim);
                // A point's own position and the center's.
                fp.read_all(&k.xy);
                fp.read(&k.clustered, own);
                fp.write(&k.clustered, own);
            },
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let k = self;
        blk.for_each_thread(|t| {
            let i = t.gtid() as usize;
            if i >= k.n || t.ld(&k.clustered, i) != 0 {
                return;
            }
            let dx = t.ld(&k.xy, 2 * i) - t.ld(&k.xy, 2 * k.center);
            let dy = t.ld(&k.xy, 2 * i + 1) - t.ld(&k.xy, 2 * k.center + 1);
            t.fma32(2);
            if dx * dx + dy * dy <= k.thr2 {
                t.st(&k.clustered, i, k.round);
            }
        });
    }
}

/// Host reference greedy QTC (same tie-breaking).
pub fn host_qtc(xy: &[f32], n: usize, thr2: f32) -> Vec<u32> {
    let mut clustered = vec![0u32; n];
    let mut round = 1u32;
    loop {
        let mut best = (0u32, usize::MAX);
        for i in 0..n {
            if clustered[i] != 0 {
                continue;
            }
            let mut cnt = 0;
            for j in 0..n {
                if clustered[j] != 0 {
                    continue;
                }
                let dx = xy[2 * j] - xy[2 * i];
                let dy = xy[2 * j + 1] - xy[2 * i + 1];
                if dx * dx + dy * dy <= thr2 {
                    cnt += 1;
                }
            }
            if cnt > best.0 || (cnt == best.0 && i < best.1) {
                best = (cnt, i);
            }
        }
        if best.0 == 0 {
            break;
        }
        for i in 0..n {
            if clustered[i] != 0 {
                continue;
            }
            let dx = xy[2 * i] - xy[2 * best.1];
            let dy = xy[2 * i + 1] - xy[2 * best.1 + 1];
            if dx * dx + dy * dy <= thr2 {
                clustered[i] = round;
            }
        }
        round += 1;
    }
    clustered
}

/// The QTC benchmark.
pub struct Qtc;

impl Benchmark for Qtc {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            key: "qtc",
            name: "QTC",
            suite: Suite::Shoc,
            kernels: 6,
            regular: false,
            description: "Quality-threshold clustering (greedy largest-cluster removal)",
        }
    }

    fn inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(
            "default benchmark input",
            768,
            0,
            0,
            5_200.0,
        )]
    }

    fn run(&self, dev: &mut Device, input: &InputSpec) -> RunOutput {
        let n = input.n;
        let thr2 = 0.02f32;
        let xy = f32_vec(2 * n, 0.0, 1.0, input.seed);
        let k = CountKernel {
            xy: dev.alloc_from(&xy),
            // Read for every point from the first launch on: must start as
            // an explicit "not clustered" zero, not fresh memory.
            clustered: dev.alloc_init::<u32>(n, 0),
            counts: dev.alloc::<u32>(n),
            n,
            thr2,
        };
        let best = dev.alloc::<u32>(1);
        let grid = (n as u32).div_ceil(BLOCK);
        let opts = LaunchOpts {
            work_multiplier: input.mult,
        };
        let mut round = 1u32;
        loop {
            dev.launch_with(&k, grid, BLOCK, opts);
            dev.fill(&best, 0);
            dev.launch_with(
                &ArgmaxKernel {
                    counts: k.counts,
                    best,
                    n,
                },
                grid,
                BLOCK,
                opts,
            );
            let packed = dev.read_at(&best, 0);
            let count = packed >> 16;
            if count == 0 {
                break;
            }
            let center = (0xFFFF - (packed & 0xFFFF)) as usize;
            dev.launch_with(
                &RemoveKernel {
                    xy: k.xy,
                    clustered: k.clustered,
                    n,
                    center,
                    thr2,
                    round,
                },
                grid,
                BLOCK,
                opts,
            );
            round += 1;
            assert!(round < 10_000, "QTC failed to converge");
        }
        let got = dev.read(&k.clustered);
        let expect = host_qtc(&xy, n, thr2);
        assert_eq!(got, expect, "QTC clustering mismatch");
        RunOutput {
            checksum: round as f64,
            items: None,
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
    fn qtc_matches_host() {
        Qtc.run(&mut device(), &InputSpec::new("t", 200, 0, 0, 1.0));
    }

    #[test]
    fn every_point_gets_clustered() {
        let xy = f32_vec(2 * 100, 0.0, 1.0, 3);
        let c = host_qtc(&xy, 100, 0.05);
        assert!(c.iter().all(|&v| v > 0));
    }

    #[test]
    fn bigger_threshold_fewer_clusters() {
        let xy = f32_vec(2 * 150, 0.0, 1.0, 4);
        let small = host_qtc(&xy, 150, 0.005);
        let large = host_qtc(&xy, 150, 0.3);
        let n_clusters = |c: &[u32]| c.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(n_clusters(&large) < n_clusters(&small));
    }
}
