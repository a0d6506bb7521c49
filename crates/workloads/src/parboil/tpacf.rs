//! TPACF — Parboil two-point angular correlation function: statistical
//! analysis of astronomical body positions. All pairs of sky positions are
//! binned by angular separation (dot product + acos into logarithmic
//! bins), with shared-memory histogram accumulation.

use crate::bench::{BenchSpec, Benchmark, InputSpec, RunOutput, Suite};
use crate::inputs::points::sky_points;
use kepler_sim::{BlockCtx, DevBuffer, Device, Kernel, KernelFootprint, LaunchOpts, ParamKey};

const BLOCK: u32 = 128;
const NUM_BINS: usize = 32;

struct TpacfKernel {
    xyz: DevBuffer<f32>,
    bins: DevBuffer<u32>,
    n: usize,
}

fn bin_of(dot: f32) -> usize {
    // Logarithmic angular bins over cos(theta) in (-1, 1].
    let theta = dot.clamp(-1.0, 1.0).acos();
    let frac = (theta / std::f32::consts::PI).clamp(1e-6, 1.0);
    ((frac.log2() + 20.0) / 20.0 * NUM_BINS as f32).clamp(0.0, NUM_BINS as f32 - 1.0) as usize
}

impl Kernel for TpacfKernel {
    fn parallel_safe(&self) -> bool {
        true
    }
    fn params(&self) -> Vec<u64> {
        ParamKey::new()
            .buf(&self.xyz)
            .buf(&self.bins)
            .u(self.n as u64)
            .done()
    }
    fn name(&self) -> &'static str {
        "tpacf_histogram"
    }
    fn footprint(&self, grid: u32, _block_threads: u32) -> Option<KernelFootprint> {
        let k = self;
        // ~10 ops per pair, n(n-1)/2 pairs split across the grid.
        let pairs = k.n as f64 * (k.n as f64 - 1.0) / 2.0;
        let ops = 10.0 * pairs / grid.max(1) as f64;
        Some(KernelFootprint::per_block(grid, ops, |_b, fp| {
            // Thread i pairs with every j > i: effectively the whole sky.
            fp.read_all(&k.xyz);
            fp.reduce_all(&k.bins);
        }))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let k = self;
        let n = k.n;
        let local = blk.shared_alloc::<u32>(NUM_BINS);
        blk.for_each_thread(|t| {
            let i = t.gtid() as usize;
            if i >= n {
                return;
            }
            let (xi, yi, zi) = (
                t.ld(&k.xyz, 3 * i),
                t.ld(&k.xyz, 3 * i + 1),
                t.ld(&k.xyz, 3 * i + 2),
            );
            for j in (i + 1)..n {
                let dot = xi * t.ld(&k.xyz, 3 * j)
                    + yi * t.ld(&k.xyz, 3 * j + 1)
                    + zi * t.ld(&k.xyz, 3 * j + 2);
                let b = bin_of(dot);
                let cur = t.shared_get(&local, b);
                t.shared_set(&local, b, cur + 1);
            }
            let m = (n - i - 1) as u32;
            t.fma32(3 * m);
            t.sfu(2 * m);
            t.smem(2 * m);
            t.int_op(3 * m);
        });
        // Flush the block-local histogram with reductions.
        blk.for_each_thread(|t| {
            let b = t.tid() as usize;
            if b < NUM_BINS {
                let v = t.shared_get(&local, b);
                t.smem(1);
                if v > 0 {
                    t.red_add_u32(&k.bins, b, v);
                }
            }
        });
    }
}

/// Host reference histogram.
pub fn host_tpacf(points: &[[f32; 3]]) -> Vec<u32> {
    let mut bins = vec![0u32; NUM_BINS];
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let dot = points[i][0] * points[j][0]
                + points[i][1] * points[j][1]
                + points[i][2] * points[j][2];
            bins[bin_of(dot)] += 1;
        }
    }
    bins
}

/// The TPACF benchmark.
pub struct Tpacf;

impl Benchmark for Tpacf {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            key: "tpacf",
            name: "TPACF",
            suite: Suite::Parboil,
            kernels: 1,
            regular: true,
            description: "Two-point angular correlation of astronomical bodies",
        }
    }

    fn inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(
            "\"small\" benchmark input",
            1536,
            0,
            0,
            4_400.0,
        )]
    }

    fn sanitizer_allowlist(&self) -> &'static [&'static str] {
        // The port accumulates the per-block angular histogram in shared
        // memory with plain read-modify-writes (the model executes a
        // block's threads in order, so no update is lost); flagged so the
        // simplification stays visible.
        &["race-shared:tpacf_histogram"]
    }

    fn run(&self, dev: &mut Device, input: &InputSpec) -> RunOutput {
        let points = sky_points(input.n, input.seed);
        let xyz: Vec<f32> = points.iter().flat_map(|p| p.to_vec()).collect();
        let k = TpacfKernel {
            xyz: dev.alloc_from(&xyz),
            bins: dev.alloc::<u32>(NUM_BINS),
            n: input.n,
        };
        dev.launch_with(
            &k,
            (input.n as u32).div_ceil(BLOCK),
            BLOCK,
            LaunchOpts {
                work_multiplier: input.mult,
            },
        );
        let got = dev.read(&k.bins);
        let expect = host_tpacf(&points);
        assert_eq!(got, expect, "TPACF histogram mismatch");
        let total: u64 = got.iter().map(|&v| v as u64).sum();
        assert_eq!(total as usize, input.n * (input.n - 1) / 2);
        RunOutput {
            checksum: total as f64,
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
    fn tpacf_matches_host() {
        Tpacf.run(&mut device(), &InputSpec::new("t", 300, 0, 0, 1.0));
    }

    #[test]
    fn clustering_skews_the_histogram() {
        // Clustered points produce an excess of small-angle pairs compared
        // to a uniform distribution of the same size.
        let clustered = host_tpacf(&sky_points(400, 1));
        let small_angle: u64 = clustered[..NUM_BINS / 2].iter().map(|&v| v as u64).sum();
        assert!(small_angle > 0);
    }

    #[test]
    fn bins_are_in_range() {
        for dot in [-1.0f32, -0.5, 0.0, 0.5, 0.99, 1.0] {
            assert!(bin_of(dot) < NUM_BINS);
        }
    }
}
