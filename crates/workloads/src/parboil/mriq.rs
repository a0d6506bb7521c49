//! MRIQ — Parboil magnetic-resonance-image reconstruction, Q-matrix
//! computation: for every voxel, a sum of cos/sin phase terms over the
//! k-space trajectory. Almost pure FP32 + SFU work over tiny inputs — the
//! classic compute-bound code.

use crate::bench::{BenchSpec, Benchmark, InputSpec, RunOutput, Suite};
use crate::inputs::util::f32_vec;
use kepler_sim::{
    BlockCtx, DevBuffer, Device, Kernel, KernelFootprint, LaunchOpts, ParamKey, Span,
};

const BLOCK: u32 = 256;
const TWO_PI: f32 = 2.0 * std::f32::consts::PI;

struct QKernel {
    kx: DevBuffer<f32>,
    ky: DevBuffer<f32>,
    kz: DevBuffer<f32>,
    phi_mag: DevBuffer<f32>,
    x: DevBuffer<f32>,
    y: DevBuffer<f32>,
    z: DevBuffer<f32>,
    qr: DevBuffer<f32>,
    qi: DevBuffer<f32>,
    num_k: usize,
    num_x: usize,
}

impl Kernel for QKernel {
    fn parallel_safe(&self) -> bool {
        true
    }
    fn params(&self) -> Vec<u64> {
        ParamKey::new()
            .buf(&self.kx)
            .buf(&self.ky)
            .buf(&self.kz)
            .buf(&self.phi_mag)
            .buf(&self.x)
            .buf(&self.y)
            .buf(&self.z)
            .buf(&self.qr)
            .buf(&self.qi)
            .u(self.num_k as u64)
            .u(self.num_x as u64)
            .done()
    }

    fn name(&self) -> &'static str {
        "mriq_computeQ"
    }
    fn footprint(&self, grid: u32, block_threads: u32) -> Option<KernelFootprint> {
        let k = self;
        // 6 fma + 2 sfu per k-space sample per voxel thread.
        let ops = block_threads as f64 * 8.0 * k.num_k as f64;
        Some(KernelFootprint::per_block(grid, ops, |b, fp| {
            let own = Span::range(b as u64 * block_threads as u64, block_threads as u64);
            fp.read(&k.x, own);
            fp.read(&k.y, own);
            fp.read(&k.z, own);
            // Every block walks the whole k-space trajectory.
            fp.read_all(&k.kx);
            fp.read_all(&k.ky);
            fp.read_all(&k.kz);
            fp.read_all(&k.phi_mag);
            fp.write(&k.qr, own);
            fp.write(&k.qi, own);
        }))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let k = self;
        let dim = blk.block_dim() as usize;
        // The real code stages k-space data through constant memory; we
        // tile it through shared memory, one tile per barrier phase.
        let tk = blk.shared_alloc::<f32>(4 * dim);
        let mut pos = vec![[0.0f32; 3]; dim];
        let mut acc = vec![[0.0f32; 2]; dim];
        blk.for_each_thread(|t| {
            let i = t.gtid() as usize;
            if i < k.num_x {
                pos[t.tid() as usize] = [t.ld(&k.x, i), t.ld(&k.y, i), t.ld(&k.z, i)];
            }
        });
        let tiles = k.num_k.div_ceil(dim);
        for tile in 0..tiles {
            let base = tile * dim;
            let cnt = dim.min(k.num_k - base);
            blk.for_each_thread(|t| {
                let j = base + t.tid() as usize;
                if j < k.num_k {
                    let ti = t.tid() as usize;
                    let v = (
                        t.ld(&k.kx, j),
                        t.ld(&k.ky, j),
                        t.ld(&k.kz, j),
                        t.ld(&k.phi_mag, j),
                    );
                    t.sst(&tk, 4 * ti, v.0);
                    t.sst(&tk, 4 * ti + 1, v.1);
                    t.sst(&tk, 4 * ti + 2, v.2);
                    t.sst(&tk, 4 * ti + 3, v.3);
                }
            });
            blk.for_each_thread(|t| {
                let i = t.gtid() as usize;
                if i >= k.num_x {
                    return;
                }
                let ti = t.tid() as usize;
                let p = pos[ti];
                let a = &mut acc[ti];
                for s in 0..cnt {
                    let phase = TWO_PI
                        * (t.shared_get(&tk, 4 * s) * p[0]
                            + t.shared_get(&tk, 4 * s + 1) * p[1]
                            + t.shared_get(&tk, 4 * s + 2) * p[2]);
                    let mag = t.shared_get(&tk, 4 * s + 3);
                    a[0] += mag * phase.cos();
                    a[1] += mag * phase.sin();
                }
                t.fma32(6 * cnt as u32);
                t.sfu(2 * cnt as u32);
                t.smem(4 * cnt as u32);
            });
        }
        blk.for_each_thread(|t| {
            let i = t.gtid() as usize;
            if i < k.num_x {
                let a = acc[t.tid() as usize];
                t.st(&k.qr, i, a[0]);
                t.st(&k.qi, i, a[1]);
            }
        });
    }
}

/// Host reference `(Qr, Qi)` of voxel `i`.
#[allow(clippy::too_many_arguments)]
pub fn host_q_voxel(
    kx: &[f32],
    ky: &[f32],
    kz: &[f32],
    mag: &[f32],
    x: &[f32],
    y: &[f32],
    z: &[f32],
    i: usize,
) -> (f32, f32) {
    let (mut qr, mut qi) = (0.0f32, 0.0f32);
    for s in 0..kx.len() {
        let phase = TWO_PI * (kx[s] * x[i] + ky[s] * y[i] + kz[s] * z[i]);
        qr += mag[s] * phase.cos();
        qi += mag[s] * phase.sin();
    }
    (qr, qi)
}

/// The MRIQ benchmark.
pub struct Mriq;

impl Benchmark for Mriq {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            key: "mriq",
            name: "MRIQ",
            suite: Suite::Parboil,
            kernels: 2,
            regular: true,
            description: "MRI reconstruction Q-matrix (non-Cartesian k-space)",
        }
    }

    fn inputs(&self) -> Vec<InputSpec> {
        // Paper: 64x64x64 voxel grid; n = voxels (sim scale), m = k-samples.
        vec![InputSpec::new("64x64x64 matrix", 8192, 512, 0, 188_000.0)]
    }

    fn run(&self, dev: &mut Device, input: &InputSpec) -> RunOutput {
        let (nx, nk) = (input.n, input.m);
        let kx = f32_vec(nk, -0.5, 0.5, input.seed);
        let ky = f32_vec(nk, -0.5, 0.5, input.seed + 1);
        let kz = f32_vec(nk, -0.5, 0.5, input.seed + 2);
        let mag = f32_vec(nk, 0.0, 1.0, input.seed + 3);
        let x = f32_vec(nx, -0.5, 0.5, input.seed + 4);
        let y = f32_vec(nx, -0.5, 0.5, input.seed + 5);
        let z = f32_vec(nx, -0.5, 0.5, input.seed + 6);
        let k = QKernel {
            kx: dev.alloc_from(&kx),
            ky: dev.alloc_from(&ky),
            kz: dev.alloc_from(&kz),
            phi_mag: dev.alloc_from(&mag),
            x: dev.alloc_from(&x),
            y: dev.alloc_from(&y),
            z: dev.alloc_from(&z),
            qr: dev.alloc::<f32>(nx),
            qi: dev.alloc::<f32>(nx),
            num_k: nk,
            num_x: nx,
        };
        dev.launch_with(
            &k,
            (nx as u32).div_ceil(BLOCK),
            BLOCK,
            LaunchOpts {
                work_multiplier: input.mult,
            },
        );
        let got_r = dev.read(&k.qr);
        let got_i = dev.read(&k.qi);
        // Spot-check against the host reference.
        for i in (0..nx).step_by(97) {
            let (er, ei) = host_q_voxel(&kx, &ky, &kz, &mag, &x, &y, &z, i);
            assert!((got_r[i] - er).abs() < 1e-2 * er.abs().max(1.0));
            assert!((got_i[i] - ei).abs() < 1e-2 * ei.abs().max(1.0));
        }
        RunOutput {
            checksum: got_r.iter().map(|&v| v.abs() as f64).sum(),
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
    fn mriq_matches_host() {
        Mriq.run(&mut device(), &InputSpec::new("t", 512, 64, 0, 1.0));
    }

    #[test]
    fn mriq_is_sfu_heavy_compute_bound() {
        let mut dev = device();
        Mriq.run(&mut dev, &InputSpec::new("t", 512, 64, 0, 1.0));
        let c = dev.total_counters();
        assert!(c.compute_intensity() > 20.0, "{}", c.compute_intensity());
        assert!(c.lane_ops[5] > 0.0, "no SFU ops recorded");
    }
}
