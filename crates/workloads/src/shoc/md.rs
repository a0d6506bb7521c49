//! MD — SHOC molecular dynamics: the Lennard-Jones force kernel over
//! neighbor lists for atoms scattered in a 3-D box. Gather-heavy
//! (uncoalesced neighbor loads) with an FP-dense inner loop.

use crate::bench::{BenchSpec, Benchmark, InputSpec, RunOutput, Suite};
use crate::inputs::points::lattice_atoms;
use kepler_sim::{
    BlockCtx, DevBuffer, Device, Kernel, KernelFootprint, LaunchOpts, ParamKey, Span,
};

const BLOCK: u32 = 128;
const EPS: f32 = 1.0;
const SIGMA: f32 = 1.0;

struct LjKernel {
    xyz: DevBuffer<f32>,
    neigh: DevBuffer<u32>,
    force: DevBuffer<f32>,
    n: usize,
    max_neigh: usize,
}

impl Kernel for LjKernel {
    fn parallel_safe(&self) -> bool {
        true
    }
    fn params(&self) -> Vec<u64> {
        ParamKey::new()
            .buf(&self.xyz)
            .buf(&self.neigh)
            .buf(&self.force)
            .u(self.n as u64)
            .u(self.max_neigh as u64)
            .done()
    }
    fn name(&self) -> &'static str {
        "md_lj_force"
    }
    fn footprint(&self, grid: u32, block_threads: u32) -> Option<KernelFootprint> {
        let k = self;
        let dim = block_threads as u64;
        let slots = k.max_neigh as u64;
        // At most 26 ops per neighbor: 10 fma, 4 mul and 2 sfu.
        let ops = 26.0 * (slots * dim) as f64;
        Some(KernelFootprint::per_block(grid, ops, |b, fp| {
            let first = b as u64 * dim;
            // Neighbors are scattered over the whole box.
            fp.read_all(&k.xyz);
            fp.read(&k.neigh, Span::range(first * slots, dim * slots));
            fp.write(&k.force, Span::range(3 * first, 3 * dim));
        }))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let k = self;
        blk.for_each_thread(|t| {
            let i = t.gtid() as usize;
            if i >= k.n {
                return;
            }
            let (xi, yi, zi) = (
                t.ld(&k.xyz, 3 * i),
                t.ld(&k.xyz, 3 * i + 1),
                t.ld(&k.xyz, 3 * i + 2),
            );
            let (mut fx, mut fy, mut fz) = (0.0f32, 0.0f32, 0.0f32);
            for s in 0..k.max_neigh {
                let j = t.ld(&k.neigh, i * k.max_neigh + s) as usize;
                if j == u32::MAX as usize {
                    break;
                }
                let dx = xi - t.ld(&k.xyz, 3 * j);
                let dy = yi - t.ld(&k.xyz, 3 * j + 1);
                let dz = zi - t.ld(&k.xyz, 3 * j + 2);
                let r2 = dx * dx + dy * dy + dz * dz;
                let inv_r2 = 1.0 / r2.max(1e-6);
                let s6 = (SIGMA * SIGMA * inv_r2).powi(3);
                let f = 24.0 * EPS * inv_r2 * s6 * (2.0 * s6 - 1.0);
                fx += f * dx;
                fy += f * dy;
                fz += f * dz;
                t.fma32(10);
                t.fp32_mul(4);
                t.sfu(2);
            }
            t.st(&k.force, 3 * i, fx);
            t.st(&k.force, 3 * i + 1, fy);
            t.st(&k.force, 3 * i + 2, fz);
        });
    }
}

/// Host reference LJ force on atom `i` from the same neighbor lists.
pub fn host_lj_atom(xyz: &[[f32; 3]], neigh: &[u32], max_neigh: usize, i: usize) -> [f32; 3] {
    let mut force = [0.0f32; 3];
    for s in 0..max_neigh {
        let j = neigh[i * max_neigh + s];
        if j == u32::MAX {
            break;
        }
        let j = j as usize;
        let dx = xyz[i][0] - xyz[j][0];
        let dy = xyz[i][1] - xyz[j][1];
        let dz = xyz[i][2] - xyz[j][2];
        let r2 = dx * dx + dy * dy + dz * dz;
        let inv_r2 = 1.0 / r2.max(1e-6);
        let s6 = (SIGMA * SIGMA * inv_r2).powi(3);
        let f = 24.0 * EPS * inv_r2 * s6 * (2.0 * s6 - 1.0);
        force[0] += f * dx;
        force[1] += f * dy;
        force[2] += f * dz;
    }
    force
}

/// Build neighbor lists within `cutoff` (host-side, as SHOC does).
pub fn neighbor_lists(xyz: &[[f32; 3]], cutoff: f32, max_neigh: usize) -> Vec<u32> {
    let n = xyz.len();
    let mut out = vec![u32::MAX; n * max_neigh];
    for i in 0..n {
        let mut cnt = 0;
        for j in 0..n {
            if i == j || cnt >= max_neigh {
                continue;
            }
            let d2 = (xyz[i][0] - xyz[j][0]).powi(2)
                + (xyz[i][1] - xyz[j][1]).powi(2)
                + (xyz[i][2] - xyz[j][2]).powi(2);
            if d2 < cutoff * cutoff {
                out[i * max_neigh + cnt] = j as u32;
                cnt += 1;
            }
        }
    }
    out
}

/// The MD benchmark.
pub struct MolecularDynamics;

impl Benchmark for MolecularDynamics {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            key: "md",
            name: "MD",
            suite: Suite::Shoc,
            kernels: 1,
            regular: false,
            description: "Lennard-Jones n-body force kernel over neighbor lists",
        }
    }

    fn inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(
            "default benchmark input",
            4096,
            24,
            0,
            172_000.0,
        )]
    }

    fn run(&self, dev: &mut Device, input: &InputSpec) -> RunOutput {
        let box_len = (input.n as f32).cbrt() * 1.2;
        let atoms = lattice_atoms(input.n, box_len, input.seed);
        let neigh = neighbor_lists(&atoms, 1.8, input.m);
        let flat: Vec<f32> = atoms.iter().flat_map(|p| p.to_vec()).collect();
        let k = LjKernel {
            xyz: dev.alloc_from(&flat),
            neigh: dev.alloc_from(&neigh),
            force: dev.alloc::<f32>(3 * input.n),
            n: input.n,
            max_neigh: input.m,
        };
        dev.launch_with(
            &k,
            (input.n as u32).div_ceil(BLOCK),
            BLOCK,
            LaunchOpts {
                work_multiplier: input.mult,
            },
        );
        let got = dev.read(&k.force);
        // Spot-check force components against the host reference.
        for i in (0..3 * input.n).step_by(131) {
            let expect = host_lj_atom(&atoms, &neigh, input.m, i / 3)[i % 3];
            assert!(
                (got[i] - expect).abs() < 1e-3 * expect.abs().max(1.0),
                "force[{i}]: {} vs {expect}",
                got[i]
            );
        }
        RunOutput {
            checksum: got.iter().map(|&v| v.abs() as f64).sum(),
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
    fn md_matches_host() {
        MolecularDynamics.run(&mut device(), &InputSpec::new("t", 512, 16, 0, 1.0));
    }

    #[test]
    fn lj_repels_when_close() {
        // Two atoms much closer than sigma: strong repulsion pushes them
        // apart (force on atom 0 points away from atom 1).
        let xyz = vec![[0.0f32, 0.0, 0.0], [0.5, 0.0, 0.0]];
        let neigh = neighbor_lists(&xyz, 2.0, 4);
        let f = host_lj_atom(&xyz, &neigh, 4, 0);
        assert!(f[0] < 0.0, "fx {}", f[0]);
    }

    #[test]
    fn neighbor_gathers_are_uncoalesced() {
        let mut dev = device();
        MolecularDynamics.run(&mut dev, &InputSpec::new("t", 512, 16, 0, 1.0));
        let c = dev.total_counters();
        let unc = 1.0 - c.ideal_transactions / c.transactions;
        assert!(unc > 0.2, "uncoalesced {unc}");
    }
}
