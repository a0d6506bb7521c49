//! CUTCP — Parboil distance-cutoff Coulombic potential: short-range
//! electrostatic potential of point charges accumulated onto a 3-D lattice,
//! using spatial binning so each grid point only visits nearby atoms.
//! Compute-bound with SFU-heavy inner loops and excellent locality.

use crate::bench::{BenchSpec, Benchmark, InputSpec, RunOutput, Suite};
use crate::inputs::points::lattice_atoms;
use crate::inputs::util::f32_vec;
use kepler_sim::{
    BlockCtx, DevBuffer, Device, Kernel, KernelFootprint, LaunchOpts, ParamKey, Span,
};

const BLOCK: u32 = 128;

struct CutcpKernel {
    atom_xyz: DevBuffer<f32>,
    atom_q: DevBuffer<f32>,
    bin_start: DevBuffer<u32>,
    bin_atoms: DevBuffer<u32>,
    grid_pot: DevBuffer<f32>,
    grid_dim: usize,
    bins_per_side: usize,
    box_len: f32,
    cutoff2: f32,
}

impl Kernel for CutcpKernel {
    fn parallel_safe(&self) -> bool {
        true
    }
    fn params(&self) -> Vec<u64> {
        ParamKey::new()
            .buf(&self.atom_xyz)
            .buf(&self.atom_q)
            .buf(&self.bin_start)
            .buf(&self.bin_atoms)
            .buf(&self.grid_pot)
            .u(self.grid_dim as u64)
            .u(self.bins_per_side as u64)
            .f(self.box_len)
            .f(self.cutoff2)
            .done()
    }

    fn name(&self) -> &'static str {
        "cutcp_lattice"
    }
    fn footprint(&self, grid: u32, block_threads: u32) -> Option<KernelFootprint> {
        let k = self;
        // Each thread scans the 3x3x3 bin neighborhood: roughly
        // 27 / bins^3 of all atoms, ~6 ops per candidate.
        let bins = (k.bins_per_side * k.bins_per_side * k.bins_per_side) as f64;
        let per_thread = 27.0 / bins * k.bin_atoms.len() as f64 * 6.0;
        Some(KernelFootprint::per_block(
            grid,
            per_thread * block_threads as f64,
            |b, fp| {
                // Bin membership is data-dependent; the atom-side buffers are
                // read-only, so whole-buffer reads are sound.
                fp.read_all(&k.bin_start);
                fp.read_all(&k.bin_atoms);
                fp.read_all(&k.atom_xyz);
                fp.read_all(&k.atom_q);
                fp.write(
                    &k.grid_pot,
                    Span::range(b as u64 * block_threads as u64, block_threads as u64),
                );
            },
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let k = self;
        let gd = k.grid_dim;
        let spacing = k.box_len / gd as f32;
        let bps = k.bins_per_side;
        let bin_w = k.box_len / bps as f32;
        blk.for_each_thread(|t| {
            let gid = t.gtid() as usize;
            if gid >= gd * gd * gd {
                return;
            }
            let gx = (gid % gd) as f32 * spacing;
            let gy = ((gid / gd) % gd) as f32 * spacing;
            let gz = (gid / (gd * gd)) as f32 * spacing;
            let mut pot = 0.0f32;
            // Visit the 3x3x3 neighborhood of bins.
            let bx = (gx / bin_w) as i32;
            let by = (gy / bin_w) as i32;
            let bz = (gz / bin_w) as i32;
            t.int_op(8);
            for dz in -1..=1i32 {
                for dy in -1..=1i32 {
                    for dx in -1..=1i32 {
                        let (nx, ny, nz) = (bx + dx, by + dy, bz + dz);
                        if nx < 0
                            || ny < 0
                            || nz < 0
                            || nx >= bps as i32
                            || ny >= bps as i32
                            || nz >= bps as i32
                        {
                            continue;
                        }
                        let bin = (nz as usize * bps + ny as usize) * bps + nx as usize;
                        let lo = t.ld(&k.bin_start, bin) as usize;
                        let hi = t.ld(&k.bin_start, bin + 1) as usize;
                        for s in lo..hi {
                            let a = t.ld(&k.bin_atoms, s) as usize;
                            let ax = t.ld(&k.atom_xyz, 3 * a);
                            let ay = t.ld(&k.atom_xyz, 3 * a + 1);
                            let az = t.ld(&k.atom_xyz, 3 * a + 2);
                            let d2 = (ax - gx) * (ax - gx)
                                + (ay - gy) * (ay - gy)
                                + (az - gz) * (az - gz);
                            t.fma32(4);
                            if d2 < k.cutoff2 {
                                let q = t.ld(&k.atom_q, a);
                                // q/r * smooth cutoff term.
                                let inv_r = 1.0 / d2.max(1e-4).sqrt();
                                let s2 = 1.0 - d2 / k.cutoff2;
                                pot += q * inv_r * s2 * s2;
                                t.sfu(1);
                                t.fma32(4);
                            }
                        }
                    }
                }
            }
            t.st(&k.grid_pot, gid, pot);
        });
    }
}

/// Host reference potential at grid point `gid` (direct cutoff sum over
/// all atoms).
pub fn host_cutcp_point(
    atoms: &[[f32; 3]],
    q: &[f32],
    grid_dim: usize,
    box_len: f32,
    cutoff2: f32,
    gid: usize,
) -> f32 {
    let spacing = box_len / grid_dim as f32;
    let gx = (gid % grid_dim) as f32 * spacing;
    let gy = ((gid / grid_dim) % grid_dim) as f32 * spacing;
    let gz = (gid / (grid_dim * grid_dim)) as f32 * spacing;
    let mut pot = 0.0f32;
    for (a, p) in atoms.iter().enumerate() {
        let d2 = (p[0] - gx).powi(2) + (p[1] - gy).powi(2) + (p[2] - gz).powi(2);
        if d2 < cutoff2 {
            let inv_r = 1.0 / d2.max(1e-4).sqrt();
            let s2 = 1.0 - d2 / cutoff2;
            pot += q[a] * inv_r * s2 * s2;
        }
    }
    pot
}

/// The CUTCP benchmark.
pub struct Cutcp;

impl Benchmark for Cutcp {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            key: "cutcp",
            name: "CUTCP",
            suite: Suite::Parboil,
            kernels: 1,
            regular: true,
            description: "Distance-cutoff Coulombic potential on a 3-D lattice",
        }
    }

    fn inputs(&self) -> Vec<InputSpec> {
        // Paper: watbox.s1100.pqr (a solvated-protein water box);
        // n = lattice dim, m = atom count.
        vec![InputSpec::new("watbox.sl100.pqr", 24, 1200, 0, 1_700.0)]
    }

    fn run(&self, dev: &mut Device, input: &InputSpec) -> RunOutput {
        let box_len = 16.0f32;
        let cutoff = box_len / 4.0;
        let atoms = lattice_atoms(input.m, box_len, input.seed);
        let charges = f32_vec(input.m, -1.0, 1.0, input.seed + 1);
        // Bin atoms so each bin is >= cutoff wide (3x3x3 suffices).
        let bps = (box_len / cutoff).floor() as usize;
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); bps * bps * bps];
        let bin_w = box_len / bps as f32;
        for (i, p) in atoms.iter().enumerate() {
            let bx = ((p[0] / bin_w) as usize).min(bps - 1);
            let by = ((p[1] / bin_w) as usize).min(bps - 1);
            let bz = ((p[2] / bin_w) as usize).min(bps - 1);
            bins[(bz * bps + by) * bps + bx].push(i as u32);
        }
        let mut bin_start = vec![0u32; bins.len() + 1];
        for (i, b) in bins.iter().enumerate() {
            bin_start[i + 1] = bin_start[i] + b.len() as u32;
        }
        let flat: Vec<u32> = bins.concat();
        let xyz: Vec<f32> = atoms.iter().flat_map(|p| p.to_vec()).collect();
        let k = CutcpKernel {
            atom_xyz: dev.alloc_from(&xyz),
            atom_q: dev.alloc_from(&charges),
            bin_start: dev.alloc_from(&bin_start),
            bin_atoms: dev.alloc_from(&flat),
            grid_pot: dev.alloc::<f32>(input.n * input.n * input.n),
            grid_dim: input.n,
            bins_per_side: bps,
            box_len,
            cutoff2: cutoff * cutoff,
        };
        let total = (input.n * input.n * input.n) as u32;
        dev.launch_with(
            &k,
            total.div_ceil(BLOCK),
            BLOCK,
            LaunchOpts {
                work_multiplier: input.mult,
            },
        );
        let got = dev.read(&k.grid_pot);
        // Spot-check against the host reference.
        for i in (0..got.len()).step_by(53) {
            let expect = host_cutcp_point(&atoms, &charges, input.n, box_len, cutoff * cutoff, i);
            assert!(
                (got[i] - expect).abs() < 1e-3 * expect.abs().max(1.0),
                "pot[{i}]: {} vs {expect}",
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
    fn cutcp_matches_direct_sum() {
        Cutcp.run(&mut device(), &InputSpec::new("t", 10, 200, 0, 1.0));
    }

    #[test]
    fn cutoff_limits_interactions() {
        // Each grid point interacts with far fewer atoms than all of them.
        let mut dev = device();
        Cutcp.run(&mut dev, &InputSpec::new("t", 10, 400, 0, 1.0));
        let c = dev.total_counters();
        let per_point = c.lane_ops[2] / (10.0f64 * 10.0 * 10.0);
        // 4 FMA per distance check; all-atoms would be 400*4+.
        assert!(per_point < 400.0 * 4.0 * 0.8, "per point {per_point}");
    }
}
