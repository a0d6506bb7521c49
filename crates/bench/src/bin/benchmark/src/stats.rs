//! Summaries of repeated measurements and the seeded input generators.

use characterize::campaign::{sweep_grid, SweepPoint, SWEEP_CORE_MHZ, SWEEP_MEM_MHZ};

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the "exclusive" method of Python's
    /// `statistics.quantiles(values, n=4)`, the definition the spread of
    /// this benchmark is judged by. One sample is its own quartiles.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Summary {
                median,
                q1: median,
                q3: median,
                n,
            };
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Summary {
            median,
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }
}

/// Nearest-rank percentile of an unsorted latency sample, through the
/// service's one definition ([`sim_serve::metrics::nearest_rank_ms`]).
pub fn percentile_ms(latencies_ms: &[f64], q: f64) -> f64 {
    let mut v = latencies_ms.to_vec();
    v.sort_by(f64::total_cmp);
    sim_serve::metrics::nearest_rank_ms(&v, q).expect("percentile of no samples")
}

/// SplitMix64: a tiny, fully specified generator, so a seed means the same
/// inputs on every platform and in every later version of the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// `k` distinct indices of `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} distinct of {n}");
        let mut picked = Vec::with_capacity(k);
        while picked.len() < k {
            let i = self.below(n);
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked
    }
}

/// `count` clocks spread over `range`: the centres of equal-width strata,
/// each moved by a seeded draw within a tenth of its stratum's width. Every
/// seed gives distinct clocks, yet the same amount of simulated work, so
/// run-to-run differences stay differences in host speed.
fn stratified(rng: &mut Rng, count: usize, range: (f64, f64)) -> Vec<f64> {
    let width = (range.1 - range.0) / count as f64;
    (0..count)
        .map(|i| range.0 + width * (i as f64 + 0.5 + 0.1 * (rng.unit() - 0.5)))
        .collect()
}

/// Core clocks of the DVFS grid.
pub const GRID_CORE: usize = 32;
/// Memory clocks of the DVFS grid.
pub const GRID_MEM: usize = 3;

/// The seeded `GRID_CORE` × `GRID_MEM` DVFS grid, inside the valid
/// [`SweepPoint`] range.
pub fn dvfs_grid(seed: u64) -> Vec<SweepPoint> {
    let mut rng = Rng::new(seed ^ 0xD7F5_0000_0000_0001);
    let core = stratified(&mut rng, GRID_CORE, SWEEP_CORE_MHZ);
    let mem = stratified(&mut rng, GRID_MEM, SWEEP_MEM_MHZ);
    let grid = sweep_grid(&core, &mem);
    assert!(grid.iter().all(SweepPoint::is_valid), "grid inside range");
    grid
}

/// One warm-phase request: an index into the run pool, the sweep, or the
/// health check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    Run(usize),
    Sweep,
    Healthz,
}

/// The warm-phase request stream of one client: 85% runs drawn uniformly
/// from the run pool, 10% the sweep, 5% `/healthz`.
pub struct RequestStream(Rng);

impl RequestStream {
    pub fn new(seed: u64, client: u64) -> Self {
        RequestStream(Rng::new(
            seed ^ 0x5E2E_0000_0000_0000 ^ client.wrapping_mul(0x1000_0000_01B3),
        ))
    }
}

impl Iterator for RequestStream {
    type Item = Pick;

    fn next(&mut self) -> Option<Pick> {
        let u = self.0.unit();
        Some(if u < 0.85 {
            Pick::Run(self.0.below(crate::serve::RUN_POOL))
        } else if u < 0.95 {
            Pick::Sweep
        } else {
            Pick::Healthz
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn percentile_is_the_services_nearest_rank() {
        let mut rng = Rng::new(7);
        let sample: Vec<f64> = (0..1001).map(|_| rng.unit() * 10.0).collect();
        let mut sorted = sample.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                percentile_ms(&sample, q),
                sim_serve::metrics::nearest_rank_ms(&sorted, q).unwrap()
            );
        }
        // Rank ceil(q * n): the 50th of 100 values, the 99th of 100.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile_ms(&hundred, 0.5), 50.0);
        assert_eq!(percentile_ms(&hundred, 0.99), 99.0);
    }

    #[test]
    fn grids_are_deterministic_per_seed_and_differ_across_seeds() {
        let a = dvfs_grid(1);
        assert_eq!(a, dvfs_grid(1));
        assert_ne!(a, dvfs_grid(2));
        assert_eq!(a.len(), GRID_CORE * GRID_MEM);
        assert!(a.iter().all(SweepPoint::is_valid));
    }

    #[test]
    fn request_streams_are_deterministic_per_seed_and_differ_across_seeds() {
        let take =
            |seed, client| -> Vec<Pick> { RequestStream::new(seed, client).take(2000).collect() };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(2, 0));
        assert_ne!(take(1, 0), take(1, 1), "clients draw distinct streams");
        let s = take(3, 0);
        let runs = s.iter().filter(|p| matches!(p, Pick::Run(_))).count();
        let health = s.iter().filter(|p| **p == Pick::Healthz).count();
        assert!((1600..1800).contains(&runs), "runs {runs}");
        assert!((50..150).contains(&health), "healthz {health}");
    }

    #[test]
    fn distinct_draws_are_distinct_and_seeded() {
        let d = Rng::new(5).distinct(10, 247);
        assert_eq!(d, Rng::new(5).distinct(10, 247));
        let mut sorted = d.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }
}
