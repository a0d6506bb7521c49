//! Generators for the paper's figures.
//!
//! * Figure 1 — a sample power profile (sensor samples + threshold).
//! * Figures 2/3/4 — per-suite box statistics of the runtime/energy/power
//!   ratios between two configurations (614/default, 324/614, ECC/default).
//! * Figure 5 — power ratios across program inputs.
//! * Figure 6 — absolute power ranges per suite and configuration.
//!
//! All measuring generators read from the shared [`Campaign`]; each has a
//! `*_runs()` planner so `repro` can prefetch the union of several
//! artifacts in one deduplicated pass. Figure 1 is the exception: it
//! replays one fixed-seed run for its sample trace and is not part of the
//! measurement matrix.

use crate::campaign::{rep_indices, Campaign, RunRequest};
use crate::configs::GpuConfigKind;
use gpower::{box_stats, BoxStats, K20Power, PowerSensor, Sample};
use kepler_sim::Device;
use rayon::prelude::*;
use serde::Serialize;
use workloads::bench::Suite;
use workloads::registry;

/// One program's ratio data point (alt config relative to base config).
#[derive(Debug, Clone, Serialize)]
pub struct ProgramRatio {
    pub key: String,
    pub suite: Suite,
    pub input: String,
    pub time: f64,
    pub energy: f64,
    pub power: f64,
}

/// One suite's box-and-whisker glyphs.
#[derive(Debug, Clone, Serialize)]
pub struct SuiteBox {
    pub suite: Suite,
    pub time: BoxStats,
    pub energy: BoxStats,
    pub power: BoxStats,
}

/// Data behind one of the paper's ratio figures (2, 3 or 4).
#[derive(Debug, Clone, Serialize)]
pub struct RatioFigure {
    pub base: GpuConfigKind,
    pub alt: GpuConfigKind,
    pub programs: Vec<ProgramRatio>,
    pub suites: Vec<SuiteBox>,
    /// Programs excluded because a configuration produced too few power
    /// samples (the paper's 324-MHz exclusions).
    pub excluded: Vec<String>,
}

/// The runs a ratio figure needs: every program's primary input under both
/// configurations.
pub fn ratio_figure_runs(base: GpuConfigKind, alt: GpuConfigKind, reps: u64) -> Vec<RunRequest> {
    let mut runs = Vec::new();
    for b in registry::all() {
        let input = b.inputs()[0].clone();
        for config in [base, alt] {
            for rep in rep_indices(reps) {
                runs.push(RunRequest {
                    key: b.spec().key,
                    input: input.clone(),
                    config,
                    rep,
                });
            }
        }
    }
    runs
}

/// Compute a ratio figure: every Table-1 program (primary input), `reps`
/// repetitions per configuration with the median reported.
pub fn ratio_figure(
    c: &Campaign,
    base: GpuConfigKind,
    alt: GpuConfigKind,
    reps: u64,
) -> RatioFigure {
    let keys: Vec<&'static str> = registry::all().iter().map(|b| b.spec().key).collect();
    let results: Vec<Result<ProgramRatio, String>> = keys
        .par_iter()
        .map(|key| {
            let b = registry::by_key(key).unwrap();
            let input = &b.inputs()[0];
            let base_r = c
                .reading(b.as_ref(), input, base, reps)
                .map_err(|e| format!("{key}: {e}"))?;
            let alt_r = c
                .reading(b.as_ref(), input, alt, reps)
                .map_err(|e| format!("{key}: {e}"))?;
            Ok(ProgramRatio {
                key: key.to_string(),
                suite: b.spec().suite,
                input: input.name.to_string(),
                time: alt_r.active_runtime_s / base_r.active_runtime_s,
                energy: alt_r.energy_j / base_r.energy_j,
                power: alt_r.avg_power_w / base_r.avg_power_w,
            })
        })
        .collect();
    let mut programs = Vec::new();
    let mut excluded = Vec::new();
    for r in results {
        match r {
            Ok(p) => programs.push(p),
            Err(e) => excluded.push(e),
        }
    }
    let suites = Suite::ALL
        .iter()
        .filter_map(|&suite| {
            let t: Vec<f64> = programs
                .iter()
                .filter(|p| p.suite == suite)
                .map(|p| p.time)
                .collect();
            if t.is_empty() {
                return None;
            }
            let e: Vec<f64> = programs
                .iter()
                .filter(|p| p.suite == suite)
                .map(|p| p.energy)
                .collect();
            let w: Vec<f64> = programs
                .iter()
                .filter(|p| p.suite == suite)
                .map(|p| p.power)
                .collect();
            Some(SuiteBox {
                suite,
                time: box_stats(&t),
                energy: box_stats(&e),
                power: box_stats(&w),
            })
        })
        .collect();
    RatioFigure {
        base,
        alt,
        programs,
        suites,
        excluded,
    }
}

/// Figure 1 data: the sensor samples of one run plus the tool's threshold.
#[derive(Debug, Clone, Serialize)]
pub struct PowerProfile {
    pub key: String,
    pub samples: Vec<Sample>,
    pub threshold_w: f64,
    pub idle_w: f64,
    pub active_runtime_s: f64,
}

/// Record the power profile of one program run (Figure 1).
pub fn power_profile(key: &str) -> PowerProfile {
    let b = registry::by_key(key).expect("unknown program");
    let input = &b.inputs()[0];
    let mut cfg = GpuConfigKind::Default.device_config();
    cfg.jitter_seed = 42;
    let mut dev = Device::new(cfg);
    b.run(&mut dev, input);
    let (trace, _) = dev.finish();
    let samples = PowerSensor::default().sample(&trace, 42);
    let reading = K20Power::default()
        .analyze(&samples)
        .expect("profile program must be measurable");
    PowerProfile {
        key: key.to_string(),
        samples,
        threshold_w: reading.threshold_w,
        idle_w: reading.idle_w,
        active_runtime_s: reading.active_runtime_s,
    }
}

/// Figure 5 data: power when switching inputs, relative to the first input.
#[derive(Debug, Clone, Serialize)]
pub struct InputPowerRow {
    pub key: String,
    pub suite: Suite,
    pub input: String,
    /// Power relative to the program's first (smallest) input.
    pub power_ratio: f64,
    pub power_w: f64,
}

/// The runs Figure 5 needs: every input of every multi-input program at
/// the default configuration.
pub fn input_power_figure_runs(reps: u64) -> Vec<RunRequest> {
    let mut runs = Vec::new();
    for b in registry::all() {
        if b.inputs().len() <= 1 {
            continue;
        }
        for input in b.inputs() {
            for rep in rep_indices(reps) {
                runs.push(RunRequest {
                    key: b.spec().key,
                    input: input.clone(),
                    config: GpuConfigKind::Default,
                    rep,
                });
            }
        }
    }
    runs
}

/// Compute Figure 5: programs with multiple inputs, default configuration.
pub fn input_power_figure(c: &Campaign, reps: u64) -> Vec<InputPowerRow> {
    let multi: Vec<&'static str> = registry::all()
        .iter()
        .filter(|b| b.inputs().len() > 1)
        .map(|b| b.spec().key)
        .collect();
    multi
        .par_iter()
        .flat_map(|key| {
            let b = registry::by_key(key).unwrap();
            let inputs = b.inputs();
            let powers: Vec<Option<f64>> = inputs
                .iter()
                .map(|input| {
                    c.reading(b.as_ref(), input, GpuConfigKind::Default, reps)
                        .ok()
                        .map(|r| r.avg_power_w)
                })
                .collect();
            let base = powers[0];
            inputs
                .iter()
                .zip(powers)
                .skip(1)
                .filter_map(|(input, p)| {
                    let (base, p) = (base?, p?);
                    Some(InputPowerRow {
                        key: key.to_string(),
                        suite: b.spec().suite,
                        input: input.name.to_string(),
                        power_ratio: p / base,
                        power_w: p,
                    })
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Figure 6 data: absolute average-power box stats per suite per config.
#[derive(Debug, Clone, Serialize)]
pub struct PowerRangeCell {
    pub suite: Suite,
    pub config: GpuConfigKind,
    pub power: BoxStats,
    pub n_programs: usize,
}

/// The runs Figure 6 needs: every program's primary input under all four
/// configurations.
pub fn power_range_figure_runs(reps: u64) -> Vec<RunRequest> {
    let mut runs = Vec::new();
    for b in registry::all() {
        let input = b.inputs()[0].clone();
        for config in GpuConfigKind::ALL {
            for rep in rep_indices(reps) {
                runs.push(RunRequest {
                    key: b.spec().key,
                    input: input.clone(),
                    config,
                    rep,
                });
            }
        }
    }
    runs
}

/// Compute Figure 6 over all programs and all four configurations.
pub fn power_range_figure(c: &Campaign, reps: u64) -> Vec<PowerRangeCell> {
    let keys: Vec<&'static str> = registry::all().iter().map(|b| b.spec().key).collect();
    let all: Vec<(Suite, GpuConfigKind, f64)> = keys
        .par_iter()
        .flat_map(|key| {
            GpuConfigKind::ALL.into_par_iter().filter_map(move |kind| {
                let b = registry::by_key(key).unwrap();
                let input = &b.inputs()[0];
                c.reading(b.as_ref(), input, kind, reps)
                    .ok()
                    .map(|r| (b.spec().suite, kind, r.avg_power_w))
            })
        })
        .collect();
    let mut out = Vec::new();
    for suite in Suite::ALL {
        for config in GpuConfigKind::ALL {
            let powers: Vec<f64> = all
                .iter()
                .filter(|(s, c, _)| *s == suite && *c == config)
                .map(|(_, _, p)| *p)
                .collect();
            if !powers.is_empty() {
                out.push(PowerRangeCell {
                    suite,
                    config,
                    power: box_stats(&powers),
                    n_programs: powers.len(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::measure;

    #[test]
    fn power_profile_has_idle_and_active_phases() {
        let _serial = crate::serial();
        let p = power_profile("sgemm");
        assert!(p.samples.len() > 30);
        assert!(p.threshold_w > p.idle_w);
        assert!(p.active_runtime_s > 1.0);
        let peak = p.samples.iter().map(|s| s.watts).fold(0.0, f64::max);
        assert!(peak > p.threshold_w);
    }

    #[test]
    fn ratio_figure_smoke_single_suite() {
        let _serial = crate::serial();
        // Tiny smoke test: one pass (reps=1) would still take a while over
        // all programs, so just exercise the plumbing through measure() on
        // a couple of programs via the public API instead.
        let b = registry::by_key("sgemm").unwrap();
        let input = &b.inputs()[0];
        let base = measure(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        let alt = measure(b.as_ref(), input, GpuConfigKind::C614, 0).unwrap();
        let ratio = alt.reading.avg_power_w / base.reading.avg_power_w;
        assert!(ratio < 1.0, "614 must lower power, ratio {ratio}");
    }

    #[test]
    fn ratio_figure_planner_covers_both_configs() {
        let runs = ratio_figure_runs(GpuConfigKind::Default, GpuConfigKind::C614, 1);
        assert_eq!(runs.len(), 34 * 2);
        assert!(runs.iter().any(|r| r.config == GpuConfigKind::C614));
    }
}
