//! Running one program under one configuration and measuring it exactly as
//! the paper does: emulated sensor samples -> K20Power analysis -> median
//! of three repetitions.

use crate::configs::GpuConfigKind;
use crate::tracedb::StoredTrace;
use gpower::{
    sampled_energy, study_policies, variability_pct, K20Power, PowerError, PowerSensor, PowerTrace,
    Reading,
};
use kepler_sim::{
    Device, DeviceConfig, KernelCounters, LaunchStats, TraceRecorder, TraceReplayDevice,
};
use sim_telemetry::{Event, EventTrace};
use std::sync::Arc;
use workloads::bench::{Benchmark, InputSpec, ItemCounts};

/// One successful measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub reading: Reading,
    pub checksum: f64,
    pub items: Option<ItemCounts>,
    pub counters: KernelCounters,
    /// Exact integral of the ground-truth power trace over the whole run
    /// (lead-in to lead-out), the reference the instruction-class energy
    /// attribution reconciles against. Unlike `reading.energy_j` this is
    /// not windowed by the K20Power threshold analysis.
    pub board_energy_j: f64,
    /// End time of the ground-truth trace, simulated seconds.
    pub trace_end_s: f64,
    /// Busy time of the kernel windows (device kernel time).
    pub kernel_time_s: f64,
    /// Energy estimates of the emulated polling sensor under each
    /// [`gpower::study_policies`] policy, in policy order. Compared against
    /// `board_energy_j` by the sampling-error study.
    pub sampled_energy_j: Vec<f64>,
}

impl Measurement {
    /// Instruction-class attribution of this run's board energy under
    /// `cfg` (the configuration it was measured with).
    pub fn energy_breakdown(&self, cfg: &DeviceConfig) -> gpower::EnergyBreakdown {
        kepler_sim::attribute_energy(
            cfg,
            &self.counters,
            self.trace_end_s,
            self.kernel_time_s,
            self.board_energy_j,
        )
    }
}

/// Median of three repetitions plus run-to-run variability (Table 2).
#[derive(Debug, Clone)]
pub struct MedianMeasurement {
    pub reading: Reading,
    pub items: Option<ItemCounts>,
    pub counters: KernelCounters,
    /// (max-min)/median of active runtime over the repetitions, percent.
    pub time_variability_pct: f64,
    /// Same for energy.
    pub energy_variability_pct: f64,
    /// Ancillary energy-observability fields of the median-time repetition
    /// (like `counters`, these come from one representative run).
    pub board_energy_j: f64,
    pub trace_end_s: f64,
    pub kernel_time_s: f64,
    pub sampled_energy_j: Vec<f64>,
}

/// Jitter seed of one repetition: FNV-1a over the program key and input
/// name, folded with the repetition index.
///
/// The two strings are separated by `0xFF` (a byte that cannot occur in
/// UTF-8), so distinct pairs like `("ab", "c")` and `("a", "bc")` hash to
/// distinct seeds — plain concatenation used to alias them, which gave
/// different program/input combinations identical run-to-run jitter.
pub(crate) fn run_seed(bench_key: &str, input_name: &str, rep: u64) -> u64 {
    let pair = [bench_key.as_bytes(), &[0xFF], input_name.as_bytes()].concat();
    kepler_sim::fnv1a64(&pair) ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run `bench` on `input` under `kind` once (repetition `rep`) and measure
/// it through the sensor + K20Power pipeline.
pub fn measure(
    bench: &dyn Benchmark,
    input: &InputSpec,
    kind: GpuConfigKind,
    rep: u64,
) -> Result<Measurement, PowerError> {
    measure_with_device_config(bench, input, kind.device_config(), rep)
}

/// [`measure`] generalized to an arbitrary [`DeviceConfig`] — the clock
/// sweep path, where the configuration is a grid point rather than one of
/// the paper's four named settings. Seeding is identical to [`measure`]
/// (the seed depends only on program, input and repetition), so a sweep
/// point that coincides with a named configuration produces a bit-identical
/// measurement.
pub fn measure_with_device_config(
    bench: &dyn Benchmark,
    input: &InputSpec,
    mut cfg: DeviceConfig,
    rep: u64,
) -> Result<Measurement, PowerError> {
    let seed = run_seed(bench.spec().key, input.name, rep);
    cfg.jitter_seed = seed;
    let mut dev = Device::new(cfg);
    let out = bench.run(&mut dev, input);
    let counters = dev.total_counters();
    let kernel_time_s = dev.kernel_time();
    let (trace, _stats) = dev.finish();
    measure_power(
        &trace,
        seed,
        counters,
        kernel_time_s,
        out.checksum,
        out.items,
    )
}

/// The power chain every measurement shares: sample the finished run's
/// ground-truth trace with the emulated sensor, analyze the samples with
/// K20Power, and study the sampling policies. An unmeasurable run is an
/// `Err` and carries no sampled energies.
fn measure_power(
    trace: &PowerTrace,
    seed: u64,
    counters: KernelCounters,
    kernel_time_s: f64,
    checksum: f64,
    items: Option<ItemCounts>,
) -> Result<Measurement, PowerError> {
    let samples = PowerSensor::default().sample(trace, seed ^ 0x5A5A);
    let reading = K20Power::default().analyze(&samples)?;
    let sampled_energy_j = study_policies()
        .iter()
        .map(|p| sampled_energy(trace, p, seed).energy_j)
        .collect();
    Ok(Measurement {
        reading,
        checksum,
        items,
        counters,
        board_energy_j: trace.total_energy(),
        trace_end_s: trace.end_time(),
        kernel_time_s,
        sampled_energy_j,
    })
}

/// [`measure_with_device_config`] with a launch-trace recorder attached.
///
/// The recorder observes the launches the device executes — it never
/// perturbs them — so the returned measurement is bit-identical to the
/// plain one. The second element is the recorded trace, or `None` when the
/// run is ineligible (some launch bypassed pre-execution, so its functional
/// outcome may be configuration-dependent and must not be replayed).
///
/// The measurement result is built *before* the trace is extracted, so a
/// run whose reading fails K20Power analysis (too few samples) still yields
/// a trace: replaying it under the same configuration reproduces the same
/// error, which the campaign caches like any other outcome.
pub fn measure_with_device_config_recording(
    bench: &dyn Benchmark,
    input: &InputSpec,
    cfg: DeviceConfig,
    rep: u64,
) -> (Result<Measurement, PowerError>, Option<StoredTrace>) {
    measure_recording(bench, input, cfg, rep, TraceRecorder::default())
}

/// [`measure_with_device_config_recording`] through the caller's recorder,
/// which the campaign builds with an ineligibility hook
/// ([`TraceRecorder::with_ineligible_hook`]).
pub(crate) fn measure_recording(
    bench: &dyn Benchmark,
    input: &InputSpec,
    mut cfg: DeviceConfig,
    rep: u64,
    rec: TraceRecorder,
) -> (Result<Measurement, PowerError>, Option<StoredTrace>) {
    let seed = run_seed(bench.spec().key, input.name, rep);
    cfg.jitter_seed = seed;
    let mut dev = Device::new(cfg);
    let rec = Arc::new(rec);
    dev.set_trace_recorder(rec.clone());
    let out = bench.run(&mut dev, input);
    let counters = dev.total_counters();
    let kernel_time_s = dev.kernel_time();
    let (trace, _stats) = dev.finish();
    let res = measure_power(
        &trace,
        seed,
        counters,
        kernel_time_s,
        out.checksum,
        out.items,
    );
    let stored = rec.finish().map(|run| StoredTrace {
        run,
        checksum: out.checksum,
        items: out.items,
    });
    (res, stored)
}

/// Re-measure a recorded run under an arbitrary configuration **without
/// functional execution**: the stored launch stream drives the same fluid
/// scheduler, power model, sensor and K20Power analysis the live pipeline
/// uses, with the same per-(program, input, rep) seed derivation — so for
/// any `(cfg, rep)` the result is bit-identical to what
/// [`measure_with_device_config`] would have produced. The functional
/// outputs replay cannot recompute (checksum, item counts) come from the
/// stored trace.
pub fn measure_from_trace(
    bench_key: &str,
    input: &InputSpec,
    mut cfg: DeviceConfig,
    rep: u64,
    st: &StoredTrace,
) -> Result<Measurement, PowerError> {
    let seed = run_seed(bench_key, input.name, rep);
    cfg.jitter_seed = seed;
    let mut dev = TraceReplayDevice::new(cfg);
    dev.replay(&st.run);
    let counters = dev.total_counters();
    let kernel_time_s = dev.kernel_time();
    let (trace, _stats) = dev.finish();
    measure_power(&trace, seed, counters, kernel_time_s, st.checksum, st.items)
}

/// One run measured with full telemetry: the usual sensor/K20Power reading
/// plus the event stream recorded behind it and the ground-truth trace.
///
/// Unlike [`measure`], an unmeasurable run (too few power samples) is not an
/// error here — the profiler still wants the trace and per-kernel stats of a
/// run the K20Power tool would reject, so the reading is kept as a `Result`.
#[derive(Debug)]
pub struct TracedMeasurement {
    pub reading: Result<Reading, PowerError>,
    pub checksum: f64,
    pub items: Option<ItemCounts>,
    /// Counters merged over all launches.
    pub counters: KernelCounters,
    /// Per-launch statistics, in launch order.
    pub stats: Vec<LaunchStats>,
    /// Ground-truth power trace the sensor sampled.
    pub trace: PowerTrace,
    /// Busy time of the kernel windows (device kernel time).
    pub kernel_time_s: f64,
    /// Instruction-class attribution of the trace-integral energy under
    /// the run's configuration (nominal coefficients; the residual lands
    /// in the `unmodeled` class). Also emitted as `ClassEnergy` telemetry
    /// events at the end of the stream.
    pub breakdown: gpower::EnergyBreakdown,
    /// Every telemetry event recorded during the run, in record order:
    /// simulator events (launch/retire, block dispatch, SM/board/DRAM
    /// intervals) followed by sensor samples, threshold crossings, and the
    /// per-class energy attribution.
    pub events: Vec<Event>,
    /// Events evicted from the ring buffer to honour `event_capacity`.
    pub dropped_events: u64,
}

/// Run `bench` on `input` under `kind` once with a telemetry recorder
/// attached end to end: the [`Device`] (scheduler intervals, launches), the
/// [`PowerSensor`] (samples, rate switches) and the [`K20Power`] analysis
/// (threshold crossings) all feed the same bounded [`EventTrace`].
///
/// Seeding is identical to [`measure`], so the reading matches the untraced
/// pipeline exactly — telemetry observes the run, it never perturbs it.
pub fn measure_traced(
    bench: &dyn Benchmark,
    input: &InputSpec,
    kind: GpuConfigKind,
    rep: u64,
    event_capacity: usize,
) -> TracedMeasurement {
    let seed = run_seed(bench.spec().key, input.name, rep);
    let mut cfg = kind.device_config();
    cfg.jitter_seed = seed;
    let mut dev = Device::new(cfg);
    let sink = Arc::new(EventTrace::with_capacity(event_capacity));
    dev.set_telemetry(sink.clone());
    let out = bench.run(&mut dev, input);
    let counters = dev.total_counters();
    let kernel_time_s = dev.kernel_time();
    let (trace, stats) = dev.finish();
    let sensor = PowerSensor::default();
    let samples = sensor.sample_traced(&trace, seed ^ 0x5A5A, Some(&*sink));
    let reading = K20Power::default().analyze_traced(&samples, Some(&*sink));
    // Attribute the board integral across instruction classes and put the
    // result on the event stream (one ClassEnergy per class, at trace end).
    let breakdown = kepler_sim::attribute_energy(
        &kind.device_config(),
        &counters,
        trace.end_time(),
        kernel_time_s,
        trace.total_energy(),
    );
    use sim_telemetry::TelemetrySink;
    for (class, energy_j) in breakdown.rows() {
        sink.record(Event::ClassEnergy {
            t: trace.end_time(),
            class: class.name().to_string(),
            energy_j,
        });
    }
    let dropped_events = sink.dropped();
    TracedMeasurement {
        reading,
        checksum: out.checksum,
        items: out.items,
        counters,
        stats,
        trace,
        kernel_time_s,
        breakdown,
        events: sink.take(),
        dropped_events,
    }
}

/// The paper's methodology: three repetitions, report the median of each
/// metric. Fails if any repetition yields insufficient samples.
pub fn measure_median3(
    bench: &dyn Benchmark,
    input: &InputSpec,
    kind: GpuConfigKind,
    base_rep: u64,
) -> Result<MedianMeasurement, PowerError> {
    let runs: Vec<Measurement> = (0..3)
        .map(|r| measure(bench, input, kind, base_rep * 3 + r))
        .collect::<Result<_, _>>()?;
    Ok(combine_median3(&runs))
}

/// Combine three repetitions into the paper's reported median measurement.
///
/// Runtime and energy are the medians of their repetitions; average power
/// is **derived** as `median energy / median runtime` rather than medianed
/// independently — the K20Power definition (`Reading::avg_power_w` is
/// `energy_j / active_runtime_s`) must survive the combination, and three
/// independently-taken medians need not come from the same repetition.
pub fn combine_median3(runs: &[Measurement]) -> MedianMeasurement {
    assert_eq!(runs.len(), 3, "median-of-three needs exactly three runs");
    let times: Vec<f64> = runs.iter().map(|m| m.reading.active_runtime_s).collect();
    let energies: Vec<f64> = runs.iter().map(|m| m.reading.energy_j).collect();
    let med = gpower::median(&times);
    // Pick the run whose time is the median for the ancillary fields.
    let med_run = runs
        .iter()
        .min_by(|a, b| {
            (a.reading.active_runtime_s - med)
                .abs()
                .total_cmp(&(b.reading.active_runtime_s - med).abs())
        })
        .unwrap();
    let mut reading = med_run.reading;
    reading.active_runtime_s = med;
    reading.energy_j = gpower::median(&energies);
    reading.avg_power_w = if med > 0.0 {
        reading.energy_j / med
    } else {
        0.0
    };
    MedianMeasurement {
        reading,
        items: med_run.items,
        counters: med_run.counters,
        time_variability_pct: variability_pct(&times),
        energy_variability_pct: variability_pct(&energies),
        board_energy_j: med_run.board_energy_j,
        trace_end_s: med_run.trace_end_s,
        kernel_time_s: med_run.kernel_time_s,
        sampled_energy_j: med_run.sampled_energy_j.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::registry;

    #[test]
    fn measure_nb_produces_sane_reading() {
        let _serial = crate::serial();
        let b = registry::by_key("nb").unwrap();
        let input = &b.inputs()[0];
        let m = measure(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        assert!(m.reading.active_runtime_s > 0.5);
        assert!(m.reading.avg_power_w > 30.0 && m.reading.avg_power_w < 250.0);
        assert!(m.reading.energy_j > 0.0);
    }

    #[test]
    fn repetitions_differ_but_only_slightly() {
        let _serial = crate::serial();
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let a = measure(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        let c = measure(b.as_ref(), input, GpuConfigKind::Default, 1).unwrap();
        // The tool's active runtime is quantized to the 10 Hz sample grid,
        // so jitter may or may not move it — but energy integrates the
        // noisy samples and always differs.
        assert_ne!(a.reading.energy_j, c.reading.energy_j);
        let rel = (a.reading.active_runtime_s - c.reading.active_runtime_s).abs()
            / a.reading.active_runtime_s;
        assert!(rel < 0.15, "rel {rel}");
        // Regular code: identical answers regardless of jitter.
        assert_eq!(a.checksum, c.checksum);
    }

    #[test]
    fn median3_variability_is_reported() {
        let _serial = crate::serial();
        let b = registry::by_key("sgemm").unwrap();
        let input = &b.inputs()[0];
        let m = measure_median3(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        assert!(m.time_variability_pct >= 0.0 && m.time_variability_pct < 20.0);
        assert!(m.reading.active_runtime_s > 0.0);
    }

    #[test]
    fn traced_measurement_matches_untraced_and_reconciles() {
        let _serial = crate::serial();
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let plain = measure(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        let traced = measure_traced(b.as_ref(), input, GpuConfigKind::Default, 0, 1 << 20);
        // Same seeds -> identical reading; telemetry never perturbs the run.
        let r = traced.reading.as_ref().unwrap();
        assert_eq!(r.energy_j, plain.reading.energy_j);
        assert_eq!(r.active_runtime_s, plain.reading.active_runtime_s);
        assert_eq!(traced.checksum, plain.checksum);
        // The event stream reconstructs the ground-truth trace energy.
        assert_eq!(traced.dropped_events, 0);
        let tl = sim_telemetry::build_timeline(&traced.events);
        let rel =
            (tl.total_energy_j() - traced.trace.total_energy()).abs() / traced.trace.total_energy();
        assert!(rel < 1e-6, "rel {rel}");
        assert!(!traced.stats.is_empty());
        // The sensor's samples and the tool's crossings made it in too.
        assert!(traced
            .events
            .iter()
            .any(|e| matches!(e, Event::SensorSample { .. })));
        assert!(traced
            .events
            .iter()
            .any(|e| matches!(e, Event::ThresholdCross { rising: true, .. })));
    }

    #[test]
    fn traced_measurement_survives_a_tiny_ring_buffer() {
        let _serial = crate::serial();
        let b = registry::by_key("sten").unwrap();
        let input = &b.inputs()[0];
        let traced = measure_traced(b.as_ref(), input, GpuConfigKind::Default, 0, 64);
        assert!(traced.dropped_events > 0);
        assert_eq!(traced.events.len(), 64);
        // The run itself is unaffected by the recorder's capacity.
        let plain = measure(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        assert_eq!(traced.reading.unwrap().energy_j, plain.reading.energy_j);
    }

    #[test]
    fn seeds_are_distinct_across_programs() {
        assert_ne!(run_seed("a", "x", 0), run_seed("b", "x", 0));
        assert_ne!(run_seed("a", "x", 0), run_seed("a", "y", 0));
        assert_ne!(run_seed("a", "x", 0), run_seed("a", "x", 1));
    }

    /// Regression: plain concatenation of key and input bytes made
    /// `("ab", "c")` and `("a", "bc")` share a seed (and with them every
    /// boundary-shifted pair), so distinct program/input combinations got
    /// identical jitter. The `0xFF` separator keeps them apart.
    #[test]
    fn seeds_distinguish_key_input_boundary() {
        assert_ne!(run_seed("ab", "c", 0), run_seed("a", "bc", 0));
        assert_ne!(run_seed("ab", "", 0), run_seed("a", "b", 0));
        assert_ne!(run_seed("lbfs", "-wla x", 0), run_seed("lbfs-wla", " x", 0));
    }

    /// Regression: the median-of-three reading must stay internally
    /// consistent with the K20Power definition — `avg_power_w` is exactly
    /// `energy_j / active_runtime_s`, not an independently-taken median.
    #[test]
    fn median3_reading_is_internally_consistent() {
        let _serial = crate::serial();
        let b = registry::by_key("sgemm").unwrap();
        let input = &b.inputs()[0];
        let m = measure_median3(b.as_ref(), input, GpuConfigKind::Default, 0).unwrap();
        assert_eq!(
            m.reading.avg_power_w.to_bits(),
            (m.reading.energy_j / m.reading.active_runtime_s).to_bits(),
            "avg_power_w must be derived from the median energy and time"
        );
    }

    /// The combiner's invariant holds even on hand-built runs where the
    /// three metric medians come from three *different* repetitions.
    #[test]
    fn combine_median3_derives_power_from_medians() {
        let mk = |t: f64, e: f64, p: f64| Measurement {
            reading: gpower::Reading {
                active_runtime_s: t,
                energy_j: e,
                avg_power_w: p,
                threshold_w: 50.0,
                idle_w: 25.0,
                n_active_samples: 100,
            },
            checksum: 0.0,
            items: None,
            counters: Default::default(),
            board_energy_j: 0.0,
            trace_end_s: 0.0,
            kernel_time_s: 0.0,
            sampled_energy_j: Vec::new(),
        };
        // Median time from run 0, median energy from run 1; a per-metric
        // median of powers would pick 110.0 (run 2) — internally
        // inconsistent with 1000/10 = 100 W.
        let runs = [
            mk(10.0, 900.0, 90.0),
            mk(9.0, 1000.0, 111.1),
            mk(11.0, 1210.0, 110.0),
        ];
        let m = combine_median3(&runs);
        assert_eq!(m.reading.active_runtime_s, 10.0);
        assert_eq!(m.reading.energy_j, 1000.0);
        assert_eq!(m.reading.avg_power_w, 100.0);
    }
}
