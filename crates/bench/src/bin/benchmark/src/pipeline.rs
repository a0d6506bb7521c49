//! The measurement pipeline of `characterize::experiment`, re-assembled
//! from the layers' public calls with a span around each: functional
//! device run, trace replay, and the power chain (board trace, sensor,
//! K20Power, sampler study). Outcomes must stay bit-identical to the
//! library's own functions; the traced passes check that they do.

use crate::spans::Spans;
use characterize::experiment::Measurement;
use characterize::StoredTrace;
use gpower::{sampled_energy, study_policies, K20Power, PowerError, PowerSensor, PowerTrace};
use kepler_sim::{
    Device, DeviceConfig, KernelCounters, RunTrace, TraceRecorder, TraceReplayDevice,
};
use std::sync::Arc;
use workloads::bench::{Benchmark, InputSpec, ItemCounts};

/// The jitter seed of one repetition. A copy of the crate-private
/// `characterize::experiment::run_seed`, kept honest by the traced passes,
/// which compare seeded units against `characterize::experiment::measure`.
pub fn run_seed(bench_key: &str, input_name: &str, rep: u64) -> u64 {
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bench_key
        .bytes()
        .chain(std::iter::once(0xFF))
        .chain(input_name.bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The power chain shared by live runs and replays. `checksum` and `items`
/// are functional outputs, which a replay carries from its trace.
fn power_chain(
    sp: &mut Spans,
    trace: PowerTrace,
    seed: u64,
    counters: KernelCounters,
    kernel_time_s: f64,
    (checksum, items): (f64, Option<ItemCounts>),
) -> Result<Measurement, PowerError> {
    let samples = sp.time("power.sensor", |_| {
        PowerSensor::default().sample(&trace, seed ^ 0x5A5A)
    });
    sp.count("power.samples", samples.len() as u64);
    let reading = sp.time("power.k20power", |_| K20Power::default().analyze(&samples));
    let sampled_energy_j: Vec<f64> = sp.time("power.sampler", |_| {
        study_policies()
            .iter()
            .map(|p| sampled_energy(&trace, p, seed).energy_j)
            .collect()
    });
    Ok(Measurement {
        reading: reading?,
        checksum,
        items,
        counters,
        board_energy_j: trace.total_energy(),
        trace_end_s: trace.end_time(),
        kernel_time_s,
        sampled_energy_j,
    })
}

/// One live run with a trace recorder attached, as
/// `measure_with_device_config_recording` does it. Also returns the
/// recorded trace: `None` when some launch bypassed pre-execution, i.e.
/// the unit executed at dispatch.
pub fn measure_live(
    sp: &mut Spans,
    bench: &dyn Benchmark,
    input: &InputSpec,
    mut cfg: DeviceConfig,
    rep: u64,
) -> (Result<Measurement, PowerError>, Option<StoredTrace>) {
    let seed = run_seed(bench.spec().key, input.name, rep);
    cfg.jitter_seed = seed;
    let rec = Arc::new(TraceRecorder::default());
    let (dev, out) = sp.time("device.run", |_| {
        let mut dev = Device::new(cfg);
        dev.set_trace_recorder(rec.clone());
        let out = bench.run(&mut dev, input);
        (dev, out)
    });
    let counters = dev.total_counters();
    let kernel_time_s = dev.kernel_time();
    let (trace, _) = sp.time("power.finish", |_| dev.finish());
    let functional = (out.checksum, out.items);
    let res = power_chain(sp, trace, seed, counters, kernel_time_s, functional);
    let stored = rec.finish().map(|run| StoredTrace {
        run,
        checksum: out.checksum,
        items: out.items,
    });
    (res, stored)
}

/// Re-measure a recorded run, as `measure_from_trace` does it.
pub fn measure_replay(
    sp: &mut Spans,
    bench_key: &str,
    input: &InputSpec,
    mut cfg: DeviceConfig,
    rep: u64,
    st: &StoredTrace,
) -> Result<Measurement, PowerError> {
    let seed = run_seed(bench_key, input.name, rep);
    cfg.jitter_seed = seed;
    let dev = sp.time("sched.replay", |_| {
        let mut dev = TraceReplayDevice::new(cfg);
        dev.replay(&st.run);
        dev
    });
    let counters = dev.total_counters();
    let kernel_time_s = dev.kernel_time();
    let (trace, _) = sp.time("power.finish", |_| dev.finish());
    let functional = (st.checksum, st.items);
    power_chain(sp, trace, seed, counters, kernel_time_s, functional)
}

/// Launches a replay of `run` re-simulates.
pub fn launches(run: &RunTrace) -> usize {
    run.ops
        .iter()
        .filter(|op| matches!(op, kepler_sim::TraceOp::Launch { .. }))
        .count()
}

/// Bitwise equality of two readings.
pub fn same_reading(
    a: &Result<gpower::Reading, PowerError>,
    b: &Result<gpower::Reading, PowerError>,
) -> bool {
    let bits = |r: &gpower::Reading| {
        [
            r.active_runtime_s,
            r.energy_j,
            r.avg_power_w,
            r.threshold_w,
            r.idle_w,
        ]
        .map(f64::to_bits)
    };
    match (a, b) {
        (Ok(a), Ok(b)) => bits(a) == bits(b) && a.n_active_samples == b.n_active_samples,
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Bitwise equality of two outcomes: every float by its bit pattern.
pub fn same_outcome(
    a: &Result<Measurement, PowerError>,
    b: &Result<Measurement, PowerError>,
) -> bool {
    let reading =
        |m: &Result<Measurement, PowerError>| m.as_ref().map(|m| m.reading).map_err(Clone::clone);
    if !same_reading(&reading(a), &reading(b)) {
        return false;
    }
    let (Ok(a), Ok(b)) = (a, b) else {
        return true;
    };
    let bits = |m: &Measurement| {
        let mut v = vec![m.checksum, m.board_energy_j, m.trace_end_s, m.kernel_time_s];
        v.extend(&m.sampled_energy_j);
        v.into_iter().map(f64::to_bits).collect::<Vec<_>>()
    };
    bits(a) == bits(b) && a.items == b.items && a.counters == b.counters
}

/// The power-chain layer metrics of a pass's spans.
pub fn power_layers(r: &mut crate::Report, spans: &Spans) {
    r.layer("power.finish_s", spans.total("power.finish"));
    r.layer("power.sensor_s", spans.total("power.sensor"));
    r.layer("power.k20power_s", spans.total("power.k20power"));
    r.layer("power.sampler_s", spans.total("power.sampler"));
    let samples = spans.counts.get("power.samples").copied().unwrap_or(0);
    r.layer("power.samples", samples as f64);
}

/// Launch-memo layer metrics from `exec_cache_stats()` deltas.
pub fn memo_layers(r: &mut crate::Report, hits: u64, misses: u64) {
    r.layer("memo.hits", hits as f64);
    r.layer("memo.misses", misses as f64);
    r.layer(
        "memo.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// Scheduler layer metrics of a set of trace replays.
pub fn replay_layers(r: &mut crate::Report, replay_s: f64, launches: usize) {
    r.layer("sched.replay_s", replay_s);
    r.layer("sched.launches", launches as f64);
    r.layer(
        "sched.us_per_launch",
        replay_s * 1e6 / launches.max(1) as f64,
    );
}
