//! Record → replay equivalence and trace-DB durability, end to end.
//!
//! The trace subsystem's whole claim is *bitwise* fidelity: a launch trace
//! recorded once — under any configuration — must re-simulate to exactly
//! the measurement a live functional run would have produced, for every
//! clock/ECC configuration and repetition. These tests sweep that claim
//! across the full registry, and verify that a damaged trace store always
//! degrades to a clean functional re-run, never to a wrong answer.
//!
//! `kepler_sim::devices_created()` is process-global, so every test takes
//! `serial()`: the simulation-count witnesses would otherwise observe each
//! other's devices.

use characterize::campaign::{Campaign, CampaignConfig};
use characterize::experiment::{
    measure_from_trace, measure_with_device_config, measure_with_device_config_recording,
    Measurement,
};
use characterize::GpuConfigKind;
use gpower::PowerError;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use workloads::registry;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpgpu-trace-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Field-by-field bitwise equality of two measurements (floats compared as
/// bit patterns — "close" is a bug here).
fn assert_bitwise_eq(a: &Measurement, b: &Measurement, what: &str) {
    let ra = &a.reading;
    let rb = &b.reading;
    assert_eq!(
        ra.active_runtime_s.to_bits(),
        rb.active_runtime_s.to_bits(),
        "{what}: active_runtime_s"
    );
    assert_eq!(
        ra.energy_j.to_bits(),
        rb.energy_j.to_bits(),
        "{what}: energy_j"
    );
    assert_eq!(
        ra.avg_power_w.to_bits(),
        rb.avg_power_w.to_bits(),
        "{what}: avg_power_w"
    );
    assert_eq!(
        ra.threshold_w.to_bits(),
        rb.threshold_w.to_bits(),
        "{what}: threshold_w"
    );
    assert_eq!(ra.idle_w.to_bits(), rb.idle_w.to_bits(), "{what}: idle_w");
    assert_eq!(ra.n_active_samples, rb.n_active_samples, "{what}: samples");
    assert_eq!(
        a.checksum.to_bits(),
        b.checksum.to_bits(),
        "{what}: checksum"
    );
    assert_eq!(a.items, b.items, "{what}: items");
    assert_eq!(a.counters, b.counters, "{what}: counters");
    assert_eq!(
        a.board_energy_j.to_bits(),
        b.board_energy_j.to_bits(),
        "{what}: board_energy_j"
    );
    assert_eq!(
        a.trace_end_s.to_bits(),
        b.trace_end_s.to_bits(),
        "{what}: trace_end_s"
    );
    assert_eq!(
        a.kernel_time_s.to_bits(),
        b.kernel_time_s.to_bits(),
        "{what}: kernel_time_s"
    );
    assert_eq!(
        a.sampled_energy_j.len(),
        b.sampled_energy_j.len(),
        "{what}: sampled_energy_j length"
    );
    for (i, (x, y)) in a
        .sampled_energy_j
        .iter()
        .zip(&b.sampled_energy_j)
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: sampled_energy_j[{i}]");
    }
}

fn assert_result_bitwise_eq(
    a: &Result<Measurement, PowerError>,
    b: &Result<Measurement, PowerError>,
    what: &str,
) {
    match (a, b) {
        (Ok(ma), Ok(mb)) => assert_bitwise_eq(ma, mb, what),
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{what}: errors differ"),
        _ => panic!("{what}: one side Ok, the other Err"),
    }
}

/// The core fidelity claim, registry-wide: for every program whose launches
/// take the pre-execution path (the recording-eligible set), a trace
/// recorded under the default clocks replays bit-identically under both the
/// default and the 614 MHz clocks — the latter checked against a *live
/// functional run* of that configuration, proving one trace serves foreign
/// configurations, not just the one that recorded it. Both memory models
/// are swept: a cached-model trace carries cache-tier counters, and must
/// replay at a foreign clock just as exactly.
#[test]
fn recorded_traces_replay_bit_identically_across_configs() {
    let _guard = serial();
    let models = [
        (GpuConfigKind::Default, GpuConfigKind::C614),
        (GpuConfigKind::Cache, GpuConfigKind::Cache614),
    ];
    for (recording, foreign) in models {
        let mut eligible = Vec::new();
        let mut ineligible = Vec::new();
        for b in registry::all().iter().chain(registry::variants().iter()) {
            let key = b.spec().key;
            let input = &b.inputs()[0];
            let home = recording.device_config();
            let (recorded, stored) =
                measure_with_device_config_recording(b.as_ref(), input, home.clone(), 0);
            let Some(st) = stored else {
                ineligible.push(key);
                continue;
            };
            eligible.push(key);

            // Replaying under the recording configuration reproduces the
            // recorded measurement exactly — without functional execution.
            let devices_before = kepler_sim::devices_created();
            let replays_before = kepler_sim::devices_replayed();
            let same_cfg = measure_from_trace(key, input, home, 0, &st);
            assert_result_bitwise_eq(&recorded, &same_cfg, &format!("{key} @{recording}"));
            assert_eq!(
                kepler_sim::devices_created(),
                devices_before,
                "{key}: replay must not create a functional device"
            );
            assert_eq!(kepler_sim::devices_replayed(), replays_before + 1);

            // Replaying under a *different* clock configuration matches a
            // live functional run of that configuration, bit for bit.
            let away = foreign.device_config();
            let live = measure_with_device_config(b.as_ref(), input, away.clone(), 0);
            let replayed = measure_from_trace(key, input, away, 0, &st);
            assert_result_bitwise_eq(&live, &replayed, &format!("{key} @{foreign}"));
        }
        // The regular majority of the registry must opt in; losing
        // eligibility wholesale would silently turn every campaign back
        // into functional re-runs. The programs whose reductions or
        // own-element kernels opted in last must stay eligible too.
        assert!(
            eligible.len() >= 19,
            "{recording}: only {} programs recorded traces (eligible: {eligible:?}, ineligible: {ineligible:?})",
            eligible.len()
        );
        for key in ["qtc", "tpacf", "md", "mum"] {
            assert!(
                eligible.contains(&key),
                "{recording}: {key} recorded no trace (ineligible: {ineligible:?})"
            );
        }
    }
}

/// The campaign-level flow: a cold campaign records, a second campaign
/// with an *empty record cache* but the same trace directory replays
/// (simulated=0) and still produces bit-identical measurements — and the
/// v2 record it persists is byte-identical to the one the functional run
/// wrote, so replay warms the record cache indistinguishably.
#[test]
fn campaign_replays_from_traces_and_warms_identical_records() {
    let _guard = serial();
    let cache_a = scratch_dir("camp-cold");
    let cache_b = scratch_dir("camp-warm");
    let traces = scratch_dir("camp-traces");
    let b = registry::by_key("sgemm").unwrap();
    let input = &b.inputs()[0];

    let cold = Campaign::new(CampaignConfig {
        cache_dir: Some(cache_a.clone()),
        trace_dir: Some(traces.clone()),
        ..CampaignConfig::default()
    });
    let m_cold = cold
        .run(b.as_ref(), input, GpuConfigKind::Default, 0)
        .unwrap();
    let s = cold.stats();
    assert_eq!((s.simulated, s.trace_replays), (1, 0), "{s}");

    let warm = Campaign::new(CampaignConfig {
        cache_dir: Some(cache_b.clone()),
        trace_dir: Some(traces.clone()),
        ..CampaignConfig::default()
    });
    let devices_before = kepler_sim::devices_created();
    let m_warm = warm
        .run(b.as_ref(), input, GpuConfigKind::Default, 0)
        .unwrap();
    // A foreign config + rep the cold campaign never executed, served from
    // the same trace.
    let m_614 = warm.run(b.as_ref(), input, GpuConfigKind::C614, 2).unwrap();
    let s = warm.stats();
    assert_eq!(kepler_sim::devices_created(), devices_before);
    assert_eq!((s.simulated, s.trace_replays), (0, 2), "{s}");
    assert_bitwise_eq(&m_cold, &m_warm, "campaign replay @default");
    // The down-clocked replay really re-simulated under the foreign config:
    // lower clocks draw less energy.
    assert!(m_614.reading.energy_j < m_warm.reading.energy_j);

    // The replayed unit persisted a v2 record byte-identical to the
    // functional run's.
    let rec = |dir: &Path| {
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().map(|x| x == "camp") == Some(true))
            .collect();
        names.sort();
        names
    };
    let a = rec(&cache_a);
    assert_eq!(a.len(), 1);
    let name = a[0].file_name().unwrap();
    let twin = cache_b.join(name);
    assert!(twin.exists(), "replay must warm the same record identity");
    assert_eq!(
        std::fs::read(&a[0]).unwrap(),
        std::fs::read(&twin).unwrap(),
        "replay-written record differs from the functional one"
    );

    for d in [&cache_a, &cache_b, &traces] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The memory model is part of the trace identity: a trace recorded under
/// the flat model must never replay under the cache model — the recorded
/// block costs would lack cache-tier counters — and each model records and
/// replays its *own* trace in the same directory.
#[test]
fn traces_never_cross_memory_models() {
    let _guard = serial();
    let traces = scratch_dir("memmodel-traces");
    let b = registry::by_key("sgemm").unwrap();
    let input = &b.inputs()[0];
    let fresh = || {
        Campaign::new(CampaignConfig {
            trace_dir: Some(traces.clone()),
            ..CampaignConfig::default()
        })
    };

    // Record under the flat model.
    let c0 = fresh();
    let mf = c0
        .run(b.as_ref(), input, GpuConfigKind::Default, 0)
        .unwrap();
    assert_eq!(c0.stats().simulated, 1);

    // The cache model finds no trace to serve it: a plain miss (not even
    // stale — the keys differ), answered by a functional run that records
    // its own trace.
    let c1 = fresh();
    let mc = c1.run(b.as_ref(), input, GpuConfigKind::Cache, 0).unwrap();
    let s = c1.stats();
    assert_eq!(
        (s.simulated, s.trace_replays, s.trace_stale, s.trace_corrupt),
        (1, 0, 0, 0),
        "{s}"
    );
    assert!(
        mc.counters.dram_transactions > 0.0,
        "cached run must carry tier counters"
    );
    assert_eq!(mf.counters.dram_transactions, 0.0);

    // Now both models replay from their own traces, bit-identically.
    let c2 = fresh();
    let mf2 = c2
        .run(b.as_ref(), input, GpuConfigKind::Default, 0)
        .unwrap();
    let mc2 = c2.run(b.as_ref(), input, GpuConfigKind::Cache, 0).unwrap();
    let s = c2.stats();
    assert_eq!((s.simulated, s.trace_replays), (0, 2), "{s}");
    assert_bitwise_eq(&mf, &mf2, "flat replay");
    assert_bitwise_eq(&mc, &mc2, "cached replay");

    let _ = std::fs::remove_dir_all(&traces);
}

/// Durability: damaged trace storage (truncated manifest, corrupted launch
/// record) is detected, counted, and answered with a clean functional
/// re-run whose result is bit-identical — and the re-run re-records, so
/// the store heals.
#[test]
fn damaged_traces_degrade_to_functional_reruns() {
    let _guard = serial();
    let traces = scratch_dir("dur-traces");
    let b = registry::by_key("sten").unwrap();
    let input = &b.inputs()[0];

    let fresh = |tag: u32| {
        let _ = tag;
        Campaign::new(CampaignConfig {
            trace_dir: Some(traces.clone()),
            ..CampaignConfig::default()
        })
    };

    // Record once.
    let c0 = fresh(0);
    let m0 = c0
        .run(b.as_ref(), input, GpuConfigKind::Default, 0)
        .unwrap();
    assert_eq!(c0.stats().simulated, 1);

    // Sanity: an undamaged store replays.
    let c1 = fresh(1);
    let m1 = c1
        .run(b.as_ref(), input, GpuConfigKind::Default, 0)
        .unwrap();
    let s = c1.stats();
    assert_eq!((s.simulated, s.trace_replays), (0, 1), "{s}");
    assert_bitwise_eq(&m0, &m1, "undamaged replay");

    // Truncate the manifest: corrupt, functional re-run, identical result.
    let manifest = std::fs::read_dir(&traces)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().map(|x| x == "tman") == Some(true))
        .expect("a manifest was recorded");
    let body = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, &body[..body.len() / 2]).unwrap();
    let c2 = fresh(2);
    let m2 = c2
        .run(b.as_ref(), input, GpuConfigKind::Default, 0)
        .unwrap();
    let s = c2.stats();
    assert_eq!(
        (s.simulated, s.trace_replays, s.trace_corrupt),
        (1, 0, 1),
        "{s}"
    );
    assert_bitwise_eq(&m0, &m2, "after truncated manifest");

    // The re-run re-recorded; now damage a launch record's payload.
    let c3 = fresh(3);
    let m3 = c3
        .run(b.as_ref(), input, GpuConfigKind::Default, 0)
        .unwrap();
    assert_eq!(c3.stats().trace_replays, 1, "store healed after re-record");
    assert_bitwise_eq(&m0, &m3, "healed replay");
    let tlr = std::fs::read_dir(&traces)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().map(|x| x == "tlr") == Some(true))
        .expect("a launch record exists");
    let mut payload = std::fs::read(&tlr).unwrap();
    let mid = payload.len() / 2;
    payload[mid] ^= 0xff;
    std::fs::write(&tlr, &payload).unwrap();
    let c4 = fresh(4);
    let m4 = c4
        .run(b.as_ref(), input, GpuConfigKind::Default, 0)
        .unwrap();
    let s = c4.stats();
    assert_eq!(
        (s.simulated, s.trace_replays, s.trace_corrupt),
        (1, 0, 1),
        "{s}"
    );
    assert_bitwise_eq(&m0, &m4, "after corrupt launch record");

    let _ = std::fs::remove_dir_all(&traces);
}
