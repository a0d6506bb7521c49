//! End-to-end checks of the measurement campaign's caching: a warm cache
//! must reproduce artifacts byte-for-byte without touching the simulator.
//!
//! `kepler_sim::devices_created()` is process-global, so every test takes
//! `serial()`: the simulation-count witnesses would otherwise observe each
//! other's devices.

use characterize::campaign::{plan_artifacts, Artifact, Campaign, CampaignConfig};
use characterize::figures::input_power_figure;
use characterize::report::{render_fig5, render_table4};
use characterize::tables::table4;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpgpu-campaign-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn disk_campaign(dir: &Path) -> Campaign {
    Campaign::new(CampaignConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..CampaignConfig::default()
    })
}

#[test]
fn table4_renders_byte_identical_cold_vs_warm() {
    let _guard = serial();
    let dir = scratch_dir("table4");

    // Cold: everything is simulated and persisted.
    let cold = disk_campaign(&dir);
    let cold_text = render_table4(&table4(&cold, 1));
    let cold_stats = cold.stats();
    assert!(cold_stats.simulated > 0, "{cold_stats}");

    // Warm: a fresh campaign over the same directory must not simulate a
    // single run (verified against the simulator's own device counter, not
    // just the campaign's bookkeeping) and must render identical bytes.
    let devices_before = kepler_sim::devices_created();
    let warm = disk_campaign(&dir);
    let warm_text = render_table4(&table4(&warm, 1));
    let warm_stats = warm.stats();
    assert_eq!(kepler_sim::devices_created(), devices_before);
    assert_eq!(warm_stats.simulated, 0, "{warm_stats}");
    assert!(warm_stats.disk_hits > 0, "{warm_stats}");
    assert_eq!(cold_text, warm_text);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prefetched_plan_leaves_no_misses_for_the_generators() {
    let _guard = serial();
    // The repro flow: plan the artifact's matrix, execute it once, then let
    // the generator run — it must resolve entirely from the memo.
    let c = Campaign::in_memory();
    let plan = plan_artifacts(&[Artifact::Fig5], 1);
    let unique = c.execute(&plan);
    assert_eq!(c.stats().simulated as usize, unique);

    let devices_before = kepler_sim::devices_created();
    let rows = input_power_figure(&c, 1);
    assert!(!rows.is_empty());
    assert_eq!(kepler_sim::devices_created(), devices_before);
    assert_eq!(c.stats().simulated as usize, unique);
    let _ = render_fig5(&rows);
}
