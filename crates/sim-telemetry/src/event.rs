//! The structured event vocabulary.
//!
//! Events carry plain numbers (simulated seconds, watts, bytes/s) so the
//! crate stays below `gpower` and `kepler-sim` in the dependency graph.
//! Interval-shaped events (`SmInterval`, `BoardInterval`, `DramInterval`)
//! carry both endpoints so a consumer can integrate energy without
//! replaying scheduler state.

/// What a board-level power interval was doing. Lets the timeline separate
/// idle floor, launch gaps and the driver's tail window from kernel-window
/// static power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoardPhase {
    /// Idle lead-in/lead-out around the run.
    Idle,
    /// Host/driver time between kernels (warm gap power).
    Gap,
    /// Static + uncore power during a kernel window (idle floor plus the
    /// active overhead; the dynamic remainder is attributed per SM).
    KernelStatic,
    /// The driver's tail-power window after the last kernel.
    Tail,
}

impl BoardPhase {
    pub fn name(self) -> &'static str {
        match self {
            BoardPhase::Idle => "idle",
            BoardPhase::Gap => "gap",
            BoardPhase::KernelStatic => "kernel_static",
            BoardPhase::Tail => "tail",
        }
    }
}

/// One structured telemetry event. Times are simulated seconds since the
/// start of the run's power trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Device construction: the clock/ECC configuration of the run. Emitted
    /// once per device (the sim reconfigures between runs, not within one),
    /// and again if a configuration were ever changed mid-run.
    ConfigSnapshot {
        t: f64,
        core_mhz: f64,
        mem_mhz: f64,
        ecc: bool,
    },
    /// A kernel launch entered the scheduler.
    KernelLaunch {
        t: f64,
        launch: u32,
        name: String,
        grid: u32,
        block_threads: u32,
    },
    /// The launch's last block completed.
    KernelRetire {
        t: f64,
        launch: u32,
        duration_s: f64,
        energy_j: f64,
    },
    /// A block was dispatched to an SM occupancy slot.
    BlockDispatch {
        t: f64,
        launch: u32,
        block: u32,
        sm: u16,
        /// The occupancy slot the block occupies on its SM (0-based: the
        /// SM's resident-block count at the moment of dispatch).
        slot: u16,
    },
    /// A block retired from its SM.
    BlockComplete {
        t: f64,
        launch: u32,
        block: u32,
        sm: u16,
    },
    /// One scheduler interval's dynamic activity on one SM.
    SmInterval {
        t0: f64,
        t1: f64,
        sm: u16,
        /// Dynamic watts attributed to this SM's resident blocks.
        watts: f64,
        /// Fraction of the SM's issue bandwidth in use (0..=1).
        issue_frac: f64,
        /// Resident blocks during the interval.
        resident: u16,
    },
    /// Board-level (non-per-SM) power over an interval.
    BoardInterval {
        t0: f64,
        t1: f64,
        watts: f64,
        phase: BoardPhase,
    },
    /// Aggregate DRAM traffic over a scheduler interval.
    DramInterval {
        t0: f64,
        t1: f64,
        bytes_per_s: f64,
        /// Blocks with outstanding memory demand during the interval.
        demanders: u16,
    },
    /// Two or more blocks began competing for DRAM bandwidth.
    DramContentionOpen { t: f64, demanders: u16 },
    /// DRAM demand dropped back below the contention threshold.
    DramContentionClose { t: f64 },
    /// The emulated sensor produced a reading.
    SensorSample { t: f64, watts: f64, rate_hz: f64 },
    /// The driver switched sampling rate (idle 1 Hz <-> active 10 Hz).
    SensorRateSwitch { t: f64, rate_hz: f64 },
    /// A K20Power analysis threshold crossing (rising = entering the
    /// active-runtime window).
    ThresholdCross {
        t: f64,
        watts: f64,
        threshold_w: f64,
        rising: bool,
    },
    /// A sanitizer finding attached to the run (race, barrier divergence,
    /// out-of-bounds access, performance lint, ...), so profile traces can
    /// carry correctness annotations. `severity` is `"error"` or
    /// `"warning"`; `checker` names the detector that fired.
    Finding {
        t: f64,
        checker: String,
        severity: String,
        kernel: String,
        message: String,
    },
    /// The measurement campaign resolved one run of its matrix against its
    /// caches. `t` is *wall-clock* seconds since the campaign started (a
    /// campaign spans many simulated runs, so simulated time is
    /// meaningless here). `hit` is false when the run had to be simulated;
    /// `disk` distinguishes an on-disk cache hit from an in-process memo
    /// hit.
    CacheLookup {
        t: f64,
        key: String,
        hit: bool,
        disk: bool,
    },
    /// Campaign execution progress: `done` of `total` planned runs have
    /// been resolved. `t` is wall-clock seconds since the campaign started.
    CampaignProgress { t: f64, done: u32, total: u32 },
    /// Instruction-class energy attribution of a finished run: the energy
    /// charged to one class (`"fp32"`, `"ldst"`, `"static"`,
    /// `"unmodeled"`, ...). Emitted once per class at the end of the
    /// trace; summing `energy_j` over all classes of a run reproduces the
    /// board-integral energy, residual included.
    ClassEnergy {
        t: f64,
        class: String,
        energy_j: f64,
    },
}

impl Event {
    /// Stable tag used by all exporters.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::ConfigSnapshot { .. } => "config",
            Event::KernelLaunch { .. } => "kernel_launch",
            Event::KernelRetire { .. } => "kernel_retire",
            Event::BlockDispatch { .. } => "block_dispatch",
            Event::BlockComplete { .. } => "block_complete",
            Event::SmInterval { .. } => "sm_interval",
            Event::BoardInterval { .. } => "board_interval",
            Event::DramInterval { .. } => "dram_interval",
            Event::DramContentionOpen { .. } => "dram_contention_open",
            Event::DramContentionClose { .. } => "dram_contention_close",
            Event::SensorSample { .. } => "sensor_sample",
            Event::SensorRateSwitch { .. } => "sensor_rate_switch",
            Event::ThresholdCross { .. } => "threshold_cross",
            Event::Finding { .. } => "finding",
            Event::CacheLookup { .. } => "cache_lookup",
            Event::CampaignProgress { .. } => "campaign_progress",
            Event::ClassEnergy { .. } => "class_energy",
        }
    }

    /// The event's (start) timestamp in simulated seconds.
    pub fn time(&self) -> f64 {
        match *self {
            Event::ConfigSnapshot { t, .. }
            | Event::KernelLaunch { t, .. }
            | Event::KernelRetire { t, .. }
            | Event::BlockDispatch { t, .. }
            | Event::BlockComplete { t, .. }
            | Event::DramContentionOpen { t, .. }
            | Event::DramContentionClose { t }
            | Event::SensorSample { t, .. }
            | Event::SensorRateSwitch { t, .. }
            | Event::ThresholdCross { t, .. } => t,
            Event::Finding { t, .. } => t,
            Event::CacheLookup { t, .. }
            | Event::CampaignProgress { t, .. }
            | Event::ClassEnergy { t, .. } => t,
            Event::SmInterval { t0, .. }
            | Event::BoardInterval { t0, .. }
            | Event::DramInterval { t0, .. } => t0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique() {
        let evs = [
            Event::ConfigSnapshot {
                t: 0.0,
                core_mhz: 705.0,
                mem_mhz: 2600.0,
                ecc: false,
            },
            Event::KernelLaunch {
                t: 0.0,
                launch: 0,
                name: "k".into(),
                grid: 1,
                block_threads: 32,
            },
            Event::KernelRetire {
                t: 0.0,
                launch: 0,
                duration_s: 0.0,
                energy_j: 0.0,
            },
            Event::BlockDispatch {
                t: 0.0,
                launch: 0,
                block: 0,
                sm: 0,
                slot: 1,
            },
            Event::BlockComplete {
                t: 0.0,
                launch: 0,
                block: 0,
                sm: 0,
            },
            Event::SmInterval {
                t0: 0.0,
                t1: 1.0,
                sm: 0,
                watts: 0.0,
                issue_frac: 0.0,
                resident: 0,
            },
            Event::BoardInterval {
                t0: 0.0,
                t1: 1.0,
                watts: 0.0,
                phase: BoardPhase::Idle,
            },
            Event::DramInterval {
                t0: 0.0,
                t1: 1.0,
                bytes_per_s: 0.0,
                demanders: 0,
            },
            Event::DramContentionOpen {
                t: 0.0,
                demanders: 2,
            },
            Event::DramContentionClose { t: 0.0 },
            Event::SensorSample {
                t: 0.0,
                watts: 0.0,
                rate_hz: 1.0,
            },
            Event::SensorRateSwitch {
                t: 0.0,
                rate_hz: 10.0,
            },
            Event::ThresholdCross {
                t: 0.0,
                watts: 0.0,
                threshold_w: 0.0,
                rising: true,
            },
            Event::Finding {
                t: 0.0,
                checker: "race-shared".into(),
                severity: "error".into(),
                kernel: "k".into(),
                message: "m".into(),
            },
            Event::CacheLookup {
                t: 0.0,
                key: "v1|lbfs@k5".into(),
                hit: true,
                disk: false,
            },
            Event::CampaignProgress {
                t: 0.0,
                done: 3,
                total: 136,
            },
            Event::ClassEnergy {
                t: 11.2,
                class: "fp32".into(),
                energy_j: 42.0,
            },
        ];
        let tags: std::collections::HashSet<&str> = evs.iter().map(|e| e.tag()).collect();
        assert_eq!(tags.len(), evs.len());
    }

    #[test]
    fn time_reads_start_of_intervals() {
        let e = Event::SmInterval {
            t0: 2.5,
            t1: 3.0,
            sm: 1,
            watts: 10.0,
            issue_frac: 0.5,
            resident: 2,
        };
        assert_eq!(e.time(), 2.5);
    }

    #[test]
    fn board_phase_roundtrip() {
        // The names the Chrome, JSONL and CSV exports write.
        let names = [
            BoardPhase::Idle,
            BoardPhase::Gap,
            BoardPhase::KernelStatic,
            BoardPhase::Tail,
        ]
        .map(BoardPhase::name);
        assert_eq!(names, ["idle", "gap", "kernel_static", "tail"]);
    }
}
