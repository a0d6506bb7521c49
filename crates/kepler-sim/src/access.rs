//! Functional-layer access observation: the hook the sanitizer consumes.
//!
//! A [`AccessObserver`] attached with
//! [`crate::Device::set_access_observer`] receives every per-thread memory
//! access the functional layer executes — with block/thread identity and the
//! barrier epoch (*phase*) it happened in — plus buffer-lifecycle and
//! launch-lifecycle events. This is the raw material for
//! `compute-sanitizer`-style analyses (race detection, bounds checking,
//! uninitialized-read tracking) built outside this crate.
//!
//! Observation changes nothing about a run except out-of-bounds behaviour:
//! with an observer attached, an OOB access is reported via the event's
//! `oob` flag and then *skipped* (loads return `T::default()`, stores are
//! dropped), the way `compute-sanitizer` keeps a patched kernel running.
//! Without an observer the functional layer panics on OOB, as before.

use crate::counters::LaunchStats;

/// Which address space an access touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device global memory (a [`crate::DevBuffer`]).
    Global,
    /// Block-local shared memory (a [`crate::SharedBuf`]).
    Shared,
}

/// What an access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
    /// Atomic read-modify-write (including CAS). Counts as both a read and
    /// a write, but two atomics to the same word never race.
    Atomic,
    /// Reduction (`red`): an atomic update whose old value the thread
    /// never sees. Races like an [`AccessKind::Atomic`]; reported apart
    /// so a declared reduce span admits reductions and nothing else.
    Reduce,
}

/// One observed per-thread memory access.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// Launch index within the device's lifetime (0 outside a launch).
    pub launch: u32,
    /// Block index within the grid.
    pub block: u32,
    /// Thread index within the block.
    pub tid: u32,
    /// Barrier epoch within the block: the number of completed
    /// `__syncthreads()` phases before this access.
    pub phase: u32,
    pub space: MemSpace,
    pub kind: AccessKind,
    /// Buffer identity: the [`crate::DevBuffer`] id for global accesses,
    /// the shared-memory slot index for shared accesses.
    pub buffer: u32,
    /// Element index within the buffer.
    pub index: u64,
    /// Byte address: the flat device address for global accesses, the
    /// block-local shared-memory byte offset for shared accesses. Distinct
    /// elements always have distinct addresses, so equality of `addr` is
    /// equality of the accessed location.
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u32,
    /// The index was outside the buffer's extent. The access was skipped
    /// functionally (see module docs); `addr` is still the would-be target.
    pub oob: bool,
}

/// The event stream an [`AccessObserver`] receives.
#[derive(Debug)]
pub enum AccessEvent<'a> {
    /// A device buffer was allocated. `initialized` is false for plain
    /// `alloc` (the `cudaMalloc` analogue: contents must be written before
    /// being read) and true for `alloc_init`/`alloc_from`.
    BufferAlloc {
        id: u32,
        base: u64,
        len: u64,
        elem_bytes: u32,
        initialized: bool,
    },
    /// The host wrote elements `[lo, hi)` of a buffer (`write`, `write_at`,
    /// `fill`).
    BufferHostWrite { id: u32, lo: u64, hi: u64 },
    /// A human-readable name for a buffer, for reports.
    BufferLabel { id: u32, label: &'a str },
    /// A kernel launch is starting; per-thread `Access` events follow.
    LaunchBegin {
        launch: u32,
        kernel: &'a str,
        grid: u32,
        block_threads: u32,
        regs_per_thread: u32,
        shared_bytes: u32,
    },
    /// One per-thread memory access.
    Access(Access),
    /// A block finished. `phases` counts its barrier epochs; `syncs` holds
    /// per-thread explicit [`crate::ThreadCtx::sync`] counts (empty when no
    /// thread called `sync`).
    BlockEnd {
        launch: u32,
        block: u32,
        phases: u32,
        syncs: &'a [u32],
    },
    /// The launch retired; `stats` carries its aggregated counters.
    LaunchEnd { launch: u32, stats: &'a LaunchStats },
}

/// Receiver for the functional layer's access stream. Implementations must
/// be internally synchronized (`&self` methods): one device drives one
/// observer, but harnesses run devices on several threads.
pub trait AccessObserver: Send + Sync {
    fn observe(&self, ev: AccessEvent<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Counting(Mutex<Vec<&'static str>>);
    impl AccessObserver for Counting {
        fn observe(&self, ev: AccessEvent<'_>) {
            let tag = match ev {
                AccessEvent::BufferAlloc { .. } => "alloc",
                AccessEvent::BufferHostWrite { .. } => "host-write",
                AccessEvent::BufferLabel { .. } => "label",
                AccessEvent::LaunchBegin { .. } => "begin",
                AccessEvent::Access(_) => "access",
                AccessEvent::BlockEnd { .. } => "block-end",
                AccessEvent::LaunchEnd { .. } => "end",
            };
            self.0.lock().unwrap().push(tag);
        }
    }

    #[test]
    fn observer_trait_is_object_safe() {
        let obs = Counting(Mutex::new(Vec::new()));
        let dyn_obs: &dyn AccessObserver = &obs;
        dyn_obs.observe(AccessEvent::BufferLabel { id: 0, label: "x" });
        assert_eq!(*obs.0.lock().unwrap(), vec!["label"]);
    }
}
