//! # sim-telemetry
//!
//! Structured event telemetry for the GPGPU characterization stack.
//!
//! The paper's argument rests on *seeing inside* a run — active-runtime
//! windows, power phases, and why irregular codes respond super-linearly to
//! clock changes — yet a simulator is all too easy to treat as a black box
//! that emits end-of-run aggregates. This crate is the observability
//! substrate for the whole workspace:
//!
//! * [`TelemetrySink`] — the hook trait. The `kepler-sim` scheduler and
//!   device call it at every structured event (kernel launch/retire, block
//!   dispatch/completion with SM id, per-interval per-SM power,
//!   DRAM-contention open/close, clock/ECC configuration), and `gpower`
//!   calls it at sensor-sample and threshold-crossing events. Instrumented
//!   code holds an `Option<&dyn TelemetrySink>` and constructs events only
//!   when a sink is attached, so the un-instrumented path costs a single
//!   branch on a `None`.
//! * [`EventTrace`] — a bounded ring-buffer recorder implementing the sink:
//!   memory use is capped at construction; when full, the oldest events are
//!   overwritten and counted in [`EventTrace::dropped`].
//! * [`timeline`] — post-hoc reductions of an event stream into per-SM
//!   occupancy / issue-utilization / energy lanes and a DRAM-bandwidth
//!   timeline, aligned to the ground-truth power trace (the sum of per-SM
//!   and board-level interval energy reproduces `PowerTrace::total_energy`
//!   to float precision, because both integrate the same intervals).
//! * [`export`] — Chrome Trace Event JSON (loadable in `chrome://tracing`
//!   or `ui.perfetto.dev`), JSONL and CSV. Each event has one field list,
//!   [`Event::to_json`], that JSONL and CSV share. The exports are
//!   write-only: nothing reads JSONL back into events.
//! * [`json`] — the workspace's one JSON codec: a fuzzed RFC 8259 parser
//!   and a deterministic writer. The exporters, the sanitizer and analyzer
//!   reports and the `sim-serve` HTTP layer all write JSON through it.
//! * [`subscribe`] — a [`FanoutSink`] broadcasting live events to bounded
//!   per-consumer channels, for long-running consumers (the `sim-serve`
//!   HTTP layer streams `CampaignProgress` to clients through one).
//!
//! The crate is dependency-free and sits *below* `gpower`/`kepler-sim` so
//! both can emit events without a dependency cycle; it therefore speaks in
//! plain numbers (seconds, watts) rather than simulator types. Being at the
//! bottom of the graph is also why the JSON codec lives here: every crate
//! that writes JSON already links this one.

pub mod event;
pub mod export;
pub mod json;
pub mod ring;
pub mod sink;
pub mod subscribe;
pub mod timeline;

pub use event::{BoardPhase, Event};
pub use export::{chrome_trace, csv, jsonl, CSV_HEADER};
pub use ring::EventTrace;
pub use sink::{NoopSink, TelemetrySink};
pub use subscribe::{FanoutSink, Subscription};
pub use timeline::{build_timeline, DramSeg, SmLane, SmSeg, Timeline};
