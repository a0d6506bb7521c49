//! # sim-serve
//!
//! Characterization-as-a-service: a dependency-free HTTP/1.1 JSON service
//! over `std::net` that exposes the [`characterize`] measurement campaign
//! to remote clients. One long-lived [`Campaign`] backs every request, so
//! the service inherits the campaign's cache layers (in-process memo,
//! condvar in-flight dedup, on-disk records, and the trace DB whose
//! recorded launch traces replay later configurations without functional
//! execution): N identical concurrent requests cost one simulation, and a
//! warm cache serves paper artifacts byte-identical to `repro` without
//! simulating at all.
//!
//! ## Endpoints
//!
//! | Route | What it does |
//! |---|---|
//! | `POST /v1/runs` | Measure one workload × input × config × reps |
//! | `POST /v1/sweep` | Clock-grid sweep → Pareto frontier of energy vs runtime |
//! | `GET /v1/artifacts/{name}` | A paper table/figure, byte-identical to `repro` |
//! | `GET /v1/workloads` | The discoverable request space |
//! | `GET /healthz` | Liveness (`ok` / `draining`) |
//! | `GET /metrics` | Queue, campaign-cache, and latency metrics — JSON by default, Prometheus text exposition via `?format=prometheus` or `Accept: text/plain` |
//!
//! Long-running requests can append `?stream=1` to receive chunked NDJSON:
//! `progress` lines fed by the campaign's [`sim_telemetry`] events, then
//! one terminal `result` line. Every request gets a monotone id, returned
//! as `X-Request-Id`, stamped on each NDJSON line, and printed in the
//! stderr access log.
//!
//! ## Admission control
//!
//! Every measurement runs on a fixed worker pool fed by a bounded queue
//! ([`queue::JobQueue`]) — the single admission point. A full queue sheds
//! load immediately (`503` + `Retry-After`) instead of letting latency
//! grow; request size limits are enforced while reading; a graceful drain
//! (SIGTERM/SIGINT or [`Server::shutdown_handle`]) stops accepting, runs
//! the admitted backlog to completion, and exits cleanly.
//!
//! Request and response bodies go through the workspace's one JSON codec,
//! [`sim_telemetry::json`], re-exported here as [`json`].
//!
//! See `docs/SERVE.md` for the full API reference and semantics.
//!
//! [`Campaign`]: characterize::campaign::Campaign

pub mod api;
pub mod client;
pub mod dispatch;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod server;

pub use sim_telemetry::json;

pub use api::{ApiError, MAX_SWEEP_POINTS};
pub use client::{ClientResponse, ClientStats, HttpClient};
pub use dispatch::{hrw_owner, DispatchConfig, Dispatcher};
pub use http::{Limits, Request, Response};
pub use metrics::{nearest_rank_ms, Endpoint, Metrics};
pub use queue::{JobQueue, SubmitError};
pub use server::{
    install_signal_handlers, signal_shutdown_requested, ServeState, Server, ServerConfig,
};
