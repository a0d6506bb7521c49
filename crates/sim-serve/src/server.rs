//! The HTTP server: accept loop, routing, the job-queue bridge, NDJSON
//! progress streaming, and graceful drain.
//!
//! Threading model: one acceptor (the caller of [`Server::run`]), one
//! thread per connection serving as many requests as the client pipelines
//! over it (HTTP/1.1 keep-alive; `Connection: close`, streamed responses,
//! parse errors, and drain all end the connection), and the fixed
//! [`JobQueue`] worker pool. Connection threads only parse/validate and
//! wait; every call that can touch the simulator runs on a queue worker,
//! so the queue capacity is the service's single admission-control knob.
//! Identical concurrent requests all enter the queue but the [`Campaign`]
//! underneath collapses them onto one simulation via its in-flight dedup.

use crate::api::{self, ApiError};
use crate::dispatch::{DispatchConfig, Dispatcher};
use crate::http::{
    read_request, write_response, write_response_conn, ChunkedResponse, Limits, ReadError, Request,
    Response,
};
use crate::json::Json;
use crate::metrics::{Endpoint, Metrics};
use crate::queue::{JobQueue, SubmitError};
use characterize::artifact::Artifact;
use characterize::campaign::{Campaign, CampaignConfig};
use sim_telemetry::{Event, FanoutSink, TelemetrySink};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8077` (port 0 for ephemeral).
    pub addr: String,
    /// Queue worker threads executing measurement jobs.
    pub workers: usize,
    /// Maximum queued (not yet executing) jobs before load is shed.
    pub queue_capacity: usize,
    /// Campaign cache directory (`None`: in-process memo only).
    pub cache_dir: Option<PathBuf>,
    /// Launch-trace database directory (`None`: the traces live in memory
    /// for the server's lifetime). Functional runs record launch traces
    /// and later units — any clock/ECC configuration, any repetition — are
    /// re-simulated from them without functional execution, which is what
    /// lets `POST /v1/sweep` serve fine grids cheaply. A directory keeps
    /// the traces for later processes. See `docs/TRACE.md`.
    pub trace_dir: Option<PathBuf>,
    /// Wall-clock budget for one queued job (`504` after; the job keeps
    /// running and its result lands in the cache).
    pub request_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub keepalive_idle: Duration,
    /// Read limits for one request.
    pub limits: Limits,
    /// Worker addresses for coordinator mode (empty: serve everything in
    /// this process). Workers must share this server's `cache_dir` — the
    /// disk cache is the distributed result store (docs/DISTRIBUTED.md).
    pub dispatch: DispatchConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8077".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_dir: None,
            trace_dir: None,
            request_timeout: Duration::from_secs(300),
            keepalive_idle: Duration::from_secs(10),
            limits: Limits::default(),
            dispatch: DispatchConfig::default(),
        }
    }
}

// -- signal handling --------------------------------------------------------

/// Set by the SIGTERM/SIGINT handler; checked by every accept-loop pass.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install SIGTERM and SIGINT handlers that request a graceful drain.
///
/// Uses the platform `signal(2)` that `std` already links — storing one
/// atomic flag is async-signal-safe, and the accept loop polls the flag,
/// so no self-pipe is needed.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
        signal(SIGINT, on_shutdown_signal as *const () as usize);
    }
}

/// Whether a drain-requesting signal has been received.
pub fn signal_shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

// -- shared state -----------------------------------------------------------

/// Everything connection handlers and queue workers share.
pub struct ServeState {
    pub campaign: Campaign,
    pub fanout: Arc<FanoutSink>,
    pub metrics: Metrics,
    /// Coordinator-mode dispatcher (`None` when serving single-process).
    pub dispatch: Option<Dispatcher>,
    queue: JobQueue,
    limits: Limits,
    request_timeout: Duration,
    keepalive_idle: Duration,
    started: Instant,
    draining: AtomicBool,
    /// Live connection-handler count, guarded by a mutex (not an atomic)
    /// so the drain in [`Server::run`] can *wait on* it: every decrement
    /// signals `conn_done`, and the drain sleeps on the condvar instead of
    /// polling the count on a timer.
    connections: Mutex<usize>,
    conn_done: Condvar,
    request_seq: AtomicU64,
}

impl ServeState {
    fn connection_opened(&self) {
        *self.connections.lock().unwrap() += 1;
    }

    fn connection_closed(&self) {
        let mut live = self.connections.lock().unwrap();
        *live -= 1;
        if *live == 0 {
            self.conn_done.notify_all();
        }
    }

    /// The next request id: a monotone per-server sequence number. It is
    /// returned as `X-Request-Id`, stamped on every NDJSON stream line,
    /// and printed in the access log, so one request can be followed
    /// across all three.
    fn next_request_id(&self) -> String {
        format!(
            "req-{:06}",
            self.request_seq.fetch_add(1, Ordering::Relaxed) + 1
        )
    }
}

/// A validated request, packaged for a queue worker to execute.
type MeasurementJob = Box<dyn FnOnce(&ServeState) -> JobReply + Send>;

/// What a queued job produces: status + payload, composable into either a
/// fixed response or the final line of an NDJSON stream.
enum JobReply {
    Json(u16, Json),
    Text(u16, String),
}

impl JobReply {
    fn into_response(self) -> Response {
        match self {
            JobReply::Json(status, body) => Response::json(status, body.dump()),
            JobReply::Text(status, body) => Response::text(status, body),
        }
    }

    /// The `result` NDJSON line:
    /// `{"event":"result","id":...,"status":...,"body":...}`.
    fn into_stream_line(self, rid: &str) -> String {
        let (status, body) = match self {
            JobReply::Json(s, b) => (s, b),
            JobReply::Text(s, t) => (s, Json::Str(t)),
        };
        Json::obj([
            ("event", Json::str("result")),
            ("id", Json::str(rid)),
            ("status", Json::num(status as f64)),
            ("body", body),
        ])
        .dump()
    }
}

/// One access-log line per request on stderr, carrying the same id the
/// client saw in `X-Request-Id` / the NDJSON stream.
fn log_access(rid: &str, method: &str, path: &str, status: u16, t0: Instant) {
    eprintln!(
        "[sim-serve] {rid} {method} {path} -> {status} in {:.3} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );
}

fn api_error_reply(e: &ApiError) -> JobReply {
    JobReply::Json(e.status, e.body())
}

fn error_response(status: u16, code: &'static str, message: impl Into<String>) -> Response {
    Response::json(status, ApiError::new(status, code, message).body().dump())
}

// -- the server -------------------------------------------------------------

/// A bound, not-yet-running service instance.
pub struct Server {
    state: Arc<ServeState>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listener and build the shared state (campaign wired to a
    /// fanout sink so clients can stream progress).
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let fanout = Arc::new(FanoutSink::new());
        let campaign = Campaign::new(CampaignConfig {
            cache_dir: cfg.cache_dir.clone(),
            telemetry: Some(Arc::clone(&fanout) as Arc<dyn TelemetrySink>),
            trace_dir: cfg.trace_dir.clone(),
        });
        let state = Arc::new(ServeState {
            campaign,
            fanout,
            metrics: Metrics::new(),
            dispatch: if cfg.dispatch.workers.is_empty() {
                None
            } else {
                Some(Dispatcher::new(cfg.dispatch.clone()))
            },
            queue: JobQueue::new(cfg.queue_capacity, cfg.workers),
            limits: cfg.limits,
            request_timeout: cfg.request_timeout,
            keepalive_idle: cfg.keepalive_idle,
            started: Instant::now(),
            draining: AtomicBool::new(false),
            connections: Mutex::new(0),
            conn_done: Condvar::new(),
            request_seq: AtomicU64::new(0),
        });
        Ok(Server {
            state,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// A flag that stops the accept loop when set (the programmatic
    /// equivalent of SIGTERM; tests use it).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve until shutdown is requested (handle or signal), then drain:
    /// stop accepting, finish every admitted job, join the workers, wait
    /// for in-flight connections.
    pub fn run(self) {
        // Nonblocking accept polled with exponential idle backoff: a burst
        // is accepted back-to-back with ~1ms wake-up latency, while an idle
        // listener costs ~60 polls/s. (Polling a flag instead of blocking
        // in accept keeps shutdown signal-handling async-signal-safe.)
        let mut idle_sleep_ms = 1u64;
        loop {
            if self.shutdown.load(Ordering::SeqCst) || signal_shutdown_requested() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    idle_sleep_ms = 1;
                    let state = Arc::clone(&self.state);
                    state.connection_opened();
                    std::thread::Builder::new()
                        .name("sim-serve-conn".to_string())
                        .spawn(move || {
                            handle_connection(&state, stream);
                            state.connection_closed();
                        })
                        .expect("spawn connection handler");
                }
                Err(_) => {
                    // WouldBlock or a transient accept error: back off.
                    std::thread::sleep(Duration::from_millis(idle_sleep_ms));
                    idle_sleep_ms = (idle_sleep_ms * 2).min(16);
                }
            }
        }
        // Drain: no new connections are accepted past this point; new
        // submissions see `Closed` and answer 503.
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.queue.drain();
        // Wait (bounded) for in-flight connection threads — now at most
        // waiting on the drained queue or writing responses. Event-driven:
        // each closing connection signals the condvar, so the drain returns
        // the moment the last one finishes instead of discovering it on the
        // next poll tick.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut live = self.state.connections.lock().unwrap();
        while *live > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _) = self
                .state
                .conn_done
                .wait_timeout(live, deadline - now)
                .unwrap();
            live = g;
        }
    }
}

// -- connection handling ----------------------------------------------------

/// Why the between-requests idle wait ended.
enum IdleOutcome {
    /// Bytes are buffered (or just arrived): parse the next request.
    Data,
    /// EOF, idle timeout, drain, or a socket error: close silently.
    Close,
}

/// Wait for the next pipelined request on a keep-alive connection.
///
/// Polls `fill_buf` in short read-timeout slices so an idle connection
/// notices a drain within one slice instead of holding the drain hostage
/// for the full idle budget. Already-buffered bytes (a pipelined request)
/// return immediately without touching the socket.
fn await_next_request(
    state: &Arc<ServeState>,
    reader: &mut BufReader<TcpStream>,
    idle_budget: Duration,
) -> IdleOutcome {
    use std::io::BufRead;
    const POLL_SLICE: Duration = Duration::from_millis(250);
    let deadline = Instant::now() + idle_budget;
    loop {
        if state.draining.load(Ordering::SeqCst) {
            return IdleOutcome::Close;
        }
        let _ = reader.get_ref().set_read_timeout(Some(POLL_SLICE));
        match reader.fill_buf() {
            Ok([]) => return IdleOutcome::Close, // clean EOF
            Ok(_) => return IdleOutcome::Data,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return IdleOutcome::Close;
                }
            }
            Err(_) => return IdleOutcome::Close,
        }
    }
}

fn handle_connection(state: &Arc<ServeState>, stream: TcpStream) {
    // Accepted sockets must be blocking regardless of the listener's mode.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    // Keep-alive loop: serve requests until the client closes, asks for
    // `Connection: close`, idles out, errors, or the server drains.
    loop {
        match await_next_request(state, &mut reader, state.keepalive_idle) {
            IdleOutcome::Data => {}
            IdleOutcome::Close => return,
        }
        // A request has started arriving: give the rest of it a firm
        // deadline so a stalled sender cannot park the thread.
        let _ = reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)));
        let t0 = Instant::now();
        let rid = state.next_request_id();
        match read_request(&mut reader, &state.limits) {
            Err(ReadError::Closed) => return,
            Err(ReadError::Io(_)) => {
                let _ = write_response(
                    &mut writer,
                    &error_response(408, "request_timeout", "timed out reading the request")
                        .with_header("X-Request-Id", rid.clone()),
                );
                state.metrics.observe(Endpoint::Other, 408, t0.elapsed());
                log_access(&rid, "-", "-", 408, t0);
                return;
            }
            Err(ReadError::Bad { status, message }) => {
                let _ = write_response(
                    &mut writer,
                    &error_response(status, "bad_request", message)
                        .with_header("X-Request-Id", rid.clone()),
                );
                state.metrics.observe(Endpoint::Other, status, t0.elapsed());
                log_access(&rid, "-", "-", status, t0);
                return;
            }
            Ok(req) => {
                // Framing errors close above, so persistence is purely the
                // client's call — unless we are draining, in which case the
                // response carries `Connection: close` and we hang up.
                let keep = !req.wants_close() && !state.draining.load(Ordering::SeqCst);
                if !dispatch(state, &req, &mut writer, t0, &rid, keep) {
                    return;
                }
            }
        }
    }
}

fn endpoint_of(req: &Request) -> Endpoint {
    match (req.method.as_str(), req.path.as_str()) {
        (_, "/v1/runs") => Endpoint::Runs,
        (_, "/v1/sweep") => Endpoint::Sweep,
        (_, "/v1/units") => Endpoint::Units,
        (_, p) if p == "/v1/artifacts" || p.starts_with("/v1/artifacts/") => Endpoint::Artifacts,
        (_, "/healthz") => Endpoint::Healthz,
        (_, "/metrics") => Endpoint::Metrics,
        _ => Endpoint::Other,
    }
}

fn wants_stream(req: &Request) -> bool {
    matches!(req.query_param("stream"), Some("1") | Some("true"))
}

/// Route one parsed request and write its response. Returns whether the
/// connection stays open for another request (`keep` was honored): fixed
/// responses honor it; streamed (chunked) responses always close.
fn dispatch(
    state: &Arc<ServeState>,
    req: &Request,
    writer: &mut impl std::io::Write,
    t0: Instant,
    rid: &str,
    keep: bool,
) -> bool {
    let endpoint = endpoint_of(req);
    // The cheap, never-queued endpoints answer inline even mid-drain.
    let inline: Option<Response> = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Some(healthz(state)),
        ("GET", "/metrics") => Some(if wants_prometheus(req) {
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: prometheus_body(state).into_bytes(),
                extra_headers: Vec::new(),
            }
        } else {
            Response::json(200, metrics_body(state).dump())
        }),
        ("GET", "/v1/workloads") => Some(Response::json(200, api::workloads_response().dump())),
        ("GET", "/v1/artifacts") => Some(Response::json(
            200,
            Json::obj([(
                "artifacts",
                Json::Arr(
                    Artifact::VARIANTS
                        .iter()
                        .map(|a| Json::str(a.name()))
                        .collect(),
                ),
            )])
            .dump(),
        )),
        ("GET", "/v1/runs") | ("GET", "/v1/sweep") | ("GET", "/v1/units") => Some(
            error_response(405, "method_not_allowed", "use POST")
                .with_header("Allow", "POST".to_string()),
        ),
        ("POST", p) if p == "/v1/artifacts" || p.starts_with("/v1/artifacts/") => Some(
            error_response(405, "method_not_allowed", "use GET")
                .with_header("Allow", "GET".to_string()),
        ),
        ("POST", "/v1/runs") | ("POST", "/v1/sweep") | ("POST", "/v1/units") => None,
        ("GET", p) if p.starts_with("/v1/artifacts/") => None,
        _ => Some(error_response(
            404,
            "not_found",
            format!("no route for {} {}", req.method, req.path),
        )),
    };
    if let Some(resp) = inline {
        let resp = resp.with_header("X-Request-Id", rid.to_string());
        let status = resp.status;
        let ok = write_response_conn(writer, &resp, keep).is_ok();
        state.metrics.observe(endpoint, status, t0.elapsed());
        log_access(rid, &req.method, &req.path, status, t0);
        return keep && ok;
    }

    // Queued endpoints: validate inline (cheap, shed bad input before it
    // costs a queue slot), then hand the measurement to a worker.
    let job: MeasurementJob = match build_job(req) {
        Ok(job) => job,
        Err(e) => {
            let ok = write_response_conn(
                writer,
                &Response::json(e.status, e.body().dump())
                    .with_header("X-Request-Id", rid.to_string()),
                keep,
            )
            .is_ok();
            state.metrics.observe(endpoint, e.status, t0.elapsed());
            log_access(rid, &req.method, &req.path, e.status, t0);
            return keep && ok;
        }
    };

    if wants_stream(req) {
        let status = run_streaming(state, job, writer, rid);
        state.metrics.observe(endpoint, status, t0.elapsed());
        log_access(rid, &req.method, &req.path, status, t0);
        // Streamed responses are `Connection: close` by construction.
        false
    } else {
        let resp = match submit(state, job) {
            Ok(rx) => rx
                .recv_timeout(state.request_timeout)
                .unwrap_or_else(wait_failure)
                .into_response(),
            Err(shed) => shed,
        }
        .with_header("X-Request-Id", rid.to_string());
        let status = resp.status;
        let ok = write_response_conn(writer, &resp, keep).is_ok();
        state.metrics.observe(endpoint, status, t0.elapsed());
        log_access(rid, &req.method, &req.path, status, t0);
        keep && ok
    }
}

/// `/metrics` content negotiation: Prometheus text exposition on
/// `?format=prometheus` or a text-preferring `Accept` header; JSON stays
/// the default.
fn wants_prometheus(req: &Request) -> bool {
    if let Some(f) = req.query_param("format") {
        return f == "prometheus";
    }
    req.header("accept")
        .is_some_and(|a| a.contains("text/plain") || a.contains("openmetrics"))
}

/// Parse + validate one queued request into its worker-side job.
fn build_job(req: &Request) -> Result<MeasurementJob, ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        // In coordinator mode each job first fans its unit matrix out to
        // the workers (shared-cache side effects), then renders locally
        // from the warm cache — the render path is the single-process one,
        // so responses are byte-identical either way.
        ("POST", "/v1/runs") => {
            let params = api::parse_run_request(&req.body)?;
            Ok(Box::new(move |st: &ServeState| {
                if let Some(d) = &st.dispatch {
                    d.execute(&api::run_units(&params), &st.campaign);
                }
                match api::run_response(&st.campaign, &params) {
                    Ok(body) => JobReply::Json(200, body),
                    Err(e) => api_error_reply(&e),
                }
            }))
        }
        ("POST", "/v1/sweep") => {
            let params = api::parse_sweep_request(&req.body)?;
            Ok(Box::new(move |st: &ServeState| {
                if let Some(d) = &st.dispatch {
                    d.execute(&api::sweep_units(&params), &st.campaign);
                }
                JobReply::Json(200, api::sweep_response(&st.campaign, &params))
            }))
        }
        ("POST", "/v1/units") => {
            let units = api::parse_units_request(&req.body)?;
            Ok(Box::new(move |st: &ServeState| {
                JobReply::Json(200, api::units_response(&st.campaign, &units))
            }))
        }
        ("GET", path) => {
            // Without `reps`, the paper's three repetitions: the bodies
            // then match `repro` and the goldens.
            let reps = match req.query_param("reps") {
                None | Some("3") => 3,
                Some("1") => 1,
                Some(other) => {
                    return Err(ApiError::new(
                        400,
                        "invalid_reps",
                        format!("reps must be 1 or 3, got {other:?}"),
                    ))
                }
            };
            // Reject unknown names before spending a queue slot.
            let artifact =
                api::lookup_artifact(path.strip_prefix("/v1/artifacts/").unwrap_or_default())?;
            Ok(Box::new(move |st: &ServeState| {
                if let Some(d) = &st.dispatch {
                    d.execute(&api::artifact_units(artifact, reps), &st.campaign);
                }
                JobReply::Text(200, api::artifact_text(&st.campaign, artifact, reps))
            }))
        }
        _ => unreachable!("dispatch routes only queued endpoints here"),
    }
}

/// Admit a job to the queue. The receiver yields its reply; a shed job
/// (queue full, or draining) gets its `503` response with `Retry-After`.
fn submit(
    state: &Arc<ServeState>,
    job: MeasurementJob,
) -> Result<mpsc::Receiver<JobReply>, Response> {
    let (tx, rx) = mpsc::sync_channel::<JobReply>(1);
    let st = Arc::clone(state);
    let shed = match state.queue.submit(move || {
        let _ = tx.send(job(&st));
    }) {
        Ok(()) => return Ok(rx),
        Err(SubmitError::Full) => ApiError::new(
            503,
            "queue_full",
            format!(
                "job queue at capacity ({}); retry shortly",
                state.queue.capacity()
            ),
        ),
        Err(SubmitError::Closed) => {
            ApiError::new(503, "draining", "server is draining for shutdown")
        }
    };
    Err(Response::json(503, shed.body().dump()).with_header("Retry-After", "1".to_string()))
}

/// The reply that stands in for an admitted job's own when the wait for
/// it fails: `504` past the request timeout, `500` if the job panicked.
fn wait_failure(e: mpsc::RecvTimeoutError) -> JobReply {
    let err = match e {
        // The job keeps running; its result lands in the cache.
        mpsc::RecvTimeoutError::Timeout => ApiError::new(
            504,
            "deadline_exceeded",
            "the job exceeded the request timeout; it keeps running and its \
             result will be served from cache on retry",
        ),
        // The worker caught a panic in this job; its sender is gone.
        mpsc::RecvTimeoutError::Disconnected => {
            ApiError::new(500, "internal", "the job failed unexpectedly")
        }
    };
    api_error_reply(&err)
}

/// Streamed execution: a `200` chunked NDJSON response carrying
/// `progress` lines (campaign-global `CampaignProgress` events) and one
/// terminal `result` line. A shed job gets the plain request's `503`
/// instead. Returns the status recorded in metrics.
fn run_streaming(
    state: &Arc<ServeState>,
    job: MeasurementJob,
    writer: &mut impl std::io::Write,
    rid: &str,
) -> u16 {
    // Subscribe before submitting so no progress is missed.
    let sub = state
        .fanout
        .subscribe_filtered(|e| matches!(e, Event::CampaignProgress { .. }));
    let rx = match submit(state, job) {
        Ok(rx) => rx,
        Err(shed) => {
            let _ = write_response(writer, &shed.with_header("X-Request-Id", rid.to_string()));
            return 503;
        }
    };

    let mut chunked = match ChunkedResponse::start(
        writer,
        200,
        "application/x-ndjson",
        &[("X-Request-Id", rid.to_string())],
    ) {
        Ok(c) => c,
        Err(_) => return 200, // client went away; job still completes + caches
    };
    // Forward whatever progress queued up; false once the client hung up
    // (the job still finishes for the cache).
    let forward_progress = |chunked: &mut ChunkedResponse<_>| {
        sub.try_iter().all(|ev| {
            let Event::CampaignProgress { done, total, .. } = ev else {
                return true;
            };
            let line = Json::obj([
                ("event", Json::str("progress")),
                ("id", Json::str(rid)),
                ("done", Json::num(done as f64)),
                ("total", Json::num(total as f64)),
            ])
            .dump();
            chunked.chunk(format!("{line}\n").as_bytes()).is_ok()
        })
    };
    let deadline = Instant::now() + state.request_timeout;
    let reply = loop {
        if !forward_progress(&mut chunked) {
            return 200;
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() < deadline => {}
            done => {
                // Forward progress that raced the result (a fast job can
                // finish inside the first recv window) so the stream still
                // shows its progress lines before the terminal `result`.
                if !forward_progress(&mut chunked) {
                    return 200;
                }
                break done.unwrap_or_else(wait_failure);
            }
        }
    };
    let _ = chunked.chunk(format!("{}\n", reply.into_stream_line(rid)).as_bytes());
    let _ = chunked.finish();
    200
}

// -- cheap endpoints --------------------------------------------------------

fn healthz(state: &Arc<ServeState>) -> Response {
    let draining = state.draining.load(Ordering::SeqCst);
    Response::json(
        200,
        Json::obj([(
            "status",
            Json::str(if draining { "draining" } else { "ok" }),
        )])
        .dump(),
    )
}

/// The `/metrics` document: queue gauges, campaign cache counters, process
/// simulation witnesses and the trace DB's size, dispatch fan-out counters
/// (coordinator mode), stream subscriber count, and per-endpoint HTTP
/// latency histograms.
pub fn metrics_body(state: &Arc<ServeState>) -> Json {
    let stats = state.campaign.stats();
    let traces = state.campaign.trace_usage();
    let mut doc = Json::obj([
        (
            "uptime_s",
            Json::num((state.started.elapsed().as_secs_f64() * 1e3).round() / 1e3),
        ),
        (
            "queue",
            Json::obj([
                ("depth", Json::num(state.queue.depth() as f64)),
                ("active", Json::num(state.queue.active() as f64)),
                ("capacity", Json::num(state.queue.capacity() as f64)),
                ("workers", Json::num(state.queue.workers() as f64)),
            ]),
        ),
        (
            "campaign",
            Json::obj([
                ("simulated", Json::num(stats.simulated as f64)),
                ("memo_hits", Json::num(stats.memo_hits as f64)),
                ("disk_hits", Json::num(stats.disk_hits as f64)),
                ("disk_stale", Json::num(stats.disk_stale as f64)),
                ("disk_corrupt", Json::num(stats.disk_corrupt as f64)),
                ("in_flight", Json::num(stats.in_flight as f64)),
                ("cached_errors", Json::num(stats.cached_errors as f64)),
                ("trace_replays", Json::num(stats.trace_replays as f64)),
                ("trace_stale", Json::num(stats.trace_stale as f64)),
                ("trace_corrupt", Json::num(stats.trace_corrupt as f64)),
            ]),
        ),
        (
            "process",
            Json::obj([
                (
                    "devices_created",
                    Json::num(kepler_sim::devices_created() as f64),
                ),
                (
                    "devices_replayed",
                    Json::num(kepler_sim::devices_replayed() as f64),
                ),
                ("trace_db_traces", Json::num(traces.traces as f64)),
                ("trace_db_bytes", Json::num(traces.bytes as f64)),
            ]),
        ),
        (
            "stream_subscribers",
            Json::num(state.fanout.subscriber_count() as f64),
        ),
        ("http", state.metrics.to_json()),
    ]);
    if let Some(d) = &state.dispatch {
        if let Json::Obj(fields) = &mut doc {
            fields.push(("dispatch".to_string(), d.counters.to_json()));
        }
    }
    doc
}

fn push_gauge(out: &mut String, name: &str, help: &str, v: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
    ));
}

/// The Prometheus text-exposition rendering of the `/metrics` document:
/// the same gauges, counters, and histograms as [`metrics_body`], one
/// `# HELP`/`# TYPE`-annotated family per metric. Served on
/// `GET /metrics?format=prometheus` (or a text-preferring `Accept`).
pub fn prometheus_body(state: &Arc<ServeState>) -> String {
    let stats = state.campaign.stats();
    let mut out = String::new();
    push_gauge(
        &mut out,
        "simserve_uptime_seconds",
        "Seconds since the server started.",
        (state.started.elapsed().as_secs_f64() * 1e3).round() / 1e3,
    );
    push_gauge(
        &mut out,
        "simserve_queue_depth",
        "Jobs admitted but not yet executing.",
        state.queue.depth() as f64,
    );
    push_gauge(
        &mut out,
        "simserve_queue_active",
        "Jobs currently executing on workers.",
        state.queue.active() as f64,
    );
    push_gauge(
        &mut out,
        "simserve_queue_capacity",
        "Queue slots before load is shed.",
        state.queue.capacity() as f64,
    );
    push_gauge(
        &mut out,
        "simserve_queue_workers",
        "Measurement worker threads.",
        state.queue.workers() as f64,
    );
    out.push_str(concat!(
        "# HELP simserve_campaign_runs_total Campaign run units by outcome.\n",
        "# TYPE simserve_campaign_runs_total counter\n",
    ));
    for (outcome, v) in [
        ("simulated", stats.simulated),
        ("memo_hits", stats.memo_hits),
        ("disk_hits", stats.disk_hits),
        ("disk_stale", stats.disk_stale),
        ("disk_corrupt", stats.disk_corrupt),
        ("cached_errors", stats.cached_errors),
        ("trace_replays", stats.trace_replays),
        ("trace_stale", stats.trace_stale),
        ("trace_corrupt", stats.trace_corrupt),
    ] {
        out.push_str(&format!(
            "simserve_campaign_runs_total{{outcome=\"{outcome}\"}} {v}\n"
        ));
    }
    push_gauge(
        &mut out,
        "simserve_campaign_in_flight",
        "Run units resolving past the record caches: simulating, replaying or waiting for a recording.",
        stats.in_flight as f64,
    );
    out.push_str(concat!(
        "# HELP simserve_devices_total Simulator devices constructed in this process, ",
        "by kind — the per-process simulation-count witness the cross-node dedup ",
        "tests sum over workers.\n",
        "# TYPE simserve_devices_total counter\n",
    ));
    for (kind, v) in [
        ("created", kepler_sim::devices_created()),
        ("replayed", kepler_sim::devices_replayed()),
    ] {
        out.push_str(&format!("simserve_devices_total{{kind=\"{kind}\"}} {v}\n"));
    }
    let traces = state.campaign.trace_usage();
    push_gauge(
        &mut out,
        "simserve_trace_db_traces",
        "Launch traces the campaign's trace DB holds.",
        traces.traces as f64,
    );
    push_gauge(
        &mut out,
        "simserve_trace_db_bytes",
        "Encoded bytes of the campaign's trace DB.",
        traces.bytes as f64,
    );
    push_gauge(
        &mut out,
        "simserve_stream_subscribers",
        "Live NDJSON progress subscribers.",
        state.fanout.subscriber_count() as f64,
    );
    if let Some(d) = &state.dispatch {
        out.push_str(concat!(
            "# HELP simserve_dispatch_total Coordinator fan-out events by kind.\n",
            "# TYPE simserve_dispatch_total counter\n",
        ));
        if let Json::Obj(fields) = d.counters.to_json() {
            for (kind, v) in fields {
                out.push_str(&format!(
                    "simserve_dispatch_total{{kind=\"{kind}\"}} {}\n",
                    v.as_f64().unwrap_or(0.0)
                ));
            }
        }
    }
    state.metrics.to_prometheus(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_reply_renders_both_shapes() {
        let r = JobReply::Json(422, Json::obj([("a", Json::num(1.0))])).into_response();
        assert_eq!(r.status, 422);
        assert_eq!(r.content_type, "application/json");
        let r = JobReply::Text(200, "Table 4\n".to_string()).into_response();
        assert_eq!(r.content_type, "text/plain; charset=utf-8");
        assert_eq!(r.body, b"Table 4\n");
        let line = JobReply::Text(200, "x\n".to_string()).into_stream_line("req-000007");
        assert_eq!(
            line,
            r#"{"event":"result","id":"req-000007","status":200,"body":"x\n"}"#
        );
    }

    /// Every Prometheus series must agree with the JSON `/metrics`
    /// document it mirrors: parse the text exposition back into
    /// `(series, value)` pairs and cross-check counters, statuses, and
    /// histogram sums/counts, plus the format invariants (HELP/TYPE per
    /// family, cumulative buckets ending at the count).
    #[test]
    fn prometheus_exposition_round_trips_against_json() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .expect("bind ephemeral");
        let state = &server.state;
        state
            .metrics
            .observe(Endpoint::Runs, 200, Duration::from_millis(3));
        state
            .metrics
            .observe(Endpoint::Runs, 422, Duration::from_millis(700));
        state
            .metrics
            .observe(Endpoint::Healthz, 200, Duration::from_micros(80));

        let text = prometheus_body(state);
        let mut series: Vec<(&str, f64)> = Vec::new();
        let mut helped = Vec::new();
        let mut typed = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.push(rest.split(' ').next().unwrap());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.push(rest.split(' ').next().unwrap());
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            series.push((name, value.parse().expect("numeric sample value")));
        }
        // Format invariants: every family is HELP'd and TYPE'd exactly
        // once, and every sample belongs to a declared family.
        assert_eq!(helped, typed);
        for (name, _) in &series {
            let family = name.split('{').next().unwrap();
            let family = family
                .strip_suffix("_bucket")
                .or_else(|| family.strip_suffix("_sum"))
                .or_else(|| family.strip_suffix("_count"))
                .unwrap_or(family);
            assert!(typed.contains(&family), "undeclared family for {name}");
        }

        let get = |k: &str| {
            series
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing series {k}"))
        };
        let doc = metrics_body(state);
        let process = doc.get("process").unwrap();
        for (key, name) in [
            ("trace_db_traces", "simserve_trace_db_traces"),
            ("trace_db_bytes", "simserve_trace_db_bytes"),
        ] {
            assert_eq!(
                get(name),
                process.get(key).unwrap().as_f64().unwrap(),
                "{key}"
            );
        }
        let http = doc.get("http").unwrap();
        assert_eq!(
            get("simserve_http_requests_total"),
            http.get("requests_total").unwrap().as_f64().unwrap()
        );
        assert_eq!(get(r#"simserve_http_responses_total{status="200"}"#), 2.0);
        assert_eq!(get(r#"simserve_http_responses_total{status="422"}"#), 1.0);
        let runs = http.get("endpoints").unwrap().get("POST /v1/runs").unwrap();
        assert_eq!(
            get(r#"simserve_http_request_duration_ms_count{endpoint="POST /v1/runs"}"#),
            runs.get("count").unwrap().as_f64().unwrap()
        );
        let sum = get(r#"simserve_http_request_duration_ms_sum{endpoint="POST /v1/runs"}"#);
        assert!((sum - runs.get("sum_ms").unwrap().as_f64().unwrap()).abs() < 1e-3);
        // Cumulative buckets: monotone, terminated by +Inf == count.
        let buckets: Vec<f64> = text
            .lines()
            .filter(|l| {
                l.starts_with(
                    r#"simserve_http_request_duration_ms_bucket{endpoint="POST /v1/runs""#,
                )
            })
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert_eq!(buckets.len(), crate::metrics::BUCKET_BOUNDS_MS.len() + 1);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*buckets.last().unwrap(), 2.0);
        // Campaign + queue gauges exist with sane values.
        assert_eq!(
            get(r#"simserve_campaign_runs_total{outcome="simulated"}"#),
            0.0
        );
        assert_eq!(get("simserve_queue_workers"), 2.0);
    }

    #[test]
    fn endpoint_routing_classifies_paths() {
        fn req(method: &str, path: &str) -> Request {
            Request {
                method: method.to_string(),
                path: path.to_string(),
                query: vec![],
                headers: vec![],
                body: vec![],
            }
        }
        assert_eq!(endpoint_of(&req("POST", "/v1/runs")), Endpoint::Runs);
        assert_eq!(endpoint_of(&req("POST", "/v1/sweep")), Endpoint::Sweep);
        assert_eq!(
            endpoint_of(&req("GET", "/v1/artifacts/table4")),
            Endpoint::Artifacts
        );
        assert_eq!(endpoint_of(&req("GET", "/healthz")), Endpoint::Healthz);
        assert_eq!(endpoint_of(&req("GET", "/metrics")), Endpoint::Metrics);
        assert_eq!(endpoint_of(&req("GET", "/nope")), Endpoint::Other);
    }
}
