//! The coordinator side of the distributed campaign: shard units across
//! worker processes, fan them out over keep-alive connections, and survive
//! stragglers and worker death.
//!
//! ## Topology
//!
//! A coordinator is an ordinary `sim-serve` process given `--worker ADDR`
//! flags. It still parses, validates, and *renders* every request locally —
//! what it delegates is the expensive middle: executing campaign units
//! (simulations). Workers are ordinary `sim-serve` processes sharing the
//! coordinator's on-disk campaign cache; they execute unit chunks sent to
//! `POST /v1/units` and persist the result records. The coordinator then
//! renders its response from the now-warm cache, which makes distributed
//! responses **byte-identical** to single-process ones by construction —
//! no result values ever cross the wire, only unit identities.
//!
//! ## Warm units and pooled connections
//!
//! A unit already in the coordinator's own campaign memo is *warm*: the
//! local render resolves it without any worker, so `execute` drops it
//! before building chunks and counts it as `units_cached`. A request whose
//! units are all warm never spawns a thread or dials a worker. The filter
//! looks only in the memo: a disk probe would cost a file read per unit,
//! and a unit resolved on disk is memoized by its first render anyway.
//! Cold fan-out reuses keep-alive connections from a per-worker pool that
//! outlives each call.
//!
//! ## Sharding
//!
//! Units are partitioned by rendezvous (highest-random-weight) hashing of
//! their canonical cache key: every worker label is hashed against the
//! key, the highest score owns the unit. HRW keeps the mapping stable
//! under worker-set changes (only the dead worker's share moves) and —
//! the property the caches care about — sends *identical* units from
//! concurrent requests to the *same* worker, whose in-flight dedup then
//! collapses them onto one simulation (cross-node dedup).
//!
//! ## Failure handling
//!
//! Chunks that fail transport, shed (`503`), or come back `5xx` are
//! requeued with exponential backoff and re-homed to the next worker;
//! idle workers steal chunks that have sat ready longer than the steal
//! threshold — old enough that their home worker is demonstrably busy,
//! so a healthy home always gets first claim and identical concurrent
//! units keep routing to one node. Each chunk is stolen at most once —
//! bounded stealing keeps a flapping worker from bouncing work forever. A chunk that exhausts its attempts falls back to local
//! execution on the coordinator, so a sweep completes with zero errors
//! even with every worker dead.

use crate::api::{self, Unit};
use crate::client::HttpClient;
use crate::json::Json;
use characterize::campaign::Campaign;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Worker addresses; their order defines the stable worker labels
    /// HRW hashes against.
    pub workers: Vec<SocketAddr>,
    /// Units per chunk (one `POST /v1/units` request). Small chunks give
    /// stealing and retry finer grain; large ones amortize per-request
    /// overhead.
    pub chunk_units: usize,
    /// Send attempts per chunk before it falls back to local execution.
    pub max_attempts: u32,
    /// First-retry backoff; doubles per attempt.
    pub backoff: Duration,
    /// How long a chunk must sit ready before another worker may steal
    /// it. The grace period gives a healthy home worker first claim, so
    /// identical concurrent units stay routed to one node (cross-node
    /// dedup) while genuine stragglers still shed their backlog.
    pub steal_after: Duration,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            chunk_units: 4,
            max_attempts: 3,
            backoff: Duration::from_millis(50),
            steal_after: Duration::from_millis(50),
        }
    }
}

/// Fan-out counters, exposed under `dispatch` in `/metrics`.
#[derive(Debug, Default)]
pub struct DispatchCounters {
    /// Units successfully executed on workers.
    pub units_dispatched: AtomicU64,
    /// Units executed locally after retries were exhausted (or with no
    /// workers configured).
    pub units_local: AtomicU64,
    /// Chunk requests sent (including retries).
    pub chunks_sent: AtomicU64,
    /// Chunks requeued after a retryable failure.
    pub chunks_retried: AtomicU64,
    /// Chunks executed by a worker other than their HRW home.
    pub chunks_stolen: AtomicU64,
    /// Failed worker exchanges (transport error, `503`, `5xx`).
    pub worker_errors: AtomicU64,
    /// Units dropped from fan-out because the coordinator's campaign memo
    /// already held their result.
    pub units_cached: AtomicU64,
}

impl DispatchCounters {
    pub fn to_json(&self) -> Json {
        let n = |a: &AtomicU64| Json::num(a.load(Ordering::Relaxed) as f64);
        Json::obj([
            ("units_dispatched", n(&self.units_dispatched)),
            ("units_local", n(&self.units_local)),
            ("chunks_sent", n(&self.chunks_sent)),
            ("chunks_retried", n(&self.chunks_retried)),
            ("chunks_stolen", n(&self.chunks_stolen)),
            ("worker_errors", n(&self.worker_errors)),
            ("units_cached", n(&self.units_cached)),
        ])
    }
}

/// splitmix64's finalizer: a cheap full-avalanche mix. FNV alone
/// diffuses too weakly for rendezvous scoring (near-equal inputs produce
/// correlated scores and the key space collapses onto few workers), so
/// the combined `(key, worker)` hash is driven through this.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The rendezvous (HRW) owner of a cache key among `n` workers: the
/// worker whose `mix(hash(key), worker)` scores highest. Deterministic in
/// the key and the worker count, independent of request order.
pub fn hrw_owner(key: &str, n: usize) -> usize {
    assert!(n > 0, "hrw_owner needs at least one worker");
    let kh = kepler_sim::fnv1a64(key.as_bytes());
    (0..n)
        .max_by_key(|&w| mix64(kh ^ mix64(w as u64 + 1)))
        .expect("non-empty worker set")
}

/// One fan-out chunk: a batch of units with a preferred (HRW) home.
struct Chunk {
    home: usize,
    units: Vec<Unit>,
    attempts: u32,
    not_before: Instant,
    stolen: bool,
}

/// Shared fan-out state for one `execute` call.
struct FanoutState {
    queue: Mutex<VecDeque<Chunk>>,
    /// Chunks not yet completed (sent OK or moved to local fallback).
    outstanding: AtomicUsize,
    local: Mutex<Vec<Unit>>,
}

/// The coordinator's dispatcher: owns the worker set, the counters and
/// the connection pool. One dispatcher serves the whole process; `execute`
/// is called per request job and is safe to call concurrently.
pub struct Dispatcher {
    cfg: DispatchConfig,
    pub counters: DispatchCounters,
    /// Idle keep-alive clients, one list per worker, reused across
    /// `execute` calls.
    pool: Vec<Mutex<Vec<HttpClient>>>,
}

impl Dispatcher {
    pub fn new(cfg: DispatchConfig) -> Self {
        Self {
            pool: cfg.workers.iter().map(|_| Mutex::default()).collect(),
            cfg,
            counters: DispatchCounters::default(),
        }
    }

    pub fn workers(&self) -> &[SocketAddr] {
        &self.cfg.workers
    }

    /// Partition `units` by HRW owner and return one chunk list, homes
    /// assigned, in stable order.
    fn chunks(&self, units: &[Unit]) -> VecDeque<Chunk> {
        let n = self.cfg.workers.len();
        let mut per_worker: Vec<Vec<Unit>> = vec![Vec::new(); n];
        for u in units {
            per_worker[hrw_owner(&u.cache_key(), n)].push(u.clone());
        }
        let now = Instant::now();
        let mut chunks = VecDeque::new();
        for (home, list) in per_worker.into_iter().enumerate() {
            for batch in list.chunks(self.cfg.chunk_units.max(1)) {
                chunks.push_back(Chunk {
                    home,
                    units: batch.to_vec(),
                    attempts: 0,
                    not_before: now,
                    stolen: false,
                });
            }
        }
        chunks
    }

    /// Execute `units` across the worker set: skip the ones `campaign`
    /// has memoized, fan out the rest in chunks, steal for stragglers,
    /// retry with backoff, and run anything undeliverable on the local
    /// campaign. On return every unit has been executed *somewhere*, so a
    /// local render of the owning request hits warm caches only.
    pub fn execute(&self, units: &[Unit], campaign: &Campaign) {
        let cold: Vec<Unit> = units
            .iter()
            .filter(|u| !campaign.is_memoized(&u.cache_key()))
            .cloned()
            .collect();
        self.counters
            .units_cached
            .fetch_add((units.len() - cold.len()) as u64, Ordering::Relaxed);
        if cold.is_empty() {
            return;
        }
        if self.cfg.workers.is_empty() {
            self.run_locally(&cold, campaign);
            return;
        }
        let chunks = self.chunks(&cold);
        let state = FanoutState {
            outstanding: AtomicUsize::new(chunks.len()),
            queue: Mutex::new(chunks),
            local: Mutex::new(Vec::new()),
        };
        std::thread::scope(|s| {
            for (w, &addr) in self.cfg.workers.iter().enumerate() {
                let state = &state;
                s.spawn(move || self.worker_loop(w, addr, state));
            }
        });
        let local = state.local.into_inner().unwrap();
        if !local.is_empty() {
            self.run_locally(&local, campaign);
        }
    }

    /// One worker thread: drain chunks homed here, steal when idle, back
    /// off on failure, and hand hopeless chunks to the local-fallback
    /// list. Exits when no chunk is outstanding anywhere. The client comes
    /// from worker `w`'s pool and goes back to it on exit; a client whose
    /// exchange failed has already dropped its connection.
    fn worker_loop(&self, w: usize, addr: SocketAddr, state: &FanoutState) {
        let pooled = self.pool[w].lock().expect("connection pool poisoned").pop();
        let mut client = pooled.unwrap_or_else(|| HttpClient::new(addr));
        while state.outstanding.load(Ordering::SeqCst) > 0 {
            let chunk = self.take_chunk(w, state);
            let Some(mut chunk) = chunk else {
                // Nothing ready for us right now; other workers may still
                // be executing or a backoff may be pending.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            };
            let body = Json::obj([(
                "units",
                Json::Arr(chunk.units.iter().map(Unit::to_json).collect()),
            )])
            .dump();
            self.counters.chunks_sent.fetch_add(1, Ordering::Relaxed);
            let outcome = client.request("POST", "/v1/units", body.as_bytes());
            match outcome {
                Ok(resp) if resp.status == 200 => {
                    self.counters
                        .units_dispatched
                        .fetch_add(chunk.units.len() as u64, Ordering::Relaxed);
                    state.outstanding.fetch_sub(1, Ordering::SeqCst);
                }
                // Transport failure, shed, or worker fault: requeue with
                // backoff, re-homed to the next worker so a dead worker's
                // share migrates instead of retrying into the void.
                outcome => {
                    let retryable = match &outcome {
                        Err(_) => true,
                        Ok(resp) => resp.status == 503 || resp.status >= 500,
                    };
                    self.counters.worker_errors.fetch_add(1, Ordering::Relaxed);
                    chunk.attempts += 1;
                    if !retryable || chunk.attempts >= self.cfg.max_attempts {
                        state.local.lock().unwrap().extend(chunk.units);
                        state.outstanding.fetch_sub(1, Ordering::SeqCst);
                    } else {
                        chunk.home = (chunk.home + 1) % self.cfg.workers.len();
                        chunk.not_before =
                            Instant::now() + self.cfg.backoff * 2u32.pow(chunk.attempts - 1);
                        self.counters.chunks_retried.fetch_add(1, Ordering::Relaxed);
                        state.queue.lock().unwrap().push_back(chunk);
                    }
                }
            }
        }
        self.pool[w]
            .lock()
            .expect("connection pool poisoned")
            .push(client);
    }

    /// Pop the next chunk for worker `w`: its own ready chunks first, then
    /// one steal from another home — but only a chunk past the steal-age
    /// grace period (marking it stolen — a chunk migrates by theft at most
    /// once).
    fn take_chunk(&self, w: usize, state: &FanoutState) -> Option<Chunk> {
        let now = Instant::now();
        let mut q = state.queue.lock().unwrap();
        if let Some(i) = q.iter().position(|c| c.home == w && c.not_before <= now) {
            return q.remove(i);
        }
        if let Some(i) = q
            .iter()
            .position(|c| c.home != w && !c.stolen && c.not_before + self.cfg.steal_after <= now)
        {
            let mut c = q.remove(i)?;
            c.stolen = true;
            self.counters.chunks_stolen.fetch_add(1, Ordering::Relaxed);
            return Some(c);
        }
        None
    }

    fn run_locally(&self, units: &[Unit], campaign: &Campaign) {
        let _ = api::units_response(campaign, units);
        self.counters
            .units_local
            .fetch_add(units.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hrw_is_stable_and_balanced() {
        // Removing one worker only moves that worker's keys (the HRW
        // property the shared caches rely on).
        let keys: Vec<String> = (0..256).map(|i| format!("unit-key-{i}")).collect();
        let owners8: Vec<usize> = keys.iter().map(|k| hrw_owner(k, 8)).collect();
        let owners7: Vec<usize> = keys.iter().map(|k| hrw_owner(k, 7)).collect();
        for ((k, &o8), &o7) in keys.iter().zip(&owners8).zip(&owners7) {
            if o8 != 7 {
                assert_eq!(o8, o7, "key {k} moved although its owner survived");
            }
        }
        // Rough balance: each of 8 workers owns some share of 256 keys.
        for w in 0..8 {
            let share = owners8.iter().filter(|&&o| o == w).count();
            assert!(share > 8, "worker {w} owns only {share}/256 keys");
        }
        // Deterministic.
        assert_eq!(hrw_owner("abc", 5), hrw_owner("abc", 5));
    }

    #[test]
    fn no_workers_means_local_execution() {
        let d = Dispatcher::new(DispatchConfig::default());
        let campaign = Campaign::in_memory();
        let params = api::parse_run_request(br#"{"workload": "sten"}"#).unwrap();
        d.execute(&api::run_units(&params), &campaign);
        assert_eq!(d.counters.units_local.load(Ordering::Relaxed), 1);
        assert_eq!(d.counters.units_dispatched.load(Ordering::Relaxed), 0);
        // The unit actually executed: a local render is now a memo hit.
        assert!(api::run_response(&campaign, &params).is_ok());
        assert_eq!(campaign.stats().memo_hits, 1);
    }

    #[test]
    fn dead_worker_chunks_fall_back_to_local() {
        // One "worker" that is a dead address: every send fails, retries
        // exhaust, units run locally, and the counters say so.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let d = Dispatcher::new(DispatchConfig {
            workers: vec![dead],
            backoff: Duration::from_millis(1),
            ..DispatchConfig::default()
        });
        let campaign = Campaign::in_memory();
        let params = api::parse_run_request(br#"{"workload": "nn"}"#).unwrap();
        d.execute(&api::run_units(&params), &campaign);
        assert_eq!(d.counters.units_local.load(Ordering::Relaxed), 1);
        assert!(d.counters.worker_errors.load(Ordering::Relaxed) >= 1);
        assert!(d.counters.chunks_retried.load(Ordering::Relaxed) >= 1);
        assert!(api::run_response(&campaign, &params).is_ok());
    }
}
