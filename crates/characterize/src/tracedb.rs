//! The on-disk launch-trace database (format v3).
//!
//! Persists one [`RunTrace`] per *(program, input)* — note: per program
//! input, **not** per configuration or repetition. The recorded functional
//! stream is configuration-independent (the whole point of
//! `kepler_sim::trace`), so a single trace serves every clock/ECC/rep cell
//! of the measurement matrix; replaying it under the target seed and
//! configuration reproduces the live measurement bit for bit.
//!
//! ## Layout
//!
//! * `<fnv64(trace key)>.tman` — a plain-text **manifest** (versioned,
//!   fingerprinted, terminator-checked exactly like the campaign's `.camp`
//!   records): run identity, functional outputs (checksum, item counts),
//!   the ordered op timeline, and the content hashes of the launch records
//!   it references.
//! * `<fnv64(payload)>.tlr` — one binary **launch record** per distinct
//!   launch ([`kepler_sim::encode_launch`]), content-addressed by the FNV-1a
//!   hash of its encoded payload and therefore deduplicated across
//!   manifests; the hash is re-verified on load.
//!
//! ## Invalidation
//!
//! A manifest embeds the same model fingerprint the campaign cache uses,
//! folded with this module's [`TRACE_FORMAT`]: a simulator/measurement
//! model bump or a trace-format bump makes every stored trace *stale*.
//! Stale, corrupt, truncated or internally inconsistent entries are never
//! fatal — [`TraceDb::load`] reports `None`, a counter is bumped, and the
//! caller falls back to a clean functional re-run (which re-records).

use crate::campaign::{fbits, parse_fbits};
use kepler_sim::fnv1a64;
use kepler_sim::{decode_launch, encode_launch, RunTrace, TraceOp};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::bench::ItemCounts;

/// Version tag of the trace key and on-disk layout. Bump on any change to
/// the manifest shape or the launch-record codec's meaning.
/// v4: the memory model joined the trace identity — recorded block costs
/// carry cache-tier counters, so a trace captured under one model must
/// never replay under another.
pub const TRACE_FORMAT: &str = "v4";
const MANIFEST_MAGIC: &str = "gpgpu-trace v4";
const MANIFEST_END: &str = "end gpgpu-trace";

/// A recorded run plus the functional outputs replay cannot recompute:
/// the benchmark's checksum and item counts come from functional
/// execution, so they ride along with the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTrace {
    pub run: RunTrace,
    pub checksum: f64,
    pub items: Option<ItemCounts>,
}

/// Handle on one trace directory. Cheap to construct; all methods are
/// `&self` and thread-safe (counters are atomics, file writes go through
/// unique temporaries + rename).
pub struct TraceDb {
    dir: PathBuf,
    fingerprint: u64,
    stale: AtomicU64,
    corrupt: AtomicU64,
    tmp_seq: AtomicU64,
}

impl TraceDb {
    /// Open (lazily — no I/O here) a trace directory. `model_fingerprint`
    /// is the campaign's [`crate::campaign::sim_fingerprint`]; the DB folds
    /// its own format version on top so either kind of change invalidates.
    pub fn new(dir: PathBuf, model_fingerprint: u64) -> Self {
        let ident = format!("{model_fingerprint:016x}|trace-{TRACE_FORMAT}");
        Self {
            dir,
            fingerprint: fnv1a64(ident.as_bytes()),
            stale: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// The directory this DB reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Manifests rejected for a fingerprint mismatch so far.
    pub fn stale(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    /// Manifests or launch records rejected as corrupt/truncated so far.
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    fn manifest_path(&self, tkey: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.tman", fnv1a64(tkey.as_bytes())))
    }

    fn launch_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.tlr"))
    }

    /// Load the trace stored under `tkey`. `None` on a plain miss (no
    /// manifest) and on every defect: stale fingerprint, wrong key (hash
    /// collision), truncated or malformed manifest, missing/corrupt/
    /// hash-mismatched launch record, or an op referencing a launch the
    /// manifest does not list. Defects bump [`TraceDb::stale`] /
    /// [`TraceDb::corrupt`]; the caller re-runs functionally.
    pub fn load(&self, tkey: &str) -> Option<StoredTrace> {
        let body = std::fs::read_to_string(self.manifest_path(tkey)).ok()?;
        let (fp, key, memmodel, checksum, items, hashes, ops) = match parse_manifest(&body) {
            Some(m) => m,
            None => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        if key != tkey {
            // Hash collision or hand-edited file: treat as absent.
            return None;
        }
        if fp != self.fingerprint {
            self.stale.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if memmodel != mem_tag_of(tkey) {
            // A trace recorded under one memory model must never replay
            // under another: the per-block costs embed cache-tier
            // counters. Belt-and-braces with the key check above (the
            // model tag is part of the key), so this only fires on a
            // hand-edited or inconsistently migrated manifest.
            self.stale.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut launches = Vec::with_capacity(hashes.len());
        for h in &hashes {
            let payload = match std::fs::read(self.launch_path(*h)) {
                Ok(p) => p,
                Err(_) => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            };
            let lt = if fnv1a64(&payload) == *h {
                decode_launch(&payload)
            } else {
                None
            };
            match lt {
                Some(lt) => launches.push(lt),
                None => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        for op in &ops {
            if let TraceOp::Launch { launch, .. } = op {
                if *launch >= launches.len() {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        Some(StoredTrace {
            run: RunTrace { launches, ops },
            checksum,
            items,
        })
    }

    /// Persist `st` under `tkey`. Best-effort, like the campaign cache: an
    /// unwritable directory silently degrades to record-nothing. Launch
    /// records are content-addressed, so identical launches share one
    /// `.tlr` across manifests; an existing record is rewritten only when
    /// its bytes differ from the payload (a corrupt record heals).
    pub fn store(&self, tkey: &str, st: &StoredTrace) {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let mut hashes = Vec::with_capacity(st.run.launches.len());
        for lt in &st.run.launches {
            let payload = encode_launch(lt);
            let hash = fnv1a64(&payload);
            hashes.push(hash);
            let path = self.launch_path(hash);
            let intact = std::fs::read(&path).is_ok_and(|on_disk| on_disk == payload);
            if !intact && !self.write_atomic(&path, &payload) {
                return;
            }
        }
        let body = format_manifest(self.fingerprint, tkey, st, &hashes);
        let _ = self.write_atomic(&self.manifest_path(tkey), body.as_bytes());
    }

    /// Unique-temporary + rename so concurrent writers (three reps of one
    /// cold workload race to record the same trace) never tear a record.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> bool {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        if std::fs::write(&tmp, bytes).is_err() {
            return false;
        }
        if std::fs::rename(&tmp, path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        true
    }
}

/// The trace identity of one *(program, input, memory model)*: versioned,
/// with the same spec/input cache keys the campaign identity uses — but no
/// clock/ECC config, rep or seed, because one trace serves all of those.
/// The memory model *is* part of the identity ([`kepler_sim::MemoryModel::tag`]):
/// the recorded per-block costs carry model-dependent cache-tier counters.
pub fn trace_key(spec_cache_key: &str, input_cache_key: &str, mem_tag: &str) -> String {
    format!("{TRACE_FORMAT}|{spec_cache_key}|{input_cache_key}|mem={mem_tag}")
}

/// The memory-model component of a [`trace_key`].
fn mem_tag_of(tkey: &str) -> &str {
    tkey.rsplit_once("|mem=").map_or("", |(_, m)| m)
}

type Manifest = (
    u64,
    String,
    String,
    f64,
    Option<ItemCounts>,
    Vec<u64>,
    Vec<TraceOp>,
);

fn format_manifest(fingerprint: u64, tkey: &str, st: &StoredTrace, hashes: &[u64]) -> String {
    let mut s = String::new();
    s.push_str(MANIFEST_MAGIC);
    s.push('\n');
    s.push_str(&format!("fingerprint {fingerprint:016x}\n"));
    s.push_str(&format!("key {tkey}\n"));
    s.push_str(&format!("memmodel {}\n", mem_tag_of(tkey)));
    s.push_str(&format!("checksum {}\n", fbits(st.checksum)));
    match &st.items {
        Some(it) => s.push_str(&format!("items {} {}\n", it.vertices, it.edges)),
        None => s.push_str("items none\n"),
    }
    s.push_str(&format!("launches {}\n", hashes.len()));
    for h in hashes {
        s.push_str(&format!("l {h:016x}\n"));
    }
    s.push_str(&format!("ops {}\n", st.run.ops.len()));
    for op in &st.run.ops {
        match *op {
            TraceOp::Launch {
                launch,
                work_multiplier,
            } => s.push_str(&format!("op launch {launch} {}\n", fbits(work_multiplier))),
            TraceOp::HostGap { seconds } => s.push_str(&format!("op gap {}\n", fbits(seconds))),
        }
    }
    s.push_str(MANIFEST_END);
    s.push('\n');
    s
}

/// Parse a manifest. `None` on any malformation, including a missing
/// terminator (how a truncated write is detected).
fn parse_manifest(body: &str) -> Option<Manifest> {
    let mut lines = body.lines();
    if lines.next()? != MANIFEST_MAGIC {
        return None;
    }
    let fp = u64::from_str_radix(lines.next()?.strip_prefix("fingerprint ")?, 16).ok()?;
    let key = lines.next()?.strip_prefix("key ")?.to_string();
    let memmodel = lines.next()?.strip_prefix("memmodel ")?.to_string();
    let checksum = parse_fbits(lines.next()?.strip_prefix("checksum ")?)?;
    let items_line = lines.next()?.strip_prefix("items ")?;
    let items = if items_line == "none" {
        None
    } else {
        let mut it = items_line.split_whitespace();
        Some(ItemCounts {
            vertices: it.next()?.parse().ok()?,
            edges: it.next()?.parse().ok()?,
        })
    };
    let n_launches: usize = lines.next()?.strip_prefix("launches ")?.parse().ok()?;
    let mut hashes = Vec::with_capacity(n_launches.min(1 << 16));
    for _ in 0..n_launches {
        hashes.push(u64::from_str_radix(lines.next()?.strip_prefix("l ")?, 16).ok()?);
    }
    let n_ops: usize = lines.next()?.strip_prefix("ops ")?.parse().ok()?;
    let mut ops = Vec::with_capacity(n_ops.min(1 << 16));
    for _ in 0..n_ops {
        let op = lines.next()?.strip_prefix("op ")?;
        if let Some(rest) = op.strip_prefix("launch ") {
            let mut toks = rest.split_whitespace();
            ops.push(TraceOp::Launch {
                launch: toks.next()?.parse().ok()?,
                work_multiplier: parse_fbits(toks.next()?)?,
            });
        } else if let Some(rest) = op.strip_prefix("gap ") {
            ops.push(TraceOp::HostGap {
                seconds: parse_fbits(rest)?,
            });
        } else {
            return None;
        }
    }
    if lines.next()? != MANIFEST_END {
        return None;
    }
    Some((fp, key, memmodel, checksum, items, hashes, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_sim::cost::BlockCost;
    use kepler_sim::{KernelResources, LaunchTrace};
    use std::sync::atomic::AtomicU32;

    static TEST_DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "gpgpu-tracedb-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_stored() -> StoredTrace {
        let costs: Vec<BlockCost> = (0..16)
            .map(|i| BlockCost {
                issue_cycles: 500.0 + i as f64,
                dram_bytes: 2048.0,
                transactions: 16,
                ideal_transactions: 16,
                lane_ops: [i, 0, 2, 0, 0, 0, 0],
                slots: 40,
                active_lanes: 1280,
                warps: 4,
                threads: 128,
                ..BlockCost::default()
            })
            .collect();
        let launch = LaunchTrace {
            kernel: "k".to_string(),
            params: vec![1, 2, 3],
            grid: 16,
            block_threads: 128,
            resources: KernelResources::default(),
            mem_fp: [11, 22],
            costs,
        };
        StoredTrace {
            run: RunTrace {
                launches: vec![launch],
                ops: vec![
                    TraceOp::Launch {
                        launch: 0,
                        work_multiplier: 2.5,
                    },
                    TraceOp::HostGap { seconds: 0.125 },
                    TraceOp::Launch {
                        launch: 0,
                        work_multiplier: 2.5,
                    },
                ],
            },
            checksum: 42.125,
            items: Some(ItemCounts {
                vertices: 5,
                edges: 9,
            }),
        }
    }

    #[test]
    fn store_load_round_trips_bitwise() {
        let dir = scratch_dir("roundtrip");
        let db = TraceDb::new(dir.clone(), 0xABCD);
        let tkey = trace_key("spec@k2", "in#n8", "flat");
        assert!(db.load(&tkey).is_none(), "miss before store");
        let st = sample_stored();
        db.store(&tkey, &st);
        let back = db.load(&tkey).expect("stored trace loads");
        assert_eq!(back, st);
        assert_eq!(back.checksum.to_bits(), st.checksum.to_bits());
        assert_eq!((db.stale(), db.corrupt()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_addressing_deduplicates_launch_records() {
        let dir = scratch_dir("dedup");
        let db = TraceDb::new(dir.clone(), 1);
        let st = sample_stored();
        db.store(&trace_key("a", "x", "flat"), &st);
        db.store(&trace_key("b", "y", "flat"), &st);
        let tlrs = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().map(|x| x == "tlr") == Some(true))
            .count();
        assert_eq!(tlrs, 1, "identical launches share one record");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_fingerprint_is_rejected_and_counted() {
        let dir = scratch_dir("stale");
        let old = TraceDb::new(dir.clone(), 0xAAAA);
        let tkey = trace_key("s", "i", "flat");
        old.store(&tkey, &sample_stored());
        let new = TraceDb::new(dir.clone(), 0xBBBB);
        assert!(new.load(&tkey).is_none());
        assert_eq!((new.stale(), new.corrupt()), (1, 0));
        // Re-storing under the new fingerprint repairs it.
        new.store(&tkey, &sample_stored());
        assert!(new.load(&tkey).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_manifest_is_corrupt_not_fatal() {
        let dir = scratch_dir("trunc");
        let db = TraceDb::new(dir.clone(), 7);
        let tkey = trace_key("s", "i", "flat");
        db.store(&tkey, &sample_stored());
        let path = db.manifest_path(&tkey);
        let body = std::fs::read_to_string(&path).unwrap();
        // Every line-boundary truncation is rejected.
        let lines: Vec<&str> = body.lines().collect();
        for cut in 0..lines.len() {
            std::fs::write(&path, lines[..cut].join("\n")).unwrap();
            assert!(db.load(&tkey).is_none(), "cut at {cut} accepted");
        }
        assert_eq!(db.corrupt(), lines.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_launch_record_is_rejected() {
        let dir = scratch_dir("tlr");
        let db = TraceDb::new(dir.clone(), 7);
        let tkey = trace_key("s", "i", "flat");
        db.store(&tkey, &sample_stored());
        let tlr = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().map(|x| x == "tlr") == Some(true))
            .unwrap();
        // Flip one payload byte: the content hash no longer matches.
        let mut payload = std::fs::read(&tlr).unwrap();
        let mid = payload.len() / 2;
        payload[mid] ^= 0xff;
        std::fs::write(&tlr, &payload).unwrap();
        assert!(db.load(&tkey).is_none());
        assert_eq!(db.corrupt(), 1);
        // Remove it entirely: still a clean rejection.
        std::fs::remove_file(&tlr).unwrap();
        assert!(db.load(&tkey).is_none());
        assert_eq!(db.corrupt(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn re_recording_heals_a_corrupt_launch_record() {
        let dir = scratch_dir("tlr-heal");
        let db = TraceDb::new(dir.clone(), 7);
        let tkey = trace_key("s", "i", "flat");
        let st = sample_stored();
        db.store(&tkey, &st);
        let tlr = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().map(|x| x == "tlr") == Some(true))
            .unwrap();
        let mut payload = std::fs::read(&tlr).unwrap();
        let mid = payload.len() / 2;
        payload[mid] ^= 0xff;
        std::fs::write(&tlr, &payload).unwrap();
        // The same trace recorded again rewrites the damaged record.
        db.store(&tkey, &st);
        assert_eq!(db.load(&tkey), Some(st));
        assert_eq!(db.corrupt(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_op_index_is_corrupt() {
        let dir = scratch_dir("opidx");
        let db = TraceDb::new(dir.clone(), 7);
        let tkey = trace_key("s", "i", "flat");
        let mut st = sample_stored();
        st.run.ops.push(TraceOp::Launch {
            launch: 5, // only one launch record exists
            work_multiplier: 1.0,
        });
        db.store(&tkey, &st);
        assert!(db.load(&tkey).is_none());
        assert_eq!(db.corrupt(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_key_is_clock_free_but_model_bound() {
        let k = trace_key("sgemm@k3", "small#n256", "flat");
        assert_eq!(k, "v4|sgemm@k3|small#n256|mem=flat");
        assert!(
            !k.contains("cfg="),
            "one trace serves every clock/ECC config"
        );
        // The memory model splits the trace identity: recorded block costs
        // embed cache-tier counters, so flat and cached traces must never
        // be interchangeable.
        let c = trace_key("sgemm@k3", "small#n256", "cache-00000000deadbeef");
        assert_ne!(k, c);
        assert_eq!(mem_tag_of(&c), "cache-00000000deadbeef");
    }

    #[test]
    fn flat_and_cached_traces_are_separate_entries() {
        let dir = scratch_dir("memsplit");
        let db = TraceDb::new(dir.clone(), 7);
        let flat = trace_key("s", "i", "flat");
        let cached = trace_key("s", "i", "cache-0123456789abcdef");
        db.store(&flat, &sample_stored());
        // A trace recorded under FlatDram is a plain miss under the cache
        // model — never replayed, not even counted as stale.
        assert!(db.load(&cached).is_none());
        assert_eq!((db.stale(), db.corrupt()), (0, 0));
        assert!(db.load(&flat).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_memmodel_mismatch_is_stale() {
        let dir = scratch_dir("memstale");
        let db = TraceDb::new(dir.clone(), 7);
        let tkey = trace_key("s", "i", "flat");
        db.store(&tkey, &sample_stored());
        let path = db.manifest_path(&tkey);
        let body = std::fs::read_to_string(&path).unwrap();
        // Forge the recorded model line while keeping the key intact —
        // simulates an inconsistent hand migration.
        let forged = body.replace("memmodel flat", "memmodel cache-ffffffffffffffff");
        std::fs::write(&path, forged).unwrap();
        assert!(db.load(&tkey).is_none());
        assert_eq!((db.stale(), db.corrupt()), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
