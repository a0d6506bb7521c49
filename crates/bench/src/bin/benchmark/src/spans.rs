//! Wall-clock spans recorded around calls into the simulator's layers.
//!
//! A traced pass gives each unit of work its own [`Spans`] log on the
//! thread that runs it; the logs are merged when the pass ends and written
//! as Chrome-trace `"ph":"X"` events. Nothing here reaches inside the
//! program: every span brackets a call to a public function.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small, stable id for the calling thread (0 for the first thread that
/// asks, then 1, 2, ...), used as the Chrome-trace `tid`.
pub fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// One timed call. `parent` indexes the enclosing span in the same log.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: Option<u32>,
    pub thread: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span log of one unit of work on one thread, with the counts
/// recorded at the same boundaries.
#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
    open: Vec<usize>,
    unit: Option<u32>,
}

impl Spans {
    pub fn new(unit: Option<u32>) -> Self {
        Spans {
            unit,
            ..Spans::default()
        }
    }

    /// Run `f` inside a span named `name`, nested under the span open on
    /// this log, if any.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit: self.unit,
            thread: thread_id(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = now_ns();
        out
    }

    /// Add `n` to the count named `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Append another log's spans and counts, re-basing parent links.
    pub fn extend(&mut self, other: Spans) {
        for (name, n) in other.counts {
            self.count(name, n);
        }
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// The longest span named `name`, seconds.
    pub fn longest(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, f64::max)
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover. Children of one span run on its thread one
    /// after another, so their durations do not overlap.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_default() += s.secs() - c;
        }
        out
    }

    /// Per-thread coverage of a pass that ran from `start_ns` to `end_ns`
    /// on `threads` threads. A thread's busy time is the sum of its root
    /// spans; its idle time is the wait before its first root span and
    /// after its last, when the pool had no work for it. The two add up to
    /// the pass wall time unless untraced work ran between root spans.
    pub fn reconcile(&self, start_ns: u64, end_ns: u64, threads: usize) -> Reconciliation {
        let wall = (end_ns - start_ns) as f64 * 1e-9;
        let mut per: BTreeMap<u32, (f64, u64, u64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            let e = per.entry(s.thread).or_insert((0.0, u64::MAX, 0));
            e.0 += s.secs();
            e.1 = e.1.min(s.start_ns);
            e.2 = e.2.max(s.end_ns);
        }
        let mut rows: Vec<ThreadCoverage> = per
            .into_iter()
            .map(|(thread, (busy, first, last))| {
                let idle = (first - start_ns + (end_ns - last)) as f64 * 1e-9;
                ThreadCoverage {
                    thread,
                    busy_s: busy,
                    idle_s: idle,
                    err: ((busy + idle) - wall).abs() / wall,
                }
            })
            .collect();
        // Threads of the pool that never received work were idle throughout.
        let mut spare = 0;
        while rows.len() < threads {
            rows.push(ThreadCoverage {
                thread: u32::MAX - spare,
                busy_s: 0.0,
                idle_s: wall,
                err: 0.0,
            });
            spare += 1;
        }
        Reconciliation { wall_s: wall, rows }
    }

    /// The log as a Chrome-trace JSON document (`chrome://tracing`,
    /// Perfetto): one complete (`"ph":"X"`) event per span, microseconds.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"unit\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.unit.map_or("null".to_string(), |u| u.to_string()),
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Busy and idle time of one thread over a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCoverage {
    pub thread: u32,
    pub busy_s: f64,
    pub idle_s: f64,
    /// |busy + idle − wall| / wall.
    pub err: f64,
}

/// [`Spans::reconcile`]'s result.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconciliation {
    pub wall_s: f64,
    pub rows: Vec<ThreadCoverage>,
}

impl Reconciliation {
    /// Threads × wall − Σ busy: pool time no unit used.
    pub fn pool_idle_s(&self) -> f64 {
        self.rows.iter().map(|r| r.idle_s).sum()
    }

    /// The worst thread's reconciliation error.
    pub fn max_err(&self) -> f64 {
        self.rows.iter().map(|r| r.err).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, thread: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit: None,
            thread,
        }
    }

    /// Thread 0: unit [0, 100) with device [10, 60) holding sched
    /// [20, 40), then power [60, 90); unit [100, 180). Thread 1: unit
    /// [30, 150). The pass ran from 0 to 200 ns.
    fn tree() -> Spans {
        Spans {
            spans: vec![
                span("unit", 0, 100, None, 0),
                span("device", 10, 60, Some(0), 0),
                span("sched", 20, 40, Some(1), 0),
                span("power", 60, 90, Some(0), 0),
                span("unit", 100, 180, None, 0),
                span("unit", 30, 150, None, 1),
            ],
            ..Spans::default()
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = tree();
        let st = t.self_times();
        let ns = |v: f64| (v * 1e9).round() as u64;
        // unit: 100 − (50 + 30) on the first, 80 and 120 with no children.
        assert_eq!(ns(st["unit"]), 20 + 80 + 120);
        assert_eq!(ns(st["device"]), 50 - 20);
        assert_eq!(ns(st["sched"]), 20);
        assert_eq!(ns(st["power"]), 30);
        // Self times partition the root spans exactly.
        let roots: f64 = t
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum();
        assert!((st.values().sum::<f64>() - roots).abs() < 1e-15);
        assert_eq!(ns(t.total("unit")), 100 + 80 + 120);
        assert_eq!(ns(t.longest("unit")), 120);
    }

    #[test]
    fn per_thread_busy_plus_idle_reconciles_with_the_pass() {
        let r = tree().reconcile(0, 200, 3);
        assert_eq!(r.rows.len(), 3, "an unused pool thread is all idle");
        let ns = |v: f64| (v * 1e9).round() as u64;
        let t0 = &r.rows[0];
        assert_eq!((ns(t0.busy_s), ns(t0.idle_s)), (180, 20));
        let t1 = &r.rows[1];
        assert_eq!((ns(t1.busy_s), ns(t1.idle_s)), (120, 80));
        assert!(r.max_err() < 1e-12);
        assert_eq!(ns(r.pool_idle_s()), 20 + 80 + 200);
        // A gap between root spans is work no span covers: it shows up
        // as reconciliation error, not as idle time.
        let mut gappy = tree();
        gappy.spans[4].start_ns = 110;
        let r = gappy.reconcile(0, 200, 2);
        assert!((r.rows[0].err - 10.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn nested_recording_links_parents_and_extend_rebases_them() {
        let mut a = Spans::new(Some(3));
        a.time("unit", |s| {
            s.time("device", |s| s.time("sched", |_| ()));
            s.time("power", |_| ());
        });
        let parents: Vec<_> = a.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(a
            .spans
            .iter()
            .all(|s| s.unit == Some(3) && s.end_ns >= s.start_ns));
        let mut all = Spans::new(None);
        all.time("setup", |_| ());
        all.extend(a);
        let parents: Vec<_> = all.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, None, Some(1), Some(2), Some(1)]);
        let doc = sim_serve::json::parse(&all.chrome_trace()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[2].get("ph").and_then(|p| p.as_str()), Some("X"));
    }
}
