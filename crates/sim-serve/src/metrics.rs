//! Service metrics: request counters by endpoint and status, and
//! fixed-bucket latency histograms with quantile estimation.
//!
//! Everything is lock-free atomics on the hot path; `/metrics` renders a
//! snapshot as JSON (queue and campaign gauges are appended by the server,
//! which owns them).

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (milliseconds) of the latency buckets; the last bucket is
/// unbounded. Spans 0.25 ms (a memo hit) to ~2 min (a cold three-rep
/// artifact matrix).
pub const BUCKET_BOUNDS_MS: [f64; 20] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 125.0, 250.0, 500.0, 1_000.0, 2_000.0,
    4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0, 128_000.0,
];

/// One latency histogram (fixed buckets + count + sum + observed max).
#[derive(Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKET_BOUNDS_MS.len() + 1],
    count: AtomicU64,
    /// Sum in microseconds (integer, to stay atomic).
    sum_us: AtomicU64,
    /// Largest single observation, microseconds.
    max_us: AtomicU64,
}

impl Histogram {
    pub fn observe(&self, d: Duration) {
        let ms = d.as_secs_f64() * 1e3;
        let idx = BUCKET_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us
            .fetch_add(d.as_micros() as u64, Ordering::Relaxed);
        self.max_us
            .fetch_max(d.as_micros() as u64, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest single observation, milliseconds (0 with no observations).
    pub fn max_ms(&self) -> f64 {
        self.max_us.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Quantile estimate (0.0..=1.0) by linear interpolation inside the
    /// owning bucket; `None` with no observations. The unbounded tail
    /// never interpolates: it reports the observed maximum (clamped to
    /// the bucket's lower bound), so a p99 that lands there is a real
    /// latency, not an extrapolation past the last bound.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if seen + c >= target {
                let lo = if i == 0 { 0.0 } else { BUCKET_BOUNDS_MS[i - 1] };
                if i >= BUCKET_BOUNDS_MS.len() {
                    return Some(self.max_ms().max(lo));
                }
                let hi = BUCKET_BOUNDS_MS[i];
                let into = (target - seen) as f64 / c.max(1) as f64;
                return Some(lo + (hi - lo) * into);
            }
            seen += c;
        }
        Some(BUCKET_BOUNDS_MS[BUCKET_BOUNDS_MS.len() - 1])
    }

    fn to_json(&self) -> Json {
        let count = self.count();
        let sum_ms = self.sum_us.load(Ordering::Relaxed) as f64 / 1e3;
        let mut fields = vec![
            ("count", Json::num(count as f64)),
            ("sum_ms", Json::num(round3(sum_ms))),
            ("max_ms", Json::num(round3(self.max_ms()))),
        ];
        for (label, q) in [("p50_ms", 0.5), ("p95_ms", 0.95), ("p99_ms", 0.99)] {
            fields.push((
                label,
                self.quantile_ms(q)
                    .map(|v| Json::num(round3(v)))
                    .unwrap_or(Json::Null),
            ));
        }
        fields.push((
            "buckets",
            Json::Arr(
                self.counts
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let le = BUCKET_BOUNDS_MS
                            .get(i)
                            .map(|&b| Json::num(b))
                            .unwrap_or(Json::Null); // null = +inf
                        Json::obj([
                            ("le_ms", le),
                            ("count", Json::num(c.load(Ordering::Relaxed) as f64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::obj(fields)
    }

    /// Append this histogram in Prometheus text exposition: cumulative
    /// `{name}_bucket{{endpoint=...,le=...}}` series (terminated by
    /// `le="+Inf"`) plus `_sum` and `_count`.
    fn to_prometheus(&self, out: &mut String, name: &str, endpoint: &str) {
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c.load(Ordering::Relaxed);
            match BUCKET_BOUNDS_MS.get(i) {
                Some(b) => out.push_str(&format!(
                    "{name}_bucket{{endpoint=\"{endpoint}\",le=\"{b}\"}} {cumulative}\n"
                )),
                None => out.push_str(&format!(
                    "{name}_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}} {cumulative}\n"
                )),
            }
        }
        let sum_ms = self.sum_us.load(Ordering::Relaxed) as f64 / 1e3;
        out.push_str(&format!("{name}_sum{{endpoint=\"{endpoint}\"}} {sum_ms}\n"));
        out.push_str(&format!(
            "{name}_count{{endpoint=\"{endpoint}\"}} {}\n",
            self.count()
        ));
    }
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// Exact nearest-rank percentile over a **sorted** latency sample,
/// milliseconds: the value at rank `ceil(q * n)` (1-based, clamped to the
/// sample). `None` on an empty sample.
///
/// This is the service's one exact-percentile definition; the repository
/// benchmark computes its client percentiles with it. The `/metrics`
/// histogram cannot afford to retain raw samples, so
/// [`Histogram::quantile_ms`] *approximates the same rank* by linear
/// interpolation inside the fixed bucket that contains it — the two agree
/// on which bucket owns the percentile and differ by at most that bucket's
/// width (see `docs/SERVE.md`, "Percentile definitions", and the
/// cross-check test below).
pub fn nearest_rank_ms(sorted_ms: &[f64], q: f64) -> Option<f64> {
    if sorted_ms.is_empty() {
        return None;
    }
    let n = sorted_ms.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted_ms[rank - 1])
}

/// The endpoints the service distinguishes in metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Runs,
    Sweep,
    Units,
    Artifacts,
    Healthz,
    Metrics,
    Other,
}

impl Endpoint {
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Runs,
        Endpoint::Sweep,
        Endpoint::Units,
        Endpoint::Artifacts,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Runs => "POST /v1/runs",
            Endpoint::Sweep => "POST /v1/sweep",
            Endpoint::Units => "POST /v1/units",
            Endpoint::Artifacts => "GET /v1/artifacts",
            Endpoint::Healthz => "GET /healthz",
            Endpoint::Metrics => "GET /metrics",
            Endpoint::Other => "other",
        }
    }
}

/// Status classes the service tracks (individual codes it actually emits).
const TRACKED_STATUSES: [u16; 10] = [200, 400, 404, 405, 408, 413, 422, 500, 503, 504];

/// All request metrics.
#[derive(Default)]
pub struct Metrics {
    latency: [Histogram; Endpoint::ALL.len()],
    by_status: [AtomicU64; TRACKED_STATUSES.len() + 1],
    requests_total: AtomicU64,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed request.
    pub fn observe(&self, endpoint: Endpoint, status: u16, latency: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let idx = Endpoint::ALL.iter().position(|&e| e == endpoint).unwrap();
        self.latency[idx].observe(latency);
        let sidx = TRACKED_STATUSES
            .iter()
            .position(|&s| s == status)
            .unwrap_or(TRACKED_STATUSES.len());
        self.by_status[sidx].fetch_add(1, Ordering::Relaxed);
    }

    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    pub fn endpoint_histogram(&self, endpoint: Endpoint) -> &Histogram {
        let idx = Endpoint::ALL.iter().position(|&e| e == endpoint).unwrap();
        &self.latency[idx]
    }

    /// The `http` section of the `/metrics` document.
    pub fn to_json(&self) -> Json {
        let statuses: Vec<(String, Json)> = TRACKED_STATUSES
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    s.to_string(),
                    Json::num(self.by_status[i].load(Ordering::Relaxed) as f64),
                )
            })
            .chain(std::iter::once((
                "other".to_string(),
                Json::num(self.by_status[TRACKED_STATUSES.len()].load(Ordering::Relaxed) as f64),
            )))
            .collect();
        let endpoints: Vec<(String, Json)> = Endpoint::ALL
            .iter()
            .enumerate()
            .map(|(i, e)| (e.label().to_string(), self.latency[i].to_json()))
            .collect();
        Json::obj([
            ("requests_total", Json::num(self.requests_total() as f64)),
            ("responses_by_status", Json::Obj(statuses)),
            ("endpoints", Json::Obj(endpoints)),
        ])
    }

    /// The HTTP section of the Prometheus text exposition: the same
    /// counters and histograms [`Metrics::to_json`] reports, one
    /// `# HELP`/`# TYPE`-annotated family per metric.
    pub fn to_prometheus(&self, out: &mut String) {
        out.push_str(concat!(
            "# HELP simserve_http_requests_total Requests handled, including shed and malformed ones.\n",
            "# TYPE simserve_http_requests_total counter\n",
        ));
        out.push_str(&format!(
            "simserve_http_requests_total {}\n",
            self.requests_total()
        ));
        out.push_str(concat!(
            "# HELP simserve_http_responses_total Responses by HTTP status code.\n",
            "# TYPE simserve_http_responses_total counter\n",
        ));
        for (i, s) in TRACKED_STATUSES.iter().enumerate() {
            out.push_str(&format!(
                "simserve_http_responses_total{{status=\"{s}\"}} {}\n",
                self.by_status[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "simserve_http_responses_total{{status=\"other\"}} {}\n",
            self.by_status[TRACKED_STATUSES.len()].load(Ordering::Relaxed)
        ));
        out.push_str(concat!(
            "# HELP simserve_http_request_duration_ms Request latency by endpoint, milliseconds.\n",
            "# TYPE simserve_http_request_duration_ms histogram\n",
        ));
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            self.latency[i].to_prometheus(out, "simserve_http_request_duration_ms", e.label());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for ms in [1.0f64, 2.0, 3.0, 100.0] {
            h.observe(Duration::from_secs_f64(ms / 1e3));
        }
        assert_eq!(h.count(), 4);
        // p50 falls in the (1, 2] or (2, 4] region depending on rounding;
        // it must be within the observed range and monotone with q.
        let p50 = h.quantile_ms(0.5).unwrap();
        let p99 = h.quantile_ms(0.99).unwrap();
        assert!((0.5..=4.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!(p99 <= 125.0);
        assert_eq!(Histogram::default().quantile_ms(0.5), None);
    }

    /// Regression: a quantile landing in the open-ended top bucket must
    /// report a real latency — the observed maximum (or at least the
    /// bucket's lower bound) — never a value interpolated past the last
    /// finite bound.
    #[test]
    fn overflow_bucket_reports_observed_max_not_interpolation() {
        let h = Histogram::default();
        h.observe(Duration::from_secs(600));
        // One 600 s observation: every quantile is that observation.
        assert_eq!(h.quantile_ms(0.5), Some(600_000.0));
        assert_eq!(h.quantile_ms(0.99), Some(600_000.0));
        assert_eq!(h.max_ms(), 600_000.0);

        // Mixed: p99 lands in the overflow bucket and reports the observed
        // max, which is at least the bucket's lower bound and exactly the
        // worst latency seen.
        let h = Histogram::default();
        for _ in 0..200 {
            h.observe(Duration::from_millis(1));
        }
        for _ in 0..3 {
            h.observe(Duration::from_secs(200));
        }
        let p99 = h.quantile_ms(0.99).unwrap();
        assert!(p99 >= 128_000.0, "p99 {p99} below the tail's lower bound");
        assert_eq!(p99, 200_000.0, "p99 must be the observed max");
    }

    /// The two percentile surfaces must agree up to bucket resolution:
    /// for any sample and quantile, the histogram's interpolated estimate
    /// lands in the *same bucket* as the exact nearest-rank value (they
    /// share the rank definition `ceil(q*n)`), so they can never differ by
    /// more than one bucket width — and the tail bucket reports the exact
    /// observed max, where they agree exactly.
    #[test]
    fn histogram_quantile_brackets_nearest_rank() {
        let bucket_of = |ms: f64| {
            BUCKET_BOUNDS_MS
                .iter()
                .position(|&b| ms <= b)
                .unwrap_or(BUCKET_BOUNDS_MS.len())
        };
        // A deliberately lumpy sample: dense floor, mid plateau, far tail.
        let mut sample: Vec<f64> = Vec::new();
        sample.extend((0..120).map(|i| 0.3 + 0.01 * i as f64));
        sample.extend((0..40).map(|i| 30.0 + i as f64));
        sample.extend([400.0, 900.0, 70_000.0, 200_000.0]);
        let h = Histogram::default();
        for &ms in &sample {
            h.observe(Duration::from_secs_f64(ms / 1e3));
        }
        // Compare against the values the histogram actually observed:
        // `Duration` quantizes to nanoseconds, which can nudge a sample
        // sitting exactly on a bucket bound across it.
        let mut sorted: Vec<f64> = sample
            .iter()
            .map(|&ms| Duration::from_secs_f64(ms / 1e3).as_secs_f64() * 1e3)
            .collect();
        sorted.sort_by(f64::total_cmp);
        for q in [0.05, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = nearest_rank_ms(&sorted, q).unwrap();
            let approx = h.quantile_ms(q).unwrap();
            assert_eq!(
                bucket_of(exact),
                bucket_of(approx),
                "q={q}: exact {exact} and histogram {approx} in different buckets"
            );
        }
        // In the unbounded tail both definitions are exact.
        assert_eq!(h.quantile_ms(1.0), Some(200_000.0));
        assert_eq!(nearest_rank_ms(&sorted, 1.0), Some(200_000.0));
        // Empty samples agree on "no answer".
        assert_eq!(nearest_rank_ms(&[], 0.5), None);
        assert_eq!(Histogram::default().quantile_ms(0.5), None);
    }

    #[test]
    fn metrics_track_status_and_endpoint() {
        let m = Metrics::new();
        m.observe(Endpoint::Runs, 200, Duration::from_millis(5));
        m.observe(Endpoint::Runs, 503, Duration::from_micros(100));
        m.observe(Endpoint::Healthz, 200, Duration::from_micros(50));
        assert_eq!(m.requests_total(), 3);
        assert_eq!(m.endpoint_histogram(Endpoint::Runs).count(), 2);
        let doc = m.to_json();
        assert_eq!(
            doc.get("responses_by_status")
                .unwrap()
                .get("200")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert_eq!(
            doc.get("responses_by_status")
                .unwrap()
                .get("503")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let runs = doc.get("endpoints").unwrap().get("POST /v1/runs").unwrap();
        assert_eq!(runs.get("count").unwrap().as_u64(), Some(2));
        assert!(runs.get("p95_ms").unwrap().as_f64().is_some());
    }
}
