//! The service's domain layer: request validation, campaign execution and
//! JSON response construction — everything between HTTP bytes and the
//! `characterize` crate.

use crate::json::{self, Json};
use characterize::artifact::{plan_artifacts, Artifact};
use characterize::campaign::{
    pareto_front, rep_indices, sweep_grid, unit_cache_key, Campaign, SweepPoint, SWEEP_CORE_MHZ,
    SWEEP_MEM_MHZ,
};
use characterize::{GpuConfigKind, MedianMeasurement};
use gpower::{PowerError, Reading};
use workloads::bench::{Benchmark, InputSpec};
use workloads::registry;

/// Maximum sweep grid size per request (core × memory points).
pub const MAX_SWEEP_POINTS: usize = 64;

/// The measurement-fidelity caveat attached to every measured response, in
/// the spirit of "Part-time Power Measurements: nvidia-smi's Lack of
/// Attention": the emulated sensor reproduces the K20's coarse on-board
/// sampling, so short runs are genuinely under-sampled rather than
/// smoothed over.
pub fn caveats() -> Json {
    Json::Arr(vec![
        Json::str(
            "power is sampled by an emulated on-board sensor at 1-10 Hz (the K20's \
             nvidia-smi path); runs shorter than a few samples are rejected as \
             unmeasurable rather than extrapolated",
        ),
        Json::str(
            "active runtime is quantized to the sampler grid; sub-100ms effects are \
             invisible (see 'Part-time Power Measurements: nvidia-smi's Lack of \
             Attention')",
        ),
    ])
}

/// A client-visible error: HTTP status + stable machine-readable code.
#[derive(Debug, Clone)]
pub struct ApiError {
    pub status: u16,
    pub code: &'static str,
    pub message: String,
    /// Extra structured fields merged into the `error` object.
    pub extra: Vec<(&'static str, Json)>,
}

impl ApiError {
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            message: message.into(),
            extra: Vec::new(),
        }
    }

    /// The response body: `{"error": {"code": ..., "message": ..., ...}}`.
    pub fn body(&self) -> Json {
        let mut fields = vec![
            ("code", Json::str(self.code)),
            ("message", Json::str(self.message.clone())),
        ];
        fields.extend(self.extra.iter().cloned());
        Json::obj([("error", Json::obj(fields))])
    }
}

/// A cached measurement failure is not a server fault: it is the paper's
/// "too fast to measure" outcome, served as `422` with a stable code so a
/// poisoned cache entry round-trips as the same structured error forever.
pub fn measurement_error(e: &PowerError) -> ApiError {
    match e {
        PowerError::InsufficientSamples(n) => {
            let mut err = ApiError::new(
                422,
                "insufficient_samples",
                format!(
                    "run produced {n} above-threshold power samples, fewer than the \
                     K20Power minimum; the paper excludes such runs rather than \
                     reporting them"
                ),
            );
            err.extra.push(("observed_samples", Json::num(*n as f64)));
            err
        }
        PowerError::NoSamples => ApiError::new(
            422,
            "no_samples",
            "run produced no power samples at all (empty trace)",
        ),
    }
}

/// Parameters of one `/v1/runs` request.
#[derive(Clone)]
pub struct RunParams {
    pub bench: std::sync::Arc<dyn Benchmark>,
    pub input: InputSpec,
    pub config: GpuConfigKind,
    pub reps: u64,
}

impl std::fmt::Debug for RunParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunParams")
            .field("bench", &self.bench.spec().key)
            .field("input", &self.input.name)
            .field("config", &self.config)
            .field("reps", &self.reps)
            .finish()
    }
}

fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(400, "invalid_body", "body is not UTF-8"))?;
    json::parse(text).map_err(|e| ApiError::new(400, "invalid_json", e.to_string()))
}

fn lookup_workload(doc: &Json) -> Result<std::sync::Arc<dyn Benchmark>, ApiError> {
    let key = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::new(400, "missing_field", "\"workload\" (string) is required"))?;
    registry::by_key(key)
        .map(std::sync::Arc::from)
        .ok_or_else(|| {
            ApiError::new(
                404,
                "unknown_workload",
                format!("no workload with key {key:?}; see GET /v1/workloads"),
            )
        })
}

fn lookup_input(bench: &dyn Benchmark, doc: &Json) -> Result<InputSpec, ApiError> {
    let inputs = bench.inputs();
    match doc.get("input") {
        None => Ok(inputs[0].clone()),
        Some(Json::Str(name)) => inputs
            .iter()
            .find(|i| i.name == name)
            .cloned()
            .ok_or_else(|| {
                let known: Vec<&str> = inputs.iter().map(|i| i.name).collect();
                ApiError::new(
                    404,
                    "unknown_input",
                    format!("no input named {name:?}; this workload has {known:?}"),
                )
            }),
        Some(n) => {
            let idx = n.as_u64().ok_or_else(|| {
                ApiError::new(400, "invalid_input", "\"input\" must be a name or an index")
            })?;
            inputs.get(idx as usize).cloned().ok_or_else(|| {
                ApiError::new(
                    404,
                    "unknown_input",
                    format!("input index {idx} out of range (0..{})", inputs.len()),
                )
            })
        }
    }
}

fn lookup_reps(doc: &Json) -> Result<u64, ApiError> {
    match doc.get("reps") {
        None => Ok(1),
        Some(v) => match v.as_u64() {
            Some(r @ 1) | Some(r @ 3) => Ok(r),
            _ => Err(ApiError::new(
                400,
                "invalid_reps",
                "\"reps\" must be 1 (quick) or 3 (the paper's median-of-three)",
            )),
        },
    }
}

/// Parse and validate a `/v1/runs` body.
pub fn parse_run_request(body: &[u8]) -> Result<RunParams, ApiError> {
    let doc = parse_body(body)?;
    let bench = lookup_workload(&doc)?;
    let input = lookup_input(bench.as_ref(), &doc)?;
    let reps = lookup_reps(&doc)?;
    let config = match doc.get("config") {
        None => GpuConfigKind::Default,
        Some(v) => {
            let name = v.as_str().ok_or_else(|| {
                ApiError::new(400, "invalid_config", "\"config\" must be a string")
            })?;
            GpuConfigKind::from_name(name).ok_or_else(|| {
                ApiError::new(
                    400,
                    "unknown_config",
                    format!("no configuration {name:?}; one of default/614/324/ECC/cache/cache614"),
                )
            })?
        }
    };
    Ok(RunParams {
        bench,
        input,
        config,
        reps,
    })
}

fn reading_json(r: &Reading) -> Json {
    Json::obj([
        ("active_runtime_s", Json::num(r.active_runtime_s)),
        ("energy_j", Json::num(r.energy_j)),
        ("avg_power_w", Json::num(r.avg_power_w)),
        ("threshold_w", Json::num(r.threshold_w)),
        ("idle_w", Json::num(r.idle_w)),
        ("n_active_samples", Json::num(r.n_active_samples as f64)),
    ])
}

fn median_json(params: &RunParams, m: &MedianMeasurement) -> Json {
    let mut fields = vec![
        ("workload", Json::str(params.bench.spec().key)),
        ("input", Json::str(params.input.name)),
        ("config", Json::str(params.config.name())),
        ("reps", Json::num(params.reps as f64)),
        ("median", reading_json(&m.reading)),
    ];
    if params.reps >= 3 {
        fields.push((
            "variability_pct",
            Json::obj([
                ("time", Json::num(m.time_variability_pct)),
                ("energy", Json::num(m.energy_variability_pct)),
            ]),
        ));
    }
    if let Some(items) = &m.items {
        fields.push((
            "items",
            Json::obj([
                ("vertices", Json::num(items.vertices as f64)),
                ("edges", Json::num(items.edges as f64)),
            ]),
        ));
    }
    fields.push((
        "cache",
        Json::obj([
            ("l1_hits", Json::num(m.counters.l1_hits)),
            ("l2_hits", Json::num(m.counters.l2_hits)),
            ("dram_transactions", Json::num(m.counters.dram_transactions)),
            ("mshr_merges", Json::num(m.counters.mshr_merges)),
            ("l1_hit_rate", Json::num(m.counters.l1_hit_rate())),
            ("l2_hit_rate", Json::num(m.counters.l2_hit_rate())),
        ]),
    ));
    fields.push(("energy_breakdown", breakdown_json(params, m)));
    fields.push(("caveats", caveats()));
    Json::obj(fields)
}

/// Instruction-class attribution of the run's board trace-integral energy:
/// `{"board_energy_j": ..., "classes": {"fp32": ..., ..., "unmodeled": ...}}`.
/// The class values (residual included) sum to `board_energy_j` exactly.
fn breakdown_json(params: &RunParams, m: &MedianMeasurement) -> Json {
    let bd = kepler_sim::attribute_energy(
        &params.config.device_config(),
        &m.counters,
        m.trace_end_s,
        m.kernel_time_s,
        m.board_energy_j,
    );
    Json::obj([
        ("board_energy_j", Json::num(bd.board_energy_j)),
        (
            "classes",
            Json::Obj(
                bd.rows()
                    .map(|(c, j)| (c.name().to_string(), Json::num(j)))
                    .collect(),
            ),
        ),
        ("unmodeled_pct", Json::num(100.0 * bd.unmodeled_frac())),
    ])
}

/// Execute a `/v1/runs` request against the shared campaign.
pub fn run_response(campaign: &Campaign, params: &RunParams) -> Result<Json, ApiError> {
    let m = campaign
        .measurement(
            params.bench.as_ref(),
            &params.input,
            params.config,
            params.reps,
        )
        .map_err(|e| measurement_error(&e))?;
    Ok(median_json(params, &m))
}

/// Parameters of one `/v1/sweep` request.
#[derive(Clone)]
pub struct SweepParams {
    pub bench: std::sync::Arc<dyn Benchmark>,
    pub input: InputSpec,
    pub grid: Vec<SweepPoint>,
    pub reps: u64,
}

impl std::fmt::Debug for SweepParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepParams")
            .field("bench", &self.bench.spec().key)
            .field("input", &self.input.name)
            .field("grid", &self.grid)
            .field("reps", &self.reps)
            .finish()
    }
}

fn clock_list(doc: &Json, field: &'static str, range: (f64, f64)) -> Result<Vec<f64>, ApiError> {
    let arr = doc.get(field).and_then(Json::as_arr).ok_or_else(|| {
        ApiError::new(
            400,
            "missing_field",
            format!("\"{field}\" (array of MHz values) is required"),
        )
    })?;
    if arr.is_empty() {
        return Err(ApiError::new(
            400,
            "invalid_clock",
            format!("\"{field}\" must not be empty"),
        ));
    }
    arr.iter()
        .map(|v| {
            v.as_f64()
                .filter(|mhz| (range.0..=range.1).contains(mhz))
                .ok_or_else(|| {
                    ApiError::new(
                        400,
                        "invalid_clock",
                        format!(
                            "\"{field}\" entries must be numbers in {:.0}..={:.0} MHz, got {}",
                            range.0,
                            range.1,
                            v.dump()
                        ),
                    )
                })
        })
        .collect()
}

/// Parse and validate a `/v1/sweep` body.
pub fn parse_sweep_request(body: &[u8]) -> Result<SweepParams, ApiError> {
    let doc = parse_body(body)?;
    let bench = lookup_workload(&doc)?;
    let input = lookup_input(bench.as_ref(), &doc)?;
    let reps = lookup_reps(&doc)?;
    let core = clock_list(&doc, "core_mhz", SWEEP_CORE_MHZ)?;
    let mem = clock_list(&doc, "mem_mhz", SWEEP_MEM_MHZ)?;
    let grid = sweep_grid(&core, &mem);
    if grid.len() > MAX_SWEEP_POINTS {
        return Err(ApiError::new(
            400,
            "sweep_too_large",
            format!(
                "grid has {} points; the limit is {MAX_SWEEP_POINTS} per request",
                grid.len()
            ),
        ));
    }
    Ok(SweepParams {
        bench,
        input,
        grid,
        reps,
    })
}

/// Execute a `/v1/sweep`: resolve the grid, embed per-point outcomes
/// (unmeasurable points carry their structured error), and flag the
/// Pareto frontier of energy vs runtime — the sweet-spot search.
pub fn sweep_response(campaign: &Campaign, params: &SweepParams) -> Json {
    let outcomes = campaign.sweep(
        params.bench.as_ref(),
        &params.input,
        &params.grid,
        params.reps,
    );
    // Pareto over the measurable points only.
    let measured: Vec<(f64, f64)> = outcomes
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().map(|m| (m.active_runtime_s, m.energy_j)))
        .collect();
    let flags = pareto_front(&measured);
    let mut flag_iter = flags.iter();
    let points: Vec<Json> = outcomes
        .iter()
        .map(|(p, r)| {
            let mut fields = vec![
                ("core_mhz", Json::num(p.core_mhz)),
                ("mem_mhz", Json::num(p.mem_mhz)),
            ];
            match r {
                Ok(reading) => {
                    let pareto = *flag_iter.next().unwrap();
                    fields.push(("reading", reading_json(reading)));
                    fields.push(("pareto", Json::Bool(pareto)));
                }
                Err(e) => {
                    fields.push((
                        "error",
                        measurement_error(e).body().get("error").unwrap().clone(),
                    ));
                    fields.push(("pareto", Json::Bool(false)));
                }
            }
            Json::obj(fields)
        })
        .collect();
    // The frontier, sorted by runtime ascending, as a compact summary.
    let mut frontier: Vec<(f64, f64, f64)> = outcomes
        .iter()
        .filter_map(|(p, r)| {
            r.as_ref()
                .ok()
                .map(|m| (p.core_mhz, p.mem_mhz, m.active_runtime_s))
        })
        .zip(flags.iter())
        .filter(|(_, &f)| f)
        .map(|(x, _)| x)
        .collect();
    frontier.sort_by(|a, b| a.2.total_cmp(&b.2));
    Json::obj([
        ("workload", Json::str(params.bench.spec().key)),
        ("input", Json::str(params.input.name)),
        ("reps", Json::num(params.reps as f64)),
        ("points", Json::Arr(points)),
        (
            "pareto_frontier",
            Json::Arr(
                frontier
                    .into_iter()
                    .map(|(c, m, t)| {
                        Json::obj([
                            ("core_mhz", Json::num(c)),
                            ("mem_mhz", Json::num(m)),
                            ("active_runtime_s", Json::num(t)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("caveats", caveats()),
    ])
}

/// Resolve an artifact name, or the `404` that lists every name.
pub fn lookup_artifact(name: &str) -> Result<Artifact, ApiError> {
    Artifact::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Artifact::VARIANTS.iter().map(|a| a.name()).collect();
        ApiError::new(
            404,
            "unknown_artifact",
            format!("no artifact {name:?}; one of {names:?}"),
        )
    })
}

/// One artifact's text, byte-identical to `repro <name>` stdout at the
/// same repetition count. The artifact's run matrix is prefetched through
/// the shared campaign (one deduplicated parallel pass; progress events
/// flow to subscribers), then rendered from the memo.
pub fn artifact_text(campaign: &Campaign, artifact: Artifact, reps: u64) -> String {
    campaign.execute(&plan_artifacts(&[artifact], reps));
    // `repro` prints with `println!`, so the body carries the newline.
    format!("{}\n", artifact.render(campaign, reps))
}

/// `GET /v1/workloads`: the discoverable request space.
pub fn workloads_response() -> Json {
    let items: Vec<Json> = registry::all()
        .iter()
        .map(|b| {
            let spec = b.spec();
            Json::obj([
                ("key", Json::str(spec.key)),
                ("name", Json::str(spec.name)),
                ("suite", Json::str(spec.suite.name())),
                ("regular", Json::Bool(spec.regular)),
                (
                    "inputs",
                    Json::Arr(b.inputs().iter().map(|i| Json::str(i.name)).collect()),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("workloads", Json::Arr(items)),
        (
            "configs",
            Json::Arr(
                GpuConfigKind::ALL
                    .iter()
                    .map(|c| Json::str(c.name()))
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Campaign units (`POST /v1/units`) — the coordinator/worker wire format
// ---------------------------------------------------------------------------

/// Maximum units one `/v1/units` request may carry — far above any chunk
/// the dispatcher sends, small enough to bound one queue job.
pub const MAX_UNITS_PER_REQUEST: usize = 512;

/// The configuration of one campaign unit on the wire: a paper-named
/// setting, or an exact sweep point.
#[derive(Clone, Debug, PartialEq)]
pub enum UnitConfig {
    Named(GpuConfigKind),
    Sweep(SweepPoint),
}

impl UnitConfig {
    /// The cache-identity tag ([`GpuConfigKind::name`] /
    /// [`SweepPoint::cache_tag`]).
    fn cache_tag(&self) -> String {
        match self {
            UnitConfig::Named(c) => c.name().to_string(),
            UnitConfig::Sweep(p) => p.cache_tag(),
        }
    }
}

/// One unit of campaign work, serializable for `/v1/units`: a single
/// repetition of one workload input under one configuration. The worker
/// executes it for its *side effect* — the result record landing in the
/// shared on-disk campaign cache — so the coordinator can afterwards
/// render any response locally, byte-identical to single-process serving.
#[derive(Clone)]
pub struct Unit {
    pub bench: std::sync::Arc<dyn Benchmark>,
    pub input: InputSpec,
    pub config: UnitConfig,
    pub rep: u64,
}

impl std::fmt::Debug for Unit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Unit")
            .field("bench", &self.bench.spec().key)
            .field("input", &self.input.name)
            .field("config", &self.config)
            .field("rep", &self.rep)
            .finish()
    }
}

impl Unit {
    /// The unit's canonical cache key — what every cache layer uses and
    /// what the dispatcher partitions by.
    pub fn cache_key(&self) -> String {
        unit_cache_key(
            self.bench.spec().key,
            &self.input,
            &self.config.cache_tag(),
            self.rep,
        )
    }

    /// The wire form. Sweep clocks travel as hexadecimal f64 bit patterns
    /// (`core_bits`/`mem_bits`), never as decimal text, so a unit's cache
    /// identity survives the round-trip bit-exactly.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload", Json::str(self.bench.spec().key)),
            ("input", Json::str(self.input.name)),
            ("rep", Json::num(self.rep as f64)),
        ];
        match &self.config {
            UnitConfig::Named(c) => fields.push(("config", Json::str(c.name()))),
            UnitConfig::Sweep(p) => {
                fields.push((
                    "core_bits",
                    Json::Str(format!("{:016x}", p.core_mhz.to_bits())),
                ));
                fields.push((
                    "mem_bits",
                    Json::Str(format!("{:016x}", p.mem_mhz.to_bits())),
                ));
            }
        }
        Json::obj(fields)
    }

    /// Execute the unit against a campaign. Measurement errors are a
    /// *successful* execution (the structured error is now cached, which
    /// is all the coordinator needs).
    pub fn execute(&self, campaign: &Campaign) -> Result<(), PowerError> {
        match &self.config {
            UnitConfig::Named(c) => campaign
                .run(self.bench.as_ref(), &self.input, *c, self.rep)
                .map(|_| ()),
            UnitConfig::Sweep(p) => campaign
                .run_sweep_point(self.bench.as_ref(), &self.input, *p, self.rep)
                .map(|_| ()),
        }
    }
}

/// The units behind one `/v1/runs` request.
pub fn run_units(params: &RunParams) -> Vec<Unit> {
    rep_indices(params.reps)
        .map(|rep| Unit {
            bench: std::sync::Arc::clone(&params.bench),
            input: params.input.clone(),
            config: UnitConfig::Named(params.config),
            rep,
        })
        .collect()
}

/// The units behind one `/v1/sweep` request (grid × repetitions).
pub fn sweep_units(params: &SweepParams) -> Vec<Unit> {
    params
        .grid
        .iter()
        .flat_map(|&p| rep_indices(params.reps).map(move |rep| (p, rep)))
        .map(|(p, rep)| Unit {
            bench: std::sync::Arc::clone(&params.bench),
            input: params.input.clone(),
            config: UnitConfig::Sweep(p),
            rep,
        })
        .collect()
}

/// The deduplicated unit matrix behind one artifact, in plan order
/// (empty for the measurement-free artifacts).
pub fn artifact_units(artifact: Artifact, reps: u64) -> Vec<Unit> {
    plan_artifacts(&[artifact], reps)
        .into_iter()
        .filter_map(|r| {
            registry::by_key(r.key).map(|b| Unit {
                bench: std::sync::Arc::from(b),
                input: r.input,
                config: UnitConfig::Named(r.config),
                rep: r.rep,
            })
        })
        .collect()
}

/// Parse a `/v1/units` body: `{"units": [{...}, ...]}` with each unit in
/// [`Unit::to_json`]'s wire form.
pub fn parse_units_request(body: &[u8]) -> Result<Vec<Unit>, ApiError> {
    let doc = parse_body(body)?;
    let arr = doc
        .get("units")
        .and_then(Json::as_arr)
        .ok_or_else(|| ApiError::new(400, "missing_field", "\"units\" (array) is required"))?;
    if arr.len() > MAX_UNITS_PER_REQUEST {
        return Err(ApiError::new(
            400,
            "too_many_units",
            format!(
                "{} units in one request; the limit is {MAX_UNITS_PER_REQUEST}",
                arr.len()
            ),
        ));
    }
    arr.iter()
        .map(|u| {
            let bench = lookup_workload(u)?;
            let input = lookup_input(bench.as_ref(), u)?;
            let rep = u.get("rep").and_then(Json::as_u64).ok_or_else(|| {
                ApiError::new(
                    400,
                    "missing_field",
                    "\"rep\" (integer) is required per unit",
                )
            })?;
            let config = match (u.get("config"), u.get("core_bits"), u.get("mem_bits")) {
                (Some(c), None, None) => {
                    let name = c.as_str().ok_or_else(|| {
                        ApiError::new(400, "invalid_config", "\"config\" must be a string")
                    })?;
                    UnitConfig::Named(GpuConfigKind::from_name(name).ok_or_else(|| {
                        ApiError::new(400, "unknown_config", format!("no configuration {name:?}"))
                    })?)
                }
                (None, Some(c), Some(m)) => {
                    let bits = |v: &Json, field: &str| {
                        v.as_str()
                            .and_then(|s| u64::from_str_radix(s, 16).ok())
                            .map(f64::from_bits)
                            .ok_or_else(|| {
                                ApiError::new(
                                    400,
                                    "invalid_clock",
                                    format!("\"{field}\" must be a 16-digit hex f64 bit pattern"),
                                )
                            })
                    };
                    let point = SweepPoint {
                        core_mhz: bits(c, "core_bits")?,
                        mem_mhz: bits(m, "mem_bits")?,
                    };
                    if !point.is_valid() {
                        return Err(ApiError::new(
                            400,
                            "invalid_clock",
                            format!(
                                "sweep point ({}, {}) outside the driver range",
                                point.core_mhz, point.mem_mhz
                            ),
                        ));
                    }
                    UnitConfig::Sweep(point)
                }
                _ => {
                    return Err(ApiError::new(
                        400,
                        "invalid_unit",
                        "each unit needs either \"config\" or both \"core_bits\" and \"mem_bits\"",
                    ))
                }
            };
            Ok(Unit {
                bench,
                input,
                config,
                rep,
            })
        })
        .collect()
}

/// Execute a `/v1/units` chunk. Every unit is resolved through the shared
/// campaign (memo → disk → trace replay → wait for a recording →
/// simulate, in-flight dedup included); measurement errors count as
/// executed — their structured form is cached, which is the worker's
/// whole contract.
pub fn units_response(campaign: &Campaign, units: &[Unit]) -> Json {
    let mut ok = 0usize;
    let mut unmeasurable = 0usize;
    for u in units {
        match u.execute(campaign) {
            Ok(()) => ok += 1,
            Err(_) => unmeasurable += 1,
        }
    }
    Json::obj([
        ("executed", Json::num(units.len() as f64)),
        ("ok", Json::num(ok as f64)),
        ("unmeasurable", Json::num(unmeasurable as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_a_minimal_run_request() {
        let p = parse_run_request(br#"{"workload": "sgemm"}"#).unwrap();
        assert_eq!(p.bench.spec().key, "sgemm");
        assert_eq!(p.config, GpuConfigKind::Default);
        assert_eq!(p.reps, 1);
        assert_eq!(p.input.name, p.bench.inputs()[0].name);
    }

    #[test]
    fn run_request_validation_errors_carry_stable_codes() {
        for (body, status, code) in [
            (&br#"not json"#[..], 400, "invalid_json"),
            (br#"{}"#, 400, "missing_field"),
            (br#"{"workload": "nope"}"#, 404, "unknown_workload"),
            (
                br#"{"workload": "sgemm", "input": "nope"}"#,
                404,
                "unknown_input",
            ),
            (
                br#"{"workload": "sgemm", "input": 99}"#,
                404,
                "unknown_input",
            ),
            (
                br#"{"workload": "sgemm", "config": "999"}"#,
                400,
                "unknown_config",
            ),
            (br#"{"workload": "sgemm", "reps": 2}"#, 400, "invalid_reps"),
        ] {
            let e = parse_run_request(body).unwrap_err();
            assert_eq!((e.status, e.code), (status, code), "{body:?}");
            // The body shape is {"error": {"code": ...}}.
            assert_eq!(
                e.body().get("error").unwrap().get("code").unwrap().as_str(),
                Some(code)
            );
        }
    }

    #[test]
    fn config_names_parse_case_insensitively() {
        let p = parse_run_request(br#"{"workload": "sgemm", "config": "ecc"}"#).unwrap();
        assert_eq!(p.config, GpuConfigKind::Ecc);
        let p = parse_run_request(br#"{"workload": "sgemm", "config": "614"}"#).unwrap();
        assert_eq!(p.config, GpuConfigKind::C614);
    }

    #[test]
    fn measurement_errors_map_to_422_with_stable_codes() {
        let e = measurement_error(&PowerError::InsufficientSamples(4));
        assert_eq!((e.status, e.code), (422, "insufficient_samples"));
        let err_obj = e.body();
        let inner = err_obj.get("error").unwrap();
        assert_eq!(inner.get("observed_samples").unwrap().as_u64(), Some(4));
        let e = measurement_error(&PowerError::NoSamples);
        assert_eq!((e.status, e.code), (422, "no_samples"));
    }

    #[test]
    fn sweep_request_validates_grid() {
        let p = parse_sweep_request(
            br#"{"workload": "sgemm", "core_mhz": [705, 614], "mem_mhz": [2600]}"#,
        )
        .unwrap();
        assert_eq!(p.grid.len(), 2);
        let e =
            parse_sweep_request(br#"{"workload": "sgemm", "core_mhz": [9999], "mem_mhz": [2600]}"#)
                .unwrap_err();
        assert_eq!(e.code, "invalid_clock");
        let e = parse_sweep_request(br#"{"workload": "sgemm", "core_mhz": [705], "mem_mhz": []}"#)
            .unwrap_err();
        assert_eq!(e.code, "invalid_clock");
        let e = parse_sweep_request(br#"{"workload": "sgemm", "mem_mhz": [2600]}"#).unwrap_err();
        assert_eq!(e.code, "missing_field");
        // 9 x 9 = 81 > 64.
        let nine = "[324,400,450,500,550,600,650,700,758]";
        let body = format!(
            r#"{{"workload": "sgemm", "core_mhz": {nine}, "mem_mhz": [324,500,700,900,1100,1300,1500,1700,2600]}}"#
        );
        let e = parse_sweep_request(body.as_bytes()).unwrap_err();
        assert_eq!(e.code, "sweep_too_large");
    }

    #[test]
    fn artifact_names_cover_repro_and_reject_unknown() {
        let c = Campaign::in_memory();
        let e = lookup_artifact("table9").unwrap_err();
        assert_eq!((e.status, e.code), (404, "unknown_artifact"));
        // The measurement-free artifacts render without touching the
        // simulator's measurement path.
        let t1 = artifact_text(&c, lookup_artifact("table1").unwrap(), 1);
        assert!(t1.starts_with("Table 1"));
        assert!(t1.ends_with('\n'));
    }

    #[test]
    fn workloads_response_lists_the_registry() {
        let doc = workloads_response();
        let items = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), registry::all().len());
        assert_eq!(doc.get("configs").unwrap().as_arr().unwrap().len(), 4);
    }

    /// The wire form preserves cache identity bit-exactly: planner units
    /// serialized, re-parsed, and re-keyed must match — including a sweep
    /// clock that has no finite decimal representation.
    #[test]
    fn unit_wire_round_trip_preserves_cache_keys() {
        let sweep = parse_sweep_request(
            br#"{"workload": "sgemm", "core_mhz": [614, 705.1], "mem_mhz": [2600], "reps": 3}"#,
        )
        .unwrap();
        let mut units = sweep_units(&sweep);
        let run =
            parse_run_request(br#"{"workload": "sten", "config": "ecc", "reps": 1}"#).unwrap();
        units.extend(run_units(&run));
        assert_eq!(units.len(), 2 * 3 + 1);
        let body = Json::obj([(
            "units",
            Json::Arr(units.iter().map(Unit::to_json).collect()),
        )])
        .dump();
        let parsed = parse_units_request(body.as_bytes()).unwrap();
        assert_eq!(parsed.len(), units.len());
        for (a, b) in units.iter().zip(&parsed) {
            assert_eq!(a.cache_key(), b.cache_key());
        }
    }

    #[test]
    fn units_request_validation() {
        let e = parse_units_request(br#"{}"#).unwrap_err();
        assert_eq!(e.code, "missing_field");
        let e =
            parse_units_request(br#"{"units": [{"workload": "sgemm", "rep": 0}]}"#).unwrap_err();
        assert_eq!(e.code, "invalid_unit");
        let e = parse_units_request(
            br#"{"units": [{"workload": "sgemm", "rep": 0, "core_bits": "xyz", "mem_bits": "0"}]}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, "invalid_clock");
        // Artifact planning exposes a non-empty keyed matrix.
        let plan = artifact_units(Artifact::Table4, 1);
        assert!(!plan.is_empty());
        assert!(plan[0].cache_key().contains("|cfg="));
    }

    /// Every registry program, variants included, as `/v1/units` names it.
    fn registry_benches() -> Vec<std::sync::Arc<dyn Benchmark>> {
        registry::all()
            .into_iter()
            .chain(registry::variants())
            .map(std::sync::Arc::from)
            .collect()
    }

    /// A random unit: any registry workload and input, a named
    /// configuration or a sweep point at in-range clocks, and rep 0–2.
    fn arb_unit() -> impl Strategy<Value = Unit> {
        (
            0usize..1024,
            0usize..1024,
            0usize..=GpuConfigKind::VARIANTS.len(),
            SWEEP_CORE_MHZ.0..SWEEP_CORE_MHZ.1,
            SWEEP_MEM_MHZ.0..SWEEP_MEM_MHZ.1,
            0u64..=2,
        )
            .prop_map(|(b, i, c, core_mhz, mem_mhz, rep)| {
                let benches = registry_benches();
                let bench = std::sync::Arc::clone(&benches[b % benches.len()]);
                let inputs = bench.inputs();
                let input = inputs[i % inputs.len()].clone();
                let config = match GpuConfigKind::VARIANTS.get(c) {
                    Some(&k) => UnitConfig::Named(k),
                    None => UnitConfig::Sweep(SweepPoint { core_mhz, mem_mhz }),
                };
                Unit {
                    bench,
                    input,
                    config,
                    rep,
                }
            })
    }

    fn units_body(units: &[Unit]) -> String {
        Json::obj([(
            "units",
            Json::Arr(units.iter().map(Unit::to_json).collect()),
        )])
        .dump()
    }

    proptest! {
        #[test]
        fn units_parser_survives_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..512),
        ) {
            if let Err(e) = parse_units_request(&bytes) {
                prop_assert!((400..500).contains(&e.status), "{e:?}");
            }
        }

        #[test]
        fn units_parser_survives_damaged_bodies(
            units in proptest::collection::vec(arb_unit(), 1..4),
            cut in 0usize..4096,
            flips in proptest::collection::vec((0usize..4096, 0u8..=255), 0..4),
        ) {
            let mut bytes = units_body(&units).into_bytes();
            for (at, b) in flips {
                let at = at % bytes.len();
                bytes[at] = b;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            if let Err(e) = parse_units_request(&bytes) {
                prop_assert!((400..500).contains(&e.status), "{e:?}");
            }
        }

        #[test]
        fn units_round_trip_their_cache_keys(
            units in proptest::collection::vec(arb_unit(), 1..8),
        ) {
            let parsed = parse_units_request(units_body(&units).as_bytes())
                .unwrap_or_else(|e| panic!("{units:?}: {e:?}"));
            prop_assert_eq!(parsed.len(), units.len());
            for (a, b) in units.iter().zip(&parsed) {
                prop_assert_eq!(a.cache_key(), b.cache_key());
            }
        }
    }

    /// End-to-end through the campaign: a real run response with the
    /// caveats attached, and byte-identical JSON for identical requests.
    #[test]
    fn run_response_is_deterministic_json() {
        let c = Campaign::in_memory();
        let p = parse_run_request(br#"{"workload": "sten"}"#).unwrap();
        let a = run_response(&c, &p).unwrap().dump();
        let b = run_response(&c, &p).unwrap().dump();
        assert_eq!(a, b);
        let doc = json::parse(&a).unwrap();
        assert!(
            doc.get("median")
                .unwrap()
                .get("energy_j")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert_eq!(doc.get("caveats").unwrap().as_arr().unwrap().len(), 2);
    }
}
