//! JSON serialization for [`PipelineTrace`] over [`crate::jsonio`].
//!
//! Schema (optional fields omitted when absent):
//!
//! ```json
//! {"schema": 6,
//!  "stages": [
//!   {"stage": "solve", "rows": 2, "wall_ns": 1234,
//!    "model_vars": 56, "model_constraints": 78,
//!    "classes": {"clause": 60, "amo": 10, "card": 6, "linear": 2},
//!    "solve": {"nodes": 9, "propagations": 10, "conflicts": 1,
//!              "learned": 0, "restarts": 0, "learned_kept": 0,
//!              "learned_deleted": 0, "shared_prunes": 0,
//!              "duration_ns": 1200, "proved_optimal": true,
//!              "stop_reason": "deadline",
//!              "props_by_class": {"clause": 7, "amo": 2, "card": 1, "linear": 0},
//!              "conflicts_by_class": {"clause": 1, "amo": 0, "card": 0, "linear": 0},
//!              "plbd_hist": [3, 1, 0, 0, 0, 0, 0, 0],
//!              "incumbents": [{"at_ns": 3, "objective": 4}]},
//!    "threads": 2, "winner_strategy": "cbj", "tuning": "seed=off",
//!    "shared_prunes": 1, "thread_solves": [{"nodes": 9, "...": "..."}]}
//! ]}
//! ```
//!
//! `threads`, `winner_strategy`, and `shared_prunes` describe parallel
//! search (a portfolio solve, or the best-area sweep's summary record);
//! `thread_solves` carries the per-thread stats breakdown when a stage
//! raced more than one solver.
//!
//! The document is versioned: writers emit `"schema":` [`TRACE_SCHEMA`].
//! Optional fields are omitted when absent or empty and default on
//! parse: on a stage, the `classes` histogram (how the model's
//! constraints classify into clause / at-most-one / cardinality /
//! general-linear) and the `tuning` stamp (the compact rendering of the
//! applied `TuningPlan`, present only on stages a plan shaped); inside
//! solver stats, the `props_by_class` / `conflicts_by_class` counters,
//! the `plbd_hist` array (learned constraints by PLBD bucket 1..=8, last
//! bucket absorbing deeper), and the `stop_reason` string
//! (`"deadline"`, `"node_budget"`, `"cancelled"`, or `"panicked"` — why
//! an unproved search stopped). Version 6 added the `"pareto"` stage
//! and its per-point `pareto` array on the stage record: each entry
//! carries the point's objective parameterization (`objective`,
//! `track_pitch`, `diffusion_overhead`, `rail_overhead`,
//! `interrow_weight`), its outcome (`width`/`tracks`/`height`, omitted
//! when the point produced none), and the race flags (`proved`,
//! `reused`, `pruned`, `on_frontier`, optional `dominated_by` index).
//! The parser accepts the current version and the one before it (5,
//! which lacks only the Pareto fields) and rejects any other version,
//! or a document without a `schema` key, rather than misread a layout
//! it does not know.
//!
//! Durations are integral nanoseconds, so emit → parse → emit is exact.
//! `clip synth --trace FILE` writes this document, and the bench harness
//! embeds the per-stage objects (via [`stage_to_value`]) in its JSONL.

use std::fmt;
use std::time::Duration;

use clip_core::pipeline::{
    ClassCounts, ConstraintClass, ParetoPointRecord, PipelineTrace, SolveStats, Stage, StageRecord,
    StopReason,
};

use crate::jsonio::{self, Json, JsonError};

/// The trace schema version this crate writes. Version 6 added the
/// Pareto frontier fields (the `"pareto"` stage and its per-point
/// `pareto` array); [`parse`] also accepts version 5, the one before it.
pub const TRACE_SCHEMA: i64 = 6;

/// A trace deserialization failure.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceError {
    /// The text is not valid JSON.
    Json(JsonError),
    /// The JSON does not match the trace schema.
    Schema(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json(e) => write!(f, "trace: {e}"),
            TraceError::Schema(msg) => write!(f, "trace schema: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<JsonError> for TraceError {
    fn from(e: JsonError) -> Self {
        TraceError::Json(e)
    }
}

fn dur_to_json(d: Duration) -> Json {
    Json::Int(i64::try_from(d.as_nanos()).unwrap_or(i64::MAX))
}

/// Serializes a per-class counter set (`{"clause": n, "amo": n, ...}`).
fn classes_to_value(c: &ClassCounts) -> Json {
    Json::obj(ConstraintClass::ALL.iter().map(|&cl| {
        (
            cl.name(),
            Json::Int(i64::try_from(c.get(cl)).unwrap_or(i64::MAX)),
        )
    }))
}

/// Parses a per-class counter object; unknown keys are rejected so a
/// future class rename cannot be silently dropped.
fn classes_from_value(v: &Json, key: &str) -> Result<ClassCounts, TraceError> {
    let pairs = v
        .as_obj()
        .ok_or_else(|| schema(format!("`{key}` must be an object")))?;
    let mut out = ClassCounts::default();
    for (name, count) in pairs {
        let class = ConstraintClass::from_name(name)
            .ok_or_else(|| schema(format!("`{key}` has unknown class `{name}`")))?;
        let n = count
            .as_u64()
            .ok_or_else(|| schema(format!("`{key}.{name}` must be a non-negative integer")))?;
        out.add_n(class, n);
    }
    Ok(out)
}

fn stats_to_value(s: &SolveStats) -> Json {
    let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    let mut pairs: Vec<(&'static str, Json)> = vec![
        ("nodes", int(s.nodes)),
        ("propagations", int(s.propagations)),
        ("conflicts", int(s.conflicts)),
        ("learned", int(s.learned)),
        ("restarts", int(s.restarts)),
        ("learned_kept", int(s.learned_kept)),
        ("learned_deleted", int(s.learned_deleted)),
        ("shared_prunes", int(s.shared_prunes)),
        ("duration_ns", dur_to_json(s.duration)),
        ("proved_optimal", Json::Bool(s.proved_optimal)),
    ];
    if let Some(r) = s.stop_reason {
        pairs.push(("stop_reason", Json::Str(r.name().into())));
    }
    if !s.props_by_class.is_empty() {
        pairs.push(("props_by_class", classes_to_value(&s.props_by_class)));
    }
    if !s.conflicts_by_class.is_empty() {
        pairs.push((
            "conflicts_by_class",
            classes_to_value(&s.conflicts_by_class),
        ));
    }
    if !s.plbd_hist.is_empty() {
        pairs.push(("plbd_hist", Json::arr(&s.plbd_hist, |&n| int(n))));
    }
    pairs.push((
        "incumbents",
        Json::arr(&s.incumbents, |&(at, objective)| {
            Json::obj([
                ("at_ns", dur_to_json(at)),
                ("objective", Json::Int(objective)),
            ])
        }),
    ));
    Json::obj(pairs)
}

/// Serializes one Pareto point record (schema-6 `pareto` array entry).
/// Public so the serve daemon's `pareto` op emits frontier points in
/// exactly the trace vocabulary.
pub fn pareto_point_to_value(p: &ParetoPointRecord) -> Json {
    let mut pairs: Vec<(&'static str, Json)> = vec![
        ("objective", Json::Str(p.objective.clone())),
        ("track_pitch", Json::Int(p.track_pitch as i64)),
        ("diffusion_overhead", Json::Int(p.diffusion_overhead as i64)),
        ("rail_overhead", Json::Int(p.rail_overhead as i64)),
        ("interrow_weight", Json::Int(p.interrow_weight)),
    ];
    if let Some(w) = p.width {
        pairs.push(("width", Json::Int(w as i64)));
    }
    if let Some(t) = p.tracks {
        pairs.push(("tracks", Json::Int(t as i64)));
    }
    if let Some(h) = p.height {
        pairs.push(("height", Json::Int(h as i64)));
    }
    pairs.push(("proved", Json::Bool(p.proved)));
    pairs.push(("reused", Json::Bool(p.reused)));
    pairs.push(("pruned", Json::Bool(p.pruned)));
    pairs.push(("on_frontier", Json::Bool(p.on_frontier)));
    if let Some(d) = p.dominated_by {
        pairs.push(("dominated_by", Json::Int(d as i64)));
    }
    Json::obj(pairs)
}

/// Parses one Pareto point record.
fn pareto_point_from_value(v: &Json) -> Result<ParetoPointRecord, TraceError> {
    let count = |key: &str| -> Result<usize, TraceError> {
        req(v, key)?
            .as_usize()
            .ok_or_else(|| schema(format!("`{key}` must be a non-negative integer")))
    };
    let opt_usize = |key: &str| -> Result<Option<usize>, TraceError> {
        match v.get(key) {
            None => Ok(None),
            Some(f) => f
                .as_usize()
                .map(Some)
                .ok_or_else(|| schema(format!("`{key}` must be a non-negative integer"))),
        }
    };
    let flag = |key: &str| -> Result<bool, TraceError> {
        req(v, key)?
            .as_bool()
            .ok_or_else(|| schema(format!("`{key}` must be a boolean")))
    };
    Ok(ParetoPointRecord {
        objective: req(v, "objective")?
            .as_str()
            .ok_or_else(|| schema("`objective` must be a string"))?
            .to_string(),
        track_pitch: count("track_pitch")?,
        diffusion_overhead: count("diffusion_overhead")?,
        rail_overhead: count("rail_overhead")?,
        interrow_weight: req(v, "interrow_weight")?
            .as_i64()
            .ok_or_else(|| schema("`interrow_weight` must be an integer"))?,
        width: opt_usize("width")?,
        tracks: opt_usize("tracks")?,
        height: opt_usize("height")?,
        proved: flag("proved")?,
        reused: flag("reused")?,
        pruned: flag("pruned")?,
        on_frontier: flag("on_frontier")?,
        dominated_by: opt_usize("dominated_by")?,
    })
}

/// Serializes one stage record as a JSON object. Reused by the bench
/// harness to embed per-stage fields in its JSONL lines.
pub fn stage_to_value(rec: &StageRecord) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("stage".into(), Json::Str(rec.stage.name().into())),
        ("wall_ns".into(), dur_to_json(rec.wall)),
    ];
    if let Some(rows) = rec.rows {
        pairs.insert(1, ("rows".into(), Json::Int(rows as i64)));
    }
    if let Some(v) = rec.model_vars {
        pairs.push(("model_vars".into(), Json::Int(v as i64)));
    }
    if let Some(c) = rec.model_constraints {
        pairs.push(("model_constraints".into(), Json::Int(c as i64)));
    }
    if let Some(c) = &rec.classes {
        pairs.push(("classes".into(), classes_to_value(c)));
    }
    if let Some(s) = &rec.solve {
        pairs.push(("solve".into(), stats_to_value(s)));
    }
    if let Some(t) = rec.threads {
        pairs.push(("threads".into(), Json::Int(t as i64)));
    }
    if let Some(w) = &rec.winner_strategy {
        pairs.push(("winner_strategy".into(), Json::Str(w.clone())));
    }
    if let Some(t) = &rec.tuning {
        pairs.push(("tuning".into(), Json::Str(t.clone())));
    }
    if let Some(p) = rec.shared_prunes {
        pairs.push((
            "shared_prunes".into(),
            Json::Int(i64::try_from(p).unwrap_or(i64::MAX)),
        ));
    }
    if !rec.thread_solves.is_empty() {
        pairs.push((
            "thread_solves".into(),
            Json::arr(&rec.thread_solves, stats_to_value),
        ));
    }
    if let Some(points) = &rec.pareto {
        pairs.push(("pareto".into(), Json::arr(points, pareto_point_to_value)));
    }
    Json::Obj(pairs)
}

/// Serializes a whole trace as a JSON value (schema [`TRACE_SCHEMA`]).
pub fn to_value(trace: &PipelineTrace) -> Json {
    Json::obj([
        ("schema", Json::Int(TRACE_SCHEMA)),
        ("stages", Json::arr(&trace.stages, stage_to_value)),
    ])
}

/// Serializes a whole trace as a pretty-printed JSON document.
pub fn to_json(trace: &PipelineTrace) -> String {
    to_value(trace).to_pretty()
}

fn schema(msg: impl Into<String>) -> TraceError {
    TraceError::Schema(msg.into())
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, TraceError> {
    v.get(key).ok_or_else(|| schema(format!("missing `{key}`")))
}

fn dur_from(v: &Json, key: &str) -> Result<Duration, TraceError> {
    v.as_u64()
        .map(Duration::from_nanos)
        .ok_or_else(|| schema(format!("`{key}` must be a non-negative integer")))
}

fn stats_from_value(v: &Json) -> Result<SolveStats, TraceError> {
    let count = |key: &str| -> Result<u64, TraceError> {
        req(v, key)?
            .as_u64()
            .ok_or_else(|| schema(format!("`{key}` must be a non-negative integer")))
    };
    let incumbents = req(v, "incumbents")?
        .as_arr()
        .ok_or_else(|| schema("`incumbents` must be an array"))?
        .iter()
        .map(|inc| {
            let at = dur_from(req(inc, "at_ns")?, "at_ns")?;
            let objective = req(inc, "objective")?
                .as_i64()
                .ok_or_else(|| schema("`objective` must be an integer"))?;
            Ok((at, objective))
        })
        .collect::<Result<Vec<_>, TraceError>>()?;
    // Omitted when no learned constraint was scored.
    let plbd_hist = match v.get("plbd_hist") {
        None => Vec::new(),
        Some(arr) => arr
            .as_arr()
            .ok_or_else(|| schema("`plbd_hist` must be an array"))?
            .iter()
            .map(|n| {
                n.as_u64()
                    .ok_or_else(|| schema("`plbd_hist` entries must be non-negative integers"))
            })
            .collect::<Result<Vec<_>, TraceError>>()?,
    };
    // Omitted when every class counted zero.
    let by_class = |key: &str| -> Result<ClassCounts, TraceError> {
        match v.get(key) {
            None => Ok(ClassCounts::default()),
            Some(f) => classes_from_value(f, key),
        }
    };
    // Omitted on completed searches: stays `None`.
    let stop_reason = match v.get("stop_reason") {
        None => None,
        Some(r) => {
            let name = r
                .as_str()
                .ok_or_else(|| schema("`stop_reason` must be a string"))?;
            Some(
                StopReason::from_name(name)
                    .ok_or_else(|| schema(format!("unknown stop reason `{name}`")))?,
            )
        }
    };
    Ok(SolveStats {
        nodes: count("nodes")?,
        propagations: count("propagations")?,
        conflicts: count("conflicts")?,
        learned: count("learned")?,
        restarts: count("restarts")?,
        learned_kept: count("learned_kept")?,
        learned_deleted: count("learned_deleted")?,
        plbd_hist,
        shared_prunes: count("shared_prunes")?,
        duration: dur_from(req(v, "duration_ns")?, "duration_ns")?,
        proved_optimal: req(v, "proved_optimal")?
            .as_bool()
            .ok_or_else(|| schema("`proved_optimal` must be a boolean"))?,
        props_by_class: by_class("props_by_class")?,
        conflicts_by_class: by_class("conflicts_by_class")?,
        stop_reason,
        incumbents,
    })
}

fn stage_from_value(v: &Json) -> Result<StageRecord, TraceError> {
    let name = req(v, "stage")?
        .as_str()
        .ok_or_else(|| schema("`stage` must be a string"))?;
    let stage = Stage::from_name(name).ok_or_else(|| schema(format!("unknown stage `{name}`")))?;
    let opt_usize = |key: &str| -> Result<Option<usize>, TraceError> {
        match v.get(key) {
            None => Ok(None),
            Some(f) => f
                .as_usize()
                .map(Some)
                .ok_or_else(|| schema(format!("`{key}` must be a non-negative integer"))),
        }
    };
    let winner_strategy = match v.get("winner_strategy") {
        None => None,
        Some(w) => Some(
            w.as_str()
                .ok_or_else(|| schema("`winner_strategy` must be a string"))?
                .to_string(),
        ),
    };
    let shared_prunes = match v.get("shared_prunes") {
        None => None,
        Some(p) => Some(
            p.as_u64()
                .ok_or_else(|| schema("`shared_prunes` must be a non-negative integer"))?,
        ),
    };
    let thread_solves = match v.get("thread_solves") {
        None => Vec::new(),
        Some(arr) => arr
            .as_arr()
            .ok_or_else(|| schema("`thread_solves` must be an array"))?
            .iter()
            .map(stats_from_value)
            .collect::<Result<Vec<_>, TraceError>>()?,
    };
    // Omitted on untuned stages: stays `None`.
    let tuning = match v.get("tuning") {
        None => None,
        Some(t) => Some(
            t.as_str()
                .ok_or_else(|| schema("`tuning` must be a string"))?
                .to_string(),
        ),
    };
    // Absent in schema-5 traces and on non-pareto stages: stays `None`.
    let pareto = match v.get("pareto") {
        None => None,
        Some(arr) => Some(
            arr.as_arr()
                .ok_or_else(|| schema("`pareto` must be an array"))?
                .iter()
                .map(pareto_point_from_value)
                .collect::<Result<Vec<_>, TraceError>>()?,
        ),
    };
    Ok(StageRecord {
        stage,
        rows: opt_usize("rows")?,
        wall: dur_from(req(v, "wall_ns")?, "wall_ns")?,
        model_vars: opt_usize("model_vars")?,
        model_constraints: opt_usize("model_constraints")?,
        classes: v
            .get("classes")
            .map(|c| classes_from_value(c, "classes"))
            .transpose()?,
        solve: v.get("solve").map(stats_from_value).transpose()?,
        threads: opt_usize("threads")?,
        winner_strategy,
        shared_prunes,
        thread_solves,
        tuning,
        pareto,
    })
}

/// Reconstructs a trace from its JSON value. Accepts the current schema
/// version and the one before it; any other version, or a missing
/// `schema` key, is rejected.
///
/// # Errors
///
/// [`TraceError::Schema`] when the value does not match the schema.
pub fn from_value(v: &Json) -> Result<PipelineTrace, TraceError> {
    let version = req(v, "schema")?
        .as_i64()
        .ok_or_else(|| schema("`schema` must be an integer"))?;
    let oldest = TRACE_SCHEMA - 1;
    if !(oldest..=TRACE_SCHEMA).contains(&version) {
        return Err(schema(format!(
            "unsupported trace schema version {version} (supported: {oldest}..={TRACE_SCHEMA})"
        )));
    }
    let stages = req(v, "stages")?
        .as_arr()
        .ok_or_else(|| schema("`stages` must be an array"))?
        .iter()
        .map(stage_from_value)
        .collect::<Result<Vec<_>, TraceError>>()?;
    Ok(PipelineTrace { stages })
}

/// Parses a serialized trace document.
///
/// # Errors
///
/// [`TraceError::Json`] on malformed JSON, [`TraceError::Schema`] on a
/// well-formed document that is not a trace.
pub fn parse(text: &str) -> Result<PipelineTrace, TraceError> {
    from_value(&jsonio::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_core::generator::{CellGenerator, GenOptions};
    use clip_netlist::library;

    #[test]
    fn real_generated_trace_round_trips() {
        let cell = CellGenerator::new(GenOptions::rows(2).with_time_limit(Duration::from_secs(30)))
            .generate(library::xor2())
            .unwrap();
        assert!(!cell.trace.stages.is_empty());
        // The pipeline recorded a solve with its incumbent trajectory.
        let solve = cell
            .trace
            .stages
            .iter()
            .find(|s| s.stage == Stage::Solve)
            .expect("solve stage recorded");
        let stats = solve.solve.as_ref().expect("solver stats recorded");
        assert!(!stats.incumbents.is_empty());
        assert!(solve.model_vars.is_some() && solve.model_constraints.is_some());
        // Schema-3 theory fields: the class histogram and the per-class
        // propagation attribution ride on the solve stage.
        let classes = solve.classes.as_ref().expect("class histogram recorded");
        assert!(!classes.is_empty());
        assert_eq!(stats.props_by_class.total(), stats.propagations);

        let text = to_json(&cell.trace);
        let back = parse(&text).unwrap();
        assert_eq!(back, cell.trace);
        // Emit → parse → emit is stable.
        assert_eq!(to_json(&back), text);
    }

    #[test]
    fn sweep_trace_round_trips_with_row_stamps() {
        let cell = CellGenerator::new(GenOptions::rows(1).with_time_limit(Duration::from_secs(30)))
            .generate_best_area(library::xor2(), 3)
            .unwrap();
        let rows_seen: Vec<usize> = cell.trace.stages.iter().filter_map(|s| s.rows).collect();
        assert!(rows_seen.contains(&1) && rows_seen.contains(&3));
        let back = parse(&to_json(&cell.trace)).unwrap();
        assert_eq!(back, cell.trace);
    }

    #[test]
    fn parallel_traces_round_trip_with_thread_fields() {
        let jobs = std::num::NonZeroUsize::new(2).unwrap();
        let cell = CellGenerator::new(
            GenOptions::rows(2)
                .with_time_limit(Duration::from_secs(30))
                .with_jobs(jobs),
        )
        .generate(library::xor2())
        .unwrap();
        let solve = cell
            .trace
            .stages
            .iter()
            .find(|s| s.stage == Stage::Solve)
            .expect("solve stage recorded");
        assert_eq!(solve.threads, Some(2));
        assert!(solve.winner_strategy.is_some());
        assert_eq!(solve.thread_solves.len(), 2);
        let text = to_json(&cell.trace);
        assert!(text.contains("winner_strategy") && text.contains("thread_solves"));
        let back = parse(&text).unwrap();
        assert_eq!(back, cell.trace);
        assert_eq!(to_json(&back), text);
        // A sweep trace ends with the summary record carrying the fan-out.
        let sweep = CellGenerator::new(
            GenOptions::rows(1)
                .with_time_limit(Duration::from_secs(30))
                .with_explicit_jobs(jobs),
        )
        .generate_best_area(library::xor2(), 3)
        .unwrap();
        let back = parse(&to_json(&sweep.trace)).unwrap();
        assert_eq!(back, sweep.trace);
        let last = back.stages.last().unwrap();
        assert_eq!(last.stage, Stage::Sweep);
        assert_eq!(last.threads, Some(2));
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(matches!(parse("not json"), Err(TraceError::Json(_))));
        assert!(matches!(parse("{}"), Err(TraceError::Schema(_))));
        assert!(matches!(
            parse(r#"{"schema":6,"stages":[{"stage":"warp","wall_ns":1}]}"#),
            Err(TraceError::Schema(_))
        ));
        assert!(matches!(
            parse(r#"{"schema":6,"stages":[{"stage":"solve","wall_ns":-5}]}"#),
            Err(TraceError::Schema(_))
        ));
    }

    #[test]
    fn schema_versions_are_enforced() {
        // Writers stamp the current version as the first key.
        let text = to_json(&PipelineTrace::default());
        assert!(
            text.trim_start().starts_with("{\n  \"schema\": 6"),
            "{text}"
        );
        // The current version and the one before it parse.
        parse(r#"{"schema":5,"stages":[]}"#).unwrap();
        parse(r#"{"schema":6,"stages":[]}"#).unwrap();
        // Older, unknown, and missing versions are rejected, not misread.
        for (text, needle) in [
            (r#"{"schema":4,"stages":[]}"#, "version 4"),
            (r#"{"schema":99,"stages":[]}"#, "version 99"),
            (r#"{"stages":[]}"#, "missing `schema`"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                matches!(&err, TraceError::Schema(m) if m.contains(needle)),
                "{text}: {err}"
            );
        }
        assert!(matches!(
            parse(r#"{"schema":"two","stages":[]}"#),
            Err(TraceError::Schema(_))
        ));
    }

    #[test]
    fn class_fields_round_trip_and_reject_unknown_names() {
        let mut rec = StageRecord::new(Stage::ModelBuild, None);
        let mut h = ClassCounts::default();
        h.add_n(ConstraintClass::Clause, 5);
        h.add_n(ConstraintClass::Cardinality, 2);
        rec.classes = Some(h);
        let trace = PipelineTrace { stages: vec![rec] };
        let text = to_json(&trace);
        assert!(text.contains("\"classes\""), "{text}");
        assert_eq!(parse(&text).unwrap(), trace);
        assert_eq!(to_json(&parse(&text).unwrap()), text);
        // Unknown class names are rejected, not silently dropped.
        let bad =
            r#"{"schema":6,"stages":[{"stage":"model_build","wall_ns":1,"classes":{"frob":1}}]}"#;
        assert!(matches!(parse(bad), Err(TraceError::Schema(_))));
    }

    /// Schema-5 field: an unproved stage's stop reason survives the
    /// round trip, is omitted when absent, and unknown names are
    /// rejected rather than silently dropped.
    #[test]
    fn stop_reasons_round_trip_and_reject_unknown_names() {
        let mut rec = StageRecord::new(Stage::Solve, Some(2));
        rec.solve = Some(SolveStats {
            stop_reason: Some(StopReason::Deadline),
            ..Default::default()
        });
        let trace = PipelineTrace { stages: vec![rec] };
        let text = to_json(&trace);
        assert!(text.contains("\"stop_reason\": \"deadline\""), "{text}");
        assert_eq!(parse(&text).unwrap(), trace);
        assert_eq!(to_json(&parse(&text).unwrap()), text);
        // Completed searches omit the key entirely.
        let mut rec = StageRecord::new(Stage::Solve, None);
        rec.solve = Some(SolveStats::default());
        let text = to_json(&PipelineTrace { stages: vec![rec] });
        assert!(!text.contains("stop_reason"), "{text}");
        // Unknown reasons are a schema error.
        let bad = r#"{"schema":5,"stages":[{"stage":"solve","wall_ns":1,
            "solve":{"nodes":0,"propagations":0,"conflicts":0,"learned":0,
                     "restarts":0,"learned_kept":0,"learned_deleted":0,
                     "shared_prunes":0,"duration_ns":0,"proved_optimal":false,
                     "stop_reason":"warp","incumbents":[]}}]}"#;
        assert!(matches!(parse(bad), Err(TraceError::Schema(m)) if m.contains("warp")));
    }

    /// Schema-6 fields: a frontier race's per-point records survive the
    /// round trip, optional outcome fields are omitted when the point
    /// produced none, and malformed entries are rejected.
    #[test]
    fn pareto_records_round_trip() {
        let mut rec = StageRecord::new(Stage::Pareto, None);
        rec.threads = Some(2);
        rec.shared_prunes = Some(3);
        rec.pareto = Some(vec![
            ParetoPointRecord {
                objective: "width-height".into(),
                track_pitch: 1,
                diffusion_overhead: 2,
                rail_overhead: 2,
                interrow_weight: 0,
                width: Some(4),
                tracks: Some(1),
                height: Some(7),
                proved: true,
                reused: false,
                pruned: false,
                on_frontier: true,
                dominated_by: None,
            },
            ParetoPointRecord {
                objective: "height-width".into(),
                track_pitch: 2,
                diffusion_overhead: 1,
                rail_overhead: 2,
                interrow_weight: 0,
                width: None,
                tracks: None,
                height: None,
                proved: false,
                reused: true,
                pruned: true,
                on_frontier: false,
                dominated_by: Some(0),
            },
        ]);
        let trace = PipelineTrace { stages: vec![rec] };
        let text = to_json(&trace);
        assert!(text.contains("\"pareto\""), "{text}");
        assert!(text.contains("\"on_frontier\""), "{text}");
        assert!(text.contains("\"dominated_by\": 0"), "{text}");
        assert_eq!(parse(&text).unwrap(), trace);
        assert_eq!(to_json(&parse(&text).unwrap()), text);
        // A valueless point omits its outcome keys entirely.
        assert!(!text.contains("\"width\": null"), "{text}");
        // Malformed point entries are a schema error, not a silent drop.
        let bad = r#"{"schema":6,"stages":[{"stage":"pareto","wall_ns":1,
            "pareto":[{"objective":7}]}]}"#;
        assert!(matches!(parse(bad), Err(TraceError::Schema(_))));
    }

    #[test]
    fn tuning_stamps_round_trip() {
        let mut rec = StageRecord::new(Stage::Solve, Some(2));
        rec.tuning = Some("key=small-sparse-deep-flat seed=off".into());
        let trace = PipelineTrace { stages: vec![rec] };
        let text = to_json(&trace);
        assert!(text.contains("\"tuning\""), "{text}");
        assert_eq!(parse(&text).unwrap(), trace);
    }
}
