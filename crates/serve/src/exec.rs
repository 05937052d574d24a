//! Request execution: one [`SynthSpec`] in, one result payload out.
//!
//! This is the daemon's per-request core, factored out of the socket
//! machinery so tests and the bench harness can drive it directly. The
//! contract the daemon's robustness story rests on:
//!
//! - **Nothing escapes.** The solve runs under `catch_unwind`; a panic
//!   (real or injected via the `solve.panic` fault site) becomes
//!   [`ExecError::Panic`], an error record for *this* request only.
//! - **Deadlines degrade, they don't fail.** An expired [`Budget`]
//!   returns the best incumbent with `proved: false` and a `degraded`
//!   reason (the solver's [`StopReason`]) instead of an error.
//! - **Cache hits are byte-identical.** The payload embeds the same
//!   layout document value `clip synth --json` pretty-prints, and only
//!   proved-optimal results are memoized, so a hit replays the exact
//!   bytes a cold solve produced.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

use clip_core::pipeline::{Budget, ParetoPointRecord, StopReason};
use clip_core::request::SynthRequest;
use clip_core::ObjectiveSpec;
use clip_layout::jsonio::Json;
use clip_layout::{json as layout_json, trace, CellLayout};
use clip_netlist::{library, spice, Circuit, Expr};

use crate::cache::{canonical_key, MemoCache};
use crate::faultpoint;
use crate::protocol::{Source, SynthSpec};

/// How a request failed. Each variant maps to a stable wire `code`.
#[derive(Debug)]
pub enum ExecError {
    /// The request referenced something that doesn't exist or failed to
    /// parse (unknown cell, malformed deck/expr).
    BadRequest(String),
    /// The solver reported a structured failure ([`clip_core::GenError`]).
    Solve(String),
    /// The solve panicked; contained, message recovered best-effort.
    Panic(String),
}

impl ExecError {
    /// The stable machine-readable response code.
    pub fn code(&self) -> &'static str {
        match self {
            ExecError::BadRequest(_) => "bad_request",
            ExecError::Solve(_) => "solve_failed",
            ExecError::Panic(_) => "internal_panic",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            ExecError::BadRequest(m) | ExecError::Solve(m) | ExecError::Panic(m) => m,
        }
    }
}

/// A finished request.
#[derive(Debug)]
pub struct SynthReply {
    /// The result payload (`cell`, `rows`, `width`, `height`, `proved`,
    /// `layout`, `trace`).
    pub result: Json,
    /// True when the payload came from the memo cache.
    pub cached: bool,
    /// The stop reason's wire name when the solve hit a limit and
    /// returned an unproved incumbent.
    pub degraded: Option<&'static str>,
}

/// Runs one request against an optional shared memo cache.
///
/// # Errors
///
/// [`ExecError`] — see each variant. A panicking solve is contained
/// here and surfaces as an error value like any other.
pub fn execute(
    spec: &SynthSpec,
    cache: Option<&Mutex<MemoCache>>,
) -> Result<SynthReply, ExecError> {
    execute_budgeted(spec, cache, None)
}

/// [`execute`] with an optional externally-owned budget, so the `pareto`
/// op's points share one deadline instead of each getting `limit_ms`.
fn execute_budgeted(
    spec: &SynthSpec,
    cache: Option<&Mutex<MemoCache>>,
    budget: Option<&Budget>,
) -> Result<SynthReply, ExecError> {
    let circuit = build_circuit(spec)?;
    // Canonical rendering: whitespace, card order, and net spelling all
    // normalize, so equivalent decks share one cache entry.
    let canonical = spice::write(&circuit);
    let key = canonical_key(&canonical, spec);

    if !spec.no_cache && !spec.hier {
        if let Some(cache) = cache {
            let guard = cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(result) = guard.get(&key) {
                return Ok(SynthReply {
                    result: result.clone(),
                    cached: true,
                    degraded: None,
                });
            }
        }
    }

    let mut request = build_request(spec, circuit)?;
    if let Some(budget) = budget {
        request = request.budget(budget.clone());
    }
    // The containment boundary. SynthRequest owns all its state and is
    // consumed here; on panic everything it touched is dropped with the
    // unwound stack (shared solver state recovers from poisoning on its
    // own — see SharedIncumbent), so observing the result is safe.
    let solved = catch_unwind(AssertUnwindSafe(move || {
        if faultpoint::fires("solve.panic", &spec.faults) {
            panic!("fault injected: solve.panic");
        }
        if faultpoint::fires("solve.stall", &spec.faults) {
            std::thread::sleep(faultpoint::STALL);
        }
        request.build().map(|r| {
            let cell = r.cell;
            let layout = CellLayout::build(&cell);
            (cell, layout)
        })
    }));
    let (cell, layout) = match solved {
        Ok(Ok(pair)) => pair,
        Ok(Err(gen_err)) => return Err(ExecError::Solve(gen_err.to_string())),
        Err(payload) => return Err(ExecError::Panic(panic_message(payload.as_ref()))),
    };

    let degraded = if cell.optimal {
        None
    } else {
        stop_reason(&cell).map(StopReason::name)
    };
    let result = Json::obj([
        ("cell", Json::Str(layout.name.clone())),
        ("rows", Json::Int(cell.placement.rows.len() as i64)),
        ("width", Json::Int(cell.width as i64)),
        ("height", Json::Int(cell.height as i64)),
        ("proved", Json::Bool(cell.optimal)),
        ("layout", layout_json::document(&layout).to_value()),
        ("trace", trace::to_value(&cell.trace)),
    ]);

    // Memoize proved results only: a proved placement is deadline- and
    // thread-count-independent, so the speed-only knobs excluded from
    // the key can never make a hit diverge from a cold solve.
    if cell.optimal && !spec.no_cache {
        if let Some(cache) = cache {
            let torn = faultpoint::fires("cache.torn", &spec.faults);
            let mut guard = cache.lock().unwrap_or_else(|e| e.into_inner());
            if guard.get(&key).is_none() {
                if let Err(e) = guard.insert(&key, &result, torn) {
                    // A dead cache disk costs durability, not requests.
                    eprintln!("clip-serve: memo cache append failed: {e}");
                }
            }
        }
    }

    Ok(SynthReply {
        result,
        cached: false,
        degraded,
    })
}

/// A solved (or reused) sweep point's measurable outcome.
struct PointVal {
    width: usize,
    height: usize,
    rows: usize,
    proved: bool,
}

impl PointVal {
    /// Routing tracks recovered from the height formula under `spec` —
    /// exact, because the solver computed `height` with the same
    /// parameters.
    fn tracks(&self, spec: &ObjectiveSpec) -> usize {
        self.height
            .saturating_sub(self.rows * spec.diffusion_overhead + spec.rail_overhead)
            / spec.track_pitch.max(1)
    }
}

/// True when two sweep specs put the identical model in front of the
/// solver regardless of unit-set flatness — the serve-side (unit-set
/// blind) reuse rule. Conservative: a pair that is only equivalent for
/// stacked sets is re-solved, which costs time, never correctness.
fn same_solver_class(a: &ObjectiveSpec, b: &ObjectiveSpec) -> bool {
    a.solver_key(true) == b.solver_key(true) && a.solver_key(false) == b.solver_key(false)
}

/// The per-point request a sweep spec expands to: the parent request
/// with the point's objective parameters spelled out. Its cache key is
/// exactly the key a plain `synth` with the same objective computes, so
/// sweep points and single-objective requests share memo entries.
fn point_spec(parent: &SynthSpec, objective: &ObjectiveSpec) -> SynthSpec {
    let mut spec = parent.clone();
    spec.pareto = false;
    spec.height = false;
    spec.objective = Some(objective.ordering_name());
    spec.track_pitch = Some(objective.track_pitch);
    spec.diffusion_overhead = Some(objective.diffusion_overhead);
    spec.rail_overhead = Some(objective.rail_overhead);
    spec.interrow_weight = Some(objective.interrow_weight);
    spec.critical = objective.critical_nets.clone();
    spec
}

/// Runs the `pareto` op: solves the default objective sweep derived
/// from the request's base objective, one memo-cached single-objective
/// solve per solver class, and answers with the frontier.
///
/// The points share one [`Budget`], so `limit_ms` bounds the whole
/// sweep. Reporting-only sweep variants reuse their class
/// representative's placement with the height re-measured under their
/// own geometry — the same rule the in-process generator applies
/// (`clip_core::pareto`) — and dominance uses the identical
/// [`clip_core::pareto::dominates`] predicate, so a served frontier
/// never disagrees with `clip synth --pareto`.
///
/// # Errors
///
/// [`ExecError`] when the *base* point fails; later points that fail
/// are reported as valueless, off-frontier points instead, because a
/// partial frontier is still useful.
pub fn execute_pareto(
    spec: &SynthSpec,
    cache: Option<&Mutex<MemoCache>>,
) -> Result<SynthReply, ExecError> {
    let base = objective_of(spec)?;
    let specs = ObjectiveSpec::default_sweep(&base);
    let budget = if faultpoint::fires("budget.expire", &spec.faults) {
        Budget::timeout(Duration::ZERO)
    } else {
        Budget::timeout(Duration::from_millis(spec.limit_ms))
    };

    let mut vals: Vec<Option<PointVal>> = Vec::new();
    let mut reused_from: Vec<Option<usize>> = Vec::new();
    let mut cell_name = String::new();
    let mut all_cached = true;
    let mut degraded = None;
    let mut base_err = None;
    for (i, point) in specs.iter().enumerate() {
        if let Some(rep) = (0..i).find(|&j| same_solver_class(&specs[j], point)) {
            // Reporting-only variant: reuse the representative's
            // placement, re-measure the height under this point's
            // geometry.
            vals.push(vals[rep].as_ref().map(|v| PointVal {
                width: v.width,
                height: point.height_units(v.tracks(&specs[rep]), v.rows),
                rows: v.rows,
                proved: v.proved,
            }));
            reused_from.push(Some(rep));
            continue;
        }
        reused_from.push(None);
        match execute_budgeted(&point_spec(spec, point), cache, Some(&budget)) {
            Ok(reply) => {
                all_cached &= reply.cached;
                if degraded.is_none() {
                    degraded = reply.degraded;
                }
                if cell_name.is_empty() {
                    if let Some(name) = reply.result.get("cell").and_then(Json::as_str) {
                        cell_name = name.to_owned();
                    }
                }
                let field = |k: &str| reply.result.get(k).and_then(Json::as_usize);
                vals.push(match (field("width"), field("height"), field("rows")) {
                    (Some(width), Some(height), Some(rows)) => Some(PointVal {
                        width,
                        height,
                        rows,
                        proved: reply.result.get("proved").and_then(Json::as_bool) == Some(true),
                    }),
                    _ => None,
                });
            }
            Err(e) if i == 0 => {
                base_err = Some(e);
                vals.push(None);
            }
            Err(_) => {
                all_cached = false;
                vals.push(None);
            }
        }
    }
    if let Some(e) = base_err {
        return Err(e);
    }

    // Dominance, by the in-process generator's exact rule: the lowest
    // strictly-dominating index, with exact ties resolved to the
    // earlier point.
    let value = |v: &Option<PointVal>| v.as_ref().map(|v| (v.width as u64, v.height as u64));
    let dominated_by: Vec<Option<usize>> = (0..specs.len())
        .map(|i| {
            let vi = value(&vals[i])?;
            (0..specs.len()).find(|&j| {
                j != i
                    && value(&vals[j]).is_some_and(|vj| {
                        clip_core::pareto::dominates(&vj, &vi) || (vj == vi && j < i)
                    })
            })
        })
        .collect();

    let records: Vec<Json> = specs
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let v = vals[i].as_ref();
            trace::pareto_point_to_value(&ParetoPointRecord {
                objective: point.ordering_name(),
                track_pitch: point.track_pitch,
                diffusion_overhead: point.diffusion_overhead,
                rail_overhead: point.rail_overhead,
                interrow_weight: point.interrow_weight,
                width: v.map(|v| v.width),
                tracks: v.map(|v| v.tracks(point)),
                height: v.map(|v| v.height),
                proved: v.is_some_and(|v| v.proved),
                reused: reused_from[i].is_some(),
                pruned: false,
                on_frontier: v.is_some() && dominated_by[i].is_none(),
                dominated_by: dominated_by[i],
            })
        })
        .collect();
    let frontier_size = (0..specs.len())
        .filter(|&i| vals[i].is_some() && dominated_by[i].is_none())
        .count();
    let result = Json::obj([
        ("cell", Json::Str(cell_name)),
        ("pareto", Json::Arr(records)),
        ("frontier_size", Json::Int(frontier_size as i64)),
    ]);
    Ok(SynthReply {
        result,
        cached: all_cached,
        degraded,
    })
}

fn build_circuit(spec: &SynthSpec) -> Result<Circuit, ExecError> {
    match &spec.source {
        Source::Cell(name) => library::by_name(name)
            .ok_or_else(|| ExecError::BadRequest(format!("unknown cell {name:?}"))),
        Source::Deck(text) => {
            spice::parse("imported", text).map_err(|e| ExecError::BadRequest(e.to_string()))
        }
        Source::Expr(formula) => {
            let expr = Expr::parse(formula).map_err(|e| ExecError::BadRequest(e.to_string()))?;
            expr.compile("custom", "z")
                .map_err(|e| ExecError::BadRequest(e.to_string()))
        }
    }
}

/// The effective [`ObjectiveSpec`] a request asks for: the legacy
/// `height` flag, the named ordering, and the geometry overrides folded
/// into one typed value.
///
/// # Errors
///
/// [`ExecError::BadRequest`] on an unknown objective name — possible
/// only for specs built in code; the wire parser validates the name.
pub fn objective_of(spec: &SynthSpec) -> Result<ObjectiveSpec, ExecError> {
    let mut objective = if spec.height {
        ObjectiveSpec::width_height()
    } else {
        ObjectiveSpec::default()
    };
    if let Some(name) = &spec.objective {
        objective = objective
            .with_ordering_name(name)
            .ok_or_else(|| ExecError::BadRequest(format!("unknown objective {name:?}")))?;
    }
    if let Some(pitch) = spec.track_pitch {
        objective.track_pitch = pitch;
    }
    if let Some(overhead) = spec.diffusion_overhead {
        objective.diffusion_overhead = overhead;
    }
    if let Some(overhead) = spec.rail_overhead {
        objective.rail_overhead = overhead;
    }
    if let Some(weight) = spec.interrow_weight {
        objective.interrow_weight = weight;
    }
    if !spec.critical.is_empty() {
        objective.critical_nets = spec.critical.clone();
    }
    Ok(objective)
}

fn build_request(spec: &SynthSpec, circuit: Circuit) -> Result<SynthRequest, ExecError> {
    let mut request = SynthRequest::new(circuit)
        .rows(spec.rows)
        .time_limit(Duration::from_millis(spec.limit_ms))
        .objective(objective_of(spec)?);
    if spec.auto_rows {
        request = request.best_area(spec.max_rows);
    }
    if spec.hier {
        request = request.hierarchical();
    }
    if spec.stacking {
        request = request.stacking();
    }
    if let Some(jobs) = spec.jobs.and_then(std::num::NonZeroUsize::new) {
        request = request.jobs(jobs);
    }
    if faultpoint::fires("budget.expire", &spec.faults) {
        // An already-expired budget: the pipeline still seeds a greedy
        // incumbent, so the reply degrades instead of erroring.
        request = request.budget(Budget::timeout(Duration::ZERO));
    }
    Ok(request)
}

/// The final solve's stop reason, falling back to any stage that
/// recorded one (a best-area sweep's accepted row count may have
/// finished while a later, better one hit the deadline).
fn stop_reason(cell: &clip_core::generator::GeneratedCell) -> Option<StopReason> {
    cell.stats.stop_reason.or_else(|| {
        cell.trace
            .stages
            .iter()
            .rev()
            .find_map(|s| s.solve.as_ref().and_then(|st| st.stop_reason))
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DEFAULT_LIMIT_MS;
    use std::path::PathBuf;

    fn spec(cell: &str) -> SynthSpec {
        SynthSpec {
            source: Source::Cell(cell.into()),
            rows: 1,
            auto_rows: false,
            max_rows: 4,
            hier: false,
            stacking: false,
            height: false,
            objective: None,
            track_pitch: None,
            diffusion_overhead: None,
            rail_overhead: None,
            interrow_weight: None,
            critical: Vec::new(),
            pareto: false,
            limit_ms: DEFAULT_LIMIT_MS,
            jobs: Some(1),
            no_cache: false,
            faults: Vec::new(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("clip_serve_exec_{name}_{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// The headline byte-identity contract: the payload's `layout`
    /// value pretty-prints to exactly what `clip synth --json` writes.
    #[test]
    fn layout_payload_matches_the_offline_export() {
        let reply = execute(&spec("nand2"), None).unwrap();
        assert!(!reply.cached);
        assert_eq!(reply.degraded, None);
        assert_eq!(reply.result.get("proved"), Some(&Json::Bool(true)));

        let cell = SynthRequest::new(library::nand2())
            .jobs(std::num::NonZeroUsize::MIN)
            .build()
            .unwrap()
            .cell;
        let offline = CellLayout::build(&cell).to_json();
        let served = reply.result.get("layout").unwrap().to_pretty();
        assert_eq!(served, offline);
    }

    #[test]
    fn cache_hit_replays_identical_bytes() {
        let path = tmp("hit");
        let cache = Mutex::new(MemoCache::open(&path).unwrap());
        let cold = execute(&spec("nand2"), Some(&cache)).unwrap();
        assert!(!cold.cached);
        let hit = execute(&spec("nand2"), Some(&cache)).unwrap();
        assert!(hit.cached);
        assert_eq!(hit.result.to_compact(), cold.result.to_compact());
        // A different shaping option is a different entry.
        let mut two_rows = spec("nand2");
        two_rows.rows = 2;
        let other = execute(&two_rows, Some(&cache)).unwrap();
        assert!(!other.cached);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn no_cache_bypasses_both_directions() {
        let path = tmp("bypass");
        let cache = Mutex::new(MemoCache::open(&path).unwrap());
        let mut s = spec("nand2");
        s.no_cache = true;
        let first = execute(&s, Some(&cache)).unwrap();
        assert!(!first.cached);
        assert_eq!(cache.lock().unwrap().len(), 0, "no_cache must not store");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn objective_requests_change_the_solve_and_the_cache_entry() {
        let path = tmp("objective");
        let cache = Mutex::new(MemoCache::open(&path).unwrap());
        let mut wh = spec("nand2");
        wh.rows = 2;
        wh.objective = Some("width-height".into());
        let cold = execute(&wh, Some(&cache)).unwrap();
        assert!(!cold.cached);
        // The legacy `height` flag is the same request: it must hit the
        // entry the named spelling wrote.
        let mut legacy = spec("nand2");
        legacy.rows = 2;
        legacy.height = true;
        let hit = execute(&legacy, Some(&cache)).unwrap();
        assert!(hit.cached);
        assert_eq!(hit.result.to_compact(), cold.result.to_compact());
        // A reporting-only geometry change is a different entry with a
        // rescaled height.
        let mut pitched = wh.clone();
        pitched.track_pitch = Some(2);
        pitched.diffusion_overhead = Some(3);
        let other = execute(&pitched, Some(&cache)).unwrap();
        assert!(!other.cached);
        let h = |r: &Json| r.get("height").and_then(Json::as_usize).unwrap();
        assert!(h(&other.result) > h(&cold.result));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pareto_reply_is_a_mutually_non_dominated_frontier() {
        let path = tmp("pareto");
        let cache = Mutex::new(MemoCache::open(&path).unwrap());
        let mut s = spec("nand2");
        s.rows = 2;
        s.pareto = true;
        let reply = execute_pareto(&s, Some(&cache)).unwrap();
        assert!(!reply.cached);
        let points = reply.result.get("pareto").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 5, "default sweep has five points");
        let field = |p: &Json, k: &str| p.get(k).and_then(Json::as_usize);
        let on_frontier = |p: &Json| p.get("on_frontier").and_then(Json::as_bool) == Some(true);
        // Point 1 is the reporting-only geometry variant: reused, never
        // solved twice, and strictly dominated by point 0.
        assert_eq!(points[1].get("reused").and_then(Json::as_bool), Some(true));
        assert!(!on_frontier(&points[1]));
        assert_eq!(field(&points[1], "dominated_by"), Some(0));
        // The base point survives on its own frontier.
        assert!(on_frontier(&points[0]));
        // Mutual non-domination across the emitted frontier.
        let frontier: Vec<(u64, u64)> = points
            .iter()
            .filter(|p| on_frontier(p))
            .map(|p| {
                (
                    field(p, "width").unwrap() as u64,
                    field(p, "height").unwrap() as u64,
                )
            })
            .collect();
        assert!(!frontier.is_empty());
        assert_eq!(
            frontier.len(),
            reply
                .result
                .get("frontier_size")
                .and_then(Json::as_usize)
                .unwrap()
        );
        for a in &frontier {
            for b in &frontier {
                assert!(
                    !clip_core::pareto::dominates(a, b),
                    "frontier point {b:?} dominated by {a:?}"
                );
            }
        }
        // A re-run is answered entirely from the memo cache, and a plain
        // synth at the base objective hits the sweep's entry.
        let warm = execute_pareto(&s, Some(&cache)).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.result.to_compact(), reply.result.to_compact());
        let mut single = spec("nand2");
        single.rows = 2;
        single.objective = Some("width-height".into());
        assert!(execute(&single, Some(&cache)).unwrap().cached);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_cell_is_a_bad_request() {
        let err = execute(&spec("nandzilla"), None).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        assert!(err.message().contains("nandzilla"));
    }

    #[test]
    fn malformed_deck_is_a_bad_request_with_line_context() {
        let mut s = spec("x");
        s.source = Source::Deck("M1 z a GND\n".into());
        let err = execute(&s, None).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        assert!(err.message().contains("line 1"), "{}", err.message());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_panic_is_contained_as_an_error_value() {
        let mut s = spec("nand2");
        s.faults = vec!["solve.panic".into()];
        let err = execute(&s, None).unwrap_err();
        assert_eq!(err.code(), "internal_panic");
        assert!(err.message().contains("solve.panic"));
        // The next request on this thread is unaffected.
        assert!(execute(&spec("nand2"), None).is_ok());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn expired_budget_degrades_to_an_unproved_incumbent() {
        let mut s = spec("nand4");
        s.rows = 2;
        s.faults = vec!["budget.expire".into()];
        let reply = execute(&s, None).unwrap();
        assert!(!reply.cached);
        assert_eq!(reply.degraded, Some("deadline"));
        assert_eq!(reply.result.get("proved"), Some(&Json::Bool(false)));
        assert!(
            reply.result.get("layout").is_some(),
            "incumbent still ships"
        );
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn degraded_results_are_never_cached() {
        let path = tmp("degraded");
        let cache = Mutex::new(MemoCache::open(&path).unwrap());
        let mut s = spec("nand4");
        s.rows = 2;
        s.faults = vec!["budget.expire".into()];
        let reply = execute(&s, Some(&cache)).unwrap();
        assert_eq!(reply.degraded, Some("deadline"));
        assert_eq!(cache.lock().unwrap().len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn torn_cache_write_loses_the_entry_not_the_request() {
        let path = tmp("torn");
        let cache = Mutex::new(MemoCache::open(&path).unwrap());
        let mut s = spec("nand2");
        s.faults = vec!["cache.torn".into()];
        let reply = execute(&s, Some(&cache)).unwrap();
        assert!(!reply.cached, "request itself succeeds");
        assert_eq!(cache.lock().unwrap().len(), 0, "torn entry never lands");
        // Reopen repairs the tail; a clean solve then caches normally.
        drop(cache);
        let reopened = Mutex::new(MemoCache::open(&path).unwrap());
        assert!(reopened.lock().unwrap().repaired_torn_tail());
        let clean = execute(&spec("nand2"), Some(&reopened)).unwrap();
        assert!(!clean.cached);
        let hit = execute(&spec("nand2"), Some(&reopened)).unwrap();
        assert!(hit.cached);
        assert_eq!(hit.result.to_compact(), clean.result.to_compact());
        let _ = std::fs::remove_file(&path);
    }
}
