//! The serve wire protocol: one JSON object per line, both directions.
//!
//! Requests are parsed **strictly** — unknown keys, wrong types, and
//! unknown fault-site names are errors, because the daemon faces
//! untrusted bytes and a typo'd option silently ignored would return a
//! confidently wrong layout. Every parse failure becomes a structured
//! `bad_request` response; nothing on this path panics (the underlying
//! [`clip_layout::jsonio`] parser is depth-limited and returns
//! line/column errors).
//!
//! ## Requests
//!
//! ```json
//! {"op":"synth","id":"r1","cell":"nand4","rows":2,"limit_ms":60000}
//! {"op":"synth","deck":"M1 z a VDD VDD PMOS\n...","rows":"auto","max_rows":3}
//! {"op":"synth","cell":"xor2","rows":2,"objective":"height-width","track_pitch":2}
//! {"op":"pareto","id":"p1","cell":"nand4","rows":2}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! The `pareto` op accepts the same fields as `synth` (minus
//! `"rows":"auto"` and `hier`, which have no frontier semantics) and
//! answers with the objective frontier instead of a single layout.
//!
//! ## Responses
//!
//! ```json
//! {"id":"r1","status":"ok","cached":false,"result":{...}}
//! {"id":"r1","status":"ok","cached":false,"degraded":"deadline","result":{...}}
//! {"id":"r1","status":"error","code":"bad_request","error":"..."}
//! {"id":"r1","status":"rejected","code":"overloaded","error":"..."}
//! ```
//!
//! Responses may arrive out of order (the worker pool is concurrent);
//! clients correlate by `id`. The `result` object embeds the same
//! layout document `clip synth --json` writes, so a client that
//! pretty-prints `result.layout` gets byte-identical output to the
//! offline CLI.

use clip_layout::jsonio::{self, Json};

use crate::faultpoint;

/// Hard cap on one request line. A client streaming an unbounded
/// "line" would otherwise grow the read buffer without limit; 4 MiB
/// comfortably fits the largest SPICE deck the parsers accept.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Upper bound on `limit_ms` (one hour). The daemon is a shared
/// resource; a request must not be able to park a worker for a week.
pub const MAX_LIMIT_MS: u64 = 3_600_000;

/// Default per-request deadline when the client sends none, matching
/// the CLI's `--limit 60` default.
pub const DEFAULT_LIMIT_MS: u64 = 60_000;

/// Where the circuit comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// A named cell from the built-in evaluation suite.
    Cell(String),
    /// A flat SPICE deck, inline.
    Deck(String),
    /// A Boolean formula compiled to a static CMOS netlist.
    Expr(String),
}

/// A validated synthesis request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthSpec {
    /// The circuit source.
    pub source: Source,
    /// Row count (fixed mode). Ignored when `auto_rows`.
    pub rows: usize,
    /// Best-area sweep over `1..=max_rows` instead of a fixed row count.
    pub auto_rows: bool,
    /// Sweep ceiling for `auto_rows` mode.
    pub max_rows: usize,
    /// Hierarchical generation (partition, solve sub-cells, compose).
    pub hier: bool,
    /// HCLIP and-stack clustering.
    pub stacking: bool,
    /// Width-then-height objective (legacy shorthand for
    /// `"objective":"width-height"`; mutually exclusive with
    /// `objective`).
    pub height: bool,
    /// Objective ordering by canonical name (`width`, `width-height`,
    /// `height-width`, `weighted:W:H`), validated at parse time.
    pub objective: Option<String>,
    /// Reporting-only height units per routing track.
    pub track_pitch: Option<usize>,
    /// Reporting-only height units per P/N row.
    pub diffusion_overhead: Option<usize>,
    /// Reporting-only height units for the supply rails.
    pub rail_overhead: Option<usize>,
    /// Weight on inter-row nets in the width objective.
    pub interrow_weight: Option<i64>,
    /// Timing-critical net names (span-minimized under width+height).
    pub critical: Vec<String>,
    /// True for the `pareto` op: solve the default objective sweep and
    /// answer with the frontier instead of a single layout.
    pub pareto: bool,
    /// Per-request deadline in milliseconds.
    pub limit_ms: u64,
    /// Worker threads for this request's internal fan-out.
    pub jobs: Option<usize>,
    /// Bypass the memo cache for this request.
    pub no_cache: bool,
    /// Armed fault sites (validated against [`faultpoint::SITES`]).
    pub faults: Vec<String>,
}

/// A parsed request line: correlation id plus operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Echoed verbatim on the response so clients can correlate
    /// out-of-order replies.
    pub id: Option<String>,
    /// What to do.
    pub request: Request,
}

/// The operations the daemon accepts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run a synthesis.
    Synth(Box<SynthSpec>),
    /// Report daemon counters.
    Stats,
    /// Begin graceful shutdown (drain queue, fsync cache, exit).
    Shutdown,
}

/// Parses and validates one request line.
///
/// # Errors
///
/// A human-readable message describing the first problem found:
/// malformed JSON (with line/column), a non-object top level, a
/// missing/unknown `op`, an unknown key, a type mismatch, or an
/// out-of-range value. The daemon wraps it in a `bad_request` response.
pub fn parse_line(line: &str) -> Result<Envelope, String> {
    if line.len() > MAX_LINE_BYTES {
        return Err(format!(
            "request line exceeds {MAX_LINE_BYTES} bytes ({} sent)",
            line.len()
        ));
    }
    let value = jsonio::parse(line).map_err(|e| e.to_string())?;
    let pairs = value
        .as_obj()
        .ok_or_else(|| "request must be a JSON object".to_owned())?;
    let op = value
        .get("op")
        .ok_or_else(|| "missing \"op\"".to_owned())?
        .as_str()
        .ok_or_else(|| "\"op\" must be a string".to_owned())?;
    let id = match value.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => return Err("\"id\" must be a string".into()),
    };
    match op {
        "synth" => {
            let spec = parse_synth(pairs)?;
            Ok(Envelope {
                id,
                request: Request::Synth(Box::new(spec)),
            })
        }
        "pareto" => {
            let mut spec = parse_synth(pairs)?;
            if spec.auto_rows {
                return Err("\"pareto\" runs at a fixed row count; drop \"rows\": \"auto\"".into());
            }
            if spec.hier {
                return Err("\"pareto\" and \"hier\" are mutually exclusive".into());
            }
            spec.pareto = true;
            Ok(Envelope {
                id,
                request: Request::Synth(Box::new(spec)),
            })
        }
        "stats" | "shutdown" => {
            for (k, _) in pairs {
                if k != "op" && k != "id" {
                    return Err(format!("unknown key {k:?} for op {op:?}"));
                }
            }
            Ok(Envelope {
                id,
                request: if op == "stats" {
                    Request::Stats
                } else {
                    Request::Shutdown
                },
            })
        }
        other => Err(format!(
            "unknown op {other:?} (expected \"synth\", \"pareto\", \"stats\", or \"shutdown\")"
        )),
    }
}

fn parse_synth(pairs: &[(String, Json)]) -> Result<SynthSpec, String> {
    let mut source: Option<Source> = None;
    let mut rows = 1usize;
    let mut auto_rows = false;
    let mut max_rows = 4usize;
    let mut saw_max_rows = false;
    let mut hier = false;
    let mut stacking = false;
    let mut height = false;
    let mut objective = None;
    let mut track_pitch = None;
    let mut diffusion_overhead = None;
    let mut rail_overhead = None;
    let mut interrow_weight = None;
    let mut critical = Vec::new();
    let mut limit_ms = DEFAULT_LIMIT_MS;
    let mut jobs = None;
    let mut no_cache = false;
    let mut faults = Vec::new();

    let set_source = |slot: &mut Option<Source>, s: Source| -> Result<(), String> {
        if slot.is_some() {
            return Err("give exactly one of \"cell\", \"deck\", \"expr\"".into());
        }
        *slot = Some(s);
        Ok(())
    };
    for (key, v) in pairs {
        match key.as_str() {
            "op" | "id" => {}
            "cell" => set_source(&mut source, Source::Cell(str_field(v, key)?))?,
            "deck" => set_source(&mut source, Source::Deck(str_field(v, key)?))?,
            "expr" => set_source(&mut source, Source::Expr(str_field(v, key)?))?,
            "rows" => match v {
                Json::Str(s) if s == "auto" => auto_rows = true,
                _ => {
                    rows = usize_field(v, key)?;
                    if rows == 0 {
                        return Err("\"rows\" must be >= 1".into());
                    }
                }
            },
            "max_rows" => {
                max_rows = usize_field(v, key)?;
                saw_max_rows = true;
                if max_rows == 0 {
                    return Err("\"max_rows\" must be >= 1".into());
                }
            }
            "limit_ms" => {
                limit_ms = u64_field(v, key)?;
                if limit_ms > MAX_LIMIT_MS {
                    return Err(format!("\"limit_ms\" exceeds the {MAX_LIMIT_MS} ms cap"));
                }
            }
            "jobs" => {
                let j = usize_field(v, key)?;
                if j == 0 {
                    return Err("\"jobs\" must be >= 1".into());
                }
                jobs = Some(j);
            }
            "hier" => hier = bool_field(v, key)?,
            "stacking" => stacking = bool_field(v, key)?,
            "height" => height = bool_field(v, key)?,
            "objective" => {
                let name = str_field(v, key)?;
                if clip_core::ObjectiveSpec::parse_ordering(&name).is_none() {
                    return Err(format!(
                        "unknown objective {name:?} (expected \"width\", \"width-height\", \
                         \"height-width\", or \"weighted:W:H\" with positive weights)"
                    ));
                }
                objective = Some(name);
            }
            "track_pitch" => {
                let p = usize_field(v, key)?;
                if p == 0 {
                    return Err("\"track_pitch\" must be >= 1".into());
                }
                track_pitch = Some(p);
            }
            "diffusion_overhead" => diffusion_overhead = Some(usize_field(v, key)?),
            "rail_overhead" => rail_overhead = Some(usize_field(v, key)?),
            "interrow_weight" => {
                interrow_weight = Some(
                    v.as_i64()
                        .ok_or_else(|| format!("{key:?} must be an integer"))?,
                );
            }
            "critical" => {
                let items = v
                    .as_arr()
                    .ok_or_else(|| "\"critical\" must be an array of net names".to_owned())?;
                for item in items {
                    let name = item
                        .as_str()
                        .ok_or_else(|| "\"critical\" must be an array of net names".to_owned())?;
                    critical.push(name.to_owned());
                }
            }
            "no_cache" => no_cache = bool_field(v, key)?,
            "faults" => {
                let items = v
                    .as_arr()
                    .ok_or_else(|| "\"faults\" must be an array of strings".to_owned())?;
                for item in items {
                    let name = item
                        .as_str()
                        .ok_or_else(|| "\"faults\" must be an array of strings".to_owned())?;
                    if !faultpoint::is_site(name) {
                        return Err(format!(
                            "unknown fault site {name:?} (known: {})",
                            faultpoint::SITES.join(", ")
                        ));
                    }
                    faults.push(name.to_owned());
                }
            }
            other => return Err(format!("unknown key {other:?} for op \"synth\"")),
        }
    }
    let source = source.ok_or_else(|| "give one of \"cell\", \"deck\", \"expr\"".to_owned())?;
    if saw_max_rows && !auto_rows {
        return Err("\"max_rows\" only applies with \"rows\": \"auto\"".into());
    }
    if hier && auto_rows {
        return Err("\"hier\" and \"rows\": \"auto\" are mutually exclusive".into());
    }
    if height && objective.is_some() {
        return Err("give \"height\" or \"objective\", not both".into());
    }
    Ok(SynthSpec {
        source,
        rows,
        auto_rows,
        max_rows,
        hier,
        stacking,
        height,
        objective,
        track_pitch,
        diffusion_overhead,
        rail_overhead,
        interrow_weight,
        critical,
        pareto: false,
        limit_ms,
        jobs,
        no_cache,
        faults,
    })
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{key:?} must be a string"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    v.as_usize()
        .ok_or_else(|| format!("{key:?} must be a non-negative integer"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("{key:?} must be a non-negative integer"))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("{key:?} must be a boolean"))
}

fn id_value(id: Option<&str>) -> Json {
    match id {
        Some(s) => Json::Str(s.to_owned()),
        None => Json::Null,
    }
}

/// Renders a successful synthesis response (one line, newline-terminated).
pub fn synth_response(
    id: Option<&str>,
    cached: bool,
    degraded: Option<&str>,
    result: &Json,
) -> String {
    let mut pairs = vec![
        ("id".to_owned(), id_value(id)),
        ("status".to_owned(), Json::Str("ok".into())),
        ("cached".to_owned(), Json::Bool(cached)),
    ];
    if let Some(reason) = degraded {
        pairs.push(("degraded".to_owned(), Json::Str(reason.to_owned())));
    }
    pairs.push(("result".to_owned(), result.clone()));
    line(Json::Obj(pairs))
}

/// Renders an error response. `code` is a stable machine-readable
/// discriminator: `bad_request`, `solve_failed`, `internal_panic`,
/// `shutting_down`.
pub fn error_response(id: Option<&str>, code: &str, message: &str) -> String {
    line(Json::obj([
        ("id", id_value(id)),
        ("status", Json::Str("error".into())),
        ("code", Json::Str(code.into())),
        ("error", Json::Str(message.into())),
    ]))
}

/// Renders the fast 429-style load-shed response.
pub fn rejected_response(id: Option<&str>, queue_cap: usize) -> String {
    line(Json::obj([
        ("id", id_value(id)),
        ("status", Json::Str("rejected".into())),
        ("code", Json::Str("overloaded".into())),
        (
            "error",
            Json::Str(format!(
                "admission queue full (capacity {queue_cap}); retry later"
            )),
        ),
    ]))
}

/// Renders the per-connection fairness rejection: this connection holds
/// its full quota of queued/in-flight requests and must wait for
/// responses before sending more.
pub fn throttled_response(id: Option<&str>, per_conn_cap: usize) -> String {
    line(Json::obj([
        ("id", id_value(id)),
        ("status", Json::Str("rejected".into())),
        ("code", Json::Str("throttled".into())),
        (
            "error",
            Json::Str(format!(
                "connection holds {per_conn_cap} outstanding requests (the per-connection cap); \
                 await responses before sending more"
            )),
        ),
    ]))
}

/// Renders the stats response from counter snapshots.
pub fn stats_response(id: Option<&str>, counters: &[(&'static str, u64)]) -> String {
    let stats = Json::Obj(
        counters
            .iter()
            .map(|&(k, v)| (k.to_owned(), Json::Int(v as i64)))
            .collect(),
    );
    line(Json::obj([
        ("id", id_value(id)),
        ("status", Json::Str("ok".into())),
        ("stats", stats),
    ]))
}

/// Renders the shutdown acknowledgement.
pub fn shutdown_response(id: Option<&str>) -> String {
    line(Json::obj([
        ("id", id_value(id)),
        ("status", Json::Str("ok".into())),
        ("shutting_down", Json::Bool(true)),
    ]))
}

fn line(v: Json) -> String {
    let mut s = v.to_compact();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_synth_request() {
        let env = parse_line(r#"{"op":"synth","cell":"nand2"}"#).unwrap();
        assert_eq!(env.id, None);
        let Request::Synth(spec) = env.request else {
            panic!("expected synth")
        };
        assert_eq!(spec.source, Source::Cell("nand2".into()));
        assert_eq!(spec.rows, 1);
        assert!(!spec.auto_rows);
        assert_eq!(spec.limit_ms, DEFAULT_LIMIT_MS);
    }

    #[test]
    fn parses_every_synth_option() {
        let env = parse_line(
            r#"{"op":"synth","id":"r9","expr":"(a&b)'","rows":"auto","max_rows":3,
                "stacking":true,"height":true,"limit_ms":1500,"jobs":2,
                "track_pitch":2,"diffusion_overhead":1,"rail_overhead":0,
                "interrow_weight":-1,"critical":["z","n1"],
                "no_cache":true,
                "faults":["solve.panic","cache.torn"]}"#,
        )
        .unwrap();
        assert_eq!(env.id.as_deref(), Some("r9"));
        let Request::Synth(spec) = env.request else {
            panic!("expected synth")
        };
        assert!(spec.auto_rows && spec.stacking && spec.height);
        assert!(spec.no_cache);
        assert_eq!(spec.max_rows, 3);
        assert_eq!(spec.limit_ms, 1500);
        assert_eq!(spec.jobs, Some(2));
        assert_eq!(spec.track_pitch, Some(2));
        assert_eq!(spec.diffusion_overhead, Some(1));
        assert_eq!(spec.rail_overhead, Some(0));
        assert_eq!(spec.interrow_weight, Some(-1));
        assert_eq!(spec.critical, vec!["z", "n1"]);
        assert!(!spec.pareto);
        assert_eq!(spec.faults, vec!["solve.panic", "cache.torn"]);
    }

    #[test]
    fn objective_names_parse_and_the_pareto_op_sets_the_flag() {
        for name in ["width", "width-height", "height-width", "weighted:2:3"] {
            let line = format!(r#"{{"op":"synth","cell":"nand2","objective":"{name}"}}"#);
            let Request::Synth(spec) = parse_line(&line).unwrap().request else {
                panic!("expected synth")
            };
            assert_eq!(spec.objective.as_deref(), Some(name));
            assert!(!spec.pareto);
        }
        let env = parse_line(r#"{"op":"pareto","id":"p1","cell":"nand4","rows":2}"#).unwrap();
        assert_eq!(env.id.as_deref(), Some("p1"));
        let Request::Synth(spec) = env.request else {
            panic!("expected synth")
        };
        assert!(spec.pareto);
        assert_eq!(spec.rows, 2);
    }

    #[test]
    fn stats_and_shutdown_parse() {
        assert_eq!(
            parse_line(r#"{"op":"stats"}"#).unwrap().request,
            Request::Stats
        );
        assert_eq!(
            parse_line(r#"{"op":"shutdown","id":"x"}"#).unwrap().request,
            Request::Shutdown
        );
    }

    #[test]
    fn strictness_rejects_the_sharp_edges() {
        let cases = [
            ("[1,2]", "object"),
            (r#"{"cell":"nand2"}"#, "op"),
            (r#"{"op":"fly"}"#, "unknown op"),
            (r#"{"op":"synth"}"#, "one of"),
            (r#"{"op":"synth","cell":"a","deck":"b"}"#, "exactly one"),
            (r#"{"op":"synth","cell":"a","rowz":2}"#, "unknown key"),
            (
                r#"{"op":"synth","cell":"a","no_theories":true}"#,
                "unknown key",
            ),
            (
                r#"{"op":"synth","cell":"a","classic_search":true}"#,
                "unknown key",
            ),
            (r#"{"op":"synth","cell":"a","rows":0}"#, ">= 1"),
            (r#"{"op":"synth","cell":"a","rows":-3}"#, "non-negative"),
            (r#"{"op":"synth","cell":"a","max_rows":2}"#, "auto"),
            (
                r#"{"op":"synth","cell":"a","hier":true,"rows":"auto"}"#,
                "mutually exclusive",
            ),
            (
                r#"{"op":"synth","cell":"a","limit_ms":999999999999}"#,
                "cap",
            ),
            (
                r#"{"op":"synth","cell":"a","faults":["warp.core"]}"#,
                "fault site",
            ),
            (r#"{"op":"synth","cell":"a","id":7}"#, "string"),
            (r#"{"op":"stats","rows":2}"#, "unknown key"),
            (r#"{"op":"synth","cell":"a""#, "JSON error"),
            (
                r#"{"op":"synth","cell":"a","objective":"area"}"#,
                "unknown objective",
            ),
            (
                r#"{"op":"synth","cell":"a","objective":"weighted:0:1"}"#,
                "unknown objective",
            ),
            (
                r#"{"op":"synth","cell":"a","height":true,"objective":"width"}"#,
                "not both",
            ),
            (r#"{"op":"synth","cell":"a","track_pitch":0}"#, ">= 1"),
            (
                r#"{"op":"synth","cell":"a","interrow_weight":"x"}"#,
                "integer",
            ),
            (r#"{"op":"synth","cell":"a","critical":"z"}"#, "array"),
            (
                r#"{"op":"pareto","cell":"a","rows":"auto"}"#,
                "fixed row count",
            ),
            (
                r#"{"op":"pareto","cell":"a","hier":true}"#,
                "mutually exclusive",
            ),
        ];
        for (input, needle) in cases {
            let err = parse_line(input).unwrap_err();
            assert!(
                err.contains(needle),
                "input {input:?}: error {err:?} missing {needle:?}"
            );
        }
    }

    #[test]
    fn oversized_lines_are_rejected_without_parsing() {
        let huge = format!(
            "{{\"op\":\"synth\",\"deck\":\"{}\"}}",
            "x".repeat(MAX_LINE_BYTES)
        );
        let err = parse_line(&huge).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn responses_are_single_terminated_lines_that_parse_back() {
        let ok = synth_response(Some("r1"), true, Some("deadline"), &Json::obj([]));
        let err = error_response(None, "bad_request", "nope");
        let rej = rejected_response(Some("r2"), 64);
        let thr = throttled_response(Some("r3"), 16);
        let stats = stats_response(None, &[("received", 3), ("panics", 1)]);
        let bye = shutdown_response(None);
        for line in [&ok, &err, &rej, &thr, &stats, &bye] {
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
            jsonio::parse(line).unwrap();
        }
        let v = jsonio::parse(&ok).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("degraded").unwrap().as_str(), Some("deadline"));
        let v = jsonio::parse(&rej).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("overloaded"));
        let v = jsonio::parse(&thr).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("rejected"));
        assert_eq!(v.get("code").unwrap().as_str(), Some("throttled"));
    }
}
