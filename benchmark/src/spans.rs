//! In-memory spans recorded around the benchmark's own calls into the
//! program, self times, and the trace file written when a traced run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use clip_core::pipeline::{PipelineTrace, Stage};
use clip_layout::jsonio::Json;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `pb.solve`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation the span belongs to; spans of one operation share it.
    pub op: usize,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Span recorder. Nothing is written until [`Spans::to_json`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            parent,
            op,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Adds one child span per pipeline stage under `parent`. Stages run one
    /// after another, so each starts where the previous one ended; the
    /// records carry durations only. The best-area `sweep` summary spans its
    /// row stages and is left out so no time counts twice.
    pub fn add_stages(&mut self, parent: usize, trace: &PipelineTrace) {
        let (op, mut at) = {
            let p = &self.spans[parent];
            (p.op, p.start_ns)
        };
        for rec in &trace.stages {
            let Some(name) = stage_span(rec.stage) else {
                continue;
            };
            let end = at + rec.wall.as_nanos() as u64;
            self.spans.push(Span {
                name,
                parent: Some(parent),
                op,
                start_ns: at,
                end_ns: end,
            });
            at = end;
        }
    }

    /// Self time per span name: each span's duration minus the part of its
    /// interval its children cover. Returns `(count, total self time)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, Duration)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, Duration)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(s.start_ns, s.end_ns, &mut children[i]);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += Duration::from_nanos(own);
        }
        out
    }

    /// The trace file: every span plus the run's counts.
    pub fn to_json(&self, workload: &str, counts: &[(String, f64)]) -> Json {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let index = |n: &str| names.iter().position(|&m| m == n).unwrap_or(0) as i64;
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Int(index(s.name)),
                    s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                    Json::Int(s.op as i64),
                    Json::Int(s.start_ns as i64),
                    Json::Int((s.end_ns - s.start_ns) as i64),
                ])
            })
            .collect();
        let self_times = self
            .self_times()
            .into_iter()
            .map(|(name, (count, own))| {
                (
                    name.to_owned(),
                    Json::obj([
                        ("count", Json::Int(count as i64)),
                        ("self_ms", Json::Float(own.as_secs_f64() * 1e3)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(workload.to_owned())),
            (
                "span_fields",
                Json::Arr(
                    ["name", "parent", "op", "start_ns", "dur_ns"]
                        .iter()
                        .map(|f| Json::Str((*f).to_owned()))
                        .collect(),
                ),
            ),
            (
                "names",
                Json::Arr(names.iter().map(|n| Json::Str((*n).to_owned())).collect()),
            ),
            ("spans", Json::Arr(spans)),
            ("self_time", Json::Obj(self_times)),
            (
                "counts",
                Json::Obj(
                    counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs each of `n` operations twice back to back, once without spans and
/// once with them, alternating which goes first, so that drift in machine
/// speed touches both alike. `op` returns its result and wall time. Returns
/// the untraced results, the traced ones, and the tracing overhead: the
/// median over operations of traced over untraced wall time, in percent.
pub fn paired<T>(
    n: usize,
    spans: &mut Spans,
    mut op: impl FnMut(usize, Option<(&mut Spans, usize)>) -> (T, Duration),
) -> (Vec<T>, Vec<T>, f64) {
    let mut untraced = Vec::with_capacity(n);
    let mut traced = Vec::with_capacity(n);
    let mut ratios = Vec::with_capacity(n);
    for k in 0..n {
        let mut walls = [Duration::ZERO; 2];
        for with_spans in [k % 2 == 1, k % 2 == 0] {
            if with_spans {
                let (t, wall) = op(k, Some((&mut *spans, k)));
                traced.push(t);
                walls[1] = wall;
            } else {
                let (t, wall) = op(k, None);
                untraced.push(t);
                walls[0] = wall;
            }
        }
        ratios.push(walls[1].as_secs_f64() / walls[0].as_secs_f64().max(1e-9));
    }
    let overhead = crate::stats::median(&ratios).map_or(0.0, |r| (r - 1.0) * 100.0);
    (untraced, traced, overhead)
}

/// The span name of a pipeline stage, by the layer that does its work.
fn stage_span(stage: Stage) -> Option<&'static str> {
    Some(match stage {
        Stage::Pair => "netlist.pair",
        Stage::Cluster => "core.cluster",
        Stage::GreedySeed => "core.greedy_seed",
        Stage::HclipSeed => "core.hclip_seed",
        Stage::ModelBuild => "core.model_build",
        Stage::Solve => "pb.solve",
        Stage::Route => "route.stage",
        Stage::Hier => "core.hier",
        Stage::Pareto => "core.pareto",
        Stage::Sweep => return None,
    })
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::default();
        let t0 = spans.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = spans.record("op", None, 0, at(0), at(100));
        spans.record("a", Some(root), 0, at(10), at(40));
        spans.record("b", Some(root), 0, at(30), at(60)); // overlaps a
        spans.record("c", Some(root), 0, at(90), at(120)); // runs past the root
        let st = spans.self_times();
        // Children cover 10..60 and 90..100: 60 ms of the root's 100.
        assert_eq!(st["op"], (1, Duration::from_millis(40)));
        assert_eq!(st["a"], (1, Duration::from_millis(30)));
        assert_eq!(st["c"], (1, Duration::from_millis(30)));
    }

    #[test]
    fn paired_runs_alternate_and_split_results() {
        let mut spans = Spans::default();
        let mut calls = Vec::new();
        let (plain, traced, overhead) = paired(3, &mut spans, |k, s| {
            calls.push((k, s.is_some()));
            let wall = Duration::from_millis(if s.is_some() { 11 } else { 10 } * (k as u64 + 1));
            (k, wall)
        });
        assert_eq!(
            calls,
            [
                (0, false),
                (0, true),
                (1, true),
                (1, false),
                (2, false),
                (2, true)
            ]
        );
        assert_eq!(plain, [0, 1, 2]);
        assert_eq!(traced, [0, 1, 2]);
        assert!((overhead - 10.0).abs() < 1e-9, "{overhead}");
    }

    #[test]
    fn stages_become_sequential_children() {
        use clip_core::pipeline::StageRecord;
        let mut trace = PipelineTrace::default();
        for (stage, ms) in [(Stage::Pair, 1), (Stage::Solve, 5), (Stage::Sweep, 9)] {
            let mut rec = StageRecord::new(stage, None);
            rec.wall = Duration::from_millis(ms);
            trace.stages.push(rec);
        }
        let mut spans = Spans::default();
        let t0 = spans.origin;
        let op = spans.record("core.synth", None, 7, t0, t0 + Duration::from_millis(10));
        spans.add_stages(op, &trace);
        let names: Vec<&str> = spans.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["core.synth", "netlist.pair", "pb.solve"]);
        assert_eq!(spans.spans[2].start_ns, 1_000_000);
        assert_eq!(spans.spans[2].op, 7);
        let st = spans.self_times();
        assert_eq!(st["core.synth"].1, Duration::from_millis(4));
    }
}
