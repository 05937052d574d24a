//! The staged solve pipeline: stage identities, per-stage records, and the
//! [`Pipeline`] accumulator that times stages against a shared [`Budget`].
//!
//! The paper's experimental story (Tables 3–4) is about *where time goes* —
//! model size, 0-1 search nodes, and solve time per row count. This module
//! makes that observable: the generator runs each phase of a request
//! (pairing, clustering, seeding, model build, solve, routing) through
//! [`Pipeline::stage`], which times it, lets it annotate a [`StageRecord`]
//! with model sizes and [`SolveStats`], and appends the record to a
//! [`PipelineTrace`] that is carried on the finished cell, serialized by
//! `clip-layout`, and surfaced by `clip synth --trace` and the bench
//! experiments.
//!
//! Budgeting: the pipeline holds one [`Budget`] for the whole request.
//! Stages read the *remaining* time from it, so a stage that starts late
//! gets only what is left, and a row sweep over many models shares a single
//! deadline instead of granting each row the full limit.

use std::time::{Duration, Instant};

pub use clip_pb::{Budget, ClassCounts, ConstraintClass, SolveStats, StopReason};

/// Identity of a pipeline stage, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Series-parallel pairing of the transistor netlist.
    Pair,
    /// HCLIP and-stack clustering (only with stacking enabled).
    Cluster,
    /// Greedy 2-D placement used as the solver's warm start.
    GreedySeed,
    /// Budgeted single-row CLIP-W solve refining the greedy seed (HCLIP).
    HclipSeed,
    /// CLIP-W / CLIP-WH 0-1 model construction.
    ModelBuild,
    /// The main branch-and-bound solve.
    Solve,
    /// Routing-track computation and cell-height evaluation.
    Route,
    /// Summary record for a parallel best-area row sweep.
    Sweep,
    /// Summary record for a hierarchical generation request (partition,
    /// sub-cell solves, composition).
    Hier,
    /// Summary record for a Pareto frontier race: one cell solved across a
    /// sweep of objective parameterizations with dominance pruning.
    Pareto,
}

impl Stage {
    /// Stable snake_case name used in serialized traces.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Pair => "pair",
            Stage::Cluster => "cluster",
            Stage::GreedySeed => "greedy_seed",
            Stage::HclipSeed => "hclip_seed",
            Stage::ModelBuild => "model_build",
            Stage::Solve => "solve",
            Stage::Route => "route",
            Stage::Sweep => "sweep",
            Stage::Hier => "hier",
            Stage::Pareto => "pareto",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Stage> {
        Some(match name {
            "pair" => Stage::Pair,
            "cluster" => Stage::Cluster,
            "greedy_seed" => Stage::GreedySeed,
            "hclip_seed" => Stage::HclipSeed,
            "model_build" => Stage::ModelBuild,
            "solve" => Stage::Solve,
            "route" => Stage::Route,
            "sweep" => Stage::Sweep,
            "hier" => Stage::Hier,
            "pareto" => Stage::Pareto,
            _ => return None,
        })
    }
}

/// One point of a Pareto frontier race, as recorded on the
/// [`Stage::Pareto`] summary record. Every field is a plain scalar so the
/// record serializes without reference to the in-memory
/// [`crate::objective::ObjectiveSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParetoPointRecord {
    /// Canonical objective-ordering name (`"width"`, `"width-height"`,
    /// `"height-width"`, `"weighted:W:H"`).
    pub objective: String,
    /// Height units per routing track for this point's spec.
    pub track_pitch: usize,
    /// Height units of diffusion overhead per row.
    pub diffusion_overhead: usize,
    /// Fixed supply-rail overhead in height units.
    pub rail_overhead: usize,
    /// Inter-row wiring weight used by the single-row objective.
    pub interrow_weight: i64,
    /// Final cell width in columns (`None` if the point failed or was
    /// pruned before producing a placement).
    pub width: Option<usize>,
    /// Total routing tracks of the final placement.
    pub tracks: Option<usize>,
    /// Cell height in this spec's height units.
    pub height: Option<usize>,
    /// Whether the point's solve ran to proved optimality.
    pub proved: bool,
    /// Whether the point reused another point's solve (identical
    /// solver-visible parameterization).
    pub reused: bool,
    /// Whether the point was dominance-pruned before or during its solve.
    pub pruned: bool,
    /// Whether the point sits on the emitted non-dominated frontier.
    pub on_frontier: bool,
    /// Index of the lowest-numbered point that dominates this one.
    pub dominated_by: Option<usize>,
}

/// One timed pipeline stage: what ran, for how long, over which model, and
/// what the solver reported (when the stage invoked the solver).
#[derive(Clone, Debug, PartialEq)]
pub struct StageRecord {
    /// Which stage this record describes.
    pub stage: Stage,
    /// Row count the stage targeted (set during row sweeps).
    pub rows: Option<usize>,
    /// Wall-clock time spent in the stage.
    pub wall: Duration,
    /// 0-1 variables in the model the stage built or solved.
    pub model_vars: Option<usize>,
    /// Constraints in the model the stage built or solved.
    pub model_constraints: Option<usize>,
    /// Per-class constraint histogram of that model (clause / at-most-one
    /// / cardinality / general-linear; see [`clip_pb::ConstraintClass`]).
    pub classes: Option<ClassCounts>,
    /// Solver statistics, including the incumbent trajectory. For a
    /// portfolio solve these are the *combined* stats; the per-thread
    /// breakdown is in [`StageRecord::thread_solves`].
    pub solve: Option<SolveStats>,
    /// Worker threads used by the stage (portfolio width, or the
    /// best-area sweep's fan-out on its [`Stage::Sweep`] record).
    pub threads: Option<usize>,
    /// Strategy that won the stage's solve (`"cbj"`, `"evsids"`, ...).
    pub winner_strategy: Option<String>,
    /// Shared-bound prune events in this stage: bound adoptions for a
    /// portfolio solve, rows skipped or cancelled for a sweep record.
    pub shared_prunes: Option<u64>,
    /// Per-thread solver statistics for a portfolio solve, in
    /// configuration order (empty when the stage ran one solver).
    pub thread_solves: Vec<SolveStats>,
    /// Per-point outcomes of a Pareto frontier race (only on
    /// [`Stage::Pareto`] records), in spec order.
    pub pareto: Option<Vec<ParetoPointRecord>>,
}

impl StageRecord {
    /// An empty record for `stage`, stamped with the targeted row count.
    pub fn new(stage: Stage, rows: Option<usize>) -> Self {
        StageRecord {
            stage,
            rows,
            wall: Duration::ZERO,
            model_vars: None,
            model_constraints: None,
            classes: None,
            solve: None,
            threads: None,
            winner_strategy: None,
            shared_prunes: None,
            thread_solves: Vec::new(),
            pareto: None,
        }
    }
}

/// The ordered list of stage records accumulated for one request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineTrace {
    /// Stage records in execution order.
    pub stages: Vec<StageRecord>,
}

impl PipelineTrace {
    /// Total wall-clock time across all recorded stages.
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// A human-readable stage table for CLI reporting.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "stage        rows     wall        vars  constrs     nodes  conflicts  thr  winner\n",
        );
        for s in &self.stages {
            let rows = s.rows.map_or(String::from("-"), |r| r.to_string());
            let vars = s.model_vars.map_or(String::from("-"), |v| v.to_string());
            let cons = s
                .model_constraints
                .map_or(String::from("-"), |c| c.to_string());
            let (nodes, conflicts) = s
                .solve
                .as_ref()
                .map_or((String::from("-"), String::from("-")), |st| {
                    (st.nodes.to_string(), st.conflicts.to_string())
                });
            let threads = s.threads.map_or(String::from("-"), |t| t.to_string());
            let winner = s.winner_strategy.as_deref().unwrap_or("-");
            out.push_str(&format!(
                "{:<12} {:>4} {:>9.1?} {:>9} {:>8} {:>9} {:>10} {:>4}  {}\n",
                s.stage.name(),
                rows,
                s.wall,
                vars,
                cons,
                nodes,
                conflicts,
                threads,
                winner
            ));
        }
        out
    }
}

/// Accumulates [`StageRecord`]s for one generation request and carries the
/// request's shared [`Budget`].
#[derive(Debug)]
pub struct Pipeline {
    budget: Budget,
    trace: PipelineTrace,
    rows: Option<usize>,
}

impl Pipeline {
    /// A pipeline drawing on `budget` for every stage.
    pub fn new(budget: Budget) -> Self {
        Pipeline {
            budget,
            trace: PipelineTrace::default(),
            rows: None,
        }
    }

    /// The request-wide budget (clone it to pass into solver configs).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Sets the row count stamped on subsequently recorded stages (used by
    /// the best-area sweep to distinguish per-row iterations).
    pub fn set_rows(&mut self, rows: Option<usize>) {
        self.rows = rows;
    }

    /// Runs `f` as a timed stage: the closure gets the shared budget and a
    /// mutable record to annotate (model sizes, solve stats); the record's
    /// wall time is filled in afterwards and the record appended.
    pub fn stage<T>(&mut self, stage: Stage, f: impl FnOnce(&Budget, &mut StageRecord) -> T) -> T {
        let mut record = StageRecord::new(stage, self.rows);
        let start = Instant::now();
        let out = f(&self.budget, &mut record);
        record.wall = start.elapsed();
        self.trace.stages.push(record);
        out
    }

    /// The accumulated trace so far.
    pub fn trace(&self) -> &PipelineTrace {
        &self.trace
    }

    /// Consumes the pipeline, yielding its trace.
    pub fn into_trace(self) -> PipelineTrace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for s in [
            Stage::Pair,
            Stage::Cluster,
            Stage::GreedySeed,
            Stage::HclipSeed,
            Stage::ModelBuild,
            Stage::Solve,
            Stage::Route,
            Stage::Sweep,
            Stage::Hier,
            Stage::Pareto,
        ] {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn stages_accumulate_in_order_with_annotations() {
        let mut p = Pipeline::new(Budget::unlimited());
        let v = p.stage(Stage::ModelBuild, |_, rec| {
            rec.model_vars = Some(12);
            rec.model_constraints = Some(34);
            42
        });
        assert_eq!(v, 42);
        p.set_rows(Some(2));
        p.stage(Stage::Solve, |budget, rec| {
            assert!(!budget.expired());
            rec.solve = Some(SolveStats::default());
        });
        let trace = p.into_trace();
        assert_eq!(trace.stages.len(), 2);
        assert_eq!(trace.stages[0].stage, Stage::ModelBuild);
        assert_eq!(trace.stages[0].rows, None);
        assert_eq!(trace.stages[0].model_vars, Some(12));
        assert_eq!(trace.stages[1].rows, Some(2));
        assert!(trace.stages[1].solve.is_some());
        let rendered = trace.render();
        assert!(rendered.contains("model_build"));
        assert!(rendered.contains("solve"));
    }
}
