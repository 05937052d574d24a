//! Per-layer metrics of a traced run: counts the program already returns
//! (`PipelineTrace` stage records, `SolveStats`) plus span self times.

use std::collections::BTreeMap;
use std::time::Duration;

use clip_core::pipeline::{ConstraintClass, PipelineTrace, Stage};

/// Solver counts summed over the solve stages of successful operations.
/// These repeat exactly from run to run at one job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PbCounts {
    /// Decision nodes.
    pub nodes: u64,
    /// Conflicts.
    pub conflicts: u64,
    /// Propagations, all classes.
    pub propagations: u64,
    /// Propagations by class: clause, at-most-one, cardinality, linear.
    pub props: [u64; 4],
    /// Learned constraints.
    pub learned: u64,
    /// Time to the final incumbent, summed.
    pub first_best: Duration,
    /// Solve-stage wall time of the counted operations.
    pub solve_wall: Duration,
    /// Model variables.
    pub model_vars: u64,
    /// Model constraints.
    pub model_constraints: u64,
    /// Flat solves that ended unproved.
    pub unproved: u64,
}

impl PbCounts {
    /// Adds the solve stages of one successful operation.
    pub fn add(&mut self, trace: &PipelineTrace) {
        for rec in &trace.stages {
            if rec.stage == Stage::ModelBuild {
                self.model_vars += rec.model_vars.unwrap_or(0) as u64;
                self.model_constraints += rec.model_constraints.unwrap_or(0) as u64;
            }
            let (Stage::Solve, Some(st)) = (rec.stage, rec.solve.as_ref()) else {
                continue;
            };
            self.nodes += st.nodes;
            self.conflicts += st.conflicts;
            self.propagations += st.propagations;
            for (slot, class) in self.props.iter_mut().zip(ConstraintClass::ALL) {
                *slot += st.props_by_class.get(class);
            }
            self.learned += st.learned;
            self.first_best += st.first_best_time().unwrap_or_default();
            self.solve_wall += rec.wall;
        }
    }
}

/// Named per-layer metrics of one traced run.
#[derive(Clone, Debug, Default)]
pub struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
}

impl LayerMetrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// One metric, zero when the workload does not exercise its layer.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Fills the solver and pipeline metrics.
    ///
    /// `self_ms` maps span names to total self time in ms; `ops` is the
    /// number of synthesis operations the spans cover.
    pub fn set_pipeline(&mut self, pb: &PbCounts, self_ms: &BTreeMap<&str, f64>, ops: usize) {
        let ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
        let per_op = |name: &str| if ops == 0 { 0.0 } else { ms(name) / ops as f64 };
        self.set("pb.solve_ms", ms("pb.solve"));
        self.set("pb.nodes", pb.nodes as f64);
        self.set("pb.conflicts", pb.conflicts as f64);
        self.set("pb.propagations", pb.propagations as f64);
        self.set("pb.props_clause", pb.props[0] as f64);
        self.set("pb.props_amo", pb.props[1] as f64);
        self.set("pb.props_card", pb.props[2] as f64);
        self.set("pb.props_linear", pb.props[3] as f64);
        self.set("pb.learned", pb.learned as f64);
        self.set("pb.first_best_ms", pb.first_best.as_secs_f64() * 1e3);
        let solve_ms = pb.solve_wall.as_secs_f64() * 1e3;
        self.set(
            "pb.nodes_per_ms",
            if solve_ms > 0.0 {
                pb.nodes as f64 / solve_ms
            } else {
                0.0
            },
        );
        self.set("pb.model_vars", pb.model_vars as f64);
        self.set("pb.model_constraints", pb.model_constraints as f64);
        self.set("pb.unproved", pb.unproved as f64);
        self.set("core.greedy_seed_ms", ms("core.greedy_seed"));
        self.set("core.hclip_seed_ms", ms("core.hclip_seed"));
        self.set("core.hier_ms", ms("core.hier"));
        self.set("netlist.pair_ms", per_op("netlist.pair"));
        self.set("core.model_build_ms", per_op("core.model_build"));
        self.set("route.stage_ms", per_op("route.stage"));
        self.set("core.request_overhead_ms", per_op("core.synth"));
    }

    /// Every metric name with its value, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// Span self times in milliseconds, keyed by span name.
pub fn self_ms(spans: &crate::spans::Spans) -> BTreeMap<&'static str, f64> {
    spans
        .self_times()
        .into_iter()
        .map(|(k, (_, d))| (k, d.as_secs_f64() * 1e3))
        .collect()
}
