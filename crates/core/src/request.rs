//! The consolidated synthesis request API.
//!
//! [`SynthRequest`] gathers everything that used to be spread across
//! [`GenOptions`], an external [`Budget`], `HierOptions`, and ad-hoc
//! entry points (`generate`, `generate_best_area`, `hier::generate`)
//! into one builder with one terminal [`SynthRequest::build`]. All the
//! legacy entry points are now thin shims over this path, so every
//! request — fixed-row, best-area sweep, hierarchical — flows through
//! the same budget derivation, tuning-plan application, and trace
//! collection.
//!
//! The request is also where a learned tuning profile plugs in: install
//! a [`TuningPlan`] with [`SynthRequest::profile`] and the pipeline
//! consults it at stage boundaries. The plan's levers are constrained to
//! change *speed only, never results* (see [`crate::tuning`]); the
//! decisions actually applied come back on [`SynthResult::applied`] and
//! are stamped into the trace for observability.
//!
//! # Example
//!
//! ```
//! use clip_core::request::SynthRequest;
//! use clip_netlist::library;
//!
//! let result = SynthRequest::new(library::mux21()).rows(3).build()?;
//! assert_eq!(result.cell.width, 3);
//! assert!(result.applied.plan.is_default()); // no profile installed
//! # Ok::<(), clip_core::generator::GenError>(())
//! ```

use std::num::NonZeroUsize;
use std::time::Duration;

use clip_netlist::Circuit;
use clip_pb::SolveStats;

use crate::cluster;
use crate::generator::{CellGenerator, GenError, GenOptions, GeneratedCell};
use crate::hier::{HierCell, HierOptions};
use crate::objective::ObjectiveSpec;
use crate::pipeline::{Budget, Pipeline, Stage};
use crate::tuning::TuningPlan;
use crate::unit::UnitSet;

/// What shape of synthesis the request runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// One solve at the requested row count.
    Fixed,
    /// A best-area sweep over `1..=max_rows` sharing one budget.
    BestArea {
        /// Largest row count the sweep tries.
        max_rows: usize,
    },
    /// Hierarchical generation: partition by gates, solve sub-cells,
    /// compose.
    Hier,
    /// A Pareto frontier race over a sweep of objective specs (the specs
    /// ride in [`SynthRequest::pareto_specs`] to keep `Mode` copyable).
    Pareto,
}

/// A builder-style synthesis request: circuit, options, budget, mode,
/// and tuning profile in one place.
///
/// Construct with [`SynthRequest::new`], chain configuration, finish
/// with [`SynthRequest::build`].
#[derive(Clone, Debug)]
pub struct SynthRequest {
    circuit: Circuit,
    options: GenOptions,
    budget: Option<Budget>,
    mode: Mode,
    /// The objective sweep of a [`Mode::Pareto`] request. An empty list
    /// means "use [`ObjectiveSpec::default_sweep`] over the request's
    /// base objective", resolved at build time.
    pareto_specs: Vec<ObjectiveSpec>,
    /// True once the caller set a job count explicitly — a profile's
    /// `jobs` advice then never overrides it.
    explicit_jobs: bool,
}

impl SynthRequest {
    /// A width-minimizing single-row request for `circuit`, on default
    /// options. Chain builder calls to reshape it.
    pub fn new(circuit: Circuit) -> Self {
        SynthRequest {
            circuit,
            options: GenOptions::rows(1),
            budget: None,
            mode: Mode::Fixed,
            pareto_specs: Vec::new(),
            explicit_jobs: false,
        }
    }

    /// A request carrying a fully-built [`GenOptions`] — the adapter the
    /// legacy [`CellGenerator`] shims use. The options' job count is
    /// treated as explicit, so a profile can never change the behavior
    /// of pre-existing call sites.
    pub fn with_options(circuit: Circuit, options: GenOptions) -> Self {
        SynthRequest {
            circuit,
            options,
            budget: None,
            mode: Mode::Fixed,
            pareto_specs: Vec::new(),
            explicit_jobs: true,
        }
    }

    /// Sets the row count (fixed-row mode).
    pub fn rows(mut self, rows: usize) -> Self {
        self.options.rows = rows;
        self
    }

    /// Switches to a best-area sweep over `1..=max_rows`.
    pub fn best_area(mut self, max_rows: usize) -> Self {
        self.mode = Mode::BestArea { max_rows };
        self
    }

    /// Switches to hierarchical generation (partition by gates, solve
    /// sub-cells exactly, compose). The row count set via
    /// [`SynthRequest::rows`] is clamped to the largest sub-cell.
    pub fn hierarchical(mut self) -> Self {
        self.mode = Mode::Hier;
        self
    }

    /// Switches to a Pareto frontier race over `specs` (fixed-row mode
    /// per point, one shared budget across the race). An empty list asks
    /// for [`ObjectiveSpec::default_sweep`] over the request's base
    /// objective. Point 0's cell becomes [`SynthResult::cell`]; the
    /// frontier arrives on [`SynthResult::pareto`].
    pub fn pareto(mut self, specs: Vec<ObjectiveSpec>) -> Self {
        self.mode = Mode::Pareto;
        self.pareto_specs = specs;
        self
    }

    /// Enables HCLIP and-stack clustering.
    pub fn stacking(mut self) -> Self {
        self.options.stacking = true;
        self
    }

    /// Installs a fully-built [`ObjectiveSpec`]: objective kind and
    /// ordering, height-model geometry, inter-row weight, and critical
    /// nets in one typed value. The `height`/`critical_nets`/
    /// `interrow_weight` builders below are thin shims mutating the same
    /// spec.
    pub fn objective(mut self, spec: ObjectiveSpec) -> Self {
        self.options.objective = spec;
        self
    }

    /// Switches to the width+height objective (fixed-row mode).
    ///
    /// Deprecated shim over [`SynthRequest::objective`]; kept
    /// byte-identical for existing callers.
    pub fn height(mut self) -> Self {
        self.options.objective.kind = crate::generator::Objective::WidthThenHeight;
        self
    }

    /// Sets the total wall-clock limit the derived budget enforces.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.options.time_limit = Some(limit);
        self
    }

    /// Marks nets (by name) as timing-critical for the width+height
    /// objective.
    ///
    /// Deprecated shim over [`SynthRequest::objective`]; kept
    /// byte-identical for existing callers.
    pub fn critical_nets(mut self, nets: Vec<String>) -> Self {
        self.options.objective.critical_nets = nets;
        self
    }

    /// Sets the weight on inter-row nets in the width objective.
    ///
    /// Deprecated shim over [`SynthRequest::objective`]; kept
    /// byte-identical for existing callers.
    pub fn interrow_weight(mut self, weight: i64) -> Self {
        self.options.objective.interrow_weight = weight;
        self
    }

    /// Sets the worker-thread count explicitly. An explicit count always
    /// wins over a profile's `jobs` advice, and bypasses the small-sweep
    /// fan-out gate (see [`GenOptions::jobs_explicit`]).
    pub fn jobs(mut self, jobs: NonZeroUsize) -> Self {
        self.options.jobs = jobs;
        self.options.jobs_explicit = true;
        self.explicit_jobs = true;
        self
    }

    /// Supplies an external [`Budget`] (shared deadline across several
    /// requests, node pools) instead of deriving one from the time limit.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Installs a tuning plan, usually distilled from a learned profile
    /// by `clip-tune`. Plans change speed only, never results; see
    /// [`crate::tuning`] for the constraints on each lever.
    pub fn profile(mut self, plan: TuningPlan) -> Self {
        self.options.tuning = plan;
        self
    }

    /// Runs the request.
    ///
    /// The one place every synthesis mode funnels through: the tuning
    /// plan's `jobs` advice is applied (unless the caller set jobs
    /// explicitly), the budget is derived (or the supplied one used),
    /// and the mode dispatches into the staged pipeline.
    ///
    /// # Errors
    ///
    /// See [`GenError`].
    pub fn build(mut self) -> Result<SynthResult, GenError> {
        let plan = self.options.tuning.clone();
        let mut jobs_from_profile = false;
        if !self.explicit_jobs {
            if let Some(jobs) = plan.jobs {
                self.options.jobs = jobs;
                jobs_from_profile = true;
            }
        }
        let budget = self
            .budget
            .take()
            .unwrap_or_else(|| Budget::from_limit(self.options.time_limit));
        let generator = CellGenerator::new(self.options.clone());
        let applied = AppliedTuning {
            plan: plan.clone(),
            jobs_from_profile,
        };
        match self.mode {
            Mode::Fixed => {
                let mut pipeline = Pipeline::new(budget);
                pipeline.set_rows(Some(self.options.rows));
                let mut cell =
                    generator.generate_staged(self.circuit, &mut pipeline, None, None)?;
                cell.trace = pipeline.into_trace();
                Ok(SynthResult {
                    cell,
                    hier: None,
                    pareto: None,
                    applied,
                })
            }
            Mode::BestArea { max_rows } => {
                let cell =
                    generator.generate_best_area_with_budget(self.circuit, max_rows, &budget)?;
                Ok(SynthResult {
                    cell,
                    hier: None,
                    pareto: None,
                    applied,
                })
            }
            Mode::Pareto => {
                let specs = if self.pareto_specs.is_empty() {
                    ObjectiveSpec::default_sweep(&self.options.objective)
                } else {
                    std::mem::take(&mut self.pareto_specs)
                };
                let (cell, pareto) =
                    crate::pareto::generate(&self.options, &self.circuit, &specs, &budget)?;
                Ok(SynthResult {
                    cell,
                    hier: None,
                    pareto: Some(pareto),
                    applied,
                })
            }
            Mode::Hier => {
                let mut pipeline = Pipeline::new(budget);
                let paired = pipeline.stage(Stage::Pair, |_, _| self.circuit.into_paired())?;
                let units = if self.options.stacking {
                    pipeline.stage(Stage::Cluster, |_, _| cluster::cluster_and_stacks(paired))
                } else {
                    UnitSet::flat(paired)
                };
                let hopts = HierOptions {
                    rows: self.options.rows,
                    stacking: self.options.stacking,
                    time_limit: self.options.time_limit,
                    jobs: self.options.jobs,
                };
                let hier = pipeline.stage(Stage::Hier, |budget, rec| {
                    let result = crate::hier::generate_units_with_budget(units, &hopts, budget);
                    if let Ok(h) = &result {
                        rec.rows = Some(h.rows);
                        rec.threads = Some(hopts.jobs.get().min(h.partition.len().max(1)));
                        rec.solve = Some(SolveStats {
                            duration: h.solve_time,
                            ..SolveStats::default()
                        });
                        if !self.options.tuning.is_default() {
                            rec.tuning = Some(self.options.tuning.to_string());
                        }
                    }
                    result
                })?;
                // Realize the composed placement as a GeneratedCell so a
                // hierarchical request reports geometry (tracks, height)
                // like any other. The partition pins pairs to gates, so
                // the result is near-optimal, never claimed optimal.
                let stats = SolveStats {
                    duration: hier.solve_time,
                    ..SolveStats::default()
                };
                let mut cell = generator.finish(
                    hier.units.clone(),
                    hier.placement.clone(),
                    hier.width,
                    false,
                    false,
                    stats,
                    (0, 0),
                )?;
                cell.trace = pipeline.into_trace();
                Ok(SynthResult {
                    cell,
                    hier: Some(hier),
                    pareto: None,
                    applied,
                })
            }
        }
    }
}

/// The tuning decisions a request actually ran with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedTuning {
    /// The plan consulted at stage boundaries ([`TuningPlan::default`]
    /// when no profile was installed or the profile had no advice).
    pub plan: TuningPlan,
    /// True when the worker-thread count came from the profile rather
    /// than the caller.
    pub jobs_from_profile: bool,
}

/// What a [`SynthRequest`] produced: the generated cell, the
/// hierarchical composition details (hier mode only), and the tuning
/// decisions that were applied.
#[derive(Clone, Debug)]
pub struct SynthResult {
    /// The generated cell, with its pipeline trace attached.
    pub cell: GeneratedCell,
    /// Hierarchical composition details, for requests built with
    /// [`SynthRequest::hierarchical`].
    pub hier: Option<HierCell>,
    /// The objective frontier, for requests built with
    /// [`SynthRequest::pareto`].
    pub pareto: Option<crate::pareto::ParetoResult>,
    /// The tuning decisions the request ran with.
    pub applied: AppliedTuning,
}

impl SynthResult {
    /// Consumes the result, yielding the generated cell.
    pub fn into_cell(self) -> GeneratedCell {
        self.cell
    }

    /// Consumes the result, yielding the hierarchical composition
    /// (`None` unless the request was hierarchical).
    pub fn into_hier(self) -> Option<HierCell> {
        self.hier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_netlist::library;

    #[test]
    fn fixed_request_matches_the_legacy_generator() {
        let result = SynthRequest::new(library::mux21()).rows(3).build().unwrap();
        assert_eq!(result.cell.width, 3);
        assert!(result.hier.is_none());
        assert!(result.applied.plan.is_default());
        assert!(!result.applied.jobs_from_profile);
        let legacy = CellGenerator::new(GenOptions::rows(3))
            .generate(library::mux21())
            .unwrap();
        assert_eq!(result.cell.placement, legacy.placement);
        assert_eq!(result.cell.width, legacy.width);
        assert_eq!(result.cell.height, legacy.height);
    }

    #[test]
    fn best_area_request_matches_the_legacy_sweep() {
        let result = SynthRequest::new(library::xor2())
            .best_area(4)
            .time_limit(Duration::from_secs(30))
            .build()
            .unwrap();
        assert_eq!(result.cell.placement.rows.len(), 3);
        assert_eq!(result.cell.width, 2);
        assert_eq!(result.cell.trace.stages.last().unwrap().stage, Stage::Sweep);
    }

    #[test]
    fn hier_request_returns_composition_and_a_trace() {
        let result = SynthRequest::new(library::mux41())
            .rows(2)
            .hierarchical()
            .build()
            .unwrap();
        let hier = result.hier.as_ref().unwrap();
        assert_eq!(hier.width, result.cell.width);
        assert!(!result.cell.optimal);
        let stages: Vec<Stage> = result.cell.trace.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![Stage::Pair, Stage::Hier]);
        let rec = &result.cell.trace.stages[1];
        assert_eq!(rec.rows, Some(hier.rows));
        assert!(rec.threads.is_some());
        assert!(rec.tuning.is_none(), "no profile: no tuning stamp");
        // The legacy wrapper returns the identical composition.
        let legacy =
            crate::hier::generate(library::mux41(), &crate::hier::HierOptions::rows(2)).unwrap();
        assert_eq!(legacy.placement, hier.placement);
    }

    #[test]
    fn profile_jobs_yield_to_explicit_jobs() {
        let plan = TuningPlan {
            jobs: NonZeroUsize::new(2),
            ..TuningPlan::default()
        };
        let from_profile = SynthRequest::new(library::nand2())
            .profile(plan.clone())
            .build()
            .unwrap();
        assert!(from_profile.applied.jobs_from_profile);
        let explicit = SynthRequest::new(library::nand2())
            .jobs(NonZeroUsize::MIN)
            .profile(plan)
            .build()
            .unwrap();
        assert!(!explicit.applied.jobs_from_profile);
        assert_eq!(explicit.cell.placement, from_profile.cell.placement);
    }

    #[test]
    fn tuned_solve_stages_are_stamped() {
        let plan = TuningPlan {
            portfolio: Some(vec!["evsids".into()]),
            ..TuningPlan::default()
        }
        .with_source("tiny-sparse-shallow-flat");
        let result = SynthRequest::new(library::nand2())
            .profile(plan)
            .build()
            .unwrap();
        let solve = result
            .cell
            .trace
            .stages
            .iter()
            .find(|s| s.stage == Stage::Solve)
            .unwrap();
        let stamp = solve.tuning.as_deref().unwrap();
        assert!(stamp.contains("key=tiny-sparse-shallow-flat"), "{stamp}");
        assert!(stamp.contains("portfolio=evsids"), "{stamp}");
    }
}
