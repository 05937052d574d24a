//! The synthesis request: the one way into the generator.
//!
//! [`SynthRequest`] carries a circuit, its [`GenOptions`] (rows, the
//! [`ObjectiveSpec`], stacking, time limit, jobs), an optional external
//! [`Budget`], and the mode, with one terminal [`SynthRequest::build`].
//! Every mode — fixed rows, best-area sweep, hierarchical, Pareto
//! frontier — flows through the same budget derivation and trace
//! collection, and every caller (the CLI, `clip serve`, the corpus
//! driver, the benchmark, the examples) enters here.
//!
//! # Example
//!
//! ```
//! use clip_core::request::SynthRequest;
//! use clip_netlist::library;
//!
//! let result = SynthRequest::new(library::mux21()).rows(3).build()?;
//! assert_eq!(result.cell.width, 3); // paper Table 3: the mux in 3 rows
//! # Ok::<(), clip_core::generator::GenError>(())
//! ```

use std::num::NonZeroUsize;
use std::time::Duration;

use clip_netlist::Circuit;
use clip_pb::SolveStats;

use crate::cluster;
use crate::generator::{CellGenerator, GenError, GenOptions, GeneratedCell};
use crate::hier::HierCell;
use crate::objective::ObjectiveSpec;
use crate::pipeline::{Budget, Pipeline, Stage};
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

/// A builder-style synthesis request: circuit, options, budget, and mode
/// in one place.
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
        }
    }

    /// A fixed-row request carrying a fully-built [`GenOptions`]. This is
    /// how a caller sets an *advisory* job count
    /// ([`GenOptions::with_jobs`]), which a best-area sweep over a small
    /// model may decline; [`SynthRequest::jobs`] sets an explicit one.
    pub fn with_options(circuit: Circuit, options: GenOptions) -> Self {
        SynthRequest {
            circuit,
            options,
            budget: None,
            mode: Mode::Fixed,
            pareto_specs: Vec::new(),
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
    /// nets in one typed value.
    pub fn objective(mut self, spec: ObjectiveSpec) -> Self {
        self.options.objective = spec;
        self
    }

    /// Sets the total wall-clock limit the derived budget enforces.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.options.time_limit = Some(limit);
        self
    }

    /// Sets the worker-thread count explicitly. An explicit count
    /// bypasses the small-sweep fan-out gate (see
    /// [`GenOptions::jobs_explicit`]).
    pub fn jobs(mut self, jobs: NonZeroUsize) -> Self {
        self.options.jobs = jobs;
        self.options.jobs_explicit = true;
        self
    }

    /// Supplies an external [`Budget`] (shared deadline across several
    /// requests, node pools) instead of deriving one from the time limit.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Runs the request.
    ///
    /// The one place every synthesis mode funnels through: the budget is
    /// derived (or the supplied one used), and the mode dispatches into
    /// the staged pipeline.
    ///
    /// # Errors
    ///
    /// See [`GenError`].
    pub fn build(mut self) -> Result<SynthResult, GenError> {
        let budget = self
            .budget
            .take()
            .unwrap_or_else(|| Budget::from_limit(self.options.time_limit));
        let generator = CellGenerator::new(self.options.clone());
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
                })
            }
            Mode::BestArea { max_rows } => {
                let cell =
                    generator.generate_best_area_with_budget(self.circuit, max_rows, &budget)?;
                Ok(SynthResult {
                    cell,
                    hier: None,
                    pareto: None,
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
                let (rows, jobs) = (self.options.rows, self.options.jobs);
                let hier = pipeline.stage(Stage::Hier, |budget, rec| {
                    let result = crate::hier::generate_units_with_budget(units, rows, jobs, budget);
                    if let Ok(h) = &result {
                        rec.rows = Some(h.rows);
                        rec.threads = Some(jobs.get().min(h.partition.len().max(1)));
                        rec.solve = Some(SolveStats {
                            duration: h.solve_time,
                            ..SolveStats::default()
                        });
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
                })
            }
        }
    }
}

/// What a [`SynthRequest`] produced: the generated cell, and the
/// hierarchical composition or the objective frontier for the modes
/// that make one.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_netlist::library;

    #[test]
    fn fixed_request_solves_the_mux_in_three_rows() {
        let result = SynthRequest::new(library::mux21()).rows(3).build().unwrap();
        assert_eq!(result.cell.width, 3);
        assert!(result.hier.is_none());
    }

    #[test]
    fn best_area_request_ends_with_a_sweep_record() {
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
    }
}
