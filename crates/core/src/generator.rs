//! Cell generation: the staged per-cell flow behind
//! [`SynthRequest`](crate::request::SynthRequest).
//!
//! A request enters here through the crate-private `CellGenerator`, which
//! drives the staged pipeline (see [`crate::pipeline`]): pair the circuit,
//! optionally cluster and-stacks (HCLIP), build the CLIP-W or CLIP-WH
//! model, seed the solver with a greedy warm start, solve with the
//! structure-aware brancher, verify the result combinatorially, and
//! report the realized geometry. Every stage runs under one shared
//! [`Budget`] and leaves a [`StageRecord`] in the [`PipelineTrace`]
//! carried on the finished [`GeneratedCell`]. The best-area row sweep
//! lives here too, as do the public [`GenOptions`] a request carries and
//! the greedy warm start ([`greedy_placement`], [`evaluate_order`]).

use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use clip_netlist::{Circuit, PairCircuitError};
use clip_pb::{
    solve_portfolio_with, BranchHeuristic, PruneBoard, SharedIncumbent, SolveStats, Solver,
    SolverConfig,
};
use clip_route::density::CellRouting;

use crate::bounds;
use crate::cliph::{ClipWH, ClipWHError, ClipWHOptions};
use crate::clipw::{ClipW, ClipWError, ClipWOptions};
use crate::cluster;
use crate::objective::ObjectiveSpec;
use crate::orient::Orient;
use crate::pipeline::{Budget, Pipeline, PipelineTrace, Stage, StageRecord};
use crate::share::{bit, ShareArray};
use crate::solution::Placement;
use crate::unit::UnitSet;
use crate::verify;

/// What the generator optimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// CLIP-W: minimize cell width only.
    Width,
    /// CLIP-WH: minimize width, then routing tracks. Falls back to CLIP-W
    /// plus geometric height measurement when HCLIP stacking is enabled
    /// (the WH column model needs flat pairs).
    WidthThenHeight,
}

/// Generator options.
#[derive(Clone, Debug)]
pub struct GenOptions {
    /// Number of P/N rows.
    pub rows: usize,
    /// The consolidated optimization objective: kind, CLIP-WH ordering,
    /// the geometric height parameters, inter-row weight, and critical
    /// nets all live on one typed [`ObjectiveSpec`].
    pub objective: ObjectiveSpec,
    /// Enable HCLIP and-stack clustering.
    pub stacking: bool,
    /// Total wall-clock budget for the request, shared by every pipeline
    /// stage — and, in a best-area sweep
    /// ([`SynthRequest::best_area`](crate::request::SynthRequest::best_area)),
    /// across *all* row counts. On expiry the best incumbent is returned
    /// with `optimal = false`.
    pub time_limit: Option<Duration>,
    /// Worker threads for parallel search. A fixed-row solve races a
    /// CBJ/CDCL portfolio of this width over the model; a best-area sweep
    /// fans its row counts out over this many threads instead (each row
    /// solve then runs one strategy, keeping the sweep result independent
    /// of thread scheduling); a hierarchical request fans its sub-cell
    /// solves out. Defaults to [`std::thread::available_parallelism`].
    ///
    /// A best-area sweep over a *small* model skips the fan-out entirely
    /// (thread setup costs more than sub-millisecond row solves return)
    /// unless [`GenOptions::jobs_explicit`] is set.
    pub jobs: NonZeroUsize,
    /// True when the job count was chosen explicitly (CLI `--jobs`,
    /// [`SynthRequest::jobs`](crate::request::SynthRequest::jobs),
    /// [`GenOptions::with_explicit_jobs`]) rather than defaulted: an
    /// explicit count is honored verbatim, bypassing the small-sweep
    /// fan-out gate. Results are identical either way.
    pub jobs_explicit: bool,
}

/// The default worker count: one per available core.
pub(crate) fn default_jobs() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

impl GenOptions {
    /// Width-minimizing options for a given row count.
    pub fn rows(rows: usize) -> Self {
        GenOptions {
            rows,
            objective: ObjectiveSpec::width(),
            stacking: false,
            time_limit: None,
            jobs: default_jobs(),
            jobs_explicit: false,
        }
    }

    /// Installs a fully-built [`ObjectiveSpec`]: objective kind and
    /// ordering, height-model geometry, inter-row weight, and critical
    /// nets in one typed value.
    pub fn with_objective(mut self, spec: ObjectiveSpec) -> Self {
        self.objective = spec;
        self
    }

    /// Sets the worker-thread count (`1` disables parallel search). The
    /// count stays *advisory*: a best-area sweep over a small model still
    /// skips the fan-out. Use [`GenOptions::with_explicit_jobs`] to force
    /// the count.
    pub fn with_jobs(mut self, jobs: NonZeroUsize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the worker-thread count *explicitly* (the CLI `--jobs` path):
    /// the count is honored verbatim, bypassing the small-sweep fan-out
    /// gate.
    pub fn with_explicit_jobs(mut self, jobs: NonZeroUsize) -> Self {
        self.jobs = jobs;
        self.jobs_explicit = true;
        self
    }

    /// Enables HCLIP stacking.
    pub fn with_stacking(mut self) -> Self {
        self.stacking = true;
        self
    }

    /// Sets a solve time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }
}

/// A generated cell: placement, realized geometry, and solve metadata.
#[derive(Clone, Debug)]
pub struct GeneratedCell {
    /// The optimized placement.
    pub placement: Placement,
    /// The unit set the placement refers to.
    pub units: UnitSet,
    /// Cell width in transistor pitches (max row width).
    pub width: usize,
    /// Geometric track counts: one per intra-row channel, then one per
    /// inter-row channel.
    pub tracks: Vec<usize>,
    /// Geometric cell height (tracks + configured overheads).
    pub height: usize,
    /// Number of nets crossing between rows.
    pub inter_row_nets: usize,
    /// True when the solver proved optimality (under the model in use).
    pub optimal: bool,
    /// True when height was part of the ILP objective (CLIP-WH); false
    /// when it was only measured geometrically.
    pub height_optimized: bool,
    /// Solver statistics.
    pub stats: SolveStats,
    /// ILP size: number of 0-1 variables.
    pub model_vars: usize,
    /// ILP size: number of constraints.
    pub model_constraints: usize,
    /// Per-stage pipeline records (wall time, model sizes, solve stats).
    pub trace: PipelineTrace,
}

/// Errors from [`SynthRequest::build`](crate::request::SynthRequest::build).
#[derive(Debug)]
pub enum GenError {
    /// The circuit could not be paired.
    Pair(PairCircuitError),
    /// The model could not be built.
    Model(ClipWError),
    /// The solver hit its limit without any feasible solution.
    NoSolution,
    /// The model proved infeasible (indicates a modeling bug).
    Infeasible,
    /// The solution failed independent verification.
    Verify(verify::VerifyError),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Pair(e) => write!(f, "pairing failed: {e}"),
            GenError::Model(e) => write!(f, "model construction failed: {e}"),
            GenError::NoSolution => write!(f, "no solution within the limit"),
            GenError::Infeasible => write!(f, "model infeasible"),
            GenError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl Error for GenError {}

impl From<PairCircuitError> for GenError {
    fn from(e: PairCircuitError) -> Self {
        GenError::Pair(e)
    }
}

/// The CLIP cell generator: one request's options, run through the
/// staged pipeline by [`SynthRequest::build`](crate::request::SynthRequest::build).
#[derive(Clone, Debug)]
pub(crate) struct CellGenerator {
    options: GenOptions,
}

impl CellGenerator {
    /// Creates a generator.
    pub(crate) fn new(options: GenOptions) -> Self {
        CellGenerator { options }
    }

    /// Pair + cluster stages, then the unit-set pipeline.
    pub(crate) fn generate_staged(
        &self,
        circuit: Circuit,
        pipeline: &mut Pipeline,
        warm_hint: Option<&Placement>,
        cancel: Option<&SharedIncumbent>,
    ) -> Result<GeneratedCell, GenError> {
        let paired = pipeline.stage(Stage::Pair, |_, _| circuit.into_paired())?;
        let units = if self.options.stacking {
            pipeline.stage(Stage::Cluster, |_, _| cluster::cluster_and_stacks(paired))
        } else {
            UnitSet::flat(paired)
        };
        self.generate_units_staged(units, pipeline, warm_hint, cancel)
    }

    /// The core staged flow: seed → (HCLIP seed) → model build → solve →
    /// route/verify, every stage drawing on the pipeline's shared budget
    /// and appending its [`StageRecord`].
    fn generate_units_staged(
        &self,
        units: UnitSet,
        pipeline: &mut Pipeline,
        warm_hint: Option<&Placement>,
        cancel: Option<&SharedIncumbent>,
    ) -> Result<GeneratedCell, GenError> {
        let share = ShareArray::new(&units);
        let rows = self.options.rows;
        let spec = &self.options.objective;
        let use_wh = spec.kind == Objective::WidthThenHeight && units.is_flat();

        // A warm hint from a neighbouring row count (best-area sweep):
        // replay its unit order, re-split for this row count.
        let replayed = warm_hint.and_then(|hint| replay_order(&units, &share, hint, rows));

        if use_wh {
            let table = units.paired().circuit().nets();
            let critical: Vec<clip_netlist::NetId> = spec
                .critical_nets
                .iter()
                .filter_map(|name| table.lookup(name))
                .collect();
            let mut wh_opts = ClipWHOptions::new(rows).with_critical_nets(critical);
            wh_opts.objective = spec.ordering;
            wh_opts.critical_weight = spec.critical_weight;
            let seed = pipeline.stage(Stage::GreedySeed, |_, _| {
                [replayed, greedy_placement(&units, &share, rows)]
                    .into_iter()
                    .flatten()
                    .min_by_key(|p| p.cell_width(&units))
            });
            let wh = pipeline.stage(Stage::ModelBuild, |_, rec| {
                let wh = ClipWH::build(&units, &share, &wh_opts).map_err(|e| match e {
                    ClipWHError::Width(w) => GenError::Model(w),
                    ClipWHError::NotFlat => unreachable!("flatness checked above"),
                })?;
                rec.model_vars = Some(wh.model().num_vars());
                rec.model_constraints = Some(wh.model().num_constraints());
                rec.classes = Some(wh.model().class_histogram());
                Ok::<_, GenError>(wh)
            })?;
            let warm = seed.and_then(|p| wh.clipw().warm_assignment(&units, &p));
            let out = pipeline.stage(Stage::Solve, |budget, rec| {
                let base = SolverConfig {
                    brancher: Some(wh.brancher()),
                    heuristic: BranchHeuristic::InputOrder,
                    warm_start: warm,
                    ..Default::default()
                };
                self.solve_stage(wh.model(), base, budget, cancel, rec)
            });
            let optimal = out.is_optimal();
            let stats = out.stats().clone();
            let sol = match out.best() {
                Some(s) => s.clone(),
                None if optimal => return Err(GenError::Infeasible),
                None => return Err(GenError::NoSolution),
            };
            let placement = wh.extract(&sol);
            let width = wh.width_of(&sol);
            let sizes = (wh.model().num_vars(), wh.model().num_constraints());
            pipeline.stage(Stage::Route, |_, _| {
                self.finish(units, placement, width, optimal, true, stats, sizes)
            })
        } else {
            let mut wopts = ClipWOptions::new(rows);
            wopts.interrow_weight = self.options.objective.interrow_weight;
            let greedy_seed = pipeline.stage(Stage::GreedySeed, |_, _| {
                greedy_placement(&units, &share, rows)
            });
            // For larger flat problems, a quick HCLIP pass often yields a
            // stronger incumbent than the greedy heuristics: solve the
            // clustered model briefly (on a slice of the shared budget)
            // and expand its placement. Skipped once the budget is gone.
            let hclip_seed = (units.is_flat() && units.len() > 8 && !pipeline.budget().expired())
                .then(|| {
                    pipeline.stage(Stage::HclipSeed, |budget, rec| {
                        self.hclip_seed(&units, budget, rec)
                    })
                })
                .flatten();
            let clipw = pipeline.stage(Stage::ModelBuild, |_, rec| {
                let m = ClipW::build(&units, &share, &wopts).map_err(GenError::Model)?;
                rec.model_vars = Some(m.model().num_vars());
                rec.model_constraints = Some(m.model().num_constraints());
                rec.classes = Some(m.model().class_histogram());
                Ok::<_, GenError>(m)
            })?;
            let warm = [replayed, hclip_seed, greedy_seed]
                .into_iter()
                .flatten()
                .min_by_key(|p| p.cell_width(&units))
                .and_then(|p| clipw.warm_assignment(&units, &p));
            let out = pipeline.stage(Stage::Solve, |budget, rec| {
                let base = SolverConfig {
                    brancher: Some(clipw.brancher()),
                    warm_start: warm,
                    ..Default::default()
                };
                self.solve_stage(clipw.model(), base, budget, cancel, rec)
            });
            let optimal = out.is_optimal();
            let stats = out.stats().clone();
            let sol = match out.best() {
                Some(s) => s.clone(),
                None if optimal => return Err(GenError::Infeasible),
                None => return Err(GenError::NoSolution),
            };
            let placement = clipw.extract(&sol);
            let width = clipw.width_of(&sol);
            let sizes = (clipw.model().num_vars(), clipw.model().num_constraints());
            pipeline.stage(Stage::Route, |_, _| {
                self.finish(units, placement, width, optimal, false, stats, sizes)
            })
        }
    }

    /// Generates layouts for every row count in `1..=max_rows` and returns
    /// the one with the smallest area (width × height), with ties broken
    /// toward fewer rows. Row counts exceeding the unit count are skipped.
    ///
    /// The whole sweep shares **one** budget, the request's (derived from
    /// [`GenOptions::time_limit`] unless the caller supplied one) — a
    /// 4-row sweep with a 30 s limit takes ~30 s total, not 30 s per row
    /// count. With [`GenOptions::jobs`]
    /// `> 1` the row counts fan out across that many scoped threads; a
    /// finished row publishes its area, and any sibling whose area *lower
    /// bound* (packing bound × row overheads) strictly exceeds the best
    /// published area is skipped before it starts or cancelled mid-solve.
    ///
    /// The result is **deterministic** — identical placement and area for
    /// any job count. Every row count gets the same warm hint (the greedy
    /// single-row chain, replayed and re-split for that count), each row
    /// solve runs a single strategy with a private mailbox (so no
    /// external bound can steer its witness), the strict (`>`) prune
    /// criterion only ever removes rows that provably lose, and the
    /// winner is picked in ascending row order after all rows finish.
    ///
    /// The winning cell's [`GeneratedCell::trace`] covers the *entire*
    /// sweep in row order, each record stamped with the row count it
    /// targeted, capped by a [`Stage::Sweep`] summary carrying the thread
    /// fan-out and the shared-bound prune count.
    ///
    /// This automates the paper's central trade-off study: the 2-D style's
    /// area optimum typically sits at an intermediate row count.
    ///
    /// # Errors
    ///
    /// Returns the first informative error if no row count produces a cell.
    pub(crate) fn generate_best_area_with_budget(
        &self,
        circuit: Circuit,
        max_rows: usize,
        budget: &Budget,
    ) -> Result<GeneratedCell, GenError> {
        let sweep_start = Instant::now();
        let max_rows = max_rows.max(1);

        // The deterministic cross-row warm hint: the greedy single-row
        // chain over the (clustered) unit set, computed once. Each row
        // count replays its unit order re-split to that count. The old
        // sequential sweep seeded row r+1 from row r's *solved*
        // placement, which would make results depend on completion order
        // once rows run concurrently; a fixed hint keeps every row solve
        // independent of its siblings.
        let prep = self.sweep_prep(&circuit)?;

        // The scalar instantiation of the generic prune board: a row's
        // floor is its area lower bound, dominated once it strictly
        // exceeds any published area. The *strict* comparison keeps ties
        // alive, so the fewest-rows tie-break over completed rows is
        // unaffected and the final selection matches a sequential sweep
        // exactly.
        let shared: PruneBoard<u64> = PruneBoard::new(|best, lb| lb > best);
        // Fanning a tiny sweep across threads costs more than it saves:
        // spawn and coordination overhead dominates sub-millisecond row
        // solves (the nand4 `jobs_sweep` regression, where jobs=4 ran
        // slower than jobs=1). Estimate the sweep's work as units² × rows
        // and keep small sweeps sequential — unless the caller chose the
        // job count explicitly, which is honored verbatim. Results are
        // identical either way; only the thread count changes.
        const FANOUT_WORK_FLOOR: usize = 256;
        let work = prep.units.len() * prep.units.len() * max_rows;
        let workers = if self.options.jobs_explicit || work >= FANOUT_WORK_FLOOR {
            self.options.jobs.get().min(max_rows)
        } else {
            1
        };
        let run_row = |rows: usize| -> RowOutcome {
            // An infeasible row count (no lower bound) is skipped without
            // counting a prune, exactly as before the board existed.
            let lb = match self.area_lower_bound(&prep.units, &prep.share, rows) {
                Some(lb) => lb,
                None => return RowOutcome::Skipped,
            };
            let cancel = match shared.register(rows, lb) {
                Some(cancel) => cancel,
                None => return RowOutcome::Skipped,
            };
            let mut options = self.options.clone();
            options.rows = rows;
            // The sweep spends its parallelism on rows; the row solve
            // itself stays a single deterministic strategy.
            options.jobs = NonZeroUsize::MIN;
            let mut pipeline = Pipeline::new(budget.clone());
            pipeline.set_rows(Some(rows));
            let result = CellGenerator::new(options).generate_staged(
                circuit.clone(),
                &mut pipeline,
                prep.hint.as_ref(),
                Some(&cancel),
            );
            shared.unregister(rows);
            if let Ok(cell) = &result {
                shared.publish((cell.width * cell.height) as u64);
            }
            RowOutcome::Done(Box::new(result), pipeline.into_trace())
        };

        let slots = crate::parallel::fan_out(max_rows, workers, |i| run_row(i + 1));

        // Deterministic selection: scan in ascending row order, strict
        // improvement only, so ties keep the fewest-rows winner exactly
        // as the sequential sweep always has.
        let mut best: Option<GeneratedCell> = None;
        let mut first_err: Option<GenError> = None;
        let mut trace = PipelineTrace::default();
        for slot in slots {
            match slot {
                None | Some(RowOutcome::Skipped) => {}
                Some(RowOutcome::Done(result, row_trace)) => {
                    trace.stages.extend(row_trace.stages);
                    match *result {
                        Ok(cell) => {
                            let area = cell.width * cell.height;
                            if best.as_ref().is_none_or(|b| area < b.width * b.height) {
                                best = Some(cell);
                            }
                        }
                        Err(e) => note(&mut first_err, e),
                    }
                }
            }
        }
        let mut sweep_rec = StageRecord::new(Stage::Sweep, None);
        sweep_rec.wall = sweep_start.elapsed();
        sweep_rec.threads = Some(workers);
        sweep_rec.shared_prunes = Some(shared.prunes());
        trace.stages.push(sweep_rec);
        match best {
            Some(mut cell) => {
                cell.trace = trace;
                Ok(cell)
            }
            None => Err(first_err.unwrap_or(GenError::NoSolution)),
        }
    }

    /// One-time sweep preparation: pair (and optionally cluster) the
    /// circuit and compute the greedy single-row chain used as every row
    /// count's warm hint.
    pub(crate) fn sweep_prep(&self, circuit: &Circuit) -> Result<SweepPrep, GenError> {
        let paired = circuit.clone().into_paired()?;
        let units = if self.options.stacking {
            cluster::cluster_and_stacks(paired)
        } else {
            UnitSet::flat(paired)
        };
        let share = ShareArray::new(&units);
        let hint = greedy_placement(&units, &share, 1);
        Ok(SweepPrep { units, share, hint })
    }

    /// A lower bound on the area any placement at `rows` can reach: the
    /// packing/matching width bound times the routing-free height floor
    /// (row and rail overheads; tracks only add to it). `None` when the
    /// row count is infeasible or unbounded below.
    fn area_lower_bound(&self, units: &UnitSet, share: &ShareArray, rows: usize) -> Option<u64> {
        let width = bounds::width_lower_bound(units, share, rows)? as u64;
        let height = self.options.objective.height_units(0, rows) as u64;
        Some(width * height)
    }

    /// Runs one Solve stage through the strategy portfolio sized by
    /// [`GenOptions::jobs`] and annotates `rec` with the combined stats,
    /// the winning strategy, and the per-thread breakdown. A `cancel`
    /// mailbox supplied by the best-area sweep is attached so the sweep
    /// can stop a row that can no longer win; otherwise the portfolio
    /// coordinates through a fresh mailbox of its own.
    ///
    /// The portfolio races [`clip_pb::portfolio::STRATEGIES`] in order,
    /// capped at the job count, so a one-thread solve runs `cbj` alone.
    fn solve_stage(
        &self,
        model: &clip_pb::Model,
        base: SolverConfig,
        budget: &Budget,
        cancel: Option<&SharedIncumbent>,
        rec: &mut StageRecord,
    ) -> clip_pb::Outcome {
        let configs = clip_pb::portfolio::named_configs(&base, self.options.jobs.get());
        let incumbent = cancel.cloned().unwrap_or_default();
        let p = solve_portfolio_with(model, configs, budget, incumbent);
        rec.model_vars = Some(model.num_vars());
        rec.model_constraints = Some(model.num_constraints());
        rec.classes = Some(model.class_histogram());
        rec.solve = Some(p.outcome.stats().clone());
        rec.threads = Some(p.threads);
        rec.winner_strategy = Some(p.winner.clone());
        rec.shared_prunes = Some(p.outcome.stats().shared_prunes);
        if p.threads > 1 {
            rec.thread_solves = p.runs.into_iter().map(|(_, s)| s).collect();
        }
        p.outcome
    }

    /// Solves the HCLIP-clustered problem briefly and expands the result
    /// into a flat placement, as a warm-start seed for the exact model.
    /// The solve gets a *slice* of the shared budget (a quarter of what
    /// remains, a few seconds at most) and reports its model size and
    /// stats into the [`Stage::HclipSeed`] record.
    fn hclip_seed(
        &self,
        flat: &UnitSet,
        budget: &Budget,
        rec: &mut StageRecord,
    ) -> Option<Placement> {
        let stacked = cluster::cluster_and_stacks(flat.paired().clone());
        if stacked.len() == flat.len() {
            return None; // no stacks found: nothing to gain
        }
        let sshare = ShareArray::new(&stacked);
        let model = ClipW::build(&stacked, &sshare, &ClipWOptions::new(self.options.rows)).ok()?;
        rec.model_vars = Some(model.model().num_vars());
        rec.model_constraints = Some(model.model().num_constraints());
        rec.classes = Some(model.model().class_histogram());
        let warm = greedy_placement(&stacked, &sshare, self.options.rows)
            .and_then(|p| model.warm_assignment(&stacked, &p));
        let out = Solver::with_config(
            model.model(),
            SolverConfig {
                brancher: Some(model.brancher()),
                warm_start: warm,
                budget: budget.slice(4, Duration::from_secs(5)),
                ..Default::default()
            },
        )
        .run();
        rec.solve = Some(out.stats().clone());
        let sol = out.best()?;
        let placement = model.extract(sol);
        cluster::expand_placement(&stacked, &placement, flat)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        &self,
        units: UnitSet,
        placement: Placement,
        width: usize,
        optimal: bool,
        height_optimized: bool,
        stats: SolveStats,
        (model_vars, model_constraints): (usize, usize),
    ) -> Result<GeneratedCell, GenError> {
        verify::check_placement(&units, &placement)
            .map_err(|e| GenError::Verify(verify::VerifyError::Placement(e)))?;
        // At a proved optimum the model's width must equal the geometry;
        // a time-limited incumbent may carry slack width bits, in which
        // case the geometric width (never larger) is the honest report.
        let geometric = placement.cell_width(&units);
        if optimal {
            verify::check_width(&units, &placement, width).map_err(GenError::Verify)?;
        }
        let width = geometric;
        let routing: CellRouting = placement.routing(&units);
        let rows = placement.rows.len();
        let mut tracks: Vec<usize> = (0..rows).map(|r| routing.intra_tracks(r)).collect();
        tracks.extend((0..rows.saturating_sub(1)).map(|c| routing.inter_tracks(c)));
        let height = self
            .options
            .objective
            .height_units(tracks.iter().sum(), rows);
        Ok(GeneratedCell {
            width,
            tracks,
            height,
            inter_row_nets: routing.inter_row_nets().len(),
            optimal,
            height_optimized,
            stats,
            model_vars,
            model_constraints,
            trace: PipelineTrace::default(),
            placement,
            units,
        })
    }
}

/// One-time preparation shared by every row count of a best-area sweep
/// (and by every point of a Pareto frontier race).
pub(crate) struct SweepPrep {
    pub(crate) units: UnitSet,
    pub(crate) share: ShareArray,
    /// Greedy single-row chain placement, replayed per row count.
    pub(crate) hint: Option<Placement>,
}

/// What one row count of a best-area sweep produced. Boxed because a
/// [`GeneratedCell`] is large and most slots of a wide sweep hold one.
enum RowOutcome {
    /// The row count was skipped: infeasible, or its area lower bound
    /// already exceeded a published result.
    Skipped,
    /// The row ran; its pipeline trace rides along for the merged report.
    Done(Box<Result<GeneratedCell, GenError>>, PipelineTrace),
}

/// Records a sweep error, keeping the first *informative* one: the slot
/// only moves off an uninformative bare `NoSolution`, never off a real
/// diagnosis — so neither a later `NoSolution` nor the `TooManyRows`
/// break that ends a sweep can mask the error worth reporting.
pub(crate) fn note(slot: &mut Option<GenError>, e: GenError) {
    match slot {
        None => *slot = Some(e),
        Some(GenError::NoSolution) if !matches!(e, GenError::NoSolution) => *slot = Some(e),
        _ => {}
    }
}

/// Replays a placement from a *different* row count as a seed for `rows`:
/// flattens the hint's unit order and re-splits it via the order DP. The
/// hint must cover exactly this unit set (same length, each id once);
/// anything else — e.g. a stacked placement replayed onto flat units —
/// is rejected rather than trusted.
fn replay_order(
    units: &UnitSet,
    share: &ShareArray,
    hint: &Placement,
    rows: usize,
) -> Option<Placement> {
    let n = units.len();
    if rows == 0 || rows > n {
        return None;
    }
    let order: Vec<usize> = hint.rows.iter().flatten().map(|pu| pu.unit).collect();
    if order.len() != n {
        return None;
    }
    let mut seen = vec![false; n];
    for &u in &order {
        if u >= n || seen[u] {
            return None;
        }
        seen[u] = true;
    }
    let (_, placement) = evaluate_order(units, share, &order, rows);
    Some(placement)
}

/// Greedy warm-start placement: multi-start nearest-neighbour chain growth
/// over the share graph, an orientation DP maximizing merges along the
/// chosen order, an exact min-max split into `rows` contiguous segments,
/// and pairwise-swap hill climbing.
///
/// Returns `None` when `rows` is zero or exceeds the unit count. The
/// result seeds the ILP's incumbent — a near-optimal seed is what makes
/// optimality proofs fast, because the objective bound then forces almost
/// every `gap` variable to 0.
pub fn greedy_placement(units: &UnitSet, share: &ShareArray, rows: usize) -> Option<Placement> {
    greedy_placement_with(units, share, rows, true)
}

/// [`greedy_placement`] with the exhaustive small-problem sweep optional.
///
/// The ILP's warm start wants the strongest seed it can get
/// (`exhaustive_small = true`); the *baseline comparator* in
/// `clip-baselines` deliberately passes `false` so it stays an honest
/// heuristic of the class the paper compares against.
///
/// The search stops as soon as its incumbent reaches
/// [`bounds::width_lower_bound`]: every order's width is the width of a
/// legal placement, so none is below the bound, and an incumbent is only
/// ever replaced by a strictly narrower one — the rest of the search could
/// not change the result.
pub fn greedy_placement_with(
    units: &UnitSet,
    share: &ShareArray,
    rows: usize,
    exhaustive_small: bool,
) -> Option<Placement> {
    let n = units.len();
    if rows == 0 || rows > n {
        return None;
    }
    let mut search = GreedySearch {
        scorer: OrderScorer::new(units, share, rows, n),
        best: None,
        floor: bounds::width_lower_bound(units, share, rows)?,
    };

    // Multi-start nearest-neighbour orders.
    for start in 0..n {
        search.consider(&nearest_neighbour_order(units, share, start));
        if search.at_floor() {
            return search.into_placement();
        }
    }

    // Small problems: evaluate every order (the per-order orientation DP
    // keeps this cheap). Near-exact seeds make the ILP's job pure proof.
    if exhaustive_small && n <= 8 {
        let mut order: Vec<usize> = (0..n).collect();
        let swept = permute_orders(&mut order, 0, &mut |p| {
            search.consider(p);
            if search.at_floor() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        if swept.is_break() {
            return search.into_placement();
        }
    }

    // Pairwise-swap hill climbing on the best order found.
    let mut order: Vec<usize> = {
        let (_, p) = search.best.as_ref()?;
        p.rows.iter().flatten().map(|pu| pu.unit).collect()
    };
    let mut improved = true;
    let mut passes = 0;
    while improved && passes < 4 {
        improved = false;
        passes += 1;
        for i in 0..n {
            for j in i + 1..n {
                order.swap(i, j);
                if !search.consider(&order) {
                    order.swap(i, j); // no improvement: undo
                } else if search.at_floor() {
                    return search.into_placement();
                } else {
                    improved = true;
                }
            }
        }
    }
    search.into_placement()
}

/// Visits every permutation of `order[k..]` in a fixed order until `f`
/// breaks.
fn permute_orders(
    order: &mut Vec<usize>,
    k: usize,
    f: &mut impl FnMut(&[usize]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if k == order.len() {
        return f(order);
    }
    for i in k..order.len() {
        order.swap(k, i);
        let flow = permute_orders(order, k + 1, f);
        order.swap(k, i);
        flow?;
    }
    ControlFlow::Continue(())
}

/// Grows an order from `start`, always appending a unit that can abut the
/// current right end when one exists.
fn nearest_neighbour_order(units: &UnitSet, share: &ShareArray, start: usize) -> Vec<usize> {
    let n = units.len();
    let mut remaining: Vec<usize> = (0..n).filter(|&u| u != start).collect();
    let mut order = vec![start];
    while !remaining.is_empty() {
        let last = *order.last().expect("order non-empty");
        let pick = remaining
            .iter()
            .position(|&cand| share.mergeable(last, cand));
        let k = pick.unwrap_or(0);
        order.push(remaining.remove(k));
    }
    order
}

/// The greedy search's incumbent, the scorer that rates candidate orders,
/// and the width no order can beat.
struct GreedySearch<'a> {
    scorer: OrderScorer<'a>,
    best: Option<(usize, Placement)>,
    floor: usize,
}

impl GreedySearch<'_> {
    /// Scores `order` and, on a strict improvement only, builds its
    /// placement as the new incumbent. Returns whether it improved.
    fn consider(&mut self, order: &[usize]) -> bool {
        let width = self.scorer.score(order);
        if self.best.as_ref().is_some_and(|&(w, _)| width >= w) {
            return false;
        }
        self.best = Some(self.scorer.build(order));
        true
    }

    /// True once the incumbent sits on the width lower bound.
    fn at_floor(&self) -> bool {
        self.best.as_ref().is_some_and(|&(w, _)| w == self.floor)
    }

    fn into_placement(self) -> Option<Placement> {
        self.best.map(|(_, p)| p)
    }
}

/// The per-order DPs of [`evaluate_order`] over scratch buffers sized once
/// for orders of one length: [`OrderScorer::score`] allocates nothing, and
/// [`OrderScorer::build`] turns the order scored last into its placement.
struct OrderScorer<'a> {
    units: &'a UnitSet,
    share: &'a ShareArray,
    rows: usize,
    /// Order length.
    n: usize,
    /// Each unit's allowed orientations, by unit id.
    orients: Vec<Vec<Orient>>,
    /// Orientation DP, four slots per position: `(merges, back-pointer)`.
    dp: Vec<(usize, usize)>,
    /// The chosen orientation of each position.
    chosen: Vec<Orient>,
    /// `widths[k]`: total unit width of positions `0..k`.
    widths: Vec<usize>,
    /// `gaps[k]`: unmerged boundaries among the first `k` boundaries.
    gaps: Vec<usize>,
    /// Split DP, `rows + 1` slots per prefix length: the least max row
    /// width of the prefix in that many rows, and its last cut.
    f: Vec<usize>,
    cut_back: Vec<usize>,
}

impl<'a> OrderScorer<'a> {
    fn new(units: &'a UnitSet, share: &'a ShareArray, rows: usize, n: usize) -> Self {
        OrderScorer {
            units,
            share,
            rows,
            n,
            orients: units.units().iter().map(|u| u.orients()).collect(),
            dp: vec![(0, 0); 4 * n],
            chosen: vec![Orient::O1; n],
            widths: vec![0; n + 1],
            gaps: vec![0; n],
            f: vec![0; (n + 1) * (rows + 1)],
            cut_back: vec![0; (n + 1) * (rows + 1)],
        }
    }

    /// For a fixed unit order: chooses orientations maximizing the number
    /// of merged boundaries (DP over the previous unit's orientation),
    /// then splits into `rows` contiguous non-empty segments minimizing
    /// the maximum segment width (DP). Returns that width.
    fn score(&mut self, order: &[usize]) -> usize {
        let n = self.n;
        assert_eq!(order.len(), n, "order length differs from the scorer's");

        // Orientation DP: state = orientation index of unit k. Ties keep
        // the last previous orientation reaching the maximum.
        self.dp[..self.orients[order[0]].len()].fill((0, 0));
        for k in 1..n {
            let mask = self.share.mask(order[k - 1], order[k]);
            let prev = &self.orients[order[k - 1]];
            for (ji, &oj) in self.orients[order[k]].iter().enumerate() {
                let mut cell = (0usize, 0usize);
                for (pi, &oi) in prev.iter().enumerate() {
                    let merges = self.dp[4 * (k - 1) + pi].0 + usize::from(mask & bit(oi, oj) != 0);
                    if merges >= cell.0 {
                        cell = (merges, pi);
                    }
                }
                self.dp[4 * k + ji] = cell;
            }
        }
        // Trace back from the last orientation reaching the maximum.
        let last = self.orients[order[n - 1]].len();
        let mut oi = 0;
        for i in 1..last {
            if self.dp[4 * (n - 1) + i].0 >= self.dp[4 * (n - 1) + oi].0 {
                oi = i;
            }
        }
        for k in (0..n).rev() {
            self.chosen[k] = self.orients[order[k]][oi];
            oi = self.dp[4 * k + oi].1;
        }

        // Prefix sums of unit widths and of unmerged boundaries under the
        // chosen orientations.
        for k in 0..n {
            self.widths[k + 1] = self.widths[k] + self.units.units()[order[k]].width;
        }
        for k in 1..n {
            let mask = self.share.mask(order[k - 1], order[k]);
            let merged = mask & bit(self.chosen[k - 1], self.chosen[k]) != 0;
            self.gaps[k] = self.gaps[k - 1] + usize::from(!merged);
        }
        // seg(l, h) = width of the segment covering positions l..=h.
        let seg = |widths: &[usize], gaps: &[usize], l: usize, h: usize| {
            widths[h + 1] - widths[l] + gaps[h] - gaps[l]
        };

        // Split DP: f[k][r] = min over splits of positions 0..k into r rows
        // of the max row width; a cut only replaces a strictly worse one.
        let rows = self.rows;
        let stride = rows + 1;
        let inf = usize::MAX / 2;
        self.f.fill(inf);
        self.f[0] = 0;
        self.cut_back.fill(0);
        for k in 1..=n {
            for r in 1..=rows.min(k) {
                for l in r - 1..k {
                    let head = self.f[l * stride + r - 1];
                    if head == inf {
                        continue;
                    }
                    let w = head.max(seg(&self.widths, &self.gaps, l, k - 1));
                    if w < self.f[k * stride + r] {
                        self.f[k * stride + r] = w;
                        self.cut_back[k * stride + r] = l;
                    }
                }
            }
        }
        self.f[n * stride + rows]
    }

    /// The placement of the order [`OrderScorer::score`] rated last, with
    /// its width.
    fn build(&self, order: &[usize]) -> (usize, Placement) {
        let stride = self.rows + 1;
        let mut cuts = Vec::with_capacity(self.rows - 1);
        let mut k = self.n;
        for r in (1..=self.rows).rev() {
            let l = self.cut_back[k * stride + r];
            if r > 1 {
                cuts.push(l);
            }
            k = l;
        }
        cuts.reverse();
        let built = crate::exhaustive::placement_from_order(
            self.units,
            self.share,
            order,
            &self.chosen,
            &cuts,
        );
        debug_assert_eq!(built.0, self.f[self.n * stride + self.rows]);
        built
    }
}

/// For a fixed unit order: choose orientations maximizing the number of
/// merged boundaries (DP over the previous unit's orientation), then split
/// into `rows` contiguous non-empty segments minimizing the maximum
/// segment width (DP), and build the placement.
pub fn evaluate_order(
    units: &UnitSet,
    share: &ShareArray,
    order: &[usize],
    rows: usize,
) -> (usize, Placement) {
    let n = order.len();
    assert!(rows >= 1 && rows <= n, "invalid row count for evaluation");
    let mut scorer = OrderScorer::new(units, share, rows, n);
    scorer.score(order);
    scorer.build(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SynthRequest;
    use clip_netlist::library;

    /// Builds `request` and returns its cell.
    fn cell_of(request: SynthRequest) -> GeneratedCell {
        request.build().unwrap().cell
    }

    #[test]
    fn generates_nand2() {
        let cell = cell_of(SynthRequest::new(library::nand2()));
        assert_eq!(cell.width, 2);
        assert!(cell.optimal);
        assert!(!cell.height_optimized);
        assert!(cell.model_vars > 0 && cell.model_constraints > 0);
    }

    #[test]
    fn generates_mux21_three_rows() {
        let cell = cell_of(SynthRequest::new(library::mux21()).rows(3));
        assert_eq!(cell.width, 3);
        assert_eq!(cell.placement.rows.len(), 3);
        assert_eq!(cell.tracks.len(), 5); // 3 intra + 2 inter channels
        assert!(cell.height >= cell.tracks.iter().sum::<usize>());
    }

    #[test]
    fn stacking_reduces_model_size() {
        let flat = cell_of(SynthRequest::new(library::nand4()));
        let stacked = cell_of(SynthRequest::new(library::nand4()).stacking());
        assert!(stacked.model_vars < flat.model_vars);
        // NAND4 fully merges either way.
        assert_eq!(flat.width, 4);
        assert_eq!(stacked.width, 4);
    }

    #[test]
    fn height_objective_reports_optimized_height() {
        let cell =
            cell_of(SynthRequest::new(library::nand2()).objective(ObjectiveSpec::width_height()));
        assert!(cell.height_optimized);
        assert!(cell.optimal);
    }

    #[test]
    fn stacked_height_falls_back_to_geometry() {
        let cell = cell_of(
            SynthRequest::new(library::nand4())
                .objective(ObjectiveSpec::width_height())
                .stacking(),
        );
        assert!(!cell.height_optimized);
        assert_eq!(cell.width, 4);
    }

    #[test]
    fn greedy_placement_is_legal() {
        for rows in 1..=3 {
            let units = UnitSet::flat(library::mux21().into_paired().unwrap());
            let share = ShareArray::new(&units);
            let p = greedy_placement(&units, &share, rows).unwrap();
            assert_eq!(p.rows.len(), rows, "rows={rows}");
            crate::verify::check_placement(&units, &p)
                .unwrap_or_else(|e| panic!("rows={rows}: {e}"));
        }
    }

    #[test]
    fn greedy_placement_rejects_bad_row_counts() {
        let units = UnitSet::flat(library::nand2().into_paired().unwrap());
        let share = ShareArray::new(&units);
        assert!(greedy_placement(&units, &share, 0).is_none());
        assert!(greedy_placement(&units, &share, 5).is_none());
    }

    #[test]
    fn best_area_picks_an_intermediate_row_count() {
        let sweep = |circuit: Circuit| {
            cell_of(
                SynthRequest::new(circuit)
                    .time_limit(Duration::from_secs(30))
                    .best_area(4),
            )
        };
        let best = sweep(library::xor2());
        // The verified xor2 sweep: areas 48/33/26/36 for rows 1..=4.
        assert_eq!(best.placement.rows.len(), 3);
        assert_eq!(best.width, 2);
        // Row counts beyond the pair count are skipped, not errors.
        let tiny = sweep(library::inverter());
        assert_eq!(tiny.placement.rows.len(), 1);
    }

    #[test]
    fn best_area_breaks_ties_toward_fewer_rows() {
        // nand4 areas tie at 20 for rows 1 (4x5) and 2 (2x10): the sweep
        // must keep the earlier (fewer-rows) winner.
        let best = cell_of(
            SynthRequest::new(library::nand4())
                .time_limit(Duration::from_secs(30))
                .best_area(2),
        );
        assert_eq!(best.placement.rows.len(), 1);
        assert_eq!(best.width, 4);
        assert_eq!(best.width * best.height, 20);
    }

    #[test]
    fn best_area_is_identical_for_any_job_count() {
        // The tentpole determinism guarantee: the parallel sweep returns
        // byte-identical placements and areas no matter how many worker
        // threads carve up the row counts.
        let sweep = |circuit: Circuit, jobs: usize| {
            cell_of(
                SynthRequest::new(circuit)
                    .time_limit(Duration::from_secs(30))
                    .jobs(NonZeroUsize::new(jobs).unwrap())
                    .best_area(4),
            )
        };
        for circuit in [
            library::xor2 as fn() -> Circuit,
            library::mux21,
            library::nand4,
        ] {
            let baseline = sweep(circuit(), 1);
            for jobs in [2usize, 8] {
                let cell = sweep(circuit(), jobs);
                assert_eq!(cell.placement, baseline.placement, "jobs={jobs}");
                assert_eq!(cell.width, baseline.width, "jobs={jobs}");
                assert_eq!(cell.height, baseline.height, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn sweep_trace_ends_with_a_summary_record() {
        let cell = cell_of(
            SynthRequest::new(library::xor2())
                .time_limit(Duration::from_secs(30))
                .jobs(NonZeroUsize::new(2).unwrap())
                .best_area(3),
        );
        let last = cell.trace.stages.last().unwrap();
        assert_eq!(last.stage, Stage::Sweep);
        assert_eq!(last.threads, Some(2));
        assert!(last.shared_prunes.is_some());
        // Row records stay in ascending row order regardless of which
        // worker finished first.
        let row_stamps: Vec<usize> = cell.trace.stages.iter().filter_map(|s| s.rows).collect();
        assert!(row_stamps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn small_sweeps_skip_the_fan_out_unless_jobs_are_explicit() {
        // An *advisory* job count (the available-parallelism default) is
        // gated on small models: the nand4 sweep runs sequentially...
        let advisory = GenOptions::rows(1)
            .with_time_limit(Duration::from_secs(30))
            .with_jobs(NonZeroUsize::new(4).unwrap());
        let cell = cell_of(SynthRequest::with_options(library::nand4(), advisory).best_area(4));
        let sweep = cell.trace.stages.last().unwrap();
        assert_eq!(sweep.stage, Stage::Sweep);
        assert_eq!(sweep.threads, Some(1), "small sweep must not fan out");
        // ...while an explicit --jobs count is honored verbatim, and both
        // paths land on the identical cell.
        let forced = cell_of(
            SynthRequest::new(library::nand4())
                .time_limit(Duration::from_secs(30))
                .jobs(NonZeroUsize::new(4).unwrap())
                .best_area(4),
        );
        assert_eq!(forced.trace.stages.last().unwrap().threads, Some(4));
        assert_eq!(forced.placement, cell.placement);
        assert_eq!(forced.width, cell.width);
        assert_eq!(forced.height, cell.height);
    }

    #[test]
    fn sweep_errors_keep_the_first_informative_one() {
        let too_many = || GenError::Model(ClipWError::TooManyRows { rows: 4, units: 2 });
        // The TooManyRows that ends a sweep is recorded when nothing
        // preceded it (the old code returned a stale NoSolution default).
        let mut slot = None;
        note(&mut slot, too_many());
        assert!(matches!(
            slot,
            Some(GenError::Model(ClipWError::TooManyRows { .. }))
        ));
        // A later bare NoSolution must not mask an informative error...
        note(&mut slot, GenError::NoSolution);
        assert!(matches!(
            slot,
            Some(GenError::Model(ClipWError::TooManyRows { .. }))
        ));
        // ...but an informative error replaces a bare NoSolution.
        let mut slot = None;
        note(&mut slot, GenError::NoSolution);
        note(&mut slot, GenError::Infeasible);
        assert!(matches!(slot, Some(GenError::Infeasible)));
        // The first informative error wins over later ones.
        note(&mut slot, too_many());
        assert!(matches!(slot, Some(GenError::Infeasible)));
    }

    #[test]
    fn generate_records_a_pipeline_trace() {
        let cell = cell_of(SynthRequest::new(library::xor2()).rows(2));
        let stages: Vec<crate::pipeline::Stage> =
            cell.trace.stages.iter().map(|s| s.stage).collect();
        use crate::pipeline::Stage::*;
        assert_eq!(stages, vec![Pair, GreedySeed, ModelBuild, Solve, Route]);
        let solve = &cell.trace.stages[3];
        assert_eq!(solve.model_vars, Some(cell.model_vars));
        assert_eq!(solve.model_constraints, Some(cell.model_constraints));
        assert_eq!(solve.solve.as_ref().unwrap(), &cell.stats);
        assert_eq!(solve.rows, Some(2));
    }

    #[test]
    fn expired_budget_still_returns_the_warm_incumbent() {
        // A zero budget: every solve hits its deadline immediately, but
        // the greedy warm start keeps the pipeline feasible end to end.
        let cell = cell_of(
            SynthRequest::new(library::xor2())
                .rows(2)
                .budget(Budget::timeout(Duration::ZERO)),
        );
        assert!(!cell.optimal);
        crate::verify::check_placement(&cell.units, &cell.placement).unwrap();
    }

    #[test]
    fn critical_nets_flow_through_the_generator() {
        let critical = |net: &str| {
            cell_of(
                SynthRequest::new(library::aoi21())
                    .objective(ObjectiveSpec::width_height().with_critical_nets(vec![net.into()])),
            )
        };
        let cell = critical("z");
        assert!(cell.optimal);
        assert!(cell.height_optimized);
        // Unknown net names are ignored gracefully.
        let cell = critical("no_such_net");
        assert!(cell.optimal);
    }

    #[test]
    fn time_limit_still_returns_a_cell() {
        let cell = cell_of(
            SynthRequest::new(library::xor2())
                .rows(2)
                .time_limit(Duration::from_millis(10)),
        );
        // Either proved in time or returned the warm-start incumbent.
        assert!(cell.width >= 3);
    }
}
