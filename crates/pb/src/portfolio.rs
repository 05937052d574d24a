//! Portfolio solving: race several solver configurations over one model,
//! sharing incumbents through a [`SharedIncumbent`] so every run prunes
//! against the *global* upper bound.
//!
//! The portfolio is the parallel counterpart of the solver ablation bench:
//! CBJ with the structure-aware brancher, CDCL, and a generic-heuristic
//! variant attack the same model on scoped threads. Each run publishes its
//! improving solutions and adopts tighter published bounds at its deadline
//! tick (see `crate::solve`), so a good incumbent found by any strategy
//! immediately shrinks everyone else's search. The first run to *prove*
//! optimality wins and cancels the others through the shared flag; losers
//! stop at their next tick and report `proved_optimal = false`.
//!
//! Soundness of the combined result: a run that exhausts its search under a
//! final bound `B` (its own best, tightened by every adopted bound) proves
//! no solution with objective `< B` exists. The global best solution has
//! objective `<= B` — every incumbent is published before the bound it
//! implies can be adopted — so on a proof the shared solution is optimal.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::branch::BranchHeuristic;
use crate::budget::Budget;
use crate::model::Model;
use crate::solve::{
    Outcome, SearchStrategy, Solution, SolveStats, Solver, SolverConfig, StopReason,
};

/// Objective value marking an empty [`SharedIncumbent`].
const UNSET: i64 = i64::MAX;

#[derive(Debug)]
struct Shared {
    /// Objective of the best published solution (`UNSET` when empty).
    bound: AtomicI64,
    /// The best published solution itself.
    best: Mutex<Option<Solution>>,
    /// Cooperative cancellation flag, checked at every deadline tick
    /// and polled inside the propagation drain (see
    /// [`crate::propagate::Engine::set_cancel`]), so cancellation
    /// latency is bounded even mid-batch.
    cancelled: Arc<AtomicBool>,
}

/// A bound-and-solution mailbox shared by concurrently running solvers.
///
/// Attach a clone to each [`SolverConfig`] in a portfolio: the solver
/// publishes every improving incumbent via [`SharedIncumbent::offer`],
/// adopts the global bound at its deadline ticks, and stops early once
/// [`SharedIncumbent::cancel`] is called. The objective bound lives in an
/// `AtomicI64` so readers never block; the witness solution sits behind a
/// `Mutex` touched only on improvements.
#[derive(Clone, Debug)]
pub struct SharedIncumbent {
    inner: Arc<Shared>,
}

impl Default for SharedIncumbent {
    fn default() -> Self {
        SharedIncumbent {
            inner: Arc::new(Shared {
                bound: AtomicI64::new(UNSET),
                best: Mutex::new(None),
                cancelled: Arc::new(AtomicBool::new(false)),
            }),
        }
    }
}

impl SharedIncumbent {
    /// An empty incumbent: no bound, no solution, not cancelled.
    pub fn new() -> Self {
        SharedIncumbent::default()
    }

    /// The global upper bound: the objective of the best published
    /// solution, or `None` while nothing has been published.
    pub fn bound(&self) -> Option<i64> {
        match self.inner.bound.load(Ordering::Acquire) {
            UNSET => None,
            b => Some(b),
        }
    }

    /// Publishes `solution` if it strictly improves the global incumbent;
    /// returns whether it did. Concurrent offers race on the atomic bound
    /// first, so only genuine improvements ever touch the mutex.
    pub fn offer(&self, solution: &Solution) -> bool {
        let obj = solution.objective;
        let mut current = self.inner.bound.load(Ordering::Acquire);
        loop {
            if obj >= current {
                return false;
            }
            match self.inner.bound.compare_exchange_weak(
                current,
                obj,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        let mut best = self.inner.best.lock().unwrap_or_else(|e| e.into_inner());
        // A racing offer may have installed an even better witness between
        // our CAS and the lock; never overwrite it with a worse one.
        if best.as_ref().is_none_or(|b| obj < b.objective) {
            *best = Some(solution.clone());
        }
        true
    }

    /// A snapshot of the best published solution.
    pub fn best(&self) -> Option<Solution> {
        self.inner
            .best
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Asks every attached solver to stop at its next deadline tick
    /// (reporting its outcome as unproved).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once [`SharedIncumbent::cancel`] has been called.
    pub fn cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The raw cancellation flag, for wiring into the propagation
    /// engine's mid-batch poll ([`crate::propagate::Engine::set_cancel`]).
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.inner.cancelled)
    }
}

/// A generic cross-solve prune board, the [`SharedIncumbent`]
/// generalization behind both the best-area row sweep and the pareto
/// objective sweep: concurrent solves *register* a floor (a proved lower
/// bound on any value they can still produce) and receive a cancel
/// mailbox; finished solves *publish* their achieved values; and a
/// caller-supplied dominance predicate `dominates(published, floor)`
/// cancels every in-flight solve whose floor is already dominated.
///
/// Soundness is the caller's contract on `dominates`: it must only
/// return `true` when *every* value reachable above `floor` is strictly
/// worse than (or redundant with) `published` — then a prune can never
/// remove a would-have-won result, and the final selection is identical
/// under any prune schedule. The scalar area sweep instantiates
/// `V = u64` with `dominates = floor > published`; the pareto sweep
/// instantiates `V = (width, height)` with strict Pareto dominance of
/// the floor.
pub struct PruneBoard<V> {
    /// Values of every finished solve so far.
    published: Mutex<Vec<V>>,
    /// In-flight solves: `(id, floor, cancel handle)`.
    watchers: Mutex<Vec<(usize, V, SharedIncumbent)>>,
    /// Solves skipped before starting or cancelled mid-run by the board.
    prunes: AtomicU64,
    dominates: fn(&V, &V) -> bool,
}

impl<V> PruneBoard<V> {
    /// An empty board with the given dominance predicate
    /// (`dominates(published, floor)`).
    pub fn new(dominates: fn(&V, &V) -> bool) -> Self {
        PruneBoard {
            published: Mutex::new(Vec::new()),
            watchers: Mutex::new(Vec::new()),
            prunes: AtomicU64::new(0),
            dominates,
        }
    }

    /// Admits solve `id` with lower-bound `floor`. Returns the cancel
    /// mailbox to attach to its runs, or `None` (counted as a prune)
    /// when some already-published value dominates the floor — the solve
    /// provably cannot contribute and must not start.
    pub fn register(&self, id: usize, floor: V) -> Option<SharedIncumbent> {
        {
            let published = self.published.lock().unwrap_or_else(|e| e.into_inner());
            if published.iter().any(|p| (self.dominates)(p, &floor)) {
                self.prunes.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        let handle = SharedIncumbent::new();
        self.watchers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((id, floor, handle.clone()));
        Some(handle)
    }

    /// Removes `id` from the watcher list (its solve is over).
    pub fn unregister(&self, id: usize) {
        self.watchers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|&(i, _, _)| i != id);
    }

    /// Publishes a finished solve's value and cancels every in-flight
    /// solve whose floor it dominates (each counted as a prune).
    pub fn publish(&self, value: V) {
        for (_, floor, handle) in self
            .watchers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            if (self.dominates)(&value, floor) && !handle.cancelled() {
                handle.cancel();
                self.prunes.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.published
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(value);
    }

    /// Records `count` prunes decided outside the board (e.g. solver-
    /// class reuse in a pareto sweep, where duplicate parameterizations
    /// never solve at all).
    pub fn count_prunes(&self, count: u64) {
        self.prunes.fetch_add(count, Ordering::Relaxed);
    }

    /// Total solves pruned: skipped at registration, cancelled by a
    /// publish, or counted via [`PruneBoard::count_prunes`].
    pub fn prunes(&self) -> u64 {
        self.prunes.load(Ordering::Relaxed)
    }
}

/// Result of a [`solve_portfolio`] race.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The combined outcome: the globally best solution, proved optimal
    /// when any run exhausted its search. Its stats aggregate the whole
    /// portfolio (total nodes/conflicts, longest duration, merged
    /// strictly-improving incumbent log).
    pub outcome: Outcome,
    /// Label of the winning run: the first to prove optimality, else the
    /// run holding the best solution, else the first configuration.
    pub winner: String,
    /// Number of runs raced (one thread each).
    pub threads: usize,
    /// Per-run labels and statistics, in configuration order.
    pub runs: Vec<(String, SolveStats)>,
}

/// Known strategy labels, in the default racing order. `evsids` is the
/// CDCL loop (activity branching, Luby restarts, PLBD database
/// reduction); `cbj-dyn` is CBJ without the model's brancher.
pub const STRATEGIES: [&str; 3] = ["cbj", "evsids", "cbj-dyn"];

/// Builds the solver configuration for a known strategy label, derived
/// from `base` (which carries the model-specific brancher and warm start).
/// Returns `None` for unknown labels.
pub fn named_config(label: &str, base: &SolverConfig) -> Option<SolverConfig> {
    match label {
        "cbj" => Some(base.clone()),
        "evsids" => Some(SolverConfig {
            strategy: SearchStrategy::Cdcl,
            ..base.clone()
        }),
        "cbj-dyn" => Some(SolverConfig {
            brancher: None,
            heuristic: BranchHeuristic::DynamicScore,
            ..base.clone()
        }),
        _ => None,
    }
}

/// Builds the portfolio for one solve: the [`STRATEGIES`] order, each
/// derived from `base` via [`named_config`], truncated to at most `cap`
/// entries (at least one, so `cbj` always races).
pub fn named_configs(base: &SolverConfig, cap: usize) -> Vec<(String, SolverConfig)> {
    STRATEGIES
        .into_iter()
        .take(cap.max(1))
        .map(|label| {
            let config = named_config(label, base).expect("STRATEGIES labels are known");
            (label.to_string(), config)
        })
        .collect()
}

/// Races `configs` (label + configuration pairs) over `model` on scoped
/// threads, all drawing on `budget` and sharing one [`SharedIncumbent`].
///
/// Each configuration's own `budget`/`incumbent` fields are overwritten
/// with the shared ones. A single-entry portfolio runs inline on the
/// calling thread — same result, no thread setup.
///
/// # Panics
///
/// Panics when `configs` is empty.
pub fn solve_portfolio(
    model: &Model,
    configs: Vec<(String, SolverConfig)>,
    budget: &Budget,
) -> PortfolioOutcome {
    solve_portfolio_with(model, configs, budget, SharedIncumbent::new())
}

/// [`solve_portfolio`] against a caller-supplied [`SharedIncumbent`] — the
/// best-area sweep hands each row solve a mailbox it can cancel when the
/// row's area lower bound is beaten.
///
/// # Panics
///
/// Panics when `configs` is empty.
pub fn solve_portfolio_with(
    model: &Model,
    configs: Vec<(String, SolverConfig)>,
    budget: &Budget,
    incumbent: SharedIncumbent,
) -> PortfolioOutcome {
    assert!(!configs.is_empty(), "portfolio needs at least one config");
    let labels: Vec<String> = configs.iter().map(|(l, _)| l.clone()).collect();
    let first_proof = AtomicUsize::new(usize::MAX);

    let outcomes: Vec<Outcome> = if configs.len() == 1 {
        let (_, config) = configs.into_iter().next().expect("one config");
        vec![run_contained(
            model,
            config,
            budget,
            &incumbent,
            0,
            &first_proof,
        )]
    } else {
        let slots: Vec<Mutex<Option<Outcome>>> = configs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for (i, (_, config)) in configs.into_iter().enumerate() {
                let (incumbent, first_proof, slots) = (&incumbent, &first_proof, &slots);
                s.spawn(move || {
                    let out = run_contained(model, config, budget, incumbent, i, first_proof);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                // A slot can only be empty if its thread died before
                // storing — treat that like a contained panic rather
                // than cascading the abort to the whole portfolio.
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .unwrap_or_else(|| Outcome::Unknown(panicked_stats()))
            })
            .collect()
    };

    combine(
        labels,
        &outcomes,
        &incumbent,
        first_proof.load(Ordering::Acquire),
    )
}

/// Stats marking a run whose panic was contained by the portfolio.
fn panicked_stats() -> SolveStats {
    SolveStats {
        stop_reason: Some(StopReason::Panicked),
        ..Default::default()
    }
}

/// Runs one portfolio entry with the panic firewall: a run that panics
/// (a solver bug, a fault injection, a poisoned lock observed mid-run)
/// is demoted to `Outcome::Unknown` with [`StopReason::Panicked`]
/// instead of unwinding across the thread scope and aborting every
/// sibling. The `SharedIncumbent` stays usable — its witness mutex is
/// recovered with `into_inner` on poison — so surviving strategies keep
/// racing and can still finish the proof.
fn run_contained(
    model: &Model,
    config: SolverConfig,
    budget: &Budget,
    incumbent: &SharedIncumbent,
    index: usize,
    first_proof: &AtomicUsize,
) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| {
        run_one(model, config, budget, incumbent, index, first_proof)
    }))
    .unwrap_or_else(|_| Outcome::Unknown(panicked_stats()))
}

fn run_one(
    model: &Model,
    mut config: SolverConfig,
    budget: &Budget,
    incumbent: &SharedIncumbent,
    index: usize,
    first_proof: &AtomicUsize,
) -> Outcome {
    config.budget = budget.clone();
    config.incumbent = Some(incumbent.clone());
    let out = Solver::with_config(model, config).run();
    if out.stats().proved_optimal
        && first_proof
            .compare_exchange(usize::MAX, index, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    {
        // First proof wins: losers stop at their next deadline tick.
        incumbent.cancel();
    }
    out
}

fn combine(
    labels: Vec<String>,
    outcomes: &[Outcome],
    incumbent: &SharedIncumbent,
    first_proof: usize,
) -> PortfolioOutcome {
    let runs: Vec<(String, SolveStats)> = labels
        .iter()
        .cloned()
        .zip(outcomes.iter().map(|o| o.stats().clone()))
        .collect();
    let proved = first_proof != usize::MAX;
    let best = incumbent.best();

    // Aggregate stats: total work across the portfolio, the duration of
    // the longest run, and the merged strictly-improving incumbent log.
    let mut stats = SolveStats::default();
    for (_, s) in &runs {
        stats.nodes += s.nodes;
        stats.propagations += s.propagations;
        stats.conflicts += s.conflicts;
        stats.learned += s.learned;
        stats.shared_prunes += s.shared_prunes;
        stats.restarts += s.restarts;
        stats.learned_kept += s.learned_kept;
        stats.learned_deleted += s.learned_deleted;
        if !s.plbd_hist.is_empty() {
            if stats.plbd_hist.is_empty() {
                stats.plbd_hist = vec![0; s.plbd_hist.len()];
            }
            for (total, &count) in stats.plbd_hist.iter_mut().zip(&s.plbd_hist) {
                *total += count;
            }
        }
        stats.props_by_class.merge(&s.props_by_class);
        stats.conflicts_by_class.merge(&s.conflicts_by_class);
        stats.duration = stats.duration.max(s.duration);
    }
    let mut log: Vec<(Duration, i64)> = runs
        .iter()
        .flat_map(|(_, s)| s.incumbents.iter().copied())
        .collect();
    log.sort_unstable();
    for (at, obj) in log {
        if stats.incumbents.last().is_none_or(|&(_, last)| obj < last) {
            stats.incumbents.push((at, obj));
        }
    }
    stats.proved_optimal = proved;
    // Unproved portfolios surface why: the first run that stopped on a
    // limit names the reason (in configuration order, so it is
    // deterministic for a given schedule of limits).
    stats.stop_reason = if proved {
        None
    } else {
        runs.iter().find_map(|(_, s)| s.stop_reason)
    };

    let winner_index = if proved {
        first_proof
    } else {
        // No proof: credit the run whose log reached the global best
        // objective (ties to the earlier configuration).
        best.as_ref()
            .and_then(|b| {
                runs.iter()
                    .position(|(_, s)| s.incumbents.last().is_some_and(|&(_, o)| o == b.objective))
            })
            .unwrap_or(0)
    };
    let winner = labels[winner_index].clone();
    let threads = labels.len();

    let outcome = match (best, proved) {
        (Some(s), true) => Outcome::Optimal(s, stats),
        (Some(s), false) => Outcome::Feasible(s, stats),
        (None, true) => Outcome::Infeasible(stats),
        (None, false) => Outcome::Unknown(stats),
    };
    PortfolioOutcome {
        outcome,
        winner,
        threads,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;
    use crate::model::Var;
    use crate::solve::SearchStrategy;

    /// The 3x3 assignment problem used across the solver tests.
    fn assignment_model() -> Model {
        let costs = [[3, 1, 4], [1, 5, 9], [2, 6, 5]];
        let mut m = Model::new();
        let mut grid = Vec::new();
        for i in 0..3 {
            let row: Vec<Var> = (0..3).map(|j| m.new_var(format!("a{i}{j}"))).collect();
            grid.push(row);
        }
        for (i, row) in grid.iter().enumerate() {
            encode::exactly_one(&mut m, row);
            let col: Vec<Var> = (0..3).map(|j| grid[j][i]).collect();
            encode::exactly_one(&mut m, &col);
        }
        let mut obj = Vec::new();
        for (cost_row, var_row) in costs.iter().zip(&grid) {
            for (&c, &v) in cost_row.iter().zip(var_row) {
                obj.push((c, v));
            }
        }
        m.minimize(obj.iter().copied());
        m
    }

    /// Strict Pareto dominance of a floor: the published pair beats the
    /// floor in one coordinate and at least ties the other.
    fn pair_dominates(p: &(u64, u64), f: &(u64, u64)) -> bool {
        (p.0 <= f.0 && p.1 < f.1) || (p.0 < f.0 && p.1 <= f.1)
    }

    #[test]
    fn prune_board_skips_dominated_registrations() {
        let board: PruneBoard<(u64, u64)> = PruneBoard::new(pair_dominates);
        let a = board.register(0, (4, 4)).expect("empty board admits");
        board.publish((4, 5));
        // A floor strictly dominated by the published value is refused...
        assert!(board.register(1, (5, 6)).is_none());
        assert_eq!(board.prunes(), 1);
        // ...a tying floor survives (ties never dominate)...
        assert!(board.register(2, (4, 5)).is_some());
        // ...and so does an incomparable one.
        assert!(board.register(3, (3, 9)).is_some());
        assert_eq!(board.prunes(), 1);
        assert!(!a.cancelled());
        board.unregister(0);
        board.unregister(2);
        board.unregister(3);
    }

    #[test]
    fn prune_board_cancels_dominated_watchers_on_publish() {
        let board: PruneBoard<(u64, u64)> = PruneBoard::new(pair_dominates);
        let doomed = board.register(0, (5, 5)).unwrap();
        let tied = board.register(1, (4, 4)).unwrap();
        board.publish((4, 4));
        assert!(doomed.cancelled(), "dominated floor must be cancelled");
        assert!(!tied.cancelled(), "a tying floor must keep running");
        assert_eq!(board.prunes(), 1);
        // Externally-decided prunes (solver-class reuse) are countable.
        board.count_prunes(2);
        assert_eq!(board.prunes(), 3);
    }

    #[test]
    fn prune_board_models_the_scalar_area_sweep() {
        // The best-area instantiation: V = area, floor dominated when it
        // strictly exceeds a published area.
        let board: PruneBoard<u64> = PruneBoard::new(|best, lb| lb > best);
        let h = board.register(1, 20).unwrap();
        board.publish(20);
        assert!(!h.cancelled(), "ties survive for the fewest-rows break");
        assert!(board.register(2, 21).is_none());
        assert_eq!(board.prunes(), 1);
    }

    #[test]
    fn incumbent_offers_keep_the_best() {
        let inc = SharedIncumbent::new();
        assert_eq!(inc.bound(), None);
        assert!(inc.best().is_none());
        let s5 = Solution::from_parts(vec![true], 5);
        let s3 = Solution::from_parts(vec![false], 3);
        assert!(inc.offer(&s5));
        assert_eq!(inc.bound(), Some(5));
        assert!(inc.offer(&s3));
        assert_eq!(inc.bound(), Some(3));
        // Equal or worse offers are rejected and change nothing.
        assert!(!inc.offer(&s3));
        assert!(!inc.offer(&s5));
        assert_eq!(inc.best().unwrap().objective, 3);
        assert!(!inc.cancelled());
        inc.cancel();
        assert!(inc.cancelled());
    }

    #[test]
    fn portfolio_matches_single_strategy_optimum() {
        let m = assignment_model();
        let brute = crate::brute::solve(&m).unwrap().1;
        let configs = vec![
            ("cbj".to_string(), SolverConfig::default()),
            (
                "evsids".to_string(),
                SolverConfig {
                    strategy: SearchStrategy::Cdcl,
                    ..Default::default()
                },
            ),
            (
                "cbj-input".to_string(),
                SolverConfig {
                    heuristic: crate::BranchHeuristic::InputOrder,
                    ..Default::default()
                },
            ),
        ];
        let p = solve_portfolio(&m, configs, &Budget::unlimited());
        assert!(p.outcome.is_optimal());
        assert_eq!(p.outcome.best().unwrap().objective, brute);
        assert_eq!(p.threads, 3);
        assert_eq!(p.runs.len(), 3);
        assert!(["cbj", "evsids", "cbj-input"].contains(&p.winner.as_str()));
        // The merged incumbent log strictly improves.
        for w in p.outcome.stats().incumbents.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    fn single_entry_portfolio_matches_plain_solver() {
        let m = assignment_model();
        let plain = Solver::new(&m).run();
        let p = solve_portfolio(
            &m,
            vec![("cbj".to_string(), SolverConfig::default())],
            &Budget::unlimited(),
        );
        assert!(p.outcome.is_optimal());
        assert_eq!(p.threads, 1);
        assert_eq!(p.winner, "cbj");
        assert_eq!(
            p.outcome.best().unwrap().values(),
            plain.best().unwrap().values()
        );
        assert_eq!(p.outcome.stats().nodes, plain.stats().nodes);
    }

    #[test]
    fn infeasible_models_are_proved_infeasible() {
        let mut m = Model::new();
        let x = m.new_var("x");
        m.fix(x, true);
        m.fix(x, false);
        let configs = vec![
            ("cbj".to_string(), SolverConfig::default()),
            (
                "evsids".to_string(),
                SolverConfig {
                    strategy: SearchStrategy::Cdcl,
                    ..Default::default()
                },
            ),
        ];
        let p = solve_portfolio(&m, configs, &Budget::unlimited());
        assert!(matches!(p.outcome, Outcome::Infeasible(_)));
        assert!(p.outcome.stats().proved_optimal);
    }

    /// The satellite scenario: CDCL has already published an optimal
    /// incumbent; a CBJ run attached to the same mailbox must adopt the
    /// published bound and count the prune. Runs sequentially so the
    /// hand-off does not depend on thread scheduling.
    #[test]
    fn published_incumbent_prunes_a_later_cbj_run() {
        // A chain model with a big search space: minimize the number of
        // true vars with every adjacent pair required to contain one.
        let mut m = Model::new();
        let vars: Vec<Var> = (0..20).map(|i| m.new_var(format!("v{i}"))).collect();
        for w in vars.windows(2) {
            m.add_ge([(1, w[0]), (1, w[1])], 1);
        }
        m.minimize(vars.iter().map(|&v| (1, v)));

        let inc = SharedIncumbent::new();
        let cdcl = Solver::with_config(
            &m,
            SolverConfig {
                strategy: SearchStrategy::Cdcl,
                incumbent: Some(inc.clone()),
                ..Default::default()
            },
        )
        .run();
        assert!(cdcl.is_optimal());
        let published = inc.bound().expect("CDCL published its incumbents");
        assert_eq!(published, cdcl.best().unwrap().objective);

        // A fresh CBJ run on the same mailbox, with a deliberately bad
        // heuristic and no warm start: its first local incumbent is worse
        // than the published bound, so the tick check must adopt it.
        let cbj = Solver::with_config(
            &m,
            SolverConfig {
                heuristic: crate::BranchHeuristic::InputOrder,
                incumbent: Some(inc.clone()),
                ..Default::default()
            },
        )
        .run();
        // The adopted bound makes CBJ's outcome *relative*: it exhausts
        // under the published bound (proving nothing beats it) without
        // necessarily holding a solution of its own.
        assert!(cbj.stats().proved_optimal);
        assert!(
            cbj.stats().shared_prunes >= 1,
            "CBJ never adopted the published bound: {:?}",
            cbj.stats()
        );
        // The shared solution is still the proved optimum.
        assert_eq!(inc.best().unwrap().objective, published);
    }

    #[test]
    fn named_configs_cap_and_derive_from_base() {
        let base = SolverConfig::default();
        // Default order, capped: a one-slot portfolio is the reference.
        let configs = named_configs(&base, 1);
        assert_eq!(configs.len(), 1);
        assert_eq!(configs[0].0, "cbj");
        assert_eq!(configs[0].1.strategy, base.strategy);
        // A zero cap still races the reference strategy.
        assert_eq!(named_configs(&base, 0).len(), 1);
        // Full default order matches STRATEGIES.
        let labels: Vec<String> = named_configs(&base, 8)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(labels, STRATEGIES.to_vec());
        assert!(named_config("warp", &base).is_none());
        // "evsids" is the CDCL loop; the retired "cdcl" label is unknown.
        let cdcl = named_config("evsids", &base).unwrap();
        assert_eq!(cdcl.strategy, SearchStrategy::Cdcl);
        assert!(named_config("cdcl", &base).is_none());
    }

    /// The containment firewall: a portfolio entry whose brancher panics
    /// mid-solve is demoted to an unproved `Unknown` run stamped
    /// [`StopReason::Panicked`], while the surviving strategies finish
    /// the proof on the shared (and briefly poisoned) incumbent mailbox.
    #[test]
    fn panicking_run_is_contained_and_siblings_finish_the_proof() {
        let m = assignment_model();
        let brute = crate::brute::solve(&m).unwrap().1;
        // The sibling's first decision waits until the bomb has reached
        // its brancher, so the sibling cannot prove (and cancel the bomb)
        // before the fault fires.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let bomb_gate = Arc::clone(&gate);
        let bomb: crate::solve::Brancher = Arc::new(move |_, _| {
            bomb_gate.wait();
            panic!("injected brancher fault")
        });
        let opened = std::sync::Once::new();
        let waits_for_bomb: crate::solve::Brancher = Arc::new(move |_, _| {
            opened.call_once(|| {
                gate.wait();
            });
            None
        });
        let configs = vec![
            (
                "bomb".to_string(),
                SolverConfig {
                    brancher: Some(bomb),
                    ..Default::default()
                },
            ),
            (
                "evsids".to_string(),
                SolverConfig {
                    strategy: SearchStrategy::Cdcl,
                    brancher: Some(waits_for_bomb),
                    ..Default::default()
                },
            ),
        ];
        let p = solve_portfolio(&m, configs, &Budget::unlimited());
        assert!(p.outcome.is_optimal(), "siblings must still prove");
        assert_eq!(p.outcome.best().unwrap().objective, brute);
        assert_eq!(p.winner, "evsids");
        let (_, bomb_stats) = &p.runs[0];
        assert_eq!(bomb_stats.stop_reason, Some(StopReason::Panicked));
        assert!(!bomb_stats.proved_optimal);
        // Proved portfolios carry no stop reason on the combined stats.
        assert_eq!(p.outcome.stats().stop_reason, None);
    }

    /// Same firewall on the inline single-entry path: the panic becomes
    /// `Outcome::Unknown`, never an unwind into the caller.
    #[test]
    fn single_entry_panic_degrades_to_unknown() {
        let m = assignment_model();
        let bomb: crate::solve::Brancher = Arc::new(|_, _| panic!("injected brancher fault"));
        let p = solve_portfolio(
            &m,
            vec![(
                "bomb".to_string(),
                SolverConfig {
                    brancher: Some(bomb),
                    ..Default::default()
                },
            )],
            &Budget::unlimited(),
        );
        assert!(matches!(p.outcome, Outcome::Unknown(_)));
        assert_eq!(p.outcome.stats().stop_reason, Some(StopReason::Panicked));
    }

    #[test]
    fn cancellation_stops_a_run_unproved() {
        let mut m = Model::new();
        let vars: Vec<Var> = (0..24).map(|i| m.new_var(format!("v{i}"))).collect();
        for w in vars.windows(2) {
            m.add_ge([(1, w[0]), (1, w[1])], 1);
        }
        m.minimize(vars.iter().map(|&v| (1, v)));
        let inc = SharedIncumbent::new();
        inc.cancel();
        let out = Solver::with_config(
            &m,
            SolverConfig {
                incumbent: Some(inc),
                ..Default::default()
            },
        )
        .run();
        assert!(!out.stats().proved_optimal);
        assert_eq!(out.stats().stop_reason, Some(StopReason::Cancelled));
    }

    /// The satellite scenario: a run cancelled *mid-propagation* stops
    /// inside the implication chain instead of draining it first — the
    /// engine polls the shared flag every 64 queue pops.
    #[test]
    fn cancellation_interrupts_a_long_propagation_batch() {
        let mut m = Model::new();
        let vars: Vec<Var> = (0..200).map(|i| m.new_var(format!("v{i}"))).collect();
        m.fix(vars[0], true);
        // Reverse constraint order so the chain cascades through the
        // propagation queue (where the poll lives) rather than through
        // the initial one-pass examine sweep.
        for w in vars.windows(2).rev() {
            m.add_ge([(1, w[1]), (-1, w[0])], 0); // v_{i+1} >= v_i
        }
        m.minimize(vars.iter().map(|&v| (1, v)));
        let inc = SharedIncumbent::new();
        inc.cancel();
        let out = Solver::with_config(
            &m,
            SolverConfig {
                incumbent: Some(inc),
                ..Default::default()
            },
        )
        .run();
        assert!(!out.stats().proved_optimal);
        assert!(
            out.stats().propagations < 150,
            "root propagation ran the whole 200-variable chain: {:?}",
            out.stats().propagations
        );
    }
}
