//! Depth-first branch-and-bound search.

use std::time::{Duration, Instant};

use std::sync::Arc;

use crate::branch::{pick, BranchHeuristic, StaticScores};
use crate::budget::Budget;
use crate::heap::ActivityHeap;
use crate::model::{Model, Var};
use crate::portfolio::SharedIncumbent;
use crate::propagate::{Engine, PropOutcome, Value};
use crate::theory::ClassCounts;

/// A custom branching strategy: returns the next decision
/// `(variable, first value)`, or `None` to fall back to the search
/// loop's own branching (the configured generic heuristic under CBJ, the
/// activity heap under CDCL).
///
/// Model builders that know their variable structure (CLIP-W fills slots
/// left to right and orients units as they are placed) supply one of these
/// through [`SolverConfig::brancher`].
pub type Brancher = Arc<dyn Fn(&Model, &Engine) -> Option<(Var, bool)> + Send + Sync>;

/// Search strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Conflict-directed backjumping (Prosser): depth-first search that
    /// jumps over decisions a conflict does not depend on. No clause
    /// database, constant memory — the default, and the best fit for the
    /// tightly structured CLIP models.
    #[default]
    Cbj,
    /// Conflict-driven clause learning with decision-set clauses and a
    /// 2-watched-literal store, EVSIDS activity branching, Luby restarts
    /// with phase saving, and PLBD-scored learned-database reduction.
    Cdcl,
}

/// Conflicts per Luby-sequence unit: a restart fires after
/// `luby(i) * LUBY_UNIT` conflicts since the previous one.
const LUBY_UNIT: u64 = 64;

/// Learned-database size that triggers the first reduction; each
/// reduction re-arms at `kept + REDUCE_STEP`.
const REDUCE_STEP: u64 = 256;

/// Activity decay factor for EVSIDS branching.
const EVSIDS_DECAY: f64 = 0.95;

/// Value of the Luby restart sequence (1, 1, 2, 1, 1, 2, 4, 1, 1, 2,
/// ...) at 0-based `index`.
pub fn luby(mut index: u64) -> u64 {
    // Size of the smallest complete subsequence (2^seq − 1 entries)
    // containing `index`, then recurse into it; the last entry of a
    // complete subsequence is its power-of-two peak.
    let (mut size, mut seq) = (1u64, 0u32);
    while size < index + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != index {
        size = (size - 1) / 2;
        seq -= 1;
        index %= size;
    }
    1u64 << seq
}

/// Solver configuration.
#[derive(Clone)]
pub struct SolverConfig {
    /// Search strategy (default [`SearchStrategy::Cbj`]).
    pub strategy: SearchStrategy,
    /// Generic branching heuristic CBJ falls back to when the brancher
    /// passes (default [`BranchHeuristic::DynamicScore`]). The CDCL loop
    /// branches by activity instead.
    pub heuristic: BranchHeuristic,
    /// Solve budget: an absolute wall-clock deadline plus an optional
    /// shared node pool. Budgets are created once per request and shared
    /// across stages — a solve that starts late gets only the time that is
    /// actually left. [`Solver::run`] debits the explored nodes from the
    /// pool on exit. The default budget is unlimited.
    pub budget: Budget,
    /// Warm-start assignment. If feasible, it seeds the incumbent before
    /// the search begins (its objective bound prunes immediately).
    pub warm_start: Option<Vec<bool>>,
    /// Optional problem-specific branching strategy, consulted before the
    /// generic heuristic.
    pub brancher: Option<Brancher>,
    /// Run the presolve pass (root fixing, trivial removal, coefficient
    /// saturation) before searching.
    pub presolve: bool,
    /// Shared incumbent mailbox for portfolio runs. When attached, the
    /// solver publishes every improving solution to it, adopts tighter
    /// *global* bounds at each deadline tick, and stops (unproved) once
    /// the mailbox is cancelled. The run's own [`Outcome`] is then
    /// relative to the shared bound: a proof means "nothing beats the
    /// global incumbent", even when this run holds no solution itself.
    pub incumbent: Option<SharedIncumbent>,
    /// Route unit-coefficient constraint classes to the specialized
    /// counting engine (default true). Turning this off keeps every row
    /// on the generic slack path, the reference the tests compare the
    /// counting engine against; results and stats are identical either
    /// way, only speed changes.
    pub use_theories: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            strategy: SearchStrategy::default(),
            heuristic: BranchHeuristic::default(),
            budget: Budget::default(),
            warm_start: None,
            brancher: None,
            presolve: false,
            incumbent: None,
            use_theories: true,
        }
    }
}

impl std::fmt::Debug for SolverConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverConfig")
            .field("strategy", &self.strategy)
            .field("heuristic", &self.heuristic)
            .field("budget", &self.budget)
            .field("warm_start", &self.warm_start.as_ref().map(Vec::len))
            .field("brancher", &self.brancher.is_some())
            .field("presolve", &self.presolve)
            .field("incumbent", &self.incumbent.is_some())
            .field("use_theories", &self.use_theories)
            .finish()
    }
}

/// A feasible assignment and its objective value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    values: Vec<bool>,
    /// Objective value of this solution.
    pub objective: i64,
}

impl Solution {
    /// Assembles a solution from raw parts (in-crate test use only).
    #[cfg(test)]
    pub(crate) fn from_parts(values: Vec<bool>, objective: i64) -> Self {
        Solution { values, objective }
    }

    /// Value of a variable in this solution.
    pub fn value(&self, v: Var) -> bool {
        self.values[v.index()]
    }

    /// The complete assignment, indexed by variable.
    pub fn values(&self) -> &[bool] {
        &self.values
    }
}

/// Why a search stopped before proving optimality.
///
/// `None` on [`SolveStats::stop_reason`] means the search ran to
/// completion (exhausted, hence proved); a `Some` explains which limit
/// fired. Downstream consumers (the serve daemon, the trace schema, the
/// bench JSONL) use this to distinguish a *degraded* anytime result —
/// best incumbent returned, proof abandoned — from a genuine failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline expired.
    Deadline,
    /// The shared node pool ran dry.
    NodeBudget,
    /// A portfolio sibling (or the caller) cancelled the run.
    Cancelled,
    /// The run panicked and was contained by the portfolio layer.
    Panicked,
}

impl StopReason {
    /// Every reason, in serialization order.
    pub const ALL: [StopReason; 4] = [
        StopReason::Deadline,
        StopReason::NodeBudget,
        StopReason::Cancelled,
        StopReason::Panicked,
    ];

    /// The stable wire name (trace schema 5, bench JSONL, serve responses).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Deadline => "deadline",
            StopReason::NodeBudget => "node_budget",
            StopReason::Cancelled => "cancelled",
            StopReason::Panicked => "panicked",
        }
    }

    /// Inverse of [`StopReason::name`].
    pub fn from_name(name: &str) -> Option<StopReason> {
        StopReason::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Search statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Decision nodes explored.
    pub nodes: u64,
    /// Assignments made by propagation.
    pub propagations: u64,
    /// Conflicts (dead ends) encountered.
    pub conflicts: u64,
    /// Learned clauses added by conflict analysis.
    pub learned: u64,
    /// Times a tighter *global* bound published by a portfolio sibling
    /// was adopted into this search (each adoption prunes the subtree
    /// the local incumbent alone would still have explored).
    pub shared_prunes: u64,
    /// Total wall-clock time.
    pub duration: Duration,
    /// Every improving incumbent: `(when, objective)`.
    pub incumbents: Vec<(Duration, i64)>,
    /// True if optimality was proved (search exhausted).
    pub proved_optimal: bool,
    /// Luby-schedule restarts performed (CDCL only).
    pub restarts: u64,
    /// Learned clauses still in the database when the search ended.
    pub learned_kept: u64,
    /// Learned clauses deleted by PLBD database reductions.
    pub learned_deleted: u64,
    /// Histogram of learned-clause pseudo-LBDs at creation: bucket `i`
    /// counts clauses with PLBD `i + 1` (the last bucket absorbs
    /// everything deeper). Empty when no clause was scored — CBJ leaves
    /// it empty.
    pub plbd_hist: Vec<u64>,
    /// Propagations attributed to the theory class of the forcing
    /// constraint (learned clauses count as clause-theory).
    pub props_by_class: ClassCounts,
    /// Conflicts attributed to the theory class of the conflicting
    /// constraint (the objective-bound row counts as general-linear).
    pub conflicts_by_class: ClassCounts,
    /// Why the search stopped before exhausting, if it did. `None` when
    /// `proved_optimal` (the search ran to completion) or when the stop
    /// cause predates this field (traces from schema <= 4).
    pub stop_reason: Option<StopReason>,
}

impl SolveStats {
    /// Time at which the final (best) objective value was first reached —
    /// the paper's "first optimal solution" column in Table 4.
    pub fn first_best_time(&self) -> Option<Duration> {
        let best = self.incumbents.last()?.1;
        self.incumbents
            .iter()
            .find(|&&(_, obj)| obj == best)
            .map(|&(t, _)| t)
    }
}

/// Result of a solve.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Best solution found and proved optimal.
    Optimal(Solution, SolveStats),
    /// A feasible solution was found but a limit stopped the proof.
    Feasible(Solution, SolveStats),
    /// The model was proved infeasible.
    Infeasible(SolveStats),
    /// A limit stopped the search before any solution was found.
    Unknown(SolveStats),
}

impl Outcome {
    /// The best solution, if any was found.
    pub fn best(&self) -> Option<&Solution> {
        match self {
            Outcome::Optimal(s, _) | Outcome::Feasible(s, _) => Some(s),
            _ => None,
        }
    }

    /// Search statistics.
    pub fn stats(&self) -> &SolveStats {
        match self {
            Outcome::Optimal(_, st)
            | Outcome::Feasible(_, st)
            | Outcome::Infeasible(st)
            | Outcome::Unknown(st) => st,
        }
    }

    /// True if the outcome is proved optimal.
    pub fn is_optimal(&self) -> bool {
        matches!(self, Outcome::Optimal(..))
    }
}

/// Incremental accounting against the budget's shared node pool: nodes
/// explored since the last settlement are debited at every deadline tick,
/// so concurrent solvers drain one pool *while* searching instead of
/// settling only on exit.
struct NodePool<'a> {
    budget: &'a Budget,
    enabled: bool,
    /// Nodes already debited from the shared pool.
    debited: u64,
    /// Local node count at which the pool, as last observed, runs dry.
    allowance: u64,
}

impl<'a> NodePool<'a> {
    fn new(budget: &'a Budget) -> Self {
        let remaining = budget.remaining_nodes();
        NodePool {
            budget,
            enabled: remaining.is_some(),
            debited: 0,
            allowance: remaining.unwrap_or(u64::MAX),
        }
    }

    /// Cheap per-iteration check against the last allowance snapshot.
    fn drained(&self, nodes: u64) -> bool {
        self.enabled && nodes > self.allowance
    }

    /// Debits the nodes explored since the last settlement and refreshes
    /// the allowance from the shared pool (concurrent siblings may have
    /// drained it in the meantime). Returns true when the pool is dry.
    fn settle(&mut self, nodes: u64) -> bool {
        if !self.enabled {
            return false;
        }
        self.budget.consume_nodes(nodes - self.debited);
        self.debited = nodes;
        match self.budget.remaining_nodes() {
            Some(0) => true,
            Some(rem) => {
                self.allowance = nodes.saturating_add(rem);
                false
            }
            None => false,
        }
    }
}

/// Branch-and-bound solver over a [`Model`].
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Solver<'a> {
    model: &'a Model,
    config: SolverConfig,
}

impl<'a> Solver<'a> {
    /// Creates a solver with the default configuration.
    pub fn new(model: &'a Model) -> Self {
        Solver {
            model,
            config: SolverConfig::default(),
        }
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(model: &'a Model, config: SolverConfig) -> Self {
        Solver { model, config }
    }

    /// Runs the search to completion or until a limit fires.
    pub fn run(&self) -> Outcome {
        if self.config.presolve {
            match crate::presolve::presolve_with(self.model, self.config.use_theories) {
                crate::presolve::Presolved::Infeasible => {
                    let stats = SolveStats {
                        proved_optimal: true,
                        ..Default::default()
                    };
                    return Outcome::Infeasible(stats);
                }
                crate::presolve::Presolved::Model(simplified, _) => {
                    // Same variable indexing: solutions carry over directly.
                    let mut config = self.config.clone();
                    config.presolve = false;
                    return Solver::with_config(&simplified, config).run();
                }
            }
        }
        let start = Instant::now();
        let mut stats = SolveStats::default();
        let mut engine = Engine::with_theories(self.model, self.config.use_theories);
        // Portfolio cancellation reaches inside the propagation drain:
        // a loser stops mid-batch instead of finishing a long
        // implication chain before noticing.
        if let Some(inc) = &self.config.incumbent {
            engine.set_cancel(inc.cancel_flag());
        }
        let mut best: Option<Solution> = None;

        // Seed from a warm start if it is genuinely feasible. Publishing
        // it lets portfolio siblings prune against it even if this run
        // never gets past its first deadline tick.
        if let Some(ws) = &self.config.warm_start {
            if self.model.is_feasible(ws) {
                self.record_incumbent(ws.clone(), &mut engine, &mut best, &mut stats, start);
            }
        }

        match self.config.strategy {
            SearchStrategy::Cbj => self.search_cbj(&mut engine, &mut best, &mut stats, start),
            SearchStrategy::Cdcl => {
                self.search_cdcl_modern(&mut engine, &mut best, &mut stats, start)
            }
        }

        stats.learned_kept = engine.num_learned() as u64;
        stats.propagations = engine.propagations;
        stats.props_by_class = engine.props_by_class();
        stats.duration = start.elapsed();
        match (best, stats.proved_optimal) {
            (Some(s), true) => Outcome::Optimal(s, stats),
            (Some(s), false) => Outcome::Feasible(s, stats),
            (None, true) => Outcome::Infeasible(stats),
            (None, false) => Outcome::Unknown(stats),
        }
    }

    /// Records the feasible complete assignment `values` as the
    /// incumbent when it beats `best`: logs it, tightens the engine's
    /// objective bound below it, and publishes it to the portfolio
    /// mailbox. Returns its objective when it improved.
    fn record_incumbent(
        &self,
        values: Vec<bool>,
        engine: &mut Engine,
        best: &mut Option<Solution>,
        stats: &mut SolveStats,
        start: Instant,
    ) -> Option<i64> {
        debug_assert!(self.model.is_feasible(&values));
        let objective = self.model.objective().eval(&values);
        if best.as_ref().is_some_and(|b| objective >= b.objective) {
            return None;
        }
        stats.incumbents.push((start.elapsed(), objective));
        engine.set_objective_bound(objective - 1 - self.model.objective().base);
        let solution = best.insert(Solution { values, objective });
        if let Some(inc) = &self.config.incumbent {
            inc.offer(solution);
        }
        Some(objective)
    }

    /// The values of a complete assignment.
    fn complete_values(engine: &Engine) -> Vec<bool> {
        engine
            .values()
            .iter()
            .map(|v| v.as_bool().expect("complete assignment"))
            .collect()
    }

    /// The coordination block run every 64th loop tick: the wall-clock
    /// deadline, node-pool settlement, portfolio cancellation, and the
    /// adoption of a tighter global bound published by a portfolio
    /// sibling. Adopting re-propagates the objective constraint, which
    /// may surface an immediate conflict. Returns true when the search
    /// must stop.
    fn tick_check(
        &self,
        deadline: Option<Instant>,
        pool: &mut NodePool<'_>,
        engine: &mut Engine,
        conflict: &mut Option<usize>,
        bound_obj: &mut Option<i64>,
        stats: &mut SolveStats,
    ) -> bool {
        if deadline.is_some_and(|dl| Instant::now() >= dl) {
            stats.stop_reason = Some(StopReason::Deadline);
            return true;
        }
        if pool.settle(stats.nodes) {
            stats.stop_reason = Some(StopReason::NodeBudget);
            return true;
        }
        if let Some(inc) = &self.config.incumbent {
            if inc.cancelled() {
                stats.stop_reason = Some(StopReason::Cancelled);
                return true;
            }
            if let Some(gb) = inc.bound() {
                if bound_obj.is_none_or(|b| gb < b) {
                    *bound_obj = Some(gb);
                    stats.shared_prunes += 1;
                    engine.set_objective_bound(gb - 1 - self.model.objective().base);
                    if conflict.is_none() {
                        if let Some(oi) = engine.objective_index() {
                            if let PropOutcome::Conflict(c) = engine.propagate_from(oi) {
                                *conflict = Some(c);
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// Conflict-directed backjumping (Prosser's CBJ) with branch-and-bound
    /// via the engine's dynamic objective constraint.
    ///
    /// Each decision owns a frame carrying its accumulated *conflict set*:
    /// the decisions that conflicts in its subtree depended on. On a
    /// conflict the search unwinds directly to the deepest responsible
    /// decision, skipping (and discarding) everything in between — sound
    /// because the conflict persists under any reassignment of the skipped
    /// decisions.
    fn search_cbj(
        &self,
        engine: &mut Engine,
        best: &mut Option<Solution>,
        stats: &mut SolveStats,
        start: Instant,
    ) {
        struct Frame {
            var: Var,
            value: bool,
            tried_other: bool,
            cset: Vec<Var>,
        }
        let n = self.model.num_vars();
        let scores = StaticScores::new(self.model);
        let mut frames: Vec<Frame> = Vec::new();
        let mut limit_hit = false;
        let deadline = self.config.budget.deadline();
        let mut pool = NodePool::new(&self.config.budget);
        // The objective value backing the engine's current bound: the
        // local incumbent or an adopted global bound, whichever is lower.
        let mut bound_obj: Option<i64> = best.as_ref().map(|b| b.objective);
        // Deadline checks are paced on a local iteration counter, not on
        // nodes+conflicts: those can advance by more than one per loop and
        // jump over every multiple of 64, deferring the check indefinitely.
        let mut ticks: u64 = 0;
        let mut conflict = match engine.propagate_all() {
            PropOutcome::Conflict(ci) => Some(ci),
            PropOutcome::Consistent => None,
        };

        'outer: loop {
            // A cancelled propagation round leaves the queue half-drained;
            // nothing downstream may trust the engine state.
            if engine.interrupted() {
                stats.stop_reason = Some(StopReason::Cancelled);
                limit_hit = true;
                break;
            }
            if ticks.is_multiple_of(64)
                && self.tick_check(
                    deadline,
                    &mut pool,
                    engine,
                    &mut conflict,
                    &mut bound_obj,
                    stats,
                )
            {
                limit_hit = true;
                break;
            }
            ticks += 1;
            if pool.drained(stats.nodes) {
                stats.stop_reason = Some(StopReason::NodeBudget);
                limit_hit = true;
                break;
            }

            if let Some(ci) = conflict.take() {
                stats.conflicts += 1;
                stats.conflicts_by_class.add(engine.class_of_conflict(ci));
                let mut confset = engine.involved_decisions(ci);
                loop {
                    if confset.is_empty() {
                        break 'outer; // conflict at the root: exhausted
                    }
                    let Some(mut top) = frames.pop() else {
                        break 'outer;
                    };
                    engine.backjump_to(frames.len() as u32);
                    if !confset.contains(&top.var) {
                        continue; // jump over an unrelated decision
                    }
                    // Merge the conflict set into this frame.
                    for &v in &confset {
                        if v != top.var && !top.cset.contains(&v) {
                            top.cset.push(v);
                        }
                    }
                    if !top.tried_other {
                        top.tried_other = true;
                        top.value = !top.value;
                        engine.assign_decision(top.var, top.value);
                        frames.push(top);
                        if let PropOutcome::Conflict(c) = engine.propagate() {
                            conflict = Some(c);
                        }
                        break;
                    }
                    // Both values failed: this decision's conflict set
                    // propagates upward.
                    confset = top.cset;
                }
            } else if engine.num_assigned() == n {
                let values = Self::complete_values(engine);
                if let Some(objective) = self.record_incumbent(values, engine, best, stats, start) {
                    bound_obj = Some(objective);
                }
                match engine.objective_index() {
                    Some(oi) => conflict = Some(oi),
                    None => break, // feasibility problem: first solution wins
                }
            } else {
                let (var, first_value) = self
                    .config
                    .brancher
                    .as_ref()
                    .and_then(|b| b(self.model, engine))
                    .or_else(|| pick(self.config.heuristic, self.model, engine, &scores))
                    .expect("unassigned variable exists");
                stats.nodes += 1;
                engine.assign_decision(var, first_value);
                frames.push(Frame {
                    var,
                    value: first_value,
                    tried_other: false,
                    cset: Vec::new(),
                });
                if let PropOutcome::Conflict(c) = engine.propagate() {
                    conflict = Some(c);
                }
            }
        }

        let _ = pool.settle(stats.nodes);
        stats.proved_optimal = !limit_hit;
        if stats.proved_optimal {
            // Invariant: a completed search carries no stop reason.
            stats.stop_reason = None;
        }
    }

    /// Conflict-driven search: decision-set clause learning with
    /// non-chronological backjumping and branch-and-bound via the
    /// engine's dynamic objective constraint, plus EVSIDS activity
    /// branching, Luby restarts with phase saving, and PLBD-scored
    /// database reduction.
    ///
    /// Restarts and activity ordering give this loop a different search
    /// tree from CBJ's, so it is pinned to *result* equality instead —
    /// proved-optimal objective values match CBJ and brute force — and a
    /// fixed config is byte-reproducible run-to-run (the heap breaks
    /// activity ties by variable index; no pointer or iteration order
    /// leaks in).
    fn search_cdcl_modern(
        &self,
        engine: &mut Engine,
        best: &mut Option<Solution>,
        stats: &mut SolveStats,
        start: Instant,
    ) {
        let n = self.model.num_vars();
        let mut limit_hit = false;
        let deadline = self.config.budget.deadline();
        let mut pool = NodePool::new(&self.config.budget);
        let mut bound_obj: Option<i64> = best.as_ref().map(|b| b.objective);
        let mut ticks: u64 = 0;

        let mut heap = ActivityHeap::new(n, EVSIDS_DECAY);
        // Saved phases: branch each variable at its last assigned
        // polarity first. A feasible warm start seeds them.
        let mut saved: Vec<bool> = match &self.config.warm_start {
            Some(ws) if ws.len() == n => ws.clone(),
            _ => vec![false; n],
        };
        let mut visited: Vec<Var> = Vec::new();
        let mut restart_idx: u64 = 0;
        let mut conflicts_since_restart: u64 = 0;
        let mut next_reduce: u64 = REDUCE_STEP;

        // Phase-saving + heap unwind: record polarities and re-queue the
        // variables a backjump is about to unassign.
        fn unwind(engine: &mut Engine, heap: &mut ActivityHeap, saved: &mut [bool], target: u32) {
            let mark = engine.trail_mark_of_level(target);
            for &v in &engine.trail()[mark..] {
                saved[v.index()] = engine.value(v) == Value::True;
                heap.push(v.index());
            }
            engine.backjump_to(target);
        }

        let mut conflict = match engine.propagate_all() {
            PropOutcome::Conflict(ci) => Some(ci),
            PropOutcome::Consistent => None,
        };

        loop {
            // A cancelled propagation round leaves the queue half-drained;
            // nothing downstream may trust the engine state.
            if engine.interrupted() {
                stats.stop_reason = Some(StopReason::Cancelled);
                limit_hit = true;
                break;
            }
            if ticks.is_multiple_of(64)
                && self.tick_check(
                    deadline,
                    &mut pool,
                    engine,
                    &mut conflict,
                    &mut bound_obj,
                    stats,
                )
            {
                limit_hit = true;
                break;
            }
            ticks += 1;
            if pool.drained(stats.nodes) {
                stats.stop_reason = Some(StopReason::NodeBudget);
                limit_hit = true;
                break;
            }

            if let Some(ci) = conflict.take() {
                stats.conflicts += 1;
                stats.conflicts_by_class.add(engine.class_of_conflict(ci));
                conflicts_since_restart += 1;
                visited.clear();
                match engine.analyze_collecting(ci, &mut visited) {
                    None => break, // conflict at the root: search exhausted
                    Some(lc) => {
                        // Bump everything the reason walk visited; one
                        // decay step per conflict.
                        for &v in &visited {
                            heap.bump(v.index());
                        }
                        heap.decay();
                        let tag = engine.add_learned_clause(lc.lits, lc.assert_index);
                        stats.learned += 1;
                        if stats.plbd_hist.is_empty() {
                            stats.plbd_hist = vec![0; 8];
                        }
                        let bucket = (engine.learned_plbd(tag).clamp(1, 8) - 1) as usize;
                        stats.plbd_hist[bucket] += 1;
                        unwind(engine, &mut heap, &mut saved, lc.backjump);
                        if !engine.assert_learned(tag) {
                            break; // asserting literal already false at root
                        }
                        if let PropOutcome::Conflict(c) = engine.propagate() {
                            conflict = Some(c);
                        }
                    }
                }
            } else if engine.num_assigned() == n {
                // Complete assignment: record the incumbent and continue by
                // tightening the objective bound (the bound constraint is
                // now violated, driving the next conflict analysis).
                let values = Self::complete_values(engine);
                if let Some(objective) = self.record_incumbent(values, engine, best, stats, start) {
                    bound_obj = Some(objective);
                }
                match engine.objective_index() {
                    Some(oi) => conflict = Some(oi),
                    None => break, // feasibility problem: first solution is optimal
                }
            } else if conflicts_since_restart >= luby(restart_idx) * LUBY_UNIT {
                // Restart: back to the root, keeping learned clauses,
                // the incumbent bound, activities, and saved phases.
                stats.restarts += 1;
                restart_idx += 1;
                conflicts_since_restart = 0;
                unwind(engine, &mut heap, &mut saved, 0);
                // Reduce the learned database at restart boundaries once
                // it outgrows its allowance.
                if engine.num_learned() as u64 >= next_reduce {
                    let (kept, deleted, outcome) = engine.reduce_learned();
                    stats.learned_deleted += deleted;
                    next_reduce = kept + REDUCE_STEP;
                    if matches!(outcome, PropOutcome::Conflict(_)) {
                        break; // a kept clause is false at the root: exhausted
                    }
                }
                if let PropOutcome::Conflict(c) = engine.propagate() {
                    conflict = Some(c);
                }
            } else {
                // Branch: problem-specific strategy, then the activity
                // heap at the saved phase. Every unassigned variable is
                // in the heap: a backjump re-queues what it unassigns.
                let choice = self
                    .config
                    .brancher
                    .as_ref()
                    .and_then(|b| b(self.model, engine));
                let (var, first_value) = choice.unwrap_or_else(|| loop {
                    let v = heap.pop().expect("unassigned variable exists");
                    if engine.value(Var(v as u32)) == Value::Unassigned {
                        break (Var(v as u32), saved[v]);
                    }
                });
                stats.nodes += 1;
                engine.assign_decision(var, first_value);
                if let PropOutcome::Conflict(c) = engine.propagate() {
                    conflict = Some(c);
                }
            }
        }

        let _ = pool.settle(stats.nodes);
        stats.proved_optimal = !limit_hit;
        if stats.proved_optimal {
            // Invariant: a completed search carries no stop reason.
            stats.stop_reason = None;
        }
    }
}

/// Convenience: solve with default configuration.
pub fn solve(model: &Model) -> Outcome {
    Solver::new(model).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::encode;

    #[test]
    fn solves_tiny_optimum() {
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        m.add_ge([(1, x), (1, y)], 1);
        m.minimize([(1, x), (2, y)]);
        let out = solve(&m);
        assert!(out.is_optimal());
        let s = out.best().unwrap();
        assert_eq!(s.objective, 1);
        assert!(s.value(x) && !s.value(y));
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.new_var("x");
        m.fix(x, true);
        m.fix(x, false);
        assert!(matches!(solve(&m), Outcome::Infeasible(_)));
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let m = Model::new();
        let out = solve(&m);
        assert!(out.is_optimal());
        assert_eq!(out.best().unwrap().objective, 0);
    }

    #[test]
    fn unconstrained_minimization_turns_everything_off() {
        let mut m = Model::new();
        let vars: Vec<Var> = (0..5).map(|i| m.new_var(format!("v{i}"))).collect();
        m.minimize(vars.iter().map(|&v| (1, v)));
        let out = solve(&m);
        let s = out.best().unwrap();
        assert_eq!(s.objective, 0);
        assert!(vars.iter().all(|&v| !s.value(v)));
    }

    #[test]
    fn negative_coefficients_are_handled() {
        // minimize -x - 2y s.t. x + y <= 1: best is y=1 -> -2.
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        m.add_le([(1, x), (1, y)], 1);
        m.minimize([(-1, x), (-2, y)]);
        let out = solve(&m);
        assert!(out.is_optimal());
        let s = out.best().unwrap();
        assert_eq!(s.objective, -2);
        assert!(!s.value(x) && s.value(y));
    }

    #[test]
    fn matches_brute_force_on_assignment_problem() {
        // 3x3 assignment problem with arbitrary costs.
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

        let (_, brute_obj) = brute::solve(&m).unwrap();
        for h in [
            BranchHeuristic::InputOrder,
            BranchHeuristic::MostConstrained,
            BranchHeuristic::ObjectiveFirst,
            BranchHeuristic::DynamicScore,
        ] {
            let out = Solver::with_config(
                &m,
                SolverConfig {
                    heuristic: h,
                    ..Default::default()
                },
            )
            .run();
            assert!(out.is_optimal(), "{h:?}");
            assert_eq!(out.best().unwrap().objective, brute_obj, "{h:?}");
        }
    }

    #[test]
    fn warm_start_seeds_incumbent() {
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        m.add_ge([(1, x), (1, y)], 1);
        m.minimize([(1, x), (1, y)]);
        let out = Solver::with_config(
            &m,
            SolverConfig {
                warm_start: Some(vec![true, true]), // feasible, objective 2
                ..Default::default()
            },
        )
        .run();
        assert!(out.is_optimal());
        assert_eq!(out.best().unwrap().objective, 1);
        // Incumbent log starts from the warm start's objective.
        assert_eq!(out.stats().incumbents.first().unwrap().1, 2);
    }

    #[test]
    fn infeasible_warm_start_is_ignored() {
        let mut m = Model::new();
        let x = m.new_var("x");
        m.fix(x, true);
        m.minimize([(1, x)]);
        let out = Solver::with_config(
            &m,
            SolverConfig {
                warm_start: Some(vec![false]),
                ..Default::default()
            },
        )
        .run();
        assert!(out.is_optimal());
        assert_eq!(out.best().unwrap().objective, 1);
    }

    #[test]
    fn node_limit_stops_early() {
        // A model with a large search space and no solution below 0.
        let mut m = Model::new();
        let vars: Vec<Var> = (0..30).map(|i| m.new_var(format!("v{i}"))).collect();
        for w in vars.windows(2) {
            m.add_ge([(1, w[0]), (1, w[1])], 1);
        }
        m.minimize(vars.iter().map(|&v| (1, v)));
        let out = Solver::with_config(
            &m,
            SolverConfig {
                budget: Budget::unlimited().with_node_budget(3),
                ..Default::default()
            },
        )
        .run();
        // Either it got lucky and proved within 3 nodes, or it reports a
        // feasible-but-unproved outcome; both must expose stats.
        assert!(out.stats().nodes <= 4);
        if !out.stats().proved_optimal {
            assert_eq!(out.stats().stop_reason, Some(StopReason::NodeBudget));
        }
    }

    /// The anytime-degradation contract the serve daemon leans on: an
    /// already-expired deadline with a feasible warm start returns the
    /// incumbent as `Feasible` stamped [`StopReason::Deadline`] — never
    /// an error, never a proof.
    #[test]
    fn expired_deadline_returns_warm_start_with_deadline_reason() {
        let mut m = Model::new();
        let vars: Vec<Var> = (0..30).map(|i| m.new_var(format!("v{i}"))).collect();
        for w in vars.windows(2) {
            m.add_ge([(1, w[0]), (1, w[1])], 1);
        }
        m.minimize(vars.iter().map(|&v| (1, v)));
        for strategy in [SearchStrategy::Cbj, SearchStrategy::Cdcl] {
            let out = Solver::with_config(
                &m,
                SolverConfig {
                    strategy,
                    budget: Budget::timeout(Duration::ZERO),
                    warm_start: Some(vec![true; 30]),
                    ..Default::default()
                },
            )
            .run();
            let Outcome::Feasible(s, stats) = out else {
                panic!("expected a degraded feasible outcome, got {out:?}");
            };
            assert_eq!(s.objective, 30);
            assert!(!stats.proved_optimal);
            assert_eq!(stats.stop_reason, Some(StopReason::Deadline));
        }
    }

    #[test]
    fn stop_reason_names_round_trip() {
        for r in StopReason::ALL {
            assert_eq!(StopReason::from_name(r.name()), Some(r));
            assert_eq!(r.to_string(), r.name());
        }
        assert_eq!(StopReason::from_name("warp"), None);
    }

    #[test]
    fn first_best_time_is_monotone() {
        let mut m = Model::new();
        let vars: Vec<Var> = (0..8).map(|i| m.new_var(format!("v{i}"))).collect();
        m.add_ge(vars.iter().map(|&v| (1, v)), 4);
        m.minimize(vars.iter().map(|&v| (1, v)));
        let out = solve(&m);
        let stats = out.stats();
        assert!(stats.proved_optimal);
        let first = stats.first_best_time().unwrap();
        assert!(first <= stats.duration);
        // Objectives in the incumbent log strictly improve.
        for w in stats.incumbents.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    fn presolve_path_matches_plain_solve() {
        use clip_rng::Rng;
        let mut rng = Rng::seed_from_u64(0x50f7);
        for _ in 0..30 {
            let n = rng.gen_range(1..=9usize);
            let mut m = Model::new();
            let vars: Vec<Var> = (0..n).map(|i| m.new_var(format!("v{i}"))).collect();
            for _ in 0..rng.gen_range(0..=6) {
                let terms: Vec<(i64, Var)> = (0..rng.gen_range(1..=3usize))
                    .map(|_| (rng.gen_range(-3i64..=3), vars[rng.gen_range(0..n)]))
                    .collect();
                m.add_ge(terms, rng.gen_range(-2i64..=2));
            }
            m.minimize(vars.iter().map(|&v| (rng.gen_range(-3i64..=3), v)));
            let plain = Solver::new(&m).run();
            let pre = Solver::with_config(
                &m,
                SolverConfig {
                    presolve: true,
                    ..Default::default()
                },
            )
            .run();
            assert_eq!(
                plain.best().map(|s| s.objective),
                pre.best().map(|s| s.objective)
            );
            if let Some(s) = pre.best() {
                assert!(m.is_feasible(s.values()), "presolved solution infeasible");
            }
        }
    }

    #[test]
    fn theories_off_reproduces_search_exactly() {
        // The routing flag changes speed, never the search: every stat
        // except wall-clock timing must match on random models, under
        // both strategies.
        use clip_rng::Rng;
        let mut rng = Rng::seed_from_u64(0x7E0);
        for trial in 0..25 {
            let n = rng.gen_range(2..=9usize);
            let mut m = Model::new();
            let vars: Vec<Var> = (0..n).map(|i| m.new_var(format!("v{i}"))).collect();
            for _ in 0..rng.gen_range(1..=6) {
                let k = rng.gen_range(1..=n.min(4));
                let unit = rng.gen_bool(0.7); // bias toward counting classes
                let terms: Vec<(i64, Var)> = (0..k)
                    .map(|_| {
                        let c = if unit { 1 } else { rng.gen_range(-3i64..=3) };
                        (c, vars[rng.gen_range(0..n)])
                    })
                    .collect();
                let bound = rng.gen_range(-2i64..=3);
                if rng.gen_bool(0.5) {
                    m.add_ge(terms, bound);
                } else {
                    m.add_le(terms, bound);
                }
            }
            m.minimize(vars.iter().map(|&v| (rng.gen_range(-3i64..=3), v)));
            for strategy in [SearchStrategy::Cbj, SearchStrategy::Cdcl] {
                let run = |use_theories: bool| {
                    Solver::with_config(
                        &m,
                        SolverConfig {
                            strategy,
                            use_theories,
                            ..Default::default()
                        },
                    )
                    .run()
                };
                let (on, off) = (run(true), run(false));
                assert_eq!(
                    on.best().map(|s| s.values().to_vec()),
                    off.best().map(|s| s.values().to_vec()),
                    "trial {trial} {strategy:?}: solutions diverge"
                );
                let (a, b) = (on.stats(), off.stats());
                assert_eq!(a.nodes, b.nodes, "trial {trial} {strategy:?}");
                assert_eq!(a.propagations, b.propagations, "trial {trial} {strategy:?}");
                assert_eq!(a.conflicts, b.conflicts, "trial {trial} {strategy:?}");
                assert_eq!(a.learned, b.learned, "trial {trial} {strategy:?}");
                assert_eq!(a.proved_optimal, b.proved_optimal);
                assert_eq!(a.restarts, b.restarts, "trial {trial} {strategy:?}");
                assert_eq!(a.learned_kept, b.learned_kept, "trial {trial} {strategy:?}");
                assert_eq!(a.learned_deleted, b.learned_deleted);
                assert_eq!(a.plbd_hist, b.plbd_hist, "trial {trial} {strategy:?}");
                assert_eq!(a.props_by_class, b.props_by_class);
                assert_eq!(a.conflicts_by_class, b.conflicts_by_class);
                assert_eq!(a.props_by_class.total(), a.propagations);
                assert_eq!(a.conflicts_by_class.total(), a.conflicts);
                assert_eq!(
                    a.incumbents.iter().map(|&(_, o)| o).collect::<Vec<_>>(),
                    b.incumbents.iter().map(|&(_, o)| o).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn luby_sequence_values() {
        let first: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(first, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
        // Complete subsequences end at their power-of-two peak.
        assert_eq!(luby(30), 16);
        assert_eq!(luby(62), 32);
        assert_eq!(luby(63), 1, "a new subsequence starts after the peak");
    }

    #[test]
    fn cdcl_proves_the_brute_force_optimum_reproducibly() {
        // Deterministic spot check (the broad differential lives in
        // tests/proptest_search.rs): an assignment problem with enough
        // conflicts to exercise learning.
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

        let cdcl = || {
            let config = SolverConfig {
                strategy: SearchStrategy::Cdcl,
                ..Default::default()
            };
            Solver::with_config(&m, config).run()
        };
        let first = cdcl();
        assert!(first.is_optimal());
        let (_, brute_obj) = brute::solve(&m).unwrap();
        assert_eq!(first.best().unwrap().objective, brute_obj);
        // Every learned clause is scored and accounted for.
        let st = first.stats();
        assert_eq!(st.plbd_hist.iter().sum::<u64>(), st.learned);
        assert_eq!(st.learned_kept + st.learned_deleted, st.learned);
        // A repeat of the same config is byte-reproducible.
        let again = cdcl();
        assert_eq!(
            first.best().unwrap().values(),
            again.best().unwrap().values()
        );
        let (a, b) = (first.stats(), again.stats());
        assert_eq!(
            (a.nodes, a.conflicts, a.learned, a.restarts, &a.plbd_hist),
            (b.nodes, b.conflicts, b.learned, b.restarts, &b.plbd_hist)
        );
    }

    /// Randomized differential test against brute force.
    #[test]
    fn random_models_match_brute_force() {
        use clip_rng::Rng;
        let mut rng = Rng::seed_from_u64(0xC11F);
        for trial in 0..60 {
            let n = rng.gen_range(1..=10usize);
            let mut m = Model::new();
            let vars: Vec<Var> = (0..n).map(|i| m.new_var(format!("v{i}"))).collect();
            for _ in 0..rng.gen_range(0..=8) {
                let k = rng.gen_range(1..=n.min(4));
                let mut terms = Vec::new();
                for _ in 0..k {
                    let v = vars[rng.gen_range(0..n)];
                    let c = rng.gen_range(-3i64..=3);
                    terms.push((c, v));
                }
                let bound = rng.gen_range(-3i64..=3);
                if rng.gen_bool(0.5) {
                    m.add_ge(terms, bound);
                } else {
                    m.add_le(terms, bound);
                }
            }
            let obj: Vec<(i64, Var)> = vars
                .iter()
                .map(|&v| (rng.gen_range(-5i64..=5), v))
                .collect();
            m.minimize(obj);

            let brute = brute::solve(&m);
            let out = solve(&m);
            match brute {
                None => assert!(
                    matches!(out, Outcome::Infeasible(_)),
                    "trial {trial}: expected infeasible"
                ),
                Some((_, obj)) => {
                    assert!(out.is_optimal(), "trial {trial}");
                    assert_eq!(
                        out.best().unwrap().objective,
                        obj,
                        "trial {trial}: objective mismatch"
                    );
                }
            }
        }
    }
}
