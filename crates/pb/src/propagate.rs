//! Bound-consistency propagation engine.
//!
//! Works on the pseudo-Boolean normal form of [`crate::model`]: for every
//! constraint `Σ aᵢ·litᵢ ≥ b` the engine tracks the maximum achievable
//! left-hand side given the current partial assignment — *incrementally*:
//! when a literal becomes false its coefficient is subtracted, and added
//! back on backtracking, so the per-assignment cost is O(occurrences)
//! rather than O(occurrences × constraint length). When the maximum falls
//! below `b` the constraint is conflicting; when skipping a single
//! unassigned literal would make it fall below `b`, that literal is forced
//! true. This is exactly the implication rule of logic-based 0-1
//! programming (OPBDP's "fixing" step).
//!
//! # Typed theory engines
//!
//! Every constraint carries the [`ConstraintClass`] assigned by the model
//! (see [`crate::theory`]), and the engine routes each class to a
//! specialized representation:
//!
//! * **Counting engine** — clause / at-most-one / cardinality rows (all
//!   coefficients 1) keep a packed false/true assignment counter per row
//!   instead of the slack pair: with `cap = n − b`, the row conflicts iff
//!   `false_count > cap` and forces every unassigned literal iff
//!   `false_count = cap`. One dense `u64` add per occurrence, and the hot
//!   check reads two flat arrays instead of the constraint store.
//! * **Watched-literal engine** — learned clauses use the two-watched-
//!   literal scheme ([`Engine::add_learned_clause`]); only the watch
//!   lists of a falsified literal are visited.
//! * **Slack engine** — the general-linear residue keeps the incremental
//!   max/fixed-LHS path described above.
//!
//! Routing never changes *results*: for unit-coefficient rows the counting
//! thresholds are algebraically identical to the slack tests, literals are
//! forced in term order either way, and every engine is checked at the
//! same per-occurrence visitation points, so the search tree — and
//! therefore every placement — is bit-for-bit the same with the theory
//! engines on or off (`Engine::with_theories(model, false)` keeps
//! everything on the slack path; classification is still recorded for
//! stats attribution). `crates/pb/tests/proptest_theories.rs` checks this
//! equivalence on random models.
//!
//! The engine also owns the dynamic *objective bound* constraint
//! `objective ≤ incumbent − 1` used for branch-and-bound pruning; call
//! [`Engine::set_objective_bound`] whenever a better incumbent is found.
//! Its bound moves during search, so it always stays on the slack path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::model::{Constraint, Lit, Model, Var};
use crate::theory::{ClassCounts, ConstraintClass};

/// Tri-state variable assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// Not yet assigned.
    Unassigned,
    /// Assigned false.
    False,
    /// Assigned true.
    True,
}

impl Value {
    fn from_bool(b: bool) -> Self {
        if b {
            Value::True
        } else {
            Value::False
        }
    }

    /// Returns the Boolean value if assigned.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Unassigned => None,
            Value::False => Some(false),
            Value::True => Some(true),
        }
    }
}

/// Outcome of a propagation round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropOutcome {
    /// Fixpoint reached with no contradiction.
    Consistent,
    /// The constraint with this index cannot be satisfied.
    Conflict(usize),
}

/// Product of conflict analysis: the learned clause, which of its
/// literals asserts after the backjump, and the backjump level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LearnedClause {
    /// Clause literals (at least one must hold).
    pub lits: Vec<Lit>,
    /// Index of the asserting literal within `lits`.
    pub assert_index: usize,
    /// Decision level to backjump to.
    pub backjump: u32,
}

/// One entry of a variable's occurrence list.
#[derive(Clone, Copy, Debug)]
struct Occurrence {
    constraint: u32,
    coeff: i64,
    /// Phase of the literal in the constraint.
    positive: bool,
}

/// Propagation engine over a fixed model plus the dynamic objective bound.
#[derive(Debug)]
pub struct Engine {
    constraints: Vec<Constraint>,
    /// Theory class per constraint (objective bound: general-linear).
    class: Vec<ConstraintClass>,
    /// True where the row rides the counting engine (unit coefficients
    /// and theories enabled).
    counting: Vec<bool>,
    /// Dense copy of each constraint's bound — the hot checks never touch
    /// the constraint store.
    bounds: Vec<i64>,
    /// Counting engine state: false count in the low 32 bits, true count
    /// in the high 32 bits. Zero for slack-path rows.
    counts: Vec<u64>,
    /// Counting engine conflict threshold `n − b` (false count above it
    /// is a conflict, at it forces the rest). Zero for slack-path rows.
    caps: Vec<i64>,
    /// Incrementally maintained max achievable LHS per slack-path
    /// constraint (stale for counting rows — never read there).
    max_lhs: Vec<i64>,
    /// Incrementally maintained fixed (true-literal) LHS per slack-path
    /// constraint (stale for counting rows — never read there).
    fixed_lhs: Vec<i64>,
    /// Largest coefficient per constraint (forcing-scan filter).
    max_coeff: Vec<i64>,
    /// Index of the objective-bound constraint in `constraints`, if any.
    obj_index: Option<usize>,
    /// Sum of the objective constraint's coefficients (for bound updates).
    obj_total: i64,
    occurs: Vec<Vec<Occurrence>>,
    values: Vec<Value>,
    /// Decision level at which each variable was assigned.
    levels: Vec<u32>,
    /// Forcing constraint per variable (`None` for decisions and
    /// unassigned variables).
    reasons: Vec<Option<u32>>,
    trail: Vec<Var>,
    /// Trail length at the start of each decision level.
    level_marks: Vec<usize>,
    /// Learned clauses (2-watched-literal scheme; watches are the first
    /// two literals of each clause).
    clauses: Vec<Vec<Lit>>,
    /// Pseudo-LBD of each learned clause at creation: the number of
    /// distinct decision levels among its literals. Glue clauses
    /// (PLBD ≤ 2) are exempt from database reduction.
    clause_plbd: Vec<u32>,
    /// Watch lists per literal code (`2·var + positive`).
    watches: Vec<Vec<u32>>,
    qhead: usize,
    /// Cooperative cancellation flag, polled inside the propagation
    /// drain so portfolio losers stop mid-batch.
    cancel: Option<Arc<AtomicBool>>,
    /// Set once propagation was interrupted by the cancel flag; the
    /// queue may then hold pending work.
    interrupted: bool,
    /// Number of variable assignments performed by propagation (not by
    /// decisions).
    pub propagations: u64,
    /// Propagations attributed to the class of the forcing constraint
    /// (learned clauses count as clause-theory).
    props_by_class: ClassCounts,
}

impl Engine {
    /// Builds the engine for `model` with the theory engines enabled.
    ///
    /// The objective-bound constraint is created disabled (bound far below
    /// reach) and activated by [`Engine::set_objective_bound`].
    pub fn new(model: &Model) -> Self {
        Self::with_theories(model, true)
    }

    /// Builds the engine for `model`, routing unit-coefficient classes to
    /// the counting engine only when `use_theories` holds.
    ///
    /// With theories off every row stays on the generic slack path — the
    /// reference the tests compare the counting engine against.
    /// Classification is still recorded so per-class stats attribution is
    /// identical either way.
    pub fn with_theories(model: &Model, use_theories: bool) -> Self {
        let mut constraints: Vec<Constraint> = model.constraints().to_vec();

        // Objective bound in negated-literal form:
        //   Σ c·lit ≤ K  ⇔  Σ c·~lit ≥ total − K.
        let obj = model.objective();
        let obj_total: i64 = obj.terms.iter().map(|t| t.coeff).sum();
        let obj_index = if obj.terms.is_empty() {
            None
        } else {
            let terms = obj
                .terms
                .iter()
                .map(|t| crate::model::LinTerm {
                    coeff: t.coeff,
                    lit: t.lit.negated(),
                })
                .collect();
            constraints.push(Constraint {
                terms,
                bound: i64::MIN / 2, // disabled until an incumbent exists
            });
            Some(constraints.len() - 1)
        };

        let mut class: Vec<ConstraintClass> = model.classes().to_vec();
        if obj_index.is_some() {
            // The objective bound's RHS moves during search; it is always
            // a general-linear row regardless of its coefficients.
            class.push(ConstraintClass::GeneralLinear);
        }

        let mut occurs: Vec<Vec<Occurrence>> = vec![Vec::new(); model.num_vars()];
        let mut counting = Vec::with_capacity(constraints.len());
        let mut bounds = Vec::with_capacity(constraints.len());
        let mut counts = Vec::with_capacity(constraints.len());
        let mut caps = Vec::with_capacity(constraints.len());
        let mut max_lhs = Vec::with_capacity(constraints.len());
        let mut fixed_lhs = Vec::with_capacity(constraints.len());
        let mut max_coeff = Vec::with_capacity(constraints.len());
        for (i, c) in constraints.iter().enumerate() {
            for t in &c.terms {
                occurs[t.lit.var.index()].push(Occurrence {
                    constraint: i as u32,
                    coeff: t.coeff,
                    positive: t.lit.positive,
                });
            }
            // Counting classes guarantee all-unit coefficients, the only
            // property the counter representation needs.
            let on = use_theories && class[i].is_counting();
            counting.push(on);
            bounds.push(c.bound);
            counts.push(0);
            caps.push(if on {
                c.terms.len() as i64 - c.bound
            } else {
                0
            });
            max_lhs.push(c.max_lhs());
            fixed_lhs.push(0);
            max_coeff.push(c.terms.iter().map(|t| t.coeff).max().unwrap_or(0));
        }

        Engine {
            constraints,
            class,
            counting,
            bounds,
            counts,
            caps,
            max_lhs,
            fixed_lhs,
            max_coeff,
            obj_index,
            obj_total,
            occurs,
            values: vec![Value::Unassigned; model.num_vars()],
            levels: vec![0; model.num_vars()],
            reasons: vec![None; model.num_vars()],
            trail: Vec::new(),
            level_marks: Vec::new(),
            clauses: Vec::new(),
            clause_plbd: Vec::new(),
            watches: vec![Vec::new(); 2 * model.num_vars()],
            qhead: 0,
            cancel: None,
            interrupted: false,
            propagations: 0,
            props_by_class: ClassCounts::new(),
        }
    }

    /// Tag distinguishing clause reasons/conflicts from PB constraint
    /// indices.
    const CLAUSE_TAG: usize = 1 << 30;

    /// Mask extracting the false count from a packed counting-engine word.
    const FALSE_MASK: u64 = 0xFFFF_FFFF;

    fn lit_code(l: Lit) -> usize {
        l.var.index() * 2 + usize::from(l.positive)
    }

    /// Current value of a variable.
    pub fn value(&self, v: Var) -> Value {
        self.values[v.index()]
    }

    /// All current values (indexed by variable).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of assigned variables.
    pub fn num_assigned(&self) -> usize {
        self.trail.len()
    }

    /// Snapshot of the trail position, for backtracking.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Undoes all assignments made after `mark`.
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail shrinks to mark");
            let was = self.values[v.index()];
            self.values[v.index()] = Value::Unassigned;
            self.reasons[v.index()] = None;
            // Reverse the incremental per-engine updates.
            let value = was == Value::True;
            for k in 0..self.occurs[v.index()].len() {
                let occ = self.occurs[v.index()][k];
                let lit_was_false = occ.positive != value;
                let ci = occ.constraint as usize;
                if self.counting[ci] {
                    // False count lives in the low half, true count in
                    // the high half.
                    self.counts[ci] -= 1u64 << (32 * u32::from(!lit_was_false));
                } else if lit_was_false {
                    self.max_lhs[ci] += occ.coeff;
                } else {
                    self.fixed_lhs[ci] -= occ.coeff;
                }
            }
        }
        self.qhead = self.qhead.min(mark);
    }

    /// Tightens the objective-bound constraint to `objective ≤ ub` (in
    /// terms of the model's *literal* objective sum, excluding its base).
    pub fn set_objective_bound(&mut self, ub_minus_base: i64) {
        if let Some(i) = self.obj_index {
            self.constraints[i].bound = self.obj_total - ub_minus_base;
            self.bounds[i] = self.constraints[i].bound;
        }
    }

    /// Assigns `v := value` as a decision or external fixing, updating the
    /// incremental slack of every constraint `v` occurs in.
    ///
    /// Returns false if `v` already holds the opposite value.
    pub fn assign(&mut self, v: Var, value: bool) -> bool {
        self.assign_with_reason(v, value, None)
    }

    /// Current decision level.
    pub fn decision_level(&self) -> u32 {
        self.level_marks.len() as u32
    }

    /// Opens a new decision level and assigns `v := value` as its decision.
    ///
    /// Returns false if `v` already holds the opposite value.
    pub fn assign_decision(&mut self, v: Var, value: bool) -> bool {
        self.level_marks.push(self.trail.len());
        self.assign_with_reason(v, value, None)
    }

    /// The decision level of an assigned variable.
    pub fn level_of(&self, v: Var) -> u32 {
        self.levels[v.index()]
    }

    /// The forcing constraint of an assigned variable, if it was
    /// propagated rather than decided.
    pub fn reason_of(&self, v: Var) -> Option<u32> {
        self.reasons[v.index()]
    }

    /// Undoes every assignment above decision level `target`.
    pub fn backjump_to(&mut self, target: u32) {
        while self.decision_level() > target {
            let mark = self.level_marks.pop().expect("level exists");
            self.undo_to(mark);
        }
    }

    fn assign_with_reason(&mut self, v: Var, value: bool, reason: Option<u32>) -> bool {
        match self.values[v.index()] {
            Value::Unassigned => {
                self.values[v.index()] = Value::from_bool(value);
                self.levels[v.index()] = self.decision_level();
                self.reasons[v.index()] = reason;
                self.trail.push(v);
                for k in 0..self.occurs[v.index()].len() {
                    let occ = self.occurs[v.index()][k];
                    let lit_false = occ.positive != value;
                    let ci = occ.constraint as usize;
                    if self.counting[ci] {
                        self.counts[ci] += 1u64 << (32 * u32::from(!lit_false));
                    } else if lit_false {
                        self.max_lhs[ci] -= occ.coeff;
                    } else {
                        self.fixed_lhs[ci] += occ.coeff;
                    }
                }
                true
            }
            other => other.as_bool() == Some(value),
        }
    }

    /// Runs propagation to fixpoint over constraints touched by new
    /// assignments.
    ///
    /// Polls the cooperative cancel flag (see [`Engine::set_cancel`])
    /// every 64 queue pops; on cancellation the round stops mid-drain
    /// with `Consistent` and [`Engine::interrupted`] set — the queue may
    /// then still hold pending work, so callers must abandon the search
    /// without trusting the partial fixpoint.
    pub fn propagate(&mut self) -> PropOutcome {
        let mut pops: u32 = 0;
        while self.qhead < self.trail.len() {
            pops += 1;
            if pops.is_multiple_of(64)
                && self
                    .cancel
                    .as_ref()
                    .is_some_and(|flag| flag.load(Ordering::Relaxed))
            {
                self.interrupted = true;
                return PropOutcome::Consistent;
            }
            let v = self.trail[self.qhead];
            self.qhead += 1;
            // Learned clauses first (cheap, 2-watched literals).
            let value = self.values[v.index()] == Value::True;
            let falsified = Lit {
                var: v,
                positive: !value,
            };
            if let PropOutcome::Conflict(c) = self.propagate_watches(falsified) {
                return PropOutcome::Conflict(c);
            }
            for k in 0..self.occurs[v.index()].len() {
                let ci = self.occurs[v.index()][k].constraint as usize;
                if let PropOutcome::Conflict(c) = self.examine(ci) {
                    return PropOutcome::Conflict(c);
                }
            }
        }
        PropOutcome::Consistent
    }

    /// Examines every constraint once (for root-level propagation), then
    /// runs to fixpoint.
    pub fn propagate_all(&mut self) -> PropOutcome {
        for ci in 0..self.constraints.len() {
            if let PropOutcome::Conflict(c) = self.examine(ci) {
                return PropOutcome::Conflict(c);
            }
        }
        self.propagate()
    }

    /// Examines one constraint (used to fire a freshly learned clause
    /// after a backjump, when no new assignment would otherwise trigger
    /// it), then runs propagation to fixpoint.
    pub fn propagate_from(&mut self, ci: usize) -> PropOutcome {
        if let PropOutcome::Conflict(c) = self.examine(ci) {
            return PropOutcome::Conflict(c);
        }
        self.propagate()
    }

    /// Conflict/forcing check of one constraint, dispatched to the row's
    /// theory engine.
    ///
    /// The two paths test algebraically identical conditions for
    /// unit-coefficient rows (`false_count > n − b` ⇔ `max_lhs < b`,
    /// `false_count = n − b` ⇔ `max_lhs − max_coeff < b` once the
    /// conflict case is excluded) and force literals in the same order,
    /// which is what keeps results independent of the routing.
    #[inline]
    fn examine(&mut self, ci: usize) -> PropOutcome {
        if self.counting[ci] {
            let fc = (self.counts[ci] & Self::FALSE_MASK) as i64;
            let cap = self.caps[ci];
            if fc > cap {
                return PropOutcome::Conflict(ci);
            }
            if fc == cap {
                if let PropOutcome::Conflict(c) = self.force_rest(ci) {
                    return PropOutcome::Conflict(c);
                }
            }
        } else {
            let bound = self.bounds[ci];
            if self.max_lhs[ci] < bound {
                return PropOutcome::Conflict(ci);
            }
            // Forcing possible only when some coefficient loss would
            // break the bound.
            if self.max_lhs[ci] - self.max_coeff[ci] < bound {
                if let PropOutcome::Conflict(c) = self.force_scan(ci) {
                    return PropOutcome::Conflict(c);
                }
            }
        }
        PropOutcome::Consistent
    }

    /// Counting-engine forcing: with the false count at the cap, every
    /// unassigned literal must hold. Forces them in term order — the same
    /// order [`Engine::force_scan`] uses.
    fn force_rest(&mut self, ci: usize) -> PropOutcome {
        let n_terms = self.constraints[ci].terms.len();
        for t in 0..n_terms {
            let lit = self.constraints[ci].terms[t].lit;
            if self.lit_value(lit) == Value::Unassigned {
                self.propagations += 1;
                self.props_by_class.add(self.class[ci]);
                let ok = self.assign_with_reason(lit.var, lit.positive, Some(ci as u32));
                debug_assert!(ok, "forced literal was unassigned");
            }
        }
        // Forcing our own literals true never raises the false count, but
        // the recheck mirrors the slack engine's post-scan conflict test.
        if (self.counts[ci] & Self::FALSE_MASK) as i64 > self.caps[ci] {
            PropOutcome::Conflict(ci)
        } else {
            PropOutcome::Consistent
        }
    }

    /// Forces every unassigned literal whose loss would break `ci`.
    fn force_scan(&mut self, ci: usize) -> PropOutcome {
        let bound = self.bounds[ci];
        let max_lhs = self.max_lhs[ci];
        let n_terms = self.constraints[ci].terms.len();
        for t in 0..n_terms {
            let term = self.constraints[ci].terms[t];
            if self.lit_value(term.lit) == Value::Unassigned && max_lhs - term.coeff < bound {
                self.propagations += 1;
                self.props_by_class.add(self.class[ci]);
                let ok = self.assign_with_reason(term.lit.var, term.lit.positive, Some(ci as u32));
                debug_assert!(ok, "forced literal was unassigned");
                // Assigning may have changed slacks of other constraints,
                // handled when the queue drains; this constraint's own
                // max_lhs is unchanged (the literal stayed achievable).
            }
        }
        if self.max_lhs[ci] < bound {
            PropOutcome::Conflict(ci)
        } else {
            PropOutcome::Consistent
        }
    }

    fn lit_value(&self, lit: Lit) -> Value {
        match self.values[lit.var.index()] {
            Value::Unassigned => Value::Unassigned,
            Value::True => Value::from_bool(lit.positive),
            Value::False => Value::from_bool(!lit.positive),
        }
    }

    /// Read-only view of the engine's constraints (model constraints first,
    /// then the objective bound if present, then learned clauses).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Index of the objective-bound constraint, if the model has an
    /// objective.
    pub fn objective_index(&self) -> Option<usize> {
        self.obj_index
    }

    /// Processes the watch list of a literal that just became false.
    fn propagate_watches(&mut self, falsified: Lit) -> PropOutcome {
        let code = Self::lit_code(falsified);
        let mut i = 0;
        while i < self.watches[code].len() {
            let cid = self.watches[code][i] as usize;
            // Normalize: the falsified literal sits at position 1.
            if self.clauses[cid][0] == falsified {
                self.clauses[cid].swap(0, 1);
            }
            let first = self.clauses[cid][0];
            if self.lit_value(first) == Value::True {
                i += 1;
                continue; // clause satisfied
            }
            // Look for a replacement watch.
            let replacement = (2..self.clauses[cid].len())
                .find(|&k| self.lit_value(self.clauses[cid][k]) != Value::False);
            match replacement {
                Some(k) => {
                    self.clauses[cid].swap(1, k);
                    let new_watch = self.clauses[cid][1];
                    self.watches[code].swap_remove(i);
                    self.watches[Self::lit_code(new_watch)].push(cid as u32);
                    // do not advance i: swap_remove moved a new entry here
                }
                None => match self.lit_value(first) {
                    Value::Unassigned => {
                        self.propagations += 1;
                        self.props_by_class.add(ConstraintClass::Clause);
                        let ok = self.assign_with_reason(
                            first.var,
                            first.positive,
                            Some((Self::CLAUSE_TAG | cid) as u32),
                        );
                        debug_assert!(ok);
                        i += 1;
                    }
                    Value::False => {
                        return PropOutcome::Conflict(Self::CLAUSE_TAG | cid);
                    }
                    Value::True => unreachable!("checked above"),
                },
            }
        }
        PropOutcome::Consistent
    }

    /// Stores a learned clause and returns its reason tag. The first
    /// literal must be the asserting one (unassigned after the backjump);
    /// the second watch is chosen as the deepest-level false literal.
    ///
    /// # Panics
    ///
    /// Panics on an empty clause.
    pub fn add_learned_clause(&mut self, mut lits: Vec<Lit>, assert_index: usize) -> usize {
        assert!(!lits.is_empty(), "empty learned clause");
        lits.swap(0, assert_index);
        // Pseudo-LBD at creation: distinct decision levels among the
        // clause's literals (all assigned when the conflict was analyzed).
        let mut lvls: Vec<u32> = lits.iter().map(|l| self.levels[l.var.index()]).collect();
        lvls.sort_unstable();
        lvls.dedup();
        self.clause_plbd.push(lvls.len() as u32);
        let cid = self.clauses.len();
        if lits.len() >= 2 {
            // Second watch: the deepest-assigned literal.
            let deepest = (1..lits.len())
                .max_by_key(|&k| self.levels[lits[k].var.index()])
                .expect("len >= 2");
            lits.swap(1, deepest);
            self.watches[Self::lit_code(lits[0])].push(cid as u32);
            self.watches[Self::lit_code(lits[1])].push(cid as u32);
        }
        // Unit clauses need no watches: they are asserted at level 0 and
        // never undone.
        self.clauses.push(lits);
        Self::CLAUSE_TAG | cid
    }

    /// Asserts the first literal of a learned clause with that clause as
    /// its reason (call directly after [`Engine::backjump_to`]).
    ///
    /// Returns false if the literal is already falsified.
    pub fn assert_learned(&mut self, reason_tag: usize) -> bool {
        let cid = reason_tag & !Self::CLAUSE_TAG;
        let lit = self.clauses[cid][0];
        self.assign_with_reason(lit.var, lit.positive, Some(reason_tag as u32))
    }

    /// Number of learned clauses.
    pub fn num_learned(&self) -> usize {
        self.clauses.len()
    }

    /// Pseudo-LBD recorded when the learned clause behind `reason_tag`
    /// was created.
    pub fn learned_plbd(&self, reason_tag: usize) -> u32 {
        self.clause_plbd[reason_tag & !Self::CLAUSE_TAG]
    }

    /// The assignment trail, oldest assignment first.
    pub fn trail(&self) -> &[Var] {
        &self.trail
    }

    /// Trail length when decision level `target` was current: the
    /// variables at `trail()[mark..]` are exactly the ones a
    /// [`Engine::backjump_to`]`(target)` would unassign.
    pub fn trail_mark_of_level(&self, target: u32) -> usize {
        self.level_marks
            .get(target as usize)
            .copied()
            .unwrap_or(self.trail.len())
    }

    /// Attaches a cooperative cancellation flag, polled every 64 queue
    /// pops inside [`Engine::propagate`] so a portfolio loser stops
    /// mid-batch instead of finishing a long implication chain first.
    pub fn set_cancel(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = Some(flag);
    }

    /// True once a propagation round was cut short by the cancel flag.
    /// The propagation queue may hold pending work; the engine state is
    /// only good for abandoning the search.
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// PLBD-scored learned-database reduction. Call at decision level 0
    /// (a restart boundary) with propagation at fixpoint.
    ///
    /// Deletes the worst half of the deletable learned clauses, ranked
    /// worst-first by PLBD (ties: longer clause first, then older).
    /// Exempt from deletion: glue clauses (PLBD ≤ 2), unit clauses, and
    /// locked clauses (currently the reason of an assigned variable).
    /// Watch lists are rebuilt from scratch and reason tags remapped to
    /// the compacted indices.
    ///
    /// Returns `(kept, deleted, outcome)`. The outcome is a conflict in
    /// the rare case a surviving clause is falsified at the root — the
    /// search under the current objective bound is then exhausted. It
    /// can also assert root-level units discovered during the rebuild
    /// (counted as propagations), so run [`Engine::propagate`] after.
    ///
    /// # Panics
    ///
    /// Panics when called above decision level 0.
    pub fn reduce_learned(&mut self) -> (u64, u64, PropOutcome) {
        assert_eq!(self.decision_level(), 0, "reduce only at the root");
        // Locked clauses: those serving as the reason of an assignment.
        let mut locked = vec![false; self.clauses.len()];
        for &v in &self.trail {
            if let Some(r) = self.reasons[v.index()] {
                let r = r as usize;
                if r & Self::CLAUSE_TAG != 0 {
                    locked[r & !Self::CLAUSE_TAG] = true;
                }
            }
        }
        // Deletable candidates sorted worst-first: higher PLBD, then
        // longer, then smaller id (older). Glue and unit clauses never
        // qualify.
        let mut candidates: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&cid| {
                let c = cid as usize;
                self.clause_plbd[c] > 2 && self.clauses[c].len() > 2 && !locked[c]
            })
            .collect();
        candidates.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            (self.clause_plbd[b], self.clauses[b].len())
                .cmp(&(self.clause_plbd[a], self.clauses[a].len()))
                .then(a.cmp(&b))
        });
        let deleted = candidates.len() / 2;
        let mut keep = vec![true; self.clauses.len()];
        for &cid in &candidates[..deleted] {
            keep[cid as usize] = false;
        }
        // Compact the store and build the old-id → new-id map.
        let mut remap = vec![u32::MAX; self.clauses.len()];
        let old_plbd = std::mem::take(&mut self.clause_plbd);
        let mut clauses = Vec::with_capacity(self.clauses.len() - deleted);
        let mut plbd = Vec::with_capacity(self.clauses.len() - deleted);
        for (cid, cl) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if keep[cid] {
                remap[cid] = clauses.len() as u32;
                clauses.push(cl);
                plbd.push(old_plbd[cid]);
            }
        }
        self.clauses = clauses;
        self.clause_plbd = plbd;
        // Remap clause reason tags on the trail (all kept: locked are
        // exempt above).
        for i in 0..self.trail.len() {
            let v = self.trail[i];
            if let Some(r) = self.reasons[v.index()] {
                let r = r as usize;
                if r & Self::CLAUSE_TAG != 0 {
                    let new = remap[r & !Self::CLAUSE_TAG];
                    debug_assert_ne!(new, u32::MAX, "reason clause was deleted");
                    self.reasons[v.index()] = Some((Self::CLAUSE_TAG | new as usize) as u32);
                }
            }
        }
        // Rebuild every watch list from scratch. Order each clause so
        // positions 0/1 hold sound watches: a satisfying literal (the
        // clause is then inert until backtracking below the root — which
        // never happens for root-satisfied literals), else two non-false
        // literals. A clause with fewer than two non-false literals is
        // unit or false *at the root*: assert or conflict right here.
        for w in &mut self.watches {
            w.clear();
        }
        let mut outcome = PropOutcome::Consistent;
        for cid in 0..self.clauses.len() {
            if self.clauses[cid].len() < 2 {
                continue; // units were asserted at creation, never watched
            }
            let sat = self.clauses[cid]
                .iter()
                .position(|&l| self.lit_value(l) == Value::True);
            if let Some(k) = sat {
                self.clauses[cid].swap(0, k);
            } else {
                let mut free = 0usize;
                for k in 0..self.clauses[cid].len() {
                    if self.lit_value(self.clauses[cid][k]) != Value::False {
                        self.clauses[cid].swap(free, k);
                        free += 1;
                        if free == 2 {
                            break;
                        }
                    }
                }
                if free == 0 {
                    outcome = PropOutcome::Conflict(Self::CLAUSE_TAG | cid);
                } else if free == 1 {
                    // Root-level unit discovered by the rebuild.
                    let lit = self.clauses[cid][0];
                    self.propagations += 1;
                    self.props_by_class.add(ConstraintClass::Clause);
                    let ok = self.assign_with_reason(
                        lit.var,
                        lit.positive,
                        Some((Self::CLAUSE_TAG | cid) as u32),
                    );
                    debug_assert!(ok, "unit literal was unassigned");
                }
            }
            let (w0, w1) = (self.clauses[cid][0], self.clauses[cid][1]);
            self.watches[Self::lit_code(w0)].push(cid as u32);
            self.watches[Self::lit_code(w1)].push(cid as u32);
        }
        (self.clauses.len() as u64, deleted as u64, outcome)
    }

    /// The false literals of a conflict or reason source (PB constraint or
    /// learned clause).
    fn false_vars_of(&self, tag: usize, out: &mut Vec<Var>) {
        if tag & Self::CLAUSE_TAG != 0 {
            let cid = tag & !Self::CLAUSE_TAG;
            for &l in &self.clauses[cid] {
                if self.lit_value(l) == Value::False {
                    out.push(l.var);
                }
            }
        } else {
            for t in &self.constraints[tag].terms {
                if self.lit_value(t.lit) == Value::False {
                    out.push(t.lit.var);
                }
            }
        }
    }

    /// The decisions responsible for a conflict (transitive reason walk).
    ///
    /// An empty result means the conflict holds at the root level — under
    /// the current objective bound the search space is exhausted.
    pub fn involved_decisions(&self, conflict: usize) -> Vec<Var> {
        let mut seen = vec![false; self.values.len()];
        let mut stack: Vec<Var> = Vec::new();
        self.false_vars_of(conflict, &mut stack);
        let mut decisions: Vec<Var> = Vec::new();
        while let Some(v) = stack.pop() {
            if seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            if self.levels[v.index()] == 0 {
                continue;
            }
            match self.reasons[v.index()] {
                None => decisions.push(v),
                Some(cr) => self.false_vars_of(cr as usize, &mut stack),
            }
        }
        decisions
    }

    /// Decision-set conflict analysis.
    ///
    /// Walks the implication graph backwards from the false literals of
    /// the conflicting constraint to the *decisions* responsible for it,
    /// and returns the learned clause "not all of these decisions
    /// together" plus the backjump level (the second-deepest decision
    /// level involved). After backjumping, the clause asserts the negation
    /// of the deepest involved decision. Every above-root variable the
    /// walk visits (decisions *and* propagated variables) is appended to
    /// `visited` — the bump set for activity-driven branching.
    ///
    /// Returns `None` when no decision is responsible — the conflict holds
    /// at the root, i.e. the problem (under the current objective bound)
    /// is exhausted.
    pub fn analyze_collecting(
        &self,
        conflict: usize,
        visited: &mut Vec<Var>,
    ) -> Option<LearnedClause> {
        let mut seen = vec![false; self.values.len()];
        let mut stack: Vec<Var> = Vec::new();
        self.false_vars_of(conflict, &mut stack);
        let mut decisions: Vec<Var> = Vec::new();
        while let Some(v) = stack.pop() {
            if seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            if self.levels[v.index()] == 0 {
                continue; // root-level fact
            }
            visited.push(v);
            match self.reasons[v.index()] {
                None => decisions.push(v),
                Some(cr) => self.false_vars_of(cr as usize, &mut stack),
            }
        }
        if decisions.is_empty() {
            return None;
        }
        // Learned clause: at least one of the involved decisions must flip.
        let lits: Vec<Lit> = decisions
            .iter()
            .map(|&d| {
                if self.values[d.index()] == Value::True {
                    d.neg()
                } else {
                    d.pos()
                }
            })
            .collect();
        // Deepest decision asserts; backjump to the second-deepest level.
        let assert_index = (0..decisions.len())
            .max_by_key(|&k| self.levels[decisions[k].index()])
            .expect("non-empty");
        let mut levels: Vec<u32> = decisions.iter().map(|&d| self.levels[d.index()]).collect();
        levels.sort_unstable();
        let backjump = if levels.len() >= 2 {
            levels[levels.len() - 2]
        } else {
            0
        };
        Some(LearnedClause {
            lits,
            assert_index,
            backjump,
        })
    }
    /// Slack information of a constraint under the current assignment:
    /// `(max_achievable_lhs − bound, fixed_true_lhs − bound)`.
    ///
    /// For counting rows both components are reconstructed from the
    /// packed counters (`max_lhs = n − false_count`,
    /// `fixed_lhs = true_count`), so branching heuristics that read
    /// slacks see identical numbers on either engine.
    pub fn slack(&self, ci: usize) -> (i64, i64) {
        if self.counting[ci] {
            let fc = (self.counts[ci] & Self::FALSE_MASK) as i64;
            let tc = (self.counts[ci] >> 32) as i64;
            (self.caps[ci] - fc, tc - self.bounds[ci])
        } else {
            let bound = self.bounds[ci];
            (self.max_lhs[ci] - bound, self.fixed_lhs[ci] - bound)
        }
    }

    /// Theory class of a constraint (the objective-bound row is
    /// general-linear).
    pub fn class_of(&self, ci: usize) -> ConstraintClass {
        self.class[ci]
    }

    /// Theory class of a conflict or reason tag as returned by
    /// [`Engine::propagate`]: learned clauses are clause-theory, PB rows
    /// carry their model class.
    pub fn class_of_conflict(&self, tag: usize) -> ConstraintClass {
        if tag & Self::CLAUSE_TAG != 0 {
            ConstraintClass::Clause
        } else {
            self.class[tag]
        }
    }

    /// Propagations attributed to each theory class (learned-clause
    /// propagations count as clause-theory).
    pub fn props_by_class(&self) -> ClassCounts {
        self.props_by_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn unit_constraints_force_at_root() {
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        m.fix(x, true);
        m.add_ge([(1, y), (-1, x)], 0); // y >= x
        let mut e = Engine::new(&m);
        assert_eq!(e.propagate_all(), PropOutcome::Consistent);
        assert_eq!(e.value(x), Value::True);
        assert_eq!(e.value(y), Value::True);
        assert!(e.propagations >= 2);
    }

    #[test]
    fn conflicts_are_detected() {
        let mut m = Model::new();
        let x = m.new_var("x");
        m.fix(x, true);
        m.fix(x, false);
        let mut e = Engine::new(&m);
        assert!(matches!(e.propagate_all(), PropOutcome::Conflict(_)));
    }

    #[test]
    fn decision_then_propagation() {
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        m.add_ge([(1, x), (1, y), (1, z)], 1);
        let mut e = Engine::new(&m);
        assert_eq!(e.propagate_all(), PropOutcome::Consistent);
        assert!(e.assign(x, false));
        assert!(e.assign(y, false));
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert_eq!(e.value(z), Value::True); // forced by the clause
    }

    #[test]
    fn undo_restores_state_and_slacks() {
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        m.add_ge([(1, x), (1, y)], 1);
        let mut e = Engine::new(&m);
        e.propagate_all();
        let slack_before = e.slack(0);
        let mark = e.mark();
        e.assign(x, false);
        e.propagate();
        assert_eq!(e.value(y), Value::True);
        e.undo_to(mark);
        assert_eq!(e.value(x), Value::Unassigned);
        assert_eq!(e.value(y), Value::Unassigned);
        assert_eq!(e.num_assigned(), 0);
        assert_eq!(e.slack(0), slack_before);
    }

    #[test]
    fn coefficient_forcing() {
        // 3x + y >= 3 forces x immediately.
        let mut m = Model::new();
        let x = m.new_var("x");
        let _y = m.new_var("y");
        m.add_ge([(3, x), (1, Var(1))], 3);
        let mut e = Engine::new(&m);
        assert_eq!(e.propagate_all(), PropOutcome::Consistent);
        assert_eq!(e.value(x), Value::True);
    }

    #[test]
    fn objective_bound_prunes() {
        // minimize x + y subject to x + y >= 1; bound objective <= 0 makes
        // the problem infeasible.
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        m.add_ge([(1, x), (1, y)], 1);
        m.minimize([(1, x), (1, y)]);
        let mut e = Engine::new(&m);
        e.set_objective_bound(0);
        assert!(matches!(e.propagate_all(), PropOutcome::Conflict(_)));

        let mut e = Engine::new(&m);
        e.set_objective_bound(1);
        assert_eq!(e.propagate_all(), PropOutcome::Consistent);
    }

    #[test]
    fn slack_reports_progress() {
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        m.add_ge([(2, x), (1, y)], 2);
        let mut e = Engine::new(&m);
        let (max_slack, fixed_slack) = e.slack(0);
        assert_eq!(max_slack, 1); // 3 - 2
        assert_eq!(fixed_slack, -2); // 0 - 2
        e.assign(x, true);
        let (_, fixed_slack) = e.slack(0);
        assert_eq!(fixed_slack, 0);
    }

    #[test]
    fn learned_clauses_propagate_via_watches() {
        let mut m = Model::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let mut e = Engine::new(&m);
        // Learn (~a | ~b | c) with c as the asserting literal.
        let tag = e.add_learned_clause(vec![c.pos(), a.neg(), b.neg()], 0);
        assert_eq!(e.num_learned(), 1);
        let _ = tag;
        e.assign_decision(a, true);
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert_eq!(e.value(c), Value::Unassigned, "one watch still free");
        e.assign_decision(b, true);
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert_eq!(e.value(c), Value::True, "clause asserted c");
        // Backtrack fully: watches must keep working on re-assignment.
        e.backjump_to(0);
        assert_eq!(e.value(c), Value::Unassigned);
        e.assign_decision(b, true);
        e.assign_decision(a, true);
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert_eq!(e.value(c), Value::True);
    }

    #[test]
    fn clause_conflicts_are_reported_and_analyzed() {
        let mut m = Model::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let mut e = Engine::new(&m);
        e.add_learned_clause(vec![a.neg(), b.neg()], 0);
        e.assign_decision(a, true);
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        // a=1 forces ~b.
        assert_eq!(e.value(b), Value::False);
        // Conflicting second clause: (b) alone cannot hold now.
        let tag = e.add_learned_clause(vec![b.pos()], 0);
        assert!(!e.assert_learned(tag), "b already false");
    }

    #[test]
    fn analyze_walks_reasons_to_decisions() {
        let mut m = Model::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let d = m.new_var("d");
        m.add_ge([(1, a), (1, b), (1, c), (1, d)], 2);
        m.add_le([(1, c), (1, d)], 1);
        let mut e = Engine::new(&m);
        assert_eq!(e.propagate_all(), PropOutcome::Consistent);
        // Level 1: a = false (no propagation yet).
        e.assign_decision(a, false);
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert_eq!(e.value(c), Value::Unassigned);
        // Level 2: b = false forces c = d = true -> conflict with c+d <= 1.
        e.assign_decision(b, false);
        let PropOutcome::Conflict(ci) = e.propagate() else {
            panic!("expected a conflict");
        };
        let mut decisions = e.involved_decisions(ci);
        decisions.sort();
        assert_eq!(decisions, vec![a, b], "both decisions are responsible");
        let mut visited = Vec::new();
        let lc = e
            .analyze_collecting(ci, &mut visited)
            .expect("decisions involved");
        visited.sort();
        assert_eq!(
            visited,
            vec![a, b, c, d],
            "the walk visits every implied var"
        );
        assert_eq!(lc.lits.len(), 2);
        assert!(lc.lits.contains(&a.pos()) && lc.lits.contains(&b.pos()));
        assert_eq!(
            lc.lits[lc.assert_index],
            b.pos(),
            "deepest decision asserts"
        );
        assert_eq!(lc.backjump, 1, "jump to the level of a");
    }

    #[test]
    fn backjump_skips_levels() {
        let mut m = Model::new();
        let vars: Vec<Var> = (0..4).map(|i| m.new_var(format!("v{i}"))).collect();
        let mut e = Engine::new(&m);
        for (i, &v) in vars.iter().enumerate() {
            e.assign_decision(v, true);
            assert_eq!(e.decision_level(), i as u32 + 1);
            assert_eq!(e.level_of(v), i as u32 + 1);
        }
        e.backjump_to(1);
        assert_eq!(e.decision_level(), 1);
        assert_eq!(e.value(vars[0]), Value::True);
        for &v in &vars[1..] {
            assert_eq!(e.value(v), Value::Unassigned);
        }
    }

    #[test]
    fn counting_rows_force_and_conflict_like_the_slack_path() {
        // exactly-one over {a,b,c}: falsifying a and b forces c;
        // falsifying all three conflicts on the clause row.
        let mut m = Model::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        m.add_exactly_one([a.pos(), b.pos(), c.pos()]);
        let mut e = Engine::new(&m);
        assert_eq!(e.class_of(0), ConstraintClass::Clause);
        assert_eq!(e.class_of(1), ConstraintClass::AtMostOne);
        assert_eq!(e.propagate_all(), PropOutcome::Consistent);
        e.assign(a, false);
        e.assign(b, false);
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert_eq!(e.value(c), Value::True, "clause row forces the rest");
        assert_eq!(
            e.props_by_class().get(ConstraintClass::Clause),
            e.propagations
        );
        // And the AMO row forces the complements: a=true pins b,c false.
        let mut e = Engine::new(&m);
        e.propagate_all();
        e.assign(a, true);
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert_eq!(e.value(b), Value::False);
        assert_eq!(e.value(c), Value::False);
        assert!(e.props_by_class().get(ConstraintClass::AtMostOne) >= 2);
        // Conflict: nothing true.
        let mut e = Engine::new(&m);
        e.propagate_all();
        e.assign(a, false);
        e.assign(b, false);
        e.assign(c, false);
        let PropOutcome::Conflict(ci) = e.propagate() else {
            panic!("expected a conflict");
        };
        assert_eq!(e.class_of_conflict(ci), ConstraintClass::Clause);
    }

    #[test]
    fn theories_off_keeps_everything_on_the_slack_path() {
        let mut m = Model::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        m.add_exactly_one([a.pos(), b.pos(), c.pos()]);
        let mut e = Engine::with_theories(&m, false);
        assert_eq!(e.propagate_all(), PropOutcome::Consistent);
        e.assign(a, false);
        e.assign(b, false);
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert_eq!(e.value(c), Value::True);
        // Attribution still uses the recorded classes.
        assert_eq!(
            e.props_by_class().get(ConstraintClass::Clause),
            e.propagations
        );
    }

    #[test]
    fn engines_agree_in_lockstep_on_random_walks() {
        // Drive a theories-on and a theories-off engine through the same
        // random decision/undo sequence over a model mixing all classes;
        // values, slacks, outcomes, and counters must match at every step.
        use clip_rng::Rng;
        let mut m = Model::new();
        let vars: Vec<Var> = (0..10).map(|i| m.new_var(format!("v{i}"))).collect();
        m.add_exactly_one(vars[0..4].iter().map(|v| v.pos()));
        m.add_at_most_one(vars[3..6].iter().map(|v| v.pos()));
        m.add_clause([vars[6].pos(), vars[7].neg(), vars[8].pos()]);
        m.add_ge(vars[4..8].iter().map(|&v| (1, v)), 2); // cardinality
        m.add_ge([(2, vars[8]), (1, vars[9]), (-1, vars[0])], 1); // linear
        m.minimize(vars.iter().map(|&v| (1, v)));
        let mut rng = Rng::seed_from_u64(42);
        let mut on = Engine::new(&m);
        let mut off = Engine::with_theories(&m, false);
        on.set_objective_bound(6);
        off.set_objective_bound(6);
        assert_eq!(on.propagate_all(), off.propagate_all());
        for _ in 0..200 {
            let v = vars[rng.gen_range(0..10)];
            if on.value(v) != Value::Unassigned {
                on.backjump_to(0);
                off.backjump_to(0);
                continue;
            }
            let val = rng.gen_bool(0.5);
            assert_eq!(on.assign_decision(v, val), off.assign_decision(v, val));
            let (a, b) = (on.propagate(), off.propagate());
            assert_eq!(a, b, "outcomes diverge");
            assert_eq!(on.values(), off.values(), "assignments diverge");
            assert_eq!(on.propagations, off.propagations);
            assert_eq!(on.props_by_class(), off.props_by_class());
            for ci in 0..on.constraints().len() {
                assert_eq!(on.slack(ci), off.slack(ci), "slack diverges at {ci}");
            }
            if let PropOutcome::Conflict(ci) = a {
                assert_eq!(on.class_of_conflict(ci), off.class_of_conflict(ci));
                let jump = on.decision_level().saturating_sub(1);
                on.backjump_to(jump);
                off.backjump_to(jump);
            }
        }
    }

    #[test]
    fn reduce_learned_drops_the_worst_half_and_keeps_glue() {
        let mut m = Model::new();
        let vars: Vec<Var> = (0..5).map(|i| m.new_var(format!("v{i}"))).collect();
        let mut e = Engine::new(&m);
        // Stack four decision levels so clause PLBDs differ at creation;
        // v4 rides level 1 so a 3-literal glue clause exists.
        e.assign_decision(vars[0], true);
        e.assign(vars[4], true);
        e.assign_decision(vars[1], true);
        e.assign_decision(vars[2], true);
        e.assign_decision(vars[3], true);
        // Glue: 3 literals over 2 distinct levels (PLBD 2) — exempt.
        let glue = e.add_learned_clause(vec![vars[4].neg(), vars[0].neg(), vars[1].neg()], 0);
        // Deletable, PLBD 3.
        let mid = e.add_learned_clause(vec![vars[0].neg(), vars[1].neg(), vars[2].neg()], 0);
        // Deletable, PLBD 4 — the worst, deleted first.
        let worst = e.add_learned_clause(
            vec![vars[0].neg(), vars[1].neg(), vars[2].neg(), vars[3].neg()],
            0,
        );
        assert_eq!(e.learned_plbd(glue), 2);
        assert_eq!(e.learned_plbd(mid), 3);
        assert_eq!(e.learned_plbd(worst), 4);
        e.backjump_to(0);
        let (kept, deleted, outcome) = e.reduce_learned();
        assert_eq!(outcome, PropOutcome::Consistent);
        assert_eq!((kept, deleted), (2, 1), "worst half of 2 candidates");
        assert_eq!(e.num_learned(), 2);
        // Survivors keep their ids (the deleted clause was last) and PLBDs.
        assert_eq!(e.learned_plbd(glue), 2);
        assert_eq!(e.learned_plbd(mid), 3);
        // Surviving clauses still propagate via the rebuilt watches.
        e.assign_decision(vars[0], true);
        e.assign_decision(vars[1], true);
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert_eq!(e.value(vars[4]), Value::False, "glue clause fired");
        assert_eq!(e.value(vars[2]), Value::False, "mid clause fired");
    }

    #[test]
    fn reduce_learned_reasserts_root_units_and_detects_root_conflicts() {
        let mut m = Model::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let mut e = Engine::new(&m);
        e.add_learned_clause(vec![a.pos(), b.pos(), c.pos()], 0);
        assert!(e.assign(a, false) && e.assign(b, false));
        let before = e.propagations;
        let (kept, deleted, outcome) = e.reduce_learned();
        assert_eq!((kept, deleted), (1, 0));
        assert_eq!(outcome, PropOutcome::Consistent);
        assert_eq!(e.value(c), Value::True, "rebuild asserted the root unit");
        assert_eq!(e.propagations, before + 1);

        let mut e = Engine::new(&m);
        e.add_learned_clause(vec![a.pos(), b.pos(), c.pos()], 0);
        assert!(e.assign(a, false) && e.assign(b, false) && e.assign(c, false));
        let (_, _, outcome) = e.reduce_learned();
        assert!(
            matches!(outcome, PropOutcome::Conflict(_)),
            "all-false clause is a root conflict"
        );
    }

    #[test]
    fn propagation_is_interrupted_by_the_cancel_flag() {
        // 200-variable implication chain: assigning v0 true forces the
        // whole chain one propagation at a time.
        let mut m = Model::new();
        let vars: Vec<Var> = (0..200).map(|i| m.new_var(format!("v{i}"))).collect();
        for w in vars.windows(2) {
            m.add_ge([(1, w[1]), (-1, w[0])], 0); // v_{i+1} >= v_i
        }
        let mut e = Engine::new(&m);
        assert_eq!(e.propagate_all(), PropOutcome::Consistent);
        let flag = Arc::new(AtomicBool::new(true)); // cancelled before start
        e.set_cancel(Arc::clone(&flag));
        assert!(e.assign(vars[0], true));
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert!(e.interrupted(), "poll observed the flag mid-drain");
        assert!(
            e.num_assigned() < 150,
            "stopped well before the chain finished ({} assigned)",
            e.num_assigned()
        );

        // Without the flag the same chain runs to fixpoint.
        let mut e = Engine::new(&m);
        e.propagate_all();
        e.set_cancel(Arc::new(AtomicBool::new(false)));
        assert!(e.assign(vars[0], true));
        assert_eq!(e.propagate(), PropOutcome::Consistent);
        assert!(!e.interrupted());
        assert_eq!(e.num_assigned(), 200);
    }

    #[test]
    fn deep_assign_undo_cycles_preserve_slacks() {
        // Randomized stress: slacks after arbitrary assign/undo sequences
        // must match recomputation from scratch.
        use clip_rng::Rng;
        let mut m = Model::new();
        let vars: Vec<Var> = (0..8).map(|i| m.new_var(format!("v{i}"))).collect();
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10 {
            let terms: Vec<(i64, Var)> = (0..4)
                .map(|_| (rng.gen_range(-3i64..=3), vars[rng.gen_range(0..8)]))
                .collect();
            m.add_ge(terms, rng.gen_range(-2i64..=2));
        }
        let mut e = Engine::new(&m);
        let reference: Vec<(i64, i64)> = (0..e.constraints().len()).map(|ci| e.slack(ci)).collect();
        for _ in 0..50 {
            let mark = e.mark();
            for _ in 0..rng.gen_range(1..6) {
                let v = vars[rng.gen_range(0..8)];
                if e.value(v) == Value::Unassigned {
                    e.assign(v, rng.gen_bool(0.5));
                }
            }
            e.undo_to(mark);
            let now: Vec<(i64, i64)> = (0..e.constraints().len()).map(|ci| e.slack(ci)).collect();
            assert_eq!(now, reference);
        }
    }
}
