//! Presolve: root-level model simplification.
//!
//! Before search, the model is tightened without changing its feasible
//! set or its variable indexing:
//!
//! 1. **Root fixing** — literals forced by propagation alone are fixed and
//!    substituted into every constraint (re-asserted as unit constraints
//!    so `Model::is_feasible` semantics are unchanged);
//! 2. **Trivial removal** — constraints satisfied by every remaining
//!    assignment are dropped;
//! 3. **Coefficient saturation** — in `Σ aᵢ·litᵢ ≥ b` any `aᵢ > b` can be
//!    lowered to `b` (a classic pseudo-Boolean strengthening: the literal
//!    alone already satisfies the constraint either way). Saturated
//!    coefficients shrink the engine's `max_coeff`, firing the forcing
//!    scan earlier.
//!
//! Infeasibility discovered at the root is reported directly.

use crate::model::{Constraint, LinTerm, Model};
use crate::propagate::{Engine, PropOutcome, Value};
use crate::theory::ClassCounts;

/// Outcome of presolving.
#[derive(Clone, Debug)]
pub enum Presolved {
    /// The simplified model (same variable count and indexing) plus
    /// statistics.
    Model(Model, PresolveStats),
    /// The model is infeasible at the root.
    Infeasible,
}

/// What presolve accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Variables fixed by root propagation.
    pub fixed_vars: usize,
    /// Constraints removed as trivially satisfied.
    pub removed_constraints: usize,
    /// Coefficients lowered by saturation.
    pub saturated_coeffs: usize,
    /// Per-class constraint histogram of the presolved model.
    pub classes: ClassCounts,
}

/// Presolves `model` with the theory engines enabled.
pub fn presolve(model: &Model) -> Presolved {
    presolve_with(model, true)
}

/// Presolves `model`, routing root propagation through the theory
/// engines only when `use_theories` holds (results are identical either
/// way; [`SolverConfig::use_theories`](crate::SolverConfig::use_theories)
/// passes the slack-path reference through, so a theory-engine bug
/// cannot hide inside presolve).
pub fn presolve_with(model: &Model, use_theories: bool) -> Presolved {
    let mut engine = Engine::with_theories(model, use_theories);
    if matches!(engine.propagate_all(), PropOutcome::Conflict(_)) {
        return Presolved::Infeasible;
    }
    let values = engine.values().to_vec();
    let mut stats = PresolveStats::default();

    let mut out = Model::new();
    for i in 0..model.num_vars() {
        out.new_var(model.name(crate::model::Var::from_index_for_io(i)));
    }

    // Re-assert root fixings as unit constraints.
    for (i, v) in values.iter().enumerate() {
        if let Some(b) = v.as_bool() {
            stats.fixed_vars += 1;
            out.fix(crate::model::Var::from_index_for_io(i), b);
        }
    }

    for (i, c) in model.constraints().iter().enumerate() {
        let mut bound = c.bound;
        let mut terms: Vec<LinTerm> = Vec::with_capacity(c.terms.len());
        for t in &c.terms {
            match values[t.lit.var.index()] {
                Value::Unassigned => terms.push(*t),
                Value::True | Value::False => {
                    if t.lit.eval(values[t.lit.var.index()] == Value::True) {
                        bound -= t.coeff;
                    }
                }
            }
        }
        if bound <= 0 {
            stats.removed_constraints += 1;
            continue;
        }
        // Coefficient saturation. Counting classes guarantee all-unit
        // coefficients, and 1 > bound is impossible here (bound ≥ 1), so
        // the scan is skipped for them.
        if !model.class_of(i).is_counting() {
            for t in &mut terms {
                if t.coeff > bound {
                    t.coeff = bound;
                    stats.saturated_coeffs += 1;
                }
            }
        }
        out.push_normalized(Constraint { terms, bound });
    }

    // The objective is untouched (same variables, same values).
    let obj = model.objective().clone();
    out.set_objective_raw(obj);

    stats.classes = out.class_histogram();
    Presolved::Model(out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::model::{Model, Var};
    use crate::solve::Solver;

    fn assert_equivalent(original: &Model) {
        match presolve(original) {
            Presolved::Infeasible => {
                assert_eq!(brute::solve(original), None, "presolve claimed infeasible");
            }
            Presolved::Model(simplified, _) => {
                assert_eq!(simplified.num_vars(), original.num_vars());
                for a in brute::enumerate(original.num_vars()) {
                    assert_eq!(
                        original.is_feasible(&a),
                        simplified.is_feasible(&a),
                        "feasibility changed at {a:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixes_units_and_preserves_semantics() {
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        m.fix(x, true);
        m.add_ge([(1, x), (1, y), (1, z)], 2); // with x fixed: y + z >= 1
        m.minimize([(1, y), (1, z)]);
        let Presolved::Model(p, stats) = presolve(&m) else {
            panic!("feasible model");
        };
        assert!(stats.fixed_vars >= 1);
        assert_eq!(
            stats.classes,
            p.class_histogram(),
            "stats carry the presolved model's class histogram"
        );
        assert!(!stats.classes.is_empty());
        assert_equivalent(&m);
        let out = Solver::new(&p).run();
        assert_eq!(out.best().unwrap().objective, 1);
    }

    #[test]
    fn saturates_large_coefficients() {
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        // No root forcing (y + z alone can reach the bound), but the 5 can
        // be saturated to 2.
        m.add_ge([(5, x), (1, y), (1, z)], 2);
        let Presolved::Model(p, stats) = presolve(&m) else {
            panic!("feasible model");
        };
        assert_eq!(stats.saturated_coeffs, 1);
        let c = &p.constraints()[0];
        assert!(c.terms.iter().all(|t| t.coeff <= c.bound));
        assert_equivalent(&m);
    }

    #[test]
    fn detects_root_infeasibility() {
        let mut m = Model::new();
        let x = m.new_var("x");
        m.fix(x, true);
        m.fix(x, false);
        assert!(matches!(presolve(&m), Presolved::Infeasible));
    }

    #[test]
    fn removes_satisfied_constraints() {
        let mut m = Model::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        m.fix(x, true);
        m.add_ge([(2, x), (1, y)], 1); // satisfied once x = 1
        let Presolved::Model(p, stats) = presolve(&m) else {
            panic!("feasible model");
        };
        assert!(stats.removed_constraints >= 1);
        // Only the unit fixings remain.
        assert!(p.num_constraints() <= 2);
        assert_equivalent(&m);
    }

    #[test]
    fn random_models_stay_equivalent() {
        use clip_rng::Rng;
        let mut rng = Rng::seed_from_u64(0x9E50);
        for _ in 0..40 {
            let n = rng.gen_range(1..=9usize);
            let mut m = Model::new();
            let vars: Vec<Var> = (0..n).map(|i| m.new_var(format!("v{i}"))).collect();
            for _ in 0..rng.gen_range(0..=7) {
                let k = rng.gen_range(1..=n.min(4));
                let terms: Vec<(i64, Var)> = (0..k)
                    .map(|_| (rng.gen_range(-4i64..=4), vars[rng.gen_range(0..n)]))
                    .collect();
                let bound = rng.gen_range(-3i64..=3);
                if rng.gen_bool(0.5) {
                    m.add_ge(terms, bound);
                } else {
                    m.add_le(terms, bound);
                }
            }
            m.minimize(vars.iter().map(|&v| (rng.gen_range(-3i64..=3), v)));
            assert_equivalent(&m);
            // Optimal values agree between raw and presolved models.
            if let Presolved::Model(p, _) = presolve(&m) {
                let a = Solver::new(&m).run().best().map(|s| s.objective);
                let b = Solver::new(&p).run().best().map(|s| s.objective);
                assert_eq!(a, b);
            }
        }
    }
}
