//! Property-based differential between the CDCL search loop and brute
//! force.
//!
//! Restarts and activity-driven branching legitimately reshape the
//! search tree, so unlike the theory-routing tests this differential
//! pins *results*, not node counts: over random models the CDCL loop
//! must prove the brute-force optimum, agree on infeasibility, and be
//! deterministic run-to-run.

use clip_pb::{brute, Model, SearchStrategy, Solver, SolverConfig, Var};
use clip_proptest::{gens, proptest_lite, Gen};

/// A generated constraint, biased toward unit coefficients so the
/// counting classes (and their learned-clause interplay) appear often.
#[derive(Clone, Debug)]
struct RawConstraint {
    terms: Vec<(i64, usize)>,
    bound: i64,
    is_ge: bool,
}

fn raw_constraint(n: usize) -> Gen<RawConstraint> {
    Gen::new(move |rng| {
        let unit_only = rng.gen_bool(0.7);
        RawConstraint {
            terms: (0..rng.gen_range(1..=5usize))
                .map(|_| {
                    let coeff = if unit_only {
                        if rng.gen_bool(0.5) {
                            1
                        } else {
                            -1
                        }
                    } else {
                        rng.gen_range(-4i64..=4)
                    };
                    (coeff, rng.gen_range(0..n))
                })
                .collect(),
            bound: rng.gen_range(-5i64..=5),
            is_ge: rng.gen_bool(0.5),
        }
    })
}

#[derive(Clone, Debug)]
struct RawModel {
    n: usize,
    constraints: Vec<RawConstraint>,
    objective: Vec<i64>,
}

fn raw_model() -> Gen<RawModel> {
    gens::int(1usize..=9).flat_map(|n| {
        raw_constraint(n).vec(0..=7).flat_map(move |constraints| {
            let constraints = constraints.clone();
            gens::int(-5i64..=5)
                .vec(n..=n)
                .map(move |objective| RawModel {
                    n,
                    constraints: constraints.clone(),
                    objective,
                })
        })
    })
}

fn build(raw: &RawModel) -> Model {
    let mut m = Model::new();
    let vars: Vec<Var> = (0..raw.n).map(|i| m.new_var(format!("v{i}"))).collect();
    for c in &raw.constraints {
        let terms: Vec<(i64, Var)> = c.terms.iter().map(|&(w, i)| (w, vars[i])).collect();
        if c.is_ge {
            m.add_ge(terms, c.bound);
        } else {
            m.add_le(terms, c.bound);
        }
    }
    m.minimize(raw.objective.iter().enumerate().map(|(i, &w)| (w, vars[i])));
    m
}

fn run_cdcl(m: &Model) -> clip_pb::Outcome {
    let config = SolverConfig {
        strategy: SearchStrategy::Cdcl,
        ..Default::default()
    };
    Solver::with_config(m, config).run()
}

proptest_lite! {
    cases: 256;

    fn cdcl_search_matches_brute_force(raw in raw_model()) {
        let m = build(&raw);
        let cdcl = run_cdcl(&m);
        // Unlimited budget: the search must finish with a proof.
        assert!(cdcl.stats().proved_optimal, "CDCL left unproved");
        // Agreement on feasibility and on the proved optimum.
        assert_eq!(
            cdcl.best().map(|s| s.objective),
            brute::solve(&m).map(|(_, objective)| objective),
            "CDCL proves a different optimum than brute force"
        );
        // The solution really attains its claimed objective.
        if let Some(s) = cdcl.best() {
            assert!(m.is_feasible(s.values()), "CDCL witness infeasible");
            assert_eq!(m.objective().eval(s.values()), s.objective);
        }
        // Bookkeeping invariants of the learned-database counters.
        let st = cdcl.stats();
        assert_eq!(st.learned_kept + st.learned_deleted, st.learned);
        if !st.plbd_hist.is_empty() {
            assert_eq!(st.plbd_hist.iter().sum::<u64>(), st.learned);
        }
    }

    fn modern_search_is_reproducible(raw in raw_model()) {
        let m = build(&raw);
        let (a, b) = (run_cdcl(&m), run_cdcl(&m));
        assert_eq!(
            a.best().map(|s| s.values().to_vec()),
            b.best().map(|s| s.values().to_vec()),
            "witnesses diverge between identical runs"
        );
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.nodes, sb.nodes);
        assert_eq!(sa.conflicts, sb.conflicts);
        assert_eq!(sa.learned, sb.learned);
        assert_eq!(sa.restarts, sb.restarts);
        assert_eq!(sa.learned_deleted, sb.learned_deleted);
        assert_eq!(sa.plbd_hist, sb.plbd_hist);
    }
}
