//! Property tests for the CLIP models: randomly generated small CMOS
//! cells (via random series-parallel expressions) must solve to the same
//! optimum as exhaustive enumeration, and every artifact must verify.

use clip_core::generator::{evaluate_order, greedy_placement};
use clip_core::request::SynthRequest;
use clip_core::share::ShareArray;
use clip_core::unit::UnitSet;
use clip_core::{exhaustive, verify};
use clip_netlist::Expr;
use clip_proptest::{gens, prop_assume, proptest_lite, Gen};

/// Random small inverting gates: 2-4 transistor pairs.
fn small_gate() -> Gen<Expr> {
    let var = gens::int(0..4u8).map(|i| Expr::Var(format!("{}", (b'a' + i) as char)));
    let nand2 = {
        let var = var.clone();
        Gen::new(move |rng| {
            // (x & y)'
            let (a, b) = (var.sample(rng), var.sample(rng));
            Expr::Not(Box::new(Expr::And(vec![a, b])))
        })
    };
    let oai21 = {
        let var = var.clone();
        Gen::new(move |rng| {
            // (x | y & z)'
            let (a, b, c) = (var.sample(rng), var.sample(rng), var.sample(rng));
            Expr::Not(Box::new(Expr::Or(vec![a, Expr::And(vec![b, c])])))
        })
    };
    let aoi22 = Gen::new(move |rng| {
        // (x & y | z & w)'
        let (a, b, c, d) = (
            var.sample(rng),
            var.sample(rng),
            var.sample(rng),
            var.sample(rng),
        );
        Expr::Not(Box::new(Expr::Or(vec![
            Expr::And(vec![a, b]),
            Expr::And(vec![c, d]),
        ])))
    });
    gens::one_of(vec![nand2, oai21, aoi22])
}

fn units_of(e: &Expr) -> Option<(UnitSet, ShareArray)> {
    let circuit = e.compile("dut", "z").ok()?;
    let units = UnitSet::flat(circuit.into_paired().ok()?);
    let share = ShareArray::new(&units);
    Some((units, share))
}

proptest_lite! {
    cases: 24;

    fn ilp_matches_exhaustive(e in small_gate(), rows in gens::int(1usize..=2)) {
        let Some((units, share)) = units_of(&e) else { return };
        prop_assume!(units.len() <= 4 && rows <= units.len());
        let brute = exhaustive::optimal_width(&units, &share, rows)
            .expect("row count validated");
        let circuit = e.compile("dut", "z").expect("compiles");
        let cell = SynthRequest::new(circuit)
            .rows(rows)
            .build()
            .unwrap_or_else(|err| panic!("{err}"))
            .cell;
        assert!(cell.optimal);
        assert_eq!(cell.width, brute, "expr {e}");
        verify::check_width(&cell.units, &cell.placement, cell.width)
            .unwrap_or_else(|err| panic!("{err}"));
    }

    fn greedy_is_legal_and_bounded(e in small_gate(), rows in gens::int(1usize..=3)) {
        let Some((units, share)) = units_of(&e) else { return };
        prop_assume!(rows <= units.len());
        let placement = greedy_placement(&units, &share, rows).expect("rows validated");
        verify::check_placement(&units, &placement)
            .unwrap_or_else(|err| panic!("{err}"));
        // Greedy width is at least the trivial lower bound and at most the
        // no-sharing upper bound.
        let w = placement.cell_width(&units);
        assert!(w >= units.total_width().div_ceil(rows));
        assert!(w <= 2 * units.total_width());
    }

    fn evaluate_order_width_is_geometric(e in small_gate(), seed in gens::int(0u64..1000)) {
        let Some((units, share)) = units_of(&e) else { return };
        // A pseudo-random order derived from the seed.
        let n = units.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.rotate_left((seed as usize) % n);
        if seed % 2 == 0 {
            order.reverse();
        }
        let (w, placement) = evaluate_order(&units, &share, &order, 1);
        assert_eq!(w, placement.cell_width(&units));
        verify::check_placement(&units, &placement)
            .unwrap_or_else(|err| panic!("{err}"));
    }

    fn wh_model_tracks_match_geometry(e in small_gate()) {
        use clip_core::cliph::{ClipWH, ClipWHOptions};
        use clip_pb::{Solver, SolverConfig};
        let Some((units, share)) = units_of(&e) else { return };
        prop_assume!(units.len() <= 4);
        let wh = match ClipWH::build(&units, &share, &ClipWHOptions::new(1)) {
            Ok(m) => m,
            Err(_) => return,
        };
        let out = Solver::with_config(
            wh.model(),
            SolverConfig {
                brancher: Some(wh.brancher()),
                heuristic: clip_pb::BranchHeuristic::InputOrder,
                budget: clip_pb::Budget::timeout(std::time::Duration::from_secs(20)),
                ..Default::default()
            },
        )
        .run();
        prop_assume!(out.is_optimal());
        let sol = out.best().expect("optimal").clone();
        let placement = wh.extract(&sol);
        let routing = placement.routing(&units);
        // The ILP's intra-row track count equals the independent geometric
        // density on every optimally solved random gate.
        assert_eq!(
            wh.intra_tracks_of(&sol),
            vec![routing.intra_tracks(0)],
            "expr {e}"
        );
        assert_eq!(wh.width_of(&sol), routing.cell_width());
    }

    fn stacking_never_beats_flat_optimum(e in small_gate()) {
        let Some((units, _)) = units_of(&e) else { return };
        prop_assume!(units.len() <= 4);
        let circuit = e.compile("dut", "z").expect("compiles");
        let flat = SynthRequest::new(circuit.clone())
            .build()
            .unwrap_or_else(|err| panic!("{err}"))
            .cell;
        let stacked = SynthRequest::new(circuit)
            .stacking()
            .build()
            .unwrap_or_else(|err| panic!("{err}"))
            .cell;
        assert!(flat.optimal && stacked.optimal);
        // HCLIP restricts arrangements: never narrower than the optimum.
        assert!(stacked.width >= flat.width, "expr {e}");
        verify::check_width(&stacked.units, &stacked.placement, stacked.width)
            .unwrap_or_else(|err| panic!("{err}"));
    }
}
