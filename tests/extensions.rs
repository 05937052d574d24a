//! Integration tests for the implemented future-work extensions: folding,
//! hierarchical generation, and performance-directed synthesis.

use std::time::Duration;

use clip::core::cliph::{ClipWH, ClipWHOptions};
use clip::core::hier::HierCell;
use clip::core::request::SynthRequest;
use clip::core::share::ShareArray;
use clip::core::unit::UnitSet;
use clip::core::verify;
use clip::core::GenError;
use clip::netlist::fold::fold_uniform;
use clip::netlist::{library, Circuit};
use clip::pb::{BranchHeuristic, Solver, SolverConfig};

/// Lays `circuit` out hierarchically in at most `rows` rows, under a
/// 30 s limit shared by every sub-cell solve.
fn hier(circuit: Circuit, rows: usize) -> Result<HierCell, GenError> {
    let result = SynthRequest::new(circuit)
        .rows(rows)
        .time_limit(Duration::from_secs(30))
        .hierarchical()
        .build()?;
    Ok(result
        .hier
        .expect("a hierarchical request yields its composition"))
}

#[test]
fn folded_circuits_synthesize_and_verify() {
    for k in [2usize, 3] {
        let paired = library::nand2().into_paired().unwrap();
        let folded = fold_uniform(&paired, k).unwrap();
        let cell = SynthRequest::new(folded.circuit().clone())
            .stacking()
            .time_limit(Duration::from_secs(30))
            .build()
            .unwrap()
            .cell;
        verify::check_placement(&cell.units, &cell.placement).unwrap();
        // Fingers abut fully: a folded NAND2 keeps zero gaps.
        assert_eq!(cell.width, 2 * k, "fold {k}");
    }
}

#[test]
fn hierarchical_results_verify_across_the_suite() {
    for circuit in [
        library::xor2(),
        library::two_level_z(),
        library::full_adder(),
    ] {
        let name = circuit.name().to_owned();
        let cell = hier(circuit, 2).unwrap_or_else(|e| panic!("{name}: {e}"));
        verify::check_width(&cell.units, &cell.placement, cell.width)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(cell.subcells_optimal, "{name}");
    }
}

#[test]
fn hierarchy_scales_where_flat_cannot() {
    // 21 pairs: the flat ILP would need minutes; the hierarchy is instant.
    let cell = hier(library::mux41(), 3).unwrap();
    assert!(cell.solve_time < Duration::from_secs(10));
    verify::check_width(&cell.units, &cell.placement, cell.width).unwrap();
    // 21 total width over 3 rows: lower bound 7.
    assert!(cell.width >= 7);
}

#[test]
fn critical_net_weighting_shrinks_output_span() {
    let circuit = library::xor2();
    let z = circuit.nets().lookup("z").unwrap();
    let units = UnitSet::flat(circuit.into_paired().unwrap());
    let share = ShareArray::new(&units);
    let run = |critical: bool| {
        let mut opts = ClipWHOptions::new(1);
        if critical {
            opts = opts.with_critical_nets(vec![z]);
        }
        let wh = ClipWH::build(&units, &share, &opts).unwrap();
        let out = Solver::with_config(
            wh.model(),
            SolverConfig {
                brancher: Some(wh.brancher()),
                heuristic: BranchHeuristic::InputOrder,
                budget: clip::pb::Budget::timeout(Duration::from_secs(60)),
                ..Default::default()
            },
        )
        .run();
        assert!(out.is_optimal());
        let sol = out.best().unwrap().clone();
        (
            wh.width_of(&sol),
            wh.intra_tracks_of(&sol)[0],
            wh.span_length_of(&sol, z).unwrap_or(0),
        )
    };
    let (w0, t0, span0) = run(false);
    let (w1, t1, span1) = run(true);
    assert_eq!(w0, w1, "width is lexicographically protected");
    assert_eq!(t0, t1, "track count is protected before criticality");
    assert!(span1 <= span0, "critical span grew: {span1} > {span0}");
    // On xor2 the effect is strict (verified value: 4 -> 2).
    assert!(span1 < span0, "expected a strict improvement on xor2");
}
