//! End-to-end integration tests across all crates: circuit → pairing →
//! model → solve → extraction → independent verification → realization.

use std::time::Duration;

use clip::baselines;
use clip::core::request::SynthRequest;
use clip::core::share::ShareArray;
use clip::core::unit::UnitSet;
use clip::core::{exhaustive, verify, ObjectiveSpec};
use clip::layout::CellLayout;
use clip::netlist::library;
use clip::route::density::CellRouting;

/// Every suite circuit, every feasible row count up to 3: the generator
/// must produce a verified placement whose geometry matches its claims.
#[test]
fn generator_results_verify_end_to_end() {
    for circuit in library::evaluation_suite() {
        let pairs = circuit.clone().into_paired().unwrap().len();
        if pairs > 8 {
            continue; // the large cells are exercised separately with HCLIP
        }
        for rows in 1..=3usize.min(pairs) {
            let name = format!("{}x{rows}", circuit.name());
            let cell = SynthRequest::new(circuit.clone())
                .rows(rows)
                .time_limit(Duration::from_secs(30))
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .cell;
            verify::check_placement(&cell.units, &cell.placement)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                cell.width,
                cell.placement.cell_width(&cell.units),
                "{name}: width mismatch"
            );
            // Track counts agree with an independent routing pass.
            let routing: CellRouting = cell.placement.routing(&cell.units);
            let intra: usize = (0..rows).map(|r| routing.intra_tracks(r)).sum();
            let inter: usize = (0..rows - 1).map(|c| routing.inter_tracks(c)).sum();
            assert_eq!(
                cell.tracks.iter().sum::<usize>(),
                intra + inter,
                "{name}: track mismatch"
            );
        }
    }
}

/// The ILP optimum must match brute-force enumeration wherever the
/// exhaustive oracle is feasible.
#[test]
fn ilp_matches_exhaustive_oracle() {
    for circuit in [
        library::nand2(),
        library::nor3(),
        library::aoi21(),
        library::aoi22(),
        library::xor2(),
    ] {
        let units = UnitSet::flat(circuit.clone().into_paired().unwrap());
        if units.len() > 5 {
            continue;
        }
        let share = ShareArray::new(&units);
        for rows in 1..=2usize.min(units.len()) {
            let name = format!("{}x{rows}", circuit.name());
            let brute = exhaustive::optimal_width(&units, &share, rows).unwrap();
            let cell = SynthRequest::new(circuit.clone())
                .rows(rows)
                .build()
                .unwrap()
                .cell;
            assert!(cell.optimal, "{name}");
            assert_eq!(cell.width, brute, "{name}");
        }
    }
}

/// CLIP must never lose to the heuristic baseline, and usually wins
/// somewhere — the shape of the paper's Table 3 CLIP-vs-Virtuoso columns.
#[test]
fn optimizer_dominates_greedy_baseline() {
    let mut strictly_better = 0;
    for circuit in [
        library::xor2(),
        library::bridge(),
        library::two_level_z(),
        library::mux21(),
    ] {
        let units = UnitSet::flat(circuit.clone().into_paired().unwrap());
        let share = ShareArray::new(&units);
        for rows in 2..=3 {
            let name = format!("{}x{rows}", circuit.name());
            let greedy = baselines::greedy2d(&units, &share, rows).unwrap();
            let cell = SynthRequest::new(circuit.clone())
                .rows(rows)
                .time_limit(Duration::from_secs(30))
                .build()
                .unwrap()
                .cell;
            assert!(
                cell.width <= greedy.width,
                "{name}: CLIP {} vs greedy {}",
                cell.width,
                greedy.width
            );
            if cell.width < greedy.width {
                strictly_better += 1;
            }
        }
    }
    // Random placements must be dominated decisively.
    let units = UnitSet::flat(library::mux21().into_paired().unwrap());
    let share = ShareArray::new(&units);
    let random = baselines::random_placement(&units, &share, 3, 7).unwrap();
    let cell = SynthRequest::new(library::mux21())
        .rows(3)
        .build()
        .unwrap()
        .cell;
    assert!(cell.width <= random.width);
    let _ = strictly_better; // witnessed but not required on every cell
}

/// HCLIP stacking: same circuit, smaller model, width no better than the
/// flat optimum (it restricts arrangements) but still verified legal.
#[test]
fn hclip_shrinks_models_and_stays_legal() {
    for circuit in [library::nand4(), library::aoi22(), library::full_adder()] {
        let name = circuit.name().to_owned();
        let stacked = SynthRequest::new(circuit.clone())
            .stacking()
            .time_limit(Duration::from_secs(30))
            .build()
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .cell;
        verify::check_placement(&stacked.units, &stacked.placement)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // Expanding stacks preserves the transistor count.
        let placed_columns: usize = stacked
            .placement
            .to_placed_rows(&stacked.units)
            .iter()
            .map(|r| r.len())
            .sum();
        assert_eq!(
            placed_columns,
            circuit.devices().len() / 2,
            "{name}: expansion lost columns"
        );
    }
}

/// The rendered layout and the JSON export agree with the generated cell.
#[test]
fn layout_realization_round_trips() {
    let cell = SynthRequest::new(library::two_level_z())
        .rows(2)
        .build()
        .unwrap()
        .cell;
    let layout = CellLayout::build(&cell);
    assert_eq!(layout.width, cell.width);
    assert_eq!(layout.height, cell.height);
    let art = layout.render();
    assert!(art.contains("== VDD"));
    let doc = clip::layout::json::document(&layout);
    assert_eq!(doc.rows.len(), 2);
    let total_slots: usize = doc.rows.iter().map(|r| r.slots.len()).sum();
    assert_eq!(total_slots, 6); // 12 transistors = 6 pairs
}

/// The width+height objective never worsens width (lexicographic) and
/// never increases the track count relative to width-only optimization.
#[test]
fn height_objective_improves_tracks() {
    for circuit in [library::nand3(), library::aoi22(), library::nor3()] {
        let name = circuit.name().to_owned();
        let w_only = SynthRequest::new(circuit.clone()).build().unwrap().cell;
        let wh = SynthRequest::new(circuit)
            .objective(ObjectiveSpec::width_height())
            .time_limit(Duration::from_secs(30))
            .build()
            .unwrap()
            .cell;
        assert_eq!(wh.width, w_only.width, "{name}: lexicographic width");
        if wh.optimal {
            assert!(
                wh.tracks.iter().sum::<usize>() <= w_only.tracks.iter().sum::<usize>(),
                "{name}: WH tracks {:?} vs W tracks {:?}",
                wh.tracks,
                w_only.tracks
            );
        }
    }
}

/// A best-area sweep shares ONE budget across all row counts: with a
/// total budget B, a 4-row sweep must finish in ~B, not rows×B. The
/// full adder's flat models are hard enough that every solve would
/// happily eat its full allowance, making over-budget sweeps obvious.
#[test]
fn best_area_sweep_shares_one_budget() {
    use clip::core::pipeline::Stage;
    let budget = Duration::from_millis(900);
    let start = std::time::Instant::now();
    // jobs=1: with parallel rows the per-stage walls overlap, so their
    // sum (asserted below) is only meaningful for a sequential sweep.
    let jobs = std::num::NonZeroUsize::MIN;
    let cell = SynthRequest::new(library::full_adder())
        .time_limit(budget)
        .jobs(jobs)
        .best_area(4)
        .build()
        .unwrap()
        .cell;
    let elapsed = start.elapsed();
    // Generous slop: non-solver stages (greedy seed, routing, verify)
    // run outside the deadline loop, but nowhere near 4x the budget.
    assert!(
        elapsed < budget * 3,
        "sweep took {elapsed:?} against a {budget:?} budget"
    );
    verify::check_placement(&cell.units, &cell.placement).unwrap();
    // The trace spans the sweep: several row counts, each with a solve.
    let solve_rows: Vec<usize> = cell
        .trace
        .stages
        .iter()
        .filter(|s| s.stage == Stage::Solve)
        .filter_map(|s| s.rows)
        .collect();
    assert!(
        solve_rows.len() >= 2,
        "expected solves at several row counts, got {solve_rows:?}"
    );
    // Per-row stage walls must fit inside the observed elapsed time.
    // The Stage::Sweep summary record spans the whole sweep (it would
    // double-count the row stages), so it is excluded from the sum.
    let stage_wall: Duration = cell
        .trace
        .stages
        .iter()
        .filter(|s| s.stage != Stage::Sweep)
        .map(|s| s.wall)
        .sum();
    assert_eq!(
        stage_wall.max(elapsed),
        elapsed,
        "trace wall within elapsed"
    );
    let sweep = cell.trace.stages.last().unwrap();
    assert_eq!(sweep.stage, Stage::Sweep);
    assert_eq!(sweep.threads, Some(1));
}

/// SPICE round trip feeds the generator identically.
#[test]
fn spice_import_matches_library() {
    let original = library::two_level_z();
    let text = clip::netlist::spice::write(&original);
    let imported = clip::netlist::spice::parse("two_level_z", &text).unwrap();
    let a = SynthRequest::new(original).rows(2).build().unwrap().cell;
    let b = SynthRequest::new(imported).rows(2).build().unwrap().cell;
    assert_eq!(a.width, b.width);
}
