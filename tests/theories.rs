//! Pinned guarantee of the typed constraint theories: the specialized
//! per-class propagation engines (counter-based AMO/cardinality, watched
//! learned clauses) change *speed only, never results*. Each pinned
//! CLIP-W model is solved by both search loops with theories on (the
//! default) and off (every row on the generic slack path, the reference
//! the counting engines are checked against), and the outcome and the
//! complete solver statistics must match exactly, up to wall-clock
//! fields.
//!
//! The models are chosen so that both loops really search: without a
//! warm start, or (dlatch) with a greedy one that does not prove at the
//! root. The CDCL loop learns, restarts and reduces its database on
//! them, and its counters are pinned, so a change to the trees that loop
//! walks shows up here.

use std::time::Duration;

use clip::core::clipw::{ClipW, ClipWOptions};
use clip::core::generator::greedy_placement;
use clip::core::share::ShareArray;
use clip::core::unit::UnitSet;
use clip::netlist::{library, Circuit};
use clip::pb::{Outcome, SearchStrategy, SolveStats, Solver, SolverConfig};

/// One pinned model and the CDCL loop's counters on it.
struct Case {
    name: &'static str,
    build: fn() -> Circuit,
    rows: usize,
    /// Seed the incumbent from the greedy placement.
    warm: bool,
    /// Branch with the model's structure brancher.
    brancher: bool,
    /// CDCL `(nodes, conflicts, learned, restarts, learned_deleted)`.
    cdcl: [u64; 5],
    /// CDCL PLBD histogram.
    plbd_hist: [u64; 8],
}

const CASES: [Case; 5] = [
    Case {
        name: "xor2x2",
        build: library::xor2,
        rows: 2,
        warm: false,
        brancher: true,
        cdcl: [201, 89, 88, 1, 0],
        plbd_hist: [0, 0, 11, 30, 28, 11, 8, 0],
    },
    Case {
        name: "mux21x3",
        build: library::mux21,
        rows: 3,
        warm: false,
        brancher: true,
        cdcl: [722, 321, 320, 3, 129],
        plbd_hist: [0, 0, 27, 51, 35, 16, 34, 157],
    },
    Case {
        name: "nand4x2",
        build: library::nand4,
        rows: 2,
        warm: false,
        brancher: true,
        cdcl: [54, 13, 12, 0, 0],
        plbd_hist: [0, 3, 5, 3, 1, 0, 0, 0],
    },
    Case {
        name: "dlatchx2",
        build: library::dlatch,
        rows: 2,
        warm: true,
        brancher: true,
        cdcl: [538, 482, 481, 5, 122],
        plbd_hist: [16, 58, 131, 141, 100, 35, 0, 0],
    },
    Case {
        name: "nand4x2 without brancher",
        build: library::nand4,
        rows: 2,
        warm: false,
        brancher: false,
        cdcl: [57, 21, 20, 0, 0],
        plbd_hist: [1, 2, 1, 0, 3, 4, 3, 6],
    },
];

/// Solves `case` with `strategy`, theories on and off, asserts the two
/// runs are identical up to wall-clock fields, and returns the stats.
fn solve_both_ways(case: &Case, strategy: SearchStrategy) -> SolveStats {
    let units = UnitSet::flat((case.build)().into_paired().expect("library cells pair"));
    let share = ShareArray::new(&units);
    let clipw = ClipW::build(&units, &share, &ClipWOptions::new(case.rows)).expect("model builds");
    let warm_start = if case.warm {
        greedy_placement(&units, &share, case.rows).and_then(|p| clipw.warm_assignment(&units, &p))
    } else {
        None
    };
    let run = |use_theories: bool| {
        Solver::with_config(
            clipw.model(),
            SolverConfig {
                strategy,
                brancher: case.brancher.then(|| clipw.brancher()),
                warm_start: warm_start.clone(),
                use_theories,
                ..Default::default()
            },
        )
        .run()
    };
    let (on, off) = (normalized(&run(true)), normalized(&run(false)));
    let label = format!("{} {strategy:?}", case.name);
    assert!(on.1, "{label}: unproved");
    assert_eq!(on, off, "{label}: theories off changed the search");
    let stats = on.2;
    assert_eq!(stats.props_by_class.total(), stats.propagations, "{label}");
    assert_eq!(stats.conflicts_by_class.total(), stats.conflicts, "{label}");
    stats
}

/// The witness, the proof flag, and the stats with the clock zeroed.
fn normalized(out: &Outcome) -> (Option<Vec<bool>>, bool, SolveStats) {
    let mut stats = out.stats().clone();
    stats.duration = Duration::ZERO;
    for inc in &mut stats.incumbents {
        inc.0 = Duration::ZERO;
    }
    (
        out.best().map(|s| s.values().to_vec()),
        out.is_optimal(),
        stats,
    )
}

#[test]
fn theories_off_reproduces_cbj_search_exactly() {
    for case in &CASES {
        let stats = solve_both_ways(case, SearchStrategy::Cbj);
        assert!(stats.nodes > 0, "{}: CBJ did not search", case.name);
    }
}

#[test]
fn theories_off_reproduces_cdcl_search_exactly() {
    for case in &CASES {
        let st = solve_both_ways(case, SearchStrategy::Cdcl);
        assert_eq!(
            [
                st.nodes,
                st.conflicts,
                st.learned,
                st.restarts,
                st.learned_deleted
            ],
            case.cdcl,
            "{}: CDCL nodes/conflicts/learned/restarts/learned_deleted",
            case.name
        );
        assert_eq!(
            st.plbd_hist, case.plbd_hist,
            "{}: PLBD histogram",
            case.name
        );
        assert_eq!(st.learned_kept + st.learned_deleted, st.learned);
    }
}
