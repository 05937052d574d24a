//! Pinned determinism of the search: the pipeline reproduces its
//! results run to run (byte-identical traces at one job, up to the
//! clock) and across job counts (identical placements at 1, 2 and 8
//! jobs, where the portfolio races CBJ against the CDCL loop), and the
//! CDCL loop's learned-database counters reach the pipeline trace.

use std::num::NonZeroUsize;
use std::time::Duration;

use clip::core::clipw::{ClipW, ClipWOptions};
use clip::core::generator::{greedy_placement, GeneratedCell};
use clip::core::pipeline::{Budget, Pipeline, PipelineTrace, Stage};
use clip::core::share::ShareArray;
use clip::core::unit::UnitSet;
use clip::core::SynthRequest;
use clip::layout::trace;
use clip::netlist::{library, Circuit};
use clip::pb::{SearchStrategy, Solver, SolverConfig};

/// One pinned determinism case: cell name, builder, row count.
type PinnedCase = (&'static str, fn() -> Circuit, usize);

const CELLS: [PinnedCase; 3] = [
    ("xor2", library::xor2, 2),
    ("mux21", library::mux21, 3),
    ("nand4", library::nand4, 1),
];

/// Strips wall-clock noise from a trace so two runs compare
/// field-for-field: the search is deterministic, the clock is not.
fn normalized(trace: &PipelineTrace) -> PipelineTrace {
    let mut t = trace.clone();
    for stage in &mut t.stages {
        stage.wall = Duration::ZERO;
        let solves = stage.solve.iter_mut().chain(stage.thread_solves.iter_mut());
        for stats in solves {
            stats.duration = Duration::ZERO;
            for inc in &mut stats.incumbents {
                inc.0 = Duration::ZERO;
            }
        }
    }
    t
}

fn assert_same_cell(name: &str, a: &GeneratedCell, b: &GeneratedCell) {
    assert_eq!(a.placement, b.placement, "{name}: placement drifted");
    assert_eq!(a.width, b.width, "{name}: width drifted");
    assert_eq!(a.height, b.height, "{name}: height drifted");
    assert_eq!(a.tracks, b.tracks, "{name}: tracks drifted");
    assert_eq!(a.optimal, b.optimal, "{name}: optimality drifted");
}

#[test]
fn modern_engine_is_reproducible_run_to_run() {
    for (name, build, rows) in CELLS {
        let first = SynthRequest::new(build())
            .rows(rows)
            .jobs(NonZeroUsize::MIN)
            .build()
            .unwrap_or_else(|e| panic!("{name}: first run fails: {e}"));
        let second = SynthRequest::new(build())
            .rows(rows)
            .jobs(NonZeroUsize::MIN)
            .build()
            .unwrap_or_else(|e| panic!("{name}: second run fails: {e}"));
        assert!(
            first.cell.optimal,
            "{name}: pinned cells must prove optimality"
        );
        assert_same_cell(name, &first.cell, &second.cell);
        // Byte-identical modulo the clock: node and conflict counts,
        // per-class counters, incumbent trail — the whole trace replays
        // exactly.
        assert_eq!(
            normalized(&first.cell.trace),
            normalized(&second.cell.trace),
            "{name}: trace is not reproducible"
        );
    }
}

#[test]
fn modern_engine_matches_placements_across_job_counts() {
    for (name, build, rows) in CELLS {
        let reference = SynthRequest::new(build())
            .rows(rows)
            .jobs(NonZeroUsize::MIN)
            .build()
            .unwrap_or_else(|e| panic!("{name}: reference fails: {e}"));
        for jobs in [2usize, 8] {
            let run = SynthRequest::new(build())
                .rows(rows)
                .jobs(NonZeroUsize::new(jobs).expect("non-zero"))
                .build()
                .unwrap_or_else(|e| panic!("{name} jobs={jobs}: {e}"));
            assert_same_cell(&format!("{name} jobs={jobs}"), &run.cell, &reference.cell);
        }
    }
}

#[test]
fn modern_stats_reach_the_pipeline_trace() {
    // The CDCL loop's learned-database counters must survive the trip
    // through a pipeline stage record and the trace document. A one-job
    // request runs CBJ, which learns nothing, so the stage solves
    // dlatch x2 with the CDCL loop: its greedy warm start does not prove
    // at the root, and the search learns, restarts and reduces.
    let units = UnitSet::flat(library::dlatch().into_paired().expect("dlatch pairs"));
    let share = ShareArray::new(&units);
    let clipw = ClipW::build(&units, &share, &ClipWOptions::new(2)).expect("model builds");
    let warm_start =
        greedy_placement(&units, &share, 2).and_then(|p| clipw.warm_assignment(&units, &p));
    let mut pipeline = Pipeline::new(Budget::default());
    pipeline.stage(Stage::Solve, |budget, rec| {
        let out = Solver::with_config(
            clipw.model(),
            SolverConfig {
                strategy: SearchStrategy::Cdcl,
                brancher: Some(clipw.brancher()),
                warm_start,
                budget: budget.clone(),
                ..Default::default()
            },
        )
        .run();
        assert!(out.is_optimal(), "dlatch x2 proves");
        rec.solve = Some(out.stats().clone());
    });
    let recorded = pipeline.into_trace();
    let parsed = trace::parse(&trace::to_json(&recorded)).expect("trace parses back");
    assert_eq!(parsed, recorded);
    let stats = parsed.stages[0].solve.as_ref().expect("solve stats");
    assert!(stats.learned > 0, "the CDCL solve learned nothing");
    assert!(stats.restarts > 0 && stats.learned_deleted > 0, "{stats:?}");
    assert_eq!(
        stats.learned_kept + stats.learned_deleted,
        stats.learned,
        "kept + deleted must account for every learned constraint"
    );
    assert_eq!(
        stats.plbd_hist.iter().sum::<u64>(),
        stats.learned,
        "every learned constraint lands in the PLBD histogram"
    );
}
