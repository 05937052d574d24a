//! Pinned guarantee of the autotuner: a tuning plan changes *speed
//! only, never results*. Each pinned cell is synthesized with no plan
//! and with an aggressive plan (seed vetoed, thin slice, reordered
//! portfolio, wide jobs), and the placements must be identical — not
//! merely equal in area.

use std::num::NonZeroUsize;

use clip::core::generator::GeneratedCell;
use clip::core::pipeline::Stage;
use clip::core::{SynthRequest, TuningPlan};
use clip::netlist::{library, Circuit};

/// One pinned determinism case: cell name, builder, row count.
type PinnedCase = (&'static str, fn() -> Circuit, usize);

/// Every lever pulled at once, as hard as a learned profile ever could.
fn aggressive_plan() -> TuningPlan {
    TuningPlan {
        hclip_seed: Some(false),
        seed_slice: Some(6),
        portfolio: Some(vec!["evsids".into(), "cbj-dyn".into(), "cbj".into()]),
        jobs: NonZeroUsize::new(8),
        source: None,
    }
    .with_source("pinned-tuning-test")
}

fn solve_stamp(cell: &GeneratedCell) -> Option<String> {
    cell.trace
        .stages
        .iter()
        .find(|s| s.stage == Stage::Solve)
        .and_then(|s| s.tuning.clone())
}

fn assert_same_cell(name: &str, tuned: &GeneratedCell, base: &GeneratedCell) {
    assert_eq!(tuned.placement, base.placement, "{name}: placement drifted");
    assert_eq!(tuned.width, base.width, "{name}: width drifted");
    assert_eq!(tuned.height, base.height, "{name}: height drifted");
    assert_eq!(tuned.tracks, base.tracks, "{name}: tracks drifted");
    assert_eq!(tuned.optimal, base.optimal, "{name}: optimality drifted");
}

#[test]
fn tuned_fixed_row_cells_are_identical_to_untuned() {
    let cells: [PinnedCase; 3] = [
        ("xor2", library::xor2, 2),
        ("mux21", library::mux21, 3),
        ("nand4", library::nand4, 1),
    ];
    for (name, build, rows) in cells {
        let base = SynthRequest::new(build())
            .rows(rows)
            .jobs(NonZeroUsize::MIN)
            .build()
            .unwrap_or_else(|e| panic!("{name}: baseline fails: {e}"));
        let tuned = SynthRequest::new(build())
            .rows(rows)
            .profile(aggressive_plan())
            .build()
            .unwrap_or_else(|e| panic!("{name}: tuned fails: {e}"));
        assert_same_cell(name, &tuned.cell, &base.cell);
        // The plan is visible in the result and the trace — and only there.
        assert!(tuned.applied.jobs_from_profile, "{name}");
        assert_eq!(tuned.applied.plan.jobs, NonZeroUsize::new(8), "{name}");
        let stamp = solve_stamp(&tuned.cell)
            .unwrap_or_else(|| panic!("{name}: tuned solve is not stamped"));
        assert!(stamp.contains("key=pinned-tuning-test"), "{name}: {stamp}");
        assert_eq!(solve_stamp(&base.cell), None, "{name}: baseline stamped");
    }
}

#[test]
fn tuned_best_area_sweeps_are_identical_to_untuned() {
    let reference = SynthRequest::new(library::nand4())
        .best_area(4)
        .jobs(NonZeroUsize::MIN)
        .build()
        .expect("reference sweep");
    for jobs in [1usize, 8] {
        let tuned = SynthRequest::new(library::nand4())
            .best_area(4)
            .jobs(NonZeroUsize::new(jobs).expect("non-zero"))
            .profile(aggressive_plan())
            .build()
            .expect("tuned sweep");
        assert_same_cell(
            &format!("nand4 sweep jobs={jobs}"),
            &tuned.cell,
            &reference.cell,
        );
    }
}

#[test]
fn profile_jobs_are_reported_but_never_override_explicit_jobs() {
    let tuned = SynthRequest::new(library::xor2())
        .rows(2)
        .jobs(NonZeroUsize::MIN)
        .profile(aggressive_plan())
        .build()
        .expect("generates");
    assert!(!tuned.applied.jobs_from_profile);
    assert_eq!(tuned.applied.plan.jobs, NonZeroUsize::new(8));
}
