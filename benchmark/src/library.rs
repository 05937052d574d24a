//! The `library-wh` workload: CLIP-WH (width first, then routing tracks,
//! the paper's Table 4 objective) over every built-in cell with at most five
//! P/N pairs, at every row count up to three, at one job.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use clip_core::exhaustive;
use clip_core::request::{SynthRequest, SynthResult};
use clip_core::share::ShareArray;
use clip_core::solution::{PlacedUnit, Placement};
use clip_core::unit::UnitSet;
use clip_core::ObjectiveSpec;
use clip_netlist::{library, Circuit};

use crate::layers::{self, LayerMetrics, PbCounts};
use crate::spans::Spans;
use crate::stats::Op;
use crate::{run_phase, Rounds, SetupSampler, WorkloadRun};

/// Largest pair count of a cell in the workload.
pub const MAX_PAIRS: usize = 5;
/// Largest row count solved.
pub const MAX_ROWS: usize = 3;
/// Limit of every solve: far above the slowest (about 0.6 s).
pub const LIMIT: Duration = Duration::from_secs(60);
/// Seconds one pass over all solves takes at the reference speed.
pub const PASS_SECONDS: f64 = 2.2;

/// One solve of the pass: a cell at a row count.
pub struct Item {
    circuit: Circuit,
    rows: usize,
}

/// The solves of one pass.
pub struct Setup {
    items: Vec<Item>,
}

/// Collects the built-in cells with at most [`MAX_PAIRS`] pairs.
pub fn setup() -> Setup {
    let mut items = Vec::new();
    for circuit in library::evaluation_suite()
        .into_iter()
        .chain(library::extended_suite())
    {
        let pairs = circuit
            .clone()
            .into_paired()
            .expect("library cells pair")
            .pairs()
            .len();
        if pairs > MAX_PAIRS {
            continue;
        }
        for rows in 1..=pairs.min(MAX_ROWS) {
            items.push(Item {
                circuit: circuit.clone(),
                rows,
            });
        }
    }
    Setup { items }
}

struct Solved {
    item: usize,
    op: Op,
    result: Option<SynthResult>,
}

fn solve(setup: &Setup, item: usize, spans: Option<(&mut Spans, usize)>) -> Solved {
    let it = &setup.items[item];
    let start = Instant::now();
    let built = SynthRequest::new(it.circuit.clone())
        .rows(it.rows)
        .objective(ObjectiveSpec::width_height())
        .time_limit(LIMIT)
        .jobs(NonZeroUsize::MIN)
        .build();
    let end = Instant::now();
    let mut op = Op::ok(end - start);
    if let Some((spans, op_id)) = spans {
        let id = spans.record("core.synth", None, op_id, start, end);
        if let Ok(r) = &built {
            spans.add_stages(id, &r.cell.trace);
        }
    }
    let result = match built {
        Ok(r) => {
            if !r.cell.optimal {
                op.fail("unproved flat solve");
            }
            Some(r)
        }
        Err(e) => {
            op.fail(format!("error: {e}"));
            None
        }
    };
    Solved { item, op, result }
}

/// Independent references for one solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Refs {
    /// Exhaustive CLIP-W optimum at the row count.
    pub width: usize,
    /// Single row only: the least channel density among width-optimal
    /// placements.
    pub tracks: Option<usize>,
}

/// Width and least track count over every width-optimal single-row
/// placement, enumerated here: every unit order, every orientation of every
/// unit, each boundary merged where the terminals allow (a width-optimal
/// row merges every mergeable boundary).
pub fn single_row_optimum(units: &UnitSet) -> (usize, usize) {
    let n = units.len();
    let orients: Vec<_> = units.units().iter().map(|u| u.orients()).collect();
    let mut best = (usize::MAX, usize::MAX);
    let mut order: Vec<usize> = (0..n).collect();
    permutations(&mut order, 0, &mut |order| {
        let mut choice = vec![0usize; n];
        loop {
            let mut row: Vec<PlacedUnit> = order
                .iter()
                .zip(&choice)
                .map(|(&u, &c)| PlacedUnit {
                    unit: u,
                    orient: orients[u][c],
                    merged_with_next: false,
                })
                .collect();
            for k in 1..row.len() {
                let (a, b) = (&row[k - 1], &row[k]);
                let (_, pr, _, nr) = units.units()[a.unit].terminals(a.orient);
                let (pl, _, nl, _) = units.units()[b.unit].terminals(b.orient);
                row[k - 1].merged_with_next = pr == pl && nr == nl;
            }
            let placement = Placement { rows: vec![row] };
            let width = placement.cell_width(units);
            if width <= best.0 {
                let tracks = placement.routing(units).total_tracks();
                best = best.min((width, tracks));
            }
            // Next orientation assignment (odometer over the order).
            let mut k = 0;
            while k < n {
                choice[k] += 1;
                if choice[k] < orients[order[k]].len() {
                    break;
                }
                choice[k] = 0;
                k += 1;
            }
            if k == n {
                break;
            }
        }
    });
    best
}

fn permutations(v: &mut [usize], k: usize, f: &mut impl FnMut(&[usize])) {
    if k == v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permutations(v, k + 1, f);
        v.swap(k, i);
    }
}

impl Refs {
    fn of(item: &Item) -> Refs {
        let units = UnitSet::flat(
            item.circuit
                .clone()
                .into_paired()
                .expect("library cells pair"),
        );
        let share = ShareArray::new(&units);
        let width = exhaustive::optimal_width(&units, &share, item.rows)
            .expect("row count within the unit count");
        let tracks = (item.rows == 1).then(|| {
            let (w, t) = single_row_optimum(&units);
            assert_eq!(w, width, "the two enumerations agree on the width");
            t
        });
        Refs { width, tracks }
    }
}

/// Checks one CLIP-WH result: the exhaustive width, and on one row the
/// least density among width-optimal placements.
pub fn check_result(width: usize, tracks: usize, refs: &Refs) -> Result<(), String> {
    if width != refs.width {
        return Err(format!(
            "width {width} but exhaustive optimum {}",
            refs.width
        ));
    }
    match refs.tracks {
        Some(t) if tracks != t => Err(format!(
            "{tracks} tracks but the least density among width-optimal rows is {t}"
        )),
        _ => Ok(()),
    }
}

fn check(setup: &Setup, solved: &mut [Solved], refs: &mut BTreeMap<usize, Refs>) -> Vec<String> {
    let mut failures = Vec::new();
    for s in solved.iter_mut() {
        let Some(r) = &s.result else { continue };
        let item = &setup.items[s.item];
        let refs = refs.entry(s.item).or_insert_with(|| Refs::of(item));
        let tracks: usize = r.cell.tracks.iter().sum();
        if let Err(e) = check_result(r.cell.width, tracks, refs) {
            let line = format!("{} rows={}: {e}", item.circuit.name(), item.rows);
            s.op.fail(format!("check: {line}"));
            failures.push(line);
        }
    }
    failures
}

/// Runs the workload: whole passes over every solve, or in a traced run one
/// pass with each solve run with and without spans.
pub fn run(setup: &Setup, seed: u64, rounds: Rounds, sampler: &mut SetupSampler) -> WorkloadRun {
    let mut out = WorkloadRun::default();
    let phase = run_phase(
        setup.items.len(),
        seed,
        rounds,
        sampler,
        &mut out,
        |i, s| {
            let solved = solve(setup, i, s);
            let wall = solved.op.wall;
            (solved, wall)
        },
    );
    let mut solved = phase.done;

    let mut refs = BTreeMap::new();
    if let Some((mut traced, spans, overhead)) = phase.traced {
        out.failures.extend(check(setup, &mut traced, &mut refs));
        let mut pb = PbCounts::default();
        for s in &traced {
            match &s.result {
                Some(r) if s.op.succeeded() => pb.add(&r.cell.trace),
                _ => pb.unproved += 1,
            }
        }
        let mut metrics = LayerMetrics::default();
        metrics.set_pipeline(&pb, &layers::self_ms(&spans), traced.len());
        metrics.set("trace.overhead_pct", overhead);
        out.layers = Some(metrics);
        out.spans = Some(spans);
    }
    out.failures.extend(check(setup, &mut solved, &mut refs));
    out.items = solved.iter().map(|s| s.item).collect();
    out.ops = solved.into_iter().map(|s| s.op).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pass_holds_55_solves_with_xor2() {
        let setup = setup();
        assert_eq!(setup.items.len(), 55);
        assert!(setup
            .items
            .iter()
            .any(|i| i.circuit.name() == "xor2" && i.rows == 1));
    }

    #[test]
    fn single_row_reference_matches_the_exhaustive_width() {
        let units = UnitSet::flat(library::nand2().into_paired().unwrap());
        let share = ShareArray::new(&units);
        let (w, t) = single_row_optimum(&units);
        assert_eq!(Some(w), exhaustive::optimal_width(&units, &share, 1));
        assert_eq!((w, t), (2, 1));
    }

    #[test]
    fn checks_reject_a_wrong_width_or_track_count() {
        let refs = Refs {
            width: 3,
            tracks: Some(2),
        };
        assert_eq!(check_result(3, 2, &refs), Ok(()));
        assert!(check_result(4, 2, &refs).is_err(), "wrong width");
        assert!(check_result(3, 3, &refs).is_err(), "wrong track count");
        let multi_row = Refs {
            width: 2,
            tracks: None,
        };
        assert_eq!(check_result(2, 7, &multi_row), Ok(()));
    }

    #[test]
    fn a_real_solve_passes_its_checks_and_a_corrupted_one_fails() {
        let setup = setup();
        let item = setup
            .items
            .iter()
            .position(|i| i.circuit.name() == "aoi21" && i.rows == 1)
            .unwrap();
        let mut refs = BTreeMap::new();
        let mut solved = vec![solve(&setup, item, None)];
        assert!(check(&setup, &mut solved, &mut refs).is_empty());
        solved[0].result.as_mut().unwrap().cell.tracks[0] += 1;
        assert_eq!(check(&setup, &mut solved, &mut refs).len(), 1);
        assert!(!solved[0].op.succeeded());
    }
}
