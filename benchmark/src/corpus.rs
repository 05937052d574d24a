//! The `corpus` workload: a prefix of one seed's `clip_corpus` population,
//! solved one cell after another through `SynthRequest` at one job.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use clip_baselines as baselines;
use clip_core::request::{SynthRequest, SynthResult};
use clip_core::share::ShareArray;
use clip_core::unit::UnitSet;
use clip_core::{exhaustive, verify};
use clip_corpus::{CorpusCell, CorpusSpec, Mode};

use crate::layers::{self, LayerMetrics, PbCounts};
use crate::spans::Spans;
use crate::stats::Op;
use crate::{run_phase, Rounds, SetupSampler, WorkloadRun};

/// The corpus seed. The population is fixed; `--seed` only orders it.
pub const CORPUS_SEED: u64 = 1;
/// Cells in the prefix: few enough that a run holds several rounds.
pub const CORPUS_CELLS: usize = 64;
/// Flat cells of the prefix that no solve proves within seconds at one
/// job (none in under 7 s): run under [`FAULT_LIMIT`], they fail every
/// run.
pub const NAMED_FAULTS: [usize; 4] = [8, 14, 30, 62];
/// Limit of a named-fault cell.
pub const FAULT_LIMIT: Duration = Duration::from_millis(200);
/// Limit of every other cell: far above the slowest (about 2.5 s).
pub const CELL_LIMIT: Duration = Duration::from_secs(60);
/// Seconds one round of all cells takes at the reference speed.
pub const ROUND_SECONDS: f64 = 6.6;
/// Largest unit count the exhaustive oracle checks.
const EXHAUSTIVE_UNITS: usize = 5;

/// The generated population.
pub struct Setup {
    cells: Vec<CorpusCell>,
    /// Time `clip_corpus::generate` took.
    pub generate: Duration,
}

/// Generates the population.
pub fn setup() -> Setup {
    let start = Instant::now();
    let cells = clip_corpus::generate(&CorpusSpec {
        seed: CORPUS_SEED,
        cells: CORPUS_CELLS,
    });
    Setup {
        cells,
        generate: start.elapsed(),
    }
}

/// The limit a cell runs under.
pub fn limit_of(index: usize) -> Duration {
    if NAMED_FAULTS.contains(&index) {
        FAULT_LIMIT
    } else {
        CELL_LIMIT
    }
}

/// The request `clip bench --corpus` issues for a cell, at one job.
fn request(cell: &CorpusCell) -> SynthRequest {
    let request = SynthRequest::new(cell.circuit.clone())
        .rows(cell.rows)
        .time_limit(limit_of(cell.index))
        .jobs(NonZeroUsize::MIN);
    match cell.mode {
        Mode::Flat => request,
        Mode::Hier => request.hierarchical(),
    }
}

/// One finished cell solve.
struct Solved {
    index: usize,
    op: Op,
    result: Option<SynthResult>,
}

fn solve(cell: &CorpusCell, spans: Option<(&mut Spans, usize)>) -> Solved {
    let start = Instant::now();
    let built = request(cell).build();
    let end = Instant::now();
    let wall = end - start;
    let mut op = Op::ok(wall);
    if let Some((spans, op_id)) = spans {
        let id = spans.record("core.synth", None, op_id, start, end);
        if let Ok(r) = &built {
            spans.add_stages(id, &r.cell.trace);
        }
    }
    let result = match built {
        Ok(r) => Some(r),
        Err(e) => {
            op.fail(format!("error: {e}"));
            None
        }
    };
    if let Some(r) = &result {
        match cell.mode {
            Mode::Flat if !r.cell.optimal => op.fail("unproved flat solve"),
            Mode::Hier if wall >= limit_of(cell.index) => {
                op.fail("hierarchical op reached its limit")
            }
            _ => {}
        }
    }
    Solved {
        index: cell.index,
        op,
        result,
    }
}

/// Independent references for one cell's checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refs {
    /// Packing bound `ceil(units / rows)`.
    pub lower: usize,
    /// `clip-baselines` greedy-2D width (flat cells).
    pub greedy: Option<usize>,
    /// `clip-baselines` Euler-1D width.
    pub euler: Option<usize>,
    /// Exhaustive optimum, for flat cells of at most five units.
    pub exhaustive: Option<usize>,
}

impl Refs {
    fn of(cell: &CorpusCell, rows: usize) -> Refs {
        let units = UnitSet::flat(
            cell.circuit
                .clone()
                .into_paired()
                .expect("corpus cells pair"),
        );
        let share = ShareArray::new(&units);
        let flat = cell.mode == Mode::Flat;
        Refs {
            lower: units.len().div_ceil(rows.max(1)),
            greedy: flat
                .then(|| baselines::greedy2d(&units, &share, rows).map(|b| b.width))
                .flatten(),
            euler: baselines::euler_1d(&units, &share).map(|b| b.width),
            exhaustive: (flat && units.len() <= EXHAUSTIVE_UNITS)
                .then(|| exhaustive::optimal_width(&units, &share, rows))
                .flatten(),
        }
    }
}

/// Checks a width against the references: a proved flat width equals the
/// exhaustive optimum, every width lies between the packing bound and the
/// Euler-1D width, and a flat width is no worse than greedy-2D.
pub fn check_width(mode: Mode, width: usize, proved: bool, refs: &Refs) -> Result<(), String> {
    if width < refs.lower {
        return Err(format!("width {width} below packing bound {}", refs.lower));
    }
    if let Some(e) = refs.euler.filter(|&e| width > e) {
        return Err(format!("width {width} above Euler-1D width {e}"));
    }
    if mode == Mode::Flat {
        match refs.greedy {
            Some(g) if width > g => return Err(format!("width {width} above greedy-2D width {g}")),
            Some(_) => {}
            None => return Err("greedy-2D found no placement".into()),
        }
        if let Some(x) = refs.exhaustive.filter(|&x| proved && width != x) {
            return Err(format!("proved width {width} but exhaustive optimum {x}"));
        }
    }
    Ok(())
}

/// Checks every result; marks failing ops and returns one line per failure.
fn check(setup: &Setup, solved: &mut [Solved]) -> Vec<String> {
    let mut refs: BTreeMap<(usize, usize), Refs> = BTreeMap::new();
    let mut failures = Vec::new();
    for s in solved.iter_mut() {
        let Some(r) = &s.result else { continue };
        let cell = &setup.cells[s.index];
        let gen = &r.cell;
        let rows = gen.placement.rows.len();
        let refs = refs
            .entry((s.index, rows))
            .or_insert_with(|| Refs::of(cell, rows));
        let verdict = verify::check_width(&gen.units, &gen.placement, gen.width)
            .map_err(|e| format!("placement rejected: {e}"))
            .and_then(|()| check_width(cell.mode, gen.width, gen.optimal, refs));
        if let Err(e) = verdict {
            let line = format!("{}: {e}", cell.circuit.name());
            s.op.fail(format!("check: {line}"));
            failures.push(line);
        }
    }
    failures
}

/// Runs the workload: whole rounds of every cell, or in a traced run one
/// round with each cell solved with and without spans.
pub fn run(setup: &Setup, seed: u64, rounds: Rounds, sampler: &mut SetupSampler) -> WorkloadRun {
    let mut out = WorkloadRun {
        tail_per_round: true,
        ..WorkloadRun::default()
    };
    let phase = run_phase(
        setup.cells.len(),
        seed,
        rounds,
        sampler,
        &mut out,
        |i, s| {
            let solved = solve(&setup.cells[i], s);
            let wall = solved.op.wall;
            (solved, wall)
        },
    );
    let mut solved = phase.done;
    if let Some((mut traced, spans, overhead)) = phase.traced {
        out.failures.extend(check(setup, &mut traced));
        let mut pb = PbCounts::default();
        for s in &traced {
            match (&s.result, s.op.succeeded()) {
                (Some(r), true) => pb.add(&r.cell.trace),
                (_, false) if setup.cells[s.index].mode == Mode::Flat => pb.unproved += 1,
                _ => {}
            }
        }
        let mut metrics = LayerMetrics::default();
        metrics.set("corpus.generate_ms", setup.generate.as_secs_f64() * 1e3);
        metrics.set_pipeline(&pb, &layers::self_ms(&spans), traced.len());
        metrics.set("trace.overhead_pct", overhead);
        out.layers = Some(metrics);
        out.spans = Some(spans);
    }
    out.failures.extend(check(setup, &mut solved));
    out.notes.push(named_fault_report(setup, &solved));
    out.items = solved.iter().map(|s| s.index).collect();
    out.ops = solved.into_iter().map(|s| s.op).collect();
    out.notes
        .push(percentile_cells(setup, &out.ops, &out.items));
    out
}

/// One line naming the cells about the median of the cells' typical
/// latencies, and round by round the cell at the tail rank.
fn percentile_cells(setup: &Setup, ops: &[Op], items: &[usize]) -> String {
    let name =
        |index: usize, ms: f64| format!("{} ({ms:.3} ms)", setup.cells[index].circuit.name());
    let typical = crate::stats::typical_ms(ops, items);
    let mid = typical.len().div_ceil(2).max(1) - 1;
    let around: Vec<String> = typical[mid.saturating_sub(1)..(mid + 2).min(typical.len())]
        .iter()
        .map(|&(index, _, ms)| name(index, ms))
        .collect();
    let mut tails = Vec::new();
    for (round_ops, round_items) in ops
        .chunks(setup.cells.len())
        .zip(items.chunks(setup.cells.len()))
    {
        let mut ranked: Vec<(&Op, usize)> =
            round_ops.iter().zip(round_items.iter().copied()).collect();
        ranked.sort_by_key(|(op, _)| (!op.succeeded(), op.wall));
        if let Some(r) = crate::stats::tail_rank(ranked.len()) {
            let (op, index) = ranked[r - 1];
            tails.push(name(index, op.wall.as_secs_f64() * 1e3));
        }
    }
    format!(
        "cells about the median, typical latency over the rounds: {}; tail op per round: {}",
        around.join(", "),
        tails.join(", ")
    )
}

/// One line naming each named-fault cell and whether it still fails.
fn named_fault_report(setup: &Setup, solved: &[Solved]) -> String {
    let items: Vec<String> = NAMED_FAULTS
        .iter()
        .map(|&i| {
            let ops: Vec<&Solved> = solved.iter().filter(|s| s.index == i).collect();
            let proved = ops.iter().filter(|s| s.op.succeeded()).count();
            let state = match proved {
                0 => "failed",
                p if p == ops.len() => "proved",
                _ => "proved in some rounds",
            };
            format!("{} {state}", setup.cells[i].circuit.name())
        })
        .collect();
    format!(
        "named faults (limit {} ms): {}",
        FAULT_LIMIT.as_millis(),
        items.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs() -> Refs {
        Refs {
            lower: 3,
            greedy: Some(5),
            euler: Some(6),
            exhaustive: Some(4),
        }
    }

    #[test]
    fn width_checks_accept_a_correct_result() {
        assert_eq!(check_width(Mode::Flat, 4, true, &refs()), Ok(()));
        // An unproved incumbent only has to respect the bounds.
        assert_eq!(check_width(Mode::Flat, 5, false, &refs()), Ok(()));
        assert_eq!(check_width(Mode::Hier, 6, false, &refs()), Ok(()));
    }

    #[test]
    fn width_checks_reject_corrupted_widths() {
        assert!(
            check_width(Mode::Flat, 5, true, &refs()).is_err(),
            "not the optimum"
        );
        assert!(
            check_width(Mode::Flat, 2, false, &refs()).is_err(),
            "below packing"
        );
        assert!(
            check_width(Mode::Flat, 6, false, &refs()).is_err(),
            "above greedy"
        );
        assert!(
            check_width(Mode::Hier, 7, false, &refs()).is_err(),
            "above Euler"
        );
        let no_greedy = Refs {
            greedy: None,
            ..refs()
        };
        assert!(check_width(Mode::Flat, 4, true, &no_greedy).is_err());
    }

    #[test]
    fn named_faults_fail_and_completing_cells_succeed() {
        let setup = setup();
        for index in [NAMED_FAULTS[0], 1] {
            let s = solve(&setup.cells[index], None);
            assert_eq!(s.op.succeeded(), !NAMED_FAULTS.contains(&index), "{index}");
        }
    }

    #[test]
    fn a_corrupted_placement_is_rejected() {
        let setup = setup();
        let mut solved = vec![solve(&setup.cells[1], None)];
        assert!(check(&setup, &mut solved).is_empty());
        let r = solved[0].result.as_mut().expect("cell 1 solves");
        r.cell.width += 1;
        let failures = check(&setup, &mut solved);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(!solved[0].op.succeeded());
    }
}
