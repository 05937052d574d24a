//! Library-scale corpus runs: sharded, resumable, self-checking.
//!
//! The paper's headline tables are *library-scale* — a whole cell
//! library solved optimally, not a handful of hand-picked circuits.
//! This module is the driver for that scale: it expands a seeded
//! [`clip_corpus`] population, shards the cells across worker threads,
//! solves each under the consolidated [`SynthRequest`] machinery with a
//! per-cell wall budget, and self-checks every result before recording
//! it.
//!
//! ## Checkpoint protocol
//!
//! The checkpoint is a JSONL file: exactly one record per *completed*
//! cell (success or error), identified by [`clip_corpus::work_hash`].
//! Records are written by a single writer thread via `O_APPEND` +
//! `fdatasync` per line, so a run killed at any instant — including
//! SIGKILL mid-write — leaves at worst one torn final line. On resume
//! the driver replays the file, skips any line that does not parse (the
//! torn tail), terminates it with a newline before appending, and
//! re-solves only cells whose hash has no record. A cell is therefore
//! never solved twice across any kill/resume sequence, which CI asserts
//! by grepping the checkpoint for duplicate hashes.
//!
//! ## Self-checks
//!
//! Every successful solve is checked on the spot; failures become
//! `violations` entries in the record and in the [`CorpusSummary`]:
//!
//! * **DRC** — [`verify::check_width`] re-derives the geometry from the
//!   placement and must agree with the claimed width.
//! * **Bounds** — the width must be at least the packing lower bound
//!   `ceil(pairs / rows)` and at most the `baselines` upper bounds:
//!   `euler_1d` (cutting the 1-row chain into `rows` segments is always
//!   feasible) for every solve, and `greedy2d` additionally for flat
//!   solves (the warm start seeds the ILP with exactly that placement,
//!   so the incumbent can never end worse).
//! * **Trace schema** — the pipeline trace must round-trip through
//!   [`clip_layout::trace`].
//!
//! ## Per-key records
//!
//! Every successful record carries the cell's `feature_key` (see
//! `clip_tune::FeatureKey`) beside its timings (`wall_ns`, `seed_ns`,
//! `solve_ns`), the run shape (`jobs`, `seed`) and the winning strategy,
//! so a checkpoint can be reported per key without re-solving anything.
//! Error records omit `feature_key`: they have no timings to report.

use std::collections::BTreeSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use clip_baselines as baselines;
use clip_core::pipeline::Stage;
use clip_core::request::SynthRequest;
use clip_core::share::ShareArray;
use clip_core::unit::UnitSet;
use clip_core::verify;
use clip_corpus::{generate, CorpusCell, CorpusSpec, Mode};
use clip_layout::jsonio::{self, Json};

/// Configuration for one corpus run.
#[derive(Clone, Debug)]
pub struct CorpusOptions {
    /// Corpus seed (see [`clip_corpus::generate`]).
    pub seed: u64,
    /// Number of cells in the corpus.
    pub cells: usize,
    /// Worker threads the cells are sharded across.
    pub shards: NonZeroUsize,
    /// Per-cell wall-clock budget (anytime solves; a tight budget trades
    /// optimality proofs for throughput, never correctness).
    pub budget: Duration,
    /// Checkpoint JSONL path (created if absent, resumed if present).
    pub checkpoint: PathBuf,
    /// Echo one progress line per completed cell to stderr.
    pub progress: bool,
}

impl CorpusOptions {
    /// Defaults sized for a quick local run: seed 1, 24 cells, 2 shards,
    /// 5 s per cell.
    pub fn new(checkpoint: impl Into<PathBuf>) -> Self {
        CorpusOptions {
            seed: 1,
            cells: 24,
            shards: NonZeroUsize::new(2).expect("non-zero"),
            budget: Duration::from_secs(5),
            checkpoint: checkpoint.into(),
            progress: true,
        }
    }
}

/// What one corpus run did.
#[derive(Clone, Debug, Default)]
pub struct CorpusSummary {
    /// Cells in the corpus.
    pub total: usize,
    /// Cells skipped because the checkpoint already recorded them.
    pub resumed: usize,
    /// Cells solved (successfully) by this run.
    pub solved: usize,
    /// Cells that errored (budget exhausted before any solution, etc.).
    pub errors: usize,
    /// Self-check violations, one message per failed check.
    pub violations: Vec<String>,
    /// Distinct feature keys across the whole corpus (structural
    /// coverage, independent of solve outcomes).
    pub coverage: BTreeSet<String>,
}

impl CorpusSummary {
    /// True when every cell completed without error or violation.
    pub fn clean(&self) -> bool {
        self.errors == 0 && self.violations.is_empty()
    }

    /// The summary as one compact JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("record", Json::Str("corpus_summary".into())),
            ("total", Json::Int(self.total as i64)),
            ("resumed", Json::Int(self.resumed as i64)),
            ("solved", Json::Int(self.solved as i64)),
            ("errors", Json::Int(self.errors as i64)),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| Json::Str(v.clone()))
                        .collect(),
                ),
            ),
            (
                "coverage",
                Json::Arr(self.coverage.iter().map(|k| Json::Str(k.clone())).collect()),
            ),
        ])
    }
}

impl fmt::Display for CorpusSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells: {} resumed, {} solved, {} errors, {} violations, {} feature keys covered",
            self.total,
            self.resumed,
            self.solved,
            self.errors,
            self.violations.len(),
            self.coverage.len()
        )
    }
}

/// Hashes already recorded in a checkpoint file.
///
/// Missing file means a fresh run. Lines that fail to parse (the torn
/// tail of a killed run) are skipped — their cells re-run, which is the
/// safe direction.
pub fn completed_hashes(path: &Path) -> io::Result<BTreeSet<String>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeSet::new()),
        Err(e) => return Err(e),
    };
    let mut out = BTreeSet::new();
    for line in text.lines() {
        if let Ok(v) = jsonio::parse(line) {
            if let Some(hash) = v.get("hash").and_then(Json::as_str) {
                out.insert(hash.to_string());
            }
        }
    }
    Ok(out)
}

/// Opens the checkpoint for appending, terminating any torn final line
/// left by a killed writer so the next record starts clean.
fn open_checkpoint(path: &Path) -> io::Result<File> {
    let torn_tail = match std::fs::read(path) {
        Ok(bytes) => !bytes.is_empty() && bytes.last() != Some(&b'\n'),
        Err(e) if e.kind() == io::ErrorKind::NotFound => false,
        Err(e) => return Err(e),
    };
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    if torn_tail {
        file.write_all(b"\n")?;
        file.sync_data()?;
    }
    Ok(file)
}

/// One worker's report on one cell, already rendered as its checkpoint
/// line.
struct Outcome {
    index: usize,
    name: String,
    line: String,
    error: bool,
    violations: Vec<String>,
    note: String,
}

/// Runs (or resumes) a corpus run.
///
/// # Errors
///
/// Only I/O errors on the checkpoint file surface here; solve failures
/// and self-check violations are *recorded*, counted in the summary,
/// and left for the caller to judge (the CLI exits non-zero on either).
pub fn run(opts: &CorpusOptions) -> io::Result<CorpusSummary> {
    let cells = generate(&CorpusSpec {
        seed: opts.seed,
        cells: opts.cells,
    });
    let done = completed_hashes(&opts.checkpoint)?;
    let pending: Vec<&CorpusCell> = cells.iter().filter(|c| !done.contains(&c.hash)).collect();

    let mut summary = CorpusSummary {
        total: cells.len(),
        resumed: cells.len() - pending.len(),
        coverage: clip_corpus::coverage(&cells),
        ..CorpusSummary::default()
    };
    if opts.progress && summary.resumed > 0 {
        eprintln!(
            "corpus: resuming — {} of {} cells already checkpointed",
            summary.resumed,
            cells.len()
        );
    }

    let mut file = open_checkpoint(&opts.checkpoint)?;
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Outcome>();
    let budget = opts.budget;
    let mut write_error: Option<io::Error> = None;

    std::thread::scope(|scope| {
        for _ in 0..opts.shards.get() {
            let tx = tx.clone();
            let next = &next;
            let pending = &pending;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = pending.get(i) else { break };
                // A send failure means the writer bailed; stop quietly.
                if tx.send(solve_cell(cell, budget, i)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut finished = 0usize;
        while let Ok(outcome) = rx.recv() {
            // Atomic append + fsync: the record is durable before the
            // cell counts as completed.
            let write = file
                .write_all(outcome.line.as_bytes())
                .and_then(|()| file.sync_data());
            if let Err(e) = write {
                write_error = Some(e);
                break; // drops rx at scope end; workers stop on send
            }
            finished += 1;
            if outcome.error {
                summary.errors += 1;
            } else {
                summary.solved += 1;
            }
            summary.violations.extend(outcome.violations);
            if opts.progress {
                eprintln!(
                    "  [{}/{}] {:<22} {}",
                    finished,
                    pending.len(),
                    outcome.name,
                    outcome.note
                );
            }
            let _ = outcome.index;
        }
    });

    match write_error {
        Some(e) => Err(e),
        None => Ok(summary),
    }
}

/// Solves one cell, self-checks the result, and renders its checkpoint
/// line (newline-terminated).
fn solve_cell(cell: &CorpusCell, budget: Duration, _slot: usize) -> Outcome {
    let name = cell.circuit.name().to_owned();
    let start = Instant::now();
    let mut request = SynthRequest::new(cell.circuit.clone())
        .rows(cell.rows)
        .time_limit(budget)
        .jobs(NonZeroUsize::MIN);
    if cell.mode == Mode::Hier {
        request = request.hierarchical();
    }
    let result = match request.build() {
        Ok(r) => r,
        Err(e) => {
            // No `feature_key` here: an error line has no timings, so it
            // stays out of per-key reports.
            let record = Json::obj([
                ("record", Json::Str("corpus".into())),
                ("hash", Json::Str(cell.hash.clone())),
                ("name", Json::Str(name.clone())),
                ("topology", Json::Str(cell.topology.name().into())),
                ("mode", Json::Str(cell.mode.name().into())),
                ("status", Json::Str("error".into())),
                ("error", Json::Str(e.to_string())),
            ]);
            return Outcome {
                index: cell.index,
                name,
                line: format!("{}\n", record.to_compact()),
                error: true,
                violations: Vec::new(),
                note: format!("ERROR {e}"),
            };
        }
    };
    let wall = start.elapsed();
    let gen = &result.cell;
    let rows = gen.placement.rows.len();
    let mut violations = Vec::new();

    // DRC: re-derive the geometry independently of the solver.
    if let Err(e) = verify::check_width(&gen.units, &gen.placement, gen.width) {
        violations.push(format!("{}/{name}: drc: {e}", cell.hash));
    }

    // Trace schema: the record must round-trip through the exporter.
    if clip_layout::trace::parse(&clip_layout::trace::to_json(&gen.trace)).is_err() {
        violations.push(format!("{}/{name}: trace does not round-trip", cell.hash));
    }

    // Bounds cross-check against the baselines crate.
    let units = UnitSet::flat(
        cell.circuit
            .clone()
            .into_paired()
            .expect("corpus cells pair"),
    );
    let share = ShareArray::new(&units);
    let lower = units.len().div_ceil(rows.max(1));
    if gen.width < lower {
        violations.push(format!(
            "{}/{name}: width {} below packing lower bound {lower}",
            cell.hash, gen.width
        ));
    }
    let euler = baselines::euler_1d(&units, &share).map(|b| b.width);
    if let Some(euler_w) = euler {
        if gen.width > euler_w {
            violations.push(format!(
                "{}/{name}: width {} above Euler-1D upper bound {euler_w}",
                cell.hash, gen.width
            ));
        }
    }
    let greedy = baselines::greedy2d(&units, &share, rows).map(|b| b.width);
    if cell.mode == Mode::Flat {
        match greedy {
            Some(greedy_w) if gen.width > greedy_w => violations.push(format!(
                "{}/{name}: width {} above greedy-2D warm start {greedy_w}",
                cell.hash, gen.width
            )),
            Some(_) => {}
            None => violations.push(format!(
                "{}/{name}: greedy-2D found no placement at {rows} rows",
                cell.hash
            )),
        }
    }

    // Pareto frontier self-check on a deterministic small subset of the
    // flat cells: the default objective sweep must emit a mutually
    // non-dominated frontier whose base point agrees with this plain
    // single-objective solve (both are width-optimal when proved).
    let mut pareto_frontier: Option<(usize, u64)> = None;
    if cell.mode == Mode::Flat && cell.index.is_multiple_of(7) && cell.features.pairs <= 6 {
        let sweep = SynthRequest::new(cell.circuit.clone())
            .rows(cell.rows)
            .time_limit(budget)
            .jobs(NonZeroUsize::MIN)
            .pareto(Vec::new())
            .build();
        match sweep.as_ref().map(|r| r.pareto.as_ref()) {
            Ok(Some(front)) => {
                if !front.mutually_non_dominated() {
                    violations.push(format!(
                        "{}/{name}: pareto frontier points dominate each other",
                        cell.hash
                    ));
                }
                let base = &front.points[0];
                if !base.on_frontier {
                    violations.push(format!(
                        "{}/{name}: pareto base point missing from its own frontier",
                        cell.hash
                    ));
                }
                if base.proved && gen.optimal && base.width != Some(gen.width) {
                    violations.push(format!(
                        "{}/{name}: pareto base width {:?} disagrees with plain solve {}",
                        cell.hash, base.width, gen.width
                    ));
                }
                pareto_frontier = Some((front.frontier.len(), front.prunes));
            }
            Ok(None) => violations.push(format!(
                "{}/{name}: pareto request returned no frontier",
                cell.hash
            )),
            Err(e) => violations.push(format!("{}/{name}: pareto sweep failed: {e}", cell.hash)),
        }
    }

    // The checkpoint record, keyed by feature key for per-key reports.
    let stage_ns = |stage: Stage| {
        gen.trace
            .stages
            .iter()
            .find(|s| s.stage == stage)
            .map_or(0, |s| s.wall.as_nanos() as i64)
    };
    let seeded = gen.trace.stages.iter().any(|s| s.stage == Stage::HclipSeed);
    let mut fields = vec![
        ("record".to_owned(), Json::Str("corpus".into())),
        ("hash".to_owned(), Json::Str(cell.hash.clone())),
        ("name".to_owned(), Json::Str(name.clone())),
        (
            "topology".to_owned(),
            Json::Str(cell.topology.name().into()),
        ),
        ("mode".to_owned(), Json::Str(cell.mode.name().into())),
        ("status".to_owned(), Json::Str("ok".into())),
        ("feature_key".to_owned(), Json::Str(cell.key().to_string())),
        ("pairs".to_owned(), Json::Int(cell.features.pairs as i64)),
        ("nets".to_owned(), Json::Int(cell.features.nets as i64)),
        (
            "max_chain".to_owned(),
            Json::Int(cell.features.max_chain as i64),
        ),
        ("rows".to_owned(), Json::Int(rows as i64)),
        ("jobs".to_owned(), Json::Int(1)),
        ("seed".to_owned(), Json::Bool(seeded)),
        ("seed_ns".to_owned(), Json::Int(stage_ns(Stage::HclipSeed))),
        ("wall_ns".to_owned(), Json::Int(wall.as_nanos() as i64)),
        ("solve_ns".to_owned(), Json::Int(stage_ns(Stage::Solve))),
        ("width".to_owned(), Json::Int(gen.width as i64)),
        ("height".to_owned(), Json::Int(gen.height as i64)),
        (
            "area".to_owned(),
            Json::Int((gen.width * gen.height) as i64),
        ),
        ("optimal".to_owned(), Json::Bool(gen.optimal)),
        ("lower_w".to_owned(), Json::Int(lower as i64)),
    ];
    if let Some(winner) = gen
        .trace
        .stages
        .iter()
        .find(|s| s.stage == Stage::Solve)
        .and_then(|s| s.winner_strategy.clone())
    {
        fields.push(("winner_strategy".to_owned(), Json::Str(winner)));
    }
    if let Some(g) = greedy {
        fields.push(("greedy_w".to_owned(), Json::Int(g as i64)));
    }
    if let Some(e) = euler {
        fields.push(("euler_w".to_owned(), Json::Int(e as i64)));
    }
    if let Some((frontier, prunes)) = pareto_frontier {
        fields.push(("pareto_frontier".to_owned(), Json::Int(frontier as i64)));
        fields.push(("pareto_prunes".to_owned(), Json::Int(prunes as i64)));
    }
    if !violations.is_empty() {
        fields.push((
            "violations".to_owned(),
            Json::Arr(violations.iter().map(|v| Json::Str(v.clone())).collect()),
        ));
    }

    let note = format!(
        "{} width {} ({}, {:.2?}){}",
        cell.key(),
        gen.width,
        if gen.optimal { "optimal" } else { "best found" },
        wall,
        if violations.is_empty() {
            String::new()
        } else {
            format!("  !! {} violation(s)", violations.len())
        }
    );
    Outcome {
        index: cell.index,
        name,
        line: format!("{}\n", Json::Obj(fields).to_compact()),
        error: false,
        violations,
        note,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "clip_corpus_test_{}_{tag}.jsonl",
            std::process::id()
        ))
    }

    fn options(tag: &str, cells: usize) -> CorpusOptions {
        CorpusOptions {
            seed: 11,
            cells,
            shards: NonZeroUsize::new(2).expect("non-zero"),
            budget: Duration::from_secs(4),
            checkpoint: temp_path(tag),
            progress: false,
        }
    }

    #[test]
    fn run_checkpoints_every_cell_and_self_checks() {
        let opts = options("full", 6);
        let _ = std::fs::remove_file(&opts.checkpoint);
        let summary = run(&opts).expect("io ok");
        assert_eq!(summary.total, 6);
        assert_eq!(summary.resumed, 0);
        assert_eq!(summary.solved + summary.errors, 6);
        assert!(summary.violations.is_empty(), "{:?}", summary.violations);
        let hashes = completed_hashes(&opts.checkpoint).expect("readable");
        assert_eq!(hashes.len(), 6, "one record per cell");
        // Each successful line carries its feature key.
        let text = std::fs::read_to_string(&opts.checkpoint).expect("readable");
        for v in text.lines().filter_map(|l| jsonio::parse(l).ok()) {
            if v.get("status").and_then(Json::as_str) == Some("ok") {
                assert!(v.get("feature_key").is_some(), "{}", v.to_pretty());
            }
        }
        let _ = std::fs::remove_file(&opts.checkpoint);
    }

    #[test]
    fn resume_skips_completed_hashes() {
        let opts = options("resume", 5);
        let _ = std::fs::remove_file(&opts.checkpoint);
        // First pass: solve only 3 cells' worth by truncating the corpus.
        let first = CorpusOptions {
            cells: 3,
            ..opts.clone()
        };
        let s1 = run(&first).expect("io ok");
        assert_eq!(s1.solved + s1.errors, 3);
        // Second pass over the full corpus resumes: prefix stability
        // means the first 3 hashes match and are skipped.
        let s2 = run(&opts).expect("io ok");
        assert_eq!(s2.resumed, 3, "completed cells skipped");
        assert_eq!(s2.solved + s2.errors, 2);
        // No duplicate hashes in the checkpoint (the CI assertion).
        let text = std::fs::read_to_string(&opts.checkpoint).expect("readable");
        let hashes: Vec<String> = text
            .lines()
            .filter_map(|l| jsonio::parse(l).ok())
            .filter_map(|v| v.get("hash").and_then(Json::as_str).map(str::to_owned))
            .collect();
        let unique: BTreeSet<&String> = hashes.iter().collect();
        assert_eq!(hashes.len(), unique.len(), "no cell solved twice");
        assert_eq!(unique.len(), 5);
        let _ = std::fs::remove_file(&opts.checkpoint);
    }

    #[test]
    fn torn_tail_is_tolerated_and_terminated() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        std::fs::write(
            &path,
            "{\"record\":\"corpus\",\"hash\":\"aaaa\",\"status\":\"ok\"}\n{\"record\":\"cor",
        )
        .expect("writable");
        let hashes = completed_hashes(&path).expect("readable");
        assert_eq!(hashes.len(), 1, "torn line ignored");
        let file = open_checkpoint(&path).expect("opens");
        drop(file);
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(text.ends_with('\n'), "torn tail newline-terminated");
        let _ = std::fs::remove_file(&path);
    }
}
