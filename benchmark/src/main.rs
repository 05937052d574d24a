//! End-to-end and per-layer benchmark of the CLIP workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload corpus|library-wh|serve-mixed|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in one process pinned to one CPU. With `--trace 0`
//! the last line of standard output is a JSON object with the end-to-end
//! metrics; with `--trace 1` the workload runs once more with spans recorded
//! around the benchmark's calls into the program, the per-layer metrics
//! replace the end-to-end ones, and the spans go to
//! `benchmark/out/trace-<workload>.json`. See README.md.

mod corpus;
mod layers;
mod library;
mod serve;
mod spans;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use clip_layout::jsonio::{self, Json};
use clip_rng::Rng;

use layers::LayerMetrics;
use spans::Spans;
use stats::Op;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["corpus", "library-wh", "serve-mixed"];

/// Failed checks printed in full; the rest are counted.
const MAX_FAILURE_LINES: usize = 20;

/// Batches of set-ups per run; `setup_s` is the median of the batch means.
/// The first runs before the timed phase and the others at evenly spaced
/// round boundaries, outside its clocks, so that `setup_s` samples the
/// machine across the run rather than only before it.
const SETUP_BATCHES: usize = 8;

/// Set-up time one batch repeats the set-up for: a single set-up takes
/// 0.5-10 ms, too short to time on its own on a shared machine.
const SETUP_BATCH: Duration = Duration::from_millis(20);

/// End-to-end metrics with their units, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with their units, in output order.
const PER_LAYER: [(&str, &str); 47] = [
    ("pb.solve_ms", "ms"),
    ("pb.nodes", "count"),
    ("pb.conflicts", "count"),
    ("pb.propagations", "count"),
    ("pb.props_clause", "count"),
    ("pb.props_amo", "count"),
    ("pb.props_card", "count"),
    ("pb.props_linear", "count"),
    ("pb.learned", "count"),
    ("pb.first_best_ms", "ms"),
    ("pb.nodes_per_ms", "1/ms"),
    ("pb.model_vars", "count"),
    ("pb.model_constraints", "count"),
    ("pb.unproved", "count"),
    ("core.greedy_seed_ms", "ms"),
    ("core.hclip_seed_ms", "ms"),
    ("core.hier_ms", "ms"),
    ("netlist.pair_ms", "ms"),
    ("core.model_build_ms", "ms"),
    ("route.stage_ms", "ms"),
    ("core.request_overhead_ms", "ms"),
    ("corpus.generate_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.resolve_us", "us"),
    ("netlist.spice_parse_us", "us"),
    ("netlist.spice_write_us", "us"),
    ("serve.key_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.response_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache_insert_ms", "ms"),
    ("layout.build_us", "us"),
    ("layout.document_us", "us"),
    ("serve.accept_wait_ms", "ms"),
    ("serve.hit_latency_p50_ms", "ms"),
    ("serve.miss_latency_p50_ms", "ms"),
    ("serve.oneshot_latency_p50_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.received", "count"),
    ("serve.completed", "count"),
    ("serve.cache_hits", "count"),
    ("serve.degraded", "count"),
    ("serve.rejected", "count"),
    ("serve.throttled", "count"),
    ("serve.errors", "count"),
    ("serve.panics", "count"),
    ("trace.overhead_pct", "%"),
];

/// How much of a workload one run does.
#[derive(Clone, Copy, Debug)]
pub struct Rounds {
    /// Whole rounds (corpus rounds, library passes) in the timed phase.
    pub timed: usize,
    /// Whether the run is traced instead: one round, each operation run
    /// with and without spans.
    pub traced: bool,
}

impl Rounds {
    /// Whole rounds that take about `--seconds` at `round_seconds` each.
    fn for_run(args: &Args, round_seconds: f64) -> Rounds {
        Rounds {
            timed: ((args.seconds as f64 / round_seconds).round() as usize).max(1),
            traced: args.trace,
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    /// Every timed operation, round after round.
    pub ops: Vec<Op>,
    /// The item each operation of `ops` ran, for workloads whose every
    /// round runs each item once; empty otherwise. When set, the median is
    /// read over items ([`stats::item_median_ms`]).
    pub items: Vec<usize>,
    /// Rounds of equal make-up in `ops`.
    pub rounds: usize,
    /// Whether `latency_tail_ms` is read per round and averaged, as the
    /// median is, instead of over the whole run.
    pub tail_per_round: bool,
    /// Wall time of the timed phase.
    pub timed_wall: Duration,
    /// Process CPU time over the timed phase.
    pub cpu: Duration,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    /// Report lines.
    pub notes: Vec<String>,
    /// Per-layer metrics of a traced run.
    pub layers: Option<LayerMetrics>,
    /// Spans of a traced run.
    pub spans: Option<Spans>,
}

/// What the timed phase of an operation-per-item workload produced.
pub struct Phase<T> {
    /// Results of the untraced operations, round after round.
    pub done: Vec<T>,
    /// A traced run's traced results, spans and tracing overhead in percent.
    pub traced: Option<(Vec<T>, Spans, f64)>,
}

/// Runs the timed phase of a workload of `n` independent operations: whole
/// rounds, each in a seed-shuffled order, or in a traced run one round with
/// each operation run with and without spans ([`spans::paired`]). `op` gets
/// an item index and returns its result and wall time. Set-up batches run
/// between rounds, outside the timing. Fills the timing fields of `out`.
pub fn run_phase<T>(
    n: usize,
    seed: u64,
    rounds: Rounds,
    sampler: &mut SetupSampler,
    out: &mut WorkloadRun,
    mut op: impl FnMut(usize, Option<(&mut Spans, usize)>) -> (T, Duration),
) -> Phase<T> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut order = || {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        order
    };
    if rounds.traced {
        let (cpu0, t0) = (sys::cpu_time(), Instant::now());
        let order = order();
        let mut spans = Spans::default();
        let (done, traced, overhead) = spans::paired(n, &mut spans, |k, s| op(order[k], s));
        out.timed_wall = t0.elapsed();
        out.cpu = sys::cpu_time() - cpu0;
        out.rounds = 1;
        return Phase {
            done,
            traced: Some((traced, spans, overhead)),
        };
    }
    let mut done = Vec::with_capacity(n * rounds.timed);
    for round in 0..rounds.timed {
        let (cpu0, t0) = (sys::cpu_time(), Instant::now());
        for i in order() {
            done.push(op(i, None).0);
        }
        out.timed_wall += t0.elapsed();
        out.cpu += sys::cpu_time() - cpu0;
        sampler.after_round(round + 1, rounds.timed);
    }
    out.rounds = rounds.timed;
    Phase { done, traced: None }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: clip-benchmark --workload corpus|library-wh|serve-mixed|all \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let cpu = sys::pin_to_one_cpu();
    let (setup_s, run) = run_workload(&args);
    report(&args, cpu, setup_s, &run)
}

/// Repeats the set-up until `SETUP_BATCH` has been spent in it. Returns the
/// last set-up and the mean time of one.
fn setup_batch<T>(setup: &mut impl FnMut() -> T) -> (T, f64) {
    let (mut spent, mut count, mut last) = (Duration::ZERO, 0, None);
    while spent < SETUP_BATCH {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        spent += t.elapsed();
        count += 1;
    }
    let last = last.expect("a batch sets up at least once");
    (last, spent.as_secs_f64() / f64::from(count))
}

/// The set-up batches after the first, which a timed phase runs between its
/// rounds.
pub struct SetupSampler<'a> {
    /// Runs one batch and returns its mean set-up time.
    batch: Box<dyn FnMut() -> f64 + 'a>,
    /// Mean set-up time of each batch run so far, the first included.
    means: Vec<f64>,
}

impl SetupSampler<'_> {
    /// Runs the batches due once `done` of `rounds` rounds have finished:
    /// batch `k` follows round `ceil(k * rounds / SETUP_BATCHES)`. Returns
    /// the wall and process CPU time they took, which the caller leaves out
    /// of its timed phase.
    pub fn after_round(&mut self, done: usize, rounds: usize) -> (Duration, Duration) {
        let (cpu0, t0) = (sys::cpu_time(), Instant::now());
        while self.means.len() < SETUP_BATCHES
            && (self.means.len() * rounds).div_ceil(SETUP_BATCHES) <= done
        {
            let mean = (self.batch)();
            self.means.push(mean);
        }
        (t0.elapsed(), sys::cpu_time().saturating_sub(cpu0))
    }

    /// Runs the batches the run left, as a traced run does all but the first.
    fn finish(&mut self) {
        while self.means.len() < SETUP_BATCHES {
            let mean = (self.batch)();
            self.means.push(mean);
        }
    }
}

/// Sets up, then runs the workload on the set-up with a sampler that times
/// the set-up again between rounds. Returns `setup_s`, the median of the
/// batch means, with the run. The benchmark's own start (argument parsing,
/// pinning) is not counted: it does none of the program's work.
fn set_up_and_run<'a, T: 'a>(
    mut setup: impl FnMut() -> T + 'a,
    run: impl FnOnce(T, &mut SetupSampler<'a>) -> WorkloadRun,
) -> (f64, WorkloadRun) {
    let (first, mean) = setup_batch(&mut setup);
    let mut sampler = SetupSampler {
        batch: Box::new(move || setup_batch(&mut setup).1),
        means: vec![mean],
    };
    let mut out = run(first, &mut sampler);
    sampler.finish();
    let ms: Vec<String> = sampler
        .means
        .iter()
        .map(|m| format!("{:.3}", m * 1e3))
        .collect();
    out.notes.push(format!(
        "set-up batch means, in run order: {} ms",
        ms.join(", ")
    ));
    (stats::median(&sampler.means).unwrap_or(0.0), out)
}

fn run_workload(args: &Args) -> (f64, WorkloadRun) {
    match args.workload.as_str() {
        "corpus" => {
            let rounds = Rounds::for_run(args, corpus::ROUND_SECONDS);
            set_up_and_run(corpus::setup, |s, sampler| {
                corpus::run(&s, args.seed, rounds, sampler)
            })
        }
        "library-wh" => {
            let rounds = Rounds::for_run(args, library::PASS_SECONDS);
            set_up_and_run(library::setup, |s, sampler| {
                library::run(&s, args.seed, rounds, sampler)
            })
        }
        "serve-mixed" => set_up_and_run(
            || serve::setup(args.seed, args.seconds, args.trace),
            serve::run,
        ),
        other => unreachable!("workload {other:?} was validated"),
    }
}

/// Where runs write: trace files and the daemon's cache directories.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Float(value)),
        ("unit", Json::Str(unit.to_owned())),
    ])
}

fn report(args: &Args, cpu: Option<usize>, setup_s: f64, run: &WorkloadRun) -> ExitCode {
    let lat = stats::latency(&run.ops, run.rounds, run.tail_per_round, &run.items);
    let correct = run.failures.is_empty();
    let pinned = cpu.map_or("unpinned".to_owned(), |c| format!("pinned to cpu {c}"));
    println!(
        "workload {} seed {}: {} operations attempted, {} failed, {pinned}",
        args.workload, args.seed, lat.attempted, lat.failed
    );
    for note in &run.notes {
        println!("  {note}");
    }
    let mut failure_kinds: Vec<&str> = run
        .ops
        .iter()
        .filter_map(|o| o.failure.as_deref())
        .collect();
    failure_kinds.sort_unstable();
    failure_kinds.dedup();
    for kind in failure_kinds {
        println!("  failed: {kind}");
    }
    for f in run.failures.iter().take(MAX_FAILURE_LINES) {
        println!("  CHECK FAILED: {f}");
    }
    if run.failures.len() > MAX_FAILURE_LINES {
        println!(
            "  ... and {} more failed checks",
            run.failures.len() - MAX_FAILURE_LINES
        );
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(layers) = &run.layers {
        if let Some(spans) = &run.spans {
            let counts: Vec<(String, f64)> =
                layers.iter().map(|(k, v)| (k.to_owned(), v)).collect();
            let path = out_dir().join(format!("trace-{}.json", args.workload));
            let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
                std::fs::write(&path, spans.to_json(&args.workload, &counts).to_compact())
            });
            match written {
                Ok(()) => println!("  spans written to {}", path.display()),
                Err(e) => println!("  spans not written to {}: {e}", path.display()),
            }
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, layers.get(name), unit));
        }
    } else {
        let ok = lat.attempted - lat.failed;
        let (tail_name, tail_ms) = match lat.tail {
            Some((rank, n, v)) => (stats::tail_name(rank, n), v),
            None => ("the median".to_owned(), lat.p50_ms),
        };
        let over = if run.tail_per_round {
            format!(
                "each round's {} operations, averaged over {} rounds",
                lat.attempted / run.rounds.max(1),
                run.rounds
            )
        } else {
            format!("{} operations", lat.attempted)
        };
        if !run.items.is_empty() {
            println!(
                "  latency_p50_ms is the Harrell-Davis median over {} items of each item's \
                 interquartile mean over {} rounds",
                run.ops.len() / run.rounds.max(1),
                run.rounds
            );
        }
        println!("  latency_tail_ms is {tail_name} of {over}");
        let wall = run.timed_wall.as_secs_f64();
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => setup_s,
                "ops_per_s" => ok as f64 / wall,
                "latency_p50_ms" => lat.p50_ms,
                "latency_tail_ms" => tail_ms,
                "cpu_s" => run.cpu.as_secs_f64(),
                "peak_rss_mb" => sys::peak_rss_mib(),
                other => unreachable!("metric {other}"),
            };
            metrics.push((name, value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(lat.attempted as i64)),
        ("failed", Json::Int(lat.failed as i64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| ((*name).to_owned(), metric(*value, unit)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a process of its own, echoes each report, and
/// prints one combined line. Fails if any workload fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{workload}: cannot start: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let last = stdout.lines().last().and_then(|l| jsonio::parse(l).ok());
        let Some(last) = last.filter(|_| output.status.success()) else {
            eprintln!("{workload}: failed ({})", output.status);
            correct = false;
            continue;
        };
        attempted += last.get("attempted").and_then(Json::as_i64).unwrap_or(0);
        failed += last.get("failed").and_then(Json::as_i64).unwrap_or(0);
        if let Some(pairs) = last.get("metrics").and_then(Json::as_obj) {
            for (k, v) in pairs {
                metrics.push((format!("{workload}.{k}"), v.clone()));
            }
        }
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
