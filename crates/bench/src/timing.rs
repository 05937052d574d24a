//! In-repo micro-benchmark harness (the criterion replacement).
//!
//! Hermetic-deps policy: instead of crates-io `criterion`, benches run
//! through this ~150-line harness — fixed warmup iterations, then a
//! sample loop, reporting min/median/mean wall times. Results are
//! emitted as JSON lines (one object per benchmark) so downstream
//! tooling can diff runs; the emitter is the same hand-rolled
//! [`clip_layout::jsonio`] the cell export uses.
//!
//! The `--smoke` mode of the `experiments` binary drives [`smoke`],
//! a quick pass over the workloads the deleted criterion benches
//! covered (solves, model generation, baselines, routing), sized to
//! finish in seconds so CI can afford it on every push.

use std::time::{Duration, Instant};

use clip_layout::jsonio::Json;

/// One benchmark's timing summary.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name, `group/case` style.
    pub name: String,
    /// Samples taken (after warmup).
    pub samples: u32,
    /// Fastest sample.
    pub min: Duration,
    /// Median sample.
    pub median: Duration,
    /// Mean over all samples.
    pub mean: Duration,
}

impl Measurement {
    /// The measurement as one JSON object (for JSONL output).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("samples", Json::Int(i64::from(self.samples))),
            ("min_ns", Json::Int(self.min.as_nanos() as i64)),
            ("median_ns", Json::Int(self.median.as_nanos() as i64)),
            ("mean_ns", Json::Int(self.mean.as_nanos() as i64)),
        ])
    }
}

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct TimingOptions {
    /// Unmeasured warmup iterations before sampling.
    pub warmup: u32,
    /// Measured samples; the median is the headline number.
    pub samples: u32,
}

impl Default for TimingOptions {
    fn default() -> Self {
        TimingOptions {
            warmup: 3,
            samples: 11,
        }
    }
}

impl TimingOptions {
    /// The quick profile used by `--smoke`.
    pub fn smoke() -> Self {
        TimingOptions {
            warmup: 1,
            samples: 5,
        }
    }
}

/// Times `f`: `warmup` unmeasured runs, then `samples` measured runs.
///
/// The closure returns a value that is consumed by a volatile-ish sink
/// (its `Drop`) so the optimizer cannot elide the work; return whatever
/// result the workload naturally produces.
pub fn bench<T>(name: &str, opts: TimingOptions, mut f: impl FnMut() -> T) -> Measurement {
    for _ in 0..opts.warmup {
        sink(f());
    }
    let mut times: Vec<Duration> = Vec::with_capacity(opts.samples as usize);
    for _ in 0..opts.samples.max(1) {
        let start = Instant::now();
        sink(f());
        times.push(start.elapsed());
    }
    times.sort_unstable();
    let min = times[0];
    let median = times[times.len() / 2];
    let mean = times.iter().sum::<Duration>() / times.len() as u32;
    Measurement {
        name: name.to_owned(),
        samples: times.len() as u32,
        min,
        median,
        mean,
    }
}

/// Opaque consumption of a benchmark result (a `black_box` stand-in
/// that stays on stable std: the value is moved into `drop`, and the
/// function is `#[inline(never)]` so the call is a real boundary).
#[inline(never)]
pub fn sink<T>(value: T) {
    drop(value);
}

/// A collection of measurements plus rendering helpers.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The measurements, in run order.
    pub measurements: Vec<Measurement>,
    /// Extra JSONL records appended verbatim after the measurements —
    /// e.g. per-stage pipeline trace lines from an instrumented run.
    pub extras: Vec<Json>,
}

impl Report {
    /// Runs a benchmark and records it, echoing a progress line.
    pub fn run<T>(&mut self, name: &str, opts: TimingOptions, f: impl FnMut() -> T) {
        let m = bench(name, opts, f);
        eprintln!(
            "  {:<40} median {:>12?}  (min {:?}, mean {:?}, n={})",
            m.name, m.median, m.min, m.mean, m.samples
        );
        self.measurements.push(m);
    }

    /// JSON-lines rendering: one compact object per measurement, then one
    /// per extra record.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for m in &self.measurements {
            out.push_str(&m.to_json().to_compact());
            out.push('\n');
        }
        for e in &self.extras {
            out.push_str(&e.to_compact());
            out.push('\n');
        }
        out
    }

    /// Human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "{:<40} {:>12} {:>12} {:>12}\n",
            "benchmark", "median", "min", "mean"
        );
        for m in &self.measurements {
            out.push_str(&format!(
                "{:<40} {:>12?} {:>12?} {:>12?}\n",
                m.name, m.median, m.min, m.mean
            ));
        }
        out
    }
}

/// One CDCL solve of `model` without a brancher, returning the proved
/// optimum and its stats so the smoke JSONL can embed the engine-core
/// counters (restarts, learned-DB churn, PLBD histogram).
fn solve_cdcl_stats(model: &clip_pb::Model) -> (i64, clip_pb::SolveStats) {
    use clip_pb::{SearchStrategy, Solver, SolverConfig};
    let out = Solver::with_config(
        model,
        SolverConfig {
            strategy: SearchStrategy::Cdcl,
            ..Default::default()
        },
    )
    .run();
    assert!(out.is_optimal());
    (out.best().expect("optimal").objective, out.stats().clone())
}

/// The smoke benchmark suite: one quick case per workload family the
/// retired criterion benches covered. Returns the report; callers decide
/// where to persist the JSONL.
pub fn smoke() -> Report {
    use clip_baselines as baselines;
    use clip_core::cliph::{ClipWH, ClipWHOptions};
    use clip_core::clipw::{ClipW, ClipWOptions};
    use clip_core::cluster;
    use clip_core::generator::GenOptions;
    use clip_core::request::SynthRequest;
    use clip_core::share::ShareArray;
    use clip_core::unit::UnitSet;
    use clip_core::ObjectiveSpec;
    use clip_netlist::library;
    use clip_pb::{BranchHeuristic, SearchStrategy, Solver, SolverConfig};
    use clip_route::density::CellRouting;

    let opts = TimingOptions::smoke();
    let limit = Duration::from_secs(30);
    let mut report = Report::default();

    let setup = |build: fn() -> clip_netlist::Circuit| {
        let units = UnitSet::flat(build().into_paired().expect("pairs"));
        let share = ShareArray::new(&units);
        (units, share)
    };

    // bench_share: pairing, clustering, share array, model generation.
    report.run("pairing/mux21", opts, || {
        library::mux21().into_paired().expect("pairs").len()
    });
    report.run("clustering/full_adder", opts, || {
        cluster::cluster_and_stacks(library::full_adder().into_paired().expect("pairs")).len()
    });
    {
        let (units, _) = setup(library::full_adder);
        report.run("share_array/full_adder", opts, || {
            ShareArray::new(&units).len()
        });
    }
    {
        let (units, share) = setup(library::full_adder);
        report.run("model_generation/full_adder_x2", opts, || {
            ClipW::build(&units, &share, &ClipWOptions::new(2))
                .expect("builds")
                .model()
                .num_vars()
        });
    }

    // bench_clipw: optimal solves.
    for (name, build, rows) in [
        (
            "clipw_solve/nand2x1",
            library::nand2 as fn() -> clip_netlist::Circuit,
            1usize,
        ),
        ("clipw_solve/xor2x1", library::xor2, 1),
        ("clipw_solve/xor2x2", library::xor2, 2),
    ] {
        report.run(name, opts, || {
            SynthRequest::new(build())
                .rows(rows)
                .time_limit(limit)
                .build()
                .expect("generates")
                .cell
                .width
        });
    }

    // bench_cliph: width+height solve.
    report.run("cliph_solve/nand2x1", opts, || {
        SynthRequest::new(library::nand2())
            .objective(ObjectiveSpec::width_height())
            .time_limit(limit)
            .build()
            .expect("generates")
            .cell
            .width
    });
    {
        let (units, share) = setup(library::nand2);
        report.run("cliph_model/nand2x1", opts, || {
            ClipWH::build(&units, &share, &ClipWHOptions::new(1))
                .expect("builds")
                .model()
                .num_vars()
        });
    }

    // bench_solver: strategy and heuristic ablations on the xor2 model.
    // `Cbj` is the reference search loop; `evsids` is the CDCL loop
    // (EVSIDS activity branching, Luby restarts, PLBD-managed learned
    // deletion).
    {
        let (units, share) = setup(library::xor2);
        let clipw = ClipW::build(&units, &share, &ClipWOptions::new(2)).expect("builds");
        for (name, strategy) in [
            ("Cbj", SearchStrategy::Cbj),
            ("evsids", SearchStrategy::Cdcl),
        ] {
            report.run(&format!("solver_strategy/{name}"), opts, || {
                let config = SolverConfig {
                    strategy,
                    brancher: Some(clipw.brancher()),
                    ..Default::default()
                };
                let out = Solver::with_config(clipw.model(), config).run();
                assert!(out.is_optimal());
                out.best().expect("optimal").objective
            });
        }
        // The CDCL loop on a nand4-class model without the structure
        // brancher, so its own branching heuristic does the work. The
        // extras line carries its median plus its learned-database
        // counters (restarts, learned_kept/deleted, PLBD histogram) so
        // the CI smoke check can grep them.
        let (nunits, nshare) = setup(library::nand4);
        let nand4 = ClipW::build(&nunits, &nshare, &ClipWOptions::new(2)).expect("builds");
        report.run("solver_strategy/evsids_nand4", opts, || {
            solve_cdcl_stats(nand4.model()).0
        });
        let median = report
            .measurements
            .last()
            .expect("just recorded")
            .median
            .as_nanos() as i64;
        let (objective, stats) = solve_cdcl_stats(nand4.model());
        report.extras.push(Json::obj([
            ("name", Json::Str("engine_core/nand4x2".into())),
            ("median_ns", Json::Int(median)),
            ("objective", Json::Int(objective)),
            ("restarts", Json::Int(stats.restarts as i64)),
            ("learned_kept", Json::Int(stats.learned_kept as i64)),
            ("learned_deleted", Json::Int(stats.learned_deleted as i64)),
            (
                "plbd_hist",
                Json::arr(&stats.plbd_hist, |&n| Json::Int(n as i64)),
            ),
        ]));
        for heuristic in [BranchHeuristic::InputOrder, BranchHeuristic::DynamicScore] {
            report.run(&format!("solver_heuristic/{heuristic:?}"), opts, || {
                let out = Solver::with_config(
                    clipw.model(),
                    SolverConfig {
                        heuristic,
                        brancher: Some(clipw.brancher()),
                        ..Default::default()
                    },
                )
                .run();
                assert!(out.is_optimal());
                out.best().expect("optimal").objective
            });
        }
    }

    // bench_baselines: heuristics and the routing oracle.
    {
        let (units, share) = setup(library::mux21);
        report.run("baseline_greedy2d/mux21x2", opts, || {
            baselines::greedy2d(&units, &share, 2).expect("legal").width
        });
        report.run("baseline_euler_1d/mux21", opts, || {
            baselines::euler_1d(&units, &share).expect("legal").width
        });
        let mut seed = 0u64;
        report.run("baseline_random/mux21x2", opts, move || {
            seed += 1;
            baselines::random_placement(&units, &share, 2, seed)
                .expect("legal")
                .width
        });
    }
    {
        let (units, share) = setup(library::full_adder);
        let placement = baselines::greedy2d(&units, &share, 3)
            .expect("legal")
            .placement;
        report.run("routing_density/full_adderx3", opts, || {
            let routing: CellRouting = placement.routing(&units);
            routing.total_tracks()
        });
    }

    // Parallel search: the jobs sweep the acceptance gate reads — the
    // same nand4 best-area run at 1 and 4 workers under the same budget.
    // Each jobs value gets a normal timing record plus an extras line
    // carrying the resulting area, so downstream checks can confirm the
    // parallel sweep returns the identical cell, not just a faster one.
    // The job counts here are *advisory* (`with_jobs`), so the small-
    // sweep fan-out gate applies: nand4 is under the work floor, the
    // jobs=4 run stays sequential, and the old regression (jobs=4 slower
    // than jobs=1 on a sub-millisecond sweep) cannot recur.
    {
        use std::num::NonZeroUsize;
        for jobs in [1usize, 4] {
            let gen_opts = GenOptions::rows(1)
                .with_time_limit(limit)
                .with_jobs(NonZeroUsize::new(jobs).expect("non-zero"));
            let area = std::cell::Cell::new(0usize);
            report.run(&format!("jobs_sweep/nand4x4_jobs{jobs}"), opts, || {
                let cell = SynthRequest::with_options(library::nand4(), gen_opts.clone())
                    .best_area(4)
                    .build()
                    .expect("generates")
                    .cell;
                area.set(cell.width * cell.height);
                area.get()
            });
            let median = report
                .measurements
                .last()
                .expect("just recorded")
                .median
                .as_nanos() as i64;
            report.extras.push(Json::obj([
                ("name", Json::Str("jobs_sweep/nand4x4".into())),
                ("jobs", Json::Int(jobs as i64)),
                ("median_ns", Json::Int(median)),
                ("area", Json::Int(area.get() as i64)),
            ]));
        }
    }

    // Pipeline observability: one budgeted, instrumented generate whose
    // per-stage records become their own JSONL lines (same schema as
    // `clip synth --trace`), so downstream tooling can chart where the
    // time goes without re-running anything. Run with two jobs so the
    // Solve record carries the portfolio fields (threads, winner
    // strategy) the CI smoke check greps for.
    {
        let jobs = std::num::NonZeroUsize::new(2).expect("non-zero");
        let cell = SynthRequest::new(library::xor2())
            .rows(2)
            .time_limit(limit)
            .jobs(jobs)
            .build()
            .expect("generates")
            .cell;
        for rec in &cell.trace.stages {
            let mut line = vec![("name".to_owned(), Json::Str("trace/xor2x2".into()))];
            if let Json::Obj(pairs) = clip_layout::trace::stage_to_value(rec) {
                line.extend(pairs);
            }
            report.extras.push(Json::Obj(line));
        }
    }

    // Theory observability: two more instrumented generates at one job,
    // whose ModelBuild/Solve records carry the schema-3 constraint-class
    // histogram and per-class propagation counters. CI greps these
    // lines. nand4 is the histogram guard — a nand4 model whose
    // histogram shows no counting-class rows would mean the stamped
    // encoder regressed to generic linear emission. full_adder is the
    // counter guard: the trivial cells prove optimality at the root
    // with zero propagations (so their empty counter objects are
    // omitted), but a one-second full_adder solve does real search and
    // must report where its propagations went.
    for (name, build, rows, limit) in [
        (
            "trace/nand4x1",
            library::nand4 as fn() -> clip_netlist::Circuit,
            1usize,
            limit,
        ),
        (
            "trace/full_adderx2",
            library::full_adder,
            2,
            Duration::from_secs(1),
        ),
    ] {
        let cell = SynthRequest::new(build())
            .rows(rows)
            .time_limit(limit)
            .jobs(std::num::NonZeroUsize::MIN)
            .build()
            .expect("generates")
            .cell;
        for rec in &cell.trace.stages {
            let mut line = vec![("name".to_owned(), Json::Str(name.into()))];
            if let Json::Obj(pairs) = clip_layout::trace::stage_to_value(rec) {
                line.extend(pairs);
            }
            report.extras.push(Json::Obj(line));
        }
    }

    // bench_serve: the daemon's memo-cache path, driven through the same
    // `exec::execute` the workers call. One cold solve primes a fresh
    // on-disk cache; the measured run must hit it on every iteration, so
    // a key-canonicalization or replay regression fails the run outright
    // and a hit-latency regression trips the gate like any solver slip.
    // The extras line carries cold-vs-hit so the speedup is greppable.
    {
        use clip_serve::cache::MemoCache;
        use clip_serve::exec;
        use clip_serve::protocol::{self, Request};
        use std::sync::Mutex;

        let envelope = protocol::parse_line(r#"{"op":"synth","cell":"nand4","rows":2}"#)
            .expect("valid request line");
        let Request::Synth(spec) = envelope.request else {
            unreachable!("synth request")
        };
        let path = std::env::temp_dir().join(format!(
            "clip_bench_serve_cache_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cache = Mutex::new(MemoCache::open(&path).expect("cache opens"));
        let start = Instant::now();
        let cold = exec::execute(&spec, Some(&cache)).expect("cold solve");
        let cold_ns = start.elapsed().as_nanos() as i64;
        assert!(!cold.cached, "first solve must miss the cache");
        report.run("serve/nand4_cached", opts, || {
            let hit = exec::execute(&spec, Some(&cache)).expect("cache hit");
            assert!(hit.cached, "primed entry must replay as a hit");
            hit.result.to_compact().len()
        });
        let hit_ns = report
            .measurements
            .last()
            .expect("just recorded")
            .median
            .as_nanos() as i64;
        report.extras.push(Json::obj([
            ("name", Json::Str("serve/nand4_cache".into())),
            ("cold_ns", Json::Int(cold_ns)),
            ("hit_median_ns", Json::Int(hit_ns)),
            (
                "speedup",
                Json::Float(cold_ns as f64 / hit_ns.max(1) as f64),
            ),
        ]));
        let _ = std::fs::remove_file(&path);
    }

    // bench_pareto: the full default objective sweep over nand4 at two
    // rows — five parameterizations raced inside one budget with
    // cross-point dominance pruning. The timing record holds the sweep
    // to the regression gate; the extras line re-emits the frontier in
    // the schema-6 trace vocabulary plus its invariants (mutual
    // non-domination, the reuse-prune count) so the CI smoke check can
    // grep them.
    {
        use clip_core::request::SynthRequest;
        use std::num::NonZeroUsize;

        let run = || {
            SynthRequest::new(library::nand4())
                .rows(2)
                .time_limit(limit)
                .jobs(NonZeroUsize::new(2).expect("non-zero"))
                .pareto(Vec::new())
                .build()
                .expect("pareto sweep")
        };
        let kept = std::cell::RefCell::new(None);
        report.run("pareto/nand4x2", opts, || {
            let result = run();
            let width = result.cell.width;
            *kept.borrow_mut() = Some(result);
            width
        });
        let result = kept.into_inner().expect("just recorded");
        let pareto = result
            .pareto
            .as_ref()
            .expect("pareto mode returns a frontier");
        assert!(
            pareto.mutually_non_dominated(),
            "emitted frontier points must not dominate each other"
        );
        assert!(
            pareto.prunes >= 1,
            "the default sweep's reporting-only variant is always reused"
        );
        report.extras.push(Json::obj([
            ("name", Json::Str("pareto/nand4x2".into())),
            ("points", Json::Int(pareto.points.len() as i64)),
            ("frontier_size", Json::Int(pareto.frontier.len() as i64)),
            ("shared_prunes", Json::Int(pareto.prunes as i64)),
            ("threads", Json::Int(pareto.threads as i64)),
            (
                "pareto",
                Json::arr(&pareto.records(), clip_layout::trace::pareto_point_to_value),
            ),
        ]));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_stats() {
        let mut calls = 0u32;
        let opts = TimingOptions {
            warmup: 2,
            samples: 7,
        };
        let m = bench("unit/counter", opts, || {
            calls += 1;
            std::hint::spin_loop();
            calls
        });
        assert_eq!(calls, 9, "warmup + samples all execute");
        assert_eq!(m.samples, 7);
        assert!(m.min <= m.median);
        assert!(m.median <= m.mean.max(m.median), "median within range");
    }

    #[test]
    fn jsonl_is_parseable_and_one_line_per_entry() {
        let mut report = Report::default();
        report.run(
            "a/x",
            TimingOptions {
                warmup: 0,
                samples: 1,
            },
            || 1 + 1,
        );
        report.run(
            "b/y",
            TimingOptions {
                warmup: 0,
                samples: 1,
            },
            || 2 + 2,
        );
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = clip_layout::jsonio::parse(line).expect("valid JSON");
            assert!(v.get("name").unwrap().as_str().is_some());
            assert!(v.get("median_ns").unwrap().as_usize().is_some());
        }
        assert!(report.to_table().contains("a/x"));
    }
}
