//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p clip-bench --bin experiments -- all
//! cargo run --release -p clip-bench --bin experiments -- table3 --limit 60
//! ```
//!
//! Targets: `table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 sweep
//! ablate whverify all`.
//!
//! `--smoke` runs the quick micro-benchmark suite (the criterion
//! replacement) and writes JSON lines to `results/bench_smoke.jsonl`.

use std::time::Duration;

use clip_bench::{experiments, timing};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut targets: Vec<String> = Vec::new();
    let mut limit = Duration::from_secs(60);
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--limit" => {
                i += 1;
                let secs: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                limit = Duration::from_secs(secs);
            }
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if smoke {
        run_smoke();
    }
    if targets.is_empty() {
        if smoke {
            return;
        }
        usage();
    }
    if targets.iter().any(|t| t == "all") {
        targets = [
            "table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4", "fig5",
            "sweep", "ablate", "whverify", "hier", "folding", "scaling",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    for t in &targets {
        let text = match t.as_str() {
            "table1" => experiments::table1(limit),
            "table2" => experiments::table2(),
            "table3" => experiments::table3(limit),
            "table4" => experiments::table4(limit),
            "fig1" => experiments::fig1(limit),
            "fig2" => experiments::fig2(),
            "fig3" => experiments::fig3(limit),
            "fig4" => experiments::fig4(),
            "fig5" => experiments::fig5(),
            "sweep" => experiments::sweep(limit),
            "ablate" => experiments::ablation(limit),
            "whverify" => experiments::wh_verification(limit),
            "hier" => experiments::hier(limit),
            "folding" => experiments::folding(limit),
            "scaling" => experiments::scaling(limit),
            other => {
                eprintln!("unknown target {other}");
                usage()
            }
        };
        println!("{text}");
        println!("{}", "=".repeat(78));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--limit SECS] [--smoke] <table1|table2|table3|table4|fig1..fig5|sweep|ablate|whverify|hier|folding|scaling|all>..."
    );
    std::process::exit(2)
}

/// Runs the micro-benchmark smoke suite and persists JSONL results.
fn run_smoke() {
    eprintln!("smoke benchmarks (warmup+median-of-N):");
    let report = timing::smoke();
    println!("{}", report.to_table());
    let dir = std::path::Path::new("results");
    let path = dir.join("bench_smoke.jsonl");
    // Atomic replace: write a sibling temp file, then rename over the
    // target. A killed run leaves the previous JSONL intact instead of
    // a truncated file that would poison `clip tune`.
    let tmp = dir.join(format!("bench_smoke.jsonl.tmp.{}", std::process::id()));
    let write = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&tmp, report.to_jsonl()))
        .and_then(|()| std::fs::rename(&tmp, &path));
    match write {
        Ok(()) => eprintln!("wrote results/bench_smoke.jsonl"),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("could not write results/bench_smoke.jsonl: {e}");
            std::process::exit(1);
        }
    }
    // Self-check: the written file must carry the pipeline trace fields
    // (stage name, wall time, solver stats) CI depends on.
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let has_trace = text.lines().any(|line| {
        clip_layout::jsonio::parse(line).is_ok_and(|v| {
            v.get("stage").and_then(|s| s.as_str()).is_some()
                && v.get("wall_ns").is_some_and(|w| w.as_u64().is_some())
                && v.get("solve").is_some()
        })
    });
    if !has_trace {
        eprintln!("error: results/bench_smoke.jsonl carries no pipeline trace records");
        std::process::exit(1);
    }
    // The parallel-search fields must be present too: a portfolio solve
    // record naming its winner and thread count...
    let has_portfolio = text.lines().any(|line| {
        clip_layout::jsonio::parse(line).is_ok_and(|v| {
            v.get("winner_strategy").and_then(|s| s.as_str()).is_some()
                && v.get("threads").is_some_and(|t| t.as_u64().is_some())
        })
    });
    if !has_portfolio {
        eprintln!("error: results/bench_smoke.jsonl carries no portfolio solve record");
        std::process::exit(1);
    }
    // ...and the jobs-sweep pair with identical areas at 1 and 4 workers.
    let sweep_areas: Vec<u64> = text
        .lines()
        .filter_map(|line| clip_layout::jsonio::parse(line).ok())
        .filter(|v| {
            v.get("name").and_then(|n| n.as_str()) == Some("jobs_sweep/nand4x4")
                && v.get("jobs").is_some()
        })
        .filter_map(|v| v.get("area").and_then(|a| a.as_u64()))
        .collect();
    if sweep_areas.len() < 2 || sweep_areas.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("error: jobs-sweep records missing or areas differ across job counts");
        std::process::exit(1);
    }
    // ...and the engine-core record of the CDCL loop on nand4: its
    // learned-database counters must reach the JSONL.
    let engine = text
        .lines()
        .filter_map(|line| clip_layout::jsonio::parse(line).ok())
        .find(|v| v.get("name").and_then(|n| n.as_str()) == Some("engine_core/nand4x2"));
    match engine {
        None => {
            eprintln!("error: results/bench_smoke.jsonl carries no engine_core record");
            std::process::exit(1);
        }
        Some(v) => {
            let kept = v.get("learned_kept").and_then(|k| k.as_u64());
            let deleted = v.get("learned_deleted").and_then(|d| d.as_u64());
            let restarts = v.get("restarts").and_then(|r| r.as_u64());
            let hist_len = v
                .get("plbd_hist")
                .and_then(|h| h.as_arr())
                .map_or(0, <[clip_layout::jsonio::Json]>::len);
            if kept.is_none() || deleted.is_none() || restarts.is_none() || hist_len == 0 {
                eprintln!("error: engine_core record is missing the CDCL engine counters");
                std::process::exit(1);
            }
        }
    }
    // Tuner loop self-check: the training records written above must
    // learn into a non-empty profile, and synthesizing with the learned
    // plan must reproduce the identical placement — tuning is allowed to
    // change speed, never results.
    let profile = match clip_tune::learn(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: training records in results/bench_smoke.jsonl do not learn: {e}");
            std::process::exit(1);
        }
    };
    if profile.is_empty() {
        eprintln!("error: results/bench_smoke.jsonl holds no tuner training records");
        std::process::exit(1);
    }
    let circuit = clip_netlist::library::xor2();
    let features = clip_tune::CircuitFeatures::extract(&circuit).expect("xor2 pairs");
    let plan = profile.plan_for(&features.key(false));
    let tuned = clip_core::SynthRequest::new(circuit)
        .rows(2)
        .profile(plan)
        .build()
        .expect("tuned xor2 generates");
    let baseline = clip_core::SynthRequest::new(clip_netlist::library::xor2())
        .rows(2)
        .build()
        .expect("baseline xor2 generates");
    if tuned.cell.placement != baseline.cell.placement
        || tuned.cell.width != baseline.cell.width
        || tuned.cell.height != baseline.cell.height
    {
        eprintln!("error: tuned xor2 synthesis diverged from the baseline placement");
        std::process::exit(1);
    }
    eprintln!(
        "tuner self-check: learned {} bucket(s); tuned xor2 matches the baseline cell",
        profile.len()
    );
}
