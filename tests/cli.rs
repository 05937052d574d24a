//! Integration tests of the `clip` command-line binary.

use std::process::Command;

fn clip() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clip"))
}

#[test]
fn cells_lists_the_library() {
    let out = clip().arg("cells").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cell in ["xor2", "bridge", "mux21", "full_adder"] {
        assert!(text.contains(cell), "missing {cell} in:\n{text}");
    }
}

#[test]
fn synth_renders_a_cell() {
    let out = clip()
        .args(["synth", "--cell", "xor2", "--rows", "2", "--limit", "60"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("width 3 pitches"), "{text}");
    assert!(text.contains("proved optimal"), "{text}");
    assert!(text.contains("== VDD"), "{text}");
}

#[test]
fn synth_from_expression_writes_artifacts() {
    let dir = std::env::temp_dir().join(format!("clip_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let svg = dir.join("cell.svg");
    let json = dir.join("cell.json");
    let cif = dir.join("cell.cif");
    let out = clip()
        .args([
            "synth",
            "--expr",
            "(a&b|c)'",
            "--height",
            "--quiet",
            "--svg",
            svg.to_str().expect("utf8 path"),
            "--json",
            json.to_str().expect("utf8 path"),
            "--cif",
            cif.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let svg_text = std::fs::read_to_string(&svg).expect("svg written");
    assert!(svg_text.starts_with("<svg"));
    let json_text = std::fs::read_to_string(&json).expect("json written");
    assert!(json_text.contains("\"width\""));
    let cif_text = std::fs::read_to_string(&cif).expect("cif written");
    assert!(cif_text.contains("DS 1 1 1;") && cif_text.trim_end().ends_with('E'));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_flag_writes_stage_records_within_the_budget() {
    let dir = std::env::temp_dir().join(format!("clip_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    let start = std::time::Instant::now();
    let out = clip()
        .args([
            "synth",
            "--cell",
            "mux21",
            "--rows",
            "auto",
            "--limit",
            "5",
            "--quiet",
            "--trace",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    let elapsed = start.elapsed();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // One shared budget for the whole sweep: ~5 s total, NOT 5 s per row
    // count (generous slop for the non-solver stages and a debug build).
    assert!(
        elapsed < std::time::Duration::from_secs(12),
        "sweep overran its shared budget: {elapsed:?}"
    );
    let parsed = clip::layout::trace::parse(&std::fs::read_to_string(&trace).expect("written"))
        .expect("valid trace document");
    assert!(!parsed.stages.is_empty());
    let solves: Vec<_> = parsed
        .stages
        .iter()
        .filter(|s| s.stage == clip::core::pipeline::Stage::Solve)
        .collect();
    assert!(!solves.is_empty(), "no solve stage recorded");
    for s in &solves {
        let stats = s.solve.as_ref().expect("solver stats recorded");
        assert!(s.rows.is_some(), "sweep records are row-stamped");
        assert!(s.model_vars.is_some() && s.model_constraints.is_some());
        // The trajectory is present whenever a feasible solution exists.
        assert!(!stats.incumbents.is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_corpus_resumes_from_its_checkpoint() {
    let dir = std::env::temp_dir().join(format!("clip_cli_corpus_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ck = dir.join("corpus.jsonl");
    let ck_arg = ck.to_str().expect("utf8 path");

    // First pass: a 3-cell prefix of the seeded corpus.
    let out = clip()
        .args([
            "bench",
            "--corpus",
            "--checkpoint",
            ck_arg,
            "--seed",
            "11",
            "--cells",
            "3",
            "--shards",
            "1",
            "--budget",
            "2",
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Second pass extends to 6 cells against the same checkpoint: the
    // prefix must be skipped, not re-solved (generation is prefix-stable).
    let summary = dir.join("summary.json");
    let out = clip()
        .args([
            "bench",
            "--corpus",
            "--checkpoint",
            ck_arg,
            "--seed",
            "11",
            "--cells",
            "6",
            "--shards",
            "2",
            "--budget",
            "2",
            "--quiet",
            "--summary",
            summary.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 resumed"), "{text}");
    let doc = std::fs::read_to_string(&summary).expect("summary written");
    assert!(doc.contains("\"errors\": 0"), "{doc}");
    assert!(doc.contains("\"violations\": []"), "{doc}");

    // Exactly one record per cell in the checkpoint, all hashes distinct.
    let jsonl = std::fs::read_to_string(&ck).expect("checkpoint written");
    let hashes: Vec<&str> = jsonl
        .lines()
        .filter_map(|l| l.split("\"hash\":\"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert_eq!(hashes.len(), 6, "{jsonl}");
    let unique: std::collections::BTreeSet<_> = hashes.iter().collect();
    assert_eq!(unique.len(), 6, "{jsonl}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_flags_are_validated() {
    // --corpus is mandatory, as is --checkpoint.
    let out = clip().arg("bench").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--corpus"), "{err}");

    let out = clip()
        .args(["bench", "--corpus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--checkpoint"), "{err}");

    let out = clip()
        .args([
            "bench",
            "--corpus",
            "--checkpoint",
            "/tmp/x.jsonl",
            "--cells",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn bad_flags_fail_with_usage() {
    let out = clip()
        .args(["synth", "--frobnicate"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "{err}");

    let out = clip().arg("synth").output().expect("binary runs");
    assert!(!out.status.success());

    let out = clip()
        .args(["synth", "--cell", "not_a_cell"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    // There is no tuning profile flag and no `tune` command.
    let out = clip()
        .args(["synth", "--cell", "xor2", "--profile", "p.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "{err}");

    let out = clip()
        .args(["tune", "x.jsonl"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");
}

#[test]
fn folding_flag_multiplies_pairs() {
    let out = clip()
        .args([
            "synth",
            "--cell",
            "xor2",
            "--rows",
            "1",
            "--fold",
            "2",
            "--stacking",
            "--limit",
            "60",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // 5 pairs folded x2 = 10 pairs: single-row width of at least 10.
    let width: usize = text
        .split("width ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("no width in output: {text}"));
    assert!(width >= 10, "{text}");
}
