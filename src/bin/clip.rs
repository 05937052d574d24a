//! `clip` — command-line cell synthesis.
//!
//! ```text
//! clip cells                              list the built-in library
//! clip synth --cell mux21 --rows 3        synthesize a library cell
//! clip synth --expr "(a&b|c)'" --rows 2 --height --svg out.svg
//! clip synth --cell nand4 --rows 2 --pareto    emit the objective frontier
//! clip synth --spice cell.sp --stacking --json out.json
//! ```

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Duration;

use clip::core::request::SynthRequest;
use clip::core::ObjectiveSpec;
use clip::layout::CellLayout;
use clip::netlist::fold::fold_uniform;
use clip::netlist::{library, spice, Circuit, Expr};
use clip::serve::daemon::{Bind, ServeConfig, Server};

struct SynthArgs {
    circuit: Option<Circuit>,
    rows: usize,
    auto_rows: bool,
    stacking: bool,
    height: bool,
    pareto: bool,
    objective: Option<String>,
    track_pitch: Option<usize>,
    diffusion_overhead: Option<usize>,
    rail_overhead: Option<usize>,
    interrow_weight: Option<i64>,
    limit: Duration,
    fold: usize,
    jobs: Option<NonZeroUsize>,
    svg: Option<String>,
    json: Option<String>,
    cif: Option<String>,
    trace: Option<String>,
    critical: Vec<String>,
    quiet: bool,
}

impl Default for SynthArgs {
    fn default() -> Self {
        SynthArgs {
            circuit: None,
            rows: 1,
            auto_rows: false,
            stacking: false,
            height: false,
            pareto: false,
            objective: None,
            track_pitch: None,
            diffusion_overhead: None,
            rail_overhead: None,
            interrow_weight: None,
            limit: Duration::from_secs(60),
            fold: 1,
            jobs: None,
            svg: None,
            json: None,
            cif: None,
            trace: None,
            critical: Vec::new(),
            quiet: false,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("cells") => cells(),
        Some("synth") => match parse_synth(&args[1..]) {
            Ok(a) => synth(a),
            Err(e) => {
                eprintln!("error: {e}");
                usage();
                ExitCode::from(2)
            }
        },
        Some("bench") => match parse_bench(&args[1..]) {
            Ok((opts, summary)) => bench_corpus(&opts, summary.as_deref()),
            Err(e) => {
                eprintln!("error: {e}");
                usage();
                ExitCode::from(2)
            }
        },
        Some("serve") => match parse_serve(&args[1..]) {
            Ok((config, port_file)) => serve(config, port_file.as_deref()),
            Err(e) => {
                eprintln!("error: {e}");
                usage();
                ExitCode::from(2)
            }
        },
        Some("help") | None => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command {other}");
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage:\n  clip cells\n  clip synth (--cell NAME | --expr FORMULA | --spice FILE) \
         [--rows N|auto] [--stacking]\n             [--limit SECS] [--fold K] \
         [--jobs N]\n             [--svg FILE] \
         [--json FILE] [--cif FILE] [--trace FILE] [--quiet]\n    \
         objective options:\n             [--height] [--objective \
         width|width-height|height-width|weighted:W:H]\n             [--track-pitch N] \
         [--diffusion-overhead N] [--rail-overhead N]\n             [--interrow-weight W] \
         [--critical NET]... [--pareto]\n  clip bench --corpus \
         --checkpoint FILE [--seed N] [--cells N] [--shards N]\n             [--budget SECS] \
         [--summary FILE] [--quiet]   sharded, resumable corpus run\n  clip serve \
         [--listen HOST:PORT | --unix PATH] [--workers N] [--queue N]\n             \
         [--per-conn N] [--cache FILE] [--cache-cap N] [--port-file FILE] [--quiet]    \
         batch synthesis daemon"
    );
}

fn cells() -> ExitCode {
    println!("{:<14} {:>6} {:>6}  inputs", "cell", "trans", "pairs");
    for c in library::evaluation_suite()
        .into_iter()
        .chain(library::extended_suite())
    {
        let name = c.name().to_owned();
        let trans = c.devices().len();
        let inputs: Vec<String> = c
            .inputs()
            .iter()
            .map(|&n| c.nets().name(n).to_owned())
            .collect();
        let pairs = c.into_paired().map(|p| p.len()).unwrap_or(0);
        println!("{name:<14} {trans:>6} {pairs:>6}  {}", inputs.join(","));
    }
    ExitCode::SUCCESS
}

fn parse_synth(args: &[String]) -> Result<SynthArgs, String> {
    let mut out = SynthArgs::default();
    let mut i = 0;
    let take = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--cell" => {
                let name = take(&mut i)?;
                let circuit = library::by_name(&name)
                    .ok_or_else(|| format!("unknown cell {name} (see `clip cells`)"))?;
                out.circuit = Some(circuit);
            }
            "--expr" => {
                let formula = take(&mut i)?;
                let expr = Expr::parse(&formula).map_err(|e| e.to_string())?;
                out.circuit = Some(expr.compile("custom", "z").map_err(|e| e.to_string())?);
            }
            "--spice" => {
                let path = take(&mut i)?;
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                out.circuit = Some(spice::parse("imported", &text).map_err(|e| e.to_string())?);
            }
            "--rows" => {
                let v = take(&mut i)?;
                if v == "auto" {
                    out.auto_rows = true;
                    out.rows = 4;
                } else {
                    out.rows = v.parse().map_err(|_| "bad --rows")?;
                }
            }
            "--limit" => {
                out.limit = Duration::from_secs(take(&mut i)?.parse().map_err(|_| "bad --limit")?)
            }
            "--fold" => out.fold = take(&mut i)?.parse().map_err(|_| "bad --fold")?,
            "--jobs" => {
                out.jobs = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|_| "bad --jobs (need N >= 1)")?,
                )
            }
            "--stacking" => out.stacking = true,
            "--height" => out.height = true,
            "--pareto" => out.pareto = true,
            "--objective" => {
                let name = take(&mut i)?;
                if ObjectiveSpec::parse_ordering(&name).is_none() {
                    return Err(format!(
                        "bad --objective {name} (want width, width-height, \
                         height-width, or weighted:W:H)"
                    ));
                }
                out.objective = Some(name);
            }
            "--track-pitch" => {
                out.track_pitch = Some(take(&mut i)?.parse().map_err(|_| "bad --track-pitch")?)
            }
            "--diffusion-overhead" => {
                out.diffusion_overhead = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|_| "bad --diffusion-overhead")?,
                )
            }
            "--rail-overhead" => {
                out.rail_overhead = Some(take(&mut i)?.parse().map_err(|_| "bad --rail-overhead")?)
            }
            "--interrow-weight" => {
                out.interrow_weight =
                    Some(take(&mut i)?.parse().map_err(|_| "bad --interrow-weight")?)
            }
            "--quiet" => out.quiet = true,
            "--critical" => out.critical.push(take(&mut i)?),
            "--svg" => out.svg = Some(take(&mut i)?),
            "--json" => out.json = Some(take(&mut i)?),
            "--cif" => out.cif = Some(take(&mut i)?),
            "--trace" => out.trace = Some(take(&mut i)?),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if out.circuit.is_none() {
        return Err("one of --cell/--expr/--spice is required".into());
    }
    if out.fold == 0 {
        return Err("--fold must be positive".into());
    }
    if out.pareto && out.auto_rows {
        return Err("--pareto runs at a fixed row count; drop --rows auto".into());
    }
    Ok(out)
}

/// Consolidates the CLI's objective flags into one [`ObjectiveSpec`].
/// With no objective flags given this is exactly the default spec, so
/// pre-existing invocations keep their behavior bit-for-bit.
fn objective_from_args(args: &SynthArgs) -> ObjectiveSpec {
    let mut spec = if args.height {
        ObjectiveSpec::width_height()
    } else {
        ObjectiveSpec::width()
    };
    if let Some(name) = &args.objective {
        spec = spec
            .with_ordering_name(name)
            .expect("validated in parse_synth");
    }
    if let Some(p) = args.track_pitch {
        spec.track_pitch = p;
    }
    if let Some(d) = args.diffusion_overhead {
        spec.diffusion_overhead = d;
    }
    if let Some(r) = args.rail_overhead {
        spec.rail_overhead = r;
    }
    if let Some(w) = args.interrow_weight {
        spec.interrow_weight = w;
    }
    spec.critical_nets = args.critical.clone();
    spec
}

fn synth(mut args: SynthArgs) -> ExitCode {
    let mut circuit = args.circuit.take().expect("validated");
    if args.fold > 1 {
        match circuit.into_paired() {
            Ok(paired) => match fold_uniform(&paired, args.fold) {
                Ok(folded) => circuit = folded.circuit().clone(),
                Err(e) => {
                    eprintln!("error: folding failed: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut request = SynthRequest::new(circuit)
        .rows(args.rows)
        .time_limit(args.limit)
        .objective(objective_from_args(&args));
    if args.stacking {
        request = request.stacking();
    }
    if let Some(jobs) = args.jobs {
        request = request.jobs(jobs);
    }
    if args.auto_rows {
        request = request.best_area(args.rows);
    }
    if args.pareto {
        // An empty spec list asks for the default sweep over the base
        // objective built from the flags above.
        request = request.pareto(Vec::new());
    }
    let result = match request.build() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cell = result.cell;
    let layout = CellLayout::build(&cell);

    if let Some(pareto) = &result.pareto {
        // The frontier table prints even under --quiet: it is the whole
        // point of a --pareto run, and its bytes are deterministic
        // across worker counts (unlike the timing chatter below).
        println!("{}", pareto.render());
    }
    if !args.quiet {
        println!(
            "{}: width {} pitches, height {} units ({} tracks), {} inter-row nets",
            layout.name,
            cell.width,
            cell.height,
            cell.tracks.iter().sum::<usize>(),
            cell.inter_row_nets
        );
        println!(
            "solve: {:?} ({}), model {} vars / {} constraints, {} nodes",
            cell.stats.duration,
            if cell.optimal {
                "proved optimal"
            } else {
                "best found"
            },
            cell.model_vars,
            cell.model_constraints,
            cell.stats.nodes
        );
        println!("\npipeline:\n{}", cell.trace.render());
        println!("{}", layout.render());
    }
    if let Some(path) = args.svg {
        if let Err(e) = std::fs::write(&path, layout.to_svg()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.json {
        if let Err(e) = std::fs::write(&path, layout.to_json()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.cif {
        if let Err(e) = std::fs::write(&path, layout.to_cif()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.trace {
        if let Err(e) = std::fs::write(&path, clip::layout::trace::to_json(&cell.trace)) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn parse_bench(
    args: &[String],
) -> Result<(clip::bench::corpus::CorpusOptions, Option<String>), String> {
    let mut corpus = false;
    let mut checkpoint: Option<String> = None;
    let mut summary: Option<String> = None;
    let mut opts = clip::bench::corpus::CorpusOptions::new("");
    let mut i = 0;
    let take = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--corpus" => corpus = true,
            "--checkpoint" => checkpoint = Some(take(&mut i)?),
            "--summary" => summary = Some(take(&mut i)?),
            "--seed" => opts.seed = take(&mut i)?.parse().map_err(|_| "bad --seed")?,
            "--cells" => opts.cells = take(&mut i)?.parse().map_err(|_| "bad --cells")?,
            "--shards" => {
                opts.shards = take(&mut i)?
                    .parse()
                    .map_err(|_| "bad --shards (need N >= 1)")?
            }
            "--budget" => {
                opts.budget =
                    Duration::from_secs(take(&mut i)?.parse().map_err(|_| "bad --budget")?)
            }
            "--quiet" => opts.progress = false,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if !corpus {
        return Err("bench requires --corpus (the only bench mode so far)".into());
    }
    opts.checkpoint = checkpoint
        .ok_or("--checkpoint FILE is required (the resumable JSONL)")?
        .into();
    if opts.cells == 0 {
        return Err("--cells must be positive".into());
    }
    Ok((opts, summary))
}

fn bench_corpus(opts: &clip::bench::corpus::CorpusOptions, summary_path: Option<&str>) -> ExitCode {
    let summary = match clip::bench::corpus::run(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", opts.checkpoint.display());
            return ExitCode::FAILURE;
        }
    };
    println!("corpus: {summary}");
    for v in &summary.violations {
        eprintln!("violation: {v}");
    }
    if let Some(path) = summary_path {
        if let Err(e) = std::fs::write(path, summary.to_json().to_pretty()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if summary.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_serve(args: &[String]) -> Result<(ServeConfig, Option<String>), String> {
    let mut config = ServeConfig {
        quiet: false,
        ..ServeConfig::default()
    };
    let mut listen: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut i = 0;
    let take = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => listen = Some(take(&mut i)?),
            "--unix" => unix = Some(take(&mut i)?),
            "--workers" => {
                config.workers = take(&mut i)?
                    .parse()
                    .map_err(|_| "bad --workers (need N >= 1)")?
            }
            "--queue" => {
                config.queue_cap = take(&mut i)?.parse().map_err(|_| "bad --queue")?;
                if config.queue_cap == 0 {
                    return Err("--queue must be positive".into());
                }
            }
            "--per-conn" => {
                // 0 is legal: it disables the fairness cap explicitly.
                config.per_conn_cap = take(&mut i)?
                    .parse()
                    .map_err(|_| "bad --per-conn (need N >= 0)")?;
            }
            "--cache" => config.cache_path = Some(take(&mut i)?.into()),
            "--cache-cap" => {
                let cap: usize = take(&mut i)?
                    .parse()
                    .map_err(|_| "bad --cache-cap (need N >= 1)")?;
                if cap == 0 {
                    return Err("--cache-cap must be positive".into());
                }
                config.cache_cap = Some(cap);
            }
            "--port-file" => port_file = Some(take(&mut i)?),
            "--quiet" => config.quiet = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    config.bind = match (listen, unix) {
        (Some(_), Some(_)) => return Err("give --listen or --unix, not both".into()),
        (None, Some(path)) => Bind::Unix(path.into()),
        (Some(addr), None) => Bind::Tcp(addr),
        // Loopback with an OS-assigned port: safe default for a daemon
        // (never exposed beyond the host unless asked).
        (None, None) => Bind::Tcp("127.0.0.1:0".into()),
    };
    Ok((config, port_file))
}

fn serve(config: ServeConfig, port_file: Option<&str>) -> ExitCode {
    let quiet = config.quiet;
    clip::serve::signals::install();
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: serve failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_display();
    // Scripts (CI, tests) discover the bound address either from this
    // line or from the port file; both land before the first accept.
    println!("clip-serve listening on {addr}");
    let _ = std::io::Write::flush(&mut std::io::stdout());
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("error: cannot write --port-file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            if !quiet {
                println!("clip-serve drained and stopped");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve terminated: {e}");
            ExitCode::FAILURE
        }
    }
}
