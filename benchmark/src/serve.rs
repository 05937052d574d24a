//! The `serve-mixed` workload: a `clip serve` daemon (two workers, a memo
//! cache in a fresh directory) in this process, driven closed-loop over at
//! most two connections.
//!
//! - The persistent client replays a script of named built-in cells, inline
//!   SPICE decks of corpus cells, `rows:"auto"` sweeps and `pareto`
//!   requests on one kept-open connection. Each key is sent cold once, at a
//!   point spread evenly through the script, and repeated after that.
//! - The one-shot client sends one request per fresh connection, back to
//!   back, on keys no other request uses, so every request's hit or miss
//!   class is fixed in advance.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use clip_core::request::SynthRequest;
use clip_corpus::{CorpusSpec, Mode};
use clip_layout::jsonio::{self, Json};
use clip_layout::{json as layout_json, trace as layout_trace, CellLayout};
use clip_netlist::{library, spice, Circuit};
use clip_rng::Rng;
use clip_serve::protocol::{self, Request, Source, SynthSpec};
use clip_serve::{cache, exec, MemoCache, ServeConfig, Server, ServerHandle};

use crate::layers::{self, LayerMetrics, PbCounts};
use crate::spans::{paired, Spans};
use crate::stats::{self, Op};
use crate::{SetupSampler, WorkloadRun};

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Limit every request carries: far above the slowest cold solve.
pub const LIMIT_MS: u64 = 60_000;
/// Persistent-client requests per second of `--seconds`, sized so a run
/// takes about that long at the reference speed.
pub const REQUESTS_PER_SECOND: usize = 2_800;
/// One-shot requests per second of `--seconds`. Assumed, like the whole
/// mix: no record of served traffic exists to draw it from. At about 50 ms
/// each the one-shot client finishes well inside the persistent client's
/// run.
pub const ONESHOTS_PER_SECOND: usize = 5;
/// Script length and one-shot count of a traced run.
const TRACE_REQUESTS: usize = 4_000;
const TRACE_ONESHOTS: usize = 20;
/// Kept-open repeats of each one-shot key in a traced run, to isolate the
/// cost of connection accept.
const KEPT_OPEN_PROBES: usize = 20;

/// Built-in cells requested by name, each at one and two rows.
const NAMED: [&str; 22] = [
    "inv", "nand2", "nand3", "nand4", "nor2", "nor3", "nor4", "aoi21", "aoi22", "oai21", "oai22",
    "and2", "or2", "and3", "or3", "nand2b", "ao21", "buffer", "xor2", "xnor2", "aoi222", "dlatch",
];
/// Cells requested with `"rows":"auto"` (best-area sweep up to three rows).
const AUTO: [&str; 6] = ["nand3", "nor3", "aoi21", "oai21", "and2", "or2"];
/// Cells requested with the `pareto` op at three rows.
const PARETO: [&str; 4] = ["nand3", "nor3", "aoi21", "oai21"];
/// Keys only the one-shot client sends.
const ONESHOT: [(&str, &str); 2] = [
    (
        "nand2",
        r#""cell":"nand2","rows":2,"objective":"width-height""#,
    ),
    (
        "nor2",
        r#""cell":"nor2","rows":2,"objective":"width-height""#,
    ),
];
/// Corpus cells sent as inline decks: flat cells of at most this many
/// pairs among the first [`DECK_CELLS`] of [`crate::corpus::CORPUS_SEED`].
const DECK_MAX_PAIRS: usize = 6;
const DECK_CELLS: usize = 64;

/// What kind of request a key is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A built-in cell by name.
    Named,
    /// An inline SPICE deck.
    Deck,
    /// A best-area sweep.
    Auto,
    /// A Pareto frontier.
    Pareto,
    /// A key of the one-shot client.
    OneShot,
}

/// One distinct request.
pub struct Key {
    class: Class,
    /// The cell the request is about.
    name: String,
    op: &'static str,
    /// The request's JSON members after `op` and `id`.
    body: String,
    /// The request as the daemon parses it.
    spec: SynthSpec,
}

impl Key {
    fn new(class: Class, name: &str, op: &'static str, body: String) -> Key {
        let line = format!(r#"{{"op":"{op}",{body},"jobs":1,"limit_ms":{LIMIT_MS}}}"#);
        let spec = match protocol::parse_line(&line).map(|e| e.request) {
            Ok(Request::Synth(spec)) => *spec,
            other => panic!("benchmark request {line} does not parse: {other:?}"),
        };
        Key {
            class,
            name: name.to_owned(),
            op,
            body: format!(r#"{body},"jobs":1,"limit_ms":{LIMIT_MS}"#),
            spec,
        }
    }

    /// A short name for reports: the request body, or for a deck the corpus
    /// cell it came from.
    fn label(&self) -> String {
        match &self.spec.source {
            Source::Deck(_) => format!("deck of {}", self.name),
            _ => self.body.clone(),
        }
    }

    fn line(&self, id: &str) -> String {
        format!(r#"{{"op":"{}","id":"{id}",{}}}"#, self.op, self.body) + "\n"
    }
}

fn pairs_of(circuit: &Circuit) -> usize {
    circuit.clone().into_paired().map_or(0, |p| p.pairs().len())
}

/// Every key: the persistent client's, then the one-shot client's.
fn catalogue() -> Vec<Key> {
    let cells: BTreeMap<String, Circuit> = library::evaluation_suite()
        .into_iter()
        .chain(library::extended_suite())
        .map(|c| (c.name().to_owned(), c))
        .collect();
    let mut keys = Vec::new();
    for name in NAMED {
        let pairs = pairs_of(&cells[name]);
        for rows in (1..=2).filter(|&r| r <= pairs) {
            keys.push(Key::new(
                Class::Named,
                name,
                "synth",
                format!(r#""cell":"{name}","rows":{rows}"#),
            ));
        }
    }
    let corpus = clip_corpus::generate(&CorpusSpec {
        seed: crate::corpus::CORPUS_SEED,
        cells: DECK_CELLS,
    });
    for cell in corpus
        .iter()
        .filter(|c| c.mode == Mode::Flat && c.features.pairs <= DECK_MAX_PAIRS)
    {
        let deck = Json::Str(spice::write(&cell.circuit)).to_compact();
        keys.push(Key::new(
            Class::Deck,
            cell.circuit.name(),
            "synth",
            format!(r#""deck":{deck},"rows":{}"#, cell.rows),
        ));
    }
    for name in AUTO {
        keys.push(Key::new(
            Class::Auto,
            name,
            "synth",
            format!(r#""cell":"{name}","rows":"auto","max_rows":3"#),
        ));
    }
    for name in PARETO {
        keys.push(Key::new(
            Class::Pareto,
            name,
            "pareto",
            format!(r#""cell":"{name}","rows":3"#),
        ));
    }
    for (name, body) in ONESHOT {
        keys.push(Key::new(Class::OneShot, name, "synth", body.to_owned()));
    }
    keys
}

/// Seed of the script's make-up: which key each slot holds.
const SCRIPT_SEED: u64 = 0x5eed_c11b;

/// The persistent client's script: `len` key indices. Each persistent key
/// is sent cold once, at evenly spaced slots; every other slot repeats a key
/// drawn uniformly from those already sent, so each class's share of the
/// hits follows its share of the keys. The make-up is fixed by
/// [`SCRIPT_SEED`]; `seed` shuffles the hits between each pair of
/// consecutive cold slots, so it changes the order of the requests and
/// never which requests are sent.
pub fn script(keys: &[Key], len: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(SCRIPT_SEED);
    let mut cold: Vec<usize> = (0..keys.len())
        .filter(|&k| keys[k].class != Class::OneShot)
        .collect();
    assert!(len >= cold.len(), "the script must hold every key once");
    rng.shuffle(&mut cold);
    let mut cold_slots = Vec::with_capacity(cold.len());
    let mut out = Vec::with_capacity(len);
    for pos in 0..len {
        let next = cold_slots.len();
        if next < cold.len() && pos >= next * len / cold.len() {
            cold_slots.push(pos);
            out.push(cold[next]);
        } else {
            // Slot 0 is always cold, so at least one key has been sent.
            out.push(cold[rng.bounded_u64(next as u64) as usize]);
        }
    }
    let mut order = Rng::seed_from_u64(seed);
    cold_slots.push(len);
    for w in cold_slots.windows(2) {
        order.shuffle(&mut out[w[0] + 1..w[1]]);
    }
    out
}

/// A started daemon with its inputs, ready for the timed phase.
pub struct Setup {
    keys: Vec<Key>,
    script: Vec<usize>,
    /// Rounds of equal make-up: one per second of `--seconds`.
    rounds: usize,
    oneshots: usize,
    traced: bool,
    dir: PathBuf,
    server: Option<Server>,
    /// Time `clip_corpus::generate` and the rest of input generation took.
    pub generate: Duration,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.handle().shutdown();
            let _ = server.run();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fresh_dir() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    crate::out_dir().join(format!("serve-{}-{n}", std::process::id()))
}

/// Generates the inputs, opens a fresh cache and starts the daemon.
pub fn setup(seed: u64, seconds: u64, traced: bool) -> Setup {
    let start = Instant::now();
    let keys = catalogue();
    let rounds = if traced { 1 } else { seconds as usize };
    let (len, oneshots) = if traced {
        (TRACE_REQUESTS, TRACE_ONESHOTS)
    } else {
        (rounds * REQUESTS_PER_SECOND, rounds * ONESHOTS_PER_SECOND)
    };
    let script = script(&keys, len, seed);
    let generate = start.elapsed();
    let dir = fresh_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("benchmark output directory is writable");
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        cache_path: Some(dir.join("cache.jsonl")),
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("daemon starts on a loopback port");
    Setup {
        keys,
        script,
        rounds,
        oneshots,
        traced,
        dir,
        server: Some(server),
        generate,
    }
}

/// A line-JSON client on one connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            buf: String::new(),
        })
    }

    /// Sends one line and reads one reply line into `self.buf`.
    fn round_trip(&mut self, line: &str) -> io::Result<()> {
        self.buf.clear();
        self.writer.write_all(line.as_bytes())?;
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        Ok(())
    }
}

/// One timed request.
struct Sample {
    key: usize,
    cold: bool,
    oneshot: bool,
    op: Op,
    /// Process CPU time over the round trip: the client's and the daemon's
    /// work for it. Only the persistent client's requests, which run one
    /// at a time, are measured.
    cpu: Option<Duration>,
}

/// Cold replies by key and the checks every reply passes through.
#[derive(Default)]
struct Replies {
    cold: BTreeMap<usize, String>,
    failures: Vec<String>,
}

impl Replies {
    /// Checks one reply: `ok`, not degraded, the expected cache class, and
    /// for a hit byte-identical to the cold reply of its key.
    fn check(&mut self, key: usize, id: &str, cold: bool, reply: &str, op: &mut Op) {
        let verdict = check_reply(id, cold, reply, self.cold.get(&key).map(String::as_str));
        match verdict {
            Ok(()) if cold => {
                self.cold.insert(key, reply.to_owned());
            }
            Ok(()) => {}
            Err(e) => {
                let line = format!("request {id}: {e}");
                op.fail(format!("check: {line}"));
                self.failures.push(line);
            }
        }
    }
}

/// The bytes of a reply after its `id`/`status`/`cached` prefix.
fn payload(reply: &str) -> Option<&str> {
    reply.find(r#","result":"#).map(|i| &reply[i..])
}

/// Checks one reply line. `cold_reply` is the first reply of the key, for
/// hits.
pub fn check_reply(
    id: &str,
    cold: bool,
    reply: &str,
    cold_reply: Option<&str>,
) -> Result<(), String> {
    let expected = format!(
        r#"{{"id":"{id}","status":"ok","cached":{},"result":"#,
        !cold
    );
    if !reply.starts_with(&expected) {
        let head: String = reply.chars().take(160).collect();
        return Err(format!("expected a reply starting {expected}, got {head}"));
    }
    if !cold {
        match cold_reply.and_then(payload) {
            Some(c) if payload(reply) == Some(c) => {}
            Some(_) => return Err("hit differs from the cold reply of its key".into()),
            None => return Err("hit before any cold reply of its key".into()),
        }
    }
    Ok(())
}

/// The client's own count of what the daemon should report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Synthesis requests sent.
    pub sent: u64,
    /// Replies marked cached.
    pub hits: u64,
}

/// Checks the daemon's `stats` counters against the client's tally.
pub fn check_stats(counters: &BTreeMap<String, u64>, tally: Tally) -> Result<(), String> {
    let expected = [
        ("received", tally.sent),
        ("completed", tally.sent),
        ("cache_hits", tally.hits),
        ("degraded", 0),
        ("rejected", 0),
        ("throttled", 0),
        ("errors", 0),
        ("panics", 0),
    ];
    for (name, want) in expected {
        match counters.get(name) {
            Some(&got) if got == want => {}
            got => return Err(format!("stats {name} = {got:?}, expected {want}")),
        }
    }
    Ok(())
}

fn fetch_stats(client: &mut Client) -> Result<BTreeMap<String, u64>, String> {
    client
        .round_trip("{\"op\":\"stats\",\"id\":\"stats\"}\n")
        .map_err(|e| format!("stats request failed: {e}"))?;
    let reply = jsonio::parse(client.buf.trim_end()).map_err(|e| format!("stats reply: {e}"))?;
    let pairs = reply
        .get("stats")
        .and_then(Json::as_obj)
        .ok_or("stats reply has no counters")?;
    Ok(pairs
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect())
}

/// True when no point of `frontier` dominates another: no worse in both
/// coordinates and better in one.
pub fn mutually_non_dominated(frontier: &[(u64, u64)]) -> bool {
    let dominates = |a: &(u64, u64), b: &(u64, u64)| a.0 <= b.0 && a.1 <= b.1 && a != b;
    frontier
        .iter()
        .all(|b| !frontier.iter().any(|a| dominates(a, b)))
}

/// The frontier of a served `pareto` result as `(width, height)` values.
fn served_frontier(result: &Json) -> Result<Vec<(u64, u64)>, String> {
    let points = result
        .get("pareto")
        .and_then(Json::as_arr)
        .ok_or("pareto reply has no points")?;
    let mut frontier = Vec::new();
    for p in points {
        if p.get("on_frontier").and_then(Json::as_bool) == Some(true) {
            let v = |k: &str| {
                p.get(k)
                    .and_then(Json::as_u64)
                    .ok_or(format!("frontier point lacks {k}"))
            };
            frontier.push((v("width")?, v("height")?));
        }
    }
    let size = result.get("frontier_size").and_then(Json::as_u64);
    if size != Some(frontier.len() as u64) {
        return Err(format!(
            "frontier_size {size:?} but {} frontier points",
            frontier.len()
        ));
    }
    if !mutually_non_dominated(&frontier) {
        return Err(format!(
            "frontier {frontier:?} is not mutually non-dominated"
        ));
    }
    frontier.sort_unstable();
    Ok(frontier)
}

/// The circuit a spec names, resolved the way the daemon resolves it.
fn resolve(spec: &SynthSpec) -> Circuit {
    match &spec.source {
        Source::Cell(name) => library::evaluation_suite()
            .into_iter()
            .chain(library::extended_suite())
            .find(|c| c.name() == name.as_str())
            .expect("benchmark cells exist"),
        Source::Deck(text) => spice::parse("imported", text).expect("benchmark decks parse"),
        Source::Expr(_) => unreachable!("the benchmark sends no expressions"),
    }
}

/// The in-process request equal to what the daemon solves for `spec`.
fn in_process(spec: &SynthSpec, circuit: Circuit) -> SynthRequest {
    let mut request = SynthRequest::new(circuit)
        .rows(spec.rows)
        .time_limit(Duration::from_millis(spec.limit_ms))
        .objective(exec::objective_of(spec).expect("benchmark objectives are valid"))
        .jobs(NonZeroUsize::MIN);
    if spec.auto_rows {
        request = request.best_area(spec.max_rows);
    }
    request
}

/// Compares a cold reply with an in-process solve of the same request.
fn check_against_in_process(key: &Key, reply: &str) -> Result<(), String> {
    let parsed = jsonio::parse(reply.trim_end()).map_err(|e| format!("reply: {e}"))?;
    let result = parsed.get("result").ok_or("reply has no result")?;
    let request = in_process(&key.spec, resolve(&key.spec));
    if key.spec.pareto {
        let served = served_frontier(result)?;
        let local = request
            .pareto(Vec::new())
            .build()
            .map_err(|e| format!("in-process pareto: {e}"))?
            .pareto
            .ok_or("in-process pareto has no frontier")?;
        let mut frontier: Vec<(u64, u64)> = local
            .frontier
            .iter()
            .filter_map(|&i| {
                let p = &local.points[i];
                Some((p.width? as u64, p.height? as u64))
            })
            .collect();
        frontier.sort_unstable();
        return if frontier == served {
            Ok(())
        } else {
            Err(format!(
                "served frontier {served:?}, in-process {frontier:?}"
            ))
        };
    }
    let cell = request
        .build()
        .map_err(|e| format!("in-process solve: {e}"))?
        .cell;
    let field = |k: &str| result.get(k).and_then(Json::as_usize);
    match (field("width"), field("height")) {
        (Some(w), Some(h)) if (w, h) == (cell.width, cell.height) => Ok(()),
        served => Err(format!(
            "served (width, height) {served:?}, in-process ({}, {})",
            cell.width, cell.height
        )),
    }
}

/// The one-shot client: a fresh connection per request.
fn oneshot_client(addr: SocketAddr, keys: &[Key], count: usize) -> (Vec<Sample>, Replies) {
    let first: Vec<usize> = (0..keys.len())
        .filter(|&k| keys[k].class == Class::OneShot)
        .collect();
    let mut replies = Replies::default();
    let mut samples = Vec::with_capacity(count);
    for m in 0..count {
        let key = first[m % first.len()];
        let id = format!("o{m}");
        let line = keys[key].line(&id);
        let cold = m < first.len();
        let start = Instant::now();
        let sent = Client::connect(addr).and_then(|mut c| c.round_trip(&line).map(|()| c.buf));
        let mut op = Op::ok(start.elapsed());
        match sent {
            Ok(reply) => replies.check(key, &id, cold, &reply, &mut op),
            Err(e) => op.fail(format!("error: {e}")),
        }
        samples.push(Sample {
            key,
            cold,
            oneshot: true,
            op,
            cpu: None,
        });
    }
    (samples, replies)
}

/// Spreads `b` evenly through `a`, keeping each one's order, so that every
/// stretch of the result holds the same mix.
fn interleave<T>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
    let (na, nb) = (a.len(), b.len());
    let mut out = Vec::with_capacity(na + nb);
    let mut b = b.into_iter();
    let mut placed = 0;
    for (i, x) in a.into_iter().enumerate() {
        out.push(x);
        while placed < nb && (placed + 1) * na <= (i + 1) * nb {
            out.extend(b.next());
            placed += 1;
        }
    }
    out.extend(b);
    out
}

/// Per-class latency medians of a socket run, in ms.
struct ClassMedians {
    hit: f64,
    deck_hit: f64,
    miss: f64,
    oneshot: f64,
}

fn class_medians(keys: &[Key], samples: &[Sample]) -> ClassMedians {
    let med = |f: &dyn Fn(&Sample) -> bool| {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| f(s))
            .map(|s| s.op.wall.as_secs_f64() * 1e3)
            .collect();
        stats::median(&ms).unwrap_or(0.0)
    };
    ClassMedians {
        hit: med(&|s| !s.oneshot && !s.cold),
        deck_hit: med(&|s| !s.cold && keys[s.key].class == Class::Deck),
        miss: med(&|s| !s.oneshot && s.cold),
        oneshot: med(&|s| s.oneshot),
    }
}

/// One report line per request class, cold and hit apart: its share of the
/// requests, of the timed phase's wall time and of its process CPU time.
/// The one-shot client runs beside the persistent one, so its wall time
/// overlaps theirs, and its CPU time is left in the unattributed rest with
/// the accept loop's and the client's own bookkeeping.
fn class_shares(keys: &[Key], samples: &[Sample], wall: Duration, cpu: Duration) -> Vec<String> {
    let pct = |part: f64, whole: f64| 100.0 * part / whole.max(f64::MIN_POSITIVE);
    let (wall, cpu_total) = (wall.as_secs_f64(), cpu.as_secs_f64());
    let mut lines = Vec::new();
    let mut attributed = 0.0;
    for class in [
        Class::Named,
        Class::Deck,
        Class::Auto,
        Class::Pareto,
        Class::OneShot,
    ] {
        for cold in [false, true] {
            let of: Vec<&Sample> = samples
                .iter()
                .filter(|s| keys[s.key].class == class && s.cold == cold)
                .collect();
            let ms: Vec<f64> = of.iter().map(|s| s.op.wall.as_secs_f64() * 1e3).collect();
            let class_wall = ms.iter().sum::<f64>() / 1e3;
            let class_cpu: f64 = of
                .iter()
                .filter_map(|s| s.cpu)
                .map(|c| c.as_secs_f64())
                .sum();
            attributed += class_cpu;
            let cpu_part = if class == Class::OneShot {
                "CPU not attributed".to_owned()
            } else {
                format!("{:.1} % of the CPU", pct(class_cpu, cpu_total))
            };
            lines.push(format!(
                "{class:?} {}: {} requests ({:.2} % of all), median {:.3} ms, {:.1} % of the wall, {cpu_part}",
                if cold { "cold" } else { "hits" },
                of.len(),
                pct(of.len() as f64, samples.len() as f64),
                stats::median(&ms).unwrap_or(0.0),
                pct(class_wall, wall),
            ));
        }
    }
    lines.push(format!(
        "CPU not attributed to a persistent request: {:.1} % (one-shot client, accept loop, client bookkeeping)",
        pct(cpu_total - attributed, cpu_total)
    ));
    lines
}

/// Asks the daemon to shut down when dropped.
struct StopOnDrop(ServerHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs the workload. Set-up batches run at round boundaries of the
/// persistent client's script, outside the timing.
pub fn run(mut setup: Setup, sampler: &mut SetupSampler) -> WorkloadRun {
    let server = setup.server.take().expect("setup starts the daemon");
    let handle = server.handle();
    let addr = server.local_addr().expect("the daemon listens on TCP");
    let mut out = WorkloadRun::default();
    let keys = &setup.keys;

    thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        // Stops the daemon even if the client side panics, so the scope can
        // join it.
        let _stop = StopOnDrop(handle.clone());
        // Not timed: the first round trip waits out the daemon's accept poll.
        let mut client = Client::connect(addr).expect("connect to the daemon");
        fetch_stats(&mut client).expect("daemon answers stats");

        let cpu0 = crate::sys::cpu_time();
        let t0 = Instant::now();
        let oneshot = scope.spawn(|| oneshot_client(addr, keys, setup.oneshots));
        let mut replies = Replies::default();
        let mut seen = BTreeSet::new();
        let mut samples = Vec::with_capacity(setup.script.len() + setup.oneshots);
        let per_round = setup.script.len() / setup.rounds;
        let (mut paused_wall, mut paused_cpu) = (Duration::ZERO, Duration::ZERO);
        for (i, &key) in setup.script.iter().enumerate() {
            let id = format!("p{i}");
            let line = keys[key].line(&id);
            let cold = seen.insert(key);
            let cpu_start = crate::sys::cpu_time();
            let start = Instant::now();
            let sent = client.round_trip(&line);
            let mut op = Op::ok(start.elapsed());
            let cpu = crate::sys::cpu_time().saturating_sub(cpu_start);
            match sent {
                Ok(()) => replies.check(key, &id, cold, &client.buf, &mut op),
                Err(e) => op.fail(format!("error: {e}")),
            }
            samples.push(Sample {
                key,
                cold,
                oneshot: false,
                op,
                cpu: Some(cpu),
            });
            if !setup.traced && (i + 1) % per_round == 0 {
                let (wall, cpu) = sampler.after_round((i + 1) / per_round, setup.rounds);
                paused_wall += wall;
                paused_cpu += cpu;
            }
        }
        let (oneshot_samples, oneshot_replies) = oneshot.join().expect("one-shot client runs");
        out.timed_wall = t0.elapsed().saturating_sub(paused_wall);
        out.cpu = (crate::sys::cpu_time() - cpu0).saturating_sub(paused_cpu);
        let samples = interleave(samples, oneshot_samples);
        replies.failures.extend(oneshot_replies.failures);
        replies.cold.extend(oneshot_replies.cold);

        let mut tally = Tally {
            sent: samples.len() as u64,
            hits: samples
                .iter()
                .filter(|s| !s.cold && s.op.succeeded())
                .count() as u64,
        };
        let medians = class_medians(keys, &samples);
        let mut accept_wait = 0.0;
        if setup.traced {
            // The one-shot keys again, on the kept-open connection.
            let mut kept = Vec::new();
            for k in (0..keys.len()).filter(|&k| keys[k].class == Class::OneShot) {
                for r in 0..KEPT_OPEN_PROBES {
                    let id = format!("k{k}-{r}");
                    let start = Instant::now();
                    let sent = client.round_trip(&keys[k].line(&id));
                    let mut op = Op::ok(start.elapsed());
                    match sent {
                        Ok(()) => replies.check(k, &id, false, &client.buf, &mut op),
                        Err(e) => op.fail(format!("error: {e}")),
                    }
                    tally.sent += 1;
                    tally.hits += u64::from(op.succeeded());
                    kept.push(op.wall.as_secs_f64() * 1e3);
                }
            }
            accept_wait = medians.oneshot - stats::median(&kept).unwrap_or(0.0);
        }
        let counters = fetch_stats(&mut client);
        if let Err(e) = counters
            .as_ref()
            .map_err(String::clone)
            .and_then(|c| check_stats(c, tally))
        {
            replies.failures.push(e);
        }
        handle.shutdown();
        match daemon.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => replies.failures.push(format!("daemon stopped with {e}")),
            Err(_) => replies.failures.push("daemon thread panicked".into()),
        }

        for (&key, reply) in &replies.cold {
            if let Err(e) = check_against_in_process(&keys[key], reply) {
                replies.failures.push(format!("{}: {e}", keys[key].label()));
            }
        }
        let cold: usize = samples.iter().filter(|s| s.cold).count();
        out.notes.push(format!(
            "{} persistent requests ({} cold), {} one-shot ({} cold), {} keys",
            samples.iter().filter(|s| !s.oneshot).count(),
            samples.iter().filter(|s| !s.oneshot && s.cold).count(),
            samples.iter().filter(|s| s.oneshot).count(),
            cold - samples.iter().filter(|s| !s.oneshot && s.cold).count(),
            keys.len()
        ));
        out.notes.push(format!(
            "hit p50 {:.4} ms, miss p50 {:.4} ms, one-shot p50 {:.4} ms",
            medians.hit, medians.miss, medians.oneshot
        ));
        out.notes
            .extend(class_shares(keys, &samples, out.timed_wall, out.cpu));

        if setup.traced {
            let mut metrics = LayerMetrics::default();
            metrics.set("serve.hit_latency_p50_ms", medians.hit);
            metrics.set("serve.miss_latency_p50_ms", medians.miss);
            metrics.set("serve.oneshot_latency_p50_ms", medians.oneshot);
            metrics.set("serve.accept_wait_ms", accept_wait);
            metrics.set("corpus.generate_ms", setup.generate.as_secs_f64() * 1e3);
            if let Ok(c) = &counters {
                for (name, v) in c {
                    if let Some(metric) = counter_metric(name) {
                        metrics.set(metric, *v as f64);
                    }
                }
                let completed = c.get("completed").copied().unwrap_or(0).max(1);
                metrics.set(
                    "serve.hit_ratio",
                    c.get("cache_hits").copied().unwrap_or(0) as f64 / completed as f64,
                );
            }
            // Two in-process replays of the script in lockstep, one with
            // spans, each with its own fresh cache.
            let mut plain = Replay::open(&setup.dir.join("replay-plain.jsonl"));
            let mut traced = Replay::open(&setup.dir.join("replay-traced.jsonl"));
            let mut spans = Spans::default();
            let (_, _, overhead) = paired(setup.script.len(), &mut spans, |k, s| {
                let start = Instant::now();
                let key = &keys[setup.script[k]];
                match s {
                    Some((s, _)) => replay_one(&mut traced, key, k, Some(s)),
                    None => replay_one(&mut plain, key, k, None),
                }
                ((), start.elapsed())
            });
            metrics.set("trace.overhead_pct", overhead);
            metrics.set_pipeline(&traced.pb, &layers::self_ms(&spans), traced.synths);
            set_serve_layers(&mut metrics, &spans);
            // Deck hits skip cell resolution, so their in-process time is
            // small beside the socket's share of the round trip.
            metrics.set(
                "serve.transport_us",
                medians.deck_hit * 1e3 - stats::median(&plain.deck_hit_us).unwrap_or(0.0),
            );
            replies.failures.extend(plain.failures);
            replies.failures.extend(traced.failures);
            out.layers = Some(metrics);
            out.spans = Some(spans);
        }
        out.failures = replies.failures;
        out.rounds = setup.rounds;
        out.ops = samples.into_iter().map(|s| s.op).collect();
    });
    out
}

/// The per-layer metric name of a daemon counter.
fn counter_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "received" => "serve.received",
        "completed" => "serve.completed",
        "cache_hits" => "serve.cache_hits",
        "degraded" => "serve.degraded",
        "rejected" => "serve.rejected",
        "throttled" => "serve.throttled",
        "errors" => "serve.errors",
        "panics" => "serve.panics",
        _ => return None,
    })
}

/// Mean self time per call of each serve-path span.
fn set_serve_layers(metrics: &mut LayerMetrics, spans: &Spans) {
    let st = spans.self_times();
    let mean = |name: &str, scale: f64| {
        st.get(name)
            .map_or(0.0, |&(n, d)| d.as_secs_f64() * scale / n.max(1) as f64)
    };
    for (metric, span, scale) in [
        ("serve.parse_us", "serve.parse", 1e6),
        ("serve.resolve_us", "serve.resolve", 1e6),
        ("netlist.spice_parse_us", "netlist.spice_parse", 1e6),
        ("netlist.spice_write_us", "netlist.spice_write", 1e6),
        ("serve.key_us", "serve.key", 1e6),
        ("serve.cache_get_us", "serve.cache_get", 1e6),
        ("serve.response_us", "serve.response", 1e6),
        ("serve.cache_insert_ms", "serve.cache_insert", 1e3),
        ("layout.build_us", "layout.build", 1e6),
        ("layout.document_us", "layout.document", 1e6),
    ] {
        metrics.set(metric, mean(span, scale));
    }
}

/// One in-process replay of the script: its own memo cache and what it
/// measured.
struct Replay {
    cache: Mutex<MemoCache>,
    pb: PbCounts,
    synths: usize,
    /// In-process time of each deck hit: parse, `exec::execute`, response.
    deck_hit_us: Vec<f64>,
    failures: Vec<String>,
}

impl Replay {
    fn open(cache_path: &Path) -> Replay {
        let _ = std::fs::remove_file(cache_path);
        Replay {
            cache: Mutex::new(MemoCache::open(cache_path).expect("replay cache opens")),
            pb: PbCounts::default(),
            synths: 0,
            deck_hit_us: Vec::new(),
            failures: Vec::new(),
        }
    }
}

/// Runs `f`, recording it as a span of operation `op` when tracing.
fn step<T>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    op: usize,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(s) = spans.as_deref_mut() {
        s.record(name, None, op, start, end);
    }
    (out, end - start)
}

/// Replays request `i` of the script in this thread, through the daemon's
/// own steps: `protocol::parse_line`, cell resolution as `exec` does it,
/// `spice::parse`/`spice::write`, `cache::canonical_key`, `MemoCache` get
/// and insert, the solve, `CellLayout::build`, `layout::json::document` and
/// `protocol::synth_response`. Each hit also goes through `exec::execute`,
/// and each `pareto` request through `exec::execute_pareto`. With `spans`,
/// each step is recorded.
fn replay_one(state: &mut Replay, key: &Key, i: usize, mut spans: Option<&mut Spans>) {
    let id = format!("p{i}");
    let line = key.line(&id);
    let cache = &state.cache;
    let (parsed, parse_time) = step(&mut spans, "serve.parse", i, || {
        protocol::parse_line(line.trim_end())
    });
    let Ok(Request::Synth(spec)) = parsed.map(|e| e.request) else {
        state
            .failures
            .push(format!("replay: request {id} does not parse"));
        return;
    };
    if spec.pareto {
        let (reply, _) = step(&mut spans, "serve.pareto", i, || {
            exec::execute_pareto(&spec, Some(cache))
        });
        if let Err(e) = reply {
            state
                .failures
                .push(format!("replay: pareto {id}: {}", e.message()));
        }
        return;
    }
    let resolve_span = match spec.source {
        Source::Deck(_) => "netlist.spice_parse",
        _ => "serve.resolve",
    };
    let (circuit, _) = step(&mut spans, resolve_span, i, || resolve(&spec));
    let (canonical, _) = step(&mut spans, "netlist.spice_write", i, || {
        spice::write(&circuit)
    });
    let (key, _) = step(&mut spans, "serve.key", i, || {
        cache::canonical_key(&canonical, &spec)
    });
    let (hit, _) = step(&mut spans, "serve.cache_get", i, || {
        cache.lock().expect("replay cache lock").get(&key).cloned()
    });
    if let Some(result) = hit {
        let (_, respond) = step(&mut spans, "serve.response", i, || {
            protocol::synth_response(Some(&id), true, None, &result)
        });
        let (executed, execute) = step(&mut spans, "serve.execute", i, || {
            exec::execute(&spec, Some(cache))
        });
        if !executed.is_ok_and(|r| r.cached) {
            state
                .failures
                .push(format!("replay: request {id} missed a warm cache"));
        }
        if matches!(spec.source, Source::Deck(_)) {
            state
                .deck_hit_us
                .push((parse_time + execute + respond).as_secs_f64() * 1e6);
        }
        return;
    }
    let start = Instant::now();
    let built = in_process(&spec, circuit).build();
    let end = Instant::now();
    state.synths += 1;
    if let Some(s) = spans.as_deref_mut() {
        let id = s.record("core.synth", None, i, start, end);
        if let Ok(r) = &built {
            s.add_stages(id, &r.cell.trace);
        }
    }
    let cell = match built {
        Ok(r) => r.cell,
        Err(e) => {
            state.failures.push(format!("replay: request {id}: {e}"));
            return;
        }
    };
    state.pb.add(&cell.trace);
    let (layout, _) = step(&mut spans, "layout.build", i, || CellLayout::build(&cell));
    let (doc, _) = step(&mut spans, "layout.document", i, || {
        layout_json::document(&layout).to_value()
    });
    let result = Json::obj([
        ("cell", Json::Str(layout.name.clone())),
        ("rows", Json::Int(cell.placement.rows.len() as i64)),
        ("width", Json::Int(cell.width as i64)),
        ("height", Json::Int(cell.height as i64)),
        ("proved", Json::Bool(cell.optimal)),
        ("layout", doc),
        ("trace", layout_trace::to_value(&cell.trace)),
    ]);
    let (inserted, _) = step(&mut spans, "serve.cache_insert", i, || {
        cache
            .lock()
            .expect("replay cache lock")
            .insert(&key, &result, false)
    });
    if let Err(e) = inserted {
        state.failures.push(format!("replay: cache insert: {e}"));
    }
    step(&mut spans, "serve.response", i, || {
        protocol::synth_response(Some(&id), false, None, &result)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_parses_and_the_script_spreads_cold_requests() {
        let keys = catalogue();
        let persistent = keys.iter().filter(|k| k.class != Class::OneShot).count();
        let script = script(&keys, 4_000, 3);
        assert_eq!(script.len(), 4_000);
        let mut seen = BTreeSet::new();
        let firsts: Vec<usize> = (0..script.len())
            .filter(|&i| seen.insert(script[i]))
            .collect();
        assert_eq!(firsts.len(), persistent, "every persistent key is sent");
        assert!(firsts.iter().all(|&i| i < 4_000));
        let gap = 4_000 / persistent;
        for w in firsts.windows(2) {
            assert!(w[1] - w[0] >= gap - 1 && w[1] - w[0] <= gap + 1, "{w:?}");
        }
        let named_hits = (0..script.len())
            .filter(|&i| !firsts.contains(&i) && keys[script[i]].class == Class::Named)
            .count();
        assert!(
            named_hits * 2 > script.len() - persistent,
            "named cells are most hits"
        );
        assert!(script.iter().all(|&k| keys[k].class != Class::OneShot));
        assert_eq!(script, super::script(&keys, 4_000, 3));
        // Another seed reorders the hits and keeps the make-up.
        let other = super::script(&keys, 4_000, 4);
        assert_ne!(other, script);
        let mut a = script.clone();
        let mut b = other.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        let mut seen_other = BTreeSet::new();
        let firsts_other: Vec<usize> = (0..other.len())
            .filter(|&i| seen_other.insert(other[i]))
            .collect();
        assert_eq!(firsts_other, firsts, "cold requests keep their slots");
    }

    const COLD: &str = r#"{"id":"p1","status":"ok","cached":false,"result":{"width":3}}"#;

    #[test]
    fn reply_checks_accept_matching_replies() {
        assert_eq!(check_reply("p1", true, COLD, None), Ok(()));
        let hit = r#"{"id":"p9","status":"ok","cached":true,"result":{"width":3}}"#;
        assert_eq!(check_reply("p9", false, hit, Some(COLD)), Ok(()));
    }

    #[test]
    fn reply_checks_reject_a_hit_that_differs_from_its_cold_reply() {
        let hit = r#"{"id":"p9","status":"ok","cached":true,"result":{"width":4}}"#;
        assert!(check_reply("p9", false, hit, Some(COLD)).is_err());
        let degraded =
            r#"{"id":"p1","status":"ok","cached":false,"degraded":"deadline","result":{}}"#;
        assert!(check_reply("p1", true, degraded, None).is_err());
        let error = r#"{"id":"p1","status":"error","code":"bad_request","error":"x"}"#;
        assert!(check_reply("p1", true, error, None).is_err());
        let wrong_class = r#"{"id":"p1","status":"ok","cached":true,"result":{"width":3}}"#;
        assert!(check_reply("p1", true, wrong_class, None).is_err());
    }

    #[test]
    fn stats_checks_reject_a_counter_off_by_one() {
        let tally = Tally { sent: 10, hits: 7 };
        let good: BTreeMap<String, u64> = [
            ("received", 10),
            ("completed", 10),
            ("cache_hits", 7),
            ("degraded", 0),
            ("rejected", 0),
            ("throttled", 0),
            ("errors", 0),
            ("panics", 0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        assert_eq!(check_stats(&good, tally), Ok(()));
        for name in good.keys() {
            let mut bad = good.clone();
            *bad.get_mut(name).unwrap() += 1;
            assert!(check_stats(&bad, tally).is_err(), "{name} off by one");
        }
    }

    #[test]
    fn interleave_spreads_the_shorter_list_evenly() {
        assert_eq!(
            interleave(vec![1, 2, 3, 4], vec![10, 20]),
            [1, 2, 10, 3, 4, 20]
        );
        assert_eq!(interleave(vec![1, 2], Vec::new()), [1, 2]);
        assert_eq!(interleave(Vec::new(), vec![7]), [7]);
    }

    #[test]
    fn dominance_check_rejects_a_dominated_frontier_point() {
        assert!(mutually_non_dominated(&[(2, 9), (3, 7), (4, 5)]));
        assert!(!mutually_non_dominated(&[(2, 9), (3, 7), (3, 8)]));
        let result = jsonio::parse(
            r#"{"pareto":[{"width":2,"height":9,"on_frontier":true},{"width":3,"height":10,"on_frontier":true}],"frontier_size":2}"#,
        )
        .unwrap();
        assert!(served_frontier(&result).is_err());
    }
}
