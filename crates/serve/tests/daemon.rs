//! End-to-end daemon tests over real TCP loopback sockets: concurrent
//! clients, byte-identity with the offline export, malformed-input
//! containment, stats, shutdown drain, and cache reuse across server
//! restarts (same process; the SIGKILL variant lives in the root
//! crate's `tests/serve.rs` where the packaged binary is available).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use clip_core::request::SynthRequest;
use clip_layout::jsonio::{self, Json};
use clip_layout::CellLayout;
use clip_netlist::library;
use clip_serve::daemon::{Bind, ServeConfig, Server, ServerHandle};

/// A running in-process daemon plus everything needed to talk to it
/// and shut it down.
struct TestServer {
    addr: String,
    handle: ServerHandle,
    runner: thread::JoinHandle<std::io::Result<()>>,
}

fn start(config: ServeConfig) -> TestServer {
    let server = Server::start(config).expect("bind loopback");
    let addr = server.local_display();
    let handle = server.handle();
    let runner = thread::spawn(move || server.run());
    TestServer {
        addr,
        handle,
        runner,
    }
}

impl TestServer {
    fn stop(self) {
        self.handle.shutdown();
        self.runner
            .join()
            .expect("server thread")
            .expect("clean run");
    }
}

fn quiet_config() -> ServeConfig {
    ServeConfig {
        bind: Bind::Tcp("127.0.0.1:0".into()),
        quiet: true,
        ..ServeConfig::default()
    }
}

/// One client connection speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection unexpectedly");
        jsonio::parse(&line).expect("response is valid JSON")
    }
}

fn offline_layout_json(cell_fn: fn() -> clip_netlist::Circuit, rows: usize) -> String {
    let cell = SynthRequest::new(cell_fn())
        .rows(rows)
        .build()
        .expect("offline solve")
        .cell;
    CellLayout::build(&cell).to_json()
}

#[test]
fn concurrent_clients_get_byte_identical_answers_to_the_offline_cli() {
    let server = start(quiet_config());
    type Case = (&'static str, fn() -> clip_netlist::Circuit, usize);
    let cells: [Case; 3] = [
        ("nand2", library::nand2, 1),
        ("nor2", library::nor2, 1),
        ("mux21", library::mux21, 2),
    ];
    let addr = server.addr.clone();
    thread::scope(|scope| {
        for (name, cell_fn, rows) in cells {
            let addr = &addr;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                client.send(&format!(
                    r#"{{"op":"synth","id":"{name}","cell":"{name}","rows":{rows}}}"#
                ));
                let reply = client.recv();
                assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
                assert_eq!(reply.get("id").unwrap().as_str(), Some(name));
                assert_eq!(reply.get("cached").unwrap().as_bool(), Some(false));
                let result = reply.get("result").unwrap();
                assert_eq!(result.get("proved"), Some(&Json::Bool(true)));
                // The headline contract: pretty-printing the embedded
                // layout reproduces `clip synth --json` byte for byte.
                let served = result.get("layout").unwrap().to_pretty();
                assert_eq!(served, offline_layout_json(cell_fn, rows), "{name}");
            });
        }
    });
    server.stop();
}

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let server = start(quiet_config());
    let mut client = Client::connect(&server.addr);
    let malformed = [
        "this is not json",
        r#"{"op":"synth"}"#,
        r#"{"op":"synth","cell":"nand2","rowz":1}"#,
        r#"{"op":"launch_missiles"}"#,
        "[1,2,3]",
        r#"{"op":"synth","cell":"nand2","faults":["bogus.site"]}"#,
    ];
    for line in malformed {
        client.send(line);
        let reply = client.recv();
        assert_eq!(
            reply.get("status").unwrap().as_str(),
            Some("error"),
            "{line}"
        );
        assert_eq!(
            reply.get("code").unwrap().as_str(),
            Some("bad_request"),
            "{line}"
        );
        assert!(reply.get("error").unwrap().as_str().is_some(), "{line}");
    }
    // Six errors later the same connection still solves.
    client.send(r#"{"op":"synth","id":"after","cell":"nand2"}"#);
    let reply = client.recv();
    assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
    // And the daemon counted them.
    client.send(r#"{"op":"stats"}"#);
    let stats = client.recv();
    let errors = stats
        .get("stats")
        .unwrap()
        .get("errors")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(errors >= malformed.len() as u64, "errors = {errors}");
    server.stop();
}

#[test]
fn unknown_cells_and_malformed_decks_are_request_level_errors() {
    let server = start(quiet_config());
    let mut client = Client::connect(&server.addr);
    client.send(r#"{"op":"synth","id":"a","cell":"nandzilla"}"#);
    let reply = client.recv();
    assert_eq!(reply.get("code").unwrap().as_str(), Some("bad_request"));
    assert!(reply
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("nandzilla"));

    client.send(r#"{"op":"synth","id":"b","deck":"M1 z a GND\n"}"#);
    let reply = client.recv();
    assert_eq!(reply.get("code").unwrap().as_str(), Some("bad_request"));
    assert!(
        reply
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("line 1"),
        "spice errors keep their line context across the wire"
    );
    server.stop();
}

#[test]
fn memo_cache_hits_are_byte_identical_and_survive_a_restart() {
    let mut cache_path = std::env::temp_dir();
    cache_path.push(format!(
        "clip_serve_daemon_cache_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_path);

    let config = ServeConfig {
        cache_path: Some(cache_path.clone()),
        ..quiet_config()
    };
    let request = r#"{"op":"synth","id":"c","cell":"nand4","rows":2}"#;

    let server = start(config.clone());
    let mut client = Client::connect(&server.addr);
    client.send(request);
    let cold = client.recv();
    assert_eq!(cold.get("cached").unwrap().as_bool(), Some(false));
    client.send(request);
    let warm = client.recv();
    assert_eq!(warm.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        warm.get("result").unwrap().to_compact(),
        cold.get("result").unwrap().to_compact(),
        "cache hit replays identical bytes"
    );
    server.stop();

    // A new server on the same cache file starts warm.
    let server = start(config);
    let mut client = Client::connect(&server.addr);
    client.send(request);
    let reloaded = client.recv();
    assert_eq!(reloaded.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        reloaded.get("result").unwrap().to_compact(),
        cold.get("result").unwrap().to_compact(),
        "reloaded cache replays identical bytes"
    );
    server.stop();
    let _ = std::fs::remove_file(&cache_path);
}

#[test]
fn shutdown_request_drains_and_stops_the_server() {
    let server = start(quiet_config());
    let addr = server.addr.clone();
    let mut client = Client::connect(&addr);
    // A request admitted before the shutdown op must still be answered.
    client.send(r#"{"op":"synth","id":"draining","cell":"xor2","rows":1}"#);
    client.send(r#"{"op":"shutdown","id":"bye"}"#);
    let mut saw_result = false;
    let mut saw_ack = false;
    for _ in 0..2 {
        let reply = client.recv();
        match reply.get("id").and_then(Json::as_str) {
            Some("draining") => {
                assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
                saw_result = true;
            }
            Some("bye") => {
                assert_eq!(reply.get("shutting_down"), Some(&Json::Bool(true)));
                saw_ack = true;
            }
            other => panic!("unexpected reply id {other:?}"),
        }
    }
    assert!(saw_result && saw_ack);
    server
        .runner
        .join()
        .expect("server thread")
        .expect("clean exit");
    // The listener is gone: new connections are refused (give the OS a
    // moment to tear the socket down).
    thread::sleep(Duration::from_millis(50));
    assert!(TcpStream::connect(&addr).is_err(), "listener closed");
}

/// The daemon's shutdown poll interval (`POLL` in `daemon.rs`).
const POLL: Duration = Duration::from_millis(50);

#[test]
fn fresh_connections_are_accepted_without_a_poll_wait() {
    let mut cache_path = std::env::temp_dir();
    cache_path.push(format!(
        "clip_serve_daemon_fresh_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_path);
    let server = start(ServeConfig {
        workers: 2,
        cache_path: Some(cache_path.clone()),
        ..quiet_config()
    });
    let request = r#"{"op":"synth","id":"f","cell":"nand2","rows":2,"jobs":1}"#;
    // Prime the cache on a kept-open connection, so the timed requests
    // are hits and their time is the connection's.
    let mut client = Client::connect(&server.addr);
    client.send(request);
    assert_eq!(client.recv().get("cached").unwrap().as_bool(), Some(false));

    let start = std::time::Instant::now();
    for _ in 0..5 {
        let mut fresh = Client::connect(&server.addr);
        fresh.send(request);
        assert_eq!(fresh.recv().get("cached").unwrap().as_bool(), Some(true));
    }
    let elapsed = start.elapsed();
    // Waiting out an accept poll would cost up to POLL per connection.
    assert!(
        elapsed < Duration::from_millis(125),
        "5 fresh-connection requests took {elapsed:?}"
    );
    server.stop();
    let _ = std::fs::remove_file(&cache_path);
}

#[test]
fn an_idle_server_drains_within_one_poll() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..quiet_config()
    })
    .expect("bind loopback");
    server.handle().shutdown();
    let start = std::time::Instant::now();
    server.run().expect("clean run");
    let elapsed = start.elapsed();
    // Idle workers must not each wait out a POLL before exiting.
    assert!(elapsed < POLL, "idle drain took {elapsed:?}");
}

#[test]
fn responses_interleave_across_a_shared_connection() {
    // One connection, many in-flight requests: every id gets exactly
    // one response, order free.
    let server = start(quiet_config());
    let mut client = Client::connect(&server.addr);
    let ids: Vec<String> = (0..8).map(|i| format!("r{i}")).collect();
    for id in &ids {
        client.send(&format!(r#"{{"op":"synth","id":"{id}","cell":"nand2"}}"#));
    }
    let mut seen: Vec<String> = Vec::new();
    let expected = offline_layout_json(library::nand2, 1);
    for _ in &ids {
        let reply = client.recv();
        assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
        let layout = reply
            .get("result")
            .unwrap()
            .get("layout")
            .unwrap()
            .to_pretty();
        assert_eq!(layout, expected);
        seen.push(reply.get("id").unwrap().as_str().unwrap().to_owned());
    }
    seen.sort();
    let mut want = ids.clone();
    want.sort();
    assert_eq!(seen, want);
    server.stop();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_works_end_to_end() {
    use std::os::unix::net::UnixStream;

    let mut path = std::env::temp_dir();
    path.push(format!("clip_serve_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = start(ServeConfig {
        bind: Bind::Unix(path.clone()),
        ..quiet_config()
    });
    let stream = UnixStream::connect(&path).expect("connect unix socket");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer
        .write_all(b"{\"op\":\"synth\",\"id\":\"u\",\"cell\":\"nand2\"}\n")
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let reply = jsonio::parse(&line).unwrap();
    assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        reply
            .get("result")
            .unwrap()
            .get("layout")
            .unwrap()
            .to_pretty(),
        offline_layout_json(library::nand2, 1)
    );
    server.stop();
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// Regression guard for the write-mutex: two workers answering on one
/// connection must never interleave bytes within a line. Exercised by
/// hammering one connection from several worker threads and checking
/// every line parses (a torn line would not).
#[test]
fn response_lines_are_atomic_under_contention() {
    let server = start(ServeConfig {
        workers: 4,
        // Atomicity is the point here, not fairness: lift the
        // per-connection cap so all 24 requests ride one connection.
        per_conn_cap: 0,
        ..quiet_config()
    });
    let mut client = Client::connect(&server.addr);
    for i in 0..24 {
        client.send(&format!(r#"{{"op":"synth","id":"x{i}","cell":"inv"}}"#));
    }
    for _ in 0..24 {
        let reply = client.recv(); // recv() itself asserts valid JSON
        assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
    }
    server.stop();
}

/// The admission guard under an honest (non-fault) load spike is hard
/// to time deterministically, so the deterministic overload test lives
/// in the fault suite (`solve.stall`). Here: the daemon's stats op
/// reports the queue-related counters at all.
#[test]
fn stats_report_all_counters() {
    let server = start(quiet_config());
    let mut client = Client::connect(&server.addr);
    client.send(r#"{"op":"stats","id":"s"}"#);
    let reply = client.recv();
    let stats = reply.get("stats").unwrap();
    for key in [
        "received",
        "completed",
        "cache_hits",
        "degraded",
        "rejected",
        "throttled",
        "errors",
        "panics",
    ] {
        assert!(stats.get(key).is_some(), "missing counter {key}");
    }
    server.stop();
}

/// The fairness guarantee (ROADMAP admission-queue item): one greedy
/// client flooding requests without reading responses cannot fill the
/// shared admission queue; its overflow is rejected with `throttled`
/// while a second client's request is admitted and answered promptly.
#[test]
fn a_greedy_client_cannot_starve_a_polite_one() {
    let server = start(ServeConfig {
        workers: 1,
        queue_cap: 64,
        per_conn_cap: 2,
        ..quiet_config()
    });
    let mut greedy = Client::connect(&server.addr);
    const FLOOD: usize = 16;
    for i in 0..FLOOD {
        greedy.send(&format!(
            r#"{{"op":"synth","id":"g{i}","cell":"nand3","rows":2}}"#
        ));
    }
    // With the old shared-queue-only admission, these 16 would all be
    // queued ahead of the polite client. Now at most 2 of them occupy
    // the queue at a time, so the polite request lands near the front.
    let mut polite = Client::connect(&server.addr);
    polite.send(r#"{"op":"synth","id":"p","cell":"inv"}"#);
    let reply = polite.recv();
    assert_eq!(reply.get("id").unwrap().as_str(), Some("p"));
    assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));

    // Every greedy line still gets exactly one answer: the admitted
    // ones complete, the overflow is throttled (never silently dropped).
    let mut ok = 0usize;
    let mut throttled = 0usize;
    for _ in 0..FLOOD {
        let reply = greedy.recv();
        match reply.get("status").unwrap().as_str() {
            Some("ok") => ok += 1,
            Some("rejected") => {
                assert_eq!(reply.get("code").unwrap().as_str(), Some("throttled"));
                throttled += 1;
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(ok + throttled, FLOOD);
    assert!(ok >= 2, "admitted requests complete (ok = {ok})");
    assert!(throttled >= 1, "the flood's overflow is throttled");
    greedy.send(r#"{"op":"stats","id":"s"}"#);
    let stats = greedy.recv();
    let counted = stats
        .get("stats")
        .unwrap()
        .get("throttled")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(counted >= throttled as u64);
    server.stop();
}

/// The `pareto` op end to end: a frontier document with the sweep's
/// five points, base point on the frontier, and a warm re-run answered
/// entirely from the memo cache.
#[test]
fn pareto_op_serves_a_frontier_and_reuses_the_cache() {
    let mut cache_path = std::env::temp_dir();
    cache_path.push(format!(
        "clip_serve_daemon_pareto_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_path);
    let server = start(ServeConfig {
        cache_path: Some(cache_path.clone()),
        cache_cap: Some(64),
        ..quiet_config()
    });
    let mut client = Client::connect(&server.addr);
    let request = r#"{"op":"pareto","id":"f","cell":"nand2","rows":2}"#;
    client.send(request);
    let cold = client.recv();
    assert_eq!(cold.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(cold.get("cached").unwrap().as_bool(), Some(false));
    let result = cold.get("result").unwrap();
    let points = result.get("pareto").unwrap().as_arr().unwrap();
    assert_eq!(points.len(), 5);
    assert_eq!(
        points[0].get("on_frontier").and_then(Json::as_bool),
        Some(true),
        "the base objective's point survives on its own frontier"
    );
    assert_eq!(
        points[1].get("reused").and_then(Json::as_bool),
        Some(true),
        "the reporting-only geometry variant reuses the base solve"
    );
    client.send(request);
    let warm = client.recv();
    assert_eq!(warm.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        warm.get("result").unwrap().to_compact(),
        result.to_compact(),
        "a warm frontier replays identical bytes"
    );
    server.stop();
    let _ = std::fs::remove_file(&cache_path);
}
