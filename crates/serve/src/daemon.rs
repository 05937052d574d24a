//! The daemon: sockets, bounded admission, worker pool, graceful drain.
//!
//! ## Architecture
//!
//! ```text
//! accept loop (blocking accept; a watcher wakes it on shutdown)
//!   └─ reader thread per connection (100 ms read timeout)
//!        ├─ parse line  ──bad──────────────► bad_request response
//!        ├─ stats/shutdown ─────────────────► inline response
//!        └─ synth ──try_send──► bounded queue ──► worker pool
//!                     └─full──► rejected (overloaded) response
//! workers: recv_timeout loop → exec::execute under catch_unwind
//!          → response via the connection's write mutex
//! ```
//!
//! Responses may be written out of order by different workers; the
//! per-connection write mutex keeps each *line* atomic and the `id`
//! field correlates.
//!
//! A fresh connection is accepted the moment it arrives: the accept
//! blocks. A watcher thread that [`Server::run`] starts polls the
//! shutdown flag every `POLL` (50 ms); once shutdown (SIGTERM, SIGINT, or
//! `{"op":"shutdown"}`) has begun, it connects to the listener itself to
//! wake the accept. The drain then closes the listener and drops the
//! admission queue's only sender: readers stop admitting and wind down
//! on their next timeout tick, and each worker answers every queued job
//! and exits the moment the queue is empty and disconnected, without
//! waiting out a poll. The memo cache is synced last. Every other wait
//! in this module has a timeout, so a signal always turns into an exit.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::cache::MemoCache;
use crate::exec::{self, ExecError};
use crate::faultpoint;
use crate::protocol::{self, Envelope, Request, SynthSpec, MAX_LINE_BYTES};
use crate::signals;

/// How often the shutdown watcher and idle workers wake.
const POLL: Duration = Duration::from_millis(50);

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// A TCP address like `127.0.0.1:4517` (port 0 picks a free one).
    Tcp(String),
    /// A Unix domain socket path (stale socket files are replaced).
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address.
    pub bind: Bind,
    /// Worker threads (0 → available parallelism).
    pub workers: usize,
    /// Admission queue capacity; requests beyond it are shed with a
    /// fast `overloaded` rejection.
    pub queue_cap: usize,
    /// Fairness cap: how many of one connection's requests may be
    /// queued or in flight at once (0 → unlimited). Keeps one greedy
    /// client from filling the whole admission queue and starving the
    /// rest.
    pub per_conn_cap: usize,
    /// Memo cache file (None → caching off).
    pub cache_path: Option<PathBuf>,
    /// Memo cache entry cap (None → unbounded); oldest entries are
    /// evicted first and the backing file is compacted.
    pub cache_cap: Option<usize>,
    /// Suppress per-connection log lines.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: Bind::Tcp("127.0.0.1:0".into()),
            workers: 0,
            queue_cap: 64,
            per_conn_cap: 16,
            cache_path: None,
            cache_cap: None,
            quiet: false,
        }
    }
}

/// Daemon counters, exposed by `{"op":"stats"}`.
#[derive(Debug, Default)]
pub struct Stats {
    received: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    throttled: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for the stats response.
    pub fn snapshot(&self) -> [(&'static str, u64); 8] {
        [
            ("received", self.received.load(Ordering::Relaxed)),
            ("completed", self.completed.load(Ordering::Relaxed)),
            ("cache_hits", self.cache_hits.load(Ordering::Relaxed)),
            ("degraded", self.degraded.load(Ordering::Relaxed)),
            ("rejected", self.rejected.load(Ordering::Relaxed)),
            ("throttled", self.throttled.load(Ordering::Relaxed)),
            ("errors", self.errors.load(Ordering::Relaxed)),
            ("panics", self.panics.load(Ordering::Relaxed)),
        ]
    }
}

/// One admitted synthesis job.
struct Job {
    id: Option<String>,
    spec: Box<SynthSpec>,
    writer: Arc<Mutex<Conn>>,
    /// The owning connection's outstanding-request counter; decremented
    /// after the response is written so the fairness cap tracks queued
    /// *plus* in-flight work.
    inflight: Arc<AtomicUsize>,
}

struct State {
    /// The admission queue's only sender. Readers send under the lock;
    /// the drain takes it, which ends admission and, once the queue is
    /// empty, disconnects the workers.
    tx: Mutex<Option<SyncSender<Job>>>,
    shutdown: AtomicBool,
    queue_cap: usize,
    per_conn_cap: usize,
    stats: Stats,
    cache: Option<Mutex<MemoCache>>,
    quiet: bool,
}

impl State {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signals::requested()
    }
}

/// A handle for observing and stopping a running server from another
/// thread (tests, embedders).
#[derive(Clone)]
pub struct ServerHandle(Arc<State>);

impl ServerHandle {
    /// Begins graceful shutdown, as if `{"op":"shutdown"}` arrived.
    pub fn shutdown(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.0.shutting_down()
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: Listener,
    state: Arc<State>,
    workers: Vec<thread::JoinHandle<()>>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Binds the socket, opens the cache, and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Socket bind or cache-open failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let (listener, unix_path) = match &config.bind {
            Bind::Tcp(addr) => (Listener::Tcp(TcpListener::bind(addr.as_str())?), None),
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A stale socket file from a SIGKILLed predecessor would
                // make bind fail forever; replacing it is the standard cure.
                let _ = std::fs::remove_file(path);
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    Some(path.clone()),
                )
            }
            #[cfg(not(unix))]
            Bind::Unix(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ))
            }
        };
        let cache = match &config.cache_path {
            Some(path) => {
                let cache = MemoCache::open_capped(path, config.cache_cap)?;
                if cache.repaired_torn_tail() && !config.quiet {
                    eprintln!(
                        "clip-serve: repaired torn tail in memo cache {}",
                        path.display()
                    );
                }
                Some(Mutex::new(cache))
            }
            None => None,
        };
        let workers = if config.workers == 0 {
            thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(2)
        } else {
            config.workers
        };
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_cap.max(1));
        let state = Arc::new(State {
            tx: Mutex::new(Some(tx)),
            shutdown: AtomicBool::new(false),
            queue_cap: config.queue_cap.max(1),
            per_conn_cap: config.per_conn_cap,
            stats: Stats::default(),
            cache,
            quiet: config.quiet,
        });
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers)
            .map(|i| {
                let state = Arc::clone(&state);
                let rx = Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&state, &rx))
                    .expect("spawn serve worker")
            })
            .collect();
        Ok(Server {
            listener,
            state,
            workers,
            unix_path,
        })
    }

    /// The bound TCP address (None for Unix sockets) — lets callers
    /// bind port 0 and discover the real port.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(_) => None,
        }
    }

    /// Human-readable listen address for logs and port files.
    pub fn local_display(&self) -> String {
        match (&self.listener, &self.unix_path) {
            (Listener::Tcp(l), _) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".into()),
            #[cfg(unix)]
            (Listener::Unix(_), Some(path)) => path.display().to_string(),
            #[cfg(unix)]
            (Listener::Unix(_), None) => "<unix>".into(),
        }
    }

    /// A shutdown/observation handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle(Arc::clone(&self.state))
    }

    /// Runs the accept loop until shutdown, then drains and exits.
    ///
    /// Every queued and in-flight request is answered before this
    /// returns; the memo cache is synced last.
    ///
    /// # Errors
    ///
    /// Only fatal listener failures; per-connection errors are logged
    /// and shed.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            state,
            workers,
            unix_path,
        } = self;
        if !state.shutting_down() {
            let wake = listener.wake_target(unix_path.as_deref())?;
            let accepting = Arc::new(AtomicBool::new(true));
            let watcher = {
                let state = Arc::clone(&state);
                let accepting = Arc::clone(&accepting);
                thread::Builder::new()
                    .name("serve-watcher".into())
                    .spawn(move || watch_for_shutdown(&state, &accepting, &wake))?
            };
            while !state.shutting_down() {
                match listener.accept() {
                    // The watcher's wake-up, or a client racing the drain.
                    Ok(_) if state.shutting_down() => break,
                    Ok(conn) => {
                        let state = Arc::clone(&state);
                        // Reader threads are detached: they exit on their
                        // next 100 ms timeout tick after shutdown, and hold
                        // nothing the drain below depends on.
                        let spawned = thread::Builder::new()
                            .name("serve-reader".into())
                            .spawn(move || reader_loop(&state, conn));
                        if let Err(e) = spawned {
                            eprintln!("clip-serve: reader spawn failed, shedding connection: {e}");
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        // Transient accept failures (EMFILE under load) must
                        // not kill a long-running daemon.
                        eprintln!("clip-serve: accept failed: {e}");
                        thread::sleep(POLL);
                    }
                }
            }
            accepting.store(false, Ordering::SeqCst);
            watcher.thread().unpark();
            if watcher.join().is_err() {
                eprintln!("clip-serve: shutdown watcher panicked");
            }
        }
        // Drain: stop accepting, end admission, let workers empty the
        // queue, sync the cache. Readers stop admitting as soon as the
        // flag is up.
        state.shutdown.store(true, Ordering::SeqCst);
        drop(listener);
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(path);
        }
        drop(state.tx.lock().unwrap_or_else(|e| e.into_inner()).take());
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(cache) = &state.cache {
            cache.lock().unwrap_or_else(|e| e.into_inner()).sync()?;
        }
        Ok(())
    }
}

/// Polls the shutdown flag every [`POLL`] while the accept loop runs;
/// once shutdown has begun, connects to the listener to wake its blocking
/// accept (again each tick, should a wake-up connection fail). The accept
/// loop unparks it when it ends, so joining it waits out no tick.
fn watch_for_shutdown(state: &State, accepting: &AtomicBool, wake: &WakeTarget) {
    while accepting.load(Ordering::SeqCst) {
        if state.shutting_down() {
            let _ = wake.connect();
        }
        thread::park_timeout(POLL);
    }
}

fn worker_loop(state: &State, rx: &Mutex<Receiver<Job>>) {
    loop {
        // Holding the lock across the timed wait is fine: only one
        // worker can receive at a time anyway, the rest queue on the
        // mutex — same contention either way, far simpler.
        let job = {
            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
            match rx.recv_timeout(POLL) {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => continue,
                // The drain dropped the sender and every admitted job
                // has been received: this worker is done.
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        handle_job(state, job);
    }
}

fn handle_job(state: &State, job: Job) {
    let stats = &state.stats;
    let executed = if job.spec.pareto {
        exec::execute_pareto(&job.spec, state.cache.as_ref())
    } else {
        exec::execute(&job.spec, state.cache.as_ref())
    };
    let line = match executed {
        Ok(reply) => {
            Stats::bump(&stats.completed);
            if reply.cached {
                Stats::bump(&stats.cache_hits);
            }
            if reply.degraded.is_some() {
                Stats::bump(&stats.degraded);
            }
            protocol::synth_response(
                job.id.as_deref(),
                reply.cached,
                reply.degraded,
                &reply.result,
            )
        }
        Err(e) => {
            Stats::bump(&stats.errors);
            if matches!(e, ExecError::Panic(_)) {
                Stats::bump(&stats.panics);
            }
            protocol::error_response(job.id.as_deref(), e.code(), e.message())
        }
    };
    if faultpoint::fires("respond.disconnect", &job.spec.faults) {
        // Simulate the client vanishing between solve and response: the
        // write below fails, which must be survivable.
        let conn = job.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = conn.shutdown_both();
    }
    respond(state, &job.writer, &line);
    job.inflight.fetch_sub(1, Ordering::SeqCst);
}

/// Writes one response line under the connection's write mutex. A dead
/// client is the client's problem: the error is logged, never
/// propagated.
fn respond(state: &State, writer: &Mutex<Conn>, line: &str) {
    let mut conn = writer.lock().unwrap_or_else(|e| e.into_inner());
    if let Err(e) = conn.write_all(line.as_bytes()).and_then(|()| conn.flush()) {
        if !state.quiet {
            eprintln!("clip-serve: dropping response to dead client: {e}");
        }
    }
}

fn reader_loop(state: &Arc<State>, conn: Conn) {
    if conn
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let writer = match conn.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(conn);
    let mut buf: Vec<u8> = Vec::new();
    // This connection's queued-plus-in-flight request count, shared
    // with the workers that retire its jobs.
    let inflight = Arc::new(AtomicUsize::new(0));
    loop {
        match reader.read_until(b'\n', &mut buf) {
            // EOF: the client closed its half; handle a final
            // unterminated line, then wind the connection down.
            Ok(0) => {
                if !buf.is_empty() {
                    handle_line(state, &writer, &inflight, &buf);
                }
                return;
            }
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    handle_line(state, &writer, &inflight, &buf);
                    buf.clear();
                } else if over_limit(state, &writer, &buf) {
                    return;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Partial reads stay in `buf` (read_until appends before
                // erroring); just poll shutdown and try again.
                if state.shutting_down() {
                    return;
                }
                if over_limit(state, &writer, &buf) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Enforces [`MAX_LINE_BYTES`] on a partially-read line; a client
/// streaming an endless "line" gets one error and the boot.
fn over_limit(state: &State, writer: &Mutex<Conn>, buf: &[u8]) -> bool {
    if buf.len() <= MAX_LINE_BYTES {
        return false;
    }
    Stats::bump(&state.stats.errors);
    respond(
        state,
        writer,
        &protocol::error_response(
            None,
            "bad_request",
            &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ),
    );
    true
}

fn handle_line(
    state: &Arc<State>,
    writer: &Arc<Mutex<Conn>>,
    inflight: &Arc<AtomicUsize>,
    raw: &[u8],
) {
    let text = String::from_utf8_lossy(raw);
    let line = text.trim_end_matches(['\n', '\r']);
    if line.trim().is_empty() {
        return;
    }
    let envelope = match protocol::parse_line(line) {
        Ok(envelope) => envelope,
        Err(message) => {
            Stats::bump(&state.stats.errors);
            respond(
                state,
                writer,
                &protocol::error_response(None, "bad_request", &message),
            );
            return;
        }
    };
    let Envelope { id, request } = envelope;
    match request {
        Request::Synth(spec) => {
            Stats::bump(&state.stats.received);
            if state.shutting_down() {
                respond(
                    state,
                    writer,
                    &protocol::error_response(
                        id.as_deref(),
                        "shutting_down",
                        "daemon is draining; request not admitted",
                    ),
                );
                return;
            }
            // The fairness gate: a connection already holding its quota
            // of queued/in-flight requests is throttled *before* it can
            // consume admission-queue slots other clients need.
            if state.per_conn_cap > 0 && inflight.load(Ordering::SeqCst) >= state.per_conn_cap {
                Stats::bump(&state.stats.throttled);
                respond(
                    state,
                    writer,
                    &protocol::throttled_response(id.as_deref(), state.per_conn_cap),
                );
                return;
            }
            let job = Job {
                id,
                spec,
                writer: Arc::clone(writer),
                inflight: Arc::clone(inflight),
            };
            // Count the request before enqueueing so a worker retiring
            // it can never race the counter below zero; un-count on the
            // paths where it never reaches a worker.
            inflight.fetch_add(1, Ordering::SeqCst);
            let admitted = match state.tx.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                Some(tx) => tx.try_send(job),
                None => Err(TrySendError::Disconnected(job)),
            };
            match admitted {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    // The 429 path: constant-time shed, no queueing.
                    job.inflight.fetch_sub(1, Ordering::SeqCst);
                    Stats::bump(&state.stats.rejected);
                    respond(
                        state,
                        &job.writer,
                        &protocol::rejected_response(job.id.as_deref(), state.queue_cap),
                    );
                }
                Err(TrySendError::Disconnected(job)) => {
                    job.inflight.fetch_sub(1, Ordering::SeqCst);
                    respond(
                        state,
                        &job.writer,
                        &protocol::error_response(
                            job.id.as_deref(),
                            "shutting_down",
                            "daemon is draining; request not admitted",
                        ),
                    );
                }
            }
        }
        Request::Stats => {
            respond(
                state,
                writer,
                &protocol::stats_response(id.as_deref(), &state.stats.snapshot()),
            );
        }
        Request::Shutdown => {
            respond(state, writer, &protocol::shutdown_response(id.as_deref()));
            state.shutdown.store(true, Ordering::SeqCst);
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(stream, _)| Conn::Tcp(stream)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(stream, _)| Conn::Unix(stream)),
        }
    }

    /// Where a connection reaches this listener: its own address, with an
    /// unspecified IP replaced by the loopback of the same family.
    fn wake_target(&self, unix_path: Option<&std::path::Path>) -> io::Result<WakeTarget> {
        match self {
            Listener::Tcp(l) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                Ok(WakeTarget::Tcp(addr))
            }
            #[cfg(unix)]
            Listener::Unix(_) => unix_path
                .map(|path| WakeTarget::Unix(path.to_path_buf()))
                .ok_or_else(|| io::Error::other("unix listener without a path")),
        }
    }
}

/// The address the shutdown watcher connects to.
enum WakeTarget {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl WakeTarget {
    fn connect(&self) -> io::Result<()> {
        match self {
            WakeTarget::Tcp(addr) => TcpStream::connect_timeout(addr, POLL).map(drop),
            #[cfg(unix)]
            WakeTarget::Unix(path) => UnixStream::connect(path).map(drop),
        }
    }
}

/// One client connection, TCP or Unix, read and write halves cloned
/// from the same descriptor.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn shutdown_both(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}
