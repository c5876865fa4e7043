//! The daemon: socket listeners, one reader thread per connection, a
//! sharded worker pool with bounded admission queues, and graceful drain.
//!
//! Data flow for one request (the diagram in `ARCHITECTURE.md` §"Service
//! path" mirrors this):
//!
//! ```text
//! connection reader ── frame_len/decode ──► admission ──► shard queue ──► worker ─┐
//!        │                    │ (typed error)     │ (BUSY)   │ (idle shard, nothing │
//!        │                    │                   │          │  more buffered)      │
//!        │                    │                   │          └──► the reader runs it┤
//!        └────────────────────┴───────────────────┴─────────────────────────────────┴─► commit
//!                                          (seq-ordered; the finishing thread writes)
//! ```
//!
//! Each connection gets one reader thread. The reader assigns every frame
//! a connection-local sequence number and admits compress/decompress/info
//! work onto a shard; ping/shutdown and all rejections are answered
//! inline. A shard runs at most one job at a time. When the shard
//! admission picks has nothing running and nothing queued, and no further
//! byte of the connection is buffered (the closed-loop case: one request,
//! then a wait for its answer), the reader runs the job itself instead of
//! handing it to the shard's worker and waiting on it; otherwise the job
//! queues for the worker. Every response goes through the connection's
//! in-order commit: whichever thread delivers the response that is due
//! (the one that ran the job, or the reader for the rest) writes it to
//! the socket, then every held response behind it, so responses line up
//! with requests even when shards finish out of order. A response write
//! has the read side's deadline, so a client that stops reading costs at
//! most one `read_timeout` per connection and then loses the connection.
//!
//! A job runs each op through the call that already does the job:
//! compress through [`plan_and_compress`], decompress through the registry
//! codec the container's magic names (or `decode_stream` for a pipeline
//! stream). Admission control is a bounded `VecDeque` per shard: when
//! every shard is at `queue_depth`, the request is answered
//! [`crate::protocol::status::BUSY`] immediately instead of queueing
//! without bound — the same backpressure stance as the bounded channels
//! in the write/restart pipelines. Pipelined frames reach the shards'
//! queues (only the last one buffered may run on the reader), so a
//! pipelining connection still spreads over the shards and can still be
//! answered `BUSY`.
//!
//! The accept loop blocks in `accept`; the drain wakes it with a
//! connection of the server's own, which it drops uncounted.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lcpio_codec::policy::CodecId;
use lcpio_codec::{registry, BoundSpec, CodecStats};
use lcpio_core::pipeline::{is_stream_container, TwoPhaseWork};
use lcpio_core::policy::{build_policy, compressor_of};
use lcpio_core::records::Compressor;
use lcpio_core::{CostModel, PolicyKind};
use lcpio_powersim::{Chip, Machine};
use lcpio_trace as trace;

use crate::protocol::{self, Op, Request, Response};

/// How often idle reads wake up to check the shutdown flag.
const TICK: Duration = Duration::from_millis(25);

/// Service-time shaping, the serve-side analogue of the pipeline's
/// `FailurePlan`. All-zero by default. The failure suite uses it to make
/// queue-full, hand-off and drain states deterministically reachable, and
/// to model an I/O-bound request regime (each request holding its shard
/// for the NFS-write phase of a checkpoint) where shard concurrency — not
/// per-core compute — sets throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Hold the thread that runs the job (the shard's worker, or the
    /// reader that admitted it) this long before executing each
    /// compress/decompress/info request.
    pub worker_delay_ms: u64,
}

/// Server configuration, the programmatic form of the `lcpio-cli serve`
/// flags.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker shards (each: one worker thread, one bounded queue, and at
    /// most one running job, on the worker or on the reader that
    /// admitted it).
    pub workers: usize,
    /// Bounded queue capacity per shard; a request finding every shard
    /// full is answered [`protocol::status::BUSY`].
    pub queue_depth: usize,
    /// How long a connection may stall mid-frame before it is dropped
    /// (the slow-loris guard), and how long one response may take to
    /// write before the connection is closed (the guard against a client
    /// that stops reading). Idle connections *between* frames are not
    /// timed out.
    pub read_timeout: Duration,
    /// Admission cap on one frame's payload, at most
    /// [`protocol::MAX_PAYLOAD_LEN`]; larger claims are answered
    /// [`protocol::status::LIMIT`] and the connection is closed.
    pub max_payload: usize,
    /// Codec applied when a compress request carries no `CODEC` TLV.
    pub default_codec: CodecId,
    /// Bound applied when a compress request carries no `BOUND` TLV.
    pub default_bound: BoundSpec,
    /// Policy applied when a compress request carries no `POLICY` TLV.
    pub default_policy: PolicyKind,
    /// Chip whose power model prices request energy.
    pub chip: Chip,
    /// Failure-injection hooks (none by default).
    pub fault: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 8,
            read_timeout: Duration::from_secs(30),
            max_payload: 1 << 26,
            default_codec: CodecId::Sz,
            default_bound: BoundSpec::Absolute(1e-3),
            default_policy: PolicyKind::Fixed,
            chip: Chip::Broadwell,
            fault: FaultPlan::default(),
        }
    }
}

/// Where the server listens (and where a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP socket at this `host:port` address.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Either kind of connected stream, unified behind `Read`/`Write`: the
/// server's accepted connections and the [`crate::client::Client`]'s end.
pub(crate) enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
        })
    }

    pub(crate) fn set_read_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
        }
    }

    fn set_write_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_write_timeout(Some(d)),
            Conn::Tcp(s) => s.set_write_timeout(Some(d)),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        Ok(match self {
            Listener::Unix(l) => Conn::Unix(l.accept()?.0),
            Listener::Tcp(l) => Conn::Tcp(l.accept()?.0),
        })
    }
}

/// One queued unit of work: a decoded request plus where (and in which
/// slot) its response goes.
struct Job {
    seq: u64,
    request: Request,
    reply: Arc<Replies>,
}

/// One connection's in-order commit. A thread that finishes a response
/// parks it here and writes whatever has become due; it never waits for an
/// earlier seq, because with one worker that seq can be queued behind it.
/// The reader and every queued job hold a reference, and dropping the last
/// one (the commit's `Drop`) flushes and closes the socket, so a drain
/// writes the in-flight responses before the connection closes.
struct Replies {
    state: Mutex<Commit>,
}

struct Commit {
    conn: Conn,
    /// The seq whose response is written next.
    next: u64,
    /// Responses that finished ahead of `next`.
    held: BTreeMap<u64, Response>,
    /// A write failed or missed its deadline: the socket is shut down and
    /// every later response is dropped.
    broken: bool,
}

impl Replies {
    /// Commit `resp` as the answer to `seq`: once it is due, write it and
    /// every held response behind it.
    fn deliver(&self, shared: &Shared, seq: u64, resp: Response) {
        // Poisoned: a thread panicked mid-write, so the stream is cut.
        let Ok(mut guard) = self.state.lock() else { return };
        let commit = &mut *guard;
        if commit.broken {
            return;
        }
        commit.held.insert(seq, resp);
        while let Some(resp) = commit.held.remove(&commit.next) {
            commit.next += 1;
            shared.counters.bytes_out.fetch_add(resp.payload.len() as u64, Ordering::Relaxed);
            if write_within(&mut commit.conn, &resp.encode(), shared.cfg.read_timeout).is_err() {
                // The peer went away or stopped reading. The shutdown also
                // ends the reader's loop.
                commit.broken = true;
                commit.held.clear();
                commit.conn.shutdown();
            }
        }
    }
}

impl Drop for Commit {
    fn drop(&mut self) {
        let _ = self.conn.flush();
        self.conn.shutdown();
    }
}

/// `write_all` under a deadline. Each partial write gets only what is left
/// of `limit`, so a peer that reads a trickle cannot stretch it.
fn write_within(conn: &mut Conn, mut bytes: &[u8], limit: Duration) -> io::Result<()> {
    let t0 = Instant::now();
    while !bytes.is_empty() {
        // Past the deadline the time left is zero, which is not a valid
        // timeout: the error ends the write.
        conn.set_write_timeout(limit.saturating_sub(t0.elapsed()))?;
        match conn.write(bytes) {
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A worker shard: its lane and the wakeup for its worker thread.
#[derive(Default)]
struct Shard {
    lane: Mutex<Lane>,
    cond: Condvar,
}

/// A shard's state under its lock.
#[derive(Default)]
struct Lane {
    /// The bounded admission queue.
    jobs: VecDeque<Job>,
    /// A job of this shard is executing, on its worker or on the reader
    /// that admitted it.
    running: bool,
}

impl Shard {
    fn lock(&self) -> std::sync::MutexGuard<'_, Lane> {
        self.lane.lock().expect("shard lock")
    }
}

/// Monotonic service counters, shared across threads: the only record of
/// each count, read through [`Server::stats`].
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    inline: AtomicU64,
    compress: AtomicU64,
    decompress: AtomicU64,
    info: AtomicU64,
    ping: AtomicU64,
    busy_rejected: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    energy_uj: AtomicU64,
    slow_loris_drops: AtomicU64,
}

/// A copy of the server's counters at one instant, from
/// [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Frames decoded into requests (including rejected ones).
    pub requests: u64,
    /// Compress/decompress/info jobs run by the reader that admitted
    /// them rather than by a shard's worker.
    pub inline: u64,
    /// Compress requests executed.
    pub compress: u64,
    /// Decompress requests executed.
    pub decompress: u64,
    /// Info requests executed.
    pub info: u64,
    /// Ping requests answered.
    pub ping: u64,
    /// Requests rejected by admission control (`BUSY`).
    pub busy_rejected: u64,
    /// Requests answered with any non-`OK` status other than `BUSY`.
    pub errors: u64,
    /// Request payload bytes received.
    pub bytes_in: u64,
    /// Response payload bytes sent.
    pub bytes_out: u64,
    /// Total modeled energy across requests, microjoules.
    pub energy_uj: u64,
    /// Connections dropped because a partial frame stalled past
    /// `read_timeout` (the slow-loris guard).
    pub slow_loris_drops: u64,
}

impl StatsSnapshot {
    /// Every count, each named `serve.<field>`: the names `--metrics`
    /// reports them under.
    pub fn counts(&self) -> [(&'static str, u64); 13] {
        [
            ("serve.connections", self.connections),
            ("serve.requests", self.requests),
            ("serve.inline", self.inline),
            ("serve.compress", self.compress),
            ("serve.decompress", self.decompress),
            ("serve.info", self.info),
            ("serve.ping", self.ping),
            ("serve.busy_rejected", self.busy_rejected),
            ("serve.errors", self.errors),
            ("serve.bytes_in", self.bytes_in),
            ("serve.bytes_out", self.bytes_out),
            ("serve.energy_uj", self.energy_uj),
            ("serve.slow_loris_drops", self.slow_loris_drops),
        ]
    }
}

struct Shared {
    cfg: ServeConfig,
    /// The resolved endpoint, which the drain connects to to wake the
    /// accept loop.
    endpoint: Endpoint,
    shards: Vec<Shard>,
    next_shard: AtomicU64,
    shutdown: AtomicBool,
    counters: Counters,
}

impl Shared {
    fn initiate_shutdown(&self) {
        // Once only: a later call (the drop after `wait`) must not connect
        // to an endpoint that another server may have bound since.
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.shards {
            // Under the shard lock, so a worker between its drain check and
            // its wait cannot miss the wake-up.
            let _lane = shard.lock();
            shard.cond.notify_all();
        }
        self.wake_listener();
    }

    /// Wake the accept loop, blocked in `accept`, with a connection of
    /// our own; it sees the drain and drops the connection uncounted. A
    /// connect that fails is repeated by [`Server::wait`].
    fn wake_listener(&self) {
        let _ = match &self.endpoint {
            Endpoint::Unix(path) => UnixStream::connect(path).map(drop),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(drop),
        };
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Admit a job onto the least-loaded shard (a running job counts as
    /// load), or reject it with a typed response when draining or when
    /// every queue is full. When `may_run_here` and the chosen shard has
    /// nothing running or queued, the job does not queue: the calling
    /// reader runs it on the shard's behalf, then hands the shard back,
    /// waking the worker if jobs queued on it meanwhile.
    fn submit(&self, job: Job, may_run_here: bool) -> Result<(), Response> {
        let id = job.request.id;
        let shutting_down = || {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
            Response::of_status(id, protocol::status::SHUTTING_DOWN, "server is draining")
        };
        if self.draining() {
            return Err(shutting_down());
        }
        let start = self.next_shard.fetch_add(1, Ordering::Relaxed) as usize;
        let mut best: Option<(usize, usize)> = None;
        for i in 0..self.shards.len() {
            let idx = (start + i) % self.shards.len();
            let lane = self.shards[idx].lock();
            let load = lane.jobs.len() + usize::from(lane.running);
            if lane.jobs.len() < self.cfg.queue_depth && best.is_none_or(|(_, l)| load < l) {
                best = Some((idx, load));
            }
        }
        if let Some((idx, _)) = best {
            // The shard may have filled since it was measured.
            let shard = &self.shards[idx];
            let mut lane = shard.lock();
            // A worker exits under this lock once its queue is empty and
            // the drain has begun, so a job admitted past this check is run.
            if self.draining() {
                return Err(shutting_down());
            }
            if may_run_here && !lane.running && lane.jobs.is_empty() {
                lane.running = true;
                drop(lane);
                self.counters.inline.fetch_add(1, Ordering::Relaxed);
                run_job(self, job);
                let mut lane = shard.lock();
                lane.running = false;
                if !lane.jobs.is_empty() {
                    shard.cond.notify_one();
                }
                return Ok(());
            }
            if lane.jobs.len() < self.cfg.queue_depth {
                lane.jobs.push_back(job);
                drop(lane);
                shard.cond.notify_one();
                return Ok(());
            }
        }
        self.counters.busy_rejected.fetch_add(1, Ordering::Relaxed);
        Err(Response::of_status(
            id,
            protocol::status::BUSY,
            "every worker queue is full, retry later",
        ))
    }
}

/// A running compression service.
///
/// Bind one with [`Server::bind`], then either drive it from the same
/// process (tests, benches) or call [`Server::wait`] to park until a
/// client sends a `SHUTDOWN` request.
pub struct Server {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    unix_path: Option<PathBuf>,
    /// Where the accept loop hands over the connection readers it started
    /// once it has stopped and closed the listening socket.
    readers: Option<Receiver<Vec<JoinHandle<()>>>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind the service to `endpoint` and start its listener and worker
    /// threads. A stale Unix socket file at the path is removed first;
    /// `Tcp("127.0.0.1:0")` binds an ephemeral port, observable via
    /// [`Server::endpoint`].
    pub fn bind(endpoint: &Endpoint, cfg: ServeConfig) -> io::Result<Server> {
        let workers = cfg.workers.max(1);
        let cfg = ServeConfig {
            workers,
            queue_depth: cfg.queue_depth.max(1),
            max_payload: cfg.max_payload.min(protocol::MAX_PAYLOAD_LEN),
            ..cfg
        };
        let (listener, resolved, unix_path) = match endpoint {
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    Endpoint::Unix(path.clone()),
                    Some(path.clone()),
                )
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let actual = l.local_addr()?.to_string();
                (Listener::Tcp(l), Endpoint::Tcp(actual), None)
            }
        };
        let shared = Arc::new(Shared {
            cfg,
            endpoint: resolved.clone(),
            shards: (0..workers).map(|_| Shard::default()).collect(),
            next_shard: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });

        let worker_threads = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared, &shared.shards[idx]))
            })
            .collect();

        let listener_shared = Arc::clone(&shared);
        let (hand_over, readers) = mpsc::channel();
        thread::spawn(move || {
            let _ = hand_over.send(accept_loop(&listener_shared, listener));
        });

        Ok(Server {
            shared,
            endpoint: resolved,
            unix_path,
            readers: Some(readers),
            worker_threads,
        })
    }

    /// The resolved endpoint (for `Tcp(":0")`, the actual bound address).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Begin a graceful drain: stop accepting connections and admitting
    /// requests, let in-flight requests complete and flush. Equivalent to
    /// a client `SHUTDOWN` request.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Current service counters.
    pub fn stats(&self) -> StatsSnapshot {
        let c = &self.shared.counters;
        StatsSnapshot {
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            inline: c.inline.load(Ordering::Relaxed),
            compress: c.compress.load(Ordering::Relaxed),
            decompress: c.decompress.load(Ordering::Relaxed),
            info: c.info.load(Ordering::Relaxed),
            ping: c.ping.load(Ordering::Relaxed),
            busy_rejected: c.busy_rejected.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            bytes_in: c.bytes_in.load(Ordering::Relaxed),
            bytes_out: c.bytes_out.load(Ordering::Relaxed),
            energy_uj: c.energy_uj.load(Ordering::Relaxed),
            slow_loris_drops: c.slow_loris_drops.load(Ordering::Relaxed),
        }
    }

    /// Block until the server has fully drained (shutdown initiated by
    /// [`Server::shutdown`] or a client `SHUTDOWN`
    /// request; listening socket closed; every admitted request answered;
    /// worker and connection threads joined), then remove the Unix socket
    /// file. Returns the final counters.
    pub fn wait(mut self) -> StatsSnapshot {
        // A worker returns once the drain has begun and its queue is empty.
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(readers) = self.readers.take() {
            // The listener stops on the first connection it accepts after
            // the drain began, the drain's own wake-up connect. Should that
            // connect have failed (no descriptor free, a full backlog), it
            // is repeated each tick until one gets through.
            let conns = loop {
                match readers.recv_timeout(TICK) {
                    Err(RecvTimeoutError::Timeout) => self.shared.wake_listener(),
                    handed_over => break handed_over.unwrap_or_default(),
                }
            };
            for conn in conns {
                let _ = conn.join();
            }
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Not `wait()`ed: still stop the threads' work loops so they exit
        // soon, and clean up the socket path.
        self.shared.initiate_shutdown();
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Accept connections until the drain, close the listening socket, and
/// return the readers still running, for [`Server::wait`] to join.
fn accept_loop(shared: &Arc<Shared>, listener: Listener) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    // A connection accepted once the drain has begun (the drain's wake-up
    // connect, or a client that raced it) is dropped uncounted.
    while let Ok(conn) = listener.accept() {
        if shared.draining() {
            break;
        }
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        conns.push(thread::spawn(move || handle_conn(&shared, conn)));
        conns.retain(|h| !h.is_finished());
    }
    conns
}

/// Per-connection reader: frame assembly, protocol-level rejection,
/// inline control ops, and admission onto the shards. The connection's
/// only thread.
fn handle_conn(shared: &Arc<Shared>, mut conn: Conn) {
    if conn.set_read_timeout(TICK).is_err() {
        return;
    }
    let Ok(write_half) = conn.try_clone() else { return };
    let commit = Commit { conn: write_half, next: 0, held: BTreeMap::new(), broken: false };
    let replies = Arc::new(Replies { state: Mutex::new(commit) });
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut seq = 0u64;
    // When the oldest buffered frame started arriving — the slow-loris
    // clock. `None` while the buffer is empty.
    let mut frame_started: Option<Instant> = None;
    let frame_budget = shared.cfg.max_payload + protocol::MAX_HEADER_LEN + 64;

    'conn: loop {
        // Drain every complete frame currently buffered.
        loop {
            match protocol::frame_len(&buf) {
                Ok(None) => break,
                Err(e) => {
                    // Forged lengths / bad varints: the frame boundary is
                    // unknowable, so answer once and close.
                    send_reject(shared, &replies, seq, 0, e.status(), &e.to_string());
                    break 'conn;
                }
                Ok(Some(n)) if n > frame_budget => {
                    send_reject(
                        shared,
                        &replies,
                        seq,
                        0,
                        protocol::status::LIMIT,
                        "frame exceeds the server's payload cap",
                    );
                    break 'conn;
                }
                Ok(Some(n)) => {
                    if buf.len() < n {
                        break;
                    }
                    let decoded = Request::decode(&buf[..n]);
                    buf.drain(..n);
                    frame_started = if buf.is_empty() { None } else { Some(Instant::now()) };
                    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                    match decoded {
                        Err(e) => {
                            // The boundary was sound, so the connection
                            // stays usable after a typed rejection.
                            send_reject(shared, &replies, seq, 0, e.status(), &e.to_string());
                            seq += 1;
                        }
                        Ok((req, _)) if req.payload.len() > shared.cfg.max_payload => {
                            // The frame boundary was sound, so this is a
                            // typed per-request rejection, not a close.
                            send_reject(
                                shared,
                                &replies,
                                seq,
                                req.id,
                                protocol::status::LIMIT,
                                "request payload exceeds the server's payload cap",
                            );
                            seq += 1;
                        }
                        Ok((req, _)) => {
                            shared
                                .counters
                                .bytes_in
                                .fetch_add(req.payload.len() as u64, Ordering::Relaxed);
                            let ok = Response::of_status(req.id, protocol::status::OK, "");
                            let answer = match req.op {
                                Op::Ping => {
                                    shared.counters.ping.fetch_add(1, Ordering::Relaxed);
                                    Some(ok)
                                }
                                Op::Shutdown => {
                                    shared.initiate_shutdown();
                                    Some(ok)
                                }
                                _ => {
                                    let reply = Arc::clone(&replies);
                                    // Run here only if nothing more of this
                                    // connection waits to be read.
                                    let job = Job { seq, request: req, reply };
                                    shared.submit(job, buf.is_empty()).err()
                                }
                            };
                            if let Some(resp) = answer {
                                replies.deliver(shared, seq, resp);
                            }
                            seq += 1;
                        }
                    }
                }
            }
        }

        if shared.draining() && buf.is_empty() {
            break;
        }

        match conn.read(&mut chunk) {
            Ok(0) => break, // peer closed (possibly mid-request: tolerated)
            Ok(n) => {
                if buf.is_empty() {
                    frame_started = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if let Some(t0) = frame_started {
                    if t0.elapsed() >= shared.cfg.read_timeout {
                        // Slow loris: a partial frame stalled past the
                        // read timeout. No response is owed on a frame
                        // that never finished; drop the connection.
                        shared.counters.slow_loris_drops.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
}

fn send_reject(shared: &Shared, replies: &Replies, seq: u64, id: u64, status: u8, message: &str) {
    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    replies.deliver(shared, seq, Response::of_status(id, status, message));
}

/// One shard's worker: runs its queue's jobs, each once nothing else runs
/// on the shard, until the queue is empty and the drain has begun.
fn worker_loop(shared: &Shared, shard: &Shard) {
    let mut lane = shard.lock();
    loop {
        if !lane.running {
            if let Some(job) = lane.jobs.pop_front() {
                lane.running = true;
                drop(lane);
                run_job(shared, job);
                lane = shard.lock();
                lane.running = false;
                continue;
            }
        }
        if shared.draining() && lane.jobs.is_empty() {
            return;
        }
        lane = shard.cond.wait(lane).expect("shard lock");
    }
}

/// Run one admitted job on the calling thread, its shard's worker or the
/// reader that admitted it: the fault delay, the op, the counters, and the
/// commit of its response.
fn run_job(shared: &Shared, job: Job) {
    if shared.cfg.fault.worker_delay_ms > 0 {
        thread::sleep(Duration::from_millis(shared.cfg.fault.worker_delay_ms));
    }
    let t0 = Instant::now();
    let mut resp = execute(&shared.cfg, &job.request);
    resp.latency_us = t0.elapsed().as_micros() as u64;
    let c = &shared.counters;
    if resp.is_ok() {
        match job.request.op {
            Op::Compress => c.compress.fetch_add(1, Ordering::Relaxed),
            Op::Decompress => c.decompress.fetch_add(1, Ordering::Relaxed),
            _ => c.info.fetch_add(1, Ordering::Relaxed),
        };
        c.energy_uj.fetch_add(resp.energy_uj, Ordering::Relaxed);
    } else {
        c.errors.fetch_add(1, Ordering::Relaxed);
    }
    // The peer may already be gone (disconnect mid-request): the work
    // still completes, and the failed write drops the response.
    job.reply.deliver(shared, job.seq, resp);
}

/// Compress `data` exactly as the service does: the requested codec,
/// bound and policy run through the policy layer, treating the whole
/// request as one chunk, then the serial codec path (the same call the
/// one-shot CLI `compress` makes, so fixed-policy output is byte-identical
/// to `lcpio-cli compress`). A policy that picks the pipeline's `Raw`
/// fallback is mapped back to the requested codec: the service always
/// returns a self-describing registry container. Returns the container
/// bytes, the codec actually used, the planned frequency, and the codec
/// stats.
///
/// Public because it is the *reference implementation* the integration
/// tests compare socket traffic against; the worker runs this same call.
pub fn plan_and_compress(
    cfg: &ServeConfig,
    data: &[f32],
    dims: &[usize],
    codec: CodecId,
    bound: BoundSpec,
    policy: PolicyKind,
) -> Result<(Vec<u8>, CodecId, f64, CodecStats), lcpio_codec::CodecError> {
    let compressor = compressor_of(codec).unwrap_or(Compressor::Sz);
    let plan = build_policy(policy, compressor, bound, cfg.chip, CostModel::default())
        .plan(data, 0);
    let planned = if compressor_of(plan.codec).is_some() { plan.codec } else { codec };
    let backend = registry().by_name(planned.name()).expect("planned codec is registered");
    let encoded = backend.compress(data, dims, plan.bound)?;
    Ok((encoded.bytes, planned, plan.f_ghz, encoded.stats))
}

fn execute(cfg: &ServeConfig, req: &Request) -> Response {
    match req.op {
        Op::Compress => execute_compress(cfg, req),
        Op::Decompress => execute_decompress(cfg, req),
        Op::Info => execute_info(req),
        // Control ops are answered inline by the reader; answering here
        // too keeps `execute` total.
        Op::Ping | Op::Shutdown => Response::of_status(req.id, protocol::status::OK, ""),
    }
}

fn execute_compress(cfg: &ServeConfig, req: &Request) -> Response {
    let _span = trace::span("serve.compress");
    let data = match req.elements() {
        Ok(d) => d,
        Err(e) => return Response::of_status(req.id, e.status(), e.to_string()),
    };
    if data.is_empty() {
        return Response::of_status(req.id, protocol::status::BAD_REQUEST, "empty field");
    }
    let codec = req.codec.unwrap_or(cfg.default_codec);
    let bound = req.bound.unwrap_or(cfg.default_bound);
    let policy = req.policy.unwrap_or(cfg.default_policy);
    let (bytes, codec, f_ghz, stats) =
        match plan_and_compress(cfg, &data, &req.dims, codec, bound, policy) {
            Ok(done) => done,
            Err(e) => return Response::of_status(req.id, protocol::status::CODEC, e.to_string()),
        };
    Response {
        id: req.id,
        status: protocol::status::OK,
        latency_us: 0,
        energy_uj: modeled_energy_uj(cfg, codec, f_ghz, &stats, false),
        message: String::new(),
        dims: Vec::new(),
        codec: Some(codec),
        payload: bytes,
    }
}

fn execute_decompress(cfg: &ServeConfig, req: &Request) -> Response {
    let _span = trace::span("serve.decompress");
    let bytes = &req.payload;
    if is_stream_container(bytes) {
        return match lcpio_core::pipeline::decode_stream(bytes) {
            Ok(data) => {
                let n = data.len();
                elements_response(req.id, &data, vec![n], 0)
            }
            Err(e) => Response::of_status(req.id, protocol::status::CODEC, e.to_string()),
        };
    }
    let (codec, _) = match registry().by_magic(bytes) {
        Ok(hit) => hit,
        Err(e) => return Response::of_status(req.id, protocol::status::CODEC, e.to_string()),
    };
    let codec_id = if codec.name() == CodecId::Zfp.name() { CodecId::Zfp } else { CodecId::Sz };
    match codec.decompress(bytes, 1) {
        Ok((data, dims)) => {
            // Decompression work is modeled from what is observable here:
            // the element count and the container size (no per-stream
            // stats survive decode).
            let stats = CodecStats {
                elements: data.len() as u64,
                input_bytes: (data.len() * 4) as u64,
                output_bytes: req.payload.len() as u64,
                literal_elements: 0,
                coded_bits: (req.payload.len() * 8) as u64,
            };
            let f_max = Machine::for_chip(cfg.chip).cpu.f_max_ghz;
            let energy_uj = modeled_energy_uj(cfg, codec_id, f_max, &stats, true);
            elements_response(req.id, &data, dims, energy_uj)
        }
        Err(e) => Response::of_status(req.id, protocol::status::CODEC, e.to_string()),
    }
}

fn execute_info(req: &Request) -> Response {
    let _span = trace::span("serve.info");
    let bytes = &req.payload;
    if bytes.len() < 4 {
        return Response::of_status(
            req.id,
            protocol::status::BAD_REQUEST,
            "container too short (need at least a 4-byte magic)",
        );
    }
    let Some(description) = lcpio_core::pipeline::describe(bytes) else {
        return Response::of_status(
            req.id,
            protocol::status::BAD_REQUEST,
            "unrecognized container magic",
        );
    };
    let mut resp = Response::of_status(req.id, protocol::status::OK, String::new());
    resp.message = format!("{description}, {} bytes", bytes.len());
    resp
}

fn elements_response(id: u64, data: &[f32], dims: Vec<usize>, energy_uj: u64) -> Response {
    let mut payload = Vec::with_capacity(data.len() * 4);
    for &v in data {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    Response {
        id,
        status: protocol::status::OK,
        latency_us: 0,
        energy_uj,
        message: String::new(),
        dims,
        codec: None,
        payload,
    }
}

/// Price one request's CPU phase on the configured chip at the planned
/// frequency. Reported in whole microjoules; the unit stores zero bytes,
/// because the service returns them to the client instead of writing
/// them to the mount.
fn modeled_energy_uj(
    cfg: &ServeConfig,
    codec: CodecId,
    f_ghz: f64,
    stats: &CodecStats,
    decompress: bool,
) -> u64 {
    let Some(compressor) = compressor_of(codec) else { return 0 };
    let machine = Machine::for_chip(cfg.chip);
    let build =
        if decompress { TwoPhaseWork::fetch_decompress } else { TwoPhaseWork::compress_write };
    let work = build(&CostModel::default(), &machine, compressor, stats, 1.0, 0.0);
    let f = f_ghz.clamp(machine.cpu.f_min_ghz, machine.cpu.f_max_ghz);
    (work.price(&machine, f, f).cpu_j * 1e6).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn tcp_server(cfg: ServeConfig) -> Server {
        Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), cfg).expect("bind")
    }

    #[test]
    fn ping_compress_decompress_roundtrip() {
        let server = tcp_server(ServeConfig::default());
        let mut client = Client::connect(server.endpoint()).expect("connect");
        assert!(client.ping().expect("ping"));

        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
        let comp = client.compress(&data, &[4096], Default::default()).expect("compress");
        assert!(comp.is_ok(), "{}", comp.message);
        assert_eq!(comp.codec, Some(CodecId::Sz));
        assert!(comp.latency_us > 0);
        assert!(comp.energy_uj > 0);

        let back = client.decompress(&comp.payload).expect("decompress");
        assert!(back.is_ok(), "{}", back.message);
        assert_eq!(back.dims, vec![4096]);
        let restored = back.elements().expect("elements");
        assert!(restored.iter().zip(&data).all(|(r, x)| (r - x).abs() <= 1e-3 * 1.001));

        let info = client.info(&comp.payload).expect("info");
        assert!(info.is_ok());
        assert!(info.message.contains("bytes"));

        client.shutdown().expect("shutdown");
        let stats = server.wait();
        assert_eq!(stats.compress, 1);
        assert_eq!(stats.decompress, 1);
        assert_eq!(stats.info, 1);
        assert_eq!(stats.ping, 1);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn fixed_policy_socket_output_matches_reference() {
        let cfg = ServeConfig::default();
        let server = tcp_server(cfg);
        let mut client = Client::connect(server.endpoint()).expect("connect");
        let data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.02).cos()).collect();
        let resp = client.compress(&data, &[2048], Default::default()).expect("compress");
        assert!(resp.is_ok());
        let (reference, codec, _, _) = plan_and_compress(
            &cfg,
            &data,
            &[2048],
            CodecId::Sz,
            BoundSpec::Absolute(1e-3),
            PolicyKind::Fixed,
        )
        .expect("reference");
        assert_eq!(resp.payload, reference);
        assert_eq!(resp.codec, Some(codec));
        server.shutdown();
        server.wait();
    }

    #[test]
    fn server_defaults_apply_when_request_omits_fields() {
        let cfg = ServeConfig {
            default_codec: CodecId::Zfp,
            default_bound: BoundSpec::Absolute(1e-2),
            ..ServeConfig::default()
        };
        let server = tcp_server(cfg);
        let mut client = Client::connect(server.endpoint()).expect("connect");
        let data: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.03).sin()).collect();
        let mut req = Request::compress(
            1,
            &data,
            &[1024],
            CodecId::Sz,
            BoundSpec::Absolute(1e-3),
            PolicyKind::Fixed,
        );
        req.codec = None;
        req.bound = None;
        req.policy = None;
        let resp = client.call(&req).expect("call");
        assert!(resp.is_ok(), "{}", resp.message);
        assert_eq!(resp.codec, Some(CodecId::Zfp));
        server.shutdown();
        server.wait();
    }
}
