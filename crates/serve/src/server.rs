//! The daemon: socket listeners, one reader thread per connection, a
//! sharded worker pool with bounded admission queues, and graceful drain.
//!
//! Data flow for one request (the diagram in `ARCHITECTURE.md` §"Service
//! path" mirrors this):
//!
//! ```text
//! connection reader ── frame_len/decode ──► admission ──► shard queue ──► worker
//!        │                    │ (typed error)     │ (BUSY)        (codec + scratch)
//!        └────────────────────┴──────────────────┴──────────────────────┴──► commit
//!                                          (seq-ordered; the finishing thread writes)
//! ```
//!
//! Each connection gets one reader thread. The reader assigns every frame
//! a connection-local sequence number and hands compress/decompress/info
//! work to a worker shard; ping/shutdown and all rejections are answered
//! inline. Every response goes through the connection's in-order commit:
//! whichever thread delivers the response that is due (the worker for
//! shard work, the reader for the rest) writes it to the socket, then
//! every held response behind it, so responses line up with requests even
//! when shards finish out of order. A response write has the read side's
//! deadline, so a client that stops reading costs at most one
//! `read_timeout` per connection and then loses the connection.
//!
//! Each shard owns its own [`SzCodec`]/[`ZfpCodec`] instance, so SZ
//! scratch buffers (the adapter's pool) are reused across requests without
//! cross-shard lock contention. Admission control is a bounded
//! `VecDeque` per shard: when every shard is at `queue_depth`, the
//! request is answered [`crate::protocol::status::BUSY`] immediately instead of queueing
//! without bound — the same backpressure stance as the bounded channels
//! in the write/restart pipelines.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lcpio_codec::policy::{ChunkPlan, CodecId};
use lcpio_codec::{registry, BoundSpec, Codec, CodecStats, SzCodec, ZfpCodec};
use lcpio_core::pipeline::{is_stream_container, TwoPhaseWork};
use lcpio_core::policy::{build_policy, compressor_of};
use lcpio_core::records::Compressor;
use lcpio_core::{CostModel, PolicyKind};
use lcpio_powersim::{Chip, Machine};
use lcpio_trace as trace;

use crate::protocol::{self, Op, Request, Response};

/// How often blocked loops (accept, idle reads, worker waits) wake up to
/// check the shutdown flag.
const TICK: Duration = Duration::from_millis(25);

/// Worker-side service-time shaping, the serve-side analogue of the
/// pipeline's `FailurePlan`. All-zero by default. The failure suite uses
/// it to make queue-full and drain states deterministically reachable,
/// and to model an I/O-bound request regime (each request holding its
/// worker for the NFS-write phase of a checkpoint) where shard
/// concurrency — not per-core compute — sets throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Hold the worker this long before executing each
    /// compress/decompress/info request.
    pub worker_delay_ms: u64,
}

/// Server configuration, the programmatic form of the `lcpio-cli serve`
/// flags.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker shards (each: one thread + one bounded queue + its own
    /// codec scratch).
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
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }

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
            trace::counter_add("serve.bytes_out", resp.payload.len() as u64);
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

/// A worker shard: bounded queue + wakeup for one worker thread.
struct Shard {
    queue: Mutex<VecDeque<Job>>,
    cond: Condvar,
}

impl Shard {
    fn new() -> Shard {
        Shard { queue: Mutex::new(VecDeque::new()), cond: Condvar::new() }
    }
}

/// Monotonic service counters, shared across threads.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    compress: AtomicU64,
    decompress: AtomicU64,
    info: AtomicU64,
    ping: AtomicU64,
    busy_rejected: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    energy_uj: AtomicU64,
}

/// A copy of the server's counters at one instant, from
/// [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Frames decoded into requests (including rejected ones).
    pub requests: u64,
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
}

struct Shared {
    cfg: ServeConfig,
    shards: Vec<Shard>,
    next_shard: AtomicU64,
    shutdown: AtomicBool,
    counters: Counters,
}

impl Shared {
    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.cond.notify_all();
        }
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Admit a job onto the least-loaded shard, or reject it with a typed
    /// response when draining or when every queue is full.
    fn submit(&self, job: Job) -> Result<(), Response> {
        let id = job.request.id;
        if self.draining() {
            return Err(Response::of_status(
                id,
                protocol::status::SHUTTING_DOWN,
                "server is draining",
            ));
        }
        let start = self.next_shard.fetch_add(1, Ordering::Relaxed) as usize;
        let mut best: Option<(usize, usize)> = None;
        for i in 0..self.shards.len() {
            let idx = (start + i) % self.shards.len();
            let len = self.shards[idx].queue.lock().expect("shard queue lock").len();
            if len < self.cfg.queue_depth && best.map(|(_, l)| len < l).unwrap_or(true) {
                best = Some((idx, len));
            }
        }
        if let Some((idx, _)) = best {
            // The queue may have filled since it was measured.
            let shard = &self.shards[idx];
            let mut q = shard.queue.lock().expect("shard queue lock");
            if q.len() < self.cfg.queue_depth {
                q.push_back(job);
                drop(q);
                shard.cond.notify_one();
                return Ok(());
            }
        }
        self.counters.busy_rejected.fetch_add(1, Ordering::Relaxed);
        trace::counter_add("serve.busy", 1);
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
    listener_thread: Option<JoinHandle<()>>,
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
        listener.set_nonblocking()?;

        let shared = Arc::new(Shared {
            cfg,
            shards: (0..workers).map(|_| Shard::new()).collect(),
            next_shard: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });

        let worker_threads = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared, idx))
            })
            .collect();

        let listener_shared = Arc::clone(&shared);
        let listener_thread = thread::spawn(move || accept_loop(&listener_shared, listener));

        Ok(Server {
            shared,
            endpoint: resolved,
            unix_path,
            listener_thread: Some(listener_thread),
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
            compress: c.compress.load(Ordering::Relaxed),
            decompress: c.decompress.load(Ordering::Relaxed),
            info: c.info.load(Ordering::Relaxed),
            ping: c.ping.load(Ordering::Relaxed),
            busy_rejected: c.busy_rejected.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            bytes_in: c.bytes_in.load(Ordering::Relaxed),
            bytes_out: c.bytes_out.load(Ordering::Relaxed),
            energy_uj: c.energy_uj.load(Ordering::Relaxed),
        }
    }

    /// Block until the server has fully drained (shutdown initiated by
    /// [`Server::shutdown`] or a client `SHUTDOWN`
    /// request; listener stopped; every queued request answered; all
    /// threads joined), then remove the Unix socket file. Returns the
    /// final counters.
    pub fn wait(mut self) -> StatsSnapshot {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
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

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.draining() {
        match listener.accept() {
            Ok(conn) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                trace::counter_add("serve.connections", 1);
                let shared = Arc::clone(shared);
                conns.push(thread::spawn(move || handle_conn(&shared, conn)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(TICK),
            Err(_) => break,
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
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
                    trace::counter_add("serve.requests", 1);
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
                            trace::counter_add("serve.bytes_in", req.payload.len() as u64);
                            let ok = Response::of_status(req.id, protocol::status::OK, "");
                            let inline = match req.op {
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
                                    shared.submit(Job { seq, request: req, reply }).err()
                                }
                            };
                            if let Some(resp) = inline {
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
                        trace::counter_add("serve.slow_loris_drops", 1);
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
    trace::counter_add("serve.errors", 1);
    replies.deliver(shared, seq, Response::of_status(id, status, message));
}

/// One shard's worker: owns the codec instances (and therefore the SZ
/// scratch pool) for every request the shard executes.
fn worker_loop(shared: &Arc<Shared>, shard_idx: usize) {
    let sz = SzCodec::new();
    let zfp = ZfpCodec::new();
    let shard = &shared.shards[shard_idx];
    loop {
        let job = {
            let mut q = shard.queue.lock().expect("shard queue lock");
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.draining() {
                    break None;
                }
                let (guard, _) = shard.cond.wait_timeout(q, TICK).expect("shard queue lock");
                q = guard;
            }
        };
        let Some(job) = job else { return };
        if shared.cfg.fault.worker_delay_ms > 0 {
            thread::sleep(Duration::from_millis(shared.cfg.fault.worker_delay_ms));
        }
        let t0 = Instant::now();
        let mut resp = execute(&shared.cfg, &sz, &zfp, &job.request);
        resp.latency_us = t0.elapsed().as_micros() as u64;
        let c = &shared.counters;
        if resp.is_ok() {
            match job.request.op {
                Op::Compress => c.compress.fetch_add(1, Ordering::Relaxed),
                Op::Decompress => c.decompress.fetch_add(1, Ordering::Relaxed),
                _ => c.info.fetch_add(1, Ordering::Relaxed),
            };
            c.energy_uj.fetch_add(resp.energy_uj, Ordering::Relaxed);
            trace::counter_add("serve.energy_uj", resp.energy_uj);
        } else {
            c.errors.fetch_add(1, Ordering::Relaxed);
            trace::counter_add("serve.errors", 1);
        }
        // The peer may already be gone (disconnect mid-request): the work
        // still completes, and the failed write drops the response.
        job.reply.deliver(shared, job.seq, resp);
    }
}

/// Resolve the effective plan for a compress request: the requested (or
/// default) codec/bound/policy run through the policy layer, treating the
/// whole request as one chunk. A policy that picks the pipeline's `Raw`
/// fallback is mapped back to the requested codec — the service always
/// returns a self-describing registry container.
fn resolve_plan(
    cfg: &ServeConfig,
    data: &[f32],
    codec: CodecId,
    bound: BoundSpec,
    policy: PolicyKind,
) -> ChunkPlan {
    let compressor = compressor_of(codec).unwrap_or(Compressor::Sz);
    let plan = build_policy(policy, compressor, bound, cfg.chip, CostModel::default())
        .plan(data, 0);
    if compressor_of(plan.codec).is_none() {
        ChunkPlan { codec, ..plan }
    } else {
        plan
    }
}

/// Compress `data` exactly as the service would: policy-planned, then the
/// serial codec path (the same call the one-shot CLI `compress` makes, so
/// fixed-policy output is byte-identical to `lcpio-cli compress`).
/// Returns the container bytes, the codec actually used, the planned
/// frequency, and the codec stats.
///
/// Public because it is the *reference implementation* the integration
/// tests compare socket traffic against.
pub fn plan_and_compress(
    cfg: &ServeConfig,
    data: &[f32],
    dims: &[usize],
    codec: CodecId,
    bound: BoundSpec,
    policy: PolicyKind,
) -> Result<(Vec<u8>, CodecId, f64, CodecStats), lcpio_codec::CodecError> {
    let plan = resolve_plan(cfg, data, codec, bound, policy);
    let backend = registry().by_name(plan.codec.name()).expect("planned codec is registered");
    let encoded = backend.compress(data, dims, plan.bound)?;
    Ok((encoded.bytes, plan.codec, plan.f_ghz, encoded.stats))
}

fn execute(cfg: &ServeConfig, sz: &SzCodec, zfp: &ZfpCodec, req: &Request) -> Response {
    match req.op {
        Op::Compress => execute_compress(cfg, sz, zfp, req),
        Op::Decompress => execute_decompress(cfg, sz, zfp, req),
        Op::Info => execute_info(req),
        // Control ops are answered inline by the reader; answering here
        // too keeps `execute` total.
        Op::Ping | Op::Shutdown => Response::of_status(req.id, protocol::status::OK, ""),
    }
}

fn shard_backend<'a>(sz: &'a SzCodec, zfp: &'a ZfpCodec, codec: CodecId) -> &'a dyn Codec {
    match codec {
        CodecId::Zfp => zfp,
        _ => sz,
    }
}

fn execute_compress(cfg: &ServeConfig, sz: &SzCodec, zfp: &ZfpCodec, req: &Request) -> Response {
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
    let plan = resolve_plan(cfg, &data, codec, bound, policy);
    let encoded = match shard_backend(sz, zfp, plan.codec).compress(&data, &req.dims, plan.bound) {
        Ok(e) => e,
        Err(e) => return Response::of_status(req.id, protocol::status::CODEC, e.to_string()),
    };
    let energy_uj = modeled_energy_uj(cfg, plan.codec, plan.f_ghz, &encoded.stats, false);
    Response {
        id: req.id,
        status: protocol::status::OK,
        latency_us: 0,
        energy_uj,
        message: String::new(),
        dims: Vec::new(),
        codec: Some(plan.codec),
        payload: encoded.bytes,
    }
}

fn execute_decompress(cfg: &ServeConfig, sz: &SzCodec, zfp: &ZfpCodec, req: &Request) -> Response {
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
    let (registered, _) = match registry().by_magic(bytes) {
        Ok(hit) => hit,
        Err(e) => return Response::of_status(req.id, protocol::status::CODEC, e.to_string()),
    };
    let codec_id =
        if registered.name() == "zfp" { CodecId::Zfp } else { CodecId::Sz };
    match shard_backend(sz, zfp, codec_id).decompress(bytes, 1) {
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
