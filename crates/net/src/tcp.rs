//! A TCP socket transport for PDP frames: the production substrate.
//!
//! Implements the same [`FrameTransport`] surface as [`ThreadedNetwork`](crate::transport::ThreadedNetwork),
//! but frames travel over real sockets — each registered node gets its own
//! loopback (or explicitly bound) listener, so a federation can run as
//! threads in one process, one process per node, or anything in between,
//! without touching node logic.
//!
//! Design points, mirroring the in-process transport's semantics:
//!
//! * **Lazy per-pair connections.** An outbound connection `(from, to)` is
//!   established on first send and kept for reuse. Each connection owns a
//!   writer thread draining a bounded two-lane queue with the same
//!   shed-queries-first admission as the receive-side [`Inbox`] — a stalled
//!   peer costs bounded memory and loses retryable query frames first.
//! * **Per-frame classification.** Frames are classified (sheddable or
//!   priority) strictly one frame at a time: on the write side the frame in
//!   hand, on the read side each frame *after* [`FrameReader`] re-splits
//!   the stream. TCP coalesces writes, so classifying a raw read buffer
//!   would misroute every frame after the first — see
//!   [`wsda_pdp::frame_is_query`].
//! * **Reconnect with jittered exponential backoff.** A failed connect
//!   opens a backoff window (base × factor^n, capped, plus decorrelating
//!   jitter — the same shape as the recovery layer's retransmission
//!   backoff); sends inside the window fail fast without hammering SYNs.
//! * **Chaos closes real connections.** A chaos-plan `drop` or `partition`
//!   verdict tears down the live socket for that pair instead of skipping a
//!   channel push; the next allowed send reconnects. Duplication enqueues
//!   the frame twice. (`jitter_ms` is ignored: a real network brings its
//!   own timing.)
//! * **Everything is counted.** Connects, reconnects, accepts, bytes read
//!   and written (handshakes included), frame errors and per-lane drops are
//!   [`Counter`]s, exportable into a [`MetricsRegistry`].
//!
//! The handshake is 13 bytes: magic `"WSDA"`, a version byte, then the
//! sender and intended receiver [`NodeId`]s big-endian — enough for the
//! accept side to attribute every subsequent frame on the stream.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wsda_obs::{Counter, MetricsRegistry};
use wsda_pdp::framing::FrameReader;

use crate::model::ChaosPlan;
use crate::sim::NodeId;
use crate::transport::{
    Envelope, Frame, FrameClassifier, FrameTransport, Inbox, InboxDrops, InboxShared, PushOutcome,
    DEFAULT_INBOX_CAPACITY,
};

/// Handshake magic: every connection opens with these four bytes.
const MAGIC: [u8; 4] = *b"WSDA";
/// Handshake protocol version.
const VERSION: u8 = 1;
/// Handshake length: magic + version + from + to.
const HELLO_LEN: usize = 4 + 1 + 4 + 4;
/// How long an accept loop waits after a failed accept before retrying.
const POLL: Duration = Duration::from_millis(5);
/// Read timeout on sockets, bounding how stale a shutdown check can be.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Tuning knobs for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Sheddable-lane capacity for receive inboxes *and* per-connection
    /// outbound queues (the priority lane gets
    /// [`crate::transport::PRIORITY_FACTOR`] times as much).
    pub inbox_capacity: usize,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// First reconnect backoff delay.
    pub backoff_base: Duration,
    /// Multiplier between successive backoff delays.
    pub backoff_factor: u32,
    /// Backoff delay cap.
    pub backoff_max: Duration,
    /// Maximum decorrelating jitter added to each backoff delay.
    pub backoff_jitter: Duration,
    /// Disable Nagle's algorithm (latency over batching).
    pub nodelay: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            inbox_capacity: DEFAULT_INBOX_CAPACITY,
            connect_timeout: Duration::from_millis(250),
            backoff_base: Duration::from_millis(50),
            backoff_factor: 2,
            backoff_max: Duration::from_secs(2),
            backoff_jitter: Duration::from_millis(25),
            nodelay: true,
        }
    }
}

/// Snapshot of the transport's counters (see [`TcpTransport::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Successful outbound connections (first connects and reconnects).
    pub connects: u64,
    /// Outbound connections re-established after a previous connection to
    /// the same pair existed or failed.
    pub reconnects: u64,
    /// Inbound connections accepted.
    pub accepts: u64,
    /// Bytes read off sockets, handshakes included.
    pub read_bytes: u64,
    /// Bytes written to sockets, handshakes included.
    pub write_bytes: u64,
    /// Whole frames delivered off sockets into inboxes.
    pub frames_in: u64,
    /// Whole frames written to sockets.
    pub frames_out: u64,
    /// Streams torn down because framing desynced or a frame was oversize.
    pub frame_errors: u64,
    /// Frames dropped on bounded-queue overflow, by lane.
    pub drops: InboxDrops,
}

#[derive(Clone, Default)]
struct Counters {
    connects: Counter,
    reconnects: Counter,
    accepts: Counter,
    read_bytes: Counter,
    write_bytes: Counter,
    frames_in: Counter,
    frames_out: Counter,
    frame_errors: Counter,
    drops_sheddable: Counter,
    drops_priority: Counter,
}

impl Counters {
    fn record(&self, outcome: &PushOutcome) {
        match outcome {
            PushOutcome::ShedLow => self.drops_sheddable.inc(),
            PushOutcome::ShedHigh => self.drops_priority.inc(),
            PushOutcome::Queued | PushOutcome::Closed => {}
        }
    }
}

/// A registered node: its bounded inbox and where it listens.
struct LocalNode {
    inbox: Arc<InboxShared<Frame>>,
    addr: SocketAddr,
    /// Set on deregister so this node's accept loop winds down.
    closed: Arc<AtomicBool>,
}

impl LocalNode {
    /// Stop taking frames and end the accept loop: set its flag, then
    /// wake its blocking `accept` with a connect of our own, after which
    /// the loop sees the flag.
    fn close(&self, connect_timeout: Duration) {
        self.closed.store(true, Ordering::SeqCst);
        self.inbox.close();
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, connect_timeout);
    }
}

/// An established outbound connection `(from, to)`.
#[derive(Clone)]
struct Conn {
    queue: Arc<InboxShared<Frame>>,
    stream: Arc<TcpStream>,
    alive: Arc<AtomicBool>,
}

impl Conn {
    fn teardown(&self) {
        self.alive.store(false, Ordering::Relaxed);
        self.queue.close();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Reconnect throttling per pair.
#[derive(Default)]
struct Backoff {
    failures: u32,
    not_before: Option<Instant>,
    /// Whether this pair ever had a live connection (drives the
    /// reconnects-vs-connects split).
    connected_before: bool,
}

struct Chaos {
    plan: Mutex<ChaosPlan>,
    rng: Mutex<StdRng>,
    start: Instant,
}

struct Inner {
    cfg: TcpConfig,
    locals: Mutex<HashMap<NodeId, LocalNode>>,
    /// Address book: where each node (local or remote-process) listens.
    peers: Mutex<HashMap<NodeId, SocketAddr>>,
    conns: Mutex<HashMap<(NodeId, NodeId), Conn>>,
    backoff: Mutex<HashMap<(NodeId, NodeId), Backoff>>,
    classifier: Mutex<Option<FrameClassifier>>,
    counters: Counters,
    chaos: Chaos,
    shutdown: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Accepted streams, retained so `Drop` can unblock their readers.
    accepted: Mutex<Vec<Arc<TcpStream>>>,
    jitter_state: AtomicU64,
}

impl Inner {
    /// xorshift64* step for backoff jitter — cheap, lock-free, decorrelated
    /// across pairs without a full RNG.
    fn jitter(&self, max: Duration) -> Duration {
        let max_ms = max.as_millis() as u64;
        if max_ms == 0 {
            return Duration::ZERO;
        }
        let mut x = self.jitter_state.load(Ordering::Relaxed);
        loop {
            let mut y = x;
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            match self.jitter_state.compare_exchange_weak(
                x,
                y,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Duration::from_millis(y.wrapping_mul(0x2545_F491_4F6C_DD1D) % max_ms)
                }
                Err(observed) => x = observed,
            }
        }
    }

    /// Keep `handle` for `Drop` to join, first joining every thread that
    /// has already exited (which returns at once): a node that registers
    /// and deregisters over and over (a client per query) retires one
    /// accept thread each time, and an unjoined handle pins its stack.
    fn track(&self, handle: JoinHandle<()>) {
        let mut threads = self.threads.lock();
        for exited in threads.extract_if(.., |h| h.is_finished()) {
            let _ = exited.join();
        }
        threads.push(handle);
    }

    fn classify(&self, frame: &[u8]) -> bool {
        self.classifier.lock().as_ref().is_some_and(|c| c(frame))
    }

    fn known(&self, node: NodeId) -> bool {
        self.locals.lock().contains_key(&node) || self.peers.lock().contains_key(&node)
    }

    fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        if let Some(local) = self.locals.lock().get(&node) {
            return Some(local.addr);
        }
        self.peers.lock().get(&node).copied()
    }

    /// Push a re-split frame into the target node's inbox, classifying it
    /// individually (never the coalesced read buffer). A queued frame is
    /// counted before the receiver can see it.
    fn deliver(&self, from: NodeId, to: NodeId, frame: Frame) -> bool {
        let sheddable = self.classify(&frame);
        let locals = self.locals.lock();
        let Some(node) = locals.get(&to) else {
            return false;
        };
        let envelope = Envelope { from, message: frame };
        let outcome = node.inbox.push_then(envelope, sheddable, || self.counters.frames_in.inc());
        self.counters.record(&outcome);
        !matches!(outcome, PushOutcome::Closed)
    }

    /// Tear down the outbound connection for a pair (chaos drop/partition,
    /// writer failure, shutdown).
    fn close_conn(&self, from: NodeId, to: NodeId) {
        if let Some(conn) = self.conns.lock().remove(&(from, to)) {
            conn.teardown();
        }
    }

    /// Fetch the live connection for a pair, lazily establishing it. `None`
    /// when the peer's address is unknown, a backoff window is open, or the
    /// connect fails (which opens/extends the window).
    fn conn(self: &Arc<Self>, from: NodeId, to: NodeId) -> Option<Conn> {
        if let Some(conn) = self.conns.lock().get(&(from, to)) {
            if conn.alive.load(Ordering::Relaxed) {
                return Some(conn.clone());
            }
        }
        let addr = self.addr_of(to)?;
        // Backoff gate: a recently failed pair fails fast instead of
        // hammering SYNs at a dead peer.
        {
            let backoff = self.backoff.lock();
            if let Some(state) = backoff.get(&(from, to)) {
                if state.not_before.is_some_and(|t| Instant::now() < t) {
                    return None;
                }
            }
        }
        // Connect outside every lock so a black-holed peer cannot stall
        // unrelated pairs.
        match TcpStream::connect_timeout(&addr, self.cfg.connect_timeout) {
            Ok(stream) => {
                let _ = stream.set_nodelay(self.cfg.nodelay);
                let conn = Conn {
                    queue: Arc::new(InboxShared::new(self.cfg.inbox_capacity)),
                    stream: Arc::new(stream),
                    alive: Arc::new(AtomicBool::new(true)),
                };
                let reconnect = {
                    let mut backoff = self.backoff.lock();
                    let state = backoff.entry((from, to)).or_default();
                    let reconnect = state.connected_before || state.failures > 0;
                    state.failures = 0;
                    state.not_before = None;
                    state.connected_before = true;
                    reconnect
                };
                self.counters.connects.inc();
                if reconnect {
                    self.counters.reconnects.inc();
                }
                let winner = {
                    let mut conns = self.conns.lock();
                    match conns.get(&(from, to)) {
                        // Another sender raced us to the same pair and won:
                        // use theirs, fold ours.
                        Some(existing) if existing.alive.load(Ordering::Relaxed) => {
                            Some(existing.clone())
                        }
                        _ => {
                            conns.insert((from, to), conn.clone());
                            None
                        }
                    }
                };
                if let Some(existing) = winner {
                    conn.teardown();
                    return Some(existing);
                }
                let inner = self.clone();
                let writer = conn.clone();
                let name = format!("tcp-write-{}-{}", from.0, to.0);
                self.track(spawn_named(name, move || writer_loop(inner, from, to, writer)));
                Some(conn)
            }
            Err(_) => {
                let jitter = self.jitter(self.cfg.backoff_jitter);
                let mut backoff = self.backoff.lock();
                let state = backoff.entry((from, to)).or_default();
                state.failures = state.failures.saturating_add(1);
                state.not_before =
                    Some(Instant::now() + backoff_delay(&self.cfg, state.failures) + jitter);
                None
            }
        }
    }
}

/// The deterministic backoff ladder (jitter added by the caller): the same
/// base × factor^n capped shape as the recovery layer's retransmission
/// backoff.
fn backoff_delay(cfg: &TcpConfig, failures: u32) -> Duration {
    let mut d = cfg.backoff_base;
    for _ in 1..failures {
        d = (d * cfg.backoff_factor.max(1)).min(cfg.backoff_max);
        if d >= cfg.backoff_max {
            break;
        }
    }
    d.min(cfg.backoff_max)
}

/// A TCP socket implementation of [`FrameTransport`].
///
/// Construct one per process; [`FrameTransport::register`] gives each local
/// node a loopback listener (or use [`TcpTransport::listen_on`] for an
/// explicit address) and [`TcpTransport::add_peer`] teaches the process
/// where remote nodes listen.
pub struct TcpTransport {
    inner: Arc<Inner>,
}

impl TcpTransport {
    /// A transport with default tuning and a fixed chaos seed.
    pub fn new() -> Self {
        Self::with_config(TcpConfig::default(), 0)
    }

    /// A transport with explicit tuning. `seed` drives chaos decisions and
    /// backoff jitter.
    pub fn with_config(cfg: TcpConfig, seed: u64) -> Self {
        TcpTransport {
            inner: Arc::new(Inner {
                cfg,
                locals: Mutex::new(HashMap::new()),
                peers: Mutex::new(HashMap::new()),
                conns: Mutex::new(HashMap::new()),
                backoff: Mutex::new(HashMap::new()),
                classifier: Mutex::new(None),
                counters: Counters::default(),
                chaos: Chaos {
                    plan: Mutex::new(ChaosPlan::none()),
                    rng: Mutex::new(StdRng::seed_from_u64(seed)),
                    start: Instant::now(),
                },
                shutdown: AtomicBool::new(false),
                threads: Mutex::new(Vec::new()),
                accepted: Mutex::new(Vec::new()),
                jitter_state: AtomicU64::new(seed | 1),
            }),
        }
    }

    /// Register `node` listening on an explicit address (`127.0.0.1:0`
    /// picks a free loopback port; see [`TcpTransport::local_addr`]).
    pub fn listen_on(&self, node: NodeId, addr: SocketAddr) -> std::io::Result<Inbox<Frame>> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let inbox = Arc::new(InboxShared::new(self.inner.cfg.inbox_capacity));
        let closed = Arc::new(AtomicBool::new(false));
        let local = LocalNode { inbox: inbox.clone(), addr: bound, closed: closed.clone() };
        let replaced = self.inner.locals.lock().insert(node, local);
        if let Some(old) = replaced {
            old.close(self.inner.cfg.connect_timeout);
        }
        let inner = self.inner.clone();
        let name = format!("tcp-accept-n{}", node.0);
        self.inner.track(spawn_named(name, move || accept_loop(inner, node, listener, closed)));
        Ok(Inbox::from_shared(inbox))
    }

    /// Where `node` listens, if it is registered locally.
    pub fn local_addr(&self, node: NodeId) -> Option<SocketAddr> {
        self.inner.locals.lock().get(&node).map(|l| l.addr)
    }

    /// Teach this process where a (typically remote-process) node listens.
    pub fn add_peer(&self, node: NodeId, addr: SocketAddr) {
        self.inner.peers.lock().insert(node, addr);
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> TcpStats {
        let c = &self.inner.counters;
        TcpStats {
            connects: c.connects.get(),
            reconnects: c.reconnects.get(),
            accepts: c.accepts.get(),
            read_bytes: c.read_bytes.get(),
            write_bytes: c.write_bytes.get(),
            frames_in: c.frames_in.get(),
            frames_out: c.frames_out.get(),
            frame_errors: c.frame_errors.get(),
            drops: InboxDrops {
                sheddable: c.drops_sheddable.get(),
                priority: c.drops_priority.get(),
            },
        }
    }
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameTransport for TcpTransport {
    /// Register with a fresh loopback listener. Panics only if the OS
    /// refuses a `127.0.0.1:0` bind (no loopback interface) — use
    /// [`TcpTransport::listen_on`] to handle bind errors explicitly.
    fn register(&self, node: NodeId) -> Inbox<Frame> {
        self.listen_on(node, SocketAddr::from(([127, 0, 0, 1], 0))).expect("bind loopback listener")
    }

    fn deregister(&self, node: NodeId) {
        let local = self.inner.locals.lock().remove(&node);
        if let Some(local) = local {
            local.close(self.inner.cfg.connect_timeout);
        }
        self.inner.peers.lock().remove(&node);
    }

    fn send_frame(&self, from: NodeId, to: NodeId, frame: Frame) -> bool {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        let mut copies = 1;
        {
            let now_ms = inner.chaos.start.elapsed().as_millis() as u64;
            let plan = inner.chaos.plan.lock();
            let mut rng = inner.chaos.rng.lock();
            if plan.drops(from, to, now_ms, &mut rng) {
                drop(plan);
                drop(rng);
                // A chaotic network means torn sockets, not skipped channel
                // pushes: close the real connection. To the sender the send
                // still looks successful.
                inner.close_conn(from, to);
                return inner.known(to);
            }
            if plan.duplicates(&mut rng) {
                copies = 2;
            }
        }
        if !inner.known(to) {
            // Mirrors ThreadedNetwork: a deregistered/unknown target is a
            // hard failure, and any surviving socket to it is a corpse.
            inner.close_conn(from, to);
            return false;
        }
        let Some(conn) = inner.conn(from, to) else {
            // Open backoff window or refused connect: we *know* nothing was
            // delivered, so report failure honestly and let the caller's
            // retry/breaker machinery take over.
            return false;
        };
        let sheddable = inner.classify(&frame);
        let mut messages = Vec::with_capacity(copies);
        for _ in 1..copies {
            messages.push(frame.clone());
        }
        messages.push(frame);
        for message in messages {
            let outcome = conn.queue.push(Envelope { from, message }, sheddable);
            inner.counters.record(&outcome);
            if matches!(outcome, PushOutcome::Closed) {
                // Writer died between lookup and push: forget the corpse so
                // the next send reconnects.
                inner.close_conn(from, to);
                return false;
            }
        }
        true
    }

    fn set_sheddable_frames(&self, classify: FrameClassifier) {
        *self.inner.classifier.lock() = Some(classify);
    }

    fn inbox_drops(&self) -> InboxDrops {
        self.stats().drops
    }

    fn export_metrics(&self, metrics: &MetricsRegistry) {
        let c = &self.inner.counters;
        metrics.register_counter("tcp_connects_total", &c.connects);
        metrics.register_counter("tcp_reconnects_total", &c.reconnects);
        metrics.register_counter("tcp_accepts_total", &c.accepts);
        metrics.register_counter("tcp_read_bytes_total", &c.read_bytes);
        metrics.register_counter("tcp_write_bytes_total", &c.write_bytes);
        metrics.register_counter("tcp_frames_in_total", &c.frames_in);
        metrics.register_counter("tcp_frames_out_total", &c.frames_out);
        metrics.register_counter("tcp_frame_errors_total", &c.frame_errors);
        metrics.register_counter("tcp_dropped_total{lane=\"sheddable\"}", &c.drops_sheddable);
        metrics.register_counter("tcp_dropped_total{lane=\"priority\"}", &c.drops_priority);
    }

    fn set_chaos(&self, plan: ChaosPlan) {
        *self.inner.chaos.plan.lock() = plan;
    }

    fn chaos_now_ms(&self) -> u64 {
        self.inner.chaos.start.elapsed().as_millis() as u64
    }

    fn node_count(&self) -> usize {
        self.inner.locals.lock().len()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        let inner = &self.inner;
        inner.shutdown.store(true, Ordering::SeqCst);
        for (_, conn) in inner.conns.lock().drain() {
            conn.teardown();
        }
        let locals: Vec<LocalNode> = inner.locals.lock().drain().map(|(_, l)| l).collect();
        for local in locals {
            local.close(inner.cfg.connect_timeout);
        }
        for stream in inner.accepted.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = inner.threads.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Accept loop for one listener: block in `accept`, spawn a reader per
/// accepted stream. Whoever sets `closed` or the shutdown flag wakes the
/// loop with a connect ([`LocalNode::close`]), so it checks the flags
/// after every accept and sleeps nowhere else.
fn accept_loop(inner: Arc<Inner>, node: NodeId, listener: TcpListener, closed: Arc<AtomicBool>) {
    let stopped = || inner.shutdown.load(Ordering::SeqCst) || closed.load(Ordering::SeqCst);
    while !stopped() {
        let accepted = listener.accept();
        if stopped() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                inner.counters.accepts.inc();
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                let stream = Arc::new(stream);
                {
                    let mut accepted = inner.accepted.lock();
                    // A stream only this list still holds lost its reader.
                    accepted.retain(|s| Arc::strong_count(s) > 1);
                    accepted.push(stream.clone());
                }
                let reader_inner = inner.clone();
                // Reader threads are deliberately not joined: they exit
                // within one read timeout of shutdown (Drop also slams
                // their sockets), and tracking them in `threads` would race
                // with Drop draining it.
                let name = format!("tcp-read-n{}", node.0);
                drop(spawn_named(name, move || reader_loop(reader_inner, stream)));
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Spawn a thread under `name`, so its CPU can be told apart from outside
/// the process (`/proc/<pid>/task/*/comm`; Linux keeps 15 bytes).
fn spawn_named(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new().name(name).spawn(f).expect("spawn a transport thread")
}

/// Read exactly `buf.len()` bytes, tolerating read timeouts, bailing on
/// shutdown or a hard deadline.
fn read_exact_polling(inner: &Inner, stream: &TcpStream, buf: &mut [u8]) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut filled = 0;
    while filled < buf.len() {
        if inner.shutdown.load(Ordering::Relaxed) || Instant::now() > deadline {
            return false;
        }
        match (&*stream).read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Reader for one accepted stream: handshake, then incremental re-framing
/// through [`FrameReader`] with per-frame classification and delivery.
fn reader_loop(inner: Arc<Inner>, stream: Arc<TcpStream>) {
    let mut hello = [0u8; HELLO_LEN];
    if !read_exact_polling(&inner, &stream, &mut hello) {
        return;
    }
    if hello[..4] != MAGIC || hello[4] != VERSION {
        inner.counters.frame_errors.inc();
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    inner.counters.read_bytes.add(HELLO_LEN as u64);
    let from = NodeId(u32::from_be_bytes([hello[5], hello[6], hello[7], hello[8]]));
    let to = NodeId(u32::from_be_bytes([hello[9], hello[10], hello[11], hello[12]]));
    let mut reader = FrameReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match (&*stream).read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                inner.counters.read_bytes.add(n as u64);
                reader.extend(&buf[..n]);
                loop {
                    match reader.next_frame() {
                        Ok(Some(frame)) => {
                            inner.deliver(from, to, frame);
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Desynced or oversize: the stream is
                            // unrecoverable — count it and drop the
                            // connection; the sender will reconnect.
                            inner.counters.frame_errors.inc();
                            let _ = stream.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Writer for one outbound connection: handshake, then drain the bounded
/// two-lane queue (priority first) onto the socket.
fn writer_loop(inner: Arc<Inner>, from: NodeId, to: NodeId, conn: Conn) {
    let mut hello = [0u8; HELLO_LEN];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4] = VERSION;
    hello[5..9].copy_from_slice(&from.0.to_be_bytes());
    hello[9..13].copy_from_slice(&to.0.to_be_bytes());
    let queue = Inbox::from_shared(conn.queue.clone());
    let ok = (&*conn.stream).write_all(&hello).is_ok();
    if ok {
        inner.counters.write_bytes.add(HELLO_LEN as u64);
        loop {
            if inner.shutdown.load(Ordering::Relaxed) || !conn.alive.load(Ordering::Relaxed) {
                break;
            }
            match queue.recv_timeout(READ_TIMEOUT) {
                Ok(envelope) => {
                    if (&*conn.stream).write_all(&envelope.message).is_err() {
                        break;
                    }
                    inner.counters.write_bytes.add(envelope.message.len() as u64);
                    inner.counters.frames_out.inc();
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
    }
    conn.teardown();
    // Forget the corpse (unless a replacement already took the slot).
    let mut conns = inner.conns.lock();
    if let Some(current) = conns.get(&(from, to)) {
        if Arc::ptr_eq(&current.stream, &conn.stream) {
            conns.remove(&(from, to));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsda_pdp::framing::{frame_is_query, write_frame};
    use wsda_pdp::message::{Message, QueryLanguage, ResponseMode, Scope, TransactionId};

    fn frame(message: &Message) -> Frame {
        let mut buf = bytes::BytesMut::new();
        write_frame(&mut buf, message).unwrap();
        buf.to_vec()
    }

    fn query() -> Message {
        Message::Query {
            transaction: TransactionId::derive(1, 1),
            query: "//service".into(),
            language: QueryLanguage::XQuery,
            scope: Scope::default(),
            response_mode: ResponseMode::Routed,
        }
    }

    fn results(seq: u64) -> Message {
        Message::Results {
            transaction: TransactionId::derive(1, 1),
            seq,
            items: vec!["<r/>".into()],
            last: false,
            origin: "n0".into(),
            cached: false,
        }
    }

    /// Poll `read` until it returns `want` or 5 s pass, and return its last
    /// value: for counters bumped after the frame they count became
    /// visible (a writer counts a frame once its write returns).
    fn settled(want: u64, read: impl Fn() -> u64) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(5);
        while read() != want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        read()
    }

    fn recv_message(inbox: &Inbox<Frame>, reader: &mut FrameReader) -> Option<Message> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(Some(m)) = reader.next_message() {
                return Some(m);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            match inbox.recv_timeout(left) {
                Ok(envelope) => reader.extend(&envelope.message),
                Err(_) => return None,
            }
        }
    }

    #[test]
    fn loopback_roundtrip_delivers_frames() {
        let net = TcpTransport::new();
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        assert!(net.send_frame(NodeId(0), NodeId(1), frame(&query())));
        assert!(net.send_frame(NodeId(0), NodeId(1), frame(&results(0))));
        let mut reader = FrameReader::new();
        assert_eq!(recv_message(&b, &mut reader), Some(query()));
        assert_eq!(recv_message(&b, &mut reader), Some(results(0)));
        // Connects, accepts, frames in and bytes read are counted before
        // the frames they cover are visible.
        let stats = net.stats();
        assert_eq!((stats.connects, stats.accepts, stats.frames_in), (1, 1, 2));
        // Wire accounting: reads and writes both saw handshake + frames.
        let expected = (HELLO_LEN + frame(&query()).len() + frame(&results(0)).len()) as u64;
        assert_eq!(stats.read_bytes, expected);
        assert_eq!(settled(2, || net.stats().frames_out), 2);
        assert_eq!(settled(expected, || net.stats().write_bytes), expected);
    }

    #[test]
    fn unknown_target_fails_fast() {
        let net = TcpTransport::new();
        let _a = net.register(NodeId(0));
        assert!(!net.send_frame(NodeId(0), NodeId(9), frame(&query())));
    }

    #[test]
    fn classification_happens_per_frame_across_coalesced_writes() {
        // Many frames written back-to-back coalesce into few TCP segments;
        // the receive side must still classify each one individually.
        let net = TcpTransport::new();
        net.set_sheddable_frames(Arc::new(|f: &[u8]| frame_is_query(f)));
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        // Interleave: results, query, results, query ... starting with a
        // results frame so a raw-buffer classifier would mark the whole
        // stream priority.
        for i in 0..10u64 {
            let m = if i % 2 == 0 { results(i) } else { query() };
            assert!(net.send_frame(NodeId(0), NodeId(1), frame(&m)));
        }
        let mut reader = FrameReader::new();
        let mut queries = 0;
        let mut other = 0;
        for _ in 0..10 {
            match recv_message(&b, &mut reader) {
                Some(Message::Query { .. }) => queries += 1,
                Some(_) => other += 1,
                None => break,
            }
        }
        assert_eq!((queries, other), (5, 5));
        assert_eq!(net.stats().frames_in, 10, "counted before each frame was visible");
        assert_eq!(settled(10, || net.stats().frames_out), 10);
    }

    #[test]
    fn refused_connect_opens_backoff_window_then_recovers() {
        let cfg = TcpConfig {
            backoff_base: Duration::from_millis(200),
            backoff_jitter: Duration::from_millis(1),
            ..TcpConfig::default()
        };
        let net = TcpTransport::with_config(cfg, 7);
        let _a = net.register(NodeId(0));
        // Point node 1 at a port nobody listens on: refused instantly.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        net.add_peer(NodeId(1), addr);
        assert!(!net.send_frame(NodeId(0), NodeId(1), frame(&query())));
        // Inside the backoff window every send fails fast, without a
        // connect attempt.
        assert!(!net.send_frame(NodeId(0), NodeId(1), frame(&query())));
        // A real listener appears; once the window lapses, sends reconnect.
        let revived = TcpTransport::new();
        let inbox = revived.listen_on(NodeId(1), addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut delivered = false;
        while !delivered && Instant::now() < deadline {
            if net.send_frame(NodeId(0), NodeId(1), frame(&query())) {
                delivered = true;
            } else {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        assert!(delivered, "send never recovered after listener came back");
        let mut reader = FrameReader::new();
        assert_eq!(recv_message(&inbox, &mut reader), Some(query()));
        assert!(net.stats().connects >= 1);
    }

    #[test]
    fn chaos_partition_closes_the_real_connection() {
        let net = TcpTransport::new();
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        assert!(net.send_frame(NodeId(0), NodeId(1), frame(&results(0))));
        let mut reader = FrameReader::new();
        assert_eq!(recv_message(&b, &mut reader), Some(results(0)));
        assert_eq!(net.stats().connects, 1);

        // Partition the pair: the established socket is torn down, yet the
        // send still "succeeds" (a lossy network looks successful).
        net.set_chaos(ChaosPlan::none().partition(NodeId(0), NodeId(1)));
        assert!(net.send_frame(NodeId(0), NodeId(1), frame(&results(1))));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !net.inner.conns.lock().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(net.inner.conns.lock().is_empty(), "partition must close the connection");

        // Healing reconnects lazily and delivery resumes.
        net.set_chaos(ChaosPlan::none());
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut healed = false;
        while !healed && Instant::now() < deadline {
            if net.send_frame(NodeId(0), NodeId(1), frame(&results(2))) {
                healed = true;
            } else {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        assert!(healed);
        assert_eq!(recv_message(&b, &mut reader), Some(results(2)));
        assert!(net.stats().reconnects >= 1, "healing must count a reconnect");
    }

    #[test]
    fn register_churn_keeps_no_handle_of_an_exited_accept_thread() {
        let net = TcpTransport::new();
        for _ in 0..500 {
            let _inbox = net.register(NodeId(0));
            net.deregister(NodeId(0));
        }
        // Each accept thread exits within one poll of its deregistration,
        // and the next registration drops the handles of exited threads.
        let deadline = Instant::now() + Duration::from_secs(5);
        let retained = loop {
            let _inbox = net.register(NodeId(0));
            net.deregister(NodeId(0));
            let retained = net.inner.threads.lock().len();
            if retained <= 2 || Instant::now() > deadline {
                break retained;
            }
            std::thread::sleep(POLL);
        };
        assert!(retained <= 2, "{retained} thread handles retained after 500 registrations");
    }

    #[test]
    fn accepted_streams_whose_reader_exited_are_forgotten() {
        let net = TcpTransport::new();
        let _a = net.register(NodeId(0));
        let mut reader = FrameReader::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut cycles = 0;
        loop {
            let b = net.register(NodeId(1));
            assert!(net.send_frame(NodeId(0), NodeId(1), frame(&results(cycles))));
            assert_eq!(recv_message(&b, &mut reader), Some(results(cycles)));
            net.deregister(NodeId(1));
            // Node 1 is unknown now: this send closes the connection, so
            // the accepted stream's reader reads EOF and exits.
            assert!(!net.send_frame(NodeId(0), NodeId(1), frame(&results(cycles))));
            cycles += 1;
            let retained = net.inner.accepted.lock().len();
            if cycles >= 50 && (retained <= 2 || Instant::now() > deadline) {
                assert!(retained <= 2, "{retained} streams retained after {cycles} connections");
                break;
            }
        }
    }

    #[test]
    fn deregistered_node_is_unreachable() {
        let net = TcpTransport::new();
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        assert!(net.send_frame(NodeId(0), NodeId(1), frame(&results(0))));
        let mut reader = FrameReader::new();
        assert_eq!(recv_message(&b, &mut reader), Some(results(0)));
        net.deregister(NodeId(1));
        drop(b);
        // The address book entry is gone: sends fail immediately, exactly
        // like ThreadedNetwork after deregister.
        assert!(!net.send_frame(NodeId(0), NodeId(1), frame(&results(1))));
        assert_eq!(net.node_count(), 1);
    }
}
