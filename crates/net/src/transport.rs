//! A threaded in-process transport for live multi-node runs.
//!
//! Where the simulator runs node logic single-threaded under virtual time,
//! `ThreadedNetwork` delivers between real threads — the examples use it to
//! run a small federation "for real". An optional delay line injects fixed
//! per-message latency without blocking senders.
//!
//! Every receive path is **bounded**: each registered node gets a two-lane
//! [`Inbox`] instead of an unbounded channel. A classifier installed with
//! [`ThreadedNetwork::set_sheddable`] routes load-bearing frames (queries)
//! into a small low-priority lane that sheds its newest arrivals on
//! overflow, while everything else (acks, results, control traffic) rides a
//! larger high-priority lane that the receiver drains first. Overflow is
//! never silent: every dropped frame is counted in [`InboxDrops`]. A slow
//! or stalled receiver therefore costs bounded memory and loses retryable
//! query frames first — acks and results keep flowing past the backlog.

use crossbeam::channel::{unbounded, Receiver, RecvError, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use wsda_obs::{Counter, MetricsRegistry};

use crate::model::ChaosPlan;
use crate::sim::NodeId;

/// A delivered envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Payload.
    pub message: M,
}

/// Inboxes registered without an explicit capacity hold this many sheddable
/// frames (and [`PRIORITY_FACTOR`] times as many priority frames).
pub const DEFAULT_INBOX_CAPACITY: usize = 1024;

/// The high-priority lane holds this multiple of the sheddable capacity:
/// acks and results are small and must survive a query flood.
pub const PRIORITY_FACTOR: usize = 4;

/// Frames dropped on inbox overflow, by lane. Retrieve a snapshot with
/// [`ThreadedNetwork::inbox_drops`]; nothing is dropped uncounted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InboxDrops {
    /// Sheddable (query) frames dropped because a low lane was full.
    pub sheddable: u64,
    /// Priority (ack/result/control) frames dropped because a high lane
    /// was full — only under extreme overload.
    pub priority: u64,
}

pub(crate) struct InboxState<M> {
    high: VecDeque<Envelope<M>>,
    low: VecDeque<Envelope<M>>,
    /// Cleared when the receiver drops its [`Inbox`] or the node is
    /// deregistered; queued frames still drain, new sends fail.
    open: bool,
}

pub(crate) struct InboxShared<M> {
    capacity: usize,
    state: StdMutex<InboxState<M>>,
    ready: Condvar,
}

pub(crate) fn lock<M>(shared: &InboxShared<M>) -> MutexGuard<'_, InboxState<M>> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) enum PushOutcome {
    Queued,
    ShedLow,
    ShedHigh,
    Closed,
}

impl<M> InboxShared<M> {
    pub(crate) fn new(capacity: usize) -> Self {
        InboxShared {
            capacity: capacity.max(1),
            state: StdMutex::new(InboxState {
                high: VecDeque::new(),
                low: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
        }
    }

    /// Drop-newest admission: the frame in hand is the one discarded when
    /// its lane is full, so older work (closer to completion) is preserved.
    pub(crate) fn push(&self, envelope: Envelope<M>, sheddable: bool) -> PushOutcome {
        self.push_then(envelope, sheddable, || {})
    }

    /// Like [`InboxShared::push`], running `queued` once the frame is queued
    /// but before any receiver can see it, so a counter it bumps has
    /// settled by the time the frame is observable.
    pub(crate) fn push_then(
        &self,
        envelope: Envelope<M>,
        sheddable: bool,
        queued: impl FnOnce(),
    ) -> PushOutcome {
        let mut st = lock(self);
        if !st.open {
            return PushOutcome::Closed;
        }
        if sheddable {
            if st.low.len() >= self.capacity {
                return PushOutcome::ShedLow;
            }
            st.low.push_back(envelope);
        } else {
            if st.high.len() >= self.capacity * PRIORITY_FACTOR {
                return PushOutcome::ShedHigh;
            }
            st.high.push_back(envelope);
        }
        queued();
        drop(st);
        self.ready.notify_one();
        PushOutcome::Queued
    }

    fn low_full(&self) -> bool {
        lock(self).low.len() >= self.capacity
    }

    pub(crate) fn close(&self) {
        lock(self).open = false;
        self.ready.notify_all();
    }
}

/// The receiving half of a registered node: a bounded two-lane queue.
/// Priority frames (the high lane) are always popped before sheddable
/// frames, so a query backlog cannot starve acks and results.
pub struct Inbox<M> {
    shared: Arc<InboxShared<M>>,
}

impl<M> Inbox<M> {
    /// Wrap a shared queue (the TCP transport reuses the same two-lane
    /// queue as its per-connection outbound buffer).
    pub(crate) fn from_shared(shared: Arc<InboxShared<M>>) -> Self {
        Inbox { shared }
    }

    fn pop(st: &mut InboxState<M>) -> Option<Envelope<M>> {
        st.high.pop_front().or_else(|| st.low.pop_front())
    }

    /// Block until a frame arrives. Errors once the node is deregistered
    /// and both lanes have drained.
    pub fn recv(&self) -> Result<Envelope<M>, RecvError> {
        let mut st = lock(&self.shared);
        loop {
            if let Some(env) = Self::pop(&mut st) {
                return Ok(env);
            }
            if !st.open {
                return Err(RecvError);
            }
            st = self.shared.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Block up to `timeout` for a frame.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.shared);
        loop {
            if let Some(env) = Self::pop(&mut st) {
                return Ok(env);
            }
            if !st.open {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _timed_out) = self
                .shared
                .ready
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Envelope<M>, TryRecvError> {
        let mut st = lock(&self.shared);
        match Self::pop(&mut st) {
            Some(env) => Ok(env),
            None if !st.open => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Currently queued frames across both lanes.
    pub fn len(&self) -> usize {
        let st = lock(&self.shared);
        st.high.len() + st.low.len()
    }

    /// Whether both lanes are currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<M> Drop for Inbox<M> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

struct Delayed<M> {
    due: Instant,
    seq: u64,
    to: NodeId,
    sheddable: bool,
    envelope: Envelope<M>,
}

impl<M> PartialEq for Delayed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Delayed<M> {}
impl<M> PartialOrd for Delayed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delayed<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest due first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

type Classifier<M> = Arc<dyn Fn(&M) -> bool + Send + Sync>;

struct Shared<M> {
    inboxes: HashMap<NodeId, Arc<InboxShared<M>>>,
    /// Capacity applied to inboxes registered after the change.
    capacity: usize,
    /// Returns true for frames that may be shed under overload (queries).
    /// `None` routes everything through the (larger, still bounded)
    /// priority lane.
    sheddable: Option<Classifier<M>>,
    drops_sheddable: Counter,
    drops_priority: Counter,
}

impl<M> Shared<M> {
    fn record(&self, outcome: &PushOutcome) {
        match outcome {
            PushOutcome::ShedLow => self.drops_sheddable.inc(),
            PushOutcome::ShedHigh => self.drops_priority.inc(),
            PushOutcome::Queued | PushOutcome::Closed => {}
        }
    }
}

/// Chaos-injection state for a live network: the plan plus the RNG and
/// wall-clock origin that drive it.
struct ChaosState {
    plan: Mutex<ChaosPlan>,
    rng: Mutex<StdRng>,
    start: Instant,
}

/// An in-process message network between threads.
pub struct ThreadedNetwork<M> {
    shared: Arc<Mutex<Shared<M>>>,
    delay: Option<Duration>,
    delay_tx: Option<Sender<Delayed<M>>>,
    chaos: Option<ChaosState>,
}

impl<M: Send + 'static> ThreadedNetwork<M> {
    /// A network with instant delivery.
    pub fn new() -> Self {
        ThreadedNetwork {
            shared: Arc::new(Mutex::new(Shared {
                inboxes: HashMap::new(),
                capacity: DEFAULT_INBOX_CAPACITY,
                sheddable: None,
                drops_sheddable: Counter::new(),
                drops_priority: Counter::new(),
            })),
            delay: None,
            delay_tx: None,
            chaos: None,
        }
    }

    /// A network where every message is delayed by `delay` (a background
    /// thread runs the delay line).
    pub fn with_delay(delay: Duration) -> Self {
        let mut net = Self::new();
        let (tx, rx): (Sender<Delayed<M>>, Receiver<Delayed<M>>) = unbounded();
        let worker_shared = net.shared.clone();
        std::thread::spawn(move || delay_line(rx, worker_shared));
        net.delay = Some(delay);
        net.delay_tx = Some(tx);
        net
    }

    /// A delayed network with chaos injection: drops, duplication, jitter,
    /// partitions and crash windows from `plan` apply to every send.
    /// Crash windows count wall-clock milliseconds from this call.
    pub fn with_chaos(delay: Duration, plan: ChaosPlan, seed: u64) -> Self {
        let mut net = Self::with_delay(delay);
        net.chaos = Some(ChaosState {
            plan: Mutex::new(plan),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            start: Instant::now(),
        });
        net
    }

    /// Replace the chaos plan mid-run (heal a partition, stop dropping,
    /// re-arm a crash). No-op on networks built without chaos.
    ///
    /// **Crash-window semantics.** The chaos clock's epoch is fixed when
    /// the network is built ([`ThreadedNetwork::with_chaos`]) and is
    /// deliberately *not* reset by this call — every plan, original or
    /// replacement, is evaluated against the same milliseconds-since-start
    /// clock, so swapping plans cannot time-shift windows that are already
    /// in progress. Two consequences:
    ///
    /// * a replacement plan's [`ChaosPlan::crash`] offsets are absolute on
    ///   that shared clock — to re-arm a crash "starting now", build the
    ///   window from [`ThreadedNetwork::chaos_now_ms`]
    ///   (`plan.crash(node, net.chaos_now_ms(), …)`), not from zero;
    /// * windows wholly in the past (`up_at_ms <= chaos_now_ms()`) are
    ///   inert when installed — they do not replay.
    pub fn set_chaos(&self, plan: ChaosPlan) {
        if let Some(state) = &self.chaos {
            *state.plan.lock() = plan;
        }
    }

    /// Milliseconds since the chaos clock started (0 without chaos).
    pub fn chaos_now_ms(&self) -> u64 {
        self.chaos.as_ref().map_or(0, |c| c.start.elapsed().as_millis() as u64)
    }

    /// Set the sheddable-lane capacity for inboxes registered from now on
    /// (the priority lane gets [`PRIORITY_FACTOR`] times as much).
    pub fn set_inbox_capacity(&self, capacity: usize) {
        self.shared.lock().capacity = capacity.max(1);
    }

    /// Install the overload classifier: frames for which `f` returns true
    /// (query frames) ride the small sheddable lane and are dropped —
    /// counted — when a receiver falls behind; everything else rides the
    /// priority lane.
    pub fn set_sheddable(&self, f: impl Fn(&M) -> bool + Send + Sync + 'static) {
        self.shared.lock().sheddable = Some(Arc::new(f));
    }

    /// Frames dropped on inbox overflow so far, by lane.
    pub fn inbox_drops(&self) -> InboxDrops {
        let shared = self.shared.lock();
        InboxDrops {
            sheddable: shared.drops_sheddable.get(),
            priority: shared.drops_priority.get(),
        }
    }

    /// Adopt the per-lane drop counters into a [`MetricsRegistry`] as
    /// `inbox_dropped_total{lane="sheddable"|"priority"}`. The handles share
    /// state with the transport, so drops recorded after the call are
    /// visible in the export.
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        let shared = self.shared.lock();
        metrics
            .register_counter("inbox_dropped_total{lane=\"sheddable\"}", &shared.drops_sheddable);
        metrics.register_counter("inbox_dropped_total{lane=\"priority\"}", &shared.drops_priority);
    }

    /// Register a node, returning its bounded inbox.
    pub fn register(&self, node: NodeId) -> Inbox<M> {
        let mut shared = self.shared.lock();
        let inbox = Arc::new(InboxShared::new(shared.capacity));
        if let Some(old) = shared.inboxes.insert(node, inbox.clone()) {
            old.close();
        }
        Inbox { shared: inbox }
    }

    /// Remove a node (its inbox closes; queued frames still drain).
    pub fn deregister(&self, node: NodeId) {
        if let Some(inbox) = self.shared.lock().inboxes.remove(&node) {
            inbox.close();
        }
    }

    /// Send `message` to `to`. Returns `false` when the target is unknown
    /// or its inbox has closed. Chaos drops and overload sheds return
    /// `true`: to the sender, a lossy or congested network looks exactly
    /// like a successful send.
    pub fn send(&self, from: NodeId, to: NodeId, message: M) -> bool
    where
        M: Clone,
    {
        // Per-copy extra delays; one entry per delivered copy.
        let mut extras: Vec<u64> = vec![0];
        if let Some(state) = &self.chaos {
            let now_ms = state.start.elapsed().as_millis() as u64;
            let plan = state.plan.lock();
            let mut rng = state.rng.lock();
            if plan.drops(from, to, now_ms, &mut rng) {
                return self.shared.lock().inboxes.contains_key(&to);
            }
            extras[0] = plan.extra_delay_ms(&mut rng);
            if plan.duplicates(&mut rng) {
                extras.push(plan.extra_delay_ms(&mut rng));
            }
        }
        match (&self.delay, &self.delay_tx) {
            (Some(d), Some(tx)) => {
                static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                let sheddable = {
                    let shared = self.shared.lock();
                    let Some(inbox) = shared.inboxes.get(&to) else {
                        return false;
                    };
                    let sheddable = shared.sheddable.as_ref().is_some_and(|f| f(&message));
                    // Early shed at the sender's edge: a sheddable frame
                    // bound for an already-saturated inbox never enters the
                    // delay line (which models the wire, not a buffer the
                    // receiver owns).
                    if sheddable && inbox.low_full() {
                        shared.record(&PushOutcome::ShedLow);
                        return true;
                    }
                    sheddable
                };
                let now = Instant::now();
                let mut ok = true;
                for extra in extras {
                    ok &= tx
                        .send(Delayed {
                            due: now + *d + Duration::from_millis(extra),
                            seq: SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                            to,
                            sheddable,
                            envelope: Envelope { from, message: message.clone() },
                        })
                        .is_ok();
                }
                ok
            }
            _ => {
                let shared = self.shared.lock();
                match shared.inboxes.get(&to) {
                    Some(inbox) => {
                        let sheddable = shared.sheddable.as_ref().is_some_and(|f| f(&message));
                        let mut ok = true;
                        for _ in &extras {
                            let outcome =
                                inbox.push(Envelope { from, message: message.clone() }, sheddable);
                            shared.record(&outcome);
                            ok &= !matches!(outcome, PushOutcome::Closed);
                        }
                        ok
                    }
                    None => false,
                }
            }
        }
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.shared.lock().inboxes.len()
    }
}

impl<M: Send + 'static> Default for ThreadedNetwork<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// A length-framed PDP frame as it travels between live nodes: the 4-byte
/// big-endian length prefix plus the encoded message body, exactly the
/// bytes a socket carries.
pub type Frame = Vec<u8>;

/// Classifier over raw framed bytes: `true` marks the frame sheddable
/// (queries), `false` keeps it on the priority lane (acks, results,
/// control). Must only ever be applied to exactly one frame at a time —
/// never a coalesced read buffer.
pub type FrameClassifier = Arc<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// The transport surface the live engine programs against: the same
/// send/register/deregister contract whether frames move between threads
/// in one process ([`ThreadedNetwork`]) or over real TCP sockets
/// ([`crate::tcp::TcpTransport`]) — the simulator-vs-production split as a
/// trait, so deployments pick their substrate without touching node logic.
pub trait FrameTransport: Send + Sync {
    /// Register a node, returning its bounded two-lane inbox. Re-registering
    /// an id closes the previous inbox.
    fn register(&self, node: NodeId) -> Inbox<Frame>;

    /// Remove a node (its inbox closes; queued frames still drain).
    fn deregister(&self, node: NodeId);

    /// Send a framed message. Returns `false` when the target is unknown
    /// or closed; chaos drops and overload sheds return `true` — to the
    /// sender, a lossy or congested network looks like a successful send.
    fn send_frame(&self, from: NodeId, to: NodeId, frame: Frame) -> bool;

    /// Install the overload classifier applied per frame.
    fn set_sheddable_frames(&self, classify: FrameClassifier);

    /// Frames dropped on inbox overflow so far, by lane.
    fn inbox_drops(&self) -> InboxDrops;

    /// Adopt the transport's counters into a [`MetricsRegistry`].
    fn export_metrics(&self, metrics: &MetricsRegistry);

    /// Replace the chaos plan mid-run (no-op on chaos-free transports).
    fn set_chaos(&self, plan: ChaosPlan);

    /// Milliseconds since the chaos clock started (0 without chaos).
    fn chaos_now_ms(&self) -> u64;

    /// Number of registered nodes.
    fn node_count(&self) -> usize;
}

impl FrameTransport for ThreadedNetwork<Frame> {
    fn register(&self, node: NodeId) -> Inbox<Frame> {
        ThreadedNetwork::register(self, node)
    }

    fn deregister(&self, node: NodeId) {
        ThreadedNetwork::deregister(self, node);
    }

    fn send_frame(&self, from: NodeId, to: NodeId, frame: Frame) -> bool {
        self.send(from, to, frame)
    }

    fn set_sheddable_frames(&self, classify: FrameClassifier) {
        self.set_sheddable(move |frame: &Frame| classify(frame));
    }

    fn inbox_drops(&self) -> InboxDrops {
        ThreadedNetwork::inbox_drops(self)
    }

    fn export_metrics(&self, metrics: &MetricsRegistry) {
        ThreadedNetwork::export_metrics(self, metrics);
    }

    fn set_chaos(&self, plan: ChaosPlan) {
        ThreadedNetwork::set_chaos(self, plan);
    }

    fn chaos_now_ms(&self) -> u64 {
        ThreadedNetwork::chaos_now_ms(self)
    }

    fn node_count(&self) -> usize {
        ThreadedNetwork::node_count(self)
    }
}

fn delay_line<M: Send>(rx: Receiver<Delayed<M>>, shared: Arc<Mutex<Shared<M>>>) {
    let mut heap: BinaryHeap<Delayed<M>> = BinaryHeap::new();
    loop {
        // Wait for the next due message or a new arrival, whichever first.
        let timeout = heap
            .peek()
            .map(|d| d.due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(d) => heap.push(d),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                if heap.is_empty() {
                    return;
                }
                // No sender will ever wake us again: recv_timeout returns
                // Disconnected immediately, so looping would busy-spin.
                // Sleep until the earliest due instead, then flush.
                let wait = heap
                    .peek()
                    .map(|d| d.due.saturating_duration_since(Instant::now()))
                    .unwrap_or_default();
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
        }
        let now = Instant::now();
        while heap.peek().is_some_and(|d| d.due <= now) {
            let d = heap.pop().expect("peeked");
            let shared = shared.lock();
            if let Some(inbox) = shared.inboxes.get(&d.to) {
                let outcome = inbox.push(d.envelope, d.sheddable);
                shared.record(&outcome);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_delivery() {
        let net: ThreadedNetwork<String> = ThreadedNetwork::new();
        let rx1 = net.register(NodeId(1));
        assert!(net.send(NodeId(0), NodeId(1), "hello".into()));
        let env = rx1.recv().unwrap();
        assert_eq!(env.from, NodeId(0));
        assert_eq!(env.message, "hello");
    }

    #[test]
    fn unknown_target_rejected() {
        let net: ThreadedNetwork<u32> = ThreadedNetwork::new();
        assert!(!net.send(NodeId(0), NodeId(9), 1));
        let rx = net.register(NodeId(9));
        assert!(net.send(NodeId(0), NodeId(9), 1));
        assert_eq!(rx.recv().unwrap().message, 1);
        net.deregister(NodeId(9));
        assert!(!net.send(NodeId(0), NodeId(9), 1));
    }

    #[test]
    fn cross_thread_roundtrip() {
        let net: Arc<ThreadedNetwork<u32>> = Arc::new(ThreadedNetwork::new());
        let rx_server = net.register(NodeId(1));
        let rx_client = net.register(NodeId(0));
        let server_net = net.clone();
        let server = std::thread::spawn(move || {
            let env = rx_server.recv().unwrap();
            server_net.send(NodeId(1), env.from, env.message * 2);
        });
        net.send(NodeId(0), NodeId(1), 21);
        let reply = rx_client.recv().unwrap();
        assert_eq!(reply.message, 42);
        server.join().unwrap();
    }

    #[test]
    fn delayed_delivery_orders_by_due_time() {
        let net: ThreadedNetwork<u32> = ThreadedNetwork::with_delay(Duration::from_millis(20));
        let rx = net.register(NodeId(1));
        let start = Instant::now();
        net.send(NodeId(0), NodeId(1), 1);
        net.send(NodeId(0), NodeId(1), 2);
        let a = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!((a.message, b.message), (1, 2));
    }

    #[test]
    fn delayed_messages_flush_after_network_drop() {
        let net: ThreadedNetwork<u32> = ThreadedNetwork::with_delay(Duration::from_millis(40));
        let rx = net.register(NodeId(1));
        net.send(NodeId(0), NodeId(1), 7);
        // Dropping the network closes the delay-line channel while the
        // message is still pending; the worker must flush, not spin or die.
        drop(net);
        let env = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(env.message, 7);
    }

    #[test]
    fn chaos_drops_lose_messages_silently() {
        let plan = ChaosPlan::none().with_drops(1.0);
        let net: ThreadedNetwork<u32> =
            ThreadedNetwork::with_chaos(Duration::from_millis(1), plan, 42);
        let rx = net.register(NodeId(1));
        // Drop probability 1.0: the send "succeeds" but nothing arrives.
        assert!(net.send(NodeId(0), NodeId(1), 1));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        // Healing the plan restores delivery.
        net.set_chaos(ChaosPlan::none());
        assert!(net.send(NodeId(0), NodeId(1), 2));
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap().message, 2);
    }

    #[test]
    fn chaos_duplication_delivers_extra_copies() {
        let plan = ChaosPlan::none().with_duplication(1.0);
        let net: ThreadedNetwork<u32> =
            ThreadedNetwork::with_chaos(Duration::from_millis(1), plan, 7);
        let rx = net.register(NodeId(1));
        assert!(net.send(NodeId(0), NodeId(1), 9));
        let a = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!((a.message, b.message), (9, 9));
    }

    #[test]
    fn set_chaos_rearms_crash_window_on_shared_clock() {
        // Regression: replacing the plan mid-run keeps the original chaos
        // epoch, so a re-armed crash window built from `chaos_now_ms()`
        // takes effect immediately, and a window wholly in the past stays
        // inert instead of replaying.
        let net: ThreadedNetwork<u32> =
            ThreadedNetwork::with_chaos(Duration::from_millis(1), ChaosPlan::none(), 11);
        let rx = net.register(NodeId(1));
        assert!(net.send(NodeId(0), NodeId(1), 1));
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap().message, 1);

        // Re-arm a crash "starting now" on the shared clock: node 1 is
        // down for the next minute; its traffic is silently dropped.
        let now = net.chaos_now_ms();
        net.set_chaos(ChaosPlan::none().crash(NodeId(1), now, Some(now + 60_000)));
        assert!(net.send(NodeId(0), NodeId(1), 2));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "crashed node unreachable");

        // A replacement plan whose window is wholly in the past must not
        // replay: `up_at_ms <= now` means the node is already back up.
        net.set_chaos(ChaosPlan::none().crash(NodeId(1), 0, Some(net.chaos_now_ms())));
        assert!(net.send(NodeId(0), NodeId(1), 3));
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap().message, 3);

        // Healing entirely restores delivery too.
        net.set_chaos(ChaosPlan::none());
        assert!(net.send(NodeId(0), NodeId(1), 4));
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap().message, 4);
    }

    #[test]
    fn chaos_partition_blocks_one_pair_only() {
        let plan = ChaosPlan::none().partition(NodeId(0), NodeId(1));
        let net: ThreadedNetwork<u32> =
            ThreadedNetwork::with_chaos(Duration::from_millis(1), plan, 3);
        let rx1 = net.register(NodeId(1));
        let rx2 = net.register(NodeId(2));
        assert!(net.send(NodeId(0), NodeId(1), 1)); // cut: silently lost
        assert!(net.send(NodeId(0), NodeId(2), 2)); // unaffected
        assert_eq!(rx2.recv_timeout(Duration::from_secs(2)).unwrap().message, 2);
        assert!(rx1.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn node_count_tracks_registrations() {
        let net: ThreadedNetwork<()> = ThreadedNetwork::new();
        assert_eq!(net.node_count(), 0);
        let _r = net.register(NodeId(0));
        let _r2 = net.register(NodeId(1));
        assert_eq!(net.node_count(), 2);
    }

    #[test]
    fn stalled_receiver_sheds_queries_but_delivers_priority() {
        let net: ThreadedNetwork<&'static str> = ThreadedNetwork::new();
        net.set_inbox_capacity(4);
        net.set_sheddable(|m| *m == "query");
        let rx = net.register(NodeId(1));
        // The receiver stalls while a query flood arrives: only `capacity`
        // frames buffer, the rest are dropped newest-first and counted —
        // memory stays bounded no matter how long the stall lasts.
        for _ in 0..100 {
            assert!(net.send(NodeId(0), NodeId(1), "query"));
        }
        assert_eq!(net.inbox_drops(), InboxDrops { sheddable: 96, priority: 0 });
        assert_eq!(rx.len(), 4);
        // Acks ride the priority lane past the backlog and are popped
        // first even though the queries arrived earlier.
        assert!(net.send(NodeId(0), NodeId(1), "ack"));
        assert!(net.send(NodeId(0), NodeId(1), "results"));
        assert_eq!(rx.recv().unwrap().message, "ack");
        assert_eq!(rx.recv().unwrap().message, "results");
        let mut queries = 0;
        while let Ok(env) = rx.try_recv() {
            assert_eq!(env.message, "query");
            queries += 1;
        }
        assert_eq!(queries, 4);
        // Draining freed the lane: new queries are admitted again.
        assert!(net.send(NodeId(0), NodeId(1), "query"));
        assert_eq!(rx.recv().unwrap().message, "query");
        assert_eq!(net.inbox_drops(), InboxDrops { sheddable: 96, priority: 0 });
    }

    #[test]
    fn priority_lane_is_bounded_too() {
        let net: ThreadedNetwork<u32> = ThreadedNetwork::new();
        net.set_inbox_capacity(2);
        net.set_sheddable(|m| *m == 0);
        let rx = net.register(NodeId(1));
        // Nothing matches the classifier: everything is priority; the high
        // lane still caps at capacity * PRIORITY_FACTOR = 8.
        for i in 1..=10u32 {
            assert!(net.send(NodeId(0), NodeId(1), i));
        }
        assert_eq!(net.inbox_drops(), InboxDrops { sheddable: 0, priority: 2 });
        let mut got = Vec::new();
        while let Ok(env) = rx.try_recv() {
            got.push(env.message);
        }
        assert_eq!(got, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn delayed_path_sheds_at_sender_edge_when_inbox_full() {
        let net: ThreadedNetwork<&'static str> =
            ThreadedNetwork::with_delay(Duration::from_millis(5));
        net.set_inbox_capacity(2);
        net.set_sheddable(|m| *m == "query");
        let rx = net.register(NodeId(1));
        // Fill the low lane through the delay line.
        assert!(net.send(NodeId(0), NodeId(1), "query"));
        assert!(net.send(NodeId(0), NodeId(1), "query"));
        let deadline = Instant::now() + Duration::from_secs(2);
        while rx.len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(rx.len(), 2);
        // A third query is shed before it even enters the delay line; an
        // ack still goes through on the priority lane.
        assert!(net.send(NodeId(0), NodeId(1), "query"));
        assert_eq!(net.inbox_drops().sheddable, 1);
        assert!(net.send(NodeId(0), NodeId(1), "ack"));
        let deadline = Instant::now() + Duration::from_secs(2);
        while rx.len() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Once landed, the ack is popped before the earlier-queued queries.
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap().message, "ack");
    }
}
