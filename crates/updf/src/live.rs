//! A live, multi-threaded UPDF deployment.
//!
//! Where [`crate::engine`] runs node logic single-threaded under virtual
//! time for measurement, `LiveNetwork` runs **one OS thread per peer**,
//! exchanging length-framed PDP messages over the crossbeam transport —
//! the closest in-process analogue of the original's servents talking
//! over TCP. It exercises the same protocol elements: node state tables
//! for loop detection, routed pipelined responses, completion by final
//! acks, and scope radius.
//!
//! Failure is the norm here too: peers can be [`LiveNetwork::kill`]ed
//! (they stop processing but their inbox stays open, like a hung
//! process), and the transport can run under a [`ChaosPlan`]. Recovery —
//! acked `Results` with bounded retransmission, sequence-number dedup,
//! and a child-liveness watchdog that re-queries then abandons silent
//! subtrees — is ON by default ([`RecoveryConfig::live_default`]), so a
//! lost subtree yields a `Partial` answer instead of a hang.
//!
//! With [`LiveNetwork::start_durable`] every peer's registry runs on the
//! WAL + snapshot backend (`wsda_registry::persist`), and a killed peer
//! can be brought back with [`LiveNetwork::restart_from_disk`]: the old
//! thread is joined, the registry is rebuilt from its on-disk state (with
//! leases that lapsed during the downtime swept, not resurrected), and a
//! fresh thread rejoins the overlay. P2P runtime state (state table,
//! ledger, pending acks, breakers) is deliberately lost — exactly what a
//! real process restart would lose.
//!
//! The implementation is intentionally a *subset* of the simulator engine
//! (routed + pipelined responses only); its purpose is to prove the
//! protocol works under real concurrency, which the deterministic
//! simulator cannot show.

use crate::breaker::{CircuitBreaker, ForwardDecision};
use crate::lifecycle::{LifecycleConfig, PeerEvent, PeerState, PeerTable};
use crate::recovery::{Completeness, RecoveryConfig};
use crate::topology::Topology;
use bytes::BytesMut;
use crossbeam::channel::RecvTimeoutError;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wsda_net::model::ChaosPlan;
use wsda_net::tcp::{TcpConfig, TcpTransport};
use wsda_net::transport::{FrameTransport, Inbox, InboxDrops, ThreadedNetwork};
use wsda_net::NodeId;
use wsda_obs::{
    trace::shared_buffer, Counter, Gauge, MetricsRegistry, QueryTrace, SharedTraceBuffer,
    TraceEvent, TraceKind,
};
use wsda_pdp::framing::{frame_is_query, write_frame, FrameReader};
use wsda_pdp::{
    BeginOutcome, CompiledQuery, Message, NodeStateTable, QueryCache, QueryLanguage, ResponseMode,
    ResultCache, ResultLedger, Scope, Sym, TransactionId,
};
use wsda_registry::clock::SystemClock;
use wsda_registry::workload::CorpusGenerator;
use wsda_registry::{
    Freshness, HyperRegistry, PersistenceConfig, PublishRequest, QueryPlan, RecoveryReport,
    RegistryConfig, RegistryError,
};

type Frame = Vec<u8>;

/// Lock a shared mutex, riding through poisoning: a panicked peer thread
/// must not wedge the control plane or its neighbors.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What a live query returned, and how much of the tree answered.
#[derive(Debug)]
pub struct LiveQueryReport {
    /// Result items (compact XML strings) in arrival order, deduplicated
    /// by sequence number.
    pub results: Vec<String>,
    /// Whether every subtree answered.
    pub completeness: Completeness,
    /// Lost-subtree `Error` frames that reached the client.
    pub errors_received: u64,
    /// Replayed `Results` frames the client suppressed.
    pub replays_suppressed: u64,
    /// The query's transaction id (feed to [`LiveNetwork::assemble_trace`]).
    pub transaction: TransactionId,
}

/// Overload-protection counters aggregated across every live peer.
/// Snapshot via [`LiveNetwork::stats`]; every shed is counted, never
/// silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Query forwards shed because the neighbor's circuit breaker was
    /// open.
    pub breaker_sheds: u64,
    /// Breaker open transitions (consecutive send/ack failures).
    pub breaker_opens: u64,
    /// Half-open probe `Ping`s sent.
    pub breaker_probes: u64,
    /// Queries answered from a peer's edge result cache (no evaluation,
    /// no downstream flood).
    pub result_cache_hits: u64,
    /// Complete subtree answers installed in a peer's result cache.
    pub result_cache_insertions: u64,
    /// Scored neighbor swaps applied by [`LiveNetwork::swap_round`].
    pub swaps: u64,
    /// Re-bootstraps: peers that rebuilt an empty Connected set when
    /// (re)joining the overlay.
    pub rebootstraps: u64,
}

/// Shared counter handles behind [`LiveStats`]; the same atomics are
/// registered with the network's [`MetricsRegistry`] for unified export.
#[derive(Default)]
struct LiveStatsInner {
    breaker_sheds: Counter,
    breaker_opens: Counter,
    breaker_probes: Counter,
    result_cache_hits: Counter,
    result_cache_insertions: Counter,
    swaps: Counter,
    rebootstraps: Counter,
}

/// Per-peer state-size gauge handles, updated by the peer thread and read
/// through the network's [`MetricsRegistry`] — live visibility into the
/// state the leak fixes keep bounded.
struct PeerGauges {
    ledger_streams: Gauge,
    state_entries: Gauge,
    live_txns: Gauge,
    pending_acks: Gauge,
    qcache_parses: Gauge,
    qcache_hits: Gauge,
    qcache_evictions: Gauge,
    rcache_entries: Gauge,
    peers_identified: Gauge,
    peers_pending: Gauge,
    peers_connected: Gauge,
    peers_departed: Gauge,
}

/// Capacity of each live peer's trace ring.
const TRACE_CAPACITY: usize = 4096;

/// A running live network. Dropping it shuts every peer down.
pub struct LiveNetwork {
    transport: Arc<dyn FrameTransport>,
    registries: Vec<Arc<HyperRegistry>>,
    shutdown: Arc<AtomicBool>,
    peer_dead: Vec<Arc<AtomicBool>>,
    /// Per-peer exit switch: unlike `peer_dead` (hung but joinable only at
    /// network shutdown), setting this makes the one thread return so
    /// [`LiveNetwork::restart_from_disk`] can join and replace it.
    peer_exit: Vec<Arc<AtomicBool>>,
    handles: Vec<Option<std::thread::JoinHandle<()>>>,
    topology: Topology,
    client_id: NodeId,
    txn_counter: u64,
    seed: u64,
    recovery: RecoveryConfig,
    stats: Arc<LiveStatsInner>,
    metrics: Arc<MetricsRegistry>,
    traces: Vec<SharedTraceBuffer>,
    /// Wall clock shared by every peer's registry; restarts reuse it so the
    /// recovery time includes the downtime gap.
    clock: Arc<SystemClock>,
    /// Process epoch shared by every peer (breakers, traces).
    epoch: Instant,
    /// Durable mode: the root directory holding one `n<i>` subdir per peer.
    persist_root: Option<PathBuf>,
    /// Per-peer lifecycle tables — the dynamic Connected set each peer
    /// forwards over (always on in the live engine). Shared between the
    /// owning thread and the control plane behind short-lived locks.
    peer_tables: Vec<Arc<Mutex<PeerTable>>>,
    /// Per-peer departure queues: [`LiveNetwork::leave`] enqueues the
    /// departed id and the owning thread drains the queue, marking the
    /// peer Departed and sweeping every per-peer runtime entry.
    sweeps: Vec<Arc<Mutex<Vec<NodeId>>>>,
    /// Peers that gracefully left (until they [`LiveNetwork::join`] back).
    departed: Vec<bool>,
    /// Swap scoring knobs (live defaults; always enabled here).
    lifecycle: LifecycleConfig,
}

impl LiveNetwork {
    /// Start one peer thread per topology node, each with a registry
    /// populated with `tuples_per_node` synthetic services. Recovery is
    /// on with live defaults.
    pub fn start(topology: Topology, tuples_per_node: usize, seed: u64) -> LiveNetwork {
        Self::start_with(topology, tuples_per_node, seed, RecoveryConfig::live_default())
    }

    /// Start with an explicit recovery configuration.
    pub fn start_with(
        topology: Topology,
        tuples_per_node: usize,
        seed: u64,
        recovery: RecoveryConfig,
    ) -> LiveNetwork {
        let transport: Arc<ThreadedNetwork<Frame>> = Arc::new(ThreadedNetwork::new());
        Self::start_on(transport, topology, tuples_per_node, seed, recovery, None)
            .expect("in-memory live start cannot fail")
    }

    /// Start on a chaos-injecting transport: every frame is subject to
    /// `plan` (drops, duplication, jitter, partitions, crash windows).
    pub fn start_chaos(
        topology: Topology,
        tuples_per_node: usize,
        seed: u64,
        recovery: RecoveryConfig,
        plan: ChaosPlan,
    ) -> LiveNetwork {
        let transport: Arc<ThreadedNetwork<Frame>> =
            Arc::new(ThreadedNetwork::with_chaos(Duration::from_millis(1), plan, seed));
        Self::start_on(transport, topology, tuples_per_node, seed, recovery, None)
            .expect("in-memory live start cannot fail")
    }

    /// Start with every peer's registry on the WAL + snapshot backend,
    /// persisting under `persist_root/n<i>`. An empty root gets the
    /// synthetic corpus published (and logged); a root left behind by an
    /// earlier run is *recovered* instead — tuples come back from disk and
    /// the corpus is not re-published. Killed peers can then rejoin via
    /// [`LiveNetwork::restart_from_disk`].
    pub fn start_durable(
        topology: Topology,
        tuples_per_node: usize,
        seed: u64,
        recovery: RecoveryConfig,
        persist_root: impl Into<PathBuf>,
    ) -> Result<LiveNetwork, RegistryError> {
        let transport: Arc<ThreadedNetwork<Frame>> = Arc::new(ThreadedNetwork::new());
        Self::start_on(
            transport,
            topology,
            tuples_per_node,
            seed,
            recovery,
            Some(persist_root.into()),
        )
    }

    /// Start over real loopback TCP sockets: every peer binds its own
    /// `127.0.0.1` listener and frames travel length-prefixed over actual
    /// connections ([`TcpTransport`]) — same node logic, real wire. For a
    /// one-process-per-node deployment, spawn [`StandalonePeer`]s on
    /// explicitly configured transports instead.
    pub fn start_tcp(
        topology: Topology,
        tuples_per_node: usize,
        seed: u64,
        recovery: RecoveryConfig,
    ) -> LiveNetwork {
        let transport = Arc::new(TcpTransport::with_config(TcpConfig::default(), seed));
        Self::start_on(transport, topology, tuples_per_node, seed, recovery, None)
            .expect("in-memory live start cannot fail")
    }

    fn start_on(
        transport: Arc<dyn FrameTransport>,
        topology: Topology,
        tuples_per_node: usize,
        seed: u64,
        recovery: RecoveryConfig,
        persist_root: Option<PathBuf>,
    ) -> Result<LiveNetwork, RegistryError> {
        // Query frames ride the transport's sheddable lane: a peer that
        // falls behind loses (counted) queries first while acks and
        // results keep flowing. The kind byte sits at a fixed offset, so
        // classification never parses the frame.
        transport.set_sheddable_frames(Arc::new(|f: &[u8]| frame_is_query(f)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let clock = Arc::new(SystemClock::new());
        let stats = Arc::new(LiveStatsInner::default());
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.register_counter("updf_breaker_sheds_total", &stats.breaker_sheds);
        metrics.register_counter("updf_breaker_opens_total", &stats.breaker_opens);
        metrics.register_counter("updf_breaker_probes_total", &stats.breaker_probes);
        metrics.register_counter("updf_result_cache_hits_total", &stats.result_cache_hits);
        metrics
            .register_counter("updf_result_cache_insertions_total", &stats.result_cache_insertions);
        metrics.register_counter("updf_swaps_total", &stats.swaps);
        metrics.register_counter("updf_rebootstraps_total", &stats.rebootstraps);
        transport.export_metrics(&metrics);
        let epoch = Instant::now();
        let mut registries = Vec::with_capacity(topology.len());
        let mut peer_dead = Vec::with_capacity(topology.len());
        let mut peer_exit = Vec::with_capacity(topology.len());
        let mut handles = Vec::with_capacity(topology.len());
        let mut traces = Vec::with_capacity(topology.len());
        let mut peer_tables = Vec::with_capacity(topology.len());
        let mut sweeps = Vec::with_capacity(topology.len());
        for i in 0..topology.len() as u32 {
            peer_tables
                .push(Arc::new(Mutex::new(PeerTable::seeded(topology.neighbors(NodeId(i)), 0))));
            sweeps.push(Arc::new(Mutex::new(Vec::new())));
            let config = RegistryConfig { max_ttl_ms: u64::MAX / 4, ..Default::default() };
            let (registry, recovered) = match &persist_root {
                Some(root) => {
                    let persist = PersistenceConfig::new(root.join(format!("n{i}")));
                    let (registry, report) =
                        HyperRegistry::open_durable(config, clock.clone(), &persist)?;
                    if let Some(backend) = registry.wal_backend() {
                        backend.metrics.export_into(&metrics, &format!("n{i}"));
                    }
                    (Arc::new(registry), report.recovered_tuples > 0)
                }
                None => (Arc::new(HyperRegistry::new(config, clock.clone())), false),
            };
            if !recovered {
                let mut generator = CorpusGenerator::new(seed ^ (i as u64).wrapping_mul(0x9e37));
                for _ in 0..tuples_per_node {
                    let (link, _, domain, content) = generator.next_service();
                    registry
                        .publish(
                            PublishRequest::new(&link, "service")
                                .with_context(domain)
                                .with_ttl_ms(u64::MAX / 8)
                                .with_content(content),
                        )
                        .expect("synthetic publish");
                }
            }
            registry.stats().export_into(&metrics, &format!("n{i}"));
            registries.push(registry);
            peer_dead.push(Arc::new(AtomicBool::new(false)));
            peer_exit.push(Arc::new(AtomicBool::new(false)));
            handles.push(None);
            traces.push(shared_buffer(TRACE_CAPACITY));
        }
        let client_id = NodeId(topology.len() as u32);
        let departed = vec![false; topology.len()];
        let mut net = LiveNetwork {
            transport,
            registries,
            shutdown,
            peer_dead,
            peer_exit,
            handles,
            topology,
            client_id,
            txn_counter: 0,
            seed,
            recovery,
            stats,
            metrics,
            traces,
            clock,
            epoch,
            persist_root,
            peer_tables,
            sweeps,
            departed,
            lifecycle: LifecycleConfig::on(),
        };
        for i in 0..net.topology.len() {
            net.spawn_peer(i);
        }
        Ok(net)
    }

    /// Register the peer's inbox and spawn its thread from the network's
    /// stored per-peer state. Used at start and by
    /// [`LiveNetwork::restart_from_disk`] (re-registering replaces — and
    /// closes — any previous inbox for the id).
    fn spawn_peer(&mut self, i: usize) {
        let id = NodeId(i as u32);
        let inbox = self.transport.register(id);
        let gauges = peer_gauges(&self.metrics, id);
        let peer = PeerThread {
            id,
            endpoint: Arc::from(format!("n{i}")),
            client_id: self.client_id,
            peers: self.peer_tables[i].clone(),
            sweeps: self.sweeps[i].clone(),
            registry: self.registries[i].clone(),
            transport: self.transport.clone(),
            shutdown: self.shutdown.clone(),
            dead: self.peer_dead[i].clone(),
            exit: self.peer_exit[i].clone(),
            recovery: self.recovery,
            stats: self.stats.clone(),
            epoch: self.epoch,
            jitter_state: Cell::new(
                (self.seed ^ u64::from(id.0).wrapping_mul(0x9e3779b97f4a7c15)) | 1,
            ),
            trace: self.traces[i].clone(),
            gauges,
        };
        self.handles[i] = Some(std::thread::spawn(move || peer.run(inbox)));
    }

    /// Restart a (typically [`LiveNetwork::kill`]ed) peer from its durable
    /// state: join the old thread, rebuild the registry from its WAL +
    /// snapshot directory, and rejoin the overlay with a fresh thread.
    ///
    /// The shared wall clock keeps running while the peer is down, so the
    /// recovery replay sweeps (rather than resurrects) every lease that
    /// lapsed during the gap. All P2P runtime state — state table, result
    /// ledger, pending retransmissions, breakers — is lost, exactly as a
    /// real process restart would lose it; only the registry survives.
    ///
    /// Errors unless the network was built with
    /// [`LiveNetwork::start_durable`].
    pub fn restart_from_disk(&mut self, node: NodeId) -> Result<RecoveryReport, RegistryError> {
        let i = node.0 as usize;
        let root = self.persist_root.clone().ok_or_else(|| {
            RegistryError::Storage("restart_from_disk requires start_durable".to_owned())
        })?;
        // Stop the old thread (works on both live and killed peers) and
        // join it so the old registry's WAL handle is fully released.
        self.peer_exit[i].store(true, Ordering::SeqCst);
        if let Some(handle) = self.handles[i].take() {
            let _ = handle.join();
        }
        let config = RegistryConfig { max_ttl_ms: u64::MAX / 4, ..Default::default() };
        let persist = PersistenceConfig::new(root.join(format!("n{i}")));
        let (registry, report) = HyperRegistry::open_durable(config, self.clock.clone(), &persist)?;
        let registry = Arc::new(registry);
        // Re-adopt the fresh backend's metric handles (same family names:
        // registration replaces the dead registry's handles).
        if let Some(backend) = registry.wal_backend() {
            backend.metrics.export_into(&self.metrics, &format!("n{i}"));
        }
        registry.stats().export_into(&self.metrics, &format!("n{i}"));
        self.registries[i] = registry;
        // A process restart loses the in-memory peer table with the rest
        // of the P2P runtime state; the peer comes back with its underlay
        // neighbors re-connected.
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        *lock(&self.peer_tables[i]) = PeerTable::seeded(self.topology.neighbors(node), now_ms);
        lock(&self.sweeps[i]).clear();
        self.peer_dead[i] = Arc::new(AtomicBool::new(false));
        self.peer_exit[i] = Arc::new(AtomicBool::new(false));
        self.spawn_peer(i);
        Ok(report)
    }

    /// Overload-protection counters aggregated across every peer.
    pub fn stats(&self) -> LiveStats {
        LiveStats {
            breaker_sheds: self.stats.breaker_sheds.get(),
            breaker_opens: self.stats.breaker_opens.get(),
            breaker_probes: self.stats.breaker_probes.get(),
            result_cache_hits: self.stats.result_cache_hits.get(),
            result_cache_insertions: self.stats.result_cache_insertions.get(),
            swaps: self.stats.swaps.get(),
            rebootstraps: self.stats.rebootstraps.get(),
        }
    }

    /// The unified metrics registry: every peer's hyper-registry counters
    /// (admission, planner, pulls), breaker counters, transport inbox-drop
    /// counters and per-peer state-size gauges. Render with
    /// [`MetricsRegistry::render_prometheus`], snapshot with
    /// [`MetricsRegistry::to_json`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Reassemble the query tree for `txn` from every peer's trace ring.
    pub fn assemble_trace(&self, txn: TransactionId) -> QueryTrace {
        let mut events = Vec::new();
        let mut dropped = 0;
        for buf in &self.traces {
            let buf = buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            events.extend(buf.for_txn(txn.0));
            dropped += buf.dropped();
        }
        let mut trace = QueryTrace::assemble(txn.0, events);
        trace.dropped = dropped;
        trace
    }

    /// Frames the transport dropped on inbox overflow, by lane.
    pub fn inbox_drops(&self) -> InboxDrops {
        self.transport.inbox_drops()
    }

    /// A node's registry (e.g. to publish extra content).
    pub fn registry(&self, node: NodeId) -> &Arc<HyperRegistry> {
        &self.registries[node.0 as usize]
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Crash a peer: it stops processing messages but its inbox stays
    /// open, so senders cannot tell — the live analogue of a hung
    /// process. Only the watchdog machinery can detect it. On a durable
    /// network, [`LiveNetwork::restart_from_disk`] brings it back.
    pub fn kill(&self, node: NodeId) {
        if let Some(flag) = self.peer_dead.get(node.0 as usize) {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// A peer's current Connected set (sorted).
    pub fn connected_peers(&self, node: NodeId) -> Vec<NodeId> {
        lock(&self.peer_tables[node.0 as usize]).connected().to_vec()
    }

    /// Whether `node` is currently a member of the overlay (has not
    /// gracefully [`LiveNetwork::leave`]d).
    pub fn is_member(&self, node: NodeId) -> bool {
        !self.departed[node.0 as usize]
    }

    /// Members currently in the overlay.
    pub fn member_count(&self) -> usize {
        self.departed.iter().filter(|&&d| !d).count()
    }

    /// Graceful leave: the peer refers each of its Connected neighbors to
    /// the others (so the overlay does not thin with every departure),
    /// stops its thread, detaches its inbox, and is queued for state
    /// sweeps at every former neighbor. Returns false if already gone.
    pub fn leave(&mut self, node: NodeId) -> bool {
        let i = node.0 as usize;
        if self.departed[i] {
            return false;
        }
        self.departed[i] = true;
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        let conns = lock(&self.peer_tables[i]).connected().to_vec();
        for &a in &conns {
            if self.departed[a.0 as usize] {
                continue;
            }
            let mut t = lock(&self.peer_tables[a.0 as usize]);
            for &b in &conns {
                if b != a && !self.departed[b.0 as usize] {
                    t.refer(b, now_ms);
                }
            }
        }
        self.peer_exit[i].store(true, Ordering::SeqCst);
        if let Some(handle) = self.handles[i].take() {
            let _ = handle.join();
        }
        self.transport.deregister(node);
        // Former neighbors sweep the leaver's per-peer state (result-cache
        // entries, pending acks, ledger streams) on their next loop turn.
        for &a in &conns {
            if !self.departed[a.0 as usize] {
                lock(&self.sweeps[a.0 as usize]).push(node);
            }
        }
        self.record_lifecycle(node, TraceKind::Leave, None, conns.len() as u64);
        true
    }

    /// Rejoin after a [`LiveNetwork::leave`]: the peer re-identifies its
    /// underlay contacts, re-bootstraps its Connected set from the ones
    /// still alive (two-sided), and comes back with a fresh thread. The
    /// registry is reused — content survives a graceful leave. Returns
    /// false if the peer never left.
    pub fn join(&mut self, node: NodeId) -> bool {
        let i = node.0 as usize;
        if !self.departed[i] {
            return false;
        }
        self.departed[i] = false;
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        let mut table = PeerTable::new();
        for &nb in self.topology.neighbors(node) {
            table.identify(nb, now_ms);
        }
        let want = self.topology.neighbors(node).len().max(1);
        let picks = table.rebootstrap(want, now_ms, |p| !self.departed[p.0 as usize]);
        if !picks.is_empty() {
            self.stats.rebootstraps.inc();
        }
        for &p in &picks {
            lock(&self.peer_tables[p.0 as usize]).connect(node, now_ms);
        }
        let admitted = picks.len() as u64;
        *lock(&self.peer_tables[i]) = table;
        lock(&self.sweeps[i]).clear();
        self.peer_dead[i] = Arc::new(AtomicBool::new(false));
        self.peer_exit[i] = Arc::new(AtomicBool::new(false));
        self.spawn_peer(i);
        self.record_lifecycle(node, TraceKind::Join, None, admitted);
        true
    }

    /// One scored neighbor-swap round across every member: each peer may
    /// evict its worst-scoring Connected neighbor for its best Prospect
    /// (hysteresis via the configured swap margin and minimum dwell).
    /// Peers keep serving queries; tables are locked one at a time.
    pub fn swap_round(&mut self) -> usize {
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        let cfg = self.lifecycle;
        let mut applied = 0;
        for i in 0..self.topology.len() {
            if self.departed[i] {
                continue;
            }
            let node = NodeId(i as u32);
            let decision = {
                let t = lock(&self.peer_tables[i]);
                t.best_swap(now_ms, &cfg, |p| p != node && !self.departed[p.0 as usize])
            };
            let Some((evict, admit)) = decision else { continue };
            lock(&self.peer_tables[i]).swap(evict, admit, now_ms);
            lock(&self.peer_tables[evict.0 as usize]).apply(node, PeerEvent::Demote, now_ms);
            lock(&self.peer_tables[admit.0 as usize]).connect(node, now_ms);
            self.stats.swaps.inc();
            self.record_lifecycle(node, TraceKind::Swap, Some(admit), u64::from(evict.0));
            applied += 1;
        }
        applied
    }

    /// Record a control-plane lifecycle event (txn 0) into `node`'s ring.
    fn record_lifecycle(&self, node: NodeId, kind: TraceKind, peer: Option<NodeId>, items: u64) {
        let at = self.epoch.elapsed().as_millis() as u64;
        let mut ev = TraceEvent::new(0, format!("n{}", node.0), kind, at).with_items(items);
        if let Some(p) = peer {
            ev = ev.with_peer(format!("n{}", p.0));
        }
        lock(&self.traces[node.0 as usize]).record(ev);
    }

    /// Flood `query_src` into the network at `entry` and collect routed
    /// results until the entry node reports completion or `timeout`
    /// elapses. Returns the result items (compact XML strings).
    pub fn query(
        &mut self,
        entry: NodeId,
        query_src: &str,
        radius: Option<u32>,
        timeout: Duration,
    ) -> Vec<String> {
        self.query_full(entry, query_src, radius, timeout).results
    }

    /// Like [`LiveNetwork::query`], but also reports completeness, lost
    /// subtrees and suppressed replays.
    pub fn query_full(
        &mut self,
        entry: NodeId,
        query_src: &str,
        radius: Option<u32>,
        timeout: Duration,
    ) -> LiveQueryReport {
        self.query_with_scope(entry, query_src, Scope { radius, ..Scope::default() }, timeout)
    }

    /// Like [`LiveNetwork::query_full`], with full control over the scope —
    /// notably `loop_timeout_ms`, which bounds how long peers retain
    /// per-transaction state (state table, result ledger, pending
    /// retransmissions) after a query finishes.
    pub fn query_with_scope(
        &mut self,
        entry: NodeId,
        query_src: &str,
        scope: Scope,
        timeout: Duration,
    ) -> LiveQueryReport {
        self.txn_counter += 1;
        let txn = TransactionId::derive(self.seed ^ 0xC11E47, self.txn_counter);
        client_query(
            &*self.transport,
            self.client_id,
            entry,
            query_src,
            scope,
            self.recovery.enabled,
            txn,
            timeout,
        )
    }
}

/// Run one query as a detached client over any [`FrameTransport`]:
/// register `client_id`, inject the query at `entry`, and collect routed
/// results until the entry node's final frame arrives or `timeout`
/// elapses. This is exactly the client half of
/// [`LiveNetwork::query_with_scope`], exposed so multi-process
/// deployments (peers in other processes, reached over
/// [`TcpTransport`]) can drive the same protocol.
///
/// With `ack_results` on, every `Results` frame is acked and replays are
/// suppressed by sequence number — it must match the peers' recovery
/// setting, or retransmissions count as duplicates.
#[allow(clippy::too_many_arguments)]
pub fn client_query(
    transport: &dyn FrameTransport,
    client_id: NodeId,
    entry: NodeId,
    query_src: &str,
    scope: Scope,
    ack_results: bool,
    txn: TransactionId,
    timeout: Duration,
) -> LiveQueryReport {
    let inbox = transport.register(client_id);
    let report = client_query_on(
        transport,
        &inbox,
        client_id,
        entry,
        query_src,
        scope,
        ack_results,
        txn,
        timeout,
    );
    transport.deregister(client_id);
    report
}

/// Like [`client_query`], but on an inbox the caller already registered —
/// needed when the client's listening address must be known (and handed to
/// remote processes) *before* the query runs, e.g. a TCP federation where
/// peers route `Results` back to the client's listener. The client stays
/// registered afterwards.
#[allow(clippy::too_many_arguments)]
pub fn client_query_on(
    transport: &dyn FrameTransport,
    inbox: &Inbox<Frame>,
    client_id: NodeId,
    entry: NodeId,
    query_src: &str,
    scope: Scope,
    ack_results: bool,
    txn: TransactionId,
    timeout: Duration,
) -> LiveQueryReport {
    let msg = Message::Query {
        transaction: txn,
        query: query_src.to_owned(),
        language: QueryLanguage::XQuery,
        scope,
        response_mode: ResponseMode::Routed,
    };
    send(transport, client_id, entry, &msg);
    let mut results = Vec::new();
    let mut reader = FrameReader::new();
    let mut ledger = ResultLedger::new();
    let mut errors: u64 = 0;
    let mut replays: u64 = 0;
    let mut done = false;
    let deadline = Instant::now() + timeout;
    'outer: loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match inbox.recv_timeout(deadline - now) {
            Ok(envelope) => {
                reader.extend(&envelope.message);
                while let Ok(Some(message)) = reader.next_message() {
                    match message {
                        Message::Results { transaction, seq, items, last, .. } => {
                            if transaction != txn {
                                continue;
                            }
                            if ack_results {
                                let ack = Message::Ack { transaction, seq };
                                send(transport, client_id, envelope.from, &ack);
                                if !ledger.record(transaction, Sym(envelope.from.0), seq) {
                                    replays += 1;
                                    continue;
                                }
                            }
                            results.extend(items);
                            if last {
                                done = true;
                                break 'outer;
                            }
                        }
                        Message::Error { transaction, .. } if transaction == txn => {
                            errors += 1;
                        }
                        _ => {}
                    }
                }
            }
            Err(_) => break,
        }
    }
    let completeness = if done && errors == 0 {
        Completeness::Complete
    } else {
        Completeness::Partial { subtrees_lost: errors.max(u64::from(!done)) }
    };
    LiveQueryReport {
        results,
        completeness,
        errors_received: errors,
        replays_suppressed: replays,
        transaction: txn,
    }
}

/// One peer of a federation running on an external [`FrameTransport`] —
/// the building block for multi-process deployments, where each process
/// hosts one (or a few) peers over [`TcpTransport`] and the client runs
/// [`client_query`] from wherever it likes.
///
/// The peer publishes the same synthetic corpus slice [`LiveNetwork`]
/// would give node `id` for the same `seed`, so a federation assembled
/// from standalone peers answers queries identically to the in-process
/// network. Dropping it stops the thread.
pub struct StandalonePeer {
    registry: Arc<HyperRegistry>,
    metrics: Arc<MetricsRegistry>,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StandalonePeer {
    /// Spawn a peer thread on `transport`. `inbox` must be the result of
    /// registering `id` on that transport — it is taken separately so a
    /// TCP process can bind an explicit port (and learn its address for
    /// the peer exchange) before the thread starts. `neighbors` seeds the
    /// peer's Connected set; frames from `client_id` are injected
    /// queries.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        transport: Arc<dyn FrameTransport>,
        inbox: Inbox<Frame>,
        id: NodeId,
        neighbors: &[NodeId],
        client_id: NodeId,
        tuples_per_node: usize,
        seed: u64,
        recovery: RecoveryConfig,
    ) -> StandalonePeer {
        let clock = Arc::new(SystemClock::new());
        let config = RegistryConfig { max_ttl_ms: u64::MAX / 4, ..Default::default() };
        let registry = Arc::new(HyperRegistry::new(config, clock));
        let mut generator = CorpusGenerator::new(seed ^ u64::from(id.0).wrapping_mul(0x9e37));
        for _ in 0..tuples_per_node {
            let (link, _, domain, content) = generator.next_service();
            registry
                .publish(
                    PublishRequest::new(&link, "service")
                        .with_context(domain)
                        .with_ttl_ms(u64::MAX / 8)
                        .with_content(content),
                )
                .expect("synthetic publish");
        }
        let metrics = Arc::new(MetricsRegistry::new());
        registry.stats().export_into(&metrics, &format!("n{}", id.0));
        transport.export_metrics(&metrics);
        // Same admission policy as the in-process network: query frames
        // ride the sheddable lane.
        transport.set_sheddable_frames(Arc::new(|f: &[u8]| frame_is_query(f)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let gauges = peer_gauges(&metrics, id);
        let peer = PeerThread {
            id,
            endpoint: Arc::from(format!("n{}", id.0)),
            client_id,
            peers: Arc::new(Mutex::new(PeerTable::seeded(neighbors, 0))),
            sweeps: Arc::new(Mutex::new(Vec::new())),
            registry: registry.clone(),
            transport,
            shutdown: shutdown.clone(),
            dead: Arc::new(AtomicBool::new(false)),
            exit: Arc::new(AtomicBool::new(false)),
            recovery,
            stats: Arc::new(LiveStatsInner::default()),
            epoch: Instant::now(),
            jitter_state: Cell::new((seed ^ u64::from(id.0).wrapping_mul(0x9e3779b97f4a7c15)) | 1),
            trace: shared_buffer(TRACE_CAPACITY),
            gauges,
        };
        let handle = std::thread::spawn(move || peer.run(inbox));
        StandalonePeer { registry, metrics, shutdown, handle: Some(handle) }
    }

    /// This peer's registry (e.g. to publish extra content).
    pub fn registry(&self) -> &Arc<HyperRegistry> {
        &self.registry
    }

    /// This peer's metrics registry (registry counters, transport
    /// counters, state-size gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

impl Drop for StandalonePeer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LiveNetwork {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..).flatten() {
            let _ = h.join();
        }
    }
}

fn send(transport: &dyn FrameTransport, from: NodeId, to: NodeId, message: &Message) {
    transport.send_frame(from, to, encode_frame(message));
}

/// Per-peer state-size gauge handles registered under `node="n<i>"`.
fn peer_gauges(metrics: &MetricsRegistry, id: NodeId) -> PeerGauges {
    let i = id.0;
    PeerGauges {
        ledger_streams: metrics.gauge(&format!("updf_ledger_streams{{node=\"n{i}\"}}")),
        state_entries: metrics.gauge(&format!("updf_state_entries{{node=\"n{i}\"}}")),
        live_txns: metrics.gauge(&format!("updf_live_txns{{node=\"n{i}\"}}")),
        pending_acks: metrics.gauge(&format!("updf_pending_acks{{node=\"n{i}\"}}")),
        qcache_parses: metrics.gauge(&format!("updf_query_cache_parses{{node=\"n{i}\"}}")),
        qcache_hits: metrics.gauge(&format!("updf_query_cache_hits{{node=\"n{i}\"}}")),
        qcache_evictions: metrics.gauge(&format!("updf_query_cache_evictions{{node=\"n{i}\"}}")),
        rcache_entries: metrics.gauge(&format!("updf_result_cache_entries{{node=\"n{i}\"}}")),
        peers_identified: metrics.gauge(&format!("updf_peers_identified{{node=\"n{i}\"}}")),
        peers_pending: metrics.gauge(&format!("updf_peers_pending{{node=\"n{i}\"}}")),
        peers_connected: metrics.gauge(&format!("updf_peers_connected{{node=\"n{i}\"}}")),
        peers_departed: metrics.gauge(&format!("updf_peers_departed{{node=\"n{i}\"}}")),
    }
}

/// One seeded xorshift64 draw in `[0, max_ms]` (0 when `max_ms == 0`).
///
/// The previous implementation derived jitter from
/// `Instant::now().elapsed().subsec_nanos()` — elapsed-since-*now* is
/// always ~0 ns, so every draw collapsed to the same per-peer constant and
/// retransmission storms stayed correlated. A per-peer PRNG state actually
/// decorrelates successive draws.
fn draw_jitter_ms(state: &Cell<u64>, max_ms: u64) -> u64 {
    if max_ms == 0 {
        return 0;
    }
    let mut x = state.get().max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state.set(x);
    // xorshift64* output scrambling for well-mixed low bits.
    x.wrapping_mul(0x2545f4914f6cdd1d) % (max_ms + 1)
}

fn encode_frame(message: &Message) -> Frame {
    let mut buf = BytesMut::new();
    // Every message here is internally generated and far below MAX_FRAME.
    write_frame(&mut buf, message).expect("PDP frame within MAX_FRAME");
    buf.to_vec()
}

struct PeerThread {
    id: NodeId,
    /// This peer's endpoint name, built once at spawn — the hot paths
    /// (every trace event, every `Results`/`Error` origin field) used to
    /// re-format it per message.
    endpoint: Arc<str>,
    /// The query client's transport id (one past the last peer id) —
    /// frames from it are injected queries, not overlay traffic.
    client_id: NodeId,
    /// This peer's lifecycle table: the Connected set it forwards over.
    /// Shared with the control plane (swap rounds, leave referrals).
    peers: Arc<Mutex<PeerTable>>,
    /// Departure queue: overlay peers the control plane marked gone, to be
    /// drained and swept by this thread.
    sweeps: Arc<Mutex<Vec<NodeId>>>,
    registry: Arc<HyperRegistry>,
    transport: Arc<dyn FrameTransport>,
    shutdown: Arc<AtomicBool>,
    /// Crash switch: when set the peer stops processing (inbox stays
    /// open), simulating a hung process.
    dead: Arc<AtomicBool>,
    /// Exit switch for this one thread (set by `restart_from_disk` so the
    /// old incarnation can be joined without shutting the network down).
    exit: Arc<AtomicBool>,
    recovery: RecoveryConfig,
    stats: Arc<LiveStatsInner>,
    /// Process epoch: circuit breakers count milliseconds from here.
    epoch: Instant,
    /// Per-peer xorshift state for retry jitter (thread-confined).
    jitter_state: Cell<u64>,
    /// This peer's bounded trace ring (read by the network handle).
    trace: SharedTraceBuffer,
    /// State-size gauges published through the network's metrics registry.
    gauges: PeerGauges,
}

struct LiveTxn {
    parent: Option<NodeId>,
    pending_children: HashSet<NodeId>,
    local_done: bool,
    next_seq: u64,
    /// Query source kept for watchdog re-queries.
    query: String,
    /// Scope to forward with on a re-query (None = scope exhausted).
    fscope: Option<Scope>,
    /// When the child watchdog next fires.
    watchdog_at: Instant,
    /// One re-query round already spent.
    requeried: bool,
    /// Accumulates this peer's complete subtree answer (local + child
    /// items) for result-cache population; only fed while `cache_ok`.
    cache_items: Vec<String>,
    /// May the finished answer be installed in the result cache? True
    /// only for queries carrying a nonzero staleness bound whose local
    /// evaluation was complete, no forward was shed, and the
    /// admission rule holds (forwarded, or a non-trivial local plan);
    /// falsified by anything that makes the answer partial or
    /// second-hand (lost subtrees, relayed errors, cached child frames).
    cache_ok: bool,
    /// A child's results arrived cache-served: outgoing frames carry the
    /// `cached` provenance flag upward.
    cache_tainted: bool,
    /// Radius the query arrived with (the cache entry's coverage).
    cache_radius: Option<u32>,
    /// The originating query's staleness bound — the entry's freshness
    /// ceiling, however lenient later requesters are.
    cache_bound: u64,
    /// Distinct child peers whose (first-hand) results fed `cache_items` —
    /// the cache entry's provenance, so a departed peer's contributions
    /// can be purged.
    cache_sources: Vec<u32>,
    /// Epoch-ms when this peer accepted the query (link-latency scoring).
    accepted_at_ms: u64,
}

/// A sent-but-unacked `Results` frame.
struct PendingLive {
    frame: Frame,
    to: NodeId,
    due: Instant,
    retries_left: u32,
    backoff: Duration,
}

/// Mutable per-peer runtime state (single-threaded within the peer).
#[derive(Default)]
struct PeerRt {
    state: NodeStateTable,
    live: HashMap<TransactionId, LiveTxn>,
    ledger: ResultLedger,
    pending: HashMap<(TransactionId, NodeId, u64), PendingLive>,
    suspected: HashSet<NodeId>,
    /// Per-neighbor circuit breakers: repeated send/ack failures open the
    /// circuit and forwards to that neighbor are shed at source.
    breakers: HashMap<NodeId, CircuitBreaker>,
    /// Per-peer compiled-query cache: handling the same query string again
    /// (another hop's forward, a watchdog re-query, a retransmitted frame)
    /// reuses the compiled form instead of re-parsing.
    qcache: QueryCache,
    /// Per-peer edge result cache: a repeated query carrying a nonzero
    /// staleness bound is answered from here at hop 1 — no evaluation,
    /// no downstream flood.
    rcache: ResultCache,
}

impl PeerThread {
    fn run(self, inbox: Inbox<Frame>) {
        let mut rt = PeerRt { state: NodeStateTable::new(), ..Default::default() };
        let mut reader = FrameReader::new();
        let clock = SystemClock::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) || self.exit.load(Ordering::SeqCst) {
                return;
            }
            if self.dead.load(Ordering::SeqCst) {
                // Crashed: keep the inbox receiver alive but never read it,
                // so senders see a silent peer, not a closed channel.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            match inbox.recv_timeout(Duration::from_millis(10)) {
                Ok(envelope) => {
                    reader.extend(&envelope.message);
                    while let Ok(Some(message)) = reader.next_message() {
                        self.handle(&mut rt, &clock, envelope.from, message);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            if self.recovery.enabled {
                self.tick(&mut rt);
            }
            // Drain the departure queue: mark each leaver Departed in the
            // lifecycle table and sweep every per-peer runtime entry it
            // still occupies (cache provenance, acks, ledger streams,
            // suspicion, breaker) so departed state cannot accumulate.
            let gone: Vec<NodeId> = std::mem::take(&mut *lock(&self.sweeps));
            for peer in gone {
                let now_ms = self.epoch.elapsed().as_millis() as u64;
                if lock(&self.peers).depart(peer, now_ms) {
                    rt.rcache.purge_source(peer.0);
                    rt.ledger.forget_sender(Sym(peer.0));
                    rt.pending.retain(|(_, to, _), _| *to != peer);
                    rt.suspected.remove(&peer);
                    rt.breakers.remove(&peer);
                    self.trace_event(TraceKind::Leave, TransactionId(0), |ev| {
                        ev.with_peer(format!("n{}", peer.0))
                    });
                }
            }
            // Publish state sizes: the leak regression tests (and any
            // scrape) read these through the network's metrics registry.
            self.gauges.ledger_streams.set(rt.ledger.streams() as u64);
            self.gauges.state_entries.set(rt.state.len() as u64);
            self.gauges.live_txns.set(rt.live.len() as u64);
            self.gauges.pending_acks.set(rt.pending.len() as u64);
            self.gauges.qcache_parses.set(rt.qcache.parses());
            self.gauges.qcache_hits.set(rt.qcache.hits());
            self.gauges.qcache_evictions.set(rt.qcache.evictions());
            self.gauges.rcache_entries.set(rt.rcache.len() as u64);
            {
                let t = lock(&self.peers);
                self.gauges.peers_identified.set(t.identified() as u64);
                self.gauges.peers_pending.set(t.count(PeerState::Pending) as u64);
                self.gauges.peers_connected.set(t.count(PeerState::Connected) as u64);
                self.gauges.peers_departed.set(t.count(PeerState::Departed) as u64);
            }
        }
    }

    /// Run `f` against this peer's lifecycle table under its lock.
    fn with_peers<R>(&self, f: impl FnOnce(&mut PeerTable) -> R) -> R {
        f(&mut lock(&self.peers))
    }

    /// Record a hop-level trace event in this peer's ring.
    fn trace_event(
        &self,
        kind: TraceKind,
        txn: TransactionId,
        f: impl FnOnce(TraceEvent) -> TraceEvent,
    ) {
        let at = self.epoch.elapsed().as_millis() as u64;
        let ev = f(TraceEvent::new(txn.0, self.endpoint.as_ref().to_owned(), kind, at));
        self.trace.lock().unwrap_or_else(std::sync::PoisonError::into_inner).record(ev);
    }

    fn handle(&self, rt: &mut PeerRt, clock: &SystemClock, from: NodeId, message: Message) {
        use wsda_registry::clock::Clock as _;
        // Any frame from an overlay peer is proof of life: standing
        // suspicion is dropped, and an open breaker moves to half-open
        // with an immediate probe — so a restarted or rejoined peer is
        // rehabilitated as soon as it speaks, not only after the cooldown.
        if from != self.client_id {
            rt.suspected.remove(&from);
            let now_ms = self.epoch.elapsed().as_millis() as u64;
            if rt.breakers.get_mut(&from).is_some_and(|b| b.note_contact(now_ms)) {
                self.stats.breaker_probes.inc();
                send(&*self.transport, self.id, from, &Message::Ping);
            }
        }
        match message {
            Message::Query { transaction, query, scope, .. } => {
                let now = clock.now();
                // Retire everything keyed by an expired transaction in the
                // same breath as the state-table sweep; sweeping only the
                // table leaks ledger streams and pending retransmissions.
                for expired in rt.state.sweep_expired(now) {
                    rt.ledger.forget(expired);
                    rt.live.remove(&expired);
                    rt.pending.retain(|(t, _, _), _| *t != expired);
                }
                match rt.state.begin(transaction, Some(Sym(from.0)), now, scope.loop_timeout_ms) {
                    BeginOutcome::Duplicate => {
                        // A replay from the recorded parent is the network
                        // duplicating the frame — the real stream is already
                        // flowing, so drop it. A duplicate from any *other*
                        // sender is a cross-path arrival: prune-ack so that
                        // forwarder stops waiting on us.
                        let from_parent = rt
                            .state
                            .get(&transaction)
                            .is_some_and(|s| s.parent == Some(Sym(from.0)));
                        if !from_parent {
                            self.reply(rt, from, transaction, Vec::new(), true, false);
                        }
                    }
                    BeginOutcome::Fresh => {
                        // A frame from the client transport id is the
                        // injected query: the entry node is the trace root.
                        // (Membership, not the static neighbor list — under
                        // lifecycle swaps a query may legitimately arrive
                        // from a non-underlay peer.)
                        let injected = from == self.client_id;
                        self.trace_event(TraceKind::Recv, transaction, |ev| {
                            if injected {
                                ev
                            } else {
                                ev.with_peer(format!("n{}", from.0))
                            }
                        });
                        // Edge result cache: a query carrying a nonzero
                        // staleness bound may be answered from this peer's
                        // cache — complete subtree answer at hop 1, flood
                        // suppressed. The lookup enforces the requester's
                        // bound, the populating query's bound, the cache
                        // TTL and the registry mutation epoch.
                        let cacheable = scope.result_staleness_ms > 0;
                        if cacheable {
                            let now_ms = now.millis();
                            let epoch = self.registry.mutation_epoch();
                            let hit = rt.rcache.lookup(
                                &query,
                                QueryLanguage::XQuery,
                                scope.radius,
                                now_ms,
                                scope.result_staleness_ms,
                                epoch,
                            );
                            if let Some(items) = hit {
                                self.stats.result_cache_hits.inc();
                                self.trace_event(TraceKind::CacheServed, transaction, |ev| {
                                    ev.with_items(items.len() as u64)
                                });
                                self.reply(rt, from, transaction, items.to_vec(), true, true);
                                return;
                            }
                        }
                        let (items, plan, eval_complete) = self.evaluate(rt, &query);
                        self.trace_event(TraceKind::Eval, transaction, |ev| {
                            ev.with_items(items.len() as u64)
                        });
                        let fscope = scope.forwarded(0);
                        let mut pending = HashSet::new();
                        let mut shed_any = false;
                        let breaker_on = self.recovery.breaker.enabled;
                        // Forward over the *current* Connected set — the
                        // living topology, not the underlay the peer was
                        // born with.
                        let connected = self.with_peers(|t| t.connected().to_vec());
                        if let Some(fscope) = &fscope {
                            for &nb in &connected {
                                // The breaker subsumes plain suspicion when
                                // on: it can also rehabilitate via probes.
                                if nb == from || (!breaker_on && rt.suspected.contains(&nb)) {
                                    continue;
                                }
                                match self.breaker_decide(rt, nb) {
                                    ForwardDecision::Forward => {}
                                    decision => {
                                        // Shed at source — counted, and the
                                        // lost subtree is reported upward so
                                        // the originator sees a Partial
                                        // answer, never a silent gap.
                                        shed_any = true;
                                        self.stats.breaker_sheds.inc();
                                        if matches!(decision, ForwardDecision::ShedAndProbe) {
                                            self.stats.breaker_probes.inc();
                                            send(&*self.transport, self.id, nb, &Message::Ping);
                                        }
                                        let msg = Message::Error {
                                            transaction,
                                            origin: self.endpoint.as_ref().to_owned(),
                                            reason: "breaker open: subtree shed".to_owned(),
                                        };
                                        send(&*self.transport, self.id, from, &msg);
                                        continue;
                                    }
                                }
                                let msg = Message::Query {
                                    transaction,
                                    query: query.clone(),
                                    language: QueryLanguage::XQuery,
                                    scope: fscope.clone(),
                                    response_mode: ResponseMode::Routed,
                                };
                                send(&*self.transport, self.id, nb, &msg);
                                self.trace_event(TraceKind::Forward, transaction, |ev| {
                                    ev.with_peer(format!("n{}", nb.0))
                                });
                                self.with_peers(|t| t.note_forward(nb));
                                pending.insert(nb);
                            }
                        }
                        let complete = pending.is_empty();
                        // Admission-aware population gate: a complete, un-
                        // shed evaluation, and either a forwarded subtree
                        // (aggregates are always worth keeping) or a local
                        // plan costlier than a pure index lookup.
                        let cache_ok = cacheable
                            && eval_complete
                            && !shed_any
                            && (!pending.is_empty() || !matches!(plan, QueryPlan::Index));
                        rt.live.insert(
                            transaction,
                            LiveTxn {
                                parent: Some(from),
                                pending_children: pending,
                                local_done: true,
                                next_seq: 0,
                                query,
                                fscope,
                                watchdog_at: Instant::now()
                                    + Duration::from_millis(self.recovery.watchdog_timeout_ms),
                                requeried: false,
                                cache_items: if cache_ok { items.clone() } else { Vec::new() },
                                cache_ok,
                                cache_tainted: false,
                                cache_radius: scope.radius,
                                cache_bound: scope.result_staleness_ms,
                                cache_sources: Vec::new(),
                                accepted_at_ms: self.epoch.elapsed().as_millis() as u64,
                            },
                        );
                        // Pipelined: local items leave immediately; `last`
                        // only when no children are outstanding. A partial
                        // frame with no items would tell the parent nothing.
                        if complete {
                            self.reply_last(rt, clock, from, transaction, items, false);
                        } else if !items.is_empty() {
                            self.reply(rt, from, transaction, items, false, false);
                        }
                    }
                }
            }
            Message::Results { transaction, seq, items, last, cached, .. } => {
                if self.recovery.enabled {
                    // Ack every arrival, then suppress replays.
                    let ack = Message::Ack { transaction, seq };
                    send(&*self.transport, self.id, from, &ack);
                    // A frame for a transaction the state table no longer
                    // tracks (swept after its loop timeout) must not
                    // recreate a ledger entry nobody will ever forget.
                    if rt.state.get(&transaction).is_none() {
                        return;
                    }
                    if !rt.ledger.record(transaction, Sym(from.0), seq) {
                        return;
                    }
                }
                let Some(entry) = rt.live.get_mut(&transaction) else { return };
                let parent = entry.parent;
                // Results flowing back score the child link: latency from
                // query acceptance, yield from the item count.
                let latency =
                    (self.epoch.elapsed().as_millis() as u64).saturating_sub(entry.accepted_at_ms);
                self.with_peers(|t| t.note_results(from, latency, items.len() as u64));
                if cached {
                    // A child answered from its cache: this peer's
                    // aggregate is second-hand — never re-cache it, and
                    // relay the provenance flag upward.
                    entry.cache_ok = false;
                    entry.cache_tainted = true;
                    entry.cache_items.clear();
                    entry.cache_sources.clear();
                } else if entry.cache_ok {
                    entry.cache_items.extend(items.iter().cloned());
                    if !entry.cache_sources.contains(&from.0) {
                        entry.cache_sources.push(from.0);
                    }
                }
                let mut finalize = false;
                if last {
                    entry.pending_children.remove(&from);
                    finalize = entry.pending_children.is_empty() && entry.local_done;
                }
                let tainted = entry.cache_tainted;
                if let Some(p) = parent {
                    if !items.is_empty() {
                        self.reply(rt, p, transaction, items, false, cached);
                    }
                    if finalize {
                        self.reply_last(rt, clock, p, transaction, Vec::new(), tainted);
                    }
                }
            }
            Message::Ack { transaction, seq } => {
                if rt.pending.remove(&(transaction, from, seq)).is_some() {
                    self.trace_event(TraceKind::Ack, transaction, |ev| {
                        ev.with_peer(format!("n{}", from.0))
                    });
                }
                self.breaker_success(rt, from);
            }
            Message::Error { transaction, origin, reason } => {
                // Relay the lost-subtree notice toward the originator; a
                // lost subtree below makes this peer's aggregate partial,
                // so it must never be cached.
                let parent = rt.live.get_mut(&transaction).map(|e| {
                    e.cache_ok = false;
                    e.cache_items.clear();
                    e.parent
                });
                if let Some(Some(p)) = parent {
                    let msg = Message::Error { transaction, origin, reason };
                    send(&*self.transport, self.id, p, &msg);
                }
            }
            Message::Close { transaction } => {
                self.trace_event(TraceKind::Close, transaction, |ev| ev);
                rt.live.remove(&transaction);
                rt.state.close(&transaction);
            }
            Message::Ping => {
                let msg = Message::Pong;
                send(&*self.transport, self.id, from, &msg);
            }
            Message::Pong => {
                // A probe came back: the peer is alive again.
                self.breaker_success(rt, from);
                rt.suspected.remove(&from);
            }
            _ => {}
        }
    }

    /// Retransmit overdue unacked frames and run the child watchdog.
    fn tick(&self, rt: &mut PeerRt) {
        let now = Instant::now();
        // Bounded retransmission with exponential backoff.
        let due: Vec<(TransactionId, NodeId, u64)> =
            rt.pending.iter().filter(|(_, p)| p.due <= now).map(|(k, _)| *k).collect();
        for key in due {
            let Some(p) = rt.pending.get_mut(&key) else { continue };
            if p.retries_left == 0 {
                let to = p.to;
                rt.pending.remove(&key);
                rt.suspected.insert(to);
                self.breaker_failure(rt, to);
                self.with_peers(|t| t.note_failure(to));
                continue;
            }
            p.retries_left -= 1;
            p.due = now + p.backoff + self.jitter();
            p.backoff *= u32::try_from(self.recovery.backoff_factor.max(1)).unwrap_or(2);
            let to = p.to;
            let frame = p.frame.clone();
            self.transport.send_frame(self.id, to, frame);
            self.trace_event(TraceKind::Retry, key.0, |ev| ev.with_peer(format!("n{}", to.0)));
            // Each ack timeout is one failure signal toward opening the
            // neighbor's breaker.
            self.breaker_failure(rt, to);
        }
        // Child-liveness watchdog: re-query silent subtrees once, then
        // abandon them (Error upward + final reply) so parents unwind.
        let mut abandoned: Vec<(TransactionId, Option<NodeId>, bool, bool)> = Vec::new();
        let mut lost_children: Vec<NodeId> = Vec::new();
        for (txn, entry) in rt.live.iter_mut() {
            if entry.pending_children.is_empty() || now < entry.watchdog_at {
                continue;
            }
            if !entry.requeried {
                if let Some(fscope) = &entry.fscope {
                    for &child in &entry.pending_children {
                        let msg = Message::Query {
                            transaction: *txn,
                            query: entry.query.clone(),
                            language: QueryLanguage::XQuery,
                            scope: fscope.clone(),
                            response_mode: ResponseMode::Routed,
                        };
                        send(&*self.transport, self.id, child, &msg);
                    }
                }
                entry.requeried = true;
                entry.watchdog_at = now + Duration::from_millis(self.recovery.watchdog_timeout_ms);
                continue;
            }
            // Second strike: give the subtrees up.
            let lost: Vec<NodeId> = entry.pending_children.drain().collect();
            for &child in &lost {
                self.trace_event(TraceKind::Abandon, *txn, |ev| {
                    ev.with_peer(format!("n{}", child.0))
                });
            }
            rt.suspected.extend(lost.iter().copied());
            lost_children.extend(lost.iter().copied());
            if let Some(p) = entry.parent {
                for _ in &lost {
                    let msg = Message::Error {
                        transaction: *txn,
                        origin: self.endpoint.as_ref().to_owned(),
                        reason: "watchdog: subtree lost".to_owned(),
                    };
                    send(&*self.transport, self.id, p, &msg);
                }
            }
            abandoned.push((*txn, entry.parent, entry.local_done, entry.cache_tainted));
        }
        // A child the watchdog gave up on is a hard failure signal. Record
        // it *before* the final replies below: the moment the originator
        // sees the partial answer, anything reading the breaker counters
        // must already find the open accounted for.
        for child in lost_children {
            self.breaker_failure(rt, child);
            self.with_peers(|t| t.note_failure(child));
        }
        for (txn, parent, local_done, tainted) in abandoned {
            if let Some(p) = parent {
                if local_done {
                    self.reply(rt, p, txn, Vec::new(), true, tainted);
                }
            }
            // Abandoned answers are partial — dropped, never cached.
            rt.live.remove(&txn);
        }
    }

    /// Whether a forward to `target` may proceed, per its breaker.
    fn breaker_decide(&self, rt: &mut PeerRt, target: NodeId) -> ForwardDecision {
        if !self.recovery.breaker.enabled {
            return ForwardDecision::Forward;
        }
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        rt.breakers
            .entry(target)
            .or_insert_with(|| CircuitBreaker::new(self.recovery.breaker))
            .decide(now_ms)
    }

    /// Record a send/ack failure toward `target`; counts open transitions.
    fn breaker_failure(&self, rt: &mut PeerRt, target: NodeId) {
        if !self.recovery.breaker.enabled {
            return;
        }
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        let opened = rt
            .breakers
            .entry(target)
            .or_insert_with(|| CircuitBreaker::new(self.recovery.breaker))
            .record_failure(now_ms);
        if opened {
            self.stats.breaker_opens.inc();
        }
    }

    /// Record proof of life from `target` (ack or pong): closes its
    /// breaker.
    fn breaker_success(&self, rt: &mut PeerRt, target: NodeId) {
        if !self.recovery.breaker.enabled {
            return;
        }
        if let Some(b) = rt.breakers.get_mut(&target) {
            b.record_success();
        }
    }

    fn jitter(&self) -> Duration {
        Duration::from_millis(draw_jitter_ms(&self.jitter_state, self.recovery.jitter_ms))
    }

    /// Evaluate locally; also reports the planner's choice and whether the
    /// evaluation was complete (both feed the result-cache admission gate).
    fn evaluate(&self, rt: &mut PeerRt, query_src: &str) -> (Vec<String>, QueryPlan, bool) {
        // Compile through the peer's cache: one parse per distinct query
        // string per peer, regardless of hops and retransmissions.
        match rt.qcache.get_or_compile(query_src, QueryLanguage::XQuery) {
            CompiledQuery::XQuery(q) => match self.registry.query(&q, &Freshness::any()) {
                Ok(out) => {
                    let items = out.results.iter().map(wsda_xq::Item::serialize).collect();
                    let complete =
                        matches!(out.completeness, wsda_registry::Completeness::Complete);
                    (items, out.stats.plan, complete)
                }
                Err(_) => (Vec::new(), QueryPlan::Scan, false),
            },
            CompiledQuery::Sql(q) => {
                let rows = self.registry.query_sql(&q);
                let items = wsda_registry::sql::SqlQuery::rows_to_xml(&rows)
                    .iter()
                    .map(|e| e.to_compact_string())
                    .collect();
                (items, QueryPlan::Scan, true)
            }
        }
    }

    /// Unwind a completed transaction: install its answer in the peer's
    /// result cache when admissible, then drop the live entry. Everything
    /// that makes the answer unfit — partial evaluation, shed or lost
    /// subtrees, cache-served child frames, a zero staleness bound —
    /// already falsified `cache_ok`.
    fn finish_txn(&self, rt: &mut PeerRt, clock: &SystemClock, transaction: TransactionId) {
        use wsda_registry::clock::Clock as _;
        let Some(entry) = rt.live.remove(&transaction) else { return };
        if !entry.cache_ok {
            return;
        }
        let now_ms = clock.now().millis();
        let epoch = self.registry.mutation_epoch();
        rt.rcache.insert(
            &entry.query,
            QueryLanguage::XQuery,
            entry.cache_radius,
            entry.cache_items,
            now_ms,
            entry.cache_bound,
            epoch,
            &entry.cache_sources,
        );
        self.stats.result_cache_insertions.inc();
    }

    /// Send a `Results` frame; with recovery on it is tracked for
    /// retransmission until acked.
    fn reply(
        &self,
        rt: &mut PeerRt,
        to: NodeId,
        transaction: TransactionId,
        items: Vec<String>,
        last: bool,
        cached: bool,
    ) {
        let frame = self.results_frame(rt, to, transaction, items, last, cached);
        self.transport.send_frame(self.id, to, frame);
    }

    /// Send a transaction's final `Results` frame and unwind it. The frame
    /// is numbered and encoded first, the answer is installed in the
    /// result cache next, and only then does the frame leave: whoever
    /// receives `last` finds the cache already populated.
    fn reply_last(
        &self,
        rt: &mut PeerRt,
        clock: &SystemClock,
        to: NodeId,
        transaction: TransactionId,
        items: Vec<String>,
        cached: bool,
    ) {
        let frame = self.results_frame(rt, to, transaction, items, true, cached);
        self.finish_txn(rt, clock, transaction);
        self.transport.send_frame(self.id, to, frame);
    }

    /// Number and encode a `Results` frame for `to`; with recovery on it is
    /// tracked for retransmission until acked.
    fn results_frame(
        &self,
        rt: &mut PeerRt,
        to: NodeId,
        transaction: TransactionId,
        items: Vec<String>,
        last: bool,
        cached: bool,
    ) -> Frame {
        let seq = match rt.live.get_mut(&transaction) {
            Some(e) => {
                let s = e.next_seq;
                e.next_seq += 1;
                s
            }
            // Transaction already unwound (late prune ack): the stream to
            // this receiver never carried a frame, so 0 is fresh.
            None => 0,
        };
        self.trace_event(TraceKind::Results, transaction, |ev| {
            ev.with_peer(format!("n{}", to.0)).with_items(items.len() as u64)
        });
        let msg = Message::Results {
            transaction,
            seq,
            items,
            last,
            origin: self.endpoint.as_ref().to_owned(),
            cached,
        };
        let frame = encode_frame(&msg);
        if self.recovery.enabled {
            rt.pending.insert(
                (transaction, to, seq),
                PendingLive {
                    frame: frame.clone(),
                    to,
                    due: Instant::now()
                        + Duration::from_millis(self.recovery.ack_timeout_ms)
                        + self.jitter(),
                    retries_left: self.recovery.max_retries,
                    backoff: Duration::from_millis(self.recovery.backoff_ms(1)),
                },
            );
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsda_xq::Query;

    const QUERY: &str = r#"//service[load < 0.5]/owner"#;

    fn ground_truth(net: &LiveNetwork, query: &str) -> Vec<String> {
        let q = Query::parse(query).unwrap();
        let mut out = Vec::new();
        for i in 0..net.topology().len() as u32 {
            let res = net.registry(NodeId(i)).query(&q, &Freshness::any()).unwrap();
            out.extend(res.results.iter().map(wsda_xq::Item::serialize));
        }
        out.sort();
        out
    }

    #[test]
    fn live_flood_matches_ground_truth_on_tree() {
        let mut net = LiveNetwork::start(Topology::tree(15, 2), 3, 99);
        let expected = ground_truth(&net, QUERY);
        let mut got = net.query(NodeId(0), QUERY, None, Duration::from_secs(10));
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn live_flood_survives_cycles() {
        let mut net = LiveNetwork::start(Topology::ring(8), 2, 7);
        let expected = ground_truth(&net, QUERY);
        let mut got = net.query(NodeId(0), QUERY, None, Duration::from_secs(10));
        got.sort();
        assert_eq!(got, expected, "loop detection under real concurrency");
    }

    #[test]
    fn live_radius_zero_is_local_only() {
        let mut net = LiveNetwork::start(Topology::tree(7, 2), 2, 3);
        let q = Query::parse(QUERY).unwrap();
        let local: Vec<String> = net
            .registry(NodeId(0))
            .query(&q, &Freshness::any())
            .unwrap()
            .results
            .iter()
            .map(wsda_xq::Item::serialize)
            .collect();
        let mut got = net.query(NodeId(0), QUERY, Some(0), Duration::from_secs(10));
        got.sort();
        let mut local = local;
        local.sort();
        assert_eq!(got, local);
    }

    #[test]
    fn sequential_live_queries_reuse_threads() {
        let mut net = LiveNetwork::start(Topology::random_connected(12, 3.0, 5), 2, 13);
        let a = net.query(NodeId(0), QUERY, None, Duration::from_secs(10));
        let b = net.query(NodeId(3), QUERY, None, Duration::from_secs(10));
        let mut a = a;
        let mut b = b;
        a.sort();
        b.sort();
        assert_eq!(a, b, "same corpus from any entry point");
    }

    #[test]
    fn killed_interior_peer_yields_partial_within_watchdog_budget() {
        let recovery = RecoveryConfig {
            enabled: true,
            ack_timeout_ms: 80,
            max_retries: 2,
            backoff_factor: 2,
            jitter_ms: 10,
            watchdog_timeout_ms: 300,
            ..RecoveryConfig::live_default()
        };
        let mut net = LiveNetwork::start_with(Topology::tree(15, 2), 2, 21, recovery);
        let expected = ground_truth(&net, QUERY);
        // Node 1 roots the subtree {1,3,4,7,8,9,10}: hang it.
        net.kill(NodeId(1));
        let t0 = Instant::now();
        let report = net.query_full(NodeId(0), QUERY, None, Duration::from_secs(20));
        let elapsed = t0.elapsed();
        assert!(
            !report.completeness.is_complete(),
            "a hung subtree must be reported, got {:?}",
            report.completeness
        );
        assert!(report.errors_received >= 1, "the watchdog reports the lost subtree");
        assert!(!report.results.is_empty(), "the surviving subtree still answers");
        assert!(report.results.len() < expected.len(), "the dead subtree's items are missing");
        // Two watchdog rounds (re-query, then abandon) plus slack — far
        // below the 20 s client budget, so this was recovery, not timeout.
        assert!(
            elapsed < Duration::from_secs(5),
            "partial answer must arrive within the watchdog budget, took {elapsed:?}"
        );
    }

    #[test]
    fn breaker_sheds_forwards_to_hung_peer_at_source() {
        let recovery = RecoveryConfig {
            enabled: true,
            ack_timeout_ms: 40,
            max_retries: 1,
            backoff_factor: 2,
            jitter_ms: 0,
            watchdog_timeout_ms: 150,
            breaker: crate::breaker::BreakerConfig {
                enabled: true,
                failure_threshold: 1,
                // Long open window: the second query must land inside it.
                open_ms: 60_000,
                probe_timeout_ms: 300,
            },
        };
        let mut net = LiveNetwork::start_with(Topology::tree(7, 2), 2, 55, recovery);
        net.kill(NodeId(1));
        // First query: the watchdog burns its full budget discovering the
        // hung subtree, which opens node 0's breaker for neighbor 1.
        let first = net.query_full(NodeId(0), QUERY, None, Duration::from_secs(20));
        assert!(!first.completeness.is_complete(), "hung subtree must surface as partial");
        assert!(net.stats().breaker_opens >= 1, "repeated failures must open a breaker");
        let sheds_before = net.stats().breaker_sheds;
        // Second query: the forward to the hung peer is shed at source —
        // no watchdog wait, and the shed subtree is still reported.
        let t0 = Instant::now();
        let second = net.query_full(NodeId(0), QUERY, None, Duration::from_secs(20));
        let elapsed = t0.elapsed();
        assert!(
            net.stats().breaker_sheds > sheds_before,
            "open breaker must shed the forward at source"
        );
        assert!(
            !second.completeness.is_complete() && second.errors_received >= 1,
            "a shed subtree is reported upward, never silently dropped"
        );
        assert!(
            elapsed < Duration::from_millis(500),
            "shedding at source skips the watchdog wait, took {elapsed:?}"
        );
    }

    #[test]
    fn chaos_duplication_is_suppressed_by_sequence_numbers() {
        let plan = ChaosPlan::none().with_duplication(1.0);
        let mut net = LiveNetwork::start_chaos(
            Topology::tree(7, 2),
            2,
            33,
            RecoveryConfig::live_default(),
            plan,
        );
        let expected = ground_truth(&net, QUERY);
        let report = net.query_full(NodeId(0), QUERY, None, Duration::from_secs(10));
        let mut got = report.results;
        got.sort();
        assert_eq!(got, expected, "duplicated frames must not duplicate results");
        assert!(report.completeness.is_complete());
        assert!(report.replays_suppressed > 0, "duplication must actually have happened");
    }

    #[test]
    fn jitter_draws_are_nonconstant_and_in_range() {
        let state = Cell::new(0x1234_5678_9abc_def0_u64);
        let max = 10_u64;
        let draws: Vec<u64> = (0..64).map(|_| draw_jitter_ms(&state, max)).collect();
        assert!(draws.iter().all(|&d| d <= max), "every draw within [0, jitter_ms]: {draws:?}");
        assert!(
            draws.windows(2).any(|w| w[0] != w[1]),
            "successive draws must differ — the old subsec_nanos jitter was a constant"
        );
        let distinct: HashSet<u64> = draws.iter().copied().collect();
        assert!(distinct.len() >= 5, "64 draws over 11 values should spread: {distinct:?}");
        // Zero budget degrades to zero jitter.
        assert_eq!(draw_jitter_ms(&state, 0), 0);
    }

    #[test]
    fn jitter_streams_decorrelate_across_peers() {
        // Same base seed, different peer index — the per-peer mix must
        // give different sequences or retry storms stay synchronized.
        let mk =
            |i: u32| Cell::new((77_u64 ^ u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1);
        let (a, b) = (mk(0), mk(1));
        let sa: Vec<u64> = (0..32).map(|_| draw_jitter_ms(&a, 100)).collect();
        let sb: Vec<u64> = (0..32).map(|_| draw_jitter_ms(&b, 100)).collect();
        assert_ne!(sa, sb, "peer streams must not be identical");
    }

    #[test]
    fn live_radius_two_trace_is_complete() {
        let mut net = LiveNetwork::start(Topology::random_connected(8, 3.0, 41), 2, 41);
        let report = net.query_full(NodeId(0), QUERY, Some(2), Duration::from_secs(10));
        assert!(report.completeness.is_complete());
        // Let in-flight acks/closes land before reading the rings.
        std::thread::sleep(Duration::from_millis(200));
        let trace = net.assemble_trace(report.transaction);
        assert!(!trace.spans.is_empty(), "the query must leave spans behind");
        assert!(
            trace.is_complete(),
            "every reached node shows recv→eval→results: {}",
            trace.to_json()
        );
        let roots = trace.roots();
        assert_eq!(roots.len(), 1, "the entry node is the only root");
        assert_eq!(roots[0].node, "n0");
        assert!(trace.spans.iter().all(|s| s.hop <= 2), "radius 2 bounds the tree depth");
        assert!(
            trace.spans.iter().any(|s| s.hop == 2),
            "an 8-peer overlay at radius 2 reaches second-hop peers"
        );
    }

    #[test]
    fn interior_peers_send_no_empty_partial_results() {
        let mut net = LiveNetwork::start(Topology::line(3), 2, 17);
        let link = "http://only-n2.example.org/svc";
        net.registry(NodeId(2))
            .publish(
                PublishRequest::new(link, "service")
                    .with_ttl_ms(u64::MAX / 8)
                    .with_content(wsda_xml::Element::new("service").with_field("owner", "n2")),
            )
            .unwrap();
        let query = format!(r#"/tuple[@link = "{link}"]"#);
        let report = net.query_full(NodeId(0), &query, None, Duration::from_secs(10));
        assert!(report.completeness.is_complete());
        assert_eq!(report.results.len(), 1, "only n2 holds the link");
        let events: Vec<TraceEvent> =
            net.traces.iter().flat_map(|b| lock(b).for_txn(report.transaction.0)).collect();
        let empty_results = |from: &str, to: &str| {
            events
                .iter()
                .filter(|e| e.kind == TraceKind::Results && e.items == 0)
                .filter(|e| e.node == from && e.peer.as_deref() == Some(to))
                .count()
        };
        // n0 and n1 match nothing locally while a child is pending: the
        // only empty frame each sends upward is its final one.
        assert_eq!(empty_results("n1", "n0"), 1, "n1 -> n0: {events:?}");
        let client = format!("n{}", net.client_id.0);
        assert_eq!(empty_results("n0", &client), 1, "n0 -> client: {events:?}");
    }

    #[test]
    fn live_metrics_expose_migrated_counters() {
        let mut net = LiveNetwork::start(Topology::tree(3, 2), 2, 9);
        let _ = net.query(NodeId(0), QUERY, None, Duration::from_secs(10));
        let text = net.metrics().render_prometheus();
        for family in [
            "registry_admitted_total",
            "updf_breaker_sheds_total",
            "updf_breaker_opens_total",
            "inbox_dropped_total",
            "updf_ledger_streams",
            "updf_state_entries",
        ] {
            assert!(text.contains(family), "{family} missing from exposition:\n{text}");
        }
        assert!(
            net.metrics().family_sum("registry_queries_total") >= 3,
            "each peer's local evaluation is counted in its registry"
        );
    }
}
