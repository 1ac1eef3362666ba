//! The P2P query engine: peer nodes on the discrete-event simulator.
//!
//! Every peer node is a full hyper registry plus a [`NodeCore`], the PDP
//! node the live peers run too. This module is the simulator's driver for
//! it: it turns the core's actions into simulator messages and timers, and
//! owns what only a simulation has — evaluation delay, slow nodes, retry
//! jitter, churn and the network model. [`SimNetwork::run_query`] injects
//! a query at an originator node and runs the network to quiescence (or
//! deadline), implementing the chapter-6 machinery:
//!
//! * **servent model** — the query spreads node-to-node along the topology
//!   (each node: loop-detect → evaluate locally → forward within scope →
//!   merge child results toward the parent),
//! * **agent model** — [`SimNetwork::run_agent_query`]: a central agent
//!   fans the query out to every node directly and collects replies,
//! * **response modes** — routed (data hop-by-hop), direct (data straight
//!   to the originator, completion acks routed), referral (invitations
//!   routed back; the originator fetches directly),
//! * **pipelining** — per-query: stream partials upward immediately, or
//!   store-and-forward once a subtree completes,
//! * **timeouts** — dynamic abort (budget decremented per hop, every node
//!   aborts exactly when its remaining budget lapses) vs static per-node
//!   timeouts, plus the state table's static loop timeout,
//! * **loop detection** — duplicate transactions answered with an
//!   immediate empty-final ("prune ack") so parents never wait on them.
//!
//! # Scale architecture
//!
//! The engine is built for 10^5–10^6 nodes (see `DESIGN.md`, "Simulator at
//! scale"):
//!
//! * per-node runtime state lives in a struct-of-arrays node arena
//!   indexed by dense `NodeId` — no per-node `String` keys anywhere on the
//!   hot path ([`wsda_pdp::Sym`] stands in for peer endpoints),
//! * endpoint strings are materialized once in an [`EndpointTable`] (one
//!   shared buffer, ~11 bytes/node) and handed out as `&str`,
//! * node registries materialize lazily on first evaluation (the build
//!   pass only runs the cheap corpus *kind* meta pass for routing hints),
//! * timers live in a [`TimerSlab`] that recycles slots as they fire, so
//!   timer bookkeeping stays bounded by in-flight timers, not history,
//! * one sequential event loop: each local evaluation runs inline on the
//!   loop thread when its timer pops. Same-instant evaluations on a flood
//!   come a few at a time between message deliveries, far too few to
//!   repay a thread fan-out,
//! * one reused action buffer: a core input never allocates a fresh
//!   `Vec` for the actions it emits.

use crate::arena::{AliveSet, EndpointTable, TimerSlab};
use crate::lifecycle::{LifecycleConfig, PeerEvent, PeerState, PeerTable};
use crate::metrics::QueryMetrics;
use crate::node::{
    corpus_seed, evaluate_locally, publish_corpus, Action, CoreConfig, Env, NodeCore, TimeoutMode,
    Timer,
};
use crate::recovery::{Completeness, RecoveryConfig};
use crate::selection::{NodeKinds, RoutingIndex};
use crate::topology::Topology;

use std::cell::OnceCell;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use wsda_net::model::{ChaosPlan, ChurnConfig, FaultPlan, NetworkModel};
use wsda_net::{Delivery, NodeId, Simulator};
use wsda_obs::{Gauge, MetricsRegistry, QueryTrace, TraceBuffer, TraceEvent, TraceKind};
use wsda_pdp::{
    encoded_len, Message, QueryLanguage, ResponseMode, ResultCache, Scope, TransactionId,
};
use wsda_registry::admission::AdmissionConfig;
use wsda_registry::clock::{ManualClock, Time};
use wsda_registry::workload::CorpusGenerator;
use wsda_registry::{
    HyperRegistry, PersistenceConfig, PublishRequest, RecoveryReport, RegistryConfig, RegistryError,
};

/// Node count at or below which per-node gauges and eager registries
/// default on (the legacy behavior every existing experiment sees).
const PER_NODE_METRICS_AUTO_LIMIT: usize = 512;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct P2pConfig {
    /// Estimated per-hop cost subtracted from the abort budget when
    /// forwarding (dynamic mode).
    pub hop_cost_ms: u64,
    /// Base local query evaluation latency per node.
    pub eval_delay_ms: u64,
    /// Nodes whose evaluation is `slow_factor`× slower.
    pub slow_nodes: HashSet<NodeId>,
    /// Slowdown multiplier for `slow_nodes`.
    pub slow_factor: u64,
    /// Timeout regime.
    pub timeout_mode: TimeoutMode,
    /// Tuples published into each node's registry at build time.
    pub tuples_per_node: usize,
    /// Master RNG seed (corpus, latency, transactions).
    pub seed: u64,
    /// Horizon of the routing index backing `hint:` policies.
    pub routing_horizon: u32,
    /// Ack/retransmission/watchdog recovery; disabled by default so the
    /// bare-protocol message accounting stays the experiments' baseline.
    pub recovery: RecoveryConfig,
    /// Admission-gate configuration applied to every node's registry
    /// (overload protection for local evaluation; see
    /// [`wsda_registry::admission`]). Disabled by default.
    pub registry_admission: AdmissionConfig,
    /// Bounded per-node inbox on the simulated transport: with `Some(n)`,
    /// query frames arriving at a node already holding `n` undelivered
    /// messages are shed (counted in the simulator's overflow stat)
    /// instead of queueing without bound.
    pub inbox_capacity: Option<usize>,
    /// Capacity of each node's trace ring (hop-level query tracing);
    /// 0 disables recording.
    pub trace_capacity: usize,
    /// Durable registries: with `Some(root)` every node's registry runs on
    /// the WAL + snapshot backend under `root/n<i>`, and
    /// [`SimNetwork::restart_node_from_disk`] can rebuild a node from its
    /// on-disk state at the current virtual time. `None` (the default)
    /// keeps registries purely in memory. Implies eager registry
    /// materialization.
    pub persist_root: Option<PathBuf>,
    /// Per-node gauges and per-node registry stat export: `Some(b)`
    /// forces, `None` enables them automatically for networks of at most
    /// 512 nodes. Per-node metric names
    /// allocate per node, which 10^5-node networks cannot afford;
    /// aggregate `*_total` gauges are always maintained.
    pub per_node_metrics: Option<bool>,
    /// Lean registries for huge networks: one shard and no content index
    /// per node (4-tuple registries don't repay 16 shard maps each).
    pub scale_registries: bool,
    /// Build the `hint:` routing index at construction. Costs one bounded
    /// BFS per edge and per-edge kind sets — fine at experiment scale,
    /// prohibitive at 10^5+ nodes. Without it, `hint:` policies degrade
    /// to flooding (their documented no-index behavior).
    pub build_routing_index: bool,
    /// Edge result caching: nodes consult (and populate) a per-node
    /// [`ResultCache`] so a repeat of a hot query is answered at hop 1
    /// from cache — suppressing the downstream flood — whenever the
    /// query's `Scope::result_staleness_ms` bound permits. With the
    /// default bound of 0 on every query, enabling this is inert, so the
    /// flag exists for explicit cache-on/off comparisons (F22).
    pub result_cache: bool,
    /// Capacity of each node's result cache.
    pub result_cache_capacity: usize,
    /// Hard TTL on result-cache entries, independent of query bounds.
    pub result_cache_ttl_ms: u64,
    /// Peer lifecycle: with `enabled`, every node runs the
    /// Identified→Pending→Connected→Departed state machine of
    /// [`crate::lifecycle`] and forwards over its *Connected* set instead
    /// of the static topology neighbor list. Disabled by default; a
    /// zero-churn lifecycle-on run is bit-for-bit identical to the static
    /// baseline (the churn-equivalence proptest enforces it).
    pub lifecycle: LifecycleConfig,
    /// Scheduled churn sampled by [`SimNetwork::churn_tick`]: per-interval
    /// leave/rejoin probabilities on the soft-state cadence. Inert (all
    /// rates zero) by default.
    pub churn: ChurnConfig,
}

impl Default for P2pConfig {
    fn default() -> Self {
        P2pConfig {
            hop_cost_ms: 20,
            eval_delay_ms: 5,
            slow_nodes: HashSet::new(),
            slow_factor: 10,
            timeout_mode: TimeoutMode::DynamicAbort,
            tuples_per_node: 4,
            seed: 42,
            routing_horizon: 4,
            recovery: RecoveryConfig::default(),
            registry_admission: AdmissionConfig::default(),
            inbox_capacity: None,
            trace_capacity: 4096,
            persist_root: None,
            per_node_metrics: None,
            scale_registries: false,
            build_routing_index: true,
            result_cache: true,
            result_cache_capacity: ResultCache::DEFAULT_CAPACITY,
            result_cache_ttl_ms: ResultCache::DEFAULT_TTL_MS,
            lifecycle: LifecycleConfig::default(),
            churn: ChurnConfig::off(),
        }
    }
}

impl P2pConfig {
    /// The preset for 10^5–10^6-node networks: lazy lean registries, no
    /// routing index, no tracing, aggregate-only metrics. Everything else
    /// (protocol, timeouts, seeds) matches the default so results remain
    /// comparable with small-network runs.
    pub fn for_scale() -> P2pConfig {
        P2pConfig {
            trace_capacity: 0,
            per_node_metrics: Some(false),
            scale_registries: true,
            build_routing_index: false,
            ..P2pConfig::default()
        }
    }
}

/// Builds node registries on demand: holds everything needed to
/// materialize node `i`'s registry identically whether it happens at
/// build time (eager) or on first local evaluation (lazy).
struct RegistryFactory {
    config: RegistryConfig,
    clock: Arc<ManualClock>,
    seed: u64,
    tuples_per_node: usize,
}

impl RegistryFactory {
    fn materialize(&self, node: u32) -> Arc<HyperRegistry> {
        let registry = Arc::new(HyperRegistry::new(self.config.clone(), self.clock.clone()));
        publish_corpus(&registry, self.seed, node, self.tuples_per_node);
        registry
    }
}

/// A node's registry slot: either materialized (eager/durable networks,
/// or any node that has evaluated a query) or still pending.
struct NodeRegistry {
    cell: OnceCell<Arc<HyperRegistry>>,
}

impl NodeRegistry {
    fn lazy() -> NodeRegistry {
        NodeRegistry { cell: OnceCell::new() }
    }

    fn eager(registry: Arc<HyperRegistry>) -> NodeRegistry {
        let cell = OnceCell::new();
        let _ = cell.set(registry);
        NodeRegistry { cell }
    }

    fn get<'a>(&'a self, factory: &RegistryFactory, node: u32) -> &'a Arc<HyperRegistry> {
        self.cell.get_or_init(|| factory.materialize(node))
    }

    fn peek(&self) -> Option<&Arc<HyperRegistry>> {
        self.cell.get()
    }
}

/// All per-node runtime state, struct-of-arrays and indexed by dense
/// `NodeId`. An idle node holds empty collections only — no heap blocks —
/// keeping idle footprint well under 1 KB/node.
struct NodeArena {
    factory: RegistryFactory,
    registries: Vec<NodeRegistry>,
    /// Each node's PDP protocol state (idle cores own no heap).
    cores: Vec<NodeCore>,
    /// Bounded rings of hop-level trace events recorded at each node.
    traces: Vec<TraceBuffer>,
    /// Per-node peer lifecycle tables ([`P2pConfig::lifecycle`]); empty
    /// tables (no heap) when the lifecycle is disabled.
    peers: Vec<PeerTable>,
}

impl NodeArena {
    fn registry(&self, node: NodeId) -> &Arc<HyperRegistry> {
        self.registries[node.0 as usize].get(&self.factory, node.0)
    }

    fn fresh_core(config: &P2pConfig) -> NodeCore {
        NodeCore::new(config.result_cache_capacity, config.result_cache_ttl_ms)
    }
}

/// The outcome of one query execution.
#[derive(Debug)]
pub struct QueryRun {
    /// Result items (compact XML) delivered to the originator, in arrival
    /// order.
    pub results: Vec<String>,
    /// Collected metrics.
    pub metrics: QueryMetrics,
    /// Virtual time when the run loop stopped.
    pub finished_at: Time,
    /// Did every subtree answer, or were some given up on?
    pub completeness: Completeness,
    /// The run's transaction id (feed to [`SimNetwork::assemble_trace`]).
    pub transaction: TransactionId,
}

/// Per-node gauge families, registered as `name{node="n<i>"}` in this
/// order — registering names allocates, so it happens once at build
/// time, never inside [`SimNetwork::metrics`].
const NODE_GAUGES: [&str; 5] = [
    "updf_ledger_streams",
    "updf_state_entries",
    "updf_txn_info",
    "updf_pending_acks",
    "updf_trace_dropped",
];

/// Network-wide gauge families, maintained at every scale, in the order
/// [`SimNetwork::metrics`] computes their values.
const TOTAL_GAUGES: [&str; 21] = [
    "updf_ledger_streams_total",
    "updf_state_entries_total",
    "updf_txn_info_total",
    "updf_pending_acks_total",
    "sim_messages_overflowed",
    "updf_query_cache_parses_total",
    "updf_query_cache_hits_total",
    "updf_query_cache_evictions_total",
    "updf_result_cache_hits_total",
    "updf_result_cache_misses_total",
    "updf_result_cache_evictions_total",
    "updf_result_cache_stale_rejects_total",
    "updf_result_cache_invalidations_total",
    "updf_result_cache_insertions_total",
    "updf_result_cache_entries_total",
    "updf_peers_identified_total",
    "updf_peers_pending_total",
    "updf_peers_connected_total",
    "updf_peers_departed_total",
    "updf_swaps_total",
    "updf_rebootstraps_total",
];

/// A P2P network of hyper-registry nodes on the discrete-event simulator.
pub struct SimNetwork {
    topology: Topology,
    sim: Simulator<Message>,
    arena: NodeArena,
    node_kinds: NodeKinds,
    config: P2pConfig,
    /// The protocol settings every node core reads.
    core: CoreConfig,
    /// Reused buffer for the actions one core input emits.
    actions: Vec<Action>,
    /// `None` when disabled ([`P2pConfig::build_routing_index`]);
    /// `hint:` policies then flood.
    routing_index: Option<RoutingIndex>,
    /// All node endpoint strings in one shared buffer.
    endpoints: EndpointTable,
    /// In-flight timers; slots recycle as timers fire.
    timers: TimerSlab<SimTimer>,
    /// Churn membership: frames to (and timers at) dead nodes vanish.
    alive: AliveSet,
    /// Soft-state churn intervals elapsed (the churn schedule's tick).
    churn_ticks: u64,
    txn_counter: u64,
    metrics: MetricsRegistry,
    /// Handles for [`NODE_GAUGES`] per node; empty unless per-node
    /// metrics are enabled.
    node_gauges: Vec<[Gauge; 5]>,
    /// Handles for [`TOTAL_GAUGES`], in order.
    totals: Vec<Gauge>,
}

/// What a simulator timer slot holds: a node's evaluation delay, or a
/// timer its core asked for.
#[derive(Debug, Clone, Copy)]
enum SimTimer {
    Eval(TransactionId),
    Core(Timer),
}

impl SimNetwork {
    /// Build a network: one hyper registry per topology node, populated
    /// with `config.tuples_per_node` synthetic services.
    pub fn build(topology: Topology, model: NetworkModel, config: P2pConfig) -> SimNetwork {
        Self::build_with_faults(topology, model, FaultPlan::none(), config)
    }

    /// Build with a fault plan — a legacy [`FaultPlan`] or a full
    /// [`ChaosPlan`] (drops, duplication, jitter, partitions, crashes).
    pub fn build_with_faults(
        topology: Topology,
        model: NetworkModel,
        faults: impl Into<ChaosPlan>,
        config: P2pConfig,
    ) -> SimNetwork {
        let mut sim: Simulator<Message> = Simulator::new(model, faults, config.seed);
        if let Some(cap) = config.inbox_capacity {
            // Query frames are sheddable at a full inbox; results, acks and
            // control frames always queue (they finish work already paid for).
            sim.set_inbox_capacity(cap, |m| m.kind() == "query");
        }
        let clock = sim.clock();
        let n = topology.len();
        let per_node_metrics = config.per_node_metrics.unwrap_or(n <= PER_NODE_METRICS_AUTO_LIMIT);
        // Registries materialize lazily at scale: building only needs each
        // node's content *kinds*. Durable and per-node-metrics networks
        // materialize eagerly (recovery and stat export need live
        // registries), which preserves the legacy small-network behavior.
        let eager = config.persist_root.is_some() || per_node_metrics;
        let mut registry_config = RegistryConfig {
            max_ttl_ms: u64::MAX / 4,
            admission: config.registry_admission.clone(),
            ..RegistryConfig::default()
        };
        if config.scale_registries {
            registry_config.shards = 1;
            registry_config.content_index = false;
        }
        let factory = RegistryFactory {
            config: registry_config,
            clock: clock.clone(),
            seed: config.seed,
            tuples_per_node: config.tuples_per_node,
        };
        let mut registries = Vec::with_capacity(n);
        let mut node_kinds = NodeKinds::new(n);
        for i in 0..n {
            let node_u32 = i as u32;
            // The kind meta pass always runs so `node_kinds` (routing
            // hints) is identical whether the corpus is published fresh,
            // lazily, or came back from disk — it is deterministic in the
            // seed and consumes the exact draw sequence full generation
            // does.
            let mut generator = CorpusGenerator::new(corpus_seed(config.seed, node_u32));
            for _ in 0..config.tuples_per_node {
                node_kinds.insert(NodeId(node_u32), generator.next_service_kind());
            }
            if let Some(root) = &config.persist_root {
                let persist = PersistenceConfig::new(root.join(format!("n{i}")));
                let (registry, report) =
                    HyperRegistry::open_durable(factory.config.clone(), clock.clone(), &persist)
                        .expect("open durable sim registry");
                let registry = Arc::new(registry);
                if report.recovered_tuples == 0 {
                    publish_corpus(&registry, config.seed, node_u32, config.tuples_per_node);
                }
                registries.push(NodeRegistry::eager(registry));
            } else if eager {
                registries.push(NodeRegistry::eager(factory.materialize(node_u32)));
            } else {
                registries.push(NodeRegistry::lazy());
            }
        }
        let metrics = MetricsRegistry::new();
        let mut node_gauges = Vec::new();
        if per_node_metrics {
            for (i, slot) in registries.iter().enumerate() {
                if let Some(registry) = slot.peek() {
                    registry.stats().export_into(&metrics, &format!("n{i}"));
                    if let Some(backend) = registry.wal_backend() {
                        backend.metrics.export_into(&metrics, &format!("n{i}"));
                    }
                }
                node_gauges.push(
                    NODE_GAUGES.map(|name| metrics.gauge(&format!("{name}{{node=\"n{i}\"}}"))),
                );
            }
        }
        let totals = TOTAL_GAUGES.iter().map(|name| metrics.gauge(name)).collect();
        let routing_index = config
            .build_routing_index
            .then(|| RoutingIndex::build(&topology, &node_kinds, config.routing_horizon));
        let arena = NodeArena {
            factory,
            registries,
            cores: (0..n).map(|_| NodeArena::fresh_core(&config)).collect(),
            traces: (0..n).map(|_| TraceBuffer::new(config.trace_capacity)).collect(),
            peers: (0..n)
                .map(|i| {
                    if config.lifecycle.enabled {
                        // Seed Connected exactly from the sorted underlay
                        // neighbor list: a zero-churn lifecycle run then
                        // forwards over the identical candidate sequence
                        // the static path produces.
                        PeerTable::seeded(topology.neighbors(NodeId(i as u32)), 0)
                    } else {
                        PeerTable::new()
                    }
                })
                .collect(),
        };
        let core = CoreConfig {
            hop_cost_ms: config.hop_cost_ms,
            timeout_mode: config.timeout_mode,
            recovery: config.recovery,
            result_cache: config.result_cache,
            lifecycle: config.lifecycle.enabled,
            trace: config.trace_capacity > 0,
            client: None,
        };
        SimNetwork {
            endpoints: EndpointTable::new(n),
            topology,
            sim,
            arena,
            node_kinds,
            config,
            core,
            actions: Vec::new(),
            routing_index,
            timers: TimerSlab::new(),
            alive: AliveSet::all_alive(n),
            churn_ticks: 0,
            txn_counter: 0,
            metrics,
            node_gauges,
            totals,
        }
    }

    /// Publish an extra service of a given `kind` at `node` and refresh the
    /// routing index (when one is built) so `hint:<kind>` policies can
    /// steer toward it. Used by experiments that plant rare content.
    pub fn plant_service(
        &mut self,
        node: NodeId,
        kind: &str,
        link: &str,
        content: wsda_xml::Element,
    ) {
        self.arena
            .registry(node)
            .publish(
                PublishRequest::new(link, "service")
                    .with_ttl_ms(u64::MAX / 8)
                    .with_content(content),
            )
            .expect("plant publish");
        self.node_kinds.insert(node, kind);
        if self.routing_index.is_some() {
            self.routing_index = Some(RoutingIndex::build(
                &self.topology,
                &self.node_kinds,
                self.config.routing_horizon,
            ));
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// A node's registry (to publish extra content before a run).
    /// Materializes a lazy registry on first access.
    pub fn registry(&self, node: NodeId) -> &Arc<HyperRegistry> {
        self.arena.registry(node)
    }

    /// Advance virtual time by `ms` with the network idle — e.g. to model
    /// the downtime between a [`ChaosPlan`] crash window and a
    /// [`SimNetwork::restart_node_from_disk`]. Only meaningful between
    /// runs: each run drives the simulator to quiescence, so there are no
    /// pending events to leapfrog.
    pub fn advance_time(&mut self, ms: u64) -> Time {
        self.sim.clock().advance(ms)
    }

    /// Rebuild a node from its durable state at the current virtual time —
    /// the simulator analogue of a process restart after a [`ChaosPlan`]
    /// crash window. The registry is recovered from `root/n<i>` (leases
    /// that lapsed while the node was down are swept, not resurrected);
    /// the node core and trace ring are reset, exactly what a real
    /// restart would lose.
    ///
    /// Errors unless the network was built with
    /// [`P2pConfig::persist_root`] set.
    pub fn restart_node_from_disk(
        &mut self,
        node: NodeId,
    ) -> Result<RecoveryReport, RegistryError> {
        let root = self.config.persist_root.clone().ok_or_else(|| {
            RegistryError::Storage("restart_node_from_disk requires persist_root".to_owned())
        })?;
        let i = node.0 as usize;
        // Drop the old incarnation first so its WAL handle is released
        // before recovery reopens (and snapshots into) the directory.
        self.arena.registries[i] = NodeRegistry::lazy();
        self.arena.cores[i] = NodeArena::fresh_core(&self.config);
        self.arena.traces[i] = TraceBuffer::new(self.config.trace_capacity);
        self.arena.peers[i] = if self.config.lifecycle.enabled {
            PeerTable::seeded(self.topology.neighbors(node), self.sim.now().millis())
        } else {
            PeerTable::new()
        };
        self.alive.set(node);
        let persist = PersistenceConfig::new(root.join(format!("n{i}")));
        let (registry, report) = HyperRegistry::open_durable(
            self.arena.factory.config.clone(),
            self.sim.clock(),
            &persist,
        )?;
        let registry = Arc::new(registry);
        if !self.node_gauges.is_empty() {
            registry.stats().export_into(&self.metrics, &format!("n{i}"));
            if let Some(backend) = registry.wal_backend() {
                backend.metrics.export_into(&self.metrics, &format!("n{i}"));
            }
        }
        self.arena.registries[i] = NodeRegistry::eager(registry);
        Ok(report)
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Messages shed by bounded per-node inboxes since the network was
    /// built (see [`P2pConfig::inbox_capacity`]); 0 with unbounded inboxes.
    pub fn network_overflows(&self) -> u64 {
        self.sim.stats().messages_overflowed
    }

    // ==== churn / peer lifecycle (P2pConfig::lifecycle) ===================

    /// Is `node` currently a member of the network?
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node)
    }

    /// Nodes currently alive.
    pub fn alive_count(&self) -> usize {
        self.alive.alive()
    }

    /// Total scored neighbor swaps performed across all nodes.
    pub fn lifecycle_swaps(&self) -> u64 {
        self.arena.peers.iter().map(|p| p.swaps).sum()
    }

    /// Total re-bootstraps (a node rebuilding an empty connected set)
    /// across all nodes.
    pub fn lifecycle_rebootstraps(&self) -> u64 {
        self.arena.peers.iter().map(|p| p.rebootstraps).sum()
    }

    /// A node's current Connected set (empty when the lifecycle is off).
    pub fn connected_peers(&self, node: NodeId) -> &[NodeId] {
        self.arena.peers[node.0 as usize].connected()
    }

    /// Is the overlay one connected component over the alive membership?
    /// With the lifecycle on this walks the *dynamic* Connected links;
    /// otherwise it walks the static underlay restricted to alive nodes.
    pub fn overlay_connected(&self) -> bool {
        let n = self.topology.len();
        if !self.config.lifecycle.enabled {
            let members: Vec<bool> = (0..n).map(|i| self.alive.get(NodeId(i as u32))).collect();
            return self.topology.connected_within(&members);
        }
        let alive: Vec<bool> = (0..n).map(|i| self.alive.get(NodeId(i as u32))).collect();
        let total = alive.iter().filter(|&&a| a).count();
        let Some(start) = alive.iter().position(|&a| a) else { return true };
        let mut seen = vec![false; n];
        seen[start] = true;
        let mut reached = 1usize;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &v in self.arena.peers[u].connected() {
                let vi = v.0 as usize;
                if alive[vi] && !seen[vi] {
                    seen[vi] = true;
                    reached += 1;
                    queue.push_back(vi);
                }
            }
        }
        reached == total
    }

    /// Graceful departure: `node` leaves the network, referring each of
    /// its Connected peers to the others (referral-on-leave) so the hole
    /// it opens stays bridged by Prospect links, then every peer marks it
    /// Departed and sweeps its per-peer state. Returns false when the
    /// node was already down.
    pub fn depart_node(&mut self, node: NodeId) -> bool {
        if !self.alive.clear(node) {
            return false;
        }
        let now_ms = self.sim.now().millis();
        if self.config.lifecycle.enabled {
            let conns: Vec<NodeId> = self.arena.peers[node.0 as usize].connected().to_vec();
            for &a in &conns {
                if !self.alive.get(a) {
                    continue;
                }
                for &b in &conns {
                    if b != a && self.alive.get(b) {
                        self.arena.peers[a.0 as usize].refer(b, now_ms);
                    }
                }
            }
            for &a in &conns {
                if self.alive.get(a) {
                    let i = a.0 as usize;
                    self.arena.cores[i].on_peer_departed(&mut self.arena.peers[i], node, now_ms);
                }
            }
        }
        self.trace(node, TraceKind::Leave, TransactionId(0), None, None);
        true
    }

    /// Crash-like churn burst: a `frac` fraction of the alive, non-exempt
    /// nodes drop instantly with **no** referral-on-leave — the overlay is
    /// left torn and must heal through subsequent [`SimNetwork::churn_tick`]s.
    /// Victim selection is deterministic in the churn seed. Returns the
    /// crashed nodes.
    pub fn churn_burst(&mut self, frac: f64) -> Vec<NodeId> {
        fn mix(mut x: u64) -> u64 {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        let seed = self.config.churn.seed ^ self.churn_ticks.rotate_left(32);
        let mut ranked: Vec<(u64, NodeId)> = self
            .alive
            .iter_alive()
            .filter(|&v| Some(v) != self.config.churn.exempt)
            .map(|v| (mix(seed ^ u64::from(v.0)), v))
            .collect();
        ranked.sort_unstable();
        let count = ((ranked.len() as f64) * frac.clamp(0.0, 1.0)).round() as usize;
        let victims: Vec<NodeId> = ranked.into_iter().take(count).map(|(_, v)| v).collect();
        for &v in &victims {
            self.alive.clear(v);
            self.trace(v, TraceKind::Leave, TransactionId(0), None, None);
        }
        victims
    }

    /// A departed node returns: its runtime state is gone (exactly what a
    /// process restart loses), it remembers its underlay contacts as
    /// Identified, and it re-bootstraps Connected links from whichever of
    /// them are alive. The chosen peers accept the link back. Returns
    /// false when the node was already up.
    pub fn rejoin_node(&mut self, node: NodeId) -> bool {
        if !self.alive.set(node) {
            return false;
        }
        let i = node.0 as usize;
        let now_ms = self.sim.now().millis();
        self.arena.cores[i] = NodeArena::fresh_core(&self.config);
        if self.config.lifecycle.enabled {
            let mut table = PeerTable::new();
            for &nb in self.topology.neighbors(node) {
                table.identify(nb, now_ms);
            }
            let want = self.topology.neighbors(node).len().max(1);
            let alive = self.alive.clone();
            let picks = table.rebootstrap(want, now_ms, |p| p != node && alive.get(p));
            self.arena.peers[i] = table;
            for p in picks {
                self.arena.peers[p.0 as usize].connect(node, now_ms);
            }
        }
        self.trace(node, TraceKind::Join, TransactionId(0), None, None);
        true
    }

    /// One soft-state churn interval: sample scheduled leaves and rejoins
    /// from [`P2pConfig::churn`], run one self-healing round (each alive
    /// node detects dead Connected peers, sweeps their state, and tops its
    /// connected set back up — re-bootstrapping via the lowest-id alive
    /// node when it knows no live peer at all), run one scored swap
    /// round, and advance virtual time by the configured interval.
    /// Returns `(left, rejoined)`.
    pub fn churn_tick(&mut self) -> (usize, usize) {
        let tick = self.churn_ticks;
        self.churn_ticks += 1;
        let (mut left, mut rejoined) = (0, 0);
        if self.config.churn.is_active() {
            let churn = self.config.churn;
            for i in 0..self.topology.len() as u32 {
                let node = NodeId(i);
                if self.alive.get(node) {
                    if churn.leaves(tick, node) && self.depart_node(node) {
                        left += 1;
                    }
                } else if churn.rejoins(tick, node) && self.rejoin_node(node) {
                    rejoined += 1;
                }
            }
        }
        if self.config.lifecycle.enabled {
            self.heal_round();
            self.swap_round();
        }
        self.advance_time(self.config.churn.interval_ms.max(1));
        (left, rejoined)
    }

    /// Self-healing round: every alive node retires dead Connected peers
    /// (Departed + per-peer state sweep) and promotes known alive peers —
    /// or falls back to the lowest-id alive node as a bootstrap contact —
    /// until its connected set is back at the underlay degree.
    fn heal_round(&mut self) {
        let now_ms = self.sim.now().millis();
        let alive = self.alive.clone();
        for i in 0..self.arena.peers.len() {
            let node = NodeId(i as u32);
            if !alive.get(node) {
                continue;
            }
            let dead: Vec<NodeId> = self.arena.peers[i]
                .connected()
                .iter()
                .copied()
                .filter(|&p| !alive.get(p))
                .collect();
            for d in dead {
                self.arena.cores[i].on_peer_departed(&mut self.arena.peers[i], d, now_ms);
            }
            let want = self.topology.neighbors(node).len().max(1);
            let have = self.arena.peers[i].connected().len();
            if have == 0 {
                let picks =
                    self.arena.peers[i].rebootstrap(want, now_ms, |p| p != node && alive.get(p));
                if picks.is_empty() {
                    // The node knows no live peer: bootstrap-server model —
                    // re-enter through the lowest-id alive node.
                    if let Some(seed_peer) = alive.iter_alive().find(|&p| p != node) {
                        self.arena.peers[i].identify(seed_peer, now_ms);
                        self.arena.peers[i].connect(seed_peer, now_ms);
                        self.arena.peers[seed_peer.0 as usize].connect(node, now_ms);
                        self.arena.peers[i].rebootstraps += 1;
                    }
                } else {
                    for p in picks {
                        self.arena.peers[p.0 as usize].connect(node, now_ms);
                    }
                }
            } else if have < want {
                let gaps = want - have;
                let cands: Vec<NodeId> = self.arena.peers[i]
                    .entries()
                    .iter()
                    .filter(|e| {
                        matches!(e.state, PeerState::Prospect | PeerState::Identified)
                            && e.peer != node
                            && alive.get(e.peer)
                    })
                    .map(|e| e.peer)
                    .take(gaps)
                    .collect();
                let filled = !cands.is_empty();
                for c in cands {
                    self.arena.peers[i].connect(c, now_ms);
                    self.arena.peers[c.0 as usize].connect(node, now_ms);
                }
                if !filled {
                    // Underfilled with no known live candidate: a burst
                    // tore the underlay into segments whose endpoints only
                    // know dead peers. Same bootstrap-server fallback as
                    // the isolated case, so segments re-join the overlay
                    // instead of drifting as islands.
                    let connected = self.arena.peers[i].connected().to_vec();
                    if let Some(seed_peer) =
                        alive.iter_alive().find(|&p| p != node && !connected.contains(&p))
                    {
                        self.arena.peers[i].identify(seed_peer, now_ms);
                        self.arena.peers[i].connect(seed_peer, now_ms);
                        self.arena.peers[seed_peer.0 as usize].connect(node, now_ms);
                        self.arena.peers[i].rebootstraps += 1;
                    }
                }
            }
        }
    }

    /// One scored neighbor-swap round: each alive node may evict its
    /// worst-scoring Connected link for its best alive Prospect when the
    /// hysteresis margin clears ([`PeerTable::best_swap`]). Both sides of
    /// each link are updated. Returns the number of swaps performed.
    pub fn swap_round(&mut self) -> usize {
        let now_ms = self.sim.now().millis();
        let alive = self.alive.clone();
        let cfg = self.config.lifecycle;
        let mut swaps = 0;
        for i in 0..self.arena.peers.len() {
            let node = NodeId(i as u32);
            if !alive.get(node) {
                continue;
            }
            let Some((evict, admit)) =
                self.arena.peers[i].best_swap(now_ms, &cfg, |p| p != node && alive.get(p))
            else {
                continue;
            };
            self.arena.peers[i].swap(evict, admit, now_ms);
            self.arena.peers[evict.0 as usize].apply(node, PeerEvent::Demote, now_ms);
            self.arena.peers[admit.0 as usize].connect(node, now_ms);
            self.trace(
                node,
                TraceKind::Swap,
                TransactionId(0),
                Some(admit),
                Some(u64::from(evict.0)),
            );
            swaps += 1;
        }
        swaps
    }

    /// In-flight timers (leak regression surface: fired and superseded
    /// timers must not accumulate).
    pub fn timers_live(&self) -> usize {
        self.timers.live()
    }

    /// High-water mark of concurrently in-flight timers — the slab never
    /// holds more slots than this, however many timers ever fired.
    pub fn timers_high_water(&self) -> usize {
        self.timers.capacity()
    }

    /// Timers ever scheduled since the network was built.
    pub fn timers_scheduled(&self) -> u64 {
        self.timers.scheduled()
    }

    /// The unified metrics registry: per-node hyper-registry counters
    /// (adopted at build time) plus state-size gauges and transport-
    /// overflow/breaker counters refreshed on each call. Per-node gauges
    /// exist only when [`P2pConfig::per_node_metrics`] resolves on;
    /// network-wide `*_total` gauges are always maintained. Render with
    /// [`MetricsRegistry::render_prometheus`] or snapshot with
    /// [`MetricsRegistry::to_json`].
    pub fn metrics(&self) -> &MetricsRegistry {
        let cores = &self.arena.cores;
        for ((gauges, core), trace) in self.node_gauges.iter().zip(cores).zip(&self.arena.traces) {
            let values = [
                core.ledger_streams() as u64,
                core.state_entries() as u64,
                core.txns() as u64,
                core.pending_acks() as u64,
                trace.dropped(),
            ];
            for (gauge, value) in gauges.iter().zip(values) {
                gauge.set(value);
            }
        }
        let sum = |f: fn(&NodeCore) -> u64| cores.iter().map(f).sum::<u64>();
        let peers =
            |state: PeerState| self.arena.peers.iter().map(|p| p.count(state) as u64).sum::<u64>();
        let values = [
            sum(|c| c.ledger_streams() as u64),
            sum(|c| c.state_entries() as u64),
            sum(|c| c.txns() as u64),
            sum(|c| c.pending_acks() as u64),
            self.network_overflows(),
            sum(|c| c.query_cache().parses()),
            sum(|c| c.query_cache().hits()),
            sum(|c| c.query_cache().evictions()),
            sum(|c| c.result_cache().hits()),
            sum(|c| c.result_cache().misses()),
            sum(|c| c.result_cache().evictions()),
            sum(|c| c.result_cache().stale_rejects()),
            sum(|c| c.result_cache().invalidations()),
            sum(|c| c.result_cache().insertions()),
            sum(|c| c.result_cache().len() as u64),
            self.arena.peers.iter().map(|p| p.identified() as u64).sum(),
            peers(PeerState::Pending),
            peers(PeerState::Connected),
            peers(PeerState::Departed),
            self.lifecycle_swaps(),
            self.lifecycle_rebootstraps(),
        ];
        for (gauge, value) in self.totals.iter().zip(values) {
            gauge.set(value);
        }
        &self.metrics
    }

    /// Reassemble the query tree for `txn` from every node's trace ring.
    /// Complete when each participating node's recv→eval→results span
    /// survived in its ring (see [`QueryTrace::is_complete`]).
    pub fn assemble_trace(&self, txn: TransactionId) -> QueryTrace {
        let mut trace = QueryTrace::assemble(txn.0, self.trace_events(txn));
        trace.dropped = self.arena.traces.iter().map(|t| t.dropped()).sum();
        trace
    }

    /// Every node's recorded trace events for `txn`, node by node.
    pub fn trace_events(&self, txn: TransactionId) -> Vec<TraceEvent> {
        self.arena.traces.iter().flat_map(|t| t.for_txn(txn.0)).collect()
    }

    /// Record a hop-level trace event at `node`. Endpoint strings (and the
    /// event itself) are only allocated when tracing is enabled.
    fn trace(
        &mut self,
        node: NodeId,
        kind: TraceKind,
        txn: TransactionId,
        peer: Option<NodeId>,
        items: Option<u64>,
    ) {
        if self.config.trace_capacity == 0 {
            return;
        }
        let at = self.sim.now().millis();
        let mut ev = TraceEvent::new(txn.0, self.endpoints.str(node).to_owned(), kind, at);
        if let Some(p) = peer {
            ev = ev.with_peer(self.endpoints.str(p).to_owned());
        }
        if let Some(count) = items {
            ev = ev.with_items(count);
        }
        self.arena.traces[node.0 as usize].record(ev);
    }

    fn schedule_timer(&mut self, node: NodeId, delay_ms: u64, timer: SimTimer) {
        let tag = self.timers.insert(timer);
        self.sim.schedule(node, delay_ms, tag);
    }

    /// Execute an XQuery from `origin` over the network (servent model).
    pub fn run_query(
        &mut self,
        origin: NodeId,
        query_src: &str,
        scope: Scope,
        mode: ResponseMode,
    ) -> QueryRun {
        self.run_query_lang(origin, query_src, QueryLanguage::XQuery, scope, mode)
    }

    /// Execute a query in an explicit language — UPDF is language-agnostic
    /// (chapter 6): the same overlay machinery carries XQuery or SQL.
    pub fn run_query_lang(
        &mut self,
        origin: NodeId,
        query_src: &str,
        language: QueryLanguage,
        scope: Scope,
        mode: ResponseMode,
    ) -> QueryRun {
        let txn = self.fresh_txn();
        let mut run = RunState::new(origin, txn);
        self.step(&mut run, origin, |core, env| {
            core.originate(env, txn, query_src, language, scope, mode);
        });
        self.pump(&mut run);
        self.finish(run)
    }

    /// Execute a query in the agent model: the agent at `origin` sends the
    /// query directly to every node (radius 0, direct response).
    pub fn run_agent_query(&mut self, origin: NodeId, query_src: &str, scope: Scope) -> QueryRun {
        let txn = self.fresh_txn();
        let mut run = RunState::new(origin, txn);
        let targets = (0..self.topology.len() as u32).map(NodeId).filter(move |&t| t != origin);
        self.step(&mut run, origin, |core, env| {
            core.originate_agent(env, txn, query_src, scope, targets);
        });
        self.pump(&mut run);
        self.finish(run)
    }

    fn fresh_txn(&mut self) -> TransactionId {
        self.txn_counter += 1;
        TransactionId::derive(self.config.seed, self.txn_counter)
    }

    fn finish(&mut self, run: RunState) -> QueryRun {
        let mut metrics = run.metrics;
        metrics.deadline_hit = self.arena.cores[run.origin.0 as usize].finish_run(run.txn);
        // Abandoned subtrees, aborted nodes and forwards an open breaker
        // shed all cost the answer a subtree.
        let lost = metrics.subtrees_abandoned + metrics.node_aborts + metrics.breaker_sheds;
        let completeness = if lost > 0 || metrics.deadline_hit {
            Completeness::Partial { subtrees_lost: lost }
        } else {
            Completeness::Complete
        };
        QueryRun {
            results: run.results,
            metrics,
            finished_at: self.sim.now(),
            completeness,
            transaction: run.txn,
        }
    }

    /// Deterministic timer jitter (decorrelates retransmission storms
    /// without threading an RNG through the engine). Keyed by the count
    /// of timers ever scheduled, which the slab tracks independently of
    /// slot reuse — the same sequence the pre-slab engine produced.
    fn jitter_ms(&mut self) -> u64 {
        let j = self.config.recovery.jitter_ms;
        if j == 0 {
            return 0;
        }
        (self.timers.scheduled().wrapping_mul(0x9e3779b97f4a7c15) >> 33) % (j + 1)
    }
    // ==== the event loop ==================================================

    fn pump(&mut self, run: &mut RunState) {
        const MAX_EVENTS: u64 = 50_000_000;
        let mut events = 0;
        while events < MAX_EVENTS {
            let Some(delivery) = self.sim.next() else { break };
            events += 1;
            match delivery {
                Delivery::Message { from, to, message } => {
                    // Frames addressed to a departed node vanish (crash model).
                    if !self.alive.get(to) {
                        continue;
                    }
                    if to == run.origin {
                        run.metrics.bytes_at_originator += encoded_len(&message);
                    }
                    self.step(run, to, |core, env| core.on_frame(env, from, message));
                }
                Delivery::Timer { node, tag } => {
                    let timer = self.timers.take(tag);
                    // A departed node's timers die with it.
                    if !self.alive.get(node) {
                        continue;
                    }
                    match timer {
                        Some(SimTimer::Eval(txn)) => self.local_eval(run, node, txn),
                        Some(SimTimer::Core(t)) => {
                            self.step(run, node, |core, env| core.on_timer(env, t));
                        }
                        None => {}
                    }
                }
            }
        }
    }

    /// Hand one input to `node`'s core, then turn the actions it emitted
    /// into simulator sends, timers, deliveries and trace records.
    fn step(
        &mut self,
        run: &mut RunState,
        node: NodeId,
        input: impl FnOnce(&mut NodeCore, &mut Env<'_>),
    ) {
        let i = node.0 as usize;
        let mut out = std::mem::take(&mut self.actions);
        let mut env = Env {
            cfg: &self.core,
            node,
            endpoint: self.endpoints.str(node),
            now_ms: self.sim.now().millis(),
            neighbors: self.topology.neighbors(node),
            peers: &mut self.arena.peers[i],
            routing: self.routing_index.as_ref(),
            registry: self.arena.registries[i].peek().map(|r| &**r),
            metrics: &mut run.metrics,
            out: &mut out,
        };
        input(&mut self.arena.cores[i], &mut env);
        for action in out.drain(..) {
            match action {
                Action::Send { to, message } => {
                    let bytes = encoded_len(&message);
                    run.metrics.count_message(message.kind(), bytes);
                    self.sim.send(node, to, message, bytes);
                }
                Action::Schedule { delay_ms, jitter, timer } => {
                    let delay = if jitter { delay_ms + self.jitter_ms() } else { delay_ms };
                    self.schedule_timer(node, delay, SimTimer::Core(timer));
                }
                Action::Evaluate { txn } => {
                    // Local evaluation latency (heterogeneous nodes are slower).
                    let mut delay = self.config.eval_delay_ms.max(1);
                    if self.config.slow_nodes.contains(&node) {
                        delay *= self.config.slow_factor.max(1);
                    }
                    self.schedule_timer(node, delay, SimTimer::Eval(txn));
                }
                Action::Deliver { items } => run.results.extend(items),
                Action::Trace { kind, txn, peer, items } => {
                    self.trace(node, kind, txn, peer, items)
                }
            }
        }
        self.actions = out;
    }

    /// A node's evaluation delay elapsed: run the query against its
    /// registry (materializing a lazy one) and report back to its core.
    fn local_eval(&mut self, run: &mut RunState, node: NodeId, txn: TransactionId) {
        let i = node.0 as usize;
        let Some(job) = self.arena.cores[i].eval_job(txn) else { return };
        let registry = self.arena.registries[i].get(&self.arena.factory, node.0);
        let outcome = evaluate_locally(registry, &job, self.endpoints.str(run.origin));
        self.step(run, node, |core, env| core.on_eval_done(env, txn, outcome));
    }
}

/// The driver's side of one run: what reached the originator.
struct RunState {
    origin: NodeId,
    txn: TransactionId,
    results: Vec<String>,
    metrics: QueryMetrics,
}

impl RunState {
    fn new(origin: NodeId, txn: TransactionId) -> RunState {
        RunState { origin, txn, results: Vec::new(), metrics: QueryMetrics::default() }
    }
}
