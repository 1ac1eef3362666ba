//! The P2P query engine: peer nodes on the discrete-event simulator.
//!
//! Every peer node is a full hyper registry plus a PDP node state table.
//! [`SimNetwork::run_query`] injects a query at an originator node and runs
//! the network to quiescence (or deadline), implementing the chapter-6
//! machinery:
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
//! * per-node runtime state lives in a struct-of-arrays [`NodeArena`]
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
//!   repay a thread fan-out.

use crate::arena::{AliveSet, EndpointTable, TimerSlab};
use crate::breaker::{CircuitBreaker, ForwardDecision};
use crate::lifecycle::{LifecycleConfig, PeerEvent, PeerState, PeerTable};
use crate::metrics::QueryMetrics;
use crate::recovery::{Completeness, RecoveryConfig};
use crate::selection::{NeighborPolicy, NodeKinds, RoutingIndex};
use crate::topology::Topology;

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use wsda_net::model::{ChaosPlan, ChurnConfig, FaultPlan, NetworkModel};
use wsda_net::{Delivery, NodeId, Simulator};
use wsda_obs::{Gauge, MetricsRegistry, QueryTrace, TraceBuffer, TraceEvent, TraceKind};
use wsda_pdp::{
    encoded_len, BeginOutcome, CompiledQuery, Message, NodeStateTable, QueryCache, QueryLanguage,
    ResponseMode, ResultCache, ResultLedger, Scope, Sym, TransactionId,
};
use wsda_registry::admission::{Admission, AdmissionConfig, AdmissionContext};
use wsda_registry::clock::{ManualClock, Time};
use wsda_registry::workload::CorpusGenerator;
use wsda_registry::{
    Freshness, HyperRegistry, PersistenceConfig, QueryPlan, QueryScope, RecoveryReport,
    RegistryConfig, RegistryError,
};

/// Node count at or below which per-node gauges and eager registries
/// default on (the legacy behavior every existing experiment sees).
const PER_NODE_METRICS_AUTO_LIMIT: usize = 512;

/// How nodes bound their waiting (experiment F8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutMode {
    /// The abort budget travels in the scope and shrinks per hop; each node
    /// aborts exactly when its remaining budget lapses.
    DynamicAbort,
    /// Every node uses the same fixed timeout regardless of depth.
    StaticPerNode(u64),
}

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
    /// [`PER_NODE_METRICS_AUTO_LIMIT`] nodes. Per-node metric names
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
    fn corpus_seed(&self, node: u32) -> u64 {
        self.seed ^ (node as u64).wrapping_mul(0x9e37)
    }

    /// Publish node `i`'s synthetic corpus (deterministic in the seed).
    fn populate(&self, registry: &HyperRegistry, node: u32) {
        let mut generator = CorpusGenerator::new(self.corpus_seed(node));
        for _ in 0..self.tuples_per_node {
            let (link, _kind, domain, content) = generator.next_service();
            registry
                .publish(
                    wsda_registry::PublishRequest::new(&link, "service")
                        .with_context(domain)
                        .with_ttl_ms(u64::MAX / 8)
                        .with_content(content),
                )
                .expect("synthetic publish");
        }
    }

    fn materialize(&self, node: u32) -> Arc<HyperRegistry> {
        let registry = Arc::new(HyperRegistry::new(self.config.clone(), self.clock.clone()));
        self.populate(&registry, node);
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
    state: Vec<NodeStateTable>,
    /// Per-transaction runtime info.
    txns: Vec<HashMap<TransactionId, TxnInfo>>,
    /// Received-frame dedup (recovery): replays are acked but not merged.
    ledgers: Vec<ResultLedger>,
    /// Sent-but-unacked `Results` frames keyed by (txn, receiver, seq).
    pending_acks: Vec<HashMap<(TransactionId, NodeId, u64), PendingFrame>>,
    /// Neighbors that exhausted a retry budget; skipped by later forwards.
    suspected: Vec<HashSet<NodeId>>,
    /// Per-neighbor circuit breakers (when enabled these subsume the
    /// permanent `suspected` filter: open breakers shed forwards, and a
    /// half-open probe answered with `Pong` rehabilitates the neighbor).
    breakers: Vec<HashMap<NodeId, CircuitBreaker>>,
    /// Per-node compiled-query cache: one parse per distinct query string,
    /// shared by every hop and retransmission that reaches this node.
    qcaches: Vec<QueryCache>,
    /// Per-node result cache (edge result caching): complete subtree
    /// answers reusable within a query's staleness bound. An idle cache
    /// owns no heap, so 10^5-node arenas pay nothing until queries opt in.
    rcaches: Vec<ResultCache>,
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
}

/// A reliable `Results` frame awaiting its ack.
struct PendingFrame {
    message: Message,
    retries_left: u32,
    backoff_ms: u64,
}

struct TxnInfo {
    query: CompiledQuery,
    /// Shared, not cloned, into watchdog re-queries and referral fetches.
    source: Arc<str>,
    language: QueryLanguage,
    scope: Scope,
    mode: ResponseMode,
    parent: Option<NodeId>,
    /// Buffered result items (store-and-forward routed mode; referral
    /// holding pen awaiting fetch).
    buffer: Vec<String>,
    /// Aborted by a local timeout (late child results are dropped).
    aborted: bool,
    /// Final results already sent toward the parent.
    finalized: bool,
    /// Whether `buffer` contains items that arrived from children (the
    /// relayed-bytes accounting for store-and-forward mode).
    buffer_has_child_items: bool,
    /// Accept-time deadline (arrival + abort budget): the admission gate
    /// sheds or degrades local evaluation against this.
    deadline: Time,
    /// Accumulates this node's complete subtree answer (local + child
    /// items, pipelined or buffered alike) for result-cache population.
    /// Only fed while `cache_ok` holds.
    cache_items: Vec<String>,
    /// May the finished subtree answer be installed in the result cache?
    /// Starts true only for routed queries carrying a nonzero staleness
    /// bound (with caching enabled); falsified by anything that makes the
    /// answer non-representative — aborts, closes, sheds, degraded or
    /// partial evaluation, abandoned subtrees, or child results that were
    /// themselves served from a cache (re-caching second-hand items would
    /// compound staleness past the bound).
    cache_ok: bool,
    /// The local evaluation resolved to a pure index plan (PR 4's cost
    /// signal): a leaf answering that cheaply is not worth caching.
    cache_cheap_plan: bool,
    /// The node forwarded to children, so its answer aggregates a whole
    /// subtree — always worth caching, whatever the local plan cost.
    cache_forwarded: bool,
    /// A child's results arrived cache-served: this node's outgoing final
    /// frame must carry the `cached` provenance flag upward.
    cache_tainted: bool,
    /// Peers whose results are folded into `cache_items` — recorded so a
    /// later departure can purge the entries their data reached.
    cache_sources: Vec<u32>,
    /// When the query arrived here (virtual ms) — the base for the
    /// lifecycle's per-link result-latency observations.
    accepted_at_ms: u64,
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

/// Cached per-node gauge handles — registering names allocates, so it
/// happens once at build time, never inside [`SimNetwork::metrics`].
struct NodeGauges {
    ledger_streams: Gauge,
    state_entries: Gauge,
    txn_info: Gauge,
    pending_acks: Gauge,
    trace_dropped: Gauge,
}

impl NodeGauges {
    fn register(metrics: &MetricsRegistry, i: usize) -> NodeGauges {
        NodeGauges {
            ledger_streams: metrics.gauge(&format!("updf_ledger_streams{{node=\"n{i}\"}}")),
            state_entries: metrics.gauge(&format!("updf_state_entries{{node=\"n{i}\"}}")),
            txn_info: metrics.gauge(&format!("updf_txn_info{{node=\"n{i}\"}}")),
            pending_acks: metrics.gauge(&format!("updf_pending_acks{{node=\"n{i}\"}}")),
            trace_dropped: metrics.gauge(&format!("updf_trace_dropped{{node=\"n{i}\"}}")),
        }
    }
}

/// Network-wide gauges, maintained at every scale.
struct TotalGauges {
    ledger_streams: Gauge,
    state_entries: Gauge,
    txn_info: Gauge,
    pending_acks: Gauge,
    overflowed: Gauge,
    qcache_parses: Gauge,
    qcache_hits: Gauge,
    qcache_evictions: Gauge,
    rcache_hits: Gauge,
    rcache_misses: Gauge,
    rcache_evictions: Gauge,
    rcache_stale_rejects: Gauge,
    rcache_invalidations: Gauge,
    rcache_entries: Gauge,
    peers_identified: Gauge,
    peers_pending: Gauge,
    peers_connected: Gauge,
    peers_departed: Gauge,
    swaps: Gauge,
    rebootstraps: Gauge,
}

impl TotalGauges {
    fn register(metrics: &MetricsRegistry) -> TotalGauges {
        TotalGauges {
            ledger_streams: metrics.gauge("updf_ledger_streams_total"),
            state_entries: metrics.gauge("updf_state_entries_total"),
            txn_info: metrics.gauge("updf_txn_info_total"),
            pending_acks: metrics.gauge("updf_pending_acks_total"),
            overflowed: metrics.gauge("sim_messages_overflowed"),
            qcache_parses: metrics.gauge("updf_query_cache_parses_total"),
            qcache_hits: metrics.gauge("updf_query_cache_hits_total"),
            qcache_evictions: metrics.gauge("updf_query_cache_evictions_total"),
            rcache_hits: metrics.gauge("updf_result_cache_hits_total"),
            rcache_misses: metrics.gauge("updf_result_cache_misses_total"),
            rcache_evictions: metrics.gauge("updf_result_cache_evictions_total"),
            rcache_stale_rejects: metrics.gauge("updf_result_cache_stale_rejects_total"),
            rcache_invalidations: metrics.gauge("updf_result_cache_invalidations_total"),
            rcache_entries: metrics.gauge("updf_result_cache_entries_total"),
            peers_identified: metrics.gauge("updf_peers_identified_total"),
            peers_pending: metrics.gauge("updf_peers_pending_total"),
            peers_connected: metrics.gauge("updf_peers_connected_total"),
            peers_departed: metrics.gauge("updf_peers_departed_total"),
            swaps: metrics.gauge("updf_swaps_total"),
            rebootstraps: metrics.gauge("updf_rebootstraps_total"),
        }
    }
}

/// A P2P network of hyper-registry nodes on the discrete-event simulator.
pub struct SimNetwork {
    topology: Topology,
    sim: Simulator<Message>,
    arena: NodeArena,
    node_kinds: NodeKinds,
    config: P2pConfig,
    /// `None` when disabled ([`P2pConfig::build_routing_index`]);
    /// `hint:` policies then flood.
    routing_index: Option<RoutingIndex>,
    /// All node endpoint strings in one shared buffer.
    endpoints: EndpointTable,
    /// In-flight timers; slots recycle as timers fire.
    timers: TimerSlab<TimerEvent>,
    /// Churn membership: frames to (and timers at) dead nodes vanish.
    alive: AliveSet,
    /// Soft-state churn intervals elapsed (the churn schedule's tick).
    churn_ticks: u64,
    txn_counter: u64,
    metrics: MetricsRegistry,
    /// Empty unless per-node metrics are enabled.
    node_gauges: Vec<NodeGauges>,
    totals: TotalGauges,
}

#[derive(Debug, Clone, Copy)]
enum TimerEvent {
    LocalEvalDone {
        node: NodeId,
        txn: TransactionId,
    },
    NodeAbort {
        node: NodeId,
        txn: TransactionId,
    },
    OriginDeadline {
        txn: TransactionId,
    },
    /// Retransmit an unacked `Results` frame (recovery).
    RetryResults {
        node: NodeId,
        txn: TransactionId,
        to: NodeId,
        seq: u64,
    },
    /// Check forwarded subtrees for liveness; `attempt` 0 re-queries,
    /// later attempts abandon (recovery).
    ChildWatchdog {
        node: NodeId,
        txn: TransactionId,
        attempt: u32,
    },
}

fn parse_endpoint(e: &str) -> Option<NodeId> {
    e.strip_prefix('n').and_then(|s| s.parse().ok()).map(NodeId)
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
            sim.set_inbox_capacity(cap, |m| matches!(m, Message::Query { .. }));
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
            let mut generator = CorpusGenerator::new(factory.corpus_seed(node_u32));
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
                    factory.populate(&registry, node_u32);
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
                node_gauges.push(NodeGauges::register(&metrics, i));
            }
        }
        let totals = TotalGauges::register(&metrics);
        let routing_index = config
            .build_routing_index
            .then(|| RoutingIndex::build(&topology, &node_kinds, config.routing_horizon));
        let arena = NodeArena {
            factory,
            registries,
            state: (0..n).map(|_| NodeStateTable::new()).collect(),
            txns: (0..n).map(|_| HashMap::new()).collect(),
            ledgers: (0..n).map(|_| ResultLedger::new()).collect(),
            pending_acks: (0..n).map(|_| HashMap::new()).collect(),
            suspected: (0..n).map(|_| HashSet::new()).collect(),
            breakers: (0..n).map(|_| HashMap::new()).collect(),
            qcaches: (0..n).map(|_| QueryCache::default()).collect(),
            rcaches: (0..n)
                .map(|_| ResultCache::new(config.result_cache_capacity, config.result_cache_ttl_ms))
                .collect(),
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
        SimNetwork {
            endpoints: EndpointTable::new(n),
            topology,
            sim,
            arena,
            node_kinds,
            config,
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
                wsda_registry::PublishRequest::new(link, "service")
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
    /// every piece of P2P runtime state — state table, result ledger,
    /// pending acks, breakers, compiled-query cache, trace ring — is
    /// reset, exactly what a real restart would lose.
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
        self.arena.state[i] = NodeStateTable::new();
        self.arena.txns[i] = HashMap::new();
        self.arena.ledgers[i] = ResultLedger::new();
        self.arena.pending_acks[i] = HashMap::new();
        self.arena.suspected[i] = HashSet::new();
        self.arena.breakers[i] = HashMap::new();
        self.arena.qcaches[i] = QueryCache::default();
        self.arena.rcaches[i] =
            ResultCache::new(self.config.result_cache_capacity, self.config.result_cache_ttl_ms);
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

    /// Total query compilations across all nodes' caches. The parse-once
    /// tests assert this stays flat across repeated runs, extra hops and
    /// retransmissions of the same query string.
    pub fn query_parses(&self) -> u64 {
        self.arena.qcaches.iter().map(|c| c.parses()).sum()
    }

    /// Total compiled-query cache hits across all nodes.
    pub fn query_cache_hits(&self) -> u64 {
        self.arena.qcaches.iter().map(|c| c.hits()).sum()
    }

    /// Total compiled-query cache LRU evictions across all nodes.
    pub fn query_cache_evictions(&self) -> u64 {
        self.arena.qcaches.iter().map(|c| c.evictions()).sum()
    }

    /// Total result-cache hits (queries answered without evaluation or
    /// forwarding) across all nodes.
    pub fn result_cache_hits(&self) -> u64 {
        self.arena.rcaches.iter().map(|c| c.hits()).sum()
    }

    /// Total result-cache misses across all nodes.
    pub fn result_cache_misses(&self) -> u64 {
        self.arena.rcaches.iter().map(|c| c.misses()).sum()
    }

    /// Total result-cache LRU evictions across all nodes.
    pub fn result_cache_evictions(&self) -> u64 {
        self.arena.rcaches.iter().map(|c| c.evictions()).sum()
    }

    /// Total result-cache entries rejected for exceeding a freshness
    /// bound (TTL, origin bound, or the requester's staleness bound).
    pub fn result_cache_stale_rejects(&self) -> u64 {
        self.arena.rcaches.iter().map(|c| c.stale_rejects()).sum()
    }

    /// Total result-cache entries dropped because the local registry
    /// mutated since they were installed.
    pub fn result_cache_invalidations(&self) -> u64 {
        self.arena.rcaches.iter().map(|c| c.invalidations()).sum()
    }

    /// Total result-cache insertions across all nodes.
    pub fn result_cache_insertions(&self) -> u64 {
        self.arena.rcaches.iter().map(|c| c.insertions()).sum()
    }

    /// Live result-cache entries across all nodes (leak regression
    /// surface: bounded by `nodes × result_cache_capacity`).
    pub fn result_cache_entries(&self) -> usize {
        self.arena.rcaches.iter().map(|c| c.len()).sum()
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
                    self.peer_departed(a, node, now_ms);
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
        self.arena.state[i] = NodeStateTable::new();
        self.arena.txns[i] = HashMap::new();
        self.arena.ledgers[i] = ResultLedger::new();
        self.arena.pending_acks[i] = HashMap::new();
        self.arena.suspected[i] = HashSet::new();
        self.arena.breakers[i] = HashMap::new();
        self.arena.qcaches[i] = QueryCache::default();
        self.arena.rcaches[i] =
            ResultCache::new(self.config.result_cache_capacity, self.config.result_cache_ttl_ms);
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
                self.peer_departed(node, d, now_ms);
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

    /// `at` learns that `gone` departed: lifecycle transition plus the
    /// per-peer state sweep — cached results folded from the peer, result
    /// streams it sent, frames awaiting its ack, suspicion and breaker
    /// history all go with it.
    fn peer_departed(&mut self, at: NodeId, gone: NodeId, now_ms: u64) {
        let i = at.0 as usize;
        if self.arena.peers[i].depart(gone, now_ms) {
            self.arena.rcaches[i].purge_source(gone.0);
            self.arena.ledgers[i].forget_sender(Sym(gone.0));
            self.arena.pending_acks[i].retain(|(_, to, _), _| *to != gone);
            self.arena.suspected[i].remove(&gone);
            self.arena.breakers[i].remove(&gone);
        }
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
        for (i, g) in self.node_gauges.iter().enumerate() {
            g.ledger_streams.set(self.arena.ledgers[i].streams() as u64);
            g.state_entries.set(self.arena.state[i].len() as u64);
            g.txn_info.set(self.arena.txns[i].len() as u64);
            g.pending_acks.set(self.arena.pending_acks[i].len() as u64);
            g.trace_dropped.set(self.arena.traces[i].dropped());
        }
        self.totals.ledger_streams.set(self.arena.ledgers.iter().map(|l| l.streams() as u64).sum());
        self.totals.state_entries.set(self.arena.state.iter().map(|s| s.len() as u64).sum());
        self.totals.txn_info.set(self.arena.txns.iter().map(|t| t.len() as u64).sum());
        self.totals.pending_acks.set(self.arena.pending_acks.iter().map(|p| p.len() as u64).sum());
        self.totals.overflowed.set(self.network_overflows());
        self.totals.qcache_parses.set(self.query_parses());
        self.totals.qcache_hits.set(self.query_cache_hits());
        self.totals.qcache_evictions.set(self.query_cache_evictions());
        self.totals.rcache_hits.set(self.result_cache_hits());
        self.totals.rcache_misses.set(self.result_cache_misses());
        self.totals.rcache_evictions.set(self.result_cache_evictions());
        self.totals.rcache_stale_rejects.set(self.result_cache_stale_rejects());
        self.totals.rcache_invalidations.set(self.result_cache_invalidations());
        self.totals.rcache_entries.set(self.result_cache_entries() as u64);
        let (mut idf, mut pnd, mut con, mut dep) = (0u64, 0u64, 0u64, 0u64);
        for p in &self.arena.peers {
            idf += p.identified() as u64;
            pnd += p.count(PeerState::Pending) as u64;
            con += p.count(PeerState::Connected) as u64;
            dep += p.count(PeerState::Departed) as u64;
        }
        self.totals.peers_identified.set(idf);
        self.totals.peers_pending.set(pnd);
        self.totals.peers_connected.set(con);
        self.totals.peers_departed.set(dep);
        self.totals.swaps.set(self.lifecycle_swaps());
        self.totals.rebootstraps.set(self.lifecycle_rebootstraps());
        &self.metrics
    }

    /// Reassemble the query tree for `txn` from every node's trace ring.
    /// Complete when each participating node's recv→eval→results span
    /// survived in its ring (see [`QueryTrace::is_complete`]).
    pub fn assemble_trace(&self, txn: TransactionId) -> QueryTrace {
        let events =
            self.arena.traces.iter().flat_map(|t| t.for_txn(txn.0)).collect::<Vec<TraceEvent>>();
        let mut trace = QueryTrace::assemble(txn.0, events);
        trace.dropped = self.arena.traces.iter().map(|t| t.dropped()).sum();
        trace
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

    fn schedule_timer(&mut self, node: NodeId, delay_ms: u64, ev: TimerEvent) {
        let tag = self.timers.insert(ev);
        self.sim.schedule(node, delay_ms, tag);
    }

    fn send(&mut self, metrics: &mut QueryMetrics, from: NodeId, to: NodeId, msg: Message) {
        let bytes = encoded_len(&msg);
        metrics.count_message(msg.kind(), bytes);
        self.sim.send(from, to, msg, bytes);
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
        let mut run = RunState::new(origin, txn, scope.max_results);
        // Origin deadline mirrors the scope's abort budget.
        self.schedule_timer(origin, scope.abort_timeout_ms, TimerEvent::OriginDeadline { txn });
        self.accept_query(&mut run, origin, None, query_src, language, scope, mode);
        self.pump(&mut run);
        self.finish(run)
    }

    /// Execute a query in the agent model: the agent at `origin` sends the
    /// query directly to every node (radius 0, direct response).
    pub fn run_agent_query(&mut self, origin: NodeId, query_src: &str, scope: Scope) -> QueryRun {
        let txn = self.fresh_txn();
        let mut run = RunState::new(origin, txn, scope.max_results);
        self.schedule_timer(origin, scope.abort_timeout_ms, TimerEvent::OriginDeadline { txn });
        let mode = ResponseMode::Direct { originator: self.endpoints.str(origin).to_owned() };
        // The agent's own registry participates too.
        let local_scope = Scope { radius: Some(0), ..scope.clone() };
        self.accept_query(
            &mut run,
            origin,
            None,
            query_src,
            QueryLanguage::XQuery,
            local_scope.clone(),
            mode.clone(),
        );
        for i in 0..self.topology.len() as u32 {
            let target = NodeId(i);
            if target == origin {
                continue;
            }
            let msg = Message::Query {
                transaction: txn,
                query: query_src.to_owned(),
                language: QueryLanguage::XQuery,
                scope: local_scope.clone(),
                response_mode: mode.clone(),
            };
            self.arena.state[origin.0 as usize].add_child(&txn, Sym(target.0));
            let mut m = std::mem::take(&mut run.metrics);
            self.send(&mut m, origin, target, msg);
            run.metrics = m;
        }
        if self.config.recovery.enabled && self.topology.len() > 1 {
            let delay = self.config.recovery.watchdog_timeout_ms + self.jitter_ms();
            self.schedule_timer(
                origin,
                delay,
                TimerEvent::ChildWatchdog { node: origin, txn, attempt: 0 },
            );
        }
        self.pump(&mut run);
        self.finish(run)
    }

    fn fresh_txn(&mut self) -> TransactionId {
        self.txn_counter += 1;
        TransactionId::derive(self.config.seed, self.txn_counter)
    }

    fn finish(&mut self, run: RunState) -> QueryRun {
        let mut metrics = run.metrics;
        metrics.deadline_hit = run.deadline_hit;
        let lost = metrics.subtrees_abandoned + metrics.node_aborts;
        let completeness = if lost > 0 || run.deadline_hit {
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
                    self.on_message(run, from, to, message);
                }
                Delivery::Timer { node, tag } => {
                    // A departed node's timers die with it.
                    if !self.alive.get(node) {
                        let _ = self.timers.take(tag);
                        continue;
                    }
                    if let Some(ev) = self.timers.take(tag) {
                        self.on_timer(run, ev);
                    }
                }
            }
        }
    }

    fn on_message(&mut self, run: &mut RunState, from: NodeId, to: NodeId, message: Message) {
        // Frames addressed to a departed node vanish (crash model).
        if !self.alive.get(to) {
            return;
        }
        let bytes = encoded_len(&message);
        if to == run.origin {
            run.metrics.bytes_at_originator += bytes;
        }
        // Any frame from a peer is proof of life: clear standing suspicion
        // and move an open breaker to half-open, probing immediately, so a
        // rejoined or restarted peer is re-probed promptly instead of
        // waiting out the open window.
        self.arena.suspected[to.0 as usize].remove(&from);
        let now_ms = self.sim.now().millis();
        let probe = self.arena.breakers[to.0 as usize]
            .get_mut(&from)
            .is_some_and(|b| b.note_contact(now_ms));
        if probe {
            run.metrics.breaker_probes += 1;
            let mut m = std::mem::take(&mut run.metrics);
            self.send(&mut m, to, from, Message::Ping);
            run.metrics = m;
        }
        match message {
            Message::Query { transaction, query, language, scope, response_mode } => {
                self.accept_query(run, to, Some(from), &query, language, scope, response_mode);
                let _ = transaction;
            }
            Message::Results { transaction, seq, items, last, origin, cached } => {
                self.on_results(run, from, to, transaction, seq, items, last, origin, cached);
            }
            Message::Ack { transaction, seq } => {
                self.arena.pending_acks[to.0 as usize].remove(&(transaction, from, seq));
                self.trace(to, TraceKind::Ack, transaction, Some(from), None);
                self.breaker_success(to, from);
            }
            Message::Error { transaction, origin, reason } => {
                self.on_error(run, to, transaction, origin, reason);
            }
            Message::Invite { transaction, node, expected } => {
                self.on_invite(run, to, transaction, node, expected);
            }
            Message::Close { transaction } => {
                self.on_close(run, to, transaction);
            }
            Message::Ping => {
                let mut m = std::mem::take(&mut run.metrics);
                self.send(&mut m, to, from, Message::Pong);
                run.metrics = m;
            }
            Message::Pong => {
                // The half-open probe answered: the neighbor is back.
                self.breaker_success(to, from);
                self.arena.suspected[to.0 as usize].remove(&from);
            }
        }
    }

    /// Consult (creating on demand) `node`'s breaker for `neighbor`.
    fn breaker_decide(&mut self, node: NodeId, neighbor: NodeId, now_ms: u64) -> ForwardDecision {
        let cfg = self.config.recovery.breaker;
        self.arena.breakers[node.0 as usize]
            .entry(neighbor)
            .or_insert_with(|| CircuitBreaker::new(cfg))
            .decide(now_ms)
    }

    /// Record a send/ack failure toward `neighbor`; true when it tripped.
    fn breaker_failure(&mut self, node: NodeId, neighbor: NodeId, now_ms: u64) -> bool {
        let cfg = self.config.recovery.breaker;
        self.arena.breakers[node.0 as usize]
            .entry(neighbor)
            .or_insert_with(|| CircuitBreaker::new(cfg))
            .record_failure(now_ms)
    }

    /// Record proof of life from `neighbor` (ack or pong).
    fn breaker_success(&mut self, node: NodeId, neighbor: NodeId) {
        if let Some(b) = self.arena.breakers[node.0 as usize].get_mut(&neighbor) {
            b.record_success();
        }
    }

    /// A query arrives at `node` (from `parent`, or injected when `None`).
    #[allow(clippy::too_many_arguments)]
    fn accept_query(
        &mut self,
        run: &mut RunState,
        node: NodeId,
        parent: Option<NodeId>,
        query_src: &str,
        language: QueryLanguage,
        scope: Scope,
        mode: ResponseMode,
    ) {
        let txn = run.txn;
        let now = self.sim.now();
        let node_idx = node.0 as usize;
        // Retire state whose static loop timeout lapsed — the state-table
        // entry AND the per-transaction satellites (result ledger, txn
        // info, pending retransmissions), which previously outlived it and
        // leaked across transactions.
        for expired in self.arena.state[node_idx].sweep_expired(now) {
            self.arena.ledgers[node_idx].forget(expired);
            self.arena.txns[node_idx].remove(&expired);
            self.arena.pending_acks[node_idx].retain(|(t, _, _), _| *t != expired);
        }
        let parent_sym = parent.map(|p| Sym(p.0));
        let outcome = self.arena.state[node_idx].begin(txn, parent_sym, now, scope.loop_timeout_ms);
        if outcome == BeginOutcome::Duplicate {
            run.metrics.duplicates_suppressed += 1;
            // Referral fetch: a radius-0 direct query for a transaction we
            // hold a referral buffer for means "send me your items".
            let is_fetch = scope.radius == Some(0) && matches!(mode, ResponseMode::Direct { .. });
            if is_fetch {
                if let Some(info) = self.arena.txns[node_idx].get_mut(&txn) {
                    if !info.buffer.is_empty() {
                        let items = std::mem::take(&mut info.buffer);
                        let origin = run.origin;
                        let node_ep = self.endpoints.str(node).to_owned();
                        self.send_results_to(
                            run, node, origin, txn, items, true, node_ep, false, false,
                        );
                        return;
                    }
                }
            }
            // A replay from the recorded parent (network duplication, or a
            // watchdog re-query while we are still working) must be dropped
            // silently: a prune ack here would mark a live subtree as done.
            // A duplicate from any other sender is a cross-path arrival and
            // gets a prune ack so that forwarder never waits on us.
            let from_recorded_parent = self.arena.state[node_idx]
                .get(&txn)
                .is_some_and(|s| s.parent.is_some() && s.parent == parent_sym);
            if let Some(p) = parent {
                if !from_recorded_parent {
                    let node_ep = self.endpoints.str(node).to_owned();
                    self.send_results_to(
                        run,
                        node,
                        p,
                        txn,
                        Vec::new(),
                        true,
                        node_ep,
                        false,
                        false,
                    );
                }
            }
            return;
        }

        self.trace(node, TraceKind::Recv, txn, parent, None);

        // Edge result cache: a routed query carrying a nonzero staleness
        // bound may be answered from this node's cache — the node replies
        // with the complete subtree answer it produced for the same query
        // at an equal-or-wider radius, and the downstream flood never
        // happens. The lookup enforces the requester's bound, the
        // populating query's bound, the cache TTL and the registry
        // mutation epoch, so a served answer is always one the requester
        // declared acceptable and the local registry has not moved past.
        let cacheable = self.config.result_cache
            && scope.result_staleness_ms > 0
            && matches!(mode, ResponseMode::Routed);
        if cacheable {
            let epoch =
                self.arena.registries[node_idx].peek().map(|r| r.mutation_epoch()).unwrap_or(0);
            let hit = self.arena.rcaches[node_idx].lookup(
                query_src,
                language,
                scope.radius,
                now.millis(),
                scope.result_staleness_ms,
                epoch,
            );
            if let Some(items) = hit {
                let items: Vec<String> = items.to_vec();
                run.metrics.cache_served += 1;
                self.trace(node, TraceKind::CacheServed, txn, None, Some(items.len() as u64));
                // No evaluation, no forwards: the subtree is complete now.
                self.arena.state[node_idx].local_done(&txn);
                match parent {
                    Some(p) => {
                        let node_ep = self.endpoints.str(node).to_owned();
                        self.send_results_to(run, node, p, txn, items, true, node_ep, false, true);
                    }
                    None => {
                        run.saw_cached = true;
                        self.deliver(run, items);
                        self.complete_at_origin(run);
                    }
                }
                return;
            }
        }

        // Fresh transaction at this node: compile through the node's own
        // query cache, so repeats of the same query string (later runs,
        // retransmitted frames, watchdog re-queries) never re-parse.
        let parsed = self.arena.qcaches[node_idx].get_or_compile(query_src, language);
        let deadline = match self.config.timeout_mode {
            TimeoutMode::DynamicAbort => now.plus(scope.abort_timeout_ms),
            TimeoutMode::StaticPerNode(t) => now.plus(t),
        };
        self.arena.txns[node_idx].insert(
            txn,
            TxnInfo {
                query: parsed,
                source: Arc::from(query_src),
                language,
                scope: scope.clone(),
                mode: mode.clone(),
                parent,
                buffer: Vec::new(),
                aborted: false,
                finalized: false,
                buffer_has_child_items: false,
                deadline,
                cache_items: Vec::new(),
                cache_ok: cacheable,
                cache_cheap_plan: false,
                cache_forwarded: false,
                cache_tainted: false,
                cache_sources: Vec::new(),
                accepted_at_ms: now.millis(),
            },
        );

        // Local evaluation latency (heterogeneous nodes are slower).
        let mut eval_delay = self.config.eval_delay_ms.max(1);
        if self.config.slow_nodes.contains(&node) {
            eval_delay *= self.config.slow_factor.max(1);
        }
        self.schedule_timer(node, eval_delay, TimerEvent::LocalEvalDone { node, txn });

        // Per-node abort timer.
        match self.config.timeout_mode {
            TimeoutMode::DynamicAbort => {
                self.schedule_timer(
                    node,
                    scope.abort_timeout_ms,
                    TimerEvent::NodeAbort { node, txn },
                );
            }
            TimeoutMode::StaticPerNode(t) => {
                self.schedule_timer(node, t, TimerEvent::NodeAbort { node, txn });
            }
        }

        // Forwarding within scope.
        let Some(forwarded_scope) = scope.forwarded(self.config.hop_cost_ms) else {
            run.metrics.scope_prunes += 1;
            return;
        };
        let policy = NeighborPolicy::parse(&scope.neighbor_policy);
        // With breakers enabled they subsume the permanent `suspected`
        // filter: an open breaker sheds, and a later probe can rehabilitate
        // the neighbor; suspicion alone never forgives.
        let breaker_on = self.config.recovery.breaker.enabled;
        let lifecycle_on = self.config.lifecycle.enabled;
        // With the lifecycle on, forwarding runs over the node's dynamic
        // Connected set; at zero churn that set is exactly the sorted
        // underlay neighbor list, so both paths emit identical forwards.
        let neighbor_src: &[NodeId] = if lifecycle_on {
            self.arena.peers[node_idx].connected()
        } else {
            self.topology.neighbors(node)
        };
        let candidates: Vec<NodeId> = neighbor_src
            .iter()
            .copied()
            .filter(|&c| Some(c) != parent)
            .filter(|c| breaker_on || !self.arena.suspected[node_idx].contains(c))
            .collect();
        let targets = policy.select(&candidates, node, txn, self.routing_index.as_ref());
        let mut forwarded_any = false;
        for target in targets {
            if breaker_on {
                match self.breaker_decide(node, target, now.millis()) {
                    ForwardDecision::Forward => {}
                    ForwardDecision::Shed => {
                        run.metrics.breaker_sheds += 1;
                        continue;
                    }
                    ForwardDecision::ShedAndProbe => {
                        run.metrics.breaker_sheds += 1;
                        run.metrics.breaker_probes += 1;
                        let mut m = std::mem::take(&mut run.metrics);
                        self.send(&mut m, node, target, Message::Ping);
                        run.metrics = m;
                        continue;
                    }
                }
            }
            forwarded_any = true;
            if lifecycle_on {
                self.arena.peers[node_idx].note_forward(target);
            }
            self.arena.state[node_idx].add_child(&txn, Sym(target.0));
            self.trace(node, TraceKind::Forward, txn, Some(target), None);
            let msg = Message::Query {
                transaction: txn,
                query: query_src.to_owned(),
                language,
                scope: forwarded_scope.clone(),
                response_mode: mode.clone(),
            };
            let mut m = std::mem::take(&mut run.metrics);
            self.send(&mut m, node, target, msg);
            run.metrics = m;
        }
        if forwarded_any {
            if let Some(info) = self.arena.txns[node_idx].get_mut(&txn) {
                info.cache_forwarded = true;
            }
        }
        if forwarded_any && self.config.recovery.enabled {
            let delay = self.config.recovery.watchdog_timeout_ms + self.jitter_ms();
            self.schedule_timer(node, delay, TimerEvent::ChildWatchdog { node, txn, attempt: 0 });
        }
    }

    fn on_timer(&mut self, run: &mut RunState, ev: TimerEvent) {
        match ev {
            TimerEvent::LocalEvalDone { node, txn } => self.local_eval(run, node, txn),
            TimerEvent::NodeAbort { node, txn } => self.node_abort(run, node, txn),
            TimerEvent::OriginDeadline { txn } => {
                // The timer always fires eventually (the queue drains);
                // only a deadline *before* completion is a deadline hit.
                if run.txn == txn && !run.closed && run.metrics.time_completed.is_none() {
                    run.closed = true;
                    run.deadline_hit = true;
                    self.broadcast_close(run, run.origin, txn);
                }
            }
            TimerEvent::RetryResults { node, txn, to, seq } => {
                self.retry_results(run, node, txn, to, seq);
            }
            TimerEvent::ChildWatchdog { node, txn, attempt } => {
                self.child_watchdog(run, node, txn, attempt);
            }
        }
    }

    /// A node's local evaluation finished: run the query against its
    /// registry, then stream, buffer or invite the answer per response
    /// mode and finalize the node if no children are outstanding.
    fn local_eval(&mut self, run: &mut RunState, node: NodeId, txn: TransactionId) {
        let node_idx = node.0 as usize;
        let Some(info) = self.arena.txns[node_idx].get_mut(&txn) else { return };
        if info.aborted {
            return;
        }
        run.metrics.nodes_evaluated += 1;
        let registry = self.arena.registries[node_idx].get(&self.arena.factory, node.0);
        // Shed or partial evaluations are not the query's answer; caching
        // them would replay the degradation for the whole staleness window.
        let mut answered = true;
        let mut cheap_plan = false;
        let items: Vec<String> = match &info.query {
            CompiledQuery::XQuery(q) => {
                // With the node registry's admission gate enabled, local
                // evaluation is metered against the transaction's remaining
                // abort budget: a lapsed hop degrades or sheds (counted)
                // instead of scanning into a dead answer.
                let outcome = if registry.config().admission.enabled {
                    let ctx = AdmissionContext::for_client(self.endpoints.str(run.origin))
                        .with_deadline(info.deadline);
                    match registry.query_admitted(q, &Freshness::any(), &QueryScope::all(), &ctx) {
                        Ok(Admission::Answered(o)) => Some(o),
                        Ok(Admission::Shed { .. }) => {
                            run.metrics.local_evals_shed += 1;
                            answered = false;
                            None
                        }
                        Err(_) => None,
                    }
                } else {
                    registry.query(q, &Freshness::any()).ok()
                };
                match outcome {
                    Some(o) => {
                        run.metrics.record_plan(o.stats.plan);
                        cheap_plan = o.stats.plan == QueryPlan::Index;
                        if !o.completeness.is_complete() {
                            run.metrics.local_evals_degraded += 1;
                            answered = false;
                        }
                        o.results.iter().map(wsda_xq::Item::serialize).collect()
                    }
                    None => Vec::new(),
                }
            }
            CompiledQuery::Sql(q) => {
                wsda_registry::sql::SqlQuery::rows_to_xml(&registry.query_sql(q))
                    .iter()
                    .map(|e| e.to_compact_string())
                    .collect()
            }
        };
        if !answered {
            info.cache_ok = false;
        } else {
            info.cache_cheap_plan = cheap_plan;
            if info.cache_ok {
                info.cache_items.extend(items.iter().cloned());
            }
        }
        let (mode, pipeline, parent) = (info.mode.clone(), info.scope.pipeline, info.parent);

        self.trace(node, TraceKind::Eval, txn, None, Some(items.len() as u64));
        let complete = self.arena.state[node_idx].local_done(&txn);

        if node == run.origin && parent.is_none() {
            // Originator's own results are delivered immediately.
            self.deliver(run, items);
            if complete {
                self.complete_at_origin(run);
            }
            return;
        }

        match mode {
            ResponseMode::Routed => {
                if pipeline && !items.is_empty() && !complete {
                    let node_ep = self.endpoints.str(node).to_owned();
                    self.send_results(run, node, parent, txn, items, false, node_ep, false, false);
                } else {
                    let info = self.arena.txns[node_idx].get_mut(&txn).expect("live txn");
                    info.buffer.extend(items);
                }
            }
            ResponseMode::Direct { ref originator } => {
                if !items.is_empty() {
                    if let Some(target) = parse_endpoint(originator) {
                        let node_ep = self.endpoints.str(node).to_owned();
                        self.send_results_to(
                            run, node, target, txn, items, true, node_ep, false, false,
                        );
                    }
                }
            }
            ResponseMode::Referral => {
                if !items.is_empty() {
                    let expected = items.len() as u64;
                    let info = self.arena.txns[node_idx].get_mut(&txn).expect("live txn");
                    info.buffer = items;
                    if let Some(p) = parent {
                        let node_ep = self.endpoints.str(node).to_owned();
                        let msg = Message::Invite { transaction: txn, node: node_ep, expected };
                        let mut m = std::mem::take(&mut run.metrics);
                        self.send(&mut m, node, p, msg);
                        run.metrics = m;
                    }
                }
            }
        }
        if complete {
            self.finalize_node(run, node, txn);
        }
    }

    /// Send buffered + final results toward the parent; a cleanly
    /// completed, cache-worthy subtree answer is installed in the node's
    /// result cache on the way out.
    fn finalize_node(&mut self, run: &mut RunState, node: NodeId, txn: TransactionId) {
        let node_idx = node.0 as usize;
        let Some(info) = self.arena.txns[node_idx].get_mut(&txn) else { return };
        if info.finalized {
            return;
        }
        info.finalized = true;
        let parent = info.parent;
        let mode = info.mode.clone();
        let relayed = info.buffer_has_child_items;
        let tainted = info.cache_tainted;
        let items = if matches!(mode, ResponseMode::Routed) {
            std::mem::take(&mut info.buffer)
        } else {
            Vec::new() // direct/referral finals are pure completion acks
        };
        // Admission-aware population (the originator's copy is installed
        // by `complete_at_origin` from the delivered set instead): a
        // forwarding node's answer aggregates a whole subtree and is
        // always worth keeping; a leaf that answered from a pure index
        // plan re-evaluates cheaply and is not.
        let populate =
            parent.is_some() && info.cache_ok && (info.cache_forwarded || !info.cache_cheap_plan);
        let pop = populate.then(|| {
            (
                Arc::clone(&info.source),
                info.language,
                info.scope.radius,
                info.scope.result_staleness_ms,
                std::mem::take(&mut info.cache_items),
                std::mem::take(&mut info.cache_sources),
            )
        });
        if let Some((src, language, radius, bound, cache_items, sources)) = pop {
            let now_ms = self.sim.now().millis();
            let epoch =
                self.arena.registries[node_idx].peek().map(|r| r.mutation_epoch()).unwrap_or(0);
            self.arena.rcaches[node_idx].insert(
                &src,
                language,
                radius,
                cache_items,
                now_ms,
                bound,
                epoch,
                &sources,
            );
            run.metrics.cache_populated += 1;
        }
        match parent {
            Some(p) => {
                let node_ep = self.endpoints.str(node).to_owned();
                self.send_results(run, node, Some(p), txn, items, true, node_ep, relayed, tainted);
            }
            None => {
                // Originator finishing its subtree.
                self.deliver(run, items);
                self.complete_at_origin(run);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_results(
        &mut self,
        run: &mut RunState,
        node: NodeId,
        parent: Option<NodeId>,
        txn: TransactionId,
        items: Vec<String>,
        last: bool,
        origin_ep: String,
        relayed: bool,
        cached: bool,
    ) {
        let Some(p) = parent else { return };
        self.send_results_to(run, node, p, txn, items, last, origin_ep, relayed, cached);
    }

    /// Send a `Results` frame from `from` to `to`, allocating the
    /// per-transaction sequence number; with recovery on, the frame is
    /// tracked for retransmission until acked.
    #[allow(clippy::too_many_arguments)]
    fn send_results_to(
        &mut self,
        run: &mut RunState,
        from: NodeId,
        to: NodeId,
        txn: TransactionId,
        items: Vec<String>,
        last: bool,
        origin_ep: String,
        relayed: bool,
        cached: bool,
    ) {
        let from_idx = from.0 as usize;
        let seq = self.arena.state[from_idx].get_mut(&txn).map(|s| s.alloc_seq()).unwrap_or(0);
        self.trace(from, TraceKind::Results, txn, Some(to), Some(items.len() as u64));
        let msg =
            Message::Results { transaction: txn, seq, items, last, origin: origin_ep, cached };
        if relayed {
            run.metrics.bytes_relayed += encoded_len(&msg);
        }
        if self.config.recovery.enabled {
            self.arena.pending_acks[from_idx].insert(
                (txn, to, seq),
                PendingFrame {
                    message: msg.clone(),
                    retries_left: self.config.recovery.max_retries,
                    backoff_ms: self.config.recovery.backoff_ms(1),
                },
            );
            let delay = self.config.recovery.ack_timeout_ms + self.jitter_ms();
            self.schedule_timer(from, delay, TimerEvent::RetryResults { node: from, txn, to, seq });
        }
        let mut m = std::mem::take(&mut run.metrics);
        self.send(&mut m, from, to, msg);
        run.metrics = m;
    }

    #[allow(clippy::too_many_arguments)]
    fn on_results(
        &mut self,
        run: &mut RunState,
        from: NodeId,
        to: NodeId,
        txn: TransactionId,
        seq: u64,
        items: Vec<String>,
        last: bool,
        origin_ep: String,
        cached: bool,
    ) {
        if txn != run.txn {
            return; // stale transaction from an earlier run
        }
        let node_idx = to.0 as usize;
        let from_sym = Sym(from.0);
        if self.config.recovery.enabled {
            // Ack every arrival (fresh or replay — the sender may have
            // missed an earlier ack), then suppress replays.
            let mut m = std::mem::take(&mut run.metrics);
            self.send(&mut m, to, from, Message::Ack { transaction: txn, seq });
            run.metrics = m;
            // Only record streams for transactions this node still tracks:
            // once the static loop timeout retires a transaction (and the
            // ledger forgets it), a late retransmission must not re-create
            // ledger state — ack it and drop.
            if self.arena.state[node_idx].get(&txn).is_none() {
                run.metrics.late_results_dropped += items.len() as u64;
                return;
            }
            if !self.arena.ledgers[node_idx].record(txn, from_sym, seq) {
                run.metrics.replays_suppressed += 1;
                return;
            }
        }
        if self.config.lifecycle.enabled {
            // Score the link: result yield and accept-to-result latency
            // feed the swap scorer's EWMAs.
            let accepted = self.arena.txns[node_idx].get(&txn).map(|i| i.accepted_at_ms);
            if let Some(at) = accepted {
                let latency = self.sim.now().millis().saturating_sub(at);
                self.arena.peers[node_idx].note_results(from, latency, items.len() as u64);
            }
        }
        let is_origin = to == run.origin;

        if is_origin {
            // Cache-served data anywhere in the tree means the delivered
            // set is second-hand — never re-install it at the origin (that
            // would compound staleness past the F3 bound).
            if cached {
                run.saw_cached = true;
            } else if !run.cache_sources.contains(&from.0) {
                run.cache_sources.push(from.0);
            }
            // Deliver data reaching the originator.
            if run.closed {
                run.metrics.late_results_dropped += items.len() as u64;
            } else {
                self.deliver(run, items);
            }
            // Completion bookkeeping: direct-mode *data* messages carry
            // last=true for the sender's local data but do not terminate a
            // tree edge unless the sender is a tracked child.
            if last {
                let complete = self.arena.state[node_idx].child_done(&txn, from_sym);
                if complete {
                    self.complete_at_origin(run);
                }
            }
            return;
        }

        // Intermediate node: merge toward parent.
        let Some(info) = self.arena.txns[node_idx].get_mut(&txn) else { return };
        let pipeline = info.scope.pipeline;
        let parent = info.parent;
        let aborted = info.aborted;
        let routed = matches!(info.mode, ResponseMode::Routed);
        if !aborted {
            if cached {
                // A child answered from its cache: this node's aggregate is
                // second-hand, so it must not be re-cached here, and the
                // taint must travel upward with the relayed frames.
                info.cache_ok = false;
                info.cache_tainted = true;
                info.cache_items.clear();
                info.cache_sources.clear();
            } else if info.cache_ok {
                info.cache_items.extend(items.iter().cloned());
                if !info.cache_sources.contains(&from.0) {
                    info.cache_sources.push(from.0);
                }
            }
        }
        if aborted {
            run.metrics.late_results_dropped += items.len() as u64;
        } else if routed && !items.is_empty() {
            if pipeline {
                self.send_results(run, to, parent, txn, items, false, origin_ep, true, cached);
            } else {
                let info = self.arena.txns[node_idx].get_mut(&txn).expect("live txn");
                info.buffer.extend(items);
                info.buffer_has_child_items = true;
            }
        }
        if last {
            let complete = self.arena.state[node_idx].child_done(&txn, from_sym);
            if complete && !aborted {
                self.finalize_node(run, to, txn);
            }
        }
    }

    fn on_invite(
        &mut self,
        run: &mut RunState,
        to: NodeId,
        txn: TransactionId,
        node_ep: String,
        expected: u64,
    ) {
        if txn != run.txn {
            return;
        }
        if to == run.origin {
            // Fetch directly from the inviting node: a radius-0 direct query.
            run.metrics.referrals_received += 1;
            let Some(target) = parse_endpoint(&node_ep) else { return };
            let (query_src, language, scope) = {
                let Some(info) = self.arena.txns[to.0 as usize].get(&txn) else { return };
                (info.source.to_string(), info.language, info.scope.clone())
            };
            let msg = Message::Query {
                transaction: txn,
                query: query_src,
                language,
                scope: Scope { radius: Some(0), ..scope },
                response_mode: ResponseMode::Direct {
                    originator: self.endpoints.str(run.origin).to_owned(),
                },
            };
            let mut m = std::mem::take(&mut run.metrics);
            self.send(&mut m, to, target, msg);
            run.metrics = m;
            let _ = expected;
        } else {
            // Relay the invitation toward the originator.
            let parent = self.arena.txns[to.0 as usize].get(&txn).and_then(|i| i.parent);
            if let Some(p) = parent {
                let msg = Message::Invite { transaction: txn, node: node_ep, expected };
                run.metrics.bytes_relayed += encoded_len(&msg);
                let mut m = std::mem::take(&mut run.metrics);
                self.send(&mut m, to, p, msg);
                run.metrics = m;
            }
        }
    }

    fn on_close(&mut self, run: &mut RunState, node: NodeId, txn: TransactionId) {
        if txn != run.txn {
            return;
        }
        if let Some(info) = self.arena.txns[node.0 as usize].get_mut(&txn) {
            info.aborted = true;
            info.cache_ok = false;
            info.cache_items.clear();
            info.buffer.clear();
        }
        self.broadcast_close(run, node, txn);
    }

    fn broadcast_close(&mut self, run: &mut RunState, node: NodeId, txn: TransactionId) {
        // `pending_children` is a sorted `Vec<Sym>`, so close fan-out
        // consumes the chaos RNG in a fixed order. (The pre-arena engine
        // iterated a `HashSet<String>` here — process-random order, a
        // latent reproducibility hazard.)
        let children: Vec<NodeId> = self.arena.state[node.0 as usize]
            .get(&txn)
            .map(|s| s.pending_children.iter().map(|sym| NodeId(sym.0)).collect())
            .unwrap_or_default();
        self.arena.state[node.0 as usize].close(&txn);
        self.trace(node, TraceKind::Close, txn, None, None);
        for child in children {
            let msg = Message::Close { transaction: txn };
            let mut m = std::mem::take(&mut run.metrics);
            self.send(&mut m, node, child, msg);
            run.metrics = m;
        }
    }

    fn node_abort(&mut self, run: &mut RunState, node: NodeId, txn: TransactionId) {
        let node_idx = node.0 as usize;
        let complete = self.arena.state[node_idx].get(&txn).map(|s| s.complete()).unwrap_or(true);
        let Some(info) = self.arena.txns[node_idx].get_mut(&txn) else { return };
        if complete || info.aborted || info.finalized {
            return;
        }
        info.aborted = true;
        info.cache_ok = false;
        run.metrics.node_aborts += 1;
        let parent = info.parent;
        let items = std::mem::take(&mut info.buffer);
        let tainted = info.cache_tainted;
        info.finalized = true;
        self.arena.state[node_idx].close(&txn);
        match parent {
            Some(_) => {
                let node_ep = self.endpoints.str(node).to_owned();
                self.send_results(run, node, parent, txn, items, true, node_ep, false, tainted);
            }
            None => {
                self.deliver(run, items);
                self.complete_at_origin(run);
            }
        }
    }

    /// A retry timer fired: if the frame is still unacked, retransmit
    /// with exponential backoff, or give up and suspect the neighbor.
    fn retry_results(
        &mut self,
        run: &mut RunState,
        node: NodeId,
        txn: TransactionId,
        to: NodeId,
        seq: u64,
    ) {
        let node_idx = node.0 as usize;
        let now_ms = self.sim.now().millis();
        let step = {
            let Some(p) = self.arena.pending_acks[node_idx].get_mut(&(txn, to, seq)) else {
                return; // acked in time
            };
            if p.retries_left == 0 {
                None
            } else {
                p.retries_left -= 1;
                let backoff = p.backoff_ms;
                p.backoff_ms = backoff.saturating_mul(self.config.recovery.backoff_factor.max(1));
                Some((p.message.clone(), backoff))
            }
        };
        // Every fired retry timer is one send/ack failure toward `to`.
        if self.breaker_failure(node, to, now_ms) {
            run.metrics.breaker_opens += 1;
        }
        let Some((message, backoff)) = step else {
            self.arena.pending_acks[node_idx].remove(&(txn, to, seq));
            self.arena.suspected[node_idx].insert(to);
            if self.config.lifecycle.enabled {
                self.arena.peers[node_idx].note_failure(to);
            }
            run.metrics.acks_timed_out += 1;
            return;
        };
        run.metrics.retries_sent += 1;
        self.trace(node, TraceKind::Retry, txn, Some(to), None);
        let mut m = std::mem::take(&mut run.metrics);
        self.send(&mut m, node, to, message);
        run.metrics = m;
        let delay = backoff + self.jitter_ms();
        self.schedule_timer(node, delay, TimerEvent::RetryResults { node, txn, to, seq });
    }

    /// The child-liveness watchdog fired. Attempt 0 re-sends the query to
    /// still-silent children (covers lost `Query` frames) and re-arms;
    /// later attempts abandon them so the subtree finishes Partial
    /// instead of hanging until the abort budget lapses.
    fn child_watchdog(
        &mut self,
        run: &mut RunState,
        node: NodeId,
        txn: TransactionId,
        attempt: u32,
    ) {
        if txn != run.txn {
            return;
        }
        let node_idx = node.0 as usize;
        // The state table keeps children sorted, so the chaos RNG is
        // consumed in a fixed order and runs stay reproducible.
        let pending: Vec<Sym> = self.arena.state[node_idx]
            .get(&txn)
            .map(|s| s.pending_children.clone())
            .unwrap_or_default();
        if pending.is_empty() {
            return;
        }
        let (parent, source, language, mode, fscope) = {
            let Some(info) = self.arena.txns[node_idx].get(&txn) else { return };
            if info.aborted || info.finalized {
                return;
            }
            (
                info.parent,
                Arc::clone(&info.source),
                info.language,
                info.mode.clone(),
                info.scope.forwarded(self.config.hop_cost_ms),
            )
        };
        if attempt == 0 {
            if let Some(fscope) = fscope {
                for &child_sym in &pending {
                    let child = NodeId(child_sym.0);
                    run.metrics.retries_sent += 1;
                    let msg = Message::Query {
                        transaction: txn,
                        query: source.as_ref().to_owned(),
                        language,
                        scope: fscope.clone(),
                        response_mode: mode.clone(),
                    };
                    let mut m = std::mem::take(&mut run.metrics);
                    self.send(&mut m, node, child, msg);
                    run.metrics = m;
                }
            }
            let delay = self.config.recovery.watchdog_timeout_ms + self.jitter_ms();
            self.schedule_timer(node, delay, TimerEvent::ChildWatchdog { node, txn, attempt: 1 });
            return;
        }
        // Abandon: the silent subtrees are lost; degrade instead of hang.
        // The node's answer is now partial — never cache it.
        if let Some(info) = self.arena.txns[node_idx].get_mut(&txn) {
            info.cache_ok = false;
        }
        run.metrics.subtrees_abandoned += pending.len() as u64;
        for &child_sym in &pending {
            let child = NodeId(child_sym.0);
            self.trace(node, TraceKind::Abandon, txn, Some(child), None);
            self.arena.suspected[node_idx].insert(child);
            if self.config.lifecycle.enabled {
                self.arena.peers[node_idx].note_failure(child);
            }
            self.arena.state[node_idx].child_done(&txn, child_sym);
        }
        match parent {
            Some(p) => {
                let node_ep = self.endpoints.str(node).to_owned();
                for _ in &pending {
                    let msg = Message::Error {
                        transaction: txn,
                        origin: node_ep.clone(),
                        reason: "watchdog: subtree lost".to_owned(),
                    };
                    let mut m = std::mem::take(&mut run.metrics);
                    self.send(&mut m, node, p, msg);
                    run.metrics = m;
                }
            }
            None => run.metrics.errors_received += pending.len() as u64,
        }
        let complete = self.arena.state[node_idx].get(&txn).map(|s| s.complete()).unwrap_or(false);
        if complete {
            if parent.is_none() {
                self.complete_at_origin(run);
            } else {
                self.finalize_node(run, node, txn);
            }
        }
    }

    /// A lost-subtree notification: count it at the originator, forward
    /// it toward the originator elsewhere.
    fn on_error(
        &mut self,
        run: &mut RunState,
        to: NodeId,
        txn: TransactionId,
        origin_ep: String,
        reason: String,
    ) {
        if txn != run.txn {
            return;
        }
        if to == run.origin {
            run.metrics.errors_received += 1;
            return;
        }
        let parent = self.arena.txns[to.0 as usize].get_mut(&txn).map(|i| {
            // A lost subtree below us means our aggregate is partial.
            i.cache_ok = false;
            i.parent
        });
        if let Some(Some(p)) = parent {
            let msg = Message::Error { transaction: txn, origin: origin_ep, reason };
            let mut m = std::mem::take(&mut run.metrics);
            self.send(&mut m, to, p, msg);
            run.metrics = m;
        }
    }

    fn deliver(&mut self, run: &mut RunState, items: Vec<String>) {
        if run.closed {
            run.metrics.late_results_dropped += items.len() as u64;
            return;
        }
        let origin = run.origin;
        self.trace(origin, TraceKind::Deliver, run.txn, None, Some(items.len() as u64));
        let now = self.sim.now();
        run.metrics.record_delivery(items.len() as u64, now);
        run.results.extend(items);
        if let Some(max) = run.max_results {
            if run.results.len() as u64 >= max && !run.closed {
                run.closed = true;
                let origin = run.origin;
                let txn = run.txn;
                self.broadcast_close(run, origin, txn);
            }
        }
    }

    fn complete_at_origin(&mut self, run: &mut RunState) {
        if run.metrics.time_completed.is_none() {
            let origin_complete = self.arena.state[run.origin.0 as usize]
                .get(&run.txn)
                .map(|s| s.complete())
                .unwrap_or(false);
            if origin_complete {
                run.metrics.time_completed = Some(self.sim.now());
                self.populate_origin_cache(run);
            }
        }
    }

    /// Install the originator's freshly completed answer in its own
    /// result cache. A routed run that completed cleanly delivered the
    /// entire tree's answer to the origin, so `run.results` *is* the
    /// complete result set for (query, radius) — the one thing worth
    /// caching at hop 0.
    fn populate_origin_cache(&mut self, run: &mut RunState) {
        if run.closed || run.saw_cached {
            return;
        }
        let m = &run.metrics;
        if m.subtrees_abandoned + m.node_aborts + m.errors_received > 0 {
            return;
        }
        let origin_idx = run.origin.0 as usize;
        let Some(info) = self.arena.txns[origin_idx].get(&run.txn) else { return };
        // Same admission gate as the intermediate-hop population: a pure
        // index-plan answer that forwarded nowhere re-evaluates cheaply
        // and is not worth an entry.
        if !info.cache_ok || (!info.cache_forwarded && info.cache_cheap_plan) {
            return;
        }
        let src = Arc::clone(&info.source);
        let language = info.language;
        let radius = info.scope.radius;
        let bound = info.scope.result_staleness_ms;
        let now_ms = self.sim.now().millis();
        let epoch =
            self.arena.registries[origin_idx].peek().map(|r| r.mutation_epoch()).unwrap_or(0);
        self.arena.rcaches[origin_idx].insert(
            &src,
            language,
            radius,
            run.results.clone(),
            now_ms,
            bound,
            epoch,
            &run.cache_sources,
        );
        run.metrics.cache_populated += 1;
    }
}

struct RunState {
    origin: NodeId,
    txn: TransactionId,
    results: Vec<String>,
    metrics: QueryMetrics,
    closed: bool,
    deadline_hit: bool,
    max_results: Option<u64>,
    /// Any cache-served frame reached the origin (or the origin itself
    /// answered from cache): the delivered set is second-hand and must
    /// not be re-installed in the origin's result cache.
    saw_cached: bool,
    /// Peers whose results reached the origin — the source set attached
    /// to the origin's cache entry so departures can purge it.
    cache_sources: Vec<u32>,
}

impl RunState {
    fn new(origin: NodeId, txn: TransactionId, max_results: Option<u64>) -> RunState {
        RunState {
            origin,
            txn,
            results: Vec::new(),
            metrics: QueryMetrics::default(),
            closed: false,
            deadline_hit: false,
            max_results,
            saw_cached: false,
            cache_sources: Vec::new(),
        }
    }
}
