//! The PDP node core: one deterministic, sans-IO state machine per peer.
//!
//! Everything a PDP node decides lives here, once: loop detection and
//! prune-acks, the routed/direct/referral relay with pipelining or
//! store-and-forward, node-abort and child-watchdog timers, the ack ledger
//! with bounded retransmission, circuit breakers and suspicion, the edge
//! result cache (lookup, population and taint), `sweep_expired`
//! retirement, the departure sweep and hop-level trace emission.
//!
//! A [`NodeCore`] has three inputs — [`NodeCore::on_frame`],
//! [`NodeCore::on_timer`] and [`NodeCore::on_eval_done`] — and answers by
//! pushing [`Action`]s (`Send`, `Schedule`, `Evaluate`, `Deliver`,
//! `Trace`) into the caller's buffer. It reads the clock, its neighbors and
//! its registry's mutation epoch from the [`Env`] the caller hands it, and
//! never touches a clock, thread, socket or simulator itself. Two drivers
//! run it:
//!
//! * [`crate::engine::SimNetwork`] turns actions into simulator events
//!   and owns evaluation delay, slow nodes and timer jitter;
//! * each [`crate::live::LiveNetwork`] peer thread turns them into
//!   transport sends plus a timer heap, and evaluates at once.
//!
//! A node that *originates* a query (the simulator's origin, or an agent)
//! also keeps the run's bookkeeping here: deliveries, the `max_results`
//! close, the origin deadline and the originator's cache entry.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::breaker::{CircuitBreaker, ForwardDecision};
use crate::lifecycle::PeerTable;
use crate::metrics::QueryMetrics;
use crate::recovery::RecoveryConfig;
use crate::selection::{NeighborPolicy, RoutingIndex};
use wsda_net::NodeId;
use wsda_obs::TraceKind;
use wsda_pdp::{
    encoded_len, BeginOutcome, CompiledQuery, Message, NodeStateTable, QueryCache, QueryLanguage,
    ResponseMode, ResultCache, ResultLedger, Scope, Sym, TransactionId,
};
use wsda_registry::admission::{Admission, AdmissionContext};
use wsda_registry::clock::Time;
use wsda_registry::workload::CorpusGenerator;
use wsda_registry::{Freshness, HyperRegistry, PublishRequest, QueryPlan, QueryScope};

/// How nodes bound their waiting (experiment F8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutMode {
    /// The abort budget travels in the scope and shrinks per hop; each node
    /// aborts exactly when its remaining budget lapses.
    DynamicAbort,
    /// Every node uses the same fixed timeout regardless of depth.
    StaticPerNode(u64),
}

/// The protocol settings every node of one network shares.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Estimated per-hop cost subtracted from the abort budget on forward.
    pub hop_cost_ms: u64,
    /// Timeout regime.
    pub timeout_mode: TimeoutMode,
    /// Acks, retransmission, watchdog and breakers.
    pub recovery: RecoveryConfig,
    /// Consult and populate the edge result cache.
    pub result_cache: bool,
    /// Forward over the peer table's Connected set instead of the static
    /// neighbor list, and feed it link scores.
    pub lifecycle: bool,
    /// Emit `Trace` actions.
    pub trace: bool,
    /// A transport id outside the overlay whose frames are injected
    /// client queries: no proof of life, and the entry node is a trace
    /// root.
    pub client: Option<NodeId>,
}

/// A timer the core asks its driver to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Timer {
    /// The node's abort budget for `txn` lapsed.
    NodeAbort { txn: TransactionId },
    /// The originator's overall deadline lapsed.
    OriginDeadline { txn: TransactionId },
    /// Retransmit the unacked `Results` frame `seq` sent to `to`.
    RetryResults { txn: TransactionId, to: NodeId, seq: u64 },
    /// Check forwarded subtrees for liveness: attempt 0 re-queries, later
    /// attempts abandon.
    ChildWatchdog { txn: TransactionId, attempt: u32 },
}

/// What the core asks its driver to do, in order.
#[derive(Debug)]
pub enum Action {
    /// Send `message` to `to`.
    Send { to: NodeId, message: Message },
    /// Arm `timer` after `delay_ms`, plus the driver's retry jitter when
    /// `jitter` is set.
    Schedule { delay_ms: u64, jitter: bool, timer: Timer },
    /// Evaluate `txn` locally ([`NodeCore::eval_job`]) and report through
    /// [`NodeCore::on_eval_done`].
    Evaluate { txn: TransactionId },
    /// Result items reached the originator, in arrival order.
    Deliver { items: Vec<String> },
    /// Record a hop-level trace event at this node.
    Trace { kind: TraceKind, txn: TransactionId, peer: Option<NodeId>, items: Option<u64> },
}

/// What a node sees while it handles one input.
pub struct Env<'a> {
    /// Network-wide protocol settings.
    pub cfg: &'a CoreConfig,
    /// This node.
    pub node: NodeId,
    /// This node's endpoint name (`"n<i>"`).
    pub endpoint: &'a str,
    /// The driver's clock, in ms.
    pub now_ms: u64,
    /// Static neighbor list (used when the lifecycle is off).
    pub neighbors: &'a [NodeId],
    /// This node's peer lifecycle table.
    pub peers: &'a mut PeerTable,
    /// Routing index behind `hint:` policies (`None` floods).
    pub routing: Option<&'a RoutingIndex>,
    /// The local registry, read only for its mutation epoch and only when
    /// the result cache needs it: on a large simulation the registry is a
    /// cache miss most inputs never pay. `None` for one not yet built.
    pub registry: Option<&'a HyperRegistry>,
    /// Counters this input adds to.
    pub metrics: &'a mut QueryMetrics,
    /// Where actions go.
    pub out: &'a mut Vec<Action>,
}

impl Env<'_> {
    fn send(&mut self, to: NodeId, message: Message) {
        self.out.push(Action::Send { to, message });
    }

    fn schedule(&mut self, delay_ms: u64, jitter: bool, timer: Timer) {
        self.out.push(Action::Schedule { delay_ms, jitter, timer });
    }

    fn trace(
        &mut self,
        kind: TraceKind,
        txn: TransactionId,
        peer: Option<NodeId>,
        items: Option<u64>,
    ) {
        if self.cfg.trace {
            self.out.push(Action::Trace { kind, txn, peer, items });
        }
    }

    /// The local registry's mutation epoch (result-cache validity).
    fn epoch(&self) -> u64 {
        self.registry.map_or(0, HyperRegistry::mutation_epoch)
    }
}

/// A local evaluation the driver should run.
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// The compiled query.
    pub query: CompiledQuery,
    /// Accept-time deadline (arrival plus abort budget) for the registry's
    /// admission gate, in the driver's clock.
    pub deadline: Time,
}

/// What a local evaluation produced.
#[derive(Debug, Clone, Default)]
pub struct EvalOutcome {
    /// Serialized result items.
    pub items: Vec<String>,
    /// The planner's choice (XQuery evaluations that ran).
    pub plan: Option<QueryPlan>,
    /// The admission gate shed the evaluation.
    pub shed: bool,
    /// The admission gate degraded it to a partial scan.
    pub degraded: bool,
}

/// Evaluate a query against a node's registry: admission-gated XQuery
/// when the registry's gate is on (metered against the transaction's
/// deadline, so a lapsed hop degrades or sheds instead of scanning into
/// a dead answer), plain XQuery otherwise, and SQL.
pub fn evaluate_locally(registry: &HyperRegistry, job: &EvalJob, client: &str) -> EvalOutcome {
    match &job.query {
        CompiledQuery::XQuery(q) => {
            let mut outcome = EvalOutcome::default();
            let answer = if registry.config().admission.enabled {
                let ctx = AdmissionContext::for_client(client).with_deadline(job.deadline);
                match registry.query_admitted(q, &Freshness::any(), &QueryScope::all(), &ctx) {
                    Ok(Admission::Answered(o)) => Some(o),
                    Ok(Admission::Shed { .. }) => {
                        outcome.shed = true;
                        None
                    }
                    Err(_) => None,
                }
            } else {
                registry.query(q, &Freshness::any()).ok()
            };
            if let Some(o) = answer {
                outcome.plan = Some(o.stats.plan);
                outcome.degraded = !o.completeness.is_complete();
                outcome.items = o.results.iter().map(wsda_xq::Item::serialize).collect();
            }
            outcome
        }
        CompiledQuery::Sql(q) => EvalOutcome {
            items: wsda_registry::sql::SqlQuery::rows_to_xml(&registry.query_sql(q))
                .iter()
                .map(|e| e.to_compact_string())
                .collect(),
            ..EvalOutcome::default()
        },
    }
}

/// The seed of node `node`'s synthetic corpus slice.
pub(crate) fn corpus_seed(seed: u64, node: u32) -> u64 {
    seed ^ u64::from(node).wrapping_mul(0x9e37)
}

/// Publish node `node`'s synthetic corpus slice: deterministic in the
/// seed, so a node answers identically on the simulator, on a live
/// overlay and as a standalone process.
pub(crate) fn publish_corpus(registry: &HyperRegistry, seed: u64, node: u32, tuples: usize) {
    let mut generator = CorpusGenerator::new(corpus_seed(seed, node));
    for _ in 0..tuples {
        let (link, _kind, domain, content) = generator.next_service();
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

/// A subtree is lost (shed by a breaker, abandoned by the watchdog, or
/// given up by a node abort): tell the parent, so the loss travels to the
/// originator, or count it here at the originator.
fn report_lost(env: &mut Env<'_>, txn: TransactionId, parent: Option<NodeId>, reason: &str) {
    match parent {
        Some(p) => {
            let origin = env.endpoint.to_owned();
            env.send(p, Message::Error { transaction: txn, origin, reason: reason.to_owned() });
        }
        None => env.metrics.errors_received += 1,
    }
}

fn parse_endpoint(e: &str) -> Option<NodeId> {
    e.strip_prefix('n').and_then(|s| s.parse().ok()).map(NodeId)
}

/// A reliable `Results` frame awaiting its ack.
struct Unacked {
    message: Message,
    retries_left: u32,
    backoff_ms: u64,
}

/// Per-transaction state at one node. Transactions stay for the whole
/// loop timeout (duplicate detection, late frames), so what a node needs
/// only while it works on the query lives in `work`, which a routed or
/// direct relay drops with its final frame; the record that stays is what
/// late frames still read.
struct Txn {
    parent: Option<NodeId>,
    routed: bool,
    pipeline: bool,
    /// Aborted by a local timeout or a close (late child results drop).
    aborted: bool,
    /// Final results already sent toward the parent.
    finalized: bool,
    /// May the finished answer be installed in the result cache? Starts
    /// true only for routed queries carrying a nonzero staleness bound
    /// (with caching enabled); falsified by anything that makes the answer
    /// non-representative — aborts, closes, shed forwards or evaluations,
    /// degraded evaluation, lost subtrees, or child results that were
    /// themselves served from a cache (re-caching second-hand items would
    /// compound staleness past the bound).
    cache_ok: bool,
    work: Option<Box<Work>>,
}

impl Txn {
    /// The node's answer is no longer one to cache.
    fn spoil_cache(&mut self) {
        self.cache_ok = false;
        if let Some(work) = self.work.as_deref_mut() {
            work.cache_items.clear();
        }
    }
}

/// What a node needs while it works on a transaction (a referral relay
/// keeps it for its holding pen).
struct Work {
    /// Buffered result items (store-and-forward routed mode; referral
    /// holding pen awaiting fetch).
    buffer: Vec<String>,
    query: CompiledQuery,
    /// Shared, not cloned, into watchdog re-queries and referral fetches.
    source: Arc<str>,
    language: QueryLanguage,
    scope: Scope,
    mode: ResponseMode,
    /// Accept-time deadline for the admission gate.
    deadline: Time,
    /// `buffer` holds items relayed from children (relayed-bytes
    /// accounting for store-and-forward mode).
    buffer_has_child_items: bool,
    /// The node's complete subtree answer for result-cache population
    /// (at the originator: everything delivered). Only fed while
    /// `cache_ok` holds.
    cache_items: Vec<String>,
    /// The local evaluation was a pure index plan: a leaf answering that
    /// cheaply is not worth caching.
    cache_cheap_plan: bool,
    /// The node forwarded to children, so its answer aggregates a subtree
    /// and is always worth caching.
    cache_forwarded: bool,
    /// A child's results arrived cache-served: outgoing final frames carry
    /// the `cached` provenance flag upward.
    cache_tainted: bool,
    /// Peers whose results fed `cache_items`, so a later departure can
    /// purge the entries their data reached.
    cache_sources: Vec<u32>,
}

/// The originator's view of a run it started.
struct Run {
    txn: TransactionId,
    closed: bool,
    deadline_hit: bool,
    completed: bool,
    max_results: Option<u64>,
    delivered: u64,
    /// Any cache-served frame reached the origin (or the origin answered
    /// from cache): the delivered set is second-hand and must not be
    /// re-installed in the origin's result cache.
    saw_cached: bool,
}

/// One PDP node's protocol state. An idle node owns no heap.
pub struct NodeCore {
    state: NodeStateTable,
    txns: HashMap<TransactionId, Txn>,
    /// Received-frame dedup (recovery): replays are acked but not merged.
    ledger: ResultLedger,
    /// Sent-but-unacked `Results` frames keyed by (txn, receiver, seq).
    pending_acks: HashMap<(TransactionId, NodeId, u64), Unacked>,
    /// Neighbors that exhausted a retry budget or a watchdog; skipped by
    /// later forwards unless breakers are on.
    suspected: HashSet<NodeId>,
    /// Per-neighbor circuit breakers (when enabled these subsume the
    /// permanent `suspected` filter: open breakers shed forwards, and a
    /// half-open probe answered with `Pong` rehabilitates the neighbor).
    breakers: HashMap<NodeId, CircuitBreaker>,
    /// Compiled-query cache: one parse per distinct query string, shared
    /// by every hop and retransmission that reaches this node.
    qcache: QueryCache,
    /// Edge result cache: complete subtree answers reusable within a
    /// query's staleness bound.
    rcache: ResultCache,
    /// The run this node originated, while it is in flight.
    run: Option<Box<Run>>,
}

impl NodeCore {
    /// A fresh node (what a process start or restart begins with).
    pub fn new(result_cache_capacity: usize, result_cache_ttl_ms: u64) -> NodeCore {
        NodeCore {
            state: NodeStateTable::new(),
            txns: HashMap::new(),
            ledger: ResultLedger::new(),
            pending_acks: HashMap::new(),
            suspected: HashSet::new(),
            breakers: HashMap::new(),
            qcache: QueryCache::default(),
            rcache: ResultCache::new(result_cache_capacity, result_cache_ttl_ms),
            run: None,
        }
    }

    /// Result-ledger streams held.
    pub fn ledger_streams(&self) -> usize {
        self.ledger.streams()
    }

    /// State-table entries held.
    pub fn state_entries(&self) -> usize {
        self.state.len()
    }

    /// Per-transaction records held.
    pub fn txns(&self) -> usize {
        self.txns.len()
    }

    /// `Results` frames awaiting an ack.
    pub fn pending_acks(&self) -> usize {
        self.pending_acks.len()
    }

    /// The compiled-query cache.
    pub fn query_cache(&self) -> &QueryCache {
        &self.qcache
    }

    /// The edge result cache.
    pub fn result_cache(&self) -> &ResultCache {
        &self.rcache
    }

    fn run_mut(&mut self, txn: TransactionId) -> Option<&mut Run> {
        self.run.as_deref_mut().filter(|r| r.txn == txn)
    }

    /// Start a query here as its originator (servent model).
    pub fn originate(
        &mut self,
        env: &mut Env<'_>,
        txn: TransactionId,
        query_src: &str,
        language: QueryLanguage,
        scope: Scope,
        mode: ResponseMode,
    ) {
        self.start_run(env, txn, &scope);
        self.accept_query(env, txn, None, query_src, language, scope, mode);
    }

    /// Start a query in the agent model: evaluate here at radius 0 and send
    /// the query straight to every node in `targets`, which answer
    /// directly.
    pub fn originate_agent(
        &mut self,
        env: &mut Env<'_>,
        txn: TransactionId,
        query_src: &str,
        scope: Scope,
        targets: impl IntoIterator<Item = NodeId>,
    ) {
        self.start_run(env, txn, &scope);
        let mode = ResponseMode::Direct { originator: env.endpoint.to_owned() };
        let local_scope = Scope { radius: Some(0), ..scope };
        let language = QueryLanguage::XQuery;
        self.accept_query(env, txn, None, query_src, language, local_scope.clone(), mode.clone());
        let mut fanned_out = false;
        for target in targets {
            fanned_out = true;
            self.state.add_child(&txn, Sym(target.0));
            let message = Message::Query {
                transaction: txn,
                query: query_src.to_owned(),
                language,
                scope: local_scope.clone(),
                response_mode: mode.clone(),
            };
            env.send(target, message);
        }
        if env.cfg.recovery.enabled && fanned_out {
            let delay = env.cfg.recovery.watchdog_timeout_ms;
            env.schedule(delay, true, Timer::ChildWatchdog { txn, attempt: 0 });
        }
    }

    fn start_run(&mut self, env: &mut Env<'_>, txn: TransactionId, scope: &Scope) {
        self.run = Some(Box::new(Run {
            txn,
            closed: false,
            deadline_hit: false,
            completed: false,
            max_results: scope.max_results,
            delivered: 0,
            saw_cached: false,
        }));
        // The origin deadline mirrors the scope's abort budget.
        env.schedule(scope.abort_timeout_ms, false, Timer::OriginDeadline { txn });
    }

    /// End the run this node originated; true when its deadline fired
    /// before it completed.
    pub fn finish_run(&mut self, txn: TransactionId) -> bool {
        self.run.take().filter(|r| r.txn == txn).is_some_and(|r| r.deadline_hit)
    }

    /// A frame arrived from `from`.
    pub fn on_frame(&mut self, env: &mut Env<'_>, from: NodeId, message: Message) {
        if env.cfg.client != Some(from) {
            // Any frame from a peer is proof of life: clear standing
            // suspicion and move an open breaker to half-open, probing
            // immediately, so a rejoined or restarted peer is re-probed
            // promptly instead of waiting out the open window.
            self.suspected.remove(&from);
            let now_ms = env.now_ms;
            if self.breakers.get_mut(&from).is_some_and(|b| b.note_contact(now_ms)) {
                env.metrics.breaker_probes += 1;
                env.send(from, Message::Ping);
            }
        }
        match message {
            Message::Query { transaction, query, language, scope, response_mode } => {
                self.accept_query(
                    env,
                    transaction,
                    Some(from),
                    &query,
                    language,
                    scope,
                    response_mode,
                );
            }
            Message::Results { transaction, seq, items, last, origin, cached } => {
                self.on_results(env, from, transaction, seq, items, last, origin, cached);
            }
            Message::Ack { transaction, seq } => {
                self.pending_acks.remove(&(transaction, from, seq));
                env.trace(TraceKind::Ack, transaction, Some(from), None);
                self.breaker_success(from);
            }
            Message::Error { transaction, origin, reason } => {
                self.on_error(env, transaction, origin, reason);
            }
            Message::Invite { transaction, node, expected } => {
                self.on_invite(env, transaction, node, expected);
            }
            Message::Close { transaction } => {
                if let Some(info) = self.txns.get_mut(&transaction) {
                    info.aborted = true;
                    info.spoil_cache();
                    if let Some(work) = info.work.as_deref_mut() {
                        work.buffer.clear();
                    }
                }
                self.broadcast_close(env, transaction);
            }
            Message::Ping => env.send(from, Message::Pong),
            Message::Pong => {
                // The half-open probe answered: the neighbor is back.
                self.breaker_success(from);
                self.suspected.remove(&from);
            }
        }
    }

    /// A timer this core scheduled fired.
    pub fn on_timer(&mut self, env: &mut Env<'_>, timer: Timer) {
        match timer {
            Timer::NodeAbort { txn } => self.node_abort(env, txn),
            Timer::OriginDeadline { txn } => {
                // The timer always fires eventually; only a deadline
                // *before* completion is a deadline hit.
                let Some(run) = self.run_mut(txn) else { return };
                if !run.closed && !run.completed {
                    run.closed = true;
                    run.deadline_hit = true;
                    self.broadcast_close(env, txn);
                }
            }
            Timer::RetryResults { txn, to, seq } => self.retry_results(env, txn, to, seq),
            Timer::ChildWatchdog { txn, attempt } => self.child_watchdog(env, txn, attempt),
        }
    }

    /// The evaluation an `Evaluate` action asked for, unless the
    /// transaction is gone or was aborted meanwhile.
    pub fn eval_job(&self, txn: TransactionId) -> Option<EvalJob> {
        let info = self.txns.get(&txn).filter(|i| !i.aborted)?;
        let work = info.work.as_ref()?;
        Some(EvalJob { query: work.query.clone(), deadline: work.deadline })
    }

    /// The local evaluation of `txn` finished: stream, buffer or invite the
    /// answer per response mode, and finalize the node if no children are
    /// outstanding.
    pub fn on_eval_done(&mut self, env: &mut Env<'_>, txn: TransactionId, outcome: EvalOutcome) {
        let Some(info) = self.txns.get_mut(&txn).filter(|i| !i.aborted) else { return };
        let Some(work) = info.work.as_deref_mut() else { return };
        let m = &mut *env.metrics;
        m.nodes_evaluated += 1;
        m.local_evals_shed += u64::from(outcome.shed);
        m.local_evals_degraded += u64::from(outcome.degraded);
        if let Some(plan) = outcome.plan {
            m.record_plan(plan);
        }
        let items = outcome.items;
        // Shed or partial evaluations are not the query's answer; caching
        // them would replay the degradation for the whole staleness window.
        if outcome.shed || outcome.degraded {
            info.cache_ok = false;
        } else {
            work.cache_cheap_plan = outcome.plan == Some(QueryPlan::Index);
            // The originator's cache copy is fed by its deliveries.
            if info.cache_ok && info.parent.is_some() {
                work.cache_items.extend(items.iter().cloned());
            }
        }
        let (mode, pipeline, parent) = (work.mode.clone(), info.pipeline, info.parent);
        env.trace(TraceKind::Eval, txn, None, Some(items.len() as u64));
        let complete = self.state.local_done(&txn);

        let Some(p) = parent else {
            // The originator's own results are delivered immediately.
            self.deliver(env, txn, items);
            if complete {
                self.complete_at_origin(env, txn);
            }
            return;
        };

        match mode {
            ResponseMode::Routed => {
                if pipeline && !items.is_empty() && !complete {
                    self.send_results(env, p, txn, items, false, None, false);
                } else if let Some(work) =
                    self.txns.get_mut(&txn).and_then(|i| i.work.as_deref_mut())
                {
                    work.buffer.extend(items);
                }
            }
            ResponseMode::Direct { originator } => {
                if !items.is_empty() {
                    if let Some(target) = parse_endpoint(&originator) {
                        self.send_results(env, target, txn, items, true, None, false);
                    }
                }
            }
            ResponseMode::Referral => {
                if !items.is_empty() {
                    let expected = items.len() as u64;
                    if let Some(work) = self.txns.get_mut(&txn).and_then(|i| i.work.as_deref_mut())
                    {
                        work.buffer = items;
                    }
                    let node = env.endpoint.to_owned();
                    env.send(p, Message::Invite { transaction: txn, node, expected });
                }
            }
        }
        if complete {
            self.finalize_node(env, txn);
        }
    }

    /// `gone` departed: lifecycle transition plus the per-peer state sweep
    /// — cached results folded from the peer, result streams it sent,
    /// frames awaiting its ack, suspicion and breaker history all go with
    /// it. True when the peer was known and is now marked Departed.
    pub fn on_peer_departed(&mut self, peers: &mut PeerTable, gone: NodeId, now_ms: u64) -> bool {
        if !peers.depart(gone, now_ms) {
            return false;
        }
        self.rcache.purge_source(gone.0);
        self.ledger.forget_sender(Sym(gone.0));
        self.pending_acks.retain(|(_, to, _), _| *to != gone);
        self.suspected.remove(&gone);
        self.breakers.remove(&gone);
        true
    }

    /// The breaker for `neighbor`, created closed on first use.
    fn breaker(&mut self, cfg: &CoreConfig, neighbor: NodeId) -> &mut CircuitBreaker {
        self.breakers.entry(neighbor).or_insert_with(|| CircuitBreaker::new(cfg.recovery.breaker))
    }

    /// Record a send/ack failure toward `neighbor`; true when it tripped.
    fn breaker_failure(&mut self, cfg: &CoreConfig, neighbor: NodeId, now_ms: u64) -> bool {
        cfg.recovery.breaker.enabled && self.breaker(cfg, neighbor).record_failure(now_ms)
    }

    /// Record proof of life from `neighbor` (ack or pong).
    fn breaker_success(&mut self, neighbor: NodeId) {
        if let Some(b) = self.breakers.get_mut(&neighbor) {
            b.record_success();
        }
    }

    /// A query arrives (from `parent`, or injected at the originator).
    #[allow(clippy::too_many_arguments)]
    fn accept_query(
        &mut self,
        env: &mut Env<'_>,
        txn: TransactionId,
        parent: Option<NodeId>,
        query_src: &str,
        language: QueryLanguage,
        scope: Scope,
        mode: ResponseMode,
    ) {
        let now = Time(env.now_ms);
        // Retire state whose static loop timeout lapsed — the state-table
        // entry and everything else keyed by the transaction (ledger
        // streams, txn record, pending retransmissions).
        for expired in self.state.sweep_expired(now) {
            self.ledger.forget(expired);
            self.txns.remove(&expired);
            self.pending_acks.retain(|(t, _, _), _| *t != expired);
        }
        let parent_sym = parent.map(|p| Sym(p.0));
        if self.state.begin(txn, parent_sym, now, scope.loop_timeout_ms) == BeginOutcome::Duplicate
        {
            env.metrics.duplicates_suppressed += 1;
            // Referral fetch: a radius-0 direct query for a transaction we
            // hold a referral buffer for means "send me your items".
            let fetch = match (scope.radius, &mode) {
                (Some(0), ResponseMode::Direct { originator }) => parse_endpoint(originator),
                _ => None,
            };
            let held = self.txns.get_mut(&txn).and_then(|i| i.work.as_deref_mut());
            if let (Some(target), Some(work)) = (fetch, held.filter(|w| !w.buffer.is_empty())) {
                let items = std::mem::take(&mut work.buffer);
                self.send_results(env, target, txn, items, true, None, false);
                return;
            }
            // A replay from the recorded parent (network duplication, or a
            // watchdog re-query while we are still working) is dropped
            // silently: a prune ack would mark a live subtree as done. A
            // duplicate from any other sender is a cross-path arrival and
            // gets a prune ack so that forwarder never waits on us.
            let from_recorded_parent =
                self.state.get(&txn).is_some_and(|s| s.parent.is_some() && s.parent == parent_sym);
            if let Some(p) = parent {
                if !from_recorded_parent {
                    self.send_results(env, p, txn, Vec::new(), true, None, false);
                }
            }
            return;
        }

        let trace_parent = parent.filter(|&p| env.cfg.client != Some(p));
        env.trace(TraceKind::Recv, txn, trace_parent, None);

        // Edge result cache: a routed query carrying a nonzero staleness
        // bound may be answered from this node's cache — the complete
        // subtree answer it produced for the same query at an
        // equal-or-wider radius — and the downstream flood never happens.
        // The lookup enforces the requester's bound, the populating
        // query's bound, the cache TTL and the registry mutation epoch.
        let cacheable = env.cfg.result_cache
            && scope.result_staleness_ms > 0
            && matches!(mode, ResponseMode::Routed);
        if cacheable {
            let hit = self.rcache.lookup(
                query_src,
                language,
                scope.radius,
                env.now_ms,
                scope.result_staleness_ms,
                env.epoch(),
            );
            if let Some(items) = hit {
                let items: Vec<String> = items.to_vec();
                env.metrics.cache_served += 1;
                env.trace(TraceKind::CacheServed, txn, None, Some(items.len() as u64));
                // No evaluation, no forwards: the subtree is complete now.
                self.state.local_done(&txn);
                match parent {
                    Some(p) => self.send_results(env, p, txn, items, true, None, true),
                    None => {
                        if let Some(run) = self.run_mut(txn) {
                            run.saw_cached = true;
                        }
                        self.deliver(env, txn, items);
                        self.complete_at_origin(env, txn);
                    }
                }
                return;
            }
        }

        // Compile through the node's query cache, so repeats of the same
        // query string (later runs, retransmitted frames, watchdog
        // re-queries) never re-parse.
        let query = self.qcache.get_or_compile(query_src, language);
        let budget_ms = match env.cfg.timeout_mode {
            TimeoutMode::DynamicAbort => scope.abort_timeout_ms,
            TimeoutMode::StaticPerNode(t) => t,
        };
        let forwarded_scope = scope.forwarded(env.cfg.hop_cost_ms);
        let policy = NeighborPolicy::parse(&scope.neighbor_policy);
        self.txns.insert(
            txn,
            Txn {
                parent,
                routed: matches!(mode, ResponseMode::Routed),
                pipeline: scope.pipeline,
                aborted: false,
                finalized: false,
                cache_ok: cacheable,
                work: Some(Box::new(Work {
                    buffer: Vec::new(),
                    query,
                    source: Arc::from(query_src),
                    language,
                    scope,
                    mode: mode.clone(),
                    deadline: now.plus(budget_ms),
                    buffer_has_child_items: false,
                    cache_items: Vec::new(),
                    cache_cheap_plan: false,
                    cache_forwarded: false,
                    cache_tainted: false,
                    cache_sources: Vec::new(),
                })),
            },
        );
        env.out.push(Action::Evaluate { txn });
        env.schedule(budget_ms, false, Timer::NodeAbort { txn });

        // Forwarding within scope.
        let Some(forwarded_scope) = forwarded_scope else {
            env.metrics.scope_prunes += 1;
            return;
        };
        // With breakers enabled they subsume the permanent `suspected`
        // filter: an open breaker sheds, and a later probe can rehabilitate
        // the neighbor; suspicion alone never forgives.
        let breaker_on = env.cfg.recovery.breaker.enabled;
        // With the lifecycle on, forwarding runs over the node's dynamic
        // Connected set; at zero churn that set is exactly the sorted
        // underlay neighbor list, so both paths emit identical forwards.
        let neighbor_src: &[NodeId] =
            if env.cfg.lifecycle { env.peers.connected() } else { env.neighbors };
        let candidates: Vec<NodeId> = neighbor_src
            .iter()
            .copied()
            .filter(|&c| Some(c) != parent)
            .filter(|c| breaker_on || !self.suspected.contains(c))
            .collect();
        let targets = policy.select(&candidates, env.node, txn, env.routing);
        let mut forwarded_any = false;
        for target in targets {
            if breaker_on {
                let decision = self.breaker(env.cfg, target).decide(env.now_ms);
                if decision != ForwardDecision::Forward {
                    env.metrics.breaker_sheds += 1;
                    if decision == ForwardDecision::ShedAndProbe {
                        env.metrics.breaker_probes += 1;
                        env.send(target, Message::Ping);
                    }
                    if let Some(info) = self.txns.get_mut(&txn) {
                        info.spoil_cache();
                    }
                    report_lost(env, txn, parent, "breaker open: subtree shed");
                    continue;
                }
            }
            forwarded_any = true;
            if env.cfg.lifecycle {
                env.peers.note_forward(target);
            }
            self.state.add_child(&txn, Sym(target.0));
            env.trace(TraceKind::Forward, txn, Some(target), None);
            let message = Message::Query {
                transaction: txn,
                query: query_src.to_owned(),
                language,
                scope: forwarded_scope.clone(),
                response_mode: mode.clone(),
            };
            env.send(target, message);
        }
        if forwarded_any {
            if let Some(work) = self.txns.get_mut(&txn).and_then(|i| i.work.as_deref_mut()) {
                work.cache_forwarded = true;
            }
            if env.cfg.recovery.enabled {
                let delay = env.cfg.recovery.watchdog_timeout_ms;
                env.schedule(delay, true, Timer::ChildWatchdog { txn, attempt: 0 });
            }
        }
    }

    /// Send buffered + final results toward the parent; a cleanly
    /// completed, cache-worthy subtree answer is installed in the node's
    /// result cache first, so whoever receives `last` finds it populated.
    fn finalize_node(&mut self, env: &mut Env<'_>, txn: TransactionId) {
        let Some(info) = self.txns.get_mut(&txn) else { return };
        if info.finalized {
            return;
        }
        info.finalized = true;
        let parent = info.parent;
        let Some(work) = info.work.as_deref_mut() else { return };
        let items = if info.routed {
            std::mem::take(&mut work.buffer)
        } else {
            Vec::new() // direct/referral finals are pure completion acks
        };
        let (relayed, tainted) = (work.buffer_has_child_items, work.cache_tainted);
        let Some(p) = parent else {
            // The originator installs its copy in `complete_at_origin`,
            // from the delivered set.
            self.deliver(env, txn, items);
            self.complete_at_origin(env, txn);
            return;
        };
        // A relay is done with its working state, unless it holds a
        // referral pen. Admission-aware population: a forwarding node's
        // answer aggregates a whole subtree and is always worth keeping; a
        // leaf that answered from a pure index plan re-evaluates cheaply
        // and is not.
        let referral = matches!(work.mode, ResponseMode::Referral);
        let cache_ok = info.cache_ok;
        if let Some(w) = info.work.take_if(|_| !referral) {
            if cache_ok && (w.cache_forwarded || !w.cache_cheap_plan) {
                self.rcache.insert(
                    &w.source,
                    w.language,
                    w.scope.radius,
                    w.cache_items,
                    env.now_ms,
                    w.scope.result_staleness_ms,
                    env.epoch(),
                    &w.cache_sources,
                );
                env.metrics.cache_populated += 1;
            }
        }
        let origin = relayed.then(|| env.endpoint.to_owned());
        self.send_results(env, p, txn, items, true, origin, tainted);
    }

    /// Send a `Results` frame to `to`, allocating the per-transaction
    /// sequence number; with recovery on, the frame is tracked for
    /// retransmission until acked. `relayed` is `Some(origin)` when the
    /// frame carries items from children: they count as relayed bytes and
    /// travel under that origin. `None` sends under this node's endpoint.
    #[allow(clippy::too_many_arguments)]
    fn send_results(
        &mut self,
        env: &mut Env<'_>,
        to: NodeId,
        txn: TransactionId,
        items: Vec<String>,
        last: bool,
        relayed: Option<String>,
        cached: bool,
    ) {
        let seq = self.state.get_mut(&txn).map(|s| s.alloc_seq()).unwrap_or(0);
        env.trace(TraceKind::Results, txn, Some(to), Some(items.len() as u64));
        let is_relay = relayed.is_some();
        let origin = relayed.unwrap_or_else(|| env.endpoint.to_owned());
        let message = Message::Results { transaction: txn, seq, items, last, origin, cached };
        if is_relay {
            env.metrics.bytes_relayed += encoded_len(&message);
        }
        let recovery = &env.cfg.recovery;
        if recovery.enabled {
            self.pending_acks.insert(
                (txn, to, seq),
                Unacked {
                    message: message.clone(),
                    retries_left: recovery.max_retries,
                    backoff_ms: recovery.backoff_ms(1),
                },
            );
            let delay = recovery.ack_timeout_ms;
            env.schedule(delay, true, Timer::RetryResults { txn, to, seq });
        }
        env.send(to, message);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_results(
        &mut self,
        env: &mut Env<'_>,
        from: NodeId,
        txn: TransactionId,
        seq: u64,
        items: Vec<String>,
        last: bool,
        origin_ep: String,
        cached: bool,
    ) {
        let from_sym = Sym(from.0);
        if env.cfg.recovery.enabled {
            // Ack every arrival (fresh or replay — the sender may have
            // missed an earlier ack), then suppress replays.
            env.send(from, Message::Ack { transaction: txn, seq });
            // Only record streams for transactions this node still tracks:
            // once the loop timeout retired one (and the ledger forgot
            // it), a late retransmission must not re-create ledger state.
            if self.state.get(&txn).is_none() {
                env.metrics.late_results_dropped += items.len() as u64;
                return;
            }
            if !self.ledger.record(txn, from_sym, seq) {
                env.metrics.replays_suppressed += 1;
                return;
            }
        }
        if env.cfg.lifecycle {
            // Score the link: result yield and accept-to-result latency
            // feed the swap scorer's EWMAs.
            let accepted = self.txns.contains_key(&txn).then(|| self.state.get(&txn)).flatten();
            if let Some(at) = accepted.map(|s| s.created.millis()) {
                let latency = env.now_ms.saturating_sub(at);
                env.peers.note_results(from, latency, items.len() as u64);
            }
        }

        if self.run_mut(txn).is_some() {
            // Cache-served data anywhere in the tree means the delivered
            // set is second-hand — never re-install it at the origin.
            if cached {
                if let Some(run) = self.run.as_deref_mut() {
                    run.saw_cached = true;
                }
            } else if let Some(work) = self.txns.get_mut(&txn).and_then(|i| i.work.as_deref_mut()) {
                if !work.cache_sources.contains(&from.0) {
                    work.cache_sources.push(from.0);
                }
            }
            self.deliver(env, txn, items);
            // Direct-mode *data* frames carry last=true for the sender's
            // local data but end a tree edge only for a tracked child.
            if last && self.state.child_done(&txn, from_sym) {
                self.complete_at_origin(env, txn);
            }
            return;
        }

        // Intermediate node: merge toward the parent.
        let Some(info) = self.txns.get_mut(&txn) else { return };
        let (pipeline, parent, aborted) = (info.pipeline, info.parent, info.aborted);
        if !aborted && cached {
            // A child answered from its cache: this node's aggregate is
            // second-hand, so it must not be re-cached here, and the taint
            // travels upward with the relayed frames.
            info.cache_ok = false;
            if let Some(w) = info.work.as_deref_mut() {
                w.cache_tainted = true;
                w.cache_items.clear();
                w.cache_sources.clear();
            }
        } else if !aborted && info.cache_ok {
            if let Some(w) = info.work.as_deref_mut() {
                w.cache_items.extend(items.iter().cloned());
                if !w.cache_sources.contains(&from.0) {
                    w.cache_sources.push(from.0);
                }
            }
        }
        let mut relay = None;
        if aborted {
            env.metrics.late_results_dropped += items.len() as u64;
        } else if info.routed && !items.is_empty() {
            if pipeline {
                relay = parent.map(|p| (p, items));
            } else if let Some(w) = info.work.as_deref_mut() {
                w.buffer.extend(items);
                w.buffer_has_child_items = true;
            }
        }
        if let Some((p, items)) = relay {
            self.send_results(env, p, txn, items, false, Some(origin_ep), cached);
        }
        if last && self.state.child_done(&txn, from_sym) && !aborted {
            self.finalize_node(env, txn);
        }
    }

    fn on_invite(&mut self, env: &mut Env<'_>, txn: TransactionId, node_ep: String, expected: u64) {
        if self.run_mut(txn).is_some() {
            // Fetch directly from the inviting node: a radius-0 direct query.
            env.metrics.referrals_received += 1;
            let Some(target) = parse_endpoint(&node_ep) else { return };
            let Some(work) = self.txns.get(&txn).and_then(|i| i.work.as_ref()) else { return };
            let message = Message::Query {
                transaction: txn,
                query: work.source.to_string(),
                language: work.language,
                scope: Scope { radius: Some(0), ..work.scope.clone() },
                response_mode: ResponseMode::Direct { originator: env.endpoint.to_owned() },
            };
            env.send(target, message);
        } else if let Some(p) = self.txns.get(&txn).and_then(|i| i.parent) {
            // Relay the invitation toward the originator.
            let message = Message::Invite { transaction: txn, node: node_ep, expected };
            env.metrics.bytes_relayed += encoded_len(&message);
            env.send(p, message);
        }
    }

    fn broadcast_close(&mut self, env: &mut Env<'_>, txn: TransactionId) {
        // `pending_children` is a sorted `Vec<Sym>`, so close fan-out
        // consumes a chaos RNG in a fixed order.
        let children: Vec<NodeId> = self
            .state
            .get(&txn)
            .map(|s| s.pending_children.iter().map(|sym| NodeId(sym.0)).collect())
            .unwrap_or_default();
        self.state.close(&txn);
        env.trace(TraceKind::Close, txn, None, None);
        for child in children {
            env.send(child, Message::Close { transaction: txn });
        }
    }

    /// The abort budget lapsed first: answer with what the node has, after
    /// an `Error` upward for each piece it gives up (every silent child,
    /// and the local evaluation if still running), so an originator that
    /// sees only frames knows the answer is partial.
    fn node_abort(&mut self, env: &mut Env<'_>, txn: TransactionId) {
        let Some(state) = self.state.get(&txn).filter(|s| !s.complete()) else { return };
        let lost = state.pending_children.len() + usize::from(!state.local_done);
        let Some(info) = self.txns.get_mut(&txn).filter(|i| !i.aborted && !i.finalized) else {
            return;
        };
        info.aborted = true;
        info.finalized = true;
        env.metrics.node_aborts += 1;
        let parent = info.parent;
        let (items, tainted) = info
            .work
            .as_deref_mut()
            .map_or((Vec::new(), false), |w| (std::mem::take(&mut w.buffer), w.cache_tainted));
        info.spoil_cache();
        if parent.is_some() {
            info.work = None;
        }
        self.state.close(&txn);
        for _ in 0..lost {
            report_lost(env, txn, parent, "abort timeout: subtree lost");
        }
        match parent {
            Some(p) => self.send_results(env, p, txn, items, true, None, tainted),
            None => {
                self.deliver(env, txn, items);
                self.complete_at_origin(env, txn);
            }
        }
    }

    /// A retry timer fired: if the frame is still unacked, retransmit with
    /// exponential backoff, or give up and suspect the neighbor.
    fn retry_results(&mut self, env: &mut Env<'_>, txn: TransactionId, to: NodeId, seq: u64) {
        let factor = env.cfg.recovery.backoff_factor.max(1);
        let step = {
            let Some(p) = self.pending_acks.get_mut(&(txn, to, seq)) else {
                return; // acked in time
            };
            if p.retries_left == 0 {
                None
            } else {
                p.retries_left -= 1;
                let backoff = p.backoff_ms;
                p.backoff_ms = backoff.saturating_mul(factor);
                Some((p.message.clone(), backoff))
            }
        };
        // Every fired retry timer is one send/ack failure toward `to`.
        if self.breaker_failure(env.cfg, to, env.now_ms) {
            env.metrics.breaker_opens += 1;
        }
        let Some((message, backoff)) = step else {
            self.pending_acks.remove(&(txn, to, seq));
            self.suspected.insert(to);
            if env.cfg.lifecycle {
                env.peers.note_failure(to);
            }
            env.metrics.acks_timed_out += 1;
            return;
        };
        env.metrics.retries_sent += 1;
        env.trace(TraceKind::Retry, txn, Some(to), None);
        env.send(to, message);
        env.schedule(backoff, true, Timer::RetryResults { txn, to, seq });
    }

    /// The child-liveness watchdog fired. Attempt 0 re-sends the query to
    /// still-silent children (covers lost `Query` frames) and re-arms;
    /// later attempts abandon them — each one a breaker failure — so the
    /// subtree finishes Partial instead of hanging until the abort budget
    /// lapses.
    fn child_watchdog(&mut self, env: &mut Env<'_>, txn: TransactionId, attempt: u32) {
        // The state table keeps children sorted, so a chaos RNG is consumed
        // in a fixed order and runs stay reproducible.
        let pending: Vec<Sym> =
            self.state.get(&txn).map(|s| s.pending_children.clone()).unwrap_or_default();
        if pending.is_empty() {
            return;
        }
        let Some(info) = self.txns.get_mut(&txn).filter(|i| !i.aborted && !i.finalized) else {
            return;
        };
        let parent = info.parent;
        let Some(work) = info.work.as_deref_mut() else { return };
        if attempt == 0 {
            if let Some(scope) = work.scope.forwarded(env.cfg.hop_cost_ms) {
                for &child in &pending {
                    env.metrics.retries_sent += 1;
                    let message = Message::Query {
                        transaction: txn,
                        query: work.source.as_ref().to_owned(),
                        language: work.language,
                        scope: scope.clone(),
                        response_mode: work.mode.clone(),
                    };
                    env.send(NodeId(child.0), message);
                }
            }
            let delay = env.cfg.recovery.watchdog_timeout_ms;
            env.schedule(delay, true, Timer::ChildWatchdog { txn, attempt: 1 });
            return;
        }
        // Abandon: the silent subtrees are lost; degrade instead of hang.
        // The node's answer is now partial — never cache it.
        info.cache_ok = false;
        env.metrics.subtrees_abandoned += pending.len() as u64;
        for &child_sym in &pending {
            let child = NodeId(child_sym.0);
            env.trace(TraceKind::Abandon, txn, Some(child), None);
            self.suspected.insert(child);
            if self.breaker_failure(env.cfg, child, env.now_ms) {
                env.metrics.breaker_opens += 1;
            }
            if env.cfg.lifecycle {
                env.peers.note_failure(child);
            }
            self.state.child_done(&txn, child_sym);
        }
        for _ in &pending {
            report_lost(env, txn, parent, "watchdog: subtree lost");
        }
        if self.state.get(&txn).is_some_and(|s| s.complete()) {
            if parent.is_none() {
                self.complete_at_origin(env, txn);
            } else {
                self.finalize_node(env, txn);
            }
        }
    }

    /// A lost-subtree notification: count it at the originator, relay it
    /// toward the originator elsewhere.
    fn on_error(&mut self, env: &mut Env<'_>, txn: TransactionId, origin: String, reason: String) {
        if self.run_mut(txn).is_some() {
            env.metrics.errors_received += 1;
            return;
        }
        let parent = self.txns.get_mut(&txn).and_then(|i| {
            // A lost subtree below us means our aggregate is partial.
            i.spoil_cache();
            i.parent
        });
        if let Some(p) = parent {
            env.send(p, Message::Error { transaction: txn, origin, reason });
        }
    }

    /// Items reach the originator: delivered unless the run is closed,
    /// closing it once `max_results` are in.
    fn deliver(&mut self, env: &mut Env<'_>, txn: TransactionId, items: Vec<String>) {
        let Some(run) = self.run.as_deref_mut().filter(|r| r.txn == txn) else { return };
        let n = items.len() as u64;
        if run.closed {
            env.metrics.late_results_dropped += n;
            return;
        }
        env.trace(TraceKind::Deliver, txn, None, Some(n));
        env.metrics.record_delivery(n, Time(env.now_ms));
        run.delivered += n;
        let close = run.max_results.is_some_and(|max| run.delivered >= max);
        if close {
            run.closed = true;
        }
        let txn_info = self.txns.get_mut(&txn).filter(|i| i.cache_ok);
        if let Some(work) = txn_info.and_then(|i| i.work.as_deref_mut()) {
            work.cache_items.extend(items.iter().cloned());
        }
        env.out.push(Action::Deliver { items });
        if close {
            self.broadcast_close(env, txn);
        }
    }

    fn complete_at_origin(&mut self, env: &mut Env<'_>, txn: TransactionId) {
        let origin_complete = self.state.get(&txn).is_some_and(|s| s.complete());
        let Some(run) = self.run_mut(txn) else { return };
        if run.completed || !origin_complete {
            return;
        }
        run.completed = true;
        env.metrics.time_completed = Some(Time(env.now_ms));
        // Install the originator's freshly completed answer in its own
        // result cache: a routed run that completed cleanly delivered the
        // entire tree's answer here — the one thing worth caching at hop 0.
        if run.closed || run.saw_cached {
            return;
        }
        let m = &env.metrics;
        if m.subtrees_abandoned + m.node_aborts + m.errors_received > 0 {
            return;
        }
        let Some(info) = self.txns.get_mut(&txn).filter(|i| i.cache_ok) else { return };
        let Some(w) = info.work.as_deref_mut() else { return };
        // Same admission gate as the intermediate-hop population.
        if !w.cache_forwarded && w.cache_cheap_plan {
            return;
        }
        self.rcache.insert(
            &w.source,
            w.language,
            w.scope.radius,
            std::mem::take(&mut w.cache_items),
            env.now_ms,
            w.scope.result_staleness_ms,
            env.epoch(),
            &w.cache_sources,
        );
        env.metrics.cache_populated += 1;
    }
}
