//! The hyper registry node (dissertation chapter 4).
//!
//! A `HyperRegistry` ties together the tuple store (soft state), content
//! providers (hybrid pull/push caching), the throttle and the XQuery engine.
//! Every operation lazily sweeps expired tuples first, so expired content is
//! never served regardless of when maintenance last ran.

use crate::admission::{
    Admission, AdmissionConfig, AdmissionContext, AdmissionGate, Completeness, CostClass,
    ShedReason, SlotDenied, SlotGrant,
};
use crate::clock::{SharedClock, SystemClock};
use crate::error::{RegistryError, RegistryResult};
use crate::freshness::{decide, CacheDecision, Freshness, RefreshPolicy};
use crate::persist::{PersistenceConfig, RecoverNow, RecoveryReport, WalBackend};
use crate::provider::ContentProvider;
use crate::shard::ShardedStore;
use crate::throttle::{PullThrottle, ThrottleConfig};
use parking_lot::{Mutex, RwLock};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use wsda_obs::{Counter, MetricsRegistry};
use wsda_xml::Element;
use wsda_xq::{DynamicContext, NodeRef, Query, Sequence};

/// Registry configuration.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Smallest TTL a publication may request.
    pub min_ttl_ms: u64,
    /// Largest TTL a publication may request.
    pub max_ttl_ms: u64,
    /// TTL applied when a publication does not specify one.
    pub default_ttl_ms: u64,
    /// Hard cap on stored tuples.
    pub max_tuples: usize,
    /// Registry-side content refresh policy.
    pub refresh_policy: RefreshPolicy,
    /// Per-provider pull budget.
    pub per_provider_throttle: ThrottleConfig,
    /// Registry-wide pull budget.
    pub global_throttle: ThrottleConfig,
    /// Separable queries over at least this many tuples are evaluated with
    /// a rayon-parallel scan.
    pub parallel_scan_threshold: usize,
    /// Number of hash shards for the tuple store (rounded up to a power of
    /// two, minimum 1). More shards mean less reader/writer contention;
    /// whole-store operations touch every shard, so keep it modest.
    pub shards: usize,
    /// Maintain per-shard inverted path/value content indexes and let the
    /// query planner answer sargable queries from them instead of scanning
    /// every tuple. Disable to force the scan path (baseline comparisons).
    pub content_index: bool,
    /// Overload protection for the query path (see [`crate::admission`]):
    /// bounded evaluation slots, deadline-aware shedding/degradation and
    /// per-client budgets. Disabled by default.
    pub admission: AdmissionConfig,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            min_ttl_ms: 1_000,
            max_ttl_ms: 86_400_000,  // 24h
            default_ttl_ms: 600_000, // 10min, the thesis's suggested lease
            max_tuples: 1_000_000,
            refresh_policy: RefreshPolicy::PullOnDemand,
            per_provider_throttle: ThrottleConfig::unlimited(),
            global_throttle: ThrottleConfig::unlimited(),
            parallel_scan_threshold: 1024,
            shards: crate::shard::DEFAULT_SHARDS,
            content_index: true,
            admission: AdmissionConfig::default(),
        }
    }
}

/// A publication (or re-publication) request.
#[derive(Debug, Clone)]
pub struct PublishRequest {
    /// The content link being published.
    pub link: String,
    /// Tuple type (e.g. `service`).
    pub type_: String,
    /// Context/scope attribute (e.g. owning domain).
    pub context: String,
    /// Requested TTL; `None` uses the registry default.
    pub ttl_ms: Option<u64>,
    /// Content pushed along with the publication, if any.
    pub content: Option<Element>,
}

impl PublishRequest {
    /// A minimal request for `link` with the given tuple type.
    pub fn new(link: impl Into<String>, type_: impl Into<String>) -> Self {
        PublishRequest {
            link: link.into(),
            type_: type_.into(),
            context: String::new(),
            ttl_ms: None,
            content: None,
        }
    }

    /// Set the context attribute.
    pub fn with_context(mut self, ctx: impl Into<String>) -> Self {
        self.context = ctx.into();
        self
    }

    /// Request a specific TTL.
    pub fn with_ttl_ms(mut self, ttl: u64) -> Self {
        self.ttl_ms = Some(ttl);
        self
    }

    /// Push content with the publication.
    pub fn with_content(mut self, content: Element) -> Self {
        self.content = Some(content);
        self
    }
}

/// Counters exposed by the registry.
///
/// Each field is a shared [`Counter`] handle, so the same atomics can be
/// adopted by a [`wsda_obs::MetricsRegistry`] (via [`RegistryStats::export_into`])
/// for unified Prometheus/JSON export without changing any recording path.
#[derive(Debug, Default)]
pub struct RegistryStats {
    /// First-time publications.
    pub publishes: Counter,
    /// Re-publications of live tuples.
    pub refreshes: Counter,
    /// Tuples evicted by soft-state expiry.
    pub expirations: Counter,
    /// Queries answered.
    pub queries: Counter,
    /// Successful content pulls.
    pub pulls_ok: Counter,
    /// Failed content pulls.
    pub pulls_failed: Counter,
    /// Pulls suppressed by the throttle.
    pub pulls_throttled: Counter,
    /// Tuples served from cache without a pull.
    pub cache_hits: Counter,
    /// Queries answered through the link/type index.
    pub index_queries: Counter,
    /// Queries planned fully from the content index.
    pub plans_index: Counter,
    /// Queries planned from the content index with a residual re-check.
    pub plans_hybrid: Counter,
    /// Queries that fell back to the full scan.
    pub plans_scan: Counter,
    /// Queries admitted through the overload gate.
    pub admitted: Counter,
    /// Admitted queries that first waited in the slot queue.
    pub deferred: Counter,
    /// Admitted scans degraded to a bounded partial evaluation.
    pub degraded: Counter,
    /// Sheds: the client's admission budget was exhausted.
    pub shed_client: Counter,
    /// Sheds: remaining deadline budget below even the degraded cost.
    pub shed_deadline: Counter,
    /// Sheds: the slot queue was already full.
    pub shed_queue_full: Counter,
    /// Sheds: no evaluation slot freed up within the wait budget.
    pub shed_slot_timeout: Counter,
    /// Monotone mutation epoch: bumped by every publish, refresh,
    /// unpublish, pull-installed content and soft-state expiry. Edge
    /// result caches compare the epoch they captured at population time
    /// against the current value, so any local change invalidates cached
    /// answers before the next lookup can serve them.
    pub mutations: Counter,
}

impl RegistryStats {
    fn add(counter: &Counter, n: u64) {
        counter.add(n);
    }

    fn fields(&self) -> [(&'static str, &Counter); 20] {
        [
            ("publishes", &self.publishes),
            ("refreshes", &self.refreshes),
            ("expirations", &self.expirations),
            ("queries", &self.queries),
            ("pulls_ok", &self.pulls_ok),
            ("pulls_failed", &self.pulls_failed),
            ("pulls_throttled", &self.pulls_throttled),
            ("cache_hits", &self.cache_hits),
            ("index_queries", &self.index_queries),
            ("plans_index", &self.plans_index),
            ("plans_hybrid", &self.plans_hybrid),
            ("plans_scan", &self.plans_scan),
            ("admitted", &self.admitted),
            ("deferred", &self.deferred),
            ("degraded", &self.degraded),
            ("shed_client", &self.shed_client),
            ("shed_deadline", &self.shed_deadline),
            ("shed_queue_full", &self.shed_queue_full),
            ("shed_slot_timeout", &self.shed_slot_timeout),
            ("mutations", &self.mutations),
        ]
    }

    /// Snapshot all counters as (name, value) pairs.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.fields().iter().map(|(n, c)| (*n, c.get())).collect()
    }

    /// Register every counter with a [`MetricsRegistry`] as
    /// `registry_<name>_total{node="<node>"}` (or unlabelled when `node` is
    /// empty). The handles share state, so subsequent recording through
    /// `RegistryStats` is immediately visible in the export.
    pub fn export_into(&self, metrics: &MetricsRegistry, node: &str) {
        for (name, counter) in self.fields() {
            let full = if node.is_empty() {
                format!("registry_{name}_total")
            } else {
                format!("registry_{name}_total{{node=\"{node}\"}}")
            };
            metrics.register_counter(&full, counter);
        }
    }

    /// Total queries shed by the admission gate, over every reason.
    pub fn total_shed(&self) -> u64 {
        self.shed_client.get()
            + self.shed_deadline.get()
            + self.shed_queue_full.get()
            + self.shed_slot_timeout.get()
    }
}

/// A physical query scope (dissertation chapter 3): the *logical* query is
/// insensitive to deployment; the scope prunes which tuples feed it —
/// typically by owning domain ("only `cern.ch`") or tuple type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryScope {
    /// Only tuples whose context equals this domain or is a subdomain of
    /// it (`cern.ch` matches `cms.cern.ch`).
    pub domain: Option<String>,
    /// Only tuples of these types (uses the type index).
    pub types: Option<Vec<String>>,
}

impl QueryScope {
    /// The unrestricted scope.
    pub fn all() -> QueryScope {
        QueryScope::default()
    }

    /// Restrict to a domain (suffix-on-label-boundary match).
    pub fn in_domain(domain: impl Into<String>) -> QueryScope {
        QueryScope { domain: Some(domain.into()), types: None }
    }

    /// Restrict to one tuple type.
    pub fn of_type(type_: impl Into<String>) -> QueryScope {
        QueryScope { domain: None, types: Some(vec![type_.into()]) }
    }

    fn domain_matches(&self, context: &str) -> bool {
        match &self.domain {
            None => true,
            Some(d) => context == d || context.ends_with(&format!(".{d}")),
        }
    }
}

/// The candidate-selection strategy a query executed with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryPlan {
    /// Full scan of the (scope-restricted) tuple set.
    #[default]
    Scan,
    /// Content-index candidates, predicates captured the query exactly.
    Index,
    /// Content-index candidates plus a residual re-check (the compiled
    /// query always re-runs over candidates; `Hybrid` records that the
    /// index alone was not equivalent to the query).
    Hybrid,
}

impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QueryPlan::Scan => "scan",
            QueryPlan::Index => "index",
            QueryPlan::Hybrid => "hybrid",
        })
    }
}

/// Per-query execution statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidate tuples after index narrowing.
    pub candidates: usize,
    /// Content pulls performed for this query.
    pub pulls: usize,
    /// Tuples served from cache.
    pub cache_hits: usize,
    /// Tuples skipped because fresh content was demanded but unavailable.
    pub skipped: usize,
    /// Whether the link/type index answered candidate selection.
    pub used_index: bool,
    /// Whether the scan ran rayon-parallel.
    pub parallel: bool,
    /// The plan the content-index planner chose.
    pub plan: QueryPlan,
    /// Content-index posting lists consulted by the planner.
    pub postings_consulted: usize,
}

/// A query result with its statistics.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The result sequence.
    pub results: Sequence,
    /// Execution statistics.
    pub stats: QueryStats,
    /// Whether the evaluation examined every candidate tuple, or was
    /// degraded to a bounded partial scan by the admission gate (the
    /// lost-unit count is the number of unexamined candidates).
    pub completeness: Completeness,
}

/// The hyper registry node.
///
/// Concurrency design (the "query fast path"): the tuple set lives in a
/// [`ShardedStore`] — N hash-sharded [`crate::TupleStore`]s behind
/// reader-writer locks — so cache-hit queries only ever take *shared* shard
/// locks. The pull throttle sits behind its own small mutex, provider
/// `fetch()` calls run with **no** store lock held, and a tuple's document
/// is an `Arc` clone (see [`crate::Tuple::to_xml`]). Lock order, where more
/// than one lock is held: shard lock → providers map → (none); the throttle
/// mutex is only ever taken alone.
pub struct HyperRegistry {
    config: RegistryConfig,
    clock: SharedClock,
    store: ShardedStore,
    throttle: Mutex<PullThrottle>,
    gate: AdmissionGate,
    providers: RwLock<HashMap<String, Arc<dyn ContentProvider>>>,
    stats: RegistryStats,
    /// WAL + snapshot backend when the registry is durable (see
    /// [`crate::persist`]); `None` keeps the seed's pure in-memory
    /// behaviour.
    durable: Option<Arc<WalBackend>>,
}

impl HyperRegistry {
    /// Create a registry.
    pub fn new(config: RegistryConfig, clock: SharedClock) -> Self {
        let store = ShardedStore::with_content_index(config.shards, config.content_index);
        Self::from_parts(config, clock, store, None)
    }

    /// Open a *durable* registry rooted at `persist.dir`, recovering any
    /// existing WAL + snapshot state. Recovery sweeps at `clock.now()`, so
    /// pass a clock that has not rewound across the restart — a shared
    /// still-running clock, the simulator's virtual clock, or
    /// [`crate::clock::SystemClock::starting_at`] seeded from a previous
    /// run (see [`HyperRegistry::open_durable_wallclock`] for the
    /// standalone-process variant that restores the clock itself).
    pub fn open_durable(
        config: RegistryConfig,
        clock: SharedClock,
        persist: &PersistenceConfig,
    ) -> RegistryResult<(Self, RecoveryReport)> {
        let now = clock.now();
        let (store, backend, report) = crate::persist::open_store_at(
            persist,
            config.shards,
            config.content_index,
            RecoverNow::At(now),
        )?;
        Ok((Self::from_parts(config, clock, store, Some(backend)), report))
    }

    /// [`HyperRegistry::open_durable`] for a standalone process restart:
    /// the soft-state clock is restored from the WAL's wall-clock stamps
    /// (downtime elapses on it, so leases that expired while down are
    /// swept) and the registry runs on a [`SystemClock`] resuming there.
    pub fn open_durable_wallclock(
        config: RegistryConfig,
        persist: &PersistenceConfig,
    ) -> RegistryResult<(Self, RecoveryReport)> {
        let (store, backend, report) = crate::persist::open_store_at(
            persist,
            config.shards,
            config.content_index,
            RecoverNow::WallClock,
        )?;
        let clock: SharedClock = Arc::new(SystemClock::starting_at(report.resume_now));
        Ok((Self::from_parts(config, clock, store, Some(backend)), report))
    }

    fn from_parts(
        config: RegistryConfig,
        clock: SharedClock,
        store: ShardedStore,
        durable: Option<Arc<WalBackend>>,
    ) -> Self {
        let now = clock.now();
        HyperRegistry {
            store,
            throttle: Mutex::new(PullThrottle::new(
                config.per_provider_throttle,
                config.global_throttle,
                now,
            )),
            gate: AdmissionGate::new(config.admission.clone(), now),
            providers: RwLock::new(HashMap::new()),
            stats: RegistryStats::default(),
            config,
            clock,
            durable,
        }
    }

    /// The durable backend, when this registry persists.
    pub fn wal_backend(&self) -> Option<&Arc<WalBackend>> {
        self.durable.as_ref()
    }

    /// Force a snapshot + WAL truncation now (durable registries only).
    pub fn snapshot_now(&self) -> RegistryResult<usize> {
        match &self.durable {
            Some(b) => Ok(b.snapshot_sharded(&self.store)?),
            None => Ok(0),
        }
    }

    /// Snapshot if the automatic cadence is due. Called from mutation paths
    /// *after* their shard lock is dropped (the snapshot takes all shard
    /// locks). Snapshot I/O errors are recorded on the backend's metrics
    /// rather than failing the triggering operation.
    fn maybe_snapshot(&self) {
        if let Some(b) = &self.durable {
            if b.wants_snapshot() {
                let _ = b.snapshot_sharded(&self.store);
            }
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// Exhaustive store/secondary-index consistency check (test helper).
    #[doc(hidden)]
    pub fn check_consistent(&self) {
        self.store.check_consistent();
    }

    /// Operation counters.
    pub fn stats(&self) -> &RegistryStats {
        &self.stats
    }

    /// Register (or replace) the content provider for its link.
    pub fn register_provider(&self, provider: Arc<dyn ContentProvider>) {
        self.providers.write().insert(provider.link().to_owned(), provider);
    }

    /// Publish or re-publish a tuple. Content pushed with the request is
    /// installed in the cache; otherwise content arrives later by pull.
    ///
    /// Only the shard owning `request.link` is write-locked; the capacity
    /// check counts the other shards without their locks held, so under
    /// concurrent publishes the cap is advisory (it can overshoot by at
    /// most the number of racing writers).
    pub fn publish(&self, request: PublishRequest) -> RegistryResult<()> {
        let now = self.clock.now();
        let ttl = request.ttl_ms.unwrap_or(self.config.default_ttl_ms);
        if ttl < self.config.min_ttl_ms || ttl > self.config.max_ttl_ms {
            return Err(RegistryError::BadTtl {
                requested: ttl,
                min: self.config.min_ttl_ms,
                max: self.config.max_ttl_ms,
            });
        }
        self.count_evictions(self.store.sweep_shard_of(&request.link, now));
        if !self.store.contains(&request.link) && self.store.len() >= self.config.max_tuples {
            // Other shards may hold expired-but-unswept tuples; sweep them
            // once before rejecting for capacity.
            self.count_evictions(self.store.sweep(now));
            if self.store.len() >= self.config.max_tuples {
                return Err(RegistryError::CapacityExceeded(self.config.max_tuples));
            }
        }
        let mut shard = self.store.write_shard(self.store.shard_of(&request.link));
        let is_new = shard.get(&request.link).is_none();
        if is_new && request.content.is_none() && !self.providers.read().contains_key(&request.link)
        {
            return Err(RegistryError::NoProvider(request.link));
        }
        let ordinal = if is_new { self.store.alloc_ordinal() } else { 0 };
        let was_new = shard.upsert_with_ordinal(
            &request.link,
            &request.type_,
            &request.context,
            now,
            ttl,
            ordinal,
        );
        if let Some(content) = request.content {
            // Through the index-maintaining path, so pushed content lands
            // in the shard's content postings.
            shard.set_content(&request.link, &content, now);
        }
        if was_new {
            RegistryStats::add(&self.stats.publishes, 1);
        } else {
            RegistryStats::add(&self.stats.refreshes, 1);
        }
        RegistryStats::add(&self.stats.mutations, 1);
        drop(shard);
        self.maybe_snapshot();
        Ok(())
    }

    /// Refresh an existing publication's lease (soft-state keep-alive).
    pub fn refresh(&self, link: &str, ttl_ms: Option<u64>) -> RegistryResult<()> {
        let now = self.clock.now();
        let mut shard = self.store.write_shard(self.store.shard_of(link));
        self.count_evictions(shard.sweep(now));
        if shard.get(link).is_none() {
            return Err(RegistryError::NotPublished(link.to_owned()));
        }
        let ttl = ttl_ms.unwrap_or(self.config.default_ttl_ms);
        if ttl < self.config.min_ttl_ms || ttl > self.config.max_ttl_ms {
            return Err(RegistryError::BadTtl {
                requested: ttl,
                min: self.config.min_ttl_ms,
                max: self.config.max_ttl_ms,
            });
        }
        shard.renew(link, now, ttl);
        RegistryStats::add(&self.stats.refreshes, 1);
        RegistryStats::add(&self.stats.mutations, 1);
        drop(shard);
        self.maybe_snapshot();
        Ok(())
    }

    /// Explicitly remove a publication.
    pub fn unpublish(&self, link: &str) -> RegistryResult<()> {
        let now = self.clock.now();
        let mut shard = self.store.write_shard(self.store.shard_of(link));
        self.count_evictions(shard.sweep(now));
        let removed = shard.remove(link).is_some();
        drop(shard);
        if removed {
            RegistryStats::add(&self.stats.mutations, 1);
            self.maybe_snapshot();
            Ok(())
        } else {
            Err(RegistryError::NotPublished(link.to_owned()))
        }
    }

    /// Number of live tuples right now.
    pub fn live_tuples(&self) -> usize {
        let now = self.clock.now();
        self.count_evictions(self.store.sweep(now));
        self.store.len()
    }

    /// Run soft-state maintenance immediately; returns evicted count.
    pub fn sweep(&self) -> usize {
        let now = self.clock.now();
        let evicted = self.count_evictions(self.store.sweep(now));
        self.maybe_snapshot();
        evicted
    }

    fn count_evictions(&self, evicted: usize) -> usize {
        if evicted > 0 {
            RegistryStats::add(&self.stats.expirations, evicted as u64);
            RegistryStats::add(&self.stats.mutations, evicted as u64);
        }
        evicted
    }

    /// The current mutation epoch (see [`RegistryStats::mutations`]).
    /// Result caches stamp entries with this value and treat any change
    /// as an invalidation signal.
    pub fn mutation_epoch(&self) -> u64 {
        self.stats.mutations.get()
    }

    /// MinQuery-style lookup: the tuple XML for one content link, if live.
    /// Runs entirely under one shard *read* lock — expired tuples are
    /// filtered rather than swept, preserving "never serve expired".
    pub fn lookup(&self, link: &str) -> Option<Arc<Element>> {
        let now = self.clock.now();
        self.store
            .with_tuple(link, |t| if t.is_expired(now) { None } else { Some(t.to_xml()) })
            .flatten()
    }

    /// Execute an XQuery over the live tuple set under a freshness demand
    /// (unrestricted physical scope).
    pub fn query(&self, query: &Query, demand: &Freshness) -> RegistryResult<QueryOutcome> {
        self.query_scoped(query, demand, &QueryScope::all())
    }

    /// Execute an XQuery over the tuples selected by a physical
    /// [`QueryScope`], under a freshness demand.
    ///
    /// The fast path runs in three phases:
    ///
    /// 1. **candidate selection** under shard read locks — the query's own
    ///    simple-key shape, then the scope's type restriction, then the
    ///    context index for domain-only scopes (one domain test per
    ///    *distinct* context instead of a per-candidate retain scan);
    /// 2. **doc collection** shard by shard under read locks — cached
    ///    tuples hand out their documents immediately
    ///    ([`crate::Tuple::to_xml`] is an `Arc` clone), tuples needing a
    ///    pull are deferred;
    /// 3. **pulls** with *no* store lock held — throttle, fetch, then
    ///    write-lock only the owning shard to install content.
    ///
    /// Evaluation happens after every lock is released.
    pub fn query_scoped(
        &self,
        query: &Query,
        demand: &Freshness,
        scope: &QueryScope,
    ) -> RegistryResult<QueryOutcome> {
        self.query_scoped_limited(query, demand, scope, None)
    }

    /// [`HyperRegistry::query_scoped`], optionally degraded: with
    /// `candidate_cap` set, at most that many candidate links (sorted for
    /// determinism) are examined and the outcome reports
    /// [`Completeness::Partial`] with the unexamined count.
    fn query_scoped_limited(
        &self,
        query: &Query,
        demand: &Freshness,
        scope: &QueryScope,
        candidate_cap: Option<usize>,
    ) -> RegistryResult<QueryOutcome> {
        RegistryStats::add(&self.stats.queries, 1);
        let now = self.clock.now();
        let mut stats = QueryStats::default();

        // Phase 1: candidate selection.
        let mut domain_checked = false;
        let mut scan_everything = false;
        let candidate_links: Vec<String> = match &query.profile().index_key {
            Some((attr, value)) if attr == "link" => {
                stats.used_index = true;
                if self.store.contains(value) {
                    vec![value.clone()]
                } else {
                    Vec::new()
                }
            }
            Some((attr, value)) if attr == "type" => {
                stats.used_index = true;
                self.store.links_of_type(value)
            }
            _ => match (&scope.types, &scope.domain) {
                (Some(types), _) => {
                    stats.used_index = true;
                    let mut v: Vec<String> =
                        types.iter().flat_map(|t| self.store.links_of_type(t)).collect();
                    v.sort();
                    v.dedup();
                    v
                }
                (None, Some(_)) => {
                    stats.used_index = true;
                    domain_checked = true;
                    self.store.links_matching_context(|ctx| scope.domain_matches(ctx))
                }
                // The unrestricted scope is where the O(N) scan lived:
                // let the content-index planner narrow it when it can.
                (None, None) => match self.plan_candidates(query, demand, &mut stats) {
                    Some(links) => links,
                    None => {
                        scan_everything = true;
                        Vec::new()
                    }
                },
            },
        };
        if stats.used_index {
            RegistryStats::add(&self.stats.index_queries, 1);
        }
        RegistryStats::add(
            match stats.plan {
                QueryPlan::Index => &self.stats.plans_index,
                QueryPlan::Hybrid => &self.stats.plans_hybrid,
                QueryPlan::Scan => &self.stats.plans_scan,
            },
            1,
        );
        let need_domain_check = scope.domain.is_some() && !domain_checked;

        // Whole-store scans normally skip link materialization entirely
        // (see phase 2); degradation capping and pull scheduling both need
        // the sorted link list, so those cases fall back to it.
        let providers = self.providers.read();
        let candidate_links =
            if scan_everything && (candidate_cap.is_some() || !providers.is_empty()) {
                scan_everything = false;
                self.store.links()
            } else {
                candidate_links
            };

        // Degradation (admission gate): examine only the first
        // `candidate_cap` links, sorted so the surviving subset is
        // deterministic regardless of shard iteration order, and report
        // the unexamined remainder as lost units.
        let mut completeness = Completeness::Complete;
        let candidate_links = match candidate_cap {
            Some(cap) if candidate_links.len() > cap => {
                let mut links = candidate_links;
                links.sort();
                completeness = Completeness::Partial { subtrees_lost: (links.len() - cap) as u64 };
                links.truncate(cap);
                links
            }
            _ => candidate_links,
        };

        // Phase 2: doc collection, grouped by shard so each shard's read
        // lock is taken once. Expired tuples are filtered, not swept — the
        // read path never takes a write lock.
        let mut docs: Vec<(u64, Arc<Element>)> = Vec::new();
        let mut pulls_wanted: Vec<(String, Arc<dyn ContentProvider>)> = Vec::new();
        if scan_everything {
            // Whole-store sweep with no providers registered: every
            // candidate serves from cache, so the link list, its sort, and
            // the per-link hash lookups are pure overhead — iterate tuples
            // in place instead. `docs` is ordinal-sorted below, so shard
            // iteration order is unobservable. This is the hot shape at
            // simulator scale (10^5 lean registries, ~4 tuples each, one
            // scan per flooded query).
            for idx in 0..self.store.shard_count() {
                let shard = self.store.read_shard(idx);
                for tuple in shard.iter() {
                    if tuple.is_expired(now) {
                        continue;
                    }
                    if need_domain_check && !scope.domain_matches(&tuple.context) {
                        continue;
                    }
                    stats.candidates += 1;
                    match decide(tuple, now, self.config.refresh_policy, demand, false) {
                        CacheDecision::ServeCached | CacheDecision::ServeEmpty => {
                            stats.cache_hits += 1;
                            RegistryStats::add(&self.stats.cache_hits, 1);
                            docs.push((tuple.ordinal, tuple.to_xml()));
                        }
                        CacheDecision::Pull => unreachable!("Pull implies a provider"),
                    }
                }
            }
        }
        let mut by_shard: Vec<Vec<String>> = vec![Vec::new(); self.store.shard_count()];
        for link in candidate_links {
            let idx = self.store.shard_of(&link);
            by_shard[idx].push(link);
        }
        for (idx, links) in by_shard.into_iter().enumerate() {
            if links.is_empty() {
                continue;
            }
            let shard = self.store.read_shard(idx);
            for link in links {
                let Some(tuple) = shard.get(&link) else { continue };
                if tuple.is_expired(now) {
                    continue;
                }
                if need_domain_check && !scope.domain_matches(&tuple.context) {
                    continue;
                }
                stats.candidates += 1;
                let provider = providers.get(&link);
                match decide(tuple, now, self.config.refresh_policy, demand, provider.is_some()) {
                    CacheDecision::ServeCached | CacheDecision::ServeEmpty => {
                        stats.cache_hits += 1;
                        RegistryStats::add(&self.stats.cache_hits, 1);
                        docs.push((tuple.ordinal, tuple.to_xml()));
                    }
                    CacheDecision::Pull => {
                        let p = provider.expect("Pull implies provider").clone();
                        pulls_wanted.push((link, p));
                    }
                }
            }
        }
        drop(providers);

        // Phase 3: pulls, with no store lock held during fetch. One slow
        // provider no longer blocks publishes or other queries.
        for (link, provider) in pulls_wanted {
            let allowed = self.throttle.lock().allow(&link, now);
            if !allowed {
                RegistryStats::add(&self.stats.pulls_throttled, 1);
            }
            let pulled = if allowed {
                stats.pulls += 1;
                match provider.fetch() {
                    Ok(content) => {
                        RegistryStats::add(&self.stats.pulls_ok, 1);
                        // Install under the shard write lock (through the
                        // index-maintaining path); the tuple may have
                        // expired or vanished while the provider ran.
                        let installed = self.store.install_content(&link, &content, now);
                        if installed {
                            RegistryStats::add(&self.stats.mutations, 1);
                        }
                        installed
                    }
                    Err(_) => {
                        RegistryStats::add(&self.stats.pulls_failed, 1);
                        false
                    }
                }
            } else {
                false
            };
            if !pulled && !demand.serve_stale_on_failure {
                stats.skipped += 1;
                continue;
            }
            let doc = self
                .store
                .with_tuple(&link, |t| {
                    if t.is_expired(now) {
                        None
                    } else {
                        Some((t.ordinal, t.to_xml()))
                    }
                })
                .flatten();
            if let Some(doc) = doc {
                docs.push(doc);
            }
        }

        docs.sort_by_key(|(ord, _)| *ord);
        let results = self.evaluate(query, &docs, &mut stats)?;
        Ok(QueryOutcome { results, stats, completeness })
    }

    /// Execute a query through the overload-admission gate (see
    /// [`crate::admission`]). With admission disabled (the default) this
    /// is exactly [`HyperRegistry::query_scoped`] wrapped in
    /// [`Admission::Answered`]; enabled, the query is metered against the
    /// client's budget, its estimated cost (planner index/scan class ×
    /// store size) is checked against the remaining deadline budget —
    /// degrading full scans to a bounded partial evaluation before
    /// shedding — and evaluation occupies one bounded in-flight slot.
    /// Every shed is explicit (reason + retry-after) and counted.
    pub fn query_admitted(
        &self,
        query: &Query,
        demand: &Freshness,
        scope: &QueryScope,
        ctx: &AdmissionContext,
    ) -> RegistryResult<Admission> {
        let cfg = &self.config.admission;
        if !cfg.enabled {
            return Ok(Admission::Answered(self.query_scoped(query, demand, scope)?));
        }
        let now = self.clock.now();
        if !self.gate.client_allowed(ctx.client.as_deref(), now) {
            return Ok(self.shed(ShedReason::ClientThrottled));
        }

        // Deadline-aware cost check: degrade scans before shedding.
        let class = self.cost_class(query, demand, scope);
        let estimate_ms = cfg.estimate_ms(class, self.store.len());
        let mut candidate_cap = None;
        if let Some(deadline) = ctx.deadline {
            let budget_ms = deadline.since(now);
            if budget_ms < estimate_ms {
                match class {
                    CostClass::Scan => {
                        let affordable = cfg.affordable_tuples(budget_ms);
                        if affordable >= cfg.degraded_scan_min {
                            candidate_cap = Some(affordable);
                        } else {
                            return Ok(self.shed(ShedReason::DeadlineLapsed));
                        }
                    }
                    // Index-class work is already minimal: nothing left to
                    // degrade to, so shed (it is cheap to retry later).
                    CostClass::Index => return Ok(self.shed(ShedReason::DeadlineLapsed)),
                }
            }
        }

        // Bounded in-flight slots: wait no longer than the smaller of the
        // queue-wait knob and the remaining deadline budget.
        let wait_ms = match ctx.deadline {
            Some(deadline) => cfg.max_queue_wait_ms.min(deadline.since(now)),
            None => cfg.max_queue_wait_ms,
        };
        match self.gate.acquire(std::time::Duration::from_millis(wait_ms)) {
            Err(SlotDenied::QueueFull) => Ok(self.shed(ShedReason::QueueFull)),
            Err(SlotDenied::Timeout) => Ok(self.shed(ShedReason::SlotTimeout)),
            Ok(grant) => {
                if grant == SlotGrant::Deferred {
                    RegistryStats::add(&self.stats.deferred, 1);
                    // Waiting consumed budget: a lapsed deadline sheds at
                    // dequeue instead of evaluating into a dead answer.
                    if let Some(deadline) = ctx.deadline {
                        if self.clock.now() >= deadline {
                            self.gate.release();
                            return Ok(self.shed(ShedReason::DeadlineLapsed));
                        }
                    }
                }
                let result = self.query_scoped_limited(query, demand, scope, candidate_cap);
                self.gate.release();
                let outcome = result?;
                RegistryStats::add(&self.stats.admitted, 1);
                if !outcome.completeness.is_complete() {
                    RegistryStats::add(&self.stats.degraded, 1);
                }
                Ok(Admission::Answered(outcome))
            }
        }
    }

    /// Queries currently waiting for an evaluation slot.
    pub fn admission_queue_depth(&self) -> usize {
        self.gate.queued()
    }

    /// Queries currently holding an evaluation slot.
    pub fn admission_inflight(&self) -> usize {
        self.gate.inflight()
    }

    /// Providers with live pull-throttle bucket state (observability; the
    /// churn tests assert this stays bounded).
    pub fn throttle_tracked_providers(&self) -> usize {
        self.throttle.lock().tracked_providers()
    }

    fn shed(&self, reason: ShedReason) -> Admission {
        let counter = match reason {
            ShedReason::ClientThrottled => &self.stats.shed_client,
            ShedReason::DeadlineLapsed => &self.stats.shed_deadline,
            ShedReason::QueueFull => &self.stats.shed_queue_full,
            ShedReason::SlotTimeout => &self.stats.shed_slot_timeout,
        };
        RegistryStats::add(counter, 1);
        Admission::Shed { reason, retry_after_ms: self.config.admission.retry_after_ms }
    }

    /// The admission cost class: everything candidate selection can
    /// narrow (simple keys, scoped queries, sargable predicates with the
    /// planner eligible) admits as cheap index work; the rest is a scan
    /// priced by the store size.
    fn cost_class(&self, query: &Query, demand: &Freshness, scope: &QueryScope) -> CostClass {
        let profile = query.profile();
        if profile.index_key.is_some() || scope.types.is_some() || scope.domain.is_some() {
            return CostClass::Index;
        }
        let planner_eligible = demand.max_age_ms.is_none()
            && !matches!(self.config.refresh_policy, RefreshPolicy::PullPeriodic { .. })
            && self.config.content_index;
        if planner_eligible && profile.sargable.is_some() {
            CostClass::Index
        } else {
            CostClass::Scan
        }
    }

    /// Execute a SQL query ([`crate::sql`]) over the live tuple set. The
    /// `FROM` clause names the tuple type (index-narrowed); content is
    /// served from cache (`Freshness::any()` semantics — SQL clients are
    /// the thesis's "simpler" consumers). Rows are taken under shard read
    /// locks; row evaluation happens with no lock held.
    pub fn query_sql(&self, query: &crate::sql::SqlQuery) -> Vec<crate::sql::SqlRow> {
        RegistryStats::add(&self.stats.queries, 1);
        RegistryStats::add(&self.stats.index_queries, 1);
        let now = self.clock.now();
        let links = self.store.links_of_type(&query.from_type);
        let mut by_shard: Vec<Vec<String>> = vec![Vec::new(); self.store.shard_count()];
        for link in links {
            let idx = self.store.shard_of(&link);
            by_shard[idx].push(link);
        }
        let mut records: Vec<(String, Arc<crate::baseline::ServiceRecord>)> = Vec::new();
        for (idx, links) in by_shard.into_iter().enumerate() {
            if links.is_empty() {
                continue;
            }
            let shard = self.store.read_shard(idx);
            for link in links {
                if let Some(t) = shard.get(&link) {
                    if !t.is_expired(now) {
                        // Memoized per tuple (see [`crate::Tuple::to_record`]):
                        // repeated SQL queries stop re-flattening the XML.
                        records.push((link, t.to_record()));
                    }
                }
            }
        }
        // Keep the seed's deterministic link-sorted row order.
        records.sort_by(|a, b| a.0.cmp(&b.0));
        query.evaluate(records.iter().map(|(_, r)| r.as_ref()))
    }

    /// The predicate-pushdown planner: candidate links from the content
    /// index, or `None` when the query must scan.
    ///
    /// The index answers from *cached* content, so it may only plan
    /// queries whose execution serves exactly that cache: any freshness
    /// demand with a maximum age, or a periodic-refresh policy, can
    /// re-pull stale tuples mid-query and make fresh content match where
    /// cached content did not. Tuples with no cached content at all are
    /// always in the candidate set (see
    /// [`crate::content_index::ContentIndex::candidates`]), so
    /// first-time on-demand pulls still happen under an index plan.
    fn plan_candidates(
        &self,
        query: &Query,
        demand: &Freshness,
        stats: &mut QueryStats,
    ) -> Option<Vec<String>> {
        if demand.max_age_ms.is_some()
            || matches!(self.config.refresh_policy, RefreshPolicy::PullPeriodic { .. })
        {
            return None;
        }
        let plan = query.profile().sargable.as_ref()?;
        // Width bailout: a candidate set covering (nearly) the whole store
        // buys no selectivity, and per-link fetches cost more than the
        // straight shard scan — fall back, before materializing candidates
        // (the store pre-checks a cheap postings-size bound). Only above a
        // minimum store size: below it either path is cheap and index
        // plans stay observable. The 1/16 slack tolerates
        // expired-but-unswept postings.
        const WIDE_PLAN_MIN_TUPLES: usize = 256;
        let total = self.store.len();
        let width_cap = if total >= WIDE_PLAN_MIN_TUPLES {
            total.saturating_sub(total / 16)
        } else {
            usize::MAX
        };
        let (links, consulted) = self.store.sargable_candidates(&plan.predicates, width_cap)?;
        stats.postings_consulted = consulted;
        stats.plan = if plan.residual { QueryPlan::Hybrid } else { QueryPlan::Index };
        Some(links)
    }

    fn evaluate(
        &self,
        query: &Query,
        docs: &[(u64, Arc<Element>)],
        stats: &mut QueryStats,
    ) -> RegistryResult<Sequence> {
        let profile = query.profile();
        if profile.separable && docs.len() >= self.config.parallel_scan_threshold {
            stats.parallel = true;
            // The tuple-separability property (chapter 6): evaluate per
            // tuple and concatenate in ordinal order. Chunking keeps task
            // granularity coarse enough that rayon overhead stays small on
            // corpora of tiny tuples; rayon preserves input order in
            // collect.
            let chunk = (docs.len() / (rayon::current_num_threads() * 8)).max(16);
            let chunks: Vec<RegistryResult<Sequence>> = docs
                .par_chunks(chunk)
                .map(|slice| {
                    // One preallocated buffer per chunk (selective queries
                    // yield ≤1 item per doc far more often than >1), moved
                    // — not re-copied — into the final concatenation, so
                    // allocator pressure stays flat as corpora grow.
                    let mut out = Sequence::with_capacity(slice.len());
                    for (ord, doc) in slice {
                        let root = NodeRef::document_node(doc.clone(), *ord);
                        let mut ctx = DynamicContext::with_root_refs(vec![root]);
                        out.extend(query.eval(&mut ctx).map_err(RegistryError::from)?);
                    }
                    Ok(out)
                })
                .collect();
            let total = chunks.iter().map(|c| c.as_ref().map_or(0, |s| s.len())).sum();
            let mut out = Sequence::with_capacity(total);
            for c in chunks {
                out.append(&mut c?);
            }
            Ok(out)
        } else {
            let roots: Vec<NodeRef> =
                docs.iter().map(|(ord, doc)| NodeRef::document_node(doc.clone(), *ord)).collect();
            let mut ctx = DynamicContext::with_root_refs(roots);
            query.eval(&mut ctx).map_err(RegistryError::from)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::provider::{DeadProvider, DynamicProvider, StaticProvider};
    use wsda_xml::parse_fragment;

    fn setup() -> (Arc<ManualClock>, HyperRegistry) {
        let clock = Arc::new(ManualClock::new());
        let registry = HyperRegistry::new(
            RegistryConfig { min_ttl_ms: 10, ..RegistryConfig::default() },
            clock.clone(),
        );
        (clock, registry)
    }

    fn svc(owner: &str) -> Element {
        parse_fragment(&format!("<service><owner>{owner}</owner></service>")).unwrap()
    }

    #[test]
    fn publish_with_pushed_content_and_query() {
        let (_, r) = setup();
        r.publish(
            PublishRequest::new("http://a", "service")
                .with_content(svc("cms.cern.ch"))
                .with_context("cern.ch"),
        )
        .unwrap();
        let q = Query::parse("//service/owner").unwrap();
        let out = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].string_value(), "cms.cern.ch");
        assert_eq!(out.stats.candidates, 1);
        assert!(!out.stats.used_index);
    }

    #[test]
    fn publish_without_content_or_provider_fails() {
        let (_, r) = setup();
        let err = r.publish(PublishRequest::new("http://a", "service")).unwrap_err();
        assert!(matches!(err, RegistryError::NoProvider(_)));
    }

    #[test]
    fn ttl_bounds_enforced() {
        let (_, r) = setup();
        let err = r
            .publish(
                PublishRequest::new("http://a", "service").with_content(svc("x")).with_ttl_ms(1),
            )
            .unwrap_err();
        assert!(matches!(err, RegistryError::BadTtl { .. }));
    }

    #[test]
    fn soft_state_expiry_and_refresh() {
        let (clock, r) = setup();
        r.publish(
            PublishRequest::new("http://a", "service").with_content(svc("x")).with_ttl_ms(1000),
        )
        .unwrap();
        clock.advance(900);
        assert_eq!(r.live_tuples(), 1);
        r.refresh("http://a", Some(1000)).unwrap();
        clock.advance(900);
        assert_eq!(r.live_tuples(), 1, "refresh extended the lease");
        clock.advance(200);
        assert_eq!(r.live_tuples(), 0, "lease ran out");
        assert!(matches!(r.refresh("http://a", None), Err(RegistryError::NotPublished(_))));
        assert_eq!(r.stats().expirations.get(), 1);
    }

    #[test]
    fn unpublish_removes() {
        let (_, r) = setup();
        r.publish(PublishRequest::new("http://a", "service").with_content(svc("x"))).unwrap();
        r.unpublish("http://a").unwrap();
        assert_eq!(r.live_tuples(), 0);
        assert!(r.unpublish("http://a").is_err());
    }

    #[test]
    fn lookup_returns_tuple_xml() {
        let (_, r) = setup();
        r.publish(PublishRequest::new("http://a", "service").with_content(svc("x"))).unwrap();
        let xml = r.lookup("http://a").unwrap();
        assert_eq!(xml.attr("link"), Some("http://a"));
        assert!(r.lookup("http://nope").is_none());
    }

    #[test]
    fn pull_on_demand_fetches_content() {
        let (_, r) = setup();
        let p = Arc::new(StaticProvider::new("http://a", svc("cms.cern.ch")));
        r.register_provider(p.clone());
        r.publish(PublishRequest::new("http://a", "service")).unwrap();
        assert_eq!(p.pulls(), 0);
        let q = Query::parse("//service/owner").unwrap();
        let out = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.stats.pulls, 1);
        assert_eq!(p.pulls(), 1);
        // Second query is served from cache.
        let out2 = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(out2.stats.pulls, 0);
        assert_eq!(out2.stats.cache_hits, 1);
        assert_eq!(p.pulls(), 1);
    }

    #[test]
    fn freshness_demand_forces_repull() {
        let (clock, r) = setup();
        let p = Arc::new(DynamicProvider::new("http://a", |n| {
            Element::new("service").with_field("version", n.to_string())
        }));
        r.register_provider(p);
        r.publish(PublishRequest::new("http://a", "service")).unwrap();
        let q = Query::parse("//service/version").unwrap();
        let v0 = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(v0.results[0].string_value(), "0");
        clock.advance(5000);
        let cached = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(cached.results[0].string_value(), "0");
        let live = r.query(&q, &Freshness::max_age(1000)).unwrap();
        assert_eq!(live.results[0].string_value(), "1");
    }

    #[test]
    fn strict_freshness_skips_failed_pulls() {
        let (_, r) = setup();
        r.register_provider(Arc::new(DeadProvider::new("http://dead")));
        r.publish(PublishRequest::new("http://dead", "service")).unwrap();
        let q = Query::parse("/tuple").unwrap();
        let lenient = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(lenient.results.len(), 1, "bare tuple served despite failed pull");
        let strict = r.query(&q, &Freshness::live()).unwrap();
        assert_eq!(strict.results.len(), 0);
        assert_eq!(strict.stats.skipped, 1);
    }

    #[test]
    fn type_index_narrows_candidates() {
        let (_, r) = setup();
        for i in 0..10 {
            let ty = if i % 2 == 0 { "service" } else { "monitor" };
            r.publish(PublishRequest::new(format!("http://x{i}"), ty).with_content(svc("o")))
                .unwrap();
        }
        let q = Query::parse(r#"/tuple[@type = "monitor"]"#).unwrap();
        let out = r.query(&q, &Freshness::any()).unwrap();
        assert!(out.stats.used_index);
        assert_eq!(out.stats.candidates, 5);
        assert_eq!(out.results.len(), 5);
    }

    #[test]
    fn link_index_single_candidate() {
        let (_, r) = setup();
        for i in 0..10 {
            r.publish(
                PublishRequest::new(format!("http://x{i}"), "service").with_content(svc("o")),
            )
            .unwrap();
        }
        let q = Query::parse(r#"/tuple[@link = "http://x3"]"#).unwrap();
        let out = r.query(&q, &Freshness::any()).unwrap();
        assert!(out.stats.used_index);
        assert_eq!(out.stats.candidates, 1);
        assert_eq!(out.results.len(), 1);
        let miss = Query::parse(r#"/tuple[@link = "http://nope"]"#).unwrap();
        assert_eq!(r.query(&miss, &Freshness::any()).unwrap().results.len(), 0);
    }

    #[test]
    fn capacity_cap() {
        let clock = Arc::new(ManualClock::new());
        let r = HyperRegistry::new(
            RegistryConfig { max_tuples: 2, min_ttl_ms: 10, ..RegistryConfig::default() },
            clock,
        );
        r.publish(PublishRequest::new("a", "t").with_content(svc("x"))).unwrap();
        r.publish(PublishRequest::new("b", "t").with_content(svc("x"))).unwrap();
        assert!(matches!(
            r.publish(PublishRequest::new("c", "t").with_content(svc("x"))),
            Err(RegistryError::CapacityExceeded(2))
        ));
        // Refreshing an existing tuple is still allowed at capacity.
        r.publish(PublishRequest::new("a", "t").with_content(svc("x"))).unwrap();
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let clock = Arc::new(ManualClock::new());
        let serial = HyperRegistry::new(
            RegistryConfig {
                parallel_scan_threshold: usize::MAX,
                min_ttl_ms: 10,
                ..Default::default()
            },
            clock.clone(),
        );
        let parallel = HyperRegistry::new(
            RegistryConfig { parallel_scan_threshold: 1, min_ttl_ms: 10, ..Default::default() },
            clock,
        );
        for i in 0..50 {
            let owner = if i % 3 == 0 { "cms.cern.ch" } else { "fnal.gov" };
            for r in [&serial, &parallel] {
                r.publish(
                    PublishRequest::new(format!("http://x{i}"), "service").with_content(svc(owner)),
                )
                .unwrap();
            }
        }
        let q = Query::parse(r#"//service[owner = "cms.cern.ch"]/owner"#).unwrap();
        assert!(q.profile().separable);
        let a = serial.query(&q, &Freshness::any()).unwrap();
        let b = parallel.query(&q, &Freshness::any()).unwrap();
        assert!(!a.stats.parallel);
        assert!(b.stats.parallel);
        let sa: Vec<String> = a.results.iter().map(|i| i.string_value()).collect();
        let sb: Vec<String> = b.results.iter().map(|i| i.string_value()).collect();
        assert_eq!(sa, sb);
        assert_eq!(sa.len(), 17);
    }

    #[test]
    fn throttle_limits_pulls() {
        let clock = Arc::new(ManualClock::new());
        let r = HyperRegistry::new(
            RegistryConfig {
                min_ttl_ms: 10,
                per_provider_throttle: ThrottleConfig { rate_per_sec: 0.0, burst: 1.0 },
                ..Default::default()
            },
            clock.clone(),
        );
        let p = Arc::new(DynamicProvider::new("http://a", |n| {
            Element::new("service").with_field("v", n.to_string())
        }));
        r.register_provider(p.clone());
        r.publish(PublishRequest::new("http://a", "service")).unwrap();
        let q = Query::parse("//service").unwrap();
        r.query(&q, &Freshness::live()).unwrap();
        assert_eq!(p.pulls(), 1);
        // Later live query: the cache is stale, the throttle denies the
        // re-pull (zero refill rate), and the strict demand skips the tuple.
        clock.advance(1_000);
        let out = r.query(&q, &Freshness::live()).unwrap();
        assert_eq!(p.pulls(), 1);
        assert_eq!(out.results.len(), 0);
        assert_eq!(r.stats().pulls_throttled.get(), 1);
    }

    #[test]
    fn stats_snapshot_names() {
        let (_, r) = setup();
        let names: Vec<&str> = r.stats().snapshot().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"publishes"));
        assert!(names.contains(&"pulls_throttled"));
        assert!(names.contains(&"plans_index"));
        assert!(names.contains(&"plans_scan"));
    }

    fn planner_corpus(r: &HyperRegistry) {
        for i in 0..20 {
            let owner = if i % 4 == 0 { "cms.cern.ch" } else { "fnal.gov" };
            r.publish(
                PublishRequest::new(format!("http://x{i:02}"), "service").with_content(svc(owner)),
            )
            .unwrap();
        }
    }

    #[test]
    fn planner_chooses_index_for_exact_sargable_query() {
        let (_, r) = setup();
        planner_corpus(&r);
        let q = Query::parse(r#"//service[owner = "cms.cern.ch"]"#).unwrap();
        let out = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(out.stats.plan, QueryPlan::Index);
        assert_eq!(out.stats.candidates, 5, "index narrowed 20 tuples to 5");
        assert!(out.stats.postings_consulted > 0);
        assert_eq!(out.results.len(), 5);
        assert_eq!(r.stats().plans_index.get(), 1);
    }

    #[test]
    fn planner_chooses_hybrid_when_predicates_are_partial() {
        let (_, r) = setup();
        planner_corpus(&r);
        // `not(...)` is not extractable, so the plan carries a residual:
        // candidates come from Exists(//service), the query re-checks.
        let q = Query::parse(r#"//service[not(owner = "cms.cern.ch")]"#).unwrap();
        let out = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(out.stats.plan, QueryPlan::Hybrid);
        assert_eq!(out.results.len(), 15);
        assert_eq!(r.stats().plans_hybrid.get(), 1);
    }

    #[test]
    fn wide_candidate_sets_bail_out_to_scan_above_min_size() {
        let (_, r) = setup();
        for i in 0..300 {
            let owner = if i == 0 { "cms.cern.ch" } else { "fnal.gov" };
            r.publish(
                PublishRequest::new(format!("http://w{i:03}"), "service").with_content(svc(owner)),
            )
            .unwrap();
        }
        // Every tuple matches the existence probe: no selectivity, so the
        // planner declines and scans (per-link fetches would cost more).
        let wide = Query::parse("//service/owner").unwrap();
        let out = r.query(&wide, &Freshness::any()).unwrap();
        assert_eq!(out.stats.plan, QueryPlan::Scan);
        assert_eq!(out.results.len(), 300);
        // A selective predicate over the same store still plans an index.
        let narrow = Query::parse(r#"//service[owner = "cms.cern.ch"]"#).unwrap();
        let out = r.query(&narrow, &Freshness::any()).unwrap();
        assert_eq!(out.stats.plan, QueryPlan::Index);
        assert_eq!(out.stats.candidates, 1);
    }

    #[test]
    fn planner_falls_back_to_scan_for_non_sargable_queries() {
        let (_, r) = setup();
        planner_corpus(&r);
        // A relative path cannot anchor an absolute pattern.
        let q = Query::parse("count(/tuple) + count(/tuple)").unwrap();
        let out = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(out.stats.plan, QueryPlan::Scan);
        assert_eq!(out.stats.candidates, 20);
        assert_eq!(r.stats().plans_scan.get(), 1);
    }

    #[test]
    fn freshness_demand_disables_the_planner() {
        let (_, r) = setup();
        planner_corpus(&r);
        // A max-age demand may re-pull stale tuples whose *fresh* content
        // matches; the index (which reflects the cache) must not prejudge.
        let q = Query::parse(r#"//service[owner = "cms.cern.ch"]"#).unwrap();
        let out = r.query(&q, &Freshness::max_age(60_000)).unwrap();
        assert_eq!(out.stats.plan, QueryPlan::Scan);
        assert_eq!(out.results.len(), 5, "same answer, scan plan");
    }

    #[test]
    fn disabled_content_index_forces_scan_with_identical_results() {
        let clock = Arc::new(ManualClock::new());
        let r = HyperRegistry::new(
            RegistryConfig { content_index: false, min_ttl_ms: 10, ..RegistryConfig::default() },
            clock,
        );
        planner_corpus(&r);
        let q = Query::parse(r#"//service[owner = "cms.cern.ch"]/owner"#).unwrap();
        let out = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(out.stats.plan, QueryPlan::Scan);
        assert_eq!(out.stats.candidates, 20);
        assert_eq!(out.results.len(), 5);
    }

    #[test]
    fn planner_still_pulls_contentless_tuples() {
        let (_, r) = setup();
        planner_corpus(&r);
        // A tuple published without content: the index knows nothing about
        // it, so it must stay a candidate and be pulled on demand.
        let p = Arc::new(StaticProvider::new("http://pending", svc("cms.cern.ch")));
        r.register_provider(p.clone());
        r.publish(PublishRequest::new("http://pending", "service")).unwrap();
        let q = Query::parse(r#"//service[owner = "cms.cern.ch"]/owner"#).unwrap();
        let out = r.query(&q, &Freshness::any()).unwrap();
        assert_ne!(out.stats.plan, QueryPlan::Scan);
        assert_eq!(out.stats.pulls, 1, "pull-pending tuple was fetched under an index plan");
        assert_eq!(out.results.len(), 6);
        assert_eq!(p.pulls(), 1);
        // Once cached, the next query answers from postings: the pulled
        // content was indexed on install.
        let out2 = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(out2.stats.pulls, 0);
        assert_eq!(out2.stats.candidates, 6, "pulled tuple now matched via postings");
    }

    #[test]
    fn index_plan_reflects_unpublish_refresh_and_expiry() {
        let (clock, r) = setup();
        let q = Query::parse(r#"//service[owner = "cms.cern.ch"]"#).unwrap();
        r.publish(
            PublishRequest::new("http://a", "service")
                .with_content(svc("cms.cern.ch"))
                .with_ttl_ms(1_000),
        )
        .unwrap();
        r.publish(
            PublishRequest::new("http://b", "service")
                .with_content(svc("cms.cern.ch"))
                .with_ttl_ms(10_000),
        )
        .unwrap();
        assert_eq!(r.query(&q, &Freshness::any()).unwrap().results.len(), 2);
        // Re-publish with different content: postings move.
        r.publish(
            PublishRequest::new("http://b", "service")
                .with_content(svc("fnal.gov"))
                .with_ttl_ms(10_000),
        )
        .unwrap();
        assert_eq!(r.query(&q, &Freshness::any()).unwrap().results.len(), 1);
        // Expiry sweeps postings.
        clock.advance(1_000);
        r.sweep();
        let out = r.query(&q, &Freshness::any()).unwrap();
        assert_eq!(out.results.len(), 0);
        assert_eq!(out.stats.candidates, 0);
        // Unpublish cleans up too.
        r.unpublish("http://b").unwrap();
        assert_eq!(r.live_tuples(), 0);
    }
}
