//! Edge result cache: correctness tests for both engines.
//!
//! Three properties protect the F3 contract:
//!
//! * **Inertness** — a staleness bound of 0 forbids cached answers, so
//!   cache-on and cache-off runs must agree on everything (results,
//!   evaluations, messages). Same when every entry has expired.
//! * **Invalidation** — a publish/refresh/unpublish at a node bumps its
//!   registry mutation epoch and evicts that node's entries before the
//!   next query consults them: there is no window in which a query can be
//!   answered from a cache that predates a local mutation.
//! * **Boundedness** — the per-node cache is LRU-capped, so a long
//!   transaction history cannot grow it without bound (leak regression,
//!   in the style of `leaks.rs`).

use std::time::Duration;

use proptest::prelude::*;
use wsda_net::model::NetworkModel;
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_updf::{LiveNetwork, P2pConfig, SimNetwork, Topology};
use wsda_xml::Element;

const QUERY: &str = "//service/owner";

/// A wide staleness bound: cached answers allowed whenever an entry is
/// fresh by TTL and epoch.
const WIDE_BOUND_MS: u64 = 3_600_000;

/// Modest flood timeouts: the sim's run loop drains every scheduled
/// timer, so each run advances the virtual clock past the largest
/// timeout — these keep entries young between runs (contrast the
/// `1 << 40` style timeouts, which age everything past any TTL).
fn scope(staleness_ms: u64) -> Scope {
    Scope {
        abort_timeout_ms: 2_000,
        loop_timeout_ms: 4_000,
        result_staleness_ms: staleness_ms,
        ..Scope::default()
    }
}

fn cache_config(on: bool) -> P2pConfig {
    P2pConfig {
        result_cache: on,
        result_cache_ttl_ms: WIDE_BOUND_MS,
        tuples_per_node: 2,
        eval_delay_ms: 1,
        hop_cost_ms: 0,
        ..P2pConfig::default()
    }
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn planted_service(owner: &str) -> Element {
    Element::new("service").with_field("owner", owner).with_field("load", "0.050")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Staleness bound 0: cache-on and cache-off networks must agree on
    /// results *and* metrics for every draw — the cache may not even be
    /// consulted.
    #[test]
    fn sim_equivalent_at_staleness_zero(n in 4usize..20, seed in 0u64..50) {
        let topo = Topology::random_connected(n, 3.0, seed);
        let mut on = SimNetwork::build(topo.clone(), NetworkModel::constant(5), cache_config(true));
        let mut off = SimNetwork::build(topo, NetworkModel::constant(5), cache_config(false));
        for q in [QUERY, "//service[load < 0.5]/owner", QUERY] {
            let a = on.run_query(NodeId(0), q, scope(0), ResponseMode::Routed);
            let b = off.run_query(NodeId(0), q, scope(0), ResponseMode::Routed);
            prop_assert_eq!(a.results, b.results);
            prop_assert_eq!(a.metrics, b.metrics);
        }
        prop_assert_eq!(on.metrics().family_sum("updf_result_cache_hits_total"), 0, "bound 0 must never consult the cache");
        prop_assert_eq!(on.metrics().family_sum("updf_result_cache_insertions_total"), 0, "bound 0 must never populate the cache");
    }

    /// Expired entries are as good as no entries: with a 1 ms TTL and
    /// f21-style enormous timeouts (each run drains its giant deadline
    /// timer, racing the virtual clock far past any TTL), every lookup
    /// stale-rejects and the runs must match cache-off exactly.
    #[test]
    fn sim_equivalent_when_every_entry_has_expired(n in 4usize..16, seed in 0u64..30) {
        let wide = Scope {
            abort_timeout_ms: 1 << 40,
            loop_timeout_ms: 1 << 41,
            result_staleness_ms: WIDE_BOUND_MS,
            ..Scope::default()
        };
        let topo = Topology::random_connected(n, 3.0, seed);
        let config = P2pConfig { result_cache_ttl_ms: 1, ..cache_config(true) };
        let mut on = SimNetwork::build(topo.clone(), NetworkModel::constant(5), config);
        let mut off = SimNetwork::build(topo, NetworkModel::constant(5), cache_config(false));
        for _ in 0..3 {
            let a = on.run_query(NodeId(0), QUERY, wide.clone(), ResponseMode::Routed);
            let b = off.run_query(NodeId(0), QUERY, wide.clone(), ResponseMode::Routed);
            prop_assert_eq!(a.results, b.results);
            prop_assert_eq!(a.metrics.nodes_evaluated, b.metrics.nodes_evaluated);
            prop_assert_eq!(a.metrics.messages_total(), b.metrics.messages_total());
            prop_assert_eq!(a.metrics.cache_served, 0);
        }
        prop_assert_eq!(on.metrics().family_sum("updf_result_cache_hits_total"), 0, "expired entries must never be served");
        prop_assert!(on.metrics().family_sum("updf_result_cache_insertions_total") > 0, "entries were actually created");
        prop_assert!(on.metrics().family_sum("updf_result_cache_stale_rejects_total") > 0, "and rejected on age");
    }
}

/// Publish, refresh and unpublish each bump the mutated node's registry
/// epoch, which evicts that node's cache entries at the very next lookup:
/// a query issued any time after a local mutation reflects it.
#[test]
fn sim_mutations_invalidate_before_the_next_query() {
    let mut net =
        SimNetwork::build(Topology::line(3), NetworkModel::constant(5), cache_config(true));
    let run = |net: &mut SimNetwork| {
        let r = net.run_query(NodeId(0), QUERY, scope(WIDE_BOUND_MS), ResponseMode::Routed);
        (sorted(r.results), r.metrics)
    };

    // Cold flood, then a cache-served repeat: identical answers.
    let (baseline, cold) = run(&mut net);
    assert_eq!(baseline.len(), 6, "3 nodes x 2 services");
    assert_eq!(cold.nodes_evaluated, 3);
    let (repeat, warm) = run(&mut net);
    assert_eq!(repeat, baseline);
    assert!(warm.cache_served > 0, "repeat must be answered from cache");
    assert_eq!(warm.nodes_evaluated, 0, "a hop-0 hit floods nothing");

    // Publish at the originator: its entry is evicted by the epoch check
    // before the next query evaluates, so the new service appears — while
    // the untouched downstream nodes still answer from *their* entries at
    // hop 1 (cache_served with exactly one fresh evaluation).
    let link = "http://planted.example.org/storage/0";
    net.plant_service(NodeId(0), "storage", link, planted_service("planted.example.org"));
    let invalidations_before = net.metrics().family_sum("updf_result_cache_invalidations_total");
    let (with_planted, after_publish) = run(&mut net);
    assert!(
        with_planted.contains(&"<owner>planted.example.org</owner>".to_owned()),
        "publish must be visible immediately: {with_planted:?}"
    );
    assert_eq!(with_planted.len(), baseline.len() + 1);
    assert!(
        net.metrics().family_sum("updf_result_cache_invalidations_total") > invalidations_before
    );
    assert_eq!(after_publish.nodes_evaluated, 1, "only the mutated node re-evaluates");
    assert!(after_publish.cache_served > 0, "downstream subtree served at hop 1");

    // Refresh is a mutation too. The post-publish run above was answered
    // partly from cache (tainted), so the originator deliberately did not
    // repopulate for QUERY — use a second query, cold-flooded fresh, so
    // the originator holds a valid entry for refresh to invalidate.
    let run2 = |net: &mut SimNetwork| {
        let q2 = "//service[load < 0.9]/owner";
        let r = net.run_query(NodeId(0), q2, scope(WIDE_BOUND_MS), ResponseMode::Routed);
        (sorted(r.results), r.metrics)
    };
    let (second_cold, m) = run2(&mut net);
    assert_eq!(m.nodes_evaluated, 3, "cold flood for the second query");
    let (second_repeat, m) = run2(&mut net);
    assert_eq!(second_repeat, second_cold);
    assert_eq!(m.nodes_evaluated, 0, "hop-0 hit on the fresh entry");
    net.registry(NodeId(0)).refresh(link, Some(WIDE_BOUND_MS)).expect("refresh planted");
    let invalidations_before = net.metrics().family_sum("updf_result_cache_invalidations_total");
    let (after_refresh, m) = run2(&mut net);
    assert_eq!(after_refresh, second_cold, "refresh changes no content");
    assert!(
        net.metrics().family_sum("updf_result_cache_invalidations_total") > invalidations_before
    );
    assert_eq!(m.nodes_evaluated, 1, "the refreshed node re-evaluates, hop 1 serves the rest");

    // Unpublish: the tuple disappears with no stale-hit window.
    net.registry(NodeId(0)).unpublish(link).expect("unpublish planted");
    let (after_remove, _) = run(&mut net);
    assert_eq!(after_remove, baseline, "removed tuple must not be served from cache");
}

/// Leak regression: a long history of distinct queries cannot grow the
/// caches past their LRU capacity — entries stay proportional to the
/// capacity bound, never to the transaction count.
#[test]
fn sim_result_cache_stays_bounded_across_many_transactions() {
    const TXNS: usize = 120;
    const CAPACITY: usize = 8;
    let nodes = 3;
    let config = P2pConfig { result_cache_capacity: CAPACITY, ..cache_config(true) };
    let mut net = SimNetwork::build(Topology::line(nodes), NetworkModel::constant(5), config);
    for i in 0..TXNS {
        // Distinct query strings: every transaction inserts a new entry.
        let q = format!("//service[load < 0.{:03}]/owner", 100 + i);
        let run = net.run_query(NodeId(0), &q, scope(WIDE_BOUND_MS), ResponseMode::Routed);
        assert!(run.completeness.is_complete());
    }
    let entries = net.metrics().family_sum("updf_result_cache_entries_total") as usize;
    assert!(
        entries <= CAPACITY * nodes,
        "cache leak: {entries} entries across {nodes} nodes after {TXNS} txns \
         (capacity {CAPACITY}/node)"
    );
    assert!(
        net.metrics().family_sum("updf_result_cache_evictions_total") > 0,
        "LRU must actually have evicted"
    );
    assert!(
        net.metrics().family_sum("updf_result_cache_insertions_total") as usize >= TXNS,
        "every txn populated"
    );
}

/// The live engine end to end over real sockets/threads: repeats of a hot
/// query are cache-served, a bound of 0 refuses the warm cache, and a
/// publish at a peer is visible to the very next query.
#[test]
fn live_cache_serves_repeats_and_invalidates_on_publish() {
    let mut net = LiveNetwork::start(Topology::line(3), 2, 17);
    let wide = Scope { result_staleness_ms: 60_000, ..Scope::default() };
    let timeout = Duration::from_secs(10);

    let baseline = {
        let r = net.query_with_scope(NodeId(0), QUERY, wide.clone(), timeout);
        assert!(r.completeness.is_complete());
        sorted(r.results)
    };
    assert!(
        net.metrics().family_sum("updf_result_cache_insertions_total") > 0,
        "cold flood must populate"
    );

    let repeat = sorted(net.query_with_scope(NodeId(0), QUERY, wide.clone(), timeout).results);
    assert_eq!(repeat, baseline);
    assert!(
        net.metrics().family_sum("updf_result_cache_hits_total") > 0,
        "repeat must be cache-served"
    );

    // Staleness bound 0 never consults the warm cache.
    let hits_before = net.metrics().family_sum("updf_result_cache_hits_total");
    let strict = sorted(net.query_with_scope(NodeId(0), QUERY, scope(0), timeout).results);
    assert_eq!(strict, baseline);
    assert_eq!(
        net.metrics().family_sum("updf_result_cache_hits_total"),
        hits_before,
        "bound 0 must bypass the cache"
    );

    // Publish at the entry peer: visible to the next query, cached or not.
    net.registry(NodeId(0))
        .publish(
            wsda_registry::PublishRequest::new("http://planted.example.org/storage/0", "service")
                .with_ttl_ms(u64::MAX / 8)
                .with_content(planted_service("planted.example.org")),
        )
        .expect("live publish");
    let after = sorted(net.query_with_scope(NodeId(0), QUERY, wide, timeout).results);
    assert!(
        after.contains(&"<owner>planted.example.org</owner>".to_owned()),
        "live publish must be visible immediately: {after:?}"
    );
    assert_eq!(after.len(), baseline.len() + 1);
}
