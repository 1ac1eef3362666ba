//! Rules the simulator and the live peers share through the one node
//! core:
//!
//! * a forward shed by an open circuit breaker is a lost subtree, so the
//!   originator's run ends `Partial`, never `Complete` with a silent gap;
//! * live peers honour the scope's neighbor-selection policy rather than
//!   flooding every neighbor;
//! * a node abort reports the subtrees it gives up, so a live client
//!   whose abort budget lapses before a hung peer answers gets `Partial`;
//! * an abort budget read off the wire arms a timer, whatever its size.

use std::time::{Duration, Instant};

use wsda_net::model::{ChaosPlan, NetworkModel};
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_registry::Freshness;
use wsda_updf::{BreakerConfig, LiveNetwork, P2pConfig, RecoveryConfig, SimNetwork, Topology};
use wsda_xq::Query;

/// The overlay of `overload.rs`: a lossy ring whose breakers trip on the
/// first failure and stay open for the whole test.
fn lossy_ring() -> SimNetwork {
    let recovery = RecoveryConfig {
        breaker: BreakerConfig {
            enabled: true,
            failure_threshold: 1,
            open_ms: 10_000_000,
            probe_timeout_ms: 300,
        },
        ..RecoveryConfig::on()
    };
    SimNetwork::build_with_faults(
        Topology::ring(8),
        NetworkModel::constant(10),
        ChaosPlan::none().with_drops(0.35),
        P2pConfig { recovery, seed: 7, ..P2pConfig::default() },
    )
}

#[test]
fn sim_run_with_a_breaker_shed_forward_ends_partial() {
    let mut net = lossy_ring();
    let mut shed_runs = 0;
    for round in 0..3 {
        for origin in 0..8u32 {
            let scope = Scope { abort_timeout_ms: 8_000, ..Scope::default() };
            let run = net.run_query(NodeId(origin), "//service/owner", scope, ResponseMode::Routed);
            if run.metrics.breaker_sheds > 0 {
                shed_runs += 1;
                assert!(
                    !run.completeness.is_complete(),
                    "round {round}, origin {origin}: {} forwards shed, {} items, yet {}",
                    run.metrics.breaker_sheds,
                    run.results.len(),
                    run.completeness
                );
                assert!(
                    run.completeness.subtrees_lost() >= run.metrics.breaker_sheds,
                    "every shed forward is a lost subtree: {:?}",
                    run.completeness
                );
            }
        }
    }
    assert!(shed_runs > 0, "the lossy ring must shed at least one forward");
}

fn local_items(net: &LiveNetwork, node: NodeId, query: &Query) -> Vec<String> {
    let out = net.registry(node).query(query, &Freshness::any()).unwrap();
    out.results.iter().map(wsda_xq::Item::serialize).collect()
}

#[test]
fn live_peers_honour_the_neighbor_policy() {
    let src = "//service/owner";
    let mut net = LiveNetwork::start(Topology::star(5), 2, 23);
    let scope = Scope { neighbor_policy: "random:1".to_owned(), ..Scope::default() };
    let report = net.query_with_scope(NodeId(0), src, scope, Duration::from_secs(10));
    assert!(report.completeness.is_complete(), "{:?}", report.completeness);
    let trace = net.assemble_trace(report.transaction);
    let hub = trace.span("n0").expect("the hub's span");
    assert_eq!(hub.forwards.len(), 1, "random:1 forwards to exactly one leaf: {}", trace.to_json());
    let leaf: u32 = hub.forwards[0].trim_start_matches('n').parse().unwrap();
    assert!((1..5).contains(&leaf));
    let forwards: usize = trace.spans.iter().map(|s| s.forwards.len()).sum();
    assert_eq!(forwards, 1, "nobody else forwards: {}", trace.to_json());

    let query = Query::parse(src).unwrap();
    let mut expected = local_items(&net, NodeId(0), &query);
    expected.extend(local_items(&net, NodeId(leaf), &query));
    expected.sort();
    let mut got = report.results;
    got.sort();
    assert_eq!(got, expected, "only the hub's and the chosen leaf's items");
}

#[test]
fn live_abort_before_a_hung_subtree_answers_ends_partial() {
    let mut net = LiveNetwork::start(Topology::line(3), 2, 31);
    net.kill(NodeId(2));
    // The abort budget lapses at about 1 s, well before the watchdog
    // (1.5 s re-query, then abandon) would give up on node 2.
    let scope = Scope { abort_timeout_ms: 1_000, ..Scope::default() };
    let t0 = Instant::now();
    let report = net.query_with_scope(NodeId(0), "//service/owner", scope, Duration::from_secs(10));
    let elapsed = t0.elapsed();
    assert!(
        !report.completeness.is_complete(),
        "an abort that gives up on a subtree must say so, got {:?} with {} items",
        report.completeness,
        report.results.len()
    );
    assert!(report.errors_received >= 1, "the aborting peer reports the lost subtree");
    assert!(
        elapsed < Duration::from_millis(2_500),
        "the abort, not the watchdog, ended the query: took {elapsed:?}"
    );
}

#[test]
fn live_peer_answers_under_a_maximal_abort_budget() {
    let src = "//service/owner";
    let mut net = LiveNetwork::start(Topology::tree(7, 2), 3, 41);
    let scope = Scope { abort_timeout_ms: u64::MAX, ..Scope::default() };
    let report = net.query_with_scope(NodeId(0), src, scope, Duration::from_secs(10));
    assert!(report.completeness.is_complete(), "{:?}", report.completeness);
    let query = Query::parse(src).unwrap();
    let mut expected: Vec<String> =
        (0..7).flat_map(|i| local_items(&net, NodeId(i), &query)).collect();
    expected.sort();
    let mut got = report.results;
    got.sort();
    assert_eq!(got, expected, "every peer answers as usual");
}
