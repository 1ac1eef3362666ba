//! Parse-once guarantees for the per-node compiled-query cache: a query
//! string is compiled at most once per node, no matter how many hops,
//! repeated runs, or retransmitted/duplicated `Query` frames carry it.

use wsda_net::model::{ChaosPlan, NetworkModel};
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_updf::{P2pConfig, RecoveryConfig, SimNetwork, Topology};

const QUERY: &str = r#"//service[load < 0.5]/owner"#;

fn line4() -> Topology {
    // A 3-hop chain: 0 — 1 — 2 — 3.
    Topology::from_edges(4, [(0, 1), (1, 2), (2, 3)])
}

fn wide_scope() -> Scope {
    Scope { abort_timeout_ms: 1 << 40, loop_timeout_ms: 1 << 41, ..Scope::default() }
}

#[test]
fn repeated_query_parses_once_per_node_across_hops() {
    let mut net = SimNetwork::build(line4(), NetworkModel::constant(5), P2pConfig::default());
    assert_eq!(
        net.metrics().family_sum("updf_query_cache_parses_total"),
        0,
        "nothing compiled before the first run"
    );

    let first = net.run_query(NodeId(0), QUERY, wide_scope(), ResponseMode::Routed);
    assert!(first.completeness.is_complete());
    assert_eq!(
        net.metrics().family_sum("updf_query_cache_parses_total"),
        4,
        "each of the 4 nodes compiled the query exactly once"
    );

    // The same query string again — new transaction, same 3-hop path:
    // zero re-parses anywhere, every node hits its cache.
    let hits_before = net.metrics().family_sum("updf_query_cache_hits_total");
    let second = net.run_query(NodeId(0), QUERY, wide_scope(), ResponseMode::Routed);
    assert!(second.completeness.is_complete());
    assert_eq!(
        net.metrics().family_sum("updf_query_cache_parses_total"),
        4,
        "re-running a cached query never re-parses"
    );
    assert_eq!(net.metrics().family_sum("updf_query_cache_hits_total"), hits_before + 4);

    // A different query string compiles once per node again.
    net.run_query(NodeId(0), "//service", wide_scope(), ResponseMode::Routed);
    assert_eq!(net.metrics().family_sum("updf_query_cache_parses_total"), 8);
}

#[test]
fn retransmitted_query_frames_do_not_reparse() {
    // Duplicate every frame: each node sees the `Query` frame at least
    // twice (the duplicate arrival is exactly what a retransmission looks
    // like on the receive path), and recovery's ack/replay machinery runs.
    let cfg = P2pConfig { recovery: RecoveryConfig::on(), ..P2pConfig::default() };
    let mut net = SimNetwork::build_with_faults(
        line4(),
        NetworkModel::constant(5),
        ChaosPlan::none().with_duplication(1.0),
        cfg,
    );
    let run = net.run_query(NodeId(0), QUERY, wide_scope(), ResponseMode::Routed);
    assert!(run.completeness.is_complete());
    assert!(
        run.metrics.duplicates_suppressed > 0,
        "duplicated Query frames must actually have arrived"
    );
    assert_eq!(
        net.metrics().family_sum("updf_query_cache_parses_total"),
        4,
        "duplicate/retransmitted Query frames are served from the cache"
    );

    // And a full re-run on the same (now warm) network still adds nothing.
    net.run_query(NodeId(0), QUERY, wide_scope(), ResponseMode::Routed);
    assert_eq!(net.metrics().family_sum("updf_query_cache_parses_total"), 4);
}
