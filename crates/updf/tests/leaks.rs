//! Regression tests for the P2P state leaks: per-transaction state
//! (result-ledger streams, state-table entries, run bookkeeping, pending
//! retransmissions) must be retired once a transaction's static loop
//! timeout lapses. Before the fix the ledger was never forgotten — its
//! `forget` path was keyed so coarsely it was effectively dead code — so
//! every transaction left `(txn, sender)` streams behind forever and
//! these bounds grew linearly with the number of queries.

use std::time::Duration;

use wsda_net::model::NetworkModel;
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_updf::{LifecycleConfig, LiveNetwork, P2pConfig, SimNetwork, Topology};

const QUERY: &str = r#"//service[load < 0.5]/owner"#;
const TXNS: usize = 100;

/// Short timeouts so state expires between sequential runs: each sim run
/// advances virtual time by the abort timeout, which is past the loop
/// timeout, so the next run's sweep retires everything the previous one
/// created.
fn short_scope() -> Scope {
    Scope { abort_timeout_ms: 200, loop_timeout_ms: 100, ..Scope::default() }
}

#[test]
fn sim_ledger_and_state_stay_bounded_across_transactions() {
    let mut net =
        SimNetwork::build(Topology::line(3), NetworkModel::constant(10), P2pConfig::default());
    for _ in 0..TXNS {
        let run = net.run_query(NodeId(0), QUERY, short_scope(), ResponseMode::Routed);
        assert!(!run.results.is_empty());
    }
    // One more run so every node sweeps with all prior state expired.
    let _ = net.run_query(NodeId(0), QUERY, short_scope(), ResponseMode::Routed);
    let metrics = net.metrics();
    let streams = metrics.family_sum("updf_ledger_streams");
    let entries = metrics.family_sum("updf_state_entries");
    let txns = metrics.family_sum("updf_txn_info");
    let acks = metrics.family_sum("updf_pending_acks");
    // Only the most recent transaction may still be tracked. Pre-fix the
    // ledger alone held ~TXNS × neighbors streams here.
    let nodes = 3;
    assert!(streams <= 2 * nodes, "ledger streams leak: {streams} after {TXNS} txns");
    assert!(entries <= nodes, "state entries leak: {entries} after {TXNS} txns");
    assert!(txns <= nodes, "run bookkeeping leak: {txns} after {TXNS} txns");
    assert!(acks <= 2 * nodes, "pending-ack leak: {acks} after {TXNS} txns");
}

#[test]
fn sim_state_is_proportional_to_live_transactions_not_history() {
    // Same workload, default (long) loop timeout: state legitimately
    // accumulates, proving the bounded numbers above come from the sweep
    // and not from state never being created.
    let mut net =
        SimNetwork::build(Topology::line(3), NetworkModel::constant(10), P2pConfig::default());
    for _ in 0..10 {
        let scope = Scope { abort_timeout_ms: 200, ..Scope::default() };
        let _ = net.run_query(NodeId(0), QUERY, scope, ResponseMode::Routed);
    }
    let entries = net.metrics().family_sum("updf_state_entries");
    assert!(entries >= 10, "long loop timeout retains state: {entries}");
}

#[test]
fn sim_timer_slots_recycle_across_100k_timer_events() {
    // Every query over a star floods all leaves, scheduling one
    // LocalEvalDone + one NodeAbort per node plus the origin deadline —
    // ~800 timer events per run. 130 runs push the engine past 100k
    // scheduled timers; the slab must (a) hold zero live timers once each
    // run drains, and (b) never grow beyond the per-run high-water mark,
    // proving fired tags are retired eagerly and slots recycle instead of
    // accumulating with history (the old `timer_tags` map plus monotonic
    // tag counter kept growing keys forever).
    let nodes = 400;
    let runs = 130;
    let config = P2pConfig { tuples_per_node: 1, eval_delay_ms: 1, ..P2pConfig::default() };
    let mut net = SimNetwork::build(Topology::star(nodes), NetworkModel::constant(5), config);
    let mut high_water_after_first = 0;
    for i in 0..runs {
        let scope = Scope { abort_timeout_ms: 1 << 30, loop_timeout_ms: 100, ..Scope::default() };
        let run = net.run_query(NodeId(0), "//service", scope, ResponseMode::Routed);
        assert!(!run.results.is_empty());
        assert_eq!(net.timers_live(), 0, "run {i}: all timers must fire and be retired");
        if i == 0 {
            high_water_after_first = net.timers_high_water();
        }
    }
    assert!(
        net.timers_scheduled() > 100_000,
        "workload too small: {} timer events",
        net.timers_scheduled()
    );
    assert_eq!(net.timers_live(), 0);
    assert_eq!(
        net.timers_high_water(),
        high_water_after_first,
        "slab grew across runs: slot recycling failed ({} scheduled total)",
        net.timers_scheduled()
    );
    assert!(
        (net.timers_high_water() as u64) < net.timers_scheduled() / 50,
        "high water {} not far below {} scheduled",
        net.timers_high_water(),
        net.timers_scheduled()
    );
}

#[test]
fn live_ledger_and_state_stay_bounded_across_transactions() {
    let mut net = LiveNetwork::start(Topology::line(3), 2, 17);
    let scope = Scope { loop_timeout_ms: 10, ..Scope::default() };
    for _ in 0..TXNS {
        let report = net.query_with_scope(NodeId(0), QUERY, scope.clone(), Duration::from_secs(10));
        assert!(report.completeness.is_complete());
        // Let the loop timeout lapse so the next query's sweep retires
        // this transaction's state on every peer.
        std::thread::sleep(Duration::from_millis(15));
    }
    // A final query triggers the sweep; give the gauge loop a beat.
    let _ = net.query_with_scope(NodeId(0), QUERY, scope, Duration::from_secs(10));
    std::thread::sleep(Duration::from_millis(50));
    let metrics = net.metrics();
    let streams = metrics.family_sum("updf_ledger_streams");
    let entries = metrics.family_sum("updf_state_entries");
    let live = metrics.family_sum("updf_live_txns");
    let nodes = 3;
    assert!(streams <= 2 * nodes, "live ledger streams leak: {streams} after {TXNS} txns");
    assert!(entries <= 2 * nodes, "live state entries leak: {entries} after {TXNS} txns");
    assert!(live <= nodes, "live txn bookkeeping leak: {live} after {TXNS} txns");
}

const CYCLES: usize = 200;

#[test]
fn sim_state_stays_bounded_across_200_churn_cycles() {
    // A node that leaves and rejoins 200 times must not accumulate
    // anything anywhere: not in its own slots (reset on rejoin), and not
    // in its peers' slots (swept on departure — result-cache entries,
    // ledger streams, pending acks, breaker history, peer-table entries).
    let config = P2pConfig {
        lifecycle: LifecycleConfig::on(),
        result_cache_ttl_ms: 1 << 40,
        ..P2pConfig::default()
    };
    let mut net = SimNetwork::build(Topology::ring(4), NetworkModel::constant(10), config);
    let cache_scope =
        Scope { result_staleness_ms: 1 << 30, abort_timeout_ms: 200, ..Scope::default() };
    for cycle in 0..CYCLES {
        assert!(net.depart_node(NodeId(1)));
        net.churn_tick();
        assert!(net.rejoin_node(NodeId(1)));
        net.churn_tick();
        if cycle % 50 == 0 {
            let run = net.run_query(NodeId(0), QUERY, cache_scope.clone(), ResponseMode::Routed);
            assert!(!run.results.is_empty());
        }
    }
    assert!(net.overlay_connected());
    let metrics = net.metrics();
    let nodes = 4;
    let streams = metrics.family_sum("updf_ledger_streams");
    let acks = metrics.family_sum("updf_pending_acks");
    let known = metrics.family_sum("updf_peers_identified")
        + metrics.family_sum("updf_peers_connected")
        + metrics.family_sum("updf_peers_pending")
        + metrics.family_sum("updf_peers_departed");
    assert!(streams <= 2 * nodes, "ledger streams grew with churn cycles: {streams}");
    assert!(acks <= 2 * nodes, "pending acks grew with churn cycles: {acks}");
    // Each node can know at most every other node, however many times
    // membership flapped.
    assert!(known <= nodes * (nodes - 1), "peer tables grew with churn cycles: {known}");
    assert!(
        net.metrics().family_sum("updf_result_cache_entries_total") <= nodes,
        "result-cache entries grew with churn cycles: {}",
        net.metrics().family_sum("updf_result_cache_entries_total")
    );
}

#[test]
fn live_state_stays_bounded_across_200_join_leave_cycles() {
    let mut net = LiveNetwork::start(Topology::line(3), 2, 17);
    let scope = Scope { loop_timeout_ms: 10, ..Scope::default() };
    for cycle in 0..CYCLES {
        assert!(net.leave(NodeId(2)), "leave cycle {cycle}");
        assert!(net.join(NodeId(2)), "join cycle {cycle}");
        if cycle % 50 == 0 {
            let report =
                net.query_with_scope(NodeId(0), QUERY, scope.clone(), Duration::from_secs(10));
            assert!(!report.results.is_empty());
        }
    }
    // Let every peer's gauge loop turn over after the last membership op.
    let _ = net.query_with_scope(NodeId(0), QUERY, scope, Duration::from_secs(10));
    std::thread::sleep(Duration::from_millis(50));
    let nodes = 3;
    let metrics = net.metrics();
    let streams = metrics.family_sum("updf_ledger_streams");
    let acks = metrics.family_sum("updf_pending_acks");
    let known = metrics.family_sum("updf_peers_identified")
        + metrics.family_sum("updf_peers_connected")
        + metrics.family_sum("updf_peers_pending")
        + metrics.family_sum("updf_peers_departed");
    assert!(streams <= 2 * nodes, "live ledger streams grew with churn cycles: {streams}");
    assert!(acks <= 2 * nodes, "live pending acks grew with churn cycles: {acks}");
    assert!(known <= nodes * (nodes - 1), "live peer tables grew with churn cycles: {known}");
    assert_eq!(net.member_count() as u64, nodes);
}
