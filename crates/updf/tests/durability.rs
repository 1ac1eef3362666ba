//! Kill-and-restart durability tests for both UPDF engines.
//!
//! The live overlay test is the acceptance criterion of the durability
//! work: a peer is killed (hung process), the overlay degrades to partial
//! answers, and after [`LiveNetwork::restart_from_disk`] the peer rejoins
//! and serves exactly its durable tuples again. The simulator test drives
//! the same restart path at virtual time, tied to a [`ChaosPlan`] crash
//! window.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wsda_net::model::{ChaosPlan, NetworkModel};
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_registry::{Freshness, HyperRegistry, PublishRequest};
use wsda_updf::{LiveNetwork, P2pConfig, RecoveryConfig, SimNetwork, Topology};
use wsda_xml::parse_fragment;
use wsda_xq::{Item, Query};

const QUERY: &str = r#"//service[load < 0.5]/owner"#;

fn fresh_root(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "wsda-durability-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn local_results(registry: &HyperRegistry, query: &str) -> Vec<String> {
    let q = Query::parse(query).unwrap();
    registry.query(&q, &Freshness::any()).unwrap().results.iter().map(Item::serialize).collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// Acceptance test: a killed live peer restarted from disk answers
/// overlay queries from its durable state.
#[test]
fn killed_live_peer_restarts_from_disk_and_serves_durable_tuples() {
    let root = fresh_root("live");
    let recovery = RecoveryConfig {
        enabled: true,
        ack_timeout_ms: 80,
        max_retries: 2,
        backoff_factor: 2,
        jitter_ms: 10,
        watchdog_timeout_ms: 300,
        ..RecoveryConfig::live_default()
    };
    // Node 1 roots the subtree {1, 3, 4} of tree(7, 2).
    let mut net = LiveNetwork::start_durable(Topology::tree(7, 2), 3, 17, recovery, &root).unwrap();
    let expected = {
        let mut all = Vec::new();
        for i in 0..net.topology().len() as u32 {
            all.extend(local_results(net.registry(NodeId(i)), QUERY));
        }
        sorted(all)
    };
    assert!(!expected.is_empty(), "corpus must contain matches");
    let node1_before = sorted(local_results(net.registry(NodeId(1)), QUERY));

    // Healthy overlay answers in full.
    let before = sorted(net.query(NodeId(0), QUERY, None, Duration::from_secs(10)));
    assert_eq!(before, expected);

    // Hang node 1: the overlay degrades to a partial answer.
    net.kill(NodeId(1));
    let partial = net.query_full(NodeId(0), QUERY, None, Duration::from_secs(20));
    assert!(
        !partial.completeness.is_complete(),
        "a hung subtree must be reported, got {:?}",
        partial.completeness
    );
    assert!(partial.results.len() < expected.len(), "the dead subtree's items are missing");

    // Restart from disk: the registry comes back from WAL + snapshot.
    let report = net.restart_from_disk(NodeId(1)).unwrap();
    assert_eq!(report.recovered_tuples, 3, "all durable tuples recovered: {report:?}");
    assert_eq!(
        sorted(local_results(net.registry(NodeId(1)), QUERY)),
        node1_before,
        "the recovered registry serves exactly its pre-kill tuples"
    );

    // The restarted peer answers overlay queries again. Entering at the
    // restarted node is deterministic: replies toward a parent are never
    // breaker-gated, so no rehabilitation round-trips are needed.
    let after = sorted(net.query(NodeId(1), QUERY, None, Duration::from_secs(10)));
    assert_eq!(after, expected, "killed+restarted node answers from durable state");
}

/// A lease that lapses while the peer is down must be swept on restart,
/// not resurrected — the soft-state contract survives the crash.
#[test]
fn live_restart_sweeps_leases_that_lapsed_while_down() {
    let root = fresh_root("gap");
    let mut net =
        LiveNetwork::start_durable(Topology::line(2), 2, 23, RecoveryConfig::live_default(), &root)
            .unwrap();
    let ephemeral = "<service><owner>ephemeral</owner><load>0.1</load></service>";
    net.registry(NodeId(1))
        .publish(
            PublishRequest::new("http://ephemeral", "service")
                .with_ttl_ms(1_000) // the registry's minimum lease
                .with_content(parse_fragment(ephemeral).unwrap()),
        )
        .unwrap();
    assert!(
        local_results(net.registry(NodeId(1)), QUERY).iter().any(|r| r.contains("ephemeral")),
        "the short-lease tuple is live before the crash"
    );
    net.kill(NodeId(1));
    // The lease lapses during the downtime gap (the shared wall clock
    // keeps running while the peer is down).
    std::thread::sleep(Duration::from_millis(1_300));
    let report = net.restart_from_disk(NodeId(1)).unwrap();
    assert!(report.swept >= 1, "the lapsed lease is swept on recovery: {report:?}");
    assert_eq!(report.recovered_tuples, 2, "the long-lease corpus survives: {report:?}");
    assert!(
        !local_results(net.registry(NodeId(1)), QUERY).iter().any(|r| r.contains("ephemeral")),
        "a lease that lapsed while down must not be resurrected"
    );
}

/// Simulator: a node silenced by a `ChaosPlan` crash window loses query
/// traffic; after the window, `restart_node_from_disk` rebuilds it from
/// its WAL at virtual time and the overlay answers in full again.
#[test]
fn sim_crash_window_then_restart_from_disk_rejoins() {
    let root = fresh_root("sim");
    let config = P2pConfig {
        tuples_per_node: 3,
        seed: 11,
        persist_root: Some(root.clone()),
        ..P2pConfig::default()
    };
    // Node 1 is crashed from t=0 until t=5s of virtual time.
    let plan = ChaosPlan::none().crash(NodeId(1), 0, Some(5_000));
    let mut net = SimNetwork::build_with_faults(
        Topology::tree(7, 2),
        NetworkModel::constant(10),
        plan,
        config,
    );
    let expected = {
        let mut all = Vec::new();
        for i in 0..net.topology().len() as u32 {
            all.extend(local_results(net.registry(NodeId(i)), QUERY));
        }
        sorted(all)
    };
    assert!(!expected.is_empty(), "corpus must contain matches");

    // During the crash window the subtree under node 1 is unreachable.
    let during = net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
    assert!(
        during.results.len() < expected.len(),
        "the crashed subtree's items must be missing during the window"
    );

    // Leave the window behind, then restart the node from disk at virtual
    // time — the sim analogue of a process coming back after downtime.
    if net.now().millis() < 6_000 {
        let gap = 6_000 - net.now().millis();
        net.advance_time(gap);
    }
    let report = net.restart_node_from_disk(NodeId(1)).unwrap();
    assert_eq!(report.recovered_tuples, 3, "durable tuples recovered: {report:?}");
    assert!(report.replayed > 0, "recovery replayed the node's WAL: {report:?}");

    let after = net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
    assert_eq!(sorted(after.results), expected, "restarted node serves its durable tuples");
    assert!(after.completeness.is_complete());
}
