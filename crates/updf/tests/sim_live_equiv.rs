//! The simulator and the live peers run the same node core, so on the
//! same seed, topology and corpus they must agree: the same result
//! multiset, and the same number of messages of each kind on every
//! peer-to-peer link.
//!
//! The simulator runs with the live driver's constants (no hop cost, the
//! peer lifecycle on, dynamic abort timeouts) and the live network runs
//! on the in-process transport with no chaos. Both use ack and watchdog
//! timeouts far above the run time, so nothing retransmits. Messages are
//! counted from each sender's trace events: `Forward` is a query, and a
//! `Results` or `Ack` event names the peer on the other end, so the live
//! client's own edge is left out.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wsda_net::model::NetworkModel;
use wsda_net::NodeId;
use wsda_obs::{TraceEvent, TraceKind};
use wsda_pdp::{ResponseMode, Scope};
use wsda_updf::{LiveNetwork, P2pConfig, RecoveryConfig, SimNetwork, TimeoutMode, Topology};

const SEED: u64 = 31;
const TUPLES: usize = 3;
const QUERIES: [&str; 2] = ["//service/owner", r#"//service[load < 0.5]/owner"#];

fn recovery() -> RecoveryConfig {
    RecoveryConfig {
        ack_timeout_ms: 600_000,
        watchdog_timeout_ms: 600_000,
        ..RecoveryConfig::live_default()
    }
}

fn sim(topology: Topology) -> SimNetwork {
    let config = P2pConfig {
        hop_cost_ms: 0,
        lifecycle: true,
        timeout_mode: TimeoutMode::DynamicAbort,
        recovery: recovery(),
        seed: SEED,
        tuples_per_node: TUPLES,
        ..P2pConfig::default()
    };
    SimNetwork::build(topology, NetworkModel::constant(1), config)
}

/// Messages sent peer to peer, by kind, counted from trace events.
fn p2p_messages(events: &[TraceEvent], client: &str) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for e in events {
        let to_peer = e.peer.as_deref().is_some_and(|p| p != client);
        let kind = match e.kind {
            TraceKind::Forward => "query",
            TraceKind::Results if to_peer => "results",
            TraceKind::Ack if to_peer => "ack",
            TraceKind::Retry | TraceKind::Abandon | TraceKind::Close => {
                panic!("nothing may retransmit, abandon or close: {e:?}")
            }
            _ => continue,
        };
        *counts.entry(kind).or_insert(0) += 1;
    }
    counts
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn assert_equivalent(name: &str, topology: impl Fn() -> Topology) {
    let mut sim = sim(topology());
    let mut live = LiveNetwork::start_with(topology(), TUPLES, SEED, recovery());
    let client = format!("n{}", live.topology().len());
    for radius in [None, Some(2)] {
        for query in QUERIES {
            let scope = Scope { radius, ..Scope::default() };
            let run = sim.run_query(NodeId(0), query, scope.clone(), ResponseMode::Routed);
            let report = live.query_with_scope(NodeId(0), query, scope, Duration::from_secs(10));
            let case = format!("{name}, radius {radius:?}, {query}");
            assert!(run.completeness.is_complete(), "{case}: sim {:?}", run.completeness);
            assert!(report.completeness.is_complete(), "{case}: live {:?}", report.completeness);
            assert_eq!(sorted(run.results), sorted(report.results), "{case}: result multisets");

            let sim_counts = p2p_messages(&sim.trace_events(run.transaction), &client);
            // The last acks land after the client has its answer: give them
            // a bounded time before comparing.
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut live_counts = p2p_messages(&live.trace_events(report.transaction), &client);
            while live_counts != sim_counts && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
                live_counts = p2p_messages(&live.trace_events(report.transaction), &client);
            }
            assert_eq!(sim_counts, live_counts, "{case}: per-kind peer-to-peer messages");
            // In the simulator every frame is peer to peer, so the trace
            // count must be the whole message count.
            assert_eq!(
                run.metrics
                    .messages_by_kind
                    .iter()
                    .map(|(k, n)| (*k, *n))
                    .collect::<BTreeMap<_, _>>(),
                sim_counts,
                "{case}: trace-derived counts cover every simulated frame"
            );
        }
    }
}

#[test]
fn tree_sim_and_live_agree() {
    assert_equivalent("tree(15, 2)", || Topology::tree(15, 2));
}

#[test]
fn line_sim_and_live_agree() {
    assert_equivalent("line(6)", || Topology::line(6));
}
