//! Overload protection in the P2P overlay: the registry admission gate
//! metering local evaluation against each hop's abort budget, per-neighbor
//! circuit breakers shedding forwards under sustained failure, and bounded
//! simulated inboxes — all observable through `QueryMetrics` and the
//! simulator's counters.

use wsda_net::model::{ChaosPlan, NetworkModel};
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_registry::AdmissionConfig;
use wsda_updf::{BreakerConfig, P2pConfig, RecoveryConfig, SimNetwork, Topology};

/// Non-sargable, so the admission cost model prices it as a full scan.
const SCAN_QUERY: &str = "count(/tuple) + count(/tuple)";

/// With the gate on and generous budgets, a protected overlay run returns
/// exactly what the unprotected overlay returns — and sheds nothing.
#[test]
fn admission_gate_is_transparent_with_affordable_budgets() {
    let mut plain =
        SimNetwork::build(Topology::tree(15, 2), NetworkModel::constant(10), P2pConfig::default());
    let mut gated = SimNetwork::build(
        Topology::tree(15, 2),
        NetworkModel::constant(10),
        P2pConfig { registry_admission: AdmissionConfig::protective(), ..P2pConfig::default() },
    );
    let a = plain.run_query(NodeId(0), SCAN_QUERY, Scope::default(), ResponseMode::Routed);
    let b = gated.run_query(NodeId(0), SCAN_QUERY, Scope::default(), ResponseMode::Routed);
    let sort = |mut v: Vec<String>| {
        v.sort();
        v
    };
    assert_eq!(sort(a.results), sort(b.results));
    assert_eq!(b.metrics.local_evals_shed, 0);
    assert_eq!(b.metrics.local_evals_degraded, 0);
    assert!(b.completeness.is_complete());
}

/// A hop whose remaining abort budget cannot cover even a minimal
/// degraded scan sheds its local evaluation — counted per run and in the
/// node registry's own counters — instead of scanning into a dead answer.
#[test]
fn admission_gate_sheds_hopeless_local_scans() {
    let config = P2pConfig {
        registry_admission: AdmissionConfig {
            // 1 s per tuple: a 4-tuple node estimates 4 s of scan, far
            // beyond any per-hop budget below.
            scan_ns_per_tuple: 1_000_000_000,
            ..AdmissionConfig::protective()
        },
        ..P2pConfig::default()
    };
    let mut net = SimNetwork::build(Topology::tree(7, 2), NetworkModel::constant(10), config);
    let scope = Scope { abort_timeout_ms: 1_000, ..Scope::default() };
    let run = net.run_query(NodeId(0), SCAN_QUERY, scope, ResponseMode::Routed);
    assert!(run.metrics.local_evals_shed > 0, "hopeless scans must be shed");
    assert!(run.results.is_empty(), "every node shed: the answer is empty, not late");
    // Each shed is also visible at the node registry that refused it.
    let registry_sheds: u64 = (0..7).map(|i| net.registry(NodeId(i)).stats().total_shed()).sum();
    assert_eq!(registry_sheds, run.metrics.local_evals_shed);
}

/// A scan that cannot finish in budget but can afford a prefix degrades
/// to a bounded partial evaluation: results become lower bounds and the
/// degradation is counted, not silent.
#[test]
fn admission_gate_degrades_scans_to_lower_bounds() {
    let config = P2pConfig {
        registry_admission: AdmissionConfig {
            // 100 ms per tuple: 4 tuples estimate 400 ms against a ~300 ms
            // budget, so ~2-3 tuples are affordable.
            scan_ns_per_tuple: 100_000_000,
            degraded_scan_min: 1,
            ..AdmissionConfig::protective()
        },
        ..P2pConfig::default()
    };
    let mut net = SimNetwork::build(Topology::line(3), NetworkModel::constant(10), config);
    let scope = Scope { abort_timeout_ms: 300, ..Scope::default() };
    let run = net.run_query(NodeId(0), SCAN_QUERY, scope, ResponseMode::Routed);
    assert!(run.metrics.local_evals_degraded > 0, "degradation must be counted");
    assert_eq!(run.metrics.local_evals_shed, 0, "affordable prefixes degrade, not shed");
    let registry_degraded: u64 =
        (0..3).map(|i| net.registry(NodeId(i)).stats().degraded.get()).sum();
    assert_eq!(registry_degraded, run.metrics.local_evals_degraded);
}

/// Under sustained loss, per-neighbor breakers open (after the configured
/// consecutive-failure streak) and later forwards to those neighbors are
/// shed at the source — while every query still terminates.
#[test]
fn breakers_open_and_shed_under_sustained_loss() {
    let recovery = RecoveryConfig {
        breaker: BreakerConfig {
            failure_threshold: 1,
            // Longer than the test: opened breakers stay open, making the
            // shed accounting deterministic.
            open_ms: 10_000_000,
            probe_timeout_ms: 300,
        },
        ..RecoveryConfig::on()
    };
    let mut net = SimNetwork::build_with_faults(
        Topology::ring(8),
        NetworkModel::constant(10),
        ChaosPlan::none().with_drops(0.35),
        P2pConfig { recovery, seed: 7, ..P2pConfig::default() },
    );
    let scope = || Scope { abort_timeout_ms: 8_000, ..Scope::default() };
    let mut opens = 0;
    let mut sheds = 0;
    for origin in 0..8u32 {
        let run = net.run_query(NodeId(origin), SCAN_QUERY, scope(), ResponseMode::Routed);
        opens += run.metrics.breaker_opens;
        sheds += run.metrics.breaker_sheds;
        assert!(
            run.metrics.time_completed.is_some() || !run.completeness.is_complete(),
            "origin {origin}: runs terminate (complete or explicitly partial)"
        );
    }
    assert!(opens > 0, "sustained loss must trip at least one breaker");
    assert!(sheds > 0, "open breakers must shed later forwards at the source");
}

/// Bounded simulated inboxes shed excess query frames (counted, never
/// silent) while the flood still terminates and delivers from every node
/// that evaluated.
#[test]
fn bounded_sim_inboxes_count_overflow() {
    let mut net = SimNetwork::build(
        Topology::full_mesh(10),
        NetworkModel::constant(10),
        P2pConfig { inbox_capacity: Some(1), ..P2pConfig::default() },
    );
    let run = net.run_query(NodeId(0), SCAN_QUERY, Scope::default(), ResponseMode::Routed);
    assert!(net.network_overflows() > 0, "a 1-deep inbox under a mesh flood must overflow");
    assert!(run.metrics.time_completed.is_some(), "overflow must not wedge the query");
    assert!(!run.results.is_empty());
}
