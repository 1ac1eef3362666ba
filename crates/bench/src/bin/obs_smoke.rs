//! Observability smoke check: boot a small live overlay, run one radius-2
//! query, export the Prometheus text exposition and the assembled query
//! trace, and fail loudly when anything expected is missing.
//!
//! CI runs this after the test suite and uploads `OBS_smoke.prom` and
//! `OBS_trace.json` as artifacts, so every green build carries a real
//! metrics snapshot and a real query tree to inspect.

use std::process::ExitCode;
use std::time::Duration;

use wsda_net::NodeId;
use wsda_updf::{LiveNetwork, Topology};

const QUERY: &str = r#"//service[load < 0.5]/owner"#;

/// Metric families every healthy overlay must export: admission,
/// planner, breaker, inbox-drop counters and the per-peer state gauges.
const REQUIRED_FAMILIES: &[&str] = &[
    "registry_queries_total",
    "registry_admitted_total",
    "registry_degraded_total",
    "registry_deferred_total",
    "registry_shed_client_total",
    "registry_shed_deadline_total",
    "registry_shed_queue_full_total",
    "registry_shed_slot_timeout_total",
    "registry_plans_index_total",
    "registry_plans_hybrid_total",
    "registry_plans_scan_total",
    "updf_breaker_sheds_total",
    "updf_breaker_opens_total",
    "updf_breaker_probes_total",
    "inbox_dropped_total",
    "updf_ledger_streams",
    "updf_state_entries",
    "updf_live_txns",
    "updf_pending_acks",
    "updf_query_cache_parses",
    "updf_query_cache_hits",
    "updf_query_cache_evictions",
    "updf_result_cache_hits_total",
    "updf_result_cache_insertions_total",
    "updf_result_cache_entries",
    "updf_peers_identified",
    "updf_peers_pending",
    "updf_peers_connected",
    "updf_peers_departed",
    "updf_rebootstraps_total",
];

fn main() -> ExitCode {
    let mut net = LiveNetwork::start(Topology::line(3), 2, 42);
    let report = net.query_full(NodeId(0), QUERY, Some(2), Duration::from_secs(10));
    if !report.completeness.is_complete() {
        eprintln!("smoke query incomplete: {:?}", report.completeness);
        return ExitCode::FAILURE;
    }
    if report.results.is_empty() {
        eprintln!("smoke query returned no results");
        return ExitCode::FAILURE;
    }
    // Let trailing acks/closes land before reading rings and gauges.
    std::thread::sleep(Duration::from_millis(200));

    let prom = net.metrics().render_prometheus();
    let mut missing = Vec::new();
    for family in REQUIRED_FAMILIES {
        if !prom.contains(family) {
            missing.push(*family);
        }
    }
    let trace = net.assemble_trace(report.transaction);
    let trace_json = trace.to_json().to_string();

    if let Err(e) = std::fs::write("OBS_smoke.prom", &prom) {
        eprintln!("could not write OBS_smoke.prom: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write("OBS_trace.json", trace_json + "\n") {
        eprintln!("could not write OBS_trace.json: {e}");
        return ExitCode::FAILURE;
    }

    if !missing.is_empty() {
        eprintln!("missing metric families: {missing:?}");
        return ExitCode::FAILURE;
    }
    if !trace.is_complete() {
        eprintln!("assembled trace incomplete: {}", trace.to_json());
        return ExitCode::FAILURE;
    }
    if trace.roots().len() != 1 {
        eprintln!("expected exactly one trace root, got {}", trace.roots().len());
        return ExitCode::FAILURE;
    }
    println!(
        "observability smoke OK: {} results, {} spans over {} events, {} metric series",
        report.results.len(),
        trace.spans.len(),
        trace.events,
        net.metrics().names().len(),
    );
    ExitCode::SUCCESS
}
