//! F19 — trace-derived query phase timings.
//!
//! Runs radius-scoped queries over the simulated P2P plane with hop-level
//! tracing on, reassembles each query tree from the per-node trace rings,
//! and reports per-hop phase timings (first receive, evaluation latency,
//! time until the hop's last results left). This regenerates the thesis's
//! query-phase discussion (dissertation section 7.9) from observed events
//! instead of analytical formulas: the per-hop receive front advances by
//! one model latency per hop, and results drain back in reverse order.
//! Emits `BENCH_p2_trace.json`.

use crate::harness::{f1 as fmt1, write_bench, Report};
use serde_json::json;
use wsda_net::model::NetworkModel;
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_updf::{P2pConfig, SimNetwork, Topology};

const QUERY: &str = r#"//service[load < 0.5]/owner"#;

/// One traced run: topology label, radius, and the assembled tree.
fn traced(topology: Topology, label: &str, radius: Option<u32>, report: &mut Report) {
    let mut net = SimNetwork::build(topology, NetworkModel::constant(10), P2pConfig::default());
    let scope = Scope { radius, ..Scope::default() };
    let run = net.run_query(NodeId(0), QUERY, scope, ResponseMode::Routed);
    let trace = net.assemble_trace(run.transaction);
    assert!(trace.is_complete(), "{label}: every span must close (got {})", trace.to_json());
    let radius_label = radius.map_or("inf".to_owned(), |r| r.to_string());
    for phase in trace.hop_phases() {
        let first_recv = phase.first_recv_ms.unwrap_or(0);
        let last_results = phase.last_results_ms.unwrap_or(0);
        report.row(
            vec![
                label.to_owned(),
                radius_label.clone(),
                phase.hop.to_string(),
                phase.nodes.to_string(),
                first_recv.to_string(),
                fmt1(phase.mean_eval_latency_ms),
                fmt1(phase.mean_results_latency_ms),
                last_results.to_string(),
            ],
            &json!({
                "topology": label,
                "radius": radius,
                "hop": phase.hop,
                "nodes": phase.nodes,
                "first_recv_ms": first_recv,
                "mean_eval_latency_ms": phase.mean_eval_latency_ms,
                "mean_results_latency_ms": phase.mean_results_latency_ms,
                "last_results_ms": last_results,
                "spans": trace.spans.len(),
                "events": trace.events,
                "results": run.results.len(),
            }),
        );
    }
}

/// Run F19.
pub fn run(quick: bool) -> Report {
    let mut report = Report::new(
        "f19",
        "Query-tree trace: per-hop phase timings",
        &[
            "topology",
            "radius",
            "hop",
            "nodes",
            "first recv ms",
            "eval latency ms",
            "results latency ms",
            "last results ms",
        ],
    );
    traced(Topology::ring(8), "ring-8", Some(2), &mut report);
    traced(Topology::tree(15, 2), "tree-15", None, &mut report);
    if !quick {
        traced(Topology::random_connected(24, 3.0, 5), "random-24", Some(3), &mut report);
        traced(Topology::line(10), "line-10", None, &mut report);
    }
    report.note(
        "per-hop aggregates over the assembled span forest: hop-h peers first receive the \
         query h model latencies after injection, and deeper hops' results drain back last \
         — the trace reproduces the flood/drain phase structure from observed events",
    );
    write_bench(&mut report, "BENCH_p2_trace.json", quick);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_hop_receive_front_advances_with_depth() {
        let mut net =
            SimNetwork::build(Topology::line(5), NetworkModel::constant(10), P2pConfig::default());
        let run = net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
        let trace = net.assemble_trace(run.transaction);
        let phases = trace.hop_phases();
        assert_eq!(phases.len(), 5, "a 5-node line has hops 0..=4");
        for pair in phases.windows(2) {
            assert!(
                pair[1].first_recv_ms > pair[0].first_recv_ms,
                "hop {} must receive after hop {}",
                pair[1].hop,
                pair[0].hop
            );
        }
    }
}
