//! `sim_flood`: repeated radius-24 floods of F21's 10%-selectivity query
//! on the discrete-event engine, 10,000 nodes under `P2pConfig::for_scale`.
//!
//! Every experiment from F5 to F23 runs on this engine. Its event loop and
//! timers dominate, its registries hold 4 tuples each, and nothing touches
//! a socket: the no-change control for wire and registry changes.

use crate::ops::Rng;
use crate::oracle;
use crate::report::Report;
use crate::spans::{registry_query_span, Tracer};
use crate::{host, stats, Run, SETUP_REPS};
use std::hint::black_box;
use std::time::Instant;
use wsda_net::model::NetworkModel;
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_registry::Freshness;
use wsda_updf::{P2pConfig, QueryRun, SimNetwork, Topology};
use wsda_xq::Query;

/// Floods per second of `--seconds` (2-core x86-64 host): sizes the fixed
/// op stream so one run measures about the requested time.
const FLOODS_PER_SECOND: f64 = 1.0;

const NODES: usize = 10_000;
const DEGREE: f64 = 3.0;
const RADIUS: u32 = 24;
const ORIGIN: NodeId = NodeId(0);

/// F21's query: ~10% of services match, so floods measure traversal and
/// merge rather than bulk result shipping.
pub const QUERY: &str = r#"//service[interface/@type = "ReplicaCatalog-2.0"]/owner"#;

/// Providers renew this many leases, at random nodes, before each flood.
const REFRESHES_PER_FLOOD: usize = 64;

/// Lease the engine publishes with, and refreshes renew.
const LEASE_MS: u64 = u64::MAX / 8;

/// Replays of the per-node evaluations in the traced run.
const REPLAYS: usize = 3;

fn scope() -> Scope {
    Scope {
        radius: Some(RADIUS),
        abort_timeout_ms: 1 << 40,
        loop_timeout_ms: 1 << 41,
        ..Scope::default()
    }
}

fn build(seed: u64, nodes: usize) -> SimNetwork {
    let topology = Topology::random_connected(nodes, DEGREE, seed);
    SimNetwork::build(
        topology,
        NetworkModel::constant(5),
        P2pConfig { seed, ..P2pConfig::for_scale() },
    )
}

fn flood(sim: &mut SimNetwork) -> QueryRun {
    sim.run_query(ORIGIN, QUERY, scope(), ResponseMode::Routed)
}

/// Set-up as a user pays it: build the network, then the first flood,
/// which materializes every reached node's lazy registry. Each part's
/// milliseconds go to `build_ms` and `first_ms`.
fn setup(
    seed: u64,
    nodes: usize,
    build_ms: &mut Vec<f64>,
    first_ms: &mut Vec<f64>,
) -> (SimNetwork, QueryRun) {
    let started = Instant::now();
    let mut sim = build(seed, nodes);
    build_ms.push(started.elapsed().as_secs_f64() * 1e3);
    let started = Instant::now();
    let first = flood(&mut sim);
    first_ms.push(started.elapsed().as_secs_f64() * 1e3);
    (sim, first)
}

/// One request of the op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Flood the query from the origin.
    Flood,
    /// Renew the lease of tuple `tuple` (in link order) at `node`.
    Refresh {
        /// Node whose registry holds the tuple.
        node: u32,
        /// Index into the node's sorted links.
        tuple: usize,
    },
}

/// The seed's op stream: `floods` floods, each after
/// [`REFRESHES_PER_FLOOD`] lease refreshes at random nodes.
pub fn op_stream(seed: u64, nodes: usize, tuples: usize, floods: usize) -> Vec<Op> {
    let mut pick = Rng::new(seed, 3);
    let mut stream = Vec::with_capacity(floods * (REFRESHES_PER_FLOOD + 1));
    for _ in 0..floods {
        for _ in 0..REFRESHES_PER_FLOOD {
            let node = pick.below(nodes) as u32;
            stream.push(Op::Refresh { node, tuple: pick.below(tuples) });
        }
        stream.push(Op::Flood);
    }
    stream
}

/// Sorted links of every node the stream refreshes.
fn refresh_links(sim: &SimNetwork, ops: &[Op]) -> std::collections::HashMap<u32, Vec<String>> {
    let links = Query::parse("/tuple/@link").expect("link query parses");
    let mut out = std::collections::HashMap::new();
    for op in ops {
        if let Op::Refresh { node, .. } = *op {
            out.entry(node).or_insert_with(|| {
                let result = sim.registry(NodeId(node)).query(&links, &Freshness::any());
                let mut v: Vec<String> =
                    result.expect("link query").results.iter().map(|l| l.string_value()).collect();
                v.sort();
                v
            });
        }
    }
    out
}

/// Per-flood exact counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FloodCounts {
    messages: u64,
    nodes_evaluated: u64,
    timers: u64,
}

/// Run the workload.
pub fn run(run: &Run) -> Report {
    let nodes = if run.tiny { 200 } else { NODES };
    let tuples = P2pConfig::for_scale().tuples_per_node;
    let mut report = Report::new("sim_flood", run.seed, run.trace);

    let mut build_ms = Vec::new();
    let mut first_ms = Vec::new();
    // Its set-up takes a second: all of them come first, where the first
    // ones, which fault in fresh memory and fill the string interner, are
    // as slow as a user's.
    let mut probe = host::SpeedProbe::default();
    let ((mut sim, first), setup_s) = crate::set_up(SETUP_REPS, &mut probe, || {
        setup(run.seed, nodes, &mut build_ms, &mut first_ms)
    });
    let distances = sim.topology().distances_from(ORIGIN);
    let reached: Vec<NodeId> =
        (0..nodes as u32).filter(|&i| distances[i as usize] <= RADIUS).map(NodeId).collect();
    let reachable = reached.len() as u64;
    let ops = op_stream(run.seed, nodes, tuples, run.ops(FLOODS_PER_SECOND));
    let links = refresh_links(&sim, &ops);
    let first_ok = oracle::flood_ok(
        first.completeness.is_complete(),
        &first.results,
        &first.results,
        first.metrics.nodes_evaluated,
        reachable,
    );

    let mut tracer = Tracer::new();
    let mut flood_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut timeline = stats::Timeline::default();
    let mut counts: Vec<FloodCounts> = Vec::new();
    let mut wrong = u64::from(!first_ok);
    let parses_before = sim.metrics().family_sum("updf_query_cache_parses_total");
    for (i, op) in ops.iter().enumerate() {
        // Every write is traced; floods alternate, for the overhead figure.
        tracer.active = run.trace;
        let id = i as u64;
        report.attempted += 1;
        if let Op::Refresh { node, tuple } = *op {
            let registry = sim.registry(NodeId(node));
            let link = &links[&node][tuple];
            let started = Instant::now();
            let outcome =
                tracer.record("registry.refresh", id, || registry.refresh(link, Some(LEASE_MS)));
            let elapsed = started.elapsed().as_secs_f64();
            timeline.push(false, elapsed);
            report.failed += u64::from(outcome.is_err());
            continue;
        }
        probe.sample();
        let timers_before = sim.timers_scheduled();
        tracer.active = run.trace && flood_ms.len() % 2 == 0;
        let root = tracer.begin("engine.run_query", id);
        let started = Instant::now();
        let run_out = flood(&mut sim);
        let elapsed = started.elapsed().as_secs_f64();
        tracer.end(root);
        timeline.push(true, elapsed);
        let ms = elapsed * 1e3;
        flood_ms.push(ms);
        if run.trace {
            if tracer.active { &mut traced_ms } else { &mut untraced_ms }.push(ms);
        }
        counts.push(FloodCounts {
            messages: run_out.metrics.messages_total(),
            nodes_evaluated: run_out.metrics.nodes_evaluated,
            timers: sim.timers_scheduled() - timers_before,
        });
        if !oracle::flood_ok(
            run_out.completeness.is_complete(),
            &run_out.results,
            &first.results,
            run_out.metrics.nodes_evaluated,
            reachable,
        ) {
            report.failed += 1;
            wrong += 1;
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    let parses = sim.metrics().family_sum("updf_query_cache_parses_total") - parses_before;
    report.failed += u64::from(!first_ok);
    report.note(format!(
        "oracle: repeat floods equal the first flood's results, Complete, with every one of \
         {reachable} reachable nodes evaluated; {wrong} floods failed"
    ));
    let last =
        *counts.last().unwrap_or(&FloodCounts { messages: 0, nodes_evaluated: 0, timers: 0 });
    if counts.iter().any(|c| *c != last) {
        report.note(format!("COUNT DRIFT between floods of one run: {counts:?}"));
    }

    let n_floods = flood_ms.len() as u64;
    crate::report_latency(&mut report, &timeline, "publish (lease refresh at a node)", &probe);
    let flood_p50 = timeline.summary().query_p50_ms;
    report.set("peak_rss_mb", peak_rss_mb);
    let in_order: Vec<String> = flood_ms.iter().map(|ms| format!("{ms:.0}")).collect();
    report.note(format!("flood ms in run order: {}", in_order.join(" ")));

    report.counts.insert("engine.messages_per_flood", last.messages);
    report.counts.insert("engine.nodes_evaluated", last.nodes_evaluated);
    report.counts.insert("engine.timers_scheduled", last.timers);
    report.counts.insert("xq.parses", parses);
    report.set("engine.messages_per_flood", last.messages as f64);
    report.set("engine.nodes_evaluated", last.nodes_evaluated as f64);
    report.set("engine.timers_scheduled", last.timers as f64);
    report.set("registry.evals_per_query", last.nodes_evaluated as f64);
    report.set("xq.parses_per_query", parses as f64 / n_floods.max(1) as f64);

    if run.trace {
        // Replay every reached node's local evaluation outside the timed
        // window: what the event loop spends evaluating, as opposed to
        // scheduling, routing and merging.
        tracer.active = true;
        let span_id = u64::MAX;
        let query = Query::parse(QUERY).expect("F21 query parses");
        for _ in 0..100 {
            black_box(tracer.record("xq.parse", span_id, || Query::parse(QUERY)).ok());
        }
        let span = registry_query_span(query.profile().class);
        let mut eval_ms = Vec::new();
        let mut counts = crate::EvalCounts::default();
        for rep in 0..REPLAYS {
            let mut total_s = 0.0;
            for &node in &reached {
                let registry = sim.registry(node);
                let started = Instant::now();
                let out = tracer
                    .record(span, span_id, || registry.query(&query, &Freshness::any()))
                    .expect("local eval");
                let items =
                    tracer.record("xml.serialize", span_id, || oracle::serialize(&out.results));
                total_s += started.elapsed().as_secs_f64();
                if rep == 0 {
                    counts.add(&out, &items);
                }
            }
            eval_ms.push(total_s * 1e3);
        }
        let eval = stats::median(&eval_ms);
        report.set("engine.eval_share", eval / flood_p50);
        report.set("engine.loop_ms", flood_p50 - eval);
        counts.report(&mut report, 1);
        for (metric, span) in [
            ("xq.compile_us", "xq.parse"),
            ("registry.eval_us.simple", "registry.query.simple"),
            ("registry.eval_us.medium", "registry.query.medium"),
            ("registry.eval_us.complex", "registry.query.complex"),
            ("registry.refresh_us", "registry.refresh"),
            ("xml.serialize_us", "xml.serialize"),
        ] {
            report.set(metric, stats::median(&tracer.micros(span)));
        }
        crate::report_overhead(&mut report, &traced_ms, &untraced_ms);
        report.note(format!(
            "engine.eval_share: replayed eval+serialize at {reachable} nodes ({eval:.1} ms, median \
             of {REPLAYS}) over the median flood"
        ));
    }
    drop(sim);
    crate::report_setup(&mut report, &setup_s, &probe);
    report.note(format!(
        "setup: build {:.1} ms + first (materializing) flood {:.1} ms, medians of {SETUP_REPS}",
        stats::median(&build_ms),
        stats::median(&first_ms)
    ));
    report.set("engine.build_ms", stats::median(&build_ms));
    report.set("engine.materialize_ms", stats::median(&first_ms) - flood_p50);
    if !run.tiny {
        crate::finish(&mut report, &tracer);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_repeats_for_a_seed_and_differs_across_seeds() {
        let a = op_stream(1, 100, 4, 5);
        assert_eq!(a, op_stream(1, 100, 4, 5));
        assert_ne!(a, op_stream(2, 100, 4, 5));
        assert_eq!(a.iter().filter(|op| **op == Op::Flood).count(), 5);
        assert_eq!(a.len(), 5 * (REFRESHES_PER_FLOOD + 1));
    }
}
