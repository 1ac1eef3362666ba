//! End-to-end P2P query tests: every response mode, scoping, loop
//! detection, pipelining, timeouts and both P2P models, validated against
//! ground truth computed by querying each node's registry directly.

use wsda_net::model::NetworkModel;
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_registry::Freshness;
use wsda_updf::{P2pConfig, QueryRun, SimNetwork, TimeoutMode, Topology};
use wsda_xml::Element;
use wsda_xq::{Item, Query};

const QUERY: &str = r#"//service[load < 0.5]/owner"#;

fn network(topology: Topology) -> SimNetwork {
    SimNetwork::build(topology, NetworkModel::constant(10), P2pConfig::default())
}

/// Ground truth: evaluate the query on every node's registry directly.
fn ground_truth(net: &SimNetwork, query: &str) -> Vec<String> {
    let q = Query::parse(query).unwrap();
    let mut out = Vec::new();
    for i in 0..net.topology().len() as u32 {
        let res = net.registry(NodeId(i)).query(&q, &Freshness::any()).unwrap();
        out.extend(res.results.iter().map(Item::serialize));
    }
    out.sort();
    out
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn flood_on_tree_finds_everything() {
    let mut net = network(Topology::tree(40, 3));
    let expected = ground_truth(&net, QUERY);
    assert!(!expected.is_empty(), "corpus must contain matches");
    let run = net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
    assert_eq!(sorted(run.results), expected);
    assert_eq!(run.metrics.nodes_evaluated, 40);
    assert_eq!(run.metrics.duplicates_suppressed, 0, "trees have no loops");
    assert!(run.metrics.time_completed.is_some());
    // Flood on a tree: one query message per edge.
    assert_eq!(run.metrics.messages("query"), 39);
}

#[test]
fn all_response_modes_agree() {
    let expected = {
        let net = network(Topology::random_connected(30, 3.0, 5));
        ground_truth(&net, QUERY)
    };
    for mode in [
        ResponseMode::Routed,
        ResponseMode::Direct { originator: "n0".into() },
        ResponseMode::Referral,
    ] {
        let mut net = network(Topology::random_connected(30, 3.0, 5));
        let run = net.run_query(NodeId(0), QUERY, Scope::default(), mode.clone());
        assert_eq!(sorted(run.results), expected, "mode {mode:?}");
    }
}

#[test]
fn loop_detection_on_cyclic_topologies() {
    let mut net = network(Topology::ring(20));
    let expected = ground_truth(&net, QUERY);
    let run = net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
    assert_eq!(sorted(run.results), expected, "no duplicated results despite the cycle");
    assert!(run.metrics.duplicates_suppressed >= 1, "the ring closes at least one loop");
    assert_eq!(run.metrics.nodes_evaluated, 20);
}

#[test]
fn full_mesh_suppresses_many_duplicates() {
    let mut net = network(Topology::full_mesh(10));
    let expected = ground_truth(&net, QUERY);
    let run = net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
    assert_eq!(sorted(run.results), expected);
    // 9 fresh deliveries out of many; everything else is a suppressed dup.
    assert!(run.metrics.duplicates_suppressed > 9);
}

#[test]
fn radius_scoping_limits_reach() {
    // Line topology: radius r reaches exactly r+1 nodes from the end.
    for radius in [0u32, 1, 3, 7] {
        let mut net = network(Topology::line(12));
        let scope = Scope { radius: Some(radius), ..Scope::default() };
        let run = net.run_query(NodeId(0), QUERY, scope, ResponseMode::Routed);
        assert_eq!(run.metrics.nodes_evaluated, (radius + 1).min(12) as u64, "radius {radius}");
        assert_eq!(run.metrics.messages("query"), radius.min(11) as u64);
    }
}

#[test]
fn pipelining_improves_time_to_first_result() {
    // Deep line; matches exist at many depths. Pipelined: the first remote
    // result arrives long before the subtree completes. The originator's
    // own registry is emptied so only network arrivals count.
    let make = |pipeline: bool| {
        let mut net = network(Topology::line(30));
        let links_q = Query::parse("/tuple/@link").unwrap();
        let links: Vec<String> = net
            .registry(NodeId(0))
            .query(&links_q, &Freshness::any())
            .unwrap()
            .results
            .iter()
            .map(|i| i.string_value())
            .collect();
        for link in links {
            net.registry(NodeId(0)).unpublish(&link).unwrap();
        }
        let scope = Scope { pipeline, abort_timeout_ms: 120_000, ..Scope::default() };
        net.run_query(NodeId(0), QUERY, scope, ResponseMode::Routed)
    };
    let piped = make(true);
    let buffered = make(false);
    assert_eq!(sorted(piped.results.clone()), sorted(buffered.results.clone()));
    let p_first = piped.metrics.time_first_result.unwrap();
    let b_first = buffered.metrics.time_first_result.unwrap();
    assert!(p_first < b_first, "pipelined first result at {p_first}, buffered at {b_first}");
}

#[test]
fn direct_response_relieves_intermediate_nodes() {
    let run_mode = |mode: ResponseMode| {
        let mut net = network(Topology::line(20));
        net.run_query(NodeId(0), QUERY, Scope::default(), mode)
    };
    let routed = run_mode(ResponseMode::Routed);
    let direct = run_mode(ResponseMode::Direct { originator: "n0".into() });
    assert_eq!(sorted(routed.results.clone()), sorted(direct.results.clone()));
    assert!(
        direct.metrics.bytes_relayed < routed.metrics.bytes_relayed,
        "direct {} vs routed {} relayed bytes",
        direct.metrics.bytes_relayed,
        routed.metrics.bytes_relayed
    );
}

#[test]
fn referral_mode_reports_referrals() {
    let mut net = network(Topology::tree(15, 2));
    let expected = ground_truth(&net, QUERY);
    let run = net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Referral);
    assert_eq!(sorted(run.results), expected);
    assert!(run.metrics.referrals_received > 0);
}

#[test]
fn max_results_closes_early() {
    let mut net = network(Topology::tree(60, 3));
    let all = {
        let run = net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
        run.results.len()
    };
    assert!(all > 3, "need enough matches for the cap to bite");
    let mut net2 = network(Topology::tree(60, 3));
    let scope = Scope { max_results: Some(3), ..Scope::default() };
    let run = net2.run_query(NodeId(0), QUERY, scope, ResponseMode::Routed);
    assert!(run.results.len() >= 3);
    assert!(run.results.len() < all, "close terminated the flood early");
    assert!(run.metrics.messages("close") > 0);
}

#[test]
fn abort_timeout_bounds_waiting() {
    // One very slow node deep in a line; a short budget abandons it.
    let config = P2pConfig {
        slow_nodes: [NodeId(10)].into_iter().collect(),
        slow_factor: 100_000, // effectively never finishes
        ..P2pConfig::default()
    };
    let mut net = SimNetwork::build(Topology::line(12), NetworkModel::constant(10), config);
    let scope = Scope { abort_timeout_ms: 2_000, ..Scope::default() };
    let run = net.run_query(NodeId(0), QUERY, scope, ResponseMode::Routed);
    // Nodes before the slow one still answered.
    assert!(run.metrics.results_delivered > 0);
    assert!(run.metrics.node_aborts > 0 || run.metrics.deadline_hit);
    // The run ends despite node 10 never evaluating in time.
    assert!(run.finished_at.millis() < 1_000_000);
}

#[test]
fn dynamic_timeouts_deliver_more_than_aggressive_static() {
    // Heterogeneous delays; compare delivered results under an originator
    // deadline when per-node timeouts are dynamic (budget/hop) vs a static
    // per-node timeout that is too short for the tree depth.
    let deadline = 3_000u64;
    let slow: std::collections::HashSet<NodeId> =
        (0..40).filter(|i| i % 7 == 0).map(NodeId).collect();
    let run_with = |mode: TimeoutMode| {
        let config = P2pConfig {
            timeout_mode: mode,
            slow_nodes: slow.clone(),
            slow_factor: 40,
            ..P2pConfig::default()
        };
        let mut net = SimNetwork::build(Topology::tree(40, 2), NetworkModel::constant(30), config);
        let scope = Scope { abort_timeout_ms: deadline, ..Scope::default() };
        net.run_query(NodeId(0), QUERY, scope, ResponseMode::Routed)
    };
    let dynamic = run_with(TimeoutMode::DynamicAbort);
    let static_short = run_with(TimeoutMode::StaticPerNode(300));
    assert!(
        dynamic.metrics.results_delivered >= static_short.metrics.results_delivered,
        "dynamic {} < static {}",
        dynamic.metrics.results_delivered,
        static_short.metrics.results_delivered
    );
}

#[test]
fn agent_and_servent_models_agree() {
    let expected = {
        let net = network(Topology::random_connected(25, 3.0, 11));
        ground_truth(&net, QUERY)
    };
    let mut servent_net = network(Topology::random_connected(25, 3.0, 11));
    let servent = servent_net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
    let mut agent_net = network(Topology::random_connected(25, 3.0, 11));
    let agent = agent_net.run_agent_query(NodeId(0), QUERY, Scope::default());
    assert_eq!(sorted(servent.results), expected);
    assert_eq!(sorted(agent.results), expected);
    // The agent model concentrates bytes at the originator.
    assert!(agent.metrics.bytes_at_originator >= servent.metrics.bytes_at_originator);
}

#[test]
fn random_k_policy_reduces_messages() {
    let run_policy = |policy: &str| {
        let mut net = network(Topology::random_connected(60, 6.0, 3));
        let scope = Scope { neighbor_policy: policy.into(), ..Scope::default() };
        net.run_query(NodeId(0), QUERY, scope, ResponseMode::Routed)
    };
    let flood = run_policy("all");
    let random2 = run_policy("random:2");
    assert!(
        random2.metrics.messages("query") < flood.metrics.messages("query"),
        "random:2 {} vs flood {}",
        random2.metrics.messages("query"),
        flood.metrics.messages("query")
    );
    // Recall can drop, but whatever is found is a subset of the flood.
    let flood_set: std::collections::HashSet<_> = flood.results.into_iter().collect();
    assert!(random2.results.iter().all(|r| flood_set.contains(r)));
}

/// A `hint:` query follows the routing index to content planted two and
/// three hops out, skips the subtrees that hold none, and reaches content
/// planted after an earlier hint query ran.
#[test]
fn hint_policy_reaches_planted_content() {
    const RARE: &str = r#"//service[interface/@type = "TapeArchive-1.0"]/owner"#;
    let config =
        P2pConfig { hop_cost_ms: 0, eval_delay_ms: 1, tuples_per_node: 2, ..P2pConfig::default() };
    let mut net = SimNetwork::build(Topology::tree(40, 3), NetworkModel::constant(10), config);
    let hops = net.topology().distances_from(NodeId(0));
    let plant = |net: &mut SimNetwork, i: u32| {
        assert!((2..=3).contains(&hops[i as usize]), "n{i} is {} hops out", hops[i as usize]);
        let content = Element::new("service")
            .with_child(Element::new("interface").with_attr("type", "TapeArchive-1.0"))
            .with_field("owner", format!("site{i}.cern.ch"));
        net.plant_service(NodeId(i), "tape-archive", &format!("http://tape/{i}"), content);
    };
    let run = |net: &mut SimNetwork, policy: &str| {
        let scope = Scope { neighbor_policy: policy.into(), ..Scope::default() };
        net.run_query(NodeId(0), RARE, scope, ResponseMode::Routed)
    };
    let sites = |run: &QueryRun| {
        let found: Vec<u32> = (0..40)
            .filter(|i| run.results.iter().any(|r| r.contains(&format!(">site{i}."))))
            .collect();
        assert_eq!(found.len(), run.results.len(), "one item per planted site");
        found
    };
    // n5 hangs under n1 and n25 under n2; n3's subtree holds no tape archive.
    plant(&mut net, 5);
    plant(&mut net, 25);
    let hint = run(&mut net, "hint:tape-archive");
    let flood = run(&mut net, "all");
    assert_eq!(sites(&hint), [5, 25]);
    assert_eq!(sites(&flood), [5, 25]);
    assert!(
        hint.metrics.nodes_evaluated < flood.metrics.nodes_evaluated,
        "hint evaluated {} nodes, the flood {}",
        hint.metrics.nodes_evaluated,
        flood.metrics.nodes_evaluated
    );
    // Content planted after a hint query ran is found by the next one.
    plant(&mut net, 35);
    assert_eq!(sites(&run(&mut net, "hint:tape-archive")), [5, 25, 35]);
}

#[test]
fn results_survive_message_loss_of_duplicates_only() {
    // Sanity: with zero drop probability everything is deterministic.
    let mut a = network(Topology::power_law(40, 2, 9));
    let mut b = network(Topology::power_law(40, 2, 9));
    let r1 = a.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
    let r2 = b.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
    assert_eq!(sorted(r1.results), sorted(r2.results));
    assert_eq!(r1.metrics.messages_total(), r2.metrics.messages_total());
}

#[test]
fn sequential_queries_reuse_the_network() {
    let mut net = network(Topology::tree(20, 2));
    let first = net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
    let second = net.run_query(NodeId(3), QUERY, Scope::default(), ResponseMode::Routed);
    assert_eq!(sorted(first.results), sorted(second.results));
}

#[test]
fn count_query_is_not_separable_but_still_runs() {
    // A complex aggregate: each node returns its local count; the
    // originator receives per-node counts (UPDF merge for non-separable
    // queries happens agent-side — chapter 6 discusses exactly this split).
    let mut net = network(Topology::tree(10, 3));
    let run = net.run_query(NodeId(0), "count(//service)", Scope::default(), ResponseMode::Routed);
    let total: f64 = run.results.iter().map(|s| s.parse::<f64>().unwrap_or(0.0)).sum();
    assert_eq!(total, (10 * P2pConfig::default().tuples_per_node) as f64);
}

#[test]
fn sql_queries_travel_the_overlay() {
    // UPDF is language-agnostic: the same overlay answers SQL.
    let mut net = network(Topology::tree(20, 2));
    let sql = "SELECT owner, load FROM service WHERE load < 0.5";
    let run = net.run_query_lang(
        NodeId(0),
        sql,
        wsda_pdp::QueryLanguage::Sql,
        Scope::default(),
        ResponseMode::Routed,
    );
    // Ground truth via the XQuery side.
    let expected = ground_truth(&net, QUERY).len();
    assert_eq!(run.results.len(), expected, "same predicate, same row count");
    // Rows are well-formed XML with the selected columns.
    for row in &run.results {
        let e = wsda_xml::parse_fragment(row).unwrap();
        assert_eq!(e.name(), "row");
        assert!(e.attr("owner").is_some());
        assert!(e.attr("load").unwrap().parse::<f64>().unwrap() < 0.5);
    }
}

#[test]
fn sql_count_aggregates_per_node() {
    let mut net = network(Topology::tree(8, 2));
    let run = net.run_query_lang(
        NodeId(0),
        "SELECT COUNT(*) FROM service",
        wsda_pdp::QueryLanguage::Sql,
        Scope::default(),
        ResponseMode::Routed,
    );
    let total: u64 = run
        .results
        .iter()
        .map(|r| {
            wsda_xml::parse_fragment(r).unwrap().attr("count").unwrap().parse::<u64>().unwrap()
        })
        .sum();
    assert_eq!(total, (8 * P2pConfig::default().tuples_per_node) as u64);
}

#[test]
fn plan_metrics_classify_local_evaluations() {
    // `//service/owner` is fully sargable (a pure existence probe), so
    // every node answers from its content index.
    let mut net = network(Topology::tree(12, 3));
    let run = net.run_query(NodeId(0), "//service/owner", Scope::default(), ResponseMode::Routed);
    assert_eq!(run.metrics.plans_index, 12);
    assert_eq!(run.metrics.plans_hybrid + run.metrics.plans_scan, 0);

    // The default query's `load < 0.5` weakens to an existence probe plus
    // a residual filter: a hybrid plan on every node.
    let mut net = network(Topology::tree(12, 3));
    let run = net.run_query(NodeId(0), QUERY, Scope::default(), ResponseMode::Routed);
    assert_eq!(run.metrics.plans_hybrid, 12);
    assert_eq!(run.metrics.plans_index + run.metrics.plans_scan, 0);

    // Top-level arithmetic is not sargable: full scan everywhere.
    let mut net = network(Topology::tree(12, 3));
    let run = net.run_query(
        NodeId(0),
        "count(/tuple) + count(/tuple)",
        Scope::default(),
        ResponseMode::Routed,
    );
    assert_eq!(run.metrics.plans_scan, 12);
    assert_eq!(run.metrics.plans_index + run.metrics.plans_hybrid, 0);
}
