//! Golden simulator outcomes: exact, not just self-consistent.
//!
//! Each scenario builds a network, runs one or more queries and records,
//! per run, one fixture line: an FNV-1a hash of the delivered results in
//! order, the full [`QueryMetrics`], the virtual finish time, the
//! completeness, `timers_scheduled()` and a hash of the assembled trace
//! JSON. The rebuild-determinism proptests only compare a build with
//! itself; this file pins the outputs, so a refactor of the node logic
//! that moves any message, timer, metric or trace event shows up as a
//! changed line.
//!
//! The coverage: topology kinds, the three response modes, pipelining on
//! and off, radius, static vs dynamic timeouts with slow nodes, recovery
//! under a `ChaosPlan`, the agent model, SQL, admission shed and degrade,
//! result-cache serving after a planted publish, lifecycle with churn
//! ticks, a `max_results` close, neighbor policies and fast-tripping
//! breakers.
//!
//! Regenerate the fixture only for a deliberate change in protocol
//! behaviour, and say which rows moved and why:
//!
//! ```sh
//! cargo test -p wsda-updf --test sim_golden -- --ignored write_fixture
//! ```

use std::collections::HashSet;
use std::fmt::Write as _;

use wsda_net::model::{ChaosPlan, ChurnConfig, NetworkModel};
use wsda_net::NodeId;
use wsda_pdp::{QueryLanguage, ResponseMode, Scope};
use wsda_registry::AdmissionConfig;
use wsda_updf::{
    BreakerConfig, P2pConfig, QueryRun, RecoveryConfig, SimNetwork, TimeoutMode, Topology,
};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/sim_golden.txt");

const QUERY: &str = "//service/owner";
const LOAD_QUERY: &str = r#"//service[load < 0.5]/owner"#;
const SCAN_QUERY: &str = "count(/tuple) + count(/tuple)";

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn results_hash(items: &[String]) -> u64 {
    let mut joined = String::new();
    for item in items {
        joined.push_str(item);
        joined.push('\u{1}');
    }
    fnv(joined.as_bytes())
}

/// One fixture line for one run.
fn line(name: &str, net: &SimNetwork, run: &QueryRun) -> String {
    let trace = net.assemble_trace(run.transaction).to_json().to_string();
    format!(
        "{name} | results {} {:016x} | finished {} | {} | timers {} | trace {:016x} | {:?}",
        run.results.len(),
        results_hash(&run.results),
        run.finished_at.millis(),
        run.completeness,
        net.timers_scheduled(),
        fnv(trace.as_bytes()),
        run.metrics,
    )
}

fn scope() -> Scope {
    Scope::default()
}

fn routed(net: &mut SimNetwork, origin: u32, query: &str, scope: Scope) -> QueryRun {
    net.run_query(NodeId(origin), query, scope, ResponseMode::Routed)
}

/// Every scenario's lines, in a fixed order.
fn lines() -> Vec<String> {
    let mut out = Vec::new();
    let model = || NetworkModel::uniform(5, 25);

    // Topology kinds, routed flood.
    let topologies: [(&str, Topology); 7] = [
        ("ring", Topology::ring(12)),
        ("line", Topology::line(8)),
        ("star", Topology::star(10)),
        ("tree", Topology::tree(15, 2)),
        ("random", Topology::random_connected(20, 3.0, 5)),
        ("power-law", Topology::power_law(24, 2, 9)),
        ("mesh", Topology::full_mesh(6)),
    ];
    for (kind, topology) in topologies {
        let mut net = SimNetwork::build(topology, model(), P2pConfig::default());
        let run = routed(&mut net, 0, QUERY, scope());
        out.push(line(&format!("topology/{kind}"), &net, &run));
    }

    // Response modes × pipelining × radius on one tree.
    let modes = [
        ("routed", ResponseMode::Routed),
        ("direct", ResponseMode::Direct { originator: "n0".to_owned() }),
        ("referral", ResponseMode::Referral),
    ];
    for (mode_name, mode) in &modes {
        for pipeline in [true, false] {
            for radius in [None, Some(0), Some(2)] {
                let mut net = SimNetwork::build(
                    Topology::tree(15, 2),
                    NetworkModel::constant(10),
                    P2pConfig::default(),
                );
                let scope = Scope { radius, pipeline, ..Scope::default() };
                let run = net.run_query(NodeId(0), LOAD_QUERY, scope, mode.clone());
                out.push(line(
                    &format!("mode/{mode_name}/pipeline={pipeline}/radius={radius:?}"),
                    &net,
                    &run,
                ));
            }
        }
    }

    // Static vs dynamic timeouts with slow nodes: tight budgets make slow
    // subtrees abort (and the origin deadline fire) at different depths.
    for (name, timeout_mode) in
        [("dynamic", TimeoutMode::DynamicAbort), ("static", TimeoutMode::StaticPerNode(60))]
    {
        let config = P2pConfig {
            timeout_mode,
            slow_nodes: [1, 4, 9].into_iter().map(NodeId).collect::<HashSet<_>>(),
            slow_factor: 20,
            ..P2pConfig::default()
        };
        let mut net = SimNetwork::build(Topology::tree(15, 2), NetworkModel::constant(10), config);
        for budget in [80, 400] {
            let scope = Scope { abort_timeout_ms: budget, ..Scope::default() };
            let run = routed(&mut net, 0, QUERY, scope);
            out.push(line(&format!("timeout/{name}/budget={budget}"), &net, &run));
        }
    }

    // Recovery under chaos: drops, duplication and jitter, every origin.
    let plan = ChaosPlan::none().with_drops(0.2).with_duplication(0.1).with_jitter(7);
    let config = P2pConfig { recovery: RecoveryConfig::on(), seed: 11, ..P2pConfig::default() };
    let mut net = SimNetwork::build_with_faults(
        Topology::random_connected(12, 3.0, 3),
        model(),
        plan,
        config,
    );
    for origin in 0..4 {
        let run = routed(&mut net, origin, QUERY, scope());
        out.push(line(&format!("chaos/recovery/origin={origin}"), &net, &run));
    }

    // Recovery with a dead node: the watchdog re-queries, then abandons.
    let plan = ChaosPlan::none().with_dead(NodeId(2));
    let config = P2pConfig { recovery: RecoveryConfig::on(), ..P2pConfig::default() };
    let mut net = SimNetwork::build_with_faults(
        Topology::tree(7, 2),
        NetworkModel::constant(10),
        plan,
        config,
    );
    let run = routed(&mut net, 0, QUERY, scope());
    out.push(line("chaos/dead-node", &net, &run));

    // The agent model.
    let mut net = SimNetwork::build(Topology::star(16), model(), P2pConfig::default());
    let run = net.run_agent_query(NodeId(0), QUERY, scope());
    out.push(line("agent/star", &net, &run));
    let config = P2pConfig { recovery: RecoveryConfig::on(), ..P2pConfig::default() };
    let mut net = SimNetwork::build_with_faults(
        Topology::ring(10),
        model(),
        ChaosPlan::none().with_drops(0.15),
        config,
    );
    let run = net.run_agent_query(NodeId(3), QUERY, scope());
    out.push(line("agent/chaos", &net, &run));

    // SQL through the same overlay.
    let mut net = SimNetwork::build(Topology::tree(7, 2), model(), P2pConfig::default());
    for (i, sql) in
        ["SELECT owner, load FROM service WHERE load < 0.5", "SELECT COUNT(*) FROM service"]
            .into_iter()
            .enumerate()
    {
        let run =
            net.run_query_lang(NodeId(0), sql, QueryLanguage::Sql, scope(), ResponseMode::Routed);
        out.push(line(&format!("sql/{i}"), &net, &run));
    }

    // Admission: shed hopeless scans, degrade affordable prefixes.
    let shed = P2pConfig {
        registry_admission: AdmissionConfig {
            scan_ns_per_tuple: 1_000_000_000,
            ..AdmissionConfig::protective()
        },
        ..P2pConfig::default()
    };
    let mut net = SimNetwork::build(Topology::tree(7, 2), NetworkModel::constant(10), shed);
    let run = routed(&mut net, 0, SCAN_QUERY, Scope { abort_timeout_ms: 1_000, ..scope() });
    out.push(line("admission/shed", &net, &run));
    let degrade = P2pConfig {
        registry_admission: AdmissionConfig {
            scan_ns_per_tuple: 100_000_000,
            degraded_scan_min: 1,
            ..AdmissionConfig::protective()
        },
        ..P2pConfig::default()
    };
    let mut net = SimNetwork::build(Topology::line(3), NetworkModel::constant(10), degrade);
    let run = routed(&mut net, 0, SCAN_QUERY, Scope { abort_timeout_ms: 300, ..scope() });
    out.push(line("admission/degrade", &net, &run));

    // Result cache: cold flood, warm repeats from two origins, a planted
    // publish at an interior node, then a repeat that must see it.
    let mut net = SimNetwork::build(Topology::tree(15, 2), model(), P2pConfig::default());
    let cached = Scope { result_staleness_ms: 60_000, ..Scope::default() };
    for (i, origin) in [0, 0, 1].into_iter().enumerate() {
        let run = routed(&mut net, origin, LOAD_QUERY, cached.clone());
        out.push(line(&format!("cache/warm/{i}"), &net, &run));
    }
    let owner = wsda_xml::Element::new("service")
        .with_field("owner", "planted.example.org")
        .with_field("load", "0.1");
    net.plant_service(NodeId(2), "storage", "http://planted.example.org/s/0", owner);
    for (i, origin) in [0, 2].into_iter().enumerate() {
        let run = routed(&mut net, origin, LOAD_QUERY, cached.clone());
        out.push(line(&format!("cache/after-publish/{i}"), &net, &run));
    }

    // Lifecycle with churn ticks between queries.
    let config = P2pConfig {
        lifecycle: true,
        churn: ChurnConfig::rates(1_000, 0.2, 0.5, 17).with_exempt(NodeId(0)),
        ..P2pConfig::default()
    };
    let mut net = SimNetwork::build(Topology::random_connected(16, 3.0, 8), model(), config);
    for i in 0..4 {
        let run = routed(&mut net, 0, QUERY, scope());
        out.push(line(&format!("lifecycle/churn/{i}"), &net, &run));
        net.churn_tick();
        net.churn_tick();
    }
    let burst = net.churn_burst(0.3);
    out.push(format!("lifecycle/burst | {burst:?}"));
    net.churn_tick();
    let run = routed(&mut net, 0, QUERY, scope());
    out.push(line("lifecycle/after-burst", &net, &run));

    // A max_results close fans out through the tree.
    let mut net =
        SimNetwork::build(Topology::random_connected(20, 3.0, 2), model(), P2pConfig::default());
    let run = routed(&mut net, 0, QUERY, Scope { max_results: Some(5), ..scope() });
    out.push(line("max-results", &net, &run));

    // Neighbor policies: random-k and routing hints.
    for policy in ["random:1", "random:2", "hint:tape-archive"] {
        let mut net = SimNetwork::build(
            Topology::random_connected(24, 4.0, 6),
            model(),
            P2pConfig::default(),
        );
        let run =
            routed(&mut net, 0, QUERY, Scope { neighbor_policy: policy.to_owned(), ..scope() });
        out.push(line(&format!("policy/{policy}"), &net, &run));
    }

    // Breakers that trip on the first failure: the overlay of
    // `overload.rs` under sustained loss, three rounds of queries from
    // every origin.
    let recovery = RecoveryConfig {
        breaker: BreakerConfig { failure_threshold: 1, open_ms: 10_000_000, probe_timeout_ms: 300 },
        ..RecoveryConfig::on()
    };
    let mut net = SimNetwork::build_with_faults(
        Topology::ring(8),
        NetworkModel::constant(10),
        ChaosPlan::none().with_drops(0.35),
        P2pConfig { recovery, seed: 7, ..P2pConfig::default() },
    );
    for round in 0..3 {
        for origin in 0..8 {
            let scope = Scope { abort_timeout_ms: 8_000, ..Scope::default() };
            let run = routed(&mut net, origin, QUERY, scope);
            out.push(line(&format!("breaker/round={round}/origin={origin}"), &net, &run));
        }
    }
    out
}

fn render() -> String {
    let mut text = String::new();
    for l in lines() {
        writeln!(text, "{l}").unwrap();
    }
    text
}

#[test]
fn simulator_outcomes_match_the_golden_fixture() {
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture present");
    let actual = render();
    let mut diffs = Vec::new();
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            diffs.push(format!("line {}:\n  want {e}\n  got  {a}", i + 1));
        }
    }
    assert_eq!(expected.lines().count(), actual.lines().count(), "scenario count changed");
    assert!(diffs.is_empty(), "{} golden rows moved:\n{}", diffs.len(), diffs.join("\n"));
}

#[test]
#[ignore = "writes the fixture; run only for a deliberate behaviour change"]
fn write_fixture() {
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).unwrap();
    std::fs::write(FIXTURE, render()).unwrap();
}
