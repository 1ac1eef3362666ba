//! Property tests for topology generators and P2P engine invariants,
//! including rebuild determinism: two identically built networks must
//! replay a query bit for bit.

use proptest::prelude::*;
use wsda_net::model::{ChaosPlan, NetworkModel};
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_updf::{P2pConfig, QueryRun, RecoveryConfig, SimNetwork, Topology};

const DET_QUERY: &str = "//service/owner";

fn det_topology(kind: u8, n: usize, seed: u64) -> Topology {
    match kind % 5 {
        0 => Topology::ring(n.max(3)),
        1 => Topology::line(n),
        2 => Topology::star(n.max(2)),
        3 => Topology::tree(n, 2),
        _ => Topology::random_connected(n.max(2), 3.0, seed),
    }
}

fn det_config(recovery: bool) -> P2pConfig {
    P2pConfig {
        tuples_per_node: 1,
        eval_delay_ms: 1,
        hop_cost_ms: 0,
        recovery: if recovery { RecoveryConfig::on() } else { RecoveryConfig::default() },
        ..P2pConfig::default()
    }
}

fn det_scope(radius: Option<u32>) -> Scope {
    Scope { radius, abort_timeout_ms: 1 << 40, loop_timeout_ms: 1 << 41, ..Scope::default() }
}

/// Build the same network twice, run the same query on each, and assert
/// the replays are identical: delivery order, [`wsda_updf::QueryMetrics`]
/// (field for field), virtual finish time, completeness and the assembled
/// trace forest. Std `HashMap`/`HashSet`s hash differently per instance,
/// so an iteration order leaking into sends, timers or the chaos RNG (as
/// a `HashSet` once did in `broadcast_close`) shows up as a divergence.
fn assert_rebuild_deterministic(
    build: impl Fn() -> SimNetwork,
    query: impl Fn(&mut SimNetwork) -> QueryRun,
) -> QueryRun {
    let [(a, a_trace), (b, b_trace)] = [0, 1].map(|_| {
        let mut net = build();
        let run = query(&mut net);
        let trace = net.assemble_trace(run.transaction).to_json().to_string();
        (run, trace)
    });
    assert_eq!(a.results, b.results, "delivery order diverges");
    assert_eq!(a.metrics, b.metrics, "metrics diverge");
    assert_eq!(a.finished_at, b.finished_at, "virtual finish time diverges");
    assert_eq!(a.completeness, b.completeness, "completeness diverges");
    assert_eq!(a_trace, b_trace, "assembled trace forests diverge");
    a
}

/// The agent model puts every node's evaluation at the same instant —
/// the widest same-instant burst the engine produces.
#[test]
fn agent_fanout_rebuild_is_deterministic() {
    let run = assert_rebuild_deterministic(
        || SimNetwork::build(Topology::star(64), NetworkModel::constant(5), det_config(false)),
        |net| net.run_agent_query(NodeId(0), DET_QUERY, det_scope(None)),
    );
    assert_eq!(run.metrics.nodes_evaluated, 64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every generator yields a connected, self-loop-free, symmetric graph
    /// of the requested size.
    #[test]
    fn generators_well_formed(n in 4usize..60, seed in 0u64..100) {
        let graphs = vec![
            Topology::ring(n.max(3)),
            Topology::line(n),
            Topology::star(n.max(2)),
            Topology::tree(n, 1 + (seed as usize % 4)),
            Topology::random_connected(n.max(2), 3.0, seed),
            Topology::power_law(n.max(4), 2, seed),
        ];
        for g in graphs {
            prop_assert!(g.is_connected());
            for v in 0..g.len() as u32 {
                let nbs = g.neighbors(NodeId(v));
                // no self loops
                prop_assert!(!nbs.contains(&NodeId(v)));
                // symmetry
                for &nb in nbs {
                    prop_assert!(g.neighbors(nb).contains(&NodeId(v)));
                }
                // sorted, deduped
                for w in nbs.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }
    }

    /// Tree diameter is at most 2·depth; ring diameter is ⌊n/2⌋.
    #[test]
    fn diameter_formulas(n in 3usize..80) {
        prop_assert_eq!(Topology::ring(n).diameter() as usize, n / 2);
        let t = Topology::tree(n, 2);
        let depth = (n as f64 + 1.0).log2().ceil() as u32;
        prop_assert!(t.diameter() <= 2 * depth);
    }

    /// A flood reaches every node exactly once; query messages equal
    /// edges probed; results are identical across repeat runs.
    #[test]
    fn flood_invariants(n in 4usize..40, seed in 0u64..50) {
        let topo = Topology::random_connected(n, 3.0, seed);
        let edges = topo.edge_count() as u64;
        let config = P2pConfig { tuples_per_node: 1, eval_delay_ms: 1, hop_cost_ms: 0, ..Default::default() };
        let mut net = SimNetwork::build(topo, NetworkModel::constant(5), config);
        let scope = Scope { abort_timeout_ms: 1 << 40, loop_timeout_ms: 1 << 41, ..Scope::default() };
        let run = net.run_query(NodeId(0), "//service", scope, ResponseMode::Routed);
        // every node evaluated exactly once
        prop_assert_eq!(run.metrics.nodes_evaluated, n as u64);
        // one query message per probed edge (each edge probed at most twice)
        let q = run.metrics.messages("query");
        prop_assert!(q >= (n as u64) - 1);
        prop_assert!(q <= 2 * edges);
        // duplicates = probes minus first-deliveries
        prop_assert_eq!(run.metrics.duplicates_suppressed, q - (n as u64 - 1));
        // every tuple found exactly once
        prop_assert_eq!(run.results.len(), n);
    }

    /// Radius monotonicity: results and nodes reached never decrease with
    /// a larger radius.
    #[test]
    fn radius_monotone(seed in 0u64..30) {
        let topo = Topology::random_connected(25, 3.0, seed);
        let mut last_nodes = 0;
        let mut last_results = 0;
        for radius in 0..6u32 {
            let config = P2pConfig { tuples_per_node: 1, eval_delay_ms: 1, hop_cost_ms: 0, ..Default::default() };
            let mut net = SimNetwork::build(topo.clone(), NetworkModel::constant(5), config);
            let scope = Scope {
                radius: Some(radius),
                abort_timeout_ms: 1 << 40,
                loop_timeout_ms: 1 << 41,
                ..Scope::default()
            };
            let run = net.run_query(NodeId(0), "//service", scope, ResponseMode::Routed);
            prop_assert!(run.metrics.nodes_evaluated >= last_nodes);
            prop_assert!(run.results.len() >= last_results);
            last_nodes = run.metrics.nodes_evaluated;
            last_results = run.results.len();
        }
    }

    /// Response-mode equivalence on arbitrary random graphs.
    #[test]
    fn response_modes_equivalent(seed in 0u64..30) {
        let build = || {
            SimNetwork::build(
                Topology::random_connected(18, 3.0, seed),
                NetworkModel::constant(5),
                P2pConfig { tuples_per_node: 2, eval_delay_ms: 1, hop_cost_ms: 0, ..Default::default() },
            )
        };
        let scope = || Scope { abort_timeout_ms: 1 << 40, loop_timeout_ms: 1 << 41, ..Scope::default() };
        let sorted = |mut v: Vec<String>| { v.sort(); v };
        let routed = sorted(build().run_query(NodeId(0), "//service/owner", scope(), ResponseMode::Routed).results);
        let direct = sorted(build().run_query(NodeId(0), "//service/owner", scope(),
            ResponseMode::Direct { originator: "n0".into() }).results);
        let referral = sorted(build().run_query(NodeId(0), "//service/owner", scope(), ResponseMode::Referral).results);
        let agent = sorted(build().run_agent_query(NodeId(0), "//service/owner", scope()).results);
        prop_assert_eq!(&routed, &direct);
        prop_assert_eq!(&routed, &referral);
        prop_assert_eq!(&routed, &agent);
    }

    /// Retransmission idempotency: with every frame duplicated by the
    /// network and recovery on, sequence-number dedup must yield exactly
    /// the clean-network result set, and the run must report Complete.
    #[test]
    fn recovery_is_idempotent_under_duplication(n in 4usize..24, seed in 0u64..30) {
        let topo = Topology::random_connected(n, 3.0, seed);
        let config = || P2pConfig {
            tuples_per_node: 1,
            eval_delay_ms: 1,
            hop_cost_ms: 0,
            ..Default::default()
        };
        let scope = || Scope { abort_timeout_ms: 1 << 40, loop_timeout_ms: 1 << 41, ..Scope::default() };
        let sorted = |mut v: Vec<String>| { v.sort(); v };
        let mut clean = SimNetwork::build(topo.clone(), NetworkModel::constant(5), config());
        let baseline = sorted(clean.run_query(NodeId(0), "//service", scope(), ResponseMode::Routed).results);
        let mut cfg = config();
        cfg.recovery = RecoveryConfig::on();
        let mut chaotic = SimNetwork::build_with_faults(
            topo,
            NetworkModel::constant(5),
            ChaosPlan::none().with_duplication(1.0),
            cfg,
        );
        let run = chaotic.run_query(NodeId(0), "//service", scope(), ResponseMode::Routed);
        prop_assert!(run.completeness.is_complete(), "completeness: {}", run.completeness);
        prop_assert!(run.metrics.replays_suppressed > 0, "duplication must have happened");
        prop_assert_eq!(sorted(run.results), baseline);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean network, every response mode and radius, random topologies.
    #[test]
    fn rebuild_is_deterministic_clean(
        kind in 0u8..5,
        n in 4usize..28,
        seed in 0u64..50,
        mode_pick in 0u8..3,
        radius in proptest::option::of(0u32..5),
    ) {
        let mode = match mode_pick {
            0 => ResponseMode::Routed,
            1 => ResponseMode::Direct { originator: "n0".into() },
            _ => ResponseMode::Referral,
        };
        assert_rebuild_deterministic(
            || SimNetwork::build(det_topology(kind, n, seed), NetworkModel::constant(5), det_config(false)),
            |net| net.run_query(NodeId(0), DET_QUERY, det_scope(radius), mode.clone()),
        );
    }

    /// Chaos (drops + duplication + jitter) with recovery on: retries,
    /// watchdogs and sequence-number dedup must all replay identically.
    /// A result cap closes some runs early, so the close fan-out draws on
    /// the chaos RNG too.
    #[test]
    fn rebuild_is_deterministic_under_chaos(
        kind in 0u8..5,
        n in 4usize..20,
        seed in 0u64..40,
        drop_pct in 0u32..30,
        dup_pct in 0u32..50,
        jitter in 0u64..20,
        max_results in proptest::option::of(1u64..8),
    ) {
        let chaos = ChaosPlan::none()
            .with_drops(f64::from(drop_pct) / 100.0)
            .with_duplication(f64::from(dup_pct) / 100.0)
            .with_jitter(jitter);
        assert_rebuild_deterministic(
            || {
                SimNetwork::build_with_faults(
                    det_topology(kind, n, seed),
                    NetworkModel::constant(5),
                    chaos.clone(),
                    det_config(true),
                )
            },
            |net| {
                let scope = Scope { max_results, ..det_scope(None) };
                net.run_query(NodeId(0), DET_QUERY, scope, ResponseMode::Routed)
            },
        );
    }
}
