//! Rules the simulator and the live peers share through the one node
//! core:
//!
//! * a forward shed by an open circuit breaker is a lost subtree, so the
//!   originator's run ends `Partial`, never `Complete` with a silent gap;
//! * live peers honour the scope's neighbor-selection policy rather than
//!   flooding every neighbor;
//! * a node abort reports the subtrees it gives up, so a live client
//!   whose abort budget lapses before a hung peer answers gets `Partial`;
//! * an abort budget read off the wire arms a timer, whatever its size;
//! * losses ride the final frame: a node that gave up on subtrees closes
//!   its side with an acked, deduplicated `Partial`, a loss anywhere makes
//!   the answer partial, and a wire loss count saturates, never wraps;
//! * a child's edge closes only when its final frame and every frame the
//!   final's number counts are in, in every response mode and at both
//!   originators; a child whose edge never closes is lost. So an answer
//!   that reads `Complete` holds every item of the nodes its scope covers,
//!   checked against the union of their local evaluations on lossy and
//!   jittered networks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wsda_net::model::{ChaosPlan, NetworkModel};
use wsda_net::NodeId;
use wsda_pdp::{Message, QueryLanguage, ResponseMode, Scope, TransactionId};
use wsda_registry::{Freshness, HyperRegistry};
use wsda_updf::node::{Action, CoreConfig, Env, EvalOutcome, NodeCore, Timer};
use wsda_updf::{
    BreakerConfig, LiveNetwork, P2pConfig, PeerTable, QueryMetrics, QueryRun, RecoveryConfig,
    SimNetwork, TimeoutMode, Topology,
};
use wsda_xq::Query;

/// The overlay of `overload.rs`: a lossy ring whose breakers trip on the
/// first failure and stay open for the whole test.
fn lossy_ring() -> SimNetwork {
    let recovery = RecoveryConfig {
        breaker: BreakerConfig { failure_threshold: 1, open_ms: 10_000_000, probe_timeout_ms: 300 },
        ..RecoveryConfig::on()
    };
    SimNetwork::build_with_faults(
        Topology::ring(8),
        NetworkModel::constant(10),
        ChaosPlan::none().with_drops(0.35),
        P2pConfig { recovery, seed: 7, ..P2pConfig::default() },
    )
}

#[test]
fn sim_run_with_a_breaker_shed_forward_ends_partial() {
    let mut net = lossy_ring();
    let mut shed_runs = 0;
    for round in 0..3 {
        for origin in 0..8u32 {
            let scope = Scope { abort_timeout_ms: 8_000, ..Scope::default() };
            let run = net.run_query(NodeId(origin), "//service/owner", scope, ResponseMode::Routed);
            if run.metrics.breaker_sheds > 0 {
                shed_runs += 1;
                assert!(
                    !run.completeness.is_complete(),
                    "round {round}, origin {origin}: {} forwards shed, {} items, yet {}",
                    run.metrics.breaker_sheds,
                    run.results.len(),
                    run.completeness
                );
                assert!(
                    run.completeness.subtrees_lost() >= run.metrics.breaker_sheds,
                    "every shed forward is a lost subtree: {:?}",
                    run.completeness
                );
            }
        }
    }
    assert!(shed_runs > 0, "the lossy ring must shed at least one forward");
}

fn local_items(net: &LiveNetwork, node: NodeId, query: &Query) -> Vec<String> {
    let out = net.registry(node).query(query, &Freshness::any()).unwrap();
    out.results.iter().map(wsda_xq::Item::serialize).collect()
}

fn sorted(mut items: Vec<String>) -> Vec<String> {
    items.sort();
    items
}

/// What a complete answer over exactly these registries holds: the union
/// of their local evaluations of `src`, sorted.
fn ground_truth<'a>(
    registries: impl IntoIterator<Item = &'a Arc<HyperRegistry>>,
    src: &str,
) -> Vec<String> {
    let query = Query::parse(src).unwrap();
    let items = registries.into_iter().flat_map(|registry| {
        let out = registry.query(&query, &Freshness::any()).unwrap();
        out.results.iter().map(wsda_xq::Item::serialize).collect::<Vec<_>>()
    });
    sorted(items.collect())
}

/// `overload.rs`'s ring with recovery's own breakers: 35% of frames drop.
fn dropping_ring(seed: u64) -> SimNetwork {
    let config = P2pConfig { recovery: RecoveryConfig::on(), seed, ..P2pConfig::default() };
    let plan = ChaosPlan::none().with_drops(0.35);
    SimNetwork::build_with_faults(Topology::ring(8), NetworkModel::constant(10), plan, config)
}

/// One routed flood of `net` from `origin`: a description of the answer
/// if it reads `Complete` yet differs from `truth`.
fn complete_but_wrong(
    net: &mut SimNetwork,
    origin: u32,
    pipeline: bool,
    truth: &[String],
) -> Option<String> {
    let scope = Scope { abort_timeout_ms: 8_000, pipeline, ..Scope::default() };
    let run = net.run_query(NodeId(origin), "//service/owner", scope, ResponseMode::Routed);
    let got = sorted(run.results);
    (run.completeness.is_complete() && got != truth).then(|| {
        let m = &run.metrics;
        format!("origin {origin}: {} of {} items, {m:?}", got.len(), truth.len())
    })
}

#[test]
fn repeated_floods_of_a_lossy_ring_read_complete_only_when_whole() {
    // Drops spend retry budgets and trip breakers: every neighbor skipped
    // or lost must surface as a partial answer.
    for pipeline in [false, true] {
        let mut wrong = Vec::new();
        for seed in 7..=11 {
            let mut net = dropping_ring(seed);
            let truth = ground_truth((0..8).map(|i| net.registry(NodeId(i))), "//service/owner");
            for round in 0..3 {
                for origin in 0..8 {
                    let bad = complete_but_wrong(&mut net, origin, pipeline, &truth);
                    wrong.extend(bad.map(|b| format!("seed {seed}, round {round}, {b}")));
                }
            }
        }
        assert!(wrong.is_empty(), "pipeline {pipeline}: {} of 120: {wrong:#?}", wrong.len());
    }
}

#[test]
fn pipelined_floods_of_fresh_lossy_rings_read_complete_only_when_whole() {
    // A non-final frame whose retries run out keeps its edge open, so
    // its items cannot go missing from an answer that reads complete.
    let mut wrong = Vec::new();
    for seed in 0..40 {
        for origin in 0..8 {
            let mut net = dropping_ring(seed);
            let truth = ground_truth((0..8).map(|i| net.registry(NodeId(i))), "//service/owner");
            let bad = complete_but_wrong(&mut net, origin, true, &truth);
            wrong.extend(bad.map(|b| format!("seed {seed}, {b}")));
        }
    }
    assert!(wrong.is_empty(), "{} of 320: {wrong:#?}", wrong.len());
}

/// Two live queries on a jittered, loss-free `tree(15, 2)`: each answer
/// that reads `Complete` yet misses items.
fn jittered_complete_but_short(seed: u64) -> Vec<String> {
    let plan = ChaosPlan::none().with_jitter(20);
    let recovery = RecoveryConfig::live_default();
    let mut net = LiveNetwork::start_chaos(Topology::tree(15, 2), 2, seed, recovery, plan);
    let truth = ground_truth((0..15).map(|i| net.registry(NodeId(i))), "//service/owner");
    (0..2)
        .filter_map(|q| {
            let timeout = Duration::from_secs(10);
            let report = net.query_full(NodeId(0), "//service/owner", None, timeout);
            let got = sorted(report.results);
            (report.completeness.is_complete() && got != truth).then(|| {
                format!("seed {seed}, query {q}: complete with {} of {}", got.len(), truth.len())
            })
        })
        .collect()
}

#[test]
fn live_answers_under_jitter_read_complete_only_when_whole() {
    // A final that overtakes an earlier frame on its edge waits for it,
    // at the peers and at the client alike.
    let failures: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4u64)
            .map(|w| {
                s.spawn(move || {
                    let seeds = (1..=8).filter(|seed| seed % 4 == w);
                    seeds.flat_map(jittered_complete_but_short).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert!(failures.is_empty(), "{} of 16 short: {failures:?}", failures.len());
}

#[test]
fn live_peers_honour_the_neighbor_policy() {
    let src = "//service/owner";
    let mut net = LiveNetwork::start(Topology::star(5), 2, 23);
    let scope = Scope { neighbor_policy: "random:1".to_owned(), ..Scope::default() };
    let report = net.query_with_scope(NodeId(0), src, scope, Duration::from_secs(10));
    assert!(report.completeness.is_complete(), "{:?}", report.completeness);
    let trace = net.assemble_trace(report.transaction);
    let hub = trace.span("n0").expect("the hub's span");
    assert_eq!(hub.forwards.len(), 1, "random:1 forwards to exactly one leaf: {}", trace.to_json());
    let leaf: u32 = hub.forwards[0].trim_start_matches('n').parse().unwrap();
    assert!((1..5).contains(&leaf));
    let forwards: usize = trace.spans.iter().map(|s| s.forwards.len()).sum();
    assert_eq!(forwards, 1, "nobody else forwards: {}", trace.to_json());

    let query = Query::parse(src).unwrap();
    let mut expected = local_items(&net, NodeId(0), &query);
    expected.extend(local_items(&net, NodeId(leaf), &query));
    expected.sort();
    let mut got = report.results;
    got.sort();
    assert_eq!(got, expected, "only the hub's and the chosen leaf's items");
}

#[test]
fn live_abort_before_a_hung_subtree_answers_ends_partial() {
    let mut net = LiveNetwork::start(Topology::line(3), 2, 31);
    net.kill(NodeId(2));
    // The abort budget lapses at about 1 s, well before the watchdog
    // (1.5 s re-query, then abandon) would give up on node 2.
    let scope = Scope { abort_timeout_ms: 1_000, ..Scope::default() };
    let t0 = Instant::now();
    let report = net.query_with_scope(NodeId(0), "//service/owner", scope, Duration::from_secs(10));
    let elapsed = t0.elapsed();
    assert!(
        !report.completeness.is_complete(),
        "an abort that gives up on a subtree must say so, got {:?} with {} items",
        report.completeness,
        report.results.len()
    );
    assert!(report.errors_received >= 1, "the aborting peer reports the lost subtree");
    assert!(
        elapsed < Duration::from_millis(2_500),
        "the abort, not the watchdog, ended the query: took {elapsed:?}"
    );
}

#[test]
fn live_peer_answers_under_a_maximal_abort_budget() {
    let src = "//service/owner";
    let mut net = LiveNetwork::start(Topology::tree(7, 2), 3, 41);
    let scope = Scope { abort_timeout_ms: u64::MAX, ..Scope::default() };
    let report = net.query_with_scope(NodeId(0), src, scope, Duration::from_secs(10));
    assert!(report.completeness.is_complete(), "{:?}", report.completeness);
    let query = Query::parse(src).unwrap();
    let mut expected: Vec<String> =
        (0..7).flat_map(|i| local_items(&net, NodeId(i), &query)).collect();
    expected.sort();
    let mut got = report.results;
    got.sort();
    assert_eq!(got, expected, "every peer answers as usual");
}

/// One hand-driven node core and everything its `Env` borrows.
struct Driven {
    core: NodeCore,
    id: NodeId,
    endpoint: String,
    neighbors: Vec<NodeId>,
    peers: PeerTable,
    metrics: QueryMetrics,
}

impl Driven {
    fn new(id: u32, neighbors: &[u32]) -> Driven {
        Driven {
            core: NodeCore::new(0, 0),
            id: NodeId(id),
            endpoint: format!("n{id}"),
            neighbors: neighbors.iter().copied().map(NodeId).collect(),
            peers: PeerTable::new(),
            metrics: QueryMetrics::default(),
        }
    }

    /// Hand the core one input and return the actions it emitted.
    fn step(
        &mut self,
        cfg: &CoreConfig,
        input: impl FnOnce(&mut NodeCore, &mut Env<'_>),
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let mut env = Env {
            cfg,
            node: self.id,
            endpoint: &self.endpoint,
            now_ms: 0,
            neighbors: &self.neighbors,
            peers: &mut self.peers,
            routing: None,
            registry: None,
            metrics: &mut self.metrics,
            out: &mut out,
        };
        input(&mut self.core, &mut env);
        out
    }
}

fn sends_to(actions: &[Action], to: NodeId) -> Vec<Message> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { to: t, message } if *t == to => Some(message.clone()),
            _ => None,
        })
        .collect()
}

fn core_cfg(recovery: RecoveryConfig) -> CoreConfig {
    CoreConfig {
        hop_cost_ms: 0,
        timeout_mode: TimeoutMode::DynamicAbort,
        recovery,
        result_cache: false,
        lifecycle: false,
        trace: false,
        client: None,
    }
}

#[test]
fn an_abandoned_child_rides_the_final_frame_as_an_acked_partial() {
    let cfg = core_cfg(RecoveryConfig::on());
    let txn = TransactionId::derive(7, 1);
    let (p_id, x_id, c_id) = (NodeId(0), NodeId(1), NodeId(2));
    // P originates and forwards to X; X forwards to C, which never answers.
    let mut p = Driven::new(0, &[1]);
    let mut x = Driven::new(1, &[0, 2]);
    let out = p.step(&cfg, |core, env| {
        let (scope, mode) = (Scope::default(), ResponseMode::Routed);
        core.originate(env, txn, "//service", QueryLanguage::XQuery, scope, mode);
    });
    let query = sends_to(&out, x_id).pop().expect("P forwards the query to X");
    let mut to_p = Vec::new();
    let mut x_out = x.step(&cfg, |core, env| core.on_frame(env, p_id, query));
    assert_eq!(sends_to(&x_out, c_id).len(), 1, "X forwards to C");
    for attempt in [0, 1] {
        to_p.extend(sends_to(&x_out, p_id));
        let timer = Timer::ChildWatchdog { txn, attempt };
        x_out = x.step(&cfg, |core, env| core.on_timer(env, timer));
    }
    assert_eq!(x.metrics.subtrees_abandoned, 1, "attempt 1 abandons C");
    to_p.extend(sends_to(&x_out, p_id));
    let outcome = EvalOutcome { items: vec!["<owner>x</owner>".to_owned()], ..Default::default() };
    x_out = x.step(&cfg, |core, env| core.on_eval_done(env, txn, outcome));
    to_p.extend(sends_to(&x_out, p_id));

    let finals: Vec<&Message> = to_p
        .iter()
        .filter(|m| matches!(m, Message::Partial { .. } | Message::Results { last: true, .. }))
        .collect();
    assert_eq!(finals.len(), 1, "exactly one frame closes the edge: {to_p:?}");
    let partial = finals[0].clone();
    let Message::Partial { seq, ref items, lost, .. } = partial else {
        panic!("the closing frame must be a Partial, got {partial:?}");
    };
    assert_eq!(lost, 1, "one abandoned subtree");
    assert_eq!(items, &["<owner>x</owner>".to_owned()], "it carries the buffered items");
    let retry = Timer::RetryResults { txn, to: p_id, seq };
    assert!(
        x_out.iter().any(|a| matches!(a, Action::Schedule { timer, .. } if *timer == retry)),
        "the Partial is retransmitted until acked: {x_out:?}"
    );

    // The parent acks both copies and counts the loss once.
    let mut acks = 0;
    for _ in 0..2 {
        let frame = partial.clone();
        let out = p.step(&cfg, |core, env| core.on_frame(env, x_id, frame));
        acks += sends_to(&out, x_id)
            .iter()
            .filter(|m| matches!(m, Message::Ack { seq: s, .. } if *s == seq))
            .count();
    }
    assert_eq!(acks, 2, "every copy is acked");
    assert_eq!(p.metrics.replays_suppressed, 1, "the second copy is a replay");
    assert_eq!(p.core.finish_run(txn), (1, false), "the loss is counted once, no deadline");
}

#[test]
fn a_huge_wire_loss_count_saturates_instead_of_wrapping() {
    let cfg = core_cfg(RecoveryConfig::on());
    let txn = TransactionId::derive(7, 2);
    let p_id = NodeId(0);
    // X relays P's query to n2 and n3; each closes its edge with a `Partial`.
    let mut x = Driven::new(1, &[0, 2, 3]);
    let query = Message::Query {
        transaction: txn,
        query: "//service".to_owned(),
        language: QueryLanguage::XQuery,
        scope: Scope::default(),
        response_mode: ResponseMode::Routed,
    };
    let out = x.step(&cfg, |core, env| core.on_frame(env, p_id, query));
    assert_eq!(sends_to(&out, NodeId(2)).len() + sends_to(&out, NodeId(3)).len(), 2);
    for (child, lost) in [(2, 1), (3, u64::MAX)] {
        let partial = Message::Partial { transaction: txn, seq: 0, items: Vec::new(), lost };
        x.step(&cfg, |core, env| core.on_frame(env, NodeId(child), partial));
    }
    let out = x.step(&cfg, |core, env| core.on_eval_done(env, txn, EvalOutcome::default()));
    let to_p = sends_to(&out, p_id);
    assert!(
        matches!(to_p[..], [Message::Partial { lost: u64::MAX, .. }]),
        "the final still reports the losses: {to_p:?}"
    );
}

#[test]
fn a_childs_final_closes_its_edge_only_after_every_frame_it_counts() {
    // Recovery off: no ledger, no watchdog; the node abort gives up on an
    // edge that never closes.
    let cfg = core_cfg(RecoveryConfig::default());
    let c_id = NodeId(1);
    let data = |txn| Message::Results {
        transaction: txn,
        seq: 0,
        items: vec!["<owner>c</owner>".to_owned()],
        last: false,
        origin: "n1".to_owned(),
        cached: false,
    };
    let last = |txn, lost| match lost {
        0 => Message::Results {
            transaction: txn,
            seq: 1,
            items: Vec::new(),
            last: true,
            origin: "n1".to_owned(),
            cached: false,
        },
        _ => Message::Partial { transaction: txn, seq: 1, items: Vec::new(), lost },
    };
    let modes = [ResponseMode::Routed, ResponseMode::Direct { originator: "n0".to_owned() }];
    for (m, mode) in modes.into_iter().enumerate() {
        // The child's frames and the losses its edge reports: data then a
        // `Partial`, a final that overtakes the data, and data whose final
        // never comes.
        for (n, overtaken, final_lost, counted) in
            [(0, false, Some(2), 2), (1, true, Some(0), 0), (2, false, None, 1)]
        {
            let txn = TransactionId::derive(7, 10 + 3 * m as u64 + n);
            let what = format!("{mode:?}, overtaken {overtaken}, final {final_lost:?}");
            let mut o = Driven::new(0, &[1]);
            let mode = mode.clone();
            o.step(&cfg, |core, env| {
                core.originate(
                    env,
                    txn,
                    "//service",
                    QueryLanguage::XQuery,
                    Scope::default(),
                    mode,
                );
            });
            o.step(&cfg, |core, env| core.on_eval_done(env, txn, EvalOutcome::default()));
            let mut frames = vec![data(txn)];
            frames.extend(final_lost.map(|lost| last(txn, lost)));
            if overtaken {
                frames.reverse();
            }
            for (i, frame) in frames.into_iter().enumerate() {
                assert!(o.metrics.time_completed.is_none(), "{what}: closed before frame {i}");
                o.step(&cfg, |core, env| core.on_frame(env, c_id, frame));
            }
            if final_lost.is_none() {
                assert!(o.metrics.time_completed.is_none(), "{what}: data alone closed the edge");
                let abort = Timer::NodeAbort { txn };
                o.step(&cfg, |core, env| core.on_timer(env, abort));
            }
            assert!(o.metrics.time_completed.is_some(), "{what}: the run completes");
            assert_eq!(o.metrics.results_delivered, 1, "{what}: the data is delivered once");
            assert_eq!(o.core.finish_run(txn), (counted, false), "{what}");
        }
    }
}

/// One run of the lossy grid: the answer, the ground truth, the drop
/// rate and a description of its configuration.
struct GridRun {
    run: QueryRun,
    truth: Vec<String>,
    drops: f64,
    what: String,
}

/// One seeded lossy overlay, queried from two origins in `mode`. With
/// recovery on, breakers trip on the first failure and stay open.
fn lossy_runs(seed: u64, mode: impl Fn(u32) -> ResponseMode) -> Vec<GridRun> {
    let drop_rates = [0.0, 0.05, 0.15, 0.25, 0.35];
    let topology = match seed % 3 {
        0 => Topology::tree(10, 2),
        1 => Topology::ring(9),
        _ => Topology::random_connected(10, 3.0, seed),
    };
    let recovery_on = (seed / 3) % 2 == 1;
    let pipeline = (seed / 6) % 2 == 1;
    let drops = drop_rates[(seed / 12) as usize % drop_rates.len()];
    let recovery = RecoveryConfig {
        enabled: recovery_on,
        breaker: BreakerConfig { failure_threshold: 1, open_ms: 10_000_000, probe_timeout_ms: 300 },
        ..RecoveryConfig::on()
    };
    let config = P2pConfig { recovery, tuples_per_node: 2, seed, ..P2pConfig::default() };
    let plan = ChaosPlan::none().with_drops(drops);
    let model = NetworkModel::uniform(5, 25);
    let nodes = topology.len() as u32;
    let mut net = SimNetwork::build_with_faults(topology, model, plan, config);
    let truth = ground_truth((0..nodes).map(|i| net.registry(NodeId(i))), "//service/owner");
    [0, 5]
        .into_iter()
        .map(|origin| {
            let scope = Scope { abort_timeout_ms: 6_000, pipeline, ..Scope::default() };
            let mode = mode(origin);
            let what = format!(
                "seed {seed}, origin {origin}, {mode:?}, drops {drops}, recovery {recovery_on}, \
                 pipeline {pipeline}"
            );
            let run = net.run_query(NodeId(origin), "//service/owner", scope, mode);
            GridRun { run, truth: truth.clone(), drops, what }
        })
        .collect()
}

/// The network-wide oracle: some node abandoned, aborted or shed.
fn lost_somewhere(m: &QueryMetrics) -> bool {
    m.subtrees_abandoned + m.node_aborts + m.breaker_sheds > 0
}

#[test]
fn sim_answers_are_complete_exactly_when_nothing_was_lost() {
    // Routed, recovery on or off: `Complete` holds exactly the ground
    // truth, and a loss any node counted makes the answer partial.
    let (mut runs, mut partial) = (0, 0);
    for seed in 0..120u64 {
        for GridRun { run, truth, what, .. } in lossy_runs(seed, |_| ResponseMode::Routed) {
            let m = &run.metrics;
            let complete = run.completeness.is_complete();
            assert!(!(lost_somewhere(m) || m.deadline_hit) || !complete, "{what}: {m:?}");
            let got = sorted(run.results);
            assert!(
                !complete || got == truth,
                "{what}: complete with {} of {}",
                got.len(),
                truth.len()
            );
            runs += 1;
            partial += usize::from(!complete);
        }
    }
    assert_eq!(runs, 240);
    assert!(
        (40..200).contains(&partial),
        "both outcomes are exercised: {partial} of {runs} partial"
    );

    // Direct and referral: a loss anywhere makes the answer partial, only
    // a lossy network may make it partial otherwise, and on a loss-free
    // one `Complete` holds exactly the ground truth. (On a lossy one, data
    // frames and referral fetches that leave the tree are unacked.)
    let mut in_band = 0;
    for seed in (0..120u64).filter(|seed| seed % 2 == 0) {
        for referral in [false, true] {
            let mode = |origin: u32| match referral {
                false => ResponseMode::Direct { originator: format!("n{origin}") },
                true => ResponseMode::Referral,
            };
            for GridRun { run, truth, drops, what } in lossy_runs(seed, mode) {
                let m = &run.metrics;
                let lost = lost_somewhere(m) || m.deadline_hit;
                let complete = run.completeness.is_complete();
                assert!(!(lost && complete), "{what}: a loss read {} with {m:?}", run.completeness);
                assert!(complete || lost || drops > 0.0, "{what}: {} with {m:?}", run.completeness);
                if drops == 0.0 {
                    let got = sorted(run.results);
                    assert!(complete && got == truth, "{what}: {} of {}", got.len(), truth.len());
                }
                in_band += usize::from(lost_somewhere(m) && !m.deadline_hit);
            }
        }
    }
    assert!(in_band >= 20, "only {in_band} lossy runs ended before their deadline");
}

#[test]
fn a_dead_grandchild_costs_its_own_items_in_every_mode() {
    // n1 abandons the dead n3; n0's watchdog may abandon the live n1 first
    // (a nested watchdog race), but n1's items and n4's reached n0 already.
    let modes = [
        ResponseMode::Routed,
        ResponseMode::Direct { originator: "n0".to_owned() },
        ResponseMode::Referral,
    ];
    for mode in modes {
        let config = P2pConfig { recovery: RecoveryConfig::on(), ..P2pConfig::default() };
        let plan = ChaosPlan::none().with_dead(NodeId(3));
        let model = NetworkModel::constant(10);
        let mut net = SimNetwork::build_with_faults(Topology::tree(7, 2), model, plan, config);
        let live = [0, 1, 2, 4, 5, 6].map(|i| net.registry(NodeId(i)));
        let truth = ground_truth(live, "//service/owner");
        let run = net.run_query(NodeId(0), "//service/owner", Scope::default(), mode.clone());
        let m = &run.metrics;
        assert!((1..=2).contains(&m.subtrees_abandoned), "{mode:?}: {m:?}");
        let lost = run.completeness.subtrees_lost();
        assert!((1..=m.subtrees_abandoned).contains(&lost), "{mode:?}: {}", run.completeness);
        assert_eq!(sorted(run.results), truth, "{mode:?}: every live node's items");
    }
}

/// One live query on a lossy `tree(7, 2)` whose peer `n1` is dead: a
/// description of the answer if it reads `Complete` yet misses items.
fn complete_but_short(seed: u64) -> Option<String> {
    let recovery = RecoveryConfig {
        ack_timeout_ms: 40,
        watchdog_timeout_ms: 200,
        max_retries: 3,
        ..RecoveryConfig::live_default()
    };
    let plan = ChaosPlan::none().with_drops(0.3);
    let mut net = LiveNetwork::start_chaos(Topology::tree(7, 2), 2, seed, recovery, plan);
    let query = Query::parse("//service/owner").unwrap();
    let truth: usize = (0..7).map(|i| local_items(&net, NodeId(i), &query).len()).sum();
    net.kill(NodeId(1));
    // Store-and-forward: every item travels in an acked final frame.
    let scope = Scope { pipeline: false, ..Scope::default() };
    let report = net.query_with_scope(NodeId(0), "//service/owner", scope, Duration::from_secs(2));
    let short = report.completeness.is_complete() && report.results.len() < truth;
    short.then(|| format!("seed {seed}: complete with {} of {truth} items", report.results.len()))
}

#[test]
fn live_answers_missing_a_dead_subtree_never_read_complete() {
    let failures: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4u64)
            .map(|w| {
                s.spawn(move || {
                    let seeds = (1..=24).filter(|seed| seed % 4 == w);
                    seeds.filter_map(complete_but_short).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert!(failures.is_empty(), "a lost subtree went unreported: {failures:?}");
}
