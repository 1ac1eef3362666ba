//! Peer-lifecycle property tests and churn-equivalence pins.
//!
//! Three contracts from ROADMAP item 5:
//!
//! 1. The lifecycle state machine only ever takes **legal** transitions —
//!    the table in `wsda_updf::lifecycle::transition` is exhaustive over
//!    `PeerState::ALL × PeerEvent::ALL`, illegal events are ignored (not
//!    panics), and the connected set stays consistent with entry states
//!    under arbitrary event sequences.
//!
//! 2. **No stuck Pending**: however a table is driven, one
//!    `tick_pending` past the timeout leaves no overdue dial behind.
//!
//! 3. **Churn equivalence**: a lifecycle-enabled run with *zero churn* is
//!    bit-for-bit identical to a static-neighbor run — same result
//!    stream, same metrics struct, same virtual finish time, same
//!    assembled trace forest. The lifecycle must not consume RNG state,
//!    schedule timers, or reorder forwards when nothing churns.

use proptest::prelude::*;
use wsda_net::model::{ChaosPlan, NetworkModel};
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_updf::lifecycle::transition;
use wsda_updf::{
    P2pConfig, PeerEvent, PeerState, PeerTable, QueryRun, RecoveryConfig, SimNetwork, Topology,
};

const QUERY: &str = "//service/owner";

// ---- 1. state-machine exhaustiveness --------------------------------------

/// The documented table, spelled out pair by pair: every cell of
/// ALL × ALL is pinned, so adding a state or event without extending the
/// table breaks this test rather than silently mis-transitioning.
#[test]
fn transition_table_is_exhaustive_and_matches_spec() {
    use PeerEvent::*;
    use PeerState::*;
    for state in PeerState::ALL {
        for event in PeerEvent::ALL {
            let expect = match (state, event) {
                (Identified | Departed, Refer) => Some(Prospect),
                (Identified | Prospect | Departed, Dial) => Some(Pending),
                (Pending | Prospect, Accept) => Some(Connected),
                (Pending, Timeout) => Some(Identified),
                (Identified | Prospect | Pending | Connected, Depart) => Some(Departed),
                _ => None,
            };
            assert_eq!(
                transition(state, event),
                expect,
                "transition({state:?}, {event:?}) diverged from spec"
            );
        }
    }
    // Departed is only left through re-engagement, never by Depart again.
    assert_eq!(transition(Departed, Depart), None);
    assert_eq!(transition(Departed, Accept), None);
}

fn event_from(pick: u8) -> PeerEvent {
    PeerEvent::ALL[pick as usize % PeerEvent::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary event sequences never panic, never take an illegal
    /// transition, and keep the connected set exactly the Connected
    /// entries, sorted and unique.
    #[test]
    fn random_event_sequences_stay_legal_and_consistent(
        seq in proptest::collection::vec((0u32..12, 0u8..6), 0..200),
    ) {
        let mut table = PeerTable::new();
        let mut now = 0u64;
        for (peer, pick) in seq {
            now += 1;
            let peer = NodeId(peer);
            let before = table.entry(peer).map(|e| e.state);
            let event = event_from(pick);
            let applied = table.apply(peer, event, now);
            // Unknown peers are identified first; the transition taken
            // must be the legal one from the (possibly fresh) state.
            let from = before.unwrap_or(PeerState::Identified);
            prop_assert_eq!(applied, transition(from, event));
            let connected: Vec<NodeId> = table
                .entries()
                .iter()
                .filter(|e| e.state == PeerState::Connected)
                .map(|e| e.peer)
                .collect();
            prop_assert_eq!(table.connected(), connected.as_slice());
            prop_assert!(table.connected().windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// No stuck Pending: after any drive, one tick past the timeout
    /// retires every overdue dial back to Identified.
    #[test]
    fn pending_dials_always_time_out(
        seq in proptest::collection::vec((0u32..8, 0u8..6), 0..120),
        timeout in 1u64..500,
    ) {
        let mut table = PeerTable::new();
        let mut now = 0u64;
        for (peer, pick) in seq {
            now += 1;
            table.apply(NodeId(peer), event_from(pick), now);
        }
        let timed_out = table.tick_pending(now + timeout, timeout);
        for peer in &timed_out {
            prop_assert_eq!(table.entry(*peer).map(|e| e.state), Some(PeerState::Identified));
        }
        prop_assert_eq!(table.count(PeerState::Pending), 0, "a dial sat Pending past timeout");
    }
}

// ---- 3. zero-churn equivalence --------------------------------------------

fn topo(kind: u8, n: usize, seed: u64) -> Topology {
    match kind % 5 {
        0 => Topology::ring(n.max(3)),
        1 => Topology::line(n),
        2 => Topology::star(n.max(2)),
        3 => Topology::tree(n, 2),
        _ => Topology::random_connected(n.max(2), 3.0, seed),
    }
}

fn config(lifecycle: bool, recovery: bool) -> P2pConfig {
    P2pConfig {
        tuples_per_node: 1,
        eval_delay_ms: 1,
        hop_cost_ms: 0,
        lifecycle,
        recovery: if recovery { RecoveryConfig::on() } else { RecoveryConfig::default() },
        ..P2pConfig::default()
    }
}

fn scope(radius: Option<u32>) -> Scope {
    Scope { radius, abort_timeout_ms: 1 << 40, loop_timeout_ms: 1 << 41, ..Scope::default() }
}

/// Run the same query on two identically-built networks — one with the
/// lifecycle on (zero churn), one static — and return runs plus traces.
fn run_pair(
    t: &Topology,
    chaos: ChaosPlan,
    recovery: bool,
    mode: &ResponseMode,
    radius: Option<u32>,
) -> ((QueryRun, String), (QueryRun, String)) {
    let mut out = Vec::new();
    for lifecycle in [true, false] {
        let mut net = SimNetwork::build_with_faults(
            t.clone(),
            NetworkModel::constant(5),
            chaos.clone(),
            config(lifecycle, recovery),
        );
        let run = net.run_query(NodeId(0), QUERY, scope(radius), mode.clone());
        let trace = net.assemble_trace(run.transaction).to_json().to_string();
        out.push((run, trace));
    }
    let stat = out.pop().expect("static run");
    let lc = out.pop().expect("lifecycle run");
    (lc, stat)
}

fn assert_equiv((lc, lc_trace): (QueryRun, String), (st, st_trace): (QueryRun, String)) {
    assert_eq!(lc.results, st.results, "result streams diverge");
    assert_eq!(lc.metrics, st.metrics, "metrics diverge");
    assert_eq!(lc.finished_at, st.finished_at, "virtual finish time diverges");
    assert_eq!(
        format!("{:?}", lc.completeness),
        format!("{:?}", st.completeness),
        "completeness diverges"
    );
    assert_eq!(lc_trace, st_trace, "assembled trace forests diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean network, all response modes, random topologies: lifecycle-on
    /// at zero churn must replay the static engine bit for bit.
    #[test]
    fn lifecycle_zero_churn_equals_static_clean(
        kind in 0u8..5,
        n in 4usize..28,
        seed in 0u64..50,
        mode_pick in 0u8..3,
        radius in proptest::option::of(0u32..5),
    ) {
        let t = topo(kind, n, seed);
        let mode = match mode_pick {
            0 => ResponseMode::Routed,
            1 => ResponseMode::Direct { originator: "n0".into() },
            _ => ResponseMode::Referral,
        };
        let (lc, st) = run_pair(&t, ChaosPlan::none(), false, &mode, radius);
        assert_equiv(lc, st);
    }

    /// Chaos (drops + duplication + jitter) with recovery on: the
    /// lifecycle scoring hooks on the retry/watchdog paths must not
    /// perturb the replay either.
    #[test]
    fn lifecycle_zero_churn_equals_static_under_chaos(
        kind in 0u8..5,
        n in 4usize..20,
        seed in 0u64..40,
        drop_pct in 0u32..30,
        dup_pct in 0u32..50,
        jitter in 0u64..20,
    ) {
        let t = topo(kind, n, seed);
        let chaos = ChaosPlan::none()
            .with_drops(f64::from(drop_pct) / 100.0)
            .with_duplication(f64::from(dup_pct) / 100.0)
            .with_jitter(jitter);
        let (lc, st) = run_pair(&t, chaos, true, &ResponseMode::Routed, None);
        assert_equiv(lc, st);
    }
}

// ---- churn + self-healing integration -------------------------------------

fn churn_config() -> P2pConfig {
    P2pConfig {
        tuples_per_node: 2,
        eval_delay_ms: 1,
        hop_cost_ms: 0,
        lifecycle: true,
        recovery: RecoveryConfig::on(),
        ..P2pConfig::default()
    }
}

/// A 30% crash burst tears the overlay; healing rounds must reconnect
/// the survivors and completeness must come back.
#[test]
fn overlay_heals_after_crash_burst() {
    use wsda_net::model::ChurnConfig;
    let t = Topology::ring(20);
    let config = P2pConfig { churn: ChurnConfig::off().with_exempt(NodeId(0)), ..churn_config() };
    let mut net = SimNetwork::build(t.clone(), NetworkModel::constant(5), config);
    let baseline = net.run_query(NodeId(0), QUERY, scope(None), ResponseMode::Routed);
    let per_node = baseline.results.len() / 20;
    assert!(per_node > 0, "baseline query must yield results");

    // Crash-like burst: victims vanish without referral-on-leave.
    let victims = net.churn_burst(0.3);
    assert_eq!(victims.len(), 6, "30% of 20 nodes");
    assert!(!victims.contains(&NodeId(0)), "origin must survive for the probe query");
    assert!(net.alive_count() == 14);

    // Healing is driven by the soft-state cadence; a handful of intervals
    // must reconnect the survivors.
    let mut healed_at = None;
    for k in 0..6 {
        net.churn_tick();
        if net.overlay_connected() {
            healed_at = Some(k + 1);
            break;
        }
    }
    let healed_at = healed_at.expect("overlay did not re-converge within 6 intervals");
    assert!(healed_at <= 6);
    assert!(net.lifecycle_rebootstraps() > 0 || net.overlay_connected());

    // Post-heal completeness: every survivor answers again.
    let after = net.run_query(NodeId(0), QUERY, scope(None), ResponseMode::Routed);
    assert_eq!(after.results.len(), per_node * net.alive_count(), "healed overlay is incomplete");

    // Rejoins bring the overlay back to full strength.
    for v in victims {
        assert!(net.rejoin_node(v));
    }
    net.churn_tick();
    assert!(net.overlay_connected());
    let full = net.run_query(NodeId(0), QUERY, scope(None), ResponseMode::Routed);
    assert_eq!(full.results.len(), baseline.results.len(), "rejoined overlay lost content");
}

/// Graceful departure refers the leaver's neighbors to each other (the
/// ring does not split) and sweeps the leaver's per-peer state.
#[test]
fn graceful_leave_refers_neighbors_and_sweeps_state() {
    let mut net = SimNetwork::build(Topology::ring(8), NetworkModel::constant(5), churn_config());
    // Populate result caches with per-source provenance.
    let cache_scope = Scope { result_staleness_ms: 1 << 30, ..scope(None) };
    let run = net.run_query(NodeId(0), QUERY, cache_scope, ResponseMode::Routed);
    assert!(!run.results.is_empty());
    let entries_before = net.metrics().family_sum("updf_result_cache_entries_total");
    assert!(entries_before > 0, "query with staleness bound must populate caches");

    assert!(net.depart_node(NodeId(1)));
    net.churn_tick();
    // Former neighbors re-link via the departure referrals: the overlay
    // stays connected without n1.
    assert!(net.overlay_connected());
    for i in [0u32, 2] {
        assert!(
            !net.connected_peers(NodeId(i)).contains(&NodeId(1)),
            "n{i} still forwards to the departed n1"
        );
    }
    // Entries folded from n1 were purged everywhere.
    assert!(
        net.metrics().family_sum("updf_result_cache_entries_total") < entries_before,
        "no cache entry was purged on departure"
    );
}

/// A node that rejoins after every underlay contact has left knows no
/// live peer, so it stays isolated until the next healing round, which
/// re-enters it through the lowest-id alive node (bootstrap server).
#[test]
fn isolated_rejoiner_re_enters_through_the_lowest_id_alive_node() {
    // Line 0-1-2-3: n1 leaves (referring n0 and n2 to each other), then
    // n0 leaves and comes back knowing only its underlay contact n1.
    let mut net = SimNetwork::build(Topology::line(4), NetworkModel::constant(5), churn_config());
    assert!(net.depart_node(NodeId(1)));
    assert!(net.depart_node(NodeId(0)));
    assert!(net.rejoin_node(NodeId(0)));
    assert!(net.connected_peers(NodeId(0)).is_empty(), "n0's only contact is gone");
    assert!(!net.overlay_connected());
    assert_eq!(net.lifecycle_rebootstraps(), 0);

    net.churn_tick();
    assert_eq!(net.connected_peers(NodeId(0)), &[NodeId(2)], "n2 is the lowest-id alive node");
    assert_eq!(net.connected_peers(NodeId(2)), &[NodeId(0), NodeId(3)], "the link is two-sided");
    assert_eq!(net.lifecycle_rebootstraps(), 1);
    assert!(net.overlay_connected());
    let run = net.run_query(NodeId(0), QUERY, scope(None), ResponseMode::Routed);
    assert_eq!(run.results.len(), 2 * net.alive_count());
}

/// A node below its underlay degree whose peer table holds no live
/// Identified or Prospect peer links to the lowest-id alive node it is
/// not yet connected to, so torn segments re-join the overlay.
#[test]
fn underfilled_node_without_live_candidates_links_to_the_lowest_id_stranger() {
    // Line 0-1-2-3: n3 and n2 leave, then n3 comes back with its only
    // contact n2 gone. n1 (degree 2, one link left, n2 departed) heals
    // before n3 does, so n1's underfilled fallback is what reaches n3.
    let mut net = SimNetwork::build(Topology::line(4), NetworkModel::constant(5), churn_config());
    assert!(net.depart_node(NodeId(3)));
    assert!(net.depart_node(NodeId(2)));
    assert!(net.rejoin_node(NodeId(3)));
    assert_eq!(net.connected_peers(NodeId(1)), &[NodeId(0)]);
    assert!(net.connected_peers(NodeId(3)).is_empty());
    assert!(!net.overlay_connected());

    net.churn_tick();
    assert_eq!(net.connected_peers(NodeId(1)), &[NodeId(0), NodeId(3)], "n0 is already linked");
    assert_eq!(net.connected_peers(NodeId(3)), &[NodeId(1)], "the link is two-sided");
    assert_eq!(net.connected_peers(NodeId(0)), &[NodeId(1)], "n0 is at its degree");
    assert_eq!(net.lifecycle_rebootstraps(), 1);
    assert!(net.overlay_connected());
    let run = net.run_query(NodeId(0), QUERY, scope(None), ResponseMode::Routed);
    assert_eq!(run.results.len(), 2 * net.alive_count());
}

/// Stochastic churn at a configurable rate keeps running queries
/// answerable from the surviving membership.
#[test]
fn stochastic_churn_keeps_overlay_connected() {
    use wsda_net::model::ChurnConfig;
    let config = P2pConfig {
        churn: ChurnConfig::rates(50, 0.10, 0.50, 33).with_exempt(NodeId(0)),
        ..churn_config()
    };
    let mut net = SimNetwork::build(
        Topology::random_connected(24, 3.0, 9),
        NetworkModel::constant(5),
        config,
    );
    let mut total_left = 0;
    for _ in 0..20 {
        let (left, _) = net.churn_tick();
        total_left += left;
        assert!(net.is_alive(NodeId(0)), "exempt origin must never churn out");
        assert!(net.overlay_connected(), "healing failed to keep survivors connected");
        let run = net.run_query(NodeId(0), QUERY, scope(None), ResponseMode::Routed);
        assert_eq!(run.results.len(), 2 * net.alive_count());
    }
    assert!(total_left > 0, "churn rates never fired in 20 intervals");
}
