//! F23 — Living topologies: query completeness and time-to-last-result
//! under continuous churn, and time-to-recovery after a churn burst.
//!
//! The lifecycle subsystem replaces static neighbor lists with per-node
//! peer tables: referral-on-leave and self-healing re-bootstrap. This
//! experiment measures what that buys:
//!
//! * **Churn-rate sweep (sim):** 1–50% of nodes leave per soft-state
//!   interval (with rejoins), and a probe query runs every interval. The
//!   figure of merit is mean completeness — results delivered over
//!   results available from the *surviving* membership — and mean
//!   time-to-last-result.
//! * **Burst recovery (sim + live):** a 30% churn burst tears the
//!   overlay; completeness must recover to >= 90% of its pre-burst value
//!   within a bounded number of healing intervals. Asserted, not just
//!   reported.
//! * **Zero-churn equivalence:** the lifecycle-on engine with no churn
//!   is asserted load- and result-identical to the static engine (the
//!   property proptested exhaustively in `wsda-updf/tests/churn_equiv`).
//!
//! Emits `BENCH_p2_churn.json`.

use crate::harness::{f2 as fmt2, write_bench, Report};
use serde_json::json;
use std::time::Duration;
use wsda_net::model::{ChurnConfig, NetworkModel};
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_updf::{LiveNetwork, P2pConfig, SimNetwork, Topology};

const QUERY: &str = "//service/owner";
const TUPLES_PER_NODE: usize = 2;

/// Completeness must recover to this fraction of the pre-burst value...
const RECOVERY_BAR: f64 = 0.9;
/// ...within this many healing intervals after a 30% burst.
const RECOVERY_INTERVALS: usize = 6;

fn scope() -> Scope {
    Scope { abort_timeout_ms: 2_000, loop_timeout_ms: 4_000, ..Scope::default() }
}

fn config(churn: ChurnConfig) -> P2pConfig {
    P2pConfig { tuples_per_node: TUPLES_PER_NODE, lifecycle: true, churn, ..P2pConfig::default() }
}

/// One probe query from the (churn-exempt) origin: completeness is the
/// fraction of the surviving membership's tuples that actually arrived.
fn probe(net: &mut SimNetwork) -> (f64, u64) {
    let started = net.now().millis();
    let run = net.run_query(NodeId(0), QUERY, scope(), ResponseMode::Routed);
    let available = (TUPLES_PER_NODE * net.alive_count()) as f64;
    let completeness = run.results.len() as f64 / available.max(1.0);
    (completeness, run.finished_at.millis().saturating_sub(started))
}

/// Mean completeness / time-to-last-result over `intervals` churn
/// intervals at the given per-interval leave rate, lifecycle-on vs the
/// static-neighbor ablation (same nodes die — the stateless churn
/// schedule is identical — but nobody heals).
struct SweepRow {
    completeness: f64,
    static_completeness: f64,
    ttlr_ms: f64,
    left: usize,
    rejoined: usize,
    rebootstraps: u64,
}

fn sweep_rate(n: usize, leave_rate: f64, intervals: usize) -> SweepRow {
    let churn = ChurnConfig::rates(1_000, leave_rate, 0.5, 0xF23).with_exempt(NodeId(0));
    let topo = Topology::random_connected(n, 3.0, 42);
    let mut net = SimNetwork::build(topo.clone(), NetworkModel::constant(5), config(churn));
    let mut ablated = SimNetwork::build(
        topo,
        NetworkModel::constant(5),
        P2pConfig { lifecycle: false, ..config(churn) },
    );
    let (mut sum_c, mut sum_s, mut sum_t) = (0.0, 0.0, 0.0);
    let (mut left, mut rejoined) = (0, 0);
    for _ in 0..intervals {
        let (l, r) = net.churn_tick();
        ablated.churn_tick();
        left += l;
        rejoined += r;
        let (c, t) = probe(&mut net);
        let (s, _) = probe(&mut ablated);
        sum_c += c;
        sum_s += s;
        sum_t += t as f64;
    }
    SweepRow {
        completeness: sum_c / intervals as f64,
        static_completeness: sum_s / intervals as f64,
        ttlr_ms: sum_t / intervals as f64,
        left,
        rejoined,
        rebootstraps: net.lifecycle_rebootstraps(),
    }
}

/// Burst recovery on the sim engine: returns (pre-burst completeness,
/// post-burst completeness, completeness at recovery, intervals taken).
fn sim_burst_recovery(n: usize) -> (f64, f64, f64, usize) {
    let churn = ChurnConfig::off().with_exempt(NodeId(0));
    let mut net = SimNetwork::build(
        Topology::random_connected(n, 3.0, 42),
        NetworkModel::constant(5),
        config(churn),
    );
    let (pre, _) = probe(&mut net);
    net.churn_burst(0.3);
    let (torn, _) = probe(&mut net);
    for k in 1..=RECOVERY_INTERVALS {
        net.churn_tick();
        let (c, _) = probe(&mut net);
        if c >= RECOVERY_BAR * pre {
            return (pre, torn, c, k);
        }
    }
    panic!(
        "sim completeness did not recover to {RECOVERY_BAR} of pre-burst \
         within {RECOVERY_INTERVALS} intervals"
    );
}

/// Burst recovery on the live engine: ~30% of peers leave gracefully;
/// completeness over the surviving membership must be back above the bar
/// within the same bounded number of (wall-clock) settle rounds.
fn live_burst_recovery(n: usize) -> (f64, f64, usize) {
    let mut net = LiveNetwork::start(Topology::ring(n), TUPLES_PER_NODE, 17);
    let timeout = Duration::from_secs(10);
    let live_probe = |net: &mut LiveNetwork| {
        let report = net.query_with_scope(NodeId(0), QUERY, scope(), timeout);
        let available = (TUPLES_PER_NODE * net.member_count()) as f64;
        report.results.len() as f64 / available.max(1.0)
    };
    let pre = live_probe(&mut net);
    let victims: Vec<NodeId> = (1..=(n as u32 * 3 / 10)).map(NodeId).collect();
    for &v in &victims {
        net.leave(v);
    }
    for k in 1..=RECOVERY_INTERVALS {
        let c = live_probe(&mut net);
        if c >= RECOVERY_BAR * pre {
            // Full strength comes back once the victims rejoin.
            for &v in &victims {
                net.join(v);
            }
            let full = live_probe(&mut net);
            return (pre, full, k);
        }
    }
    panic!(
        "live completeness did not recover to {RECOVERY_BAR} of pre-burst \
         within {RECOVERY_INTERVALS} probes"
    );
}

/// Run F23.
pub fn run(quick: bool) -> Report {
    let (n, intervals) = if quick { (24, 10) } else { (48, 30) };
    let mut report = Report::new(
        "f23",
        "Living topologies: completeness & time-to-last-result under churn",
        &[
            "leave rate/interval",
            "completeness",
            "static (no heal)",
            "ttlr ms",
            "left",
            "rejoined",
            "rebootstraps",
        ],
    );

    // Zero-churn equivalence: lifecycle-on must replay the static engine.
    {
        let mut lc = SimNetwork::build(
            Topology::random_connected(n, 3.0, 42),
            NetworkModel::constant(5),
            config(ChurnConfig::off()),
        );
        let mut st = SimNetwork::build(
            Topology::random_connected(n, 3.0, 42),
            NetworkModel::constant(5),
            P2pConfig { tuples_per_node: TUPLES_PER_NODE, ..P2pConfig::default() },
        );
        let a = lc.run_query(NodeId(0), QUERY, scope(), ResponseMode::Routed);
        let b = st.run_query(NodeId(0), QUERY, scope(), ResponseMode::Routed);
        assert_eq!(a.results, b.results, "lifecycle-on zero-churn must equal static results");
        assert_eq!(a.metrics, b.metrics, "lifecycle-on zero-churn must equal static load");
        assert_eq!(a.finished_at, b.finished_at, "lifecycle-on zero-churn must equal static time");
    }

    for &rate in &[0.01, 0.05, 0.10, 0.20, 0.50] {
        let row = sweep_rate(n, rate, intervals);
        report.row(
            vec![
                format!("{:.0}%", rate * 100.0),
                fmt2(row.completeness),
                fmt2(row.static_completeness),
                format!("{:.0}", row.ttlr_ms),
                row.left.to_string(),
                row.rejoined.to_string(),
                row.rebootstraps.to_string(),
            ],
            &json!({
                "leave_rate": rate,
                "completeness": row.completeness,
                "static_completeness": row.static_completeness,
                "time_to_last_result_ms": row.ttlr_ms,
                "left": row.left,
                "rejoined": row.rejoined,
                "rebootstraps": row.rebootstraps,
                "nodes": n,
                "intervals": intervals,
            }),
        );
    }

    let (pre, torn, recovered, k) = sim_burst_recovery(n);
    report.row(
        vec![
            "30% burst (sim)".to_owned(),
            format!("{} -> {} -> {}", fmt2(pre), fmt2(torn), fmt2(recovered)),
            "-".to_owned(),
            format!("recovered in {k}"),
            "-".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
        ],
        &json!({
            "burst": 0.3,
            "engine": "sim",
            "pre_burst_completeness": pre,
            "post_burst_completeness": torn,
            "recovered_completeness": recovered,
            "recovery_intervals": k,
            "recovery_bar": RECOVERY_BAR,
        }),
    );

    let live_n = if quick { 10 } else { 15 };
    let (lpre, lfull, lk) = live_burst_recovery(live_n);
    report.row(
        vec![
            "30% leave (live)".to_owned(),
            format!("{} -> {}", fmt2(lpre), fmt2(lfull)),
            "-".to_owned(),
            format!("recovered in {lk}"),
            "-".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
        ],
        &json!({
            "burst": 0.3,
            "engine": "live",
            "pre_burst_completeness": lpre,
            "rejoined_completeness": lfull,
            "recovery_probes": lk,
            "recovery_bar": RECOVERY_BAR,
            "nodes": live_n,
        }),
    );

    report.note(format!(
        "sweep: {n}-node degree-3 random graph, lifecycle on, churn interval 1000 ms, rejoin \
         rate 0.5, origin exempt; one probe query per interval. completeness = results \
         delivered / results available from the surviving membership; ttlr = virtual ms from \
         query injection to last result. 'static (no heal)' is the ablation: identical churn \
         schedule with the lifecycle disabled, so departures tear the static neighbor graph \
         and nobody re-bootstraps. Burst rows: 30% of nodes drop at once (sim: crash, no \
         referral; live: graceful leave with referral), and completeness must recover to >= \
         {RECOVERY_BAR} of pre-burst within {RECOVERY_INTERVALS} healing intervals — asserted, \
         as is zero-churn bit-for-bit equivalence with the static engine."
    ));
    write_bench(&mut report, "BENCH_p2_churn.json", quick);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar at debug scale: completeness recovers past 90%
    /// of pre-burst within the bounded interval budget, in both engines.
    #[test]
    fn burst_recovery_clears_the_bar_in_both_engines() {
        let (pre, _, recovered, k) = sim_burst_recovery(20);
        assert!(recovered >= RECOVERY_BAR * pre);
        assert!(k <= RECOVERY_INTERVALS);
        let (lpre, lfull, lk) = live_burst_recovery(10);
        assert!(lk <= RECOVERY_INTERVALS);
        assert!(lfull >= RECOVERY_BAR * lpre, "rejoined live overlay lost content");
    }

    /// The quick sweep's rows, pinned: churn and healing are
    /// deterministic per seed, so a change to the lifecycle rules shows
    /// up here as moved counts, not only as a completeness drop.
    #[test]
    fn quick_sweep_rows_are_pinned() {
        // (rate, left, rejoined, rebootstraps, static completeness)
        let expected = [
            (0.01, 3, 2, 1, 1.0),
            (0.05, 9, 6, 5, 0.98200),
            (0.10, 15, 13, 13, 0.97634),
            (0.20, 30, 21, 26, 0.90422),
            (0.50, 60, 44, 33, 0.73651),
        ];
        for (rate, left, rejoined, rebootstraps, static_completeness) in expected {
            let row = sweep_rate(24, rate, 10);
            assert_eq!((row.left, row.rejoined, row.rebootstraps), (left, rejoined, rebootstraps));
            assert_eq!(row.completeness, 1.0, "healing keeps every probe whole at {rate}");
            assert!(
                (row.static_completeness - static_completeness).abs() < 1e-4,
                "static completeness at {rate}: {}",
                row.static_completeness
            );
        }
    }

    /// Sustained 10% churn with healing keeps completeness high.
    #[test]
    fn sustained_churn_retains_completeness() {
        let row = sweep_rate(16, 0.10, 8);
        assert!(
            row.completeness > 0.9,
            "10% churn with healing should stay near-complete, got {}",
            row.completeness
        );
        assert!(row.left > 0, "churn never fired");
        assert!(
            row.completeness >= row.static_completeness,
            "healing must not lose to the static ablation: {} vs {}",
            row.completeness,
            row.static_completeness
        );
    }
}
