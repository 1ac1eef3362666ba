//! F15 — behaviour under message loss and dead nodes ("failure is the
//! norm", chapter 1/4 framing applied to the P2P layer).
//!
//! The experiment runs every loss rate twice: once with the bare
//! protocol (recovery off — the seed behaviour, where a lost frame
//! stays lost until the abort timers fire) and once with the recovery
//! layer on (acked results with bounded retransmission, sequence-number
//! dedup, child-liveness watchdog). Expected shape: recovery dominates
//! the bare protocol in delivered fraction at every non-zero loss rate,
//! at the price of a bounded message overhead (acks + retries), and it
//! converts silent subtree loss into an explicit `Partial` answer.

use crate::harness::{f1 as fmt1, Report};
use serde_json::json;
use wsda_net::model::{ChaosPlan, NetworkModel};
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_updf::{P2pConfig, RecoveryConfig, SimNetwork, Topology};

const QUERY: &str = r#"//service/owner"#;
const SEEDS: [u64; 3] = [11, 42, 271];

/// One aggregated (over seeds) configuration outcome.
struct Outcome {
    delivered: u64,
    messages: u64,
    retries: u64,
    subtrees_lost: u64,
    complete_runs: u64,
    /// Runs that read complete yet delivered fewer than every node's items.
    complete_short: u64,
    t_done_ms: u64,
}

/// Run F15.
pub fn run(quick: bool) -> Report {
    let n = if quick { 63 } else { 127 };
    let total = (n as u64) * 2 * SEEDS.len() as u64; // 2 matching tuples per node
    let drop_probs = [0.0, 0.01, 0.05, 0.10, 0.20];
    let mut report = Report::new(
        "f15",
        "Recovery vs bare protocol under message loss and dead nodes",
        &[
            "fault",
            "recovery",
            "delivered",
            "fraction_pct",
            "msg_overhead_pct",
            "retries",
            "lost_subtrees",
            "complete",
            "t_done_ms",
        ],
    );
    for &p in &drop_probs {
        let plan = ChaosPlan::none().with_drops(p);
        let off = aggregate(n, &plan, RecoveryConfig::default());
        let on = aggregate(n, &plan, RecoveryConfig::on());
        let overhead =
            100.0 * (on.messages as f64 - off.messages as f64) / off.messages.max(1) as f64;
        for (label, out, oh) in [("off", &off, 0.0), ("on", &on, overhead)] {
            report.row(
                vec![
                    format!("drop {:.0}%", p * 100.0),
                    label.to_string(),
                    out.delivered.to_string(),
                    fmt1(100.0 * out.delivered as f64 / total as f64),
                    fmt1(oh),
                    out.retries.to_string(),
                    out.subtrees_lost.to_string(),
                    format!("{}/{}", out.complete_runs, SEEDS.len()),
                    out.t_done_ms.to_string(),
                ],
                &json!({"fault": format!("drop:{p}"), "recovery": label,
                        "delivered": out.delivered,
                        "fraction_pct": 100.0 * out.delivered as f64 / total as f64,
                        "messages": out.messages, "msg_overhead_pct": oh,
                        "retries": out.retries, "subtrees_lost": out.subtrees_lost,
                        "complete_runs": out.complete_runs,
                        "complete_short": out.complete_short, "t_done_ms": out.t_done_ms}),
            );
        }
    }
    // Dead interior nodes partition their subtrees away: no protocol can
    // recover the data, but recovery must still answer fast and honestly
    // (Partial with the lost subtrees counted, not a silent timeout).
    for dead_count in [1usize, 4, 8] {
        let plan = (1..=dead_count as u32)
            .map(NodeId)
            .fold(ChaosPlan::none(), |plan, node| plan.with_dead(node));
        for (label, recovery) in [("off", RecoveryConfig::default()), ("on", RecoveryConfig::on())]
        {
            let out = aggregate(n, &plan, recovery);
            report.row(
                vec![
                    format!("{dead_count} dead interior node(s)"),
                    label.to_string(),
                    out.delivered.to_string(),
                    fmt1(100.0 * out.delivered as f64 / total as f64),
                    "-".to_string(),
                    out.retries.to_string(),
                    out.subtrees_lost.to_string(),
                    format!("{}/{}", out.complete_runs, SEEDS.len()),
                    out.t_done_ms.to_string(),
                ],
                &json!({"fault": format!("dead:{dead_count}"), "recovery": label,
                        "delivered": out.delivered,
                        "fraction_pct": 100.0 * out.delivered as f64 / total as f64,
                        "messages": out.messages, "retries": out.retries,
                        "subtrees_lost": out.subtrees_lost,
                        "complete_runs": out.complete_runs,
                        "complete_short": out.complete_short, "t_done_ms": out.t_done_ms}),
            );
        }
    }
    report.note(format!(
        "binary tree of {n} nodes, 10ms links, 4s abort budget, pipelined routed flood, \
         {} seeds aggregated per row",
        SEEDS.len()
    ));
    report.note(
        "expected: recovery-on dominates recovery-off in delivered fraction at every \
         non-zero loss rate for a bounded ack/retry message overhead; dead subtrees are \
         reported as lost (Partial), never silently missing",
    );
    report
}

fn aggregate(n: usize, plan: &ChaosPlan, recovery: RecoveryConfig) -> Outcome {
    let mut out = Outcome {
        delivered: 0,
        messages: 0,
        retries: 0,
        subtrees_lost: 0,
        complete_runs: 0,
        complete_short: 0,
        t_done_ms: 0,
    };
    for &seed in &SEEDS {
        let config = P2pConfig {
            hop_cost_ms: 30,
            eval_delay_ms: 2,
            tuples_per_node: 2,
            seed,
            recovery,
            ..Default::default()
        };
        let mut net = SimNetwork::build_with_faults(
            Topology::tree(n, 2),
            NetworkModel::constant(10),
            plan.clone(),
            config,
        );
        let scope = Scope { abort_timeout_ms: 4_000, ..Scope::default() };
        let run = net.run_query(NodeId(0), QUERY, scope, ResponseMode::Routed);
        out.delivered += run.metrics.results_delivered;
        out.messages += run.metrics.messages_total();
        out.retries += run.metrics.retries_sent;
        out.subtrees_lost += run.completeness.subtrees_lost();
        out.complete_runs += u64::from(run.completeness.is_complete());
        let short = run.metrics.results_delivered < 2 * n as u64;
        out.complete_short += u64::from(run.completeness.is_complete() && short);
        let t_done = run.metrics.time_completed.unwrap_or(run.finished_at).millis();
        out.t_done_ms = out.t_done_ms.max(t_done);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the recovery layer: strictly more results
    /// delivered than the bare protocol at every non-zero loss rate.
    #[test]
    fn recovery_dominates_bare_protocol_under_loss() {
        let n = 63;
        for p in [0.01, 0.05, 0.10, 0.20] {
            let plan = ChaosPlan::none().with_drops(p);
            let off = aggregate(n, &plan, RecoveryConfig::default());
            let on = aggregate(n, &plan, RecoveryConfig::on());
            assert!(
                on.delivered > off.delivered,
                "at drop {p}: recovery-on delivered {} vs bare {}",
                on.delivered,
                off.delivered
            );
        }
    }

    /// An answer that reads complete holds both items of every node, with
    /// recovery on or off, at every loss rate.
    #[test]
    fn complete_runs_deliver_every_item() {
        for p in [0.0, 0.01, 0.05, 0.10, 0.20] {
            let plan = ChaosPlan::none().with_drops(p);
            for recovery in [RecoveryConfig::default(), RecoveryConfig::on()] {
                let out = aggregate(63, &plan, recovery);
                assert_eq!(out.complete_short, 0, "drop {p}, recovery {}", recovery.enabled);
            }
        }
    }

    /// At zero loss the two protocols deliver identical result sets, and
    /// recovery reports every run complete.
    #[test]
    fn recovery_is_free_of_loss_at_zero_drop() {
        let plan = ChaosPlan::none();
        let off = aggregate(63, &plan, RecoveryConfig::default());
        let on = aggregate(63, &plan, RecoveryConfig::on());
        assert_eq!(on.delivered, off.delivered);
        assert_eq!(on.complete_runs, SEEDS.len() as u64);
    }
}
