//! Per-query execution metrics — the raw material of every P2P figure.

use std::collections::BTreeMap;
use wsda_registry::clock::Time;

/// Metrics collected while executing one query over the network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryMetrics {
    /// Messages sent, by PDP message kind.
    pub messages_by_kind: BTreeMap<&'static str, u64>,
    /// Total bytes sent (wire-encoded sizes).
    pub bytes_total: u64,
    /// Bytes arriving at the originator (bandwidth concentration).
    pub bytes_at_originator: u64,
    /// Bytes relayed by intermediate nodes (routed-response burden).
    pub bytes_relayed: u64,
    /// Result items delivered to the originator.
    pub results_delivered: u64,
    /// Virtual time of the first delivered result.
    pub time_first_result: Option<Time>,
    /// Virtual time of the last delivered result.
    pub time_last_result: Option<Time>,
    /// Virtual time when the transaction fully completed (final results or
    /// close), if it did.
    pub time_completed: Option<Time>,
    /// Duplicate queries suppressed by loop detection.
    pub duplicates_suppressed: u64,
    /// Nodes that evaluated the query locally.
    pub nodes_evaluated: u64,
    /// Result items dropped because the transaction was already closed
    /// (late arrivals after max-results/timeout).
    pub late_results_dropped: u64,
    /// Query messages that could not be forwarded because the scope was
    /// exhausted (radius/time budget).
    pub scope_prunes: u64,
    /// Referral invitations that reached the originator.
    pub referrals_received: u64,
    /// Nodes that aborted on their local timeout before completing.
    pub node_aborts: u64,
    /// Whether the originator's deadline fired before completion.
    pub deadline_hit: bool,
    /// `Results` retransmissions plus watchdog re-queries sent (recovery).
    pub retries_sent: u64,
    /// Frames whose retry budget ran out without an ack. The receiver's
    /// edge stays open without them, so its watchdog abandons the sender.
    pub acks_timed_out: u64,
    /// Forwarded subtrees abandoned by the child-liveness watchdog.
    pub subtrees_abandoned: u64,
    /// Lost subtrees the originator counted in-band: its own, and those
    /// its children's `Partial` finals carried when their edges closed.
    pub errors_received: u64,
    /// Replayed `Results` frames suppressed by sequence-number dedup
    /// (retransmissions and network duplicates).
    pub replays_suppressed: u64,
    /// Local evaluations answered from the content index alone.
    pub plans_index: u64,
    /// Local evaluations answered from index candidates plus a residual
    /// filter (partial pushdown).
    pub plans_hybrid: u64,
    /// Local evaluations that fell back to a full registry scan.
    pub plans_scan: u64,
    /// Forwards shed because the neighbor's circuit breaker was open.
    pub breaker_sheds: u64,
    /// Breaker open transitions (K consecutive send/ack failures).
    pub breaker_opens: u64,
    /// Half-open probe `Ping`s sent.
    pub breaker_probes: u64,
    /// Local evaluations shed by the registry admission gate (deadline or
    /// budget exhausted); counted, never silent.
    pub local_evals_shed: u64,
    /// Local evaluations degraded to a bounded partial scan.
    pub local_evals_degraded: u64,
    /// Queries answered from a node's edge result cache (no evaluation,
    /// no downstream flood).
    pub cache_served: u64,
    /// Complete subtree answers installed in a node's result cache.
    pub cache_populated: u64,
}

impl QueryMetrics {
    /// Record one sent message.
    pub fn count_message(&mut self, kind: &'static str, bytes: u64) {
        *self.messages_by_kind.entry(kind).or_insert(0) += 1;
        self.bytes_total += bytes;
    }

    /// Total messages of every kind.
    pub fn messages_total(&self) -> u64 {
        self.messages_by_kind.values().sum()
    }

    /// Messages of one kind.
    pub fn messages(&self, kind: &str) -> u64 {
        self.messages_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Record which plan one node's local registry evaluation used.
    pub fn record_plan(&mut self, plan: wsda_registry::QueryPlan) {
        use wsda_registry::QueryPlan;
        match plan {
            QueryPlan::Index => self.plans_index += 1,
            QueryPlan::Hybrid => self.plans_hybrid += 1,
            QueryPlan::Scan => self.plans_scan += 1,
        }
    }

    /// Record a delivery of `n` items to the originator at `now`.
    pub fn record_delivery(&mut self, n: u64, now: Time) {
        if n > 0 {
            self.results_delivered += n;
            if self.time_first_result.is_none() {
                self.time_first_result = Some(now);
            }
            self.time_last_result = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let mut m = QueryMetrics::default();
        m.count_message("query", 100);
        m.count_message("query", 50);
        m.count_message("results", 10);
        assert_eq!(m.messages("query"), 2);
        assert_eq!(m.messages("nope"), 0);
        assert_eq!(m.messages_total(), 3);
        assert_eq!(m.bytes_total, 160);
    }

    #[test]
    fn delivery_timestamps() {
        let mut m = QueryMetrics::default();
        m.record_delivery(0, Time(5));
        assert_eq!(m.time_first_result, None);
        m.record_delivery(2, Time(10));
        m.record_delivery(3, Time(20));
        assert_eq!(m.time_first_result, Some(Time(10)));
        assert_eq!(m.time_last_result, Some(Time(20)));
        assert_eq!(m.results_delivered, 5);
    }
}
