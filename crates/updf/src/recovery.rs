//! Fault recovery for the query plane: "failure is the norm".
//!
//! The thesis's P2P evaluation treats loss as an input, not an error:
//! queries run over networks where messages drop, duplicate and delay,
//! and nodes crash mid-transaction. This module holds the knobs and the
//! outcome vocabulary shared by the simulator engine and the live
//! threaded deployment:
//!
//! * **acked results + bounded retransmission** — every `Results` frame
//!   carries its sequence number on its edge and is retransmitted with
//!   exponential backoff (plus jitter) until acknowledged or the retry
//!   budget is exhausted,
//! * **child-liveness watchdog** — a node waiting on forwarded subtrees
//!   re-sends the query once, then abandons children whose edge has not
//!   closed, so a lost subtree degrades the answer instead of hanging the
//!   query,
//! * **circuit breakers** — the one neighbor-failure rule: every fired
//!   retry timer and every abandon is a failure, and an open breaker sheds
//!   later forwards as lost subtrees until a probe answers (see
//!   [`crate::breaker`]),
//! * **completeness** — every run reports whether the full tree
//!   answered or how many subtrees were given up on: losses ride each
//!   node's final frame, and both originators decide with [`completeness`].

/// Knobs for acked-results retransmission and the child watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Master switch. Off = the bare protocol (seed behaviour): no acks,
    /// no retransmission, no watchdog. Lost frames stay lost until the
    /// abort timers fire.
    pub enabled: bool,
    /// How long to wait for an `Ack` before the first retransmission.
    pub ack_timeout_ms: u64,
    /// Retransmissions per frame before the sender gives up on it; a frame
    /// that never arrives leaves its edge open until the receiver's
    /// watchdog abandons the sender.
    pub max_retries: u32,
    /// Backoff multiplier between successive retransmissions.
    pub backoff_factor: u64,
    /// Maximum random extra delay added to each retry timer, so
    /// retransmission storms decorrelate.
    pub jitter_ms: u64,
    /// How long a node waits on silent forwarded subtrees before
    /// re-querying them (once) and then abandoning them.
    pub watchdog_timeout_ms: u64,
    /// Per-neighbor circuit breaker thresholds (see [`crate::breaker`]):
    /// breakers shed forwards to neighbors with K consecutive send/ack
    /// failures and rehabilitate them through half-open probe frames.
    pub breaker: crate::breaker::BreakerConfig,
}

impl Default for RecoveryConfig {
    /// Disabled: the simulator default, preserving the bare-protocol
    /// message accounting the experiments and property tests rely on.
    fn default() -> Self {
        RecoveryConfig {
            enabled: false,
            ack_timeout_ms: 100,
            max_retries: 3,
            backoff_factor: 2,
            jitter_ms: 20,
            watchdog_timeout_ms: 1_000,
            breaker: crate::breaker::BreakerConfig::default(),
        }
    }
}

impl RecoveryConfig {
    /// Recovery on, with defaults tuned for simulated 10–30 ms links.
    pub fn on() -> Self {
        RecoveryConfig { enabled: true, ..RecoveryConfig::default() }
    }

    /// Recovery on, tuned for the live threaded transport (sub-ms to a
    /// few ms of real latency): the live deployment default.
    pub fn live_default() -> Self {
        RecoveryConfig {
            enabled: true,
            ack_timeout_ms: 150,
            max_retries: 3,
            backoff_factor: 2,
            jitter_ms: 30,
            watchdog_timeout_ms: 1_500,
            breaker: crate::breaker::BreakerConfig::default(),
        }
    }

    /// The retry delay before attempt `attempt` (0-based), without jitter.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let mut d = self.ack_timeout_ms.max(1);
        for _ in 0..attempt {
            d = d.saturating_mul(self.backoff_factor.max(1));
        }
        d
    }
}

/// Did the whole query tree answer, or were subtrees given up on?
///
/// The enum now lives in `wsda-registry` ([`wsda_registry::Completeness`])
/// so the admission gate's degraded scans and the P2P plane's abandoned
/// subtrees share one lower-bound vocabulary; re-exported here for the
/// original callers.
pub use wsda_registry::Completeness;

/// The one completeness rule: an originator's answer is whole when no
/// lost subtree was reported to it in-band and its run ended before the
/// deadline. A deadline counts as at least one lost subtree.
pub fn completeness(lost: u64, deadline_hit: bool) -> Completeness {
    if lost == 0 && !deadline_hit {
        Completeness::Complete
    } else {
        Completeness::Partial { subtrees_lost: lost.max(u64::from(deadline_hit)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_but_on_enables() {
        assert!(!RecoveryConfig::default().enabled);
        assert!(RecoveryConfig::on().enabled);
        assert!(RecoveryConfig::live_default().enabled);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let r = RecoveryConfig { ack_timeout_ms: 100, backoff_factor: 2, ..Default::default() };
        assert_eq!(r.backoff_ms(0), 100);
        assert_eq!(r.backoff_ms(1), 200);
        assert_eq!(r.backoff_ms(3), 800);
    }

    #[test]
    fn completeness_accessors() {
        assert!(Completeness::Complete.is_complete());
        assert_eq!(Completeness::Complete.subtrees_lost(), 0);
        let p = Completeness::Partial { subtrees_lost: 3 };
        assert!(!p.is_complete());
        assert_eq!(p.subtrees_lost(), 3);
        assert_eq!(p.to_string(), "partial(3 subtrees lost)");
        assert_eq!(Completeness::Complete.to_string(), "complete");
    }
}
