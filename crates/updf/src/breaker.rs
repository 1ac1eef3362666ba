//! Per-neighbor circuit breakers for the P2P query plane.
//!
//! With recovery on, breakers are the node's only neighbor-failure rule: a
//! classic three-state machine per neighbor, so forwards to a dying peer
//! are shed at the source (each shed a lost subtree in the answer), and a
//! recovered peer is rehabilitated. A node creates a neighbor's breaker on
//! its first send/ack failure, and only recovery fails sends, so a
//! recovery-off node keeps none:
//!
//! * **Closed** — traffic flows; each send/ack failure increments a
//!   consecutive-failure count, any success resets it.
//! * **Open** — after `failure_threshold` consecutive failures. Forwards
//!   are shed immediately (no retransmission budget spent) until
//!   `open_ms` elapses.
//! * **HalfOpen** — after the open window, the next forward decision
//!   sheds but asks the caller to send one probe frame (a `Ping`). A
//!   `Pong` (or any ack) closes the breaker; a silent probe re-opens it
//!   after `probe_timeout_ms`.
//!
//! The machine is time-base agnostic: callers pass `now_ms` (virtual
//! simulator time in `engine.rs`, process-epoch wall milliseconds in
//! `live.rs`).

/// Circuit-breaker knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive send/ack failures before the breaker opens.
    pub failure_threshold: u32,
    /// How long an open breaker sheds before probing the neighbor.
    pub open_ms: u64,
    /// How long a half-open breaker waits for the probe's answer before
    /// re-opening.
    pub probe_timeout_ms: u64,
}

impl Default for BreakerConfig {
    /// Open after 3 consecutive failures, probe after 500 ms, re-open
    /// after a 300 ms silent probe.
    fn default() -> Self {
        BreakerConfig { failure_threshold: 3, open_ms: 500, probe_timeout_ms: 300 }
    }
}

/// The breaker's current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: forwards flow.
    Closed,
    /// Tripped: forwards shed until the open window elapses.
    Open,
    /// Probing: one `Ping` is in flight; forwards still shed.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// What to do with a forward to this neighbor right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardDecision {
    /// Breaker closed: forward normally.
    Forward,
    /// Breaker open: shed the forward, spend nothing on this neighbor.
    Shed,
    /// Open window elapsed: shed the forward but send one probe `Ping`.
    ShedAndProbe,
}

/// One neighbor's breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    /// When the breaker last entered `Open`.
    opened_at_ms: u64,
    /// When the half-open probe was sent.
    probe_sent_at_ms: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_ms: 0,
            probe_sent_at_ms: 0,
        }
    }

    /// Current state (observability).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Record one send/ack failure (a retransmission fired, or the retry
    /// budget ran out). Returns `true` when this failure tripped the
    /// breaker open.
    pub fn record_failure(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.state = BreakerState::Open;
                    self.opened_at_ms = now_ms;
                    return true;
                }
            }
            BreakerState::HalfOpen => {
                // The probe window had a failure: straight back to open.
                self.state = BreakerState::Open;
                self.opened_at_ms = now_ms;
                return true;
            }
            BreakerState::Open => {}
        }
        false
    }

    /// Record a success (an `Ack` or `Pong` arrived): the neighbor is
    /// alive, close the breaker and reset the failure streak.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// A frame just arrived *from* this neighbor: it is demonstrably
    /// alive again (restart, rejoin, partition heal). An open breaker
    /// drops the rest of its open window and goes half-open with the
    /// probe window starting now; the caller should send the probe
    /// `Ping` when this returns `true`, so the recovered peer is
    /// rehabilitated promptly instead of waiting out `open_ms`.
    pub fn note_contact(&mut self, now_ms: u64) -> bool {
        if self.state != BreakerState::Open {
            return false;
        }
        self.state = BreakerState::HalfOpen;
        self.probe_sent_at_ms = now_ms;
        true
    }

    /// Should a forward to this neighbor proceed at `now_ms`? Advances
    /// the open → half-open transition lazily (no timers needed).
    pub fn decide(&mut self, now_ms: u64) -> ForwardDecision {
        match self.state {
            BreakerState::Closed => ForwardDecision::Forward,
            BreakerState::Open => {
                if now_ms.saturating_sub(self.opened_at_ms) >= self.cfg.open_ms {
                    self.state = BreakerState::HalfOpen;
                    self.probe_sent_at_ms = now_ms;
                    ForwardDecision::ShedAndProbe
                } else {
                    ForwardDecision::Shed
                }
            }
            BreakerState::HalfOpen => {
                if now_ms.saturating_sub(self.probe_sent_at_ms) >= self.cfg.probe_timeout_ms {
                    // Probe went unanswered: count it as a failure.
                    self.state = BreakerState::Open;
                    self.opened_at_ms = now_ms;
                }
                ForwardDecision::Shed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_consecutive_failures_open_success_resets() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        assert!(!b.record_failure(0));
        assert!(!b.record_failure(1));
        b.record_success();
        assert!(!b.record_failure(2), "streak was reset");
        assert!(!b.record_failure(3));
        assert!(b.record_failure(4), "third consecutive failure trips it");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.decide(5), ForwardDecision::Shed);
    }

    #[test]
    fn open_window_elapses_into_single_probe() {
        let cfg = BreakerConfig { open_ms: 100, ..BreakerConfig::default() };
        let mut b = CircuitBreaker::new(cfg);
        for t in 0..3 {
            b.record_failure(t);
        }
        assert_eq!(b.decide(50), ForwardDecision::Shed);
        assert_eq!(b.decide(102), ForwardDecision::ShedAndProbe);
        assert_eq!(b.decide(103), ForwardDecision::Shed, "one probe per window");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.decide(104), ForwardDecision::Forward);
    }

    #[test]
    fn silent_probe_reopens() {
        let cfg = BreakerConfig { open_ms: 100, probe_timeout_ms: 50, ..BreakerConfig::default() };
        let mut b = CircuitBreaker::new(cfg);
        for t in 0..3 {
            b.record_failure(t);
        }
        // Opened at t=2 (third failure), so the window ends at t=102.
        assert_eq!(b.decide(102), ForwardDecision::ShedAndProbe);
        assert_eq!(b.decide(160), ForwardDecision::Shed, "probe timed out: back to open");
        assert_eq!(b.state(), BreakerState::Open);
        // A fresh open window must elapse before the next probe.
        assert_eq!(b.decide(200), ForwardDecision::Shed);
        assert_eq!(b.decide(260), ForwardDecision::ShedAndProbe);
    }

    #[test]
    fn contact_from_open_peer_goes_half_open_promptly() {
        let cfg =
            BreakerConfig { open_ms: 10_000, probe_timeout_ms: 50, ..BreakerConfig::default() };
        let mut b = CircuitBreaker::new(cfg);
        for t in 0..3 {
            b.record_failure(t);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // A frame from the peer at t=100 short-circuits the 10 s window.
        assert!(b.note_contact(100));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.note_contact(101), "only an open breaker reacts");
        // The caller's probe gets answered: closed.
        b.record_success();
        assert_eq!(b.decide(110), ForwardDecision::Forward);
        // A closed breaker ignores contact.
        assert!(!b.note_contact(120));
    }

    #[test]
    fn failure_in_half_open_reopens() {
        let cfg = BreakerConfig { open_ms: 100, ..BreakerConfig::default() };
        let mut b = CircuitBreaker::new(cfg);
        for t in 0..3 {
            b.record_failure(t);
        }
        assert_eq!(b.decide(102), ForwardDecision::ShedAndProbe);
        assert!(b.record_failure(110), "half-open failure re-trips");
        assert_eq!(b.state(), BreakerState::Open);
    }
}
