//! Admission control, load shedding and graceful degradation.
//!
//! The ROADMAP's serving regime — heavy interactive query traffic over a
//! registry fed by publication storms — makes *overload* the norm, not the
//! exception. Left alone, a saturated registry evaluates every query it
//! receives even when the caller's deadline has already lapsed, so queue
//! wait grows without bound and goodput (answers delivered *in time*)
//! collapses. This module is the registry's admission gate:
//!
//! * **bounded in-flight evaluation slots** — at most `max_inflight`
//!   queries evaluate concurrently; excess arrivals wait in a bounded
//!   queue and are shed (`QueueFull`/`SlotTimeout`) beyond it,
//! * **deadline-aware shedding** — the PR 3 planner's index/scan
//!   classification is the cost signal: a query whose remaining budget
//!   cannot cover its estimated evaluation cost is *degraded* first (full
//!   scans shrink to a bounded partial scan reported as
//!   [`Completeness::Partial`]) and shed with an explicit retry-after
//!   only when even the degraded form cannot fit — never silently
//!   dropped,
//! * **per-client token buckets** — [`KeyedBuckets`], generalized from
//!   the provider pull throttle, meter each client id so one flooding
//!   client cannot starve the rest.
//!
//! Every decision is observable: sheds, degradations and deferred
//! admissions all increment [`crate::RegistryStats`] counters, and queue
//! depth is readable at any time. The F18 experiment sweeps offered load
//! with this gate on/off and shows the classic goodput shapes.

use crate::clock::Time;
use crate::throttle::{KeyedBuckets, ThrottleConfig};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Admission-gate configuration. Disabled by default: `query_admitted`
/// then behaves exactly like `query_scoped` (zero-cost when unloaded).
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Master switch; off preserves the unprotected behaviour exactly.
    pub enabled: bool,
    /// Queries evaluating concurrently before arrivals must queue.
    pub max_inflight: usize,
    /// Arrivals waiting for a slot before new ones are shed outright.
    pub max_queued: usize,
    /// Longest wall-clock wait for an evaluation slot.
    pub max_queue_wait_ms: u64,
    /// Cost model: nanoseconds to scan-evaluate one tuple.
    pub scan_ns_per_tuple: u64,
    /// Cost model: flat milliseconds for an index-answerable query.
    pub index_cost_ms: u64,
    /// Smallest bounded partial scan worth running; budgets affording
    /// fewer tuples shed instead of degrading.
    pub degraded_scan_min: usize,
    /// Per-client admission budget (token bucket per client id).
    pub per_client: ThrottleConfig,
    /// Retry hint returned with every shed.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            max_inflight: 32,
            max_queued: 256,
            max_queue_wait_ms: 100,
            scan_ns_per_tuple: 1_000,
            index_cost_ms: 1,
            degraded_scan_min: 16,
            per_client: ThrottleConfig::unlimited(),
            retry_after_ms: 100,
        }
    }
}

impl AdmissionConfig {
    /// The gate switched on with the default knobs.
    pub fn protective() -> Self {
        AdmissionConfig { enabled: true, ..AdmissionConfig::default() }
    }

    /// Estimated evaluation cost for a query of `class` over `tuples`.
    pub fn estimate_ms(&self, class: CostClass, tuples: usize) -> u64 {
        match class {
            CostClass::Index => self.index_cost_ms,
            CostClass::Scan => (tuples as u64).saturating_mul(self.scan_ns_per_tuple) / 1_000_000,
        }
    }

    /// How many tuples a scan can afford within `budget_ms` (a zero
    /// per-tuple cost means everything is affordable).
    pub fn affordable_tuples(&self, budget_ms: u64) -> usize {
        budget_ms
            .saturating_mul(1_000_000)
            .checked_div(self.scan_ns_per_tuple)
            .map_or(usize::MAX, |n| n as usize)
    }
}

/// The planner-derived cost class the gate admits against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Index-answerable (simple key, scoped, or sargable): cheap to admit.
    Index,
    /// Full scan: cost proportional to the store size.
    Scan,
}

/// Who is asking, and by when they need the answer.
#[derive(Debug, Clone, Default)]
pub struct AdmissionContext {
    /// Client identity for per-client budgets (`None` = unmetered).
    pub client: Option<String>,
    /// Absolute deadline; remaining budget drives degrade/shed decisions.
    pub deadline: Option<Time>,
}

impl AdmissionContext {
    /// No client identity, no deadline.
    pub fn anonymous() -> Self {
        AdmissionContext::default()
    }

    /// A context metered under `client`'s bucket.
    pub fn for_client(client: impl Into<String>) -> Self {
        AdmissionContext { client: Some(client.into()), deadline: None }
    }

    /// Attach an absolute answer deadline.
    pub fn with_deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why a query was shed (always explicit, never silent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The client's token bucket is empty.
    ClientThrottled,
    /// Remaining deadline budget cannot cover even a degraded evaluation.
    DeadlineLapsed,
    /// The slot queue is already at capacity.
    QueueFull,
    /// No evaluation slot freed up within the wait budget.
    SlotTimeout,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedReason::ClientThrottled => "client-throttled",
            ShedReason::DeadlineLapsed => "deadline-lapsed",
            ShedReason::QueueFull => "queue-full",
            ShedReason::SlotTimeout => "slot-timeout",
        })
    }
}

/// The admission gate's verdict on one query.
#[derive(Debug)]
pub enum Admission {
    /// Evaluated (possibly degraded — see
    /// [`QueryOutcome::completeness`](crate::QueryOutcome)).
    Answered(crate::registry::QueryOutcome),
    /// Shed with an explicit retry hint.
    Shed {
        /// Why the query was not evaluated.
        reason: ShedReason,
        /// How long the caller should back off before retrying.
        retry_after_ms: u64,
    },
}

impl Admission {
    /// The outcome, if the query was answered.
    pub fn outcome(self) -> Option<crate::registry::QueryOutcome> {
        match self {
            Admission::Answered(out) => Some(out),
            Admission::Shed { .. } => None,
        }
    }
}

/// Did the whole evaluation answer in full, or was part of it given up?
///
/// Shared vocabulary across layers: the P2P query plane reports lost
/// *subtrees* (PR 1's recovery), and a degraded registry scan reports
/// *unexamined tuples* — both are "the answer is a lower bound, and here
/// is how much was given up". The unit counter keeps the historical
/// `subtrees_lost` name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Completeness {
    /// Every part of the evaluation delivered its results.
    #[default]
    Complete,
    /// Part of the evaluation was given up (abandoned subtrees, or tuples
    /// skipped by a degraded scan); the result set is a lower bound.
    Partial {
        /// Number of abandonment points (lost subtrees / skipped tuples).
        subtrees_lost: u64,
    },
}

impl Completeness {
    /// True for [`Completeness::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }

    /// Lost-unit count (0 when complete).
    pub fn subtrees_lost(&self) -> u64 {
        match self {
            Completeness::Complete => 0,
            Completeness::Partial { subtrees_lost } => *subtrees_lost,
        }
    }
}

impl std::fmt::Display for Completeness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completeness::Complete => write!(f, "complete"),
            Completeness::Partial { subtrees_lost } => {
                write!(f, "partial({subtrees_lost} subtrees lost)")
            }
        }
    }
}

/// A granted evaluation slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotGrant {
    /// A slot was free on arrival.
    Immediate,
    /// The query waited in the queue before admission.
    Deferred,
}

/// Why a slot was not granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotDenied {
    QueueFull,
    Timeout,
}

#[derive(Debug, Default)]
struct GateState {
    inflight: usize,
    queued: usize,
}

/// Bounded evaluation slots plus per-client buckets. Slot waiting is a
/// wall-clock condvar wait (virtual-time single-threaded harnesses never
/// contend, so they never block).
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    cfg: AdmissionConfig,
    state: Mutex<GateState>,
    available: Condvar,
    clients: Mutex<KeyedBuckets>,
}

impl AdmissionGate {
    pub(crate) fn new(cfg: AdmissionConfig, now: Time) -> Self {
        let clients = KeyedBuckets::new(cfg.per_client, now);
        AdmissionGate {
            cfg,
            state: Mutex::new(GateState::default()),
            available: Condvar::new(),
            clients: Mutex::new(clients),
        }
    }

    /// Take one admission token from `client`'s bucket (anonymous callers
    /// are unmetered).
    pub(crate) fn client_allowed(&self, client: Option<&str>, now: Time) -> bool {
        match client {
            None => true,
            Some(c) => self.clients.lock().expect("client buckets").allow(c, now),
        }
    }

    /// Acquire an evaluation slot, waiting at most `wait` in the bounded
    /// queue.
    pub(crate) fn acquire(&self, wait: Duration) -> Result<SlotGrant, SlotDenied> {
        let mut state = self.state.lock().expect("gate state");
        if state.inflight < self.cfg.max_inflight {
            state.inflight += 1;
            return Ok(SlotGrant::Immediate);
        }
        if state.queued >= self.cfg.max_queued {
            return Err(SlotDenied::QueueFull);
        }
        state.queued += 1;
        let give_up_at = std::time::Instant::now() + wait;
        loop {
            if state.inflight < self.cfg.max_inflight {
                state.queued -= 1;
                state.inflight += 1;
                return Ok(SlotGrant::Deferred);
            }
            let remaining = give_up_at.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                state.queued -= 1;
                return Err(SlotDenied::Timeout);
            }
            let (guard, _) = self.available.wait_timeout(state, remaining).expect("gate condvar");
            state = guard;
        }
    }

    /// Release a slot acquired by [`AdmissionGate::acquire`].
    pub(crate) fn release(&self) {
        let mut state = self.state.lock().expect("gate state");
        state.inflight = state.inflight.saturating_sub(1);
        drop(state);
        self.available.notify_one();
    }

    /// Queries currently waiting for a slot.
    pub(crate) fn queued(&self) -> usize {
        self.state.lock().expect("gate state").queued
    }

    /// Queries currently evaluating.
    pub(crate) fn inflight(&self) -> usize {
        self.state.lock().expect("gate state").inflight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(max_inflight: usize, max_queued: usize) -> AdmissionGate {
        AdmissionGate::new(
            AdmissionConfig {
                enabled: true,
                max_inflight,
                max_queued,
                ..AdmissionConfig::default()
            },
            Time(0),
        )
    }

    #[test]
    fn slots_grant_and_release() {
        let g = gate(2, 4);
        assert_eq!(g.acquire(Duration::ZERO), Ok(SlotGrant::Immediate));
        assert_eq!(g.acquire(Duration::ZERO), Ok(SlotGrant::Immediate));
        assert_eq!(g.inflight(), 2);
        assert_eq!(g.acquire(Duration::ZERO), Err(SlotDenied::Timeout));
        g.release();
        assert_eq!(g.acquire(Duration::ZERO), Ok(SlotGrant::Immediate));
        g.release();
        g.release();
        assert_eq!(g.inflight(), 0);
    }

    #[test]
    fn full_queue_sheds_immediately() {
        let g = gate(1, 0);
        assert_eq!(g.acquire(Duration::ZERO), Ok(SlotGrant::Immediate));
        // max_queued = 0: the very next arrival is shed as QueueFull, not
        // Timeout — it never enters the queue at all.
        assert_eq!(g.acquire(Duration::from_millis(50)), Err(SlotDenied::QueueFull));
    }

    #[test]
    fn waiter_admitted_when_slot_frees() {
        let g = std::sync::Arc::new(gate(1, 4));
        assert_eq!(g.acquire(Duration::ZERO), Ok(SlotGrant::Immediate));
        let g2 = g.clone();
        let waiter = std::thread::spawn(move || g2.acquire(Duration::from_secs(5)));
        // Give the waiter time to enqueue, then free the slot.
        while g.queued() == 0 {
            std::thread::yield_now();
        }
        g.release();
        assert_eq!(waiter.join().expect("waiter thread"), Ok(SlotGrant::Deferred));
        assert_eq!(g.inflight(), 1);
        g.release();
    }

    #[test]
    fn client_buckets_meter_per_client() {
        let g = AdmissionGate::new(
            AdmissionConfig {
                enabled: true,
                per_client: ThrottleConfig { rate_per_sec: 1.0, burst: 2.0 },
                ..AdmissionConfig::default()
            },
            Time(0),
        );
        assert!(g.client_allowed(Some("a"), Time(0)));
        assert!(g.client_allowed(Some("a"), Time(0)));
        assert!(!g.client_allowed(Some("a"), Time(0)), "a's burst spent");
        assert!(g.client_allowed(Some("b"), Time(0)), "b unaffected");
        assert!(g.client_allowed(None, Time(0)), "anonymous is unmetered");
        assert!(g.client_allowed(Some("a"), Time(2_000)), "refill restores a");
    }

    #[test]
    fn cost_model_scales_with_store() {
        let cfg = AdmissionConfig { scan_ns_per_tuple: 1_000_000, ..Default::default() };
        assert_eq!(cfg.estimate_ms(CostClass::Scan, 50), 50);
        assert_eq!(cfg.estimate_ms(CostClass::Index, 50), cfg.index_cost_ms);
        assert_eq!(cfg.affordable_tuples(7), 7);
    }

    #[test]
    fn completeness_accessors() {
        assert!(Completeness::Complete.is_complete());
        assert_eq!(Completeness::Complete.subtrees_lost(), 0);
        let p = Completeness::Partial { subtrees_lost: 3 };
        assert!(!p.is_complete());
        assert_eq!(p.subtrees_lost(), 3);
        assert_eq!(p.to_string(), "partial(3 subtrees lost)");
    }
}
