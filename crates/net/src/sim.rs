//! A deterministic discrete-event network simulator.
//!
//! The simulator owns virtual time (a [`ManualClock`] shared with registry
//! soft state) and an event queue. Node logic lives *outside* the
//! simulator: callers pump [`Simulator::next`] and dispatch each
//! [`Delivery`] to their node objects, which respond by calling
//! [`Simulator::send`] / [`Simulator::schedule`]. Determinism: a seeded RNG
//! drives latency sampling and drops, and ties in delivery time break by
//! sequence number.

use crate::model::{ChaosPlan, NetworkModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use wsda_registry::clock::{Clock, ManualClock, Time};

/// A simulated node address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An event delivered by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery<M> {
    /// A message arriving at `to`.
    Message {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Payload.
        message: M,
    },
    /// A timer firing at `node`.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Caller-chosen timer tag.
        tag: u64,
    },
}

/// Queue-internal event payload. Messages are boxed so a heap slot stays
/// a few words wide: `BinaryHeap` sift operations memmove whole slots, and
/// at 10^5-node floods the queue holds 10^5+ in-flight messages whose
/// inline payloads would otherwise dominate pump time.
#[derive(Debug)]
enum Payload<M> {
    Message { from: NodeId, to: NodeId, message: Box<M> },
    Timer { node: NodeId, tag: u64 },
}

#[derive(Debug)]
struct Scheduled<M> {
    at: Time,
    seq: u64,
    payload: Payload<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Scheduled<M> {}

impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages accepted for delivery.
    pub messages_sent: u64,
    /// Messages dropped by the fault plan.
    pub messages_dropped: u64,
    /// Extra copies injected by chaos duplication.
    pub messages_duplicated: u64,
    /// Sheddable messages refused because the destination's bounded inbox
    /// was full (see [`Simulator::set_inbox_capacity`]).
    pub messages_overflowed: u64,
    /// Total payload bytes accepted.
    pub bytes_sent: u64,
    /// Events delivered (messages + timers).
    pub events_delivered: u64,
}

/// The discrete-event simulator.
pub struct Simulator<M> {
    clock: Arc<ManualClock>,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    model: NetworkModel,
    chaos: ChaosPlan,
    rng: StdRng,
    seq: u64,
    stats: SimStats,
    /// Bounded-inbox knob: max undelivered messages per destination, plus
    /// the classifier deciding which messages may be shed at a full inbox.
    inbox_capacity: Option<usize>,
    #[allow(clippy::type_complexity)]
    sheddable: Option<Box<dyn Fn(&M) -> bool>>,
    /// Undelivered (in-flight) message count per destination.
    inflight_to: HashMap<NodeId, usize>,
}

impl<M> Simulator<M> {
    /// A simulator over the given network model, fault/chaos plan and RNG
    /// seed. Accepts a plain [`crate::FaultPlan`] or a full [`ChaosPlan`].
    pub fn new(model: NetworkModel, faults: impl Into<ChaosPlan>, seed: u64) -> Self {
        Simulator {
            clock: Arc::new(ManualClock::new()),
            queue: BinaryHeap::new(),
            model,
            chaos: faults.into(),
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
            stats: SimStats::default(),
            inbox_capacity: None,
            sheddable: None,
            inflight_to: HashMap::new(),
        }
    }

    /// Bound every node's inbox to `capacity` undelivered messages.
    /// Messages the `sheddable` classifier accepts (typically query
    /// frames) are refused — counted in
    /// [`SimStats::messages_overflowed`] — when the destination is full;
    /// everything else (results, acks, control) still queues, mirroring
    /// the live transport's priority classes.
    pub fn set_inbox_capacity(
        &mut self,
        capacity: usize,
        sheddable: impl Fn(&M) -> bool + 'static,
    ) {
        self.inbox_capacity = Some(capacity);
        self.sheddable = Some(Box::new(sheddable));
    }

    /// The virtual clock (share it with registries and nodes).
    pub fn clock(&self) -> Arc<ManualClock> {
        self.clock.clone()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Replace the fault/chaos plan mid-run (crash/heal nodes).
    pub fn set_faults(&mut self, faults: impl Into<ChaosPlan>) {
        self.chaos = faults.into();
    }

    /// The active chaos plan.
    pub fn chaos(&self) -> &ChaosPlan {
        &self.chaos
    }

    /// Send `message` of `bytes` payload size from `from` to `to`. Returns
    /// the scheduled arrival time, or `None` when the fault plan dropped
    /// it. Chaos duplication may inject a second, later copy; jitter adds
    /// to the modelled transfer delay.
    pub fn send(&mut self, from: NodeId, to: NodeId, message: M, bytes: u64) -> Option<Time>
    where
        M: Clone,
    {
        let now_ms = self.now().0;
        if self.chaos.drops(from, to, now_ms, &mut self.rng) {
            self.stats.messages_dropped += 1;
            return None;
        }
        // Bounded inbox: a sheddable message bound for a full destination
        // is refused at the (virtual) wire, counted — backpressure, not OOM.
        if let (Some(cap), Some(sheddable)) = (self.inbox_capacity, self.sheddable.as_deref()) {
            if sheddable(&message) && self.inflight_to.get(&to).copied().unwrap_or(0) >= cap {
                self.stats.messages_overflowed += 1;
                return None;
            }
        }
        let delay = self.model.transfer_ms(from, to, bytes, &mut self.rng)
            + self.chaos.extra_delay_ms(&mut self.rng);
        let at = self.now().plus(delay.max(1)); // delivery strictly after send
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes;
        if self.chaos.duplicates(&mut self.rng) {
            let extra = self.chaos.extra_delay_ms(&mut self.rng);
            let dup_at = at.plus(extra.max(1));
            self.stats.messages_duplicated += 1;
            *self.inflight_to.entry(to).or_insert(0) += 1;
            self.push(dup_at, Payload::Message { from, to, message: Box::new(message.clone()) });
        }
        *self.inflight_to.entry(to).or_insert(0) += 1;
        self.push(at, Payload::Message { from, to, message: Box::new(message) });
        Some(at)
    }

    /// Schedule a timer at `node` after `delay_ms`.
    pub fn schedule(&mut self, node: NodeId, delay_ms: u64, tag: u64) -> Time {
        let at = self.now().plus(delay_ms);
        self.push(at, Payload::Timer { node, tag });
        at
    }

    fn push(&mut self, at: Time, payload: Payload<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, payload }));
    }

    /// Pop the next event, advancing the virtual clock to its time.
    /// `None` when the simulation has quiesced.
    ///
    /// Deliberately named like `Iterator::next` — it is the pump the event
    /// loop drives — but `Simulator` is not an `Iterator` because handlers
    /// need `&mut self` back between events.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Delivery<M>> {
        let Reverse(ev) = self.queue.pop()?;
        self.clock.set(ev.at);
        self.stats.events_delivered += 1;
        Some(match ev.payload {
            Payload::Message { from, to, message } => {
                if let Some(n) = self.inflight_to.get_mut(&to) {
                    *n = n.saturating_sub(1);
                }
                Delivery::Message { from, to, message: *message }
            }
            Payload::Timer { node, tag } => Delivery::Timer { node, tag },
        })
    }

    /// Pop the next event only if it occurs at or before `deadline`.
    pub fn next_before(&mut self, deadline: Time) -> Option<Delivery<M>> {
        match self.queue.peek() {
            Some(Reverse(ev)) if ev.at <= deadline => self.next(),
            _ => None,
        }
    }

    /// Pending event count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Run until quiescent or `max_events`, dispatching through `handler`.
    /// The handler gets mutable access to the simulator to send/schedule.
    pub fn run(
        &mut self,
        max_events: u64,
        mut handler: impl FnMut(&mut Simulator<M>, Delivery<M>),
    ) -> u64 {
        let mut n = 0;
        while n < max_events {
            let Some(ev) = self.next() else { break };
            handler(self, ev);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FaultPlan, NetworkModel};

    fn sim() -> Simulator<&'static str> {
        Simulator::new(NetworkModel::constant(10), FaultPlan::none(), 42)
    }

    #[test]
    fn messages_arrive_in_latency_order() {
        let mut s = sim();
        s.send(NodeId(0), NodeId(1), "a", 0);
        s.schedule(NodeId(0), 5, 99);
        let first = s.next().unwrap();
        assert_eq!(first, Delivery::Timer { node: NodeId(0), tag: 99 });
        assert_eq!(s.now(), Time(5));
        let second = s.next().unwrap();
        assert!(matches!(second, Delivery::Message { message: "a", .. }));
        assert_eq!(s.now(), Time(10));
        assert!(s.next().is_none());
    }

    #[test]
    fn ties_break_by_send_order() {
        let mut s = sim();
        s.send(NodeId(0), NodeId(1), "first", 0);
        s.send(NodeId(0), NodeId(2), "second", 0);
        let a = s.next().unwrap();
        let b = s.next().unwrap();
        assert!(matches!(a, Delivery::Message { message: "first", .. }));
        assert!(matches!(b, Delivery::Message { message: "second", .. }));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut s = sim();
        s.send(NodeId(0), NodeId(1), "x", 0);
        s.next().unwrap();
        // Sending now schedules strictly after the current time.
        let at = s.send(NodeId(1), NodeId(0), "y", 0).unwrap();
        assert!(at > s.now());
    }

    #[test]
    fn fault_plan_drops() {
        let mut s: Simulator<&str> = Simulator::new(
            NetworkModel::constant(1),
            FaultPlan { drop_probability: 1.0, dead_nodes: Default::default() },
            1,
        );
        assert_eq!(s.send(NodeId(0), NodeId(1), "x", 10), None);
        assert_eq!(s.stats().messages_dropped, 1);
        assert_eq!(s.stats().messages_sent, 0);
        assert!(s.next().is_none());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = sim();
        s.send(NodeId(0), NodeId(1), "x", 100);
        s.send(NodeId(0), NodeId(2), "y", 50);
        assert_eq!(s.stats().messages_sent, 2);
        assert_eq!(s.stats().bytes_sent, 150);
        s.next();
        s.next();
        assert_eq!(s.stats().events_delivered, 2);
    }

    #[test]
    fn run_dispatches_until_quiescent() {
        let mut s = sim();
        s.send(NodeId(0), NodeId(1), "ping", 0);
        let mut pongs = 0;
        let n = s.run(100, |sim, ev| {
            if let Delivery::Message { from, to, message } = ev {
                if message == "ping" {
                    sim.send(to, from, "pong", 0);
                } else {
                    pongs += 1;
                }
            }
        });
        assert_eq!(n, 2);
        assert_eq!(pongs, 1);
    }

    #[test]
    fn next_before_respects_deadline() {
        let mut s = sim();
        s.send(NodeId(0), NodeId(1), "x", 0); // arrives at 10
        assert!(s.next_before(Time(5)).is_none());
        assert!(s.next_before(Time(10)).is_some());
    }

    #[test]
    fn chaos_duplication_delivers_twice() {
        let mut s: Simulator<&str> = Simulator::new(
            NetworkModel::constant(5),
            crate::ChaosPlan::none().with_duplication(1.0),
            3,
        );
        s.send(NodeId(0), NodeId(1), "dup", 0);
        assert_eq!(s.stats().messages_duplicated, 1);
        let mut seen = 0;
        while let Some(Delivery::Message { message, .. }) = s.next() {
            assert_eq!(message, "dup");
            seen += 1;
        }
        assert_eq!(seen, 2);
    }

    #[test]
    fn chaos_crash_window_uses_virtual_time() {
        let mut s: Simulator<&str> = Simulator::new(
            NetworkModel::constant(10),
            crate::ChaosPlan::none().crash(NodeId(1), 50, Some(100)),
            3,
        );
        // Before the window: delivered.
        assert!(s.send(NodeId(0), NodeId(1), "early", 0).is_some());
        s.next().unwrap(); // now = 10
        s.schedule(NodeId(0), 60, 0);
        s.next().unwrap(); // now = 70, inside the window
        assert!(s.send(NodeId(0), NodeId(1), "lost", 0).is_none());
        s.schedule(NodeId(0), 40, 0);
        s.next().unwrap(); // now = 110, after restart
        assert!(s.send(NodeId(0), NodeId(1), "back", 0).is_some());
    }

    #[test]
    fn chaos_jitter_stretches_delivery() {
        let mut s: Simulator<&str> = Simulator::new(
            NetworkModel::constant(10),
            crate::ChaosPlan::none().with_jitter(100),
            9,
        );
        let mut spread = std::collections::HashSet::new();
        for _ in 0..20 {
            spread.insert(s.send(NodeId(0), NodeId(1), "j", 0).unwrap().0);
        }
        assert!(spread.len() > 1, "jitter should vary arrival times");
        assert!(spread.iter().all(|&t| (10..=110).contains(&t)));
    }

    #[test]
    fn bounded_inbox_sheds_queries_counts_overflow() {
        let mut s = sim();
        s.set_inbox_capacity(2, |m| *m == "query");
        assert!(s.send(NodeId(0), NodeId(1), "query", 0).is_some());
        assert!(s.send(NodeId(0), NodeId(1), "query", 0).is_some());
        assert!(s.send(NodeId(0), NodeId(1), "query", 0).is_none(), "third query shed");
        assert!(s.send(NodeId(0), NodeId(1), "results", 0).is_some(), "results always queue");
        assert!(s.send(NodeId(0), NodeId(2), "query", 0).is_some(), "other nodes unaffected");
        assert_eq!(s.stats().messages_overflowed, 1);
        // Draining the inbox frees capacity again.
        s.next().unwrap();
        s.next().unwrap();
        assert!(s.send(NodeId(0), NodeId(1), "query", 0).is_some());
        assert_eq!(s.stats().messages_overflowed, 1);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut s: Simulator<u32> =
                Simulator::new(NetworkModel::uniform(1, 50), FaultPlan::none(), 7);
            for i in 0..20 {
                s.send(NodeId(0), NodeId(i % 5), i, 0);
            }
            let mut order = Vec::new();
            while let Some(Delivery::Message { message, .. }) = s.next() {
                order.push(message);
            }
            order
        };
        assert_eq!(run(), run());
    }
}
