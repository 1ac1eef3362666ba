//! The simulator delivers events in (delivery instant, push order): the
//! order a priority queue over (instant, sequence number) gives, which is
//! what makes every seeded run reproducible. Random interleavings of
//! sends, timers and pops, under constant and uniform latency and chaos
//! duplication, are checked against a reference that sorts every
//! delivered event by that key.

use proptest::prelude::*;
use wsda_net::{ChaosPlan, Delivery, NetworkModel, NodeId, Simulator};
use wsda_registry::clock::Time;

#[derive(Debug, Clone)]
enum Op {
    Send { to: u32 },
    Schedule { delay_ms: u64 },
    Next,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Short delays and few destinations, so many events share an instant.
    prop_oneof![
        4 => (0u32..4).prop_map(|to| Op::Send { to }),
        2 => (0u64..8).prop_map(|delay_ms| Op::Schedule { delay_ms }),
        3 => Just(Op::Next),
    ]
}

/// Constant or uniform latency (bit 0), with or without chaos
/// duplication (bit 1).
fn simulator(network: u8, seed: u64) -> Simulator<u64> {
    let model =
        if network & 1 == 0 { NetworkModel::constant(3) } else { NetworkModel::uniform(1, 6) };
    let chaos =
        if network & 2 == 0 { ChaosPlan::none() } else { ChaosPlan::none().with_duplication(0.3) };
    Simulator::new(model, chaos, seed)
}

/// The events pushed so far, by push index, and which of them arrived.
#[derive(Default)]
struct Log {
    /// Delivery instant, known at push time except for a chaos duplicate.
    at: Vec<Option<Time>>,
    delivered: Vec<bool>,
    /// Push indices per payload id (the message or timer tag): the event's
    /// own, then a chaos duplicate's.
    copies: Vec<Vec<usize>>,
    /// (instant, push index) in delivery order.
    order: Vec<(Time, usize)>,
}

impl Log {
    /// The payload id the next send or timer carries.
    fn next_id(&self) -> u64 {
        self.copies.len() as u64
    }

    /// Note one pushed event; returns its push index.
    fn push(&mut self, at: Option<Time>) -> usize {
        self.at.push(at);
        self.delivered.push(false);
        self.at.len() - 1
    }

    /// Pop one event and record it; `false` once the queue is empty.
    fn pop(&mut self, sim: &mut Simulator<u64>) -> bool {
        let Some(delivery) = sim.next() else { return false };
        let id = match delivery {
            Delivery::Message { message, .. } => message,
            Delivery::Timer { tag, .. } => tag,
        };
        // Copies share a payload id; the original (first in `copies`) is
        // due strictly before its duplicate, so it must arrive first.
        let copies = &self.copies[id as usize];
        let index = *copies.iter().find(|&&i| !self.delivered[i]).expect("no copy left");
        let now = sim.now();
        match self.at[index] {
            Some(at) => assert_eq!(at, now, "event {index} arrived at another instant"),
            None => assert!(self.at[copies[0]] < Some(now), "a duplicate trails its original"),
        }
        self.delivered[index] = true;
        self.order.push((now, index));
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delivery_order_is_instant_then_push_order(
        ops in proptest::collection::vec(arb_op(), 1..96),
        network in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let mut sim = simulator(network, seed);
        let mut log = Log::default();
        for op in &ops {
            let id = log.next_id();
            match *op {
                Op::Send { to } => {
                    let duplicated = sim.stats().messages_duplicated;
                    let at = sim.send(NodeId(0), NodeId(to), id, 0).expect("no drops configured");
                    let copies = if sim.stats().messages_duplicated > duplicated {
                        // The duplicate is pushed before the original.
                        let dup = log.push(None);
                        vec![log.push(Some(at)), dup]
                    } else {
                        vec![log.push(Some(at))]
                    };
                    log.copies.push(copies);
                }
                Op::Schedule { delay_ms } => {
                    let at = sim.schedule(NodeId(1), delay_ms, id);
                    let own = log.push(Some(at));
                    log.copies.push(vec![own]);
                }
                Op::Next => {
                    log.pop(&mut sim);
                }
            }
            prop_assert_eq!(sim.pending(), log.at.len() - log.order.len());
        }
        while log.pop(&mut sim) {}
        prop_assert_eq!(log.order.len(), log.at.len(), "every pushed event is delivered");
        prop_assert_eq!(sim.pending(), 0);
        let mut reference = log.order.clone();
        reference.sort();
        prop_assert_eq!(log.order, reference, "delivery order is (instant, push order)");
    }
}
