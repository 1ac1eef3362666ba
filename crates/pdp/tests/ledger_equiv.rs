//! The nested result ledger must behave exactly like the old flat
//! `(transaction, sender, seq)` map for `record`/`seen` — the
//! restructure only changes `forget` from a full-map retain (which the
//! old key shape made so expensive it was never called) to a single map
//! removal. A reference model built on the flat key checks equivalence
//! over arbitrary interleavings of records and forgets. Senders are
//! interned [`Sym`]s; the reference keeps the raw `u32` to prove the
//! symbol indirection changes nothing. The ledger keeps its stream count
//! as it goes; the reference recounts it from scratch.

use proptest::prelude::*;
use std::collections::HashSet;
use wsda_pdp::{ResultLedger, Sym, TransactionId};

/// The old semantics, kept as an executable specification.
#[derive(Default)]
struct FlatLedger {
    seen: HashSet<(TransactionId, u32, u64)>,
}

impl FlatLedger {
    fn record(&mut self, txn: TransactionId, sender: Sym, seq: u64) -> bool {
        self.seen.insert((txn, sender.0, seq))
    }

    fn seen(&self, txn: TransactionId, sender: Sym, seq: u64) -> bool {
        self.seen.contains(&(txn, sender.0, seq))
    }

    fn forget(&mut self, txn: TransactionId) {
        self.seen.retain(|(t, _, _)| *t != txn);
    }

    fn forget_sender(&mut self, sender: Sym) {
        self.seen.retain(|(_, s, _)| *s != sender.0);
    }

    fn streams(&self) -> usize {
        let mut streams: HashSet<(TransactionId, u32)> = HashSet::new();
        for (t, s, _) in &self.seen {
            streams.insert((*t, *s));
        }
        streams.len()
    }

    fn transactions(&self) -> usize {
        self.seen.iter().map(|(t, _, _)| *t).collect::<HashSet<_>>().len()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Record { txn: u64, sender: u8, seq: u64 },
    Seen { txn: u64, sender: u8, seq: u64 },
    Forget { txn: u64 },
    ForgetSender { sender: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Small domains so collisions (replays, cross-sender, re-records
    // after forget) actually happen.
    prop_oneof![
        4 => (0u64..4, 0u8..4, 0u64..6).prop_map(|(txn, sender, seq)| Op::Record { txn, sender, seq }),
        2 => (0u64..4, 0u8..4, 0u64..6).prop_map(|(txn, sender, seq)| Op::Seen { txn, sender, seq }),
        1 => (0u64..4).prop_map(|txn| Op::Forget { txn }),
    ]
}

/// [`arb_op`] plus departure sweeps.
fn arb_op_with_departures() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => arb_op(),
        1 => (0u8..4).prop_map(|sender| Op::ForgetSender { sender }),
    ]
}

fn txn(n: u64) -> TransactionId {
    TransactionId::derive(0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nested_ledger_matches_flat_reference(ops in proptest::collection::vec(arb_op(), 0..64)) {
        let mut nested = ResultLedger::new();
        let mut flat = FlatLedger::default();
        for op in &ops {
            match *op {
                Op::Record { txn: t, sender, seq } => {
                    let sender = Sym(u32::from(sender));
                    prop_assert_eq!(
                        nested.record(txn(t), sender, seq),
                        flat.record(txn(t), sender, seq),
                        "record({t}, {}, {seq}) diverged", sender
                    );
                }
                Op::Seen { txn: t, sender, seq } => {
                    let sender = Sym(u32::from(sender));
                    prop_assert_eq!(
                        nested.seen(txn(t), sender, seq),
                        flat.seen(txn(t), sender, seq),
                        "seen({t}, {}, {seq}) diverged", sender
                    );
                }
                Op::Forget { txn: t } => {
                    nested.forget(txn(t));
                    flat.forget(txn(t));
                }
                Op::ForgetSender { sender } => {
                    nested.forget_sender(Sym(u32::from(sender)));
                    flat.forget_sender(Sym(u32::from(sender)));
                }
            }
            prop_assert_eq!(nested.streams(), flat.streams());
            prop_assert_eq!(nested.transactions(), flat.transactions());
        }
    }

    #[test]
    fn stream_count_matches_a_recount(
        ops in proptest::collection::vec(arb_op_with_departures(), 0..96),
    ) {
        let mut ledger = ResultLedger::new();
        let mut flat = FlatLedger::default();
        for op in &ops {
            match *op {
                Op::Record { txn: t, sender, seq } => {
                    ledger.record(txn(t), Sym(u32::from(sender)), seq);
                    flat.record(txn(t), Sym(u32::from(sender)), seq);
                }
                Op::Seen { .. } => {}
                Op::Forget { txn: t } => {
                    ledger.forget(txn(t));
                    flat.forget(txn(t));
                }
                Op::ForgetSender { sender } => {
                    ledger.forget_sender(Sym(u32::from(sender)));
                    flat.forget_sender(Sym(u32::from(sender)));
                }
            }
            prop_assert_eq!(ledger.streams(), flat.streams(), "after {:?}", op);
            prop_assert_eq!(ledger.transactions(), flat.transactions());
        }
    }

    #[test]
    fn forget_erases_exactly_one_transaction(
        records in proptest::collection::vec((0u64..4, 0u8..3, 0u64..4), 1..48),
        victim in 0u64..4,
    ) {
        let mut ledger = ResultLedger::new();
        for &(t, sender, seq) in &records {
            ledger.record(txn(t), Sym(u32::from(sender)), seq);
        }
        ledger.forget(txn(victim));
        for &(t, sender, seq) in &records {
            let expect = t != victim;
            prop_assert_eq!(
                ledger.seen(txn(t), Sym(u32::from(sender)), seq),
                expect,
                "txn {t} after forgetting {victim}"
            );
        }
        // A forgotten transaction starts over from scratch.
        prop_assert!(ledger.record(txn(victim), Sym(0), 0));
    }
}
