//! A node's per-sender frame records must decide exactly what a flat
//! `(transaction, sender, seq)` set decides.
//!
//! The reference keeps every received frame as one triple in a flat set,
//! which answers "is this a replay?" by lookup, and closes a pending
//! child's edge when its final is in and every number the final counts is
//! in the set. [`NodeStateTable`] answers both from one compact
//! [`wsda_pdp::EdgeStream`] per sender: a dense prefix, a window bitmap
//! and a spill for far out-of-order numbers. The schedules here draw frame
//! numbers up to ~2,000 per edge, shuffle them far out of order, repeat
//! some, send frames after the final, and interleave forwards, closes,
//! abandons, departures and loop-timeout expiry; every decision and the
//! running stream count must match the reference after every step.

use proptest::prelude::*;
use proptest::TestRng;
use std::collections::{BTreeSet, HashMap, HashSet};
use wsda_pdp::{Arrival, EdgeStream, NodeStateTable, Sym, TransactionId};
use wsda_registry::clock::Time;

const TXNS: u64 = 3;
const SENDERS: u32 = 4;
/// The largest final number a long stream draws.
const LONG: u64 = 2_000;

#[derive(Debug, Clone)]
enum Op {
    Begin { txn: u64 },
    AddChild { txn: u64, sender: u32 },
    Frame { txn: u64, sender: u32, seq: u64, last: Option<u64> },
    Close { txn: u64 },
    ChildDone { txn: u64, sender: u32 },
    Depart { sender: u32 },
    Advance { ms: u64 },
}

fn txn(n: u64) -> TransactionId {
    TransactionId::derive(0, n)
}

/// Each transaction's static loop timeout, so expiry happens out of
/// insertion order.
fn loop_timeout(t: u64) -> u64 {
    [300, 100, 200][t as usize % 3]
}

/// The numbers `0..=n` far out of order: a full shuffle for half the
/// streams, near-order with occasional long jumps for the rest, some
/// numbers repeated, and sometimes frames after the final.
fn shuffled(rng: &mut TestRng, n: u64) -> Vec<u64> {
    let mut seqs: Vec<u64> = (0..=n).collect();
    let len = seqs.len();
    let full = rng.below(2) == 0;
    for i in 0..len {
        let j = if full || rng.below(8) == 0 {
            i + rng.below((len - i) as u64) as usize
        } else {
            (i + rng.below(3) as usize).min(len - 1)
        };
        seqs.swap(i, j);
    }
    let repeats = rng.below(len as u64 / 4 + 2);
    for _ in 0..repeats {
        let from = rng.below(seqs.len() as u64) as usize;
        let to = from + rng.below((seqs.len() - from) as u64 + 1) as usize;
        seqs.insert(to, seqs[from]);
    }
    if rng.below(4) == 0 {
        seqs.extend(n + 1..n + 1 + rng.below(80));
    }
    seqs
}

/// A random schedule: per-edge frame streams interleaved with forwards,
/// closes, abandons, departures, re-begins and clock advances.
struct Schedules;

impl Strategy for Schedules {
    type Value = (bool, Vec<Op>);

    fn generate(&self, rng: &mut TestRng) -> (bool, Vec<Op>) {
        let dedup = rng.below(4) != 0;
        let mut streams: Vec<Vec<Op>> = Vec::new();
        for t in 0..TXNS {
            for s in 0..SENDERS {
                if rng.below(3) == 0 {
                    continue;
                }
                let n = if rng.below(4) == 0 { rng.below(LONG + 1) } else { rng.below(8) };
                let lost = rng.below(3);
                let mut stream = Vec::new();
                if rng.below(4) != 0 {
                    stream.push(Op::AddChild { txn: t, sender: s });
                }
                // Some edges never see their final, or lose one frame.
                let final_lost = rng.below(8) == 0;
                let gap = (rng.below(8) == 0).then(|| rng.below(n + 1));
                for seq in shuffled(rng, n) {
                    if gap == Some(seq) || (final_lost && seq == n) {
                        continue;
                    }
                    let last = (seq == n).then_some(lost);
                    stream.push(Op::Frame { txn: t, sender: s, seq, last });
                }
                streams.push(stream);
            }
        }
        let mut ops: Vec<Op> = (0..TXNS).map(|t| Op::Begin { txn: t }).collect();
        let mut cursors = vec![0usize; streams.len()];
        loop {
            let open: Vec<usize> =
                (0..streams.len()).filter(|&i| cursors[i] < streams[i].len()).collect();
            if open.is_empty() {
                break;
            }
            let i = open[rng.below(open.len() as u64) as usize];
            ops.push(streams[i][cursors[i]].clone());
            cursors[i] += 1;
            let t = rng.below(TXNS);
            let s = rng.below(u64::from(SENDERS)) as u32;
            ops.push(match rng.below(400) {
                0 => Op::Close { txn: t },
                1 => Op::ChildDone { txn: t, sender: s },
                2 => Op::Depart { sender: s },
                3 | 4 => Op::Advance { ms: rng.below(120) },
                5 | 6 => Op::Begin { txn: t },
                _ => continue,
            });
        }
        (dedup, ops)
    }
}

/// The flat reference: every received frame is one `(txn, sender, seq)`
/// triple.
#[derive(Default)]
struct Flat {
    now: u64,
    /// Live transactions and when each expires.
    deadline: HashMap<u64, u64>,
    seen: HashSet<(u64, u32, u64)>,
    pending: BTreeSet<(u64, u32)>,
    /// A pending edge's final: its number, its losses, and how many of
    /// the numbers it counts are still missing.
    finals: HashMap<(u64, u32), (u64, u64, usize)>,
}

impl Flat {
    fn begin(&mut self, t: u64) {
        self.deadline.entry(t).or_insert(self.now + loop_timeout(t));
    }

    fn frame(&mut self, t: u64, s: u32, seq: u64, last: Option<u64>, dedup: bool) -> Arrival {
        let settled = if last.is_some() { Arrival::Closed(0) } else { Arrival::Open };
        let pending = self.pending.contains(&(t, s));
        if !self.deadline.contains_key(&t) || (!pending && !dedup) {
            return settled;
        }
        if !self.seen.insert((t, s, seq)) {
            return match (dedup, pending) {
                (true, _) => Arrival::Replay,
                (false, true) => Arrival::Open,
                (false, false) => settled,
            };
        }
        if !pending {
            return settled;
        }
        if let Some(lost) = last {
            let missing = (0..=seq).filter(|&k| !self.seen.contains(&(t, s, k))).count();
            self.finals.insert((t, s), (seq, lost, missing));
        } else if let Some(f) = self.finals.get_mut(&(t, s)).filter(|f| seq <= f.0) {
            f.2 -= 1;
        }
        match self.finals.get(&(t, s)) {
            Some(&(_, lost, 0)) => {
                self.stop_pending(t, s, dedup);
                Arrival::Closed(lost)
            }
            _ => Arrival::Open,
        }
    }

    fn stop_pending(&mut self, t: u64, s: u32, dedup: bool) {
        self.pending.remove(&(t, s));
        self.finals.remove(&(t, s));
        if !dedup {
            self.seen.retain(|&(tt, ss, _)| (tt, ss) != (t, s));
        }
    }

    fn close(&mut self, t: u64, dedup: bool) {
        let children: Vec<u32> = self.children(t);
        for s in children {
            self.stop_pending(t, s, dedup);
        }
    }

    fn depart(&mut self, s: u32) {
        self.seen.retain(|&(_, ss, _)| ss != s);
        self.finals.retain(|&(_, ss), _| ss != s);
    }

    /// Advance the clock; the transactions whose loop timeout lapsed.
    fn advance(&mut self, ms: u64) -> BTreeSet<u64> {
        self.now += ms;
        let now = self.now;
        let expired: BTreeSet<u64> =
            self.deadline.iter().filter(|&(_, &d)| d <= now).map(|(&t, _)| t).collect();
        for &t in &expired {
            self.deadline.remove(&t);
            self.seen.retain(|&(tt, _, _)| tt != t);
            self.pending.retain(|&(tt, _)| tt != t);
            self.finals.retain(|&(tt, _), _| tt != t);
        }
        expired
    }

    fn children(&self, t: u64) -> Vec<u32> {
        self.pending.range((t, 0)..=(t, u32::MAX)).map(|&(_, s)| s).collect()
    }

    fn streams(&self) -> usize {
        self.seen.iter().map(|&(t, s, _)| (t, s)).collect::<HashSet<_>>().len()
    }
}

/// Run a schedule on the table and the reference side by side. The
/// stream count and the pending children are compared after every step
/// but a frame, and after frames too when `every_step`.
fn replay(dedup: bool, ops: &[Op], every_step: bool) {
    let mut table = NodeStateTable::new();
    let mut flat = Flat::default();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Begin { txn: t } => {
                table.begin(txn(t), None, Time(flat.now), loop_timeout(t));
                flat.begin(t);
            }
            Op::AddChild { txn: t, sender } => {
                table.add_child(&txn(t), Sym(sender));
                if flat.deadline.contains_key(&t) {
                    flat.pending.insert((t, sender));
                }
            }
            Op::Frame { txn: t, sender, seq, last } => {
                let got = table.frame(&txn(t), Sym(sender), seq, last, dedup);
                let want = flat.frame(t, sender, seq, last, dedup);
                prop_assert_eq!(got, want, "step {}: {:?} (dedup {})", step, op, dedup);
            }
            Op::Close { txn: t } => {
                table.close(&txn(t));
                flat.close(t, dedup);
            }
            Op::ChildDone { txn: t, sender } => {
                table.child_done(&txn(t), Sym(sender));
                if flat.pending.contains(&(t, sender)) {
                    flat.stop_pending(t, sender, dedup);
                }
            }
            Op::Depart { sender } => {
                table.forget_sender(Sym(sender));
                flat.depart(sender);
            }
            Op::Advance { ms } => {
                let want = flat.advance(ms);
                let got: BTreeSet<u64> = table
                    .sweep_expired(Time(flat.now))
                    .into_iter()
                    .map(|id| (0..TXNS).find(|&t| txn(t) == id).expect("a known transaction"))
                    .collect();
                prop_assert_eq!(got, want, "step {}: expiry at {}", step, flat.now);
            }
        }
        prop_assert_eq!(table.len(), flat.deadline.len());
        if every_step || !matches!(op, Op::Frame { .. }) {
            prop_assert_eq!(table.streams(), flat.streams(), "step {}: {:?}", step, op);
            for t in 0..TXNS {
                let got: Vec<u32> = table
                    .get(&txn(t))
                    .map(|s| s.pending_children().map(|c| c.0).collect())
                    .unwrap_or_default();
                prop_assert_eq!(got, flat.children(t), "step {}: children of {}", step, t);
            }
        }
    }
    prop_assert_eq!(table.streams(), flat.streams(), "at the end");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn table_matches_flat_reference_far_out_of_order(schedule in Schedules) {
        let (dedup, ops) = schedule;
        replay(dedup, &ops, false);
    }

    #[test]
    fn edge_stream_matches_a_hash_set(n in 0u64..=LONG, seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&seed.to_string());
        let lost = seed % 3;
        let mut stream = EdgeStream::default();
        let mut seen = HashSet::new();
        // Numbers the final counts that have not arrived.
        let mut missing = n + 1;
        let mut closed = false;
        let seqs = shuffled(&mut rng, n);
        for (i, &seq) in seqs.iter().enumerate() {
            let last = (seq == n).then_some(lost);
            let got = stream.record(seq, last);
            let fresh = seen.insert(seq);
            if fresh && seq <= n {
                missing -= 1;
            }
            let want = match fresh {
                false => Arrival::Replay,
                true if seq <= n && missing == 0 => Arrival::Closed(lost),
                true => Arrival::Open,
            };
            prop_assert_eq!(got, want, "frame {} numbered {} of {}", i, seq, n);
            prop_assert!(stream.contains(seq));
            closed |= want != Arrival::Open && fresh;
        }
        prop_assert!(closed, "every number arrived, so the edge closed");
        let max = seqs.iter().copied().max().unwrap_or(0);
        prop_assert!((0..=max + 70).all(|k| stream.contains(k) == seen.contains(&k)));
        prop_assert!(!stream.spills(), "a complete stream holds no allocation");
    }
}

#[test]
fn stream_count_matches_a_recount() {
    // Short streams over few senders, so departures, closes and expiry hit
    // streams that hold frames: the running count must follow a recount.
    let mut rng = TestRng::deterministic("stream_count_matches_a_recount");
    for _ in 0..256 {
        let dedup = rng.below(2) == 0;
        let mut ops = vec![Op::Begin { txn: 0 }, Op::Begin { txn: 1 }];
        for _ in 0..96 {
            let t = rng.below(2);
            let sender = rng.below(3) as u32;
            ops.push(match rng.below(10) {
                0 => Op::AddChild { txn: t, sender },
                1 => Op::Close { txn: t },
                2 => Op::ChildDone { txn: t, sender },
                3 => Op::Depart { sender },
                4 => Op::Advance { ms: rng.below(150) },
                5 => Op::Begin { txn: t },
                _ => {
                    let seq = rng.below(6);
                    let last = (rng.below(3) == 0).then(|| rng.below(2));
                    Op::Frame { txn: t, sender, seq, last }
                }
            });
        }
        replay(dedup, &ops, true);
    }
}
