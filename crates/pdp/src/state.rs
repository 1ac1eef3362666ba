//! The node state table (dissertation section 7.6).
//!
//! Every node keeps per-transaction state: where the query came from (the
//! *parent* toward the originator), which neighbors it was forwarded to
//! (pending *children*), the next sequence number it sends under, and when
//! the state expires. The table is also the **loop detector**: a `Query` for a
//! transaction already present is a duplicate and must not be processed
//! again. State is retained for the *static loop timeout* so that slow
//! duplicate deliveries are still recognized after a transaction finishes.
//!
//! Endpoints are stored as interned [`Sym`]s (see [`crate::intern`]), not
//! owned strings: at simulator scale the table is the dominant per-node
//! allocation and a `u32` child set beats a `HashSet<String>` by more than
//! an order of magnitude. Children live in a *sorted* `Vec<Sym>` so every
//! iteration over them (close broadcasts, watchdog sweeps) is
//! deterministic regardless of hasher seeding.

use crate::intern::Sym;
use crate::message::TransactionId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use wsda_registry::clock::Time;

/// Outcome of offering a query to the state table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginOutcome {
    /// First sighting: process the query.
    Fresh,
    /// Already seen (loop or duplicate path): drop it.
    Duplicate,
}

/// Per-transaction state at one node.
#[derive(Debug, Clone)]
pub struct TransactionState {
    /// Neighbor to route results toward (`None` at the originator).
    pub parent: Option<Sym>,
    /// Neighbors this node forwarded the query to and has not yet seen a
    /// final frame from. Kept sorted for deterministic iteration.
    pub pending_children: Vec<Sym>,
    /// Whether this node finished its own local evaluation.
    pub local_done: bool,
    /// When this state was created.
    pub created: Time,
    /// Next `Results` sequence number this node will emit for the
    /// transaction (each sender keeps its own sequence space).
    pub next_seq: u64,
}

impl TransactionState {
    /// A subtree is complete when local evaluation finished and every
    /// child delivered its final results.
    pub fn complete(&self) -> bool {
        self.local_done && self.pending_children.is_empty()
    }

    /// Allocate the next outgoing `Results` sequence number.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }
}

/// Receiver-side duplicate suppression for `Results` and `Partial` frames.
///
/// Retransmission makes duplicates the norm, not the exception: a frame
/// may arrive twice because the ack was lost, or because the network
/// itself duplicated it. The ledger remembers every `(transaction,
/// sender, seq)` triple already applied so replays are acked but not
/// re-merged.
///
/// Entries are keyed by transaction first so that [`ResultLedger::forget`]
/// — which MUST be called when a transaction closes or its static loop
/// timeout lapses, or the ledger grows without bound — is a single map
/// removal rather than a full retain over every stream.
#[derive(Debug, Default)]
pub struct ResultLedger {
    seen: HashMap<TransactionId, HashMap<Sym, HashSet<u64>>>,
    /// (transaction, sender) streams in `seen`, kept as it changes: live
    /// peers read it after every frame.
    streams: usize,
}

impl ResultLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a received frame. Returns `true` when this is the first
    /// sighting (apply it), `false` for a replay (ack but ignore).
    pub fn record(&mut self, transaction: TransactionId, sender: Sym, seq: u64) -> bool {
        let by_sender = self.seen.entry(transaction).or_default();
        let stream = by_sender.entry(sender).or_insert_with(|| {
            self.streams += 1;
            HashSet::new()
        });
        stream.insert(seq)
    }

    /// True when the frame has been seen before (without recording).
    pub fn seen(&self, transaction: TransactionId, sender: Sym, seq: u64) -> bool {
        self.seen
            .get(&transaction)
            .and_then(|by_sender| by_sender.get(&sender))
            .is_some_and(|s| s.contains(&seq))
    }

    /// Drop all memory of a finished transaction — O(one transaction).
    pub fn forget(&mut self, transaction: TransactionId) {
        if let Some(by_sender) = self.seen.remove(&transaction) {
            self.streams -= by_sender.len();
        }
    }

    /// Drop every stream from one sender across all transactions — the
    /// departure sweep: a peer that left the overlay will never
    /// retransmit, so its dedup state is dead weight. O(live
    /// transactions); churn is rare relative to frame receipt.
    pub fn forget_sender(&mut self, sender: Sym) {
        self.seen.retain(|_, by_sender| {
            if by_sender.remove(&sender).is_some() {
                self.streams -= 1;
            }
            !by_sender.is_empty()
        });
    }

    /// Number of (transaction, sender) streams tracked. O(1).
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Number of transactions tracked.
    pub fn transactions(&self) -> usize {
        self.seen.len()
    }
}

/// The per-node transaction table.
#[derive(Debug, Default)]
pub struct NodeStateTable {
    entries: HashMap<TransactionId, TransactionState>,
    /// When each entry may be forgotten (its static loop timeout), one
    /// `(deadline, transaction)` per entry, earliest first: a sweep visits
    /// only the entries that lapsed.
    expiry: BinaryHeap<Reverse<(Time, TransactionId)>>,
}

impl NodeStateTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer an incoming query. Returns [`BeginOutcome::Duplicate`] and
    /// leaves existing state untouched when the transaction is known.
    pub fn begin(
        &mut self,
        transaction: TransactionId,
        parent: Option<Sym>,
        now: Time,
        loop_timeout_ms: u64,
    ) -> BeginOutcome {
        if self.entries.contains_key(&transaction) {
            return BeginOutcome::Duplicate;
        }
        self.entries.insert(
            transaction,
            TransactionState {
                parent,
                pending_children: Vec::new(),
                local_done: false,
                created: now,
                next_seq: 0,
            },
        );
        self.expiry.push(Reverse((now.plus(loop_timeout_ms), transaction)));
        BeginOutcome::Fresh
    }

    /// Borrow a transaction's state.
    pub fn get(&self, transaction: &TransactionId) -> Option<&TransactionState> {
        self.entries.get(transaction)
    }

    /// Mutably borrow a transaction's state.
    pub fn get_mut(&mut self, transaction: &TransactionId) -> Option<&mut TransactionState> {
        self.entries.get_mut(transaction)
    }

    /// Record that the query was forwarded to `child`. The child set stays
    /// sorted and duplicate-free.
    pub fn add_child(&mut self, transaction: &TransactionId, child: Sym) {
        if let Some(s) = self.entries.get_mut(transaction) {
            if let Err(at) = s.pending_children.binary_search(&child) {
                s.pending_children.insert(at, child);
            }
        }
    }

    /// Record a final `Results` from `child`; returns `true` when the whole
    /// subtree is now complete.
    pub fn child_done(&mut self, transaction: &TransactionId, child: Sym) -> bool {
        match self.entries.get_mut(transaction) {
            Some(s) => {
                if let Ok(at) = s.pending_children.binary_search(&child) {
                    s.pending_children.remove(at);
                }
                s.complete()
            }
            None => false,
        }
    }

    /// Record completion of the node's own local evaluation; returns `true`
    /// when the whole subtree is now complete.
    pub fn local_done(&mut self, transaction: &TransactionId) -> bool {
        match self.entries.get_mut(transaction) {
            Some(s) => {
                s.local_done = true;
                s.complete()
            }
            None => false,
        }
    }

    /// Close a transaction early: stop waiting on its children.
    pub fn close(&mut self, transaction: &TransactionId) {
        if let Some(s) = self.entries.get_mut(transaction) {
            s.pending_children.clear();
        }
    }

    /// Drop state whose static loop timeout has passed; returns how many
    /// entries were expired.
    pub fn sweep(&mut self, now: Time) -> usize {
        self.sweep_expired(now).len()
    }

    /// Drop state whose static loop timeout has passed and return the
    /// expired transaction ids, earliest expiry first, so callers can
    /// retire the matching per-transaction state elsewhere (result ledger,
    /// run bookkeeping, pending retransmissions) in the same breath. Costs
    /// O(log n) per expired entry; live entries are not visited.
    pub fn sweep_expired(&mut self, now: Time) -> Vec<TransactionId> {
        let mut expired = Vec::new();
        while let Some(&Reverse((deadline, txn))) = self.expiry.peek() {
            if deadline > now {
                break;
            }
            self.expiry.pop();
            self.entries.remove(&txn);
            expired.push(txn);
        }
        expired
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no transactions are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(n: u64) -> TransactionId {
        TransactionId::derive(0, n)
    }

    #[test]
    fn begin_then_duplicate() {
        let mut t = NodeStateTable::new();
        assert_eq!(t.begin(txn(1), Some(Sym(0)), Time(0), 1000), BeginOutcome::Fresh);
        assert_eq!(t.begin(txn(1), Some(Sym(5)), Time(10), 1000), BeginOutcome::Duplicate);
        // the original parent is preserved
        assert_eq!(t.get(&txn(1)).unwrap().parent, Some(Sym(0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn completion_requires_local_and_children() {
        let mut t = NodeStateTable::new();
        t.begin(txn(1), None, Time(0), 1000);
        t.add_child(&txn(1), Sym(1));
        t.add_child(&txn(1), Sym(2));
        assert!(!t.local_done(&txn(1)));
        assert!(!t.child_done(&txn(1), Sym(1)));
        assert!(t.child_done(&txn(1), Sym(2)), "last child completes the subtree");
        assert!(t.get(&txn(1)).unwrap().complete());
    }

    #[test]
    fn leaf_completes_on_local_done() {
        let mut t = NodeStateTable::new();
        t.begin(txn(2), Some(Sym(0)), Time(0), 1000);
        assert!(t.local_done(&txn(2)));
    }

    #[test]
    fn unknown_children_ignored() {
        let mut t = NodeStateTable::new();
        t.begin(txn(1), None, Time(0), 1000);
        t.local_done(&txn(1));
        assert!(t.child_done(&txn(1), Sym(99)), "complete state stays complete");
        assert!(!t.child_done(&txn(9), Sym(0)), "unknown transaction is not complete");
    }

    #[test]
    fn children_stay_sorted_and_deduplicated() {
        let mut t = NodeStateTable::new();
        t.begin(txn(1), None, Time(0), 1000);
        for child in [Sym(7), Sym(2), Sym(9), Sym(2), Sym(7)] {
            t.add_child(&txn(1), child);
        }
        assert_eq!(t.get(&txn(1)).unwrap().pending_children, vec![Sym(2), Sym(7), Sym(9)]);
    }

    #[test]
    fn close_clears_pending() {
        let mut t = NodeStateTable::new();
        t.begin(txn(1), None, Time(0), 1000);
        t.add_child(&txn(1), Sym(1));
        t.close(&txn(1));
        let s = t.get(&txn(1)).unwrap();
        assert!(s.pending_children.is_empty());
    }

    #[test]
    fn sweep_respects_static_loop_timeout() {
        let mut t = NodeStateTable::new();
        t.begin(txn(1), None, Time(0), 1000);
        t.begin(txn(2), None, Time(0), 5000);
        assert_eq!(t.sweep(Time(999)), 0);
        assert_eq!(t.sweep(Time(1000)), 1);
        assert!(t.get(&txn(1)).is_none());
        assert!(t.get(&txn(2)).is_some());
        // After expiry the same transaction would be processed again — the
        // thesis's argument for choosing the static timeout conservatively.
        assert_eq!(t.begin(txn(1), None, Time(1500), 1000), BeginOutcome::Fresh);
        assert!(!t.is_empty());
    }

    #[test]
    fn sweep_expires_out_of_insertion_order() {
        let mut t = NodeStateTable::new();
        t.begin(txn(1), None, Time(0), 5000); // expires 5000
        t.begin(txn(2), None, Time(0), 1000); // expires 1000
        t.begin(txn(3), None, Time(500), 200); // expires 700
        t.begin(txn(4), None, Time(600), 400); // expires 1000, a tie with txn 2
        assert!(t.sweep_expired(Time(699)).is_empty());
        assert_eq!(t.sweep_expired(Time(700)), vec![txn(3)]);
        // Equal deadlines come out in transaction-id order.
        let mut tied = vec![txn(2), txn(4)];
        tied.sort();
        assert_eq!(t.sweep_expired(Time(4999)), tied);
        assert_eq!(t.len(), 1);
        // A lapsed transaction begun again expires on its new deadline.
        assert_eq!(t.begin(txn(2), None, Time(5000), 100), BeginOutcome::Fresh);
        assert_eq!(t.sweep_expired(Time(5000)), vec![txn(1)]);
        assert_eq!(t.sweep_expired(Time(5100)), vec![txn(2)]);
        assert!(t.is_empty());
    }

    #[test]
    fn seq_allocation_is_monotonic_per_transaction() {
        let mut t = NodeStateTable::new();
        t.begin(txn(1), None, Time(0), 1000);
        t.begin(txn(2), None, Time(0), 1000);
        let s = t.get_mut(&txn(1)).unwrap();
        assert_eq!((s.alloc_seq(), s.alloc_seq(), s.alloc_seq()), (0, 1, 2));
        assert_eq!(t.get_mut(&txn(2)).unwrap().alloc_seq(), 0, "independent sequence spaces");
    }

    #[test]
    fn ledger_suppresses_replays() {
        let mut l = ResultLedger::new();
        assert!(l.record(txn(1), Sym(1), 0), "first sighting is fresh");
        assert!(!l.record(txn(1), Sym(1), 0), "replay suppressed");
        assert!(l.record(txn(1), Sym(1), 1), "next seq is fresh");
        assert!(l.record(txn(1), Sym(2), 0), "per-sender sequence spaces");
        assert!(l.record(txn(2), Sym(1), 0), "per-transaction sequence spaces");
        assert!(l.seen(txn(1), Sym(1), 0));
        assert!(!l.seen(txn(1), Sym(1), 9));
        l.forget(txn(1));
        assert!(l.record(txn(1), Sym(1), 0), "forgotten transactions start over");
        assert_eq!(l.streams(), 2, "txn1/n1 recreated, txn1/n2 gone, txn2/n1 kept");
    }

    #[test]
    fn ledger_forgets_departed_senders() {
        let mut l = ResultLedger::new();
        l.record(txn(1), Sym(1), 0);
        l.record(txn(1), Sym(2), 0);
        l.record(txn(2), Sym(1), 0);
        l.record(txn(3), Sym(1), 5);
        l.forget_sender(Sym(1));
        assert_eq!(l.streams(), 1, "only txn1/Sym(2) survives");
        assert_eq!(l.transactions(), 1, "emptied transactions are dropped");
        assert!(!l.seen(txn(2), Sym(1), 0));
        assert!(l.seen(txn(1), Sym(2), 0));
        assert!(l.record(txn(3), Sym(1), 5), "a rejoined sender starts a fresh stream");
    }
}
