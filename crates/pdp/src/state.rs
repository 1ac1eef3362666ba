//! The node state table (dissertation section 7.6).
//!
//! Every node keeps per-transaction state: where the query came from (the
//! *parent* toward the originator), which neighbors it was forwarded to
//! (pending *children*), the next sequence number on its edge to the
//! parent, and when the state expires. The table is also the **loop
//! detector**: a `Query` for a transaction already present is a duplicate
//! and must not be processed again. State is retained for the *static loop
//! timeout* so that slow duplicate deliveries are still recognized after a
//! transaction finishes.
//!
//! Results travel as one stream per tree edge. A sender numbers its
//! `Results`/`Partial` frames on each edge 0, 1, 2, …, so a final numbered
//! `n` says its edge carried `n + 1` frames; an [`EdgeStream`] closes the
//! edge only once all of them are in. Each pending child's stream lives
//! beside it in the table ([`NodeStateTable::child_frame`]).
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
    /// Neighbors this node forwarded the query to whose edge has not
    /// closed yet, each with its stream so far. Kept sorted by neighbor
    /// for deterministic iteration, and released once empty: the state of
    /// a finished transaction is retained for the loop timeout.
    pending: Vec<(Sym, EdgeStream)>,
    /// Whether this node finished its own local evaluation.
    pub local_done: bool,
    /// When this state was created.
    pub created: Time,
    /// Next sequence number on this node's edge to its parent (each edge
    /// keeps its own sequence space).
    pub next_seq: u64,
}

impl TransactionState {
    /// A subtree is complete when local evaluation finished and every
    /// child's edge closed.
    pub fn complete(&self) -> bool {
        self.local_done && self.pending.is_empty()
    }

    /// The children whose edge has not closed yet, in ascending order.
    pub fn pending_children(&self) -> impl ExactSizeIterator<Item = Sym> + '_ {
        self.pending.iter().map(|&(child, _)| child)
    }

    /// Where `child` is, or would go, among the pending children.
    fn find(&self, child: Sym) -> Result<usize, usize> {
        self.pending.binary_search_by_key(&child, |&(c, _)| c)
    }

    /// The pending child at `at` stops pending.
    fn stop_pending(&mut self, at: usize) {
        self.pending.remove(at);
        if self.pending.is_empty() {
            self.pending = Vec::new();
        }
    }

    /// Allocate the next sequence number on the edge to the parent.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }
}

/// One sender's `Results`/`Partial` frames on a tree edge, counted until
/// the edge closes: its final frame has arrived, and so has every frame
/// the final's number counts. A final that overtakes an earlier frame
/// waits here for it. The caller counts each frame once (with acks on, the
/// [`ResultLedger`] drops replays first).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStream {
    /// Frames counted so far, the final included.
    frames: u64,
    /// The final's number and the subtrees it reports lost, once in.
    last: Option<(u64, u64)>,
}

impl EdgeStream {
    /// Count the frame numbered `seq`; `last` is `Some(lost)` for the
    /// final. Returns the final's `lost` once the edge is closed.
    pub fn count(&mut self, seq: u64, last: Option<u64>) -> Option<u64> {
        self.frames += 1;
        if let Some(lost) = last {
            self.last = Some((seq, lost));
        }
        self.last.filter(|&(n, _)| self.frames > n).map(|(_, lost)| lost)
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
                pending: Vec::new(),
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
            if let Err(at) = s.find(child) {
                s.pending.insert(at, (child, EdgeStream::default()));
            }
        }
    }

    /// Count a `Results`/`Partial` frame numbered `seq` from `child`;
    /// `last` is `Some(lost)` for a final. `Some(lost)` when the frame ends
    /// the edge: a pending child's edge closes, and the child stops
    /// pending, once its final and every frame the final counts are in. A
    /// final from a child no longer pending ends nothing new and gives
    /// `Some(0)`, so the caller still re-checks [`TransactionState::complete`].
    pub fn child_frame(
        &mut self,
        transaction: &TransactionId,
        child: Sym,
        seq: u64,
        last: Option<u64>,
    ) -> Option<u64> {
        let Some(s) = self.entries.get_mut(transaction) else { return last.map(|_| 0) };
        let Ok(at) = s.find(child) else { return last.map(|_| 0) };
        let lost = s.pending[at].1.count(seq, last)?;
        s.stop_pending(at);
        Some(lost)
    }

    /// Record that `child`'s edge closed without its stream (abandoned);
    /// returns `true` when the whole subtree is now complete.
    pub fn child_done(&mut self, transaction: &TransactionId, child: Sym) -> bool {
        match self.entries.get_mut(transaction) {
            Some(s) => {
                if let Ok(at) = s.find(child) {
                    s.stop_pending(at);
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
            s.pending = Vec::new();
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
        let pending: Vec<Sym> = t.get(&txn(1)).unwrap().pending_children().collect();
        assert_eq!(pending, vec![Sym(2), Sym(7), Sym(9)]);
    }

    #[test]
    fn close_clears_pending() {
        let mut t = NodeStateTable::new();
        t.begin(txn(1), None, Time(0), 1000);
        t.add_child(&txn(1), Sym(1));
        t.close(&txn(1));
        let s = t.get(&txn(1)).unwrap();
        assert_eq!(s.pending_children().len(), 0);
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
    fn a_childs_frames_close_its_edge_in_the_table() {
        let mut t = NodeStateTable::new();
        t.begin(txn(1), None, Time(0), 1000);
        t.local_done(&txn(1));
        t.add_child(&txn(1), Sym(1));
        t.add_child(&txn(1), Sym(2));
        // Sym(1)'s final overtakes its data frame; Sym(2) sends a lone final.
        assert_eq!(t.child_frame(&txn(1), Sym(1), 1, Some(2)), None, "frame 0 is missing");
        assert_eq!(t.child_frame(&txn(1), Sym(2), 0, Some(0)), Some(0));
        assert!(!t.get(&txn(1)).unwrap().complete());
        assert_eq!(t.child_frame(&txn(1), Sym(1), 0, None), Some(2), "closes with its losses");
        assert!(t.get(&txn(1)).unwrap().complete());
        // A final from a child no longer pending closes nothing new.
        assert_eq!(t.child_frame(&txn(1), Sym(1), 1, Some(2)), Some(0));
        assert_eq!(t.child_frame(&txn(1), Sym(1), 2, None), None);
    }

    #[test]
    fn an_edge_closes_once_its_final_and_every_counted_frame_are_in() {
        // In order: two data frames, then the final numbered 2.
        let mut e = EdgeStream::default();
        assert_eq!((e.count(0, None), e.count(1, None)), (None, None));
        assert_eq!(e.count(2, Some(3)), Some(3), "the final closes the edge with its losses");
        // The final overtakes both data frames and waits for them.
        let mut e = EdgeStream::default();
        assert_eq!(e.count(2, Some(0)), None, "frames 0 and 1 are still missing");
        assert_eq!(e.count(0, None), None);
        assert_eq!(e.count(1, None), Some(0), "the last missing frame closes the edge");
        // A lone final numbered 0 closes at once; data alone never does.
        assert_eq!(EdgeStream::default().count(0, Some(1)), Some(1));
        let mut e = EdgeStream::default();
        assert_eq!((e.count(0, None), e.count(1, None)), (None, None));
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
