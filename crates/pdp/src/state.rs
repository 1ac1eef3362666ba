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
//! One entry holds everything a node keeps about one transaction: the
//! parent edge, one record per neighbor (below), and the caller's own
//! per-transaction record (`T`, `None` until set), so the sweep retires a
//! transaction by removing one entry.
//!
//! Results travel as one stream per tree edge. A sender numbers its
//! `Results`/`Partial` frames on each edge 0, 1, 2, …, so a final numbered
//! `n` says its edge carried `n + 1` frames. Each sender's frames land in
//! one [`EdgeStream`], the exact set of numbers received, which answers
//! both questions a receiver asks of a frame: is it a replay (a number
//! already in), and does it close the edge (the final is in, and so is
//! every number it counts). With deduplication on (recovery's acks), a
//! sender's stream outlives its pending status until the sweep, so a
//! retransmission after the edge closed is still recognized; a departed
//! sender's stream is cleared ([`NodeStateTable::forget_sender`]).
//!
//! Endpoints are stored as interned [`Sym`]s (see [`crate::intern`]), not
//! owned strings: at simulator scale the table is the dominant per-node
//! allocation and a `u32` neighbor key beats a `String` by more than an
//! order of magnitude. Neighbor records live in a *sorted* slice, so every
//! iteration over them (close broadcasts, watchdog sweeps) is
//! deterministic regardless of hasher seeding. An entry allocates that
//! slice only once it forwards the query or a frame arrives.

use crate::intern::Sym;
use crate::message::TransactionId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use wsda_registry::clock::Time;

/// Outcome of offering a query to the state table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginOutcome {
    /// First sighting: process the query.
    Fresh,
    /// Already seen (loop or duplicate path): drop it.
    Duplicate,
}

/// What one `Results`/`Partial` frame did to its edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Its number had arrived before: a replay, which changes nothing.
    Replay,
    /// A new frame; the edge stays open.
    Open,
    /// A new frame that ends the edge, with the subtrees the final
    /// reported lost.
    Closed(u64),
}

/// Bits in an [`EdgeStream`]'s window: numbers up to this far past the
/// prefix are kept as bits, farther ones spill.
const WINDOW: u64 = u64::BITS as u64;

/// The frame numbers one sender has delivered on an edge, and the edge's
/// final while the final waits for an earlier frame.
///
/// The set is exact: a dense prefix (every number below `prefix`), a
/// 64-bit window over the next numbers, and a sorted spill only for
/// numbers farther out of order than the window reaches. The edge closes
/// when the final is in and the prefix covers every number the final
/// counts; an in-order stream then holds one number and no allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeStream {
    /// Every number below `prefix` is in; `prefix` itself is not.
    prefix: u64,
    /// Bit `i` set: number `prefix + i` is in (bit 0 is always clear).
    window: u64,
    /// Numbers past the window and a waiting final; allocated only for
    /// them.
    far: Option<Box<Far>>,
}

/// The rare part of an [`EdgeStream`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Far {
    /// Numbers at least [`WINDOW`] past the prefix, ascending.
    spill: Vec<u64>,
    /// The final's number and the subtrees it reported lost, while an
    /// earlier frame is missing.
    last: Option<(u64, u64)>,
}

impl EdgeStream {
    /// Record the frame numbered `seq`; `last` is `Some(lost)` for the
    /// final. A frame numbered after the final (a late relay) is new like
    /// any other.
    pub fn record(&mut self, seq: u64, last: Option<u64>) -> Arrival {
        if !self.insert(seq) {
            return Arrival::Replay;
        }
        let waiting = last.map(|lost| (seq, lost)).or(self.far.as_ref().and_then(|f| f.last));
        match waiting {
            Some((n, lost)) if n < self.prefix => {
                self.set_last(None);
                Arrival::Closed(lost)
            }
            Some(waiting) if last.is_some() => {
                self.set_last(Some(waiting));
                Arrival::Open
            }
            _ => Arrival::Open,
        }
    }

    /// True when the frame numbered `seq` has arrived.
    pub fn contains(&self, seq: u64) -> bool {
        match seq.checked_sub(self.prefix) {
            None => true,
            Some(offset) if offset < WINDOW => self.window & (1 << offset) != 0,
            Some(_) => self.far.as_ref().is_some_and(|f| f.spill.binary_search(&seq).is_ok()),
        }
    }

    /// True when no frame has arrived.
    pub fn is_empty(&self) -> bool {
        self.prefix == 0 && self.window == 0 && self.far.is_none()
    }

    /// True when the stream holds an allocation: numbers past its window,
    /// or a final waiting for an earlier frame.
    pub fn spills(&self) -> bool {
        self.far.is_some()
    }

    /// Add `seq` to the set; false when it was in already.
    fn insert(&mut self, seq: u64) -> bool {
        let Some(offset) = seq.checked_sub(self.prefix) else { return false };
        if offset < WINDOW {
            if self.window & (1 << offset) != 0 {
                return false;
            }
            self.window |= 1 << offset;
        } else {
            let far = self.far.get_or_insert_with(Box::default);
            match far.spill.binary_search(&seq) {
                Ok(_) => return false,
                Err(at) => far.spill.insert(at, seq),
            }
        }
        self.settle();
        true
    }

    /// Fold the window's leading run into the prefix, and spilled numbers
    /// the window now reaches into the window, until neither moves.
    fn settle(&mut self) {
        loop {
            let run = self.window.trailing_ones();
            self.prefix += u64::from(run);
            self.window = self.window.checked_shr(run).unwrap_or(0);
            let Some(far) = self.far.as_deref_mut() else { return };
            // Spilled numbers never fall below the prefix: it stops at the
            // first number the window lacks, and a spilled one is not there.
            let near = far.spill.partition_point(|&n| n - self.prefix < WINDOW);
            for n in far.spill.drain(..near) {
                self.window |= 1 << (n - self.prefix);
            }
            if far.spill.is_empty() && far.last.is_none() {
                self.far = None;
            }
            if near == 0 {
                return;
            }
        }
    }

    /// Store or clear the waiting final; `far` stays allocated only while
    /// it holds something.
    fn set_last(&mut self, last: Option<(u64, u64)>) {
        if self.far.is_none() && last.is_none() {
            return;
        }
        let far = self.far.get_or_insert_with(Box::default);
        far.last = last;
        if far.spill.is_empty() && far.last.is_none() {
            self.far = None;
        }
    }
}

/// One neighbor's edges in a transaction, as this node sees them.
#[derive(Debug, Clone)]
struct Link {
    peer: Sym,
    /// Forwarded to, and its edge has not closed yet.
    pending: bool,
    /// Frames received from `peer`.
    frames: EdgeStream,
    /// Next number on this node's edge to `peer` when `peer` is not the
    /// parent and gets frames numbered per receiver.
    sent: u64,
}

impl Link {
    fn new(peer: Sym) -> Link {
        Link { peer, pending: false, frames: EdgeStream::default(), sent: 0 }
    }

    /// Nothing left to keep.
    fn is_idle(&self) -> bool {
        !self.pending && self.sent == 0 && self.frames.is_empty()
    }
}

/// Per-transaction state at one node, with the caller's record `T`.
#[derive(Debug, Clone)]
pub struct TransactionState<T = ()> {
    /// Neighbor to route results toward (`None` at the originator).
    pub parent: Option<Sym>,
    /// Next sequence number on this node's edge to its parent (each edge
    /// keeps its own sequence space).
    pub next_seq: u64,
    /// Neighbor records sorted by peer: pending children, senders whose
    /// frames are kept, receivers numbered per edge. Exactly sized, and
    /// empty (no allocation) when there is nothing to keep.
    links: Box<[Link]>,
    /// The caller's record for this transaction.
    record: Option<T>,
    /// Whether this node finished its own local evaluation.
    pub local_done: bool,
    /// Senders' frames outlive their pending status (replay detection).
    dedup: bool,
}

impl<T> TransactionState<T> {
    /// A subtree is complete when local evaluation finished and every
    /// child's edge closed.
    pub fn complete(&self) -> bool {
        self.local_done && !self.links.iter().any(|l| l.pending)
    }

    /// The children whose edge has not closed yet, in ascending order.
    pub fn pending_children(&self) -> impl Iterator<Item = Sym> + '_ {
        self.links.iter().filter(|l| l.pending).map(|l| l.peer)
    }

    /// The caller's record, once set ([`NodeStateTable::set_record`]).
    pub fn record(&self) -> Option<&T> {
        self.record.as_ref()
    }

    /// Mutably borrow the caller's record.
    pub fn record_mut(&mut self) -> Option<&mut T> {
        self.record.as_mut()
    }

    /// Allocate the next sequence number on the edge to the parent.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Allocate the next sequence number on this node's edge to `to`, a
    /// receiver other than its parent.
    pub fn alloc_seq_to(&mut self, to: Sym) -> u64 {
        let at = self.link_at(to);
        let link = &mut self.links[at];
        link.sent += 1;
        link.sent - 1
    }

    /// Where `peer` is, or would go, among the links.
    fn find(&self, peer: Sym) -> Result<usize, usize> {
        self.links.binary_search_by_key(&peer, |l| l.peer)
    }

    /// The index of `peer`'s link, inserting an empty one if needed.
    fn link_at(&mut self, peer: Sym) -> usize {
        match self.find(peer) {
            Ok(at) => at,
            Err(at) => {
                let mut links = std::mem::take(&mut self.links).into_vec();
                links.reserve_exact(1);
                links.insert(at, Link::new(peer));
                self.links = links.into_boxed_slice();
                at
            }
        }
    }

    /// Drop the links that keep nothing.
    fn prune(&mut self) {
        if self.links.iter().any(Link::is_idle) {
            let links = std::mem::take(&mut self.links).into_vec();
            self.links = links.into_iter().filter(|l| !l.is_idle()).collect();
        }
    }

    /// The link at `at` stops pending; without deduplication its frames
    /// go too. Returns how many streams holding frames were dropped. The
    /// caller prunes.
    fn stop_pending(&mut self, at: usize) -> usize {
        let link = &mut self.links[at];
        link.pending = false;
        link.frames.set_last(None);
        if self.dedup || link.frames.is_empty() {
            return 0;
        }
        link.frames = EdgeStream::default();
        1
    }

    /// Streams holding frames.
    fn streams(&self) -> usize {
        self.links.iter().filter(|l| !l.frames.is_empty()).count()
    }
}

/// The per-node transaction table; `T` is the caller's per-transaction
/// record.
#[derive(Debug)]
pub struct NodeStateTable<T = ()> {
    entries: HashMap<TransactionId, TransactionState<T>>,
    /// When each entry may be forgotten (its static loop timeout), one
    /// `(deadline, transaction)` per entry, earliest first: a sweep visits
    /// only the entries that lapsed.
    expiry: BinaryHeap<Reverse<(Time, TransactionId)>>,
    /// Streams holding frames, over all entries; kept as they change:
    /// live peers read it after every frame.
    streams: usize,
    /// Entries whose caller record is set.
    records: usize,
}

impl<T> Default for NodeStateTable<T> {
    fn default() -> Self {
        NodeStateTable {
            entries: HashMap::new(),
            expiry: BinaryHeap::new(),
            streams: 0,
            records: 0,
        }
    }
}

impl NodeStateTable {
    /// An empty table whose entries carry no caller record.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T> NodeStateTable<T> {
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
                next_seq: 0,
                links: Box::default(),
                record: None,
                local_done: false,
                dedup: false,
            },
        );
        self.expiry.push(Reverse((now.plus(loop_timeout_ms), transaction)));
        BeginOutcome::Fresh
    }

    /// Borrow a transaction's state.
    pub fn get(&self, transaction: &TransactionId) -> Option<&TransactionState<T>> {
        self.entries.get(transaction)
    }

    /// Mutably borrow a transaction's state.
    pub fn get_mut(&mut self, transaction: &TransactionId) -> Option<&mut TransactionState<T>> {
        self.entries.get_mut(transaction)
    }

    /// Attach the caller's record to a known transaction (replacing any
    /// earlier one). It lives as long as the entry.
    pub fn set_record(&mut self, transaction: &TransactionId, record: T) {
        if let Some(s) = self.entries.get_mut(transaction) {
            if s.record.replace(record).is_none() {
                self.records += 1;
            }
        }
    }

    /// Mutably borrow a transaction's caller record.
    pub fn record_mut(&mut self, transaction: &TransactionId) -> Option<&mut T> {
        self.entries.get_mut(transaction)?.record.as_mut()
    }

    /// Record that the query was forwarded to `child`. The child set stays
    /// sorted and duplicate-free.
    pub fn add_child(&mut self, transaction: &TransactionId, child: Sym) {
        if let Some(s) = self.entries.get_mut(transaction) {
            let at = s.link_at(child);
            s.links[at].pending = true;
        }
    }

    /// A `Results`/`Partial` frame numbered `seq` arrived from `sender`;
    /// `last` is `Some(lost)` for a final.
    ///
    /// A pending child's edge closes, and the child stops pending, once
    /// its final and every frame the final counts are in:
    /// [`Arrival::Closed`] carries the final's losses. A final from a
    /// sender not pending ends nothing new and gives `Closed(0)`, so the
    /// caller still re-checks [`TransactionState::complete`].
    ///
    /// With `dedup`, every sender's numbers are kept until the entry is
    /// swept and a replay reads [`Arrival::Replay`]. Without it, only a
    /// pending child's numbers are kept, until its edge stops pending, and
    /// a repeated number is applied again as [`Arrival::Open`].
    pub fn frame(
        &mut self,
        transaction: &TransactionId,
        sender: Sym,
        seq: u64,
        last: Option<u64>,
        dedup: bool,
    ) -> Arrival {
        let settled = if last.is_some() { Arrival::Closed(0) } else { Arrival::Open };
        let Some(s) = self.entries.get_mut(transaction) else { return settled };
        s.dedup = dedup;
        let at = match s.find(sender) {
            Ok(at) => at,
            Err(_) if !dedup => return settled,
            Err(_) => s.link_at(sender),
        };
        let link = &mut s.links[at];
        let was_empty = link.frames.is_empty();
        let pending = link.pending;
        // Only a pending child's final waits in its stream.
        let arrival = link.frames.record(seq, last.filter(|_| pending));
        if was_empty && !link.frames.is_empty() {
            self.streams += 1;
        }
        match arrival {
            Arrival::Replay if dedup => Arrival::Replay,
            Arrival::Closed(lost) if pending => {
                self.streams -= s.stop_pending(at);
                s.prune();
                Arrival::Closed(lost)
            }
            _ if pending => Arrival::Open,
            _ => settled,
        }
    }

    /// Record that `child`'s edge closed without its stream (abandoned);
    /// returns `true` when the whole subtree is now complete.
    pub fn child_done(&mut self, transaction: &TransactionId, child: Sym) -> bool {
        match self.entries.get_mut(transaction) {
            Some(s) => {
                if let Ok(at) = s.find(child) {
                    if s.links[at].pending {
                        self.streams -= s.stop_pending(at);
                        s.prune();
                    }
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
            for at in 0..s.links.len() {
                if s.links[at].pending {
                    self.streams -= s.stop_pending(at);
                }
            }
            s.prune();
        }
    }

    /// Clear every stream from one sender across all transactions — the
    /// departure sweep: a peer that left the overlay will never
    /// retransmit, so its frames are dead weight. A child still pending
    /// stays pending, with an empty stream. O(live transactions); churn is
    /// rare relative to frame receipt.
    pub fn forget_sender(&mut self, sender: Sym) {
        for s in self.entries.values_mut() {
            let Ok(at) = s.find(sender) else { continue };
            let frames = std::mem::take(&mut s.links[at].frames);
            if !frames.is_empty() {
                self.streams -= 1;
            }
            s.prune();
        }
    }

    /// Drop state whose static loop timeout has passed; returns how many
    /// entries were expired.
    pub fn sweep(&mut self, now: Time) -> usize {
        self.sweep_expired(now).len()
    }

    /// Drop state whose static loop timeout has passed and return the
    /// expired transaction ids, earliest expiry first, so callers can
    /// retire what they keep outside the table (pending retransmissions)
    /// in the same breath. Each transaction is one entry: its neighbor
    /// records and the caller's record go with it. Costs O(log n) per
    /// expired entry; live entries are not visited.
    pub fn sweep_expired(&mut self, now: Time) -> Vec<TransactionId> {
        let mut expired = Vec::new();
        while let Some(&Reverse((deadline, txn))) = self.expiry.peek() {
            if deadline > now {
                break;
            }
            self.expiry.pop();
            if let Some(s) = self.entries.remove(&txn) {
                self.streams -= s.streams();
                self.records -= usize::from(s.record.is_some());
            }
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

    /// Number of (transaction, sender) streams holding frames. O(1).
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Number of entries whose caller record is set. O(1).
    pub fn records(&self) -> usize {
        self.records
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
        assert_eq!(s.pending_children().count(), 0);
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
    fn other_edges_number_per_receiver() {
        let mut t = NodeStateTable::new();
        t.begin(txn(1), Some(Sym(0)), Time(0), 1000);
        let s = t.get_mut(&txn(1)).unwrap();
        assert_eq!((s.alloc_seq_to(Sym(4)), s.alloc_seq_to(Sym(4))), (0, 1));
        assert_eq!(s.alloc_seq_to(Sym(2)), 0, "each receiver has its own edge");
        assert_eq!(s.alloc_seq(), 0, "the parent edge is separate");
        assert_eq!(s.pending_children().count(), 0, "a receiver is not a child");
    }

    #[test]
    fn a_childs_frames_close_its_edge_in_the_table() {
        for dedup in [false, true] {
            let mut t = NodeStateTable::new();
            t.begin(txn(1), None, Time(0), 1000);
            t.local_done(&txn(1));
            t.add_child(&txn(1), Sym(1));
            t.add_child(&txn(1), Sym(2));
            let frame = |t: &mut NodeStateTable, child, seq, last| {
                t.frame(&txn(1), Sym(child), seq, last, dedup)
            };
            // Sym(1)'s final overtakes its data frame; Sym(2) sends a lone final.
            assert_eq!(frame(&mut t, 1, 1, Some(2)), Arrival::Open, "frame 0 is missing");
            assert_eq!(frame(&mut t, 2, 0, Some(0)), Arrival::Closed(0));
            assert!(!t.get(&txn(1)).unwrap().complete());
            assert_eq!(frame(&mut t, 1, 0, None), Arrival::Closed(2), "closes with its losses");
            assert!(t.get(&txn(1)).unwrap().complete());
            // A final from a child no longer pending closes nothing new.
            assert_eq!(frame(&mut t, 1, 2, Some(2)), Arrival::Closed(0));
            assert_eq!(frame(&mut t, 1, 3, None), Arrival::Open);
            // Only deduplication keeps the closed edges' numbers.
            let replay = if dedup { Arrival::Replay } else { Arrival::Open };
            assert_eq!(frame(&mut t, 2, 0, None), replay);
            assert_eq!(t.streams(), if dedup { 2 } else { 0 });
        }
    }

    #[test]
    fn an_edge_closes_once_its_final_and_every_counted_frame_are_in() {
        // In order: two data frames, then the final numbered 2.
        let mut e = EdgeStream::default();
        assert_eq!((e.record(0, None), e.record(1, None)), (Arrival::Open, Arrival::Open));
        assert_eq!(e.record(2, Some(3)), Arrival::Closed(3), "the final closes with its losses");
        // The final overtakes both data frames and waits for them.
        let mut e = EdgeStream::default();
        assert_eq!(e.record(2, Some(0)), Arrival::Open, "frames 0 and 1 are still missing");
        assert_eq!(e.record(0, None), Arrival::Open);
        assert_eq!(e.record(1, None), Arrival::Closed(0), "the last missing frame closes the edge");
        assert_eq!(e.record(1, None), Arrival::Replay);
        assert_eq!(e.record(3, None), Arrival::Open, "a frame after the final is new");
        // A lone final numbered 0 closes at once; data alone never does.
        assert_eq!(EdgeStream::default().record(0, Some(1)), Arrival::Closed(1));
        let mut e = EdgeStream::default();
        assert_eq!((e.record(0, None), e.record(1, None)), (Arrival::Open, Arrival::Open));
    }

    #[test]
    fn a_closed_edge_keeps_no_spill_allocation() {
        // Far out of order: the final first, then every data frame from
        // the highest number down, each one past the window at arrival.
        let mut e = EdgeStream::default();
        let last = 2_000;
        assert_eq!(e.record(last, Some(0)), Arrival::Open);
        for seq in (1..last).rev() {
            assert_eq!(e.record(seq, None), Arrival::Open);
            assert!(e.spills(), "frame 0 is still missing");
        }
        assert_eq!(e.record(0, None), Arrival::Closed(0));
        assert!(!e.spills(), "a closed edge collapses to its prefix");
        assert!((0..=last).all(|seq| e.contains(seq)) && !e.contains(last + 1));
        // A frame after the final far out of order spills until the gap fills.
        assert_eq!(e.record(last + 100, None), Arrival::Open);
        assert!(e.spills());
        for seq in last + 1..last + 100 {
            e.record(seq, None);
        }
        assert!(!e.spills() && e.contains(last + 100));
    }

    #[test]
    fn departed_senders_are_forgotten_and_pending_children_stay_pending() {
        let mut t = NodeStateTable::new();
        for n in 1..=3 {
            t.begin(txn(n), None, Time(0), 1000);
        }
        t.add_child(&txn(1), Sym(1));
        t.frame(&txn(1), Sym(1), 0, None, true);
        t.frame(&txn(1), Sym(2), 0, None, true);
        t.frame(&txn(2), Sym(1), 0, Some(0), true);
        t.frame(&txn(3), Sym(1), 5, None, true);
        assert_eq!(t.streams(), 4);
        t.forget_sender(Sym(1));
        assert_eq!(t.streams(), 1, "only txn1/Sym(2) survives");
        let s = t.get(&txn(1)).unwrap();
        assert_eq!(s.pending_children().collect::<Vec<_>>(), vec![Sym(1)], "still awaited");
        assert_eq!(t.frame(&txn(3), Sym(1), 5, None, true), Arrival::Open, "a fresh stream");
        assert_eq!(t.frame(&txn(1), Sym(2), 0, None, true), Arrival::Replay);
        // The sweep retires each transaction's streams with its entry.
        t.set_record(&txn(1), ());
        assert_eq!((t.streams(), t.records()), (2, 1));
        assert_eq!(t.sweep(Time(1000)), 3);
        assert_eq!((t.streams(), t.records()), (0, 0));
    }
}
