//! Arena-style storage primitives for the simulator at scale.
//!
//! At 10^5–10^6 nodes the engine cannot afford per-call `format!`
//! endpoints or an ever-growing `HashMap<u64, TimerEvent>`: both are
//! per-event allocations on the hot path. This module provides the two
//! flat structures the scale refactor is built on:
//!
//! * [`EndpointTable`] — every node's `"n{i}"` endpoint rendered once at
//!   construction into a single shared byte buffer (CSR layout: one
//!   `String` + a `u32` offset per node, ~11 bytes/node at 100k nodes),
//!   handed out as `&str` with zero allocation afterwards.
//! * [`TimerSlab`] — slab storage for in-flight timer payloads with free
//!   -list slot reuse, so the live footprint tracks *outstanding* timers
//!   (bounded by protocol fan-out) instead of total timers ever fired.

use wsda_net::NodeId;

/// All node endpoint strings (`"n0"`, `"n1"`, …) in one buffer.
///
/// Layout is CSR-of-bytes: `buf` concatenates every endpoint, `offsets`
/// has `n + 1` entries bracketing each node's slice. Lookup is two array
/// reads and never allocates, replacing the old per-call
/// `format!("n{}", node.0)`.
#[derive(Debug)]
pub struct EndpointTable {
    buf: String,
    offsets: Vec<u32>,
}

impl EndpointTable {
    /// Render endpoints for nodes `0..n`.
    pub fn new(n: usize) -> Self {
        use std::fmt::Write;
        // "n" + digits: reserve the exact asymptotic width to avoid
        // doubling churn while building multi-megabyte tables.
        let digits = if n <= 1 { 1 } else { (n - 1).ilog10() as usize + 1 };
        let mut buf = String::with_capacity(n * (1 + digits));
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for i in 0..n {
            write!(buf, "n{i}").expect("write to string cannot fail");
            offsets.push(u32::try_from(buf.len()).expect("endpoint table > 4 GiB"));
        }
        EndpointTable { buf, offsets }
    }

    /// The endpoint of `node` as a borrowed `&str`. Zero allocation.
    pub fn str(&self, node: NodeId) -> &str {
        let i = node.0 as usize;
        &self.buf[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of endpoints in the table.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the table holds no endpoints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by the table (buffer + offsets).
    pub fn heap_bytes(&self) -> usize {
        self.buf.capacity() + self.offsets.capacity() * std::mem::size_of::<u32>()
    }
}

/// Slab storage for in-flight timer payloads.
///
/// The old engine kept `timer_tags: HashMap<u64, TimerEvent>` with a
/// monotonically increasing key — fired timers were removed, but the map's
/// capacity only ever grew, and every insert hashed a fresh `u64`. The
/// slab reuses slots through a free list: a tag is a slot index, valid
/// until [`TimerSlab::take`] retires it. Every timer in the engine fires
/// exactly once (there is no cancel path), so slot reuse is safe.
///
/// The slab also owns the *scheduling counter*: a separate monotonic
/// count of every insert ever made. The engine's deterministic
/// retransmission jitter was historically derived from the monotone timer
/// key, so the counter preserves that exact sequence while tags
/// themselves are recycled.
#[derive(Debug)]
pub struct TimerSlab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    live: usize,
    scheduled: u64,
}

impl<T> Default for TimerSlab<T> {
    fn default() -> Self {
        TimerSlab { slots: Vec::new(), free: Vec::new(), live: 0, scheduled: 0 }
    }
}

impl<T> TimerSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a timer payload, returning its tag (slot index).
    pub fn insert(&mut self, value: T) -> u64 {
        self.scheduled += 1;
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                u64::from(slot)
            }
            None => {
                let slot = u64::try_from(self.slots.len()).expect("timer slab overflow");
                self.slots.push(Some(value));
                slot
            }
        }
    }

    /// Remove and return the payload for `tag`, freeing the slot.
    /// `None` for tags already retired (e.g. a duplicate-fired timer).
    pub fn take(&mut self, tag: u64) -> Option<T> {
        let slot = usize::try_from(tag).ok()?;
        let value = self.slots.get_mut(slot)?.take();
        if value.is_some() {
            self.live -= 1;
            self.free.push(tag as u32);
        }
        value
    }

    /// Timers currently outstanding.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slots ever allocated (the high-water mark of concurrent timers).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total inserts ever made — the monotone scheduling counter that
    /// deterministic jitter derives from.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }
}

/// A flat membership bitset: one bit per node, so churn tracking at
/// 10^6 nodes costs 125 KB instead of a `HashSet<NodeId>`'s hashing and
/// per-entry overhead on every delivery-path check.
#[derive(Debug, Clone)]
pub struct AliveSet {
    words: Vec<u64>,
    len: usize,
    alive: usize,
}

impl AliveSet {
    /// All `n` nodes alive.
    pub fn all_alive(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = n % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        AliveSet { words, len: n, alive: n }
    }

    /// Is `node` alive?
    pub fn get(&self, node: NodeId) -> bool {
        let i = node.0 as usize;
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Mark `node` alive; returns true when its state changed.
    pub fn set(&mut self, node: NodeId) -> bool {
        let i = node.0 as usize;
        let mask = 1u64 << (i % 64);
        let changed = self.words[i / 64] & mask == 0;
        if changed {
            self.words[i / 64] |= mask;
            self.alive += 1;
        }
        changed
    }

    /// Mark `node` dead; returns true when its state changed.
    pub fn clear(&mut self, node: NodeId) -> bool {
        let i = node.0 as usize;
        let mask = 1u64 << (i % 64);
        let changed = self.words[i / 64] & mask != 0;
        if changed {
            self.words[i / 64] &= !mask;
            self.alive -= 1;
        }
        changed
    }

    /// Number of alive nodes.
    pub fn alive(&self) -> usize {
        self.alive
    }

    /// Total nodes tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate alive node ids in ascending order.
    pub fn iter_alive(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len as u32).map(NodeId).filter(|&n| self.get(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_table_matches_format() {
        for n in [0usize, 1, 2, 9, 10, 11, 100, 1234] {
            let t = EndpointTable::new(n);
            assert_eq!(t.len(), n);
            for i in 0..n {
                assert_eq!(t.str(NodeId(i as u32)), format!("n{i}"));
            }
        }
        assert!(EndpointTable::new(0).is_empty());
    }

    #[test]
    fn endpoint_table_is_compact() {
        let n = 100_000;
        let t = EndpointTable::new(n);
        // ~6 bytes of text + 4 bytes of offset per node at this size.
        assert!(t.heap_bytes() < n * 12, "table should stay ~O(11 B/node): {}", t.heap_bytes());
    }

    #[test]
    fn alive_set_tracks_membership() {
        let mut s = AliveSet::all_alive(130);
        assert_eq!((s.len(), s.alive()), (130, 130));
        assert!((0..130).all(|i| s.get(NodeId(i))));
        assert!(s.clear(NodeId(0)));
        assert!(s.clear(NodeId(64)));
        assert!(s.clear(NodeId(129)));
        assert!(!s.clear(NodeId(129)), "double-clear is a no-op");
        assert_eq!(s.alive(), 127);
        assert!(!s.get(NodeId(64)));
        assert!(s.set(NodeId(64)));
        assert!(!s.set(NodeId(64)), "double-set is a no-op");
        assert_eq!(s.alive(), 128);
        let alive: Vec<u32> = s.iter_alive().map(|n| n.0).collect();
        assert_eq!(alive.len(), 128);
        assert!(!alive.contains(&0) && !alive.contains(&129) && alive.contains(&64));
        assert!(alive.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!(AliveSet::all_alive(0).is_empty());
        // Exact-multiple-of-64 sizing has no phantom tail bits.
        let t = AliveSet::all_alive(128);
        assert_eq!(t.alive(), 128);
        assert_eq!(t.iter_alive().count(), 128);
    }

    #[test]
    fn slab_reuses_slots() {
        let mut s = TimerSlab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!((s.live(), s.capacity(), s.scheduled()), (2, 2, 2));
        assert_eq!(s.take(a), Some("a"));
        assert_eq!(s.take(a), None, "double-take is harmless");
        let c = s.insert("c");
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(s.capacity(), 2, "no growth while a free slot exists");
        assert_eq!(s.scheduled(), 3, "scheduling counter never rewinds");
        assert_eq!(s.take(b), Some("b"));
        assert_eq!(s.take(c), Some("c"));
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn slab_capacity_tracks_high_water_mark() {
        let mut s = TimerSlab::new();
        // 10k sequential schedule/fire pairs must not grow the slab past
        // the concurrency high-water mark.
        for i in 0..10_000u64 {
            let tag = s.insert(i);
            assert_eq!(s.take(tag), Some(i));
        }
        assert_eq!(s.capacity(), 1, "one-at-a-time usage needs one slot");
        assert_eq!(s.scheduled(), 10_000);
    }
}
