//! The sharded tuple store: N hash-sharded [`TupleStore`]s behind
//! reader-writer locks.
//!
//! The hyper registry serves a read-dominated workload — many concurrent
//! discovery queries over a soft-state tuple set. The seed design put the
//! whole store behind one `Mutex`, serializing every cache-hit query behind
//! every publish and every other query. Here the store is split by a hash
//! of the content link into `shard_count` independent [`TupleStore`]s, each
//! behind its own `RwLock`:
//!
//! * **queries** take only *shared* locks (a tuple's document is an `Arc`
//!   clone, see [`Tuple::to_xml`]), so cache-hit readers proceed
//!   concurrently,
//! * **publishes** write-lock exactly one shard, so a publish stalls at
//!   most `1/shard_count` of the read traffic,
//! * **ordinals** come from one registry-wide atomic counter, so result
//!   ordering stays globally deterministic — a query over a sharded store
//!   orders identically to the same history applied to a single store.
//!
//! Lock order: shards are only ever locked one at a time, or in ascending
//! index order for whole-store operations (`sweep`, `len`, `links`), so
//! shard locks cannot deadlock against each other. Callers must not hold a
//! shard lock while taking the provider or throttle locks (the registry
//! collects its pull work-list first, drops the shard lock, then fetches).

use crate::clock::Time;
use crate::content_index::pattern_is_content_only;
use crate::persist::DurableBackend;
use crate::store::TupleStore;
use crate::tuple::{Tuple, TupleKey};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wsda_xml::Element;
use wsda_xq::SargablePredicate;

/// Default shard count: enough to make writer/reader collisions rare at
/// tens of threads while keeping whole-store scans cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// N hash-sharded tuple stores behind reader-writer locks.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Box<[RwLock<TupleStore>]>,
    /// Whether every shard keeps a content index (set at construction).
    content_index: bool,
    /// Registry-wide ordinal allocator (shard-independent result order).
    next_ordinal: AtomicU64,
}

impl Default for ShardedStore {
    fn default() -> Self {
        ShardedStore::new(DEFAULT_SHARDS)
    }
}

impl ShardedStore {
    /// Create a store with `shards` shards (rounded up to a power of two,
    /// minimum 1, so shard routing is a mask), content index enabled.
    pub fn new(shards: usize) -> Self {
        Self::with_content_index(shards, true)
    }

    /// Like [`ShardedStore::new`], with the per-shard content index
    /// enabled or disabled.
    pub fn with_content_index(shards: usize, content_index: bool) -> Self {
        let n = shards.max(1).next_power_of_two();
        let make = if content_index { TupleStore::new } else { TupleStore::without_content_index };
        ShardedStore {
            shards: (0..n).map(|_| RwLock::new(make())).collect(),
            content_index,
            next_ordinal: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `link`.
    pub fn shard_of(&self, link: &str) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        link.hash(&mut h);
        (h.finish() as usize) & (self.shards.len() - 1)
    }

    /// Shared access to one shard.
    pub fn read_shard(&self, idx: usize) -> RwLockReadGuard<'_, TupleStore> {
        self.shards[idx].read()
    }

    /// Exclusive access to one shard.
    pub fn write_shard(&self, idx: usize) -> RwLockWriteGuard<'_, TupleStore> {
        self.shards[idx].write()
    }

    /// Allocate the next registry-wide ordinal. Call only for links about
    /// to be inserted as new (an unused allocation is harmless — ordinals
    /// stay unique and monotonic, gaps are fine).
    pub fn alloc_ordinal(&self) -> u64 {
        self.next_ordinal.fetch_add(1, Ordering::Relaxed)
    }

    /// Attach a durable backend to every shard (see [`crate::persist`]);
    /// all subsequent mutations on any shard are logged through it.
    pub fn attach_backend(&self, backend: Arc<dyn DurableBackend>) {
        for shard in self.shards.iter() {
            shard.write().attach_backend(backend.clone());
        }
    }

    /// Read-lock every shard in ascending order (whole-store lock order);
    /// snapshots use this to get a point-in-time image while appends (which
    /// need a shard *write* lock) are excluded.
    pub(crate) fn read_all_shards(&self) -> Vec<RwLockReadGuard<'_, TupleStore>> {
        self.shards.iter().map(|s| s.read()).collect()
    }

    /// The next ordinal the allocator would issue (recovery/snapshot use).
    #[doc(hidden)]
    pub fn load_next_ordinal(&self) -> u64 {
        self.next_ordinal.load(Ordering::Relaxed)
    }

    /// Restore the ordinal allocator (recovery only: must be past every
    /// ordinal present in the recovered store).
    #[doc(hidden)]
    pub fn store_next_ordinal(&self, v: u64) {
        self.next_ordinal.store(v, Ordering::Relaxed);
    }

    /// Insert or refresh a tuple. Returns `true` when the tuple was new.
    pub fn upsert(&self, link: &str, type_: &str, context: &str, now: Time, ttl_ms: u64) -> bool {
        let mut shard = self.write_shard(self.shard_of(link));
        let ordinal = if shard.get(link).is_none() { self.alloc_ordinal() } else { 0 };
        shard.upsert_with_ordinal(link, type_, context, now, ttl_ms, ordinal)
    }

    /// Remove a tuple outright.
    pub fn remove(&self, link: &str) -> Option<Tuple> {
        self.write_shard(self.shard_of(link)).remove(link)
    }

    /// Sweep every shard; returns total evictions.
    pub fn sweep(&self, now: Time) -> usize {
        self.shards.iter().map(|s| s.write().sweep(now)).sum()
    }

    /// Sweep only the shard owning `link`; returns its evictions. Write
    /// operations use this so their locked shard never serves (or counts)
    /// expired tuples, without stalling readers of the other shards.
    pub fn sweep_shard_of(&self, link: &str, now: Time) -> usize {
        self.write_shard(self.shard_of(link)).sweep(now)
    }

    /// Total stored tuples (including expired-but-unswept ones).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The earliest pending expiry across all shards.
    pub fn next_expiry(&self) -> Option<Time> {
        self.shards.iter().filter_map(|s| s.read().next_expiry()).min()
    }

    /// All links, sorted.
    pub fn links(&self) -> Vec<TupleKey> {
        let mut v: Vec<TupleKey> = self.shards.iter().flat_map(|s| s.read().links()).collect();
        v.sort();
        v
    }

    /// Links of all tuples with the given type, sorted.
    pub fn links_of_type(&self, type_: &str) -> Vec<TupleKey> {
        let mut v: Vec<TupleKey> =
            self.shards.iter().flat_map(|s| s.read().links_of_type(type_)).collect();
        v.sort();
        v
    }

    /// Links of all tuples whose context satisfies `pred`, sorted (uses
    /// each shard's context index — one test per distinct context).
    pub fn links_matching_context(&self, pred: impl Fn(&str) -> bool) -> Vec<TupleKey> {
        let mut v: Vec<TupleKey> =
            self.shards.iter().flat_map(|s| s.read().links_matching_context(&pred)).collect();
        v.sort();
        v
    }

    /// Run `f` on the tuple for `link` under the shard's read lock.
    pub fn with_tuple<R>(&self, link: &str, f: impl FnOnce(&Tuple) -> R) -> Option<R> {
        self.read_shard(self.shard_of(link)).get(link).map(f)
    }

    /// True when a tuple for `link` is stored (expired or not).
    pub fn contains(&self, link: &str) -> bool {
        self.read_shard(self.shard_of(link)).get(link).is_some()
    }

    /// Install content for `link` through the index-maintaining path
    /// (write-locks only the owning shard).
    pub fn install_content(&self, link: &str, content: &Element, now: Time) -> bool {
        self.write_shard(self.shard_of(link)).set_content(link, content, now)
    }

    /// Drop cached content for `link` through the index-maintaining path.
    pub fn drop_content(&self, link: &str) -> bool {
        self.write_shard(self.shard_of(link)).clear_content(link)
    }

    /// Probe every shard's content index for links that may satisfy all
    /// `preds`: `Some((sorted candidate links, postings consulted))`, or
    /// `None` when the index is disabled or no predicate constrains
    /// content (wrapper-only patterns cannot be answered from postings).
    /// Shards are read-locked one at a time, per the lock order above.
    pub fn sargable_candidates(
        &self,
        preds: &[SargablePredicate],
        width_cap: usize,
    ) -> Option<(Vec<TupleKey>, usize)> {
        if !self.content_index {
            return None;
        }
        let content_preds: Vec<&SargablePredicate> =
            preds.iter().filter(|p| pattern_is_content_only(p.path())).collect();
        if content_preds.is_empty() {
            return None;
        }
        // Width pre-check: sum each shard's cheap candidate bound and give
        // up before materializing anything when the plan cannot possibly
        // come in under the cap. The bound never undershoots the real
        // candidate count, so a passing pre-check guarantees a set within
        // the cap (modulo overshoot, which only makes us scan more often).
        if width_cap != usize::MAX {
            let mut bound = 0usize;
            for shard in self.shards.iter() {
                bound += shard.read().content_candidate_bound(&content_preds)?;
                if bound >= width_cap {
                    return None;
                }
            }
        }
        let mut consulted = 0;
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.read().content_candidates(&content_preds, &mut consulted)?);
        }
        out.sort();
        Some((out, consulted))
    }

    /// Run the exhaustive per-shard consistency check (test helper).
    #[doc(hidden)]
    pub fn check_consistent(&self) {
        for shard in self.shards.iter() {
            shard.read().check_consistent();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedStore::new(0).shard_count(), 1);
        assert_eq!(ShardedStore::new(1).shard_count(), 1);
        assert_eq!(ShardedStore::new(5).shard_count(), 8);
        assert_eq!(ShardedStore::new(16).shard_count(), 16);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let s = ShardedStore::new(8);
        for i in 0..100 {
            let link = format!("http://svc{i}");
            let a = s.shard_of(&link);
            assert_eq!(a, s.shard_of(&link));
            assert!(a < 8);
        }
    }

    #[test]
    fn upsert_lookup_remove_across_shards() {
        let s = ShardedStore::new(4);
        for i in 0..50 {
            assert!(s.upsert(&format!("http://svc{i}"), "service", "cern.ch", Time(0), 1000));
        }
        assert_eq!(s.len(), 50);
        assert!(s.contains("http://svc7"));
        assert_eq!(s.with_tuple("http://svc7", |t| t.type_.clone()).unwrap(), "service");
        assert!(!s.upsert("http://svc7", "service", "cern.ch", Time(10), 1000), "refresh");
        assert!(s.remove("http://svc7").is_some());
        assert!(!s.contains("http://svc7"));
        assert_eq!(s.len(), 49);
    }

    #[test]
    fn ordinals_are_globally_unique_and_monotonic() {
        let s = ShardedStore::new(8);
        for i in 0..100 {
            s.upsert(&format!("http://svc{i}"), "service", "c", Time(0), 1000);
        }
        let mut ords: Vec<u64> = (0..100)
            .map(|i| s.with_tuple(&format!("http://svc{i}"), |t| t.ordinal).unwrap())
            .collect();
        // Insertion order == ordinal order, exactly as in the single store.
        assert!(ords.windows(2).all(|w| w[0] < w[1]));
        ords.sort();
        ords.dedup();
        assert_eq!(ords.len(), 100);
    }

    #[test]
    fn sweep_and_next_expiry_span_shards() {
        let s = ShardedStore::new(4);
        for i in 0..20 {
            let ttl = if i % 2 == 0 { 100 } else { 1000 };
            s.upsert(&format!("http://svc{i}"), "service", "c", Time(0), ttl);
        }
        assert_eq!(s.next_expiry(), Some(Time(100)));
        assert_eq!(s.sweep(Time(100)), 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.next_expiry(), Some(Time(1000)));
    }

    #[test]
    fn cross_shard_index_queries() {
        let s = ShardedStore::new(4);
        for i in 0..30 {
            let ty = if i % 3 == 0 { "monitor" } else { "service" };
            let ctx = if i % 2 == 0 { "cms.cern.ch" } else { "fnal.gov" };
            s.upsert(&format!("http://svc{i:02}"), ty, ctx, Time(0), 1000);
        }
        assert_eq!(s.links().len(), 30);
        assert_eq!(s.links_of_type("monitor").len(), 10);
        let cern = s.links_matching_context(|c| c.ends_with("cern.ch"));
        assert_eq!(cern.len(), 15);
        let mut sorted = cern.clone();
        sorted.sort();
        assert_eq!(cern, sorted, "results are sorted");
    }
}
