//! The tuple store: primary map keyed by content link plus secondary
//! indices, with soft-state sweeping.
//!
//! The store is single-registry-internal; [`crate::HyperRegistry`] wraps it
//! in a lock. Sweeping is explicit (`sweep(now)`) so simulations control
//! exactly when expiry happens; the registry calls it lazily on every
//! operation, matching the original's behaviour of never serving expired
//! tuples.

use crate::clock::Time;
use crate::content_index::ContentIndex;
use crate::persist::{DurableBackend, WalOp};
use crate::tuple::{Tuple, TupleKey};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use wsda_xml::Element;
use wsda_xq::SargablePredicate;

/// In-memory tuple storage with link, type, context and content indices.
#[derive(Debug)]
pub struct TupleStore {
    by_link: HashMap<TupleKey, Tuple>,
    by_type: HashMap<String, HashSet<TupleKey>>,
    /// Context → links. Domain scoping matches *suffixes* of contexts, so
    /// scoped queries test each distinct context once instead of scanning
    /// every candidate tuple (see [`TupleStore::links_matching_context`]).
    by_context: HashMap<String, HashSet<TupleKey>>,
    /// Expiry queue: expiry time → links (BTreeMap gives cheap "expired
    /// prefix" sweeps without scanning live tuples).
    expiry: BTreeMap<Time, HashSet<TupleKey>>,
    /// Inverted path/value postings over cached content, answering
    /// sargable predicates without a scan. `None` when disabled; content
    /// must then be installed through [`TupleStore::get_mut`]-style direct
    /// mutation only. Maintained by every content-changing operation so it
    /// never diverges from `by_link`. Boxed, so a store without an index
    /// (every lean simulated registry) stays small.
    content_index: Option<Box<ContentIndex>>,
    next_ordinal: u64,
    /// Durable sink for mutations ([`crate::persist`]); `None` (the
    /// default) keeps the store purely in-memory with zero overhead.
    /// Recovery builds stores with no backend attached, so replay never
    /// re-logs.
    backend: Option<Arc<dyn DurableBackend>>,
}

impl Default for TupleStore {
    fn default() -> Self {
        TupleStore::with_index(Some(Box::default()))
    }
}

impl TupleStore {
    /// An empty store (content index enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with the content index disabled: content changes
    /// cost nothing extra and [`TupleStore::content_candidates`] returns
    /// `None`, forcing callers onto the scan path.
    pub fn without_content_index() -> Self {
        TupleStore::with_index(None)
    }

    fn with_index(content_index: Option<Box<ContentIndex>>) -> Self {
        TupleStore {
            by_link: HashMap::new(),
            by_type: HashMap::new(),
            by_context: HashMap::new(),
            expiry: BTreeMap::new(),
            content_index,
            next_ordinal: 0,
            backend: None,
        }
    }

    /// Number of live tuples (including any not yet swept but expired —
    /// call [`TupleStore::sweep`] first for exact liveness).
    pub fn len(&self) -> usize {
        self.by_link.len()
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.by_link.is_empty()
    }

    /// Attach a durable backend: every subsequent mutation is logged
    /// through it. The in-memory behaviour is otherwise unchanged.
    pub fn attach_backend(&mut self, backend: Arc<dyn DurableBackend>) {
        self.backend = Some(backend);
    }

    /// Insert a fully-formed tuple as-is, preserving its timestamps and
    /// ordinal — the recovery path ([`crate::persist`]) uses this to load
    /// snapshot images. Not logged. Replaces any tuple under the same link.
    #[doc(hidden)]
    pub fn insert_recovered(&mut self, t: Tuple) {
        let link = t.link.clone();
        self.remove_silent(&link);
        self.expiry.entry(t.expires()).or_default().insert(link.clone());
        self.by_type.entry(t.type_.clone()).or_default().insert(link.clone());
        self.by_context.entry(t.context.clone()).or_default().insert(link.clone());
        if let Some(idx) = self.content_index.as_mut() {
            idx.index(&link, t.content());
        }
        self.by_link.insert(link.clone(), t);
        self.debug_assert_link(&link);
    }

    /// Insert a brand-new tuple or refresh an existing one, keeping the
    /// expiry queue consistent. Returns `true` when the tuple was new.
    pub fn upsert(
        &mut self,
        link: &str,
        type_: &str,
        context: &str,
        now: Time,
        ttl_ms: u64,
    ) -> bool {
        let ordinal = self.next_ordinal;
        let was_new = self.upsert_with_ordinal(link, type_, context, now, ttl_ms, ordinal);
        if was_new {
            self.next_ordinal += 1;
        }
        was_new
    }

    /// Like [`TupleStore::upsert`], but a brand-new tuple takes the given
    /// ordinal instead of the store's internal counter. The sharded store
    /// uses this to allocate ordinals from one registry-wide counter so
    /// result ordering stays globally deterministic across shards.
    pub fn upsert_with_ordinal(
        &mut self,
        link: &str,
        type_: &str,
        context: &str,
        now: Time,
        ttl_ms: u64,
        ordinal: u64,
    ) -> bool {
        if let Some(b) = &self.backend {
            b.record(&WalOp::Upsert {
                link: Cow::Borrowed(link),
                type_: Cow::Borrowed(type_),
                context: Cow::Borrowed(context),
                now,
                ttl_ms,
                ordinal,
            });
        }
        if let Some(t) = self.by_link.get_mut(link) {
            let old_expiry = t.expires();
            t.refresh(now, ttl_ms);
            // Type/context may change across refreshes (rare but allowed).
            if t.type_ != type_ {
                remove_index(&mut self.by_type, &t.type_, link);
                t.set_type(type_);
                self.by_type.entry(type_.to_owned()).or_default().insert(link.to_owned());
            }
            if t.context != context {
                remove_index(&mut self.by_context, &t.context, link);
                t.set_context(context);
                self.by_context.entry(context.to_owned()).or_default().insert(link.to_owned());
            }
            let new_expiry = t.expires();
            move_expiry(&mut self.expiry, old_expiry, new_expiry, link);
            // A refresh never touches content, so the content index (which
            // covers only `/tuple/content`) needs no update.
            self.debug_assert_link(link);
            false
        } else {
            let t = Tuple::new(link, type_, context, now, ttl_ms, ordinal);
            self.expiry.entry(t.expires()).or_default().insert(link.to_owned());
            self.by_type.entry(type_.to_owned()).or_default().insert(link.to_owned());
            self.by_context.entry(context.to_owned()).or_default().insert(link.to_owned());
            self.by_link.insert(link.to_owned(), t);
            if let Some(idx) = self.content_index.as_mut() {
                idx.index(link, None);
            }
            self.debug_assert_link(link);
            true
        }
    }

    /// Renew the lease of a stored tuple in place (a soft-state refresh):
    /// only `ts2`, `ttl` and the tuple's place in the expiry queue change,
    /// so nothing is copied and the content index is not touched. Logged
    /// as the equivalent upsert. Returns `false` when the link is unknown.
    pub fn renew(&mut self, link: &str, now: Time, ttl_ms: u64) -> bool {
        let Some(t) = self.by_link.get_mut(link) else {
            return false;
        };
        if let Some(b) = &self.backend {
            b.record(&WalOp::Upsert {
                link: Cow::Borrowed(link),
                type_: Cow::Borrowed(&t.type_),
                context: Cow::Borrowed(&t.context),
                now,
                ttl_ms,
                ordinal: 0,
            });
        }
        let old_expiry = t.expires();
        t.refresh(now, ttl_ms);
        move_expiry(&mut self.expiry, old_expiry, t.expires(), link);
        self.debug_assert_link(link);
        true
    }

    /// Install content for `link` at `now`, keeping the content index
    /// consistent. Returns `false` when the link is unknown. Content must
    /// be installed through this method (not [`TupleStore::get_mut`])
    /// whenever the content index is enabled.
    pub fn set_content(&mut self, link: &str, content: &Element, now: Time) -> bool {
        let Some(t) = self.by_link.get_mut(link) else {
            return false;
        };
        if let Some(b) = &self.backend {
            b.record(&WalOp::SetContent {
                link: Cow::Borrowed(link),
                now,
                xml: Cow::Owned(content.to_compact_string()),
            });
        }
        t.set_content(content, now);
        self.reindex(link);
        true
    }

    /// Drop cached content for `link`, keeping the content index
    /// consistent. Returns `false` when the link is unknown.
    pub fn clear_content(&mut self, link: &str) -> bool {
        let Some(t) = self.by_link.get_mut(link) else {
            return false;
        };
        if let Some(b) = &self.backend {
            b.record(&WalOp::ClearContent { link: Cow::Borrowed(link) });
        }
        t.clear_content();
        self.reindex(link);
        true
    }

    fn reindex(&mut self, link: &str) {
        if let Some(idx) = self.content_index.as_mut() {
            idx.index(link, self.by_link.get(link).and_then(Tuple::content));
        }
        self.debug_assert_link(link);
    }

    /// Links that may satisfy every predicate, per the content index;
    /// `None` when the index is disabled (callers must scan).
    pub fn content_candidates(
        &self,
        preds: &[&SargablePredicate],
        consulted: &mut usize,
    ) -> Option<Vec<TupleKey>> {
        self.content_index.as_ref().map(|idx| idx.candidates(preds, consulted))
    }

    /// Cheap upper bound on [`TupleStore::content_candidates`] (postings
    /// sizes only; nothing materialized). `None` when indexing is off.
    pub fn content_candidate_bound(&self, preds: &[&SargablePredicate]) -> Option<usize> {
        self.content_index.as_ref().map(|idx| idx.candidate_bound(preds))
    }

    /// Per-link consistency of all secondary indices with `by_link`
    /// (debug builds only — O(1) per call).
    fn debug_assert_link(&self, link: &str) {
        #[cfg(debug_assertions)]
        {
            match self.by_link.get(link) {
                Some(t) => {
                    debug_assert!(
                        t.doc_is_current(),
                        "document of {link} diverges from its fields"
                    );
                    debug_assert!(
                        self.by_type.get(&t.type_).is_some_and(|s| s.contains(link)),
                        "by_type misses live link {link}"
                    );
                    debug_assert!(
                        self.by_context.get(&t.context).is_some_and(|s| s.contains(link)),
                        "by_context misses live link {link}"
                    );
                    if let Some(idx) = &self.content_index {
                        let (indexed, overflow, contentless) = idx.membership(link);
                        debug_assert_eq!(
                            usize::from(indexed) + usize::from(overflow) + usize::from(contentless),
                            1,
                            "content index misses live link {link}"
                        );
                        debug_assert_eq!(
                            t.content().is_none(),
                            contentless,
                            "content index contentless state diverges for {link}"
                        );
                    }
                }
                None => {
                    if let Some(idx) = &self.content_index {
                        let (indexed, overflow, contentless) = idx.membership(link);
                        debug_assert!(
                            !indexed && !overflow && !contentless,
                            "content index retains removed link {link}"
                        );
                    }
                }
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = link;
    }

    /// Exhaustive consistency check of every secondary index against
    /// `by_link` (test helper; O(store size)).
    #[doc(hidden)]
    pub fn check_consistent(&self) {
        let live: HashSet<TupleKey> = self.by_link.keys().cloned().collect();
        let mut typed = 0;
        for (ty, set) in &self.by_type {
            for link in set {
                assert!(
                    self.by_link.get(link).is_some_and(|t| &t.type_ == ty),
                    "by_type has stale entry {link} under {ty}"
                );
                typed += 1;
            }
        }
        assert_eq!(typed, live.len(), "by_type cardinality diverges from by_link");
        let mut ctxed = 0;
        for (ctx, set) in &self.by_context {
            for link in set {
                assert!(
                    self.by_link.get(link).is_some_and(|t| &t.context == ctx),
                    "by_context has stale entry {link} under {ctx}"
                );
                ctxed += 1;
            }
        }
        assert_eq!(ctxed, live.len(), "by_context cardinality diverges from by_link");
        if let Some(idx) = &self.content_index {
            idx.check_consistent(&live);
        }
    }

    /// Borrow a tuple.
    pub fn get(&self, link: &str) -> Option<&Tuple> {
        self.by_link.get(link)
    }

    /// Mutably borrow a tuple (content installation). The caller must not
    /// refresh, retag or move the tuple through this path — use
    /// [`TupleStore::upsert`] so the expiry queue and the type and context
    /// indices stay consistent.
    pub fn get_mut(&mut self, link: &str) -> Option<&mut Tuple> {
        self.by_link.get_mut(link)
    }

    /// Remove a tuple outright (explicit unpublish).
    pub fn remove(&mut self, link: &str) -> Option<Tuple> {
        if self.by_link.contains_key(link) {
            if let Some(b) = &self.backend {
                b.record(&WalOp::Remove { link: Cow::Borrowed(link) });
            }
        }
        self.remove_silent(link)
    }

    /// [`TupleStore::remove`] without logging (recovery + internal reuse).
    fn remove_silent(&mut self, link: &str) -> Option<Tuple> {
        let t = self.by_link.remove(link)?;
        remove_index(&mut self.by_type, &t.type_, link);
        remove_index(&mut self.by_context, &t.context, link);
        if let Some(idx) = self.content_index.as_mut() {
            idx.unindex(link);
        }
        if let Some(set) = self.expiry.get_mut(&t.expires()) {
            set.remove(link);
            if set.is_empty() {
                self.expiry.remove(&t.expires());
            }
        }
        self.debug_assert_link(link);
        Some(t)
    }

    /// Drop every tuple whose lease has expired at `now`; returns how many
    /// were evicted.
    pub fn sweep(&mut self, now: Time) -> usize {
        let mut evicted = 0;
        while let Some((&t, _)) = self.expiry.first_key_value() {
            if t > now {
                break;
            }
            let (_, links) = self.expiry.pop_first().expect("checked nonempty");
            for link in links {
                // Guard against stale queue entries left behind by refresh.
                let (expired_type, expired_ctx) = match self.by_link.get(&link) {
                    Some(tuple) if tuple.is_expired(now) => {
                        (tuple.type_.clone(), tuple.context.clone())
                    }
                    _ => continue,
                };
                self.by_link.remove(&link);
                remove_index(&mut self.by_type, &expired_type, &link);
                remove_index(&mut self.by_context, &expired_ctx, &link);
                if let Some(idx) = self.content_index.as_mut() {
                    idx.unindex(&link);
                }
                self.debug_assert_link(&link);
                evicted += 1;
            }
        }
        if evicted > 0 {
            // Logged once per effective sweep (no-op sweeps cost nothing).
            // Replaying `Sweep { now }` is idempotent: expired tuples are
            // never served, so sweeping them "early" during replay is
            // observationally equivalent.
            if let Some(b) = &self.backend {
                b.record(&WalOp::Sweep { now });
            }
        }
        evicted
    }

    /// The earliest pending expiry, if any (used by simulations to schedule
    /// the next sweep precisely).
    pub fn next_expiry(&self) -> Option<Time> {
        self.expiry.first_key_value().map(|(&t, _)| t)
    }

    /// Links of all tuples with the given type.
    pub fn links_of_type(&self, type_: &str) -> Vec<TupleKey> {
        let mut v: Vec<TupleKey> =
            self.by_type.get(type_).map(|s| s.iter().cloned().collect()).unwrap_or_default();
        v.sort();
        v
    }

    /// Links of all tuples whose context satisfies `pred`. Scoped queries
    /// pay one predicate test per *distinct* context instead of one scan
    /// over every candidate tuple.
    pub fn links_matching_context(&self, pred: impl Fn(&str) -> bool) -> Vec<TupleKey> {
        let mut v: Vec<TupleKey> = self
            .by_context
            .iter()
            .filter(|(ctx, _)| pred(ctx))
            .flat_map(|(_, links)| links.iter().cloned())
            .collect();
        v.sort();
        v
    }

    /// The distinct contexts currently present.
    pub fn context_count(&self) -> usize {
        self.by_context.len()
    }

    /// Iterate over all tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.by_link.values()
    }

    /// All links, sorted (deterministic iteration for tests and scans).
    pub fn links(&self) -> Vec<TupleKey> {
        let mut v: Vec<TupleKey> = self.by_link.keys().cloned().collect();
        v.sort();
        v
    }
}

fn remove_index(index: &mut HashMap<String, HashSet<TupleKey>>, key: &str, link: &str) {
    if let Some(set) = index.get_mut(key) {
        set.remove(link);
        if set.is_empty() {
            index.remove(key);
        }
    }
}

fn move_expiry(queue: &mut BTreeMap<Time, HashSet<TupleKey>>, old: Time, new: Time, link: &str) {
    if old == new {
        return;
    }
    if let Some(set) = queue.get_mut(&old) {
        set.remove(link);
        if set.is_empty() {
            queue.remove(&old);
        }
    }
    queue.entry(new).or_default().insert(link.to_owned());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(n: usize, ttl: u64) -> TupleStore {
        let mut s = TupleStore::new();
        for i in 0..n {
            s.upsert(&format!("http://svc{i}"), "service", "cern.ch", Time(0), ttl);
        }
        s
    }

    #[test]
    fn insert_and_lookup() {
        let s = store_with(3, 1000);
        assert_eq!(s.len(), 3);
        assert!(s.get("http://svc1").is_some());
        assert!(s.get("http://nope").is_none());
        assert_eq!(s.links_of_type("service").len(), 3);
        assert_eq!(s.links_of_type("monitor").len(), 0);
    }

    #[test]
    fn upsert_refreshes() {
        let mut s = store_with(1, 1000);
        assert!(!s.upsert("http://svc0", "service", "cern.ch", Time(500), 1000));
        assert_eq!(s.get("http://svc0").unwrap().expires(), Time(1500));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn upsert_can_change_type() {
        let mut s = store_with(1, 1000);
        s.upsert("http://svc0", "monitor", "cern.ch", Time(10), 1000);
        assert!(s.links_of_type("service").is_empty());
        assert_eq!(s.links_of_type("monitor"), ["http://svc0"]);
    }

    #[test]
    fn sweep_evicts_expired() {
        let mut s = store_with(5, 1000);
        s.upsert("http://svc0", "service", "cern.ch", Time(500), 1000); // expires 1500
        assert_eq!(s.sweep(Time(999)), 0);
        assert_eq!(s.sweep(Time(1000)), 4);
        assert_eq!(s.len(), 1);
        assert!(s.get("http://svc0").is_some());
        assert_eq!(s.sweep(Time(1500)), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn sweep_is_idempotent() {
        let mut s = store_with(2, 100);
        assert_eq!(s.sweep(Time(100)), 2);
        assert_eq!(s.sweep(Time(100)), 0);
        assert_eq!(s.sweep(Time(9999)), 0);
    }

    #[test]
    fn remove_cleans_indices() {
        let mut s = store_with(2, 1000);
        assert!(s.remove("http://svc0").is_some());
        assert!(s.remove("http://svc0").is_none());
        assert_eq!(s.links_of_type("service"), ["http://svc1"]);
        assert_eq!(s.next_expiry(), Some(Time(1000)));
    }

    #[test]
    fn next_expiry_tracks_minimum() {
        let mut s = TupleStore::new();
        assert_eq!(s.next_expiry(), None);
        s.upsert("a", "t", "c", Time(0), 500);
        s.upsert("b", "t", "c", Time(0), 100);
        assert_eq!(s.next_expiry(), Some(Time(100)));
        s.sweep(Time(100));
        assert_eq!(s.next_expiry(), Some(Time(500)));
    }

    #[test]
    fn ordinals_are_stable_and_unique() {
        let mut s = store_with(3, 1000);
        let o1 = s.get("http://svc1").unwrap().ordinal;
        s.upsert("http://svc1", "service", "cern.ch", Time(10), 1000);
        assert_eq!(s.get("http://svc1").unwrap().ordinal, o1);
        let mut ords: Vec<u64> = s.iter().map(|t| t.ordinal).collect();
        ords.sort();
        ords.dedup();
        assert_eq!(ords.len(), 3);
    }

    #[test]
    fn refresh_outruns_sweep() {
        let mut s = store_with(1, 100);
        // Refresh at t=90 with a fresh lease; the stale queue entry at t=100
        // must not evict the refreshed tuple.
        s.upsert("http://svc0", "service", "cern.ch", Time(90), 100);
        assert_eq!(s.sweep(Time(100)), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.sweep(Time(190)), 1);
    }

    #[test]
    fn links_sorted() {
        let s = store_with(3, 1000);
        let l = s.links();
        assert_eq!(l, ["http://svc0", "http://svc1", "http://svc2"]);
    }

    #[test]
    fn context_index_tracks_upsert_remove_and_sweep() {
        let mut s = TupleStore::new();
        s.upsert("a", "t", "cms.cern.ch", Time(0), 1000);
        s.upsert("b", "t", "fnal.gov", Time(0), 1000);
        s.upsert("c", "t", "cms.cern.ch", Time(0), 500);
        assert_eq!(s.context_count(), 2);
        assert_eq!(s.links_matching_context(|c| c.ends_with("cern.ch")), ["a", "c"]);
        // Context change on refresh moves the link between buckets.
        s.upsert("b", "t", "atlas.cern.ch", Time(0), 1000);
        assert_eq!(s.links_matching_context(|c| c.ends_with("cern.ch")), ["a", "b", "c"]);
        assert!(s.links_matching_context(|c| c == "fnal.gov").is_empty());
        // Sweep and remove clean the index.
        s.sweep(Time(500));
        assert_eq!(s.links_matching_context(|_| true), ["a", "b"]);
        s.remove("a");
        assert_eq!(s.links_matching_context(|_| true), ["b"]);
        assert_eq!(s.context_count(), 1);
    }

    #[test]
    fn a_store_keeps_its_content_index_behind_a_box() {
        // Every lean simulated registry holds a store without an index, so
        // the index's tables must not sit inline in the struct.
        let size = std::mem::size_of::<TupleStore>();
        assert!(size <= 408, "TupleStore is {size} B");
        assert!(size < std::mem::size_of::<ContentIndex>(), "TupleStore is {size} B");
    }

    #[test]
    fn renew_moves_the_lease_and_keeps_everything_else() {
        let mut s = store_with(2, 1000);
        let before = s.get("http://svc0").unwrap().clone();
        assert!(s.renew("http://svc0", Time(500), 2000));
        assert!(!s.renew("http://nope", Time(500), 2000));
        let t = s.get("http://svc0").unwrap();
        assert_eq!((t.refreshed, t.ttl_ms, t.expires()), (Time(500), 2000, Time(2500)));
        assert_eq!(
            (&t.type_, &t.context, t.ordinal),
            (&before.type_, &before.context, before.ordinal)
        );
        assert_eq!(t.to_xml().attr("ts2"), Some("500"));
        assert_eq!(s.sweep(Time(1000)), 1, "only the other tuple expires at its old deadline");
        assert_eq!(s.next_expiry(), Some(Time(2500)));
        s.check_consistent();
    }

    #[test]
    fn upsert_with_ordinal_uses_caller_ordinal() {
        let mut s = TupleStore::new();
        assert!(s.upsert_with_ordinal("a", "t", "c", Time(0), 1000, 7));
        assert_eq!(s.get("a").unwrap().ordinal, 7);
        // Refresh through the same path keeps the original ordinal.
        assert!(!s.upsert_with_ordinal("a", "t", "c", Time(10), 1000, 99));
        assert_eq!(s.get("a").unwrap().ordinal, 7);
    }
}
