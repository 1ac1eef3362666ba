//! Inverted path/value content index: `path → value → tuple links`
//! postings over the cached tuple content, in the style of the WebContent
//! XML Store.
//!
//! Each [`crate::store::TupleStore`] shard owns one [`ContentIndex`],
//! maintained *under the shard lock* by the store's mutating operations
//! (content installation, removal, sweeping), so the index is always
//! consistent with `by_link` and no new lock order is introduced.
//!
//! ## Postings shape
//!
//! Every indexable node of a tuple's rendered document below
//! `/tuple/content` produces one posting keyed by its full root-to-node
//! path (segments; attribute segments carry an `@` prefix):
//!
//! * elements post `(path, string value)` where the value is the
//!   XPath string value (deep text), and
//! * attributes post `(path + ["@name"], value)`.
//!
//! A path's postings live in a `PathEntry`: the set of tuples with *any*
//! node on the path (`all`, answering existence predicates) plus a
//! value-keyed map (`by_value`, answering equality predicates).
//!
//! ## Ids
//!
//! Postings name everything by a dense per-index `u32` id, so a posting
//! is a few bytes and no string is copied into it:
//!
//! * **tuples**: each tracked link is stored once, in a slab whose freed
//!   ids are reused; `candidates` maps ids back to links only for the
//!   tuples it returns;
//! * **paths**: interned once per index under the joined path
//!   (`tuple/content/service/@type`). The walk builds each node's path in
//!   one reusable buffer and looks it up by `&str`, so a known path costs
//!   no allocation; its segments are split once, at interning, for
//!   pattern matching. A path is dropped with its last posting;
//! * **values**: interned with a reference count (one per posting that
//!   names the value) and dropped when it reaches zero. A value posted
//!   by a single tuple, the common case (`load`, `freeDiskGB`, URLs, deep
//!   texts), keeps that tuple's id inline instead of a set.
//!
//! A tuple's reverse postings, used to unindex it, are one exact-size
//! slice of `(path id, value id)` pairs.
//!
//! ## Memory cap
//!
//! Indexing is bounded by [`IndexCaps`]: nodes deeper than `max_depth`
//! are not walked, tuples producing more than `max_postings_per_tuple`
//! postings are dropped from the index entirely and parked in an
//! *overflow* set, and node values longer than `max_value_len` bytes are
//! indexed existence-only. Per tuple the index therefore holds at most
//! `max_postings_per_tuple` postings of 8 bytes each in its reverse
//! slice, one id in each posting set it joins, and the values it is the
//! only tuple to post, each at most `max_value_len` bytes (≈64 KiB at
//! the defaults). Paths and shared values are stored once per index. A
//! walk interns as it goes, so a walk that blows a cap releases what it
//! interned before the tuple is parked in overflow.
//!
//! ## Soundness under caps
//!
//! [`ContentIndex::candidates`] answers a *necessary* condition, so every
//! cap weakens answers toward "maybe": overflow tuples and tuples with no
//! cached content are unconditionally included in every candidate set,
//! and an equality probe whose literal exceeds `max_value_len` degrades
//! to an existence probe (values longer than the cap are existence-only
//! indexed, and a string equal to a too-long value is itself too long).

use crate::tuple::TupleKey;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use wsda_xml::{name_matches, Element};
use wsda_xq::{PathPattern, PatternStep, SargablePredicate};

/// Bounds on what one tuple may contribute to the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexCaps {
    /// Maximum element nesting depth walked below the document root.
    pub max_depth: usize,
    /// Maximum postings (elements + attributes) per tuple; beyond this the
    /// tuple is indexed as *overflow* (always a candidate).
    pub max_postings_per_tuple: usize,
    /// Maximum value length (bytes) stored in value postings; longer
    /// values are indexed existence-only.
    pub max_value_len: usize,
}

impl Default for IndexCaps {
    fn default() -> Self {
        IndexCaps { max_depth: 16, max_postings_per_tuple: 512, max_value_len: 128 }
    }
}

/// A tracked link's id.
type TupleId = u32;
/// An interned path's id.
type PathId = u32;
/// An interned value's id.
type ValueId = u32;

/// The value id of an existence-only posting (a value over the cap).
const NO_VALUE: ValueId = ValueId::MAX;

/// Hashes the index's own `u32` ids with one multiply: the index assigns
/// them densely, so they need no keyed hash against chosen inputs.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type IdSet = HashSet<u32, BuildHasherDefault<IdHasher>>;
type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// Items under dense `u32` ids; a removed item's id is reused first.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slab<T> {
    fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(item);
                id
            }
            None => {
                let id = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&id| id != NO_VALUE)
                    .expect("fewer than 2^32 - 1 ids per index");
                self.slots.push(Some(item));
                id
            }
        }
    }

    fn remove(&mut self, id: u32) -> T {
        let item = self.slots[id as usize].take().expect("removed ids are live");
        self.free.push(id);
        item
    }

    fn get(&self, id: u32) -> Option<&T> {
        self.slots.get(id as usize).and_then(Option::as_ref)
    }

    fn live(&self, id: u32) -> &T {
        self.get(id).expect("ids in postings are live")
    }

    fn live_mut(&mut self, id: u32) -> &mut T {
        self.slots[id as usize].as_mut().expect("ids in postings are live")
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots.iter().enumerate().filter_map(|(id, slot)| Some((id as u32, slot.as_ref()?)))
    }
}

/// One tracked link and what it contributes.
#[derive(Debug)]
struct TupleSlot {
    /// The link, shared with the link → id map.
    link: Arc<str>,
    /// The posted content's `(path, value)` pairs, one per node in walk
    /// order; `None` while the tuple is in `overflow` or `contentless`.
    postings: Option<Box<[(PathId, ValueId)]>>,
}

/// Postings for one distinct node path.
#[derive(Debug)]
struct PathEntry {
    /// The joined path, shared with the path → id map.
    key: Arc<str>,
    /// The path's segments from the document root, attributes last with
    /// an `@` prefix. Plain strings: every query matches patterns against
    /// them, so reading one must cost nothing (an inline `SmallStr`
    /// re-checks its UTF-8 on each read).
    segs: Box<[Box<str>]>,
    /// Tuples with at least one node on this path.
    all: IdSet,
    /// Tuples keyed by node value (values within the length cap).
    by_value: IdMap<Postings>,
}

/// The tuples posting one value on one path.
#[derive(Debug)]
enum Postings {
    One(TupleId),
    Many(IdSet),
}

impl Postings {
    fn insert(&mut self, id: TupleId) {
        match self {
            Postings::One(one) if *one == id => {}
            Postings::One(one) => *self = Postings::Many(IdSet::from_iter([*one, id])),
            Postings::Many(ids) => {
                ids.insert(id);
            }
        }
    }

    /// Remove `id`; `true` when no tuple is left.
    fn remove(&mut self, id: TupleId) -> bool {
        match self {
            Postings::One(one) => *one == id,
            Postings::Many(ids) => {
                ids.remove(&id);
                ids.is_empty()
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Postings::One(_) => 1,
            Postings::Many(ids) => ids.len(),
        }
    }

    fn contains(&self, id: TupleId) -> bool {
        match self {
            Postings::One(one) => *one == id,
            Postings::Many(ids) => ids.contains(&id),
        }
    }

    fn add_to(&self, out: &mut IdSet) {
        match self {
            Postings::One(one) => {
                out.insert(*one);
            }
            Postings::Many(ids) => out.extend(ids),
        }
    }
}

/// An interned value and the number of postings naming it.
#[derive(Debug)]
struct ValueSlot {
    /// The value, shared with the value → id map.
    text: Arc<str>,
    refs: u32,
}

/// What one predicate asks of each matching path's postings.
enum Probe {
    /// Any node on the path.
    Exists,
    /// A node with this value; `None` when no posted node has it.
    Value(Option<ValueId>),
}

/// Buffers one walk reuses, kept between walks so a walk over known
/// paths allocates only the tuple's reverse slice and its new values.
#[derive(Debug, Default)]
struct Scratch {
    /// The current node's joined path.
    path: String,
    /// The current element's deep text.
    text: String,
    /// The walk's `(path, value)` pairs so far.
    postings: Vec<(PathId, ValueId)>,
}

/// The per-shard inverted content index.
#[derive(Debug)]
pub struct ContentIndex {
    caps: IndexCaps,
    tuples: Slab<TupleSlot>,
    tuple_ids: HashMap<Arc<str>, TupleId>,
    paths: Slab<PathEntry>,
    path_ids: HashMap<Arc<str>, PathId>,
    values: Slab<ValueSlot>,
    value_ids: HashMap<Arc<str>, ValueId>,
    /// Tuples whose content blew a cap — never posted, always candidates.
    overflow: IdSet,
    /// Tuples with no cached content — always candidates (their content is
    /// unknown until pulled, so the index cannot exclude them).
    contentless: IdSet,
    scratch: Scratch,
}

impl Default for ContentIndex {
    fn default() -> Self {
        ContentIndex::new(IndexCaps::default())
    }
}

impl ContentIndex {
    /// An empty index with the given caps.
    pub fn new(caps: IndexCaps) -> Self {
        ContentIndex {
            caps,
            tuples: Slab::default(),
            tuple_ids: HashMap::new(),
            paths: Slab::default(),
            path_ids: HashMap::new(),
            values: Slab::default(),
            value_ids: HashMap::new(),
            overflow: IdSet::default(),
            contentless: IdSet::default(),
            scratch: Scratch::default(),
        }
    }

    /// Number of distinct indexed paths.
    pub fn path_count(&self) -> usize {
        self.path_ids.len()
    }

    /// (Re)index one tuple's cached content (`None` = no content cached).
    /// Call under the shard lock whenever content is installed, cleared,
    /// or a tuple is inserted.
    pub fn index(&mut self, link: &str, content: Option<&Element>) {
        let id = match self.tuple_ids.get(link) {
            Some(&id) => {
                self.release(id);
                id
            }
            None => {
                let link: Arc<str> = link.into();
                let id = self.tuples.insert(TupleSlot { link: link.clone(), postings: None });
                self.tuple_ids.insert(link, id);
                id
            }
        };
        let Some(root) = content else {
            self.contentless.insert(id);
            return;
        };
        match self.post(id, root) {
            Some(postings) => self.tuples.live_mut(id).postings = Some(postings),
            None => {
                self.overflow.insert(id);
            }
        }
    }

    /// Drop every posting contributed by `link`. Call under the shard lock
    /// on remove/sweep.
    pub fn unindex(&mut self, link: &str) {
        let Some(id) = self.tuple_ids.remove(link) else {
            return;
        };
        self.release(id);
        self.tuples.remove(id);
    }

    /// Links that *may* satisfy every predicate: the intersection of the
    /// per-predicate postings unions, plus the overflow and contentless
    /// sets (whose content the index does not know). `consulted` counts
    /// the path entries probed. Predicates must be content-only (see
    /// [`pattern_is_content_only`]); others would never match a posting
    /// and would wrongly exclude everything indexed.
    pub fn candidates(&self, preds: &[&SargablePredicate], consulted: &mut usize) -> Vec<TupleKey> {
        let mut per_pred: Vec<IdSet> = Vec::with_capacity(preds.len());
        for pred in preds {
            let mut ids = IdSet::default();
            let probe = self.probe(pred);
            for entry in self.paths_matching(pred) {
                *consulted += 1;
                match probe {
                    Probe::Exists => ids.extend(&entry.all),
                    Probe::Value(Some(value)) => {
                        if let Some(postings) = entry.by_value.get(&value) {
                            postings.add_to(&mut ids);
                        }
                    }
                    Probe::Value(None) => {}
                }
            }
            per_pred.push(ids);
        }
        // Intersect smallest-first so the running set only shrinks.
        per_pred.sort_by_key(|s| s.len());
        let mut iter = per_pred.into_iter();
        let mut acc = iter.next().unwrap_or_default();
        for set in iter {
            acc.retain(|id| set.contains(id));
            if acc.is_empty() {
                break;
            }
        }
        // The index knows nothing about overflow and contentless tuples;
        // they are always candidates (disjoint from every postings set,
        // so no dedup needed).
        acc.iter()
            .chain(&self.overflow)
            .chain(&self.contentless)
            .map(|&id| TupleKey::from(&*self.tuples.live(id).link))
            .collect()
    }

    /// Cheap upper bound on what [`ContentIndex::candidates`] would return
    /// for `preds`, from postings-list sizes alone — no sets are
    /// materialized. A tuple posting several paths that match one pattern
    /// is counted once per path, so the bound can overshoot; it never
    /// undershoots, which is what the planner's width bailout needs.
    pub fn candidate_bound(&self, preds: &[&SargablePredicate]) -> usize {
        let tightest = preds
            .iter()
            .map(|pred| {
                let probe = self.probe(pred);
                self.paths_matching(pred)
                    .map(|entry| match probe {
                        Probe::Exists => entry.all.len(),
                        Probe::Value(Some(value)) => {
                            entry.by_value.get(&value).map_or(0, Postings::len)
                        }
                        Probe::Value(None) => 0,
                    })
                    .sum::<usize>()
            })
            .min()
            .unwrap_or(0);
        tightest + self.overflow.len() + self.contentless.len()
    }

    /// Equality probes look their literal up once; a literal longer than
    /// the value cap degrades to existence (such values are indexed
    /// existence-only).
    fn probe(&self, pred: &SargablePredicate) -> Probe {
        match pred {
            SargablePredicate::Eq { value, .. } if value.len() <= self.caps.max_value_len => {
                Probe::Value(self.value_ids.get(value.as_str()).copied())
            }
            _ => Probe::Exists,
        }
    }

    fn paths_matching<'a>(
        &'a self,
        pred: &'a SargablePredicate,
    ) -> impl Iterator<Item = &'a PathEntry> + 'a {
        let steps = &pred.path().steps;
        self.paths
            .iter()
            .map(|(_, entry)| entry)
            .filter(|entry| pattern_matches(steps, &entry.segs))
    }

    /// Post `root` for tuple `id`: its reverse slice, or `None` when a cap
    /// was blown (nothing stays posted or interned then).
    fn post(&mut self, id: TupleId, root: &Element) -> Option<Box<[(PathId, ValueId)]>> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.path.clear();
        scratch.path.push_str("tuple/content");
        scratch.postings.clear();
        let posted = if self.walk(root, 0, &mut scratch) {
            for &(path, value) in &scratch.postings {
                let entry = self.paths.live_mut(path);
                entry.all.insert(id);
                if value != NO_VALUE {
                    match entry.by_value.entry(value) {
                        Entry::Occupied(mut postings) => postings.get_mut().insert(id),
                        Entry::Vacant(slot) => {
                            slot.insert(Postings::One(id));
                        }
                    }
                }
            }
            Some(scratch.postings.as_slice().into())
        } else {
            self.release_interned(&scratch.postings);
            None
        };
        self.scratch = scratch;
        posted
    }

    /// Walk one element, interning its postings' paths and values and
    /// appending them. Returns `false` when a cap was blown (the caller
    /// releases what was interned and parks the tuple in overflow).
    fn walk(&mut self, elem: &Element, depth: usize, scratch: &mut Scratch) -> bool {
        if depth > self.caps.max_depth {
            return false;
        }
        let base = scratch.path.len();
        scratch.path.push('/');
        scratch.path.push_str(elem.name());
        let path = self.intern_path(&scratch.path);
        scratch.text.clear();
        elem.append_text(&mut scratch.text);
        let value = self.intern_value(&scratch.text);
        scratch.postings.push((path, value));
        let element_path = scratch.path.len();
        for attr in elem.attributes() {
            scratch.path.push_str("/@");
            scratch.path.push_str(&attr.name);
            let path = self.intern_path(&scratch.path);
            let value = self.intern_value(&attr.value);
            scratch.postings.push((path, value));
            scratch.path.truncate(element_path);
        }
        let ok = scratch.postings.len() <= self.caps.max_postings_per_tuple
            && elem.child_elements().all(|child| self.walk(child, depth + 1, scratch));
        scratch.path.truncate(base);
        ok
    }

    fn intern_path(&mut self, path: &str) -> PathId {
        if let Some(&id) = self.path_ids.get(path) {
            return id;
        }
        let key: Arc<str> = path.into();
        let segs = path.split('/').map(Box::from).collect();
        let id = self.paths.insert(PathEntry {
            key: key.clone(),
            segs,
            all: IdSet::default(),
            by_value: IdMap::default(),
        });
        self.path_ids.insert(key, id);
        id
    }

    /// The id of `text` with one more reference, or [`NO_VALUE`] when it
    /// is over the value cap.
    fn intern_value(&mut self, text: &str) -> ValueId {
        if text.len() > self.caps.max_value_len {
            return NO_VALUE;
        }
        if let Some(&id) = self.value_ids.get(text) {
            self.values.live_mut(id).refs += 1;
            return id;
        }
        let text: Arc<str> = text.into();
        let id = self.values.insert(ValueSlot { text: text.clone(), refs: 1 });
        self.value_ids.insert(text, id);
        id
    }

    /// Drop what tuple `id` contributes: its postings, or its overflow or
    /// contentless mark.
    fn release(&mut self, id: TupleId) {
        let Some(postings) = self.tuples.live_mut(id).postings.take() else {
            self.overflow.remove(&id);
            self.contentless.remove(&id);
            return;
        };
        for &(path, value) in postings.iter() {
            let entry = self.paths.live_mut(path);
            entry.all.remove(&id);
            if entry.by_value.get_mut(&value).is_some_and(|posted| posted.remove(id)) {
                entry.by_value.remove(&value);
            }
        }
        self.release_interned(&postings);
    }

    /// Drop one reference to each value in `postings`, and each path in
    /// it that no tuple posts any more.
    fn release_interned(&mut self, postings: &[(PathId, ValueId)]) {
        for &(_, value) in postings {
            if value == NO_VALUE {
                continue;
            }
            let slot = self.values.live_mut(value);
            slot.refs -= 1;
            if slot.refs == 0 {
                let slot = self.values.remove(value);
                self.value_ids.remove(&slot.text);
            }
        }
        for &(path, _) in postings {
            // A path posted twice by one tuple is dropped at its first pair.
            if self.paths.get(path).is_some_and(|entry| entry.all.is_empty()) {
                let entry = self.paths.remove(path);
                self.path_ids.remove(&entry.key);
            }
        }
    }

    /// Membership bookkeeping for one link, for consistency assertions:
    /// `(has postings, in overflow, in contentless)`.
    #[doc(hidden)]
    pub fn membership(&self, link: &str) -> (bool, bool, bool) {
        let Some(&id) = self.tuple_ids.get(link) else {
            return (false, false, false);
        };
        (
            self.tuples.live(id).postings.is_some(),
            self.overflow.contains(&id),
            self.contentless.contains(&id),
        )
    }

    /// Exhaustive internal consistency check (tests only): every posting
    /// in the reverse slices is present in the forward map and vice
    /// versa, the id maps and slabs agree, and every value's reference
    /// count is the number of postings naming it.
    #[doc(hidden)]
    pub fn check_consistent(&self, live_links: &HashSet<TupleKey>) {
        for link in live_links {
            let (indexed, overflow, contentless) = self.membership(link);
            assert_eq!(
                usize::from(indexed) + usize::from(overflow) + usize::from(contentless),
                1,
                "link {link} must be in exactly one of postings/overflow/contentless"
            );
        }
        assert_eq!(self.tuple_ids.len(), self.tuples.iter().count(), "tuple ids leak");
        for (link, &id) in &self.tuple_ids {
            assert!(live_links.contains(&**link), "stale index entry for {link}");
            assert_eq!(&self.tuples.live(id).link, link, "tuple id {id} names another link");
        }
        for &id in self.overflow.iter().chain(&self.contentless) {
            assert!(self.tuples.get(id).is_some(), "stale overflow or contentless id {id}");
        }
        let mut refs: IdMap<u32> = IdMap::default();
        let (mut paths_posted, mut values_posted) = (0, 0);
        for (id, slot) in self.tuples.iter() {
            let Some(postings) = &slot.postings else {
                continue;
            };
            let link = &slot.link;
            for &(path, value) in postings.iter() {
                let entry = self.paths.get(path).expect("posted path is interned");
                assert!(entry.all.contains(&id), "missing existence posting for {link}");
                if value != NO_VALUE {
                    assert!(
                        entry.by_value.get(&value).is_some_and(|p| p.contains(id)),
                        "missing value posting for {link}"
                    );
                    *refs.entry(value).or_default() += 1;
                }
            }
            // `all` holds one entry per (path, tuple) and `by_value` one per
            // (path, value, tuple), while the reverse slice holds one pair
            // per node — two `interface`s of one type post the same pair
            // twice — so count distinct pairs.
            paths_posted += postings.iter().map(|&(path, _)| path).collect::<IdSet>().len();
            values_posted += postings
                .iter()
                .filter(|&&(_, value)| value != NO_VALUE)
                .collect::<HashSet<_>>()
                .len();
        }
        let forward: usize = self.paths.iter().map(|(_, e)| e.all.len()).sum();
        assert_eq!(forward, paths_posted, "forward/reverse path posting counts diverge");
        let forward: usize =
            self.paths.iter().flat_map(|(_, e)| e.by_value.values()).map(Postings::len).sum();
        assert_eq!(forward, values_posted, "forward/reverse value posting counts diverge");
        assert_eq!(self.path_ids.len(), self.paths.iter().count(), "path ids leak");
        for (key, &id) in &self.path_ids {
            let entry = self.paths.get(id).expect("interned path is live");
            assert_eq!(&entry.key, key, "path id {id} names another path");
            assert!(!entry.all.is_empty(), "path {key} outlived its postings");
            assert_eq!(entry.segs.join("/"), **key, "path {key} split wrongly");
        }
        assert_eq!(self.value_ids.len(), self.values.iter().count(), "value ids leak");
        for (text, &id) in &self.value_ids {
            let slot = self.values.get(id).expect("interned value is live");
            assert_eq!(&slot.text, text, "value id {id} names another value");
            assert_eq!(refs.get(&id).copied(), Some(slot.refs), "refcount of {text:?} diverges");
        }
    }
}

/// Does `pattern` (an absolute sargable path) match a full root-to-node
/// posting path? Anchored at both ends; a `gap` step may skip any number
/// of intermediate segments.
fn pattern_matches(pattern: &[PatternStep], segs: &[impl AsRef<str>]) -> bool {
    let Some((step, rest)) = pattern.split_first() else {
        return segs.is_empty();
    };
    let window = if step.gap { segs.len() } else { segs.len().min(1) };
    (0..window)
        .any(|i| seg_matches(step, segs[i].as_ref()) && pattern_matches(rest, &segs[i + 1..]))
}

fn seg_matches(step: &PatternStep, seg: &str) -> bool {
    match seg.strip_prefix('@') {
        Some(attr) => step.attribute && name_matches(attr, &step.name),
        None => !step.attribute && name_matches(seg, &step.name),
    }
}

/// Paths the wrapper attributes and elements of the rendered tuple
/// document live on. The index covers only `/tuple/content` subtrees (so
/// refreshes, which touch `ts2`/`ttl` but not content, never re-index);
/// predicates over the wrapper cannot be answered from postings and must
/// be dropped from the index probe (dropping only widens the candidate
/// set, which stays sound).
const WRAPPER_SEGS: &[&str] = &["@link", "@type", "@ctx", "@ts1", "@ts2", "@tc", "@ttl", "content"];

/// True when every node the pattern can match lies strictly below
/// `/tuple/content` — i.e. the pattern cannot match the `tuple` wrapper
/// element, its attributes, or the `content` wrapper itself.
pub fn pattern_is_content_only(pattern: &PathPattern) -> bool {
    if pattern.steps.is_empty() {
        return false;
    }
    // The wrapper paths are exactly: /tuple, /tuple/@*, /tuple/content.
    !pattern_matches(&pattern.steps, &["tuple"])
        && !WRAPPER_SEGS.iter().any(|seg| pattern_matches(&pattern.steps, &["tuple", seg]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsda_xml::parse_fragment;
    use wsda_xq::extract_sargable;
    use wsda_xq::Query;

    fn service(owner: &str, iface: &str) -> Element {
        parse_fragment(&format!(
            r#"<service><owner>{owner}</owner><interface type="{iface}"/></service>"#
        ))
        .unwrap()
    }

    fn preds(q: &str) -> Vec<SargablePredicate> {
        let query = Query::parse(q).unwrap();
        extract_sargable(query.expr()).unwrap().predicates
    }

    fn probe(index: &ContentIndex, q: &str) -> Vec<TupleKey> {
        let preds = preds(q);
        let refs: Vec<&SargablePredicate> =
            preds.iter().filter(|p| pattern_is_content_only(p.path())).collect();
        let mut consulted = 0;
        let mut c = index.candidates(&refs, &mut consulted);
        c.sort();
        c
    }

    #[test]
    fn equality_probe_narrows_to_matching_tuples() {
        let mut idx = ContentIndex::default();
        idx.index("a", Some(&service("cms", "Executor-1.0")));
        idx.index("b", Some(&service("atlas", "Storage-1.1")));
        idx.index("c", Some(&service("cms", "Storage-1.1")));
        assert_eq!(probe(&idx, r#"//service[owner = "cms"]"#), ["a", "c"]);
        assert_eq!(probe(&idx, r#"//service[interface/@type = "Executor-1.0"]"#), ["a"]);
        assert_eq!(
            probe(&idx, r#"//service[owner = "cms" and interface/@type = "Storage-1.1"]"#),
            ["c"]
        );
        assert_eq!(probe(&idx, r#"//service[owner = "nobody"]"#), Vec::<String>::new());
    }

    #[test]
    fn existence_probe_and_explicit_absolute_paths() {
        let mut idx = ContentIndex::default();
        idx.index("a", Some(&service("cms", "Executor-1.0")));
        idx.index("b", Some(&parse_fragment("<monitor><load>0.5</load></monitor>").unwrap()));
        assert_eq!(probe(&idx, "//service/owner"), ["a"]);
        assert_eq!(probe(&idx, "//monitor/load"), ["b"]);
        assert_eq!(probe(&idx, r#"/tuple/content/service[owner = "cms"]"#), ["a"]);
    }

    #[test]
    fn contentless_tuples_are_always_candidates() {
        let mut idx = ContentIndex::default();
        idx.index("a", Some(&service("cms", "Executor-1.0")));
        idx.index("pending", None);
        assert_eq!(probe(&idx, r#"//service[owner = "atlas"]"#), ["pending"]);
        assert_eq!(probe(&idx, r#"//service[owner = "cms"]"#), ["a", "pending"]);
    }

    #[test]
    fn reindexing_replaces_old_postings() {
        let mut idx = ContentIndex::default();
        idx.index("a", Some(&service("cms", "Executor-1.0")));
        idx.index("a", Some(&service("atlas", "Executor-1.0")));
        assert_eq!(probe(&idx, r#"//service[owner = "cms"]"#), Vec::<String>::new());
        assert_eq!(probe(&idx, r#"//service[owner = "atlas"]"#), ["a"]);
        idx.index("a", None);
        assert_eq!(probe(&idx, r#"//service[owner = "atlas"]"#), ["a"], "contentless again");
        idx.unindex("a");
        assert_eq!(probe(&idx, r#"//service[owner = "atlas"]"#), Vec::<String>::new());
        assert_eq!(idx.path_count(), 0, "empty index holds no paths");
    }

    #[test]
    fn deep_content_overflows_to_always_candidate() {
        let mut deep = Element::new("leaf");
        for i in 0..40 {
            deep = Element::new(format!("level{i}")).with_child(deep);
        }
        let mut idx = ContentIndex::default();
        idx.index("deep", Some(&deep));
        idx.index("a", Some(&service("cms", "Executor-1.0")));
        // The overflow tuple survives every probe, matching or not.
        assert_eq!(probe(&idx, r#"//service[owner = "cms"]"#), ["a", "deep"]);
        assert_eq!(probe(&idx, r#"//service[owner = "nope"]"#), ["deep"]);
        let (indexed, overflow, _) = idx.membership("deep");
        assert!(!indexed && overflow);
    }

    #[test]
    fn wide_content_overflows_on_postings_cap() {
        let mut root = Element::new("big");
        for i in 0..600 {
            root.push(Element::new("item").with_attr("n", i.to_string()));
        }
        let mut idx = ContentIndex::default();
        idx.index("big", Some(&root));
        assert!(idx.membership("big").1, "postings cap parks the tuple in overflow");
        assert_eq!(idx.path_count(), 0, "partial postings are rolled back");
    }

    #[test]
    fn long_values_are_existence_only_and_long_literals_degrade() {
        let long = "x".repeat(4096);
        let content = parse_fragment(&format!("<service><blob>{long}</blob></service>")).unwrap();
        let mut idx = ContentIndex::default();
        idx.index("a", Some(&content));
        // Existence still works.
        assert_eq!(probe(&idx, "//service/blob"), ["a"]);
        // Equality with a too-long literal degrades to existence (sound:
        // a value equal to the literal must itself be too long).
        assert_eq!(probe(&idx, &format!(r#"//service[blob = "{long}"]"#)), ["a"]);
        // Equality with a short literal uses value postings and excludes.
        assert_eq!(probe(&idx, r#"//service[blob = "short"]"#), Vec::<String>::new());
    }

    #[test]
    fn deep_text_is_the_element_string_value() {
        let content = parse_fragment("<service><owner><org>cms</org></owner></service>").unwrap();
        let mut idx = ContentIndex::default();
        idx.index("a", Some(&content));
        // `owner`'s string value is its deep text "cms".
        assert_eq!(probe(&idx, r#"//service[owner = "cms"]"#), ["a"]);
    }

    #[test]
    fn wrapper_patterns_are_rejected() {
        use wsda_xq::PathPattern;
        let mk = |steps: &[(&str, bool, bool)]| PathPattern {
            steps: steps
                .iter()
                .map(|&(name, gap, attribute)| PatternStep {
                    gap,
                    name: name.to_owned(),
                    attribute,
                })
                .collect(),
        };
        assert!(!pattern_is_content_only(&mk(&[("tuple", false, false)])));
        assert!(!pattern_is_content_only(&mk(&[("tuple", false, false), ("type", false, true)])));
        assert!(!pattern_is_content_only(&mk(&[("type", true, true)])), "//@type hits wrapper");
        assert!(!pattern_is_content_only(&mk(&[
            ("tuple", false, false),
            ("content", false, false)
        ])));
        assert!(!pattern_is_content_only(&mk(&[("*", true, false)])), "//* hits wrappers");
        assert!(pattern_is_content_only(&mk(&[
            ("tuple", false, false),
            ("content", false, false),
            ("service", false, false)
        ])));
        assert!(pattern_is_content_only(&mk(&[("service", true, false)])));
        assert!(pattern_is_content_only(&mk(&[("owner", true, false)])));
    }

    #[test]
    fn consulted_counts_path_entries() {
        let mut idx = ContentIndex::default();
        idx.index("a", Some(&service("cms", "Executor-1.0")));
        let ps = preds(r#"//service[owner = "cms"]"#);
        let refs: Vec<&SargablePredicate> = ps.iter().collect();
        let mut consulted = 0;
        idx.candidates(&refs, &mut consulted);
        assert_eq!(consulted, 1, "one matching path entry probed");
    }

    #[test]
    fn check_consistent_passes_after_churn() {
        let mut idx = ContentIndex::default();
        let mut live = HashSet::new();
        for i in 0..20 {
            let link = format!("l{i}");
            match i % 3 {
                0 => idx.index(&link, Some(&service("cms", "Executor-1.0"))),
                1 => idx.index(&link, Some(&service("atlas", "Storage-1.1"))),
                _ => idx.index(&link, None),
            }
            live.insert(link);
        }
        for i in (0..20).step_by(4) {
            let link = format!("l{i}");
            idx.unindex(&link);
            live.remove(&link);
        }
        idx.check_consistent(&live);
    }
}
