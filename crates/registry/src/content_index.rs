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
//! A path's postings live in a `PathEntry`: the set of links with *any*
//! node on the path (`all`, answering existence predicates) plus a
//! value-keyed map (`by_value`, answering equality predicates).
//!
//! ## Memory cap
//!
//! Indexing is bounded by [`IndexCaps`]: nodes deeper than `max_depth`
//! are not walked, tuples producing more than `max_postings_per_tuple`
//! postings are dropped from the index entirely and parked in an
//! *overflow* set, and node values longer than `max_value_len` bytes are
//! indexed existence-only. Per tuple the index therefore holds at most
//! `max_postings_per_tuple` postings of at most `max_value_len` value
//! bytes each (≈64 KiB of values at the defaults) plus the reverse list
//! used for invalidation; paths themselves are interned (`Arc<[String]>`)
//! and shared across all tuples of the same shape.
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
use std::collections::{HashMap, HashSet};
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

/// Postings for one distinct node path.
#[derive(Debug, Default)]
struct PathEntry {
    /// Links with at least one node on this path.
    all: HashSet<TupleKey>,
    /// Links keyed by node string value (values within the length cap).
    by_value: HashMap<String, HashSet<TupleKey>>,
}

/// An interned path: segments from the document root, attributes last
/// with an `@` prefix. `Arc` so the map key is shared with the reverse
/// postings lists.
type PathId = Arc<[String]>;

/// The per-shard inverted content index.
#[derive(Debug)]
pub struct ContentIndex {
    caps: IndexCaps,
    by_path: HashMap<PathId, PathEntry>,
    /// Reverse map for invalidation: the postings each link contributed.
    postings_of: HashMap<TupleKey, Vec<(PathId, Option<String>)>>,
    /// Links whose content blew a cap — never indexed, always candidates.
    overflow: HashSet<TupleKey>,
    /// Links with no cached content — always candidates (their content is
    /// unknown until pulled, so the index cannot exclude them).
    contentless: HashSet<TupleKey>,
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
            by_path: HashMap::new(),
            postings_of: HashMap::new(),
            overflow: HashSet::new(),
            contentless: HashSet::new(),
        }
    }

    /// Number of distinct indexed paths.
    pub fn path_count(&self) -> usize {
        self.by_path.len()
    }

    /// (Re)index one tuple's cached content (`None` = no content cached).
    /// Call under the shard lock whenever content is installed, cleared,
    /// or a tuple is inserted.
    pub fn index(&mut self, link: &str, content: Option<&Element>) {
        self.unindex(link);
        let Some(root) = content else {
            self.contentless.insert(link.to_owned());
            return;
        };
        let mut postings: Vec<(Vec<String>, Option<String>)> = Vec::new();
        let mut segs = vec!["tuple".to_owned(), "content".to_owned()];
        let ok = self.walk(root, &mut segs, 0, &mut postings);
        if !ok {
            self.overflow.insert(link.to_owned());
            return;
        }
        let interned: Vec<(PathId, Option<String>)> =
            postings.into_iter().map(|(segs, value)| (self.intern(segs), value)).collect();
        for (path, value) in &interned {
            let entry = self.by_path.get_mut(path.as_ref()).expect("interned above");
            entry.all.insert(link.to_owned());
            if let Some(v) = value {
                entry.by_value.entry(v.clone()).or_default().insert(link.to_owned());
            }
        }
        self.postings_of.insert(link.to_owned(), interned);
    }

    /// Drop every posting contributed by `link`. Call under the shard lock
    /// on remove/sweep (and as the first half of re-indexing).
    pub fn unindex(&mut self, link: &str) {
        self.overflow.remove(link);
        self.contentless.remove(link);
        let Some(postings) = self.postings_of.remove(link) else {
            return;
        };
        for (path, value) in postings {
            let Some(entry) = self.by_path.get_mut(path.as_ref()) else {
                continue;
            };
            entry.all.remove(link);
            if let Some(v) = value {
                if let Some(set) = entry.by_value.get_mut(&v) {
                    set.remove(link);
                    if set.is_empty() {
                        entry.by_value.remove(&v);
                    }
                }
            }
            if entry.all.is_empty() {
                self.by_path.remove(path.as_ref());
            }
        }
    }

    /// Links that *may* satisfy every predicate: the intersection of the
    /// per-predicate postings unions, plus the overflow and contentless
    /// sets (whose content the index does not know). `consulted` counts
    /// the path entries probed. Predicates must be content-only (see
    /// [`pattern_is_content_only`]); others would never match a posting
    /// and would wrongly exclude everything indexed.
    pub fn candidates(&self, preds: &[&SargablePredicate], consulted: &mut usize) -> Vec<TupleKey> {
        let mut per_pred: Vec<HashSet<&TupleKey>> = Vec::with_capacity(preds.len());
        for pred in preds {
            let mut links: HashSet<&TupleKey> = HashSet::new();
            for (path, entry) in &self.by_path {
                if !pattern_matches(&pred.path().steps, path) {
                    continue;
                }
                *consulted += 1;
                match pred {
                    SargablePredicate::Eq { value, .. }
                        if value.len() <= self.caps.max_value_len =>
                    {
                        if let Some(set) = entry.by_value.get(value) {
                            links.extend(set);
                        }
                    }
                    // Existence probes, and equality against a literal
                    // longer than the value cap (such values are indexed
                    // existence-only).
                    _ => links.extend(&entry.all),
                }
            }
            per_pred.push(links);
        }
        // Intersect smallest-first so the running set only shrinks.
        per_pred.sort_by_key(|s| s.len());
        let mut iter = per_pred.into_iter();
        let mut acc = iter.next().unwrap_or_default();
        for set in iter {
            acc.retain(|l| set.contains(l));
            if acc.is_empty() {
                break;
            }
        }
        let mut out: Vec<TupleKey> = acc.into_iter().cloned().collect();
        // The index knows nothing about these; they are always candidates
        // (disjoint from every postings set, so no dedup needed).
        out.extend(self.overflow.iter().cloned());
        out.extend(self.contentless.iter().cloned());
        out
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
                let mut n = 0usize;
                for (path, entry) in &self.by_path {
                    if !pattern_matches(&pred.path().steps, path) {
                        continue;
                    }
                    n += match pred {
                        SargablePredicate::Eq { value, .. }
                            if value.len() <= self.caps.max_value_len =>
                        {
                            entry.by_value.get(value).map_or(0, |s| s.len())
                        }
                        _ => entry.all.len(),
                    };
                }
                n
            })
            .min()
            .unwrap_or(0);
        tightest + self.overflow.len() + self.contentless.len()
    }

    /// Walk one element, appending postings. Returns `false` when a cap
    /// was blown (caller parks the tuple in overflow).
    fn walk(
        &self,
        elem: &Element,
        segs: &mut Vec<String>,
        depth: usize,
        postings: &mut Vec<(Vec<String>, Option<String>)>,
    ) -> bool {
        if depth > self.caps.max_depth {
            return false;
        }
        segs.push(elem.name().to_owned());
        postings.push((segs.clone(), self.capped(elem.text())));
        for attr in elem.attributes() {
            segs.push(format!("@{}", attr.name));
            postings.push((segs.clone(), self.capped(attr.value.as_str().to_owned())));
            segs.pop();
        }
        if postings.len() > self.caps.max_postings_per_tuple {
            segs.pop();
            return false;
        }
        for child in elem.child_elements() {
            if !self.walk(child, segs, depth + 1, postings) {
                segs.pop();
                return false;
            }
        }
        segs.pop();
        true
    }

    fn capped(&self, value: String) -> Option<String> {
        (value.len() <= self.caps.max_value_len).then_some(value)
    }

    fn intern(&mut self, segs: Vec<String>) -> PathId {
        if let Some((path, _)) = self.by_path.get_key_value(segs.as_slice()) {
            return path.clone();
        }
        let path: PathId = segs.into();
        self.by_path.insert(path.clone(), PathEntry::default());
        path
    }

    /// Membership bookkeeping for one link, for consistency assertions:
    /// `(has postings, in overflow, in contentless)`.
    #[doc(hidden)]
    pub fn membership(&self, link: &str) -> (bool, bool, bool) {
        (
            self.postings_of.contains_key(link),
            self.overflow.contains(link),
            self.contentless.contains(link),
        )
    }

    /// Exhaustive internal consistency check (tests only): every posting
    /// in the reverse map is present in the forward map and vice versa.
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
        for tracked in
            self.postings_of.keys().chain(self.overflow.iter()).chain(self.contentless.iter())
        {
            assert!(live_links.contains(tracked), "stale index entry for {tracked}");
        }
        for (link, postings) in &self.postings_of {
            for (path, value) in postings {
                let entry = self.by_path.get(path.as_ref()).expect("forward entry exists");
                assert!(entry.all.contains(link), "missing existence posting for {link}");
                if let Some(v) = value {
                    assert!(
                        entry.by_value.get(v).is_some_and(|s| s.contains(link)),
                        "missing value posting for {link}"
                    );
                }
            }
        }
        // `all` holds one entry per (path, link), while a link's reverse
        // list holds one posting per node — two values on one path (two
        // `interface/@type`s) are two postings — so count distinct paths.
        let posted: usize = self.by_path.values().map(|e| e.all.len()).sum();
        let reverse: usize = self
            .postings_of
            .values()
            .map(|p| p.iter().map(|(path, _)| path).collect::<HashSet<_>>().len())
            .sum();
        assert_eq!(posted, reverse, "forward/reverse posting counts diverge");
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
