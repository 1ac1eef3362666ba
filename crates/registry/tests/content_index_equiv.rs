//! The content index answers exactly like a flat reference.
//!
//! The reference keeps every posting as one `(link, path, value)` row and
//! recomputes each answer by scanning the rows. Seeded schedules index,
//! re-index, clear and unindex random contents, including content deeper
//! than `max_depth`, wider than `max_postings_per_tuple`, values longer
//! than `max_value_len` and a tuple posting one (path, value) pair twice
//! (two `interface`s of one type). After every step the candidate sets,
//! the candidate bound (which drives the planner's width bailout, and so
//! every plan choice), the postings-consulted count and the path count
//! must equal the reference's, and the index must pass its own
//! consistency check.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use wsda_registry::content_index::pattern_is_content_only;
use wsda_registry::{ContentIndex, IndexCaps};
use wsda_xml::{name_matches, Element};
use wsda_xq::{PathPattern, PatternStep, SargablePredicate};

const ELEMENTS: [&str; 6] = ["service", "interface", "owner", "load", "op", "p:x"];
const ATTRIBUTES: [&str; 3] = ["type", "url", "p:id"];
const VALUES: [&str; 6] = ["", "a", "cms", "0.5", "Executor-1.0", "Storage-1.1"];
const NAME_TESTS: [&str; 4] = ["*", "p:*", "tuple", "content"];
const LINKS: usize = 8;

/// Small caps, so schedules reach every one of them often.
const SMALL: IndexCaps = IndexCaps { max_depth: 3, max_postings_per_tuple: 14, max_value_len: 6 };

/// One posting: a root-to-node path and the node's value, `None` when it
/// is over the value cap.
type Posting = (Vec<String>, Option<String>);

/// Each path's `(link, value)` postings.
type Table<'a> = BTreeMap<&'a [String], Vec<(&'a str, Option<&'a str>)>>;

/// The postings of every path the predicate's pattern matches.
fn matching<'t, 'a>(
    table: &'t Table<'a>,
    pred: &'t SargablePredicate,
) -> impl Iterator<Item = &'t Vec<(&'a str, Option<&'a str>)>> + 't {
    table.iter().filter(|(path, _)| matches(&pred.path().steps, path)).map(|(_, postings)| postings)
}

/// The distinct links among one path's postings that the predicate
/// accepts: any posting for existence, one with the literal for an
/// equality within the value cap.
fn accepted<'a>(
    caps: IndexCaps,
    pred: &SargablePredicate,
    postings: &[(&'a str, Option<&'a str>)],
) -> BTreeSet<&'a str> {
    let wanted = match pred {
        SargablePredicate::Eq { value, .. } if value.len() <= caps.max_value_len => {
            Some(value.as_str())
        }
        _ => None,
    };
    postings
        .iter()
        .filter(|(_, value)| wanted.is_none_or(|w| *value == Some(w)))
        .map(|&(link, _)| link)
        .collect()
}

/// The index's contract, kept as flat rows.
#[derive(Default)]
struct Reference {
    rows: Vec<(String, Posting)>,
    overflow: BTreeSet<String>,
    contentless: BTreeSet<String>,
}

impl Reference {
    fn index(&mut self, caps: IndexCaps, link: &str, content: Option<&Element>) {
        self.unindex(link);
        let Some(root) = content else {
            self.contentless.insert(link.to_owned());
            return;
        };
        let mut postings = Vec::new();
        let depth = nodes(root, &mut vec!["tuple".into(), "content".into()], &mut postings);
        // A tuple deeper than the cap, or with more nodes than the cap,
        // posts nothing and is always a candidate.
        if depth > caps.max_depth + 1 || postings.len() > caps.max_postings_per_tuple {
            self.overflow.insert(link.to_owned());
            return;
        }
        for (path, value) in postings {
            let value = value.filter(|v| v.len() <= caps.max_value_len);
            self.rows.push((link.to_owned(), (path, value)));
        }
    }

    fn unindex(&mut self, link: &str) {
        self.rows.retain(|(l, _)| l != link);
        self.overflow.remove(link);
        self.contentless.remove(link);
    }

    /// The rows grouped by path: each path's `(link, value)` postings.
    fn table(&self) -> Table<'_> {
        let mut table = Table::new();
        for (link, (path, value)) in &self.rows {
            table.entry(path.as_slice()).or_default().push((link.as_str(), value.as_deref()));
        }
        table
    }

    fn candidates(
        &self,
        table: &Table<'_>,
        caps: IndexCaps,
        preds: &[&SargablePredicate],
    ) -> (BTreeSet<String>, usize) {
        let mut consulted = 0;
        let mut acc: Option<BTreeSet<&str>> = None;
        for pred in preds {
            let mut links = BTreeSet::new();
            for postings in matching(table, pred) {
                consulted += 1;
                links.extend(accepted(caps, pred, postings));
            }
            acc = Some(match acc {
                None => links,
                Some(acc) => acc.intersection(&links).copied().collect(),
            });
        }
        let mut out: BTreeSet<String> =
            acc.unwrap_or_default().into_iter().map(str::to_owned).collect();
        out.extend(self.overflow.iter().cloned());
        out.extend(self.contentless.iter().cloned());
        (out, consulted)
    }

    fn bound(&self, table: &Table<'_>, caps: IndexCaps, preds: &[&SargablePredicate]) -> usize {
        let tightest = preds
            .iter()
            .map(|pred| {
                matching(table, pred)
                    .map(|postings| accepted(caps, pred, postings).len())
                    .sum::<usize>()
            })
            .min()
            .unwrap_or(0);
        tightest + self.overflow.len() + self.contentless.len()
    }

    fn live(&self) -> HashSet<String> {
        self.rows
            .iter()
            .map(|(l, _)| l.clone())
            .chain(self.overflow.iter().cloned())
            .chain(self.contentless.iter().cloned())
            .collect()
    }
}

/// Every node's posting, in document order; returns the element depth
/// below `/tuple/content` (the root element counts 1).
fn nodes(elem: &Element, path: &mut Vec<String>, out: &mut Vec<Posting>) -> usize {
    path.push(elem.name().to_owned());
    out.push((path.clone(), Some(elem.text())));
    for attr in elem.attributes() {
        let mut attr_path = path.clone();
        attr_path.push(format!("@{}", attr.name));
        out.push((attr_path, Some(attr.value.to_string())));
    }
    let below = elem.child_elements().map(|c| nodes(c, path, out)).max().unwrap_or(0);
    path.pop();
    below + 1
}

/// Does the pattern match the whole path? A `gap` step skips any number of
/// segments.
fn matches(steps: &[PatternStep], path: &[String]) -> bool {
    let Some((step, rest)) = steps.split_first() else {
        return path.is_empty();
    };
    let starts = if step.gap { path.len() } else { path.len().min(1) };
    (0..starts).any(|i| {
        let seg = &path[i];
        let name_ok = match seg.strip_prefix('@') {
            Some(attr) => step.attribute && name_matches(attr, &step.name),
            None => !step.attribute && name_matches(seg, &step.name),
        };
        name_ok && matches(rest, &path[i + 1..])
    })
}

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

fn value(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.15) {
        "long-value-".repeat(rng.gen_range(1..4))
    } else {
        pick(rng, &VALUES).to_owned()
    }
}

fn element(rng: &mut StdRng, depth: usize) -> Element {
    let mut e = Element::new(pick(rng, &ELEMENTS));
    for attr in ATTRIBUTES {
        if rng.gen_bool(0.3) {
            e = e.with_attr(attr, value(rng));
        }
    }
    let children = if depth >= 5 { 0 } else { rng.gen_range(0..4usize.saturating_sub(depth / 2)) };
    for _ in 0..children {
        if rng.gen_bool(0.4) {
            e = e.with_text(value(rng));
        }
        e = e.with_child(element(rng, depth + 1));
    }
    if rng.gen_bool(0.3) {
        e = e.with_text(value(rng));
    }
    e
}

/// Random content, sometimes deep, wide or with a repeated node.
fn content(rng: &mut StdRng) -> Element {
    match rng.gen_range(0..10) {
        0 => {
            let mut deep = Element::new("leaf").with_text(value(rng));
            for _ in 0..rng.gen_range(2..6) {
                deep = Element::new(pick(rng, &ELEMENTS)).with_child(deep);
            }
            deep
        }
        1 => {
            let mut wide = Element::new("service");
            for _ in 0..rng.gen_range(4..10) {
                wide = wide.with_child(Element::new("op").with_attr("type", value(rng)));
            }
            wide
        }
        2 => {
            // Two interfaces of one type: the same (path, value) twice.
            let ty = pick(rng, &VALUES);
            Element::new("service")
                .with_child(Element::new("interface").with_attr("type", ty))
                .with_child(Element::new("interface").with_attr("type", ty))
                .with_field("owner", value(rng))
        }
        _ => element(rng, 0),
    }
}

fn step(rng: &mut StdRng, attribute: bool) -> PatternStep {
    let name = if attribute {
        if rng.gen_bool(0.2) {
            "*"
        } else {
            pick(rng, &ATTRIBUTES)
        }
    } else if rng.gen_bool(0.25) {
        pick(rng, &NAME_TESTS)
    } else {
        pick(rng, &ELEMENTS)
    };
    PatternStep { gap: rng.gen_bool(0.4), name: name.to_owned(), attribute }
}

/// A random content-only predicate.
fn predicate(rng: &mut StdRng) -> SargablePredicate {
    loop {
        let mut steps = Vec::new();
        if rng.gen_bool(0.3) {
            steps.push(PatternStep { gap: false, name: "tuple".into(), attribute: false });
            steps.push(PatternStep { gap: false, name: "content".into(), attribute: false });
        }
        for _ in 0..rng.gen_range(1..4) {
            steps.push(step(rng, false));
        }
        if rng.gen_bool(0.3) {
            steps.push(step(rng, true));
        }
        let path = PathPattern { steps };
        if !pattern_is_content_only(&path) {
            continue;
        }
        return if rng.gen_bool(0.6) {
            SargablePredicate::Eq { path, value: value(rng) }
        } else {
            SargablePredicate::Exists { path }
        };
    }
}

fn assert_same(
    index: &ContentIndex,
    reference: &Reference,
    caps: IndexCaps,
    probes: &[Vec<SargablePredicate>],
    step: usize,
) {
    index.check_consistent(&reference.live());
    let table = reference.table();
    assert_eq!(index.path_count(), table.len(), "path count after step {step}");
    for preds in probes {
        let refs: Vec<&SargablePredicate> = preds.iter().collect();
        let mut consulted = 0;
        let got: BTreeSet<String> = index.candidates(&refs, &mut consulted).into_iter().collect();
        let (want, want_consulted) = reference.candidates(&table, caps, &refs);
        assert_eq!(got, want, "candidates for {preds:?} after step {step}");
        assert_eq!(consulted, want_consulted, "consulted for {preds:?} after step {step}");
        assert_eq!(
            index.candidate_bound(&refs),
            reference.bound(&table, caps, &refs),
            "bound for {preds:?} after step {step}"
        );
    }
}

/// `//name` (or `//@name`) as a one-step pattern.
fn anywhere(name: &str, attribute: bool) -> PathPattern {
    PathPattern { steps: vec![PatternStep { gap: true, name: name.into(), attribute }] }
}

/// Probes over the pair a service with two interfaces of one type posts
/// twice: `//interface`, `//@type` and `//interface/@type = v` for every
/// value the schedules draw.
fn repeated_pair_probes() -> Vec<Vec<SargablePredicate>> {
    let mut type_path = anywhere("interface", false);
    type_path.steps.push(PatternStep { gap: false, name: "type".into(), attribute: true });
    let mut probes = vec![
        vec![SargablePredicate::Exists { path: anywhere("interface", false) }],
        vec![SargablePredicate::Exists { path: anywhere("type", true) }],
    ];
    probes.extend(
        VALUES.iter().map(|v| {
            vec![SargablePredicate::Eq { path: type_path.clone(), value: (*v).to_owned() }]
        }),
    );
    probes
}

fn run_schedule(seed: u64, caps: IndexCaps, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probes: Vec<Vec<SargablePredicate>> =
        (0..24).map(|_| (0..rng.gen_range(0..4)).map(|_| predicate(&mut rng)).collect()).collect();
    probes.extend(repeated_pair_probes());
    let mut index = ContentIndex::new(caps);
    let mut reference = Reference::default();
    for step in 0..steps {
        let link = format!("http://svc/{}", rng.gen_range(0..LINKS));
        match rng.gen_range(0..10) {
            0..=5 => {
                let content = content(&mut rng);
                index.index(&link, Some(&content));
                reference.index(caps, &link, Some(&content));
            }
            6 => {
                index.index(&link, None);
                reference.index(caps, &link, None);
            }
            _ => {
                index.unindex(&link);
                reference.unindex(&link);
            }
        }
        assert_same(&index, &reference, caps, &probes, step);
    }
    for link in 0..LINKS {
        index.unindex(&format!("http://svc/{link}"));
    }
    assert_eq!(index.path_count(), 0, "an emptied index holds no paths");
    index.check_consistent(&HashSet::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn small_caps_answer_like_the_reference(seed in any::<u64>()) {
        run_schedule(seed, SMALL, 60);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn default_caps_answer_like_the_reference(seed in any::<u64>()) {
        run_schedule(seed, IndexCaps { max_value_len: 12, ..IndexCaps::default() }, 40);
    }
}

#[test]
fn wide_content_past_the_default_postings_cap_is_rolled_back() {
    let caps = IndexCaps::default();
    let mut wide = Element::new("service");
    for i in 0..caps.max_postings_per_tuple {
        wide = wide.with_child(Element::new("op").with_attr("n", i.to_string()));
    }
    let narrow = Element::new("service").with_field("owner", "cms");
    let mut index = ContentIndex::new(caps);
    let mut reference = Reference::default();
    let probes = vec![
        vec![SargablePredicate::Exists {
            path: PathPattern {
                steps: vec![PatternStep { gap: true, name: "op".into(), attribute: false }],
            },
        }],
        vec![SargablePredicate::Eq {
            path: PathPattern {
                steps: vec![PatternStep { gap: true, name: "owner".into(), attribute: false }],
            },
            value: "cms".into(),
        }],
    ];
    for (step, (link, content)) in
        [("a", &narrow), ("wide", &wide), ("b", &narrow), ("wide", &narrow), ("wide", &wide)]
            .into_iter()
            .enumerate()
    {
        index.index(link, Some(content));
        reference.index(caps, link, Some(content));
        assert_same(&index, &reference, caps, &probes, step);
    }
    assert_eq!(index.path_count(), 2, "only the narrow tuples' paths stay interned");
}

#[test]
fn a_pair_posted_twice_counts_once() {
    let caps = IndexCaps::default();
    let twice = Element::new("service")
        .with_child(Element::new("interface").with_attr("type", "Executor-1.0"))
        .with_child(Element::new("interface").with_attr("type", "Executor-1.0"));
    let once = Element::new("service")
        .with_child(Element::new("interface").with_attr("type", "Executor-1.0"));
    let mut index = ContentIndex::new(caps);
    let mut reference = Reference::default();
    let probes = repeated_pair_probes();
    for (step, (link, content)) in
        [("a", Some(&twice)), ("b", Some(&once)), ("a", None), ("a", Some(&twice))]
            .into_iter()
            .enumerate()
    {
        index.index(link, content);
        reference.index(caps, link, content);
        assert_same(&index, &reference, caps, &probes, step);
    }
    // The probe `//interface/@type = "Executor-1.0"`.
    let refs: Vec<&SargablePredicate> = probes[2 + 4].iter().collect();
    assert_eq!(index.candidate_bound(&refs), 2, "two tuples post Executor-1.0");
}
