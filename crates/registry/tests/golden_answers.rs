//! Golden answers for the XQuery evaluator over registry tuples.
//!
//! Each case runs one query against a 100-tuple `CorpusGenerator` registry
//! and records the item count and an FNV-1a hash of the serialized items in
//! order, so any change in selection, document order, dedup, positional
//! predicates or attribute order shows up as a changed line. The same
//! queries also run as a plain scan over the registry's tuple documents,
//! which pins the evaluator's work count. The fixture was written by the
//! evaluator these answers are meant to hold still; regenerate it only for
//! a deliberate change in query semantics:
//!
//! ```sh
//! cargo test -p wsda-registry --test golden_answers -- --ignored write_fixture
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use wsda_registry::clock::ManualClock;
use wsda_registry::workload::{t1_queries, CorpusGenerator};
use wsda_registry::{Freshness, HyperRegistry, RegistryConfig};
use wsda_xml::Element;
use wsda_xq::{DynamicContext, Item, Query};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_answers.txt");

const SEEDS: [u64; 3] = [1, 7, 20021116];

const TUPLES: usize = 100;

/// F21's flood query, then queries that cover every axis, `//` at the
/// start and mid-path, positional predicates, attribute and text nodes,
/// and the node-set operators.
const EXTRA_QUERIES: [(&str, &str); 11] = [
    ("F21", r#"//service[interface/@type = "ReplicaCatalog-2.0"]/owner"#),
    ("first-iface-type", "//interface[1]/@type"),
    ("last-op-name", "//operation[last()]/name"),
    ("iface-parent", "//service/interface/.."),
    ("all-attributes", "//@*"),
    ("all-text", "//text()"),
    ("content-names", "/tuple/content//name"),
    ("union", "//owner | //load | //owner"),
    ("except", r#"//interface except //interface[@type = "Presenter-1.0"]"#),
    ("count-all", "count(//*)"),
    ("descendant-axes", "/tuple/descendant::operation[1]/descendant-or-self::*/@verb"),
];

fn queries() -> Vec<(&'static str, &'static str)> {
    let t1 = t1_queries().into_iter().map(|(id, _, q)| (id, q));
    t1.chain(EXTRA_QUERIES).collect()
}

fn registry(seed: u64, content_index: bool) -> HyperRegistry {
    let registry = HyperRegistry::new(
        RegistryConfig { content_index, ..RegistryConfig::default() },
        Arc::new(ManualClock::new()),
    );
    CorpusGenerator::new(seed).populate(&registry, TUPLES, 3_600_000);
    registry
}

/// Result items as peers put them on the wire: elements as compact XML,
/// everything else as its string value.
fn serialized(item: &Item) -> String {
    match item.as_node().and_then(|n| n.materialize_element()) {
        Some(e) => e.to_compact_string(),
        None => item.string_value(),
    }
}

/// FNV-1a over the items in order, each followed by a 0xff separator
/// (a byte no UTF-8 text contains).
fn fingerprint(items: &[Item]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for &byte in serialized(item).as_bytes().iter().chain(&[0xff]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The tuple documents a registry holds, in ordinal order.
fn tuple_documents(registry: &HyperRegistry) -> Vec<Arc<Element>> {
    let all = Query::parse("/tuple").unwrap();
    let tuples = registry.query(&all, &Freshness::any()).unwrap().results;
    tuples.iter().map(|t| t.as_node().unwrap().document().clone()).collect()
}

/// One line per case: `seed plan query items hash`, then one line per
/// scan: `seed work query count`.
fn answers() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        for content_index in [true, false] {
            let registry = registry(seed, content_index);
            let index = if content_index { "index" } else { "scan" };
            for (id, source) in queries() {
                let query = Query::parse(source).unwrap();
                let results = registry.query(&query, &Freshness::any()).unwrap().results;
                let hash = fingerprint(&results);
                writeln!(out, "{seed} {index} {id} {} {hash:016x}", results.len()).unwrap();
            }
            if content_index {
                let documents = tuple_documents(&registry);
                assert_eq!(documents.len(), TUPLES);
                for (id, source) in queries() {
                    let query = Query::parse(source).unwrap();
                    let mut ctx = DynamicContext::with_roots(documents.clone());
                    let results = query.eval(&mut ctx).unwrap();
                    writeln!(out, "{seed} work {id} {} {}", results.len(), ctx.work()).unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn evaluator_answers_match_the_fixture() {
    let expected = std::fs::read_to_string(FIXTURE).expect("golden fixture is committed");
    let actual = answers();
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "golden answer changed");
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden case count changed");
}

#[test]
fn index_and_scan_plans_agree() {
    let answers = answers();
    let plan_free = |plan: &str| -> Vec<String> {
        answers
            .lines()
            .filter(|l| l.split(' ').nth(1) == Some(plan))
            .map(|l| l.replacen(plan, "", 1))
            .collect()
    };
    assert_eq!(plan_free("index"), plan_free("scan"));
}

#[test]
#[ignore = "rewrites the golden fixture; run only for a deliberate semantic change"]
fn write_fixture() {
    std::fs::write(FIXTURE, answers()).unwrap();
}
