//! F17 — predicate pushdown: content-index query latency vs full scan,
//! by corpus size and predicate selectivity.
//!
//! Two [`HyperRegistry`] instances hold the *same* synthetic corpus (same
//! generator seed) plus a handful of needle services carrying a unique
//! interface type. One registry runs with the default content index; the
//! other has `content_index: false`, which forces the seed behaviour — a
//! sharded full scan compiling every tuple into the evaluation set.
//!
//! Expected shape: for selective predicates the indexed registry answers
//! from a candidate set of roughly `selectivity × N` tuples, so its
//! latency tracks the *result* size while the scan tracks the *corpus*
//! size — the speedup grows with N and shrinks toward 1× as selectivity
//! approaches 100%. The non-sargable control row bounds the planner's
//! overhead on queries it cannot help (it must stay ~1×). The acceptance
//! bar is ≥3× on the needle predicate at 10k tuples (debug build); the
//! release sweep at 50k lands far higher. Both builds are timed, so every
//! row also reports each registry's mean publish µs per tuple: what the
//! index costs to keep. Emits `BENCH_p2_index.json`.

use crate::harness::{f1 as fmt1, f3 as fmt3, timed, write_bench, Report};
use serde_json::json;
use std::sync::Arc;
use wsda_registry::clock::ManualClock;
use wsda_registry::workload::CorpusGenerator;
use wsda_registry::{Freshness, HyperRegistry, PublishRequest, QueryOutcome, RegistryConfig};
use wsda_xml::Element;
use wsda_xq::Query;

const NEEDLE_COUNT: usize = 8;
const NEEDLE_IFACE: &str = "Needle-0.1";
const TTL_MS: u64 = 3_600_000;

/// The selectivity sweep: label, query, and the fraction of the corpus the
/// predicate matches (the needle matches a constant 8 tuples).
const QUERIES: &[(&str, &str)] = &[
    ("needle", r#"//service[interface/@type = "Needle-0.1"]/owner"#),
    ("10%", r#"//service[interface/@type = "ReplicaCatalog-2.0"]/owner"#),
    ("30%", r#"//service[interface/@type = "Executor-1.0"]/owner"#),
    ("100%", r#"//service[interface/@type = "Presenter-1.0"]/owner"#),
    ("non-sargable", "count(/tuple) + count(//service)"),
];

fn needle_content(i: usize) -> Element {
    Element::new("service")
        .with_child(Element::new("interface").with_attr("type", NEEDLE_IFACE))
        .with_field("owner", "needle.example")
        .with_field("load", format!("0.{}", i % 10))
}

/// The publications of an `n`-tuple corpus: the synthetic services, then
/// the needles.
fn corpus(n: usize) -> Vec<PublishRequest> {
    // Same seed ⇒ the exact same deterministic corpus for both registries.
    let mut generator = CorpusGenerator::new(17 + n as u64);
    let services = (0..n.saturating_sub(NEEDLE_COUNT)).map(|_| {
        let (link, _kind, domain, content) = generator.next_service();
        PublishRequest::new(&link, "service")
            .with_context(domain)
            .with_ttl_ms(TTL_MS)
            .with_content(content)
    });
    let needles = (0..NEEDLE_COUNT).map(|i| {
        PublishRequest::new(format!("http://needle.example/svc/{i}"), "service")
            .with_context("needle.example")
            .with_ttl_ms(TTL_MS)
            .with_content(needle_content(i))
    });
    services.chain(needles).collect()
}

/// A registry holding the `n`-tuple corpus, and the mean µs each publish
/// took (the corpus is built before the clock starts).
fn build(n: usize, content_index: bool) -> (HyperRegistry, f64) {
    let registry = HyperRegistry::new(
        RegistryConfig { content_index, ..RegistryConfig::default() },
        Arc::new(ManualClock::new()),
    );
    let requests = corpus(n);
    let count = requests.len();
    let ((), ms) = timed(|| {
        for request in requests {
            registry.publish(request).expect("synthetic publish");
        }
    });
    (registry, ms * 1_000.0 / count.max(1) as f64)
}

/// The indexed/scan registry pair over an identical corpus, with each
/// one's mean publish µs: the index's cost to keep.
fn build_pair(n: usize) -> ((HyperRegistry, f64), (HyperRegistry, f64)) {
    (build(n, true), build(n, false))
}

/// Average per-query milliseconds over `reps` runs, plus the last outcome.
fn measure(registry: &HyperRegistry, query: &Query, reps: usize) -> (f64, QueryOutcome) {
    // Warmup: force content renders and the compiled-query cache.
    let _ = registry.query(query, &Freshness::any()).expect("warmup query");
    let (out, ms) = timed(|| {
        let mut last = None;
        for _ in 0..reps {
            last = Some(registry.query(query, &Freshness::any()).expect("bench query"));
        }
        last.unwrap()
    });
    (ms / reps as f64, out)
}

/// Run F17.
pub fn run(quick: bool) -> Report {
    let sizes: &[usize] = if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 50_000] };
    let mut report = Report::new(
        "f17",
        "Predicate pushdown: content-index lookups vs full scan by selectivity",
        &[
            "tuples",
            "query",
            "scan ms",
            "indexed ms",
            "speedup",
            "plan",
            "candidates",
            "scan publish µs",
            "indexed publish µs",
        ],
    );
    for &n in sizes {
        let ((indexed, indexed_publish_us), (scan, scan_publish_us)) = build_pair(n);
        let reps = if n <= 1_000 { 20 } else { 5 };
        for (label, src) in QUERIES {
            let query = Query::parse(src).expect("bench query parses");
            let (scan_ms, scan_out) = measure(&scan, &query, reps);
            let (indexed_ms, indexed_out) = measure(&indexed, &query, reps);
            assert_eq!(
                indexed_out.results.len(),
                scan_out.results.len(),
                "plans must agree on {label}"
            );
            let speedup = scan_ms / indexed_ms.max(1e-9);
            report.row(
                vec![
                    n.to_string(),
                    (*label).to_owned(),
                    fmt3(scan_ms),
                    fmt3(indexed_ms),
                    format!("{}x", fmt1(speedup)),
                    indexed_out.stats.plan.to_string(),
                    indexed_out.stats.candidates.to_string(),
                    fmt1(scan_publish_us),
                    fmt1(indexed_publish_us),
                ],
                &json!({
                    "tuples": n,
                    "query": label,
                    "source": src,
                    "scan_ms": scan_ms,
                    "indexed_ms": indexed_ms,
                    "speedup": speedup,
                    "plan": indexed_out.stats.plan.to_string(),
                    "candidates": indexed_out.stats.candidates,
                    "postings_consulted": indexed_out.stats.postings_consulted,
                    "results": indexed_out.results.len(),
                    "scan_publish_us": scan_publish_us,
                    "indexed_publish_us": indexed_publish_us,
                }),
            );
        }
    }
    report.note(format!(
        "corpus: synthetic Grid services plus {NEEDLE_COUNT} needle tuples; \
         scan = content_index disabled (seed behaviour), indexed = default planner; \
         selectivity labels are the approximate fraction of tuples matched; \
         publish µs = mean time to publish one tuple with its content into each registry"
    ));
    write_bench(&mut report, "BENCH_p2_index.json", quick);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for predicate pushdown: at 10k tuples a
    /// selective indexed query beats the full scan by ≥3×. The real gap is
    /// far larger (the index visits ~8 candidates instead of 10k), so the
    /// margin holds even in debug builds on loaded runners.
    #[test]
    fn indexed_needle_query_is_3x_faster_than_scan_at_10k() {
        let ((indexed, _), (scan, _)) = build_pair(10_000);
        let query = Query::parse(QUERIES[0].1).expect("needle query parses");
        let (scan_ms, scan_out) = measure(&scan, &query, 3);
        let (indexed_ms, indexed_out) = measure(&indexed, &query, 3);
        assert_eq!(indexed_out.results.len(), NEEDLE_COUNT);
        assert_eq!(scan_out.results.len(), NEEDLE_COUNT);
        assert!(
            indexed_out.stats.candidates < 100,
            "needle candidates should be tiny, got {}",
            indexed_out.stats.candidates
        );
        let speedup = scan_ms / indexed_ms.max(1e-9);
        assert!(
            speedup >= 3.0,
            "expected >=3x at 10k tuples, got {speedup:.2}x \
             (scan {scan_ms:.3}ms, indexed {indexed_ms:.3}ms)"
        );
    }
}
