//! F16 — concurrent cache-hit query throughput: sharded reader-writer
//! locks vs. the seed's single global mutex.
//!
//! M reader threads run domain-scoped cache-hit queries while one paced
//! writer thread keeps publishing. Both designs see the *same* corpus,
//! query, scope and thread harness:
//!
//! * **global** replicates the seed registry's query loop — sweep, a full
//!   sorted link collection, a per-candidate domain retain-scan and the
//!   document renders, all under one exclusive `Mutex` — with evaluation
//!   outside the lock, exactly as the seed did it;
//! * **sharded** is the real [`HyperRegistry`] fast path: candidate
//!   selection through the context index and rendering under *shared*
//!   shard locks only.
//!
//! The throughput gap therefore measures the work the fast path removed
//! from the read side (per-query cost) plus the exclusive-lock serialism
//! it removed (contention). The cost gap shows up even on a single core;
//! on multi-core machines reader parallelism widens it further.
//!
//! Expected shape: sharded throughput dominates at every reader count and
//! the gap grows with corpus size; the acceptance bar is ≥3× at 8
//! readers. Emits `BENCH_p2_concurrency.json` for CI artifact upload.

use crate::harness::{f1 as fmt1, write_bench, Report};
use serde_json::json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use wsda_registry::clock::ManualClock;
use wsda_registry::{
    Clock, Freshness, HyperRegistry, PublishRequest, QueryScope, RegistryConfig, TupleStore,
};
use wsda_xml::Element;
use wsda_xq::{DynamicContext, NodeRef, Query};

/// The domain the readers query: a handful of tuples in a large corpus,
/// so the candidate set is small and the scan cost is what differs.
const NEEDLE_DOMAIN: &str = "needle.example";
const NEEDLE_COUNT: usize = 8;
/// Bulk tuples spread over this many other domains.
const BULK_DOMAINS: usize = 8;
const TTL_MS: u64 = 3_600_000;
const QUERY: &str = "//service/owner";

/// One corpus entry: `(link, context, content)`. The type is always
/// `service`.
type Entry = (String, String, Element);

fn corpus(n: usize) -> Vec<Entry> {
    let mut entries = Vec::with_capacity(n);
    for i in 0..NEEDLE_COUNT {
        entries.push((
            format!("http://{NEEDLE_DOMAIN}/svc/{i}"),
            NEEDLE_DOMAIN.to_owned(),
            service_content(NEEDLE_DOMAIN, i),
        ));
    }
    for i in NEEDLE_COUNT..n {
        let domain = format!("bulk{}.example", i % BULK_DOMAINS);
        entries.push((
            format!("http://{domain}/svc/{i}"),
            domain.clone(),
            service_content(&domain, i),
        ));
    }
    entries
}

fn service_content(owner: &str, i: usize) -> Element {
    Element::new("service")
        .with_child(Element::new("owner").with_text(owner))
        .with_child(Element::new("load").with_text(format!("0.{}", i % 10)))
}

/// A faithful miniature of the seed registry's concurrency design: one
/// `Mutex<TupleStore>` guarding everything, queries doing the full
/// sweep + sorted-link + domain retain-scan + render under that lock.
struct GlobalMutexRegistry {
    clock: Arc<ManualClock>,
    inner: Mutex<TupleStore>,
}

impl GlobalMutexRegistry {
    fn new() -> Self {
        GlobalMutexRegistry {
            clock: Arc::new(ManualClock::new()),
            // The seed design had no content index; disable it so the
            // baseline pays neither its maintenance nor its consistency
            // checks (content is installed via `get_mut`, as the seed did).
            inner: Mutex::new(TupleStore::without_content_index()),
        }
    }

    fn publish(&self, link: &str, context: &str, content: &Element) {
        let now = self.clock.now();
        let mut store = self.inner.lock().unwrap();
        store.sweep(now);
        store.upsert(link, "service", context, now, TTL_MS);
        if let Some(t) = store.get_mut(link) {
            t.set_content(content, now);
        }
    }

    /// The seed's scoped query loop: collect *all* links (sorted), retain
    /// by per-tuple domain match, render each survivor — all under the
    /// exclusive lock — then evaluate outside it.
    fn query_in_domain(&self, query: &Query, domain: &str) -> usize {
        let now = self.clock.now();
        let suffix = format!(".{domain}");
        let mut docs: Vec<(u64, Arc<Element>)> = {
            let mut store = self.inner.lock().unwrap();
            store.sweep(now);
            let mut links = store.links();
            links.retain(|l| {
                store.get(l).is_some_and(|t| {
                    !t.is_expired(now) && (t.context == domain || t.context.ends_with(&suffix))
                })
            });
            links.iter().filter_map(|l| store.get(l).map(|t| (t.ordinal, t.to_xml()))).collect()
        };
        docs.sort_by_key(|(ord, _)| *ord);
        let roots: Vec<NodeRef> =
            docs.iter().map(|(ord, doc)| NodeRef::document_node(doc.clone(), *ord)).collect();
        let mut ctx = DynamicContext::with_root_refs(roots);
        query.eval(&mut ctx).expect("baseline query evaluates").len()
    }
}

/// One measured cell: the two variants at a fixed reader count.
struct Cell {
    global_qps: f64,
    sharded_qps: f64,
    speedup: f64,
    global_writes: u64,
    sharded_writes: u64,
}

/// Both registries loaded with the same corpus, plus the shared query.
struct ConcurrencyBench {
    global: GlobalMutexRegistry,
    sharded: HyperRegistry,
    bulk: Vec<Entry>,
    query: Query,
    scope: QueryScope,
    widx: AtomicU64,
}

impl ConcurrencyBench {
    fn new(n: usize) -> Self {
        let entries = corpus(n);
        let global = GlobalMutexRegistry::new();
        let sharded = HyperRegistry::new(RegistryConfig::default(), Arc::new(ManualClock::new()));
        for (link, context, content) in &entries {
            global.publish(link, context, content);
            sharded
                .publish(
                    PublishRequest::new(link, "service")
                        .with_context(context)
                        .with_ttl_ms(TTL_MS)
                        .with_content(content.clone()),
                )
                .expect("corpus publish");
        }
        let bulk = entries.into_iter().skip(NEEDLE_COUNT).collect();
        ConcurrencyBench {
            global,
            sharded,
            bulk,
            query: Query::parse(QUERY).expect("bench query parses"),
            scope: QueryScope::in_domain(NEEDLE_DOMAIN),
            widx: AtomicU64::new(0),
        }
    }

    fn next_bulk(&self) -> &Entry {
        let i = self.widx.fetch_add(1, Ordering::Relaxed) as usize;
        &self.bulk[i % self.bulk.len()]
    }

    fn cell(&self, readers: usize, window: Duration) -> Cell {
        // Sanity: both variants agree before we start timing.
        let from_global = self.global.query_in_domain(&self.query, NEEDLE_DOMAIN);
        let from_sharded = self
            .sharded
            .query_scoped(&self.query, &Freshness::any(), &self.scope)
            .expect("sharded query")
            .results
            .len();
        assert_eq!(from_global, NEEDLE_COUNT);
        assert_eq!(from_sharded, NEEDLE_COUNT);

        let (global_qps, global_writes) = drive(
            readers,
            window,
            || self.global.query_in_domain(&self.query, NEEDLE_DOMAIN),
            || {
                let (link, context, content) = self.next_bulk();
                self.global.publish(link, context, content);
            },
        );
        let (sharded_qps, sharded_writes) = drive(
            readers,
            window,
            || {
                self.sharded
                    .query_scoped(&self.query, &Freshness::any(), &self.scope)
                    .expect("sharded query")
                    .results
                    .len()
            },
            || {
                let (link, context, content) = self.next_bulk();
                self.sharded
                    .publish(
                        PublishRequest::new(link, "service")
                            .with_context(context)
                            .with_ttl_ms(TTL_MS)
                            .with_content(content.clone()),
                    )
                    .expect("writer publish");
            },
        );
        Cell {
            global_qps,
            sharded_qps,
            speedup: sharded_qps / global_qps.max(1e-9),
            global_writes,
            sharded_writes,
        }
    }
}

/// Run `readers` query threads plus one paced writer thread for a fixed
/// wall-clock window; returns `(completed queries per second, writes)`.
fn drive(
    readers: usize,
    window: Duration,
    query: impl Fn() -> usize + Sync,
    write: impl Fn() + Sync,
) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    thread::scope(|s| {
        for _ in 0..readers {
            s.spawn(|| {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(query());
                    n += 1;
                }
                completed.fetch_add(n, Ordering::Relaxed);
            });
        }
        s.spawn(|| {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                write();
                n += 1;
                // Pace the writer: a steady publisher, not a saturating
                // flood — identical on both variants, so the comparison
                // stays fair.
                thread::sleep(Duration::from_micros(200));
            }
            writes.store(n, Ordering::Relaxed);
        });
        thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    (
        completed.load(Ordering::Relaxed) as f64 / window.as_secs_f64(),
        writes.load(Ordering::Relaxed),
    )
}

/// Run F16.
pub fn run(quick: bool) -> Report {
    let n = if quick { 1_024 } else { 4_096 };
    let window = Duration::from_millis(if quick { 150 } else { 400 });
    let mut report = Report::new(
        "f16",
        "Concurrent cache-hit query throughput: sharded RwLock vs global mutex",
        &["readers", "global q/s", "sharded q/s", "speedup"],
    );
    let bench = ConcurrencyBench::new(n);
    for readers in [1usize, 2, 4, 8] {
        let cell = bench.cell(readers, window);
        report.row(
            vec![
                readers.to_string(),
                fmt1(cell.global_qps),
                fmt1(cell.sharded_qps),
                format!("{:.1}x", cell.speedup),
            ],
            &json!({
                "readers": readers,
                "global_qps": cell.global_qps,
                "sharded_qps": cell.sharded_qps,
                "speedup": cell.speedup,
                "global_writes": cell.global_writes,
                "sharded_writes": cell.sharded_writes,
            }),
        );
    }
    report.note(format!(
        "corpus: {n} tuples ({NEEDLE_COUNT} in the queried domain), 1 paced writer thread, \
         {}ms windows per cell; global = seed design (one Mutex, scan+render under lock), \
         sharded = HyperRegistry fast path",
        window.as_millis()
    ));
    write_bench(&mut report, "BENCH_p2_concurrency.json", quick);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the fast path: at 8 reader threads the
    /// sharded design sustains at least 3× the cache-hit query throughput
    /// of the seed's global mutex, same harness. The margin comes from the
    /// per-query cost gap (context index vs. full scan under the lock), so
    /// it holds even on a single-core runner.
    #[test]
    fn sharded_sustains_3x_over_global_mutex_at_8_readers() {
        let bench = ConcurrencyBench::new(2_048);
        let cell = bench.cell(8, Duration::from_millis(150));
        assert!(
            cell.speedup >= 3.0,
            "expected >=3x at 8 readers, got {:.2}x (global {:.0} q/s, sharded {:.0} q/s)",
            cell.speedup,
            cell.global_qps,
            cell.sharded_qps
        );
    }
}
