//! `registry_mix`: one in-process hyper registry serving the T1 query mix,
//! with soft-state writes beside the reads.
//!
//! `xq`, `registry` and `xml` do nearly all the work and no wire is
//! involved. Because writes sit beside reads, a read-side index or memo
//! that slows publishing shows in `publish_*`.

use crate::ops::{t1_mix, Rng};
use crate::oracle::{self, Answer};
use crate::report::Report;
use crate::spans::{registry_query_span, Tracer};
use crate::{host, stats, Run};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wsda_registry::clock::ManualClock;
use wsda_registry::workload::{t1_queries, CorpusGenerator};
use wsda_registry::{Freshness, HyperRegistry, PublishRequest, RegistryConfig, RegistryError};
use wsda_xq::{Query, QueryClass};

/// Ops per second of `--seconds` (2-core x86-64 host): sizes the fixed op
/// stream so one run measures about the requested time.
const OPS_PER_SECOND: f64 = 150.0;

/// Ops between host-speed probes (about one a second).
const PROBE_EVERY: usize = 150;

/// Service tuples in the registry, besides T1's anchor tuple.
const CORPUS: usize = 2_000;

/// Lease of every tuple; the registry clock never advances, so nothing
/// expires during a run.
const TTL_MS: u64 = 3_600_000;

/// One in this many queries (plus the first of each kind) is checked
/// against the scan-only mirror.
const CHECK_ONE_IN: usize = 8;

/// One request of the op stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// Run T1 query `q`; `checked` answers are compared with the mirror.
    Query {
        /// Index into `t1_queries()`.
        q: usize,
        /// Compare this answer against the scan-only mirror.
        checked: bool,
    },
    /// Publish a new tuple.
    Publish(PublishRequest),
    /// Renew a live tuple's lease.
    Refresh(String),
    /// Withdraw the oldest tuple the stream published.
    Unpublish(String),
}

impl Op {
    /// A short description, for comparing streams.
    pub fn describe(&self) -> String {
        match self {
            Op::Query { q, checked } => format!("q{q}{}", if *checked { "*" } else { "" }),
            Op::Publish(r) => format!("publish {}", r.link),
            Op::Refresh(link) => format!("refresh {link}"),
            Op::Unpublish(link) => format!("unpublish {link}"),
        }
    }
}

/// The anchor tuple T1's link queries (S1, S3) look up.
fn anchor() -> PublishRequest {
    let content = wsda_xml::parse_fragment(
        r#"<service><interface type="Storage-1.1"/><owner>fnal.gov</owner><load>0.4</load><freeDiskGB>500</freeDiskGB></service>"#,
    )
    .expect("anchor content parses");
    PublishRequest::new("http://fnal.gov/storage/0", "service")
        .with_context("fnal.gov")
        .with_ttl_ms(TTL_MS)
        .with_content(content)
}

/// A registry holding the seed's corpus plus the anchor; returns the
/// corpus links.
pub fn build(seed: u64, corpus: usize, content_index: bool) -> (HyperRegistry, Vec<String>) {
    let config = RegistryConfig { content_index, ..RegistryConfig::default() };
    let registry = HyperRegistry::new(config, Arc::new(ManualClock::new()));
    let links = CorpusGenerator::new(seed).populate(&registry, corpus, TTL_MS);
    registry.publish(anchor()).expect("anchor publish");
    (registry, links)
}

/// Set-up as a user pays it: corpus generation, then one run of each
/// canonical query to warm lazily built state.
fn setup(seed: u64, corpus: usize, queries: &[Query]) -> (HyperRegistry, Vec<String>) {
    let (registry, links) = build(seed, corpus, true);
    for query in queries {
        let out = registry.query(query, &Freshness::any()).expect("warm-up query");
        black_box(oracle::serialize(&out.results));
    }
    (registry, links)
}

/// The seed's op stream: three in four ops are Zipf-drawn T1 queries, the
/// fourth is a soft-state write. Writes cycle publish, refresh, unpublish,
/// so the live set keeps its size.
pub fn op_stream(seed: u64, corpus_links: &[String], ops: usize) -> Vec<Op> {
    let is_write = |i: usize| i % 4 == 3;
    let queries = (0..ops).filter(|&i| !is_write(i)).count();
    let kinds = t1_queries().len();
    let mut mix = t1_mix(&mut Rng::new(seed, 1), queries).into_iter();
    let mut pick = Rng::new(seed, 2);
    let mut writer = CorpusGenerator::new(seed ^ 0x5752_4954_4553);
    let mut published = VecDeque::new();
    let mut seen = vec![false; kinds];
    let mut writes = 0;
    let mut stream = Vec::with_capacity(ops);
    for i in 0..ops {
        if !is_write(i) {
            let q = mix.next().expect("one draw per query op");
            let checked = !seen[q] || pick.below(CHECK_ONE_IN) == 0;
            seen[q] = true;
            stream.push(Op::Query { q, checked });
            continue;
        }
        stream.push(match writes % 3 {
            0 => {
                let (link, _, domain, content) = writer.next_service();
                // The writer's counter restarts at 0: suffix keeps its links
                // apart from the corpus's.
                let link = format!("{link}#w");
                published.push_back(link.clone());
                Op::Publish(
                    PublishRequest::new(link, "service")
                        .with_context(domain)
                        .with_ttl_ms(TTL_MS)
                        .with_content(content),
                )
            }
            1 => Op::Refresh(corpus_links[pick.below(corpus_links.len())].clone()),
            _ => Op::Unpublish(published.pop_front().expect("a publish precedes every unpublish")),
        });
        writes += 1;
    }
    stream
}

/// Span name of a write op's registry call.
fn write_span(op: &Op) -> &'static str {
    match op {
        Op::Publish(_) => "registry.publish",
        Op::Refresh(_) => "registry.refresh",
        Op::Unpublish(_) => "registry.unpublish",
        Op::Query { .. } => unreachable!("queries are not writes"),
    }
}

/// Apply a write op. A publish sends `prepared` when given: the timed loop
/// copies the request before its clock starts.
fn write(
    registry: &HyperRegistry,
    op: &Op,
    prepared: Option<PublishRequest>,
) -> Result<(), RegistryError> {
    match op {
        Op::Publish(request) => registry.publish(prepared.unwrap_or_else(|| request.clone())),
        Op::Refresh(link) => registry.refresh(link, None),
        Op::Unpublish(link) => registry.unpublish(link),
        Op::Query { .. } => unreachable!("queries are not writes"),
    }
}

/// Replay the write stream on a scan-only mirror and compare every checked
/// answer of `primary` with the mirror's at the same point of the stream;
/// then compare the two registries' final tuple sets and their answers to
/// every canonical query. Returns the number of mismatches.
pub fn verify(
    primary: &HyperRegistry,
    seed: u64,
    corpus: usize,
    ops: &[Op],
    answers: &[(usize, Answer)],
) -> u64 {
    let queries: Vec<Query> =
        t1_queries().iter().map(|(_, _, src)| Query::parse(src).expect("T1 parses")).collect();
    let answer = |registry: &HyperRegistry, query: &Query| {
        registry
            .query(query, &Freshness::any())
            .ok()
            .map(|out| Answer::of(&oracle::serialize(&out.results)))
    };
    let (mirror, _) = build(seed, corpus, false);
    let mut answers = answers.iter().peekable();
    let mut wrong = 0;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Query { q, .. } => {
                let Some(&&(_, expected)) = answers.peek().filter(|(at, _)| *at == i) else {
                    continue;
                };
                answers.next();
                wrong += u64::from(answer(&mirror, &queries[*q]) != Some(expected));
            }
            _ => wrong += u64::from(write(&mirror, op, None).is_err()),
        }
    }
    let everything = Query::parse("/tuple").expect("tuple query parses");
    for query in queries.iter().chain([&everything]) {
        let end = answer(primary, query);
        wrong += u64::from(end.is_none() || end != answer(&mirror, query));
    }
    wrong
}

/// `HyperRegistry::check_consistent` as a verdict instead of a panic.
fn consistent(registry: &HyperRegistry) -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| registry.check_consistent()))
        .is_ok();
    std::panic::set_hook(hook);
    ok
}

/// Run the workload.
pub fn run(run: &Run) -> Report {
    let corpus = if run.tiny { 200 } else { CORPUS };
    let mut report = Report::new("registry_mix", run.seed, run.trace);
    let t1 = t1_queries();
    let queries: Vec<Query> =
        t1.iter().map(|(_, _, src)| Query::parse(src).expect("T1 parses")).collect();
    let classes: Vec<QueryClass> = queries.iter().map(|q| q.profile().class).collect();

    let mut probe = host::SpeedProbe::default();
    let ((registry, links), mut setup_s) =
        crate::set_up(crate::SETUPS_BEFORE, &mut probe, || setup(run.seed, corpus, &queries));
    let ops = op_stream(run.seed, &links, run.ops(OPS_PER_SECOND));

    let mut tracer = Tracer::new();
    let mut query_ms = Vec::new();
    let mut timed_queries = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut timeline = stats::Timeline::default();
    let mut answers = Vec::new();
    let mut counts = crate::EvalCounts::default();
    let evals_before = registry.stats().queries.get();
    for (i, op) in ops.iter().enumerate() {
        if i % PROBE_EVERY == 0 {
            probe.sample();
        }
        // Every write is traced; queries alternate, for the overhead figure.
        tracer.active = run.trace;
        let id = i as u64;
        report.attempted += 1;
        let Op::Query { q, checked } = *op else {
            let prepared = if let Op::Publish(request) = op { Some(request.clone()) } else { None };
            let root = tracer.begin("op.write", id);
            let started = Instant::now();
            let outcome = tracer.record(write_span(op), id, || write(&registry, op, prepared));
            let elapsed = started.elapsed().as_secs_f64();
            tracer.end(root);
            timeline.push(false, elapsed);
            report.failed += u64::from(outcome.is_err());
            continue;
        };
        tracer.active = run.trace && query_ms.len() % 2 == 0;
        let root = tracer.begin("op.query", id);
        let started = Instant::now();
        let query = tracer.record("xq.parse", id, || Query::parse(t1[q].2));
        let outcome = match &query {
            Ok(query) => tracer.record(registry_query_span(classes[q]), id, || {
                registry.query(query, &Freshness::any())
            }),
            Err(_) => Err(RegistryError::Storage("query does not parse".to_owned())),
        };
        let items = outcome
            .as_ref()
            .ok()
            .map(|out| tracer.record("xml.serialize", id, || oracle::serialize(&out.results)));
        let elapsed = started.elapsed().as_secs_f64();
        tracer.end(root);
        timeline.push(true, elapsed);
        let ms = elapsed * 1e3;
        query_ms.push(ms);
        timed_queries.push((q, ms));
        if run.trace {
            if tracer.active { &mut traced_ms } else { &mut untraced_ms }.push(ms);
        }
        let (Ok(out), Some(items)) = (outcome, items) else {
            report.failed += 1;
            continue;
        };
        counts.add(&out, &items);
        if checked {
            answers.push((i, Answer::of(&items)));
        }
        black_box(items);
    }
    let peak_rss_mb = host::peak_rss_mb();
    let evals = registry.stats().queries.get() - evals_before;

    // Oracles, outside the timed window.
    let wrong = verify(&registry, run.seed, corpus, &ops, &answers);
    // The helper's verdict counts only where it accepts a registry that no
    // write has touched: at this commit it rejects every corpus tuple with
    // two values on one content path, written or not.
    let end_ok = consistent(&registry);
    let helper_ok = end_ok || consistent(&build(run.seed, corpus, true).0);
    report.failed += wrong + u64::from(!end_ok && helper_ok);
    report.note(format!(
        "oracle: {} sampled answers, then the final tuple set and all nine answers, vs a \
         scan-only mirror fed the same writes: {wrong} wrong; check_consistent {}",
        answers.len(),
        match (end_ok, helper_ok) {
            (true, _) => "ok",
            (false, true) => "FAILED",
            (false, false) => "also rejects a freshly built registry, not counted",
        }
    ));
    crate::set_up_again(&mut probe, || setup(run.seed, corpus, &queries), &mut setup_s);

    let n_queries = query_ms.len() as u64;
    crate::report_latency(&mut report, &timeline, "publish", &probe);
    crate::report_setup(&mut report, &setup_s, &probe);
    report.set("peak_rss_mb", peak_rss_mb);
    crate::note_per_query(&mut report, &timed_queries);

    report.counts.insert("registry.evals", evals);
    report.counts.insert("registry.candidates", counts.candidates);
    report.counts.insert("registry.results", counts.results);
    report.counts.insert("xml.result_bytes", counts.result_bytes);
    report.set("xq.parses_per_query", 1.0);
    report.set("registry.evals_per_query", evals as f64 / n_queries.max(1) as f64);
    counts.report(&mut report, n_queries);
    if run.trace {
        report.set("xq.compile_us", stats::median(&tracer.micros("xq.parse")));
        for (metric, span) in [
            ("registry.eval_us.simple", "registry.query.simple"),
            ("registry.eval_us.medium", "registry.query.medium"),
            ("registry.eval_us.complex", "registry.query.complex"),
            ("registry.publish_us", "registry.publish"),
            ("registry.refresh_us", "registry.refresh"),
            ("registry.unpublish_us", "registry.unpublish"),
            ("xml.serialize_us", "xml.serialize"),
        ] {
            report.set(metric, stats::median(&tracer.micros(span)));
        }
        crate::report_overhead(&mut report, &traced_ms, &untraced_ms);
    }
    if !run.tiny {
        crate::finish(&mut report, &tracer);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links() -> Vec<String> {
        (0..50).map(|i| format!("http://x/{i}")).collect()
    }

    #[test]
    fn op_stream_repeats_for_a_seed_and_differs_across_seeds() {
        let describe = |ops: Vec<Op>| ops.iter().map(Op::describe).collect::<Vec<_>>();
        let a = describe(op_stream(11, &links(), 400));
        assert_eq!(a, describe(op_stream(11, &links(), 400)));
        assert_ne!(a, describe(op_stream(12, &links(), 400)));
        // One op in four is a write; writes cycle publish/refresh/unpublish.
        let writes: Vec<&String> = a.iter().filter(|d| !d.starts_with('q')).collect();
        assert_eq!(writes.len(), 100);
        assert!(writes[0].starts_with("publish"));
        assert!(writes[1].starts_with("refresh"));
        assert!(writes[2].starts_with("unpublish"));
    }

    #[test]
    fn mirror_oracle_rejects_a_planted_wrong_answer() {
        let seed = 5;
        let (registry, links) = build(seed, 60, true);
        let ops = op_stream(seed, &links, 48);
        let queries: Vec<Query> =
            t1_queries().iter().map(|(_, _, src)| Query::parse(src).unwrap()).collect();
        let mut answers = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Query { q, .. } => {
                    let out = registry.query(&queries[*q], &Freshness::any()).unwrap();
                    answers.push((i, Answer::of(&oracle::serialize(&out.results))));
                }
                _ => write(&registry, op, None).unwrap(),
            }
        }
        assert_eq!(verify(&registry, seed, 60, &ops, &answers), 0, "true answers pass");
        let mut planted = answers.clone();
        planted[5].1.hash ^= 1;
        assert_eq!(verify(&registry, seed, 60, &ops, &planted), 1, "the planted answer is caught");
    }
}
