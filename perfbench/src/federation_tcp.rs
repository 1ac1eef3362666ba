//! `federation_tcp`: the paper's end-to-end discovery query, injected at
//! one peer of a 16-peer PDP federation whose peers talk over loopback TCP.
//!
//! The only workload where `pdp`, `net` and `live` do work, with evaluation
//! split across 16 small registries. Every query carries the default
//! `result_staleness_ms = 0`, so it floods every peer and returns over real
//! sockets; the edge result cache is bypassed. Providers publish, refresh
//! and unpublish tuples at the peers between queries, so the registry's
//! write path is measured here too.

use crate::ops::{t1_mix, Rng};
use crate::oracle::{self, Answer};
use crate::report::Report;
use crate::spans::{registry_query_span, Tracer};
use crate::{host, stats, Run};
use bytes::BytesMut;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wsda_net::NodeId;
use wsda_pdp::framing::{write_frame, FrameReader};
use wsda_pdp::{wire, Message, TransactionId};
use wsda_registry::workload::{t1_queries, CorpusGenerator};
use wsda_registry::{Freshness, HyperRegistry, PublishRequest, RegistryError};
use wsda_updf::{LiveNetwork, RecoveryConfig, Topology};
use wsda_xq::Query;

/// Ops per second of `--seconds` (2-core x86-64 host): sizes the fixed op
/// stream so one run measures about the requested time.
const OPS_PER_SECOND: f64 = 100.0;

const PEERS: usize = 16;
const DEGREE: f64 = 3.0;
const TUPLES_PER_PEER: usize = 100;
/// Unbounded radius: every query floods every peer. A bounded radius (3
/// covers most peers of these topologies) loses peers under real
/// concurrency: a peer first reached over a longer path gets the query with
/// less radius left, prunes the shorter path's copy as a duplicate, and the
/// peers beyond it never see the query, while the answer still reads
/// `Complete`. On seed 1 that hit 6 of 848 queries; unbounded, the oracle
/// below is exact.
const RADIUS: Option<u32> = None;
const ENTRY: NodeId = NodeId(0);

/// Client timeout per query; an answer later than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Lease the peers publish with, and the stream's publishes and refreshes
/// ask for.
const LEASE_MS: u64 = u64::MAX / 8;

/// Quiet time before counters are read, so acks and peer gauges of the
/// last query have landed.
const SETTLE: Duration = Duration::from_millis(300);

/// Ops between host-speed probes (about one a second), and the quiet time
/// before each.
const PROBE_EVERY: usize = 100;
const PROBE_QUIET: Duration = Duration::from_millis(10);

/// Replays of each distinct query in the traced run; busy times are their
/// median.
const REPLAYS: usize = 5;

/// One soft-state write of a provider at a peer.
#[derive(Debug, Clone)]
pub enum Write {
    /// Publish a new tuple.
    Publish(PublishRequest),
    /// Renew a live tuple's lease.
    Refresh(String),
    /// Withdraw a tuple the stream published.
    Unpublish(String),
}

impl Write {
    /// Span name of the write's registry call.
    fn span(&self) -> &'static str {
        match self {
            Write::Publish(_) => "registry.publish",
            Write::Refresh(_) => "registry.refresh",
            Write::Unpublish(_) => "registry.unpublish",
        }
    }

    /// A copy of a publish's request, made before the write's clock starts.
    fn prepare(&self) -> Option<PublishRequest> {
        if let Write::Publish(request) = self {
            Some(request.clone())
        } else {
            None
        }
    }

    /// Apply the write; a publish sends the `prepared` request.
    fn apply(
        &self,
        registry: &HyperRegistry,
        prepared: Option<PublishRequest>,
    ) -> Result<(), RegistryError> {
        match self {
            Write::Publish(request) => {
                registry.publish(prepared.unwrap_or_else(|| request.clone()))
            }
            Write::Refresh(link) => registry.refresh(link, Some(LEASE_MS)),
            Write::Unpublish(link) => registry.unpublish(link),
        }
    }

    /// A short description, for comparing streams.
    fn describe(&self) -> String {
        match self {
            Write::Publish(r) => format!("publish {}", r.link),
            Write::Refresh(link) => format!("refresh {link}"),
            Write::Unpublish(link) => format!("unpublish {link}"),
        }
    }
}

/// One request of the op stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// Inject T1 query `q` at the entry peer.
    Query(usize),
    /// A provider's writes at peer `peer`, one after another.
    Write {
        /// Peer whose registry takes the writes.
        peer: u32,
        /// The writes, all of one kind.
        writes: Vec<Write>,
    },
}

impl Op {
    /// A short description, for comparing streams.
    pub fn describe(&self) -> String {
        match self {
            Op::Query(q) => format!("q{q}"),
            Op::Write { peer, writes } => {
                let each: Vec<String> = writes.iter().map(Write::describe).collect();
                format!("n{peer}: {}", each.join(", "))
            }
        }
    }
}

/// Writes a provider makes in one write op; each is timed.
const WRITE_BURST: usize = 4;

/// The seed's op stream: three in four ops are Zipf-drawn T1 queries, the
/// fourth is [`WRITE_BURST`] soft-state writes at one peer. Write ops cycle
/// publish (new tuples at a random peer), refresh (random leases at a
/// random peer) and unpublish (the tuples of the oldest publish), so the
/// live set keeps its size.
pub fn op_stream(seed: u64, peer_links: &[Vec<String>], ops: usize) -> Vec<Op> {
    let is_write = |i: usize| i % 4 == 3;
    let queries = (0..ops).filter(|&i| !is_write(i)).count();
    let mut mix = t1_mix(&mut Rng::new(seed, 1), queries).into_iter();
    let mut pick = Rng::new(seed, 2);
    let mut writer = CorpusGenerator::new(seed ^ 0x5752_4954_4553);
    let mut published: VecDeque<(u32, Vec<String>)> = VecDeque::new();
    let mut write_ops = 0;
    let mut stream = Vec::with_capacity(ops);
    for i in 0..ops {
        if !is_write(i) {
            stream.push(Op::Query(mix.next().expect("one draw per query op")));
            continue;
        }
        let peer = pick.below(peer_links.len()) as u32;
        stream.push(match write_ops % 3 {
            0 => {
                let requests: Vec<PublishRequest> = (0..WRITE_BURST)
                    .map(|_| {
                        let (link, _, domain, content) = writer.next_service();
                        // The writer's counter restarts at 0: the suffix
                        // keeps its links apart from the peers' own.
                        PublishRequest::new(format!("{link}#w"), "service")
                            .with_context(domain)
                            .with_ttl_ms(LEASE_MS)
                            .with_content(content)
                    })
                    .collect();
                published.push_back((peer, requests.iter().map(|r| r.link.clone()).collect()));
                Op::Write { peer, writes: requests.into_iter().map(Write::Publish).collect() }
            }
            1 => {
                let links = &peer_links[peer as usize];
                let writes = (0..WRITE_BURST)
                    .map(|_| Write::Refresh(links[pick.below(links.len())].clone()))
                    .collect();
                Op::Write { peer, writes }
            }
            _ => {
                let (peer, links) =
                    published.pop_front().expect("a publish precedes every unpublish");
                Op::Write { peer, writes: links.into_iter().map(Write::Unpublish).collect() }
            }
        });
        write_ops += 1;
    }
    stream
}

fn start(seed: u64, peers: usize, tuples: usize) -> LiveNetwork {
    let topology = Topology::random_connected(peers, DEGREE, seed);
    LiveNetwork::start_tcp(topology, tuples, seed, RecoveryConfig::live_default())
}

/// Set-up as a user pays it: corpus generation, network start, and one run
/// of each canonical query to open the TCP connections and fill every
/// peer's query cache.
fn setup(seed: u64, peers: usize, tuples: usize) -> LiveNetwork {
    let mut net = start(seed, peers, tuples);
    for (_, _, src) in t1_queries() {
        black_box(net.query_full(ENTRY, src, RADIUS, TIMEOUT));
    }
    net
}

/// Counter families read before and after the timed window.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    frames: u64,
    bytes: u64,
    connects: u64,
    reconnects: u64,
    drops: u64,
    parses: u64,
    evals: u64,
    sheds: u64,
    cache_hits: u64,
}

impl Counters {
    fn read(net: &LiveNetwork) -> Counters {
        let m = net.metrics();
        Counters {
            frames: m.family_sum("tcp_frames_out_total"),
            bytes: m.family_sum("tcp_write_bytes_total"),
            connects: m.family_sum("tcp_connects_total"),
            reconnects: m.family_sum("tcp_reconnects_total"),
            drops: m.family_sum("inbox_dropped_total") + m.family_sum("tcp_dropped_total"),
            parses: m.family_sum("updf_query_cache_parses"),
            evals: m.family_sum("registry_queries_total"),
            sheds: m.family_sum("updf_breaker_sheds_total"),
            cache_hits: m.family_sum("updf_result_cache_hits_total"),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            frames: self.frames - before.frames,
            bytes: self.bytes - before.bytes,
            connects: self.connects - before.connects,
            reconnects: self.reconnects - before.reconnects,
            drops: self.drops - before.drops,
            parses: self.parses - before.parses,
            evals: self.evals - before.evals,
            sheds: self.sheds - before.sheds,
            cache_hits: self.cache_hits - before.cache_hits,
        }
    }
}

/// The peers a `RADIUS` query from the entry reaches.
fn reached(net: &LiveNetwork) -> Vec<NodeId> {
    let distances = net.topology().distances_from(ENTRY);
    let radius = RADIUS.unwrap_or(u32::MAX - 1);
    (0..distances.len() as u32).filter(|&i| distances[i as usize] <= radius).map(NodeId).collect()
}

/// Ground truth per T1 query: the union of local evaluations over the
/// reached peers, kept per peer. A refresh changes the peer's rendered
/// lease times, so it drops that peer's answers.
struct Truth {
    /// `[peer][query]` local answers, computed on first use.
    local: Vec<Vec<Option<Answer>>>,
    /// Local evaluations made, to keep them out of the registry counters.
    evals: u64,
}

impl Truth {
    fn new(peers: usize, queries: usize) -> Truth {
        Truth { local: vec![vec![None; queries]; peers], evals: 0 }
    }

    fn answer(&mut self, net: &LiveNetwork, reached: &[NodeId], q: usize, query: &Query) -> Answer {
        reached.iter().fold(Answer::default(), |union, &node| {
            let local = self.local[node.0 as usize][q].get_or_insert_with(|| {
                self.evals += 1;
                let out = net.registry(node).query(query, &Freshness::any()).expect("local eval");
                Answer::of(&oracle::serialize(&out.results))
            });
            union.union(*local)
        })
    }

    fn invalidate(&mut self, peer: u32) {
        self.local[peer as usize].fill(None);
    }
}

/// What one distinct query costs the layers at every reached peer,
/// replayed outside the timed window.
#[derive(Debug, Default, Clone, Copy)]
struct Replay {
    /// Median over replays of Σ per-peer eval + serialize + frame + decode,
    /// in ms.
    busy_ms: f64,
    /// Evaluations at every reached peer, once.
    counts: crate::EvalCounts,
    /// `Results` messages that did not survive encode, frame and decode.
    codec_failures: u64,
}

/// Replay query `q` at every reached peer: parse, evaluate, serialize, then
/// encode, frame and decode the `Results` message the peer would send.
fn replay(
    net: &LiveNetwork,
    reached: &[NodeId],
    q: usize,
    src: &str,
    tracer: &mut Tracer,
    frame_bytes: &mut Vec<f64>,
) -> Replay {
    let span_id = u64::MAX - q as u64;
    let mut busy = Vec::with_capacity(REPLAYS);
    let mut out = Replay::default();
    for rep in 0..REPLAYS {
        let mut busy_s = 0.0;
        for &node in reached {
            let query =
                tracer.record("xq.parse", span_id, || Query::parse(src)).expect("T1 parses");
            let class = query.profile().class;
            let started = Instant::now();
            let outcome = tracer
                .record(registry_query_span(class), span_id, || {
                    net.registry(node).query(&query, &Freshness::any())
                })
                .expect("local eval");
            let items =
                tracer.record("xml.serialize", span_id, || oracle::serialize(&outcome.results));
            busy_s += started.elapsed().as_secs_f64();
            if rep == 0 {
                out.counts.add(&outcome, &items);
            }
            let message = Message::Results {
                transaction: TransactionId::derive(q as u64, rep as u64),
                seq: 0,
                items,
                last: true,
                origin: format!("n{}", node.0),
                cached: false,
            };
            black_box(tracer.record("pdp.encode", span_id, || wire::encode(&message)));
            let started = Instant::now();
            let mut buf = BytesMut::new();
            tracer
                .record("pdp.frame", span_id, || write_frame(&mut buf, &message))
                .expect("results frame within MAX_FRAME");
            let decoded = tracer.record("pdp.decode", span_id, || {
                let mut reader = FrameReader::new();
                reader.extend(&buf);
                reader.next_message()
            });
            busy_s += started.elapsed().as_secs_f64();
            out.codec_failures += u64::from(decoded.ok().flatten().as_ref() != Some(&message));
            frame_bytes.push(buf.len() as f64);
        }
        busy.push(busy_s * 1e3);
    }
    out.busy_ms = stats::median(&busy);
    out
}

/// Run the workload.
pub fn run(run: &Run) -> Report {
    let (peers, tuples) = if run.tiny { (4, 10) } else { (PEERS, TUPLES_PER_PEER) };
    let mut report = Report::new("federation_tcp", run.seed, run.trace);
    let t1 = t1_queries();
    let queries: Vec<Query> =
        t1.iter().map(|(_, _, src)| Query::parse(src).expect("T1 parses")).collect();

    let mut probe = host::SpeedProbe::default();
    let (mut net, mut setup_s) =
        crate::set_up(crate::SETUPS_BEFORE, &mut probe, || setup(run.seed, peers, tuples));
    let reached = reached(&net);
    let mut truth = Truth::new(peers, queries.len());
    let link_query = Query::parse("/tuple/@link").expect("link query parses");
    let peer_links: Vec<Vec<String>> = (0..peers as u32)
        .map(|i| {
            let out = net.registry(NodeId(i)).query(&link_query, &Freshness::any());
            out.expect("link query").results.iter().map(|l| l.string_value()).collect()
        })
        .collect();
    let ops = op_stream(run.seed, &peer_links, run.ops(OPS_PER_SECOND));

    let mut tracer = Tracer::new();
    let mut query_ms = Vec::new();
    let mut timed_queries = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut timeline = stats::Timeline::default();
    let (mut partial, mut wrong) = (0u64, 0u64);
    std::thread::sleep(SETTLE);
    let before = Counters::read(&net);
    for (i, op) in ops.iter().enumerate() {
        if i % PROBE_EVERY == 0 {
            // Let the last query's trailing frames land, so the probe runs
            // on an idle host.
            std::thread::sleep(PROBE_QUIET);
            probe.sample();
        }
        // Every write is traced; queries alternate, for the overhead figure.
        tracer.active = run.trace;
        let id = i as u64;
        let q = match op {
            Op::Query(q) => *q,
            Op::Write { peer, writes } => {
                let registry = net.registry(NodeId(*peer));
                for write in writes {
                    report.attempted += 1;
                    let prepared = write.prepare();
                    let started = Instant::now();
                    let outcome =
                        tracer.record(write.span(), id, || write.apply(registry, prepared));
                    let elapsed = started.elapsed().as_secs_f64();
                    timeline.push(false, elapsed);
                    report.failed += u64::from(outcome.is_err());
                }
                truth.invalidate(*peer);
                continue;
            }
        };
        report.attempted += 1;
        tracer.active = run.trace && query_ms.len() % 2 == 0;
        let root = tracer.begin("live.query_full", id);
        let started = Instant::now();
        let answer = net.query_full(ENTRY, t1[q].2, RADIUS, TIMEOUT);
        let elapsed = started.elapsed().as_secs_f64();
        tracer.end(root);
        timeline.push(true, elapsed);
        let ms = elapsed * 1e3;
        query_ms.push(ms);
        timed_queries.push((q, ms));
        if run.trace {
            if tracer.active { &mut traced_ms } else { &mut untraced_ms }.push(ms);
        }
        let complete = answer.completeness.is_complete();
        let expected = truth.answer(&net, &reached, q, &queries[q]);
        if !oracle::federation_answer_ok(complete, &answer.results, &expected) {
            report.failed += 1;
            if complete {
                wrong += 1;
            } else {
                partial += 1;
            }
            if report.failed <= 3 {
                report.note(format!(
                    "failed answer to {}: {} items, {} expected, {:?}",
                    t1[q].0,
                    answer.results.len(),
                    expected.items,
                    answer.completeness
                ));
            }
        }
    }
    std::thread::sleep(SETTLE);
    let mut delta = Counters::read(&net).since(before);
    delta.evals -= truth.evals;
    let peak_rss_mb = host::peak_rss_mb();
    // A shed forward or a cache-served answer means the workload did not
    // measure what it claims: every query floods every reached peer.
    report.failed += delta.sheds + delta.cache_hits;
    report.note(format!(
        "oracle: each answer Complete and equal to the union of local evaluations over the \
         {} peers the flood reaches; {partial} partial or timed out, {wrong} wrong; \
         breaker sheds {}, result-cache hits {}",
        reached.len(),
        delta.sheds,
        delta.cache_hits
    ));

    let n_queries = query_ms.len() as u64;
    crate::report_latency(
        &mut report,
        &timeline,
        "publish (publish, refresh, unpublish at a peer)",
        &probe,
    );
    report.set("peak_rss_mb", peak_rss_mb);
    crate::note_per_query(&mut report, &timed_queries);

    for (name, value) in [
        ("net.frames", delta.frames),
        ("net.bytes", delta.bytes),
        ("net.connects", delta.connects),
        ("net.reconnects", delta.reconnects),
        ("net.drops", delta.drops),
        ("xq.parses", delta.parses),
        ("registry.evals", delta.evals),
        ("live.breaker_sheds", delta.sheds),
        ("live.result_cache_hits", delta.cache_hits),
    ] {
        report.counts.insert(name, value);
    }
    let per_query = |v: u64| v as f64 / n_queries.max(1) as f64;
    report.set("xq.parses_per_query", per_query(delta.parses));
    report.set("registry.evals_per_query", per_query(delta.evals));
    report.set("net.frames_per_query", per_query(delta.frames));
    report.set("net.bytes_per_query", per_query(delta.bytes));
    report.set("net.connects_per_query", per_query(delta.connects));
    report.set("net.drops", delta.drops as f64);
    report.set("net.reconnects", delta.reconnects as f64);
    report.set("live.breaker_sheds", delta.sheds as f64);
    report.set("live.result_cache_hits", delta.cache_hits as f64);

    if run.trace {
        let mut frame_bytes = Vec::new();
        tracer.active = true;
        let replays: Vec<Replay> = t1
            .iter()
            .enumerate()
            .map(|(q, (_, _, src))| replay(&net, &reached, q, src, &mut tracer, &mut frame_bytes))
            .collect();
        // The replayed work of every timed query, in the timed mix.
        let mut counts = crate::EvalCounts::default();
        for &(q, _) in &timed_queries {
            counts.merge(&replays[q].counts);
        }
        counts.report(&mut report, n_queries);
        report.failed += replays.iter().map(|r| r.codec_failures).sum::<u64>();
        let nproc = host::nproc() as f64;
        let unattributed: Vec<f64> =
            timed_queries.iter().map(|&(q, ms)| ms - replays[q].busy_ms / nproc).collect();
        report.set("live.unattributed_ms", stats::median(&unattributed));
        report.set("pdp.frame_bytes", stats::mean(&frame_bytes));
        for (metric, span) in [
            ("xq.compile_us", "xq.parse"),
            ("registry.eval_us.simple", "registry.query.simple"),
            ("registry.eval_us.medium", "registry.query.medium"),
            ("registry.eval_us.complex", "registry.query.complex"),
            ("registry.publish_us", "registry.publish"),
            ("registry.refresh_us", "registry.refresh"),
            ("registry.unpublish_us", "registry.unpublish"),
            ("xml.serialize_us", "xml.serialize"),
            ("pdp.encode_us", "pdp.encode"),
            ("pdp.frame_us", "pdp.frame"),
            ("pdp.decode_us", "pdp.decode"),
        ] {
            report.set(metric, stats::median(&tracer.micros(span)));
        }
        crate::report_overhead(&mut report, &traced_ms, &untraced_ms);
        report.note(format!(
            "live.unattributed_ms: median over queries of latency minus replayed per-peer \
             eval+serialize+frame+decode / nproc ({REPLAYS} replays per distinct query at {} peers)",
            reached.len()
        ));
    }
    drop(net);
    crate::set_up_again(&mut probe, || setup(run.seed, peers, tuples), &mut setup_s);
    crate::report_setup(&mut report, &setup_s, &probe);
    if !run.tiny {
        crate::finish(&mut report, &tracer);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_repeats_for_a_seed_and_differs_across_seeds() {
        let links: Vec<Vec<String>> =
            (0..4).map(|p| (0..5).map(|i| format!("http://p{p}/{i}")).collect()).collect();
        let describe = |ops: Vec<Op>| ops.iter().map(Op::describe).collect::<Vec<_>>();
        let a = describe(op_stream(3, &links, 240));
        assert_eq!(a, describe(op_stream(3, &links, 240)));
        assert_ne!(a, describe(op_stream(4, &links, 240)));
        // One op in four is a write; write ops cycle publish, refresh,
        // unpublish, and each unpublish withdraws an earlier publish's
        // tuples at the same peer.
        let writes: Vec<&String> = a.iter().filter(|d| !d.starts_with('q')).collect();
        assert_eq!(writes.len(), 60);
        for triple in writes.chunks(3) {
            assert!(triple[0].contains(": publish "));
            assert!(triple[1].contains(": refresh "));
            assert_eq!(triple[2].replace("unpublish", "publish"), *triple[0]);
        }
    }
}
