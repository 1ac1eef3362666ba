//! Hop-level query tracing.
//!
//! Every node participating in a P2P query appends [`TraceEvent`]s to a
//! **bounded per-node ring buffer** ([`TraceBuffer`]): receive, local
//! evaluation, forward, results, ack, retry, abandon. Events carry the
//! transaction id and a timestamp in milliseconds — *virtual* time on the
//! simulator, *real* time on the live overlay; the trace machinery never
//! cares which.
//!
//! After a run, the originator gathers the buffers and
//! [`QueryTrace::assemble`]s the full query tree as a **span forest**: one
//! [`Span`] per node, linked parent→child by the recorded forward/receive
//! edges, with the recv→eval→results phase timestamps the thesis's figures
//! are made of. [`QueryTrace::to_json`] dumps the forest for artifacts;
//! [`QueryTrace::hop_phases`] aggregates per-hop timing breakdowns for the
//! bench harness.

use serde_json::{Number, Value};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

/// What happened at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// A query arrived (peer = parent; `None` when injected at the origin).
    Recv,
    /// Local evaluation finished (items = result items produced).
    Eval,
    /// The query was answered from the node's result cache instead of
    /// being evaluated and forwarded (items = cached items served).
    CacheServed,
    /// The query was forwarded (peer = target neighbor).
    Forward,
    /// A `Results` frame was sent toward the parent/originator (peer =
    /// receiver, items = payload size).
    Results,
    /// Result items were delivered at the originator (items = payload).
    Deliver,
    /// An ack for a sent `Results` frame arrived (peer = acker).
    Ack,
    /// A retransmission or watchdog re-query was sent (peer = target).
    Retry,
    /// A silent subtree was abandoned (peer = the given-up child).
    Abandon,
    /// The transaction was closed at this node.
    Close,
    /// A node joined (or rejoined) the overlay. Lifecycle events carry
    /// txn 0 — they belong to the overlay, not to any query.
    Join,
    /// A node left the overlay (graceful leave or observed death).
    Leave,
}

/// One event in a node's trace ring.
///
/// Node names are shared: a driver hands every event the same `Arc<str>`
/// for a node, so recording into a full ring allocates nothing.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// The transaction this event belongs to.
    pub txn: u128,
    /// The node that recorded the event.
    pub node: Arc<str>,
    /// The counterpart node, where one exists (parent for `Recv`, target
    /// for `Forward`/`Results`/`Retry`, child for `Abandon`).
    pub peer: Option<Arc<str>>,
    /// Event kind.
    pub kind: TraceKind,
    /// Milliseconds — virtual (simulator) or real (live overlay).
    pub at_ms: u64,
    /// Payload size where meaningful (result items), else 0.
    pub items: u64,
}

impl TraceEvent {
    /// A new event with no peer and no payload.
    pub fn new(txn: u128, node: impl Into<Arc<str>>, kind: TraceKind, at_ms: u64) -> TraceEvent {
        TraceEvent { txn, node: node.into(), peer: None, kind, at_ms, items: 0 }
    }

    /// Attach the counterpart node.
    pub fn with_peer(mut self, peer: impl Into<Arc<str>>) -> TraceEvent {
        self.peer = Some(peer.into());
        self
    }

    /// Attach a payload size.
    pub fn with_items(mut self, items: u64) -> TraceEvent {
        self.items = items;
        self
    }
}

/// A bounded per-node ring of trace events. When full, the **oldest**
/// event is evicted (recent history wins) and the eviction is counted —
/// tracing never grows without bound and never lies about truncation.
#[derive(Debug)]
pub struct TraceBuffer {
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceBuffer {
    /// A ring holding at most `cap` events (`cap == 0` disables recording).
    pub fn new(cap: usize) -> TraceBuffer {
        TraceBuffer { cap, events: VecDeque::new(), dropped: 0 }
    }

    /// Append an event, evicting the oldest when full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted (or suppressed by `cap == 0`) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clone out the retained events for one transaction.
    pub fn for_txn(&self, txn: u128) -> Vec<TraceEvent> {
        self.events.iter().filter(|e| e.txn == txn).cloned().collect()
    }

    /// Iterate over all retained events.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }
}

/// A thread-shared trace ring (live overlay: the peer thread records, the
/// network handle assembles).
pub type SharedTraceBuffer = Arc<Mutex<TraceBuffer>>;

/// A new shared ring of capacity `cap`.
pub fn shared_buffer(cap: usize) -> SharedTraceBuffer {
    Arc::new(Mutex::new(TraceBuffer::new(cap)))
}

/// One node's slice of a query execution: the recv→eval→results phases
/// plus its position in the query tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// The node.
    pub node: String,
    /// Parent node in the query tree (`None` for the root/originator).
    pub parent: Option<String>,
    /// Hop depth from the root (root = 0), recomputed from the edges.
    pub hop: u32,
    /// When the query arrived.
    pub recv_ms: Option<u64>,
    /// When local evaluation finished.
    pub eval_ms: Option<u64>,
    /// First `Results`/`Deliver` at this node.
    pub first_results_ms: Option<u64>,
    /// Last `Results`/`Deliver` at this node.
    pub last_results_ms: Option<u64>,
    /// Result items produced by local evaluation here.
    pub items_evaluated: u64,
    /// Result items sent/delivered from this node.
    pub items_sent: u64,
    /// Neighbors this node forwarded to.
    pub forwards: Vec<String>,
    /// Retransmissions + watchdog re-queries sent from here.
    pub retries: u64,
    /// Children this node abandoned.
    pub abandoned: u64,
    /// Acks received here.
    pub acks: u64,
    /// Arrivals this node answered from its result cache.
    pub cache_served: u64,
}

impl Span {
    fn new(node: String) -> Span {
        Span {
            node,
            parent: None,
            hop: 0,
            recv_ms: None,
            eval_ms: None,
            first_results_ms: None,
            last_results_ms: None,
            items_evaluated: 0,
            items_sent: 0,
            forwards: Vec::new(),
            retries: 0,
            abandoned: 0,
            acks: 0,
            cache_served: 0,
        }
    }

    /// A span is complete when the node received the query, evaluated it,
    /// and answered (sent results, or delivered them if it is the root).
    pub fn is_complete(&self) -> bool {
        self.recv_ms.is_some() && self.eval_ms.is_some() && self.first_results_ms.is_some()
    }

    fn to_json(&self) -> Value {
        fn opt(v: Option<u64>) -> Value {
            match v {
                Some(v) => Value::Number(Number::Int(v as i64)),
                None => Value::Null,
            }
        }
        let mut o = BTreeMap::new();
        o.insert("node".to_owned(), Value::String(self.node.clone()));
        o.insert(
            "parent".to_owned(),
            self.parent.clone().map(Value::String).unwrap_or(Value::Null),
        );
        o.insert("hop".to_owned(), Value::Number(Number::Int(self.hop as i64)));
        o.insert("recv_ms".to_owned(), opt(self.recv_ms));
        o.insert("eval_ms".to_owned(), opt(self.eval_ms));
        o.insert("first_results_ms".to_owned(), opt(self.first_results_ms));
        o.insert("last_results_ms".to_owned(), opt(self.last_results_ms));
        o.insert(
            "items_evaluated".to_owned(),
            Value::Number(Number::Int(self.items_evaluated as i64)),
        );
        o.insert("items_sent".to_owned(), Value::Number(Number::Int(self.items_sent as i64)));
        o.insert(
            "forwards".to_owned(),
            Value::Array(self.forwards.iter().cloned().map(Value::String).collect()),
        );
        o.insert("retries".to_owned(), Value::Number(Number::Int(self.retries as i64)));
        o.insert("abandoned".to_owned(), Value::Number(Number::Int(self.abandoned as i64)));
        o.insert("acks".to_owned(), Value::Number(Number::Int(self.acks as i64)));
        o.insert("cache_served".to_owned(), Value::Number(Number::Int(self.cache_served as i64)));
        Value::Object(o)
    }
}

/// Per-hop aggregate phase timings (the bench harness's breakdown rows).
#[derive(Debug, Clone)]
pub struct HopPhase {
    /// Hop depth.
    pub hop: u32,
    /// Nodes at this depth.
    pub nodes: usize,
    /// Earliest query arrival at this depth.
    pub first_recv_ms: Option<u64>,
    /// Latest results activity at this depth.
    pub last_results_ms: Option<u64>,
    /// Mean recv→eval latency across the depth's nodes.
    pub mean_eval_latency_ms: f64,
    /// Mean recv→first-results latency across the depth's nodes.
    pub mean_results_latency_ms: f64,
}

/// The assembled query tree: a span forest for one transaction.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The transaction.
    pub txn: u128,
    /// Spans, sorted by (hop, node).
    pub spans: Vec<Span>,
    /// Events that fed the assembly.
    pub events: usize,
    /// Ring evictions observed across the gathered buffers (0 = the trace
    /// is known complete).
    pub dropped: u64,
}

impl QueryTrace {
    /// Reconstruct the query tree for `txn` from node-local events.
    ///
    /// Parent links come from each node's first `Recv` peer; hop depths are
    /// recomputed by walking the parent chain (cycle-safe), so they are
    /// authoritative even when recorders could not know their depth.
    pub fn assemble(txn: u128, events: impl IntoIterator<Item = TraceEvent>) -> QueryTrace {
        let mut spans: BTreeMap<String, Span> = BTreeMap::new();
        let mut first_recv: BTreeMap<String, u64> = BTreeMap::new();
        let mut count = 0usize;
        for ev in events {
            if ev.txn != txn {
                continue;
            }
            count += 1;
            let node = ev.node.to_string();
            let span = spans.entry(node.clone()).or_insert_with(|| Span::new(node.clone()));
            match ev.kind {
                TraceKind::Recv => {
                    let earliest = first_recv.get(&node).map(|&t| ev.at_ms < t).unwrap_or(true);
                    if earliest {
                        first_recv.insert(node, ev.at_ms);
                        span.parent = ev.peer.as_deref().map(str::to_owned);
                    }
                    span.recv_ms = Some(span.recv_ms.map_or(ev.at_ms, |t: u64| t.min(ev.at_ms)));
                }
                TraceKind::Eval => {
                    span.eval_ms = Some(span.eval_ms.map_or(ev.at_ms, |t: u64| t.min(ev.at_ms)));
                    span.items_evaluated += ev.items;
                }
                // A cache-served answer *is* this node's evaluation step
                // (zero-cost), so it completes the span the same way.
                TraceKind::CacheServed => {
                    span.eval_ms = Some(span.eval_ms.map_or(ev.at_ms, |t: u64| t.min(ev.at_ms)));
                    span.cache_served += 1;
                }
                TraceKind::Forward => {
                    if let Some(p) = ev.peer.as_deref() {
                        if !span.forwards.iter().any(|f| f == p) {
                            span.forwards.push(p.to_owned());
                        }
                    }
                }
                TraceKind::Results | TraceKind::Deliver => {
                    span.first_results_ms =
                        Some(span.first_results_ms.map_or(ev.at_ms, |t: u64| t.min(ev.at_ms)));
                    span.last_results_ms =
                        Some(span.last_results_ms.map_or(ev.at_ms, |t: u64| t.max(ev.at_ms)));
                    span.items_sent += ev.items;
                }
                TraceKind::Ack => span.acks += 1,
                TraceKind::Retry => span.retries += 1,
                TraceKind::Abandon => span.abandoned += 1,
                // Lifecycle events (join/leave, recorded under txn 0) shape
                // the overlay, not any one query tree.
                TraceKind::Close | TraceKind::Join | TraceKind::Leave => {}
            }
        }
        // Recompute hop depths by walking parent chains (cycle-safe).
        let parents: BTreeMap<String, Option<String>> =
            spans.iter().map(|(n, s)| (n.clone(), s.parent.clone())).collect();
        for span in spans.values_mut() {
            let mut depth = 0u32;
            let mut cur = span.parent.clone();
            let mut seen: HashSet<String> = HashSet::new();
            seen.insert(span.node.clone());
            while let Some(p) = cur {
                if !seen.insert(p.clone()) {
                    break; // cycle guard
                }
                depth += 1;
                cur = parents.get(&p).cloned().flatten();
            }
            span.hop = depth;
        }
        let mut spans: Vec<Span> = spans.into_values().collect();
        spans.sort_by(|a, b| (a.hop, &a.node).cmp(&(b.hop, &b.node)));
        QueryTrace { txn, spans, events: count, dropped: 0 }
    }

    /// The span for `node`.
    pub fn span(&self, node: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.node == node)
    }

    /// Root spans (no parent).
    pub fn roots(&self) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent.is_none()).collect()
    }

    /// Spans with the full recv→eval→results phase set.
    pub fn complete_spans(&self) -> usize {
        self.spans.iter().filter(|s| s.is_complete()).count()
    }

    /// True when every span is complete and no ring evicted events.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0 && self.spans.iter().all(Span::is_complete)
    }

    /// Per-hop aggregate phase timings.
    pub fn hop_phases(&self) -> Vec<HopPhase> {
        let mut by_hop: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            by_hop.entry(s.hop).or_default().push(s);
        }
        by_hop
            .into_iter()
            .map(|(hop, spans)| {
                let mut eval_lat = Vec::new();
                let mut res_lat = Vec::new();
                let mut first_recv = None;
                let mut last_results = None;
                for s in &spans {
                    if let (Some(r), Some(e)) = (s.recv_ms, s.eval_ms) {
                        eval_lat.push(e.saturating_sub(r) as f64);
                    }
                    if let (Some(r), Some(fr)) = (s.recv_ms, s.first_results_ms) {
                        res_lat.push(fr.saturating_sub(r) as f64);
                    }
                    first_recv = match (first_recv, s.recv_ms) {
                        (None, v) => v,
                        (Some(a), Some(b)) => Some(std::cmp::min::<u64>(a, b)),
                        (a, None) => a,
                    };
                    last_results = match (last_results, s.last_results_ms) {
                        (None, v) => v,
                        (Some(a), Some(b)) => Some(std::cmp::max::<u64>(a, b)),
                        (a, None) => a,
                    };
                }
                let mean = |v: &[f64]| {
                    if v.is_empty() {
                        0.0
                    } else {
                        v.iter().sum::<f64>() / v.len() as f64
                    }
                };
                HopPhase {
                    hop,
                    nodes: spans.len(),
                    first_recv_ms: first_recv,
                    last_results_ms: last_results,
                    mean_eval_latency_ms: mean(&eval_lat),
                    mean_results_latency_ms: mean(&res_lat),
                }
            })
            .collect()
    }

    /// JSON dump of the span forest (plus assembly bookkeeping).
    pub fn to_json(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("txn".to_owned(), Value::String(format!("{:032x}", self.txn)));
        o.insert("events".to_owned(), Value::Number(Number::Int(self.events as i64)));
        o.insert("dropped".to_owned(), Value::Number(Number::Int(self.dropped as i64)));
        o.insert("spans".to_owned(), Value::Array(self.spans.iter().map(Span::to_json).collect()));
        Value::Object(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: &str, kind: TraceKind, at: u64) -> TraceEvent {
        TraceEvent::new(7, node, kind, at)
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let mut b = TraceBuffer::new(3);
        for i in 0..5 {
            b.record(ev("n0", TraceKind::Recv, i));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 2);
        let kept: Vec<u64> = b.iter().map(|e| e.at_ms).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest evicted first");
        let mut off = TraceBuffer::new(0);
        off.record(ev("n0", TraceKind::Recv, 9));
        assert!(off.is_empty());
        assert_eq!(off.dropped(), 1);
    }

    #[test]
    fn assemble_builds_the_query_tree() {
        // n0 -> n1 -> n2, plus n0 -> n3.
        let events = vec![
            ev("n0", TraceKind::Recv, 0),
            ev("n0", TraceKind::Forward, 1).with_peer("n1"),
            ev("n0", TraceKind::Forward, 1).with_peer("n3"),
            ev("n0", TraceKind::Eval, 5).with_items(2),
            ev("n0", TraceKind::Deliver, 5).with_items(2),
            ev("n1", TraceKind::Recv, 10).with_peer("n0"),
            ev("n1", TraceKind::Eval, 15).with_items(1),
            ev("n1", TraceKind::Forward, 11).with_peer("n2"),
            ev("n1", TraceKind::Results, 16).with_peer("n0").with_items(1),
            ev("n2", TraceKind::Recv, 20).with_peer("n1"),
            ev("n2", TraceKind::Eval, 25),
            ev("n2", TraceKind::Results, 26).with_peer("n1"),
            ev("n3", TraceKind::Recv, 10).with_peer("n0"),
            ev("n3", TraceKind::Eval, 14).with_items(3),
            ev("n3", TraceKind::Results, 15).with_peer("n0").with_items(3),
            // Noise from another transaction is ignored.
            TraceEvent::new(8, "n9", TraceKind::Recv, 1),
        ];
        let t = QueryTrace::assemble(7, events);
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.events, 15);
        assert!(t.is_complete(), "all four spans have recv/eval/results");
        assert_eq!(t.complete_spans(), 4);
        let n0 = t.span("n0").unwrap();
        assert_eq!(n0.hop, 0);
        assert_eq!(n0.parent, None);
        assert_eq!(n0.forwards, vec!["n1".to_owned(), "n3".to_owned()]);
        assert_eq!(t.span("n1").unwrap().hop, 1);
        assert_eq!(t.span("n2").unwrap().hop, 2);
        assert_eq!(t.span("n2").unwrap().parent.as_deref(), Some("n1"));
        assert_eq!(t.roots().len(), 1);
        // Hop phases aggregate by depth.
        let phases = t.hop_phases();
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[1].nodes, 2);
        assert_eq!(phases[1].first_recv_ms, Some(10));
        assert!((phases[1].mean_eval_latency_ms - 4.5).abs() < 1e-9);
        // JSON dump round-trips the key fields.
        let j = t.to_json();
        assert_eq!(j["spans"][0]["node"], "n0");
        assert_eq!(j["spans"][0]["hop"], 0);
    }

    #[test]
    fn duplicate_recv_keeps_earliest_parent() {
        let events = vec![
            ev("n1", TraceKind::Recv, 10).with_peer("n0"),
            ev("n1", TraceKind::Recv, 12).with_peer("n5"),
            ev("n0", TraceKind::Recv, 0),
        ];
        let t = QueryTrace::assemble(7, events);
        assert_eq!(t.span("n1").unwrap().parent.as_deref(), Some("n0"));
        assert_eq!(t.span("n1").unwrap().recv_ms, Some(10));
    }

    #[test]
    fn cyclic_parent_links_terminate() {
        // Pathological: a<->b claim each other as parent.
        let events = vec![
            ev("a", TraceKind::Recv, 0).with_peer("b"),
            ev("b", TraceKind::Recv, 0).with_peer("a"),
        ];
        let t = QueryTrace::assemble(7, events);
        assert_eq!(t.spans.len(), 2, "assembly must not hang on cycles");
    }

    #[test]
    fn incomplete_spans_are_visible() {
        let events = vec![
            ev("n0", TraceKind::Recv, 0),
            ev("n0", TraceKind::Eval, 2),
            // no results — e.g. the node aborted
        ];
        let t = QueryTrace::assemble(7, events);
        assert!(!t.is_complete());
        assert_eq!(t.complete_spans(), 0);
    }
}
