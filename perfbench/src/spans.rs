//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is opened before a call into a layer's public function and closed
//! after it returns. Spans are kept in memory and written out once, when the
//! run ends, so recording costs a clock read and a push.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Span name of a `HyperRegistry::query` call, by T1 query class.
pub fn registry_query_span(class: wsda_xq::QueryClass) -> &'static str {
    match class {
        wsda_xq::QueryClass::Simple => "registry.query.simple",
        wsda_xq::QueryClass::Medium => "registry.query.medium",
        wsda_xq::QueryClass::Complex => "registry.query.complex",
    }
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `registry.query.medium`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub query: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Handle of an open span (`None` while recording is off).
pub type SpanId = Option<usize>;

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    /// Record spans now? Toggled per request by the workloads.
    pub active: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An inactive recorder.
    pub fn new() -> Tracer {
        Tracer { active: false, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span for `name` in request `query`.
    pub fn begin(&mut self, name: &'static str, query: u64) -> SpanId {
        if !self.active {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, query });
        self.open.push(id);
        Some(id)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
    }

    /// Run `f` inside a span.
    pub fn record<R>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, query);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in µs, of every span called `name`.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"query":{}}}"#,
                s.name, s.start_ns, s.end_ns, parent, s.query
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_only_record_while_active() {
        let mut t = Tracer::new();
        assert_eq!(t.begin("off", 0), None);
        t.active = true;
        let outer = t.begin("outer", 7);
        let inner = t.record("inner", 7, || 40 + 2);
        assert_eq!(inner, 42);
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.micros("inner").len(), 1);
    }
}
