//! # wsda-obs — unified observability for the WSDA stack
//!
//! The thesis's entire evaluation method is instrumentation: every figure
//! (response modes, pipelining, timeouts, radius) is read off per-query
//! message/byte/latency accounting. This crate is the shared substrate that
//! accounting reports through:
//!
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges and
//!   histograms with cheap atomic recording, a JSON snapshot and
//!   Prometheus-style text exposition. The registry admission gate, the
//!   query planner, the circuit breakers, the bounded inboxes and the
//!   node-state size gauges all export through one registry, so a
//!   single scrape shows the whole stack.
//! * [`trace`] — hop-level query tracing: every node appends
//!   [`TraceEvent`]s (recv/eval/forward/results/ack/retry/abandon) to a
//!   bounded per-node ring buffer; the originator reconstructs the full
//!   query tree as a span forest ([`QueryTrace::assemble`]) and dumps it as
//!   JSON. Benches use the assembled trace for per-phase timing breakdowns.
//!
//! The crate is dependency-light (only `serde_json` for the dumps) so every
//! layer — registry, transport, sim engine, live overlay, bench harness —
//! can link it without cycles.

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Metric, MetricsRegistry};
pub use trace::{QueryTrace, SharedTraceBuffer, Span, TraceBuffer, TraceEvent, TraceKind};
