//! The WSDA benchmark: what discovery clients and service providers wait
//! for, end to end and per layer, measured on real clocks.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <registry_mix|federation_tcp|sim_flood> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its corpus, topology and op stream from the
//! seed, replays the whole op stream (sized from `--seconds` by a fixed
//! rate, so every commit does the same work), checks every answer, and
//! prints a human-readable report followed by one JSON result line. With
//! `--trace 0` the line carries the end-to-end metrics; with `--trace 1`
//! spans are recorded around the benchmark's calls into each layer and the
//! line carries the per-layer metrics. Span dumps and the per-seed counts
//! used to flag count drift go to `perfbench/out/`.
//!
//! Load comes from one closed-loop client thread in this process; the
//! federation's traffic runs over loopback TCP.
//!
//! Timings are scaled to a reference host speed. On a shared host the core
//! speed drifts by a fifth or more for minutes at a time, and a whole run
//! drifts with it. A [`host::SpeedProbe`] times a fixed loop of the
//! benchmark's own about once a second and after every set-up; each gated
//! timing is divided by the run's median probe over the probe's time on
//! the reference host (rates are multiplied). The report prints the
//! figures as measured beside them.
//!
//! `BENCHMARK.json` gates `federation_tcp` and `sim_flood`, which between
//! them exercise every layer. `registry_mix` runs on request only: its
//! query median and set-up time moved by more than a quarter between sets
//! of runs of the same code.
//!
//! Seeds: `1` is the committed baseline seed; `20021116` is held out for
//! checking later claims.

pub mod federation_tcp;
pub mod host;
pub mod ops;
pub mod oracle;
pub mod registry_mix;
pub mod report;
pub mod sim_flood;
pub mod spans;
pub mod stats;

use report::Report;
use spans::Tracer;

/// Workloads the benchmark runs; `BENCHMARK.json` lists those it gates.
pub const WORKLOADS: &[&str] = &["registry_mix", "federation_tcp", "sim_flood"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Set-ups a workload with a short set-up makes before its timed window;
/// the rest follow the window (see [`set_up_again`]).
pub const SETUPS_BEFORE: usize = 3;

/// One invocation's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Workload seed: corpus, topology and op stream.
    pub seed: u64,
    /// Nominal measured time; sizes the op stream.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny sizes, for the benchmark's own smoke test.
    pub tiny: bool,
}

impl Run {
    /// Length of a workload's op stream: `seconds` at `per_second` ops,
    /// or a handful in a tiny run.
    pub fn ops(&self, per_second: f64) -> usize {
        if self.tiny {
            24
        } else {
            ((self.seconds as f64 * per_second).round() as usize).max(1)
        }
    }
}

/// Run one workload; `None` for an unknown name.
pub fn run(workload: &str, run: &Run) -> Option<Report> {
    match workload {
        "registry_mix" => Some(registry_mix::run(run)),
        "federation_tcp" => Some(federation_tcp::run(run)),
        "sim_flood" => Some(sim_flood::run(run)),
        _ => None,
    }
}

/// What registry evaluations examined and returned, summed.
#[derive(Debug, Default, Clone, Copy)]
pub struct EvalCounts {
    /// Evaluations.
    pub evals: u64,
    /// Candidate tuples examined.
    pub candidates: u64,
    /// Result items returned.
    pub results: u64,
    /// Evaluations answered through an index (link/type or content).
    pub index_plans: u64,
    /// Bytes of serialized result items.
    pub result_bytes: u64,
}

impl EvalCounts {
    /// Count one evaluation and its serialized items.
    pub fn add(&mut self, outcome: &wsda_registry::QueryOutcome, items: &[String]) {
        self.evals += 1;
        self.candidates += outcome.stats.candidates as u64;
        self.results += outcome.results.len() as u64;
        self.index_plans += u64::from(
            outcome.stats.used_index || outcome.stats.plan != wsda_registry::QueryPlan::Scan,
        );
        self.result_bytes += items.iter().map(|s| s.len() as u64).sum::<u64>();
    }

    /// Add another tally.
    pub fn merge(&mut self, other: &EvalCounts) {
        self.evals += other.evals;
        self.candidates += other.candidates;
        self.results += other.results;
        self.index_plans += other.index_plans;
        self.result_bytes += other.result_bytes;
    }

    /// Set the `registry` and `xml` work metrics, per `queries` requests.
    pub fn report(&self, report: &mut Report, queries: u64) {
        let per_query = |v: u64| v as f64 / queries.max(1) as f64;
        report.set("registry.candidates_per_query", per_query(self.candidates));
        report.set(
            "registry.results_per_candidate",
            self.results as f64 / self.candidates.max(1) as f64,
        );
        report.set("registry.index_plan_share", self.index_plans as f64 / self.evals.max(1) as f64);
        report.set("xml.result_bytes_per_query", per_query(self.result_bytes));
    }
}

/// Set the latency and throughput metrics from a run's timeline, scaled
/// to the reference host's speed, with notes on the raw figures, sample
/// counts and tail percentiles.
pub fn report_latency(
    report: &mut Report,
    timeline: &stats::Timeline,
    writes: &str,
    probe: &host::SpeedProbe,
) {
    let s = timeline.summary();
    let slowdown = probe.slowdown();
    report.set("query_p50_ms", s.query_p50_ms / slowdown);
    report.set("queries_per_s", s.queries_per_s * slowdown);
    report.set("publish_p50_us", s.publish_p50_us / slowdown);
    report.note(format!(
        "host slowdown {slowdown:.4} (median of {} speed probes / {} ms); as measured: \
         query p50 {:.4} ms, {:.4} queries/s, publish p50 {:.4} us",
        probe.samples(),
        host::PROBE_REFERENCE_MS,
        s.query_p50_ms,
        s.queries_per_s,
        s.publish_p50_us
    ));
    report.note(format!(
        "latency and throughput over every timed request, {:.3} s busy",
        timeline.busy_s()
    ));
    note_samples(report, "query_p99_ms", "ms", "query", &s.query_tail_ms);
    note_samples(report, "publish_p99_us", "us", writes, &s.publish_tail_us);
}

/// Note a latency set's tail as measured, under the metric's name, with its
/// sample count and the percentile it is. Tails are not gated.
pub fn note_samples(report: &mut Report, name: &str, unit: &str, what: &str, tail: &stats::Tail) {
    report.note(format!(
        "{name} {:.4} {unit}: {what} latency tail, n={}, p{:.2} with {} samples beyond",
        tail.value, tail.samples, tail.percentile, tail.beyond
    ));
}

/// Note each T1 query's median latency and share of the timed queries.
pub fn note_per_query(report: &mut Report, timed: &[(usize, f64)]) {
    let t1 = wsda_registry::workload::t1_queries();
    let cells: Vec<String> = t1
        .iter()
        .enumerate()
        .map(|(k, (id, _, _))| {
            let ms: Vec<f64> = timed.iter().filter(|(q, _)| *q == k).map(|(_, ms)| *ms).collect();
            let share = 100.0 * ms.len() as f64 / timed.len().max(1) as f64;
            format!("{id} {:.3} ({share:.0}%)", stats::median(&ms))
        })
        .collect();
    report.note(format!("per-query p50 ms (share): {}", cells.join(", ")));
}

/// Set up `reps` times (at least once) and keep the last; returns it with
/// each set-up's seconds. The host's speed is sampled after each set-up.
///
/// A workload whose set-up is short makes the rest of its [`SETUP_REPS`]
/// after the timed window with [`set_up_again`], so that `setup_s` samples
/// the host across the whole run, as the request metrics do.
pub fn set_up<T>(
    reps: usize,
    probe: &mut host::SpeedProbe,
    mut once: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let started = std::time::Instant::now();
        state = Some(once());
        seconds.push(started.elapsed().as_secs_f64());
        probe.sample();
    }
    (state.expect("at least one set-up"), seconds)
}

/// Set up until `seconds` holds [`SETUP_REPS`] set-ups, dropping each.
pub fn set_up_again<T>(
    probe: &mut host::SpeedProbe,
    mut once: impl FnMut() -> T,
    seconds: &mut Vec<f64>,
) {
    while seconds.len() < SETUP_REPS {
        let started = std::time::Instant::now();
        let state = once();
        seconds.push(started.elapsed().as_secs_f64());
        drop(state);
        probe.sample();
    }
}

/// Set `setup_s` to the median set-up, scaled to the reference host's
/// speed, noting each one as measured.
pub fn report_setup(report: &mut Report, setup_s: &[f64], probe: &host::SpeedProbe) {
    report.set("setup_s", stats::median(setup_s) / probe.slowdown());
    let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    report.note(format!("set-ups as measured, s: {}", each.join(" ")));
}

/// Set `trace.overhead_ms`: traced minus untraced median latency of the
/// alternating requests of a traced run.
pub fn report_overhead(report: &mut Report, traced_ms: &[f64], untraced_ms: &[f64]) {
    report.set("trace.overhead_ms", stats::median(traced_ms) - stats::median(untraced_ms));
    report.note(format!(
        "tracing overhead: p50 {:.4} ms traced (n={}) vs {:.4} ms untraced (n={})",
        stats::median(traced_ms),
        traced_ms.len(),
        stats::median(untraced_ms),
        untraced_ms.len()
    ));
}

/// Write the span dump, then compare and store the run's exact counts.
/// Failures to write are noted, never fatal.
pub fn finish(report: &mut Report, tracer: &Tracer) {
    let dir = report::out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.note(format!("cannot create {}: {e}", dir.display()));
        return;
    }
    let stem = format!("{}-seed{}", report.workload, report.seed);
    if report.trace {
        let path = dir.join(format!("{stem}-spans.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => report.note(format!("{} spans in {}", tracer.spans().len(), path.display())),
            Err(e) => report.note(format!("cannot write spans: {e}")),
        }
    }
    if let Err(e) =
        report.flag_count_drift(&dir.join(format!("{stem}-{}ops-counts.txt", report.attempted)))
    {
        report.note(format!("cannot store counts: {e}"));
    }
}
