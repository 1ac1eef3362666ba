//! Metric names, the result record and its output.

use crate::host;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// End-to-end metrics, `(name, unit)`: what a discovery client or a
/// service provider waits for. Every workload reports every one (on
/// `sim_flood` the soft-state writes are lease refreshes at node
/// registries). Timings and rates are scaled to the reference host's speed
/// (see the crate docs); the report notes them as measured too.
///
/// The query and write tails are only noted, each with its percentile and
/// sample count. On a host whose speed drifts by half for stretches of
/// seconds to minutes they read the slow stretches, when a run has one:
/// across sets of ten runs, `sim_flood`'s query tail (p66 to p75 of 30 to
/// 40 floods) spread by 0.29 to 0.40 of its median, and the write tails by
/// a third or more.
pub const END_TO_END: &[(&str, &str)] = &[
    ("query_p50_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("publish_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, named after the workspace crates. A
/// layer that does no work on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xq.compile_us", "us"),
    ("xq.parses_per_query", "count"),
    ("registry.eval_us.simple", "us"),
    ("registry.eval_us.medium", "us"),
    ("registry.eval_us.complex", "us"),
    ("registry.candidates_per_query", "count"),
    ("registry.results_per_candidate", "ratio"),
    ("registry.index_plan_share", "fraction"),
    ("registry.publish_us", "us"),
    ("registry.refresh_us", "us"),
    ("registry.unpublish_us", "us"),
    ("registry.evals_per_query", "count"),
    ("xml.serialize_us", "us"),
    ("xml.result_bytes_per_query", "B"),
    ("pdp.encode_us", "us"),
    ("pdp.decode_us", "us"),
    ("pdp.frame_us", "us"),
    ("pdp.frame_bytes", "B"),
    ("net.frames_per_query", "count"),
    ("net.bytes_per_query", "B"),
    ("net.connects_per_query", "count"),
    ("net.drops", "count"),
    ("net.reconnects", "count"),
    ("live.unattributed_ms", "ms"),
    ("live.breaker_sheds", "count"),
    ("live.result_cache_hits", "count"),
    ("engine.messages_per_flood", "count"),
    ("engine.nodes_evaluated", "count"),
    ("engine.timers_scheduled", "count"),
    ("engine.eval_share", "fraction"),
    ("engine.loop_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("engine.materialize_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// One run's outcome.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Traced run?
    pub trace: bool,
    /// Requests (queries and writes) attempted in the timed window.
    pub attempted: u64,
    /// Requests that failed: errors, `Partial` answers, timeouts and
    /// answers the oracle rejected.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Exact counts from the timed window, compared across runs of a seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Sample counts, tail percentiles and other context for the reader.
    pub notes: Vec<String>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            counts: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric; `name` must be one of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Add a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Failed over attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Did every answer pass its checks?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics this run prints: per-layer when traced, else end to
    /// end. Per-layer metrics a workload does not exercise read 0.
    fn printed(&self) -> Vec<(&'static str, f64, &'static str)> {
        if self.trace {
            PER_LAYER.iter().map(|&(n, u)| (n, self.get(n).unwrap_or(0.0), u)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = self.get(n).unwrap_or_else(|| panic!("{n} was not measured"));
                    (n, v, u)
                })
                .collect()
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.printed().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#);
        }
        out.push_str("}}");
        out
    }

    /// Human-readable lines: host record, every metric measured, notes.
    pub fn human(&self, host_line: &str) -> String {
        let mut out = format!(
            "perfbench {} seed={} trace={} {host_line}\n",
            self.workload, self.seed, self.trace as u8
        );
        for (&name, &value) in &self.values {
            let unit = unit_of(name).unwrap_or("");
            let _ = writeln!(out, "  {name:<32} {value:>14.4} {unit}");
        }
        let _ = writeln!(
            out,
            "  {:<32} {:>14.4} fraction ({} of {} failed)",
            "failed_ratio",
            self.failed_ratio(),
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "  - {note}");
        }
        out
    }

    /// Compare this run's exact counts with the last run of the same
    /// workload and seed (stored at `path`), note every count that
    /// differs, and store this run's counts for the next comparison.
    pub fn flag_count_drift(&mut self, path: &Path) -> std::io::Result<()> {
        if let Ok(previous) = std::fs::read_to_string(path) {
            let mut drift = Vec::new();
            for line in previous.lines() {
                let Some((name, value)) = line.split_once(' ') else { continue };
                let Ok(before) = value.parse::<u64>() else { continue };
                if let Some(&now) = self.counts.get(name) {
                    if now != before {
                        drift.push(format!("{name} {before} -> {now}"));
                    }
                }
            }
            if drift.is_empty() {
                self.note("counts repeat the previous run of this seed and length exactly");
            } else {
                self.note(format!(
                    "COUNT DRIFT vs previous run of this seed and length: {}",
                    drift.join(", ")
                ));
            }
        }
        let mut text = String::new();
        for (name, value) in &self.counts {
            let _ = writeln!(text, "{name} {value}");
        }
        std::fs::write(path, text)
    }
}

/// Directory the span dumps and stored counts go to.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The host record: parallelism, git commit, build profile.
pub fn host_line() -> String {
    format!("nproc={} commit={} profile={}", host::nproc(), host::commit(), host::profile())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let all = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all, "metric names repeat");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn json_line_carries_exactly_the_printed_metrics() {
        let mut r = Report::new("registry_mix", 1, false);
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.attempted = 10;
        let line = r.json_line();
        assert!(line.starts_with(r#"{"correct": true, "attempted": 10, "failed": 0"#));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(r#""{name}": {{"value": 1.5, "unit": "{unit}"}}"#)));
        }
        assert!(!line.contains("xq.compile_us"));
        let mut traced = Report::new("registry_mix", 1, true);
        traced.attempted = 1;
        traced.failed = 1;
        let line = traced.json_line();
        assert!(line.contains(r#""correct": false"#));
        assert!(line.contains(r#""engine.loop_ms": {"value": 0, "unit": "ms"}"#));
    }
}
