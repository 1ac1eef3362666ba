//! F18 — overload protection: goodput vs offered load, admission gate
//! on/off.
//!
//! A deterministic single-server queue in virtual time drives *real*
//! registry evaluations: queries arrive at a fixed rate with a fixed
//! per-query deadline, are served FIFO, and each evaluation advances the
//! [`ManualClock`] by the cost model's service time (scan candidates ×
//! ns/tuple — the same model the admission gate prices against). The
//! protected arm routes every query through `query_admitted` with the
//! arrival deadline; the unprotected arm evaluates everything it is
//! handed, however late.
//!
//! Expected shape: below saturation the two arms are indistinguishable —
//! the gate admits everything untouched, so goodput (answers delivered
//! within deadline) matches exactly. Past saturation the unprotected
//! arm's queue grows without bound and its goodput collapses toward
//! zero, while the gate degrades scans to affordable partial prefixes and
//! sheds hopeless arrivals at ~zero cost, holding goodput near capacity.
//! Every degraded/shed decision is cross-checked against the registry's
//! own counters. Emits `BENCH_p2_overload.json`.

use crate::harness::{f1 as fmt1, write_bench, Report};
use serde_json::json;
use std::sync::Arc;
use wsda_registry::clock::{Clock, ManualClock, Time};
use wsda_registry::{
    Admission, AdmissionConfig, AdmissionContext, Freshness, HyperRegistry, PublishRequest,
    QueryScope, RegistryConfig,
};
use wsda_xml::Element;
use wsda_xq::Query;

/// Cost model: nanoseconds to scan one tuple (10 µs ⇒ a 1 000-tuple
/// corpus costs 10 ms of service per full scan).
const SCAN_NS: u64 = 10_000;
/// Smallest degraded scan the gate will run (250 tuples = 2.5 ms): a
/// partial answer below a quarter of the corpus is not worth serving, so
/// budgets under 2.5 ms shed instead of degrading.
const DEGRADED_MIN: usize = 250;
/// Non-sargable, so both the planner and the cost model treat it as a
/// full scan.
const QUERY: &str = "count(/tuple) + count(/tuple)";
const TTL_MS: u64 = 86_400_000;

/// One arm's outcome over a full arrival schedule.
#[derive(Debug, Default, Clone, Copy)]
pub struct ArmOutcome {
    /// Queries evaluated (fully or degraded).
    pub answered: u64,
    /// Queries answered within their deadline — the goodput.
    pub goodput: u64,
    /// In-deadline answers that were complete (not degraded).
    pub complete_in_time: u64,
    /// Answers degraded to a bounded partial scan.
    pub degraded: u64,
    /// Queries shed by the gate (always 0 unprotected).
    pub shed: u64,
    /// Mean arrival→answer latency over answered queries, ms.
    pub mean_latency_ms: f64,
}

fn corpus(registry: &HyperRegistry, n: usize) {
    for i in 0..n {
        registry
            .publish(
                PublishRequest::new(format!("http://svc/{i}"), "service")
                    .with_ttl_ms(TTL_MS)
                    .with_content(
                        Element::new("service").with_field("owner", format!("site{i}.example")),
                    ),
            )
            .expect("corpus publish");
    }
}

/// Advance `clock` to absolute virtual time `t` (never backwards).
fn sync(clock: &ManualClock, t: u64) {
    let now = clock.now().millis();
    if t > now {
        clock.advance(t - now);
    }
}

/// Run one arm: `m` queries over an `n`-tuple corpus, offered at
/// `load` × the single-server scan capacity, each with a deadline of 3
/// full-scan service times. Deterministic: both arms see the identical
/// arrival schedule.
pub fn simulate(protect: bool, n: usize, m: usize, load: f64) -> ArmOutcome {
    let clock = Arc::new(ManualClock::new());
    let admission = AdmissionConfig {
        enabled: protect,
        max_inflight: 1,
        scan_ns_per_tuple: SCAN_NS,
        degraded_scan_min: DEGRADED_MIN,
        ..AdmissionConfig::default()
    };
    let registry = HyperRegistry::new(
        RegistryConfig { admission, ..RegistryConfig::default() },
        clock.clone(),
    );
    corpus(&registry, n);
    let query = Query::parse(QUERY).expect("bench query parses");

    let full_service_ms = (n as u64 * SCAN_NS) / 1_000_000;
    let deadline_budget_ms = 3 * full_service_ms;
    let mut out = ArmOutcome::default();
    let mut t = 0u64; // server's virtual time
    let mut latency_sum = 0u64;

    for i in 0..m {
        let arrival = (i as f64 * full_service_ms as f64 / load).round() as u64;
        let deadline = arrival + deadline_budget_ms;
        // FIFO single server: the next query starts when the server frees
        // up or the query arrives, whichever is later.
        t = t.max(arrival);
        sync(&clock, t);

        let outcome = if protect {
            let ctx = AdmissionContext::for_client("offered-load").with_deadline(Time(deadline));
            match registry
                .query_admitted(&query, &Freshness::any(), &QueryScope::all(), &ctx)
                .expect("admitted query")
            {
                Admission::Answered(o) => Some(o),
                Admission::Shed { .. } => {
                    out.shed += 1;
                    None // shed at triage: ~zero service consumed
                }
            }
        } else {
            Some(registry.query(&query, &Freshness::any()).expect("unprotected query"))
        };

        if let Some(o) = outcome {
            // Service time from the same cost model the gate prices with:
            // candidates actually examined × per-tuple cost.
            let service_ms = (o.stats.candidates as u64 * SCAN_NS) / 1_000_000;
            t += service_ms;
            sync(&clock, t);
            out.answered += 1;
            latency_sum += t - arrival;
            if !o.completeness.is_complete() {
                out.degraded += 1;
            }
            if t <= deadline {
                out.goodput += 1;
                if o.completeness.is_complete() {
                    out.complete_in_time += 1;
                }
            }
        }
    }

    if protect {
        // The external accounting must agree with the registry's own
        // overload counters — every decision is visible.
        let stats = registry.stats();
        assert_eq!(stats.total_shed(), out.shed, "shed counters must agree");
        assert_eq!(stats.degraded.get(), out.degraded, "degraded counters must agree");
        assert_eq!(stats.admitted.get(), out.answered);
    }
    out.mean_latency_ms =
        if out.answered > 0 { latency_sum as f64 / out.answered as f64 } else { 0.0 };
    out
}

/// Run F18.
pub fn run(quick: bool) -> Report {
    let (n, m): (usize, usize) = if quick { (400, 80) } else { (1_000, 200) };
    let loads: &[f64] =
        if quick { &[0.5, 1.0, 4.0] } else { &[0.25, 0.5, 0.8, 1.0, 2.0, 4.0, 8.0] };
    let mut report = Report::new(
        "f18",
        "Overload: goodput vs offered load, admission gate on/off",
        &[
            "load x",
            "offered",
            "goodput off",
            "goodput on",
            "complete on",
            "degraded",
            "shed",
            "latency off ms",
            "latency on ms",
        ],
    );
    for &load in loads {
        let unprotected = simulate(false, n, m, load);
        let protected = simulate(true, n, m, load);
        report.row(
            vec![
                fmt1(load),
                m.to_string(),
                unprotected.goodput.to_string(),
                protected.goodput.to_string(),
                protected.complete_in_time.to_string(),
                protected.degraded.to_string(),
                protected.shed.to_string(),
                fmt1(unprotected.mean_latency_ms),
                fmt1(protected.mean_latency_ms),
            ],
            &json!({
                "load": load,
                "offered": m,
                "tuples": n,
                "service_ms": (n as u64 * SCAN_NS) / 1_000_000,
                "unprotected": {
                    "answered": unprotected.answered,
                    "goodput": unprotected.goodput,
                    "mean_latency_ms": unprotected.mean_latency_ms,
                },
                "protected": {
                    "answered": protected.answered,
                    "goodput": protected.goodput,
                    "complete_in_time": protected.complete_in_time,
                    "degraded": protected.degraded,
                    "shed": protected.shed,
                    "mean_latency_ms": protected.mean_latency_ms,
                },
            }),
        );
    }
    report.note(format!(
        "single-server FIFO queue in virtual time over a {n}-tuple corpus; full scan = \
         {} ms of service, deadline = 3 service times, load = offered rate / scan capacity; \
         goodput = answers delivered within deadline",
        (n as u64 * SCAN_NS) / 1_000_000
    ));
    report.note(
        "expected: identical goodput at/below capacity (the gate is transparent); past \
         saturation the unprotected queue's goodput collapses while the gate degrades \
         scans to affordable prefixes and sheds the hopeless tail at ~zero cost",
    );
    write_bench(&mut report, "BENCH_p2_overload.json", quick);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the overload layer: exact goodput parity
    /// at/below capacity (deterministic arrivals never queue, so the gate
    /// must be invisible), strict dominance past saturation.
    #[test]
    fn protection_matches_below_saturation_and_dominates_past_it() {
        let (n, m) = (400, 60);
        for load in [0.25, 0.5, 1.0] {
            let unprotected = simulate(false, n, m, load);
            let protected = simulate(true, n, m, load);
            assert_eq!(
                protected.goodput, unprotected.goodput,
                "at load {load}: the gate must be transparent"
            );
            assert_eq!(protected.goodput, m as u64, "everything answers in time at load {load}");
            assert_eq!(protected.shed, 0);
            assert_eq!(protected.degraded, 0);
        }
        for load in [2.0, 4.0, 8.0] {
            let unprotected = simulate(false, n, m, load);
            let protected = simulate(true, n, m, load);
            assert!(
                protected.goodput > unprotected.goodput,
                "at load {load}: protected goodput {} must beat unprotected {}",
                protected.goodput,
                unprotected.goodput
            );
        }
    }
}
