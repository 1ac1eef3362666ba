//! Failure is the norm: the live overlay under fault injection.
//!
//! Three acts: a clean run, a run where every frame is duplicated by
//! the network (sequence numbers suppress the replays), and a run with
//! a hung interior peer (the child-liveness watchdog abandons the
//! subtree and reports a partial answer instead of hanging).
//!
//! ```sh
//! cargo run --example chaos_overlay
//! ```

use std::time::{Duration, Instant};
use wsda::net::model::ChaosPlan;
use wsda::net::NodeId;
use wsda::updf::{LiveNetwork, RecoveryConfig, Topology};

const QUERY: &str = r#"//service[load < 0.5]/owner"#;

fn main() {
    // Act 1: clean tree, recovery on (the live default).
    let mut net = LiveNetwork::start(Topology::tree(15, 2), 3, 42);
    let start = Instant::now();
    let clean = net.query_full(NodeId(0), QUERY, None, Duration::from_secs(10));
    println!(
        "clean        : {} items, {} in {:?}",
        clean.results.len(),
        clean.completeness,
        start.elapsed()
    );
    drop(net);

    // Act 2: every frame duplicated; the answer must not be.
    let plan = ChaosPlan::none().with_duplication(1.0);
    let mut net = LiveNetwork::start_chaos(
        Topology::tree(15, 2),
        3,
        42,
        RecoveryConfig::live_default(),
        plan,
    );
    let start = Instant::now();
    let dup = net.query_full(NodeId(0), QUERY, None, Duration::from_secs(10));
    println!(
        "duplication  : {} items, {} ({} replays suppressed) in {:?}",
        dup.results.len(),
        dup.completeness,
        dup.replays_suppressed,
        start.elapsed()
    );
    assert_eq!(sorted(dup.results), sorted(clean.results.clone()), "duplication changed results");
    drop(net);

    // Act 3: hang an interior peer mid-overlay; the watchdog gives its
    // subtree up and the query degrades instead of hanging.
    let recovery = RecoveryConfig {
        ack_timeout_ms: 80,
        max_retries: 2,
        backoff_factor: 2,
        jitter_ms: 10,
        watchdog_timeout_ms: 300,
        ..RecoveryConfig::live_default()
    };
    let mut net = LiveNetwork::start_with(Topology::tree(15, 2), 3, 42, recovery);
    net.kill(NodeId(1));
    let start = Instant::now();
    let partial = net.query_full(NodeId(0), QUERY, None, Duration::from_secs(20));
    println!(
        "hung peer n1 : {} items, {} ({} lost subtrees reported) in {:?}",
        partial.results.len(),
        partial.completeness,
        partial.errors_received,
        start.elapsed()
    );
    assert!(!partial.completeness.is_complete(), "a hung subtree must be reported");
    assert!(partial.results.len() < clean.results.len(), "the dead subtree's items are missing");
    assert!(start.elapsed() < Duration::from_secs(5), "watchdog, not client timeout");
    println!("\nthe query plane degrades and says so — it never hangs ✓");
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}
