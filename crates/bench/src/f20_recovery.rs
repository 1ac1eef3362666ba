//! F20 — crash-recovery cost vs store size and snapshot policy.
//!
//! Populates a durable registry (WAL on disk, fsync off — we are measuring
//! replay, not the disk), "crashes" it by dropping the process state, and
//! times a cold [`HyperRegistry::open_durable`] back to a serving,
//! consistency-checked store. Two variants per size:
//!
//! * **wal-only** — no snapshot ever taken; recovery replays the full
//!   append log (upsert + content record per tuple).
//! * **snapshot** — one [`HyperRegistry::snapshot_now`] after the corpus
//!   (truncating the WAL) plus a short refresh tail; recovery loads the
//!   snapshot and replays only the tail.
//!
//! The gap between the two is the thesis for snapshotting: replay cost
//! grows with *history*, snapshot load with *live state*, so the cadence
//! bounds restart time no matter how long the registry has been up. Both
//! measured times include the compacting snapshot recovery writes before
//! it starts serving. Emits `BENCH_p2_recovery.json`.

use crate::harness::{f1 as fmt1, write_bench, Report};
use serde_json::json;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use wsda_registry::clock::ManualClock;
use wsda_registry::{
    FsyncPolicy, HyperRegistry, PersistenceConfig, PublishRequest, RecoveryReport, RegistryConfig,
};
use wsda_xml::parse_fragment;

/// Tail refreshes appended after the snapshot in the `snapshot` variant —
/// the "writes since the last snapshot" a real crash would land on.
const TAIL: usize = 64;

fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("wsda-f20-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn file_kb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1024.0)
}

fn persistence(dir: &Path) -> PersistenceConfig {
    // Automatic snapshots off: each variant controls snapshotting itself.
    PersistenceConfig { dir: dir.to_path_buf(), fsync: FsyncPolicy::Never, snapshot_every: 0 }
}

/// Build the durable corpus, then drop every in-memory handle (the
/// "crash"). Returns on-disk sizes `(wal_kb, snapshot_kb)`.
fn populate(dir: &Path, tuples: usize, snapshot: bool) -> (f64, f64) {
    let clock = Arc::new(ManualClock::new());
    let (registry, _) =
        HyperRegistry::open_durable(RegistryConfig::default(), clock, &persistence(dir))
            .expect("open fresh durable registry");
    for i in 0..tuples {
        let xml = format!(
            "<service><owner>owner-{}</owner><load>0.{:02}</load></service>",
            i % 97,
            i % 100
        );
        registry
            .publish(
                PublishRequest::new(format!("http://svc/{i}"), "service")
                    .with_ttl_ms(600_000)
                    .with_content(parse_fragment(&xml).expect("valid corpus xml")),
            )
            .expect("publish corpus tuple");
    }
    if snapshot {
        registry.snapshot_now().expect("snapshot corpus");
        for i in 0..TAIL.min(tuples) {
            registry.refresh(&format!("http://svc/{i}"), None).expect("tail refresh");
        }
    }
    (file_kb(&dir.join("wal.log")), file_kb(&dir.join("snapshot.bin")))
}

/// Cold-open the directory and time recovery to a consistent store.
fn recover(dir: &Path) -> (f64, RecoveryReport, usize) {
    let started = Instant::now();
    let (registry, report) = HyperRegistry::open_durable(
        RegistryConfig::default(),
        Arc::new(ManualClock::new()),
        &persistence(dir),
    )
    .expect("recover durable registry");
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    registry.check_consistent();
    (elapsed_ms, report, registry.live_tuples())
}

fn case(variant: &str, snapshot: bool, tuples: usize, report: &mut Report) {
    let dir = bench_dir(&format!("{variant}-{tuples}"));
    let (wal_kb, snap_kb) = populate(&dir, tuples, snapshot);
    let (recovery_ms, rec, live) = recover(&dir);
    assert_eq!(live, tuples, "{variant}/{tuples}: every durable tuple must come back");
    report.row(
        vec![
            variant.to_owned(),
            tuples.to_string(),
            fmt1(wal_kb),
            fmt1(snap_kb),
            rec.snapshot_tuples.to_string(),
            rec.replayed.to_string(),
            fmt1(recovery_ms),
            fmt1(recovery_ms * 1e3 / tuples as f64),
        ],
        &json!({
            "variant": variant,
            "tuples": tuples,
            "wal_kb": wal_kb,
            "snapshot_kb": snap_kb,
            "snapshot_tuples": rec.snapshot_tuples,
            "replayed": rec.replayed,
            "tail_lost_bytes": rec.tail_lost_bytes,
            "swept": rec.swept,
            "recovered_tuples": rec.recovered_tuples,
            "recovery_ms": recovery_ms,
            "us_per_tuple": recovery_ms * 1e3 / tuples as f64,
        }),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run F20.
pub fn run(quick: bool) -> Report {
    let mut report = Report::new(
        "f20",
        "Crash recovery: replay cost vs snapshot cadence",
        &[
            "variant",
            "tuples",
            "wal kb",
            "snap kb",
            "snap tuples",
            "replayed",
            "recovery ms",
            "us/tuple",
        ],
    );
    let sizes: &[usize] = if quick { &[1_000, 4_000] } else { &[1_000, 4_000, 16_000, 32_000] };
    for &n in sizes {
        case("wal-only", false, n, &mut report);
        case("snapshot", true, n, &mut report);
    }
    report.note(format!(
        "wal-only replays the full history (2 records/tuple: upsert + content); snapshot \
         loads live state and replays only the {TAIL}-record tail — replay cost scales with \
         history, snapshot load with live tuples, so snapshot cadence bounds restart time. \
         Recovery time includes the compacting snapshot written before serving resumes; \
         fsync is off (replay cost, not disk flush, is under test).",
    ));
    write_bench(&mut report, "BENCH_p2_recovery.json", quick);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_variant_replays_only_the_tail() {
        let dir = bench_dir("smoke");
        populate(&dir, 200, true);
        let (_, rec, live) = recover(&dir);
        assert_eq!(live, 200);
        assert_eq!(rec.snapshot_tuples, 200, "the corpus comes from the snapshot: {rec:?}");
        assert!(rec.replayed <= TAIL + 2, "only the post-snapshot tail is replayed: {rec:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_only_variant_replays_full_history() {
        let dir = bench_dir("smoke-wal");
        populate(&dir, 100, false);
        let (_, rec, live) = recover(&dir);
        assert_eq!(live, 100);
        assert_eq!(rec.snapshot_tuples, 0, "no snapshot was taken: {rec:?}");
        assert!(rec.replayed >= 200, "upsert + content per tuple: {rec:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
