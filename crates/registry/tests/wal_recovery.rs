//! Crash-recovery proptests: kill the WAL at a random offset (optionally
//! flipping a bit in what survives, as a torn or corrupted sector would),
//! recover, and check the recovered store is exactly the reference replay
//! of the log's valid prefix — with tuples that expired during the downtime
//! gap swept rather than resurrected.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use wsda_registry::clock::Time;
use wsda_registry::persist::{
    open_store_at, scan_records, FsyncPolicy, PersistenceConfig, RecoverNow, WalOp,
};
use wsda_registry::ShardedStore;
use wsda_xml::parse_fragment;

const TYPES: [&str; 3] = ["service", "monitor", "replica"];
const DOMAINS: [&str; 3] = ["cms.cern.ch", "fnal.gov", "cern.ch"];

#[derive(Debug, Clone)]
enum Op {
    Upsert { id: u8, ty: u8, dom: u8, ttl: u64 },
    SetContent { id: u8, val: u8 },
    ClearContent { id: u8 },
    Remove { id: u8 },
    Sweep,
    Advance { ms: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12, 0u8..3, 0u8..3, 1_000u64..60_000).prop_map(|(id, ty, dom, ttl)| Op::Upsert {
            id,
            ty,
            dom,
            ttl
        }),
        (0u8..12, 0u8..8).prop_map(|(id, val)| Op::SetContent { id, val }),
        (0u8..12).prop_map(|id| Op::ClearContent { id }),
        (0u8..12).prop_map(|id| Op::Remove { id }),
        Just(Op::Sweep),
        (1u64..20_000).prop_map(|ms| Op::Advance { ms }),
    ]
}

fn link(id: u8) -> String {
    format!("http://svc/{id}")
}

fn fresh_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "wsda-walrec-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Apply one op to a (store, clock) pair; both the durable store under test
/// and the in-memory mirror go through this.
fn apply(store: &ShardedStore, now: &mut Time, op: &Op) {
    match op {
        Op::Upsert { id, ty, dom, ttl } => {
            store.upsert(
                &link(*id),
                TYPES[*ty as usize % TYPES.len()],
                DOMAINS[*dom as usize % DOMAINS.len()],
                *now,
                *ttl,
            );
        }
        Op::SetContent { id, val } => {
            let xml = format!("<service><load>{val}</load></service>");
            store.install_content(&link(*id), &parse_fragment(&xml).unwrap(), *now);
        }
        Op::ClearContent { id } => {
            store.drop_content(&link(*id));
        }
        Op::Remove { id } => {
            store.remove(&link(*id));
        }
        Op::Sweep => {
            store.sweep(*now);
        }
        Op::Advance { ms } => *now = now.plus(*ms),
    }
}

/// Independent reference replay: decode the damaged log's valid prefix and
/// apply it to a fresh in-memory store with the same semantics recovery
/// uses. Deliberately re-implemented here so the test does not trust the
/// code under test.
fn reference_replay(wal_bytes: &[u8], sweep_at: Time) -> ShardedStore {
    let store = ShardedStore::new(4);
    let mut max_ordinal: Option<u64> = None;
    let (payloads, _lost) = scan_records(wal_bytes);
    for payload in payloads {
        let Some(op) = WalOp::decode_payload(payload) else { break };
        match &op {
            WalOp::Upsert { link, type_, context, now, ttl_ms, ordinal } => {
                let mut shard = store.write_shard(store.shard_of(link));
                if shard.upsert_with_ordinal(link, type_, context, *now, *ttl_ms, *ordinal) {
                    max_ordinal = Some(max_ordinal.map_or(*ordinal, |m| m.max(*ordinal)));
                }
            }
            WalOp::SetContent { link, now, xml } => {
                if let Ok(c) = parse_fragment(xml) {
                    store.write_shard(store.shard_of(link)).set_content(link, &c, *now);
                }
            }
            WalOp::ClearContent { link } => {
                store.write_shard(store.shard_of(link)).clear_content(link);
            }
            WalOp::Remove { link } => {
                store.write_shard(store.shard_of(link)).remove(link);
            }
            WalOp::Sweep { now } => {
                store.sweep(*now);
            }
            WalOp::Stamp { .. } => {}
        }
    }
    store.store_next_ordinal(max_ordinal.map_or(0, |m| m + 1));
    store.sweep(sweep_at);
    store
}

/// One tuple's observable state: link, type, context, inserted,
/// refreshed, ttl, ordinal, and (cached-at, compact XML) when present.
type TupleFingerprint = (String, String, String, u64, u64, u64, u64, Option<(u64, String)>);

/// Full observable fingerprint of a store (post-sweep).
fn fingerprint(store: &ShardedStore) -> Vec<TupleFingerprint> {
    store
        .links()
        .into_iter()
        .map(|l| {
            store
                .with_tuple(&l, |t| {
                    (
                        t.link.clone(),
                        t.type_.clone(),
                        t.context.clone(),
                        t.inserted.millis(),
                        t.refreshed.millis(),
                        t.ttl_ms,
                        t.ordinal,
                        t.content()
                            .map(|c| (t.content_cached.unwrap().millis(), c.to_compact_string())),
                    )
                })
                .unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kill at a random WAL offset — optionally with a bit flip in the
    /// surviving bytes — and recover. The recovered store must equal the
    /// independent reference replay of the valid prefix, pass the full
    /// consistency check, and hold no tuple that expired during the gap.
    #[test]
    fn recovered_equals_reference_at_any_kill_offset(
        ops in proptest::collection::vec(arb_op(), 1..60),
        cut_permille in 0u32..=1000,
        flip in proptest::option::of((0u64..u64::MAX, 0u8..8)),
        gap_ms in 0u64..120_000,
    ) {
        let dir = fresh_dir();
        let cfg = PersistenceConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 0, // full history lives in the WAL
        };
        let mut now = Time(0);
        {
            let (store, _backend, _) =
                open_store_at(&cfg, 4, true, RecoverNow::At(now)).unwrap();
            for op in &ops {
                apply(&store, &mut now, op);
            }
            // Simulated kill: the process dies here; whatever reached the
            // file is all that survives (fsync policy only matters for
            // power loss, which file-level truncation models below).
        }

        // Damage the log: cut at an arbitrary byte offset, then flip one
        // bit somewhere in the surviving prefix.
        let wal_path = dir.join("wal.log");
        let full = std::fs::read(&wal_path).unwrap();
        let cut = (full.len() as u64 * cut_permille as u64 / 1000) as usize;
        let mut damaged = full[..cut].to_vec();
        if let (Some((pos, bit)), false) = (flip, damaged.is_empty()) {
            let idx = (pos % damaged.len() as u64) as usize;
            damaged[idx] ^= 1 << bit;
        }
        std::fs::write(&wal_path, &damaged).unwrap();

        let recover_at = now.plus(gap_ms);
        let (recovered, _backend, report) =
            open_store_at(&cfg, 4, true, RecoverNow::At(recover_at)).unwrap();
        recovered.check_consistent();

        let reference = reference_replay(&damaged, recover_at);
        prop_assert_eq!(fingerprint(&recovered), fingerprint(&reference));

        // Expired-in-the-gap: nothing live in the recovered store may be
        // past its lease at the recovery clock.
        for l in recovered.links() {
            let expired = recovered.with_tuple(&l, |t| t.is_expired(recover_at)).unwrap();
            prop_assert!(!expired, "recovered store resurrected expired tuple {}", l);
        }
        prop_assert_eq!(report.recovered_tuples, recovered.len());

        // A recovered store must itself be durable: restart again without
        // damage and land in the same state.
        drop(recovered);
        let (again, _backend2, _) =
            open_store_at(&cfg, 4, true, RecoverNow::At(recover_at)).unwrap();
        prop_assert_eq!(fingerprint(&again), fingerprint(&reference));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Clean kill with snapshots interleaved: recovery (snapshot + WAL
    /// suffix) must reproduce the live pre-kill state exactly, modulo the
    /// gap sweep.
    #[test]
    fn clean_kill_with_snapshots_recovers_live_state(
        ops in proptest::collection::vec(arb_op(), 1..60),
        snap_every_ops in 5usize..20,
        gap_ms in 0u64..120_000,
    ) {
        let dir = fresh_dir();
        let cfg = PersistenceConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::EveryN(8),
            snapshot_every: 0, // snapshots triggered explicitly below
        };
        let mirror = ShardedStore::new(4);
        let mut now = Time(0);
        let mut mirror_now = Time(0);
        {
            let (store, backend, _) =
                open_store_at(&cfg, 4, true, RecoverNow::At(now)).unwrap();
            for (i, op) in ops.iter().enumerate() {
                apply(&store, &mut now, op);
                apply(&mirror, &mut mirror_now, op);
                if i % snap_every_ops == snap_every_ops - 1 {
                    backend.snapshot_sharded(&store).unwrap();
                }
            }
        }
        let recover_at = now.plus(gap_ms);
        let (recovered, _backend, report) =
            open_store_at(&cfg, 4, true, RecoverNow::At(recover_at)).unwrap();
        recovered.check_consistent();
        mirror.sweep(recover_at);
        prop_assert_eq!(fingerprint(&recovered), fingerprint(&mirror));
        prop_assert_eq!(report.tail_lost_bytes, 0, "clean kill loses nothing");

        // Ordinal allocator resumes past everything ever issued.
        let max_ord = recovered
            .links()
            .iter()
            .map(|l| recovered.with_tuple(l, |t| t.ordinal).unwrap())
            .max();
        if let Some(m) = max_ord {
            recovered.upsert("http://fresh", "service", "c", recover_at, 10_000);
            let o = recovered.with_tuple("http://fresh", |t| t.ordinal).unwrap();
            prop_assert!(o > m, "fresh ordinal {} must exceed recovered max {}", o, m);
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
