//! Tuple documents are updated in place, never re-rendered: these tests
//! hold them to a reference rendering built from the tuple's fields.
//!
//! Random sequences of publish, refresh, type/context change, content
//! install and clear, unpublish and snapshot-plus-recover run over a
//! durable store. After every step each live tuple's document must
//! serialize exactly like the reference, which renders the whole tuple
//! anew the way the registry did before documents were kept current.
//! A reader holding a document across a mutation must keep seeing the
//! version it took (copy-on-write).

use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wsda_registry::clock::Time;
use wsda_registry::persist::{open_store_at, FsyncPolicy, PersistenceConfig, RecoverNow};
use wsda_registry::{ShardedStore, Tuple, TupleStore};
use wsda_xml::{parse_fragment, Element};

const TYPES: [&str; 2] = ["service", "monitor"];
const DOMAINS: [&str; 2] = ["cms.cern.ch", "fnal.gov"];

/// `Publish` upserts with a random type and context: a first publication,
/// a refresh, or a refresh that retags or moves the tuple. `Refresh`
/// upserts with the tuple's current type and context.
#[derive(Debug, Clone)]
enum Op {
    Publish { id: u8, ty: u8, dom: u8, ttl: u64 },
    Refresh { id: u8, ttl: u64 },
    SetContent { id: u8, val: u8 },
    ClearContent { id: u8 },
    Unpublish { id: u8 },
    SnapshotRecover,
    Advance { ms: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 0u8..2, 0u8..2, 1_000u64..60_000).prop_map(|(id, ty, dom, ttl)| Op::Publish {
            id,
            ty,
            dom,
            ttl
        }),
        (0u8..6, 1_000u64..60_000).prop_map(|(id, ttl)| Op::Refresh { id, ttl }),
        (0u8..6, 0u8..4).prop_map(|(id, val)| Op::SetContent { id, val }),
        (0u8..6).prop_map(|id| Op::ClearContent { id }),
        (0u8..6).prop_map(|id| Op::Unpublish { id }),
        Just(Op::SnapshotRecover),
        (1u64..5_000).prop_map(|ms| Op::Advance { ms }),
    ]
}

fn link(id: u8) -> String {
    format!("http://svc/{id}")
}

fn content(val: u8) -> String {
    format!(r#"<service kind="k{val}"><owner>cms</owner><load>{val}</load><!--n--></service>"#)
}

fn fresh_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "wsda-tupledoc-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The tuple rendered anew out of its fields and the content the test
/// installed: the body of the registry's former `Tuple::to_xml`.
fn reference(t: &Tuple, content: Option<&Element>) -> String {
    let mut e = Element::new("tuple")
        .with_attr("link", t.link.clone())
        .with_attr("type", t.type_.clone())
        .with_attr("ctx", t.context.clone())
        .with_attr("ts1", t.inserted.millis().to_string())
        .with_attr("ts2", t.refreshed.millis().to_string())
        .with_attr("ttl", t.ttl_ms.to_string());
    if let Some(tc) = t.content_cached {
        e.set_attr("tc", tc.millis().to_string());
    }
    let mut content_elem = Element::new("content");
    if let Some(c) = content {
        content_elem.push(Element::clone(c));
    }
    e.push(content_elem);
    e.to_compact_string()
}

/// Every live tuple's document against the reference; `installed` maps a
/// link to the content the test last installed for it.
fn check_documents(store: &ShardedStore, installed: &HashMap<String, Element>) {
    for l in store.links() {
        let (doc, want, cached) = store
            .with_tuple(&l, |t| {
                let want = reference(t, installed.get(&l));
                let cached = t.content().map(Element::to_compact_string);
                (t.to_xml().to_compact_string(), want, cached)
            })
            .unwrap();
        assert_eq!(doc, want, "document of {l} diverges from its fields");
        assert_eq!(cached, installed.get(&l).map(Element::to_compact_string));
    }
}

/// Apply one mutation to `link`'s shard.
fn mutate(store: &ShardedStore, l: &str, now: Time, op: &Op) {
    let mut shard = store.write_shard(store.shard_of(l));
    let shard: &mut TupleStore = &mut shard;
    match op {
        Op::Publish { ty, dom, ttl, .. } => {
            shard.upsert(l, TYPES[*ty as usize], DOMAINS[*dom as usize], now, *ttl);
        }
        Op::Refresh { ttl, .. } => {
            if let Some((ty, ctx)) = shard.get(l).map(|t| (t.type_.clone(), t.context.clone())) {
                shard.upsert(l, &ty, &ctx, now, *ttl);
            }
        }
        Op::SetContent { val, .. } => {
            shard.set_content(l, &parse_fragment(&content(*val)).unwrap(), now);
        }
        Op::ClearContent { .. } => {
            shard.clear_content(l);
        }
        Op::Unpublish { .. } => {
            shard.remove(l);
        }
        Op::SnapshotRecover | Op::Advance { .. } => unreachable!("not a per-link mutation"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every step, every live tuple's document equals the reference
    /// rendering, and a document taken before a mutation still serializes
    /// as it did when it was taken.
    #[test]
    fn tuple_documents_match_the_reference_rendering(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let dir = fresh_dir();
        let cfg = PersistenceConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 0,
        };
        let mut now = Time(0);
        let (mut store, mut backend, _) =
            open_store_at(&cfg, 2, true, RecoverNow::At(now)).unwrap();
        let mut installed: HashMap<String, Element> = HashMap::new();
        for op in &ops {
            match op {
                Op::Advance { ms } => now = now.plus(*ms),
                Op::SnapshotRecover => {
                    backend.snapshot_sharded(&store).unwrap();
                    drop((store, backend));
                    (store, backend, _) =
                        open_store_at(&cfg, 2, true, RecoverNow::At(now)).unwrap();
                    // Recovery sweeps what expired by `now`.
                    installed.retain(|l, _| store.contains(l));
                }
                Op::Publish { id, .. }
                | Op::Refresh { id, .. }
                | Op::SetContent { id, .. }
                | Op::ClearContent { id }
                | Op::Unpublish { id } => {
                    let l = link(*id);
                    let held = store.with_tuple(&l, |t| t.to_xml());
                    let held_xml = held.as_ref().map(|d| d.to_compact_string());
                    mutate(&store, &l, now, op);
                    prop_assert_eq!(
                        held.map(|d| d.to_compact_string()),
                        held_xml,
                        "a held document changed under {:?}",
                        op
                    );
                    let live = store.contains(&l);
                    match op {
                        Op::SetContent { val, .. } if live => {
                            installed.insert(l, parse_fragment(&content(*val)).unwrap());
                        }
                        Op::ClearContent { .. } | Op::Unpublish { .. } => {
                            installed.remove(&l);
                        }
                        _ => {}
                    }
                }
            }
            check_documents(&store, &installed);
        }
        store.check_consistent();
        drop((store, backend));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A query that took a tuple's document before a refresh keeps the old
/// `ts2`; the tuple's own document shows the new one.
#[test]
fn a_reader_keeps_its_snapshot_across_a_refresh() {
    let mut store = TupleStore::new();
    store.upsert("http://a", "service", "cern.ch", Time(10), 1_000);
    store.set_content("http://a", &parse_fragment("<x>1</x>").unwrap(), Time(20));
    let before = store.get("http://a").unwrap().to_xml();
    store.upsert("http://a", "service", "cern.ch", Time(500), 2_000);
    let after = store.get("http://a").unwrap().to_xml();
    assert_eq!(before.attr("ts2"), Some("10"));
    assert_eq!(before.attr("ttl"), Some("1000"));
    assert_eq!(after.attr("ts2"), Some("500"));
    assert_eq!(after.attr("ttl"), Some("2000"));
    assert_eq!(after.attr("tc"), Some("20"));
    assert!(!Arc::ptr_eq(&before, &after), "the refresh copied the shared document");
    drop(before);
    // With no reader left, the next refresh updates the document in place.
    let ptr = Arc::as_ptr(&after);
    drop(after);
    store.upsert("http://a", "service", "cern.ch", Time(600), 2_000);
    assert_eq!(Arc::as_ptr(&store.get("http://a").unwrap().to_xml()), ptr);
}
