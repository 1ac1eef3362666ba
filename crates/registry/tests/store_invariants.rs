//! Release-mode index-invariant proptests (satellite of the durability PR).
//!
//! `TupleStore::remove`/`sweep` maintain the type, context, expiry and
//! content indices; historically, stale entries were only caught by
//! `debug_assert`s, i.e. never in release builds. `check_consistent` uses
//! plain `assert!` and therefore works under `--release`; this suite drives
//! random upsert/set_content/clear_content/remove/sweep interleavings
//! through both store layouts and checks every secondary index against
//! `by_link` after each operation.

use proptest::prelude::*;
use std::sync::Arc;
use wsda_registry::clock::Time;
use wsda_registry::{ShardedStore, TupleStore};
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
        (0u8..10, 0u8..3, 0u8..3, 100u64..30_000).prop_map(|(id, ty, dom, ttl)| Op::Upsert {
            id,
            ty,
            dom,
            ttl
        }),
        (0u8..10, 0u8..5).prop_map(|(id, val)| Op::SetContent { id, val }),
        (0u8..10).prop_map(|id| Op::ClearContent { id }),
        (0u8..10).prop_map(|id| Op::Remove { id }),
        Just(Op::Sweep),
        (1u64..15_000).prop_map(|ms| Op::Advance { ms }),
    ]
}

fn link(id: u8) -> String {
    format!("http://svc/{id}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single store: every secondary index stays exactly consistent with
    /// `by_link` across arbitrary interleavings — verified with the
    /// release-active exhaustive check, not `debug_assert`.
    #[test]
    fn tuple_store_indices_stay_consistent(
        ops in proptest::collection::vec(arb_op(), 1..80),
        content_index in 0u8..2,
    ) {
        let mut s =
            if content_index == 1 { TupleStore::new() } else { TupleStore::without_content_index() };
        let mut now = Time(0);
        for op in &ops {
            match op {
                Op::Upsert { id, ty, dom, ttl } => {
                    s.upsert(
                        &link(*id),
                        TYPES[*ty as usize % TYPES.len()],
                        DOMAINS[*dom as usize % DOMAINS.len()],
                        now,
                        *ttl,
                    );
                }
                Op::SetContent { id, val } => {
                    let xml = format!("<service><load>{val}</load></service>");
                    s.set_content(&link(*id), &parse_fragment(&xml).unwrap(), now);
                }
                Op::ClearContent { id } => {
                    s.clear_content(&link(*id));
                }
                Op::Remove { id } => {
                    s.remove(&link(*id));
                }
                Op::Sweep => {
                    s.sweep(now);
                }
                Op::Advance { ms } => now = now.plus(*ms),
            }
            s.check_consistent();
        }
        // Post-sweep the store once more: a final sweep at a far-future
        // time must leave it empty and still consistent.
        s.sweep(now.plus(86_400_000));
        s.check_consistent();
        prop_assert!(s.is_empty(), "everything expires within a day");
    }

    /// Sharded store: same invariants per shard, plus the cross-shard
    /// observables (sorted links, next expiry) behave after each op.
    #[test]
    fn sharded_store_indices_stay_consistent(
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let s = ShardedStore::new(4);
        let mut now = Time(0);
        for op in &ops {
            match op {
                Op::Upsert { id, ty, dom, ttl } => {
                    s.upsert(
                        &link(*id),
                        TYPES[*ty as usize % TYPES.len()],
                        DOMAINS[*dom as usize % DOMAINS.len()],
                        now,
                        *ttl,
                    );
                }
                Op::SetContent { id, val } => {
                    let xml = format!("<service><load>{val}</load></service>");
                    s.install_content(&link(*id), &parse_fragment(&xml).unwrap(), now);
                }
                Op::ClearContent { id } => {
                    s.drop_content(&link(*id));
                }
                Op::Remove { id } => {
                    s.remove(&link(*id));
                }
                Op::Sweep => {
                    s.sweep(now);
                }
                Op::Advance { ms } => now = now.plus(*ms),
            }
            s.check_consistent();
            let links = s.links();
            prop_assert_eq!(links.len(), s.len());
            if let Some(next) = s.next_expiry() {
                prop_assert!(!links.is_empty(), "expiry queue nonempty implies tuples, next={}", next);
            }
        }
    }
}

/// Corpus tuples carry several values on one content path (two
/// `interface/@type`s each), which the content index must count as one
/// path per tuple: a registry of generated services stays consistent
/// through publish, refresh and unpublish, with the index on and off.
#[test]
fn corpus_registry_consistent_through_publish_refresh_unpublish() {
    use wsda_registry::clock::ManualClock;
    use wsda_registry::workload::CorpusGenerator;
    use wsda_registry::{HyperRegistry, RegistryConfig};

    for content_index in [true, false] {
        let registry = HyperRegistry::new(
            RegistryConfig { content_index, ..RegistryConfig::default() },
            Arc::new(ManualClock::new()),
        );
        let links = CorpusGenerator::new(7).populate(&registry, 24, 60_000);
        registry.check_consistent();
        for link in links.iter().step_by(2) {
            registry.refresh(link, Some(120_000)).unwrap();
        }
        registry.check_consistent();
        for link in links.iter().step_by(3) {
            registry.unpublish(link).unwrap();
        }
        registry.check_consistent();
        assert_eq!(registry.live_tuples(), links.len() - links.iter().step_by(3).count());
    }
}
