//! A memory guard for published tuples.
//!
//! Every node of a simulated overlay holds a lean registry (one shard, no
//! content index) with a few service tuples, and at 10^4 nodes those
//! tuples are most of the process's memory. This test counts, with a
//! counting global allocator, the heap blocks and bytes each published
//! tuple keeps alive: 1,000 lean registries, 4 tuples each from
//! `CorpusGenerator::next_service`, published the way the simulator
//! publishes a node's corpus.
//!
//! Most strings in a rendered service tuple (names, attribute values,
//! texts) are short enough to live inline in the document's nodes, and the
//! document's vectors are built at exact size. With a heap block per
//! string and amortized vector growth a tuple kept 68 blocks and 3,731 B.
//!
//! This binary holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use wsda_registry::clock::ManualClock;
use wsda_registry::workload::CorpusGenerator;
use wsda_registry::{HyperRegistry, PublishRequest, RegistryConfig};

/// Counts the blocks and bytes requested from the system allocator, and
/// those returned to it.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);

fn count_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED.fetch_add(size, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds to statistics counters, so each upholds exactly
// the contract `System` upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which got it from
        // `System` with the same `layout`.
        unsafe { System.dealloc(ptr, layout) };
        FREES.fetch_add(1, Ordering::Relaxed);
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's. A realloc
        // keeps one block, so only the byte counters move.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            FREED.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Live heap blocks and requested bytes. Reading the frees first keeps
/// the differences from going negative.
fn live() -> (usize, usize) {
    let (frees, freed) = (FREES.load(Ordering::SeqCst), FREED.load(Ordering::SeqCst));
    (ALLOCS.load(Ordering::SeqCst) - frees, ALLOCATED.load(Ordering::SeqCst) - freed)
}

const REGISTRIES: usize = 1_000;
const TUPLES_PER_REGISTRY: usize = 4;

#[test]
fn a_published_service_tuple_keeps_about_thirty_blocks() {
    let clock = Arc::new(ManualClock::new());
    let config = RegistryConfig {
        shards: 1,
        content_index: false,
        max_ttl_ms: u64::MAX / 4,
        ..RegistryConfig::default()
    };
    let registries: Vec<HyperRegistry> =
        (0..REGISTRIES).map(|_| HyperRegistry::new(config.clone(), clock.clone())).collect();
    let (blocks_before, bytes_before) = live();
    for (i, registry) in registries.iter().enumerate() {
        let mut generator = CorpusGenerator::new(i as u64);
        for _ in 0..TUPLES_PER_REGISTRY {
            let (link, _kind, domain, content) = generator.next_service();
            registry
                .publish(
                    PublishRequest::new(&link, "service")
                        .with_context(domain)
                        .with_ttl_ms(u64::MAX / 8)
                        .with_content(content),
                )
                .expect("synthetic publish");
        }
    }
    let (blocks_after, bytes_after) = live();
    let tuples = (REGISTRIES * TUPLES_PER_REGISTRY) as f64;
    let blocks = (blocks_after - blocks_before) as f64 / tuples;
    let bytes = (bytes_after - bytes_before) as f64 / tuples;
    println!("per published tuple: {blocks:.1} heap blocks, {bytes:.0} B");
    assert_eq!(
        registries.iter().map(HyperRegistry::live_tuples).sum::<usize>(),
        REGISTRIES * TUPLES_PER_REGISTRY
    );
    assert!(blocks <= 32.0, "a tuple keeps {blocks:.1} heap blocks");
    assert!(bytes <= 3_150.0, "a tuple keeps {bytes:.0} B");
}
