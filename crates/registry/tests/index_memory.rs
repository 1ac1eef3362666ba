//! Memory and allocation guards for the registry's write path.
//!
//! Every live peer keeps a default registry (16 shards, content index on)
//! with about a hundred service tuples. The first test counts, with a
//! counting global allocator, what the inverted content index costs per
//! published tuple: the heap blocks and bytes it keeps alive and the
//! allocations a publish makes in it, as the difference between the same
//! build with the index on and off. The postings name tuples, paths and
//! values by interned `u32` ids, and a tuple keeps 29 blocks and ~2,520 B
//! of index and makes 35 allocations in it; with a copy of the link in
//! every posting and a `String` per path segment and value it kept 74
//! blocks and 5,294 B and made 192.
//!
//! The second test counts the allocations of a lease refresh, which
//! renews the tuple in place and writes its timestamps without a heap
//! string: only the expiry queue's entry for the new deadline allocates
//! (1.3 allocations on average; 5.3 with copies of the type and context
//! and a heap string per timestamp).
//!
//! The two tests share the process-wide counters, so they take one lock
//! and run one after the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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

/// Serializes the tests: both read the process-wide counters.
static COUNTERS: Mutex<()> = Mutex::new(());

/// Live heap blocks, requested bytes and allocations made so far. Reading
/// the frees first keeps each figure from going negative.
fn live() -> [f64; 3] {
    let (frees, freed) = (FREES.load(Ordering::SeqCst), FREED.load(Ordering::SeqCst));
    let allocs = ALLOCS.load(Ordering::SeqCst);
    [(allocs - frees) as f64, (ALLOCATED.load(Ordering::SeqCst) - freed) as f64, allocs as f64]
}

const REGISTRIES: usize = 16;
const TUPLES_PER_REGISTRY: usize = 100;

/// A live peer's registry: default shards and content index, leases as
/// long as the live network allows.
fn live_config(content_index: bool) -> RegistryConfig {
    RegistryConfig { content_index, max_ttl_ms: u64::MAX / 4, ..RegistryConfig::default() }
}

fn corpus(registry: usize) -> Vec<PublishRequest> {
    let mut generator = CorpusGenerator::new(registry as u64);
    (0..TUPLES_PER_REGISTRY)
        .map(|_| {
            let (link, _kind, domain, content) = generator.next_service();
            PublishRequest::new(&link, "service")
                .with_context(domain)
                .with_ttl_ms(u64::MAX / 8)
                .with_content(content)
        })
        .collect()
}

/// Blocks and bytes kept alive and allocations made by publishing the
/// corpus into live-peer registries, with the content index on or off.
/// The registries and every request are built before counting starts.
fn publish_all(content_index: bool) -> (Vec<HyperRegistry>, [f64; 3]) {
    let clock = Arc::new(ManualClock::new());
    let registries: Vec<HyperRegistry> = (0..REGISTRIES)
        .map(|_| HyperRegistry::new(live_config(content_index), clock.clone()))
        .collect();
    let requests: Vec<Vec<PublishRequest>> = (0..REGISTRIES).map(corpus).collect();
    let before = live();
    for (registry, requests) in registries.iter().zip(requests) {
        for request in requests {
            registry.publish(request).expect("synthetic publish");
        }
    }
    let after = live();
    (registries, [0, 1, 2].map(|i| after[i] - before[i]))
}

#[test]
fn the_content_index_costs_under_three_kilobytes_per_tuple() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (indexed, on) = publish_all(true);
    let (plain, off) = publish_all(false);
    let tuples = (REGISTRIES * TUPLES_PER_REGISTRY) as f64;
    let [blocks, bytes, allocs] = [0, 1, 2].map(|i| (on[i] - off[i]) / tuples);
    println!(
        "content index per published tuple: {blocks:.1} heap blocks, {bytes:.0} B, \
         {allocs:.1} allocations per publish"
    );
    for registries in [&indexed, &plain] {
        assert_eq!(
            registries.iter().map(HyperRegistry::live_tuples).sum::<usize>(),
            REGISTRIES * TUPLES_PER_REGISTRY
        );
    }
    assert!(blocks <= 40.0, "the index keeps {blocks:.1} heap blocks per tuple");
    assert!(bytes <= 3_000.0, "the index keeps {bytes:.0} B per tuple");
    assert!(allocs <= 90.0, "a publish makes {allocs:.1} allocations in the index");
}

#[test]
fn a_lease_refresh_allocates_only_its_expiry_entry() {
    const ROUNDS: u64 = 10;
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let clock = Arc::new(ManualClock::new());
    let registry = HyperRegistry::new(live_config(true), clock.clone());
    let links: Vec<String> = corpus(0).into_iter().map(|request| request.link).collect();
    for request in corpus(0) {
        registry.publish(request).expect("synthetic publish");
    }
    let [_, _, before] = live();
    for _ in 0..ROUNDS {
        // Each round renews every lease to a new deadline, so each refresh
        // moves its tuple in the expiry queue.
        clock.advance(1_000);
        for link in &links {
            registry.refresh(link, Some(u64::MAX / 8)).expect("refresh a live tuple");
        }
    }
    let [_, _, after] = live();
    let per_refresh = (after - before) / (ROUNDS as f64 * links.len() as f64);
    println!("{per_refresh:.2} allocations per refresh");
    assert_eq!(registry.live_tuples(), links.len());
    assert!(per_refresh <= 2.0, "a refresh makes {per_refresh:.2} allocations");
}
