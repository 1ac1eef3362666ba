//! A memory guard for per-transaction state.
//!
//! Every node keeps each transaction's state for the static loop timeout
//! (120 s by default), so late duplicates are still recognized after the
//! transaction finishes. A live federation serving many queries a second
//! holds that state for thousands of transactions at once. This test
//! counts the bytes a simulated flood leaves allocated per transaction
//! per node, with a counting global allocator, once state stops expiring:
//! 16 nodes of `random_connected(16, 3.0, 1)`, no trace ring, 1,000 routed
//! T1 queries after 50 warm-up queries.
//!
//! Recovery on keeps acks' replay detection: one frame record per sender.
//! Recovery off keeps only the loop detector and the core's record.
//!
//! This binary holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wsda_net::model::NetworkModel;
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_registry::workload::t1_queries;
use wsda_updf::{P2pConfig, RecoveryConfig, SimNetwork, Topology};

/// Counts the bytes requested from the system allocator, and those
/// returned to it.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds to two statistics counters, so each upholds
// exactly the contract `System` upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which got it from
        // `System` with the same `layout`.
        unsafe { System.dealloc(ptr, layout) };
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
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

/// Bytes allocated and not yet freed. Reading the frees first keeps the
/// difference from going negative if another thread allocates between
/// the two reads.
fn live_bytes() -> usize {
    let freed = FREED.load(Ordering::SeqCst);
    ALLOCATED.load(Ordering::SeqCst) - freed
}

const NODES: usize = 16;
const WARM_UP: usize = 50;
const QUERIES: usize = 1_000;

/// Bytes a routed query leaves allocated per node once the network is
/// warm, with state kept past the whole run.
fn retained_per_transaction_per_node(recovery: RecoveryConfig) -> f64 {
    let topology = Topology::random_connected(NODES, 3.0, 1);
    let config = P2pConfig { recovery, trace_capacity: 0, ..P2pConfig::default() };
    let mut net = SimNetwork::build(topology, NetworkModel::constant(10), config);
    let queries = t1_queries();
    let scope = Scope { loop_timeout_ms: 1 << 40, ..Scope::default() };
    let mut flood = |i: usize| {
        let (_, _, query) = queries[i % queries.len()];
        let run = net.run_query(NodeId(0), query, scope.clone(), ResponseMode::Routed);
        assert!(run.completeness.is_complete(), "query {i}");
    };
    for i in 0..WARM_UP {
        flood(i);
    }
    let before = live_bytes();
    for i in WARM_UP..WARM_UP + QUERIES {
        flood(i);
    }
    let after = live_bytes();
    drop(net);
    after.saturating_sub(before) as f64 / (QUERIES * NODES) as f64
}

#[test]
fn a_finished_transaction_keeps_a_few_hundred_bytes_per_node() {
    let on = retained_per_transaction_per_node(RecoveryConfig::on());
    let off = retained_per_transaction_per_node(RecoveryConfig::default());
    println!("retained per transaction per node: recovery on {on:.0} B, off {off:.0} B");
    // A separate result ledger, `Txn` map and state table kept 826 B with
    // recovery on and 343 B with it off.
    assert!(on <= 400.0, "recovery on keeps {on:.0} B per transaction per node");
    assert!(off <= 341.0, "recovery off keeps {off:.0} B per transaction per node");
}
