//! Deterministic memory-footprint gate for the simulator.
//!
//! A counting global allocator (installed in this test binary only) tracks
//! the heap bytes the calling thread holds live, so each check below reads
//! exactly what one structure retains. Unlike resident-set size, these
//! numbers do not depend on the host, the allocator's page reuse or other
//! tests running alongside.
//!
//! The paper's Section V scenarios put sessions of up to 200 members on
//! 1000-node trees and forward along per-source shortest-path trees; the
//! pins below hold that shape to its current size. A change that grows it
//! on purpose re-measures (the failure message prints the new figure) and
//! re-pins about 15% above it.

use netsim::generators::bounded_degree_tree;
use netsim::routing::SpTree;
use netsim::NodeId;
use srm::SrmConfig;
use srm_experiments::fig4;
use srm_experiments::round::run_round;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the live bytes of each thread.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(delta: i64) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes the current thread holds live.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// One shortest-path tree over a 1000-node bounded-degree tree: a flat
/// layout costs about 32 bytes per node (distance, parent, hop count, one
/// row start and one child entry).
#[test]
fn spt_bytes_per_node() {
    let n = 1000;
    let topo = bounded_degree_tree(n, 4);
    let before = live();
    let tree = SpTree::compute(&topo, NodeId(0));
    let bytes = live() - before;
    assert!(tree.reachable(NodeId(n as u32 - 1)));
    let per_node = bytes as f64 / n as f64;
    assert!(
        per_node <= 40.0,
        "SpTree holds {bytes} B for {n} nodes ({per_node:.1} B/node, limit 40)"
    );
}

/// Heap held by the largest Fig-4 session (G = 200 on 1000 nodes) after
/// its build (measured: 3,654,839 B).
const PIN_BUILD_BYTES: i64 = 4_200_000;

/// The same session after 20 recovery rounds: cached trees, prune masks
/// and per-loss agent state included (measured: 7,936,475 B).
const PIN_ROUNDS_BYTES: i64 = 9_130_000;

#[test]
fn fig4_session_footprint() {
    let before = live();
    let mut s = fig4::spec(200, 0, SrmConfig::fixed(200)).build();
    let built = live() - before;
    for _ in 0..20 {
        let r = run_round(&mut s, 100_000.0);
        assert!(r.all_recovered);
    }
    let after_rounds = live() - before;
    assert!(
        built <= PIN_BUILD_BYTES,
        "built session holds {built} B, pinned at most {PIN_BUILD_BYTES} B"
    );
    assert!(
        after_rounds <= PIN_ROUNDS_BYTES,
        "session holds {after_rounds} B after 20 rounds, pinned at most {PIN_ROUNDS_BYTES} B"
    );
}
