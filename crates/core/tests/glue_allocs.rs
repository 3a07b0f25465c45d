//! The in-transit topology stage allocates per part, not per vertex.
//!
//! A counting global allocator (alone in this test binary) counts the
//! heap allocations and reallocations one `HybridTopology` aggregation
//! makes on its thread: a fresh aggregator fed the four encoded parts of
//! a 2×2×1 run, then finished. From a 32³ to a 48³ domain the vertex
//! count nearly doubles (982 to 1,931); the allocation count may grow
//! only with its logarithm (list doubling), not by one per vertex.

use sitra_core::analysis::{Analysis, HybridTopology};
use sitra_core::wire::{decode_subtree, encode_subtree};
use sitra_mesh::{exchange_ghosts, Decomposition, ScalarField};
use sitra_sim::{SimConfig, Simulation, Variable};
use sitra_topology::distributed::{rank_subtree, BoundaryPolicy};
use sitra_topology::Connectivity;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The encoded parts of an `n`³ Temperature field over 2×2×1 ranks
/// (seed 11, step 6: the `e2e` `topo-local` shape at `n = 48`), and
/// their declared vertex count.
fn parts(n: usize) -> (Vec<bytes::Bytes>, usize) {
    let mut sim = Simulation::new(SimConfig::small([n; 3], 11));
    for _ in 0..6 {
        sim.advance();
    }
    let d = Decomposition::new(sim.global(), [2, 2, 1]);
    let blocks: Vec<ScalarField> = (0..d.rank_count())
        .map(|r| sim.block_field(Variable::Temperature, &d.block(r)))
        .collect();
    let (ghosted, _) = exchange_ghosts(&d, &blocks, 1);
    let parts: Vec<_> = (0..d.rank_count())
        .map(|r| {
            let (conn, policy) = (Connectivity::Six, BoundaryPolicy::BoundaryMaxima);
            encode_subtree(&rank_subtree(&d, r, &ghosted[r], conn, policy))
        })
        .collect();
    let verts = (parts.iter())
        .map(|p| decode_subtree(p.clone()).expect("valid part").verts.len())
        .sum();
    (parts, verts)
}

/// Allocations of one aggregation of `parts` on this thread.
fn aggregation_allocs(parts: &[bytes::Bytes]) -> usize {
    let before = ALLOCS.with(Cell::get);
    let mut agg = HybridTopology::default()
        .streaming_aggregator(6)
        .expect("topology streams");
    for (rank, part) in parts.iter().enumerate() {
        agg.feed(rank, part.clone());
    }
    std::hint::black_box(agg.finish());
    ALLOCS.with(Cell::get) - before
}

#[test]
fn aggregation_allocates_per_part_not_per_vertex() {
    let (small, small_verts) = parts(32);
    let (large, large_verts) = parts(48);
    assert!(
        2 * large_verts > 3 * small_verts,
        "{large_verts} vs {small_verts} vertices"
    );
    let (a, b) = (aggregation_allocs(&small), aggregation_allocs(&large));
    eprintln!("allocations: {a} for {small_verts} vertices, {b} for {large_verts}");
    assert!(
        b <= a + 16,
        "{b} allocations at {large_verts} vertices, {a} at {small_verts}"
    );
}
