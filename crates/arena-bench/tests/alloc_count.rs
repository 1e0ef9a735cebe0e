//! Pins the tentpole property of the data-oriented estimator: after
//! warmup, the `2^Ns` plan-assembly step (`CellEstimator::assemble`)
//! runs entirely out of the thread-local scratch arena, so assembling a
//! Cell from a profile taken once, on cached tables, makes only the
//! handful of allocations that build its returned `CellEstimate`.
//!
//! Lives in its own test binary (not the lib's unit tests) because the
//! counting allocator's total is process-wide: here no sibling test can
//! allocate concurrently inside the measurement window. Run with
//! `cargo test -p arena-bench --features alloc-count`.

#![cfg(feature = "alloc-count")]

use arena::estimator::SoaProfiles;
use arena::prelude::*;
use arena_bench::alloc_count;
use std::hint::black_box;

#[test]
fn steady_state_assembly_loop_is_allocation_free() {
    let cluster = arena::cluster::presets::physical_testbed();
    let hw = arena::perf::HwTarget::new(cluster.spec(GpuTypeId(0)));
    let est = CellEstimator::new(CostParams::default(), 51);
    let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
    let cell = Cell::new(&g, 8, 4).expect("feasible cell");
    // Profile once, then warm the table cache and grow the thread-local
    // scratch arena to its steady-state capacity.
    let mut profiles = SoaProfiles::default();
    est.profile(&g, 256, &cell, &hw, &mut profiles);
    for _ in 0..3 {
        black_box(est.assemble(&profiles, &g, 256, &cell, &hw));
    }

    let iters = 64_u64;
    let before = alloc_count().expect("alloc-count feature active");
    for _ in 0..iters {
        black_box(est.assemble(&profiles, &g, 256, &cell, &hw));
    }
    let after = alloc_count().expect("alloc-count feature active");
    let per_iter = (after - before) / iters;

    // Only the returned estimate allocates (its pipeline-plan stages and
    // per-stage favors vectors); the assembly loop itself — candidate
    // collection, chain DP, mode reconstruction — must reuse scratch.
    // Before the rewrite this path made hundreds of allocations per call.
    assert!(
        per_iter <= 4,
        "assemble allocates {per_iter}x/iter in steady state; \
         the assembly loop is supposed to run out of the scratch arena"
    );
}
