//! Allocation regression test for the XNOR-GEMM conv engine.
//!
//! Same contract as `alloc_steady_state.rs`, for the GEMM engine at
//! every batch size: after one warm-up, `ExecPlan::run_into`,
//! `run_batch_into` and `run_batch_into_profiled` perform **zero** heap
//! allocations — the GEMM B tile, the popcount accumulator block, and
//! every staging buffer come from the [`Workspace`] arena.  The dense
//! im2row repack and the per-tile epilogue are the parts most tempted
//! to allocate (per-tile scratch, per-level vectors), and a batch that
//! splits into unequal chunks (a 1-item remainder) is the likeliest to
//! re-grow a pooled buffer, so the serving shapes — the paper net at
//! M = 3, triage-capped and full, one clip and three — are pinned here.
//!
//! The file intentionally holds a single `#[test]`: the counter is
//! process-global, and a sibling test allocating on another thread
//! while the measured window is open would produce false positives.

use hotspot_bnn::{BnnResNet, NetConfig, PackedBnn};
use hotspot_telemetry::SlotProfiler;
use hotspot_tensor::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Wraps the system allocator and counts every allocation made while
/// the measurement window is open (see `alloc_steady_state.rs`).
struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations made while `f` runs.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOC_CALLS.load(Ordering::SeqCst)
}

/// `len` pseudo-random ±1 values.
fn pm1(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state & 0x8000 == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

#[test]
fn warm_batched_forward_performs_zero_heap_allocations() {
    // M = 2 so the extra residual level reuses the packed B tiles —
    // the level loop is the likeliest place for a per-level temporary.
    let mut rng = StdRng::seed_from_u64(11);
    let net = BnnResNet::new(&NetConfig::tiny(16).with_levels(2), &mut rng);
    let packed = PackedBnn::compile(&net);
    let plan = packed.plan((16, 16));
    assert!(
        plan.gemm_tier(),
        "test net must compile with a GEMM tier or this guards nothing"
    );

    let n = 8;
    let input = pm1(n * 16 * 16, 0xba7c);
    let mut logits = vec![0.0f32; n * 2];

    // Warm-up: grows the workspace pool to its steady-state footprint.
    let mut ws = Workspace::new();
    plan.run_batch_into(&input, n, &mut ws, &mut logits);
    let warm = logits.clone();

    // Measured window: the second batched forward, warm workspace.
    let allocs = count_allocs(|| plan.run_batch_into(&input, n, &mut ws, &mut logits));

    assert_eq!(
        allocs, 0,
        "steady-state batched forward allocated {allocs} time(s); \
         the GEMM tier must draw B tiles and accumulators from the \
         workspace only"
    );
    assert_eq!(logits, warm, "the warm run must stay bit-identical");

    // Both entry points must also interleave cleanly on the same
    // workspace without re-growing it.
    plan.run_into(&input, n, &mut ws, &mut logits);
    let allocs = count_allocs(|| {
        plan.run_batch_into(&input, n, &mut ws, &mut logits);
        plan.run_into(&input, n, &mut ws, &mut logits);
    });
    assert_eq!(
        allocs, 0,
        "alternating run_batch_into/run_into forwards allocated \
         {allocs} time(s) on a warm workspace"
    );
    assert_eq!(logits, warm);

    // The serving shapes: the paper net at M = 3, capped to the M = 1
    // triage plan and full.  Its batch chunk is 2 clips, so n = 3 runs
    // a 2-clip chunk and a 1-clip remainder.
    let mut rng = StdRng::seed_from_u64(12);
    let config = NetConfig::paper_12layer().with_levels(3);
    let side = config.input_size;
    let paper = PackedBnn::compile(&BnnResNet::new(&config, &mut rng));
    let input = pm1(3 * side * side, 0x9a9e);
    let one = &input[..side * side];
    for (name, plan) in [
        ("capped", paper.plan_capped((side, side), 1)),
        ("full", paper.plan((side, side))),
    ] {
        assert!(plan.gemm_tier(), "{name} plan has no GEMM tier");
        let mut ws = Workspace::new();
        let mut prof = plan.profiler();
        let mut single = [0.0f32; 2];
        let mut three = [0.0f32; 6];
        let mut profiled = [0.0f32; 6];
        let mut calls = |ws: &mut Workspace, prof: &mut SlotProfiler| {
            [
                count_allocs(|| plan.run_into(one, 1, ws, &mut single)),
                count_allocs(|| plan.run_batch_into(one, 1, ws, &mut single)),
                count_allocs(|| plan.run_batch_into(&input, 3, ws, &mut three)),
                count_allocs(|| plan.run_batch_into_profiled(&input, 3, ws, &mut profiled, prof)),
            ]
        };
        calls(&mut ws, &mut prof); // warm-up
        let allocs = calls(&mut ws, &mut prof);
        assert_eq!(
            allocs, [0; 4],
            "{name} plan: warm allocations per call [run_into n=1, \
             run_batch_into n=1, run_batch_into n=3, \
             run_batch_into_profiled n=3]"
        );
        assert_eq!(profiled, three, "{name} plan: profiling changed the math");
        assert_eq!(single[..], three[..2], "{name} plan: batch changed clip 0");
    }
}
