//! Allocation regression test for the workspace-backed inference path.
//!
//! The contract from the execution-plan design (see DESIGN.md): after
//! one warm-up forward has grown the [`Workspace`] to its steady-state
//! footprint, every subsequent `ExecPlan::run_into` call performs
//! **zero** heap allocations.  This test enforces that with a counting
//! global allocator, so a future change that sneaks a `Vec::new` or a
//! `Tensor` temporary into the hot path fails CI instead of silently
//! regressing throughput.
//!
//! The file intentionally holds a single `#[test]`: the counter is
//! process-global, and a sibling test allocating on another thread
//! while the measured window is open would produce false positives.

use hotspot_bnn::{BnnResNet, NetConfig, PackedBnn};
use hotspot_tensor::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Wraps the system allocator and counts every allocation made while
/// the measurement window is open.  Deallocations are not counted:
/// freeing is fine in a steady state, allocating is not (and the plan
/// path does neither).
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

#[test]
fn warm_plan_forward_performs_zero_heap_allocations() {
    let mut rng = StdRng::seed_from_u64(7);
    let net = BnnResNet::new(&NetConfig::tiny(16), &mut rng);
    let packed = PackedBnn::compile(&net);
    let plan = packed.plan((16, 16));

    let n = 3;
    let mut state = 0x5eed_u32;
    let input: Vec<f32> = (0..n * 16 * 16)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state & 0x8000 == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let mut logits = vec![0.0f32; n * 2];

    // Warm-up: grows the workspace pool to its steady-state footprint.
    let mut ws = Workspace::new();
    plan.run_into(&input, n, &mut ws, &mut logits);
    let warm = logits.clone();

    // Measured window: the second forward through the warm workspace.
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    plan.run_into(&input, n, &mut ws, &mut logits);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst);

    assert_eq!(
        allocs, 0,
        "steady-state plan forward allocated {allocs} time(s); \
         the warm path must reuse workspace buffers only"
    );
    // And the answer is still right (identical to the warm-up run).
    assert_eq!(logits, warm);

    // Working-set shape (DESIGN.md §5f): the fused binarize-pack path
    // removed the full-resolution `normed` f32 staging buffer, so a
    // scaled conv step now holds at most five f32 buffers at once —
    // the three plan ping-pong buffers plus the scale map and the
    // per-pixel channel mean.  The old path needed a sixth.  Pinning
    // the pool shape here catches that buffer (or any new staging
    // temporary) sneaking back into the hot path.
    let [f32s, i32s, u64s, f64s] = ws.pooled_buffer_counts();
    assert!(
        f32s <= 5,
        "expected at most 5 pooled f32 buffers (plan b0/b1/b2 + scale \
         map + channel mean), got {f32s}"
    );
    assert!(i32s <= 1, "one popcount accumulator block, got {i32s}");
    // Every conv interior runs the XNOR-GEMM engine, which stages its
    // dense B tile next to the packed input words.
    assert!(
        u64s <= 2,
        "one packed-words buffer and one GEMM B tile, got {u64s}"
    );
    assert!(
        f64s <= 1,
        "one sliding-filter column-sum buffer, got {f64s}"
    );

    // Telemetry contract (DESIGN.md §5e): a warm profiled forward also
    // allocates nothing — SlotProfiler::record_since is plain u64
    // arithmetic into preallocated slot arrays, and the clock is a
    // monotonic counter read.  The profiler itself allocates at build
    // time, outside the measured window.
    let mut prof = plan.profiler();
    plan.run_batch_into_profiled(&input, n, &mut ws, &mut logits, &mut prof);

    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    plan.run_batch_into_profiled(&input, n, &mut ws, &mut logits, &mut prof);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst);

    assert_eq!(
        allocs, 0,
        "warm profiled forward allocated {allocs} time(s); \
         per-layer timing must stay allocation-free"
    );
    assert_eq!(logits, warm, "profiling must not change the math");
    assert!(prof.report().iter().all(|s| s.calls == 2));
}
