//! Allocation regression test for the XNOR-GEMM conv engine and the
//! cascade that serves it.
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
//! So is `Cascade::run` on that net, the call every served batch and
//! scan row makes: its triage logits and its confirm batch come from
//! the workspace too, at n ∈ {1, 3, 16}, with a threshold that
//! escalates some clips and with threshold 0.
//!
//! The file intentionally holds a single `#[test]`: the counter is
//! process-global, and a sibling test allocating on another thread
//! while the measured window is open would produce false positives.

use hotspot_bnn::{BnnResNet, Cascade, NetConfig, PackedBnn};
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

    // The cascade on the same net.  The mid-band threshold lies between
    // the 8th and 9th smallest |triage margin| of 16 clips, so a full
    // batch escalates some clips but not all.
    let cascade = Cascade::new(&paper, side);
    let input = pm1(16 * side * side, 0xca5c);
    let mut ws = Workspace::new();
    let mut scored = [(0.0f32, false); 16];
    cascade.run(&input, 0.0, &mut ws, &mut scored, None);
    let mut abs: Vec<f32> = scored.iter().map(|s| s.0.abs()).collect();
    abs.sort_by(f32::total_cmp);
    let mid = (abs[7] + abs[8]) / 2.0;
    for threshold in [mid, 0.0] {
        for n in [1, 3, 16] {
            let (x, out) = (&input[..n * side * side], &mut scored[..n]);
            cascade.run(x, threshold, &mut ws, out, None); // warm-up
            let allocs = count_allocs(|| cascade.run(x, threshold, &mut ws, out, None));
            assert_eq!(
                allocs, 0,
                "warm cascade run allocated {allocs} time(s) at n = {n}, threshold {threshold}"
            );
        }
        let escalated = scored.iter().filter(|s| s.1).count();
        if threshold == 0.0 {
            assert_eq!(escalated, 0, "threshold 0 must not escalate");
        } else {
            assert!(
                escalated > 0 && escalated < 16,
                "the mid-band threshold escalated {escalated} of 16 clips"
            );
        }
    }
}
