//! The scanner's backbone guarantee: `Scanner::scan` (the cascade plus
//! the content-dedup cache) is **bit-identical** to naive
//! crop-and-classify (`scan_naive`, no cache) — every window margin,
//! verdict, escalation flag, and merged region — across strides, chip
//! shapes (aligned, misaligned, smaller than the window), cascade
//! settings, dedup on/off, and kernel backends (CI runs this file once
//! per forced backend via `HOTSPOT_KERNEL_BACKEND`).

use hotspot_bnn::{active_backend, BnnResNet, NetConfig, PackedBnn, ScanConfig, Scanner};
use hotspot_geometry::BitImage;
use hotspot_tensor::Workspace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn tiny_model() -> &'static PackedBnn {
    static M: OnceLock<PackedBnn> = OnceLock::new();
    M.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(7);
        PackedBnn::compile(&BnnResNet::new(
            &NetConfig::tiny(16).with_levels(2),
            &mut rng,
        ))
    })
}

fn paper_model() -> &'static PackedBnn {
    static M: OnceLock<PackedBnn> = OnceLock::new();
    M.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(2019);
        PackedBnn::compile(&BnnResNet::new(
            &NetConfig::paper_12layer().with_levels(2),
            &mut rng,
        ))
    })
}

/// Deterministic random chip (LCG so proptest shrinking stays stable).
fn random_image(w: usize, h: usize, seed: u64, density_shift: u32) -> BitImage {
    let mut img = BitImage::new(w, h);
    let mut state = seed | 1;
    for y in 0..h {
        for x in 0..w {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 33) & ((1 << density_shift) - 1) == 0 {
                img.set(x, y, true);
            }
        }
    }
    img
}

#[allow(clippy::too_many_arguments)]
fn assert_scan_equivalent(
    model: &PackedBnn,
    window: usize,
    stride: usize,
    dims: (usize, usize),
    seed: u64,
    density_shift: u32,
    cascade_threshold: f32,
    triage_only: bool,
    dedup: bool,
) {
    let config = ScanConfig {
        stride,
        cascade_threshold,
        triage_only,
        dedup,
    };
    let scanner = Scanner::with_backend(model, window, config, active_backend());
    let img = random_image(dims.0, dims.1, seed, density_shift);
    let mut ws = Workspace::new();
    let fast = scanner.scan(&img, &mut ws);
    let slow = scanner.scan_naive(&img, &mut ws);
    assert_eq!(fast.windows, slow.windows);
    assert_eq!(
        fast.verdicts,
        slow.verdicts,
        "scan must be bit-identical to crop-and-classify \
         (window {window}, stride {stride}, dims {dims:?}, thr {cascade_threshold}, \
          triage_only {triage_only}, dedup {dedup}, backend {:?})",
        active_backend()
    );
    assert_eq!(fast.regions, slow.regions);
    assert_eq!(fast.escalated, slow.escalated);
    // Accounting: every window is either scored or a cache hit.
    assert_eq!(fast.fallback + fast.dedup_hits, fast.windows);
    assert_eq!(slow.fallback, slow.windows);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tiny 16-window net: strides below/at the window, chips aligned,
    /// misaligned, and smaller than the window.
    #[test]
    fn tiny_scan_equivalent(
        seed in any::<u64>(),
        density_shift in 1u32..4,
        stride_i in 0usize..3,
        dims_i in 0usize..5,
        thr_i in 0usize..3,
        triage_only in any::<bool>(),
        dedup in any::<bool>(),
    ) {
        let stride = [4usize, 8, 16][stride_i];
        let dims = [(16, 16), (23, 19), (40, 33), (48, 48), (10, 12)][dims_i];
        let thr = [0.0f32, 0.3, f32::INFINITY][thr_i];
        assert_scan_equivalent(
            tiny_model(), 16, stride, dims, seed, density_shift, thr, triage_only, dedup,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The paper's 12-layer net at its native 128 window, M = 2, the
    /// production strides {32, 64, 128}.  (151 wide forces an
    /// odd-offset flush column.)
    #[test]
    fn paper_scan_equivalent(
        seed in any::<u64>(),
        stride_i in 0usize..3,
        dims_i in 0usize..3,
        thr_i in 0usize..3,
        dedup in any::<bool>(),
    ) {
        let stride = [32usize, 64, 128][stride_i];
        let dims = [(192, 256), (128, 128), (151, 170)][dims_i];
        let thr = [0.0f32, 0.3, f32::INFINITY][thr_i];
        assert_scan_equivalent(
            paper_model(), 128, stride, dims, seed, 3, thr, false, dedup,
        );
    }
}

/// A chip tiled with one 128-pixel pattern repeats every window at a
/// tile-aligned offset, so the dedup cache must answer most windows —
/// with the verdicts and regions crop-and-classify computes for each.
#[test]
fn paper_scan_dedup_engages() {
    let tile = random_image(128, 128, 41, 3);
    let mut img = BitImage::new(384, 256);
    for y in 0..256 {
        for x in 0..384 {
            img.set(x, y, tile.get(x % 128, y % 128));
        }
    }
    let scanner = Scanner::with_backend(paper_model(), 128, ScanConfig::new(64), active_backend());
    let mut ws = Workspace::new();
    let fast = scanner.scan(&img, &mut ws);
    let slow = scanner.scan_naive(&img, &mut ws);
    assert!(fast.dedup_hits > 0, "dedup never hit: {fast:?}");
    assert_eq!(fast.verdicts, slow.verdicts);
    assert_eq!(fast.regions, slow.regions);
    assert_eq!(fast.fallback + fast.dedup_hits, fast.windows);
}

/// A chip smaller than the window scans as one zero-extended window
/// and still merges into a clamped region set.
#[test]
fn undersized_chip_scans_via_fallback() {
    let scanner = Scanner::with_backend(tiny_model(), 16, ScanConfig::new(8), active_backend());
    let img = random_image(10, 12, 5, 1);
    let mut ws = Workspace::new();
    let report = scanner.scan(&img, &mut ws);
    assert_eq!(report.windows, 1);
    assert_eq!(report.fallback, 1);
    for r in &report.regions {
        assert!(r.x1 <= 10 && r.y1 <= 12, "region clamped to chip: {r:?}");
    }
}
