//! Property-based tests for the binarization machinery.

use hotspot_bnn::{
    exact_sign_rule, input_scale_per_channel, output_scale_shared, sign_tensor, ste_grad,
    weight_scale, xnor_conv2d, xnor_conv2d_backend, BinaryResidualBlock, BitFilter, BitTensor,
    BnnResNet, KernelBackend, NetConfig, PackedBnn, PackedConv, ScalingMode,
};
use hotspot_nn::Layer;
use hotspot_tensor::{conv2d, global_avg_pool_into, Tensor, Workspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whole-network logits with every conv run by
/// `PackedConv::forward_reference` — the bounds-checked border path at
/// every output pixel, no B-repack and no GEMM — walked structurally
/// over the model (stem, residual blocks, average pool, classifier) in
/// the execution plan's accumulation order.  The oracle the GEMM
/// engine is checked against.
fn reference_logits(packed: &PackedBnn, input: &[f32], n: usize, side: usize) -> Vec<f32> {
    let mut ws = Workspace::new();
    let mut run = |conv: &PackedConv, x: &[f32], (h, w): (usize, usize)| {
        let prep = conv.prepare_with_backend(h, w, KernelBackend::Scalar);
        let (oh, ow) = conv.output_hw(h, w);
        let mut out = vec![0.0f32; n * conv.out_channels() * oh * ow];
        conv.forward_reference(&prep, x, n, &mut ws, &mut out);
        (out, (oh, ow))
    };
    let (mut act, mut hw) = run(packed.stem(), input, (side, side));
    let mut c = packed.stem().out_channels();
    for block in packed.blocks() {
        let (mid, mid_hw) = run(block.conv1(), &act, hw);
        let (mut out, out_hw) = run(block.conv2(), &mid, mid_hw);
        let shortcut = match block.shortcut() {
            Some(sc) => run(sc, &act, hw).0,
            None => act,
        };
        for (o, s) in out.iter_mut().zip(&shortcut) {
            *o += s;
        }
        act = out;
        hw = out_hw;
        c = block.out_channels();
    }
    let mut pooled = vec![0.0f32; n * c];
    global_avg_pool_into(&act, n, c, hw.0, hw.1, &mut pooled);
    let (fcw, fcb) = (packed.fc_weight().as_slice(), packed.fc_bias().as_slice());
    let classes = fcb.len();
    let mut logits = vec![0.0f32; n * classes];
    for ni in 0..n {
        for oi in 0..classes {
            let mut acc = fcb[oi];
            for ii in 0..c {
                acc += fcw[oi * c + ii] * pooled[ni * c + ii];
            }
            logits[ni * classes + oi] = acc;
        }
    }
    logits
}

fn arb_tensor(shape: &'static [usize]) -> impl Strategy<Value = Tensor> {
    let numel: usize = shape.iter().product();
    prop::collection::vec(-2.0f32..2.0, numel).prop_map(move |v| Tensor::from_vec(shape, v))
}

proptest! {
    /// sign() produces exactly ±1 and is idempotent.
    #[test]
    fn sign_is_idempotent(x in arb_tensor(&[64])) {
        let s = sign_tensor(&x);
        prop_assert!(s.as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
        prop_assert_eq!(sign_tensor(&s), s);
    }

    /// Bit-packing is the identity on ±1 data: pack(unpack(pack(x))) ==
    /// pack(x), and unpack(pack(x)) == sign(x).
    #[test]
    fn bitpack_round_trip(x in arb_tensor(&[2, 5, 4, 4])) {
        let packed = BitTensor::from_tensor(&x);
        let unpacked = packed.to_tensor();
        prop_assert_eq!(&unpacked, &sign_tensor(&x));
        prop_assert_eq!(BitTensor::from_tensor(&unpacked), packed);
    }

    /// The XNOR kernel equals the float convolution of sign tensors,
    /// for random strides and paddings.
    #[test]
    fn xnor_equals_float_sign_conv(
        x in arb_tensor(&[1, 5, 6, 6]),
        w in arb_tensor(&[3, 5, 3, 3]),
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let expect = conv2d(&sign_tensor(&x), &sign_tensor(&w), None, stride, pad);
        let got = xnor_conv2d(
            &BitTensor::from_tensor(&x),
            &BitFilter::from_tensor(&w),
            stride,
            pad,
        );
        prop_assert_eq!(got.shape(), expect.shape());
        for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
        }
    }

    /// The STE never amplifies a gradient and kills it outside (−1, 1).
    #[test]
    fn ste_is_a_contraction(x in arb_tensor(&[32]), g in arb_tensor(&[32])) {
        let out = ste_grad(&x, &g);
        for ((&xi, &gi), &oi) in x.as_slice().iter().zip(g.as_slice()).zip(out.as_slice()) {
            if xi.abs() < 1.0 {
                prop_assert_eq!(oi, gi);
            } else {
                prop_assert_eq!(oi, 0.0);
            }
        }
        prop_assert!(out.l1_norm() <= g.l1_norm() + 1e-6);
    }

    /// Weight scales are the per-filter mean |w|: non-negative, and
    /// scaling the weights scales them linearly.
    #[test]
    fn weight_scale_homogeneous(w in arb_tensor(&[4, 2, 3, 3]), s in 0.1f32..4.0) {
        let a = weight_scale(&w);
        prop_assert!(a.iter().all(|&v| v >= 0.0));
        let scaled = &w * s;
        let b = weight_scale(&scaled);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((s * x - y).abs() < 1e-4);
        }
    }

    /// Scale maps are non-negative and bounded by max |x|.
    #[test]
    fn scale_maps_bounded(x in arb_tensor(&[1, 3, 6, 6])) {
        let max_abs = x.as_slice().iter().map(|v| v.abs()).fold(0.0f32, f32::max);
        let pc = input_scale_per_channel(&x, 3, 3);
        prop_assert!(pc.as_slice().iter().all(|&v| v >= 0.0 && v <= max_abs + 1e-5));
        let sh = output_scale_shared(&x, 3, 1, 1);
        prop_assert_eq!(sh.shape(), &[1, 6, 6]);
        prop_assert!(sh.as_slice().iter().all(|&v| v >= 0.0 && v <= max_abs + 1e-5));
    }

    /// Workspace reuse never changes results: running a compiled plan
    /// twice through one (dirty) workspace is bit-identical to a
    /// fresh-workspace run and to the structural packed forward, for
    /// random networks and inputs.
    #[test]
    fn plan_reuse_is_bit_identical(seed in 0u64..30, n in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = BnnResNet::new(&NetConfig::tiny(16), &mut rng);
        let packed = PackedBnn::compile(&net);
        let plan = packed.plan((16, 16));
        let mut state = seed as u32 ^ 0xdead_beef;
        let input: Vec<f32> = (0..n * 16 * 16).map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state & 0x8000 == 0 { 1.0 } else { -1.0 }
        }).collect();
        let mut ws = Workspace::new();
        let mut first = vec![0.0f32; n * 2];
        plan.run_into(&input, n, &mut ws, &mut first);
        let mut second = vec![0.0f32; n * 2];
        plan.run_into(&input, n, &mut ws, &mut second);
        prop_assert_eq!(&first, &second);
        let mut fresh = vec![0.0f32; n * 2];
        plan.run_into(&input, n, &mut Workspace::new(), &mut fresh);
        prop_assert_eq!(&first, &fresh);
        let x = Tensor::from_vec(&[n, 1, 16, 16], input);
        prop_assert_eq!(packed.forward(&x).as_slice(), &first[..]);
    }

    /// Every compiled-in kernel backend produces **bit-identical**
    /// XNOR conv outputs to the scalar reference, across random
    /// shapes, strides, pads, and channel counts that cross the 64-bit
    /// word boundary (including the `c = 1` stem and 1×1 shortcut
    /// convolutions).  Popcounts are integer arithmetic, so equality
    /// is exact — no tolerance.
    #[test]
    fn kernel_backends_bit_identical(
        seed in 0u64..1000,
        c_idx in 0usize..8,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let c = [1usize, 3, 5, 63, 64, 65, 127, 130][c_idx];
        let (h, w) = (6usize, 7usize); // always >= k, so every case is valid
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut pm1 = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if state >> 63 == 0 { 1.0 } else { -1.0 }
                })
                .collect()
        };
        let x = Tensor::from_vec(&[2, c, h, w], pm1(2 * c * h * w));
        let wt = Tensor::from_vec(&[3, c, k, k], pm1(3 * c * k * k));
        let bx = BitTensor::from_tensor(&x);
        let bw = BitFilter::from_tensor(&wt);
        let reference = xnor_conv2d_backend(KernelBackend::Scalar, &bx, &bw, stride, pad);
        for backend in KernelBackend::available() {
            let got = xnor_conv2d_backend(backend, &bx, &bw, stride, pad);
            prop_assert_eq!(got.shape(), reference.shape());
            prop_assert_eq!(
                got.as_slice(), reference.as_slice(),
                "backend {} diverged from scalar (c={}, k={}, s={}, p={})",
                backend.name(), c, k, stride, pad
            );
        }
    }

    /// The exact sign rule agrees with the batch-norm affine compare
    /// `scale*x + shift >= 0` for every finite input — the property
    /// the fused binarize-pack path relies on for bit-exactness.
    #[test]
    fn sign_rule_matches_affine_compare(
        scale in -8.0f32..8.0,
        shift in -8.0f32..8.0,
        x in -16.0f32..16.0,
    ) {
        let rule = exact_sign_rule(scale, shift);
        prop_assert_eq!(
            rule.bit(x),
            scale * x + shift >= 0.0,
            "rule {:?} scale={} shift={} x={}", rule, scale, shift, x
        );
    }

    /// End-to-end: plans pinned to each available backend produce
    /// bit-identical logits for random networks and inputs.
    #[test]
    fn plan_backends_bit_identical(seed in 0u64..20, n in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = BnnResNet::new(&NetConfig::tiny(16), &mut rng);
        let packed = PackedBnn::compile(&net);
        let mut state = seed as u32 ^ 0xabcd_1234;
        let input: Vec<f32> = (0..n * 16 * 16).map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state & 0x8000 == 0 { 1.0 } else { -1.0 }
        }).collect();
        let mut reference = vec![0.0f32; n * 2];
        packed
            .plan_with_backend((16, 16), KernelBackend::Scalar)
            .run_into(&input, n, &mut Workspace::new(), &mut reference);
        for backend in KernelBackend::available() {
            let plan = packed.plan_with_backend((16, 16), backend);
            prop_assert_eq!(plan.backend(), backend);
            let mut logits = vec![0.0f32; n * 2];
            plan.run_into(&input, n, &mut Workspace::new(), &mut logits);
            prop_assert_eq!(
                &logits, &reference,
                "plan backend {} diverged from scalar", backend.name()
            );
        }
    }

    /// Residual levels are strictly additive: an M-level model capped
    /// at M = 1 produces **bit-identical** logits to the single-level
    /// model compiled from the same weights, on every compiled-in
    /// kernel backend and for every scaling mode.  This is the
    /// refactor's backward-compatibility contract — level 0 of the
    /// residual stack *is* the pre-M-level representation.
    #[test]
    fn plan_mlevel_capped_at_one_matches_single_level(
        seed in 0u64..12,
        n in 1usize..4,
        mode_idx in 0usize..3,
    ) {
        let mode = [ScalingMode::PlainSign, ScalingMode::Shared, ScalingMode::PerChannel][mode_idx];
        let mut cfg = NetConfig::tiny(16);
        cfg.scaling = mode;
        let mut rng = StdRng::seed_from_u64(seed);
        let single = PackedBnn::compile(&BnnResNet::new(&cfg, &mut rng));
        let mut rng = StdRng::seed_from_u64(seed);
        let multi = PackedBnn::compile(&BnnResNet::new(&cfg.clone().with_levels(2), &mut rng));
        prop_assert_eq!(single.levels(), 1);
        prop_assert_eq!(multi.levels(), 2);
        let mut state = seed as u32 ^ 0x5a5a_5a5a;
        let input: Vec<f32> = (0..n * 16 * 16).map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state & 0x8000 == 0 { 1.0 } else { -1.0 }
        }).collect();
        for backend in KernelBackend::available() {
            let mut expect = vec![0.0f32; n * 2];
            single
                .plan_with_backend((16, 16), backend)
                .run_into(&input, n, &mut Workspace::new(), &mut expect);
            let mut capped = vec![0.0f32; n * 2];
            multi
                .plan_capped_with_backend((16, 16), backend, 1)
                .run_into(&input, n, &mut Workspace::new(), &mut capped);
            prop_assert_eq!(
                &capped, &expect,
                "capped M=2 model diverged from M=1 on {} ({:?})", backend.name(), mode
            );
        }
    }

    /// M-level plans are bit-identical across every compiled-in kernel
    /// backend, for M ∈ {1, 2}: the correction planes run through the
    /// same popcount kernels as level 0, so backend equivalence must
    /// hold at every level count.
    #[test]
    fn plan_mlevel_backends_bit_identical(
        seed in 0u64..10,
        n in 1usize..4,
        levels in 1usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = BnnResNet::new(&NetConfig::tiny(16).with_levels(levels), &mut rng);
        let packed = PackedBnn::compile(&net);
        prop_assert_eq!(packed.levels(), levels);
        let mut state = seed as u32 ^ 0x00c0_ffee;
        let input: Vec<f32> = (0..n * 16 * 16).map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state & 0x8000 == 0 { 1.0 } else { -1.0 }
        }).collect();
        let mut reference = vec![0.0f32; n * 2];
        packed
            .plan_with_backend((16, 16), KernelBackend::Scalar)
            .run_into(&input, n, &mut Workspace::new(), &mut reference);
        for backend in KernelBackend::available() {
            let plan = packed.plan_with_backend((16, 16), backend);
            let mut logits = vec![0.0f32; n * 2];
            plan.run_into(&input, n, &mut Workspace::new(), &mut logits);
            prop_assert_eq!(
                &logits, &reference,
                "M={} plan on backend {} diverged from scalar", levels, backend.name()
            );
        }
    }

    /// The GEMM engine is **bit-identical** to an independent oracle:
    /// whole-plan logits equal those of a structural walk whose convs
    /// send every output pixel through the bounds-checked border path
    /// (no B-repack, no GEMM), for batch sizes that cover the GEMM tile
    /// tail cases (a single clip included), M ∈ {1, 2, 3}, every
    /// scaling mode, and every compiled-in kernel backend.
    #[test]
    fn plan_matches_border_reference(
        seed in 0u64..8,
        batch_idx in 0usize..5,
        levels in 1usize..4,
        mode_idx in 0usize..3,
    ) {
        let n = [1usize, 2, 3, 8, 17][batch_idx];
        let mode = [ScalingMode::PlainSign, ScalingMode::Shared, ScalingMode::PerChannel][mode_idx];
        let mut cfg = NetConfig::tiny(16).with_levels(levels);
        cfg.scaling = mode;
        let mut rng = StdRng::seed_from_u64(seed);
        let packed = PackedBnn::compile(&BnnResNet::new(&cfg, &mut rng));
        let mut state = seed as u32 ^ 0x04ac_1e5e;
        let input: Vec<f32> = (0..n * 16 * 16).map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state & 0x8000 == 0 { 1.0 } else { -1.0 }
        }).collect();
        let expect = reference_logits(&packed, &input, n, 16);
        for backend in KernelBackend::available() {
            let plan = packed.plan_with_backend((16, 16), backend);
            prop_assert!(plan.gemm_tier());
            let mut logits = vec![0.0f32; n * 2];
            plan.run_into(&input, n, &mut Workspace::new(), &mut logits);
            prop_assert_eq!(
                &logits, &expect,
                "M={} n={} {:?} on {} diverged from the border-path oracle",
                levels, n, mode, backend.name()
            );
        }
    }

    /// Batch composition never changes a bit: `run_batch_into` over N
    /// clips — GEMM tiles spanning clip boundaries, chunked — produces
    /// the same logits as N separate single-clip `run_into` calls,
    /// across batch sizes that cover the tile tail cases, M ∈ {1, 2},
    /// and every compiled-in kernel backend (forcing a backend forces
    /// its GEMM counterpart too).  Both sides run the GEMM engine; the
    /// independent check is `plan_matches_border_reference`.
    #[test]
    fn batched_gemm_tier_matches_per_item(
        seed in 0u64..8,
        batch_idx in 0usize..5,
        levels in 1usize..3,
    ) {
        let n = [1usize, 2, 3, 8, 17][batch_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let net = BnnResNet::new(&NetConfig::tiny(16).with_levels(levels), &mut rng);
        let packed = PackedBnn::compile(&net);
        let mut state = seed as u32 ^ 0xb17b_a7c4;
        let input: Vec<f32> = (0..n * 16 * 16).map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state & 0x8000 == 0 { 1.0 } else { -1.0 }
        }).collect();
        for backend in KernelBackend::available() {
            let plan = packed.plan_with_backend((16, 16), backend);
            // Per-item reference: one run_into call per clip.
            let mut expect = vec![0.0f32; n * 2];
            let mut ws = Workspace::new();
            for i in 0..n {
                plan.run_into(
                    &input[i * 256..(i + 1) * 256], 1, &mut ws, &mut expect[i * 2..(i + 1) * 2],
                );
            }
            let mut batched = vec![0.0f32; n * 2];
            plan.run_batch_into(&input, n, &mut ws, &mut batched);
            prop_assert_eq!(
                &batched, &expect,
                "batched M={} n={} on {} diverged from per-item", levels, n, backend.name()
            );
            // Workspace reuse across batch sizes must stay identical.
            let mut again = vec![0.0f32; n * 2];
            plan.run_batch_into(&input, n, &mut ws, &mut again);
            prop_assert_eq!(&again, &expect);
        }
    }

    /// Conv-level GEMM/oracle equivalence at channel counts that cross
    /// the 64-bit word boundary — the dense B-repack handles word
    /// spills and partial high words, so exercise c just below, at, and
    /// above multiples of 64, with M ∈ {1, 2}, one clip and three, and
    /// both an affine scale map and plain-sign scaling.  The reference
    /// sends every pixel through the bounds-checked border path.
    #[test]
    fn batched_conv_word_boundary_channels(
        seed in 0u64..30,
        c_idx in 0usize..5,
        levels in 1usize..3,
        plain in any::<bool>(),
    ) {
        let c = [63usize, 64, 65, 127, 130][c_idx];
        let (k, h, w, kf) = (3usize, 9usize, 10usize, 4usize);
        fn next(state: &mut u64) -> u64 {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state
        }
        fn pm1(state: &mut u64, len: usize) -> Vec<f32> {
            (0..len)
                .map(|_| if next(state) >> 63 == 0 { 1.0 } else { -1.0 })
                .collect()
        }
        fn smallf(state: &mut u64, len: usize) -> Vec<f32> {
            (0..len)
                .map(|_| ((next(state) >> 40) as f32 / 16_777_216.0) - 0.5)
                .collect()
        }
        let st = &mut seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(5);
        let filter =
            BitFilter::from_tensor(&Tensor::from_vec(&[kf, c, k, k], pm1(st, kf * c * k * k)));
        let extra_levels: Vec<(BitFilter, Vec<f32>)> = (1..levels)
            .map(|_| {
                let f = BitFilter::from_tensor(
                    &Tensor::from_vec(&[kf, c, k, k], pm1(st, kf * c * k * k)),
                );
                let alpha: Vec<f32> = smallf(st, kf).iter().map(|v| v.abs() + 0.05).collect();
                (f, alpha)
            })
            .collect();
        let scaling = if plain { ScalingMode::PlainSign } else { ScalingMode::PerChannel };
        let conv = PackedConv::from_raw_parts(
            smallf(st, c).iter().map(|v| v + 1.5).collect(), // bn scale > 0
            smallf(st, c),
            filter,
            smallf(st, kf).iter().map(|v| v.abs() + 0.1).collect(),
            1,
            1,
            k,
            scaling,
            extra_levels,
        );
        let x: Vec<f32> = smallf(st, 3 * c * h * w);
        let (oh, ow) = conv.output_hw(h, w);
        let out_len = kf * oh * ow;
        for n in [1usize, 3] {
            let x = &x[..n * c * h * w];
            let mut expect = vec![0.0f32; n * out_len];
            let prep = conv.prepare_with_backend(h, w, KernelBackend::Scalar);
            conv.forward_reference(&prep, x, n, &mut Workspace::new(), &mut expect);
            for backend in KernelBackend::available() {
                let prep = conv.prepare_with_backend(h, w, backend);
                let mut got = vec![0.0f32; n * out_len];
                conv.forward_prepped(&prep, x, n, &mut Workspace::new(), &mut got);
                prop_assert_eq!(
                    &got, &expect,
                    "conv c={} M={} n={} {:?} on {} diverged from the oracle",
                    c, levels, n, scaling, backend.name()
                );
            }
        }
    }

    /// A residual block's backward returns a gradient of the input
    /// shape with finite values, for every scaling mode.
    #[test]
    fn residual_block_gradient_finite(seed in 0u64..50, mode_idx in 0usize..3) {
        let mode = [ScalingMode::PlainSign, ScalingMode::Shared, ScalingMode::PerChannel][mode_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut block = BinaryResidualBlock::new(2, 4, 2, mode, &mut rng);
        let mut state = seed as u32 + 1;
        let numel = 2 * 2 * 8 * 8;
        let x = Tensor::from_vec(&[2, 2, 8, 8], (0..numel).map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 16) as f32 / 32768.0 - 1.0
        }).collect());
        let y = block.forward(&x, true);
        prop_assert_eq!(y.shape(), &[2, 4, 4, 4]);
        let g = block.backward(&Tensor::ones(y.shape()));
        prop_assert_eq!(g.shape(), x.shape());
        prop_assert!(g.as_slice().iter().all(|v| v.is_finite()));
    }
}

/// A random `kf`-filter, `M`-level conv over `c` channels with a
/// `k × k` kernel, drawn from `state`: ±1 weight planes, positive
/// per-level scales, and a batch-norm affine whose scale stays
/// positive.
#[allow(clippy::too_many_arguments)]
fn random_conv(
    state: &mut u64,
    c: usize,
    kf: usize,
    k: usize,
    stride: usize,
    pad: usize,
    levels: usize,
    scaling: ScalingMode,
) -> PackedConv {
    let plane = |state: &mut u64| {
        let bits = (0..kf * c * k * k)
            .map(|_| {
                if next_u64(state) >> 63 == 0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        BitFilter::from_tensor(&Tensor::from_vec(&[kf, c, k, k], bits))
    };
    let filter = plane(state);
    let extra_levels = (1..levels)
        .map(|_| {
            let f = plane(state);
            let alpha = small_f32s(state, kf)
                .iter()
                .map(|v| v.abs() + 0.05)
                .collect();
            (f, alpha)
        })
        .collect();
    PackedConv::from_raw_parts(
        small_f32s(state, c).iter().map(|v| v + 1.5).collect(),
        small_f32s(state, c),
        filter,
        small_f32s(state, kf)
            .iter()
            .map(|v| v.abs() + 0.1)
            .collect(),
        stride,
        pad,
        k,
        scaling,
        extra_levels,
    )
}

fn next_u64(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// `len` values in `[-0.5, 0.5)`.
fn small_f32s(state: &mut u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| ((next_u64(state) >> 40) as f32 / 16_777_216.0) - 0.5)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Every conv geometry in a sweep computes bit for bit what the
    /// bounds-checked oracle computes, on every compiled-in backend:
    /// kernel 1–3 × stride 1–3 × pad 0–2 × every map from 1×1 to 9×9
    /// that the padded kernel fits.  That covers maps smaller than the
    /// kernel, odd and even sides, and 1×1 kernels with pad ≥ 1, whose
    /// padded rows and columns see no in-bounds tap at all.  The GEMM
    /// leaves out-of-bounds taps zero and corrects them through the
    /// per-border-class bias; a wrong or neighbouring class shows up
    /// here as a changed border pixel.  Each geometry draws its channel
    /// count (1, 8, and across the 64-bit word boundary), level count
    /// M ∈ {1, 2, 3}, scaling mode (PlainSign or PerChannel, which
    /// adds the scale map) and batch size n ∈ {1, 3} from the case
    /// seed.
    #[test]
    fn batched_conv_geometry_sweep(seed in 0u64..1 << 32) {
        let st = &mut seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(11);
        let backends = KernelBackend::available();
        for k in 1..=3usize {
            for stride in 1..=3usize {
                for pad in 0..=2usize {
                    for h in 1..=9usize {
                        for w in 1..=9usize {
                            if h + 2 * pad < k || w + 2 * pad < k {
                                continue;
                            }
                            let c = [1usize, 8, 63, 64, 65, 130][next_u64(st) as usize % 6];
                            let levels = 1 + next_u64(st) as usize % 3;
                            let scaling = if next_u64(st) & 1 == 0 {
                                ScalingMode::PlainSign
                            } else {
                                ScalingMode::PerChannel
                            };
                            let n = if next_u64(st) & 1 == 0 { 1 } else { 3 };
                            let conv = random_conv(st, c, 5, k, stride, pad, levels, scaling);
                            let x = small_f32s(st, n * c * h * w);
                            let (oh, ow) = conv.output_hw(h, w);
                            let out_len = n * 5 * oh * ow;
                            let mut expect = vec![0.0f32; out_len];
                            let prep = conv.prepare_with_backend(h, w, KernelBackend::Scalar);
                            conv.forward_reference(&prep, &x, n, &mut Workspace::new(), &mut expect);
                            let expect: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
                            for &backend in &backends {
                                let prep = conv.prepare_with_backend(h, w, backend);
                                let mut got = vec![0.0f32; out_len];
                                conv.forward_prepped(&prep, &x, n, &mut Workspace::new(), &mut got);
                                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                                prop_assert_eq!(
                                    &got, &expect,
                                    "k={} s={} p={} {}x{} c={} M={} {:?} n={} on {}",
                                    k, stride, pad, h, w, c, levels, scaling, n, backend.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
