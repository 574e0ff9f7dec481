//! Bit-packed XNOR inference engine.
//!
//! One `XOR` + `popcount` per 64 channels replaces 64 float
//! multiply–accumulates, and one conv engine applies it to every output
//! pixel at every batch size, a single clip included.  The whole
//! output plane of all `n` items runs as a bit-sliced XNOR-GEMM:
//! receptive fields are densely repacked as B columns (`pack_b_tile`)
//! and streamed through the backend's [`kernels::PopcountGemm`]
//! microkernel against filter rows repacked once at prep time.  A tap
//! that overhangs the map edge leaves its B bits zero, which adds
//! exactly `popcount(w_tap)` mismatches; the epilogue subtracts them
//! again through one integer per (level, border class, filter), built
//! at prep time (`GemmPrep`), so border pixels come out bit for bit as
//! a bounds-checked conv computes them.  [`xnor_conv2d`] exposes the
//! engine on raw bit tensors.
//!
//! [`PackedBnn`] compiles a trained [`BnnResNet`] into this
//! representation, folding each block's batch normalization into a
//! per-channel affine and factoring the activation scaling out of the
//! convolution XNOR-Net style (the standard inference-time
//! approximation of the per-channel training scaling; see DESIGN.md).
//!
//! [`BnnResNet`]: crate::model::BnnResNet

use crate::bitpack::{exact_sign_rule, pack_rules_into, BitFilter, BitTensor, SignRule};
use crate::block::{BinaryResidualBlock, BnnBlock};
use crate::kernels::{self, active_backend, ConvGeometry, KernelBackend};
use crate::model::{BnnResNet, MAX_LEVELS};
use crate::scaling::{box_filter_sliding_into, residual_weight_levels, ScalingMode};
use hotspot_tensor::workspace::{global_pool, Workspace};
use hotspot_tensor::{crc32, Tensor, WireWriter};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Filters per block: the GEMM microkernels accumulate up to four
/// filter rows per pass over a B tile.
const ACC_PLANES: usize = 4;

/// Binary convolution on bit-packed operands.
///
/// Computes, for every output pixel, the ±1 inner product
/// `Σ_c Σ_taps sign(x)·sign(w)` via XNOR + popcount.  Taps that fall
/// outside the input contribute zero, matching a float convolution of
/// the sign tensors with zero padding.
///
/// # Panics
///
/// Panics when the channel counts disagree.
pub fn xnor_conv2d(input: &BitTensor, filter: &BitFilter, stride: usize, pad: usize) -> Tensor {
    xnor_conv2d_backend(active_backend(), input, filter, stride, pad)
}

/// [`xnor_conv2d`] with an explicit kernel backend (all backends are
/// bit-identical; this entry point exists for equivalence tests and
/// benchmarks).
///
/// # Panics
///
/// Panics when the channel counts disagree.
pub fn xnor_conv2d_backend(
    backend: KernelBackend,
    input: &BitTensor,
    filter: &BitFilter,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (n, c, h, w) = input.dims();
    let (k, fc, kh, kw) = filter.dims();
    assert_eq!(c, fc, "input has {c} channels, filter expects {fc}");
    assert!(stride > 0, "stride must be positive");
    let geom = ConvGeometry::new(c, h, w, kh, kw, stride, pad);
    let gemm = GemmPrep::new(&geom, &[filter]);
    let item_words = h * w * geom.wpp;
    let oplane = geom.oh * geom.ow;
    let in_words = input.as_words();

    let mut out = vec![0.0f32; n * k * oplane];
    // Parallelize over batch items; each worker checks one workspace
    // out of the process-wide pool and reuses it for every item it
    // processes (the guard restores it when the worker retires).
    out.par_chunks_mut(k * oplane).enumerate().for_each_init(
        || global_pool().checkout_guard(),
        |ws, (ni, item)| {
            let levels = [LevelFilters {
                filter,
                alpha: None,
            }];
            conv_levels(
                backend,
                &in_words[ni * item_words..(ni + 1) * item_words],
                1,
                &geom,
                &gemm,
                &levels,
                None,
                ws,
                item,
            );
        },
    );
    Tensor::from_vec(&[n, k, geom.oh, geom.ow], out)
}

/// One residual binarization level of a conv: its packed bit plane and
/// the per-filter scale its finalize multiplies in (`None` = unscaled,
/// i.e. PlainSign level 0).
#[derive(Clone, Copy)]
struct LevelFilters<'a> {
    filter: &'a BitFilter,
    alpha: Option<&'a [f32]>,
}

/// Pixels per GEMM B tile.  At the deepest reduction this net reaches
/// (c=64, 3×3 ⇒ 9 dense words) a tile is ≈36 KiB of packed B plus
/// 8 KiB of accumulators — sized to stay cache-resident while
/// amortizing the pack cost over every filter block × residual level.
const GEMM_TILE: usize = 1024;

/// The conv engine: a multi-level binary convolution of `n` packed
/// items into `[n, k, oh, ow]` `out` (every element overwritten).
///
/// Packs tiles of output pixels — spanning rows *and* batch items —
/// as dense B columns once, then streams every filter block × residual
/// level over the same tile through the backend's
/// [`kernels::PopcountGemm`] microkernel.  The epilogue turns each
/// mismatch count into `dot = bias − 2·acc`, with the bias of the
/// pixel's border class (see [`GemmPrep`]), and fuses the
/// per-channel affine/sign finalize: each output element is finalized
/// once per level in ascending order (`=` for level 0, `+=` for the
/// correction planes).  When `smap` is `Some` — the `[n, oh, ow]`
/// activation scale map — each level's finalize multiplies
/// `alpha[f] * smap[pixel]`.
#[allow(clippy::too_many_arguments)]
fn conv_levels(
    backend: KernelBackend,
    in_words: &[u64],
    n: usize,
    geom: &ConvGeometry,
    gp: &GemmPrep,
    levels: &[LevelFilters],
    smap: Option<&[f32]>,
    ws: &mut Workspace,
    out: &mut [f32],
) {
    let (k, fc, kh, kw) = levels[0].filter.dims();
    assert_eq!(
        (fc, kh, kw),
        (geom.c, geom.kh, geom.kw),
        "filter shape disagrees with geometry"
    );
    for lv in levels {
        assert_eq!(
            lv.filter.dims(),
            (k, fc, kh, kw),
            "level filter shape mismatch"
        );
        if let Some(a) = lv.alpha {
            assert_eq!(a.len(), k, "one weight scale per filter");
        }
    }
    let (oh, ow) = (geom.oh, geom.ow);
    let oplane = oh * ow;
    assert_eq!(
        in_words.len(),
        n * geom.h * geom.w * geom.wpp,
        "packed input length mismatch"
    );
    assert_eq!(out.len(), n * k * oplane, "output length mismatch");
    if let Some(smap) = smap {
        assert_eq!(smap.len(), n * oplane, "scale map length mismatch");
    }
    let kd = gp.kdense;
    let classes = geom.border_classes();
    assert!(
        gp.a.len() >= levels.len() * k * kd && gp.bias.len() >= levels.len() * classes * k,
        "prep holds fewer levels than requested"
    );
    let (rows, cols) = (geom.row_classes(), geom.col_classes());
    // The dot-product bias of a pixel whose taps are all in bounds.
    let full = (kh * kw * fc) as i32;
    let total = n * oplane;
    let gemm = kernels::gemm_backend(backend);
    let np_cap = GEMM_TILE.min(total.max(1));
    let mut b = ws.take_u64(kd * np_cap);
    let mut acc = ws.take_i32(ACC_PLANES * np_cap);
    let mut t0 = 0usize;
    while t0 < total {
        let np = np_cap.min(total - t0);
        let b_tile = &mut b[..kd * np];
        b_tile.fill(0);
        pack_b_tile(in_words, geom, t0, np, b_tile);
        let mut ki = 0usize;
        while ki < k {
            let fb = (k - ki).min(ACC_PLANES);
            for (l, lv) in levels.iter().enumerate() {
                let a_block = &gp.a[(l * k + ki) * kd..(l * k + ki + fb) * kd];
                let acc_block = &mut acc[..fb * np];
                acc_block.fill(0);
                gemm.gemm_block(acc_block, fb, a_block, b_tile, np, kd);
                // Epilogue, in three passes over the tile accumulators:
                // every pixel's dot product as if all its taps were in
                // bounds; each border run's class correction on top
                // (zero for the interior run of a row, which is
                // skipped); then the fused affine/sign finalize, one
                // call per (filter, item) over contiguous memory.
                for d in acc_block.iter_mut() {
                    *d = full - 2 * *d;
                }
                let bias_l = &gp.bias[l * classes * k..(l + 1) * classes * k];
                for_each_subrun(oh, ow, t0, np, |p, _, oy, ox0, len| {
                    let bias_row = &bias_l[rows.class(oy) * cols.count() * k + ki..];
                    let mut x = 0;
                    while x < len {
                        let (cc, run) = cols.span(ox0 + x);
                        let end = len.min(x + run);
                        for f in 0..fb {
                            let delta = bias_row[cc * k + f] - full;
                            if delta != 0 {
                                let row = &mut acc_block[f * np + p..];
                                for d in &mut row[x..end] {
                                    *d += delta;
                                }
                            }
                        }
                        x = end;
                    }
                });
                // Rows of width `oplane` are whole items.
                for_each_subrun(1, oplane, t0, np, |p, ni, _, off, len| {
                    let smap_run = smap.map(|s| &s[ni * oplane + off..][..len]);
                    for f in 0..fb {
                        finalize_row(
                            &mut out[(ni * k + ki + f) * oplane + off..][..len],
                            &acc_block[f * np + p..][..len],
                            l == 0,
                            lv.alpha.map(|a| a[ki + f]),
                            smap_run,
                        );
                    }
                });
            }
            ki += fb;
        }
        t0 += np;
    }
    ws.give_i32(acc);
    ws.give_u64(b);
}

/// Finalizes one run of pixels for one (filter, level): `dst[i] =` (or
/// `+=`, for correction levels) `dot[i] as f32 · scaleᵢ`, where
/// `scaleᵢ` is `alpha·smap` / `alpha` / `smap` / `1` depending on what
/// is present.  `dot` holds `bias − 2·acc`, the same i32 as the
/// bounds-checked `hit·c − 2·mismatches` (see [`GemmPrep`]), and the
/// float ops are the per-element sequence the single-level passes
/// always used (`x·a` and `a·(x·1)` round identically, so fusing the
/// PlainSign correction scale here is bit-exact against the old
/// `accumulate_scaled` sweep).
fn finalize_row(
    dst: &mut [f32],
    dot: &[i32],
    first: bool,
    alpha_f: Option<f32>,
    srow: Option<&[f32]>,
) {
    #[inline]
    fn write(o: &mut f32, d: i32, scale: f32, first: bool) {
        let v = d as f32 * scale;
        if first {
            *o = v;
        } else {
            *o += v;
        }
    }
    match (alpha_f, srow) {
        (None, None) => {
            for (o, &d) in dst.iter_mut().zip(dot) {
                write(o, d, 1.0, first);
            }
        }
        (Some(a), None) => {
            for (o, &d) in dst.iter_mut().zip(dot) {
                write(o, d, a, first);
            }
        }
        (Some(a), Some(srow)) => {
            for ((o, &d), &s) in dst.iter_mut().zip(dot).zip(srow) {
                write(o, d, a * s, first);
            }
        }
        (None, Some(srow)) => {
            for ((o, &d), &s) in dst.iter_mut().zip(dot).zip(srow) {
                write(o, d, s, first);
            }
        }
    }
}

/// Decomposes the linear tile index range `[t0, t0 + np)` into maximal
/// subruns of consecutive output columns sharing one `(item, output
/// row)`, calling `f(p, ni, oy, ox0, len)` for each (`p` is the offset
/// inside the tile).  The linear index enumerates `[item][row][column]`
/// of the `oh × ow` output plane, so GEMM tiles span row and item
/// boundaries with pure div/mod bookkeeping — no run lists are ever
/// allocated.
fn for_each_subrun(
    oh: usize,
    ow: usize,
    t0: usize,
    np: usize,
    mut f: impl FnMut(usize, usize, usize, usize, usize),
) {
    let mut p = 0usize;
    let mut t = t0;
    while p < np {
        let g = t / ow;
        let ox0 = t % ow;
        let len = (ow - ox0).min(np - p);
        f(p, g / oh, g % oh, ox0, len);
        p += len;
        t += len;
    }
}

/// Calls `f(p, pix, len)` for every stretch of tile pixels `[t0, t0 +
/// np)` whose tap `(ky, kx)` lands in bounds: tile offsets `p..p + len`
/// read the input pixels `pix, pix + stride, …` (flat `[item][row]
/// [col]` pixel index).  Pixels whose tap overhangs the map edge —
/// outside the tap's [`TapRange`](kernels::geom::TapRange) — are
/// skipped.
fn for_each_tap_run(
    geom: &ConvGeometry,
    ky: usize,
    kx: usize,
    t0: usize,
    np: usize,
    mut f: impl FnMut(usize, usize, usize),
) {
    let tr = geom.tap_range(ky, kx);
    for_each_subrun(geom.oh, geom.ow, t0, np, |p, ni, oy, ox0, len| {
        let (lo, hi) = (ox0.max(tr.ox_lo), (ox0 + len).min(tr.ox_hi));
        if (tr.oy_lo..tr.oy_hi).contains(&oy) && lo < hi {
            let iy = oy * geom.stride + ky - geom.pad;
            let ix = lo * geom.stride + kx - geom.pad;
            f(p + lo - ox0, (ni * geom.h + iy) * geom.w + ix, hi - lo);
        }
    });
}

/// Appends the dense A rows of `filter` to `a` — per filter, the
/// `c·kh·kw` weight bits in `(ky, kx, word)` order packed back-to-back
/// into `kdense = ⌈c·kh·kw/64⌉` words — and writes each tap's set-bit
/// count into `pc[tap · k + f]`.  For channel counts below 64 the dense
/// rows cut the reduction depth well under the sparse `kh·kw·wpp`
/// tap-word walk (c=8, 3×3: 2 dense words vs 9 sparse), because the
/// sparse layout pads every tap word's high bits with zeros.
fn dense_filter_words(filter: &BitFilter, a: &mut Vec<u64>, pc: &mut [i32]) {
    let (k, c, kh, kw) = filter.dims();
    let wpt = filter.words_per_tap();
    let kdense = (c * kh * kw).div_ceil(64);
    let words = filter.as_words();
    let base = a.len();
    a.resize(base + k * kdense, 0);
    pc.fill(0);
    for f in 0..k {
        let dst = &mut a[base + f * kdense..base + (f + 1) * kdense];
        let mut j = 0usize;
        let mut off = 0usize;
        for ky in 0..kh {
            for kx in 0..kw {
                for wi in 0..wpt {
                    let nbits = (c - wi * 64).min(64);
                    let msk = if nbits == 64 {
                        !0u64
                    } else {
                        (1u64 << nbits) - 1
                    };
                    let bits = words[((f * kh + ky) * kw + kx) * wpt + wi] & msk;
                    pc[(ky * kw + kx) * k + f] += bits.count_ones() as i32;
                    dst[j] |= bits << off;
                    if off != 0 && off + nbits > 64 {
                        dst[j + 1] |= bits >> (64 - off);
                    }
                    off += nbits;
                    if off >= 64 {
                        j += 1;
                        off -= 64;
                    }
                }
            }
        }
        debug_assert_eq!(j * 64 + off, c * kh * kw);
    }
}

/// Precomputed A-side state of the conv engine, built once at prep time
/// and shared by all forward calls: every residual level's filters with
/// their receptive-field bits densely repacked
/// ([`dense_filter_words`]), and the border correction.
///
/// The correction is exact.  [`pack_b_tile`] leaves the B bits of an
/// out-of-bounds tap zero, so that tap adds `popcount(w_tap)`
/// mismatches to the GEMM count `acc`.  Hence, with `hit` the pixel's
/// in-bounds taps, `hit·c − 2·(acc − Σ_oob popcount(w_tap)) = bias −
/// 2·acc` for `bias = hit·c + 2·Σ_oob popcount(w_tap)`.  Which taps
/// are out of bounds depends only on the pixel's border class (row
/// tap-validity × column tap-validity, see
/// [`AxisClasses`](kernels::geom::AxisClasses)), so one integer per
/// (level, class, filter) covers the plane; interior pixels get
/// `kh·kw·c`.
#[derive(Debug, Clone)]
struct GemmPrep {
    /// Dense reduction words per filter (`⌈c·kh·kw/64⌉`).
    kdense: usize,
    /// `k * kdense` dense filter words per level, levels back to back.
    a: Vec<u64>,
    /// `bias[(level · classes + class) · k + f]`.
    bias: Vec<i32>,
}

impl GemmPrep {
    /// Repacks one filter plane per residual level, level 0 first, and
    /// builds its bias table for `geom`'s border classes — in
    /// O(filters × classes) adds from per-tap popcounts, with one
    /// allocation per table.
    fn new(geom: &ConvGeometry, levels: &[&BitFilter]) -> GemmPrep {
        let (kh, kw) = (geom.kh, geom.kw);
        let (rows, cols) = (geom.row_classes(), geom.col_classes());
        let k = levels[0].dims().0;
        let kdense = (geom.c * kh * kw).div_ceil(64);
        let mut a = Vec::with_capacity(levels.len() * k * kdense);
        let mut bias = Vec::with_capacity(levels.len() * geom.border_classes() * k);
        let mut pc = vec![0i32; kh * kw * k];
        for filter in levels {
            dense_filter_words(filter, &mut a, &mut pc);
            for rc in 0..rows.count() {
                for cc in 0..cols.count() {
                    let (rm, cm) = (rows.mask(rc), cols.mask(cc));
                    let hit = (rm.count_ones() * cm.count_ones()) as i32;
                    let start = bias.len();
                    bias.resize(start + k, hit * geom.c as i32);
                    let row = &mut bias[start..];
                    for ky in 0..kh {
                        for kx in 0..kw {
                            if (rm >> ky) & (cm >> kx) & 1 == 0 {
                                let tap = &pc[(ky * kw + kx) * k..][..k];
                                for (b, &p) in row.iter_mut().zip(tap) {
                                    *b += 2 * p;
                                }
                            }
                        }
                    }
                }
            }
        }
        GemmPrep { kdense, a, bias }
    }
}

/// Packs `np` output pixels (linear tile indices `[t0, t0 + np)`) as
/// dense B-matrix columns: per pixel, the `c·kh·kw` receptive-field
/// input bits in the same `(ky, kx, word)` order as
/// [`dense_filter_words`], laid out column-major by reduction word
/// (`b[j*np + p]`) so the GEMM microkernels load consecutive pixels
/// with one vector load.  `b[..kdense*np]` must be pre-zeroed; the
/// bits of taps that overhang the map edge stay zero (see
/// [`GemmPrep`] for the correction).
///
/// Bit-exactness: the dense layout carries exactly the same bit
/// multiset as the sparse tap words — the channel-padding high bits
/// are zero in both operands by the bitpack invariant (and masked here
/// defensively) — so `Σ_j popcount(a_dense ^ b_dense)` over a pixel's
/// in-bounds taps equals the per-tap mismatch sum of a bounds-checked
/// tap-word walk, word alignment notwithstanding.
fn pack_b_tile(in_words: &[u64], geom: &ConvGeometry, t0: usize, np: usize, b: &mut [u64]) {
    let (c, stride, wpp) = (geom.c, geom.stride, geom.wpp);
    let (kh, kw) = (geom.kh, geom.kw);
    let mut j = 0usize;
    let mut off = 0usize;
    for ky in 0..kh {
        for kx in 0..kw {
            for wi in 0..wpp {
                let nbits = (c - wi * 64).min(64);
                let msk = if nbits == 64 {
                    !0u64
                } else {
                    (1u64 << nbits) - 1
                };
                if off != 0 && off + nbits > 64 {
                    // Tap word straddles two dense rows (c % 64 not a
                    // divisor of 64 — never the case for power-of-two
                    // widths, so this path is cold).
                    let (head, tail) = b.split_at_mut((j + 1) * np);
                    let d = &mut head[j * np..];
                    let d2 = &mut tail[..np];
                    for_each_tap_run(geom, ky, kx, t0, np, |p, pix, len| {
                        for i in 0..len {
                            let word = in_words[(pix + i * stride) * wpp + wi] & msk;
                            d[p + i] |= word << off;
                            d2[p + i] |= word >> (64 - off);
                        }
                    });
                } else {
                    let d = &mut b[j * np..(j + 1) * np];
                    for_each_tap_run(geom, ky, kx, t0, np, |p, pix, len| {
                        if stride == 1 && wpp == 1 {
                            // Contiguous source: a plain mask-shift-or
                            // sweep the compiler auto-vectorizes.
                            let src = &in_words[pix..][..len];
                            for (dd, &s) in d[p..p + len].iter_mut().zip(src) {
                                *dd |= (s & msk) << off;
                            }
                        } else {
                            for i in 0..len {
                                d[p + i] |= (in_words[(pix + i * stride) * wpp + wi] & msk) << off;
                            }
                        }
                    });
                }
                off += nbits;
                if off >= 64 {
                    j += 1;
                    off -= 64;
                }
            }
        }
    }
    debug_assert_eq!(j * 64 + off, c * kh * kw);
}

/// The bounds-checked per-pixel conv that the GEMM engine replaced, kept
/// as the independent oracle behind [`PackedConv::forward_reference`]:
/// it counts each pixel's in-bounds taps directly, with no B repack, no
/// GEMM and no border correction.  Only compiled with the `oracle`
/// feature; no production path runs it.
#[cfg(feature = "oracle")]
mod border {
    use super::{LevelFilters, ACC_PLANES};
    use crate::kernels::geom::Interior;
    use crate::kernels::ConvGeometry;
    use crate::model::MAX_LEVELS;

    /// Every output pixel of all `n` items outside `interior` (all of them
    /// when `None`) through [`border_levels_block`], one filter block at a
    /// time.
    pub(super) fn border_levels(
        in_words: &[u64],
        n: usize,
        geom: &ConvGeometry,
        interior: Option<Interior>,
        levels: &[LevelFilters],
        smap: Option<&[f32]>,
        out: &mut [f32],
    ) {
        let (k, ..) = levels[0].filter.dims();
        let oplane = geom.oh * geom.ow;
        for ni in 0..n {
            let item = &mut out[ni * k * oplane..(ni + 1) * k * oplane];
            let smap_item = smap.map(|s| &s[ni * oplane..(ni + 1) * oplane]);
            let mut ki = 0;
            while ki < k {
                let fb = (k - ki).min(ACC_PLANES);
                border_levels_block(
                    in_words, geom, interior, levels, ni, ki, fb, smap_item, item,
                );
                ki += fb;
            }
        }
    }

    /// Visits every output pixel outside the interior rectangle.
    fn for_each_border(
        oh: usize,
        ow: usize,
        interior: Option<Interior>,
        mut f: impl FnMut(usize, usize),
    ) {
        match interior {
            None => {
                for oy in 0..oh {
                    for ox in 0..ow {
                        f(oy, ox);
                    }
                }
            }
            Some(int) => {
                for oy in 0..int.oy0 {
                    for ox in 0..ow {
                        f(oy, ox);
                    }
                }
                for oy in int.oy0..int.oy1 {
                    for ox in 0..int.ox0 {
                        f(oy, ox);
                    }
                    for ox in int.ox1..ow {
                        f(oy, ox);
                    }
                }
                for oy in int.oy1..oh {
                    for ox in 0..ow {
                        f(oy, ox);
                    }
                }
            }
        }
    }

    /// Writes one finalized output value:
    /// `dot = taps·c − 2·mismatches`, times the fused activation scale
    /// when present.
    #[inline]
    fn finalize(hit: i32, c: usize, mism: i32, scale: f32) -> f32 {
        (hit * c as i32 - 2 * mism) as f32 * scale
    }

    /// Scalar form of [`finalize_row`](super::finalize_row) for border pixels.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn finalize_one(
        o: &mut f32,
        hit: i32,
        c: usize,
        mism: i32,
        first: bool,
        alpha_f: Option<f32>,
        s: Option<f32>,
    ) {
        let scale = match (alpha_f, s) {
            (None, None) => 1.0,
            (Some(a), None) => a,
            (Some(a), Some(s)) => a * s,
            (None, Some(s)) => s,
        };
        let v = finalize(hit, c, mism, scale);
        if first {
            *o = v;
        } else {
            *o += v;
        }
    }

    /// Border pixels for one filter block: general per-tap path with
    /// bounds checks, accumulating each (level, filter) mismatch count in
    /// a fixed register array and finalizing in place, levels ascending.
    /// Visits every pixel outside `interior`.  `out` is the single item's
    /// `[k, oh, ow]` plane.
    #[allow(clippy::too_many_arguments)]
    fn border_levels_block(
        in_words: &[u64],
        geom: &ConvGeometry,
        interior: Option<Interior>,
        levels: &[LevelFilters],
        ni: usize,
        ki: usize,
        fb: usize,
        smap_item: Option<&[f32]>,
        out: &mut [f32],
    ) {
        let (c, h, w) = (geom.c, geom.h, geom.w);
        let (stride, pad, wpp) = (geom.stride, geom.pad, geom.wpp);
        let (oh, ow, kh, kw) = (geom.oh, geom.ow, geom.kh, geom.kw);
        let oplane = oh * ow;
        let taps = geom.taps_hit();
        debug_assert!(levels.len() <= MAX_LEVELS);
        for_each_border(oh, ow, interior, |oy, ox| {
            let p = oy * ow + ox;
            let mut mism = [[0i32; ACC_PLANES]; MAX_LEVELS];
            for ky in 0..kh {
                let iy = oy * stride + ky;
                if iy < pad || iy - pad >= h {
                    continue;
                }
                let iy = iy - pad;
                for kx in 0..kw {
                    let ix = ox * stride + kx;
                    if ix < pad || ix - pad >= w {
                        continue;
                    }
                    let ix = ix - pad;
                    let ibase = ((ni * h + iy) * w + ix) * wpp;
                    let src = &in_words[ibase..ibase + wpp];
                    for (lm, lv) in mism.iter_mut().zip(levels) {
                        let f_words = lv.filter.as_words();
                        for (f, m) in lm.iter_mut().enumerate().take(fb) {
                            let fbase = (((ki + f) * kh + ky) * kw + kx) * wpp;
                            for (a, b) in src.iter().zip(&f_words[fbase..fbase + wpp]) {
                                *m += (a ^ b).count_ones() as i32;
                            }
                        }
                    }
                }
            }
            let s = smap_item.map(|sm| sm[p]);
            for (l, lv) in levels.iter().enumerate() {
                for f in 0..fb {
                    finalize_one(
                        &mut out[(ki + f) * oplane + p],
                        taps[p],
                        c,
                        mism[l][f],
                        l == 0,
                        lv.alpha.map(|a| a[ki + f]),
                        s,
                    );
                }
            }
        });
    }
}

/// Shape-derived state for running one [`PackedConv`] at a fixed input
/// resolution: the precomputed [`ConvGeometry`], the fused
/// binarization [`SignRule`]s (PlainSign mode), the kernel backend, and
/// the GEMM's dense filter rows with their border-class biases —
/// everything `forward_prepped` needs that does not depend on the
/// activations.  Built once per `Step::Conv` at plan-compile time.
///
/// This is deliberately *not* stored on [`PackedConv`] itself: the
/// conv is a serialized wire-format struct, and prep state is
/// derivable, per-resolution, and backend-specific.
#[derive(Debug, Clone)]
pub struct ConvPrep {
    geom: ConvGeometry,
    rules: Vec<SignRule>,
    backend: KernelBackend,
    /// Effective residual level count for this prep: the conv's own
    /// level count, possibly capped lower (cascade triage runs an
    /// M-level model at M = 1).
    levels: usize,
    /// Dense A-matrix words and border-class biases of the GEMM.
    gemm: GemmPrep,
}

impl ConvPrep {
    /// The precomputed geometry tables.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geom
    }

    /// The kernel backend this prep dispatches to.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// Residual binarization levels this prep will execute.
    pub fn levels(&self) -> usize {
        self.levels
    }
}

/// A compiled binary convolution block: batch-norm affine + packed
/// weights + output scaling.
///
/// The packed weights are a stack of M residual bit planes (ReBNet's
/// residual binarization, `W ≈ Σ_ℓ α_ℓ ⊙ sign(r_ℓ)`): `filter` /
/// `alpha_w` hold level 0 — exactly the classic single-bit
/// representation — and `extra_levels` holds the `M − 1` correction
/// planes with their per-level, per-filter scales.  Inference runs one
/// XNOR pass of the *same* popcount kernels per plane and accumulates;
/// an empty `extra_levels` is bit-for-bit the old single-level conv.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackedConv {
    bn_scale: Vec<f32>,
    bn_shift: Vec<f32>,
    filter: BitFilter,
    alpha_w: Vec<f32>,
    stride: usize,
    pad: usize,
    kernel: usize,
    scaling: ScalingMode,
    extra_levels: Vec<(BitFilter, Vec<f32>)>,
}

impl PackedConv {
    /// Compiles one training-path [`BnnBlock`] into packed form, using
    /// the block's running batch-norm statistics.
    pub fn compile(block: &BnnBlock) -> Self {
        let bn = block.batch_norm();
        let conv = block.conv();
        let c = bn.gamma().value.numel();
        let mut bn_scale = Vec::with_capacity(c);
        let mut bn_shift = Vec::with_capacity(c);
        for ci in 0..c {
            let inv_std = 1.0 / (bn.running_var()[ci] + bn.epsilon()).sqrt();
            let g = bn.gamma().value.as_slice()[ci];
            let b = bn.beta().value.as_slice()[ci];
            bn_scale.push(g * inv_std);
            bn_shift.push(b - g * bn.running_mean()[ci] * inv_std);
        }
        let w = &conv.weight().value;
        let scaling = conv.scaling_mode();
        // Residual weight binarization: level 0 is the classic
        // single-bit plane (r_0 = W, so its BitFilter and α_W match
        // the old compile exactly); levels 1.. pack the sign bits of
        // the successive residuals with their own per-filter scales.
        let plain = matches!(scaling, ScalingMode::PlainSign);
        let mut lv = residual_weight_levels(w, conv.levels(), plain).into_iter();
        let (r0, alpha_w) = lv.next().expect("at least one level");
        let extra_levels = lv
            .map(|(r, alpha)| (BitFilter::from_tensor(&r), alpha))
            .collect();
        PackedConv {
            bn_scale,
            bn_shift,
            filter: BitFilter::from_tensor(&r0),
            alpha_w,
            stride: conv.stride(),
            pad: conv.pad(),
            kernel: w.shape()[2],
            scaling,
            extra_levels,
        }
    }

    /// Rebuilds a packed conv from its parts (wire codec + tests).
    /// `extra_levels` holds the residual correction planes beyond the
    /// first; pass an empty vector for a classic single-level conv.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        bn_scale: Vec<f32>,
        bn_shift: Vec<f32>,
        filter: BitFilter,
        alpha_w: Vec<f32>,
        stride: usize,
        pad: usize,
        kernel: usize,
        scaling: ScalingMode,
        extra_levels: Vec<(BitFilter, Vec<f32>)>,
    ) -> Self {
        PackedConv {
            bn_scale,
            bn_shift,
            filter,
            alpha_w,
            stride,
            pad,
            kernel,
            scaling,
            extra_levels,
        }
    }

    /// Folded batch-norm scale per input channel.
    pub fn bn_scale(&self) -> &[f32] {
        &self.bn_scale
    }

    /// Folded batch-norm shift per input channel.
    pub fn bn_shift(&self) -> &[f32] {
        &self.bn_shift
    }

    /// The bit-packed weights.
    pub fn filter(&self) -> &BitFilter {
        &self.filter
    }

    /// Per-filter weight scale `α_W` (level 0).
    pub fn alpha_w(&self) -> &[f32] {
        &self.alpha_w
    }

    /// Residual binarization level count `M` (1 = single-bit).
    pub fn levels(&self) -> usize {
        1 + self.extra_levels.len()
    }

    /// The residual correction planes beyond level 0, each with its
    /// per-filter scales.
    pub fn extra_levels(&self) -> &[(BitFilter, Vec<f32>)] {
        &self.extra_levels
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each side.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Square kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// The activation-scaling mode this conv was compiled with.
    pub fn scaling(&self) -> ScalingMode {
        self.scaling
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.alpha_w.len()
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.bn_scale.len()
    }

    /// Output spatial size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.kernel) / self.stride + 1,
            (w + 2 * self.pad - self.kernel) / self.stride + 1,
        )
    }

    /// Runs the block on a real-valued NCHW activation.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.bn_scale.len(), "channel mismatch");
        let (oh, ow) = self.output_hw(h, w);
        let mut out = vec![0.0f32; n * self.alpha_w.len() * oh * ow];
        let mut ws = global_pool().checkout();
        self.forward_into(x.as_slice(), n, h, w, &mut ws, &mut out);
        global_pool().restore(ws);
        Tensor::from_vec(&[n, self.alpha_w.len(), oh, ow], out)
    }

    /// Builds the shape-derived [`ConvPrep`] for an `h × w` input,
    /// dispatching to [`active_backend`].
    pub fn prepare(&self, h: usize, w: usize) -> ConvPrep {
        self.prepare_with_backend(h, w, active_backend())
    }

    /// [`PackedConv::prepare`] with an explicit kernel backend, running
    /// all compiled-in residual levels.
    pub fn prepare_with_backend(&self, h: usize, w: usize, backend: KernelBackend) -> ConvPrep {
        self.prepare_capped(h, w, backend, usize::MAX)
    }

    /// [`PackedConv::prepare_with_backend`] with the executed residual
    /// level count capped at `max_levels` (clamped to `1..=M`): the
    /// cascade's triage stage runs an M-level model at M = 1 without
    /// recompiling it.
    pub fn prepare_capped(
        &self,
        h: usize,
        w: usize,
        backend: KernelBackend,
        max_levels: usize,
    ) -> ConvPrep {
        let c = self.bn_scale.len();
        let geom = ConvGeometry::new(c, h, w, self.kernel, self.kernel, self.stride, self.pad);
        // PlainSign binarizes sign(s·x + b); fold the affine into one
        // exact threshold rule per channel so the forward pass packs
        // bits straight from the raw input.  The scaled modes need the
        // affine values themselves (for the |T_in| mean) and use the
        // fused pack+mean pass instead.
        let rules = if matches!(self.scaling, ScalingMode::PlainSign) {
            self.bn_scale
                .iter()
                .zip(&self.bn_shift)
                .map(|(&s, &b)| exact_sign_rule(s, b))
                .collect()
        } else {
            Vec::new()
        };
        let levels = max_levels.clamp(1, self.levels());
        // Dense GEMM A-matrix and border biases per executed level:
        // built eagerly (the prep is compiled once per plan step) so
        // forwards only pack the activation side.
        let mut planes = [&self.filter; MAX_LEVELS];
        for (plane, (f, _)) in planes[1..levels].iter_mut().zip(&self.extra_levels) {
            *plane = f;
        }
        let gemm = GemmPrep::new(&geom, &planes[..levels]);
        ConvPrep {
            geom,
            rules,
            backend,
            levels,
            gemm,
        }
    }

    /// Runs the block on a raw NCHW slice into a caller-provided
    /// `[n, k, oh, ow]` buffer (overwritten), with every intermediate —
    /// packed sign words, integer popcount scratch, scale maps — drawn
    /// from `ws`.  After one warm-up call with the same shapes,
    /// subsequent calls perform no heap allocation.
    ///
    /// Builds a fresh [`ConvPrep`] per call; plan-driven callers build
    /// it once and use [`PackedConv::forward_prepped`].
    ///
    /// # Panics
    ///
    /// Panics when a slice length disagrees with the dimensions.
    pub fn forward_into(
        &self,
        x: &[f32],
        n: usize,
        h: usize,
        w: usize,
        ws: &mut Workspace,
        out: &mut [f32],
    ) {
        let prep = self.prepare(h, w);
        self.forward_prepped(&prep, x, n, ws, out);
    }

    /// [`PackedConv::forward_into`] with precomputed shape-derived
    /// state (the input resolution is fixed by `prep`).
    ///
    /// The batch-norm affine is fused into the binarize+pack pass, so
    /// no normalized f32 tensor is ever materialized: PlainSign packs
    /// through exact per-channel threshold rules; the scaled modes use
    /// one fused pass that packs and accumulates the `|T_in|` channel
    /// mean together, then box-filters it with the O(1) sliding window.
    /// Every output pixel of all `n` items then runs through one
    /// bit-sliced XNOR-GEMM, border pixels included, at every batch
    /// size (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when a slice length disagrees with the dimensions or
    /// `prep` was built for a different conv shape.
    pub fn forward_prepped(
        &self,
        prep: &ConvPrep,
        x: &[f32],
        n: usize,
        ws: &mut Workspace,
        out: &mut [f32],
    ) {
        self.forward_with(prep, x, n, ws, out, |words, levels, smap, ws, out| {
            conv_levels(
                prep.backend,
                words,
                n,
                &prep.geom,
                &prep.gemm,
                levels,
                smap,
                ws,
                out,
            )
        });
    }

    /// Test oracle for [`PackedConv::forward_prepped`]: the same
    /// binarize+pack, with every output pixel sent through the
    /// bounds-checked per-pixel path.  No dense B-repack, no GEMM and no
    /// border correction, so it checks the GEMM engine against an
    /// independent count; the finalize float ops are the same, so the
    /// outputs must match bit for bit.  Only compiled with the `oracle`
    /// feature.
    ///
    /// # Panics
    ///
    /// As [`PackedConv::forward_prepped`].
    #[cfg(feature = "oracle")]
    pub fn forward_reference(
        &self,
        prep: &ConvPrep,
        x: &[f32],
        n: usize,
        ws: &mut Workspace,
        out: &mut [f32],
    ) {
        self.forward_with(prep, x, n, ws, out, |words, levels, smap, _, out| {
            border::border_levels(words, n, &prep.geom, None, levels, smap, out)
        });
    }

    /// Binarizes and packs `x` (batch-norm affine fused), builds the
    /// residual level table, and hands the packed words, the levels and
    /// the activation scale map (scaled modes) to `conv`.
    fn forward_with(
        &self,
        prep: &ConvPrep,
        x: &[f32],
        n: usize,
        ws: &mut Workspace,
        out: &mut [f32],
        conv: impl FnOnce(&[u64], &[LevelFilters], Option<&[f32]>, &mut Workspace, &mut [f32]),
    ) {
        let c = self.bn_scale.len();
        let geom = &prep.geom;
        assert_eq!(
            (geom.c, geom.kh, geom.stride, geom.pad),
            (c, self.kernel, self.stride, self.pad),
            "prep was built for a different conv"
        );
        let (h, w) = (geom.h, geom.w);
        let plane = h * w;
        assert_eq!(x.len(), n * c * plane, "input length mismatch");
        let oplane = geom.oh * geom.ow;
        let ko = self.alpha_w.len();
        assert_eq!(out.len(), n * ko * oplane, "output length mismatch");
        let wpp = geom.wpp;
        let mut words = ws.take_u64(n * plane * wpp);

        // Residual levels beyond the first to execute: the prep can cap
        // below the compiled-in count (cascade triage).  With none, the
        // code below is call-for-call the single-level path.
        let extra = prep.levels.min(self.levels()).saturating_sub(1);
        let nl = 1 + extra;

        // Level table: level 0 is the classic single-bit plane
        // (unscaled in PlainSign mode, α_W-scaled otherwise); the
        // correction planes always carry their per-level scales.  A
        // fixed stack array keeps the warm path allocation-free.
        let mut lv = [LevelFilters {
            filter: &self.filter,
            alpha: None,
        }; MAX_LEVELS];
        if !matches!(self.scaling, ScalingMode::PlainSign) {
            lv[0].alpha = Some(&self.alpha_w);
        }
        for (slot, (filter_l, alpha_l)) in lv[1..nl].iter_mut().zip(&self.extra_levels) {
            *slot = LevelFilters {
                filter: filter_l,
                alpha: Some(alpha_l),
            };
        }

        let mut smap = None;
        if matches!(self.scaling, ScalingMode::PlainSign) {
            pack_rules_into(x, n, c, h, w, &prep.rules, &mut words);
        } else {
            // Factored activation scale: the exact same map the float
            // Shared path multiplies into its output, so compiled
            // inference reproduces the training-path function.
            // Networks trained with PerChannel scaling are
            // approximated by this shared map at inference (see crate
            // docs).
            let mut sm = ws.take_f32(n * oplane);
            let mut mean = ws.take_f32(plane);
            let mut colsum = ws.take_f64(w);
            for ni in 0..n {
                kernels::pack_affine_mean(
                    prep.backend,
                    &x[ni * c * plane..(ni + 1) * c * plane],
                    c,
                    h,
                    w,
                    &self.bn_scale,
                    &self.bn_shift,
                    &mut words[ni * plane * wpp..(ni + 1) * plane * wpp],
                    &mut mean,
                );
                box_filter_sliding_into(
                    &mean,
                    h,
                    w,
                    self.kernel,
                    self.kernel,
                    self.stride,
                    self.pad,
                    &mut colsum,
                    &mut sm[ni * oplane..(ni + 1) * oplane],
                );
            }
            ws.give_f64(colsum);
            ws.give_f32(mean);
            smap = Some(sm);
        }

        conv(&words, &lv[..nl], smap.as_deref(), ws, out);
        if let Some(sm) = smap {
            ws.give_f32(sm);
        }
        ws.give_u64(words);
    }
}

/// A compiled residual block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackedResidual {
    conv1: PackedConv,
    conv2: PackedConv,
    shortcut: Option<PackedConv>,
}

impl PackedResidual {
    /// Compiles a training-path residual block.
    pub fn compile(block: &BinaryResidualBlock) -> Self {
        let (b1, b2) = block.main_path();
        PackedResidual {
            conv1: PackedConv::compile(b1),
            conv2: PackedConv::compile(b2),
            shortcut: block.projection().map(PackedConv::compile),
        }
    }

    /// Rebuilds a residual block from its parts (wire codec + tests).
    pub fn from_raw_parts(
        conv1: PackedConv,
        conv2: PackedConv,
        shortcut: Option<PackedConv>,
    ) -> Self {
        PackedResidual {
            conv1,
            conv2,
            shortcut,
        }
    }

    /// First main-path conv (stride/channel change happens here).
    pub fn conv1(&self) -> &PackedConv {
        &self.conv1
    }

    /// Second main-path conv (stride 1).
    pub fn conv2(&self) -> &PackedConv {
        &self.conv2
    }

    /// The 1×1 projection shortcut, when the block reshapes.
    pub fn shortcut(&self) -> Option<&PackedConv> {
        self.shortcut.as_ref()
    }

    /// Output spatial size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let (h1, w1) = self.conv1.output_hw(h, w);
        self.conv2.output_hw(h1, w1)
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.conv2.out_channels()
    }

    /// Runs the block.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let (n, _, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.output_hw(h, w);
        let ko = self.out_channels();
        let mut out = vec![0.0f32; n * ko * oh * ow];
        let mut ws = global_pool().checkout();
        self.forward_into(x.as_slice(), n, h, w, &mut ws, &mut out);
        global_pool().restore(ws);
        Tensor::from_vec(&[n, ko, oh, ow], out)
    }

    /// Runs the block on a raw NCHW slice into a caller-provided
    /// `[n, k, oh, ow]` buffer (overwritten), drawing every
    /// intermediate activation from `ws`.
    ///
    /// # Panics
    ///
    /// Panics when a slice length disagrees with the dimensions.
    pub fn forward_into(
        &self,
        x: &[f32],
        n: usize,
        h: usize,
        w: usize,
        ws: &mut Workspace,
        out: &mut [f32],
    ) {
        let (h1, w1) = self.conv1.output_hw(h, w);
        let mut mid = ws.take_f32(n * self.conv1.out_channels() * h1 * w1);
        self.conv1.forward_into(x, n, h, w, ws, &mut mid);
        self.conv2.forward_into(&mid, n, h1, w1, ws, out);
        match &self.shortcut {
            Some(s) => {
                let mut short = ws.take_f32(out.len());
                s.forward_into(x, n, h, w, ws, &mut short);
                for (o, v) in out.iter_mut().zip(&short) {
                    *o += v;
                }
                ws.give_f32(short);
            }
            None => {
                assert_eq!(x.len(), out.len(), "identity shortcut shape mismatch");
                for (o, v) in out.iter_mut().zip(x) {
                    *o += v;
                }
            }
        }
        ws.give_f32(mid);
    }
}

/// A trained [`BnnResNet`] compiled for bit-packed XNOR inference.
///
/// # Example
///
/// ```
/// use hotspot_bnn::{BnnResNet, NetConfig, PackedBnn};
/// use hotspot_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = BnnResNet::new(&NetConfig::tiny(16), &mut rng);
/// let packed = PackedBnn::compile(&net);
/// let logits = packed.forward(&Tensor::ones(&[1, 1, 16, 16]));
/// assert_eq!(logits.shape(), &[1, 2]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackedBnn {
    stem: PackedConv,
    blocks: Vec<PackedResidual>,
    fc_weight: Tensor,
    fc_bias: Tensor,
}

impl PackedBnn {
    /// Compiles a trained network (run at least one training batch
    /// first so the batch-norm running statistics are meaningful).
    pub fn compile(net: &BnnResNet) -> Self {
        // The final dense stays full precision, as in the paper.
        let fcw = net_fc_weight(net);
        PackedBnn {
            stem: PackedConv::compile(net.stem()),
            blocks: net.blocks().iter().map(PackedResidual::compile).collect(),
            fc_weight: fcw.0,
            fc_bias: fcw.1,
        }
    }

    /// Rebuilds a model from its parts (wire codec + tests).
    pub fn from_raw_parts(
        stem: PackedConv,
        blocks: Vec<PackedResidual>,
        fc_weight: Tensor,
        fc_bias: Tensor,
    ) -> Self {
        PackedBnn {
            stem,
            blocks,
            fc_weight,
            fc_bias,
        }
    }

    /// The compiled stem conv.
    pub fn stem(&self) -> &PackedConv {
        &self.stem
    }

    /// The compiled residual blocks, in execution order.
    pub fn blocks(&self) -> &[PackedResidual] {
        &self.blocks
    }

    /// Full-precision classifier weight `[2, c]`.
    pub fn fc_weight(&self) -> &Tensor {
        &self.fc_weight
    }

    /// Full-precision classifier bias `[2]`.
    pub fn fc_bias(&self) -> &Tensor {
        &self.fc_bias
    }

    /// The model's residual binarization level count `M` (the maximum
    /// over its convolutions; 1 = classic single-bit).
    pub fn levels(&self) -> usize {
        let conv_levels = |c: &PackedConv| c.levels();
        let mut m = conv_levels(&self.stem);
        for b in &self.blocks {
            m = m.max(conv_levels(b.conv1())).max(conv_levels(b.conv2()));
            if let Some(s) = b.shortcut() {
                m = m.max(conv_levels(s));
            }
        }
        m
    }

    /// A CRC32 fingerprint of the model's *architecture*: every layer's
    /// filter dimensions, stride, padding, scaling mode and residual
    /// level count, plus the classifier head shape — but none of the
    /// weights.  Two models trained from the same [`NetConfig`] share a
    /// fingerprint; any topology change breaks it.  The serving layer
    /// uses this to validate a hot-swap candidate before publishing it:
    /// a model with a different fingerprint would silently change the
    /// service's input contract or cost profile.
    ///
    /// [`NetConfig`]: crate::model::NetConfig
    pub fn arch_fingerprint(&self) -> u32 {
        let mut w = WireWriter::new();
        let push_conv = |w: &mut WireWriter, conv: &PackedConv| {
            let (k, c, kh, kw) = conv.filter().dims();
            w.put_usize_slice(&[k, c, kh, kw, conv.stride(), conv.pad(), conv.levels()]);
            w.put_u8(match conv.scaling() {
                ScalingMode::PlainSign => 0,
                ScalingMode::Shared => 1,
                ScalingMode::PerChannel => 2,
            });
        };
        push_conv(&mut w, &self.stem);
        w.put_usize(self.blocks.len());
        for b in &self.blocks {
            push_conv(&mut w, b.conv1());
            push_conv(&mut w, b.conv2());
            w.put_bool(b.shortcut().is_some());
            if let Some(s) = b.shortcut() {
                push_conv(&mut w, s);
            }
        }
        w.put_usize_slice(self.fc_weight.shape());
        w.put_usize_slice(self.fc_bias.shape());
        crc32(&w.into_bytes())
    }

    /// Classifies a batch of clips (`[n, 1, h, w]` ±1 tensors),
    /// returning `[n, 2]` logits.
    ///
    /// Compiles a one-shot [`ExecPlan`](crate::plan::ExecPlan) for the
    /// clip resolution and runs it with a pooled workspace.  Callers on
    /// a hot path should compile the plan once and call
    /// [`ExecPlan::run_into`](crate::plan::ExecPlan::run_into) instead.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 4, "packed forward expects NCHW input");
        let plan = self.plan((x.shape()[2], x.shape()[3]));
        let mut ws = global_pool().checkout();
        let logits = plan.run(x, &mut ws);
        global_pool().restore(ws);
        logits
    }
}

fn net_fc_weight(net: &BnnResNet) -> (Tensor, Tensor) {
    // BnnResNet exposes its dense layer parameters through the summary
    // API; here we reach the actual tensors via the public accessors.
    (net.fc_weight().clone(), net.fc_bias().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ste::sign_tensor;
    use hotspot_nn::Layer;
    use hotspot_tensor::conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pseudo(shape: &[usize], seed: u32) -> Tensor {
        let numel: usize = shape.iter().product();
        let mut state = seed;
        Tensor::from_vec(
            shape,
            (0..numel)
                .map(|_| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    (state >> 16) as f32 / 32768.0 - 1.0
                })
                .collect(),
        )
    }

    #[test]
    fn xnor_matches_float_sign_conv() {
        // The packed kernel must agree exactly with a float convolution
        // of the sign tensors (zero padding).
        for (cin, k, stride, pad, seed) in [
            (3usize, 2usize, 1usize, 1usize, 1u32),
            (64, 3, 1, 1, 2),
            (70, 2, 2, 0, 3), // crosses the word boundary
            (1, 3, 1, 1, 4),
        ] {
            let x = pseudo(&[2, cin, 6, 6], seed);
            let w = pseudo(&[4, cin, k, k], seed + 100);
            let sx = sign_tensor(&x);
            let sw = sign_tensor(&w);
            let expect = conv2d(&sx, &sw, None, stride, pad);
            let got = xnor_conv2d(
                &BitTensor::from_tensor(&x),
                &BitFilter::from_tensor(&w),
                stride,
                pad,
            );
            assert_eq!(got.shape(), expect.shape());
            for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
                assert!((a - b).abs() < 1e-3, "cin={cin} k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn packed_block_matches_float_block_plain_sign() {
        // With PlainSign scaling the packed path reproduces the float
        // eval path exactly (same BN affine, same sign conv).
        let mut rng = StdRng::seed_from_u64(9);
        let mut block = BnnBlock::new(3, 4, 3, 1, 1, ScalingMode::PlainSign, &mut rng);
        // Drive BN running stats with a few training batches.
        for i in 0..5 {
            let _ = block.forward(&pseudo(&[4, 3, 6, 6], 50 + i), true);
        }
        let x = pseudo(&[2, 3, 6, 6], 99);
        let expect = block.forward(&x, false);
        let packed = PackedConv::compile(&block);
        let got = packed.forward(&x);
        for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn packed_shared_block_matches_float_block_exactly() {
        // Shared scaling is factored output-side in the float path, so
        // the packed engine computes the identical function in eval
        // mode (same BN affine, same sign conv, same scale map).
        let mut rng = StdRng::seed_from_u64(10);
        let mut block = BnnBlock::new(2, 3, 3, 1, 1, ScalingMode::Shared, &mut rng);
        for i in 0..5 {
            let _ = block.forward(&pseudo(&[4, 2, 8, 8], 70 + i), true);
        }
        let x = pseudo(&[1, 2, 8, 8], 199);
        let expect = block.forward(&x, false);
        let got = PackedConv::compile(&block).forward(&x);
        for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn packed_shared_strided_block_matches_exactly() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut block = BnnBlock::new(3, 4, 3, 2, 1, ScalingMode::Shared, &mut rng);
        for i in 0..4 {
            let _ = block.forward(&pseudo(&[2, 3, 8, 8], 80 + i), true);
        }
        let x = pseudo(&[2, 3, 8, 8], 301);
        let expect = block.forward(&x, false);
        let got = PackedConv::compile(&block).forward(&x);
        assert_eq!(got.shape(), expect.shape());
        for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn packed_model_runs_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = crate::BnnResNet::new(&crate::NetConfig::tiny(16), &mut rng);
        // Warm BN stats.
        let _ = net.forward(&pseudo(&[4, 1, 16, 16], 1), true);
        let packed = PackedBnn::compile(&net);
        let x = pseudo(&[3, 1, 16, 16], 2);
        let a = packed.forward(&x);
        let b = packed.forward(&x);
        assert_eq!(a, b);
        assert_eq!(a.shape(), &[3, 2]);
    }

    #[test]
    fn arch_fingerprint_tracks_topology_not_weights() {
        let compile = |seed: u64, cfg: &crate::NetConfig| {
            let mut rng = StdRng::seed_from_u64(seed);
            PackedBnn::compile(&crate::BnnResNet::new(cfg, &mut rng))
        };
        let cfg = crate::NetConfig::tiny(16);
        let a = compile(1, &cfg);
        let b = compile(2, &cfg);
        assert_eq!(
            a.arch_fingerprint(),
            b.arch_fingerprint(),
            "same topology, different weights → same fingerprint"
        );
        // Any topology change breaks the fingerprint.
        let mut wider = cfg.clone();
        wider.stem_filters = 8;
        assert_ne!(
            a.arch_fingerprint(),
            compile(1, &wider).arch_fingerprint(),
            "stem width is part of the fingerprint"
        );
        let leveled = cfg.clone().with_levels(2);
        assert_ne!(
            a.arch_fingerprint(),
            compile(1, &leveled).arch_fingerprint(),
            "residual level count is part of the fingerprint"
        );
    }

    #[test]
    fn bitpacking_shrinks_weight_storage() {
        // 64 channels of 3x3 weights: 64*9 floats = 2304 bytes vs 9 u64
        // words = 72 bytes per filter.
        let w = pseudo(&[1, 64, 3, 3], 5);
        let f = BitFilter::from_tensor(&w);
        let packed_words: usize = 9; // one word per tap
        assert_eq!(f.dims(), (1, 64, 3, 3));
        assert_eq!(f.tap_words(0, 0, 0).len(), 1);
        let float_bytes = w.numel() * 4;
        let packed_bytes = packed_words * 8;
        assert!(float_bytes >= 32 * packed_bytes);
    }
}
