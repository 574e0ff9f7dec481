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
//! again through a prep-time bias row per (level, row border class,
//! filter) (`GemmPrep`), so border pixels come out bit for bit as a
//! bounds-checked conv computes them.  Every pass of a conv — the
//! binarize-pack, the scale-map box filter, the B repack, the GEMM and
//! the one-sweep epilogue — runs inside one `kernels::isa::Pass`, so the plain
//! slice sweeps compile at the dispatched backend's SIMD width.
//! [`xnor_conv2d`] exposes the engine on raw bit tensors.
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
use crate::kernels::isa::{self, Pass};
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
            isa::run(
                backend,
                ConvPass {
                    backend,
                    in_words: &in_words[ni * item_words..(ni + 1) * item_words],
                    n: 1,
                    geom: &geom,
                    gp: &gemm,
                    levels: &[LevelFilters {
                        filter,
                        alpha: None,
                    }],
                    smap: None,
                    ws,
                    out: item,
                },
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
/// 8 KiB of accumulators per level — sized to stay cache-resident while
/// amortizing the pack cost over every filter block × residual level.
const GEMM_TILE: usize = 1024;

/// [`conv_levels`] as an `kernels::isa::Pass`, for [`xnor_conv2d_backend`].
struct ConvPass<'a> {
    backend: KernelBackend,
    in_words: &'a [u64],
    n: usize,
    geom: &'a ConvGeometry,
    gp: &'a GemmPrep,
    levels: &'a [LevelFilters<'a>],
    smap: Option<&'a [f32]>,
    ws: &'a mut Workspace,
    out: &'a mut [f32],
}

impl Pass for ConvPass<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        conv_levels(
            self.backend,
            self.in_words,
            self.n,
            self.geom,
            self.gp,
            self.levels,
            self.smap,
            self.ws,
            self.out,
        );
    }
}

/// The conv engine: a multi-level binary convolution of `n` packed
/// items into `[n, k, oh, ow]` `out` (every element overwritten).
///
/// Packs tiles of output pixels — spanning rows *and* batch items —
/// as dense B columns once, then streams every filter block × residual
/// level over the same tile through the backend's
/// [`kernels::PopcountGemm`] microkernel, each level into its own
/// accumulator rows.  One [`epilogue`] sweep then writes every output
/// element of the filter block once, from all its levels' mismatch
/// counts.  When `smap` is `Some` — the `[n, oh, ow]` activation scale
/// map — each level's term multiplies `alpha[f] * smap[pixel]`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
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
    let oplane = geom.oh * geom.ow;
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
    let nl = levels.len();
    assert!(
        gp.a.len() >= nl * k * kd && gp.bias_rows.len() >= nl * gp.level_rows,
        "prep holds fewer levels than requested"
    );
    let total = n * oplane;
    let gemm = kernels::gemm_backend(backend);
    let np_cap = GEMM_TILE.min(total.max(1));
    let mut b = ws.take_u64(kd * np_cap);
    let mut acc = ws.take_i32(nl * ACC_PLANES * np_cap);
    let mut t0 = 0usize;
    while t0 < total {
        let np = np_cap.min(total - t0);
        let b_tile = &mut b[..kd * np];
        b_tile.fill(0);
        pack_b_tile(in_words, geom, t0, np, b_tile);
        let mut ki = 0usize;
        while ki < k {
            let fb = (k - ki).min(ACC_PLANES);
            for l in 0..nl {
                let a_block = &gp.a[(l * k + ki) * kd..(l * k + ki + fb) * kd];
                let acc_l = &mut acc[l * fb * np..(l + 1) * fb * np];
                acc_l.fill(0);
                gemm.gemm_block(acc_l, fb, a_block, b_tile, np, kd);
            }
            let block = Block {
                acc: &acc[..nl * fb * np],
                np,
                t0,
                ki,
                fb,
                k,
            };
            // One instantiation per level count keeps the level loop of
            // each element unrolled inside a vectorizable pixel loop.
            match nl {
                1 => epilogue::<1>(&block, geom, gp, levels, smap, out),
                2 => epilogue::<2>(&block, geom, gp, levels, smap, out),
                3 => epilogue::<3>(&block, geom, gp, levels, smap, out),
                4 => epilogue::<4>(&block, geom, gp, levels, smap, out),
                5 => epilogue::<5>(&block, geom, gp, levels, smap, out),
                6 => epilogue::<6>(&block, geom, gp, levels, smap, out),
                7 => epilogue::<7>(&block, geom, gp, levels, smap, out),
                8 => epilogue::<8>(&block, geom, gp, levels, smap, out),
                _ => unreachable!("at most MAX_LEVELS = 8 residual levels"),
            }
            ki += fb;
        }
        t0 += np;
    }
    ws.give_i32(acc);
    ws.give_u64(b);
}

// `conv_levels` instantiates its epilogue for every level count up to
// this bound.
const _: () = assert!(MAX_LEVELS == 8);

/// The GEMM accumulators of one (tile, filter block): level `l`, filter
/// `ki + f` holds the mismatch count of tile pixel `p` at
/// `acc[(l·fb + f)·np + p]`.
struct Block<'a> {
    acc: &'a [i32],
    np: usize,
    t0: usize,
    ki: usize,
    fb: usize,
    k: usize,
}

/// The epilogue of one (tile, filter block): one sweep per output row
/// run and filter that writes each element once from its `L` levels'
/// mismatch counts (see [`finalize_run`]).  The border correction needs
/// no per-pixel bookkeeping: the row run's bias row (`GemmPrep`) holds
/// every column's exact dot-product bias for the run's row class.
#[inline(always)]
fn epilogue<const L: usize>(
    block: &Block,
    geom: &ConvGeometry,
    gp: &GemmPrep,
    levels: &[LevelFilters],
    smap: Option<&[f32]>,
    out: &mut [f32],
) {
    let Block {
        acc,
        np,
        t0,
        ki,
        fb,
        k,
    } = *block;
    let (oh, ow) = (geom.oh, geom.ow);
    let oplane = oh * ow;
    let rows = geom.row_classes();
    for run in Subruns::new(oh, ow, t0, np) {
        let pix = run.oy * ow + run.ox0;
        let bias_row = rows.class(run.oy) * k * ow + run.ox0;
        let srun = smap.map(|s| &s[run.ni * oplane + pix..][..run.len]);
        for f in 0..fb {
            let kf = ki + f;
            let dst = &mut out[(run.ni * k + kf) * oplane + pix..][..run.len];
            let mut dots: [&[i32]; L] = [&[]; L];
            let mut bias: [&[i32]; L] = [&[]; L];
            let mut alpha = [1.0f32; L];
            for l in 0..L {
                dots[l] = &acc[(l * fb + f) * np + run.p..][..run.len];
                bias[l] = &gp.bias_rows[l * gp.level_rows + bias_row + kf * ow..][..run.len];
                if let Some(a) = levels[l].alpha {
                    alpha[l] = a[kf];
                }
            }
            finalize_run(dst, &dots, &bias, &alpha, srun);
        }
    }
}

/// Writes `dst[i] = Σ_l (bias_l[i] − 2·acc_l[i]) as f32 · (α_l ·
/// smap[i])` (just `· α_l` without a scale map; a missing α is `1.0`),
/// levels ascending: level 0 assigns, each further level adds.
///
/// `bias − 2·acc` is exactly the bounds-checked `hit·c − 2·mismatches`
/// (see [`GemmPrep`]), and each element performs the float ops the
/// level-by-level finalize always did, in the same order — one convert,
/// one multiply per level (after `α·s`), one add per level beyond the
/// first — so writing each element once instead of once per level
/// changes no bit.  (`x·1.0` rounds to `x`, so the placeholder scale of
/// an unscaled PlainSign level 0 is exact too.)
#[inline(always)]
fn finalize_run<const L: usize>(
    dst: &mut [f32],
    acc: &[&[i32]; L],
    bias: &[&[i32]; L],
    alpha: &[f32; L],
    smap: Option<&[f32]>,
) {
    let n = dst.len();
    for l in 0..L {
        assert!(
            acc[l].len() == n && bias[l].len() == n,
            "epilogue row length"
        );
    }
    match smap {
        Some(s) => {
            let s = &s[..n];
            for i in 0..n {
                let mut v = (bias[0][i] - 2 * acc[0][i]) as f32 * (alpha[0] * s[i]);
                for l in 1..L {
                    v += (bias[l][i] - 2 * acc[l][i]) as f32 * (alpha[l] * s[i]);
                }
                dst[i] = v;
            }
        }
        None => {
            for i in 0..n {
                let mut v = (bias[0][i] - 2 * acc[0][i]) as f32 * alpha[0];
                for l in 1..L {
                    v += (bias[l][i] - 2 * acc[l][i]) as f32 * alpha[l];
                }
                dst[i] = v;
            }
        }
    }
}

/// A maximal run of consecutive output columns of one `(item, output
/// row)` inside a GEMM tile: tile offsets `p..p + len` hold columns
/// `ox0..ox0 + len` of row `oy` of item `ni`.
#[derive(Clone, Copy)]
struct Subrun {
    p: usize,
    ni: usize,
    oy: usize,
    ox0: usize,
    len: usize,
}

/// Decomposes the linear tile index range `[t0, t0 + np)` into
/// [`Subrun`]s.  The linear index enumerates `[item][row][column]` of
/// the `oh × ow` output plane, so GEMM tiles span row and item
/// boundaries; one div/mod locates the tile's first pixel and every
/// later run starts a row further on — no run lists are ever
/// allocated.  An iterator rather than a callback, so the loops over
/// its runs compile inside the caller's instruction-set instantiation.
struct Subruns {
    oh: usize,
    ow: usize,
    ni: usize,
    oy: usize,
    ox0: usize,
    p: usize,
    np: usize,
}

impl Subruns {
    #[inline(always)]
    fn new(oh: usize, ow: usize, t0: usize, np: usize) -> Self {
        let g = t0 / ow;
        Subruns {
            oh,
            ow,
            ni: g / oh,
            oy: g % oh,
            ox0: t0 % ow,
            p: 0,
            np,
        }
    }
}

impl Iterator for Subruns {
    type Item = Subrun;

    #[inline(always)]
    fn next(&mut self) -> Option<Subrun> {
        if self.p >= self.np {
            return None;
        }
        let len = (self.ow - self.ox0).min(self.np - self.p);
        let run = Subrun {
            p: self.p,
            ni: self.ni,
            oy: self.oy,
            ox0: self.ox0,
            len,
        };
        self.p += len;
        self.ox0 = 0;
        self.oy += 1;
        if self.oy == self.oh {
            self.oy = 0;
            self.ni += 1;
        }
        Some(run)
    }
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
/// [`AxisClasses`](kernels::geom::AxisClasses)); interior pixels get
/// `kh·kw·c`.  The epilogue reads the bias as one row per (level, row
/// class, filter) holding every output column's value, so a sweep over
/// a row run needs no per-pixel class lookup.
#[derive(Debug, Clone)]
struct GemmPrep {
    /// Dense reduction words per filter (`⌈c·kh·kw/64⌉`).
    kdense: usize,
    /// `k * kdense` dense filter words per level, levels back to back.
    a: Vec<u64>,
    /// `bias_rows[l·level_rows + (row_class·k + f)·ow + ox]`: the
    /// dot-product bias of filter `f` at level `l` for output column
    /// `ox` of a row in `row_class`.
    bias_rows: Vec<i32>,
    /// Bias-row entries per level: `row classes · k · ow`.
    level_rows: usize,
}

impl GemmPrep {
    /// Repacks one filter plane per residual level, level 0 first, and
    /// builds its bias rows for `geom`'s border classes — in
    /// O(filters × classes) adds from per-tap popcounts, then one fill
    /// per run of same-class columns.
    fn new(geom: &ConvGeometry, levels: &[&BitFilter]) -> GemmPrep {
        let (kh, kw, ow) = (geom.kh, geom.kw, geom.ow);
        let (rows, cols) = (geom.row_classes(), geom.col_classes());
        let k = levels[0].dims().0;
        let kdense = (geom.c * kh * kw).div_ceil(64);
        let level_rows = rows.count() * k * ow;
        let mut a = Vec::with_capacity(levels.len() * k * kdense);
        let mut bias_rows = Vec::with_capacity(levels.len() * level_rows);
        let mut pc = vec![0i32; kh * kw * k];
        // `bias[cc · k + f]` for the row class being expanded.
        let mut bias = vec![0i32; cols.count() * k];
        // The output row as (column class, run length), left to right.
        let mut col_runs: Vec<(usize, usize)> = Vec::new();
        for ox in 0..ow {
            match col_runs.last_mut() {
                Some((cc, len)) if *cc == cols.class(ox) => *len += 1,
                _ => col_runs.push((cols.class(ox), 1)),
            }
        }
        for filter in levels {
            dense_filter_words(filter, &mut a, &mut pc);
            for rc in 0..rows.count() {
                for cc in 0..cols.count() {
                    let (rm, cm) = (rows.mask(rc), cols.mask(cc));
                    let hit = (rm.count_ones() * cm.count_ones()) as i32;
                    let row = &mut bias[cc * k..(cc + 1) * k];
                    row.fill(hit * geom.c as i32);
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
                for f in 0..k {
                    for &(cc, len) in &col_runs {
                        bias_rows.resize(bias_rows.len() + len, bias[cc * k + f]);
                    }
                }
            }
        }
        GemmPrep {
            kdense,
            a,
            bias_rows,
            level_rows,
        }
    }
}

/// Packs `np` output pixels (linear tile indices `[t0, t0 + np)`) as
/// dense B-matrix columns: per pixel, the `c·kh·kw` receptive-field
/// input bits in the same `(ky, kx, word)` order as
/// [`dense_filter_words`], laid out column-major by reduction word
/// (`b[j*np + p]`) so the GEMM microkernels load consecutive pixels
/// with one vector load.  `b[..kdense*np]` must be pre-zeroed; the
/// bits of taps that overhang the map edge stay zero (see
/// [`GemmPrep`] for the correction).  Each tap's in-bounds stretch of a
/// row is one mask-shift-or sweep ([`or_tap_run`]).
///
/// Bit-exactness: the dense layout carries exactly the same bit
/// multiset as the sparse tap words — the channel-padding high bits
/// are zero in both operands by the bitpack invariant (and masked here
/// defensively) — so `Σ_j popcount(a_dense ^ b_dense)` over a pixel's
/// in-bounds taps equals the per-tap mismatch sum of a bounds-checked
/// tap-word walk, word alignment notwithstanding.
#[inline(always)]
fn pack_b_tile(in_words: &[u64], geom: &ConvGeometry, t0: usize, np: usize, b: &mut [u64]) {
    let (c, stride, wpp) = (geom.c, geom.stride, geom.wpp);
    let (kh, kw) = (geom.kh, geom.kw);
    let mut j = 0usize;
    let mut off = 0usize;
    for ky in 0..kh {
        for kx in 0..kw {
            let tr = geom.tap_range(ky, kx);
            for wi in 0..wpp {
                let nbits = (c - wi * 64).min(64);
                let msk = if nbits == 64 {
                    !0u64
                } else {
                    (1u64 << nbits) - 1
                };
                // A tap word straddles two dense rows when c % 64 does
                // not divide 64 — never for power-of-two widths, so
                // that path is cold.
                let straddle = off != 0 && off + nbits > 64;
                for run in Subruns::new(geom.oh, geom.ow, t0, np) {
                    let lo = run.ox0.max(tr.ox_lo);
                    let hi = (run.ox0 + run.len).min(tr.ox_hi);
                    if !(tr.oy_lo..tr.oy_hi).contains(&run.oy) || lo >= hi {
                        continue;
                    }
                    let iy = run.oy * stride + ky - geom.pad;
                    let ix = lo * stride + kx - geom.pad;
                    let pix = (run.ni * geom.h + iy) * geom.w + ix;
                    let (p, len) = (run.p + lo - run.ox0, hi - lo);
                    if straddle {
                        let (head, tail) = b.split_at_mut((j + 1) * np);
                        for i in 0..len {
                            let word = in_words[(pix + i * stride) * wpp + wi] & msk;
                            head[j * np + p + i] |= word << off;
                            tail[p + i] |= word >> (64 - off);
                        }
                        continue;
                    }
                    let d = &mut b[j * np + p..][..len];
                    match (wpp, stride) {
                        (1, 1) => or_tap_run::<1>(d, &in_words[pix..], msk, off),
                        (1, 2) => or_tap_run::<2>(d, &in_words[pix..], msk, off),
                        _ => {
                            for (i, dd) in d.iter_mut().enumerate() {
                                *dd |= (in_words[(pix + i * stride) * wpp + wi] & msk) << off;
                            }
                        }
                    }
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

/// `d[i] |= (src[S·i] & msk) << off`: one tap's run of single-word
/// pixels, `S` input columns apart.  The last pixel's `S`-word group
/// may end past the row, so it is read on its own.
#[inline(always)]
fn or_tap_run<const S: usize>(d: &mut [u64], src: &[u64], msk: u64, off: usize) {
    let (last, head) = d.split_last_mut().expect("a tap run covers a pixel");
    for (dd, group) in head.iter_mut().zip(src.chunks_exact(S)) {
        *dd |= (group[0] & msk) << off;
    }
    *last |= (src[S * head.len()] & msk) << off;
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

    /// Scalar form of [`finalize_run`](super::finalize_run) for border
    /// pixels, one level at a time.
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
        let prep = self.prepare_with_backend(h, w, active_backend());
        let mut ws = global_pool().checkout();
        self.forward_prepped(&prep, x.as_slice(), n, &mut ws, &mut out);
        global_pool().restore(ws);
        Tensor::from_vec(&[n, self.alpha_w.len(), oh, ow], out)
    }

    /// Builds the shape-derived [`ConvPrep`] for an `h × w` input on
    /// `backend`, running all compiled-in residual levels.
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
    /// `[n, k, oh, ow]` buffer (overwritten), with the shape-derived
    /// state precomputed in `prep` (which fixes the input resolution)
    /// and every intermediate — packed sign words, integer popcount
    /// scratch, scale maps — drawn from `ws`.  After one warm-up call
    /// with the same shapes, subsequent calls perform no heap
    /// allocation.
    ///
    /// The batch-norm affine is fused into the binarize+pack pass, so
    /// no normalized f32 tensor is ever materialized: PlainSign packs
    /// through exact per-channel threshold rules; the scaled modes use
    /// one fused pass that packs and accumulates the `|T_in|` channel
    /// mean together, then box-filters it with the sliding window.
    /// Every output pixel of all `n` items then runs through one
    /// bit-sliced XNOR-GEMM, border pixels included, at every batch
    /// size (see the module docs).  The whole call is one
    /// `kernels::isa::Pass`, compiled for the prep's backend.
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
        isa::run(
            prep.backend,
            ForwardPass {
                conv: self,
                prep,
                x,
                n,
                ws,
                out,
            },
        );
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
        let input = self.binarize(prep, x, n, ws, out.len());
        border::border_levels(
            &input.words,
            n,
            &prep.geom,
            None,
            input.levels(),
            input.smap.as_deref(),
            out,
        );
        input.release(ws);
    }

    /// Binarizes and packs `x` (batch-norm affine fused), builds the
    /// residual level table, and, in the scaled modes, the activation
    /// scale map — everything a conv engine needs besides the prep.
    /// `out_len` is the caller's output length, checked here.
    #[inline(always)]
    fn binarize<'a>(
        &'a self,
        prep: &ConvPrep,
        x: &[f32],
        n: usize,
        ws: &mut Workspace,
        out_len: usize,
    ) -> Binarized<'a> {
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
        assert_eq!(out_len, n * ko * oplane, "output length mismatch");
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
        Binarized {
            words,
            smap,
            lv,
            nl,
        }
    }
}

/// A conv's binarized input (see [`PackedConv::binarize`]): packed sign
/// words, the scaled modes' activation scale map, and the residual
/// level table.  The buffers come from a workspace and go back with
/// [`Binarized::release`].
struct Binarized<'a> {
    words: Vec<u64>,
    smap: Option<Vec<f32>>,
    lv: [LevelFilters<'a>; MAX_LEVELS],
    nl: usize,
}

impl<'a> Binarized<'a> {
    /// The executed residual levels, level 0 first.
    #[inline(always)]
    fn levels(&self) -> &[LevelFilters<'a>] {
        &self.lv[..self.nl]
    }

    /// Returns the buffers to `ws`.
    #[inline(always)]
    fn release(self, ws: &mut Workspace) {
        if let Some(sm) = self.smap {
            ws.give_f32(sm);
        }
        ws.give_u64(self.words);
    }
}

/// One [`PackedConv::forward_prepped`] call as a `kernels::isa::Pass`:
/// the binarize-pack, the box filter, the B repack, the GEMM and the
/// epilogue, all compiled for the prep's backend.
struct ForwardPass<'a> {
    conv: &'a PackedConv,
    prep: &'a ConvPrep,
    x: &'a [f32],
    n: usize,
    ws: &'a mut Workspace,
    out: &'a mut [f32],
}

impl Pass for ForwardPass<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let ForwardPass {
            conv,
            prep,
            x,
            n,
            ws,
            out,
        } = self;
        let input = conv.binarize(prep, x, n, ws, out.len());
        conv_levels(
            prep.backend,
            &input.words,
            n,
            &prep.geom,
            &prep.gemm,
            input.levels(),
            input.smap.as_deref(),
            ws,
            out,
        );
        input.release(ws);
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
