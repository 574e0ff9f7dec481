//! Binarization scaling factors (paper §3.2 and Eq. 14).

use hotspot_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// How binary convolutions estimate the full-precision product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScalingMode {
    /// No scaling: plain `sign(X) ⊛ sign(W)` (the naive BNN).
    PlainSign,
    /// XNOR-Net: one shared spatial scale map computed from the
    /// channel-mean of `|X|`, plus the per-filter `α_W`.
    Shared,
    /// The paper's variant: an independent spatial scale map **per
    /// input channel** (Eq. 14), plus the per-filter `α_W`.  This
    /// estimates the input tensor more accurately than XNOR-Net's
    /// shared map.
    #[default]
    PerChannel,
}

/// Per-filter weight scaling factors `α_W = ‖W_k‖₁ / n` (Eq. 8), one
/// per output filter of a `[k, c, kh, kw]` weight tensor.
///
/// # Panics
///
/// Panics when `w` is not 4-D.
pub fn weight_scale(w: &Tensor) -> Vec<f32> {
    assert_eq!(w.ndim(), 4, "weights must be [k, c, kh, kw]");
    let k = w.shape()[0];
    let n: usize = w.shape()[1..].iter().product();
    let data = w.as_slice();
    (0..k)
        .map(|ki| {
            data[ki * n..(ki + 1) * n]
                .iter()
                .map(|v| v.abs())
                .sum::<f32>()
                / n as f32
        })
        .collect()
}

/// Residual-of-residual weight binarization (ReBNet-style, PAPERS.md):
/// level 0 binarizes `W` itself, and every further level binarizes the
/// residual the previous levels left unexplained,
/// `r_{ℓ+1} = r_ℓ − α_ℓ ⊙ sign(r_ℓ)`, so that
/// `W ≈ Σ_ℓ α_ℓ ⊙ sign(r_ℓ)` with per-level, per-filter scales
/// `α_ℓ = ‖r_ℓ‖₁ / n` (Eq. 8 applied level by level).
///
/// Returns one `(residual, α)` pair per level; consumers binarize each
/// residual with `sign` (the packed path packs its sign bits directly).
/// With `plain_sign` the level-0 scale is pinned to 1 — plain
/// `sign(W)` — matching [`ScalingMode::PlainSign`]'s unscaled first
/// level, while the residual levels still carry their own scales
/// (a residual without a scale cannot shrink the error).
///
/// `levels == 1` reproduces today's single-level binarization exactly:
/// the returned pair is `(W, weight_scale(W))` (or `(W, 1)` for plain
/// sign) and no residual is formed.
///
/// # Panics
///
/// Panics when `w` is not 4-D or `levels == 0`.
pub fn residual_weight_levels(
    w: &Tensor,
    levels: usize,
    plain_sign: bool,
) -> Vec<(Tensor, Vec<f32>)> {
    assert!(levels >= 1, "at least one binarization level");
    assert_eq!(w.ndim(), 4, "weights must be [k, c, kh, kw]");
    let k = w.shape()[0];
    let per: usize = w.shape()[1..].iter().product();
    let mut out = Vec::with_capacity(levels);
    let mut residual = w.clone();
    for level in 0..levels {
        let alpha = if level == 0 && plain_sign {
            vec![1.0; k]
        } else {
            weight_scale(&residual)
        };
        let next = if level + 1 < levels {
            let mut nr = residual.clone();
            let data = nr.as_mut_slice();
            #[allow(clippy::needless_range_loop)] // ki addresses strided filter slabs
            for ki in 0..k {
                let a = alpha[ki];
                for v in &mut data[ki * per..(ki + 1) * per] {
                    *v -= a * if *v >= 0.0 { 1.0 } else { -1.0 };
                }
            }
            Some(nr)
        } else {
            None
        };
        out.push((residual.clone(), alpha));
        if let Some(nr) = next {
            residual = nr;
        }
    }
    out
}

/// Box-filters a single-channel plane with the `kh × kw` averaging
/// kernel `K` of §3.4.3 (every element `1/(kh·kw)`), using the same
/// padding as the convolution it scales.
///
/// `plane` is `h × w` row-major; returns the `oh × ow` scale map for
/// the given stride/pad.  The filter targets magnitude maps (which are
/// non-negative), and its output is clamped at zero so incremental
/// summation can never produce a negative scale factor.
pub fn box_filter(
    plane: &[f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    let mut out = vec![0.0f32; oh * ow];
    box_filter_into(plane, h, w, kh, kw, stride, pad, &mut out);
    out
}

/// [`box_filter`] into a caller-provided `oh × ow` buffer
/// (overwritten).
///
/// # Panics
///
/// Panics when a slice length disagrees with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn box_filter_into(
    plane: &[f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    let mut colsum = vec![0.0f64; w];
    box_filter_sliding_into(plane, h, w, kh, kw, stride, pad, &mut colsum, out);
}

/// Row-sliding incremental box filter: O(kw) work per output pixel
/// instead of the naive O(kh·kw).
///
/// `colsum[x]` holds the vertical window sum of column `x` for the
/// current output row; moving to the next row subtracts departing rows
/// and adds entering ones.  Each output pixel then sums its `kw` column
/// sums left-to-right from `0.0` — deliberately *not* a horizontal
/// running sum — so every output value is a pure function of its own
/// column span.  Sums are kept in `f64` so the incremental row
/// subtract/add introduces no drift against the windowed values (and a
/// final `max(0.0)` clamp guarantees non-negative maps for
/// non-negative input planes regardless of rounding).  The summation
/// order stays as written because the committed golden outputs
/// (`tests/golden_outputs.txt`) pin its bits.
///
/// Every step is a sweep over whole rows: the column-sum updates run
/// over `colsum`, and the output columns whose window lies wholly in
/// bounds sum `kw` shifted `colsum` slices (stride 1 and 2, `kw` ≤ 3,
/// the shapes every conv of the paper net uses); only the clamped edge
/// columns, and other shapes, sum one pixel at a time.  Each lane still
/// performs `((0.0 + cs[x0]) + cs[x0 + 1]) + …`, then `max`, `× inv`
/// and `as f32`, so the vector body is bit-exact against the per-pixel
/// loop at any SIMD width ([`crate::kernels`] compiles it once per x86
/// backend inside the conv engine).
///
/// `colsum` is caller-provided `w`-length scratch (contents ignored) so
/// the packed inference path can run allocation-free; `out` is the
/// `oh × ow` map, overwritten.
///
/// # Panics
///
/// Panics when a slice length disagrees with the dimensions or
/// `stride == 0`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn box_filter_sliding_into(
    plane: &[f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    colsum: &mut [f64],
    out: &mut [f32],
) {
    assert!(stride > 0, "stride must be positive");
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    assert_eq!(plane.len(), h * w, "plane length mismatch");
    assert_eq!(colsum.len(), w, "column scratch length mismatch");
    assert_eq!(out.len(), oh * ow, "box filter output length mismatch");
    let inv = 1.0 / (kh * kw) as f64;
    // Clamped in-bounds input range of a window starting at `o*stride - pad`.
    let span = |o: usize, k: usize, dim: usize| {
        let lo = (o * stride).saturating_sub(pad).min(dim);
        let hi = (o * stride + k).saturating_sub(pad).min(dim);
        (lo, hi)
    };
    // Output columns `ox_lo..ox_hi` see all `kw` columns in bounds.
    let ox_lo = pad.div_ceil(stride).min(ow);
    let ox_hi = if w + pad >= kw {
        ((w + pad - kw) / stride + 1).min(ow)
    } else {
        0
    }
    .max(ox_lo);
    let mut prev_rows = (0usize, 0usize);
    for oy in 0..oh {
        let (y0, y1) = span(oy, kh, h);
        if oy == 0 {
            colsum.fill(0.0);
            for y in y0..y1 {
                for (cs, &v) in colsum.iter_mut().zip(&plane[y * w..(y + 1) * w]) {
                    *cs += v as f64;
                }
            }
        } else {
            // The window moves monotonically down: drop departed rows,
            // add entered ones.  (With stride > kh the windows are
            // disjoint, so both ranges clamp to the old/new window.)
            for y in prev_rows.0..y0.min(prev_rows.1) {
                for (cs, &v) in colsum.iter_mut().zip(&plane[y * w..(y + 1) * w]) {
                    *cs -= v as f64;
                }
            }
            for y in prev_rows.1.max(y0)..y1 {
                for (cs, &v) in colsum.iter_mut().zip(&plane[y * w..(y + 1) * w]) {
                    *cs += v as f64;
                }
            }
        }
        prev_rows = (y0, y1);
        let row_out = &mut out[oy * ow..(oy + 1) * ow];
        let pixel = |ox: usize| {
            let (x0, x1) = span(ox, kw, w);
            let mut hsum = 0.0f64;
            for &cs in &colsum[x0..x1] {
                hsum += cs;
            }
            (hsum.max(0.0) * inv) as f32
        };
        for ox in (0..ox_lo).chain(ox_hi..ow) {
            row_out[ox] = pixel(ox);
        }
        let interior = &mut row_out[ox_lo..ox_hi];
        if interior.is_empty() {
            continue;
        }
        let cs = &colsum[ox_lo * stride - pad..];
        match (kw, stride) {
            (1, 1) => box_row::<1, 1>(cs, inv, interior),
            (2, 1) => box_row::<2, 1>(cs, inv, interior),
            (3, 1) => box_row::<3, 1>(cs, inv, interior),
            (1, 2) => box_row::<1, 2>(cs, inv, interior),
            (2, 2) => box_row::<2, 2>(cs, inv, interior),
            (3, 2) => box_row::<3, 2>(cs, inv, interior),
            _ => {
                for (ox, slot) in (ox_lo..ox_hi).zip(interior) {
                    *slot = pixel(ox);
                }
            }
        }
    }
}

/// `out[i] = (((0.0 + cs[S·i]) + cs[S·i + 1]) + … + cs[S·i + K − 1])
/// .max(0.0) · inv as f32` — the in-bounds output columns of one
/// box-filter row, as `K` shifted sweeps over `cs` fused into one pass.
#[inline(always)]
fn box_row<const K: usize, const S: usize>(cs: &[f64], inv: f64, out: &mut [f32]) {
    let n = out.len();
    // Tap `t` of output `i` reads `taps[t][S·i]`.
    let taps: [&[f64]; K] = std::array::from_fn(|t| &cs[t..t + S * (n - 1) + 1]);
    for (i, o) in out.iter_mut().enumerate() {
        let mut hsum = 0.0f64;
        for tap in &taps {
            hsum += tap[S * i];
        }
        *o = (hsum.max(0.0) * inv) as f32;
    }
}

/// The paper's per-channel input scaling (Eq. 14):
/// `α_T(c) = |T_in(c, :, :)| ⊛ K`, computed for every batch item and
/// input channel.  Returns a `[n, c, h, w]` tensor of scale factors
/// positioned at the *input* resolution (stride 1, same padding), which
/// the training path multiplies into `sign(X)` before the convolution.
///
/// # Panics
///
/// Panics when `x` is not 4-D.
pub fn input_scale_per_channel(x: &Tensor, kh: usize, kw: usize) -> Tensor {
    assert_eq!(x.ndim(), 4, "activations must be NCHW");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let pad_h = (kh - 1) / 2;
    let pad_w = (kw - 1) / 2;
    // With stride 1 and symmetric same-padding the map is h × w.
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let data = x.as_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let absplane: Vec<f32> = data[base..base + h * w].iter().map(|v| v.abs()).collect();
            let filtered = box_filter(&absplane, h, w, kh, kw, 1, pad_h.max(pad_w));
            out.as_mut_slice()[base..base + h * w].copy_from_slice(&filtered);
        }
    }
    out
}

/// XNOR-Net's factored output-side scaling map: the channel-mean of
/// `|X|` box-filtered at the convolution's own stride and padding.
///
/// Returns `[n, oh, ow]` — one spatial scale map per batch item, to be
/// broadcast over output channels and multiplied into the binary
/// convolution's output.  This is exactly the map the bit-packed
/// inference engine applies, so a float-path convolution using it is
/// bit-for-bit consistent with [`xnor_conv2d`](crate::xnor_conv2d)
/// inference.
pub fn output_scale_shared(x: &Tensor, k: usize, stride: usize, pad: usize) -> Tensor {
    assert_eq!(x.ndim(), 4, "activations must be NCHW");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut out = Tensor::zeros(&[n, oh, ow]);
    let mut mean = vec![0.0f32; h * w];
    output_scale_shared_into(
        x.as_slice(),
        n,
        c,
        h,
        w,
        k,
        stride,
        pad,
        &mut mean,
        out.as_mut_slice(),
    );
    out
}

/// [`output_scale_shared`] on a raw NCHW slice into a caller-provided
/// `[n, oh, ow]` buffer (overwritten).  `mean_scratch` must be an
/// `h * w` buffer (contents ignored); pass one from a
/// [`hotspot_tensor::Workspace`] for allocation-free steady state.
///
/// # Panics
///
/// Panics when a slice length disagrees with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn output_scale_shared_into(
    data: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    mean_scratch: &mut [f32],
    out: &mut [f32],
) {
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    assert_eq!(data.len(), n * c * h * w, "activation length mismatch");
    assert_eq!(mean_scratch.len(), h * w, "mean scratch length mismatch");
    assert_eq!(out.len(), n * oh * ow, "scale map length mismatch");
    for ni in 0..n {
        let a = &mut *mean_scratch;
        a.fill(0.0);
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for (slot, &v) in a.iter_mut().zip(&data[base..base + h * w]) {
                *slot += v.abs();
            }
        }
        let inv_c = 1.0 / c as f32;
        for slot in a.iter_mut() {
            *slot *= inv_c;
        }
        box_filter_into(
            a,
            h,
            w,
            k,
            k,
            stride,
            pad,
            &mut out[ni * oh * ow..(ni + 1) * oh * ow],
        );
    }
}

/// XNOR-Net's shared input scaling: the channel-mean of `|X|` box-
/// filtered once, broadcast to every channel.  Returned as `[n, c, h,
/// w]` for interchangeability with
/// [`input_scale_per_channel`].
pub fn input_scale_shared(x: &Tensor, kh: usize, kw: usize) -> Tensor {
    assert_eq!(x.ndim(), 4, "activations must be NCHW");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let pad = (kh.max(kw) - 1) / 2;
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let data = x.as_slice();
    for ni in 0..n {
        // A = mean over channels of |X|.
        let mut a = vec![0.0f32; h * w];
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for (slot, &v) in a.iter_mut().zip(&data[base..base + h * w]) {
                *slot += v.abs();
            }
        }
        let inv_c = 1.0 / c as f32;
        for slot in &mut a {
            *slot *= inv_c;
        }
        let filtered = box_filter(&a, h, w, kh, kw, 1, pad);
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            out.as_mut_slice()[base..base + h * w].copy_from_slice(&filtered);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::isa::{self, Pass};
    use crate::kernels::KernelBackend;

    #[test]
    fn weight_scale_is_mean_abs() {
        let w = Tensor::from_vec(
            &[2, 1, 2, 2],
            vec![1.0, -1.0, 2.0, -2.0, 0.5, 0.5, 0.5, 0.5],
        );
        let a = weight_scale(&w);
        assert_eq!(a, vec![1.5, 0.5]);
    }

    #[test]
    fn box_filter_constant_plane() {
        // Away from borders a constant plane filters to itself.
        let plane = vec![3.0f32; 25];
        let f = box_filter(&plane, 5, 5, 3, 3, 1, 1);
        assert_eq!(f.len(), 25);
        assert!((f[12] - 3.0).abs() < 1e-6); // centre
                                             // Corner sees only 4 of 9 taps.
        assert!((f[0] - 3.0 * 4.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn box_filter_strided() {
        let plane: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let f = box_filter(&plane, 4, 4, 2, 2, 2, 0);
        assert_eq!(f.len(), 4);
        // First window: (0+1+4+5)/4.
        assert!((f[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn per_channel_scale_distinguishes_channels() {
        // Channel 0 has magnitude 1, channel 1 magnitude 3.
        let mut x = Tensor::zeros(&[1, 2, 4, 4]);
        for i in 0..16 {
            x.as_mut_slice()[i] = 1.0;
            x.as_mut_slice()[16 + i] = -3.0;
        }
        let s = input_scale_per_channel(&x, 3, 3);
        // Centre pixels: full window of constant magnitude.
        assert!((s.at(&[0, 0, 2, 2]) - 1.0).abs() < 1e-6);
        assert!((s.at(&[0, 1, 2, 2]) - 3.0).abs() < 1e-6);
        // The shared variant averages the two.
        let sh = input_scale_shared(&x, 3, 3);
        assert!((sh.at(&[0, 0, 2, 2]) - 2.0).abs() < 1e-6);
        assert!((sh.at(&[0, 1, 2, 2]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn shared_equals_per_channel_for_single_channel() {
        let x = Tensor::from_vec(&[1, 1, 3, 3], vec![1., -2., 3., -4., 5., -6., 7., -8., 9.]);
        let a = input_scale_per_channel(&x, 3, 3);
        let b = input_scale_shared(&x, 3, 3);
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn sliding_filter_matches_naive_reference() {
        // The pre-sliding O(k²)-per-pixel loop, kept as the oracle.
        let naive = |plane: &[f32], h: usize, w: usize, k: usize, stride: usize, pad: usize| {
            let oh = (h + 2 * pad - k) / stride + 1;
            let ow = (w + 2 * pad - k) / stride + 1;
            let mut out = vec![0.0f32; oh * ow];
            let inv = 1.0 / (k * k) as f64;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f64;
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                acc += plane[iy as usize * w + ix as usize] as f64;
                            }
                        }
                    }
                    out[oy * ow + ox] = (acc * inv) as f32;
                }
            }
            out
        };
        let mut state = 7u32;
        for (h, w) in [(1usize, 1usize), (3, 5), (5, 5), (8, 4), (9, 9), (2, 7)] {
            let plane: Vec<f32> = (0..h * w)
                .map(|_| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    (state >> 16) as f32 / 65536.0 * 3.0
                })
                .collect();
            for k in 1..=3usize {
                for stride in 1..=3usize {
                    for pad in 0..=2usize {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        let expect = naive(&plane, h, w, k, stride, pad);
                        let mut got = vec![-1.0f32; expect.len()];
                        let mut colsum = vec![0.0f64; w];
                        box_filter_sliding_into(
                            &plane,
                            h,
                            w,
                            k,
                            k,
                            stride,
                            pad,
                            &mut colsum,
                            &mut got,
                        );
                        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                            assert!(
                                (g - e).abs() <= 1e-5 * e.abs().max(1.0),
                                "h={h} w={w} k={k} s={stride} p={pad} i={i}: {g} vs {e}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The sliding filter summed one output pixel at a time: the
    /// bit-level reference for [`box_filter_sliding_into`]'s row sweeps.
    #[allow(clippy::too_many_arguments)]
    fn box_filter_reference(
        plane: &[f32],
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        out: &mut [f32],
    ) {
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (w + 2 * pad - kw) / stride + 1;
        assert_eq!(out.len(), oh * ow);
        let mut colsum = vec![0.0f64; w];
        let inv = 1.0 / (kh * kw) as f64;
        let span = |o: usize, k: usize, dim: usize| {
            let lo = (o * stride).saturating_sub(pad).min(dim);
            let hi = (o * stride + k).saturating_sub(pad).min(dim);
            (lo, hi)
        };
        let mut prev_rows = (0usize, 0usize);
        for oy in 0..oh {
            let (y0, y1) = span(oy, kh, h);
            if oy == 0 {
                colsum.fill(0.0);
                for y in y0..y1 {
                    for (cs, &v) in colsum.iter_mut().zip(&plane[y * w..(y + 1) * w]) {
                        *cs += v as f64;
                    }
                }
            } else {
                for y in prev_rows.0..y0.min(prev_rows.1) {
                    for (cs, &v) in colsum.iter_mut().zip(&plane[y * w..(y + 1) * w]) {
                        *cs -= v as f64;
                    }
                }
                for y in prev_rows.1.max(y0)..y1 {
                    for (cs, &v) in colsum.iter_mut().zip(&plane[y * w..(y + 1) * w]) {
                        *cs += v as f64;
                    }
                }
            }
            prev_rows = (y0, y1);
            for (ox, slot) in out[oy * ow..(oy + 1) * ow].iter_mut().enumerate() {
                let (x0, x1) = span(ox, kw, w);
                let mut hsum = 0.0f64;
                for &cs in &colsum[x0..x1] {
                    hsum += cs;
                }
                *slot = (hsum.max(0.0) * inv) as f32;
            }
        }
    }

    /// One box filter call, compiled for a backend's instruction set.
    struct BoxPass<'a> {
        plane: &'a [f32],
        hw: (usize, usize),
        k: usize,
        stride: usize,
        pad: usize,
        colsum: &'a mut [f64],
        out: &'a mut [f32],
    }

    impl Pass for BoxPass<'_> {
        type Output = ();

        #[inline(always)]
        fn run(self) {
            let (h, w) = self.hw;
            box_filter_sliding_into(
                self.plane,
                h,
                w,
                self.k,
                self.k,
                self.stride,
                self.pad,
                self.colsum,
                self.out,
            );
        }
    }

    #[test]
    fn box_filter_rows_match_reference_bitwise_on_every_kernel_backend() {
        // Widths around every vector width and around the paper net's
        // 128; planes mix exact zeros, subnormals, magnitudes from 1e-30
        // to 1e30 and negative values that cancel them, so a lane that
        // summed in another order or in f32 would change a bit.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let widths: Vec<usize> = (1..=17).chain(127..=129).collect();
        for &w in &widths {
            for h in [1usize, 2, 5] {
                let plane: Vec<f32> = (0..h * w)
                    .map(|_| match next() % 10 {
                        0 | 1 => 0.0,
                        2 => f32::from_bits(1 + (next() % 1000) as u32), // subnormal
                        3 => 1e30 * (next() % 7) as f32,
                        4 => -1e30 * (next() % 7) as f32,
                        5 => 1e-30 * (next() % 7 + 1) as f32,
                        _ => (next() % 100_000) as f32 / 997.0,
                    })
                    .collect();
                for k in 1..=3usize {
                    for stride in 1..=3usize {
                        for pad in 0..=2usize {
                            if h + 2 * pad < k || w + 2 * pad < k {
                                continue;
                            }
                            let oh = (h + 2 * pad - k) / stride + 1;
                            let ow = (w + 2 * pad - k) / stride + 1;
                            let mut expect = vec![0.0f32; oh * ow];
                            box_filter_reference(&plane, h, w, k, k, stride, pad, &mut expect);
                            let expect: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
                            for backend in KernelBackend::available() {
                                let mut got = vec![-1.0f32; oh * ow];
                                let mut colsum = vec![f64::NAN; w];
                                isa::run(
                                    backend,
                                    BoxPass {
                                        plane: &plane,
                                        hw: (h, w),
                                        k,
                                        stride,
                                        pad,
                                        colsum: &mut colsum,
                                        out: &mut got,
                                    },
                                );
                                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                                assert_eq!(
                                    got,
                                    expect,
                                    "{} h={h} w={w} k={k} s={stride} p={pad}",
                                    backend.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn residual_levels_shrink_reconstruction_error() {
        let mut state = 11u32;
        let w = Tensor::from_vec(
            &[3, 2, 3, 3],
            (0..3 * 2 * 3 * 3)
                .map(|_| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    (state >> 16) as f32 / 32768.0 - 1.0
                })
                .collect(),
        );
        let per = 2 * 3 * 3;
        for plain_sign in [false, true] {
            let mut prev_err = f32::INFINITY;
            for m in 1..=3usize {
                let lv = residual_weight_levels(&w, m, plain_sign);
                assert_eq!(lv.len(), m);
                // Reconstruct Σ α_ℓ ⊙ sign(r_ℓ) and measure the error.
                let mut recon = vec![0.0f32; w.numel()];
                for (r, alpha) in &lv {
                    for (i, &v) in r.as_slice().iter().enumerate() {
                        recon[i] += alpha[i / per] * if v >= 0.0 { 1.0 } else { -1.0 };
                    }
                }
                let err: f32 = w
                    .as_slice()
                    .iter()
                    .zip(&recon)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                assert!(
                    err < prev_err,
                    "level {m} error {err} did not shrink from {prev_err} (plain={plain_sign})"
                );
                prev_err = err;
            }
        }
    }

    #[test]
    fn residual_level_one_is_todays_binarization() {
        let w = Tensor::from_vec(
            &[2, 1, 2, 2],
            vec![1.0, -1.0, 2.0, -2.0, 0.5, 0.5, 0.5, 0.5],
        );
        let lv = residual_weight_levels(&w, 1, false);
        assert_eq!(lv.len(), 1);
        assert_eq!(lv[0].0.as_slice(), w.as_slice());
        assert_eq!(lv[0].1, weight_scale(&w));
        let plain = residual_weight_levels(&w, 1, true);
        assert_eq!(plain[0].1, vec![1.0, 1.0]);
    }

    #[test]
    fn scales_are_nonnegative() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![-5.0, -1.0, -0.5, -2.0]);
        let s = input_scale_per_channel(&x, 3, 3);
        assert!(s.as_slice().iter().all(|&v| v >= 0.0));
        assert!(s.max() > 0.0);
    }
}
