//! Precomputed, geometry-only convolution tables.
//!
//! Everything in here depends only on the shapes `(c, h, w, kh, kw,
//! stride, pad)` — never on weights or activations — so a
//! [`ConvGeometry`] is computed once per `Step::Conv` at plan-compile
//! time and shared across every batch item, filter, and forward call.
//!
//! The conv engine runs every output pixel through one XNOR-GEMM and
//! leaves the B bits of out-of-bounds taps zero.  What it needs from
//! the geometry is where those taps are: each tap's valid output range
//! ([`TapRange`], which clips the B repack) and each pixel's *border
//! class* — the pair (row tap-validity, column tap-validity), which
//! selects the exact integer correction the epilogue applies (see
//! [`AxisClasses`]).  A 3×3 pad-1 conv has 9 classes; a 1×1 pad-0
//! conv has 1.

/// The output rectangle whose every pixel sees all `kh·kw` taps in
/// bounds (no padding).  Half-open: rows `oy0..oy1`, cols `ox0..ox1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interior {
    pub oy0: usize,
    pub oy1: usize,
    pub ox0: usize,
    pub ox1: usize,
}

/// Per-tap valid output range: tap `(ky, kx)` touches an in-bounds
/// input pixel exactly for `oy` in `oy_lo..oy_hi` and `ox` in
/// `ox_lo..ox_hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapRange {
    pub oy_lo: usize,
    pub oy_hi: usize,
    pub ox_lo: usize,
    pub ox_hi: usize,
}

/// Tap-validity classes along one output axis.  Output coordinate `o`
/// sees kernel offset `t` in bounds when `o·stride + t − pad` lands in
/// the input; the set of such offsets is `o`'s valid-tap mask, and
/// coordinates with equal masks share a class.  A pixel's border class
/// is its row class × its column class, so one small table per class
/// covers every pixel of the plane.
#[derive(Debug, Clone)]
pub struct AxisClasses {
    /// Class index of every output coordinate.
    class_of: Vec<u8>,
    /// Coordinates from `o` on (itself included) sharing `o`'s class.
    run: Vec<u32>,
    /// Valid-tap mask of every class (bit `t` = offset `t` in bounds).
    masks: Vec<u64>,
}

impl AxisClasses {
    /// Classes for `out` output coordinates, given each kernel offset's
    /// valid output range `ranges[t] = (lo, hi)`.
    fn new(ranges: &[(usize, usize)], out: usize) -> Self {
        assert!(ranges.len() <= 64, "kernel wider than 64 taps");
        let mut class_of = Vec::with_capacity(out);
        let mut masks: Vec<u64> = Vec::new();
        for o in 0..out {
            let mask = ranges
                .iter()
                .enumerate()
                .filter(|(_, &(lo, hi))| (lo..hi).contains(&o))
                .fold(0u64, |m, (t, _)| m | 1 << t);
            let class = match masks.iter().position(|&m| m == mask) {
                Some(i) => i,
                None => {
                    masks.push(mask);
                    masks.len() - 1
                }
            };
            // The valid offsets of `o` are one contiguous run whose ends
            // only ever step down as `o` grows, so a ≤ 64-tap kernel
            // yields at most 129 distinct masks.
            class_of.push(u8::try_from(class).expect("at most 256 tap classes per axis"));
        }
        let mut run = vec![1u32; out];
        for o in (0..out.saturating_sub(1)).rev() {
            if class_of[o] == class_of[o + 1] {
                run[o] = run[o + 1] + 1;
            }
        }
        AxisClasses {
            class_of,
            run,
            masks,
        }
    }

    /// Number of distinct classes.
    pub fn count(&self) -> usize {
        self.masks.len()
    }

    /// Class of output coordinate `o`.
    #[inline]
    pub fn class(&self, o: usize) -> usize {
        self.class_of[o] as usize
    }

    /// Class of `o` and how many consecutive coordinates from `o` on
    /// share it.
    #[inline]
    pub fn span(&self, o: usize) -> (usize, usize) {
        (self.class_of[o] as usize, self.run[o] as usize)
    }

    /// Valid-tap mask of class `class`.
    pub fn mask(&self, class: usize) -> u64 {
        self.masks[class]
    }
}

/// Shape-derived tables for one packed convolution (see module docs).
#[derive(Debug, Clone)]
pub struct ConvGeometry {
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
    pub oh: usize,
    pub ow: usize,
    /// Packed words per pixel: `c.div_ceil(64)`.
    pub wpp: usize,
    /// In-bounds tap count per output pixel, for the bounds-checked
    /// reference conv only.
    #[cfg(any(test, feature = "oracle"))]
    taps_hit: Vec<i32>,
    tap_ranges: Vec<TapRange>,
    interior: Option<Interior>,
    rows: AxisClasses,
    cols: AxisClasses,
}

impl ConvGeometry {
    /// Builds the tables for one conv shape.
    ///
    /// # Panics
    ///
    /// Panics when `stride == 0`, when a kernel dimension is zero, or
    /// when the padded input is smaller than the kernel.
    pub fn new(
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(kh > 0 && kw > 0, "kernel dims must be positive");
        assert!(
            h + 2 * pad >= kh && w + 2 * pad >= kw,
            "kernel larger than padded input"
        );
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (w + 2 * pad - kw) / stride + 1;

        // Per-tap valid output ranges: oy*stride + ky - pad in [0, h).
        let range = |k: usize, dim: usize, out: usize| {
            let lo = pad.saturating_sub(k).div_ceil(stride);
            let hi = if dim + pad > k {
                ((dim + pad - k - 1) / stride + 1).min(out)
            } else {
                0
            };
            (lo, hi.max(lo))
        };
        let row_ranges: Vec<_> = (0..kh).map(|ky| range(ky, h, oh)).collect();
        let col_ranges: Vec<_> = (0..kw).map(|kx| range(kx, w, ow)).collect();
        let mut tap_ranges = Vec::with_capacity(kh * kw);
        for &(oy_lo, oy_hi) in &row_ranges {
            for &(ox_lo, ox_hi) in &col_ranges {
                tap_ranges.push(TapRange {
                    oy_lo,
                    oy_hi,
                    ox_lo,
                    ox_hi,
                });
            }
        }

        // taps_hit is separable: (valid ky count) x (valid kx count).
        #[cfg(any(test, feature = "oracle"))]
        let taps_hit = {
            let valid = |k_dim: usize, dim: usize, o: usize| -> i32 {
                (0..k_dim)
                    .filter(|&k| {
                        let i = o * stride + k;
                        i >= pad && i - pad < dim
                    })
                    .count() as i32
            };
            let vy: Vec<i32> = (0..oh).map(|oy| valid(kh, h, oy)).collect();
            let vx: Vec<i32> = (0..ow).map(|ox| valid(kw, w, ox)).collect();
            let mut taps_hit = Vec::with_capacity(oh * ow);
            for &y in &vy {
                for &x in &vx {
                    taps_hit.push(y * x);
                }
            }
            taps_hit
        };

        // Interior: oy*stride >= pad and oy*stride + kh - pad <= h.
        let axis = |k_dim: usize, dim: usize, o: usize| {
            let lo = pad.div_ceil(stride);
            let hi = if dim + pad >= k_dim {
                ((dim + pad - k_dim) / stride + 1).min(o)
            } else {
                0
            };
            (lo, hi)
        };
        let (oy0, oy1) = axis(kh, h, oh);
        let (ox0, ox1) = axis(kw, w, ow);
        let interior = (oy0 < oy1 && ox0 < ox1).then_some(Interior { oy0, oy1, ox0, ox1 });

        ConvGeometry {
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh,
            ow,
            wpp: c.div_ceil(64),
            #[cfg(any(test, feature = "oracle"))]
            taps_hit,
            tap_ranges,
            interior,
            rows: AxisClasses::new(&row_ranges, oh),
            cols: AxisClasses::new(&col_ranges, ow),
        }
    }

    /// Number of in-bounds taps for every output pixel (`oh*ow`), as
    /// the bounds-checked reference conv counts them.
    #[cfg(any(test, feature = "oracle"))]
    pub fn taps_hit(&self) -> &[i32] {
        &self.taps_hit
    }

    /// Row tap-validity classes (over `oy`, masks over `ky`).
    pub fn row_classes(&self) -> &AxisClasses {
        &self.rows
    }

    /// Column tap-validity classes (over `ox`, masks over `kx`).
    pub fn col_classes(&self) -> &AxisClasses {
        &self.cols
    }

    /// Number of border classes: row classes × column classes.  Pixel
    /// `(oy, ox)` is in class `rows.class(oy) · cols.count() +
    /// cols.class(ox)`.
    pub fn border_classes(&self) -> usize {
        self.rows.count() * self.cols.count()
    }

    /// Valid output range of tap `(ky, kx)`.
    pub fn tap_range(&self, ky: usize, kx: usize) -> TapRange {
        self.tap_ranges[ky * self.kw + kx]
    }

    /// The fully-in-bounds output rectangle, when non-empty.
    pub fn interior(&self) -> Option<Interior> {
        self.interior
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference for every derived table.
    fn check(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) {
        let g = ConvGeometry::new(c, h, w, k, k, stride, pad);
        assert_eq!(g.oh, (h + 2 * pad - k) / stride + 1);
        assert_eq!(g.ow, (w + 2 * pad - k) / stride + 1);
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                let mut hits = 0;
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let inb = iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w;
                        if inb {
                            hits += 1;
                        }
                        let r = g.tap_range(ky, kx);
                        assert_eq!(
                            inb,
                            (r.oy_lo..r.oy_hi).contains(&oy) && (r.ox_lo..r.ox_hi).contains(&ox),
                            "tap range ({ky},{kx}) at ({oy},{ox}) h={h} w={w} k={k} s={stride} p={pad}"
                        );
                    }
                }
                assert_eq!(g.taps_hit()[oy * g.ow + ox], hits);
                let (rm, cm) = (
                    g.row_classes().mask(g.row_classes().class(oy)),
                    g.col_classes().mask(g.col_classes().class(ox)),
                );
                for ky in 0..k {
                    for kx in 0..k {
                        let r = g.tap_range(ky, kx);
                        let inb =
                            (r.oy_lo..r.oy_hi).contains(&oy) && (r.ox_lo..r.ox_hi).contains(&ox);
                        assert_eq!(
                            inb,
                            rm >> ky & 1 == 1 && cm >> kx & 1 == 1,
                            "class masks ({ky},{kx}) at ({oy},{ox}) h={h} w={w} k={k} s={stride} p={pad}"
                        );
                    }
                }
                let interior_says = g
                    .interior()
                    .map(|i| (i.oy0..i.oy1).contains(&oy) && (i.ox0..i.ox1).contains(&ox))
                    .unwrap_or(false);
                assert_eq!(
                    interior_says,
                    hits == (k * k) as i32,
                    "interior at ({oy},{ox}) h={h} w={w} k={k} s={stride} p={pad}"
                );
            }
        }
    }

    #[test]
    fn tables_match_brute_force() {
        for (h, w) in [(1, 1), (2, 1), (3, 5), (4, 4), (7, 3), (8, 8), (9, 2)] {
            for k in 1..=3usize {
                for stride in 1..=3 {
                    for pad in 0..=2 {
                        if h + 2 * pad >= k && w + 2 * pad >= k {
                            check(3, h, w, k, stride, pad);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn classes_are_distinct_masks_with_exact_runs() {
        for (h, w, k, stride, pad, rows, cols) in [
            (16, 16, 3, 1, 1, 3, 3), // top / interior / bottom
            (16, 16, 3, 2, 1, 2, 2), // even input: no bottom overhang
            (8, 8, 1, 2, 0, 1, 1),   // 1×1 pad-0 shortcut
            (1, 3, 1, 1, 2, 2, 2),   // zero-tap rows and columns
        ] {
            let g = ConvGeometry::new(1, h, w, k, k, stride, pad);
            assert_eq!(
                (g.row_classes().count(), g.col_classes().count()),
                (rows, cols)
            );
            assert_eq!(g.border_classes(), rows * cols);
            for axis in [g.row_classes(), g.col_classes()] {
                for a in 0..axis.count() {
                    for b in a + 1..axis.count() {
                        assert_ne!(axis.mask(a), axis.mask(b));
                    }
                }
                let n = axis.class_of.len();
                for o in 0..n {
                    let (class, run) = axis.span(o);
                    assert!(run >= 1 && o + run <= n);
                    assert!((o..o + run).all(|i| axis.class(i) == class));
                    assert!(o + run == n || axis.class(o + run) != class);
                }
            }
        }
    }

    #[test]
    fn no_pad_is_all_interior() {
        let g = ConvGeometry::new(8, 6, 6, 3, 3, 1, 0);
        assert_eq!(
            g.interior(),
            Some(Interior {
                oy0: 0,
                oy1: 4,
                ox0: 0,
                ox1: 4
            })
        );
        assert!(g.taps_hit().iter().all(|&t| t == 9));
    }
}
