//! Full-chip streaming scanner: sliding-window hotspot detection over
//! arbitrarily large layouts with cross-window activation reuse
//! (DESIGN.md §5j).
//!
//! The per-clip path answers "is this 128×128 clip a hotspot?".  This
//! module answers "where are the hotspots on this chip?" by sliding a
//! window over a large [`BitImage`] at a configurable stride, scoring
//! every position through the M=1 triage → M-level confirm cascade, and
//! coalescing hotspot windows into defect [`Region`]s.
//!
//! # Window reuse
//!
//! Overlapping windows recompute almost identical early-layer
//! activations: at stride 64 with a 128-window, horizontal neighbours
//! share half their pixels.  The scanner therefore splits the net into
//! a *prefix* (the stem and leading residual blocks while the
//! cumulative stride stays ≤ 2) and a *suffix* (the rest), and runs the
//! prefix **once per band** — a full-width horizontal slab spanning
//! exactly the window rows of one grid row.  Each window then assembles
//! its prefix feature map from three sources and only runs the suffix:
//!
//! * **interior columns** come straight from the band slab.  Because
//!   the band has exactly the window's height, vertical border effects
//!   (zero padding, box-filter spans, partial conv taps) are identical
//!   to a cropped window everywhere — only *horizontal* window borders
//!   differ;
//! * **left/right ring columns** — the `R` outermost feature columns
//!   whose receptive field crosses a vertical window edge (where the
//!   cropped window zero-pads but the slab sees real neighbours) —
//!   come from narrow per-window *border strips*: the prefix re-run on
//!   just the outermost `S` input columns of the window, batched across
//!   the band.
//!
//! `R` and `S` fall out of two per-layer recurrences (see
//! [`Scanner::reuse_info`]): a cut edge contaminates
//! `g' = ⌈(g+p)/s⌉` output columns per conv, and an `S`-column strip
//! keeps `v' = ⌊(v+p−k)/s⌋+1` valid columns.  For the paper's 12-layer
//! net the prefix is stem+res1+res2 (cumulative stride 2), `R = 3`
//! feature columns and `S = 12` input columns.
//!
//! Everything downstream of the prefix — suffix, pooling, classifier,
//! and the confirm stage (which re-runs the *full* net at max M on the
//! cropped window, exactly like the per-clip cascade) — is unchanged,
//! and because the box filter, popcount convs, and adds are all
//! translation-exact (see [`crate::scaling::box_filter_sliding_into`]),
//! scanner verdicts are **bit-identical** to naive crop-and-classify.
//! The `scan_equivalence` proptest enforces this across strides,
//! backends, and M-levels.
//!
//! Windows the reuse path cannot serve (misaligned flush columns,
//! chips smaller than the window) fall back to the naive per-window
//! path — same math, same verdicts.
//!
//! # Region merging
//!
//! Hotspot windows are merged with a union-find over the closed
//! neighbourhood relation "windows overlap or abut (edge *or* corner)
//! in both axes"; each connected component becomes one [`Region`] with
//! a union bounding box, the max window margin as its score, and the
//! best-scoring window origin as its peak.  See [`merge_hits`].

use crate::kernels::{active_backend, KernelBackend};
use crate::packed::{PackedBnn, PackedConv};
use crate::plan::ExecPlan;
use hotspot_geometry::BitImage;
use hotspot_tensor::workspace::Workspace;
use std::collections::HashMap;

/// Windows scored per plan invocation on the batched paths.
const BATCH: usize = 32;

/// Scanner knobs; `stride` is the only mandatory choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanConfig {
    /// Window grid pitch in pixels (both axes).  A flush window is
    /// added at the far edge when the chip size is not a multiple.
    pub stride: usize,
    /// Cascade escalation band: triage verdicts with `|margin| <
    /// cascade_threshold` are re-scored by the full M-level model
    /// (same contract as the serving cascade).
    pub cascade_threshold: f32,
    /// Skip the confirm stage entirely (the degraded serving mode).
    pub triage_only: bool,
    /// Cache verdicts by exact window content, so duplicated windows
    /// (blank regions, repeated cells) are scored once.  Sound because
    /// inference is deterministic in the window bits.
    pub dedup: bool,
}

impl ScanConfig {
    /// Defaults: cascade threshold 1.0 (the serving default), confirm
    /// enabled, dedup on.
    pub fn new(stride: usize) -> Self {
        ScanConfig {
            stride,
            cascade_threshold: 1.0,
            triage_only: false,
            dedup: true,
        }
    }
}

/// The cascade's verdict for one window position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowVerdict {
    /// Window origin (left edge), chip pixels.
    pub x: usize,
    /// Window origin (top edge), chip pixels.
    pub y: usize,
    /// `margin >= 0` — the positive class.
    pub hotspot: bool,
    /// Hotspot logit minus non-hotspot logit, from whichever cascade
    /// stage decided.
    pub margin: f32,
    /// Whether the full-M confirm stage re-scored this window.
    pub escalated: bool,
}

/// A merged defect region: one connected component of hotspot windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Union bounding box, chip pixels, `x1`/`y1` exclusive and
    /// clamped to the chip.
    pub x0: usize,
    /// Top edge.
    pub y0: usize,
    /// Right edge (exclusive).
    pub x1: usize,
    /// Bottom edge (exclusive).
    pub y1: usize,
    /// Best (maximum) member-window margin.
    pub score: f32,
    /// Origin of the best-scoring member window (ties: lowest `(y,
    /// x)`).
    pub peak: (usize, usize),
    /// Member window count.
    pub windows: usize,
}

impl Region {
    /// Bounding-box centre in chip pixels.
    pub fn center(&self) -> (usize, usize) {
        ((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)
    }
}

/// Everything one scan produced.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Chip size `(width, height)` in pixels.
    pub chip: (usize, usize),
    /// Window side the scanner ran with.
    pub window: usize,
    /// Grid stride.
    pub stride: usize,
    /// Every window verdict, row-major over the grid (x fastest).
    pub verdicts: Vec<WindowVerdict>,
    /// Merged hotspot regions, best score first.
    pub regions: Vec<Region>,
    /// Total window positions scored.
    pub windows: usize,
    /// Windows whose verdict is hotspot.
    pub hotspots: usize,
    /// Windows the confirm stage re-scored.
    pub escalated: usize,
    /// Windows served through the band-reuse path.
    pub reused: usize,
    /// Windows that ran the naive per-window path (misaligned or
    /// undersized chips — and every window of the naive modes).
    pub fallback: usize,
    /// Windows answered from the content-dedup cache.
    pub dedup_hits: usize,
}

/// How a [`Scanner`] split the model for reuse (diagnostics / docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseInfo {
    /// Residual blocks in the prefix (the stem is always included).
    pub prefix_blocks: usize,
    /// Cumulative prefix stride: slab columns are `f` input pixels
    /// apart, so only windows at `x ≡ 0 (mod f)` can reuse the slab.
    pub stride: usize,
    /// Contaminated feature columns at a left window edge.
    pub ring_left: usize,
    /// Contaminated feature columns at a right window edge.
    pub ring_right: usize,
    /// Border-strip width in input pixels.
    pub strip_cols: usize,
}

#[derive(Debug)]
struct Reuse<'m> {
    info: ReuseInfo,
    /// Prefix feature channels / per-window feature height and width.
    pc: usize,
    oh: usize,
    ow: usize,
    /// Prefix output width of a border strip.
    strip_ow: usize,
    /// Prefix on `(window, strip_cols)` input, M = 1.
    strip_plan: ExecPlan<'m>,
    /// Remaining blocks on `(oh, ow)` features, M = 1.
    suffix_plan: ExecPlan<'m>,
}

/// A compiled full-chip scanner for one model, window size, and
/// configuration (see module docs).
#[derive(Debug)]
pub struct Scanner<'m> {
    model: &'m PackedBnn,
    backend: KernelBackend,
    window: usize,
    config: ScanConfig,
    /// Whole net on a window, M = 1 (triage / fallback).
    full_triage: ExecPlan<'m>,
    /// Whole net on a window, full M (confirm / naive-full baseline).
    full_confirm: ExecPlan<'m>,
    reuse: Option<Reuse<'m>>,
}

enum Mode {
    Reuse,
    Naive,
    NaiveFull,
}

impl<'m> Scanner<'m> {
    /// Builds a scanner with the process-wide kernel backend.
    ///
    /// # Panics
    ///
    /// Panics when the model is not single-channel, `window` or
    /// `config.stride` is zero, or `config.cascade_threshold` is
    /// negative/NaN.
    pub fn new(model: &'m PackedBnn, window: usize, config: ScanConfig) -> Self {
        Scanner::with_backend(model, window, config, active_backend())
    }

    /// [`Scanner::new`] pinned to an explicit kernel backend (all
    /// backends are bit-identical; used by the equivalence tests).
    pub fn with_backend(
        model: &'m PackedBnn,
        window: usize,
        config: ScanConfig,
        backend: KernelBackend,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(config.stride > 0, "stride must be positive");
        assert!(
            config.cascade_threshold >= 0.0,
            "cascade threshold must be non-negative"
        );
        assert_eq!(
            model.stem().in_channels(),
            1,
            "the scanner feeds single-channel layout windows"
        );
        let full_triage = ExecPlan::compile_capped(model, (window, window), backend, 1);
        let full_confirm = ExecPlan::compile_capped(model, (window, window), backend, usize::MAX);
        let reuse = derive_reuse(model, window, backend);
        Scanner {
            model,
            backend,
            window,
            config,
            full_triage,
            full_confirm,
            reuse,
        }
    }

    /// The window side this scanner slides.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The configuration the scanner was built with.
    pub fn config(&self) -> ScanConfig {
        self.config
    }

    /// The kernel backend every plan dispatches to.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// How the model was split for activation reuse, or `None` when
    /// this model/window combination scans fully naively.
    pub fn reuse_info(&self) -> Option<ReuseInfo> {
        self.reuse.as_ref().map(|r| r.info)
    }

    /// Scans a chip with cross-window activation reuse (see module
    /// docs).  Verdicts and regions are bit-identical to
    /// [`scan_naive`](Scanner::scan_naive).
    pub fn scan(&self, image: &BitImage, ws: &mut Workspace) -> ScanReport {
        self.scan_impl(image, ws, Mode::Reuse)
    }

    /// Reference scanner: crops every window and runs the per-clip
    /// cascade, no reuse, no dedup.  The equivalence oracle.
    pub fn scan_naive(&self, image: &BitImage, ws: &mut Workspace) -> ScanReport {
        self.scan_impl(image, ws, Mode::Naive)
    }

    /// Baseline scanner for benchmarks: crops every window and runs
    /// the *full M-level* model on each — per-clip inference without
    /// even the cascade's triage shortcut.
    pub fn scan_naive_full(&self, image: &BitImage, ws: &mut Workspace) -> ScanReport {
        self.scan_impl(image, ws, Mode::NaiveFull)
    }

    fn scan_impl(&self, image: &BitImage, ws: &mut Workspace, mode: Mode) -> ScanReport {
        let side = self.window;
        let stride = self.config.stride;
        let (cw, chh) = (image.width(), image.height());
        let xs = scan_grid(cw, side, stride);
        let ys = scan_grid(chh, side, stride);
        let nwin = xs.len() * ys.len();
        let mut verdicts: Vec<Option<WindowVerdict>> = vec![None; nwin];
        let use_dedup = self.config.dedup && matches!(mode, Mode::Reuse);
        let mut cache: HashMap<Vec<u64>, (f32, bool, bool)> = HashMap::new();
        let (mut reused, mut fallback, mut dedup_hits, mut escalated_n) = (0usize, 0, 0, 0);

        // The band prefix plan depends on the chip width; compile it
        // once per scan when any band can use it.
        let band_plan = match (&self.reuse, &mode) {
            (Some(_), Mode::Reuse) if cw >= side && chh >= side => Some(ExecPlan::compile_segment(
                self.model,
                (side, cw),
                self.backend,
                1,
                0..self.reuse.as_ref().map_or(0, |r| r.info.prefix_blocks),
            )),
            _ => None,
        };

        for (yi, &y) in ys.iter().enumerate() {
            // Collect the windows of this band that still need work.
            let mut slots: Vec<usize> = Vec::with_capacity(xs.len());
            let mut wxs: Vec<usize> = Vec::with_capacity(xs.len());
            let mut crops: Vec<BitImage> = Vec::with_capacity(xs.len());
            for (xi, &x) in xs.iter().enumerate() {
                let slot = yi * xs.len() + xi;
                let crop = crop_window(image, x, y, side);
                if use_dedup {
                    if let Some(&(margin, hotspot, esc)) = cache.get(crop.as_words()) {
                        verdicts[slot] = Some(WindowVerdict {
                            x,
                            y,
                            hotspot,
                            margin,
                            escalated: esc,
                        });
                        dedup_hits += 1;
                        if esc {
                            escalated_n += 1;
                        }
                        continue;
                    }
                }
                slots.push(slot);
                wxs.push(x);
                crops.push(crop);
            }
            if slots.is_empty() {
                continue;
            }

            // Triage margins for every pending window of the band.
            let mut margins = vec![0.0f32; slots.len()];
            match mode {
                Mode::NaiveFull => {
                    self.margins_for_crops(&self.full_confirm, &crops, ws, &mut margins);
                    fallback += slots.len();
                }
                Mode::Naive => {
                    self.margins_for_crops(&self.full_triage, &crops, ws, &mut margins);
                    fallback += slots.len();
                }
                Mode::Reuse => {
                    let (mut r_idx, mut n_idx): (Vec<usize>, Vec<usize>) = (vec![], vec![]);
                    if let (Some(reuse), Some(band_plan)) = (&self.reuse, &band_plan) {
                        let f = reuse.info.stride;
                        for (i, &x) in wxs.iter().enumerate() {
                            if x % f == 0 && x + side <= cw && y + side <= chh {
                                r_idx.push(i);
                            } else {
                                n_idx.push(i);
                            }
                        }
                        if !r_idx.is_empty() {
                            self.band_margins(
                                reuse,
                                band_plan,
                                image,
                                y,
                                &wxs,
                                &crops,
                                &r_idx,
                                ws,
                                &mut margins,
                            );
                            reused += r_idx.len();
                        }
                    } else {
                        n_idx.extend(0..wxs.len());
                    }
                    if !n_idx.is_empty() {
                        let sub: Vec<BitImage> = n_idx.iter().map(|&i| crops[i].clone()).collect();
                        let mut sub_m = vec![0.0f32; sub.len()];
                        self.margins_for_crops(&self.full_triage, &sub, ws, &mut sub_m);
                        for (&i, m) in n_idx.iter().zip(&sub_m) {
                            margins[i] = *m;
                        }
                        fallback += n_idx.len();
                    }
                }
            }

            // Cascade: the serving contract — escalate near-boundary
            // triage verdicts to the full M-level model.
            let cascade = matches!(mode, Mode::Reuse | Mode::Naive);
            let mut esc_idx: Vec<usize> = Vec::new();
            if cascade && !self.config.triage_only && self.model.levels() > 1 {
                for (i, m) in margins.iter().enumerate() {
                    if m.abs() < self.config.cascade_threshold {
                        esc_idx.push(i);
                    }
                }
            }
            if !esc_idx.is_empty() {
                let sub: Vec<BitImage> = esc_idx.iter().map(|&i| crops[i].clone()).collect();
                let mut sub_m = vec![0.0f32; sub.len()];
                self.margins_for_crops(&self.full_confirm, &sub, ws, &mut sub_m);
                for (&i, m) in esc_idx.iter().zip(&sub_m) {
                    margins[i] = *m;
                }
            }

            for (i, (&slot, &x)) in slots.iter().zip(&wxs).enumerate() {
                let esc = esc_idx.contains(&i);
                let margin = margins[i];
                let hotspot = margin >= 0.0;
                if esc {
                    escalated_n += 1;
                }
                verdicts[slot] = Some(WindowVerdict {
                    x,
                    y,
                    hotspot,
                    margin,
                    escalated: esc,
                });
                if use_dedup {
                    cache.insert(crops[i].as_words().to_vec(), (margin, hotspot, esc));
                }
            }
        }

        let verdicts: Vec<WindowVerdict> = verdicts
            .into_iter()
            .map(|v| v.expect("window scored"))
            .collect();
        let regions = merge_hits(&verdicts, side, cw, chh);
        let hotspots = verdicts.iter().filter(|v| v.hotspot).count();
        ScanReport {
            chip: (cw, chh),
            window: side,
            stride,
            windows: verdicts.len(),
            hotspots,
            escalated: escalated_n,
            reused,
            fallback,
            dedup_hits,
            verdicts,
            regions,
        }
    }

    /// Scores window crops through `plan` in batches, writing logit
    /// margins (hotspot − non-hotspot).
    fn margins_for_crops(
        &self,
        plan: &ExecPlan<'_>,
        crops: &[BitImage],
        ws: &mut Workspace,
        out: &mut [f32],
    ) {
        let side = self.window;
        let classes = self.model.fc_weight().shape()[0];
        assert_eq!(classes, 2, "the cascade expects binary logits");
        for (ci, chunk) in crops.chunks(BATCH).enumerate() {
            let n = chunk.len();
            let mut input = ws.take_f32(n * side * side);
            for (i, crop) in chunk.iter().enumerate() {
                image_to_signed_into(crop, &mut input[i * side * side..(i + 1) * side * side]);
            }
            let mut logits = ws.take_f32(n * classes);
            plan.run_batch_into(&input, n, ws, &mut logits);
            for i in 0..n {
                out[ci * BATCH + i] = logits[i * classes + 1] - logits[i * classes];
            }
            ws.give_f32(input);
            ws.give_f32(logits);
        }
    }

    /// The reuse path for one band: prefix slab + border strips +
    /// per-window suffix, writing triage margins for `r_idx` windows.
    #[allow(clippy::too_many_arguments)]
    fn band_margins(
        &self,
        reuse: &Reuse<'m>,
        band_plan: &ExecPlan<'m>,
        image: &BitImage,
        y: usize,
        wxs: &[usize],
        crops: &[BitImage],
        r_idx: &[usize],
        ws: &mut Workspace,
        margins: &mut [f32],
    ) {
        let side = self.window;
        let cw = image.width();
        let f = reuse.info.stride;
        let (rl, rr) = (reuse.info.ring_left, reuse.info.ring_right);
        let sin = reuse.info.strip_cols;
        let (pc, oh, ow, sow_strip) = (reuse.pc, reuse.oh, reuse.ow, reuse.strip_ow);

        // 1. Band slab: the prefix over the full chip width.
        let (bpc, boh, bow) = band_plan.feature_shape();
        debug_assert_eq!((bpc, boh), (pc, oh));
        let mut band_input = ws.take_f32(side * cw);
        for r in 0..side {
            row_to_signed(image, y + r, &mut band_input[r * cw..(r + 1) * cw]);
        }
        let mut slab = ws.take_f32(pc * oh * bow);
        band_plan.run_features_into(&band_input, 1, ws, &mut slab);
        ws.give_f32(band_input);

        // 2. Border strips, batched across the band.
        let lefts: Vec<usize> = r_idx
            .iter()
            .copied()
            .filter(|&i| rl > 0 && wxs[i] > 0)
            .collect();
        let rights: Vec<usize> = r_idx
            .iter()
            .copied()
            .filter(|&i| rr > 0 && wxs[i] + side < cw)
            .collect();
        let strip_feats = |idx: &[usize], col0: usize, ws: &mut Workspace| -> Vec<f32> {
            let mut feats = vec![0.0f32; idx.len() * pc * oh * sow_strip];
            for (bi, chunk) in idx.chunks(BATCH).enumerate() {
                let n = chunk.len();
                let mut input = ws.take_f32(n * side * sin);
                for (i, &wi) in chunk.iter().enumerate() {
                    let crop = &crops[wi];
                    let dst = &mut input[i * side * sin..(i + 1) * side * sin];
                    for r in 0..side {
                        for c in 0..sin {
                            dst[r * sin + c] = if crop.get(col0 + c, r) { 1.0 } else { -1.0 };
                        }
                    }
                }
                let lo = bi * BATCH * pc * oh * sow_strip;
                reuse.strip_plan.run_features_into(
                    &input,
                    n,
                    ws,
                    &mut feats[lo..lo + n * pc * oh * sow_strip],
                );
                ws.give_f32(input);
            }
            feats
        };
        let lfeat = strip_feats(&lefts, 0, ws);
        let rfeat = strip_feats(&rights, side - sin, ws);
        let lpos: HashMap<usize, usize> = lefts.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        let rpos: HashMap<usize, usize> = rights.iter().enumerate().map(|(p, &i)| (i, p)).collect();

        // 3. Assemble per-window features and run the suffix.
        let classes = self.model.fc_weight().shape()[0];
        let wfeat = pc * oh * ow;
        for chunk in r_idx.chunks(BATCH) {
            let n = chunk.len();
            let mut assembled = ws.take_f32(n * wfeat);
            for (i, &wi) in chunk.iter().enumerate() {
                let x = wxs[wi];
                let xo = x / f;
                let il = if x > 0 { rl } else { 0 };
                let ih = if x + side < cw { ow - rr } else { ow };
                let dst = &mut assembled[i * wfeat..(i + 1) * wfeat];
                for ch in 0..pc {
                    for row in 0..oh {
                        let d = &mut dst[(ch * oh + row) * ow..(ch * oh + row + 1) * ow];
                        let s = &slab[(ch * oh + row) * bow..(ch * oh + row + 1) * bow];
                        d[il..ih].copy_from_slice(&s[xo + il..xo + ih]);
                        if il > 0 {
                            let p = lpos[&wi] * pc * oh * sow_strip;
                            let ls = &lfeat[p + (ch * oh + row) * sow_strip..];
                            d[..il].copy_from_slice(&ls[..il]);
                        }
                        if ih < ow {
                            let p = rpos[&wi] * pc * oh * sow_strip;
                            let rs = &rfeat[p + (ch * oh + row) * sow_strip..];
                            d[ih..].copy_from_slice(&rs[sow_strip - (ow - ih)..sow_strip]);
                        }
                    }
                }
            }
            let mut logits = ws.take_f32(n * classes);
            reuse
                .suffix_plan
                .run_batch_into(&assembled, n, ws, &mut logits);
            for (i, &wi) in chunk.iter().enumerate() {
                margins[wi] = logits[i * classes + 1] - logits[i * classes];
            }
            ws.give_f32(assembled);
            ws.give_f32(logits);
        }
        ws.give_f32(slab);
    }
}

/// The window origins along one axis: every multiple of `stride` that
/// fits, plus a flush window at the far edge when the size is not a
/// multiple.  A dimension smaller than the window yields the single
/// origin 0 (the window is zero-extended past the edge).
pub fn scan_grid(dim: usize, window: usize, stride: usize) -> Vec<usize> {
    assert!(
        window > 0 && stride > 0,
        "window and stride must be positive"
    );
    if dim <= window {
        return vec![0];
    }
    let last = dim - window;
    let mut xs: Vec<usize> = (0..=last).step_by(stride).collect();
    if *xs.last().expect("non-empty grid") != last {
        xs.push(last);
    }
    xs
}

/// Extracts the `side × side` window at `(x0, y0)`, zero-extending
/// past the chip edges — exactly the content per-clip inference would
/// see for this window.
pub(crate) fn crop_window(image: &BitImage, x0: usize, y0: usize, side: usize) -> BitImage {
    let wpr = side.div_ceil(64);
    let mut words = vec![0u64; side * wpr];
    let rows = side.min(image.height().saturating_sub(y0));
    let shift = x0 % 64;
    let base = x0 / 64;
    let tail_mask = if side.is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (side % 64)) - 1
    };
    for r in 0..rows {
        let src = image.row_words(y0 + r);
        let dst = &mut words[r * wpr..(r + 1) * wpr];
        for (i, d) in dst.iter_mut().enumerate() {
            let lo = base + i;
            let mut v = 0u64;
            if lo < src.len() {
                v = src[lo] >> shift;
                if shift != 0 && lo + 1 < src.len() {
                    v |= src[lo + 1] << (64 - shift);
                }
            }
            *d = v;
        }
        dst[wpr - 1] &= tail_mask;
    }
    BitImage::from_words(side, side, words).expect("crop respects the word invariant")
}

/// ±1 values of one chip row into `out` (length = chip width).
fn row_to_signed(image: &BitImage, y: usize, out: &mut [f32]) {
    let words = image.row_words(y);
    for (x, slot) in out.iter_mut().enumerate() {
        *slot = if words[x >> 6] >> (x & 63) & 1 == 1 {
            1.0
        } else {
            -1.0
        };
    }
}

/// `image_to_signed_into` — the packed path's ±1 convention (set bit →
/// `1.0`, clear → `-1.0`), matching [`BitImage::to_signed_f32`].
fn image_to_signed_into(image: &BitImage, out: &mut [f32]) {
    let w = image.width();
    for y in 0..image.height() {
        row_to_signed(image, y, &mut out[y * w..(y + 1) * w]);
    }
}

/// Coalesces hotspot windows into [`Region`]s: windows whose areas
/// overlap *or* abut — sharing an edge or just a corner, i.e. origin
/// distance ≤ `window` on both axes — join the same region.  Regions
/// are returned best score first (ties: lowest `(y0, x0)`), with
/// bounding boxes clamped to the chip.
pub fn merge_hits(
    verdicts: &[WindowVerdict],
    window: usize,
    chip_w: usize,
    chip_h: usize,
) -> Vec<Region> {
    let hits: Vec<&WindowVerdict> = verdicts.iter().filter(|v| v.hotspot).collect();
    if hits.is_empty() {
        return Vec::new();
    }
    // Union-find over a window-sized spatial hash: any two merging
    // windows are at most one bucket apart on each axis.
    let mut parent: Vec<usize> = (0..hits.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut buckets: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for (i, h) in hits.iter().enumerate() {
        buckets
            .entry((h.x / window, h.y / window))
            .or_default()
            .push(i);
    }
    for (i, h) in hits.iter().enumerate() {
        let (bx, by) = (h.x / window, h.y / window);
        for nx in bx.saturating_sub(1)..=bx + 1 {
            for ny in by.saturating_sub(1)..=by + 1 {
                let Some(cands) = buckets.get(&(nx, ny)) else {
                    continue;
                };
                for &j in cands {
                    if j <= i {
                        continue;
                    }
                    let o = hits[j];
                    if h.x.abs_diff(o.x) <= window && h.y.abs_diff(o.y) <= window {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                        if ri != rj {
                            parent[ri] = rj;
                        }
                    }
                }
            }
        }
    }
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..hits.len() {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    let mut regions: Vec<Region> = groups
        .into_values()
        .map(|members| {
            let mut it = members.iter().map(|&i| hits[i]);
            let first = it.next().expect("non-empty component");
            let clamp = |h: &WindowVerdict| {
                (
                    h.x,
                    h.y,
                    (h.x + window).min(chip_w),
                    (h.y + window).min(chip_h),
                )
            };
            let (mut x0, mut y0, mut x1, mut y1) = clamp(first);
            let mut peak = first;
            for h in it {
                let (a, b, c, d) = clamp(h);
                x0 = x0.min(a);
                y0 = y0.min(b);
                x1 = x1.max(c);
                y1 = y1.max(d);
                let better = h.margin > peak.margin
                    || (h.margin == peak.margin && (h.y, h.x) < (peak.y, peak.x));
                if better {
                    peak = h;
                }
            }
            Region {
                x0,
                y0,
                x1,
                y1,
                score: peak.margin,
                peak: (peak.x, peak.y),
                windows: members.len(),
            }
        })
        .collect();
    regions.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| (a.y0, a.x0).cmp(&(b.y0, b.x0)))
    });
    regions
}

/// Folds an accumulator through the prefix layer structure: `conv` per
/// packed conv (in execution order), `join` where a shortcut merges
/// back into the main path.
fn fold_prefix<T: Copy>(
    model: &PackedBnn,
    nblocks: usize,
    init: T,
    conv: impl Fn(T, &PackedConv) -> T,
    join: impl Fn(T, T) -> T,
) -> T {
    let mut v = conv(init, model.stem());
    for block in &model.blocks()[..nblocks] {
        let block_in = v;
        let main = conv(conv(v, block.conv1()), block.conv2());
        let side = match block.shortcut() {
            Some(sc) => conv(block_in, sc),
            None => block_in,
        };
        v = join(main, side);
    }
    v
}

/// Derives the reuse split for `model` at this window size, or `None`
/// when no band-reuse split applies (the scanner then runs naively).
fn derive_reuse<'m>(
    model: &'m PackedBnn,
    window: usize,
    backend: KernelBackend,
) -> Option<Reuse<'m>> {
    let blocks = model.blocks();
    if blocks.is_empty() {
        return None;
    }
    // Prefix = stem + leading blocks while the cumulative stride stays
    // ≤ 2, always leaving at least one block for the suffix.
    let mut f = model.stem().stride();
    let mut nblocks = 0usize;
    for (i, b) in blocks.iter().enumerate() {
        if i + 1 >= blocks.len() {
            break;
        }
        let bs = b.conv1().stride() * b.conv2().stride();
        if f * bs <= 2 {
            f *= bs;
            nblocks = i + 1;
        } else {
            break;
        }
    }
    if f > 2 || !window.is_multiple_of(f) {
        return None;
    }

    // Horizontal geometry of the prefix on a full window.
    let out_w = |w_in: usize| {
        fold_prefix(
            model,
            nblocks,
            w_in,
            |w, c| c.output_hw(w, w).1,
            |a, b| {
                debug_assert_eq!(a, b, "shortcut width mismatch");
                a
            },
        )
    };
    // Contamination from a cut edge: g' = ceil((g + p) / s) per conv,
    // worst path through a merge.
    let cut_growth = fold_prefix(
        model,
        nblocks,
        0usize,
        |g, c| (g + c.pad()).div_ceil(c.stride()),
        |a, b| a.max(b),
    );
    // Valid columns anchored at a genuine edge, eroded by the opposite
    // cut: v' = floor((v + p − k) / s) + 1, weakest path through a
    // merge.
    let valid = |w_in: usize| {
        fold_prefix(
            model,
            nblocks,
            w_in,
            |v, c| {
                if v + c.pad() >= c.kernel() {
                    (v + c.pad() - c.kernel()) / c.stride() + 1
                } else {
                    0
                }
            },
            |a, b| a.min(b),
        )
    };

    let ow = out_w(window);
    let oh = fold_prefix(
        model,
        nblocks,
        window,
        |h, c| c.output_hw(h, h).0,
        |a, b| {
            debug_assert_eq!(a, b);
            a
        },
    );
    let ring_l = cut_growth;
    let ring_r = ow.saturating_sub(valid(window));
    if ring_l + ring_r >= ow {
        return None;
    }

    // Smallest strip (multiple of f) wide enough that its clean side
    // yields the rings: the left strip needs `valid(S) ≥ ring_l`
    // leading columns, the right strip needs `out_w(S) − cut_growth ≥
    // ring_r` trailing ones.
    let mut strip_cols = None;
    let mut s = f;
    while s <= window {
        if valid(s) >= ring_l && out_w(s) >= cut_growth + ring_r {
            strip_cols = Some(s);
            break;
        }
        s += f;
    }
    let strip_cols = strip_cols?;
    let strip_ow = out_w(strip_cols);
    // Grid alignment: a strip output column j corresponds to window
    // output column j + (window − S)/f.
    if ow != strip_ow + (window - strip_cols) / f {
        return None;
    }

    let strip_plan = ExecPlan::compile_segment(model, (window, strip_cols), backend, 1, 0..nblocks);
    let suffix_plan = ExecPlan::compile_segment(model, (oh, ow), backend, 1, nblocks..blocks.len());
    let (pc, soh, sow) = strip_plan.feature_shape();
    debug_assert_eq!((soh, sow), (oh, strip_ow));
    Some(Reuse {
        info: ReuseInfo {
            prefix_blocks: nblocks,
            stride: f,
            ring_left: ring_l,
            ring_right: ring_r,
            strip_cols,
        },
        pc,
        oh,
        ow,
        strip_ow,
        strip_plan,
        suffix_plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BnnResNet, NetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hit(x: usize, y: usize, margin: f32) -> WindowVerdict {
        WindowVerdict {
            x,
            y,
            hotspot: true,
            margin,
            escalated: false,
        }
    }

    fn miss(x: usize, y: usize) -> WindowVerdict {
        WindowVerdict {
            x,
            y,
            hotspot: false,
            margin: -1.0,
            escalated: false,
        }
    }

    #[test]
    fn grid_covers_flush_edge() {
        assert_eq!(scan_grid(256, 128, 64), vec![0, 64, 128]);
        assert_eq!(scan_grid(300, 128, 64), vec![0, 64, 128, 172]);
        assert_eq!(scan_grid(128, 128, 32), vec![0]);
        assert_eq!(scan_grid(100, 128, 32), vec![0]);
        assert_eq!(scan_grid(129, 128, 64), vec![0, 1]);
    }

    #[test]
    fn crop_matches_per_pixel_reference() {
        let mut img = BitImage::new(200, 90);
        let mut state = 99u32;
        for y in 0..90 {
            for x in 0..200 {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if state & 0x30000 == 0 {
                    img.set(x, y, true);
                }
            }
        }
        for (x0, y0, side) in [
            (0, 0, 64),
            (63, 10, 64),
            (64, 5, 100),
            (130, 40, 128),
            (1, 89, 16),
        ] {
            let crop = crop_window(&img, x0, y0, side);
            for y in 0..side {
                for x in 0..side {
                    let want = x0 + x < 200 && y0 + y < 90 && img.get(x0 + x, y0 + y);
                    assert_eq!(crop.get(x, y), want, "({x0},{y0},{side}) at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn merge_empty_hit_set() {
        let v = vec![miss(0, 0), miss(64, 0)];
        assert!(merge_hits(&v, 128, 256, 128).is_empty());
    }

    #[test]
    fn merge_abutting_and_overlapping_hits() {
        // Overlapping (dx = 64 < window) and abutting (dx = window)
        // both merge into one region; a window further than the side
        // does not.
        let v = vec![
            hit(0, 0, 1.0),
            hit(64, 0, 2.0),
            hit(128, 0, 0.5),
            hit(320, 0, 3.0),
        ];
        let r = merge_hits(&v, 128, 512, 128);
        assert_eq!(r.len(), 2);
        assert_eq!((r[0].x0, r[0].x1), (320, 448), "best score first");
        assert_eq!(r[0].windows, 1);
        assert_eq!((r[1].x0, r[1].x1), (0, 256));
        assert_eq!(r[1].windows, 3);
        assert_eq!(r[1].score, 2.0);
        assert_eq!(r[1].peak, (64, 0));
    }

    #[test]
    fn merge_corner_touch_joins() {
        let v = vec![hit(0, 0, 1.0), hit(128, 128, 1.0)];
        let r = merge_hits(&v, 128, 512, 512);
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].x0, r[0].y0, r[0].x1, r[0].y1), (0, 0, 256, 256));
    }

    #[test]
    fn merge_tie_scores_pick_lowest_origin() {
        let v = vec![hit(64, 64, 1.5), hit(0, 64, 1.5), hit(64, 0, 1.5)];
        let r = merge_hits(&v, 128, 512, 512);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].peak, (64, 0), "tie broken by lowest (y, x)");
        assert_eq!(r[0].score, 1.5);
    }

    #[test]
    fn merge_clamps_to_chip_borders() {
        // Flush window on a 200-wide chip: box must not spill past it.
        let v = vec![hit(72, 0, 1.0)];
        let r = merge_hits(&v, 128, 200, 100);
        assert_eq!((r[0].x0, r[0].y0, r[0].x1, r[0].y1), (72, 0, 200, 100));
    }

    #[test]
    fn merge_single_window_smaller_than_chip_window() {
        // A 100×90 "chip" scanned with a 128 window: one window at the
        // origin, region clamped to the chip.
        let v = vec![hit(0, 0, 0.25)];
        let r = merge_hits(&v, 128, 100, 90);
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].x0, r[0].y0, r[0].x1, r[0].y1), (0, 0, 100, 90));
        assert_eq!(r[0].center(), (50, 45));
    }

    #[test]
    fn paper_net_reuse_split_is_the_documented_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = BnnResNet::new(&NetConfig::paper_12layer(), &mut rng);
        let packed = PackedBnn::compile(&net);
        let sc = Scanner::new(&packed, 128, ScanConfig::new(64));
        let info = sc.reuse_info().expect("paper net must support reuse");
        assert_eq!(info.prefix_blocks, 2, "stem + res1 + res2");
        assert_eq!(info.stride, 2);
        assert_eq!(info.ring_left, 3);
        assert_eq!(info.ring_right, 3);
        assert_eq!(info.strip_cols, 12);
    }

    #[test]
    fn tiny_net_reuse_split() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = BnnResNet::new(&NetConfig::tiny(16), &mut rng);
        let packed = PackedBnn::compile(&net);
        let sc = Scanner::new(&packed, 16, ScanConfig::new(8));
        let info = sc.reuse_info().expect("tiny net must support reuse");
        assert_eq!(info.prefix_blocks, 1, "stem + res1");
        assert_eq!(info.stride, 1);
        assert!(info.strip_cols >= info.ring_left);
    }

    #[test]
    fn scan_smoke_matches_naive_on_tiny_net() {
        let mut rng = StdRng::seed_from_u64(31);
        let net = BnnResNet::new(&NetConfig::tiny(16).with_levels(2), &mut rng);
        let packed = PackedBnn::compile(&net);
        let sc = Scanner::new(&packed, 16, ScanConfig::new(8));
        let mut img = BitImage::new(48, 40);
        let mut state = 5u32;
        for y in 0..40 {
            for x in 0..48 {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if state & 0x18000 == 0 {
                    img.set(x, y, true);
                }
            }
        }
        let mut ws = Workspace::new();
        let fast = sc.scan(&img, &mut ws);
        let slow = sc.scan_naive(&img, &mut ws);
        assert_eq!(fast.verdicts, slow.verdicts, "bit-identical verdicts");
        assert_eq!(fast.regions, slow.regions);
        assert!(fast.reused > 0, "reuse path must engage: {fast:?}");
    }
}
