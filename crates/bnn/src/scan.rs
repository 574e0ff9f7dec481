//! Full-chip streaming scanner: sliding-window hotspot detection over
//! arbitrarily large layouts (DESIGN.md §5j).
//!
//! The per-clip path answers "is this 128×128 clip a hotspot?".  This
//! module answers "where are the hotspots on this chip?" by sliding a
//! window over a large [`BitImage`] at a configurable stride, scoring
//! every position through the M=1 triage → M-level confirm cascade, and
//! coalescing hotspot windows into defect [`Region`]s.
//!
//! # Scoring
//!
//! Every window is scored as a clip.  [`scan_chip`] crops it —
//! zero-extended past the chip edge, exactly the content per-clip
//! inference would see — and runs one window row's crops through a
//! compiled [`Cascade`] in batches: the M = 1 triage plan scores every
//! crop, and crops whose `|margin| < cascade_threshold` are re-scored by
//! the full-M confirm plan.  With [`ScanConfig::dedup`] on, a crop
//! identical to an earlier window's (blank regions, repeated cells) is
//! not scored again: a content-keyed cache hands it that window's
//! verdict.  Inference is deterministic in the window bits, so
//! [`Scanner::scan`] is **bit-identical** to [`Scanner::scan_naive`],
//! the same path without the cache; the `scan_equivalence` proptest
//! enforces this across strides, backends, and M-levels, and
//! `tests/golden.rs` pins one scan's verdicts across revisions.
//!
//! The server scans with the cascade its model slot publishes, so a
//! scan request compiles nothing; [`Scanner`] is that cascade plus a
//! [`ScanConfig`], for callers that hold one model.
//!
//! # Region merging
//!
//! Hotspot windows are merged with a union-find over the closed
//! neighbourhood relation "windows overlap or abut (edge *or* corner)
//! in both axes"; each connected component becomes one [`Region`] with
//! a union bounding box, the max window margin as its score, and the
//! best-scoring window origin as its peak.  See [`merge_hits`].

use crate::cascade::Cascade;
use crate::kernels::{active_backend, KernelBackend};
use crate::packed::PackedBnn;
use hotspot_geometry::BitImage;
use hotspot_tensor::workspace::Workspace;
use std::collections::HashMap;

/// Windows scored per cascade run.
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
    /// Always 0.  It counted windows served by a band-reuse path that
    /// no longer exists; kept because the repo benchmark (`perfbench/`)
    /// reports it.
    pub reused: usize,
    /// Windows cropped and run through the plans: every window not
    /// answered from the dedup cache, so `fallback + dedup_hits ==
    /// windows`.  The name predates the deletion of the band-reuse
    /// path; kept because the repo benchmark (`perfbench/`) reports it.
    pub fallback: usize,
    /// Windows answered from the content-dedup cache.
    pub dedup_hits: usize,
}

/// A compiled full-chip scanner: one model's [`Cascade`] for the
/// window size, plus the scan configuration (see module docs).
#[derive(Debug)]
pub struct Scanner {
    cascade: Cascade,
    config: ScanConfig,
}

impl Scanner {
    /// Builds a scanner with the process-wide kernel backend.
    ///
    /// # Panics
    ///
    /// Panics when the model is not single-channel or has other than
    /// two classes, `window` or `config.stride` is zero, or
    /// `config.cascade_threshold` is negative/NaN.
    pub fn new(model: &PackedBnn, window: usize, config: ScanConfig) -> Self {
        Scanner::with_backend(model, window, config, active_backend())
    }

    /// [`Scanner::new`] pinned to an explicit kernel backend (all
    /// backends are bit-identical; used by the equivalence tests).
    pub fn with_backend(
        model: &PackedBnn,
        window: usize,
        config: ScanConfig,
        backend: KernelBackend,
    ) -> Self {
        check_config(&config);
        Scanner {
            cascade: Cascade::with_backend(model, window, backend),
            config,
        }
    }

    /// The configuration the scanner was built with.
    pub fn config(&self) -> ScanConfig {
        self.config
    }

    /// Scans a chip through the cascade, with the dedup cache when
    /// [`ScanConfig::dedup`] is on (see module docs).  Verdicts and
    /// regions are bit-identical to [`scan_naive`](Scanner::scan_naive).
    pub fn scan(&self, image: &BitImage, ws: &mut Workspace) -> ScanReport {
        scan_chip(&self.cascade, &self.config, image, ws)
    }

    /// Reference scanner: crops every window and runs the per-clip
    /// cascade, no dedup.  The equivalence oracle.
    pub fn scan_naive(&self, image: &BitImage, ws: &mut Workspace) -> ScanReport {
        let mut config = self.config;
        config.dedup = false;
        scan_chip(&self.cascade, &config, image, ws)
    }

    /// Baseline scanner for benchmarks: crops every window and runs
    /// the *full M-level* model on each — per-clip inference without
    /// even the cascade's triage shortcut.
    pub fn scan_naive_full(&self, image: &BitImage, ws: &mut Workspace) -> ScanReport {
        let mut config = self.config;
        config.dedup = false;
        scan_impl(&self.cascade, &config, image, ws, true)
    }
}

/// Scans a chip with an already-compiled `cascade`, whose clip side is
/// the window (see module docs).  [`ScanConfig::triage_only`] runs the
/// cascade at threshold 0.
///
/// # Panics
///
/// Panics when `config.stride` is zero or `config.cascade_threshold`
/// is negative/NaN.
pub fn scan_chip(
    cascade: &Cascade,
    config: &ScanConfig,
    image: &BitImage,
    ws: &mut Workspace,
) -> ScanReport {
    scan_impl(cascade, config, image, ws, false)
}

fn check_config(config: &ScanConfig) {
    assert!(config.stride > 0, "stride must be positive");
    assert!(
        config.cascade_threshold >= 0.0,
        "cascade threshold must be non-negative"
    );
}

/// Scores every window through [`score`], one grid row of crops at a
/// time: with `full`, by the confirm plan alone (the `naive_full`
/// baseline), otherwise through the cascade.
fn scan_impl(
    cascade: &Cascade,
    config: &ScanConfig,
    image: &BitImage,
    ws: &mut Workspace,
    full: bool,
) -> ScanReport {
    check_config(config);
    let side = cascade.side();
    let stride = config.stride;
    let threshold = if config.triage_only {
        0.0
    } else {
        config.cascade_threshold
    };
    let (cw, chh) = (image.width(), image.height());
    let xs = scan_grid(cw, side, stride);
    let ys = scan_grid(chh, side, stride);
    let mut verdicts = Vec::with_capacity(xs.len() * ys.len());
    // `(margin, escalated)` of every scored crop; `cache` maps crop
    // content to its index here (and stays empty without dedup).
    let mut results: Vec<(f32, bool)> = Vec::new();
    let mut cache: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut dedup_hits = 0usize;

    for &y in &ys {
        let mut crops = Vec::new();
        let ids: Vec<usize> = xs
            .iter()
            .map(|&x| {
                let crop = crop_window(image, x, y, side);
                if let Some(&id) = cache.get(crop.as_words()) {
                    dedup_hits += 1;
                    return id;
                }
                let id = results.len() + crops.len();
                if config.dedup {
                    cache.insert(crop.as_words().to_vec(), id);
                }
                crops.push(crop);
                id
            })
            .collect();
        score(cascade, full, threshold, &crops, ws, &mut results);
        for (&x, id) in xs.iter().zip(ids) {
            let (margin, escalated) = results[id];
            verdicts.push(WindowVerdict {
                x,
                y,
                hotspot: margin >= 0.0,
                margin,
                escalated,
            });
        }
    }

    let regions = merge_hits(&verdicts, side, cw, chh);
    ScanReport {
        chip: (cw, chh),
        window: side,
        stride,
        windows: verdicts.len(),
        hotspots: verdicts.iter().filter(|v| v.hotspot).count(),
        escalated: verdicts.iter().filter(|v| v.escalated).count(),
        reused: 0,
        fallback: results.len(),
        dedup_hits,
        verdicts,
        regions,
    }
}

/// Appends `(margin, escalated)` for each crop to `out`, scoring the
/// crops in batches of [`BATCH`]: through [`Cascade::run`], or with
/// `full` through the confirm plan alone (nothing escalates).
fn score(
    cascade: &Cascade,
    full: bool,
    threshold: f32,
    crops: &[BitImage],
    ws: &mut Workspace,
    out: &mut Vec<(f32, bool)>,
) {
    let item = cascade.side() * cascade.side();
    for chunk in crops.chunks(BATCH) {
        let n = chunk.len();
        let mut input = ws.take_f32(n * item);
        for (crop, dst) in chunk.iter().zip(input.chunks_mut(item)) {
            image_to_signed_into(crop, dst);
        }
        let start = out.len();
        out.resize(start + n, (0.0, false));
        let scored = &mut out[start..];
        if full {
            let mut logits = ws.take_f32(n * 2);
            cascade.confirm().run_batch_into(&input, n, ws, &mut logits);
            for (s, l) in scored.iter_mut().zip(logits.chunks(2)) {
                s.0 = l[1] - l[0];
            }
            ws.give_f32(logits);
        } else {
            cascade.run(&input, threshold, ws, scored, None);
        }
        ws.give_f32(input);
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

/// ±1 values of `image` into `out` — the packed path's convention
/// (set bit → `1.0`, clear → `-1.0`), matching
/// [`BitImage::to_signed_f32`].
fn image_to_signed_into(image: &BitImage, out: &mut [f32]) {
    for (y, row) in out.chunks_mut(image.width()).enumerate() {
        let words = image.row_words(y);
        for (x, slot) in row.iter_mut().enumerate() {
            *slot = if words[x >> 6] >> (x & 63) & 1 == 1 {
                1.0
            } else {
                -1.0
            };
        }
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
    }
}
