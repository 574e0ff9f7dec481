//! The benchmark's model, its seeded inputs, and the independent
//! reference answers every reply is checked against.

use crate::loadgen::Kind;
use hotspot_bnn::{BnnResNet, ExecPlan, NetConfig, PackedBnn, ScanConfig, ScanReport, Scanner};
use hotspot_geometry::{BitImage, Raster};
use hotspot_layout_gen::{ChipBuilder, ClipGenerator};
use hotspot_serve::Response;
use hotspot_tensor::Workspace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Clip side in pixels: 1280 nm clips at 10 nm per pixel.
pub const SIDE: usize = 128;
const CLIP_NM: i64 = 1280;
const RESOLUTION_NM: i64 = 10;
/// Residual binarization levels: the paper-accuracy configuration.
const LEVELS: usize = 3;
/// Weights are fixed; only inputs vary with the workload seed.
const MODEL_SEED: u64 = 2019;
/// Distinct clips per run.
pub const POOL: usize = 128;
/// Chip side in cells (cells are one clip each).
pub const CHIP_CELLS: usize = 4;
/// Scan window stride in pixels.
pub const STRIDE: usize = 64;
/// Share of the pool the tuned cascade threshold escalates.
const ESCALATION_QUANTILE: f64 = 0.10;

/// The paper's 12-layer net at M = 3 with seeded random weights.
pub fn model_net() -> BnnResNet {
    let config = NetConfig::paper_12layer().with_levels(LEVELS);
    assert_eq!(config.input_size, SIDE, "the benchmark clips are {SIDE} px");
    BnnResNet::new(&config, &mut StdRng::seed_from_u64(MODEL_SEED))
}

/// Everything a run sends, generated from the workload seed, with the
/// cascade threshold tuned to it.
pub struct Inputs {
    pub clips: Vec<BitImage>,
    /// The clips as ±1 planes, for in-process calls.
    pub signed: Vec<Vec<f32>>,
    /// Each clip's M = 1 triage margin, run alone through the per-clip
    /// engine (`run_into`, n = 1): the reference the cascade starts from.
    pub triage: Vec<f32>,
    /// The 10% quantile of |triage margin| over the clips, so about 10%
    /// of them escalate.
    pub threshold: f32,
    /// Seeded visiting order over `clips`.
    pub order: Vec<usize>,
    /// The left half of the chip repeats one tile, so windows repeat
    /// down each column there and the scanner's dedup cache hits; the
    /// right half is distinct clips.  Redrawn until the scan confirms
    /// exactly [`CHIP_ESCALATIONS`] windows one at a time (see
    /// [`confirm_work_miss`]), so every seed asks the same confirm work
    /// of a scan.
    pub chip: BitImage,
    /// Chips drawn before `chip` was kept.
    pub chip_draws: usize,
    /// [`confirm_work_miss`] of `chip`: 0 unless every draw missed.
    pub chip_miss: usize,
}

/// Escalated windows per chip (of 49 at stride 64).
const CHIP_ESCALATIONS: usize = 3;
/// Chip draws before settling for the closest confirm work.
const CHIP_DRAWS: usize = 64;
/// Width of the repeated-tile half of the chip, in pixels.
const TILE_PX: usize = CHIP_CELLS / 2 * SIDE;

impl Inputs {
    pub fn generate(seed: u64, model: &PackedBnn) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = ClipGenerator::new(CLIP_NM);
        let raster = Raster::new(RESOLUTION_NM);
        let mut draw = || {
            let clip = gen.generate(&mut rng);
            let image = raster.rasterize(&clip.layout, gen.window());
            (image, clip.layout)
        };
        let clips: Vec<BitImage> = (0..POOL).map(|_| draw().0).collect();
        let signed: Vec<Vec<f32>> = clips.iter().map(BitImage::to_signed_f32).collect();
        let triage_plan = model.plan_capped((SIDE, SIDE), 1);
        let mut ws = Workspace::new();
        let triage: Vec<f32> = signed
            .iter()
            .map(|x| margin(&triage_plan, x, &mut ws))
            .collect();
        let mut abs: Vec<f32> = triage.iter().map(|m| m.abs()).collect();
        abs.sort_by(f32::total_cmp);
        let threshold = abs[((abs.len() - 1) as f64 * ESCALATION_QUANTILE) as usize];

        let scanner = Scanner::new(model, SIDE, scan_config(threshold, false));
        let mut best: Option<(usize, BitImage)> = None;
        let mut chip_draws = 0;
        while chip_draws < CHIP_DRAWS {
            chip_draws += 1;
            let mut chip = ChipBuilder::new(CHIP_CELLS, CHIP_CELLS, SIDE, RESOLUTION_NM);
            let (tile, tile_layout) = draw();
            for y in 0..CHIP_CELLS {
                for x in 0..CHIP_CELLS {
                    if x < CHIP_CELLS / 2 {
                        chip.place((x, y), &tile, &tile_layout);
                    } else {
                        let (image, layout) = draw();
                        chip.place((x, y), &image, &layout);
                    }
                }
            }
            let chip = chip.finish().image;
            let miss = confirm_work_miss(&scanner.scan(&chip, &mut ws));
            if best.as_ref().is_none_or(|(m, _)| miss < *m) {
                best = Some((miss, chip));
            }
            if miss == 0 {
                break;
            }
        }
        let mut order: Vec<usize> = (0..POOL).collect();
        order.shuffle(&mut rng);
        let (chip_miss, chip) = best.expect("at least one chip draw");
        Inputs {
            clips,
            signed,
            triage,
            threshold,
            order,
            chip,
            chip_draws,
            chip_miss,
        }
    }
}

/// How far a chip's scan is from confirming exactly
/// [`CHIP_ESCALATIONS`] windows, each alone: 0 when its escalated
/// windows number that many, sit in distinct window rows (the scanner
/// confirms a row's escalations as one batch) and all reach into the
/// distinct half (an escalated tile window is confirmed once and then
/// served from the dedup cache).
fn confirm_work_miss(report: &ScanReport) -> usize {
    let escalated: Vec<_> = report.verdicts.iter().filter(|v| v.escalated).collect();
    let mut rows: Vec<usize> = escalated.iter().map(|v| v.y).collect();
    rows.sort_unstable();
    rows.dedup();
    let in_tile = escalated.iter().filter(|v| v.x + SIDE <= TILE_PX).count();
    debug_assert_eq!(escalated.len(), report.escalated);
    report.escalated.abs_diff(CHIP_ESCALATIONS) + (escalated.len() - rows.len()) + in_tile
}

/// One clip's logit margin (hotspot minus non-hotspot) from `plan`.
fn margin(plan: &ExecPlan<'_>, x: &[f32], ws: &mut Workspace) -> f32 {
    let mut logits = [0.0f32; 2];
    plan.run_into(x, 1, ws, &mut logits);
    logits[1] - logits[0]
}

/// Per-clip reference margins.
#[derive(Debug, Clone, Copy)]
pub struct ClipRef {
    /// M = 1 triage margin.
    pub triage: f32,
    /// Full-M margin, computed for clips the cascade escalates.
    pub confirm: Option<f32>,
}

/// Reference answers, computed in process one clip at a time.
pub struct Reference {
    model: PackedBnn,
    threshold: f32,
    pub clips: Vec<ClipRef>,
    chip: BitImage,
    scan: ScanReport,
    scan_triage_only: OnceLock<ScanReport>,
}

impl Reference {
    /// Confirms the escalated clips one at a time with the full plan and
    /// scans the chip with the crop-and-classify oracle.
    pub fn compute(model: PackedBnn, inputs: &Inputs) -> Reference {
        let mut ws = Workspace::new();
        let confirm_plan = model.plan((SIDE, SIDE));
        let threshold = inputs.threshold;
        let clips = inputs
            .triage
            .iter()
            .zip(&inputs.signed)
            .map(|(&t, x)| ClipRef {
                triage: t,
                confirm: (t.abs() < threshold).then(|| margin(&confirm_plan, x, &mut ws)),
            })
            .collect();
        drop(confirm_plan);
        let scan = scan_oracle(&model, &inputs.chip, threshold, false);
        Reference {
            model,
            threshold,
            clips,
            chip: inputs.chip.clone(),
            scan,
            scan_triage_only: OnceLock::new(),
        }
    }

    /// The model the references were computed with.
    pub fn model(&self) -> &PackedBnn {
        &self.model
    }

    /// The cascade's expected `(hotspot, margin, escalated)` for a pool
    /// clip; triage-only when the server answered degraded.
    fn expected_clip(&self, idx: usize, degraded: bool) -> (f32, bool) {
        let r = self.clips[idx];
        match r.confirm {
            Some(m) if !degraded => (m, true),
            _ => (r.triage, false),
        }
    }

    /// The oracle scan (triage-only when degraded; computed on first
    /// need, since the workloads are sized never to degrade).
    fn expected_scan(&self, degraded: bool) -> &ScanReport {
        if degraded {
            self.scan_triage_only
                .get_or_init(|| scan_oracle(&self.model, &self.chip, self.threshold, true))
        } else {
            &self.scan
        }
    }

    /// `true` when `resp` is the right answer to a request of `kind`.
    pub fn check(&self, kind: Kind, resp: &Response) -> bool {
        match (kind, resp) {
            (
                Kind::Clip(idx),
                Response::Classify {
                    hotspot,
                    margin,
                    degraded,
                    escalated,
                    ..
                },
            ) => {
                let (m, esc) = self.expected_clip(idx, *degraded);
                *hotspot == (m >= 0.0) && margin.to_bits() == m.to_bits() && *escalated == esc
            }
            (
                Kind::Scan,
                Response::ScanRegions {
                    regions,
                    windows,
                    escalated,
                    degraded,
                    ..
                },
            ) => {
                let want = self.expected_scan(*degraded);
                *windows as usize == want.windows
                    && *escalated as usize == want.escalated
                    && regions.len() == want.regions.len()
                    && regions.iter().zip(&want.regions).all(|(got, r)| {
                        (got.x0, got.y0, got.x1, got.y1, got.windows)
                            == (
                                r.x0 as u32,
                                r.y0 as u32,
                                r.x1 as u32,
                                r.y1 as u32,
                                r.windows as u32,
                            )
                            && got.score.to_bits() == r.score.to_bits()
                    })
            }
            _ => false,
        }
    }

    /// Flips the sign of one reference margin, so a correct server is
    /// reported wrong: the check of the checker.
    pub fn corrupt(&mut self) {
        let r = &mut self.clips[0];
        match &mut r.confirm {
            Some(m) => *m = -*m,
            None => r.triage = -r.triage,
        }
    }
}

/// Crop-and-classify scan of `chip`: no reuse, no dedup.
fn scan_oracle(
    model: &PackedBnn,
    chip: &BitImage,
    threshold: f32,
    triage_only: bool,
) -> ScanReport {
    let config = scan_config(threshold, triage_only);
    Scanner::new(model, SIDE, config).scan_naive(chip, &mut Workspace::new())
}

/// The scanner configuration the server uses for a request.
pub fn scan_config(threshold: f32, triage_only: bool) -> ScanConfig {
    ScanConfig {
        stride: STRIDE,
        cascade_threshold: threshold,
        triage_only,
        dedup: true,
    }
}
