//! Golden outputs: the model's logits and one full-chip scan, pinned
//! bit for bit across revisions.
//!
//! Every other bit-identity test compares two paths of the *same*
//! revision: plan against the border-path oracle, scan against
//! crop-and-classify, each backend against scalar.  A change to
//! arithmetic both sides share — the box filter's summation order, the
//! `|v|`-mean accumulation of the fused binarize-pack, the epilogue's
//! float ops — moves both sides together and passes all of them.  This
//! test compares against numbers committed in `golden_outputs.txt`:
//!
//! * the logits of the paper's 12-layer net (seeded weights) at
//!   M ∈ {1, 2, 3} × every [`ScalingMode`] on 8 seeded
//!   [`ClipGenerator`] clips;
//! * every verdict (margin and escalation) and merged region of a
//!   stride-64 scan at M = 3 of a seeded 512 × 512 chip whose left half
//!   repeats one tile, so the dedup cache hits, with a cascade
//!   threshold that escalates some windows.
//!
//! f32 values are stored as bit patterns.  The test runs on the active
//! kernel backend, so CI runs it once per forced backend
//! (`HOTSPOT_KERNEL_BACKEND`) and every backend must reproduce the file
//! exactly.  A change that alters output bits on purpose regenerates
//! the file in its own commit:
//!
//! ```sh
//! cargo test --release -p hotspot-bnn --test golden -- --ignored regenerate_golden_outputs
//! ```

use hotspot_bnn::{
    active_backend, BnnResNet, KernelBackend, NetConfig, PackedBnn, ScalingMode, ScanConfig,
    Scanner,
};
use hotspot_geometry::{BitImage, Raster};
use hotspot_layout_gen::{ChipBuilder, ClipGenerator};
use hotspot_tensor::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_outputs.txt");
/// Clip side: 1280 nm clips at 10 nm per pixel.
const SIDE: usize = 128;
const CLIP_NM: i64 = 1280;
const RESOLUTION_NM: i64 = 10;
/// Clips per model.  The workspace tests run this file in a debug
/// build, where 32 clips per model take over a minute; 8 take ~20 s.
const CLIPS: usize = 8;
const MODEL_SEED: u64 = 2019;
const CLIP_SEED: u64 = 20261018;
const CHIP_SEED: u64 = 20261019;
/// The scanned chip is `CHIP_CELLS²` clip-sized cells.
const CHIP_CELLS: usize = 4;
const STRIDE: usize = 64;
/// Escalates 7 of the chip's 49 windows at triage, three of them
/// copies of one tile window (one confirm, two dedup hits).
const THRESHOLD: f32 = 0.01;
const SCALINGS: [ScalingMode; 3] = [
    ScalingMode::PlainSign,
    ScalingMode::Shared,
    ScalingMode::PerChannel,
];

/// The paper net with `MODEL_SEED` weights.
fn paper_model(scaling: ScalingMode, levels: usize) -> PackedBnn {
    let mut config = NetConfig::paper_12layer().with_levels(levels);
    config.scaling = scaling;
    PackedBnn::compile(&BnnResNet::new(
        &config,
        &mut StdRng::seed_from_u64(MODEL_SEED),
    ))
}

/// `n` rasterized `ClipGenerator` clips drawn from `rng`.
fn clips(n: usize, rng: &mut StdRng) -> Vec<BitImage> {
    let gen = ClipGenerator::new(CLIP_NM);
    let raster = Raster::new(RESOLUTION_NM);
    (0..n)
        .map(|_| raster.rasterize(&gen.generate(rng).layout, gen.window()))
        .collect()
}

/// The scanned chip: the left half repeats one tile, the right half
/// holds distinct clips.
fn chip() -> BitImage {
    let mut rng = StdRng::seed_from_u64(CHIP_SEED);
    let gen = ClipGenerator::new(CLIP_NM);
    let raster = Raster::new(RESOLUTION_NM);
    let mut draw = || {
        let clip = gen.generate(&mut rng);
        (raster.rasterize(&clip.layout, gen.window()), clip.layout)
    };
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
    chip.finish().image
}

/// FNV-1a over the images' words: names the inputs in the fixture, so a
/// changed clip generator reads as changed inputs, not changed math.
fn digest<'a>(images: impl IntoIterator<Item = &'a BitImage>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for image in images {
        for &w in image.as_words() {
            h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The inputs every backend is run on, built once.
struct Inputs {
    models: Vec<(ScalingMode, usize, PackedBnn)>,
    clips: Vec<BitImage>,
    chip: BitImage,
}

impl Inputs {
    fn build() -> Inputs {
        let models = SCALINGS
            .iter()
            .flat_map(|&s| (1..=3).map(move |m| (s, m, paper_model(s, m))))
            .collect();
        Inputs {
            models,
            clips: clips(CLIPS, &mut StdRng::seed_from_u64(CLIP_SEED)),
            chip: chip(),
        }
    }

    /// The fixture's data lines as `backend` computes them.
    fn golden_lines(&self, backend: KernelBackend) -> Vec<String> {
        let mut ws = Workspace::new();
        let mut lines = vec![format!("clips {CLIPS} digest {:016x}", digest(&self.clips))];
        let input: Vec<f32> = self
            .clips
            .iter()
            .flat_map(BitImage::to_signed_f32)
            .collect();
        for (scaling, levels, model) in &self.models {
            let plan = model.plan_with_backend((SIDE, SIDE), backend);
            let mut logits = vec![0.0f32; CLIPS * 2];
            plan.run_batch_into(&input, CLIPS, &mut ws, &mut logits);
            for (i, l) in logits.chunks(2).enumerate() {
                lines.push(format!(
                    "logits {scaling:?} M={levels} clip {i:2}: {:08x} {:08x}",
                    l[0].to_bits(),
                    l[1].to_bits()
                ));
            }
        }

        let (_, _, model) = self
            .models
            .iter()
            .find(|(s, m, _)| *s == ScalingMode::PerChannel && *m == 3)
            .expect("the M = 3 paper model");
        let config = ScanConfig {
            stride: STRIDE,
            cascade_threshold: THRESHOLD,
            triage_only: false,
            dedup: true,
        };
        let report = Scanner::with_backend(model, SIDE, config, backend).scan(&self.chip, &mut ws);
        assert!(
            report.dedup_hits > 0,
            "the repeated tile must hit the dedup cache"
        );
        assert!(
            report.escalated > 0 && report.escalated < report.windows,
            "the threshold must escalate some windows, not all: {} of {}",
            report.escalated,
            report.windows
        );
        lines.push(format!(
            "scan {}x{} digest {:016x} stride {STRIDE} threshold {:08x}",
            self.chip.width(),
            self.chip.height(),
            digest([&self.chip]),
            THRESHOLD.to_bits()
        ));
        for v in &report.verdicts {
            lines.push(format!(
                "verdict ({:3}, {:3}) margin {:08x} escalated {}",
                v.x,
                v.y,
                v.margin.to_bits(),
                v.escalated
            ));
        }
        for r in &report.regions {
            lines.push(format!(
                "region [{}, {}) x [{}, {}) score {:08x} peak {:?} windows {}",
                r.x0,
                r.x1,
                r.y0,
                r.y1,
                r.score.to_bits(),
                r.peak,
                r.windows
            ));
        }
        lines
    }
}

#[test]
fn golden_outputs_match_fixture() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("read golden_outputs.txt");
    let want: Vec<&str> = fixture
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let backend = active_backend();
    let got = Inputs::build().golden_lines(backend);
    let diffs: Vec<usize> = (0..got.len().max(want.len()))
        .filter(|&i| got.get(i).map(String::as_str) != want.get(i).copied())
        .collect();
    if let Some(&i) = diffs.first() {
        panic!(
            "{} of {} golden lines differ on the {} backend; first at data line {i}:\n  \
             want {:?}\n  got  {:?}",
            diffs.len(),
            want.len(),
            backend.name(),
            want.get(i),
            got.get(i)
        );
    }
}

/// Rewrites `golden_outputs.txt` from the scalar reference backend.
#[test]
#[ignore = "rewrites the committed golden fixture"]
fn regenerate_golden_outputs() {
    let mut text = String::from(
        "# Golden outputs of hotspot-bnn, checked by tests/golden.rs on every\n\
         # kernel backend.  f32 values are hex bit patterns.  Regenerate with\n\
         # cargo test --release -p hotspot-bnn --test golden -- --ignored regenerate_golden_outputs\n",
    );
    for line in Inputs::build().golden_lines(KernelBackend::Scalar) {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(FIXTURE, text).expect("write golden_outputs.txt");
}
