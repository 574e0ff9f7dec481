//! Shared fixtures for the benchmark harness.
//!
//! The `tables` binary regenerates the paper's tables and figures; the
//! criterion benches measure the kernels behind them.  Both share the
//! dataset and quick-training helpers here.

use criterion::Criterion;
use hotspot_core::{
    BitImage, BnnDetector, BnnTrainConfig, DatasetSpec, HotspotDetector, HotspotOracle,
    LabeledClip, OpticalModel, PatternFamily, SplitDataset,
};

/// Median of `v` (upper median for even lengths), sorting it in place.
/// The bench `--check` gates compare medians of interleaved passes, so
/// a slow phase of a shared host lands on both sides alike.
///
/// # Panics
///
/// Panics when `v` is empty.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A short-and-stable criterion configuration shared by every bench in
/// this crate: the measured kernels are long-running and low-variance,
/// so 20 samples in a 3 s window suffice and the full suite stays fast.
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
}

/// Builds the ICCAD-2012-like dataset at the given scale of the
/// paper's Table-2 counts, caching the result on disk (litho
/// simulation of tens of thousands of clips is the expensive step).
pub fn dataset(scale: f64) -> SplitDataset {
    let cache = std::env::temp_dir().join(format!("brnn_dataset_v2_{:.4}.bin", scale));
    if let Ok(ds) = hotspot_core::persist::load_dataset(&cache) {
        return ds;
    }
    let oracle = HotspotOracle::new(OpticalModel::default());
    let spec = if (scale - 1.0).abs() < 1e-12 {
        DatasetSpec::iccad2012_like()
    } else {
        DatasetSpec::iccad2012_like().scaled(scale)
    };
    let ds = spec.build(&oracle);
    let _ = hotspot_core::persist::save_dataset(&cache, &ds);
    ds
}

/// Striped toy clips: hotspots are dense stripes, clean clips sparse.
/// Training-free benches use these to exercise detectors without the
/// cost of lithography simulation.
pub fn stripe_clips(n: usize, side: usize) -> Vec<LabeledClip> {
    (0..n)
        .map(|i| {
            let hotspot = i % 2 == 0;
            let mut img = BitImage::new(side, side);
            let step = if hotspot { 4 } else { 12 };
            let mut y = i % 3;
            while y < side {
                img.fill_row_span(y, 0, side);
                y += step;
            }
            LabeledClip {
                image: img,
                hotspot,
                family: PatternFamily::LineSpace,
            }
        })
        .collect()
}

/// Trains a BNN detector quickly on striped toy clips, for benches
/// that need a *trained* artifact but do not care about its quality.
pub fn quick_bnn(input_size: usize) -> BnnDetector {
    let mut cfg = BnnTrainConfig::fast();
    cfg.net.input_size = input_size;
    cfg.input_size = input_size;
    cfg.epochs = 2;
    cfg.bias_epochs = 0;
    let mut det = BnnDetector::new(cfg);
    det.fit(&stripe_clips(16, input_size));
    det
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_clips_alternate_labels() {
        let clips = stripe_clips(6, 32);
        assert_eq!(clips.len(), 6);
        assert!(clips[0].hotspot && !clips[1].hotspot);
        assert!(clips[0].image.count_ones() > clips[1].image.count_ones());
    }

    #[test]
    fn quick_bnn_is_trained() {
        let det = quick_bnn(32);
        assert!(det.packed().is_some());
    }
}
