//! Full-chip scanning: stitch a chip with embedded, oracle-labelled
//! hotspot sites, sweep it with the streaming scanner, and compare the
//! merged defect regions against the ground truth.
//!
//! ```text
//! cargo run --release -p hotspot-core --example scan_chip
//! ```

use hotspot_core::{
    generate_chip, BnnResNet, ChipSpec, ClipGenerator, HotspotOracle, NetConfig, OpticalModel,
    PackedBnn, ScanConfig, Scanner, Workspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A 4x4-cell chip: 1280 nm clips at 10 nm/px make 128 px cells,
    //    one model window each.  Three cells are rejection-sampled
    //    until the litho oracle calls them hotspots, the rest until it
    //    calls them clean — exact site-level ground truth.
    println!("stitching a chip (litho-simulating every cell)...");
    let oracle = HotspotOracle::new(OpticalModel::default());
    let clips = ClipGenerator::new(1280);
    let spec = ChipSpec::new(4, 3, 7);
    let chip = generate_chip(&spec, &clips, |layout, window| oracle.label(layout, window))
        .expect("chip generation");
    println!(
        "  {}x{} px ({:.1} µm²), {} hotspot sites at {:?}",
        chip.width_px,
        chip.height_px,
        chip.area_mm2() * 1e6,
        chip.sites.len(),
        chip.sites.iter().map(|s| s.center_px).collect::<Vec<_>>()
    );

    // 2. The paper's 12-layer network (randomly initialised here —
    //    substitute a trained `BnnDetector`'s packed model for real
    //    use) wrapped in the streaming scanner: stride 64 gives 2x
    //    window overlap, the cascade confirms low-margin windows at
    //    the full residual depth.
    let config = NetConfig::paper_12layer().with_levels(2);
    let mut rng = StdRng::seed_from_u64(2019);
    let model = PackedBnn::compile(&BnnResNet::new(&config, &mut rng));
    let scanner = Scanner::new(&model, config.input_size, ScanConfig::new(64));
    println!("scanning (window {}, stride 64)...", config.input_size);
    let mut ws = Workspace::new();
    let report = scanner.scan(&chip.image, &mut ws);

    // 3. Merged defect regions, best-scoring first.
    println!(
        "  {} windows ({} duplicate crops), {} hot, {} escalated",
        report.windows, report.dedup_hits, report.hotspots, report.escalated
    );
    println!("\ndefect regions:");
    for r in &report.regions {
        println!(
            "  [{:4},{:4})x[{:4},{:4})  score {:+.3}  peak {:?}  {} windows",
            r.x0, r.x1, r.y0, r.y1, r.score, r.peak, r.windows
        );
    }
    for site in &chip.sites {
        let nearest = report
            .regions
            .iter()
            .map(|r| {
                let c = r.center();
                c.0.abs_diff(site.center_px.0) + c.1.abs_diff(site.center_px.1)
            })
            .min();
        match nearest {
            Some(d) => println!(
                "site {:?}: nearest region centre {d} px away",
                site.center_px
            ),
            None => println!("site {:?}: no region found", site.center_px),
        }
    }
}
