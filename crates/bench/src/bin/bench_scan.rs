//! Full-chip scanning benchmark: generates a stitched chip with
//! [`generate_chip`], sweeps it with the streaming [`Scanner`] in every
//! mode, and writes `BENCH_scan.json` — windows/second for the scanner
//! against the naive crop-and-classify baselines, per stride.
//!
//! Modes:
//!
//! * `naive_full`    — crop every window, run the full M-level plan, no
//!   cascade.  The "no scanner" baseline: per-clip inference at the
//!   paper's accuracy configuration.
//! * `naive_cascade` — crop every window, triage then confirm (the
//!   equivalence-test oracle).
//! * `scan`          — the cascade plus duplicate-window caching (the
//!   production path).
//!
//! ```sh
//! cargo run --release -p hotspot-bench --bin bench_scan -- [OUT.json] [--quick] [--check]
//! ```
//!
//! `--quick` shrinks the chip and sweeps one stride (CI smoke);
//! `--check` exits non-zero unless `scan` (cascade + dedup) beats
//! `naive_full` by ≥ 2× at stride 64 (1.7× with `--quick`), comparing
//! the medians of interleaved `naive_full`/`scan` passes.

use hotspot_bench::median;
use hotspot_bnn::{BnnResNet, NetConfig, PackedBnn, ScanConfig, ScanReport, Scanner};
use hotspot_layout_gen::{generate_chip, Chip, ChipSpec, ClipGenerator};
use hotspot_tensor::Workspace;
use std::fmt::Write as _;
use std::time::Instant;

/// Background/site labelling for the benchmark chip: pattern density.
/// The benchmark measures throughput, not accuracy, so a cheap
/// deterministic criterion beats running the litho oracle thousands of
/// times during generation.
const DENSITY_HOTSPOT: f64 = 0.30;

/// Fraction of windows the cascade escalates to the full confirm.
/// Deployments tune the threshold for an escalation budget; the
/// benchmark does the same from the (seeded, deterministic) triage
/// margin distribution rather than hard-coding a magic number for a
/// randomly initialised model.
const ESCALATION_QUANTILE: f64 = 0.10;

struct Row {
    stride: usize,
    mode: &'static str,
    windows: usize,
    windows_per_sec: f64,
    regions: usize,
    hotspots_per_mm2: f64,
    escalated: usize,
    dedup_hits: usize,
}

fn bench_mode(
    scanner: &Scanner,
    chip: &Chip,
    mode: &'static str,
    stride: usize,
    area_mm2: f64,
) -> Row {
    let mut ws = Workspace::new();
    let run = |ws: &mut Workspace| -> ScanReport {
        match mode {
            "naive_full" => scanner.scan_naive_full(&chip.image, ws),
            "naive_cascade" => scanner.scan_naive(&chip.image, ws),
            "scan" => scanner.scan(&chip.image, ws),
            other => panic!("unknown mode {other}"),
        }
    };
    // One warm-up pass (allocations, page faults), then time the best
    // of two measured passes.
    let report = run(&mut ws);
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        let r = run(&mut ws);
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(r.windows, report.windows);
    }
    Row {
        stride,
        mode,
        windows: report.windows,
        windows_per_sec: report.windows as f64 / best,
        regions: report.regions.len(),
        hotspots_per_mm2: report.regions.len() as f64 / area_mm2,
        escalated: report.escalated,
        dedup_hits: report.dedup_hits,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_scan.json");
    let mut quick = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            other => out_path = other.to_string(),
        }
    }

    // M = 3 residual levels: the paper's accuracy configuration.  The
    // naive baseline pays the full M = 3 plan on every crop — exactly
    // what deploying the detector without a scanner costs — while the
    // cascade triages at M = 1 and confirms only low-margin windows.
    let config = NetConfig::paper_12layer().with_levels(3);
    let window = config.input_size;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2019);
    let model = PackedBnn::compile(&BnnResNet::new(&config, &mut rng));

    // 1280 nm clips at 10 nm/px → 128 px cells, one model window each.
    let cells = if quick { 4 } else { 8 };
    let sites = if quick { 2 } else { 6 };
    let clips = ClipGenerator::new(1280);
    let spec = ChipSpec::new(cells, sites, 20260808);
    let chip = generate_chip(&spec, &clips, |layout, win| {
        layout.density(win) > DENSITY_HOTSPOT
    })
    .expect("chip generation");
    let area_mm2 = chip.area_mm2();
    println!(
        "scan benchmark: {}x{} px chip ({:.1} µm²), {} hotspot sites, window {}",
        chip.width_px,
        chip.height_px,
        area_mm2 * 1e6,
        chip.sites.len(),
        window
    );

    // Tune the cascade threshold to the escalation budget: the
    // ESCALATION_QUANTILE-th percentile of |triage margin| over the
    // stride-64 grid.  Deterministic — model, chip, and grid are all
    // seeded.
    let threshold = {
        let mut cfg = ScanConfig::new(64);
        cfg.triage_only = true;
        let scanner = Scanner::new(&model, window, cfg);
        let mut ws = Workspace::new();
        let report = scanner.scan(&chip.image, &mut ws);
        let mut margins: Vec<f32> = report.verdicts.iter().map(|v| v.margin.abs()).collect();
        margins.sort_by(f32::total_cmp);
        let idx = ((margins.len() as f64 - 1.0) * ESCALATION_QUANTILE) as usize;
        margins[idx]
    };
    println!(
        "cascade threshold {threshold:.4} (~{:.0}% escalation)",
        ESCALATION_QUANTILE * 100.0
    );

    let strides: &[usize] = if quick { &[64] } else { &[32, 64, 128] };
    let modes: &[&'static str] = &["naive_full", "naive_cascade", "scan"];
    println!(
        "{:>7} {:>14} {:>9} {:>13} {:>8} {:>7} {:>7}",
        "stride", "mode", "windows", "windows/s", "regions", "escal", "dedup"
    );
    let mut rows = Vec::new();
    for &stride in strides {
        for &mode in modes {
            let mut config = ScanConfig::new(stride);
            config.cascade_threshold = threshold;
            let scanner = Scanner::new(&model, window, config);
            let row = bench_mode(&scanner, &chip, mode, stride, area_mm2);
            println!(
                "{:>7} {:>14} {:>9} {:>13.1} {:>8} {:>7} {:>7}",
                row.stride,
                row.mode,
                row.windows,
                row.windows_per_sec,
                row.regions,
                row.escalated,
                row.dedup_hits
            );
            rows.push(row);
        }
    }

    // Every window batch runs the bit-sliced XNOR-GEMM over every
    // output pixel; record the tier that produced these numbers.
    let gemm_tier = model.plan((window, window)).gemm_tier();

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"scan\",\n");
    let _ = writeln!(json, "  \"window\": {window},");
    let _ = writeln!(json, "  \"gemm_tier\": {gemm_tier},");
    let _ = writeln!(json, "  \"levels\": {},", config.levels);
    let _ = writeln!(json, "  \"cascade_threshold\": {threshold:.6},");
    let _ = writeln!(
        json,
        "  \"chip_px\": [{}, {}],",
        chip.width_px, chip.height_px
    );
    let _ = writeln!(json, "  \"chip_area_mm2\": {area_mm2:.6},");
    let _ = writeln!(json, "  \"hotspot_sites\": {},", chip.sites.len());
    json.push_str("  \"scan\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"stride\": {}, \"mode\": \"{}\", \"windows\": {}, \
             \"windows_per_sec\": {:.1}, \"regions\": {}, \
             \"hotspots_per_mm2\": {:.3}, \"escalated\": {}, \
             \"dedup_hits\": {}}}{}",
            r.stride,
            r.mode,
            r.windows,
            r.windows_per_sec,
            r.regions,
            r.hotspots_per_mm2,
            r.escalated,
            r.dedup_hits,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");

    if check {
        // The best-of-two rows above swing with a shared host's slow
        // phases, so the gate times its own passes: `naive_full` and
        // `scan` alternate over the same windows, and the speedup is the
        // ratio of their median pass times.
        const PAIRS: usize = 9;
        let mut config = ScanConfig::new(64);
        config.cascade_threshold = threshold;
        let scanner = Scanner::new(&model, window, config);
        let mut ws = Workspace::new();
        let naive = |ws: &mut Workspace| scanner.scan_naive_full(&chip.image, ws);
        let scan = |ws: &mut Workspace| scanner.scan(&chip.image, ws);
        let time = |run: &dyn Fn(&mut Workspace) -> ScanReport, ws: &mut Workspace| {
            let start = Instant::now();
            run(ws);
            start.elapsed().as_secs_f64()
        };
        time(&naive, &mut ws); // warm-up
        time(&scan, &mut ws);
        let (mut t_naive, mut t_scan): (Vec<f64>, Vec<f64>) = (0..PAIRS)
            .map(|_| (time(&naive, &mut ws), time(&scan, &mut ws)))
            .unzip();
        let speedup = median(&mut t_naive) / median(&mut t_scan);
        println!(
            "stride-64 scan (cascade + dedup) vs naive_full: {speedup:.2}x \
             (median of {PAIRS} interleaved pairs)"
        );
        // CI smoke (quick chip) and full-run floors.
        let floor = if quick { 1.7 } else { 2.0 };
        assert!(
            speedup >= floor,
            "scan (cascade + dedup) vs naive_full: {speedup:.2}x, below the {floor}x floor"
        );
    }
}
