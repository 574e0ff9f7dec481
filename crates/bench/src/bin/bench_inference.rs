//! Per-layer inference benchmark: runs the paper's 12-layer network
//! through the packed XNOR execution plan with the slot profiler
//! enabled and writes `BENCH_inference.json` — a machine-readable
//! breakdown of where inference time goes, layer by layer, built from
//! the telemetry metrics registry.
//!
//! Timing does not need trained weights, so the network is randomly
//! initialised; the binarized kernels cost the same either way.
//!
//! ```sh
//! cargo run --release -p hotspot-bench --bin bench_inference [OUT.json] [CLIPS] [RUNS]
//! ```

use hotspot_bnn::{dispatch_report, BnnResNet, NetConfig, PackedBnn};
use hotspot_telemetry::{metrics, MetricsRegistry, MonotonicClock, Timer};
use hotspot_tensor::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args.next().unwrap_or_else(|| "BENCH_inference.json".into());
    let clips: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let runs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);

    let config = NetConfig::paper_12layer();
    let side = config.input_size;
    let mut rng = StdRng::seed_from_u64(2019);
    let net = BnnResNet::new(&config, &mut rng);
    let packed = PackedBnn::compile(&net);
    let plan = packed.plan((side, side));

    // Random ±1 clips: the XNOR kernels are data-independent in cost.
    let plane = side * side;
    let mut state = 0xb5e7_u32;
    let input: Vec<f32> = (0..clips * plane)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state & 0x8000 == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let mut logits = vec![0.0f32; clips * 2];
    let mut ws = Workspace::new();

    // Warm-up grows the workspace to steady state and faults in pages.
    plan.run_into(&input, clips, &mut ws, &mut logits);

    let clock = MonotonicClock;
    let mut prof = plan.profiler();
    let batch_hist = metrics::global().histogram(
        "bench_inference_batch_duration_ns",
        &metrics::duration_ns_buckets(),
    );
    let total_timer = Timer::start(&clock);
    for _ in 0..runs {
        let t = Timer::start(&clock);
        plan.run_batch_into_profiled(&input, clips, &mut ws, &mut logits, &mut prof);
        batch_hist.observe(t.elapsed_ns() as f64);
    }
    let wall_ns = total_timer.elapsed_ns();

    // Export the per-layer totals as labelled counters so the registry
    // snapshot below carries the breakdown too.
    prof.export_to(metrics::global(), "inference_layer", "layer");
    metrics::global()
        .gauge("bench_inference_clips_per_sec")
        .set((clips * runs) as f64 / (wall_ns as f64 / 1e9));

    let report = prof.report();
    let weight_layers = report
        .iter()
        .filter(|s| s.name == "stem" || s.name.ends_with(".conv1") || s.name.ends_with(".conv2"))
        .count()
        + 1; // + fc
    assert_eq!(
        weight_layers, 12,
        "expected the paper's 12 weight layers in the profile: {report:?}"
    );

    let dispatch = dispatch_report();
    let clips_per_sec = (clips * runs) as f64 / (wall_ns as f64 / 1e9);

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"packed_inference\",\n");
    let _ = writeln!(json, "  \"input_size\": {side},");
    let _ = write!(json, "  \"clips\": {clips},\n  \"runs\": {runs},\n");
    let _ = writeln!(json, "  \"wall_ns\": {wall_ns},");
    let _ = writeln!(json, "  \"clips_per_sec\": {clips_per_sec:.1},");
    let _ = writeln!(json, "  \"kernel_backend\": \"{}\",", plan.backend().name());
    let _ = writeln!(json, "  \"weight_layers\": {weight_layers},");
    json.push_str("  \"layers\": [\n");
    for (i, slot) in report.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"mean_ns\": {:.1}}}{}",
            slot.name,
            slot.calls,
            slot.total_ns,
            slot.mean_ns(),
            if i + 1 < report.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"metrics\": ");
    json.push_str(&metrics::global().to_json());
    json.push_str("\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark json");

    println!("wrote {out_path} ({clips} clips x {runs} runs, {side}x{side} input)");
    println!(
        "{:<16} {:>8} {:>14} {:>12}",
        "layer", "calls", "total_ns", "mean_ns"
    );
    for slot in &report {
        println!(
            "{:<16} {:>8} {:>14} {:>12.1}",
            slot.name,
            slot.calls,
            slot.total_ns,
            slot.mean_ns()
        );
    }
    let total: u64 = prof.total_ns();
    println!(
        "total {:.3} ms over {} runs ({:.1} clips/s)",
        total as f64 / 1e6,
        runs,
        clips_per_sec
    );
    println!("{}", dispatch.summary());
    // A local-registry sanity check keeps the exported names honest.
    let check = MetricsRegistry::new();
    prof.export_to(&check, "inference_layer", "layer");
    assert!(check.to_prometheus().contains("inference_layer_ns_total"));
}
