//! Served-throughput benchmark: drives the `hotspot-serve` loopback
//! server with concurrent lock-step clients and writes
//! `BENCH_serving.json` — QPS and client-side p50/p95/p99 latency at
//! 1/4/16 client threads, with the cascade confirming every clip
//! ("cascade") and in the triage-only shape the degradation ladder
//! serves under overload ("triage").
//!
//! Timing does not need trained weights: the server is handed a
//! randomly initialised M = 2 model of the paper's 12-layer network,
//! and the two modes are selected through the cascade threshold
//! (`f32::MAX` escalates everything, `0.0` escalates nothing).
//!
//! ```sh
//! cargo run --release -p hotspot-bench --bin bench_serving [OUT.json] [REQUESTS_PER_COMBO]
//! ```

use hotspot_bnn::{BnnResNet, NetConfig, PackedBnn};
use hotspot_geometry::BitImage;
use hotspot_serve::{Response, ServeClient, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const THREAD_COUNTS: [usize; 3] = [1, 4, 16];
const MODES: [(&str, f32); 2] = [("cascade", f32::MAX), ("triage", 0.0)];

struct Combo {
    threads: usize,
    mode: &'static str,
    requests: usize,
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn bench_clip(side: usize, variant: u64) -> BitImage {
    let mut img = BitImage::new(side, side);
    let step = 4 + (variant % 6) as usize;
    let mut y = (variant % 3) as usize;
    while y < side {
        img.fill_row_span(y, 0, side);
        y += step;
    }
    img
}

fn run_combo(
    model: &PackedBnn,
    side: usize,
    threads: usize,
    mode: &'static str,
    threshold: f32,
    total_requests: usize,
) -> Combo {
    let mut cfg = ServeConfig::new(side);
    cfg.workers = 2;
    cfg.max_batch = 16;
    cfg.queue_capacity = 256;
    cfg.high_water = 192;
    cfg.low_water = 64;
    cfg.cascade_threshold = threshold;
    let server = Server::start(cfg, model.clone()).expect("start loopback server");

    let per_thread = total_requests.div_ceil(threads);
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let addr = server.addr();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut latencies_us = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let id = (t * 1_000_000 + i) as u64;
                    let clip = bench_clip(side, id);
                    let sent = Instant::now();
                    match client.classify(id, &clip, 30_000).expect("classify") {
                        Response::Classify { .. } => {}
                        other => panic!("request {id}: unexpected {other:?}"),
                    }
                    latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    server.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = latencies.len();
    Combo {
        threads,
        mode,
        requests,
        qps: requests as f64 / wall,
        p50_us: percentile(&latencies, 50.0),
        p95_us: percentile(&latencies, 95.0),
        p99_us: percentile(&latencies, 99.0),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args.next().unwrap_or_else(|| "BENCH_serving.json".into());
    let total_requests: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(240);

    let config = NetConfig::paper_12layer().with_levels(2);
    let side = config.input_size;
    let mut rng = StdRng::seed_from_u64(2019);
    let model = PackedBnn::compile(&BnnResNet::new(&config, &mut rng));

    println!(
        "serving benchmark: {side}x{side} M=2 model, {total_requests} requests per combination"
    );
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "threads", "mode", "qps", "p50_us", "p95_us", "p99_us"
    );
    let mut combos = Vec::new();
    for &threads in &THREAD_COUNTS {
        for &(mode, threshold) in &MODES {
            let c = run_combo(&model, side, threads, mode, threshold, total_requests);
            println!(
                "{:>8} {:>8} {:>10.1} {:>10.0} {:>10.0} {:>10.0}",
                c.threads, c.mode, c.qps, c.p50_us, c.p95_us, c.p99_us
            );
            combos.push(c);
        }
    }

    // Record the conv execution tier requests hit: batches of every
    // size run the bit-sliced XNOR-GEMM over every output pixel.
    let gemm_tier = model.plan((side, side)).gemm_tier();

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"serving\",\n");
    let _ = writeln!(json, "  \"input_size\": {side},");
    let _ = writeln!(json, "  \"gemm_tier\": {gemm_tier},");
    let _ = writeln!(json, "  \"levels\": {},", config.levels);
    let _ = writeln!(json, "  \"requests_per_combo\": {total_requests},");
    json.push_str("  \"serving\": [\n");
    for (i, c) in combos.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"mode\": \"{}\", \"requests\": {}, \
             \"clips_per_sec\": {:.1}, \"p50_us\": {:.0}, \"p95_us\": {:.0}, \
             \"p99_us\": {:.0}}}{}",
            c.threads,
            c.mode,
            c.requests,
            c.qps,
            c.p50_us,
            c.p95_us,
            c.p99_us,
            if i + 1 < combos.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
}
