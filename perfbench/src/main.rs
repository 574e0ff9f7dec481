//! The repository benchmark: starts the real `hotspot-serve` server on
//! loopback, drives it over TCP from one pipelined connection, checks
//! every reply against an in-process reference, and prints each metric
//! by name and unit.  See README.md for the workloads and metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload clips_paced --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare --base base/result-*.txt --new perfbench/out/result-*.txt
//! ```

mod inputs;
mod layers;
mod loadgen;
mod report;
mod schedule;
mod spans;
mod stats;

use hotspot_bnn::PackedBnn;
use hotspot_serve::{ServeClient, ServeConfig, Server};
use hotspot_telemetry::{Outcome as FlightOutcome, RequestRecord, Stage};
use inputs::{Inputs, Reference, CHIP_CELLS, POOL, SIDE, STRIDE};
use loadgen::{Clips, Done, Kind, Payloads, Phase, Tally, Verdict};
use report::{metric, Fingerprint, Metric};
use spans::SpanLog;
use std::collections::HashMap;
use std::io;
use std::process::exit;
use std::time::{Duration, Instant};

/// Open-loop classify rate of `clips_paced`: a quarter to a third of
/// the `clips_saturated` capacity (400–560 clips/s on a 2-vCPU Xeon),
/// and 3840 replies in a 32 s run.  At 60/s the workers idle between
/// clips long enough that each clip ran slower (p50 11 ms, not 8) and
/// the spread between runs grew sixfold.
const PACED_RATE: f64 = 120.0;
/// Closed-loop window of `clips_saturated`: fills batches to
/// `max_batch` and stays below `high_water`, so nothing sheds or
/// degrades.
const SATURATED_WINDOW: usize = 32;
/// The measured phase runs as this many equal segments.  In the gap
/// before each segment and after the last, the server idles while the
/// run times set-ups and probe scans, so those figures sample the whole
/// run rather than one few-second stretch of a host whose speed drifts.
const SEGMENTS: usize = 4;
/// Scans timed on the idle server in each gap, so the clip workloads
/// report `scan_mean_ms`.
const PROBE_SCANS_PER_GAP: usize = 6;
/// Set-ups timed in each gap; `setup_s` is the median of these and the
/// serving server's own.
const SETUPS_PER_GAP: usize = 8;
/// Flight-recorder capacity: holds every request of a run.
const FLIGHT_CAPACITY: usize = 1 << 16;
const WARMUP_CLIPS: usize = 32;

const WORKLOADS: [&str; 2] = ["clips_paced", "clips_saturated"];
const USAGE: &str = "usage: perfbench --workload <clips_paced|clips_saturated> \
                     --seed <n> --seconds <n> --trace <0|1> [--corrupt-reference]\n       \
                     perfbench compare --base RESULT... --new RESULT...";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        exit(report::compare(&argv[1..]));
    }
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2)
    });
    match run(&args) {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1)
        }
    }
}

/// What a phase of the connection is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Warmup,
    Main { traced: bool },
    Probe,
}

/// The workload's measured traffic, cut into `parts` equal consecutive
/// phases.  Open-loop arrivals keep their place in the whole schedule.
fn measured(args: &Args, parts: usize, traced: bool) -> Vec<Phase> {
    let span = Duration::from_secs(args.seconds);
    let arrivals = schedule::poisson_arrivals(args.seed, PACED_RATE, span);
    schedule::split(&arrivals, span, parts)
        .into_iter()
        .map(|at| {
            let clips = match args.workload {
                "clips_paced" => Clips::Open(at),
                _ => Clips::Closed {
                    window: SATURATED_WINDOW,
                    total: None,
                },
            };
            Phase {
                clips,
                scans: 0,
                until: Some(span / parts as u32),
                traced,
            }
        })
        .collect()
}

fn run(args: &Args) -> io::Result<i32> {
    let net = inputs::model_net();
    let model = PackedBnn::compile(&net);
    let inputs = Inputs::generate(args.seed, &model);
    let mut reference = Reference::compute(model, &inputs);
    if args.corrupt {
        reference.corrupt();
    }
    let mut config = ServeConfig::new(SIDE);
    config.cascade_threshold = inputs.threshold;
    config.flight_capacity = FLIGHT_CAPACITY;
    let workers = config.workers;

    // Set-up: compile, start, and answer one clip.  The clip is one the
    // cascade does not escalate, so every seed asks the same work of it.
    let first = (0..POOL)
        .find(|&i| reference.clips[i].confirm.is_none())
        .expect("the threshold escalates only a tenth of the clips");
    let set_up = || -> io::Result<(Server, f64, bool)> {
        let start = Instant::now();
        let s = Server::start(config.clone(), PackedBnn::compile(&net))?;
        let reply = ServeClient::connect(s.addr())?
            .classify(0, &inputs.clips[first], 0)
            .map_err(io::Error::other)?;
        let secs = start.elapsed().as_secs_f64();
        Ok((s, secs, reference.check(Kind::Clip(first), &reply)))
    };
    // The first set-up's server serves the run; each gap times more.
    let (server, secs, ok) = set_up()?;
    let mut setups = vec![(secs, ok)];

    let mut plan: Vec<(Role, Phase)> = vec![(
        Role::Warmup,
        Phase {
            clips: Clips::Closed {
                window: 8,
                total: Some(WARMUP_CLIPS),
            },
            scans: 1,
            until: None,
            traced: false,
        },
    )];
    let probe = Phase {
        clips: Clips::None,
        scans: PROBE_SCANS_PER_GAP,
        until: None,
        traced: args.trace,
    };
    for segment in measured(args, SEGMENTS, false) {
        plan.push((Role::Probe, probe.clone()));
        plan.push((Role::Main { traced: false }, segment));
    }
    plan.push((Role::Probe, probe));
    if args.trace {
        let traced = measured(args, 1, true);
        plan.extend(traced.into_iter().map(|p| (Role::Main { traced: true }, p)));
    }
    let phases: Vec<Phase> = plan.iter().map(|(_, p)| p.clone()).collect();
    let payloads = Payloads {
        clips: &inputs.clips,
        order: &inputs.order,
        chip: &inputs.chip,
        stride: STRIDE as u32,
    };
    let outcome = loadgen::drive(
        server.addr(),
        &phases,
        &payloads,
        &|kind, resp| reference.check(kind, resp),
        &mut |i| {
            if plan[i].0 == Role::Probe {
                for _ in 0..SETUPS_PER_GAP {
                    let (s, secs, ok) = set_up()?;
                    s.shutdown();
                    setups.push((secs, ok));
                }
            }
            Ok(())
        },
    )?;

    let role_of = |d: &Done| plan[d.req.phase].0;
    let in_role = |role: Role| outcome.done.iter().filter(move |d| role_of(d) == role);
    let untraced = Role::Main { traced: false };

    let sent = outcome.done.len() + outcome.missing;
    let mut tally = Tally::of(sent, &outcome.done);
    // The set-up replies are checked requests too.
    let setup_bad = setups.iter().filter(|(_, ok)| !ok).count();
    tally.sent += setups.len();
    tally.ok += setups.len() - setup_bad;
    tally.mismatched += setup_bad;
    let failed = tally.failed() + outcome.strays;
    let correct = tally.mismatched == 0 && tally.missing() == 0 && outcome.strays == 0;

    let clip_ms = |role: Role| latencies_ms(in_role(role), |d| matches!(d.req.kind, Kind::Clip(_)));
    let clips = stats::sorted(clip_ms(untraced));
    let scans = latencies_ms(in_role(Role::Probe), |d| d.req.kind == Kind::Scan);
    // Verified replies over the segments' wall time, each up to its
    // last reply.
    let clips_per_s = {
        let (mut ok, mut busy_ns) = (0usize, 0u64);
        for (i, _) in plan.iter().enumerate().filter(|(_, (r, _))| *r == untraced) {
            let t0 = outcome.phase_start_ns[i];
            let recv: Vec<u64> = outcome
                .done
                .iter()
                .filter(|d| d.req.phase == i && matches!(d.req.kind, Kind::Clip(_)))
                .filter(|d| d.verdict == Verdict::Ok)
                .map(|d| d.recv_ns)
                .collect();
            ok += recv.len();
            busy_ns += recv.iter().max().map_or(0, |&t| t - t0);
        }
        ok as f64 / (busy_ns as f64 / 1e9).max(f64::MIN_POSITIVE)
    };

    let fp = Fingerprint::machine(reference.model().plan((SIDE, SIDE)).gemm_tier())
        .with("workload", args.workload)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", u8::from(args.trace))
        .with("cascade_threshold", inputs.threshold)
        .with("paced_rate_per_s", PACED_RATE)
        .with("saturated_window", SATURATED_WINDOW)
        .with("segments", SEGMENTS)
        .with("probe_scans", PROBE_SCANS_PER_GAP * (SEGMENTS + 1))
        .with("setups", setups.len())
        .with("workers", workers)
        .with("pool_clips", POOL)
        .with("chip_px", CHIP_CELLS * SIDE)
        .with("chip_draws", inputs.chip_draws)
        .with("chip_confirm_miss", inputs.chip_miss)
        .with("stride", STRIDE);

    let setup_s: Vec<f64> = setups.iter().map(|(s, _)| *s).collect();
    let metrics = if !args.trace {
        vec![
            metric("setup_s", stats::median(&setup_s), "s"),
            metric("clip_p50_ms", pct(&clips, 0.5, "clip_p50_ms"), "ms"),
            metric("clip_p99_ms", pct(&clips, 0.99, "clip_p99_ms"), "ms"),
            metric("clips_per_s", clips_per_s, "1/s"),
            // The mean, not the median: the two vCPUs of the recording
            // machine run a scan in ~140 or ~235 ms, and the share on
            // each moves between runs.  ODST sums evaluation times, so
            // the mean is also the figure its N·t_ev term needs.
            metric("scan_mean_ms", stats::mean(&scans), "ms"),
        ]
    } else {
        let traced = Role::Main { traced: true };
        let mut log = SpanLog::default();
        let records = server.flight().snapshot();
        let traced_done: Vec<&Done> = outcome
            .done
            .iter()
            .filter(|d| d.req.trace_id != 0)
            .collect();
        let roots: Vec<usize> = traced_done
            .iter()
            .map(|d| {
                let name = if d.req.kind == Kind::Scan {
                    "client.scan"
                } else {
                    "client.classify"
                };
                log.push(
                    name,
                    d.req.trace_id,
                    None,
                    d.req.sent_ns,
                    d.recv_ns - d.req.sent_ns,
                )
            })
            .collect();
        let joined = log.join_flight(&roots, &records);
        let by_trace: HashMap<u64, &RequestRecord> =
            records.iter().map(|r| (r.trace_id, r)).collect();
        let with_record = |role: Role, want_scan: bool| -> Vec<(&Done, &RequestRecord)> {
            traced_done
                .iter()
                .filter(|d| role_of(d) == role && (d.req.kind == Kind::Scan) == want_scan)
                .filter_map(|d| by_trace.get(&d.req.trace_id).map(|r| (*d, *r)))
                .collect()
        };
        let clip_recs = with_record(traced, false);
        let scan_recs = with_record(Role::Probe, true);
        eprintln!(
            "traced: {} client spans, {joined} joined to flight records",
            roots.len()
        );

        let lag: Vec<f64> = stats::sorted(
            in_role(untraced)
                .map(|d| (d.req.sent_ns - d.req.due_ns) as f64 / 1e6)
                .collect(),
        );
        let traced_clips = stats::sorted(clip_ms(traced));
        let overhead = (pct(&traced_clips, 0.5, "traced clip p50") / pct(&clips, 0.5, "clip p50")
            - 1.0)
            * 100.0;
        let mut m = flight_metrics(&clip_recs, &scan_recs);
        m.extend(layers::measure(reference.model(), &inputs, &mut log));
        m.push(metric(
            "loadgen.lag_p99_ms",
            pct(&lag, 0.99, "loadgen.lag_p99_ms"),
            "ms",
        ));
        m.push(metric("loadgen.sent", tally.sent as f64, "count"));
        m.push(metric("loadgen.failed", failed as f64, "count"));
        m.push(metric(
            "loadgen.mismatched",
            (tally.mismatched + outcome.strays) as f64,
            "count",
        ));
        m.push(metric("trace.overhead_pct", overhead, "%"));
        let path =
            report::out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::create_dir_all(report::out_dir())?;
        std::fs::write(&path, log.to_jsonl())?;
        println!("self time per layer (span dump: {}):", path.display());
        for t in log.summary() {
            println!(
                "  {:<28} n={:<6} p50 {:>10.1} us  total {:>10.1} ms",
                t.name,
                t.count,
                t.p50_ns / 1e3,
                t.total_ns as f64 / 1e6
            );
        }
        m
    };
    server.shutdown();

    for m in &metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "requests {}: ok {}, errors {}, mismatched {}, missing {}, stray {}; fail_ratio {}",
        tally.sent,
        tally.ok,
        tally.errors,
        tally.mismatched,
        tally.missing(),
        outcome.strays,
        failed as f64 / tally.sent as f64
    );
    println!("samples: {} clips, {} scans", clips.len(), scans.len());
    println!("fingerprint {}", fp.to_json());
    let result = report::out_dir().join(format!(
        "result-{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(report::out_dir())?;
    std::fs::write(&result, report::render_result(&fp, &metrics))?;
    if !correct {
        eprintln!("perfbench: replies disagreed with the reference or went missing");
    }
    println!(
        "{}",
        report::result_line(correct, tally.sent, failed, &metrics)
    );
    Ok(if correct { 0 } else { 1 })
}

/// Latencies in ms of the matching, verified requests, in reply order:
/// from the due time, so open-loop stalls count against later requests.
fn latencies_ms<'a>(
    done: impl Iterator<Item = &'a Done>,
    keep: impl Fn(&Done) -> bool,
) -> Vec<f64> {
    done.filter(|d| d.verdict == Verdict::Ok && keep(d))
        .map(|d| (d.recv_ns - d.req.due_ns) as f64 / 1e6)
        .collect()
}

/// Quantile `q` of sorted `v`; warns when the sample does not support
/// it (fewer than ten samples beyond), and reads 0 for no samples.
fn pct(v: &[f64], q: f64, what: &str) -> f64 {
    if !stats::supported(v.len(), q) {
        eprintln!(
            "warning: {what}: {} samples do not support quantile {q}",
            v.len()
        );
    }
    if v.is_empty() {
        0.0
    } else {
        stats::quantile(v, q)
    }
}

/// `serve.*` and `scan.*` metrics from the flight records of traced
/// requests.
fn flight_metrics(
    clips: &[(&Done, &RequestRecord)],
    scans: &[(&Done, &RequestRecord)],
) -> Vec<Metric> {
    let stage = |recs: &[(&Done, &RequestRecord)], s: Stage, scale: f64| -> Vec<f64> {
        stats::sorted(
            recs.iter()
                .map(|(_, r)| r.stage_ns[s as usize] as f64 / scale)
                .collect(),
        )
    };
    let (us, ms) = (1e3, 1e6);
    let p = |v: Vec<f64>, q: f64, name: &str| pct(&v, q, name);
    let n = clips.len().max(1) as f64;
    let share =
        |f: &dyn Fn(&RequestRecord) -> bool| clips.iter().filter(|(_, r)| f(r)).count() as f64 / n;
    // Each batch of b requests leaves b records, so Σ 1/b counts batches.
    let batches: f64 = clips
        .iter()
        .filter(|(_, r)| r.batch_size > 0)
        .map(|(_, r)| 1.0 / f64::from(r.batch_size))
        .sum();
    let multi: f64 = clips
        .iter()
        .filter(|(_, r)| r.batch_size > 1)
        .map(|(_, r)| 1.0 / f64::from(r.batch_size))
        .sum();
    let served = clips.iter().filter(|(_, r)| r.batch_size > 0).count() as f64;
    let wire: Vec<f64> = stats::sorted(
        clips
            .iter()
            .map(|(d, r)| ((d.recv_ns - d.req.sent_ns) as f64 - r.total_ns() as f64) / us)
            .collect(),
    );
    vec![
        metric(
            "serve.admission_us.p50",
            p(stage(clips, Stage::Admission, us), 0.5, "admission"),
            "us",
        ),
        metric(
            "serve.batch_us.p50",
            p(stage(clips, Stage::Batch, us), 0.5, "batch"),
            "us",
        ),
        metric(
            "serve.dispatch_us.p50",
            p(stage(clips, Stage::Dispatch, us), 0.5, "dispatch"),
            "us",
        ),
        metric(
            "serve.reply_us.p50",
            p(stage(clips, Stage::Reply, us), 0.5, "reply"),
            "us",
        ),
        metric(
            "serve.queue_wait_ms.p50",
            p(stage(clips, Stage::QueueWait, ms), 0.5, "queue_wait"),
            "ms",
        ),
        metric(
            "serve.queue_wait_ms.p99",
            p(stage(clips, Stage::QueueWait, ms), 0.99, "queue_wait"),
            "ms",
        ),
        metric(
            "serve.inference_ms.p50",
            p(stage(clips, Stage::Inference, ms), 0.5, "inference"),
            "ms",
        ),
        metric(
            "serve.inference_ms.p99",
            p(stage(clips, Stage::Inference, ms), 0.99, "inference"),
            "ms",
        ),
        metric(
            "serve.batch_size.mean",
            served / batches.max(f64::MIN_POSITIVE),
            "count",
        ),
        metric(
            "serve.batch_ge2_share",
            multi / batches.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric("serve.escalated_share", share(&|r| r.escalated), "ratio"),
        metric("serve.degraded_share", share(&|r| r.degraded), "ratio"),
        metric(
            "serve.shed_share",
            share(&|r| r.outcome == FlightOutcome::Shed),
            "ratio",
        ),
        metric(
            "serve.deadline_miss_share",
            share(&|r| r.outcome == FlightOutcome::Deadline),
            "ratio",
        ),
        metric("serve.wire_us.p50", p(wire, 0.5, "wire"), "us"),
        metric(
            "scan.queue_wait_ms.p50",
            p(stage(scans, Stage::QueueWait, ms), 0.5, "scan queue_wait"),
            "ms",
        ),
        metric(
            "scan.inference_ms.p50",
            p(stage(scans, Stage::Inference, ms), 0.5, "scan inference"),
            "ms",
        ),
    ]
}
