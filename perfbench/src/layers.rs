//! In-process timings of the `hotspot-bnn` calls the server makes —
//! plan compiles, batched runs at n = 1 and 16, the slot profiler's
//! per-layer split, and the full-chip scanner — each call recorded as a
//! root span.  Run with the server idle, on the workload's own inputs.

use crate::inputs::{scan_config, Inputs, SIDE};
use crate::report::{metric, Metric};
use crate::spans::SpanLog;
use crate::stats::median;
use hotspot_bnn::{merge_hits, ExecPlan, PackedBnn, Scanner};
use hotspot_telemetry::{Clock, MonotonicClock};
use hotspot_tensor::Workspace;
use std::hint::black_box;

/// Trace-id tag of in-process spans (client spans use another).
const TRACE_TAG: u64 = 0xB4A0 << 48;
/// Clips per batched call; the server's `max_batch`.
const BATCH: usize = 16;
/// Repeats per measurement.
const COMPILES: usize = 20;
const B1_CLIPS: usize = 16;
const B16_REPS: usize = 3;
const SCANNER_NEWS: usize = 10;
const SCANS: usize = 3;
const MERGES: usize = 50;

struct Timer<'l> {
    log: &'l mut SpanLog,
    clock: MonotonicClock,
    calls: u64,
}

impl Timer<'_> {
    /// Runs `f` as a root span named `name`; returns its result and
    /// nanoseconds.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.clock.now_ns();
        let out = black_box(f());
        let dur = self.clock.now_ns() - start;
        self.calls += 1;
        self.log
            .push(name, TRACE_TAG | self.calls, None, start, dur);
        (out, dur as f64)
    }

    /// Median nanoseconds of `reps` calls of `f`.
    fn median_ns<T>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
        let ns: Vec<f64> = (0..reps).map(|_| self.time(name, &mut f).1).collect();
        median(&ns)
    }
}

/// Times every in-process layer call and returns the `plan.*`,
/// `layer.*` and `scan.*` metrics.
pub fn measure(model: &PackedBnn, inputs: &Inputs, log: &mut SpanLog) -> Vec<Metric> {
    let mut t = Timer {
        log,
        clock: MonotonicClock,
        calls: 0,
    };
    let mut out = Vec::new();
    let hw = (SIDE, SIDE);
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;

    let ns = t.median_ns("bnn.plan.compile_triage", COMPILES, || {
        model.plan_capped(hw, 1)
    });
    out.push(metric("plan.compile_triage_us", us(ns), "us"));
    let ns = t.median_ns("bnn.plan.compile_confirm", COMPILES, || model.plan(hw));
    out.push(metric("plan.compile_confirm_us", us(ns), "us"));

    let triage = model.plan_capped(hw, 1);
    let confirm = model.plan(hw);
    let batch: Vec<f32> = inputs.order[..BATCH]
        .iter()
        .flat_map(|&i| inputs.signed[i].iter().copied())
        .collect();
    let mut ws = Workspace::new();
    for (name, plan) in [("triage", &triage), ("confirm", &confirm)] {
        let mut logits = vec![0.0f32; 2 * BATCH];
        // Warm the workspace at both batch sizes before timing.
        plan.run_batch_into(&inputs.signed[0], 1, &mut ws, &mut logits[..2]);
        plan.run_batch_into(&batch, BATCH, &mut ws, &mut logits);
        let b1: Vec<f64> = (0..B1_CLIPS)
            .map(|k| {
                let x = &inputs.signed[inputs.order[k]];
                t.time(&format!("bnn.{name}.b1"), || {
                    plan.run_batch_into(x, 1, &mut ws, &mut logits[..2])
                })
                .1
            })
            .collect();
        out.push(metric(
            format!("plan.{name}_us_per_clip.b1"),
            us(median(&b1)),
            "us",
        ));
        let ns = t.median_ns(&format!("bnn.{name}.b16"), B16_REPS, || {
            plan.run_batch_into(&batch, BATCH, &mut ws, &mut logits)
        });
        out.push(metric(
            format!("plan.{name}_us_per_clip.b16"),
            us(ns) / BATCH as f64,
            "us",
        ));
    }

    let mut layer = |t: &mut Timer<'_>, plan: &ExecPlan<'_>, tag: &str, n: usize, reps: usize| {
        let mut prof = plan.profiler();
        let mut logits = vec![0.0f32; 2 * n];
        for r in 0..reps {
            let x: Vec<f32> = if n == 1 {
                inputs.signed[inputs.order[r % inputs.order.len()]].clone()
            } else {
                batch.clone()
            };
            t.time(&format!("bnn.profiled.{tag}"), || {
                plan.run_batch_into_profiled(&x, n, &mut ws, &mut logits, &mut prof)
            });
        }
        for slot in prof.report() {
            let per_clip = slot.total_ns as f64 / (reps * n) as f64;
            out.push(metric(
                format!("layer.{}.{tag}_us", slot.name),
                us(per_clip),
                "us",
            ));
        }
    };
    layer(&mut t, &triage, "triage_b1", 1, B1_CLIPS);
    layer(&mut t, &triage, "triage_b16", BATCH, B16_REPS);
    layer(&mut t, &confirm, "confirm_b16", BATCH, B16_REPS);
    drop((triage, confirm));

    let config = scan_config(inputs.threshold, false);
    let ns = t.median_ns("bnn.scan.new", SCANNER_NEWS, || {
        Scanner::new(model, SIDE, config)
    });
    out.push(metric("scan.new_ms", ms(ns), "ms"));
    let scanner = Scanner::new(model, SIDE, config);
    let report = scanner.scan(&inputs.chip, &mut ws);
    let scan_ns = t.median_ns("bnn.scan.run", SCANS, || {
        scanner.scan(&inputs.chip, &mut ws)
    });
    out.push(metric("scan.run_ms", ms(scan_ns), "ms"));
    let (_, naive_ns) = t.time("bnn.scan.naive", || {
        scanner.scan_naive(&inputs.chip, &mut ws)
    });
    out.push(metric("scan.reuse_speedup", naive_ns / scan_ns, "x"));
    let (w, h) = report.chip;
    let ns = t.median_ns("bnn.scan.merge", MERGES, || {
        merge_hits(&report.verdicts, SIDE, w, h)
    });
    out.push(metric("scan.merge_us", us(ns), "us"));
    let share = |k: usize| k as f64 / report.windows as f64;
    out.push(metric("scan.reused_share", share(report.reused), "ratio"));
    out.push(metric(
        "scan.fallback_share",
        share(report.fallback),
        "ratio",
    ));
    out.push(metric(
        "scan.dedup_hit_share",
        share(report.dedup_hits),
        "ratio",
    ));
    out.push(metric(
        "scan.escalated_share",
        share(report.escalated),
        "ratio",
    ));
    out
}
