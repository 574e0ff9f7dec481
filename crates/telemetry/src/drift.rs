//! Prediction-distribution drift monitoring (ROADMAP item 5's
//! continuous-learning trigger).
//!
//! A [`DriftMonitor`] watches two signals per classified clip: the
//! prediction margin (how far from the decision boundary the model
//! landed) and whether the cascade escalated the clip from M=1 triage
//! to full confirmation.  At model load — and again after every
//! successful hot-swap, via [`rebaseline`](DriftMonitor::rebaseline) —
//! it *collects* the first `baseline_samples` observations into a
//! frozen baseline histogram.  After that it *monitors*: live
//! observations land in a [`WindowedHistogram`], and the windowed
//! distribution is compared against the baseline by total-variation
//! distance, plus the absolute shift in escalation rate.  When either
//! crosses its threshold the monitor emits one typed `drift.detected`
//! event (latched — no event storm; [`rebaseline`] re-arms it) and
//! keeps a divergence gauge current for the scrape.
//!
//! The clock is injected, so the deterministic test drives the whole
//! collect → monitor → detect cycle with a
//! [`MockClock`](crate::clock::MockClock).

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::Gauge;
use crate::trace;
use crate::window::WindowedHistogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning knobs for [`DriftMonitor`].
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Margin-histogram bucket bounds (strictly increasing, +∞
    /// implied).  Margins are observed as `|margin|` — drift toward
    /// the decision boundary and drift away from it both move mass
    /// between buckets.
    pub margin_bounds: Vec<f64>,
    /// Observations collected before the baseline freezes.
    pub baseline_samples: u64,
    /// Minimum live observations inside the window before any
    /// comparison runs (avoids declaring drift off a handful of clips).
    pub min_window_samples: u64,
    /// Total-variation distance (in `[0, 1]`) between the baseline and
    /// windowed margin distributions that counts as drift.
    pub margin_tvd_threshold: f64,
    /// Absolute escalation-rate shift (in `[0, 1]`) that counts as
    /// drift.
    pub escalation_delta_threshold: f64,
    /// Number of window slices and their duration (see
    /// [`WindowedHistogram`]).
    pub window_slices: usize,
    pub slice_ns: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            // |margin| buckets: near-boundary, uncertain, comfortable,
            // confident; a shifted workload moves mass across these.
            margin_bounds: vec![0.05, 0.1, 0.2, 0.4, 0.8, 1.6],
            baseline_samples: 256,
            min_window_samples: 64,
            margin_tvd_threshold: 0.25,
            escalation_delta_threshold: 0.20,
            window_slices: 6,
            slice_ns: 10_000_000_000, // 6 × 10 s = 1 min window
        }
    }
}

/// The frozen reference distribution captured at model load/swap.
#[derive(Debug, Clone)]
struct Baseline {
    counts: Vec<u64>,
    total: u64,
    escalated: u64,
}

impl Baseline {
    fn escalation_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.escalated as f64 / self.total as f64
        }
    }
}

/// A point-in-time divergence measurement (also the payload of the
/// `drift.detected` event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Total-variation distance between baseline and windowed margin
    /// distributions, in `[0, 1]`.
    pub margin_tvd: f64,
    /// `|windowed escalation rate − baseline escalation rate|`.
    pub escalation_delta: f64,
    /// Observations backing the baseline side.
    pub baseline_samples: u64,
    /// Observations backing the windowed side.
    pub window_samples: u64,
}

impl DriftReport {
    /// The single scalar exported on the gauge: the worse of the two
    /// normalized divergence signals.
    pub fn divergence(&self) -> f64 {
        self.margin_tvd.max(self.escalation_delta)
    }
}

/// Watches margin / escalation distributions for shift against a
/// baseline (see module docs).  Thread-safe; one per [`ModelSlot`]
/// generation lineage, re-armed on swap via [`rebaseline`].
///
/// [`ModelSlot`]: ../../hotspot_bnn/struct.ModelSlot.html
/// [`rebaseline`]: Self::rebaseline
pub struct DriftMonitor {
    cfg: DriftConfig,
    clock: Arc<dyn Clock>,
    /// `None` while collecting, `Some` once frozen.
    baseline: Mutex<Option<Baseline>>,
    /// Accumulates toward the baseline during the collect phase.
    collecting: Mutex<Baseline>,
    live_margins: WindowedHistogram,
    /// Escalations only; windowed rate = this count / live total.
    live_escalations: WindowedHistogram,
    latched: AtomicBool,
    divergence_gauge: Mutex<Option<Gauge>>,
    /// Preallocated bucket accumulator so [`compare`](Self::compare)
    /// stays allocation-free on the per-request path.
    scratch: Mutex<Vec<u64>>,
}

impl DriftMonitor {
    /// A monitor on the real monotonic clock.
    pub fn new(cfg: DriftConfig) -> Self {
        Self::with_clock(cfg, Arc::new(MonotonicClock))
    }

    /// As [`new`](Self::new), with an explicit clock (tests).
    ///
    /// # Panics
    ///
    /// Panics when the config's bounds/window parameters are invalid
    /// (propagated from [`WindowedHistogram`]).
    pub fn with_clock(cfg: DriftConfig, clock: Arc<dyn Clock>) -> Self {
        assert!(cfg.baseline_samples > 0, "baseline needs samples");
        let live_margins = WindowedHistogram::with_clock(
            cfg.window_slices,
            cfg.slice_ns,
            &cfg.margin_bounds,
            clock.clone(),
        );
        let live_escalations =
            WindowedHistogram::with_clock(cfg.window_slices, cfg.slice_ns, &[1.0], clock.clone());
        let n_buckets = cfg.margin_bounds.len() + 1;
        DriftMonitor {
            cfg,
            clock,
            baseline: Mutex::new(None),
            collecting: Mutex::new(Baseline {
                counts: vec![0; n_buckets],
                total: 0,
                escalated: 0,
            }),
            live_margins,
            live_escalations,
            latched: AtomicBool::new(false),
            divergence_gauge: Mutex::new(None),
            scratch: Mutex::new(vec![0; n_buckets]),
        }
    }

    /// Binds the gauge kept current with [`DriftReport::divergence`] on
    /// every comparison (typically
    /// `registry.gauge("serve_drift_divergence")`).
    pub fn bind_gauge(&self, gauge: Gauge) {
        *self.lock_gauge() = Some(gauge);
    }

    fn lock_gauge(&self) -> std::sync::MutexGuard<'_, Option<Gauge>> {
        self.divergence_gauge
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Whether the baseline is still being collected.
    pub fn is_collecting(&self) -> bool {
        self.baseline
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_none()
    }

    /// Whether a `drift.detected` event has fired since the last
    /// (re)baseline.
    pub fn is_latched(&self) -> bool {
        self.latched.load(Ordering::Acquire)
    }

    fn bucket(&self, abs_margin: f64) -> usize {
        self.cfg
            .margin_bounds
            .iter()
            .position(|&b| abs_margin <= b)
            .unwrap_or(self.cfg.margin_bounds.len())
    }

    /// Feeds one classified clip: the raw prediction margin and whether
    /// the cascade escalated it.  During the collect phase this builds
    /// the baseline; afterwards it feeds the window and runs the
    /// comparison.  Returns the report when this observation crossed a
    /// threshold *for the first time* since (re)baseline — the caller
    /// doesn't need to do anything with it (the event and gauge are
    /// already handled), but tests and operators may want the numbers.
    pub fn observe(&self, margin: f64, escalated: bool) -> Option<DriftReport> {
        if !margin.is_finite() {
            return None;
        }
        let abs = margin.abs();
        {
            let mut baseline = self.baseline.lock().unwrap_or_else(|p| p.into_inner());
            if baseline.is_none() {
                let mut coll = self.collecting.lock().unwrap_or_else(|p| p.into_inner());
                let idx = self.bucket(abs);
                coll.counts[idx] += 1;
                coll.total += 1;
                if escalated {
                    coll.escalated += 1;
                }
                if coll.total >= self.cfg.baseline_samples {
                    *baseline = Some(coll.clone());
                }
                return None;
            }
        }
        self.live_margins.observe(abs);
        if escalated {
            self.live_escalations.observe(1.0);
        }
        self.compare()
    }

    /// Current divergence vs the baseline, or `None` while collecting
    /// or under `min_window_samples`.  Side effects: keeps the bound
    /// gauge current, and fires the latched `drift.detected` event on
    /// first threshold crossing.
    pub fn compare(&self) -> Option<DriftReport> {
        let mut scratch = self.scratch.lock().unwrap_or_else(|p| p.into_inner());
        scratch.iter_mut().for_each(|c| *c = 0);
        let live_count = self.live_margins.accumulate_counts(&mut scratch);
        if live_count < self.cfg.min_window_samples {
            return None;
        }
        let (tvd, base_rate, base_total) = {
            let guard = self.baseline.lock().unwrap_or_else(|p| p.into_inner());
            let baseline = guard.as_ref()?;
            let mut tvd = 0.0;
            for (&b, &l) in baseline.counts.iter().zip(scratch.iter()) {
                let p = b as f64 / baseline.total as f64;
                let q = l as f64 / live_count as f64;
                tvd += (p - q).abs();
            }
            (tvd * 0.5, baseline.escalation_rate(), baseline.total)
        };
        drop(scratch);
        let live_rate = self.live_escalations.count() as f64 / live_count as f64;
        let report = DriftReport {
            margin_tvd: tvd,
            escalation_delta: (live_rate - base_rate).abs(),
            baseline_samples: base_total,
            window_samples: live_count,
        };
        if let Some(gauge) = self.lock_gauge().as_ref() {
            gauge.set(report.divergence());
        }
        let crossed = report.margin_tvd > self.cfg.margin_tvd_threshold
            || report.escalation_delta > self.cfg.escalation_delta_threshold;
        if crossed
            && self
                .latched
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            trace::dispatch_event(
                "drift.detected",
                &[
                    ("margin_tvd", report.margin_tvd.into()),
                    ("escalation_delta", report.escalation_delta.into()),
                    ("divergence", report.divergence().into()),
                    ("baseline_samples", report.baseline_samples.into()),
                    ("window_samples", report.window_samples.into()),
                    ("at_ns", self.clock.now_ns().into()),
                ],
            );
            return Some(report);
        }
        None
    }

    /// Forgets the baseline and re-enters the collect phase — called
    /// after a successful model hot-swap so the new model's
    /// distribution becomes the reference, and the drift latch re-arms.
    pub fn rebaseline(&self) {
        let mut baseline = self.baseline.lock().unwrap_or_else(|p| p.into_inner());
        let mut coll = self.collecting.lock().unwrap_or_else(|p| p.into_inner());
        *baseline = None;
        coll.counts.iter_mut().for_each(|c| *c = 0);
        coll.total = 0;
        coll.escalated = 0;
        self.latched.store(false, Ordering::Release);
        if let Some(gauge) = self.lock_gauge().as_ref() {
            gauge.set(0.0);
        }
    }
}

impl std::fmt::Debug for DriftMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftMonitor")
            .field("collecting", &self.is_collecting())
            .field("latched", &self.is_latched())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use crate::metrics::MetricsRegistry;
    use crate::subscribers::CollectingSubscriber;

    fn cfg() -> DriftConfig {
        DriftConfig {
            baseline_samples: 100,
            min_window_samples: 50,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn collect_phase_emits_nothing() {
        let clock = Arc::new(MockClock::new());
        let m = DriftMonitor::with_clock(cfg(), clock);
        for _ in 0..99 {
            assert_eq!(m.observe(0.5, false), None);
            assert!(m.is_collecting());
        }
        m.observe(0.5, false);
        assert!(!m.is_collecting(), "baseline froze at baseline_samples");
    }

    #[test]
    fn matching_distribution_stays_quiet() {
        let clock = Arc::new(MockClock::new());
        let m = DriftMonitor::with_clock(cfg(), clock);
        for _ in 0..100 {
            m.observe(0.5, false); // baseline: everything comfortable
        }
        for _ in 0..200 {
            assert_eq!(m.observe(0.5, false), None);
        }
        assert!(!m.is_latched());
        let report = {
            // compare() without a crossing returns None; inspect via a
            // bound gauge instead.
            let reg = MetricsRegistry::new();
            let g = reg.gauge("divergence");
            m.bind_gauge(g.clone());
            m.compare();
            g.get()
        };
        assert!(report < 0.05, "near-zero divergence, got {report}");
    }

    #[test]
    fn shifted_margins_emit_exactly_one_event() {
        let clock = Arc::new(MockClock::new());
        let sink = Arc::new(CollectingSubscriber::new());
        // Thread-scoped: sibling tests emit `drift.detected` on their
        // own threads, which must not land in this sink.
        let _scope = trace::set_thread_subscriber(sink.clone());

        let m = DriftMonitor::with_clock(cfg(), clock);
        for _ in 0..100 {
            m.observe(1.0, false); // baseline: confident margins
        }
        // Live workload collapses onto the decision boundary: maximal
        // bucket shift, TVD → 1.  Keep feeding well past the crossing —
        // the latch must hold the event count at one.
        let mut reports = 0;
        for _ in 0..300 {
            if m.observe(0.01, false).is_some() {
                reports += 1;
            }
        }
        assert_eq!(reports, 1, "observe() surfaced the crossing once");
        assert!(m.is_latched());
        let events = sink
            .records()
            .into_iter()
            .filter(|r| matches!(r, crate::subscribers::Record::Event { name, .. } if name == "drift.detected"))
            .count();
        assert_eq!(events, 1, "exactly one drift.detected event");
    }

    #[test]
    fn escalation_rate_shift_alone_triggers() {
        let clock = Arc::new(MockClock::new());
        let m = DriftMonitor::with_clock(cfg(), clock);
        for _ in 0..100 {
            m.observe(0.5, false); // baseline: no escalations
        }
        // Same margins, but now every clip escalates: margin TVD ≈ 0,
        // escalation delta = 1.
        let mut crossed = None;
        for _ in 0..60 {
            if let Some(r) = m.observe(0.5, true) {
                crossed = Some(r);
            }
        }
        let r = crossed.expect("escalation-rate shift detected");
        assert!(r.margin_tvd < 0.05, "margins did not drift: {r:?}");
        assert!(r.escalation_delta > 0.9, "rate shifted fully: {r:?}");
    }

    #[test]
    fn rebaseline_rearms_and_recollects() {
        let clock = Arc::new(MockClock::new());
        let m = DriftMonitor::with_clock(cfg(), clock.clone());
        for _ in 0..100 {
            m.observe(1.0, false);
        }
        for _ in 0..60 {
            m.observe(0.01, false);
        }
        assert!(m.is_latched());

        m.rebaseline();
        assert!(m.is_collecting());
        assert!(!m.is_latched());
        // New baseline = the shifted workload; same workload after the
        // swap means no drift.  Let the old window expire first so the
        // pre-swap live samples don't pollute the comparison.
        clock.advance(7 * 10_000_000_000);
        for _ in 0..100 {
            m.observe(0.01, false);
        }
        for _ in 0..60 {
            assert_eq!(m.observe(0.01, false), None);
        }
        assert!(!m.is_latched(), "post-swap workload matches new baseline");
    }

    #[test]
    fn gauge_tracks_divergence() {
        let clock = Arc::new(MockClock::new());
        let reg = MetricsRegistry::new();
        let gauge = reg.gauge("serve_drift_divergence");
        let m = DriftMonitor::with_clock(cfg(), clock);
        m.bind_gauge(gauge.clone());
        for _ in 0..100 {
            m.observe(1.0, false);
        }
        for _ in 0..60 {
            m.observe(0.01, false);
        }
        assert!(gauge.get() > 0.9, "gauge shows divergence: {}", gauge.get());
        m.rebaseline();
        assert_eq!(gauge.get(), 0.0, "rebaseline clears the gauge");
    }

    #[test]
    fn non_finite_margins_ignored() {
        let clock = Arc::new(MockClock::new());
        let m = DriftMonitor::with_clock(cfg(), clock);
        assert_eq!(m.observe(f64::NAN, true), None);
        assert!(m.is_collecting());
    }
}
