//! The triage → confirm cascade, compiled once and run from one place.
//!
//! A [`Cascade`] holds one model's two compiled plans for one clip side
//! and kernel backend: the M = 1 triage plan and the full-M confirm
//! plan (DESIGN.md §5g).  [`Cascade::run`] is the only place the
//! escalation policy lives; the server's batches and scans, `Scanner`
//! and the detector all call it.  The plans own what they run, so a
//! cascade outlives its model: a service compiles it at load or swap
//! time and publishes it through [`ModelSlot`](crate::ModelSlot), and
//! nothing on a request path compiles.  Threshold 0 never escalates
//! (`|m| < 0` never holds), which is how triage-only callers run it.
//!
//! # Example
//!
//! ```
//! use hotspot_bnn::{BnnResNet, Cascade, NetConfig, PackedBnn};
//! use hotspot_tensor::Workspace;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = BnnResNet::new(&NetConfig::tiny(16).with_levels(2), &mut rng);
//! let cascade = Cascade::new(&PackedBnn::compile(&net), 16);
//! let input = vec![1.0f32; 3 * 16 * 16]; // three ±1 clips
//! let mut scored = [(0.0f32, false); 3];
//! cascade.run(&input, 0.5, &mut Workspace::new(), &mut scored, None);
//! assert!(scored.iter().all(|(m, escalated)| *escalated || m.abs() >= 0.5));
//! ```

use crate::kernels::{active_backend, KernelBackend};
use crate::packed::PackedBnn;
use crate::plan::ExecPlan;
use hotspot_telemetry::SlotProfiler;
use hotspot_tensor::workspace::Workspace;

/// A model's triage and confirm plans for one clip side and backend
/// (see module docs).
#[derive(Debug)]
pub struct Cascade {
    side: usize,
    /// The whole net at M = 1: scores every clip.
    triage: ExecPlan<'static>,
    /// The whole net at full M: re-scores the escalated clips.
    confirm: ExecPlan<'static>,
    arch_fingerprint: u32,
    levels: usize,
}

/// Per-layer timings of a cascade's two plans, filled by a profiled
/// [`Cascade::run`].
#[derive(Debug)]
pub struct CascadeProfile {
    /// Every triage step, one record per run chunk.
    pub triage: SlotProfiler,
    /// Every confirm step; untouched by runs that escalate nothing.
    pub confirm: SlotProfiler,
}

impl Cascade {
    /// Compiles both plans of `model` for `side × side` clips on the
    /// process-wide kernel backend.
    ///
    /// # Panics
    ///
    /// Panics when the model is not single-channel or has other than
    /// two classes, or `side` is zero.
    pub fn new(model: &PackedBnn, side: usize) -> Self {
        Cascade::with_backend(model, side, active_backend())
    }

    /// [`Cascade::new`] pinned to an explicit kernel backend (all
    /// backends are bit-identical; used by equivalence tests).
    pub fn with_backend(model: &PackedBnn, side: usize, backend: KernelBackend) -> Self {
        assert!(side > 0, "clip side must be positive");
        assert_eq!(
            model.stem().in_channels(),
            1,
            "the cascade scores single-channel layout clips"
        );
        assert_eq!(
            model.fc_weight().shape()[0],
            2,
            "the cascade expects binary logits"
        );
        let hw = (side, side);
        Cascade {
            side,
            triage: ExecPlan::compile_capped(model, hw, backend, 1),
            confirm: ExecPlan::compile_capped(model, hw, backend, usize::MAX),
            arch_fingerprint: model.arch_fingerprint(),
            levels: model.levels(),
        }
    }

    /// The clip side both plans were compiled for.
    pub fn side(&self) -> usize {
        self.side
    }

    /// The source model's residual level count `M`; an M = 1 model
    /// never escalates.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The source model's [`PackedBnn::arch_fingerprint`].
    pub fn arch_fingerprint(&self) -> u32 {
        self.arch_fingerprint
    }

    /// The full-M confirm plan (the model's plain packed forward).
    pub fn confirm(&self) -> &ExecPlan<'static> {
        &self.confirm
    }

    /// Empty profilers shaped for both plans, for a profiled
    /// [`run`](Cascade::run).
    pub fn profiler(&self) -> CascadeProfile {
        CascadeProfile {
            triage: self.triage.profiler(),
            confirm: self.confirm.profiler(),
        }
    }

    /// Scores `out.len()` clips: `input` holds them as `[n, side, side]`
    /// ±1 values, and `out[i]` receives clip `i`'s logit margin
    /// (hotspot − non-hotspot) and whether it escalated.  Every clip
    /// runs the triage plan; an M > 1 model's clips with `|margin| <
    /// threshold` are gathered into one batch, re-scored by the confirm
    /// plan, and take its margin.  With `prof`, both passes time every
    /// layer into it; the math is unchanged.  The logits and the
    /// confirm batch come from `ws` (the flags in `out` say which clips
    /// go), so a warm run allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when `input.len() != out.len() · side²`.
    pub fn run(
        &self,
        input: &[f32],
        threshold: f32,
        ws: &mut Workspace,
        out: &mut [(f32, bool)],
        mut prof: Option<&mut CascadeProfile>,
    ) {
        let item = self.side * self.side;
        let n = out.len();
        assert_eq!(input.len(), n * item, "input length mismatch");
        let mut logits = ws.take_f32(2 * n);
        let triage_prof = prof.as_deref_mut().map(|p| &mut p.triage);
        self.triage.run_with(input, n, ws, &mut logits, triage_prof);
        let mut flagged = 0;
        for (o, l) in out.iter_mut().zip(logits.chunks(2)) {
            let margin = l[1] - l[0];
            let escalated = self.levels > 1 && margin.abs() < threshold;
            flagged += usize::from(escalated);
            *o = (margin, escalated);
        }
        if flagged > 0 {
            let mut batch = ws.take_f32(flagged * item);
            let picked = input.chunks(item).zip(out.iter()).filter(|(_, o)| o.1);
            for (dst, (src, _)) in batch.chunks_mut(item).zip(picked) {
                dst.copy_from_slice(src);
            }
            let prof = prof.map(|p| &mut p.confirm);
            let logits = &mut logits[..2 * flagged];
            self.confirm.run_with(&batch, flagged, ws, logits, prof);
            for (o, l) in out.iter_mut().filter(|o| o.1).zip(logits.chunks(2)) {
                o.0 = l[1] - l[0];
            }
            ws.give_f32(batch);
        }
        ws.give_f32(logits);
    }
}
