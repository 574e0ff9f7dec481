//! An explicit, pre-compiled execution plan for packed inference.
//!
//! [`PackedBnn::forward`] walks the network structurally, deciding
//! shapes and buffers as it goes.  An [`ExecPlan`] hoists all of that
//! out of the hot path: [`PackedBnn::plan`] compiles the model, for one
//! input resolution, into a flat sequence of [`Step`]s with every
//! output shape precomputed and activations assigned to three
//! ping-pong buffers (a residual block needs at most three live
//! activations: block input, main path, and the accumulating output).
//! [`ExecPlan::run_into`] then executes the steps with every buffer —
//! activations, packed sign words, popcount scratch, scale maps, the
//! pooled features — drawn from a [`Workspace`], so a warm plan
//! performs **zero heap allocations per forward** (enforced by the
//! `alloc_steady_state` and `alloc_batched` integration tests).
//!
//! There is one engine and one run path.  Every run splits its batch
//! into working-set-sized chunks and every conv step of a chunk runs
//! [`PackedConv::forward_prepped`]: one bit-sliced XNOR-GEMM over every
//! output pixel of all the chunk's clips, border pixels corrected
//! exactly in its epilogue.  A single clip takes the same path as a full batch;
//! [`ExecPlan::run_into`], [`ExecPlan::run_batch_into`] and the
//! profiled and feature-map variants differ only in what they record
//! or return.
//!
//! The plan borrows the model (`ExecPlan<'m>`) and is immutable after
//! compilation, so one plan can be shared by many rayon workers, each
//! running chunks of a batch with its own workspace — this is how
//! `BnnDetector` shards large batches.
//!
//! # Example
//!
//! ```
//! use hotspot_bnn::{BnnResNet, NetConfig, PackedBnn};
//! use hotspot_tensor::Workspace;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = BnnResNet::new(&NetConfig::tiny(16), &mut rng);
//! let packed = PackedBnn::compile(&net);
//! let plan = packed.plan((16, 16));
//! let mut ws = Workspace::new();
//! let input = vec![1.0f32; 2 * 16 * 16]; // two ±1 clips
//! let mut logits = vec![0.0f32; 2 * 2];
//! plan.run_into(&input, 2, &mut ws, &mut logits); // warm-up: allocates
//! plan.run_into(&input, 2, &mut ws, &mut logits); // steady state: no allocs
//! ```

use crate::kernels::{active_backend, KernelBackend};
use crate::packed::{ConvPrep, PackedBnn, PackedConv};
use hotspot_telemetry::{Clock, SlotProfiler};
use hotspot_tensor::workspace::Workspace;
use hotspot_tensor::{global_avg_pool_into, Tensor};
use std::sync::Arc;

/// Where a step reads its activation from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// The caller's input slice (only the stem reads here).
    Input,
    /// One of the three ping-pong activation buffers.
    Buf(usize),
}

/// One layer-execution step of a compiled plan.
#[derive(Debug)]
enum Step<'m> {
    /// Run a packed conv from `src` into buffer `dst` (overwrites it).
    /// `prep` carries the shape-derived state — geometry tables, fused
    /// sign rules, kernel backend — precomputed at plan-compile time.
    /// Boxed so the `Add` variant stays small.
    Conv {
        conv: &'m PackedConv,
        prep: Box<ConvPrep>,
        src: Src,
        dst: usize,
        in_hw: (usize, usize),
        out_elems: usize,
    },
    /// Elementwise `buf[dst] += buf[src]` over `elems` per-item
    /// elements (the residual shortcut merge).
    Add {
        src: usize,
        dst: usize,
        elems: usize,
    },
    /// Copy the caller's input slice into buffer `dst`.  Only emitted
    /// as the first step of a suffix segment (a plan starting at an
    /// interior residual block), where the "input" is a feature map
    /// that the first block may need twice — once for its main path
    /// and once for its shortcut merge.
    CopyInput { dst: usize, elems: usize },
}

/// A [`PackedBnn`] compiled into a flat layer sequence for one input
/// resolution (see module docs).
#[derive(Debug)]
pub struct ExecPlan<'m> {
    model: &'m PackedBnn,
    backend: KernelBackend,
    input_c: usize,
    input_hw: (usize, usize),
    steps: Vec<Step<'m>>,
    /// One profiling-slot name per step (same order as `steps`),
    /// matching [`crate::BnnResNet::summary`] naming: `stem`,
    /// `resN.conv1/.conv2/.shortcut`, plus `resN.add` for the merges.
    step_names: Vec<String>,
    /// Per-item element capacity needed by each ping-pong buffer.
    buf_elems: [usize; 3],
    /// Channels, spatial size, and buffer holding the final feature map.
    feat_c: usize,
    final_hw: (usize, usize),
    final_buf: usize,
}

impl<'m> ExecPlan<'m> {
    pub(crate) fn compile(model: &'m PackedBnn, input_hw: (usize, usize)) -> Self {
        ExecPlan::compile_with_backend(model, input_hw, active_backend())
    }

    /// Compiles with an explicit kernel backend (all backends are
    /// bit-identical; used by equivalence tests and benchmarks).
    pub(crate) fn compile_with_backend(
        model: &'m PackedBnn,
        input_hw: (usize, usize),
        backend: KernelBackend,
    ) -> Self {
        ExecPlan::compile_capped(model, input_hw, backend, usize::MAX)
    }

    /// Compiles with the executed residual level count capped at
    /// `max_levels` (clamped per conv to `1..=M`).  The cascade's
    /// triage stage uses this to run an M-level model in single-bit
    /// mode without recompiling or duplicating it.
    pub(crate) fn compile_capped(
        model: &'m PackedBnn,
        input_hw: (usize, usize),
        backend: KernelBackend,
        max_levels: usize,
    ) -> Self {
        ExecPlan::compile_segment(
            model,
            input_hw,
            backend,
            max_levels,
            0..model.blocks().len(),
        )
    }

    /// Compiles a contiguous *segment* of the model: when
    /// `blocks.start == 0` the segment begins at the stem and reads
    /// ±1 pixels; otherwise it begins at residual block `blocks.start`
    /// and reads the feature map that block expects (the previous
    /// block's output), delivered through the plan's input slice via a
    /// leading [`Step::CopyInput`].  The full-chip scanner uses this to
    /// split the net into a stride-1/2 prefix (run once per band) and a
    /// suffix (run per window on reassembled prefix features).
    ///
    /// # Panics
    ///
    /// Panics when `blocks` is out of range, or empty while starting
    /// past the stem (a plan must execute at least one layer).
    pub(crate) fn compile_segment(
        model: &'m PackedBnn,
        input_hw: (usize, usize),
        backend: KernelBackend,
        max_levels: usize,
        blocks: std::ops::Range<usize>,
    ) -> Self {
        assert!(
            blocks.end <= model.blocks().len(),
            "block range out of range"
        );
        assert!(
            blocks.start == 0 || blocks.start < blocks.end,
            "a suffix segment must contain at least one block"
        );
        let stem = model.stem();
        let mut steps = Vec::new();
        let mut step_names = Vec::new();
        let mut buf_elems = [0usize; 3];

        let (mut h, mut w);
        let mut c;
        let input_c;
        if blocks.start == 0 {
            (h, w) = stem.output_hw(input_hw.0, input_hw.1);
            c = stem.out_channels();
            input_c = stem.in_channels();
            buf_elems[0] = c * h * w;
            steps.push(Step::Conv {
                conv: stem,
                prep: Box::new(stem.prepare_capped(input_hw.0, input_hw.1, backend, max_levels)),
                src: Src::Input,
                dst: 0,
                in_hw: input_hw,
                out_elems: c * h * w,
            });
            step_names.push("stem".to_string());
        } else {
            (h, w) = input_hw;
            c = model.blocks()[blocks.start - 1].out_channels();
            input_c = c;
            buf_elems[0] = c * h * w;
            steps.push(Step::CopyInput {
                dst: 0,
                elems: c * h * w,
            });
            step_names.push("input".to_string());
        }
        let mut cur = 0usize;

        for bi in blocks.clone() {
            let block = &model.blocks()[bi];
            let a = cur;
            // The two buffers not holding the block input: `b` for the
            // mid activation (and later the projection shortcut, which
            // may overwrite it), `d` for the block output.
            let (b, d) = match a {
                0 => (1, 2),
                1 => (2, 0),
                _ => (0, 1),
            };
            let conv1 = block.conv1();
            let (h1, w1) = conv1.output_hw(h, w);
            let e1 = conv1.out_channels() * h1 * w1;
            buf_elems[b] = buf_elems[b].max(e1);
            steps.push(Step::Conv {
                conv: conv1,
                prep: Box::new(conv1.prepare_capped(h, w, backend, max_levels)),
                src: Src::Buf(a),
                dst: b,
                in_hw: (h, w),
                out_elems: e1,
            });
            step_names.push(format!("res{}.conv1", bi + 1));
            let conv2 = block.conv2();
            let (h2, w2) = conv2.output_hw(h1, w1);
            let e2 = conv2.out_channels() * h2 * w2;
            buf_elems[d] = buf_elems[d].max(e2);
            steps.push(Step::Conv {
                conv: conv2,
                prep: Box::new(conv2.prepare_capped(h1, w1, backend, max_levels)),
                src: Src::Buf(b),
                dst: d,
                in_hw: (h1, w1),
                out_elems: e2,
            });
            step_names.push(format!("res{}.conv2", bi + 1));
            match block.shortcut() {
                Some(sc) => {
                    let (hs, ws) = sc.output_hw(h, w);
                    let es = sc.out_channels() * hs * ws;
                    assert_eq!(es, e2, "projection shortcut shape mismatch");
                    buf_elems[b] = buf_elems[b].max(es);
                    steps.push(Step::Conv {
                        conv: sc,
                        prep: Box::new(sc.prepare_capped(h, w, backend, max_levels)),
                        src: Src::Buf(a),
                        dst: b,
                        in_hw: (h, w),
                        out_elems: es,
                    });
                    step_names.push(format!("res{}.shortcut", bi + 1));
                    steps.push(Step::Add {
                        src: b,
                        dst: d,
                        elems: e2,
                    });
                    step_names.push(format!("res{}.add", bi + 1));
                }
                None => {
                    assert_eq!(c * h * w, e2, "identity shortcut shape mismatch");
                    steps.push(Step::Add {
                        src: a,
                        dst: d,
                        elems: e2,
                    });
                    step_names.push(format!("res{}.add", bi + 1));
                }
            }
            cur = d;
            c = conv2.out_channels();
            h = h2;
            w = w2;
        }

        ExecPlan {
            model,
            backend,
            input_c,
            input_hw,
            steps,
            step_names,
            buf_elems,
            feat_c: c,
            final_hw: (h, w),
            final_buf: cur,
        }
    }

    /// The input resolution this plan was compiled for.
    pub fn input_hw(&self) -> (usize, usize) {
        self.input_hw
    }

    /// The kernel backend every conv step of this plan dispatches to.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// The residual binarization level count this plan executes — the
    /// maximum over its conv steps after any `plan_capped` clamp.
    pub fn levels(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Conv { prep, .. } => prep.levels(),
                Step::Add { .. } | Step::CopyInput { .. } => 1,
            })
            .max()
            .unwrap_or(1)
    }

    /// Number of layer steps (convs + shortcut merges).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Per-item f32 capacity of the three ping-pong buffers —
    /// the plan's activation footprint.
    pub fn buffer_elems(&self) -> [usize; 3] {
        self.buf_elems
    }

    /// Profiling-slot names for this plan: one per step (in `steps`
    /// order, named after [`crate::BnnResNet::summary`] layers), then
    /// `gap` and `fc` for the classifier head.
    pub fn slot_names(&self) -> Vec<String> {
        let mut names = self.step_names.clone();
        names.push("gap".to_string());
        names.push("fc".to_string());
        names
    }

    /// A [`SlotProfiler`] sized and named for this plan, for use with
    /// [`run_batch_into_profiled`](ExecPlan::run_batch_into_profiled).
    /// Parallel workers build one each and [`SlotProfiler::merge`]
    /// afterwards.
    pub fn profiler(&self) -> SlotProfiler {
        SlotProfiler::new(self.slot_names())
    }

    /// Like [`profiler`](ExecPlan::profiler) with an explicit clock
    /// (deterministic tests).
    pub fn profiler_with_clock(&self, clock: Arc<dyn Clock>) -> SlotProfiler {
        SlotProfiler::with_clock(self.slot_names(), clock)
    }

    /// Runs the plan on a `[n, c, h, w]` input slice (`±1` values,
    /// `c`/`h`/`w` as compiled), writing `[n, classes]` logits into
    /// `logits`.
    ///
    /// Every batch size runs the one conv engine: per conv step, every
    /// output pixel of all clips in a chunk goes through one bit-sliced
    /// XNOR-GEMM (see [`PackedConv::forward_prepped`]).  The batch is split into chunks
    /// sized to a working-set budget; items are independent, so the
    /// split never changes an output bit.  All intermediates come from
    /// `ws`; after one warm-up call with the same `n`, subsequent calls
    /// allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics when a slice length disagrees with the compiled shapes.
    pub fn run_into(&self, input: &[f32], n: usize, ws: &mut Workspace, logits: &mut [f32]) {
        self.run_impl(input, n, ws, logits, None);
    }

    /// The same call as [`run_into`](ExecPlan::run_into), under the
    /// name batch-oriented callers use.
    ///
    /// # Panics
    ///
    /// Panics when a slice length disagrees with the compiled shapes.
    pub fn run_batch_into(&self, input: &[f32], n: usize, ws: &mut Workspace, logits: &mut [f32]) {
        self.run_impl(input, n, ws, logits, None);
    }

    /// [`run_into`](ExecPlan::run_into) with per-layer timing: each
    /// step's wall-clock nanoseconds accumulate into the matching slot
    /// of `prof` (built by [`profiler`](ExecPlan::profiler)), one
    /// `record_since` per chunk per step.  The math and the chunking
    /// are those of the unprofiled call, so the logits are bit-identical
    /// to it; once warm the profiled path performs the same zero heap
    /// allocations — profiling only adds clock reads and `u64`
    /// arithmetic.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (as [`run_into`](ExecPlan::run_into))
    /// or when `prof` was built for a different plan shape.
    pub fn run_batch_into_profiled(
        &self,
        input: &[f32],
        n: usize,
        ws: &mut Workspace,
        logits: &mut [f32],
        prof: &mut SlotProfiler,
    ) {
        assert_eq!(
            prof.slot_count(),
            self.steps.len() + 2,
            "profiler was built for a different plan"
        );
        self.run_impl(input, n, ws, logits, Some(prof));
    }

    /// Items per internal chunk of a run.  Running the whole batch
    /// layer-by-layer scales the three ping-pong f32 buffers with `n`,
    /// and past the last-level cache that costs more than GEMM tiling
    /// wins — batch 16 of the paper's 128×128 net is a ~24 MB working
    /// set.  So every run splits the batch into chunks sized to a fixed
    /// working-set budget; a chunk of even 3–4 items already fills the
    /// GEMM tiles of the smallest late-layer feature maps.  Item order
    /// (and therefore every output bit) is unchanged — items are
    /// independent.
    fn batch_chunk(&self) -> usize {
        static OVERRIDE: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
        if let Some(c) = OVERRIDE.get_or_init(|| {
            std::env::var("HOTSPOT_BATCH_CHUNK")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&c: &usize| c >= 2)
        }) {
            return *c;
        }
        const WORKING_SET_BUDGET: usize = 4 << 20;
        let (h, w) = self.input_hw;
        let per_item =
            (self.buf_elems.iter().sum::<usize>() + self.input_c * h * w) * size_of::<f32>();
        (WORKING_SET_BUDGET / per_item.max(1)).clamp(2, 64)
    }

    fn run_impl(
        &self,
        input: &[f32],
        n: usize,
        ws: &mut Workspace,
        logits: &mut [f32],
        mut prof: Option<&mut SlotProfiler>,
    ) {
        let (h, w) = self.input_hw;
        let item = self.input_c * h * w;
        assert_eq!(input.len(), n * item, "input length mismatch");
        let classes = self.model.fc_weight().shape()[0];
        assert_eq!(logits.len(), n * classes, "logits length mismatch");
        let chunk = self.batch_chunk();
        for (inp, lg) in input
            .chunks(chunk * item)
            .zip(logits.chunks_mut(chunk * classes))
        {
            self.run_chunk(inp, inp.len() / item, ws, lg, prof.as_deref_mut());
        }
    }

    /// One chunk of [`run_impl`](ExecPlan::run_impl): the layer steps,
    /// then global average pooling and the classifier.
    fn run_chunk(
        &self,
        input: &[f32],
        n: usize,
        ws: &mut Workspace,
        logits: &mut [f32],
        mut prof: Option<&mut SlotProfiler>,
    ) {
        let classes = self.model.fc_weight().shape()[0];
        let mut bufs = self.take_bufs(n, ws);
        self.exec_steps(input, n, ws, &mut bufs, &mut prof);

        // Global average pool + full-precision classifier, with the
        // same accumulation order as the structural forward.
        let gap_slot = self.steps.len();
        let t0 = prof.as_ref().map(|p| p.begin());
        let (fh, fw) = self.final_hw;
        let mut pooled = ws.take_f32(n * self.feat_c);
        global_avg_pool_into(
            &bufs[self.final_buf][..n * self.feat_c * fh * fw],
            n,
            self.feat_c,
            fh,
            fw,
            &mut pooled,
        );
        if let (Some(p), Some(t)) = (prof.as_deref_mut(), t0) {
            p.record_since(gap_slot, t);
        }
        let t0 = prof.as_ref().map(|p| p.begin());
        let fcw = self.model.fc_weight().as_slice();
        let fcb = self.model.fc_bias().as_slice();
        let inp = self.feat_c;
        for ni in 0..n {
            for oi in 0..classes {
                let mut acc = fcb[oi];
                for ii in 0..inp {
                    acc += fcw[oi * inp + ii] * pooled[ni * inp + ii];
                }
                logits[ni * classes + oi] = acc;
            }
        }
        if let (Some(p), Some(t)) = (prof, t0) {
            p.record_since(gap_slot + 1, t);
        }
        ws.give_f32(pooled);
        self.give_bufs(bufs, ws);
    }

    /// The three ping-pong activation buffers for an `n`-item chunk.
    fn take_bufs(&self, n: usize, ws: &mut Workspace) -> [Vec<f32>; 3] {
        self.buf_elems.map(|e| ws.take_f32(n * e))
    }

    fn give_bufs(&self, bufs: [Vec<f32>; 3], ws: &mut Workspace) {
        for b in bufs {
            ws.give_f32(b);
        }
    }

    /// Executes the layer steps of the plan, leaving the final feature
    /// map in `bufs[self.final_buf]`.
    fn exec_steps(
        &self,
        input: &[f32],
        n: usize,
        ws: &mut Workspace,
        bufs: &mut [Vec<f32>; 3],
        prof: &mut Option<&mut SlotProfiler>,
    ) {
        for (si, step) in self.steps.iter().enumerate() {
            let t0 = prof.as_ref().map(|p| p.begin());
            match step {
                Step::Conv {
                    conv,
                    prep,
                    src,
                    dst,
                    in_hw,
                    out_elems,
                } => {
                    let out_len = n * out_elems;
                    match src {
                        Src::Input => {
                            conv.forward_prepped(prep, input, n, ws, &mut bufs[*dst][..out_len])
                        }
                        Src::Buf(s) => {
                            let in_len = n * conv.in_channels() * in_hw.0 * in_hw.1;
                            let (src_buf, dst_buf) = two_bufs(bufs, *s, *dst);
                            conv.forward_prepped(
                                prep,
                                &src_buf[..in_len],
                                n,
                                ws,
                                &mut dst_buf[..out_len],
                            );
                        }
                    }
                }
                Step::Add { src, dst, elems } => {
                    let len = n * elems;
                    let (src_buf, dst_buf) = two_bufs(bufs, *src, *dst);
                    for (o, v) in dst_buf[..len].iter_mut().zip(&src_buf[..len]) {
                        *o += v;
                    }
                }
                Step::CopyInput { dst, elems } => {
                    let len = n * elems;
                    bufs[*dst][..len].copy_from_slice(&input[..len]);
                }
            }
            if let (Some(p), Some(t)) = (prof.as_deref_mut(), t0) {
                p.record_since(si, t);
            }
        }
    }

    /// The shape of the feature map the layer steps produce, as
    /// `(channels, height, width)` — what [`run_features_into`]
    /// (ExecPlan::run_features_into) writes per batch item.
    pub fn feature_shape(&self) -> (usize, usize, usize) {
        (self.feat_c, self.final_hw.0, self.final_hw.1)
    }

    /// Runs only the layer steps (no pooling or classifier), writing
    /// the raw `[n, c, h, w]` feature map into `features` (shape from
    /// [`feature_shape`](ExecPlan::feature_shape)).  The full-chip
    /// scanner runs a prefix segment this way once per band and feeds
    /// the features to per-window suffix plans.  Same engine, chunking
    /// and workspace discipline as [`run_into`](ExecPlan::run_into):
    /// zero heap allocations once warm.
    ///
    /// # Panics
    ///
    /// Panics when a slice length disagrees with the compiled shapes.
    pub fn run_features_into(
        &self,
        input: &[f32],
        n: usize,
        ws: &mut Workspace,
        features: &mut [f32],
    ) {
        let (h, w) = self.input_hw;
        let item = self.input_c * h * w;
        assert_eq!(input.len(), n * item, "input length mismatch");
        let (fc, fh, fw) = self.feature_shape();
        let feat = fc * fh * fw;
        assert_eq!(features.len(), n * feat, "feature buffer length mismatch");
        let chunk = self.batch_chunk();
        for (inp, ft) in input
            .chunks(chunk * item)
            .zip(features.chunks_mut(chunk * feat))
        {
            let m = inp.len() / item;
            let mut bufs = self.take_bufs(m, ws);
            self.exec_steps(inp, m, ws, &mut bufs, &mut None);
            ft.copy_from_slice(&bufs[self.final_buf][..m * feat]);
            self.give_bufs(bufs, ws);
        }
    }

    /// Whether this plan's runs engage the bit-sliced XNOR-GEMM tier —
    /// true whenever it has a conv step, since every conv runs all its
    /// output pixels through the GEMM.  Benchmarks report this so
    /// throughput numbers name the tier that produced them.
    pub fn gemm_tier(&self) -> bool {
        self.steps.iter().any(|s| matches!(s, Step::Conv { .. }))
    }

    /// Convenience wrapper: runs the plan on a `[n, c, h, w]` tensor
    /// and returns `[n, classes]` logits (allocates the result).
    pub fn run(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.ndim(), 4, "plan input must be NCHW");
        let n = x.shape()[0];
        assert_eq!(x.shape()[1], self.input_c, "channel mismatch");
        assert_eq!(
            (x.shape()[2], x.shape()[3]),
            self.input_hw,
            "plan compiled for a different input resolution"
        );
        let classes = self.model.fc_weight().shape()[0];
        let mut logits = vec![0.0f32; n * classes];
        self.run_into(x.as_slice(), n, ws, &mut logits);
        Tensor::from_vec(&[n, classes], logits)
    }
}

/// Disjoint (source, destination) views of two ping-pong buffers.
fn two_bufs(bufs: &mut [Vec<f32>; 3], src: usize, dst: usize) -> (&[f32], &mut [f32]) {
    assert_ne!(src, dst, "a step cannot read and write the same buffer");
    if src < dst {
        let (lo, hi) = bufs.split_at_mut(dst);
        (&lo[src], &mut hi[0])
    } else {
        let (lo, hi) = bufs.split_at_mut(src);
        (&hi[0], &mut lo[dst])
    }
}

impl PackedBnn {
    /// Compiles the model into an [`ExecPlan`] for clips of the given
    /// `(h, w)` input resolution, dispatching conv steps to the best
    /// kernel backend for this CPU (see
    /// [`active_backend`](crate::kernels::active_backend)).
    pub fn plan(&self, input_hw: (usize, usize)) -> ExecPlan<'_> {
        ExecPlan::compile(self, input_hw)
    }

    /// [`PackedBnn::plan`] pinned to an explicit kernel backend (all
    /// backends are bit-identical; used by equivalence tests and
    /// benchmarks).
    pub fn plan_with_backend(
        &self,
        input_hw: (usize, usize),
        backend: KernelBackend,
    ) -> ExecPlan<'_> {
        ExecPlan::compile_with_backend(self, input_hw, backend)
    }

    /// [`PackedBnn::plan`] with the executed residual level count
    /// capped at `max_levels` (clamped per conv to `1..=M`).  An
    /// M-level model capped at 1 runs — bit for bit — as the
    /// single-level model built from the same level-0 planes; this is
    /// the cascade's fast triage stage, and also how one trained model
    /// yields the whole accuracy-vs-throughput frontier.
    pub fn plan_capped(&self, input_hw: (usize, usize), max_levels: usize) -> ExecPlan<'_> {
        ExecPlan::compile_capped(self, input_hw, active_backend(), max_levels)
    }

    /// [`PackedBnn::plan_capped`] pinned to an explicit kernel backend.
    pub fn plan_capped_with_backend(
        &self,
        input_hw: (usize, usize),
        backend: KernelBackend,
        max_levels: usize,
    ) -> ExecPlan<'_> {
        ExecPlan::compile_capped(self, input_hw, backend, max_levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BnnResNet, NetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_packed(seed: u64) -> PackedBnn {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = BnnResNet::new(&NetConfig::tiny(16), &mut rng);
        PackedBnn::compile(&net)
    }

    fn pm_input(n: usize, side: usize, seed: u32) -> Vec<f32> {
        let mut state = seed;
        (0..n * side * side)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if state & 0x10000 == 0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect()
    }

    #[test]
    fn plan_matches_structural_forward_exactly() {
        let packed = tiny_packed(42);
        let input = pm_input(3, 16, 7);
        let x = Tensor::from_vec(&[3, 1, 16, 16], input.clone());
        let expect = packed.forward(&x);
        let plan = packed.plan((16, 16));
        let mut ws = Workspace::new();
        let mut logits = vec![0.0f32; 3 * 2];
        plan.run_into(&input, 3, &mut ws, &mut logits);
        assert_eq!(expect.as_slice(), &logits[..], "plan must be bit-identical");
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let packed = tiny_packed(9);
        let input = pm_input(2, 16, 3);
        let plan = packed.plan((16, 16));
        let mut ws = Workspace::new();
        let mut first = vec![0.0f32; 2 * 2];
        plan.run_into(&input, 2, &mut ws, &mut first);
        let mut second = vec![0.0f32; 2 * 2];
        plan.run_into(&input, 2, &mut ws, &mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn plan_handles_varying_batch_sizes_with_one_workspace() {
        let packed = tiny_packed(5);
        let plan = packed.plan((16, 16));
        let mut ws = Workspace::new();
        for n in [1usize, 4, 2, 8, 1] {
            let input = pm_input(n, 16, n as u32);
            let mut logits = vec![0.0f32; n * 2];
            plan.run_into(&input, n, &mut ws, &mut logits);
            let x = Tensor::from_vec(&[n, 1, 16, 16], input);
            assert_eq!(packed.forward(&x).as_slice(), &logits[..], "n={n}");
        }
    }

    #[test]
    fn shared_plan_runs_from_multiple_threads() {
        let packed = tiny_packed(11);
        let plan = packed.plan((16, 16));
        let input = pm_input(2, 16, 1);
        let mut expect = vec![0.0f32; 2 * 2];
        plan.run_into(&input, 2, &mut Workspace::new(), &mut expect);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let plan = &plan;
                let input = &input;
                let expect = &expect;
                scope.spawn(move || {
                    let mut ws = Workspace::new();
                    let mut logits = vec![0.0f32; 2 * 2];
                    plan.run_into(input, 2, &mut ws, &mut logits);
                    assert_eq!(&logits, expect);
                });
            }
        });
    }

    #[test]
    fn multilevel_plan_matches_structural_forward_exactly() {
        let mut rng = StdRng::seed_from_u64(77);
        let net = BnnResNet::new(&NetConfig::tiny(16).with_levels(2), &mut rng);
        let packed = PackedBnn::compile(&net);
        let input = pm_input(3, 16, 13);
        let x = Tensor::from_vec(&[3, 1, 16, 16], input.clone());
        let expect = packed.forward(&x);
        let plan = packed.plan((16, 16));
        assert_eq!(plan.levels(), 2);
        let mut ws = Workspace::new();
        let mut logits = vec![0.0f32; 3 * 2];
        plan.run_into(&input, 3, &mut ws, &mut logits);
        assert_eq!(expect.as_slice(), &logits[..], "plan must be bit-identical");
    }

    #[test]
    fn capped_plan_runs_level_zero_only() {
        let mut rng = StdRng::seed_from_u64(88);
        let net = BnnResNet::new(&NetConfig::tiny(16).with_levels(3), &mut rng);
        let packed = PackedBnn::compile(&net);
        let full = packed.plan((16, 16));
        let capped = packed.plan_capped((16, 16), 1);
        assert_eq!(full.levels(), 3);
        assert_eq!(capped.levels(), 1);
        let input = pm_input(2, 16, 17);
        let mut ws = Workspace::new();
        let mut lo = vec![0.0f32; 2 * 2];
        let mut hi = vec![0.0f32; 2 * 2];
        capped.run_into(&input, 2, &mut ws, &mut lo);
        full.run_into(&input, 2, &mut ws, &mut hi);
        // Correction planes must actually change the logits; a capped
        // plan that silently ran all levels would make these equal.
        assert_ne!(lo, hi, "residual levels should perturb the logits");
    }

    #[test]
    fn step_count_covers_every_layer() {
        let packed = tiny_packed(1);
        let plan = packed.plan((16, 16));
        // Stem + per block: conv1 + conv2 + merge (+ projection).
        let min = 1 + packed.blocks().len() * 3;
        assert!(plan.step_count() >= min, "{} < {min}", plan.step_count());
        assert!(plan.buffer_elems().iter().all(|&e| e > 0));
    }

    #[test]
    fn profiled_run_is_bit_identical_and_covers_every_slot() {
        let packed = tiny_packed(21);
        let plan = packed.plan((16, 16));
        let input = pm_input(2, 16, 5);
        let mut ws = Workspace::new();
        let mut plain = vec![0.0f32; 2 * 2];
        plan.run_into(&input, 2, &mut ws, &mut plain);
        let mut prof = plan.profiler();
        let mut profiled = vec![0.0f32; 2 * 2];
        plan.run_batch_into_profiled(&input, 2, &mut ws, &mut profiled, &mut prof);
        assert_eq!(plain, profiled, "profiling must not change the math");

        let report = prof.report();
        assert_eq!(report.len(), plan.step_count() + 2);
        assert!(report.iter().all(|s| s.calls == 1), "{report:?}");
        assert_eq!(report[0].name, "stem");
        assert_eq!(report[report.len() - 2].name, "gap");
        assert_eq!(report[report.len() - 1].name, "fc");
        assert!(report.iter().any(|s| s.name == "res1.conv1"));
        assert!(report.iter().any(|s| s.name == "res2.shortcut"));
        // A second profiled run doubles every call count.
        plan.run_batch_into_profiled(&input, 2, &mut ws, &mut profiled, &mut prof);
        assert!(prof.report().iter().all(|s| s.calls == 2));
    }

    #[test]
    fn profiler_slots_cover_all_conv_layers_of_the_paper_net() {
        use crate::model::{BnnResNet, NetConfig};
        let mut rng = StdRng::seed_from_u64(12);
        let net = BnnResNet::new(&NetConfig::paper_12layer(), &mut rng);
        let packed = PackedBnn::compile(&net);
        let plan = packed.plan((128, 128));
        let names = plan.slot_names();
        // 11 binary conv layers (stem + 5 blocks × 2) + fc = the
        // paper's 12 weight layers, every one with its own slot.
        let convs = names
            .iter()
            .filter(|n| *n == "stem" || n.ends_with(".conv1") || n.ends_with(".conv2"))
            .count();
        assert_eq!(convs, 11, "{names:?}");
        assert!(names.contains(&"fc".to_string()));
    }

    #[test]
    #[should_panic(expected = "different plan")]
    fn mismatched_profiler_rejected() {
        let packed = tiny_packed(4);
        let plan = packed.plan((16, 16));
        let mut prof = hotspot_telemetry::SlotProfiler::new(vec!["only".into()]);
        let input = pm_input(1, 16, 2);
        let mut logits = vec![0.0f32; 2];
        plan.run_batch_into_profiled(&input, 1, &mut Workspace::new(), &mut logits, &mut prof);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn wrong_input_length_rejected() {
        let packed = tiny_packed(2);
        let plan = packed.plan((16, 16));
        let mut logits = vec![0.0f32; 2];
        plan.run_into(&[0.0; 10], 1, &mut Workspace::new(), &mut logits);
    }
}
