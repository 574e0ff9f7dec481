//! The paper's detector: a binarized residual network trained with
//! Algorithm 1, hardened with checkpointing, resume, and a divergence
//! watchdog (see DESIGN.md §"Fault-tolerant training").

use crate::checkpoint::{
    checkpoint_file_name, config_fingerprint, restore_net, snapshot_net, TrainCheckpoint,
};
use crate::detector::HotspotDetector;
use crate::persist::{load_checkpoint, save_checkpoint, PersistError};
use hotspot_bnn::{BnnResNet, Cascade, NetConfig, PackedBnn};
use hotspot_geometry::BitImage;
use hotspot_layout_gen::LabeledClip;
use hotspot_nn::{
    Augment, Batcher, BiasedLabels, ImageDataset, Layer, NAdam, Optimizer, PlateauDecay,
    SoftmaxCrossEntropy,
};
use hotspot_telemetry::{
    metrics, span, trace, MonotonicClock, SlotProfiler, StderrSubscriber, Timer, Value,
};
use hotspot_tensor::{Tensor, Workspace, WorkspacePool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Clips per inference shard: one run of a compiled plan or the
/// cascade, one workspace.
const SHARD: usize = 64;

/// Learning-rate factor applied by the watchdog on each rollback.
const ROLLBACK_LR_FACTOR: f32 = 0.5;

/// Which forward path classifies at inference time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InferencePath {
    /// The bit-packed XNOR engine — the paper's deployed artifact and
    /// the source of its 8× speed-up.
    #[default]
    Packed,
    /// The float-simulated binarization used during training
    /// (reference path; slower, exact per-channel scaling).
    Float,
}

/// Training configuration for [`BnnDetector`] (paper §3.3–3.4).
#[derive(Debug, Clone, PartialEq)]
pub struct BnnTrainConfig {
    /// Network architecture.
    pub net: NetConfig,
    /// Input side length `l_s` the clips are down-sampled to.
    pub input_size: usize,
    /// Epochs of standard (hard-label) training.
    pub epochs: usize,
    /// Epochs of biased-label fine-tuning (§3.4.3).
    pub bias_epochs: usize,
    /// Biased-label ε (the paper uses 0.2).
    pub epsilon: f32,
    /// Mini-batch size (the paper uses 128).
    pub batch_size: usize,
    /// Initial learning rate (the paper quotes 0.15 on MXNet; scaled
    /// configs default lower for NAdam stability at small batch
    /// counts).
    pub learning_rate: f32,
    /// Multiplicative LR decay applied on validation-loss plateau.
    pub lr_decay: f32,
    /// Plateau patience in epochs.
    pub lr_patience: usize,
    /// Fraction of the training set held out for the plateau schedule.
    pub validation_fraction: f64,
    /// Random horizontal/vertical flip augmentation (§3.4.1).
    pub augment: bool,
    /// Oversample hotspot clips toward a 1:2 class ratio during
    /// training.  The ICCAD-2012 benchmark is ~1:14 imbalanced; the
    /// paper absorbs this with sheer data volume plus biased learning,
    /// but scaled-down datasets need explicit rebalancing to learn the
    /// minority class at all.
    pub balance_classes: bool,
    /// Inference path used by `predict_batch`.
    pub inference: InferencePath,
    /// Seed for initialisation and batching.
    pub seed: u64,
    /// Log per-epoch progress to stderr.
    pub verbose: bool,
    /// Directory that receives one `epochNNNN.brnnck` checkpoint per
    /// [`checkpoint_every`](Self::checkpoint_every) completed epochs
    /// (created on demand).  `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in epochs; the final epoch is always
    /// checkpointed when a directory is set.
    pub checkpoint_every: usize,
    /// Divergence-watchdog budget: how many times a non-finite epoch
    /// may be rolled back (with the learning rate halved) before
    /// training gives up with [`TrainError::Diverged`].
    pub max_rollbacks: usize,
    /// Test-only fault injection: poison the first batch loss of this
    /// epoch with a NaN, once (the injection disarms after the first
    /// rollback so recovery paths can be exercised deterministically).
    pub fault_nan_epoch: Option<usize>,
}

impl BnnTrainConfig {
    /// The paper-scale configuration: 12-layer network on 128×128
    /// inputs, batch 128, initial LR 0.15, plateau decay, flips,
    /// ε = 0.2.
    pub fn paper() -> Self {
        let mut net = NetConfig::paper_12layer();
        // Shared (factored) scaling keeps the float training path
        // bit-identical to the packed XNOR inference engine; the
        // paper's per-channel variant is exercised by the scaling
        // ablation (see DESIGN.md §6).
        net.scaling = hotspot_bnn::ScalingMode::Shared;
        BnnTrainConfig {
            net,
            input_size: 128,
            epochs: 30,
            bias_epochs: 4,
            epsilon: 0.2,
            batch_size: 128,
            learning_rate: 0.15,
            lr_decay: 0.5,
            lr_patience: 2,
            validation_fraction: 0.1,
            augment: true,
            balance_classes: true,
            inference: InferencePath::Packed,
            seed: 2019,
            verbose: false,
            checkpoint_dir: None,
            checkpoint_every: 1,
            max_rollbacks: 3,
            fault_nan_epoch: None,
        }
    }

    /// A laptop-scale configuration used by the benchmark harness:
    /// same 12-layer topology at reduced width on 64×64 inputs.
    pub fn bench() -> Self {
        BnnTrainConfig {
            net: NetConfig {
                input_size: 64,
                stem_filters: 8,
                stages: vec![(8, 1), (16, 2), (32, 2), (32, 2)],
                scaling: hotspot_bnn::ScalingMode::Shared,
                levels: 1,
            },
            input_size: 64,
            epochs: 20,
            bias_epochs: 2,
            epsilon: 0.2,
            batch_size: 64,
            learning_rate: 0.01,
            lr_decay: 0.5,
            lr_patience: 2,
            validation_fraction: 0.1,
            augment: true,
            balance_classes: true,
            inference: InferencePath::Packed,
            seed: 2019,
            verbose: false,
            checkpoint_dir: None,
            checkpoint_every: 1,
            max_rollbacks: 3,
            fault_nan_epoch: None,
        }
    }

    /// A minimal configuration for unit and integration tests.
    pub fn fast() -> Self {
        let mut net = NetConfig::tiny(32);
        net.scaling = hotspot_bnn::ScalingMode::Shared;
        BnnTrainConfig {
            net,
            input_size: 32,
            epochs: 12,
            bias_epochs: 1,
            epsilon: 0.2,
            batch_size: 16,
            learning_rate: 0.02,
            lr_decay: 0.5,
            lr_patience: 2,
            validation_fraction: 0.2,
            augment: false,
            balance_classes: true,
            inference: InferencePath::Packed,
            seed: 7,
            verbose: false,
            checkpoint_dir: None,
            checkpoint_every: 1,
            max_rollbacks: 3,
            fault_nan_epoch: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`TrainConfigError`] found: size mismatch with
    /// the network, empty schedule, or out-of-range hyperparameters.
    pub fn validate(&self) -> Result<(), TrainConfigError> {
        if self.input_size == 0 {
            return Err(TrainConfigError::ZeroInputSize);
        }
        if self.input_size != self.net.input_size {
            return Err(TrainConfigError::InputSizeMismatch {
                detector: self.input_size,
                net: self.net.input_size,
            });
        }
        if self.batch_size == 0 {
            return Err(TrainConfigError::ZeroBatchSize);
        }
        if self.epochs + self.bias_epochs == 0 {
            return Err(TrainConfigError::NoEpochs);
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(TrainConfigError::BadLearningRate(self.learning_rate));
        }
        if !(self.lr_decay > 0.0 && self.lr_decay < 1.0) {
            return Err(TrainConfigError::BadLrDecay(self.lr_decay));
        }
        if self.lr_patience == 0 {
            return Err(TrainConfigError::ZeroLrPatience);
        }
        if !(0.0..1.0).contains(&self.validation_fraction) {
            return Err(TrainConfigError::BadValidationFraction(
                self.validation_fraction,
            ));
        }
        if !(0.0..1.0).contains(&self.epsilon) {
            return Err(TrainConfigError::BadEpsilon(self.epsilon));
        }
        if self.checkpoint_every == 0 {
            return Err(TrainConfigError::ZeroCheckpointCadence);
        }
        self.net.check().map_err(TrainConfigError::Net)
    }
}

/// A rejected [`BnnTrainConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum TrainConfigError {
    /// `input_size` is zero.
    ZeroInputSize,
    /// `input_size` differs from the network's configured input.
    InputSizeMismatch {
        /// The detector-level input size.
        detector: usize,
        /// The network's configured input size.
        net: usize,
    },
    /// `batch_size` is zero.
    ZeroBatchSize,
    /// Both epoch counts are zero.
    NoEpochs,
    /// Non-finite or non-positive learning rate.
    BadLearningRate(f32),
    /// `lr_decay` outside `(0, 1)`.
    BadLrDecay(f32),
    /// `lr_patience` is zero.
    ZeroLrPatience,
    /// `validation_fraction` outside `[0, 1)`.
    BadValidationFraction(f64),
    /// Biased-label ε outside `[0, 1)`.
    BadEpsilon(f32),
    /// `checkpoint_every` is zero.
    ZeroCheckpointCadence,
    /// The network architecture itself is inconsistent.
    Net(String),
}

impl fmt::Display for TrainConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainConfigError::ZeroInputSize => write!(f, "input size must be positive"),
            TrainConfigError::InputSizeMismatch { detector, net } => write!(
                f,
                "detector input size must match the network config ({detector} vs {net})"
            ),
            TrainConfigError::ZeroBatchSize => write!(f, "batch size must be positive"),
            TrainConfigError::NoEpochs => write!(f, "total epoch count must be positive"),
            TrainConfigError::BadLearningRate(lr) => {
                write!(f, "learning rate must be positive and finite, got {lr}")
            }
            TrainConfigError::BadLrDecay(d) => write!(f, "lr decay must be in (0, 1), got {d}"),
            TrainConfigError::ZeroLrPatience => write!(f, "lr patience must be positive"),
            TrainConfigError::BadValidationFraction(v) => {
                write!(f, "validation fraction must be in [0, 1), got {v}")
            }
            TrainConfigError::BadEpsilon(e) => {
                write!(f, "bias epsilon must be in [0, 1), got {e}")
            }
            TrainConfigError::ZeroCheckpointCadence => {
                write!(f, "checkpoint cadence must be positive")
            }
            TrainConfigError::Net(m) => write!(f, "network config: {m}"),
        }
    }
}

impl Error for TrainConfigError {}

/// A failed training run.
#[derive(Debug)]
pub enum TrainError {
    /// The configuration was rejected.
    Config(TrainConfigError),
    /// No training clips were provided.
    NoData,
    /// Checkpoint I/O failed.
    Persist(PersistError),
    /// A checkpoint could not be applied (fingerprint mismatch,
    /// architecture mismatch, or internally inconsistent state).
    Checkpoint(String),
    /// The watchdog exhausted its rollback budget.
    Diverged {
        /// Epoch (zero-based, counting both phases) that kept
        /// producing non-finite losses or weights.
        epoch: usize,
        /// Rollbacks consumed before giving up.
        rollbacks: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Config(e) => write!(f, "invalid training configuration: {e}"),
            TrainError::NoData => write!(f, "cannot train on zero clips"),
            TrainError::Persist(e) => write!(f, "checkpoint i/o: {e}"),
            TrainError::Checkpoint(m) => write!(f, "cannot resume: {m}"),
            TrainError::Diverged { epoch, rollbacks } => write!(
                f,
                "training diverged at epoch {epoch} after {rollbacks} rollbacks"
            ),
        }
    }
}

impl Error for TrainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TrainError::Config(e) => Some(e),
            TrainError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for TrainError {
    fn from(e: PersistError) -> Self {
        TrainError::Persist(e)
    }
}

impl From<TrainConfigError> for TrainError {
    fn from(e: TrainConfigError) -> Self {
        TrainError::Config(e)
    }
}

/// The DAC'19 BNN hotspot detector.
///
/// Training follows Algorithm 1: forward with binarized weights and
/// activations, backward through the straight-through estimator,
/// NAdam updates of the real-valued master weights, plateau LR decay,
/// flip augmentation, and a biased-label fine-tune.  After training the
/// network is compiled to the bit-packed XNOR engine for inference.
///
/// Runs are fault-tolerant: with
/// [`checkpoint_dir`](BnnTrainConfig::checkpoint_dir) set, every epoch
/// boundary can be persisted and a killed run continued bit-identically
/// via [`resume`](BnnDetector::resume); a NaN/Inf loss or weight rolls
/// the epoch back with a halved learning rate instead of poisoning the
/// model.
pub struct BnnDetector {
    config: BnnTrainConfig,
    /// The float network mutates activation caches during a forward
    /// pass, so the reference path serialises through a mutex.  The
    /// packed path never locks it.
    net: Option<Mutex<BnnResNet>>,
    packed: Option<PackedBnn>,
    /// The packed model's triage and confirm plans, compiled once when
    /// training ends; the plain packed path runs the confirm plan.
    cascade: Option<Cascade>,
    /// Reusable scratch for the packed path: each rayon worker checks
    /// out a [`hotspot_tensor::Workspace`] per shard, so steady-state
    /// batch inference recycles buffers instead of reallocating.
    ws_pool: WorkspacePool,
    history: Vec<EpochRecord>,
    rollbacks: usize,
}

/// One epoch of training telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Validation loss observed by the plateau schedule (equals the
    /// training loss when no validation split exists).
    pub val_loss: f64,
    /// Learning rate in effect after the schedule update.
    pub learning_rate: f32,
    /// `true` for the biased fine-tune epochs.
    pub biased: bool,
    /// Wall-clock duration of the epoch in seconds (forward, backward,
    /// optimizer and validation; checkpoint I/O excluded).  Persisted
    /// in checkpoints, so a resumed run still reports the cumulative
    /// training time of the epochs it did not re-run.  Legacy
    /// `BRNNCK01` checkpoints predate the field and load as `0.0`.
    pub duration_secs: f64,
}

impl EpochRecord {
    /// `true` when `other` describes the same training trajectory
    /// point: every field equal except the wall-clock
    /// [`duration_secs`](EpochRecord::duration_secs), which is
    /// machine- and run-dependent by nature.  This is the right
    /// comparison for resume-determinism checks.
    pub fn same_trajectory(&self, other: &EpochRecord) -> bool {
        self.train_loss == other.train_loss
            && self.val_loss == other.val_loss
            && self.learning_rate == other.learning_rate
            && self.biased == other.biased
    }
}

impl BnnDetector {
    /// Creates an untrained detector.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent; use
    /// [`try_new`](BnnDetector::try_new) for a fallible constructor.
    pub fn new(config: BnnTrainConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an untrained detector, rejecting bad configurations.
    ///
    /// # Errors
    ///
    /// Returns [`TrainConfigError`] when the configuration is
    /// inconsistent.
    pub fn try_new(config: BnnTrainConfig) -> Result<Self, TrainConfigError> {
        config.validate()?;
        Ok(BnnDetector {
            config,
            net: None,
            packed: None,
            cascade: None,
            ws_pool: WorkspacePool::new(),
            history: Vec::new(),
            rollbacks: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &BnnTrainConfig {
        &self.config
    }

    /// The trained network, once [`fit`](HotspotDetector::fit) has run.
    /// Returns a lock guard — the float path's activation caches make
    /// the network single-borrower.
    pub fn network(&self) -> Option<MutexGuard<'_, BnnResNet>> {
        // A panic in a previous borrower only poisons the lock; the
        // network state itself stays valid (forward caches are
        // overwritten per pass), so recover rather than propagate.
        self.net
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// The compiled XNOR engine, once trained.
    pub fn packed(&self) -> Option<&PackedBnn> {
        self.packed.as_ref()
    }

    /// Per-epoch training telemetry from the most recent
    /// [`fit`](HotspotDetector::fit).
    pub fn history(&self) -> &[EpochRecord] {
        &self.history
    }

    /// Watchdog rollbacks consumed by the most recent training run.
    pub fn rollbacks(&self) -> usize {
        self.rollbacks
    }

    /// Cumulative wall-clock training time in seconds, summed over the
    /// per-epoch durations in [`history`](BnnDetector::history).  For a
    /// resumed run this includes the epochs restored from the
    /// checkpoint, so the total reflects the whole logical run rather
    /// than just the final process.
    pub fn total_training_secs(&self) -> f64 {
        self.history.iter().map(|e| e.duration_secs).sum()
    }

    /// Converts a clip image to the network's ±1 input tensor,
    /// down-sampling to `input_size` when needed.
    ///
    /// # Panics
    ///
    /// Panics when the clip side is not a positive multiple of
    /// `input_size`.
    pub fn clip_to_tensor(&self, image: &BitImage) -> Tensor {
        let side = image.width();
        let target = self.config.input_size;
        assert!(
            side >= target && side.is_multiple_of(target),
            "clip side {side} must be a multiple of the input size {target}"
        );
        let image = if side > target {
            // §3.4.1: simple down-sampling; any block coverage marks
            // the output pixel (preserves thin features).
            image.downsample(side / target, 1e-9)
        } else {
            image.clone()
        };
        Tensor::from_vec(&[1, target, target], image.to_signed_f32())
    }

    fn build_dataset(&self, clips: &[LabeledClip]) -> ImageDataset {
        let mut ds = ImageDataset::new();
        for clip in clips {
            ds.push(self.clip_to_tensor(&clip.image), usize::from(clip.hotspot));
        }
        ds
    }

    /// Trains from scratch, returning errors instead of panicking.
    ///
    /// Equivalent to [`fit`](HotspotDetector::fit) with typed failure
    /// reporting; checkpointing and the divergence watchdog are
    /// governed by the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] on empty input, checkpoint I/O failure,
    /// or unrecoverable divergence.
    pub fn try_fit(&mut self, clips: &[LabeledClip]) -> Result<(), TrainError> {
        self.train_impl(clips, None)
    }

    /// Continues a checkpointed run until training completes.
    ///
    /// `clips` must be the same training clips as the original run —
    /// the dataset pipeline is deterministic, so checkpoint + clips
    /// reproduce the uninterrupted trajectory bit-for-bit.  The
    /// checkpoint stores a fingerprint of the trajectory-relevant
    /// configuration and resume refuses a mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the checkpoint cannot be loaded or
    /// applied, and on the same failures as
    /// [`try_fit`](BnnDetector::try_fit).
    pub fn resume(&mut self, path: &Path, clips: &[LabeledClip]) -> Result<(), TrainError> {
        let ck = load_checkpoint(path)?;
        self.train_impl(clips, Some(ck))
    }

    fn train_impl(
        &mut self,
        clips: &[LabeledClip],
        start: Option<TrainCheckpoint>,
    ) -> Result<(), TrainError> {
        if clips.is_empty() {
            return Err(TrainError::NoData);
        }
        let cfg = self.config.clone();
        let fingerprint = config_fingerprint(&cfg);
        let dataset = self.build_dataset(clips);
        let (train, val) = if dataset.len() >= 10 {
            let (t, v) = dataset.split_validation(cfg.validation_fraction);
            (t, Some(v))
        } else {
            (dataset, None)
        };
        // Rebalance only the training portion (after the validation
        // split, so held-out clips stay untouched and unduplicated).
        let train = if cfg.balance_classes {
            oversample_hotspots(train)
        } else {
            train
        };

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut net = BnnResNet::new(&cfg.net, &mut rng);
        let mut opt = NAdam::new(cfg.learning_rate);
        let mut sched = PlateauDecay::new(cfg.learning_rate, cfg.lr_decay, cfg.lr_patience);
        let mut history: Vec<EpochRecord> = Vec::with_capacity(cfg.epochs + cfg.bias_epochs);
        let mut completed = 0usize;
        let mut rollbacks = 0usize;
        let total_epochs = cfg.epochs + cfg.bias_epochs;

        if let Some(ck) = start {
            if ck.fingerprint != fingerprint {
                return Err(TrainError::Checkpoint(format!(
                    "checkpoint fingerprint {:08x} does not match the current configuration \
                     {fingerprint:08x} — resume requires identical training hyperparameters",
                    ck.fingerprint
                )));
            }
            if ck.levels != cfg.net.levels {
                return Err(TrainError::Checkpoint(format!(
                    "checkpoint was trained with {} residual binarization level(s) but the \
                     current configuration uses {}",
                    ck.levels, cfg.net.levels
                )));
            }
            if ck.completed_epochs > total_epochs || ck.history.len() != ck.completed_epochs {
                return Err(TrainError::Checkpoint(format!(
                    "inconsistent checkpoint: {} completed epochs, {} history records, \
                     {total_epochs} total epochs configured",
                    ck.completed_epochs,
                    ck.history.len()
                )));
            }
            restore_net(&mut net, &ck.params, &ck.state).map_err(TrainError::Checkpoint)?;
            opt = ck.optimizer;
            sched = ck.schedule;
            rng = StdRng::from_state(ck.rng);
            history = ck.history;
            completed = ck.completed_epochs;
            rollbacks = ck.rollbacks;
        }

        // Structured telemetry: events always reach the process-global
        // subscriber (a no-op when none is installed); verbose mode
        // additionally pretty-prints the same events to stderr through
        // a run-local sink so it never perturbs global state.
        let verbose_sink = cfg.verbose.then_some(StderrSubscriber);
        let emit = |name: &'static str, fields: &[trace::Field]| {
            trace::dispatch_event(name, fields);
            if let Some(sink) = &verbose_sink {
                trace::dispatch_event_to(sink, name, fields);
            }
        };
        let registry = metrics::global();
        let epochs_counter = registry.counter("train_epochs_total");
        let rollback_counter = registry.counter("train_rollbacks_total");
        let checkpoint_counter = registry.counter("train_checkpoint_writes_total");
        let epoch_hist =
            registry.histogram("train_epoch_duration_ns", &metrics::duration_ns_buckets());
        let clock = MonotonicClock;
        let _fit_span = span!(
            "train.fit",
            total_epochs = total_epochs,
            start_epoch = completed,
            clips = clips.len()
        );

        let augment = if cfg.augment {
            Augment::flips()
        } else {
            Augment::none()
        };
        let batcher = Batcher::new(&train, cfg.batch_size, augment);
        let hard = SoftmaxCrossEntropy::new();
        let biased = SoftmaxCrossEntropy::with_bias(BiasedLabels::new(cfg.epsilon));

        // Runs one epoch; `None` means a batch loss went non-finite and
        // the epoch was abandoned before the poisoned gradient step.
        let run_epoch = |net: &mut BnnResNet,
                         rng: &mut StdRng,
                         opt: &mut NAdam,
                         loss: &SoftmaxCrossEntropy,
                         inject_nan: bool|
         -> Option<f64> {
            let mut total = 0.0;
            let mut batches = 0usize;
            for (batch, classes) in batcher.batches(rng) {
                net.zero_grads();
                let logits = net.forward(&batch, true);
                let (l, grad) = loss.forward(&logits, &classes);
                let l = if inject_nan && batches == 0 {
                    f32::NAN
                } else {
                    l
                };
                if !l.is_finite() {
                    return None;
                }
                total += f64::from(l);
                batches += 1;
                let _ = net.backward(&grad);
                opt.step(net);
            }
            Some(total / batches.max(1) as f64)
        };

        while completed < total_epochs {
            let biased_phase = completed >= cfg.epochs;
            let _epoch_span = span!("train.epoch", epoch = completed, biased = biased_phase);
            let epoch_timer = Timer::start(&clock);
            // Watchdog snapshot: everything needed to replay this epoch.
            let (snap_params, snap_state) = snapshot_net(&mut net);
            let snap_opt = opt.clone();
            let snap_sched = sched.clone();
            let snap_rng = rng.state();

            let inject = cfg.fault_nan_epoch == Some(completed) && rollbacks == 0;
            let loss_fn = if biased_phase { &biased } else { &hard };
            let epoch_loss = run_epoch(&mut net, &mut rng, &mut opt, loss_fn, inject);

            let mut healthy = epoch_loss.filter(|l| l.is_finite() && net_is_finite(&mut net));
            let mut observed = f64::NAN;
            if let Some(train_loss) = healthy {
                observed = if biased_phase {
                    train_loss
                } else {
                    match &val {
                        Some(val) => validation_loss(&mut net, val, cfg.batch_size, &hard),
                        None => train_loss,
                    }
                };
                if !observed.is_finite() {
                    healthy = None;
                }
            }

            match healthy {
                Some(train_loss) => {
                    let lr = if biased_phase {
                        opt.learning_rate()
                    } else {
                        let lr = sched.observe(observed as f32);
                        opt.set_learning_rate(lr);
                        lr
                    };
                    let duration_ns = epoch_timer.elapsed_ns();
                    let duration_secs = duration_ns as f64 / 1e9;
                    history.push(EpochRecord {
                        train_loss,
                        val_loss: observed,
                        learning_rate: lr,
                        biased: biased_phase,
                        duration_secs,
                    });
                    completed += 1;
                    epochs_counter.inc();
                    epoch_hist.observe(duration_ns as f64);
                    emit(
                        "train.epoch",
                        &[
                            ("epoch", Value::from(completed - 1)),
                            ("biased", Value::from(biased_phase)),
                            ("train_loss", Value::from(train_loss)),
                            ("val_loss", Value::from(observed)),
                            ("lr", Value::from(lr)),
                            ("duration_secs", Value::from(duration_secs)),
                        ],
                    );
                    if let Some(dir) = &cfg.checkpoint_dir {
                        let due = completed.is_multiple_of(cfg.checkpoint_every)
                            || completed == total_epochs;
                        if due {
                            let (params, state) = snapshot_net(&mut net);
                            let ck = TrainCheckpoint {
                                fingerprint,
                                levels: cfg.net.levels,
                                completed_epochs: completed,
                                rollbacks,
                                params,
                                state,
                                optimizer: opt.clone(),
                                schedule: sched.clone(),
                                rng: rng.state(),
                                history: history.clone(),
                            };
                            std::fs::create_dir_all(dir).map_err(PersistError::Io)?;
                            let ck_timer = Timer::start(&clock);
                            save_checkpoint(&dir.join(checkpoint_file_name(completed)), &ck)?;
                            checkpoint_counter.inc();
                            emit(
                                "train.checkpoint",
                                &[
                                    ("epoch", Value::from(completed)),
                                    ("write_ms", Value::from(ck_timer.elapsed_ns() as f64 / 1e6)),
                                ],
                            );
                        }
                    }
                }
                None => {
                    if rollbacks >= cfg.max_rollbacks {
                        emit(
                            "train.diverged",
                            &[
                                ("epoch", Value::from(completed)),
                                ("rollbacks", Value::from(rollbacks)),
                            ],
                        );
                        return Err(TrainError::Diverged {
                            epoch: completed,
                            rollbacks,
                        });
                    }
                    rollbacks += 1;
                    restore_net(&mut net, &snap_params, &snap_state)
                        .map_err(TrainError::Checkpoint)?;
                    opt = snap_opt;
                    sched = snap_sched;
                    rng = StdRng::from_state(snap_rng);
                    sched.scale_lr(ROLLBACK_LR_FACTOR);
                    opt.set_learning_rate(sched.learning_rate());
                    rollback_counter.inc();
                    emit(
                        "train.rollback",
                        &[
                            ("epoch", Value::from(completed)),
                            ("rollback", Value::from(rollbacks)),
                            ("max_rollbacks", Value::from(cfg.max_rollbacks)),
                            ("lr", Value::from(sched.learning_rate())),
                        ],
                    );
                }
            }
        }

        self.history = history;
        self.rollbacks = rollbacks;
        let packed = PackedBnn::compile(&net);
        self.cascade = Some(Cascade::new(&packed, cfg.input_size));
        self.packed = Some(packed);
        self.net = Some(Mutex::new(net));
        Ok(())
    }

    /// Logit margins (hotspot − non-hotspot) through the float path.
    fn float_margins(&self, images: &[&BitImage]) -> Vec<f32> {
        let tensors: Vec<Tensor> = images.iter().map(|i| self.clip_to_tensor(i)).collect();
        let mut net = self.network().expect("detector is not trained");
        let mut out = Vec::with_capacity(images.len());
        for chunk in tensors.chunks(SHARD) {
            let logits = net.forward(&Tensor::stack(chunk), false);
            for i in 0..chunk.len() {
                out.push(logits.at(&[i, 1]) - logits.at(&[i, 0]));
            }
        }
        out
    }

    /// The compiled cascade (panics before training).
    fn cascade(&self) -> &Cascade {
        self.cascade.as_ref().expect("detector is not trained")
    }

    /// The one shard loop of the packed path: on rayon workers, stages
    /// each [`SHARD`]-clip shard's ±1 input in a workspace from the
    /// detector's pool and returns `run(input, clips, ws)` per shard.
    fn run_shards<T: Send>(
        &self,
        images: &[&BitImage],
        run: impl Fn(&[f32], usize, &mut Workspace) -> T + Sync,
    ) -> Vec<T> {
        let plane = self.config.input_size * self.config.input_size;
        let shards: Vec<&[&BitImage]> = images.chunks(SHARD).collect();
        shards
            .into_par_iter()
            .map(|shard| {
                let n = shard.len();
                let mut ws = self.ws_pool.checkout();
                let mut input = ws.take_f32(n * plane);
                for (img, dst) in shard.iter().zip(input.chunks_mut(plane)) {
                    dst.copy_from_slice(self.clip_to_tensor(img).as_slice());
                }
                let out = run(&input, n, &mut ws);
                ws.give_f32(input);
                self.ws_pool.restore(ws);
                out
            })
            .collect()
    }

    /// Logit margins through the packed XNOR path — the cascade's
    /// full-M confirm plan, shard-parallel.  With `profile`, each shard
    /// also times every plan step, and the merged profile comes back.
    fn packed_margins(
        &self,
        images: &[&BitImage],
        profile: bool,
    ) -> (Vec<f32>, Option<SlotProfiler>) {
        let plan = self.cascade().confirm();
        let shards = self.run_shards(images, |input, n, ws| {
            let mut prof = profile.then(|| plan.profiler());
            let mut logits = ws.take_f32(n * 2);
            match prof.as_mut() {
                Some(p) => plan.run_batch_into_profiled(input, n, ws, &mut logits, p),
                None => plan.run_batch_into(input, n, ws, &mut logits),
            }
            let margins: Vec<f32> = logits.chunks(2).map(|l| l[1] - l[0]).collect();
            ws.give_f32(logits);
            (margins, prof)
        });
        let mut merged = profile.then(|| plan.profiler());
        let mut margins = Vec::with_capacity(images.len());
        for (out, prof) in shards {
            margins.extend(out);
            if let (Some(merged), Some(prof)) = (merged.as_mut(), prof) {
                merged.merge(&prof);
            }
        }
        (margins, merged)
    }

    /// Runs the packed XNOR path over `images` with per-layer timing.
    ///
    /// Identical to the packed [`score_batch`](HotspotDetector::score_batch)
    /// — same shards, same rayon workers, same workspace pool — except
    /// each worker times every execution-plan step into its own
    /// [`SlotProfiler`]; the per-worker profilers are merged into one
    /// report covering every layer of the network (`"stem"`,
    /// `"resN.conv1"`, …, `"gap"`, `"fc"`).  Returns the logit margins
    /// alongside the merged profiler so callers get timing without a
    /// second forward pass.  The unprofiled path is untouched: when you
    /// don't call this, inference pays zero instrumentation cost.
    ///
    /// # Panics
    ///
    /// Panics when called before training.
    pub fn profile_packed_inference(&self, images: &[&BitImage]) -> (Vec<f32>, SlotProfiler) {
        let _span = span!("infer.packed_profiled", clips = images.len());
        let (margins, prof) = self.packed_margins(images, true);
        (margins, prof.expect("a profiled run returns its profile"))
    }

    /// Classifies clips through the float (training) path.
    ///
    /// # Panics
    ///
    /// Panics when called before training.
    pub fn predict_batch_float(&self, images: &[&BitImage]) -> Vec<bool> {
        self.float_margins(images)
            .into_iter()
            .map(|m| m >= 0.0)
            .collect()
    }

    /// Classifies clips through the packed XNOR path.
    ///
    /// # Panics
    ///
    /// Panics when called before training.
    pub fn predict_batch_packed(&self, images: &[&BitImage]) -> Vec<bool> {
        self.packed_margins(images, false)
            .0
            .into_iter()
            .map(|m| m >= 0.0)
            .collect()
    }

    /// Two-stage cascade classification: a fast single-bit triage pass
    /// scores every clip, and only clips whose logit margin falls
    /// inside `(-threshold, threshold)` — too close to the decision
    /// boundary to trust — are re-scored by the full M-level model.
    ///
    /// Both stages are the detector's [`Cascade`], compiled once when
    /// training ends: triage is the model capped at M = 1 (bit-for-bit
    /// the classic single-level network, since level 0 of the residual
    /// stack is exactly the old representation).  Each shard runs
    /// [`Cascade::run`].  With a single-level model, or
    /// `threshold == 0`, this is identical to
    /// [`predict_batch_packed`](BnnDetector::predict_batch_packed)'s
    /// decision at M = 1.
    ///
    /// # Panics
    ///
    /// Panics when called before training, or when `threshold` is
    /// negative or non-finite.
    pub fn classify_cascade(&self, images: &[&BitImage], threshold: f32) -> Vec<bool> {
        self.classify_cascade_with_stats(images, threshold).0
    }

    /// [`classify_cascade`](BnnDetector::classify_cascade) plus the
    /// number of clips escalated to the confirmation stage — the
    /// quantity that sets the cascade's effective throughput.
    ///
    /// # Panics
    ///
    /// As [`classify_cascade`](BnnDetector::classify_cascade).
    pub fn classify_cascade_with_stats(
        &self,
        images: &[&BitImage],
        threshold: f32,
    ) -> (Vec<bool>, usize) {
        assert!(
            threshold >= 0.0 && threshold.is_finite(),
            "cascade threshold must be finite and non-negative, got {threshold}"
        );
        let cascade = self.cascade();
        let _span = span!("infer.cascade", clips = images.len());
        let scored = self
            .run_shards(images, |input, n, ws| {
                let mut out = vec![(0.0f32, false); n];
                cascade.run(input, threshold, ws, &mut out, None);
                out
            })
            .concat();
        let escalated = scored.iter().filter(|s| s.1).count();
        trace::dispatch_event(
            "infer.cascade",
            &[
                ("clips", Value::from(images.len())),
                ("escalated", Value::from(escalated)),
                ("levels", Value::from(cascade.levels())),
            ],
        );
        (scored.iter().map(|s| s.0 >= 0.0).collect(), escalated)
    }
}

impl HotspotDetector for BnnDetector {
    fn name(&self) -> &str {
        "DAC'19 BNN (ours)"
    }

    fn fit(&mut self, clips: &[LabeledClip]) {
        assert!(!clips.is_empty(), "cannot train on zero clips");
        if let Err(e) = self.try_fit(clips) {
            panic!("training failed: {e}");
        }
    }

    fn predict_batch(&self, images: &[&BitImage]) -> Vec<bool> {
        match self.config.inference {
            InferencePath::Packed => self.predict_batch_packed(images),
            InferencePath::Float => self.predict_batch_float(images),
        }
    }

    fn score_batch(&self, images: &[&BitImage]) -> Vec<f32> {
        // The logit margin (hotspot − non-hotspot) is the natural score.
        match self.config.inference {
            InferencePath::Packed => self.packed_margins(images, false).0,
            InferencePath::Float => self.float_margins(images),
        }
    }
}

/// `true` when every parameter, gradient-free state buffer, and master
/// weight in the network is finite.
fn net_is_finite(net: &mut BnnResNet) -> bool {
    let mut ok = true;
    net.for_each_param(&mut |p| {
        if ok && !p.value.as_slice().iter().all(|v| v.is_finite()) {
            ok = false;
        }
    });
    if ok {
        net.for_each_state(&mut |s| {
            if ok && !s.iter().all(|v| v.is_finite()) {
                ok = false;
            }
        });
    }
    ok
}

/// Repeats hotspot examples until the class ratio is at most 1:2.
/// The flip augmentation de-duplicates the copies during training.
fn oversample_hotspots(ds: ImageDataset) -> ImageDataset {
    let (nhs, hs) = ds.class_counts();
    if hs == 0 || nhs <= 2 * hs {
        return ds;
    }
    let repeats = nhs / (2 * hs);
    let mut out = ImageDataset::new();
    for (img, &label) in ds.images().iter().zip(ds.labels()) {
        out.push(img.clone(), label);
        if label == 1 {
            for _ in 0..repeats {
                out.push(img.clone(), 1);
            }
        }
    }
    out
}

fn validation_loss(
    net: &mut BnnResNet,
    val: &ImageDataset,
    batch_size: usize,
    loss: &SoftmaxCrossEntropy,
) -> f64 {
    let mut total = 0.0;
    let mut batches = 0usize;
    let images = val.images();
    let labels = val.labels();
    let mut i = 0;
    while i < images.len() {
        let end = (i + batch_size).min(images.len());
        let batch = Tensor::stack(&images[i..end]);
        let logits = net.forward(&batch, false);
        let (l, _) = loss.forward(&logits, &labels[i..end]);
        total += f64::from(l);
        batches += 1;
        i = end;
    }
    total / batches.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_layout_gen::PatternFamily;

    /// Dense vs. sparse stripe clips: a learnable toy problem.
    fn toy_clips(n: usize, side: usize) -> Vec<LabeledClip> {
        (0..n)
            .map(|i| {
                let hotspot = i % 2 == 0;
                let mut img = BitImage::new(side, side);
                let step = if hotspot { 4 } else { 12 };
                let phase = i % 3;
                let mut y = phase;
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

    #[test]
    fn trains_and_beats_chance_on_toy_problem() {
        let clips = toy_clips(40, 32);
        let mut det = BnnDetector::new(BnnTrainConfig::fast());
        det.fit(&clips);
        let images: Vec<&BitImage> = clips.iter().map(|c| &c.image).collect();
        let preds = det.predict_batch_float(&images);
        let correct = preds
            .iter()
            .zip(&clips)
            .filter(|(p, c)| **p == c.hotspot)
            .count();
        assert!(correct > 30, "float path: {correct}/40 correct");
    }

    #[test]
    fn packed_and_float_paths_mostly_agree() {
        let clips = toy_clips(40, 32);
        let mut det = BnnDetector::new(BnnTrainConfig::fast());
        det.fit(&clips);
        let images: Vec<&BitImage> = clips.iter().map(|c| &c.image).collect();
        let float_preds = det.predict_batch_float(&images);
        let packed_preds = det.predict_batch_packed(&images);
        let agree = float_preds
            .iter()
            .zip(&packed_preds)
            .filter(|(a, b)| a == b)
            .count();
        assert!(agree >= 32, "only {agree}/40 agreement");
    }

    #[test]
    fn cascade_extremes_match_triage_and_full_paths() {
        let clips = toy_clips(24, 32);
        let mut cfg = BnnTrainConfig::fast();
        cfg.net.levels = 2;
        cfg.epochs = 4;
        cfg.bias_epochs = 1;
        let mut det = BnnDetector::new(cfg);
        det.fit(&clips);
        assert_eq!(det.packed().unwrap().levels(), 2);
        let images: Vec<&BitImage> = clips.iter().map(|c| &c.image).collect();

        // An infinite-for-practical-purposes threshold escalates every
        // clip, so the cascade must reproduce the full M-level path.
        let full = det.predict_batch_packed(&images);
        let (all, escalated) = det.classify_cascade_with_stats(&images, f32::MAX);
        assert_eq!(escalated, images.len());
        assert_eq!(all, full);

        // Threshold zero escalates nothing: pure single-bit triage.
        let (_, escalated) = det.classify_cascade_with_stats(&images, 0.0);
        assert_eq!(escalated, 0);
    }

    #[test]
    fn cascade_on_single_level_model_never_escalates() {
        let clips = toy_clips(20, 32);
        let mut cfg = BnnTrainConfig::fast();
        cfg.epochs = 3;
        cfg.bias_epochs = 0;
        let mut det = BnnDetector::new(cfg);
        det.fit(&clips);
        let images: Vec<&BitImage> = clips.iter().map(|c| &c.image).collect();
        let (preds, escalated) = det.classify_cascade_with_stats(&images, f32::MAX);
        assert_eq!(escalated, 0, "M=1 has no confirmation stage");
        assert_eq!(preds, det.predict_batch_packed(&images));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn cascade_rejects_negative_threshold() {
        let clips = toy_clips(20, 32);
        let mut cfg = BnnTrainConfig::fast();
        cfg.epochs = 2;
        cfg.bias_epochs = 0;
        let mut det = BnnDetector::new(cfg);
        det.fit(&clips);
        let images: Vec<&BitImage> = clips.iter().map(|c| &c.image).collect();
        let _ = det.classify_cascade(&images, -1.0);
    }

    #[test]
    fn downsampling_to_input_size() {
        let det = BnnDetector::new(BnnTrainConfig::fast()); // input 32
        let mut img = BitImage::new(64, 64);
        img.fill_row_span(0, 0, 64);
        let t = det.clip_to_tensor(&img);
        assert_eq!(t.shape(), &[1, 32, 32]);
        // Values are ±1.
        assert!(t.as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
        // The filled row survives (any-coverage downsampling).
        assert_eq!(t.at(&[0, 0, 0]), 1.0);
    }

    #[test]
    fn history_records_every_epoch() {
        let clips = toy_clips(24, 32);
        let mut cfg = BnnTrainConfig::fast();
        cfg.epochs = 3;
        cfg.bias_epochs = 2;
        let mut det = BnnDetector::new(cfg);
        det.fit(&clips);
        let hist = det.history();
        assert_eq!(hist.len(), 5);
        assert!(hist[..3].iter().all(|e| !e.biased));
        assert!(hist[3..].iter().all(|e| e.biased));
        assert!(hist
            .iter()
            .all(|e| e.train_loss.is_finite() && e.learning_rate > 0.0));
        // Wall-clock durations: recorded, finite, non-negative, and
        // their sum is exactly what total_training_secs reports.
        assert!(hist
            .iter()
            .all(|e| e.duration_secs.is_finite() && e.duration_secs >= 0.0));
        let sum: f64 = hist.iter().map(|e| e.duration_secs).sum();
        assert_eq!(det.total_training_secs(), sum);
        assert_eq!(det.rollbacks(), 0);
    }

    #[test]
    fn profiled_inference_matches_and_covers_all_layers() {
        let clips = toy_clips(20, 32);
        let mut det = BnnDetector::new(BnnTrainConfig::fast());
        det.fit(&clips);
        let images: Vec<&BitImage> = clips.iter().map(|c| &c.image).collect();
        let plain = det.score_batch(&images);
        let (margins, prof) = det.profile_packed_inference(&images);
        assert_eq!(margins, plain, "profiling must not change the scores");
        let report = prof.report();
        assert_eq!(report[0].name, "stem");
        assert_eq!(report[report.len() - 1].name, "fc");
        // Every slot ran once per shard (20 clips < SHARD → one shard).
        assert!(report.iter().all(|s| s.calls == 1), "{report:?}");
        assert!(prof.total_ns() > 0 || report.iter().all(|s| s.total_ns == 0));
    }

    #[test]
    fn same_trajectory_ignores_duration_only() {
        let a = EpochRecord {
            train_loss: 0.5,
            val_loss: 0.6,
            learning_rate: 0.01,
            biased: false,
            duration_secs: 1.0,
        };
        let mut b = a;
        b.duration_secs = 99.0;
        assert!(a.same_trajectory(&b));
        b.train_loss += 1e-12;
        assert!(!a.same_trajectory(&b));
    }

    #[test]
    fn oversampling_balances_minority_class() {
        // 2 hotspots vs 22 clean: without balancing the BNN would see
        // ~8% positives; with it the effective ratio is ≥ 1:3.
        let mut clips = toy_clips(24, 32);
        for (i, c) in clips.iter_mut().enumerate() {
            c.hotspot = i < 2; // first two only
        }
        let mut cfg = BnnTrainConfig::fast();
        cfg.epochs = 2;
        cfg.validation_fraction = 0.1;
        let mut det = BnnDetector::new(cfg);
        det.fit(&clips); // must not panic; classes both present post-split
        assert!(det.packed().is_some());
    }

    #[test]
    #[should_panic(expected = "multiple of the input size")]
    fn rejects_incompatible_clip_size() {
        let det = BnnDetector::new(BnnTrainConfig::fast());
        let _ = det.clip_to_tensor(&BitImage::new(48, 48));
    }

    #[test]
    #[should_panic(expected = "not trained")]
    fn predict_before_fit_panics() {
        let det = BnnDetector::new(BnnTrainConfig::fast());
        let _ = det.predict_batch_packed(&[&BitImage::new(32, 32)]);
    }

    #[test]
    #[should_panic(expected = "must match the network config")]
    fn config_mismatch_rejected() {
        let mut cfg = BnnTrainConfig::fast();
        cfg.input_size = 64; // net still expects 32
        let _ = BnnDetector::new(cfg);
    }

    #[test]
    fn validate_returns_typed_errors() {
        let ok = BnnTrainConfig::fast();
        assert_eq!(ok.validate(), Ok(()));

        let mut c = ok.clone();
        c.input_size = 64;
        assert!(matches!(
            c.validate(),
            Err(TrainConfigError::InputSizeMismatch {
                detector: 64,
                net: 32
            })
        ));

        let mut c = ok.clone();
        c.batch_size = 0;
        assert_eq!(c.validate(), Err(TrainConfigError::ZeroBatchSize));

        let mut c = ok.clone();
        c.epochs = 0;
        c.bias_epochs = 0;
        assert_eq!(c.validate(), Err(TrainConfigError::NoEpochs));

        let mut c = ok.clone();
        c.learning_rate = f32::NAN;
        assert!(matches!(
            c.validate(),
            Err(TrainConfigError::BadLearningRate(_))
        ));

        let mut c = ok.clone();
        c.lr_decay = 1.0;
        assert!(matches!(c.validate(), Err(TrainConfigError::BadLrDecay(_))));

        let mut c = ok.clone();
        c.lr_patience = 0;
        assert_eq!(c.validate(), Err(TrainConfigError::ZeroLrPatience));

        let mut c = ok.clone();
        c.validation_fraction = 1.0;
        assert!(matches!(
            c.validate(),
            Err(TrainConfigError::BadValidationFraction(_))
        ));

        let mut c = ok.clone();
        c.epsilon = -0.1;
        assert!(matches!(c.validate(), Err(TrainConfigError::BadEpsilon(_))));

        let mut c = ok.clone();
        c.checkpoint_every = 0;
        assert_eq!(c.validate(), Err(TrainConfigError::ZeroCheckpointCadence));

        // try_new surfaces the same rejection without panicking.
        let mut c = ok.clone();
        c.input_size = 0;
        assert!(matches!(
            BnnDetector::try_new(c),
            Err(TrainConfigError::ZeroInputSize)
        ));
    }

    #[test]
    fn try_fit_rejects_empty_input() {
        let mut det = BnnDetector::new(BnnTrainConfig::fast());
        assert!(matches!(det.try_fit(&[]), Err(TrainError::NoData)));
        // And the message matches the legacy panic text.
        assert_eq!(TrainError::NoData.to_string(), "cannot train on zero clips");
    }
}
