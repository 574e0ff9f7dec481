//! Binarized residual neural networks for layout hotspot detection —
//! the core contribution of the DAC'19 paper this workspace reproduces.
//!
//! The crate provides both halves of a BNN system:
//!
//! * **Training path** (float-simulated binarization, exactly the
//!   paper's Algorithm 1): [`BinConv2d`] binarizes weights to
//!   `α_W · sign(W)` with `α_W = ‖W‖₁/n` and activations to
//!   `α_X ⊙ sign(X)` with the per-channel box-filtered scale of Eq. 14,
//!   runs a standard float convolution, and back-propagates through the
//!   `sign` with the straight-through estimator of Eq. 10–13.
//!   [`BnnBlock`] composes BatchNorm → Binarize → BinaryConv (Fig. 3),
//!   [`BinaryResidualBlock`] adds the shortcut connections, and
//!   [`BnnResNet`] assembles the paper's 12-layer network (Fig. 2).
//!
//! * **Inference path** (bit-packed): [`BitTensor`] packs ±1
//!   activations 64-per-word along the channel axis and
//!   [`xnor_conv2d`] evaluates binary convolution with XNOR +
//!   popcount — one word operation replaces 64 multiply–accumulates,
//!   which is where the paper's 8× speed-up over a float CNN comes
//!   from.  [`PackedBnn`] compiles a trained [`BnnResNet`] into this
//!   form.
//!
//! # Example
//!
//! ```
//! use hotspot_bnn::{BnnResNet, NetConfig};
//! use hotspot_nn::Layer;
//! use hotspot_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = BnnResNet::new(&NetConfig::tiny(16), &mut rng);
//! let clip = Tensor::ones(&[1, 1, 16, 16]); // a binary layout clip
//! let logits = net.forward(&clip, false);
//! assert_eq!(logits.shape(), &[1, 2]);
//! ```

pub mod bitpack;
pub mod block;
pub mod hw;
pub mod kernels;
pub mod layer;
pub mod model;
pub mod packed;
pub mod plan;
pub mod scaling;
pub mod scan;
pub mod slot;
pub mod ste;
pub mod wire;

pub use bitpack::{
    exact_sign_rule, pack_affine_mean_into, pack_rules_into, pack_signs_into, BitFilter, BitTensor,
    SignRule,
};
pub use block::{BinaryResidualBlock, BnnBlock};
pub use hw::{dispatch_report, estimate_hardware, DispatchReport, HwConfig, HwEstimate};
pub use kernels::{active_backend, gemm_backend, ConvGeometry, KernelBackend, PopcountGemm};
pub use layer::BinConv2d;
pub use model::{BnnResNet, LayerSummary, NetConfig, MAX_LEVELS};
pub use packed::{
    xnor_conv2d, xnor_conv2d_backend, ConvPrep, PackedBnn, PackedConv, PackedResidual,
};
pub use plan::ExecPlan;
pub use scaling::{
    box_filter, box_filter_into, box_filter_sliding_into, input_scale_per_channel,
    input_scale_shared, output_scale_shared, output_scale_shared_into, residual_weight_levels,
    weight_scale, ScalingMode,
};
pub use scan::{merge_hits, scan_grid, Region, ScanConfig, ScanReport, Scanner, WindowVerdict};
pub use slot::ModelSlot;
pub use ste::{residual_binarize, sign_tensor, ste_grad};
