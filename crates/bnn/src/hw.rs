//! First-order hardware cost model for the packed BNN.
//!
//! The paper closes by noting that BNNs are "more compatible with
//! digital circuits" and anticipating hardware-accelerated detectors
//! (its refs \[30\]–\[32\] are FPGA BNN accelerators).  This module
//! provides the planning-level estimate such a port starts from: given
//! the architecture summary of a [`BnnResNet`](crate::BnnResNet), it
//! derives weight-memory, logic and cycle-count figures for a simple
//! fully-pipelined XNOR-popcount datapath.
//!
//! The model is deliberately first-order — the kind of estimate used to
//! size a part, not to sign off timing:
//!
//! * every binary MAC is one XNOR plus its share of a popcount tree;
//! * a `lanes`-wide datapath retires `64 × lanes` binary MACs per cycle;
//! * binary weights live in on-chip RAM (1 bit each), batch-norm
//!   affines and scale factors in 32-bit words;
//! * float ops (GAP, dense head, scale multiplies) run on a scalar
//!   multiply–accumulate unit, one op per cycle.

use crate::kernels::{active_backend, KernelBackend};
use crate::model::LayerSummary;
use serde::{Deserialize, Serialize};

/// What the software XNOR kernel dispatcher resolved to on this CPU —
/// the software analogue of the [`HwConfig`] datapath description.
/// Benchmarks embed this next to their timings so a recorded number can
/// be traced to the inner loop that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchReport {
    /// Backend every [`ExecPlan`](crate::ExecPlan) compiled via
    /// [`PackedBnn::plan`](crate::PackedBnn::plan) dispatches to.
    pub active: KernelBackend,
    /// All backends this CPU supports (scalar and SWAR are always
    /// present; SIMD entries appear per `is_x86_feature_detected!`).
    pub available: Vec<KernelBackend>,
    /// 64-bit words the active backend's inner loop consumes per
    /// iteration.
    pub u64_lanes: usize,
}

impl DispatchReport {
    /// One-line human-readable form, e.g.
    /// `kernel backend: avx2 (4x u64/iter; available: scalar, ssse3, avx2)`.
    pub fn summary(&self) -> String {
        let avail: Vec<&str> = self.available.iter().map(|b| b.name()).collect();
        format!(
            "kernel backend: {} ({}x u64/iter; available: {})",
            self.active.name(),
            self.u64_lanes,
            avail.join(", ")
        )
    }
}

/// Snapshot of the process-wide kernel dispatch decision (see
/// [`active_backend`]).
pub fn dispatch_report() -> DispatchReport {
    let active = active_backend();
    DispatchReport {
        active,
        available: KernelBackend::available(),
        u64_lanes: active.u64_lanes(),
    }
}

/// Datapath parameters of the modelled accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HwConfig {
    /// 64-bit XNOR/popcount lanes operating in parallel.
    pub lanes: usize,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// LUTs charged per 64-bit XNOR + popcount lane (popcount tree of
    /// 64 inputs ≈ 70 6-LUTs plus control).
    pub luts_per_lane: usize,
}

impl Default for HwConfig {
    /// A small-FPGA operating point: 8 lanes at 200 MHz.
    fn default() -> Self {
        HwConfig {
            lanes: 8,
            clock_mhz: 200.0,
            luts_per_lane: 96,
        }
    }
}

/// Resource and latency estimate for one network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HwEstimate {
    /// Bits of on-chip weight memory (1 bit per binary weight,
    /// 32 per float parameter).
    pub weight_bits: u64,
    /// LUT count for the XNOR/popcount datapath.
    pub datapath_luts: u64,
    /// Cycles to classify one clip.
    pub cycles_per_clip: u64,
    /// Clips classified per second at the configured clock.
    pub clips_per_second: f64,
}

/// Estimates hardware cost from a network's layer summary
/// (see [`BnnResNet::summary`](crate::BnnResNet::summary)).
///
/// # Panics
///
/// Panics when `config.lanes` is zero or the clock is not positive.
///
/// # Example
///
/// ```
/// use hotspot_bnn::{estimate_hardware, BnnResNet, HwConfig, NetConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = BnnResNet::new(&NetConfig::paper_12layer(), &mut rng);
/// let est = estimate_hardware(&net.summary(), &HwConfig::default());
/// assert!(est.clips_per_second > 100.0);
/// ```
pub fn estimate_hardware(summary: &[LayerSummary], config: &HwConfig) -> HwEstimate {
    assert!(config.lanes > 0, "need at least one lane");
    assert!(config.clock_mhz > 0.0, "clock must be positive");

    let mut weight_bits = 0u64;
    let mut binary_macs = 0u64;
    let mut float_ops = 0u64;
    for layer in summary {
        if layer.binary_ops > 0 {
            // Binary layer: 1 bit per weight; BN affine parameters are
            // the `2 * c_in` leading params, stored at 32 bits.
            // The summary folds them together, so approximate: weights
            // dominate; charge everything 1 bit plus a 32-bit affine
            // pair per output channel.
            weight_bits +=
                layer.params as u64 + 64 * layer.output_shape.first().copied().unwrap_or(0) as u64;
            binary_macs += layer.binary_ops;
        } else {
            weight_bits += 32 * layer.params as u64;
            float_ops += layer.float_ops;
        }
    }
    // Per-pixel scale multiplies for the factored activation scaling:
    // one float multiply per binary-layer output element ≈ already
    // inside float_ops? They are not; charge one per 64 binary MACs as
    // a coarse stand-in.
    let scale_ops = binary_macs / 64;

    let macs_per_cycle = (64 * config.lanes) as u64;
    let cycles_binary = binary_macs.div_ceil(macs_per_cycle);
    let cycles_float = float_ops + scale_ops;
    let cycles = cycles_binary + cycles_float;
    let clips_per_second = config.clock_mhz * 1e6 / cycles as f64;

    HwEstimate {
        weight_bits,
        datapath_luts: (config.lanes * config.luts_per_lane) as u64,
        cycles_per_clip: cycles,
        clips_per_second,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BnnResNet, NetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_summary() -> Vec<LayerSummary> {
        let mut rng = StdRng::seed_from_u64(0);
        BnnResNet::new(&NetConfig::paper_12layer(), &mut rng).summary()
    }

    #[test]
    fn weight_memory_fits_small_fpga() {
        let est = estimate_hardware(&paper_summary(), &HwConfig::default());
        // ~155k binary weights → well under 1 Mbit of weight storage.
        assert!(
            est.weight_bits < 1_000_000,
            "weight bits {}",
            est.weight_bits
        );
        assert!(est.weight_bits > 100_000);
    }

    #[test]
    fn more_lanes_means_fewer_cycles() {
        let summary = paper_summary();
        let slow = estimate_hardware(
            &summary,
            &HwConfig {
                lanes: 1,
                ..HwConfig::default()
            },
        );
        let fast = estimate_hardware(
            &summary,
            &HwConfig {
                lanes: 16,
                ..HwConfig::default()
            },
        );
        assert!(fast.cycles_per_clip < slow.cycles_per_clip);
        assert!(fast.datapath_luts > slow.datapath_luts);
        // Throughput improves, Amdahl-limited by the scalar float
        // stage that lanes do not parallelize.
        assert!(fast.clips_per_second > 1.5 * slow.clips_per_second);
    }

    #[test]
    fn clock_scales_throughput_linearly() {
        let summary = paper_summary();
        let base = estimate_hardware(
            &summary,
            &HwConfig {
                clock_mhz: 100.0,
                ..HwConfig::default()
            },
        );
        let double = estimate_hardware(
            &summary,
            &HwConfig {
                clock_mhz: 200.0,
                ..HwConfig::default()
            },
        );
        assert_eq!(base.cycles_per_clip, double.cycles_per_clip);
        assert!((double.clips_per_second / base.clips_per_second - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        estimate_hardware(
            &paper_summary(),
            &HwConfig {
                lanes: 0,
                ..HwConfig::default()
            },
        );
    }
}
