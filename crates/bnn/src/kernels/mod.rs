//! Runtime-dispatched XNOR+popcount kernels.
//!
//! The packed convolution spends essentially all of its time in one
//! primitive: the bit-sliced popcount-GEMM block of the
//! [`gemm::PopcountGemm`] trait (see `kernels/gemm.rs`),
//!
//! ```text
//! acc[f*np + p] += Σ_j popcount(a[f*kwords + j] ^ b[j*np + p])
//! ```
//!
//! over densely repacked filter rows (A) and receptive-field columns
//! (B).  It runs every output pixel of every conv at every batch size,
//! border pixels included (their out-of-bounds taps are zero B bits,
//! corrected exactly in the epilogue); the fused binarize-pack front
//! ([`pack_affine_mean`]) has its own vector bodies.
//!
//! Five implementations exist, selected **once** per
//! [`ExecPlan`](crate::plan::ExecPlan) compile (not per call):
//!
//! * [`KernelBackend::Scalar`] — the always-correct reference: the
//!   trait's default scalar loop over `u64::count_ones`.  At the
//!   baseline x86-64 target (SSE2 only) that is a shift-and-mask bit
//!   count, not the `popcnt` instruction, which needs the `popcnt`
//!   target feature at compile time (`-C target-feature=+popcnt` or
//!   `-C target-cpu=native`); runtime dispatch does not change it.
//! * [`KernelBackend::Ssse3`] — `pshufb` nibble-lookup popcount on
//!   128-bit lanes (`std::arch`, gated by `is_x86_feature_detected!`),
//!   run one filter row span at a time.
//! * [`KernelBackend::Avx2`] — the same lookup on 256-bit lanes in a
//!   register-blocked microkernel, 8 pixels × up to 4 filters.
//! * [`KernelBackend::Avx512`] — native per-lane popcount
//!   (`vpopcntdq`) on 512-bit lanes, 16 pixels × up to 4 filters;
//!   requires both `avx512f` and `avx512vpopcntdq`.
//! * [`KernelBackend::Neon`] — AArch64 `vcntq_u8` byte popcount with
//!   pairwise widening reduction, 4 pixels × up to 4 filters.
//!
//! All backends compute identical integer counts, so every backend
//! produces **bit-identical logits** (enforced by the
//! `kernel_backends_*` and `plan_*` property tests).  [`active_backend`]
//! picks the best supported backend at first use; the
//! `HOTSPOT_KERNEL_BACKEND` environment variable
//! (`scalar`/`ssse3`/`avx2`/`avx512`/`neon`) overrides the choice for
//! benchmarking and CI equivalence runs.

#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod gemm;
pub mod geom;
#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use gemm::{gemm_backend, PopcountGemm};
pub use geom::ConvGeometry;

use std::sync::OnceLock;

/// One of the compiled-in XNOR kernel implementations (see module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// One-word-at-a-time reference loop.
    Scalar,
    /// SSE `pshufb` nibble-lookup popcount (x86-64 only).
    Ssse3,
    /// AVX2 nibble-lookup popcount, 4 `u64` words per vector
    /// (x86-64 only).
    Avx2,
    /// AVX-512 native `vpopcntdq` popcount, 8 `u64` words per vector
    /// (x86-64 only; needs `avx512f` + `avx512vpopcntdq`).
    Avx512,
    /// AArch64 NEON `vcntq_u8` byte popcount, 2 `u64` words per vector
    /// (aarch64 only).
    Neon,
}

impl KernelBackend {
    /// Stable lowercase name (also the `HOTSPOT_KERNEL_BACKEND`
    /// spelling).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Ssse3 => "ssse3",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Neon => "neon",
        }
    }

    /// Parses a backend name as spelled by [`KernelBackend::name`].
    pub fn parse(s: &str) -> Option<KernelBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "ssse3" => Some(KernelBackend::Ssse3),
            "avx2" => Some(KernelBackend::Avx2),
            "avx512" => Some(KernelBackend::Avx512),
            "neon" => Some(KernelBackend::Neon),
            _ => None,
        }
    }

    /// `u64` words processed per inner-loop iteration (reporting).
    pub fn u64_lanes(self) -> usize {
        match self {
            KernelBackend::Scalar => 1,
            KernelBackend::Avx2 => 4,
            KernelBackend::Ssse3 | KernelBackend::Neon => 2,
            KernelBackend::Avx512 => 8,
        }
    }

    /// Whether this backend can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every backend the current CPU supports, reference first.
    pub fn available() -> Vec<KernelBackend> {
        [
            KernelBackend::Scalar,
            KernelBackend::Ssse3,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
            KernelBackend::Neon,
        ]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
    }

    /// The best supported backend on this CPU.
    ///
    /// Preference order: AVX-512 > AVX2 > SSSE3 > NEON > scalar.
    pub fn detect() -> KernelBackend {
        [
            KernelBackend::Avx512,
            KernelBackend::Avx2,
            KernelBackend::Ssse3,
            KernelBackend::Neon,
        ]
        .into_iter()
        .find(|b| b.is_supported())
        .unwrap_or(KernelBackend::Scalar)
    }
}

/// Resolves a `HOTSPOT_KERNEL_BACKEND` override (`None` = unset) to
/// the backend to dispatch, falling back to [`KernelBackend::detect`]
/// on an unusable value.  Every fallback is reported twice: as a
/// structured `kernels.backend_fallback` telemetry event (so headless
/// runs surface the misconfiguration to whatever subscriber is
/// installed) and as a stderr line for interactive use.
fn resolve_backend(requested: Option<&str>) -> KernelBackend {
    let Some(name) = requested else {
        return KernelBackend::detect();
    };
    let fallback = |reason: &'static str| {
        let detected = KernelBackend::detect();
        hotspot_telemetry::trace::dispatch_event(
            "kernels.backend_fallback",
            &[
                ("requested", hotspot_telemetry::Value::from(name)),
                ("reason", hotspot_telemetry::Value::from(reason)),
                ("using", hotspot_telemetry::Value::from(detected.name())),
            ],
        );
        detected
    };
    match KernelBackend::parse(name) {
        Some(b) if b.is_supported() => b,
        Some(b) => {
            let detected = fallback("unsupported_on_cpu");
            eprintln!(
                "HOTSPOT_KERNEL_BACKEND={} not supported on this CPU; using {}",
                b.name(),
                detected.name()
            );
            detected
        }
        None => {
            let detected = fallback("unrecognized_value");
            eprintln!(
                "unknown HOTSPOT_KERNEL_BACKEND={name:?}; using {}",
                detected.name()
            );
            detected
        }
    }
}

/// The process-wide dispatched backend: `HOTSPOT_KERNEL_BACKEND` when
/// set to a supported backend name, otherwise [`KernelBackend::detect`]
/// — resolved once and cached.  An unrecognized or unsupported value
/// emits a `kernels.backend_fallback` telemetry event instead of being
/// silently replaced by auto-detection.
pub fn active_backend() -> KernelBackend {
    static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();
    *ACTIVE.get_or_init(|| resolve_backend(std::env::var("HOTSPOT_KERNEL_BACKEND").ok().as_deref()))
}

/// Backend-dispatched form of
/// [`pack_affine_mean_into`](crate::bitpack::pack_affine_mean_into):
/// the fused batch-norm affine + sign-pack + `|v|` channel-mean pass
/// that fronts every scaled packed convolution.  On AVX2/AVX-512 with
/// single-word channels (`c <= 64`) the per-pixel loop runs 8/16 f32
/// lanes wide; every other backend or layout falls through to the
/// portable loop.
///
/// Bit-exact by construction: the channel loop stays outer and
/// in-order (each pixel's mean accumulates channels ascending, as the
/// portable pass does), the vector bodies use separate multiply and
/// add (no FMA contraction), `|v|` is the same sign-bit clear, and the
/// `>= 0` compare is ordered-quiet — so packed words and mean f32s are
/// identical to the scalar reference on every input including NaN and
/// `-0.0` (covered by the `pack_affine_mean_backends_bit_identical`
/// test).
///
/// # Panics
///
/// Panics when a slice length disagrees with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn pack_affine_mean(
    backend: KernelBackend,
    item: &[f32],
    c: usize,
    h: usize,
    w: usize,
    scale: &[f32],
    shift: &[f32],
    data: &mut [u64],
    mean: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if c <= 64 && matches!(backend, KernelBackend::Avx2 | KernelBackend::Avx512) {
        let plane = h * w;
        assert_eq!(item.len(), c * plane, "source length mismatch");
        assert_eq!(data.len(), plane, "packed buffer length mismatch");
        assert_eq!(mean.len(), plane, "mean buffer length mismatch");
        assert!(
            scale.len() == c && shift.len() == c,
            "one affine per channel"
        );
        data.fill(0);
        mean.fill(0.0);
        for ci in 0..c {
            let src = &item[ci * plane..(ci + 1) * plane];
            // SAFETY: backends are only selected when
            // `is_x86_feature_detected!` confirmed the feature.
            match backend {
                KernelBackend::Avx512 => unsafe {
                    avx512::pack_affine_channel_avx512(
                        src, scale[ci], shift[ci], ci as u32, data, mean,
                    )
                },
                _ => unsafe {
                    x86::pack_affine_channel_avx2(src, scale[ci], shift[ci], ci as u32, data, mean)
                },
            }
        }
        let inv_c = 1.0 / c as f32;
        for m in mean.iter_mut() {
            *m *= inv_c;
        }
        return;
    }
    let _ = backend;
    crate::bitpack::pack_affine_mean_into(item, c, h, w, scale, shift, data, mean);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_arch = "x86_64")]
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s ^ (s >> 31)
            })
            .collect()
    }

    #[test]
    fn resolve_backend_reports_bad_values_via_telemetry() {
        use hotspot_telemetry::{trace, CollectingSubscriber, Record};
        use std::sync::Arc;

        // Unset and valid values resolve silently.
        assert_eq!(resolve_backend(None), KernelBackend::detect());
        assert_eq!(resolve_backend(Some("scalar")), KernelBackend::Scalar);

        // "swar" named a backend that has since been deleted; it now
        // takes the same fallback as any unknown name.
        for bad in ["quantum", "swar"] {
            let sink = Arc::new(CollectingSubscriber::new());
            let resolved = {
                let _scope = trace::set_thread_subscriber(sink.clone());
                resolve_backend(Some(bad))
            };
            assert_eq!(resolved, KernelBackend::detect(), "{bad}");
            let fallback_events: Vec<_> = sink
                .records()
                .into_iter()
                .filter_map(|r| match r {
                    Record::Event { name, fields, .. } if name == "kernels.backend_fallback" => {
                        Some(fields)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(
                fallback_events.len(),
                1,
                "exactly one fallback event for {bad}"
            );
            let fields = &fallback_events[0];
            let get = |key: &str| {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| format!("{v:?}"))
                    .unwrap_or_default()
            };
            assert!(get("requested").contains(bad), "{fields:?}");
            assert!(get("reason").contains("unrecognized_value"), "{fields:?}");
        }
    }

    /// `acc[i] += popcount(src[i] ^ w)`, one word at a time.
    #[cfg(target_arch = "x86_64")]
    fn accum_reference(acc: &mut [i32], src: &[u64], w: u64) {
        for (a, &s) in acc.iter_mut().zip(src) {
            *a += (s ^ w).count_ones() as i32;
        }
    }

    /// The SSSE3 span kernels behind `Ssse3Gemm` match a scalar loop at
    /// every tail length of their two-word vector body.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accum_backends_match_scalar() {
        if !KernelBackend::Ssse3.is_supported() {
            return;
        }
        let src = words(3, 133);
        let w = 0xdead_beef_f00d_cafe;
        for len in [0, 1, 2, 3, 5, 132, 133] {
            let mut expect = vec![5i32; len];
            accum_reference(&mut expect, &src[..len], w);
            let mut acc = vec![5i32; len];
            // SAFETY: SSSE3 support checked above.
            unsafe { x86::accum_xor_popcount_ssse3(&mut acc, &src[..len], w) };
            assert_eq!(acc, expect, "len {len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accum_x4_matches_four_single_accums() {
        if !KernelBackend::Ssse3.is_supported() {
            return;
        }
        let src = words(4, 67);
        let ws4 = [1u64, !0u64, 0x5555_5555_5555_5555, 0x0123_4567_89ab_cdef];
        let mut expect = vec![vec![0i32; src.len()]; 4];
        for (f, e) in expect.iter_mut().enumerate() {
            accum_reference(e, &src, ws4[f]);
        }
        let mut acc = vec![vec![0i32; src.len()]; 4];
        let [a0, a1, a2, a3] = &mut acc[..] else {
            unreachable!()
        };
        // SAFETY: SSSE3 support checked above.
        unsafe { x86::accum_xor_popcount_x4_ssse3([a0, a1, a2, a3], &src, ws4) };
        assert_eq!(acc, expect);
    }

    #[test]
    fn pack_affine_mean_backends_bit_identical() {
        // Shapes chosen to exercise the vector body, the scalar tail
        // (plane % 16 != 0), the channel-bit sweep, and the multi-word
        // fallback (c > 64); values cross zero and include -0.0 and
        // exact zeros so the ordered >= compare is pinned down.
        for (c, h, w) in [(1, 7, 9), (3, 16, 16), (8, 13, 5), (64, 4, 5), (65, 3, 3)] {
            let plane = h * w;
            let mut s = 0x9e3779b97f4a7c15u64;
            let mut nextf = move || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as i32 % 1000) as f32 / 250.0 - 2.0
            };
            let mut item: Vec<f32> = (0..c * plane).map(|_| nextf()).collect();
            item[0] = -0.0;
            item[plane / 2] = 0.0;
            let scale: Vec<f32> = (0..c).map(|_| nextf().abs() + 0.1).collect();
            let shift: Vec<f32> = (0..c).map(|_| nextf() * 0.2).collect();
            let wpp = c.div_ceil(64);
            let mut edata = vec![!0u64; plane * wpp];
            let mut emean = vec![9.0f32; plane];
            crate::bitpack::pack_affine_mean_into(
                &item, c, h, w, &scale, &shift, &mut edata, &mut emean,
            );
            for backend in KernelBackend::available() {
                let mut data = vec![!0u64; plane * wpp];
                let mut mean = vec![9.0f32; plane];
                pack_affine_mean(
                    backend, &item, c, h, w, &scale, &shift, &mut data, &mut mean,
                );
                assert_eq!(data, edata, "{} c={c} {h}x{w} words", backend.name());
                let eb: Vec<u32> = emean.iter().map(|v| v.to_bits()).collect();
                let mb: Vec<u32> = mean.iter().map(|v| v.to_bits()).collect();
                assert_eq!(mb, eb, "{} c={c} {h}x{w} mean", backend.name());
            }
        }
    }

    #[test]
    fn detect_is_supported_and_named() {
        let b = KernelBackend::detect();
        assert!(b.is_supported());
        assert_eq!(KernelBackend::parse(b.name()), Some(b));
        assert!(KernelBackend::available().contains(&KernelBackend::Scalar));
        assert!(active_backend().is_supported());
        assert!(b.u64_lanes() >= 1);
    }
}
