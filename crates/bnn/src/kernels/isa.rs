//! One source body, compiled once per dispatched instruction set.
//!
//! The release build targets the x86-64 baseline (SSE2), so a plain
//! slice sweep compiles to 128-bit code unless the function it lands in
//! enables wider features.  A [`Pass`] is a body written once as plain
//! Rust; [`run`] enters it through one `#[target_feature]` function per
//! x86 backend (AVX2, AVX-512), and because every pass body and the
//! helpers on its hot path are `#[inline(always)]`, the whole body is
//! compiled inside that function at that backend's width.  Scalar and
//! SSSE3 run the same body at the build's baseline; NEON is baseline on
//! AArch64 and needs no wrapper.
//!
//! Widening changes no output bit: Rust never contracts `a * b + c`
//! into an FMA or reassociates float ops, so a vector lane performs the
//! exact IEEE operations, in the same order, that the scalar loop does.

use super::KernelBackend;

/// A body compiled once per instruction set by [`run`].
///
/// Implementations mark [`Pass::run`] — and every helper it calls on
/// its hot path — `#[inline(always)]`, so the code lands inside the
/// `#[target_feature]` wrapper instead of being compiled once at the
/// baseline and called from it.
pub(crate) trait Pass {
    /// What the pass returns.
    type Output;

    /// The body.
    fn run(self) -> Self::Output;
}

/// Runs `pass` compiled for `backend`'s instruction set.
///
/// # Panics
///
/// Panics when `backend` cannot run on this CPU.
#[inline(always)]
pub(crate) fn run<P: Pass>(backend: KernelBackend, pass: P) -> P::Output {
    assert!(
        backend.is_supported(),
        "kernel backend {} is not supported on this CPU",
        backend.name()
    );
    match backend {
        // SAFETY: `is_supported` confirmed every feature the wrapper
        // enables (AVX2 implies the SSE levels below it).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => unsafe { run_avx2(pass) },
        // SAFETY: `is_supported` confirmed every feature `run_avx512`
        // enables.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe { run_avx512(pass) },
        _ => pass.run(),
    }
}

/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<P: Pass>(pass: P) -> P::Output {
    pass.run()
}

/// The feature list must stay equal to the one
/// [`KernelBackend::is_supported`] checks for AVX-512.
///
/// # Safety
///
/// Requires AVX-512 F, BW, DQ, VL and VPOPCNTDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vpopcntdq")]
unsafe fn run_avx512<P: Pass>(pass: P) -> P::Output {
    pass.run()
}
