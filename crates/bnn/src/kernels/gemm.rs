//! The `PopcountGemm` backend trait: bit-sliced XNOR-GEMM blocks.
//!
//! The conv engine (see `packed::conv_levels`) reshapes a whole binary
//! convolution — every output pixel, border included — as a matrix
//! product over GF(2)-packed words: the **A** matrix holds each filter's
//! receptive-field bits densely repacked to `kwords` `u64`s per filter
//! (one row per filter × residual level), and the **B** matrix holds
//! `np` output pixels' densely repacked input windows, laid out
//! column-major by reduction word (`b[j*np + p]`) so one SIMD load
//! covers consecutive pixels.  A GEMM "block" computes
//!
//! ```text
//! acc[f*np + p] += Σ_{j < kwords} popcount(a[f*kwords + j] ^ b[j*np + p])
//! ```
//!
//! for a small filter block `fb ≤ 4` — the mismatch counts that the
//! caller's epilogue turns into `±1` dot products and fuses with the
//! per-channel affine/sign finalize.  A tap that overhangs the map
//! edge is all-zero in B, so it counts `popcount(a_tap)` mismatches;
//! the epilogue's per-border-class bias removes them exactly, and the
//! block itself never needs bounds checks.
//!
//! The block runs every binary convolution at every batch size, a
//! single clip included.
//!
//! The trait's default [`PopcountGemm::gemm_block`] is a plain scalar
//! loop over `u64::count_ones`, one filter row per reduction word —
//! the reference the scalar backend uses as-is.  SSSE3 overrides it with its `pshufb` span
//! kernels, one filter row span per reduction word; AVX2, AVX-512 and
//! NEON override it with register-blocked microkernels that hold all
//! `2·fb` vector accumulators in registers across the whole `kwords`
//! reduction instead of re-loading the accumulator row once per
//! reduction word.
//!
//! Backend selection piggybacks on [`KernelBackend`]: [`gemm_backend`]
//! maps the dispatched backend to its GEMM implementation, so
//! `HOTSPOT_KERNEL_BACKEND` forces it and the bit-identity property
//! tests cover the GEMM path for every backend.

use super::KernelBackend;

/// A popcount-GEMM implementation (one per [`KernelBackend`]).
///
/// All implementations compute identical integer counts; the property
/// tests in this module compare every available backend against a
/// plain triple loop.
pub trait PopcountGemm: Sync + Send {
    /// The backend this GEMM implementation belongs to (reporting).
    fn backend(&self) -> KernelBackend;

    /// `acc[f*np + p] += Σ_{j < kwords} popcount(a[f*kwords + j] ^
    /// b[j*np + p])` for `f < fb`.
    ///
    /// `fb` must be in `1..=4`; `acc` must hold at least `fb * np`
    /// elements, `a` at least `fb * kwords`, and `b` at least
    /// `kwords * np`.
    ///
    /// # Panics
    ///
    /// Panics (debug) when a slice is shorter than the bounds above.
    fn gemm_block(
        &self,
        acc: &mut [i32],
        fb: usize,
        a: &[u64],
        b: &[u64],
        np: usize,
        kwords: usize,
    ) {
        debug_assert!((1..=4).contains(&fb));
        debug_assert!(acc.len() >= fb * np);
        debug_assert!(a.len() >= fb * kwords);
        debug_assert!(b.len() >= kwords * np);
        for f in 0..fb {
            let row = &mut acc[f * np..(f + 1) * np];
            for j in 0..kwords {
                let w = a[f * kwords + j];
                for (slot, &bw) in row.iter_mut().zip(&b[j * np..(j + 1) * np]) {
                    *slot += (bw ^ w).count_ones() as i32;
                }
            }
        }
    }
}

/// Reference GEMM: the trait's default scalar loop.
pub struct ScalarGemm;
impl PopcountGemm for ScalarGemm {
    fn backend(&self) -> KernelBackend {
        KernelBackend::Scalar
    }
}

/// SSSE3 GEMM: `pshufb` span kernels, one filter row span per
/// reduction word.
#[cfg(target_arch = "x86_64")]
pub struct Ssse3Gemm;
#[cfg(target_arch = "x86_64")]
impl PopcountGemm for Ssse3Gemm {
    fn backend(&self) -> KernelBackend {
        KernelBackend::Ssse3
    }

    fn gemm_block(
        &self,
        acc: &mut [i32],
        fb: usize,
        a: &[u64],
        b: &[u64],
        np: usize,
        kwords: usize,
    ) {
        debug_assert!((1..=4).contains(&fb));
        debug_assert!(acc.len() >= fb * np);
        debug_assert!(a.len() >= fb * kwords);
        debug_assert!(b.len() >= kwords * np);
        // SAFETY: this struct is only handed out by `gemm_backend` for
        // a backend that passed `is_supported()` (SSSE3 detected).
        unsafe { super::x86::gemm_block_ssse3(acc, fb, a, b, np, kwords) }
    }
}

/// AVX2 GEMM: register-blocked microkernel (8 px × ≤4 filters).
#[cfg(target_arch = "x86_64")]
pub struct Avx2Gemm;
#[cfg(target_arch = "x86_64")]
impl PopcountGemm for Avx2Gemm {
    fn backend(&self) -> KernelBackend {
        KernelBackend::Avx2
    }

    fn gemm_block(
        &self,
        acc: &mut [i32],
        fb: usize,
        a: &[u64],
        b: &[u64],
        np: usize,
        kwords: usize,
    ) {
        debug_assert!((1..=4).contains(&fb));
        debug_assert!(acc.len() >= fb * np);
        debug_assert!(a.len() >= fb * kwords);
        debug_assert!(b.len() >= kwords * np);
        // SAFETY: this struct is only handed out by `gemm_backend` for
        // a backend that passed `is_supported()` (AVX2 detected).
        unsafe { super::x86::gemm_block_avx2(acc, fb, a, b, np, kwords) }
    }
}

/// AVX-512 GEMM: native `vpopcntdq` microkernel (16 px × ≤4 filters).
#[cfg(target_arch = "x86_64")]
pub struct Avx512Gemm;
#[cfg(target_arch = "x86_64")]
impl PopcountGemm for Avx512Gemm {
    fn backend(&self) -> KernelBackend {
        KernelBackend::Avx512
    }

    fn gemm_block(
        &self,
        acc: &mut [i32],
        fb: usize,
        a: &[u64],
        b: &[u64],
        np: usize,
        kwords: usize,
    ) {
        debug_assert!((1..=4).contains(&fb));
        debug_assert!(acc.len() >= fb * np);
        debug_assert!(a.len() >= fb * kwords);
        debug_assert!(b.len() >= kwords * np);
        // SAFETY: see `Avx2Gemm` — AVX-512F + AVX-512VPOPCNTDQ detected.
        unsafe { super::avx512::gemm_block_avx512(acc, fb, a, b, np, kwords) }
    }
}

/// NEON GEMM: `vcntq_u8` microkernel (4 px × ≤4 filters).
#[cfg(target_arch = "aarch64")]
pub struct NeonGemm;
#[cfg(target_arch = "aarch64")]
impl PopcountGemm for NeonGemm {
    fn backend(&self) -> KernelBackend {
        KernelBackend::Neon
    }

    fn gemm_block(
        &self,
        acc: &mut [i32],
        fb: usize,
        a: &[u64],
        b: &[u64],
        np: usize,
        kwords: usize,
    ) {
        debug_assert!((1..=4).contains(&fb));
        debug_assert!(acc.len() >= fb * np);
        debug_assert!(a.len() >= fb * kwords);
        debug_assert!(b.len() >= kwords * np);
        // SAFETY: NEON is baseline on AArch64.
        unsafe { super::neon::gemm_block_neon(acc, fb, a, b, np, kwords) }
    }
}

/// The GEMM implementation for a dispatched backend.
///
/// Total over all [`KernelBackend`] values; variants compiled out on
/// this architecture fall back to the scalar reference (they can never
/// be dispatched anyway, since `is_supported()` is false for them).
pub fn gemm_backend(backend: KernelBackend) -> &'static dyn PopcountGemm {
    match backend {
        KernelBackend::Scalar => &ScalarGemm,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Ssse3 => &Ssse3Gemm,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => &Avx2Gemm,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => &Avx512Gemm,
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => &NeonGemm,
        #[allow(unreachable_patterns)]
        _ => &ScalarGemm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Plain triple-loop reference for `gemm_block`.
    fn reference(acc: &mut [i32], fb: usize, a: &[u64], b: &[u64], np: usize, kwords: usize) {
        for f in 0..fb {
            for p in 0..np {
                let mut s = 0u32;
                for j in 0..kwords {
                    s += (a[f * kwords + j] ^ b[j * np + p]).count_ones();
                }
                acc[f * np + p] += s as i32;
            }
        }
    }

    #[test]
    fn gemm_backends_match_reference() {
        // np values cover the vector widths and every tail length:
        // 16/8/4/2-lane main loops plus 1..3 scalar remainders.
        for &np in &[1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64] {
            for &kwords in &[1usize, 2, 3, 5, 9] {
                for fb in 1..=4usize {
                    let a = words(fb as u64 * 31 + kwords as u64, fb * kwords);
                    let b = words(np as u64 * 7 + 1, kwords * np);
                    let mut expect = vec![3i32; fb * np];
                    reference(&mut expect, fb, &a, &b, np, kwords);
                    for backend in KernelBackend::available() {
                        let gemm = gemm_backend(backend);
                        assert_eq!(gemm.backend(), backend);
                        let mut acc = vec![3i32; fb * np];
                        gemm.gemm_block(&mut acc, fb, &a, &b, np, kwords);
                        assert_eq!(
                            acc,
                            expect,
                            "{} np={np} kwords={kwords} fb={fb}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_backend_is_total_over_all_backends() {
        for backend in [
            KernelBackend::Scalar,
            KernelBackend::Ssse3,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
            KernelBackend::Neon,
        ] {
            // Must not panic even for unsupported/foreign backends.
            let _ = gemm_backend(backend);
        }
    }
}
