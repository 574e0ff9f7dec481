//! AVX-512 kernels: native per-lane popcount via `vpopcntdq`.
//!
//! Unlike the SSSE3/AVX2 backends, which emulate popcount with a
//! `pshufb` nibble lookup plus `psadbw`, the `avx512vpopcntdq`
//! extension counts all eight `u64` lanes of a 512-bit register in a
//! single instruction.  The backend therefore requires **both**
//! `avx512f` and `avx512vpopcntdq`; CPUs with AVX-512 foundation but no
//! vector popcount (e.g. Skylake-X) fall back to AVX2, where the lookup
//! popcount is already well matched to the hardware.
//!
//! Every function is `unsafe` + `#[target_feature]`: callers (the
//! dispatchers in `kernels::mod` / `kernels::gemm`) must have verified
//! the features with `is_x86_feature_detected!`.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

/// Narrows eight u64 lane counts to eight i32 and adds them into `acc`.
///
/// # Safety
///
/// Requires AVX-512F; `acc` must have at least 8 elements.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn add_counts8_avx512(acc: *mut i32, cnt: __m512i) {
    let packed = _mm512_cvtepi64_epi32(cnt);
    let av = _mm256_loadu_si256(acc as *const __m256i);
    _mm256_storeu_si256(acc as *mut __m256i, _mm256_add_epi32(av, packed));
}

/// Register-blocked popcount-GEMM microkernel: for `FB ≤ 4` filters,
/// `acc[f*np + p] += Σ_j popcount(a[f*kwords + j] ^ b[j*np + p])`.
///
/// Processes 16 tile columns per outer iteration (two zmm registers
/// per filter), holding all `2·FB` accumulators in registers across the
/// whole `kwords` reduction — the B tile is streamed once per filter
/// block instead of being re-walked per reduction word.
///
/// # Safety
///
/// Requires AVX-512F + AVX-512VPOPCNTDQ; slice bounds as in
/// `PopcountGemm::gemm_block`.
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn gemm_block_fb_avx512<const FB: usize>(
    acc: &mut [i32],
    a: &[u64],
    b: &[u64],
    np: usize,
    kwords: usize,
) {
    let mut p = 0usize;
    while p + 16 <= np {
        let mut c0 = [_mm512_setzero_si512(); FB];
        let mut c1 = [_mm512_setzero_si512(); FB];
        for j in 0..kwords {
            let bp = b.as_ptr().add(j * np + p);
            let b0 = _mm512_loadu_si512(bp as *const __m512i);
            let b1 = _mm512_loadu_si512(bp.add(8) as *const __m512i);
            for f in 0..FB {
                let wv = _mm512_set1_epi64(*a.get_unchecked(f * kwords + j) as i64);
                c0[f] = _mm512_add_epi64(c0[f], _mm512_popcnt_epi64(_mm512_xor_si512(b0, wv)));
                c1[f] = _mm512_add_epi64(c1[f], _mm512_popcnt_epi64(_mm512_xor_si512(b1, wv)));
            }
        }
        for f in 0..FB {
            let ap = acc.as_mut_ptr().add(f * np + p);
            add_counts8_avx512(ap, c0[f]);
            add_counts8_avx512(ap.add(8), c1[f]);
        }
        p += 16;
    }
    if p + 8 <= np {
        let mut c0 = [_mm512_setzero_si512(); FB];
        for j in 0..kwords {
            let b0 = _mm512_loadu_si512(b.as_ptr().add(j * np + p) as *const __m512i);
            for (f, cf) in c0.iter_mut().enumerate() {
                let wv = _mm512_set1_epi64(*a.get_unchecked(f * kwords + j) as i64);
                *cf = _mm512_add_epi64(*cf, _mm512_popcnt_epi64(_mm512_xor_si512(b0, wv)));
            }
        }
        for (f, &cf) in c0.iter().enumerate() {
            add_counts8_avx512(acc.as_mut_ptr().add(f * np + p), cf);
        }
        p += 8;
    }
    while p < np {
        for f in 0..FB {
            let mut s = 0u32;
            for j in 0..kwords {
                s += (a[f * kwords + j] ^ b[j * np + p]).count_ones();
            }
            acc[f * np + p] += s as i32;
        }
        p += 1;
    }
}

/// Runtime-`fb` front for [`gemm_block_fb_avx512`].
///
/// # Safety
///
/// Requires AVX-512F + AVX-512VPOPCNTDQ (checked by the dispatcher).
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
pub unsafe fn gemm_block_avx512(
    acc: &mut [i32],
    fb: usize,
    a: &[u64],
    b: &[u64],
    np: usize,
    kwords: usize,
) {
    match fb {
        4 => gemm_block_fb_avx512::<4>(acc, a, b, np, kwords),
        3 => gemm_block_fb_avx512::<3>(acc, a, b, np, kwords),
        2 => gemm_block_fb_avx512::<2>(acc, a, b, np, kwords),
        _ => gemm_block_fb_avx512::<1>(acc, a, b, np, kwords),
    }
}

/// The fused affine + sign-pack + |v| mean pass
/// (`bitpack::pack_affine_mean_into`) for single-word channels,
/// sixteen pixels at a time: per channel `v = s·x + b`, OR `(v >= 0)
/// << ci` into the pixel words and add `|v|` into the mean.  A block's
/// mean sum and its two vectors of sign words stay in registers across
/// all channels, in ascending channel order, and are stored once.  The
/// tail pixels replay the identical op sequence one at a time, so
/// results are bit-exact against the portable loop (separate multiply
/// and add — no FMA contraction — and `_CMP_GE_OQ` matches Rust's `>=`
/// on NaN and `-0.0`).
///
/// # Safety
///
/// Requires AVX-512F.  With `c = scale.len()` and `plane =
/// mean.len()`: `c <= 64`, `shift.len() == c`, `item.len() == c *
/// plane` and `data.len() == plane`.
#[target_feature(enable = "avx512f")]
pub unsafe fn pack_affine_mean_avx512(
    item: &[f32],
    scale: &[f32],
    shift: &[f32],
    data: &mut [u64],
    mean: &mut [f32],
) {
    let (c, plane) = (scale.len(), mean.len());
    debug_assert!(c <= 64 && shift.len() == c);
    debug_assert!(item.len() == c * plane && data.len() == plane);
    let inv_c = 1.0 / c as f32;
    let invv = _mm512_set1_ps(inv_c);
    let absmask = _mm512_set1_epi32(0x7fff_ffff);
    let zero = _mm512_setzero_ps();
    let mut p = 0usize;
    while p + 16 <= plane {
        let mut m = _mm512_setzero_ps();
        let mut w0 = _mm512_setzero_si512();
        let mut w1 = _mm512_setzero_si512();
        for ci in 0..c {
            let x = _mm512_loadu_ps(item.as_ptr().add(ci * plane + p));
            let v = _mm512_add_ps(
                _mm512_mul_ps(x, _mm512_set1_ps(scale[ci])),
                _mm512_set1_ps(shift[ci]),
            );
            let va = _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(v), absmask));
            m = _mm512_add_ps(m, va);
            let ge: u16 = _mm512_cmp_ps_mask(v, zero, _CMP_GE_OQ);
            let bitv = _mm512_set1_epi64(1i64 << ci);
            w0 = _mm512_mask_or_epi64(w0, ge as u8, w0, bitv);
            w1 = _mm512_mask_or_epi64(w1, (ge >> 8) as u8, w1, bitv);
        }
        _mm512_storeu_ps(mean.as_mut_ptr().add(p), _mm512_mul_ps(m, invv));
        _mm512_storeu_si512(data.as_mut_ptr().add(p) as *mut __m512i, w0);
        _mm512_storeu_si512(data.as_mut_ptr().add(p + 8) as *mut __m512i, w1);
        p += 16;
    }
    while p < plane {
        let (mut word, mut m) = (0u64, 0.0f32);
        for ci in 0..c {
            let v = scale[ci] * item[ci * plane + p] + shift[ci];
            word |= ((v >= 0.0) as u64) << ci;
            m += v.abs();
        }
        data[p] = word;
        mean[p] = m * inv_c;
        p += 1;
    }
}
