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

/// One channel of the fused affine + sign-pack + |v| mean pass
/// (`bitpack::pack_affine_mean_into`, single-word-channel layout):
/// per pixel `v = s·x + b`, OR `(v >= 0) << bit` into `data[p]`, add
/// `|v|` into `mean[p]`.  Sixteen pixels per iteration; the scalar
/// tail replays the identical op sequence, so results are bit-exact
/// against the portable loop (separate multiply and add — no FMA
/// contraction — and `_CMP_GE_OQ` matches Rust's `>=` on NaN and
/// `-0.0`).
///
/// # Safety
///
/// Requires AVX-512F (checked by the dispatcher); slices must share
/// one plane length.
#[target_feature(enable = "avx512f")]
pub unsafe fn pack_affine_channel_avx512(
    src: &[f32],
    s: f32,
    b: f32,
    bit: u32,
    data: &mut [u64],
    mean: &mut [f32],
) {
    debug_assert_eq!(src.len(), data.len());
    debug_assert_eq!(src.len(), mean.len());
    let plane = src.len();
    let sv = _mm512_set1_ps(s);
    let bv = _mm512_set1_ps(b);
    let absmask = _mm512_set1_epi32(0x7fff_ffff);
    let bitv = _mm512_set1_epi64(1i64 << bit);
    let zero = _mm512_setzero_ps();
    let mut p = 0usize;
    while p + 16 <= plane {
        let x = _mm512_loadu_ps(src.as_ptr().add(p));
        let v = _mm512_add_ps(_mm512_mul_ps(x, sv), bv);
        let va = _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(v), absmask));
        let m = _mm512_loadu_ps(mean.as_ptr().add(p));
        _mm512_storeu_ps(mean.as_mut_ptr().add(p), _mm512_add_ps(m, va));
        let ge: u16 = _mm512_cmp_ps_mask(v, zero, _CMP_GE_OQ);
        let d0 = data.as_mut_ptr().add(p) as *mut __m512i;
        let d1 = data.as_mut_ptr().add(p + 8) as *mut __m512i;
        let w0 = _mm512_loadu_si512(d0 as *const __m512i);
        let w1 = _mm512_loadu_si512(d1 as *const __m512i);
        _mm512_storeu_si512(
            d0,
            _mm512_or_si512(w0, _mm512_maskz_mov_epi64((ge & 0xff) as u8, bitv)),
        );
        _mm512_storeu_si512(
            d1,
            _mm512_or_si512(w1, _mm512_maskz_mov_epi64((ge >> 8) as u8, bitv)),
        );
        p += 16;
    }
    while p < plane {
        let v = s * src[p] + b;
        data[p] |= ((v >= 0.0) as u64) << bit;
        mean[p] += v.abs();
        p += 1;
    }
}
