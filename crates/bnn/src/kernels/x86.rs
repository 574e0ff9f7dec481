//! x86-64 SIMD kernels: `pshufb` nibble-lookup popcount.
//!
//! The popcount of a byte is the sum of the popcounts of its two
//! nibbles, and a 16-entry nibble→count table fits exactly in one
//! `pshufb` shuffle register.  Per vector: mask out the low nibbles,
//! shift+mask the high nibbles, look both up, add, then `psadbw`
//! against zero horizontally sums the byte counts into one u64 per
//! 64-bit lane.  This is the standard Muła lookup popcount; AVX2
//! processes four `u64` words per vector, SSSE3 two.  AVX2 runs it in a
//! register-blocked GEMM microkernel; SSSE3 runs it as span kernels,
//! one B row per reduction word.  The fused affine + sign-pack pass
//! of the scaled convs has a register-blocked AVX2 body here too.
//!
//! Every function is `unsafe` + `#[target_feature]`: callers (the
//! dispatchers in `kernels::mod` / `kernels::gemm`) must have verified
//! the feature with `is_x86_feature_detected!`.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

/// Per-lane popcount of a 256-bit vector: returns four u64 counts.
///
/// # Safety
///
/// Requires AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn popcnt_epi64_avx2(v: __m256i) -> __m256i {
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    _mm256_sad_epu8(cnt, _mm256_setzero_si256())
}

/// Per-lane popcount of a 128-bit vector: returns two u64 counts.
///
/// # Safety
///
/// Requires SSSE3.
#[inline]
#[target_feature(enable = "ssse3")]
unsafe fn popcnt_epi64_ssse3(v: __m128i) -> __m128i {
    let lut = _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    let low_mask = _mm_set1_epi8(0x0f);
    let lo = _mm_and_si128(v, low_mask);
    let hi = _mm_and_si128(_mm_srli_epi16(v, 4), low_mask);
    let cnt = _mm_add_epi8(_mm_shuffle_epi8(lut, lo), _mm_shuffle_epi8(lut, hi));
    _mm_sad_epu8(cnt, _mm_setzero_si128())
}

/// Narrows four u64 lane counts to four i32 and adds them into `acc`.
///
/// # Safety
///
/// Requires AVX2; `acc` must have at least 4 elements.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn add_counts4_avx2(acc: *mut i32, cnt: __m256i) {
    // Counts are < 2^32, so the low dword of each u64 lane carries the
    // whole value; gather dwords 0,2,4,6 into the low 128 bits.
    let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    let packed = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(cnt, idx));
    let av = _mm_loadu_si128(acc as *const __m128i);
    _mm_storeu_si128(acc as *mut __m128i, _mm_add_epi32(av, packed));
}

/// Narrows two u64 lane counts to two i32 and adds them into `acc`.
///
/// # Safety
///
/// Requires SSSE3 (SSE2 suffices); `acc` must have at least 2 elements.
#[inline]
#[target_feature(enable = "ssse3")]
unsafe fn add_counts2_ssse3(acc: *mut i32, cnt: __m128i) {
    // Dwords [c0, 0, c1, 0] -> [c0, c1, _, _]; add the low 64 bits.
    let packed = _mm_shuffle_epi32(cnt, 0b00_00_10_00);
    let av = _mm_loadl_epi64(acc as *const __m128i);
    _mm_storel_epi64(acc as *mut __m128i, _mm_add_epi32(av, packed));
}

/// # Safety
///
/// Requires SSSE3 (checked by the dispatcher).
#[target_feature(enable = "ssse3")]
pub unsafe fn accum_xor_popcount_ssse3(acc: &mut [i32], src: &[u64], w: u64) {
    debug_assert_eq!(acc.len(), src.len());
    let wv = _mm_set1_epi64x(w as i64);
    let sc = src.chunks_exact(2);
    let sr = sc.remainder();
    let mut done = 0;
    for s in sc {
        let v = _mm_loadu_si128(s.as_ptr() as *const __m128i);
        let cnt = popcnt_epi64_ssse3(_mm_xor_si128(v, wv));
        add_counts2_ssse3(acc.as_mut_ptr().add(done), cnt);
        done += 2;
    }
    for (a, &s) in acc[done..].iter_mut().zip(sr) {
        *a += (s ^ w).count_ones() as i32;
    }
}

/// Register-blocked popcount-GEMM microkernel: for `FB ≤ 4` filters,
/// `acc[f*np + p] += Σ_j popcount(a[f*kwords + j] ^ b[j*np + p])`.
///
/// Processes 8 tile columns per outer iteration (two ymm registers per
/// filter), holding all `2·FB` u64-lane accumulators in registers
/// across the whole `kwords` reduction — the B tile is streamed once
/// per filter block instead of the accumulator row being re-loaded per
/// reduction word.
///
/// # Safety
///
/// Requires AVX2; slice bounds as in `PopcountGemm::gemm_block`.
#[target_feature(enable = "avx2")]
unsafe fn gemm_block_fb_avx2<const FB: usize>(
    acc: &mut [i32],
    a: &[u64],
    b: &[u64],
    np: usize,
    kwords: usize,
) {
    let mut p = 0usize;
    while p + 8 <= np {
        let mut c0 = [_mm256_setzero_si256(); FB];
        let mut c1 = [_mm256_setzero_si256(); FB];
        for j in 0..kwords {
            let bp = b.as_ptr().add(j * np + p);
            let b0 = _mm256_loadu_si256(bp as *const __m256i);
            let b1 = _mm256_loadu_si256(bp.add(4) as *const __m256i);
            for f in 0..FB {
                let wv = _mm256_set1_epi64x(*a.get_unchecked(f * kwords + j) as i64);
                c0[f] = _mm256_add_epi64(c0[f], popcnt_epi64_avx2(_mm256_xor_si256(b0, wv)));
                c1[f] = _mm256_add_epi64(c1[f], popcnt_epi64_avx2(_mm256_xor_si256(b1, wv)));
            }
        }
        for f in 0..FB {
            let ap = acc.as_mut_ptr().add(f * np + p);
            add_counts4_avx2(ap, c0[f]);
            add_counts4_avx2(ap.add(4), c1[f]);
        }
        p += 8;
    }
    if p + 4 <= np {
        let mut c0 = [_mm256_setzero_si256(); FB];
        for j in 0..kwords {
            let b0 = _mm256_loadu_si256(b.as_ptr().add(j * np + p) as *const __m256i);
            for (f, cf) in c0.iter_mut().enumerate() {
                let wv = _mm256_set1_epi64x(*a.get_unchecked(f * kwords + j) as i64);
                *cf = _mm256_add_epi64(*cf, popcnt_epi64_avx2(_mm256_xor_si256(b0, wv)));
            }
        }
        for (f, &cf) in c0.iter().enumerate() {
            add_counts4_avx2(acc.as_mut_ptr().add(f * np + p), cf);
        }
        p += 4;
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

/// Runtime-`fb` front for [`gemm_block_fb_avx2`].
///
/// # Safety
///
/// Requires AVX2 (checked by the dispatcher).
#[target_feature(enable = "avx2")]
pub unsafe fn gemm_block_avx2(
    acc: &mut [i32],
    fb: usize,
    a: &[u64],
    b: &[u64],
    np: usize,
    kwords: usize,
) {
    match fb {
        4 => gemm_block_fb_avx2::<4>(acc, a, b, np, kwords),
        3 => gemm_block_fb_avx2::<3>(acc, a, b, np, kwords),
        2 => gemm_block_fb_avx2::<2>(acc, a, b, np, kwords),
        _ => gemm_block_fb_avx2::<1>(acc, a, b, np, kwords),
    }
}

/// # Safety
///
/// Requires SSSE3 (checked by the dispatcher).
#[target_feature(enable = "ssse3")]
pub unsafe fn accum_xor_popcount_x4_ssse3(acc: [&mut [i32]; 4], src: &[u64], ws: [u64; 4]) {
    let [a0, a1, a2, a3] = acc;
    debug_assert!(a0.len() == src.len() && a1.len() == src.len());
    debug_assert!(a2.len() == src.len() && a3.len() == src.len());
    let wv = [
        _mm_set1_epi64x(ws[0] as i64),
        _mm_set1_epi64x(ws[1] as i64),
        _mm_set1_epi64x(ws[2] as i64),
        _mm_set1_epi64x(ws[3] as i64),
    ];
    let sc = src.chunks_exact(2);
    let sr = sc.remainder();
    let mut done = 0;
    for s in sc {
        let v = _mm_loadu_si128(s.as_ptr() as *const __m128i);
        add_counts2_ssse3(
            a0.as_mut_ptr().add(done),
            popcnt_epi64_ssse3(_mm_xor_si128(v, wv[0])),
        );
        add_counts2_ssse3(
            a1.as_mut_ptr().add(done),
            popcnt_epi64_ssse3(_mm_xor_si128(v, wv[1])),
        );
        add_counts2_ssse3(
            a2.as_mut_ptr().add(done),
            popcnt_epi64_ssse3(_mm_xor_si128(v, wv[2])),
        );
        add_counts2_ssse3(
            a3.as_mut_ptr().add(done),
            popcnt_epi64_ssse3(_mm_xor_si128(v, wv[3])),
        );
        done += 2;
    }
    for (i, &s) in sr.iter().enumerate() {
        a0[done + i] += (s ^ ws[0]).count_ones() as i32;
        a1[done + i] += (s ^ ws[1]).count_ones() as i32;
        a2[done + i] += (s ^ ws[2]).count_ones() as i32;
        a3[done + i] += (s ^ ws[3]).count_ones() as i32;
    }
}

/// SSSE3 popcount-GEMM block: for `fb ≤ 4` filters,
/// `acc[f*np + p] += Σ_j popcount(a[f*kwords + j] ^ b[j*np + p])`,
/// one B row span per reduction word through the `pshufb` span
/// kernels (a full four-filter block reuses each loaded B vector
/// across all four filters).
///
/// # Safety
///
/// Requires SSSE3; slice bounds as in `PopcountGemm::gemm_block`.
#[target_feature(enable = "ssse3")]
pub unsafe fn gemm_block_ssse3(
    acc: &mut [i32],
    fb: usize,
    a: &[u64],
    b: &[u64],
    np: usize,
    kwords: usize,
) {
    if fb == 4 {
        let block = &mut acc[..4 * np];
        let (r0, rest) = block.split_at_mut(np);
        let (r1, rest) = rest.split_at_mut(np);
        let (r2, r3) = rest.split_at_mut(np);
        for j in 0..kwords {
            let src = &b[j * np..(j + 1) * np];
            let ws = [a[j], a[kwords + j], a[2 * kwords + j], a[3 * kwords + j]];
            accum_xor_popcount_x4_ssse3(
                [&mut r0[..], &mut r1[..], &mut r2[..], &mut r3[..]],
                src,
                ws,
            );
        }
    } else {
        for f in 0..fb {
            let row = &mut acc[f * np..(f + 1) * np];
            for j in 0..kwords {
                accum_xor_popcount_ssse3(row, &b[j * np..(j + 1) * np], a[f * kwords + j]);
            }
        }
    }
}

/// The fused affine + sign-pack + |v| mean pass
/// (`bitpack::pack_affine_mean_into`) for single-word channels, eight
/// pixels at a time: per channel `v = s·x + b`, OR `(v >= 0) << ci`
/// into the pixel words and add `|v|` into the mean.  A block's mean
/// sum and its two vectors of sign words stay in registers across all
/// channels, in ascending channel order, and are stored once; the
/// `>= 0` compare mask widens to two quadword halves via `vpmovsxdq`.
/// The tail pixels replay the identical op sequence one at a time, so
/// results are bit-exact against the portable loop (separate multiply
/// and add — no FMA contraction — and `_CMP_GE_OQ` matches Rust's `>=`
/// on NaN and `-0.0`).
///
/// # Safety
///
/// Requires AVX2.  With `c = scale.len()` and `plane = mean.len()`:
/// `c <= 64`, `shift.len() == c`, `item.len() == c * plane` and
/// `data.len() == plane`.
#[target_feature(enable = "avx2")]
pub unsafe fn pack_affine_mean_avx2(
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
    let invv = _mm256_set1_ps(inv_c);
    let absmask = _mm256_set1_epi32(0x7fff_ffff);
    let zero = _mm256_setzero_ps();
    let mut p = 0usize;
    while p + 8 <= plane {
        let mut m = _mm256_setzero_ps();
        let mut w0 = _mm256_setzero_si256();
        let mut w1 = _mm256_setzero_si256();
        for ci in 0..c {
            let x = _mm256_loadu_ps(item.as_ptr().add(ci * plane + p));
            let v = _mm256_add_ps(
                _mm256_mul_ps(x, _mm256_set1_ps(scale[ci])),
                _mm256_set1_ps(shift[ci]),
            );
            let va = _mm256_castsi256_ps(_mm256_and_si256(_mm256_castps_si256(v), absmask));
            m = _mm256_add_ps(m, va);
            // 8 lanes of all-ones/zero from the ordered >= compare, sign-
            // extended to u64 and ANDed with the channel bit.
            let ge = _mm256_castps_si256(_mm256_cmp_ps(v, zero, _CMP_GE_OQ));
            let bitv = _mm256_set1_epi64x(1i64 << ci);
            let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(ge));
            let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(ge, 1));
            w0 = _mm256_or_si256(w0, _mm256_and_si256(lo, bitv));
            w1 = _mm256_or_si256(w1, _mm256_and_si256(hi, bitv));
        }
        _mm256_storeu_ps(mean.as_mut_ptr().add(p), _mm256_mul_ps(m, invv));
        _mm256_storeu_si256(data.as_mut_ptr().add(p) as *mut __m256i, w0);
        _mm256_storeu_si256(data.as_mut_ptr().add(p + 4) as *mut __m256i, w1);
        p += 8;
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
