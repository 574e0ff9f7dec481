//! AArch64 NEON kernels: byte-wise popcount via `vcntq_u8`.
//!
//! NEON has no per-`u64` popcount, but `CNT` counts every byte of a
//! 128-bit register at once; three pairwise widening adds
//! (`vpaddlq_u8 → u16`, `→ u32`, `→ u64`) collapse the byte counts back
//! into one count per `u64` lane, which the GEMM microkernel
//! accumulates in registers across the whole reduction.
//!
//! NEON is baseline on AArch64, so this backend is always supported
//! there and never compiled elsewhere.  Every function still follows
//! the crate's `unsafe` + `#[target_feature]` kernel idiom.

#![cfg(target_arch = "aarch64")]

use std::arch::aarch64::*;

/// Per-`u64`-lane popcount of a 128-bit vector.
///
/// # Safety
///
/// Requires NEON (baseline on AArch64).
#[inline]
#[target_feature(enable = "neon")]
unsafe fn popcnt_u64x2(v: uint8x16_t) -> uint64x2_t {
    vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v))))
}

/// Register-blocked popcount-GEMM microkernel: for `FB ≤ 4` filters,
/// `acc[f*np + p] += Σ_j popcount(a[f*kwords + j] ^ b[j*np + p])`.
///
/// Processes 4 tile columns per outer iteration (two q registers per
/// filter), holding all `2·FB` `u64×2` accumulators in registers across
/// the whole `kwords` reduction.
///
/// # Safety
///
/// Requires NEON; slice bounds as in `PopcountGemm::gemm_block`.
#[target_feature(enable = "neon")]
unsafe fn gemm_block_fb_neon<const FB: usize>(
    acc: &mut [i32],
    a: &[u64],
    b: &[u64],
    np: usize,
    kwords: usize,
) {
    let mut p = 0usize;
    while p + 4 <= np {
        let mut c0 = [vdupq_n_u64(0); FB];
        let mut c1 = [vdupq_n_u64(0); FB];
        for j in 0..kwords {
            let bp = b.as_ptr().add(j * np + p);
            let b0 = vld1q_u64(bp);
            let b1 = vld1q_u64(bp.add(2));
            for f in 0..FB {
                let wv = vdupq_n_u64(*a.get_unchecked(f * kwords + j));
                c0[f] = vaddq_u64(c0[f], popcnt_u64x2(vreinterpretq_u8_u64(veorq_u64(b0, wv))));
                c1[f] = vaddq_u64(c1[f], popcnt_u64x2(vreinterpretq_u8_u64(veorq_u64(b1, wv))));
            }
        }
        for f in 0..FB {
            let base = f * np + p;
            acc[base] += vgetq_lane_u64(c0[f], 0) as i32;
            acc[base + 1] += vgetq_lane_u64(c0[f], 1) as i32;
            acc[base + 2] += vgetq_lane_u64(c1[f], 0) as i32;
            acc[base + 3] += vgetq_lane_u64(c1[f], 1) as i32;
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

/// Runtime-`fb` front for [`gemm_block_fb_neon`].
///
/// # Safety
///
/// Requires NEON (baseline on AArch64).
#[target_feature(enable = "neon")]
pub unsafe fn gemm_block_neon(
    acc: &mut [i32],
    fb: usize,
    a: &[u64],
    b: &[u64],
    np: usize,
    kwords: usize,
) {
    match fb {
        4 => gemm_block_fb_neon::<4>(acc, a, b, np, kwords),
        3 => gemm_block_fb_neon::<3>(acc, a, b, np, kwords),
        2 => gemm_block_fb_neon::<2>(acc, a, b, np, kwords),
        _ => gemm_block_fb_neon::<1>(acc, a, b, np, kwords),
    }
}
