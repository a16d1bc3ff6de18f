//! Runtime-dispatched min-plus kernels shared by the build-side refinement sweep
//! and the query-side materialization sweep.
//!
//! The innermost operation of both sweeps is `out[i] = min(out[i], s + addend[i])`
//! over equal-length slices of 32-bit distance cells ([`Cell`]). Both sweeps are
//! bandwidth-bound (a query streams its matrix rows once, out of a pool far larger
//! than L2), so the kernel's job is to keep up with memory at the narrowest cell
//! that holds every distance: `vpminud` is a native unsigned min on both vector
//! tiers — 16 lanes per instruction under AVX-512F, 8 under AVX2 — and the scalar
//! loop keeps every other architecture (and Miri) correct.
//!
//! Contract shared by every tier: `s < CELL_INFINITY`, every `addend[i] <=
//! CELL_INFINITY`, every `out[i] <= CELL_INFINITY` on entry. The sentinel is
//! `u32::MAX / 2`, so the largest legal sum is `2^32 − 3` and `s + addend[i]`
//! never wraps. `addend` entries equal to the sentinel need no special casing:
//! `s + CELL_INFINITY >= CELL_INFINITY >= out[i]`, so the min never lets an
//! unreachable cell improve a result, and `out` entries never exceed the sentinel
//! on exit.
//!
//! Dispatch is decided once (and cached) from CPU feature detection;
//! [`min_plus_into_tier`] bypasses the cache for the cross-tier equivalence tests.

use std::sync::OnceLock;

use crate::distmatrix::Cell;

/// One dispatch tier of the min-plus kernel, ordered weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// Portable scalar loop (every architecture, and the whole story under Miri).
    Scalar,
    /// AVX2: 8 lanes of `vpminud`.
    Avx2,
    /// AVX-512F: 16 lanes of `vpminud`.
    Avx512,
}

/// The strongest tier this CPU supports (always [`KernelTier::Scalar`] off x86-64
/// and under Miri, where the vector intrinsics don't exist / aren't interpreted).
fn detected_tier() -> KernelTier {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return KernelTier::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelTier::Avx2;
        }
    }
    KernelTier::Scalar
}

/// The tier every [`min_plus_into`] call in this process dispatches to. Detected on
/// first use, then cached — the sweeps call this per row, so the decision must be a
/// single atomic load in steady state.
pub fn active_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(detected_tier)
}

/// `out[i] = min(out[i], s + addend[i])` over equal-length slices, dispatched to
/// the process-wide [`active_tier`]. See the module docs for the value contract.
#[inline]
pub fn min_plus_into(out: &mut [Cell], s: Cell, addend: &[Cell]) {
    min_plus_into_tier(active_tier(), out, s, addend)
}

/// [`min_plus_into`] at an explicit tier. Callers must not pass a tier above
/// [`active_tier`]'s detection cap unless they have verified CPU support
/// themselves (the equivalence tests iterate `0..=detected`).
#[inline]
pub fn min_plus_into_tier(tier: KernelTier, out: &mut [Cell], s: Cell, addend: &[Cell]) {
    match tier {
        KernelTier::Scalar => min_plus_into_scalar(out, s, addend),
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: tiers above Scalar are only produced by `detected_tier` (or by
        // tests that checked `detected_tier()` first), so the CPU supports them.
        KernelTier::Avx2 => unsafe { min_plus_into_avx2(out, s, addend) },
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: as above — AVX-512F presence was established by runtime detection.
        KernelTier::Avx512 => unsafe { min_plus_into_avx512(out, s, addend) },
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        _ => min_plus_into_scalar(out, s, addend),
    }
}

#[inline]
fn min_plus_into_scalar(out: &mut [Cell], s: Cell, addend: &[Cell]) {
    for (o, &md) in out.iter_mut().zip(addend) {
        let v = s + md;
        if v < *o {
            *o = v;
        }
    }
}

/// AVX-512F kernel for [`min_plus_into`] (`vpminud` over 16 lanes).
///
/// # Safety
///
/// The CPU must support AVX-512F (guaranteed by the caller's runtime
/// `is_x86_feature_detected!` check).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
unsafe fn min_plus_into_avx512(out: &mut [Cell], s: Cell, addend: &[Cell]) {
    use std::arch::x86_64::*;
    let n = out.len().min(addend.len());
    let sv = _mm512_set1_epi32(s as i32);
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n <=` both slices' lengths, so the 16-lane reads
        // and the write stay in bounds; `loadu`/`storeu` require no alignment.
        unsafe {
            let a = _mm512_loadu_si512(addend.as_ptr().add(i) as *const _);
            let o = _mm512_loadu_si512(out.as_ptr().add(i) as *const _);
            let v = _mm512_add_epi32(a, sv);
            let m = _mm512_min_epu32(v, o);
            _mm512_storeu_si512(out.as_mut_ptr().add(i) as *mut _, m);
        }
        i += 16;
    }
    min_plus_into_scalar(&mut out[i..n], s, &addend[i..n]);
}

/// AVX2 kernel for [`min_plus_into`] (`vpminud` over 8 lanes).
///
/// # Safety
///
/// The CPU must support AVX2 (guaranteed by the caller's runtime
/// `is_x86_feature_detected!` check).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn min_plus_into_avx2(out: &mut [Cell], s: Cell, addend: &[Cell]) {
    use std::arch::x86_64::*;
    let n = out.len().min(addend.len());
    let sv = _mm256_set1_epi32(s as i32);
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n <=` both slices' lengths, so the 8-lane reads
        // and the write stay in bounds; `loadu`/`storeu` require no alignment.
        unsafe {
            let a = _mm256_loadu_si256(addend.as_ptr().add(i) as *const _);
            let o = _mm256_loadu_si256(out.as_ptr().add(i) as *const _);
            let v = _mm256_add_epi32(a, sv);
            let m = _mm256_min_epu32(v, o);
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut _, m);
        }
        i += 8;
    }
    min_plus_into_scalar(&mut out[i..n], s, &addend[i..n]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distmatrix::CELL_INFINITY;

    /// xorshift64* — deterministic, dependency-free test randomness.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, bound: Cell) -> Cell {
            (self.next() % bound as u64) as Cell
        }
    }

    /// Every tier the current process can actually execute.
    fn available_tiers() -> Vec<KernelTier> {
        let top = detected_tier();
        [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512]
            .into_iter()
            .filter(|&t| t <= top)
            .collect()
    }

    /// A cell that exercises the interesting ranges: small distances, values
    /// near the sentinel, and exactly the sentinel (saturation).
    fn random_cell(rng: &mut Rng) -> Cell {
        match rng.next() % 4 {
            0 => rng.below(1000),
            1 => rng.below(CELL_INFINITY),
            2 => CELL_INFINITY - rng.below(1000),
            _ => CELL_INFINITY,
        }
    }

    #[test]
    fn all_available_tiers_match_scalar_exactly() {
        // Seeded equivalence fuzz: random values (including sentinel saturation),
        // lengths straddling the 8- and 16-lane boundaries, and every starting
        // offset within a 16-lane vector so the loops hit every `loadu` alignment.
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let tiers = available_tiers();
        assert!(tiers.contains(&KernelTier::Scalar));
        for case in 0..400 {
            let len = (rng.next() % 131) as usize;
            let offset = case % 16;
            let s = match case % 5 {
                0 => 0,
                1 => CELL_INFINITY - 1,
                _ => rng.below(CELL_INFINITY),
            };
            let addend: Vec<Cell> = (0..offset + len).map(|_| random_cell(&mut rng)).collect();
            let out0: Vec<Cell> = (0..offset + len).map(|_| random_cell(&mut rng)).collect();
            let mut want = out0.clone();
            for (o, &a) in want[offset..].iter_mut().zip(&addend[offset..]) {
                // The reference in 64 bits, where nothing can wrap.
                *o = (*o as u64).min(s as u64 + a as u64) as Cell;
            }
            for &tier in &tiers {
                let mut got = out0.clone();
                min_plus_into_tier(tier, &mut got[offset..], s, &addend[offset..]);
                assert_eq!(got, want, "tier {tier:?} case {case} len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn infinity_addend_never_improves_and_results_stay_clamped() {
        const INF: Cell = CELL_INFINITY;
        for &tier in &available_tiers() {
            // 17 and 33 cells: one past the 16-lane body and one past two of them.
            for len in [9, 17, 33] {
                let mut out = vec![INF; len];
                min_plus_into_tier(tier, &mut out, 7, &vec![INF; len]);
                assert!(out.iter().all(|&v| v == INF), "tier {tier:?} len {len}");
                // The largest legal sum, 2^32 − 3, must not wrap into a small value.
                let mut out = vec![INF; len];
                min_plus_into_tier(tier, &mut out, INF - 1, &vec![INF; len]);
                assert!(out.iter().all(|&v| v == INF), "tier {tier:?} len {len} wrapped");
                let mut out = vec![INF - 1; len];
                min_plus_into_tier(tier, &mut out, INF - 1, &vec![INF - 1; len]);
                assert!(out.iter().all(|&v| v == INF - 1), "tier {tier:?} len {len} wrapped");
            }
            let mut out = vec![5, INF, 0, INF, 42, INF, 1, INF, 3];
            let addend = vec![INF, 10, INF, 0, INF, INF, INF, 2, 1];
            min_plus_into_tier(tier, &mut out, 3, &addend);
            assert_eq!(out, vec![5, 13, 0, 3, 42, INF, 1, 5, 3], "tier {tier:?}");
        }
    }

    #[test]
    fn empty_and_sub_lane_lengths() {
        for &tier in &available_tiers() {
            let mut out: Vec<Cell> = vec![];
            min_plus_into_tier(tier, &mut out, 1, &[]);
            for len in 1..=15usize {
                let mut out = vec![100; len];
                let addend = vec![1; len];
                min_plus_into_tier(tier, &mut out, 10, &addend);
                assert_eq!(out, vec![11; len], "tier {tier:?} len {len}");
            }
        }
    }
}
