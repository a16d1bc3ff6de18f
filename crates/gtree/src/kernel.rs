//! Runtime-dispatched min-plus kernels shared by the build-side refinement sweep
//! and the query-side materialization sweep.
//!
//! The innermost operation of both sweeps is `out[i] = min(out[i], s + addend[i])`
//! over equal-length `u64` slices. `Weight` is `u64`, and baseline x86-64 has no
//! unsigned 64-bit vector min, so the autovectorizer leaves this loop scalar
//! (measured: leaf refinement alone took ~16s of a 250k build before PR 4). Both
//! operands are at most `2 × INFINITY < 2^63`, so signed and unsigned comparison
//! agree, and explicit AVX-512F (`vpminuq`) or AVX2 (`vpcmpgtq` + blend) kernels —
//! selected once per process — recover the ~8× data-parallel throughput the
//! build-side tiling was designed around. The scalar fallback keeps every other
//! architecture (and Miri) correct.
//!
//! Contract shared by every tier: `s < INFINITY`, every `addend[i] <= INFINITY`,
//! every `out[i] <= INFINITY` on entry, so all sums stay below `2^63` (no overflow,
//! and the signed SIMD compares are exact). `addend` entries equal to `INFINITY`
//! need no special casing: `s + INFINITY >= INFINITY >= out[i]`, so the min never
//! lets an unreachable cell improve a result, and `out` entries never exceed
//! `INFINITY` on exit.
//!
//! Dispatch is decided once (and cached) from CPU feature detection;
//! [`min_plus_into_tier`] bypasses the cache for the cross-tier equivalence tests.

use std::sync::OnceLock;

use rnknn_graph::Weight;

/// One dispatch tier of the min-plus kernel, ordered weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// Portable scalar loop (every architecture, and the whole story under Miri).
    Scalar,
    /// AVX2: 4 lanes via `vpcmpgtq` + byte blend.
    Avx2,
    /// AVX-512F: 8 lanes via `vpminuq`.
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
pub fn min_plus_into(out: &mut [Weight], s: Weight, addend: &[Weight]) {
    min_plus_into_tier(active_tier(), out, s, addend)
}

/// [`min_plus_into`] at an explicit tier. Callers must not pass a tier above
/// [`active_tier`]'s detection cap unless they have verified CPU support
/// themselves (the equivalence tests iterate `0..=detected`).
#[inline]
pub fn min_plus_into_tier(tier: KernelTier, out: &mut [Weight], s: Weight, addend: &[Weight]) {
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
fn min_plus_into_scalar(out: &mut [Weight], s: Weight, addend: &[Weight]) {
    for (o, &md) in out.iter_mut().zip(addend) {
        let v = s + md;
        if v < *o {
            *o = v;
        }
    }
}

/// AVX-512F kernel for [`min_plus_into`] (`vpminuq` over 8 lanes).
///
/// # Safety
///
/// The CPU must support AVX-512F (guaranteed by the caller's runtime
/// `is_x86_feature_detected!` check).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
unsafe fn min_plus_into_avx512(out: &mut [Weight], s: Weight, addend: &[Weight]) {
    use std::arch::x86_64::*;
    let n = out.len().min(addend.len());
    let sv = _mm512_set1_epi64(s as i64);
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n <=` both slices' lengths, so the 8-lane reads
        // and the write stay in bounds; `loadu`/`storeu` require no alignment.
        unsafe {
            let a = _mm512_loadu_si512(addend.as_ptr().add(i) as *const _);
            let o = _mm512_loadu_si512(out.as_ptr().add(i) as *const _);
            let v = _mm512_add_epi64(a, sv);
            let m = _mm512_min_epu64(v, o);
            _mm512_storeu_si512(out.as_mut_ptr().add(i) as *mut _, m);
        }
        i += 8;
    }
    min_plus_into_scalar(&mut out[i..n], s, &addend[i..n]);
}

/// AVX2 kernel for [`min_plus_into`] (`vpcmpgtq` + blend over 4 lanes).
///
/// # Safety
///
/// The CPU must support AVX2 (guaranteed by the caller's runtime
/// `is_x86_feature_detected!` check). Values stay below `2^63`
/// (`2 × INFINITY`), so the signed `vpcmpgtq` compare is exact.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn min_plus_into_avx2(out: &mut [Weight], s: Weight, addend: &[Weight]) {
    use std::arch::x86_64::*;
    let n = out.len().min(addend.len());
    let sv = _mm256_set1_epi64x(s as i64);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n <=` both slices' lengths, so the 4-lane reads
        // and the write stay in bounds; `loadu`/`storeu` require no alignment.
        unsafe {
            let a = _mm256_loadu_si256(addend.as_ptr().add(i) as *const _);
            let o = _mm256_loadu_si256(out.as_ptr().add(i) as *const _);
            let v = _mm256_add_epi64(a, sv);
            // m = o > v ? v : o  (signed compare is exact below 2^63).
            let gt = _mm256_cmpgt_epi64(o, v);
            let m = _mm256_blendv_epi8(o, v, gt);
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut _, m);
        }
        i += 4;
    }
    min_plus_into_scalar(&mut out[i..n], s, &addend[i..n]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::INFINITY;

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
    }

    /// Every tier the current process can actually execute.
    fn available_tiers() -> Vec<KernelTier> {
        let top = detected_tier();
        [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512]
            .into_iter()
            .filter(|&t| t <= top)
            .collect()
    }

    /// A weight that exercises the interesting ranges: small distances, values
    /// near `INFINITY`, and exactly `INFINITY` (saturation).
    fn random_weight(rng: &mut Rng) -> Weight {
        match rng.next() % 4 {
            0 => rng.next() % 1000,
            1 => rng.next() % INFINITY,
            2 => INFINITY - (rng.next() % 1000),
            _ => INFINITY,
        }
    }

    #[test]
    fn all_available_tiers_match_scalar_exactly() {
        // Seeded equivalence fuzz: random values (including INFINITY saturation),
        // lengths straddling the 4- and 8-lane boundaries, and unaligned starting
        // offsets so the vector loops hit every `loadu` alignment.
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let tiers = available_tiers();
        assert!(tiers.contains(&KernelTier::Scalar));
        for case in 0..200 {
            let len = (rng.next() % 131) as usize;
            let offset = (rng.next() % 8) as usize;
            let s = if case % 5 == 0 { 0 } else { rng.next() % INFINITY };
            let addend: Vec<Weight> = (0..offset + len).map(|_| random_weight(&mut rng)).collect();
            let out0: Vec<Weight> = (0..offset + len).map(|_| random_weight(&mut rng)).collect();
            let mut want = out0.clone();
            min_plus_into_scalar(&mut want[offset..], s, &addend[offset..]);
            for &tier in &tiers {
                let mut got = out0.clone();
                min_plus_into_tier(tier, &mut got[offset..], s, &addend[offset..]);
                assert_eq!(got, want, "tier {tier:?} case {case} len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn infinity_addend_never_improves_and_results_stay_clamped() {
        let tiers = available_tiers();
        for &tier in &tiers {
            let mut out = vec![INFINITY; 9];
            let addend = vec![INFINITY; 9];
            min_plus_into_tier(tier, &mut out, 7, &addend);
            assert!(out.iter().all(|&v| v == INFINITY), "tier {tier:?}");
            let mut out = vec![5, INFINITY, 0, INFINITY, 42, INFINITY, 1, INFINITY, 3];
            let addend = vec![INFINITY, 10, INFINITY, 0, INFINITY, INFINITY, INFINITY, 2, 1];
            min_plus_into_tier(tier, &mut out, 3, &addend);
            assert_eq!(out, vec![5, 13, 0, 3, 42, INFINITY, 1, 5, 3], "tier {tier:?}");
        }
    }

    #[test]
    fn empty_and_sub_lane_lengths() {
        for &tier in &available_tiers() {
            let mut out: Vec<Weight> = vec![];
            min_plus_into_tier(tier, &mut out, 1, &[]);
            for len in 1..=7usize {
                let mut out = vec![100; len];
                let addend = vec![1; len];
                min_plus_into_tier(tier, &mut out, 10, &addend);
                assert_eq!(out, vec![11; len], "tier {tier:?} len {len}");
            }
        }
    }
}
