//! The min-plus kernel shared by the build-side refinement sweep and the
//! query-side materialization sweep.
//!
//! The innermost operation of both sweeps is `out[i] = min(out[i], s + addend[i])`
//! over equal-length slices of 32-bit distance cells ([`Cell`]). Both sweeps are
//! bandwidth-bound (a query streams its matrix rows once, out of a pool far larger
//! than L2), so the kernel's job is to keep up with memory at the narrowest cell
//! that holds every distance. The loop is written once, in plain Rust, and
//! [`rnknn_persist::simd`] runs it compiled for the strongest CPU tier: there it
//! becomes `vpaddd` + `vpminud` (a native unsigned min) over 16 lanes under
//! AVX-512, over 8 under AVX2, and the same loop at the baseline everywhere else
//! (and under Miri).
//!
//! Contract: `s < CELL_INFINITY`, every `addend[i] <= CELL_INFINITY`, every
//! `out[i] <= CELL_INFINITY` on entry. The sentinel is `u32::MAX / 2`, so the
//! largest legal sum is `2^32 − 3` and `s + addend[i]` never wraps. `addend`
//! entries equal to the sentinel need no special casing: `s + CELL_INFINITY >=
//! CELL_INFINITY >= out[i]`, so the min never lets an unreachable cell improve a
//! result, and `out` entries never exceed the sentinel on exit.

use rnknn_persist::simd::{self, Kernel};

use crate::distmatrix::Cell;

/// One min-plus pass: `out[i] = min(out[i], s + addend[i])`.
struct MinPlus<'a> {
    out: &'a mut [Cell],
    s: Cell,
    addend: &'a [Cell],
}

impl Kernel for MinPlus<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        min_plus(self.out, self.s, self.addend)
    }
}

/// The loop itself. Taking the slices as parameters tells the compiler that
/// `out` and `addend` never overlap, so no overlap check guards the vector loop.
/// `#[inline]` rather than `#[inline(always)]`: the latter inlines it before code
/// generation, and that loses the no-overlap fact.
#[inline]
fn min_plus(out: &mut [Cell], s: Cell, addend: &[Cell]) {
    for (o, &a) in out.iter_mut().zip(addend) {
        *o = (*o).min(s + a);
    }
}

/// `out[i] = min(out[i], s + addend[i])` over equal-length slices, at the
/// process-wide CPU tier. See the module docs for the value contract.
#[inline]
pub fn min_plus_into(out: &mut [Cell], s: Cell, addend: &[Cell]) {
    simd::run(MinPlus { out, s, addend })
}

#[cfg(test)]
mod tests {
    use rnknn_persist::simd::Tier;

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

    fn min_plus_into_tier(tier: Tier, out: &mut [Cell], s: Cell, addend: &[Cell]) {
        simd::run_at(tier, MinPlus { out, s, addend })
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
        // offset within a 16-lane vector so the loops hit every load alignment.
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let tiers: Vec<Tier> = simd::available_tiers().collect();
        assert!(tiers.contains(&Tier::Baseline));
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
        for tier in simd::available_tiers() {
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
        for tier in simd::available_tiers() {
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
