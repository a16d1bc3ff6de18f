//! CPU-tier dispatch: one portable loop, compiled per instruction-set tier.
//!
//! The workspace's two vector loops — the section checksum's block loop
//! ([`crate::hash`]) and the G-tree min-plus sweep (`rnknn_gtree::kernel`) —
//! are each written once, in plain Rust, as the body of a [`Kernel`]. [`run`]
//! calls that body inside a `#[target_feature]` function for the strongest
//! [`Tier`] this CPU supports, so the compiler vectorises the same source for
//! AVX-512, for AVX2 and for the target's baseline. The callers hold no
//! intrinsics and no `unsafe`; the CPU check that makes a tier sound to call is
//! made here, once per process.
//!
//! Miri and non-x86-64 targets run [`Tier::Baseline`] only: the body they
//! check is the body every tier compiles.

use std::sync::OnceLock;

/// One compiled variant of a [`Kernel`], ordered weakest to strongest. Every
/// tier computes the same value; they differ only in the instructions the
/// compiler may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The target's baseline instruction set (every architecture, and Miri).
    Baseline,
    /// AVX2: 256-bit integer vectors.
    Avx2,
    /// AVX-512 F+DQ: 512-bit integer vectors, with DQ's 64-bit `vpmullq`.
    Avx512,
}

/// A loop body to run at one [`Tier`]. Implementors mark [`Kernel::run`]
/// `#[inline(always)]`, so that it is compiled into each tier's
/// `#[target_feature]` function rather than called out of it.
pub trait Kernel {
    /// What the body returns.
    type Output;
    /// The body.
    fn run(self) -> Self::Output;
}

/// The strongest tier this CPU supports. AVX-512 also requires AVX2, so that
/// a supported tier implies every tier below it.
fn detected_tier() -> Tier {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            return Tier::Avx512;
        }
        return Tier::Avx2;
    }
    Tier::Baseline
}

/// The tier every [`run`] in this process uses: detected on first use, then
/// cached, so steady-state dispatch is one atomic load.
pub fn active_tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(detected_tier)
}

/// Every tier this CPU runs, weakest first: from [`Tier::Baseline`] up to
/// [`active_tier`]. The cross-tier equivalence tests iterate it.
pub fn available_tiers() -> impl Iterator<Item = Tier> {
    let top = active_tier();
    [Tier::Baseline, Tier::Avx2, Tier::Avx512].into_iter().filter(move |&t| t <= top)
}

/// Runs `kernel` at [`active_tier`].
#[inline]
pub fn run<K: Kernel>(kernel: K) -> K::Output {
    dispatch(active_tier(), kernel)
}

/// Runs `kernel` at `tier`.
///
/// # Panics
///
/// If this CPU does not run `tier` (it is above [`active_tier`]).
pub fn run_at<K: Kernel>(tier: Tier, kernel: K) -> K::Output {
    assert!(tier <= active_tier(), "this CPU does not run {tier:?} (best: {:?})", active_tier());
    dispatch(tier, kernel)
}

/// Calls `kernel` at `tier`, which must be at most [`active_tier`].
#[inline(always)]
fn dispatch<K: Kernel>(tier: Tier, kernel: K) -> K::Output {
    match tier {
        Tier::Baseline => kernel.run(),
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: both callers pass a tier at most `active_tier()`, and
        // `detected_tier` returns AVX2 only after runtime detection found it.
        Tier::Avx2 => unsafe { run_avx2(kernel) },
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: as above; `Tier::Avx512` means detection found AVX2,
        // AVX-512F and AVX-512DQ.
        Tier::Avx512 => unsafe { run_avx512(kernel) },
        // Off x86-64 (and under Miri) `active_tier()` is the baseline, so no
        // caller reaches the vector tiers.
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        Tier::Avx2 | Tier::Avx512 => kernel.run(),
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,avx512f,avx512dq")]
fn run_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loop that vectorises at every tier: 64-bit multiply, add and min.
    struct Mix<'a>(&'a [u64]);

    impl Kernel for Mix<'_> {
        type Output = u64;
        #[inline(always)]
        fn run(self) -> u64 {
            let mut acc = [u64::MAX; 8];
            for chunk in self.0.chunks(8) {
                for (a, &x) in acc.iter_mut().zip(chunk) {
                    *a = (*a).min(x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(x >> 3));
                }
            }
            acc.iter().fold(0, |h, &a| (h ^ a).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        }
    }

    #[test]
    fn tier_list_ascends_from_baseline_to_active_and_every_tier_agrees() {
        let tiers: Vec<Tier> = available_tiers().collect();
        assert_eq!(tiers.first(), Some(&Tier::Baseline));
        assert_eq!(tiers.last(), Some(&active_tier()));
        assert!(tiers.windows(2).all(|w| w[0] < w[1]), "{tiers:?}");
        if cfg!(any(miri, not(target_arch = "x86_64"))) {
            assert_eq!(tiers, [Tier::Baseline]);
        }

        let data: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D)).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let want = run_at(Tier::Baseline, Mix(&data[..len]));
            for &tier in &tiers {
                assert_eq!(run_at(tier, Mix(&data[..len])), want, "{tier:?} len {len}");
            }
            assert_eq!(run(Mix(&data[..len])), want, "len {len}");
        }
    }
}
