//! Section checksums.
//!
//! [`Checksummer`] is the section checksum: a 64-lane striped xor-multiply
//! hash. The input is consumed in 512-byte blocks; word `i` of each block
//! updates lane `i` as `lane = (lane ^ word) * LANE_MUL`, every lane starting
//! from its own odd seed, and [`finish`](Checksummer::finish) folds the lanes
//! and the total length into one word. The 64 lanes have no dependency on one
//! another, so the block loop keeps eight 512-bit accumulators in flight under
//! AVX-512 and runs at memory bandwidth: the 586 MiB 580k-vertex artifact
//! checksums in ≈ 77 ms of its < 200 ms cold-start budget.
//!
//! Within a lane each absorbed word is mixed by `lane = (lane ^ word) * ODD`,
//! which is injective in the word (xor is a bijection, multiplication by an odd
//! constant is a bijection mod 2^64), and every later step of that lane is a
//! bijection of its state; the finalizer is a chain of bijections in each lane
//! given the others. So **any single-word change in the input always changes
//! the checksum** — the property the corruption-fuzz battery leans on.
//!
//! The block loop is written once, in plain Rust, and compiled per CPU tier
//! by [`crate::simd`]: AVX-512 F+DQ (whose `vpmullq` multiplies eight 64-bit
//! lanes at once), AVX2 (four lanes, the multiply built from 32-bit halves)
//! and the baseline. Every tier computes the same value. Single-core
//! throughput on the AVX-512 bench box (GB/s, in L2 / from a 13 MB buffer /
//! from a 256 MB buffer): AVX-512 62 / 20 / 8.2, AVX2 26 / 16 / 6.6, baseline
//! 9.5 / 9.5 / 5.1; the 8-lane scalar loop of format 6 ran 19 / 15 / 5.8.

use crate::simd::{self, Kernel, Tier};

/// Lanes per block.
const LANES: usize = 64;
/// Block size in bytes: one `u64` word per lane.
const BLOCK: usize = LANES * 8;
/// Per-lane multiplier (odd ⇒ multiplication is a bijection mod 2^64).
const LANE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Finalization multiplier (odd).
const FINAL_MUL: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Distinct odd lane seeds (a splitmix64 stream), so permuting blocks changes
/// the result.
const LANE_SEEDS: [u64; LANES] = lane_seeds();

const fn lane_seeds() -> [u64; LANES] {
    let mut seeds = [0u64; LANES];
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut i = 0;
    while i < LANES {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        seeds[i] = (z ^ (z >> 31)) | 1;
        i += 1;
    }
    seeds
}

/// The block loop: one portable body, compiled per CPU tier by [`simd`].
struct Absorb<'a> {
    lanes: &'a mut [u64; LANES],
    blocks: &'a [[u8; BLOCK]],
}

impl Kernel for Absorb<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        // Local accumulators stay in registers across the whole pass instead of
        // round-tripping through `lanes`.
        let mut acc = *self.lanes;
        for block in self.blocks {
            let (words, _) = block.as_chunks::<8>();
            for (lane, word) in acc.iter_mut().zip(words) {
                *lane = (*lane ^ u64::from_le_bytes(*word)).wrapping_mul(LANE_MUL);
            }
        }
        *self.lanes = acc;
    }
}

/// Streaming 64-lane checksum over a byte stream.
///
/// Feed bytes with [`update`](Checksummer::update) in any chunking; the result
/// of [`finish`](Checksummer::finish) depends only on the concatenated stream.
#[derive(Clone)]
pub struct Checksummer {
    lanes: [u64; LANES],
    buf: [u8; BLOCK],
    buf_len: usize,
    total: u64,
    tier: Tier,
}

impl Default for Checksummer {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksummer {
    /// A fresh checksummer with seeded lanes.
    pub fn new() -> Checksummer {
        Self::with_tier(simd::active_tier())
    }

    fn with_tier(tier: Tier) -> Checksummer {
        Checksummer { lanes: LANE_SEEDS, buf: [0u8; BLOCK], buf_len: 0, total: 0, tier }
    }

    /// Absorbs `data` into the checksum.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK {
                return; // buffer still partial; keep accumulating
            }
            let block = self.buf;
            simd::run_at(self.tier, Absorb { lanes: &mut self.lanes, blocks: &[block] });
            self.buf_len = 0;
        }
        let (blocks, rem) = data.as_chunks::<BLOCK>();
        simd::run_at(self.tier, Absorb { lanes: &mut self.lanes, blocks });
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finalizes the checksum. A partial last block is zero-padded, and the
    /// total stream length is folded in, so a stream and its zero-padded
    /// extension hash differently.
    pub fn finish(mut self) -> u64 {
        if self.buf_len > 0 {
            self.buf[self.buf_len..].fill(0);
            let block = self.buf;
            simd::run_at(self.tier, Absorb { lanes: &mut self.lanes, blocks: &[block] });
        }
        let mut h = self.total ^ 0x9AE1_6A3B_2F90_404F;
        for lane in self.lanes {
            h = (h ^ lane).wrapping_mul(FINAL_MUL);
            h ^= h >> 29;
        }
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 32)
    }
}

/// One-shot convenience wrapper around [`Checksummer`].
pub fn checksum(data: &[u8]) -> u64 {
    let mut c = Checksummer::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checksum_at(tier: Tier, data: &[u8], chunk: usize) -> u64 {
        let mut c = Checksummer::with_tier(tier);
        for piece in data.chunks(chunk.max(1)) {
            c.update(piece);
        }
        c.finish()
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn lane_seeds_are_distinct_and_odd() {
        for (i, s) in LANE_SEEDS.iter().enumerate() {
            assert_eq!(s & 1, 1, "seed {i}");
            assert!(!LANE_SEEDS[..i].contains(s), "seed {i} repeats");
        }
    }

    #[test]
    fn chunking_does_not_change_checksum() {
        let data: Vec<u8> = (0..1000u32).flat_map(|v| v.to_le_bytes()).collect();
        let oneshot = checksum(&data);
        for chunk in [1usize, 3, 7, 13, 64, 65, 100, 511, 512, 513] {
            let mut c = Checksummer::new();
            for piece in data.chunks(chunk) {
                c.update(piece);
            }
            assert_eq!(c.finish(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn all_available_tiers_match_baseline_exactly() {
        let backing = seeded_bytes(2 * BLOCK + 192, 0x5EED_C0DE);
        let lengths = [0, 1, 7, 8, 63, 64, 65, 511, 512, 513, 1023, 1024, 1025, 2 * BLOCK + 100];
        // Miri interprets every byte: there, a few starts stand for all 64.
        let starts: Vec<usize> = if cfg!(miri) { vec![0, 1, 7, 63] } else { (0..64).collect() };
        for &start in &starts {
            for len in lengths {
                let data = &backing[start..start + len];
                let want = checksum_at(Tier::Baseline, data, data.len());
                for tier in simd::available_tiers() {
                    for chunk in [data.len(), 1, 3, 13, 100, 511, 513] {
                        let got = checksum_at(tier, data, chunk);
                        assert_eq!(got, want, "{tier:?} start {start} len {len} chunk {chunk}");
                    }
                }
            }
        }
        assert_eq!(checksum(&backing), checksum_at(Tier::Baseline, &backing, 1));
    }

    #[test]
    fn single_bit_flips_always_detected() {
        // Injectivity argument made concrete: flip every bit of a buffer that
        // spans one whole block and part of the next.
        let data = seeded_bytes(BLOCK + 96, 0xB17F_11B5);
        let base = checksum(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum(&flipped), base, "flip at byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn length_extension_and_truncation_detected() {
        let data = vec![0u8; 128];
        assert_ne!(checksum(&data), checksum(&data[..127]));
        assert_ne!(checksum(&data), checksum(&[0u8; 129]));
        assert_ne!(checksum(&[]), checksum(&[0u8]));
        let block = [0u8; BLOCK + 1];
        assert_ne!(checksum(&block[..BLOCK]), checksum(&block));
        assert_ne!(checksum(&block[..BLOCK]), checksum(&block[..BLOCK - 1]));
    }

    #[test]
    fn block_permutation_detected() {
        let mut a = vec![0u8; 2 * BLOCK];
        a[0] = 1; // block 0 differs from block 1
        let mut b = vec![0u8; 2 * BLOCK];
        b[BLOCK] = 1;
        assert_ne!(checksum(&a), checksum(&b));
        // Two distinct whole blocks swapped.
        let data = seeded_bytes(2 * BLOCK, 0xB10C);
        let swapped = [&data[BLOCK..], &data[..BLOCK]].concat();
        assert_ne!(checksum(&data), checksum(&swapped));
    }
}
