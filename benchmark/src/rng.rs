//! The benchmark's own generator: SplitMix64. Every input is a function
//! of `--seed`, and no registry crate (or the repo's `rand` shim, which a
//! later PR may change) is involved.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `lane` (a client, a side series) of the
    /// same seed.
    pub fn fork(seed: u64, lane: u64) -> Self {
        let mut base = SplitMix64(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs for seed 1234567 from the published algorithm.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn forks_differ_and_repeat() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::fork(1, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::fork(1, 0).next_u64(),
            SplitMix64::fork(1, 1).next_u64()
        );
        assert_ne!(
            SplitMix64::fork(1, 0).next_u64(),
            SplitMix64::fork(2, 0).next_u64()
        );
    }
}
