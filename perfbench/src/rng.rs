//! Seeded input generator (SplitMix64): the same seed always yields the same inputs.

/// A small, fast, seedable pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so one seed can feed several
    /// independent input streams.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `len` values uniformly drawn from the `width`-bit range.
    pub fn values(&mut self, len: usize, width: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(len);
        self.fill(&mut out, len, width);
        out
    }

    /// Replaces `out`'s contents with [`Rng::values`]`(len, width)`, reusing its
    /// allocation.
    pub fn fill(&mut self, out: &mut Vec<u64>, len: usize, width: usize) {
        let mask = simdram_logic::word_mask(width);
        out.clear();
        out.extend((0..len).map(|_| self.next_u64() & mask));
    }
}
