//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so this vendored crate
//! provides the exact API subset the workspace uses — `Rng`,
//! `SeedableRng`, `rngs::StdRng`, `seq::SliceRandom` — backed by a
//! deterministic xoshiro256++ generator seeded through SplitMix64.
//! Statistical quality is sufficient for the workspace's empirical
//! total-variation tests (xoshiro256++ passes BigCrush); cryptographic
//! security is explicitly *not* provided (the real `StdRng` is ChaCha12).

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (taken from the high half of a 64-bit word).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types sampleable uniformly "from all values" by [`Rng::gen`], mirroring
/// rand's `Standard` distribution.
pub trait Standard {
    /// Draws a value from the standard distribution for this type.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

/// Maps 64 random bits to a uniform f64 in `[0, 1)` (53-bit mantissa).
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges a value can be drawn from uniformly by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u128;
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u128 + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, u16, u8);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let x = self.start + unit_f64(rng.next_u64()) * (self.end - self.start);
        // guard against rounding up to the exclusive end
        if x >= self.end {
            self.start
        } else {
            x
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        lo + unit_f64(rng.next_u64()) * (hi - lo)
    }
}

/// User-facing random value generation, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A value drawn from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        unit_f64(self.next_u64()) < p
    }

    /// A value drawn uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Reproducible construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed, expanded with SplitMix64
    /// so that nearby seeds give uncorrelated streams.
    fn seed_from_u64(state: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman–Vigna).
    ///
    /// Deterministic, 256-bit state, passes BigCrush; **not**
    /// cryptographically secure (the real `rand::rngs::StdRng` is
    /// ChaCha12 — acceptable here because the workspace only uses
    /// `StdRng` for simulation randomness).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl StdRng {
        /// The generator with state `s`, nudged off the all-zero state.
        pub(crate) fn from_words(mut s: [u64; 4]) -> Self {
            // the all-zero state is a fixpoint of xoshiro; nudge it
            if s == [0, 0, 0, 0] {
                s = [
                    0x9e37_79b9_7f4a_7c15,
                    0xbf58_476d_1ce4_e5b9,
                    0x94d0_49bb_1331_11eb,
                    0x2545_f491_4f6c_dd1d,
                ];
            }
            StdRng { s }
        }
    }

    impl SeedableRng for StdRng {
        /// Four SplitMix64 outputs, one per state word.
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            StdRng::from_words(std::array::from_fn(|_| {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }))
        }
    }
}

/// Random operations on slices.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling and choosing on slices, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    /// The byte-path seeding `StdRng` used before it wrote words
    /// directly: SplitMix64 words written into a 32-byte seed, then
    /// unpacked little-endian into the four state words.
    fn seed_from_u64_bytewise(state: u64) -> StdRng {
        let mut seed = [0u8; 32];
        let mut sm = state;
        for chunk in seed.chunks_mut(8) {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        StdRng::from_words(std::array::from_fn(|i| {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            u64::from_le_bytes(bytes)
        }))
    }

    #[test]
    fn word_seeding_matches_the_byte_path() {
        let mut probe = StdRng::seed_from_u64(0x5eed);
        let edges = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        let seeds = edges
            .into_iter()
            .chain((0..100_000).map(|_| probe.gen::<u64>()));
        for seed in seeds {
            let mut fast = StdRng::seed_from_u64(seed);
            let mut slow = seed_from_u64_bytewise(seed);
            assert_eq!(fast, slow, "state for seed {seed:#x}");
            for i in 0..4 {
                assert_eq!(
                    fast.gen::<u64>(),
                    slow.gen::<u64>(),
                    "seed {seed:#x} draw {i}"
                );
            }
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen::<u64>()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen::<u64>()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
        assert!(!StdRng::seed_from_u64(2).gen_bool(0.0));
        assert!(StdRng::seed_from_u64(2).gen_bool(1.0));
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let k = rng.gen_range(2usize..7);
            assert!((2..7).contains(&k));
            seen[k - 2] = true;
            let x = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&x));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn float_frequencies_are_uniform() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }
}
