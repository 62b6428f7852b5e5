//! The slice of rand 0.8 the engine's dataset generator and vbench use:
//! `SmallRng` (xoshiro256++ seeded through SplitMix64, as on 64-bit
//! targets), `Rng::{gen, gen_range, gen_bool}` and `SliceRandom::shuffle`,
//! following the published algorithms (widening-multiply rejection for
//! integers, `[1, 2)` mantissa fill for floats, Fisher-Yates from the back).

use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types `Rng::gen_range` can draw from a half-open range.
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool: p = {p} is outside [0, 1]"
        );
        if p == 1.0 {
            return true;
        }
        // 2^64 as f64; the cast saturates, so p just below 1 stays valid.
        self.next_u64() < (p * 18_446_744_073_709_551_616.0) as u64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 / (1u32 << 24) as f32
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

macro_rules! uniform_int {
    ($($ty:ty => $unsigned:ty, $large:ty, $wide:ty, $next:ident);* $(;)?) => {$(
        impl SampleUniform for $ty {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: $ty, high: $ty) -> $ty {
                assert!(low < high, "gen_range: empty range");
                let range = high.wrapping_sub(low) as $unsigned as $large;
                let zone = if <$unsigned>::MAX as u64 <= u16::MAX as u64 {
                    let reject = (<$large>::MAX - range + 1) % range;
                    <$large>::MAX - reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let wide = rng.$next() as $wide * range as $wide;
                    let (hi, lo) = ((wide >> <$large>::BITS) as $large, wide as $large);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    )*};
}

uniform_int! {
    u8 => u8, u32, u64, next_u32;
    u16 => u16, u32, u64, next_u32;
    u32 => u32, u32, u64, next_u32;
    i32 => u32, u32, u64, next_u32;
    u64 => u64, u64, u128, next_u64;
    i64 => u64, u64, u128, next_u64;
    usize => usize, u64, u128, next_u64;
}

macro_rules! uniform_float {
    ($($ty:ty, $bits:ty, $next:ident, $discard:expr, $one:expr);* $(;)?) => {$(
        impl SampleUniform for $ty {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: $ty, high: $ty) -> $ty {
                assert!(low < high, "gen_range: empty range");
                let scale = high - low;
                loop {
                    // Fill the mantissa of a float in [1, 2), then shift to [0, 1).
                    let unit = <$ty>::from_bits((rng.$next() >> $discard) as $bits | $one) - 1.0;
                    let value = unit * scale + low;
                    if value < high {
                        return value;
                    }
                }
            }
        }
    )*};
}

uniform_float! {
    f32, u32, next_u32, 9, 0x3F80_0000;
    f64, u64, next_u64, 12, 0x3FF0_0000_0000_0000;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> SmallRng {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    pub trait SliceRandom {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = if i < u32::MAX as usize {
                    rng.gen_range(0..i as u32 + 1) as usize
                } else {
                    rng.gen_range(0..i + 1)
                };
                self.swap(i, j);
            }
        }
    }
}
