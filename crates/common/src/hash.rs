//! The engine's two hash functions.
//!
//! **xxHash64.** The paper's FunCache baseline uses xxHash to hash UDF input
//! arguments (video frames) at every invocation. We implement the xxHash64
//! algorithm in-repo (~60 lines) rather than pulling an extra dependency; the
//! reference vectors below pin the implementation to the upstream spec.
//!
//! **[`KeyHasher`].** Every table keyed by a view key — the view index, the
//! per-frame fuzzy index, the invocation statistics' distinct-input sets —
//! hashes engine-derived integers (frame ids, quantized detector boxes), a
//! million times per session. std's SipHash defends against keys an attacker
//! chooses; these keys are not caller-chosen strings, so one folded multiply
//! per word replaces it. Keep the std hasher for anything keyed by input
//! from outside the program.

use std::hash::{BuildHasherDefault, Hasher};

const PRIME64_1: u64 = 0x9E3779B185EBCA87;
const PRIME64_2: u64 = 0xC2B2AE3D27D4EB4F;
const PRIME64_3: u64 = 0x165667B19E3779F9;
const PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const PRIME64_5: u64 = 0x27D4EB2F165667C5;

#[inline]
fn read_u64(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().unwrap())
}

#[inline]
fn read_u32(data: &[u8], i: usize) -> u64 {
    u32::from_le_bytes(data[i..i + 4].try_into().unwrap()) as u64
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// Compute the xxHash64 of `data` with the given `seed`.
pub fn xxhash64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut i = 0;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while i + 32 <= len {
            v1 = round(v1, read_u64(data, i));
            v2 = round(v2, read_u64(data, i + 8));
            v3 = round(v3, read_u64(data, i + 16));
            v4 = round(v4, read_u64(data, i + 24));
            i += 32;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while i + 8 <= len {
        h = (h ^ round(0, read_u64(data, i)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        i += 8;
    }
    if i + 4 <= len {
        h = (h ^ read_u32(data, i).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        i += 4;
    }
    while i < len {
        h = (h ^ (data[i] as u64).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
        i += 1;
    }

    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

/// A 128-bit key built from two seeded xxHash64 passes — the shape the paper
/// cites for FunCache ("128-bit hash values of the input arguments").
pub fn xxhash128(data: &[u8]) -> (u64, u64) {
    (xxhash64(data, 0), xxhash64(data, 0x9E3779B97F4A7C15))
}

/// Folded-multiply hasher for engine-derived integer keys: each written
/// word is xored into the state, multiplied by an odd 64-bit constant into
/// 128 bits, and the two halves are xored together — so both the low bits
/// (hashbrown's bucket index) and the high bits (its control byte) depend on
/// every input bit. Not collision-resistant against chosen keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

/// `BuildHasher` for [`KeyHasher`]-keyed maps and sets.
pub type KeyBuildHasher = BuildHasherDefault<KeyHasher>;

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        let m = u128::from(self.0 ^ v) * u128::from(PRIME64_1);
        self.0 = m as u64 ^ (m >> 64) as u64;
    }

    /// Byte strings fold eight bytes at a time (zero-padded tail); the
    /// length goes in first so `"a"` and `"a\0"` differ.
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors from the canonical xxHash repository test suite.
    #[test]
    fn reference_empty() {
        assert_eq!(xxhash64(b"", 0), 0xEF46DB3751D8E999);
    }

    #[test]
    fn reference_single_byte() {
        // XXH64 of one byte 0x9e with seed 0 per upstream sanity checks uses
        // a generated buffer; instead pin well-known ASCII vectors.
        assert_eq!(xxhash64(b"a", 0), 0xD24EC4F1A98C6E5B);
    }

    #[test]
    fn reference_abc() {
        assert_eq!(xxhash64(b"abc", 0), 0x44BC2CF5AD770999);
    }

    #[test]
    fn reference_long_with_seed() {
        // "xxhash" hashed with seed 20141025 — vector used by several
        // independent implementations.
        assert_eq!(xxhash64(b"xxhash", 20141025), 0xB559B98D844E0635);
    }

    #[test]
    fn covers_all_length_branches() {
        // Lengths crossing the 32-byte stripe, 8-byte, 4-byte and tail paths.
        for len in [0usize, 1, 3, 4, 7, 8, 15, 31, 32, 33, 63, 64, 100] {
            let data: Vec<u8> = (0..len as u32).map(|i| (i * 37 + 11) as u8).collect();
            let h1 = xxhash64(&data, 7);
            let h2 = xxhash64(&data, 7);
            assert_eq!(h1, h2, "deterministic at len {len}");
            if len > 0 {
                let mut tweaked = data.clone();
                tweaked[len / 2] ^= 0xFF;
                assert_ne!(xxhash64(&tweaked, 7), h1, "sensitive at len {len}");
            }
        }
    }

    #[test]
    fn xxhash128_halves_differ() {
        let (lo, hi) = xxhash128(b"frame-bytes");
        assert_ne!(lo, hi);
    }

    #[test]
    fn key_hasher_is_deterministic_and_order_sensitive() {
        let hash = |words: &[u64]| {
            let mut h = KeyHasher::default();
            words.iter().for_each(|&w| h.write_u64(w));
            h.finish()
        };
        assert_eq!(hash(&[7, 9]), hash(&[7, 9]), "no per-instance seed");
        assert_ne!(hash(&[7, 9]), hash(&[9, 7]));
        assert_ne!(hash(&[7]), hash(&[7, 0]));
        // Neighbouring integers differ in the bits hashbrown reads at both
        // ends of the word.
        let (a, b) = (hash(&[1000]), hash(&[1001]));
        assert_ne!(a & 0xFF, b & 0xFF);
        assert_ne!(a >> 57, b >> 57);
        // Byte strings: length-prefixed, so a zero tail is not a no-op.
        let bytes = |b: &[u8]| {
            let mut h = KeyHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(b"a"), bytes(b"a\0"));
        assert_eq!(bytes(b"frame-bytes"), bytes(b"frame-bytes"));
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(xxhash64(b"frame", 0), xxhash64(b"frame", 1));
    }
}
