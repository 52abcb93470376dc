//! A seedless multiply-fold hasher for the integer-keyed maps of the
//! recognize–act cycle.
//!
//! The match network and the conflict set hash small integer keys: WME ids,
//! symbols, production indexes and [`Value::hash_key`](crate::Value::hash_key)
//! words. The standard library's SipHash (`RandomState`) resists hash
//! flooding but costs tens of nanoseconds per key; these keys come from the
//! program and its own working memory, so a hasher in the style of rustc's
//! `FxHasher` serves. Each word is folded in with a 64×64→128-bit multiply
//! whose halves are xored, so keys that differ only in their high bits —
//! the `f64` bit patterns of whole numbers, whose low mantissa bits are
//! zero — still spread over the low bits a table picks buckets by.
//!
//! The hasher has no seed, so a map's iteration order is the same in every
//! process. Nothing may rely on it: it changes whenever a map's capacity
//! or insertion history does.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the constant of `rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The hasher; see the module documentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let m = u128::from(self.hash ^ word) * u128::from(K);
        self.hash = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinguishing() {
        assert_eq!(hash_of(42u32), hash_of(42u32));
        assert_ne!(hash_of(42u32), hash_of(43u32));
        assert_ne!(hash_of((1u32, [2u32, 3])), hash_of((1u32, [3u32, 2])));
    }

    #[test]
    fn whole_float_keys_spread_over_low_bits() {
        // `Value::hash_key` of whole numbers is an `f64` bit pattern with
        // zero low bits; a plain multiply would send them all to bucket 0.
        let low: HashSet<u64> = (0..64)
            .map(|i| hash_of(Value::Int(i).hash_key()) & 0xff)
            .collect();
        assert!(low.len() > 32, "only {} distinct low bytes", low.len());
    }
}
