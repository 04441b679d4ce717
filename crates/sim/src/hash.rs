//! A fixed-key hasher for the per-flit bookkeeping maps.
//!
//! The scoreboard's order and wormhole checks and each consumer gate's
//! duplicate filter look up one small integer key per delivered flit.
//! None of those maps is ever iterated, so their order cannot reach a
//! report, and none is keyed by outside input, so SipHash's keyed defence
//! against collision attacks buys nothing. The multiplicative word hash
//! below (rustc's `FxHasher`) costs one rotate, xor and multiply per
//! word.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplier: 2^64 divided by the golden ratio, rounded to odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds each written word into the state as `(state <<< 5 ^ word) · K`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn keys_hash_apart_and_the_same_on_every_run() {
        let hash = |key: (u32, u64)| BuildHasherDefault::<FxHasher>::default().hash_one(key);
        assert_eq!(hash((3, 41)), hash((3, 41)));
        assert_ne!(hash((3, 41)), hash((41, 3)));
        assert_ne!(hash((3, 41)), hash((3, 42)));
        // A byte write folds whole little-endian words.
        let (mut bytes, mut word) = (FxHasher::default(), FxHasher::default());
        bytes.write(&7u64.to_le_bytes());
        7u64.hash(&mut word);
        assert_eq!(bytes.finish(), word.finish());
    }
}
