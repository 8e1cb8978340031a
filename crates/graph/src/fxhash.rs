//! The Fx hash function (as used by rustc) and map/set aliases.
//!
//! `ConstructPlan` (paper §5.3) leans on hash maps for leader lookup and
//! fork-copy grouping; the paper notes "the search steps used in the
//! algorithm can be implemented efficiently using hash functions". The keys
//! are small integers/tuples, for which SipHash's DoS resistance buys nothing
//! and costs a lot — Fx is the standard fast alternative (see the Rust
//! Performance Book's Hashing chapter). Implemented in-house to keep the
//! dependency set minimal.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// A fast, non-cryptographic hasher for small keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u32::from_le_bytes(buf) as u64);
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&(1u32, 2u32)), hash_of(&(1u32, 2u32)));
        assert_eq!(hash_of(&"workflow"), hash_of(&"workflow"));
    }

    #[test]
    fn different_values_usually_differ() {
        // Not a cryptographic guarantee, but these must differ for the hash
        // to be useful at all.
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<(u32, u32, u32), &str> = FxHashMap::default();
        m.insert((1, 2, 3), "a");
        m.insert((3, 2, 1), "b");
        assert_eq!(m.get(&(1, 2, 3)), Some(&"a"));
        assert_eq!(m.len(), 2);

        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000 {
            s.insert(i * 7919);
        }
        assert_eq!(s.len(), 1000);
        assert!(s.contains(&(7919 * 999)));
    }

    #[test]
    fn byte_stream_chunking_consistency() {
        // write() must consume 8-byte, 4-byte and tail chunks without panic
        for len in 0..32 {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut h = FxHasher::default();
            h.write(&bytes);
            let _ = h.finish();
        }
    }

    #[test]
    fn distribution_smoke_test() {
        // Hash 10k sequential tuples into 64 buckets; no bucket should be
        // pathologically overloaded (>4x expected).
        let mut buckets = [0u32; 64];
        for i in 0..10_000u32 {
            let h = hash_of(&(i, i ^ 0xdead));
            buckets[(h >> 58) as usize] += 1;
        }
        let expected = 10_000 / 64;
        assert!(buckets.iter().all(|&c| c < 4 * expected), "{buckets:?}");
    }
}
