//! Hot-path hashing.
//!
//! The executor keeps a map from 128-byte line address to in-flight
//! request state; it is probed on every cache miss. `std`'s SipHash is
//! needlessly slow for integer keys (see the Rust Performance Book's
//! hashing chapter), and pulling in an external hashing crate is not
//! justified for one map, so this is a minimal Fx-style multiply hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-ish multiply hasher for integer keys (FxHash's constant).
#[derive(Default)]
pub struct IntHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback; the hot path uses write_u64.
        for &b in bytes {
            self.state = (self.state.rotate_left(5) ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// HashMap with the fast integer hasher.
///
/// Deterministic across processes (fixed seed), but iteration order is
/// still a function of insertion history — so the determinism contract
/// restricts `FastMap` to point lookups unless the iteration result is
/// sorted (`emogi-lint` rule `unordered-iter`; currently the runtime has
/// no iteration site at all).
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_works_like_a_map() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 128, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(50 * 128)), Some(&50));
        assert_eq!(m.remove(&0), Some(0));
        assert!(!m.contains_key(&0));
    }

    #[test]
    fn aligned_keys_spread_across_buckets() {
        // Line addresses are 128-byte aligned; a weak hasher would pile
        // them into few buckets. Check distinct hashes.
        use std::hash::BuildHasher;
        let bh = BuildHasherDefault::<IntHasher>::default();
        let mut hashes: Vec<u64> = (0..4096u64)
            .map(|i| {
                let mut h = bh.build_hasher();
                h.write_u64(i * 128);
                h.finish() >> 52 // top bits used by hashbrown
            })
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert!(
            hashes.len() > 1000,
            "only {} distinct top-12-bit hashes",
            hashes.len()
        );
    }
}
