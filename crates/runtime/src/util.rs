//! Hot-path hashing: a point-lookup map.
//!
//! The executor keeps a map from 128-byte line address to in-flight
//! request state; it is probed on every cache miss. `std`'s SipHash is
//! needlessly slow for integer keys (see the Rust Performance Book's
//! hashing chapter), and pulling in an external hashing crate is not
//! justified for one map, so this is a minimal Fx-style multiply hasher.
//!
//! A hash map's iteration order is a function of its insertion history,
//! so the determinism contract allows hashing only where nothing
//! iterates. [`PointMap`] is that map: it has no iterator to call, and
//! `clippy.toml` rejects a `std` `HashMap` or `HashSet` anywhere else.

#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

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

/// A map with the fast integer hasher that offers point lookups only.
///
/// The probe sequence and cost are those of a `HashMap` with
/// [`IntHasher`]; what it leaves out is iteration, so a hash order
/// cannot escape into a result. Collecting the waiting pages in hash
/// order does not compile (E0599):
///
/// ```compile_fail,E0599
/// use emogi_runtime::util::PointMap;
///
/// let mut page_waiters: PointMap<u64, Vec<u32>> = PointMap::default();
/// page_waiters.slot(7).push(0);
/// let pages = [7u64, 9];
/// let woken: Vec<u64> = page_waiters.keys().copied().filter(|p| pages.contains(p)).collect();
/// assert_eq!(woken, [7]);
/// ```
///
/// Its twin walks the ordered batch and looks each page up:
///
/// ```
/// use emogi_runtime::util::PointMap;
///
/// let mut page_waiters: PointMap<u64, Vec<u32>> = PointMap::default();
/// page_waiters.slot(7).push(0);
/// let pages = [7u64, 9];
/// let woken: Vec<u64> = pages.iter().copied().filter(|p| page_waiters.get(p).is_some()).collect();
/// assert_eq!(woken, [7]);
/// ```
pub struct PointMap<K, V>(
    #[allow(clippy::disallowed_types)] HashMap<K, V, BuildHasherDefault<IntHasher>>,
);

impl<K, V> Default for PointMap<K, V> {
    fn default() -> Self {
        Self(Default::default())
    }
}

impl<K: Hash + Eq, V> PointMap<K, V> {
    /// The value at `k`.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.0.get(k)
    }

    /// The value at `k`, mutably.
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.0.get_mut(k)
    }

    /// The value at `k`, inserting `V::default()` first if absent.
    #[inline]
    pub fn slot(&mut self, k: K) -> &mut V
    where
        V: Default,
    {
        self.0.entry(k).or_default()
    }

    /// Remove and return the value at `k`.
    #[inline]
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.0.remove(k)
    }

    /// Does the map hold nothing?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_works_like_a_map() {
        let mut m: PointMap<u64, u32> = PointMap::default();
        assert!(m.is_empty());
        for i in 0..1000u64 {
            *m.slot(i * 128) = i as u32;
        }
        assert_eq!(m.get(&(50 * 128)), Some(&50));
        *m.get_mut(&(50 * 128)).unwrap() += 1;
        assert_eq!(m.get(&(50 * 128)), Some(&51));
        assert_eq!(m.remove(&0), Some(0));
        assert_eq!(m.get(&0), None);
        assert!(!m.is_empty());
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
