//! Sectored, set-associative GPU cache.
//!
//! NVIDIA GPUs cache in 128-byte lines split into four 32-byte sectors;
//! a miss only fetches the missing sectors, which is why the FPGA sees
//! 32-byte-granular PCIe traffic in the first place. EMOGI's §3.3 analysis
//! of the strided pattern hinges on this cache: "these 32-byte data items
//! will likely occupy GPU cache and can be evicted before all elements are
//! traversed due to cache thrashing" — i.e. with tens of thousands of
//! in-flight sectors and bounded capacity, a sector is often gone by the
//! time its warp would have consumed its remaining elements, so the warp
//! fetches the same sector again. The runtime reproduces that re-fetch
//! traffic through this model.
//!
//! The cache is a timing/traffic model only: it tracks presence, not data.

use crate::coalesce::LINE_BYTES;

/// Sectors per 128-byte line.
pub const SECTORS_PER_LINE: usize = 4;

const INVALID: u64 = u64::MAX;

/// Cache geometry and timing.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    pub capacity_bytes: u64,
    pub ways: usize,
    /// Latency to serve a sector already present, ns.
    pub hit_latency_ns: u64,
}

impl CacheConfig {
    /// Number of sets implied by capacity and associativity.
    pub fn num_sets(&self) -> usize {
        let lines = (self.capacity_bytes / LINE_BYTES) as usize;
        (lines / self.ways).max(1)
    }
}

/// Running counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub sector_hits: u64,
    pub sector_misses: u64,
    pub line_evictions: u64,
    pub fills: u64,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.sector_hits + self.sector_misses;
        if total == 0 {
            0.0
        } else {
            self.sector_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    tag: u64,
    sectors: u8,
    stamp: u64,
}

/// The cache proper.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    ways: usize,
    num_sets: u64,
    slots: Vec<Way>,
    tick: u64,
    pub hit_latency_ns: u64,
    pub stats: CacheStats,
}

impl SectoredCache {
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.num_sets();
        Self {
            ways: cfg.ways,
            num_sets: sets as u64,
            slots: vec![
                Way {
                    tag: INVALID,
                    sectors: 0,
                    stamp: 0,
                };
                sets * cfg.ways
            ],
            tick: 0,
            hit_latency_ns: cfg.hit_latency_ns,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = ((line / LINE_BYTES) % self.num_sets) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Look up `mask` sectors of `line`. Returns the subset of sectors that
    /// hit. Does **not** allocate; fills happen when data arrives.
    #[inline]
    pub fn probe(&mut self, line: u64, mask: u8) -> u8 {
        debug_assert_eq!(line % LINE_BYTES, 0);
        self.tick += 1;
        let range = self.set_range(line);
        for way in &mut self.slots[range] {
            if way.tag == line {
                way.stamp = self.tick;
                let hit = way.sectors & mask;
                self.stats.sector_hits += u64::from(hit.count_ones());
                self.stats.sector_misses += u64::from((mask & !hit).count_ones());
                return hit;
            }
        }
        self.stats.sector_misses += u64::from(mask.count_ones());
        0
    }

    /// Install `mask` sectors of `line` (data arrived from memory),
    /// evicting the LRU way of the set if the line is not present.
    #[inline]
    pub fn fill(&mut self, line: u64, mask: u8) {
        debug_assert_eq!(line % LINE_BYTES, 0);
        self.tick += 1;
        self.stats.fills += 1;
        let range = self.set_range(line);
        let slots = &mut self.slots[range];
        // Already present: widen the sector mask.
        if let Some(way) = slots.iter_mut().find(|w| w.tag == line) {
            way.sectors |= mask;
            way.stamp = self.tick;
            return;
        }
        // Prefer an invalid way, else evict LRU.
        let victim = slots
            .iter_mut()
            .min_by_key(|w| if w.tag == INVALID { 0 } else { w.stamp })
            .expect("cache sets are never empty");
        if victim.tag != INVALID {
            self.stats.line_evictions += 1;
        }
        *victim = Way {
            tag: line,
            sectors: mask,
            stamp: self.tick,
        };
    }

    /// Drop every line whose address falls in `[start, end)` (page
    /// eviction under UVM invalidates its cached sectors). Stamps and
    /// stats are untouched.
    ///
    /// A range shorter than one pass over the sets (a 4 KiB page is 32
    /// lines) looks each of its lines up in the line's own set; only a
    /// range that covers the cache is worth a scan of every way.
    pub fn invalidate_range(&mut self, start: u64, end: u64) {
        let first = start.div_ceil(LINE_BYTES);
        let past = end.div_ceil(LINE_BYTES);
        if past.saturating_sub(first) >= self.num_sets {
            self.invalidate_range_by_scan(start, end);
            return;
        }
        for line in (first..past).map(|i| i * LINE_BYTES) {
            let range = self.set_range(line);
            if let Some(way) = self.slots[range].iter_mut().find(|w| w.tag == line) {
                way.tag = INVALID;
                way.sectors = 0;
            }
        }
    }

    /// [`invalidate_range`](Self::invalidate_range) by visiting every way.
    fn invalidate_range_by_scan(&mut self, start: u64, end: u64) {
        for way in &mut self.slots {
            if way.tag != INVALID && way.tag >= start && way.tag < end {
                way.tag = INVALID;
                way.sectors = 0;
            }
        }
    }

    /// Forget everything (between experiment phases).
    pub fn clear(&mut self) {
        for way in &mut self.slots {
            way.tag = INVALID;
            way.sectors = 0;
            way.stamp = 0;
        }
    }

    /// Test/debug helper: are all `mask` sectors of `line` present?
    pub fn contains(&self, line: u64, mask: u8) -> bool {
        let range = self.set_range(line);
        self.slots[range]
            .iter()
            .any(|w| w.tag == line && w.sectors & mask == mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny() -> SectoredCache {
        // 2 sets x 2 ways x 128 B = 512 B.
        SectoredCache::new(&CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            hit_latency_ns: 10,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(0, 0b0001), 0);
        c.fill(0, 0b0001);
        assert_eq!(c.probe(0, 0b0001), 0b0001);
        assert_eq!(c.stats.sector_misses, 1);
        assert_eq!(c.stats.sector_hits, 1);
    }

    #[test]
    fn partial_sector_hits() {
        let mut c = tiny();
        c.fill(0, 0b0011);
        assert_eq!(c.probe(0, 0b0110), 0b0010);
    }

    #[test]
    fn fill_widens_existing_line() {
        let mut c = tiny();
        c.fill(128, 0b0001);
        c.fill(128, 0b1000);
        assert!(c.contains(128, 0b1001));
        assert_eq!(c.stats.line_evictions, 0);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 256, 512 all map to set 0 (stride = 2 sets x 128 B).
        c.fill(0, 0b1111);
        c.fill(256, 0b1111);
        c.probe(0, 0b0001); // touch line 0 so 256 is LRU
        c.fill(512, 0b1111);
        assert!(c.contains(0, 0b1111), "recently used line survives");
        assert!(!c.contains(256, 0b1111), "LRU line evicted");
        assert!(c.contains(512, 0b1111));
        assert_eq!(c.stats.line_evictions, 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.fill(0, 0b1111); // set 0
        c.fill(128, 0b1111); // set 1
        c.fill(256, 0b1111); // set 0
        assert!(
            c.contains(128, 0b1111),
            "other set untouched by set-0 fills"
        );
    }

    #[test]
    fn invalidate_range_drops_lines() {
        let mut c = tiny();
        c.fill(0, 0b1111);
        c.fill(128, 0b1111);
        c.invalidate_range(0, 128);
        assert!(!c.contains(0, 0b0001));
        assert!(c.contains(128, 0b1111));
    }

    /// The set-indexed walk against the scan it replaced, on random
    /// cache states: same ways invalidated, stamps and stats untouched,
    /// so the next fills pick the same victims.
    #[test]
    fn set_indexed_invalidation_equals_the_full_scan() {
        let mut rng = StdRng::seed_from_u64(20260928);
        // 8 sets x 4 ways; addresses over 4x the capacity.
        let cfg = CacheConfig {
            capacity_bytes: 8 * 4 * LINE_BYTES,
            ways: 4,
            hit_latency_ns: 1,
        };
        let span = 4 * cfg.capacity_bytes;
        let touch = |c: &mut SectoredCache, rng: &mut StdRng| {
            let line = rng.gen_range(0..span / LINE_BYTES) * LINE_BYTES;
            let mask = rng.gen_range(1..16u64) as u8;
            if rng.gen_bool(0.5) {
                c.fill(line, mask);
            } else {
                c.probe(line, mask);
            }
        };
        for case in 0..400 {
            let mut indexed = SectoredCache::new(&cfg);
            for _ in 0..rng.gen_range(0..200) {
                touch(&mut indexed, &mut rng);
            }
            let mut scanned = indexed.clone();
            let start = rng.gen_range(0..span);
            let (start, end) = match case % 5 {
                0 => (start, start),                                     // empty
                1 => (start, start + rng.gen_range(1..=LINE_BYTES)),     // at most one line
                2 => (start, start + rng.gen_range(0..span)),            // up to >= capacity
                3 => (0, u64::MAX),                                      // everything
                _ => (start, start + rng.gen_range(0..16 * LINE_BYTES)), // a few lines, unaligned
            };
            indexed.invalidate_range(start, end);
            scanned.invalidate_range_by_scan(start, end);
            assert_eq!(indexed.slots, scanned.slots, "[{start}, {end})");
            assert_eq!(indexed.stats, scanned.stats);
            // Same victims afterwards: replay one access stream on both.
            let mut replay = rng.clone();
            for _ in 0..64 {
                touch(&mut indexed, &mut rng);
                touch(&mut scanned, &mut replay);
            }
            assert_eq!(
                indexed.slots, scanned.slots,
                "after refill of [{start}, {end})"
            );
            assert_eq!(indexed.stats, scanned.stats);
        }
    }

    #[test]
    fn clear_resets_contents_not_stats() {
        let mut c = tiny();
        c.fill(0, 0b1111);
        c.probe(0, 0b1111);
        let hits = c.stats.sector_hits;
        c.clear();
        assert!(!c.contains(0, 0b0001));
        assert_eq!(c.stats.sector_hits, hits);
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            sector_hits: 3,
            sector_misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn non_power_of_two_set_count_works() {
        // V100's 6 MiB L2 with 16 ways gives 3072 sets; indexing is modulo.
        let mut c = SectoredCache::new(&CacheConfig {
            capacity_bytes: 6 << 20,
            ways: 16,
            hit_latency_ns: 1,
        });
        c.fill(0, 0b1111);
        c.fill(3072 * 128, 0b1111); // same set as line 0
        assert!(c.contains(0, 0b1111));
        assert!(c.contains(3072 * 128, 0b1111));
    }
}
