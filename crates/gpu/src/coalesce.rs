//! The memory-access coalescing unit.
//!
//! GPUs service a warp's 32 simultaneous lane accesses by merging them into
//! the minimum number of *transactions*: within each 128-byte cache line,
//! every contiguous run of touched 32-byte sectors becomes one transaction.
//! This is precisely the behaviour EMOGI observed on the FPGA monitor
//! (Figure 3): zero-copy requests only ever appear in 32/64/96/128-byte
//! sizes, strided lane accesses degenerate into per-lane 32-byte requests,
//! warp-contiguous aligned accesses merge into full 128-byte requests, and
//! a 32-byte misalignment splits each line into a 96 + 32 byte pair.
//!
//! # What a kernel emits to get the linear path
//!
//! The output is a function of the *multiset* of accesses; their order
//! only sets the host cost. Each access becomes one packed entry per
//! touched line, whose integer order is the output order, and the
//! coalescer records where the entry stream descends. Up to
//! `MAX_MERGE_RUNS` ascending runs are merged (`merge_runs`, one linear
//! pass when they do not interleave); a stream with more runs is sorted.
//! So a kernel that wants the linear path emits each (space, store,
//! instr) group as a few ascending runs and the groups in few blocks: a
//! warp's edge spans in list order, its status gathers in destination
//! order (a batch's members' entries for one vertex are adjacent, so
//! edge-outer, member-inner is still one run), and a step's stores after
//! its loads. Which group comes first does not matter, and a run may
//! straddle two groups.

use crate::access::{LaneAccess, Space};

/// Bytes per sector — the smallest external memory request a GPU makes.
pub const SECTOR_BYTES: u64 = 32;
/// Bytes per cache line — the largest single coalesced request.
pub const LINE_BYTES: u64 = 128;
/// Sectors per line.
pub const SECTORS_PER_LINE_U64: u64 = LINE_BYTES / SECTOR_BYTES;

/// A coalesced memory transaction: contiguous sectors within one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    pub addr: u64,
    /// Always a multiple of 32 in `{32, 64, 96, 128}`.
    pub size: u32,
    pub space: Space,
    pub store: bool,
}

impl Transaction {
    /// Address of the 128-byte line this transaction lives in.
    #[inline]
    pub fn line(&self) -> u64 {
        self.addr & !(LINE_BYTES - 1)
    }

    /// Bitmask of the sectors within the line this transaction covers.
    #[inline]
    pub fn sector_mask(&self) -> u8 {
        let first = ((self.addr % LINE_BYTES) / SECTOR_BYTES) as u8;
        let count = (self.size as u64 / SECTOR_BYTES) as u8;
        (((1u16 << count) - 1) << first) as u8
    }
}

/// One touched line of one instruction group, packed so that plain `u64`
/// order is the emission order (space, store, instr, line, sector):
///
/// ```text
/// [ space 2 | store 1 | instr 8 | line index 49 | sector mask 4 ]
/// ```
///
/// The line index is `addr / 128`, so addresses must stay below 2^56 (the
/// address windows top out at 2^51).
type Entry = u64;

const MASK_BITS: u32 = 4;
const LINE_INDEX_BITS: u32 = 49;
const INSTR_SHIFT: u32 = MASK_BITS + LINE_INDEX_BITS;
const STORE_SHIFT: u32 = INSTR_SHIFT + 8;
const SPACE_SHIFT: u32 = STORE_SHIFT + 1;
/// One past the highest byte address an entry can name.
const ADDR_LIMIT: u64 = LINE_BYTES << LINE_INDEX_BITS;

/// `SECTOR_RUN[lo][hi]`: the mask of sectors `lo..=hi` of a line.
const SECTOR_RUN: [[u64; 4]; 4] = {
    let mut runs = [[0; 4]; 4];
    let mut lo = 0;
    while lo < 4 {
        let mut hi = lo;
        while hi < 4 {
            runs[lo][hi] = ((1 << (hi - lo + 1)) - 1) << lo;
            hi += 1;
        }
        lo += 1;
    }
    runs
};

fn space_rank(s: Space) -> u64 {
    match s {
        Space::Device => 0,
        Space::HostPinned => 1,
        Space::Managed => 2,
        Space::Cxl => 3,
    }
}

fn rank_space(r: u64) -> Space {
    match r {
        0 => Space::Device,
        1 => Space::HostPinned,
        2 => Space::Managed,
        _ => Space::Cxl,
    }
}

/// Most ascending runs an entry stream may arrive in and still be merged;
/// a stream with more is sorted.
const MAX_MERGE_RUNS: usize = 8;

/// The coalescing unit. Holds scratch buffers so per-step coalescing does
/// not allocate; one per executor.
#[derive(Debug, Default)]
pub struct Coalescer {
    entries: Vec<Entry>,
    /// Index in `entries` where each ascending run after the first starts.
    run_starts: Vec<usize>,
    /// Calls whose entries came in more than `MAX_MERGE_RUNS` ascending
    /// runs and were sorted instead of merged.
    pub sorts: u64,
}

impl Coalescer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Coalesce a warp's lane accesses into transactions, appended to
    /// `out` in deterministic (space, store, instr, address) order.
    pub fn coalesce(&mut self, accesses: &[LaneAccess], out: &mut Vec<Transaction>) {
        self.entries.clear();
        self.run_starts.clear();
        let (entries, run_starts) = (&mut self.entries, &mut self.run_starts);
        // The entry being built. Consecutive lanes usually extend it, so it
        // lives in a register, not in `entries`; 0 means none (a real entry
        // has mask bits), and an entry that merges into 0 is itself.
        let mut open: Entry = 0;
        let mut add = |entry: Entry| {
            if (open ^ entry) >> MASK_BITS == 0 {
                open |= entry;
            } else {
                if open != 0 {
                    entries.push(open);
                    if entry < open {
                        run_starts.push(entries.len());
                    }
                }
                open = entry;
            }
        };
        for a in accesses {
            let bytes = u64::from(a.size) * u64::from(a.count);
            if bytes == 0 {
                continue;
            }
            let end = a.addr.saturating_add(bytes);
            assert!(end <= ADDR_LIMIT, "address {end:#x} beyond the packed key");
            let group = space_rank(a.space) << SPACE_SHIFT
                | u64::from(a.store) << STORE_SHIFT
                | u64::from(a.instr) << INSTR_SHIFT;
            // A span's elements are byte-contiguous, so the sectors it
            // touches are exactly those of its whole byte range.
            let (first, last) = (a.addr / SECTOR_BYTES, (end - 1) / SECTOR_BYTES);
            let (first_line, last_line) =
                (first / SECTORS_PER_LINE_U64, last / SECTORS_PER_LINE_U64);
            let (lo, hi) = (
                (first % SECTORS_PER_LINE_U64) as usize,
                (last % SECTORS_PER_LINE_U64) as usize,
            );
            if first_line == last_line {
                add(group | first_line << MASK_BITS | SECTOR_RUN[lo][hi]);
            } else {
                add(group | first_line << MASK_BITS | SECTOR_RUN[lo][3]);
                for line in first_line + 1..last_line {
                    add(group | line << MASK_BITS | SECTOR_RUN[0][3]);
                }
                add(group | last_line << MASK_BITS | SECTOR_RUN[0][hi]);
            }
        }
        if open != 0 {
            entries.push(open);
        }
        // In ascending order the entries of one line are adjacent: merge
        // their masks, then emit contiguous sector runs.
        let mut line: Entry = 0;
        let mut take = |ascending: &[Entry]| {
            for &entry in ascending {
                if (line ^ entry) >> MASK_BITS == 0 {
                    line |= entry;
                } else {
                    if line != 0 {
                        emit_runs(line, out);
                    }
                    line = entry;
                }
            }
        };
        if run_starts.len() < MAX_MERGE_RUNS {
            merge_runs(entries, run_starts, &mut take);
        } else {
            self.sorts += 1;
            entries.sort_unstable();
            take(entries);
        }
        if line != 0 {
            emit_runs(line, out);
        }
    }
}

/// Hand the ascending runs of `entries` (the first starting at 0, the
/// others at `starts`) to `take` as one ascending sequence, in slices.
///
/// Each round takes, from the run with the smallest head, every entry up
/// to the smallest head of the other runs: runs that do not interleave go
/// whole, one slice each, and interleaved ones cost a scan of the heads
/// and a binary search per slice — O(n·(r + log n)) at worst for n
/// entries in r runs.
fn merge_runs(entries: &[Entry], starts: &[usize], take: &mut impl FnMut(&[Entry])) {
    debug_assert!(starts.len() < MAX_MERGE_RUNS);
    let mut runs: [&[Entry]; MAX_MERGE_RUNS] = [&[]; MAX_MERGE_RUNS];
    let mut live = 0;
    let mut lo = 0;
    for &hi in starts.iter().chain(std::iter::once(&entries.len())) {
        runs[live] = &entries[lo..hi];
        live += 1;
        lo = hi;
    }
    while live > 1 {
        let mut min = 0;
        for k in 1..live {
            if runs[k][0] < runs[min][0] {
                min = k;
            }
        }
        let bound = (0..live)
            .filter(|&k| k != min)
            .map(|k| runs[k][0])
            .min()
            .expect("another run is live");
        let n = runs[min].partition_point(|&e| e <= bound);
        take(&runs[min][..n]);
        runs[min] = &runs[min][n..];
        if runs[min].is_empty() {
            live -= 1;
            runs[min] = runs[live];
        }
    }
    take(runs[0]);
}

fn emit_runs(entry: Entry, out: &mut Vec<Transaction>) {
    let line = (entry >> MASK_BITS & ((1 << LINE_INDEX_BITS) - 1)) * LINE_BYTES;
    let space = rank_space(entry >> SPACE_SHIFT);
    let store = entry >> STORE_SHIFT & 1 == 1;
    let mut mask = entry & 0b1111;
    debug_assert!(mask != 0, "an entry touches at least one sector");
    while mask != 0 {
        let first = mask.trailing_zeros() as usize;
        let run = (mask >> first).trailing_ones() as usize;
        out.push(Transaction {
            addr: line + first as u64 * SECTOR_BYTES,
            size: run as u32 * SECTOR_BYTES as u32,
            space,
            store,
        });
        mask &= !SECTOR_RUN[first][first + run - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessBatch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The coalescer this one replaced, kept as the oracle: one entry per
    /// lane per sector under a four-field key, sorted by that key.
    fn reference_coalesce(accesses: &[LaneAccess]) -> Vec<Transaction> {
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct EntryKey {
            space_rank: u64,
            store: bool,
            instr: u8,
            line: u64,
        }
        let mut entries: Vec<(EntryKey, u8)> = Vec::new();
        for a in accesses {
            assert_eq!(a.count, 1, "the reference takes single lanes");
            if a.size == 0 {
                continue;
            }
            let first_sector = a.addr / SECTOR_BYTES;
            let last_sector = (a.addr + u64::from(a.size) - 1) / SECTOR_BYTES;
            for s in first_sector..=last_sector {
                let key = EntryKey {
                    space_rank: space_rank(a.space),
                    store: a.store,
                    instr: a.instr,
                    line: (s * SECTOR_BYTES) & !(LINE_BYTES - 1),
                };
                entries.push((key, 1u8 << (s % SECTORS_PER_LINE_U64)));
            }
        }
        entries.sort_unstable_by_key(|(k, _)| *k);
        let mut out = Vec::new();
        let mut i = 0;
        while i < entries.len() {
            let (key, mut mask) = entries[i];
            while i < entries.len() && entries[i].0 == key {
                mask |= entries[i].1;
                i += 1;
            }
            let mut sector = 0u64;
            while mask != 0 {
                let skip = u64::from(mask.trailing_zeros());
                sector += skip;
                mask >>= skip;
                let run = u64::from(mask.trailing_ones());
                out.push(Transaction {
                    addr: key.line + sector * SECTOR_BYTES,
                    size: (run * SECTOR_BYTES) as u32,
                    space: rank_space(key.space_rank),
                    store: key.store,
                });
                sector += run;
                mask = mask.checked_shr(run as u32).unwrap_or(0);
            }
        }
        out
    }

    /// A span, lane by lane.
    fn lanes(a: &LaneAccess) -> impl Iterator<Item = LaneAccess> + '_ {
        (0..u64::from(a.count)).map(|k| LaneAccess {
            addr: a.addr + k * u64::from(a.size),
            count: 1,
            ..*a
        })
    }

    /// Coalesce `batch` as spans and lane by lane: both must emit exactly
    /// the reference's transactions in the reference's order.
    fn assert_matches_reference(c: &mut Coalescer, batch: &[LaneAccess], tag: &str) {
        let expanded: Vec<LaneAccess> = batch.iter().flat_map(lanes).collect();
        let want = reference_coalesce(&expanded);
        let mut spans = Vec::new();
        c.coalesce(batch, &mut spans);
        assert_eq!(spans, want, "{tag}: {batch:?}");
        let mut per_lane = Vec::new();
        c.coalesce(&expanded, &mut per_lane);
        assert_eq!(per_lane, want, "{tag}, expanded: {batch:?}");
    }

    /// `len` accesses of one group, each at or past the end of the one
    /// before: one ascending run of entries, starting at `from`.
    fn ascending_run(
        rng: &mut StdRng,
        from: u64,
        len: usize,
        space: Space,
        store: bool,
        instr: u8,
    ) -> Vec<LaneAccess> {
        let mut addr = from;
        (0..len)
            .map(|_| {
                let size = [4u8, 8][rng.gen_range(0..2usize)];
                let count = if rng.gen_bool(0.3) {
                    rng.gen_range(1..=32u8)
                } else {
                    1
                };
                let a = LaneAccess {
                    addr,
                    size,
                    count,
                    instr,
                    space,
                    store,
                };
                addr += u64::from(size) * u64::from(count) + rng.gen_range(0..200u64);
                a
            })
            .collect()
    }

    /// Random batches mixing spaces, stores, instruction groups, sizes
    /// 0–16 B, line-straddling accesses and spans, then batches shaped
    /// like a kernel's emission: the packed-key coalescer, fed spans or
    /// their per-lane expansion, emits exactly the reference's
    /// transactions in the reference's order. Up to `MAX_MERGE_RUNS`
    /// runs — disjoint, interleaved, straddling two groups, or meeting
    /// on one line — take the merge, never the sort; more runs take the
    /// sort.
    ///
    /// Seeded mutations: `merge_runs` taking each run whole instead of up
    /// to the other runs' smallest head (concatenating the runs) fails
    /// the reference comparison; `MAX_MERGE_RUNS = 1` (sorting every
    /// multi-run stream) fails the merge witness.
    #[test]
    fn packed_keys_and_spans_equal_the_per_lane_reference() {
        const SPACES: [Space; 4] = [Space::Device, Space::HostPinned, Space::Managed, Space::Cxl];
        let mut rng = StdRng::seed_from_u64(20260928);
        let mut c = Coalescer::new();
        for case in 0..2_000 {
            // A few windows per batch so lanes collide on lines, the
            // highest ending at the top of the packed address range.
            let windows: Vec<u64> = (0..3)
                .map(|w| match (case + w) % 3 {
                    0 => rng.gen_range(0..4u64) * 0x1_0000_0000_0000,
                    1 => rng.gen_range(0..1u64 << 40),
                    _ => ADDR_LIMIT - 4096,
                })
                .collect();
            let batch: Vec<LaneAccess> = (0..rng.gen_range(0..48usize))
                .map(|_| {
                    let size = rng.gen_range(0..=16u64);
                    let count = if rng.gen_bool(0.3) {
                        rng.gen_range(0..=32u64)
                    } else {
                        1
                    };
                    let window = windows[rng.gen_range(0..windows.len())];
                    LaneAccess {
                        addr: window + rng.gen_range(0..4096 - size * count + 1),
                        size: size as u8,
                        count: count as u8,
                        instr: [0, 1, 7, 128, 255][rng.gen_range(0..5usize)],
                        space: SPACES[rng.gen_range(0..SPACES.len())],
                        store: rng.gen_bool(0.2),
                    }
                })
                .collect();
            assert_matches_reference(&mut c, &batch, &format!("case {case}"));
        }

        const HOST: u64 = 0x2_0000_0000_0000;
        const DEV: u64 = 0x1_0000_0000_0000;
        for case in 0..2_000 {
            let sorts = c.sorts;
            let mut runs: Vec<Vec<LaneAccess>> = Vec::new();
            let shape = case % 5;
            match shape {
                // A warp step: edge and weight spans, then status gathers
                // in runs and the stores, in blocks that are disjoint but
                // come in any order.
                0 => {
                    let len = rng.gen_range(1..6usize);
                    runs.push(ascending_run(
                        &mut rng,
                        HOST,
                        len,
                        Space::HostPinned,
                        false,
                        0,
                    ));
                    runs.push(ascending_run(
                        &mut rng,
                        HOST + (1 << 30),
                        len,
                        Space::HostPinned,
                        false,
                        0,
                    ));
                    for q in 0..rng.gen_range(1..=3u64) {
                        let base = DEV + (q << 24);
                        let n = rng.gen_range(1..12usize);
                        runs.push(ascending_run(&mut rng, base, n, Space::Device, false, 128));
                        runs.push(ascending_run(&mut rng, base, n, Space::Device, true, 0));
                    }
                    let k = rng.gen_range(0..runs.len());
                    runs.rotate_left(k);
                    if rng.gen_bool(0.5) {
                        runs.reverse();
                    }
                }
                // Runs of one group over one window: they interleave.
                1 => {
                    for _ in 0..rng.gen_range(2..=MAX_MERGE_RUNS) {
                        let from = DEV + rng.gen_range(0..2048u64);
                        let n = rng.gen_range(1..10usize);
                        runs.push(ascending_run(&mut rng, from, n, Space::Device, false, 128));
                    }
                }
                // Runs that each climb from a staged (device) stretch into
                // a host one: every run straddles two groups.
                2 => {
                    for _ in 0..rng.gen_range(2..=4usize) {
                        let (from, n) = (DEV + rng.gen_range(0..4096u64), rng.gen_range(1..6usize));
                        let mut run = ascending_run(&mut rng, from, n, Space::Device, false, 0);
                        let n = rng.gen_range(1..6usize);
                        let from = HOST + rng.gen_range(0..4096u64);
                        run.extend(ascending_run(
                            &mut rng,
                            from,
                            n,
                            Space::HostPinned,
                            false,
                            0,
                        ));
                        runs.push(run);
                    }
                }
                // Every run starts on one line, often with the same
                // sectors: equal keys meet at the run heads.
                3 => {
                    let line = DEV + rng.gen_range(0..64u64) * LINE_BYTES;
                    for _ in 0..rng.gen_range(2..=MAX_MERGE_RUNS) {
                        let from = line + rng.gen_range(0..4u64) * SECTOR_BYTES;
                        let n = rng.gen_range(1..6usize);
                        runs.push(ascending_run(&mut rng, from, n, Space::Device, false, 7));
                    }
                }
                // Many short runs, each starting below the one before.
                _ => {
                    let n = rng.gen_range(MAX_MERGE_RUNS + 1..40);
                    for k in 0..n {
                        let from = DEV + (n - k) as u64 * 512;
                        let len = rng.gen_range(1..4usize);
                        runs.push(ascending_run(&mut rng, from, len, Space::Device, false, 0));
                    }
                }
            }
            let batch: Vec<LaneAccess> = runs.concat();
            assert_matches_reference(&mut c, &batch, &format!("shape {shape}, case {case}"));
            // Two calls per batch: as spans and lane by lane.
            let want = if shape < 4 { sorts } else { sorts + 2 };
            assert_eq!(c.sorts, want, "shape {shape}, case {case}: merge or sort");
        }
    }

    #[test]
    #[should_panic(expected = "beyond the packed key")]
    fn addresses_past_the_packed_range_are_refused() {
        let mut b = AccessBatch::new();
        b.load(ADDR_LIMIT - 4, 8, Space::Cxl);
        coalesce(&b);
    }

    fn coalesce(batch: &AccessBatch) -> Vec<Transaction> {
        let mut c = Coalescer::new();
        let mut out = Vec::new();
        c.coalesce(batch.items(), &mut out);
        out
    }

    /// Figure 3(a): each lane scans a different 128-byte block, producing
    /// per-lane 32-byte requests.
    #[test]
    fn strided_lanes_produce_32_byte_requests() {
        let mut b = AccessBatch::new();
        for lane in 0..32u64 {
            b.load(lane * 128, 8, Space::HostPinned);
        }
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 32);
        assert!(txns.iter().all(|t| t.size == 32));
    }

    /// Figure 3(b): 32 lanes reading consecutive 4-byte elements from a
    /// 128-byte-aligned address merge into a single 128-byte request.
    #[test]
    fn aligned_warp_access_merges_to_one_line() {
        let mut b = AccessBatch::new();
        for lane in 0..32u64 {
            b.load(0x8000 + lane * 4, 4, Space::HostPinned);
        }
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].size, 128);
        assert_eq!(txns[0].addr, 0x8000);
    }

    /// Figure 3(c): the same warp access misaligned by 32 bytes produces a
    /// 96-byte and a 32-byte request.
    #[test]
    fn misaligned_warp_access_splits_96_plus_32() {
        let mut b = AccessBatch::new();
        for lane in 0..32u64 {
            b.load(0x8020 + lane * 4, 4, Space::HostPinned);
        }
        let mut txns = coalesce(&b);
        txns.sort_by_key(|t| t.addr);
        assert_eq!(txns.len(), 2);
        assert_eq!((txns[0].addr, txns[0].size), (0x8020, 96));
        assert_eq!((txns[1].addr, txns[1].size), (0x8080, 32));
    }

    /// EMOGI's 8-byte CSR elements: one warp iteration covers 256 bytes,
    /// i.e. two full 128-byte requests when aligned.
    #[test]
    fn eight_byte_elements_cover_two_lines() {
        let mut b = AccessBatch::new();
        for lane in 0..32u64 {
            b.load(0x1000 + lane * 8, 8, Space::HostPinned);
        }
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 2);
        assert!(txns.iter().all(|t| t.size == 128));
    }

    #[test]
    fn hole_in_sector_mask_splits_runs() {
        let mut b = AccessBatch::new();
        b.load(0, 8, Space::HostPinned); // sector 0
        b.load(64, 8, Space::HostPinned); // sector 2
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 2);
        assert_eq!((txns[0].addr, txns[0].size), (0, 32));
        assert_eq!((txns[1].addr, txns[1].size), (64, 32));
    }

    #[test]
    fn spaces_and_stores_do_not_merge_with_each_other() {
        let mut b = AccessBatch::new();
        b.load(0, 8, Space::Device);
        b.load(8, 8, Space::HostPinned);
        b.store(16, 8, Space::HostPinned);
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 3, "{txns:?}");
    }

    #[test]
    fn access_straddling_sector_boundary_touches_both() {
        let mut b = AccessBatch::new();
        b.load(28, 8, Space::Device); // bytes 28..36: sectors 0 and 1
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 1);
        assert_eq!((txns[0].addr, txns[0].size), (0, 64));
    }

    #[test]
    fn sector_mask_roundtrip() {
        let t = Transaction {
            addr: 0x8020,
            size: 96,
            space: Space::HostPinned,
            store: false,
        };
        assert_eq!(t.line(), 0x8000);
        assert_eq!(t.sector_mask(), 0b1110);
    }

    /// Same-lane loads from different loop iterations (distinct
    /// instructions) must not merge even when byte-adjacent: coalescing
    /// is a per-instruction mechanism.
    #[test]
    fn different_instructions_never_merge() {
        let mut b = AccessBatch::new();
        for k in 0..4u64 {
            b.load_instr(0x1000 + k * 8, 8, Space::HostPinned, k as u8);
        }
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 4, "{txns:?}");
        assert!(txns.iter().all(|t| t.size == 32));
    }

    #[test]
    fn same_instruction_adjacent_sectors_do_merge() {
        let mut b = AccessBatch::new();
        for k in 0..4u64 {
            b.load_instr(0x1000 + k * 32, 8, Space::HostPinned, 7);
        }
        assert_eq!(coalesce(&b).len(), 1);
    }

    #[test]
    fn zero_size_access_is_ignored() {
        let mut b = AccessBatch::new();
        b.load(0, 0, Space::Device);
        assert!(coalesce(&b).is_empty());
    }

    #[test]
    fn unordered_lanes_coalesce_the_same() {
        let mut fwd = AccessBatch::new();
        let mut rev = AccessBatch::new();
        for lane in 0..32u64 {
            fwd.load(0x2000 + lane * 4, 4, Space::HostPinned);
            rev.load(0x2000 + (31 - lane) * 4, 4, Space::HostPinned);
        }
        assert_eq!(coalesce(&fwd), coalesce(&rev));
    }
}
