//! The three zero-copy access strategies evaluated in §5 (Naive, Merged,
//! Merged+Aligned) — the paper's Figures 5, 7, 8, 9 compare exactly
//! these — plus one extension kernel, Merged+Aligned with split hubs,
//! which the repository's own presets (hybrid, pipelined, sharded) run.
//! How the bytes reach the GPU is the other axis,
//! [`Transport`](crate::layout::Transport).

use crate::sharded::HUB_SPLIT_DEGREE;

/// How GPU threads are assigned to neighbour lists and how their accesses
/// are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessStrategy {
    /// Listing 1: one *thread* per vertex; each lane strides through its
    /// own neighbour list, producing per-lane 32-byte PCIe requests.
    Naive,
    /// §4.3.1: one *warp* per vertex; lanes read 32 consecutive elements
    /// per iteration, so requests coalesce — but the first access starts
    /// wherever the list starts, so misalignment cascades.
    Merged,
    /// §4.3.2: Merged plus shifting the start index down to the closest
    /// preceding 128-byte boundary, with underflowing lanes masked off.
    MergedAligned,
    /// Not in the paper: Merged+Aligned, except that a neighbour list of
    /// at least [`HUB_SPLIT_DEGREE`] elements is cut into line-aligned
    /// pieces of at most that many, each walked by its own warp (list
    /// gathering by degree, Merrill et al., PPoPP 2012). One warp on a
    /// mega-hub's list is a serial chain of link round trips; pieces run
    /// in parallel.
    MergedAlignedSplit,
}

impl AccessStrategy {
    /// The paper's strategies, in its Naive → Merged → Aligned order
    /// (the extension kernel is not one of them).
    pub fn all() -> [AccessStrategy; 3] {
        [
            AccessStrategy::Naive,
            AccessStrategy::Merged,
            AccessStrategy::MergedAligned,
        ]
    }

    /// The display name for this strategy (the paper's, for its three).
    pub fn name(self) -> &'static str {
        match self {
            AccessStrategy::Naive => "Naive",
            AccessStrategy::Merged => "Merged",
            AccessStrategy::MergedAligned => "Merged+Aligned",
            AccessStrategy::MergedAlignedSplit => "Merged+Aligned split",
        }
    }

    /// The longest piece one warp walks of a list of at least
    /// [`HUB_SPLIT_DEGREE`] elements: `None` for the paper's kernels,
    /// which give every list one warp.
    pub fn hub_slice(self) -> Option<u64> {
        match self {
            AccessStrategy::MergedAlignedSplit => Some(HUB_SPLIT_DEGREE),
            _ => None,
        }
    }

    /// Does this strategy assign a whole warp to one neighbour list?
    pub fn warp_per_vertex(self) -> bool {
        !matches!(self, AccessStrategy::Naive)
    }

    /// Starting element index for a list beginning at `start`, given
    /// `elems_per_line` elements per 128-byte cache line. The aligned
    /// strategy rounds down (Listing 2's `start & ~0xF` for 8-byte data).
    pub fn start_cursor(self, start: u64, elems_per_line: u64) -> u64 {
        match self {
            AccessStrategy::MergedAligned | AccessStrategy::MergedAlignedSplit => {
                start & !(elems_per_line - 1)
            }
            _ => start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_rounds_to_line_boundary() {
        let s = AccessStrategy::MergedAligned;
        // 8-byte elements: 16 per 128-byte line (Listing 2 masks ~0xF).
        assert_eq!(s.start_cursor(17, 16), 16);
        assert_eq!(s.start_cursor(16, 16), 16);
        assert_eq!(s.start_cursor(31, 16), 16);
        // 4-byte elements: 32 per line.
        assert_eq!(s.start_cursor(33, 32), 32);
    }

    #[test]
    fn merged_and_naive_do_not_shift() {
        assert_eq!(AccessStrategy::Merged.start_cursor(17, 16), 17);
        assert_eq!(AccessStrategy::Naive.start_cursor(17, 16), 17);
    }

    #[test]
    fn names_and_workers() {
        assert!(AccessStrategy::Merged.warp_per_vertex());
        assert!(!AccessStrategy::Naive.warp_per_vertex());
        assert_eq!(AccessStrategy::MergedAligned.name(), "Merged+Aligned");
        assert!(AccessStrategy::MergedAlignedSplit.warp_per_vertex());
    }

    #[test]
    fn only_the_extension_kernel_splits_hubs() {
        for s in AccessStrategy::all() {
            assert_eq!(s.hub_slice(), None, "{s:?}");
        }
        let split = AccessStrategy::MergedAlignedSplit;
        assert_eq!(split.hub_slice(), Some(HUB_SPLIT_DEGREE));
        assert_eq!(
            split.start_cursor(17, 16),
            16,
            "aligned like Merged+Aligned"
        );
    }
}
