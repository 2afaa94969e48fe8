//! The three zero-copy access strategies evaluated in §5 (Naive, Merged,
//! Merged+Aligned) — the paper's Figures 5, 7, 8, 9 compare exactly
//! these. How the bytes reach the GPU is the other axis,
//! [`Transport`](crate::layout::Transport).

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
}

impl AccessStrategy {
    /// Every strategy, in the paper's Naive → Merged → Aligned order.
    pub fn all() -> [AccessStrategy; 3] {
        [
            AccessStrategy::Naive,
            AccessStrategy::Merged,
            AccessStrategy::MergedAligned,
        ]
    }

    /// The paper's display name for this strategy.
    pub fn name(self) -> &'static str {
        match self {
            AccessStrategy::Naive => "Naive",
            AccessStrategy::Merged => "Merged",
            AccessStrategy::MergedAligned => "Merged+Aligned",
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
            AccessStrategy::MergedAligned => start & !(elems_per_line - 1),
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
    }
}
