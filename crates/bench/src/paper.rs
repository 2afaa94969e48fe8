//! Every number the EMOGI paper reports that an experiment prints as a
//! column or quotes in a note, typed once. The tables render their paper
//! columns and notes from here; `tests/experiments_smoke.rs` checks each
//! against its measured counterpart. A pair is a range or two related
//! numbers, as its doc says.

use emogi_core::toy::ToyPattern;
use emogi_core::ProgramKind::{self, Bfs, Cc, Sssp};
use emogi_graph::DatasetKey::{self, Fs, Gk, Ml, Sk, Uk5};

/// Figure 4: (pattern, PCIe GB/s, host-DRAM GB/s) of the zero-copy toy.
pub const FIG4: [(ToyPattern, f64, f64); 3] = [
    (ToyPattern::Strided, 4.74, 9.40),
    (ToyPattern::MergedAligned, 12.23, 12.36),
    (ToyPattern::MergedMisaligned, 9.61, 14.26),
];
/// Figure 4: the UVM reference's PCIe GB/s, a range.
pub const FIG4_UVM: (f64, f64) = (9.11, 9.26);
/// Figures 4 and 8: the `cudaMemcpy` peak over PCIe 3.0, GB/s.
pub const MEMCPY_PEAK: f64 = 12.3;
/// Figure 5: Merged's share of 128 B requests in BFS, %: on average over
/// the graphs, and on ML.
pub const FIG5_MERGED_128B: (f64, f64) = (40.0, 46.7);
/// Figure 7: the largest request cut, %: of Merged over Naive, and of
/// alignment over Merged (on ML).
pub const FIG7_CUTS: (f64, f64) = (83.3, 28.8);
/// Figure 8, GB/s: UVM's typical BFS bandwidth, Naive's best, Merged's
/// typical.
pub const FIG8: [f64; 3] = [9.0, 4.7, 11.0];
/// Figure 8: what alignment adds to Merged's bandwidth, GB/s, a range.
pub const FIG8_ALIGN_GAIN: (f64, f64) = (0.5, 1.0);
/// Figure 9: average BFS speedup over UVM of Naive, Merged and
/// Merged+Aligned.
pub const FIG9_AVG: [f64; 3] = [0.73, 3.24, 3.56];
/// Figure 10: UVM's I/O read amplification on FS (its peak), ML and SK,
/// in that order.
pub const FIG10_UVM: [(DatasetKey, f64); 3] = [(Fs, 5.16), (Ml, 2.28), (Sk, 1.14)];
/// Figure 10: EMOGI's peak I/O read amplification.
pub const FIG10_EMOGI_MAX: f64 = 1.31;
/// Figure 11: EMOGI's average speedup over UVM across SSSP, BFS and CC.
pub const FIG11_AVG: f64 = 2.92;
/// Figure 12: the average PCIe 3.0 → 4.0 speedup of UVM and of EMOGI.
pub const FIG12_GEN4: (f64, f64) = (1.53, 1.9);
/// Table 3: (compared system, app, graph, EMOGI's speedup over it).
pub const TABLE3: [(&str, ProgramKind, DatasetKey, f64); 14] = [
    ("HALO", Bfs, Ml, 2.15),
    ("HALO", Bfs, Fs, 3.19),
    ("HALO", Bfs, Sk, 1.34),
    ("HALO", Bfs, Uk5, 1.51),
    ("Subway", Sssp, Gk, 2.64),
    ("Subway", Sssp, Fs, 2.14),
    ("Subway", Sssp, Sk, 2.30),
    ("Subway", Sssp, Uk5, 3.19),
    ("Subway", Bfs, Gk, 4.14),
    ("Subway", Bfs, Fs, 2.83),
    ("Subway", Bfs, Sk, 1.99),
    ("Subway", Bfs, Uk5, 4.73),
    ("Subway", Cc, Gk, 2.04),
    ("Subway", Cc, Fs, 1.57),
];
