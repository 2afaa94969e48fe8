//! # emogi-graph — graph substrate
//!
//! CSR graphs and everything EMOGI's evaluation needs around them:
//!
//! * [`csr`] — the compressed-sparse-row representation of §2.1 (vertex
//!   list of offsets + edge list of neighbours), with invariant checking;
//! * [`builder`] — edge-list → CSR construction (two-pass radix by
//!   destination then source, symmetrization, dedup);
//! * [`generators`] — random graph families (uniform, R-MAT/Kronecker,
//!   log-normal dense, locality web crawl);
//! * [`datasets`] — the six Table 2 stand-ins (GK, GU, FS, ML, SK, UK5),
//!   scaled ~1000× down with matched degree distributions;
//! * [`reorder`] — the cache-aware degree-sorted vertex relabeling, with
//!   invertible [`LayoutPlan`] result mapping;
//! * [`analysis`] — degree statistics and the edge-count CDF of Figure 6;
//! * [`algo`] — CPU reference BFS / SSSP / CC used to verify every
//!   simulated engine.

//! # Example
//!
//! ```
//! use emogi_graph::{generators, DegreeCdf};
//!
//! let g = generators::kronecker(10, 8, 42);
//! assert!(g.max_degree() > 10 * g.average_degree() as u64); // power law
//! let cdf = DegreeCdf::new(&g, 96);
//! assert!(cdf.cdf_at(96) > 0.99);
//! ```

#![forbid(unsafe_code)]

pub mod algo;
pub mod analysis;
pub mod builder;
pub mod compress;
pub mod csr;
pub mod datasets;
pub mod generators;
pub mod partition;
pub mod reorder;

pub use analysis::DegreeCdf;
pub use builder::EdgeListBuilder;
pub use csr::{CsrError, CsrGraph};
pub use datasets::{Dataset, DatasetKey, DatasetSpec};
pub use partition::{PartitionStrategy, VertexPartition};
pub use reorder::LayoutPlan;

/// Vertex identifier. The scaled datasets stay far below `u32::MAX`
/// vertices; the simulated *element size* of the edge list (4 or 8 bytes,
/// §5.6) is a property of the traversal engine, not of this storage type.
pub type VertexId = u32;

/// Marker for an unreached vertex in level/label arrays.
pub const UNVISITED: u32 = u32::MAX;
