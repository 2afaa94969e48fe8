//! Compressed sparse row graphs.
//!
//! The paper's §2.1 storage model: a *vertex list* of `|V| + 1` offsets
//! into an *edge list* holding each vertex's neighbours contiguously.
//! EMOGI keeps the vertex list in GPU memory and the edge list in host
//! memory; this type is the shared in-simulator representation both map
//! their addresses onto.

use crate::VertexId;

/// An immutable CSR graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `edges` with v's neighbour list.
    /// Offsets are `u64` like the paper's 8-byte vertex-list entries.
    offsets: Vec<u64>,
    /// Destination of every edge, grouped by source.
    edges: Vec<VertexId>,
    /// Whether the graph was built symmetrized (affects CC validity).
    undirected: bool,
}

/// Why a set of raw parts (or a builder's edge list) is not a CSR graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrError {
    /// The offset array has no entries; even an empty graph holds `[0]`.
    EmptyOffsets,
    /// The first offset is not 0.
    FirstOffsetNotZero { first: u64 },
    /// The last offset is not the number of edge-list entries.
    LastOffsetMismatch { last: u64, num_edges: usize },
    /// `offsets[at] > offsets[at + 1]`.
    OffsetsNotMonotone { at: usize },
    /// An edge endpoint names a vertex the graph does not have.
    VertexOutOfRange {
        vertex: VertexId,
        num_vertices: usize,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CsrError::EmptyOffsets => write!(f, "offsets must hold at least [0]"),
            CsrError::FirstOffsetNotZero { first } => {
                write!(f, "first offset is {first}, not 0")
            }
            CsrError::LastOffsetMismatch { last, num_edges } => {
                write!(f, "last offset is {last} but there are {num_edges} edges")
            }
            CsrError::OffsetsNotMonotone { at } => {
                write!(f, "offsets decrease after index {at}")
            }
            CsrError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "vertex {vertex} out of range (graph has {num_vertices} vertices)"
                )
            }
        }
    }
}

impl std::error::Error for CsrError {}

impl CsrGraph {
    /// Build from raw parts, validating every CSR invariant.
    ///
    /// # Panics
    /// With the [`CsrError`] that [`CsrGraph::try_from_parts`] returns.
    pub fn from_parts(offsets: Vec<u64>, edges: Vec<VertexId>, undirected: bool) -> Self {
        Self::try_from_parts(offsets, edges, undirected).expect("raw parts are not a CSR graph")
    }

    /// Build from raw parts: the offsets must start at 0, never decrease
    /// and end at `edges.len()`, and every destination must be a vertex.
    pub fn try_from_parts(
        offsets: Vec<u64>,
        edges: Vec<VertexId>,
        undirected: bool,
    ) -> Result<Self, CsrError> {
        let (Some(&first), Some(&last)) = (offsets.first(), offsets.last()) else {
            return Err(CsrError::EmptyOffsets);
        };
        if first != 0 {
            return Err(CsrError::FirstOffsetNotZero { first });
        }
        if last != edges.len() as u64 {
            return Err(CsrError::LastOffsetMismatch {
                last,
                num_edges: edges.len(),
            });
        }
        if let Some(at) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(CsrError::OffsetsNotMonotone { at });
        }
        let num_vertices = offsets.len() - 1;
        if let Some(&vertex) = edges.iter().find(|&&d| d as usize >= num_vertices) {
            return Err(CsrError::VertexOutOfRange {
                vertex,
                num_vertices,
            });
        }
        Ok(Self {
            offsets,
            edges,
            undirected,
        })
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            edges: Vec::new(),
            undirected: true,
        }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edge-list entries (the paper's `|E|`; an
    /// undirected edge counts twice).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    pub fn is_undirected(&self) -> bool {
        self.undirected
    }

    /// Start index of `v`'s neighbour list in the edge list.
    #[inline]
    pub fn neighbor_start(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// One-past-the-end index of `v`'s neighbour list.
    #[inline]
    pub fn neighbor_end(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1]
    }

    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.neighbor_end(v) - self.neighbor_start(v)
    }

    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.edges[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The raw edge list (used by engines for address arithmetic).
    #[inline]
    pub fn edge_list(&self) -> &[VertexId] {
        &self.edges
    }

    /// The raw offset array.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Destination of edge-list entry `i`.
    #[inline]
    pub fn edge_dst(&self, i: u64) -> VertexId {
        self.edges[i as usize]
    }

    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / self.num_vertices() as f64
    }

    pub fn max_degree(&self) -> u64 {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Edge-list bytes at the given element size — the paper's Table 2
    /// "Size (GB) |E|" column, scaled.
    pub fn edge_list_bytes(&self, element_bytes: u64) -> u64 {
        self.num_edges() as u64 * element_bytes
    }

    /// Vertex-list bytes (8-byte offsets, `|V| + 1` entries).
    pub fn vertex_list_bytes(&self) -> u64 {
        self.offsets.len() as u64 * 8
    }

    /// Relabel vertices by `perm` (new id = `perm[old id]`), preserving
    /// neighbour sets. Used by the HALO-style reordering baseline.
    ///
    /// # Panics
    /// If `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[VertexId]) -> CsrGraph {
        let n = self.num_vertices();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(
                !std::mem::replace(&mut seen[p as usize], true),
                "perm is not a bijection"
            );
        }
        // New degree array, then place each old vertex's list.
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[perm[v] as usize + 1] = self.degree(v as VertexId);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut edges = vec![0 as VertexId; self.num_edges()];
        for v in 0..n {
            let nv = perm[v] as usize;
            let start = offsets[nv] as usize;
            for (k, &d) in self.neighbors(v as VertexId).iter().enumerate() {
                edges[start + k] = perm[d as usize];
            }
            edges[start..start + self.degree(v as VertexId) as usize].sort_unstable();
        }
        CsrGraph::from_parts(offsets, edges, self.undirected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 5-vertex example of the paper's Figure 1 (with the offset of
    /// vertex 4 corrected to 11; the paper prints 12, which contradicts
    /// its own edge list).
    pub(crate) fn figure1() -> CsrGraph {
        CsrGraph::from_parts(
            vec![0, 2, 6, 9, 11, 14],
            vec![1, 2, 0, 2, 3, 4, 0, 1, 4, 1, 4, 1, 2, 3],
            true,
        )
    }

    #[test]
    fn figure1_shape() {
        let g = figure1();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(g.neighbors(1), &[0, 2, 3, 4]);
        assert_eq!(g.degree(4), 3);
        assert_eq!(g.neighbor_start(4), 11);
        assert_eq!(g.neighbor_end(4), 14);
        assert!((g.average_degree() - 2.8).abs() < 1e-12);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn byte_accounting() {
        let g = figure1();
        assert_eq!(g.edge_list_bytes(8), 112);
        assert_eq!(g.edge_list_bytes(4), 56);
        assert_eq!(g.vertex_list_bytes(), 48);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
    }

    // One test per `CsrError` variant `try_from_parts` can return.

    #[test]
    fn rejects_empty_offsets() {
        let got = CsrGraph::try_from_parts(vec![], vec![], false);
        assert_eq!(got, Err(CsrError::EmptyOffsets));
    }

    #[test]
    fn rejects_nonzero_first_offset() {
        let got = CsrGraph::try_from_parts(vec![1, 1], vec![0], false);
        assert_eq!(got, Err(CsrError::FirstOffsetNotZero { first: 1 }));
    }

    #[test]
    fn rejects_descending_offsets() {
        let got = CsrGraph::try_from_parts(vec![0, 3, 1, 4], vec![0, 1, 2, 0], false);
        assert_eq!(got, Err(CsrError::OffsetsNotMonotone { at: 1 }));
    }

    #[test]
    fn rejects_bad_destination() {
        let got = CsrGraph::try_from_parts(vec![0, 1], vec![7], false);
        let want = CsrError::VertexOutOfRange {
            vertex: 7,
            num_vertices: 1,
        };
        assert_eq!(got, Err(want));
    }

    #[test]
    fn rejects_mismatched_total() {
        let got = CsrGraph::try_from_parts(vec![0, 3], vec![0], false);
        let want = CsrError::LastOffsetMismatch {
            last: 3,
            num_edges: 1,
        };
        assert_eq!(got, Err(want));
    }

    #[test]
    #[should_panic(expected = "OffsetsNotMonotone { at: 1 }")]
    fn from_parts_panics_with_the_typed_error() {
        let _ = CsrGraph::from_parts(vec![0, 3, 1, 4], vec![0, 1, 2, 0], false);
    }

    #[test]
    fn relabel_preserves_adjacency() {
        let g = figure1();
        // Reverse the vertex ids.
        let perm: Vec<VertexId> = (0..5).rev().collect();
        let r = g.relabel(&perm);
        assert_eq!(r.num_edges(), g.num_edges());
        for v in 0..5u32 {
            let mut want: Vec<VertexId> =
                g.neighbors(v).iter().map(|&d| perm[d as usize]).collect();
            want.sort_unstable();
            assert_eq!(r.neighbors(perm[v as usize]), want.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn relabel_rejects_non_permutation() {
        let g = figure1();
        let _ = g.relabel(&[0, 0, 1, 2, 3]);
    }
}
