//! Compressed neighbour lists (the paper's §6 proposal).
//!
//! "EMOGI can potentially directly benefit from compression of input
//! data. ... if each neighbor list can be stored into the host memory in
//! a compressed form, these idling resources can be utilized to
//! decompress the list without any overall performance loss."
//!
//! This module provides the standard delta + varint encoding for sorted
//! adjacency lists (the WebGraph family's first-order technique): each
//! list stores its first destination, then the gaps between consecutive
//! destinations, as LEB128 varints. Web and social graphs with id-space
//! locality compress 2–4×, directly reducing the bytes EMOGI must pull
//! over the interconnect.

use crate::csr::CsrGraph;
use crate::VertexId;

/// A CSR graph with delta-varint-compressed neighbour lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedCsr {
    /// Byte offset of each vertex's compressed list (`|V| + 1` entries).
    byte_offsets: Vec<u64>,
    /// Concatenated compressed lists.
    bytes: Vec<u8>,
    num_edges: usize,
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

impl CompressedCsr {
    /// Compress `graph`'s (sorted) neighbour lists.
    pub fn encode(graph: &CsrGraph) -> Self {
        let n = graph.num_vertices();
        let mut byte_offsets = Vec::with_capacity(n + 1);
        let mut bytes = Vec::with_capacity(graph.num_edges() * 2);
        byte_offsets.push(0);
        for v in 0..n as VertexId {
            let mut prev: Option<VertexId> = None;
            for &d in graph.neighbors(v) {
                match prev {
                    None => push_varint(&mut bytes, u64::from(d)),
                    Some(p) => {
                        debug_assert!(d >= p, "lists must be sorted");
                        push_varint(&mut bytes, u64::from(d - p));
                    }
                }
                prev = Some(d);
            }
            byte_offsets.push(bytes.len() as u64);
        }
        Self {
            byte_offsets,
            bytes,
            num_edges: graph.num_edges(),
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.byte_offsets.len() - 1
    }

    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Total compressed edge-list bytes.
    pub fn compressed_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Byte range of `v`'s compressed list.
    pub fn byte_range(&self, v: VertexId) -> (u64, u64) {
        (
            self.byte_offsets[v as usize],
            self.byte_offsets[v as usize + 1],
        )
    }

    /// Byte offset of every element's varint in the stream, in CSR
    /// element order, then the stream's length (`|E| + 1` entries): a
    /// varint ends at its first byte without the continuation bit.
    pub fn element_offsets(&self) -> Vec<u64> {
        let ends = (1..).zip(&self.bytes).filter(|&(_, b)| b & 0x80 == 0);
        std::iter::once(0).chain(ends.map(|(end, _)| end)).collect()
    }

    /// Decode `v`'s neighbour list into `out` (cleared first).
    pub fn decode_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        let (start, end) = self.byte_range(v);
        let mut pos = start as usize;
        let mut prev = 0u64;
        let mut first = true;
        while pos < end as usize {
            let x = read_varint(&self.bytes, &mut pos);
            let d = if first { x } else { prev + x };
            first = false;
            prev = d;
            out.push(d as VertexId);
        }
    }

    /// Decompress the whole graph back to CSR (round-trip check).
    pub fn decode(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(self.num_edges);
        offsets.push(0u64);
        let mut scratch = Vec::new();
        for v in 0..n as VertexId {
            self.decode_into(v, &mut scratch);
            edges.extend_from_slice(&scratch);
            offsets.push(edges.len() as u64);
        }
        CsrGraph::from_parts(offsets, edges, false)
    }

    /// Compression ratio relative to `element_bytes`-sized raw elements.
    pub fn ratio(&self, element_bytes: u64) -> f64 {
        (self.num_edges as u64 * element_bytes) as f64 / self.compressed_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64];
        for &v in &values {
            push_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn graph_roundtrip_preserves_adjacency() {
        for (name, g) in [
            ("web", generators::web_crawl(2_000, 12, 100, 0.85, 1)),
            ("uniform", generators::uniform_random(1_000, 8, 2)),
            ("kron", generators::kronecker(10, 8, 3)),
        ] {
            let c = CompressedCsr::encode(&g);
            let back = c.decode();
            assert_eq!(back.num_edges(), g.num_edges(), "{name}");
            for v in 0..g.num_vertices() as u32 {
                assert_eq!(back.neighbors(v), g.neighbors(v), "{name} vertex {v}");
            }
        }
    }

    /// Element offsets follow CSR element order: a vertex's first element
    /// starts at its list's byte offset, and each element's varint alone
    /// decodes to its gap.
    #[test]
    fn element_offsets_bound_each_varint() {
        let g = generators::kronecker(9, 8, 5);
        let c = CompressedCsr::encode(&g);
        let offsets = c.element_offsets();
        assert_eq!(offsets.len(), g.num_edges() + 1);
        assert_eq!(offsets[g.num_edges()], c.compressed_bytes());
        for v in 0..g.num_vertices() as u32 {
            let (start, end) = (g.neighbor_start(v) as usize, g.neighbor_end(v) as usize);
            assert_eq!(
                (offsets[start], offsets[end]),
                c.byte_range(v),
                "vertex {v}"
            );
            for i in start..end {
                let mut pos = offsets[i] as usize;
                let gap = read_varint(&c.bytes, &mut pos);
                let want = match i - start {
                    0 => u64::from(g.edge_dst(i as u64)),
                    _ => u64::from(g.edge_dst(i as u64) - g.edge_dst(i as u64 - 1)),
                };
                assert_eq!((gap, pos as u64), (want, offsets[i + 1]), "element {i}");
            }
        }
    }

    #[test]
    fn local_graphs_compress_well() {
        // Web crawls (small gaps) must compress much better than 8-byte
        // raw elements; even vs 4-byte they should win.
        let g = generators::web_crawl(5_000, 20, 150, 0.9, 4);
        let c = CompressedCsr::encode(&g);
        assert!(c.ratio(8) > 3.5, "ratio vs 8B: {}", c.ratio(8));
        assert!(c.ratio(4) > 1.7, "ratio vs 4B: {}", c.ratio(4));
    }

    #[test]
    fn empty_lists_are_zero_bytes() {
        let g = CsrGraph::empty(5);
        let c = CompressedCsr::encode(&g);
        assert_eq!(c.compressed_bytes(), 0);
        assert_eq!(c.byte_range(3), (0, 0));
        let mut out = vec![99];
        c.decode_into(3, &mut out);
        assert!(out.is_empty());
    }
}
