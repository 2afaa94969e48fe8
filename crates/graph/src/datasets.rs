//! The six evaluation graphs of Table 2, as scaled synthetic stand-ins.
//!
//! The paper's graphs are 26–50 GB downloads (GAP-kron, GAP-urand,
//! Friendster, MOLIERE_2016, sk-2005, uk-2007-05); none are available
//! here, so each is replaced by a generator that matches its documented
//! degree-distribution shape (Figure 6) and its size *relative to GPU
//! memory* — vertices and edges are scaled ~1000× down, and GPU memory is
//! scaled 16 GB → 16 MiB in `emogi-gpu`, preserving the out-of-memory
//! ratios that drive every experiment. SK remains the one graph that
//! almost fits in device memory, exactly as in the paper (§5.3.3).
//!
//! `generate()` is deterministic per dataset; the same graph is produced
//! for every experiment.

use crate::csr::CsrGraph;
use crate::generators;
use crate::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier for one of the Table 2 graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKey {
    /// GAP-kron: synthetic Kronecker, extremely skewed degrees.
    Gk,
    /// GAP-urand: uniform random, degrees 16–48.
    Gu,
    /// Friendster: social network.
    Fs,
    /// MOLIERE_2016: dense biomedical hypothesis graph, avg degree ≈ 222.
    Ml,
    /// sk-2005: web crawl, directed, almost fits in GPU memory.
    Sk,
    /// uk-2007-05: web crawl, directed.
    Uk5,
}

impl DatasetKey {
    pub fn all() -> [DatasetKey; 6] {
        [
            DatasetKey::Gk,
            DatasetKey::Gu,
            DatasetKey::Fs,
            DatasetKey::Ml,
            DatasetKey::Sk,
            DatasetKey::Uk5,
        ]
    }

    /// The four undirected graphs the paper evaluates CC on (§5.4).
    pub fn undirected() -> [DatasetKey; 4] {
        [
            DatasetKey::Gk,
            DatasetKey::Gu,
            DatasetKey::Fs,
            DatasetKey::Ml,
        ]
    }

    pub fn spec(self) -> DatasetSpec {
        match self {
            DatasetKey::Gk => DatasetSpec {
                key: self,
                symbol: "GK",
                name: "GAP-kron (scaled)",
                domain: "synthetic Kronecker",
                undirected: true,
                scaled_vertices: 131_072,
                paper_vertices_m: 134.2,
                paper_edges_b: 4.22,
                paper_edge_gb: 31.5,
                paper_weight_gb: 15.7,
                seed: 0xEE06_0001,
            },
            DatasetKey::Gu => DatasetSpec {
                key: self,
                symbol: "GU",
                name: "GAP-urand (scaled)",
                domain: "synthetic uniform",
                undirected: true,
                scaled_vertices: 134_000,
                paper_vertices_m: 134.2,
                paper_edges_b: 4.29,
                paper_edge_gb: 32.0,
                paper_weight_gb: 16.0,
                seed: 0xEE06_0002,
            },
            DatasetKey::Fs => DatasetSpec {
                key: self,
                symbol: "FS",
                name: "Friendster (scaled)",
                domain: "social network",
                undirected: true,
                scaled_vertices: 65_536,
                paper_vertices_m: 65.6,
                paper_edges_b: 3.61,
                paper_edge_gb: 26.9,
                paper_weight_gb: 13.5,
                seed: 0xEE06_0003,
            },
            DatasetKey::Ml => DatasetSpec {
                key: self,
                symbol: "ML",
                name: "MOLIERE_2016 (scaled)",
                domain: "biomedical",
                undirected: true,
                scaled_vertices: 30_200,
                paper_vertices_m: 30.2,
                paper_edges_b: 6.67,
                paper_edge_gb: 49.7,
                paper_weight_gb: 24.8,
                seed: 0xEE06_0004,
            },
            DatasetKey::Sk => DatasetSpec {
                key: self,
                symbol: "SK",
                name: "sk-2005 (scaled)",
                domain: "web crawl",
                undirected: false,
                scaled_vertices: 50_600,
                paper_vertices_m: 50.6,
                paper_edges_b: 1.95,
                paper_edge_gb: 14.5,
                paper_weight_gb: 7.3,
                seed: 0xEE06_0005,
            },
            DatasetKey::Uk5 => DatasetSpec {
                key: self,
                symbol: "UK5",
                name: "uk-2007-05 (scaled)",
                domain: "web crawl",
                undirected: false,
                scaled_vertices: 105_900,
                paper_vertices_m: 105.9,
                paper_edges_b: 3.74,
                paper_edge_gb: 27.8,
                paper_weight_gb: 13.9,
                seed: 0xEE06_0006,
            },
        }
    }
}

/// Static description of one dataset: paper-reported numbers plus our
/// scaled generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    pub key: DatasetKey,
    pub symbol: &'static str,
    pub name: &'static str,
    pub domain: &'static str,
    pub undirected: bool,
    /// Vertex count of the scaled stand-in (≈ paper / 1000).
    pub scaled_vertices: usize,
    pub paper_vertices_m: f64,
    pub paper_edges_b: f64,
    pub paper_edge_gb: f64,
    pub paper_weight_gb: f64,
    pub seed: u64,
}

impl DatasetSpec {
    /// Generate the full-size stand-in (deterministic).
    pub fn generate(&self) -> Dataset {
        self.generate_scaled(1)
    }

    /// Generate at `1/divisor` of the standard scaled vertex count —
    /// integration tests use small divisors to keep debug builds quick.
    pub fn generate_scaled(&self, divisor: usize) -> Dataset {
        assert!(divisor >= 1);
        let n = (self.scaled_vertices / divisor).max(64);
        let graph = match self.key {
            DatasetKey::Gk => {
                let scale = (n as f64).log2().round() as u32;
                generators::kronecker(scale, 19, self.seed)
            }
            DatasetKey::Gu => generators::uniform_random(n, 32, self.seed),
            DatasetKey::Fs => generators::social(n, 56, self.seed),
            DatasetKey::Ml => generators::lognormal_dense(n, 200.0, 0.45, 96, self.seed),
            DatasetKey::Sk => generators::web_crawl(n, 50, n / 25, 0.85, self.seed),
            DatasetKey::Uk5 => generators::web_crawl(n, 43, n / 25, 0.88, self.seed),
        };
        let weights = generate_weights(graph.num_edges(), self.seed ^ 0xA11C_E5ED);
        Dataset {
            spec: *self,
            graph,
            weights,
        }
    }
}

/// Edge weights "randomly initialized ... from the integer values between
/// 8 to 72", stored 4-byte (§5.2).
pub fn generate_weights(num_edges: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_edges).map(|_| rng.gen_range(8..=72)).collect()
}

/// A generated dataset: graph + edge weights + provenance.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub spec: DatasetSpec,
    pub graph: CsrGraph,
    pub weights: Vec<u32>,
}

impl Dataset {
    /// Pick `n` BFS/SSSP source vertices with outgoing edges, the paper's
    /// §5.2 protocol ("64 random vertices ... reuse the selected vertices
    /// for all measurements", sources without outgoing edges removed).
    pub fn sources(&self, n: usize) -> Vec<VertexId> {
        let mut rng = StdRng::seed_from_u64(self.spec.seed ^ 0x50u64);
        let nv = self.graph.num_vertices() as VertexId;
        let mut out = Vec::with_capacity(n);
        let mut guard = 0;
        while out.len() < n && guard < 100_000 {
            guard += 1;
            let v = rng.gen_range(0..nv);
            if self.graph.degree(v) > 0 {
                out.push(v);
            }
        }
        out
    }

    /// Scaled edge-list bytes at the given element size.
    pub fn edge_bytes(&self, element_bytes: u64) -> u64 {
        self.graph.edge_list_bytes(element_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-scale smoke test of every dataset family. Full-scale size
    /// targets are asserted in the (release-mode) bench harness.
    #[test]
    fn all_datasets_generate_small() {
        for key in DatasetKey::all() {
            let d = key.spec().generate_scaled(16);
            assert!(d.graph.num_vertices() > 0, "{key:?}");
            assert!(d.graph.num_edges() > 0, "{key:?}");
            assert_eq!(d.weights.len(), d.graph.num_edges());
            assert_eq!(d.graph.is_undirected(), key.spec().undirected, "{key:?}");
        }
    }

    #[test]
    fn weights_in_paper_range() {
        let w = generate_weights(10_000, 1);
        assert!(w.iter().all(|&x| (8..=72).contains(&x)));
        assert!(w.iter().any(|&x| x < 20));
        assert!(w.iter().any(|&x| x > 60));
    }

    #[test]
    fn sources_have_outgoing_edges_and_are_deterministic() {
        let d = DatasetKey::Gk.spec().generate_scaled(16);
        let s1 = d.sources(16);
        let s2 = d.sources(16);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 16);
        assert!(s1.iter().all(|&v| d.graph.degree(v) > 0));
    }

    #[test]
    fn ml_is_densest_and_directedness_matches_table2() {
        let ml = DatasetKey::Ml.spec().generate_scaled(16);
        let gu = DatasetKey::Gu.spec().generate_scaled(16);
        assert!(ml.graph.average_degree() > 3.0 * gu.graph.average_degree());
        assert!(!DatasetKey::Sk
            .spec()
            .generate_scaled(16)
            .graph
            .is_undirected());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetKey::Fs.spec().generate_scaled(32);
        let b = DatasetKey::Fs.spec().generate_scaled(32);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.weights, b.weights);
    }
}
