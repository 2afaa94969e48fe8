//! Seeded inputs. `--seed` drives both the graph generators and the
//! benchmark-owned source picker; the engines receive only what is
//! generated here. (`Dataset::sources` is deliberately not used: its seed
//! is baked into the dataset spec.)

use emogi_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input sizes. `Full` is the benchmark; `Smoke` is the < 20 s preset
/// that `cargo test` and CI run to prove the harness end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    Full,
    Smoke,
}

impl Preset {
    pub fn name(self) -> &'static str {
        match self {
            Preset::Full => "full",
            Preset::Smoke => "smoke",
        }
    }

    /// GK shape: GAP-kron stand-in, mega-hub neighbour lists.
    pub fn gk(self, seed: u64) -> CsrGraph {
        match self {
            Preset::Full => generators::kronecker(17, 19, seed),
            Preset::Smoke => generators::kronecker(12, 19, seed),
        }
    }

    /// GU shape: GAP-urand stand-in, 16–48-element lists, where the
    /// Aligned optimisation matters most.
    pub fn gu(self, seed: u64) -> CsrGraph {
        match self {
            Preset::Full => generators::uniform_random(134_000, 32, seed),
            Preset::Smoke => generators::uniform_random(4_096, 32, seed),
        }
    }

    /// The serving graph: small enough that 64 queries fit a repetition.
    pub fn serve_graph(self, seed: u64) -> CsrGraph {
        match self {
            Preset::Full => generators::kronecker(14, 19, seed),
            Preset::Smoke => generators::kronecker(12, 19, seed),
        }
    }

    /// Closed-loop waves of 16 queries `serve-burst` submits.
    pub fn serve_waves(self) -> usize {
        match self {
            Preset::Full => 4,
            Preset::Smoke => 1,
        }
    }
}

/// Edge weights for SSSP, the paper's 8..=72 protocol.
pub fn weights(graph: &CsrGraph, seed: u64) -> Vec<u32> {
    datasets::generate_weights(graph.num_edges(), seed)
}

/// Size of the pool traversal sources are drawn from.
pub const SOURCE_POOL: usize = 64;

/// `n` distinct traversal sources: a seeded draw without replacement from
/// the graph's [`SOURCE_POOL`] highest-degree vertices. Hubs all sit in
/// the giant component at about the same eccentricity, so every seed's
/// traversals do comparable work: measured over ten seeds, a uniform draw
/// over all well-connected vertices let `serve-burst`'s `sim_lat_p50_ms`
/// swing by 30 % between seeds, the hub pool by 9 %. `stream` separates
/// the draws of different graphs within one seed.
pub fn sources(graph: &CsrGraph, n: usize, seed: u64, stream: u64) -> Vec<VertexId> {
    assert!(n <= SOURCE_POOL, "{n} sources from a pool of {SOURCE_POOL}");
    let mut pool: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
    pool.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    pool.truncate(SOURCE_POOL);
    assert!(pool.len() >= n, "graph has fewer than {n} vertices");
    // Fisher–Yates, front to back: the first `n` slots are the draw, and
    // a shorter draw is a prefix of a longer one.
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in 0..n {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let g = Preset::Smoke.gk(7);
        assert_eq!(g.edge_list(), Preset::Smoke.gk(7).edge_list());
        assert_ne!(g.edge_list(), Preset::Smoke.gk(8).edge_list());
        assert_eq!(sources(&g, 8, 7, 1), sources(&g, 8, 7, 1));
        assert_ne!(sources(&g, 8, 7, 1), sources(&g, 8, 8, 1));
        assert_ne!(sources(&g, 8, 7, 1), sources(&g, 8, 7, 2));
    }

    #[test]
    fn sources_are_distinct_hubs_and_a_short_draw_is_a_prefix() {
        let g = Preset::Smoke.gk(3);
        let s = sources(&g, 16, 3, 1);
        let mut degrees: Vec<u64> = (0..g.num_vertices() as VertexId)
            .map(|v| g.degree(v))
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        for (i, &v) in s.iter().enumerate() {
            assert!(g.degree(v) >= degrees[SOURCE_POOL - 1]);
            assert!(!s[..i].contains(&v));
        }
        // `uvm-baseline` replays the first sources of `zc-aligned`.
        assert_eq!(sources(&g, 3, 3, 1), s[..3]);
        assert_eq!(sources(&g, SOURCE_POOL, 3, 1).len(), SOURCE_POOL);
    }
}
