//! Random graph families.
//!
//! Each generator targets the degree-distribution *shape* of one of the
//! paper's Table 2 graphs, because §5.3 explains every request-size and
//! alignment effect through the degree CDF (Figure 6):
//!
//! * [`uniform_random`] → GAP-urand: "uniformly low degrees varying from
//!   16 to 48", no skew;
//! * [`rmat`] → GAP-kron: "extremely unbalanced" power-law neighbour
//!   lists;
//! * [`social`] → Friendster: power law with moderate skew, shuffled ids;
//! * [`lognormal_dense`] → MOLIERE_2016: avg degree ≈ 222, "nearly no
//!   edges associated with small degree vertices";
//! * [`web_crawl`] → sk-2005 / uk-2007-05: directed, host-local link
//!   structure (consecutive ids link to nearby ids) plus hub pages.
//!
//! All generators are deterministic in their seed. What they cost the
//! host is draws: [`rmat`] spends one `next_u64` per level, `scale` per
//! pushed pair (17 for the benchmark's GK shape: 42 M draws);
//! [`uniform_random`] one per pair; the other families a handful per
//! vertex plus one per pair; `datasets::generate_weights` one per CSR
//! entry.

use crate::builder::EdgeListBuilder;
use crate::csr::CsrGraph;
use crate::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// GAP-urand-like: every vertex draws ~`avg_degree/2` undirected edges to
/// uniform random targets; after symmetrization degrees concentrate in a
/// narrow Poisson band around `avg_degree`.
pub fn uniform_random(n: usize, avg_degree: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let half = avg_degree / 2;
    let mut b = EdgeListBuilder::with_capacity(n, n * half).symmetrize(true);
    for src in 0..n as VertexId {
        for _ in 0..half {
            let dst = rng.gen_range(0..n as VertexId);
            b.push(src, dst);
        }
    }
    b.build()
}

/// R-MAT / Kronecker recursive generator (GAP-kron uses A=0.57, B=C=0.19).
/// `scale` is log2 of the vertex count; `edge_factor` undirected edges are
/// drawn per vertex and symmetrized. `a`, `b` and `c` are the
/// probabilities of the top-left, top-right and bottom-left quadrants.
///
/// Each level draws one uniform `r` in `[0, 1)` and descends into the
/// quadrant it selects: `r < a`, else `r < a + b`, else `r < a + b + c`,
/// else the fourth. `rng.gen::<f64>()` is exactly `k · 2⁻⁵³` for the
/// 53-bit integer `k = next_u64() >> 11`, so the three comparisons are
/// made on `k` against integers computed once (`unit_threshold`) and
/// the two quadrant bits are read off them without a branch.
///
/// # Panics
/// If a probability is negative (or NaN).
pub fn rmat(scale: u32, edge_factor: usize, a: f64, b: f64, c: f64, seed: u64) -> CsrGraph {
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0,
        "R-MAT quadrant probabilities must be non-negative"
    );
    let n = 1usize << scale;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = EdgeListBuilder::with_capacity(n, n * edge_factor).symmetrize(true);
    let thresholds = [a, a + b, a + b + c].map(unit_threshold);
    for _ in 0..n * edge_factor {
        let (mut src, mut dst) = (0 as VertexId, 0 as VertexId);
        for _ in 0..scale {
            let (sbit, dbit) = quadrant_bits(rng.next_u64() >> 11, thresholds);
            src = (src << 1) | sbit;
            dst = (dst << 1) | dbit;
        }
        builder.push(src, dst);
    }
    builder.build()
}

/// The integer `t` with `k < t` ⇔ `k · 2⁻⁵³ < x` for every 53-bit `k`:
/// `⌈x · 2⁵³⌉`. Scaling by a power of two and `ceil` are exact, the cast
/// saturates, and any `x ≥ 1` gives a `t` above every `k`.
fn unit_threshold(x: f64) -> u64 {
    (x * (1u64 << 53) as f64).ceil() as u64
}

/// One R-MAT level: the (source, destination) bits of the quadrant the
/// draw `k` falls in, for non-decreasing thresholds `[a, a+b, a+b+c]`.
/// In threshold order the quadrants are (0,0) (0,1) (1,0) (1,1): the
/// source bit rises at the middle threshold, the destination bit flips
/// at every one.
#[inline]
fn quadrant_bits(k: u64, [t_a, t_ab, t_abc]: [u64; 3]) -> (VertexId, VertexId) {
    let sbit = VertexId::from(k >= t_ab);
    let dbit = VertexId::from(k >= t_a) - sbit + VertexId::from(k >= t_abc);
    (sbit, dbit)
}

/// GAP-kron parameters.
pub fn kronecker(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    rmat(scale, edge_factor, 0.57, 0.19, 0.19, seed)
}

/// Friendster-like social network: R-MAT with milder skew, then the vertex
/// ids are randomly permuted so community structure does not line up with
/// id order (social graphs have no crawl-order locality).
pub fn social(n: usize, avg_degree: usize, seed: u64) -> CsrGraph {
    let scale = (n.max(2) as f64).log2().ceil() as u32;
    let g = rmat(scale, avg_degree / 2, 0.45, 0.22, 0.22, seed);
    // Random permutation of ids (Fisher–Yates).
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5f5f_5f5f);
    let nn = g.num_vertices();
    let mut perm: Vec<VertexId> = (0..nn as VertexId).collect();
    for i in (1..nn).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    g.relabel(&perm)
}

/// MOLIERE-like dense graph: per-vertex degree drawn from a log-normal
/// distribution clamped to `[min_degree, ...]`, giving an average around
/// `median_degree * exp(sigma^2 / 2)` and almost no low-degree vertices.
pub fn lognormal_dense(
    n: usize,
    median_degree: f64,
    sigma: f64,
    min_degree: usize,
    seed: u64,
) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mu = median_degree.ln();
    let mut b =
        EdgeListBuilder::with_capacity(n, (n as f64 * median_degree) as usize).symmetrize(true);
    for src in 0..n as VertexId {
        // Box–Muller for a standard normal.
        let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let deg = ((mu + sigma * z).exp() / 2.0).round() as usize;
        let deg = deg.max(min_degree / 2);
        for _ in 0..deg {
            b.push(src, rng.gen_range(0..n as VertexId));
        }
    }
    b.build()
}

/// Web-crawl-like directed graph (sk-2005 / uk-2007-05 stand-in).
///
/// Pages are numbered in crawl order, so most links are *local* (within
/// the same host: small id distance) with a power-law-ish out-degree, and
/// a fraction of links point at global hub pages. The id-space locality is
/// what gives web graphs their page-level locality under UVM and what the
/// HALO-style reordering exploits.
pub fn web_crawl(
    n: usize,
    avg_degree: usize,
    locality_window: usize,
    local_fraction: f64,
    seed: u64,
) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = EdgeListBuilder::with_capacity(n, n * avg_degree);
    // A small set of hubs receives the non-local links, Zipf-weighted.
    let num_hubs = (n / 100).max(1);
    for src in 0..n as VertexId {
        // Out-degree: shifted geometric-ish power law around the average.
        let r: f64 = rng.gen::<f64>().max(1e-9);
        let deg = ((avg_degree as f64) * r.powf(-0.35) * 0.55).round() as usize;
        let deg = deg.clamp(1, n / 2);
        for _ in 0..deg {
            let dst = if rng.gen::<f64>() < local_fraction {
                // Local link: short, sign-symmetric id distance.
                let span = locality_window.max(2) as i64;
                let dist = (rng.gen_range(1..span) as f64 * rng.gen::<f64>().powi(2)) as i64 + 1;
                let dir = if rng.gen::<bool>() { 1 } else { -1 };
                (i64::from(src) + dir * dist).rem_euclid(n as i64) as VertexId
            } else {
                // Hub link: Zipf over the hub set.
                let z: f64 = rng.gen::<f64>().max(1e-9);
                let hub = ((num_hubs as f64).powf(z) - 1.0) as usize % num_hubs;
                (hub * (n / num_hubs)) as VertexId
            };
            b.push(src, dst);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_random_degree_band() {
        let g = uniform_random(2_000, 32, 7);
        assert_eq!(g.num_vertices(), 2_000);
        let avg = g.average_degree();
        assert!((29.0..33.0).contains(&avg), "avg degree {avg}");
        // The GU property from Figure 6: (almost) all edges on vertices of
        // degree 16..=48.
        let in_band: u64 = (0..2_000u32)
            .map(|v| {
                let d = g.degree(v);
                if (16..=48).contains(&d) {
                    d
                } else {
                    0
                }
            })
            .sum();
        let frac = in_band as f64 / g.num_edges() as f64;
        assert!(frac > 0.97, "only {frac} of edges in the 16..48 band");
    }

    #[test]
    fn kronecker_is_skewed() {
        let g = kronecker(12, 16, 11);
        assert_eq!(g.num_vertices(), 4096);
        // Power-law: the max degree dwarfs the average.
        assert!(g.max_degree() > 20 * g.average_degree() as u64);
        // And many vertices are isolated or near-isolated.
        let low = (0..4096u32).filter(|&v| g.degree(v) < 2).count();
        assert!(low > 400, "expected many low-degree vertices, got {low}");
    }

    #[test]
    fn social_has_no_id_locality() {
        let g = social(4_096, 50, 3);
        let avg = g.average_degree();
        assert!((30.0..60.0).contains(&avg), "avg {avg}");
        // Average id distance of edges should be ~n/3 for shuffled ids.
        let n = g.num_vertices() as f64;
        let mean_dist: f64 = g
            .edge_list()
            .iter()
            .zip(
                (0..g.num_vertices() as u32)
                    .flat_map(|v| std::iter::repeat_n(v, g.degree(v) as usize)),
            )
            .map(|(&d, s)| (f64::from(d) - f64::from(s)).abs())
            .sum::<f64>()
            / g.num_edges() as f64;
        assert!(mean_dist > n / 5.0, "mean id distance {mean_dist}");
    }

    #[test]
    fn lognormal_dense_has_no_small_lists() {
        let g = lognormal_dense(1_000, 190.0, 0.45, 96, 13);
        let avg = g.average_degree();
        assert!((150.0..260.0).contains(&avg), "avg {avg}");
        // Edges living on degree<96 vertices must be rare (Figure 6 ML).
        let small: u64 = (0..1_000u32)
            .map(|v| if g.degree(v) < 96 { g.degree(v) } else { 0 })
            .sum();
        let frac = small as f64 / g.num_edges() as f64;
        assert!(frac < 0.02, "fraction of edges on small lists: {frac}");
    }

    #[test]
    fn web_crawl_is_directed_and_local() {
        let g = web_crawl(10_000, 38, 2_000, 0.85, 17);
        assert!(!g.is_undirected());
        let avg = g.average_degree();
        assert!((25.0..55.0).contains(&avg), "avg {avg}");
        // Most edges stay within the locality window.
        let mut local = 0u64;
        for v in 0..10_000u32 {
            for &d in g.neighbors(v) {
                let dist = (i64::from(d) - i64::from(v)).unsigned_abs();
                if dist <= 2_000 || dist >= 8_000 {
                    local += 1;
                }
            }
        }
        let frac = local as f64 / g.num_edges() as f64;
        assert!(frac > 0.6, "local fraction {frac}");
    }

    /// The quadrant choice as the paper's generators write it: one float
    /// draw through an if-chain. The reference for `quadrant_bits`.
    fn quadrant_bits_by_float_chain(r: f64, a: f64, b: f64, c: f64) -> (VertexId, VertexId) {
        if r < a {
            (0, 0)
        } else if r < a + b {
            (0, 1)
        } else if r < a + b + c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// `rmat` as it was before the integer thresholds.
    fn rmat_by_float_chain(
        scale: u32,
        edge_factor: usize,
        a: f64,
        b: f64,
        c: f64,
        seed: u64,
    ) -> CsrGraph {
        let n = 1usize << scale;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = EdgeListBuilder::new(n).symmetrize(true);
        for _ in 0..n * edge_factor {
            let (mut src, mut dst) = (0, 0);
            for _ in 0..scale {
                let (sbit, dbit) = quadrant_bits_by_float_chain(rng.gen(), a, b, c);
                src = (src << 1) | sbit;
                dst = (dst << 1) | dbit;
            }
            builder.push(src, dst);
        }
        builder.build()
    }

    /// Seeded `(a, b, c)` draws: ordinary mixes, sums at and above 1 (the
    /// later quadrants become unreachable), a tiny `a` (threshold far
    /// below 2⁵³, where `x · 2⁵³` is not an integer) and zeros.
    fn quadrant_probabilities() -> Vec<(f64, f64, f64)> {
        let mut rng = StdRng::seed_from_u64(0x0B17);
        let mut out = vec![
            (0.57, 0.19, 0.19),
            (0.45, 0.22, 0.22),
            (0.25, 0.25, 0.5),
            (0.7, 0.5, 0.1),
            (1.5, 0.0, 0.0),
            (1e-9, 0.3, 0.3),
            (0.0, 0.0, 0.0),
            (0.0, 1.0 / 3.0, 0.0),
        ];
        for _ in 0..24 {
            let (a, b, c): (f64, f64, f64) = (rng.gen(), rng.gen(), rng.gen());
            out.push((a * 0.8, b * 0.6, c * 0.6));
        }
        out
    }

    // Mutations this fails on and `rmat_equals_the_float_chain` cannot (a
    // random 53-bit draw never lands on a threshold): `>=` -> `>` on any
    // of the three comparisons in `quadrant_bits`; `ceil` -> `floor` or
    // `round` in `unit_threshold`.
    #[test]
    fn quadrant_bits_agree_with_the_float_chain_at_every_threshold() {
        let unit = 1.0 / (1u64 << 53) as f64;
        for (a, b, c) in quadrant_probabilities() {
            let thresholds = [a, a + b, a + b + c].map(unit_threshold);
            let near = thresholds
                .into_iter()
                .flat_map(|t| [t.saturating_sub(1), t, t + 1]);
            for k in near.chain([0, (1 << 53) - 1]).filter(|&k| k < 1 << 53) {
                assert_eq!(
                    quadrant_bits(k, thresholds),
                    quadrant_bits_by_float_chain(k as f64 * unit, a, b, c),
                    "k = {k}, (a, b, c) = ({a}, {b}, {c})"
                );
            }
        }
    }

    // Mutations this fails on: a different number of draws per level or
    // per edge, a draw shifted by other than 11, a threshold dropped
    // from the cumulative sums. (Swapping the source and destination
    // bits does not — the graph is symmetrized — the test above does.)
    #[test]
    fn rmat_equals_the_float_chain() {
        for (i, (a, b, c)) in quadrant_probabilities().into_iter().enumerate() {
            let seed = 40 + i as u64;
            assert_eq!(
                rmat(8, 6, a, b, c, seed),
                rmat_by_float_chain(8, 6, a, b, c, seed),
                "(a, b, c) = ({a}, {b}, {c})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rmat_rejects_a_negative_probability() {
        let _ = rmat(4, 2, 0.5, -0.1, 0.2, 1);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = kronecker(10, 8, 42);
        let b = kronecker(10, 8, 42);
        assert_eq!(a, b);
        let c = kronecker(10, 8, 43);
        assert_ne!(a, c);
    }
}
