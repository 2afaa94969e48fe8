//! Output checks against the CPU reference algorithms, outside every
//! timed region, and the FNV-1a digests the result files record.

use emogi_repro::prelude::*;
use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(FNV_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

pub fn digest_u32(words: &[u32]) -> u64 {
    fnv1a(words.iter().map(|&w| u64::from(w)))
}

/// Ranks fold by bit pattern, so "same answer" is one comparable number.
pub fn digest_f64(values: &[f64]) -> u64 {
    fnv1a(values.iter().map(|v| v.to_bits()))
}

/// One query's verdict.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Stable across repetitions and sets, e.g. `gk.bfs.70153`.
    pub label: String,
    pub digest: u64,
    pub ok: bool,
    /// The query's simulated time, filled in by the workload; lets a
    /// report compare two workloads over their common queries.
    pub sim_ns: u64,
}

impl Checked {
    pub fn with_sim_ns(mut self, sim_ns: u64) -> Self {
        self.sim_ns = sim_ns;
        self
    }
}

/// Checks outputs against the reference and remembers what it verified.
/// Every repetition regenerates the same inputs from the seed, so the
/// reference is computed on an output's first appearance and later
/// repetitions must reproduce the verified digest.
#[derive(Default)]
pub struct Verifier {
    verified: BTreeMap<String, u64>,
}

impl Verifier {
    fn check(&mut self, label: String, digest: u64, matches: impl FnOnce() -> bool) -> Checked {
        let ok = match self.verified.get(&label) {
            Some(&known) => known == digest,
            None => {
                let ok = matches();
                if ok {
                    self.verified.insert(label.clone(), digest);
                }
                ok
            }
        };
        Checked {
            label,
            digest,
            ok,
            sim_ns: 0,
        }
    }

    pub fn bfs(&mut self, label: String, g: &CsrGraph, src: VertexId, levels: &[u32]) -> Checked {
        self.check(label, digest_u32(levels), || {
            levels == algo::bfs_levels(g, src)
        })
    }

    pub fn sssp(
        &mut self,
        label: String,
        g: &CsrGraph,
        weights: &[u32],
        src: VertexId,
        dist: &[u32],
    ) -> Checked {
        self.check(label, digest_u32(dist), || {
            let want = algo::sssp_distances(g, weights, src);
            // The engines mark unreachable vertices with u32 INF, the
            // reference with u64 UNREACHABLE.
            want.len() == dist.len()
                && want.iter().zip(dist).all(|(&w, &d)| {
                    if d == INF {
                        w == algo::UNREACHABLE
                    } else {
                        w == u64::from(d)
                    }
                })
        })
    }

    pub fn cc(&mut self, label: String, g: &CsrGraph, comp: &[u32]) -> Checked {
        self.check(label, digest_u32(comp), || comp == algo::cc_labels(g))
    }

    pub fn pagerank(
        &mut self,
        label: String,
        g: &CsrGraph,
        damping: f64,
        iterations: u32,
        ranks: &[f64],
    ) -> Checked {
        self.check(label, digest_f64(ranks), || {
            let want = algo::pagerank(g, damping, iterations);
            want.len() == ranks.len() && want.iter().zip(ranks).all(|(w, r)| (w - r).abs() < 1e-9)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_fnv1a_over_words() {
        assert_eq!(digest_u32(&[]), FNV_OFFSET);
        assert_eq!(digest_u32(&[1]), (FNV_OFFSET ^ 1).wrapping_mul(FNV_PRIME));
        assert_ne!(digest_u32(&[1, 2]), digest_u32(&[2, 1]));
        assert_eq!(digest_f64(&[0.5]), digest_f64(&[0.5]));
        assert_ne!(digest_f64(&[0.0]), digest_f64(&[-0.0]));
    }

    #[test]
    fn wrong_outputs_fail_and_are_not_remembered() {
        let g = generators::uniform_random(200, 6, 5);
        let mut v = Verifier::default();
        let mut levels = algo::bfs_levels(&g, 0);
        assert!(v.bfs("bfs.0".into(), &g, 0, &levels).ok);
        // A later repetition must reproduce the verified digest.
        levels[7] ^= 1;
        assert!(!v.bfs("bfs.0".into(), &g, 0, &levels).ok);
        // A wrong first appearance is checked against the reference, fails,
        // and leaves no digest behind to match later.
        assert!(!v.bfs("bfs.1".into(), &g, 1, &levels).ok);
        assert!(!v.bfs("bfs.1".into(), &g, 1, &levels).ok);
    }

    #[test]
    fn every_program_kind_verifies_against_its_reference() {
        let g = generators::uniform_random(300, 6, 9);
        let w = datasets::generate_weights(g.num_edges(), 9);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let mut v = Verifier::default();
        let sssp = engine.sssp(&w, 2);
        assert!(v.sssp("sssp".into(), &g, &w, 2, &sssp.dist).ok);
        assert!(v.cc("cc".into(), &g, &engine.cc().comp).ok);
        let pr = engine.pagerank(0.85, 3);
        assert!(v.pagerank("pr".into(), &g, 0.85, 3, &pr.ranks).ok);
        let mut bad = sssp.dist.clone();
        bad[5] = bad[5].wrapping_add(1);
        assert!(!v.sssp("sssp.bad".into(), &g, &w, 2, &bad).ok);
    }
}
