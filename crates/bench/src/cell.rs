//! The one cell runner: a program series on one placed engine, folded
//! into one [`RunStats`] and one output digest.
//!
//! Every experiment cell that drives an [`Engine`] is the same loop —
//! BFS × sources | SSSP × sources | CC | PageRank, sum the stats, keep
//! enough of the outputs to prove two cells computed the same thing —
//! so it is written once, here: a [`Series`] is a list of
//! [`ProgramSpec`]s run through the core dispatcher ([`spec::run`]),
//! and [`ProgramRun::words`] is the one run → digest-words mapping.
//! Stats fold with the ledger's `+=`; derived columns come from the
//! folded `RunStats`' own methods.

use emogi_core::spec::{self, ProgramRun, ProgramSpec};
use emogi_core::Engine;
use emogi_graph::reorder::LayoutPlan;
use emogi_graph::{Dataset, VertexId};
use emogi_runtime::RunStats;
use std::sync::Arc;

/// Power iterations of the [`Series::PageRank`] cell (enough to spread
/// rank mass a few hops).
pub const PR_ITERATIONS: u32 = 10;
/// Damping factor of the [`Series::PageRank`] cell.
pub const PR_DAMPING: f64 = 0.85;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// What one cell runs on its engine. The traversal programs run once
/// per source, in slice order, on the same placement (so later runs see
/// the cache and staging state earlier ones left).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Series<'a> {
    MultiBfs(&'a [VertexId]),
    MultiSssp(&'a [VertexId]),
    Cc,
    PageRank,
}

impl<'a> Series<'a> {
    /// All four programs, the traversals from `sources`.
    pub fn all(sources: &'a [VertexId]) -> [Series<'a>; 4] {
        [
            Series::MultiBfs(sources),
            Series::MultiSssp(sources),
            Series::Cc,
            Series::PageRank,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            Series::MultiBfs(_) => "multi-bfs",
            Series::MultiSssp(_) => "multi-sssp",
            Series::Cc => "cc",
            Series::PageRank => "pagerank",
        }
    }

    /// The series as specs, in run order; sources and `d`'s SSSP weights
    /// mapped into `plan`'s id space.
    fn specs(self, d: &Dataset, plan: Option<&LayoutPlan>) -> Vec<ProgramSpec> {
        let map = |&s: &VertexId| plan.map_or(s, |p| p.map_vertex(s));
        match self {
            Series::MultiBfs(sources) => sources
                .iter()
                .map(|s| ProgramSpec::Bfs { src: map(s) })
                .collect(),
            Series::MultiSssp(sources) => {
                let weights = Arc::new(match plan {
                    Some(p) => p.apply_edge_data(&d.graph, &d.weights),
                    None => d.weights.clone(),
                });
                let spec = |s| ProgramSpec::Sssp {
                    src: map(s),
                    weights: Arc::clone(&weights),
                };
                sources.iter().map(spec).collect()
            }
            Series::Cc => vec![ProgramSpec::Cc],
            Series::PageRank => vec![ProgramSpec::PageRank {
                damping: PR_DAMPING,
                iterations: PR_ITERATIONS,
            }],
        }
    }
}

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct Folded {
    /// Every run's stats, folded with `+=`.
    pub stats: RunStats,
    /// Word-wise FNV-1a over every run's output, chained in run order:
    /// two cells agree iff their outputs agree element for element, run
    /// for run. `f64` ranks enter by bit pattern.
    pub digest: u64,
    /// The ranks a [`Series::PageRank`] cell computed (the `pagerank`
    /// experiment reports their deviation from the CPU reference);
    /// empty for the integer programs.
    pub ranks: Vec<f64>,
}

/// Word-wise FNV-1a continuing from `h`, so digests chain.
fn fnv1a(h: u64, words: impl Iterator<Item = u64>) -> u64 {
    words.fold(h, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Order-sensitive digest of one run's output: what a [`Folded`] cell of
/// that single run carries, so "same answer" is one comparable number.
pub fn digest(run: &ProgramRun) -> u64 {
    fnv1a(FNV_OFFSET, run.words().into_iter())
}

/// Run `series` on `engine` and fold it. `d` supplies the SSSP weights.
///
/// With a `plan`, `engine` must hold `plan.apply(&d.graph)`: sources
/// and weights are mapped into the relabeled id space and every output
/// back out before it is digested, so the digest is comparable across
/// layouts.
pub fn run(
    engine: &mut Engine<'_>,
    series: Series<'_>,
    d: &Dataset,
    plan: Option<&LayoutPlan>,
) -> Folded {
    let mut out = Folded {
        stats: RunStats::default(),
        digest: FNV_OFFSET,
        ranks: Vec::new(),
    };
    for spec in series.specs(d, plan) {
        let run = spec::run(engine, &spec);
        let words = plan.map_or_else(|| run.words(), |p| run.unmapped_words(p));
        out.stats += run.stats();
        out.digest = fnv1a(out.digest, words.iter().copied());
        if let ProgramRun::PageRank(_) = run {
            out.ranks = words.into_iter().map(f64::from_bits).collect();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emogi_core::EngineConfig;
    use emogi_graph::DatasetKey;

    #[test]
    fn digest_is_order_sensitive() {
        let digest = |words: [u64; 2]| fnv1a(FNV_OFFSET, words.into_iter());
        assert_ne!(digest([1, 2]), digest([2, 1]));
        assert_eq!(digest([1, 2]), digest([1, 2]));
    }

    #[test]
    fn folds_like_the_ledger_and_digests_in_order() {
        let d = DatasetKey::Gk.spec().generate_scaled(64);
        let sources = d.sources(3);
        let load = || Engine::load(EngineConfig::hybrid_v100(), &d.graph);

        let folded = run(&mut load(), Series::MultiBfs(&sources), &d, None);
        let mut engine = load();
        let mut want = RunStats::default();
        for &s in &sources {
            want += engine.bfs(s).stats;
        }
        assert_eq!(folded.stats, want, "fold must equal += of the solo runs");

        let again = run(&mut load(), Series::MultiBfs(&sources), &d, None);
        assert_eq!(again.digest, folded.digest, "same series, fresh engine");
        let swapped = [sources[1], sources[0], sources[2]];
        let other = run(&mut load(), Series::MultiBfs(&swapped), &d, None);
        assert_ne!(other.digest, folded.digest, "digest must see run order");
    }
}
