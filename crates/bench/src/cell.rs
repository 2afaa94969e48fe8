//! The one cell runner: a program series on one placed engine, folded
//! into one [`RunStats`] and one output digest.
//!
//! Every experiment cell that drives an [`Engine`] is the same loop —
//! BFS × sources | SSSP × sources | CC | PageRank, sum the stats, keep
//! enough of the outputs to prove two cells computed the same thing —
//! so it is written once, here. Stats fold with the ledger's `+=`;
//! derived columns come from the folded `RunStats`' own methods.

use emogi_core::Engine;
use emogi_graph::reorder::LayoutPlan;
use emogi_graph::{Dataset, VertexId};
use emogi_runtime::RunStats;

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

impl Folded {
    fn absorb(&mut self, stats: &RunStats, words: impl Iterator<Item = u64>) {
        self.stats += stats;
        self.digest = fnv1a(self.digest, words);
    }
}

/// Word-wise FNV-1a continuing from `h`, so digests chain.
fn fnv1a(h: u64, words: impl Iterator<Item = u64>) -> u64 {
    words.fold(h, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Order-sensitive digest of one output: what a [`Folded`] cell of that
/// single run carries.
pub fn digest(words: impl Iterator<Item = u64>) -> u64 {
    fnv1a(FNV_OFFSET, words)
}

/// A `u32` output array (levels, distances, labels) as digest words.
pub fn words(values: &[u32]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|&w| u64::from(w))
}

fn unmap<T: Copy>(plan: Option<&LayoutPlan>, values: Vec<T>) -> Vec<T> {
    match plan {
        Some(p) => p.unmap_values(&values),
        None => values,
    }
}

/// Run `series` on `engine` and fold it. `d` supplies the SSSP weights.
///
/// With a `plan`, `engine` must hold `plan.apply(&d.graph)`: sources
/// and weights are mapped into the relabeled id space and every output
/// back out before it is digested (CC labels canonicalized to the
/// smallest original id per component), so the digest is comparable
/// across layouts.
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
    let map = |s: VertexId| plan.map_or(s, |p| p.map_vertex(s));
    match series {
        Series::MultiBfs(sources) => {
            for &s in sources {
                let run = engine.bfs(map(s));
                out.absorb(&run.stats, words(&unmap(plan, run.output.levels)));
            }
        }
        Series::MultiSssp(sources) => {
            let relabeled = plan.map(|p| p.apply_edge_data(&d.graph, &d.weights));
            let weights = relabeled.as_deref().unwrap_or(&d.weights);
            for &s in sources {
                let run = engine.sssp(weights, map(s));
                out.absorb(&run.stats, words(&unmap(plan, run.output.dist)));
            }
        }
        Series::Cc => {
            let run = engine.cc();
            let comp = match plan {
                Some(p) => p.unmap_components(&run.output.comp),
                None => run.output.comp,
            };
            out.absorb(&run.stats, words(&comp));
        }
        Series::PageRank => {
            let run = engine.pagerank(PR_DAMPING, PR_ITERATIONS);
            let ranks = unmap(plan, run.output.ranks);
            out.absorb(&run.stats, ranks.iter().map(|r| r.to_bits()));
            out.ranks = ranks;
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
        assert_ne!(digest([1, 2].into_iter()), digest([2, 1].into_iter()));
        assert_eq!(digest([1, 2].into_iter()), digest([1, 2].into_iter()));
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
