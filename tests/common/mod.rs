//! Shared generators for the integration-test suites: random graphs
//! (with or without planted hubs), query mixes and vertex permutations
//! used by `proptests.rs`, `serve_proptests.rs` and the
//! `*_differential.rs` harnesses, plus the harnesses' one "all four
//! programs on any front → comparable answers" helper
//! ([`four_programs`] / [`answers`]).
//!
//! Each integration test binary compiles this module independently
//! (`mod common;`), so not every helper is used by every binary.
#![allow(dead_code)]

use emogi_repro::core::spec::{self, Front, ProgramKind, ProgramRun, ProgramSpec};
use emogi_repro::core::{Engine, EngineConfig};
use emogi_repro::graph::{CsrGraph, EdgeListBuilder, LayoutPlan};
use emogi_repro::runtime::RunStats;
use proptest::prelude::*;
use std::sync::Arc;

/// Build a symmetrized CSR graph over `n` vertices from arbitrary edge
/// pairs (endpoints taken modulo `n`). Symmetrization keeps every graph
/// valid for CC.
pub fn build_graph(edges: &[(u32, u32)], n: u32) -> CsrGraph {
    let mut b = EdgeListBuilder::new(n as usize).symmetrize(true);
    for &(s, d) in edges {
        b.push(s % n, d % n);
    }
    b.build()
}

/// Strategy: an arbitrary edge list over `n` vertices with `1..max_len`
/// entries, for [`build_graph`].
pub fn edges(n: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..n, 0u32..n), 1..max_len)
}

/// Strategy: [`edges`] plus one to three planted hubs, each joined to
/// `degree` distinct other vertices, every such edge listed in both
/// directions. After [`build_graph`] a hub's list holds at least
/// `degree` entries — with `degree` at the sharded engine's
/// `HUB_SPLIT_DEGREE` the random cases reach cooperative hub splitting —
/// and the builder sees long lists in which every entry is a duplicate.
pub fn hub_edges(n: u32, degree: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    assert!(degree < n, "a hub needs {degree} other vertices");
    let hubs = prop::collection::vec((0u32..n, 0u32..n), 1..4);
    (edges(n, max_len), hubs).prop_map(move |(mut all, hubs)| {
        for (hub, first) in hubs {
            // `degree` consecutive steps around the other n - 1 vertices.
            for step in (first..first + degree).map(|i| 1 + i % (n - 1)) {
                let leaf = (hub + step) % n;
                all.extend([(hub, leaf), (leaf, hub)]);
            }
        }
        all
    })
}

/// Strategy: `1..max_len` source vertices over `n` vertices (BFS/SSSP
/// query bursts).
pub fn sources(n: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..n, 1..max_len)
}

/// Strategy: a mixed query burst — `(is_bfs, source)` pairs over `n`
/// vertices.
pub fn query_mix(n: u32, max_len: usize) -> impl Strategy<Value = Vec<(bool, u32)>> {
    prop::collection::vec((any::<bool>(), 0u32..n), 1..max_len)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic Fisher–Yates permutation of `0..n` driven by `seed`.
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Strategy: an arbitrary permutation of `0..n` vertex ids (as a
/// [`LayoutPlan`]-ready `perm[old] = new` table).
pub fn permutation(n: usize) -> impl Strategy<Value = Vec<u32>> {
    any::<u64>().prop_map(move |seed| random_permutation(n, seed))
}

/// The four shipped programs as specs — SSSP, BFS, CC, PageRank. SSSP
/// runs first so a UVM placement grows its managed span before its
/// driver initializes.
pub fn four_programs(src: u32, weights: &[u32], pr_iterations: u32) -> [ProgramSpec; 4] {
    [
        ProgramSpec::Sssp {
            src,
            weights: Arc::new(weights.to_vec()),
        },
        ProgramSpec::Bfs { src },
        ProgramSpec::Cc,
        ProgramSpec::PageRank {
            damping: 0.85,
            iterations: pr_iterations,
        },
    ]
}

/// One finished program in comparable form, whichever front ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub kind: ProgramKind,
    /// The output array as words: levels, distances and labels widened,
    /// `f64` ranks by bit pattern.
    pub words: Vec<u64>,
    /// CC's hook passes / PageRank's power iterations; 0 for traversals.
    pub passes: u64,
    /// The full measurements; `kernel_launches` is the iteration count
    /// on every front (a sharded run reports its logical launch waves).
    pub stats: RunStats,
}

impl Answer {
    fn new(run: ProgramRun) -> Self {
        let wide = |v: &[u32]| v.iter().map(|&x| u64::from(x)).collect();
        let (words, passes) = match &run {
            ProgramRun::Bfs(r) => (wide(&r.levels), 0),
            ProgramRun::Sssp(r) => (wide(&r.dist), 0),
            ProgramRun::Cc(r) => (wide(&r.comp), r.hook_passes),
            ProgramRun::PageRank(r) => (
                r.ranks.iter().map(|x| x.to_bits()).collect(),
                u64::from(r.iterations),
            ),
        };
        Self {
            kind: run.kind(),
            words,
            passes,
            stats: run.stats().clone(),
        }
    }

    pub fn iterations(&self) -> u64 {
        self.stats.kernel_launches
    }

    /// The output mapped back to original vertex ids; CC's labels *are*
    /// vertex ids, so they go through the canonical min-old-id mapping.
    pub fn unmapped(mut self, plan: &LayoutPlan) -> Self {
        self.words = match self.kind {
            ProgramKind::Cc => {
                let comp: Vec<u32> = self.words.iter().map(|&w| w as u32).collect();
                let comp = plan.unmap_components(&comp);
                comp.into_iter().map(u64::from).collect()
            }
            _ => plan.unmap_values(&self.words),
        };
        self
    }
}

/// Run `specs` back to back on any front — the solo engine, the sharded
/// engine at any device count — through the one dispatcher.
pub fn answers<'g>(front: &mut impl Front<'g>, specs: &[ProgramSpec]) -> Vec<Answer> {
    let run = |s| Answer::new(spec::run(front, s));
    specs.iter().map(run).collect()
}

/// Outputs, iteration counts and pass counts agree run for run; traffic
/// and timing may differ.
pub fn assert_same_results(got: &[Answer], want: &[Answer], tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}: run count");
    for (g, w) in got.iter().zip(want) {
        let program = w.kind.name();
        assert_eq!(g.words, w.words, "{tag}: {program} output");
        assert_eq!(
            g.iterations(),
            w.iterations(),
            "{tag}: {program} iterations"
        );
        assert_eq!(g.passes, w.passes, "{tag}: {program} passes");
    }
}

/// Metamorphic check: running every shipped program on a relabeled copy
/// of `graph` (sources mapped through `plan`, results mapped back
/// through its inverse) must reproduce the identity-layout run
/// **bit-identically** under the same engine configuration — outputs
/// and iteration counts alike. CC is the one declared exception: its
/// labels are vertex ids, so components are compared through
/// [`LayoutPlan::unmap_components`]'s canonical min-old-id mapping and
/// its hook-pass count is layout-dependent by design (within one
/// layout it still equals the solo/sharded counts, which
/// `sharded_differential.rs` pins).
pub fn assert_permutation_invariant(
    cfg: &EngineConfig,
    graph: &CsrGraph,
    weights: &[u32],
    src: u32,
    plan: &LayoutPlan,
    tag: &str,
) {
    let relabeled = plan.apply(graph);
    let relabeled_weights = plan.apply_edge_data(graph, weights);
    let base = answers(
        &mut Engine::load(cfg.clone(), graph),
        &four_programs(src, weights, 7),
    );
    let permuted = answers(
        &mut Engine::load(cfg.clone(), &relabeled),
        &four_programs(plan.map_vertex(src), &relabeled_weights, 7),
    );
    for (b, p) in base.iter().zip(permuted) {
        let program = b.kind.name();
        let p = p.unmapped(plan);
        assert_eq!(p.words, b.words, "{tag}: {program} output");
        if b.kind != ProgramKind::Cc {
            assert_eq!(
                p.iterations(),
                b.iterations(),
                "{tag}: {program} iterations"
            );
        }
    }
}
