//! The one equivalence harness, and the generators its cases are drawn
//! from.
//!
//! Every mechanism this repository adds on top of zero-copy traversal is
//! stated as a bit-identity theorem: a *reference* side and a *variant*
//! side ([`Side`]: configuration, graph, specs, optional relabeling),
//! run in some execution [`Shape`]s on fresh placements, agree at some
//! [`Strength`]. [`assert_equivalent`] is that sentence; a harness file
//! is a case generator, one call per theorem, and one fixed witness that
//! its variant side really exercises the mechanism.
//!
//! | mechanism (file) | reference → variant | solo | batched | sharded |
//! |---|---|---|---|---|
//! | sharding (`sharded_differential`) | cfg → same cfg | | | `Results`; `Full` at one device |
//! | batching (`serve_proptests`) | cfg → same cfg | | `Results`; `Full` at one query | |
//! | pipelining (`pipeline_differential`) | synchronous → prefetching hybrid | `Semantic` | `Semantic` | `Semantic` |
//! | idle CXL tier (`tiering_differential`) | two-tier → CXL attached, unused | `Full` | `Full` | `Full` |
//! | CXL spill (`tiering_differential`) | two-tier → host capacity 0 | `Results` | `Results` | `Results` |
//! | relabeling (`layout_differential`, `proptests`) | identity → any plan | `Results` | `Results` | `Results` |
//! | purity (`determinism`) | cfg → same cfg again | `Full` | `Full` | `Full` |
//! | CPU oracle (`correctness`, `proptests`) | `algo::*` → cfg | outputs; full sweeps launch once per pass | | |
//!
//! Every row holds for all four programs under every named configuration
//! ([`configs`]; pipelining draws region sizes instead). The shapes are
//! `[Shape::Solo]`, [`Shape::BATCHED`] (SSSP and BFS bursts) and
//! [`Shape::SHARDED`] (1, 2 and 4 devices). Which run a
//! variant run is held to is decided once, in [`assert_equivalent`]:
//!
//! - Results hold across shapes (that is the sharding and the batching
//!   theorem), so at every strength every variant shape is held to the
//!   reference's *solo* run at `Results`.
//! - Statistics depend on the shape, so at `Semantic` / `Full` the
//!   variant is also held to the reference in the *same* shape — a
//!   one-device group and a one-query batch, which are the solo engine
//!   tick for tick, to the solo run itself.
//! - CC's launch and pass counts depend on the ids it starts from, so
//!   across layouts they are not comparable ([`compare`] skips them);
//!   a relabeled variant is instead also held, in every shape, to *its
//!   own* solo run, where they are.
//!
//! No shape is illegal for any mechanism. The one illegal *order* — UVM
//! freezes its managed span at the first kernel, so SSSP's weights must
//! be placed first — is handled in two places: [`traversals`] puts SSSP
//! first, and [`any_config_placing_weights_late`] excludes UVM from the
//! two server tests whose mixes cannot.
//!
//! Outputs are computed from the `CsrGraph`, never from simulated
//! addresses: a mutation of the address path can only be caught at
//! `Semantic` / `Full` or by a witness, a mutation of the work split or
//! the result mapping at any strength. The seeded mutations each harness
//! is known to catch (at the default seed and at CI's) are listed in
//! that file's header.
//!
//! Every drive ends with `GraphLayout::check_ledgers` on every device,
//! in every build profile (`Driver::drive`), so every side of every
//! shape is checked before [`Shape::run`] reads its counters. Seeded
//! mutations it is known to catch at both seeds:
//!
//! - `Machine::account_async_stage` (`crates/runtime/src/machine.rs`)
//!   without `self.dma.bytes_to_device += bytes` fails 24 workspace tests
//!   at the default seed and 26 at CI's, with "machine invariant
//!   `dma.bytes_to_device == staged_bytes - cxl_staged_bytes` broken: 0
//!   vs 57360". They include both `sim_golden` matrix tests, every test
//!   of `pipeline_differential`, tests in `layout_differential`,
//!   `sharded_differential`, `serve_proptests`, `correctness` and
//!   `determinism`, and the smoke `overlap` claim.
//!   Before the laws ran in the driver, only the unit test
//!   `adopted_prefetch_skips_the_demand_copy_but_counts_identical_traffic`
//!   failed;
//! - `TrafficMonitor::on_read_issued` (`crates/sim/src/monitor.rs`)
//!   skipping `self.sizes.record(size)` fails 106 workspace tests at
//!   each seed, every test of `determinism`, `tiering_differential`,
//!   `sharded_differential` and `pipeline_differential` among them, with
//!   "machine invariant `monitor.sizes.total() == monitor.read_requests`
//!   broken: 0 vs N";
//! - `DmaEngine::copy_to_device` (`crates/sim/src/dma.rs`) returning
//!   `arrived` without `device.write_bulk` fails 22 at each seed,
//!   `pipeline_differential`'s `the_pipelined_side_actually_speculates`
//!   among them with "`hbm.bytes_written >= dma.bytes_to_device` broken:
//!   22656 vs 76400", and `sim_golden`, `sharded_differential` and the
//!   smoke `hybrid` and `overlap` claims.
//!
//! Each integration test binary compiles this module independently
//! (`mod common;`), so not every helper is used by every binary.
#![allow(dead_code)]

use emogi_repro::core::spec::{self, ProgramKind, ProgramRun, ProgramSpec};
use emogi_repro::core::sssp::INF;
use emogi_repro::core::{AccessStrategy, Engine, EngineConfig, ShardedConfig, ShardedEngine};
use emogi_repro::graph::{algo, CsrGraph, EdgeListBuilder, LayoutPlan};
use emogi_repro::runtime::{Machine, RunStats};
use emogi_repro::sim::interconnect::LinkStats;
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

/// Strategy: [`build_graph`] over [`edges`].
pub fn graph(n: u32, max_len: usize) -> impl Strategy<Value = CsrGraph> {
    edges(n, max_len).prop_map(move |edges| build_graph(&edges, n))
}

/// Strategy: a [`graph`] with one to three planted hubs, each joined to
/// `degree` distinct other vertices, every such edge listed in both
/// directions: a hub's list holds at least `degree` entries — with
/// `degree` at the sharded engine's `HUB_SPLIT_DEGREE` the random cases
/// reach cooperative hub splitting — and the builder sees long lists in
/// which every entry is a duplicate.
pub fn hub_graph(n: u32, degree: u32, max_len: usize) -> impl Strategy<Value = CsrGraph> {
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
        build_graph(&all, n)
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

/// Deterministic Fisher–Yates permutation of `0..n` driven by `seed`.
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let (mut perm, mut rng) = (Vec::from_iter(0..n as u32), proptest::TestRng::new(seed));
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    perm
}

/// The one named configuration list: the paper's three zero-copy
/// strategies, zero-copy on the split-hub kernel the extension presets
/// run, synchronous and pipelined hybrid, and the UVM baseline (last).
/// Every suite draws from it (`sim_golden` shrinks the cache and the
/// transfer regions of the same seven).
pub fn configs() -> Vec<(&'static str, EngineConfig)> {
    let zero_copy = |s: AccessStrategy| (s.name(), EngineConfig::emogi_v100().with_strategy(s));
    let mut all: Vec<_> = AccessStrategy::all().into_iter().map(zero_copy).collect();
    all.push(zero_copy(AccessStrategy::MergedAlignedSplit));
    all.push(("Hybrid", EngineConfig::hybrid_v100()));
    all.push(("Hybrid pipelined", EngineConfig::pipelined_v100()));
    all.push(("UVM", EngineConfig::uvm_v100()));
    all
}

/// Strategy: one of the named [`configs`].
pub fn any_config() -> impl Strategy<Value = (&'static str, EngineConfig)> {
    (0..configs().len()).prop_map(|i| configs().swap_remove(i))
}

/// Strategy: [`any_config`] for cases that may run SSSP *after* another
/// program — every configuration but UVM (the last), which freezes its
/// managed span at the first managed kernel and so cannot place a weight
/// array late (every other case runs SSSP first; see [`traversals`]).
pub fn any_config_placing_weights_late() -> impl Strategy<Value = (&'static str, EngineConfig)> {
    (0..configs().len() - 1).prop_map(|i| configs().swap_remove(i))
}

/// SSSP from every source, then BFS from every source. SSSP runs first
/// so a UVM placement grows its managed span before its driver
/// initializes; same-kind specs are adjacent so a batch merges them.
pub fn traversals(sources: &[u32], weights: &[u32]) -> Vec<ProgramSpec> {
    let weights = Arc::new(weights.to_vec());
    let mut specs = Vec::new();
    for &src in sources {
        let weights = Arc::clone(&weights);
        specs.push(ProgramSpec::Sssp { src, weights });
    }
    specs.extend(sources.iter().map(|&src| ProgramSpec::Bfs { src }));
    specs
}

/// The four shipped programs as specs — SSSP, BFS, CC, PageRank.
pub fn four_programs(src: u32, weights: &[u32], iterations: u32) -> Vec<ProgramSpec> {
    let mut specs = traversals(&[src], weights);
    specs.push(ProgramSpec::Cc);
    specs.push(ProgramSpec::PageRank {
        damping: 0.85,
        iterations,
    });
    specs
}

/// One side of a theorem: what runs, on which graph, under which
/// configuration, optionally over a relabeled copy of the graph. The
/// other side is usually a clone of this one with one field replaced.
#[derive(Clone)]
pub struct Side<'a> {
    pub cfg: EngineConfig,
    pub graph: &'a CsrGraph,
    pub specs: &'a [ProgramSpec],
    /// `Some`: place `plan.apply(graph)`, map sources and weights in and
    /// every output back out. `None` is the identity layout.
    pub layout: Option<LayoutPlan>,
}

impl<'a> Side<'a> {
    pub fn new(cfg: EngineConfig, graph: &'a CsrGraph, specs: &'a [ProgramSpec]) -> Self {
        Self {
            cfg,
            graph,
            specs,
            layout: None,
        }
    }

    /// This side over `plan`'s relabeling.
    pub fn relabeled(&self, plan: LayoutPlan) -> Self {
        let mut side = self.clone();
        side.layout = Some(plan);
        side
    }
}

/// What one side left behind in one shape: a run per spec, the layout
/// they ran under, each device's lifetime counters, and the group's
/// exchange traffic (zero off the sharded shapes).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub runs: Vec<ProgramRun>,
    pub layout: Option<LayoutPlan>,
    pub devices: Vec<RunStats>,
    pub exchange: LinkStats,
}

impl Outcome {
    /// Run `i`'s [`ProgramRun::words`], in original vertex ids.
    pub fn words(&self, i: usize) -> Vec<u64> {
        let run = &self.runs[i];
        let plain = || run.words();
        self.layout
            .as_ref()
            .map_or_else(plain, |plan| run.unmapped_words(plan))
    }
}

/// How the specs of a side are executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Back to back on one [`Engine`].
    Solo,
    /// On one [`Engine`] through [`spec::run_group`]: each run of
    /// same-kind specs in groups of at most `k`, frontiers merged.
    Batch(usize),
    /// Back to back on a [`ShardedEngine`] of this many devices.
    Sharded(usize),
}

impl Shape {
    /// A batch of one (the solo engine, tick for tick) and batches wide
    /// enough to merge every burst the generators draw.
    pub const BATCHED: [Shape; 2] = [Shape::Batch(1), Shape::Batch(8)];

    /// 1, 2 and 4 devices — the only place device counts are listed.
    pub const SHARDED: [Shape; 3] = [Shape::Sharded(1), Shape::Sharded(2), Shape::Sharded(4)];

    /// The solo engine, or one of its two disguises: a one-query batch
    /// and a one-device group are the solo engine tick for tick.
    fn is_solo(self) -> bool {
        matches!(self, Shape::Solo | Shape::Batch(1) | Shape::Sharded(1))
    }

    /// Run `side`'s specs in this shape on a fresh placement.
    pub fn run(self, side: &Side) -> Outcome {
        if let Some(plan) = &side.layout {
            let (graph, specs) = (plan.apply(side.graph), relabel(side, plan));
            let mut out = self.run(&Side::new(side.cfg.clone(), &graph, &specs));
            out.layout = side.layout.clone();
            return out;
        }
        let (mut out, specs) = (Outcome::default(), side.specs);
        if let Shape::Sharded(devices) = self {
            // The one place a `ShardedEngine` is loaded for comparison.
            let mut cfg = ShardedConfig::emogi_v100(devices);
            cfg.engine = side.cfg.clone();
            let mut engine = ShardedEngine::load(cfg, side.graph);
            out.runs = specs.iter().map(|s| spec::run(&mut engine, s)).collect();
            out.devices = Vec::from_iter(engine.group.machines.iter().map(Machine::counters));
            out.exchange = engine.group.interconnect.totals();
            return out;
        }
        let mut engine = Engine::load(side.cfg.clone(), side.graph);
        if let Shape::Batch(k) = self {
            let same_kind = specs.chunk_by(|a, b| a.kind() == b.kind());
            for group in same_kind.flat_map(|specs| specs.chunks(k)) {
                let group = Vec::from_iter(group);
                out.runs.extend(spec::run_group(&mut engine, &group).runs);
            }
        } else {
            out.runs = specs.iter().map(|s| spec::run(&mut engine, s)).collect();
        }
        out.devices = vec![engine.machine.counters()];
        out
    }
}

/// `side`'s specs in `plan`'s id space: sources and weights mapped in.
fn relabel(side: &Side, plan: &LayoutPlan) -> Vec<ProgramSpec> {
    let mut specs = side.specs.to_vec();
    for spec in &mut specs {
        if let ProgramSpec::Bfs { src } | ProgramSpec::Sssp { src, .. } = spec {
            *src = plan.map_vertex(*src);
        }
        if let ProgramSpec::Sssp { weights, .. } = spec {
            *weights = Arc::new(plan.apply_edge_data(side.graph, weights));
        }
    }
    specs
}

/// How much of two outcomes must agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strength {
    /// Outputs, iteration counts and pass counts, run for run; traffic
    /// and timing may differ.
    Results,
    /// `Results` plus every statistic — per run, per device, and the
    /// exchange traffic — except the fields speculation is *allowed* to
    /// move: the clock, the bandwidth average and the barrier waits
    /// derived from it, and the prefetcher's own counters.
    Semantic,
    /// `Results` plus every statistic, the simulated clock included.
    Full,
}

impl Strength {
    /// `stats` with the fields this strength does not compare zeroed.
    fn view(self, stats: &RunStats) -> RunStats {
        let mut s = stats.clone();
        if self == Strength::Semantic {
            s.elapsed_ns = 0;
            s.barrier_wait_ns = 0;
            s.prefetch = Default::default();
        }
        s
    }
}

/// The one comparator. Two sides that ran under different layouts admit
/// the one exception to `Results`: CC's labels are vertex ids, so its
/// outputs are compared through [`LayoutPlan::unmap_components`]'s
/// canonical mapping (inside [`Outcome::words`]) and its launch and
/// hook-pass counts, which depend on the ids it starts from, are not
/// compared (within one layout they are, in every shape: a relabeled
/// variant meets its own solo run in [`assert_equivalent`]). A later
/// conservation-law check over `got` lands here and nowhere else.
pub fn compare(want: &Outcome, got: &Outcome, strength: Strength, tag: &str) {
    assert_eq!(got.runs.len(), want.runs.len(), "{tag}: run count");
    for (i, (g, w)) in got.runs.iter().zip(&want.runs).enumerate() {
        let (kind, program) = (w.kind(), w.kind().name());
        assert_eq!(g.kind(), kind, "{tag}: program order");
        assert_eq!(got.words(i), want.words(i), "{tag}: {program} output");
        if kind != ProgramKind::Cc || got.layout == want.layout {
            let (gi, wi) = (g.stats().kernel_launches, w.stats().kernel_launches);
            assert_eq!(gi, wi, "{tag}: {program} iterations");
            assert_eq!(g.passes(), w.passes(), "{tag}: {program} passes");
        }
        if strength != Strength::Results {
            let (gs, ws) = (strength.view(g.stats()), strength.view(w.stats()));
            assert_eq!(gs, ws, "{tag}: {program} stats ({strength:?})");
        }
    }
    if strength != Strength::Results {
        let views = |o: &Outcome| Vec::from_iter(o.devices.iter().map(|s| strength.view(s)));
        assert_eq!(views(got), views(want), "{tag}: device lifetime counters");
        assert_eq!(got.exchange, want.exchange, "{tag}: exchange traffic");
    }
}

/// The theorem: in every one of `shapes`, on fresh placements, `variant`
/// agrees with `reference` at `strength` (which run is held to which is
/// in the module header). Returns what the two sides left behind,
/// `(reference, variant)` per shape, for a witness to inspect.
pub fn assert_equivalent(
    reference: &Side,
    variant: &Side,
    shapes: &[Shape],
    strength: Strength,
    tag: &str,
) -> Vec<(Outcome, Outcome)> {
    let solo = Shape::Solo.run(reference);
    let relabeled = variant.layout != reference.layout;
    let own_solo = relabeled.then(|| Shape::Solo.run(variant));
    let check = |&shape: &Shape| {
        let (got, tag) = (shape.run(variant), format!("{tag}/{shape:?}"));
        if let Some(own_solo) = &own_solo {
            compare(
                own_solo,
                &got,
                Strength::Results,
                &format!("{tag} own layout"),
            );
        }
        let want = if strength == Strength::Results || shape.is_solo() {
            solo.clone()
        } else {
            compare(&solo, &got, Strength::Results, &format!("{tag} vs solo"));
            shape.run(reference)
        };
        compare(&want, &got, strength, &tag);
        (want, got)
    };
    shapes.iter().map(check).collect()
}

/// The CPU oracle: the output words of `specs` by `algo::*` on `graph`,
/// in the engines' encoding (unreachable = [`INF`]).
pub fn reference_answers(graph: &CsrGraph, specs: &[ProgramSpec]) -> Vec<Vec<u64>> {
    let wide = |v: Vec<u32>| v.into_iter().map(u64::from).collect();
    let words = |spec: &ProgramSpec| match spec {
        ProgramSpec::Bfs { src } => wide(algo::bfs_levels(graph, *src)),
        ProgramSpec::Sssp { src, weights } => {
            let dist = algo::sssp_distances(graph, weights, *src);
            dist.into_iter().map(|d| d.min(u64::from(INF))).collect()
        }
        ProgramSpec::Cc => wide(algo::cc_labels(graph)),
        ProgramSpec::PageRank {
            damping,
            iterations,
        } => {
            let ranks = algo::pagerank(graph, *damping, *iterations);
            ranks.into_iter().map(f64::to_bits).collect()
        }
    };
    specs.iter().map(words).collect()
}

/// `got`'s outputs equal the oracle's, bit for bit — PageRank's too: the
/// engine folds each vertex's addends in the canonical order
/// `algo::pagerank` uses — and a full sweep's launch count is its pass
/// count (one launch per CC hook pass, per PageRank power iteration).
pub fn assert_outputs_match(got: &Outcome, want: &[Vec<u64>], tag: &str) {
    assert_eq!(got.runs.len(), want.len(), "{tag}: run count");
    for (i, (run, w)) in got.runs.iter().zip(want).enumerate() {
        let kind = run.kind();
        assert_eq!(&got.words(i), w, "{tag}: {kind:?} vs CPU reference");
        if let Some(passes) = run.passes() {
            let launches = run.stats().kernel_launches;
            assert_eq!(launches, passes, "{tag}: {kind:?} launches vs passes");
        }
    }
}
