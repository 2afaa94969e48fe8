//! N-tier placement differential harness: on random graphs, the tiered
//! engine is checked against the plain two-tier engine for every shipped
//! program (BFS / SSSP / CC / PageRank), under **every** access mode,
//! through all three execution fronts — the solo [`Engine`], batched
//! [`run_batch`] execution, and the [`ShardedEngine`] at 1, 2 and 4
//! devices. Two claims are pinned:
//!
//! 1. **Attached-but-unused CXL is invisible.** A machine with a CXL
//!    tier attached but unbounded host DRAM never routes a byte to it,
//!    and every run statistic — *including the simulated clock* — is
//!    bit-identical to the two-tier machine's. The N-tier decision path
//!    is the only path now, so this is the refactor's no-regression
//!    proof.
//! 2. **Spilling preserves semantics.** With host capacity forced to
//!    zero, every edge byte homes in the CXL tier; outputs and
//!    iteration counts still match the two-tier run bit-for-bit (timing
//!    legitimately differs — the bytes move over a slower link).
//!
//! The proptest shim derives each test's seed from its name, so every
//! failure reproduces locally with a plain `cargo test --test
//! tiering_differential`; CI pins `EMOGI_PROPTEST_SEED` explicitly (see
//! `.github/workflows/ci.yml`) and the same variable reproduces that
//! exact run.

mod common;

use common::build_graph;
use emogi_repro::core::sharded::{ShardedConfig, ShardedEngine};
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use proptest::prelude::*;

/// The device counts the sharded front is checked at.
const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];

fn base_cfg(mode: AccessMode) -> EngineConfig {
    EngineConfig::emogi_v100().with_mode(mode)
}

/// A CXL tier attached but never needed: host DRAM stays unbounded.
fn cxl_attached(mut cfg: EngineConfig) -> EngineConfig {
    cfg.machine = cfg.machine.with_cxl(CxlConfig::external_x8());
    cfg
}

/// Host capacity forced to zero: the whole edge list homes in the CXL
/// tier.
fn spilled(cfg: EngineConfig) -> EngineConfig {
    let mut cfg = cxl_attached(cfg);
    cfg.machine = cfg.machine.with_host_capacity(0);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Solo engine, all four programs: an attached-but-unused CXL tier
    /// changes *nothing* (full stats equality, clock included, and zero
    /// CXL traffic); an all-CXL spill changes timing only (outputs and
    /// iteration counts bit-identical).
    #[test]
    fn solo_tiered_runs_match_the_two_tier_engine(
        edges in common::edges(72, 350),
        src in 0u32..72,
        mode_idx in 0usize..4,
        weight_seed in 0u64..1_000,
    ) {
        let g = build_graph(&edges, 72);
        let w = generate_weights(g.num_edges(), weight_seed);
        let mode = AccessMode::all()[mode_idx];
        let tag = format!("{mode:?}");

        let mut base = Engine::load(base_cfg(mode), &g);
        let mut idle = Engine::load(cxl_attached(base_cfg(mode)), &g);
        let mut spill = Engine::load(spilled(base_cfg(mode)), &g);

        let (a, b, s) = (base.bfs(src), idle.bfs(src), spill.bfs(src));
        prop_assert_eq!(&a.levels, &b.levels, "{} idle-cxl bfs levels", &tag);
        prop_assert_eq!(&a.stats, &b.stats, "{} idle-cxl bfs stats (clock included)", &tag);
        prop_assert_eq!(b.stats.cxl_read_requests, 0, "{} idle tier served reads", &tag);
        prop_assert_eq!(b.stats.cxl_bytes, 0, "{} idle tier served bytes", &tag);
        prop_assert_eq!(&a.levels, &s.levels, "{} spill bfs levels", &tag);
        prop_assert_eq!(
            a.stats.kernel_launches, s.stats.kernel_launches,
            "{} spill bfs iterations", &tag
        );
        if a.stats.pcie_read_requests > 0 {
            // The base run read edges over PCIe, so the spill run must
            // have served (or promoted) them from the CXL tier.
            prop_assert!(
                s.stats.cxl_read_requests + s.stats.cxl_bytes > 0,
                "{} spill run never touched the CXL tier", &tag
            );
        }

        let (a, b, s) = (base.sssp(&w, src), idle.sssp(&w, src), spill.sssp(&w, src));
        prop_assert_eq!(&a.dist, &b.dist, "{} idle-cxl sssp dist", &tag);
        prop_assert_eq!(&a.stats, &b.stats, "{} idle-cxl sssp stats", &tag);
        prop_assert_eq!(&a.dist, &s.dist, "{} spill sssp dist", &tag);
        prop_assert_eq!(
            a.stats.kernel_launches, s.stats.kernel_launches,
            "{} spill sssp iterations", &tag
        );

        let (a, b, s) = (base.cc(), idle.cc(), spill.cc());
        prop_assert_eq!(&a.comp, &b.comp, "{} idle-cxl cc labels", &tag);
        prop_assert_eq!(&a.stats, &b.stats, "{} idle-cxl cc stats", &tag);
        prop_assert_eq!(&a.comp, &s.comp, "{} spill cc labels", &tag);
        prop_assert_eq!(a.hook_passes, s.hook_passes, "{} spill cc passes", &tag);

        let (a, b, s) = (base.pagerank(0.85, 7), idle.pagerank(0.85, 7), spill.pagerank(0.85, 7));
        prop_assert_eq!(&a.ranks, &b.ranks, "{} idle-cxl pagerank ranks", &tag);
        prop_assert_eq!(&a.stats, &b.stats, "{} idle-cxl pagerank stats", &tag);
        prop_assert_eq!(&a.ranks, &s.ranks, "{} spill pagerank ranks", &tag);
    }

    /// Batched multi-query execution: per-query outputs and iteration
    /// counts survive spilling; an idle CXL tier leaves the batch stats
    /// bit-identical, clock included.
    #[test]
    fn batched_tiered_runs_match_the_two_tier_engine(
        edges in common::edges(64, 300),
        sources in common::sources(64, 5),
        mode_idx in 0usize..4,
    ) {
        let g = build_graph(&edges, 64);
        let mode = AccessMode::all()[mode_idx];
        let tag = format!("{mode:?}");
        let programs = |g: &CsrGraph| -> Vec<BfsProgram> {
            sources.iter().map(|&s| BfsProgram::new(g, s)).collect()
        };

        let mut base = Engine::load(base_cfg(mode), &g);
        let mut idle = Engine::load(cxl_attached(base_cfg(mode)), &g);
        let mut spill = Engine::load(spilled(base_cfg(mode)), &g);

        let a = base.run_batch(programs(&g));
        let b = idle.run_batch(programs(&g));
        let s = spill.run_batch(programs(&g));
        prop_assert_eq!(&a.stats, &b.stats, "{} idle-cxl batch stats", &tag);
        prop_assert_eq!(a.runs.len(), s.runs.len());
        for (q, (ra, rs)) in a.runs.iter().zip(&s.runs).enumerate() {
            prop_assert_eq!(
                &ra.levels, &rs.levels,
                "{} spill query {} levels", &tag, q
            );
            prop_assert_eq!(
                ra.stats.kernel_launches, rs.stats.kernel_launches,
                "{} spill query {} iterations", &tag, q
            );
        }
    }

    /// Sharded execution at 1, 2 and 4 devices with every device
    /// spilling its edge shard to CXL: outputs and iteration counts
    /// equal the two-tier solo engine's for all four programs.
    #[test]
    fn sharded_tiered_runs_match_the_two_tier_engine(
        edges in common::edges(64, 300),
        src in 0u32..64,
        mode_idx in 0usize..4,
        weight_seed in 0u64..1_000,
    ) {
        let g = build_graph(&edges, 64);
        let w = generate_weights(g.num_edges(), weight_seed);
        let mode = AccessMode::all()[mode_idx];

        let mut solo = Engine::load(base_cfg(mode), &g);
        let bfs = solo.bfs(src);
        let sssp = solo.sssp(&w, src);
        let cc = solo.cc();
        let pr = solo.pagerank(0.85, 5);

        for devices in DEVICE_COUNTS {
            let tag = format!("{mode:?}/{devices}dev");
            let mut cfg = ShardedConfig::emogi_v100(devices);
            cfg.engine = spilled(cfg.engine.with_mode(mode));
            let mut e = ShardedEngine::load(cfg, &g);

            let run = e.bfs(src);
            prop_assert_eq!(&run.levels, &bfs.levels, "{} bfs levels", &tag);
            prop_assert_eq!(
                run.iterations, bfs.stats.kernel_launches,
                "{} bfs iterations", &tag
            );
            let run = e.sssp(&w, src);
            prop_assert_eq!(&run.dist, &sssp.dist, "{} sssp dist", &tag);
            prop_assert_eq!(
                run.iterations, sssp.stats.kernel_launches,
                "{} sssp iterations", &tag
            );
            let run = e.cc();
            prop_assert_eq!(&run.comp, &cc.comp, "{} cc labels", &tag);
            prop_assert_eq!(run.hook_passes, cc.hook_passes, "{} cc passes", &tag);
            let run = e.pagerank(0.85, 5);
            prop_assert_eq!(&run.ranks, &pr.ranks, "{} pagerank ranks", &tag);
            prop_assert_eq!(
                run.iterations, pr.stats.kernel_launches,
                "{} pagerank iterations", &tag
            );
        }
    }
}
