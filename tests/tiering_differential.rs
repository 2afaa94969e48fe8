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

use common::{answers, assert_same_results, build_graph, four_programs};
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
        let specs = four_programs(src, &generate_weights(g.num_edges(), weight_seed), 7);
        let mode = AccessMode::all()[mode_idx];
        let tag = format!("{mode:?}");

        let base = answers(&mut Engine::load(base_cfg(mode), &g), &specs);
        let idle = answers(&mut Engine::load(cxl_attached(base_cfg(mode)), &g), &specs);
        let spill = answers(&mut Engine::load(spilled(base_cfg(mode)), &g), &specs);

        prop_assert_eq!(&idle, &base, "{} idle-cxl outputs and stats (clock included)", &tag);
        for b in &idle {
            prop_assert_eq!(b.stats.cxl_read_requests, 0, "{} idle tier served reads", &tag);
            prop_assert_eq!(b.stats.cxl_bytes, 0, "{} idle tier served bytes", &tag);
        }
        assert_same_results(&spill, &base, &format!("{tag} spill"));
        // The first program runs on cold engines: whatever the base run
        // read over PCIe, the spill run must have served (or promoted)
        // from the CXL tier.
        let (a, s) = (&base[0].stats, &spill[0].stats);
        if a.pcie_read_requests > 0 {
            prop_assert!(
                s.cxl_read_requests + s.cxl_bytes > 0,
                "{} spill run never touched the CXL tier", &tag
            );
        }
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
        let specs = four_programs(src, &generate_weights(g.num_edges(), weight_seed), 5);
        let mode = AccessMode::all()[mode_idx];
        let want = answers(&mut Engine::load(base_cfg(mode), &g), &specs);

        for devices in DEVICE_COUNTS {
            let mut cfg = ShardedConfig::emogi_v100(devices);
            cfg.engine = spilled(cfg.engine.with_mode(mode));
            let got = answers(&mut ShardedEngine::load(cfg, &g), &specs);
            assert_same_results(&got, &want, &format!("{mode:?}/{devices}dev"));
        }
    }
}
