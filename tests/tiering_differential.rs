//! N-tier placement differential harness. **Mechanism:** the CXL tier,
//! against the plain two-tier engine under the same configuration, for
//! all four programs, solo, batched and sharded (see `tests/common` for
//! the matrix). Two claims:
//!
//! 1. **Attached-but-unused CXL is invisible.** A machine with a CXL
//!    tier attached but unbounded host DRAM never routes a byte to it,
//!    and every statistic — *including the simulated clock* — is
//!    bit-identical to the two-tier machine's (`Strength::Full`). The
//!    N-tier decision path is the only path, so this is its
//!    no-regression proof.
//! 2. **Spilling preserves semantics.** With host capacity forced to
//!    zero, every edge byte homes in the CXL tier; outputs and
//!    iteration counts still match the two-tier run bit for bit
//!    (`Strength::Results` — timing legitimately differs, the bytes move
//!    over a slower link).
//!
//! **Generator:** random graphs under any named configuration (managed
//! memory never spills, so UVM cases check claim 1 twice). **Witness:**
//! `the_spilled_side_actually_reads_from_cxl`.
//!
//! Seeded mutation this file is known to catch: `GraphLayout::edge_addr`
//! ignoring `cxl_edge_base` fails the witness and the in-proptest "spill
//! run never touched the CXL tier" check — and nothing else here:
//! outputs are computed from the `CsrGraph`, not from addresses.
//!
//! The proptest shim derives each test's seed from its name, so every
//! failure reproduces locally with a plain `cargo test --test
//! tiering_differential`; CI pins `EMOGI_PROPTEST_SEED` explicitly (see
//! `.github/workflows/ci.yml`) and the same variable reproduces that
//! exact run.

mod common;

use common::*;
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use proptest::prelude::*;

/// `side` with a CXL tier attached but never needed (host DRAM stays
/// unbounded), or — `spill` — with host capacity forced to zero, so the
/// whole edge list homes in the CXL tier.
fn tiered<'a>(side: &Side<'a>, spill: bool) -> Side<'a> {
    let mut side = side.clone();
    let machine = side.cfg.machine.with_cxl(CxlConfig::external_x8());
    side.cfg.machine = if spill {
        machine.with_host_capacity(0)
    } else {
        machine
    };
    side
}

/// Both claims, in `shapes`; returns the solo-shaped `(two-tier, idle)`
/// and `(two-tier, spilled)` outcomes of the first shape.
fn assert_tiering_invariant(base: &Side, shapes: &[Shape], tag: &str) -> [(Outcome, Outcome); 2] {
    let (idle, spill) = (format!("{tag} idle-cxl"), format!("{tag} spill"));
    let idle = assert_equivalent(base, &tiered(base, false), shapes, Strength::Full, &idle);
    let spill = assert_equivalent(base, &tiered(base, true), shapes, Strength::Results, &spill);
    [idle, spill].map(|mut per_shape| per_shape.remove(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Solo engine, all four programs; the idle tier serves nothing and
    /// the spilled one serves what the base run read over PCIe.
    #[test]
    fn solo_tiered_runs_match_the_two_tier_engine(
        g in common::graph(72, 350),
        src in 0u32..72,
        (name, cfg) in common::any_config(),
        weight_seed in 0u64..1_000,
    ) {
        let specs = four_programs(src, &generate_weights(g.num_edges(), weight_seed), 7);
        let base = Side::new(cfg, &g, &specs);
        let [(two_tier, idle), (_, spill)] = assert_tiering_invariant(&base, &[Shape::Solo], name);
        let [two_tier, idle, spill] = [two_tier, idle, spill].map(|o| o.devices[0].clone());
        prop_assert_eq!(idle.cxl_read_requests + idle.cxl_bytes, 0, "{} idle tier served", name);
        let served = spill.cxl_read_requests + spill.cxl_bytes;
        prop_assert!(
            two_tier.pcie_read_requests == 0 || served > 0,
            "{} spill run never touched the CXL tier", name
        );
    }

    /// Batched multi-query execution, SSSP and BFS bursts.
    #[test]
    fn batched_tiered_runs_match_the_two_tier_engine(
        g in common::graph(64, 300),
        sources in common::sources(64, 5),
        (name, cfg) in common::any_config(),
    ) {
        let specs = traversals(&sources, &generate_weights(g.num_edges(), 11));
        assert_tiering_invariant(&Side::new(cfg, &g, &specs), &Shape::BATCHED, name);
    }

    /// Sharded execution at 1, 2 and 4 devices, every device spilling
    /// its edge shard (or leaving its CXL tier idle).
    #[test]
    fn sharded_tiered_runs_match_the_two_tier_engine(
        g in common::graph(64, 300),
        src in 0u32..64,
        (name, cfg) in common::any_config(),
        weight_seed in 0u64..1_000,
    ) {
        let specs = four_programs(src, &generate_weights(g.num_edges(), weight_seed), 5);
        assert_tiering_invariant(&Side::new(cfg, &g, &specs), &Shape::sharded(), name);
    }
}

/// The harness's own precondition, on a fixed scenario: with host
/// capacity zero the CXL tier really serves the edge list — demand reads
/// under zero-copy, promotions too under hybrid — and PCIe reads none of
/// it; an idle tier would satisfy every `Results` equality above.
#[test]
fn the_spilled_side_actually_reads_from_cxl() {
    let g = generators::kronecker(9, 16, 21);
    let specs = [ProgramSpec::Bfs { src: 3 }];
    for cfg in [EngineConfig::emogi_v100(), EngineConfig::hybrid_v100()] {
        let name = format!("{:?}", cfg.transport);
        let [_, (two_tier, spill)] =
            assert_tiering_invariant(&Side::new(cfg, &g, &specs), &[Shape::Solo], &name);
        let (a, s) = (&two_tier.devices[0], &spill.devices[0]);
        assert!(
            a.pcie_read_requests > 0 && a.cxl_bytes == 0,
            "{name}: two-tier reads over PCIe"
        );
        assert!(
            s.cxl_read_requests > 0,
            "{name}: the CXL tier served no demand read"
        );
        assert!(
            s.cxl_bytes >= g.num_edges() as u64 * 4,
            "{name}: {} CXL bytes",
            s.cxl_bytes
        );
        assert_eq!(
            s.pcie_read_requests, 0,
            "{name}: a spilled edge byte crossed PCIe"
        );
    }
}
