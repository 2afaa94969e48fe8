//! `hybrid-tiered`: the only workload where the transfer manager, the
//! tiered ski-rental policy, the prefetcher, the copy engine, the CXL
//! link and the tier budgets do work, and where full-sweep programs and
//! `post_iteration` run. A transfer-policy or planner change must show
//! here — and must *not* show on `zc-aligned`.

use super::solo::Solo;
use super::{generate, generate_weights, get, Rep, Totals, Workload};
use crate::inputs::{self, Preset};
use crate::trace::Stopwatch;
use crate::verify::Verifier;
use emogi_repro::prelude::*;

/// BFS traversals on the one engine, in a row: the second and later ones
/// reuse what the first staged (cross-query reuse), and the prefetcher
/// only ever hits from the second on.
const BFS: usize = 2;
const PAGERANK_ITERATIONS: u32 = 1;
/// With 8-byte elements the prefetcher never hits on this shape; the
/// Subway-protocol element size is what makes speculation pay.
const ELEM_BYTES: u64 = 4;
/// The spill granule of `GraphLayout::place` (`SPILL_ALIGN`): the host
/// capacity is rounded down to it so the split lands on a region
/// boundary, exactly as the `tiering` experiment does.
const SPILL_ALIGN: u64 = 64 << 10;
const SOURCE_STREAM: u64 = 3;

pub struct HybridTiered {
    seed: u64,
    preset: Preset,
    verifier: Verifier,
}

impl HybridTiered {
    pub fn new(seed: u64, preset: Preset) -> Self {
        Self {
            seed,
            preset,
            verifier: Verifier::default(),
        }
    }
}

impl Workload for HybridTiered {
    fn repetition(&mut self, sw: &mut Stopwatch) -> Rep {
        let (seed, preset) = (self.seed, self.preset);
        let gk = generate(sw, "gk", || preset.gk(seed));
        let weights = generate_weights(sw, &gk, seed);
        let sources = inputs::sources(&gk, BFS + 1, seed, SOURCE_STREAM);

        // V100 + a CXL x8 expander, host DRAM capped at 60 % of the edge
        // list so the cold tail homes in the CXL tier.
        let edge_bytes = gk.edge_list_bytes(ELEM_BYTES);
        let host_cap = (edge_bytes * 3 / 5 / SPILL_ALIGN * SPILL_ALIGN).max(SPILL_ALIGN);
        let machine = MachineConfig::v100_gen3()
            .with_cxl(CxlConfig::external_x8())
            .with_host_capacity(host_cap);
        let cfg = EngineConfig::pipelined_v100()
            .with_machine(machine)
            .with_elem_bytes(ELEM_BYTES);

        let mut totals = Totals::default();
        let mut checked = Vec::new();
        let mut solo = Solo::load(
            sw,
            &mut totals,
            &mut self.verifier,
            &mut checked,
            cfg,
            &gk,
            "gk",
        );
        for &src in &sources[..BFS] {
            solo.bfs(src);
        }
        solo.sssp(&weights, sources[BFS]);
        solo.cc();
        solo.pagerank(0.85, PAGERANK_ITERATIONS);
        solo.finish();

        let sim = totals.metrics();
        let mechanism = vec![
            (
                "staged_regions > 0",
                get(&sim, "runtime.transfer.staged_regions") > 0.0,
            ),
            ("cxl_bytes > 0", get(&sim, "sim.cxl.bytes") > 0.0),
            (
                "prefetch.hit_regions > 0",
                get(&sim, "runtime.prefetch.hit_regions") > 0.0,
            ),
        ];
        Rep::of_verified(sim, checked, mechanism, gk.num_edges() as u64)
    }
}
