//! `zc-aligned`: the paper's core path — Merged+Aligned zero-copy — on
//! both degree shapes. The coalescer + L2, the PCIe tag/queue path, host
//! DRAM and the executor do nearly all the work; the transfer manager,
//! UVM driver, server and device group do none.

use super::solo::Solo;
use super::{generate, generate_weights, get, Rep, Totals, Workload};
use crate::inputs::{self, Preset};
use crate::trace::Stopwatch;
use crate::verify::Verifier;
use emogi_repro::prelude::*;

/// BFS sources on the GK shape; one more source is drawn for the SSSP.
/// With the GU run that makes five queries, so the nearest-rank p80 of
/// their latencies is the slowest BFS, not the one SSSP, whose time
/// swings ±8 % with the drawn weights.
pub const GK_BFS: usize = 3;
/// BFS sources on the GU shape.
pub const GU_BFS: usize = 1;
/// Source streams, shared with `uvm-baseline` so that it replays the
/// first sources of this workload.
pub const GK_STREAM: u64 = 1;
pub const GU_STREAM: u64 = 2;

pub struct ZcAligned {
    seed: u64,
    preset: Preset,
    verifier: Verifier,
}

impl ZcAligned {
    pub fn new(seed: u64, preset: Preset) -> Self {
        Self {
            seed,
            preset,
            verifier: Verifier::default(),
        }
    }
}

impl Workload for ZcAligned {
    fn repetition(&mut self, sw: &mut Stopwatch) -> Rep {
        let (seed, preset) = (self.seed, self.preset);
        let gk = generate(sw, "gk", || preset.gk(seed));
        let gu = generate(sw, "gu", || preset.gu(seed));
        let weights = generate_weights(sw, &gk, seed);
        let gk_sources = inputs::sources(&gk, GK_BFS + 1, seed, GK_STREAM);
        let gu_sources = inputs::sources(&gu, GU_BFS, seed, GU_STREAM);

        let mut totals = Totals::default();
        let mut checked = Vec::new();
        let cfg = EngineConfig::emogi_v100();
        let mut solo = Solo::load(
            sw,
            &mut totals,
            &mut self.verifier,
            &mut checked,
            cfg.clone(),
            &gk,
            "gk",
        );
        for &src in &gk_sources[..GK_BFS] {
            solo.bfs(src);
        }
        solo.sssp(&weights, gk_sources[GK_BFS]);
        solo.finish();
        let mut solo = Solo::load(
            sw,
            &mut totals,
            &mut self.verifier,
            &mut checked,
            cfg,
            &gu,
            "gu",
        );
        for &src in &gu_sources {
            solo.bfs(src);
        }
        solo.finish();

        let sim = totals.metrics();
        let mechanism = vec![
            (
                "page_faults == 0",
                get(&sim, "uvm.driver.page_faults") == 0.0,
            ),
            (
                "staged_regions == 0",
                get(&sim, "runtime.transfer.staged_regions") == 0.0,
            ),
            (
                "pcie_read_requests > 0",
                get(&sim, "sim.pcie.read_requests") > 0.0,
            ),
        ];
        Rep::of_verified(
            sim,
            checked,
            mechanism,
            (gk.num_edges() + gu.num_edges()) as u64,
        )
    }
}
