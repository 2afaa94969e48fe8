//! The `tiering` experiment: a bigger-than-host-DRAM graph served from
//! the three-tier memory hierarchy (HBM staging pool / pinned host DRAM
//! / CXL-class external memory) against the naive host-spill baseline.
//!
//! Host capacity is capped at ~60% of GK's edge list (aligned to the
//! spill granule), so the cold tail of the edge list homes in the CXL
//! tier. Repeated BFS traversals — the place-once, query-many pattern —
//! then compare:
//!
//! * **host-spill** — pure Merged+Aligned zero-copy: host-homed edges
//!   read over PCIe, spilled edges read in place over the µs-latency
//!   CXL link on *every* traversal;
//! * **three-tier** — the hybrid engine's N-tier ski-rental policy:
//!   recurring spilled regions are bulk-promoted into the HBM pool over
//!   the CXL link once and re-read at HBM speed, host-homed regions
//!   stage or rent per the two-tier policy;
//! * **two-tier (unbounded host)** — reference: the same traversals with
//!   host DRAM big enough to hold everything, i.e. what losing host
//!   capacity costs in the first place.
//!
//! Every engine's BFS levels are folded into the cell runner's FNV-1a
//! digest and the digests are asserted equal in-run: tier placement may
//! move bytes, never results.

use super::scaled_machine;
use crate::cell::{self, Folded, Series};
use crate::table::{f, ms};
use crate::{Context, Results, Table};
use emogi_core::layout::SPILL_ALIGN;
use emogi_core::{Engine, EngineConfig};
use emogi_graph::DatasetKey;
use emogi_sim::CxlConfig;

/// Sources per engine: the scenario is about cross-traversal reuse of
/// promoted regions, so it is fixed rather than taken from the context.
const SOURCES: usize = 4;

/// All measurements of one experiment run.
#[derive(Debug, Clone)]
pub struct Tiering {
    /// Bytes of the edge list homed in pinned host DRAM.
    pub host_home_bytes: u64,
    /// Bytes of the edge list spilled to the CXL tier.
    pub cxl_home_bytes: u64,
    /// Each engine's traversal series, folded: `host_bytes` is the
    /// zero-copy + DMA payload over the PCIe lane, `cxl_bytes` the
    /// demand reads + bulk promotions the CXL tier served.
    pub engines: Results<&'static str, Folded>,
}

/// Run every engine over the same traversal series and check the
/// digests agree.
pub fn measure(ctx: &Context) -> Tiering {
    let gk = ctx.store.get(DatasetKey::Gk);
    let sources = gk.sources(SOURCES);
    let edge_bytes = gk.graph.num_edges() as u64 * 8;

    // Cap host DRAM at ~60% of the edge list, aligned to the spill
    // granule, so a real tail lands in the CXL tier.
    let host_cap = (edge_bytes * 3 / 5 / SPILL_ALIGN * SPILL_ALIGN).max(SPILL_ALIGN);
    assert!(
        host_cap < edge_bytes,
        "GK at scale {} fits in the capped host DRAM; nothing would spill",
        ctx.scale
    );
    let spilled = scaled_machine(ctx.scale)
        .with_cxl(CxlConfig::external_x8())
        .with_host_capacity(host_cap);

    eprintln!(
        "  [tiering] GK, {:.1} MiB edges, host cap {:.1} MiB, {} sources ...",
        edge_bytes as f64 / (1 << 20) as f64,
        host_cap as f64 / (1 << 20) as f64,
        sources.len()
    );

    let rows: Vec<(&'static str, Folded)> = [
        ("host-spill", EngineConfig::emogi_v100(), spilled.clone()),
        ("three-tier", EngineConfig::hybrid_v100(), spilled),
        (
            "two-tier (unbounded)",
            EngineConfig::emogi_v100(),
            scaled_machine(ctx.scale),
        ),
    ]
    .into_iter()
    .map(|(engine, preset, machine)| {
        let mut e = Engine::load(preset.with_machine(machine), &gk.graph);
        (
            engine,
            cell::run(&mut e, Series::MultiBfs(&sources), &gk, None),
        )
    })
    .collect();

    for (engine, m) in &rows {
        assert_eq!(
            m.digest, rows[0].1.digest,
            "{engine} produced different BFS levels than the baseline"
        );
    }

    Tiering {
        host_home_bytes: host_cap.min(edge_bytes),
        cxl_home_bytes: edge_bytes - host_cap.min(edge_bytes),
        engines: Results { rows },
    }
}

/// The printable table.
pub fn table(r: &Tiering) -> Table {
    let mut t = Table::new(
        "tiering",
        "Three-tier memory (HBM / host / CXL) vs naive host-spill, GK multi-BFS",
        &[
            "engine",
            "time (ms)",
            "speedup vs host-spill",
            "PCIe MiB",
            "CXL MiB",
            "staged regions",
            "output digest",
        ],
    );
    let base_ns = r.engines.get("host-spill").stats.elapsed_ns;
    let mib = |b: u64| f(b as f64 / (1 << 20) as f64);
    for (engine, m) in &r.engines.rows {
        t.row(vec![
            (*engine).into(),
            ms(m.stats.elapsed_ns),
            f(base_ns as f64 / m.stats.elapsed_ns as f64),
            mib(m.stats.host_bytes),
            mib(m.stats.cxl_bytes),
            m.stats.transfer.staged_regions.to_string(),
            format!("{:016x}", m.digest),
        ]);
    }
    t.note(format!(
        "edge list homes: {:.1} MiB pinned host + {:.1} MiB CXL; the three-tier \
         engine bulk-promotes recurring spilled regions into the HBM pool over \
         the CXL link, the host-spill baseline re-reads them over the µs-latency \
         link every traversal; digests are asserted equal in-run",
        r.host_home_bytes as f64 / (1 << 20) as f64,
        r.cxl_home_bytes as f64 / (1 << 20) as f64,
    ));
    t
}
