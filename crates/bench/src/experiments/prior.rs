//! Table 3: comparison with HALO (Titan Xp) and Subway (V100, 4-byte
//! elements), row-for-row with the paper.

use super::apps::run_app;
use crate::table::{f, ms};
use crate::{paper, Context, Table};
use emogi_core::EngineConfig;
use emogi_graph::reorder::LayoutPlan;
use emogi_runtime::MachineConfig;

/// Table 3, regenerated: same rows, our measured times and speedups next
/// to the paper's.
pub fn table3(ctx: &Context) -> Table {
    let mut t = Table::new(
        "table3",
        "Comparison with HALO (Titan Xp) and Subway (V100, 4-byte)",
        &[
            "work",
            "app",
            "graph",
            "theirs (ms)",
            "EMOGI (ms)",
            "speedup",
            "paper speedup",
        ],
    );
    for (work, app, key, pspeed) in paper::TABLE3 {
        let (app_name, sym) = (app.name(), key.spec().symbol);
        let d = ctx.store.get(key);
        eprintln!("  [table3] {work} {app_name} {sym} ...");
        // HALO rows run on the Titan Xp with 8-byte elements, both sides
        // re-measured on that GPU (§5.6); HALO is UVM over the BFS-ranked
        // relabeling, which is preprocessing and is not charged. Subway
        // rows run on the V100 with 4-byte elements on both sides, the
        // transport alone differing. Both sides place their graph once
        // and reuse the placement for every source.
        let (theirs, plan, emogi) = if work == "HALO" {
            let titan = MachineConfig::titan_xp_gen3();
            let emogi = EngineConfig::emogi_v100().with_machine(titan.clone());
            let uvm = EngineConfig::uvm_v100().with_machine(titan);
            (uvm, Some(LayoutPlan::bfs_ranked(&d.graph)), emogi)
        } else {
            let emogi = EngineConfig::emogi_v100().with_elem_bytes(4);
            (EngineConfig::subway_v100(), None, emogi)
        };
        let their_ns = run_app(theirs, &d, app, ctx.sources, plan.as_ref());
        let emogi_ns = run_app(emogi, &d, app, ctx.sources, None);
        t.row(vec![
            work.into(),
            app_name.into(),
            sym.into(),
            ms(their_ns as u64),
            ms(emogi_ns as u64),
            f(their_ns / emogi_ns),
            f(pspeed),
        ]);
    }
    let speedups = paper::TABLE3.map(|(.., s)| s);
    let lo = speedups.into_iter().fold(f64::INFINITY, f64::min);
    let hi = speedups.into_iter().fold(0.0, f64::max);
    t.note(format!("paper: EMOGI is {lo}x-{hi}x faster than the state of the art; HALO compared via published numbers (source unavailable), Subway re-run. Subway cannot run GU (OOM) or ML (>2^32 edges), so those rows do not exist"));
    t
}
