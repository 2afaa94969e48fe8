//! Table 3: comparison with HALO (Titan Xp) and Subway (V100, 4-byte
//! elements), row-for-row with the paper.

use crate::table::{f, ms};
use crate::{paper, Context, Table};
use emogi_baselines::{HaloSystem, SubwayMode, SubwaySystem};
use emogi_core::EngineConfig;
use emogi_core::ProgramKind::{Bfs, Cc, Sssp};
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
        let (their_ns, emogi_ns) = if work == "HALO" {
            // HALO rows run on the Titan Xp with 8-byte elements; both
            // sides re-measured on that GPU (§5.6).
            let halo = HaloSystem::new(
                EngineConfig::uvm_v100().with_machine(MachineConfig::titan_xp_gen3()),
                &d.graph,
            );
            let sources = d.sources(ctx.sources);
            let ht: u64 = sources.iter().map(|&s| halo.bfs(s).stats.elapsed_ns).sum();
            let cfg = EngineConfig::emogi_v100().with_machine(MachineConfig::titan_xp_gen3());
            let et = super::apps::run_app(cfg, &d, app, ctx.sources);
            (ht as f64 / sources.len() as f64, et)
        } else {
            // Subway rows: V100 with 4-byte elements on both sides.
            let weights = (app == Sssp).then_some(d.weights.as_slice());
            let mut sub = SubwaySystem::new(
                MachineConfig::v100_gen3(),
                &d.graph,
                weights,
                SubwayMode::Async,
            );
            let st = match app {
                Cc => sub.cc().stats.elapsed_ns as f64,
                _ => {
                    let sources = d.sources(ctx.sources);
                    let total: u64 = sources
                        .iter()
                        .map(|&s| match app {
                            Bfs => sub.bfs(s).stats.elapsed_ns,
                            _ => sub.sssp(s).stats.elapsed_ns,
                        })
                        .sum();
                    total as f64 / sources.len() as f64
                }
            };
            let cfg = EngineConfig::emogi_v100().with_elem_bytes(4);
            let et = super::apps::run_app(cfg, &d, app, ctx.sources);
            (st, et)
        };
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
