//! Table 3: comparison with HALO (Titan Xp) and Subway (V100, 4-byte
//! elements), row-for-row with the paper.

use crate::table::{f, ms};
use crate::{Context, Table};
use emogi_baselines::{HaloSystem, SubwayMode, SubwaySystem};
use emogi_core::EngineConfig;
use emogi_core::ProgramKind::{self, Bfs, Cc, Sssp};
use emogi_graph::DatasetKey::{self, Fs, Gk, Ml, Sk, Uk5};
use emogi_runtime::MachineConfig;

/// Paper-reported (work, app, graph, their time s, EMOGI time s, speedup).
const PAPER_ROWS: &[(&str, ProgramKind, DatasetKey, f64, f64, f64)] = &[
    ("HALO", Bfs, Ml, 9.54, 4.43, 2.15),
    ("HALO", Bfs, Fs, 8.27, 2.59, 3.19),
    ("HALO", Bfs, Sk, 2.17, 1.62, 1.34),
    ("HALO", Bfs, Uk5, 6.03, 4.00, 1.51),
    ("Subway", Sssp, Gk, 20.96, 7.94, 2.64),
    ("Subway", Sssp, Fs, 14.95, 6.97, 2.14),
    ("Subway", Sssp, Sk, 8.99, 3.92, 2.30),
    ("Subway", Sssp, Uk5, 25.78, 8.08, 3.19),
    ("Subway", Bfs, Gk, 6.88, 1.66, 4.14),
    ("Subway", Bfs, Fs, 4.22, 1.49, 2.83),
    ("Subway", Bfs, Sk, 1.69, 0.85, 1.99),
    ("Subway", Bfs, Uk5, 8.75, 1.85, 4.73),
    ("Subway", Cc, Gk, 6.34, 3.11, 2.04),
    ("Subway", Cc, Fs, 4.31, 2.75, 1.57),
];

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
    for &(work, app, key, _pt, _pe, pspeed) in PAPER_ROWS {
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
    t.note("paper: EMOGI is 1.34x-4.73x faster than the state of the art; HALO compared via published numbers (source unavailable), Subway re-run. Subway cannot run GU (OOM) or ML (>2^32 edges), so those rows do not exist");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_rows_match_paper_layout_and_emogi_wins() {
        let ctx = Context::new(1, 32);
        let t = table3(&ctx);
        assert_eq!(t.rows.len(), PAPER_ROWS.len());
        for row in &t.rows {
            let speedup: f64 = row[5].parse().unwrap();
            assert!(
                speedup > 1.0,
                "EMOGI must beat {} on {} {} (got {speedup})",
                row[0],
                row[1],
                row[2]
            );
        }
    }
}
