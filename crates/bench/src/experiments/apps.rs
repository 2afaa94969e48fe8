//! Figures 11 and 12: beyond BFS (SSSP, CC) and PCIe 4.0 scaling.

use super::matrix::EngineKind;
use crate::cell::{self, Series};
use crate::table::f;
use crate::{paper, Context, Table};
use emogi_core::{Engine, EngineConfig, ProgramKind};
use emogi_graph::reorder::LayoutPlan;
use emogi_graph::{Dataset, DatasetKey};
use emogi_runtime::MachineConfig;

/// The paper's applications, in its figures' order.
const APPS: [ProgramKind; 3] = [ProgramKind::Sssp, ProgramKind::Bfs, ProgramKind::Cc];

/// The graphs the paper evaluates `app` on (§5.4: CC skips the directed
/// SK/UK5).
fn graphs(app: ProgramKind) -> Vec<DatasetKey> {
    match app {
        ProgramKind::Cc => DatasetKey::undirected().to_vec(),
        _ => DatasetKey::all().to_vec(),
    }
}

/// Average elapsed ns of `app` on `d` under `cfg` over `n` sources. The
/// graph is placed once, relabeled by `plan` if one is given; every
/// source reuses the placement.
pub fn run_app(
    cfg: EngineConfig,
    d: &Dataset,
    app: ProgramKind,
    n: usize,
    plan: Option<&LayoutPlan>,
) -> f64 {
    let relabeled = plan.map(|p| p.apply(&d.graph));
    let mut engine = Engine::load(cfg, relabeled.as_ref().unwrap_or(&d.graph));
    let sources = d.sources(n);
    let (series, runs) = match app {
        ProgramKind::Bfs => (Series::MultiBfs(&sources), sources.len()),
        ProgramKind::Sssp => (Series::MultiSssp(&sources), sources.len()),
        ProgramKind::Cc => (Series::Cc, 1),
        ProgramKind::PageRank => (Series::PageRank, 1),
    };
    let total = cell::run(&mut engine, series, d, plan).stats.elapsed_ns;
    total as f64 / runs as f64
}

/// Figure 11: EMOGI vs UVM across SSSP / BFS / CC. The BFS rows come
/// from the context's case-study matrix.
pub fn fig11(ctx: &Context) -> Table {
    let mut t = Table::new(
        "fig11",
        "EMOGI speedup over UVM across applications",
        &["app", "graph", "UVM (ms)", "EMOGI (ms)", "speedup"],
    );
    let mut total = 0.0;
    let mut count = 0usize;
    for app in APPS {
        for g in graphs(app) {
            let d = ctx.store.get(g);
            let (uvm_ns, emogi_ns) = match app {
                ProgramKind::Bfs => {
                    let m = ctx.bfs_matrix();
                    (
                        m.get(g, EngineKind::Uvm).avg_ns,
                        m.get(g, EngineKind::MergedAligned).avg_ns,
                    )
                }
                _ => {
                    eprintln!("  [fig11] {} / {} ...", app.name(), d.spec.symbol);
                    (
                        run_app(EngineConfig::uvm_v100(), &d, app, ctx.sources, None),
                        run_app(EngineConfig::emogi_v100(), &d, app, ctx.sources, None),
                    )
                }
            };
            let speedup = uvm_ns / emogi_ns;
            total += speedup;
            count += 1;
            t.row(vec![
                app.name().into(),
                g.spec().symbol.into(),
                f(uvm_ns / 1e6),
                f(emogi_ns / 1e6),
                f(speedup),
            ]);
        }
    }
    t.row(vec![
        "Avg".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        f(total / count as f64),
    ]);
    t.note(format!("paper: EMOGI is {}x faster than UVM on average; CC gains least because streaming the whole edge list gives UVM spatial locality too", paper::FIG11_AVG));
    t
}

/// Figure 12: PCIe 3.0 vs 4.0 on the A100 platform, UVM vs EMOGI,
/// normalized to UVM+PCIe3.0 per (app, graph); also the (UVM, EMOGI)
/// gen3→gen4 speedups averaged over the rows.
pub fn fig12(ctx: &Context) -> (Table, f64, f64) {
    let mut t = Table::new(
        "fig12",
        "PCIe 3.0 vs 4.0 scaling on A100 (normalized to UVM+3.0)",
        &[
            "app",
            "graph",
            "UVM 3.0",
            "EMOGI 3.0",
            "UVM 4.0",
            "EMOGI 4.0",
        ],
    );
    let mut uvm_scale = 0.0;
    let mut emogi_scale = 0.0;
    let mut count = 0usize;
    for app in APPS {
        for g in graphs(app) {
            let d = ctx.store.get(g);
            eprintln!("  [fig12] {} / {} ...", app.name(), d.spec.symbol);
            let run = |machine: MachineConfig, uvm: bool| {
                let cfg = if uvm {
                    EngineConfig::uvm_v100().with_machine(machine)
                } else {
                    EngineConfig::emogi_v100().with_machine(machine)
                };
                run_app(cfg, &d, app, ctx.sources, None)
            };
            let u3 = run(MachineConfig::a100_gen3(), true);
            let e3 = run(MachineConfig::a100_gen3(), false);
            let u4 = run(MachineConfig::a100_gen4(), true);
            let e4 = run(MachineConfig::a100_gen4(), false);
            uvm_scale += u3 / u4;
            emogi_scale += e3 / e4;
            count += 1;
            t.row(vec![
                app.name().into(),
                g.spec().symbol.into(),
                f(1.0),
                f(u3 / e3),
                f(u3 / u4),
                f(u3 / e4),
            ]);
        }
    }
    let n = count as f64;
    let (u, e) = (uvm_scale / n, emogi_scale / n);
    let (pu, pe) = paper::FIG12_GEN4;
    t.note(format!(
        "measured gen3→gen4 scaling: UVM {}x, EMOGI {}x (paper: UVM {pu}x — fault handler bound; EMOGI {pe}x — scales with the link)",
        f(u),
        f(e)
    ));
    (t, u, e)
}
