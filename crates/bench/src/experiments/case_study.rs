//! Figures 5, 7, 8, 9, 10 — the §5.3 BFS case study, all derived from the
//! shared [`BfsMatrix`].

use super::matrix::{BfsMatrix, EngineKind};
use crate::table::{f, ms, pct};
use crate::{paper, Context, Table};
use emogi_core::toy;
use emogi_graph::DatasetKey;
use emogi_runtime::MachineConfig;

/// Figure 5: distribution of PCIe read request sizes in BFS.
pub fn fig5(m: &BfsMatrix) -> Table {
    let mut t = Table::new(
        "fig5",
        "PCIe read request size distribution in BFS",
        &["graph", "impl", "32B", "64B", "96B", "128B"],
    );
    for g in DatasetKey::all() {
        for e in EngineKind::zero_copy() {
            let h = &m.get(g, e).sizes;
            t.row(vec![
                g.spec().symbol.into(),
                e.name().into(),
                pct(h.fraction(32)),
                pct(h.fraction(64)),
                pct(h.fraction(96)),
                pct(h.fraction(128)),
            ]);
        }
    }
    let (avg, ml) = paper::FIG5_MERGED_128B;
    t.note(format!("paper: Naive is ~all 32B; Merged reaches ~{avg}% 128B on average ({ml}% on ML); +Aligned raises the 128B share further except on GU (uniform low degrees cannot amortize the alignment fix)"));
    t
}

/// Figure 7: total number of PCIe read requests in BFS.
pub fn fig7(m: &BfsMatrix) -> Table {
    let mut t = Table::new(
        "fig7",
        "Total PCIe read requests in BFS (all sources)",
        &[
            "graph",
            "Naive",
            "Merged",
            "Merged+Aligned",
            "merge cut",
            "align cut",
        ],
    );
    for g in DatasetKey::all() {
        let n = m.get(g, EngineKind::Naive).requests;
        let mg = m.get(g, EngineKind::Merged).requests;
        let al = m.get(g, EngineKind::MergedAligned).requests;
        t.row(vec![
            g.spec().symbol.into(),
            n.to_string(),
            mg.to_string(),
            al.to_string(),
            pct(1.0 - mg as f64 / n as f64),
            pct(1.0 - al as f64 / mg as f64),
        ]);
    }
    let (merge, align) = paper::FIG7_CUTS;
    t.note(format!("paper: merging cuts requests by up to {merge}% vs Naive; alignment by up to a further {align}% (ML)"));
    t
}

/// Figure 8: average PCIe bandwidth during BFS.
pub fn fig8(ctx: &Context, m: &BfsMatrix) -> Table {
    let mut t = Table::new(
        "fig8",
        "Average PCIe bandwidth during BFS (GB/s)",
        &["graph", "UVM", "Naive", "Merged", "Merged+Aligned"],
    );
    for g in DatasetKey::all() {
        t.row(vec![
            g.spec().symbol.into(),
            f(m.get(g, EngineKind::Uvm).avg_pcie_gbps),
            f(m.get(g, EngineKind::Naive).avg_pcie_gbps),
            f(m.get(g, EngineKind::Merged).avg_pcie_gbps),
            f(m.get(g, EngineKind::MergedAligned).avg_pcie_gbps),
        ]);
    }
    let peak = toy::run_memcpy_reference(MachineConfig::v100_gen3(), (64 << 20) / ctx.scale as u64);
    t.note(format!(
        "cudaMemcpy peak on this link: {} GB/s (paper: {})",
        f(peak),
        paper::MEMCPY_PEAK
    ));
    let ([uvm, naive, merged], (lo, hi)) = (paper::FIG8, paper::FIG8_ALIGN_GAIN);
    t.note(format!("paper: UVM ~{uvm}, Naive up to {naive}, Merged ~{merged}, +Aligned adds {lo}-{hi} GB/s; averages at 1/1000 scale sit lower because short kernel launches leave latency-bound phases unamortized"));
    t
}

/// Figure 9: BFS performance normalized to the UVM baseline.
pub fn fig9(m: &BfsMatrix) -> Table {
    let mut t = Table::new(
        "fig9",
        "BFS speedup over UVM baseline",
        &[
            "graph",
            "Naive",
            "Merged",
            "Merged+Aligned",
            "time UVM (ms)",
            "time M+A (ms)",
        ],
    );
    let mut avg = [0.0f64; 3];
    for g in DatasetKey::all() {
        let s: Vec<f64> = EngineKind::zero_copy()
            .iter()
            .map(|&e| m.speedup_vs_uvm(g, e))
            .collect();
        for (a, v) in avg.iter_mut().zip(&s) {
            *a += v;
        }
        t.row(vec![
            g.spec().symbol.into(),
            f(s[0]),
            f(s[1]),
            f(s[2]),
            ms(m.get(g, EngineKind::Uvm).avg_ns as u64),
            ms(m.get(g, EngineKind::MergedAligned).avg_ns as u64),
        ]);
    }
    let n = DatasetKey::all().len() as f64;
    t.row(vec![
        "Avg".into(),
        f(avg[0] / n),
        f(avg[1] / n),
        f(avg[2] / n),
        "-".into(),
        "-".into(),
    ]);
    let [naive, merged, aligned] = paper::FIG9_AVG;
    t.note(format!("paper averages: Naive {naive}x, Merged {merged}x, Merged+Aligned {aligned}x; SK stands out low because it almost fits in GPU memory"));
    t
}

/// Figure 10: I/O read amplification, UVM vs EMOGI.
pub fn fig10(m: &BfsMatrix) -> Table {
    let mut t = Table::new(
        "fig10",
        "I/O read amplification in BFS (host bytes moved / dataset size)",
        &["graph", "UVM", "EMOGI (Merged+Aligned)"],
    );
    for g in DatasetKey::all() {
        t.row(vec![
            g.spec().symbol.into(),
            f(m.get(g, EngineKind::Uvm).avg_amplification),
            f(m.get(g, EngineKind::MergedAligned).avg_amplification),
        ]);
    }
    let [(_, fs), (_, ml), (_, sk)] = paper::FIG10_UVM;
    let emogi = paper::FIG10_EMOGI_MAX;
    t.note(format!("paper: UVM up to {fs}x (FS), {ml}x on ML, {sk}x on SK (almost fits); EMOGI never exceeds {emogi}x. Scaled graphs have shallower BFS trees, so UVM re-migration (and thus its amplification) is milder here — the UVM baseline is, if anything, flattered"));
    t
}
