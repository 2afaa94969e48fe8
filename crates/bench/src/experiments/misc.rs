//! Tables 1 and 2 and Figure 6: platform configuration, datasets, and
//! degree CDFs.

use crate::table::{f, pct};
use crate::{Context, Table};
use emogi_gpu::GpuPreset;
use emogi_graph::{DatasetKey, DegreeCdf};
use emogi_sim::pcie::PcieGen;

/// Table 1: the simulated evaluation platform.
pub fn table1() -> Table {
    let mut t = Table::new(
        "table1",
        "Simulated evaluation platform (paper Table 1, scaled)",
        &["component", "simulated configuration"],
    );
    let v100 = GpuPreset::V100.config();
    let pcie = PcieGen::Gen3x16.config();
    t.row(vec!["GPU".into(), v100.name.into()]);
    t.row(vec![
        "GPU cache".into(),
        format!(
            "{} KiB, {}-way, 128 B lines / 32 B sectors",
            v100.cache.capacity_bytes >> 10,
            v100.cache.ways
        ),
    ]);
    t.row(vec![
        "Resident warps".into(),
        format!(
            "{} (x{} in-flight reads each)",
            v100.resident_warps, v100.max_pending_per_warp
        ),
    ]);
    t.row(vec![
        "Interconnect".into(),
        format!(
            "{} ({} tags, {} GB/s usable)",
            pcie.gen.name(),
            pcie.max_tags,
            f(pcie.usable_gbps())
        ),
    ]);
    t.row(vec![
        "Host memory".into(),
        "DDR4-2933 quad-channel, 64 B access granularity".into(),
    ]);
    t.row(vec![
        "UVM".into(),
        "4 KiB pages, 256-fault batches, density prefetch, block eviction".into(),
    ]);
    t.note("paper platform: dual Xeon Gold 6230, 256 GB DDR4-2933, Tesla V100 16 GB, PCIe 3.0; capacities here are scaled 1000x with the datasets");
    t
}

/// Table 2: the evaluation datasets (scaled stand-ins).
pub fn table2(ctx: &Context) -> Table {
    let mut t = Table::new(
        "table2",
        "Graph datasets (scaled stand-ins for paper Table 2)",
        &[
            "sym",
            "domain",
            "|V|",
            "|E|",
            "avg deg",
            "|E| MB",
            "|w| MB",
            "paper |E| GB",
            "dir",
        ],
    );
    for key in DatasetKey::all() {
        let d = ctx.store.get(key);
        t.row(vec![
            d.spec.symbol.into(),
            d.spec.domain.into(),
            d.graph.num_vertices().to_string(),
            d.graph.num_edges().to_string(),
            f(d.graph.average_degree()),
            f(d.graph.edge_list_bytes(8) as f64 / 1e6),
            f(d.graph.num_edges() as f64 * 4.0 / 1e6),
            f(d.spec.paper_edge_gb),
            if d.spec.undirected { "undir" } else { "dir" }.into(),
        ]);
    }
    t.note("GPU memory is scaled 16 GB -> 16 MiB alongside, so the out-of-memory ratios match the paper; SK remains the one graph that (almost) fits");
    t
}

/// Figure 6: number-of-edges CDF over vertex degree.
pub fn fig6(ctx: &Context) -> Table {
    let points = [8usize, 16, 32, 48, 64, 96];
    let headers: Vec<String> = std::iter::once("graph".to_string())
        .chain(points.iter().map(|p| format!("<= {p}")))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("fig6", "Edge-count CDF vs vertex degree", &hdr_refs);
    for key in DatasetKey::all() {
        let d = ctx.store.get(key);
        let cdf = DegreeCdf::new(&d.graph, 96);
        let mut row = vec![d.spec.symbol.to_string()];
        for &p in &points {
            row.push(pct(cdf.cdf_at(p)));
        }
        t.row(row);
    }
    t.note("paper: GU's edges all sit between degree 16 and 48; ML has nearly no edges below 96; GK is extremely skewed");
    t
}
