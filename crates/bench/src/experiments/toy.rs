//! Figures 3 and 4: the §3.3 zero-copy toy experiment.

use crate::table::{f, pct};
use crate::{paper, Context, Table};
use emogi_core::toy::{self, ToyPattern};
use emogi_runtime::MachineConfig;

/// Toy array size at standard scale (scaled with the datasets).
const ARRAY_BYTES: u64 = 16 << 20;

fn array_bytes(ctx: &Context) -> u64 {
    (ARRAY_BYTES / ctx.scale as u64).max(1 << 20)
}

/// Figure 3: PCIe request patterns per access arrangement.
pub fn fig3(ctx: &Context) -> Table {
    let mut t = Table::new(
        "fig3",
        "GPU PCIe memory request patterns (toy 1D traversal)",
        &["pattern", "requests", "32B", "64B", "96B", "128B"],
    );
    for p in ToyPattern::all() {
        let r = toy::run_zero_copy(MachineConfig::v100_gen3(), p, array_bytes(ctx));
        let h = &r.stats.request_sizes;
        t.row(vec![
            p.name().into(),
            r.stats.pcie_read_requests.to_string(),
            pct(h.fraction(32)),
            pct(h.fraction(64)),
            pct(h.fraction(96)),
            pct(h.fraction(128)),
        ]);
    }
    t.note("paper: strided -> per-lane 32B; merged+aligned -> single 128B; misaligned -> 96B + 32B per warp (Figure 3)");
    t
}

/// Figure 4: average PCIe and host-DRAM bandwidth per pattern, with the
/// UVM and cudaMemcpy references.
pub fn fig4(ctx: &Context) -> Table {
    let bytes = array_bytes(ctx);
    let mut t = Table::new(
        "fig4",
        "PCIe / DRAM bandwidth of zero-copy access patterns (GB/s)",
        &[
            "configuration",
            "PCIe GB/s",
            "DRAM GB/s",
            "paper PCIe",
            "paper DRAM",
        ],
    );
    for (p, ppcie, pdram) in paper::FIG4 {
        let r = toy::run_zero_copy(MachineConfig::v100_gen3(), p, bytes);
        t.row(vec![
            p.name().into(),
            f(r.pcie_gbps()),
            f(r.dram_gbps()),
            f(ppcie),
            f(pdram),
        ]);
    }
    let u = toy::run_uvm_reference(MachineConfig::v100_gen3(), bytes);
    t.row(vec![
        "UVM reference".into(),
        f(u.pcie_gbps()),
        f(u.dram_gbps()),
        format!("{}-{}", f(paper::FIG4_UVM.0), f(paper::FIG4_UVM.1)),
        "-".into(),
    ]);
    let m = toy::run_memcpy_reference(MachineConfig::v100_gen3(), bytes * 4);
    t.row(vec![
        "cudaMemcpy peak".into(),
        f(m),
        "-".into(),
        f(paper::MEMCPY_PEAK),
        "-".into(),
    ]);
    t
}
