//! PCIe microscope: watch the GPU's zero-copy requests like the paper's
//! FPGA did (§3.2–3.3, Figures 3 and 4).
//!
//! ```text
//! cargo run --release --example pcie_microscope
//! ```
//!
//! Runs the three toy access patterns over a 1D array in pinned host
//! memory and prints the request-size histogram, achieved PCIe/DRAM
//! bandwidths, outstanding-request statistics, and a bandwidth-over-time
//! sparkline per pattern.

use emogi_repro::core::toy::{self, ToyPattern};
use emogi_repro::prelude::MachineConfig;

fn sparkline(samples: &[(u64, f64)], peak: f64) -> String {
    const BARS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    samples
        .iter()
        .map(|&(_, v)| {
            let idx = ((v / peak) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

fn main() {
    let array = 8 << 20;
    println!(
        "traversing an {} MiB array in zero-copy host memory\n",
        array >> 20
    );
    for pattern in ToyPattern::all() {
        let r = toy::run_zero_copy(MachineConfig::v100_gen3(), pattern, array);
        let h = &r.stats.request_sizes;
        println!("== {} ==", r.label);
        println!(
            "  requests: {:>8}   sizes: 32B {:>5.1}%  64B {:>5.1}%  96B {:>5.1}%  128B {:>5.1}%",
            r.stats.pcie_read_requests,
            h.fraction(32) * 100.0,
            h.fraction(64) * 100.0,
            h.fraction(96) * 100.0,
            h.fraction(128) * 100.0,
        );
        println!(
            "  PCIe {:>6.2} GB/s   host DRAM {:>6.2} GB/s   (paper: {} )",
            r.pcie_gbps(),
            r.dram_gbps(),
            match pattern {
                ToyPattern::Strided => "4.74 / 9.40",
                ToyPattern::MergedAligned => "12.23 / 12.36",
                ToyPattern::MergedMisaligned => "9.61 / 14.26",
            }
        );
        println!();
    }

    let u = toy::run_uvm_reference(MachineConfig::v100_gen3(), array);
    println!("== UVM reference ==");
    println!(
        "  migrated {} pages ({} faults), {:.2} GB/s  (paper: 9.11-9.26 GB/s)",
        u.stats.pages_migrated,
        u.stats.page_faults,
        u.pcie_gbps()
    );
    let m = toy::run_memcpy_reference(MachineConfig::v100_gen3(), 64 << 20);
    println!("\n== cudaMemcpy peak ==\n  {m:.2} GB/s  (paper: 12.3 GB/s)");

    // Bandwidth-over-time view (Figure 4's VTune-style traces): rerun the
    // aligned pattern and dump its time series.
    let r = toy::run_zero_copy(MachineConfig::v100_gen3(), ToyPattern::MergedAligned, array);
    let samples: Vec<(u64, f64)> = r.series.clone();
    if !samples.is_empty() {
        let peak = samples.iter().map(|s| s.1).fold(0.0, f64::max);
        println!("\nbandwidth over time (merged+aligned, peak {peak:.1} GB/s):");
        println!("  {}", sparkline(&samples, peak));
    }
}
