//! The §3.3 toy experiment: traverse a 1D array in zero-copy memory and
//! copy it to GPU global memory, under three access arrangements
//! (Figure 3), plus the UVM and `cudaMemcpy` references of Figure 4.
//!
//! 4-byte elements as in Figure 3: a warp window is exactly one 128-byte
//! line, so the misaligned variant produces the paper's 96 + 32 pattern.

use emogi_gpu::access::{AccessBatch, Space, WARP_SIZE};
use emogi_runtime::exec::run_kernel;
use emogi_runtime::report::RunStats;
use emogi_runtime::{Kernel, Machine, MachineConfig, StepOutcome};

const ELEM: u64 = 4;
/// Elements per 128-byte block.
const BLOCK_ELEMS: u64 = 128 / ELEM;

/// The three §3.3 access patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ToyPattern {
    /// Each thread iterates over its own 128-byte block (Figure 3a).
    Strided,
    /// Warp-contiguous, 128-byte aligned (Figure 3b).
    MergedAligned,
    /// Warp-contiguous, shifted 32 bytes off alignment (Figure 3c).
    MergedMisaligned,
}

impl ToyPattern {
    /// Every pattern, in Figure 3 order.
    pub fn all() -> [ToyPattern; 3] {
        [
            ToyPattern::Strided,
            ToyPattern::MergedAligned,
            ToyPattern::MergedMisaligned,
        ]
    }

    /// The Figure 3/4 label of this pattern.
    pub fn name(self) -> &'static str {
        match self {
            ToyPattern::Strided => "Strided",
            ToyPattern::MergedAligned => "Merged and Aligned",
            ToyPattern::MergedMisaligned => "Merged but Misaligned",
        }
    }
}

/// Copy kernel: read `array_bytes` from `src_space` and store to device.
struct ToyKernel {
    pattern: ToyPattern,
    src_base: u64,
    dst_base: u64,
    array_bytes: u64,
    src_space: Space,
    /// Work distribution cursor (bytes).
    cursor: u64,
    /// Work granularity per task, bytes.
    task_bytes: u64,
}

enum ToyTask {
    /// Strided: 32 lanes each own a block; `step` elements consumed.
    Strided { base: u64, step: u64 },
    /// Merged: warp sweeps `[cursor, end)` 128 bytes per step.
    Merged { cursor: u64, end: u64 },
}

impl Kernel for ToyKernel {
    type Task = ToyTask;

    fn next_task(&mut self) -> Option<ToyTask> {
        if self.cursor >= self.array_bytes {
            return None;
        }
        let base = self.cursor;
        let end = (base + self.task_bytes).min(self.array_bytes);
        self.cursor = end;
        Some(match self.pattern {
            ToyPattern::Strided => ToyTask::Strided { base, step: 0 },
            ToyPattern::MergedAligned | ToyPattern::MergedMisaligned => {
                ToyTask::Merged { cursor: base, end }
            }
        })
    }

    fn step(&mut self, task: &mut ToyTask, batch: &mut AccessBatch) -> StepOutcome {
        match task {
            ToyTask::Strided { base, step } => {
                // Lane i owns block i; element `step` of each block.
                for lane in 0..WARP_SIZE as u64 {
                    let addr = self.src_base + *base + lane * 128 + *step * ELEM;
                    if addr < self.src_base + self.array_bytes {
                        batch.load(addr, ELEM as u8, self.src_space);
                        batch.store(
                            self.dst_base + *base + lane * 128 + *step * ELEM,
                            ELEM as u8,
                            Space::Device,
                        );
                    }
                }
                *step += 1;
                if *step >= BLOCK_ELEMS {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
            ToyTask::Merged { cursor, end } => {
                let shift = if self.pattern == ToyPattern::MergedMisaligned {
                    32
                } else {
                    0
                };
                for lane in 0..WARP_SIZE as u64 {
                    let off = *cursor + lane * ELEM;
                    if off < *end {
                        let addr = self.src_base + shift + off;
                        if addr < self.src_base + self.array_bytes {
                            batch.load(addr, ELEM as u8, self.src_space);
                        }
                        batch.store(self.dst_base + off, ELEM as u8, Space::Device);
                    }
                }
                *cursor += WARP_SIZE as u64 * ELEM;
                if *cursor >= *end {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
        }
    }
}

/// Measured outcome of one toy run (one bar group of Figure 4).
#[derive(Debug, Clone)]
pub struct ToyRun {
    /// The pattern's Figure 4 label.
    pub label: &'static str,
    /// Host→GPU bandwidth over time, (window start ns, GB/s) — the
    /// VTune-style trace of Figure 4.
    pub series: Vec<(u64, f64)>,
    /// The run's full measurements.
    pub stats: RunStats,
}

impl ToyRun {
    /// Average host→GPU payload bandwidth (Figure 4's "PCIe" number).
    pub fn pcie_gbps(&self) -> f64 {
        self.stats.avg_pcie_gbps()
    }

    /// Host DRAM read bandwidth (Figure 4's "DRAM" number).
    pub fn dram_gbps(&self) -> f64 {
        self.stats.host_dram_bytes as f64 / self.stats.elapsed_ns as f64
    }
}

/// One toy run on a fresh machine, inside the one measurement bracket:
/// the copy kernel reads `array_bytes` out of `src_space` under `pattern`.
fn run(cfg: MachineConfig, pattern: ToyPattern, src_space: Space, array_bytes: u64) -> ToyRun {
    let mut m = Machine::new(cfg);
    // Reserve a misalignment shift's worth of slack at the end.
    let (label, src) = match src_space {
        Space::Managed => ("UVM", m.alloc_managed(array_bytes + 128)),
        _ => (pattern.name(), m.alloc_host_pinned(array_bytes + 128)),
    };
    let dst = m.alloc_device(array_bytes.min(m.spaces.device_capacity() / 2));
    let mut kernel = ToyKernel {
        pattern,
        src_base: src,
        dst_base: dst,
        array_bytes,
        src_space,
        cursor: 0,
        // One task covers 32 blocks (strided) or a 4 KiB sweep (merged):
        // either way 4 KiB of work per task.
        task_bytes: 4096,
    };
    let (_, stats) = m.measure(|m| run_kernel(m, &mut kernel));
    ToyRun {
        label,
        series: m.monitor.series.samples().collect(),
        stats,
    }
}

/// Run one zero-copy toy pattern over a fresh machine.
pub fn run_zero_copy(machine_cfg: MachineConfig, pattern: ToyPattern, array_bytes: u64) -> ToyRun {
    run(machine_cfg, pattern, Space::HostPinned, array_bytes)
}

/// The UVM reference of Figure 4: same merged sweep, but the array lives
/// in managed memory and arrives via page migration.
pub fn run_uvm_reference(machine_cfg: MachineConfig, array_bytes: u64) -> ToyRun {
    run(
        machine_cfg,
        ToyPattern::MergedAligned,
        Space::Managed,
        array_bytes,
    )
}

/// The `cudaMemcpy` peak reference (Figure 8's dashed line).
pub fn run_memcpy_reference(machine_cfg: MachineConfig, array_bytes: u64) -> f64 {
    let mut m = Machine::new(machine_cfg);
    let ((), stats) = m.measure(|m| m.memcpy_to_device(array_bytes));
    array_bytes as f64 / stats.elapsed_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    #[test]
    fn strided_pattern_is_all_32_byte_requests() {
        let r = run_zero_copy(MachineConfig::v100_gen3(), ToyPattern::Strided, 2 * MIB);
        assert!(
            r.stats.request_sizes.fraction(32) > 0.99,
            "{:?}",
            r.stats.request_sizes
        );
    }

    #[test]
    fn aligned_pattern_is_all_128_byte_requests() {
        let r = run_zero_copy(
            MachineConfig::v100_gen3(),
            ToyPattern::MergedAligned,
            2 * MIB,
        );
        assert!(r.stats.request_sizes.fraction(128) > 0.99);
    }

    #[test]
    fn misaligned_pattern_is_96_plus_32() {
        let r = run_zero_copy(
            MachineConfig::v100_gen3(),
            ToyPattern::MergedMisaligned,
            2 * MIB,
        );
        let h = &r.stats.request_sizes;
        assert!(h.fraction(96) > 0.45, "{h:?}");
        assert!(h.fraction(32) > 0.45, "{h:?}");
    }

    #[test]
    fn bandwidth_ordering_matches_figure4() {
        // Strided ≪ misaligned < aligned; exact bands asserted in the
        // (release-mode) calibration suite.
        let cfg = MachineConfig::v100_gen3;
        let strided = run_zero_copy(cfg(), ToyPattern::Strided, 2 * MIB);
        let misaligned = run_zero_copy(cfg(), ToyPattern::MergedMisaligned, 2 * MIB);
        let aligned = run_zero_copy(cfg(), ToyPattern::MergedAligned, 2 * MIB);
        assert!(strided.pcie_gbps() < misaligned.pcie_gbps());
        assert!(misaligned.pcie_gbps() < aligned.pcie_gbps());
        // Strided doubles DRAM traffic relative to PCIe (64 B words for
        // 32 B requests).
        let ratio = strided.dram_gbps() / strided.pcie_gbps();
        assert!((1.8..2.2).contains(&ratio), "DRAM/PCIe ratio {ratio}");
    }

    #[test]
    fn uvm_reference_migrates_pages() {
        let r = run_uvm_reference(MachineConfig::v100_gen3(), 2 * MIB);
        assert!(r.stats.pages_migrated >= 512);
        assert!(r.stats.pcie_read_requests == 0);
        assert!(r.pcie_gbps() > 0.0);
    }

    #[test]
    fn memcpy_reference_hits_measured_peak() {
        let gbps = run_memcpy_reference(MachineConfig::v100_gen3(), 64 * MIB);
        assert!((11.9..12.7).contains(&gbps), "memcpy peak {gbps}");
    }
}
