//! `emogi_runtime`: the executor without a program, and the transfer
//! planner over a real frontier's byte ranges.

use super::{Inputs, Timing};
use emogi_repro::gpu::{AccessBatch, Space};
use emogi_repro::prelude::*;
use emogi_repro::runtime::exec::run_kernel;
use emogi_repro::runtime::{Kernel, StepOutcome, TransferManager};
use emogi_repro::sim::CopyEngineConfig;
use std::hint::black_box;

const TASKS: u32 = 4_096;
const STEPS: u32 = 8;
const ELEM_BYTES: u64 = 8;

/// The smallest kernel that keeps the executor busy: every warp task
/// takes `STEPS` steps, each one a full-warp contiguous device load. No
/// vertex program runs, so what is timed is the executor's own
/// scheduling, coalescing and cache bookkeeping per warp step.
struct DeviceLoads {
    base: u64,
    next: u32,
}

impl Kernel for DeviceLoads {
    type Task = (u32, u32);

    fn next_task(&mut self) -> Option<(u32, u32)> {
        (self.next < TASKS).then(|| {
            self.next += 1;
            (self.next - 1, 0)
        })
    }

    fn step(&mut self, task: &mut (u32, u32), batch: &mut AccessBatch) -> StepOutcome {
        let (id, step) = *task;
        let addr = self.base + u64::from(id * STEPS + step) * 128;
        for lane in 0..32 {
            batch.load(addr + lane * 4, 4, Space::Device);
        }
        task.1 += 1;
        if task.1 == STEPS {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }
}

pub fn run(timing: Timing, inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let step = {
        let mut machine = Machine::new(MachineConfig::v100_gen3());
        let base = machine.alloc_device(u64::from(TASKS * STEPS) * 128);
        timing.ns_per_op(|| {
            let report = run_kernel(&mut machine, &mut DeviceLoads { base, next: 0 });
            black_box(report.end);
            report.steps
        })
    };

    // The byte ranges a frontier-driven launch reads: one per active
    // neighbour list, as `Engine::plan_transfers` passes them.
    let g = &inputs.graph;
    let ranges: Vec<(u64, u64)> = inputs
        .frontier
        .iter()
        .map(|&v| {
            (
                g.neighbor_start(v) * ELEM_BYTES,
                g.neighbor_end(v) * ELEM_BYTES,
            )
        })
        .collect();
    let edge_bytes = g.edge_list_bytes(ELEM_BYTES);
    // Planning stages regions into the 16 MiB device, so every call gets
    // a fresh machine and manager, built off the clock.
    let fresh = || {
        let machine = Machine::new(MachineConfig::v100_gen3());
        let manager = TransferManager::new(&machine, edge_bytes, TransferConfig::default());
        (machine, manager)
    };
    let plan_iteration = timing.ns_per_op_fresh(fresh, |(mut machine, mut manager)| {
        black_box(manager.plan_iteration(&mut machine, ranges.iter().copied()));
        1
    });
    let plan_pipelined = timing.ns_per_op_fresh(
        || {
            let (machine, manager) = fresh();
            let copy = CopyEngineConfig::from_pcie(&machine.cfg.pcie);
            let prefetcher =
                Prefetcher::new(manager.num_regions(), PrefetchConfig::default(), copy);
            (machine, manager, prefetcher)
        },
        |(mut machine, mut manager, mut prefetcher)| {
            let changed = manager.plan_iteration_pipelined(
                &mut machine,
                ranges.iter().copied(),
                &mut prefetcher,
            );
            manager.prefetch_for_next(machine.now, &mut prefetcher);
            black_box(changed);
            1
        },
    );
    vec![
        ("runtime.exec.step_ns", step),
        ("runtime.transfer.plan_iteration_ns", plan_iteration),
        ("runtime.transfer.plan_pipelined_ns", plan_pipelined),
    ]
}
