//! `emogi_gpu`: the coalescing unit on the four access shapes the
//! kernels produce, and the sectored L2.

use super::{Inputs, Timing};
use emogi_repro::gpu::{AccessBatch, Coalescer, GpuPreset, SectoredCache, Space, LINE_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const LANES: u64 = 32;

fn coalesce_ns(timing: Timing, batches: &[AccessBatch]) -> f64 {
    let mut coalescer = Coalescer::new();
    let mut out = Vec::new();
    let mut next = 0;
    timing.ns_per_op(|| {
        out.clear();
        coalescer.coalesce(black_box(batches[next].items()), &mut out);
        next = (next + 1) % batches.len();
        black_box(out.len());
        1
    })
}

/// One warp step of 32 lanes reading `size` bytes each at `addr(lane)`.
fn warp(space: Space, size: u8, addr: impl Fn(u64) -> u64) -> AccessBatch {
    let mut batch = AccessBatch::new();
    for lane in 0..LANES {
        batch.load(addr(lane), size, space);
    }
    batch
}

pub fn run(timing: Timing, inputs: &Inputs) -> Vec<(&'static str, f64)> {
    // Merged+Aligned: 32 consecutive 8-byte elements from a line boundary.
    let aligned = warp(Space::HostPinned, 8, |lane| 0x1000 + lane * 8);
    // Merged without Aligned: the same walk starting mid-line.
    let unaligned = warp(Space::HostPinned, 8, |lane| 0x1000 + 40 + lane * 8);
    // Naive: thread per vertex, every lane in its own line.
    let strided = warp(Space::HostPinned, 8, |lane| lane * LINE_BYTES);
    // The status-array lookup of the destinations: random 4-byte device
    // loads over a 512 KiB array, a different draw every step.
    let mut rng = StdRng::seed_from_u64(inputs.seed);
    let gathers: Vec<AccessBatch> = (0..64)
        .map(|_| {
            let picks: Vec<u64> = (0..LANES).map(|_| rng.gen_range(0..131_072u64)).collect();
            warp(Space::Device, 4, |lane| picks[lane as usize] * 4)
        })
        .collect();

    let cfg = GpuPreset::V100.config().cache;
    let probe_hit = {
        let mut cache = SectoredCache::new(&cfg);
        cache.fill(0x1000, 0xF);
        timing.ns_per_op(|| {
            black_box(cache.probe(black_box(0x1000), 0xF));
            1
        })
    };
    let miss_fill = {
        // Walk a working set four times the capacity, so every probe
        // misses and every fill evicts.
        let mut cache = SectoredCache::new(&cfg);
        let span = 4 * cfg.capacity_bytes;
        let mut line = 0u64;
        timing.ns_per_op(|| {
            line = (line + LINE_BYTES) % span;
            black_box(cache.probe(line, 0xF));
            cache.fill(line, 0xF);
            1
        })
    };
    vec![
        ("gpu.coalesce.aligned_ns", coalesce_ns(timing, &[aligned])),
        (
            "gpu.coalesce.unaligned_ns",
            coalesce_ns(timing, &[unaligned]),
        ),
        ("gpu.coalesce.strided_ns", coalesce_ns(timing, &[strided])),
        ("gpu.coalesce.gather_ns", coalesce_ns(timing, &gathers)),
        ("gpu.cache.probe_hit_ns", probe_hit),
        ("gpu.cache.miss_fill_ns", miss_fill),
    ]
}
