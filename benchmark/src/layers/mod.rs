//! Layer drivers: the (H driver) per-layer metrics. One small driver per
//! crate, each calling only that crate's public functions on seeded,
//! workload-shaped synthetic input, reporting host ns per operation as
//! the median of timed batches. (The five cases of
//! `crates/bench/benches/components.rs` are ported here; that file stays
//! as it is.)

mod gpu;
mod graph;
mod runtime;
mod serve;
mod sim;
mod uvm;

use crate::inputs::Preset;
use crate::stats;
use emogi_repro::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long a driver measures: at least `batches` batches of at least
/// `batch` each.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    batch: Duration,
    batches: usize,
}

impl Timing {
    pub fn of(preset: Preset) -> Self {
        match preset {
            Preset::Full => Self {
                batch: Duration::from_millis(10),
                batches: 20,
            },
            Preset::Smoke => Self {
                batch: Duration::from_millis(2),
                batches: 5,
            },
        }
    }

    /// Host ns per operation of `call`, which performs some operations
    /// and returns how many. The calls per batch are calibrated once so
    /// a batch lasts at least `self.batch`; the result is the median
    /// over the batches.
    pub fn ns_per_op(self, mut call: impl FnMut() -> u64) -> f64 {
        let mut calls = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(call());
            }
            let took = start.elapsed();
            if took >= self.batch {
                break;
            }
            let scale = self.batch.as_secs_f64() / took.as_secs_f64().max(1e-7);
            calls = ((calls as f64 * scale * 1.2).ceil() as u64).max(calls + 1);
        }
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| {
                let mut ops = 0u64;
                let start = Instant::now();
                for _ in 0..calls {
                    ops += black_box(call());
                }
                start.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect();
        stats::median(&samples)
    }

    /// Like [`ns_per_op`](Self::ns_per_op) for an operation that consumes
    /// fresh state: `setup` builds it off the clock before every call.
    pub fn ns_per_op_fresh<S>(
        self,
        mut setup: impl FnMut() -> S,
        mut call: impl FnMut(S) -> u64,
    ) -> f64 {
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| {
                let (mut ops, mut took) = (0u64, Duration::ZERO);
                while took < self.batch {
                    let state = setup();
                    let start = Instant::now();
                    ops += black_box(call(state));
                    took += start.elapsed();
                }
                took.as_nanos() as f64 / ops as f64
            })
            .collect();
        stats::median(&samples)
    }
}

/// What the drivers share: a GK-shaped graph small enough that the whole
/// set of drivers runs in seconds, and one of its BFS frontiers.
pub struct Inputs {
    pub seed: u64,
    pub graph: CsrGraph,
    /// The widest level of a BFS from a well-connected source, sorted.
    pub frontier: Vec<VertexId>,
}

impl Inputs {
    pub fn new(seed: u64, preset: Preset) -> Self {
        let graph = preset.serve_graph(seed);
        let source = crate::inputs::sources(&graph, 1, seed, 6)[0];
        let levels = algo::bfs_levels(&graph, source);
        let depth = levels.iter().filter(|&&l| l != UNVISITED).max().copied();
        let frontier = (0..=depth.unwrap_or(0))
            .map(|level| {
                (0..graph.num_vertices() as VertexId)
                    .filter(|&v| levels[v as usize] == level)
                    .collect::<Vec<_>>()
            })
            .max_by_key(Vec::len)
            .unwrap_or_default();
        Self {
            seed,
            graph,
            frontier,
        }
    }
}

/// Run every driver; one `(metric, ns per op)` pair per (H driver) row.
pub fn run_all(seed: u64, preset: Preset) -> Vec<(&'static str, f64)> {
    let timing = Timing::of(preset);
    let inputs = Inputs::new(seed, preset);
    let mut out = Vec::new();
    for driver in [
        graph::run,
        gpu::run,
        sim::run,
        uvm::run,
        runtime::run,
        serve::run,
    ] {
        out.extend(driver(timing, &inputs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{self, Source};

    #[test]
    fn ns_per_op_grows_with_the_work_per_operation() {
        let timing = Timing {
            batch: Duration::from_millis(1),
            batches: 5,
        };
        let spin = |n: u64| (0..n).fold(0u64, |a, i| black_box(a ^ i.wrapping_mul(31)));
        let small = timing.ns_per_op(|| {
            black_box(spin(100));
            1
        });
        let large = timing.ns_per_op(|| {
            black_box(spin(10_000));
            1
        });
        assert!(small > 0.0 && large > 10.0 * small, "{small} vs {large}");
        // Reporting more operations per call divides the cost.
        let batched = timing.ns_per_op(|| {
            black_box(spin(10_000));
            100
        });
        assert!(batched < large / 10.0);
        let fresh = timing.ns_per_op_fresh(
            || 10_000,
            |n| {
                black_box(spin(n));
                1
            },
        );
        assert!(fresh > 10.0 * small);
    }

    #[test]
    fn drivers_cover_exactly_the_driver_metrics() {
        let got: Vec<&str> = run_all(11, Preset::Smoke)
            .into_iter()
            .map(|(name, ns)| {
                assert!(ns.is_finite() && ns > 0.0, "{name} = {ns}");
                name
            })
            .collect();
        let want: Vec<&str> = metrics::PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Driver)
            .map(|m| m.name)
            .collect();
        assert_eq!(got, want);
    }
}
