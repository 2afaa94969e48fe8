//! `emogi_graph`: partitioning, the admission cost model, relabeling.

use super::{Inputs, Timing};
use emogi_repro::graph::analysis::CostModel;
use emogi_repro::prelude::*;
use std::hint::black_box;

pub fn run(timing: Timing, inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let g = &inputs.graph;
    vec![
        (
            // What `ShardedEngine::load` and every sharded iteration do:
            // split the vertex set by degree, then slice a sorted
            // frontier at the shard boundaries.
            "graph.partition_ns",
            timing.ns_per_op(|| {
                let partition = VertexPartition::degree_balanced(g, 4);
                black_box(partition.slice_bounds(&inputs.frontier));
                1
            }),
        ),
        (
            "graph.cost_model_ns",
            timing.ns_per_op(|| {
                black_box(CostModel::new(g));
                1
            }),
        ),
        (
            "graph.reorder_ns",
            timing.ns_per_op(|| {
                black_box(LayoutPlan::degree_sorted(g).apply(g).num_edges());
                1
            }),
        ),
    ]
}
