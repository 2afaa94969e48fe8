//! `emogi_serve`: the batch planner over a deep mixed queue. (Submission
//! and redemption are timed in place, as spans of `serve-burst`.)

use super::{Inputs, Timing};
use emogi_repro::prelude::*;
use emogi_repro::serve::{plan_batches, Pending};
use std::hint::black_box;
use std::sync::Arc;

const QUEUE: u64 = 1_000;

pub fn run(timing: Timing, inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let nv = inputs.graph.num_vertices() as u64;
    let weights = Arc::new(Vec::new());
    // 1 000 pending queries: BFS and SSSP, a quarter latency-class with
    // scattered deadlines, the rest bulk and undated.
    let pending: Vec<Pending> = (0..QUEUE)
        .map(|i| {
            let src = (i.wrapping_mul(2_654_435_761) % nv) as VertexId;
            let query = if i % 3 == 0 {
                Query::sssp(src, Arc::clone(&weights))
            } else {
                Query::bfs(src)
            };
            let dated = i % 4 == 0;
            Pending {
                id: QueryId::from_raw(i),
                query: if dated {
                    query.with_priority(Priority::Latency)
                } else {
                    query
                },
                deadline_ns: dated.then(|| 1_000_000 + (i * 7_919) % 500_000),
            }
        })
        .collect();
    let plan = timing.ns_per_op_fresh(
        || pending.clone(),
        |queue| {
            black_box(plan_batches(queue, SchedPolicy::Edf, 16).len());
            1
        },
    );
    vec![("serve.plan_batches_ns", plan)]
}
