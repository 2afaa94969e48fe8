//! Admission-control edge cases and scheduler fairness for the serving
//! layer — the paths a happy-path workload never touches: boundary
//! sources, malformed weight arrays, full queues, and fairness when a
//! saturating burst of one query kind competes with a minority kind.
//! Admission refuses an invalid spec with `ProgramSpec::check`'s error.
//!
//! Seeded mutations it is known to catch: `ProgramSpec::check`'s source
//! bound loosened to `>`, or `query::admit` skipping the check, fails
//! `source_range_is_checked_at_the_exact_boundary`; the capacity bound
//! loosened to `>` fails the three queue-capacity tests.

mod common;

use emogi_repro::prelude::*;
use std::sync::Arc;

fn graph() -> CsrGraph {
    common::build_graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)], 64)
}

fn server(g: &CsrGraph, cfg: ServerConfig) -> QueryServer<'_> {
    QueryServer::new(cfg, Engine::load(EngineConfig::emogi_v100(), g))
}

#[test]
fn source_range_is_checked_at_the_exact_boundary() {
    let g = graph();
    let n = g.num_vertices() as u32;
    let mut s = server(&g, ServerConfig::default());
    // Last valid vertex is admitted; the first invalid one is refused
    // with `ProgramSpec::check`'s error, the offending source named.
    assert!(s.submit(Query::bfs(n - 1)).is_ok());
    for src in [n, u32::MAX] {
        assert_eq!(
            s.submit(Query::bfs(src)),
            Err(SubmitError::Invalid(SpecError::SourceOutOfRange {
                src,
                num_vertices: n as usize
            }))
        );
    }
    assert_eq!(s.stats().submitted, 1);
    assert_eq!(s.stats().rejected, 2);
}

#[test]
fn weight_arity_is_checked_in_both_directions() {
    let g = graph();
    let e = g.num_edges();
    let mut s = server(&g, ServerConfig::default());
    // One weight short and one weight long are both refused; the exact
    // count is admitted.
    for got in [e - 1, e + 1] {
        assert_eq!(
            s.submit(Query::sssp(0, Arc::new(vec![1; got]))),
            Err(SubmitError::Invalid(SpecError::WeightCountMismatch {
                got,
                want: e
            }))
        );
    }
    assert!(s.submit(Query::sssp(0, Arc::new(vec![1; e]))).is_ok());
    assert_eq!(s.stats().submitted, 1);
    assert_eq!(s.stats().rejected, 2);
    // An empty weight array is only valid on an edgeless graph.
    let lonely = CsrGraph::empty(4);
    let mut s2 = server(&lonely, ServerConfig::default());
    assert!(s2.submit(Query::sssp(0, Arc::new(Vec::new()))).is_ok());
}

#[test]
fn queue_full_rejection_names_the_capacity_and_reopens_after_drain() {
    let g = graph();
    let mut s = server(
        &g,
        ServerConfig {
            queue_capacity: 3,
            ..ServerConfig::default()
        },
    );
    let burst: Vec<QueryId> = (0..3).map(|i| s.submit(Query::bfs(i)).unwrap()).collect();
    assert_eq!(
        s.submit(Query::bfs(3)),
        Err(SubmitError::QueueFull { capacity: 3 })
    );
    // Rejected submissions must not consume queue slots or ids.
    assert_eq!(s.pending(), 3);
    assert_eq!(s.run_pending(), 3);
    assert_eq!(s.pending(), 0);
    // Executed-but-unredeemed results still count as outstanding; the
    // queue reopens once they are taken.
    assert_eq!(
        s.submit(Query::bfs(3)),
        Err(SubmitError::QueueFull { capacity: 3 })
    );
    for id in burst {
        assert!(s.take(id).unwrap().is_served());
    }
    let id = s.submit(Query::bfs(3)).unwrap();
    s.run_pending();
    assert!(s.take(id).is_some());
    assert_eq!(s.stats().submitted, 4);
    assert_eq!(s.stats().rejected, 2);
    assert_eq!(s.stats().served, 4);
}

#[test]
fn rejected_queries_leave_no_result_and_no_handle_gap() {
    let g = graph();
    let mut s = server(
        &g,
        ServerConfig {
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    );
    let a = s.submit(Query::bfs(0)).unwrap();
    let _ = s.submit(Query::bfs(1)).unwrap_err();
    s.run_pending();
    // The unredeemed outcome still occupies the single slot.
    let _ = s.submit(Query::bfs(1)).unwrap_err();
    assert!(s.take(a).unwrap().is_served());
    let b = s.submit(Query::bfs(1)).unwrap();
    s.run_pending();
    // Handles of admitted queries stay dense and redeemable exactly once.
    assert_ne!(a, b);
    assert!(s.take(b).is_some());
    assert!(s.take(a).is_none());
}

#[test]
fn minority_kind_is_not_starved_by_a_saturating_burst() {
    // A full queue of BFS with one old SSSP at the front: FIFO-fair
    // scheduling must serve the SSSP in the *first* batch (it is the
    // oldest), not push it behind the burst.
    let g = graph();
    let w = Arc::new(vec![1u32; g.num_edges()]);
    let mut s = server(
        &g,
        ServerConfig {
            max_batch: 4,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    );
    let sssp_id = s.submit(Query::sssp(0, Arc::clone(&w))).unwrap();
    let bfs_ids: Vec<QueryId> = (0..8).map(|i| s.submit(Query::bfs(i)).unwrap()).collect();
    assert_eq!(s.run_pending(), 9);
    // 1 SSSP batch + ceil(8 / 4) BFS batches.
    assert_eq!(s.stats().batches, 3);
    assert!(s.take(sssp_id).is_some());
    for id in bfs_ids {
        assert!(s.take(id).is_some());
    }
}

#[test]
fn every_query_of_a_capacity_filling_burst_is_served_and_correct() {
    // Saturate the queue with a mixed burst, then verify every result
    // against the CPU reference — fairness must not cost correctness.
    let g = common::build_graph(&[(0, 1), (1, 2), (2, 0), (3, 4), (0, 5)], 32);
    let w = Arc::new(vec![2u32; g.num_edges()]);
    let cap = 16;
    let mut s = server(
        &g,
        ServerConfig {
            max_batch: 3,
            queue_capacity: cap,
            ..ServerConfig::default()
        },
    );
    let ids: Vec<(QueryId, bool, u32)> = (0..cap as u32)
        .map(|i| {
            let src = i % 6;
            if i % 3 == 0 {
                (
                    s.submit(Query::sssp(src, Arc::clone(&w))).unwrap(),
                    false,
                    src,
                )
            } else {
                (s.submit(Query::bfs(src)).unwrap(), true, src)
            }
        })
        .collect();
    assert_eq!(
        s.submit(Query::bfs(0)),
        Err(SubmitError::QueueFull { capacity: cap })
    );
    assert_eq!(s.run_pending(), cap);
    for (id, is_bfs, src) in ids {
        if is_bfs {
            let run = s.take(id).unwrap().into_bfs();
            assert_eq!(run.levels, algo::bfs_levels(&g, src), "bfs {src}");
        } else {
            let run = s.take(id).unwrap().into_sssp();
            let want = algo::sssp_distances(&g, &w, src);
            for (v, &expect) in want.iter().enumerate() {
                let got = if run.dist[v] == INF {
                    algo::UNREACHABLE
                } else {
                    u64::from(run.dist[v])
                };
                assert_eq!(got, expect, "sssp {src} vertex {v}");
            }
        }
    }
}
