//! The compatibility scheduler: group pending queries into batches.
//!
//! [`plan_batches`] orders [`Pending`] entries by a deterministic
//! earliest-deadline-first-within-priority key ([`sched_key`]) —
//! latency class before bulk, earlier absolute deadline first,
//! submission id breaking every tie — and forms kind-pure batches of
//! capped size (full-sweep kinds solo) in one `O(n log n)` pass: the
//! plan repeated anchor selection would produce, where the smallest
//! pending key anchors a batch, later queries of its kind join in key
//! order until the cap, and queries of other kinds keep their queue
//! positions, so a burst of one kind cannot starve the other. Under
//! [`SchedPolicy::Fifo`] (or when every query carries the default QoS)
//! the key degenerates to the submission id and the plan is the
//! FIFO-fair one; the incremental reference scheduler it is checked
//! against lives beside its test, `fifo_plan_equals_incremental_next_batch`
//! in `tests/sla_proptests.rs`.
//!
//! The plan is a pure function of queue state: no wall clock, no
//! randomness — deadlines are absolute points on the *server's
//! simulated clock*, assigned at admission. `emogi-lint`'s
//! `ambient-nondet` rule (see `tools/lint/fixtures/deadline_clock_bad.rs`)
//! guards exactly this property.

use crate::query::{Query, QueryId, QueryKind};

/// How a server orders its pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// Earliest-deadline-first within priority class (the default):
    /// latency before bulk, earlier deadline first, submission id
    /// breaking ties. With all-default QoS this is identical to
    /// [`Fifo`](Self::Fifo).
    #[default]
    Edf,
    /// Pure submission order, ignoring priority and deadlines — the
    /// pre-QoS behaviour, kept as the baseline the `sla` bench
    /// experiment compares against.
    Fifo,
}

/// One admitted, not-yet-executed query: the scheduler's unit of work.
#[derive(Debug, Clone)]
pub struct Pending {
    /// The submission handle (also the scheduling tie-breaker).
    pub id: QueryId,
    /// The query itself.
    pub query: Query,
    /// Absolute deadline on the server's simulated clock, ns
    /// (admission clock + the query's budget); `None` = no deadline.
    pub deadline_ns: Option<u64>,
}

/// The deterministic scheduling key: `(priority rank, absolute
/// deadline, submission id)`, compared lexicographically, smaller runs
/// earlier. No-deadline queries sort after every dated one of the same
/// class; under [`SchedPolicy::Fifo`] the first two components collapse
/// so only submission order remains. Ids are unique, so the order is
/// total and scheduling is a pure function of queue state.
pub fn sched_key(policy: SchedPolicy, p: &Pending) -> (u8, u64, u64) {
    match policy {
        SchedPolicy::Fifo => (0, 0, p.id.0),
        SchedPolicy::Edf => (
            p.query.qos.priority.rank(),
            p.deadline_ns.unwrap_or(u64::MAX),
            p.id.0,
        ),
    }
}

/// A planned batch: kind-pure, members in scheduling-key order, first
/// member the anchor.
#[derive(Debug, Clone)]
pub struct SlaBatch {
    /// The common program kind.
    pub kind: QueryKind,
    /// Members in [`sched_key`] order; `entries[0]` is the anchor.
    pub entries: Vec<Pending>,
}

/// Plan a full drain of `pending`: order by [`sched_key`], then chunk
/// each kind's ordered subsequence at the batch cap (1 for
/// non-[`batchable`](QueryKind::batchable) kinds), and emit the batches
/// in anchor-key order.
///
/// This is exactly the plan that repeated anchor selection produces —
/// pick the minimum-key entry, fill behind it with the smallest
/// same-kind keys up to the cap, repeat — computed in one sort + one
/// pass. Invariants (property-tested in `tests/sla_proptests.rs`):
/// batches are kind-pure, respect the cap, anchors appear in
/// non-decreasing key order, members within a batch are in key order,
/// and every input entry lands in exactly one batch.
pub fn plan_batches(
    mut pending: Vec<Pending>,
    policy: SchedPolicy,
    max_batch: usize,
) -> Vec<SlaBatch> {
    let max_batch = max_batch.max(1);
    pending.sort_by_key(|p| sched_key(policy, p));
    let mut open = [None::<usize>; QueryKind::ALL.len()];
    let mut batches: Vec<SlaBatch> = Vec::new();
    for p in pending {
        let kind = p.query.kind();
        let cap = if kind.batchable() { max_batch } else { 1 };
        let idx = match open[kind as usize] {
            Some(i) if batches[i].entries.len() < cap => i,
            _ => {
                batches.push(SlaBatch {
                    kind,
                    entries: Vec::with_capacity(cap.min(16)),
                });
                open[kind as usize] = Some(batches.len() - 1);
                batches.len() - 1
            }
        };
        batches[idx].entries.push(p);
    }
    // Anchor order = execution order: each batch's first member carries
    // its smallest key, and keys are unique, so this matches repeated
    // minimum-key anchor selection.
    batches.sort_by_key(|b| sched_key(policy, &b.entries[0]));
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Priority;
    use std::sync::Arc;

    fn weights() -> Arc<Vec<u32>> {
        Arc::new(vec![1, 2, 3])
    }

    fn pending(id: u64, query: Query, deadline_ns: Option<u64>) -> Pending {
        Pending {
            id: QueryId(id),
            query,
            deadline_ns,
        }
    }

    fn ids(b: &SlaBatch) -> Vec<u64> {
        b.entries.iter().map(|p| p.id.0).collect()
    }

    /// The FIFO plan of `queries` (ids = positions) as `(kind, ids)`.
    fn fifo_plan(queries: Vec<Query>, max_batch: usize) -> Vec<(QueryKind, Vec<u64>)> {
        let entries = queries
            .into_iter()
            .enumerate()
            .map(|(i, q)| pending(i as u64, q, None))
            .collect();
        plan_batches(entries, SchedPolicy::Fifo, max_batch)
            .iter()
            .map(|b| (b.kind, ids(b)))
            .collect()
    }

    #[test]
    fn batches_group_by_kind_preserving_fifo_order() {
        let queue = vec![
            Query::bfs(1),
            Query::sssp(2, weights()),
            Query::bfs(3),
            Query::bfs(4),
            Query::sssp(5, weights()),
        ];
        assert_eq!(
            fifo_plan(queue, 16),
            vec![
                (QueryKind::Bfs, vec![0, 2, 3]),
                (QueryKind::Sssp, vec![1, 4])
            ]
        );
    }

    #[test]
    fn batch_cap_leaves_overflow_queued_in_order() {
        let queue = (0..5).map(Query::bfs).collect();
        let plan = fifo_plan(queue, 2);
        let members: Vec<_> = plan.into_iter().map(|(_, ids)| ids).collect();
        assert_eq!(members, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn saturating_alternating_burst_alternates_batch_kinds() {
        // A saturating burst of strictly alternating kinds: every batch
        // anchors on the globally oldest pending query, so the kinds
        // alternate instead of one kind draining the queue first.
        let queue = (0..12u32)
            .map(|i| match i % 2 {
                0 => Query::bfs(i),
                _ => Query::sssp(i, weights()),
            })
            .collect();
        let plan = fifo_plan(queue, 3);
        assert!(plan.iter().all(|(_, ids)| ids.len() <= 3));
        // FIFO anchoring: the first member is the oldest pending id.
        let anchors: Vec<_> = plan.iter().map(|(kind, ids)| (*kind, ids[0])).collect();
        assert_eq!(
            anchors,
            vec![
                (QueryKind::Bfs, 0),
                (QueryKind::Sssp, 1),
                (QueryKind::Bfs, 6),
                (QueryKind::Sssp, 7),
            ],
            "kinds must alternate under a saturating alternating burst"
        );
    }

    #[test]
    fn interleaved_kinds_do_not_starve() {
        let queue = vec![
            Query::sssp(0, weights()),
            Query::bfs(1),
            Query::sssp(2, weights()),
        ];
        // The oldest query anchors the first batch even when a later
        // kind could run sooner; the other kind keeps its place.
        assert_eq!(
            fifo_plan(queue, 16),
            vec![(QueryKind::Sssp, vec![0, 2]), (QueryKind::Bfs, vec![1])]
        );
    }

    #[test]
    fn edf_orders_by_priority_then_deadline_then_id() {
        // Bulk with an early deadline still yields to latency class;
        // within a class earlier deadlines run first; no-deadline
        // queries run last, in submission order.
        let plan = plan_batches(
            vec![
                pending(0, Query::bfs(0), None),
                pending(1, Query::bfs(1).with_deadline_ns(50), Some(50)),
                pending(
                    2,
                    Query::bfs(2)
                        .with_priority(Priority::Latency)
                        .with_deadline_ns(900),
                    Some(900),
                ),
                pending(3, Query::bfs(3).with_deadline_ns(10), Some(10)),
            ],
            SchedPolicy::Edf,
            2,
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(ids(&plan[0]), vec![2, 3], "latency anchor, then best bulk");
        assert_eq!(ids(&plan[1]), vec![1, 0]);
    }

    #[test]
    fn full_sweep_kinds_never_share_a_batch() {
        let plan = plan_batches(
            vec![
                pending(0, Query::cc(), None),
                pending(1, Query::cc(), None),
                pending(2, Query::pagerank(0.85, 3), None),
                pending(3, Query::bfs(0), None),
                pending(4, Query::bfs(1), None),
            ],
            SchedPolicy::Edf,
            16,
        );
        let sizes: Vec<(QueryKind, usize)> =
            plan.iter().map(|b| (b.kind, b.entries.len())).collect();
        assert_eq!(
            sizes,
            vec![
                (QueryKind::Cc, 1),
                (QueryKind::Cc, 1),
                (QueryKind::PageRank, 1),
                (QueryKind::Bfs, 2),
            ]
        );
    }

    #[test]
    fn default_qos_edf_plan_equals_fifo_plan() {
        let entries: Vec<Pending> = (0..64u64)
            .map(|i| {
                let query = if i % 2 == 0 {
                    Query::bfs(i as u32)
                } else {
                    Query::sssp(i as u32, weights())
                };
                pending(i, query, None)
            })
            .collect();
        let edf = plan_batches(entries.clone(), SchedPolicy::Edf, 5);
        let fifo = plan_batches(entries, SchedPolicy::Fifo, 5);
        let shape = |plan: &[SlaBatch]| -> Vec<(QueryKind, Vec<u64>)> {
            plan.iter().map(|b| (b.kind, ids(b))).collect()
        };
        assert_eq!(shape(&edf), shape(&fifo));
    }
}
