//! Property tests for the SLA-aware serving layer: on random graphs,
//! random QoS mixes (priorities, deadlines, all four query kinds) and
//! random cancellations, across the named configurations —
//!
//! 1. every *executed* output is bit-identical to a solo engine run of
//!    the same query;
//! 2. no admitted query is ever lost: each ends in exactly one terminal
//!    state (served / cancelled / deadline-missed / deadline-expired);
//! 3. the deterministic EDF-within-priority plan upholds its ordering
//!    invariants, and with the FIFO policy it is exactly the plan the
//!    incremental FIFO scheduler produces.

mod common;

use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use emogi_repro::serve::{plan_batches, sched_key, Pending};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// The reference scheduler `plan_batches(.., SchedPolicy::Fifo, ..)` is
/// checked against: pop the next FIFO-fair batch off `queue` — the
/// oldest query anchors it, every later query of the same kind joins in
/// submission order until `max_batch`, everything else keeps its place.
/// Returns the batch's kind and member ids; `None` on an empty queue.
fn next_batch(
    queue: &mut VecDeque<(QueryId, Query)>,
    max_batch: usize,
) -> Option<(QueryKind, Vec<u64>)> {
    let kind = queue.front()?.1.kind();
    let mut members = Vec::new();
    for _ in 0..queue.len() {
        let (id, q) = queue.pop_front().expect("iterating within queue length");
        if q.kind() == kind && members.len() < max_batch.max(1) {
            members.push(id.raw());
        } else {
            queue.push_back((id, q));
        }
    }
    Some((kind, members))
}

/// Strategy: one raw query descriptor — kind, source, priority flag and
/// an optional deadline bucket (tiny deadlines exercise OverBudget
/// rejection and expiry, large ones are comfortably met).
fn query_descriptor(n: u32) -> impl Strategy<Value = (usize, u32, bool, Option<u64>)> {
    (
        0usize..4,
        0u32..n,
        any::<bool>(),
        prop_oneof![
            Just(None),
            (1u64..50_000).prop_map(Some),
            (1_000_000_000u64..4_000_000_000).prop_map(Some),
        ],
    )
}

fn make_query(
    kind_idx: usize,
    src: u32,
    latency: bool,
    deadline: Option<u64>,
    weights: &Arc<Vec<u32>>,
) -> Query {
    let q = match kind_idx {
        0 => Query::bfs(src),
        1 => Query::sssp(src, Arc::clone(weights)),
        2 => Query::cc(),
        _ => Query::pagerank(0.85, 3),
    };
    let q = if latency {
        q.with_priority(Priority::Latency)
    } else {
        q
    };
    match deadline {
        Some(d) => q.with_deadline_ns(d),
        None => q,
    }
}

/// Solo-run the query's spec on `solo` and compare bitwise against the
/// served result.
fn assert_matches_solo(solo: &mut Engine<'_>, query: &Query, got: &QueryResult) {
    let want = spec::run(solo, &query.spec);
    assert_eq!(got.kind(), want.kind(), "kind mismatch");
    assert_eq!(got.words(), want.words(), "{:?} output", want.kind());
    assert_eq!(got.passes(), want.passes(), "{:?} passes", want.kind());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Properties (1) and (2): the full server lifecycle on random QoS
    /// mixes with random cancellations, across the named configurations. Every
    /// admitted query ends in exactly one terminal state, every
    /// executed output equals its solo run, and the stats counters
    /// partition the admitted set.
    #[test]
    fn no_admitted_query_is_lost_and_served_outputs_match_solo(
        g in common::graph(64, 250),
        mix in prop::collection::vec(query_descriptor(64), 1..9),
        cancel_stride in 1usize..5,
        (_, cfg) in common::any_config_placing_weights_late(),
        max_batch in 1usize..6,
    ) {
        let w = Arc::new(generate_weights(g.num_edges(), 3));
        let mut server = QueryServer::new(
            ServerConfig { max_batch, ..ServerConfig::default() },
            Engine::load(cfg.clone(), &g),
        );

        // Submit; tiny deadlines may be refused by cost-model admission
        // — a refused query must burn no id and store no outcome.
        let mut admitted: Vec<(QueryId, Query)> = Vec::new();
        let mut rejected = 0u64;
        for &(kind_idx, src, latency, deadline) in &mix {
            let q = make_query(kind_idx, src, latency, deadline, &w);
            match server.submit(q.clone()) {
                Ok(id) => admitted.push((id, q)),
                Err(SubmitError::OverBudget { estimated_ns, budget_ns }) => {
                    prop_assert!(estimated_ns > budget_ns);
                    prop_assert!(deadline.is_some(), "only dated queries can be over budget");
                    rejected += 1;
                }
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        prop_assert_eq!(server.stats().submitted, admitted.len() as u64);
        prop_assert_eq!(server.stats().rejected, rejected);

        // Cancel a deterministic subset while still pending: cancel
        // succeeds exactly once per pending id.
        let mut cancelled = Vec::new();
        for (i, (id, _)) in admitted.iter().enumerate() {
            if i % cancel_stride == 0 {
                prop_assert!(server.cancel(*id), "pending query cancels");
                prop_assert!(!server.cancel(*id), "a handle cancels once");
                cancelled.push(*id);
            }
        }
        server.run_pending();
        prop_assert_eq!(server.pending(), 0);

        // Property (2): exactly-once terminal states...
        let mut solo = Engine::load(cfg, &g);
        let mut executed = 0u64;
        let mut expired = 0u64;
        for (id, query) in &admitted {
            if cancelled.contains(id) {
                prop_assert!(server.take(*id).is_none(), "cancelled queries have no outcome");
                prop_assert!(!server.cancel(*id), "executed/cancelled ids cannot re-cancel");
                continue;
            }
            let outcome = server.take(*id).expect("admitted, uncancelled query has an outcome");
            prop_assert!(server.take(*id).is_none(), "outcomes redeem exactly once");
            match &outcome {
                QueryOutcome::Served { result, .. }
                | QueryOutcome::DeadlineMissed { result, .. } => {
                    executed += 1;
                    // ... and property (1): bit-identity to solo runs.
                    assert_matches_solo(&mut solo, query, result);
                }
                QueryOutcome::DeadlineCancelled { .. } => expired += 1,
            }
            if let QueryOutcome::DeadlineMissed { completed_ns, deadline_ns, .. } = outcome {
                prop_assert!(completed_ns > deadline_ns, "missed means late");
            }
        }

        // ... and the stats partition the admitted set.
        let st = server.stats();
        prop_assert_eq!(st.served + st.deadline_missed, executed);
        prop_assert_eq!(st.deadline_cancelled, expired);
        prop_assert_eq!(st.cancelled, cancelled.len() as u64);
        prop_assert_eq!(
            st.served + st.deadline_missed + st.deadline_cancelled + st.cancelled,
            admitted.len() as u64
        );
    }

    /// Property (3): plan invariants of the deterministic scheduler on
    /// arbitrary pending queues — kind-purity, batch caps (full sweeps
    /// always solo), EDF key ordering of batch anchors and of entries
    /// within each batch, and exactly-once partition of the input.
    #[test]
    fn edf_plan_upholds_its_ordering_invariants(
        mix in prop::collection::vec(query_descriptor(64), 1..40),
        max_batch in 1usize..7,
        policy_is_edf in any::<bool>(),
    ) {
        let w = Arc::new(vec![1u32; 8]);
        let pending: Vec<Pending> = mix
            .iter()
            .enumerate()
            .map(|(i, &(kind_idx, src, latency, deadline))| Pending {
                id: QueryId::from_raw(i as u64),
                query: make_query(kind_idx, src, latency, None, &w),
                // The plan consumes *absolute* deadlines; reuse the raw
                // strategy values directly.
                deadline_ns: deadline,
            })
            .collect();
        let policy = if policy_is_edf { SchedPolicy::Edf } else { SchedPolicy::Fifo };
        let plan = plan_batches(pending.clone(), policy, max_batch);

        let mut seen: Vec<u64> = Vec::new();
        let mut prev_anchor: Option<(u8, u64, u64)> = None;
        for batch in &plan {
            prop_assert!(!batch.entries.is_empty(), "no empty batches");
            let cap = if batch.kind.batchable() { max_batch } else { 1 };
            prop_assert!(batch.entries.len() <= cap, "{:?} over cap", batch.kind);
            let anchor = sched_key(policy, &batch.entries[0]);
            if let Some(prev) = prev_anchor {
                prop_assert!(prev <= anchor, "anchors out of order: {prev:?} > {anchor:?}");
            }
            prev_anchor = Some(anchor);
            let mut prev_key = None;
            for p in &batch.entries {
                prop_assert_eq!(p.query.kind(), batch.kind, "kind-pure batches");
                let key = sched_key(policy, p);
                if let Some(prev) = prev_key {
                    prop_assert!(prev < key, "members out of key order");
                }
                prev_key = Some(key);
                seen.push(p.id.raw());
            }
        }
        // Exactly-once partition: every submitted id appears once.
        seen.sort_unstable();
        let want: Vec<u64> = (0..pending.len() as u64).collect();
        prop_assert_eq!(seen, want);
    }

    /// Property (3), FIFO corner: with the FIFO policy the whole-queue
    /// plan is exactly what the incremental single-pass scheduler
    /// produces batch by batch — the O(n²)-drain fix changed the
    /// mechanism, not the schedule. (Restricted to the batchable kinds
    /// the original primitive was defined over.)
    #[test]
    fn fifo_plan_equals_incremental_next_batch(
        mix in prop::collection::vec(query_descriptor(48), 1..40),
        max_batch in 1usize..7,
    ) {
        let w = Arc::new(vec![1u32; 8]);
        let queries: Vec<Query> = mix
            .iter()
            .map(|&(kind_idx, src, latency, _)| make_query(kind_idx % 2, src, latency, None, &w))
            .collect();

        let pending: Vec<Pending> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| Pending {
                id: QueryId::from_raw(i as u64),
                query: q.clone(),
                deadline_ns: None,
            })
            .collect();
        let plan = plan_batches(pending, SchedPolicy::Fifo, max_batch);

        let mut queue: VecDeque<(QueryId, Query)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (QueryId::from_raw(i as u64), q.clone()))
            .collect();
        let mut incremental = Vec::new();
        while let Some(batch) = next_batch(&mut queue, max_batch) {
            incremental.push(batch);
        }

        prop_assert_eq!(plan.len(), incremental.len(), "same batch count");
        for (planned, (kind, inc_ids)) in plan.iter().zip(incremental) {
            prop_assert_eq!(planned.kind, kind);
            let planned_ids: Vec<u64> = planned.entries.iter().map(|p| p.id.raw()).collect();
            prop_assert_eq!(planned_ids, inc_ids);
        }
    }
}
