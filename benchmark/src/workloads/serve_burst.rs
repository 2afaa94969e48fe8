//! `serve-burst`: a closed loop of one client sending waves of 16
//! queries to a `QueryServer` (EDF, `max_batch` 16). Wave *k+1* is
//! submitted only after wave *k* is drained with `run_pending` and every
//! outcome taken — the server's clock only advances with work, so a
//! simulated open loop cannot exist. Only here do cost-model admission,
//! `plan_batches` and batched execution (union frontier, per-query masks)
//! run.

use super::{dataset_bytes, generate, generate_weights, set, Controls, Rep, Totals, Workload};
use crate::inputs::{self, Preset};
use crate::stats;
use crate::trace::{Phase, Stopwatch};
use crate::verify::{Checked, Verifier};
use emogi_repro::prelude::*;
use std::sync::Arc;

const WAVE: usize = 16;
const MAX_BATCH: usize = 16;
/// Per wave, in submission order: bulk-class undated SSSP and BFS, then
/// latency-class dated BFS and SSSP. The bulk SSSP come first so that a
/// FIFO server serves the SSSP batch ahead of the dated BFS queries.
const BULK_SSSP: usize = 3;
const BULK_BFS: usize = 9;
const LATENCY_BFS: usize = 3;
/// A dated query's budget is this many times the server's own cost
/// estimate. Over 42 seeds the worst dated query completes at 2.19–2.23
/// estimates under EDF and, in the cold first wave, at 3.5–4.4 under
/// FIFO (2.5–2.8 and 3.8–4.3 at the smoke preset), so 3 is met by EDF
/// and missed by FIFO with margin on both sides. (ISSUE.md proposed 6,
/// which never binds: FIFO meets it on every seed too.)
const DEADLINE_FACTOR: u64 = 3;
const SOURCE_STREAM: u64 = 4;
const ELEM_BYTES: u64 = 8;

pub struct ServeBurst {
    seed: u64,
    preset: Preset,
    verifier: Verifier,
    /// `ServerStats::host_bytes` of the last repetition, for
    /// `core.batch.bytes_saved_frac`.
    served_host_bytes: u64,
}

impl ServeBurst {
    pub fn new(seed: u64, preset: Preset) -> Self {
        Self {
            seed,
            preset,
            verifier: Verifier::default(),
            served_host_bytes: 0,
        }
    }
}

/// One query of a wave, before it carries a deadline.
fn wave_queries(sources: &[VertexId], weights: &Arc<Vec<u32>>) -> Vec<(Query, bool)> {
    sources
        .iter()
        .enumerate()
        .map(|(i, &src)| {
            let dated = i >= BULK_SSSP + BULK_BFS;
            let sssp = i < BULK_SSSP || i == BULK_SSSP + BULK_BFS + LATENCY_BFS;
            let query = if sssp {
                Query::sssp(src, Arc::clone(weights))
            } else {
                Query::bfs(src)
            };
            if dated {
                (query.with_priority(Priority::Latency), true)
            } else {
                (query, false)
            }
        })
        .collect()
}

/// What a drained wave leaves behind.
struct Drained {
    outcomes: Vec<Option<QueryOutcome>>,
    /// Server clock when the wave was submitted.
    submitted_ns: u64,
}

/// Submit one wave, drain it, take every outcome.
fn run_wave(
    sw: &mut Stopwatch,
    server: &mut QueryServer,
    sources: &[VertexId],
    weights: &Arc<Vec<u32>>,
) -> Drained {
    sw.enter("wave");
    let submitted_ns = server.clock_ns();
    let ids: Vec<Option<QueryId>> = wave_queries(sources, weights)
        .into_iter()
        .map(|(query, dated)| {
            let id = sw.call(Phase::Timed, "serve.submit", || {
                let query = if dated {
                    let budget = DEADLINE_FACTOR * server.estimate_ns(&query);
                    query.with_deadline_ns(budget)
                } else {
                    query
                };
                server.submit(query).ok()
            });
            sw.attr("dated", dated);
            id
        })
        .collect();
    let executed = sw.call(Phase::Timed, "serve.run_pending", || server.run_pending());
    sw.attr("executed", executed);
    sw.attr("sim_ns", server.clock_ns() - submitted_ns);
    let outcomes = ids
        .into_iter()
        .map(|id| {
            sw.call(Phase::Timed, "serve.take", || {
                id.and_then(|id| server.take(id))
            })
        })
        .collect();
    sw.leave();
    Drained {
        outcomes,
        submitted_ns,
    }
}

fn server_config(policy: SchedPolicy) -> ServerConfig {
    ServerConfig {
        policy,
        max_batch: MAX_BATCH,
        ..ServerConfig::default()
    }
}

impl Workload for ServeBurst {
    fn repetition(&mut self, sw: &mut Stopwatch) -> Rep {
        let (seed, preset) = (self.seed, self.preset);
        let graph = generate(sw, "serve", || preset.serve_graph(seed));
        let weights = Arc::new(generate_weights(sw, &graph, seed));
        let waves = preset.serve_waves();
        let sources = inputs::sources(&graph, waves * WAVE, seed, SOURCE_STREAM);
        let engine = sw.call(Phase::Setup, "core.engine.load", || {
            Engine::load(EngineConfig::emogi_v100(), &graph)
        });
        let mut server = sw.call(Phase::Setup, "serve.new", || {
            QueryServer::new(server_config(SchedPolicy::Edf), engine)
        });

        let mut checked: Vec<Checked> = Vec::new();
        let mut failed = 0u64;
        let mut latency_ms = Vec::new();
        let mut queried_bytes = 0u64;
        let mut iterations = 0u64;
        let mut launches = 0u64;
        for wave_sources in sources.chunks(WAVE) {
            let wave = run_wave(sw, &mut server, wave_sources, &weights);
            // A wave holds one BFS batch and one SSSP batch; a batch
            // launches once per iteration of its longest query.
            let mut batch_launches = [0u64; 2];
            for (outcome, &src) in wave.outcomes.iter().zip(wave_sources) {
                let Some(result) = outcome.as_ref().and_then(QueryOutcome::result) else {
                    failed += 1; // refused, or expired in the queue
                    continue;
                };
                let completed = outcome.as_ref().and_then(QueryOutcome::completed_ns);
                let latency_ns = completed.unwrap_or(0) - wave.submitted_ns;
                latency_ms.push(latency_ns as f64 / 1e6);
                let on_time = outcome.as_ref().is_some_and(QueryOutcome::is_served);
                let verifier = &mut self.verifier;
                let (verdict, weighted) =
                    sw.call(Phase::Untimed, "verify.reference", || match result {
                        QueryResult::Bfs(run) => {
                            let label = format!("serve.bfs.{src}");
                            (verifier.bfs(label, &graph, src, &run.levels), false)
                        }
                        QueryResult::Sssp(run) => {
                            let label = format!("serve.sssp.{src}");
                            (verifier.sssp(label, &graph, &weights, src, &run.dist), true)
                        }
                        other => unreachable!("the burst holds no {:?} query", other.kind()),
                    });
                if !(verdict.ok && on_time) {
                    failed += 1;
                }
                checked.push(verdict.with_sim_ns(latency_ns));
                queried_bytes += dataset_bytes(&graph, ELEM_BYTES, weighted);
                let own = result.stats().kernel_launches;
                iterations += own;
                let batch = &mut batch_launches[usize::from(weighted)];
                *batch = (*batch).max(own);
            }
            launches += batch_launches.iter().sum::<u64>();
        }

        let served = *server.stats();
        self.served_host_bytes = served.host_bytes;
        let machine = &server.engine().machine;
        let mut totals = Totals::default();
        totals.add_machine_traffic(machine);
        totals.add_machine(machine);
        let mut sim = totals.metrics();
        let executed = served.served + served.deadline_missed;
        for (name, value) in [
            ("sim_ms", server.clock_ns() as f64 / 1e6),
            ("io_amp", served.host_bytes as f64 / queried_bytes as f64),
            ("sim_qps", served.queries_per_sec()),
            ("sim_lat_p50_ms", stats::percentile(&latency_ms, 50.0)),
            ("sim_lat_p80_ms", stats::percentile(&latency_ms, 80.0)),
            ("deadline_hit_rate", served.deadline_hit_rate()),
            (
                "sim.pcie.gbps",
                served.host_bytes as f64 / served.busy_ns as f64,
            ),
            ("runtime.exec.kernel_launches", launches as f64),
            ("core.engine.iterations", iterations as f64),
            ("serve.batches", served.batches as f64),
            (
                "serve.batched_frac",
                served.batched_queries as f64 / executed.max(1) as f64,
            ),
            ("serve.rejected", served.rejected as f64),
            ("serve.deadline_missed", served.deadline_missed as f64),
            ("serve.deadline_cancelled", served.deadline_cancelled as f64),
            ("serve.busy_ms", served.busy_ns as f64 / 1e6),
        ] {
            set(&mut sim, name, value);
        }
        let mechanism = vec![
            ("batched_queries > 0", served.batched_queries > 0),
            (
                "deadline_hit_rate == 1 under EDF",
                served.deadline_hit_rate() == 1.0,
            ),
        ];
        Rep {
            sim,
            ops_attempted: (waves * WAVE) as u64,
            ops_failed: failed,
            checked,
            mechanism,
            edges_generated: graph.num_edges() as u64,
        }
    }

    fn controls(&mut self, per_layer: bool) -> Controls {
        let (seed, preset) = (self.seed, self.preset);
        let graph = preset.serve_graph(seed);
        let weights = Arc::new(inputs::weights(&graph, seed));
        let sources = inputs::sources(&graph, preset.serve_waves() * WAVE, seed, SOURCE_STREAM);
        let mut controls = Controls::default();

        // The same first wave under FIFO must miss a deadline, or the
        // deadlines bind nothing and the EDF hit rate proves nothing.
        let mut fifo = QueryServer::new(
            server_config(SchedPolicy::Fifo),
            Engine::load(EngineConfig::emogi_v100(), &graph),
        );
        run_wave(
            &mut Stopwatch::new(false),
            &mut fifo,
            &sources[..WAVE],
            &weights,
        );
        controls.mechanism.push((
            "deadline_hit_rate < 1 under FIFO (control)",
            fifo.stats().deadline_hit_rate() < 1.0,
        ));

        if per_layer {
            // Every query of the burst solo, in submission order, on one
            // fresh engine: what the batches' shared fetches saved.
            let mut solo = Engine::load(EngineConfig::emogi_v100(), &graph);
            let mut solo_bytes = 0u64;
            for wave_sources in sources.chunks(WAVE) {
                for (query, _) in wave_queries(wave_sources, &weights) {
                    solo_bytes += match query.spec {
                        QuerySpec::Bfs { src } => solo.bfs(src).stats.host_bytes,
                        QuerySpec::Sssp { src, weights } => {
                            solo.sssp(&weights, src).stats.host_bytes
                        }
                        other => unreachable!("the burst holds no {other:?} query"),
                    };
                }
            }
            controls.sim.push((
                "core.batch.bytes_saved_frac",
                1.0 - self.served_host_bytes as f64 / solo_bytes as f64,
            ));
        }
        controls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wave_is_twelve_bulk_then_four_dated_queries() {
        let weights = Arc::new(vec![8u32; 4]);
        let sources: Vec<VertexId> = (0..WAVE as VertexId).collect();
        let wave = wave_queries(&sources, &weights);
        assert_eq!(wave.len(), WAVE);
        let kinds = |dated: bool, kind: QueryKind| {
            wave.iter()
                .filter(|(q, d)| *d == dated && q.kind() == kind)
                .count()
        };
        assert_eq!(kinds(false, QueryKind::Bfs), 9);
        assert_eq!(kinds(false, QueryKind::Sssp), 3);
        assert_eq!(kinds(true, QueryKind::Bfs), 3);
        assert_eq!(kinds(true, QueryKind::Sssp), 1);
        for (query, dated) in &wave {
            let class = if *dated {
                Priority::Latency
            } else {
                Priority::Bulk
            };
            assert_eq!(query.qos.priority, class);
        }
        assert!(!wave[0].1 && wave[WAVE - 1].1, "dated queries come last");
    }
}
