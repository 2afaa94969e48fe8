//! Batched multi-query execution: many frontier-driven queries, one
//! edge-list fetch.
//!
//! EMOGI's premise is that every PCIe cache line counts; once an
//! [`Engine`](crate::engine::Engine) serves many queries against one
//! placement, concurrent queries whose frontiers overlap should *share*
//! those cache lines instead of re-fetching them per query. A batched
//! iteration launches the one [`ProgramKernel`](crate::kernel::ProgramKernel)
//! over the **union** of the batch's per-query frontiers
//! (`merge_frontiers`): each union vertex's neighbour list crosses the
//! link once and is handed to every member query that has the vertex
//! active, while each query keeps its own device-resident status array,
//! its own program state and its own next frontier.
//!
//! Correctness contract: per-member contexts are captured at iteration
//! start ([`VertexProgram::source_ctx`](crate::program::VertexProgram::source_ctx)),
//! and the shipped frontier-driven programs' per-edge updates are
//! commutative within an iteration (BFS marks, SSSP takes mins), so a
//! query's frontier sequence — and therefore its output *and* its
//! iteration count — is identical whether it runs alone or inside any
//! batch. [`Engine::run_batch`] is the front end;
//! `tests/serve_proptests.rs` checks the equivalence on random graphs,
//! query mixes and named configurations.
//!
//! [`Engine::run_batch`]: crate::engine::Engine::run_batch

use emogi_graph::VertexId;
use emogi_runtime::RunStats;

/// Maximum queries one batch may hold: per-item membership is a `u64`
/// bitset over the batch's query slots.
pub const MAX_BATCH_QUERIES: usize = 64;

/// Result of one batched multi-query execution.
///
/// `stats` is the batch-level machine diff — the ground truth for what
/// the batch cost (each shared edge fetch counted exactly once). Each
/// per-query [`Run`](crate::engine::Run) carries the totals of the
/// iterations that query was active in, with
/// [`RunStats::shared_fetch`] set: those bytes also served the other
/// queries of the batch, so per-query stats are attributable but do not
/// sum to the batch total.
#[derive(Debug, Clone)]
pub struct BatchRun<O> {
    /// Per-query outputs and attributable stats, in submission order.
    pub runs: Vec<crate::engine::Run<O>>,
    /// Batch-wide totals: the real cost of the whole execution.
    pub stats: RunStats,
}

/// Merge per-query frontiers (each sorted and deduplicated) into one
/// sorted union worklist plus a parallel membership bitset per union
/// vertex (bit `q` set ⇔ vertex is on query `q`'s frontier). A single
/// query's frontier is its own union; its masks stay empty (every vertex
/// has the one member, slot 0).
pub(crate) fn merge_frontiers(
    frontiers: &[Vec<VertexId>],
    union: &mut Vec<VertexId>,
    masks: &mut Vec<u64>,
) {
    union.clear();
    masks.clear();
    if let [only] = frontiers {
        union.extend_from_slice(only);
        return;
    }
    let mut pairs: Vec<(VertexId, u32)> = frontiers
        .iter()
        .enumerate()
        .flat_map(|(q, f)| f.iter().map(move |&v| (v, q as u32)))
        .collect();
    pairs.sort_unstable();
    for (v, q) in pairs {
        if union.last() == Some(&v) {
            *masks.last_mut().expect("parallel to union") |= 1 << q;
        } else {
            union.push(v);
            masks.push(1 << q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsProgram;
    use crate::engine::{Engine, EngineConfig};
    use crate::sssp::SsspProgram;
    use crate::strategy::AccessStrategy;
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::{algo, generators};

    #[test]
    fn merge_frontiers_builds_sorted_union_with_masks() {
        let fs = vec![vec![1u32, 5, 9], vec![5, 7], vec![]];
        let (mut union, mut masks) = (Vec::new(), Vec::new());
        merge_frontiers(&fs, &mut union, &mut masks);
        assert_eq!(union, vec![1, 5, 7, 9]);
        assert_eq!(masks, vec![0b001, 0b011, 0b010, 0b001]);
        // A single query is its own union and materialises no masks.
        merge_frontiers(&fs[..1], &mut union, &mut masks);
        assert_eq!(union, vec![1, 5, 9]);
        assert!(masks.is_empty());
    }

    #[test]
    fn batched_bfs_matches_sequential_for_every_mode() {
        let g = generators::kronecker(8, 8, 3);
        let sources = [0u32, 3, 17, 40];
        let zero_copy = AccessStrategy::all().map(|s| EngineConfig::emogi_v100().with_strategy(s));
        for cfg in zero_copy.into_iter().chain([EngineConfig::hybrid_v100()]) {
            let mode = format!("{:?} over {:?}", cfg.strategy, cfg.transport);
            let mut seq = Engine::load(cfg.clone(), &g);
            let seq_runs: Vec<_> = sources.iter().map(|&s| seq.bfs(s)).collect();
            let mut bat = Engine::load(cfg, &g);
            let batch = bat.run_batch(
                sources
                    .iter()
                    .map(|&s| BfsProgram::new(&g, s))
                    .collect::<Vec<_>>(),
            );
            for (q, (sr, br)) in seq_runs.iter().zip(&batch.runs).enumerate() {
                assert_eq!(br.levels, sr.levels, "{mode} query {q}");
                assert_eq!(
                    br.stats.kernel_launches, sr.stats.kernel_launches,
                    "{mode} query {q} iteration count"
                );
                assert!(br.stats.shared_fetch, "batched stats must be flagged");
                assert!(!sr.stats.shared_fetch);
            }
            assert!(!batch.stats.shared_fetch, "batch total is not shared");
        }
    }

    #[test]
    fn batched_sssp_matches_sequential_and_reference() {
        let g = generators::uniform_random(400, 8, 5);
        let w = generate_weights(g.num_edges(), 5);
        let sources = [2u32, 9, 31];
        let mut seq = Engine::load(EngineConfig::emogi_v100(), &g);
        let seq_runs: Vec<_> = sources.iter().map(|&s| seq.sssp(&w, s)).collect();
        let mut bat = Engine::load(EngineConfig::emogi_v100(), &g);
        let batch = bat.run_batch(
            sources
                .iter()
                .map(|&s| SsspProgram::new(&g, &w, s))
                .collect::<Vec<_>>(),
        );
        for ((q, sr), br) in seq_runs.iter().enumerate().zip(&batch.runs) {
            assert_eq!(br.dist, sr.dist, "query {q}");
            assert_eq!(br.stats.kernel_launches, sr.stats.kernel_launches);
        }
        // And against the CPU reference, belt and braces.
        for (&s, br) in sources.iter().zip(&batch.runs) {
            let want = algo::sssp_distances(&g, &w, s);
            for (v, &expect) in want.iter().enumerate() {
                let got = if br.dist[v] == crate::sssp::INF {
                    algo::UNREACHABLE
                } else {
                    u64::from(br.dist[v])
                };
                assert_eq!(got, expect, "source {s} vertex {v}");
            }
        }
    }

    #[test]
    fn single_query_batch_is_tick_identical_to_a_solo_run() {
        let g = generators::uniform_random(600, 8, 9);
        let mut solo = Engine::load(EngineConfig::emogi_v100(), &g);
        let mut bat = Engine::load(EngineConfig::emogi_v100(), &g);
        let sr = solo.bfs(4);
        let br = bat.run_batch(vec![BfsProgram::new(&g, 4)]);
        assert_eq!(br.runs[0].levels, sr.levels);
        assert_eq!(br.stats.pcie_read_requests, sr.stats.pcie_read_requests);
        assert_eq!(br.stats.host_bytes, sr.stats.host_bytes);
        assert_eq!(br.stats.elapsed_ns, sr.stats.elapsed_ns);
    }

    #[test]
    fn overlapping_queries_fetch_fewer_pcie_bytes_than_sequential() {
        // Skewed graph, several sources: frontiers overlap heavily after
        // the first level, so the union fetch must beat Q solo fetches.
        // The cache is shrunk below the edge list so sequential queries
        // cannot just ride on warmed lines.
        let g = generators::kronecker(10, 8, 7);
        let sources = [0u32, 1, 2, 3, 4, 5, 6, 7];
        let mut cfg = EngineConfig::emogi_v100();
        cfg.machine.gpu.cache.capacity_bytes = 32 << 10;
        let mut seq = Engine::load(cfg.clone(), &g);
        let seq_bytes: u64 = sources.iter().map(|&s| seq.bfs(s).stats.host_bytes).sum();
        let mut bat = Engine::load(cfg, &g);
        let batch = bat.run_batch(
            sources
                .iter()
                .map(|&s| BfsProgram::new(&g, s))
                .collect::<Vec<_>>(),
        );
        assert!(
            batch.stats.host_bytes < seq_bytes,
            "batched {} must beat sequential {}",
            batch.stats.host_bytes,
            seq_bytes
        );
    }

    #[test]
    fn run_batch_degrades_gracefully_when_device_memory_is_exhausted() {
        // Hybrid engine on an oversubscribed graph: solo full-sweep runs
        // let the default transfer pool stage regions until device
        // memory is gone. A later batch must not crash on status-array
        // allocation — it falls back to smaller groups or solo runs,
        // still bit-identical.
        let g = generators::lognormal_dense(2_000, 60.0, 0.5, 16, 5);
        let mut cfg = EngineConfig::hybrid_v100();
        cfg.machine.gpu.cache.capacity_bytes = 64 << 10;
        cfg.machine.gpu.mem_bytes = 256 << 10;
        let mut bat = Engine::load(cfg.clone(), &g);
        let _ = bat.cc(); // full sweep: stages regions until the pool is dry
        let sources = [3u32, 11, 19, 27, 35, 43, 51, 59];
        assert!(
            bat.machine.spaces.device_free() < sources.len() as u64 * g.num_vertices() as u64 * 4,
            "scenario must leave too little device memory for a full batch"
        );
        let batch = bat.run_batch(
            sources
                .iter()
                .map(|&s| BfsProgram::new(&g, s))
                .collect::<Vec<_>>(),
        );
        let mut seq = Engine::load(cfg, &g);
        let _ = seq.cc();
        for (&s, br) in sources.iter().zip(&batch.runs) {
            let sr = seq.bfs(s);
            assert_eq!(br.levels, sr.levels, "source {s}");
            assert_eq!(br.stats.kernel_launches, sr.stats.kernel_launches);
        }
    }

    #[test]
    fn run_batch_on_a_uvm_engine_falls_back_to_solo_runs() {
        // After the first managed kernel the UVM driver freezes the
        // device layout, so no batch status arrays can be allocated:
        // the batch must serve solo, not panic.
        let g = generators::uniform_random(400, 6, 2);
        let mut engine = Engine::load(EngineConfig::uvm_v100(), &g);
        let _ = engine.bfs(0); // initializes the UVM driver
        let batch = engine.run_batch(vec![BfsProgram::new(&g, 3), BfsProgram::new(&g, 9)]);
        assert_eq!(batch.runs[0].levels, algo::bfs_levels(&g, 3));
        assert_eq!(batch.runs[1].levels, algo::bfs_levels(&g, 9));
        // The fallback IS the solo path: every per-query stat equals a
        // twin engine's back-to-back solo runs, and the batch total is
        // their sequential fold.
        let mut twin = Engine::load(EngineConfig::uvm_v100(), &g);
        let _ = twin.bfs(0);
        let (a, b) = (twin.bfs(3), twin.bfs(9));
        assert_eq!(batch.runs[0].stats, a.stats, "solo fallback shares nothing");
        assert_eq!(batch.runs[1].stats, b.stats);
        let mut total = a.stats.clone();
        total += &b.stats;
        assert_eq!(batch.stats, total);
    }

    #[test]
    #[should_panic(expected = "frontier-driven")]
    fn full_sweep_programs_are_rejected() {
        let g = generators::uniform_random(100, 4, 1);
        let mut e = Engine::load(EngineConfig::emogi_v100(), &g);
        let _ = e.run_batch(vec![crate::cc::CcProgram::new(&g)]);
    }
}
