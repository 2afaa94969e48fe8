//! The device-group-aware serving path: queries over a
//! [`ShardedEngine`](emogi_core::sharded::ShardedEngine).
//!
//! [`QueryServer`](crate::QueryServer) accelerates concurrent queries by
//! *batching* them on one device (overlapping frontiers share PCIe cache
//! lines); a [`ShardedServer`](crate::ShardedServer) instead accelerates
//! **each** query by sharding its iterations across every device of a
//! group — the right trade when individual query latency matters, or
//! when one GPU's link is the bottleneck.
//!
//! Both front ends are the *same* [`Server`](crate::Server) type over
//! different [`ServeBackend`](crate::ServeBackend)s, so admission
//! control, QoS scheduling, cancellation, deadlines, accounting and
//! the execution path itself are literally shared code — a workload
//! moves between the two without changing its submission logic, and
//! scheduler groups form exactly the same way. Each group's queries
//! execute back-to-back on the sharded engine (sharing devices, not
//! fetches).
//!
//! Results are bit-identical — outputs and iteration counts — to solo
//! [`Engine`](emogi_core::Engine) runs of the same queries, because
//! sharded execution itself is (see [`emogi_core::sharded`]).
//!
//! ```
//! use emogi_core::sharded::{ShardedConfig, ShardedEngine};
//! use emogi_graph::{algo, generators};
//! use emogi_serve::{Query, ServerConfig, ShardedServer};
//!
//! let graph = generators::kronecker(9, 8, 21);
//! let engine = ShardedEngine::load(ShardedConfig::emogi_v100(2), &graph);
//! let mut server = ShardedServer::new(ServerConfig::default(), engine);
//!
//! let id = server.submit(Query::bfs(1)).unwrap();
//! assert_eq!(server.run_pending(), 1);
//! let run = server.take(id).unwrap().into_bfs();
//! assert_eq!(run.levels, algo::bfs_levels(&graph, 1));
//! ```
//!
//! The `ShardedServer` alias itself lives in [`crate::server`]; this
//! module keeps the sharded-specific behavioural tests.

#[cfg(test)]
mod tests {
    use crate::query::{Query, SubmitError};
    use crate::server::{ServerConfig, ShardedServer};
    use emogi_core::sharded::{ShardedConfig, ShardedEngine};
    use emogi_core::{Engine, EngineConfig};
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::{algo, generators};
    use std::sync::Arc;

    #[test]
    fn sharded_server_matches_solo_engine_runs() {
        let g = generators::kronecker(9, 8, 11);
        let w = Arc::new(generate_weights(g.num_edges(), 11));
        let engine = ShardedEngine::load(ShardedConfig::emogi_v100(2), &g);
        let mut server = ShardedServer::new(ServerConfig::default(), engine);

        let b = server.submit(Query::bfs(0)).unwrap();
        let s = server.submit(Query::sssp(3, Arc::clone(&w))).unwrap();
        assert_eq!(server.run_pending(), 2);
        assert_eq!(server.stats().batches, 2, "kind-pure groups");
        assert_eq!(server.stats().batched_queries, 0, "no fetch sharing");

        let mut solo = Engine::load(EngineConfig::emogi_v100(), &g);
        let bfs = server.take(b).unwrap().into_bfs();
        let want = solo.bfs(0);
        assert_eq!(bfs.levels, want.levels);
        assert_eq!(bfs.stats.kernel_launches, want.stats.kernel_launches);
        let sssp = server.take(s).unwrap().into_sssp();
        let want = solo.sssp(&w, 3);
        assert_eq!(sssp.dist, want.dist);
        assert_eq!(sssp.stats.kernel_launches, want.stats.kernel_launches);
    }

    #[test]
    fn sharded_server_serves_full_sweeps_across_the_group() {
        let g = generators::uniform_random(500, 6, 17);
        let engine = ShardedEngine::load(ShardedConfig::emogi_v100(2), &g);
        let mut server = ShardedServer::new(ServerConfig::default(), engine);
        let cc = server.submit(Query::cc()).unwrap();
        let pr = server.submit(Query::pagerank(0.85, 4)).unwrap();
        assert_eq!(server.run_pending(), 2);

        let mut solo = Engine::load(EngineConfig::emogi_v100(), &g);
        let got = server.take(cc).unwrap().into_cc();
        assert_eq!(got.output.comp, solo.cc().output.comp);
        let got = server.take(pr).unwrap().into_pagerank();
        let want = solo.pagerank(0.85, 4);
        assert_eq!(got.output.ranks, want.output.ranks);
    }

    #[test]
    fn sharded_server_admission_mirrors_the_single_device_server() {
        let g = generators::uniform_random(100, 4, 1);
        let engine = ShardedEngine::load(ShardedConfig::emogi_v100(2), &g);
        let mut server = ShardedServer::new(
            ServerConfig {
                queue_capacity: 1,
                ..ServerConfig::default()
            },
            engine,
        );
        // A spec `check` refuses is refused with its error.
        let bad = Query::sssp(0, Arc::new(vec![1, 2]));
        let why = bad.spec.check(&g).unwrap_err();
        assert_eq!(server.submit(bad), Err(SubmitError::Invalid(why)));
        let a = server.submit(Query::bfs(0)).unwrap();
        assert_eq!(
            server.submit(Query::bfs(1)),
            Err(SubmitError::QueueFull { capacity: 1 })
        );
        assert_eq!(server.stats().rejected, 2);
        assert_eq!(server.run_pending(), 1);
        // The unredeemed outcome still holds the only slot.
        assert_eq!(
            server.submit(Query::bfs(1)),
            Err(SubmitError::QueueFull { capacity: 1 })
        );
        server.take(a).unwrap();
        server.submit(Query::bfs(1)).unwrap();
        assert_eq!(algo::bfs_levels(&g, 0).len(), 100);
    }

    #[test]
    fn both_front_ends_normalize_max_batch_identically() {
        // Regression test: ShardedServer::new used to store the config
        // verbatim while QueryServer::new clamped max_batch — the shared
        // constructor normalizes both the same way.
        let g = generators::uniform_random(100, 4, 1);
        let wild = ServerConfig {
            max_batch: 0,
            ..ServerConfig::default()
        };
        let mut sharded = ShardedServer::new(
            wild.clone(),
            ShardedEngine::load(ShardedConfig::emogi_v100(2), &g),
        );
        let mut single =
            crate::server::QueryServer::new(wild, Engine::load(EngineConfig::emogi_v100(), &g));
        // max_batch 0 would make the scheduler plan empty batches
        // forever; clamping to 1 keeps both paths serving.
        for server_runs in [
            {
                sharded.submit(Query::bfs(0)).unwrap();
                sharded.run_pending()
            },
            {
                single.submit(Query::bfs(0)).unwrap();
                single.run_pending()
            },
        ] {
            assert_eq!(server_runs, 1);
        }
        let huge = ServerConfig {
            max_batch: usize::MAX,
            ..ServerConfig::default()
        };
        let mut sharded =
            ShardedServer::new(huge, ShardedEngine::load(ShardedConfig::emogi_v100(2), &g));
        sharded.submit(Query::bfs(0)).unwrap();
        assert_eq!(sharded.run_pending(), 1, "oversized cap clamps, not panics");
    }
}
