//! Property-based tests (proptest) over the core data structures and the
//! end-to-end engines.
//!
//! Seeded mutations this file is known to catch:
//! `every_program_strategy_placement_matches_the_cpu_references` fails
//! under each of the program mutations listed in `tests/correctness.rs`
//! (BFS levels one deep, SSSP's shifted weight, CC's extra hook pass,
//! PageRank's extra sweep, `spec::run`'s extra PageRank iteration).
//!
//! The proptest shim derives each test's seed from its name, so every
//! failure reproduces locally with a plain `cargo test --test
//! proptests`; CI pins `EMOGI_PROPTEST_SEED` explicitly (see
//! `.github/workflows/ci.yml`) and the same variable reproduces that
//! exact run.

mod common;

use common::*;
use emogi_repro::core::{AccessStrategy, Engine, EngineConfig, ProgramSpec, Transport};
use emogi_repro::gpu::access::{LaneAccess, Space};
use emogi_repro::gpu::cache::{CacheConfig, SectoredCache};
use emogi_repro::gpu::coalesce::{Coalescer, Transaction};
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::graph::{CsrGraph, EdgeListBuilder, LayoutPlan};
use emogi_repro::sim::events::EventQueue;
use proptest::prelude::*;

/// Sector span (sector-aligned byte range) of an access.
fn sectors_of(addr: u64, size: u8) -> std::ops::RangeInclusive<u64> {
    (addr / 32)..=((addr + u64::from(size) - 1) / 32)
}

fn arb_access() -> impl Strategy<Value = LaneAccess> {
    (0u64..4096, prop_oneof![Just(4u8), Just(8u8)], any::<u8>()).prop_map(|(slot, size, instr)| {
        let mut a = LaneAccess::load(slot * 8, size, Space::HostPinned);
        a.instr = instr % 4;
        a
    })
}

proptest! {
    /// The coalescer must cover exactly the sector set of its input — no
    /// sector missed, no sector invented, no overlap within an
    /// instruction group, and only 32/64/96/128-byte requests.
    #[test]
    fn coalescer_covers_exactly_the_requested_sectors(
        accesses in prop::collection::vec(arb_access(), 1..64)
    ) {
        let mut c = Coalescer::new();
        let mut out: Vec<Transaction> = Vec::new();
        c.coalesce(&accesses, &mut out);

        // Expected sector set per instruction group.
        let mut want: std::collections::BTreeSet<(u8, u64)> = Default::default();
        for a in &accesses {
            for s in sectors_of(a.addr, a.size) {
                want.insert((a.instr, s));
            }
        }
        let mut got: std::collections::BTreeSet<(u8, u64)> = Default::default();
        for t in &out {
            prop_assert!(matches!(t.size, 32 | 64 | 96 | 128));
            prop_assert_eq!(t.addr / 128, (t.addr + u64::from(t.size) - 1) / 128,
                "transaction must stay within one 128B line");
            // Reverse-map the transaction to (instr, sector) pairs: any
            // instruction group whose sectors it covers counts; we only
            // check the union below, plus per-group non-overlap.
            for s in (t.addr / 32)..((t.addr + u64::from(t.size)) / 32) {
                got.insert((255, s));
            }
        }
        let want_union: std::collections::BTreeSet<u64> =
            want.iter().map(|&(_, s)| s).collect();
        let got_union: std::collections::BTreeSet<u64> =
            got.iter().map(|&(_, s)| s).collect();
        prop_assert_eq!(want_union, got_union);
    }

    /// CSR building from an arbitrary edge list preserves exactly the
    /// deduplicated, loop-free adjacency relation.
    #[test]
    fn csr_builder_preserves_adjacency(
        edges in prop::collection::vec((0u32..64, 0u32..64), 0..400)
    ) {
        let mut b = EdgeListBuilder::new(64);
        for &(s, d) in &edges {
            b.push(s, d);
        }
        let g = b.build();
        let mut want: std::collections::BTreeSet<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|&(s, d)| s != d)
            .collect();
        for v in 0..64u32 {
            for &d in g.neighbors(v) {
                prop_assert!(want.remove(&(v, d)), "unexpected edge ({v},{d})");
            }
        }
        prop_assert!(want.is_empty(), "missing edges: {want:?}");
    }

    /// The cache never reports a hit for a sector that was not filled,
    /// and always hits a just-filled sector.
    #[test]
    fn cache_hits_are_sound(ops in prop::collection::vec((0u64..64, 1u8..16, any::<bool>()), 1..300)) {
        let mut c = SectoredCache::new(&CacheConfig {
            capacity_bytes: 2048, // 16 lines: small enough to force evictions
            ways: 4,
            hit_latency_ns: 1,
        });
        let mut filled: std::collections::BTreeSet<(u64, u8)> = Default::default();
        for (line_no, mask, is_fill) in ops {
            let line = line_no * 128;
            let mask = mask & 0xF;
            if mask == 0 {
                continue;
            }
            if is_fill {
                c.fill(line, mask);
                for b in 0..4u8 {
                    if mask & (1 << b) != 0 {
                        filled.insert((line, b));
                    }
                }
                prop_assert!(c.contains(line, mask), "fill must be immediately visible");
            } else {
                let hit = c.probe(line, mask);
                for b in 0..4u8 {
                    if hit & (1 << b) != 0 {
                        prop_assert!(
                            filled.contains(&(line, b)),
                            "hit for never-filled sector {b} of line {line:#x}"
                        );
                    }
                }
            }
        }
    }

    /// The event queue is a stable priority queue: pops are globally
    /// time-ordered and FIFO within a timestamp.
    #[test]
    fn event_queue_is_stable_and_ordered(times in prop::collection::vec(0u64..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut prev: Option<(u64, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((pt, pi)) = prev {
                prop_assert!(t > pt || (t == pt && i > pi), "order violated");
            }
            prev = Some((t, i));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: BFS equals reference BFS on arbitrary undirected
    /// graphs, for every named configuration. Expensive, so few cases.
    #[test]
    fn emogi_bfs_equals_reference_on_arbitrary_graphs(
        edges in common::edges(96, 500),
        (name, cfg) in common::any_config(),
    ) {
        let g: CsrGraph = common::build_graph(&edges, 96);
        let src = edges[0].0.min(edges[0].1);
        prop_assume!(g.degree(src) > 0);
        let bfs = [ProgramSpec::Bfs { src }];
        let got = Shape::Solo.run(&Side::new(cfg, &g, &bfs));
        assert_outputs_match(&got, &reference_answers(&g, &bfs), name);
    }

    /// Every program × every access strategy × every placement (the
    /// named configurations' transports, each under a strategy drawn
    /// independently of the one its name implies — UVM × Naive and
    /// Subway × Naive included, compressed × Naive discarded) agrees
    /// with the CPU references on arbitrary undirected weighted graphs —
    /// the full engine matrix behind the vertex-program redesign, BFS,
    /// SSSP, CC and PageRank alike, on one placement.
    #[test]
    fn every_program_strategy_placement_matches_the_cpu_references(
        edges in common::edges(80, 300),
        (name, cfg) in common::any_config(),
        strategy in 0usize..3,
    ) {
        let g: CsrGraph = common::build_graph(&edges, 80);
        let src = edges[0].0.min(edges[0].1);
        prop_assume!(g.degree(src) > 0);
        let specs = four_programs(src, &generate_weights(g.num_edges(), 7), 8);
        let strategy = AccessStrategy::all()[strategy];
        // The one illegal pair: the driver refuses compressed lists under
        // Naive, whose lanes cannot find an element of a varint stream
        // without decoding the list before it.
        let compressed = matches!(cfg.transport, Transport::Compressed);
        prop_assume!(strategy.warp_per_vertex() || !compressed);
        let got = Shape::Solo.run(&Side::new(cfg.with_strategy(strategy), &g, &specs));
        let tag = format!("{name} as {}", strategy.name());
        assert_outputs_match(&got, &reference_answers(&g, &specs), &tag);
    }

    /// Hybrid mode is a pure transport optimization: on any graph, its
    /// results equal the Merged+Aligned zero-copy engine's on every
    /// program, bit for bit, even as staging decisions diverge across
    /// the runs.
    #[test]
    fn hybrid_transport_never_changes_results(
        edges in common::edges(64, 250),
    ) {
        let g: CsrGraph = common::build_graph(&edges, 64);
        let src = edges[0].0.min(edges[0].1);
        prop_assume!(g.degree(src) > 0);
        let specs = four_programs(src, &generate_weights(g.num_edges(), 7), 5);
        let zero_copy = Side::new(EngineConfig::emogi_v100(), &g, &specs);
        let hybrid = Side::new(EngineConfig::hybrid_v100(), &g, &specs);
        assert_equivalent(&zero_copy, &hybrid, &[Shape::Solo], Strength::Results, "hybrid");
    }

    /// Metamorphic: a random vertex relabeling never changes any
    /// program's results — sources map in, outputs map back through the
    /// inverse permutation, bit for bit (the structured cache-aware
    /// layouts, the other configurations and the other shapes get their
    /// own harness in `layout_differential.rs`).
    #[test]
    fn random_relabeling_never_changes_results(
        g in common::graph(64, 250),
        src in 0u32..64,
        perm_seed in any::<u64>(),
    ) {
        let specs = four_programs(src, &generate_weights(g.num_edges(), 13), 7);
        let identity = Side::new(EngineConfig::emogi_v100(), &g, &specs);
        let plan = LayoutPlan::from_perm(common::random_permutation(64, perm_seed));
        let relabeled = identity.relabeled(plan);
        assert_equivalent(&identity, &relabeled, &[Shape::Solo], Strength::Results, "random");
    }

    /// The aligned strategy can only reduce the number of PCIe requests
    /// relative to merged, never increase it, on any graph.
    #[test]
    fn alignment_never_increases_requests(
        g in common::graph(128, 400),
    ) {
        prop_assume!(g.degree(0) > 0);
        let reqs = |strategy| {
            let mut sys = Engine::load(EngineConfig::emogi_v100().with_strategy(strategy), &g);
            sys.bfs(0).stats.pcie_read_requests
        };
        let merged = reqs(AccessStrategy::Merged);
        let aligned = reqs(AccessStrategy::MergedAligned);
        prop_assert!(aligned <= merged, "aligned {aligned} > merged {merged}");
    }
}
