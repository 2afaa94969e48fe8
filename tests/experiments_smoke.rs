//! Smoke tests over the experiment harness: every figure/table
//! regenerator runs at reduced scale and produces a well-formed table.
//! (Full-scale numbers come from `repro all` in release mode and are
//! recorded in EXPERIMENTS.md.)

use emogi_bench::{experiments, Context, Table};

fn ctx() -> Context {
    Context::new(1, 32)
}

/// One well-formed table under `id` with `rows` full-width rows.
fn assert_shape(t: &Table, id: &str, rows: usize) {
    assert_eq!(t.id, id);
    assert_eq!(t.rows.len(), rows);
    for row in &t.rows {
        assert_eq!(row.len(), t.headers.len());
    }
}

#[test]
fn quick_experiments_produce_tables() {
    // The cheap ones, run individually.
    for id in ["table1", "table2", "fig3", "fig4", "fig6"] {
        let tables = experiments::run(id, &ctx());
        assert!(!tables.is_empty(), "{id}");
        for t in &tables {
            assert!(!t.headers.is_empty(), "{id}");
            assert!(!t.rows.is_empty(), "{id}");
            for row in &t.rows {
                assert_eq!(row.len(), t.headers.len(), "{id} row width");
            }
        }
    }
}

#[test]
fn bfs_case_study_figures_share_one_matrix() {
    // fig5/7/8/9/10 all derive from the context's BFS matrix; run them
    // through the dispatcher once each to cover the id paths.
    let ctx = ctx();
    let tables: Vec<Table> = ["fig5", "fig7", "fig8", "fig9", "fig10"]
        .iter()
        .flat_map(|id| experiments::run(id, &ctx))
        .collect();
    assert_eq!(tables.len(), 5);
    for t in &tables {
        assert!(!t.rows.is_empty(), "{}", t.id);
    }
    // Figure 9's average row must show the merged engines ahead of naive.
    let fig9 = &tables[3];
    let avg = fig9.rows.last().unwrap();
    let naive: f64 = avg[1].parse().unwrap();
    let aligned: f64 = avg[3].parse().unwrap();
    assert!(aligned > naive, "aligned {aligned} must beat naive {naive}");
}

#[test]
fn ablations_run_and_report() {
    let tables = experiments::run("ablations", &ctx());
    assert_eq!(tables.len(), 5);
}

#[test]
fn hybrid_experiment_produces_table_and_hybrid_wins_reuse() {
    let r = experiments::hybrid::measure(&ctx());
    // 3 scenarios x 4 engines.
    assert_shape(&experiments::hybrid::table(&r), "hybrid", 12);
    // Assert on the raw measurements, not the table's rounded cells: a
    // strict win over pure zero-copy on both reuse scenarios, and on
    // the sparse one-shot case never worse than the better of zero-copy
    // and Subway. (UVM may win tiny reuse scenarios where its page pool
    // holds the whole scaled edge list; that is the caching baseline
    // working, not a hybrid regression.)
    let ns = |scenario, engine| r.get((scenario, engine)).stats.elapsed_ns;
    assert!(ns("reuse-cc", "Hybrid") < ns("reuse-cc", "Merged+Aligned"));
    assert!(ns("reuse-multi-bfs", "Hybrid") < ns("reuse-multi-bfs", "Merged+Aligned"));
    let sparse = ns("sparse-bfs", "Hybrid");
    assert!(sparse <= ns("sparse-bfs", "Merged+Aligned"));
    assert!(sparse <= ns("sparse-bfs", "Subway-async"));
}

#[test]
fn pagerank_experiment_verifies_all_modes() {
    let tables = experiments::run("pagerank", &ctx());
    assert_eq!(tables.len(), 1);
    // 2 graphs x 4 access modes, every cell verified against the CPU
    // reference inside measure() itself.
    assert_shape(&tables[0], "pagerank", 8);
}

#[test]
fn overlap_experiment_produces_table_and_pipelining_wins() {
    let r = experiments::overlap::measure(&ctx());
    // 4 programs, one pipelined-vs-synchronous row each.
    assert_shape(&experiments::overlap::table(&r), "overlap", 4);
    // Assert on the raw measurements, not the table's rounded cells:
    // the pipelined engine must show a real end-to-end win on at least
    // one program, never lose on any, and the win must come from
    // adopted speculation whose staging latency was genuinely hidden.
    let (_, best) = r
        .rows
        .iter()
        .max_by(|a, b| a.1.speedup().total_cmp(&b.1.speedup()))
        .unwrap();
    assert!(
        best.speedup() > 1.0,
        "best overlap speedup {}",
        best.speedup()
    );
    assert!(best.pipe.prefetch.hit_regions > 0);
    assert!(best.pipe.prefetch.hidden_ns > 0);
    for (program, m) in &r.rows {
        assert!(
            m.pipe.elapsed_ns <= m.sync.elapsed_ns,
            "{program} got slower pipelined"
        );
    }
}

#[test]
fn sla_experiment_produces_table_and_edf_beats_fifo() {
    let r = experiments::sla::measure(&ctx());
    // One row per scheduling policy; digest-equality of every executed
    // output against solo runs is asserted inside measure() itself.
    assert_shape(&experiments::sla::table(&r), "sla", 2);
    // The acceptance bar: on the identical mixed burst, EDF must beat
    // FIFO on deadline-hit rate — and meet every deadline outright,
    // since the latency class runs first under EDF.
    let (fifo, edf) = (&r.get("FIFO").stats, &r.get("EDF").stats);
    assert!(
        edf.deadline_hit_rate() > fifo.deadline_hit_rate(),
        "EDF hit rate {} must beat FIFO {}",
        edf.deadline_hit_rate(),
        fifo.deadline_hit_rate()
    );
    assert_eq!(edf.deadline_missed + edf.deadline_cancelled, 0);
    assert!(fifo.deadline_met < fifo.deadline_met + fifo.deadline_missed + fifo.deadline_cancelled);
}

#[test]
fn scaling_experiment_produces_table_and_scales() {
    let tables = experiments::run("scaling", &ctx());
    assert_eq!(tables.len(), 1);
    let t = &tables[0];
    // 3 device counts x 2 partitioners, outputs verified against the
    // CPU reference inside measure() itself.
    assert_shape(t, "scaling", 6);
    // Assert the acceptance bars on the table's speedup column (one
    // measure() run serves both checks): ≥1.6x at 2 devices and ≥2.5x
    // at 4 with degree-balanced shards on GK.
    let speedup = |devices: &str| -> f64 {
        t.rows
            .iter()
            .find(|r| r[0] == devices && r[1] == "degree-balanced")
            .unwrap_or_else(|| panic!("no {devices}-device degree-balanced row"))[3]
            .parse()
            .unwrap()
    };
    let (s2, s4) = (speedup("2"), speedup("4"));
    assert!(s2 >= 1.6, "2-device speedup {s2:.2}");
    assert!(s4 >= 2.5, "4-device speedup {s4:.2}");
}

#[test]
fn layout_experiment_produces_table_and_reordering_wins() {
    let r = experiments::layout::measure(&ctx());
    // 4 programs x 2 layouts; bit-identity across layouts is asserted
    // inside measure() itself.
    assert_shape(&experiments::layout::table(&r), "layout", 8);
    // Assert on the raw measurements, not the table's rounded cells:
    // for every program the degree-sorted layout must beat the original
    // ids on BOTH cache metrics.
    for program in ["multi-bfs", "multi-sssp", "cc", "pagerank"] {
        let base = r.get((program, "original"));
        let sorted = r.get((program, "degree-sorted"));
        assert!(
            sorted.l2_hit_rate() > base.l2_hit_rate()
                && sorted.coalescing_efficiency() > base.coalescing_efficiency(),
            "{program}: degree-sorted did not beat the original on both metrics"
        );
    }
}

#[test]
fn tiering_experiment_beats_the_host_spill_baseline() {
    let r = experiments::tiering::measure(&ctx());
    // 3 engines; digest equality across engines is asserted inside
    // measure() itself.
    assert_shape(&experiments::tiering::table(&r), "tiering", 3);
    // Assert on the raw measurements, not the table's rounded cells.
    let spill = &r.engines.get("host-spill").stats;
    let tiered = &r.engines.get("three-tier").stats;
    let two_tier = &r.engines.get("two-tier (unbounded)").stats;
    assert!(r.cxl_home_bytes > 0, "nothing spilled to the CXL tier");
    assert!(
        spill.cxl_bytes > 0,
        "the baseline never touched the CXL tier"
    );
    assert!(
        tiered.elapsed_ns < spill.elapsed_ns,
        "three-tier {} must beat host-spill {}",
        tiered.elapsed_ns,
        spill.elapsed_ns
    );
    assert!(
        tiered.transfer.staged_regions > 0,
        "the tiered run never staged"
    );
    assert!(
        two_tier.cxl_bytes == 0,
        "the unbounded-host reference touched the CXL tier"
    );
}

#[test]
#[should_panic(expected = "unknown experiment id")]
fn unknown_id_is_rejected() {
    let _ = experiments::run("fig99", &ctx());
}

#[test]
fn markdown_export_is_well_formed() {
    let tables = experiments::run("table2", &ctx());
    let md = tables[0].to_markdown();
    assert!(md.starts_with("### table2"));
    assert!(md.matches('|').count() > 10);
}
