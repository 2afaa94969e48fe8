//! The one place an experiment's result is asserted. Each claim test runs
//! one group of `experiments::REGISTRY` ids once, at 1/32 of the standard
//! scale with one source, and states what the group is evidence for. Each
//! test's id constant is what it passes to `run`, or checks the id of the
//! table it builds against; `every_registry_id_is_claimed` holds the
//! listed ids to the registry, so an experiment added to the registry
//! but to no test's list fails here. The experiment modules
//! assert only in-run identities (digests, CPU references). Full-scale
//! tables come from `repro all`, as markdown with `--markdown FILE`
//! (EXPERIMENTS.md is generated that way, not committed).
//!
//! A claim row ([`claim`]) holds a measured number to a band: as
//! `measured / paper` for a number the paper reports (typed once in
//! `emogi_bench::paper`), as the measured value itself otherwise. A row
//! without a known gap must lie inside its band; a row with one must lie
//! outside it and name the reason, so a model change that closes or
//! opens a gap fails that row by name instead of being absorbed by a
//! re-pinned golden.
//!
//! Seeded mutations it is known to catch, on a scratch copy (the deleted
//! `experiments/` unit tests each stood for, in brackets):
//! - staging off (`MemoryTier::stage_threshold` and `DENSE_NOW`
//!   infinite):
//!   hybrid, pagerank, overlap, tiering [hybrid, pagerank, overlap];
//! - `LayoutPlan::degree_sorted` the identity: layout [layout];
//! - `TransferManager::prefetch_for_next` issuing nothing: overlap; EDF
//!   keyed like FIFO: sla;
//! - `Engine`'s `Front::run_merged` returning `None`: serve, sla [serve];
//! - `FRONTIER_UPDATE_BYTES` 512: scaling [both scaling tests];
//! - `emogi_v100` on the Naive strategy: case study, fig12, table3 and
//!   four more [matrix, case study ×2, fig11, fig12, table3];
//! - every toy pattern merged: quick, ablations [fig3, fig4]; the tag or
//!   RTT sweep ignoring its knob: ablations [tag, RTT sweeps];
//! - `DegreeCdf::cdf_at` or `average_degree` inverted: quick [fig6,
//!   table2, table1]; A100 Gen4 on a Gen3 link: fig12; amplification
//!   doubled: case study; Subway gathering at 400 GB/s: table3;
//! - the cache sweep's sizes divided by the scale: `abl-cache`'s known
//!   gap closes and fails by name [cache sweep].
//! - table3's HALO rows on `emogi_v100` instead of `uvm_v100`: table3,
//!   at both seeds ("HALO BFS ML: 0.990 outside its band") [HALO's
//!   `halo_uses_uvm_not_zero_copy`].

use emogi_bench::experiments::matrix::EngineKind::{Merged, MergedAligned, Naive, Uvm};
use emogi_bench::experiments::{self, apps, hybrid, layout, overlap, pagerank};
use emogi_bench::experiments::{scaling, serve, sla, tiering};
use emogi_bench::{paper, Context, Table};
use emogi_repro::graph::DatasetKey::{self, Fs, Gk, Ml, Sk, Uk5};
use emogi_repro::prelude::ProgramKind::{Bfs, Cc, Sssp};

fn ctx() -> Context {
    Context::new(1, 32)
}

// The registry ids each test checks; the guard holds their union to the
// registry.
const QUICK: &[&str] = &["table1", "table2", "fig3", "fig4", "fig6"];
const CASE_STUDY: &[&str] = &["fig5", "fig7", "fig8", "fig9", "fig10", "fig11"];
const FIG12: &str = "fig12";
const TABLE3: &str = "table3";
const ABLATIONS: &str = "ablations";
const HYBRID: &str = "hybrid";
const PAGERANK: &str = "pagerank";
const OVERLAP: &str = "overlap";
const LAYOUT: &str = "layout";
const SERVE: &str = "serve";
const SLA: &str = "sla";
const SCALING: &str = "scaling";
const TIERING: &str = "tiering";

/// Within 25 % of the paper's number, either way.
const PAPER: (f64, f64) = (0.8, 1.25);
/// Within 2× of the paper's speedup: Table 3 reruns two other systems'
/// models as well as EMOGI's.
const WITHIN_2X: (f64, f64) = (0.5, 2.0);
/// Below the paper's bound.
const AT_MOST: (f64, f64) = (0.0, 1.0);
/// Above 1: the numerator of the ratio a row's id names is the larger.
const WIN: (f64, f64) = above(1.0);

const fn above(lo: f64) -> (f64, f64) {
    (lo, f64::INFINITY)
}

// Known gaps: why a row misses its band at this scale, or at every one.
const UVM_FITS: Option<&str> = Some("1/32-scale graphs fit the UVM pool: UVM never evicts");
const LATENCY: Option<&str> = Some("short 1/32-scale launches stay latency-bound (fig8's note)");
const SECTOR_MERGE: Option<&str> = Some("the model merges Naive's reads per 32 B sector, always");
const ALIGN_GAIN: Option<&str> = Some("alignment adds far less bandwidth, at scale 1 too");
const CACHE_FITS: Option<&str> = Some("GK's 0.90 MB edge list fits the smallest 1 MiB cache");
const SUBWAY_ROUNDS: Option<&str> = Some("Subway's per-round build + copy dominate short rounds");
const TIER_TIE: Option<&str> =
    Some("split hubs hide host-spill's CXL latency: promotion ties (0.97 at 1/32, 1.01 at 1/4)");
const L2_PAIR: Option<&str> =
    Some("an SSSP pair near a full L2 takes 1.9x solo, status layout or not (ROADMAP 11)");

/// Check one claim row: `measured / paper` (or `measured`, without a
/// paper number) must lie inside the open interval `band` — unbounded
/// above when `band.1` is infinite, so a win over a zero denominator
/// counts — or, for a row with a known `gap`, outside it. A NaN row
/// fails either way.
fn claim(id: &str, measured: f64, paper: Option<f64>, band: (f64, f64), gap: Option<&str>) {
    let v = measured / paper.unwrap_or(1.0);
    assert!(!v.is_nan(), "{id}: {measured} / {paper:?} is NaN");
    let inside = band.0 < v && (band.1.is_infinite() || v < band.1);
    match gap {
        None => assert!(inside, "{id}: {v:.3} outside its band {band:?}"),
        Some(why) => assert!(!inside, "{id}: gap closed, {v:.3} in {band:?} ({why})"),
    }
}

/// Run `ids` on `ctx` into `N` well-formed tables, in order.
fn run<const N: usize>(ctx: &Context, ids: &[&str]) -> [Table; N] {
    let tables: Vec<Table> = ids.iter().flat_map(|i| experiments::run(i, ctx)).collect();
    for t in &tables {
        let width = t.headers.len();
        assert!(!t.rows.is_empty() && t.rows.iter().all(|r| r.len() == width));
    }
    tables.try_into().expect("table count")
}

/// `t` is the table `id` with `rows` rows.
fn assert_shape(t: &Table, id: &str, rows: usize) {
    assert_eq!((t.id, t.rows.len()), (id, rows));
}

/// Cell (`row`, `col`) of `t` as a number, a trailing `%` dropped.
fn num(t: &Table, row: usize, col: usize) -> f64 {
    t.rows[row][col].trim_end_matches('%').parse().unwrap()
}

#[test]
fn quick_experiments_produce_tables() {
    let [table1, table2, fig3, fig4, fig6] = &run(&ctx(), QUICK);
    assert!(table1.rows.len() >= 5 && table1.to_string().contains("V100"));
    // Six graphs, ML the densest.
    assert_shape(table2, "table2", 6);
    assert!((0..6).all(|g| num(table2, g, 4) <= num(table2, 3, 4)));
    // GU's edges all sit between degree 16 and 48.
    assert!(num(fig6, 1, 1) < 5.0 && num(fig6, 1, 4) > 90.0);
    // Strided issues 32 B requests, merged+aligned 128 B ones.
    assert_shape(fig3, "fig3", 3);
    assert!(num(fig3, 0, 2) > 95.0 && num(fig3, 1, 5) > 95.0);
    // strided < misaligned < aligned <= cudaMemcpy.
    let gbps = |row| num(fig4, row, 1);
    assert!(gbps(0) < gbps(2) && gbps(2) < gbps(1) && gbps(1) <= gbps(4) + 0.5);
    for (row, (pattern, pcie, dram)) in paper::FIG4.into_iter().enumerate() {
        let id = format!("fig4 {} PCIe", pattern.name());
        claim(&id, gbps(row), Some(pcie), PAPER, None);
        let id = format!("fig4 {} DRAM", pattern.name());
        claim(&id, num(fig4, row, 2), Some(dram), PAPER, None);
    }
    let (lo, hi) = paper::FIG4_UVM;
    claim("fig4 UVM", gbps(3), Some((lo + hi) / 2.0), PAPER, None);
    let memcpy = Some(paper::MEMCPY_PEAK);
    claim("fig4 memcpy", gbps(4), memcpy, PAPER, None);
}

#[test]
fn bfs_case_study_figures_share_one_matrix() {
    // fig5/7/8/9/10 and fig11's BFS rows derive from the context's one
    // BFS matrix; the claims read it raw, not the tables' rounded cells.
    let ctx = ctx();
    let tables: [Table; 6] = run(&ctx, CASE_STUDY);
    for (t, rows) in tables.iter().zip([18, 6, 6, 7, 6, 6 + 6 + 4 + 1]) {
        assert_eq!(t.rows.len(), rows, "{}", t.id);
    }
    let m = ctx.bfs_matrix();
    assert_eq!(m.cells.len(), 24);
    let graphs = DatasetKey::all();
    let avg = |f: &dyn Fn(DatasetKey) -> f64| graphs.map(f).iter().sum::<f64>() / 6.0;
    let max = |f: &dyn Fn(DatasetKey) -> f64| graphs.map(f).into_iter().fold(0.0, f64::max);
    let pct128 = |g, e| 100.0 * m.get(g, e).sizes.fraction(128);
    let cut = |g, a, b| 100.0 * (1.0 - m.get(g, b).requests as f64 / m.get(g, a).requests as f64);
    let gbps = |g, e| m.get(g, e).avg_gbps;

    let (p_avg, p_ml) = paper::FIG5_MERGED_128B;
    let share = avg(&|g| pct128(g, Merged));
    claim("fig5 Merged 128 B share", share, Some(p_avg), PAPER, None);
    let ml = pct128(Ml, Merged);
    claim("fig5 ML Merged 128 B share", ml, Some(p_ml), PAPER, None);
    let (p_merge, p_align) = paper::FIG7_CUTS;
    let merge = max(&|g| cut(g, Naive, Merged));
    claim("fig7 merge cut", merge, Some(p_merge), PAPER, SECTOR_MERGE);
    let align = cut(Ml, Merged, MergedAligned);
    claim("fig7 ML align cut", align, Some(p_align), PAPER, None);
    // fig8's note quotes the paper's cudaMemcpy peak; `fig4 memcpy`
    // checks the link model against it.
    let [uvm, naive, merged] = paper::FIG8;
    let fig8 = [
        ("fig8 UVM", avg(&|g| gbps(g, Uvm)), uvm),
        ("fig8 Naive peak", max(&|g| gbps(g, Naive)), naive),
        ("fig8 Merged", avg(&|g| gbps(g, Merged)), merged),
    ];
    for (id, measured, p) in fig8 {
        claim(id, measured, Some(p), PAPER, LATENCY);
    }
    let gain = avg(&|g| gbps(g, MergedAligned) - gbps(g, Merged));
    let (lo, hi) = paper::FIG8_ALIGN_GAIN;
    let mid = Some((lo + hi) / 2.0);
    claim("fig8 align gain", gain, mid, PAPER, ALIGN_GAIN);
    for (&e, p) in [Naive, Merged, MergedAligned].iter().zip(paper::FIG9_AVG) {
        let id = format!("fig9 {} average", e.name());
        let speedup = avg(&|g| m.speedup_vs_uvm(g, e));
        claim(&id, speedup, Some(p), PAPER, UVM_FITS);
    }
    let p_emogi = Some(paper::FIG10_EMOGI_MAX);
    for g in graphs {
        let sym = g.spec().symbol;
        let ns = |e| m.get(g, e).avg_ns;
        let id = format!("fig9 {sym} Naive / Merged+Aligned time");
        claim(&id, ns(Naive) / ns(MergedAligned), None, WIN, None);
        let id = format!("fig10 {sym} EMOGI amplification");
        let amp = m.get(g, MergedAligned).avg_amplification;
        claim(&id, amp, p_emogi, AT_MOST, None);
    }
    for (g, p) in paper::FIG10_UVM {
        let id = format!("fig10 {} UVM amplification", g.spec().symbol);
        let amp = m.get(g, Uvm).avg_amplification;
        let gap = if g == Sk { None } else { UVM_FITS };
        claim(&id, amp, Some(p), PAPER, gap);
    }
    let fig11 = num(&tables[5], 16, 4);
    claim("fig11 average speedup", fig11, None, WIN, None);
    let p_fig11 = Some(paper::FIG11_AVG);
    claim("fig11 average speedup", fig11, p_fig11, PAPER, UVM_FITS);
}

#[test]
fn fig12_emogi_gains_more_from_pcie4_than_uvm() {
    let (t, uvm, emogi) = apps::fig12(&ctx());
    assert_shape(&t, FIG12, 16);
    let (p_uvm, p_emogi) = paper::FIG12_GEN4;
    claim("fig12 UVM speedup", uvm, Some(p_uvm), PAPER, None);
    claim("fig12 EMOGI speedup", emogi, Some(p_emogi), PAPER, LATENCY);
    claim("fig12 EMOGI / UVM speedup", emogi / uvm, None, WIN, None);
}

#[test]
fn table3_emogi_beats_halo_and_subway_on_every_row() {
    let [t] = &run(&ctx(), &[TABLE3]);
    assert_eq!(t.rows.len(), paper::TABLE3.len());
    for (row, (work, app, g, p)) in paper::TABLE3.into_iter().enumerate() {
        let id = format!("table3 {work} {} {}", app.name(), g.spec().symbol);
        let gap = match (work, app, g) {
            ("HALO", _, Fs) => UVM_FITS,
            ("Subway", Bfs, Gk) => LATENCY,
            ("Subway", Cc, _) | ("Subway", Sssp, Fs | Sk | Uk5) => SUBWAY_ROUNDS,
            _ => None,
        };
        claim(&id, num(t, row, 5), None, WIN, None);
        claim(&id, num(t, row, 5), Some(p), WITHIN_2X, gap);
    }
}

#[test]
fn ablations_run_and_report() {
    let [mshr, cache, tags, rtt, compress] = &run(&ctx(), &[ABLATIONS]);
    let ratio = |t: &Table, col, a, b| num(t, a, col) / num(t, b, col);
    // Merged kernels ignore the per-warp read limit; Naive's per-lane
    // parallelism lives on it.
    let (naive, merged) = (ratio(mshr, 2, 0, 3), ratio(mshr, 1, 0, 3));
    claim("abl-mshr Naive 2/16", naive, None, above(1.5), None);
    claim("abl-mshr M+A 2/16", merged, None, (0.9, 1.1), None);
    // A smaller cache cannot amplify less, and should cost time.
    assert!(num(cache, 0, 2) >= num(cache, 3, 2) - 0.05);
    let slowdown = ratio(cache, 1, 0, 3);
    claim("abl-cache 1/24 MiB", slowdown, None, WIN, CACHE_FITS);
    // 32 B requests are tag- and latency-bound, 128 B ones wire-bound.
    let (strided, merged) = (ratio(tags, 1, 3, 0), ratio(tags, 2, 3, 1));
    claim("abl-tags Strided 512/64", strided, None, above(1.8), None);
    claim("abl-tags M+A 512/128", merged, None, (0.75, 1.25), None);
    let latency = ratio(rtt, 1, 0, 3);
    claim("abl-rtt Strided 400/1600", latency, None, above(1.5), None);
    // The interconnect moves several times fewer bytes.
    for row in 0..3 {
        let id = format!("abl-compress {} raw / compressed MB", compress.rows[row][0]);
        let saved = num(compress, row, 2) / num(compress, row, 3);
        claim(&id, saved, None, above(2.0), None);
    }
}

#[test]
fn hybrid_experiment_produces_table_and_hybrid_wins_reuse() {
    let r = hybrid::measure(&ctx());
    assert_shape(&hybrid::table(&r), HYBRID, 12);
    // A strict win over pure zero-copy on both reuse scenarios, by
    // staging; on the sparse one-shot case no staging and never worse
    // than zero-copy or Subway. (UVM may win tiny reuse scenarios where
    // its pool holds the whole scaled edge list: the caching baseline
    // working.)
    let stats = |scenario, engine| &r.get((scenario, engine)).stats;
    let ns = |scenario, engine| stats(scenario, engine).elapsed_ns as f64;
    for s in ["reuse-cc", "reuse-multi-bfs"] {
        let id = format!("hybrid {s} zero-copy / hybrid time");
        let win = ns(s, "Merged+Aligned split") / ns(s, "Hybrid");
        claim(&id, win, None, WIN, None);
    }
    assert!(stats("reuse-cc", "Hybrid").transfer.staged_regions > 0);
    assert_eq!(stats("sparse-bfs", "Hybrid").transfer.staged_regions, 0);
    let sparse = ns("sparse-bfs", "Hybrid");
    assert!(sparse <= ns("sparse-bfs", "Merged+Aligned split"));
    assert!(sparse <= ns("sparse-bfs", "Subway-async"));
}

#[test]
fn pagerank_experiment_verifies_all_modes() {
    let r = pagerank::measure(&ctx());
    assert_shape(&pagerank::table(&r), PAGERANK, 10);
    for ((graph, mode), m) in &r.rows {
        assert!(m.max_abs_err < 1e-9, "{graph} / {mode}");
        // Only hybrid stages.
        let staged = m.stats.transfer.staged_regions > 0;
        assert_eq!(staged, *mode == "Hybrid", "{graph} / {mode}");
    }
    // Repeated full sweeps are hybrid's best case, against zero-copy on
    // the same split-hub kernel: the ratio is the transport's alone.
    for graph in ["GK", "ML"] {
        let ns = |mode| r.get((graph, mode)).stats.elapsed_ns as f64;
        let id = format!("pagerank {graph} zero-copy / hybrid time");
        claim(
            &id,
            ns("Merged+Aligned split") / ns("Hybrid"),
            None,
            WIN,
            None,
        );
    }
}

#[test]
fn overlap_experiment_produces_table_and_pipelining_wins() {
    let r = overlap::measure(&ctx());
    assert_shape(&overlap::table(&r), OVERLAP, 4);
    // A real end-to-end win on at least one program, from adopted
    // speculation whose staging latency was hidden; no program slower.
    let (_, best) = r
        .rows
        .iter()
        .max_by(|a, b| a.1.speedup().total_cmp(&b.1.speedup()))
        .unwrap();
    claim("overlap best speedup", best.speedup(), None, WIN, None);
    assert!(best.pipe.prefetch.hit_regions > 0 && best.pipe.prefetch.hidden_ns > 0);
    assert!(best.hidden_frac() > 0.0);
    for (program, m) in &r.rows {
        assert!(m.pipe.elapsed_ns <= m.sync.elapsed_ns, "{program} slower");
    }
}

#[test]
fn layout_experiment_produces_table_and_reordering_wins() {
    let r = layout::measure(&ctx());
    assert_shape(&layout::table(&r), LAYOUT, 8);
    // Degree-sorted beats the original ids on both cache metrics, for
    // every program.
    for program in ["multi-bfs", "multi-sssp", "cc", "pagerank"] {
        let base = r.get((program, "original"));
        let sorted = r.get((program, "degree-sorted"));
        let hits = sorted.l2_hit_rate() / base.l2_hit_rate();
        let id = format!("layout {program} L2 hit rate");
        claim(&id, hits, None, WIN, None);
        let eff = sorted.coalescing_efficiency() / base.coalescing_efficiency();
        let id = format!("layout {program} coalescing");
        claim(&id, eff, None, WIN, None);
    }
}

#[test]
fn serve_experiment_batches_better_than_it_serializes() {
    let r = serve::measure(&ctx());
    assert_shape(&serve::table(&r), SERVE, 8);
    // Batched beats sequential on PCIe bytes, busy time and queries/s.
    for mode in ["Merged+Aligned", "Hybrid"] {
        for scenario in ["bfs-burst", "sssp-burst"] {
            let seq = r.get((scenario, mode, "Sequential"));
            let bat = r.get((scenario, mode, "Batched"));
            let id = format!("serve {scenario} {mode}");
            let bytes = seq.host_bytes as f64 / bat.host_bytes as f64;
            claim(&format!("{id} bytes, seq/bat"), bytes, None, WIN, None);
            let busy = seq.busy_ns as f64 / bat.busy_ns as f64;
            claim(&format!("{id} busy, seq/bat"), busy, None, WIN, None);
            let qps = bat.queries_per_sec() / seq.queries_per_sec();
            claim(&format!("{id} qps, bat/seq"), qps, None, WIN, None);
        }
    }
    // The batch-width sweep (ROADMAP item 11): where the edge list is
    // several times the L2, every wider batch is faster; where edges and
    // weights nearly fill it, an SSSP pair is slower than solo.
    let s = serve::sweep(&ctx());
    assert_shape(&serve::sweep_table(&s), "serve-k", 12);
    let busy = |regime, program, k| s.get((regime, program, k)).busy_ns as f64;
    for program in ["bfs", "sssp"] {
        for w in serve::WIDTHS.windows(2) {
            let id = format!("serve-k {program} time, k={} / k={}", w[0], w[1]);
            let faster =
                busy(serve::BEYOND_L2, program, w[0]) / busy(serve::BEYOND_L2, program, w[1]);
            claim(&id, faster, None, WIN, None);
        }
    }
    let pair = busy(serve::NEAR_L2, "sssp", 1) / busy(serve::NEAR_L2, "sssp", 2);
    claim(
        "serve-k near-L2 sssp time, k=1 / k=2",
        pair,
        None,
        WIN,
        L2_PAIR,
    );
}

#[test]
fn sla_experiment_produces_table_and_edf_beats_fifo() {
    let r = sla::measure(&ctx());
    assert_shape(&sla::table(&r), SLA, 2);
    // On the identical burst EDF beats FIFO on deadline-hit rate and
    // meets every deadline, since the latency class runs first.
    let (fifo, edf) = (&r.get("FIFO").stats, &r.get("EDF").stats);
    let hits = edf.deadline_hit_rate() / fifo.deadline_hit_rate();
    claim("sla EDF / FIFO hit rate", hits, None, WIN, None);
    assert_eq!(edf.deadline_missed + edf.deadline_cancelled, 0);
}

#[test]
fn scaling_experiment_produces_table_and_scales() {
    let r = scaling::measure(&ctx());
    assert_shape(&scaling::table(&r), SCALING, 3);
    // Speedup with the exchange present but small beside the edge
    // traffic. Every device count runs the split-hub kernel, so the
    // 1-device baseline cuts its hubs too and the ratio measures devices
    // only: 1.49x and 2.22x here. The old bands, 1.6 and 2.5, held only
    // while sharding was also the one way to cut a hub (1.86x and
    // 3.86x). The driver deals each frontier's short lists in equal-work
    // spans whoever owns them, so the partition only anchors hub pieces.
    // The deal costs short lists their L2 affinity across queries: the
    // 4-device links together carry 2.83 MB where owner-only sharding
    // carried 2.42 MB, and the 4-device speedup falls from 2.35x to
    // 2.22x, still above its band.
    let (s2, s4) = (scaling::speedup(&r, 2), scaling::speedup(&r, 4));
    claim("scaling 2-device speedup", s2, None, above(1.3), None);
    claim("scaling 4-device speedup", s4, None, above(2.1), None);
    claim("scaling 4 / 2-device speedup", s4 / s2, None, WIN, None);
    let m4 = r.get(4);
    let exchange = m4.exchange_bytes as f64 / m4.stats.host_bytes as f64;
    claim("scaling exchange share", exchange, None, (0.0, 0.5), None);
}

#[test]
fn tiering_experiment_beats_the_host_spill_baseline() {
    let r = tiering::measure(&ctx());
    assert_shape(&tiering::table(&r), TIERING, 3);
    let stats = |engine| &r.engines.get(engine).stats;
    let (spill, tiered) = (stats("host-spill"), stats("three-tier"));
    assert!(r.cxl_home_bytes > 0 && spill.cxl_bytes > 0);
    let speedup = spill.elapsed_ns as f64 / tiered.elapsed_ns as f64;
    claim(
        "tiering host-spill / three-tier",
        speedup,
        None,
        WIN,
        TIER_TIE,
    );
    assert!(tiered.transfer.staged_regions > 0, "never staged");
    assert_eq!(stats("two-tier (unbounded)").cxl_bytes, 0);
}

#[test]
fn every_registry_id_is_claimed() {
    let singles = [
        FIG12, TABLE3, ABLATIONS, HYBRID, PAGERANK, OVERLAP, LAYOUT, SERVE, SLA, SCALING, TIERING,
    ];
    let mut claimed = [QUICK, CASE_STUDY, &singles].concat();
    let mut registry = experiments::ALL_IDS.to_vec();
    claimed.sort_unstable();
    registry.sort_unstable();
    assert_eq!(claimed, registry, "listed ids vs. registry");
}

/// The export format, not an experiment claim: `repro --markdown` writes
/// tables this way.
#[test]
fn markdown_export_is_well_formed() {
    let tables = experiments::run("table2", &ctx());
    let md = tables[0].to_markdown();
    assert!(md.starts_with("### table2"));
    assert!(md.matches('|').count() > 10);
}

#[test]
#[should_panic(expected = "unknown experiment id")]
fn unknown_id_is_rejected() {
    let _ = experiments::run("fig99", &ctx());
}
