//! The `overlap` experiment: pipelined (overlapped DMA/kernel) hybrid
//! execution against the synchronous hybrid baseline, on GK — the
//! skewed Table 2 graph whose recurring regions give the ski-rental
//! policy something to stage — across all four vertex programs.
//!
//! The pipelined engine predicts next iteration's stageable regions
//! from iteration-start state and streams them over an asynchronous
//! copy lane while the current kernel computes. A correct prediction
//! turns a synchronous bulk-copy wait into overlap (the staging latency
//! is *hidden*); a late one costs only the residual in-flight wait (a
//! *stall*); a wrong one costs only wasted speculative bytes. Outputs,
//! iteration counts and every traffic counter are bit-identical to the
//! synchronous path (`tests/pipeline_differential.rs` pins that); this
//! experiment measures the one thing allowed to change — wall time —
//! and reports how much staging latency the copy lane hid.
//!
//! The machine is scaled like the `hybrid` experiment so the edge list
//! oversubscribes cache and device memory even at reduced scale.

use super::scaled_machine;
use crate::cell::{self, Series};
use crate::table::{f, ms, pct};
use crate::{Context, Results, Table};
use emogi_core::{Engine, EngineConfig};
use emogi_graph::DatasetKey;
use emogi_runtime::RunStats;

/// Sources per BFS/SSSP cell: traversal programs only re-read regions
/// across runs, so each cell is a small multi-query scenario (the same
/// cross-traversal reuse pattern as the `hybrid` experiment).
const SOURCES: usize = 4;

/// One program's synchronous-vs-pipelined measurement: the folded stats
/// of the synchronous hybrid runs and of the pipelined ones.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub sync: RunStats,
    pub pipe: RunStats,
}

impl Measurement {
    /// Synchronous time over pipelined time; > 1 means overlap won.
    pub fn speedup(&self) -> f64 {
        self.sync.elapsed_ns as f64 / self.pipe.elapsed_ns as f64
    }

    /// Fraction of the adopted stagings' copy latency that the copy
    /// lane hid behind kernel compute (the rest surfaced as residual
    /// in-flight stalls).
    pub fn hidden_frac(&self) -> f64 {
        let p = &self.pipe.prefetch;
        let total = p.hidden_ns + p.stall_ns;
        if total == 0 {
            0.0
        } else {
            p.hidden_ns as f64 / total as f64
        }
    }
}

/// Run every program twice — synchronous hybrid, then pipelined hybrid —
/// on the same GK placement protocol, keyed by program name.
pub fn measure(ctx: &Context) -> Results<&'static str, Measurement> {
    let gk = ctx.store.get(DatasetKey::Gk);
    let sources = gk.sources(SOURCES);
    let mut rows = Vec::new();
    for series in Series::all(&sources) {
        let program = series.name();
        eprintln!("  [overlap] {program} GK ...");
        let presets = [EngineConfig::hybrid_v100(), EngineConfig::pipelined_v100()];
        let [sync, pipe] = presets.map(|preset| {
            let cfg = preset
                .with_machine(scaled_machine(ctx.scale))
                .with_elem_bytes(4);
            let mut engine = Engine::load(cfg, &gk.graph);
            cell::run(&mut engine, series, &gk, None)
        });
        assert_eq!(
            sync.digest, pipe.digest,
            "{program}: pipelined output diverged from synchronous"
        );
        let m = Measurement {
            sync: sync.stats,
            pipe: pipe.stats,
        };
        rows.push((program, m));
    }
    Results { rows }
}

/// The printable table.
pub fn table(r: &Results<&'static str, Measurement>) -> Table {
    let mut t = Table::new(
        "overlap",
        "Pipelined (overlapped DMA/kernel) vs synchronous hybrid on GK",
        &[
            "program",
            "sync (ms)",
            "pipelined (ms)",
            "speedup",
            "prefetched MiB",
            "hit MiB",
            "wasted MiB",
            "latency hidden",
        ],
    );
    let mib = |b: u64| f(b as f64 / (1 << 20) as f64);
    for (program, m) in &r.rows {
        let p = &m.pipe.prefetch;
        t.row(vec![
            (*program).into(),
            ms(m.sync.elapsed_ns),
            ms(m.pipe.elapsed_ns),
            f(m.speedup()),
            mib(p.prefetched_bytes),
            mib(p.hit_bytes),
            mib(p.wasted_bytes),
            pct(m.hidden_frac()),
        ]);
    }
    t.note(
        "outputs, iteration counts and traffic counters are bit-identical between the \
         two columns (pinned by tests/pipeline_differential.rs); the pipelined engine \
         streams next iteration's predicted regions over an asynchronous copy lane \
         while the kernel computes, so adopted stagings cost only their un-hidden \
         residual instead of the full synchronous bulk-copy wait",
    );
    t
}
