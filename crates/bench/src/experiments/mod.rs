//! One module per group of related experiments; [`REGISTRY`] lists them
//! under the ids the `repro` binary takes.

pub mod ablations;
pub mod apps;
pub mod case_study;
pub mod hybrid;
pub mod layout;
pub mod matrix;
pub mod misc;
pub mod overlap;
pub mod pagerank;
pub mod prior;
pub mod scaling;
pub mod serve;
pub mod sla;
pub mod tiering;
pub mod toy;

use crate::{Context, Table};
use emogi_runtime::MachineConfig;

/// V100 machine with cache and device memory divided by the context's
/// scale divisor, like the datasets themselves, so the edge-list : cache
/// : device-memory ratios that drive transport trade-offs survive
/// reduced-scale runs. Shared by the `hybrid` and `pagerank` experiments.
pub(crate) fn scaled_machine(scale: usize) -> MachineConfig {
    let mut m = MachineConfig::v100_gen3();
    let s = scale.max(1) as u64;
    m.gpu.cache.capacity_bytes = (m.gpu.cache.capacity_bytes / s).max(32 << 10);
    m.gpu.mem_bytes = (m.gpu.mem_bytes / s).max(256 << 10);
    m
}

/// One experiment: everything `repro <id>` prints.
pub type Experiment = fn(&Context) -> Vec<Table>;

/// Every experiment, once: the paper's in paper order, then this repo's
/// own extensions. [`ALL_IDS`], [`run`], [`run_all`] and `repro`'s usage
/// text all derive from this list.
pub const REGISTRY: &[(&str, Experiment)] = &[
    ("table1", |_| vec![misc::table1()]),
    ("table2", |ctx| vec![misc::table2(ctx)]),
    ("fig3", |ctx| vec![toy::fig3(ctx)]),
    ("fig4", |ctx| vec![toy::fig4(ctx)]),
    ("fig5", |ctx| vec![case_study::fig5(ctx.bfs_matrix())]),
    ("fig6", |ctx| vec![misc::fig6(ctx)]),
    ("fig7", |ctx| vec![case_study::fig7(ctx.bfs_matrix())]),
    ("fig8", |ctx| vec![case_study::fig8(ctx, ctx.bfs_matrix())]),
    ("fig9", |ctx| vec![case_study::fig9(ctx.bfs_matrix())]),
    ("fig10", |ctx| vec![case_study::fig10(ctx.bfs_matrix())]),
    ("fig11", |ctx| vec![apps::fig11(ctx)]),
    ("fig12", |ctx| vec![apps::fig12(ctx)]),
    ("table3", |ctx| vec![prior::table3(ctx)]),
    ("ablations", ablations::all),
    ("hybrid", |ctx| vec![hybrid::table(&hybrid::measure(ctx))]),
    ("pagerank", |ctx| {
        vec![pagerank::table(&pagerank::measure(ctx))]
    }),
    ("overlap", |ctx| {
        vec![overlap::table(&overlap::measure(ctx))]
    }),
    ("layout", |ctx| vec![layout::table(&layout::measure(ctx))]),
    ("serve", |ctx| vec![serve::table(&serve::measure(ctx))]),
    ("sla", |ctx| vec![sla::table(&sla::measure(ctx))]),
    ("scaling", |ctx| {
        vec![scaling::table(&scaling::measure(ctx))]
    }),
    ("tiering", |ctx| {
        vec![tiering::table(&tiering::measure(ctx))]
    }),
];

/// The registry's ids, in its order.
pub const ALL_IDS: [&str; REGISTRY.len()] = {
    let mut ids = [""; REGISTRY.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = REGISTRY[i].0;
        i += 1;
    }
    ids
};

/// Run one experiment by id. The BFS case-study figures (5, 7–11) share
/// the context's measurement matrix.
pub fn run(id: &str, ctx: &Context) -> Vec<Table> {
    match REGISTRY.iter().find(|(known, _)| *known == id) {
        Some((_, experiment)) => experiment(ctx),
        None => panic!("unknown experiment id {id:?} (known: {ALL_IDS:?})"),
    }
}

/// Run the full evaluation, in registry order.
pub fn run_all(ctx: &Context) -> Vec<Table> {
    REGISTRY.iter().flat_map(|(_, e)| e(ctx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_all_ids_is_the_registry_order() {
        let ids: Vec<&str> = REGISTRY.iter().map(|&(id, _)| id).collect();
        assert_eq!(ALL_IDS.to_vec(), ids);
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "duplicate experiment id {id}");
        }
    }

    #[test]
    fn run_is_a_slice_of_run_all() {
        // The property is structural, so the smallest scale every
        // experiment still runs at will do.
        let ctx = Context::new(1, 256);
        let all: Vec<String> = run_all(&ctx).iter().map(Table::to_string).collect();
        for id in ["table1", "table2", "fig3", "fig4", "fig6"] {
            let at = ALL_IDS.iter().position(|&known| known == id).unwrap();
            // Every id before `ablations` yields exactly one table.
            let one: Vec<String> = run(id, &ctx).iter().map(Table::to_string).collect();
            assert_eq!(one, all[at..=at], "{id}");
        }
    }
}
