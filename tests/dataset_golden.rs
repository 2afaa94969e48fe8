//! Pinned bytes of every generated input: an FNV-1a digest of
//! `offsets ‖ edge_list ‖ weights` for the six Table 2 stand-ins at
//! divisors 1 and 32, and for the shapes the frozen benchmark generates
//! (`benchmark/src/inputs.rs`) at its default and held-out seeds.
//!
//! The digests were taken at commit `2cffb2f`, before graph construction
//! was rewritten, and are the definition of "byte-identical graphs": a
//! change to `generators` or `EdgeListBuilder` that moves one is a
//! change of every simulated number downstream (`sim_golden`, the
//! benchmark's `compare`), and must be declared as such rather than
//! re-pinned here. CI runs this file under both the dev profile
//! (overflow checks on) and `--release` (off).

use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::graph::{generators, CsrGraph, DatasetKey};

/// FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(graph: &CsrGraph, weights: &[u32]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(graph.offsets().iter().flat_map(|x| x.to_le_bytes()));
    h.bytes(graph.edge_list().iter().flat_map(|x| x.to_le_bytes()));
    h.bytes(weights.iter().flat_map(|x| x.to_le_bytes()));
    h.0
}

/// Compare computed `(label, digest)` rows with the pinned ones; on a
/// mismatch print the whole computed table so the moved rows are visible
/// at once.
fn assert_pinned(got: &[(String, u64)], want: &[(&str, u64)]) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gl, gd), (wl, wd))| gl == wl && gd == wd);
    if !same {
        for (label, d) in got {
            eprintln!("    (\"{label}\", 0x{d:016x}),");
        }
        panic!("generated inputs moved: computed table above, pinned table in this file");
    }
}

const DATASETS: [(&str, u64); 12] = [
    ("GK/1", 0xb81e_87e4_a59d_8dae),
    ("GK/32", 0xd80f_37e8_0f1a_f941),
    ("GU/1", 0x615b_305a_93a4_e510),
    ("GU/32", 0x2cbc_dc60_2dcd_561b),
    ("FS/1", 0xb1d0_ef60_d4ad_64a8),
    ("FS/32", 0x103d_794d_fed3_fc2e),
    ("ML/1", 0xfda2_6126_5672_d116),
    ("ML/32", 0xd8f2_8c47_9ae1_c3ad),
    ("SK/1", 0x606b_f5a4_11fe_5381),
    ("SK/32", 0xd0ef_c84c_6151_f97b),
    ("UK5/1", 0x7526_e988_7a8b_f4d4),
    ("UK5/32", 0x9ece_3231_aa19_802a),
];

#[test]
fn table2_stand_ins_are_byte_identical_to_the_pinned_digests() {
    let mut got = Vec::new();
    for key in DatasetKey::all() {
        for divisor in [1, 32] {
            let d = key.spec().generate_scaled(divisor);
            let label = format!("{}/{divisor}", d.spec.symbol);
            got.push((label, digest(&d.graph, &d.weights)));
        }
    }
    assert_pinned(&got, &DATASETS);
}

const BENCHMARK_SHAPES: [(&str, u64); 6] = [
    ("kronecker(17,19)/20260928", 0x68a5_dafe_8fc3_4929),
    ("uniform_random(134000,32)/20260928", 0x51c6_f144_7356_8242),
    ("kronecker(14,19)/20260928", 0x067f_654d_5dc5_6d3b),
    ("kronecker(17,19)/777", 0xa1e2_704f_deaf_991e),
    ("uniform_random(134000,32)/777", 0x4e75_a659_a351_23de),
    ("kronecker(14,19)/777", 0x4717_23d2_3028_3ee7),
];

#[test]
fn benchmark_shapes_are_byte_identical_to_the_pinned_digests() {
    let mut got = Vec::new();
    type Shape = (&'static str, fn(u64) -> CsrGraph);
    let shapes: [Shape; 3] = [
        ("kronecker(17,19)", |s| generators::kronecker(17, 19, s)),
        ("uniform_random(134000,32)", |s| {
            generators::uniform_random(134_000, 32, s)
        }),
        ("kronecker(14,19)", |s| generators::kronecker(14, 19, s)),
    ];
    for seed in [20_260_928u64, 777] {
        for (shape, make) in shapes {
            let graph = make(seed);
            let weights = generate_weights(graph.num_edges(), seed);
            got.push((format!("{shape}/{seed}"), digest(&graph, &weights)));
        }
    }
    assert_pinned(&got, &BENCHMARK_SHAPES);
}
