//! Golden inference output: for every Fig 8/9 program under every subtype
//! mode and both region-recovering downcast policies, an FNV-1a digest of
//! the annotated program (`pretty::program_to_string`), of every closed
//! abstraction in `Q` and of the run's `InferStats::to_json()` is frozen
//! here. Any change to inference that alters a single region annotation,
//! precondition or invariant — or only the order of the work, which moves
//! counts such as `fixpoint_iterations` or `sccs_solved` — fails this suite
//! and names the program and options whose output moved. A row changes
//! only deliberately, with the reason recorded in CHANGES.md.

use region_inference::infer::pretty::program_to_string;
use region_inference::prelude::*;

/// (program, subtype mode, downcast policy, digest).
const GOLDEN: &[(&str, &str, &str, u64)] = &[
    (
        "Sieve of Eratosthenes",
        "no-sub",
        "equate-first",
        0x268c9d8229a4afe2,
    ),
    (
        "Sieve of Eratosthenes",
        "no-sub",
        "padding",
        0x268c9d8229a4afe2,
    ),
    (
        "Sieve of Eratosthenes",
        "object-sub",
        "equate-first",
        0x268c9d8229a4afe2,
    ),
    (
        "Sieve of Eratosthenes",
        "object-sub",
        "padding",
        0x268c9d8229a4afe2,
    ),
    (
        "Sieve of Eratosthenes",
        "field-sub",
        "equate-first",
        0x268c9d8229a4afe2,
    ),
    (
        "Sieve of Eratosthenes",
        "field-sub",
        "padding",
        0x268c9d8229a4afe2,
    ),
    ("Ackermann", "no-sub", "equate-first", 0x6f47847e5052eb7a),
    ("Ackermann", "no-sub", "padding", 0x6f47847e5052eb7a),
    (
        "Ackermann",
        "object-sub",
        "equate-first",
        0x6f47847e5052eb7a,
    ),
    ("Ackermann", "object-sub", "padding", 0x6f47847e5052eb7a),
    ("Ackermann", "field-sub", "equate-first", 0x6f47847e5052eb7a),
    ("Ackermann", "field-sub", "padding", 0x6f47847e5052eb7a),
    ("Merge Sort", "no-sub", "equate-first", 0xcedcfacfe9596ef3),
    ("Merge Sort", "no-sub", "padding", 0xcedcfacfe9596ef3),
    (
        "Merge Sort",
        "object-sub",
        "equate-first",
        0x3a3dc51f7591eac5,
    ),
    ("Merge Sort", "object-sub", "padding", 0x3a3dc51f7591eac5),
    (
        "Merge Sort",
        "field-sub",
        "equate-first",
        0x3a3dc51f7591eac5,
    ),
    ("Merge Sort", "field-sub", "padding", 0x3a3dc51f7591eac5),
    ("Mandelbrot", "no-sub", "equate-first", 0xebd7c017b4d91593),
    ("Mandelbrot", "no-sub", "padding", 0xebd7c017b4d91593),
    (
        "Mandelbrot",
        "object-sub",
        "equate-first",
        0xebd7c017b4d91593,
    ),
    ("Mandelbrot", "object-sub", "padding", 0xebd7c017b4d91593),
    (
        "Mandelbrot",
        "field-sub",
        "equate-first",
        0xebd7c017b4d91593,
    ),
    ("Mandelbrot", "field-sub", "padding", 0xebd7c017b4d91593),
    ("Naive Life", "no-sub", "equate-first", 0xe8c550a270ae506e),
    ("Naive Life", "no-sub", "padding", 0xe8c550a270ae506e),
    (
        "Naive Life",
        "object-sub",
        "equate-first",
        0x04d77ba82e762a35,
    ),
    ("Naive Life", "object-sub", "padding", 0x04d77ba82e762a35),
    (
        "Naive Life",
        "field-sub",
        "equate-first",
        0x04d77ba82e762a35,
    ),
    ("Naive Life", "field-sub", "padding", 0x04d77ba82e762a35),
    (
        "Optimized Life (array)",
        "no-sub",
        "equate-first",
        0x29b7573d3d5f0ce6,
    ),
    (
        "Optimized Life (array)",
        "no-sub",
        "padding",
        0x29b7573d3d5f0ce6,
    ),
    (
        "Optimized Life (array)",
        "object-sub",
        "equate-first",
        0x4686aed89057eacb,
    ),
    (
        "Optimized Life (array)",
        "object-sub",
        "padding",
        0x4686aed89057eacb,
    ),
    (
        "Optimized Life (array)",
        "field-sub",
        "equate-first",
        0x4686aed89057eacb,
    ),
    (
        "Optimized Life (array)",
        "field-sub",
        "padding",
        0x4686aed89057eacb,
    ),
    (
        "Optimized Life (dangling)",
        "no-sub",
        "equate-first",
        0x87696a74137697a4,
    ),
    (
        "Optimized Life (dangling)",
        "no-sub",
        "padding",
        0x87696a74137697a4,
    ),
    (
        "Optimized Life (dangling)",
        "object-sub",
        "equate-first",
        0x29255878f22a3755,
    ),
    (
        "Optimized Life (dangling)",
        "object-sub",
        "padding",
        0x29255878f22a3755,
    ),
    (
        "Optimized Life (dangling)",
        "field-sub",
        "equate-first",
        0x29255878f22a3755,
    ),
    (
        "Optimized Life (dangling)",
        "field-sub",
        "padding",
        0x29255878f22a3755,
    ),
    (
        "Optimized Life (stack)",
        "no-sub",
        "equate-first",
        0xb2b3bd45853b3e76,
    ),
    (
        "Optimized Life (stack)",
        "no-sub",
        "padding",
        0xb2b3bd45853b3e76,
    ),
    (
        "Optimized Life (stack)",
        "object-sub",
        "equate-first",
        0x825fe28a1b77866d,
    ),
    (
        "Optimized Life (stack)",
        "object-sub",
        "padding",
        0x825fe28a1b77866d,
    ),
    (
        "Optimized Life (stack)",
        "field-sub",
        "equate-first",
        0x825fe28a1b77866d,
    ),
    (
        "Optimized Life (stack)",
        "field-sub",
        "padding",
        0x825fe28a1b77866d,
    ),
    ("Reynolds3", "no-sub", "equate-first", 0xcc7b04570addad4c),
    ("Reynolds3", "no-sub", "padding", 0xcc7b04570addad4c),
    (
        "Reynolds3",
        "object-sub",
        "equate-first",
        0xb0f596d71ebed077,
    ),
    ("Reynolds3", "object-sub", "padding", 0xb0f596d71ebed077),
    ("Reynolds3", "field-sub", "equate-first", 0xe3a97345017ec9e2),
    ("Reynolds3", "field-sub", "padding", 0xe3a97345017ec9e2),
    ("foo-sum", "no-sub", "equate-first", 0xf9c666ff45305159),
    ("foo-sum", "no-sub", "padding", 0xf9c666ff45305159),
    ("foo-sum", "object-sub", "equate-first", 0x80ec7b5859f00993),
    ("foo-sum", "object-sub", "padding", 0x80ec7b5859f00993),
    ("foo-sum", "field-sub", "equate-first", 0x80ec7b5859f00993),
    ("foo-sum", "field-sub", "padding", 0x80ec7b5859f00993),
    ("bisort", "no-sub", "equate-first", 0x1452bf2e0675f10f),
    ("bisort", "no-sub", "padding", 0x1452bf2e0675f10f),
    ("bisort", "object-sub", "equate-first", 0x99f7d502f954a65e),
    ("bisort", "object-sub", "padding", 0x99f7d502f954a65e),
    ("bisort", "field-sub", "equate-first", 0xdc8bd97b5e955491),
    ("bisort", "field-sub", "padding", 0xdc8bd97b5e955491),
    ("em3d", "no-sub", "equate-first", 0x5d1229f7492b2f93),
    ("em3d", "no-sub", "padding", 0x5d1229f7492b2f93),
    ("em3d", "object-sub", "equate-first", 0x78e41f8fcc6f54fe),
    ("em3d", "object-sub", "padding", 0x78e41f8fcc6f54fe),
    ("em3d", "field-sub", "equate-first", 0x79d76a1327a9a82e),
    ("em3d", "field-sub", "padding", 0x79d76a1327a9a82e),
    ("health", "no-sub", "equate-first", 0x5a42cd987cc6df7e),
    ("health", "no-sub", "padding", 0x5a42cd987cc6df7e),
    ("health", "object-sub", "equate-first", 0xbcf8c3ee9c02ca20),
    ("health", "object-sub", "padding", 0xbcf8c3ee9c02ca20),
    ("health", "field-sub", "equate-first", 0xd98a98539479f38c),
    ("health", "field-sub", "padding", 0xd98a98539479f38c),
    ("mst", "no-sub", "equate-first", 0x8edddbe50eeac508),
    ("mst", "no-sub", "padding", 0x8edddbe50eeac508),
    ("mst", "object-sub", "equate-first", 0x0f4638d0eb1deda7),
    ("mst", "object-sub", "padding", 0x0f4638d0eb1deda7),
    ("mst", "field-sub", "equate-first", 0x4ae1d50601845c2d),
    ("mst", "field-sub", "padding", 0x4ae1d50601845c2d),
    ("power", "no-sub", "equate-first", 0x4d9f6f328b0d565c),
    ("power", "no-sub", "padding", 0x4d9f6f328b0d565c),
    ("power", "object-sub", "equate-first", 0xbf8483ae8ef127de),
    ("power", "object-sub", "padding", 0xbf8483ae8ef127de),
    ("power", "field-sub", "equate-first", 0x68548ef7f7f4932f),
    ("power", "field-sub", "padding", 0x68548ef7f7f4932f),
    ("treeadd", "no-sub", "equate-first", 0xce2c8d3ed14360ed),
    ("treeadd", "no-sub", "padding", 0xce2c8d3ed14360ed),
    ("treeadd", "object-sub", "equate-first", 0x4646c5b3c81a4726),
    ("treeadd", "object-sub", "padding", 0x4646c5b3c81a4726),
    ("treeadd", "field-sub", "equate-first", 0x2a0371a7ffa0e0be),
    ("treeadd", "field-sub", "padding", 0x2a0371a7ffa0e0be),
    ("tsp", "no-sub", "equate-first", 0x972104757e3baf3c),
    ("tsp", "no-sub", "padding", 0x972104757e3baf3c),
    ("tsp", "object-sub", "equate-first", 0x543c60a79323053c),
    ("tsp", "object-sub", "padding", 0x543c60a79323053c),
    ("tsp", "field-sub", "equate-first", 0x543c60a79323053c),
    ("tsp", "field-sub", "padding", 0x543c60a79323053c),
    ("perimeter", "no-sub", "equate-first", 0xd9d46da3cabaa392),
    ("perimeter", "no-sub", "padding", 0xd9d46da3cabaa392),
    (
        "perimeter",
        "object-sub",
        "equate-first",
        0x20041e4e7e2d972f,
    ),
    ("perimeter", "object-sub", "padding", 0x20041e4e7e2d972f),
    ("perimeter", "field-sub", "equate-first", 0xf8f7d1d8ff28954f),
    ("perimeter", "field-sub", "padding", 0xf8f7d1d8ff28954f),
    ("n-body", "no-sub", "equate-first", 0x9945d448e8b951a5),
    ("n-body", "no-sub", "padding", 0x9945d448e8b951a5),
    ("n-body", "object-sub", "equate-first", 0x896b9b22d6230bd0),
    ("n-body", "object-sub", "padding", 0x896b9b22d6230bd0),
    ("n-body", "field-sub", "equate-first", 0x6544356127bdc431),
    ("n-body", "field-sub", "padding", 0x6544356127bdc431),
    ("voronoi", "no-sub", "equate-first", 0x4ef089d081bd60fc),
    ("voronoi", "no-sub", "padding", 0x4ef089d081bd60fc),
    ("voronoi", "object-sub", "equate-first", 0xb736c7f3c516bbac),
    ("voronoi", "object-sub", "padding", 0xb736c7f3c516bbac),
    ("voronoi", "field-sub", "equate-first", 0x42493a18e14242d5),
    ("voronoi", "field-sub", "padding", 0x42493a18e14242d5),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(p: &RProgram, stats: &InferStats) -> u64 {
    let mut text = program_to_string(p);
    for abs in p.q.iter() {
        text.push_str(&abs.to_string());
        text.push('\n');
    }
    // `infer_source` solves with a fresh memo and one client, so every
    // counter is deterministic.
    text.push_str(&stats.to_json());
    fnv1a(text.as_bytes())
}

#[test]
fn inference_output_matches_golden_digests() {
    let mut computed = Vec::new();
    for bench in region_inference::benchmarks::all_benchmarks() {
        for mode in SubtypeMode::ALL {
            for downcast in [DowncastPolicy::EquateFirst, DowncastPolicy::Padding] {
                let opts = InferOptions {
                    mode,
                    downcast,
                    ..InferOptions::default()
                };
                let (p, stats) = infer_source(bench.source, opts).unwrap_or_else(|d| {
                    panic!("{} infers under {mode}/{downcast}: {d}", bench.name)
                });
                computed.push((
                    bench.name,
                    mode.to_string(),
                    downcast.to_string(),
                    digest(&p, &stats),
                ));
            }
        }
    }
    let mut failures = Vec::new();
    for (name, mode, downcast, got) in &computed {
        match GOLDEN
            .iter()
            .find(|g| g.0 == *name && g.1 == mode && g.2 == downcast)
        {
            Some(&(_, _, _, want)) if want == *got => {}
            Some(&(_, _, _, want)) => failures.push(format!(
                "{name} under {mode}/{downcast}: digest {got:#018x}, recorded {want:#018x}"
            )),
            None => failures.push(format!(
                "{name} under {mode}/{downcast}: no recorded row; digest {got:#018x}"
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "inference output changed:\n{}",
        failures.join("\n")
    );
    assert_eq!(
        computed.len(),
        GOLDEN.len(),
        "one recorded row per program and option pair"
    );
}
