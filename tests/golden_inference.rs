//! Golden inference output: for every Fig 8/9 program under every subtype
//! mode and both region-recovering downcast policies, an FNV-1a digest of
//! the annotated program (`pretty::program_to_string`) and of every closed
//! abstraction in `Q` is frozen here. Any change to inference that alters
//! a single region annotation, precondition or invariant fails this suite
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
        0x49932edc0ce83b0c,
    ),
    (
        "Sieve of Eratosthenes",
        "no-sub",
        "padding",
        0x49932edc0ce83b0c,
    ),
    (
        "Sieve of Eratosthenes",
        "object-sub",
        "equate-first",
        0x49932edc0ce83b0c,
    ),
    (
        "Sieve of Eratosthenes",
        "object-sub",
        "padding",
        0x49932edc0ce83b0c,
    ),
    (
        "Sieve of Eratosthenes",
        "field-sub",
        "equate-first",
        0x49932edc0ce83b0c,
    ),
    (
        "Sieve of Eratosthenes",
        "field-sub",
        "padding",
        0x49932edc0ce83b0c,
    ),
    ("Ackermann", "no-sub", "equate-first", 0x93042be06d40e971),
    ("Ackermann", "no-sub", "padding", 0x93042be06d40e971),
    (
        "Ackermann",
        "object-sub",
        "equate-first",
        0x93042be06d40e971,
    ),
    ("Ackermann", "object-sub", "padding", 0x93042be06d40e971),
    ("Ackermann", "field-sub", "equate-first", 0x93042be06d40e971),
    ("Ackermann", "field-sub", "padding", 0x93042be06d40e971),
    ("Merge Sort", "no-sub", "equate-first", 0x0af8ec95541d6cb0),
    ("Merge Sort", "no-sub", "padding", 0x0af8ec95541d6cb0),
    (
        "Merge Sort",
        "object-sub",
        "equate-first",
        0x8b9e7929741c5e32,
    ),
    ("Merge Sort", "object-sub", "padding", 0x8b9e7929741c5e32),
    (
        "Merge Sort",
        "field-sub",
        "equate-first",
        0x8b9e7929741c5e32,
    ),
    ("Merge Sort", "field-sub", "padding", 0x8b9e7929741c5e32),
    ("Mandelbrot", "no-sub", "equate-first", 0x2b107d44c1d4adc9),
    ("Mandelbrot", "no-sub", "padding", 0x2b107d44c1d4adc9),
    (
        "Mandelbrot",
        "object-sub",
        "equate-first",
        0x2b107d44c1d4adc9,
    ),
    ("Mandelbrot", "object-sub", "padding", 0x2b107d44c1d4adc9),
    (
        "Mandelbrot",
        "field-sub",
        "equate-first",
        0x2b107d44c1d4adc9,
    ),
    ("Mandelbrot", "field-sub", "padding", 0x2b107d44c1d4adc9),
    ("Naive Life", "no-sub", "equate-first", 0x02ebe243afdd2bcc),
    ("Naive Life", "no-sub", "padding", 0x02ebe243afdd2bcc),
    (
        "Naive Life",
        "object-sub",
        "equate-first",
        0x6f4d2ace6880176a,
    ),
    ("Naive Life", "object-sub", "padding", 0x6f4d2ace6880176a),
    (
        "Naive Life",
        "field-sub",
        "equate-first",
        0x6f4d2ace6880176a,
    ),
    ("Naive Life", "field-sub", "padding", 0x6f4d2ace6880176a),
    (
        "Optimized Life (array)",
        "no-sub",
        "equate-first",
        0xa3b911ca020854d8,
    ),
    (
        "Optimized Life (array)",
        "no-sub",
        "padding",
        0xa3b911ca020854d8,
    ),
    (
        "Optimized Life (array)",
        "object-sub",
        "equate-first",
        0xc4478b79e5bd45a7,
    ),
    (
        "Optimized Life (array)",
        "object-sub",
        "padding",
        0xc4478b79e5bd45a7,
    ),
    (
        "Optimized Life (array)",
        "field-sub",
        "equate-first",
        0xc4478b79e5bd45a7,
    ),
    (
        "Optimized Life (array)",
        "field-sub",
        "padding",
        0xc4478b79e5bd45a7,
    ),
    (
        "Optimized Life (dangling)",
        "no-sub",
        "equate-first",
        0x3c57a4e894e33413,
    ),
    (
        "Optimized Life (dangling)",
        "no-sub",
        "padding",
        0x3c57a4e894e33413,
    ),
    (
        "Optimized Life (dangling)",
        "object-sub",
        "equate-first",
        0x118554e53d638fe6,
    ),
    (
        "Optimized Life (dangling)",
        "object-sub",
        "padding",
        0x118554e53d638fe6,
    ),
    (
        "Optimized Life (dangling)",
        "field-sub",
        "equate-first",
        0x118554e53d638fe6,
    ),
    (
        "Optimized Life (dangling)",
        "field-sub",
        "padding",
        0x118554e53d638fe6,
    ),
    (
        "Optimized Life (stack)",
        "no-sub",
        "equate-first",
        0x94b7e2119daf93c1,
    ),
    (
        "Optimized Life (stack)",
        "no-sub",
        "padding",
        0x94b7e2119daf93c1,
    ),
    (
        "Optimized Life (stack)",
        "object-sub",
        "equate-first",
        0x6523f41f418ab178,
    ),
    (
        "Optimized Life (stack)",
        "object-sub",
        "padding",
        0x6523f41f418ab178,
    ),
    (
        "Optimized Life (stack)",
        "field-sub",
        "equate-first",
        0x6523f41f418ab178,
    ),
    (
        "Optimized Life (stack)",
        "field-sub",
        "padding",
        0x6523f41f418ab178,
    ),
    ("Reynolds3", "no-sub", "equate-first", 0x4c27adf11f76da0d),
    ("Reynolds3", "no-sub", "padding", 0x4c27adf11f76da0d),
    (
        "Reynolds3",
        "object-sub",
        "equate-first",
        0x6ca94f1e26207c20,
    ),
    ("Reynolds3", "object-sub", "padding", 0x6ca94f1e26207c20),
    ("Reynolds3", "field-sub", "equate-first", 0x1a95d8ffa96334df),
    ("Reynolds3", "field-sub", "padding", 0x1a95d8ffa96334df),
    ("foo-sum", "no-sub", "equate-first", 0xc5cef3e8d4697d2a),
    ("foo-sum", "no-sub", "padding", 0xc5cef3e8d4697d2a),
    ("foo-sum", "object-sub", "equate-first", 0xa5c97bac12d20b58),
    ("foo-sum", "object-sub", "padding", 0xa5c97bac12d20b58),
    ("foo-sum", "field-sub", "equate-first", 0xa5c97bac12d20b58),
    ("foo-sum", "field-sub", "padding", 0xa5c97bac12d20b58),
    ("bisort", "no-sub", "equate-first", 0x4be30c1a6cf06256),
    ("bisort", "no-sub", "padding", 0x4be30c1a6cf06256),
    ("bisort", "object-sub", "equate-first", 0x2d93642801d7a889),
    ("bisort", "object-sub", "padding", 0x2d93642801d7a889),
    ("bisort", "field-sub", "equate-first", 0xabf47e29a50699f6),
    ("bisort", "field-sub", "padding", 0xabf47e29a50699f6),
    ("em3d", "no-sub", "equate-first", 0x28b2dfed3f45942b),
    ("em3d", "no-sub", "padding", 0x28b2dfed3f45942b),
    ("em3d", "object-sub", "equate-first", 0x267c67c51378afec),
    ("em3d", "object-sub", "padding", 0x267c67c51378afec),
    ("em3d", "field-sub", "equate-first", 0xed1c43e816da145c),
    ("em3d", "field-sub", "padding", 0xed1c43e816da145c),
    ("health", "no-sub", "equate-first", 0x05d7a822098495ef),
    ("health", "no-sub", "padding", 0x05d7a822098495ef),
    ("health", "object-sub", "equate-first", 0x65d84571a6e6c01c),
    ("health", "object-sub", "padding", 0x65d84571a6e6c01c),
    ("health", "field-sub", "equate-first", 0x26c293b845329660),
    ("health", "field-sub", "padding", 0x26c293b845329660),
    ("mst", "no-sub", "equate-first", 0x94bd3b76eb7c44d5),
    ("mst", "no-sub", "padding", 0x94bd3b76eb7c44d5),
    ("mst", "object-sub", "equate-first", 0xdb0db8c96f36b68c),
    ("mst", "object-sub", "padding", 0xdb0db8c96f36b68c),
    ("mst", "field-sub", "equate-first", 0x3cd822b172ecf6fe),
    ("mst", "field-sub", "padding", 0x3cd822b172ecf6fe),
    ("power", "no-sub", "equate-first", 0x060a7583a3c3a81f),
    ("power", "no-sub", "padding", 0x060a7583a3c3a81f),
    ("power", "object-sub", "equate-first", 0xa89cff170511fed5),
    ("power", "object-sub", "padding", 0xa89cff170511fed5),
    ("power", "field-sub", "equate-first", 0x41fcdce713cbe00a),
    ("power", "field-sub", "padding", 0x41fcdce713cbe00a),
    ("treeadd", "no-sub", "equate-first", 0x61a02271610c9f2f),
    ("treeadd", "no-sub", "padding", 0x61a02271610c9f2f),
    ("treeadd", "object-sub", "equate-first", 0x81a47b75a16ce2df),
    ("treeadd", "object-sub", "padding", 0x81a47b75a16ce2df),
    ("treeadd", "field-sub", "equate-first", 0x3584477a99fb6ec7),
    ("treeadd", "field-sub", "padding", 0x3584477a99fb6ec7),
    ("tsp", "no-sub", "equate-first", 0x782dbc4f154760a9),
    ("tsp", "no-sub", "padding", 0x782dbc4f154760a9),
    ("tsp", "object-sub", "equate-first", 0xb4689fb89c10583d),
    ("tsp", "object-sub", "padding", 0xb4689fb89c10583d),
    ("tsp", "field-sub", "equate-first", 0xb4689fb89c10583d),
    ("tsp", "field-sub", "padding", 0xb4689fb89c10583d),
    ("perimeter", "no-sub", "equate-first", 0xa5154febbe9fa0e5),
    ("perimeter", "no-sub", "padding", 0xa5154febbe9fa0e5),
    (
        "perimeter",
        "object-sub",
        "equate-first",
        0x657fa8a62af0ac77,
    ),
    ("perimeter", "object-sub", "padding", 0x657fa8a62af0ac77),
    ("perimeter", "field-sub", "equate-first", 0xeb9ddfb46547b7d7),
    ("perimeter", "field-sub", "padding", 0xeb9ddfb46547b7d7),
    ("n-body", "no-sub", "equate-first", 0x3dd95a715bcba435),
    ("n-body", "no-sub", "padding", 0x3dd95a715bcba435),
    ("n-body", "object-sub", "equate-first", 0x9f8fedafef2d056a),
    ("n-body", "object-sub", "padding", 0x9f8fedafef2d056a),
    ("n-body", "field-sub", "equate-first", 0xbde3ea6e3a164a57),
    ("n-body", "field-sub", "padding", 0xbde3ea6e3a164a57),
    ("voronoi", "no-sub", "equate-first", 0x7981443bf4bbd13d),
    ("voronoi", "no-sub", "padding", 0x7981443bf4bbd13d),
    ("voronoi", "object-sub", "equate-first", 0x69b3feb5bb5f3d5e),
    ("voronoi", "object-sub", "padding", 0x69b3feb5bb5f3d5e),
    ("voronoi", "field-sub", "equate-first", 0x8607c8cd460b1ed9),
    ("voronoi", "field-sub", "padding", 0x8607c8cd460b1ed9),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(p: &RProgram) -> u64 {
    let mut text = program_to_string(p);
    for abs in p.q.iter() {
        text.push_str(&abs.to_string());
        text.push('\n');
    }
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
                let (p, _) = infer_source(bench.source, opts).unwrap_or_else(|d| {
                    panic!("{} infers under {mode}/{downcast}: {d}", bench.name)
                });
                computed.push((
                    bench.name,
                    mode.to_string(),
                    downcast.to_string(),
                    digest(&p),
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
