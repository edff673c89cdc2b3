//! Golden outputs: every benchmark's result on its test input is frozen
//! here. Any change to the front end, inference, or interpreter that
//! alters observable behaviour fails this suite.
//!
//! Several values are independently verifiable:
//! - sieve(500) = 95 primes ≤ 500;
//! - ackermann(2,3) = 9;
//! - merge sort returns the (preserved) list length, 200;
//! - treeadd(4) = 2⁴ − 1 = 15 nodes, each contributing 1;
//! - optimized life variants agree with naive life's final population for
//!   the same seed (the glider settles at the same count).

use region_inference::prelude::*;

const GOLDEN: &[(&str, &str)] = &[
    ("Sieve of Eratosthenes", "95"),
    ("Ackermann", "9"),
    ("Merge Sort", "200"),
    ("Mandelbrot", "30"),
    ("Naive Life", "27"),
    ("Optimized Life (array)", "9"),
    ("Optimized Life (dangling)", "9"),
    ("Optimized Life (stack)", "4"),
    ("Reynolds3", "0"),
    ("foo-sum", "255"),
    ("bisort", "1960"),
    ("em3d", "1"),
    ("health", "26"),
    ("mst", "213"),
    ("power", "1"),
    ("treeadd", "15"),
    ("tsp", "1"),
    ("perimeter", "324"),
    ("n-body", "1"),
    ("voronoi", "9"),
];

#[test]
fn benchmark_results_match_golden_values() {
    for (name, expected) in GOLDEN {
        let b = cj_benchmarks::by_name(name).expect("registered benchmark");
        let (p, _) = infer_source(b.source, InferOptions::default()).unwrap();
        let args: Vec<Value> = b.test_input.iter().map(|&v| Value::Int(v)).collect();
        let out = run_main_big_stack(&p, &args, RunConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            format!("{}", out.value),
            *expected,
            "{name}: output changed"
        );
    }
}

/// Every benchmark's `SpaceStats` on its test input: `(name,
/// total_allocated, peak_live, regions_created, objects_allocated)`.
/// Both engines share one region heap, so comparing them no longer checks
/// its accounting; these figures were recorded when the interpreter still
/// kept its own byte counter beside an immortal object store, and both
/// engines must reproduce them.
const GOLDEN_SPACE: &[(&str, usize, usize, usize, usize)] = &[
    ("Sieve of Eratosthenes", 4024, 4024, 1, 1),
    ("Ackermann", 936, 72, 39, 39),
    ("Merge Sort", 91968, 28896, 1199, 2874),
    ("Mandelbrot", 62848, 64, 1964, 1964),
    ("Naive Life", 8544, 8544, 7380, 12),
    ("Optimized Life (array)", 8256, 4128, 772, 4),
    ("Optimized Life (dangling)", 8280, 8280, 769, 5),
    ("Optimized Life (stack)", 8480, 8480, 769, 12),
    ("Reynolds3", 100472, 1432, 44601, 3132),
    ("foo-sum", 744, 96, 21, 31),
    ("bisort", 624, 624, 623, 16),
    ("em3d", 2592, 2592, 725, 65),
    ("health", 1760, 1760, 1369, 41),
    ("mst", 448, 448, 10, 11),
    ("power", 3712, 3712, 261, 113),
    ("treeadd", 600, 600, 47, 15),
    ("tsp", 840, 840, 105, 15),
    ("perimeter", 4760, 4760, 536, 85),
    ("n-body", 4128, 1632, 1015, 42),
    ("voronoi", 1080, 1080, 5978, 24),
];

#[test]
fn space_accounting_matches_golden_table() {
    assert_eq!(GOLDEN_SPACE.len(), cj_benchmarks::all_benchmarks().len());
    for &(name, total, peak, regions, objects) in GOLDEN_SPACE {
        let b = cj_benchmarks::by_name(name).expect("registered benchmark");
        let (p, _) = infer_source(b.source, InferOptions::default()).unwrap();
        let args: Vec<Value> = b.test_input.iter().map(|&v| Value::Int(v)).collect();
        let interp = run_main_big_stack(&p, &args, RunConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let compiled = region_inference::vm::lower_program(&p);
        let rvm = region_inference::rvm::run_main(&compiled, &args, RunConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for (engine, out) in [("interp", interp), ("rvm", rvm)] {
            let s = out.space;
            assert_eq!(
                (
                    s.total_allocated,
                    s.peak_live,
                    s.regions_created,
                    s.objects_allocated
                ),
                (total, peak, regions, objects),
                "{name} [{engine}]: space accounting changed"
            );
        }
    }
}

#[test]
fn independently_verifiable_values() {
    // treeadd(d) must be 2^d - 1.
    let b = cj_benchmarks::by_name("treeadd").unwrap();
    let (p, _) = infer_source(b.source, InferOptions::default()).unwrap();
    for d in 1..8 {
        let out = run_main_big_stack(&p, &[Value::Int(d)], RunConfig::default()).unwrap();
        assert_eq!(out.value, Value::Int((1 << d) - 1), "treeadd({d})");
    }
    // ackermann small values: ack(1,n) = n+2, ack(2,n) = 2n+3.
    let b = cj_benchmarks::by_name("Ackermann").unwrap();
    let (p, _) = infer_source(b.source, InferOptions::default()).unwrap();
    for n in 0..5 {
        let out =
            run_main_big_stack(&p, &[Value::Int(1), Value::Int(n)], RunConfig::default()).unwrap();
        assert_eq!(out.value, Value::Int(n + 2), "ack(1,{n})");
        let out =
            run_main_big_stack(&p, &[Value::Int(2), Value::Int(n)], RunConfig::default()).unwrap();
        assert_eq!(out.value, Value::Int(2 * n + 3), "ack(2,{n})");
    }
    // sieve: π(100) = 25, π(1000) = 168.
    let b = cj_benchmarks::by_name("Sieve of Eratosthenes").unwrap();
    let (p, _) = infer_source(b.source, InferOptions::default()).unwrap();
    for (n, primes) in [(100, 25), (1000, 168)] {
        let out = run_main_big_stack(&p, &[Value::Int(n)], RunConfig::default()).unwrap();
        assert_eq!(out.value, Value::Int(primes), "pi({n})");
    }
}

#[test]
fn life_variants_agree_on_population() {
    // All three optimized variants simulate the same 16x16 glider; the
    // array and dangling variants return the final population and must
    // agree with each other for any generation count.
    for gens in [1, 5, 10] {
        let mut pops = Vec::new();
        for name in ["Optimized Life (array)", "Optimized Life (dangling)"] {
            let b = cj_benchmarks::by_name(name).unwrap();
            let (p, _) = infer_source(b.source, InferOptions::default()).unwrap();
            let out = run_main_big_stack(&p, &[Value::Int(gens)], RunConfig::default()).unwrap();
            pops.push(format!("{}", out.value));
        }
        assert_eq!(pops[0], pops[1], "life variants diverge at {gens} gens");
    }
}
