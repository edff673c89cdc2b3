//! The full Fig 8/9 benchmark suite, every subtyping mode, both extent
//! placements, on the register engine and the interpreter oracle —
//! value, prints, and space accounting (hence every paper space ratio,
//! including the pinned Reynolds3 one) must be bit-identical.

use cj_benchmarks::all_benchmarks;
use cj_infer::{infer_source, InferOptions, SubtypeMode};
use cj_runtime::{run_main_big_stack, RunConfig, Value};

#[test]
fn all_benchmarks_are_engine_identical() {
    for b in all_benchmarks() {
        let args: Vec<Value> = b.test_input.iter().map(|&v| Value::Int(v)).collect();
        for mode in SubtypeMode::ALL {
            let (paper, _) = infer_source(b.source, InferOptions::with_mode(mode))
                .unwrap_or_else(|e| panic!("{} [{mode}] inference: {e}", b.name));
            cj_check::check(&paper).unwrap_or_else(|e| panic!("{} [{mode}] checker: {e}", b.name));
            let mut live = paper.clone();
            cj_liveness::tighten(&mut live);
            cj_check::check(&live)
                .unwrap_or_else(|e| panic!("{} [{mode}] liveness checker: {e}", b.name));
            for (p, extent) in [(&paper, "paper"), (&live, "liveness")] {
                let label = format!("{} [{mode}/{extent}]", b.name);
                let reg = cj_vm::lower_program(p);
                let rvm = cj_rvm::run_main(&reg, &args, RunConfig::default())
                    .unwrap_or_else(|e| panic!("[{label}] rvm: {e}"));
                let interp = run_main_big_stack(p, &args, RunConfig::default())
                    .unwrap_or_else(|e| panic!("[{label}] interp: {e}"));
                assert_eq!(
                    rvm.value.to_string(),
                    interp.value.to_string(),
                    "[{label}] rvm/interp value diverged"
                );
                assert_eq!(
                    rvm.prints, interp.prints,
                    "[{label}] rvm/interp prints diverged"
                );
                assert_eq!(
                    rvm.space, interp.space,
                    "[{label}] rvm/interp space diverged"
                );
            }
        }
    }
}

/// Dispatches (`Outcome::steps`) each program retires on its test input
/// under the default options, as recorded for the typed register
/// lowering: typed arithmetic and compare-and-branch opcodes, literals in
/// constant registers, `while` loops tested at the bottom and returns that
/// leave their `letreg`s in the same dispatch. Register code may only get
/// better: no program may need more dispatches than it does now.
const RECORDED_DISPATCHES: &[(&str, u64)] = &[
    ("Sieve of Eratosthenes", 4192),
    ("Ackermann", 323),
    ("Merge Sort", 38538),
    ("Mandelbrot", 72198),
    ("Naive Life", 149349),
    ("Optimized Life (array)", 106882),
    ("Optimized Life (dangling)", 106879),
    ("Optimized Life (stack)", 103321),
    ("Reynolds3", 147384),
    ("foo-sum", 242),
    ("bisort", 3095),
    ("em3d", 7835),
    ("health", 7764),
    ("mst", 1278),
    ("power", 8210),
    ("treeadd", 339),
    ("tsp", 1128),
    ("perimeter", 5039),
    ("n-body", 9512),
    ("voronoi", 56197),
];

#[test]
fn dispatch_counts_never_exceed_the_recorded_table() {
    let benchmarks = all_benchmarks();
    assert_eq!(benchmarks.len(), RECORDED_DISPATCHES.len());
    for b in benchmarks {
        let recorded = RECORDED_DISPATCHES
            .iter()
            .find(|(name, _)| *name == b.name)
            .unwrap_or_else(|| panic!("{} has no recorded dispatch count", b.name))
            .1;
        let args: Vec<Value> = b.test_input.iter().map(|&v| Value::Int(v)).collect();
        let (p, _) = infer_source(b.source, InferOptions::default()).unwrap();
        let out = cj_rvm::run_main(&cj_vm::lower_program(&p), &args, RunConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        println!("{:<28} {:>7} (recorded {recorded})", b.name, out.steps);
        assert!(
            out.steps <= recorded,
            "{}: {} dispatches, recorded {recorded}",
            b.name,
            out.steps
        );
    }
}
