//! Differential correctness of the liveness extent pass: rewriting
//! `letreg` extents must never change *observable* behaviour — value,
//! prints, error variant and span — on either engine, must keep the
//! program region-checker-valid, and must never make peak live space
//! worse.
//!
//! Three layers, mirroring how this repo validates the register engine:
//!
//! - the full Fig 8/9 benchmark suite at test inputs;
//! - random well-typed-by-construction recursive programs (the generator
//!   `cj-rvm`'s differential suite uses, included from there);
//! - deterministic fault programs pinning error variant + span identity.

#[path = "../../rvm/tests/common/mod.rs"]
mod common;

use cj_benchmarks::all_benchmarks;
use cj_infer::rast::RProgram;
use cj_infer::{infer_source, InferOptions, SubtypeMode};
use cj_liveness::points::PointGraph;
use cj_runtime::{run_main_big_stack, RunConfig, Value};
use common::{arb_op, clamp_op, render, Op};
use proptest::prelude::*;

/// Paper-placement program plus its liveness-tightened version, both
/// region-checked, with sound placements.
fn both_modes(src: &str, opts: InferOptions) -> (RProgram, RProgram) {
    let (paper, _) = infer_source(src, opts).expect("inference");
    cj_check::check(&paper).expect("paper-mode program checks");
    let mut live = paper.clone();
    cj_liveness::tighten(&mut live);
    cj_check::check(&live)
        .unwrap_or_else(|e| panic!("liveness-tightened program must still region-check: {e}"));
    for p in [&paper, &live] {
        assert_placements_sound(p);
    }
    (paper, live)
}

/// Every method's `letreg` extents nest, and each covers every use of its
/// region.
fn assert_placements_sound(p: &RProgram) {
    for (id, m) in p.all_rmethods() {
        let g = PointGraph::build(&p.kernel.method(id).body, m);
        let name = p.kernel.method_name(id);
        assert!(g.extents_laminar(), "{name}: letreg extents must nest");
        assert!(g.extents_cover_uses(), "{name}: a use escapes its letreg");
    }
}

struct Observed {
    value: String,
    prints: Vec<String>,
    space: cj_runtime::SpaceStats,
}

fn run_both_engines(p: &RProgram, args: &[Value], label: &str) -> Observed {
    let rvm = cj_rvm::run_main(&cj_vm::lower_program(p), args, RunConfig::default())
        .unwrap_or_else(|e| panic!("[{label}] rvm: {e}"));
    let interp = run_main_big_stack(p, args, RunConfig::default())
        .unwrap_or_else(|e| panic!("[{label}] interp: {e}"));
    assert_eq!(
        rvm.value.to_string(),
        interp.value.to_string(),
        "[{label}] engines diverged on value"
    );
    assert_eq!(
        rvm.prints, interp.prints,
        "[{label}] engines diverged on prints"
    );
    assert_eq!(
        rvm.space, interp.space,
        "[{label}] engines diverged on space"
    );
    Observed {
        value: rvm.value.to_string(),
        prints: rvm.prints,
        space: rvm.space,
    }
}

fn assert_mode_identical(paper: &Observed, live: &Observed, label: &str) {
    assert_eq!(
        paper.value, live.value,
        "[{label}] value changed across modes"
    );
    assert_eq!(
        paper.prints, live.prints,
        "[{label}] prints changed across modes"
    );
    assert_eq!(
        paper.space.total_allocated, live.space.total_allocated,
        "[{label}] extent placement must not change what is allocated"
    );
    assert_eq!(
        paper.space.objects_allocated, live.space.objects_allocated,
        "[{label}] extent placement must not change allocation count"
    );
    assert!(
        live.space.peak_live <= paper.space.peak_live,
        "[{label}] liveness extents made peak live WORSE: {} > {}",
        live.space.peak_live,
        paper.space.peak_live
    );
}

#[test]
fn all_benchmarks_are_mode_identical_and_peak_no_worse() {
    for b in all_benchmarks() {
        let args: Vec<Value> = b.test_input.iter().map(|&v| Value::Int(v)).collect();
        for mode in SubtypeMode::ALL {
            let label = format!("{} [{mode}]", b.name);
            let (paper, live) = both_modes(b.source, InferOptions::with_mode(mode));
            let obs_paper = run_both_engines(&paper, &args, &label);
            let obs_live = run_both_engines(&live, &args, &label);
            assert_mode_identical(&obs_paper, &obs_live, &label);
        }
    }
}

#[test]
fn fault_spans_are_mode_identical() {
    let cases: &[(&str, &[Value])] = &[
        (
            "class Node { int v; Node next; }
             class M {
               static int walk(Node n, int k) {
                 if (k == 0) { n.v } else { walk(n.next, k - 1) }
               }
               static int main(int k) { walk(new Node(7, (Node) null), k) }
             }",
            &[Value::Int(3)],
        ),
        (
            "class M { static int main(int a, int b) { (a + b) / (a - b) } }",
            &[Value::Int(4), Value::Int(4)],
        ),
        (
            "class A { int x; } class B extends A { int y; }
             class M {
               static A pick(bool f) { if (f) { new B(1, 2) } else { new A(3) } }
               static int main(bool f) { B b = (B) pick(f); b.y }
             }",
            &[Value::Bool(false)],
        ),
    ];
    for (src, args) in cases {
        let (paper, live) = both_modes(src, InferOptions::default());
        for (p, label) in [(&paper, "paper"), (&live, "liveness")] {
            let rvm =
                cj_rvm::run_main(&cj_vm::lower_program(p), args, RunConfig::default()).unwrap_err();
            let interp = run_main_big_stack(p, args, RunConfig::default()).unwrap_err();
            assert_eq!(rvm, interp, "[{label}] error variant diverged:\n{src}");
            assert_eq!(
                rvm.span(),
                interp.span(),
                "[{label}] error span diverged:\n{src}"
            );
        }
        let p_err = run_main_big_stack(&paper, args, RunConfig::default()).unwrap_err();
        let l_err = run_main_big_stack(&live, args, RunConfig::default()).unwrap_err();
        assert_eq!(
            p_err, l_err,
            "error variant changed across extent modes:\n{src}"
        );
        assert_eq!(
            p_err.span(),
            l_err.span(),
            "error span changed across extent modes:\n{src}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_recursive_programs_are_mode_identical(
        nclasses in 1usize..4,
        nvars in 1usize..4,
        ops in proptest::collection::vec(arb_op(3), 0..6),
        flag in any::<bool>(),
    ) {
        let ops: Vec<Op> = ops.iter().map(|op| clamp_op(op, nvars)).collect();
        let src = render(nclasses, nvars, &ops);
        for mode in SubtypeMode::ALL {
            let (paper, live) = both_modes(&src, InferOptions::with_mode(mode));
            let args = [Value::Bool(flag)];
            let obs_paper = run_both_engines(&paper, &args, &format!("{mode} paper"));
            let obs_live = run_both_engines(&live, &args, &format!("{mode} liveness"));
            assert_mode_identical(&obs_paper, &obs_live, &mode.to_string());
        }
    }
}
