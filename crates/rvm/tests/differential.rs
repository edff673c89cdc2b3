//! Differential execution: the register engine must be observationally
//! identical to the tree-walking interpreter, the oracle.
//!
//! Random well-typed-by-construction recursive programs (the generator in
//! `common/`, shared with the liveness differential suite) are inferred
//! under every subtyping mode, region-checked, additionally rewritten by
//! the flow-sensitive extent pass (both extent placements must agree),
//! and executed on **both** engines; the returned value, the captured
//! prints, and the full [`SpaceStats`] must be byte-identical.
//! Deterministic fault programs then pin that runtime *errors* — variant
//! and span — also match (the `cj-rvm` unit suite covers the remaining
//! fault classes).
//!
//! [`SpaceStats`]: cj_runtime::SpaceStats

mod common;

use cj_infer::rast::RProgram;
use cj_infer::{infer_source, InferOptions, SubtypeMode};
use cj_runtime::{run_main_big_stack, RunConfig, Value};
use common::{arb_op, clamp_op, render, Op};
use proptest::prelude::*;

/// Runs `p` on both engines and asserts observable identity; returns the
/// agreed observation.
fn run_both_engines(p: &RProgram, args: &[Value], label: &str) -> cj_runtime::Outcome {
    let rvm = cj_rvm::run_main(&cj_vm::lower_program(p), args, RunConfig::default())
        .unwrap_or_else(|e| panic!("[{label}] rvm: {e}"));
    let interp = run_main_big_stack(p, args, RunConfig::default())
        .unwrap_or_else(|e| panic!("[{label}] interp: {e}"));
    assert_eq!(
        rvm.value.to_string(),
        interp.value.to_string(),
        "[{label}] rvm/interp diverged on value"
    );
    assert_eq!(
        rvm.prints, interp.prints,
        "[{label}] rvm/interp diverged on prints"
    );
    assert_eq!(
        rvm.space, interp.space,
        "[{label}] rvm/interp diverged on space"
    );
    rvm
}

/// Paper-placement program plus its liveness-tightened rewrite, both
/// region-checked.
fn both_extents(src: &str, opts: InferOptions) -> (RProgram, RProgram) {
    let (paper, _) = infer_source(src, opts).expect("inference");
    cj_check::check(&paper).expect("paper-mode program checks");
    let mut live = paper.clone();
    cj_liveness::tighten(&mut live);
    cj_check::check(&live)
        .unwrap_or_else(|e| panic!("liveness-rewritten program must still region-check: {e}"));
    (paper, live)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_recursive_programs_are_engine_identical(
        nclasses in 1usize..4,
        nvars in 1usize..4,
        ops in proptest::collection::vec(arb_op(3), 0..6),
        flag in any::<bool>(),
    ) {
        let ops: Vec<Op> = ops.iter().map(|op| clamp_op(op, nvars)).collect();
        let src = render(nclasses, nvars, &ops);
        let args = [Value::Bool(flag)];
        for mode in SubtypeMode::ALL {
            let (paper, live) = both_extents(&src, InferOptions::with_mode(mode));
            let obs_paper = run_both_engines(&paper, &args, &format!("{mode}/paper"));
            let obs_live = run_both_engines(&live, &args, &format!("{mode}/liveness"));
            // Extent placement may change *where* things live, never
            // what the program computes.
            prop_assert_eq!(
                obs_paper.value.to_string(),
                obs_live.value.to_string(),
                "[{}] value changed across extent modes\n{}", mode, src
            );
            prop_assert_eq!(
                &obs_paper.prints, &obs_live.prints,
                "[{}] prints changed across extent modes\n{}", mode, src
            );
        }
    }
}

/// Runtime faults carry the same variant *and the same source span* on
/// both engines — the structured diagnostics rendered from a `run`
/// failure are identical no matter the engine.
#[test]
fn fault_spans_are_engine_identical() {
    let cases: &[(&str, &[Value])] = &[
        (
            "class Node { int v; Node next; }
             class M {
               static int walk(Node n, int k) {
                 if (k == 0) { n.v } else { walk(n.next, k - 1) }
               }
               static int main(int k) { walk(new Node(7, (Node) null), k) }
             }",
            &[Value::Int(3)], // null deref inside recursion
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
        let (paper, live) = both_extents(src, InferOptions::default());
        for (p, label) in [(&paper, "paper"), (&live, "liveness")] {
            let rvm =
                cj_rvm::run_main(&cj_vm::lower_program(p), args, RunConfig::default()).unwrap_err();
            let interp = run_main_big_stack(p, args, RunConfig::default()).unwrap_err();
            assert_eq!(
                rvm, interp,
                "[{label}] rvm/interp error variant diverged:\n{src}"
            );
            assert_eq!(
                rvm.span(),
                interp.span(),
                "[{label}] rvm/interp error span diverged:\n{src}"
            );
        }
    }
}
