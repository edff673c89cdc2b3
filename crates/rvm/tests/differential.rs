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

/// A typed operand: its type name, the values a run passes in, and how
/// each value is written as a literal (for those that have a literal).
struct Typed {
    ty: &'static str,
    values: Vec<Value>,
    literal: fn(Value) -> Option<&'static str>,
}

fn int_literal(v: Value) -> Option<&'static str> {
    match v {
        Value::Int(0) => Some("0"),
        Value::Int(1) => Some("1"),
        Value::Int(i64::MAX) => Some("9223372036854775807"),
        _ => None,
    }
}

fn float_literal(v: Value) -> Option<&'static str> {
    match v {
        Value::Float(x) if x == 0.0 && x.is_sign_positive() => Some("0.0"),
        Value::Float(1.0) => Some("1.0"),
        Value::Float(x) if x == f64::INFINITY => Some("1e999"),
        _ => None,
    }
}

/// The program exercising `E` (`l op r`): as a value, as a return, and —
/// for comparisons — as a branch of both polarities and as a loop
/// condition (tested on entry and at the bottom).
fn typed_program(ty: &str, op: &str, l: &str, r: &str) -> (String, String) {
    let e = format!("{l} {op} {r}");
    let comparison = ["<", "<=", ">", ">=", "==", "!="].contains(&op);
    let (ret, body) = if comparison {
        (
            "bool",
            format!(
                "bool v = {e}; print(v);
                 if ({e}) {{ print(1); }} else {{ print(0); }}
                 if (!({e})) {{ print(2); }} else {{ print(3); }}
                 int k = 0; while ({e} && k < 2) {{ k = k + 1; }} print(k);
                 {e}"
            ),
        )
    } else {
        (ty, format!("{ty} v = {e}; print(v); {e}"))
    };
    // The prints come first, so a fault's instruction is not the first
    // one of the method.
    let src =
        format!("class M {{ static {ret} main({ty} x, {ty} y) {{ print(x); print(y); {body} }} }}");
    (src, e)
}

/// Every operator on `int` and on `float` operands, with a literal on
/// the left, on the right or on neither side, over edge values (zero,
/// ±1, the `i64` extremes — so `i64::MIN / -1` and `% -1` — and `-0.0`,
/// NaN and ±inf): both engines return the same value and prints, or fail
/// with the same fault at the same span, a zero divisor at its `/` or `%`.
#[test]
fn typed_operators_are_engine_identical_on_edge_values() {
    let int = Typed {
        ty: "int",
        values: [0, 1, -1, i64::MIN, i64::MAX].map(Value::Int).to_vec(),
        literal: int_literal,
    };
    let float = Typed {
        ty: "float",
        values: [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
        .map(Value::Float)
        .to_vec(),
        literal: float_literal,
    };
    let ops = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="];
    let (mut runs, mut faults) = (0, 0);
    for t in [&int, &float] {
        let literals: Vec<(Value, &str)> = t
            .values
            .iter()
            .filter_map(|&v| (t.literal)(v).map(|s| (v, s)))
            .collect();
        for op in ops {
            // (left text, right text, fixed left value, fixed right value)
            let mut shapes = vec![("x", "y", None, None)];
            for &(v, s) in &literals {
                shapes.push((s, "y", Some(v), None));
                shapes.push(("x", s, None, Some(v)));
            }
            for (l, r, fixed_l, fixed_r) in shapes {
                let (src, e) = typed_program(t.ty, op, l, r);
                let (p, _) = infer_source(&src, InferOptions::default())
                    .unwrap_or_else(|e| panic!("inference: {e}\n{src}"));
                cj_check::check(&p).unwrap_or_else(|e| panic!("checker: {e}\n{src}"));
                let reg = cj_vm::lower_program(&p);
                let side = |fixed: Option<Value>| fixed.map_or(t.values.clone(), |v| vec![v]);
                for x in side(fixed_l) {
                    for y in side(fixed_r) {
                        let label = format!("{e} with x = {x}, y = {y}");
                        let args = [x, y];
                        let rvm = cj_rvm::run_main(&reg, &args, RunConfig::default());
                        let interp = cj_runtime::run_main(&p, &args, RunConfig::default());
                        runs += 1;
                        match (rvm, interp) {
                            (Ok(rvm), Ok(interp)) => {
                                assert_eq!(
                                    rvm.value.to_string(),
                                    interp.value.to_string(),
                                    "[{label}] value"
                                );
                                assert_eq!(rvm.prints, interp.prints, "[{label}] prints");
                            }
                            (Err(rvm), Err(interp)) => {
                                assert_eq!(rvm, interp, "[{label}] fault");
                                let span = rvm.span().expect("a located fault");
                                assert_eq!(
                                    &src[span.lo as usize..span.hi as usize],
                                    e,
                                    "[{label}] fault span"
                                );
                                faults += 1;
                            }
                            (rvm, interp) => {
                                panic!("[{label}] rvm {rvm:?} but interp {interp:?}")
                            }
                        }
                    }
                }
            }
        }
    }
    // Integer division and remainder by zero fault on every shape.
    assert!(
        faults > 0 && runs > faults,
        "{faults} faults in {runs} runs"
    );
}
