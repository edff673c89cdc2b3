//! # cj-rvm — the register-based bytecode engine
//!
//! The default execution engine. It runs the register IR that
//! [`cj_vm`] lowers the region-annotated kernel to ([`cj_vm::code`]):
//!
//! - operands are registers of one flat per-frame file, folded into each
//!   instruction, so there is no operand stack; literals are read-only
//!   constant registers the frame template already holds;
//! - opcodes are typed: `int` and `float` arithmetic and comparisons
//!   each have a handler that reads its operands and computes, with no
//!   operator code to decode;
//! - superinstructions — compare-and-branch, load-field-then-call and
//!   leave-`letreg`s-then-return — each do the work of several plain
//!   instructions in one dispatch, and a `while` tests its condition at
//!   the bottom of each iteration, so no jump closes the loop;
//! - dispatch is one `match` on the opcode over inlined handlers, a call
//!   copies the callee's register-file template, and `letreg` compiles
//!   to direct bump-arena push/pop against the
//!   [`RegionHeap`](cj_runtime::RegionHeap) the interpreter runs on too.
//!
//! Observable behaviour — value, prints,
//! [`SpaceStats`](cj_runtime::SpaceStats) (including the paper's pinned
//! space ratios), structured
//! [`RuntimeError`](cj_runtime::RuntimeError)s with their spans, and
//! the fuel/depth limits — is bit-identical to the tree-walking
//! interpreter; the differential suites in `tests/` enforce it, with the
//! interpreter as the oracle. `cjrc run` and daemon run requests use
//! this engine unless `--engine interp` (or `"engine": "interp"`) asks
//! for the interpreter.
//!
//! # Examples
//!
//! ```
//! use cj_infer::{infer_source, InferOptions};
//! use cj_runtime::{RunConfig, Value};
//!
//! let (p, _) = infer_source(
//!     "class List { int value; List next; }
//!      class M {
//!        static List build(int n) {
//!          if (n == 0) { (List) null } else { new List(n, build(n - 1)) }
//!        }
//!        static int sum(List l) {
//!          if (l == null) { 0 } else { l.value + sum(l.next) }
//!        }
//!        static int main(int n) { sum(build(n)) }
//!      }",
//!     InferOptions::default(),
//! ).unwrap();
//! let reg = cj_vm::lower_program(&p);
//! let rvm = cj_rvm::run_main(&reg, &[Value::Int(10)], RunConfig::default()).unwrap();
//! let interp = cj_runtime::run_main(&p, &[Value::Int(10)], RunConfig::default()).unwrap();
//! assert_eq!(rvm.value, Value::Int(55));
//! assert_eq!(rvm.value, interp.value);
//! assert_eq!(rvm.space, interp.space);
//! ```
#![forbid(unsafe_code)]

pub mod exec;

pub use exec::run_main;

#[cfg(test)]
mod tests {
    use super::*;
    use cj_frontend::span::Span;
    use cj_infer::{infer_source, InferOptions, SubtypeMode};
    use cj_runtime::{Outcome, RunConfig, RuntimeError, Value};
    use cj_vm::{lower_program, RvmProgram};

    fn compile(src: &str) -> (cj_infer::RProgram, RvmProgram) {
        let (p, _) = infer_source(src, InferOptions::default()).unwrap();
        cj_check::check(&p).unwrap_or_else(|e| panic!("checker: {e}"));
        let reg = lower_program(&p);
        (p, reg)
    }

    fn run_all(src: &str, args: &[Value]) -> Outcome {
        let (p, reg) = compile(src);
        let rvm = run_main(&reg, args, RunConfig::default()).unwrap();
        let interp = cj_runtime::run_main(&p, args, RunConfig::default()).unwrap();
        assert_eq!(rvm.value, interp.value, "rvm/interp values diverge");
        assert_eq!(rvm.prints, interp.prints, "rvm/interp prints diverge");
        assert_eq!(rvm.space, interp.space, "rvm/interp space stats diverge");
        rvm
    }

    #[test]
    fn arithmetic_and_loops() {
        let out = run_all(
            "class M { static int main(int n) {
               int s = 0; int i = 1;
               while (i <= n) { s = s + i; i = i + 1; }
               s
             } }",
            &[Value::Int(100)],
        );
        assert_eq!(out.value, Value::Int(5050));
    }

    /// Loops are tested on entry and at the bottom. A condition that holds
    /// a loop itself is lowered once, the loop entering at its bottom
    /// test; a loop that never runs its body still runs its condition.
    #[test]
    fn loop_conditions_run_on_entry_and_at_the_bottom() {
        let out = run_all(
            "class M { static int main(int n) {
               int i = 0; int tests = 0;
               while ({ int j = 0; while (j < 2) { j = j + 1; } tests = tests + j; i < n }) {
                 i = i + 1;
               }
               int k = 0;
               while (k > n) { k = k + 1; }
               while (false) { k = k + 100; }
               print(k);
               tests
             } }",
            &[Value::Int(3)],
        );
        assert_eq!(out.value, Value::Int(8));
        assert_eq!(out.prints, vec!["0"]);
    }

    #[test]
    fn objects_fields_dispatch_and_overrides() {
        let out = run_all(
            "class A { int m() { 1 } int twice() { this.m() * 2 } }
             class B extends A { int m() { 2 } }
             class C extends B { int extra() { 9 } int m() { 3 } }
             class M {
               static int main() {
                 A a = new A();
                 A b = new B();
                 A c = new C();
                 a.twice() * 100 + b.twice() * 10 + c.twice()
               }
             }",
            &[],
        );
        assert_eq!(out.value, Value::Int(246));
    }

    #[test]
    fn recursion_regions_and_field_call_fusion() {
        let out = run_all(
            "class List { int value; List next; }
             class M {
               static List build(int n) {
                 if (n == 0) { (List) null } else { new List(n, build(n - 1)) }
               }
               static int sum(List l) {
                 if (l == null) { 0 } else { l.value + sum(l.next) }
               }
               static int main(int n) { sum(build(n)) }
             }",
            &[Value::Int(10)],
        );
        assert_eq!(out.value, Value::Int(55));
    }

    #[test]
    fn per_iteration_regions_are_reclaimed_for_real() {
        let out = run_all(
            "class Box { Object item; }
             class M {
               static int main(int n) {
                 int i = 0;
                 while (i < n) { Box b = new Box(null); i = i + 1; }
                 i
               }
             }",
            &[Value::Int(1000)],
        );
        assert_eq!(out.space.regions_created, 1000);
        assert!(out.space.space_ratio() < 0.01);
    }

    #[test]
    fn arrays_floats_prints_and_logic() {
        let out = run_all(
            "class M { static int main(int n) {
               int[] a = new int[n];
               int i = 0;
               while (i < n) { a[i] = i * i; i = i + 1; }
               float f = 2.5;
               print(f * 2.0);
               print(a[n - 1]);
               bool ok = n > 1 && a[0] == 0 || n < 0;
               print(ok);
               a[n - 1] + a.length
             } }",
            &[Value::Int(10)],
        );
        assert_eq!(out.value, Value::Int(91));
        assert_eq!(out.prints, vec!["5", "81", "true"]);
    }

    #[test]
    fn runtime_errors_match_interpreter_spans() {
        let cases = [
            (
                "class Cell { int v; }
                 class M { static int main() { Cell c = (Cell) null; c.v } }",
                vec![],
            ),
            (
                "class M { static int main(int n) { 10 / n } }",
                vec![Value::Int(0)],
            ),
            (
                "class M { static int main(int n) { int[] a = new int[2]; a[n] } }",
                vec![Value::Int(5)],
            ),
            (
                "class M { static int main(int n) { int[] a = new int[n]; a.length } }",
                vec![Value::Int(-3)],
            ),
            (
                "class A { int x; } class B extends A { int y; }
                 class M { static int main() { A a = new A(0); B b = (B) a; 1 } }",
                vec![],
            ),
            (
                "class M { static int f(int n) { f(n + 1) } static int main(int n) { f(n) } }",
                vec![Value::Int(1)],
            ),
        ];
        let cfg = RunConfig {
            max_depth: 50,
            ..RunConfig::default()
        };
        for (src, args) in cases {
            let (p, reg) = compile(src);
            let rvm = run_main(&reg, &args, cfg).unwrap_err();
            let interp = cj_runtime::run_main(&p, &args, cfg).unwrap_err();
            assert_eq!(rvm, interp, "error divergence on {src}");
            assert!(rvm.span().is_some(), "unlocated fault on {src}");
        }
    }

    /// Wraps the body of `main`'s first loop in a `letreg` that shadows
    /// the region of the loop's allocation, so the object allocated in the
    /// loop dies when the body ends while references to it outlive the
    /// loop. The result fails the region checker.
    fn free_loop_allocation_early(p: &mut cj_infer::RProgram) {
        use cj_frontend::kernel::{walk_expr, KExprKind};
        use cj_infer::{Letreg, Placement};
        let kernel = std::sync::Arc::clone(&p.kernel);
        let main = p.statics.first_mut().unwrap();
        let mut body = None;
        walk_expr(&kernel.method(main.id).body, &mut |e| {
            if let (KExprKind::While { body: b, .. }, None) = (&e.kind, body) {
                body = Some(&**b);
            }
        });
        let body = body.expect("no loop to mangle");
        let mut shared = None;
        walk_expr(body, &mut |x| {
            if let KExprKind::New(..) = x.kind {
                shared = Some(main.inst(x.id)[0]);
            }
        });
        let at = Placement::Node(body.id);
        let region = shared.expect("the loop allocates");
        let letregs = [Letreg { region, at }]
            .iter()
            .chain(main.letregs())
            .copied()
            .collect();
        main.set_letregs(letregs);
        assert!(
            cj_check::check(p).is_err(),
            "the mangled program is unchecked"
        );
    }

    /// The span of the first expression of `main` matching `pick`.
    fn span_of(p: &cj_infer::RProgram, pick: fn(&cj_frontend::kernel::KExprKind) -> bool) -> Span {
        let mut found = None;
        let body = &p.kernel.method(p.statics[0].id).body;
        cj_frontend::kernel::walk_expr(body, &mut |e| {
            if found.is_none() && pick(&e.kind) {
                found = Some(e.span);
            }
        });
        found.expect("no such expression in main")
    }

    /// An unchecked program whose object outlives its `letreg`: `c` and
    /// `d` share a region, so `c` is freed when the loop body ends and
    /// `d.v` after the loop reads a popped region.
    #[test]
    fn object_outliving_its_letreg_is_a_dangling_access() {
        let (mut p, _) = infer_source(
            "class C { int v; }
             class M {
               static int main() {
                 C d = (C) null;
                 int i = 0;
                 while (i < 1) { C c = new C(7); d = c; i = i + 1; }
                 d.v
               }
             }",
            InferOptions::default(),
        )
        .unwrap();
        free_loop_allocation_early(&mut p);
        let span = span_of(&p, |k| {
            matches!(k, cj_frontend::kernel::KExprKind::Field(..))
        });
        let rvm = run_main(&lower_program(&p), &[], RunConfig::default()).unwrap_err();
        assert_eq!(rvm, RuntimeError::DanglingAccess(span));
        let interp = cj_runtime::run_main(&p, &[], RunConfig::default()).unwrap_err();
        assert_eq!(rvm, interp);
    }

    /// A reference whose region was popped, read back from a field of a
    /// live box: both engines free the region on exit, so casting it is a
    /// dangling access and printing it shows the sentinel serial.
    #[test]
    fn dead_reference_casts_and_prints_alike() {
        let (mut p, _) = infer_source(
            "class C { int v; }
             class Box { Object o; }
             class M {
               static int main(bool cast) {
                 Box b = new Box(null);
                 int i = 0;
                 while (i < 1) { C c = new C(7); b.o = c; i = i + 1; }
                 Object x = b.o;
                 if (cast) { C y = (C) x; }
                 print(x);
                 0
               }
             }",
            InferOptions::default(),
        )
        .unwrap();
        free_loop_allocation_early(&mut p);
        let span = span_of(&p, |k| {
            matches!(k, cj_frontend::kernel::KExprKind::Cast(..))
        });
        let reg = lower_program(&p);
        let cast = [Value::Bool(true)];
        let rvm = run_main(&reg, &cast, RunConfig::default()).unwrap_err();
        assert_eq!(rvm, RuntimeError::DanglingAccess(span));
        let interp = cj_runtime::run_main(&p, &cast, RunConfig::default()).unwrap_err();
        assert_eq!(rvm, interp);
        let print = [Value::Bool(false)];
        let rvm = run_main(&reg, &print, RunConfig::default()).unwrap();
        let interp = cj_runtime::run_main(&p, &print, RunConfig::default()).unwrap();
        assert_eq!(rvm.prints, [format!("obj@{}", u32::MAX)]);
        assert_eq!(rvm.prints, interp.prints);
    }

    #[test]
    fn step_and_depth_limits_are_structured() {
        let (_, reg) = compile("class M { static int main() { while (true) { } 0 } }");
        let err = run_main(
            &reg,
            &[],
            RunConfig {
                step_limit: 1000,
                ..RunConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::StepLimit));

        let (_, reg) =
            compile("class M { static int f(int n) { f(n + 1) } static int main() { f(0) } }");
        let err = run_main(
            &reg,
            &[],
            RunConfig {
                max_depth: 64,
                ..RunConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::DepthLimit(_)));
    }

    #[test]
    fn erase_regions_is_a_noop_on_results() {
        let (_, reg) = compile(
            "class Pair { Object a; Object b; }
             class M { static int main(int n) {
               int i = 0;
               while (i < n) { Pair p = new Pair(null, null); i = i + 1; }
               i
             } }",
        );
        let cfg = RunConfig {
            erase_regions: true,
            ..RunConfig::default()
        };
        let erased = run_main(&reg, &[Value::Int(5)], cfg).unwrap();
        assert_eq!(erased.value, Value::Int(5));
        assert_eq!(erased.space.regions_created, 0, "letreg erased");
        assert!(
            (erased.space.space_ratio() - 1.0).abs() < 1e-9,
            "everything lives in the heap"
        );
    }

    #[test]
    fn bad_main_args_and_missing_main() {
        let (_, reg) = compile("class M { static int main(int n) { n } }");
        assert!(matches!(
            run_main(&reg, &[], RunConfig::default()).unwrap_err(),
            RuntimeError::BadMainArgs(_)
        ));
        // A reference from another run's heap cannot enter this one.
        let foreign = cj_runtime::heap::ObjRef {
            region: 0,
            word: 0,
            serial: 0,
        };
        assert!(matches!(
            run_main(&reg, &[Value::Ref(foreign)], RunConfig::default()).unwrap_err(),
            RuntimeError::BadMainArgs(_)
        ));
        let (_, reg) = compile("class M { static int helper(int n) { n } }");
        assert!(matches!(
            run_main(&reg, &[], RunConfig::default()).unwrap_err(),
            RuntimeError::NoMain
        ));
    }

    #[test]
    fn superinstructions_are_fused_and_hit() {
        let (_, reg) = compile(
            "class List { int value; List next; }
             class M {
               static int sum(List l) {
                 if (l == null) { 0 } else { l.value + sum(l.next) }
               }
               static int main(int n) {
                 int i = 0;
                 List l = (List) null;
                 while (i < n) { l = new List(i, l); i = i + 1; }
                 sum(l)
               }
             }",
        );
        assert!(reg.fused_count() > 0, "no superinstructions fused");
        let out = run_main(&reg, &[Value::Int(50)], RunConfig::default()).unwrap();
        assert_eq!(out.value, Value::Int(1225));
    }

    #[test]
    fn lowering_is_deterministic_across_modes() {
        let src = "class RList { int value; RList next; }
             class M {
               static int depth(RList p, int d) {
                 if (d == 0) { count(p) } else {
                   RList p2 = new RList(d, p);
                   depth(p2, d - 1)
                 }
               }
               static int count(RList p) {
                 if (p == null) { 0 } else { 1 + count(p.next) }
               }
               static int main(int d) { depth((RList) null, d) }
             }";
        for mode in SubtypeMode::ALL {
            let (p, _) = infer_source(src, InferOptions::with_mode(mode)).unwrap();
            let reg = lower_program(&p);
            let rvm = run_main(&reg, &[Value::Int(40)], RunConfig::default())
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            let interp =
                cj_runtime::run_main_big_stack(&p, &[Value::Int(40)], RunConfig::default())
                    .unwrap();
            assert_eq!(rvm.value, interp.value, "{mode}");
            assert_eq!(rvm.space, interp.space, "{mode}");
        }
    }
}
