//! # cj-runtime — region-based execution of annotated Core-Java
//!
//! The runtime substrate the paper's evaluation needs, shared by both
//! execution engines:
//!
//! - the [region heap](heap): a lexically scoped stack of bump arenas
//!   (the role Titanium's allocator played in the paper) that holds every
//!   object's payload and frees a region's objects wholesale when its
//!   `letreg` exits, with space accounting (peak-live vs total-allocated —
//!   Fig 8's "Space Usage / Total Allocation");
//! - the one runtime [`Value`] type and the arithmetic on it;
//! - a tree-walking [interpreter](interp) for region-annotated programs,
//!   the reference the `cj-rvm` register engine is tested against. Both
//!   engines allocate in, read from and free the same [`RegionHeap`].
//!
//! Every object access dynamically verifies that the target region is still
//! live, so the interpreter doubles as a validation oracle for Theorem 1:
//! a program accepted by `cj-check` must never raise
//! [`RuntimeError::DanglingAccess`].
//!
//! # Examples
//!
//! ```
//! use cj_infer::{infer_source, InferOptions};
//! use cj_runtime::{run_main, RunConfig, Value};
//!
//! let (p, _) = infer_source(
//!     "class Box { Object item; }
//!      class M {
//!        static int main(int n) {
//!          int i = 0;
//!          while (i < n) { Box b = new Box(null); i = i + 1; }
//!          i
//!        }
//!      }",
//!     InferOptions::default(),
//! ).unwrap();
//! let out = run_main(&p, &[Value::Int(10)], RunConfig::default()).unwrap();
//! assert_eq!(out.value, Value::Int(10));
//! // The per-iteration Box is reclaimed each time round the loop.
//! assert!(out.space.space_ratio() < 0.2);
//! ```
#![forbid(unsafe_code)]

pub mod heap;
pub mod interp;
pub mod value;

pub use heap::{RegionHeap, SpaceStats};
pub use interp::{
    run_main, run_main_big_stack, run_static, Engine, Outcome, RunConfig, RuntimeError,
};
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;
    use cj_infer::{infer_source, InferOptions, SubtypeMode};

    fn run(src: &str, args: &[Value]) -> Outcome {
        let (p, _) = infer_source(src, InferOptions::default()).unwrap();
        cj_check::check(&p).unwrap_or_else(|e| panic!("checker: {e}"));
        run_main(&p, args, RunConfig::default()).unwrap()
    }

    #[test]
    fn arithmetic_and_loops() {
        let out = run(
            "class M { static int main(int n) {
               int s = 0; int i = 1;
               while (i <= n) { s = s + i; i = i + 1; }
               s
             } }",
            &[Value::Int(100)],
        );
        assert_eq!(out.value, Value::Int(5050));
    }

    #[test]
    fn objects_fields_and_dispatch() {
        let out = run(
            "class A { int m() { 1 } }
             class B extends A { int m() { 2 } }
             class M {
               static int main() {
                 A a = new A();
                 A b = new B();
                 a.m() * 10 + b.m()
               }
             }",
            &[],
        );
        assert_eq!(out.value, Value::Int(12));
    }

    #[test]
    fn recursion_builds_lists() {
        let out = run(
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
    fn arrays_work() {
        let out = run(
            "class M { static int main(int n) {
               int[] a = new int[n];
               int i = 0;
               while (i < n) { a[i] = i * i; i = i + 1; }
               a[n - 1] + a.length
             } }",
            &[Value::Int(10)],
        );
        assert_eq!(out.value, Value::Int(91));
    }

    #[test]
    fn per_iteration_regions_are_reclaimed() {
        let out = run(
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
        assert_eq!(out.value, Value::Int(1000));
        assert!(
            out.space.space_ratio() < 0.01,
            "ratio {} should be tiny",
            out.space.space_ratio()
        );
        assert_eq!(out.space.regions_created, 1000);
    }

    #[test]
    fn escaping_structure_is_not_reclaimed() {
        let out = run(
            "class Cons { int head; Cons tail; }
             class M {
               static Cons build(int n) {
                 Cons acc = (Cons) null;
                 int i = 0;
                 while (i < n) { acc = new Cons(i, acc); i = i + 1; }
                 acc
               }
               static int main(int n) {
                 Cons l = build(n);
                 l.head
               }
             }",
            &[Value::Int(100)],
        );
        assert_eq!(out.value, Value::Int(99));
        assert!(out.space.space_ratio() > 0.9, "no reuse expected");
    }

    #[test]
    fn downcast_succeeds_and_fails_correctly() {
        let src = "
            class A { Object x; }
            class B extends A { Object y; }
            class M {
              static int main(bool make_b) {
                A a;
                if (make_b) { a = new B(null, null); } else { a = new A(null); }
                B b = (B) a;
                7
              }
            }";
        let (p, _) = infer_source(src, InferOptions::default()).unwrap();
        let ok = run_main(&p, &[Value::Bool(true)], RunConfig::default()).unwrap();
        assert_eq!(ok.value, Value::Int(7));
        let err = run_main(&p, &[Value::Bool(false)], RunConfig::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::CastFailed(_)));
    }

    #[test]
    fn null_pointer_detected() {
        let src = "
            class Cell { int v; }
            class M { static int main() { Cell c = (Cell) null; c.v } }";
        let (p, _) = infer_source(src, InferOptions::default()).unwrap();
        let err = run_main(&p, &[], RunConfig::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::NullPointer(_)));
    }

    #[test]
    fn step_limit_enforced() {
        let src = "class M { static int main() { while (true) { } 0 } }";
        let (p, _) = infer_source(src, InferOptions::default()).unwrap();
        let err = run_main(
            &p,
            &[],
            RunConfig {
                step_limit: 1000,
                ..RunConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::StepLimit));
    }

    #[test]
    fn depth_limit_enforced() {
        let src = "class M { static int f(int n) { f(n + 1) } static int main() { f(0) } }";
        let (p, _) = infer_source(src, InferOptions::default()).unwrap();
        let err = run_main(
            &p,
            &[],
            RunConfig {
                max_depth: 100,
                ..RunConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::DepthLimit(_)));
    }

    #[test]
    fn engine_names_round_trip() {
        for name in Engine::NAMES {
            let engine: Engine = name.parse().unwrap();
            assert_eq!(engine.to_string(), name);
        }
        assert_eq!("interpreter".parse::<Engine>(), Ok(Engine::Interp));
        assert!("jit".parse::<Engine>().is_err());
        assert!("vm".parse::<Engine>().is_err());
        assert_eq!(Engine::default(), Engine::Rvm);
    }

    #[test]
    fn division_by_zero_detected() {
        let src = "class M { static int main(int n) { 10 / n } }";
        let (p, _) = infer_source(src, InferOptions::default()).unwrap();
        let err = run_main(&p, &[Value::Int(0)], RunConfig::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::DivisionByZero(_)));
    }

    #[test]
    fn prints_captured() {
        let out = run(
            "class M { static void main() { print(1); print(true); print(2.5); } }",
            &[],
        );
        assert_eq!(out.prints, vec!["1", "true", "2.5"]);
    }

    #[test]
    fn no_dangling_across_modes_on_recursive_workload() {
        let src = "
            class RList { int value; RList next; }
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
        for mode in [SubtypeMode::None, SubtypeMode::Object, SubtypeMode::Field] {
            let (p, _) = infer_source(src, InferOptions::with_mode(mode)).unwrap();
            cj_check::check(&p).unwrap_or_else(|e| panic!("{mode}: {e}"));
            let out = run_main_big_stack(&p, &[Value::Int(50)], RunConfig::default())
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(out.value, Value::Int(50));
        }
    }

    #[test]
    fn field_sub_reuses_reynolds3_style_lists() {
        // The Reynolds3 shape: the recursion branches, so only one path of
        // cells is live at a time (peak = depth) while the total spans the
        // whole tree. Under field subtyping each call frame reclaims its
        // cell; with no subtyping every cell unifies into one long-lived
        // region.
        let src = "
            class RList { int value; RList next; }
            class M {
              static int walk(RList p, int d) {
                if (d == 0) { 0 } else {
                  RList p2 = new RList(d, p);
                  walk(p2, d - 1) + walk(p2, d - 1)
                }
              }
              static int main(int d) { walk((RList) null, d) }
            }";
        let mut ratios = Vec::new();
        for mode in [SubtypeMode::None, SubtypeMode::Field] {
            let (p, _) = infer_source(src, InferOptions::with_mode(mode)).unwrap();
            let out = run_main_big_stack(&p, &[Value::Int(12)], RunConfig::default()).unwrap();
            ratios.push(out.space.space_ratio());
        }
        assert!(
            ratios[0] > 0.9,
            "no-sub must show no reuse, got {}",
            ratios[0]
        );
        assert!(
            ratios[1] < 0.05,
            "field-sub must reuse aggressively, got {}",
            ratios[1]
        );
    }
}
