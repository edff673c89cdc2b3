//! Focused tests for expression-level inference: instantiation freshness
//! (region polymorphism at call sites), distinct allocation regions, msst
//! at conditionals, and null handling.

use crate::options::{DowncastPolicy, InferOptions, SubtypeMode};
use crate::pipeline::infer;
use crate::rast::{RMethod, RProgram};
use cj_frontend::kernel::{walk_expr, KExpr, KExprKind};
use cj_frontend::typecheck::check_source;
use cj_regions::var::RegVar;
use std::sync::Arc;

fn run(src: &str) -> RProgram {
    let kp = Arc::new(check_source(src).unwrap());
    infer(
        &kp,
        InferOptions {
            mode: SubtypeMode::Object,
            downcast: DowncastPolicy::EquateFirst,
            ..Default::default()
        },
    )
    .unwrap()
    .0
}

/// The kernel body `m` annotates.
fn body<'a>(p: &'a RProgram, m: &RMethod) -> &'a KExpr {
    &p.kernel.method(m.id).body
}

fn method<'a>(p: &'a RProgram, name: &str) -> &'a RMethod {
    p.all_rmethods()
        .find(|(id, _)| p.kernel.method_name(*id) == name)
        .unwrap_or_else(|| panic!("method {name}"))
        .1
}

#[test]
fn each_call_site_gets_its_own_instantiation() {
    // Region polymorphism: two calls to the same method must use disjoint
    // fresh regions for the callee's method parameters (before resolution
    // merges whatever the constraints force together).
    let p = run("
        class Cell { Object item; }
        class M {
          static Cell mk() { new Cell(null) }
          static int main() {
            Cell a = mk();
            Cell b = mk();
            if (a == b) { 1 } else { 0 }
          }
        }");
    let main = method(&p, "main");
    let mut insts: Vec<Vec<RegVar>> = Vec::new();
    walk_expr(body(&p, main), &mut |e| {
        if let KExprKind::CallStatic(..) = &e.kind {
            insts.push(main.inst(e.id).to_vec());
        }
    });
    assert_eq!(insts.len(), 2);
    // Both allocations are localized into main's letreg, so after
    // resolution the instantiations may coincide — but main must have at
    // least one letreg covering them.
    assert!(!main.letregs().is_empty());
}

#[test]
fn two_allocations_of_same_class_can_differ() {
    // "Keep the regions distinct, where possible": one escaping and one
    // local allocation of the same class must not share a region.
    let p = run("
        class Cell { Object item; }
        class M {
          static Cell pick() {
            Cell escapes = new Cell(null);
            Cell local = new Cell(null);
            escapes
          }
        }");
    let pick = method(&p, "pick");
    let mut regions = Vec::new();
    walk_expr(body(&p, pick), &mut |e| {
        if let KExprKind::New(..) = &e.kind {
            regions.push(pick.inst(e.id)[0]);
        }
    });
    assert_eq!(regions.len(), 2);
    assert_ne!(regions[0], regions[1], "escaping and local must differ");
    assert_eq!(pick.letregs().len(), 1);
}

#[test]
fn conditional_result_regions_cover_both_branches() {
    let p = run("
        class Cell { Object item; }
        class M {
          static Cell choose(bool c, Cell x, Cell y) {
            if (c) { x } else { y }
          }
        }");
    let choose = method(&p, "choose");
    // Object-sub: result object region is a lower bound of both arguments'
    // regions; the precondition must mention both params.
    let pre = &choose.precondition;
    assert!(
        !pre.is_empty(),
        "both branches flow into the result: constraints required"
    );
}

#[test]
fn nulls_are_free() {
    // A method that only returns null must have an empty (displayed)
    // precondition — null carries fresh unconstrained regions (rule [null]).
    let p = run("
        class Cell { Object item; }
        class M { static Cell none() { (Cell) null } }");
    let (id, none) = p
        .all_rmethods()
        .find(|(id, _)| p.kernel.method_name(*id) == "none")
        .unwrap();
    assert!(none.letregs().is_empty());
    let shown = crate::pretty::display_precondition(&p, id);
    assert!(shown.is_empty(), "pre.none = {shown}");
}

#[test]
fn field_read_instantiates_at_receiver_regions() {
    let p = run("
        class Pair { Object fst; Object snd; }
        class M {
          static Object first(Pair p) { p.fst }
        }");
    let first = method(&p, "first");
    let km = p
        .kernel
        .all_methods()
        .find(|(_, m)| m.name.as_str() == "first")
        .unwrap()
        .1;
    let pv = km.params[0];
    let p_regions: Vec<_> = first.var_types[pv.index()].regions().collect();
    // Result type region must be tied (via pre) to p's fst region.
    let mut pre = cj_regions::Solver::from_set(&first.precondition);
    let ret_region = first.ret_type.object_region().unwrap();
    assert!(
        pre.outlives_holds(p_regions[1], ret_region),
        "fst region must outlive the result region"
    );
}

#[test]
fn static_and_instance_calls_annotated_with_inst() {
    let p = run("
        class Pair { Object fst; Object snd;
          Object getFst() { this.fst }
        }
        class M {
          static Object go(Pair p) { p.getFst() }
        }");
    let go = method(&p, "go");
    let mut found = false;
    walk_expr(body(&p, go), &mut |e| {
        if let KExprKind::CallVirtual(..) = &e.kind {
            // Pair's 3 class params + getFst's 1 method param.
            assert_eq!(go.inst(e.id).len(), 4);
            found = true;
        }
    });
    assert!(found);
}

#[test]
fn while_body_regions_conjoin_flow_insensitively() {
    // Assigning inside the loop uses the same var annotation as outside:
    // the loop adds no special constraints (annotations are per variable,
    // not per program point, so the body's constraints hold on every
    // iteration).
    let p = run("
        class Cell { Object item; }
        class M {
          static Cell last(int n) {
            Cell c = new Cell(null);
            int i = 0;
            while (i < n) {
              c = new Cell(null);
              i = i + 1;
            }
            c
          }
        }");
    let last = method(&p, "last");
    // Both allocations escape through c (flow-insensitive single type), so
    // nothing is localized.
    assert!(last.letregs().is_empty());
}

#[test]
fn reject_policy_reports_method_and_is_error() {
    let kp = Arc::new(
        check_source(
            "class A { Object x; }
             class B extends A { Object y; }
             class M { static B f(A a) { (B) a } }",
        )
        .unwrap(),
    );
    let err = infer(
        &kp,
        InferOptions {
            mode: SubtypeMode::Object,
            downcast: DowncastPolicy::Reject,
            ..Default::default()
        },
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('f') && msg.contains("downcast"), "{msg}");
}
