//! Adversarial checker tests: hand-corrupted annotated programs must be
//! rejected with the right diagnostic. This is the checker's job in the
//! paper's architecture — inference output is trusted *because* an
//! independent checker validates it (Theorem 1); these tests establish the
//! checker actually discriminates.

use cj_infer::rast::{RExpr, RExprKind};
use cj_infer::{infer_source, InferOptions, RProgram};
use cj_regions::constraint::ConstraintSet;
use cj_regions::var::RegVar;

fn infer(src: &str) -> RProgram {
    let (p, _) = infer_source(src, InferOptions::default()).unwrap();
    cj_check::check(&p).expect("baseline must check");
    p
}

const PAIR: &str = "
    class Pair { Object fst; Object snd;
      void setSnd(Object o) { this.snd = o; }
      void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; }
    }
    class M {
      static Pair mk() { new Pair(null, null) }
      static void main() {
        Pair p = mk();
        p.swap();
      }
    }";

#[test]
fn weakened_class_invariant_is_caught() {
    let mut p = infer(PAIR);
    let pair = p.kernel.table.class_id("Pair").unwrap();
    p.classes[pair.index()].invariant = ConstraintSet::new();
    let err = cj_check::check(&p).unwrap_err();
    assert!(err.to_string().contains("no-dangling"), "{err}");
}

#[test]
fn weakened_method_precondition_is_caught() {
    let mut p = infer(PAIR);
    let pair = p.kernel.table.class_id("Pair").unwrap();
    let swap = p
        .kernel
        .table
        .class(pair)
        .own_methods
        .iter()
        .position(|m| m.name.as_str() == "swap")
        .unwrap();
    p.methods[pair.index()][swap].precondition = ConstraintSet::new();
    assert!(cj_check::check(&p).is_err());
}

#[test]
fn swapped_class_params_break_prefix_rule() {
    let mut p = infer(
        "class A { Object x; } class B extends A { Object y; }
         class M { static B mk() { new B(null, null) } }",
    );
    let b = p.kernel.table.class_id("B").unwrap();
    p.classes[b.index()].params.swap(0, 1);
    let err = cj_check::check(&p).unwrap_err();
    assert!(err.to_string().contains("prefix"), "{err}");
}

#[test]
fn wrong_new_arity_is_caught() {
    let mut p = infer(PAIR);
    // Truncate the region list of the first New in mk().
    fn mangle(e: &mut RExpr) -> bool {
        match &mut e.kind {
            RExprKind::New { regions, .. } => {
                regions.pop();
                true
            }
            RExprKind::Let { init, .. } => init.as_deref_mut().is_some_and(mangle),
            RExprKind::Letreg(_, inner) => mangle(inner),
            RExprKind::Block(items) => items.iter_mut().any(mangle),
            _ => false,
        }
    }
    let mk = p
        .statics
        .iter_mut()
        .find(|m| matches!(m.id, cj_frontend::MethodId::Static(_)))
        .unwrap();
    assert!(mangle(&mut mk.body), "found a New to mangle");
    let err = cj_check::check(&p).unwrap_err();
    assert!(err.to_string().contains("arity"), "{err}");
}

#[test]
fn foreign_region_in_body_is_out_of_scope() {
    let mut p = infer(PAIR);
    // Replace a New's object region with a bogus region never bound
    // anywhere.
    fn mangle(e: &mut RExpr) -> bool {
        match &mut e.kind {
            RExprKind::New { regions, .. } => {
                regions[0] = RegVar(99_999);
                true
            }
            RExprKind::Let { init, .. } => init.as_deref_mut().is_some_and(mangle),
            RExprKind::Letreg(_, inner) => mangle(inner),
            RExprKind::Block(items) => items.iter_mut().any(mangle),
            _ => false,
        }
    }
    let mk = p.statics.first_mut().unwrap();
    assert!(mangle(&mut mk.body));
    let err = cj_check::check(&p).unwrap_err();
    assert!(err.to_string().contains("not in scope"), "{err}");
}

#[test]
fn call_with_wrong_instantiation_is_caught() {
    // Corrupt a call's region instantiation so the callee's precondition
    // (swap's r2 = r3) can no longer be discharged… swap has no region
    // args, so instead corrupt setSnd's instantiation ordering.
    let src = "
        class Pair { Object fst; Object snd;
          void setSnd(Object o) { this.snd = o; }
        }
        class M {
          static void main(Pair p, Object o) { p.setSnd(o); }
        }";
    let mut p = infer(src);
    let main = p.statics.first_mut().unwrap();
    fn mangle(e: &mut RExpr) -> bool {
        match &mut e.kind {
            RExprKind::CallVirtual { inst, .. } => {
                inst.swap(0, 1);
                true
            }
            RExprKind::Let { init, .. } => init.as_deref_mut().is_some_and(mangle),
            RExprKind::Letreg(_, inner) => mangle(inner),
            RExprKind::Block(items) => items.iter_mut().any(mangle),
            _ => false,
        }
    }
    assert!(mangle(&mut main.body));
    assert!(cj_check::check(&p).is_err());
}

#[test]
fn the_unmodified_programs_still_check() {
    // Guard against the mangle helpers accidentally being no-ops: the
    // pristine programs must pass.
    let p = infer(PAIR);
    cj_check::check(&p).unwrap();
}
