//! Adversarial checker tests: hand-corrupted annotated programs must be
//! rejected with the right diagnostic. This is the checker's job in the
//! paper's architecture — inference output is trusted *because* an
//! independent checker validates it (Theorem 1); these tests establish the
//! checker actually discriminates.

use cj_frontend::kernel::{walk_expr, ExprId, KExprKind};
use cj_infer::{infer_source, InferOptions, Letreg, Placement, RMethod, RProgram};
use cj_regions::constraint::ConstraintSet;
use cj_regions::var::RegVar;

/// The first expression of `m`'s body, in pre-order, whose kind `pick`s.
fn first(p: &RProgram, m: &RMethod, pick: fn(&KExprKind) -> bool) -> Option<ExprId> {
    let mut found = None;
    walk_expr(&p.kernel.method(m.id).body, &mut |e| {
        if found.is_none() && pick(&e.kind) {
            found = Some(e.id);
        }
    });
    found
}

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
    fn mangle(p: &mut RProgram) -> bool {
        let mk = p.statics[0].clone();
        let Some(new) = first(p, &mk, |k| matches!(k, KExprKind::New(..))) else {
            return false;
        };
        let mk = &mut p.statics[0];
        let end = new.index() + 1;
        mk.inst.remove(mk.inst_at[end] as usize - 1);
        for at in &mut mk.inst_at[end..] {
            *at -= 1;
        }
        true
    }
    assert!(mangle(&mut p), "found a New to mangle");
    let err = cj_check::check(&p).unwrap_err();
    assert!(err.to_string().contains("arity"), "{err}");
}

#[test]
fn foreign_region_in_body_is_out_of_scope() {
    let mut p = infer(PAIR);
    // Replace a New's object region with a bogus region never bound
    // anywhere.
    fn mangle(p: &mut RProgram) -> bool {
        let mk = &p.statics[0];
        let Some(new) = first(p, mk, |k| matches!(k, KExprKind::New(..))) else {
            return false;
        };
        let mk = &mut p.statics[0];
        mk.inst[mk.inst_at[new.index()] as usize] = RegVar(99_999);
        true
    }
    assert!(mangle(&mut p));
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
    fn mangle(p: &mut RProgram) -> bool {
        let main = &p.statics[0];
        let Some(call) = first(p, main, |k| matches!(k, KExprKind::CallVirtual(..))) else {
            return false;
        };
        let main = &mut p.statics[0];
        let at = main.inst_at[call.index()] as usize;
        main.inst.swap(at, at + 1);
        true
    }
    assert!(mangle(&mut p));
    assert!(cj_check::check(&p).is_err());
}

#[test]
fn discarded_read_after_its_region_is_popped_is_caught() {
    // Shrink main's letreg to the `let` alone, so the discarded read
    // `b.next;` after it mentions a popped region.
    let mut p = infer(
        "class Box { Box next; }
         class M { static int main() { Box b = new Box(null); b.next; 1 } }",
    );
    let main = &mut p.statics[0];
    let body = ExprId(0);
    let [Letreg { region, at }] = main.letregs()[..] else {
        panic!("main binds one region: {:?}", main.letregs());
    };
    assert_eq!(at, Placement::Node(body));
    main.set_letregs(vec![Letreg {
        region,
        at: Placement::Items {
            block: body,
            lo: 0,
            hi: 0,
        },
    }]);
    let err = cj_check::check(&p).unwrap_err();
    assert!(err.to_string().contains("not in scope"), "{err}");
}

#[test]
fn the_unmodified_programs_still_check() {
    // Guard against the mangle helpers accidentally being no-ops: the
    // pristine programs must pass.
    let p = infer(PAIR);
    cj_check::check(&p).unwrap();
}
