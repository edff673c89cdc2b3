//! The paper's worked examples, verified through the public API: Fig 2
//! (Pair/List signatures), Fig 4 (localization), Fig 5 (cycles), Fig 6
//! (fixed points), the Sec 4.4 Triple override, and the Fig 7 downcast
//! program under both preservation strategies.

use region_inference::prelude::*;
use region_inference::regions::{Atom, Solver};

const PAIR: &str = "
    class Pair { Object fst; Object snd;
      Object getFst() { this.fst }
      void setSnd(Object o) { this.snd = o; }
      Pair cloneRev() {
        Pair tmp = new Pair(null, null);
        tmp.fst = this.snd; tmp.snd = this.fst; tmp
      }
      void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; }
    }";

#[test]
fn fig2_pair_annotations_match_paper() {
    let p = compile(PAIR, InferOptions::default()).unwrap();
    let text = annotate(&p);
    // Class header with the no-dangling invariant.
    assert!(
        text.contains("class Pair<r1,r2,r3> extends Object<r1> where r2>=r1 & r3>=r1"),
        "unexpected class header in:\n{text}"
    );
    // getFst<r4> where r2>=r4.
    assert!(
        text.contains("Object<r4> getFst<r4>() where r2>=r4"),
        "{text}"
    );
    // setSnd<r5>(Object<r5> o) where r5>=r3.
    assert!(
        text.contains("void setSnd<r5>(Object<r5> o) where r5>=r3"),
        "{text}"
    );
    // cloneRev: r2>=r8 & r3>=r7 (the paper's r2>=r6 & r3>=r5 modulo naming).
    assert!(
        text.contains("Pair<r6,r7,r8> cloneRev<r6,r7,r8>() where r2>=r8 & r3>=r7"),
        "{text}"
    );
    // swap has no region parameters but requires r2=r3.
    assert!(text.contains("void swap() where r2=r3"), "{text}");
}

#[test]
fn fig2_list_recursive_annotation() {
    let src = "
        class List { Object value; List next;
          Object getValue() { this.value }
          List getNext() { this.next }
        }";
    let p = compile(src, InferOptions::default()).unwrap();
    let text = annotate(&p);
    // List<r1,r2,r3> with next: List<r3,r2,r3> (Sec 3.1's recursive-field
    // scheme) and the paper's invariant r3>=r1 & r2>=r3 & r2>=r1.
    assert!(text.contains("class List<r1,r2,r3>"), "{text}");
    assert!(text.contains("List<r3,r2,r3> next;"), "{text}");
    let list = p.kernel.table.class_id("List").unwrap();
    let rc = p.rclass(list);
    let (r1, r2, r3) = (rc.params[0], rc.params[1], rc.params[2]);
    let mut inv = Solver::from_set(&rc.invariant);
    assert!(inv.entails_atom(Atom::outlives(r3, r1)));
    assert!(inv.entails_atom(Atom::outlives(r2, r3)));
    assert!(inv.entails_atom(Atom::outlives(r2, r1)));
}

#[test]
fn fig4_letreg_groups_nonescaping_pairs() {
    let src = format!(
        "{PAIR}
        class Main {{
          static Pair build() {{
            Pair p4 = new Pair(null, null);
            Pair p3 = new Pair(p4, null);
            Pair p2 = new Pair(null, p4);
            Pair p1 = new Pair(p2, null);
            p1.setSnd(p3);
            p2
          }}
        }}"
    );
    let p = compile(&src, InferOptions::default()).unwrap();
    let build = p
        .all_rmethods()
        .find(|(id, _)| p.kernel.method_name(*id) == "build")
        .unwrap()
        .1;
    assert_eq!(build.letregs().len(), 1, "one letreg for p1+p3 (Fig 4d)");
    let text = annotate(&p);
    assert!(text.contains("letreg"), "{text}");
}

#[test]
fn fig5_cycle_forces_one_region_and_no_letreg() {
    let src = format!(
        "{PAIR}
        class Main {{
          static Pair cycle() {{
            Pair p1 = new Pair(null, null);
            Pair p2 = new Pair(p1, null);
            p1.setSnd(p2);
            p2
          }}
        }}"
    );
    let p = compile(&src, InferOptions::default()).unwrap();
    let (_, cycle) = p
        .all_rmethods()
        .find(|(id, _)| p.kernel.method_name(*id) == "cycle")
        .unwrap();
    let km = p
        .kernel
        .all_methods()
        .find(|(_, m)| m.name.as_str() == "cycle")
        .unwrap()
        .1;
    let slot = |n: &str| km.vars.iter().position(|v| v.name.as_str() == n).unwrap();
    assert_eq!(
        cycle.var_types[slot("p1")].object_region(),
        cycle.var_types[slot("p2")].object_region(),
        "cycle members share a region"
    );
    assert!(
        cycle.letregs().is_empty(),
        "everything escapes via the result"
    );
}

#[test]
fn fig6_join_precondition_is_the_papers_fixed_point() {
    let src = "
        class List { Object value; List next;
          Object getValue() { this.value }
          List getNext() { this.next }
          static bool isNull(List l) { l == null }
          static List join(List xs, List ys) {
            if (isNull(xs)) {
              if (isNull(ys)) { (List) null } else { join(ys, xs) }
            } else {
              Object x; List res;
              x = xs.getValue();
              xs = xs.getNext();
              res = join(ys, xs);
              new List(x, res)
            }
          }
        }";
    let p = compile(src, InferOptions::default()).unwrap();
    let (jid, join) = p
        .all_rmethods()
        .find(|(id, _)| p.kernel.method_name(*id) == "join")
        .unwrap();
    // join<r1..r9>: xs=<r1,r2,r3>, ys=<r4,r5,r6>, result=<r7,r8,r9>.
    assert_eq!(join.mparams.len(), 9);
    let (r2, r5, r8) = (join.mparams[1], join.mparams[4], join.mparams[7]);
    let mut pre = Solver::from_set(&join.precondition);
    assert!(pre.entails_atom(Atom::outlives(r2, r8)));
    assert!(pre.entails_atom(Atom::outlives(r5, r8)));
    // The *minimal displayed* precondition is exactly those two atoms.
    let shown = region_inference::infer::pretty::display_precondition(&p, jid);
    assert_eq!(shown.len(), 2, "paper's closed form has two atoms: {shown}");
}

#[test]
fn sec44_triple_override_is_resolved_and_sound() {
    let src = "
        class Pair { Object fst; Object snd;
          Pair cloneRev() {
            Pair tmp = new Pair(null, null);
            tmp.fst = this.snd; tmp.snd = this.fst; tmp
          }
        }
        class Triple extends Pair { Object thd;
          Pair cloneRev() {
            Pair tmp = new Pair(null, null);
            tmp.fst = this.thd; tmp.snd = this.fst; tmp
          }
        }
        class Use {
          static Pair viaBase(Pair p) { p.cloneRev() }
          static int main() {
            Triple t = new Triple(null, null, null);
            Pair r = viaBase(t);
            if (r == null) { 0 } else { 1 }
          }
        }";
    let p = compile(src, InferOptions::default()).unwrap();
    // inv.Triple ties the extra region to a Pair region (the r3a=r3 split).
    let triple = p.kernel.table.class_id("Triple").unwrap();
    let rc = p.rclass(triple);
    let mut inv = Solver::from_set(&rc.invariant);
    assert!(
        rc.params[..3]
            .iter()
            .any(|&rp| inv.entails_atom(Atom::eq(rc.params[3], rp))),
        "inv.Triple = {}",
        rc.invariant
    );
    // And the program actually runs through the dynamic dispatch.
    let out = run_main(&p, &[], RunConfig::default()).unwrap();
    assert_eq!(out.value, Value::Int(1));
}

const FIG7: &str = "
    class A { Object f1; }
    class B extends A { Object f2; }
    class C extends A { Object f3; }
    class D extends C { Object f4; }
    class E extends A { Object f5; Object f6; Object f7; }
    class Main {
        static int main(bool c1, bool c2) {
            A a; A a2;
            a2 = new A(null);
            if (c1) {
                a = new B(null, null);
            } else {
                if (c2) { a = new C(null, null); }
                else { a = new E(null, null, null, null); }
            }
            B b = (B) a;
            C c = (C) a;
            D d = (D) c;
            1
        }
    }";

#[test]
fn fig7_downcasts_under_both_strategies() {
    for policy in [DowncastPolicy::EquateFirst, DowncastPolicy::Padding] {
        let (p, _) = infer_source(
            FIG7,
            InferOptions {
                mode: SubtypeMode::Object,
                downcast: policy,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{policy}: {e}"));
        check(&p).unwrap_or_else(|e| panic!("{policy}: {e}"));
        // c1 = true: a is a B; (B) a succeeds, (C) a fails at runtime.
        let km = p.kernel.method(cj_frontend::MethodId::Static(0));
        assert_eq!(km.params.len(), 2);
        let err = cj_runtime::run_static(
            &p,
            cj_frontend::MethodId::Static(0),
            &[Value::Bool(true), Value::Bool(false)],
            RunConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, cj_runtime::RuntimeError::CastFailed(_)),
            "{policy}: expected the (C) a cast to fail on a B object"
        );
    }
}

#[test]
fn fig7_padding_pads_a_to_d_arity() {
    let (p, _) = infer_source(
        FIG7,
        InferOptions {
            mode: SubtypeMode::Object,
            downcast: DowncastPolicy::Padding,
            ..Default::default()
        },
    )
    .unwrap();
    let main_id = cj_frontend::MethodId::Static(0);
    let km = p.kernel.method(main_id);
    let rm = p.rmethod(main_id);
    let d = p.kernel.table.class_id("D").unwrap();
    let d_arity = p.rclass(d).params.len();
    let a_slot = km.vars.iter().position(|v| v.name.as_str() == "a").unwrap();
    let a2_slot = km
        .vars
        .iter()
        .position(|v| v.name.as_str() == "a2")
        .unwrap();
    match &rm.var_types[a_slot] {
        region_inference::infer::RType::Class { regions, pads, .. } => {
            assert_eq!(regions.len() + pads.len(), d_arity, "a padded to D");
            assert!(!pads.is_empty());
        }
        other => panic!("unexpected {other}"),
    }
    // a2 is never downcast: no pads.
    match &rm.var_types[a2_slot] {
        region_inference::infer::RType::Class { pads, .. } => {
            assert!(pads.is_empty(), "a2 must not be padded");
        }
        other => panic!("unexpected {other}"),
    }
}

#[test]
fn sec32_foo_object_subtyping_example() {
    // "Without object subtyping, the dual assignments of both a and b to
    // tmp cause their regions to be coalesced."
    let src = "
        class M {
          static void foo(Object a, Object b, bool c) {
            Object tmp;
            if (c) { tmp = a; } else { tmp = b; }
          }
        }";
    let (p_none, _) = infer_source(src, InferOptions::with_mode(SubtypeMode::None)).unwrap();
    let (p_obj, _) = infer_source(src, InferOptions::with_mode(SubtypeMode::Object)).unwrap();
    let pre_of = |p: &RProgram| {
        let m = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method_name(*id) == "foo")
            .unwrap()
            .1;
        (m.mparams[0], m.mparams[1], m.precondition.clone())
    };
    let (ra, rb, pre) = pre_of(&p_none);
    assert!(Solver::from_set(&pre).entails_atom(Atom::eq(ra, rb)));
    let (ra, rb, pre) = pre_of(&p_obj);
    assert!(!Solver::from_set(&pre).entails_atom(Atom::eq(ra, rb)));
}

#[test]
fn annotation_density_is_paper_scale() {
    // Sec 6: "the region annotations occur in around 12.3% of the
    // programs' lines" — our annotation-site count over source lines
    // should be the same order of magnitude.
    let mut total_sites = 0usize;
    let mut total_lines = 0usize;
    for b in cj_benchmarks::regjava_benchmarks() {
        let kp = cj_frontend::typecheck::check_source(b.source).unwrap();
        total_sites += cj_bench_sites(&kp);
        total_lines += cj_benchmarks::source_lines(&b);
    }
    let density = total_sites as f64 / total_lines as f64;
    assert!(
        density > 0.03 && density < 0.4,
        "annotation density {density} out of plausible range"
    );
}

fn cj_bench_sites(kp: &cj_frontend::KProgram) -> usize {
    let table = &kp.table;
    let mut n = 0;
    for info in table.classes() {
        if info.id == cj_frontend::ClassId::OBJECT {
            continue;
        }
        n += 1;
        n += info
            .own_fields
            .iter()
            .filter(|f| f.ty.is_reference())
            .count();
        n += info.own_methods.len();
    }
    n + table.statics().len()
}
