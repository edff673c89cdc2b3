//! End-to-end policy-engine tests: for every rule kind, one program that
//! violates it and one that satisfies it, checked against real inference
//! output; plus rule-resolution errors.

use cj_diag::codes;
use cj_infer::{infer_source, InferOptions, RProgram};
use cj_policy::PolicySet;

fn infer(src: &str) -> RProgram {
    let (p, _) = infer_source(src, InferOptions::default()).unwrap();
    cj_check::check(&p).expect("baseline must check");
    p
}

fn check(src: &str, rules: &str) -> Vec<(String, String)> {
    let program = infer(src);
    let set = PolicySet::parse("<test>", rules).expect("rules must parse");
    cj_policy::check(&program, &set)
        .violations
        .into_iter()
        .map(|v| (v.code.to_string(), v.message))
        .collect()
}

#[test]
fn no_escape_flags_allocation_reaching_open_world() {
    // `leak` is never called inside the program, so its region parameters
    // face the open world: the allocation it returns escapes.
    let found = check(
        "class Cell { Object v; }
         class M {
           static Cell leak() { new Cell(null) }
           static void main() { }
         }",
        "no-escape Cell",
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, codes::POLICY_NO_ESCAPE);
    assert!(found[0].1.contains("`Cell`"), "{}", found[0].1);
}

#[test]
fn no_escape_accepts_letreg_confined_allocation() {
    // `make`'s result region is instantiated by `main` with a region that
    // dies inside `main` — the closed call graph proves confinement.
    let found = check(
        "class Cell { Object v; }
         class M {
           static Cell make() { new Cell(null) }
           static void main() { Cell c = make(); c.v = null; }
         }",
        "no-escape Cell",
    );
    assert_eq!(found, Vec::new());
}

#[test]
fn confine_flags_allocation_outside_owner_regions() {
    let found = check(
        "class Cell { Object v; }
         class Box { Cell c; }
         class M {
           static void main() { Cell x = new Cell(null); x.v = null; }
         }",
        "confine Cell to Box",
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, codes::POLICY_CONFINE);
    assert!(found[0].1.contains("`Box`"), "{}", found[0].1);
}

#[test]
fn confine_accepts_allocation_into_owner_field_region() {
    // The fresh Cell is stored into a Box field, so its region is one of
    // the Box occurrence's regions (directly or via an entailed equality).
    let found = check(
        "class Cell { Object v; }
         class Box {
           Cell c;
           void fill() { this.c = new Cell(null); }
         }
         class M {
           static void main() { Box b = new Box(null); b.fill(); }
         }",
        "confine Cell to Box",
    );
    assert_eq!(found, Vec::new());
}

#[test]
fn separate_flags_tainted_argument_at_sink() {
    let found = check(
        "class Secret { Object v; }
         class M {
           static void log(Object o) { }
           static void main() {
             Secret s = new Secret(null);
             log(s);
           }
         }",
        "separate Secret from log",
    );
    assert!(!found.is_empty(), "{found:?}");
    assert!(found.iter().all(|f| f.0 == codes::POLICY_SEPARATE));
    assert!(found[0].1.contains("`Secret`"), "{}", found[0].1);
}

#[test]
fn separate_accepts_untainted_argument_at_sink() {
    // Inference coalesces a method's local allocations into one region, so
    // true separation means the sink is fed from a region no `Secret`
    // occurrence can reach — here, a helper with no `Secret` in scope.
    let found = check(
        "class Secret { Object v; }
         class M {
           static void log(Object o) { }
           static void audit() { Object o = new Object(); log(o); }
           static void main() {
             Secret s = new Secret(null);
             s.v = null;
             audit();
           }
         }",
        "separate Secret from log",
    );
    assert_eq!(found, Vec::new());
}

#[test]
fn separate_matches_instance_method_sinks() {
    let found = check(
        "class Secret { Object v; }
         class Sink {
           void consume(Object o) { }
         }
         class M {
           static void main() {
             Sink k = new Sink();
             Secret s = new Secret(null);
             k.consume(s);
           }
         }",
        "separate Secret from Sink.consume",
    );
    assert!(!found.is_empty(), "{found:?}");
    assert!(found.iter().all(|f| f.0 == codes::POLICY_SEPARATE));
}

#[test]
fn unresolvable_rules_become_policy_errors() {
    let program = infer("class M { static void main() { } }");
    let set = PolicySet::parse(
        "<test>",
        "no-escape Ghost\nseparate M from nolog\nconfine M to M",
    )
    .unwrap();
    let report = cj_policy::check(&program, &set);
    let errors: Vec<_> = report.violations.iter().filter(|v| v.in_policy).collect();
    assert_eq!(errors.len(), 2, "{:?}", report.violations);
    assert!(errors.iter().all(|v| v.code == codes::POLICY));
    assert!(errors[0].message.contains("unknown class `Ghost`"));
    assert!(errors[1]
        .message
        .contains("unknown static sink method `nolog`"));
}
