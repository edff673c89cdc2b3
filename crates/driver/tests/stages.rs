//! Integration tests for the staged `Workspace` driver on one file:
//! artifact caching, kernel sharing across inference options, and error
//! behaviour.

use cj_driver::{SessionOptions, Workspace};
use cj_infer::{DowncastPolicy, InferOptions, SubtypeMode};
use cj_runtime::{Engine, Value};

const PAIR: &str = "
    class Pair { Object fst; Object snd;
      Object getFst() { this.fst }
      void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; }
    }
    class M { static int main(int n) { n * 2 } }";

fn one_file(src: &str) -> Workspace {
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("a.cj", src).unwrap();
    ws
}

#[test]
fn stages_cache_their_artifacts() {
    let opts = InferOptions::default();
    let mut ws = one_file(PAIR);
    let a1 = ws.merged_ast().unwrap();
    let a2 = ws.merged_ast().unwrap();
    assert!(std::sync::Arc::ptr_eq(&a1, &a2), "parse must be cached");
    let k1 = ws.typecheck().unwrap();
    let k2 = ws.typecheck().unwrap();
    assert!(std::sync::Arc::ptr_eq(&k1, &k2), "typecheck must be cached");
    let c1 = ws.infer(opts).unwrap();
    let c2 = ws.infer(opts).unwrap();
    assert!(std::sync::Arc::ptr_eq(&c1, &c2), "infer must be cached");
    assert!(
        std::sync::Arc::ptr_eq(&k1, &c1.program.kernel),
        "the annotated program shares the kernel"
    );
    assert_eq!(ws.pass_counts().parse, 1);
    assert_eq!(ws.pass_counts().typecheck, 1);
    assert_eq!(ws.pass_counts().infer, 1);
}

#[test]
fn later_stages_reuse_earlier_artifacts() {
    let opts = InferOptions::default();
    let mut ws = one_file(PAIR);
    // Entering at the end of the pipeline runs every stage exactly once.
    let out = ws.run(opts, Engine::Rvm, &[Value::Int(21)]).unwrap();
    assert_eq!(out.value, Value::Int(42));
    let counts = ws.pass_counts();
    assert_eq!(
        (counts.parse, counts.typecheck, counts.infer, counts.check),
        (1, 1, 1, 1)
    );
    // A second run re-executes only the program, on either engine.
    let out = ws.run(opts, Engine::Interp, &[Value::Int(10)]).unwrap();
    assert_eq!(out.value, Value::Int(20));
    assert_eq!(ws.pass_counts().infer, 1);
    assert_eq!(ws.pass_counts().run, 2);
}

#[test]
fn one_kernel_serves_all_three_subtype_modes() {
    let mut ws = one_file(PAIR);
    for mode in SubtypeMode::ALL {
        ws.check(InferOptions::with_mode(mode)).unwrap();
    }
    let counts = ws.pass_counts();
    assert_eq!(counts.parse, 1, "one parse for all modes");
    assert_eq!(counts.typecheck, 1, "one kernel for all modes");
    assert_eq!(counts.infer, 3, "one inference per mode");
    assert_eq!(counts.check, 3, "one check per mode");
    // Asking for a mode again hits the cache.
    ws.check(InferOptions::with_mode(SubtypeMode::Field))
        .unwrap();
    assert_eq!(ws.pass_counts().infer, 3);
}

#[test]
fn infer_artifacts_are_keyed_by_full_options() {
    let src = "
        class A { Object x; }
        class B extends A { Object y; }
        class M { static B f(A a) { (B) a } }";
    let mut ws = one_file(src);
    let with = |downcast| InferOptions {
        mode: SubtypeMode::Object,
        downcast,
        ..Default::default()
    };
    let equate = ws.infer(with(DowncastPolicy::EquateFirst)).unwrap();
    let padding = ws.infer(with(DowncastPolicy::Padding)).unwrap();
    assert_eq!(ws.pass_counts().infer, 2, "policies are distinct artifacts");
    // Only the padding policy runs the Sec 5 flow analysis.
    assert_eq!(equate.stats.downcast_sites, 0);
    assert_eq!(padding.stats.downcast_sites, 1);
    // Reject fails — and the failure does not poison the cached artifacts.
    let err = ws.infer(with(DowncastPolicy::Reject)).unwrap_err();
    assert!(err.has_errors());
    assert_eq!(ws.pass_counts().typecheck, 1);
    ws.infer(with(DowncastPolicy::EquateFirst)).unwrap();
    assert_eq!(ws.pass_counts().infer, 3, "reject attempt ran inference");
}

#[test]
fn run_faults_are_structured_runtime_diagnostics() {
    let mut ws = one_file("class M { static int main(int n) { 10 / n } }");
    let err = ws
        .run(InferOptions::default(), Engine::Rvm, &[Value::Int(0)])
        .unwrap_err();
    assert_eq!(err.items[0].code, Some(cj_diag::codes::RUNTIME));
    assert!(err.items[0].message.contains("division by zero"));
    assert!(!err.items[0].span.is_dummy(), "fault carries its span");
}
