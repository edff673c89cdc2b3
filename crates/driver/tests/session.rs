//! Integration tests for the staged `Session` driver: artifact caching,
//! kernel sharing across subtype modes, and error behaviour.

use cj_driver::{Session, SessionOptions};
use cj_infer::{DowncastPolicy, InferOptions, SubtypeMode};
use cj_runtime::Value;

const PAIR: &str = "
    class Pair { Object fst; Object snd;
      Object getFst() { this.fst }
      void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; }
    }
    class M { static int main(int n) { n * 2 } }";

#[test]
fn stages_cache_their_artifacts() {
    let mut s = Session::new(PAIR, SessionOptions::default());
    let a1 = s.parse().unwrap();
    let a2 = s.parse().unwrap();
    assert!(std::sync::Arc::ptr_eq(&a1, &a2), "parse must be cached");
    let k1 = s.typecheck().unwrap();
    let k2 = s.typecheck().unwrap();
    assert!(std::sync::Arc::ptr_eq(&k1, &k2), "typecheck must be cached");
    let c1 = s.infer().unwrap();
    let c2 = s.infer().unwrap();
    assert!(std::sync::Arc::ptr_eq(&c1, &c2), "infer must be cached");
    assert_eq!(s.pass_counts().parse, 1);
    assert_eq!(s.pass_counts().typecheck, 1);
    assert_eq!(s.pass_counts().infer, 1);
}

#[test]
fn later_stages_reuse_earlier_artifacts() {
    let mut s = Session::new(PAIR, SessionOptions::default());
    // Entering at the end of the pipeline runs every stage exactly once.
    let out = s.run(&[21]).unwrap();
    assert_eq!(out.value, Value::Int(42));
    let counts = s.pass_counts();
    assert_eq!(
        (counts.parse, counts.typecheck, counts.infer, counts.check),
        (1, 1, 1, 1)
    );
    // A second run re-executes only the interpreter.
    let out = s.run(&[10]).unwrap();
    assert_eq!(out.value, Value::Int(20));
    assert_eq!(s.pass_counts().infer, 1);
    assert_eq!(s.pass_counts().run, 2);
}

#[test]
fn one_kernel_serves_all_three_subtype_modes() {
    let mut s = Session::new(PAIR, SessionOptions::default());
    for mode in SubtypeMode::ALL {
        s.check_with(InferOptions::with_mode(mode)).unwrap();
    }
    let counts = s.pass_counts();
    assert_eq!(counts.parse, 1, "one parse for all modes");
    assert_eq!(counts.typecheck, 1, "one kernel for all modes");
    assert_eq!(counts.infer, 3, "one inference per mode");
    assert_eq!(counts.check, 3, "one check per mode");
    // Asking for a mode again hits the cache.
    s.check_with(InferOptions::with_mode(SubtypeMode::Field))
        .unwrap();
    assert_eq!(s.pass_counts().infer, 3);
}

#[test]
fn infer_artifacts_are_keyed_by_full_options() {
    let src = "
        class A { Object x; }
        class B extends A { Object y; }
        class M { static B f(A a) { (B) a } }";
    let mut s = Session::new(src, SessionOptions::default());
    let equate = s
        .infer_with(InferOptions {
            mode: SubtypeMode::Object,
            downcast: DowncastPolicy::EquateFirst,
            ..Default::default()
        })
        .unwrap();
    let padding = s
        .infer_with(InferOptions {
            mode: SubtypeMode::Object,
            downcast: DowncastPolicy::Padding,
            ..Default::default()
        })
        .unwrap();
    assert_eq!(s.pass_counts().infer, 2, "policies are distinct artifacts");
    // Only the padding policy runs the Sec 5 flow analysis.
    assert_eq!(equate.stats.downcast_sites, 0);
    assert_eq!(padding.stats.downcast_sites, 1);
    // Reject fails — and the failure does not poison the cached artifacts.
    let err = s
        .infer_with(InferOptions {
            mode: SubtypeMode::Object,
            downcast: DowncastPolicy::Reject,
            ..Default::default()
        })
        .unwrap_err();
    assert!(err.has_errors());
    assert_eq!(s.pass_counts().typecheck, 1);
    s.infer_with(InferOptions {
        mode: SubtypeMode::Object,
        downcast: DowncastPolicy::EquateFirst,
        ..Default::default()
    })
    .unwrap();
    assert_eq!(s.pass_counts().infer, 3, "reject attempt ran inference");
}

#[test]
fn from_file_reports_io_diagnostics() {
    let err = Session::from_file(
        "/nonexistent/definitely-missing.cj",
        SessionOptions::default(),
    )
    .unwrap_err();
    assert_eq!(err.len(), 1);
    assert_eq!(err.items[0].code, Some(cj_diag::codes::IO));
    assert!(err.items[0].message.contains("definitely-missing.cj"));
}

#[test]
fn run_faults_are_structured_runtime_diagnostics() {
    let mut s = Session::new(
        "class M { static int main(int n) { 10 / n } }",
        SessionOptions::default(),
    );
    let err = s.run(&[0]).unwrap_err();
    assert_eq!(err.items[0].code, Some(cj_diag::codes::RUNTIME));
    assert!(err.items[0].message.contains("division by zero"));
    assert!(!err.items[0].span.is_dummy(), "fault carries its span");
}
