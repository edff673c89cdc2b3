//! The full Fig 8/9 benchmark suite, every subtyping mode, both extent
//! placements, on the register engine and the interpreter oracle —
//! value, prints, and space accounting (hence every paper space ratio,
//! including the pinned Reynolds3 one) must be bit-identical.

use cj_benchmarks::all_benchmarks;
use cj_infer::{infer_source, InferOptions, SubtypeMode};
use cj_liveness::{ExtentInference, LivenessExtents};
use cj_runtime::{run_main_big_stack, RunConfig, Value};

#[test]
fn all_benchmarks_are_engine_identical() {
    for b in all_benchmarks() {
        let args: Vec<Value> = b.test_input.iter().map(|&v| Value::Int(v)).collect();
        for mode in SubtypeMode::ALL {
            let (paper, _) = infer_source(b.source, InferOptions::with_mode(mode))
                .unwrap_or_else(|e| panic!("{} [{mode}] inference: {e}", b.name));
            cj_check::check(&paper).unwrap_or_else(|e| panic!("{} [{mode}] checker: {e}", b.name));
            let mut live = paper.clone();
            LivenessExtents.rewrite_program(&mut live);
            cj_check::check(&live)
                .unwrap_or_else(|e| panic!("{} [{mode}] liveness checker: {e}", b.name));
            for (p, extent) in [(&paper, "paper"), (&live, "liveness")] {
                let label = format!("{} [{mode}/{extent}]", b.name);
                let reg = cj_rvm::lower_program(&cj_vm::lower_program(p));
                let rvm = cj_rvm::run_main(&reg, &args, RunConfig::default())
                    .unwrap_or_else(|e| panic!("[{label}] rvm: {e}"));
                let interp = run_main_big_stack(p, &args, RunConfig::default())
                    .unwrap_or_else(|e| panic!("[{label}] interp: {e}"));
                assert_eq!(
                    rvm.value.to_string(),
                    interp.value.to_string(),
                    "[{label}] rvm/interp value diverged"
                );
                assert_eq!(
                    rvm.prints, interp.prints,
                    "[{label}] rvm/interp prints diverged"
                );
                assert_eq!(
                    rvm.space, interp.space,
                    "[{label}] rvm/interp space diverged"
                );
            }
        }
    }
}
