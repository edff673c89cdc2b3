//! The pipeline's umbrella spans leave little time unattributed: over a
//! cold compile of the 20 Fig 8/9 programs, `solve` and `infer` each keep
//! at most 10% of their time as self time, so a trace says which sub-phase
//! the time went to. One test only: the trace recorder is process-global.

use region_inference::prelude::*;

#[test]
fn solve_and_infer_keep_little_self_time() {
    cj_trace::install();
    for bench in region_inference::benchmarks::all_benchmarks() {
        let mut ws = Workspace::new(SessionOptions::default());
        ws.set_source(bench.name, bench.source).unwrap();
        ws.check(InferOptions::default())
            .unwrap_or_else(|d| panic!("{} compiles: {d}", bench.name));
    }
    let rows = cj_trace::summarize(&cj_trace::uninstall());
    for name in ["solve", "infer"] {
        let row = rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no `{name}` span"));
        assert!(
            row.self_us * 10 <= row.total_us,
            "`{name}` keeps {} of {} µs as self time:\n{}",
            row.self_us,
            row.total_us,
            cj_trace::render_summary(&rows)
        );
    }
}
