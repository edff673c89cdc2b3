//! `liveness_bench` — the extent-inference benchmark harness behind
//! `BENCH_liveness.json`.
//!
//! Compiles every benchmark program (the Fig 8 RegJava suite and the Fig 9
//! Olden suite) under **both** extent modes — the paper's block-scoped
//! `letreg` placement and the flow-sensitive liveness tightening — and
//! runs each on **both** execution engines, the `cj-rvm` register VM and
//! the tree-walking interpreter. For every benchmark it asserts:
//!
//! - observables (value, prints) are identical across the four
//!   mode × engine combinations;
//! - allocation totals are identical across modes (tightening moves pops
//!   earlier; it never changes what is allocated);
//! - `peak_live` under liveness placement is never worse than under paper
//!   placement, on either engine — the space-safety acceptance gate.
//!
//! ```text
//! cargo run -p cj-bench --release --bin liveness_bench -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` uses the small test inputs (smoke runs); the default — used
//! by CI too — runs the paper inputs. Output goes to
//! `BENCH_liveness.json` (or `--out PATH`) and a table is printed to
//! stdout. The harness exits non-zero when any gate fails.

use cj_benchmarks::{all_benchmarks, Benchmark, Suite};
use cj_diag::json_string;
use cj_infer::{ExtentMode, InferOptions, SubtypeMode};
use cj_runtime::{run_main_big_stack, Outcome, RunConfig, Value};

struct ModeRow {
    peak_interp: usize,
    peak_rvm: usize,
    total_allocated: usize,
    space_ratio: f64,
    extent_rewrites: u32,
}

struct BenchRow {
    name: &'static str,
    suite: Suite,
    input: &'static str,
    paper: ModeRow,
    liveness: ModeRow,
}

fn observable(out: &Outcome) -> (String, Vec<String>) {
    (out.value.to_string(), out.prints.clone())
}

fn measure_mode(
    b: &Benchmark,
    extent: ExtentMode,
    quick: bool,
) -> (ModeRow, (String, Vec<String>)) {
    let opts = InferOptions {
        extent,
        ..InferOptions::with_mode(SubtypeMode::Field)
    };
    let mut session = cj_bench::session_for(b);
    let compilation = session.check_with(opts).unwrap_or_else(|e| {
        panic!(
            "{} [{extent}]: {}",
            b.name,
            session.emitter().render_all(&e)
        )
    });
    let compiled = session.compiled_with(opts).unwrap_or_else(|e| {
        panic!(
            "{} [{extent}]: {}",
            b.name,
            session.emitter().render_all(&e)
        )
    });
    let extent_rewrites = session.pass_counts().extent_rewrites;
    let input = if quick { b.test_input } else { b.paper_input };
    let args: Vec<Value> = input.iter().map(|&v| Value::Int(v)).collect();
    let cfg = RunConfig::default();

    let rvm = cj_rvm::run_main(&compiled, &args, cfg)
        .unwrap_or_else(|e| panic!("{} [{extent} rvm]: {e}", b.name));
    let interp = run_main_big_stack(&compilation.program, &args, cfg)
        .unwrap_or_else(|e| panic!("{} [{extent} interp]: {e}", b.name));

    assert_eq!(
        observable(&rvm),
        observable(&interp),
        "{} [{extent}]: engines diverged",
        b.name
    );
    assert_eq!(
        rvm.space.total_allocated, interp.space.total_allocated,
        "{} [{extent}]: engines disagree on allocation totals",
        b.name
    );

    let row = ModeRow {
        peak_interp: interp.space.peak_live,
        peak_rvm: rvm.space.peak_live,
        total_allocated: interp.space.total_allocated,
        space_ratio: interp.space.space_ratio(),
        extent_rewrites,
    };
    (row, observable(&interp))
}

fn measure(b: &Benchmark, quick: bool) -> BenchRow {
    let (paper, obs_paper) = measure_mode(b, ExtentMode::Paper, quick);
    let (liveness, obs_live) = measure_mode(b, ExtentMode::Liveness, quick);
    assert_eq!(
        obs_paper, obs_live,
        "{}: extent modes changed the program's observables",
        b.name
    );
    assert_eq!(
        paper.total_allocated, liveness.total_allocated,
        "{}: extent tightening changed what was allocated",
        b.name
    );
    assert!(
        liveness.peak_interp <= paper.peak_interp,
        "{}: liveness placement raised the interpreter peak ({} > {})",
        b.name,
        liveness.peak_interp,
        paper.peak_interp
    );
    assert!(
        liveness.peak_rvm <= paper.peak_rvm,
        "{}: liveness placement raised the register VM peak ({} > {})",
        b.name,
        liveness.peak_rvm,
        paper.peak_rvm
    );
    BenchRow {
        name: b.name,
        suite: b.suite,
        input: if quick { "test" } else { b.input_display },
        paper,
        liveness,
    }
}

fn mode_json(m: &ModeRow) -> String {
    format!(
        "{{\"peak_live_interp\":{},\"peak_live_rvm\":{},\"total_allocated\":{},\
         \"space_ratio\":{:.6},\"extent_rewrites\":{}}}",
        m.peak_interp, m.peak_rvm, m.total_allocated, m.space_ratio, m.extent_rewrites
    )
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_liveness.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => {
                eprintln!("liveness_bench: unknown argument `{other}`");
                eprintln!("usage: liveness_bench [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let rows: Vec<BenchRow> = all_benchmarks()
        .iter()
        .map(|b| {
            let row = measure(b, quick);
            let saved = row
                .paper
                .peak_interp
                .saturating_sub(row.liveness.peak_interp);
            println!(
                "{:28} {:8} peak paper {:>10}  liveness {:>10}  saved {:>9}  \
                 rewrites {:>3}  ratio {:.4} -> {:.4}",
                row.name,
                match row.suite {
                    Suite::RegJava => "regjava",
                    Suite::Olden => "olden",
                },
                row.paper.peak_interp,
                row.liveness.peak_interp,
                saved,
                row.liveness.extent_rewrites,
                row.paper.space_ratio,
                row.liveness.space_ratio
            );
            row
        })
        .collect();

    let improved = rows
        .iter()
        .filter(|r| r.liveness.peak_interp < r.paper.peak_interp)
        .count();
    let rewrites: u32 = rows.iter().map(|r| r.liveness.extent_rewrites).sum();
    println!(
        "{} / {} benchmarks with a strictly lower peak; {} letregs rewritten",
        improved,
        rows.len(),
        rewrites
    );

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\":{},\"suite\":\"{}\",\"input\":{},\
                 \"paper\":{},\"liveness\":{}}}",
                json_string(r.name),
                match r.suite {
                    Suite::RegJava => "regjava",
                    Suite::Olden => "olden",
                },
                json_string(r.input),
                mode_json(&r.paper),
                mode_json(&r.liveness)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\":\"bench-liveness/v2\",\n  \"input_scale\":\"{}\",\n  \
         \"benchmarks\":[\n{}\n  ],\n  \"summary\":{{\"benchmarks\":{},\
         \"peak_improved\":{},\"letregs_rewritten\":{},\
         \"peak_never_worse\":true}}\n}}\n",
        if quick { "test" } else { "paper" },
        body.join(",\n"),
        rows.len(),
        improved,
        rewrites
    );
    std::fs::write(&out_path, &json).expect("write bench output");
    println!("wrote {out_path}");
}
