//! `cj-bench` — every timing harness of the workspace, one mode each:
//!
//! - `fig8` reproduces **Fig 8** (inference/checking times under all three
//!   subtyping modes, and the space ratios of the paper inputs);
//! - `fig9` reproduces **Fig 9** (Olden inference times);
//! - `engines` runs every program on the interpreter and on cj-rvm,
//!   their samples alternating ([`cj_bench::measure_pair`]), and writes
//!   `BENCH_vm.json`, plus the region-heap pool churn loop;
//! - `extents` compiles and runs every program under both extent modes
//!   on both engines and writes `BENCH_liveness.json`;
//! - `daemon` replays simulated clients against a cjrcd (cj-loadgen) and
//!   writes `BENCH_daemon.json` with `--out`.
//!
//! Every timed cell goes through [`cj_bench::measure`]. A failed gate or
//! compile exits 1, a usage error 2.

use cj_bench::{
    divergence_gate, extents_gate, load_gate, measure, measure_pair, speed_gate, EngineRun,
    EnginesRow, ExtentRun, ExtentsRow, LoadAsserts, Observed, Stats,
};
use cj_benchmarks::{all_benchmarks, olden_benchmarks, regjava_benchmarks, Benchmark, Suite};
use cj_diag::json_string;
use cj_driver::{Daemon, DaemonConfig, SessionOptions, Workspace};
use cj_frontend::KProgram;
use cj_infer::{ExtentMode, InferOptions, SubtypeMode};
use cj_loadgen::{Kind, LoadConfig, LoadReport};
use cj_runtime::{run_main_big_stack, RunConfig, Value};
use std::net::SocketAddr;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cj-bench fig8|fig9
       cj-bench engines|extents [--quick] [--out PATH]
       cj-bench daemon [--addr HOST:PORT] [--clients N] [--seed N] [--out PATH]
                       [--assert-zero-errors] [--assert-p99-ms N] [--assert-min-peak N]

  fig8     Fig 8: infer/check times per subtyping mode, space ratios
  fig9     Fig 9: Olden inference times
  engines  interpreter vs cj-rvm on every program (writes BENCH_vm.json)
  extents  paper vs liveness extents on both engines (writes BENCH_liveness.json)
  daemon   simulated clients against an in-process cjrcd, or --addr

--quick runs the small test inputs. Each timed cell repeats until it has
5 samples and 0.5 s, and reports median, min and MAD. engines alternates
each program's rvm and interp samples and gives each at least 15.";

const MODES: [&str; 5] = ["fig8", "fig9", "engines", "extents", "daemon"];

struct Cli {
    mode: &'static str,
    quick: bool,
    out: Option<String>,
    addr: Option<SocketAddr>,
    clients: usize,
    seed: u64,
    asserts: LoadAsserts,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let (mode, rest) = args.split_first().ok_or("missing mode")?;
    let mode = MODES
        .into_iter()
        .find(|m| m == mode)
        .ok_or_else(|| format!("unknown mode `{mode}`"))?;
    let mut cli = Cli {
        mode,
        quick: false,
        out: None,
        addr: None,
        clients: 200,
        seed: 42,
        asserts: LoadAsserts::default(),
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match (flag.as_str(), mode) {
            ("--out", "engines" | "extents" | "daemon") => cli.out = Some(value()?.to_string()),
            ("--quick", "engines" | "extents") => cli.quick = true,
            ("--addr", "daemon") => {
                cli.addr = Some(value()?.parse().map_err(|e| format!("--addr: {e}"))?);
            }
            ("--clients", "daemon") => cli.clients = number(value()?)? as usize,
            ("--seed", "daemon") => cli.seed = number(value()?)?,
            ("--assert-zero-errors", "daemon") => cli.asserts.zero_errors = true,
            ("--assert-p99-ms", "daemon") => cli.asserts.p99_ms = Some(number(value()?)?),
            ("--assert-min-peak", "daemon") => cli.asserts.min_peak = Some(number(value()?)?),
            _ => return Err(format!("unknown option `{flag}` for this mode")),
        }
    }
    if cli.clients == 0 {
        return Err("--clients must be at least 1".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("cj-bench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (json, mut failures) = match cli.mode {
        "fig8" => (String::new(), fig8()),
        "fig9" => (String::new(), fig9()),
        "engines" => engines(cli.quick),
        "extents" => extents(cli.quick),
        _ => daemon(&cli),
    };
    let default_out = match cli.mode {
        "engines" => Some("BENCH_vm.json"),
        "extents" => Some("BENCH_liveness.json"),
        _ => None,
    };
    if let Some(path) = cli.out.as_deref().or(default_out) {
        match std::fs::write(path, json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => failures.push(format!("cannot write {path}: {e}")),
        }
    }
    for failure in &failures {
        eprintln!("cj-bench: FAIL — {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ---- shared helpers -------------------------------------------------------

/// A one-file [`Workspace`] over a benchmark's source, named after it.
fn workspace_for(b: &Benchmark) -> Result<Workspace, String> {
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source(b.name, b.source)
        .map_err(|d| format!("{}: {d}", b.name))?;
    Ok(ws)
}

/// `f(ws)`, with diagnostics rendered into the error.
fn compiled<T>(
    ws: &mut Workspace,
    what: &str,
    f: impl FnOnce(&mut Workspace) -> cj_driver::CompileResult<T>,
) -> Result<T, String> {
    f(ws).map_err(|d| format!("{what}:\n{}", ws.render(&d)))
}

/// How to show `b`'s input, and its arguments: the test input under
/// `--quick`, else the paper's.
fn input(b: &Benchmark, quick: bool) -> (&'static str, Vec<Value>) {
    let (shown, input) = if quick {
        ("test", b.test_input)
    } else {
        (b.input_display, b.paper_input)
    };
    (shown, input.iter().map(|&v| Value::Int(v)).collect())
}

fn suite_name(suite: Suite) -> &'static str {
    match suite {
        Suite::RegJava => "regjava",
        Suite::Olden => "olden",
    }
}

/// Rows for the benchmarks `row` measures; a failure becomes a message.
fn rows_of<R>(
    benchmarks: Vec<Benchmark>,
    failures: &mut Vec<String>,
    mut row: impl FnMut(&Benchmark) -> Result<R, String>,
) -> Vec<R> {
    benchmarks
        .iter()
        .filter_map(|b| row(b).map_err(|e| failures.push(e)).ok())
        .collect()
}

/// Counts the declaration sites that receive region annotations in the
/// target language: class headers, class- or array-typed fields, and
/// method signatures — our analogue of Fig 8's "Ann." column.
fn annotation_sites(kp: &KProgram) -> usize {
    let table = &kp.table;
    let classes = table
        .classes()
        .iter()
        .filter(|info| info.id != cj_frontend::ClassId::OBJECT);
    let per_class: usize = classes
        .map(|info| {
            let fields = info.own_fields.iter().filter(|f| f.ty.is_reference());
            1 + fields.count() + info.own_methods.len()
        })
        .sum();
    per_class + table.statics().len()
}

// ---- fig8 / fig9 ------------------------------------------------------------

struct ModeCell {
    infer_ms: Stats,
    check_ms: Stats,
    space_ratio: Option<f64>,
}

/// One Fig 8 program under all three subtyping modes. One workspace serves
/// all three, so the program is parsed and typechecked once; each mode's
/// inference and region check are timed on that shared kernel.
fn fig8_row(b: &Benchmark, args: &[Value]) -> Result<(usize, Vec<ModeCell>), String> {
    let mut ws = workspace_for(b)?;
    let kp = compiled(&mut ws, b.name, Workspace::typecheck)?;
    let mut cells = Vec::new();
    for mode in SubtypeMode::ALL {
        let opts = InferOptions::with_mode(mode);
        let what = format!("{} [{mode}]", b.name);
        let compilation = compiled(&mut ws, &what, |ws| ws.infer(opts))?;
        let (_, infer_ms) = measure(|| cj_infer::infer(&kp, opts));
        let (checked, check_ms) = measure(|| cj_check::check(&compilation.program));
        checked.map_err(|e| format!("{what}: inferred program fails to check: {e}"))?;
        let run = run_main_big_stack(&compilation.program, args, RunConfig::default());
        cells.push(ModeCell {
            infer_ms,
            check_ms,
            space_ratio: run.ok().map(|out| out.space.space_ratio()),
        });
    }
    if ws.pass_counts().typecheck != 1 {
        return Err(format!(
            "{}: the three modes must share one typechecked kernel",
            b.name
        ));
    }
    Ok((annotation_sites(&kp), cells))
}

fn fig8() -> Vec<String> {
    println!(
        "Fig 8 — Comparative statistics on inference/checking and region subtyping\n\
         (space usage = peak-live / total-allocated when running the paper input;\n\
         times: field subtyping, median ± MAD)\n"
    );
    println!(
        "{:<26} {:>5} {:>4}  {:>15} {:>15}  {:>7}  {:>8} {:>8} {:>8}  {:>5}\n{}",
        "Program",
        "Lines",
        "Ann",
        "Infer(ms)",
        "Check(ms)",
        "Input",
        "NoSub",
        "ObjSub",
        "FieldSub",
        "Diff",
        "-".repeat(118)
    );
    let mut failures = Vec::new();
    rows_of(regjava_benchmarks(), &mut failures, |b| {
        let (shown, args) = input(b, false);
        let (ann, cells) = fig8_row(b, &args)?;
        let ratio = |c: &ModeCell| c.space_ratio.map_or("-".to_string(), |r| format!("{r:.3}"));
        println!(
            "{:<26} {:>5} {:>4}  {:>15} {:>15}  {:>7}  {:>8} {:>8} {:>8}  {:>5}",
            b.name,
            cj_benchmarks::source_lines(b),
            ann,
            cells[2].infer_ms.show(),
            cells[2].check_ms.show(),
            shown,
            ratio(&cells[0]),
            ratio(&cells[1]),
            ratio(&cells[2]),
            b.localized_diff_vs_hand,
        );
        Ok(())
    });
    println!(
        "\nDiff column: localized-region difference vs RegJava's hand annotation\n\
         (paper-derived; -1 for optimized life (dangling) reflects the\n\
         no-dangling vs no-dangling-access policy gap, Sec 6)."
    );
    failures
}

fn fig9() -> Vec<String> {
    println!(
        "Fig 9 — Region inference times for the Olden benchmark programs\n\n\
         Program      Lines (ours) Lines (paper)    Ann   Inference (ms)\n{}",
        "-".repeat(63)
    );
    let mut failures = Vec::new();
    rows_of(olden_benchmarks(), &mut failures, |b| {
        let mut ws = workspace_for(b)?;
        let kp = compiled(&mut ws, b.name, Workspace::typecheck)?;
        let (inferred, infer_ms) =
            measure(|| cj_infer::infer(&kp, InferOptions::with_mode(SubtypeMode::Field)));
        inferred.map_err(|e| format!("{}: {e}", b.name))?;
        println!(
            "{:<12} {:>12} {:>13} {:>6} {:>16}",
            b.name,
            cj_benchmarks::source_lines(b),
            b.paper_source_lines,
            annotation_sites(&kp),
            infer_ms.show()
        );
        Ok(())
    });
    println!(
        "\nShape target (paper): all times well under interactive thresholds,\n\
         with health and voronoi among the slowest."
    );
    failures
}

/// A `BENCH_*.json` document: schema, input scale, one row per line and
/// an optional summary member.
fn document(schema: &str, quick: bool, rows: &[String], summary: String) -> String {
    format!(
        "{{\n  \"schema\":\"{schema}\",\n  \"input_scale\":\"{}\",\n  \"benchmarks\":[\n{}\n  ]{summary}\n}}\n",
        if quick { "test" } else { "paper" },
        rows.join(",\n")
    )
}

// ---- engines -----------------------------------------------------------------

fn engines_row(b: &Benchmark, quick: bool) -> Result<EnginesRow, String> {
    let opts = InferOptions::with_mode(SubtypeMode::Field);
    let mut ws = workspace_for(b)?;
    let compilation = compiled(&mut ws, b.name, |ws| ws.check(opts))?;
    let register = compiled(&mut ws, b.name, |ws| ws.compiled(opts))?;
    let ((shown, args), cfg) = (input(b, quick), RunConfig::default());
    let ((rvm, rvm_ms), (interp, interp_ms)) = measure_pair(
        || cj_rvm::run_main(&register, &args, cfg),
        || run_main_big_stack(&compilation.program, &args, cfg),
    );
    let rvm = rvm.map_err(|e| format!("{} [rvm]: {e}", b.name))?;
    let interp = interp.map_err(|e| format!("{} [interp]: {e}", b.name))?;
    let run = |out: &cj_runtime::Outcome, wall_ms| EngineRun {
        wall_ms,
        steps: out.steps,
        observed: Observed::from(out),
    };
    Ok(EnginesRow {
        name: b.name,
        suite: b.suite,
        input: shown,
        instructions: register.instruction_count(),
        fused: register.fused_count(),
        interp: run(&interp, interp_ms),
        rvm: run(&rvm, rvm_ms),
    })
}

/// The letreg churn pattern that dominates the RegJava loops (push,
/// allocate a few small objects, pop) straight on the region heap:
/// returns how many pushes the recycled-chunk pool served.
fn heap_churn(rounds: u64) -> u64 {
    let mut heap = cj_runtime::RegionHeap::new();
    for i in 0..rounds {
        let r = heap.push();
        for f in 0..4u64 {
            heap.alloc_object(r, 1, &[r], &[i, f]).expect("live region");
        }
        heap.pop(r).expect("top of stack");
    }
    heap.chunks_reused()
}

fn engine_json(e: &EngineRun) -> String {
    let space = &e.observed.space;
    format!(
        "{{\"wall_ms\":{},\"steps\":{},\"peak_live\":{},\"total_allocated\":{},\"space_ratio\":{:.6}}}",
        e.wall_ms.json(),
        e.steps,
        space.peak_live,
        space.total_allocated,
        space.space_ratio()
    )
}

fn engines(quick: bool) -> (String, Vec<String>) {
    let mut failures = Vec::new();
    let rows = rows_of(all_benchmarks(), &mut failures, |b| {
        let row = engines_row(b, quick)?;
        let (interp, rvm) = (&row.interp.wall_ms, &row.rvm.wall_ms);
        println!(
            "{:28} {:8} interp {:>16} (min {:>8.3}) ms  rvm {:>14} (min {:>8.3}) ms  \
             rvm/interp {:5.2}x  ratio {:.4}",
            row.name,
            suite_name(row.suite),
            interp.show(),
            interp.min,
            rvm.show(),
            rvm.min,
            row.speedup(),
            row.rvm.observed.space.space_ratio()
        );
        Ok(row)
    });
    failures.extend(divergence_gate(&rows));
    failures.extend(speed_gate(&rows));
    let suite_geomean = |suite: Option<Suite>| {
        let rows = rows.iter().filter(|r| suite.is_none_or(|s| r.suite == s));
        cj_bench::geomean(rows.map(EnginesRow::speedup))
    };
    let (olden, regjava, overall) = (
        suite_geomean(Some(Suite::Olden)),
        suite_geomean(Some(Suite::RegJava)),
        suite_geomean(None),
    );
    println!("geomean rvm-vs-interp (medians): olden {olden:.2}x  regjava {regjava:.2}x  overall {overall:.2}x");

    let rounds: u64 = if quick { 20_000 } else { 200_000 };
    let (reused, churn_ms) = measure(|| heap_churn(rounds));
    println!(
        "heap pool: {reused}/{rounds} region pushes served from recycled chunks ({}ms churn loop)",
        churn_ms.show()
    );

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\":{},\"suite\":\"{}\",\"input\":{},\"instruction_count\":{},\
                 \"fused_count\":{},\"interp\":{},\"rvm\":{},\"rvm_vs_interp\":{:.4}}}",
                json_string(r.name),
                suite_name(r.suite),
                json_string(r.input),
                r.instructions,
                r.fused,
                engine_json(&r.interp),
                engine_json(&r.rvm),
                r.speedup()
            )
        })
        .collect();
    let summary = format!(
        ",\n  \"summary\":{{\"olden_geomean_speedup\":{olden:.4},\"regjava_geomean_speedup\":{regjava:.4},\
         \"overall_geomean_speedup\":{overall:.4},\"rvm_faster_on_olden\":{},\
         \"heap_pool\":{{\"churn_rounds\":{rounds},\"chunks_reused\":{reused},\"wall_ms\":{}}}}}",
        olden > 1.0,
        churn_ms.json()
    );
    (document("bench-vm/v5", quick, &body, summary), failures)
}

// ---- extents -------------------------------------------------------------------

fn extent_run(b: &Benchmark, extent: ExtentMode, quick: bool) -> Result<ExtentRun, String> {
    let opts = InferOptions {
        extent,
        ..InferOptions::with_mode(SubtypeMode::Field)
    };
    let what = format!("{} [{extent}]", b.name);
    let mut ws = workspace_for(b)?;
    let compilation = compiled(&mut ws, &what, |ws| ws.check(opts))?;
    let register = compiled(&mut ws, &what, |ws| ws.compiled(opts))?;
    let ((_, args), cfg) = (input(b, quick), RunConfig::default());
    let rvm = cj_rvm::run_main(&register, &args, cfg).map_err(|e| format!("{what} [rvm]: {e}"))?;
    let interp = run_main_big_stack(&compilation.program, &args, cfg)
        .map_err(|e| format!("{what} [interp]: {e}"))?;
    Ok(ExtentRun {
        rewrites: ws.pass_counts().extent_rewrites,
        interp: Observed::from(&interp),
        rvm: Observed::from(&rvm),
    })
}

fn extent_json(m: &ExtentRun) -> String {
    format!(
        "{{\"peak_live_interp\":{},\"peak_live_rvm\":{},\"total_allocated\":{},\
         \"space_ratio\":{:.6},\"extent_rewrites\":{}}}",
        m.interp.space.peak_live,
        m.rvm.space.peak_live,
        m.interp.space.total_allocated,
        m.interp.space.space_ratio(),
        m.rewrites
    )
}

fn extents(quick: bool) -> (String, Vec<String>) {
    let mut failures = Vec::new();
    let rows = rows_of(all_benchmarks(), &mut failures, |b| {
        let row = ExtentsRow {
            name: b.name,
            suite: b.suite,
            input: input(b, quick).0,
            paper: extent_run(b, ExtentMode::Paper, quick)?,
            liveness: extent_run(b, ExtentMode::Liveness, quick)?,
        };
        let (p, l) = (&row.paper, &row.liveness);
        println!(
            "{:28} {:8} peak paper {:>10}  liveness {:>10}  rewrites {:>3}  ratio {:.4} -> {:.4}",
            row.name,
            suite_name(row.suite),
            p.interp.space.peak_live,
            l.interp.space.peak_live,
            l.rewrites,
            p.interp.space.space_ratio(),
            l.interp.space.space_ratio()
        );
        Ok(row)
    });
    failures.extend(extents_gate(&rows));
    let improved = rows
        .iter()
        .filter(|r| r.liveness.interp.space.peak_live < r.paper.interp.space.peak_live)
        .count();
    let rewrites: u32 = rows.iter().map(|r| r.liveness.rewrites).sum();
    let never_worse = rows.iter().all(|r| {
        let peak = |o: &Observed| o.space.peak_live;
        peak(&r.liveness.interp) <= peak(&r.paper.interp)
            && peak(&r.liveness.rvm) <= peak(&r.paper.rvm)
    });
    println!(
        "{improved} / {} benchmarks with a strictly lower peak; {rewrites} letregs rewritten",
        rows.len()
    );
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\":{},\"suite\":\"{}\",\"input\":{},\"paper\":{},\"liveness\":{}}}",
                json_string(r.name),
                suite_name(r.suite),
                json_string(r.input),
                extent_json(&r.paper),
                extent_json(&r.liveness)
            )
        })
        .collect();
    let summary = format!(
        ",\n  \"summary\":{{\"benchmarks\":{},\"peak_improved\":{improved},\
         \"letregs_rewritten\":{rewrites},\"peak_never_worse\":{never_worse}}}",
        rows.len()
    );
    let json = document("bench-liveness/v2", quick, &body, summary);
    (json, failures)
}

// ---- daemon ----------------------------------------------------------------------

/// One load run: against `cli.addr`, or against a cjrcd spawned in
/// process on an ephemeral port and shut down afterwards.
fn load_once(cli: &Cli) -> Result<LoadReport, String> {
    let config = |addr| LoadConfig {
        addr,
        clients: cli.clients,
        seed: cli.seed,
    };
    if let Some(addr) = cli.addr {
        return cj_loadgen::run(&config(addr)).map_err(|e| format!("load run failed: {e}"));
    }
    let daemon_config = DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind_tcp("127.0.0.1:0", daemon_config)
        .map_err(|e| format!("cannot spawn daemon: {e}"))?;
    let addr = daemon.local_addr().expect("tcp daemon has an address");
    let handle = std::thread::spawn(move || daemon.run());
    let outcome = cj_loadgen::run(&config(addr));
    // Always shut the daemon down, even after a failed run. Teardown
    // trouble is only a warning: the run's report is already complete.
    if let Err(e) = cj_loadgen::shutdown_daemon(addr) {
        eprintln!("cj-bench: warning: daemon shutdown request failed: {e}");
    }
    match handle.join() {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => eprintln!("cj-bench: warning: daemon exited with error: {e}"),
        Err(_) => eprintln!("cj-bench: warning: daemon thread panicked"),
    }
    outcome.map_err(|e| format!("load run failed: {e}"))
}

/// The spread of `f` over the runs that have a value.
fn spread(reports: &[LoadReport], f: impl Fn(&LoadReport) -> Option<f64>) -> Stats {
    Stats::of(&reports.iter().filter_map(f).collect::<Vec<_>>())
}

fn daemon(cli: &Cli) -> (String, Vec<String>) {
    let mut results = Vec::new();
    let (_, wall_ms) = measure(|| results.push(load_once(cli)));
    let (mut reports, mut failures) = (Vec::new(), Vec::new());
    for result in results {
        match result {
            Ok(report) => reports.push(report),
            // A harness failure repeats on every run; report it once.
            Err(e) if failures.is_empty() => failures.push(e),
            Err(_) => {}
        }
    }
    failures.extend(load_gate(&reports, cli.asserts));
    let Some(last) = reports.last() else {
        return (String::new(), failures);
    };
    let rate = spread(&reports, |r| Some(r.requests_per_sec));
    let errors: usize = reports.iter().map(|r| r.protocol_errors).sum();
    let peak = reports
        .iter()
        .map(|r| r.peak_connections_local)
        .min()
        .unwrap_or(0);
    println!(
        "{} clients, {} runs: {} req/s, {} protocol error(s), peak {peak} concurrent connection(s)",
        cli.clients,
        reports.len(),
        rate.show(),
        errors
    );

    let kind_stat = |kind: Kind, f: fn(&cj_loadgen::KindStats) -> u64| {
        spread(&reports, move |r| {
            r.per_kind
                .iter()
                .find(|k| k.kind == kind)
                .map(|k| f(k) as f64)
        })
        .json()
    };
    let latency: Vec<String> = last
        .per_kind
        .iter()
        .map(|k| {
            format!(
                "    \"{}\": {{\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                k.kind.name(),
                k.count,
                kind_stat(k.kind, |k| k.p50_us),
                kind_stat(k.kind, |k| k.p95_us),
                kind_stat(k.kind, |k| k.p99_us),
                kind_stat(k.kind, |k| k.max_us),
            )
        })
        .collect();
    let server = last.server.as_ref().map_or("null".to_string(), |s| {
        let queue = |f: fn(&cj_loadgen::ServerMetrics) -> u64| {
            spread(&reports, |r| r.server.as_ref().map(|s| f(s) as f64)).json()
        };
        let by_kind: Vec<String> = s
            .per_kind
            .iter()
            .map(|k| {
                let p99 = spread(&reports, |r| {
                    let server = r.server.as_ref()?;
                    let same = server.per_kind.iter().find(|x| x.kind == k.kind)?;
                    Some(same.p99_us as f64)
                });
                format!(
                    "\"{}\": {{\"count\": {}, \"p99_us\": {}}}",
                    k.kind,
                    k.count,
                    p99.json()
                )
            })
            .collect();
        format!(
            "{{\"requests_total\": {}, \"queue_wait\": {{\"count\": {}, \"p50_us\": {}, \
             \"p95_us\": {}, \"p99_us\": {}}}, \"by_kind\": {{{}}}}}",
            s.requests_total,
            s.queue_wait_count,
            queue(|s| s.queue_wait_p50_us),
            queue(|s| s.queue_wait_p95_us),
            queue(|s| s.queue_wait_p99_us),
            by_kind.join(", ")
        )
    });
    let daemon = last.daemon.as_ref().map_or("null".to_string(), |d| {
        format!(
            "{{\"clients_served\": {}, \"clients_rejected\": {}, \"connections_peak\": {}}}",
            d.clients_served, d.clients_rejected, d.connections_peak
        )
    });
    let json = format!(
        "{{\n  \"benchmark\": \"cjrcd-loadgen\",\n  \"config\": {{\"clients\": {}, \"seed\": {}}},\n  \
         \"runs\": {},\n  \"requests\": {},\n  \"protocol_errors\": {errors},\n  \
         \"peak_connections_local\": {peak},\n  \"wall_ms\": {},\n  \"requests_per_sec\": {},\n  \
         \"latency\": {{\n{}\n  }},\n  \"server\": {server},\n  \"daemon\": {daemon}\n}}\n",
        cli.clients,
        cli.seed,
        reports.len(),
        last.requests,
        wall_ms.json(),
        rate.json(),
        latency.join(",\n"),
    );
    (json, failures)
}
