//! `cjrc` — the Core-Java region compiler driver.
//!
//! ```text
//! cjrc infer  <file> [--mode M] [--downcast D] [--extents X] [--stats] [--json]
//! cjrc check  <file> [--policy <file.cjpolicy>]
//!                    [--mode M] [--downcast D] [--extents X] [--json]
//! cjrc query  <file> <inv.C|pre.m|pre.C.m> [--entails ATOM]
//!                    [--mode M] [--downcast D] [--extents X] [--json]
//! cjrc run    <file> [--engine rvm|interp] [--fuel N] [--max-depth N]
//!                    [--mode M] [--downcast D] [--extents X] [--json] [args…]
//! cjrc flows  <file> [--json]                                       downcast-set report
//! cjrc serve         [--mode M] [--downcast D] [--extents X]
//!                                                                   JSON-lines compile server
//! cjrc daemon        [--addr H:P | --socket PATH] [--workers N]
//!                    [--max-clients N] [--idle-timeout SECS]
//!                    [--metrics-addr H:P]
//!                    [--mode M] [--downcast D] [--extents X]        multi-client compile daemon
//! cjrc trace-summary <trace.json>                                   self-time table of a trace
//! ```
//!
//! `infer`/`check`/`run`/`serve`/`daemon` accept `--trace-out FILE`:
//! structured spans from every pipeline phase (parse, typecheck, per-SCC
//! solve, extent rewriting, policy check, lowering, execution) and the
//! daemon internals (reactor dispatch, queue wait, worker handling) are
//! recorded and written as Chrome trace-event JSON —
//! load the file in Perfetto / `chrome://tracing`, or render a self-time
//! table with `cjrc trace-summary`. Tracing off costs one atomic load per
//! span. `serve`/`daemon` also accept `--metrics-addr H:P`, an HTTP
//! scrape endpoint (`GET /metrics` text exposition, `GET /metrics.json`)
//! over the same registry the in-protocol `metrics` request reads.
//!
//! `M` ∈ {no-sub, object-sub, field-sub} (default field-sub; the short
//! aliases none/object/field are accepted); `D` ∈ {reject, equate-first,
//! padding} (default equate-first; alias equate); `X` ∈ {paper, liveness}
//! (default paper) selects `letreg` extent placement — `liveness` runs the
//! cj-liveness flow-sensitive tightening pass after inference, shrinking
//! region lifetimes without changing observable behaviour.
//!
//! `run` executes on the `cj-rvm` register VM by default (`cj-vm` lowers
//! the program straight to register code, which `cj-rvm` runs with one
//! `match` per dispatch); `--engine interp` selects the tree-walking
//! interpreter. Program output, space statistics and runtime errors are
//! identical across both engines (enforced by the differential test
//! suites). `--fuel` and `--max-depth` bound execution steps and call
//! depth uniformly on both engines.
//!
//! Every command renders its diagnostics through the one workspace it
//! drives: caret-style source snippets on stderr, or — with `--json` — a
//! one-line JSON array of structured diagnostics (severity, code, message,
//! span, labels, notes) on stdout. Each span carries its file,
//! `{"file":..,"lo":..,"hi":..,"line":..,"col":..}`, or is `null` when the
//! diagnostic has no location (an unreadable input, a runtime fault), which
//! caret mode shows as `--> <workspace>`. `check` additionally surfaces
//! the Sec 5 *bound-to-fail* downcast warnings in both modes, and `flows`
//! reports them too.
//!
//! `check --policy` additionally enforces user-written region-effect
//! rules (`cj-policy`): `no-escape C`, `confine C to D` and
//! `separate S from [D.]m`, reported as first-class `E071x` diagnostics
//! whose secondary label points at the rule declaration; any violation
//! exits non-zero. `query` answers one-shot questions against the closed
//! constraint environment `Q` — print an abstraction, or decide
//! `--entails "r2>=r1"` — without a serve round-trip.
//!
//! `serve` reads one JSON request per line on stdin and writes one JSON
//! response per line on stdout (`open`/`edit`/`close`/`check`/`annotate`/
//! `run`/`query`/`stats`/`shutdown`); every response carries the workspace
//! `revision` and the `passes_executed` delta, so clients can observe
//! incremental recompilation. See the README protocol reference.
//!
//! `daemon` serves the same protocol to many concurrent socket clients
//! (default `127.0.0.1:4871`), one workspace per connection; a client
//! sends `{"cmd":"shutdown","scope":"daemon"}` to stop the daemon itself.

use cj_diag::{codes, Diagnostic, Diagnostics, IntoDiagnostic, Span};
use cj_driver::telemetry::{chrome_trace_json, parse_trace_file};
use cj_driver::{Daemon, DaemonConfig, Server, SessionOptions, Workspace};
use cj_infer::{DowncastPolicy, ExtentMode, InferOptions, SubtypeMode};
use cj_runtime::{Engine, Value};
use std::io::{BufRead, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("cjrc: {}", e.message);
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.trace_out.is_some() {
        cj_trace::install();
    }
    let mut ws = Workspace::new(session_options(&cli));
    let outcome = execute(&cli, &mut ws);
    if let Some(path) = &cli.trace_out {
        // Every recording thread (daemon workers, reactor, flusher) has
        // been joined by now; their buffers flushed to the sink on exit.
        let events = cj_trace::uninstall();
        match std::fs::write(path, chrome_trace_json(&events)) {
            Ok(()) => eprintln!("cjrc: wrote {} trace event(s) to {path}", events.len()),
            Err(e) => eprintln!("cjrc: warning: could not write trace file `{path}`: {e}"),
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(diags) => {
            report(&cli, &ws, &diags);
            ExitCode::FAILURE
        }
    }
}

// ---- argument parsing ------------------------------------------------------

/// One parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cli {
    command: Command,
    file: String,
    opts: InferOptions,
    stats: bool,
    json: bool,
    run_args: Vec<i64>,
    /// `daemon`: TCP listen address (`host:port`).
    addr: Option<String>,
    /// `daemon`: Unix-socket path (conflicts with `addr`).
    socket: Option<String>,
    /// `daemon`: connection worker threads (default 4).
    workers: Option<usize>,
    /// `daemon`: backpressure bound on in-flight connections (0 = off).
    max_clients: Option<usize>,
    /// `daemon`: per-connection idle eviction in seconds (0 = off).
    idle_timeout: Option<u64>,
    /// `run`: execution engine (default rvm).
    engine: Option<Engine>,
    /// `run`: execution step budget.
    fuel: Option<u64>,
    /// `run`: call-depth budget.
    max_depth: Option<u32>,
    /// `check`: path of a `.cjpolicy` rule file to enforce.
    policy: Option<String>,
    /// `query`: the abstraction name (`inv.C`, `pre.m`, or `pre.C.m`).
    query_name: Option<String>,
    /// `query`: positional atom to test against the abstraction.
    entails: Option<String>,
    /// Chrome trace-event JSON output path (tracing stays off without it).
    trace_out: Option<String>,
    /// `serve`/`daemon`: TCP address of the HTTP metrics scrape endpoint.
    metrics_addr: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Infer,
    Check,
    Run,
    Flows,
    Query,
    Serve,
    Daemon,
    TraceSummary,
}

/// Default TCP listen address of `cjrc daemon`.
const DEFAULT_DAEMON_ADDR: &str = "127.0.0.1:4871";

/// A command-line usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CliError {
    message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
        }
    }
}

impl IntoDiagnostic for CliError {
    fn into_diagnostic(self) -> Diagnostic {
        Diagnostic::error(self.message, Span::DUMMY).with_code(codes::CLI)
    }
}

fn usage() -> String {
    format!(
        "usage: cjrc <infer|check|run|flows> <file.cj> [--mode {m}] \
         [--downcast {d}] [--extents {x}] [--stats] [--json] [run args…]\n       \
         cjrc check <file.cj> --policy <file.cjpolicy> [--json]\n       \
         cjrc run <file.cj> [--engine {e}] [--fuel N] [--max-depth N] [args…]\n       \
         cjrc query <file.cj> <inv.C|pre.m|pre.C.m> [--entails ATOM] [--json]\n       \
         cjrc serve [--mode {m}] [--downcast {d}] [--extents {x}]\n       \
         cjrc daemon [--addr host:port | --socket path] \
         [--workers N] [--max-clients N] \
         [--idle-timeout SECS] [--metrics-addr host:port] \
         [--mode {m}] [--downcast {d}] [--extents {x}] [--json]\n       \
         cjrc trace-summary <trace.json>      (any command above accepts --trace-out FILE)",
        m = SubtypeMode::NAMES[..3].join("|"),
        d = DowncastPolicy::NAMES[..3].join("|"),
        x = ExtentMode::NAMES.join("|"),
        e = Engine::NAMES.join("|"),
    )
}

fn parse_cli(args: Vec<String>) -> Result<Cli, CliError> {
    let mut args = args.into_iter();
    let command = match args.next().as_deref() {
        Some("infer") => Command::Infer,
        Some("check") => Command::Check,
        Some("run") => Command::Run,
        Some("flows") => Command::Flows,
        Some("query") => Command::Query,
        Some("serve") => Command::Serve,
        Some("daemon") => Command::Daemon,
        Some("trace-summary") => Command::TraceSummary,
        Some(other) => return Err(CliError::new(format!("unknown command `{other}`"))),
        None => return Err(CliError::new("missing command")),
    };
    let mut file = None;
    let mut opts = InferOptions::default();
    let mut stats = false;
    let mut json = false;
    let mut run_args = Vec::new();
    let mut addr = None;
    let mut socket = None;
    let mut workers = None;
    let mut max_clients = None;
    let mut idle_timeout = None;
    let mut engine = None;
    let mut fuel = None;
    let mut max_depth = None;
    let mut policy = None;
    let mut query_name = None;
    let mut entails = None;
    let mut trace_out = None;
    let mut metrics_addr = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--mode" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::new("--mode needs a value"))?;
                opts.mode = value.parse().map_err(|e| CliError::new(format!("{e}")))?;
            }
            "--downcast" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::new("--downcast needs a value"))?;
                opts.downcast = value.parse().map_err(|e| CliError::new(format!("{e}")))?;
            }
            "--extents" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::new("--extents needs a value"))?;
                opts.extent = value.parse().map_err(|e| CliError::new(format!("{e}")))?;
            }
            "--addr" => {
                addr = Some(
                    args.next()
                        .ok_or_else(|| CliError::new("--addr needs a host:port value"))?,
                );
            }
            "--socket" => {
                socket = Some(
                    args.next()
                        .ok_or_else(|| CliError::new("--socket needs a path value"))?,
                );
            }
            "--workers" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::new("--workers needs a value"))?;
                workers = Some(value.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(
                    || {
                        CliError::new(format!(
                            "--workers needs a positive integer, found `{value}`"
                        ))
                    },
                )?);
            }
            "--max-clients" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::new("--max-clients needs a value"))?;
                max_clients = Some(value.parse::<usize>().map_err(|_| {
                    CliError::new(format!(
                        "--max-clients needs a whole number (0 = unbounded), found `{value}`"
                    ))
                })?);
            }
            "--idle-timeout" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::new("--idle-timeout needs a value in seconds"))?;
                idle_timeout = Some(value.parse::<u64>().map_err(|_| {
                    CliError::new(format!(
                        "--idle-timeout needs a whole number of seconds (0 disables), \
                         found `{value}`"
                    ))
                })?);
            }
            "--engine" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::new("--engine needs a value"))?;
                engine = Some(value.parse::<Engine>().map_err(CliError::new)?);
            }
            "--fuel" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::new("--fuel needs a value"))?;
                fuel = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            CliError::new(format!(
                                "--fuel needs a positive integer, found `{value}`"
                            ))
                        })?,
                );
            }
            "--max-depth" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::new("--max-depth needs a value"))?;
                max_depth = Some(value.parse::<u32>().ok().filter(|&n| n >= 1).ok_or_else(
                    || {
                        CliError::new(format!(
                            "--max-depth needs a positive integer, found `{value}`"
                        ))
                    },
                )?);
            }
            "--policy" => {
                policy = Some(
                    args.next()
                        .ok_or_else(|| CliError::new("--policy needs a rule-file value"))?,
                );
            }
            "--entails" => {
                entails = Some(
                    args.next()
                        .ok_or_else(|| CliError::new("--entails needs an atom value"))?,
                );
            }
            "--trace-out" => {
                trace_out = Some(
                    args.next()
                        .ok_or_else(|| CliError::new("--trace-out needs a file value"))?,
                );
            }
            "--metrics-addr" => {
                metrics_addr = Some(
                    args.next()
                        .ok_or_else(|| CliError::new("--metrics-addr needs a host:port value"))?,
                );
            }
            "--stats" => stats = true,
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::new(format!("unknown option `{flag}`")));
            }
            other if file.is_none() => file = Some(other.to_string()),
            other if command == Command::Query && query_name.is_none() => {
                query_name = Some(other.to_string());
            }
            other => {
                let value = other.parse::<i64>().map_err(|_| {
                    CliError::new(format!("expected integer argument, found `{other}`"))
                })?;
                run_args.push(value);
            }
        }
    }
    if !matches!(command, Command::Daemon)
        && (addr.is_some()
            || socket.is_some()
            || workers.is_some()
            || max_clients.is_some()
            || idle_timeout.is_some())
    {
        return Err(CliError::new(
            "--addr/--socket/--workers/--max-clients/--idle-timeout \
             apply to `daemon` only",
        ));
    }
    if !matches!(command, Command::Serve | Command::Daemon) && metrics_addr.is_some() {
        return Err(CliError::new(
            "--metrics-addr applies to `serve` and `daemon` only",
        ));
    }
    if matches!(
        command,
        Command::Flows | Command::Query | Command::TraceSummary
    ) && trace_out.is_some()
    {
        return Err(CliError::new(
            "--trace-out applies to `infer`, `check`, `run`, `serve` and `daemon`",
        ));
    }
    if matches!(command, Command::TraceSummary) {
        if stats || json || !run_args.is_empty() {
            return Err(CliError::new(
                "`trace-summary` accepts no options, just a trace file",
            ));
        }
        if file.is_none() {
            return Err(CliError::new(
                "`trace-summary` needs a trace file (written by --trace-out)",
            ));
        }
    }
    if !matches!(command, Command::Run)
        && (engine.is_some() || fuel.is_some() || max_depth.is_some())
    {
        return Err(CliError::new(
            "--engine/--fuel/--max-depth apply to `run` only",
        ));
    }
    if !matches!(command, Command::Check) && policy.is_some() {
        return Err(CliError::new("--policy applies to `check` only"));
    }
    if !matches!(command, Command::Query) && entails.is_some() {
        return Err(CliError::new("--entails applies to `query` only"));
    }
    if matches!(command, Command::Query) {
        if query_name.is_none() {
            return Err(CliError::new(
                "`query` needs an abstraction name (`inv.C`, `pre.m`, or `pre.C.m`)",
            ));
        }
        if !run_args.is_empty() {
            return Err(CliError::new("`query` takes no run arguments"));
        }
    }
    let file = match command {
        Command::Serve | Command::Daemon => {
            let name = if command == Command::Serve {
                "serve"
            } else {
                "daemon"
            };
            if let Some(extra) = file {
                return Err(CliError::new(format!(
                    "`{name}` takes no input file (sources arrive over the \
                     protocol), found `{extra}`"
                )));
            }
            // `daemon --json` switches the exit summary to one JSON
            // line; everything else stays rejected, and `serve` (whose
            // stdout *is* the protocol) accepts none of them.
            let json_ok = command == Command::Daemon;
            if stats || (json && !json_ok) || !run_args.is_empty() {
                return Err(CliError::new(format!(
                    "`{name}` accepts no --stats/--json/run arguments"
                )));
            }
            if addr.is_some() && socket.is_some() {
                return Err(CliError::new("--addr and --socket are mutually exclusive"));
            }
            String::new()
        }
        _ => file.ok_or_else(|| CliError::new("missing input file"))?,
    };
    Ok(Cli {
        command,
        file,
        opts,
        stats,
        json,
        run_args,
        addr,
        socket,
        workers,
        max_clients,
        idle_timeout,
        engine,
        fuel,
        max_depth,
        policy,
        query_name,
        entails,
        trace_out,
        metrics_addr,
    })
}

// ---- execution -------------------------------------------------------------

/// The workspace options of an invocation: its inference options and the
/// `run` limits.
fn session_options(cli: &Cli) -> SessionOptions {
    let mut opts = SessionOptions::with_infer(cli.opts);
    if let Some(engine) = cli.engine {
        opts.run.engine = engine;
    }
    if let Some(fuel) = cli.fuel {
        opts.run.step_limit = fuel;
    }
    if let Some(depth) = cli.max_depth {
        opts.run.max_depth = depth;
    }
    opts
}

/// Renders a failed invocation's diagnostics through the workspace: caret
/// snippets on stderr, or a one-line JSON array on stdout with `--json`.
fn report(cli: &Cli, ws: &Workspace, diags: &Diagnostics) {
    if diags.is_empty() {
        return;
    }
    if cli.json {
        println!("{}", ws.render_json(diags));
    } else {
        eprint!("{}", ws.render(diags));
    }
}

/// Reads a file named on the command line.
fn read_file(path: &str) -> Result<String, Diagnostics> {
    std::fs::read_to_string(path).map_err(|e| {
        Diagnostics::from_one(
            Diagnostic::error(format!("cannot read `{path}`: {e}"), Span::DUMMY)
                .with_code(codes::IO),
        )
    })
}

fn execute(cli: &Cli, ws: &mut Workspace) -> Result<(), Diagnostics> {
    match cli.command {
        Command::Serve => return serve(ws.options().clone(), cli),
        Command::Daemon => {
            return daemon(ws.options().clone(), cli).map_err(|e| {
                Diagnostics::from_one(
                    Diagnostic::error(format!("daemon failed: {e}"), Span::DUMMY)
                        .with_code(codes::IO),
                )
            })
        }
        Command::TraceSummary => {
            return trace_summary_cmd(&cli.file).map_err(|message| {
                Diagnostics::from_one(Diagnostic::error(message, Span::DUMMY).with_code(codes::IO))
            })
        }
        _ => {}
    }
    // The input file keeps its command-line name, so diagnostics point at
    // it.
    ws.set_source(&cli.file, read_file(&cli.file)?)?;
    let opts = cli.opts;
    match cli.command {
        Command::Infer => {
            let compilation = ws.infer(opts)?;
            let annotated = ws.annotate(opts)?;
            let stats = &compilation.stats;
            if cli.json {
                println!(
                    "{{\"annotated\":{},\"extents\":\"{}\",\"stats\":{}}}",
                    cj_diag::json_string(&annotated),
                    opts.extent,
                    stats.to_json()
                );
            } else {
                print!("{annotated}");
            }
            if cli.stats && !cli.json {
                eprintln!(
                    "regions: {}  letregs: {}  fixpoint iterations: {}  repairs: {}",
                    stats.regions_created,
                    stats.localized_regions,
                    stats.fixpoint_iterations,
                    stats.override_repairs
                );
            }
            Ok(())
        }
        Command::Check if cli.policy.is_some() => policy_cmd(cli, ws),
        Command::Check => {
            ws.check(opts)?;
            // Sec 5 bound-to-fail downcast warnings surface here too, not
            // only under `flows`.
            let kernel = ws.typecheck()?;
            let warnings = ws.downcast_analysis()?.diagnostics(&kernel);
            if cli.json {
                println!(
                    "{{\"status\":\"well-region-typed\",\"file\":{},\"mode\":\"{}\",\
                     \"extents\":\"{}\",\"warnings\":{}}}",
                    cj_diag::json_string(&cli.file),
                    opts.mode,
                    opts.extent,
                    ws.render_json(&warnings)
                );
            } else {
                eprint!("{}", ws.render(&warnings));
                if opts.extent == ExtentMode::Paper {
                    println!("{}: well-region-typed ({})", cli.file, opts.mode);
                } else {
                    println!(
                        "{}: well-region-typed ({}; {} extents)",
                        cli.file, opts.mode, opts.extent
                    );
                }
            }
            Ok(())
        }
        Command::Query => query_cmd(cli, ws),
        Command::Run => {
            let engine = ws.options().run.engine;
            let args: Vec<Value> = cli.run_args.iter().map(|&v| Value::Int(v)).collect();
            let out = ws.run(opts, engine, &args)?;
            if cli.json {
                let prints: Vec<String> =
                    out.prints.iter().map(|p| cj_diag::json_string(p)).collect();
                println!(
                    "{{\"result\":{},\"prints\":[{}],\"engine\":\"{engine}\",\
                     \"extents\":\"{}\",\"steps\":{},\
                     \"space\":{{\"peak_live\":{},\
                     \"total_allocated\":{},\"ratio\":{:.4},\"regions\":{}}}}}",
                    cj_diag::json_string(&out.value.to_string()),
                    prints.join(","),
                    opts.extent,
                    out.steps,
                    out.space.peak_live,
                    out.space.total_allocated,
                    out.space.space_ratio(),
                    out.space.regions_created
                );
            } else {
                for line in &out.prints {
                    println!("{line}");
                }
                println!("result: {}", out.value);
                println!(
                    "space: peak {} / total {} bytes (ratio {:.4}), {} regions",
                    out.space.peak_live,
                    out.space.total_allocated,
                    out.space.space_ratio(),
                    out.space.regions_created
                );
            }
            Ok(())
        }
        Command::Flows => {
            let kp = ws.typecheck()?;
            let analysis = ws.downcast_analysis()?;
            let warnings = analysis.diagnostics(&kp);
            if cli.json {
                let sites: Vec<String> = analysis
                    .sites
                    .iter()
                    .map(|site| {
                        let classes: Vec<String> = analysis
                            .site_sets
                            .get(&site.id)
                            .map(|set| {
                                set.iter()
                                    .map(|&c| cj_diag::json_string(kp.table.name(c).as_str()))
                                    .collect()
                            })
                            .unwrap_or_default();
                        format!(
                            "{{\"class\":{},\"method\":{},\"downcast_to\":[{}],\
                             \"bound_to_fail\":{}}}",
                            cj_diag::json_string(kp.table.name(site.class).as_str()),
                            cj_diag::json_string(&kp.method_name(site.method)),
                            classes.join(","),
                            analysis.doomed_sites.contains(&site.id)
                        )
                    })
                    .collect();
                println!(
                    "{{\"downcasts\":{},\"sites\":[{}],\"warnings\":{}}}",
                    analysis.downcast_count,
                    sites.join(","),
                    ws.render_json(&warnings)
                );
            } else {
                println!("{} downcast(s)", analysis.downcast_count);
                for site in &analysis.sites {
                    if let Some(set) = analysis.site_sets.get(&site.id) {
                        let classes: Vec<&str> =
                            set.iter().map(|&c| kp.table.name(c).as_str()).collect();
                        let doomed = if analysis.doomed_sites.contains(&site.id) {
                            " [bound to fail]"
                        } else {
                            ""
                        };
                        println!(
                            "new {} in {} -> {{{}}}{doomed}",
                            kp.table.name(site.class),
                            kp.method_name(site.method),
                            classes.join(", ")
                        );
                    }
                }
                eprint!("{}", ws.render(&warnings));
            }
            Ok(())
        }
        Command::Serve | Command::Daemon | Command::TraceSummary => {
            unreachable!("serve/daemon/trace-summary read no input file")
        }
    }
}

/// `cjrc query <file> <name> [--entails ATOM]`: one-shot access to the
/// closed constraint environment `Q`.
fn query_cmd(cli: &Cli, ws: &mut Workspace) -> Result<(), Diagnostics> {
    let name = cli.query_name.as_deref().expect("validated by parse_cli");
    let unknown = || {
        Diagnostics::from_one(
            Diagnostic::error(format!("unknown abstraction `{name}`"), Span::DUMMY)
                .with_code(codes::CLI),
        )
    };
    if let Some(atom) = &cli.entails {
        let holds = ws.entails(cli.opts, name, atom)?.ok_or_else(unknown)?;
        if cli.json {
            println!(
                "{{\"name\":{},\"atom\":{},\"entails\":{holds}}}",
                cj_diag::json_string(name),
                cj_diag::json_string(atom)
            );
        } else {
            println!("{name} entails {atom}: {holds}");
        }
    } else {
        let abs = ws.q(cli.opts, name)?.ok_or_else(unknown)?;
        if cli.json {
            println!(
                "{{\"name\":{},\"params\":{},\"abs\":{}}}",
                cj_diag::json_string(name),
                abs.params.len(),
                cj_diag::json_string(&abs.to_string())
            );
        } else {
            println!("{abs}");
        }
    }
    Ok(())
}

/// `cjrc check <file> --policy <rules>`: compile, region-check, then
/// enforce the user's region-effect rules; violations exit non-zero.
fn policy_cmd(cli: &Cli, ws: &mut Workspace) -> Result<(), Diagnostics> {
    let policy_path = cli.policy.as_deref().expect("validated by parse_cli");
    ws.set_policy(policy_path, read_file(policy_path)?)?;
    ws.check(cli.opts)?;
    let outcome = ws.check_policy(cli.opts)?;
    let rules = ws.policy().map_or(0, |set| set.rules.len());
    let status = if outcome.ok() {
        "policy-ok"
    } else {
        "policy-violations"
    };
    if cli.json {
        println!(
            "{{\"status\":\"{status}\",\"file\":{},\"policy\":{},\"rules\":{rules},\
             \"violations\":{},\"rule_errors\":{},\"diagnostics\":{}}}",
            cj_diag::json_string(&cli.file),
            cj_diag::json_string(policy_path),
            outcome.violations,
            outcome.rule_errors,
            ws.render_json(&outcome.diagnostics)
        );
    } else {
        eprint!("{}", ws.render(&outcome.diagnostics));
        if outcome.ok() {
            println!("{}: policy-ok ({rules} rule(s))", cli.file);
        } else {
            println!(
                "{}: {} policy violation(s), {} rule error(s)",
                cli.file, outcome.violations, outcome.rule_errors
            );
        }
    }
    if outcome.ok() {
        Ok(())
    } else {
        // The findings are printed above; only the exit status is left.
        Err(Diagnostics::new())
    }
}

/// The `cjrc daemon` front end: bind the requested socket, announce the
/// address on stdout (so scripts can connect), and serve until a
/// daemon-scope shutdown.
fn daemon(opts: SessionOptions, cli: &Cli) -> std::io::Result<()> {
    let defaults = DaemonConfig::default();
    let config = DaemonConfig {
        opts,
        workers: cli.workers.unwrap_or(defaults.workers),
        max_clients: cli.max_clients.unwrap_or(defaults.max_clients),
        idle_timeout: cli
            .idle_timeout
            .map(std::time::Duration::from_secs)
            .unwrap_or(defaults.idle_timeout),
        metrics_addr: cli.metrics_addr.clone(),
    };
    let daemon = match &cli.socket {
        #[cfg(unix)]
        Some(path) => Daemon::bind_unix(std::path::Path::new(path), config)?,
        #[cfg(not(unix))]
        Some(_) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "--socket requires a Unix platform; use --addr",
            ))
        }
        None => {
            let addr = cli.addr.as_deref().unwrap_or(DEFAULT_DAEMON_ADDR);
            Daemon::bind_tcp(addr, config)?
        }
    };
    println!("cjrcd listening on {}", daemon.describe_addr());
    std::io::stdout().flush()?;
    if let Some(addr) = daemon.metrics_local_addr() {
        eprintln!("cjrcd: metrics endpoint on http://{addr}/metrics");
    }
    let summary = daemon.run()?;
    if cli.json {
        // One machine-readable exit summary on stdout (the listening
        // banner above is the only other stdout line) — the same
        // serializer as the `stats` response's `"daemon"` object.
        println!("{}", summary.to_json());
        return Ok(());
    }
    eprintln!(
        "cjrcd: served {} client(s) ({} rejected at capacity, peak {} concurrent), bye",
        summary.clients_served, summary.clients_rejected, summary.connections_peak,
    );
    Ok(())
}

/// The `cjrc serve` loop: one JSON request per stdin line, one JSON
/// response per stdout line, until EOF or a `shutdown` request.
fn serve(opts: SessionOptions, cli: &Cli) -> Result<(), Diagnostics> {
    let mut server = Server::new(opts);
    // The optional HTTP scrape endpoint, over the same telemetry hub the
    // in-protocol `metrics` request reads.
    let metrics_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let metrics_thread = match &cli.metrics_addr {
        Some(addr) => {
            let io_diag = |e: std::io::Error| {
                Diagnostics::from_one(
                    Diagnostic::error(
                        format!("cannot serve metrics on `{addr}`: {e}"),
                        Span::DUMMY,
                    )
                    .with_code(codes::IO),
                )
            };
            let listener = std::net::TcpListener::bind(addr).map_err(io_diag)?;
            if let Ok(bound) = listener.local_addr() {
                eprintln!("cjrc: metrics endpoint on http://{bound}/metrics");
            }
            Some(
                cj_driver::telemetry::spawn_metrics_endpoint(
                    listener,
                    std::sync::Arc::clone(server.telemetry()),
                    None,
                    std::sync::Arc::clone(&metrics_stop),
                )
                .map_err(io_diag)?,
            )
        }
        None => None,
    };
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = server.handle_line(&line);
        let _ = writeln!(stdout, "{response}");
        let _ = stdout.flush();
        if server.is_done() {
            break;
        }
    }
    metrics_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(thread) = metrics_thread {
        let _ = thread.join();
    }
    Ok(())
}

/// `cjrc trace-summary <trace.json>`: re-reads a `--trace-out` file and
/// prints the per-phase count / self-time / total-time table.
fn trace_summary_cmd(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let events = parse_trace_file(&text).map_err(|e| format!("malformed trace `{path}`: {e}"))?;
    if events.is_empty() {
        println!("(no trace events)");
        return Ok(());
    }
    print!(
        "{}",
        cj_trace::render_summary(&cj_trace::summarize(&events))
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_modes_in_both_spellings() {
        for (spelling, mode) in [
            ("none", SubtypeMode::None),
            ("no-sub", SubtypeMode::None),
            ("object", SubtypeMode::Object),
            ("object-sub", SubtypeMode::Object),
            ("field", SubtypeMode::Field),
            ("field-sub", SubtypeMode::Field),
        ] {
            let cli = parse_cli(argv(&["infer", "x.cj", "--mode", spelling])).unwrap();
            assert_eq!(cli.opts.mode, mode, "spelling {spelling}");
        }
    }

    #[test]
    fn parses_downcast_policies() {
        for (spelling, policy) in [
            ("reject", DowncastPolicy::Reject),
            ("equate", DowncastPolicy::EquateFirst),
            ("equate-first", DowncastPolicy::EquateFirst),
            ("padding", DowncastPolicy::Padding),
        ] {
            let cli = parse_cli(argv(&["check", "x.cj", "--downcast", spelling])).unwrap();
            assert_eq!(cli.opts.downcast, policy, "spelling {spelling}");
        }
    }

    #[test]
    fn parses_extent_modes() {
        for (spelling, mode) in [
            ("paper", ExtentMode::Paper),
            ("liveness", ExtentMode::Liveness),
        ] {
            for cmd in ["infer", "check", "run"] {
                let cli = parse_cli(argv(&[cmd, "x.cj", "--extents", spelling])).unwrap();
                assert_eq!(cli.opts.extent, mode, "{cmd} --extents {spelling}");
            }
        }
        // serve/daemon accept it as their session default.
        let cli = parse_cli(argv(&["serve", "--extents", "liveness"])).unwrap();
        assert_eq!(cli.opts.extent, ExtentMode::Liveness);
        let cli = parse_cli(argv(&["daemon", "--extents", "liveness"])).unwrap();
        assert_eq!(cli.opts.extent, ExtentMode::Liveness);
        assert!(parse_cli(argv(&["check", "x.cj", "--extents"]))
            .unwrap_err()
            .message
            .contains("--extents needs a value"));
        assert!(parse_cli(argv(&["check", "x.cj", "--extents", "nll"]))
            .unwrap_err()
            .message
            .contains("extent mode"));
    }

    #[test]
    fn usage_text_matches_accepted_spellings() {
        // The historic drift: usage said `equate` while the enum printed
        // `equate-first`. Both must now parse, and usage lists canonical
        // names that round-trip through FromStr.
        let text = usage();
        for canonical in ["no-sub", "object-sub", "field-sub"] {
            assert!(text.contains(canonical), "usage misses {canonical}");
            assert!(canonical.parse::<SubtypeMode>().is_ok());
        }
        for canonical in ["reject", "equate-first", "padding"] {
            assert!(text.contains(canonical), "usage misses {canonical}");
            assert!(canonical.parse::<DowncastPolicy>().is_ok());
        }
        for canonical in ExtentMode::NAMES {
            assert!(text.contains(canonical), "usage misses {canonical}");
            assert!(canonical.parse::<ExtentMode>().is_ok());
        }
    }

    #[test]
    fn policy_flag_is_check_only() {
        let cli = parse_cli(argv(&["check", "x.cj", "--policy", "rules.cjpolicy"])).unwrap();
        assert_eq!(cli.command, Command::Check);
        assert_eq!(cli.policy.as_deref(), Some("rules.cjpolicy"));
        for cmd in ["infer", "run", "flows", "query"] {
            let mut args = vec![cmd, "x.cj"];
            if cmd == "query" {
                args.push("inv.Pair");
            }
            args.extend(["--policy", "rules.cjpolicy"]);
            let err = parse_cli(argv(&args)).unwrap_err();
            assert!(
                err.message.contains("--policy applies to `check` only"),
                "{cmd}: {}",
                err.message
            );
        }
        assert!(parse_cli(argv(&["check", "x.cj", "--policy"]))
            .unwrap_err()
            .message
            .contains("--policy needs a rule-file value"));
    }

    #[test]
    fn query_parses_name_and_entails() {
        let cli = parse_cli(argv(&["query", "x.cj", "inv.Pair"])).unwrap();
        assert_eq!(cli.command, Command::Query);
        assert_eq!(cli.query_name.as_deref(), Some("inv.Pair"));
        assert!(cli.entails.is_none());
        let cli = parse_cli(argv(&[
            "query",
            "x.cj",
            "pre.Pair.get",
            "--entails",
            "r2>=r1",
            "--json",
        ]))
        .unwrap();
        assert_eq!(cli.query_name.as_deref(), Some("pre.Pair.get"));
        assert_eq!(cli.entails.as_deref(), Some("r2>=r1"));
        assert!(cli.json);
        assert!(parse_cli(argv(&["query", "x.cj"]))
            .unwrap_err()
            .message
            .contains("abstraction name"));
        assert!(parse_cli(argv(&["check", "x.cj", "--entails", "r2>=r1"]))
            .unwrap_err()
            .message
            .contains("--entails applies to `query` only"));
    }

    #[test]
    fn trace_and_metrics_flags_parse_and_validate() {
        // --trace-out rides on every compiling command plus serve/daemon.
        for args in [
            vec!["infer", "x.cj", "--trace-out", "t.json"],
            vec!["check", "x.cj", "--trace-out", "t.json"],
            vec!["run", "x.cj", "--trace-out", "t.json"],
            vec!["serve", "--trace-out", "t.json"],
            vec!["daemon", "--trace-out", "t.json"],
        ] {
            let cli = parse_cli(argv(&args)).unwrap();
            assert_eq!(cli.trace_out.as_deref(), Some("t.json"), "{args:?}");
        }
        for args in [
            vec!["flows", "x.cj", "--trace-out", "t.json"],
            vec!["query", "x.cj", "inv.Pair", "--trace-out", "t.json"],
        ] {
            let err = parse_cli(argv(&args)).unwrap_err();
            assert!(err.message.contains("--trace-out applies"), "{err:?}");
        }
        assert!(parse_cli(argv(&["infer", "x.cj", "--trace-out"]))
            .unwrap_err()
            .message
            .contains("--trace-out needs a file value"));

        // --metrics-addr is a serving concern only.
        let cli = parse_cli(argv(&["daemon", "--metrics-addr", "127.0.0.1:0"])).unwrap();
        assert_eq!(cli.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        let cli = parse_cli(argv(&["serve", "--metrics-addr", "127.0.0.1:0"])).unwrap();
        assert_eq!(cli.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        let err = parse_cli(argv(&["infer", "x.cj", "--metrics-addr", "127.0.0.1:0"])).unwrap_err();
        assert!(
            err.message
                .contains("--metrics-addr applies to `serve` and `daemon`"),
            "{err:?}"
        );

        // trace-summary takes exactly one trace file.
        let cli = parse_cli(argv(&["trace-summary", "t.json"])).unwrap();
        assert_eq!(cli.command, Command::TraceSummary);
        assert_eq!(cli.file, "t.json");
        assert!(parse_cli(argv(&["trace-summary"]))
            .unwrap_err()
            .message
            .contains("needs a trace file"));
        assert!(parse_cli(argv(&["trace-summary", "t.json", "--json"]))
            .unwrap_err()
            .message
            .contains("accepts no options"));
    }

    #[test]
    fn trace_file_round_trips_through_the_summary_parser() {
        // What --trace-out writes, trace-summary must read back.
        let events = vec![
            cj_trace::Event {
                cat: "pipeline",
                name: "infer",
                tid: 1,
                ts_us: 0,
                dur_us: 100,
                depth: 0,
                counters: vec![("methods_inferred", 3)],
            },
            cj_trace::Event {
                cat: "pipeline",
                name: "solve-scc",
                tid: 1,
                ts_us: 10,
                dur_us: 40,
                depth: 1,
                counters: vec![],
            },
        ];
        let parsed = parse_trace_file(&chrome_trace_json(&events)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "infer");
        assert_eq!(parsed[0].counters, vec![("methods_inferred", 3)]);
        let rows = cj_trace::summarize(&parsed);
        let infer = rows.iter().find(|r| r.name == "infer").unwrap();
        assert_eq!(infer.total_us, 100);
        assert_eq!(infer.self_us, 60, "child solve-scc time is not self time");
    }

    #[test]
    fn stats_json_and_run_args_collected() {
        let cli = parse_cli(argv(&["run", "x.cj", "--stats", "--json", "3", "-7"])).unwrap();
        assert!(cli.stats);
        assert!(cli.json);
        assert_eq!(cli.run_args, vec![3, -7]);
        assert_eq!(cli.command, Command::Run);
        assert_eq!(cli.file, "x.cj");
    }

    #[test]
    fn serve_needs_no_file() {
        let cli = parse_cli(argv(&["serve"])).unwrap();
        assert_eq!(cli.command, Command::Serve);
        let cli = parse_cli(argv(&["serve", "--mode", "object"])).unwrap();
        assert_eq!(cli.opts.mode, SubtypeMode::Object);
        // The other commands still require one.
        assert!(parse_cli(argv(&["check"]))
            .unwrap_err()
            .message
            .contains("input file"));
        // Arguments `serve` would silently ignore are rejected instead.
        let err = parse_cli(argv(&["serve", "main.cj"])).unwrap_err();
        assert!(err.message.contains("takes no input file"), "{err:?}");
        let err = parse_cli(argv(&["serve", "--json"])).unwrap_err();
        assert!(err.message.contains("no --stats/--json/run"));
    }

    #[test]
    fn daemon_flags_parse_and_validate() {
        let cli = parse_cli(argv(&["daemon"])).unwrap();
        assert_eq!(cli.command, Command::Daemon);
        assert_eq!(cli.addr, None);
        assert_eq!(cli.workers, None);
        let cli = parse_cli(argv(&[
            "daemon",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "8",
            "--mode",
            "object",
        ]))
        .unwrap();
        assert_eq!(cli.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.workers, Some(8));
        assert_eq!(cli.opts.mode, SubtypeMode::Object);
        let cli = parse_cli(argv(&["daemon", "--socket", "/tmp/cjrcd.sock"])).unwrap();
        assert_eq!(cli.socket.as_deref(), Some("/tmp/cjrcd.sock"));
        // `--json` selects the machine-readable exit summary.
        let cli = parse_cli(argv(&["daemon", "--json"])).unwrap();
        assert!(cli.json);

        // Invalid combinations are rejected.
        let err = parse_cli(argv(&["daemon", "--stats"])).unwrap_err();
        assert!(err.message.contains("no --stats"));
        let err = parse_cli(argv(&["daemon", "--addr", "a:1", "--socket", "/tmp/x"])).unwrap_err();
        assert!(err.message.contains("mutually exclusive"));
        let err = parse_cli(argv(&["daemon", "main.cj"])).unwrap_err();
        assert!(err.message.contains("takes no input file"));
        let err = parse_cli(argv(&["daemon", "--workers", "0"])).unwrap_err();
        assert!(err.message.contains("positive integer"));
        let err = parse_cli(argv(&["check", "x.cj", "--addr", "a:1"])).unwrap_err();
        assert!(err.message.contains("apply to `daemon` only"));
        let err = parse_cli(argv(&["serve", "--workers", "2"])).unwrap_err();
        assert!(err.message.contains("apply to `daemon` only"));
        // Even when the flag value equals the daemon default.
        let err = parse_cli(argv(&["check", "x.cj", "--workers", "4"])).unwrap_err();
        assert!(err.message.contains("apply to `daemon` only"));
        // The per-level parallel solve is gone, and its flag with it.
        let err = parse_cli(argv(&["daemon", "--solve-threads", "2"])).unwrap_err();
        assert!(err.message.contains("unknown option `--solve-threads`"));
    }

    #[test]
    fn backpressure_and_idle_flags_are_daemon_only() {
        let cli = parse_cli(argv(&[
            "daemon",
            "--max-clients",
            "64",
            "--idle-timeout",
            "0",
        ]))
        .unwrap();
        assert_eq!(cli.max_clients, Some(64));
        assert_eq!(cli.idle_timeout, Some(0), "0 disables eviction");
        // 0 explicitly requests the default unbounded behavior, mirroring
        // --idle-timeout 0.
        let cli = parse_cli(argv(&["daemon", "--max-clients", "0"])).unwrap();
        assert_eq!(cli.max_clients, Some(0));
        let err = parse_cli(argv(&["daemon", "--max-clients", "many"])).unwrap_err();
        assert!(err.message.contains("whole number"));
        let err = parse_cli(argv(&["daemon", "--idle-timeout", "soon"])).unwrap_err();
        assert!(err.message.contains("whole number of seconds"));
        let err = parse_cli(argv(&["check", "x.cj", "--max-clients", "4"])).unwrap_err();
        assert!(err.message.contains("apply to `daemon` only"));
        let err = parse_cli(argv(&["serve", "--idle-timeout", "600"])).unwrap_err();
        assert!(err.message.contains("apply to `daemon` only"));
    }

    #[test]
    fn engine_and_limit_flags_are_run_only() {
        let cli = parse_cli(argv(&[
            "run",
            "x.cj",
            "--engine",
            "interp",
            "--fuel",
            "5000",
            "--max-depth",
            "64",
            "3",
        ]))
        .unwrap();
        assert_eq!(cli.engine, Some(Engine::Interp));
        assert_eq!(cli.fuel, Some(5000));
        assert_eq!(cli.max_depth, Some(64));
        assert_eq!(cli.run_args, vec![3]);
        let cli = parse_cli(argv(&["run", "x.cj", "--engine", "rvm"])).unwrap();
        assert_eq!(cli.engine, Some(Engine::Rvm));
        assert_eq!(cli.fuel, None, "defaults come from RunConfig");

        for unknown in ["jit", "vm"] {
            let err = parse_cli(argv(&["run", "x.cj", "--engine", unknown])).unwrap_err();
            assert!(err.message.contains("unknown engine"), "{err:?}");
        }
        let err = parse_cli(argv(&["run", "x.cj", "--fuel", "0"])).unwrap_err();
        assert!(err.message.contains("positive integer"));
        let err = parse_cli(argv(&["run", "x.cj", "--max-depth", "never"])).unwrap_err();
        assert!(err.message.contains("positive integer"));
        for bad in [
            argv(&["check", "x.cj", "--engine", "rvm"]),
            argv(&["infer", "x.cj", "--fuel", "10"]),
            argv(&["serve", "--max-depth", "10"]),
        ] {
            let err = parse_cli(bad).unwrap_err();
            assert!(err.message.contains("apply to `run` only"), "{err:?}");
        }
    }

    #[test]
    fn rejects_unknown_flags_and_commands() {
        let err = parse_cli(argv(&["infer", "x.cj", "--frobnicate"])).unwrap_err();
        assert!(err.message.contains("unknown option `--frobnicate`"));
        let err = parse_cli(argv(&["explode", "x.cj"])).unwrap_err();
        assert!(err.message.contains("unknown command `explode`"));
    }

    #[test]
    fn rejects_missing_pieces() {
        assert!(parse_cli(argv(&[]))
            .unwrap_err()
            .message
            .contains("command"));
        assert!(parse_cli(argv(&["infer"]))
            .unwrap_err()
            .message
            .contains("input file"));
        assert!(parse_cli(argv(&["infer", "x.cj", "--mode"]))
            .unwrap_err()
            .message
            .contains("--mode needs a value"));
        let err = parse_cli(argv(&["run", "x.cj", "seven"])).unwrap_err();
        assert!(err.message.contains("expected integer argument"));
    }

    #[test]
    fn unknown_mode_error_lists_alternatives() {
        let err = parse_cli(argv(&["infer", "x.cj", "--mode", "both"])).unwrap_err();
        assert!(err.message.contains("unknown subtype mode `both`"));
        assert!(err.message.contains("field-sub"));
    }

    #[test]
    fn cli_error_becomes_structured_diagnostic() {
        let d = CliError::new("boom").into_diagnostic();
        assert_eq!(d.code, Some(codes::CLI));
        assert_eq!(d.message, "boom");
    }
}
