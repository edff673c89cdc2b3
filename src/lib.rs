//! # region-inference — *Region Inference for an Object-Oriented Language*
//!
//! A complete Rust implementation of Chin, Craciun, Qin & Rinard's PLDI 2004
//! region inference system for Core-Java: fully automatic derivation of
//! region-polymorphic class and method annotations that guarantee
//! region-based memory management **never creates a dangling reference**.
//!
//! ## The pipeline
//!
//! ```text
//! source ──parse──▶ AST ──normal typecheck──▶ kernel ──region inference──▶
//!     annotated program ──region check──▶ ✓ ──lower + execute──▶ value + space stats
//! ```
//!
//! - [`diag`]: the shared structured-diagnostics subsystem (spans, error
//!   codes, caret snippets, JSON);
//! - [`frontend`]: Core-Java lexer, parser, class table, normal type system;
//! - [`regions`]: region variables, outlives/equality constraints, solver,
//!   constraint abstractions and their fixed-point analysis;
//! - [`infer`]: the paper's contribution — class/method region inference,
//!   three region-subtyping modes, region-polymorphic recursion, `letreg`
//!   localization, override conflict resolution, downcast safety;
//! - [`check`]: the separate region type checker (Theorem 1 oracle);
//! - [`downcast`]: the Sec 5 backward flow analysis;
//! - [`runtime`]: a lexically scoped region allocator and interpreter with
//!   space accounting;
//! - [`vm`]: `cj-vm`, the register IR and the one lowering pass from
//!   annotated programs straight to register code with resolved vtables
//!   and fused superinstructions, plus the bump-arena region heap the
//!   bytecode engine allocates in;
//! - [`rvm`]: the `cj-rvm` register machine, the default engine — it runs
//!   `cj-vm`'s register code with one `match` per dispatch,
//!   observationally identical to the interpreter but an integer factor
//!   faster;
//! - [`benchmarks`]: the Fig 8 and Fig 9 program suites;
//! - [`driver`]: the demand-driven, incrementally recompiling
//!   [`driver::Workspace`] (multi-file inputs, per-options artifacts over
//!   one kernel, the `Q` query API) and the JSON-lines compile server
//!   behind `cjrc serve`.
//!
//! ## Quick start — the `Workspace` driver
//!
//! ```
//! use region_inference::prelude::*;
//!
//! let source = "
//!     class Pair { Object fst; Object snd;
//!       void swap() {
//!         Object t = this.fst; this.fst = this.snd; this.snd = t;
//!       }
//!     }";
//! let mut ws = Workspace::new(SessionOptions::default());
//! ws.set_source("pair.cj", source)?;
//! let opts = InferOptions::default();
//! let compilation = ws.check(opts)?;
//! // `swap` mutates both fields, so its precondition forces the two field
//! // regions to coincide — exactly Fig 2(a)'s `where r2 = r3`.
//! println!("{}", ws.annotate(opts)?);
//! // Staged artifacts are cached: a second subtype mode reuses the same
//! // parsed and typechecked kernel.
//! ws.check(InferOptions::with_mode(SubtypeMode::Object))?;
//! assert_eq!(ws.pass_counts().typecheck, 1);
//! # let _ = compilation;
//! # Ok::<(), region_inference::diag::Diagnostics>(())
//! ```
//!
//! Failures at every stage are structured [`diag::Diagnostics`] — spans,
//! stable error codes, caret-snippet rendering, JSON — never
//! `Box<dyn Error>` or strings.
#![forbid(unsafe_code)]

pub use cj_benchmarks as benchmarks;
pub use cj_check as check;
pub use cj_diag as diag;
pub use cj_downcast as downcast;
pub use cj_driver as driver;
pub use cj_frontend as frontend;
pub use cj_infer as infer;
pub use cj_liveness as liveness;
pub use cj_regions as regions;
pub use cj_runtime as runtime;
pub use cj_rvm as rvm;
pub use cj_vm as vm;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::{annotate, compile, compile_and_run};
    pub use cj_check::check;
    pub use cj_diag::{Diagnostic, Diagnostics, Emitter, IntoDiagnostic, IntoDiagnostics};
    pub use cj_driver::{
        Compilation, CompileResult, PassCounts, Server, SessionOptions, Workspace,
    };
    pub use cj_infer::{
        infer_source, DowncastPolicy, ExtentMode, InferOptions, InferStats, RProgram, SubtypeMode,
    };
    pub use cj_runtime::{run_main, run_main_big_stack, Engine, Outcome, RunConfig, Value};
    pub use cj_vm::RvmProgram;
}

use cj_diag::Diagnostics;
use cj_driver::{SessionOptions, Workspace};
use cj_infer::{InferOptions, RProgram};
use cj_runtime::{Engine, Value};

/// A workspace holding `src` as its one file.
fn one_file(src: &str) -> Result<Workspace, Diagnostics> {
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("<input>", src)?;
    Ok(ws)
}

/// Parses, normal-typechecks, region-infers and region-checks a Core-Java
/// program.
///
/// This is the one-shot convenience over a one-file [`Workspace`]; use a
/// workspace directly to reuse staged artifacts across inference options.
///
/// # Errors
///
/// Structured diagnostics from any stage: front-end errors, inference
/// policy failures, or (indicating a bug — Theorem 1) checker violations.
pub fn compile(src: &str, opts: InferOptions) -> Result<RProgram, Diagnostics> {
    let mut ws = one_file(src)?;
    let compilation = ws.check(opts)?;
    // Dropping the workspace releases its cached Arc, making the unwrap
    // clone-free.
    drop(ws);
    match std::sync::Arc::try_unwrap(compilation) {
        Ok(compilation) => Ok(compilation.program),
        Err(arc) => Ok(arc.program.clone()),
    }
}

/// Renders the annotated program in the paper's notation.
pub fn annotate(p: &RProgram) -> String {
    cj_infer::pretty::program_to_string(p)
}

/// Compiles and immediately executes `main` with integer arguments.
///
/// # Errors
///
/// Compilation diagnostics or runtime faults, all structured.
///
/// # Examples
///
/// ```
/// use region_inference::{compile_and_run, infer::InferOptions};
///
/// let out = compile_and_run(
///     "class M { static int main(int n) { n * 2 } }",
///     InferOptions::default(),
///     &[21],
/// )?;
/// assert_eq!(out.value, region_inference::runtime::Value::Int(42));
/// # Ok::<(), region_inference::diag::Diagnostics>(())
/// ```
pub fn compile_and_run(
    src: &str,
    opts: InferOptions,
    args: &[i64],
) -> Result<cj_runtime::Outcome, Diagnostics> {
    let args: Vec<Value> = args.iter().map(|&v| Value::Int(v)).collect();
    one_file(src)?.run(opts, Engine::default(), &args)
}
