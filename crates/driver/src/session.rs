//! The staged [`Session`] driver — a single-file facade over
//! [`Workspace`].
//!
//! A session holds one source text and exposes the staged pipeline
//! `parse → typecheck → infer → check → run` with per-stage memoization.
//! All artifact caching and invalidation live in the
//! underlying workspace; `Session` adds the single-source conveniences
//! (one display name, a borrowed [`Emitter`], integer `main` arguments).

use crate::workspace::{PassCounts, Workspace};
use cj_diag::{codes, Diagnostic, Diagnostics, Emitter, SourceMap, Span};
use cj_frontend::ast;
use cj_frontend::KProgram;
use cj_infer::{InferOptions, InferStats, RProgram};
use cj_runtime::{Outcome, RunConfig, Value};
use std::path::Path;
use std::sync::Arc;

/// Result type of every driver stage: success, or a batch of structured
/// diagnostics. No `Box<dyn Error>`, no strings.
pub type CompileResult<T> = Result<T, Diagnostics>;

/// The file name a [`Session`]'s source occupies inside its workspace.
const SESSION_FILE: &str = "<input>";

/// Configuration for a [`Session`] or [`Workspace`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Region-inference options used by the option-less staged methods
    /// ([`Session::infer`], [`Session::check`], [`Session::run`]).
    pub infer: InferOptions,
    /// Execution configuration for [`Session::run`].
    pub run: RunConfig,
}

impl SessionOptions {
    /// Options with the given inference configuration and default runtime
    /// configuration.
    pub fn with_infer(infer: InferOptions) -> SessionOptions {
        SessionOptions {
            infer,
            ..SessionOptions::default()
        }
    }
}

/// The product of region inference: the annotated program plus the
/// statistics the Fig 8/9 harnesses report.
#[derive(Debug, Clone)]
pub struct Compilation {
    /// The region-annotated program.
    pub program: RProgram,
    /// Inference statistics.
    pub stats: InferStats,
}

/// A compiler driver holding one source text and every artifact derived
/// from it.
///
/// The pipeline `parse → typecheck → infer → check → run` is exposed as
/// staged methods; each stage memoizes its artifact, so repeated calls —
/// and later stages — reuse earlier work. Inference artifacts are cached
/// *per [`InferOptions`]*, sharing the single parsed and typechecked
/// kernel: ablating the three `SubtypeMode`s runs the front end once, not
/// three times.
///
/// # Examples
///
/// ```
/// use cj_driver::{Session, SessionOptions};
/// use cj_infer::{InferOptions, SubtypeMode};
///
/// let mut session = Session::new(
///     "class Cell { Object item; Object get() { this.item } }",
///     SessionOptions::default(),
/// );
/// for mode in SubtypeMode::ALL {
///     session.check_with(InferOptions::with_mode(mode)).unwrap();
/// }
/// // One front-end pass serves all three modes.
/// assert_eq!(session.pass_counts().typecheck, 1);
/// assert_eq!(session.pass_counts().infer, 3);
/// ```
#[derive(Debug)]
pub struct Session {
    name: String,
    ws: Workspace,
    map: SourceMap,
    /// Set when the source was rejected at ingestion (oversized); surfaced
    /// by the first staged call.
    ingest_error: Option<Diagnostics>,
}

impl Session {
    /// A session over `source` with the given options. The source is
    /// displayed as `<input>` in rendered diagnostics; see
    /// [`with_name`](Session::with_name).
    pub fn new(source: impl Into<String>, opts: SessionOptions) -> Session {
        let source = source.into();
        let map = SourceMap::new(&source);
        let mut ws = Workspace::new(opts);
        let ingest_error = ws.set_source(SESSION_FILE, source).err();
        Session {
            name: SESSION_FILE.to_string(),
            ws,
            map,
            ingest_error,
        }
    }

    /// Reads `path` and builds a session named after it.
    ///
    /// # Errors
    ///
    /// An [`codes::IO`] diagnostic when the file cannot be read.
    pub fn from_file(path: impl AsRef<Path>, opts: SessionOptions) -> CompileResult<Session> {
        let path = path.as_ref();
        let source = std::fs::read_to_string(path).map_err(|e| {
            Diagnostics::from_one(
                Diagnostic::error(format!("cannot read {}: {e}", path.display()), Span::DUMMY)
                    .with_code(codes::IO),
            )
        })?;
        Ok(Session::new(source, opts).with_name(path.display().to_string()))
    }

    /// Sets the display name used in rendered diagnostics.
    pub fn with_name(mut self, name: impl Into<String>) -> Session {
        self.name = name.into();
        self
    }

    /// The source text.
    pub fn source(&self) -> &str {
        self.ws.source(SESSION_FILE).unwrap_or("")
    }

    /// The display name of the source.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The session options.
    pub fn options(&self) -> &SessionOptions {
        self.ws.options()
    }

    /// The line index of the source.
    pub fn source_map(&self) -> &SourceMap {
        &self.map
    }

    /// How many times each stage has actually executed so far.
    pub fn pass_counts(&self) -> PassCounts {
        self.ws.pass_counts()
    }

    /// An emitter that renders diagnostics against this session's source.
    pub fn emitter(&self) -> Emitter<'_> {
        Emitter::new(&self.name, self.source())
    }

    fn ingest_ok(&self) -> CompileResult<()> {
        match &self.ingest_error {
            Some(diags) => Err(diags.clone()),
            None => Ok(()),
        }
    }

    // ---- staged pipeline -------------------------------------------------

    /// Stage 1: parses the source (cached).
    ///
    /// # Errors
    ///
    /// Lexical ([`codes::LEX`]) and syntactic ([`codes::PARSE`])
    /// diagnostics.
    pub fn parse(&mut self) -> CompileResult<Arc<ast::Program>> {
        self.ingest_ok()?;
        self.ws.merged_ast()
    }

    /// Stage 2: normal-typechecks and lowers to kernel form (cached).
    ///
    /// # Errors
    ///
    /// Parse diagnostics, or type errors ([`codes::TYPECHECK`]).
    pub fn typecheck(&mut self) -> CompileResult<Arc<KProgram>> {
        self.ingest_ok()?;
        self.ws.typecheck()
    }

    /// Stage 3: region inference under the session's options (cached).
    ///
    /// # Errors
    ///
    /// Front-end diagnostics or inference failures ([`codes::INFER`]).
    pub fn infer(&mut self) -> CompileResult<Arc<Compilation>> {
        self.infer_with(self.ws.options().infer)
    }

    /// Stage 3, parameterized: region inference under `opts`.
    ///
    /// Artifacts are cached per [`InferOptions`]; every variant shares the
    /// one parsed and typechecked kernel.
    ///
    /// # Errors
    ///
    /// Front-end diagnostics or inference failures ([`codes::INFER`]).
    pub fn infer_with(&mut self, opts: InferOptions) -> CompileResult<Arc<Compilation>> {
        self.ingest_ok()?;
        self.ws.infer_with(opts)
    }

    /// Stage 4: region-checks the inferred program (cached), returning it.
    ///
    /// # Errors
    ///
    /// Any earlier-stage diagnostics, or checker violations
    /// ([`codes::REGION_CHECK`] — a Theorem 1 breach, i.e. an inference
    /// bug).
    pub fn check(&mut self) -> CompileResult<Arc<Compilation>> {
        self.check_with(self.ws.options().infer)
    }

    /// Stage 4, parameterized: region-checks under `opts`.
    ///
    /// # Errors
    ///
    /// Any earlier-stage diagnostics, or checker violations.
    pub fn check_with(&mut self, opts: InferOptions) -> CompileResult<Arc<Compilation>> {
        self.ingest_ok()?;
        self.ws.check_with(opts)
    }

    /// Lowers the program to register bytecode under the session's
    /// options (cached; see [`Workspace::compiled_with`]).
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics.
    pub fn compiled(&mut self) -> CompileResult<Arc<cj_vm::RvmProgram>> {
        self.compiled_with(self.ws.options().infer)
    }

    /// [`compiled`](Session::compiled) under explicit inference options.
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics.
    pub fn compiled_with(&mut self, opts: InferOptions) -> CompileResult<Arc<cj_vm::RvmProgram>> {
        self.ingest_ok()?;
        self.ws.compiled_with(opts)
    }

    /// Stage 5: compiles (through [`check`](Session::check)) and executes
    /// `main` with integer arguments on the configured engine (the
    /// register VM by default).
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics, or a runtime fault
    /// ([`codes::RUNTIME`]).
    pub fn run(&mut self, args: &[i64]) -> CompileResult<Outcome> {
        let values: Vec<Value> = args.iter().map(|&v| Value::Int(v)).collect();
        self.run_values(&values)
    }

    /// Stage 5 with explicit runtime [`Value`]s.
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics, or a runtime fault.
    pub fn run_values(&mut self, args: &[Value]) -> CompileResult<Outcome> {
        self.ingest_ok()?;
        self.ws.run_values(args)
    }

    /// Stage 5 under explicit inference options (engine and limits come
    /// from the session's [`RunConfig`]).
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics, or a runtime fault.
    pub fn run_values_with(
        &mut self,
        opts: InferOptions,
        args: &[Value],
    ) -> CompileResult<Outcome> {
        self.ingest_ok()?;
        self.ws.run_values_with(opts, args)
    }

    // ---- derived reports -------------------------------------------------

    /// Renders the inferred program in the paper's annotation syntax.
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics.
    pub fn annotate(&mut self) -> CompileResult<String> {
        self.ingest_ok()?;
        self.ws.annotate()
    }

    /// Runs the Sec 5 backward flow analysis on the typechecked kernel.
    ///
    /// # Errors
    ///
    /// Front-end diagnostics.
    pub fn downcast_analysis(&mut self) -> CompileResult<cj_downcast::DowncastAnalysis> {
        self.ingest_ok()?;
        self.ws.downcast_analysis()
    }
}
