//! The multi-file, demand-driven [`Workspace`] driver — the one driver
//! type of the pipeline `parse → typecheck → infer → check → run`.
//!
//! A workspace holds *named source files* and derives every compiler
//! artifact — per-file ASTs, the merged program, the typechecked kernel,
//! per-[`InferOptions`] compilations — as memoized queries with
//! fine-grained invalidation:
//!
//! - editing one file re-parses **only that file** (per-file ASTs are
//!   cached by content; every file owns a fixed slice of the workspace
//!   span space, so other files' spans never move);
//! - every revision re-infers, re-lowers and re-checks policy from the
//!   fresh kernel, so its output is bit-identical to a from-scratch
//!   compile; no inference state outlives a revision;
//! - the closed constraint-abstraction environment `Q` is queryable
//!   ([`q`](Workspace::q), [`precondition`](Workspace::precondition),
//!   [`invariant`](Workspace::invariant), [`entails`](Workspace::entails))
//!   without re-running inference.
//!
//! Every stage past typecheck takes its [`InferOptions`] explicitly and
//! caches its artifact per options value, all of them sharing the one
//! kernel. A single-file program is a workspace with one file; the
//! `cjrc` commands, the library facade and the `cjrc serve` compile server
//! ([`crate::server`]) all drive this type.
//!
//! # Examples
//!
//! ```
//! use cj_driver::{SessionOptions, Workspace};
//! use cj_infer::InferOptions;
//!
//! let opts = InferOptions::default();
//! let mut ws = Workspace::new(SessionOptions::default());
//! ws.set_source("cell.cj", "class Cell { Object item; Object get() { this.item } }")
//!     .unwrap();
//! ws.set_source("use.cj", "class M { static Object f(Cell c) { c.get() } }")
//!     .unwrap();
//! ws.check(opts).unwrap();
//! let first = ws.pass_counts();
//! assert_eq!(first.parse, 2);
//!
//! // Editing one method body re-parses only that file, and re-infers
//! // both bodies.
//! ws.set_source("use.cj", "class M { static Object f(Cell c) { c.get(); c.get() } }")
//!     .unwrap();
//! ws.check(opts).unwrap();
//! let second = ws.pass_counts().since(first);
//! assert_eq!(second.parse, 1);
//! assert_eq!(second.methods_inferred, 2);
//! ```

use cj_diag::{codes, Diagnostic, Diagnostics, Emitter, IntoDiagnostics, Span};
use cj_frontend::ast;
use cj_frontend::KProgram;
use cj_infer::{ExtentMode, InferOptions, InferStats, RProgram};
use cj_policy::PolicySet;
use cj_regions::abstraction::ConstraintAbs;
use cj_regions::constraint::Atom;
use cj_regions::solve::Solver;
use cj_regions::var::RegVar;
use cj_runtime::{Engine, Outcome, RunConfig, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// Result type of every driver stage: success, or a batch of structured
/// diagnostics. No `Box<dyn Error>`, no strings.
pub type CompileResult<T> = Result<T, Diagnostics>;

/// Configuration for a [`Workspace`] (and the `cjrc serve` server over
/// one).
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// The default region-inference options: what the server uses for a
    /// request that names none.
    pub infer: InferOptions,
    /// Execution limits for [`Workspace::run`], and the engine a request
    /// that names none runs on.
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

/// Size of each file's slice of the workspace span space. Spans of file
/// *k* (in insertion order) live in `[k·STRIDE, (k+1)·STRIDE)`, so an edit
/// to one file never moves another file's spans.
pub const FILE_SPAN_STRIDE: u32 = 1 << 20;

/// Maximum number of files a workspace can ever hold (span space / stride).
pub const MAX_FILES: u32 = u32::MAX / FILE_SPAN_STRIDE;

/// How many times each pipeline stage actually executed, including the
/// incremental-inference counters. Monotone; diff two snapshots with
/// [`since`](PassCounts::since) to see what one request cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Per-file parser executions.
    pub parse: u32,
    /// Whole-program normal-typecheck executions.
    pub typecheck: u32,
    /// Region-inference pipeline executions (one per distinct
    /// [`InferOptions`] per revision).
    pub infer: u32,
    /// Region-checker executions.
    pub check: u32,
    /// Program executions (either engine).
    pub run: u32,
    /// Register-code lowering passes (one per distinct [`InferOptions`]
    /// per revision that executed on the rvm engine).
    pub lower: u32,
    /// `letreg` bindings narrowed or dropped by the liveness extent pass
    /// (0 under the paper's block-scoped placement).
    pub extent_rewrites: u32,
    /// Method bodies symbolically inferred.
    pub methods_inferred: u32,
    /// Abstraction SCC fixpoints actually run.
    pub sccs_solved: u32,
    /// Policy rule × method evaluations actually executed (a replay of
    /// the revision's cached outcome doesn't count).
    pub rules_checked: u32,
    /// Policy violations discovered by executed evaluations.
    pub policy_violations: u32,
}

impl PassCounts {
    /// Field-wise difference `self - earlier` (both snapshots of the same
    /// monotone counter set).
    pub fn since(self, earlier: PassCounts) -> PassCounts {
        PassCounts {
            parse: self.parse - earlier.parse,
            typecheck: self.typecheck - earlier.typecheck,
            infer: self.infer - earlier.infer,
            check: self.check - earlier.check,
            run: self.run - earlier.run,
            lower: self.lower - earlier.lower,
            extent_rewrites: self.extent_rewrites - earlier.extent_rewrites,
            methods_inferred: self.methods_inferred - earlier.methods_inferred,
            sccs_solved: self.sccs_solved - earlier.sccs_solved,
            rules_checked: self.rules_checked - earlier.rules_checked,
            policy_violations: self.policy_violations - earlier.policy_violations,
        }
    }

    /// Every counter with its stable key, in the `passes_executed` order.
    pub fn fields(&self) -> [(&'static str, u32); 11] {
        [
            ("parse", self.parse),
            ("typecheck", self.typecheck),
            ("infer", self.infer),
            ("check", self.check),
            ("run", self.run),
            ("lower", self.lower),
            ("methods_inferred", self.methods_inferred),
            ("sccs_solved", self.sccs_solved),
            ("extent_rewrites", self.extent_rewrites),
            ("rules_checked", self.rules_checked),
            ("policy_violations", self.policy_violations),
        ]
    }

    /// The JSON object of [`fields`](PassCounts::fields) — the
    /// `passes_executed` and `passes_total` members of serve responses.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(400);
        for (i, (key, value)) in self.fields().into_iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            let _ = write!(out, "\"{key}\":{value}");
        }
        out.push('}');
        out
    }
}

#[derive(Debug)]
struct SourceFile {
    text: String,
    slot: u32,
    /// Workspace revision at which the text last changed.
    revision: u64,
    /// Cached parse outcome, spans already shifted into this file's slice.
    parsed: Option<CompileResult<Arc<ast::Program>>>,
}

impl SourceFile {
    fn base(&self) -> u32 {
        self.slot * FILE_SPAN_STRIDE
    }
}

/// Per-[`InferOptions`] artifacts of the current revision; all of them
/// are dropped by the next edit.
#[derive(Debug, Default)]
struct InferState {
    compilation: Option<Arc<Compilation>>,
    checked: bool,
    /// The register program, if it was lowered.
    compiled: Option<Arc<cj_vm::RvmProgram>>,
    /// The policy outcome of the rule set it was checked against.
    policy: Option<(Arc<PolicySet>, Arc<PolicyOutcome>)>,
}

/// The result of checking one policy set against one compiled revision.
#[derive(Debug, Clone, Default)]
pub struct PolicyOutcome {
    /// One diagnostic per finding: rule-file errors ([`codes::POLICY`])
    /// first, then program violations (`E0711`–`E0713`) carrying a
    /// "rule declared here" secondary label.
    pub diagnostics: Diagnostics,
    /// Program violations found (rule-file errors excluded).
    pub violations: u32,
    /// Rules that failed to resolve against the program.
    pub rule_errors: u32,
}

impl PolicyOutcome {
    /// Whether the program satisfies the policy (no findings of any kind).
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// A demand-driven, incrementally recompiled set of named sources. See the
/// module docs.
#[derive(Debug)]
pub struct Workspace {
    opts: SessionOptions,
    files: BTreeMap<String, SourceFile>,
    /// Non-program texts (policy files) that still own a span slot so
    /// their diagnostics render with carets; never merged or parsed.
    meta_files: BTreeMap<String, SourceFile>,
    /// The loaded policy rule set, spans pre-shifted into its meta file's
    /// slice.
    policy: Option<Arc<PolicySet>>,
    next_slot: u32,
    revision: u64,
    merged: Option<Arc<ast::Program>>,
    kernel: Option<Arc<KProgram>>,
    states: HashMap<InferOptions, InferState>,
    counts: PassCounts,
}

impl Workspace {
    /// An empty workspace.
    pub fn new(opts: SessionOptions) -> Workspace {
        Workspace {
            opts,
            files: BTreeMap::new(),
            meta_files: BTreeMap::new(),
            policy: None,
            next_slot: 0,
            revision: 0,
            merged: None,
            kernel: None,
            states: HashMap::new(),
            counts: PassCounts::default(),
        }
    }

    /// The workspace options.
    pub fn options(&self) -> &SessionOptions {
        &self.opts
    }

    /// The current revision; bumped by every successful
    /// [`set_source`](Workspace::set_source) /
    /// [`remove_source`](Workspace::remove_source) that changes anything.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// How many times each stage has actually executed so far.
    pub fn pass_counts(&self) -> PassCounts {
        self.counts
    }

    /// The file names, in merge (lexicographic) order.
    pub fn file_names(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }

    /// The text of a file, if present (program sources and loaded policy
    /// files alike).
    pub fn source(&self, name: &str) -> Option<&str> {
        self.files
            .get(name)
            .or_else(|| self.meta_files.get(name))
            .map(|f| f.text.as_str())
    }

    /// Adds or replaces a source file. A no-op (returning the unchanged
    /// revision) when the text is identical; otherwise every derived
    /// artifact except the other files' parses is dropped.
    ///
    /// # Errors
    ///
    /// A [`codes::IO`] diagnostic when the file exceeds the per-file span
    /// budget ([`FILE_SPAN_STRIDE`]) or the workspace is full
    /// ([`MAX_FILES`]).
    pub fn set_source(
        &mut self,
        name: impl Into<String>,
        text: impl Into<String>,
    ) -> CompileResult<u64> {
        let name = name.into();
        let text = text.into();
        if text.len() as u64 >= FILE_SPAN_STRIDE as u64 {
            return Err(Diagnostics::from_one(
                Diagnostic::error(
                    format!(
                        "file `{name}` is {} bytes; workspace files are limited to {} bytes",
                        text.len(),
                        FILE_SPAN_STRIDE - 1
                    ),
                    Span::DUMMY,
                )
                .with_code(codes::IO),
            ));
        }
        match self.files.get_mut(&name) {
            Some(file) => {
                if file.text == text {
                    return Ok(self.revision);
                }
                self.revision += 1;
                file.text = text;
                file.revision = self.revision;
                file.parsed = None;
            }
            None => {
                if self.next_slot >= MAX_FILES {
                    return Err(Diagnostics::from_one(
                        Diagnostic::error(
                            format!("workspace is full ({MAX_FILES} files)"),
                            Span::DUMMY,
                        )
                        .with_code(codes::IO),
                    ));
                }
                let slot = self.next_slot;
                self.next_slot += 1;
                self.revision += 1;
                self.files.insert(
                    name,
                    SourceFile {
                        text,
                        slot,
                        revision: self.revision,
                        parsed: None,
                    },
                );
            }
        }
        self.invalidate_program();
        Ok(self.revision)
    }

    /// Removes a file; returns the new revision, or `None` when the file
    /// was not present. The file's span slot is retired, not recycled.
    pub fn remove_source(&mut self, name: &str) -> Option<u64> {
        self.files.remove(name)?;
        self.revision += 1;
        self.invalidate_program();
        Some(self.revision)
    }

    fn invalidate_program(&mut self) {
        self.merged = None;
        self.kernel = None;
        self.states.clear();
    }

    /// The per-options state of the current revision, created on first
    /// use.
    fn state_mut(&mut self, opts: InferOptions) -> &mut InferState {
        self.states.entry(opts).or_default()
    }

    // ---- staged, memoized queries ---------------------------------------

    /// Parses one file (cached per revision). Spans in the returned AST —
    /// and in any diagnostics — are global workspace spans.
    ///
    /// # Errors
    ///
    /// Lexical/syntactic diagnostics, or an unknown-file diagnostic.
    pub fn parse_file(&mut self, name: &str) -> CompileResult<Arc<ast::Program>> {
        let Some(file) = self.files.get(name) else {
            return Err(Diagnostics::from_one(
                Diagnostic::error(format!("no file `{name}` in the workspace"), Span::DUMMY)
                    .with_code(codes::IO),
            ));
        };
        if let Some(res) = &file.parsed {
            return res.clone();
        }
        let base = file.base();
        self.counts.parse += 1;
        let _span = cj_trace::span("pipeline", "parse");
        let res = match cj_frontend::parser::parse_program(&file.text) {
            Ok(mut program) => {
                ast::shift_spans(&mut program, base);
                Ok(Arc::new(program))
            }
            Err(diags) => Err(shift_diagnostics(diags, base)),
        };
        self.files.get_mut(name).expect("file present").parsed = Some(res.clone());
        res
    }

    /// The merged program: every file's classes, files in name order
    /// (cached).
    ///
    /// # Errors
    ///
    /// The combined parse diagnostics of every ill-formed file.
    pub fn merged_ast(&mut self) -> CompileResult<Arc<ast::Program>> {
        if let Some(m) = &self.merged {
            return Ok(Arc::clone(m));
        }
        let names: Vec<String> = self.files.keys().cloned().collect();
        let mut errors = Diagnostics::new();
        let mut classes = Vec::new();
        for name in &names {
            match self.parse_file(name) {
                Ok(program) => classes.extend(program.classes.iter().cloned()),
                Err(diags) => errors.extend(diags),
            }
        }
        if errors.has_errors() {
            return Err(errors);
        }
        let merged = Arc::new(ast::Program { classes });
        self.merged = Some(Arc::clone(&merged));
        Ok(merged)
    }

    /// Normal-typechecks the merged program and lowers it to kernel form
    /// (cached).
    ///
    /// # Errors
    ///
    /// Parse or type diagnostics.
    pub fn typecheck(&mut self) -> CompileResult<Arc<KProgram>> {
        if let Some(k) = &self.kernel {
            return Ok(Arc::clone(k));
        }
        let merged = self.merged_ast()?;
        self.counts.typecheck += 1;
        let _span = cj_trace::span("pipeline", "typecheck");
        let kernel = cj_frontend::typecheck::check(&merged)?;
        let kernel = Arc::new(kernel);
        self.kernel = Some(Arc::clone(&kernel));
        Ok(kernel)
    }

    /// Region inference under `opts` (cached per options and revision;
    /// every options value shares the one kernel).
    ///
    /// # Errors
    ///
    /// Front-end diagnostics or inference failures.
    pub fn infer(&mut self, opts: InferOptions) -> CompileResult<Arc<Compilation>> {
        if let Some(c) = self
            .states
            .get(&opts)
            .and_then(|state| state.compilation.clone())
        {
            return Ok(c);
        }
        let kernel = self.typecheck()?;
        self.counts.infer += 1;
        let mut span = cj_trace::span("pipeline", "infer");
        let (mut program, stats) =
            cj_infer::infer(&kernel, opts).map_err(IntoDiagnostics::into_diagnostics)?;
        // Extent tightening runs after the paper pipeline, before anything
        // downstream (checker, lowering, both engines) sees the program.
        if opts.extent == ExtentMode::Liveness {
            let extent_stats = cj_liveness::tighten(&mut program);
            self.counts.extent_rewrites += (extent_stats.narrowed + extent_stats.dropped) as u32;
        }
        let compilation = Arc::new(Compilation { program, stats });
        self.state_mut(opts).compilation = Some(Arc::clone(&compilation));
        let stats = &compilation.stats;
        self.counts.methods_inferred += stats.methods_inferred as u32;
        self.counts.sccs_solved += stats.sccs_solved as u32;
        span.add("methods_inferred", stats.methods_inferred as u64);
        span.add("regions_created", stats.regions_created as u64);
        Ok(compilation)
    }

    /// The cached compilation for `opts` at the current revision, if one
    /// exists — a pure read that never triggers compilation.
    pub fn cached_compilation(&self, opts: InferOptions) -> Option<Arc<Compilation>> {
        self.states.get(&opts)?.compilation.clone()
    }

    /// Region-checks the program inferred under `opts` (cached), returning
    /// it.
    ///
    /// # Errors
    ///
    /// Any earlier-stage diagnostics, or checker violations (a Theorem 1
    /// breach, i.e. an inference bug).
    pub fn check(&mut self, opts: InferOptions) -> CompileResult<Arc<Compilation>> {
        let compilation = self.infer(opts)?;
        if !self.state_mut(opts).checked {
            self.counts.check += 1;
            let _span = cj_trace::span("pipeline", "check");
            cj_check::check(&compilation.program).map_err(IntoDiagnostics::into_diagnostics)?;
            self.state_mut(opts).checked = true;
        }
        Ok(compilation)
    }

    /// Lowers the program inferred under `opts` to register code (cached
    /// per options and revision).
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics.
    pub fn compiled(&mut self, opts: InferOptions) -> CompileResult<Arc<cj_vm::RvmProgram>> {
        if let Some(r) = self.states.get(&opts).and_then(|s| s.compiled.clone()) {
            return Ok(r);
        }
        let compilation = self.infer(opts)?;
        let reg = Arc::new(cj_vm::lower_program(&compilation.program));
        self.state_mut(opts).compiled = Some(Arc::clone(&reg));
        self.counts.lower += 1;
        Ok(reg)
    }

    /// Compiles under `opts` (through [`check`](Workspace::check)) and
    /// executes `main` on `engine`, within the workspace's [`RunConfig`]
    /// limits (the interpreter runs on a big-stack worker thread).
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics, or a runtime fault.
    pub fn run(
        &mut self,
        opts: InferOptions,
        engine: Engine,
        args: &[Value],
    ) -> CompileResult<Outcome> {
        let run_config = self.opts.run;
        let compilation = self.check(opts)?;
        match engine {
            Engine::Rvm => {
                let reg = self.compiled(opts)?;
                self.counts.run += 1;
                cj_rvm::run_main(&reg, args, run_config).map_err(IntoDiagnostics::into_diagnostics)
            }
            Engine::Interp => {
                self.counts.run += 1;
                let _span = cj_trace::span("pipeline", "interp-exec");
                cj_runtime::run_main_big_stack(&compilation.program, args, run_config)
                    .map_err(IntoDiagnostics::into_diagnostics)
            }
        }
    }

    /// Renders the program inferred under `opts` in the paper's
    /// annotation syntax.
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics.
    pub fn annotate(&mut self, opts: InferOptions) -> CompileResult<String> {
        let compilation = self.infer(opts)?;
        Ok(cj_infer::pretty::program_to_string(&compilation.program))
    }

    /// Runs the Sec 5 backward flow analysis on the typechecked kernel.
    ///
    /// # Errors
    ///
    /// Front-end diagnostics.
    pub fn downcast_analysis(&mut self) -> CompileResult<cj_downcast::DowncastAnalysis> {
        let kernel = self.typecheck()?;
        Ok(cj_downcast::analyze(&kernel))
    }

    // ---- the policy engine ----------------------------------------------

    /// Loads (or replaces) the workspace's policy rule set from `text`,
    /// registering `name` as a *meta file* so policy diagnostics render
    /// with carets into it. Loading a policy never bumps the revision or
    /// invalidates compiled artifacts — rules are checked against the
    /// program, they are not part of it.
    ///
    /// # Errors
    ///
    /// [`codes::POLICY`] diagnostics for malformed rules (spans point into
    /// `name`), or a [`codes::IO`] diagnostic when the text exceeds the
    /// per-file span budget or the workspace is full.
    pub fn set_policy(
        &mut self,
        name: impl Into<String>,
        text: impl Into<String>,
    ) -> CompileResult<Arc<PolicySet>> {
        let name = name.into();
        let text = text.into();
        if text.len() as u64 >= FILE_SPAN_STRIDE as u64 {
            return Err(Diagnostics::from_one(
                Diagnostic::error(
                    format!(
                        "policy `{name}` is {} bytes; workspace files are limited to {} bytes",
                        text.len(),
                        FILE_SPAN_STRIDE - 1
                    ),
                    Span::DUMMY,
                )
                .with_code(codes::IO),
            ));
        }
        let base = match self.meta_files.get_mut(&name) {
            Some(file) => {
                file.text = text.clone();
                file.base()
            }
            None => {
                if self.next_slot >= MAX_FILES {
                    return Err(Diagnostics::from_one(
                        Diagnostic::error(
                            format!("workspace is full ({MAX_FILES} files)"),
                            Span::DUMMY,
                        )
                        .with_code(codes::IO),
                    ));
                }
                let slot = self.next_slot;
                self.next_slot += 1;
                self.meta_files.insert(
                    name.clone(),
                    SourceFile {
                        text: text.clone(),
                        slot,
                        revision: self.revision,
                        parsed: None,
                    },
                );
                slot * FILE_SPAN_STRIDE
            }
        };
        let mut set =
            PolicySet::parse(&name, &text).map_err(|diags| shift_diagnostics(diags, base))?;
        set.shift_spans(base);
        let set = Arc::new(set);
        self.policy = Some(Arc::clone(&set));
        Ok(set)
    }

    /// The loaded policy rule set, if any.
    pub fn policy(&self) -> Option<Arc<PolicySet>> {
        self.policy.clone()
    }

    /// Checks the loaded policy against the program compiled under `opts`.
    /// The outcome is cached for the current revision and the loaded set's
    /// name and source; a replay bumps no counters.
    ///
    /// # Errors
    ///
    /// Compilation diagnostics, or a [`codes::POLICY`] diagnostic when no
    /// policy is loaded. Violations are **not** errors — they are the
    /// returned outcome's diagnostics.
    pub fn check_policy(&mut self, opts: InferOptions) -> CompileResult<Arc<PolicyOutcome>> {
        let Some(set) = self.policy.clone() else {
            return Err(Diagnostics::from_one(
                Diagnostic::error("no policy loaded in this workspace", Span::DUMMY)
                    .with_code(codes::POLICY),
            ));
        };
        let compilation = self.infer(opts)?;
        // Key on the full source: a layout-only change moves the spans of
        // the "rule declared here" labels.
        if let Some((checked, outcome)) = &self.state_mut(opts).policy {
            if checked.name == set.name && checked.source == set.source {
                return Ok(Arc::clone(outcome));
            }
        }
        let report = cj_policy::check(&compilation.program, &set);
        self.counts.rules_checked += report.rules_checked;
        let mut outcome = PolicyOutcome::default();
        for v in &report.violations {
            let mut d = Diagnostic::error(v.message.clone(), v.span).with_code(v.code);
            if v.in_policy {
                outcome.rule_errors += 1;
            } else {
                outcome.violations += 1;
                let rule = &set.rules[v.rule];
                d = d.with_label(rule.span, format!("rule `{}` declared here", rule.text));
            }
            for note in &v.notes {
                d = d.with_note(note.clone());
            }
            outcome.diagnostics.push(d);
        }
        self.counts.policy_violations += outcome.violations;
        let outcome = Arc::new(outcome);
        self.state_mut(opts).policy = Some((set, Arc::clone(&outcome)));
        Ok(outcome)
    }

    // ---- the `Q` query API ----------------------------------------------

    /// The closed constraint abstraction named `name` (`inv.cn`,
    /// `pre.cn.mn`, or `pre.mn` for statics) of the program inferred under
    /// `opts`, answered from cached solver state. `None` when no such
    /// abstraction exists.
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics (inference runs on demand if needed).
    pub fn q(&mut self, opts: InferOptions, name: &str) -> CompileResult<Option<ConstraintAbs>> {
        let q = &self.infer(opts)?.program.q;
        Ok(q.find(name).map(|id| q.get(id).clone()))
    }

    /// The solved precondition of a method: `class = Some(cn)` looks up
    /// `pre.cn.mn`, `None` the static `pre.mn`.
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics.
    pub fn precondition(
        &mut self,
        opts: InferOptions,
        class: Option<&str>,
        method: &str,
    ) -> CompileResult<Option<ConstraintAbs>> {
        self.q(opts, &cj_infer::precondition_name(class, method))
    }

    /// The solved invariant `inv.cn` of a class.
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics.
    pub fn invariant(
        &mut self,
        opts: InferOptions,
        class: &str,
    ) -> CompileResult<Option<ConstraintAbs>> {
        self.q(opts, &cj_infer::invariant_name(class))
    }

    /// Whether the closed abstraction `name` entails `atom`, written over
    /// the abstraction's **positional** parameters: `r1` is the first
    /// formal parameter, `heap` the global heap — e.g. `"r2>=r1"` or
    /// `"r2=r3"`. Returns `None` when the abstraction does not exist.
    ///
    /// # Errors
    ///
    /// Compilation diagnostics, or a [`codes::CLI`] diagnostic for a
    /// malformed atom.
    pub fn entails(
        &mut self,
        opts: InferOptions,
        name: &str,
        atom: &str,
    ) -> CompileResult<Option<bool>> {
        let Some(abs) = self.q(opts, name)? else {
            return Ok(None);
        };
        let parsed = parse_positional_atom(atom, &abs.params).map_err(|msg| {
            Diagnostics::from_one(Diagnostic::error(msg, Span::DUMMY).with_code(codes::CLI))
        })?;
        let mut solver = Solver::from_set(&abs.body.atoms);
        Ok(Some(solver.entails_atom(parsed)))
    }

    // ---- diagnostics rendering ------------------------------------------

    /// The file owning a global span, with the span rebased to file-local
    /// coordinates.
    pub fn locate(&self, span: Span) -> Option<(&str, Span)> {
        if span.is_dummy() {
            return None;
        }
        let slot = span.lo / FILE_SPAN_STRIDE;
        self.files
            .iter()
            .chain(self.meta_files.iter())
            .find_map(|(name, f)| {
                (f.slot == slot).then(|| {
                    let base = f.base();
                    (name.as_str(), Span::new(span.lo - base, span.hi - base))
                })
            })
    }

    /// Renders diagnostics as caret snippets against their owning files,
    /// at most [`cj_diag::MAX_DIAGNOSTICS_PER_FILE`] per file. Labels in
    /// other files are appended as location notes; an unlocated
    /// diagnostic renders at `--> <workspace>`.
    pub fn render(&self, diags: &Diagnostics) -> String {
        let mut emitters = Emitters::new(self);
        let mut out = String::new();
        for (i, d) in self.capped(diags).iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&self.render_one(d, &mut emitters));
        }
        out
    }

    fn render_one<'w>(&'w self, d: &Diagnostic, emitters: &mut Emitters<'w>) -> String {
        let Some((file, local)) = self.locate(d.span) else {
            // No location: render against an empty pseudo-file.
            let emitter = Emitter::new("<workspace>", "");
            return emitter.render(d);
        };
        let mut local_d = d.clone();
        local_d.span = local;
        local_d.labels.clear();
        let mut foreign_notes = Vec::new();
        for label in &d.labels {
            match self.locate(label.span) {
                Some((lf, ls)) if lf == file => {
                    local_d.labels.push(cj_diag::Label {
                        span: ls,
                        message: label.message.clone(),
                    });
                }
                Some((lf, ls)) => {
                    let (line, col) = emitters.get(lf).line_col(ls.lo);
                    foreign_notes.push(format!("{} ({lf}:{line}:{col})", label.message));
                }
                None => foreign_notes.push(label.message.clone()),
            }
        }
        local_d.notes.extend(foreign_notes);
        emitters.get(file).render(&local_d)
    }

    /// Renders diagnostics as a one-line JSON array, capped per file like
    /// [`render`](Workspace::render); every span is file-local and tagged
    /// with its file name, or `null` when unlocated.
    pub fn render_json(&self, diags: &Diagnostics) -> String {
        let mut emitters = Emitters::new(self);
        let mut out = String::from("[");
        for (i, d) in self.capped(diags).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&self.render_json_one(d, &mut emitters));
        }
        out.push(']');
        out
    }

    /// The per-file cut every rendering shows ([`Diagnostics::capped`]),
    /// files told apart by their span slot.
    fn capped<'d>(&self, diags: &'d Diagnostics) -> std::borrow::Cow<'d, Diagnostics> {
        diags.capped(|span| {
            if span.is_dummy() {
                u32::MAX
            } else {
                span.lo / FILE_SPAN_STRIDE
            }
        })
    }

    fn render_json_one<'w>(&'w self, d: &Diagnostic, emitters: &mut Emitters<'w>) -> String {
        // Diagnostics may cross files, so every span is tagged with its
        // owner.
        cj_diag::render_json_diagnostic(d, |span| match self.locate(span) {
            Some((file, local)) => {
                let (line, col) = emitters.get(file).line_col(local.lo);
                format!(
                    "{{\"file\":{},\"lo\":{},\"hi\":{},\"line\":{},\"col\":{}}}",
                    cj_diag::json_string(file),
                    local.lo,
                    local.hi,
                    line,
                    col
                )
            }
            None => "null".to_string(),
        })
    }
}

/// The caret renderers of one rendering call, built the first time a span
/// lands in their file: each file's line index is built once per call,
/// not once per span.
struct Emitters<'w> {
    ws: &'w Workspace,
    by_file: HashMap<&'w str, Emitter<'w>>,
}

impl<'w> Emitters<'w> {
    fn new(ws: &'w Workspace) -> Emitters<'w> {
        Emitters {
            ws,
            by_file: HashMap::new(),
        }
    }

    /// The emitter of `file`, a name [`Workspace::locate`] returned.
    fn get(&mut self, file: &'w str) -> &Emitter<'w> {
        let ws = self.ws;
        self.by_file
            .entry(file)
            .or_insert_with(|| Emitter::new(file, ws.source(file).expect("located file exists")))
    }
}

/// Parses an atom over an abstraction's positional parameters: `rK` is the
/// K-th (1-based) formal parameter, `heap` the heap region.
fn parse_positional_atom(atom: &str, params: &[RegVar]) -> Result<Atom, String> {
    let (lhs, op, rhs) = if let Some((l, r)) = atom.split_once(">=") {
        (l, ">=", r)
    } else if let Some((l, r)) = atom.split_once('=') {
        (l, "=", r)
    } else {
        return Err(format!(
            "malformed atom `{atom}` (expected `rI>=rJ` or `rI=rJ`)"
        ));
    };
    let var = |tok: &str| -> Result<RegVar, String> {
        let tok = tok.trim();
        if tok == "heap" {
            return Ok(RegVar::HEAP);
        }
        let idx: usize = tok
            .strip_prefix('r')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("malformed region `{tok}` (expected `rK` or `heap`)"))?;
        if idx == 0 || idx > params.len() {
            return Err(format!(
                "region index `{tok}` out of range (abstraction has {} parameters)",
                params.len()
            ));
        }
        Ok(params[idx - 1])
    };
    let (a, b) = (var(lhs)?, var(rhs)?);
    Ok(match op {
        ">=" => Atom::outlives(a, b),
        _ => Atom::eq(a, b),
    })
}

/// Shifts every non-dummy span of a diagnostics batch by `base`.
fn shift_diagnostics(diags: Diagnostics, base: u32) -> Diagnostics {
    diags
        .into_iter()
        .map(|mut d| {
            if !d.span.is_dummy() {
                d.span = Span::new(d.span.lo + base, d.span.hi + base);
            }
            for label in &mut d.labels {
                if !label.span.is_dummy() {
                    label.span = Span::new(label.span.lo + base, label.span.hi + base);
                }
            }
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CELL: &str = "class Cell { Object item; Object get() { this.item } }";
    const USER: &str = "class M { static Object f(Cell c) { c.get() } }";

    #[test]
    fn identical_set_source_is_a_noop() {
        let mut ws = Workspace::new(SessionOptions::default());
        let r1 = ws.set_source("a.cj", CELL).unwrap();
        ws.check(InferOptions::default()).unwrap();
        let counts = ws.pass_counts();
        let r2 = ws.set_source("a.cj", CELL).unwrap();
        assert_eq!(r1, r2, "identical text must not bump the revision");
        ws.check(InferOptions::default()).unwrap();
        assert_eq!(ws.pass_counts(), counts, "and must invalidate nothing");
    }

    #[test]
    fn files_merge_in_name_order_and_spans_identify_files() {
        let mut ws = Workspace::new(SessionOptions::default());
        ws.set_source("b.cj", USER).unwrap();
        ws.set_source("a.cj", CELL).unwrap();
        let merged = ws.merged_ast().unwrap();
        assert_eq!(merged.classes[0].name.as_str(), "Cell");
        assert_eq!(merged.classes[1].name.as_str(), "M");
        // b.cj was added first, so its spans live in slot 0; a.cj in slot 1.
        let (file, local) = ws.locate(merged.classes[1].span).unwrap();
        assert_eq!(file, "b.cj");
        assert_eq!(local.lo, 0);
        let (file, _) = ws.locate(merged.classes[0].span).unwrap();
        assert_eq!(file, "a.cj");
    }

    #[test]
    fn typecheck_errors_point_into_the_owning_file() {
        let mut ws = Workspace::new(SessionOptions::default());
        ws.set_source("a.cj", CELL).unwrap();
        ws.set_source("b.cj", "class N { Pear p; }").unwrap();
        let err = ws.check(InferOptions::default()).unwrap_err();
        let rendered = ws.render(&err);
        assert!(rendered.contains("--> b.cj:1:11"), "{rendered}");
        assert!(rendered.contains("unknown class `Pear`"), "{rendered}");
        let json = ws.render_json(&err);
        assert!(json.contains("\"file\":\"b.cj\""), "{json}");
        assert!(json.contains("\"line\":1"), "{json}");
    }

    #[test]
    fn cross_file_duplicate_labels_render_as_location_notes() {
        let mut ws = Workspace::new(SessionOptions::default());
        ws.set_source("a.cj", "class A { }").unwrap();
        ws.set_source("b.cj", "class A { }").unwrap();
        let err = ws.check(InferOptions::default()).unwrap_err();
        let rendered = ws.render(&err);
        assert!(rendered.contains("duplicate class `A`"), "{rendered}");
        assert!(
            rendered.contains("first declared here (a.cj:1:1)"),
            "{rendered}"
        );
    }

    #[test]
    fn q_and_entails_answer_from_cached_state() {
        let mut ws = Workspace::new(SessionOptions::default());
        ws.set_source("pair.cj", "class Pair { Object fst; Object snd; }")
            .unwrap();
        let inv = ws
            .invariant(InferOptions::default(), "Pair")
            .unwrap()
            .expect("inv.Pair exists");
        assert_eq!(inv.params.len(), 3);
        let before = ws.pass_counts();
        // Entailment queries re-run nothing.
        assert_eq!(
            ws.entails(InferOptions::default(), "inv.Pair", "r2>=r1")
                .unwrap(),
            Some(true)
        );
        assert_eq!(
            ws.entails(InferOptions::default(), "inv.Pair", "r2=r3")
                .unwrap(),
            Some(false)
        );
        assert_eq!(
            ws.entails(InferOptions::default(), "inv.Pair", "heap>=r1")
                .unwrap(),
            Some(true)
        );
        assert_eq!(
            ws.entails(InferOptions::default(), "inv.Nope", "r1=r1")
                .unwrap(),
            None
        );
        assert_eq!(ws.pass_counts(), before);
        // Malformed atoms are CLI diagnostics.
        let err = ws
            .entails(InferOptions::default(), "inv.Pair", "r9>=r1")
            .unwrap_err();
        assert!(err.items[0].message.contains("out of range"));
        let err = ws
            .entails(InferOptions::default(), "inv.Pair", "banana")
            .unwrap_err();
        assert!(err.items[0].message.contains("malformed atom"));
    }

    #[test]
    fn remove_source_invalidates() {
        let mut ws = Workspace::new(SessionOptions::default());
        ws.set_source("a.cj", CELL).unwrap();
        ws.set_source("b.cj", USER).unwrap();
        ws.check(InferOptions::default()).unwrap();
        assert!(ws.remove_source("b.cj").is_some());
        ws.check(InferOptions::default()).unwrap();
        assert!(ws.remove_source("b.cj").is_none());
        // `M` is gone from the merged program.
        let kernel = ws.typecheck().unwrap();
        assert!(kernel.table.class_id("M").is_none());
    }

    #[test]
    fn workspaces_compiling_overlapping_programs_match_isolated_ones() {
        let mut a = Workspace::new(SessionOptions::default());
        a.set_source("cell.cj", CELL).unwrap();
        a.set_source("use.cj", USER).unwrap();
        a.check(InferOptions::default()).unwrap();
        assert!(a.pass_counts().sccs_solved > 0);

        // A second workspace compiling a program that overlaps `a`'s does
        // the work of, and answers like, one that never saw `a`.
        let mut b = Workspace::new(SessionOptions::default());
        b.set_source("cell.cj", CELL).unwrap();
        b.check(InferOptions::default()).unwrap();
        let mut isolated = Workspace::new(SessionOptions::default());
        isolated.set_source("cell.cj", CELL).unwrap();
        isolated.check(InferOptions::default()).unwrap();
        assert_eq!(
            b.annotate(InferOptions::default()).unwrap(),
            isolated.annotate(InferOptions::default()).unwrap(),
            "output must equal an isolated compile"
        );
        assert_eq!(b.pass_counts(), isolated.pass_counts());
    }

    #[test]
    fn oversized_file_is_rejected() {
        let mut ws = Workspace::new(SessionOptions::default());
        let big = "x".repeat(FILE_SPAN_STRIDE as usize);
        let err = ws.set_source("big.cj", big).unwrap_err();
        assert!(err.items[0].message.contains("limited to"));
    }
}
