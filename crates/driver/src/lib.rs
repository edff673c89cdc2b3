//! # cj-driver — the `Workspace` compiler driver
//!
//! The driver layer over the PLDI 2004 region-inference pipeline
//! `parse → typecheck → infer → check → run`, built around one type, the
//! multi-file, demand-driven [`Workspace`]:
//!
//! ```text
//! set_source ─▶ per-file AST ─▶ merged program ─▶ kernel ─▶ per-options
//!               (slot-stable spans)                          compilation
//! ```
//!
//! Every derived artifact is a memoized query with fine-grained
//! invalidation: editing one file re-parses **only that file**, and
//! re-inference starts from the fresh kernel, so its output is
//! bit-identical to a from-scratch compile. Each stage past typecheck
//! takes its [`InferOptions`](cj_infer::InferOptions) explicitly. The
//! closed constraint-abstraction environment `Q` is queryable
//! ([`Workspace::q`], [`Workspace::precondition`],
//! [`Workspace::invariant`], [`Workspace::entails`]) without re-solving.
//!
//! [`Server`] is the JSON-lines compile-server loop behind `cjrc serve`,
//! [`Daemon`] the `cjrcd` socket front end multiplexing many such servers.
//! [`Session`] keeps only the three calls the `perfbench` benchmark makes.
//! Errors from every stage are structured
//! [`Diagnostics`](cj_diag::Diagnostics) with spans, stable codes, caret
//! rendering and a JSON form; no stage returns `Box<dyn Error>` or
//! strings.
//!
//! # Examples
//!
//! ```
//! use cj_driver::{SessionOptions, Workspace};
//! use cj_infer::InferOptions;
//!
//! let opts = InferOptions::default();
//! let mut ws = Workspace::new(SessionOptions::default());
//! ws.set_source(
//!     "pair.cj",
//!     "class Pair { Object fst; Object snd;
//!        void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; }
//!      }",
//! )
//! .unwrap();
//! let compilation = ws.check(opts).unwrap();      // parse → … → check
//! assert!(compilation.stats.regions_created > 0);
//! let annotated = ws.annotate(opts).unwrap();     // reuses all artifacts
//! assert!(annotated.contains("Pair<"));
//! assert_eq!(ws.pass_counts().parse, 1);
//! ```
//!
//! Errors render as caret snippets or JSON, against the file they point
//! into:
//!
//! ```
//! use cj_driver::{SessionOptions, Workspace};
//! use cj_infer::InferOptions;
//!
//! let mut ws = Workspace::new(SessionOptions::default());
//! ws.set_source("a.cj", "class A { Pear p; }").unwrap();
//! let diagnostics = ws.check(InferOptions::default()).unwrap_err();
//! let text = ws.render(&diagnostics);
//! assert!(text.contains("error[E0200]"));
//! assert!(text.contains("--> a.cj:1:11"));
//! ```
#![forbid(unsafe_code)]

pub mod daemon;
pub mod server;
pub mod session;
pub mod telemetry;
pub mod workspace;

pub use cj_diag::json::{parse_json, Json};
pub use daemon::{Daemon, DaemonConfig, DaemonStats, DaemonSummary};
pub use server::Server;
pub use session::Session;
pub use telemetry::Telemetry;
pub use workspace::{
    Compilation, CompileResult, PassCounts, PolicyOutcome, SessionOptions, Workspace,
    FILE_SPAN_STRIDE,
};
