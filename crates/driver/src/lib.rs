//! # cj-driver — the `Workspace` / `Session` compiler drivers
//!
//! The driver layer over the PLDI 2004 region-inference pipeline, built
//! around the multi-file, demand-driven [`Workspace`]:
//!
//! ```text
//! set_source ─▶ per-file AST ─▶ merged program ─▶ kernel ─▶ per-options
//!               (slot-stable spans)                          compilation
//! ```
//!
//! Every derived artifact is a memoized query with fine-grained
//! invalidation: editing one file re-parses **only that file**, and
//! re-inference starts from the fresh kernel, so its output is
//! bit-identical to a from-scratch compile. The closed
//! constraint-abstraction environment `Q` is queryable ([`Workspace::q`], [`Workspace::precondition`],
//! [`Workspace::invariant`], [`Workspace::entails`]) without re-solving.
//!
//! [`Session`] is the single-source facade (one file named `<input>`),
//! [`Server`] the JSON-lines compile-server loop behind `cjrc serve`,
//! [`Daemon`] the `cjrcd` socket front end multiplexing many such servers.
//! Errors from every stage are structured
//! [`Diagnostics`](cj_diag::Diagnostics) with spans, stable codes, caret
//! rendering and a JSON form; no stage returns `Box<dyn Error>` or
//! strings.
//!
//! # Examples
//!
//! ```
//! use cj_driver::{Session, SessionOptions};
//!
//! let mut session = Session::new(
//!     "class Pair { Object fst; Object snd;
//!        void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; }
//!      }",
//!     SessionOptions::default(),
//! );
//! let compilation = session.check().unwrap();      // parse → … → check
//! assert!(compilation.stats.regions_created > 0);
//! let annotated = session.annotate().unwrap();     // reuses all artifacts
//! assert!(annotated.contains("Pair<"));
//! assert_eq!(session.pass_counts().parse, 1);
//! ```
//!
//! Errors render as caret snippets or JSON:
//!
//! ```
//! use cj_driver::{Session, SessionOptions};
//!
//! let mut session = Session::new("class A { Pear p; }", SessionOptions::default());
//! let diagnostics = session.check().unwrap_err();
//! let text = session.emitter().render_all(&diagnostics);
//! assert!(text.contains("error[E0200]"));
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
pub use session::{Compilation, CompileResult, Session, SessionOptions};
pub use telemetry::Telemetry;
pub use workspace::{PassCounts, PolicyOutcome, Workspace, FILE_SPAN_STRIDE};
