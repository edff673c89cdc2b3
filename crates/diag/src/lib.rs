//! # cj-diag — shared structured diagnostics
//!
//! The diagnostics substrate every other crate in the workspace builds on:
//!
//! - [`span`]: byte [`Span`]s and the line-indexing [`SourceMap`];
//! - [`diagnostic`]: the structured [`Diagnostic`] (severity, stable error
//!   code, message, primary span, secondary labels, notes) and the batch
//!   [`Diagnostics`] collection used as pass error types;
//! - [`emit`]: the [`Emitter`] that renders caret-style source snippets of
//!   one file, and [`render_json_diagnostic`], the one JSON object
//!   serializer;
//! - [`json`]: the workspace's one JSON value, strict depth-bounded parser
//!   and string escaper;
//! - [`IntoDiagnostic`]: the trait each crate's concrete error type
//!   implements so the driver can funnel every failure — lexing through
//!   runtime — into one machine-readable stream.
//!
//! # Examples
//!
//! ```
//! use cj_diag::{Diagnostic, Emitter, Span};
//!
//! let src = "class A {}\nclass A {}";
//! let d = Diagnostic::error("duplicate class `A`", Span::new(11, 18))
//!     .with_code("E0200")
//!     .with_label(Span::new(0, 7), "first declared here");
//! let rendered = Emitter::new("demo.cj", src).render(&d);
//! assert!(rendered.contains("error[E0200]"));
//! assert!(rendered.contains("^^^^^^^"));
//! ```
#![forbid(unsafe_code)]

pub mod diagnostic;
pub mod emit;
pub mod json;
pub mod span;

pub use diagnostic::{Diagnostic, Diagnostics, Label, Severity, MAX_DIAGNOSTICS_PER_FILE};
pub use emit::{render_json_diagnostic, Emitter};
pub use json::{json_string, parse_json, Json};
pub use span::{SourceMap, Span};

/// Stable error-code ranges, one block per pipeline stage.
///
/// Individual diagnostics may carry finer-grained codes; these are the
/// stage defaults stamped at pass boundaries via
/// [`Diagnostics::set_default_code`].
pub mod codes {
    /// Lexical errors.
    pub const LEX: &str = "E0100";
    /// Parse errors.
    pub const PARSE: &str = "E0101";
    /// Normal (region-free) type errors.
    pub const TYPECHECK: &str = "E0200";
    /// Region-inference policy failures.
    pub const INFER: &str = "E0300";
    /// Region-checker violations (Theorem 1 oracle).
    pub const REGION_CHECK: &str = "E0400";
    /// Downcast-safety analysis findings.
    pub const DOWNCAST: &str = "E0500";
    /// Runtime faults.
    pub const RUNTIME: &str = "E0600";
    /// Command-line usage errors.
    pub const CLI: &str = "E0700";
    /// I/O failures (unreadable input file, …).
    pub const IO: &str = "E0701";
    /// Policy rule-file errors (malformed or unresolvable rules).
    pub const POLICY: &str = "E0710";
    /// Policy violation: a `no-escape` rule (value escapes its creation
    /// region).
    pub const POLICY_NO_ESCAPE: &str = "E0711";
    /// Policy violation: a `confine` rule (allocation outside the owner's
    /// regions).
    pub const POLICY_CONFINE: &str = "E0712";
    /// Policy violation: a `separate` rule (source-tainted region reaches a
    /// sink parameter).
    pub const POLICY_SEPARATE: &str = "E0713";
}

/// Conversion of a concrete error type into a structured [`Diagnostic`].
///
/// Implemented by every error type in the workspace (`Diagnostics` itself,
/// `InferError`, `CheckError`, `RuntimeError`, CLI errors, …) so public
/// APIs never need `Box<dyn Error>` or `String` to cross crate boundaries.
pub trait IntoDiagnostic {
    /// Converts `self` into a structured diagnostic.
    fn into_diagnostic(self) -> Diagnostic;
}

impl IntoDiagnostic for Diagnostic {
    fn into_diagnostic(self) -> Diagnostic {
        self
    }
}

/// Batch counterpart of [`IntoDiagnostic`]; blanket-implemented for any
/// single-diagnostic error, and directly for collection error types.
pub trait IntoDiagnostics {
    /// Converts `self` into a batch of structured diagnostics.
    fn into_diagnostics(self) -> Diagnostics;
}

impl<T: IntoDiagnostic> IntoDiagnostics for T {
    fn into_diagnostics(self) -> Diagnostics {
        Diagnostics::from_one(self.into_diagnostic())
    }
}

impl IntoDiagnostics for Diagnostics {
    fn into_diagnostics(self) -> Diagnostics {
        self
    }
}
