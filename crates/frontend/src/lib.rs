//! # cj-frontend — the Core-Java front end
//!
//! Core-Java is the minimal Java-like object-oriented language of
//! *Region Inference for an Object-Oriented Language* (Chin, Craciun, Qin,
//! Rinard; PLDI 2004). This crate provides everything up to (but not
//! including) region inference:
//!
//! - [`lexer`] and [`parser`] for the surface syntax ([`ast`]);
//! - the [`classtable`] (hierarchy, fields, signatures, recursive-class
//!   analysis);
//! - the normal (region-free) [type checker](typecheck), which also lowers
//!   programs into the [`kernel`] form over which the paper's inference
//!   rules are stated;
//! - small [`graph`] utilities (Tarjan SCC) shared with the inference
//!   engine.
//!
//! # Examples
//!
//! ```
//! use cj_frontend::typecheck::check_source;
//!
//! let kp = check_source(
//!     "class Cell { int v; int get() { this.v } }",
//! )?;
//! assert_eq!(kp.table.len(), 2); // Object + Cell
//! # Ok::<(), cj_frontend::span::Diagnostics>(())
//! ```
#![forbid(unsafe_code)]

pub mod ast;
pub mod classtable;
pub mod graph;
pub mod intern;
pub mod kernel;
pub mod lexer;
pub mod parser;
mod recro;
pub mod span;
pub mod token;
pub mod typecheck;
pub mod types;

pub use classtable::ClassTable;
pub use intern::Symbol;
pub use kernel::KProgram;
pub use span::{Diagnostic, Diagnostics, Span};
pub use types::{ClassId, MethodId, NType, Prim, VarId};
