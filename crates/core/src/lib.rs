//! # cj-infer — region inference for Core-Java
//!
//! The primary contribution of *Region Inference for an Object-Oriented
//! Language* (Chin, Craciun, Qin, Rinard; PLDI 2004): given a
//! well-normal-typed Core-Java program, automatically derive region
//! parameters and lifetime constraints for every class and method, insert
//! lexically scoped `letreg` regions, and guarantee that the resulting
//! program never creates a dangling reference.
//!
//! Feature map to the paper:
//!
//! | Paper | Module |
//! |---|---|
//! | Class region parameters & invariants (Sec 3.1, \[CLASS\]) | [`ctx`] |
//! | Region subtyping — none / object / field (Sec 3.2) | [`subtype`], [`options`] |
//! | `isRecReadOnly` | `KProgram::rec_read_only`, computed by typecheck |
//! | Method signatures & preconditions (\[METH\]) | [`ctx`], [`exprinfer`] |
//! | Expression rules (Fig 3) | [`exprinfer`] |
//! | Region-polymorphic recursion (Fig 6) | `cj_regions::abstraction` + [`pipeline`] |
//! | Global dependency graph (Sec 4.3) | [`pipeline`] |
//! | Override conflict resolution (Sec 4.4) | [`override_res`] |
//! | `letreg` localization (\[exp-block\], Sec 4.2.1) | [`localize`] |
//! | Downcast safety (Sec 5) | [`options::DowncastPolicy`] + `cj-downcast` |
//!
//! # Examples
//!
//! ```
//! use cj_infer::{infer_source, InferOptions};
//!
//! let (program, stats) = infer_source(
//!     "class Cell { Object item; Object get() { this.item } }",
//!     InferOptions::default(),
//! ).unwrap();
//! // Cell<r1, r2> with the no-dangling invariant r2 >= r1.
//! let cell = program.kernel.table.class_id("Cell").unwrap();
//! assert_eq!(program.rclass(cell).params.len(), 2);
//! assert!(stats.regions_created > 0);
//! ```
#![forbid(unsafe_code)]

pub mod ctx;
pub mod error;
pub mod exprinfer;
#[cfg(test)]
mod exprinfer_tests;
pub mod localize;
pub mod options;
pub mod override_res;
pub mod pipeline;
pub mod pretty;
pub mod rast;
pub mod subtype;

pub use ctx::{invariant_name, precondition_name};
pub use error::InferError;
pub use options::{DowncastPolicy, ExtentMode, InferOptions, InferStats, SubtypeMode};
pub use pipeline::{infer, infer_source};
pub use rast::{Letreg, Placement, RClass, RMethod, RProgram, RType};
