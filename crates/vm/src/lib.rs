//! # cj-vm — register lowering for annotated Core-Java
//!
//! Everything the bytecode engine needs except the executor and the
//! region heap:
//!
//! - the [register IR](code) — per-method three-address code with
//!   opcodes typed by their operands' normal type (`int` and `float`
//!   arithmetic and comparisons each have their own), constant
//!   registers in the frame template, fused superinstructions, vtables
//!   resolved at lowering time (virtual dispatch by slot index, never
//!   name lookup), a pre-order class tree for casts, and explicit
//!   `RegPush`/`RegPop`/allocate-in-region instructions mirroring
//!   `letreg` extents;
//! - the [lowering pass](lower), which compiles the region-annotated
//!   kernel ([`RProgram`](cj_infer::RProgram)) straight to that IR in one
//!   pass. Memory reads carry the [`SlotTy`](cj_runtime::heap::SlotTy)
//!   their payload word decodes with.
//!
//! `cj-rvm` executes the IR over the bump-arena
//! [`RegionHeap`](cj_runtime::RegionHeap) in `cj-runtime`, the same heap
//! the tree-walking interpreter runs on, so
//! [`SpaceStats`](cj_runtime::SpaceStats) — and every Fig 8 space ratio —
//! is identical across engines.
//!
//! # Examples
//!
//! ```
//! use cj_infer::{infer_source, InferOptions};
//!
//! let (p, _) = infer_source(
//!     "class Box { Object item; }
//!      class M {
//!        static int main(int n) {
//!          int i = 0;
//!          while (i < n) { Box b = new Box(null); i = i + 1; }
//!          i
//!        }
//!      }",
//!     InferOptions::default(),
//! ).unwrap();
//! let compiled = cj_vm::lower_program(&p);
//! // The per-iteration Box gets its own region: the loop body pushes and
//! // pops it, and the loop tests `i < n` at its bottom with one fused
//! // int compare-and-branch.
//! assert!(compiled
//!     .methods
//!     .iter()
//!     .any(|m| m.code.iter().any(|i| i.op == cj_vm::ROp::RegPush)));
//! assert!(compiled
//!     .methods
//!     .iter()
//!     .any(|m| m.code.iter().any(|i| i.op == cj_vm::ROp::JmpILt)));
//! assert!(compiled.fused_count() > 0);
//! ```
#![forbid(unsafe_code)]

pub mod code;
pub mod lower;

pub use code::{RInstr, ROp, RvmMethod, RvmProgram};
pub use lower::lower_program;
