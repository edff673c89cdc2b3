//! # cj-vm — stack lowering and the region heap for annotated Core-Java
//!
//! Two pieces of the bytecode execution path for the paper's target
//! language:
//!
//! - a [lowering pass](lower) compiles the region-annotated kernel
//!   ([`RProgram`](cj_infer::RProgram)) into a compact
//!   [`CompiledProgram`] — per-method stack bytecode, constant pools,
//!   vtables resolved at lowering time (virtual dispatch by slot index,
//!   never name lookup), and explicit `RegPush`/`RegPop`/allocate-in-region
//!   instructions mirroring `letreg` extents. A per-method [`LowerCache`]
//!   re-lowers only the methods an edit changed;
//! - a [bump-arena region heap](heap): each live region holds its
//!   objects' actual payloads (fields as word slots) and frees them
//!   **wholesale** at `RegPop`.
//!
//! The stack bytecode is the input of `cj-rvm`'s register lowering, and
//! `cj-rvm` executes over this heap. Space accounting follows the
//! tree-walking interpreter's size model, so
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
//! // pops it.
//! assert!(compiled.instruction_count() > 0);
//! assert!(compiled
//!     .methods
//!     .iter()
//!     .any(|m| m.code.iter().any(|i| matches!(i, cj_vm::Instr::RegPush(_)))));
//! ```
#![forbid(unsafe_code)]

pub mod bytecode;
pub mod heap;
pub mod lower;

pub use bytecode::{CompiledMethod, CompiledProgram, Instr};
pub use lower::{lower_program, LowerCache, LowerStats};

#[cfg(test)]
mod tests {
    use super::*;
    use cj_infer::{infer_source, InferOptions};

    #[test]
    fn lower_cache_reuses_unchanged_methods() {
        let src_a = "class Cell { Object item; Object get() { this.item } }
             class M { static int main() { 1 } }";
        let src_b = "class Cell { Object item; Object get() { this.item } }
             class M { static int main() { 2 } }";
        let (pa, _) = infer_source(src_a, InferOptions::default()).unwrap();
        let (pb, _) = infer_source(src_b, InferOptions::default()).unwrap();
        let mut cache = LowerCache::new();
        let (first, s1) = cache.lower(&pa);
        assert_eq!(s1.methods_reused, 0);
        assert!(s1.methods_lowered >= 2);
        // Identical program: everything is reused.
        let (again, s2) = cache.lower(&pa);
        assert_eq!(s2.methods_lowered, 0);
        assert_eq!(s2.methods_reused, s1.methods_lowered);
        assert!(std::ptr::eq(
            std::sync::Arc::as_ptr(&first.methods[0]),
            std::sync::Arc::as_ptr(&again.methods[0])
        ));
        // One edited body: exactly one method re-lowers.
        let (_, s3) = cache.lower(&pb);
        assert_eq!(s3.methods_lowered, 1, "{s3:?}");
        assert_eq!(s3.methods_reused, s1.methods_lowered - 1);
    }
}
