//! # cj-liveness — flow-sensitive `letreg` extent inference
//!
//! The paper's `letreg` placement (\[exp-block\], `cj_infer::localize`) is
//! *block-scoped*: a localized region is bound at the smallest enclosing
//! block covering its occurrences, so it stays live for the whole block even
//! when its last use comes early. This crate adds the NLL-style refinement
//! (regions as sets of program points, per `nikomatsakis/borrowck`): each
//! `letreg` shrinks to the smallest *well-scoped* extent covering its
//! region's use points ([`extent`]), and a per-method control-flow point
//! graph over the region-annotated kernel ([`points::PointGraph`]) checks
//! the result: the extents nest and cover every use.
//!
//! "Well-scoped" carries three obligations inherited from the region
//! checker, which stays strict in both modes:
//!
//! - a variable declaration counts as a use of every region in the
//!   variable's type (the checker scope-checks declarations; this is what
//!   keeps a stale pointer from being carried across an extent boundary —
//!   e.g. from one loop iteration into the next);
//! - a placement whose value is used must not mention its region in the
//!   value's type (the checker's escape rule); a range that ends before its
//!   block's value item, a non-final block item and a loop body discard
//!   their values;
//! - a placement never moves into an expression or item range that holds
//!   another placement, preserving the relative nesting order the
//!   stack-discipline axioms were solved under.
//!
//! Both work on the annotated program's tables: \[exp-block\] places each
//! `letreg` around an expression, and [`tighten`] moves the placements —
//! [`Placement::Node`](cj_infer::rast::Placement) around a smaller
//! expression, or [`Placement::Items`](cj_infer::rast::Placement) around a
//! run of block items — without rebuilding the kernel body. The driver runs
//! it under [`ExtentMode::Liveness`](cj_infer::ExtentMode) only.
//!
//! # Examples
//!
//! ```
//! use cj_infer::{infer_source, InferOptions};
//!
//! let src = "class Box { int v; }
//!     class M { static int main(int n) {
//!         int sum = 0;
//!         if (n > 0) { Box b = new Box(n); sum = b.v; } else { sum = 1; }
//!         sum = sum + 1;
//!         sum
//!     } }";
//! let (mut program, _) = infer_source(src, InferOptions::default()).unwrap();
//! let stats = cj_liveness::tighten(&mut program);
//! assert!(stats.extent_points_after <= stats.extent_points_before);
//! ```
#![forbid(unsafe_code)]

pub mod extent;
pub mod points;

use cj_infer::rast::RProgram;

/// What [`tighten`] did to a program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtentStats {
    /// `letreg` bindings examined.
    pub letregs: usize,
    /// Bindings whose extent strictly shrank.
    pub narrowed: usize,
    /// Bindings removed outright (region never used).
    pub dropped: usize,
    /// Sum of `letreg` extent lengths (in points) before tightening.
    pub extent_points_before: usize,
    /// Sum of `letreg` extent lengths (in points) after tightening.
    pub extent_points_after: usize,
}

impl ExtentStats {
    fn absorb(&mut self, other: ExtentStats) {
        self.letregs += other.letregs;
        self.narrowed += other.narrowed;
        self.dropped += other.dropped;
        self.extent_points_before += other.extent_points_before;
        self.extent_points_after += other.extent_points_after;
    }
}

/// Tightens every method's `letreg` placements in place (see
/// [`extent`]); returns what changed.
///
/// Behaviour is preserved (value, prints, error spans) and the program
/// stays region-checker-valid: only *where* a `letreg` binds changes,
/// never which region an object is allocated in.
pub fn tighten(program: &mut RProgram) -> ExtentStats {
    let mut span = cj_trace::span("pipeline", "extent-rewrite");
    let kernel = std::sync::Arc::clone(&program.kernel);
    let mut stats = ExtentStats::default();
    let methods = program.methods.iter_mut().flatten();
    for m in methods.chain(&mut program.statics) {
        stats.absorb(extent::tighten_method(&kernel.method(m.id).body, m));
    }
    span.add("letregs", stats.letregs as u64);
    span.add("narrowed", stats.narrowed as u64);
    span.add("dropped", stats.dropped as u64);
    stats
}
