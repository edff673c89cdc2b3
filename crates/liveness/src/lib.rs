//! # cj-liveness — flow-sensitive `letreg` extent inference
//!
//! The paper's `letreg` placement (\[exp-block\], `cj_infer::localize`) is
//! *block-scoped*: a localized region is bound at the smallest enclosing
//! block covering its occurrences, so it stays live for the whole block even
//! when its last use comes early. This crate adds the NLL-style refinement
//! (regions as sets of program points, per `nikomatsakis/borrowck`): build a
//! per-method control-flow point graph over the region-annotated kernel
//! ([`points::PointGraph`]), compute backward per-point liveness of region
//! variables, and shrink each `letreg` to the smallest *well-scoped* range
//! covering the region's live points ([`extent`]).
//!
//! "Well-scoped" carries three obligations inherited from the region
//! checker, which stays strict in both modes:
//!
//! - a variable declaration counts as a use of every region in the
//!   variable's type (the checker scope-checks declarations; this is what
//!   keeps a stale pointer from being carried across an extent boundary —
//!   e.g. from one loop iteration into the next);
//! - the rewritten `letreg` body's value type must not mention the region
//!   (the checker's escape rule), so trimming a discarded tail coerces the
//!   body to `void` with an explicit unit continuation;
//! - a `letreg` never sinks past another `letreg` binder, preserving the
//!   relative nesting order the stack-discipline axioms were solved under.
//!
//! The pass is pluggable behind [`ExtentInference`] and selected by
//! [`ExtentMode`]: [`PaperExtents`] is the identity (today's block-scoped
//! placement), [`LivenessExtents`] is the tightening pass. The
//! environment-transformation inference of Schöpp & Xu (arXiv 2209.02147)
//! is a planned third implementation of the same trait.
//!
//! # Examples
//!
//! ```
//! use cj_infer::{infer_source, InferOptions};
//! use cj_liveness::{for_mode, ExtentMode};
//!
//! let src = "class Box { int v; }
//!     class M { static int main(int n) {
//!         int sum = 0;
//!         if (n > 0) { Box b = new Box(n); sum = b.v; } else { sum = 1; }
//!         sum = sum + 1;
//!         sum
//!     } }";
//! let (mut program, _) = infer_source(src, InferOptions::default()).unwrap();
//! let stats = for_mode(ExtentMode::Liveness).rewrite_program(&mut program);
//! assert!(stats.extent_points_after <= stats.extent_points_before);
//! ```
#![forbid(unsafe_code)]

pub mod extent;
pub mod points;

pub use cj_infer::options::ExtentMode;

use cj_infer::rast::RProgram;

/// What an extent-inference pass did to a program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtentStats {
    /// Methods whose body contained at least one `letreg`.
    pub methods: usize,
    /// `letreg` bindings examined.
    pub letregs: usize,
    /// Bindings whose extent strictly shrank.
    pub narrowed: usize,
    /// Bindings removed outright (region never used).
    pub dropped: usize,
    /// Control-flow points across all rewritten methods.
    pub points: usize,
    /// Sum of `letreg` extent lengths (in points) before rewriting.
    pub extent_points_before: usize,
    /// Sum of `letreg` extent lengths (in points) after rewriting.
    pub extent_points_after: usize,
}

impl ExtentStats {
    fn absorb(&mut self, other: ExtentStats) {
        self.methods += other.methods;
        self.letregs += other.letregs;
        self.narrowed += other.narrowed;
        self.dropped += other.dropped;
        self.points += other.points;
        self.extent_points_before += other.extent_points_before;
        self.extent_points_after += other.extent_points_after;
    }
}

/// A pluggable `letreg` extent-placement pass, run after region inference
/// proper (and after \[exp-block\] localization) on the fully annotated
/// program.
///
/// Implementations must preserve observable behaviour (value, prints,
/// error spans) and region-checker validity; they may only change *where*
/// `letreg` bindings sit, never which region an object is allocated in.
pub trait ExtentInference {
    /// Short name for CLI/protocol reporting.
    fn name(&self) -> &'static str;

    /// Rewrites every method's `letreg` extents in place.
    fn rewrite_program(&self, program: &mut RProgram) -> ExtentStats;
}

/// The paper's block-scoped placement, unchanged: the identity pass.
pub struct PaperExtents;

impl ExtentInference for PaperExtents {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn rewrite_program(&self, _program: &mut RProgram) -> ExtentStats {
        ExtentStats::default()
    }
}

/// The NLL-style liveness tightening pass.
pub struct LivenessExtents;

impl ExtentInference for LivenessExtents {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn rewrite_program(&self, program: &mut RProgram) -> ExtentStats {
        let mut span = cj_trace::span("pipeline", "extent-rewrite");
        let mut stats = ExtentStats::default();
        for class_methods in &mut program.methods {
            for m in class_methods.iter_mut() {
                stats.absorb(extent::tighten_method(m));
            }
        }
        for m in &mut program.statics {
            stats.absorb(extent::tighten_method(m));
        }
        span.add("letregs", stats.letregs as u64);
        span.add("narrowed", stats.narrowed as u64);
        span.add("dropped", stats.dropped as u64);
        stats
    }
}

/// The pass implementing `mode`.
pub fn for_mode(mode: ExtentMode) -> &'static dyn ExtentInference {
    match mode {
        ExtentMode::Paper => &PaperExtents,
        ExtentMode::Liveness => &LivenessExtents,
    }
}
