//! # cj-regions — region variables, lifetime constraints and their solver
//!
//! The constraint layer of the PLDI 2004 region-inference system:
//!
//! - [`var`]: region variables and the distinguished `heap` region;
//! - [`constraint`]: atomic constraints `r₁ ≥ r₂` (outlives) and `r₁ = r₂`,
//!   and conjunctions thereof;
//! - [`subst`]: region substitutions (instantiation, and the `ctr(·)`
//!   conversion used by override resolution);
//! - [`solve`]: the solver — union-find + outlives graph with cycle
//!   collapse, entailment, projection (existential elimination) and the
//!   escape closure of rule \[exp-block\];
//! - [`abstraction`]: constraint abstractions `inv.cn` / `pre.m`, kept in
//!   an environment indexed by dense [`AbsId`]s, and the worklist fixed-point
//!   analysis of Fig 6(d) that supports region-polymorphic recursion.
//!
//! This crate is deliberately independent of the Core-Java frontend: it
//! deals only in region variables and abstraction ids, and keeps each
//! abstraction's name only to print it and to find it by name.
//!
//! # Examples
//!
//! ```
//! use cj_regions::{solve::Solver, var::RegVar, constraint::Atom};
//!
//! let (a, b, c) = (RegVar(1), RegVar(2), RegVar(3));
//! let mut s = Solver::new();
//! s.add_outlives(a, b);
//! s.add_outlives(b, c);
//! assert!(s.entails_atom(Atom::outlives(a, c)));
//! ```
#![forbid(unsafe_code)]

pub mod abstraction;
pub mod constraint;
pub mod solve;
pub mod subst;
pub mod var;

pub use abstraction::{AbsBody, AbsCall, AbsEnv, AbsId, ConstraintAbs};
pub use constraint::{Atom, ConstraintSet};
pub use solve::Solver;
pub use subst::RegSubst;
pub use var::{RegVar, RegVarGen};
