//! # cj-persist — retired
//!
//! This crate used to hold an on-disk cache of solved constraint-abstraction
//! SCCs. Loading that cache cost more than the solves it saved, so it was
//! deleted; every compile now solves its SCCs afresh. The empty package
//! stays only because the benchmark's lock file still names it, and goes
//! with the next change to the benchmark definition.
#![forbid(unsafe_code)]
