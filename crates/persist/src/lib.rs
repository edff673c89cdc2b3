//! # cj-persist — retired
//!
//! This crate used to hold an on-disk cache of solved constraint-abstraction
//! SCCs. Loading that cache cost more than the solves it saved, so it was
//! deleted; the in-memory `SolveMemo` in `cj_regions::incremental` is the
//! only solve cache left. The empty package stays only because the
//! benchmark's lock file still names it, and goes with the next change to
//! the benchmark definition.
#![forbid(unsafe_code)]
