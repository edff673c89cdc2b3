//! # cj-persist — the on-disk compilation cache behind `--cache-dir`
//!
//! The incremental layer memoizes solved constraint-abstraction SCCs in a
//! content-addressed, α-invariant [`SolveMemo`] — summaries with no
//! process-local state (no names, no spans, no region-id bases). This
//! crate persists them, so a restarted `cjrc serve` / `cjrcd` daemon (or
//! a fresh one-shot `cjrc` invocation) starts *warm*: every SCC whose
//! canonical form was ever solved under the same cache directory is
//! served from disk instead of re-iterated, observable as `sccs_disk_hits`
//! in `InferStats` / `PassCounts` / the `stats` response.
//!
//! Two layers:
//!
//! - [`store::RecordStore`] — the container format: a versioned-header
//!   snapshot file plus an append-only journal of checksummed records,
//!   written via temp file + atomic rename, with GC/compaction. Loading
//!   **never fails**: corruption, torn tails, version bumps and foreign
//!   files all degrade to a cold start.
//! - [`scc::SccDiskCache`] — the solved-SCC tier: the entry codec plus
//!   load/flush/compact against a [`SolveMemo`].
//!
//! Reuse is strictly an optimization — a populated cache changes *how
//! much work* a compilation performs, never its output (property-tested
//! against from-scratch solves over random recursive systems).
//!
//! Solved SCCs are the only inference state that is persisted: every
//! other artifact is recomputed from the kernel on each compile.
//!
//! [`SolveMemo`]: cj_regions::incremental::SolveMemo
#![forbid(unsafe_code)]

pub mod scc;
pub mod store;

pub use scc::{SccDiskCache, SccEntry};
pub use store::{RecordStore, FORMAT_VERSION};
