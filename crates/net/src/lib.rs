//! # cj-net — the readiness-driven serving floor
//!
//! A dependency-free reactor: **epoll** on Linux, **`poll(2)`** on other
//! Unixes, selected at runtime. One event thread multiplexes every
//! connection — nonblocking accept, bounded incremental line framing,
//! write-side backpressure with partial-write resumption, idle-clock
//! eviction, and capacity rejection — while protocol work happens on
//! whatever threads the owner chooses, talking back through a clonable
//! [`NetHandle`].
//!
//! Built for `cjrcd`'s front end (`cjrc daemon`) and reused in reverse by `cj-loadgen`, which drives thousands of
//! *outbound* client connections through the same [`EventLoop`] in
//! listener-less mode.
//!
//! The [`framer::LineFramer`] is deliberately independent of the reactor,
//! so it can be tested (and reused) on its own.

#![forbid(missing_docs)]
#![cfg(unix)]

mod sys;

pub mod framer;
pub mod poller;

mod event_loop;

pub use event_loop::{EventLoop, NetConfig, NetEvent, NetHandle, NetListener, NetStream, Token};
pub use framer::{LineFramer, LineOverflow};
pub use poller::{Poller, Readiness};
