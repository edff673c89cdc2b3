//! String interning.
//!
//! Identifiers (class names, method names, field names, variables) are
//! interned into [`Symbol`]s — small `Copy` handles that are cheap to compare
//! and hash. The interner is a process-global table; interned strings live
//! for the lifetime of the process, so [`Symbol::as_str`] can hand out
//! `&'static str`.
//!
//! # Examples
//!
//! ```
//! use cj_frontend::intern::Symbol;
//!
//! let a = Symbol::intern("Pair");
//! let b = Symbol::intern("Pair");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "Pair");
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash as _, Hasher as _};
use std::sync::{OnceLock, RwLock};

/// An interned string.
///
/// Two `Symbol`s are equal iff the strings they intern are equal. The
/// ordering is the ordering of the underlying strings, so sorted symbol
/// collections print deterministically.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(&'static str);

struct Interner {
    map: HashMap<&'static str, Symbol>,
}

/// Number of independently locked interner shards. Sharding by string hash
/// means concurrent compilations (batch drivers, daemon clients) contend
/// only when two threads intern strings landing in the same shard, instead
/// of serializing on one global lock.
pub const INTERNER_SHARDS: usize = 16;

fn shards() -> &'static [RwLock<Interner>; INTERNER_SHARDS] {
    static SHARDS: OnceLock<[RwLock<Interner>; INTERNER_SHARDS]> = OnceLock::new();
    SHARDS.get_or_init(|| {
        std::array::from_fn(|_| {
            RwLock::new(Interner {
                map: HashMap::new(),
            })
        })
    })
}

fn shard_for(s: &str) -> &'static RwLock<Interner> {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    &shards()[h.finish() as usize % INTERNER_SHARDS]
}

impl Symbol {
    /// Interns `s`, returning its canonical [`Symbol`].
    ///
    /// Lookups of already-interned strings (the overwhelmingly common case
    /// once a workload warms up) take only the read lock of the shard
    /// owning `s`'s hash ([`INTERNER_SHARDS`] shards), so concurrent
    /// daemon clients do not serialize on the interner.
    pub fn intern(s: &str) -> Symbol {
        let shard = shard_for(s);
        if let Some(&sym) = shard.read().expect("interner poisoned").map.get(s) {
            return sym;
        }
        let mut guard = shard.write().expect("interner poisoned");
        // Re-check under the write lock: another thread may have won.
        if let Some(&sym) = guard.map.get(s) {
            return sym;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let sym = Symbol(leaked);
        guard.map.insert(leaked, sym);
        sym
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(other.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.0)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("a"), Symbol::intern("b"));
    }

    #[test]
    fn ordering_follows_strings() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("beta");
        assert!(a < b);
    }

    #[test]
    fn display_is_plain_string() {
        assert_eq!(format!("{}", Symbol::intern("List")), "List");
    }

    #[test]
    fn empty_string_is_representable() {
        let e = Symbol::intern("");
        assert_eq!(e.as_str(), "");
        assert_eq!(format!("{:?}", e), "Symbol(\"\")");
    }

    #[test]
    fn concurrent_interning_is_canonical_across_shards() {
        // Many threads intern the same (and overlapping) strings; every
        // thread must end up with pointer-identical symbols per string.
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| Symbol::intern(&format!("sym-{}", (i + t) % 100)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for row in &all {
            for sym in row {
                let again = Symbol::intern(sym.as_str());
                assert_eq!(*sym, again);
                assert!(std::ptr::eq(sym.as_str(), again.as_str()));
            }
        }
    }
}
