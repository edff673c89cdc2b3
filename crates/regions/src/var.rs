//! Region variables.
//!
//! A [`RegVar`] stands for a runtime region. The distinguished variable
//! [`RegVar::HEAP`] denotes the global heap region with unlimited lifetime:
//! the paper's axiom is `∀r. heap ≥ r` (the heap outlives every region).

use std::fmt;

/// A region variable.
///
/// Fresh variables are produced by a [`RegVarGen`]; equality is identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegVar(pub u32);

impl RegVar {
    /// The global heap region (`heap` in the paper).
    pub const HEAP: RegVar = RegVar(0);

    /// Whether this is the heap region.
    pub fn is_heap(self) -> bool {
        self == RegVar::HEAP
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RegVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_heap() {
            f.write_str("heap")
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

impl fmt::Display for RegVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A generator of fresh region variables.
///
/// # Examples
///
/// ```
/// use cj_regions::var::{RegVar, RegVarGen};
///
/// let mut gen = RegVarGen::new();
/// let a = gen.fresh();
/// let b = gen.fresh();
/// assert_ne!(a, b);
/// assert!(!a.is_heap());
/// ```
#[derive(Debug, Clone)]
pub struct RegVarGen {
    next: u32,
}

impl RegVarGen {
    /// A generator whose first variable is `r1` (`r0` is the heap).
    pub fn new() -> RegVarGen {
        RegVarGen { next: 1 }
    }

    /// Produces a fresh, never-before-seen region variable.
    pub fn fresh(&mut self) -> RegVar {
        let v = RegVar(self.next);
        self.next += 1;
        v
    }

    /// Produces `n` fresh variables.
    pub fn fresh_n(&mut self, n: usize) -> Vec<RegVar> {
        (0..n).map(|_| self.fresh()).collect()
    }

    /// Number of variables handed out so far (excluding the heap).
    pub fn count(&self) -> u32 {
        self.next - 1
    }
}

impl Default for RegVarGen {
    fn default() -> Self {
        RegVarGen::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_is_zero_and_distinct() {
        let mut gen = RegVarGen::new();
        assert!(RegVar::HEAP.is_heap());
        for _ in 0..100 {
            assert!(!gen.fresh().is_heap());
        }
    }

    #[test]
    fn fresh_n_yields_distinct() {
        let mut gen = RegVarGen::new();
        let vs = gen.fresh_n(10);
        for i in 0..10 {
            for j in i + 1..10 {
                assert_ne!(vs[i], vs[j]);
            }
        }
        assert_eq!(gen.count(), 10);
    }

    #[test]
    fn display_forms() {
        assert_eq!(RegVar::HEAP.to_string(), "heap");
        assert_eq!(RegVar(3).to_string(), "r3");
    }
}
