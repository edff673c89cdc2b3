//! Region substitutions.
//!
//! A [`RegSubst`] maps region variables to region variables. Substitutions
//! arise at every instantiation site: class invariants instantiated with a
//! `new`'s regions, method preconditions instantiated with call-site
//! regions, and the override-conflict-resolution rule of Sec 4.4 (which
//! also converts a substitution back into equality constraints via
//! [`RegSubst::to_equalities`], the paper's `ctr(·)`).

use crate::constraint::{Atom, ConstraintSet};
use crate::var::RegVar;
use std::collections::BTreeMap;
use std::fmt;

/// A finite map from region variables to region variables; variables not in
/// the domain are mapped to themselves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegSubst {
    map: BTreeMap<RegVar, RegVar>,
}

impl RegSubst {
    /// The identity substitution.
    pub fn new() -> RegSubst {
        RegSubst::default()
    }

    /// Builds a substitution from `(from, to)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the same `from` is bound twice to different targets.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (RegVar, RegVar)>) -> RegSubst {
        let mut s = RegSubst::new();
        for (from, to) in pairs {
            s.bind(from, to);
        }
        s
    }

    /// Builds the substitution `params[i] ↦ args[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or a parameter repeats
    /// with conflicting arguments.
    pub fn instantiation(params: &[RegVar], args: &[RegVar]) -> RegSubst {
        assert_eq!(
            params.len(),
            args.len(),
            "region arity mismatch: {} parameters vs {} arguments",
            params.len(),
            args.len()
        );
        RegSubst::from_pairs(params.iter().copied().zip(args.iter().copied()))
    }

    /// Adds a binding.
    ///
    /// # Panics
    ///
    /// Panics on conflicting rebinding of `from`.
    pub fn bind(&mut self, from: RegVar, to: RegVar) {
        if let Some(&old) = self.map.get(&from) {
            assert_eq!(old, to, "conflicting binding for {from}: {old} vs {to}");
            return;
        }
        self.map.insert(from, to);
    }

    /// Applies the substitution to one variable.
    pub fn apply(&self, v: RegVar) -> RegVar {
        self.map.get(&v).copied().unwrap_or(v)
    }

    /// Applies the substitution to a list of variables.
    pub fn apply_all(&self, vs: &[RegVar]) -> Vec<RegVar> {
        vs.iter().map(|&v| self.apply(v)).collect()
    }

    /// Number of explicit bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether there are no explicit bindings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over the explicit bindings.
    pub fn iter(&self) -> impl Iterator<Item = (RegVar, RegVar)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// The paper's `ctr(σ)`: the substitution as equality constraints
    /// `from = to` for every binding.
    pub fn to_equalities(&self) -> ConstraintSet {
        self.map
            .iter()
            .map(|(&from, &to)| Atom::eq(from, to))
            .collect()
    }
}

impl fmt::Display for RegSubst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{k}->{v}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RegVar {
        RegVar(i)
    }

    #[test]
    fn identity_outside_domain() {
        let s = RegSubst::from_pairs([(r(1), r(2))]);
        assert_eq!(s.apply(r(1)), r(2));
        assert_eq!(s.apply(r(3)), r(3));
    }

    #[test]
    fn instantiation_zips() {
        let s = RegSubst::instantiation(&[r(1), r(2)], &[r(10), r(20)]);
        assert_eq!(s.apply_all(&[r(1), r(2), r(3)]), vec![r(10), r(20), r(3)]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn instantiation_checks_arity() {
        let _ = RegSubst::instantiation(&[r(1)], &[r(10), r(20)]);
    }

    #[test]
    #[should_panic(expected = "conflicting binding")]
    fn conflicting_binding_panics() {
        let mut s = RegSubst::new();
        s.bind(r(1), r(2));
        s.bind(r(1), r(3));
    }

    #[test]
    fn repeated_consistent_binding_ok() {
        let s = RegSubst::instantiation(&[r(1), r(1)], &[r(5), r(5)]);
        assert_eq!(s.apply(r(1)), r(5));
    }

    #[test]
    fn to_equalities_is_ctr() {
        let s = RegSubst::from_pairs([(r(4), r(2)), (r(3), r(1))]);
        let c = s.to_equalities();
        assert_eq!(c.to_string(), "r1=r3 & r2=r4");
    }

    #[test]
    fn display() {
        let s = RegSubst::from_pairs([(r(1), r(2))]);
        assert_eq!(s.to_string(), "[r1->r2]");
    }
}
