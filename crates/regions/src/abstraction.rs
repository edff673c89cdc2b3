//! Constraint abstractions and their fixed-point analysis.
//!
//! The paper captures the region constraint of each class and method with a
//! *constraint abstraction* [Gustavsson & Svenningsson]:
//!
//! ```text
//! inv.cn⟨r1…rn⟩  = rc            (class invariant)
//! pre.m⟨r1…rn⟩   = rc            (method precondition)
//! ```
//!
//! where the right-hand side may conjoin atoms with *applications* of other
//! abstractions, e.g. (Fig 6):
//!
//! ```text
//! pre.join⟨r1…r9⟩ = (r2 ≥ r8) ∧ pre.join⟨r4,r5,r6,r1,r2,r3,r7,r8,r9⟩
//! ```
//!
//! Recursive systems (method SCCs with region-polymorphic recursion) are
//! solved by [`solve_fixpoint`]: Kleene iteration from `true`, substituting
//! the current approximation at each application and projecting onto the
//! abstraction's parameters, until closed forms are reached. Termination is
//! guaranteed because atoms range over the finite parameter set and
//! iterations only grow the approximation.

use crate::constraint::{Atom, ConstraintSet};
use crate::solve::Solver;
use crate::subst::RegSubst;
use crate::var::RegVar;
use std::collections::BTreeMap;
use std::fmt;

/// An application `q⟨r1…rn⟩` of a named abstraction to argument regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsCall {
    /// Name of the applied abstraction (e.g. `pre.join`).
    pub name: String,
    /// Argument regions, positionally matching the callee's parameters.
    pub args: Vec<RegVar>,
}

impl fmt::Display for AbsCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<", self.name)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(">")
    }
}

/// The body of an abstraction: atoms plus applications.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsBody {
    /// Plain atomic constraints.
    pub atoms: ConstraintSet,
    /// Applications of (possibly mutually recursive) abstractions.
    pub calls: Vec<AbsCall>,
}

impl AbsBody {
    /// A body with no calls.
    pub fn from_atoms(atoms: ConstraintSet) -> AbsBody {
        AbsBody {
            atoms,
            calls: Vec::new(),
        }
    }
}

/// A named, parameterized constraint abstraction `q⟨params⟩ = body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintAbs {
    /// Abstraction name (`inv.cn`, `pre.cn.mn` or `pre.mn`).
    pub name: String,
    /// Formal region parameters.
    pub params: Vec<RegVar>,
    /// Right-hand side.
    pub body: AbsBody,
}

impl fmt::Display for ConstraintAbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "> = {}", self.body.atoms)?;
        for c in &self.body.calls {
            write!(f, " & {c}")?;
        }
        Ok(())
    }
}

/// The environment `Q` of all constraint abstractions of a program.
#[derive(Debug, Clone, Default)]
pub struct AbsEnv {
    map: BTreeMap<String, ConstraintAbs>,
}

impl AbsEnv {
    /// An empty environment.
    pub fn new() -> AbsEnv {
        AbsEnv::default()
    }

    /// Inserts (or replaces) an abstraction.
    pub fn insert(&mut self, abs: ConstraintAbs) {
        self.map.insert(abs.name.clone(), abs);
    }

    /// Looks up by name.
    pub fn get(&self, name: &str) -> Option<&ConstraintAbs> {
        self.map.get(name)
    }

    /// Iterates in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ConstraintAbs> {
        self.map.values()
    }

    /// Number of abstractions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Conjoins extra atoms onto the body of `name` (used by override
    /// conflict resolution and escaping-region instantiation, which
    /// strengthen raw abstractions between solves). Returns `true` if the
    /// body actually grew.
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown.
    pub fn add_atoms(&mut self, name: &str, extra: &ConstraintSet) -> bool {
        let abs = self
            .map
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown abstraction `{name}`"));
        let before = abs.body.atoms.len();
        abs.body.atoms.and(extra);
        abs.body.atoms.len() != before
    }

    /// Instantiates the *closed form* of `name` with `args`: the
    /// abstraction must have been solved (no residual calls).
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown or still has residual calls.
    pub fn instantiate(&self, name: &str, args: &[RegVar]) -> ConstraintSet {
        let abs = self
            .map
            .get(name)
            .unwrap_or_else(|| panic!("unknown abstraction `{name}`"));
        assert!(
            abs.body.calls.is_empty(),
            "abstraction `{name}` has not been solved to closed form"
        );
        let s = RegSubst::instantiation(&abs.params, args);
        abs.body.atoms.subst(&s)
    }

    /// Conjoins the closed form of `name`, instantiated with `args`, onto
    /// `solver`: the same constraint as
    /// `solver.add_set(&self.instantiate(name, args))`, without building
    /// the substitution or the instantiated set.
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown or still has residual calls, or under
    /// the same arity and conflicting-binding conditions as
    /// [`RegSubst::instantiation`].
    pub fn instantiate_into(&self, name: &str, args: &[RegVar], solver: &mut Solver) {
        let abs = self
            .map
            .get(name)
            .unwrap_or_else(|| panic!("unknown abstraction `{name}`"));
        assert!(
            abs.body.calls.is_empty(),
            "abstraction `{name}` has not been solved to closed form"
        );
        add_instance(&abs.params, &abs.body.atoms, args, solver);
    }
}

/// Conjoins `atoms`, with `params[i]` renamed to `args[i]`, onto `solver`.
///
/// # Panics
///
/// Panics if the slices have different lengths or a parameter repeats with
/// conflicting arguments, as [`RegSubst::instantiation`] does.
fn add_instance(params: &[RegVar], atoms: &ConstraintSet, args: &[RegVar], solver: &mut Solver) {
    assert_eq!(
        params.len(),
        args.len(),
        "region arity mismatch: {} parameters vs {} arguments",
        params.len(),
        args.len()
    );
    // The first binding of a repeated parameter wins; a later one must
    // agree. Strictly increasing parameters (the usual case) cannot repeat.
    let bound = |v: RegVar| params.iter().position(|&p| p == v);
    if params.windows(2).any(|w| w[0] >= w[1]) {
        for (i, &p) in params.iter().enumerate() {
            let first = bound(p).expect("own parameter");
            assert_eq!(
                args[first], args[i],
                "conflicting binding for {p}: {} vs {}",
                args[first], args[i]
            );
        }
    }
    let apply = |v: RegVar| bound(v).map_or(v, |i| args[i]);
    for atom in atoms.iter() {
        let atom = match atom {
            Atom::Outlives(a, b) => Atom::outlives(apply(a), apply(b)),
            Atom::Eq(a, b) => Atom::eq(apply(a), apply(b)),
        };
        if !atom.is_trivial() {
            solver.add_atom(atom);
        }
    }
}

/// Solves a (mutually) recursive family of abstractions to closed forms.
///
/// `names` is the SCC to solve simultaneously; abstractions outside the SCC
/// that are applied from within must already be in closed form in `env`.
/// On return, every abstraction in `names` has an empty call list and its
/// atoms are the least fixed point projected onto its parameters — exactly
/// the iteration displayed in Fig 6(d).
///
/// Returns the number of Kleene iterations performed: one when no member
/// applies a member (the first pass is already the fixed point), otherwise
/// the passes up to and including the one that changed nothing.
///
/// # Panics
///
/// Panics if a call references an unknown abstraction or one outside the
/// SCC that still has residual calls.
pub fn solve_fixpoint(env: &mut AbsEnv, names: &[String]) -> usize {
    // Current approximations for the SCC, starting at `true`.
    let mut approx: BTreeMap<String, ConstraintSet> = names
        .iter()
        .map(|n| (n.clone(), ConstraintSet::new()))
        .collect();
    let member = |n: &str| {
        env.get(n)
            .unwrap_or_else(|| panic!("unknown abstraction `{n}`"))
    };
    let recursive = names.iter().any(|n| {
        member(n)
            .body
            .calls
            .iter()
            .any(|c| approx.contains_key(&c.name))
    });
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut changed = false;
        for name in names {
            let abs = member(name);
            // full = atoms ∧ (instantiated approximations of all calls)
            let mut solver = Solver::from_set(&abs.body.atoms);
            for call in &abs.body.calls {
                if let Some(a) = approx.get(&call.name) {
                    // Within the SCC: use the current approximation.
                    add_instance(&member(&call.name).params, a, &call.args, &mut solver);
                } else {
                    // Outside the SCC: must be closed.
                    env.instantiate_into(&call.name, &call.args, &mut solver);
                }
            }
            let params = abs.params.iter().copied().collect();
            let next = solver.project(&params);
            let cur = approx.get_mut(name).expect("approx seeded");
            if *cur != next {
                *cur = next;
                changed = true;
            }
        }
        if !changed || !recursive {
            break;
        }
        // Safety valve: the lattice is finite, but guard against bugs.
        assert!(
            iterations < 1000,
            "constraint-abstraction fixpoint failed to converge"
        );
    }
    // Write back closed forms.
    for name in names {
        let closed = approx.remove(name).expect("present");
        let abs = env.map.get_mut(name).expect("present");
        abs.body = AbsBody::from_atoms(closed);
    }
    iterations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Atom;

    fn r(i: u32) -> RegVar {
        RegVar(i)
    }

    /// Fig 6(d): pre.join⟨r1..r9⟩ = (r2 ≥ r8) ∧ pre.join⟨r4,r5,r6,r1,r2,r3,r7,r8,r9⟩
    /// must converge to r2 ≥ r8 ∧ r5 ≥ r8 in three iterations.
    #[test]
    fn fig6_join_fixpoint() {
        let params: Vec<RegVar> = (1..=9).map(r).collect();
        let args: Vec<RegVar> = [4, 5, 6, 1, 2, 3, 7, 8, 9].iter().map(|&i| r(i)).collect();
        let mut body = AbsBody::from_atoms(ConstraintSet::singleton(Atom::outlives(r(2), r(8))));
        body.calls.push(AbsCall {
            name: "pre.join".into(),
            args,
        });
        let mut env = AbsEnv::new();
        env.insert(ConstraintAbs {
            name: "pre.join".into(),
            params,
            body,
        });
        let iters = solve_fixpoint(&mut env, &["pre.join".to_string()]);
        let closed = env.get("pre.join").unwrap();
        assert!(closed.body.calls.is_empty());
        assert_eq!(closed.body.atoms.to_string(), "r2>=r8 & r5>=r8");
        // p0=true, p1={r2>=r8}, p2={r2>=r8, r5>=r8}, p3=p2: converges by
        // the 3rd recomputation (the 4th detects stability).
        assert!((3..=4).contains(&iters), "iterations: {iters}");
    }

    #[test]
    fn nonrecursive_abstraction_closes_in_one_step() {
        let mut env = AbsEnv::new();
        env.insert(ConstraintAbs {
            name: "inv.Pair".into(),
            params: vec![r(1), r(2), r(3)],
            body: AbsBody::from_atoms(
                [Atom::outlives(r(2), r(1)), Atom::outlives(r(3), r(1))]
                    .into_iter()
                    .collect(),
            ),
        });
        assert_eq!(solve_fixpoint(&mut env, &["inv.Pair".to_string()]), 1);
        let inst = env.instantiate("inv.Pair", &[r(10), r(20), r(30)]);
        assert_eq!(inst.to_string(), "r20>=r10 & r30>=r10");
    }

    #[test]
    fn mutual_recursion_converges() {
        // p<a,b> = (a>=b) ∧ q<b,a>;  q<a,b> = p<a,b>
        // q imports p's (a>=b) directly; p imports q<b,a> = p<b,a> → b>=a.
        // Fixpoint: both become a>=b ∧ b>=a, i.e. a=b.
        let (a, b) = (r(1), r(2));
        let mut env = AbsEnv::new();
        env.insert(ConstraintAbs {
            name: "p".into(),
            params: vec![a, b],
            body: AbsBody {
                atoms: ConstraintSet::singleton(Atom::outlives(a, b)),
                calls: vec![AbsCall {
                    name: "q".into(),
                    args: vec![b, a],
                }],
            },
        });
        env.insert(ConstraintAbs {
            name: "q".into(),
            params: vec![a, b],
            body: AbsBody {
                atoms: ConstraintSet::new(),
                calls: vec![AbsCall {
                    name: "p".into(),
                    args: vec![a, b],
                }],
            },
        });
        solve_fixpoint(&mut env, &["p".to_string(), "q".to_string()]);
        assert_eq!(env.get("p").unwrap().body.atoms.to_string(), "r1=r2");
        assert_eq!(env.get("q").unwrap().body.atoms.to_string(), "r1=r2");
    }

    #[test]
    fn call_to_closed_outside_scc() {
        let mut env = AbsEnv::new();
        env.insert(ConstraintAbs {
            name: "inv.A".into(),
            params: vec![r(1), r(2)],
            body: AbsBody::from_atoms(ConstraintSet::singleton(Atom::outlives(r(2), r(1)))),
        });
        env.insert(ConstraintAbs {
            name: "pre.m".into(),
            params: vec![r(3), r(4)],
            body: AbsBody {
                atoms: ConstraintSet::new(),
                calls: vec![AbsCall {
                    name: "inv.A".into(),
                    args: vec![r(3), r(4)],
                }],
            },
        });
        solve_fixpoint(&mut env, &["pre.m".to_string()]);
        assert_eq!(env.get("pre.m").unwrap().body.atoms.to_string(), "r4>=r3");
    }

    #[test]
    #[should_panic(expected = "unknown abstraction")]
    fn unknown_call_panics() {
        let mut env = AbsEnv::new();
        env.insert(ConstraintAbs {
            name: "p".into(),
            params: vec![r(1)],
            body: AbsBody {
                atoms: ConstraintSet::new(),
                calls: vec![AbsCall {
                    name: "nope".into(),
                    args: vec![r(1)],
                }],
            },
        });
        solve_fixpoint(&mut env, &["p".to_string()]);
    }

    #[test]
    fn display_forms() {
        let abs = ConstraintAbs {
            name: "pre.swap".into(),
            params: vec![r(1), r(2), r(3)],
            body: AbsBody::from_atoms(ConstraintSet::singleton(Atom::eq(r(2), r(3)))),
        };
        assert_eq!(abs.to_string(), "pre.swap<r1,r2,r3> = r2=r3");
    }
}
