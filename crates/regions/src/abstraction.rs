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
//! solved by [`solve_fixpoint`]: a worklist iteration from `true` that
//! re-solves a member, substituting the current approximations at its
//! applications and projecting onto its parameters, whenever a member it
//! applies changed. Each new approximation entails the old one, and atoms
//! range over a member's parameters and the heap, so a member with `k`
//! parameters changes at most `(k + 1)²` times. Every change re-queues
//! only that member's callers, which bounds the member solves without a
//! cap.

use crate::constraint::{Atom, ConstraintSet};
use crate::solve::Solver;
use crate::var::RegVar;
use std::collections::VecDeque;
use std::fmt;

/// A dense abstraction id: the abstraction's index in its [`AbsEnv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbsId(pub u32);

impl AbsId {
    /// The id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An application `q⟨r1…rn⟩` of an abstraction to argument regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsCall {
    /// The applied abstraction.
    pub callee: AbsId,
    /// Argument regions, positionally matching the callee's parameters.
    pub args: Vec<RegVar>,
}

impl fmt::Display for AbsCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}<", self.callee.0)?;
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
    /// Abstraction name (`inv.cn`, `pre.cn.mn` or `pre.mn`), for printing
    /// and for answering queries by name.
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

/// The environment `Q` of all constraint abstractions of a program,
/// indexed by [`AbsId`].
#[derive(Debug, Clone, Default)]
pub struct AbsEnv {
    abs: Vec<ConstraintAbs>,
}

impl FromIterator<ConstraintAbs> for AbsEnv {
    fn from_iter<I: IntoIterator<Item = ConstraintAbs>>(iter: I) -> AbsEnv {
        AbsEnv {
            abs: iter.into_iter().collect(),
        }
    }
}

impl AbsEnv {
    /// An empty environment.
    pub fn new() -> AbsEnv {
        AbsEnv::default()
    }

    /// Appends an abstraction, returning its id.
    pub fn push(&mut self, abs: ConstraintAbs) -> AbsId {
        self.abs.push(abs);
        AbsId(self.abs.len() as u32 - 1)
    }

    /// The abstraction `id`.
    pub fn get(&self, id: AbsId) -> &ConstraintAbs {
        &self.abs[id.index()]
    }

    /// The abstraction `id`, mutably.
    pub fn get_mut(&mut self, id: AbsId) -> &mut ConstraintAbs {
        &mut self.abs[id.index()]
    }

    /// The id of the abstraction called `name`, if any.
    pub fn find(&self, name: &str) -> Option<AbsId> {
        let i = self.abs.iter().position(|a| a.name == name)?;
        Some(AbsId(i as u32))
    }

    /// Iterates in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ConstraintAbs> {
        self.abs.iter()
    }

    /// Number of abstractions.
    pub fn len(&self) -> usize {
        self.abs.len()
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.abs.is_empty()
    }

    /// Conjoins extra atoms onto the body of `id` (used by override
    /// conflict resolution and escaping-region instantiation, which
    /// strengthen raw abstractions between solves). Returns `true` if the
    /// body actually grew.
    pub fn add_atoms(&mut self, id: AbsId, extra: &ConstraintSet) -> bool {
        let atoms = &mut self.get_mut(id).body.atoms;
        let before = atoms.len();
        atoms.and(extra);
        atoms.len() != before
    }

    /// Conjoins the *closed form* of `id`, instantiated with `args`, onto
    /// `solver`: the same constraint as adding the closed atoms renamed by
    /// [`RegSubst::instantiation`], without building the substitution or
    /// the instantiated set.
    ///
    /// # Panics
    ///
    /// Panics if `id` still has residual calls, or under the same arity and
    /// conflicting-binding conditions as [`RegSubst::instantiation`].
    ///
    /// [`RegSubst::instantiation`]: crate::subst::RegSubst::instantiation
    pub fn instantiate_into(&self, id: AbsId, args: &[RegVar], solver: &mut Solver) {
        let abs = self.get(id);
        assert!(
            abs.body.calls.is_empty(),
            "abstraction `{}` has not been solved to closed form",
            abs.name
        );
        add_instance(&abs.params, &abs.body.atoms, args, solver);
    }
}

/// Conjoins `atoms`, with `params[i]` renamed to `args[i]`, onto `solver`.
///
/// # Panics
///
/// Panics if the slices have different lengths or a parameter repeats with
/// conflicting arguments, as
/// [`RegSubst::instantiation`](crate::subst::RegSubst::instantiation) does.
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
/// `members` is the SCC to solve simultaneously; abstractions outside the
/// SCC that are applied from within must already be in closed form in
/// `env`. On return, every member has an empty call list and its atoms are
/// the least fixed point projected onto its parameters — the fixed point of
/// Fig 6(d). Members are solved once each in the given order (callees
/// first in cj-frontend's `tarjan_scc` order), and then again only when a
/// member they apply changes.
///
/// Every member solve [resets](Solver::reset) `solver` and loads it anew,
/// so one solver serves a whole pass over the condensation and its tables
/// grow only until they fit the largest member; what it holds on return is
/// unspecified.
///
/// Returns the number of member solves: one per member when no member
/// applies a member. Each call is one `solve-scc` trace span whose
/// `members` and `iterations` counters give the SCC size and that count;
/// its `miss` counter is always 1, since every solve starts from `true`.
///
/// # Panics
///
/// Panics if a call outside the SCC references an abstraction that still
/// has residual calls.
pub fn solve_fixpoint(env: &mut AbsEnv, members: &[AbsId], solver: &mut Solver) -> usize {
    let mut span = cj_trace::span("pipeline", "solve-scc");
    span.add("members", members.len() as u64);
    span.add("miss", 1);
    // A callee's member position, by binary search so that a large SCC
    // stays linear in its calls.
    let mut sorted: Vec<(AbsId, usize)> = members.iter().copied().zip(0..).collect();
    sorted.sort_unstable();
    let position = |id: AbsId| {
        sorted
            .binary_search_by_key(&id, |&(m, _)| m)
            .ok()
            .map(|k| sorted[k].1)
    };
    // The members applying each member, by position, each listed once.
    let mut callers = vec![Vec::new(); members.len()];
    for (i, &m) in members.iter().enumerate() {
        for j in env
            .get(m)
            .body
            .calls
            .iter()
            .filter_map(|c| position(c.callee))
        {
            if callers[j].last() != Some(&i) {
                callers[j].push(i);
            }
        }
    }
    // Current approximations, by member position, starting at `true`.
    let mut approx = vec![ConstraintSet::new(); members.len()];
    let mut queued = vec![true; members.len()];
    let mut queue: VecDeque<usize> = (0..members.len()).collect();
    let mut solves = 0;
    while let Some(i) = queue.pop_front() {
        queued[i] = false;
        solves += 1;
        let abs = env.get(members[i]);
        // full = atoms ∧ (instantiated approximations of all calls)
        solver.reset();
        solver.add_set(&abs.body.atoms);
        for call in &abs.body.calls {
            match position(call.callee) {
                // Within the SCC: use the current approximation.
                Some(j) => {
                    add_instance(&env.get(call.callee).params, &approx[j], &call.args, solver)
                }
                // Outside the SCC: must be closed.
                None => env.instantiate_into(call.callee, &call.args, solver),
            }
        }
        let next = solver.project(&abs.params);
        if approx[i] != next {
            if cfg!(debug_assertions) {
                solver.reset();
                solver.add_set(&next);
                assert!(solver.entails(&approx[i]), "not monotone");
            }
            approx[i] = next;
            for &c in &callers[i] {
                if !std::mem::replace(&mut queued[c], true) {
                    queue.push_back(c);
                }
            }
        }
    }
    // Write back closed forms.
    for (&m, closed) in members.iter().zip(approx) {
        env.get_mut(m).body = AbsBody::from_atoms(closed);
    }
    span.add("iterations", solves as u64);
    solves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Atom;

    fn r(i: u32) -> RegVar {
        RegVar(i)
    }

    fn regions(ids: &[u32]) -> Vec<RegVar> {
        ids.iter().map(|&i| r(i)).collect()
    }

    fn call(callee: AbsId, args: &[u32]) -> AbsCall {
        AbsCall {
            callee,
            args: regions(args),
        }
    }

    fn abs(name: &str, params: &[u32], atoms: &[Atom], calls: Vec<AbsCall>) -> ConstraintAbs {
        ConstraintAbs {
            name: name.into(),
            params: regions(params),
            body: AbsBody {
                atoms: atoms.iter().copied().collect(),
                calls,
            },
        }
    }

    /// Fig 6(d): pre.join⟨r1..r9⟩ = (r2 ≥ r8) ∧ pre.join⟨r4,r5,r6,r1,r2,r3,r7,r8,r9⟩
    /// must converge to r2 ≥ r8 ∧ r5 ≥ r8 in three solves.
    #[test]
    fn fig6_join_fixpoint() {
        let mut env = AbsEnv::new();
        let join = env.push(abs(
            "pre.join",
            &[1, 2, 3, 4, 5, 6, 7, 8, 9],
            &[Atom::outlives(r(2), r(8))],
            vec![call(AbsId(0), &[4, 5, 6, 1, 2, 3, 7, 8, 9])],
        ));
        let iters = solve_fixpoint(&mut env, &[join], &mut Solver::new());
        let closed = env.get(join);
        assert!(closed.body.calls.is_empty());
        assert_eq!(closed.body.atoms.to_string(), "r2>=r8 & r5>=r8");
        // p0=true, p1={r2>=r8}, p2={r2>=r8, r5>=r8}, p3=p2: the third
        // solve changes nothing and re-queues no caller.
        assert_eq!(iters, 3);
    }

    #[test]
    fn nonrecursive_abstraction_closes_in_one_step() {
        let mut env = AbsEnv::new();
        let atoms = [Atom::outlives(r(2), r(1)), Atom::outlives(r(3), r(1))];
        let pair = env.push(abs("inv.Pair", &[1, 2, 3], &atoms, Vec::new()));
        assert_eq!(solve_fixpoint(&mut env, &[pair], &mut Solver::new()), 1);
        let args = regions(&[10, 20, 30]);
        let mut inst = Solver::new();
        env.instantiate_into(pair, &args, &mut inst);
        let shown = inst.project(&args).to_string();
        assert_eq!(shown, "r20>=r10 & r30>=r10");
        assert_eq!(env.find("inv.Pair"), Some(pair));
        assert_eq!(env.find("inv.Nope"), None);
    }

    #[test]
    fn mutual_recursion_converges() {
        // p<a,b> = (a>=b) ∧ q<b,a>;  q<a,b> = p<a,b>
        // q imports p's (a>=b) directly; p imports q<b,a> = p<b,a> → b>=a.
        // Fixpoint: both become a>=b ∧ b>=a, i.e. a=b. The SCC is passed
        // out of id order.
        let (p, q) = (AbsId(0), AbsId(1));
        let mut env: AbsEnv = [
            abs(
                "p",
                &[1, 2],
                &[Atom::outlives(r(1), r(2))],
                vec![call(q, &[2, 1])],
            ),
            abs("q", &[1, 2], &[], vec![call(p, &[1, 2])]),
        ]
        .into_iter()
        .collect();
        solve_fixpoint(&mut env, &[q, p], &mut Solver::new());
        assert_eq!(env.get(p).body.atoms.to_string(), "r1=r2");
        assert_eq!(env.get(q).body.atoms.to_string(), "r1=r2");
    }

    /// A ring p0 → p1 → … → p4 → p0 whose base atom sits on p0: the closed
    /// forms and the number of solves do not depend on whether the members
    /// arrive callees-first or callers-first.
    #[test]
    fn ring_solves_do_not_depend_on_member_order() {
        let n = 5u32;
        let ring = || -> AbsEnv {
            (0..n)
                .map(|i| {
                    let atoms = if i == 0 {
                        vec![Atom::outlives(r(1), r(2))]
                    } else {
                        vec![]
                    };
                    abs(
                        &format!("p{i}"),
                        &[1, 2],
                        &atoms,
                        vec![call(AbsId((i + 1) % n), &[1, 2])],
                    )
                })
                .collect()
        };
        let callees_first: Vec<AbsId> = (0..n).rev().map(AbsId).collect();
        let callers_first: Vec<AbsId> = (0..n).map(AbsId).collect();
        let (mut a, mut b) = (ring(), ring());
        let mut solver = Solver::new();
        let solves_a = solve_fixpoint(&mut a, &callees_first, &mut solver);
        let solves_b = solve_fixpoint(&mut b, &callers_first, &mut solver);
        for i in 0..n {
            assert_eq!(a.get(AbsId(i)).body.atoms.to_string(), "r1>=r2");
            assert_eq!(a.get(AbsId(i)).body, b.get(AbsId(i)).body);
        }
        // Callees-first: one solve each, then one lap of re-solves that
        // carries p0's atom around the ring, and p0 once more.
        assert_eq!(solves_a, 2 * n as usize);
        assert!(solves_b <= 2 * solves_a, "{solves_b} vs {solves_a}");
    }

    #[test]
    fn call_to_closed_outside_scc() {
        let mut env = AbsEnv::new();
        let inv = env.push(abs(
            "inv.A",
            &[1, 2],
            &[Atom::outlives(r(2), r(1))],
            Vec::new(),
        ));
        let m = env.push(abs("pre.m", &[3, 4], &[], vec![call(inv, &[3, 4])]));
        solve_fixpoint(&mut env, &[m], &mut Solver::new());
        assert_eq!(env.get(m).body.atoms.to_string(), "r4>=r3");
    }

    #[test]
    #[should_panic(expected = "has not been solved to closed form")]
    fn call_to_unsolved_outside_scc_panics() {
        let (p, q) = (AbsId(0), AbsId(1));
        let mut env: AbsEnv = [
            abs("p", &[1], &[], vec![call(q, &[1])]),
            abs("q", &[1], &[], vec![call(p, &[1])]),
        ]
        .into_iter()
        .collect();
        solve_fixpoint(&mut env, &[p], &mut Solver::new());
    }

    #[test]
    fn display_forms() {
        let swap = abs("pre.swap", &[1, 2, 3], &[Atom::eq(r(2), r(3))], Vec::new());
        assert_eq!(swap.to_string(), "pre.swap<r1,r2,r3> = r2=r3");
    }
}
