//! In-crate property tests for the constraint solver: semantic soundness
//! against a brute-force model.
//!
//! The model: a constraint set is satisfied by an assignment of variables
//! to totally ordered "lifetimes" (here: integers, larger = lives longer,
//! with heap = +inf). `C ⊨ a` should hold iff every model of C satisfies
//! a. Since entailment over outlives/equality constraints is decided by
//! graph reachability, we can cross-check the solver against a randomized
//! model search: if the solver claims entailment, no counter-model may
//! exist among a batch of random assignments that satisfy C.

use cj_regions::{Atom, ConstraintSet, RegSubst, RegVar, Solver};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::cell::RefCell;
use std::collections::BTreeSet;

const NVARS: u32 = 6;

fn arb_atom() -> impl Strategy<Value = Atom> {
    (0..NVARS, 0..NVARS, any::<bool>()).prop_map(|(a, b, eq)| {
        if eq {
            Atom::eq(RegVar(a + 1), RegVar(b + 1)) // avoid heap for the model
        } else {
            Atom::outlives(RegVar(a + 1), RegVar(b + 1))
        }
    })
}

fn satisfies(assign: &[i32], atom: Atom) -> bool {
    let life = |v: RegVar| assign[(v.0 - 1) as usize];
    match atom {
        Atom::Outlives(a, b) => life(a) >= life(b),
        Atom::Eq(a, b) => life(a) == life(b),
    }
}

proptest! {
    /// If the solver claims `C ⊨ atom`, then every random assignment that
    /// satisfies C also satisfies atom (soundness of entailment).
    #[test]
    fn entailment_is_sound_wrt_lifetime_models(
        atoms in proptest::collection::vec(arb_atom(), 0..10),
        candidates in proptest::collection::vec(
            proptest::collection::vec(0i32..5, NVARS as usize), 0..40),
        probe in arb_atom(),
    ) {
        let set: ConstraintSet = atoms.iter().copied().collect();
        let mut solver = Solver::from_set(&set);
        if solver.entails_atom(probe) {
            for assign in &candidates {
                let model = set.iter().all(|a| satisfies(assign, a));
                if model {
                    prop_assert!(
                        satisfies(assign, probe),
                        "solver claims {probe} from {set}, \
                         but assignment {assign:?} is a counter-model"
                    );
                }
            }
        }
    }

    /// Conjunction is monotone: adding atoms never loses entailments.
    #[test]
    fn entailment_is_monotone(
        base in proptest::collection::vec(arb_atom(), 0..8),
        extra in proptest::collection::vec(arb_atom(), 0..4),
        probe in arb_atom(),
    ) {
        let small: ConstraintSet = base.iter().copied().collect();
        let mut big = small.clone();
        big.extend(extra.iter().copied());
        let mut s1 = Solver::from_set(&small);
        let mut s2 = Solver::from_set(&big);
        if s1.entails_atom(probe) {
            prop_assert!(s2.entails_atom(probe));
        }
    }

    /// Substitution commutes with conjunction.
    #[test]
    fn subst_distributes_over_conj(
        a in proptest::collection::vec(arb_atom(), 0..6),
        b in proptest::collection::vec(arb_atom(), 0..6),
        from in 1..=NVARS,
        to in 1..=NVARS,
    ) {
        let sa: ConstraintSet = a.iter().copied().collect();
        let sb: ConstraintSet = b.iter().copied().collect();
        let sub = cj_regions::RegSubst::from_pairs([(RegVar(from), RegVar(to))]);
        let lhs = sa.conj(&sb).subst(&sub);
        let rhs = sa.subst(&sub).conj(&sb.subst(&sub));
        prop_assert_eq!(lhs, rhs);
    }

    /// A solved fixpoint is itself a fixpoint: re-solving closed
    /// abstractions changes nothing.
    #[test]
    fn fixpoint_is_idempotent(atoms in proptest::collection::vec(arb_atom(), 0..8)) {
        use cj_regions::{AbsBody, AbsEnv, ConstraintAbs};
        let params: Vec<RegVar> = (1..=NVARS).map(RegVar).collect();
        let set: ConstraintSet = atoms.iter().copied().collect();
        let mut env = AbsEnv::new();
        let p = env.push(ConstraintAbs {
            name: "p".into(),
            params: params.clone(),
            body: AbsBody::from_atoms(set),
        });
        let mut solver = Solver::new();
        cj_regions::abstraction::solve_fixpoint(&mut env, &[p], &mut solver);
        let once = env.get(p).body.atoms.clone();
        cj_regions::abstraction::solve_fixpoint(&mut env, &[p], &mut solver);
        let twice = env.get(p).body.atoms.clone();
        prop_assert_eq!(once, twice);
    }
}

/// Variables of the model test: the heap plus six others.
const MODEL_VARS: usize = 7;

/// One step of a model-test run: `(kind, a, b, mask1, mask2)`. Kinds 0–2
/// add `a ≥ b` (twice as likely) or `a = b`; kinds 3–7 query `equal`,
/// `outlives_holds`, `project` onto `mask1`, `escape_closure` of `mask1`
/// over `mask2`, and `outlives_any` from `mask1` to `mask2`; kind 8 asks
/// `outlived_among` which variables `a` outlives and, if `b` is one of
/// them, adds `a = b` right after the query, as `instantiate_escaping`
/// equates an escaping region with one of its signature lower bounds.
type Step = (u8, u32, u32, u32, u32);

fn arb_step() -> impl Strategy<Value = Step> {
    let var = 0..MODEL_VARS as u32;
    let mask = 0..1u32 << MODEL_VARS;
    (0u8..9, var.clone(), var, mask.clone(), mask)
}

fn vars_of(mask: u32) -> impl Iterator<Item = RegVar> {
    (0..MODEL_VARS as u32)
        .filter(move |i| mask & (1 << i) != 0)
        .map(RegVar)
}

/// The brute-force model: `m[a][b]` iff the atoms entail `a ≥ b`. It is
/// the reflexive–transitive closure of the atoms (an equality counts as
/// both directions) plus `heap ≥ r` for every `r`; `r ≥ heap` then makes
/// `r` equal to the heap by transitivity.
fn model(atoms: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let n = MODEL_VARS;
    let mut m = vec![vec![false; n]; n];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = true;
    }
    m[0] = vec![true; n];
    for &(a, b) in atoms {
        m[a][b] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if m[i][k] && m[k][j] {
                    m[i][j] = true;
                }
            }
        }
    }
    m
}

thread_local! {
    /// The one solver of every case of the model test: each case resets
    /// it, as inference resets one solver for each method it solves.
    static MODEL_SOLVER: RefCell<Solver> = RefCell::new(Solver::new());
}

/// Runs one model-test case on `solver`, which holds `true`.
fn run_model_case(solver: &mut Solver, steps: Vec<Step>) -> Result<(), TestCaseError> {
    let mut atoms: Vec<(usize, usize)> = Vec::new();
    let all: Vec<RegVar> = (0..MODEL_VARS as u32).map(RegVar).collect();
    for (kind, a, b, mask1, mask2) in steps {
        let (ra, rb) = (RegVar(a), RegVar(b));
        let (ia, ib) = (a as usize, b as usize);
        let m = model(&atoms);
        let ge = |x: RegVar, y: RegVar| m[x.index()][y.index()];
        match kind {
            0 | 1 => {
                solver.add_outlives(ra, rb);
                atoms.push((ia, ib));
                continue;
            }
            2 => {
                solver.add_eq(ra, rb);
                atoms.extend([(ia, ib), (ib, ia)]);
                continue;
            }
            3 => prop_assert_eq!(
                solver.equal(ra, rb),
                ge(ra, rb) && ge(rb, ra),
                "{ra} = {rb}"
            ),
            4 => prop_assert_eq!(solver.outlives_holds(ra, rb), ge(ra, rb), "{ra} >= {rb}"),
            5 => {
                let keep: BTreeSet<RegVar> = vars_of(mask1).collect();
                let projected = solver.project(&keep);
                let mut reloaded = Solver::from_set(&projected);
                for atom in projected.iter() {
                    let (x, y) = match atom {
                        Atom::Outlives(x, y) | Atom::Eq(x, y) => (x, y),
                    };
                    for v in [x, y] {
                        prop_assert!(
                            v.is_heap() || keep.contains(&v),
                            "{v} not kept in {projected}"
                        );
                    }
                }
                for &x in &keep {
                    for &y in &keep {
                        prop_assert_eq!(
                            reloaded.outlives_holds(x, y),
                            ge(x, y),
                            "{x} >= {y} after projecting onto {keep:?}: {projected}"
                        );
                    }
                }
            }
            6 => {
                let universe: Vec<RegVar> = vars_of(mask2).collect();
                let escapes = solver.escape_closure(vars_of(mask1), &universe);
                let got: BTreeSet<RegVar> = universe
                    .iter()
                    .copied()
                    .zip(escapes)
                    .filter_map(|(v, e)| e.then_some(v))
                    .collect();
                // A region equal to the heap escapes even without seeds.
                let want: BTreeSet<RegVar> = universe
                    .iter()
                    .copied()
                    .filter(|&v| ge(v, RegVar::HEAP) || vars_of(mask1).any(|e| ge(v, e)))
                    .collect();
                prop_assert_eq!(got, want);
            }
            7 => {
                let sources: Vec<RegVar> = vars_of(mask1).collect();
                solver.normalize(); // so that `find` gives final representatives
                let targets: Vec<RegVar> = vars_of(mask2).map(|t| solver.find(t)).collect();
                let got = solver.outlives_any(&sources, |rep| targets.contains(&rep));
                let want: Vec<bool> = sources
                    .iter()
                    .map(|&v| ge(v, RegVar::HEAP) || vars_of(mask2).any(|t| ge(v, t)))
                    .collect();
                prop_assert_eq!(got, want, "sources {sources:?}, targets {targets:?}");
            }
            _ => {
                let mut lower = Vec::new();
                solver.outlived_among(ra, &all, &mut lower);
                let want: Vec<RegVar> = all.iter().copied().filter(|&v| ge(ra, v)).collect();
                prop_assert_eq!(&lower, &want, "what {ra} outlives");
                if lower.contains(&rb) {
                    solver.add_eq(ra, rb);
                    atoms.extend([(ia, ib), (ib, ia)]);
                    continue;
                }
            }
        }
        for &v in &all {
            let class = all.iter().copied().filter(|&w| ge(v, w) && ge(w, v));
            let want = if ge(v, RegVar::HEAP) {
                RegVar::HEAP
            } else {
                class.min().expect("v")
            };
            prop_assert_eq!(solver.find(v), want, "representative of {v}");
        }
    }
    // After every step, one more query must see every atom.
    let m = model(&atoms);
    for &x in &all {
        for &y in &all {
            prop_assert_eq!(
                solver.outlives_holds(x, y),
                m[x.index()][y.index()],
                "{x} >= {y} at the end"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Random interleavings of `add_eq`/`add_outlives` (the heap included)
    /// with queries, on one solver that every case resets and reuses:
    /// every answer matches the brute-force model, and after every query
    /// each class is represented by the heap or by its smallest member.
    #[test]
    fn solver_matches_the_closure_model(steps in proptest::collection::vec(arb_step(), 0..40)) {
        MODEL_SOLVER.with_borrow_mut(|solver| {
            solver.reset();
            run_model_case(solver, steps)
        })?;
    }
}

/// The one abstraction of a [`closed_application`] environment.
const Q: cj_regions::AbsId = cj_regions::AbsId(0);

/// A closed abstraction `q⟨params⟩` whose atoms join the positions
/// `atoms` of `params` and the heap (position `params.len()`), applied to
/// `args`. Parameters may repeat; a repeated parameter gets the argument
/// of its first position, so the application is well formed.
fn closed_application(
    params: Vec<u32>,
    atoms: &[(usize, usize, bool)],
    args: Vec<u32>,
) -> (cj_regions::AbsEnv, Vec<RegVar>) {
    use cj_regions::{AbsBody, AbsEnv, ConstraintAbs};
    let params: Vec<RegVar> = params.into_iter().map(RegVar).collect();
    let mut args: Vec<RegVar> = args.into_iter().map(RegVar).collect();
    args.truncate(params.len());
    for i in 0..params.len() {
        let first = params.iter().position(|&p| p == params[i]).expect("own");
        args[i] = args[first];
    }
    let at = |i: usize| {
        params
            .get(i % (params.len() + 1))
            .copied()
            .unwrap_or(RegVar::HEAP)
    };
    let body: ConstraintSet = atoms
        .iter()
        .map(|&(a, b, eq)| {
            if eq {
                Atom::eq(at(a), at(b))
            } else {
                Atom::outlives(at(a), at(b))
            }
        })
        .collect();
    let mut env = AbsEnv::new();
    env.push(ConstraintAbs {
        name: "q".into(),
        params,
        body: AbsBody::from_atoms(body),
    });
    (env, args)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// One `outlived_among(a, probes)` search answers `outlives_holds(a,
    /// b)` for every probe `b`: the heap, classes the solver holds, and
    /// variables it has never seen (`MODEL_VARS` and up).
    #[test]
    fn outlived_among_agrees_with_outlives_holds(steps in proptest::collection::vec(arb_step(), 0..40)) {
        let mut solver = Solver::new();
        for (kind, a, b, _, _) in steps {
            match kind {
                0 | 1 => solver.add_outlives(RegVar(a), RegVar(b)),
                2 => solver.add_eq(RegVar(a), RegVar(b)),
                _ => {}
            }
        }
        let probes: Vec<RegVar> = (0..MODEL_VARS as u32 + 2).map(RegVar).collect();
        let mut lower = Vec::new();
        for &a in &probes {
            lower.clear();
            solver.outlived_among(a, &probes, &mut lower);
            for &b in &probes {
                prop_assert_eq!(lower.contains(&b), solver.outlives_holds(a, b), "{a} >= {b}: {lower:?}");
            }
        }
    }

    /// `instantiate_into` conjoins the same constraint as adding the
    /// closed atoms under `RegSubst::instantiation`: both solvers project
    /// alike onto every variable either could mention.
    #[test]
    fn instantiate_into_matches_instantiate(
        base in proptest::collection::vec(arb_atom(), 0..8),
        params in proptest::collection::vec(1u32..=8, 1..6),
        atoms in proptest::collection::vec((0usize..7, 0usize..7, any::<bool>()), 0..8),
        args in proptest::collection::vec(0u32..=12, 6),
    ) {
        let (env, args) = closed_application(params, &atoms, args);
        let base: ConstraintSet = base.iter().copied().collect();
        let mut via_set = Solver::from_set(&base);
        let q = env.get(Q);
        via_set.add_set(&q.body.atoms.subst(&RegSubst::instantiation(&q.params, &args)));
        let mut direct = Solver::from_set(&base);
        env.instantiate_into(Q, &args, &mut direct);
        let all: BTreeSet<RegVar> = (0..=12).map(RegVar).collect();
        prop_assert_eq!(direct.project(&all), via_set.project(&all));
    }
}

/// A repeated parameter bound to two different arguments is an
/// ill-formed application, and `instantiate_into` still rejects it.
#[test]
#[should_panic(expected = "conflicting binding")]
fn instantiate_into_rejects_conflicting_arguments() {
    use cj_regions::{AbsBody, AbsEnv, ConstraintAbs};
    let mut env = AbsEnv::new();
    let q = env.push(ConstraintAbs {
        name: "q".into(),
        params: vec![RegVar(1), RegVar(1)],
        body: AbsBody::from_atoms(ConstraintSet::new()),
    });
    env.instantiate_into(q, &[RegVar(2), RegVar(3)], &mut Solver::new());
}
