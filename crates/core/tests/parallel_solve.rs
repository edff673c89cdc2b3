//! Property tests for the memoized SCC solve: over random recursive
//! abstraction systems, [`solve_all_memo`] must produce a closed
//! environment **bit-identical** to the memo-less [`solve_all`] ground
//! truth, a warm memo must replay it without iterating, and one memo
//! shared by concurrent solvers (how daemon clients share it) must hand
//! every thread the same result. Only the memo hit/miss split may differ
//! between runs — never the result.

use cj_infer::options::InferStats;
use cj_infer::pipeline::{solve_all, solve_all_memo};
use cj_regions::abstraction::{AbsBody, AbsCall, AbsEnv, AbsId, ConstraintAbs};
use cj_regions::constraint::{Atom, ConstraintSet};
use cj_regions::incremental::SolveMemo;
use cj_regions::var::RegVar;
use proptest::prelude::*;

/// One abstraction spec: parameter count, atom seeds, call seeds.
type AbsSpec = (u8, Vec<(u8, u8, bool)>, Vec<(u8, u8)>);

fn arb_system() -> impl Strategy<Value = Vec<AbsSpec>> {
    proptest::collection::vec(
        (
            1u8..5,
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
        ),
        1..9,
    )
}

/// Decodes a spec into a well-formed (all callees known, arities matching)
/// abstraction environment `q0..qN` (`qi` has id `i`), with arbitrary
/// recursion and mutual recursion between the abstractions.
fn build_env(spec: &[AbsSpec]) -> AbsEnv {
    let pcounts: Vec<usize> = spec.iter().map(|(p, _, _)| *p as usize).collect();
    let mut env = AbsEnv::new();
    for (i, (p, atoms, calls)) in spec.iter().enumerate() {
        let base = (i as u32) * 10 + 1;
        let params: Vec<RegVar> = (0..*p as u32).map(|k| RegVar(base + k)).collect();
        let vars: Vec<RegVar> = params.iter().copied().chain([RegVar::HEAP]).collect();
        let atom_set: ConstraintSet = atoms
            .iter()
            .map(|&(a, b, eq)| {
                let x = vars[a as usize % vars.len()];
                let y = vars[b as usize % vars.len()];
                if eq {
                    Atom::eq(x, y)
                } else {
                    Atom::outlives(x, y)
                }
            })
            .collect();
        let abs_calls = calls
            .iter()
            .map(|&(c, s)| {
                let callee = c as usize % spec.len();
                let args: Vec<RegVar> = (0..pcounts[callee])
                    .map(|k| vars[(s as usize + k) % vars.len()])
                    .collect();
                AbsCall {
                    callee: AbsId(callee as u32),
                    args,
                }
            })
            .collect();
        env.push(ConstraintAbs {
            name: format!("q{i}"),
            params,
            body: AbsBody {
                atoms: atom_set,
                calls: abs_calls,
            },
        });
    }
    env
}

fn env_string(env: &AbsEnv) -> String {
    env.iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

proptest! {
    #[test]
    fn memoized_solve_equals_solve_all(spec in arb_system()) {
        let env = build_env(&spec);
        let memo = SolveMemo::new();
        let mut cold_stats = InferStats::default();
        let (cold, _) = solve_all_memo(&env, &memo, &mut cold_stats);
        let (plain, _) = solve_all(&env);
        prop_assert_eq!(env_string(&cold), env_string(&plain));
        // A warm memo must replay the identical environment too, with
        // every SCC a hit.
        let mut warm_stats = InferStats::default();
        let (warm, warm_iters) = solve_all_memo(&env, &memo, &mut warm_stats);
        prop_assert_eq!(env_string(&cold), env_string(&warm));
        prop_assert_eq!(warm_stats.sccs_solved, 0);
        prop_assert_eq!(warm_iters, 0);
        // Every SCC is accounted exactly once per solve.
        prop_assert_eq!(
            warm_stats.sccs_reused,
            cold_stats.sccs_solved + cold_stats.sccs_reused
        );
    }

    #[test]
    fn a_memo_shared_across_threads_hands_out_identical_results(spec in arb_system()) {
        let env = build_env(&spec);
        let (want, _) = solve_all(&env);
        let memo = SolveMemo::new();
        let results: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut stats = InferStats::default();
                        env_string(&solve_all_memo(&env, &memo, &mut stats).0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in results {
            prop_assert_eq!(&got, &env_string(&want));
        }
    }
}
