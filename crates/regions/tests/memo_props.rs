//! Property tests for [`SolveMemo`]'s bounded whole-table flush: under a
//! tiny byte budget that forces constant evictions, owner-tagged accounting
//! must stay exact (every solve is exactly one hit or one miss, shared
//! hits only on other clients' entries), an entry freshly stored in a
//! solve round must never be flushed by its own insertion (the immediate
//! re-solve always hits), and whatever the eviction pattern, every reused
//! closed form must equal the ground-truth fixpoint.

use cj_regions::abstraction::{AbsBody, AbsEnv, AbsId, ConstraintAbs};
use cj_regions::constraint::{Atom, ConstraintSet};
use cj_regions::incremental::{solve_scc_memo_as, SolveMemo};
use cj_regions::var::RegVar;
use proptest::prelude::*;

/// A whole-table byte budget that holds any one [`variant_env`] entry
/// (84–216 bytes each) but at most six of them, so distinct keys keep
/// evicting.
const TINY: usize = 512;

/// The one abstraction of a [`variant_env`].
const Q: AbsId = AbsId(0);

/// Builds the single-abstraction system of one `variant`, over parameters
/// starting at `base` (so α-equivalent copies differ in raw ids). The
/// atom pattern is a function of the variant bits only, so two ops with
/// the same variant are α-equivalent no matter their bases.
fn variant_env(variant: u8, base: u32) -> AbsEnv {
    let k = 2 + (variant % 4) as usize;
    let params: Vec<RegVar> = (0..k as u32).map(|i| RegVar(base + i)).collect();
    let mut atoms = ConstraintSet::new();
    for bit in 0..6 {
        if variant >> bit & 1 == 1 {
            let a = params[bit % k];
            let b = params[(bit + 1 + bit / k) % k];
            if bit % 2 == 0 {
                atoms.add(Atom::outlives(a, b));
            } else {
                atoms.add(Atom::eq(a, b));
            }
        }
    }
    let mut env = AbsEnv::new();
    env.push(ConstraintAbs {
        name: "q".to_string(),
        params,
        body: AbsBody::from_atoms(atoms),
    });
    env
}

/// The ground-truth closed form of a variant, canonicalized over a fixed
/// base so solves at any base compare equal after rebasing to it.
fn ground_truth(variant: u8) -> String {
    let mut env = variant_env(variant, 1);
    cj_regions::abstraction::solve_fixpoint(&mut env, &[Q]);
    env.get(Q).body.atoms.to_string()
}

proptest! {
    #[test]
    fn bounded_flush_preserves_accounting_and_round_local_entries(
        ops in proptest::collection::vec((any::<u8>(), 0u8..3), 1..60)
    ) {
        // A few entries in the whole table: distinct keys keep evicting.
        let memo = SolveMemo::with_capacity(TINY);
        let clients: Vec<u64> = (0..3).map(|_| memo.register_client()).collect();
        let mut solves = 0u64;
        let mut distinct = std::collections::HashSet::new();
        for (i, &(variant, who)) in ops.iter().enumerate() {
            let base = 1 + i as u32 * 100;
            let client = clients[who as usize];
            distinct.insert((ground_truth(variant), 2 + (variant % 4)));

            // The solve under test (hit or miss, we don't care which —
            // eviction makes it depend on the whole op sequence).
            let mut env = variant_env(variant, base);
            let out = solve_scc_memo_as(&mut env, &[Q], &memo, client);
            solves += 1;
            // Whatever the memo did, the closed form must be the ground
            // truth rebased onto this op's parameters.
            let mut want = variant_env(variant, base);
            cj_regions::abstraction::solve_fixpoint(&mut want, &[Q]);
            prop_assert_eq!(
                env.get(Q).body.atoms.to_string(),
                want.get(Q).body.atoms.to_string(),
                "variant {} at op {}", variant, i
            );

            // Round-local reuse: the entry this op stored (or hit) is in
            // the memo *now*, so an immediate same-client re-solve must
            // hit it — owned by this client if this op solved it, else by
            // whoever the first solve already hit (the owner tag never
            // churns on hits, so both lookups must agree on `shared`)…
            let mut env = variant_env(variant, base + 31);
            let own = solve_scc_memo_as(&mut env, &[Q], &memo, client);
            solves += 1;
            prop_assert!(own.reused, "own entry dropped within the round");
            prop_assert_eq!(own.shared, out.reused && out.shared);
            prop_assert_eq!(own.iterations, 0);

            // …and a different client hitting the same entry is a shared
            // hit exactly when this op's solver didn't own the entry less
            // precisely: the owner is whoever stored it, so the only
            // guarantee is hit + correct rebase; `shared` must agree with
            // the owner comparison, which we can observe through counters.
            let other = clients[(who as usize + 1) % clients.len()];
            let shared_before = memo.shared_hits();
            let mut env = variant_env(variant, base + 57);
            let cross = solve_scc_memo_as(&mut env, &[Q], &memo, other);
            solves += 1;
            prop_assert!(cross.reused, "entry dropped between adjacent lookups");
            prop_assert_eq!(
                memo.shared_hits() - shared_before,
                u64::from(cross.shared),
                "shared flag and shared counter must move together"
            );
            prop_assert_eq!(
                env.get(Q).body.atoms.to_string(),
                ground_truth_at(variant, base + 57)
            );
        }
        // Exact accounting: every solve is one hit or one miss, never
        // both, never neither — no matter how often the table flushed.
        prop_assert_eq!(memo.hits() + memo.misses(), solves);
        prop_assert!(memo.shared_hits() <= memo.hits());
        // The budget holds at all times (spot-checked at the end; `store`
        // flushes before inserting, so it can never overshoot).
        prop_assert!(memo.bytes() <= TINY);
        // Every *first* solve of a distinct canonical form is necessarily
        // a miss, so misses cover the distinct systems seen.
        prop_assert!(memo.misses() >= distinct.len() as u64);
    }
}

/// [`ground_truth`] expressed over parameters starting at `base`.
fn ground_truth_at(variant: u8, base: u32) -> String {
    let mut env = variant_env(variant, base);
    cj_regions::abstraction::solve_fixpoint(&mut env, &[Q]);
    env.get(Q).body.atoms.to_string()
}

/// Deterministic companion: drive well past the budget and observe that
/// eviction actually happened (more misses than distinct systems would
/// need) while the memo stayed within its bound.
#[test]
fn tiny_capacity_evicts_and_stays_bounded() {
    let memo = SolveMemo::with_capacity(TINY);
    let client = memo.register_client();
    for round in 0..4u32 {
        for variant in 0..64u8 {
            let mut env = variant_env(variant, 1 + round * 6400 + variant as u32 * 100);
            solve_scc_memo_as(&mut env, &[Q], &memo, client);
            assert!(memo.bytes() <= TINY);
        }
    }
    let distinct: std::collections::HashSet<String> = (0..64u8)
        .map(|v| format!("{}|{}", 2 + v % 4, ground_truth(v)))
        .collect();
    assert!(
        memo.misses() > distinct.len() as u64,
        "4 rounds over a {}-byte memo must have re-solved evicted systems \
         (misses {}, distinct {})",
        TINY,
        memo.misses(),
        distinct.len()
    );
    assert_eq!(memo.hits() + memo.misses(), 4 * 64);
}
