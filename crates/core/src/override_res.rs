//! Override conflict resolution (Sec 4.4).
//!
//! Method overriding is sound when, for every override of `A.mn` by `B.mn`:
//!
//! ```text
//! inv.B⟨r₁…rₙ⟩ ∧ pre.A.mn⟨r₁…rₘ, r₁'…rₚ'⟩  ⊨  pre.B.mn⟨r₁…rₙ, r₁'…rₚ'⟩
//! ```
//!
//! (the subclass invariant may be assumed because the overriding method only
//! runs on `B` objects). When the entailment fails, each offending atomic
//! constraint `c` of `pre.B.mn` is repaired by the paper's four rules:
//!
//! 1. `regions(c) ⊆ RX` — add `c` to `pre.A.mn`;
//! 2. `regions(c) ⊆ RB` — add `c` to `inv.B`;
//! 3. otherwise *split* `c`: substitute its `B`-only regions by `A`-regions
//!    (choosing the substitution that minimizes new constraints), add the
//!    equalities `ctr(σ)` to `inv.B` and the rewritten atom to `pre.A.mn`.
//!
//! Repairs strengthen raw abstractions; the pipeline re-solves and
//! re-checks until a fixed point (atoms only accumulate over a finite
//! universe, so it terminates). Pairs are visited children-first and each
//! reads the atoms earlier pairs of the same pass added, so a repair
//! climbs a whole class chain in one pass.

use crate::ctx::Ctx;
use cj_frontend::types::MethodId;
use cj_regions::abstraction::{AbsEnv, AbsId};
use cj_regions::constraint::ConstraintSet;
use cj_regions::solve::Solver;
use cj_regions::subst::RegSubst;
use cj_regions::var::RegVar;
use std::collections::BTreeSet;

/// All (overridden, overriding) pairs in the program, using the *nearest*
/// ancestor declaration (transitivity makes checking nearest pairs
/// sufficient), children-first: deepest overriding class first.
pub fn override_pairs(kp: &cj_frontend::KProgram) -> Vec<(MethodId, MethodId)> {
    let mut pairs = Vec::new();
    let mut classes: Vec<_> = kp.table.classes().iter().collect();
    classes.sort_by_key(|info| std::cmp::Reverse(info.depth));
    for info in classes {
        let Some(sup) = info.superclass else {
            continue;
        };
        for (i, m) in info.own_methods.iter().enumerate() {
            if let Some((decl, _)) = kp.table.lookup_method(sup, m.name) {
                let slot = kp
                    .table
                    .class(decl)
                    .own_methods
                    .iter()
                    .position(|mm| mm.name == m.name)
                    .expect("declared") as u32;
                pairs.push((
                    MethodId::Instance(decl, slot),
                    MethodId::Instance(info.id, i as u32),
                ));
            }
        }
    }
    pairs
}

/// Checks the override `pairs` (from [`override_pairs`]) against the closed
/// abstractions and repairs violations by strengthening the raw
/// `pre.A.mn` / `inv.B` bodies, marking each body that grew in `grown`
/// (indexed by abstraction id). Each pair reads `closed` conjoined with
/// the atoms earlier pairs added, and is checked on `solver`, reset for
/// it. Returns the number of atoms added (0 means all checks passed).
pub fn resolve_overrides(
    ctx: &mut Ctx<'_>,
    pairs: &[(MethodId, MethodId)],
    closed: &AbsEnv,
    grown: &mut [bool],
    solver: &mut Solver,
) -> usize {
    let mut overlay = vec![ConstraintSet::new(); closed.len()];
    let mut repairs = 0;
    for &(a_id, b_id) in pairs {
        repairs += resolve_pair(ctx, closed, &mut overlay, grown, solver, a_id, b_id);
    }
    repairs
}

fn resolve_pair(
    ctx: &mut Ctx<'_>,
    closed: &AbsEnv,
    overlay: &mut [ConstraintSet],
    grown: &mut [bool],
    lhs: &mut Solver,
    a_id: MethodId,
    b_id: MethodId,
) -> usize {
    let (a_class, b_class) = match (a_id, b_id) {
        (MethodId::Instance(a, _), MethodId::Instance(b, _)) => (a, b),
        _ => return 0,
    };
    let a_sig = ctx.msigs[&a_id].clone();
    let b_sig = ctx.msigs[&b_id].clone();
    let (pre_a_id, inv_b_id) = (a_sig.abs, ctx.inv(b_class));
    let read = |id: AbsId| closed.get(id).body.atoms.conj(&overlay[id.index()]);
    let (inv_b, pre_a, pre_b) = (read(inv_b_id), read(pre_a_id), read(b_sig.abs));
    // Strengthens raw abstraction `id` by `atoms`, marking it grown.
    let mut strengthen = |ctx: &mut Ctx<'_>, id: AbsId, atoms: &ConstraintSet| {
        let grew = ctx.raw.add_atoms(id, atoms);
        grown[id.index()] |= grew;
        overlay[id.index()].and(atoms);
        usize::from(grew)
    };

    // Align B.mn's method regions with A.mn's (same normal signature ⇒ same
    // shape; under padding the counts may differ — align the common prefix).
    let n = a_sig.mparams.len().min(b_sig.mparams.len());
    let align = RegSubst::instantiation(&b_sig.mparams[..n], &a_sig.mparams[..n]);
    let aligned_ok: BTreeSet<RegVar> = b_sig.mparams[n..].iter().copied().collect();
    let pre_b = pre_b.subst(&align);

    lhs.reset();
    lhs.add_set(&inv_b);
    lhs.add_set(&pre_a);

    let ra: BTreeSet<RegVar> = ctx.classes[a_class.index()]
        .params
        .iter()
        .copied()
        .collect();
    let rb: BTreeSet<RegVar> = ctx.classes[b_class.index()]
        .params
        .iter()
        .copied()
        .collect();
    let mut rx: BTreeSet<RegVar> = ra.clone();
    rx.extend(a_sig.mparams.iter().copied());
    rx.insert(RegVar::HEAP);

    let mut added = 0usize;
    for c in pre_b.iter() {
        if lhs.entails_atom(c) {
            continue;
        }
        let vars: Vec<RegVar> = c.vars().into_iter().collect();
        if vars.iter().any(|v| aligned_ok.contains(v)) {
            // Mentions an unalignable padded region; skip conservatively.
            continue;
        }
        if vars.iter().all(|v| rx.contains(v)) {
            // Rule 1: strengthen the overridden method's precondition.
            added += strengthen(ctx, pre_a_id, &ConstraintSet::singleton(c));
        } else if vars.iter().all(|v| rb.contains(v)) {
            // Rule 2: strengthen the subclass invariant.
            added += strengthen(ctx, inv_b_id, &ConstraintSet::singleton(c));
        } else {
            // Rule 3: split. Map each B-only region to an A-region, choosing
            // a target that makes the rewritten atom already entailed where
            // possible (minimizing new constraints, as in the Triple
            // example).
            let b_only: Vec<RegVar> = vars
                .iter()
                .copied()
                .filter(|v| rb.contains(v) && !ra.contains(v))
                .collect();
            let mut sigma = RegSubst::new();
            for x in b_only {
                let mut choice = None;
                for &s in &ra {
                    let mut trial = sigma.clone();
                    trial.bind(x, s);
                    let c2 = c.subst(&trial);
                    if lhs.entails_atom(c2) {
                        choice = Some(s);
                        break;
                    }
                }
                let target = choice.or_else(|| ra.iter().copied().next());
                if let Some(s) = target {
                    sigma.bind(x, s);
                }
            }
            let rewritten = c.subst(&sigma);
            if !rewritten.vars().into_iter().all(|v| rx.contains(&v)) {
                // Still mentions something unmappable; give up on this atom
                // (sound: the call-site check will simply be stronger).
                continue;
            }
            // ctr(σ) into inv.B …
            added += strengthen(ctx, inv_b_id, &sigma.to_equalities());
            // … and the rewritten constraint into pre.A.mn.
            added += strengthen(ctx, pre_a_id, &ConstraintSet::singleton(rewritten));
        }
    }
    added
}
