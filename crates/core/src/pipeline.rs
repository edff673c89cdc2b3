//! The inference pipeline: the whole algorithm, end to end, as one call
//! to [`infer`].
//!
//! 1. Build class and method region signatures and raw `inv.cn`
//!    abstractions, and number every abstraction ([`Ctx::new`]); from here
//!    on abstractions are keyed by [`AbsId`].
//! 2. Infer every method body once, symbolically — atoms plus applications
//!    of `pre.*`/`inv.*` ([`infer_body`]).
//! 3. Solve the resulting recursive abstraction system bottom-up over its
//!    SCC condensation (the paper's global dependency graph, Sec 4.3), with
//!    a worklist fixed point inside each SCC (region-polymorphic recursion,
//!    Fig 6) that re-solves only the callers of a member that changed. The
//!    condensation is computed once: the repair loop below only adds
//!    atoms, never calls.
//! 4. Instantiate escaping local regions onto signature regions and repair
//!    override conflicts (Sec 4.4) over the override pairs, computed once
//!    and visited children-first; both strengthen raw abstractions, so
//!    re-solve until nothing changes. The loop keeps one closed
//!    environment across rounds and repairs it from a dirty set: a round
//!    re-solves an SCC only if a member's raw body grew in the previous
//!    round or it imports an abstraction whose closed form changed earlier
//!    in this round; every other SCC is carried unchanged. Likewise only
//!    methods with a callee whose closed form changed are re-instantiated.
//!    There is no round cap: atoms only accumulate within finite
//!    universes, so the loop ends.
//! 5. Localize the remaining regions with `letreg` (\[exp-block\]) and emit
//!    the annotated program: per method, the resolved type and
//!    instantiation tables over the kernel body's expression ids, and the
//!    `letreg` placements — no second expression tree.
//!
//! One [`Solver`] serves the whole call: every member solve, escaping
//! instantiation, override repair and localization resets it and loads what
//! it needs, so the solver's own tables grow only until they fit the
//! largest method. The solver's answers and localization's region maps are
//! still allocated per method.
//!
//! Determinism guarantee: [`infer`] keeps no state between calls, so the
//! same kernel program and options always give the same output — same
//! region numbering, same `Q` — whatever was inferred before.

use crate::ctx::Ctx;
use crate::error::InferError;
use crate::exprinfer::{infer_body, BodyResult};
use crate::localize;
use crate::options::{InferOptions, InferStats};
use crate::override_res::{override_pairs, resolve_overrides};
use crate::rast::{RClass, RMethod, RProgram};
use cj_frontend::graph::tarjan_scc;
use cj_frontend::kernel::KProgram;
use cj_frontend::types::MethodId;
use cj_regions::abstraction::{solve_fixpoint, AbsBody, AbsCall, AbsEnv, AbsId, ConstraintAbs};
use cj_regions::constraint::ConstraintSet;
use cj_regions::solve::Solver;
use std::sync::Arc;

/// Runs region inference over a kernel program. The annotated program
/// shares `kp` rather than copying it.
///
/// # Errors
///
/// Fails only on policy violations (e.g. downcasts under
/// [`DowncastPolicy::Reject`](crate::options::DowncastPolicy::Reject));
/// well-normal-typed programs otherwise always infer (Theorem 1).
pub fn infer(kp: &Arc<KProgram>, opts: InferOptions) -> Result<(RProgram, InferStats), InferError> {
    let mut stats = InferStats::default();
    let signatures_span = cj_trace::span("pipeline", "signatures");
    let mut ctx = Ctx::new(kp, opts);
    drop(signatures_span);
    if let Some(info) = &ctx.downcast_info {
        stats.downcast_sites = info.downcast_count;
    }

    // ---- symbolic body inference ---------------------------------------
    let mut bodies_span = cj_trace::span("pipeline", "infer-bodies");
    let ids: Vec<MethodId> = kp.all_methods().map(|(id, _)| id).collect();
    let mut bodies: Vec<BodyResult> = Vec::with_capacity(ids.len());
    for &id in &ids {
        let res = infer_body(&mut ctx, id)?;
        stats.methods_inferred += 1;
        ctx.raw.get_mut(ctx.msigs[&id].abs).body = AbsBody {
            atoms: res.atoms.clone(),
            calls: res.calls.clone(),
        };
        bodies.push(res);
    }
    bodies_span.add("inferred", stats.methods_inferred as u64);
    drop(bodies_span);

    // ---- global solve / repair loop --------------------------------------
    let mut solve_span = cj_trace::span("pipeline", "solve");
    // The loop only adds atoms, never calls: one condensation serves all
    // rounds.
    let mut condensation_span = cj_trace::span("pipeline", "condensation");
    let groups = condensation(&ctx.raw);
    condensation_span.add("sccs", groups.len() as u64);
    drop(condensation_span);
    let mut closed = unsolved(&mut ctx.raw);
    // Raw bodies that grew since their SCC was last solved, by abstraction
    // id: in the first round, all of them.
    let mut grown = vec![true; ctx.raw.len()];
    let mut solver = Solver::new();
    let mut carried = 0;
    let pairs = override_pairs(kp);
    loop {
        stats.global_iterations += 1;
        let changed = solve_dirty(
            &groups,
            &ctx.raw,
            &mut closed,
            &grown,
            &mut solver,
            &mut stats,
            &mut carried,
        );
        grown.fill(false);

        // A method's instantiation depends only on its body and its
        // callees' closed forms, so redo it only where a callee changed.
        let mut instantiate_span = cj_trace::span("pipeline", "repair-instantiate");
        let (mut reinstantiated, mut instantiated) = (0, 0);
        let first = stats.global_iterations == 1;
        for (id, res) in ids.iter().zip(&bodies) {
            if !first && !res.calls.iter().any(|c| changed[c.callee.index()]) {
                continue;
            }
            let sig = &ctx.msigs[id];
            load(&mut solver, &res.atoms, &res.calls, &closed);
            let added = localize::instantiate_escaping(&mut solver, &sig.abs_params, res);
            reinstantiated += 1;
            instantiated += added.len();
            if !added.is_empty() && ctx.raw.add_atoms(sig.abs, &added) {
                grown[sig.abs.index()] = true;
            }
        }
        instantiate_span.add("methods", reinstantiated);
        instantiate_span.add("atoms", instantiated as u64);
        drop(instantiate_span);
        let mut overrides_span = cj_trace::span("pipeline", "resolve-overrides");
        let repairs = resolve_overrides(&mut ctx, &pairs, &closed, &mut grown, &mut solver);
        overrides_span.add("repairs", repairs as u64);
        drop(overrides_span);
        stats.override_repairs += repairs;

        if !grown.contains(&true) {
            break;
        }
    }
    solve_span.add("global_iterations", stats.global_iterations as u64);
    solve_span.add("sccs_solved", stats.sccs_solved as u64);
    solve_span.add("sccs_carried", carried);
    drop(solve_span);

    // ---- finalization ----------------------------------------------------
    let mut finalize_span = cj_trace::span("pipeline", "finalize");
    let mut methods: Vec<Vec<RMethod>> = vec![Vec::new(); kp.table.len()];
    let mut statics: Vec<RMethod> = Vec::new();
    for (&id, res) in ids.iter().zip(bodies) {
        let sig = ctx.msigs[&id].clone();
        // The raw atoms hold the body's own, every round's escaping
        // instantiation and the override repairs.
        load(
            &mut solver,
            &ctx.raw.get(sig.abs).body.atoms,
            &res.calls,
            &closed,
        );
        let pre = closed.get(sig.abs).body.atoms.clone();
        let body = &kp.method(id).body;
        let rm = localize::localize(&mut ctx, &mut solver, id, sig, pre, res, body);
        stats.localized_regions += rm.letregs().len();
        match id {
            MethodId::Instance(c, _) => methods[c.index()].push(rm),
            MethodId::Static(_) => statics.push(rm),
        }
    }

    let classes: Vec<RClass> = kp
        .table
        .classes()
        .iter()
        .map(|info| {
            let sig = &ctx.classes[info.id.index()];
            RClass {
                id: info.id,
                params: sig.params.clone(),
                field_types: sig.field_types.clone(),
                invariant: closed.get(ctx.inv(info.id)).body.atoms.clone(),
                rec_region: sig.rec_region,
            }
        })
        .collect();

    finalize_span.add("methods", ids.len() as u64);
    finalize_span.add("letregs", stats.localized_regions as u64);
    drop(finalize_span);

    stats.regions_created = ctx.gen.count() as usize;
    let program = RProgram {
        kernel: Arc::clone(kp),
        classes,
        methods,
        statics,
        q: closed,
    };
    Ok((program, stats))
}

/// Convenience: parse, normal-typecheck and infer in one call.
///
/// # Errors
///
/// Front-end diagnostics or inference errors, as one structured
/// [`Diagnostics`](cj_diag::Diagnostics) batch.
pub fn infer_source(
    src: &str,
    opts: InferOptions,
) -> Result<(RProgram, InferStats), cj_diag::Diagnostics> {
    let kp = Arc::new(cj_frontend::typecheck::check_source(src)?);
    let (p, s) = infer(&kp, opts).map_err(cj_diag::IntoDiagnostics::into_diagnostics)?;
    Ok((p, s))
}

/// The SCC condensation of an abstraction environment's call graph, in
/// bottom-up (callee-first) order — the paper's global dependency graph
/// (Sec 4.3).
fn condensation(env: &AbsEnv) -> Vec<Vec<AbsId>> {
    let calls = |v: usize| env.get(AbsId(v as u32)).body.calls.iter();
    tarjan_scc(env.len(), |v| calls(v).map(|c| c.callee.index()))
        .into_iter()
        .map(|scc| scc.into_iter().map(|v| AbsId(v as u32)).collect())
        .collect()
}

/// The closed environment before the first pass of [`solve_dirty`]: every
/// body still to be solved, under the names and parameters moved out of
/// `raw`. From here on only `raw`'s bodies are read.
fn unsolved(raw: &mut AbsEnv) -> AbsEnv {
    (0..raw.len() as u32)
        .map(|i| {
            let abs = raw.get_mut(AbsId(i));
            ConstraintAbs {
                name: std::mem::take(&mut abs.name),
                params: std::mem::take(&mut abs.params),
                body: AbsBody::default(),
            }
        })
        .collect()
}

/// One bottom-up pass over the condensation `groups` that brings `closed`
/// up to date with `raw`. An SCC is solved only when a member's raw body
/// is marked in `grown` or it applies an abstraction whose closed form
/// changed earlier in this pass; every other SCC keeps its closed forms
/// and is counted in `carried`; each solve is counted in `stats`. Returns
/// the changed closed forms, marked by abstraction id.
fn solve_dirty(
    groups: &[Vec<AbsId>],
    raw: &AbsEnv,
    closed: &mut AbsEnv,
    grown: &[bool],
    solver: &mut Solver,
    stats: &mut InferStats,
    carried: &mut u64,
) -> Vec<bool> {
    let mut span = cj_trace::span("pipeline", "dirty-set");
    let mut changed = vec![false; raw.len()];
    let mut dirty_sccs = 0;
    for group in groups {
        let dirty = group.iter().any(|&n| {
            grown[n.index()]
                || raw
                    .get(n)
                    .body
                    .calls
                    .iter()
                    .any(|c| changed[c.callee.index()])
        });
        if !dirty {
            *carried += 1;
            continue;
        }
        dirty_sccs += 1;
        // Swap each member's raw body in, keeping its old closed form.
        let before: Vec<AbsBody> = group
            .iter()
            .map(|&n| std::mem::replace(&mut closed.get_mut(n).body, raw.get(n).body.clone()))
            .collect();
        stats.sccs_solved += 1;
        stats.fixpoint_iterations += solve_fixpoint(closed, group, solver);
        for (&n, old) in group.iter().zip(before) {
            changed[n.index()] = old.atoms != closed.get(n).body.atoms;
        }
    }
    span.add("sccs", dirty_sccs);
    span.add("changed", changed.iter().filter(|&&c| c).count() as u64);
    changed
}

/// Resets `solver` to `atoms` conjoined with the closed forms of `calls`.
fn load(solver: &mut Solver, atoms: &ConstraintSet, calls: &[AbsCall], closed: &AbsEnv) {
    solver.reset();
    solver.add_set(atoms);
    for call in calls {
        closed.instantiate_into(call.callee, &call.args, solver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{DowncastPolicy, SubtypeMode};
    use crate::rast::RType;
    use cj_frontend::kernel::{walk_expr, KExprKind};
    use cj_frontend::typecheck::check_source;
    use cj_regions::constraint::Atom;

    const PAIR: &str = "
        class Pair { Object fst; Object snd;
          Object getFst() { this.fst }
          void setSnd(Object o) { this.snd = o; }
          Pair cloneRev() {
            Pair tmp = new Pair(null, null);
            tmp.fst = this.snd; tmp.snd = this.fst; tmp
          }
          void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; }
        }";

    fn run(src: &str, mode: SubtypeMode) -> (crate::rast::RProgram, crate::options::InferStats) {
        let kp = Arc::new(check_source(src).unwrap());
        infer(
            &kp,
            InferOptions {
                mode,
                downcast: DowncastPolicy::EquateFirst,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn fig2_pair_invariant_and_preconditions() {
        let (p, _) = run(PAIR, SubtypeMode::Object);
        let pair = p.kernel.table.class_id("Pair").unwrap();
        let rc = p.rclass(pair);
        assert_eq!(rc.params.len(), 3);
        let (r1, r2, r3) = (rc.params[0], rc.params[1], rc.params[2]);
        let mut inv = Solver::from_set(&rc.invariant);
        assert!(inv.entails_atom(Atom::outlives(r2, r1)));
        assert!(inv.entails_atom(Atom::outlives(r3, r1)));
        assert!(!inv.entails_atom(Atom::eq(r2, r3)));

        // swap: pre must force r2 = r3 (Fig 2a).
        let swap = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "swap")
            .unwrap()
            .1;
        let mut pre = Solver::from_set(&swap.precondition);
        assert!(pre.entails_atom(Atom::eq(r2, r3)));

        // getFst<r4>: pre must give r2 >= r4 and nothing about r3.
        let (gid, get) = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "getFst")
            .unwrap();
        let r4 = get.mparams[0];
        let mut pre = Solver::from_set(&get.precondition);
        assert!(pre.entails_atom(Atom::outlives(r2, r4)));
        assert!(!pre.entails_atom(Atom::outlives(r3, r4)));
        let shown = crate::pretty::display_precondition(&p, gid);
        assert_eq!(shown.len(), 1, "paper shows exactly r2>=r4, got {shown}");

        // setSnd<r5>(Object<r5> o): pre gives r5 >= r3.
        let set = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "setSnd")
            .unwrap()
            .1;
        let r5 = set.mparams[0];
        let mut pre = Solver::from_set(&set.precondition);
        assert!(pre.entails_atom(Atom::outlives(r5, r3)));
    }

    #[test]
    fn fig4_localizes_nonescaping_pairs() {
        let src = &format!(
            "{PAIR}
            class Main {{
              static Pair build() {{
                Pair p4 = new Pair(null, null);
                Pair p3 = new Pair(p4, null);
                Pair p2 = new Pair(null, p4);
                Pair p1 = new Pair(p2, null);
                p1.setSnd(p3);
                p2
              }}
            }}"
        );
        let (p, stats) = run(src, SubtypeMode::Object);
        assert_eq!(
            stats.localized_regions, 1,
            "p1 and p3 coalesce into one letreg"
        );
        // p2 escapes (it is the result); its object region must be a
        // signature region of build.
        let (bid, build) = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "build")
            .unwrap();
        let _ = bid;
        assert!(!build.letregs().is_empty() || build.mparams.len() >= 3);
    }

    #[test]
    fn fig5_circular_structure_shares_one_region() {
        let src = &format!(
            "{PAIR}
            class Main {{
              static Pair cycle() {{
                Pair p1 = new Pair(null, null);
                Pair p2 = new Pair(p1, null);
                p1.setSnd(p2);
                p2
              }}
            }}"
        );
        let (p, _) = run(src, SubtypeMode::Object);
        let cycle = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "cycle")
            .unwrap()
            .1;
        let km = p
            .kernel
            .all_methods()
            .find(|(_, m)| m.name.as_str() == "cycle")
            .unwrap()
            .1;
        let p1 = km
            .vars
            .iter()
            .position(|v| v.name.as_str() == "p1")
            .unwrap();
        let p2 = km
            .vars
            .iter()
            .position(|v| v.name.as_str() == "p2")
            .unwrap();
        // Both nodes of the cycle must live in the same region.
        let o1 = cycle.var_types[p1].object_region().unwrap();
        let o2 = cycle.var_types[p2].object_region().unwrap();
        assert_eq!(o1, o2, "cyclic structures share one region (Fig 5)");
        // And no letreg: everything escapes through the result.
        assert!(cycle.letregs().is_empty());
    }

    #[test]
    fn fig6_join_region_polymorphic_recursion() {
        let src = "
        class List { Object value; List next;
          Object getValue() { this.value }
          List getNext() { this.next }
          static bool isNull(List l) { l == null }
          static List join(List xs, List ys) {
            if (isNull(xs)) {
              if (isNull(ys)) { (List) null } else { join(ys, xs) }
            } else {
              Object x; List res;
              x = xs.getValue();
              xs = xs.getNext();
              res = join(ys, xs);
              new List(x, res)
            }
          }
        }";
        let (p, _) = run(src, SubtypeMode::Object);
        let join = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "join")
            .unwrap()
            .1;
        // join<r1..r9>(List<r1,r2,r3> xs, List<r4,r5,r6> ys): List<r7,r8,r9>
        assert_eq!(join.mparams.len(), 9);
        let (r2, r5, r8) = (join.mparams[1], join.mparams[4], join.mparams[7]);
        let mut pre = Solver::from_set(&join.precondition);
        // Fig 6(d): pre.join = r2 >= r8 & r5 >= r8.
        assert!(pre.entails_atom(Atom::outlives(r2, r8)));
        assert!(pre.entails_atom(Atom::outlives(r5, r8)));
        // Polymorphic recursion keeps the element regions apart from the
        // spine regions.
        let (r1, r3) = (join.mparams[0], join.mparams[2]);
        assert!(!pre.entails_atom(Atom::eq(r1, r2)));
        assert!(!pre.entails_atom(Atom::eq(r2, r3)));
    }

    #[test]
    fn triple_override_resolution() {
        // Sec 4.4: Triple's cloneRev needs r3a >= r5, which splits into
        // r3a = r3 (into inv.Triple) and r3 >= r5 (into pre.Pair.cloneRev).
        let src = "
        class Pair { Object fst; Object snd;
          Pair cloneRev() {
            Pair tmp = new Pair(null, null);
            tmp.fst = this.snd; tmp.snd = this.fst; tmp
          }
        }
        class Triple extends Pair { Object thd;
          Pair cloneRev() {
            Pair tmp = new Pair(null, null);
            tmp.fst = this.thd; tmp.snd = this.fst; tmp
          }
        }";
        let (p, stats) = run(src, SubtypeMode::Object);
        assert!(
            stats.override_repairs > 0,
            "override conflict must be repaired"
        );
        let triple = p.kernel.table.class_id("Triple").unwrap();
        let rc = p.rclass(triple);
        // inv.Triple must now tie thd's region to one of Pair's regions.
        let r3a = rc.params[3];
        let mut inv = Solver::from_set(&rc.invariant);
        let tied = rc.params[..3]
            .iter()
            .any(|&rp| inv.entails_atom(Atom::eq(r3a, rp)));
        assert!(tied, "inv.Triple gains an equality for the extra region");
        // Soundness: inv.Triple ∧ pre.Pair.cloneRev ⊨ pre.Triple.cloneRev.
        let pre_a = &p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method_name(*id) == "Pair.cloneRev")
            .unwrap()
            .1
            .precondition;
        let pre_b_owner = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method_name(*id) == "Triple.cloneRev")
            .unwrap();
        let pre_b = &pre_b_owner.1.precondition;
        // Align Triple.cloneRev's mparams with Pair.cloneRev's.
        let a_sig = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method_name(*id) == "Pair.cloneRev")
            .unwrap()
            .1;
        let align = cj_regions::RegSubst::instantiation(&pre_b_owner.1.mparams, &a_sig.mparams);
        let mut lhs = Solver::from_set(&rc.invariant);
        lhs.add_set(pre_a);
        assert!(
            lhs.entails(&pre_b.subst(&align)),
            "override check must pass after resolution"
        );
    }

    #[test]
    fn reynolds3_field_subtyping_localizes_per_call() {
        // The Reynolds3 pattern: an immutable list grown during recursion.
        // With field subtyping the per-call RList cell is local to search;
        // without it, the cell's region is forced to escape into the
        // parameter's region.
        let src = "
        class RList { Object value; RList next; }
        class Tree { Object value; Tree left; Tree right; }
        class Search {
          static bool isNullT(Tree t) { t == null }
          static bool isNullR(RList l) { l == null }
          static bool member(Object x, RList p) {
            if (isNullR(p)) { false } else {
              if (p.value == x) { true } else { member(x, p.next) }
            }
          }
          static bool search(RList p, Tree t) {
            if (isNullT(t)) { false } else {
              Object x = t.value;
              if (member(x, p)) { true } else {
                RList p2 = new RList(x, p);
                if (search(p2, t.left)) { true } else { search(p2, t.right) }
              }
            }
          }
        }";
        let (p_field, _) = run(src, SubtypeMode::Field);
        let search_field = p_field
            .all_rmethods()
            .find(|(id, _)| p_field.kernel.method(*id).name.as_str() == "search")
            .unwrap()
            .1;
        assert!(
            !search_field.letregs().is_empty(),
            "field subtyping localizes the per-call cons cell"
        );
        let (p_none, _) = run(src, SubtypeMode::None);
        let search_none = p_none
            .all_rmethods()
            .find(|(id, _)| p_none.kernel.method(*id).name.as_str() == "search")
            .unwrap()
            .1;
        assert!(
            search_none.letregs().is_empty(),
            "without subtyping the cell unifies with the parameter list"
        );
    }

    #[test]
    fn object_subtyping_keeps_branch_regions_apart() {
        // The foo example of Sec 3.2: without object subtyping the regions
        // of a and b are coalesced; with it they stay distinct.
        let src = "
        class M {
          static void foo(Object a, Object b, bool c) {
            Object tmp;
            if (c) { tmp = a; } else { tmp = b; }
          }
        }";
        let (p, _) = run(src, SubtypeMode::None);
        let foo = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "foo")
            .unwrap()
            .1;
        let (ra, rb) = (foo.mparams[0], foo.mparams[1]);
        let mut pre = Solver::from_set(&foo.precondition);
        assert!(pre.entails_atom(Atom::eq(ra, rb)), "no-sub coalesces");

        let (p, _) = run(src, SubtypeMode::Object);
        let foo = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "foo")
            .unwrap()
            .1;
        let (ra, rb) = (foo.mparams[0], foo.mparams[1]);
        let mut pre = Solver::from_set(&foo.precondition);
        assert!(
            !pre.entails_atom(Atom::eq(ra, rb)),
            "object-sub keeps them apart"
        );
    }

    #[test]
    fn downcast_equate_first_recovers_regions() {
        let src = "
        class A { Object x; }
        class B extends A { Object y; }
        class M {
          static B roundtrip(bool c) {
            A a = new B(null, null);
            (B) a
          }
        }";
        let kp = Arc::new(check_source(src).unwrap());
        let (p, _) = infer(
            &kp,
            InferOptions {
                mode: SubtypeMode::Object,
                downcast: DowncastPolicy::EquateFirst,
                ..Default::default()
            },
        )
        .unwrap();
        // The lost region of B must be recoverable: in the result type of
        // roundtrip, B's extra region equals its first region.
        let rt = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "roundtrip")
            .unwrap()
            .1;
        if let RType::Class { regions, .. } = &rt.ret_type {
            assert_eq!(regions.len(), 3);
        } else {
            panic!("expected class result");
        }
        // Reject policy must error instead.
        let err = infer(
            &kp,
            InferOptions {
                mode: SubtypeMode::Object,
                downcast: DowncastPolicy::Reject,
                ..Default::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn downcast_padding_recovers_regions_fig7_style() {
        let src = "
        class A { Object f1; }
        class B extends A { Object f2; }
        class C extends A { Object f3; }
        class D extends C { Object f4; }
        class M {
          static void main(bool c1) {
            A a;
            if (c1) { a = new B(null, null); } else { a = new D(null, null, null); }
            B b = (B) a;
            C c = (C) a;
            D d = (D) c;
          }
        }";
        let kp = Arc::new(check_source(src).unwrap());
        let (p, stats) = infer(
            &kp,
            InferOptions {
                mode: SubtypeMode::Object,
                downcast: DowncastPolicy::Padding,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(stats.downcast_sites, 3);
        // `a` must be padded up to D's arity.
        let main = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "main")
            .unwrap();
        let km = p.kernel.method(main.0);
        let a_slot = km.vars.iter().position(|v| v.name.as_str() == "a").unwrap();
        if let RType::Class { regions, pads, .. } = &main.1.var_types[a_slot] {
            let d = p.kernel.table.class_id("D").unwrap();
            assert_eq!(
                regions.len() + pads.len(),
                p.rclass(d).params.len(),
                "a is padded to D's arity"
            );
            assert!(!pads.is_empty());
        } else {
            panic!("expected class type for a");
        }
    }

    #[test]
    fn reinference_after_an_edit_keeps_untouched_closed_forms() {
        let opts = InferOptions::default();
        let multi = "
        class List { Object value; List next;
          Object getValue() { this.value }
          List getNext() { this.next }
          static bool isNull(List l) { l == null }
          static List join(List xs, List ys) {
            if (isNull(xs)) { ys } else {
              List r = join(xs.getNext(), ys);
              new List(xs.getValue(), r)
            }
          }
        }
        class Stack { List top;
          void push(Object o) { this.top = new List(o, this.top); }
          Object peek() { this.top.getValue() }
        }";
        let kp = Arc::new(check_source(multi).unwrap());
        let (p1, s1) = infer(&kp, opts).unwrap();
        let (p2, s2) = infer(&kp, opts).unwrap();
        assert_eq!(s1, s2, "no state survives a call");
        assert_eq!(
            crate::pretty::program_to_string(&p1),
            crate::pretty::program_to_string(&p2)
        );

        // One edited body leaves the closed forms it does not reach alone.
        let edited = multi.replace(
            "{ this.top.getValue() }",
            "{ this.top.getNext().getValue() }",
        );
        let (p3, _) = infer(&Arc::new(check_source(&edited).unwrap()), opts).unwrap();
        let get_value = |p: &RProgram| {
            let id = p.q.find("pre.List.getValue").unwrap();
            p.q.get(id).to_string()
        };
        assert_eq!(get_value(&p1), get_value(&p3));
    }

    #[test]
    fn empty_program_infers() {
        let kp = Arc::new(check_source("class A { }").unwrap());
        let (p, _) = infer(&kp, InferOptions::default()).unwrap();
        assert_eq!(p.classes.len(), 2);
    }

    #[test]
    fn while_loop_supports_local_reuse() {
        // An object allocated and dropped each iteration must be localized
        // inside the loop body, not at the method root.
        let src = "
        class Box { Object item; }
        class M {
          static int spin(int n) {
            int i = 0;
            while (i < n) {
              Box b = new Box(null);
              i = i + 1;
            }
            i
          }
        }";
        let (p, _) = run(src, SubtypeMode::Object);
        let spin = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "spin")
            .unwrap()
            .1;
        assert!(!spin.letregs().is_empty());
        // The letreg must be inside the while body.
        let mut inside_loop = false;
        walk_expr(&p.kernel.method(spin.id).body, &mut |e| {
            if let KExprKind::While { body, .. } = &e.kind {
                walk_expr(body, &mut |inner| {
                    if !spin.letregs_at(inner.id).is_empty() {
                        inside_loop = true;
                    }
                });
            }
        });
        assert!(inside_loop, "letreg must sit inside the loop body");
    }

    #[test]
    fn accumulator_in_loop_escapes_the_loop() {
        // Cells linked into an accumulator that survives the loop must NOT
        // be localized inside the loop body.
        let src = "
        class Cons { Object head; Cons tail; }
        class M {
          static Cons collect(int n) {
            Cons acc = (Cons) null;
            int i = 0;
            while (i < n) {
              acc = new Cons(null, acc);
              i = i + 1;
            }
            acc
          }
        }";
        let (p, _) = run(src, SubtypeMode::Field);
        let collect = p
            .all_rmethods()
            .find(|(id, _)| p.kernel.method(*id).name.as_str() == "collect")
            .unwrap()
            .1;
        let mut letreg_in_loop = false;
        walk_expr(&p.kernel.method(collect.id).body, &mut |e| {
            if let KExprKind::While { body, .. } = &e.kind {
                walk_expr(body, &mut |inner| {
                    if !collect.letregs_at(inner.id).is_empty() {
                        letreg_in_loop = true;
                    }
                });
            }
        });
        assert!(
            !letreg_in_loop,
            "accumulated cells escape the loop and must not be reclaimed per iteration"
        );
    }
}
