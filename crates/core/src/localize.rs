//! `letreg` localization (rule \[exp-block\]) and the mapping of escaping
//! local regions onto signature regions.
//!
//! After the constraint system is solved, each method's regions divide into:
//!
//! - **signature regions** (class parameters, method parameters, heap);
//! - **escaping locals** — body regions that must outlive something visible
//!   to the caller ("those regions that may escape the block can be traced
//!   to regions that exist in either the type environment or the result
//!   type; all regions that outlive these regions also escape"). These are
//!   instantiated onto signature regions ("all regions used in each method
//!   will thus be mapped to these region parameters, or to the heap",
//!   Sec 3.3);
//! - **localizable locals** — everything else. These are grouped per
//!   expression block (method body, conditional branches, loop bodies) and
//!   bound by a fresh `letreg` region; all regions localized at the same
//!   block coalesce into one region, as in Fig 4(d).
//!
//! Blocks are processed innermost-first so that a region used only inside a
//! loop body is reclaimed *each iteration* rather than once per call — this
//! is the mechanism behind the space-reuse numbers of Fig 8.

use crate::ctx::Ctx;
use crate::exprinfer::BodyResult;
use crate::rast::{map_rtype_regions, RExpr, RExprKind, RType};
use cj_regions::constraint::{Atom, ConstraintSet};
use cj_regions::solve::Solver;
use cj_regions::var::RegVar;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The set of signature regions of a method (abstraction parameters plus
/// the heap).
pub fn sig_set(abs_params: &[RegVar]) -> BTreeSet<RegVar> {
    let mut s: BTreeSet<RegVar> = abs_params.iter().copied().collect();
    s.insert(RegVar::HEAP);
    s
}

/// The method's region universe: signature regions plus everything minted
/// while inferring the body.
pub fn universe(abs_params: &[RegVar], res: &BodyResult) -> BTreeSet<RegVar> {
    let mut u = sig_set(abs_params);
    for i in res.region_lo..res.region_hi {
        u.insert(RegVar(i));
    }
    u
}

/// Instantiates escaping local regions onto signature regions: for every
/// escaping region not already equal to a signature region, adds an
/// equality with its *longest-lived* signature lower bound (the choice that
/// strengthens the precondition least). Returns the added atoms.
pub fn instantiate_escaping(
    solver: &mut Solver,
    abs_params: &[RegVar],
    res: &BodyResult,
) -> ConstraintSet {
    let sigs = sig_set(abs_params);
    let u = universe(abs_params, res);
    let escaping = solver.escape_closure(sigs.iter().copied(), &u);
    let mut added = ConstraintSet::new();
    for &r in &escaping {
        if sigs.contains(&r) {
            continue;
        }
        let rep = solver.find(r);
        // Already instantiated if its class contains a signature region.
        if sigs.iter().any(|&s| solver.find(s) == rep) {
            continue;
        }
        // Signature lower bounds of r, from one search. r's class holds no
        // signature region, so it is not the heap's.
        let below = solver.outlived_reps(r).expect("not the heap");
        let lower: Vec<RegVar> = sigs
            .iter()
            .copied()
            .filter(|&s| below.contains(&solver.find(s)))
            .collect();
        debug_assert!(
            !lower.is_empty(),
            "escaping region {r} must reach a signature seed"
        );
        // Pick the bound that dominates the most other bounds (ties by
        // smallest id, for determinism).
        let best = lower
            .iter()
            .copied()
            .max_by_key(|&s| {
                let below_s = solver.outlived_reps(s).expect("not the heap");
                let dominated = lower
                    .iter()
                    .filter(|&&s2| below_s.contains(&solver.find(s2)))
                    .count();
                (dominated, std::cmp::Reverse(s))
            })
            .expect("nonempty");
        solver.add_eq(r, best);
        added.add(Atom::eq(r, best));
    }
    added
}

/// Result of the localization pass over one method.
pub struct Localized {
    /// Rewritten body with `letreg` nodes and resolved regions.
    pub body: RExpr,
    /// Rewritten variable types.
    pub var_types: Vec<RType>,
    /// Rewritten return type.
    pub ret_type: RType,
    /// One region per inserted `letreg`.
    pub letregs: Vec<RegVar>,
}

/// Runs the \[exp-block\] localization over a solved method body and rewrites
/// every region through the final resolution (escaping regions to their
/// canonical signature region, localized regions to their block's `letreg`
/// region).
pub fn localize(
    ctx: &mut Ctx<'_>,
    solver: &mut Solver,
    abs_params: &[RegVar],
    res: BodyResult,
    ret_type: &RType,
) -> Localized {
    let sigs = sig_set(abs_params);
    let u = universe(abs_params, &res);
    let escaping = solver.escape_closure(sigs.iter().copied(), &u);
    let locals: BTreeSet<RegVar> = u.difference(&escaping).copied().collect();

    // ---- pass 1: block tree + occurrence LCA ---------------------------
    let mut blocks = BlockTree::new();
    let mut lca: HashMap<RegVar, usize> = HashMap::new();
    collect_occurrences(&res, &res.body, 0, &mut blocks, &mut lca, &locals);

    // ---- group regions per block, innermost first ----------------------
    // A block's bucket holds the remaining locals whose occurrences all fall
    // inside it; what a block does not consume moves up to its parent.
    let mut buckets: Vec<Vec<RegVar>> = vec![Vec::new(); blocks.len()];
    // Remaining locals per class representative.
    let mut held: HashMap<RegVar, usize> = HashMap::new();
    let mut remaining = 0;
    for &r in locals.iter().filter(|r| !r.is_heap()) {
        buckets[lca.get(&r).copied().unwrap_or(0)].push(r);
        *held.entry(solver.find(r)).or_default() += 1;
        remaining += 1;
    }
    let mut groups: BTreeMap<usize, RegVar> = BTreeMap::new();
    let mut resolve: HashMap<RegVar, RegVar> = HashMap::new();
    for b in blocks.post_order() {
        let candidates = std::mem::take(&mut buckets[b]);
        // Drop the candidates that outlive a remaining region outside b:
        // those whose representative reaches one that still holds such a
        // region. One round is the greatest fixpoint, because `≥` is
        // transitive: whatever outlives a dropped candidate outlives the
        // outside region that dropped it.
        let mut inside: HashMap<RegVar, usize> = HashMap::new();
        for &r in &candidates {
            *inside.entry(solver.find(r)).or_default() += 1;
        }
        let any_outside = remaining > candidates.len();
        let escapes = solver.outlives_any(&candidates, |rep| {
            held.get(&rep).copied().unwrap_or(0) > inside.get(&rep).copied().unwrap_or(0)
        });
        let (mut group, mut surviving) = (Vec::new(), Vec::new());
        for (r, escapes) in candidates.into_iter().zip(escapes) {
            // `escapes` is also true for a heap representative, which
            // outlives every outside region there is.
            if escapes && any_outside {
                surviving.push(r);
            } else {
                group.push(r);
            }
        }
        if let Some(parent) = blocks.parent[b] {
            buckets[parent].append(&mut surviving);
        }
        if group.is_empty() {
            continue;
        }
        let rho = ctx.gen.fresh();
        for &r in &group {
            resolve.insert(r, rho);
            *held.get_mut(&solver.find(r)).expect("held") -= 1;
        }
        remaining -= group.len();
        groups.insert(b, rho);
    }

    // ---- final region resolution ---------------------------------------
    let resolve_fn = |r: RegVar| -> RegVar {
        if let Some(&rho) = resolve.get(&r) {
            rho
        } else {
            solver.find(r)
        }
    };

    // ---- pass 2: rebuild the tree with letregs and resolved regions ----
    let mut body = res.body;
    rewrite(&mut body, &mut 1, &groups, &resolve_fn);
    if let Some(&rho) = groups.get(&0) {
        body = wrap_letreg(rho, body);
    }
    let var_types: Vec<RType> = res
        .var_types
        .iter()
        .map(|t| map_rtype_regions(t, &resolve_fn))
        .collect();
    let ret_type = map_rtype_regions(ret_type, &resolve_fn);
    let letregs = groups.values().copied().collect();
    Localized {
        body,
        var_types,
        ret_type,
        letregs,
    }
}

// ---- block tree ---------------------------------------------------------

struct BlockTree {
    parent: Vec<Option<usize>>,
    /// Distance from the method body, block 0.
    depth: Vec<usize>,
}

impl BlockTree {
    fn new() -> BlockTree {
        BlockTree {
            parent: vec![None], // block 0 = method body
            depth: vec![0],
        }
    }

    fn child(&mut self, parent: usize) -> usize {
        self.parent.push(Some(parent));
        self.depth.push(self.depth[parent] + 1);
        self.parent.len() - 1
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    fn lca(&self, a: usize, b: usize) -> usize {
        let (mut a, mut b) = (a, b);
        while self.depth[a] > self.depth[b] {
            a = self.parent[a].expect("deeper node has parent");
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b].expect("deeper node has parent");
        }
        while a != b {
            a = self.parent[a].expect("roots meet");
            b = self.parent[b].expect("roots meet");
        }
        a
    }

    /// Children-before-parents order.
    fn post_order(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.parent.len()).collect();
        ids.sort_by_key(|&b| std::cmp::Reverse(self.depth[b]));
        ids
    }
}

// ---- pass 1: occurrences -------------------------------------------------

fn note(
    regions: impl IntoIterator<Item = RegVar>,
    block: usize,
    tree: &BlockTree,
    lca: &mut HashMap<RegVar, usize>,
    locals: &BTreeSet<RegVar>,
) {
    for r in regions {
        if !locals.contains(&r) {
            continue;
        }
        let entry = lca.entry(r).or_insert(block);
        *entry = tree.lca(*entry, block);
    }
}

fn collect_occurrences(
    res: &BodyResult,
    e: &RExpr,
    block: usize,
    tree: &mut BlockTree,
    lca: &mut HashMap<RegVar, usize>,
    locals: &BTreeSet<RegVar>,
) {
    note(e.own_regions(&res.var_types), block, tree, lca, locals);
    // Conditional branches and loop bodies are blocks of their own.
    let (cond, arms) = match &e.kind {
        RExprKind::If {
            cond,
            then_e,
            else_e,
        } => (cond, [Some(then_e), Some(else_e)]),
        RExprKind::While { cond, body } => (cond, [Some(body), None]),
        _ => {
            for c in e.children() {
                collect_occurrences(res, c, block, tree, lca, locals);
            }
            return;
        }
    };
    collect_occurrences(res, cond, block, tree, lca, locals);
    for arm in arms.into_iter().flatten() {
        let b = tree.child(block);
        collect_occurrences(res, arm, b, tree, lca, locals);
    }
}

// ---- pass 2: rewrite ------------------------------------------------------

/// Rewrites the tree in place mirroring the pass-1 traversal (so block ids
/// match), wrapping each grouped block in `letreg` and resolving every
/// region.
fn rewrite(
    e: &mut RExpr,
    counter: &mut usize,
    groups: &BTreeMap<usize, RegVar>,
    f: &impl Fn(RegVar) -> RegVar,
) {
    e.map_own_regions(f);
    let (cond, arms) = match &mut e.kind {
        RExprKind::If {
            cond,
            then_e,
            else_e,
        } => (cond, [Some(then_e), Some(else_e)]),
        RExprKind::While { cond, body } => (cond, [Some(body), None]),
        _ => {
            for c in e.children_mut() {
                rewrite(c, counter, groups, f);
            }
            return;
        }
    };
    rewrite(cond, counter, groups, f);
    for arm in arms.into_iter().flatten() {
        let b = *counter;
        *counter += 1;
        rewrite(arm, counter, groups, f);
        if let Some(&rho) = groups.get(&b) {
            let span = arm.span;
            let inner = std::mem::replace(&mut **arm, RExpr::unit(span));
            **arm = wrap_letreg(rho, inner);
        }
    }
}

/// Wraps `inner` in `letreg rho in inner`.
pub fn wrap_letreg(rho: RegVar, inner: RExpr) -> RExpr {
    let rtype = inner.rtype.clone();
    let span = inner.span;
    RExpr {
        kind: RExprKind::Letreg(rho, Box::new(inner)),
        rtype,
        span,
    }
}
