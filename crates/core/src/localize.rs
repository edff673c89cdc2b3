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
//!   bound by a fresh `letreg` region placed around that block's
//!   expression; all regions localized at the same block coalesce into one
//!   region, as in Fig 4(d).
//!
//! Blocks are processed innermost-first so that a region used only inside a
//! loop body is reclaimed *each iteration* rather than once per call — this
//! is the mechanism behind the space-reuse numbers of Fig 8.
//!
//! The pass reads and writes only the method's annotation tables: one walk
//! of the kernel body finds each local region's block from the expressions
//! that mention it, and one pass over the tables then resolves every region
//! (escaping regions to their canonical signature region, localized regions
//! to their block's `letreg` region) and records a
//! [`Placement::Node`] per grouped block.
//!
//! Both passes take the method's solver, loaded by the pipeline with the
//! body's constraint and its callees' closed forms, and ask it only
//! questions it answers with one search through its own marks: which
//! regions escape ([`Solver::escape_closure`]), which of a block's
//! candidates outlive a region outside it ([`Solver::outlives_any`]) and
//! which signature regions a region outlives
//! ([`Solver::outlived_among`]). The equalities that instantiate escaping
//! regions are folded into the normalized solver as they are added, so the
//! next question does not re-normalize it. The passes' own region maps
//! are `Vec`s indexed by a region's offset in the body's dense range
//! `BodyResult::{region_lo, region_hi}`: every region that is not a
//! signature region was minted there, and so was the representative of
//! every local region.

use crate::ctx::{Ctx, MethodSigR};
use crate::exprinfer::BodyResult;
use crate::rast::{own_regions, Letreg, Placement, RMethod};
use cj_frontend::kernel::{ExprId, KExpr, KExprKind};
use cj_frontend::types::MethodId;
use cj_regions::constraint::{Atom, ConstraintSet};
use cj_regions::solve::Solver;
use cj_regions::var::RegVar;

/// A method's region universe: its signature regions and the regions
/// minted while inferring its body.
struct Universe {
    /// Abstraction parameters plus the heap, sorted.
    sigs: Vec<RegVar>,
    /// The minted range `[lo, hi)`.
    lo: u32,
    hi: u32,
}

impl Universe {
    fn new(abs_params: &[RegVar], res: &BodyResult) -> Universe {
        let mut sigs: Vec<RegVar> = abs_params.to_vec();
        sigs.push(RegVar::HEAP);
        sigs.sort_unstable();
        sigs.dedup();
        Universe {
            sigs,
            lo: res.region_lo,
            hi: res.region_hi,
        }
    }

    /// Every region of the universe, in increasing order.
    fn all(&self) -> Vec<RegVar> {
        let mut all = self.sigs.clone();
        all.extend((self.lo..self.hi).map(RegVar));
        all.sort_unstable();
        all.dedup();
        all
    }

    /// The offset of `r` in the minted range, if it was minted there.
    fn offset(&self, r: RegVar) -> Option<usize> {
        (self.lo..self.hi)
            .contains(&r.0)
            .then(|| (r.0 - self.lo) as usize)
    }
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
    let u = Universe::new(abs_params, res);
    let all = u.all();
    let escaping = solver.escape_closure(u.sigs.iter().copied(), &all);
    let mut added = ConstraintSet::new();
    let (mut lower, mut below) = (Vec::new(), Vec::new());
    for (&r, _) in all.iter().zip(escaping).filter(|&(_, escapes)| escapes) {
        if u.sigs.binary_search(&r).is_ok() {
            continue;
        }
        let rep = solver.find(r);
        // Already instantiated if its class contains a signature region.
        if u.sigs.iter().any(|&s| solver.find(s) == rep) {
            continue;
        }
        // Signature lower bounds of r, from one search. r's class holds no
        // signature region, so it is not the heap's.
        lower.clear();
        solver.outlived_among(r, &u.sigs, &mut lower);
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
                below.clear();
                solver.outlived_among(s, &lower, &mut below);
                (below.len(), std::cmp::Reverse(s))
            })
            .expect("nonempty");
        solver.add_eq(r, best);
        added.add(Atom::eq(r, best));
    }
    added
}

/// Runs the \[exp-block\] localization over the solved body `body` of
/// method `id`, with signature `sig` and closed precondition `pre`, and
/// emits the annotated method: every region of its tables resolved
/// (escaping regions to their canonical signature region, localized
/// regions to their block's `letreg` region).
pub fn localize(
    ctx: &mut Ctx<'_>,
    solver: &mut Solver,
    id: MethodId,
    sig: MethodSigR,
    pre: ConstraintSet,
    res: BodyResult,
    body: &KExpr,
) -> RMethod {
    let u = Universe::new(&sig.abs_params, &res);
    let all = u.all();
    let escaping = solver.escape_closure(u.sigs.iter().copied(), &all);
    // Per minted region: whether it is local (does not escape). Signature
    // regions all escape, since each outlives itself.
    let mut local = vec![false; (u.hi - u.lo) as usize];
    for (&r, escapes) in all.iter().zip(escaping) {
        if let (false, Some(i)) = (escapes, u.offset(r)) {
            local[i] = true;
        }
    }

    // ---- pass 1: block tree + occurrence LCA ---------------------------
    let mut blocks = BlockTree::new(body.id);
    let mut lca: Vec<Option<usize>> = vec![None; local.len()];
    let mut occ = Occurrences {
        res: &res,
        u: &u,
        local: &local,
        tree: &mut blocks,
        lca: &mut lca,
    };
    occ.collect(body, 0);

    // ---- group regions per block, innermost first ----------------------
    // A block's bucket holds the remaining locals whose occurrences all fall
    // inside it; what a block does not consume moves up to its parent.
    let mut buckets: Vec<Vec<RegVar>> = vec![Vec::new(); blocks.len()];
    // Remaining locals per class representative, by the representative's
    // offset: a local's class holds no signature region, so its smallest
    // member, a local, represents it.
    let rep_offset = |solver: &Solver, r: RegVar| {
        u.offset(solver.find(r))
            .expect("a local region's representative is local")
    };
    let mut held = vec![0usize; local.len()];
    let mut remaining = 0;
    for (i, _) in local.iter().enumerate().filter(|&(_, &l)| l) {
        let r = RegVar(u.lo + i as u32);
        buckets[lca[i].unwrap_or(0)].push(r);
        held[rep_offset(solver, r)] += 1;
        remaining += 1;
    }
    let mut letreg_of: Vec<Option<RegVar>> = vec![None; blocks.len()];
    let mut resolve: Vec<Option<RegVar>> = vec![None; local.len()];
    let mut inside = vec![0usize; local.len()];
    for b in blocks.post_order() {
        let candidates = std::mem::take(&mut buckets[b]);
        // Drop the candidates that outlive a remaining region outside b:
        // those whose representative reaches one that still holds such a
        // region. One round is the greatest fixpoint, because `≥` is
        // transitive: whatever outlives a dropped candidate outlives the
        // outside region that dropped it.
        for &r in &candidates {
            inside[rep_offset(solver, r)] += 1;
        }
        let any_outside = remaining > candidates.len();
        let escapes = solver.outlives_any(&candidates, |rep| {
            u.offset(rep).is_some_and(|i| held[i] > inside[i])
        });
        for &r in &candidates {
            inside[rep_offset(solver, r)] = 0;
        }
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
            resolve[u.offset(r).expect("local")] = Some(rho);
            held[rep_offset(solver, r)] -= 1;
        }
        remaining -= group.len();
        letreg_of[b] = Some(rho);
    }

    // ---- final region resolution ---------------------------------------
    let resolve_fn = |r: RegVar| -> RegVar {
        match u.offset(r).and_then(|i| resolve[i]) {
            Some(rho) => rho,
            None => solver.find(r),
        }
    };

    // ---- pass 2: resolve the tables -------------------------------------
    let BodyResult {
        mut var_types,
        mut types,
        mut inst,
        inst_at,
        ..
    } = res;
    for t in var_types.iter_mut().chain(&mut types) {
        t.map_regions(resolve_fn);
    }
    for r in &mut inst {
        *r = resolve_fn(*r);
    }
    let mut ret_type = sig.ret_type;
    ret_type.map_regions(resolve_fn);
    let letregs = (letreg_of.iter().zip(&blocks.node))
        .filter_map(|(rho, &node)| {
            rho.map(|region| Letreg {
                region,
                at: Placement::Node(node),
            })
        })
        .collect();
    let mut rm = RMethod {
        id,
        mparams: sig.mparams,
        abs_params: sig.abs_params,
        var_types,
        ret_type,
        precondition: pre,
        types,
        inst,
        inst_at,
        letregs: Vec::new(),
        placed: Vec::new(),
    };
    rm.set_letregs(letregs);
    rm
}

// ---- block tree ---------------------------------------------------------

/// The method's blocks — its body, conditional branches and loop bodies —
/// numbered in pre-order.
struct BlockTree {
    parent: Vec<Option<usize>>,
    /// Distance from the method body, block 0.
    depth: Vec<usize>,
    /// The block's expression.
    node: Vec<ExprId>,
}

impl BlockTree {
    fn new(body: ExprId) -> BlockTree {
        BlockTree {
            parent: vec![None], // block 0 = method body
            depth: vec![0],
            node: vec![body],
        }
    }

    fn child(&mut self, parent: usize, node: ExprId) -> usize {
        self.parent.push(Some(parent));
        self.depth.push(self.depth[parent] + 1);
        self.node.push(node);
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

/// Pass 1's walk: builds the block tree and, for each local region (by its
/// offset in the minted range), the lowest common ancestor of the blocks it
/// occurs in.
struct Occurrences<'a> {
    res: &'a BodyResult,
    u: &'a Universe,
    local: &'a [bool],
    tree: &'a mut BlockTree,
    lca: &'a mut [Option<usize>],
}

impl Occurrences<'_> {
    fn collect(&mut self, e: &KExpr, block: usize) {
        let res = self.res;
        let (i, j) = (res.inst_at[e.id.index()], res.inst_at[e.id.index() + 1]);
        let inst = &res.inst[i as usize..j as usize];
        for r in own_regions(e, &res.types, &res.var_types, inst) {
            let Some(i) = self.u.offset(r).filter(|&i| self.local[i]) else {
                continue;
            };
            self.lca[i] = Some(match self.lca[i] {
                Some(prev) => self.tree.lca(prev, block),
                None => block,
            });
        }
        // Conditional branches and loop bodies are blocks of their own.
        let (cond, arms) = match &e.kind {
            KExprKind::If {
                cond,
                then_e,
                else_e,
            } => (cond, [Some(then_e), Some(else_e)]),
            KExprKind::While { cond, body } => (cond, [Some(body), None]),
            _ => {
                for c in e.children() {
                    self.collect(c, block);
                }
                return;
            }
        };
        self.collect(cond, block);
        for arm in arms.into_iter().flatten() {
            let b = self.tree.child(block, arm.id);
            self.collect(arm, b);
        }
    }
}
