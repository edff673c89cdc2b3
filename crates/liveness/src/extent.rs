//! The `letreg` extent rewriter: sink each binding to the smallest
//! well-scoped subtree (or contiguous statement run) covering the region's
//! use points.
//!
//! The rewriter works bottom-up over a method body: nested `letreg`s are
//! tightened first (so an outer binding can narrow past where an inner one
//! used to sit), then each binding is re-placed by `Rewriter::place`
//! descent:
//!
//! - a node *using* the region (its annotated type, its operand variables'
//!   types, its allocation/instantiation/cast regions, or — for `let` —
//!   the declared variable's type) pins the extent at that node;
//! - in a block (a flat item list whose `let` items scope over the rest of
//!   the block) the binding wraps only the minimal contiguous run of items
//!   containing uses. A split point inside the block takes one of two
//!   shapes, both scope-preserving:
//!   - **packing** — when the last use is the initializer of a binding
//!     whose declared type does not mention the region, the live prefix
//!     moves *into* that initializer: `let x = (letreg r in s1; …; e) in
//!     tail`. Evaluation order is unchanged; bindings pulled inside are
//!     provably dead in the tail (their types mention `r`, so any later
//!     reference would be a later use of `r`);
//!   - **truncation** — when the last use is a discarded statement (or a
//!     declaration whose own type mentions the region), the run gets an
//!     explicit unit continuation and sits in discarded position:
//!     `(letreg r in s1; …; ()); tail`;
//!
//!   a binding pulled into the run whose type does *not* mention the
//!   region but which is referenced after the split drags the split point
//!   forward (to a fixpoint), keeping every variable's scope intact;
//! - a sole-using `if` arm, loop body, or block item is descended into (a
//!   loop-body extent is entered afresh each iteration; the
//!   declaration-counts-as-use rule guarantees no outer variable can carry
//!   a stale pointer across iterations);
//! - another `letreg` binder is never crossed, preserving the nesting
//!   order the stack-discipline axioms were solved under;
//! - the checker's escape rule (`letreg` body type must not mention the
//!   bound region) is restored, where a trimmed run's discarded value
//!   would leak the region through its type, by sequencing the run with an
//!   explicit unit.
//!
//! Bindings whose region is never used are dropped outright.

// Placement intentionally threads the un-wrapped expression back through
// `Err` so the caller can keep descending without cloning subtrees.
#![allow(clippy::result_large_err)]

use crate::points::PointGraph;
use crate::ExtentStats;
use cj_frontend::VarId;
use cj_infer::localize::wrap_letreg;
use cj_infer::rast::{RExpr, RExprKind, RMethod, RType};
use cj_regions::var::RegVar;

/// Tightens every `letreg` extent in `m` (in place); returns what changed.
pub fn tighten_method(m: &mut RMethod) -> ExtentStats {
    let mut stats = ExtentStats::default();
    let before = PointGraph::build(m);
    if before.letregs.is_empty() {
        return stats;
    }
    stats.methods = 1;
    stats.letregs = before.letregs.len();
    stats.points = before.points.len();
    stats.extent_points_before = before.letregs.iter().map(|&(_, lo, hi)| hi - lo).sum();

    let mut rw = Rewriter {
        var_types: &m.var_types,
        narrowed: 0,
        dropped: Vec::new(),
    };
    rw.rewrite(&mut m.body);
    m.localized.retain(|r| !rw.dropped.contains(r));
    stats.narrowed = rw.narrowed;
    stats.dropped = rw.dropped.len();

    let after = PointGraph::build(m);
    debug_assert!(after.extents_cover_uses(), "extent left a use uncovered");
    stats.extent_points_after = after.letregs.iter().map(|&(_, lo, hi)| hi - lo).sum();
    stats
}

struct Rewriter<'a> {
    var_types: &'a [RType],
    narrowed: usize,
    dropped: Vec<RegVar>,
}

impl<'a> Rewriter<'a> {
    /// Rewrites children bottom-up, then re-places this node's `letreg`.
    fn rewrite(&mut self, e: &mut RExpr) {
        for c in e.children_mut() {
            self.rewrite(c);
        }
        if !matches!(e.kind, RExprKind::Letreg(..)) {
            return;
        }
        let span = e.span;
        let RExprKind::Letreg(r, inner) = std::mem::replace(e, RExpr::unit(span)).kind else {
            unreachable!("checked above");
        };
        let inner = *inner;
        if !self.subtree_uses(&inner, r) {
            self.dropped.push(r);
            *e = inner;
            return;
        }
        let mut moved = false;
        *e = match self.place(r, inner, false, &mut moved) {
            Ok(placed) => placed,
            // The region leaks through the body's value type: the
            // original (checker-visible) shape is the only valid one.
            Err(orig) => wrap_letreg(r, orig),
        };
        if moved {
            self.narrowed += 1;
        }
    }

    /// Places `letreg r` at the tightest position within `e` that covers
    /// every use of `r`. `discarded` says whether `e`'s value is dropped by
    /// its context (a non-final block item or loop body), which licenses the
    /// unit coercion when the trimmed value's type mentions `r`.
    ///
    /// `Err` returns `e` unchanged when no placement inside or around `e`
    /// is legal (its *used* value's type mentions `r`); the caller must
    /// then wrap some enclosing expression instead.
    fn place(
        &mut self,
        r: RegVar,
        mut e: RExpr,
        discarded: bool,
        moved: &mut bool,
    ) -> Result<RExpr, RExpr> {
        // Blocks get the run-splitting treatment; the block accounts for
        // its own items' uses.
        if let RExprKind::Block(items) = e.kind {
            return self.place_block(r, items, discarded, moved);
        }
        if self.node_uses(&e, r) {
            return self.wrap_here(r, e, discarded);
        }
        // Never sink past another letreg binder (relative nesting order is
        // what the stack-discipline axioms were solved under), nor into the
        // operands of a plain operation.
        if !matches!(e.kind, RExprKind::If { .. } | RExprKind::While { .. }) {
            return self.wrap_here(r, e, discarded);
        }
        // Sink into a condition, branch or loop body that holds every use.
        let users: Vec<usize> = e
            .children()
            .enumerate()
            .filter(|(_, c)| self.subtree_uses(c, r))
            .map(|(i, _)| i)
            .collect();
        let [i] = users[..] else {
            return self.wrap_here(r, e, discarded);
        };
        // A loop body is entered afresh each iteration. Sound because every
        // use (including every declaration of a variable that could carry
        // data in the region) is confined to the body.
        let loop_body = matches!(e.kind, RExprKind::While { .. }) && i == 1;
        let span = e.span;
        let slot = e.children_mut().nth(i).expect("a using child");
        let child = std::mem::replace(slot, RExpr::unit(span));
        match self.place(r, child, loop_body, moved) {
            Ok(placed) => {
                *slot = placed;
                *moved = true;
                Ok(e)
            }
            Err(child) => {
                *slot = child;
                self.wrap_here(r, e, discarded)
            }
        }
    }

    /// Narrows within a block: find the minimal run of items containing
    /// every use of `r`, extend its right edge until no pulled binding is
    /// referenced after it, then split by packing or truncation. The last
    /// item is the block's value.
    fn place_block(
        &mut self,
        r: RegVar,
        mut items: Vec<RExpr>,
        discarded: bool,
        moved: &mut bool,
    ) -> Result<RExpr, RExpr> {
        let n = items.len() - 1;
        let mentions: Vec<bool> = items.iter().map(|it| self.subtree_uses(it, r)).collect();
        let lo = mentions
            .iter()
            .position(|&f| f)
            .expect("block placement without a use");
        let mut hi = mentions.iter().rposition(|&f| f).expect("block has a use");

        // Scope fixpoint: every binding pulled inside the run must be dead
        // after it. In the packing form (run ends at a clean-decl binding's
        // initializer) the split binding itself stays outside the run.
        while hi < n {
            let pulled_end = if self.packing_at(&items[hi], r) {
                hi
            } else {
                hi + 1
            };
            let mut forced = None;
            for it in &items[lo..pulled_end] {
                if let RExprKind::Let { var, .. } = it.kind {
                    for (j, jt) in items.iter().enumerate().skip(hi + 1) {
                        if self.expr_refs(jt, var) {
                            forced = Some(forced.map_or(j, |f: usize| f.max(j)));
                        }
                    }
                }
            }
            match forced {
                Some(j) if j > hi => hi = j,
                _ => break,
            }
        }

        // Single mention position: descend into it for sub-item precision.
        if lo == hi {
            return self.descend_block_at(r, items, lo, discarded, moved);
        }
        if lo == 0 && hi == n {
            // The run is the whole block: no narrowing here.
            return self.wrap_here(r, RExpr::block(items), discarded);
        }
        if hi == n {
            // Leading trim only: the letreg starts at the first use and
            // runs to the end of the block — unless the block's value type
            // leaks r (possible only when the original letreg was already
            // illegal here, i.e. never for checker-produced input).
            if !discarded && self.leaks(&items[n], r) {
                *moved = false;
                return Err(RExpr::block(items));
            }
            *moved = true;
            let suffix = items.split_off(lo);
            let wrapped = self.wrap_here(r, RExpr::block(suffix), discarded);
            items.push(wrapped.expect("a value that does not leak wraps"));
            return Ok(RExpr::block(items));
        }

        *moved = true;
        let tail = items.split_off(hi + 1);
        let last = items.pop().expect("hi item");
        let mut run = items.split_off(lo);
        if self.packing_at(&last, r) {
            // Packing: the run becomes the split binding's initializer.
            let RExprKind::Let { var, init } = last.kind else {
                unreachable!("packing_at checked a let");
            };
            run.push(*init.expect("packing requires an initializer"));
            let init = Some(Box::new(wrap_letreg(r, RExpr::block(run))));
            items.push(RExpr {
                kind: RExprKind::Let { var, init },
                ..last
            });
        } else {
            // Truncation: the run (bindings included) ends in an explicit
            // unit and sits in discarded position before the tail.
            run.push(last);
            let span = run[0].span;
            run.push(RExpr::unit(span));
            items.push(wrap_letreg(r, RExpr::block(run)));
        }
        items.extend(tail);
        Ok(RExpr::block(items))
    }

    /// Descends into the single block position `at` holding every use.
    fn descend_block_at(
        &mut self,
        r: RegVar,
        mut items: Vec<RExpr>,
        at: usize,
        discarded: bool,
        moved: &mut bool,
    ) -> Result<RExpr, RExpr> {
        let n = items.len() - 1;
        if at == n {
            // Uses confined to the block's value expression.
            let fin = items.pop().expect("a block has a value item");
            return match self.place(r, fin, discarded, moved) {
                Ok(f2) => {
                    *moved = true;
                    items.push(f2);
                    Ok(RExpr::block(items))
                }
                Err(f) => {
                    // n > 0 means wrapping the whole block is still wider
                    // than needed, but the value type leaks r, so the whole
                    // block is the tightest legal extent.
                    items.push(f);
                    self.wrap_here(r, RExpr::block(items), discarded)
                }
            };
        }
        let tail = items.split_off(at + 1);
        let item = items.pop().expect("block position");
        let placed = match item.kind {
            RExprKind::Let { var, init } => {
                let span = item.span;
                let bind = |init| RExpr {
                    kind: RExprKind::Let { var, init },
                    rtype: RType::Void,
                    span,
                };
                match init {
                    Some(init) if !self.var_uses(var, r) => {
                        match self.place(r, *init, false, moved) {
                            Ok(i2) => {
                                *moved = true;
                                bind(Some(Box::new(i2)))
                            }
                            Err(i) => {
                                // The initializer's value type leaks r: the
                                // binding itself must stay in the extent.
                                let bind = bind(Some(Box::new(i)));
                                if tail.iter().any(|jt| self.expr_refs(jt, var)) {
                                    // Referenced later: no trim possible at
                                    // this granularity; wrap the rest of
                                    // the block from here.
                                    if !discarded && self.leaks(&tail[tail.len() - 1], r) {
                                        items.push(bind);
                                        items.extend(tail);
                                        return Err(RExpr::block(items));
                                    }
                                    if at > 0 {
                                        *moved = true;
                                    }
                                    let mut rest = vec![bind];
                                    rest.extend(tail);
                                    let wrapped = self.wrap_here(r, RExpr::block(rest), discarded);
                                    items.push(wrapped.expect("a value that does not leak wraps"));
                                    return Ok(RExpr::block(items));
                                }
                                // Truncate: bind inside the letreg with a
                                // unit body; sound because no later item
                                // references `var`.
                                *moved = true;
                                wrap_letreg(r, RExpr::block(vec![bind, RExpr::unit(span)]))
                            }
                        }
                    }
                    init => {
                        // The declaration itself mentions r (or there is no
                        // initializer to descend into): truncate around the
                        // bare binding. The fixpoint already guaranteed
                        // `var` is dead after the run.
                        *moved = true;
                        wrap_letreg(r, RExpr::block(vec![bind(init), RExpr::unit(span)]))
                    }
                }
            }
            kind => {
                // A discarded statement: placement inside always succeeds.
                let s2 = self
                    .place(r, RExpr { kind, ..item }, true, moved)
                    .expect("discarded position always wraps");
                *moved = true;
                s2
            }
        };
        items.push(placed);
        items.extend(tail);
        Ok(RExpr::block(items))
    }

    /// Whether the run may split *before* this item, packing the run into
    /// its initializer: a binding whose declared type does not mention `r`
    /// and whose initializer's own value type does not leak `r`.
    fn packing_at(&self, item: &RExpr, r: RegVar) -> bool {
        match &item.kind {
            RExprKind::Let {
                var,
                init: Some(init),
            } => !self.var_uses(*var, r) && !self.leaks(init, r),
            _ => false,
        }
    }

    /// Whether `e`'s value type mentions `r`.
    fn leaks(&self, e: &RExpr, r: RegVar) -> bool {
        e.rtype.regions().contains(&r)
    }

    /// Whether `e`'s subtree references variable slot `v` (kernel slots are
    /// unique per method, so no shadowing to account for).
    fn expr_refs(&self, e: &RExpr, v: VarId) -> bool {
        e.own_vars().any(|x| x == v) || e.children().any(|c| self.expr_refs(c, v))
    }

    /// Wraps `letreg r` around `e`, coercing a discarded value to unit
    /// when `e`'s type would leak `r` past the checker's escape rule.
    fn wrap_here(&self, r: RegVar, e: RExpr, discarded: bool) -> Result<RExpr, RExpr> {
        if !self.leaks(&e, r) {
            return Ok(wrap_letreg(r, e));
        }
        if !discarded {
            return Err(e);
        }
        let unit = RExpr::unit(e.span);
        Ok(wrap_letreg(r, RExpr::block(vec![e, unit])))
    }

    fn var_uses(&self, v: VarId, r: RegVar) -> bool {
        self.var_types[v.index()].regions().contains(&r)
    }

    /// Whether the operation at `e` itself uses `r` (same notion as
    /// [`PointGraph`]'s per-point use sets).
    fn node_uses(&self, e: &RExpr, r: RegVar) -> bool {
        e.own_regions(self.var_types).contains(&r)
    }

    /// Whether any node in `e`'s subtree uses `r`.
    fn subtree_uses(&self, e: &RExpr, r: RegVar) -> bool {
        self.node_uses(e, r) || e.children().any(|c| self.subtree_uses(c, r))
    }
}
