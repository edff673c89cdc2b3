//! The per-method control-flow point graph and the backward liveness
//! solver over it.
//!
//! Every annotated expression node gets one *action point* (its "do the
//! operation" moment), emitted in evaluation order after its children's
//! points; `if` gets an extra join point, `while` an extra exit point, and
//! `letreg` a push point before and a pop point after its body. Successor
//! edges follow evaluation order (a block's items in turn), branch at
//! conditionals, and carry the loop back edge from a body's last point to
//! its condition — the graph a region is "a set of points of" in the NLL
//! design.
//!
//! A point *uses* a region variable when the operation at that point could
//! touch data in the region: the node's annotated type, operand variables'
//! types, allocation regions, call instantiations, cast targets — and, by
//! design, a `let` declaration uses every region of the declared variable's
//! type. Because the region system is flow-insensitive, everything
//! reachable from a variable lives in the regions of the variable's type,
//! so these syntactic use points cover every dynamic access; the
//! declaration rule additionally pins a region wherever a variable *could*
//! carry it, which is what makes extent rewriting across loop iterations
//! sound (no binding outside an extent can smuggle a stale pointer back
//! in).

use cj_infer::rast::{RExpr, RExprKind, RMethod, RType};
use cj_regions::var::RegVar;
use std::collections::{BTreeSet, HashMap};

/// One control-flow point.
#[derive(Debug, Clone, Default)]
pub struct Point {
    /// Regions used at this point.
    pub uses: BTreeSet<RegVar>,
    /// Successor points.
    pub succs: Vec<usize>,
}

/// The per-method point graph.
#[derive(Debug, Clone, Default)]
pub struct PointGraph {
    /// Points, in emission (evaluation) order.
    pub points: Vec<Point>,
    /// Per-`letreg` `(region, push point, pop point)`, in traversal order.
    /// Point ids are contiguous per subtree, so `[push, pop]` is exactly
    /// the binding's extent.
    pub letregs: Vec<(RegVar, usize, usize)>,
}

impl PointGraph {
    /// Builds the graph for a method body.
    pub fn build(m: &RMethod) -> PointGraph {
        let mut g = PointGraph::default();
        let mut b = Builder {
            g: &mut g,
            var_types: &m.var_types,
        };
        b.emit(&m.body);
        g
    }

    /// Every point where `r` is used.
    pub fn use_points(&self, r: RegVar) -> Vec<usize> {
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.uses.contains(&r))
            .map(|(i, _)| i)
            .collect()
    }

    /// Backward liveness of the given regions: `live[p]` is the set of
    /// regions used at `p` or at some point reachable from `p`.
    pub fn liveness(&self, of: &BTreeSet<RegVar>) -> Vec<BTreeSet<RegVar>> {
        let n = self.points.len();
        let mut live: Vec<BTreeSet<RegVar>> = (0..n)
            .map(|i| self.points[i].uses.intersection(of).copied().collect())
            .collect();
        // Kleene iteration to fixpoint; the graph is near-linear, so
        // sweeping in reverse emission order converges in a few passes
        // (one extra per loop-nesting level for the back edges).
        loop {
            let mut changed = false;
            for p in (0..n).rev() {
                let mut add: Vec<RegVar> = Vec::new();
                for &s in &self.points[p].succs {
                    for &r in &live[s] {
                        if !live[p].contains(&r) {
                            add.push(r);
                        }
                    }
                }
                if !add.is_empty() {
                    live[p].extend(add);
                    changed = true;
                }
            }
            if !changed {
                return live;
            }
        }
    }

    /// Whether every use point of every `letreg`-bound region falls inside
    /// its binding's `[push, pop]` extent — the invariant the extent
    /// rewriter must uphold.
    pub fn extents_cover_uses(&self) -> bool {
        let mut extents: HashMap<RegVar, Vec<(usize, usize)>> = HashMap::new();
        for &(r, push, pop) in &self.letregs {
            extents.entry(r).or_default().push((push, pop));
        }
        self.points.iter().enumerate().all(|(p, point)| {
            point.uses.iter().all(|r| {
                extents
                    .get(r)
                    .is_none_or(|exts| exts.iter().all(|&(push, pop)| push <= p && p <= pop))
            })
        })
    }
}

struct Builder<'a> {
    g: &'a mut PointGraph,
    var_types: &'a [RType],
}

impl<'a> Builder<'a> {
    fn point(&mut self) -> usize {
        self.g.points.push(Point::default());
        self.g.points.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.g.points[from].succs.push(to);
    }

    /// Emits points for `e`; returns `(entry, exit)`. The subtree's points
    /// occupy the contiguous id range emitted during the call.
    fn emit(&mut self, e: &RExpr) -> (usize, usize) {
        match &e.kind {
            RExprKind::Letreg(r, inner) => {
                let push = self.action(e);
                let (ie, ix) = self.emit(inner);
                self.edge(push, ie);
                let pop = self.point();
                self.edge(ix, pop);
                self.g.letregs.push((*r, push, pop));
                (push, pop)
            }
            RExprKind::If {
                cond,
                then_e,
                else_e,
            } => {
                let (entry, cx) = self.emit(cond);
                let branch = self.action(e);
                self.edge(cx, branch);
                let (te, tx) = self.emit(then_e);
                let (ee, ex) = self.emit(else_e);
                self.edge(branch, te);
                self.edge(branch, ee);
                let join = self.point();
                self.edge(tx, join);
                self.edge(ex, join);
                (entry, join)
            }
            RExprKind::While { cond, body } => {
                let (ce, cx) = self.emit(cond);
                let branch = self.action(e);
                self.edge(cx, branch);
                let (be, bx) = self.emit(body);
                self.edge(branch, be);
                self.edge(bx, ce); // loop back edge
                let exit = self.point();
                self.edge(branch, exit);
                (ce, exit)
            }
            _ => {
                // The children in evaluation order, then the node's own
                // action.
                let mut entry = None;
                let mut prev = None;
                for c in e.children() {
                    let (ce, cx) = self.emit(c);
                    if let Some(px) = prev {
                        self.edge(px, ce);
                    }
                    entry.get_or_insert(ce);
                    prev = Some(cx);
                }
                let p = self.action(e);
                if let Some(px) = prev {
                    self.edge(px, p);
                }
                (entry.unwrap_or(p), p)
            }
        }
    }

    /// The node's action point, carrying its region uses.
    fn action(&mut self, e: &RExpr) -> usize {
        let p = self.point();
        let uses = e.own_regions(self.var_types).into_iter().collect();
        self.g.points[p].uses = uses;
        p
    }
}
