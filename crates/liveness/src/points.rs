//! The per-method control-flow point graph.
//!
//! Every kernel expression gets one *action point* (its "do the
//! operation" moment), emitted in evaluation order after its children's
//! points; `if` gets an extra join point, `while` an extra exit point, and
//! each `letreg` placement a push point before what it encloses and a pop
//! point after. Successor edges follow evaluation order (a block's items
//! in turn), branch at conditionals, and carry the loop back edge from a
//! body's last point to its condition — the graph a region is "a set of
//! points of" in the NLL design.
//!
//! A point *uses* a region variable when the operation at that point could
//! touch data in the region: the expression's annotated type, operand
//! variables' types, allocation regions, call instantiations, cast targets
//! — and, by design, a `let` declaration uses every region of the declared
//! variable's type. Because the region system is flow-insensitive,
//! everything reachable from a variable lives in the regions of the
//! variable's type, so these syntactic use points cover every dynamic
//! access; the declaration rule additionally pins a region wherever a
//! variable *could* carry it, which is what makes extent tightening across
//! loop iterations sound (no binding outside an extent can smuggle a stale
//! pointer back in).

use cj_frontend::kernel::{KExpr, KExprKind};
use cj_infer::rast::RMethod;
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
    /// Per placement `(region, push point, pop point)`, in push order.
    /// Point ids are contiguous per subtree and item run, so `[push, pop]`
    /// is exactly the binding's extent.
    pub letregs: Vec<(RegVar, usize, usize)>,
}

impl PointGraph {
    /// Builds the graph for a method's kernel body `body`.
    pub fn build(body: &KExpr, m: &RMethod) -> PointGraph {
        let mut g = PointGraph::default();
        Builder { g: &mut g, m }.emit(body);
        g
    }

    /// The summed length of every placement's extent, in points.
    pub fn extent_points(&self) -> usize {
        self.letregs.iter().map(|&(_, lo, hi)| hi - lo).sum()
    }

    /// Whether the placements' extents are laminar in push order: each one
    /// after another either lies inside it or starts after it ends.
    pub fn extents_laminar(&self) -> bool {
        // The pops of the extents still open at each push.
        let mut open: Vec<usize> = Vec::new();
        self.letregs.iter().all(|&(_, push, pop)| {
            while open.last().is_some_and(|&end| end < push) {
                open.pop();
            }
            let nested = open.last().is_none_or(|&end| pop < end);
            open.push(pop);
            nested
        })
    }

    /// Whether every use point of every `letreg`-bound region falls inside
    /// its binding's `[push, pop]` extent — the invariant the extent
    /// tightener must uphold.
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
    m: &'a RMethod,
}

impl Builder<'_> {
    fn point(&mut self) -> usize {
        self.g.points.push(Point::default());
        self.g.points.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.g.points[from].succs.push(to);
    }

    /// Emits `r`'s push point; returns it and where its extent goes in
    /// `letregs`.
    fn push(&mut self, r: RegVar) -> (usize, usize) {
        let push = self.point();
        self.g.letregs.push((r, push, push));
        (push, self.g.letregs.len() - 1)
    }

    /// Emits the pop point closing `letregs[at]`.
    fn pop(&mut self, at: usize) -> usize {
        let pop = self.point();
        self.g.letregs[at].2 = pop;
        pop
    }

    /// Appends the points `(entry, exit)` to the sequence `seq` (its first
    /// entry and last exit so far).
    fn then(&mut self, seq: &mut Option<(usize, usize)>, (entry, exit): (usize, usize)) {
        match seq {
            Some((_, last)) => {
                self.edge(*last, entry);
                *last = exit;
            }
            None => *seq = Some((entry, exit)),
        }
    }

    /// Emits points for `e` and the placements around it; returns
    /// `(entry, exit)`. The subtree's points occupy the contiguous id range
    /// emitted during the call.
    fn emit(&mut self, e: &KExpr) -> (usize, usize) {
        self.emit_from(e, 0)
    }

    /// [`Self::emit`] inside the placements around `e` from the `skip`-th
    /// on.
    fn emit_from(&mut self, e: &KExpr, skip: usize) -> (usize, usize) {
        let Some(r) = self.m.letregs_at(e.id).get(skip).map(|l| l.region) else {
            return self.emit_node(e);
        };
        let (push, at) = self.push(r);
        let mut seq = Some((push, push));
        let inner = self.emit_from(e, skip + 1);
        self.then(&mut seq, inner);
        let pop = self.pop(at);
        self.then(&mut seq, (pop, pop));
        seq.expect("a push")
    }

    fn emit_node(&mut self, e: &KExpr) -> (usize, usize) {
        match &e.kind {
            KExprKind::If {
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
            KExprKind::While { cond, body } => {
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
                // The children in evaluation order — a block's items each
                // inside the item ranges around them — then the node's own
                // action.
                let ranges: Vec<_> = self.m.letregs_in(e.id).collect();
                let (mut open, mut seq) = (Vec::new(), None);
                for (i, c) in (0..).zip(e.children()) {
                    for &(r, _, _) in ranges.iter().filter(|&&(_, lo, _)| lo == i) {
                        let (push, at) = self.push(r);
                        self.then(&mut seq, (push, push));
                        open.push(at);
                    }
                    let child = self.emit(c);
                    self.then(&mut seq, child);
                    for _ in ranges.iter().filter(|&&(_, _, hi)| hi == i) {
                        let pop = self.pop(open.pop().expect("ranges nest"));
                        self.then(&mut seq, (pop, pop));
                    }
                }
                let p = self.action(e);
                self.then(&mut seq, (p, p));
                seq.expect("an action point")
            }
        }
    }

    /// The expression's action point, carrying its region uses.
    fn action(&mut self, e: &KExpr) -> usize {
        let p = self.point();
        self.g.points[p].uses = self.m.own_regions(e).collect();
        p
    }
}
