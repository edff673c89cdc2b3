//! The `letreg` extent tightener: moves each placement to the smallest
//! well-scoped expression (or contiguous run of block items) covering the
//! region's use points.
//!
//! Placements are visited innermost first (so an outer binding can narrow
//! past where an inner one used to sit), then each is re-placed by
//! `Tightener::place` descent from the expression \[exp-block\] put it
//! around:
//!
//! - an expression *using* the region (its annotated type, its operand
//!   variables' types, its allocation/instantiation/cast regions, or — for
//!   `let` — the declared variable's type) pins the extent at that
//!   expression;
//! - in a block (a flat item list whose `let` items scope over the rest of
//!   the block) the binding encloses only the minimal contiguous run of
//!   items containing uses, an [`Placement::Items`] range. Its right edge
//!   takes one of two shapes, both scope-preserving:
//!   - **packing** — when the last use is the initializer of a binding
//!     whose declared type does not mention the region, the range ends at
//!     that binding, whose variable stays dead inside it: the bindings
//!     pulled inside are provably dead in the tail (their types mention
//!     `r`, so any later reference would be a later use of `r`);
//!   - **truncation** — when the last use is a discarded statement (or a
//!     declaration whose own type mentions the region), the range ends
//!     before the block's value item, so its value is discarded;
//!
//!   a binding pulled into the run whose type does *not* mention the
//!   region but which is referenced after the split drags the split point
//!   forward (to a fixpoint), keeping every variable's scope intact;
//! - a sole-using `if` arm, condition, loop body or block item is
//!   descended into (a loop-body extent is entered afresh each iteration;
//!   the declaration-counts-as-use rule guarantees no outer variable can
//!   carry a stale pointer across iterations);
//! - a placement never moves into an expression or range that holds
//!   another placement, preserving the nesting order the stack-discipline
//!   axioms were solved under; wrapping one, it takes the same place, as
//!   the outer of the two;
//! - the checker's escape rule (a `letreg` region must not escape through
//!   a used value) limits where a placement may stop: a place whose value
//!   is used and whose type mentions the region is rejected, and the
//!   enclosing place is tried instead.
//!
//! Placements whose region is never used are dropped outright.

use crate::points::PointGraph;
use crate::ExtentStats;
use cj_frontend::kernel::{ExprId, KExpr, KExprKind};
use cj_frontend::VarId;
use cj_infer::rast::{Letreg, Placement, RMethod};
use cj_regions::var::RegVar;
use std::collections::HashMap;

/// Tightens every `letreg` placement of `m`, whose kernel body is `body`,
/// in place; returns what changed.
///
/// # Panics
///
/// If the tightened placements are not laminar or leave a use of their
/// region uncovered — a bug in this pass.
pub fn tighten_method(body: &KExpr, m: &mut RMethod) -> ExtentStats {
    let mut stats = ExtentStats::default();
    let before = PointGraph::build(body, m);
    if before.letregs.is_empty() {
        return stats;
    }
    stats.letregs = before.letregs.len();
    stats.extent_points_before = before.extent_points();

    let mut t = Tightener::new(body, m);
    let mut letregs = m.letregs().to_vec();
    // The list is outermost first: backwards, every placement comes after
    // the ones it encloses.
    for me in (0..letregs.len()).rev() {
        t.tighten(m, &mut letregs, me);
    }
    (stats.narrowed, stats.dropped) = (t.narrowed, t.dropped);
    m.set_letregs(letregs);

    let after = PointGraph::build(body, m);
    assert!(after.extents_laminar(), "letreg extents must nest");
    assert!(after.extents_cover_uses(), "extent left a use uncovered");
    stats.extent_points_after = after.extent_points();
    stats
}

/// What tightening sees at one position: an expression, or items
/// `lo..=hi` of a block.
#[derive(Clone, Copy)]
enum Unit<'k> {
    /// An expression that is not a block item.
    Node(&'k KExpr),
    /// Block items. `placed` is `None` for one item with no range around
    /// it, and otherwise whether the outermost placement around the run
    /// packs it into item `hi`'s `let` initializer, so that the run
    /// stands for that `let`.
    Items {
        block: &'k KExpr,
        lo: u32,
        hi: u32,
        placed: Option<bool>,
    },
}

impl<'k> Unit<'k> {
    /// The expression this unit is, if it is one.
    fn expr(self) -> Option<&'k KExpr> {
        match self {
            Unit::Node(e) => Some(e),
            Unit::Items {
                block,
                lo,
                placed: None,
                ..
            } => Some(&block.items()[lo as usize]),
            Unit::Items { .. } => None,
        }
    }

    /// The `let` this unit stands for, if any.
    fn as_let(self) -> Option<(VarId, Option<&'k KExpr>)> {
        let e = match self {
            Unit::Items {
                block,
                hi,
                placed: Some(true),
                ..
            } => &block.items()[hi as usize],
            _ => self.expr()?,
        };
        match &e.kind {
            KExprKind::Let { var, init } => Some((*var, init.as_deref())),
            _ => None,
        }
    }

    /// The expression whose annotated type is the unit's value type.
    /// Whenever that type is asked about in a place whose value is used,
    /// no placement on the value's way out has made it `void`: such a
    /// placement was made in a discarded place, and the value's way out
    /// of a block only passes through its last items, which inherit that.
    fn value(self) -> Option<&'k KExpr> {
        match self {
            Unit::Node(e) => Some(e),
            Unit::Items {
                placed: Some(true), ..
            } => None,
            Unit::Items { block, hi, .. } => Some(&block.items()[hi as usize]),
        }
    }

    /// The placement enclosing this unit, and whether it is packed.
    fn site(self) -> (Placement, bool) {
        match self {
            // A `let` block item is enclosed by an item range.
            Unit::Items {
                placed: None,
                block,
                lo,
                ..
            } if !matches!(block.items()[lo as usize].kind, KExprKind::Let { .. }) => {
                (Placement::Node(block.items()[lo as usize].id), false)
            }
            Unit::Node(e) => (Placement::Node(e.id), false),
            Unit::Items { placed, .. } => (range(self, self), placed == Some(true)),
        }
    }
}

/// The items from `first`'s to `last`'s, of their block: all of them is the
/// block itself.
fn range(first: Unit<'_>, last: Unit<'_>) -> Placement {
    let (Unit::Items { block, lo, .. }, Unit::Items { hi, .. }) = (first, last) else {
        unreachable!("block items")
    };
    if lo == 0 && hi as usize + 1 == block.items().len() {
        return Placement::Node(block.id);
    }
    Placement::Items {
        block: block.id,
        lo,
        hi,
    }
}

/// The tightening state of one method.
struct Tightener<'k> {
    /// The body's expressions, by id.
    nodes: Vec<&'k KExpr>,
    /// Per expression, one past the last id of its subtree.
    ends: Vec<u32>,
    /// Per variable, the expressions whose own operation reads or writes
    /// it, in id order.
    refs: Vec<Vec<u32>>,
    /// Per expression, how many tightened placements sit around it.
    around: Vec<u32>,
    /// Per block, the item ranges of tightened placements, inner ones
    /// first, as `(lo, hi, packed)`.
    ranges: HashMap<ExprId, Vec<(u32, u32, bool)>>,
    /// The expressions using the region being placed, in id order.
    uses: Vec<u32>,
    /// The region being placed.
    r: RegVar,
    /// Whether the current placement moved.
    moved: bool,
    narrowed: usize,
    dropped: usize,
}

impl<'k> Tightener<'k> {
    fn new(body: &'k KExpr, m: &RMethod) -> Tightener<'k> {
        let mut t = Tightener {
            nodes: Vec::with_capacity(m.types.len()),
            ends: vec![0; m.types.len()],
            refs: vec![Vec::new(); m.var_types.len()],
            around: vec![0; m.types.len()],
            ranges: HashMap::new(),
            uses: Vec::new(),
            r: RegVar::HEAP,
            moved: false,
            narrowed: 0,
            dropped: 0,
        };
        t.index(body);
        t
    }

    /// Fills `nodes`, `ends` and `refs` for `e`'s subtree; returns its end.
    fn index(&mut self, e: &'k KExpr) -> u32 {
        self.nodes.push(e);
        for v in e.own_vars() {
            self.refs[v.index()].push(e.id.0);
        }
        let mut end = e.id.0 + 1;
        for c in e.children() {
            end = self.index(c);
        }
        self.ends[e.id.index()] = end;
        end
    }

    /// Re-places placement `me` of `letregs`; the ones it encloses are
    /// done.
    fn tighten(&mut self, m: &RMethod, letregs: &mut Vec<Letreg>, me: usize) {
        let Letreg { region, at } = letregs[me];
        let Placement::Node(start) = at else {
            unreachable!("[exp-block] places letregs around expressions")
        };
        (self.r, self.moved) = (region, false);
        let nodes = &self.nodes;
        let within = start.0..self.ends[start.index()];
        self.uses.clear();
        (self.uses)
            .extend(within.filter(|&i| m.own_regions(nodes[i as usize]).any(|x| x == region)));
        if self.uses.is_empty() {
            letregs.remove(me);
            self.dropped += 1;
            return;
        }
        let placed = self.place(m, Unit::Node(self.nodes[start.index()]), false);
        let (at, packed) = placed.unwrap_or((at, false));
        match at {
            Placement::Node(e) => self.around[e.index()] += 1,
            Placement::Items { block, lo, hi } => {
                self.ranges.entry(block).or_default().push((lo, hi, packed));
            }
        }
        letregs[me].at = at;
        self.narrowed += usize::from(self.moved);
    }

    /// Places the region at the tightest position within `u` that covers
    /// every use. `discarded` says whether `u`'s value is dropped by its
    /// context (a non-final block item or loop body); the value of a used
    /// place may not mention the region.
    ///
    /// `Err` when no placement inside or around `u` is legal (its *used*
    /// value's type mentions the region); the caller then encloses some
    /// enclosing place instead.
    fn place(&mut self, m: &RMethod, u: Unit<'k>, discarded: bool) -> Placed {
        // Never move into another placement.
        let Some(e) = u.expr().filter(|e| self.bare(e)) else {
            return self.wrap_here(m, u, discarded);
        };
        // Blocks get the run-splitting treatment; the block accounts for
        // its own items' uses.
        if let KExprKind::Block(_) = e.kind {
            return self.place_block(m, e, discarded);
        }
        // Nor into the operands of a plain operation, or past a use.
        if !matches!(e.kind, KExprKind::If { .. } | KExprKind::While { .. })
            || m.own_regions(e).any(|x| x == self.r)
        {
            return self.wrap_here(m, u, discarded);
        }
        // Sink into a condition, branch or loop body that holds every use.
        let mut users = (e.children().enumerate()).filter(|&(_, c)| self.uses_in(Unit::Node(c)));
        let (Some((i, child)), None) = (users.next(), users.next()) else {
            return self.wrap_here(m, u, discarded);
        };
        // A loop body is entered afresh each iteration. Sound because every
        // use (including every declaration of a variable that could carry
        // data in the region) is confined to the body.
        let loop_body = matches!(e.kind, KExprKind::While { .. }) && i == 1;
        match self.place(m, Unit::Node(child), loop_body) {
            Err(()) => self.wrap_here(m, u, discarded),
            placed => self.moved(placed),
        }
    }

    /// Narrows within a block: find the minimal run of units containing
    /// every use, extend its right edge until no pulled binding is
    /// referenced after it, then split by packing or truncation. The last
    /// unit holds the block's value.
    fn place_block(&mut self, m: &RMethod, b: &'k KExpr, discarded: bool) -> Placed {
        let units = self.units(b);
        let n = units.len() - 1;
        let lo = (units.iter())
            .position(|&u| self.uses_in(u))
            .expect("a use");
        let mut hi = (units.iter())
            .rposition(|&u| self.uses_in(u))
            .expect("a use");

        // Scope fixpoint: every binding pulled inside the run must be dead
        // after it. In the packing form (run ends at a clean-decl binding's
        // initializer) the split binding itself stays outside the run.
        while hi < n {
            let pulled_end = hi + usize::from(!self.packing_at(m, units[hi]));
            let mut forced = None;
            for (var, _) in units[lo..pulled_end].iter().filter_map(|u| u.as_let()) {
                if let Some(j) = (hi + 1..=n).rev().find(|&j| self.refs_var(units[j], var)) {
                    forced = forced.max(Some(j));
                }
            }
            match forced {
                Some(j) if j > hi => hi = j,
                _ => break,
            }
        }

        // Single mention position: descend into it for sub-item precision.
        if lo == hi {
            return self.descend_block_at(m, b, &units, lo, discarded);
        }
        if lo == 0 && hi == n {
            // The run is the whole block: no narrowing here.
            return self.wrap_here(m, Unit::Node(b), discarded);
        }
        if hi == n && !discarded && self.leaks(m, units[n]) {
            // Leading trim only, but the block's used value would leak the
            // region (only when the original letreg was already illegal
            // here, i.e. never for checker-produced input).
            return Err(());
        }
        let packed = hi < n && self.packing_at(m, units[hi]);
        self.moved(Ok((range(units[lo], units[hi]), packed)))
    }

    /// Descends into the single block position `at` holding every use.
    fn descend_block_at(
        &mut self,
        m: &RMethod,
        b: &'k KExpr,
        units: &[Unit<'k>],
        at: usize,
        discarded: bool,
    ) -> Placed {
        let n = units.len() - 1;
        let u = units[at];
        if at == n {
            // Uses confined to the block's value; if its type leaks the
            // region, the whole block is the tightest legal extent.
            return match self.place(m, u, discarded) {
                Err(()) => self.wrap_here(m, Unit::Node(b), discarded),
                placed => self.moved(placed),
            };
        }
        let Some((var, init)) = u.as_let() else {
            // A discarded statement: placement inside always succeeds.
            let placed = self.place(m, u, true);
            return self.moved(Ok(placed.expect("discarded position always wraps")));
        };
        if let (Some(init), false) = (init, self.var_uses(m, var)) {
            let placed = match u.expr() {
                Some(_) => self.place(m, Unit::Node(init), false),
                // A packed run is its `let`'s initializer, already
                // enclosed: never move into it.
                None if m.ty(init).mentions(self.r) => Err(()),
                None => Ok(u.site()),
            };
            if placed.is_ok() {
                return self.moved(placed);
            }
            // The initializer's value type leaks the region: the binding
            // itself must stay in the extent. Referenced later, it allows no
            // trim at this granularity: enclose the rest of the block.
            if units[at + 1..].iter().any(|&jt| self.refs_var(jt, var)) {
                if !discarded && self.leaks(m, units[n]) {
                    return Err(());
                }
                if at == 0 {
                    return self.wrap_here(m, Unit::Node(b), discarded);
                }
                return self.moved(Ok((range(u, units[n]), false)));
            }
        }
        // Truncate around the binding: its variable is dead after it (the
        // fixpoint guaranteed that when the declaration itself mentions the
        // region).
        self.moved(Ok((range(u, u), false)))
    }

    /// Records that the placement moved to `placed`.
    fn moved(&mut self, placed: Placed) -> Placed {
        self.moved = true;
        placed
    }

    /// Encloses `u` itself, unless its used value's type mentions the
    /// region.
    fn wrap_here(&self, m: &RMethod, u: Unit<'k>, discarded: bool) -> Placed {
        match !discarded && self.leaks(m, u) {
            true => Err(()),
            false => Ok(u.site()),
        }
    }

    /// The block's items as units: each run a tightened placement encloses
    /// is one unit.
    fn units(&self, b: &'k KExpr) -> Vec<Unit<'k>> {
        let ranges = self.ranges.get(&b.id).map_or(&[][..], Vec::as_slice);
        let mut units = Vec::new();
        let mut lo = 0;
        while (lo as usize) < b.items().len() {
            // The widest range starting here; among equal ones, the
            // outermost (last tightened).
            let mut unit = (lo, None);
            for &(at, hi, packed) in ranges {
                if at == lo && (unit.1.is_none() || hi >= unit.0) {
                    unit = (hi, Some(packed));
                }
            }
            let (hi, placed) = unit;
            units.push(Unit::Items {
                block: b,
                lo,
                hi,
                placed,
            });
            lo = hi + 1;
        }
        units
    }

    /// Whether no tightened placement sits around `e`.
    fn bare(&self, e: &KExpr) -> bool {
        self.around[e.id.index()] == 0
    }

    /// Whether an expression in `u` is among the sorted ids `of`.
    fn any_in(&self, of: &[u32], u: Unit<'k>) -> bool {
        let (first, last) = match u {
            Unit::Node(e) => (e, e),
            Unit::Items { block, lo, hi, .. } => {
                (&block.items()[lo as usize], &block.items()[hi as usize])
            }
        };
        let i = of.partition_point(|&x| x < first.id.0);
        i < of.len() && of[i] < self.ends[last.id.index()]
    }

    /// Whether any expression in `u` uses the region.
    fn uses_in(&self, u: Unit<'k>) -> bool {
        self.any_in(&self.uses, u)
    }

    /// Whether `u` references variable slot `v` (kernel slots are unique
    /// per method, so no shadowing to account for).
    fn refs_var(&self, u: Unit<'k>, v: VarId) -> bool {
        self.any_in(&self.refs[v.index()], u)
    }

    /// Whether `u`'s value type mentions the region.
    fn leaks(&self, m: &RMethod, u: Unit<'k>) -> bool {
        u.value().is_some_and(|e| m.ty(e).mentions(self.r))
    }

    fn var_uses(&self, m: &RMethod, v: VarId) -> bool {
        m.var_types[v.index()].mentions(self.r)
    }

    /// Whether the run may end at this unit, packing into its initializer:
    /// a binding whose declared type does not mention the region and whose
    /// initializer's value type does not either.
    fn packing_at(&self, m: &RMethod, u: Unit<'k>) -> bool {
        match u.as_let() {
            Some((var, Some(init))) => !self.var_uses(m, var) && !m.ty(init).mentions(self.r),
            _ => false,
        }
    }
}

/// Where a placement goes, and whether it is packed; `Err` when it cannot
/// stop inside the place asked about.
type Placed = Result<(Placement, bool), ()>;
