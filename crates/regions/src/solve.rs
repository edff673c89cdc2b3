//! The region constraint solver.
//!
//! A [`Solver`] maintains a conjunction of outlives/equality constraints in
//! solved form: a union-find of region equivalence classes plus a directed
//! graph of outlives edges between class representatives. It answers the
//! three questions the inference and checker ask:
//!
//! - **entailment** — does the conjunction imply `a ≥ b` / `a = b`?
//! - **projection** — existentially eliminate all variables outside a kept
//!   set, returning the strongest derivable constraint over the kept set
//!   (used to form method preconditions, Fig 6);
//! - **escape closure** — which regions outlive a seed set (rule
//!   \[exp-block\]'s "all regions that outlive these regions also escape").
//!
//! Two semantic rules are built in:
//! - cycles of `≥` collapse to equalities (mutual outlives means equal
//!   lifetime — this is what merges cyclic structures into one region,
//!   Fig 5);
//! - `heap ≥ r` holds axiomatically for every `r`, and `r ≥ heap` forces
//!   `r = heap`.
//!
//! Constraint sets here are always satisfiable (mapping every variable to
//! `heap` satisfies any conjunction), so there is no "unsat" state.
//!
//! A solver is meant to be reused: [`Solver::reset`] empties it to `true`
//! in time proportional to what it held and keeps the capacity of every
//! table and buffer, so a pass that solves one method after another with
//! one solver grows those tables only until they fit its largest method.
//! What a query returns (`project`'s set, `escape_closure`'s and
//! `outlives_any`'s answers) is still a fresh value on every call.

use crate::constraint::{Atom, ConstraintSet};
use crate::var::RegVar;
use std::fmt;

/// The dense index of a region variable inside one [`Solver`].
type Slot = u32;

/// An incremental solver for region constraints. See the module docs.
///
/// Every variable gets a dense slot the first time the solver sees it,
/// from a hash table that [`reset`](Solver::reset) empties in constant
/// time; the union-find parents, the outlives edges and the search marks
/// are `Vec`s indexed by slot.
///
/// **Representatives.** A class is represented by the heap if it contains
/// the heap, and otherwise by its smallest variable id (typically the
/// earliest-created signature region). [`find`](Solver::find) returns that
/// variable.
///
/// **When normalization runs.** The graph is *normalized* when every
/// `≥`-cycle is collapsed into one class, so that it is acyclic. Until the
/// first query, adding a constraint only records it: an equality merges
/// two classes at once, an outlives atom adds one edge, and `r ≥ heap`
/// merges `r` into the heap; the cycles these close wait for
/// [`normalize`](Solver::normalize), which every query (`equal`,
/// `outlives_holds`, `outlived_among`, `entails*`, `project`,
/// `escape_closure`, `outlives_any`) runs first. An atom
/// added to a normalized solver is folded in at once instead: one search
/// from one side finds the classes on a path to the other side, which the
/// new atom closes into a cycle, and merges them, so the graph stays
/// normalized and the next query does no work before it answers.
///
/// **The fold budget.** Each query grants the folds that follow it, until
/// the next query, twice as many steps (a slot marked or an edge looked
/// at) as the solver then holds slots plus edges. A full normalization
/// passes over every slot and every edge twice, once to canonicalize and
/// once in the cycle search, and the graph it would meet at the next query
/// is no smaller, so the folds between two queries cost no more than the
/// normalization they spare it. An atom that merges a class into the heap,
/// or whose fold runs out of budget, leaves its cycles to the next query's
/// full normalization instead; a fold cut short has spent at most the
/// budget, so a batch of atoms between two queries costs at most two
/// normalizations.
///
/// # Examples
///
/// ```
/// use cj_regions::{constraint::Atom, solve::Solver, var::RegVar};
///
/// let (a, b, c, d) = (RegVar(1), RegVar(2), RegVar(3), RegVar(4));
/// let mut s = Solver::new();
/// s.add_outlives(a, b);
/// s.add_outlives(b, c);
/// s.add_outlives(c, a);
/// assert_eq!(s.find(c), c); // the cycle is not collapsed yet...
/// assert!(s.entails_atom(Atom::eq(a, c))); // ...until a query normalizes
/// assert_eq!(s.find(c), a);
/// s.add_outlives(a, d);
/// s.add_outlives(d, b); // closes a ≥ d ≥ a, folded in at once
/// assert_eq!(s.find(d), a);
/// s.reset(); // back to `true`, keeping the capacity
/// assert!(!s.outlives_holds(a, c));
/// ```
#[derive(Clone, Default)]
pub struct Solver {
    /// The slot of every variable seen since the last reset.
    slots: SlotTable,
    /// The variable of each slot.
    vars: Vec<RegVar>,
    /// Union-find parent of each slot; a representative is its own parent.
    parent: Vec<Slot>,
    /// Outlives edges `src ≥ dst` out of each representative. Only the
    /// first `vars.len()` lists are live; the rest are kept, empty, for
    /// their capacity. Until the next full normalization a target may be
    /// repeated or stale (no longer a representative); searches map every
    /// target to its representative.
    edges: Vec<Vec<Slot>>,
    /// The total length of the live edge lists.
    edge_count: usize,
    /// The steps left to the folds before the next query (see the type
    /// docs).
    fold_budget: usize,
    /// Search marks, all false between searches.
    seen: Vec<bool>,
    /// Whether a marked slot reaches a target of the current search.
    hit: Vec<bool>,
    /// The marked slots, so that the marks can be cleared.
    marked: Vec<Slot>,
    /// The depth-first search stack: a slot and the index of its next edge.
    stack: Vec<(Slot, usize)>,
    /// Whether every `≥`-cycle is collapsed (see the type docs).
    normalized: bool,
    /// [`Solver::normalize`]'s classes that reach the heap.
    to_heap: Vec<Slot>,
    /// [`Solver::normalize`]'s cycle search.
    tarjan: Tarjan,
    /// [`Solver::project`]'s kept variables, keyed by class.
    groups: Vec<(u64, RegVar)>,
}

/// The representative slot of `s` under the union-find `parent`.
fn root(parent: &[Slot], mut s: Slot) -> Slot {
    while parent[s as usize] != s {
        s = parent[s as usize];
    }
    s
}

impl Solver {
    /// An empty solver (the constraint `true`).
    pub fn new() -> Solver {
        Solver::default()
    }

    /// A solver pre-loaded with `set`.
    pub fn from_set(set: &ConstraintSet) -> Solver {
        let mut s = Solver::new();
        s.add_set(set);
        s
    }

    /// Empties the solver to the constraint `true`, as [`Solver::new`]
    /// would, but keeps the capacity of its tables and buffers. The cost is
    /// proportional to the number of variables it held, not to their ids.
    /// Scratch state is emptied too, so a solver whose search was cut short
    /// by a panic starts clean.
    pub fn reset(&mut self) {
        let n = self.vars.len();
        for outs in &mut self.edges[..n] {
            outs.clear();
        }
        self.vars.clear();
        self.parent.clear();
        self.seen.clear();
        self.hit.clear();
        self.marked.clear();
        self.stack.clear();
        self.to_heap.clear();
        self.groups.clear();
        self.tarjan.stack.clear();
        self.tarjan.work.clear();
        self.slots.clear();
        self.edge_count = 0;
        self.fold_budget = 0;
        self.normalized = false;
    }

    /// The slot of `v`, assigned on first sight.
    fn slot(&mut self, v: RegVar) -> Slot {
        let s = self.slots.get_or_insert(v, &self.vars);
        if s as usize == self.vars.len() {
            self.vars.push(v);
            self.parent.push(s);
            if self.edges.len() == s as usize {
                self.edges.push(Vec::new());
            }
            self.seen.push(false);
            self.hit.push(false);
        }
        s
    }

    fn is_heap(&self, s: Slot) -> bool {
        self.vars[s as usize].is_heap()
    }

    /// Representative slot of `s`, halving the path on the way.
    fn root_mut(&mut self, mut s: Slot) -> Slot {
        while self.parent[s as usize] != s {
            let grandparent = self.parent[self.parent[s as usize] as usize];
            self.parent[s as usize] = grandparent;
            s = grandparent;
        }
        s
    }

    /// Representative of `v`'s equivalence class (see the type docs for
    /// which variable that is).
    pub fn find(&self, v: RegVar) -> RegVar {
        match self.slots.get(v) {
            Some(s) => self.vars[root(&self.parent, s) as usize],
            None => v,
        }
    }

    /// Merges the classes of `a` and `b`, moving the loser's edges to the
    /// winner (the heap, or else the smaller variable). Returns whether
    /// they were distinct.
    fn union(&mut self, a: Slot, b: Slot) -> bool {
        let (ra, rb) = (self.root_mut(a), self.root_mut(b));
        if ra == rb {
            return false;
        }
        let (va, vb) = (self.vars[ra as usize], self.vars[rb as usize]);
        let (winner, loser) = if va.is_heap() || (!vb.is_heap() && va < vb) {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[loser as usize] = winner;
        // Migrate the loser's edges, appending the shorter list; the
        // emptied list stays with the loser for its capacity.
        let mut outs = std::mem::take(&mut self.edges[loser as usize]);
        let kept = &mut self.edges[winner as usize];
        if kept.len() < outs.len() {
            std::mem::swap(kept, &mut outs);
        }
        kept.append(&mut outs);
        self.edges[loser as usize] = outs;
        true
    }

    /// Adds `a = b`.
    pub fn add_eq(&mut self, a: RegVar, b: RegVar) {
        let (sa, sb) = (self.slot(a), self.slot(b));
        let (ra, rb) = (self.root_mut(sa), self.root_mut(sb));
        if ra == rb {
            return;
        }
        if self.normalized && !self.is_heap(ra) && !self.is_heap(rb) {
            // The classes on a path between the two close a cycle with them.
            let found = match self.paths_between(ra, rb) {
                Some(false) => self.paths_between(rb, ra),
                searched => searched,
            };
            if found.is_some() {
                self.collapse(ra, rb);
                return;
            }
        }
        self.union(ra, rb);
        self.normalized = false;
    }

    /// Adds `a ≥ b`.
    pub fn add_outlives(&mut self, a: RegVar, b: RegVar) {
        let (sa, sb) = (self.slot(a), self.slot(b));
        let (ra, rb) = (self.root_mut(sa), self.root_mut(sb));
        if ra == rb || self.is_heap(ra) {
            return; // trivial or axiomatic
        }
        if self.is_heap(rb) {
            // a >= heap forces a = heap.
            self.union(ra, rb);
            self.normalized = false;
            return;
        }
        if self.normalized {
            // The new edge closes a cycle exactly through the classes on a
            // path from b's class back to a's.
            match self.paths_between(rb, ra) {
                Some(false) => {
                    self.push_edge(ra, rb);
                    return;
                }
                Some(true) => {
                    self.collapse(ra, rb);
                    return;
                }
                None => {}
            }
        }
        self.push_edge(ra, rb);
        self.normalized = false;
    }

    fn push_edge(&mut self, src: Slot, dst: Slot) {
        self.edges[src as usize].push(dst);
        self.edge_count += 1;
    }

    /// Adds one atom.
    pub fn add_atom(&mut self, atom: Atom) {
        match atom {
            Atom::Outlives(a, b) => self.add_outlives(a, b),
            Atom::Eq(a, b) => self.add_eq(a, b),
        }
    }

    /// Conjoins a whole set.
    pub fn add_set(&mut self, set: &ConstraintSet) {
        for a in set.iter() {
            self.add_atom(a);
        }
    }

    /// Marks the classes on the paths from representative `from` to
    /// representative `to` of the normalized graph. Returns `Some(true)`
    /// when `to` is reachable, leaving marks whose `hit` flag is set on
    /// exactly those classes (both ends included); `Some(false)` when it is
    /// not; and `None` when the search runs out of fold budget. Only
    /// `Some(true)` leaves marks behind.
    fn paths_between(&mut self, from: Slot, to: Slot) -> Option<bool> {
        let target = self.vars[to as usize];
        let done = self.search(from, true, &mut |v| v == target);
        let found = done && self.hit[from as usize];
        if !found {
            self.clear_marks();
        }
        done.then_some(found)
    }

    /// Merges the classes of `a` and `b` with every marked class whose
    /// `hit` flag is set, clears the marks, and re-canonicalizes the merged
    /// class's edges, charging their number to the fold budget. The graph
    /// stays normalized.
    fn collapse(&mut self, a: Slot, b: Slot) {
        self.union(a, b);
        for k in 0..self.marked.len() {
            let s = self.marked[k];
            if self.hit[s as usize] {
                self.union(a, s);
            }
        }
        self.clear_marks();
        let w = self.root_mut(a);
        let (parent, outs) = (&self.parent, &mut self.edges[w as usize]);
        let before = outs.len();
        outs.retain_mut(|d| {
            *d = root(parent, *d);
            *d != w
        });
        outs.sort_unstable();
        outs.dedup();
        self.edge_count -= before - outs.len();
        self.fold_budget = self.fold_budget.saturating_sub(before);
    }

    /// Makes the graph normalized: every `≥`-cycle collapsed into one
    /// class, so that the graph over representatives is acyclic, and no
    /// edge leaving or entering the heap. On a solver that is not
    /// normalized it also canonicalizes: afterwards every parent is a
    /// representative, every edge joins two distinct representatives and
    /// each edge list is sorted and free of repeats. Folds keep only the
    /// first two properties, so between full normalizations a parent may be
    /// a non-representative and an edge target stale or repeated; every
    /// search maps targets to their representatives.
    ///
    /// Queries call this automatically. It grants the folds until the next
    /// query their budget, and on a normalized solver does nothing else
    /// (see the type docs for when that is).
    pub fn normalize(&mut self) {
        if !self.normalized {
            self.normalize_fully();
        }
        self.fold_budget = 2 * (self.vars.len() + self.edge_count);
    }

    fn normalize_fully(&mut self) {
        // A class with an edge into the heap joins it, which may give
        // other classes such an edge.
        while self.canonicalize() {
            let heap = self.slot(RegVar::HEAP);
            while let Some(s) = self.to_heap.pop() {
                self.union(s, heap);
            }
        }
        // Collapse the SCCs of the canonical graph. Their condensation is
        // acyclic and has no edge into the heap, so one more
        // canonicalization finishes.
        let n = self.vars.len();
        self.tarjan.run(&self.edges[..n]);
        if !self.tarjan.ends.is_empty() {
            let mut start = 0;
            for k in 0..self.tarjan.ends.len() {
                let end = self.tarjan.ends[k];
                for j in start + 1..end {
                    let (a, b) = (self.tarjan.members[start], self.tarjan.members[j]);
                    self.union(a, b);
                }
                start = end;
            }
            let reaches_heap = self.canonicalize();
            debug_assert!(!reaches_heap, "a cycle created an edge into the heap");
        }
        self.normalized = true;
    }

    /// Points every slot straight at its representative and canonicalizes
    /// every edge list: targets are representatives, sorted, without
    /// repeats or self-loops, and the heap's list is empty. Drops edges
    /// into the heap, collecting their sources in `to_heap`; returns
    /// whether there were any.
    fn canonicalize(&mut self) -> bool {
        let n = self.vars.len();
        for s in 0..n as Slot {
            let r = self.root_mut(s);
            self.parent[s as usize] = r;
        }
        self.edge_count = 0;
        for s in 0..n {
            if self.edges[s].is_empty() {
                continue;
            }
            debug_assert_eq!(self.parent[s] as usize, s, "edges leave representatives");
            if self.vars[s].is_heap() {
                self.edges[s].clear();
                continue;
            }
            let (parent, vars) = (&self.parent, &self.vars);
            let mut reaches_heap = false;
            let outs = &mut self.edges[s];
            outs.retain_mut(|d| {
                *d = parent[*d as usize];
                if vars[*d as usize].is_heap() {
                    reaches_heap = true;
                    return false;
                }
                *d as usize != s
            });
            outs.sort_unstable();
            outs.dedup();
            self.edge_count += outs.len();
            if reaches_heap {
                self.to_heap.push(s as Slot);
            }
        }
        !self.to_heap.is_empty()
    }

    /// Whether `a` and `b` are known equal.
    pub fn equal(&mut self, a: RegVar, b: RegVar) -> bool {
        self.normalize();
        self.find(a) == self.find(b)
    }

    /// Whether the conjunction entails `a ≥ b`.
    pub fn outlives_holds(&mut self, a: RegVar, b: RegVar) -> bool {
        self.normalize();
        let target = self.find(b);
        let Some(slot) = self.slots.get(a) else {
            return a.is_heap() || a == target;
        };
        let from = self.root_mut(slot);
        if self.is_heap(from) {
            return true;
        }
        self.search(from, false, &mut |rep| rep == target);
        let holds = self.hit[from as usize];
        self.clear_marks();
        holds
    }

    /// Appends to `out`, in order, each of `candidates` that `a` outlives:
    /// exactly the `c` for which [`outlives_holds(a, c)`] holds, from one
    /// reachability search.
    ///
    /// [`outlives_holds(a, c)`]: Solver::outlives_holds
    pub fn outlived_among(&mut self, a: RegVar, candidates: &[RegVar], out: &mut Vec<RegVar>) {
        self.normalize();
        let from = match self.slots.get(a) {
            Some(slot) => self.root_mut(slot),
            // An unseen variable outlives only itself, unless it is the heap.
            None if a.is_heap() => return out.extend_from_slice(candidates),
            None => return out.extend(candidates.iter().filter(|&&c| c == a)),
        };
        if self.is_heap(from) {
            return out.extend_from_slice(candidates);
        }
        self.mark_reachable(from);
        for &c in candidates {
            if let Some(s) = self.slots.get(c) {
                if self.seen[root(&self.parent, s) as usize] {
                    out.push(c);
                }
            }
        }
        self.clear_marks();
    }

    /// Whether the conjunction entails `atom`.
    pub fn entails_atom(&mut self, atom: Atom) -> bool {
        match atom {
            Atom::Outlives(a, b) => self.outlives_holds(a, b),
            Atom::Eq(a, b) => self.equal(a, b),
        }
    }

    /// Whether the conjunction entails every atom of `set`.
    pub fn entails(&mut self, set: &ConstraintSet) -> bool {
        set.iter().all(|a| self.entails_atom(a))
    }

    /// Marks every representative reachable from `from`, itself included,
    /// in breadth-first order; the caller clears the marks.
    fn mark_reachable(&mut self, from: Slot) {
        self.seen[from as usize] = true;
        self.marked.push(from);
        let mut next = self.marked.len() - 1;
        while let Some(&v) = self.marked.get(next) {
            next += 1;
            for &w in &self.edges[v as usize] {
                let w = root(&self.parent, w);
                if !std::mem::replace(&mut self.seen[w as usize], true) {
                    self.marked.push(w);
                }
            }
        }
    }

    /// Unmarks every marked slot.
    fn clear_marks(&mut self) {
        for &s in &self.marked {
            self.seen[s as usize] = false;
            self.hit[s as usize] = false;
        }
        self.marked.clear();
    }

    /// A depth-first search of the normalized (acyclic) graph from
    /// representative `from` that sets `hit` on every marked class that
    /// reaches a representative `is_target` accepts. Marks persist, so
    /// several searches share their answers until the caller clears them.
    /// A class known to reach a target is not explored further, unless
    /// `all_paths` asks for every class on a path to a target; a target's
    /// own successors are never explored then either, since none of them
    /// leads back to it. Such a search is a fold's, and each slot it marks
    /// and each edge it looks at costs one step of the fold budget; it
    /// returns `false`, abandoning the search, when the budget runs out.
    fn search(
        &mut self,
        from: Slot,
        all_paths: bool,
        is_target: &mut impl FnMut(RegVar) -> bool,
    ) -> bool {
        if self.seen[from as usize] {
            return true;
        }
        // A query's search is unbounded.
        let mut budget = match all_paths {
            true => self.fold_budget,
            false => usize::MAX,
        };
        let done = 'search: {
            if budget == 0 {
                break 'search false;
            }
            budget -= 1;
            self.seen[from as usize] = true;
            self.hit[from as usize] = is_target(self.vars[from as usize]);
            self.marked.push(from);
            self.stack.push((from, 0));
            // Iterative post-order: a slot's answer is final once it is popped,
            // and no slot is pushed twice since the graph is acyclic.
            while let Some(&(u, i)) = self.stack.last() {
                let u = u as usize;
                let done = self.hit[u] && (!all_paths || is_target(self.vars[u]));
                let next = match done {
                    true => None,
                    false => self.edges[u].get(i).copied(),
                };
                let Some(w) = next else {
                    self.stack.pop();
                    if let Some(&(p, _)) = self.stack.last() {
                        self.hit[p as usize] |= self.hit[u];
                    }
                    continue;
                };
                self.stack.last_mut().expect("nonempty").1 += 1;
                let w = root(&self.parent, w);
                let fresh = !self.seen[w as usize];
                // One step for the edge, one more for a slot it marks.
                let steps = 1 + usize::from(fresh);
                if budget < steps {
                    self.stack.clear();
                    break 'search false;
                }
                budget -= steps;
                if fresh {
                    self.seen[w as usize] = true;
                    self.hit[w as usize] = is_target(self.vars[w as usize]);
                    self.marked.push(w);
                    self.stack.push((w, 0));
                } else if self.hit[w as usize] {
                    self.hit[u] = true;
                }
            }
            true
        };
        if all_paths {
            self.fold_budget = budget;
        }
        done
    }

    /// Projects the conjunction onto `keep`: the strongest constraint over
    /// only the kept variables that the current conjunction entails
    /// (existential elimination of everything else). `keep` may repeat a
    /// variable and come in any order.
    ///
    /// This is how method preconditions are formed: the body constraint is
    /// projected onto the method's region parameters.
    pub fn project<'k>(&mut self, keep: impl IntoIterator<Item = &'k RegVar>) -> ConstraintSet {
        self.normalize();
        // Kept vars keyed by class: the representative's slot, or, for a
        // variable the solver has never seen, a key past every slot (such a
        // variable is alone in its class and reaches nothing).
        let mut groups = std::mem::take(&mut self.groups);
        for &v in keep {
            let key = match self.slots.get(v) {
                Some(s) => u64::from(root(&self.parent, s)),
                None => 1 << 32 | u64::from(v.0),
            };
            groups.push((key, v));
        }
        groups.sort_unstable();
        groups.dedup();
        let mut out = ConstraintSet::new();
        for (i, &(key, var_a)) in groups.iter().enumerate() {
            // Equalities within a class; its smallest var leads it.
            if i > 0 && groups[i - 1].0 == key {
                out.add_eq(groups[i - 1].1, var_a);
                continue;
            }
            let Ok(from) = Slot::try_from(key) else {
                continue;
            };
            // A kept var that collapsed into the heap: record `v = heap`.
            if self.is_heap(from) && !var_a.is_heap() {
                out.add_eq(var_a, RegVar::HEAP);
            }
            // Outlives between classes via reachability.
            self.mark_reachable(from);
            for (j, &(to, var_b)) in groups.iter().enumerate() {
                let leads = j == 0 || groups[j - 1].0 != to;
                if leads && to != key && to < 1 << 32 && self.seen[to as usize] {
                    out.add_outlives(var_a, var_b);
                }
            }
            self.clear_marks();
        }
        groups.clear();
        self.groups = groups;
        out
    }

    /// The escape closure of rule \[exp-block\]: for each of `universe`,
    /// whether it is equal to, or outlives, a seed. (`r` escapes iff
    /// `φ ⊢ r ≥ e` for some escaping `e`.)
    pub fn escape_closure(
        &mut self,
        seeds: impl IntoIterator<Item = RegVar>,
        universe: &[RegVar],
    ) -> Vec<bool> {
        self.normalize(); // so that `find` gives final representatives
        let mut seeds: Vec<RegVar> = seeds.into_iter().map(|v| self.find(v)).collect();
        seeds.sort_unstable();
        self.outlives_any(universe, |rep| seeds.binary_search(&rep).is_ok())
    }

    /// For each of `sources`, whether it outlives some region whose
    /// representative `is_target` accepts: whether its representative
    /// reaches one such representative in zero or more outlives steps. A
    /// source equal to the heap outlives everything and is answered `true`.
    /// One memoized search over the acyclic normalized graph answers all
    /// sources, so the cost is linear in the part of the graph they reach.
    pub fn outlives_any(
        &mut self,
        sources: &[RegVar],
        mut is_target: impl FnMut(RegVar) -> bool,
    ) -> Vec<bool> {
        self.normalize();
        let mut answers = Vec::with_capacity(sources.len());
        for &v in sources {
            let answer = match self.slots.get(v) {
                None => v.is_heap() || is_target(v),
                Some(slot) => {
                    let from = self.root_mut(slot);
                    self.is_heap(from) || {
                        self.search(from, false, &mut is_target);
                        self.hit[from as usize]
                    }
                }
            };
            answers.push(answer);
        }
        self.clear_marks();
        answers
    }
}

/// Prints the constraint the solver holds rather than its layout: each
/// variable with its current representative, and the outlives edges
/// between distinct representatives, both sorted and free of repeats. Two
/// solvers that hold the same constraint in the same state of
/// normalization print alike, whatever their slot order or capacity.
impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rep = |s: Slot| self.vars[root(&self.parent, s) as usize];
        let mut classes: Vec<(RegVar, RegVar)> = (0..self.vars.len() as Slot)
            .map(|s| (self.vars[s as usize], rep(s)))
            .collect();
        classes.sort_unstable();
        let mut outlives: Vec<(RegVar, RegVar)> = (0..self.vars.len() as Slot)
            .flat_map(|s| {
                self.edges[s as usize]
                    .iter()
                    .map(move |&d| (rep(s), rep(d)))
            })
            .filter(|(a, b)| a != b)
            .collect();
        outlives.sort_unstable();
        outlives.dedup();
        f.debug_struct("Solver")
            .field("classes", &classes)
            .field("outlives", &outlives)
            .finish()
    }
}

/// A map from region variable to slot, by open addressing. A bucket is
/// occupied only if it carries the current generation, so
/// [`clear`](SlotTable::clear) is one increment. At most half the buckets
/// are occupied.
#[derive(Clone, Default)]
struct SlotTable {
    /// A power-of-two number of buckets, or none.
    buckets: Vec<Bucket>,
    /// The generation of occupied buckets; at least 1 once there are
    /// buckets.
    generation: u32,
}

#[derive(Clone, Copy, Default)]
struct Bucket {
    generation: u32,
    var: u32,
    slot: Slot,
}

impl SlotTable {
    /// The first bucket to probe for `v`: Fibonacci hashing, whose top
    /// bits spread consecutive ids across the table.
    fn home(&self, v: RegVar) -> usize {
        let bits = self.buckets.len().trailing_zeros();
        (v.0.wrapping_mul(0x9e37_79b9) >> (32 - bits)) as usize
    }

    fn get(&self, v: RegVar) -> Option<Slot> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = self.home(v);
        loop {
            let b = self.buckets[i];
            if b.generation != self.generation {
                return None;
            }
            if b.var == v.0 {
                return Some(b.slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot of `v`; a variable not in the table gets the next slot,
    /// `held.len()`, where `held` lists the variables of the slots handed
    /// out so far.
    fn get_or_insert(&mut self, v: RegVar, held: &[RegVar]) -> Slot {
        if 2 * (held.len() + 1) > self.buckets.len() {
            self.grow(held);
        }
        let mask = self.buckets.len() - 1;
        let mut i = self.home(v);
        loop {
            let b = &mut self.buckets[i];
            if b.generation != self.generation {
                *b = Bucket {
                    generation: self.generation,
                    var: v.0,
                    slot: held.len() as Slot,
                };
                return b.slot;
            }
            if b.var == v.0 {
                return b.slot;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table until one more variable fits, re-inserting `held`.
    fn grow(&mut self, held: &[RegVar]) {
        let mut len = self.buckets.len().max(8);
        while 2 * (held.len() + 1) > len {
            len *= 2;
        }
        self.buckets.clear();
        self.buckets.resize(len, Bucket::default());
        self.generation = 1;
        let mask = len - 1;
        for (slot, &v) in held.iter().enumerate() {
            let mut i = self.home(v);
            while self.buckets[i].generation == 1 {
                i = (i + 1) & mask;
            }
            self.buckets[i] = Bucket {
                generation: 1,
                var: v.0,
                slot: slot as Slot,
            };
        }
    }

    /// Empties the table, keeping its buckets.
    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.buckets.fill(Bucket::default());
            self.generation = 1;
        }
    }
}

/// Tarjan's strongly-connected-components search, whose arrays are kept
/// from one run to the next.
#[derive(Clone, Default)]
struct Tarjan {
    index: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<Slot>,
    /// (node, next-edge-index)
    work: Vec<(Slot, usize)>,
    counter: u32,
    /// The members of each component with more than one node, one
    /// component after another.
    members: Vec<Slot>,
    /// Where each component ends in `members`.
    ends: Vec<usize>,
}

impl Tarjan {
    const UNVISITED: u32 = u32::MAX;

    /// Finds the components with more than one node of the graph `edges`
    /// (a slot's out-edges, all to representatives) into `members` and
    /// `ends`.
    fn run(&mut self, edges: &[Vec<Slot>]) {
        let n = edges.len();
        self.index.clear();
        self.index.resize(n, Tarjan::UNVISITED);
        self.low.clear();
        self.low.resize(n, 0);
        self.on_stack.clear();
        self.on_stack.resize(n, false);
        self.members.clear();
        self.ends.clear();
        self.counter = 0;
        for root in 0..n {
            // A node without out-edges is a component of its own.
            if self.index[root] != Tarjan::UNVISITED || edges[root].is_empty() {
                continue;
            }
            self.open(root as Slot);
            while let Some(&(v, ei)) = self.work.last() {
                let v = v as usize;
                if let Some(&w) = edges[v].get(ei) {
                    self.work.last_mut().expect("nonempty").1 += 1;
                    if self.index[w as usize] == Tarjan::UNVISITED {
                        self.open(w);
                    } else if self.on_stack[w as usize] {
                        self.low[v] = self.low[v].min(self.index[w as usize]);
                    }
                    continue;
                }
                self.work.pop();
                if let Some(&(parent, _)) = self.work.last() {
                    self.low[parent as usize] = self.low[parent as usize].min(self.low[v]);
                }
                if self.low[v] == self.index[v] {
                    let start = self.members.len();
                    loop {
                        let w = self.stack.pop().expect("nonempty");
                        self.on_stack[w as usize] = false;
                        self.members.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    if self.members.len() - start > 1 {
                        self.ends.push(self.members.len());
                    } else {
                        self.members.truncate(start);
                    }
                }
            }
        }
    }

    fn open(&mut self, v: Slot) {
        self.index[v as usize] = self.counter;
        self.low[v as usize] = self.counter;
        self.counter += 1;
        self.stack.push(v);
        self.on_stack[v as usize] = true;
        self.work.push((v, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn r(i: u32) -> RegVar {
        RegVar(i)
    }

    #[test]
    fn transitive_outlives() {
        let mut s = Solver::new();
        s.add_outlives(r(1), r(2));
        s.add_outlives(r(2), r(3));
        assert!(s.outlives_holds(r(1), r(3)));
        assert!(!s.outlives_holds(r(3), r(1)));
    }

    #[test]
    fn reflexive_and_heap_axioms() {
        let mut s = Solver::new();
        assert!(s.outlives_holds(r(7), r(7)));
        assert!(s.outlives_holds(RegVar::HEAP, r(7)));
        assert!(!s.outlives_holds(r(7), RegVar::HEAP));
    }

    #[test]
    fn outliving_heap_collapses_to_heap() {
        let mut s = Solver::new();
        s.add_outlives(r(1), RegVar::HEAP);
        assert!(s.equal(r(1), RegVar::HEAP));
        assert!(s.outlives_holds(r(1), r(99)));
    }

    #[test]
    fn cycle_collapses_to_equality_fig5() {
        // Fig 5: r2 >= r1b, r1b >= r1, r1 >= r2a, r2a >= r2
        // implies r1 = r2 = r1b = r2a.
        let (r1, r1b, r2, r2a) = (r(1), r(2), r(3), r(4));
        let mut s = Solver::new();
        s.add_outlives(r2, r1b);
        s.add_outlives(r1b, r1);
        s.add_outlives(r1, r2a);
        s.add_outlives(r2a, r2);
        for &(a, b) in &[(r1, r2), (r1, r1b), (r1, r2a), (r2, r2a)] {
            assert!(s.equal(a, b), "{a} and {b} should collapse");
        }
    }

    #[test]
    fn equality_merges_edges() {
        let mut s = Solver::new();
        s.add_outlives(r(1), r(2));
        s.add_eq(r(1), r(3));
        assert!(s.outlives_holds(r(3), r(2)));
    }

    #[test]
    fn entails_set() {
        let mut s = Solver::new();
        s.add_outlives(r(1), r(2));
        s.add_outlives(r(2), r(3));
        let mut want = ConstraintSet::new();
        want.add_outlives(r(1), r(3));
        want.add_outlives(r(1), r(2));
        assert!(s.entails(&want));
        want.add_eq(r(1), r(2));
        assert!(!s.entails(&want));
    }

    #[test]
    fn projection_keeps_only_kept_vars() {
        // r1 >= t >= r2 with t eliminated must yield r1 >= r2.
        let mut s = Solver::new();
        s.add_outlives(r(1), r(9));
        s.add_outlives(r(9), r(2));
        let keep: BTreeSet<_> = [r(1), r(2)].into_iter().collect();
        let p = s.project(&keep);
        assert_eq!(p.to_string(), "r1>=r2");
    }

    #[test]
    fn projection_emits_equalities() {
        let mut s = Solver::new();
        s.add_eq(r(1), r(9));
        s.add_eq(r(9), r(2));
        let keep: BTreeSet<_> = [r(1), r(2)].into_iter().collect();
        let p = s.project(&keep);
        assert_eq!(p.to_string(), "r1=r2");
    }

    #[test]
    fn projection_records_heap_equality() {
        let mut s = Solver::new();
        s.add_outlives(r(1), RegVar::HEAP);
        let keep: BTreeSet<_> = [r(1)].into_iter().collect();
        let p = s.project(&keep);
        assert_eq!(p.to_string(), "heap=r1");
    }

    #[test]
    fn escape_closure_fig4() {
        // Fig 4: result regions escape; r4 >= r2b drags r4 (and r4a, r4b
        // which outlive r4) into the escape set; r1* and r3* stay local.
        let names: Vec<RegVar> = (1..=12).map(r).collect();
        let [r1, r1a, r1b, r2, r2a, r2b, r3, r3a, r3b, r4, r4a, r4b]: [RegVar; 12] =
            names.clone().try_into().unwrap();
        let mut s = Solver::new();
        for &(a, b) in &[
            (r4a, r4),
            (r4b, r4),
            (r3a, r3),
            (r3b, r3),
            (r4, r3a),
            (r2a, r2),
            (r2b, r2),
            (r4, r2b),
            (r1a, r1),
            (r1b, r1),
            (r2, r1a),
            (r3, r1b),
        ] {
            s.add_outlives(a, b);
        }
        let escapes = s.escape_closure([r2, r2a, r2b], &names);
        let escaping: BTreeSet<RegVar> = names
            .iter()
            .copied()
            .zip(escapes)
            .filter_map(|(v, e)| e.then_some(v))
            .collect();
        let expect: BTreeSet<RegVar> = [r2, r2a, r2b, r4, r4a, r4b].into_iter().collect();
        assert_eq!(escaping, expect);
    }

    #[test]
    fn escape_closure_includes_equalities() {
        let mut s = Solver::new();
        s.add_eq(r(1), r(2));
        let escapes = s.escape_closure([r(1)], &[r(1), r(2), r(3)]);
        assert_eq!(escapes, [true, true, false]);
    }

    #[test]
    fn normalize_is_idempotent() {
        let mut s = Solver::new();
        s.add_outlives(r(1), r(2));
        s.add_outlives(r(2), r(1));
        s.normalize();
        let before = format!("{s:?}");
        s.normalize();
        assert_eq!(before, format!("{s:?}"));
    }

    /// After a query, an atom that closes cycles through two paths is
    /// folded in at once: `find`, which never normalizes, already sees
    /// both paths merged.
    #[test]
    fn folding_merges_every_path_of_the_cycle() {
        for close_with_eq in [false, true] {
            let mut s = Solver::new();
            for (a, b) in [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)] {
                s.add_outlives(r(a), r(b));
            }
            assert!(!s.equal(r(1), r(4))); // normalizes
            if close_with_eq {
                s.add_eq(r(4), r(1));
            } else {
                s.add_outlives(r(4), r(1));
            }
            for i in 1..=4 {
                assert_eq!(s.find(r(i)), r(1), "r{i}, closed by eq: {close_with_eq}");
            }
            assert_eq!(s.find(r(5)), r(5));
            assert!(s.outlives_holds(r(3), r(5)) && !s.outlives_holds(r(5), r(2)));
        }
    }

    /// The folds between two queries share one budget: once two searches
    /// down a 50-long chain have spent it, a cycle closed before the next
    /// query waits for that query's full normalization.
    #[test]
    fn folds_between_two_queries_share_one_budget() {
        let mut s = Solver::new();
        for i in 1..50 {
            s.add_outlives(r(i), r(i + 1));
        }
        assert!(s.outlives_holds(r(1), r(50))); // normalizes
        s.add_outlives(r(60), r(1)); // searches the chain, closes nothing
        s.add_outlives(r(61), r(1));
        s.add_outlives(r(50), r(1)); // out of budget: not folded
        assert_eq!(s.find(r(25)), r(25));
        assert!(s.equal(r(1), r(50)));
        assert_eq!(s.find(r(25)), r(1));
        s.add_outlives(r(70), r(71));
        s.add_outlives(r(71), r(1));
        s.add_outlives(r(1), r(70)); // a fresh budget: folded at once
        assert_eq!(s.find(r(71)), r(1));
    }

    #[test]
    fn reset_forgets_everything() {
        let mut s = Solver::new();
        s.add_outlives(r(1), RegVar::HEAP);
        s.add_eq(r(2), r(3));
        assert!(s.equal(r(1), RegVar::HEAP));
        s.reset();
        assert_eq!(format!("{s:?}"), format!("{:?}", Solver::new()));
        assert!(!s.equal(r(1), RegVar::HEAP) && !s.equal(r(2), r(3)));
        s.add_outlives(r(3), r(2));
        assert_eq!(s.project(&[r(2), r(3)]).to_string(), "r3>=r2");
    }

    #[test]
    fn long_chain_projection() {
        let mut s = Solver::new();
        for i in 1..100 {
            s.add_outlives(r(i), r(i + 1));
        }
        let keep: BTreeSet<_> = [r(1), r(100)].into_iter().collect();
        assert_eq!(s.project(&keep).to_string(), "r1>=r100");
        assert!(s.outlives_holds(r(1), r(100)));
    }
}
