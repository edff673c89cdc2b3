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

use crate::constraint::{Atom, ConstraintSet};
use crate::var::RegVar;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// The dense index of a region variable inside one [`Solver`].
type Slot = u32;

/// An incremental solver for region constraints. See the module docs.
///
/// Every variable gets a dense slot the first time the solver sees it;
/// the union-find parents, the outlives edges and the search marks are
/// `Vec`s indexed by slot.
///
/// **Representatives.** A class is represented by the heap if it contains
/// the heap, and otherwise by its smallest variable id (typically the
/// earliest-created signature region). [`find`](Solver::find) returns that
/// variable.
///
/// **Lazy normalization.** Adding a constraint only records it: an
/// equality merges two classes at once, an outlives atom adds one edge,
/// and `r ≥ heap` merges `r` into the heap. Collapsing `≥`-cycles into
/// equalities is deferred to [`normalize`](Solver::normalize), which every
/// query (`equal`, `outlives_holds`, `entails*`, `project`,
/// `escape_closure`, `solved_form`, `outlives_any`) runs first. So between
/// an `add_*` and the next query, `find` reflects only the merges made so
/// far, not the cycles the new edges close.
///
/// # Examples
///
/// ```
/// use cj_regions::{constraint::Atom, solve::Solver, var::RegVar};
///
/// let (a, b, c) = (RegVar(1), RegVar(2), RegVar(3));
/// let mut s = Solver::new();
/// s.add_outlives(a, b);
/// s.add_outlives(b, c);
/// assert!(s.entails_atom(Atom::outlives(a, c))); // transitivity
/// s.add_outlives(c, a);
/// assert_eq!(s.find(c), c); // the cycle is not collapsed yet...
/// assert!(s.entails_atom(Atom::eq(a, c))); // ...until a query normalizes
/// assert_eq!(s.find(c), a);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// The slot of every variable seen so far.
    slots: HashMap<RegVar, Slot, BuildHasherDefault<VarHasher>>,
    /// The variable of each slot.
    vars: Vec<RegVar>,
    /// Union-find parent of each slot; a representative is its own parent.
    parent: Vec<Slot>,
    /// Outlives edges `src ≥ dst` out of each representative. Until the
    /// next normalization a target may be stale (no longer a
    /// representative) or repeated.
    edges: Vec<Vec<Slot>>,
    /// Search marks, all false between searches.
    seen: Vec<bool>,
    /// [`Solver::outlives_any`]'s memo: the slot reaches a target.
    hit: Vec<bool>,
    dirty: bool,
}

/// A multiplicative hasher for the slot map: region ids are small
/// integers, so SipHash's DoS resistance buys nothing here.
#[derive(Default)]
struct VarHasher(u64);

impl Hasher for VarHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
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

    /// The slot of `v`, assigned on first sight.
    fn slot(&mut self, v: RegVar) -> Slot {
        let next = self.vars.len() as Slot;
        let s = *self.slots.entry(v).or_insert(next);
        if s == next {
            self.vars.push(v);
            self.parent.push(s);
            self.edges.push(Vec::new());
            self.seen.push(false);
            self.hit.push(false);
        }
        s
    }

    /// Representative slot of `s`.
    fn root(&self, mut s: Slot) -> Slot {
        while self.parent[s as usize] != s {
            s = self.parent[s as usize];
        }
        s
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
        match self.slots.get(&v) {
            Some(&s) => self.vars[self.root(s) as usize],
            None => v,
        }
    }

    fn union(&mut self, a: Slot, b: Slot) {
        let (ra, rb) = (self.root_mut(a), self.root_mut(b));
        if ra == rb {
            return;
        }
        let (va, vb) = (self.vars[ra as usize], self.vars[rb as usize]);
        let (winner, loser) = if va.is_heap() || (!vb.is_heap() && va < vb) {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[loser as usize] = winner;
        // Migrate the loser's edges, appending the shorter list.
        let mut outs = std::mem::take(&mut self.edges[loser as usize]);
        let kept = &mut self.edges[winner as usize];
        if kept.len() < outs.len() {
            std::mem::swap(kept, &mut outs);
        }
        kept.append(&mut outs);
        self.dirty = true;
    }

    /// Adds `a = b`.
    pub fn add_eq(&mut self, a: RegVar, b: RegVar) {
        let (sa, sb) = (self.slot(a), self.slot(b));
        self.union(sa, sb);
    }

    /// Adds `a ≥ b`.
    pub fn add_outlives(&mut self, a: RegVar, b: RegVar) {
        let (sa, sb) = (self.slot(a), self.slot(b));
        let (ra, rb) = (self.root_mut(sa), self.root_mut(sb));
        if ra == rb || self.vars[ra as usize].is_heap() {
            return; // trivial or axiomatic
        }
        if self.vars[rb as usize].is_heap() {
            // a >= heap forces a = heap.
            self.union(ra, rb);
            return;
        }
        self.edges[ra as usize].push(rb);
        self.dirty = true;
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

    /// Collapses `≥`-cycles into equalities and re-canonicalizes edges:
    /// afterwards every parent is a representative, every edge joins two
    /// distinct representatives, no edge leaves or enters the heap, each
    /// edge list is sorted and free of repeats, and the graph is acyclic.
    /// Queries call this automatically.
    pub fn normalize(&mut self) {
        while self.dirty {
            self.dirty = false;
            let n = self.vars.len();
            for s in 0..n as Slot {
                let r = self.root_mut(s);
                self.parent[s as usize] = r;
            }
            // Canonicalize edge endpoints.
            let mut to_heap: Vec<Slot> = Vec::new();
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
                if reaches_heap {
                    to_heap.push(s as Slot);
                }
            }
            if !to_heap.is_empty() {
                let heap = self.slot(RegVar::HEAP);
                for s in to_heap {
                    self.union(s, heap);
                }
            }
            if self.dirty {
                continue; // unions happened; re-canonicalize
            }
            // Collapse SCCs of the (now canonical) outlives graph.
            for scc in cycles(&self.edges) {
                for &w in &scc[1..] {
                    self.union(scc[0], w);
                }
            }
        }
    }

    /// Whether `a` and `b` are known equal.
    pub fn equal(&mut self, a: RegVar, b: RegVar) -> bool {
        self.normalize();
        self.find(a) == self.find(b)
    }

    /// Whether the conjunction entails `a ≥ b`.
    pub fn outlives_holds(&mut self, a: RegVar, b: RegVar) -> bool {
        self.normalize();
        let rb = self.find(b);
        self.outlives_any(&[a], |rep| rep == rb)[0]
    }

    /// The representatives of every class that `a` outlives, its own
    /// included, from one reachability search; `None` when `a` equals the
    /// heap, which outlives every region. So [`outlives_holds(a, b)`] is
    /// exactly "`None`, or the set contains `find(b)`".
    ///
    /// [`outlives_holds(a, b)`]: Solver::outlives_holds
    pub fn outlived_reps(&mut self, a: RegVar) -> Option<BTreeSet<RegVar>> {
        self.normalize();
        let Some(&slot) = self.slots.get(&a) else {
            return (!a.is_heap()).then(|| BTreeSet::from([a]));
        };
        let root = self.root(slot);
        if self.vars[root as usize].is_heap() {
            return None;
        }
        let reached = self.mark_reachable(root);
        let reps = reached.iter().map(|&s| self.vars[s as usize]).collect();
        for s in reached {
            self.seen[s as usize] = false;
        }
        Some(reps)
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

    /// Marks in `seen` every slot reachable from `from`, itself included,
    /// and returns them; the caller clears the marks.
    fn mark_reachable(&mut self, from: Slot) -> Vec<Slot> {
        let mut marked = vec![from];
        self.seen[from as usize] = true;
        let mut next = 0;
        while let Some(&v) = marked.get(next) {
            next += 1;
            for &w in &self.edges[v as usize] {
                if !std::mem::replace(&mut self.seen[w as usize], true) {
                    marked.push(w);
                }
            }
        }
        marked
    }

    /// Projects the conjunction onto `keep`: the strongest constraint over
    /// only the kept variables that the current conjunction entails
    /// (existential elimination of everything else).
    ///
    /// This is how method preconditions are formed: the body constraint is
    /// projected onto the method's region parameters.
    pub fn project(&mut self, keep: &BTreeSet<RegVar>) -> ConstraintSet {
        self.normalize();
        let mut out = ConstraintSet::new();
        // Group kept vars by representative; emit equalities within groups.
        let mut groups: BTreeMap<RegVar, Vec<RegVar>> = BTreeMap::new();
        for &v in keep {
            groups.entry(self.find(v)).or_default().push(v);
        }
        for vars in groups.values() {
            for pair in vars.windows(2) {
                out.add_eq(pair[0], pair[1]);
            }
        }
        // Outlives between groups via reachability. A representative the
        // solver has never seen reaches nothing.
        let reprs: Vec<(Option<Slot>, RegVar)> = groups
            .iter()
            .map(|(rep, vars)| (self.slots.get(rep).copied(), vars[0]))
            .collect();
        for &(rep_a, var_a) in &reprs {
            let Some(from) = rep_a else { continue };
            let reached = self.mark_reachable(from);
            for &(rep_b, var_b) in &reprs {
                if rep_b.is_some_and(|to| to != from && self.seen[to as usize]) {
                    out.add_outlives(var_a, var_b);
                }
            }
            for s in reached {
                self.seen[s as usize] = false;
            }
        }
        // A kept var that collapsed into the heap has the heap as its
        // group representative; record `v = heap` explicitly.
        for (&rep, vars) in &groups {
            if rep.is_heap() && !vars.contains(&RegVar::HEAP) {
                out.add_eq(vars[0], RegVar::HEAP);
            }
        }
        out
    }

    /// The escape closure of rule \[exp-block\]: every variable of `universe`
    /// that is equal to, or outlives, a seed. (`r` escapes iff
    /// `φ ⊢ r ≥ e` for some escaping `e`.)
    pub fn escape_closure(
        &mut self,
        seeds: impl IntoIterator<Item = RegVar>,
        universe: &BTreeSet<RegVar>,
    ) -> BTreeSet<RegVar> {
        self.normalize();
        let seeds: BTreeSet<RegVar> = seeds.into_iter().map(|v| self.find(v)).collect();
        let universe: Vec<RegVar> = universe.iter().copied().collect();
        let escapes = self.outlives_any(&universe, |rep| seeds.contains(&rep));
        universe
            .into_iter()
            .zip(escapes)
            .filter_map(|(v, escapes)| escapes.then_some(v))
            .collect()
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
        let mut marked: Vec<Slot> = Vec::new();
        let mut stack: Vec<(Slot, usize)> = Vec::new();
        let answers = sources
            .iter()
            .map(|&v| {
                let Some(&slot) = self.slots.get(&v) else {
                    return v.is_heap() || is_target(v);
                };
                let root = self.root(slot);
                if self.vars[root as usize].is_heap() {
                    return true;
                }
                if !self.seen[root as usize] {
                    self.seen[root as usize] = true;
                    self.hit[root as usize] = is_target(self.vars[root as usize]);
                    marked.push(root);
                    stack.push((root, 0));
                }
                // Iterative post-order: a slot's answer is final once it is
                // popped, and no slot is pushed twice since the graph is
                // acyclic.
                while let Some(&(u, i)) = stack.last() {
                    let next = match self.hit[u as usize] {
                        true => None,
                        false => self.edges[u as usize].get(i).copied(),
                    };
                    let Some(w) = next else {
                        stack.pop();
                        if let Some(&(p, _)) = stack.last() {
                            self.hit[p as usize] |= self.hit[u as usize];
                        }
                        continue;
                    };
                    stack.last_mut().expect("nonempty").1 += 1;
                    if !self.seen[w as usize] {
                        self.seen[w as usize] = true;
                        self.hit[w as usize] = is_target(self.vars[w as usize]);
                        marked.push(w);
                        stack.push((w, 0));
                    } else if self.hit[w as usize] {
                        self.hit[u as usize] = true;
                    }
                }
                self.hit[root as usize]
            })
            .collect();
        for s in marked {
            self.seen[s as usize] = false;
            self.hit[s as usize] = false;
        }
        answers
    }

    /// The full solved form over a given universe of interest: equalities
    /// for collapsed classes and the outlives edges, restricted to
    /// variables of `universe`.
    pub fn solved_form(&mut self, universe: &BTreeSet<RegVar>) -> ConstraintSet {
        self.project(&universe.iter().copied().collect())
    }
}

/// The strongly connected components with more than one node of the
/// graph `edges` (a slot's out-edges), found by an iterative Tarjan search.
fn cycles(edges: &[Vec<Slot>]) -> Vec<Vec<Slot>> {
    let mut t = Tarjan {
        index: vec![Tarjan::UNVISITED; edges.len()],
        low: vec![0; edges.len()],
        on_stack: vec![false; edges.len()],
        stack: Vec::new(),
        work: Vec::new(),
        counter: 0,
    };
    let mut out: Vec<Vec<Slot>> = Vec::new();
    for root in 0..edges.len() {
        // A node without out-edges is a component of its own.
        if t.index[root] != Tarjan::UNVISITED || edges[root].is_empty() {
            continue;
        }
        t.open(root as Slot);
        while let Some(&(v, ei)) = t.work.last() {
            let v = v as usize;
            if let Some(&w) = edges[v].get(ei) {
                t.work.last_mut().expect("nonempty").1 += 1;
                if t.index[w as usize] == Tarjan::UNVISITED {
                    t.open(w);
                } else if t.on_stack[w as usize] {
                    t.low[v] = t.low[v].min(t.index[w as usize]);
                }
                continue;
            }
            t.work.pop();
            if let Some(&(parent, _)) = t.work.last() {
                t.low[parent as usize] = t.low[parent as usize].min(t.low[v]);
            }
            if t.low[v] == t.index[v] {
                let mut scc = Vec::new();
                loop {
                    let w = t.stack.pop().expect("nonempty");
                    t.on_stack[w as usize] = false;
                    scc.push(w);
                    if w as usize == v {
                        break;
                    }
                }
                if scc.len() > 1 {
                    out.push(scc);
                }
            }
        }
    }
    out
}

/// The state of [`cycles`]' search.
struct Tarjan {
    index: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<Slot>,
    /// (node, next-edge-index)
    work: Vec<(Slot, usize)>,
    counter: u32,
}

impl Tarjan {
    const UNVISITED: u32 = u32::MAX;

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
        let universe: BTreeSet<RegVar> = names.iter().copied().collect();
        let escaping = s.escape_closure([r2, r2a, r2b], &universe);
        let expect: BTreeSet<RegVar> = [r2, r2a, r2b, r4, r4a, r4b].into_iter().collect();
        assert_eq!(escaping, expect);
    }

    #[test]
    fn escape_closure_includes_equalities() {
        let mut s = Solver::new();
        s.add_eq(r(1), r(2));
        let universe: BTreeSet<RegVar> = [r(1), r(2), r(3)].into_iter().collect();
        let escaping = s.escape_closure([r(1)], &universe);
        assert!(escaping.contains(&r(2)));
        assert!(!escaping.contains(&r(3)));
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
