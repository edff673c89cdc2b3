//! Incremental solving: canonical forms and a content-addressed memo for
//! per-SCC fixed points.
//!
//! The global analysis (paper Sec 4.3) solves the constraint-abstraction
//! system bottom-up over its SCC condensation. The result of solving one
//! SCC is fully determined by
//!
//! 1. the raw bodies of the SCC's members (atoms + applications), and
//! 2. the *closed* forms of every abstraction applied from inside the SCC
//!    but defined outside it (already solved, by bottom-up order),
//!
//! both considered **up to a consistent renaming of region variables**.
//! The canonical renaming maps formal parameters to `1..=k` positionally,
//! the heap to `0`, and every other (body-local) variable to the next id
//! in first-occurrence order. [`SolveMemo`] keys solved SCCs by (1) + (2)
//! written in that renaming as plain `u32` words; on a hit the cached
//! closed forms — which mention only parameters and the heap — are
//! re-expressed over the current parameters and written back without
//! re-running the fixpoint.
//!
//! Because the key is content-addressed rather than name- or
//! revision-based, the same memo serves two tiers of reuse (within one
//! inference run the repair loop needs neither: it carries the SCCs it
//! did not strengthen and only looks up the dirty ones):
//!
//! - **across revisions of a workspace**: editing one method body leaves
//!   every other SCC's canonical key unchanged, so only the dirty SCCs and
//!   the dependents whose imports actually changed are re-solved;
//! - **across clients compiling different programs**: the memo is
//!   thread-safe (one locked table, atomic counters), so a compile daemon
//!   can hand one `Arc<SolveMemo>` to every connection — α-equivalent SCCs
//!   solved by *any* client are hits for all of them, counted separately
//!   as [`SolveMemo::shared_hits`].
//!
//! The memo lives in memory only: a new process starts with an empty one.

use crate::abstraction::{solve_fixpoint, AbsBody, AbsEnv, AbsId, ConstraintAbs};
use crate::constraint::{Atom, ConstraintSet};
use crate::var::RegVar;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A canonical variable numbering: heap ↦ 0, params ↦ 1..=k, locals ↦
/// k+1... in first-occurrence order.
#[derive(Debug, Default)]
struct Canonizer {
    map: BTreeMap<RegVar, u32>,
    next: u32,
}

impl Canonizer {
    fn for_params(params: &[RegVar]) -> Canonizer {
        let mut c = Canonizer {
            map: BTreeMap::new(),
            next: params.len() as u32 + 1,
        };
        c.map.insert(RegVar::HEAP, 0);
        for (i, &p) in params.iter().enumerate() {
            c.map.entry(p).or_insert(i as u32 + 1);
        }
        c
    }

    fn id(&mut self, v: RegVar) -> u32 {
        if let Some(&i) = self.map.get(&v) {
            return i;
        }
        let i = self.next;
        self.next += 1;
        self.map.insert(v, i);
        i
    }
}

/// One atom as key words `(tag, a, b)`: tag 0 for `a ≥ b`, 1 for `a = b`,
/// each variable numbered by `id` (left operand first).
fn atom_words(atom: Atom, mut id: impl FnMut(RegVar) -> u32) -> [u32; 3] {
    match atom {
        Atom::Outlives(a, b) => [0, id(a), id(b)],
        Atom::Eq(a, b) => [1, id(a), id(b)],
    }
}

/// The canonical form of a *closed* abstraction (no residual calls): its
/// atoms with parameters renamed positionally to `1..=k` and the heap to
/// `0`. Closed forms mention only parameters and the heap, so this is a
/// total renaming.
fn canon_closed(abs: &ConstraintAbs) -> ConstraintSet {
    debug_assert!(abs.body.calls.is_empty(), "canon_closed needs closed form");
    let mut c = Canonizer::for_params(&abs.params);
    abs.body
        .atoms
        .iter()
        .map(|a| match a {
            Atom::Outlives(x, y) => Atom::outlives(RegVar(c.id(x)), RegVar(c.id(y))),
            Atom::Eq(x, y) => Atom::eq(RegVar(c.id(x)), RegVar(c.id(y))),
        })
        .collect()
}

/// Re-expresses a canonical closed form over concrete parameters:
/// canonical id `i` (1-based) becomes `params[i-1]`, `0` the heap.
fn uncanon_closed(canonical: &ConstraintSet, params: &[RegVar]) -> ConstraintSet {
    let decode = |v: RegVar| -> RegVar {
        if v.0 == 0 {
            RegVar::HEAP
        } else {
            params[v.0 as usize - 1]
        }
    };
    canonical
        .iter()
        .map(|a| match a {
            Atom::Outlives(x, y) => Atom::outlives(decode(x), decode(y)),
            Atom::Eq(x, y) => Atom::eq(decode(x), decode(y)),
        })
        .collect()
}

/// Builds the content-addressed key of one SCC (`members` sorted by id).
/// For each member it writes the parameter count, then the atoms as
/// [`atom_words`] and then the applications, all in the member's
/// canonical renaming. An application is `(0, member index)` for a call
/// into the SCC or `(1, n, atoms…)` with the callee's `n` canonical closed
/// atoms for a call out of it, followed by its arguments. Every list
/// carries a length prefix, so two keys are equal exactly when the SCCs
/// are equal up to renaming.
///
/// # Panics
///
/// Panics when an external callee has residual calls (i.e. the SCC order is
/// not bottom-up).
fn scc_key(env: &AbsEnv, members: &[AbsId]) -> Vec<u32> {
    let mut key = Vec::new();
    for &id in members {
        let abs = env.get(id);
        let mut c = Canonizer::for_params(&abs.params);
        key.push(abs.params.len() as u32);
        key.push(abs.body.atoms.len() as u32);
        for atom in abs.body.atoms.iter() {
            key.extend(atom_words(atom, |v| c.id(v)));
        }
        key.push(abs.body.calls.len() as u32);
        for call in &abs.body.calls {
            match members.binary_search(&call.callee) {
                Ok(i) => key.extend([0, i as u32]),
                Err(_) => {
                    let callee = env.get(call.callee);
                    assert!(
                        callee.body.calls.is_empty(),
                        "external callee `{}` is not closed",
                        callee.name
                    );
                    let closed = canon_closed(callee);
                    key.extend([1, closed.len() as u32]);
                    for atom in closed.iter() {
                        key.extend(atom_words(atom, |v| v.0));
                    }
                }
            }
            key.push(call.args.len() as u32);
            key.extend(call.args.iter().map(|&a| c.id(a)));
        }
    }
    key
}

/// Result of [`solve_scc_memo_as`] for one SCC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SccOutcome {
    /// Whether the closed forms came from the memo.
    pub reused: bool,
    /// Whether the hit entry was solved by a *different* client (see
    /// [`SolveMemo::register_client`]); always `false` on a miss.
    pub shared: bool,
    /// Member solves actually performed (0 on reuse).
    pub iterations: usize,
}

/// One solved-SCC record: the canonical closed atoms per member, in the
/// same (id-sorted) member order the key was built in, tagged with the
/// client that solved it.
#[derive(Debug)]
struct MemoEntry {
    owner: u64,
    closed: Arc<[ConstraintSet]>,
}

/// The approximate heap footprint of one memo entry: its key and closed
/// atoms plus the fixed headers that hold them.
fn entry_bytes(key: &[u32], closed: &[ConstraintSet]) -> usize {
    let atoms: usize = closed.iter().map(ConstraintSet::len).sum();
    std::mem::size_of::<(Vec<u32>, MemoEntry)>()
        + std::mem::size_of_val(key)
        + std::mem::size_of_val(closed)
        + atoms * std::mem::size_of::<Atom>()
}

/// The memo's entries and the bytes they are charged.
#[derive(Debug, Default)]
struct Table {
    entries: HashMap<Vec<u32>, MemoEntry>,
    /// Sum of [`entry_bytes`] over `entries`.
    bytes: usize,
}

/// A content-addressed memo of solved SCCs. See the module docs.
///
/// Thread-safe: the entries live in one mutex-protected table and the
/// counters are atomics, so one memo can be shared (`Arc<SolveMemo>`) by
/// many concurrently compiling clients — e.g. every connection of a
/// compile daemon. A lookup holds the lock only for the probe and a
/// reference-count bump; keys are built and closed forms re-expressed
/// outside it.
///
/// Bounded by bytes (see [`with_capacity`](SolveMemo::with_capacity)): a
/// store that would overflow the budget flushes the whole table first,
/// and an entry larger than the budget is not stored at all. Correctness
/// never depends on a hit, so the only cost of a flush is one cold
/// re-solve per SCC — which keeps a long-lived compile server's memory
/// flat across unbounded edit streams, however large the programs it is
/// sent.
///
/// Entries are tagged with the *client* that solved them (see
/// [`register_client`](SolveMemo::register_client)); a hit on another
/// client's entry counts as a **shared hit**, making cross-client reuse
/// observable.
#[derive(Debug)]
pub struct SolveMemo {
    table: Mutex<Table>,
    hits: AtomicU64,
    misses: AtomicU64,
    shared_hits: AtomicU64,
    next_client: AtomicU64,
    /// Total byte budget.
    capacity: usize,
}

impl Default for SolveMemo {
    fn default() -> SolveMemo {
        SolveMemo::with_capacity(SolveMemo::DEFAULT_BYTES)
    }
}

impl SolveMemo {
    /// Default byte budget (see the type docs); override with
    /// [`with_capacity`](SolveMemo::with_capacity).
    pub const DEFAULT_BYTES: usize = 64 << 20;

    /// An empty memo with the default byte budget.
    pub fn new() -> SolveMemo {
        SolveMemo::default()
    }

    /// An empty memo whose entries never take more than `capacity` bytes
    /// in total.
    pub fn with_capacity(capacity: usize) -> SolveMemo {
        SolveMemo {
            table: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shared_hits: AtomicU64::new(0),
            next_client: AtomicU64::new(0),
            capacity,
        }
    }

    /// Allocates a fresh client id for owner-tagging entries. A *client*
    /// is one logical user of the memo (for example one workspace); hits
    /// on entries solved by a different client are counted as
    /// [`shared_hits`](SolveMemo::shared_hits). Ids start at 1 — id 0 is
    /// reserved for anonymous callers (such as a one-shot compile with a
    /// fresh memo), so a registered client never aliases them.
    pub fn register_client(&self) -> u64 {
        self.next_client.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Number of memo hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of memo misses (actual fixpoint runs) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of hits served from an entry solved by a *different* client
    /// — the cross-client reuse a shared daemon memo exists for.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits.load(Ordering::Relaxed)
    }

    /// Number of distinct solved-SCC entries retained.
    pub fn len(&self) -> usize {
        self.table().entries.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the retained entries take, as charged against the budget.
    pub fn bytes(&self) -> usize {
        self.table().bytes
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("memo table poisoned")
    }

    /// Looks up a solved SCC; on a hit updates the hit counters and
    /// reports whether the entry was solved by a different client.
    fn lookup(&self, key: &[u32], client: u64) -> Option<(Arc<[ConstraintSet]>, bool)> {
        let (closed, owner) = {
            let table = self.table();
            let entry = table.entries.get(key)?;
            (Arc::clone(&entry.closed), entry.owner)
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        let shared = owner != client;
        if shared {
            self.shared_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some((closed, shared))
    }

    /// Records a freshly solved SCC, flushing the table first when the
    /// entry would overflow the byte budget; an entry larger than the
    /// whole budget is dropped. A concurrent solver may have stored the
    /// same key already; the values are identical by determinism of the
    /// fixpoint, so last-write-wins is safe.
    fn store(&self, key: Vec<u32>, client: u64, closed: Vec<ConstraintSet>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let size = entry_bytes(&key, &closed);
        if size > self.capacity {
            return;
        }
        let closed = Arc::from(closed);
        let mut guard = self.table();
        let table = &mut *guard;
        if let Some(old) = table.entries.remove(&key) {
            table.bytes -= entry_bytes(&key, &old.closed);
        }
        if table.bytes + size > self.capacity {
            table.entries.clear();
            table.bytes = 0;
        }
        table.bytes += size;
        table.entries.insert(
            key,
            MemoEntry {
                owner: client,
                closed,
            },
        );
    }
}

/// Solves one SCC to closed forms on behalf of memo client `client` (see
/// [`SolveMemo::register_client`]; 0 for an anonymous caller), reusing the
/// memo when an identical SCC (up to renaming) has been solved before.
/// `members` may arrive in any order; results are written back into `env`
/// either way. Hits on entries another client solved are reported as
/// `shared` in the outcome and counted by the memo.
///
/// # Panics
///
/// Panics if an external callee is not yet closed (the caller must process
/// SCCs bottom-up).
pub fn solve_scc_memo_as(
    env: &mut AbsEnv,
    members: &[AbsId],
    memo: &SolveMemo,
    client: u64,
) -> SccOutcome {
    let mut span = cj_trace::span("pipeline", "solve-scc");
    span.add("members", members.len() as u64);
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    let key = scc_key(env, &sorted);
    if let Some((closed, shared)) = memo.lookup(&key, client) {
        span.add("hit", 1);
        if shared {
            span.add("shared", 1);
        }
        for (&id, canonical) in sorted.iter().zip(closed.iter()) {
            let abs = env.get_mut(id);
            abs.body = AbsBody::from_atoms(uncanon_closed(canonical, &abs.params));
        }
        return SccOutcome {
            reused: true,
            shared,
            iterations: 0,
        };
    }
    span.add("miss", 1);
    let iterations = solve_fixpoint(env, members);
    span.add("iterations", iterations as u64);
    let closed: Vec<ConstraintSet> = sorted.iter().map(|&id| canon_closed(env.get(id))).collect();
    memo.store(key, client, closed);
    SccOutcome {
        reused: false,
        shared: false,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::AbsCall;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    fn r(i: u32) -> RegVar {
        RegVar(i)
    }

    fn join_abs(callee: AbsId, base: u32) -> ConstraintAbs {
        // pre⟨p1..p9⟩ = (p2 ≥ p8) ∧ callee⟨p4,p5,p6,p1,p2,p3,p7,p8,p9⟩, with
        // params starting at `base` so alpha-equivalent copies differ in ids.
        let params: Vec<RegVar> = (0..9).map(|i| r(base + i)).collect();
        let args: Vec<RegVar> = [3, 4, 5, 0, 1, 2, 6, 7, 8]
            .iter()
            .map(|&i| params[i])
            .collect();
        let mut body = AbsBody::from_atoms(ConstraintSet::singleton(Atom::outlives(
            params[1], params[7],
        )));
        body.calls.push(AbsCall { callee, args });
        ConstraintAbs {
            name: "pre.join".to_string(),
            params,
            body,
        }
    }

    /// An environment holding only [`join_abs`], applying itself.
    fn join_env(base: u32) -> AbsEnv {
        [join_abs(AbsId(0), base)].into_iter().collect()
    }

    const JOIN: AbsId = AbsId(0);

    /// The canonical form of an SCC as text, in the memo's former string
    /// format: the reference [`scc_key`] must agree with (word keys equal
    /// exactly when these are equal).
    fn string_key(env: &AbsEnv, members: &[AbsId]) -> String {
        let mut key = String::new();
        for &id in members {
            let abs = env.get(id);
            let mut c = Canonizer::for_params(&abs.params);
            let _ = write!(key, "p{}|", abs.params.len());
            for atom in abs.body.atoms.iter() {
                let _ = match atom {
                    Atom::Outlives(a, b) => write!(key, "{}>{};", c.id(a), c.id(b)),
                    Atom::Eq(a, b) => write!(key, "{}={};", c.id(a), c.id(b)),
                };
            }
            for call in &abs.body.calls {
                let _ = match members.binary_search(&call.callee) {
                    Ok(i) => write!(key, "[m{i}]("),
                    Err(_) => write!(key, "[x{}](", canon_closed(env.get(call.callee))),
                };
                for &a in &call.args {
                    let _ = write!(key, "{},", c.id(a));
                }
                key.push(')');
            }
            key.push('\n');
        }
        key
    }

    /// A splitmix64 stream for building random systems from one seed.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % u64::from(n.max(1))) as u32
        }

        fn pick(&mut self, pool: &[RegVar]) -> RegVar {
            pool[self.below(pool.len() as u32) as usize]
        }

        fn atom(&mut self, pool: &[RegVar]) -> Atom {
            let (a, b) = (self.pick(pool), self.pick(pool));
            if self.below(2) == 0 {
                Atom::outlives(a, b)
            } else {
                Atom::eq(a, b)
            }
        }
    }

    /// A random system: up to two closed external abstractions, then an
    /// SCC of one to three members whose bodies mix atoms over their
    /// params, two locals and the heap with calls to each other and to the
    /// externals. Returns the environment and the member ids.
    fn random_scc(g: &mut Gen) -> (AbsEnv, Vec<AbsId>) {
        let (externals, members) = (g.below(3), 1 + g.below(3));
        let mut next = 1;
        let mut fresh = |n: u32| -> Vec<RegVar> {
            let vars = (next..next + n).map(RegVar).collect();
            next += n;
            vars
        };
        let mut env = AbsEnv::new();
        for _ in 0..externals {
            let params = fresh(g.below(4));
            let pool: Vec<RegVar> = params.iter().copied().chain([RegVar::HEAP]).collect();
            let atoms = (0..g.below(4)).map(|_| g.atom(&pool)).collect();
            env.push(ConstraintAbs {
                name: "ext".into(),
                params,
                body: AbsBody::from_atoms(atoms),
            });
        }
        let arity: Vec<u32> = (0..externals + members).map(|_| g.below(4)).collect();
        let mut ids = Vec::new();
        for m in 0..members {
            let params = fresh(arity[(externals + m) as usize]);
            let pool: Vec<RegVar> = params
                .iter()
                .copied()
                .chain(fresh(2))
                .chain([RegVar::HEAP])
                .collect();
            let atoms = (0..g.below(4)).map(|_| g.atom(&pool)).collect();
            let calls = (0..g.below(3))
                .map(|_| {
                    let callee = g.below(externals + members);
                    let n = if callee < externals {
                        env.get(AbsId(callee)).params.len() as u32
                    } else {
                        arity[callee as usize]
                    };
                    AbsCall {
                        callee: AbsId(callee),
                        args: (0..n).map(|_| g.pick(&pool)).collect(),
                    }
                })
                .collect();
            ids.push(env.push(ConstraintAbs {
                name: "member".into(),
                params,
                body: AbsBody { atoms, calls },
            }));
        }
        (env, ids)
    }

    /// An α-renamed copy of `env`: every non-heap variable shifted by
    /// `by`, behind `pad` extra abstractions so every id moves too.
    fn renamed(env: &AbsEnv, members: &[AbsId], by: u32, pad: u32) -> (AbsEnv, Vec<AbsId>) {
        let rn = |v: RegVar| if v.is_heap() { v } else { RegVar(v.0 + by) };
        let mut out = AbsEnv::new();
        for _ in 0..pad {
            out.push(ConstraintAbs {
                name: "pad".into(),
                params: vec![r(1)],
                body: AbsBody::default(),
            });
        }
        for abs in env.iter() {
            let calls = abs
                .body
                .calls
                .iter()
                .map(|c| AbsCall {
                    callee: AbsId(c.callee.0 + pad),
                    args: c.args.iter().map(|&a| rn(a)).collect(),
                })
                .collect();
            out.push(ConstraintAbs {
                name: abs.name.clone(),
                params: abs.params.iter().map(|&p| rn(p)).collect(),
                body: AbsBody {
                    atoms: abs.body.atoms.iter().map(|a| rename_atom(a, rn)).collect(),
                    calls,
                },
            });
        }
        (out, members.iter().map(|m| AbsId(m.0 + pad)).collect())
    }

    fn rename_atom(atom: Atom, rn: impl Fn(RegVar) -> RegVar) -> Atom {
        match atom {
            Atom::Outlives(a, b) => Atom::outlives(rn(a), rn(b)),
            Atom::Eq(a, b) => Atom::eq(rn(a), rn(b)),
        }
    }

    /// `env` with one atom changed: added to or removed from one member or
    /// external, or one call argument replaced.
    fn mutated(g: &mut Gen, env: &AbsEnv) -> AbsEnv {
        let mut out = env.clone();
        let abs = out.get_mut(AbsId(g.below(env.len() as u32)));
        let pool: Vec<RegVar> = abs
            .body
            .atoms
            .vars()
            .into_iter()
            .chain(abs.params.iter().copied())
            .chain([RegVar::HEAP])
            .collect();
        match g.below(3) {
            0 => abs.body.atoms.add(g.atom(&pool)),
            1 => {
                let atoms: Vec<Atom> = abs.body.atoms.iter().collect();
                if !atoms.is_empty() {
                    let drop = atoms[g.below(atoms.len() as u32) as usize];
                    abs.body.atoms = atoms.into_iter().filter(|&a| a != drop).collect();
                }
            }
            _ => {
                let v = g.pick(&pool);
                if let Some(call) = abs.body.calls.first_mut() {
                    if let Some(arg) = call.args.last_mut() {
                        *arg = v;
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn word_keys_agree_with_string_keys(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let (env, members) = random_scc(&mut g);
            let (words, text) = (scc_key(&env, &members), string_key(&env, &members));

            // An α-renamed copy at shifted ids has the same key.
            let (copy, copy_members) = renamed(&env, &members, 1 + g.below(50), g.below(3));
            prop_assert_eq!(&scc_key(&copy, &copy_members), &words);
            prop_assert_eq!(&string_key(&copy, &copy_members), &text);

            // One-atom mutations and unrelated systems: equal word keys
            // exactly when the string keys are equal.
            let others = [(mutated(&mut g, &env), members.clone()), random_scc(&mut g)];
            for (other, other_members) in &others {
                let same_words = scc_key(other, other_members) == words;
                let same_text = string_key(other, other_members) == text;
                prop_assert_eq!(same_words, same_text, "seed {}", seed);
            }
        }
    }

    #[test]
    fn length_prefixes_keep_aliasing_words_apart() {
        // Parameterless members over the heap (id 0) and one local `l`
        // (id 1); each pair below aliases when one length prefix is dropped.
        let abs = |atoms: &[Atom], calls: &[(u32, &[RegVar])]| ConstraintAbs {
            name: "m".into(),
            params: Vec::new(),
            body: AbsBody {
                atoms: atoms.iter().copied().collect(),
                calls: calls
                    .iter()
                    .map(|&(callee, args)| AbsCall {
                        callee: AbsId(callee),
                        args: args.to_vec(),
                    })
                    .collect(),
            },
        };
        let env = |members: Vec<ConstraintAbs>| -> AbsEnv { members.into_iter().collect() };
        let (heap, l) = (RegVar::HEAP, r(1));
        let pairs = [
            // Atom count: m0 = (heap = l) and m0 = m1⟨⟩ both read
            // `0 1 0 1 0`, as one atom `1 0 1` and no calls or as one call
            // `0 1` with no arguments.
            (
                env(vec![abs(&[Atom::eq(heap, l)], &[]), abs(&[], &[])]),
                env(vec![abs(&[], &[(1, &[])]), abs(&[], &[])]),
            ),
            // Call count: m0 = m0⟨⟩ beside m1 = true and m0 = true beside
            // m1 = m0⟨⟩ both read `0 0 0 0 0 0 0`.
            (
                env(vec![abs(&[], &[(0, &[])]), abs(&[], &[])]),
                env(vec![abs(&[], &[]), abs(&[], &[(0, &[])])]),
            ),
            // Argument count: m0⟨l, heap, heap⟩ ∧ m0⟨⟩ and m0⟨l⟩ ∧
            // m0⟨heap, heap⟩ both read `0 0 1 0 0 0 0` after the call count.
            (
                env(vec![abs(&[], &[(0, &[l, heap, heap]), (0, &[])])]),
                env(vec![abs(&[], &[(0, &[l]), (0, &[heap, heap])])]),
            ),
        ];
        for (a, b) in &pairs {
            let members: Vec<AbsId> = (0..a.len() as u32).map(AbsId).collect();
            assert_ne!(scc_key(a, &members), scc_key(b, &members));
            assert_ne!(string_key(a, &members), string_key(b, &members));
        }
    }

    #[test]
    fn canonical_form_is_alpha_invariant() {
        let key = |env: &AbsEnv, id: AbsId| scc_key(env, &[id]);
        let a = join_env(1);
        assert_eq!(key(&a, JOIN), key(&join_env(100), JOIN));
        // The same self-application at another id: calls into the SCC are
        // keyed by member index, not id.
        let closed = ConstraintAbs {
            name: "inv.C".into(),
            params: (1..=9).map(r).collect(),
            body: AbsBody::default(),
        };
        let shifted: AbsEnv = [closed.clone(), join_abs(AbsId(1), 50)]
            .into_iter()
            .collect();
        assert_eq!(key(&a, JOIN), key(&shifted, AbsId(1)));
        // Same shape applying an external callee instead: a different key.
        let external: AbsEnv = [closed, join_abs(AbsId(0), 50)].into_iter().collect();
        assert_ne!(key(&a, JOIN), key(&external, AbsId(1)));
    }

    #[test]
    fn memo_reuses_alpha_equivalent_sccs() {
        let memo = SolveMemo::new();
        let mut env = join_env(1);
        let first = solve_scc_memo_as(&mut env, &[JOIN], &memo, 0);
        assert!(!first.reused);
        assert!(first.iterations > 0);
        let closed1 = env.get(JOIN).body.atoms.to_string();
        assert_eq!(closed1, "r2>=r8 & r5>=r8");

        // A renamed copy of the same system must hit the memo and produce
        // the matching closed form over its own parameters.
        let mut env2 = join_env(41);
        let second = solve_scc_memo_as(&mut env2, &[JOIN], &memo, 0);
        assert!(second.reused);
        assert_eq!(second.iterations, 0);
        assert_eq!(env2.get(JOIN).body.atoms.to_string(), "r42>=r48 & r45>=r48");
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
    }

    #[test]
    fn key_tracks_external_callee_closed_forms() {
        // pre.m⟨a,b⟩ = inv.A⟨a,b⟩ with inv.A closed as b ≥ a: solving twice
        // hits; changing inv.A's closed form misses.
        let memo = SolveMemo::new();
        let (inv, m) = (AbsId(0), AbsId(1));
        let mk_env = |inv_atoms: ConstraintSet| -> AbsEnv {
            [
                ConstraintAbs {
                    name: "inv.A".into(),
                    params: vec![r(1), r(2)],
                    body: AbsBody::from_atoms(inv_atoms),
                },
                ConstraintAbs {
                    name: "pre.m".into(),
                    params: vec![r(3), r(4)],
                    body: AbsBody {
                        atoms: ConstraintSet::new(),
                        calls: vec![AbsCall {
                            callee: inv,
                            args: vec![r(3), r(4)],
                        }],
                    },
                },
            ]
            .into_iter()
            .collect()
        };
        let weak = ConstraintSet::singleton(Atom::outlives(r(2), r(1)));
        let strong = ConstraintSet::singleton(Atom::eq(r(1), r(2)));

        let mut env = mk_env(weak.clone());
        solve_scc_memo_as(&mut env, &[m], &memo, 0);
        let mut env = mk_env(weak);
        let hit = solve_scc_memo_as(&mut env, &[m], &memo, 0);
        assert!(hit.reused);
        assert_eq!(env.get(m).body.atoms.to_string(), "r4>=r3");

        let mut env = mk_env(strong);
        let miss = solve_scc_memo_as(&mut env, &[m], &memo, 0);
        assert!(!miss.reused, "changed import must invalidate");
        assert_eq!(env.get(m).body.atoms.to_string(), "r3=r4");
    }

    #[test]
    fn cross_client_hits_are_counted_as_shared() {
        let memo = SolveMemo::new();
        let (a, b) = (memo.register_client(), memo.register_client());
        assert_ne!(a, b);
        // Id 0 is reserved for anonymous callers; a registered client must
        // never alias it.
        assert_ne!(a, 0);
        assert_ne!(b, 0);

        let first = solve_scc_memo_as(&mut join_env(1), &[JOIN], &memo, a);
        assert!(!first.reused && !first.shared);

        // Same client again: a hit, but not a shared one.
        let own = solve_scc_memo_as(&mut join_env(1), &[JOIN], &memo, a);
        assert!(own.reused && !own.shared);
        assert_eq!(memo.shared_hits(), 0);

        // A different client compiling an α-equivalent system: shared hit.
        let mut env = join_env(77);
        let other = solve_scc_memo_as(&mut env, &[JOIN], &memo, b);
        assert!(other.reused && other.shared);
        assert_eq!(memo.shared_hits(), 1);
        assert_eq!(memo.hits(), 2);
        assert_eq!(env.get(JOIN).body.atoms.to_string(), "r78>=r84 & r81>=r84");
    }

    #[test]
    fn memo_is_safe_and_consistent_under_concurrent_solvers() {
        use std::sync::Arc;
        let memo = Arc::new(SolveMemo::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let memo = Arc::clone(&memo);
            handles.push(std::thread::spawn(move || {
                let client = memo.register_client();
                let base = 1 + t * 100;
                let mut env = join_env(base);
                solve_scc_memo_as(&mut env, &[JOIN], &memo, client);
                env.get(JOIN).body.atoms.to_string()
            }));
        }
        let results: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread must see the fixpoint expressed over its own params.
        for (t, got) in results.iter().enumerate() {
            let base = 1 + t as u32 * 100;
            let expect = format!(
                "r{}>=r{} & r{}>=r{}",
                base + 1,
                base + 7,
                base + 4,
                base + 7
            );
            assert_eq!(*got, expect);
        }
        // All eight solved the same canonical SCC: one entry, and every
        // memo access is accounted as either a hit or a miss.
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.hits() + memo.misses(), 8);
        assert!(memo.misses() >= 1);
        assert_eq!(memo.shared_hits(), memo.hits());
    }

    #[test]
    fn byte_budget_bounds_the_memo_under_ten_times_its_size() {
        let budget = 64 << 10;
        let memo = SolveMemo::with_capacity(budget);
        let closed = vec![ConstraintSet::singleton(Atom::outlives(r(1), r(2)))];
        let mut stored = 0;
        let mut i = 0;
        while stored < 10 * budget {
            let key: Vec<u32> = (0..i as u32 % 50).chain([i as u32]).collect();
            stored += entry_bytes(&key, &closed);
            memo.store(key, 0, closed.clone());
            assert!(memo.bytes() <= budget, "{} > {budget}", memo.bytes());
            i += 1;
        }
        // Ten budgets' worth of entries went in, so the table flushed — yet
        // the memo kept serving within its bound.
        assert!(memo.len() < i);
        assert!(!memo.is_empty());
        assert_eq!(memo.misses() as usize, i);
    }

    #[test]
    fn entries_larger_than_the_budget_are_not_stored() {
        let memo = SolveMemo::with_capacity(256);
        memo.store(vec![1], 0, Vec::new());
        memo.store(vec![0; 64], 0, Vec::new());
        assert_eq!(memo.len(), 1, "the oversized entry is dropped");
        assert!(memo.lookup(&[1], 0).is_some(), "and evicts nothing");
        assert_eq!(memo.bytes(), entry_bytes(&[1], &[]));
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn restoring_a_key_replaces_its_charge() {
        let memo = SolveMemo::new();
        for _ in 0..3 {
            memo.store(vec![7], 0, Vec::new());
        }
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.bytes(), entry_bytes(&[7], &[]));
    }

    #[test]
    fn closed_forms_roundtrip_through_canonical_ids() {
        let abs = ConstraintAbs {
            name: "inv.X".into(),
            params: vec![r(7), r(9), r(11)],
            body: AbsBody::from_atoms(
                [Atom::outlives(r(9), r(7)), Atom::eq(r(11), RegVar::HEAP)]
                    .into_iter()
                    .collect(),
            ),
        };
        let canonical = canon_closed(&abs);
        let back = uncanon_closed(&canonical, &abs.params);
        assert_eq!(back, abs.body.atoms);
    }
}
