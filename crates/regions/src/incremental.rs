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
//! [`canon_with`] computes that α-invariant form: formal parameters map to
//! `1..=k` positionally, the heap to `0`, and every other (body-local)
//! variable to the next id in first-occurrence order. [`SolveMemo`] keys
//! solved SCCs by the canonical serialization of (1) + (2); on a hit the
//! cached closed forms — which mention only parameters and the heap — are
//! re-expressed over the current parameters and written back without
//! re-running the Kleene iteration.
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
//!   thread-safe (sharded locks, atomic counters), so a compile daemon can
//!   hand one `Arc<SolveMemo>` to every connection — α-equivalent SCCs
//!   solved by *any* client are hits for all of them, counted separately
//!   as [`SolveMemo::shared_hits`].
//!
//! The memo lives in memory only: a new process starts with an empty one.

use crate::abstraction::{solve_fixpoint, AbsBody, AbsEnv, AbsId, ConstraintAbs};
use crate::constraint::{Atom, ConstraintSet};
use crate::var::RegVar;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::{Hash as _, Hasher as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Appends the canonical (α-invariant) serialization of one abstraction's
/// raw body to `out`: parameter count, atoms, and applications. Each
/// application's callee is rendered by `callee_tag`, so the form is
/// independent of ids and names.
pub fn canon_with(
    out: &mut String,
    abs: &ConstraintAbs,
    mut callee_tag: impl FnMut(AbsId, &mut String),
) {
    let mut c = Canonizer::for_params(&abs.params);
    let _ = write!(out, "p{}|", abs.params.len());
    for atom in abs.body.atoms.iter() {
        match atom {
            Atom::Outlives(a, b) => {
                let _ = write!(out, "{}>{};", c.id(a), c.id(b));
            }
            Atom::Eq(a, b) => {
                let _ = write!(out, "{}={};", c.id(a), c.id(b));
            }
        }
    }
    for call in &abs.body.calls {
        out.push('[');
        callee_tag(call.callee, out);
        out.push_str("](");
        for &a in &call.args {
            let _ = write!(out, "{},", c.id(a));
        }
        out.push(')');
    }
}

/// The canonical form of a *closed* abstraction (no residual calls): its
/// atoms with parameters renamed positionally to `1..=k` and the heap to
/// `0`. Closed forms mention only parameters and the heap, so this is a
/// total renaming.
pub fn canon_closed(abs: &ConstraintAbs) -> ConstraintSet {
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
pub fn uncanon_closed(canonical: &ConstraintSet, params: &[RegVar]) -> ConstraintSet {
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

/// Result of [`solve_scc_memo_as`] for one SCC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SccOutcome {
    /// Whether the closed forms came from the memo.
    pub reused: bool,
    /// Whether the hit entry was solved by a *different* client (see
    /// [`SolveMemo::register_client`]); always `false` on a miss.
    pub shared: bool,
    /// Kleene iterations actually performed (0 on reuse).
    pub iterations: usize,
}

/// One solved-SCC record: the canonical closed atoms per member, in the
/// same (id-sorted) member order the key was built in, tagged with the
/// client that solved it.
#[derive(Debug, Clone)]
struct MemoEntry {
    owner: u64,
    closed: Vec<ConstraintSet>,
}

/// The approximate heap footprint of one memo entry: its key and closed
/// atoms plus the fixed headers that hold them.
fn entry_bytes(key: &str, closed: &[ConstraintSet]) -> usize {
    let atoms: usize = closed.iter().map(ConstraintSet::len).sum();
    std::mem::size_of::<(String, MemoEntry)>()
        + key.len()
        + std::mem::size_of_val(closed)
        + atoms * std::mem::size_of::<Atom>()
}

/// One independently locked slice of the memo.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, MemoEntry>,
    /// Sum of [`entry_bytes`] over `entries`.
    bytes: usize,
}

/// A content-addressed memo of solved SCCs. See the module docs.
///
/// Thread-safe: entries live in [`SolveMemo::SHARDS`] mutex-protected
/// shards selected by key hash, and the counters are atomics, so one memo
/// can be shared (`Arc<SolveMemo>`) by many concurrently compiling clients
/// — e.g. every connection of a compile daemon — without serializing their
/// solves on a single lock.
///
/// Bounded by bytes: each shard owns an equal slice of the byte budget
/// (see [`with_capacity`](SolveMemo::with_capacity)). A store that would
/// overflow its shard's slice flushes that shard wholesale first, and an
/// entry larger than a whole slice is not stored at all. Correctness never
/// depends on a hit, so the only cost of a flush is one cold re-solve per
/// SCC — which keeps a long-lived compile server's memory flat across
/// unbounded edit streams, however large the programs it is sent.
///
/// Entries are tagged with the *client* that solved them (see
/// [`register_client`](SolveMemo::register_client)); a hit on another
/// client's entry counts as a **shared hit**, making cross-client reuse
/// observable.
#[derive(Debug)]
pub struct SolveMemo {
    shards: [Mutex<Shard>; SolveMemo::SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    shared_hits: AtomicU64,
    next_client: AtomicU64,
    /// Total byte budget (split evenly across shards).
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

    /// Number of independently locked shards.
    pub const SHARDS: usize = 16;

    /// An empty memo with the default byte budget.
    pub fn new() -> SolveMemo {
        SolveMemo::default()
    }

    /// An empty memo whose entries never take more than `capacity` bytes
    /// in total, each shard holding at most `capacity / SHARDS`.
    pub fn with_capacity(capacity: usize) -> SolveMemo {
        SolveMemo {
            shards: Default::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shared_hits: AtomicU64::new(0),
            next_client: AtomicU64::new(0),
            capacity,
        }
    }

    /// The per-shard slice of the byte budget.
    fn shard_budget(&self) -> usize {
        self.capacity / SolveMemo::SHARDS
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
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").entries.len())
            .sum()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the retained entries take, as charged against the budget.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").bytes)
            .sum()
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % SolveMemo::SHARDS]
    }

    /// Looks up a solved SCC; on a hit updates the hit counters and
    /// reports whether the entry was solved by a different client.
    fn lookup(&self, key: &str, client: u64) -> Option<(Vec<ConstraintSet>, bool)> {
        let shard = self.shard(key).lock().expect("memo shard poisoned");
        let entry = shard.entries.get(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        let shared = entry.owner != client;
        if shared {
            self.shared_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some((entry.closed.clone(), shared))
    }

    /// Records a freshly solved SCC, flushing the target shard first when
    /// the entry would overflow its slice of the byte budget; an entry
    /// larger than the whole slice is dropped. A concurrent solver may
    /// have stored the same key already; the values are identical by
    /// determinism of the fixpoint, so last-write-wins is safe.
    fn store(&self, key: String, client: u64, closed: Vec<ConstraintSet>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let size = entry_bytes(&key, &closed);
        let budget = self.shard_budget();
        if size > budget {
            return;
        }
        let mut guard = self.shard(&key).lock().expect("memo shard poisoned");
        let shard = &mut *guard;
        if let Some(old) = shard.entries.remove(&key) {
            shard.bytes -= entry_bytes(&key, &old.closed);
        }
        if shard.bytes + size > budget {
            shard.entries.clear();
            shard.bytes = 0;
        }
        shard.bytes += size;
        shard.entries.insert(
            key,
            MemoEntry {
                owner: client,
                closed,
            },
        );
    }
}

/// The key fragments of external callees ([`canon_closed`] forms), each
/// rendered once however many SCC keys and call sites import it. A
/// fragment is only valid while its callee's closed form stays put, so
/// use one `ImportKeys` per bottom-up pass over the condensation: within
/// a pass every callee is final before any importer is keyed.
#[derive(Debug, Default)]
pub struct ImportKeys {
    /// Indexed by callee id; grown on demand.
    rendered: Vec<Option<String>>,
}

impl ImportKeys {
    /// An empty set of fragments, for a new pass.
    pub fn new() -> ImportKeys {
        ImportKeys::default()
    }

    /// The fragment of closed abstraction `callee`, rendered on first use.
    fn fragment(&mut self, env: &AbsEnv, callee: AbsId) -> &str {
        let i = callee.index();
        if self.rendered.len() <= i {
            self.rendered.resize(i + 1, None);
        }
        self.rendered[i].get_or_insert_with(|| {
            let c = env.get(callee);
            assert!(
                c.body.calls.is_empty(),
                "external callee `{}` is not closed",
                c.name
            );
            format!("x{}", canon_closed(c))
        })
    }
}

/// Builds the content-addressed key of one SCC: the canonical raw bodies of
/// its members (`members` is sorted by id, calls to members rendered by
/// member index) together with the canonical closed forms of every external
/// callee.
///
/// # Panics
///
/// Panics when an external callee has residual calls (i.e. the SCC order is
/// not bottom-up).
fn scc_key(env: &AbsEnv, members: &[AbsId], imports: &mut ImportKeys) -> String {
    let mut key = String::new();
    for &id in members {
        canon_with(&mut key, env.get(id), |callee, out| {
            match members.binary_search(&callee) {
                Ok(i) => {
                    let _ = write!(out, "m{i}");
                }
                Err(_) => out.push_str(imports.fragment(env, callee)),
            }
        });
        key.push('\n');
    }
    key
}

/// Solves one SCC to closed forms on behalf of memo client `client` (see
/// [`SolveMemo::register_client`]; 0 for an anonymous caller), reusing the
/// memo when an identical SCC (up to renaming) has been solved before.
/// `members` may arrive in any order; results are written back into `env`
/// either way. Hits on entries another client solved are reported as
/// `shared` in the outcome and counted by the memo. As one step of a
/// bottom-up pass, the key reuses the callee fragments `imports` already
/// holds and adds the new ones.
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
    imports: &mut ImportKeys,
) -> SccOutcome {
    let mut span = cj_trace::span("pipeline", "solve-scc");
    span.add("members", members.len() as u64);
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    let key = scc_key(env, &sorted, imports);
    if let Some((closed, shared)) = memo.lookup(&key, client) {
        span.add("hit", 1);
        if shared {
            span.add("shared", 1);
        }
        for (&id, canonical) in sorted.iter().zip(closed) {
            let abs = env.get_mut(id);
            abs.body = AbsBody::from_atoms(uncanon_closed(&canonical, &abs.params));
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

    fn canon(abs: &ConstraintAbs) -> String {
        let mut out = String::new();
        canon_with(&mut out, abs, |callee, out| {
            let _ = write!(out, "@{}", callee.0);
        });
        out
    }

    fn solve(env: &mut AbsEnv, members: &[AbsId], memo: &SolveMemo, client: u64) -> SccOutcome {
        solve_scc_memo_as(env, members, memo, client, &mut ImportKeys::new())
    }

    const JOIN: AbsId = AbsId(0);

    #[test]
    fn canonical_form_is_alpha_invariant() {
        let a = join_abs(JOIN, 1);
        let b = join_abs(JOIN, 100);
        assert_eq!(canon(&a), canon(&b));
        let c = join_abs(AbsId(7), 1);
        // Same shape, different callee: an id-rendering tag differs…
        assert_ne!(canon(&a), canon(&c));
        // …but an id-insensitive tag matches.
        let tagless = |abs: &ConstraintAbs| {
            let mut out = String::new();
            canon_with(&mut out, abs, |_, out| out.push_str("self"));
            out
        };
        assert_eq!(tagless(&a), tagless(&c));
    }

    #[test]
    fn memo_reuses_alpha_equivalent_sccs() {
        let memo = SolveMemo::new();
        let mut env = join_env(1);
        let first = solve(&mut env, &[JOIN], &memo, 0);
        assert!(!first.reused);
        assert!(first.iterations > 0);
        let closed1 = env.get(JOIN).body.atoms.to_string();
        assert_eq!(closed1, "r2>=r8 & r5>=r8");

        // A renamed copy of the same system must hit the memo and produce
        // the matching closed form over its own parameters.
        let mut env2 = join_env(41);
        let second = solve(&mut env2, &[JOIN], &memo, 0);
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
        solve(&mut env, &[m], &memo, 0);
        let mut env = mk_env(weak);
        let hit = solve(&mut env, &[m], &memo, 0);
        assert!(hit.reused);
        assert_eq!(env.get(m).body.atoms.to_string(), "r4>=r3");

        let mut env = mk_env(strong);
        let miss = solve(&mut env, &[m], &memo, 0);
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

        let first = solve(&mut join_env(1), &[JOIN], &memo, a);
        assert!(!first.reused && !first.shared);

        // Same client again: a hit, but not a shared one.
        let own = solve(&mut join_env(1), &[JOIN], &memo, a);
        assert!(own.reused && !own.shared);
        assert_eq!(memo.shared_hits(), 0);

        // A different client compiling an α-equivalent system: shared hit.
        let mut env = join_env(77);
        let other = solve(&mut env, &[JOIN], &memo, b);
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
                solve(&mut env, &[JOIN], &memo, client);
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
            let key = format!("key-{i}-{}", "x".repeat(i % 200));
            stored += entry_bytes(&key, &closed);
            memo.store(key, 0, closed.clone());
            assert!(memo.bytes() <= budget, "{} > {budget}", memo.bytes());
            i += 1;
        }
        // Ten budgets' worth of entries went in, so shards flushed — yet
        // the memo kept serving within its bound.
        assert!(memo.len() < i);
        assert!(!memo.is_empty());
        assert_eq!(memo.misses() as usize, i);
    }

    #[test]
    fn entries_larger_than_a_shard_slice_are_not_stored() {
        let memo = SolveMemo::with_capacity(SolveMemo::SHARDS * 256);
        memo.store("small".to_string(), 0, Vec::new());
        memo.store("x".repeat(256), 0, Vec::new());
        assert_eq!(memo.len(), 1, "the oversized entry is dropped");
        assert!(memo.lookup("small", 0).is_some(), "and evicts nothing");
        assert_eq!(memo.bytes(), entry_bytes("small", &[]));
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn restoring_a_key_replaces_its_charge() {
        let memo = SolveMemo::new();
        for _ in 0..3 {
            memo.store("k".to_string(), 0, Vec::new());
        }
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.bytes(), entry_bytes("k", &[]));
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
