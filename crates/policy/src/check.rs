//! The policy checker: rule resolution, the interprocedural escape
//! fixpoint, per-method evaluation, and the α-invariant verdict memo.
//!
//! The engine consumes a fully inferred [`RProgram`] and a [`PolicySet`]
//! and produces located [`Violation`]s. Verdicts are memoized per method
//! under a fingerprint of everything they depend on — the rule set, the
//! method's canonicalized annotations (region ids α-renamed, spans
//! excluded), the signatures of its callees (closed imports), its escape
//! context, and the subclass relations between every class it mentions and
//! every class the rules name — so a host re-checking after an incremental
//! edit re-evaluates only the methods the edit actually affected.

use crate::{PolicySet, Rule, RuleKind};
use cj_diag::{codes, Span};
use cj_frontend::intern::Symbol;
use cj_frontend::types::{ClassId, MethodId};
use cj_infer::rast::{walk_rexpr, RExpr, RExprKind, RMethod, RProgram, RType};
use cj_regions::constraint::Atom;
use cj_regions::solve::Solver;
use cj_regions::var::RegVar;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One policy finding, located in the program (or, for rule-resolution
/// errors, in the policy source).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the rule in the [`PolicySet`].
    pub rule: usize,
    /// Diagnostic code (one of the `codes::POLICY*` family).
    pub code: &'static str,
    /// Primary message.
    pub message: String,
    /// Primary span: the offending allocation or call, or the rule itself
    /// for resolution errors.
    pub span: Span,
    /// Whether `span` points into the policy source rather than the
    /// program (true exactly for rule-resolution errors).
    pub in_policy: bool,
    /// Supporting notes.
    pub notes: Vec<String>,
}

/// The outcome of one [`PolicyEngine::check`] call.
#[derive(Debug, Clone, Default)]
pub struct PolicyReport {
    /// Every finding, in deterministic order: rule-resolution errors first
    /// (rule order), then per-method findings (program method order).
    pub violations: Vec<Violation>,
    /// Rule × method evaluations actually executed (memo misses only).
    pub rules_checked: u32,
    /// Violations discovered by executed evaluations (memo replays are
    /// not re-counted).
    pub new_violations: u32,
    /// Methods whose verdicts were computed this call.
    pub methods_checked: u32,
    /// Methods whose verdicts were replayed from the memo.
    pub methods_reused: u32,
}

/// A memoized per-method finding: the site is a pre-order ordinal into the
/// method body, resolved against the *current* body on replay (bodies with
/// equal fingerprints are α-identical, so ordinals line up while spans may
/// have moved with an edit elsewhere in the file).
#[derive(Debug, Clone)]
struct Stored {
    rule: u32,
    site: u32,
    code: &'static str,
    message: String,
    notes: Vec<String>,
}

/// A rule with its class names resolved against one program.
struct Resolved {
    idx: usize,
    target: Target,
}

enum Target {
    NoEscape {
        class: ClassId,
    },
    Confine {
        class: ClassId,
        owner: ClassId,
    },
    Separate {
        source: ClassId,
        sink_class: Option<ClassId>,
        sink_method: Symbol,
    },
}

/// The region-effect policy checker with its per-method verdict memo.
///
/// The memo survives across [`check`](PolicyEngine::check) calls (and so
/// across host revisions); it is keyed by content, never invalidated.
#[derive(Debug, Default)]
pub struct PolicyEngine {
    cache: HashMap<u64, Arc<Vec<Stored>>>,
}

impl PolicyEngine {
    /// A fresh engine with an empty memo.
    pub fn new() -> PolicyEngine {
        PolicyEngine::default()
    }

    /// Checks every rule of `set` against `program`.
    pub fn check(&mut self, program: &RProgram, set: &PolicySet) -> PolicyReport {
        let mut span = cj_trace::span("pipeline", "policy-check");
        span.add("rules", set.rules.len() as u64);
        let mut report = PolicyReport::default();
        let mut resolved = Vec::new();
        for (idx, rule) in set.rules.iter().enumerate() {
            match resolve_rule(program, idx, rule) {
                Ok(r) => resolved.push(r),
                Err(v) => report.violations.push(v),
            }
        }
        if resolved.is_empty() {
            return report;
        }

        let cx = ProgramCx::build(program, &resolved);
        for (mi, (id, m)) in cx.methods.iter().enumerate() {
            let nodes = preorder(&m.body);
            let key = method_key(&cx, set.fingerprint, mi, *id, m, &nodes);
            let stored = match self.cache.get(&key) {
                Some(stored) => {
                    report.methods_reused += 1;
                    Arc::clone(stored)
                }
                None => {
                    let found = evaluate(&cx, mi, *id, m, &nodes, &resolved);
                    report.rules_checked += resolved.len() as u32;
                    report.new_violations += found.len() as u32;
                    report.methods_checked += 1;
                    let found = Arc::new(found);
                    self.cache.insert(key, Arc::clone(&found));
                    found
                }
            };
            for s in stored.iter() {
                report.violations.push(Violation {
                    rule: s.rule as usize,
                    code: s.code,
                    message: s.message.clone(),
                    span: nodes[s.site as usize].span,
                    in_policy: false,
                    notes: s.notes.clone(),
                });
            }
        }
        span.add("violations", report.violations.len() as u64);
        report
    }
}

/// Resolves one rule's names, or reports why it cannot apply.
fn resolve_rule(program: &RProgram, idx: usize, rule: &Rule) -> Result<Resolved, Violation> {
    let table = &program.kernel.table;
    let err = |message: String| Violation {
        rule: idx,
        code: codes::POLICY,
        message,
        span: rule.span,
        in_policy: true,
        notes: Vec::new(),
    };
    let class_of = |name: &str| {
        table
            .class_id(name)
            .ok_or_else(|| err(format!("rule references unknown class `{name}`")))
    };
    let target = match rule.kind {
        RuleKind::NoEscape => Target::NoEscape {
            class: class_of(&rule.class)?,
        },
        RuleKind::Confine => Target::Confine {
            class: class_of(&rule.class)?,
            owner: class_of(rule.owner.as_deref().unwrap_or_default())?,
        },
        RuleKind::Separate => {
            let source = class_of(&rule.class)?;
            let method = Symbol::intern(rule.sink_method.as_deref().unwrap_or_default());
            let sink_class = match rule.sink_class.as_deref() {
                Some(name) => {
                    let c = class_of(name)?;
                    if table.lookup_method(c, method).is_none() {
                        return Err(err(format!(
                            "rule references unknown sink method `{name}.{method}`"
                        )));
                    }
                    Some(c)
                }
                None => {
                    if table.lookup_static(method).is_none() {
                        return Err(err(format!(
                            "rule references unknown static sink method `{method}`"
                        )));
                    }
                    None
                }
            };
            Target::Separate {
                source,
                sink_class,
                sink_method: method,
            }
        }
    };
    Ok(Resolved { idx, target })
}

/// Per-program context shared by hashing and evaluation: the method list in
/// canonical order, the letreg-local region sets, the escape fixpoint, the
/// per-class/per-method signature hashes, and the classes the rules name.
struct ProgramCx<'p> {
    program: &'p RProgram,
    methods: Vec<(MethodId, &'p RMethod)>,
    /// Regions bound by a `letreg` in each method's body.
    locals: Vec<BTreeSet<RegVar>>,
    /// `escapes[mi][k]`: abstraction parameter `k` of method `mi` may be
    /// bound (transitively, through the closed call graph) to `heap` or to
    /// an open-world region — a value allocated into it outlives every
    /// `letreg` extent.
    escapes: Vec<Vec<bool>>,
    class_sig: Vec<u64>,
    method_sig: Vec<u64>,
    /// Every class the resolved rules name, in rule order (subclass
    /// relations against these are part of each method's verdict key).
    rule_classes: Vec<ClassId>,
}

impl<'p> ProgramCx<'p> {
    fn build(program: &'p RProgram, resolved: &[Resolved]) -> ProgramCx<'p> {
        let methods: Vec<(MethodId, &RMethod)> = program.all_rmethods().collect();
        let index: HashMap<MethodId, usize> = methods
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i))
            .collect();
        let locals: Vec<BTreeSet<RegVar>> = methods
            .iter()
            .map(|(_, m)| {
                let mut set = BTreeSet::new();
                walk_rexpr(&m.body, &mut |e| {
                    if let RExprKind::Letreg(r, _) = &e.kind {
                        set.insert(*r);
                    }
                });
                set
            })
            .collect();

        // Call edges: each edge maps every callee abstraction parameter to
        // the caller-side region that instantiates it (`None` = unknown,
        // e.g. an override's extra class parameters).
        let mut in_edges: Vec<Vec<(usize, Vec<Option<RegVar>>)>> = vec![Vec::new(); methods.len()];
        for (ci, (_, m)) in methods.iter().enumerate() {
            walk_rexpr(&m.body, &mut |e| {
                let (target, inst) = match &e.kind {
                    RExprKind::CallVirtual { method, inst, .. }
                    | RExprKind::CallStatic { method, inst, .. } => (*method, inst),
                    _ => return,
                };
                for (callee, mapping) in call_targets(program, &index, &methods, target, inst) {
                    in_edges[callee].push((ci, mapping));
                }
            });
        }

        // The escape fixpoint. Roots (methods no program call reaches) face
        // the open world: their parameters escape by definition.
        let mut escapes: Vec<Vec<bool>> = methods
            .iter()
            .enumerate()
            .map(|(i, (_, m))| vec![in_edges[i].is_empty(); m.abs_params.len()])
            .collect();
        loop {
            let mut changed = false;
            for callee in 0..methods.len() {
                for (caller, mapping) in &in_edges[callee] {
                    for k in 0..escapes[callee].len() {
                        if escapes[callee][k] {
                            continue;
                        }
                        let esc = match mapping.get(k).copied().flatten() {
                            None => true,
                            Some(r) => {
                                if r.is_heap() {
                                    true
                                } else if locals[*caller].contains(&r) {
                                    false
                                } else {
                                    match methods[*caller].1.abs_params.iter().position(|&p| p == r)
                                    {
                                        Some(j) => escapes[*caller][j],
                                        None => true,
                                    }
                                }
                            }
                        };
                        if esc {
                            escapes[callee][k] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let rule_classes = resolved
            .iter()
            .flat_map(|r| match r.target {
                Target::NoEscape { class } => vec![class],
                Target::Confine { class, owner } => vec![class, owner],
                Target::Separate {
                    source, sink_class, ..
                } => sink_class.into_iter().chain([source]).collect(),
            })
            .collect();

        let class_sig = class_signatures(program);
        let method_sig = method_signatures(program, &methods, &class_sig);
        ProgramCx {
            program,
            methods,
            locals,
            escapes,
            class_sig,
            method_sig,
            rule_classes,
        }
    }

    fn table(&self) -> &cj_frontend::classtable::ClassTable {
        &self.program.kernel.table
    }
}

/// The methods a call site may reach: the statically resolved callee plus,
/// for virtual calls, every override in a subclass. Each target comes with
/// the instantiation of *its* abstraction parameters (the shared class
/// prefix and the method regions map through `inst`; an override's extra
/// class parameters are unknown).
fn call_targets(
    program: &RProgram,
    index: &HashMap<MethodId, usize>,
    methods: &[(MethodId, &RMethod)],
    target: MethodId,
    inst: &[RegVar],
) -> Vec<(usize, Vec<Option<RegVar>>)> {
    let mut out = Vec::new();
    if let Some(&ti) = index.get(&target) {
        let arity = methods[ti].1.abs_params.len();
        out.push((ti, (0..arity).map(|k| inst.get(k).copied()).collect()));
    }
    let MethodId::Instance(c, i) = target else {
        return out;
    };
    let table = &program.kernel.table;
    let name = table.class(c).own_methods[i as usize].name;
    let c_params = program.rclass(c).params.len();
    for info in table.classes() {
        if info.id == c || !table.is_subclass(info.id, c) {
            continue;
        }
        let Some(j) = info.own_methods.iter().position(|m| m.name == name) else {
            continue;
        };
        let over = MethodId::Instance(info.id, j as u32);
        let Some(&oi) = index.get(&over) else {
            continue;
        };
        let d_params = program.rclass(info.id).params.len();
        let arity = methods[oi].1.abs_params.len();
        let mapping = (0..arity)
            .map(|k| {
                if k < c_params {
                    inst.get(k).copied()
                } else if k < d_params {
                    None
                } else {
                    inst.get(c_params + (k - d_params)).copied()
                }
            })
            .collect();
        out.push((oi, mapping));
    }
    out
}

// ---- evaluation ---------------------------------------------------------

/// Pre-order node list of a method body; `Stored::site` indexes it.
fn preorder(body: &RExpr) -> Vec<&RExpr> {
    let mut nodes = Vec::new();
    walk_rexpr(body, &mut |e| nodes.push(e));
    nodes
}

/// Evaluates every resolved rule against one method, producing memoizable
/// findings. Messages use only α-stable names (classes, method display
/// names, 1-based positional region parameters) so a memo replay after an
/// incremental edit is bit-identical to a fresh evaluation.
fn evaluate(
    cx: &ProgramCx<'_>,
    mi: usize,
    id: MethodId,
    m: &RMethod,
    nodes: &[&RExpr],
    resolved: &[Resolved],
) -> Vec<Stored> {
    let table = cx.table();
    let mname = cx.program.kernel.method_name(id);
    // Every class-typed annotation occurring in the method, deduplicated:
    // the ownership ("owned by D") and taint ("hosts S values") relations
    // are read off these occurrences.
    let mut occurrences: BTreeSet<(ClassId, Vec<RegVar>)> = BTreeSet::new();
    let mut record = |t: &RType| {
        if let RType::Class { class, regions, .. } = t {
            occurrences.insert((*class, regions.clone()));
        }
    };
    for t in &m.var_types {
        record(t);
    }
    record(&m.ret_type);
    for node in nodes {
        record(&node.rtype);
    }

    // The closed constraint environment, built on first use.
    let mut solver: Option<Solver> = None;
    let mut entails = |atom: Atom| -> bool {
        solver
            .get_or_insert_with(|| Solver::from_set(&cx.program.method_closure(id)))
            .entails_atom(atom)
    };

    let mut found = Vec::new();
    for r in resolved {
        match r.target {
            Target::NoEscape { class } => {
                for (site, node) in nodes.iter().enumerate() {
                    let RExprKind::New {
                        class: alloc,
                        regions,
                        ..
                    } = &node.kind
                    else {
                        continue;
                    };
                    if !table.is_subclass(*alloc, class) {
                        continue;
                    }
                    let cn = table.name(*alloc);
                    let Some(&r0) = regions.first() else { continue };
                    let verdict = if r0.is_heap() {
                        Some((
                            format!(
                                "values of class `{cn}` must not escape their creation region, \
                                 but this allocation places one on the heap"
                            ),
                            vec!["the heap outlives every region".to_string()],
                        ))
                    } else if cx.locals[mi].contains(&r0) {
                        None
                    } else if let Some(i) = m.abs_params.iter().position(|&p| p == r0) {
                        cx.escapes[mi][i].then(|| {
                            (
                                format!(
                                    "values of class `{cn}` must not escape their creation \
                                     region, but this allocation's region (parameter r{} of \
                                     `{mname}`) may outlive the method",
                                    i + 1
                                ),
                                vec![format!(
                                    "the region flows out through `{mname}`'s signature and some \
                                     call chain binds it to the heap or to the open world"
                                )],
                            )
                        })
                    } else {
                        Some((
                            format!(
                                "values of class `{cn}` must not escape their creation region, \
                                 but this allocation's region has no `letreg` binding in `{mname}`"
                            ),
                            Vec::new(),
                        ))
                    };
                    if let Some((message, notes)) = verdict {
                        found.push(Stored {
                            rule: r.idx as u32,
                            site: site as u32,
                            code: codes::POLICY_NO_ESCAPE,
                            message,
                            notes,
                        });
                    }
                }
            }
            Target::Confine { class, owner } => {
                let owned: BTreeSet<RegVar> = occurrences
                    .iter()
                    .filter(|(c, _)| table.is_subclass(*c, owner))
                    .flat_map(|(_, regions)| regions.iter().copied())
                    .collect();
                let on = table.name(owner);
                for (site, node) in nodes.iter().enumerate() {
                    let RExprKind::New {
                        class: alloc,
                        regions,
                        ..
                    } = &node.kind
                    else {
                        continue;
                    };
                    if !table.is_subclass(*alloc, class) {
                        continue;
                    }
                    let Some(&r0) = regions.first() else { continue };
                    let confined =
                        owned.contains(&r0) || owned.iter().any(|&o| entails(Atom::eq(r0, o)));
                    if !confined {
                        let cn = table.name(*alloc);
                        let note = if owned.is_empty() {
                            format!("no `{on}`-owned region is in scope in `{mname}`")
                        } else {
                            format!(
                                "`{on}` owns {} region(s) here, none provably equal to the \
                                 allocation region",
                                owned.len()
                            )
                        };
                        found.push(Stored {
                            rule: r.idx as u32,
                            site: site as u32,
                            code: codes::POLICY_CONFINE,
                            message: format!(
                                "values of class `{cn}` may only be allocated into regions \
                                 owned by `{on}`, but this allocation's region is not one of them"
                            ),
                            notes: vec![note],
                        });
                    }
                }
            }
            Target::Separate {
                source,
                sink_class,
                sink_method,
            } => {
                let taint: BTreeSet<RegVar> = occurrences
                    .iter()
                    .filter(|(c, _)| table.is_subclass(*c, source))
                    .filter_map(|(_, regions)| regions.first().copied())
                    .collect();
                if taint.is_empty() {
                    continue;
                }
                let sn = table.name(source);
                for (site, node) in nodes.iter().enumerate() {
                    let (callee, args) = match &node.kind {
                        RExprKind::CallVirtual { method, args, .. } => (*method, args),
                        RExprKind::CallStatic { method, args, .. } => (*method, args),
                        _ => continue,
                    };
                    if !sink_matches(table, callee, sink_class, sink_method) {
                        continue;
                    }
                    let sink_name = cx.program.kernel.method_name(callee);
                    for (ai, a) in args.iter().enumerate() {
                        let Some(t) = m.var_types[a.index()].object_region() else {
                            continue;
                        };
                        let tainted = taint.contains(&t)
                            || taint.iter().any(|&s| entails(Atom::outlives(s, t)));
                        if tainted {
                            found.push(Stored {
                                rule: r.idx as u32,
                                site: site as u32,
                                code: codes::POLICY_SEPARATE,
                                message: format!(
                                    "values born in `{sn}`-hosting regions must not flow into \
                                     sink `{sink_name}`, but argument {} of this call lives in \
                                     a region reachable from one",
                                    ai + 1
                                ),
                                notes: vec![format!(
                                    "the closed constraints entail that a `{sn}`-hosting region \
                                     outlives the argument's region, so the argument can reach \
                                     `{sn}` data"
                                )],
                            });
                        }
                    }
                }
            }
        }
    }
    found
}

/// Whether a call's statically resolved callee matches a sink spec: a
/// class-qualified sink matches instance methods of the same name whose
/// declaring class is related to the sink class (either direction — a call
/// through a superclass may dispatch into the sink, and a call on a
/// subclass inherits it); a bare sink matches the static method of that
/// name.
fn sink_matches(
    table: &cj_frontend::classtable::ClassTable,
    callee: MethodId,
    sink_class: Option<ClassId>,
    sink_method: Symbol,
) -> bool {
    match (callee, sink_class) {
        (MethodId::Instance(c, i), Some(sc)) => {
            table.class(c).own_methods[i as usize].name == sink_method
                && (table.is_subclass(c, sc) || table.is_subclass(sc, c))
        }
        (MethodId::Static(i), None) => table.statics()[i as usize].name == sink_method,
        _ => false,
    }
}

// ---- α-invariant verdict keys -------------------------------------------

/// First-occurrence region renumbering: two methods that differ only by a
/// consistent (order-preserving) region-id shift — exactly what incremental
/// recompilation produces for untouched methods — hash identically.
#[derive(Default)]
struct Canon {
    map: HashMap<RegVar, u64>,
}

impl Canon {
    fn id(&mut self, r: RegVar) -> u64 {
        if r.is_heap() {
            return u64::MAX;
        }
        let next = self.map.len() as u64;
        *self.map.entry(r).or_insert(next)
    }
}

/// Hashes a constraint set under `canon`, order-independently (atoms are
/// canonicalized, then sorted).
fn hash_atoms(h: &mut DefaultHasher, canon: &mut Canon, atoms: impl Iterator<Item = Atom>) {
    let mut mapped: Vec<(u8, u64, u64)> = atoms
        .map(|a| match a {
            Atom::Outlives(x, y) => (0, canon.id(x), canon.id(y)),
            Atom::Eq(x, y) => {
                let (x, y) = (canon.id(x), canon.id(y));
                (1, x.min(y), x.max(y))
            }
        })
        .collect();
    mapped.sort_unstable();
    mapped.hash(h);
}

/// Per-class signature hashes: name, ancestry, canonicalized field types
/// and invariant. Folded into every type hash, so any change to a class a
/// method mentions re-keys that method.
fn class_signatures(program: &RProgram) -> Vec<u64> {
    let table = &program.kernel.table;
    program
        .classes
        .iter()
        .map(|rc| {
            let mut h = DefaultHasher::new();
            table.name(rc.id).as_str().hash(&mut h);
            let mut cur = table.class(rc.id).superclass;
            while let Some(s) = cur {
                table.name(s).as_str().hash(&mut h);
                cur = table.class(s).superclass;
            }
            rc.params.len().hash(&mut h);
            rc.rec_region.is_some().hash(&mut h);
            let mut canon = Canon::default();
            for &p in &rc.params {
                canon.id(p);
            }
            for t in &rc.field_types {
                hash_rtype_shallow(&mut h, &mut canon, table, t);
            }
            hash_atoms(&mut h, &mut canon, rc.invariant.iter());
            h.finish()
        })
        .collect()
}

/// Type hash without per-class signature folding (used inside the class
/// signatures themselves, where classes may be mutually recursive).
fn hash_rtype_shallow(
    h: &mut DefaultHasher,
    canon: &mut Canon,
    table: &cj_frontend::classtable::ClassTable,
    t: &RType,
) {
    match t {
        RType::Void => 0u8.hash(h),
        RType::Prim(p) => {
            1u8.hash(h);
            std::mem::discriminant(p).hash(h);
        }
        RType::Class {
            class,
            regions,
            pads,
        } => {
            2u8.hash(h);
            table.name(*class).as_str().hash(h);
            for &r in regions.iter().chain(pads.iter()) {
                canon.id(r).hash(h);
            }
            (regions.len(), pads.len()).hash(h);
        }
        RType::Array { elem, region } => {
            3u8.hash(h);
            std::mem::discriminant(elem).hash(h);
            canon.id(*region).hash(h);
        }
    }
}

/// Per-method *signature* hashes — what callers import: display name,
/// owner-class signature, canonicalized parameter/return types and closed
/// precondition.
fn method_signatures(
    program: &RProgram,
    methods: &[(MethodId, &RMethod)],
    class_sig: &[u64],
) -> Vec<u64> {
    methods
        .iter()
        .map(|(id, m)| {
            let mut h = DefaultHasher::new();
            program.kernel.method_name(*id).hash(&mut h);
            if let MethodId::Instance(c, _) = id {
                class_sig[c.index()].hash(&mut h);
            }
            m.abs_params.len().hash(&mut h);
            let mut canon = Canon::default();
            for &p in &m.abs_params {
                canon.id(p);
            }
            let table = &program.kernel.table;
            let kernel = program.kernel.method(*id);
            for &p in &kernel.params {
                hash_rtype_shallow(&mut h, &mut canon, table, &m.var_types[p.index()]);
            }
            hash_rtype_shallow(&mut h, &mut canon, table, &m.ret_type);
            hash_atoms(&mut h, &mut canon, m.precondition.iter());
            h.finish()
        })
        .collect()
}

/// Discriminant tag of a node kind. Together with each kind's fixed child
/// arity (plus the `Let` initializer bit and the `Block` item count, hashed
/// separately), the pre-order tag sequence pins the body's tree shape — and
/// with it the site ordinals memoized verdicts refer to.
fn kind_tag(k: &RExprKind) -> u8 {
    match k {
        RExprKind::Unit => 0,
        RExprKind::Int(_) => 1,
        RExprKind::Bool(_) => 2,
        RExprKind::Float(_) => 3,
        RExprKind::Null => 4,
        RExprKind::Var(_) => 5,
        RExprKind::Field(_, _) => 6,
        RExprKind::AssignVar(_, _) => 7,
        RExprKind::AssignField(_, _, _) => 8,
        RExprKind::New { .. } => 9,
        RExprKind::NewArray { .. } => 10,
        RExprKind::Index(_, _) => 11,
        RExprKind::AssignIndex(_, _, _) => 12,
        RExprKind::ArrayLen(_) => 13,
        RExprKind::CallVirtual { .. } => 14,
        RExprKind::CallStatic { .. } => 15,
        RExprKind::Block(_) => 16,
        RExprKind::Let { .. } => 17,
        RExprKind::Letreg(_, _) => 18,
        RExprKind::If { .. } => 19,
        RExprKind::While { .. } => 20,
        RExprKind::Cast { .. } => 21,
        RExprKind::Unary(_, _) => 22,
        RExprKind::Binary(_, _, _) => 23,
        RExprKind::Print(_) => 24,
    }
}

/// The verdict key of one method: everything `evaluate` can read, spans
/// excluded, region ids α-renamed.
fn method_key(
    cx: &ProgramCx<'_>,
    set_fp: u64,
    mi: usize,
    id: MethodId,
    m: &RMethod,
    nodes: &[&RExpr],
) -> u64 {
    let table = cx.table();
    let mut h = DefaultHasher::new();
    set_fp.hash(&mut h);
    cx.program.kernel.method_name(id).hash(&mut h);
    id.is_static().hash(&mut h);
    if let MethodId::Instance(c, _) = id {
        cx.class_sig[c.index()].hash(&mut h);
        hash_rule_relations(&mut h, cx, c);
    }
    cx.escapes[mi].hash(&mut h);

    let mut canon = Canon::default();
    for &p in &m.abs_params {
        canon.id(p);
    }
    let hash_type = |h: &mut DefaultHasher, canon: &mut Canon, t: &RType| {
        hash_rtype_shallow(h, canon, table, t);
        if let RType::Class { class, .. } = t {
            cx.class_sig[class.index()].hash(h);
            hash_rule_relations(h, cx, *class);
        }
    };
    m.var_types.len().hash(&mut h);
    for t in &m.var_types {
        hash_type(&mut h, &mut canon, t);
    }
    hash_type(&mut h, &mut canon, &m.ret_type);
    hash_atoms(&mut h, &mut canon, m.precondition.iter());

    nodes.len().hash(&mut h);
    for node in nodes {
        kind_tag(&node.kind).hash(&mut h);
        hash_type(&mut h, &mut canon, &node.rtype);
        match &node.kind {
            RExprKind::New { class, regions, .. } => {
                cx.class_sig[class.index()].hash(&mut h);
                hash_rule_relations(&mut h, cx, *class);
                for &r in regions {
                    canon.id(r).hash(&mut h);
                }
            }
            RExprKind::NewArray { region, .. } => {
                canon.id(*region).hash(&mut h);
            }
            RExprKind::CallVirtual {
                method,
                inst,
                args,
                recv,
            } => {
                hash_call(&mut h, cx, &mut canon, *method, inst);
                recv.0.hash(&mut h);
                for a in args {
                    a.0.hash(&mut h);
                }
            }
            RExprKind::CallStatic { method, inst, args } => {
                hash_call(&mut h, cx, &mut canon, *method, inst);
                for a in args {
                    a.0.hash(&mut h);
                }
            }
            RExprKind::Letreg(r, _) => {
                canon.id(*r).hash(&mut h);
            }
            RExprKind::Block(items) => items.len().hash(&mut h),
            RExprKind::Let { init, var } => {
                init.is_some().hash(&mut h);
                var.0.hash(&mut h);
            }
            RExprKind::Cast { class, regions, .. } => {
                cx.class_sig[class.index()].hash(&mut h);
                for &r in regions {
                    canon.id(r).hash(&mut h);
                }
            }
            _ => {}
        }
    }
    h.finish()
}

/// Folds one call site's closed import into the key: the callee's
/// signature hash, its class's relations to the rule classes (sink
/// matching), and the canonicalized instantiation (escape propagation).
fn hash_call(
    h: &mut DefaultHasher,
    cx: &ProgramCx<'_>,
    canon: &mut Canon,
    callee: MethodId,
    inst: &[RegVar],
) {
    if let Some(pos) = cx.methods.iter().position(|(id, _)| *id == callee) {
        cx.method_sig[pos].hash(h);
        // A caller's verdict also depends on the callee's escape row (the
        // site feeds the fixpoint) — cheap to include, avoids stale keys
        // when only a sibling caller changed the row.
        cx.escapes[pos].hash(h);
    }
    if let MethodId::Instance(c, _) = callee {
        hash_rule_relations(h, cx, c);
    }
    inst.len().hash(h);
    for &r in inst {
        canon.id(r).hash(h);
    }
}

/// Hashes `class`'s subtyping relations against every class the rules
/// name: the rule predicates (`is_subclass` filters, sink matching) read
/// exactly these bits, so hierarchy edits re-key affected methods.
fn hash_rule_relations(h: &mut DefaultHasher, cx: &ProgramCx<'_>, class: ClassId) {
    let table = cx.table();
    for &rc in &cx.rule_classes {
        (table.is_subclass(class, rc), table.is_subclass(rc, class)).hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cj_infer::{infer_source, InferOptions};

    /// `Block[Block[a], b]` and `Block[Block[a, b]]` have the same
    /// pre-order tags and node count; only the item counts tell them
    /// apart.
    #[test]
    fn method_key_hashes_block_item_counts() {
        let src = "class M { static int f() { 1 } }";
        let (mut program, _) = infer_source(src, InferOptions::default()).unwrap();
        let set = PolicySet::parse("p", "no-escape M\n").unwrap();
        let resolved: Vec<Resolved> = set
            .rules
            .iter()
            .enumerate()
            .map(|(i, rule)| resolve_rule(&program, i, rule).ok().unwrap())
            .collect();
        let leaf = program.statics[0].body.clone();
        let block = |items| RExpr {
            kind: RExprKind::Block(items),
            ..leaf.clone()
        };
        let shapes = [
            block(vec![block(vec![leaf.clone()]), leaf.clone()]),
            block(vec![block(vec![leaf.clone(), leaf.clone()])]),
        ];
        let keys: Vec<u64> = shapes
            .into_iter()
            .map(|body| {
                program.statics[0].body = body;
                let cx = ProgramCx::build(&program, &resolved);
                let (mi, (id, m)) = cx
                    .methods
                    .iter()
                    .enumerate()
                    .find(|(_, (id, _))| id.is_static())
                    .unwrap();
                let nodes = preorder(&m.body);
                method_key(&cx, set.fingerprint, mi, *id, m, &nodes)
            })
            .collect();
        assert_ne!(keys[0], keys[1]);
    }
}
