//! The policy checker: rule resolution, the interprocedural escape
//! fixpoint, and per-method evaluation.
//!
//! [`check`] consumes a fully inferred [`RProgram`] and a [`PolicySet`]
//! and produces located [`Violation`]s, evaluating every resolved rule
//! against every method.

use crate::{PolicySet, Rule, RuleKind};
use cj_diag::{codes, Span};
use cj_frontend::intern::Symbol;
use cj_frontend::kernel::{walk_expr, KExpr, KExprKind};
use cj_frontend::types::{ClassId, MethodId};
use cj_infer::rast::{RMethod, RProgram, RType};
use cj_regions::constraint::Atom;
use cj_regions::solve::Solver;
use cj_regions::var::RegVar;
use std::collections::{BTreeSet, HashMap};

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

/// The outcome of one [`check`] call.
#[derive(Debug, Clone, Default)]
pub struct PolicyReport {
    /// Every finding, in deterministic order: rule-resolution errors first
    /// (rule order), then per-method findings (program method order).
    pub violations: Vec<Violation>,
    /// Rule × method evaluations executed.
    pub rules_checked: u32,
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

/// Checks every rule of `set` against `program`.
pub fn check(program: &RProgram, set: &PolicySet) -> PolicyReport {
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

    let cx = ProgramCx::build(program);
    for (mi, (id, m)) in cx.methods.iter().enumerate() {
        evaluate(&cx, mi, *id, m, &resolved, &mut report.violations);
        report.rules_checked += resolved.len() as u32;
    }
    span.add("violations", report.violations.len() as u64);
    report
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

/// Per-program context shared by every method's evaluation: the method
/// list in canonical order, the letreg-local region sets and the escape
/// fixpoint.
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
}

impl<'p> ProgramCx<'p> {
    fn build(program: &'p RProgram) -> ProgramCx<'p> {
        let methods: Vec<(MethodId, &RMethod)> = program.all_rmethods().collect();
        let index: HashMap<MethodId, usize> = methods
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i))
            .collect();
        let locals: Vec<BTreeSet<RegVar>> = methods
            .iter()
            .map(|(_, m)| m.letregs().iter().map(|l| l.region).collect())
            .collect();

        // Call edges: each edge maps every callee abstraction parameter to
        // the caller-side region that instantiates it (`None` = unknown,
        // e.g. an override's extra class parameters).
        let mut in_edges: Vec<Vec<(usize, Vec<Option<RegVar>>)>> = vec![Vec::new(); methods.len()];
        for (ci, (id, m)) in methods.iter().enumerate() {
            walk_expr(&program.kernel.method(*id).body, &mut |e| {
                let target = match &e.kind {
                    KExprKind::CallVirtual(_, method, _) | KExprKind::CallStatic(method, _) => {
                        *method
                    }
                    _ => return,
                };
                let inst = m.inst(e.id);
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

        ProgramCx {
            program,
            methods,
            locals,
            escapes,
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

/// Evaluates every resolved rule against one method, appending its
/// findings to `found`.
fn evaluate(
    cx: &ProgramCx<'_>,
    mi: usize,
    id: MethodId,
    m: &RMethod,
    resolved: &[Resolved],
    found: &mut Vec<Violation>,
) {
    let table = cx.table();
    let mname = cx.program.kernel.method_name(id);
    let mut nodes: Vec<&KExpr> = Vec::new();
    walk_expr(&cx.program.kernel.method(id).body, &mut |e| nodes.push(e));
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
    for t in &m.types {
        record(t);
    }

    // The closed constraint environment, built on first use.
    let mut solver: Option<Solver> = None;
    let mut entails = |atom: Atom| -> bool {
        solver
            .get_or_insert_with(|| Solver::from_set(&cx.program.method_closure(id)))
            .entails_atom(atom)
    };

    for r in resolved {
        match r.target {
            Target::NoEscape { class } => {
                for node in &nodes {
                    let KExprKind::New(alloc, _) = &node.kind else {
                        continue;
                    };
                    let regions = m.inst(node.id);
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
                        found.push(Violation {
                            rule: r.idx,
                            code: codes::POLICY_NO_ESCAPE,
                            message,
                            span: node.span,
                            in_policy: false,
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
                for node in &nodes {
                    let KExprKind::New(alloc, _) = &node.kind else {
                        continue;
                    };
                    let regions = m.inst(node.id);
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
                        found.push(Violation {
                            rule: r.idx,
                            code: codes::POLICY_CONFINE,
                            message: format!(
                                "values of class `{cn}` may only be allocated into regions \
                                 owned by `{on}`, but this allocation's region is not one of them"
                            ),
                            span: node.span,
                            in_policy: false,
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
                for node in &nodes {
                    let (callee, args) = match &node.kind {
                        KExprKind::CallVirtual(_, method, args) => (*method, args),
                        KExprKind::CallStatic(method, args) => (*method, args),
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
                            found.push(Violation {
                                rule: r.idx,
                                code: codes::POLICY_SEPARATE,
                                message: format!(
                                    "values born in `{sn}`-hosting regions must not flow into \
                                     sink `{sink_name}`, but argument {} of this call lives in \
                                     a region reachable from one",
                                    ai + 1
                                ),
                                span: node.span,
                                in_policy: false,
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
