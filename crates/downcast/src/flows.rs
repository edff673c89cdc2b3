//! Backward flow inference (Sec 5).
//!
//! The analysis gathers *capture edges*: `x ← y` means the value held by
//! `y` may be captured by `x` (assignment, parameter passing, returns,
//! field reads/writes). A downcast `(D) v` seeds the target class `D` at
//! `v`; downcast sets then propagate *backwards* along capture edges until
//! they reach the variables and allocation sites whose objects may be
//! subject to the cast — exactly the transitive closure of Fig 7.

use cj_frontend::kernel::{KExpr, KExprKind, KMethod, KProgram};
use cj_frontend::span::Span;
use cj_frontend::types::{ClassId, MethodId, NType, VarId};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// A node of the flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Node {
    /// A method-local variable (including `this` and parameters).
    Var(MethodId, VarId),
    /// A field, identified by its declaring class and constructor index.
    Field(ClassId, u32),
    /// The result value of a method.
    Ret(MethodId),
    /// An object allocation site.
    Site(SiteId),
}

/// Identifies one `new cn(...)` expression; numbering is deterministic
/// (methods in program order, sites in pre-order within each body).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// Metadata about an allocation site.
#[derive(Debug, Clone)]
pub struct SiteInfo {
    /// The site id.
    pub id: SiteId,
    /// Method containing the allocation.
    pub method: MethodId,
    /// Class being allocated.
    pub class: ClassId,
    /// Source location of the `new`.
    pub span: Span,
}

/// Result of the whole-program backward flow analysis.
#[derive(Debug, Clone, Default)]
pub struct DowncastAnalysis {
    /// Downcast set per variable: classes the variable's value may be
    /// downcast to (directly or after flowing onward).
    pub var_sets: HashMap<(MethodId, VarId), BTreeSet<ClassId>>,
    /// Downcast set per allocation site.
    pub site_sets: HashMap<SiteId, BTreeSet<ClassId>>,
    /// Downcast set of each method's result.
    pub ret_sets: HashMap<MethodId, BTreeSet<ClassId>>,
    /// All allocation sites, indexed by `SiteId`.
    pub sites: Vec<SiteInfo>,
    /// Sites whose allocated class cannot satisfy *any* downcast in its
    /// set: every downcast reaching objects from this site must fail, so
    /// region padding need not be instantiated for it (Sec 5).
    pub doomed_sites: Vec<SiteId>,
    /// Total number of downcast expressions found.
    pub downcast_count: usize,
}

impl DowncastAnalysis {
    /// The downcast set of a variable (empty if none).
    pub fn var_set(&self, m: MethodId, v: VarId) -> BTreeSet<ClassId> {
        self.var_sets.get(&(m, v)).cloned().unwrap_or_default()
    }

    /// Whether any flow in the program reaches a downcast.
    pub fn any_downcasts(&self) -> bool {
        self.downcast_count > 0
    }
}

/// Runs the analysis over a kernel program.
pub fn analyze(kp: &KProgram) -> DowncastAnalysis {
    let mut b = Builder {
        kp,
        edges: HashMap::new(),
        seeds: BTreeMap::new(),
        sites: Vec::new(),
        downcast_count: 0,
    };
    for (id, m) in kp.all_methods() {
        b.method(id, m);
    }
    b.propagate()
}

struct Builder<'a> {
    kp: &'a KProgram,
    /// `edges[x]` = nodes that `x` captures from; sets flow from `x` into
    /// each of them.
    edges: HashMap<Node, Vec<Node>>,
    seeds: BTreeMap<Node, BTreeSet<ClassId>>,
    sites: Vec<SiteInfo>,
    downcast_count: usize,
}

impl<'a> Builder<'a> {
    fn edge(&mut self, receiver: Node, source: Node) {
        self.edges.entry(receiver).or_default().push(source);
    }

    fn method(&mut self, id: MethodId, m: &KMethod) {
        let ret_ref = m.ret.is_reference();
        let recv = if ret_ref { Some(Node::Ret(id)) } else { None };
        self.expr(id, m, &m.body, recv);
    }

    /// Possible dynamic-dispatch targets of a call through `decl` on a
    /// receiver statically typed `recv_class`.
    fn dispatch_targets(&self, recv_class: ClassId, decl: MethodId) -> Vec<MethodId> {
        let MethodId::Instance(_, _) = decl else {
            return vec![decl];
        };
        let name = match decl {
            MethodId::Instance(c, i) => self.kp.table.class(c).own_methods[i as usize].name,
            MethodId::Static(_) => unreachable!(),
        };
        let mut out = Vec::new();
        for info in self.kp.table.classes() {
            if !self.kp.table.is_subclass(info.id, recv_class) {
                continue;
            }
            if let Some((declaring, _)) = self.kp.table.lookup_method(info.id, name) {
                let slot = self
                    .kp
                    .table
                    .class(declaring)
                    .own_methods
                    .iter()
                    .position(|mm| mm.name == name)
                    .expect("method present") as u32;
                let target = MethodId::Instance(declaring, slot);
                if !out.contains(&target) {
                    out.push(target);
                }
            }
        }
        out
    }

    fn expr(&mut self, id: MethodId, m: &KMethod, e: &KExpr, recv: Option<Node>) {
        match &e.kind {
            KExprKind::Unit
            | KExprKind::Int(_)
            | KExprKind::Bool(_)
            | KExprKind::Float(_)
            | KExprKind::Null
            | KExprKind::ArrayLen(_) => {}
            KExprKind::Var(v) => {
                if let Some(r) = recv {
                    if m.var_ty(*v).is_reference() {
                        self.edge(r, Node::Var(id, *v));
                    }
                }
            }
            KExprKind::Field(v, f) => {
                let _ = v;
                if let Some(r) = recv {
                    if e.ty.is_reference() {
                        self.edge(r, Node::Field(f.owner, f.index));
                    }
                }
            }
            KExprKind::AssignVar(v, rhs) => {
                let target = if m.var_ty(*v).is_reference() {
                    Some(Node::Var(id, *v))
                } else {
                    None
                };
                self.expr(id, m, rhs, target);
            }
            KExprKind::AssignField(v, f, rhs) => {
                let _ = v;
                let target = if rhs.ty.is_reference() {
                    Some(Node::Field(f.owner, f.index))
                } else {
                    None
                };
                self.expr(id, m, rhs, target);
            }
            KExprKind::New(class, args) => {
                let site = SiteId(self.sites.len() as u32);
                self.sites.push(SiteInfo {
                    id: site,
                    method: id,
                    class: *class,
                    span: e.span,
                });
                if let Some(r) = recv {
                    self.edge(r, Node::Site(site));
                }
                // Field initializers flow into the fields.
                for (f, &a) in self.kp.table.all_fields(*class).iter().zip(args) {
                    if f.ty.is_reference() {
                        self.edge(Node::Field(f.owner, f.index as u32), Node::Var(id, a));
                    }
                }
            }
            KExprKind::NewArray(_, len) => self.expr(id, m, len, None),
            KExprKind::Index(_, idx) => self.expr(id, m, idx, None),
            KExprKind::AssignIndex(_, idx, val) => {
                self.expr(id, m, idx, None);
                self.expr(id, m, val, None);
            }
            KExprKind::CallVirtual(recv_v, decl, args) => {
                let recv_class = match m.var_ty(*recv_v) {
                    NType::Class(c) => c,
                    _ => return,
                };
                for target in self.dispatch_targets(recv_class, *decl) {
                    let tm = self.kp.method(target);
                    // this-parameter capture.
                    self.edge(Node::Var(target, VarId(0)), Node::Var(id, *recv_v));
                    for (&p, &a) in tm.params.iter().zip(args) {
                        if tm.var_ty(p).is_reference() {
                            self.edge(Node::Var(target, p), Node::Var(id, a));
                        }
                    }
                    if let Some(r) = recv {
                        if tm.ret.is_reference() {
                            self.edge(r, Node::Ret(target));
                        }
                    }
                }
            }
            KExprKind::CallStatic(target, args) => {
                let tm = self.kp.method(*target);
                for (&p, &a) in tm.params.iter().zip(args) {
                    if tm.var_ty(p).is_reference() {
                        self.edge(Node::Var(*target, p), Node::Var(id, a));
                    }
                }
                if let Some(r) = recv {
                    if tm.ret.is_reference() {
                        self.edge(r, Node::Ret(*target));
                    }
                }
            }
            KExprKind::Block(items) => {
                // Only the last item's value flows on.
                let n = items.len();
                for (i, item) in items.iter().enumerate() {
                    self.expr(id, m, item, if i + 1 == n { recv } else { None });
                }
            }
            KExprKind::Let { var, init } => {
                if let Some(init) = init {
                    let target = if m.var_ty(*var).is_reference() {
                        Some(Node::Var(id, *var))
                    } else {
                        None
                    };
                    self.expr(id, m, init, target);
                }
            }
            KExprKind::If {
                cond,
                then_e,
                else_e,
            } => {
                self.expr(id, m, cond, None);
                self.expr(id, m, then_e, recv);
                self.expr(id, m, else_e, recv);
            }
            KExprKind::While { cond, body } => {
                self.expr(id, m, cond, None);
                self.expr(id, m, body, None);
            }
            KExprKind::Cast(target, v) => {
                if let NType::Class(src) = m.var_ty(*v) {
                    if *target != src && self.kp.table.is_subclass(*target, src) {
                        // A genuine downcast: seed the operand.
                        self.downcast_count += 1;
                        self.seeds
                            .entry(Node::Var(id, *v))
                            .or_default()
                            .insert(*target);
                    }
                }
                if let Some(r) = recv {
                    self.edge(r, Node::Var(id, *v));
                }
            }
            KExprKind::Unary(_, a) | KExprKind::Print(a) => self.expr(id, m, a, None),
            KExprKind::Binary(_, a, b) => {
                self.expr(id, m, a, None);
                self.expr(id, m, b, None);
            }
        }
    }

    fn propagate(self) -> DowncastAnalysis {
        let Builder {
            kp,
            edges,
            seeds,
            sites,
            downcast_count,
        } = self;
        let mut sets: HashMap<Node, BTreeSet<ClassId>> = HashMap::new();
        let mut work: VecDeque<Node> = VecDeque::new();
        for (n, ds) in seeds {
            sets.entry(n).or_default().extend(ds.iter().copied());
            work.push_back(n);
        }
        while let Some(n) = work.pop_front() {
            let current = sets.get(&n).cloned().unwrap_or_default();
            if let Some(srcs) = edges.get(&n) {
                for &src in srcs {
                    let entry = sets.entry(src).or_default();
                    let before = entry.len();
                    entry.extend(current.iter().copied());
                    if entry.len() != before {
                        work.push_back(src);
                    }
                }
            }
        }

        let mut analysis = DowncastAnalysis {
            sites,
            downcast_count,
            ..DowncastAnalysis::default()
        };
        for (node, set) in sets {
            if set.is_empty() {
                continue;
            }
            match node {
                Node::Var(m, v) => {
                    analysis.var_sets.insert((m, v), set);
                }
                Node::Site(s) => {
                    analysis.site_sets.insert(s, set);
                }
                Node::Ret(m) => {
                    analysis.ret_sets.insert(m, set);
                }
                Node::Field(_, _) => {}
            }
        }
        for site in &analysis.sites {
            if let Some(set) = analysis.site_sets.get(&site.id) {
                let viable = set.iter().any(|&d| kp.table.is_subclass(site.class, d));
                if !viable {
                    analysis.doomed_sites.push(site.id);
                }
            }
        }
        analysis
    }
}
