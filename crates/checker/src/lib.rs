//! # cj-check — the region type checker
//!
//! The separate checking system of Sec 4.5 (and the companion report): a
//! region-annotated program is *well-region-typed* when
//!
//! - every class invariant entails the **no-dangling** requirement (each
//!   component region outlives the object's region) and the instantiated
//!   invariants of its field types;
//! - every subclass invariant entails its superclass's (class subsumption);
//! - every method body's operations are justified by the assumption
//!   `inv.cn ∧ pre.m ∧ signature invariants`, extended at each
//!   `letreg r` with the stack-discipline axiom that every region already
//!   in scope outlives `r`;
//! - every region mentioned in a body is in scope (a signature region, the
//!   heap, or a `letreg`-bound region) — this is what rules out dangling
//!   *stack* references. The one exception is a block whose value is
//!   discarded: its type is its last item's, which is checked inside the
//!   ranges the block opens;
//! - no `letreg` region escapes through a value that is used: a discarded
//!   value (a loop body's, a block item's other than the last, and a
//!   block's when the block's is) may mention regions already popped;
//! - every override satisfies `inv.B ∧ pre.A.mn ⊨ pre.B.mn` (Sec 3.4).
//!
//! Method bodies are checked by one walk of the kernel body, reading the
//! annotations from the [`RMethod`]'s tables and opening each `letreg`
//! where its [`Placement`](cj_infer::rast::Placement) says.
//!
//! Theorem 1 states that inference always produces programs that pass this
//! checker; the integration suite verifies that on every benchmark.
//!
//! # Examples
//!
//! ```
//! use cj_infer::{infer_source, InferOptions};
//! use cj_check::check;
//!
//! let (program, _) = infer_source(
//!     "class Cell { Object item; Object get() { this.item } }",
//!     InferOptions::default(),
//! ).unwrap();
//! check(&program).unwrap();
//! ```
#![forbid(unsafe_code)]

use cj_frontend::kernel::{FieldRef, KExpr, KExprKind};
use cj_frontend::types::{ClassId, MethodId, VarId};
use cj_infer::rast::{RMethod, RProgram, RType};
use cj_infer::SubtypeMode;
use cj_regions::constraint::{Atom, ConstraintSet};
use cj_regions::solve::Solver;
use cj_regions::subst::RegSubst;
use cj_regions::var::RegVar;
use std::collections::BTreeSet;
use std::fmt;

/// A violation found by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Where the violation was found (class, method or expression).
    pub context: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.message)
    }
}

impl std::error::Error for CheckError {}

impl cj_diag::IntoDiagnostic for CheckError {
    fn into_diagnostic(self) -> cj_diag::Diagnostic {
        // Checker violations are program-scoped (class/method granularity),
        // so they carry a context string rather than a span.
        cj_diag::Diagnostic::error(self.message, cj_diag::Span::DUMMY)
            .with_code(cj_diag::codes::REGION_CHECK)
            .with_note(format!("in {}", self.context))
            .with_note(
                "inferred programs always pass the region checker (Theorem 1); \
                 a violation here indicates an inference bug",
            )
    }
}

/// All violations found in a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckErrors {
    /// The violations, in discovery order.
    pub items: Vec<CheckError>,
}

impl fmt::Display for CheckErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.items {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CheckErrors {}

impl cj_diag::IntoDiagnostics for CheckErrors {
    fn into_diagnostics(self) -> cj_diag::Diagnostics {
        self.items
            .into_iter()
            .map(cj_diag::IntoDiagnostic::into_diagnostic)
            .collect()
    }
}

/// Checks that `p` is well-region-typed.
///
/// # Errors
///
/// Returns every violation found; an empty result means the program is
/// region-safe (never creates a dangling reference, Theorem 1).
pub fn check(p: &RProgram) -> Result<(), CheckErrors> {
    let mut errors = Vec::new();
    // One solver for the whole run, reset for each entailment question.
    let mut solver = Solver::new();
    check_classes(p, &mut solver, &mut errors);
    check_overrides(p, &mut solver, &mut errors);
    for (id, _) in p.all_rmethods() {
        MethodChecker {
            p,
            id,
            rm: p.rmethod(id),
            errors: &mut errors,
        }
        .run(&mut solver);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(CheckErrors { items: errors })
    }
}

// ---- classes --------------------------------------------------------------

fn check_classes(p: &RProgram, inv: &mut Solver, errors: &mut Vec<CheckError>) {
    for info in p.kernel.table.classes() {
        let rc = p.rclass(info.id);
        let cname = info.name.to_string();
        if rc.params.is_empty() {
            errors.push(CheckError {
                context: format!("class {cname}"),
                message: "class must have at least the object region".into(),
            });
            continue;
        }
        inv.reset();
        inv.add_set(&rc.invariant);
        // No-dangling: every component region outlives the first.
        for &r in &rc.params[1..] {
            if !inv.entails_atom(Atom::outlives(r, rc.params[0])) {
                errors.push(CheckError {
                    context: format!("class {cname}"),
                    message: format!(
                        "invariant does not entail no-dangling: {r} >= {}",
                        rc.params[0]
                    ),
                });
            }
        }
        // Field type invariants.
        for (i, ft) in rc.field_types.iter().enumerate() {
            if let RType::Class { class, regions, .. } = ft {
                let fc = p.rclass(*class);
                if regions.len() != fc.params.len() {
                    errors.push(CheckError {
                        context: format!("class {cname}"),
                        message: format!("field {i} has wrong region arity"),
                    });
                    continue;
                }
                let s = RegSubst::instantiation(&fc.params, regions);
                if !inv.entails(&fc.invariant.subst(&s)) {
                    errors.push(CheckError {
                        context: format!("class {cname}"),
                        message: format!("invariant does not entail field {i}'s class invariant"),
                    });
                }
            }
        }
        // Superclass invariant (class subsumption).
        if let Some(sup) = info.superclass {
            let sc = p.rclass(sup);
            if rc.params.len() < sc.params.len() || rc.params[..sc.params.len()] != sc.params[..] {
                errors.push(CheckError {
                    context: format!("class {cname}"),
                    message: "superclass regions must be a prefix".into(),
                });
            } else if !inv.entails(&sc.invariant) {
                errors.push(CheckError {
                    context: format!("class {cname}"),
                    message: "invariant does not entail the superclass invariant".into(),
                });
            }
        }
    }
}

// ---- overrides -------------------------------------------------------------

fn check_overrides(p: &RProgram, lhs: &mut Solver, errors: &mut Vec<CheckError>) {
    for (a_id, b_id) in cj_infer::override_res::override_pairs(&p.kernel) {
        let (MethodId::Instance(_, _), MethodId::Instance(b_class, _)) = (a_id, b_id) else {
            continue;
        };
        let a = p.rmethod(a_id);
        let b = p.rmethod(b_id);
        let n = a.mparams.len().min(b.mparams.len());
        let align = RegSubst::instantiation(&b.mparams[..n], &a.mparams[..n]);
        lhs.reset();
        lhs.add_set(&p.rclass(b_class).invariant);
        lhs.add_set(&a.precondition);
        let rhs = b.precondition.subst(&align);
        for atom in rhs.iter() {
            if atom.vars().iter().any(|v| b.mparams[n..].contains(v)) {
                continue; // unalignable padded region
            }
            if !lhs.entails_atom(atom) {
                errors.push(CheckError {
                    context: format!(
                        "override {} / {}",
                        p.kernel.method_name(a_id),
                        p.kernel.method_name(b_id)
                    ),
                    message: format!("inv.B ∧ pre.A.mn does not entail {atom}"),
                });
            }
        }
    }
}

// ---- method bodies -----------------------------------------------------------

struct MethodChecker<'a> {
    p: &'a RProgram,
    id: MethodId,
    rm: &'a RMethod,
    errors: &'a mut Vec<CheckError>,
}

impl<'a> MethodChecker<'a> {
    fn run(mut self, assume: &mut Solver) {
        let p = self.p;
        let rm = p.rmethod(self.id);
        assume.reset();
        // pre.m
        assume.add_set(&rm.precondition);
        // inv of the receiver class, and consistency of the annotated
        // `this` type with the declared class signature: any collapsed
        // regions must be justified by the precondition (e.g. `swap`'s
        // r2 = r3).
        if let MethodId::Instance(c, _) = self.id {
            assume.add_set(&self.p.rclass(c).invariant);
            let declared = &self.p.rclass(c).params;
            if let RType::Class { regions, .. } = &rm.var_types[0] {
                for (&d, &a) in declared.iter().zip(regions.iter()) {
                    if !assume.entails_atom(Atom::eq(d, a)) {
                        self.err(format!(
                            "this-type region {a} diverges from declared {d} \
                             without precondition support (atom {} not entailed)",
                            Atom::eq(d, a)
                        ));
                    }
                }
            }
        }
        // invariants of signature types (recoverable from the signature).
        let km = self.p.kernel.method(self.id);
        for &pv in &km.params {
            self.assume_type_invariant(assume, &rm.var_types[pv.index()]);
        }
        self.assume_type_invariant(assume, &rm.ret_type);

        let mut scope: BTreeSet<RegVar> = rm.abs_params.iter().copied().collect();
        scope.insert(RegVar::HEAP);

        let result = self.expr(assume, &mut scope, &km.body, true);
        if let Some(rt) = result {
            if !matches!(rm.ret_type, RType::Void) {
                self.require_subtype(assume, rt, &rm.ret_type, "method result");
            }
        }
    }

    fn assume_type_invariant(&self, assume: &mut Solver, t: &RType) {
        if let RType::Class { class, regions, .. } = t {
            assume.add_set(&self.p.rclass(*class).invariant_at(regions));
        }
    }

    fn err(&mut self, message: String) {
        self.errors.push(CheckError {
            context: format!("method {}", self.p.kernel.method_name(self.id)),
            message,
        });
    }

    fn var_type(&self, v: VarId) -> &'a RType {
        &self.rm.var_types[v.index()]
    }

    fn check_scope(
        &mut self,
        scope: &BTreeSet<RegVar>,
        regions: impl IntoIterator<Item = RegVar>,
        what: &str,
    ) {
        for r in regions {
            if !scope.contains(&r) {
                self.err(format!("region {r} used in {what} is not in scope"));
            }
        }
    }

    /// Opens `letreg r`: every region in scope outlives `r` (stack
    /// discipline).
    fn open(&mut self, assume: &mut Solver, scope: &mut BTreeSet<RegVar>, r: RegVar) {
        if scope.contains(&r) {
            self.err(format!("letreg rebinds in-scope region {r}"));
        }
        for &s in scope.iter() {
            assume.add_outlives(s, r);
        }
        scope.insert(r);
    }

    /// Closes `letreg r` around a value of type `t` (`None` after an
    /// error); the region must not escape through a used value.
    fn close(&mut self, scope: &mut BTreeSet<RegVar>, r: RegVar, t: Option<&RType>, used: bool) {
        scope.remove(&r);
        if used && t.is_some_and(|t| t.mentions(r)) {
            self.err(format!("letreg region {r} escapes through the value"));
        }
    }

    /// Required constraints for `sub ≤ sup` under the checker's (sound,
    /// most-permissive) variance: first region covariant, recursive region
    /// covariant when the class is rec-read-only, all else equivariant.
    fn require_subtype(&mut self, assume: &mut Solver, sub: &RType, sup: &RType, what: &str) {
        let mut need = ConstraintSet::new();
        match (sub, sup) {
            (RType::Void, RType::Void) => {}
            (RType::Prim(a), RType::Prim(b)) if a == b => {}
            (
                RType::Array {
                    elem: a,
                    region: ra,
                },
                RType::Array {
                    elem: b,
                    region: rb,
                },
            ) if a == b => {
                need.add_outlives(*ra, *rb);
            }
            (
                RType::Class {
                    class: ca,
                    regions: ra,
                    pads: pa,
                },
                RType::Class {
                    class: cb,
                    regions: rb,
                    pads: pb,
                },
            ) if self.p.kernel.table.is_subclass(*ca, *cb) => {
                let m = rb.len();
                if ra.len() < m {
                    self.err(format!("{what}: region arity mismatch"));
                    return;
                }
                let rec_pos = self.p.rclass(*cb).rec_region.and_then(|rr| {
                    if self.p.kernel.rec_read_only[cb.index()] {
                        self.p.rclass(*cb).params.iter().position(|&q| q == rr)
                    } else {
                        None
                    }
                });
                for i in 0..m {
                    if i == 0 || Some(i) == rec_pos {
                        need.add_outlives(ra[i], rb[i]);
                    } else {
                        need.add_eq(ra[i], rb[i]);
                    }
                }
                // Pads: equivariant where both sides have them.
                let extras: Vec<RegVar> = ra[m..].iter().chain(pa.iter()).copied().collect();
                for (&x, &q) in extras.iter().zip(pb.iter()) {
                    need.add_eq(x, q);
                }
            }
            (a, b) => {
                self.err(format!("{what}: incompatible types {a} and {b}"));
                return;
            }
        }
        for atom in need.iter() {
            if !assume.entails_atom(atom) {
                self.err(format!("{what}: constraint {atom} not entailed"));
            }
        }
    }

    fn field_type(&self, class: ClassId, fref: FieldRef, recv_regions: &[RegVar]) -> RType {
        let rc = self.p.rclass(class);
        let s = RegSubst::instantiation(&rc.params, recv_regions);
        rc.field_types[fref.index as usize].subst(&s)
    }

    /// Checks one block item. A `let` is handled here rather than in
    /// [`Self::node`], so temporaries nested in initializers cost one
    /// `expr` frame per level.
    fn item(
        &mut self,
        assume: &mut Solver,
        scope: &mut BTreeSet<RegVar>,
        e: &KExpr,
        used: bool,
    ) -> Option<&'a RType> {
        let KExprKind::Let { var, init } = &e.kind else {
            return self.expr(assume, scope, e, used);
        };
        let vt = self.var_type(*var);
        self.check_scope(scope, vt.regions(), "declaration");
        if let Some(init) = init {
            let it = self.expr(assume, scope, init, true)?;
            if !matches!(vt, RType::Void | RType::Prim(_)) {
                self.require_subtype(assume, it, vt, "initializer");
            }
        }
        Some(self.rm.ty(e))
    }

    /// Checks an expression with the `letreg`s placed around it and returns
    /// its annotated type (`None` on an unrecoverable local error). `used`
    /// says whether its context uses its value.
    fn expr(
        &mut self,
        assume: &mut Solver,
        scope: &mut BTreeSet<RegVar>,
        e: &KExpr,
        used: bool,
    ) -> Option<&'a RType> {
        let opened = self.rm.letregs_at(e.id);
        for l in opened {
            self.open(assume, scope, l.region);
        }
        let t = self.node(assume, scope, e, used);
        for l in opened.iter().rev() {
            self.close(scope, l.region, t, used);
        }
        t
    }

    fn node(
        &mut self,
        assume: &mut Solver,
        scope: &mut BTreeSet<RegVar>,
        e: &KExpr,
        used: bool,
    ) -> Option<&'a RType> {
        let rm = self.rm;
        let rtype = rm.ty(e);
        // A block's type is its last item's, which is checked inside the
        // ranges the block opens; a discarded block may outlive them.
        if used || !matches!(e.kind, KExprKind::Block(_)) {
            self.check_scope(scope, rtype.regions(), "expression type");
        }
        match &e.kind {
            KExprKind::Unit
            | KExprKind::Int(_)
            | KExprKind::Bool(_)
            | KExprKind::Float(_)
            | KExprKind::Null
            | KExprKind::Var(_) => {}
            KExprKind::Field(v, fref) => {
                let (class, regions) = match self.var_type(*v) {
                    RType::Class { class, regions, .. } => (class, regions),
                    other => {
                        self.err(format!("field read on non-object {other}"));
                        return None;
                    }
                };
                let ft = self.field_type(*class, *fref, regions);
                // The annotated node type must match the declared field type.
                if ft != *rtype {
                    self.err(format!("field read annotated {rtype} but declared {ft}"));
                }
            }
            KExprKind::AssignVar(v, rhs) => {
                let rt = self.expr(assume, scope, rhs, true)?;
                let vt = self.var_type(*v);
                if !matches!(vt, RType::Void | RType::Prim(_)) {
                    self.require_subtype(assume, rt, vt, "assignment");
                }
            }
            KExprKind::AssignField(v, fref, rhs) => {
                let rt = self.expr(assume, scope, rhs, true)?;
                let (class, regions) = match self.var_type(*v) {
                    RType::Class { class, regions, .. } => (class, regions),
                    other => {
                        self.err(format!("field write on non-object {other}"));
                        return None;
                    }
                };
                let ft = self.field_type(*class, *fref, regions);
                if !matches!(ft, RType::Void | RType::Prim(_)) {
                    self.require_subtype(assume, rt, &ft, "field write");
                }
            }
            KExprKind::New(class, args) => {
                let regions = rm.inst(e.id);
                self.check_scope(scope, regions.iter().copied(), "new");
                let rc = self.p.rclass(*class);
                if regions.len() != rc.params.len() {
                    self.err("new with wrong region arity".into());
                    return None;
                }
                let s = RegSubst::instantiation(&rc.params, regions);
                // Instantiated class invariant must hold here.
                for atom in rc.invariant.subst(&s).iter() {
                    if !assume.entails_atom(atom) {
                        self.err(format!("new: invariant atom {atom} not entailed"));
                    }
                }
                for (i, &a) in args.iter().enumerate() {
                    let ft = rc.field_types[i].subst(&s);
                    if !matches!(ft, RType::Void | RType::Prim(_)) {
                        self.require_subtype(assume, self.var_type(a), &ft, "constructor arg");
                    }
                }
            }
            KExprKind::NewArray(_, len) => {
                self.check_scope(scope, rm.inst(e.id).iter().copied(), "new array");
                self.expr(assume, scope, len, true)?;
            }
            KExprKind::Index(_, idx) => {
                self.expr(assume, scope, idx, true)?;
            }
            KExprKind::AssignIndex(_, idx, val) => {
                self.expr(assume, scope, idx, true)?;
                self.expr(assume, scope, val, true)?;
            }
            KExprKind::ArrayLen(_) => {}
            KExprKind::CallVirtual(recv, method, args) => {
                let inst = rm.inst(e.id);
                self.check_scope(scope, inst.iter().copied(), "call instantiation");
                let callee = self.p.rmethod(*method);
                if inst.len() != callee.abs_params.len() {
                    self.err("call with wrong region arity".into());
                    return None;
                }
                let s = RegSubst::instantiation(&callee.abs_params, inst);
                // Receiver type must match the instantiated this-type (up to
                // subtyping on its class prefix).
                let decl_class = match method {
                    MethodId::Instance(c, _) => *c,
                    MethodId::Static(_) => unreachable!(),
                };
                let decl_params = &self.p.rclass(decl_class).params;
                let this_t = RType::class(decl_class, s.apply_all(decl_params));
                self.require_subtype(assume, self.var_type(*recv), &this_t, "receiver");
                self.check_call_common(assume, callee, &s, args);
            }
            KExprKind::CallStatic(method, args) => {
                let inst = rm.inst(e.id);
                self.check_scope(scope, inst.iter().copied(), "call instantiation");
                let callee = self.p.rmethod(*method);
                if inst.len() != callee.abs_params.len() {
                    self.err("call with wrong region arity".into());
                    return None;
                }
                let s = RegSubst::instantiation(&callee.abs_params, inst);
                self.check_call_common(assume, callee, &s, args);
            }
            KExprKind::Block(items) => {
                // A failed item ends the method's walk, so the ranges it
                // leaves open never matter.
                let ranges: Vec<(RegVar, u32, u32)> = rm.letregs_in(e.id).collect();
                for (i, item) in (0..).zip(items) {
                    for &(r, _, _) in ranges.iter().filter(|&&(_, lo, _)| lo == i) {
                        self.open(assume, scope, r);
                    }
                    let item_used = used && i as usize + 1 == items.len();
                    let t = self.item(assume, scope, item, item_used);
                    for &(r, _, _) in ranges.iter().rev().filter(|&&(_, _, hi)| hi == i) {
                        self.close(scope, r, t, item_used);
                    }
                    t?;
                }
            }
            KExprKind::Let { .. } => return self.item(assume, scope, e, used),
            KExprKind::If {
                cond,
                then_e,
                else_e,
            } => {
                self.expr(assume, scope, cond, true)?;
                let tt = self.expr(assume, scope, then_e, true)?;
                let et = self.expr(assume, scope, else_e, true)?;
                if !matches!(rtype, RType::Void | RType::Prim(_)) {
                    self.require_subtype(assume, tt, rtype, "then branch");
                    self.require_subtype(assume, et, rtype, "else branch");
                }
            }
            KExprKind::While { cond, body } => {
                self.expr(assume, scope, cond, true)?;
                self.expr(assume, scope, body, false)?;
            }
            KExprKind::Cast(class, var) => {
                let regions = rm.inst(e.id);
                self.check_scope(scope, regions.iter().copied(), "cast");
                let src = self.var_type(*var);
                let (src_class, src_regions) = match src {
                    RType::Class { class, regions, .. } => (*class, regions),
                    other => {
                        self.err(format!("cast of non-object {other}"));
                        return None;
                    }
                };
                if self.p.kernel.table.is_subclass(src_class, *class) {
                    // Upcast.
                    let target = RType::class(*class, regions.to_vec());
                    self.require_subtype(assume, src, &target, "upcast");
                } else {
                    // Downcast: shared prefix must agree; the target's
                    // invariant must hold for the recovered regions.
                    for (i, &r) in src_regions.iter().enumerate() {
                        if !assume.entails_atom(Atom::eq(r, regions[i])) {
                            self.err(format!("downcast: prefix region {i} must be preserved"));
                        }
                    }
                    let rc = self.p.rclass(*class);
                    let s = RegSubst::instantiation(&rc.params, regions);
                    for atom in rc.invariant.subst(&s).iter() {
                        if !assume.entails_atom(atom) {
                            self.err(format!("downcast: invariant atom {atom} not entailed"));
                        }
                    }
                }
            }
            KExprKind::Unary(_, a) | KExprKind::Print(a) => {
                self.expr(assume, scope, a, true)?;
            }
            KExprKind::Binary(_, a, b) => {
                self.expr(assume, scope, a, true)?;
                self.expr(assume, scope, b, true)?;
            }
        }
        Some(rtype)
    }

    fn check_call_common(
        &mut self,
        assume: &mut Solver,
        callee: &RMethod,
        s: &RegSubst,
        args: &[VarId],
    ) {
        // Instantiated precondition must be entailed at the call site.
        for atom in callee.precondition.subst(s).iter() {
            if !assume.entails_atom(atom) {
                self.err(format!("call: precondition atom {atom} not entailed"));
            }
        }
        let km = self.p.kernel.method(callee.id);
        for (&pv, &a) in km.params.iter().zip(args) {
            let expected = callee.var_types[pv.index()].subst(s);
            if !matches!(expected, RType::Void | RType::Prim(_)) {
                self.require_subtype(assume, self.var_type(a), &expected, "argument");
            }
        }
    }
}

/// The subtyping modes, re-exported for test matrices.
pub const ALL_MODES: [SubtypeMode; 3] =
    [SubtypeMode::None, SubtypeMode::Object, SubtypeMode::Field];

#[cfg(test)]
mod tests {
    use super::*;
    use cj_infer::{infer_source, DowncastPolicy, InferOptions};

    const PAIR: &str = "
        class Pair { Object fst; Object snd;
          Object getFst() { this.fst }
          void setSnd(Object o) { this.snd = o; }
          Pair cloneRev() {
            Pair tmp = new Pair(null, null);
            tmp.fst = this.snd; tmp.snd = this.fst; tmp
          }
          void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; }
        }
        class Main {
          static Pair build() {
            Pair p4 = new Pair(null, null);
            Pair p3 = new Pair(p4, null);
            Pair p2 = new Pair(null, p4);
            Pair p1 = new Pair(p2, null);
            p1.setSnd(p3);
            p2
          }
        }";

    #[test]
    fn inferred_pair_program_checks_in_all_modes() {
        for mode in ALL_MODES {
            let (p, _) = infer_source(
                PAIR,
                InferOptions {
                    mode,
                    downcast: DowncastPolicy::EquateFirst,
                    ..Default::default()
                },
            )
            .unwrap();
            check(&p).unwrap_or_else(|e| panic!("mode {mode}: {e}"));
        }
    }

    #[test]
    fn recursive_join_checks() {
        let src = "
        class List { Object value; List next;
          Object getValue() { this.value }
          List getNext() { this.next }
          static bool isNull(List l) { l == null }
          static List join(List xs, List ys) {
            if (isNull(xs)) {
              if (isNull(ys)) { (List) null } else { join(ys, xs) }
            } else {
              Object x; List res;
              x = xs.getValue();
              xs = xs.getNext();
              res = join(ys, xs);
              new List(x, res)
            }
          }
        }";
        for mode in ALL_MODES {
            let (p, _) = infer_source(src, InferOptions::with_mode(mode)).unwrap();
            check(&p).unwrap_or_else(|e| panic!("mode {mode}: {e}"));
        }
    }

    #[test]
    fn override_program_checks() {
        let src = "
        class Pair { Object fst; Object snd;
          Pair cloneRev() {
            Pair tmp = new Pair(null, null);
            tmp.fst = this.snd; tmp.snd = this.fst; tmp
          }
        }
        class Triple extends Pair { Object thd;
          Pair cloneRev() {
            Pair tmp = new Pair(null, null);
            tmp.fst = this.thd; tmp.snd = this.fst; tmp
          }
        }
        class Main {
          static Pair use(Triple t) { t.cloneRev() }
        }";
        for mode in ALL_MODES {
            let (p, _) = infer_source(src, InferOptions::with_mode(mode)).unwrap();
            check(&p).unwrap_or_else(|e| panic!("mode {mode}: {e}"));
        }
    }

    #[test]
    fn downcast_padding_checks() {
        let src = "
        class A { Object f1; }
        class B extends A { Object f2; }
        class C extends A { Object f3; }
        class D extends C { Object f4; }
        class M {
          static void main(bool c1) {
            A a;
            if (c1) { a = new B(null, null); } else { a = new D(null, null, null); }
            B b = (B) a;
            C c = (C) a;
            D d = (D) c;
          }
        }";
        for policy in [DowncastPolicy::EquateFirst, DowncastPolicy::Padding] {
            let (p, _) = infer_source(
                src,
                InferOptions {
                    mode: SubtypeMode::Object,
                    downcast: policy,
                    ..Default::default()
                },
            )
            .unwrap();
            check(&p).unwrap_or_else(|e| panic!("policy {policy}: {e}"));
        }
    }

    #[test]
    fn corrupted_precondition_fails() {
        let (mut p, _) = infer_source(PAIR, InferOptions::default()).unwrap();
        // Erase swap's precondition (it needs r2 = r3): the body must no
        // longer check.
        let pair = p.kernel.table.class_id("Pair").unwrap();
        let swap_slot = p
            .kernel
            .table
            .class(pair)
            .own_methods
            .iter()
            .position(|m| m.name.as_str() == "swap")
            .unwrap();
        p.methods[pair.index()][swap_slot].precondition = ConstraintSet::new();
        let err = check(&p).unwrap_err();
        assert!(err.to_string().contains("not entailed"), "{err}");
    }

    #[test]
    fn corrupted_invariant_fails_no_dangling() {
        let (mut p, _) = infer_source(PAIR, InferOptions::default()).unwrap();
        let pair = p.kernel.table.class_id("Pair").unwrap();
        p.classes[pair.index()].invariant = ConstraintSet::new();
        let err = check(&p).unwrap_err();
        assert!(err.to_string().contains("no-dangling"), "{err}");
    }

    #[test]
    fn out_of_scope_region_fails() {
        let (mut p, _) = infer_source(
            "class Cell { Object item; }
             class M { static int f() { Cell c = new Cell(null); 7 } }",
            InferOptions::default(),
        )
        .unwrap();
        // Strip the letreg so the localized region is out of scope.
        let m = &mut p.statics[0];
        fn strip(m: &mut RMethod) -> bool {
            let mut letregs = m.letregs().to_vec();
            !letregs.is_empty() && {
                letregs.remove(0);
                m.set_letregs(letregs);
                true
            }
        }
        assert!(strip(m), "expected a letreg to strip");
        let err = check(&p).unwrap_err();
        assert!(err.to_string().contains("not in scope"), "{err}");
    }

    #[test]
    fn letreg_region_must_not_escape_value() {
        // Hand-build a body where the letreg region escapes via the result.
        let (mut p, _) = infer_source(
            "class Cell { Object item; }
             class M { static Cell mk() { new Cell(null) } }",
            InferOptions::default(),
        )
        .unwrap();
        let m = &mut p.statics[0];
        let bad = cj_infer::Letreg {
            region: m.ret_type.object_region().unwrap(),
            at: cj_infer::Placement::Node(cj_frontend::kernel::ExprId(0)),
        };
        let letregs = [bad].iter().chain(m.letregs()).copied().collect();
        m.set_letregs(letregs);
        let err = check(&p).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("escapes") || msg.contains("rebinds"), "{msg}");
    }
}
