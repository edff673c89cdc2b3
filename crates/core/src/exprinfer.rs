//! Expression-level region inference (the rules of Fig 3).
//!
//! [`infer_body`] walks one kernel method body and produces, as tables
//! indexed by the body's [`ExprId`](cj_frontend::kernel::ExprId)s:
//!
//! - an annotated type for every expression (a `null` gets fresh regions);
//! - the region instantiation of every `new`, `new p[]`, call and cast;
//!
//! and alongside them:
//!
//! - an annotated type for every variable slot (locals get fresh, distinct
//!   regions — the first annotation guideline of Sec 3);
//! - the gathered atomic constraints (from region subtyping at assignments,
//!   stores, argument passing and conditionals);
//! - symbolic applications ([`AbsCall`]) of `pre.m` at every call site and
//!   `inv.cn` at every allocation and declaration.
//!
//! The result is the *raw body* of the method's `pre.m` constraint
//! abstraction; the pipeline solves the resulting recursive system to a
//! fixed point (region-polymorphic recursion, Sec 4.2.3).

use crate::ctx::{Ctx, MethodSigR};
use crate::error::InferError;
use crate::options::DowncastPolicy;
use crate::rast::RType;
use crate::subtype::subtype;
use cj_frontend::kernel::{KExpr, KExprKind};
use cj_frontend::types::{ClassId, MethodId, NType, VarId};
use cj_regions::abstraction::AbsCall;
use cj_regions::constraint::ConstraintSet;
use cj_regions::subst::RegSubst;
use cj_regions::var::RegVar;

/// The symbolic result of inferring one method body.
#[derive(Debug, Clone)]
pub struct BodyResult {
    /// Annotated type per variable slot.
    pub var_types: Vec<RType>,
    /// Annotated type per body expression.
    pub types: Vec<RType>,
    /// Region instantiations, in expression order (see
    /// [`RMethod::inst`](crate::rast::RMethod::inst)).
    pub inst: Vec<RegVar>,
    /// Where each expression's instantiation starts in `inst`, plus one
    /// final entry.
    pub inst_at: Vec<u32>,
    /// Gathered atomic constraints.
    pub atoms: ConstraintSet,
    /// Applications of `pre.*` and `inv.*` abstractions.
    pub calls: Vec<AbsCall>,
    /// Region variables minted while inferring this body: the half-open id
    /// range `[lo, hi)`. Together with the signature regions this is the
    /// method's region universe.
    pub region_lo: u32,
    /// End of the minted range.
    pub region_hi: u32,
}

/// Infers the body of method `id`.
///
/// # Errors
///
/// Fails only on policy violations (downcast under
/// [`DowncastPolicy::Reject`]).
pub fn infer_body(ctx: &mut Ctx<'_>, id: MethodId) -> Result<BodyResult, InferError> {
    let region_lo = ctx.gen.count() + 1;
    let sig = ctx.msigs[&id].clone();
    let m = ctx.kp.method(id);

    let mut var_types: Vec<RType> = Vec::with_capacity(m.vars.len());
    if let Some(t) = &sig.this_type {
        var_types.push(t.clone());
    }
    for (i, &p) in m.params.iter().enumerate() {
        debug_assert_eq!(p.index(), var_types.len());
        var_types.push(sig.param_types[i].clone());
    }

    let n = m.expr_count as usize;
    let mut inf = BodyInfer {
        id,
        atoms: ConstraintSet::new(),
        calls: Vec::new(),
        types: vec![RType::Void; n],
        inst: Vec::new(),
        inst_at: Vec::with_capacity(n + 1),
    };

    // Locals and temporaries: fresh, distinct regions (plus pads under the
    // padding policy), and the class invariant of each declared type.
    for slot in var_types.len()..m.vars.len() {
        let ty = m.vars[slot].ty;
        let mut rt = fresh_local_rtype(ctx, &mut inf, ty);
        if let RType::Class { class, pads, .. } = &mut rt {
            let n = ctx.pad_count(id, VarId(slot as u32), *class);
            pads.extend(ctx.gen.fresh_n(n));
        }
        var_types.push(rt);
    }
    // Invariants of parameter and result types (the paper's implicit
    // signature constraints).
    for t in sig
        .param_types
        .iter()
        .chain(sig.this_type.iter())
        .chain(std::iter::once(&sig.ret_type))
    {
        inf.import_inv(ctx, t);
    }

    inf.expr(ctx, &var_types, &m.body)?;
    inf.inst_at.push(inf.inst.len() as u32);
    // The body's value flows to the caller at the result type.
    if !matches!(sig.ret_type, RType::Void) {
        subtype(
            ctx,
            &inf.types[m.body.id.index()],
            &sig.ret_type,
            &mut inf.atoms,
        );
    }

    let region_hi = ctx.gen.count() + 1;
    Ok(BodyResult {
        var_types,
        types: inf.types,
        inst: inf.inst,
        inst_at: inf.inst_at,
        atoms: inf.atoms,
        calls: inf.calls,
        region_lo,
        region_hi,
    })
}

fn fresh_local_rtype(ctx: &mut Ctx<'_>, inf: &mut BodyInfer, ty: NType) -> RType {
    let rt = ctx.fresh_rtype(ty);
    inf.import_inv(ctx, &rt);
    rt
}

/// The annotated type of a primitive-valued (or void) expression.
fn prim(ty: NType) -> RType {
    match ty {
        NType::Prim(p) => RType::Prim(p),
        _ => RType::Void,
    }
}

/// `subtype(t, expected)` unless `expected` carries no regions.
fn flow(ctx: &Ctx<'_>, atoms: &mut ConstraintSet, t: &RType, expected: &RType) {
    if !matches!(expected, RType::Void | RType::Prim(_)) {
        subtype(ctx, t, expected, atoms);
    }
}

struct BodyInfer {
    id: MethodId,
    atoms: ConstraintSet,
    calls: Vec<AbsCall>,
    types: Vec<RType>,
    inst: Vec<RegVar>,
    inst_at: Vec<u32>,
}

impl BodyInfer {
    /// Records `inv.cn⟨regions⟩` for a class type.
    fn import_inv(&mut self, ctx: &Ctx<'_>, t: &RType) {
        if let RType::Class { class, regions, .. } = t {
            self.calls.push(AbsCall {
                callee: ctx.inv(*class),
                args: regions.clone(),
            });
        }
    }

    /// The annotated type of field `index` of class `class`, instantiated
    /// at the receiver's region arguments.
    fn field_type(
        &self,
        ctx: &Ctx<'_>,
        class: ClassId,
        index: usize,
        recv_regions: &[RegVar],
    ) -> RType {
        let csig = &ctx.classes[class.index()];
        let s = RegSubst::instantiation(&csig.params, recv_regions);
        csig.field_types[index].subst(&s)
    }

    fn class_of(t: &RType) -> (ClassId, &[RegVar]) {
        match t {
            RType::Class { class, regions, .. } => (*class, regions),
            other => panic!("expected class type, found {other}"),
        }
    }

    /// Starts `e`'s entry in the instantiation pool. Expressions are
    /// visited in pre-order, the order of their ids.
    fn enter(&mut self, e: &KExpr) {
        debug_assert_eq!(self.inst_at.len(), e.id.index(), "pre-order ids");
        self.inst_at.push(self.inst.len() as u32);
    }

    /// Infers one block item. A `let` is handled here rather than in
    /// [`Self::expr`], so temporaries nested in initializers cost one
    /// `expr` frame per level.
    fn item(
        &mut self,
        ctx: &mut Ctx<'_>,
        var_types: &[RType],
        e: &KExpr,
    ) -> Result<(), InferError> {
        let KExprKind::Let { var, init } = &e.kind else {
            return self.expr(ctx, var_types, e);
        };
        self.enter(e);
        if let Some(init) = init {
            self.expr(ctx, var_types, init)?;
            let it = &self.types[init.id.index()];
            flow(ctx, &mut self.atoms, it, &var_types[var.index()]);
        }
        Ok(())
    }

    /// Infers `e`, recording its type and instantiation.
    fn expr(
        &mut self,
        ctx: &mut Ctx<'_>,
        var_types: &[RType],
        e: &KExpr,
    ) -> Result<(), InferError> {
        if matches!(e.kind, KExprKind::Let { .. }) {
            return self.item(ctx, var_types, e);
        }
        self.enter(e);
        let rtype = match &e.kind {
            KExprKind::Unit
            | KExprKind::Int(_)
            | KExprKind::Bool(_)
            | KExprKind::Float(_)
            | KExprKind::ArrayLen(_) => prim(e.ty),
            // (cn) null: fresh regions, no constraints (rule [null]).
            KExprKind::Null => ctx.fresh_rtype(e.ty),
            KExprKind::Var(v) => var_types[v.index()].clone(),
            KExprKind::Field(v, fref) => {
                let (class, regions) = Self::class_of(&var_types[v.index()]);
                self.field_type(ctx, class, fref.index as usize, regions)
            }
            KExprKind::AssignVar(v, rhs) => {
                self.expr(ctx, var_types, rhs)?;
                let rt = &self.types[rhs.id.index()];
                flow(ctx, &mut self.atoms, rt, &var_types[v.index()]);
                RType::Void
            }
            KExprKind::AssignField(v, fref, rhs) => {
                self.expr(ctx, var_types, rhs)?;
                let (class, regions) = Self::class_of(&var_types[v.index()]);
                let ft = self.field_type(ctx, class, fref.index as usize, regions);
                flow(ctx, &mut self.atoms, &self.types[rhs.id.index()], &ft);
                RType::Void
            }
            KExprKind::New(class, args) => {
                let regions = ctx.gen.fresh_n(ctx.arity(*class));
                self.calls.push(AbsCall {
                    callee: ctx.inv(*class),
                    args: regions.clone(),
                });
                for (i, &a) in args.iter().enumerate() {
                    let ft = self.field_type(ctx, *class, i, &regions);
                    flow(ctx, &mut self.atoms, &var_types[a.index()], &ft);
                }
                self.inst.extend(&regions);
                RType::class(*class, regions)
            }
            KExprKind::NewArray(p, len) => {
                // The array's region is minted after its length's, but
                // its pool entry precedes theirs.
                let slot = self.inst.len();
                self.inst.push(RegVar::HEAP);
                self.expr(ctx, var_types, len)?;
                let region = ctx.gen.fresh();
                self.inst[slot] = region;
                RType::Array { elem: *p, region }
            }
            KExprKind::Index(_, idx) => {
                self.expr(ctx, var_types, idx)?;
                prim(e.ty)
            }
            KExprKind::AssignIndex(_, idx, val) => {
                self.expr(ctx, var_types, idx)?;
                self.expr(ctx, var_types, val)?;
                RType::Void
            }
            KExprKind::CallVirtual(recv, decl, args) => {
                let (_, recv_regions) = Self::class_of(&var_types[recv.index()]);
                let decl_class = match decl {
                    MethodId::Instance(c, _) => *c,
                    MethodId::Static(_) => unreachable!("virtual call on static"),
                };
                let decl_arity = ctx.arity(decl_class);
                let callee = ctx.msigs[decl].clone();
                // Equivariant instantiation: class prefix from the
                // receiver, fresh regions for the method's own parameters.
                let fresh: Vec<RegVar> = ctx.gen.fresh_n(callee.mparams.len());
                let mut s = RegSubst::new();
                let class_part = &ctx.classes[decl_class.index()].params;
                for (i, &cp) in class_part.iter().enumerate() {
                    s.bind(cp, recv_regions[i]);
                }
                debug_assert_eq!(decl_arity, class_part.len());
                for (&mp, &f) in callee.mparams.iter().zip(&fresh) {
                    s.bind(mp, f);
                }
                self.call(ctx, var_types, &callee, &s, args)
            }
            KExprKind::CallStatic(decl, args) => {
                let callee = ctx.msigs[decl].clone();
                let fresh: Vec<RegVar> = ctx.gen.fresh_n(callee.mparams.len());
                let s = RegSubst::instantiation(&callee.mparams, &fresh);
                self.call(ctx, var_types, &callee, &s, args)
            }
            KExprKind::Block(items) => {
                for item in items {
                    self.item(ctx, var_types, item)?;
                }
                items
                    .last()
                    .map_or(RType::Void, |last| self.types[last.id.index()].clone())
            }
            KExprKind::Let { .. } => unreachable!("a let is an item"),
            KExprKind::If {
                cond,
                then_e,
                else_e,
            } => {
                self.expr(ctx, var_types, cond)?;
                self.expr(ctx, var_types, then_e)?;
                self.expr(ctx, var_types, else_e)?;
                // msst: fresh regions for the common supertype; both
                // branches flow into it by region subtyping.
                match e.ty {
                    NType::Class(_) | NType::Array(_) => {
                        let rt = ctx.fresh_rtype(e.ty);
                        self.import_inv(ctx, &rt);
                        subtype(ctx, &self.types[then_e.id.index()], &rt, &mut self.atoms);
                        subtype(ctx, &self.types[else_e.id.index()], &rt, &mut self.atoms);
                        rt
                    }
                    _ => prim(e.ty),
                }
            }
            KExprKind::While { cond, body } => {
                // Flow-insensitive: loop constraints are just the
                // conjunction of the condition's and body's. Annotations
                // are per variable, so one pass covers every iteration.
                self.expr(ctx, var_types, cond)?;
                self.expr(ctx, var_types, body)?;
                RType::Void
            }
            KExprKind::Cast(target, v) => self.cast(ctx, *target, *v, e.span, var_types)?,
            KExprKind::Unary(_, a) | KExprKind::Print(a) => {
                self.expr(ctx, var_types, a)?;
                prim(e.ty)
            }
            KExprKind::Binary(_, a, b) => {
                self.expr(ctx, var_types, a)?;
                self.expr(ctx, var_types, b)?;
                prim(e.ty)
            }
        };
        self.types[e.id.index()] = rtype;
        Ok(())
    }

    /// A call instantiated by `s`: the callee's parameters take the
    /// arguments, its instantiation goes to the pool, and its result type
    /// is returned.
    fn call(
        &mut self,
        ctx: &Ctx<'_>,
        var_types: &[RType],
        callee: &MethodSigR,
        s: &RegSubst,
        args: &[VarId],
    ) -> RType {
        let inst = s.apply_all(&callee.abs_params);
        for (pt, &a) in callee.param_types.iter().zip(args) {
            let expected = pt.subst(s);
            flow(ctx, &mut self.atoms, &var_types[a.index()], &expected);
        }
        self.inst.extend(&inst);
        self.calls.push(AbsCall {
            callee: callee.abs,
            args: inst,
        });
        callee.ret_type.subst(s)
    }

    /// `(cn) v` — upcasts apply region subtyping; downcasts recover the
    /// regions lost at upcasts according to the active policy (Sec 5).
    fn cast(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: ClassId,
        v: VarId,
        span: cj_frontend::Span,
        var_types: &[RType],
    ) -> Result<RType, InferError> {
        let src_t = &var_types[v.index()];
        let (src_class, src_regions) = Self::class_of(src_t);
        let src_pads: &[RegVar] = match src_t {
            RType::Class { pads, .. } => pads,
            _ => &[],
        };
        let target_arity = ctx.arity(target);
        if ctx.kp.table.is_subclass(src_class, target) {
            // Upcast: fresh target regions, related by region subtyping.
            let regions = ctx.gen.fresh_n(target_arity);
            self.inst.extend(&regions);
            let rt = RType::class(target, regions);
            subtype(ctx, src_t, &rt, &mut self.atoms);
            return Ok(rt);
        }
        // Downcast.
        debug_assert!(ctx.kp.table.is_subclass(target, src_class));
        let src_arity = src_regions.len();
        let mut regions: Vec<RegVar> = src_regions.to_vec();
        let mut result_pads: Vec<RegVar> = Vec::new();
        match ctx.opts.downcast {
            DowncastPolicy::Reject => {
                return Err(InferError::DowncastRejected {
                    method: ctx.kp.method_name(self.id),
                    span,
                });
            }
            DowncastPolicy::EquateFirst => {
                // Lost regions were equated with the first region at every
                // upcast; recover them the same way.
                regions.extend(std::iter::repeat_n(
                    src_regions[0],
                    target_arity - src_arity,
                ));
            }
            DowncastPolicy::Padding => {
                // Recover from the operand's pads; the leftover pads
                // remain available on the result for further downcasts.
                let needed = target_arity - src_arity;
                assert!(
                    src_pads.len() >= needed,
                    "padding analysis must cover every downcast operand"
                );
                regions.extend(src_pads[..needed].iter().copied());
                result_pads = src_pads[needed..].to_vec();
            }
        }
        // The downcast result must satisfy the target's invariant.
        self.calls.push(AbsCall {
            callee: ctx.inv(target),
            args: regions.clone(),
        });
        self.inst.extend(&regions);
        Ok(RType::Class {
            class: target,
            regions,
            pads: result_pads,
        })
    }
}
