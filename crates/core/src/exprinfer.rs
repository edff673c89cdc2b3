//! Expression-level region inference (the rules of Fig 3).
//!
//! [`infer_body`] walks one kernel method body and produces:
//!
//! - an annotated expression tree ([`RExpr`]) in which every `new`, call,
//!   cast and `null` records its region instantiation;
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

use crate::ctx::Ctx;
use crate::error::InferError;
use crate::options::DowncastPolicy;
use crate::rast::{RExpr, RExprKind, RType};
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
    /// Annotated body tree.
    pub body: RExpr,
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

    let mut inf = BodyInfer {
        id,
        atoms: ConstraintSet::new(),
        calls: Vec::new(),
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

    let body = inf.expr(ctx, &mut var_types, &m.body)?;
    // The body's value flows to the caller at the result type.
    if !matches!(sig.ret_type, RType::Void) {
        subtype(ctx, &body.rtype, &sig.ret_type, &mut inf.atoms);
    }

    let region_hi = ctx.gen.count() + 1;
    Ok(BodyResult {
        var_types,
        body,
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

struct BodyInfer {
    id: MethodId,
    atoms: ConstraintSet,
    calls: Vec<AbsCall>,
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

    fn class_of(&self, t: &RType) -> (ClassId, Vec<RegVar>) {
        match t {
            RType::Class { class, regions, .. } => (*class, regions.clone()),
            other => panic!("expected class type, found {other}"),
        }
    }

    /// Infers one block item. A `let` is handled here rather than in
    /// [`Self::expr`], so temporaries nested in initializers cost one
    /// `expr` frame per level.
    fn item(
        &mut self,
        ctx: &mut Ctx<'_>,
        var_types: &mut Vec<RType>,
        e: &KExpr,
    ) -> Result<RExpr, InferError> {
        let KExprKind::Let { var, init } = &e.kind else {
            return self.expr(ctx, var_types, e);
        };
        let init = match init {
            Some(i) => {
                let i = self.expr(ctx, var_types, i)?;
                let vt = var_types[var.index()].clone();
                if !matches!(vt, RType::Void | RType::Prim(_)) {
                    subtype(ctx, &i.rtype, &vt, &mut self.atoms);
                }
                Some(Box::new(i))
            }
            None => None,
        };
        Ok(RExpr {
            kind: RExprKind::Let { var: *var, init },
            rtype: RType::Void,
            span: e.span,
        })
    }

    fn expr(
        &mut self,
        ctx: &mut Ctx<'_>,
        var_types: &mut Vec<RType>,
        e: &KExpr,
    ) -> Result<RExpr, InferError> {
        let span = e.span;
        let out = match &e.kind {
            KExprKind::Unit => RExpr {
                kind: RExprKind::Unit,
                rtype: RType::Void,
                span,
            },
            KExprKind::Int(v) => RExpr {
                kind: RExprKind::Int(*v),
                rtype: RType::Prim(cj_frontend::Prim::Int),
                span,
            },
            KExprKind::Bool(v) => RExpr {
                kind: RExprKind::Bool(*v),
                rtype: RType::Prim(cj_frontend::Prim::Bool),
                span,
            },
            KExprKind::Float(v) => RExpr {
                kind: RExprKind::Float(*v),
                rtype: RType::Prim(cj_frontend::Prim::Float),
                span,
            },
            KExprKind::Null => {
                // (cn) null: fresh regions, no constraints (rule [null]).
                let rtype = ctx.fresh_rtype(e.ty);
                RExpr {
                    kind: RExprKind::Null,
                    rtype,
                    span,
                }
            }
            KExprKind::Var(v) => RExpr {
                kind: RExprKind::Var(*v),
                rtype: var_types[v.index()].clone(),
                span,
            },
            KExprKind::Field(v, fref) => {
                let (class, regions) = self.class_of(&var_types[v.index()]);
                let rtype = self.field_type(ctx, class, fref.index as usize, &regions);
                RExpr {
                    kind: RExprKind::Field(*v, *fref),
                    rtype,
                    span,
                }
            }
            KExprKind::AssignVar(v, rhs) => {
                let rhs = self.expr(ctx, var_types, rhs)?;
                let vt = var_types[v.index()].clone();
                if !matches!(vt, RType::Void) {
                    subtype(ctx, &rhs.rtype, &vt, &mut self.atoms);
                }
                RExpr {
                    kind: RExprKind::AssignVar(*v, Box::new(rhs)),
                    rtype: RType::Void,
                    span,
                }
            }
            KExprKind::AssignField(v, fref, rhs) => {
                let rhs = self.expr(ctx, var_types, rhs)?;
                let (class, regions) = self.class_of(&var_types[v.index()]);
                let ft = self.field_type(ctx, class, fref.index as usize, &regions);
                if !matches!(ft, RType::Void | RType::Prim(_)) {
                    subtype(ctx, &rhs.rtype, &ft, &mut self.atoms);
                }
                RExpr {
                    kind: RExprKind::AssignField(*v, *fref, Box::new(rhs)),
                    rtype: RType::Void,
                    span,
                }
            }
            KExprKind::New(class, args) => {
                let regions = ctx.gen.fresh_n(ctx.arity(*class));
                self.calls.push(AbsCall {
                    callee: ctx.inv(*class),
                    args: regions.clone(),
                });
                for (i, &a) in args.iter().enumerate() {
                    let ft = self.field_type(ctx, *class, i, &regions);
                    if !matches!(ft, RType::Void | RType::Prim(_)) {
                        subtype(ctx, &var_types[a.index()], &ft, &mut self.atoms);
                    }
                }
                RExpr {
                    kind: RExprKind::New {
                        class: *class,
                        regions: regions.clone(),
                        args: args.clone(),
                    },
                    rtype: RType::class(*class, regions),
                    span,
                }
            }
            KExprKind::NewArray(p, len) => {
                let len = self.expr(ctx, var_types, len)?;
                let region = ctx.gen.fresh();
                RExpr {
                    kind: RExprKind::NewArray {
                        elem: *p,
                        region,
                        len: Box::new(len),
                    },
                    rtype: RType::Array { elem: *p, region },
                    span,
                }
            }
            KExprKind::Index(v, idx) => {
                let idx = self.expr(ctx, var_types, idx)?;
                let elem = match var_types[v.index()] {
                    RType::Array { elem, .. } => elem,
                    ref other => panic!("indexing non-array {other}"),
                };
                RExpr {
                    kind: RExprKind::Index(*v, Box::new(idx)),
                    rtype: RType::Prim(elem),
                    span,
                }
            }
            KExprKind::AssignIndex(v, idx, val) => {
                let idx = self.expr(ctx, var_types, idx)?;
                let val = self.expr(ctx, var_types, val)?;
                RExpr {
                    kind: RExprKind::AssignIndex(*v, Box::new(idx), Box::new(val)),
                    rtype: RType::Void,
                    span,
                }
            }
            KExprKind::ArrayLen(v) => RExpr {
                kind: RExprKind::ArrayLen(*v),
                rtype: RType::Prim(cj_frontend::Prim::Int),
                span,
            },
            KExprKind::CallVirtual(recv, decl, args) => {
                let (recv_class, recv_regions) = self.class_of(&var_types[recv.index()]);
                let _ = recv_class;
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
                let class_part = &ctx.classes[decl_class.index()].params.clone();
                for (i, &cp) in class_part.iter().enumerate() {
                    s.bind(cp, recv_regions[i]);
                }
                debug_assert_eq!(decl_arity, class_part.len());
                for (&mp, &f) in callee.mparams.iter().zip(&fresh) {
                    s.bind(mp, f);
                }
                let inst = s.apply_all(&callee.abs_params);
                for (pt, &a) in callee.param_types.iter().zip(args) {
                    let expected = pt.subst(&s);
                    if !matches!(expected, RType::Void | RType::Prim(_)) {
                        subtype(ctx, &var_types[a.index()], &expected, &mut self.atoms);
                    }
                }
                let rtype = callee.ret_type.subst(&s);
                self.calls.push(AbsCall {
                    callee: callee.abs,
                    args: inst.clone(),
                });
                RExpr {
                    kind: RExprKind::CallVirtual {
                        recv: *recv,
                        method: *decl,
                        inst,
                        args: args.clone(),
                    },
                    rtype,
                    span,
                }
            }
            KExprKind::CallStatic(decl, args) => {
                let callee = ctx.msigs[decl].clone();
                let fresh: Vec<RegVar> = ctx.gen.fresh_n(callee.mparams.len());
                let s = RegSubst::instantiation(&callee.mparams, &fresh);
                let inst = s.apply_all(&callee.abs_params);
                for (pt, &a) in callee.param_types.iter().zip(args) {
                    let expected = pt.subst(&s);
                    if !matches!(expected, RType::Void | RType::Prim(_)) {
                        subtype(ctx, &var_types[a.index()], &expected, &mut self.atoms);
                    }
                }
                let rtype = callee.ret_type.subst(&s);
                self.calls.push(AbsCall {
                    callee: callee.abs,
                    args: inst.clone(),
                });
                RExpr {
                    kind: RExprKind::CallStatic {
                        method: *decl,
                        inst,
                        args: args.clone(),
                    },
                    rtype,
                    span,
                }
            }
            KExprKind::Block(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.item(ctx, var_types, item)?);
                }
                let rtype = out.last().map_or(RType::Void, |last| last.rtype.clone());
                RExpr {
                    kind: RExprKind::Block(out),
                    rtype,
                    span,
                }
            }
            KExprKind::Let { .. } => return self.item(ctx, var_types, e),
            KExprKind::If {
                cond,
                then_e,
                else_e,
            } => {
                let cond = self.expr(ctx, var_types, cond)?;
                let then_e = self.expr(ctx, var_types, then_e)?;
                let else_e = self.expr(ctx, var_types, else_e)?;
                // msst: fresh regions for the common supertype; both
                // branches flow into it by region subtyping.
                let rtype = match e.ty {
                    NType::Class(_) | NType::Array(_) => {
                        let rt = ctx.fresh_rtype(e.ty);
                        self.import_inv(ctx, &rt);
                        subtype(ctx, &then_e.rtype, &rt, &mut self.atoms);
                        subtype(ctx, &else_e.rtype, &rt, &mut self.atoms);
                        rt
                    }
                    NType::Prim(p) => RType::Prim(p),
                    NType::Void | NType::Null => RType::Void,
                };
                RExpr {
                    kind: RExprKind::If {
                        cond: Box::new(cond),
                        then_e: Box::new(then_e),
                        else_e: Box::new(else_e),
                    },
                    rtype,
                    span,
                }
            }
            KExprKind::While { cond, body } => {
                // Flow-insensitive: loop constraints are just the
                // conjunction of the condition's and body's. Annotations
                // are per variable, so one pass covers every iteration.
                let cond = self.expr(ctx, var_types, cond)?;
                let body = self.expr(ctx, var_types, body)?;
                RExpr {
                    kind: RExprKind::While {
                        cond: Box::new(cond),
                        body: Box::new(body),
                    },
                    rtype: RType::Void,
                    span,
                }
            }
            KExprKind::Cast(target, v) => self.cast(ctx, *target, *v, span, var_types)?,
            KExprKind::Unary(op, a) => {
                let a = self.expr(ctx, var_types, a)?;
                let rtype = match e.ty {
                    NType::Prim(p) => RType::Prim(p),
                    _ => RType::Void,
                };
                RExpr {
                    kind: RExprKind::Unary(*op, Box::new(a)),
                    rtype,
                    span,
                }
            }
            KExprKind::Binary(op, a, b) => {
                let a = self.expr(ctx, var_types, a)?;
                let b = self.expr(ctx, var_types, b)?;
                let rtype = match e.ty {
                    NType::Prim(p) => RType::Prim(p),
                    _ => RType::Void,
                };
                RExpr {
                    kind: RExprKind::Binary(*op, Box::new(a), Box::new(b)),
                    rtype,
                    span,
                }
            }
            KExprKind::Print(a) => {
                let a = self.expr(ctx, var_types, a)?;
                RExpr {
                    kind: RExprKind::Print(Box::new(a)),
                    rtype: RType::Void,
                    span,
                }
            }
        };
        Ok(out)
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
    ) -> Result<RExpr, InferError> {
        let src_t = var_types[v.index()].clone();
        let (src_class, src_regions) = self.class_of(&src_t);
        let src_pads = match &src_t {
            RType::Class { pads, .. } => pads.clone(),
            _ => Vec::new(),
        };
        let target_arity = ctx.arity(target);
        if ctx.kp.table.is_subclass(src_class, target) {
            // Upcast: fresh target regions, related by region subtyping.
            let regions = ctx.gen.fresh_n(target_arity);
            let rt = RType::class(target, regions.clone());
            subtype(ctx, &src_t, &rt, &mut self.atoms);
            return Ok(RExpr {
                kind: RExprKind::Cast {
                    class: target,
                    regions,
                    var: v,
                },
                rtype: rt,
                span,
            });
        }
        // Downcast.
        debug_assert!(ctx.kp.table.is_subclass(target, src_class));
        let src_arity = src_regions.len();
        let mut regions: Vec<RegVar> = src_regions.clone();
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
        Ok(RExpr {
            kind: RExprKind::Cast {
                class: target,
                regions: regions.clone(),
                var: v,
            },
            rtype: RType::Class {
                class: target,
                regions,
                pads: result_pads,
            },
            span,
        })
    }
}
