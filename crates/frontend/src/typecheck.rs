//! The normal type checker and kernel lowerer.
//!
//! [`check`] verifies that a surface program is *well-normal-typed* (the
//! paper's `⊢N` judgement — ordinary Core-Java typing with no regions) and
//! simultaneously lowers it into the [kernel form](crate::kernel) that the
//! region inference rules consume: receivers and arguments become
//! variables, every `null` is resolved against its class context, and every
//! node carries its normal type.
//!
//! # Examples
//!
//! ```
//! use cj_frontend::{parser::parse_program, typecheck::check};
//!
//! let src = "class Cell { int v; int get() { this.v } }";
//! let kp = check(&parse_program(src).unwrap()).unwrap();
//! assert_eq!(kp.statics.len(), 0);
//! ```

use crate::ast::{self, BinOp, UnOp};
use crate::classtable::ClassTable;
use crate::intern::Symbol;
use crate::kernel::{FieldRef, KExpr, KExprKind, KMethod, KProgram};
use crate::span::{Diagnostics, Span};
use crate::types::{ClassId, NType, Prim, VarId, VarInfo};
use std::collections::HashMap;

/// Type-checks `program` and lowers it to kernel form.
///
/// # Errors
///
/// Returns every diagnostic found: class-table errors (duplicates, cycles,
/// bad overrides) and body errors (unknown names, type mismatches, misplaced
/// `return`, unresolvable `null`, invalid casts).
pub fn check(program: &ast::Program) -> Result<KProgram, Diagnostics> {
    let table =
        ClassTable::build(program).map_err(|d| d.set_default_code(cj_diag::codes::TYPECHECK))?;
    let mut diags = Diagnostics::new();

    let mut methods: Vec<Vec<KMethod>> = vec![Vec::new(); table.len()];
    let mut statics: Vec<Option<KMethod>> = vec![None; table.statics().len()];

    for decl in &program.classes {
        let class_id = table.class_id(decl.name.as_str()).expect("class built");
        for md in &decl.methods {
            let lowered = lower_method(&table, class_id, md, &mut diags);
            if md.is_static {
                if let Some((idx, _)) = table.lookup_static(md.name) {
                    statics[idx as usize] = Some(lowered);
                }
            } else {
                methods[class_id.index()].push(lowered);
            }
        }
    }

    if diags.has_errors() {
        return Err(diags.set_default_code(cj_diag::codes::TYPECHECK));
    }
    let statics = statics
        .into_iter()
        .map(|m| m.expect("every static lowered"))
        .collect();
    let mut kp = KProgram {
        table,
        methods,
        statics,
        rec_read_only: Vec::new(),
    };
    kp.rec_read_only = crate::recro::rec_read_only(&kp);
    Ok(kp)
}

/// Parses and checks in one step.
///
/// # Errors
///
/// Combines parser and type-checker diagnostics.
pub fn check_source(src: &str) -> Result<KProgram, Diagnostics> {
    let program = crate::parser::parse_program(src)?;
    check(&program)
}

fn lower_method(
    table: &ClassTable,
    owner: ClassId,
    md: &ast::MethodDecl,
    diags: &mut Diagnostics,
) -> KMethod {
    let ret = table.resolve(&md.ret).unwrap_or(NType::Void);
    let mut lw = Lowerer {
        table,
        diags,
        vars: Vec::new(),
        scopes: vec![HashMap::new()],
        owner,
        is_static: md.is_static,
        temp_count: 0,
    };
    if !md.is_static {
        lw.vars.push(VarInfo {
            name: Symbol::intern("this"),
            ty: NType::Class(owner),
            is_temp: false,
        });
    }
    let mut params = Vec::new();
    for p in &md.params {
        let ty = lw.table.resolve(&p.ty).unwrap_or(NType::Void);
        let v = lw.declare(p.name, ty, p.span);
        params.push(v);
    }
    let mut body = lw.lower_block(&md.body, Some(ret));
    let expr_count = crate::kernel::number_exprs(&mut body);
    let vars = lw.vars;
    KMethod {
        name: md.name,
        owner,
        is_static: md.is_static,
        vars,
        params,
        ret,
        body,
        expr_count,
        span: md.span,
    }
}

/// A pending temporary binding: a `let tmp = init` item.
struct Binding {
    var: VarId,
    init: KExpr,
}

struct Lowerer<'a> {
    table: &'a ClassTable,
    diags: &'a mut Diagnostics,
    vars: Vec<VarInfo>,
    scopes: Vec<HashMap<Symbol, VarId>>,
    owner: ClassId,
    is_static: bool,
    temp_count: u32,
}

impl<'a> Lowerer<'a> {
    fn declare(&mut self, name: Symbol, ty: NType, span: Span) -> VarId {
        if self.lookup(name).is_some() {
            self.diags.error(
                format!("`{name}` shadows an existing variable (not allowed)"),
                span,
            );
        }
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name,
            ty,
            is_temp: false,
        });
        self.scopes
            .last_mut()
            .expect("scope stack nonempty")
            .insert(name, id);
        id
    }

    fn fresh_temp(&mut self, ty: NType) -> VarId {
        let id = VarId(self.vars.len() as u32);
        let name = Symbol::intern(&format!("$t{}", self.temp_count));
        self.temp_count += 1;
        self.vars.push(VarInfo {
            name,
            ty,
            is_temp: true,
        });
        id
    }

    fn lookup(&self, name: Symbol) -> Option<VarId> {
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.get(&name).copied())
    }

    fn error_expr(&mut self, msg: String, span: Span, ty: NType) -> KExpr {
        self.diags.error(msg, span);
        KExpr::new(KExprKind::Unit, ty, span)
    }

    /// Checks `e.ty ≤ expected`, reporting a mismatch.
    fn coerce(&mut self, e: KExpr, expected: NType) -> KExpr {
        if expected == NType::Void {
            return e;
        }
        if !self.table.is_subtype(e.ty, expected) {
            self.diags.error(
                format!(
                    "type mismatch: expected `{}`, found `{}`",
                    self.table.display_ty(expected),
                    self.table.display_ty(e.ty)
                ),
                e.span,
            );
        }
        e
    }

    // ---- blocks ---------------------------------------------------------

    /// Lowers a block. `expected = Some(t)` means the block's value is used
    /// with type `t`; `None` means the value is discarded.
    fn lower_block(&mut self, block: &ast::Block, expected: Option<NType>) -> KExpr {
        self.scopes.push(HashMap::new());
        let result = self.lower_items(&block.stmts, block.tail.as_deref(), expected, block.span);
        self.scopes.pop();
        result
    }

    /// Lowers a block's statements and value into one flat item list: a
    /// declaration becomes a `let` item scoping over the rest of the block,
    /// and the last item is the block's value.
    fn lower_items(
        &mut self,
        stmts: &[ast::Stmt],
        tail: Option<&ast::Expr>,
        expected: Option<NType>,
        span: Span,
    ) -> KExpr {
        // A trailing `return e;` acts as the block's tail value.
        let (stmts, ret) = match (stmts.split_last(), tail) {
            (Some((ast::Stmt::Return { value, span }, init)), None) => {
                (init, Some((value.as_ref(), *span)))
            }
            _ => (stmts, None),
        };
        let mut items = Vec::new();
        for stmt in stmts {
            let item = match stmt {
                ast::Stmt::Decl {
                    ty,
                    name,
                    init,
                    span: dspan,
                } => self.lower_decl(ty, *name, init.as_ref(), *dspan),
                ast::Stmt::Return { span: rspan, .. } => self.error_expr(
                    "`return` must be the last statement of its block".into(),
                    *rspan,
                    NType::Void,
                ),
                other => self.lower_stmt(other),
            };
            items.push(item);
        }
        let value = match (ret, tail) {
            (Some((Some(e), _)), _) | (None, Some(e)) => {
                let lowered = self.lower_expr(e, expected);
                match expected {
                    Some(t) => self.coerce(lowered, t),
                    None => lowered,
                }
            }
            (Some((None, rspan)), _) => self.no_value(expected, rspan, |t| {
                format!("`return;` in a method returning `{t}`")
            }),
            (None, None) => self.no_value(expected, span, |t| {
                format!("block used as a value of type `{t}` has no result expression")
            }),
        };
        if items.is_empty() {
            return value;
        }
        // A block-valued tail ends where this block ends: its items join
        // this block's.
        match value.kind {
            KExprKind::Block(inner) => items.extend(inner),
            _ => items.push(value),
        }
        KExpr::block(items)
    }

    /// The unit value of a block without one; an error when a value of a
    /// non-void type is `expected` (`msg` renders that type).
    fn no_value(
        &mut self,
        expected: Option<NType>,
        span: Span,
        msg: impl FnOnce(String) -> String,
    ) -> KExpr {
        match expected {
            Some(t) if t != NType::Void => {
                let msg = msg(self.table.display_ty(t));
                self.error_expr(msg, span, t)
            }
            _ => KExpr::new(KExprKind::Unit, NType::Void, span),
        }
    }

    fn lower_decl(
        &mut self,
        ty: &ast::Ty,
        name: Symbol,
        init: Option<&ast::Expr>,
        span: Span,
    ) -> KExpr {
        let nty = match self.table.resolve(ty) {
            Ok(NType::Void) => {
                self.diags
                    .error(format!("variable `{name}` cannot have type `void`"), span);
                NType::Void
            }
            Ok(t) => t,
            Err(mut d) => {
                d.span = span;
                self.diags.push(d);
                NType::Void
            }
        };
        let init = init.map(|e| {
            let lowered = self.lower_expr(e, Some(nty));
            Box::new(self.coerce(lowered, nty))
        });
        let var = self.declare(name, nty, span);
        KExpr::new(KExprKind::Let { var, init }, NType::Void, span)
    }

    fn lower_stmt(&mut self, stmt: &ast::Stmt) -> KExpr {
        match stmt {
            ast::Stmt::Decl { .. } | ast::Stmt::Return { .. } => {
                unreachable!("handled by lower_items")
            }
            ast::Stmt::Expr(e) => {
                let lowered = self.lower_expr(e, None);
                // Value discarded.
                lowered
            }
            ast::Stmt::Assign {
                target,
                value,
                span,
            } => self.lower_assign(target, value, *span),
            ast::Stmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            } => {
                let cond = self.lower_expr_expect(cond, NType::BOOL);
                let then_e = self.lower_block(then_blk, None);
                let else_e = match else_blk {
                    Some(b) => self.lower_block(b, None),
                    None => KExpr::new(KExprKind::Unit, NType::Void, *span),
                };
                KExpr::new(
                    KExprKind::If {
                        cond: Box::new(cond),
                        then_e: Box::new(then_e),
                        else_e: Box::new(else_e),
                    },
                    NType::Void,
                    *span,
                )
            }
            ast::Stmt::While { cond, body, span } => {
                let cond = self.lower_expr_expect(cond, NType::BOOL);
                let body = self.lower_block(body, None);
                KExpr::new(
                    KExprKind::While {
                        cond: Box::new(cond),
                        body: Box::new(body),
                    },
                    NType::Void,
                    *span,
                )
            }
        }
    }

    fn lower_assign(&mut self, target: &ast::LValue, value: &ast::Expr, span: Span) -> KExpr {
        match target {
            ast::LValue::Var(name) => {
                if name.as_str() == "this" {
                    return self.error_expr("cannot assign to `this`".into(), span, NType::Void);
                }
                let Some(var) = self.lookup(*name) else {
                    return self.error_expr(
                        format!("unknown variable `{name}`"),
                        span,
                        NType::Void,
                    );
                };
                let vty = self.vars[var.index()].ty;
                let lowered = self.lower_expr(value, Some(vty));
                let lowered = self.coerce(lowered, vty);
                KExpr::new(
                    KExprKind::AssignVar(var, Box::new(lowered)),
                    NType::Void,
                    span,
                )
            }
            ast::LValue::Field(recv, fname) => {
                let mut binds = Vec::new();
                let (rvar, rty) = self.lower_receiver(recv, &mut binds);
                let Some(class) = rty.as_class() else {
                    return self.error_expr(
                        format!(
                            "field assignment on non-object type `{}`",
                            self.table.display_ty(rty)
                        ),
                        span,
                        NType::Void,
                    );
                };
                let Some(field) = self.table.lookup_field(class, *fname) else {
                    return self.error_expr(
                        format!("class `{}` has no field `{fname}`", self.table.name(class)),
                        span,
                        NType::Void,
                    );
                };
                let fref = FieldRef {
                    owner: field.owner,
                    index: field.index as u32,
                    name: field.name,
                };
                let fty = field.ty;
                let lowered = self.lower_expr(value, Some(fty));
                let lowered = self.coerce(lowered, fty);
                let core = KExpr::new(
                    KExprKind::AssignField(rvar, fref, Box::new(lowered)),
                    NType::Void,
                    span,
                );
                wrap_bindings(binds, core)
            }
            ast::LValue::Index(arr, idx) => {
                let mut binds = Vec::new();
                let (avar, aty) = self.lower_receiver(arr, &mut binds);
                let elem = match aty {
                    NType::Array(p) => p,
                    other => {
                        return self.error_expr(
                            format!("indexing non-array type `{}`", self.table.display_ty(other)),
                            span,
                            NType::Void,
                        )
                    }
                };
                let idx = self.lower_expr_expect(idx, NType::INT);
                let value = self.lower_expr_expect(value, NType::Prim(elem));
                let core = KExpr::new(
                    KExprKind::AssignIndex(avar, Box::new(idx), Box::new(value)),
                    NType::Void,
                    span,
                );
                wrap_bindings(binds, core)
            }
        }
    }

    // ---- expressions ----------------------------------------------------

    fn lower_expr_expect(&mut self, e: &ast::Expr, expected: NType) -> KExpr {
        let lowered = self.lower_expr(e, Some(expected));
        self.coerce(lowered, expected)
    }

    /// Lowers `e`. `expected` is a *hint* used to resolve `null` and to push
    /// context into conditionals; callers that require conformance call
    /// [`Self::coerce`] on the result.
    fn lower_expr(&mut self, e: &ast::Expr, expected: Option<NType>) -> KExpr {
        let span = e.span;
        match &e.kind {
            ast::ExprKind::Int(v) => KExpr::new(KExprKind::Int(*v), NType::INT, span),
            ast::ExprKind::Bool(v) => KExpr::new(KExprKind::Bool(*v), NType::BOOL, span),
            ast::ExprKind::Float(v) => KExpr::new(KExprKind::Float(*v), NType::FLOAT, span),
            ast::ExprKind::Null => match expected {
                Some(t) if t.is_reference() => KExpr::new(KExprKind::Null, t, span),
                _ => self.error_expr(
                    "cannot determine the class of `null` here; use `(cn) null`".into(),
                    span,
                    NType::Null,
                ),
            },
            ast::ExprKind::This => {
                if self.is_static {
                    self.error_expr("`this` in a static method".into(), span, NType::Void)
                } else {
                    KExpr::new(KExprKind::Var(VarId(0)), NType::Class(self.owner), span)
                }
            }
            ast::ExprKind::Var(name) => match self.lookup(*name) {
                Some(v) => {
                    let ty = self.vars[v.index()].ty;
                    KExpr::new(KExprKind::Var(v), ty, span)
                }
                None => self.error_expr(
                    format!("unknown variable `{name}`"),
                    span,
                    expected.unwrap_or(NType::Void),
                ),
            },
            ast::ExprKind::Unary(op, operand) => {
                let inner = self.lower_expr(operand, None);
                let ty = match (op, inner.ty) {
                    (UnOp::Neg, NType::Prim(Prim::Int)) => NType::INT,
                    (UnOp::Neg, NType::Prim(Prim::Float)) => NType::FLOAT,
                    (UnOp::Not, NType::Prim(Prim::Bool)) => NType::BOOL,
                    (op, t) => {
                        return self.error_expr(
                            format!("cannot apply `{op}` to `{}`", self.table.display_ty(t)),
                            span,
                            NType::Void,
                        )
                    }
                };
                KExpr::new(KExprKind::Unary(*op, Box::new(inner)), ty, span)
            }
            ast::ExprKind::Binary(op, l, r) => self.lower_binary(*op, l, r, span),
            ast::ExprKind::Field(recv, fname) => {
                let mut binds = Vec::new();
                let (rvar, rty) = self.lower_receiver(recv, &mut binds);
                let Some(class) = rty.as_class() else {
                    return self.error_expr(
                        format!(
                            "field access on non-object type `{}`",
                            self.table.display_ty(rty)
                        ),
                        span,
                        expected.unwrap_or(NType::Void),
                    );
                };
                let Some(field) = self.table.lookup_field(class, *fname) else {
                    return self.error_expr(
                        format!("class `{}` has no field `{fname}`", self.table.name(class)),
                        span,
                        expected.unwrap_or(NType::Void),
                    );
                };
                let fref = FieldRef {
                    owner: field.owner,
                    index: field.index as u32,
                    name: field.name,
                };
                let core = KExpr::new(KExprKind::Field(rvar, fref), field.ty, span);
                wrap_bindings(binds, core)
            }
            ast::ExprKind::Call { recv, name, args } => {
                self.lower_call(recv.as_deref(), *name, args, span)
            }
            ast::ExprKind::New { class, args } => {
                let Some(class_id) = self.table.class_id(class.as_str()) else {
                    return self.error_expr(
                        format!("unknown class `{class}`"),
                        span,
                        expected.unwrap_or(NType::Void),
                    );
                };
                let fields: Vec<(NType, usize)> = self
                    .table
                    .all_fields(class_id)
                    .iter()
                    .map(|f| (f.ty, f.index))
                    .collect();
                if fields.len() != args.len() {
                    return self.error_expr(
                        format!(
                            "`new {class}` expects {} argument(s) (one per field), found {}",
                            fields.len(),
                            args.len()
                        ),
                        span,
                        NType::Class(class_id),
                    );
                }
                let mut binds = Vec::new();
                let mut arg_vars = Vec::new();
                for (arg, (fty, _)) in args.iter().zip(&fields) {
                    let lowered = self.lower_expr(arg, Some(*fty));
                    let lowered = self.coerce(lowered, *fty);
                    arg_vars.push(self.var_of(lowered, &mut binds));
                }
                let core = KExpr::new(
                    KExprKind::New(class_id, arg_vars),
                    NType::Class(class_id),
                    span,
                );
                wrap_bindings(binds, core)
            }
            ast::ExprKind::NewArray { elem, len } => {
                let prim = match self.table.resolve(elem) {
                    Ok(NType::Prim(p)) => p,
                    _ => {
                        return self.error_expr(
                            format!("array element type must be primitive, found `{elem}`"),
                            span,
                            NType::Void,
                        )
                    }
                };
                let len = self.lower_expr_expect(len, NType::INT);
                KExpr::new(
                    KExprKind::NewArray(prim, Box::new(len)),
                    NType::Array(prim),
                    span,
                )
            }
            ast::ExprKind::Index(arr, idx) => {
                let mut binds = Vec::new();
                let (avar, aty) = self.lower_receiver(arr, &mut binds);
                let NType::Array(p) = aty else {
                    return self.error_expr(
                        format!("indexing non-array type `{}`", self.table.display_ty(aty)),
                        span,
                        expected.unwrap_or(NType::Void),
                    );
                };
                let idx = self.lower_expr_expect(idx, NType::INT);
                let core = KExpr::new(KExprKind::Index(avar, Box::new(idx)), NType::Prim(p), span);
                wrap_bindings(binds, core)
            }
            ast::ExprKind::Length(arr) => {
                let mut binds = Vec::new();
                let (avar, aty) = self.lower_receiver(arr, &mut binds);
                if !matches!(aty, NType::Array(_)) {
                    return self.error_expr(
                        format!(
                            "`.length` on non-array type `{}`",
                            self.table.display_ty(aty)
                        ),
                        span,
                        NType::INT,
                    );
                }
                let core = KExpr::new(KExprKind::ArrayLen(avar), NType::INT, span);
                wrap_bindings(binds, core)
            }
            ast::ExprKind::TypedNull(ty) => {
                let nty = match self.table.resolve(ty) {
                    Ok(t) if t.is_reference() => t,
                    Ok(t) => {
                        return self.error_expr(
                            format!(
                                "`null` cannot have non-reference type `{}`",
                                self.table.display_ty(t)
                            ),
                            span,
                            NType::Null,
                        )
                    }
                    Err(d) => return self.error_expr(d.message, span, NType::Null),
                };
                KExpr::new(KExprKind::Null, nty, span)
            }
            ast::ExprKind::Cast { class, expr } => {
                let Some(target) = self.table.class_id(class.as_str()) else {
                    return self.error_expr(
                        format!("unknown class `{class}` in cast"),
                        span,
                        expected.unwrap_or(NType::Void),
                    );
                };
                // `(cn) null` is the typed null of Fig 1.
                if matches!(expr.kind, ast::ExprKind::Null) {
                    return KExpr::new(KExprKind::Null, NType::Class(target), span);
                }
                let mut binds = Vec::new();
                let (v, vty) = self.lower_receiver(expr, &mut binds);
                let Some(source) = vty.as_class() else {
                    return self.error_expr(
                        format!(
                            "cannot cast non-object type `{}`",
                            self.table.display_ty(vty)
                        ),
                        span,
                        NType::Class(target),
                    );
                };
                if !self.table.is_subclass(target, source)
                    && !self.table.is_subclass(source, target)
                {
                    let mut d = crate::span::Diagnostic::error(
                        format!(
                            "cast between unrelated classes `{}` and `{}`",
                            self.table.name(source),
                            self.table.name(target)
                        ),
                        span,
                    );
                    for class in [source, target] {
                        let decl_span = self.table.class(class).span;
                        if !decl_span.is_dummy() {
                            d = d.with_label(
                                decl_span,
                                format!("`{}` declared here", self.table.name(class)),
                            );
                        }
                    }
                    self.diags.push(d);
                }
                let core = KExpr::new(KExprKind::Cast(target, v), NType::Class(target), span);
                wrap_bindings(binds, core)
            }
            ast::ExprKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let cond = self.lower_expr_expect(cond, NType::BOOL);
                let then_e = self.lower_block(then_blk, expected);
                let else_e = self.lower_block(else_blk, expected);
                let ty = match expected {
                    Some(t) => t,
                    None => match self.table.msst(then_e.ty, else_e.ty) {
                        Some(t) => t,
                        None => {
                            self.diags.error(
                                format!(
                                    "branches have incompatible types `{}` and `{}`",
                                    self.table.display_ty(then_e.ty),
                                    self.table.display_ty(else_e.ty)
                                ),
                                span,
                            );
                            then_e.ty
                        }
                    },
                };
                KExpr::new(
                    KExprKind::If {
                        cond: Box::new(cond),
                        then_e: Box::new(then_e),
                        else_e: Box::new(else_e),
                    },
                    ty,
                    span,
                )
            }
            ast::ExprKind::Block(b) => self.lower_block(b, expected),
            ast::ExprKind::Print(inner) => {
                let lowered = self.lower_expr(inner, None);
                KExpr::new(KExprKind::Print(Box::new(lowered)), NType::Void, span)
            }
        }
    }

    fn lower_binary(&mut self, op: BinOp, l: &ast::Expr, r: &ast::Expr, span: Span) -> KExpr {
        use BinOp::*;
        match op {
            And | Or => {
                let l = self.lower_expr_expect(l, NType::BOOL);
                let r = self.lower_expr_expect(r, NType::BOOL);
                KExpr::new(
                    KExprKind::Binary(op, Box::new(l), Box::new(r)),
                    NType::BOOL,
                    span,
                )
            }
            Add | Sub | Mul | Div | Rem => {
                let lk = self.lower_expr(l, None);
                let rk = self.lower_expr(r, None);
                let ty = match (lk.ty, rk.ty) {
                    (NType::Prim(Prim::Int), NType::Prim(Prim::Int)) => NType::INT,
                    (NType::Prim(Prim::Float), NType::Prim(Prim::Float)) => NType::FLOAT,
                    (a, b) => {
                        return self.error_expr(
                            format!(
                                "cannot apply `{op}` to `{}` and `{}`",
                                self.table.display_ty(a),
                                self.table.display_ty(b)
                            ),
                            span,
                            NType::INT,
                        )
                    }
                };
                KExpr::new(KExprKind::Binary(op, Box::new(lk), Box::new(rk)), ty, span)
            }
            Lt | Le | Gt | Ge => {
                let lk = self.lower_expr(l, None);
                let rk = self.lower_expr(r, None);
                match (lk.ty, rk.ty) {
                    (NType::Prim(Prim::Int), NType::Prim(Prim::Int))
                    | (NType::Prim(Prim::Float), NType::Prim(Prim::Float)) => {}
                    (a, b) => {
                        return self.error_expr(
                            format!(
                                "cannot compare `{}` and `{}`",
                                self.table.display_ty(a),
                                self.table.display_ty(b)
                            ),
                            span,
                            NType::BOOL,
                        )
                    }
                }
                KExpr::new(
                    KExprKind::Binary(op, Box::new(lk), Box::new(rk)),
                    NType::BOOL,
                    span,
                )
            }
            Eq | Ne => {
                // `null == e` / `e == null` resolve null from the other side.
                let (lk, rk) = if matches!(l.kind, ast::ExprKind::Null) {
                    let rk = self.lower_expr(r, None);
                    let lk = self.lower_expr(l, Some(rk.ty));
                    (lk, rk)
                } else {
                    let lk = self.lower_expr(l, None);
                    let rk = self.lower_expr(r, Some(lk.ty));
                    (lk, rk)
                };
                let compatible = match (lk.ty, rk.ty) {
                    (a, b) if a == b => true,
                    (a, b) if a.is_reference() && b.is_reference() => {
                        self.table.is_subtype(a, b) || self.table.is_subtype(b, a)
                    }
                    _ => false,
                };
                if !compatible {
                    return self.error_expr(
                        format!(
                            "cannot compare `{}` and `{}` for equality",
                            self.table.display_ty(lk.ty),
                            self.table.display_ty(rk.ty)
                        ),
                        span,
                        NType::BOOL,
                    );
                }
                KExpr::new(
                    KExprKind::Binary(op, Box::new(lk), Box::new(rk)),
                    NType::BOOL,
                    span,
                )
            }
        }
    }

    fn lower_call(
        &mut self,
        recv: Option<&ast::Expr>,
        name: Symbol,
        args: &[ast::Expr],
        span: Span,
    ) -> KExpr {
        let mut binds = Vec::new();
        match recv {
            Some(recv) => {
                let (rvar, rty) = self.lower_receiver(recv, &mut binds);
                let Some(class) = rty.as_class() else {
                    return self.error_expr(
                        format!(
                            "method call on non-object type `{}`",
                            self.table.display_ty(rty)
                        ),
                        span,
                        NType::Void,
                    );
                };
                let Some((decl_class, sig)) = self.table.lookup_method(class, name) else {
                    return self.error_expr(
                        format!("class `{}` has no method `{name}`", self.table.name(class)),
                        span,
                        NType::Void,
                    );
                };
                let (params, ret) = (sig.params.clone(), sig.ret);
                let slot = self
                    .table
                    .class(decl_class)
                    .own_methods
                    .iter()
                    .position(|m| m.name == name)
                    .expect("resolved method exists") as u32;
                let arg_vars = match self.lower_args(args, &params, name, span, &mut binds) {
                    Some(vs) => vs,
                    None => return KExpr::new(KExprKind::Unit, ret, span),
                };
                let core = KExpr::new(
                    KExprKind::CallVirtual(
                        rvar,
                        crate::types::MethodId::Instance(decl_class, slot),
                        arg_vars,
                    ),
                    ret,
                    span,
                );
                wrap_bindings(binds, core)
            }
            None => {
                let Some((idx, sig)) = self.table.lookup_static(name) else {
                    return self.error_expr(
                        format!("unknown static method `{name}`"),
                        span,
                        NType::Void,
                    );
                };
                let (params, ret) = (sig.params.clone(), sig.ret);
                let arg_vars = match self.lower_args(args, &params, name, span, &mut binds) {
                    Some(vs) => vs,
                    None => return KExpr::new(KExprKind::Unit, ret, span),
                };
                let core = KExpr::new(
                    KExprKind::CallStatic(crate::types::MethodId::Static(idx), arg_vars),
                    ret,
                    span,
                );
                wrap_bindings(binds, core)
            }
        }
    }

    fn lower_args(
        &mut self,
        args: &[ast::Expr],
        params: &[NType],
        name: Symbol,
        span: Span,
        binds: &mut Vec<Binding>,
    ) -> Option<Vec<VarId>> {
        if args.len() != params.len() {
            self.diags.error(
                format!(
                    "method `{name}` expects {} argument(s), found {}",
                    params.len(),
                    args.len()
                ),
                span,
            );
            return None;
        }
        let mut vars = Vec::new();
        for (arg, pty) in args.iter().zip(params) {
            let lowered = self.lower_expr(arg, Some(*pty));
            let lowered = self.coerce(lowered, *pty);
            vars.push(self.var_of(lowered, binds));
        }
        Some(vars)
    }

    /// Lowers a receiver expression and reduces it to a variable.
    fn lower_receiver(&mut self, e: &ast::Expr, binds: &mut Vec<Binding>) -> (VarId, NType) {
        let lowered = self.lower_expr(e, None);
        let ty = lowered.ty;
        (self.var_of(lowered, binds), ty)
    }

    /// Reduces an expression to a variable, introducing a temporary binding
    /// unless it is already a variable read.
    ///
    /// Variable operands are passed as their slot; evaluation of the whole
    /// call reads slots at invocation time (see `kernel` docs).
    fn var_of(&mut self, e: KExpr, binds: &mut Vec<Binding>) -> VarId {
        if let KExprKind::Var(v) = e.kind {
            return v;
        }
        let tmp = self.fresh_temp(e.ty);
        binds.push(Binding { var: tmp, init: e });
        tmp
    }
}

/// `core` after its pending temporaries, as one block.
fn wrap_bindings(binds: Vec<Binding>, core: KExpr) -> KExpr {
    if binds.is_empty() {
        return core;
    }
    let mut items: Vec<KExpr> = binds
        .into_iter()
        .map(|b| {
            let span = b.init.span;
            KExpr::new(
                KExprKind::Let {
                    var: b.var,
                    init: Some(Box::new(b.init)),
                },
                NType::Void,
                span,
            )
        })
        .collect();
    items.push(core);
    KExpr::block(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check_ok(src: &str) -> KProgram {
        check(&parse_program(src).unwrap()).unwrap_or_else(|d| panic!("expected ok, got:\n{d}"))
    }

    fn check_err(src: &str) -> Diagnostics {
        match check(&parse_program(src).unwrap()) {
            Ok(_) => panic!("expected type error"),
            Err(d) => d,
        }
    }

    #[test]
    fn simple_class_checks() {
        let kp = check_ok("class Cell { int v; int get() { this.v } }");
        let cell = kp.table.class_id("Cell").unwrap();
        assert_eq!(kp.methods[cell.index()].len(), 1);
        assert_eq!(kp.methods[cell.index()][0].ret, NType::INT);
    }

    #[test]
    fn pair_class_from_paper() {
        check_ok(
            "class Pair { Object fst; Object snd;
               Object getFst() { this.fst }
               void setSnd(Object o) { this.snd = o; }
               Pair cloneRev() {
                 Pair tmp = new Pair(null, null);
                 tmp.fst = this.snd; tmp.snd = this.fst; tmp
               }
               void swap() { Object tmp = this.fst; this.fst = this.snd; this.snd = tmp; }
             }",
        );
    }

    #[test]
    fn list_class_from_paper() {
        check_ok(
            "class List { Object value; List next;
               Object getValue() { this.value }
               List getNext() { this.next }
               void setNext(List o) { this.next = o; }
             }",
        );
    }

    #[test]
    fn join_method_from_paper() {
        check_ok(
            "class List { Object value; List next;
               Object getValue() { this.value }
               List getNext() { this.next }
               static bool isNull(List l) { l == null }
               static List join(List xs, List ys) {
                 if (isNull(xs)) {
                   if (isNull(ys)) { (List) null } else { join(ys, xs) }
                 } else {
                   Object x; List res;
                   x = xs.getValue();
                   res = join(ys, xs.getNext());
                   new List(x, res)
                 }
               }
             }",
        );
    }

    #[test]
    fn receiver_normalization_introduces_temp() {
        let kp = check_ok("class A { A next; A f() { this.next.f() } }");
        let a = kp.table.class_id("A").unwrap();
        let m = &kp.methods[a.index()][0];
        // this.next must be bound to a temp before the call.
        assert!(m.vars.iter().any(|v| v.is_temp));
    }

    #[test]
    fn null_resolved_by_context() {
        let kp = check_ok("class A { A x; void set() { this.x = null; } }");
        let a = kp.table.class_id("A").unwrap();
        let m = &kp.methods[a.index()][0];
        let mut found = false;
        crate::kernel::walk_expr(&m.body, &mut |e| {
            if matches!(e.kind, KExprKind::Null) {
                assert_eq!(e.ty, NType::Class(a));
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn bare_null_without_context_errors() {
        let d = check_err("class A { static int f() { null == null; 1 } }");
        assert!(d.to_string().contains("null"));
    }

    #[test]
    fn arithmetic_and_comparison() {
        check_ok("class M { static int f(int a, int b) { if (a < b) { a + b } else { a * b - a / b % 2 } } }");
        check_err("class M { static int f(bool a) { a + 1 } }");
    }

    #[test]
    fn float_arithmetic_checks() {
        check_ok("class M { static float f(float a) { a * 2.0 + 0.5 } }");
        check_err("class M { static float f(float a) { a + 1 } }");
    }

    #[test]
    fn static_method_cannot_use_this() {
        let d = check_err("class A { int v; static int f() { this.v } }");
        assert!(d.to_string().contains("this"));
    }

    #[test]
    fn subtype_assignment_allowed() {
        check_ok(
            "class A { } class B extends A { }
             class M { static A f() { A a = new B(); a } }",
        );
    }

    #[test]
    fn supertype_assignment_rejected() {
        check_err(
            "class A { } class B extends A { }
             class M { static B f() { B b = new A(); b } }",
        );
    }

    #[test]
    fn new_arity_must_match_fields() {
        check_err("class P { Object a; Object b; static P f() { new P(null) } }");
    }

    #[test]
    fn inherited_fields_in_constructor() {
        check_ok(
            "class A { int x; } class B extends A { int y; }
             class M { static B f() { new B(1, 2) } }",
        );
    }

    #[test]
    fn downcast_and_upcast() {
        check_ok(
            "class A { } class B extends A { }
             class M { static B f(A a) { (B) a } static A g(B b) { (A) b } }",
        );
        let diags = check_err(
            "class A { } class B { }
             class M { static B f(A a) { (B) a } }",
        );
        let d = diags
            .iter()
            .find(|d| d.message.contains("unrelated classes"))
            .expect("bad-cast diagnostic");
        assert_eq!(d.labels.len(), 2, "both classes get `declared here` labels");
        assert!(d.labels.iter().any(|l| l.message == "`A` declared here"));
        assert!(d.labels.iter().any(|l| l.message == "`B` declared here"));
    }

    #[test]
    fn shifted_program_typechecks_with_shifted_spans() {
        let src = "class A { Pear p; }";
        let mut program = parse_program(src).unwrap();
        let plain_err = check(&program).unwrap_err();
        crate::ast::shift_spans(&mut program, 1000);
        let shifted_err = check(&program).unwrap_err();
        assert_eq!(
            shifted_err.items[0].span.lo,
            plain_err.items[0].span.lo + 1000
        );
        assert_eq!(shifted_err.items[0].message, plain_err.items[0].message);
    }

    #[test]
    fn while_and_arrays() {
        check_ok(
            "class M { static int sum(int n) {
               int[] a = new int[n];
               int i = 0;
               while (i < n) { a[i] = i; i = i + 1; }
               int s = 0; i = 0;
               while (i < a.length) { s = s + a[i]; i = i + 1; }
               s
             } }",
        );
    }

    #[test]
    fn return_sugar_in_branches() {
        check_ok("class M { static int f(bool b) { if (b) { return 1; } else { return 2; } } }");
    }

    #[test]
    fn return_not_last_rejected() {
        check_err("class M { static int f() { return 1; return 2; } }");
    }

    #[test]
    fn missing_value_rejected() {
        check_err("class M { static int f() { int x = 1; } }");
    }

    #[test]
    fn unknown_variable_rejected() {
        check_err("class M { static int f() { y } }");
    }

    #[test]
    fn no_shadowing() {
        check_err("class M { static int f(int x) { int x = 2; x } }");
    }

    #[test]
    fn dynamic_dispatch_resolution() {
        let kp = check_ok(
            "class A { int m() { 1 } }
             class B extends A { int m() { 2 } }
             class M { static int f(B b) { b.m() } }",
        );
        // The static resolution should point at B.m (most derived).
        let m = &kp.statics[0];
        let mut seen = false;
        crate::kernel::walk_expr(&m.body, &mut |e| {
            if let KExprKind::CallVirtual(_, crate::types::MethodId::Instance(c, _), _) = e.kind {
                assert_eq!(c, kp.table.class_id("B").unwrap());
                seen = true;
            }
        });
        assert!(seen);
    }

    #[test]
    fn assignment_to_parameter_allowed() {
        check_ok("class L { L n; static L f(L xs) { xs = xs.n; xs } }");
    }

    #[test]
    fn void_discard_in_sequence() {
        check_ok("class M { static void g() { } static int f() { g(); 1 } }");
    }
}
