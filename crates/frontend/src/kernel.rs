//! The kernel (normalized, typed) representation of Core-Java.
//!
//! The region inference rules of Fig 3 are stated over a language in which
//! receivers, call arguments and constructor arguments are *variables*
//! (`v.f`, `v.mn(v₁…vₙ)`, `new cn(v₁…vₙ)`). The
//! [type checker](crate::typecheck) lowers the surface AST into this form,
//! introducing temporaries where needed, resolving every `null` against its
//! class context, and annotating every node with its normal type.
//!
//! Primitives carry no regions, so primitive-valued subexpressions
//! (arithmetic, conditions, indices) are left as trees.

use crate::ast::{BinOp, UnOp};
use crate::classtable::ClassTable;
use crate::intern::Symbol;
use crate::span::Span;
use crate::types::{ClassId, MethodId, NType, Prim, VarId, VarInfo};
use std::fmt;

/// A fully typed, normalized program.
#[derive(Debug, Clone)]
pub struct KProgram {
    /// Class hierarchy and signatures.
    pub table: ClassTable,
    /// Instance-method bodies, indexed `[class][own-method]` parallel to
    /// `table.class(id).own_methods`. `Object` has an empty entry.
    pub methods: Vec<Vec<KMethod>>,
    /// Static-method bodies, parallel to `table.statics()`.
    pub statics: Vec<KMethod>,
    /// Per class, whether field region subtyping may apply to it: the
    /// Sec 3.2 `isRecReadOnly` analysis, computed once by typecheck and
    /// read by both inference and the region checker.
    pub rec_read_only: Vec<bool>,
}

impl KProgram {
    /// Fetches a method body by id.
    pub fn method(&self, id: MethodId) -> &KMethod {
        match id {
            MethodId::Instance(c, i) => &self.methods[c.index()][i as usize],
            MethodId::Static(i) => &self.statics[i as usize],
        }
    }

    /// Iterates over every method body (instance then static) with its id.
    pub fn all_methods(&self) -> impl Iterator<Item = (MethodId, &KMethod)> {
        let inst = self.methods.iter().enumerate().flat_map(|(c, ms)| {
            ms.iter()
                .enumerate()
                .map(move |(i, m)| (MethodId::Instance(ClassId(c as u32), i as u32), m))
        });
        let stat = self
            .statics
            .iter()
            .enumerate()
            .map(|(i, m)| (MethodId::Static(i as u32), m));
        inst.chain(stat)
    }

    /// Display name `cn.mn` or `mn` of a method.
    pub fn method_name(&self, id: MethodId) -> String {
        match id {
            MethodId::Instance(c, i) => format!(
                "{}.{}",
                self.table.name(c),
                self.table.class(c).own_methods[i as usize].name
            ),
            MethodId::Static(i) => self.table.statics()[i as usize].name.to_string(),
        }
    }
}

/// A method body in kernel form.
#[derive(Debug, Clone)]
pub struct KMethod {
    /// Method name.
    pub name: Symbol,
    /// The class whose declaration contains this method (for statics this is
    /// only informational).
    pub owner: ClassId,
    /// Whether this is a static method.
    pub is_static: bool,
    /// All variables: slot 0 is `this` for instance methods; parameters
    /// follow; then locals and temporaries.
    pub vars: Vec<VarInfo>,
    /// The parameter slots (excluding `this`).
    pub params: Vec<VarId>,
    /// Declared return type.
    pub ret: NType,
    /// The body expression; its value is the method result.
    pub body: KExpr,
    /// How many expressions the body holds: their ids are `0..expr_count`,
    /// in pre-order.
    pub expr_count: u32,
    /// Source location of the declaration.
    pub span: Span,
}

impl KMethod {
    /// The type of variable `v`.
    pub fn var_ty(&self, v: VarId) -> NType {
        self.vars[v.index()].ty
    }
}

/// A kernel expression's dense id within its method: the body's
/// expressions are numbered `0..KMethod::expr_count` in pre-order, so a
/// subtree's ids are one contiguous range starting at its root's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub u32);

impl ExprId {
    /// The id as an index into a per-method table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The direct sub-expressions of a `kind`, in evaluation order: the one
/// definition behind [`KExpr::children`] and [`KExpr::children_mut`]
/// (`$m` is `mut` for the latter), whose order the pre-order ids rely on.
macro_rules! children {
    ($kind:expr, $as_deref:ident $(, $m:tt)?) => {{
        let (a, b, c, items): (_, _, _, &$($m)? [KExpr]) = match $kind {
            KExprKind::AssignVar(_, a)
            | KExprKind::AssignField(_, _, a)
            | KExprKind::NewArray(_, a)
            | KExprKind::Index(_, a)
            | KExprKind::Unary(_, a)
            | KExprKind::Print(a) => (Some(&$($m)? **a), None, None, &$($m)? []),
            KExprKind::AssignIndex(_, a, b)
            | KExprKind::Binary(_, a, b)
            | KExprKind::While { cond: a, body: b } => {
                (Some(&$($m)? **a), Some(&$($m)? **b), None, &$($m)? [])
            }
            KExprKind::If {
                cond,
                then_e,
                else_e,
            } => (
                Some(&$($m)? **cond),
                Some(&$($m)? **then_e),
                Some(&$($m)? **else_e),
                &$($m)? [],
            ),
            KExprKind::Let { init, .. } => (init.$as_deref(), None, None, &$($m)? []),
            KExprKind::Block(items) => (None, None, None, items),
            _ => (None, None, None, &$($m)? []),
        };
        a.into_iter().chain(b).chain(c).chain(items)
    }};
}

/// A typed kernel expression.
#[derive(Debug, Clone)]
pub struct KExpr {
    /// Dense pre-order id within the method (see [`ExprId`]).
    pub id: ExprId,
    /// The expression.
    pub kind: KExprKind,
    /// Its normal type.
    pub ty: NType,
    /// Source location.
    pub span: Span,
}

impl KExpr {
    /// Creates a node; [`number_exprs`] gives it its id once the body is
    /// complete.
    pub fn new(kind: KExprKind, ty: NType, span: Span) -> KExpr {
        let id = ExprId(u32::MAX);
        KExpr { id, kind, ty, span }
    }

    /// The direct sub-expressions, in evaluation order.
    pub fn children(&self) -> impl Iterator<Item = &KExpr> {
        children!(&self.kind, as_deref)
    }

    /// [`Self::children`], mutably.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut KExpr> {
        children!(&mut self.kind, as_deref_mut, mut)
    }

    /// The variables this node's own operation reads or writes — its
    /// operand, receiver or cast subject, then its arguments — not its
    /// children's. A `let`'s declared variable is not among them.
    pub fn own_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        let (one, args): (_, &[VarId]) = match &self.kind {
            KExprKind::Var(v)
            | KExprKind::Field(v, _)
            | KExprKind::ArrayLen(v)
            | KExprKind::AssignVar(v, _)
            | KExprKind::AssignField(v, _, _)
            | KExprKind::Index(v, _)
            | KExprKind::AssignIndex(v, _, _)
            | KExprKind::Cast(_, v) => (Some(v), &[]),
            KExprKind::New(_, args) | KExprKind::CallStatic(_, args) => (None, args),
            KExprKind::CallVirtual(recv, _, args) => (Some(recv), args),
            _ => (None, &[]),
        };
        one.into_iter().chain(args).copied()
    }

    /// The items of a block; any other expression is its own one item.
    pub fn items(&self) -> &[KExpr] {
        match &self.kind {
            KExprKind::Block(items) => items,
            _ => std::slice::from_ref(self),
        }
    }

    /// A block of the nonempty `items`, typed by its last item; a single
    /// item stands for itself.
    pub fn block(mut items: Vec<KExpr>) -> KExpr {
        if items.len() == 1 {
            return items.pop().expect("one item");
        }
        let last = items.last().expect("a block has a value item");
        let (ty, span) = (last.ty, items[0].span.to(last.span));
        KExpr::new(KExprKind::Block(items), ty, span)
    }
}

/// Kernel expression forms.
#[derive(Debug, Clone)]
pub enum KExprKind {
    /// The unit value (empty statement / void).
    Unit,
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Float literal.
    Float(f64),
    /// `null`, resolved to a class or array context. This is the paper's
    /// `(cn) null` — every occurrence receives fresh regions at inference.
    Null,
    /// A variable read (`this` is variable slot 0).
    Var(VarId),
    /// Field read `v.f`.
    Field(VarId, FieldRef),
    /// Variable assignment `v = e`; has type `void`.
    AssignVar(VarId, Box<KExpr>),
    /// Field assignment `v.f = e`; has type `void`.
    AssignField(VarId, FieldRef, Box<KExpr>),
    /// Object allocation `new cn(v₁…vₙ)` with one argument per field.
    New(ClassId, Vec<VarId>),
    /// Primitive-array allocation `new p[e]`.
    NewArray(Prim, Box<KExpr>),
    /// Array read `v[e]`.
    Index(VarId, Box<KExpr>),
    /// Array write `v[e₁] = e₂`; has type `void`.
    AssignIndex(VarId, Box<KExpr>, Box<KExpr>),
    /// `v.length`.
    ArrayLen(VarId),
    /// Instance call `v.mn(v₁…vₙ)`. `MethodId` names the statically
    /// resolved declaration (dispatch may select an override at runtime).
    CallVirtual(VarId, MethodId, Vec<VarId>),
    /// Static call `mn(v₁…vₙ)`.
    CallStatic(MethodId, Vec<VarId>),
    /// A block `{ e₁; …; eₙ }`: the items run in order and the last
    /// one's value is the block's (an empty block is unit). The values of
    /// the other items are discarded.
    Block(Vec<KExpr>),
    /// A declaration `t v [= init]`, an item of a [`KExprKind::Block`]; it
    /// has type `void` and its scope is the rest of the enclosing block.
    Let {
        /// The declared variable.
        var: VarId,
        /// Optional initializer.
        init: Option<Box<KExpr>>,
    },
    /// Conditional; when used as a statement both arms have type `void`.
    If {
        /// Boolean condition.
        cond: Box<KExpr>,
        /// Then branch.
        then_e: Box<KExpr>,
        /// Else branch.
        else_e: Box<KExpr>,
    },
    /// `while (cond) body`; has type `void`.
    While {
        /// Boolean condition.
        cond: Box<KExpr>,
        /// Body, evaluated for effect.
        body: Box<KExpr>,
    },
    /// Downcast or upcast `(cn) v`.
    Cast(ClassId, VarId),
    /// Unary primitive operation.
    Unary(UnOp, Box<KExpr>),
    /// Binary primitive operation (or reference equality on two variables).
    Binary(BinOp, Box<KExpr>, Box<KExpr>),
    /// Debug print; has type `void`.
    Print(Box<KExpr>),
}

/// A resolved field reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// The class that declares the field.
    pub owner: ClassId,
    /// Constructor-order index of the field within the *receiver's* class.
    pub index: u32,
    /// Field name.
    pub name: Symbol,
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Numbers `body`'s expressions `0..n` in pre-order and returns `n`.
pub fn number_exprs(body: &mut KExpr) -> u32 {
    fn number(e: &mut KExpr, next: &mut u32) {
        e.id = ExprId(*next);
        *next += 1;
        for c in e.children_mut() {
            number(c, next);
        }
    }
    let mut next = 0;
    number(body, &mut next);
    next
}

/// Visits every sub-expression of `e` (pre-order), including `e` itself.
pub fn walk_expr<'a>(e: &'a KExpr, f: &mut impl FnMut(&'a KExpr)) {
    f(e);
    for c in e.children() {
        walk_expr(c, f);
    }
}
