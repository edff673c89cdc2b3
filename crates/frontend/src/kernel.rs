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
    /// Source location of the declaration.
    pub span: Span,
}

impl KMethod {
    /// The type of variable `v`.
    pub fn var_ty(&self, v: VarId) -> NType {
        self.vars[v.index()].ty
    }
}

/// A typed kernel expression.
#[derive(Debug, Clone)]
pub struct KExpr {
    /// The expression.
    pub kind: KExprKind,
    /// Its normal type.
    pub ty: NType,
    /// Source location.
    pub span: Span,
}

impl KExpr {
    /// Creates a node.
    pub fn new(kind: KExprKind, ty: NType, span: Span) -> KExpr {
        KExpr { kind, ty, span }
    }

    /// The direct sub-expressions, in evaluation order.
    pub fn children(&self) -> impl Iterator<Item = &KExpr> {
        let (a, b, c, items): (_, _, _, &[KExpr]) = match &self.kind {
            KExprKind::AssignVar(_, a)
            | KExprKind::AssignField(_, _, a)
            | KExprKind::NewArray(_, a)
            | KExprKind::Index(_, a)
            | KExprKind::Unary(_, a)
            | KExprKind::Print(a) => (Some(&**a), None, None, &[]),
            KExprKind::AssignIndex(_, a, b)
            | KExprKind::Binary(_, a, b)
            | KExprKind::While { cond: a, body: b } => (Some(&**a), Some(&**b), None, &[]),
            KExprKind::If {
                cond,
                then_e,
                else_e,
            } => (Some(&**cond), Some(&**then_e), Some(&**else_e), &[]),
            KExprKind::Let { init, .. } => (init.as_deref(), None, None, &[]),
            KExprKind::Block(items) => (None, None, None, items),
            _ => (None, None, None, &[]),
        };
        a.into_iter().chain(b).chain(c).chain(items)
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

/// Visits every sub-expression of `e` (pre-order), including `e` itself.
pub fn walk_expr<'a>(e: &'a KExpr, f: &mut impl FnMut(&'a KExpr)) {
    f(e);
    for c in e.children() {
        walk_expr(c, f);
    }
}
