//! Surface abstract syntax of Core-Java.
//!
//! This is what the [parser](crate::parser) produces: a faithful tree of the
//! source text, before normal type checking and kernel normalization. All
//! nodes carry [`Span`]s for diagnostics.
//!
//! Core-Java (Fig 1(a) of the paper) is a minimal, expression-oriented
//! Java-like language: classes with single inheritance, fields, instance and
//! static methods, assignment, object creation, method invocation and
//! conditionals. This implementation additionally supports `while` loops
//! (the paper desugars them; here a loop is its own node, and inference
//! conjoins the constraints of its condition and body), downcasts `(cn) e`
//! (the Sec 5 extension), primitive arrays, and `float` literals for the
//! Olden benchmarks.

use crate::intern::Symbol;
use crate::span::Span;
use std::fmt;

/// A whole compilation unit: a list of class declarations.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The classes, in source order. `Object` is implicit and not listed.
    pub classes: Vec<ClassDecl>,
}

/// Shifts every span of `program` forward by `delta` bytes (dummy spans are
/// left untouched). Multi-file drivers parse each file at offset 0 and
/// relocate the tree into that file's slice of a workspace-wide span space,
/// so spans identify both the file and the position within it.
pub fn shift_spans(program: &mut Program, delta: u32) {
    if delta == 0 {
        return;
    }
    let f = &|s: Span| -> Span {
        if s.is_dummy() {
            s
        } else {
            Span::new(s.lo + delta, s.hi + delta)
        }
    };
    for class in &mut program.classes {
        class.span = f(class.span);
        for field in &mut class.fields {
            field.span = f(field.span);
        }
        for method in &mut class.methods {
            method.span = f(method.span);
            for p in &mut method.params {
                p.span = f(p.span);
            }
            shift_block(&mut method.body, f);
        }
    }
}

fn shift_block(b: &mut Block, f: &impl Fn(Span) -> Span) {
    b.span = f(b.span);
    for s in &mut b.stmts {
        shift_stmt(s, f);
    }
    if let Some(tail) = &mut b.tail {
        shift_expr(tail, f);
    }
}

fn shift_stmt(s: &mut Stmt, f: &impl Fn(Span) -> Span) {
    match s {
        Stmt::Decl { init, span, .. } => {
            *span = f(*span);
            if let Some(e) = init {
                shift_expr(e, f);
            }
        }
        Stmt::Assign {
            target,
            value,
            span,
        } => {
            *span = f(*span);
            shift_lvalue(target, f);
            shift_expr(value, f);
        }
        Stmt::Expr(e) => shift_expr(e, f),
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            span,
        } => {
            *span = f(*span);
            shift_expr(cond, f);
            shift_block(then_blk, f);
            if let Some(b) = else_blk {
                shift_block(b, f);
            }
        }
        Stmt::While { cond, body, span } => {
            *span = f(*span);
            shift_expr(cond, f);
            shift_block(body, f);
        }
        Stmt::Return { value, span } => {
            *span = f(*span);
            if let Some(e) = value {
                shift_expr(e, f);
            }
        }
    }
}

fn shift_lvalue(lv: &mut LValue, f: &impl Fn(Span) -> Span) {
    match lv {
        LValue::Var(_) => {}
        LValue::Field(e, _) => shift_expr(e, f),
        LValue::Index(a, i) => {
            shift_expr(a, f);
            shift_expr(i, f);
        }
    }
}

fn shift_expr(e: &mut Expr, f: &impl Fn(Span) -> Span) {
    e.span = f(e.span);
    match &mut e.kind {
        ExprKind::Int(_)
        | ExprKind::Bool(_)
        | ExprKind::Float(_)
        | ExprKind::Null
        | ExprKind::This
        | ExprKind::Var(_)
        | ExprKind::TypedNull(_) => {}
        ExprKind::Unary(_, a) | ExprKind::Length(a) | ExprKind::Print(a) => shift_expr(a, f),
        ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
            shift_expr(a, f);
            shift_expr(b, f);
        }
        ExprKind::Field(a, _) => shift_expr(a, f),
        ExprKind::Call { recv, args, .. } => {
            if let Some(r) = recv {
                shift_expr(r, f);
            }
            for a in args {
                shift_expr(a, f);
            }
        }
        ExprKind::New { args, .. } => {
            for a in args {
                shift_expr(a, f);
            }
        }
        ExprKind::NewArray { len, .. } => shift_expr(len, f),
        ExprKind::Cast { expr, .. } => shift_expr(expr, f),
        ExprKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            shift_expr(cond, f);
            shift_block(then_blk, f);
            shift_block(else_blk, f);
        }
        ExprKind::Block(b) => shift_block(b, f),
    }
}

/// `class cn extends cn' { fields methods }`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: Symbol,
    /// Superclass name; `None` means `Object`.
    pub superclass: Option<Symbol>,
    /// Field declarations (own fields only; inherited fields are implicit).
    pub fields: Vec<FieldDecl>,
    /// Instance and static methods.
    pub methods: Vec<MethodDecl>,
    /// Location of the declaration header.
    pub span: Span,
}

/// `t f;`
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Declared type.
    pub ty: Ty,
    /// Field name.
    pub name: Symbol,
    /// Location of the declaration.
    pub span: Span,
}

/// `[static] t mn(t1 v1, ..., tn vn) { ... }`
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// `true` for static methods (no `this`, no overriding).
    pub is_static: bool,
    /// Declared return type.
    pub ret: Ty,
    /// Method name.
    pub name: Symbol,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// The body block; its value is the method result.
    pub body: Block,
    /// Location of the method header.
    pub span: Span,
}

/// A formal parameter `t v`.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Declared type.
    pub ty: Ty,
    /// Parameter name.
    pub name: Symbol,
    /// Location.
    pub span: Span,
}

/// A surface (unannotated) type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// `int`
    Int,
    /// `bool`
    Bool,
    /// `float`
    Float,
    /// `void`
    Void,
    /// A class type `cn`.
    Class(Symbol),
    /// A primitive array type `t[]` (element must be a primitive).
    Array(Box<Ty>),
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => f.write_str("int"),
            Ty::Bool => f.write_str("bool"),
            Ty::Float => f.write_str("float"),
            Ty::Void => f.write_str("void"),
            Ty::Class(s) => write!(f, "{s}"),
            Ty::Array(t) => write!(f, "{t}[]"),
        }
    }
}

/// `{ stmt* expr? }` — a block whose value is the trailing expression (or
/// `void` when absent).
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Leading statements.
    pub stmts: Vec<Stmt>,
    /// Optional result expression.
    pub tail: Option<Box<Expr>>,
    /// Location of the whole block.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `t v;` or `t v = e;`
    Decl {
        /// Declared type.
        ty: Ty,
        /// Variable name.
        name: Symbol,
        /// Optional initializer.
        init: Option<Expr>,
        /// Location.
        span: Span,
    },
    /// `lhs = e;`
    Assign {
        /// Assignment target.
        target: LValue,
        /// Assigned value.
        value: Expr,
        /// Location.
        span: Span,
    },
    /// An expression evaluated for effect, `e;`.
    Expr(Expr),
    /// `if (e) blk [else blk]` in statement position.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_blk: Block,
        /// Optional else-branch.
        else_blk: Option<Block>,
        /// Location.
        span: Span,
    },
    /// `while (e) blk`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Location.
        span: Span,
    },
    /// `return;` or `return e;` — only permitted as the last statement of a
    /// method body block (it is sugar for the block's tail expression).
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Location.
        span: Span,
    },
}

impl Stmt {
    /// The source location of this statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Return { span, .. } => *span,
            Stmt::Expr(e) => e.span,
        }
    }
}

/// An assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A local variable or parameter.
    Var(Symbol),
    /// A field of an object, `e.f`.
    Field(Box<Expr>, Symbol),
    /// An array element, `e[i]`.
    Index(Box<Expr>, Box<Expr>),
}

/// An expression with its location.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression itself.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Creates an expression node.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }
}

/// Binary operators on primitives (and reference equality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Boolean negation `!`.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        })
    }
}

/// The different expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Float literal.
    Float(f64),
    /// `null`.
    Null,
    /// `this`.
    This,
    /// A variable reference.
    Var(Symbol),
    /// Unary operation on a primitive.
    Unary(UnOp, Box<Expr>),
    /// Binary operation on primitives (or reference equality).
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Field read `e.f`.
    Field(Box<Expr>, Symbol),
    /// Method call. `recv = None` is a static call `mn(args)`; otherwise an
    /// instance call `e.mn(args)` with dynamic dispatch.
    Call {
        /// Receiver for instance calls.
        recv: Option<Box<Expr>>,
        /// Method name.
        name: Symbol,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `new cn(args)` — allocates an object and initializes all fields
    /// positionally (inherited fields first, in declaration order).
    New {
        /// Class to instantiate.
        class: Symbol,
        /// One argument per field.
        args: Vec<Expr>,
    },
    /// `new t[e]` — a primitive array, zero-initialized.
    NewArray {
        /// Element type (primitive).
        elem: Ty,
        /// Length expression.
        len: Box<Expr>,
    },
    /// Array read `e[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// `e.length` on arrays.
    Length(Box<Expr>),
    /// `(cn) e` — up- or downcast; `(cn) null` is the typed null of Fig 1.
    Cast {
        /// Target class.
        class: Symbol,
        /// Subject expression.
        expr: Box<Expr>,
    },
    /// `(t) null` with an explicit type — covers `(cn) null` and array
    /// nulls like `(int[]) null`.
    TypedNull(Ty),
    /// `if (c) e1 else e2` in expression position.
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_blk: Block,
        /// Value when false.
        else_blk: Block,
    },
    /// A nested block expression.
    Block(Block),
    /// `print(e)` — debugging intrinsic; evaluates and prints `e`, type `void`.
    Print(Box<Expr>),
}
