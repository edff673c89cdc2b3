//! Recursive-descent parser for Core-Java.
//!
//! The grammar is Java-flavoured:
//!
//! ```text
//! program  ::= class*
//! class    ::= "class" IDENT ["extends" IDENT] "{" (field | method)* "}"
//! field    ::= type IDENT ";"
//! method   ::= ["static"] type IDENT "(" (type IDENT),* ")" block
//! type     ::= "int" | "bool" | "float" | "void" | IDENT | type "[]"
//! block    ::= "{" stmt* [expr] "}"
//! stmt     ::= type IDENT ["=" expr] ";"
//!            | lvalue "=" expr ";"
//!            | expr ";"
//!            | "if" "(" expr ")" block ["else" (block | ifstmt)]
//!            | "while" "(" expr ")" block
//!            | "return" [expr] ";"
//! ```
//!
//! Expressions use conventional precedence; postfix forms are field access
//! `e.f`, instance call `e.m(args)`, indexing `e[i]` and `e.length`. A block
//! whose last item is an `if`/`else` or a `;`-less expression yields that
//! value (Core-Java is expression-oriented).
//!
//! # Examples
//!
//! ```
//! use cj_frontend::parser::parse_program;
//!
//! let src = "class P extends Object { int x; int getX() { this.x } }";
//! let program = parse_program(src).expect("parses");
//! assert_eq!(program.classes.len(), 1);
//! ```

use crate::ast::*;
use crate::intern::Symbol;
use crate::lexer::lex;
use crate::span::{Diagnostics, Span};
use crate::token::{Token, TokenKind};

/// Parses a whole Core-Java program.
///
/// # Errors
///
/// Returns all lexical and syntactic diagnostics if the source does not
/// parse.
pub fn parse_program(src: &str) -> Result<Program, Diagnostics> {
    let (tokens, diags) = lex(src);
    let mut diags = diags.set_default_code(cj_diag::codes::LEX);
    if diags.has_errors() {
        return Err(diags);
    }
    let mut parser = Parser {
        tokens,
        pos: 0,
        diags: Diagnostics::new(),
        depth: 0,
        height: 0,
        deep_reported: false,
    };
    let program = parser.program();
    diags.extend(parser.diags.set_default_code(cj_diag::codes::PARSE));
    if diags.has_errors() {
        Err(diags)
    } else {
        Ok(program)
    }
}

/// Parses a single expression (used by tests and tools).
///
/// # Errors
///
/// Returns diagnostics when the text is not a single well-formed expression.
pub fn parse_expr(src: &str) -> Result<Expr, Diagnostics> {
    let (tokens, diags) = lex(src);
    let diags = diags.set_default_code(cj_diag::codes::LEX);
    if diags.has_errors() {
        return Err(diags);
    }
    let mut parser = Parser {
        tokens,
        pos: 0,
        diags: Diagnostics::new(),
        depth: 0,
        height: 0,
        deep_reported: false,
    };
    let e = parser.expr();
    parser.expect(TokenKind::Eof);
    if parser.diags.has_errors() {
        Err(parser.diags.set_default_code(cj_diag::codes::PARSE))
    } else {
        Ok(e)
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Diagnostics,
    /// Open parser recursions: expressions, prefix operators, casts and
    /// blocks being parsed.
    depth: u32,
    /// Left-nesting of the expression being built: a binary operator or
    /// postfix step sinks everything parsed so far in its chain one level
    /// under the new node.
    height: u32,
    /// Whether the statement being parsed already got its "nesting too
    /// deep" diagnostic; reset at each statement that starts within the
    /// budget, so one over-deep statement gets one diagnostic.
    deep_reported: bool,
}

/// The one nesting budget. Parser recursion (`depth`: brackets, call
/// arguments, prefix operators, casts, blocks) and left-nesting (`height`:
/// binary-operator chains and postfix steps) each stay within it, so every
/// syntax tree's depth is a small multiple of it at most and no later
/// recursive pass overflows the stack. Deeper input is reported as a
/// diagnostic.
const MAX_NESTING: u32 = 64;

/// Binary operators by precedence level, loosest first; each level is
/// left-associative.
const BINARY_LEVELS: [&[(TokenKind, BinOp)]; 6] = [
    &[(TokenKind::OrOr, BinOp::Or)],
    &[(TokenKind::AndAnd, BinOp::And)],
    &[(TokenKind::EqEq, BinOp::Eq), (TokenKind::NotEq, BinOp::Ne)],
    &[
        (TokenKind::Lt, BinOp::Lt),
        (TokenKind::Le, BinOp::Le),
        (TokenKind::Gt, BinOp::Gt),
        (TokenKind::Ge, BinOp::Ge),
    ],
    &[
        (TokenKind::Plus, BinOp::Add),
        (TokenKind::Minus, BinOp::Sub),
    ],
    &[
        (TokenKind::Star, BinOp::Mul),
        (TokenKind::Slash, BinOp::Div),
        (TokenKind::Percent, BinOp::Rem),
    ],
];

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> TokenKind {
        self.peek().kind
    }

    fn peek_at(&self, n: usize) -> TokenKind {
        self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = *self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Span {
        if self.at(kind) {
            self.bump().span
        } else {
            let got = self.peek_kind().describe();
            let span = self.peek().span;
            self.diags
                .error(format!("expected {}, found {}", kind.describe(), got), span);
            span
        }
    }

    fn expect_ident(&mut self) -> (Symbol, Span) {
        if let TokenKind::Ident(s) = self.peek_kind() {
            let span = self.bump().span;
            (s, span)
        } else {
            let span = self.peek().span;
            self.diags.error(
                format!("expected identifier, found {}", self.peek_kind().describe()),
                span,
            );
            (Symbol::intern("<error>"), span)
        }
    }

    // ---- declarations -------------------------------------------------

    fn program(&mut self) -> Program {
        let mut classes = Vec::new();
        while !self.at(TokenKind::Eof) {
            if self.at(TokenKind::Class) {
                classes.push(self.class_decl());
            } else {
                // One diagnostic per stray run of tokens: resume at the
                // next class.
                let span = self.peek().span;
                self.diags.error(
                    format!("expected `class`, found {}", self.peek_kind().describe()),
                    span,
                );
                while !self.at(TokenKind::Class) && !self.at(TokenKind::Eof) {
                    self.bump();
                }
            }
        }
        Program { classes }
    }

    fn class_decl(&mut self) -> ClassDecl {
        let start = self.expect(TokenKind::Class);
        let (name, _) = self.expect_ident();
        let superclass = if self.eat(TokenKind::Extends) {
            let (s, _) = self.expect_ident();
            if s.as_str() == "Object" {
                None
            } else {
                Some(s)
            }
        } else {
            None
        };
        self.expect(TokenKind::LBrace);
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
            let is_static = self.eat(TokenKind::Static);
            let member_start = self.peek().span;
            let ty = self.ty();
            let (name, name_span) = self.expect_ident();
            if self.at(TokenKind::LParen) {
                methods.push(self.method_rest(is_static, ty, name, member_start));
            } else {
                if is_static {
                    self.diags
                        .error("fields cannot be declared `static`", name_span);
                }
                let end = self.expect(TokenKind::Semi);
                fields.push(FieldDecl {
                    ty,
                    name,
                    span: member_start.to(end),
                });
            }
        }
        let end = self.expect(TokenKind::RBrace);
        ClassDecl {
            name,
            superclass,
            fields,
            methods,
            span: start.to(end),
        }
    }

    fn method_rest(&mut self, is_static: bool, ret: Ty, name: Symbol, start: Span) -> MethodDecl {
        self.expect(TokenKind::LParen);
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                let pstart = self.peek().span;
                let ty = self.ty();
                let (pname, pend) = self.expect_ident();
                params.push(Param {
                    ty,
                    name: pname,
                    span: pstart.to(pend),
                });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen);
        let body = self.block();
        let span = start.to(body.span);
        MethodDecl {
            is_static,
            ret,
            name,
            params,
            body,
            span,
        }
    }

    fn ty(&mut self) -> Ty {
        let mut base = match self.peek_kind() {
            TokenKind::KwInt => {
                self.bump();
                Ty::Int
            }
            TokenKind::KwBool => {
                self.bump();
                Ty::Bool
            }
            TokenKind::KwFloat => {
                self.bump();
                Ty::Float
            }
            TokenKind::KwVoid => {
                self.bump();
                Ty::Void
            }
            TokenKind::Ident(s) => {
                self.bump();
                Ty::Class(s)
            }
            other => {
                let span = self.peek().span;
                self.diags
                    .error(format!("expected type, found {}", other.describe()), span);
                self.bump();
                Ty::Void
            }
        };
        while self.at(TokenKind::LBracket) && self.peek_at(1) == TokenKind::RBracket {
            self.bump();
            self.bump();
            base = Ty::Array(Box::new(base));
        }
        base
    }

    // ---- statements and blocks ----------------------------------------

    fn block(&mut self) -> Block {
        if self.depth >= MAX_NESTING && self.at(TokenKind::LBrace) {
            // Report the over-deep block and skip it by bracket counting.
            let start = self.peek().span;
            self.report_too_deep("block nesting too deep", start);
            let end = self.skip_block();
            return Block {
                stmts: Vec::new(),
                tail: None,
                span: start.to(end),
            };
        }
        self.depth += 1;
        let start = self.expect(TokenKind::LBrace);
        let (stmts, tail) = self.block_items();
        let end = self.expect(TokenKind::RBrace);
        self.depth -= 1;
        Block {
            stmts,
            tail,
            span: start.to(end),
        }
    }

    /// Skips `{` through its matching `}`; returns the last span skipped.
    fn skip_block(&mut self) -> Span {
        let mut open = 0usize;
        loop {
            let t = self.bump();
            match t.kind {
                TokenKind::LBrace => open += 1,
                TokenKind::RBrace => open -= 1,
                TokenKind::Eof => return t.span,
                _ => {}
            }
            if open == 0 {
                return t.span;
            }
        }
    }

    /// Parses statements until `}`; a trailing `;`-less expression (or a
    /// trailing `if`/`else`) becomes the block's tail value.
    fn block_items(&mut self) -> (Vec<Stmt>, Option<Box<Expr>>) {
        let mut stmts = Vec::new();
        let mut tail = None;
        while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
            if self.depth < MAX_NESTING {
                self.deep_reported = false;
            }
            match self.peek_kind() {
                TokenKind::If => {
                    let stmt = self.if_stmt();
                    // A final if/else yields the block's value.
                    if self.at(TokenKind::RBrace) {
                        if let Stmt::If {
                            cond,
                            then_blk,
                            else_blk: Some(else_blk),
                            span,
                        } = stmt
                        {
                            tail = Some(Box::new(Expr::new(
                                ExprKind::If {
                                    cond: Box::new(cond),
                                    then_blk,
                                    else_blk,
                                },
                                span,
                            )));
                            break;
                        } else {
                            stmts.push(stmt);
                        }
                    } else {
                        stmts.push(stmt);
                    }
                }
                TokenKind::While => {
                    let start = self.bump().span;
                    self.expect(TokenKind::LParen);
                    let cond = self.expr();
                    self.expect(TokenKind::RParen);
                    let body = self.block();
                    let span = start.to(body.span);
                    stmts.push(Stmt::While { cond, body, span });
                }
                TokenKind::Return => {
                    let start = self.bump().span;
                    let value = if self.at(TokenKind::Semi) {
                        None
                    } else {
                        Some(self.expr())
                    };
                    let end = self.expect(TokenKind::Semi);
                    stmts.push(Stmt::Return {
                        value,
                        span: start.to(end),
                    });
                }
                _ if self.starts_decl() => {
                    let start = self.peek().span;
                    let ty = self.ty();
                    let (name, _) = self.expect_ident();
                    let init = if self.eat(TokenKind::Assign) {
                        Some(self.expr())
                    } else {
                        None
                    };
                    let end = self.expect(TokenKind::Semi);
                    stmts.push(Stmt::Decl {
                        ty,
                        name,
                        init,
                        span: start.to(end),
                    });
                }
                _ => {
                    let e = self.expr();
                    if self.at(TokenKind::Assign) {
                        self.bump();
                        let target = self.lvalue_of(e);
                        let value = self.expr();
                        let end = self.expect(TokenKind::Semi);
                        let span = value.span.to(end);
                        stmts.push(Stmt::Assign {
                            target,
                            value,
                            span,
                        });
                    } else if self.eat(TokenKind::Semi) {
                        stmts.push(Stmt::Expr(e));
                    } else {
                        tail = Some(Box::new(e));
                        break;
                    }
                }
            }
        }
        (stmts, tail)
    }

    fn if_stmt(&mut self) -> Stmt {
        let start = self.expect(TokenKind::If);
        self.expect(TokenKind::LParen);
        let cond = self.expr();
        self.expect(TokenKind::RParen);
        let then_blk = self.block();
        let mut span = start.to(then_blk.span);
        let else_blk = if self.eat(TokenKind::Else) {
            let blk = if self.at(TokenKind::If) {
                // `else if ...`: wrap the nested if as a single-item block.
                let nested = self.if_stmt();
                let nspan = nested.span();
                Block {
                    stmts: vec![nested],
                    tail: None,
                    span: nspan,
                }
            } else {
                self.block()
            };
            span = span.to(blk.span);
            Some(blk)
        } else {
            None
        };
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            span,
        }
    }

    /// A declaration starts with a primitive type keyword, or with
    /// `Ident Ident`, or with `Ident[] Ident` / `int[] Ident`.
    fn starts_decl(&self) -> bool {
        match self.peek_kind() {
            TokenKind::KwInt | TokenKind::KwBool | TokenKind::KwFloat | TokenKind::KwVoid => true,
            TokenKind::Ident(_) => match self.peek_at(1) {
                TokenKind::Ident(_) => true,
                TokenKind::LBracket => self.peek_at(2) == TokenKind::RBracket,
                _ => false,
            },
            _ => false,
        }
    }

    fn lvalue_of(&mut self, e: Expr) -> LValue {
        match e.kind {
            ExprKind::Var(s) => LValue::Var(s),
            ExprKind::Field(recv, f) => LValue::Field(recv, f),
            ExprKind::Index(arr, idx) => LValue::Index(arr, idx),
            _ => {
                self.diags.error("invalid assignment target", e.span);
                LValue::Var(Symbol::intern("<error>"))
            }
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Expr {
        self.nested(|p| p.binary_expr(0))
    }

    /// Parses one level deeper, or reports the over-deep expression once
    /// and skips all of it, so the enclosing levels find their closing
    /// brackets.
    fn nested(&mut self, parse: impl FnOnce(&mut Self) -> Expr) -> Expr {
        if self.depth >= MAX_NESTING {
            return self.too_deep(self.peek().span);
        }
        self.depth += 1;
        let e = parse(self);
        self.depth -= 1;
        e
    }

    /// Reports an expression nested too deeply at `span` and skips the rest
    /// of it.
    fn too_deep(&mut self, span: Span) -> Expr {
        self.report_too_deep("expression nesting too deep", span);
        self.skip_expr();
        Expr::new(ExprKind::Null, span)
    }

    /// Reports over-deep nesting unless the current statement already has
    /// such a diagnostic.
    fn report_too_deep(&mut self, message: &str, span: Span) {
        if !std::mem::replace(&mut self.deep_reported, true) {
            self.diags.error(message, span);
        }
    }

    /// Skips the tokens of one expression: everything up to the first
    /// `)`, `]`, `}`, `;` or `,` outside the brackets it opens.
    fn skip_expr(&mut self) {
        let mut open = 0usize;
        loop {
            match self.peek_kind() {
                TokenKind::Eof => return,
                TokenKind::LParen | TokenKind::LBracket | TokenKind::LBrace => open += 1,
                TokenKind::RParen | TokenKind::RBracket | TokenKind::RBrace => {
                    if open == 0 {
                        return;
                    }
                    open -= 1;
                }
                TokenKind::Semi | TokenKind::Comma if open == 0 => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Sinks the chain built so far one level under a new node at `span`;
    /// past the budget, reports it and skips the rest of the expression
    /// (`false`).
    fn sink(&mut self, span: Span) -> bool {
        self.height += 1;
        if self.height <= MAX_NESTING {
            return true;
        }
        self.height = 0;
        self.too_deep(span);
        false
    }

    /// One left-associative precedence level (`BINARY_LEVELS[level]`).
    fn binary_expr(&mut self, level: usize) -> Expr {
        let Some(ops) = BINARY_LEVELS.get(level) else {
            return self.unary_expr();
        };
        let outer = std::mem::take(&mut self.height);
        let mut lhs = self.binary_expr(level + 1);
        while let Some(&(_, op)) = ops.iter().find(|(kind, _)| self.at(*kind)) {
            let at = self.bump().span;
            let rhs = self.binary_expr(level + 1);
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
            if !self.sink(at) {
                lhs = Expr::new(ExprKind::Null, span);
                break;
            }
        }
        self.height = self.height.max(outer);
        lhs
    }

    fn unary_expr(&mut self) -> Expr {
        let op = match self.peek_kind() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Not => UnOp::Not,
            _ => return self.postfix_expr(),
        };
        let start = self.bump().span;
        self.nested(|p| {
            let e = p.unary_expr();
            let span = start.to(e.span);
            Expr::new(ExprKind::Unary(op, Box::new(e)), span)
        })
    }

    fn postfix_expr(&mut self) -> Expr {
        let outer = std::mem::take(&mut self.height);
        let mut e = self.primary_expr();
        loop {
            let at = self.peek().span;
            match self.peek_kind() {
                TokenKind::Dot => {
                    self.bump();
                    e = if self.at(TokenKind::Length) {
                        let end = self.bump().span;
                        let span = e.span.to(end);
                        Expr::new(ExprKind::Length(Box::new(e)), span)
                    } else {
                        let (name, nspan) = self.expect_ident();
                        if self.at(TokenKind::LParen) {
                            let (args, end) = self.call_args();
                            let span = e.span.to(end);
                            let recv = Some(Box::new(e));
                            Expr::new(ExprKind::Call { recv, name, args }, span)
                        } else {
                            let span = e.span.to(nspan);
                            Expr::new(ExprKind::Field(Box::new(e), name), span)
                        }
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.expr();
                    let end = self.expect(TokenKind::RBracket);
                    let span = e.span.to(end);
                    e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), span);
                }
                _ => break,
            }
            if !self.sink(at) {
                e = Expr::new(ExprKind::Null, e.span);
                break;
            }
        }
        self.height = self.height.max(outer);
        e
    }

    fn call_args(&mut self) -> (Vec<Expr>, Span) {
        self.expect(TokenKind::LParen);
        let mut args = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                args.push(self.expr());
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(TokenKind::RParen);
        (args, end)
    }

    fn primary_expr(&mut self) -> Expr {
        let t = *self.peek();
        match t.kind {
            TokenKind::Int(v) => {
                self.bump();
                Expr::new(ExprKind::Int(v), t.span)
            }
            TokenKind::Float(v) => {
                self.bump();
                Expr::new(ExprKind::Float(v), t.span)
            }
            TokenKind::True => {
                self.bump();
                Expr::new(ExprKind::Bool(true), t.span)
            }
            TokenKind::False => {
                self.bump();
                Expr::new(ExprKind::Bool(false), t.span)
            }
            TokenKind::Null => {
                self.bump();
                Expr::new(ExprKind::Null, t.span)
            }
            TokenKind::This => {
                self.bump();
                Expr::new(ExprKind::This, t.span)
            }
            TokenKind::Print => {
                self.bump();
                self.expect(TokenKind::LParen);
                let e = self.expr();
                let end = self.expect(TokenKind::RParen);
                let span = t.span.to(end);
                Expr::new(ExprKind::Print(Box::new(e)), span)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(TokenKind::LParen) {
                    let (args, end) = self.call_args();
                    let span = t.span.to(end);
                    Expr::new(
                        ExprKind::Call {
                            recv: None,
                            name,
                            args,
                        },
                        span,
                    )
                } else {
                    Expr::new(ExprKind::Var(name), t.span)
                }
            }
            TokenKind::New => {
                self.bump();
                let ty = self.ty_base();
                if self.at(TokenKind::LBracket) {
                    self.bump();
                    let len = self.expr();
                    let end = self.expect(TokenKind::RBracket);
                    let span = t.span.to(end);
                    Expr::new(
                        ExprKind::NewArray {
                            elem: ty,
                            len: Box::new(len),
                        },
                        span,
                    )
                } else {
                    let class = match ty {
                        Ty::Class(s) => s,
                        other => {
                            self.diags.error(
                                format!("cannot `new` the primitive type `{other}`"),
                                t.span,
                            );
                            Symbol::intern("<error>")
                        }
                    };
                    let (args, end) = self.call_args();
                    let span = t.span.to(end);
                    Expr::new(ExprKind::New { class, args }, span)
                }
            }
            TokenKind::LParen => {
                // `(type) null` — typed null, including array types.
                if let Some(e) = self.try_typed_null() {
                    return e;
                }
                // Either a cast `(cn) e` or a grouping `(e)`.
                if let TokenKind::Ident(class) = self.peek_at(1) {
                    if self.peek_at(2) == TokenKind::RParen && self.cast_follows(3) {
                        self.bump(); // (
                        self.bump(); // ident
                        self.bump(); // )
                        return self.nested(|p| {
                            let e = p.unary_expr();
                            let span = t.span.to(e.span);
                            Expr::new(
                                ExprKind::Cast {
                                    class,
                                    expr: Box::new(e),
                                },
                                span,
                            )
                        });
                    }
                }
                self.bump();
                let e = self.expr();
                self.expect(TokenKind::RParen);
                e
            }
            TokenKind::LBrace => {
                let b = self.block();
                let span = b.span;
                Expr::new(ExprKind::Block(b), span)
            }
            other => {
                self.diags.error(
                    format!("expected expression, found {}", other.describe()),
                    t.span,
                );
                self.bump();
                Expr::new(ExprKind::Null, t.span)
            }
        }
    }

    /// Base type without array suffix (used after `new`).
    fn ty_base(&mut self) -> Ty {
        match self.peek_kind() {
            TokenKind::KwInt => {
                self.bump();
                Ty::Int
            }
            TokenKind::KwBool => {
                self.bump();
                Ty::Bool
            }
            TokenKind::KwFloat => {
                self.bump();
                Ty::Float
            }
            TokenKind::Ident(s) => {
                self.bump();
                Ty::Class(s)
            }
            other => {
                let span = self.peek().span;
                self.diags.error(
                    format!("expected type after `new`, found {}", other.describe()),
                    span,
                );
                self.bump();
                Ty::Void
            }
        }
    }

    /// Speculatively parses `( type ) null`, resetting on failure.
    fn try_typed_null(&mut self) -> Option<Expr> {
        let save = self.pos;
        let start = self.peek().span;
        self.bump(); // (
        if !matches!(
            self.peek_kind(),
            TokenKind::KwInt | TokenKind::KwBool | TokenKind::KwFloat | TokenKind::Ident(_)
        ) {
            self.pos = save;
            return None;
        }
        let ndiags = self.diags.len();
        let ty = self.ty();
        if self.diags.len() != ndiags {
            self.diags.items.truncate(ndiags);
            self.pos = save;
            return None;
        }
        if self.at(TokenKind::RParen) && self.peek_at(1) == TokenKind::Null {
            self.bump(); // )
            let end = self.bump().span; // null
            return Some(Expr::new(ExprKind::TypedNull(ty), start.to(end)));
        }
        self.pos = save;
        None
    }

    /// Whether the token at lookahead `n` can begin a cast operand.
    fn cast_follows(&self, n: usize) -> bool {
        matches!(
            self.peek_at(n),
            TokenKind::Ident(_)
                | TokenKind::This
                | TokenKind::Null
                | TokenKind::New
                | TokenKind::LParen
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        parse_program(src).expect("program should parse")
    }

    #[test]
    fn empty_class() {
        let p = parse_ok("class A extends Object { }");
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.classes[0].name.as_str(), "A");
        assert!(p.classes[0].superclass.is_none());
    }

    #[test]
    fn explicit_superclass() {
        let p = parse_ok("class A { } class B extends A { }");
        assert_eq!(p.classes[1].superclass.unwrap().as_str(), "A");
    }

    #[test]
    fn fields_and_methods() {
        let p = parse_ok(
            "class Pair { Object fst; Object snd; \
             Object getFst() { this.fst } \
             void setSnd(Object o) { this.snd = o; } }",
        );
        let c = &p.classes[0];
        assert_eq!(c.fields.len(), 2);
        assert_eq!(c.methods.len(), 2);
        assert!(!c.methods[0].is_static);
    }

    #[test]
    fn static_method() {
        let p = parse_ok("class M { static int id(int x) { x } }");
        assert!(p.classes[0].methods[0].is_static);
    }

    #[test]
    fn tail_expression_block() {
        let p = parse_ok("class M { int f() { int x = 1; x + 2 } }");
        let body = &p.classes[0].methods[0].body;
        assert_eq!(body.stmts.len(), 1);
        assert!(body.tail.is_some());
    }

    #[test]
    fn trailing_if_becomes_tail() {
        let p = parse_ok("class M { int f(bool b) { if (b) { 1 } else { 2 } } }");
        let body = &p.classes[0].methods[0].body;
        assert!(body.stmts.is_empty());
        assert!(matches!(
            body.tail.as_deref(),
            Some(Expr {
                kind: ExprKind::If { .. },
                ..
            })
        ));
    }

    #[test]
    fn if_without_else_is_statement() {
        let p = parse_ok("class M { void f(bool b) { if (b) { print(1); } } }");
        let body = &p.classes[0].methods[0].body;
        assert_eq!(body.stmts.len(), 1);
        assert!(body.tail.is_none());
    }

    #[test]
    fn else_if_chain() {
        let p = parse_ok(
            "class M { int f(int x) { if (x < 0) { 0 } else if (x < 10) { 1 } else { 2 } } }",
        );
        assert!(p.classes[0].methods[0].body.tail.is_some());
    }

    #[test]
    fn while_loop() {
        let p = parse_ok("class M { int f() { int i = 0; while (i < 10) { i = i + 1; } i } }");
        let body = &p.classes[0].methods[0].body;
        assert!(matches!(body.stmts[1], Stmt::While { .. }));
    }

    #[test]
    fn cast_vs_grouping() {
        let e = parse_expr("(B) a").unwrap();
        assert!(matches!(e.kind, ExprKind::Cast { .. }));
        let e = parse_expr("(a)").unwrap();
        assert!(matches!(e.kind, ExprKind::Var(_)));
        let e = parse_expr("(a) + b").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Add, _, _)));
        let e = parse_expr("(List) null").unwrap();
        assert!(matches!(e.kind, ExprKind::TypedNull(Ty::Class(_))));
        let e = parse_expr("(int[]) null").unwrap();
        assert!(matches!(e.kind, ExprKind::TypedNull(Ty::Array(_))));
    }

    #[test]
    fn new_object_and_array() {
        let e = parse_expr("new Pair(null, null)").unwrap();
        assert!(matches!(e.kind, ExprKind::New { ref args, .. } if args.len() == 2));
        let e = parse_expr("new int[10]").unwrap();
        assert!(matches!(e.kind, ExprKind::NewArray { elem: Ty::Int, .. }));
    }

    #[test]
    fn postfix_chains() {
        let e = parse_expr("xs.getNext().getValue()").unwrap();
        assert!(matches!(e.kind, ExprKind::Call { recv: Some(_), .. }));
        let e = parse_expr("a[i + 1]").unwrap();
        assert!(matches!(e.kind, ExprKind::Index(_, _)));
        let e = parse_expr("a.length").unwrap();
        assert!(matches!(e.kind, ExprKind::Length(_)));
    }

    #[test]
    fn precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        // Must parse as 1 + (2 * 3).
        if let ExprKind::Binary(BinOp::Add, _, rhs) = e.kind {
            assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
        } else {
            panic!("expected addition at top");
        }
        let e = parse_expr("a < b && c < d || e").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Or, _, _)));
    }

    #[test]
    fn array_decl_stmt() {
        let p = parse_ok("class M { void f() { int[] a = new int[3]; a[0] = 1; } }");
        let body = &p.classes[0].methods[0].body;
        assert!(matches!(
            body.stmts[0],
            Stmt::Decl {
                ty: Ty::Array(_),
                ..
            }
        ));
        assert!(matches!(
            body.stmts[1],
            Stmt::Assign {
                target: LValue::Index(_, _),
                ..
            }
        ));
    }

    #[test]
    fn field_assignment() {
        let p = parse_ok("class M { M next; void f(M o) { this.next = o; } }");
        let body = &p.classes[0].methods[0].body;
        assert!(matches!(
            body.stmts[0],
            Stmt::Assign {
                target: LValue::Field(_, _),
                ..
            }
        ));
    }

    #[test]
    fn return_sugar() {
        let p = parse_ok("class M { int f() { return 3; } }");
        assert!(matches!(
            p.classes[0].methods[0].body.stmts[0],
            Stmt::Return { .. }
        ));
    }

    #[test]
    fn parse_error_reported() {
        assert!(parse_program("class { }").is_err());
        assert!(parse_program("class A { int }").is_err());
    }

    #[test]
    fn static_field_rejected() {
        assert!(parse_program("class A { static int x; }").is_err());
    }

    #[test]
    fn extends_object_normalizes_to_none() {
        let p = parse_ok("class A extends Object { }");
        assert!(p.classes[0].superclass.is_none());
    }

    #[test]
    fn nested_blocks_as_expressions() {
        let e = parse_expr("{ int x = 1; { x } }").unwrap();
        assert!(matches!(e.kind, ExprKind::Block(_)));
    }

    #[test]
    fn an_over_deep_statement_gets_one_diagnostic() {
        let main = |body: String| format!("class M {{ static int main() {{ {body} }} }}");
        let if_else = main(format!(
            "int x = 0; {}x = 1; {}x",
            "if (x < 1) { ".repeat(70),
            "} else { 1 } ".repeat(70)
        ));
        let twice = main(format!(
            "int y = {0}1{1}; int z = {0}1{1}; y",
            "(".repeat(70),
            ")".repeat(70)
        ));
        for (src, expected) in [(if_else, 1), (twice, 2)] {
            let diags = parse_program(&src).unwrap_err();
            assert_eq!(diags.len(), expected, "{diags}");
        }
    }

    #[test]
    fn print_intrinsic() {
        let e = parse_expr("print(42)").unwrap();
        assert!(matches!(e.kind, ExprKind::Print(_)));
    }
}
