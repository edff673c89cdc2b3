//! Span-insensitive fingerprints of kernel programs.
//!
//! The incremental pipeline ([`pipeline::InferCache`]) needs to know two
//! things about a re-typechecked program:
//!
//! - has the **shape** changed — the class hierarchy, field lists, method
//!   signatures, and the whole-program body-derived bits (`isRecReadOnly`,
//!   presence of downcasts) that feed signature construction? Any shape
//!   change renumbers signature regions, so all cached per-method results
//!   are dropped.
//! - has an individual **method body** changed? Unchanged bodies reuse
//!   their cached symbolic inference result (rebased onto the current
//!   region-id range).
//!
//! Both fingerprints deliberately ignore [`Span`]s: an edit that only moves
//! code (whitespace, edits to an unrelated method earlier in the same file)
//! must not invalidate anything downstream of parsing.
//!
//! [`pipeline::InferCache`]: crate::pipeline::InferCache
//! [`Span`]: cj_diag::Span

use cj_frontend::kernel::{KExpr, KExprKind, KMethod, KProgram};
use cj_frontend::types::{MethodId, NType};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Fingerprint of everything that determines region-signature numbering:
/// class structure, normal method signatures, static method list, the
/// recursive-read-only bitmap, and whether the program contains downcasts.
pub fn shape_fingerprint(kp: &KProgram) -> u64 {
    let mut h = DefaultHasher::new();
    for info in kp.table.classes() {
        info.name.as_str().hash(&mut h);
        info.superclass.hash(&mut h);
        for f in &info.own_fields {
            f.name.as_str().hash(&mut h);
            f.ty.hash(&mut h);
        }
        0xfeu8.hash(&mut h);
        for m in &info.own_methods {
            m.name.as_str().hash(&mut h);
            m.params.hash(&mut h);
            m.ret.hash(&mut h);
        }
        0xffu8.hash(&mut h);
    }
    for s in kp.table.statics() {
        s.name.as_str().hash(&mut h);
        s.params.hash(&mut h);
        s.ret.hash(&mut h);
    }
    crate::recro::rec_read_only(kp).hash(&mut h);
    crate::ctx::program_has_downcasts(kp).hash(&mut h);
    h.finish()
}

/// Span-insensitive fingerprint of one method: variables, parameters,
/// return type and the body tree.
pub fn method_fingerprint(kp: &KProgram, id: MethodId) -> u64 {
    let mut h = DefaultHasher::new();
    hash_method(kp.method(id), &mut h);
    h.finish()
}

fn hash_method(m: &KMethod, h: &mut impl Hasher) {
    m.name.as_str().hash(h);
    m.owner.hash(h);
    m.is_static.hash(h);
    for v in &m.vars {
        v.name.as_str().hash(h);
        v.ty.hash(h);
        v.is_temp.hash(h);
    }
    m.params.hash(h);
    m.ret.hash(h);
    hash_expr(&m.body, h);
}

fn hash_ty(ty: NType, h: &mut impl Hasher) {
    ty.hash(h);
}

fn hash_expr(e: &KExpr, h: &mut impl Hasher) {
    hash_ty(e.ty, h);
    std::mem::discriminant(&e.kind).hash(h);
    // The node's own payload, then its children.
    match &e.kind {
        KExprKind::Int(v) => v.hash(h),
        KExprKind::Bool(v) => v.hash(h),
        KExprKind::Float(v) => v.to_bits().hash(h),
        KExprKind::Var(v)
        | KExprKind::ArrayLen(v)
        | KExprKind::AssignVar(v, _)
        | KExprKind::Index(v, _)
        | KExprKind::AssignIndex(v, _, _) => v.hash(h),
        KExprKind::Field(v, fr) | KExprKind::AssignField(v, fr, _) => {
            v.hash(h);
            fr.hash(h);
        }
        KExprKind::New(c, args) => {
            c.hash(h);
            args.hash(h);
        }
        KExprKind::NewArray(p, _) => p.hash(h),
        KExprKind::CallVirtual(v, m, args) => {
            v.hash(h);
            m.hash(h);
            args.hash(h);
        }
        KExprKind::CallStatic(m, args) => {
            m.hash(h);
            args.hash(h);
        }
        // The item count pins the shape: a nested block is not its items
        // spliced into the parent.
        KExprKind::Block(items) => items.len().hash(h),
        KExprKind::Let { var, init } => {
            var.hash(h);
            init.is_some().hash(h);
        }
        KExprKind::Cast(c, v) => {
            c.hash(h);
            v.hash(h);
        }
        KExprKind::Unary(op, _) => op.hash(h),
        KExprKind::Binary(op, _, _) => op.hash(h),
        _ => {}
    }
    for c in e.children() {
        hash_expr(c, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cj_frontend::typecheck::check_source;
    use cj_frontend::types::MethodId;

    const BASE: &str = "class Cell { Object item;
        Object get() { this.item }
        void put(Object o) { this.item = o; }
    }";

    #[test]
    fn whitespace_and_comments_do_not_change_fingerprints() {
        let a = check_source(BASE).unwrap();
        let b = check_source(&format!("\n\n  {BASE}")).unwrap();
        assert_eq!(shape_fingerprint(&a), shape_fingerprint(&b));
        let cell = a.table.class_id("Cell").unwrap();
        for slot in 0..2 {
            assert_eq!(
                method_fingerprint(&a, MethodId::Instance(cell, slot)),
                method_fingerprint(&b, MethodId::Instance(cell, slot)),
            );
        }
    }

    #[test]
    fn body_edit_changes_only_that_method() {
        let a = check_source(BASE).unwrap();
        let edited = BASE.replace("{ this.item }", "{ this.put(null); this.item }");
        let b = check_source(&edited).unwrap();
        assert_eq!(
            shape_fingerprint(&a),
            shape_fingerprint(&b),
            "signatures unchanged"
        );
        let cell = a.table.class_id("Cell").unwrap();
        assert_ne!(
            method_fingerprint(&a, MethodId::Instance(cell, 0)),
            method_fingerprint(&b, MethodId::Instance(cell, 0)),
        );
        assert_eq!(
            method_fingerprint(&a, MethodId::Instance(cell, 1)),
            method_fingerprint(&b, MethodId::Instance(cell, 1)),
        );
    }

    #[test]
    fn shape_covers_rec_read_only_flips() {
        // `next` is only written in a constructor position in A, but a
        // mutating setter flips isRecReadOnly — a body-level change that
        // must invalidate the shape (it alters the field-subtyping rule for
        // every method).
        let quiet = "class L { Object v; L next; L get() { this.next } }";
        let mutating = "class L { Object v; L next; L get() { this.next = this.next; this.next } }";
        let a = check_source(quiet).unwrap();
        let b = check_source(mutating).unwrap();
        assert_ne!(shape_fingerprint(&a), shape_fingerprint(&b));
    }

    /// `Block[Block[a], b]` and `Block[Block[a, b]]` visit the same nodes
    /// in the same order; only the item counts tell them apart.
    #[test]
    fn block_item_counts_are_hashed() {
        let int = |v| KExpr::new(KExprKind::Int(v), NType::INT, cj_diag::Span::DUMMY);
        let block = |items| KExpr::new(KExprKind::Block(items), NType::INT, cj_diag::Span::DUMMY);
        let hash = |e: &KExpr| {
            let mut h = DefaultHasher::new();
            hash_expr(e, &mut h);
            h.finish()
        };
        let split = block(vec![block(vec![int(1)]), int(2)]);
        let joined = block(vec![block(vec![int(1), int(2)])]);
        assert_ne!(hash(&split), hash(&joined));
    }
}
