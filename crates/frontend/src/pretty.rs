//! Pretty-printing of kernel programs (for debugging and golden tests).

use crate::kernel::{KExpr, KExprKind, KMethod, KProgram};
use crate::types::{NType, VarId};
use std::fmt::Write as _;

/// Renders a kernel program as readable pseudo-source.
pub fn program_to_string(kp: &KProgram) -> String {
    let mut out = String::new();
    for info in kp.table.classes() {
        if info.id == crate::types::ClassId::OBJECT {
            continue;
        }
        write!(out, "class {}", info.name).unwrap();
        if let Some(s) = info.superclass {
            write!(out, " extends {}", kp.table.name(s)).unwrap();
        }
        out.push_str(" {\n");
        for f in &info.own_fields {
            writeln!(out, "  {} {};", kp.table.display_ty(f.ty), f.name).unwrap();
        }
        for m in &kp.methods[info.id.index()] {
            out.push_str(&method_to_string(kp, m, "  "));
        }
        out.push_str("}\n");
    }
    for m in &kp.statics {
        out.push_str(&method_to_string(kp, m, ""));
    }
    out
}

/// Renders one method.
pub fn method_to_string(kp: &KProgram, m: &KMethod, indent: &str) -> String {
    let mut out = String::new();
    write!(
        out,
        "{indent}{}{} {}(",
        if m.is_static { "static " } else { "" },
        kp.table.display_ty(m.ret),
        m.name
    )
    .unwrap();
    for (i, &p) in m.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "{} {}",
            kp.table.display_ty(m.vars[p.index()].ty),
            m.vars[p.index()].name
        )
        .unwrap();
    }
    out.push_str(") {\n");
    let mut body = String::new();
    write_expr(kp, m, &m.body, &format!("{indent}  "), &mut body);
    out.push_str(&body);
    out.push('\n');
    writeln!(out, "{indent}}}").unwrap();
    out
}

fn var_name(m: &KMethod, v: VarId) -> String {
    m.vars[v.index()].name.to_string()
}

fn write_expr(kp: &KProgram, m: &KMethod, e: &KExpr, indent: &str, out: &mut String) {
    match &e.kind {
        KExprKind::Unit => write!(out, "{indent}()").unwrap(),
        KExprKind::Int(v) => write!(out, "{indent}{v}").unwrap(),
        KExprKind::Bool(v) => write!(out, "{indent}{v}").unwrap(),
        KExprKind::Float(v) => write!(out, "{indent}{v}").unwrap(),
        KExprKind::Null => write!(out, "{indent}({}) null", kp.table.display_ty(e.ty)).unwrap(),
        KExprKind::Var(v) => write!(out, "{indent}{}", var_name(m, *v)).unwrap(),
        KExprKind::Field(v, f) => write!(out, "{indent}{}.{}", var_name(m, *v), f.name).unwrap(),
        KExprKind::AssignVar(v, rhs) => {
            writeln!(out, "{indent}{} =", var_name(m, *v)).unwrap();
            write_expr(kp, m, rhs, &format!("{indent}  "), out);
        }
        KExprKind::AssignField(v, f, rhs) => {
            writeln!(out, "{indent}{}.{} =", var_name(m, *v), f.name).unwrap();
            write_expr(kp, m, rhs, &format!("{indent}  "), out);
        }
        KExprKind::New(c, args) => {
            let args: Vec<_> = args.iter().map(|&a| var_name(m, a)).collect();
            write!(
                out,
                "{indent}new {}({})",
                kp.table.name(*c),
                args.join(", ")
            )
            .unwrap();
        }
        KExprKind::NewArray(p, len) => {
            writeln!(out, "{indent}new {p}[").unwrap();
            write_expr(kp, m, len, &format!("{indent}  "), out);
            write!(out, "]").unwrap();
        }
        KExprKind::Index(v, idx) => {
            writeln!(out, "{indent}{}[", var_name(m, *v)).unwrap();
            write_expr(kp, m, idx, &format!("{indent}  "), out);
            write!(out, "]").unwrap();
        }
        KExprKind::AssignIndex(v, idx, val) => {
            writeln!(out, "{indent}{}[..] =", var_name(m, *v)).unwrap();
            write_expr(kp, m, idx, &format!("{indent}  "), out);
            out.push('\n');
            write_expr(kp, m, val, &format!("{indent}  "), out);
        }
        KExprKind::ArrayLen(v) => write!(out, "{indent}{}.length", var_name(m, *v)).unwrap(),
        KExprKind::CallVirtual(recv, id, args) => {
            let args: Vec<_> = args.iter().map(|&a| var_name(m, a)).collect();
            write!(
                out,
                "{indent}{}.{}({})",
                var_name(m, *recv),
                kp.method_name(*id),
                args.join(", ")
            )
            .unwrap();
        }
        KExprKind::CallStatic(id, args) => {
            let args: Vec<_> = args.iter().map(|&a| var_name(m, a)).collect();
            write!(out, "{indent}{}({})", kp.method_name(*id), args.join(", ")).unwrap();
        }
        KExprKind::Block(items) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(";\n");
                }
                write_expr(kp, m, item, indent, out);
            }
            if items.is_empty() {
                write!(out, "{indent}()").unwrap();
            }
        }
        KExprKind::Let { var, init } => {
            let v = &m.vars[var.index()];
            write!(out, "{indent}{} {}", kp.table.display_ty(v.ty), v.name).unwrap();
            if let Some(init) = init {
                out.push_str(" =\n");
                write_expr(kp, m, init, &format!("{indent}  "), out);
            }
        }
        KExprKind::If {
            cond,
            then_e,
            else_e,
        } => {
            writeln!(out, "{indent}if (").unwrap();
            write_expr(kp, m, cond, &format!("{indent}  "), out);
            writeln!(out, ") {{").unwrap();
            write_expr(kp, m, then_e, &format!("{indent}  "), out);
            write!(out, "\n{indent}}} else {{\n").unwrap();
            write_expr(kp, m, else_e, &format!("{indent}  "), out);
            write!(out, "\n{indent}}}").unwrap();
        }
        KExprKind::While { cond, body } => {
            writeln!(out, "{indent}while (").unwrap();
            write_expr(kp, m, cond, &format!("{indent}  "), out);
            writeln!(out, ") {{").unwrap();
            write_expr(kp, m, body, &format!("{indent}  "), out);
            write!(out, "\n{indent}}}").unwrap();
        }
        KExprKind::Cast(c, v) => {
            write!(out, "{indent}({}) {}", kp.table.name(*c), var_name(m, *v)).unwrap()
        }
        KExprKind::Unary(op, inner) => {
            writeln!(out, "{indent}{op}(").unwrap();
            write_expr(kp, m, inner, &format!("{indent}  "), out);
            write!(out, ")").unwrap();
        }
        KExprKind::Binary(op, a, b) => {
            writeln!(out, "{indent}(").unwrap();
            write_expr(kp, m, a, &format!("{indent}  "), out);
            writeln!(out, " {op}").unwrap();
            write_expr(kp, m, b, &format!("{indent}  "), out);
            write!(out, ")").unwrap();
        }
        KExprKind::Print(inner) => {
            writeln!(out, "{indent}print(").unwrap();
            write_expr(kp, m, inner, &format!("{indent}  "), out);
            write!(out, ")").unwrap();
        }
    }
    let _ = e.ty == NType::Void; // silence unused in cfg combinations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typecheck::check_source;

    #[test]
    fn renders_without_panicking() {
        let kp = check_source(
            "class Pair { Object fst; Object snd;
               Object getFst() { this.fst }
               void setSnd(Object o) { this.snd = o; }
             }
             class M { static int f(int n) {
               int i = 0;
               while (i < n) { i = i + 1; }
               print(i);
               i
             } }",
        )
        .unwrap();
        let s = program_to_string(&kp);
        assert!(s.contains("class Pair"));
        assert!(s.contains("setSnd"));
        assert!(s.contains("while"));
    }
}
