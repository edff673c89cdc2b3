//! Pretty-printing of region-annotated programs, in the paper's style:
//!
//! ```text
//! class Pair<r1,r2,r3> extends Object<r1> where r2>=r1 & r3>=r1 {
//!   Object<r2> fst;
//!   Object<r3> snd;
//!   Object<r4> getFst<r4>() where r2>=r4 { ... }
//! }
//! ```

use crate::rast::{RProgram, RType};
use cj_frontend::kernel::{KExpr, KExprKind};
use cj_frontend::types::{ClassId, MethodId, VarId};
use cj_regions::constraint::{Atom, ConstraintSet};
use cj_regions::var::RegVar;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Maps raw region variables to compact display names (`r1`, `r2`, …) in
/// first-seen order; the heap keeps its name.
#[derive(Debug, Default, Clone)]
pub struct RegionNamer {
    names: HashMap<RegVar, String>,
}

impl RegionNamer {
    /// An empty namer.
    pub fn new() -> RegionNamer {
        RegionNamer::default()
    }

    /// The display name of `r`, allocating the next `rN` if unseen.
    pub fn name(&mut self, r: RegVar) -> String {
        if r.is_heap() {
            return "heap".into();
        }
        let next = format!("r{}", self.names.len() + 1);
        self.names.entry(r).or_insert(next).clone()
    }

    fn list(&mut self, rs: &[RegVar]) -> String {
        let parts: Vec<String> = rs.iter().map(|&r| self.name(r)).collect();
        parts.join(",")
    }

    fn constraint(&mut self, c: &ConstraintSet) -> String {
        if c.is_empty() {
            return "true".into();
        }
        let parts: Vec<String> = c
            .iter()
            .map(|a| match a {
                Atom::Outlives(x, y) => format!("{}>={}", self.name(x), self.name(y)),
                Atom::Eq(x, y) => format!("{}={}", self.name(x), self.name(y)),
            })
            .collect();
        parts.join(" & ")
    }

    fn rtype(&mut self, p: &RProgram, t: &RType) -> String {
        match t {
            RType::Void => "void".into(),
            RType::Prim(pr) => pr.to_string(),
            RType::Class {
                class,
                regions,
                pads,
            } => {
                let mut s = format!("{}<{}>", p.kernel.table.name(*class), self.list(regions));
                if !pads.is_empty() {
                    let _ = write!(s, "[{}]", self.list(pads));
                }
                s
            }
            RType::Array { elem, region } => format!("{elem}[]<{}>", self.name(*region)),
        }
    }
}

/// Renders the whole annotated program.
pub fn program_to_string(p: &RProgram) -> String {
    let mut out = String::new();
    for info in p.kernel.table.classes() {
        if info.id == ClassId::OBJECT {
            continue;
        }
        out.push_str(&class_to_string(p, info.id));
        out.push('\n');
    }
    for i in 0..p.statics.len() {
        out.push_str(&method_to_string(p, MethodId::Static(i as u32)));
        out.push('\n');
    }
    out
}

/// Renders one annotated class with its methods.
pub fn class_to_string(p: &RProgram, id: ClassId) -> String {
    let mut namer = RegionNamer::new();
    let rc = p.rclass(id);
    let info = p.kernel.table.class(id);
    let mut out = String::new();
    let _ = write!(out, "class {}<{}>", info.name, namer.list(&rc.params));
    if let Some(sup) = info.superclass {
        let sup_arity = p.rclass(sup).params.len();
        let _ = write!(
            out,
            " extends {}<{}>",
            p.kernel.table.name(sup),
            namer.list(&rc.params[..sup_arity])
        );
    }
    let _ = writeln!(out, " where {} {{", namer.constraint(&rc.invariant));
    let own_start = rc.field_types.len() - info.own_fields.len();
    for (f, ft) in info.own_fields.iter().zip(&rc.field_types[own_start..]) {
        let _ = writeln!(out, "  {} {};", namer.rtype(p, ft), f.name);
    }
    for i in 0..p.methods[id.index()].len() {
        let text = method_body_to_string(p, MethodId::Instance(id, i as u32), &mut namer, "  ");
        out.push_str(&text);
    }
    out.push_str("}\n");
    out
}

/// Renders one method (static methods get their own namer).
pub fn method_to_string(p: &RProgram, id: MethodId) -> String {
    let mut namer = RegionNamer::new();
    method_body_to_string(p, id, &mut namer, "")
}

fn method_body_to_string(
    p: &RProgram,
    id: MethodId,
    namer: &mut RegionNamer,
    indent: &str,
) -> String {
    let rm = p.rmethod(id);
    let km = p.kernel.method(id);
    let mut out = String::new();
    let _ = write!(
        out,
        "{indent}{}{} {}",
        if km.is_static { "static " } else { "" },
        namer.rtype(p, &rm.ret_type),
        km.name
    );
    if !rm.mparams.is_empty() {
        let _ = write!(out, "<{}>", namer.list(&rm.mparams));
    }
    out.push('(');
    for (i, &pv) in km.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{} {}",
            namer.rtype(p, &rm.var_types[pv.index()]),
            km.vars[pv.index()].name
        );
    }
    out.push(')');
    let shown = display_precondition(p, id);
    let _ = writeln!(out, " where {} {{", namer.constraint(&shown));
    let mut body = String::new();
    write_expr(p, id, &km.body, namer, &format!("{indent}  "), &mut body);
    out.push_str(&body);
    let _ = write!(out, "\n{indent}}}\n");
    out
}

/// The precondition as the paper displays it: with the atoms already implied
/// by the class invariants of the signature types filtered out.
pub fn display_precondition(p: &RProgram, id: MethodId) -> ConstraintSet {
    let rm = p.rmethod(id);
    let mut implied = cj_regions::Solver::new();
    if let MethodId::Instance(c, _) = id {
        implied.add_set(&p.rclass(c).invariant);
    }
    let km = p.kernel.method(id);
    let mut sig_types: Vec<&RType> = Vec::new();
    for &pv in &km.params {
        sig_types.push(&rm.var_types[pv.index()]);
    }
    sig_types.push(&rm.ret_type);
    for t in sig_types {
        if let RType::Class { class, regions, .. } = t {
            implied.add_set(&p.rclass(*class).invariant_at(regions));
        }
    }
    // Minimal form: drop every atom derivable from the signature
    // invariants together with the remaining atoms.
    let mut kept: Vec<Atom> = rm.precondition.iter().collect();
    let mut i = 0;
    while i < kept.len() {
        let mut trial = implied.clone();
        for (j, &a) in kept.iter().enumerate() {
            if j != i {
                trial.add_atom(a);
            }
        }
        if trial.entails_atom(kept[i]) {
            kept.remove(i);
        } else {
            i += 1;
        }
    }
    kept.into_iter().collect()
}

fn var_name(p: &RProgram, id: MethodId, v: VarId) -> String {
    p.kernel.method(id).vars[v.index()].name.to_string()
}

fn write_expr(
    p: &RProgram,
    id: MethodId,
    e: &KExpr,
    namer: &mut RegionNamer,
    indent: &str,
    out: &mut String,
) {
    let rm = p.rmethod(id);
    let regions = rm.letregs_at(e.id);
    let mut indent = indent.to_string();
    for l in regions {
        let _ = writeln!(out, "{indent}letreg {} in {{", namer.name(l.region));
        indent.push_str("  ");
    }
    write_node(p, id, e, namer, &indent, out);
    for _ in regions {
        indent.truncate(indent.len() - 2);
        let _ = write!(out, "\n{indent}}}");
    }
}

fn write_node(
    p: &RProgram,
    id: MethodId,
    e: &KExpr,
    namer: &mut RegionNamer,
    indent: &str,
    out: &mut String,
) {
    let rm = p.rmethod(id);
    match &e.kind {
        KExprKind::Unit => {
            let _ = write!(out, "{indent}()");
        }
        KExprKind::Int(v) => {
            let _ = write!(out, "{indent}{v}");
        }
        KExprKind::Bool(v) => {
            let _ = write!(out, "{indent}{v}");
        }
        KExprKind::Float(v) => {
            let _ = write!(out, "{indent}{v}");
        }
        KExprKind::Null => {
            let _ = write!(out, "{indent}({}) null", namer.rtype(p, rm.ty(e)));
        }
        KExprKind::Var(v) => {
            let _ = write!(out, "{indent}{}", var_name(p, id, *v));
        }
        KExprKind::Field(v, f) => {
            let _ = write!(out, "{indent}{}.{}", var_name(p, id, *v), f.name);
        }
        KExprKind::AssignVar(v, rhs) => {
            let _ = writeln!(out, "{indent}{} =", var_name(p, id, *v));
            write_expr(p, id, rhs, namer, &format!("{indent}  "), out);
        }
        KExprKind::AssignField(v, f, rhs) => {
            let _ = writeln!(out, "{indent}{}.{} =", var_name(p, id, *v), f.name);
            write_expr(p, id, rhs, namer, &format!("{indent}  "), out);
        }
        KExprKind::New(class, args) => {
            let args: Vec<String> = args.iter().map(|&a| var_name(p, id, a)).collect();
            let _ = write!(
                out,
                "{indent}new {}<{}>({})",
                p.kernel.table.name(*class),
                namer.list(rm.inst(e.id)),
                args.join(", ")
            );
        }
        KExprKind::NewArray(elem, len) => {
            let region = rm.inst(e.id)[0];
            let _ = writeln!(out, "{indent}new {elem}[..]<{}> of", namer.name(region));
            write_expr(p, id, len, namer, &format!("{indent}  "), out);
        }
        KExprKind::Index(v, idx) => {
            let _ = writeln!(out, "{indent}{}[", var_name(p, id, *v));
            write_expr(p, id, idx, namer, &format!("{indent}  "), out);
            let _ = write!(out, "]");
        }
        KExprKind::AssignIndex(v, idx, val) => {
            let _ = writeln!(out, "{indent}{}[..] =", var_name(p, id, *v));
            write_expr(p, id, idx, namer, &format!("{indent}  "), out);
            out.push('\n');
            write_expr(p, id, val, namer, &format!("{indent}  "), out);
        }
        KExprKind::ArrayLen(v) => {
            let _ = write!(out, "{indent}{}.length", var_name(p, id, *v));
        }
        KExprKind::CallVirtual(recv, method, args) => {
            let args: Vec<String> = args.iter().map(|&a| var_name(p, id, a)).collect();
            let _ = write!(
                out,
                "{indent}{}.{}<{}>({})",
                var_name(p, id, *recv),
                p.kernel.method(*method).name,
                namer.list(rm.inst(e.id)),
                args.join(", ")
            );
        }
        KExprKind::CallStatic(method, args) => {
            let args: Vec<String> = args.iter().map(|&a| var_name(p, id, a)).collect();
            let _ = write!(
                out,
                "{indent}{}<{}>({})",
                p.kernel.method(*method).name,
                namer.list(rm.inst(e.id)),
                args.join(", ")
            );
        }
        KExprKind::Block(items) => {
            // Item ranges under a `letreg` print as a nested block.
            let ranges: Vec<(RegVar, u32, u32)> = rm.letregs_in(e.id).collect();
            let mut indent = indent.to_string();
            let mut open = Vec::new();
            for (i, item) in (0..).zip(items) {
                if i > 0 {
                    out.push_str(";\n");
                }
                for &(r, _, hi) in ranges.iter().filter(|&&(_, lo, _)| lo == i) {
                    let _ = writeln!(out, "{indent}letreg {} in {{", namer.name(r));
                    indent.push_str("  ");
                    open.push(hi);
                }
                write_expr(p, id, item, namer, &indent, out);
                while open.last() == Some(&i) {
                    open.pop();
                    indent.truncate(indent.len() - 2);
                    let _ = write!(out, "\n{indent}}}");
                }
            }
            if items.is_empty() {
                let _ = write!(out, "{indent}()");
            }
        }
        KExprKind::Let { var, init } => {
            let _ = write!(
                out,
                "{indent}{} {}",
                namer.rtype(p, &rm.var_types[var.index()]),
                var_name(p, id, *var)
            );
            if let Some(init) = init {
                out.push_str(" =\n");
                write_expr(p, id, init, namer, &format!("{indent}  "), out);
            }
        }
        KExprKind::If {
            cond,
            then_e,
            else_e,
        } => {
            let _ = writeln!(out, "{indent}if (");
            write_expr(p, id, cond, namer, &format!("{indent}  "), out);
            let _ = writeln!(out, ") {{");
            write_expr(p, id, then_e, namer, &format!("{indent}  "), out);
            let _ = writeln!(out, "\n{indent}}} else {{");
            write_expr(p, id, else_e, namer, &format!("{indent}  "), out);
            let _ = write!(out, "\n{indent}}}");
        }
        KExprKind::While { cond, body } => {
            let _ = writeln!(out, "{indent}while (");
            write_expr(p, id, cond, namer, &format!("{indent}  "), out);
            let _ = writeln!(out, ") {{");
            write_expr(p, id, body, namer, &format!("{indent}  "), out);
            let _ = write!(out, "\n{indent}}}");
        }
        KExprKind::Cast(class, var) => {
            let _ = write!(
                out,
                "{indent}({}<{}>) {}",
                p.kernel.table.name(*class),
                namer.list(rm.inst(e.id)),
                var_name(p, id, *var)
            );
        }
        KExprKind::Unary(op, a) => {
            let _ = writeln!(out, "{indent}{op}(");
            write_expr(p, id, a, namer, &format!("{indent}  "), out);
            let _ = write!(out, ")");
        }
        KExprKind::Binary(op, a, b) => {
            let _ = writeln!(out, "{indent}(");
            write_expr(p, id, a, namer, &format!("{indent}  "), out);
            let _ = writeln!(out, " {op}");
            write_expr(p, id, b, namer, &format!("{indent}  "), out);
            let _ = write!(out, ")");
        }
        KExprKind::Print(a) => {
            let _ = writeln!(out, "{indent}print(");
            write_expr(p, id, a, namer, &format!("{indent}  "), out);
            let _ = write!(out, ")");
        }
    }
}
