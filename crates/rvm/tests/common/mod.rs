//! The random-program generator the differential suites share.
//!
//! Programs are well-typed by construction and recursive: `nclasses`
//! classes `C0…` whose fields link them in a ring, a recursive builder
//! `mkI` per class, and a `main(bool flag)` that allocates into `nvars`
//! variables, then runs a random sequence of [`Op`]s over them (copies,
//! field stores, prints, branches on `flag`, three-iteration loops) and
//! prints and returns the sum of the surviving objects' tags.
//!
//! Included as a module by `cj-rvm`'s and `cj-liveness`'s
//! `tests/differential.rs`, so the suites share the generator without a
//! dependency between crates.

use proptest::prelude::*;

#[derive(Debug, Clone)]
pub enum Op {
    /// `vX = mk0(3)`.
    Alloc(usize),
    /// `vA = vB`.
    Copy(usize, usize),
    /// `vA.self = vB` (guarded against null).
    Store(usize, usize),
    /// `print(vX.tag)` (guarded against null).
    Print(usize),
    /// Wrap the inner op in `if (flag) { … } else { }`.
    Branch(Box<Op>),
    /// Wrap the inner op in a 3-iteration loop.
    Loop(Box<Op>),
}

/// A random op over `nvars` variables, with branches and loops nested at
/// most two deep.
pub fn arb_op(nvars: usize) -> impl Strategy<Value = Op> {
    let leaf = prop_oneof![
        (0..nvars).prop_map(Op::Alloc),
        (0..nvars, 0..nvars).prop_map(|(a, b)| Op::Copy(a, b)),
        (0..nvars, 0..nvars).prop_map(|(a, b)| Op::Store(a, b)),
        (0..nvars).prop_map(Op::Print),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|op| Op::Branch(Box::new(op))),
            inner.prop_map(|op| Op::Loop(Box::new(op))),
        ]
    })
}

/// The program text running `ops` over `nclasses` classes and `nvars`
/// variables.
pub fn render(nclasses: usize, nvars: usize, ops: &[Op]) -> String {
    let mut s = String::new();
    for c in 0..nclasses {
        let target = (c + 1) % nclasses;
        s.push_str(&format!(
            "class C{c} {{ int tag; C{target} link; C{c} self; }}\n"
        ));
    }
    s.push_str("class Gen {\n");
    for c in 0..nclasses {
        let target = (c + 1) % nclasses;
        s.push_str(&format!(
            "  static C{c} mk{c}(int depth) {{\n\
             \x20   if (depth <= 0) {{ (C{c}) null }}\n\
             \x20   else {{ new C{c}(depth, mk{target}(depth - 1), mk{c}(depth - 2)) }}\n\
             \x20 }}\n"
        ));
    }
    s.push_str("  static int main(bool flag) {\n");
    for v in 0..nvars {
        s.push_str(&format!("    C0 v{v} = mk0(2);\n"));
    }
    let mut loop_id = 0u32;
    for op in ops {
        render_op(op, &mut s, 4, &mut loop_id);
    }
    s.push_str("    int alive = 0;\n");
    for v in 0..nvars {
        s.push_str(&format!(
            "    if (v{v} != null) {{ alive = alive + v{v}.tag; }}\n"
        ));
    }
    s.push_str("    print(alive);\n    alive\n  }\n}\n");
    s
}

fn render_op(op: &Op, s: &mut String, indent: usize, loop_id: &mut u32) {
    let pad = " ".repeat(indent);
    match op {
        Op::Alloc(v) => s.push_str(&format!("{pad}v{v} = mk0(3);\n")),
        Op::Copy(a, b) => s.push_str(&format!("{pad}v{a} = v{b};\n")),
        Op::Store(a, b) => s.push_str(&format!("{pad}if (v{a} != null) {{ v{a}.self = v{b}; }}\n")),
        Op::Print(v) => s.push_str(&format!("{pad}if (v{v} != null) {{ print(v{v}.tag); }}\n")),
        Op::Branch(inner) => {
            s.push_str(&format!("{pad}if (flag) {{\n"));
            render_op(inner, s, indent + 2, loop_id);
            s.push_str(&format!("{pad}}}\n"));
        }
        Op::Loop(inner) => {
            let id = *loop_id;
            *loop_id += 1;
            s.push_str(&format!("{pad}int gl{id} = 0;\n"));
            s.push_str(&format!("{pad}while (gl{id} < 3) {{\n"));
            render_op(inner, s, indent + 2, loop_id);
            s.push_str(&format!("{pad}  gl{id} = gl{id} + 1;\n{pad}}}\n"));
        }
    }
}

/// `op` with every variable index taken modulo `nvars` (ops are drawn
/// over a fixed variable count, programs declare fewer).
pub fn clamp_op(op: &Op, nvars: usize) -> Op {
    match op {
        Op::Alloc(v) => Op::Alloc(v % nvars),
        Op::Copy(a, b) => Op::Copy(a % nvars, b % nvars),
        Op::Store(a, b) => Op::Store(a % nvars, b % nvars),
        Op::Print(v) => Op::Print(v % nvars),
        Op::Branch(inner) => Op::Branch(Box::new(clamp_op(inner, nvars))),
        Op::Loop(inner) => Op::Loop(Box::new(clamp_op(inner, nvars))),
    }
}
