//! Property-based tests (proptest).
//!
//! Two layers:
//!
//! 1. **Solver invariants** — entailment is reflexive/transitive, cycle
//!    collapse is sound, projection is entailed by the original set and
//!    mentions only kept variables, the escape closure contains its seeds
//!    and is upward closed.
//! 2. **Theorem 1 fuzzing** — randomly generated well-normal-typed
//!    Core-Java programs must infer, pass the region checker under every
//!    subtyping mode, and execute on the region runtime without dangling
//!    accesses.

use proptest::prelude::*;
use region_inference::prelude::*;
use region_inference::regions::{Atom, ConstraintSet, RegVar, Solver};
use std::collections::BTreeSet;

// ---------- solver properties ----------------------------------------------

fn arb_atom(nvars: u32) -> impl Strategy<Value = Atom> {
    (0..nvars, 0..nvars, any::<bool>()).prop_map(|(a, b, eq)| {
        if eq {
            Atom::eq(RegVar(a), RegVar(b))
        } else {
            Atom::outlives(RegVar(a), RegVar(b))
        }
    })
}

fn arb_set(nvars: u32, max_atoms: usize) -> impl Strategy<Value = ConstraintSet> {
    proptest::collection::vec(arb_atom(nvars), 0..max_atoms)
        .prop_map(|atoms| atoms.into_iter().collect())
}

proptest! {
    #[test]
    fn entailment_is_reflexive_on_inputs(set in arb_set(8, 12)) {
        let mut solver = Solver::from_set(&set);
        for atom in set.iter() {
            prop_assert!(solver.entails_atom(atom), "input atom {atom} lost");
        }
    }

    #[test]
    fn outlives_is_transitive(set in arb_set(6, 10)) {
        let mut solver = Solver::from_set(&set);
        for a in 0..6u32 {
            for b in 0..6u32 {
                for c in 0..6u32 {
                    let ab = solver.outlives_holds(RegVar(a), RegVar(b));
                    let bc = solver.outlives_holds(RegVar(b), RegVar(c));
                    if ab && bc {
                        prop_assert!(
                            solver.outlives_holds(RegVar(a), RegVar(c)),
                            "transitivity failed {a}>={b}>={c} in {set}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mutual_outlives_collapses_to_equality(set in arb_set(6, 10)) {
        let mut solver = Solver::from_set(&set);
        for a in 0..6u32 {
            for b in 0..6u32 {
                if solver.outlives_holds(RegVar(a), RegVar(b))
                    && solver.outlives_holds(RegVar(b), RegVar(a))
                {
                    prop_assert!(solver.equal(RegVar(a), RegVar(b)));
                }
            }
        }
    }

    #[test]
    fn projection_is_entailed_and_scoped(
        set in arb_set(8, 14),
        keep_mask in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let keep: BTreeSet<RegVar> = (0..8u32)
            .filter(|&i| keep_mask[i as usize])
            .map(RegVar)
            .collect();
        let mut solver = Solver::from_set(&set);
        let projected = solver.project(&keep);
        // Every projected atom mentions only kept variables (or heap)…
        for atom in projected.iter() {
            for v in atom.vars() {
                prop_assert!(
                    keep.contains(&v) || v.is_heap(),
                    "projection leaked {v} in {atom}"
                );
            }
        }
        // …and is entailed by the original constraint.
        let mut original = Solver::from_set(&set);
        prop_assert!(original.entails(&projected), "projection not entailed");
    }

    #[test]
    fn escape_closure_contains_seeds_and_is_closed(
        set in arb_set(8, 14),
        seeds_mask in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let universe: Vec<RegVar> = (0..8u32).map(RegVar).collect();
        let seeds: Vec<RegVar> = (0..8u32)
            .filter(|&i| seeds_mask[i as usize])
            .map(RegVar)
            .collect();
        let mut solver = Solver::from_set(&set);
        let escapes = solver.escape_closure(seeds.iter().copied(), &universe);
        let escaping: BTreeSet<RegVar> =
            universe.iter().copied().zip(escapes).filter_map(|(v, e)| e.then_some(v)).collect();
        for s in &seeds {
            prop_assert!(escaping.contains(s), "seed {s} not in closure");
        }
        // Upward closure: anything that outlives an escaping region escapes.
        for &r in &universe {
            for &e in &escaping {
                if solver.outlives_holds(r, e) {
                    prop_assert!(
                        escaping.contains(&r),
                        "{r} outlives escaping {e} but does not escape"
                    );
                }
            }
        }
    }

    #[test]
    fn heap_dominates_everything(set in arb_set(8, 14)) {
        let mut solver = Solver::from_set(&set);
        for v in 0..8u32 {
            prop_assert!(solver.outlives_holds(RegVar::HEAP, RegVar(v)));
        }
    }
}

// ---------- random-program fuzzing ------------------------------------------

/// A tiny well-typed-by-construction program shape: `nclasses` classes
/// where class `Ci` has an int field and an object field of class `C(i%k)`
/// (self-reference when i==target makes it recursive), plus a `main` that
/// performs a random sequence of allocations, assignments and field writes
/// inside optional loop/branch structure.
#[derive(Debug, Clone)]
enum Op {
    /// `vX = new C(..)` for a random class.
    Alloc(usize, usize),
    /// `vA = vB` (same class).
    Copy(usize, usize),
    /// `vA.ref = vB` (field class matches).
    Store(usize, usize),
    /// Wrap the next op in `if (flag) { .. } else { }`.
    Branch(Box<Op>),
    /// Wrap the next op in a 3-iteration loop.
    Loop(Box<Op>),
}

fn arb_op(nclasses: usize, nvars: usize) -> impl Strategy<Value = Op> {
    let leaf = prop_oneof![
        (0..nvars, 0..nclasses).prop_map(|(v, c)| Op::Alloc(v, c)),
        (0..nvars, 0..nvars).prop_map(|(a, b)| Op::Copy(a, b)),
        (0..nvars, 0..nvars).prop_map(|(a, b)| Op::Store(a, b)),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|op| Op::Branch(Box::new(op))),
            inner.prop_map(|op| Op::Loop(Box::new(op))),
        ]
    })
}

/// Renders a generated program. All variables of class `C0` (one class for
/// variables keeps copies/stores type-correct); allocations may build other
/// classes via the `mk` helpers, which exercise inter-class regions.
fn render(nclasses: usize, nvars: usize, ops: &[Op]) -> String {
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
    s.push_str("    alive\n  }\n}\n");
    s
}

fn render_op(op: &Op, s: &mut String, indent: usize, loop_id: &mut u32) {
    let pad = " ".repeat(indent);
    match op {
        Op::Alloc(v, _) => {
            s.push_str(&format!("{pad}v{v} = mk0(3);\n"));
        }
        Op::Copy(a, b) => {
            s.push_str(&format!("{pad}v{a} = v{b};\n"));
        }
        Op::Store(a, b) => {
            s.push_str(&format!("{pad}if (v{a} != null) {{ v{a}.self = v{b}; }}\n"));
        }
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn theorem1_on_random_programs(
        nclasses in 1usize..4,
        nvars in 1usize..4,
        ops in proptest::collection::vec(arb_op(3, 3), 0..6),
        flag in any::<bool>(),
    ) {
        // Clamp op indices to the generated sizes.
        let clamp = |op: &Op| clamp_op(op, nclasses, nvars);
        let ops: Vec<Op> = ops.iter().map(clamp).collect();
        let src = render(nclasses, nvars, &ops);
        for mode in [SubtypeMode::None, SubtypeMode::Object, SubtypeMode::Field] {
            let (p, _) = infer_source(&src, InferOptions::with_mode(mode))
                .unwrap_or_else(|e| panic!("inference failed [{mode}]: {e}\n{src}"));
            check(&p).unwrap_or_else(|e| {
                panic!("region check failed [{mode}]:\n{e}\nprogram:\n{src}")
            });
            let out = run_main(&p, &[Value::Bool(flag)], RunConfig::default())
                .unwrap_or_else(|e| panic!("runtime [{mode}]: {e}\n{src}"));
            prop_assert!(matches!(out.value, Value::Int(_)));
        }
    }
}

fn clamp_op(op: &Op, nclasses: usize, nvars: usize) -> Op {
    match op {
        Op::Alloc(v, c) => Op::Alloc(v % nvars, c % nclasses),
        Op::Copy(a, b) => Op::Copy(a % nvars, b % nvars),
        Op::Store(a, b) => Op::Store(a % nvars, b % nvars),
        Op::Branch(inner) => Op::Branch(Box::new(clamp_op(inner, nclasses, nvars))),
        Op::Loop(inner) => Op::Loop(Box::new(clamp_op(inner, nclasses, nvars))),
    }
}
