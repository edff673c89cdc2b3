//! Whole-pipeline scale tests. Every case runs on a thread with an
//! explicit 2 MiB stack — the stack a daemon worker gets — so a pass that
//! recursed once per statement, declaration or argument would overflow
//! here instead of in a user's daemon.
//!
//! - Long and wide legal programs (30,000 statements, declarations,
//!   computed call arguments, loop-body statements, chained allocations;
//!   10,000 allocating `if`/`else` blocks) go through inference,
//!   the region checker (Theorem 1) and both engines under both extent
//!   modes, and the engines must agree on value, prints and space.
//! - Programs nested ten times past the parser's budget in every shape it
//!   counts are rejected with exactly one "nesting too deep" diagnostic,
//!   and the same shapes just inside the budget compile and run.
//! - A ring of mutually recursive methods (1,001 in a debug build, 10,000
//!   optimized), with its calls in name order and against it, and
//!   override chains 1,000 and 2,000 deep (10,000 optimized) infer and
//!   pass the region checker. The amount of inference work, read from
//!   `InferStats`, must not depend on the method names, and the chains
//!   must settle in a constant number of repair rounds; the deepest
//!   chain also keeps every pass that walks superclass chains linear.
//! - Many self-referencing classes (2,000 in a debug build, 10,000
//!   optimized) infer and pass the region checker, and every one of them
//!   is recursive and rec-read-only.

#[path = "../crates/driver/tests/common/hostile.rs"]
mod hostile;

use region_inference::prelude::*;

/// The parser's nesting budget.
const BUDGET: usize = 64;

/// Runs `f` on a fresh thread with a 2 MiB stack.
fn on_worker_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, f)
            .expect("spawn")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Infers, checks and runs `src` on both engines under both extent modes;
/// returns the agreed value.
fn compile_check_run(name: &str, src: &str) -> Value {
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source(name, src).unwrap();
    let mut values = Vec::new();
    for extent in [ExtentMode::Paper, ExtentMode::Liveness] {
        let opts = InferOptions {
            extent,
            ..InferOptions::default()
        };
        let compilation = ws
            .check(opts)
            .unwrap_or_else(|d| panic!("{name} ({extent:?}) compiles: {d}"));
        check(&compilation.program)
            .unwrap_or_else(|e| panic!("{name} ({extent:?}): Theorem 1 violated: {e}"));
        let compiled = ws.compiled(opts).expect("lowers");
        let rvm = region_inference::rvm::run_main(&compiled, &[], RunConfig::default())
            .unwrap_or_else(|e| panic!("{name} ({extent:?}) runs on rvm: {e}"));
        let interp = run_main(&compilation.program, &[], RunConfig::default())
            .unwrap_or_else(|e| panic!("{name} ({extent:?}) runs on interp: {e}"));
        assert_eq!(rvm.value, interp.value, "{name} ({extent:?}): values");
        assert_eq!(rvm.prints, interp.prints, "{name} ({extent:?}): prints");
        assert_eq!(rvm.space, interp.space, "{name} ({extent:?}): space");
        values.push(rvm.value);
    }
    assert_eq!(values[0], values[1], "{name}: extent modes disagree");
    values.pop().expect("a value")
}

#[test]
fn long_and_wide_programs_compile_check_and_run() {
    let n = 30_000;
    let expected = [
        ("statements", Value::Int(n as i64)),
        ("declarations", Value::Int(n as i64 - 1)),
        ("arguments", Value::Int(2 + (n as i64 - 1) % 7)),
        ("loop body", Value::Int(3 * n as i64 + 3)),
        ("allocation chain", Value::Int(1)),
        ("allocating blocks", Value::Int(1)),
    ];
    let programs = hostile::long_programs(n);
    assert_eq!(programs.len(), expected.len());
    for ((name, src), (expected_name, value)) in programs.into_iter().zip(expected) {
        assert_eq!(name, expected_name);
        let got = on_worker_stack(|| compile_check_run(name, &src));
        assert_eq!(got, value, "{name}");
    }
}

#[test]
fn programs_past_the_nesting_budget_are_diagnosed() {
    for (name, src) in hostile::deep_programs(10 * BUDGET) {
        let diags = on_worker_stack(|| {
            let mut ws = Workspace::new(SessionOptions::default());
            ws.set_source(name, src.as_str())?;
            ws.check(InferOptions::default())
        })
        .err()
        .unwrap_or_else(|| panic!("{name}: over-deep input accepted"));
        let too_deep = diags
            .iter()
            .filter(|d| d.message.contains("nesting too deep"))
            .count();
        assert_eq!(too_deep, 1, "{name}: {diags}");
    }
}

#[test]
fn programs_just_inside_the_nesting_budget_run() {
    // An unoptimized build's frames are several times larger, so on the
    // same 2 MiB stack it checks a shallower depth; CI also runs this
    // test in release, where 60 levels fit in every shape.
    let depth = if cfg!(debug_assertions) { 40 } else { 60 };
    for (name, src) in hostile::deep_programs(depth) {
        on_worker_stack(|| compile_check_run(name, &src));
    }
}

/// A ring of `n` static methods `m00000 … ` in `class Ring`, each calling
/// the next one in name order (`forward`) or the previous one; only
/// `m00000`'s base case links its arguments.
fn ring(n: usize, forward: bool) -> String {
    let mut src = String::from("class Node { Node next; Object item; }\nclass Ring {\n");
    for i in 0..n {
        let j = if forward {
            (i + 1) % n
        } else {
            (i + n - 1) % n
        };
        let base = if i == 0 { "x.next = y; x" } else { "x" };
        src.push_str(&format!(
            "static Node m{i:05}(Node x, Node y, int k) {{ \
             if (k == 0) {{ {base} }} else {{ m{j:05}(x, y, k - 1) }} }}\n"
        ));
    }
    src.push_str("}\n");
    src
}

/// A chain `Cdepth <: … <: C1 <: C0` overriding `m` at every level; only
/// the deepest body constrains its arguments.
fn override_chain(depth: usize) -> String {
    let mut src = String::from(
        "class Node { Node next; Object item; }\n\
         class C0 { Object m(Node a, Object b) { b } }\n",
    );
    for i in 1..=depth {
        let body = if i == depth { "a.item = b; b" } else { "b" };
        src.push_str(&format!(
            "class C{i} extends C{} {{ Object m(Node a, Object b) {{ {body} }} }}\n",
            i - 1
        ));
    }
    src
}

/// `n` classes `Lk0 …`, each with a field of its own type, and an empty
/// `main`.
fn self_referencing_classes(n: usize) -> String {
    let mut src: String = (0..n)
        .map(|i| format!("class Lk{i} {{ Lk{i} next; Object item; }}\n"))
        .collect();
    src.push_str("class M { static void main() { } }\n");
    src
}

/// Infers `src` on a worker stack, checks Theorem 1 and returns the stats.
fn infer_and_check(name: &str, src: &str) -> InferStats {
    on_worker_stack(|| {
        let (program, stats) = infer_source(src, InferOptions::default())
            .unwrap_or_else(|d| panic!("{name} infers: {d}"));
        check(&program).unwrap_or_else(|e| panic!("{name}: Theorem 1 violated: {e}"));
        stats
    })
}

#[test]
fn call_rings_infer_the_same_in_both_name_orders() {
    let n = if cfg!(debug_assertions) {
        1_001
    } else {
        10_000
    };
    let forward = infer_and_check("forward ring", &ring(n, true));
    let reversed = infer_and_check("reversed ring", &ring(n, false));
    assert!(
        forward.fixpoint_iterations <= 2 * reversed.fixpoint_iterations,
        "forward ring: {} member solves, reversed: {}",
        forward.fixpoint_iterations,
        reversed.fixpoint_iterations
    );
}

#[test]
fn deep_override_chain_settles_in_constant_rounds() {
    let deepest = if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    };
    for depth in [1_000, deepest] {
        let stats = infer_and_check("override chain", &override_chain(depth));
        assert!(stats.override_repairs > 0, "the chain needs repairs");
        assert!(
            stats.global_iterations <= 3,
            "depth {depth}: {} repair rounds",
            stats.global_iterations
        );
    }
}

#[test]
fn many_self_referencing_classes_are_recursive_and_rec_read_only() {
    let n = if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    };
    let src = self_referencing_classes(n);
    let kernel = on_worker_stack(|| {
        let (program, _) = infer_source(&src, InferOptions::default())
            .unwrap_or_else(|d| panic!("recursive classes infer: {d}"));
        check(&program).unwrap_or_else(|e| panic!("Theorem 1 violated: {e}"));
        program.kernel
    });
    let recursive = kernel.table.recursive_classes();
    let read_only = &kernel.rec_read_only;
    for i in 0..n {
        let c = kernel.table.class_id(&format!("Lk{i}")).unwrap().index();
        assert!(recursive[c] && read_only[c], "Lk{i}");
    }
}
