//! End-to-end proof of incrementality: in a multi-file, multi-class,
//! multi-SCC workspace, editing one method body re-parses only the edited
//! file, while query results for untouched SCCs stay byte-identical, and
//! the whole result (spans included) matches a from-scratch compile.

use region_inference::prelude::*;

const LIST_CJ: &str = "
class List { Object value; List next;
  Object getValue() { this.value }
  List getNext() { this.next }
  static bool isNull(List l) { l == null }
  static List join(List xs, List ys) {
    if (isNull(xs)) { ys } else {
      List r = join(xs.getNext(), ys);
      new List(xs.getValue(), r)
    }
  }
}";

const STACK_CJ: &str = "
class Stack { List top;
  void push(Object o) { this.top = new List(o, this.top); }
  Object peek() { this.top.getValue() }
  List drain() { List t = this.top; this.top = (List) null; t }
}";

const MAIN_CJ: &str = "
class Main {
  static Object roundtrip(Stack s, Object o) {
    s.push(o);
    s.peek()
  }
  static List merge(Stack a, Stack b) {
    join(a.drain(), b.drain())
  }
}";

/// `Main.roundtrip` with an edited body (same signature).
const MAIN_EDITED_CJ: &str = "
class Main {
  static Object roundtrip(Stack s, Object o) {
    s.push(o);
    s.push(s.peek());
    s.peek()
  }
  static List merge(Stack a, Stack b) {
    join(a.drain(), b.drain())
  }
}";

fn dump_q(p: &cj_infer::RProgram) -> Vec<String> {
    p.q.iter().map(|a| a.to_string()).collect()
}

#[test]
fn one_body_edit_reparses_one_file_and_matches_from_scratch() {
    let opts = InferOptions::default();
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("list.cj", LIST_CJ).unwrap();
    ws.set_source("stack.cj", STACK_CJ).unwrap();
    ws.set_source("main.cj", MAIN_CJ).unwrap();

    // ---- cold compile ----------------------------------------------------
    let cold_compilation = ws.check(opts).unwrap();
    let cold = ws.pass_counts();
    assert_eq!(cold.parse, 3, "three files parsed");
    assert!(cold.sccs_solved > 4, "multi-SCC program: {cold:?}");
    let total_methods = cold_compilation.stats.methods_inferred;
    assert_eq!(total_methods, 9, "all nine methods inferred cold");

    // Untouched-SCC observables, before the edit.
    let join_before = ws.q(opts, "pre.join").unwrap().expect("join solved");
    let inv_list_before = ws.invariant(opts, "List").unwrap().expect("inv.List");
    let push_before = ws
        .precondition(opts, Some("Stack"), "push")
        .unwrap()
        .unwrap();

    // ---- the edit: one method body in main.cj ---------------------------
    ws.set_source("main.cj", MAIN_EDITED_CJ).unwrap();
    let warm_compilation = ws.check(opts).unwrap();
    let warm = ws.pass_counts().since(cold);

    // Only the edited file re-parses; the merged program re-typechecks once.
    assert_eq!(warm.parse, 1, "only main.cj re-parses: {warm:?}");
    assert_eq!(warm.typecheck, 1);
    assert_eq!(warm.infer, 1);

    // Every body re-infers.
    assert_eq!(warm.methods_inferred, 9, "{warm:?}");

    // ---- untouched SCCs: byte-identical query answers -------------------
    let join_after = ws.q(opts, "pre.join").unwrap().expect("join solved");
    assert_eq!(join_before.to_string(), join_after.to_string());
    let inv_list_after = ws.invariant(opts, "List").unwrap().expect("inv.List");
    assert_eq!(inv_list_before.to_string(), inv_list_after.to_string());
    let push_after = ws
        .precondition(opts, Some("Stack"), "push")
        .unwrap()
        .unwrap();
    assert_eq!(push_before.to_string(), push_after.to_string());

    // ---- equivalence with a from-scratch compile ------------------------
    // The workspace merges files in name order: list.cj, main.cj, stack.cj.
    let concatenated = format!("{LIST_CJ}{MAIN_EDITED_CJ}{STACK_CJ}");
    let mut scratch = Workspace::new(SessionOptions::default());
    scratch.set_source("all.cj", concatenated).unwrap();
    let scratch_compilation = scratch.check(opts).unwrap();
    assert_eq!(
        warm.sccs_solved,
        scratch.pass_counts().sccs_solved,
        "the edit costs the SCC solves of a from-scratch compile"
    );
    assert_eq!(
        region_inference::annotate(&warm_compilation.program),
        region_inference::annotate(&scratch_compilation.program),
        "incremental result must be bit-identical to from-scratch"
    );
    assert_eq!(
        dump_q(&warm_compilation.program),
        dump_q(&scratch_compilation.program)
    );
}

#[test]
fn queries_are_demand_driven_and_cached() {
    let opts = InferOptions::default();
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("list.cj", LIST_CJ).unwrap();
    // The first query runs the pipeline on demand…
    let join = ws.q(opts, "pre.join").unwrap().expect("join");
    assert!(!join.params.is_empty());
    let counts = ws.pass_counts();
    assert_eq!(counts.infer, 1);
    // …subsequent queries (and entailment checks) re-run nothing.
    assert!(ws.entails(opts, "pre.join", "r1=r1").unwrap().is_some());
    ws.invariant(opts, "List").unwrap().unwrap();
    assert_eq!(ws.pass_counts(), counts);
}

#[test]
fn fig6_join_precondition_queryable_through_workspace() {
    // The Fig 6(d) fixed point pre.join = r2>=r8 & r5>=r8, asked through
    // the positional `entails` query API.
    let src = "
    class List { Object value; List next;
      Object getValue() { this.value }
      List getNext() { this.next }
      static bool isNull(List l) { l == null }
      static List join(List xs, List ys) {
        if (isNull(xs)) {
          if (isNull(ys)) { (List) null } else { join(ys, xs) }
        } else {
          Object x; List res;
          x = xs.getValue();
          xs = xs.getNext();
          res = join(ys, xs);
          new List(x, res)
        }
      }
    }";
    let opts = InferOptions::with_mode(SubtypeMode::Object);
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("join.cj", src).unwrap();
    assert_eq!(ws.entails(opts, "pre.join", "r2>=r8").unwrap(), Some(true));
    assert_eq!(ws.entails(opts, "pre.join", "r5>=r8").unwrap(), Some(true));
    assert_eq!(ws.entails(opts, "pre.join", "r1=r2").unwrap(), Some(false));
}

#[test]
fn policy_recheck_after_edit_matches_from_scratch() {
    // Within a revision the policy outcome is replayed; after an edit every
    // rule is re-checked against every method, and the verdict is the one a
    // from-scratch workspace gives.
    const CELL_CJ: &str = "
    class Cell { Object v; }
    class Box { Cell c;
      void fill() { this.c = new Cell(null); }
    }";
    const MAIN_CJ: &str = "
    class Main {
      static Cell leak() { new Cell(null) }
      static void main() { Box b = new Box(null); b.fill(); }
    }";
    // Same shape, different `main` body; `leak` and `Box.fill` untouched.
    const MAIN_EDITED_CJ: &str = "
    class Main {
      static Cell leak() { new Cell(null) }
      static void main() { Box b = new Box(null); b.fill(); b.fill(); }
    }";
    const RULES: &str = "no-escape Cell\nconfine Cell to Box\n";
    let opts = InferOptions::default();

    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("cell.cj", CELL_CJ).unwrap();
    ws.set_source("main.cj", MAIN_CJ).unwrap();
    ws.set_policy("rules.cjpolicy", RULES).unwrap();

    // ---- cold policy check ----------------------------------------------
    ws.check(opts).unwrap();
    let cold_outcome = ws.check_policy(opts).unwrap();
    let cold = ws.pass_counts();
    assert!(cold.rules_checked > 0, "{cold:?}");
    assert_eq!(cold.policy_violations, cold_outcome.violations);
    assert!(cold_outcome.violations > 0, "leak() must violate no-escape");

    // ---- same revision: pure replay, no evaluation, same verdict --------
    let replay_outcome = ws.check_policy(opts).unwrap();
    let replay = ws.pass_counts().since(cold);
    assert_eq!(replay.rules_checked, 0, "replay must not re-evaluate");
    assert_eq!(replay.policy_violations, 0, "replay must not re-count");
    assert_eq!(
        ws.render(&replay_outcome.diagnostics),
        ws.render(&cold_outcome.diagnostics)
    );

    // ---- one body edit: every rule × method is re-evaluated ------------
    ws.set_source("main.cj", MAIN_EDITED_CJ).unwrap();
    ws.check(opts).unwrap();
    let warm_outcome = ws.check_policy(opts).unwrap();
    let warm = ws.pass_counts().since(cold);
    assert_eq!(warm.rules_checked, cold.rules_checked, "{warm:?}");
    // Verdict unchanged (the edit is policy-neutral).
    assert_eq!(warm_outcome.violations, cold_outcome.violations);
    assert_eq!(warm.policy_violations, warm_outcome.violations);

    // ---- cross-check against a from-scratch workspace -------------------
    let mut scratch = Workspace::new(SessionOptions::default());
    scratch.set_source("cell.cj", CELL_CJ).unwrap();
    scratch.set_source("main.cj", MAIN_EDITED_CJ).unwrap();
    scratch.set_policy("rules.cjpolicy", RULES).unwrap();
    scratch.check(opts).unwrap();
    let scratch_outcome = scratch.check_policy(opts).unwrap();
    assert_eq!(
        scratch.render(&scratch_outcome.diagnostics),
        ws.render(&warm_outcome.diagnostics),
        "incremental verdict must match from-scratch"
    );
}

#[test]
fn prepended_newlines_move_fault_and_policy_spans_as_in_a_fresh_workspace() {
    // An edit that only moves code: every body is unchanged but for its
    // spans. Runtime faults (on both engines) and policy findings must
    // point where a fresh compile of the edited text points.
    const SRC: &str = "class Cell { Object v; }
class M {
  static Cell leak() { new Cell(null) }
  static int main() {
    Cell c = (Cell) null;
    c.v = null;
    0
  }
}
";
    const RULES: &str = "no-escape Cell\n";
    let shifted = format!("\n\n\n{SRC}");

    let open = |text: &str| {
        let mut ws = Workspace::new(SessionOptions::default());
        ws.set_source("a.cj", text).unwrap();
        ws.set_policy("rules.cjpolicy", RULES).unwrap();
        ws
    };
    // Rendered fault per engine, then rendered policy findings.
    let observe = |ws: &mut Workspace| {
        let opts = InferOptions::default();
        let mut seen = Vec::new();
        for engine in [Engine::Rvm, Engine::Interp] {
            let err = ws.run(opts, engine, &[]).unwrap_err();
            seen.push(ws.render(&err));
        }
        let outcome = ws.check_policy(opts).unwrap();
        assert!(outcome.violations > 0, "leak() must violate no-escape");
        seen.push(ws.render(&outcome.diagnostics));
        seen
    };

    let mut ws = open(SRC);
    let before = observe(&mut ws);
    ws.set_source("a.cj", shifted.as_str()).unwrap();
    let edited = observe(&mut ws);
    let fresh = observe(&mut open(&shifted));
    assert_eq!(edited, fresh, "edited workspace must match a fresh one");
    assert_ne!(edited, before, "the edit moves every span");
}

/// A class whose `N` static methods call each other in a ring,
/// `m0 → m1 → … → m{N-1} → m0`, behind one non-recursive method `pre`
/// declared first. Each step allocates, so the cycle's abstractions
/// carry real constraints. `pre_body` is `pre`'s body.
fn call_cycle(n: usize, pre_body: &str) -> String {
    let mut src = format!(
        "class Node {{ Node next; Object item; }}\n\
         class Ring {{\n  static Object pre(Node a) {{ {pre_body} }}\n"
    );
    for i in 0..n {
        src.push_str(&format!(
            "  static Node m{i}(Node x, Node y, int k) {{ \
             if (k == 0) {{ x }} else {{ m{}(y, new Node(x, y.item), k - 1) }} }}\n",
            (i + 1) % n
        ));
    }
    src.push_str("}\n");
    src
}

#[test]
fn id_shifting_edit_of_a_large_call_cycle_matches_a_fresh_workspace() {
    let opts = InferOptions::default();
    const N: usize = 60;
    let before = call_cycle(N, "a.item");
    // Two allocations ahead of the cycle shift every region id after them.
    let after = call_cycle(N, "Node t = new Node(a, a.item); new Node(t, t.item).item");

    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("ring.cj", before.as_str()).unwrap();
    let cold = ws.check(opts).unwrap();
    ws.set_source("ring.cj", after.as_str()).unwrap();
    let warm = ws.check(opts).unwrap();

    let mut fresh = Workspace::new(SessionOptions::default());
    fresh.set_source("ring.cj", after.as_str()).unwrap();
    let fresh = fresh.check(opts).unwrap();
    assert_ne!(
        region_inference::annotate(&cold.program),
        region_inference::annotate(&warm.program),
        "the edit changes the output"
    );
    assert_eq!(
        region_inference::annotate(&warm.program),
        region_inference::annotate(&fresh.program),
        "the edited workspace must be bit-identical to a fresh one"
    );
    assert_eq!(dump_q(&warm.program), dump_q(&fresh.program));
}
