//! Unit tests for the extent tightener's individual narrowing rules:
//! trailing-tail trimming, unused-binding removal, loop/declaration
//! interaction — plus the point-graph invariants they rest on.

use cj_frontend::kernel::ExprId;
use cj_infer::rast::{Letreg, Placement, RMethod, RProgram};
use cj_infer::{infer_source, InferOptions};
use cj_liveness::extent::tighten_method;
use cj_liveness::points::PointGraph;
use cj_liveness::ExtentStats;
use cj_regions::var::RegVar;
use cj_runtime::{run_main_big_stack, RunConfig, Value};
use std::collections::BTreeSet;

fn infer(src: &str) -> RProgram {
    let (p, _) = infer_source(src, InferOptions::default()).expect("inference");
    p
}

/// The single static method holding `main` in one-class test programs.
fn main_method(p: &RProgram) -> &RMethod {
    p.statics
        .iter()
        .find(|m| !m.letregs().is_empty())
        .expect("a static method with a letreg")
}

/// Tightens [`main_method`].
fn tighten_main(p: &mut RProgram) -> ExtentStats {
    let kernel = std::sync::Arc::clone(&p.kernel);
    let m = (p.statics.iter_mut())
        .find(|m| !m.letregs().is_empty())
        .expect("a static method with a letreg");
    tighten_method(&kernel.method(m.id).body, m)
}

/// The point graph of `m`.
fn graph(p: &RProgram, m: &RMethod) -> PointGraph {
    PointGraph::build(&p.kernel.method(m.id).body, m)
}

/// Every point of `g` where `r` is used.
fn use_points(g: &PointGraph, r: RegVar) -> Vec<usize> {
    let points = g.points.iter().enumerate();
    points
        .filter(|(_, p)| p.uses.contains(&r))
        .map(|(i, _)| i)
        .collect()
}

/// Backward liveness of the regions `of` over `g`: `live[p]` is the set of
/// regions used at `p` or at some point reachable from `p`.
fn liveness(g: &PointGraph, of: &BTreeSet<RegVar>) -> Vec<BTreeSet<RegVar>> {
    let n = g.points.len();
    let mut live: Vec<BTreeSet<RegVar>> = (g.points.iter())
        .map(|p| p.uses.intersection(of).copied().collect())
        .collect();
    // Kleene iteration to fixpoint, sweeping in reverse emission order.
    loop {
        let mut changed = false;
        for p in (0..n).rev() {
            let add: Vec<RegVar> = (g.points[p].succs.iter())
                .flat_map(|&s| live[s].iter().copied())
                .filter(|r| !live[p].contains(r))
                .collect();
            changed |= !add.is_empty();
            live[p].extend(add);
        }
        if !changed {
            return live;
        }
    }
}

fn peak(p: &RProgram, args: &[Value]) -> usize {
    run_main_big_stack(p, args, RunConfig::default())
        .expect("runs")
        .space
        .peak_live
}

#[test]
fn trailing_tail_after_last_use_is_trimmed() {
    // `b`'s region is dead after `out = b.v`, but the paper's block-scoped
    // letreg keeps it until the end of the method body.
    let src = "class Box { int v; }
        class M { static int main(int n) {
            Box b = new Box(n);
            int out = b.v;
            int i = 0;
            while (i < 1000) { out = out + 1; i = i + 1; }
            out
        } }";
    let mut p = infer(src);
    let stats = tighten_main(&mut p);
    assert_eq!(stats.letregs, 1);
    assert_eq!(stats.narrowed, 1, "the tail trim counts as a narrowing");
    assert_eq!(stats.dropped, 0);
    assert!(
        stats.extent_points_after < stats.extent_points_before,
        "extent must strictly shrink: {} !< {}",
        stats.extent_points_after,
        stats.extent_points_before
    );
    cj_check::check(&p).expect("still region-checks");
}

#[test]
fn freeing_early_lowers_peak_when_the_tail_allocates() {
    // `c` sits in a nested block, so localization gives it a letreg of
    // its own (regions within one block share a single binding, so the
    // same-block version of this program cannot split). Under paper
    // placement `b`'s region is still open when `c` is allocated, so the
    // peak holds both boxes; liveness packs `b`'s region into `out`'s
    // initializer and pops it before the branch allocates.
    let src = "class Box { int v; }
        class M { static int main(int n) {
            Box b = new Box(n);
            int out = b.v;
            int res = 0;
            if (n > 0) { Box c = new Box(out); res = c.v; } else { res = out; }
            res
        } }";
    let paper = infer(src);
    let mut live = paper.clone();
    let stats = cj_liveness::tighten(&mut live);
    assert!(stats.narrowed >= 1);
    cj_check::check(&live).expect("still region-checks");
    let args = [Value::Int(5)];
    let (pp, lp) = (peak(&paper, &args), peak(&live, &args));
    assert!(
        lp < pp,
        "expected a strict peak win: liveness {lp} vs paper {pp}"
    );
}

#[test]
fn unused_letreg_binding_is_dropped() {
    let src = "class M { static int main(int n) { n + 1 } }";
    let mut p = infer(src);
    let kernel = std::sync::Arc::clone(&p.kernel);
    let m = p
        .statics
        .iter_mut()
        .find(|m| m.letregs().is_empty())
        .expect("main has no letregs of its own");
    // Graft a letreg whose region nothing uses; the tightener must erase
    // it.
    let ghost = RegVar(9_999);
    m.set_letregs(vec![Letreg {
        region: ghost,
        at: Placement::Node(ExprId(0)),
    }]);
    let stats = tighten_method(&kernel.method(m.id).body, m);
    assert_eq!(stats.dropped, 1);
    assert!(m.letregs().is_empty(), "dropped binding leaves `letregs`");
    cj_check::check(&p).expect("still region-checks");
    let out = run_main_big_stack(&p, &[Value::Int(41)], RunConfig::default()).unwrap();
    assert_eq!(out.value.to_string(), "42");
}

#[test]
fn declaration_before_loop_pins_the_extent_across_iterations() {
    // `b` is declared before the loop and reassigned inside it: the
    // declaration counts as a use, so the letreg may not sink into the
    // loop body (that would free per-iteration data `b` still carries).
    let src = "class Box { int v; }
        class M { static int main(int n) {
            Box b = new Box(0);
            int i = 0;
            while (i < n) { b = new Box(i); i = i + 1; }
            b.v
        } }";
    let mut p = infer(src);
    tighten_main(&mut p);
    cj_check::check(&p).expect("still region-checks");
    let m = main_method(&p);
    let g = graph(&p, m);
    assert!(g.extents_cover_uses());
    // The rewritten extent still covers every use, including the
    // declaration point before the loop and the read after it.
    for &(r, push, pop) in &g.letregs {
        for u in use_points(&g, r) {
            assert!(u >= push && u <= pop, "use {u} outside [{push}, {pop}]");
        }
    }
    let out = run_main_big_stack(&p, &[Value::Int(4)], RunConfig::default()).unwrap();
    assert_eq!(out.value.to_string(), "3");
}

#[test]
fn point_graph_liveness_covers_loop_back_edges() {
    let src = "class Box { int v; }
        class M { static int main(int n) {
            Box b = new Box(0);
            int i = 0;
            while (i < n) { b = new Box(i); i = i + 1; }
            b.v
        } }";
    let p = infer(src);
    let m = main_method(&p);
    let g = graph(&p, m);
    assert!(g.extents_cover_uses());
    let of: BTreeSet<RegVar> = m.letregs().iter().map(|l| l.region).collect();
    let live = liveness(&g, &of);
    for &(r, push, pop) in &g.letregs {
        // Live on entry (some path reaches a use), at every use point —
        // including the loop-body uses reached via the back edge — and
        // dead by the pop (the final read precedes it).
        assert!(live[push].contains(&r), "region dead at its own push");
        for u in use_points(&g, r) {
            assert!(live[u].contains(&r), "region dead at its own use {u}");
        }
        assert!(
            !live[pop].contains(&r),
            "region {r:?} still live at its pop point {pop}"
        );
    }
}
