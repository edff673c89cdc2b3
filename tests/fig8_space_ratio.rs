//! Pinning tests for the Fig 8 Reynolds3 space-ratio drift.
//!
//! The paper reports a field-subtyping space ratio of **0.004** for
//! Reynolds3; this implementation currently measures **≈ 0.0125** (peak
//! 41 272 / total 3 314 552 bytes at tree depth 10). The gap is `letreg`
//! *placement depth*: our \[exp-block\] grouping binds one letreg per
//! conditional level of `search` (block depths 0..=3), so each recursion
//! frame's cons cell is reclaimed — hence ratio ≪ 1 — but lives for its
//! whole branch block, spanning both child recursions, instead of the
//! narrower extent the paper's placement achieves. Fixing the drift means
//! tightening those extents; these tests freeze today's behaviour and the
//! *expected direction* of any future change:
//!
//! - the ratio must never regress above ≈ 0.0125 (that would mean frames
//!   stopped reclaiming, back toward the no-subtyping ratio of 1.0);
//! - a correct improvement moves it down toward 0.004; anything below
//!   ~0.003 would beat the paper and deserves scrutiny, not celebration.

use region_inference::prelude::*;
use region_inference::runtime::RunConfig;

/// A workspace holding the Reynolds3 benchmark.
fn reynolds3() -> Workspace {
    let b = region_inference::benchmarks::by_name("Reynolds3").expect("registered");
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source(b.name, b.source).unwrap();
    ws
}

fn reynolds3_field() -> (std::sync::Arc<Compilation>, cj_runtime::Outcome) {
    let b = region_inference::benchmarks::by_name("Reynolds3").expect("registered");
    let mut ws = reynolds3();
    let compilation = ws
        .check(InferOptions::with_mode(SubtypeMode::Field))
        .expect("Reynolds3 compiles");
    let args: Vec<Value> = b.paper_input.iter().map(|&v| Value::Int(v)).collect();
    let out = run_main_big_stack(&compilation.program, &args, RunConfig::default())
        .expect("Reynolds3 runs");
    (compilation, out)
}

#[test]
fn reynolds3_field_sub_space_ratio_is_pinned() {
    let (_, out) = reynolds3_field();
    let ratio = out.space.space_ratio();
    // Paper: 0.004. Current implementation: 0.0125 (documented drift).
    assert!(
        ratio < 0.014,
        "field-sub ratio regressed to {ratio:.4}; letreg placement must keep \
         reclaiming per-frame cells (paper target 0.004, current 0.0125)"
    );
    assert!(
        ratio > 0.003,
        "field-sub ratio {ratio:.4} beats the paper's 0.004 — if the letreg \
         placement improved, re-pin this band (previous value 0.0125)"
    );
    // Exact current behaviour, frozen: any movement is a deliberate change.
    assert!(
        (ratio - 0.0125).abs() < 0.0005,
        "space ratio drifted from the pinned 0.0125 to {ratio:.4}; if this \
         was an intentional letreg-placement change toward the paper's \
         0.004, update this pin and the ROADMAP entry"
    );
}

#[test]
fn reynolds3_letreg_placement_depth_is_pinned() {
    // The drift's mechanism, pinned structurally: `search` currently
    // carries one letreg per conditional level (depths 0..=3) — the
    // per-frame cell is bound at its branch block rather than coalesced
    // into the single tightest extent around the allocation-and-children
    // region the paper's placement implies.
    let (compilation, _) = reynolds3_field();
    let p = &compilation.program;
    let search = p
        .all_rmethods()
        .find(|(id, _)| p.kernel.method(*id).name.as_str() == "search")
        .expect("search exists")
        .1;
    assert!(
        !search.letregs().is_empty(),
        "field subtyping must localize the per-frame cell"
    );

    // Collect the conditional-nesting depth of every letreg in `search`.
    fn letreg_depths(
        m: &cj_infer::RMethod,
        e: &cj_frontend::kernel::KExpr,
        depth: usize,
        out: &mut Vec<usize>,
    ) {
        use cj_frontend::kernel::KExprKind as K;
        out.extend(m.letregs_at(e.id).iter().map(|_| depth));
        let (cond, arms) = match &e.kind {
            K::If {
                cond,
                then_e,
                else_e,
            } => (cond, [Some(then_e), Some(else_e)]),
            K::While { cond, body } => (cond, [Some(body), None]),
            _ => {
                for c in e.children() {
                    letreg_depths(m, c, depth, out);
                }
                return;
            }
        };
        letreg_depths(m, cond, depth, out);
        for arm in arms.into_iter().flatten() {
            letreg_depths(m, arm, depth + 1, out);
        }
    }
    let mut depths = Vec::new();
    letreg_depths(search, &p.kernel.method(search.id).body, 0, &mut depths);
    assert!(
        !depths.is_empty(),
        "search must contain at least one letreg under field subtyping"
    );
    depths.sort_unstable();
    assert_eq!(
        depths,
        vec![0, 1, 2, 3],
        "pinned: search binds one letreg per conditional level. Any change \
         here is the letreg-placement work behind the 0.0125 → 0.004 Fig 8 \
         gap — re-pin deliberately (with the new ratio) when it lands"
    );
}

#[test]
fn reynolds3_space_stats_are_identical_on_the_vm() {
    // The pinned Fig 8 drift must hold on the register VM too: its
    // bump-arena accounting reproduces the interpreter's SpaceStats
    // bit-for-bit, so the 0.0125 pin above covers both engines.
    let b = region_inference::benchmarks::by_name("Reynolds3").expect("registered");
    let opts = InferOptions::with_mode(SubtypeMode::Field);
    let mut ws = reynolds3();
    let compilation = ws.check(opts).expect("Reynolds3 compiles");
    let compiled = ws.compiled(opts).expect("Reynolds3 lowers");
    let args: Vec<Value> = b.paper_input.iter().map(|&v| Value::Int(v)).collect();
    let vm = region_inference::rvm::run_main(&compiled, &args, RunConfig::default())
        .expect("Reynolds3 runs on the VM");
    let interp =
        run_main_big_stack(&compilation.program, &args, RunConfig::default()).expect("runs");
    assert_eq!(vm.space, interp.space, "SpaceStats diverged across engines");
    assert_eq!(vm.value, interp.value);
    let ratio = vm.space.space_ratio();
    assert!(
        (ratio - 0.0125).abs() < 0.0005,
        "VM space ratio drifted from the pinned 0.0125 to {ratio:.4}"
    );
}

#[test]
fn reynolds3_mode_ordering_matches_fig8() {
    // Fig 8's qualitative ordering: no-sub = object-sub = 1.0 ≫ field-sub.
    let b = region_inference::benchmarks::by_name("Reynolds3").unwrap();
    let mut ws = reynolds3();
    let args: Vec<Value> = b.paper_input.iter().map(|&v| Value::Int(v)).collect();
    let mut ratios = Vec::new();
    for mode in SubtypeMode::ALL {
        let compilation = ws.check(InferOptions::with_mode(mode)).unwrap();
        let out = run_main_big_stack(&compilation.program, &args, RunConfig::default()).unwrap();
        ratios.push(out.space.space_ratio());
    }
    assert!((ratios[0] - 1.0).abs() < 1e-9, "no-sub reclaims nothing");
    assert!(
        (ratios[1] - 1.0).abs() < 1e-9,
        "object-sub reclaims nothing"
    );
    assert!(ratios[2] < 0.02, "field-sub reclaims per-frame cells");
}

#[test]
fn reynolds3_liveness_extents_pin() {
    // The liveness row of the Fig 8 pin. Flow-sensitive extent inference
    // (`--extents liveness`) rewrites 4 of `search`'s letregs, but
    // Reynolds3's 0.0125 peak is *live-minimal* at region granularity:
    // the per-frame cons cell is passed into both child recursions, so
    // its (block-merged) region is genuinely live across the whole
    // branch block, and tightening extents cannot free it earlier. The
    // remaining 0.0125 → 0.004 gap is region *splitting* — un-merging
    // the one-letreg-per-block grouping so the cell's region can close
    // between the two child calls — not extent placement; see ROADMAP.
    //
    // Pinned honestly: liveness must never be worse than paper, must
    // stay below the 0.0125 band, and must agree across both engines.
    let b = region_inference::benchmarks::by_name("Reynolds3").expect("registered");
    let mut ws = reynolds3();
    let args: Vec<Value> = b.paper_input.iter().map(|&v| Value::Int(v)).collect();

    let paper_opts = InferOptions::with_mode(SubtypeMode::Field);
    let live_opts = InferOptions {
        extent: ExtentMode::Liveness,
        ..paper_opts
    };
    let paper = ws.check(paper_opts).expect("paper compiles");
    let paper_out = run_main_big_stack(&paper.program, &args, RunConfig::default()).expect("runs");
    let live = ws.check(live_opts).expect("liveness compiles");
    let live_out = run_main_big_stack(&live.program, &args, RunConfig::default()).expect("runs");

    assert_eq!(paper_out.value, live_out.value, "modes changed the answer");
    assert_eq!(
        paper_out.space.total_allocated, live_out.space.total_allocated,
        "extent tightening changed what was allocated"
    );
    assert!(
        ws.pass_counts().extent_rewrites >= 1,
        "liveness mode must actually rewrite Reynolds3 letregs"
    );
    assert!(
        live_out.space.peak_live <= paper_out.space.peak_live,
        "liveness peak {} exceeds paper peak {}",
        live_out.space.peak_live,
        paper_out.space.peak_live
    );
    let ratio = live_out.space.space_ratio();
    assert!(
        ratio < 0.0125,
        "liveness ratio {ratio:.6} must stay below the paper-mode 0.0125 band"
    );
    assert!(
        ratio > 0.003,
        "liveness ratio {ratio:.6} beats the paper's 0.004 — re-pin deliberately"
    );

    // Engine agreement under liveness placement, like the paper-mode pin.
    let compiled = ws.compiled(live_opts).expect("lowers");
    let vm = region_inference::rvm::run_main(&compiled, &args, RunConfig::default()).expect("runs");
    assert_eq!(
        vm.space, live_out.space,
        "SpaceStats diverged across engines"
    );
    assert_eq!(vm.value, live_out.value);
}
