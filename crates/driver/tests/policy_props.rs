//! Property test for policy-verdict stability: over random programs and
//! random edit sequences, the policy verdicts of an incrementally edited
//! `Workspace` must be bit-identical to a from-scratch workspace over the
//! same sources — and invariant across `--extents paper|liveness` and
//! both execution engines. The per-revision outcome cache changes how much
//! checking is *replayed*, never what the rules conclude.

use cj_driver::{PolicyOutcome, SessionOptions, Workspace};
use cj_infer::{ExtentMode, InferOptions};
use cj_runtime::Engine;
use proptest::prelude::*;

/// Rules exercising all three kinds, checked against every variant mix.
const RULES: &str = "no-escape Cell\nconfine Cell to Box\nseparate Secret from log\n";

/// `a.cj`: the confined class and its owner. Variants keep the shape but
/// change how `Box` populates its field. Each change of `fill`'s length
/// moves the spans of the unchanged, violating `make` after it.
const A_VARIANTS: &[&str] = &[
    "class Cell { Object v; }
     class Box { Cell c;
       void fill() { this.c = new Cell(null); }
       Cell make() { new Cell(null) }
     }",
    "class Cell { Object v; }
     class Box { Cell c;
       void fill() { this.c = new Cell(null); this.c.v = null; }
       Cell make() { new Cell(null) }
     }",
    "class Cell { Object v; }
     class Box { Cell c;
       void fill() { }
       Cell make() { new Cell(null) }
     }",
];

/// `b.cj`: the source class and the sink method.
const B_VARIANTS: &[&str] = &[
    "class Secret { Object v; }
     class Log { static void log(Object o) { } }",
    "class Secret { Object v; }
     class Log { static void log(Object o) { Object t = o; t = null; } }",
];

/// `c.cj`: drivers mixing clean and violating behaviour — a `Cell`
/// allocated outside `Box` (confine), an escaping `leak` (no-escape), and
/// a `Secret` fed to `log` (separate) versus an untainted `audit` helper.
const C_VARIANTS: &[&str] = &[
    "class M {
       static void main() { Box b = new Box(null); b.fill(); }
     }",
    "class M {
       static void main() { Cell x = new Cell(null); x.v = null; }
     }",
    "class M {
       static Cell leak() { new Cell(null) }
       static void main() { Box b = new Box(null); b.fill(); }
     }",
    "class M {
       static void main() {
         Secret s = new Secret(null);
         log(s);
       }
     }",
    "class M {
       static void audit() { Object o = new Object(); log(o); }
       static void main() { Secret s = new Secret(null); s.v = null; audit(); }
     }",
];

const FILES: [&str; 3] = ["a.cj", "b.cj", "c.cj"];
const VARIANTS: [&[&str]; 3] = [A_VARIANTS, B_VARIANTS, C_VARIANTS];

/// The observable policy verdict, stripped of pass counters: one line per
/// diagnostic, rendered with spans, plus the outcome tallies.
fn verdict(ws: &Workspace, outcome: &PolicyOutcome) -> (String, u32, u32) {
    (
        ws.render(&outcome.diagnostics),
        outcome.violations,
        outcome.rule_errors,
    )
}

/// From-scratch workspace over `texts` under `opts`, policy checked once.
fn scratch_verdict(texts: &[&str; 3], opts: SessionOptions) -> (String, u32, u32) {
    let infer = opts.infer;
    let mut ws = Workspace::new(opts);
    for (name, text) in FILES.iter().zip(texts) {
        ws.set_source(*name, *text).unwrap();
    }
    ws.set_policy("rules.cjpolicy", RULES).unwrap();
    ws.check(infer).expect("variants are well-formed");
    let outcome = ws.check_policy(infer).expect("policy check runs");
    verdict(&ws, &outcome)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn policy_verdicts_match_from_scratch_and_are_mode_invariant(
        edits in proptest::collection::vec((0usize..3, 0usize..5), 1..6)
    ) {
        let mut ws = Workspace::new(SessionOptions::default());
        let mut current = [A_VARIANTS[0], B_VARIANTS[0], C_VARIANTS[0]];
        for (i, name) in FILES.iter().enumerate() {
            ws.set_source(*name, current[i]).unwrap();
        }
        ws.set_policy("rules.cjpolicy", RULES).unwrap();
        for &(file, variant) in &edits {
            current[file] = VARIANTS[file][variant % VARIANTS[file].len()];
            ws.set_source(FILES[file], current[file]).unwrap();

            ws.check(InferOptions::default()).expect("incremental compile succeeds");
            let outcome = ws.check_policy(InferOptions::default()).expect("policy check runs");
            let incremental = verdict(&ws, &outcome);
            let scratch = scratch_verdict(&current, SessionOptions::default());
            prop_assert_eq!(
                &incremental, &scratch,
                "verdicts diverged from scratch after edits {:?}", edits
            );

            // Letreg extent placement must not move policy verdicts: the
            // rules read allocation sites and the closed environment `Q`,
            // both of which `--extents liveness` leaves untouched.
            let liveness = scratch_verdict(
                &current,
                SessionOptions::with_infer(InferOptions {
                    extent: ExtentMode::Liveness,
                    ..InferOptions::default()
                }),
            );
            prop_assert_eq!(
                &incremental, &liveness,
                "verdicts diverged across extent modes after edits {:?}", edits
            );

            // Nor may the execution engine: policy is a static analysis.
            for engine in [Engine::Rvm, Engine::Interp] {
                let mut opts = SessionOptions::default();
                opts.run.engine = engine;
                let by_engine = scratch_verdict(&current, opts);
                prop_assert_eq!(
                    &incremental, &by_engine,
                    "verdicts diverged under engine {:?} after edits {:?}", engine, edits
                );
            }
        }
    }
}

#[test]
fn every_variant_combination_is_well_formed() {
    // The property above assumes all single-file variants compile; verify
    // the corners so a broken pool fails loudly here, not probabilistically.
    for (i, variants) in VARIANTS.iter().enumerate() {
        for v in *variants {
            let mut texts = [A_VARIANTS[0], B_VARIANTS[0], C_VARIANTS[0]];
            texts[i] = v;
            let _ = scratch_verdict(&texts, SessionOptions::default());
        }
    }
}
