//! Property test for invalidation correctness: for random edit sequences,
//! an incrementally recompiled `Workspace` must produce exactly the same
//! result — same annotated `RProgram` pretty-printout, same closed
//! environment `Q` — as a from-scratch compile of the concatenated sources
//! in a fresh one-file workspace. This pins the central contract of the incremental
//! pipeline: caches change how much work is *replayed*, never what is
//! computed.

use cj_driver::{Compilation, SessionOptions, Workspace};
use cj_infer::InferOptions;
use proptest::prelude::*;
use std::sync::Arc;

/// Body variants per file. Within a file, variants 0..3 share the same
/// class shape (signature-preserving body edits), while variant 3 changes
/// the method set (and with it the region signatures).
const A_VARIANTS: &[&str] = &[
    "class Box { Object item;
       Object get() { this.item }
       void put(Object o) { this.item = o; }
     }",
    "class Box { Object item;
       Object get() { this.item }
       void put(Object o) { this.put2(o); }
       void put2(Object o) { this.item = o; }
     }",
    "class Box { Object item;
       Object get() { this.get() }
       void put(Object o) { this.item = o; }
     }",
    "class Box { Object item;
       Object get() { this.item }
       void put(Object o) { this.item = o; this.item = this.get(); }
     }",
];

const B_VARIANTS: &[&str] = &[
    "class Chain { Object value; Chain rest;
       static Chain grow(Chain c, Object o) { new Chain(o, c) }
       Object head() { this.value }
     }",
    "class Chain { Object value; Chain rest;
       static Chain grow(Chain c, Object o) { grow(c, o) }
       Object head() { this.value }
     }",
    "class Chain { Object value; Chain rest;
       static Chain grow(Chain c, Object o) { new Chain(o, new Chain(o, c)) }
       Object head() { this.value }
     }",
    "class Chain { Object value; Chain rest;
       static Chain grow(Chain c, Object o) { new Chain(o, c) }
       Object head() { this.rest.head() }
     }",
];

const C_VARIANTS: &[&str] = &[
    "class Ops {
       static Object roundtrip(Box b, Object o) { b.put(o); b.get() }
     }",
    "class Ops {
       static Object roundtrip(Box b, Object o) { b.put(o); b.put(b.get()); b.get() }
     }",
    "class Ops {
       static Object roundtrip(Box b, Object o) { Chain c = grow((Chain) null, o); c.head() }
     }",
    "class Ops {
       static Object roundtrip(Box b, Object o) { b.get() }
       static Object second(Box b) { b.get() }
     }",
];

const FILES: [&str; 3] = ["a.cj", "b.cj", "c.cj"];
const VARIANTS: [&[&str]; 3] = [A_VARIANTS, B_VARIANTS, C_VARIANTS];

/// The three texts concatenated into one file and checked from scratch.
fn scratch_check(texts: &[&str; 3]) -> cj_driver::CompileResult<Arc<Compilation>> {
    // Workspace merge order is file-name order: a.cj, b.cj, c.cj.
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("all.cj", texts.concat())?;
    ws.check(InferOptions::default())
}

fn scratch_result(texts: &[&str; 3]) -> (String, Vec<String>) {
    let compilation = scratch_check(texts).expect("variants are well-formed");
    let pretty = cj_infer::pretty::program_to_string(&compilation.program);
    let q = compilation
        .program
        .q
        .iter()
        .map(|a| a.to_string())
        .collect();
    (pretty, q)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_edit_sequences_match_from_scratch_compiles(
        edits in proptest::collection::vec((0usize..3, 0usize..4), 1..7)
    ) {
        let mut ws = Workspace::new(SessionOptions::default());
        let mut current = [A_VARIANTS[0], B_VARIANTS[0], C_VARIANTS[0]];
        for (i, name) in FILES.iter().enumerate() {
            ws.set_source(*name, current[i]).unwrap();
        }
        for &(file, variant) in &edits {
            current[file] = VARIANTS[file][variant];
            ws.set_source(FILES[file], current[file]).unwrap();

            let compilation = ws
                .check(InferOptions::default())
                .expect("incremental compile succeeds");
            let ws_pretty = cj_infer::pretty::program_to_string(&compilation.program);
            let ws_q: Vec<String> =
                compilation.program.q.iter().map(|a| a.to_string()).collect();
            let (scratch_pretty, scratch_q) = scratch_result(&current);
            prop_assert_eq!(
                &ws_pretty, &scratch_pretty,
                "annotated program diverged after edits {:?}", edits
            );
            prop_assert_eq!(
                &ws_q, &scratch_q,
                "closed environment diverged after edits {:?}", edits
            );
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
            scratch_check(&texts).unwrap_or_else(|e| panic!("file {i} variant failed: {e}"));
        }
    }
}
