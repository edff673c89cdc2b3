//! Quickstart: infer region annotations for the paper's Pair class and
//! print the annotated program in the paper's notation — via the staged
//! `Workspace` driver.
//!
//! Run with: `cargo run --example quickstart`

use region_inference::prelude::*;

fn main() -> Result<(), Diagnostics> {
    let source = "
        class Pair {
          Object fst;
          Object snd;

          Object getFst() { this.fst }
          void setSnd(Object o) { this.snd = o; }
          Pair cloneRev() {
            Pair tmp = new Pair(null, null);
            tmp.fst = this.snd;
            tmp.snd = this.fst;
            tmp
          }
          void swap() {
            Object t = this.fst;
            this.fst = this.snd;
            this.snd = t;
          }
        }";

    // One workspace drives parse → normal typecheck → region inference →
    // region check, caching each artifact.
    let opts = InferOptions::default();
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("pair.cj", source)?;
    let compilation = ws.check(opts)?;

    println!("=== Region-annotated program (cf. Fig 2a of the paper) ===\n");
    println!("{}", ws.annotate(opts)?);

    // The constraint abstractions Q are available programmatically too.
    println!("=== Constraint abstractions Q ===\n");
    for abs in compilation.program.q.iter() {
        println!("{abs}");
    }

    // Every stage ran exactly once, annotate() reused the cached artifact.
    assert_eq!(ws.pass_counts().infer, 1);
    Ok(())
}
