//! The four Life variants of Fig 8, executed on the region runtime: how
//! program structure determines what region inference can reclaim.
//!
//! - *naive*: every generation retained in a history list — ratio 1;
//! - *array*: two boards mutated in place, per-generation scratch reclaimed
//!   each iteration — ratio ≈ 0.2 at ten generations;
//! - *dangling*: a never-read cache field keeps each scratch alive — under
//!   the no-dangling policy nothing is reclaimed (RegJava's
//!   no-dangling-access policy could reclaim it: the "-1" diff of Fig 8);
//! - *stack*: an undo stack retains every board — ratio 1.
//!
//! Run with: `cargo run --release --example life_space`

use region_inference::prelude::*;

fn main() -> Result<(), Diagnostics> {
    println!("Game of Life variants, 10 generations (field subtyping):\n");
    println!(
        "{:<28} {:>12} {:>16} {:>8} {:>9}",
        "variant", "peak bytes", "total allocated", "ratio", "letregs"
    );
    for name in [
        "Naive Life",
        "Optimized Life (array)",
        "Optimized Life (dangling)",
        "Optimized Life (stack)",
    ] {
        let b = region_inference::benchmarks::by_name(name).expect("registered");
        let opts = InferOptions::default();
        let mut ws = Workspace::new(SessionOptions::default());
        ws.set_source(name, b.source)?;
        let compilation = ws.check(opts)?;
        let args: Vec<Value> = b.paper_input.iter().map(|&v| Value::Int(v)).collect();
        let out = ws.run(opts, Engine::default(), &args)?;
        println!(
            "{:<28} {:>12} {:>16} {:>8.3} {:>9}",
            name,
            out.space.peak_live,
            out.space.total_allocated,
            out.space.space_ratio(),
            compilation.stats.localized_regions
        );
    }
    println!(
        "\nPaper's Fig 8 ratios: 1, 0.196, 1, 1 — with one fewer localized\n\
         region for the dangling variant than RegJava's hand annotation."
    );
    Ok(())
}
