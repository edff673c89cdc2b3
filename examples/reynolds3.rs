//! Reynolds3 (Sec 3.2): the showcase for *field region subtyping*.
//!
//! `search` conses an immutable environment list at every tree node. With
//! no or object subtyping, equivariant unification of the recursive region
//! pins every cell to the long-lived seed list — no memory is reclaimed
//! until the program ends. Field subtyping makes the recursive region
//! covariant for read-only structures, so each recursion frame reclaims its
//! own cell: space usage drops from the whole traversal to the current
//! path, "comparable to escape analysis" as the paper puts it.
//!
//! Run with: `cargo run --release --example reynolds3`

use region_inference::prelude::*;

fn main() -> Result<(), Diagnostics> {
    let b = region_inference::benchmarks::by_name("Reynolds3").expect("registered");
    println!(
        "Reynolds3, tree depth {} — space ratios by subtyping mode:\n",
        10
    );
    println!(
        "{:<12} {:>12} {:>16} {:>14} {:>10}",
        "mode", "peak bytes", "total allocated", "ratio", "letregs"
    );
    // One workspace: the benchmark is parsed and typechecked once; each
    // mode derives its inference artifact from the shared kernel.
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source(b.name, b.source)?;
    let args: Vec<Value> = b.paper_input.iter().map(|&v| Value::Int(v)).collect();
    for mode in SubtypeMode::ALL {
        let opts = InferOptions::with_mode(mode);
        let compilation = ws.check(opts)?;
        let out = ws.run(opts, Engine::default(), &args)?;
        println!(
            "{:<12} {:>12} {:>16} {:>14.4} {:>10}",
            mode.to_string(),
            out.space.peak_live,
            out.space.total_allocated,
            out.space.space_ratio(),
            compilation.stats.localized_regions
        );
    }
    assert_eq!(ws.pass_counts().typecheck, 1);
    println!("\nPaper's Fig 8 row: 1 (no sub) / 1 (object sub) / 0.004 (field sub).");
    Ok(())
}
