//! The Sec 5 downcast-safety analysis on the paper's Fig 7 program:
//! backward flows, per-variable/per-site downcast sets, the bound-to-fail
//! verdict for the `E` allocation, and the padded annotations produced by
//! the two region-preservation strategies.
//!
//! Run with: `cargo run --example downcast_analysis`

use region_inference::prelude::*;

const FIG7: &str = "
    class A { Object f1; }
    class B extends A { Object f2; }
    class C extends A { Object f3; }
    class D extends C { Object f4; }
    class E extends A { Object f5; Object f6; Object f7; }
    class Main {
        static void main(bool c1, bool c2) {
            A a; A a2;
            a2 = new A(null);
            if (c1) {
                a = new B(null, null);
            } else {
                if (c2) {
                    a = new C(null, null);
                } else {
                    a = new E(null, null, null, null);
                }
            }
            B b = (B) a;
            C c = (C) a;
            D d = (D) c;
        }
    }";

fn main() -> Result<(), Diagnostics> {
    let opts = InferOptions {
        mode: SubtypeMode::Object,
        downcast: DowncastPolicy::Padding,
        ..Default::default()
    };
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("fig7.cj", FIG7)?;
    let kp = ws.typecheck()?;
    let analysis = ws.downcast_analysis()?;

    println!("=== Backward flow analysis (Fig 7) ===\n");
    println!(
        "{} downcast expression(s) found.\n",
        analysis.downcast_count
    );

    println!("Downcast sets per variable:");
    for ((m, v), set) in {
        let mut entries: Vec<_> = analysis.var_sets.iter().collect();
        entries.sort_by_key(|((m, v), _)| (*m, *v));
        entries
    } {
        let method = kp.method(*m);
        let classes: Vec<&str> = set.iter().map(|&c| kp.table.name(c).as_str()).collect();
        println!(
            "  {}::{} -> {{{}}}",
            kp.method_name(*m),
            method.vars[v.index()].name,
            classes.join(", ")
        );
    }

    println!("\nDowncast sets per allocation site:");
    for site in &analysis.sites {
        let set = analysis.site_sets.get(&site.id);
        let classes: Vec<&str> = set
            .map(|s| s.iter().map(|&c| kp.table.name(c).as_str()).collect())
            .unwrap_or_default();
        let doomed = if analysis.doomed_sites.contains(&site.id) {
            "  <- bound to fail: padding not instantiated"
        } else {
            ""
        };
        println!(
            "  new {} in {} -> {{{}}}{}",
            kp.table.name(site.class),
            kp.method_name(site.method),
            classes.join(", "),
            doomed
        );
    }

    println!("\n=== Padded annotations (technique 2) ===\n");
    let compilation = ws.check(opts)?;
    println!("{}", ws.annotate(opts)?);
    println!(
        "downcast sites analysed: {}",
        compilation.stats.downcast_sites
    );
    // The analysis' structured warnings (bound-to-fail sites), rendered.
    let warnings = analysis.diagnostics(&kp);
    if !warnings.is_empty() {
        println!("\n=== Structured warnings ===\n");
        print!("{}", ws.render(&warnings));
    }
    Ok(())
}
