//! The paper's worked examples, end to end:
//!
//! - Fig 4 — four `Pair` objects, where the non-escaping ones coalesce into
//!   a single `letreg` region;
//! - Fig 5 — a circular structure whose cycle forces one shared region;
//! - Fig 6 — the recursive `join` whose precondition is solved by
//!   fixed-point iteration (region-polymorphic recursion).
//!
//! Run with: `cargo run --example pair_list`

use region_inference::prelude::*;

const PAIR: &str = "
    class Pair { Object fst; Object snd;
      void setSnd(Object o) { this.snd = o; }
    }";

fn main() -> Result<(), Diagnostics> {
    // ---- Fig 4: localized regions -------------------------------------
    let fig4 = format!(
        "{PAIR}
        class Main {{
          static Pair build() {{
            Pair p4 = new Pair(null, null);
            Pair p3 = new Pair(p4, null);
            Pair p2 = new Pair(null, p4);
            Pair p1 = new Pair(p2, null);
            p1.setSnd(p3);
            p2
          }}
        }}"
    );
    let p = compile(&fig4, InferOptions::default())?;
    println!("=== Fig 4: localised regions ===\n");
    println!("{}", annotate(&p));
    let build = p
        .all_rmethods()
        .find(|(id, _)| p.kernel.method_name(*id) == "build")
        .expect("build exists")
        .1;
    println!(
        "build() localises {} region(s) — p1 and p3 share one letreg, \
         p2 and p4 escape through the result.\n",
        build.letregs().len()
    );

    // ---- Fig 5: circular structures ------------------------------------
    let fig5 = format!(
        "{PAIR}
        class Cycle {{
          static Pair cycle() {{
            Pair p1 = new Pair(null, null);
            Pair p2 = new Pair(p1, null);
            p1.setSnd(p2);
            p2
          }}
        }}"
    );
    let p = compile(&fig5, InferOptions::default())?;
    println!("=== Fig 5: a cyclic structure shares one region ===\n");
    let cycle = p
        .all_rmethods()
        .find(|(id, _)| p.kernel.method_name(*id) == "cycle")
        .expect("cycle exists")
        .1;
    let km = p
        .kernel
        .all_methods()
        .find(|(_, m)| m.name.as_str() == "cycle")
        .unwrap()
        .1;
    for name in ["p1", "p2"] {
        let slot = km
            .vars
            .iter()
            .position(|v| v.name.as_str() == name)
            .unwrap();
        println!(
            "  {name}: object region {:?}",
            cycle.var_types[slot].object_region().unwrap()
        );
    }
    println!("  (identical — the outlives cycle collapsed to equality)\n");

    // ---- Fig 6: region-polymorphic recursion ---------------------------
    let fig6 = "
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
    let p = compile(fig6, InferOptions::default())?;
    println!("=== Fig 6: join and its fixed point ===\n");
    let (join_id, _) = p
        .all_rmethods()
        .find(|(id, _)| p.kernel.method_name(*id) == "join")
        .expect("join exists");
    println!(
        "pre.join (minimal form) = {}",
        region_inference::infer::pretty::display_precondition(&p, join_id)
    );
    println!("(the paper's closed form: r2>=r8 & r5>=r8 — both element");
    println!(" regions outlive the result's element region)");
    Ok(())
}
