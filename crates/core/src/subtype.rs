//! Region subtyping (Sec 3.2).
//!
//! [`subtype`] emits the region constraints under which `sub ≤ sup` holds,
//! according to the selected [`SubtypeMode`]:
//!
//! - **no subtyping**: every corresponding region pair is equated
//!   (equivariance);
//! - **object subtyping**: the object's own region is covariant
//!   (`r₁' ≥ r₁`) because an object never migrates out of its region; all
//!   field regions stay equivariant (fields are mutable);
//! - **field subtyping**: additionally, for classes whose recursive fields
//!   are immutable after construction (`isRecReadOnly`), the dedicated
//!   recursive region is covariant too — this is what lets each cell of a
//!   read-only recursive structure live in a younger region than its tail
//!   (the Reynolds3 example).
//!
//! When the subclass has more regions than the supertype, the extra regions
//! are *lost* by the upcast. Under [`DowncastPolicy::EquateFirst`] (and only
//! when the program actually contains downcasts) the lost regions are
//! equated with the object's first region so that later downcasts can
//! recover them (Sec 5, technique 1). Under [`DowncastPolicy::Padding`] they
//! are equated with the supertype's pad regions where present (technique 2).

use crate::ctx::Ctx;
use crate::options::{DowncastPolicy, SubtypeMode};
use crate::rast::RType;
use cj_regions::constraint::ConstraintSet;

/// Emits into `out` the constraints making `sub ≤ sup`.
///
/// # Panics
///
/// Panics if the two types are not related by normal subtyping (the kernel
/// program is well-normal-typed, so this indicates an internal bug).
pub fn subtype(ctx: &Ctx<'_>, sub: &RType, sup: &RType, out: &mut ConstraintSet) {
    match (sub, sup) {
        (RType::Void, RType::Void) => {}
        (RType::Prim(a), RType::Prim(b)) if a == b => {}
        (
            RType::Array {
                elem: ea,
                region: ra,
            },
            RType::Array {
                elem: eb,
                region: rb,
            },
        ) if ea == eb => match ctx.opts.mode {
            SubtypeMode::None => out.add_eq(*ra, *rb),
            SubtypeMode::Object | SubtypeMode::Field => out.add_outlives(*ra, *rb),
        },
        (
            RType::Class {
                class: ca,
                regions: ra,
                pads: pa,
            },
            RType::Class {
                class: cb,
                regions: rb,
                pads: pb,
            },
        ) => {
            assert!(
                ctx.kp.table.is_subclass(*ca, *cb),
                "subtype called on unrelated classes"
            );
            let m = rb.len();
            debug_assert!(ra.len() >= m, "subclass must extend supertype regions");
            // Shared prefix: mode-dependent variance.
            let rec_pos = ctx.classes[cb.index()].rec_position().filter(|_| {
                ctx.opts.mode == SubtypeMode::Field && ctx.kp.rec_read_only[cb.index()]
            });
            for i in 0..m {
                let covariant =
                    (i == 0 && ctx.opts.mode != SubtypeMode::None) || Some(i) == rec_pos;
                if covariant {
                    out.add_outlives(ra[i], rb[i]);
                } else {
                    out.add_eq(ra[i], rb[i]);
                }
            }
            // Regions lost by the upcast.
            let lost = &ra[m..];
            match ctx.opts.downcast {
                DowncastPolicy::Reject => {}
                DowncastPolicy::EquateFirst => {
                    if ctx.has_downcasts && !lost.is_empty() {
                        for &r in lost {
                            out.add_eq(r, ra[0]);
                        }
                    }
                }
                DowncastPolicy::Padding => {
                    // Align the subtype's (lost ++ pads) against the
                    // supertype's pads, positionally.
                    let extras: Vec<_> = lost.iter().chain(pa.iter()).copied().collect();
                    for (&x, &p) in extras.iter().zip(pb.iter()) {
                        out.add_eq(x, p);
                    }
                }
            }
        }
        (a, b) => panic!("subtype called on incompatible types {a} and {b}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::InferOptions;
    use cj_frontend::typecheck::check_source;
    use cj_regions::var::RegVar;

    fn setup(src: &str, mode: SubtypeMode) -> (cj_frontend::KProgram, InferOptions) {
        (
            check_source(src).unwrap(),
            InferOptions {
                mode,
                downcast: DowncastPolicy::Reject,
                ..Default::default()
            },
        )
    }

    fn r(i: u32) -> RegVar {
        RegVar(100 + i)
    }

    const PAIR_SRC: &str = "class Pair { Object fst; Object snd; }";

    #[test]
    fn no_sub_equates_everything() {
        let (kp, opts) = setup(PAIR_SRC, SubtypeMode::None);
        let ctx = Ctx::new(&kp, opts);
        let pair = kp.table.class_id("Pair").unwrap();
        let sub = RType::class(pair, vec![r(1), r(2), r(3)]);
        let sup = RType::class(pair, vec![r(4), r(5), r(6)]);
        let mut out = ConstraintSet::new();
        subtype(&ctx, &sub, &sup, &mut out);
        assert_eq!(out.to_string(), "r101=r104 & r102=r105 & r103=r106");
    }

    #[test]
    fn object_sub_first_region_covariant() {
        let (kp, opts) = setup(PAIR_SRC, SubtypeMode::Object);
        let ctx = Ctx::new(&kp, opts);
        let pair = kp.table.class_id("Pair").unwrap();
        let sub = RType::class(pair, vec![r(1), r(2), r(3)]);
        let sup = RType::class(pair, vec![r(4), r(5), r(6)]);
        let mut out = ConstraintSet::new();
        subtype(&ctx, &sub, &sup, &mut out);
        assert_eq!(out.to_string(), "r101>=r104 & r102=r105 & r103=r106");
    }

    #[test]
    fn field_sub_recursive_region_covariant_when_read_only() {
        let src = "class RList { Object value; RList next; }";
        let (kp, opts) = setup(src, SubtypeMode::Field);
        let ctx = Ctx::new(&kp, opts);
        let rl = kp.table.class_id("RList").unwrap();
        assert!(ctx.kp.rec_read_only[rl.index()]);
        let sub = RType::class(rl, vec![r(1), r(2), r(3)]);
        let sup = RType::class(rl, vec![r(4), r(5), r(6)]);
        let mut out = ConstraintSet::new();
        subtype(&ctx, &sub, &sup, &mut out);
        // first and recursive (last) covariant, middle equivariant
        assert_eq!(out.to_string(), "r101>=r104 & r103>=r106 & r102=r105");
    }

    #[test]
    fn field_sub_falls_back_when_mutated() {
        let src = "class List { Object value; List next;
                     void setNext(List o) { this.next = o; } }";
        let (kp, opts) = setup(src, SubtypeMode::Field);
        let ctx = Ctx::new(&kp, opts);
        let l = kp.table.class_id("List").unwrap();
        let sub = RType::class(l, vec![r(1), r(2), r(3)]);
        let sup = RType::class(l, vec![r(4), r(5), r(6)]);
        let mut out = ConstraintSet::new();
        subtype(&ctx, &sub, &sup, &mut out);
        assert_eq!(out.to_string(), "r101>=r104 & r102=r105 & r103=r106");
    }

    #[test]
    fn upcast_constrains_only_prefix() {
        let src = "class A { Object x; } class B extends A { Object y; }";
        let (kp, opts) = setup(src, SubtypeMode::None);
        let ctx = Ctx::new(&kp, opts);
        let a = kp.table.class_id("A").unwrap();
        let b = kp.table.class_id("B").unwrap();
        let sub = RType::class(b, vec![r(1), r(2), r(3)]);
        let sup = RType::class(a, vec![r(4), r(5)]);
        let mut out = ConstraintSet::new();
        subtype(&ctx, &sub, &sup, &mut out);
        // r3 is lost (DowncastPolicy::Reject adds nothing for it).
        assert_eq!(out.to_string(), "r101=r104 & r102=r105");
    }

    #[test]
    fn array_subtyping_by_mode() {
        let (kp, _) = setup(PAIR_SRC, SubtypeMode::None);
        let sub = RType::Array {
            elem: cj_frontend::Prim::Int,
            region: r(1),
        };
        let sup = RType::Array {
            elem: cj_frontend::Prim::Int,
            region: r(2),
        };
        for (mode, expect) in [
            (SubtypeMode::None, "r101=r102"),
            (SubtypeMode::Object, "r101>=r102"),
        ] {
            let ctx = Ctx::new(
                &kp,
                InferOptions {
                    mode,
                    downcast: DowncastPolicy::Reject,
                    ..Default::default()
                },
            );
            let mut out = ConstraintSet::new();
            subtype(&ctx, &sub, &sup, &mut out);
            assert_eq!(out.to_string(), expect);
        }
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn incompatible_types_panic() {
        let (kp, opts) = setup(PAIR_SRC, SubtypeMode::None);
        let ctx = Ctx::new(&kp, opts);
        let mut out = ConstraintSet::new();
        subtype(
            &ctx,
            &RType::Prim(cj_frontend::Prim::Int),
            &RType::Void,
            &mut out,
        );
    }
}
