//! The `isRecReadOnly` analysis (Sec 3.2).
//!
//! Field region subtyping is sound for a class only when its recursive
//! fields are immutable after object initialization: the covariant
//! recursive region would otherwise allow a longer-lived chain to be stored
//! where a shorter-lived one is expected and then *mutated* to point at
//! shorter-lived data.
//!
//! We use a conservative whole-program check: a recursive class is
//! rec-read-only iff no `v.f = e` assignment anywhere in the program
//! targets one of its recursive fields (constructor initialization through
//! `new` does not count, matching "immutable after object initialization").

use crate::kernel::{walk_expr, KExprKind, KProgram};

/// Computes, for every class, whether field region subtyping may be applied
/// to it. Non-recursive classes are `false` (the rule is about the
/// recursive region, which they do not have). Typecheck stores the result
/// in [`KProgram::rec_read_only`].
pub(crate) fn rec_read_only(kp: &KProgram) -> Vec<bool> {
    let table = &kp.table;
    let cycles = table.field_cycles();
    // One flag per declared field: class `c`'s own fields are numbered
    // from `first[c]`, in constructor order. A field's constructor index
    // is the same in its owner and every subclass.
    let mut first = Vec::with_capacity(table.len());
    let mut declared = 0;
    for info in table.classes() {
        first.push(declared);
        declared += info.own_fields.len();
    }
    let slot = |owner: crate::ClassId, index: usize| {
        let info = &table.classes()[owner.index()];
        first[owner.index()] + index - (table.field_count(owner) - info.own_fields.len())
    };
    let mut assigned = vec![false; declared];
    for (_, m) in kp.all_methods() {
        walk_expr(&m.body, &mut |e| {
            if let KExprKind::AssignField(_, fref, _) = &e.kind {
                assigned[slot(fref.owner, fref.index as usize)] = true;
            }
        });
    }
    table
        .classes()
        .iter()
        .map(|info| {
            cycles[info.id.index()].is_some()
                && table
                    .recursive_fields(info.id, &cycles)
                    .iter()
                    .all(|f| !assigned[slot(f.owner, f.index)])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::typecheck::check_source;

    #[test]
    fn immutable_recursive_list_is_read_only() {
        let kp = check_source(
            "class RList { Object value; RList next;
               RList getNext() { this.next } }",
        )
        .unwrap();
        let ro = &kp.rec_read_only;
        let rl = kp.table.class_id("RList").unwrap();
        assert!(ro[rl.index()]);
    }

    #[test]
    fn mutated_recursive_field_disables_field_sub() {
        let kp = check_source(
            "class List { Object value; List next;
               void setNext(List o) { this.next = o; } }",
        )
        .unwrap();
        let ro = &kp.rec_read_only;
        let l = kp.table.class_id("List").unwrap();
        assert!(!ro[l.index()]);
    }

    #[test]
    fn nonrecursive_class_is_not_read_only() {
        let kp = check_source("class Pair { Object fst; Object snd; }").unwrap();
        let ro = &kp.rec_read_only;
        let p = kp.table.class_id("Pair").unwrap();
        assert!(!ro[p.index()]);
    }

    #[test]
    fn mutation_of_nonrecursive_field_is_fine() {
        let kp = check_source(
            "class Tree { int key; Tree left; Tree right;
               void setKey(int k) { this.key = k; } }",
        )
        .unwrap();
        let ro = &kp.rec_read_only;
        let t = kp.table.class_id("Tree").unwrap();
        assert!(ro[t.index()]);
    }

    #[test]
    fn mutation_via_subclass_receiver_counts() {
        // The assignment targets the field declared in List even though the
        // receiver is typed Sub.
        let kp = check_source(
            "class List { Object value; List next; }
             class Sub extends List { }
             class M { static void f(Sub s, Sub t) { s.next = t; } }",
        )
        .unwrap();
        let ro = &kp.rec_read_only;
        let l = kp.table.class_id("List").unwrap();
        assert!(!ro[l.index()]);
    }
}
