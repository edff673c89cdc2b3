//! Typecheck numbers every method body's expressions once, densely and in
//! pre-order: the region tables of an annotated method are indexed by
//! these ids, and a subtree's ids are one contiguous range.

use cj_benchmarks::all_benchmarks;
use cj_frontend::kernel::{walk_expr, ExprId};
use cj_frontend::typecheck::check_source;

#[test]
fn expression_ids_are_dense_and_in_pre_order() {
    for b in all_benchmarks() {
        let kp = check_source(b.source).unwrap_or_else(|e| panic!("{}: {e:?}", b.name));
        for (id, m) in kp.all_methods() {
            let mut ids = Vec::new();
            walk_expr(&m.body, &mut |e| ids.push(e.id));
            let expected: Vec<ExprId> = (0..m.expr_count).map(ExprId).collect();
            assert_eq!(ids, expected, "{}: {}", b.name, kp.method_name(id));
        }
    }
}
