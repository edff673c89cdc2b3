//! The pre-order [`ClassTree`] casts test against must answer exactly what
//! [`ClassTable::is_subclass`] answers, for every pair of classes.

use cj_frontend::classtable::ClassTable;
use cj_frontend::parser::parse_program;
use cj_frontend::types::ClassId;
use cj_vm::code::ClassTree;

fn table(src: &str) -> ClassTable {
    ClassTable::build(&parse_program(src).expect("parses")).expect("class table")
}

/// Compares the two answers on every ordered pair of classes.
fn assert_same(table: &ClassTable, label: &str) {
    let tree = ClassTree::build(table);
    let n = table.len() as u32;
    for sub in 0..n {
        for sup in 0..n {
            assert_eq!(
                tree.is_subclass(sub, sup),
                table.is_subclass(ClassId(sub), ClassId(sup)),
                "{label}: class {sub} <: class {sup}"
            );
        }
    }
}

#[test]
fn matches_the_class_table_on_every_benchmark() {
    for b in cj_benchmarks::all_benchmarks() {
        assert_same(&table(b.source), b.name);
    }
}

#[test]
fn matches_the_class_table_on_a_deep_chain() {
    let src: String = (1..=1000)
        .map(|i| format!("class C{i} extends C{} {{ }}\n", i - 1))
        .chain(["class C0 { }\n".to_string()])
        .collect();
    let table = table(&src);
    assert_eq!(table.len(), 1002);
    assert_same(&table, "1,000-deep chain");
}

#[test]
fn matches_the_class_table_on_a_wide_tree() {
    // 30 roots under Object, each with 10 children, each with 3 more:
    // siblings and cousins must not be taken for subclasses.
    let mut src = String::new();
    for r in 0..30 {
        src.push_str(&format!("class R{r} {{ }}\n"));
        for c in 0..10 {
            src.push_str(&format!("class R{r}C{c} extends R{r} {{ }}\n"));
            for g in 0..3 {
                src.push_str(&format!("class R{r}C{c}G{g} extends R{r}C{c} {{ }}\n"));
            }
        }
    }
    let table = table(&src);
    assert_eq!(table.len(), 1 + 30 * (1 + 10 * 4));
    assert_same(&table, "wide tree");
}
