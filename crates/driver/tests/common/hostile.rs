//! Generated hostile inputs: legal programs whose blocks are long or whose
//! calls are wide, and programs nested deeper than the parser's budget.
//! Shared by the daemon end-to-end test and the root scale tests.

/// Legal programs with `n` statements, `n` declarations, one call with
/// `n` computed arguments, a loop body of `n` statements, `n` chained
/// allocations, and `n / 3` sequential `if`/`else` blocks that allocate
/// (a third, so that 30,000 still fits the 1 MiB file limit). The last two
/// give one method thousands of local regions to localize.
pub fn long_programs(n: usize) -> Vec<(&'static str, String)> {
    let main = |body: String| format!("class M {{ static int main() {{ {body} }} }}");
    let params: Vec<String> = (0..n).map(|i| format!("int a{i}")).collect();
    let args: Vec<String> = (0..n).map(|i| format!("a + {}", i % 7)).collect();
    vec![
        (
            "statements",
            main(format!("int x = 0; {}x", "x = x + 1; ".repeat(n))),
        ),
        (
            "declarations",
            main(format!(
                "int x0 = 0; {}x{}",
                (1..n)
                    .map(|i| format!("int x{i} = x{} + 1; ", i - 1))
                    .collect::<String>(),
                n - 1
            )),
        ),
        (
            "arguments",
            format!(
                "class M {{ static int f({}) {{ a0 + a{} }} \
                 static int main() {{ int a = 1; f({}) }} }}",
                params.join(", "),
                n - 1,
                args.join(", ")
            ),
        ),
        (
            "loop body",
            format!(
                "class C {{ int v; }} class M {{ static int main() {{ \
                 int x = 0; int i = 0; \
                 while (i < 3) {{ C c = new C(i); x = x + c.v; {}i = i + 1; }} \
                 print(x); x }} }}",
                "x = x + 1; ".repeat(n)
            ),
        ),
        (
            "allocation chain",
            format!(
                "class C {{ C f; }} class M {{ static int main() {{ \
                 C c = new C(null); {}if (c.f == null) {{ 0 }} else {{ 1 }} }} }}",
                "c = new C(c); ".repeat(n)
            ),
        ),
        (
            "allocating blocks",
            format!(
                "class C {{ C f; }} class M {{ static int main() {{ \
                 C c = new C(null); int i = 0; {}i }} }}",
                "if (i < 1) { C d = new C(c); c = d; i = i + 1; } \
                 else { C e = new C(null); } "
                    .repeat(n / 3)
            ),
        ),
    ]
}

/// Programs nested `n` deep in each shape the parser's nesting budget
/// counts: brackets, prefix operators, a binary chain, a postfix chain
/// and nested blocks.
pub fn deep_programs(n: usize) -> Vec<(&'static str, String)> {
    let main =
        |body: String| format!("class C {{ C f; }} class M {{ static int main() {{ {body} }} }}");
    vec![
        (
            "parentheses",
            main(format!("{}1{}", "(".repeat(n), ")".repeat(n))),
        ),
        ("`-` prefixes", main(format!("{}1", "-".repeat(n)))),
        (
            "`!` prefixes",
            main(format!("if ({}true) {{ 1 }} else {{ 0 }}", "!".repeat(n))),
        ),
        (
            "`+` chain",
            main(format!("int x = 1; x{}", " + x".repeat(n))),
        ),
        (
            "field chain",
            main(format!(
                "C c = new C((C) null); c.f = c; C d = c{}; 0",
                ".f".repeat(n)
            )),
        ),
        (
            "nested `if`",
            main(format!(
                "int x = 0; {}x = x + 1; {}x",
                "if (x < 1) { ".repeat(n),
                "} ".repeat(n)
            )),
        ),
        (
            "nested `while`",
            main(format!(
                "int x = 0; {}x = x + 1; {}x",
                "while (x < 1) { ".repeat(n),
                "} ".repeat(n)
            )),
        ),
    ]
}
