//! Robustness: the lexer and parser must never panic, whatever the input —
//! they report diagnostics instead.

use cj_diag::Emitter;
use cj_frontend::lexer::lex;
use cj_frontend::parser::parse_program;
use cj_frontend::typecheck::check_source;
use proptest::prelude::*;

proptest! {
    #[test]
    fn lexer_never_panics(input in ".*") {
        let _ = lex(&input);
    }

    #[test]
    fn parser_never_panics(input in ".*") {
        let _ = parse_program(&input);
    }

    #[test]
    fn parser_never_panics_on_token_salad(
        words in proptest::collection::vec(
            prop_oneof![
                Just("class"), Just("extends"), Just("static"), Just("new"),
                Just("if"), Just("else"), Just("while"), Just("return"),
                Just("null"), Just("this"), Just("int"), Just("bool"),
                Just("{"), Just("}"), Just("("), Just(")"), Just("["),
                Just("]"), Just(";"), Just(","), Just("."), Just("="),
                Just("=="), Just("+"), Just("x"), Just("Foo"), Just("42"),
            ],
            0..60,
        )
    ) {
        let src = words.join(" ");
        let _ = parse_program(&src);
        let _ = check_source(&src);
    }
}

#[test]
fn weird_but_valid_inputs() {
    // Moderately nested expressions parse fine…
    let mut expr = String::from("1");
    for _ in 0..40 {
        expr = format!("({expr} + 1)");
    }
    let src = format!("class M {{ static int main() {{ {expr} }} }}");
    assert!(check_source(&src).is_ok());

    // …while absurd nesting is *rejected with a diagnostic*, not a crash.
    let mut expr = String::from("1");
    for _ in 0..5000 {
        expr = format!("({expr} + 1)");
    }
    let src = format!("class M {{ static int main() {{ {expr} }} }}");
    let err = check_source(&src).unwrap_err();
    assert!(err.to_string().contains("nesting too deep"));

    // Long statement sequences.
    let mut body = String::new();
    for i in 0..500 {
        body.push_str(&format!("int v{i} = {i}; "));
    }
    let src = format!("class M {{ static int main() {{ {body} v499 }} }}");
    assert!(check_source(&src).is_ok());

    // Comment-only and empty programs.
    assert!(check_source("// nothing\n/* at all */").is_ok());
    assert!(check_source("").is_ok());
}

/// A 400 KB line of nested parentheses gets a handful of diagnostics, not
/// one per token, and their caret rendering stays small: each snippet
/// shows a window of the line around its caret, never the whole line.
#[test]
fn huge_nested_paren_line_gets_few_bounded_diagnostics() {
    let depth = 200_000;
    let parens = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
    let in_method = format!("class M {{ static int main() {{ {parens} }} }}");
    for src in [&parens, &in_method] {
        let diags = parse_program(src).unwrap_err();
        assert!(diags.len() <= 2, "{} diagnostics", diags.len());
        let emitter = Emitter::new("deep.cj", src);
        let rendered: String = diags.iter().map(|d| emitter.render(d)).collect();
        assert!(rendered.len() < 2048, "{} bytes rendered", rendered.len());
    }
    let diags = parse_program(&in_method).unwrap_err();
    assert!(diags.iter().any(|d| d.message.contains("nesting too deep")));
}
