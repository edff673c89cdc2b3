//! Golden tests for rendered diagnostics: the exact caret snippet and JSON
//! form of one parse error, one typecheck error and one inference error
//! are frozen here. Any change to messages, codes, spans or rendering is a
//! deliberate, reviewed change to this file. Every rendering goes through
//! [`Workspace::render`] and [`Workspace::render_json`], as every `cjrc`
//! command's does: one-line JSON arrays whose spans carry their file.

use cj_driver::{SessionOptions, Workspace};
use cj_infer::{DowncastPolicy, InferOptions, SubtypeMode};

fn diagnose(name: &str, src: &str, opts: InferOptions) -> (String, String) {
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source(name, src).unwrap();
    let diags = ws.check(opts).expect_err("source must be ill-formed");
    (ws.render(&diags), ws.render_json(&diags))
}

/// Checks `src` as a one-file workspace under the default options.
fn check(src: &str) -> cj_driver::CompileResult<()> {
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("a.cj", src)?;
    ws.check(InferOptions::default()).map(drop)
}

#[test]
fn parse_error_caret_and_json() {
    let (caret, json) = diagnose("parse.cj", "class A {\n  int x\n}", InferOptions::default());
    assert_eq!(
        caret,
        "error[E0101]: expected `;`, found `}`\n\
        \x20 --> parse.cj:3:1\n\
        \x20  |\n\
        \x203 | }\n\
        \x20  | ^\n"
    );
    assert_eq!(
        json,
        "[{\"severity\":\"error\",\"code\":\"E0101\",\
         \"message\":\"expected `;`, found `}`\",\
         \"span\":{\"file\":\"parse.cj\",\"lo\":18,\"hi\":19,\"line\":3,\"col\":1},\
         \"labels\":[],\"notes\":[]}]"
    );
}

#[test]
fn typecheck_error_caret_and_json() {
    let (caret, json) = diagnose("types.cj", "class A { Pear p; }", InferOptions::default());
    assert_eq!(
        caret,
        "error[E0200]: unknown class `Pear`\n\
        \x20 --> types.cj:1:11\n\
        \x20  |\n\
        \x201 | class A { Pear p; }\n\
        \x20  |           ^^^^^^^\n"
    );
    assert_eq!(
        json,
        "[{\"severity\":\"error\",\"code\":\"E0200\",\
         \"message\":\"unknown class `Pear`\",\
         \"span\":{\"file\":\"types.cj\",\"lo\":10,\"hi\":17,\"line\":1,\"col\":11},\
         \"labels\":[],\"notes\":[]}]"
    );
}

#[test]
fn infer_error_caret_and_json() {
    let src = "class A { Object x; }\n\
               class B extends A { Object y; }\n\
               class M { static B f(A a) { (B) a } }";
    let (caret, json) = diagnose(
        "infer.cj",
        src,
        InferOptions {
            mode: SubtypeMode::Object,
            downcast: DowncastPolicy::Reject,
            ..Default::default()
        },
    );
    assert_eq!(
        caret,
        "error[E0300]: downcast in `f` rejected: enable the equate-first or \
         padding downcast policy\n\
        \x20 --> infer.cj:3:29\n\
        \x20  |\n\
        \x203 | class M { static B f(A a) { (B) a } }\n\
        \x20  |                             ^^^^^\n\
        \x20 --> infer.cj:3:29\n\
        \x20  |\n\
        \x203 | class M { static B f(A a) { (B) a } }\n\
        \x20  |                             ----- downcast here, in `f`\n\
        \x20  = note: the `reject` downcast policy refuses all downcasts; \
         pass `--downcast equate-first` or `--downcast padding`\n"
    );
    assert_eq!(
        json,
        "[{\"severity\":\"error\",\"code\":\"E0300\",\
         \"message\":\"downcast in `f` rejected: enable the equate-first or \
         padding downcast policy\",\
         \"span\":{\"file\":\"infer.cj\",\"lo\":82,\"hi\":87,\"line\":3,\"col\":29},\
         \"labels\":[{\"span\":{\"file\":\"infer.cj\",\"lo\":82,\"hi\":87,\"line\":3,\"col\":29},\
         \"message\":\"downcast here, in `f`\"}],\
         \"notes\":[\"the `reject` downcast policy refuses all downcasts; \
         pass `--downcast equate-first` or `--downcast padding`\"]}]"
    );
}

#[test]
fn every_stage_failure_carries_a_code() {
    // Lex error.
    if let Err(diags) = check("class A { in€t x; }") {
        assert!(diags.iter().all(|d| d.code.is_some()), "uncoded: {diags}");
    }
    // Multiple typecheck errors all coded.
    let diags = check("class A { Unknown u; Missing m; }").unwrap_err();
    assert!(diags.len() >= 2);
    assert!(diags.iter().all(|d| d.code == Some("E0200")));
}

// ---- policy diagnostics (E0711/E0712/E0713) --------------------------------

/// Checks `src` under `rules` through the workspace and returns the frozen
/// caret and JSON renderings of the policy diagnostics.
fn policy_diagnose(src: &str, rules: &str) -> (String, String) {
    let mut ws = Workspace::new(SessionOptions::default());
    ws.set_source("policy.cj", src).unwrap();
    ws.set_policy("rules.cjpolicy", rules).unwrap();
    ws.check(InferOptions::default())
        .expect("program must region-check");
    let outcome = ws
        .check_policy(InferOptions::default())
        .expect("policy check must run");
    (
        ws.render(&outcome.diagnostics),
        ws.render_json(&outcome.diagnostics),
    )
}

#[test]
fn policy_no_escape_caret_and_json() {
    let (caret, json) = policy_diagnose(
        "class Cell { Object v; }\nclass M {\n  static Cell leak() { new Cell(null) }\n  static void main() { }\n}\n",
        "no-escape Cell\n",
    );
    assert_eq!(
        caret,
        "error[E0711]: values of class `Cell` must not escape their creation \
         region, but this allocation's region (parameter r1 of `leak`) may \
         outlive the method\n\
        \x20 --> policy.cj:3:24\n\
        \x20  |\n\
        \x203 |   static Cell leak() { new Cell(null) }\n\
        \x20  |                        ^^^^^^^^^^^^^^\n\
        \x20  = note: the region flows out through `leak`'s signature and \
         some call chain binds it to the heap or to the open world\n\
        \x20  = note: rule `no-escape Cell` declared here (rules.cjpolicy:1:1)\n"
    );
    assert_eq!(
        json,
        "[{\"severity\":\"error\",\"code\":\"E0711\",\
         \"message\":\"values of class `Cell` must not escape their creation \
         region, but this allocation's region (parameter r1 of `leak`) may \
         outlive the method\",\
         \"span\":{\"file\":\"policy.cj\",\"lo\":58,\"hi\":72,\"line\":3,\"col\":24},\
         \"labels\":[{\"span\":{\"file\":\"rules.cjpolicy\",\"lo\":0,\"hi\":14,\
         \"line\":1,\"col\":1},\
         \"message\":\"rule `no-escape Cell` declared here\"}],\
         \"notes\":[\"the region flows out through `leak`'s signature and \
         some call chain binds it to the heap or to the open world\"]}]"
    );
}

#[test]
fn policy_confine_caret_and_json() {
    // The rule sits on line 2 of the policy file (after a comment), so the
    // "declared here" label must carry the policy file's own span.
    let (caret, json) = policy_diagnose(
        "class Cell { Object v; }\nclass Box { Cell c; }\nclass M {\n  static void main() { Cell x = new Cell(null); x.v = null; }\n}\n",
        "# Cells live only inside Boxes\nconfine Cell to Box\n",
    );
    assert_eq!(
        caret,
        "error[E0712]: values of class `Cell` may only be allocated into \
         regions owned by `Box`, but this allocation's region is not one of \
         them\n\
        \x20 --> policy.cj:4:33\n\
        \x20  |\n\
        \x204 |   static void main() { Cell x = new Cell(null); x.v = null; }\n\
        \x20  |                                 ^^^^^^^^^^^^^^\n\
        \x20  = note: no `Box`-owned region is in scope in `main`\n\
        \x20  = note: rule `confine Cell to Box` declared here (rules.cjpolicy:2:1)\n"
    );
    assert_eq!(
        json,
        "[{\"severity\":\"error\",\"code\":\"E0712\",\
         \"message\":\"values of class `Cell` may only be allocated into \
         regions owned by `Box`, but this allocation's region is not one of \
         them\",\
         \"span\":{\"file\":\"policy.cj\",\"lo\":89,\"hi\":103,\"line\":4,\"col\":33},\
         \"labels\":[{\"span\":{\"file\":\"rules.cjpolicy\",\"lo\":31,\"hi\":50,\
         \"line\":2,\"col\":1},\
         \"message\":\"rule `confine Cell to Box` declared here\"}],\
         \"notes\":[\"no `Box`-owned region is in scope in `main`\"]}]"
    );
}

#[test]
fn policy_separate_caret_and_json() {
    let (caret, json) = policy_diagnose(
        "class Secret { Object v; }\nclass M {\n  static void log(Object o) { }\n  static void main() {\n    Secret s = new Secret(null);\n    log(s);\n  }\n}\n",
        "separate Secret from log\n",
    );
    assert_eq!(
        caret,
        "error[E0713]: values born in `Secret`-hosting regions must not flow \
         into sink `log`, but argument 1 of this call lives in a region \
         reachable from one\n\
        \x20 --> policy.cj:6:5\n\
        \x20  |\n\
        \x206 |     log(s);\n\
        \x20  |     ^^^^^^\n\
        \x20  = note: the closed constraints entail that a `Secret`-hosting \
         region outlives the argument's region, so the argument can reach \
         `Secret` data\n\
        \x20  = note: rule `separate Secret from log` declared here (rules.cjpolicy:1:1)\n"
    );
    assert_eq!(
        json,
        "[{\"severity\":\"error\",\"code\":\"E0713\",\
         \"message\":\"values born in `Secret`-hosting regions must not flow \
         into sink `log`, but argument 1 of this call lives in a region \
         reachable from one\",\
         \"span\":{\"file\":\"policy.cj\",\"lo\":129,\"hi\":135,\"line\":6,\"col\":5},\
         \"labels\":[{\"span\":{\"file\":\"rules.cjpolicy\",\"lo\":0,\"hi\":24,\
         \"line\":1,\"col\":1},\
         \"message\":\"rule `separate Secret from log` declared here\"}],\
         \"notes\":[\"the closed constraints entail that a `Secret`-hosting \
         region outlives the argument's region, so the argument can reach \
         `Secret` data\"]}]"
    );
}
