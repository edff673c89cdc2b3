//! End-to-end tests of the `cjrc` binary: exit codes, JSON diagnostics on
//! ill-formed input, and the annotate/run outputs.

use std::io::Write;
use std::process::Command;

fn cjrc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cjrc"))
        .args(args)
        .output()
        .expect("cjrc runs")
}

fn temp_source(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("cjrc-test-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp source");
    f.write_all(contents.as_bytes()).expect("write temp source");
    path
}

#[test]
fn infer_json_on_ill_formed_program_emits_structured_diagnostics() {
    let path = temp_source("ill.cj", "class A { Pear p; }\n");
    let out = cjrc(&["infer", path.to_str().unwrap(), "--json"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // A JSON array of diagnostics with code, message and a span tagged
    // with its file and line/col.
    assert!(stdout.trim_start().starts_with('['), "not JSON: {stdout}");
    assert!(stdout.contains("\"severity\":\"error\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"E0200\""), "{stdout}");
    assert!(stdout.contains("unknown class `Pear`"), "{stdout}");
    let span = format!(
        "\"span\":{{\"file\":{},\"lo\":10,\"hi\":17,\"line\":1,\"col\":11}}",
        cj_diag::json_string(path.to_str().unwrap())
    );
    assert!(stdout.contains(&span), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn infer_renders_caret_snippets_without_json() {
    let path = temp_source("caret.cj", "class A { Pear p; }\n");
    let out = cjrc(&["infer", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("error[E0200]: unknown class `Pear`"),
        "{stderr}"
    );
    assert!(stderr.contains("^^^^^^^"), "{stderr}");
    assert!(stderr.contains("class A { Pear p; }"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn infer_annotates_well_formed_programs() {
    let path = temp_source(
        "ok.cj",
        "class Pair { Object fst; Object snd;
           void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; }
         }",
    );
    let out = cjrc(&["infer", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("class Pair<"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn extents_flag_selects_liveness_placement_end_to_end() {
    // A trailing tail after the last use of `b`'s region: liveness
    // placement must keep the result and prints identical while the JSON
    // reports the mode it compiled under.
    let path = temp_source(
        "extents.cj",
        "class Box { int v; }
         class M { static int main(int n) {
             Box b = new Box(n);
             int out = b.v;
             print(out);
             out + 1
         } }",
    );
    let file = path.to_str().unwrap();
    let paper = cjrc(&["run", file, "--extents", "paper", "--json", "6"]);
    let live = cjrc(&["run", file, "--extents", "liveness", "--json", "6"]);
    assert!(paper.status.success() && live.status.success());
    let paper = String::from_utf8(paper.stdout).unwrap();
    let live = String::from_utf8(live.stdout).unwrap();
    assert!(paper.contains("\"extents\":\"paper\""), "{paper}");
    assert!(live.contains("\"extents\":\"liveness\""), "{live}");
    for out in [&paper, &live] {
        assert!(out.contains("\"result\":\"7\""), "{out}");
        assert!(out.contains("\"prints\":[\"6\"]"), "{out}");
    }
    let check = cjrc(&["check", file, "--extents", "liveness"]);
    assert!(check.status.success());
    let stdout = String::from_utf8(check.stdout).unwrap();
    assert!(
        stdout.contains("well-region-typed (field-sub; liveness extents)"),
        "{stdout}"
    );
    let bad = cjrc(&["check", file, "--extents", "nll"]);
    assert!(!bad.status.success());
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.contains("extent mode"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn run_executes_main_with_arguments() {
    let path = temp_source("run.cj", "class M { static int main(int n) { n * 3 } }");
    let out = cjrc(&["run", path.to_str().unwrap(), "14"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("result: 42"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn run_engines_produce_identical_output() {
    let path = temp_source(
        "engines.cj",
        "class List { int v; List next; }
         class M {
           static List build(int n) {
             if (n == 0) { (List) null } else { new List(n, build(n - 1)) }
           }
           static int main(int n) { print(n); if (build(n) != null) { n } else { 0 } }
         }",
    );
    let rvm = cjrc(&["run", path.to_str().unwrap(), "--engine", "rvm", "8"]);
    let interp = cjrc(&["run", path.to_str().unwrap(), "--engine", "interp", "8"]);
    assert!(rvm.status.success() && interp.status.success());
    assert_eq!(
        String::from_utf8(rvm.stdout).unwrap(),
        String::from_utf8(interp.stdout).unwrap(),
        "engines must print identical results and space lines"
    );
    // The default engine is the register VM, surfaced in --json.
    let json = cjrc(&["run", path.to_str().unwrap(), "--json", "8"]);
    let stdout = String::from_utf8(json.stdout).unwrap();
    assert!(stdout.contains("\"engine\":\"rvm\""), "{stdout}");
    assert!(stdout.contains("\"steps\":"), "{stdout}");
    // The retired stack VM is an unknown engine: a usage error.
    let vm = cjrc(&["run", path.to_str().unwrap(), "--engine", "vm", "8"]);
    assert_eq!(vm.status.code(), Some(2));
    let stderr = String::from_utf8(vm.stderr).unwrap();
    assert!(stderr.contains("unknown engine `vm`"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn run_limits_surface_structured_errors() {
    let src = "class M { static int spin(int n) { spin(n + 1) } static int main() { spin(0) } }";
    let path = temp_source("limits.cj", src);
    for engine in ["rvm", "interp"] {
        let out = cjrc(&[
            "run",
            path.to_str().unwrap(),
            "--engine",
            engine,
            "--max-depth",
            "50",
        ]);
        assert!(!out.status.success());
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("error[E0600]: call depth limit exceeded"),
            "[{engine}] {stderr}"
        );
        // The fault points at the call that went one level too deep.
        let at = src.find("spin(n + 1)").unwrap();
        assert!(
            stderr.contains(&format!("limits.cj:1:{}", at + 1)),
            "[{engine}] {stderr}"
        );
        assert!(
            stderr.contains(&format!("{}^^^^^^^^^^^\n", " ".repeat(at))),
            "[{engine}] {stderr}"
        );
        let json = cjrc(&[
            "run",
            path.to_str().unwrap(),
            "--engine",
            engine,
            "--max-depth",
            "50",
            "--json",
        ]);
        let stdout = String::from_utf8(json.stdout).unwrap();
        let span = format!("\"lo\":{},\"hi\":{}", at, at + "spin(n + 1)".len());
        assert!(stdout.contains(&span), "[{engine}] {stdout}");
        let out = cjrc(&[
            "run",
            path.to_str().unwrap(),
            "--engine",
            engine,
            "--fuel",
            "100",
        ]);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("error[E0600]: step limit exceeded"),
            "[{engine}] {stderr}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn bad_main_arguments_point_at_main() {
    let src = "class M { static int main(int n) { n } }";
    let path = temp_source("bad_main.cj", src);
    let decl = "int main(int n) { n }";
    let at = src.find(decl).unwrap();
    for engine in ["rvm", "interp"] {
        let file = path.to_str().unwrap();
        let out = cjrc(&["run", file, "--engine", engine, "1", "2"]);
        assert!(!out.status.success());
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("error[E0600]: bad arguments for `main`"),
            "[{engine}] {stderr}"
        );
        assert!(
            stderr.contains(&format!("bad_main.cj:1:{}", at + 1)),
            "[{engine}] {stderr}"
        );
        let json = cjrc(&["run", file, "--engine", engine, "1", "2", "--json"]);
        let stdout = String::from_utf8(json.stdout).unwrap();
        let span = format!("\"lo\":{},\"hi\":{}", at, at + decl.len());
        assert!(stdout.contains(&span), "[{engine}] {stdout}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn run_json_reports_result_and_space() {
    let path = temp_source("runjson.cj", "class M { static int main(int n) { n + 1 } }");
    let out = cjrc(&["run", path.to_str().unwrap(), "--json", "41"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"result\":\"42\""), "{stdout}");
    assert!(stdout.contains("\"space\""), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn usage_errors_exit_2() {
    let out = cjrc(&["explode"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command `explode`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = cjrc(&["infer", "x.cj", "--mode", "both"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown subtype mode `both`"), "{stderr}");
}

#[test]
fn missing_file_is_an_io_diagnostic() {
    let out = cjrc(&["check", "/nonexistent/missing.cj", "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"code\":\"E0701\""), "{stdout}");
    assert!(stdout.contains("missing.cj"), "{stdout}");
}

/// The exact bytes (exit code, stdout, stderr) of the failing commands, in
/// text and `--json` form. Every file-taking command renders through the
/// workspace, so each prints the same caret snippet and the same one-line
/// array of span-tagged diagnostics. Run in a scratch directory so file
/// names are relative.
#[test]
fn failing_commands_print_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("cjrc-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("bad.cj"), "class A { Pear p; }\n").unwrap();
    std::fs::write(dir.join("rules.cjpolicy"), "no-escape A\n").unwrap();
    const CARET: &str = "error[E0200]: unknown class `Pear`\n  --> bad.cj:1:11\n   |\n \
                         1 | class A { Pear p; }\n   |           ^^^^^^^\n";
    const JSON: &str = "[{\"severity\":\"error\",\"code\":\"E0200\",\
        \"message\":\"unknown class `Pear`\",\
        \"span\":{\"file\":\"bad.cj\",\"lo\":10,\"hi\":17,\"line\":1,\"col\":11},\
        \"labels\":[],\"notes\":[]}]\n";
    const UNREAD: &str = "cannot read `nope.cj`: No such file or directory (os error 2)";
    let unread_caret = format!("error[E0701]: {UNREAD}\n  --> <workspace>\n");
    let unread_json = format!(
        "[{{\"severity\":\"error\",\"code\":\"E0701\",\"message\":\"{UNREAD}\",\
         \"span\":null,\"labels\":[],\"notes\":[]}}]\n"
    );
    // Each command, then its caret stderr and its `--json` stdout.
    let cases: [(&[&str], &str, &str); 8] = [
        (&["check", "bad.cj"], CARET, JSON),
        (&["infer", "bad.cj"], CARET, JSON),
        (
            &["check", "bad.cj", "--policy", "rules.cjpolicy"],
            CARET,
            JSON,
        ),
        (&["query", "bad.cj", "inv.A"], CARET, JSON),
        (&["run", "bad.cj"], CARET, JSON),
        (&["flows", "bad.cj"], CARET, JSON),
        (&["check", "nope.cj"], &unread_caret, &unread_json),
        (&["query", "nope.cj", "inv.A"], &unread_caret, &unread_json),
    ];
    for (args, caret, json) in cases {
        for (flag, stdout, stderr) in [(None, "", caret), (Some("--json"), json, "")] {
            let out = Command::new(env!("CARGO_BIN_EXE_cjrc"))
                .args(args)
                .args(flag)
                .current_dir(&dir)
                .output()
                .expect("cjrc runs");
            assert_eq!(out.status.code(), Some(1), "{args:?} {flag:?}");
            assert_eq!(
                String::from_utf8(out.stdout).unwrap(),
                stdout,
                "{args:?} {flag:?}"
            );
            assert_eq!(
                String::from_utf8(out.stderr).unwrap(),
                stderr,
                "{args:?} {flag:?}"
            );
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A program with a downcast the `E` allocation can never satisfy (Sec 5
/// bound-to-fail): `check` must surface the warning, not only `flows`.
const DOOMED: &str = "
class A { Object f1; }
class B extends A { Object f2; }
class E extends A { Object f3; Object f4; }
class M {
  static void main(bool c) {
    A a;
    if (c) { a = new B(null, null); } else { a = new E(null, null, null); }
    B b = (B) a;
  }
}";

#[test]
fn check_surfaces_bound_to_fail_warnings_in_caret_mode() {
    let path = temp_source("doomed.cj", DOOMED);
    let out = cjrc(&["check", path.to_str().unwrap()]);
    assert!(out.status.success(), "warnings must not fail the build");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("well-region-typed"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("can never satisfy the downcasts"),
        "{stderr}"
    );
    assert!(stderr.contains("warning[E0500]"), "{stderr}");
    assert!(stderr.contains("~~~"), "warning caret marker: {stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn check_surfaces_bound_to_fail_warnings_in_json_mode() {
    let path = temp_source("doomedjson.cj", DOOMED);
    let out = cjrc(&["check", path.to_str().unwrap(), "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"status\":\"well-region-typed\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"warnings\":["), "{stdout}");
    assert!(stdout.contains("\"severity\":\"warning\""), "{stdout}");
    assert!(stdout.contains("\"span\":{\"file\":"), "{stdout}");
    assert!(stdout.contains("\"code\":\"E0500\""), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn clean_check_reports_empty_warning_list_in_json() {
    let path = temp_source("cleanjson.cj", "class A { }");
    let out = cjrc(&["check", path.to_str().unwrap(), "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"warnings\":[]"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn serve_speaks_json_lines_and_observes_incrementality() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_cjrc"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("cjrc serve starts");
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut ask = |req: &str| -> String {
        writeln!(stdin, "{req}").expect("write request");
        lines.next().expect("one response per request").unwrap()
    };

    let r = ask(
        r#"{"cmd":"open","file":"cell.cj","text":"class Cell { Object item; Object get() { this.item } }"}"#,
    );
    assert!(
        r.contains("\"ok\":true") && r.contains("\"revision\":1"),
        "{r}"
    );
    let r = ask(
        r#"{"cmd":"open","file":"use.cj","text":"class M { static Object f(Cell c) { c.get() } }"}"#,
    );
    assert!(r.contains("\"revision\":2"), "{r}");

    let cold = ask(r#"{"cmd":"check"}"#);
    assert!(cold.contains("\"status\":\"well-region-typed\""), "{cold}");
    assert!(cold.contains("\"parse\":2"), "{cold}");

    // Edit one method body: the response's passes_executed must show one
    // re-parse, both bodies re-inferred and their SCCs re-solved.
    let r = ask(
        r#"{"cmd":"edit","file":"use.cj","text":"class M { static Object f(Cell c) { c.get(); c.get() } }"}"#,
    );
    assert!(r.contains("\"revision\":3"), "{r}");
    let warm = ask(r#"{"cmd":"check"}"#);
    assert!(warm.contains("\"parse\":1"), "{warm}");
    assert!(warm.contains("\"methods_inferred\":2"), "{warm}");
    let passes = |reply: &str, key: &str| match cj_driver::parse_json(reply)
        .unwrap()
        .get("passes_executed")
        .and_then(|p| p.get(key))
    {
        Some(cj_driver::Json::Num(n)) => *n,
        _ => panic!("no {key} in {reply}"),
    };
    assert!(passes(&warm, "sccs_solved") > 0.0, "{warm}");

    let q = ask(r#"{"cmd":"query","invariant":"Cell"}"#);
    assert!(q.contains("\"abs\":\"inv.Cell<"), "{q}");
    let e = ask(r#"{"cmd":"query","invariant":"Cell","entails":"r2>=r1"}"#);
    assert!(e.contains("\"entails\":true"), "{e}");

    let bye = ask(r#"{"cmd":"shutdown"}"#);
    assert!(bye.contains("\"status\":\"bye\""), "{bye}");
    let status = child.wait().expect("server exits");
    assert!(status.success());
}

#[test]
fn serve_answers_a_deeply_nested_line_and_keeps_serving() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_cjrc"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("cjrc serve starts");
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut ask = |req: &str| -> String {
        writeln!(stdin, "{req}").expect("write request");
        lines.next().expect("one response per request").unwrap()
    };

    // A line of a million `[` must not overflow the parser's stack: it
    // gets an error reply and the server keeps reading.
    let deep = ask(&"[".repeat(1_000_000));
    assert!(deep.contains("\"ok\":false"), "{deep}");
    assert!(deep.contains("nesting deeper than"), "{deep}");
    let r =
        ask(r#"{"cmd":"open","file":"m.cj","text":"class M { static int main(int n) { n } }"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");
    let bye = ask(r#"{"cmd":"shutdown"}"#);
    assert!(bye.contains("\"status\":\"bye\""), "{bye}");
    assert!(child.wait().expect("server exits").success());
}

#[test]
fn check_on_a_huge_nested_paren_line_reports_briefly() {
    let depth = 200_000;
    let src = format!(
        "class M {{ static int main() {{ {}1{} }} }}\n",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let path = temp_source("deep.cj", &src);
    let out = cjrc(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "diagnostics exit, not a crash");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("nesting too deep"), "{stderr}");
    assert!(stderr.len() < 4096, "{} bytes of stderr", stderr.len());
    std::fs::remove_file(path).ok();
}

#[test]
fn diagnostics_are_capped_per_file_in_every_output_form() {
    use cj_diag::MAX_DIAGNOSTICS_PER_FILE as CAP;
    use cj_driver::Json;
    // 10x the per-file bound: one error per field of an unknown class.
    let fields: String = (0..10 * CAP)
        .map(|i| format!(" Missing{i} f{i};"))
        .collect();
    let path = temp_source("many.cj", &format!("class A {{{fields} }}\n"));
    let suppressed = format!("{} more diagnostics suppressed", 9 * CAP);

    let out = cjrc(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "still a diagnostics exit");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.matches("error[E0200]").count(), CAP);
    assert!(
        stderr.contains("unknown class `Missing99`"),
        "first hundred kept"
    );
    assert!(!stderr.contains("unknown class `Missing100`"), "{stderr}");
    assert!(stderr.contains(&suppressed), "{stderr}");

    let out = cjrc(&["check", path.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let Ok(Json::Arr(items)) = cj_driver::parse_json(stdout.trim()) else {
        panic!("not a JSON array: {stdout}");
    };
    assert_eq!(items.len(), CAP);
    let Some(Json::Arr(notes)) = items[CAP - 1].get("notes") else {
        panic!("last diagnostic has no notes");
    };
    let last = notes.last();
    assert!(
        matches!(last, Some(Json::Str(n)) if n.starts_with(&suppressed)),
        "{last:?}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn check_reports_mode_in_canonical_spelling() {
    let path = temp_source("mode.cj", "class A { }");
    let out = cjrc(&["check", path.to_str().unwrap(), "--mode", "object"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("well-region-typed (object-sub)"),
        "{stdout}"
    );
    std::fs::remove_file(path).ok();
}

// ---- policy and query commands ---------------------------------------------

const POLICY_PROGRAM: &str = "class Cell { Object v; }
class Box { Cell c;
  void fill() { this.c = new Cell(null); }
}
class M {
  static Cell leak() { new Cell(null) }
  static void main() { Box b = new Box(null); b.fill(); }
}
";

#[test]
fn check_policy_reports_violations_with_rule_label() {
    let prog = temp_source("polviol.cj", POLICY_PROGRAM);
    let rules = temp_source("polviol.cjpolicy", "no-escape Cell\n");
    let out = cjrc(&[
        "check",
        prog.to_str().unwrap(),
        "--policy",
        rules.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "violation must exit non-zero");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error[E0711]"), "{stderr}");
    assert!(stderr.contains("must not escape"), "{stderr}");
    assert!(stderr.contains("new Cell(null)"), "caret snippet: {stderr}");
    assert!(
        stderr.contains("rule `no-escape Cell` declared here"),
        "{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 policy violation(s)"), "{stdout}");
    std::fs::remove_file(prog).ok();
    std::fs::remove_file(rules).ok();
}

#[test]
fn check_policy_json_reports_status_and_diagnostics() {
    let prog = temp_source("poljson.cj", POLICY_PROGRAM);
    let rules = temp_source("poljson.cjpolicy", "no-escape Cell\n");
    let out = cjrc(&[
        "check",
        prog.to_str().unwrap(),
        "--policy",
        rules.to_str().unwrap(),
        "--json",
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"status\":\"policy-violations\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"rules\":1"), "{stdout}");
    assert!(stdout.contains("\"violations\":1"), "{stdout}");
    assert!(stdout.contains("\"code\":\"E0711\""), "{stdout}");
    assert!(
        stdout.contains("rule `no-escape Cell` declared here"),
        "{stdout}"
    );
    std::fs::remove_file(prog).ok();
    std::fs::remove_file(rules).ok();
}

#[test]
fn check_policy_clean_program_passes() {
    let prog = temp_source("polok.cj", POLICY_PROGRAM);
    // `confine Cell to Box` alone is satisfied by `Box.fill`… except for
    // `leak`, so confine the never-allocated class instead for a clean run.
    let rules = temp_source("polok.cjpolicy", "no-escape M\n");
    let out = cjrc(&[
        "check",
        prog.to_str().unwrap(),
        "--policy",
        rules.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(
        out.status.success(),
        "clean policy must exit zero: {stderr}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("policy-ok (1 rule(s))"), "{stdout}");

    let out = cjrc(&[
        "check",
        prog.to_str().unwrap(),
        "--policy",
        rules.to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"status\":\"policy-ok\""), "{stdout}");
    assert!(stdout.contains("\"violations\":0"), "{stdout}");
    std::fs::remove_file(prog).ok();
    std::fs::remove_file(rules).ok();
}

#[test]
fn check_policy_malformed_rules_are_policy_errors() {
    let prog = temp_source("polbad.cj", POLICY_PROGRAM);
    let rules = temp_source("polbad.cjpolicy", "no-escape\n");
    let out = cjrc(&[
        "check",
        prog.to_str().unwrap(),
        "--policy",
        rules.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error[E0710]"), "{stderr}");
    std::fs::remove_file(prog).ok();
    std::fs::remove_file(rules).ok();
}

#[test]
fn query_prints_abstractions_and_entailment() {
    let prog = temp_source("query.cj", POLICY_PROGRAM);
    let path = prog.to_str().unwrap();

    let out = cjrc(&["query", path, "inv.Cell"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("inv.Cell<"), "{stdout}");
    assert!(stdout.contains(">="), "{stdout}");

    let out = cjrc(&["query", path, "inv.Cell", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"name\":\"inv.Cell\""), "{stdout}");
    assert!(stdout.contains("\"params\":2"), "{stdout}");
    assert!(stdout.contains("\"abs\":\"inv.Cell<"), "{stdout}");

    let out = cjrc(&["query", path, "inv.Cell", "--entails", "r2>=r1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.trim(), "inv.Cell entails r2>=r1: true");

    let out = cjrc(&["query", path, "inv.Cell", "--entails", "r1>=r2", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"entails\":false"), "{stdout}");

    let out = cjrc(&["query", path, "inv.Ghost"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown abstraction `inv.Ghost`"),
        "{stderr}"
    );
    std::fs::remove_file(prog).ok();
}

// ---- observability ----------------------------------------------------------

#[test]
fn trace_out_writes_chrome_trace_and_trace_summary_reads_it_back() {
    let prog = temp_source(
        "traced.cj",
        "class Cell { Object item; Object get() { this.item } }
         class M { static int main(int n) {
             Cell c = new Cell(null); c.get(); n + 1 } }",
    );
    let trace =
        std::env::temp_dir().join(format!("cjrc-test-{}-run.trace.json", std::process::id()));
    let out = cjrc(&[
        "run",
        prog.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "41",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("42"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("trace event(s)"), "{stderr}");

    // The file is Chrome trace-event JSON with the pipeline phases.
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(text.starts_with("{\"traceEvents\":["), "{text}");
    for phase in [
        "\"parse\"",
        "\"typecheck\"",
        "\"infer\"",
        "\"solve-scc\"",
        "\"lower\"",
        "\"rvm-exec\"",
    ] {
        assert!(text.contains(phase), "trace lacks {phase}: {text}");
    }
    assert!(text.contains("\"ph\":\"X\""), "{text}");

    // trace-summary renders the per-phase self-time table from it.
    let out = cjrc(&["trace-summary", trace.to_str().unwrap()]);
    assert!(out.status.success());
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.contains("phase"), "{table}");
    assert!(table.contains("self(us)"), "{table}");
    assert!(table.contains("solve-scc"), "{table}");
    assert!(table.contains("rvm-exec"), "{table}");

    // Malformed input is a structured error, not a panic.
    let bogus = temp_source("bogus.trace.json", "{\"not\":\"a trace\"}");
    let out = cjrc(&["trace-summary", bogus.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("malformed trace"), "{stderr}");

    std::fs::remove_file(prog).ok();
    std::fs::remove_file(trace).ok();
    std::fs::remove_file(bogus).ok();
}

#[test]
fn tracing_stays_off_without_trace_out() {
    let prog = temp_source(
        "untraced.cj",
        "class M { static int main(int n) { n + 1 } }",
    );
    let out = cjrc(&["run", prog.to_str().unwrap(), "1"]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("trace event(s)"), "{stderr}");
    std::fs::remove_file(prog).ok();
}
