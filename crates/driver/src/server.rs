//! The `cjrc serve` compile server: a long-lived JSON-lines protocol over
//! a [`Workspace`].
//!
//! One request per line on stdin, one response per line on stdout. Every
//! response carries the workspace `revision` and a `passes_executed`
//! object — the per-request delta of the workspace pass counters — so
//! clients (and tests) can *observe* incrementality: after editing one
//! method body, a `check` response shows one file re-parsed.
//!
//! # Requests
//!
//! | `cmd` | fields | effect |
//! |---|---|---|
//! | `open` / `edit` | `file`, `text` | add or replace a source file |
//! | `close` | `file` | remove a source file |
//! | `check` | — | compile + region-check the workspace |
//! | `annotate` | — | return the annotated program text |
//! | `query` | `name` \| `invariant` \| `precondition` [+ `class`] [+ `entails`] | read the closed environment `Q` |
//! | `policy` | optional `rules`, `name` | load inline rules (or reuse the loaded set) and check them |
//! | `stats` | — | revision, files, cumulative passes, infer stats |
//! | `shutdown` | optional `scope:"daemon"` | acknowledge and stop (the whole daemon with `scope`) |
//!
//! # Example exchange
//!
//! ```text
//! → {"cmd":"open","file":"pair.cj","text":"class Pair { Object fst; Object snd; }"}
//! ← {"ok":true,"revision":1,"passes_executed":{...}}
//! → {"cmd":"check"}
//! ← {"ok":true,"revision":1,"status":"well-region-typed","warnings":[],"passes_executed":{"parse":1,...}}
//! → {"cmd":"query","invariant":"Pair"}
//! ← {"ok":true,"revision":1,"abs":"inv.Pair<r1,r2,r3> = r2>=r1 & r3>=r1",...}
//! ```

use crate::workspace::{SessionOptions, Workspace};
use cj_diag::json::{json_string, parse_json, Json};
use cj_infer::InferOptions;
use cj_runtime::{Engine, Value};
use std::fmt::Write as _;

// ---- the server ------------------------------------------------------------

/// A compile server processing one JSON request per line. Pure with
/// respect to I/O: [`handle_line`](Server::handle_line) maps a request
/// string to a response string, so tests can drive it directly.
#[derive(Debug)]
pub struct Server {
    ws: Workspace,
    done: bool,
    /// Live daemon serving counters (set only when this server runs
    /// behind `cjrcd`); surfaced under `stats.daemon`.
    daemon_stats: Option<std::sync::Arc<crate::daemon::DaemonStats>>,
    /// Per-request latency and pass telemetry — a fresh hub by default,
    /// the daemon-wide shared one behind `cjrcd`.
    telemetry: std::sync::Arc<crate::telemetry::Telemetry>,
}

impl Server {
    /// A server over an empty workspace.
    pub fn new(opts: SessionOptions) -> Server {
        Server {
            ws: Workspace::new(opts),
            done: false,
            daemon_stats: None,
            telemetry: std::sync::Arc::new(crate::telemetry::Telemetry::new()),
        }
    }

    /// Attaches the daemon's live serving counters, making the `stats`
    /// response report a `"daemon"` object (clients served and rejected,
    /// current and peak connection counts).
    pub fn set_daemon_stats(&mut self, stats: std::sync::Arc<crate::daemon::DaemonStats>) {
        self.daemon_stats = Some(stats);
    }

    /// Replaces this server's telemetry hub with a shared one — how the
    /// daemon front end aggregates every connection's request latencies
    /// into the registry the `--metrics-addr` endpoint scrapes.
    pub fn set_telemetry(&mut self, telemetry: std::sync::Arc<crate::telemetry::Telemetry>) {
        self.telemetry = telemetry;
    }

    /// The telemetry hub this server records into.
    pub fn telemetry(&self) -> &std::sync::Arc<crate::telemetry::Telemetry> {
        &self.telemetry
    }

    /// Whether a `shutdown` request has been processed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Processes one request line, returning the response line (without a
    /// trailing newline). Never panics on malformed input.
    pub fn handle_line(&mut self, line: &str) -> String {
        let started = std::time::Instant::now();
        let before = self.ws.pass_counts();
        let (kind, body) = match parse_json(line) {
            Ok(req) => {
                let kind = crate::telemetry::request_kind(req.get_str("cmd"));
                let mut span = cj_trace::span("request", kind);
                let body = self.dispatch(&req);
                span.add("ok", u64::from(body.is_ok()));
                (kind, body)
            }
            Err(e) => (
                crate::telemetry::request_kind(None),
                Err(ReqError::from(format!("malformed request: {e}"))),
            ),
        };
        let passes = self.ws.pass_counts().since(before);
        self.telemetry
            .record_request(kind, started.elapsed(), passes);
        let revision = self.ws.revision();
        match body {
            Ok(fields) => {
                let mut out = String::from("{\"ok\":true");
                let _ = write!(out, ",\"revision\":{revision}");
                if !fields.is_empty() {
                    let _ = write!(out, ",{fields}");
                }
                let _ = write!(out, ",\"passes_executed\":{}", passes.to_json());
                out.push('}');
                out
            }
            Err(error) => {
                let mut out = format!(
                    "{{\"ok\":false,\"revision\":{revision},\"error\":{}",
                    json_string(&error.msg)
                );
                if let Some(code) = error.code {
                    let _ = write!(out, ",\"code\":\"{code}\"");
                }
                let _ = write!(out, ",\"passes_executed\":{}}}", passes.to_json());
                out
            }
        }
    }

    /// Dispatches a parsed request; `Ok` carries extra response fields
    /// (already JSON-encoded, comma-separated, no braces).
    fn dispatch(&mut self, req: &Json) -> Result<String, ReqError> {
        let cmd = req.get_str("cmd").ok_or("missing `cmd`")?;
        match cmd {
            "open" | "edit" => {
                let file = req.get_str("file").ok_or("`open` needs `file`")?;
                let text = req.get_str("text").ok_or("`open` needs `text`")?;
                self.ws.set_source(file, text).map_err(message)?;
                Ok(String::new())
            }
            "close" => {
                let file = req.get_str("file").ok_or("`close` needs `file`")?;
                self.ws
                    .remove_source(file)
                    .ok_or_else(|| format!("no file `{file}` in the workspace"))?;
                Ok(String::new())
            }
            "check" => {
                let opts = self.request_opts(req)?;
                match self.ws.check(opts) {
                    Ok(_) => {
                        let warnings = self.downcast_warnings()?;
                        Ok(format!(
                            "\"status\":\"well-region-typed\",\"extents\":\"{}\",\
                             \"warnings\":{warnings}",
                            opts.extent
                        ))
                    }
                    Err(diags) => Ok(format!(
                        "\"status\":\"error\",\"diagnostics\":{}",
                        self.ws.render_json(&diags)
                    )),
                }
            }
            "annotate" => {
                let opts = self.request_opts(req)?;
                let annotated = self.ws.annotate(opts).map_err(message)?;
                Ok(format!(
                    "\"annotated\":{},\"extents\":\"{}\"",
                    json_string(&annotated),
                    opts.extent
                ))
            }
            "run" => {
                let args: Vec<Value> = match req.get("args") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|v| match v {
                            // Exact integers only: a fraction must not be
                            // truncated, nor a huge value saturated.
                            Json::Num(n)
                                if n.fract() == 0.0
                                    && *n >= i64::MIN as f64
                                    && *n < i64::MAX as f64 =>
                            {
                                Ok(Value::Int(*n as i64))
                            }
                            _ => Err("`run` args must be integers".to_string()),
                        })
                        .collect::<Result<_, _>>()?,
                    None => Vec::new(),
                    _ => return Err("`args` must be an array".into()),
                };
                let opts = self.request_opts(req)?;
                // An unrecognized engine gets a *coded* error: clients
                // selecting a tier must distinguish "tier not available"
                // from ordinary compile failures, not fall back silently.
                let engine: Engine = match req.get_str("engine") {
                    Some(name) => name.parse().map_err(|msg: String| ReqError {
                        code: Some("unknown-engine"),
                        msg,
                    })?,
                    None => self.ws.options().run.engine,
                };
                let out = self.ws.run(opts, engine, &args).map_err(message)?;
                Ok(format!(
                    "\"result\":{},\"engine\":\"{engine}\",\"extents\":\"{}\",\
                     \"steps\":{},\"space_ratio\":{:.4},\"peak_live\":{}",
                    json_string(&out.value.to_string()),
                    opts.extent,
                    out.steps,
                    out.space.space_ratio(),
                    out.space.peak_live
                ))
            }
            "query" => self.query(req).map_err(ReqError::from),
            "policy" => {
                // Inline rules replace the loaded set; without `rules`, the
                // previously loaded set is re-checked (how an editor polls
                // after edits without resending its policy).
                if let Some(rules) = req.get_str("rules") {
                    let name = req.get_str("name").unwrap_or("<policy>");
                    if let Err(d) = self.ws.set_policy(name, rules) {
                        return Err(self.ws.render(&d).trim_end().to_string().into());
                    }
                }
                let opts = self.request_opts(req)?;
                let outcome = match self.ws.check_policy(opts) {
                    Ok(outcome) => outcome,
                    Err(d) => return Err(self.ws.render(&d).trim_end().to_string().into()),
                };
                let status = if outcome.ok() {
                    "policy-ok"
                } else {
                    "policy-violations"
                };
                let rules = self.ws.policy().map_or(0, |set| set.rules.len());
                Ok(format!(
                    "\"status\":\"{status}\",\"rules\":{rules},\"violations\":{},\
                     \"rule_errors\":{},\"diagnostics\":{}",
                    outcome.violations,
                    outcome.rule_errors,
                    self.ws.render_json(&outcome.diagnostics)
                ))
            }
            "stats" => {
                let files: Vec<String> =
                    self.ws.file_names().into_iter().map(json_string).collect();
                let mut extra = format!(
                    "\"files\":[{}],\"passes_total\":{}",
                    files.join(","),
                    self.ws.pass_counts().to_json()
                );
                let _ = write!(
                    extra,
                    ",\"uptime_ms\":{},\"version\":{}",
                    self.telemetry.uptime_ms(),
                    json_string(crate::telemetry::Telemetry::version())
                );
                if let Some(daemon) = &self.daemon_stats {
                    let _ = write!(extra, ",\"daemon\":{}", daemon.to_json());
                }
                // A pure read of cached state: `stats` never compiles.
                let opts = self.request_opts(req)?;
                if let Some(compilation) = self.ws.cached_compilation(opts) {
                    let _ = write!(extra, ",\"infer_stats\":{}", compilation.stats.to_json());
                }
                Ok(extra)
            }
            "metrics" => {
                // One unified read of the registry every connection's
                // server records into: request mix + per-kind latency
                // quantiles + pass totals + daemon gauges. The same
                // snapshot the `--metrics-addr` HTTP endpoint serves.
                Ok(self.telemetry.metrics_fields(self.daemon_stats.as_deref()))
            }
            "shutdown" => {
                // `scope:"daemon"` is acted on by the daemon front end; a
                // misspelled scope must not silently degrade to a
                // connection-scope shutdown the client mistakes for a
                // daemon stop.
                match req.get_str("scope") {
                    None | Some("daemon") | Some("connection") => {}
                    Some(other) => {
                        return Err(format!(
                            "unknown shutdown scope `{other}` (expected `connection` or `daemon`)"
                        )
                        .into())
                    }
                }
                self.done = true;
                Ok("\"status\":\"bye\"".to_string())
            }
            other => Err(format!("unknown command `{other}`").into()),
        }
    }

    fn request_opts(&self, req: &Json) -> Result<InferOptions, String> {
        let mut opts = self.ws.options().infer;
        if let Some(mode) = req.get_str("mode") {
            opts.mode = mode.parse().map_err(|e| format!("{e}"))?;
        }
        if let Some(policy) = req.get_str("downcast") {
            opts.downcast = policy.parse().map_err(|e| format!("{e}"))?;
        }
        if let Some(extents) = req.get_str("extents") {
            opts.extent = extents.parse().map_err(|e| format!("{e}"))?;
        }
        Ok(opts)
    }

    fn query(&mut self, req: &Json) -> Result<String, String> {
        let name = if let Some(name) = req.get_str("name") {
            name.to_string()
        } else if let Some(class) = req.get_str("invariant") {
            cj_infer::invariant_name(class)
        } else if let Some(method) = req.get_str("precondition") {
            cj_infer::precondition_name(req.get_str("class"), method)
        } else {
            return Err("`query` needs `name`, `invariant` or `precondition`".to_string());
        };
        let opts = self.request_opts(req)?;
        if let Some(atom) = req.get_str("entails") {
            let atom = atom.to_string();
            return match self.ws.entails(opts, &name, &atom).map_err(message)? {
                Some(v) => Ok(format!("\"name\":{},\"entails\":{v}", json_string(&name))),
                None => Err(format!("unknown abstraction `{name}`")),
            };
        }
        match self.ws.q(opts, &name).map_err(message)? {
            Some(abs) => Ok(format!(
                "\"name\":{},\"params\":{},\"abs\":{}",
                json_string(&name),
                abs.params.len(),
                json_string(&abs.to_string())
            )),
            None => Err(format!("unknown abstraction `{name}`")),
        }
    }

    fn downcast_warnings(&mut self) -> Result<String, String> {
        let kernel = self.ws.typecheck().map_err(message)?;
        let analysis = self.ws.downcast_analysis().map_err(message)?;
        Ok(self.ws.render_json(&analysis.diagnostics(&kernel)))
    }
}

/// A failed stage's diagnostics as one error message: the terse form,
/// capped like every other rendering.
fn message(diags: cj_diag::Diagnostics) -> String {
    diags.to_string().trim_end().to_string()
}

/// A dispatch failure: a human-readable message plus an optional stable
/// machine-readable `code` clients can branch on without parsing prose.
struct ReqError {
    code: Option<&'static str>,
    msg: String,
}

impl From<String> for ReqError {
    fn from(msg: String) -> ReqError {
        ReqError { code: None, msg }
    }
}

impl From<&str> for ReqError {
    fn from(msg: &str) -> ReqError {
        ReqError {
            code: None,
            msg: msg.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(SessionOptions::default())
    }

    #[test]
    fn queries_honor_per_request_mode() {
        // Sec 3.2's foo: no-sub coalesces the two parameter regions,
        // object-sub keeps them apart — the same query must answer per the
        // requested mode, not the workspace default (field-sub).
        let mut s = server();
        s.handle_line(
            r#"{"cmd":"open","file":"foo.cj","text":"class M { static void foo(Object a, Object b, bool c) { Object tmp; if (c) { tmp = a; } else { tmp = b; } } }"}"#,
        );
        let none =
            s.handle_line(r#"{"cmd":"query","name":"pre.foo","entails":"r1=r2","mode":"none"}"#);
        assert!(none.contains("\"entails\":true"), "{none}");
        let object =
            s.handle_line(r#"{"cmd":"query","name":"pre.foo","entails":"r1=r2","mode":"object"}"#);
        assert!(object.contains("\"entails\":false"), "{object}");
    }

    #[test]
    fn stats_is_a_pure_read() {
        let mut s = server();
        s.handle_line(r#"{"cmd":"open","file":"a.cj","text":"class A { Object x; }"}"#);
        // Before any compile: no passes run, no infer_stats to report.
        let resp = s.handle_line(r#"{"cmd":"stats"}"#);
        assert!(resp.contains("\"files\":[\"a.cj\"]"), "{resp}");
        assert!(!resp.contains("infer_stats"), "{resp}");
        assert!(resp.contains("\"passes_executed\":{\"parse\":0"), "{resp}");
        // After a check, stats reports the cached compilation — still
        // without executing anything new.
        s.handle_line(r#"{"cmd":"check"}"#);
        let resp = s.handle_line(r#"{"cmd":"stats"}"#);
        assert!(resp.contains("\"infer_stats\":{"), "{resp}");
        assert!(resp.contains("\"passes_executed\":{\"parse\":0"), "{resp}");
    }

    #[test]
    fn open_check_query_shutdown_flow() {
        let mut s = server();
        let resp = s.handle_line(
            r#"{"cmd":"open","file":"pair.cj","text":"class Pair { Object fst; Object snd; }"}"#,
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"revision\":1"), "{resp}");

        let resp = s.handle_line(r#"{"cmd":"check"}"#);
        assert!(resp.contains("\"status\":\"well-region-typed\""), "{resp}");
        assert!(resp.contains("\"parse\":1"), "{resp}");

        let resp = s.handle_line(r#"{"cmd":"query","invariant":"Pair"}"#);
        assert!(resp.contains("\"abs\":\"inv.Pair<"), "{resp}");
        assert!(resp.contains("\"params\":3"), "{resp}");

        let resp = s.handle_line(r#"{"cmd":"query","invariant":"Pair","entails":"r2>=r1"}"#);
        assert!(resp.contains("\"entails\":true"), "{resp}");

        assert!(!s.is_done());
        let resp = s.handle_line(r#"{"cmd":"shutdown"}"#);
        assert!(resp.contains("\"status\":\"bye\""), "{resp}");
        assert!(s.is_done());
    }

    #[test]
    fn check_reports_structured_diagnostics() {
        let mut s = server();
        s.handle_line(r#"{"cmd":"open","file":"bad.cj","text":"class A { Pear p; }"}"#);
        let resp = s.handle_line(r#"{"cmd":"check"}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"status\":\"error\""), "{resp}");
        assert!(resp.contains("unknown class `Pear`"), "{resp}");
        assert!(resp.contains("\"file\":\"bad.cj\""), "{resp}");
    }

    #[test]
    fn check_replies_cap_diagnostics_per_file() {
        // 10x the per-file bound: one error per field of an unknown class.
        let count = 10 * cj_diag::MAX_DIAGNOSTICS_PER_FILE;
        let fields: String = (0..count).map(|i| format!(" Missing{i} f{i};")).collect();
        let text = format!("class A {{{fields} }}");
        let mut s = server();
        s.handle_line(&format!(
            r#"{{"cmd":"open","file":"many.cj","text":{}}}"#,
            json_string(&text)
        ));
        let check = s.handle_line(r#"{"cmd":"check"}"#);
        assert!(check.len() < 64 * 1024, "{} bytes", check.len());
        let reply = parse_json(&check).unwrap();
        assert_eq!(reply.get_str("status"), Some("error"), "{check}");
        let Some(Json::Arr(diags)) = reply.get("diagnostics") else {
            panic!("{check}");
        };
        assert_eq!(diags.len(), cj_diag::MAX_DIAGNOSTICS_PER_FILE);
        assert!(check.contains("900 more diagnostics suppressed"), "{check}");
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        let mut s = server();
        for line in [
            "",
            "not json",
            "{}",
            r#"{"cmd":"explode"}"#,
            r#"{"cmd":"open","file":"x"}"#,
            r#"{"cmd":"close","file":"missing.cj"}"#,
            r#"{"cmd":"query"}"#,
            r#"{"cmd":"query","name":"inv.Nope"}"#,
            r#"{"cmd":"check","mode":"bogus"}"#,
        ] {
            let resp = s.handle_line(line);
            assert!(resp.contains("\"ok\":false"), "line {line:?} → {resp}");
            assert!(resp.contains("\"error\":"), "line {line:?} → {resp}");
        }
    }

    #[test]
    fn edit_responses_expose_incrementality() {
        let mut s = server();
        s.handle_line(
            r#"{"cmd":"open","file":"a.cj","text":"class Cell { Object item; Object get() { this.item } Object id() { this.item } }"}"#,
        );
        s.handle_line(
            r#"{"cmd":"open","file":"b.cj","text":"class M { static Object f(Cell c) { c.get() } }"}"#,
        );
        let cold = s.handle_line(r#"{"cmd":"check"}"#);
        assert!(cold.contains("\"parse\":2"), "{cold}");

        // Edit only b.cj: one re-parse, every body re-inferred.
        s.handle_line(
            r#"{"cmd":"edit","file":"b.cj","text":"class M { static Object f(Cell c) { c.id() } }"}"#,
        );
        let warm = s.handle_line(r#"{"cmd":"check"}"#);
        assert!(warm.contains("\"parse\":1"), "{warm}");
        assert!(warm.contains("\"methods_inferred\":3"), "{warm}");
        let passes = |reply: &str, key: &str| match parse_json(reply)
            .unwrap()
            .get("passes_executed")
            .and_then(|p| p.get(key))
        {
            Some(Json::Num(n)) => *n,
            _ => panic!("no {key} in {reply}"),
        };
        assert!(passes(&warm, "sccs_solved") > 0.0, "{warm}");
    }

    #[test]
    fn policy_requests_check_inline_rules() {
        let mut s = server();
        s.handle_line(
            r#"{"cmd":"open","file":"m.cj","text":"class Cell { Object v; } class M { static Cell leak() { new Cell(null) } static void main() { } }"}"#,
        );
        // No rules sent and none loaded: an error, not a silent pass.
        let resp = s.handle_line(r#"{"cmd":"policy"}"#);
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("no policy loaded"), "{resp}");

        let resp = s.handle_line(r#"{"cmd":"policy","rules":"no-escape Cell"}"#);
        assert!(resp.contains("\"status\":\"policy-violations\""), "{resp}");
        assert!(resp.contains("\"rules\":1,\"violations\":1"), "{resp}");
        assert!(resp.contains("\"code\":\"E0711\""), "{resp}");
        assert!(resp.contains("\"file\":\"m.cj\""), "{resp}");
        assert!(
            resp.contains("rule `no-escape Cell` declared here"),
            "{resp}"
        );
        assert!(!resp.contains("\"rules_checked\":0"), "{resp}");

        // Re-sending the same rules replays the cached outcome: nothing is
        // re-evaluated.
        let resp = s.handle_line(r#"{"cmd":"policy","rules":"no-escape Cell"}"#);
        assert!(resp.contains("\"status\":\"policy-violations\""), "{resp}");
        assert!(resp.contains("\"rules_checked\":0"), "{resp}");
        assert!(resp.contains("\"policy_violations\":0"), "{resp}");

        // Omitting `rules` reuses the loaded set.
        let resp = s.handle_line(r#"{"cmd":"policy"}"#);
        assert!(resp.contains("\"status\":\"policy-violations\""), "{resp}");

        // A clean rule set over the same program.
        let resp = s.handle_line(r#"{"cmd":"policy","rules":"no-escape M"}"#);
        assert!(resp.contains("\"status\":\"policy-ok\""), "{resp}");
        assert!(resp.contains("\"violations\":0"), "{resp}");

        // Malformed rules are a request error carrying the E0710 rendering.
        let resp = s.handle_line(r#"{"cmd":"policy","rules":"frobnicate Cell"}"#);
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("E0710"), "{resp}");
        let stats = s.handle_line(r#"{"cmd":"stats"}"#);
        assert!(stats.contains("\"rules_checked\":"), "{stats}");
    }

    #[test]
    fn run_executes_main() {
        let mut s = server();
        s.handle_line(
            r#"{"cmd":"open","file":"m.cj","text":"class M { static int main(int n) { n * 2 } }"}"#,
        );
        let resp = s.handle_line(r#"{"cmd":"run","args":[21]}"#);
        assert!(resp.contains("\"result\":\"42\""), "{resp}");
        assert!(resp.contains("\"engine\":\"rvm\""), "{resp}");
        assert!(resp.contains("\"steps\":"), "{resp}");
    }

    #[test]
    fn run_args_must_be_exact_integers() {
        let mut s = server();
        s.handle_line(
            r#"{"cmd":"open","file":"m.cj","text":"class M { static int main(int n) { n * 2 } }"}"#,
        );
        let run = |s: &mut Server, args: &str| {
            s.handle_line(&format!(r#"{{"cmd":"run","args":[{args}]}}"#))
        };
        // A fraction was truncated (2.7 ran as 2) and a huge value
        // saturated and wrapped; both now get the integer-args error.
        for args in r#"2.7 1e300 -1e300 9223372036854775808 "2""#.split(' ') {
            let resp = run(&mut s, args);
            let want = r#"{"ok":false,"revision":1,"error":"`run` args must be integers""#;
            assert!(resp.starts_with(want), "{args} → {resp}");
        }
        for (args, want) in [("2.0", "4"), ("1e2", "200"), ("-3", "-6")] {
            let resp = run(&mut s, args);
            let want = format!("\"result\":\"{want}\"");
            assert!(resp.contains(&want), "{args} → {resp}");
        }
        // Numbers outside the JSON grammar, and a lone low surrogate, are
        // malformed requests.
        for args in ["+3", ".5", "1."] {
            assert!(run(&mut s, args).contains("malformed request"), "{args}");
        }
        let resp = s.handle_line(r#"{"cmd":"open","file":"x\udc00.cj","text":""}"#);
        assert!(resp.contains("lone low surrogate"), "{resp}");
    }

    #[test]
    fn run_honors_per_request_engine() {
        let mut s = server();
        s.handle_line(
            r#"{"cmd":"open","file":"m.cj","text":"class M { static int main(int n) { n * 2 } }"}"#,
        );
        let rvm = s.handle_line(r#"{"cmd":"run","args":[21],"engine":"rvm"}"#);
        let interp = s.handle_line(r#"{"cmd":"run","args":[21],"engine":"interp"}"#);
        assert!(rvm.contains("\"engine\":\"rvm\""), "{rvm}");
        assert!(interp.contains("\"engine\":\"interp\""), "{interp}");
        for resp in [&rvm, &interp] {
            assert!(resp.contains("\"result\":\"42\""), "{resp}");
        }
        assert!(rvm.contains("\"lower\":1"), "{rvm}");
        // The retired stack VM's name is an unknown engine like any other.
        for bad_engine in ["jit", "vm"] {
            let bad = s.handle_line(&format!(r#"{{"cmd":"run","engine":"{bad_engine}"}}"#));
            assert!(bad.contains("\"ok\":false"), "{bad}");
            assert!(bad.contains("unknown engine"), "{bad}");
            assert!(bad.contains("\"code\":\"unknown-engine\""), "{bad}");
        }
        // Errors without a registered code carry no `code` field at all.
        let nocode = s.handle_line(r#"{"cmd":"frobnicate"}"#);
        assert!(nocode.contains("\"ok\":false"), "{nocode}");
        assert!(!nocode.contains("\"code\":"), "{nocode}");
    }

    #[test]
    fn requests_honor_per_request_extent_mode() {
        let mut s = server();
        s.handle_line(
            r#"{"cmd":"open","file":"m.cj","text":"class Box { int v; } class M { static int main(int n) { Box b = new Box(n); int out = b.v; print(out); out } }"}"#,
        );
        // Same session serves both placements side by side; each response
        // reports the extent mode it was compiled under.
        let paper = s.handle_line(r#"{"cmd":"run","args":[7],"extents":"paper"}"#);
        let live = s.handle_line(r#"{"cmd":"run","args":[7],"extents":"liveness"}"#);
        assert!(paper.contains("\"extents\":\"paper\""), "{paper}");
        assert!(live.contains("\"extents\":\"liveness\""), "{live}");
        for resp in [&paper, &live] {
            assert!(resp.contains("\"result\":\"7\""), "{resp}");
        }
        let check = s.handle_line(r#"{"cmd":"check","extents":"liveness"}"#);
        assert!(
            check.contains("\"status\":\"well-region-typed\""),
            "{check}"
        );
        assert!(check.contains("\"extents\":\"liveness\""), "{check}");
        let annot = s.handle_line(r#"{"cmd":"annotate","extents":"liveness"}"#);
        assert!(annot.contains("\"extents\":\"liveness\""), "{annot}");
        let stats = s.handle_line(r#"{"cmd":"stats"}"#);
        assert!(stats.contains("\"extent_rewrites\":"), "{stats}");
        let bad = s.handle_line(r#"{"cmd":"check","extents":"nll"}"#);
        assert!(bad.contains("\"ok\":false"), "{bad}");
        assert!(bad.contains("extent mode"), "{bad}");
    }
}
