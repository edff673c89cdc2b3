//! End-to-end observability tests: a daemon request traced with
//! `cj-trace` must produce distinct queue-wait / solve / lower / exec
//! spans, the emitted Chrome trace must be well-formed trace-event JSON
//! (the schema Perfetto loads), and the `--metrics-addr` HTTP endpoint
//! plus the in-protocol `metrics` request must expose the unified
//! registry.

use cj_driver::{parse_json, Daemon, DaemonConfig, Json, Server, SessionOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

const PROGRAM: &str = "class Cell { Object item; Object get() { this.item } } \
                       class M { static int main(int n) { \
                         Cell c = new Cell(null); c.get(); n + 1 } }";

fn open_request(file: &str, text: &str) -> String {
    format!(
        "{{\"cmd\":\"open\",\"file\":\"{file}\",\"text\":{}}}",
        cj_diag::json_string(text)
    )
}

/// Sends `lines` to a live daemon, one response per request.
fn drive(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    lines
        .iter()
        .map(|line| {
            writeln!(writer, "{line}").expect("send");
            writer.flush().expect("flush");
            let mut response = String::new();
            reader.read_line(&mut response).expect("recv");
            assert!(!response.is_empty(), "daemon closed early on `{line}`");
            response.trim_end().to_string()
        })
        .collect()
}

/// Validates the Chrome trace-event schema Perfetto and
/// `chrome://tracing` load: a `traceEvents` array of objects, each with
/// string `name`/`cat`, `"ph":"X"`, and numeric `pid`/`tid`/`ts`/`dur`.
/// Returns the event names.
fn assert_perfetto_well_formed(trace_json: &str) -> Vec<String> {
    let root = parse_json(trace_json).expect("trace file parses as JSON");
    let Some(Json::Arr(items)) = root.get("traceEvents") else {
        panic!("trace lacks a `traceEvents` array");
    };
    assert!(!items.is_empty(), "trace recorded no events");
    let mut names = Vec::with_capacity(items.len());
    for item in items {
        let name = item.get_str("name").expect("event has a string `name`");
        assert!(item.get_str("cat").is_some(), "event `{name}` lacks `cat`");
        assert_eq!(item.get_str("ph"), Some("X"), "`{name}` is not complete");
        for key in ["pid", "tid", "ts", "dur"] {
            match item.get(key) {
                Some(Json::Num(n)) if *n >= 0.0 => {}
                other => panic!("event `{name}` field `{key}` is not numeric: {other:?}"),
            }
        }
        assert!(
            matches!(item.get("args"), Some(Json::Obj(_))),
            "event `{name}` lacks an `args` object"
        );
        names.push(name.to_string());
    }
    names
}

/// The tentpole acceptance e2e: with tracing installed, one daemon
/// `check` + `run` request sequence yields a trace with *distinct*
/// queue-wait vs solve vs lower vs exec spans, and the exported Chrome
/// trace is schema-valid. Single test for all global-recorder behaviour
/// so parallel tests in this binary never race install/uninstall.
#[test]
fn daemon_request_trace_has_distinct_phase_spans() {
    cj_trace::install();
    let daemon = Daemon::bind_tcp(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 2,
            ..DaemonConfig::default()
        },
    )
    .expect("bind");
    let addr = daemon.local_addr().expect("tcp addr");
    let daemon_thread = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let responses = drive(
        addr,
        &[
            open_request("cell.cj", PROGRAM),
            "{\"cmd\":\"check\"}".to_string(),
            "{\"cmd\":\"run\",\"args\":[41]}".to_string(),
            "{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string(),
        ],
    );
    daemon_thread.join().expect("daemon thread");
    let events = cj_trace::uninstall();

    assert!(responses[1].contains("\"status\":\"well-region-typed\""));
    assert!(responses[2].contains("\"result\":\"42\""));
    assert!(responses[2].contains("\"engine\":\"rvm\""));

    // The distinct phases the acceptance criterion names, plus the
    // request/frontend wrappers around them.
    for (cat, name) in [
        ("daemon", "queue-wait"),
        ("daemon", "worker-handle"),
        ("pipeline", "parse"),
        ("pipeline", "typecheck"),
        ("pipeline", "infer"),
        ("pipeline", "solve-scc"),
        ("pipeline", "lower"),
        ("pipeline", "rvm-exec"),
        ("request", "check"),
        ("request", "run"),
    ] {
        assert!(
            events.iter().any(|e| e.cat == cat && e.name == name),
            "trace lacks a `{cat}/{name}` span; got: {:?}",
            events
                .iter()
                .map(|e| (e.cat, e.name))
                .collect::<std::collections::BTreeSet<_>>()
        );
    }
    // The register engine's spans carry its counters: the lowering span
    // reports how many methods were translated, the execution span how
    // many dispatches retired and how many superinstructions hit.
    let lower = events.iter().find(|e| e.name == "lower").unwrap();
    assert!(
        lower
            .counters
            .iter()
            .any(|&(k, v)| k == "methods_lowered" && v >= 1),
        "lower counters: {:?}",
        lower.counters
    );
    let rvm_exec = events.iter().find(|e| e.name == "rvm-exec").unwrap();
    assert!(
        rvm_exec
            .counters
            .iter()
            .any(|&(k, v)| k == "dispatches" && v >= 1),
        "rvm-exec counters: {:?}",
        rvm_exec.counters
    );
    assert!(
        rvm_exec
            .counters
            .iter()
            .any(|&(k, _)| k == "superinstructions_hit"),
        "rvm-exec counters: {:?}",
        rvm_exec.counters
    );

    // Phase spans are distinct events, not aliases: solve, lower and
    // exec each carry their own interval, and the worker-side spans
    // happened on a worker thread, not the reactor/client thread.
    let solve = events.iter().find(|e| e.name == "solve-scc").unwrap();
    let lower = events.iter().find(|e| e.name == "lower").unwrap();
    let exec = rvm_exec;
    // The client waits for `check` before sending `run`, so the solve
    // (inside check) ends before lowering starts, and lowering ends
    // before the VM executes — all on the shared recording epoch.
    assert!(
        solve.ts_us + solve.dur_us <= lower.ts_us,
        "solve overlaps lower"
    );
    assert!(
        lower.ts_us + lower.dur_us <= exec.ts_us,
        "lower overlaps exec"
    );
    // Pipeline spans nest under the request span that triggered them.
    let check = events
        .iter()
        .find(|e| e.cat == "request" && e.name == "check")
        .unwrap();
    assert!(solve.tid == check.tid && solve.depth > check.depth);

    // The exported file is exactly what `--trace-out` writes: validate
    // the Perfetto schema and that the named phases survive export.
    let trace_json = cj_driver::telemetry::chrome_trace_json(&events);
    let names = assert_perfetto_well_formed(&trace_json);
    for name in ["queue-wait", "solve-scc", "lower", "rvm-exec"] {
        assert!(names.iter().any(|n| n == name), "export dropped `{name}`");
    }

    // And the summary renderer folds them into per-phase rows.
    let rows = cj_trace::summarize(&events);
    let row = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
    assert!(row("solve-scc").count >= 1);
    assert!(row("check").total_us >= row("solve-scc").total_us);
    let table = cj_trace::render_summary(&rows);
    assert!(table.contains("solve-scc") && table.contains("rvm-exec"));
}

/// One HTTP exchange against the metrics endpoint.
fn http_get(addr: std::net::SocketAddr, request_line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    write!(stream, "{request_line}\r\n\r\n").expect("send request");
    stream.flush().expect("flush");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read response to EOF");
    response
}

#[test]
fn metrics_endpoint_serves_text_and_json_expositions() {
    let daemon = Daemon::bind_tcp(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 2,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..DaemonConfig::default()
        },
    )
    .expect("bind");
    let addr = daemon.local_addr().expect("tcp addr");
    let metrics_addr = daemon.metrics_local_addr().expect("metrics addr");
    let daemon_thread = std::thread::spawn(move || daemon.run().expect("daemon run"));

    // Generate some traffic so the histograms are non-empty.
    let responses = drive(
        addr,
        &[
            open_request("cell.cj", PROGRAM),
            "{\"cmd\":\"check\"}".to_string(),
            "{\"cmd\":\"shutdown\"}".to_string(),
        ],
    );
    assert!(responses[1].contains("\"status\":\"well-region-typed\""));

    // Text exposition: version banner, counters, per-kind quantiles.
    let text = http_get(metrics_addr, "GET /metrics HTTP/1.0");
    assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
    assert!(text.contains("content-type: text/plain") || text.contains("Content-Type: text/plain"));
    let version = env!("CARGO_PKG_VERSION");
    assert!(text.contains(&format!("cjrc_info{{version=\"{version}\"}} 1")));
    assert!(text.contains("requests_total 3"), "{text}");
    assert!(text.contains("request_us_check_count 1"), "{text}");
    assert!(text.contains("request_us_check{quantile=\"0.99\"}"));
    assert!(text.contains("queue_wait_us_count 3"), "{text}");
    assert!(text.contains("daemon_clients_served 1"), "{text}");

    // JSON exposition parses and carries the same registry.
    let json_response = http_get(metrics_addr, "GET /metrics.json HTTP/1.0");
    assert!(
        json_response.starts_with("HTTP/1.0 200 OK"),
        "{json_response}"
    );
    let body_at = json_response.find("\r\n\r\n").expect("header/body split");
    let body = parse_json(json_response[body_at..].trim()).expect("metrics JSON parses");
    assert_eq!(body.get_str("version"), Some(version));
    assert!(matches!(body.get("uptime_ms"), Some(Json::Num(_))));
    let Some(metrics) = body.get("metrics") else {
        panic!("metrics JSON lacks `metrics`");
    };
    let Some(Json::Obj(counters)) = metrics.get("counters") else {
        panic!("metrics JSON lacks `counters`");
    };
    assert!(counters.iter().any(|(k, _)| k == "requests_total"));
    let Some(histograms) = metrics.get("histograms") else {
        panic!("metrics JSON lacks `histograms`");
    };
    let Some(check) = histograms.get("request_us_check") else {
        panic!("metrics JSON lacks the check histogram");
    };
    assert!(matches!(check.get("p99_us"), Some(Json::Num(n)) if *n >= 0.0));

    // Unknown paths 404, non-GET methods 405 — and each scrape bumped
    // the scrape counter itself.
    assert!(http_get(metrics_addr, "GET /nope HTTP/1.0").starts_with("HTTP/1.0 404"));
    assert!(http_get(metrics_addr, "POST /metrics HTTP/1.0").starts_with("HTTP/1.0 405"));
    let again = http_get(metrics_addr, "GET /metrics HTTP/1.0");
    assert!(again.contains("metrics_scrapes 3"), "{again}");

    // A daemon-scope shutdown also stops the metrics reactor thread
    // (run() joins it); afterwards the endpoint must refuse connections.
    drive(
        addr,
        &["{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string()],
    );
    daemon_thread.join().expect("daemon thread");
    assert!(
        TcpStream::connect(metrics_addr).is_err() || {
            // Accept-then-reset is also a valid observation of a dead server
            // on some kernels: a read must yield no response either way.
            let mut s = TcpStream::connect(metrics_addr).unwrap();
            let _ = write!(s, "GET /metrics HTTP/1.0\r\n\r\n");
            let mut out = String::new();
            s.read_to_string(&mut out).map(|n| n == 0).unwrap_or(true)
        }
    );
}

#[test]
fn metrics_request_and_stats_share_the_registry_view() {
    let mut server = Server::new(SessionOptions::default());
    let responses = [
        server.handle_line(&open_request("cell.cj", PROGRAM)),
        server.handle_line("{\"cmd\":\"check\"}"),
        server.handle_line("{\"cmd\":\"stats\"}"),
        server.handle_line("{\"cmd\":\"metrics\"}"),
    ];
    let version = env!("CARGO_PKG_VERSION");

    // `stats` gained uptime and the crate version.
    assert!(responses[2].contains("\"uptime_ms\":"), "{}", responses[2]);
    assert!(
        responses[2].contains(&format!("\"version\":\"{version}\"")),
        "{}",
        responses[2]
    );

    // `metrics` returns the registry: request mix, per-kind latency
    // histograms, pass totals.
    let metrics = &responses[3];
    assert!(metrics.contains("\"ok\":true"), "{metrics}");
    assert!(metrics.contains("\"uptime_ms\":"), "{metrics}");
    assert!(metrics.contains(&format!("\"version\":\"{version}\"")));
    assert!(metrics.contains("\"requests_total\":3"), "{metrics}");
    assert!(metrics.contains("\"passes_infer\":1"), "{metrics}");
    assert!(
        metrics.contains("\"request_us_check\":{\"count\":1,"),
        "{metrics}"
    );
    assert!(metrics.contains("\"request_us_open\":{"), "{metrics}");
    // The whole response is parseable JSON with nested histograms.
    let parsed = parse_json(metrics).expect("metrics response parses");
    let p99 = parsed
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("request_us_check"))
        .and_then(|c| c.get("p99_us"))
        .cloned();
    assert!(matches!(p99, Some(Json::Num(n)) if n >= 0.0), "{metrics}");
}
