//! Unified serve/daemon telemetry: one [`cj_trace::MetricsRegistry`]
//! behind the `metrics` request and the `--metrics-addr` HTTP endpoint.
//!
//! Every connection's [`Server`](crate::server::Server) records its
//! request latencies (per request kind) and executed pass counts into
//! the daemon-wide [`Telemetry`]; the daemon front end adds the time each
//! job spent queued between the reactor and a worker. At scrape time the
//! [`DaemonStats`] atomics are mirrored into the same snapshot, so one
//! read shows the whole system — request mix, tail latencies, queue
//! health, connection churn — instead of disjoint counter families.
//!
//! The HTTP endpoint dogfoods [`cj_net::EventLoop`] as a minimal
//! HTTP/1.0 server: one reactor thread, one request line per
//! connection, text exposition at `/metrics`, JSON at `/metrics.json`.
//!
//! The telemetry wire formats live here too, all through
//! [`cj_diag::json`]: the `metrics` payload
//! ([`Telemetry::metrics_fields`]), and the Chrome trace-event file
//! behind `--trace-out` — written by [`chrome_trace_json`] and read back
//! by [`parse_trace_file`] for `cjrc trace-summary`.

use crate::daemon::DaemonStats;
use crate::workspace::PassCounts;
use cj_diag::json::{json_string, parse_json, Json};
use cj_net::{EventLoop, NetConfig, NetEvent, NetListener};
use cj_trace::{Event, MetricsRegistry, MetricsSnapshot};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared telemetry hub: a metrics registry plus the start instant
/// `uptime_ms` is measured from. One per daemon (shared by every
/// connection), or one per stand-alone `serve` server.
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    registry: MetricsRegistry,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh hub; `uptime_ms` counts from here.
    pub fn new() -> Telemetry {
        Telemetry {
            started: Instant::now(),
            registry: MetricsRegistry::new(),
        }
    }

    /// The underlying registry (for recording sites that need direct
    /// counter/histogram access, like the event loop's queue-wait).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Milliseconds since this hub was created.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The crate (= workspace) version string reported by `stats` and
    /// `metrics`.
    pub fn version() -> &'static str {
        env!("CARGO_PKG_VERSION")
    }

    /// Records one finished request: bumps `requests_total`, feeds the
    /// per-kind latency histogram, and accumulates the passes the
    /// request actually executed.
    pub fn record_request(&self, kind: &'static str, elapsed: Duration, passes: PassCounts) {
        self.registry.add("requests_total", 1);
        self.registry
            .histogram(&format!("request_us_{kind}"))
            .record_duration(elapsed);
        for (name, value) in passes.fields() {
            // Skip zeros before formatting the key; `add` ignores them too.
            if value > 0 {
                self.registry.add(&format!("passes_{name}"), value as u64);
            }
        }
    }

    /// Records the time one job spent queued between the reactor and a
    /// worker.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.registry
            .histogram("queue_wait_us")
            .record_duration(wait);
    }

    /// The `uptime_ms`, `version` and `metrics` members (no braces) of
    /// the `metrics` response and of `/metrics.json`.
    pub fn metrics_fields(&self, daemon: Option<&DaemonStats>) -> String {
        let snapshot = self.snapshot(daemon);
        format!(
            "\"uptime_ms\":{},\"version\":{},\"metrics\":{}",
            self.uptime_ms(),
            json_string(Telemetry::version()),
            metrics_json(&snapshot)
        )
    }

    /// One unified snapshot: mirrors `uptime_ms` and — when available —
    /// the daemon's serving counters into the registry, then reads
    /// everything at once.
    pub fn snapshot(&self, daemon: Option<&DaemonStats>) -> MetricsSnapshot {
        self.registry.set("uptime_ms", self.uptime_ms());
        if let Some(daemon) = daemon {
            self.registry
                .set("daemon_clients_served", daemon.clients_served());
            self.registry
                .set("daemon_clients_rejected", daemon.clients_rejected());
            self.registry
                .set("daemon_connections_current", daemon.connections_current());
            self.registry
                .set("daemon_connections_peak", daemon.connections_peak());
        }
        self.registry.snapshot()
    }
}

/// The stable request-kind key latency histograms are sliced by. Every
/// protocol command maps to itself; anything unknown (or unparsable)
/// folds into `"other"` so hostile input cannot grow the registry.
pub fn request_kind(cmd: Option<&str>) -> &'static str {
    match cmd {
        Some("open") => "open",
        Some("edit") => "edit",
        Some("close") => "close",
        Some("check") => "check",
        Some("annotate") => "annotate",
        Some("run") => "run",
        Some("query") => "query",
        Some("policy") => "policy",
        Some("stats") => "stats",
        Some("metrics") => "metrics",
        Some("shutdown") => "shutdown",
        _ => "other",
    }
}

/// JSON object form of a metrics snapshot:
/// `{"counters":{...},"histograms":{name:{count,sum_us,p50_us,p95_us,
/// p99_us},...}}` — the `metrics` member of
/// [`metrics_fields`](Telemetry::metrics_fields).
fn metrics_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{value}", json_string(name));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"sum_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            json_string(name),
            h.count,
            h.sum,
            h.p50,
            h.p95,
            h.p99
        );
    }
    out.push_str("}}");
    out
}

/// Renders trace events as Chrome trace-event JSON (the `traceEvents`
/// array format with complete `"ph":"X"` events), loadable in Perfetto
/// and `chrome://tracing`. Counters become the event's `args`.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\
             \"dur\":{},\"args\":{{\"depth\":{}",
            json_string(ev.name),
            json_string(ev.cat),
            ev.tid,
            ev.ts_us,
            ev.dur_us,
            ev.depth
        );
        for (key, value) in &ev.counters {
            let _ = write!(out, ",{}:{value}", json_string(key));
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Reconstructs trace [`Event`]s from a [`chrome_trace_json`] file.
/// `Event` borrows its names as `&'static str` (recording must not
/// allocate); a one-shot read gets them by interning each distinct name
/// once and leaking it — bounded by the span taxonomy, not the event
/// count.
///
/// # Errors
///
/// Malformed JSON, a missing `traceEvents` array, or a complete event
/// without its name or numeric `tid`/`ts`/`dur`.
pub fn parse_trace_file(text: &str) -> Result<Vec<Event>, String> {
    let root = parse_json(text.trim())?;
    let Some(Json::Arr(items)) = root.get("traceEvents") else {
        return Err("missing `traceEvents` array".to_string());
    };
    let mut names: HashMap<String, &'static str> = HashMap::new();
    let mut intern = move |s: &str| -> &'static str {
        if let Some(&interned) = names.get(s) {
            return interned;
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        names.insert(s.to_string(), leaked);
        leaked
    };
    let mut events = Vec::with_capacity(items.len());
    for item in items {
        if item.get_str("ph") != Some("X") {
            continue; // only complete events carry durations
        }
        let num = |key: &str| -> Result<u64, String> {
            match item.get(key) {
                Some(Json::Num(n)) if *n >= 0.0 => Ok(*n as u64),
                _ => Err(format!("event missing numeric `{key}`")),
            }
        };
        let mut counters = Vec::new();
        if let Some(Json::Obj(args)) = item.get("args") {
            for (key, value) in args {
                if key == "depth" {
                    continue; // exporter metadata, not a span counter
                }
                if let Json::Num(n) = value {
                    counters.push((intern(key), *n as u64));
                }
            }
        }
        events.push(Event {
            cat: intern(item.get_str("cat").unwrap_or("")),
            name: intern(item.get_str("name").ok_or("event missing `name`")?),
            tid: num("tid")?,
            ts_us: num("ts")?,
            dur_us: num("dur")?,
            depth: 0, // recomputed by summarize's containment pass
            counters,
        });
    }
    Ok(events)
}

fn http_response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Spawns the `--metrics-addr` scrape endpoint: a minimal HTTP/1.0
/// server on its own [`cj_net::EventLoop`] reactor thread. `GET
/// /metrics` answers the plain-text exposition, `GET /metrics.json` the
/// JSON form; anything else is a 404. The thread exits when `stop` is
/// set (poll granularity ~100ms).
pub fn spawn_metrics_endpoint(
    listener: TcpListener,
    telemetry: Arc<Telemetry>,
    daemon: Option<Arc<DaemonStats>>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    let config = NetConfig {
        max_clients: 64,
        idle_timeout: Duration::from_secs(10),
        max_line_bytes: 8 * 1024,
    };
    let mut el = EventLoop::new(NetListener::Tcp(listener), config)?;
    Ok(std::thread::Builder::new()
        .name("cjrc-metrics".to_string())
        .spawn(move || {
            let mut events: Vec<NetEvent> = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                events.clear();
                if el.poll(&mut events, Duration::from_millis(100)).is_err() {
                    break;
                }
                for event in events.drain(..) {
                    let NetEvent::Line { token, line } = event else {
                        continue;
                    };
                    // Only the request line matters; header lines never
                    // arrive because the connection stays paused.
                    let request = String::from_utf8_lossy(&line);
                    let mut parts = request.split_whitespace();
                    let method = parts.next().unwrap_or("");
                    let path = parts.next().unwrap_or("");
                    let response = if method != "GET" {
                        http_response("405 Method Not Allowed", "text/plain", "GET only\n")
                    } else {
                        match path {
                            "/metrics" => {
                                telemetry.registry().add("metrics_scrapes", 1);
                                let snapshot = telemetry.snapshot(daemon.as_deref());
                                let mut body = format!(
                                    "cjrc_info{{version=\"{}\"}} 1\n",
                                    Telemetry::version()
                                );
                                body.push_str(&snapshot.render_text());
                                http_response("200 OK", "text/plain; version=0.0.4", &body)
                            }
                            "/metrics.json" => {
                                telemetry.registry().add("metrics_scrapes", 1);
                                let body = format!(
                                    "{{{}}}\n",
                                    telemetry.metrics_fields(daemon.as_deref())
                                );
                                http_response("200 OK", "application/json", &body)
                            }
                            _ => http_response(
                                "404 Not Found",
                                "text/plain",
                                "try /metrics or /metrics.json\n",
                            ),
                        }
                    };
                    el.send(token, &response);
                    el.close(token);
                }
            }
            el.drain(Duration::from_millis(500));
        })
        .expect("spawn metrics endpoint thread"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_shape() {
        let events = vec![Event {
            cat: "pipeline",
            name: "solve-scc",
            tid: 3,
            ts_us: 12,
            dur_us: 34,
            depth: 1,
            counters: vec![("iterations", 7)],
        }];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"solve-scc\""));
        assert!(json.contains("\"ts\":12"));
        assert!(json.contains("\"dur\":34"));
        assert!(json.contains("\"iterations\":7"));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert_eq!(
            json,
            "{\"traceEvents\":[{\"name\":\"solve-scc\",\"cat\":\"pipeline\",\"ph\":\"X\",\
             \"pid\":1,\"tid\":3,\"ts\":12,\"dur\":34,\"args\":{\"depth\":1,\"iterations\":7}}],\
             \"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn metrics_json_shape() {
        let registry = MetricsRegistry::new();
        registry.add("requests_total", 5);
        registry.histogram("request_us_check").record(100);
        registry.histogram("request_us_check").record(200);
        let json = metrics_json(&registry.snapshot());
        assert!(json.contains("\"requests_total\":5"));
        assert!(json.contains("\"request_us_check\":{\"count\":2,\"sum_us\":300"));
        let parsed = parse_json(&json).unwrap();
        assert!(matches!(parsed.get("histograms"), Some(Json::Obj(h)) if h.len() == 1));
    }
}
