//! Unified serve/daemon telemetry: one [`cj_trace::MetricsRegistry`]
//! behind the `metrics` request and the `--metrics-addr` HTTP endpoint.
//!
//! Every connection's [`Server`](crate::server::Server) records its
//! request latencies (per request kind) and executed pass counts into
//! the daemon-wide [`Telemetry`]; the daemon front end adds the time each
//! job spent queued between the reactor and a worker. At scrape time the
//! shared [`SolveMemo`] and [`DaemonStats`] atomics are mirrored into
//! the same snapshot, so one read shows the whole system — request mix,
//! tail latencies, queue health, memo effectiveness, connection churn —
//! instead of three disjoint counter families.
//!
//! The HTTP endpoint dogfoods [`cj_net::EventLoop`] as a minimal
//! HTTP/1.0 server: one reactor thread, one request line per
//! connection, text exposition at `/metrics`, JSON at `/metrics.json`.

use crate::daemon::DaemonStats;
use crate::workspace::PassCounts;
use cj_net::{EventLoop, NetConfig, NetEvent, NetListener};
use cj_regions::incremental::SolveMemo;
use cj_trace::{MetricsRegistry, MetricsSnapshot};
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
        let pairs: [(&str, u32); 17] = [
            ("passes_parse", passes.parse),
            ("passes_typecheck", passes.typecheck),
            ("passes_infer", passes.infer),
            ("passes_check", passes.check),
            ("passes_run", passes.run),
            ("passes_lower", passes.lower),
            ("passes_methods_inferred", passes.methods_inferred),
            ("passes_methods_reused", passes.methods_reused),
            ("passes_methods_lowered", passes.methods_lowered),
            ("passes_methods_lower_reused", passes.methods_lower_reused),
            ("passes_sccs_solved", passes.sccs_solved),
            ("passes_sccs_reused", passes.sccs_reused),
            ("passes_sccs_shared_hits", passes.sccs_shared_hits),
            ("passes_sccs_disk_hits", passes.sccs_disk_hits),
            ("passes_extent_rewrites", passes.extent_rewrites),
            ("passes_rules_checked", passes.rules_checked),
            ("passes_policy_violations", passes.policy_violations),
        ];
        for (name, value) in pairs {
            self.registry.add(name, value as u64);
        }
    }

    /// Records the time one job spent queued between the reactor and a
    /// worker.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.registry
            .histogram("queue_wait_us")
            .record_duration(wait);
    }

    /// One unified snapshot: mirrors `uptime_ms` and — when available —
    /// the shared solve memo and the daemon's serving counters into the
    /// registry, then reads everything at once.
    pub fn snapshot(
        &self,
        memo: Option<&SolveMemo>,
        daemon: Option<&DaemonStats>,
    ) -> MetricsSnapshot {
        self.registry.set("uptime_ms", self.uptime_ms());
        if let Some(memo) = memo {
            self.registry.set("memo_entries", memo.len() as u64);
            self.registry.set("memo_hits", memo.hits());
            self.registry.set("memo_misses", memo.misses());
            self.registry.set("memo_shared_hits", memo.shared_hits());
            self.registry.set("memo_disk_hits", memo.disk_hits());
        }
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
    memo: Option<Arc<SolveMemo>>,
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
                                let snapshot =
                                    telemetry.snapshot(memo.as_deref(), daemon.as_deref());
                                let mut body = format!(
                                    "cjrc_info{{version=\"{}\"}} 1\n",
                                    Telemetry::version()
                                );
                                body.push_str(&snapshot.render_text());
                                http_response("200 OK", "text/plain; version=0.0.4", &body)
                            }
                            "/metrics.json" => {
                                telemetry.registry().add("metrics_scrapes", 1);
                                let snapshot =
                                    telemetry.snapshot(memo.as_deref(), daemon.as_deref());
                                let body = format!(
                                    "{{\"uptime_ms\":{},\"version\":\"{}\",\"metrics\":{}}}\n",
                                    telemetry.uptime_ms(),
                                    Telemetry::version(),
                                    snapshot.to_json()
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
