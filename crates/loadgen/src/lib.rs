//! # cj-loadgen — the serving-path load harness
//!
//! Replays synthetic `open`/`edit`/`check`/`query`/`policy` traffic
//! against a live `cjrcd` from **one** thread: every simulated client is
//! multiplexed over a single [`cj_net::EventLoop`] in client mode, the
//! mirror image of the daemon's event front end. That is what lets the
//! harness hold thousands of concurrent connections (and measure the
//! daemon doing the same) without a thousand threads of its own.
//!
//! Every client connects first; once **all** are connected (the daemon's
//! connection count is then at its high-water mark), each starts its
//! conversation. Within a connection each request waits for its response
//! — a client never has two requests in flight, matching the daemon's
//! one-request-per-connection pacing.
//!
//! Every response is validated against the request kind that produced it
//! (a `check` must come back `well-region-typed`, a `query` must carry
//! an abstraction, …); any mismatch, premature close, or read failure is
//! a **protocol error**, and the harness exists to prove that count is
//! zero at depth. Every script derives from [`LoadConfig::seed`], so a
//! run is reproducible end to end.
//!
//! The result is a [`LoadReport`]: latency percentiles per request kind,
//! aggregate request rate, and the connection high-water mark seen on
//! both sides, the daemon's scraped from a final `stats` probe. `cj-bench daemon` repeats runs and writes `BENCH_daemon.json`.

#![forbid(missing_docs)]

use cj_diag::json::{json_string, parse_json, Json};
use cj_net::{EventLoop, NetConfig, NetEvent, NetStream, Token};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

// ---- deterministic randomness ---------------------------------------------

/// A tiny splitmix64 generator: one `u64` of state, full 64-bit output,
/// good enough to diversify scripts reproducibly (this is a load
/// harness, not a cryptosystem).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` (any value, zero included).
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

// ---- the synthetic workload ------------------------------------------------

/// What kind of protocol request a script line is — the unit latency is
/// bucketed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `{"cmd":"open",...}` — introduce a file.
    Open,
    /// `{"cmd":"edit",...}` — replace a file (incremental recompile).
    Edit,
    /// `{"cmd":"check"}` — full region-check of the workspace.
    Check,
    /// `{"cmd":"query",...}` — read a solved abstraction from `Q`.
    Query,
    /// `{"cmd":"policy",...}` — enforce region-effect rules.
    Policy,
    /// `{"cmd":"shutdown"}` — connection-scope goodbye.
    Shutdown,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 6] = [
        Kind::Open,
        Kind::Edit,
        Kind::Check,
        Kind::Query,
        Kind::Policy,
        Kind::Shutdown,
    ];

    /// The report/JSON label.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Open => "open",
            Kind::Edit => "edit",
            Kind::Check => "check",
            Kind::Query => "query",
            Kind::Policy => "policy",
            Kind::Shutdown => "shutdown",
        }
    }
}

/// One scripted request: the kind (for bucketing and validation) and the
/// JSON line to send.
#[derive(Debug, Clone)]
pub struct Request {
    /// Which latency bucket and validator applies.
    pub kind: Kind,
    /// The protocol line (no trailing newline).
    pub line: String,
}

/// One shared library class plus consumer variants over it, so clients
/// drawing the same workload compile overlapping programs.
struct Workload {
    class_name: &'static str,
    lib: &'static str,
    consumers: [&'static str; 3],
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        class_name: "Cell",
        lib: "class Cell { Object item; Object get() { this.item } \
              void put(Object o) { this.item = o; } }",
        consumers: [
            "class M { static Object f(Cell c) { c.get() } }",
            "class M { static Object f(Cell c) { c.put(c.get()); c.get() } }",
            "class M { static Object f(Cell c) { Cell d = new Cell(null); \
              d.put(c.get()); d.get() } }",
        ],
    },
    Workload {
        class_name: "Pair",
        lib: "class Pair { Object fst; Object snd; Object first() { this.fst } \
              void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; } }",
        consumers: [
            "class M { static Object f(Pair p) { p.first() } }",
            "class M { static Object f(Pair p) { p.swap(); p.first() } }",
            "class M { static Object f(Pair p) { Pair q = new Pair(null, null); \
              q.swap(); q.first() } }",
        ],
    },
    Workload {
        class_name: "Box",
        lib: "class Box { Object v; Object take() { this.v } \
              void fill(Object o) { this.v = o; } }",
        consumers: [
            "class M { static Object f(Box b) { b.take() } }",
            "class M { static Object f(Box b) { b.fill(b.take()); b.take() } }",
            "class M { static Object f(Box b) { Box c = new Box(null); \
              c.fill(b.take()); c.take() } }",
        ],
    },
];

fn open_line(file: &str, text: &str) -> String {
    file_line("open", file, text)
}

fn edit_line(file: &str, text: &str) -> String {
    file_line("edit", file, text)
}

fn query_line(class: &str) -> String {
    format!("{{\"cmd\":\"query\",\"invariant\":{}}}", json_string(class))
}

fn policy_line(class: &str) -> String {
    let rules = format!("no-escape {class}");
    format!("{{\"cmd\":\"policy\",\"rules\":{}}}", json_string(&rules))
}

fn file_line(cmd: &str, file: &str, text: &str) -> String {
    format!(
        "{{\"cmd\":\"{cmd}\",\"file\":{},\"text\":{}}}",
        json_string(file),
        json_string(text)
    )
}

/// The deterministic conversation of client `id` under `seed`: open a
/// shared library and a consumer, check, query the library's invariant,
/// edit the consumer and re-check (the incremental path), enforce a
/// region-escape policy, sometimes test an entailment, and say goodbye.
pub fn client_script(seed: u64, id: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ (id as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let workload = &WORKLOADS[rng.below(WORKLOADS.len() as u64) as usize];
    let first = rng.below(3) as usize;
    let second = (first + 1 + rng.below(2) as usize) % 3;
    let mut script = vec![
        Request {
            kind: Kind::Open,
            line: open_line("lib.cj", workload.lib),
        },
        Request {
            kind: Kind::Open,
            line: open_line("main.cj", workload.consumers[first]),
        },
        Request {
            kind: Kind::Check,
            line: "{\"cmd\":\"check\"}".to_string(),
        },
        Request {
            kind: Kind::Query,
            line: query_line(workload.class_name),
        },
        Request {
            kind: Kind::Edit,
            line: edit_line("main.cj", workload.consumers[second]),
        },
        Request {
            kind: Kind::Check,
            line: "{\"cmd\":\"check\"}".to_string(),
        },
        Request {
            kind: Kind::Policy,
            line: policy_line(workload.class_name),
        },
    ];
    if rng.below(2) == 0 {
        script.push(Request {
            kind: Kind::Query,
            line: format!(
                "{{\"cmd\":\"query\",\"invariant\":{},\"entails\":\"r2>=r1\"}}",
                json_string(workload.class_name)
            ),
        });
    }
    script.push(Request {
        kind: Kind::Shutdown,
        line: "{\"cmd\":\"shutdown\"}".to_string(),
    });
    script
}

/// Whether `response` is a protocol-valid answer to a `kind` request:
/// a JSON object with `"ok":true` whose members have the kind's values.
/// Semantic outcomes that depend on the program (a policy verdict, an
/// entailment truth value) are accepted either way; malformed or
/// error-shaped responses are not — however their error text reads.
pub fn validate(kind: Kind, response: &str) -> bool {
    let Ok(reply) = parse_json(response) else {
        return false;
    };
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return false;
    }
    let status = reply.get_str("status");
    match kind {
        Kind::Open | Kind::Edit => true,
        Kind::Check => status == Some("well-region-typed"),
        Kind::Query => {
            reply.get_str("abs").is_some() || matches!(reply.get("entails"), Some(Json::Bool(_)))
        }
        Kind::Policy => status.is_some_and(|s| s.starts_with("policy-")),
        Kind::Shutdown => status == Some("bye"),
    }
}

// ---- configuration ---------------------------------------------------------

/// Tunables of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The live daemon to drive.
    pub addr: SocketAddr,
    /// How many simulated clients to run.
    pub clients: usize,
    /// Seed for every client's script.
    pub seed: u64,
}

/// A run that takes longer than this is a harness failure, not a daemon
/// bug.
const DEADLINE: Duration = Duration::from_secs(600);

// ---- the report ------------------------------------------------------------

/// Latency summary of one request kind, in microseconds.
#[derive(Debug, Clone)]
pub struct KindStats {
    /// Which request kind.
    pub kind: Kind,
    /// How many requests of this kind completed.
    pub count: usize,
    /// Median latency.
    pub p50_us: u64,
    /// 95th-percentile latency.
    pub p95_us: u64,
    /// 99th-percentile latency.
    pub p99_us: u64,
    /// Worst observed latency.
    pub max_us: u64,
}

/// The daemon's own view, scraped from a final `stats` probe.
#[derive(Debug, Clone, Default)]
pub struct DaemonSnapshot {
    /// Connections ever accepted.
    pub clients_served: u64,
    /// Connections turned away at the capacity bound.
    pub clients_rejected: u64,
    /// The daemon-side connection high-water mark.
    pub connections_peak: u64,
}

/// Server-side latency of one request kind, scraped from the daemon's
/// `request_us_<kind>` histogram.
#[derive(Debug, Clone)]
pub struct ServerKindStats {
    /// The protocol command (the daemon folds unknown ones into `other`).
    pub kind: String,
    /// Requests of this kind the daemon completed.
    pub count: u64,
    /// 99th-percentile handling latency as the daemon measured it.
    pub p99_us: u64,
}

/// The daemon's own latency view, scraped from a final `metrics` probe —
/// numbers the client-side samples cannot see, like how long requests
/// sat in the worker queue before anyone picked them up.
#[derive(Debug, Clone, Default)]
pub struct ServerMetrics {
    /// Requests the daemon completed, all kinds and connections.
    pub requests_total: u64,
    /// Jobs measured between enqueue and worker pickup.
    pub queue_wait_count: u64,
    /// Median queue wait, microseconds.
    pub queue_wait_p50_us: u64,
    /// 95th-percentile queue wait.
    pub queue_wait_p95_us: u64,
    /// 99th-percentile queue wait.
    pub queue_wait_p99_us: u64,
    /// Per-kind server-side latency, report order.
    pub per_kind: Vec<ServerKindStats>,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests completed (responses received and validated).
    pub requests: usize,
    /// Validation failures, premature closes, I/O errors.
    pub protocol_errors: usize,
    /// Completed requests per second over the request phase.
    pub requests_per_sec: f64,
    /// Harness-side connection high-water mark.
    pub peak_connections_local: usize,
    /// Per-kind latency summaries (kinds with traffic only).
    pub per_kind: Vec<KindStats>,
    /// The daemon's counters, if the `stats` probe succeeded.
    pub daemon: Option<DaemonSnapshot>,
    /// The daemon's own latency view, if the `metrics` probe succeeded.
    pub server: Option<ServerMetrics>,
}

/// Nearest-rank percentile over an already sorted sample, `p` in 0..=100.
pub fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

impl LoadReport {
    /// The largest p99 across all request kinds — what a smoke test
    /// bounds.
    pub fn worst_p99_us(&self) -> u64 {
        self.per_kind.iter().map(|k| k.p99_us).max().unwrap_or(0)
    }
}

// ---- the harness -----------------------------------------------------------

/// One simulated client's progress through its script.
struct SimClient {
    token: Option<Token>,
    script: Vec<Request>,
    /// Index of the request in flight (or next to send).
    next: usize,
    /// When the in-flight request was sent, if one is.
    sent_at: Option<Instant>,
    finished: bool,
}

/// The harness state while a run is in flight.
struct Harness<'a> {
    config: &'a LoadConfig,
    el: EventLoop,
    clients: Vec<SimClient>,
    by_token: HashMap<Token, usize>,
    finished: usize,
    samples: HashMap<Kind, Vec<u64>>,
    protocol_errors: usize,
    last_response: Option<Instant>,
}

/// Runs one full load against a live daemon and returns the report.
/// Harness-side failures (cannot connect, deadline exceeded) are `Err`;
/// daemon misbehavior is counted in [`LoadReport::protocol_errors`].
pub fn run(config: &LoadConfig) -> std::io::Result<LoadReport> {
    let el = EventLoop::client(NetConfig {
        max_clients: 0,
        idle_timeout: Duration::ZERO,
        max_line_bytes: 16 << 20,
    })?;
    let start = Instant::now();
    let mut harness = Harness {
        config,
        el,
        clients: (0..config.clients)
            .map(|id| SimClient {
                token: None,
                script: client_script(config.seed, id),
                next: 0,
                sent_at: None,
                finished: false,
            })
            .collect(),
        by_token: HashMap::new(),
        finished: 0,
        samples: HashMap::new(),
        protocol_errors: 0,
        last_response: None,
    };
    for id in 0..config.clients {
        harness.connect(id)?;
    }
    // Everyone is connected: the daemon's connection count is at its
    // high-water mark, and every client starts talking.
    let talk = Instant::now();
    for id in 0..config.clients {
        harness.send(id);
    }
    harness.drive(start)?;
    let phase = harness.last_response.map_or(Duration::ZERO, |t| t - talk);
    Ok(harness.into_report(phase))
}

impl Harness<'_> {
    fn connect(&mut self, id: usize) -> std::io::Result<()> {
        // Bursts can transiently overflow the listener backlog; retry
        // briefly before declaring the daemon unreachable.
        let mut delay = Duration::from_millis(1);
        let mut stream = None;
        for _ in 0..8 {
            match TcpStream::connect(self.config.addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(100));
                }
            }
        }
        let stream = match stream {
            Some(s) => s,
            None => TcpStream::connect(self.config.addr)?,
        };
        let token = self.el.add_stream(NetStream::Tcp(stream))?;
        self.by_token.insert(token, id);
        self.clients[id].token = Some(token);
        Ok(())
    }

    fn send(&mut self, id: usize) {
        let client = &mut self.clients[id];
        let (Some(token), Some(request)) = (client.token, client.script.get(client.next)) else {
            return;
        };
        let mut bytes = request.line.clone().into_bytes();
        bytes.push(b'\n');
        client.sent_at = Some(Instant::now());
        // `resume` re-arms line delivery paused by the previous response;
        // it is a no-op before the first one.
        self.el.send(token, &bytes);
        self.el.resume(token);
    }

    fn on_line(&mut self, token: Token, line: Vec<u8>) {
        let Some(&id) = self.by_token.get(&token) else {
            return;
        };
        let now = Instant::now();
        self.last_response = Some(now);
        let client = &mut self.clients[id];
        let Some(sent_at) = client.sent_at.take() else {
            // A response nothing asked for.
            self.protocol_errors += 1;
            return;
        };
        let kind = client.script[client.next].kind;
        let response = String::from_utf8_lossy(&line);
        let valid = validate(kind, response.trim_end());
        client.next += 1;
        if client.next >= client.script.len() {
            // Script complete; the daemon closes after the goodbye. Mark
            // done now so a well-behaved `Closed` is not an error.
            client.finished = true;
            self.finished += 1;
        }
        if valid {
            self.samples
                .entry(kind)
                .or_default()
                .push(now.duration_since(sent_at).as_micros() as u64);
        } else {
            self.protocol_errors += 1;
        }
        if !self.clients[id].finished {
            self.send(id);
        }
    }

    fn on_closed(&mut self, token: Token) {
        let Some(id) = self.by_token.remove(&token) else {
            return;
        };
        let client = &mut self.clients[id];
        client.token = None;
        if !client.finished {
            // The daemon hung up mid-script.
            self.protocol_errors += 1;
            client.finished = true;
            self.finished += 1;
        }
    }

    fn drive(&mut self, start: Instant) -> std::io::Result<()> {
        let mut events: Vec<NetEvent> = Vec::new();
        while self.finished < self.config.clients {
            if start.elapsed() > DEADLINE {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "load run exceeded its {:?} deadline ({} of {} clients done)",
                        DEADLINE, self.finished, self.config.clients
                    ),
                ));
            }
            events.clear();
            self.el.poll(&mut events, Duration::from_millis(50))?;
            for event in events.drain(..) {
                match event {
                    NetEvent::Line { token, line } => self.on_line(token, line),
                    NetEvent::Closed { token } => self.on_closed(token),
                    // Client mode: no listener, no idle clock.
                    NetEvent::Accepted { .. } | NetEvent::IdleExpired { .. } => {}
                }
            }
        }
        Ok(())
    }

    /// The report, with `phase` the time from the first request to the
    /// last response.
    fn into_report(self, phase: Duration) -> LoadReport {
        let mut per_kind = Vec::new();
        let mut requests = 0;
        for kind in Kind::ALL {
            let Some(mut samples) = self.samples.get(&kind).cloned() else {
                continue;
            };
            samples.sort_unstable();
            requests += samples.len();
            per_kind.push(KindStats {
                kind,
                count: samples.len(),
                p50_us: percentile(&samples, 50.0),
                p95_us: percentile(&samples, 95.0),
                p99_us: percentile(&samples, 99.0),
                max_us: *samples.last().unwrap_or(&0),
            });
        }
        let requests_per_sec = if phase.as_secs_f64() > 0.0 {
            requests as f64 / phase.as_secs_f64()
        } else {
            0.0
        };
        let daemon = probe_stats(self.config.addr).ok();
        let server = probe_metrics(self.config.addr).ok();
        LoadReport {
            requests,
            protocol_errors: self.protocol_errors,
            requests_per_sec,
            peak_connections_local: self.el.peak_connections(),
            per_kind,
            daemon,
            server,
        }
    }
}

// ---- the probes --------------------------------------------------------------

/// One extra blocking connection that sends `request`, reads the one-line
/// answer, and says goodbye.
fn probe(addr: SocketAddr, request: &str) -> std::io::Result<Json> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writeln!(writer, "{request}")?;
    writer.flush()?;
    let mut response = String::new();
    reader.read_line(&mut response)?;
    // Leave the daemon as we found it: a connection-scope goodbye.
    writeln!(writer, "{{\"cmd\":\"shutdown\"}}")?;
    writer.flush()?;
    let mut bye = String::new();
    let _ = reader.read_line(&mut bye);
    parse_json(response.trim_end()).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unparsable response to {request} ({e}): {response}"),
        )
    })
}

/// The member at a dotted key path (`"daemon.clients_served"`).
fn at<'a>(json: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(json, |v, key| v.get(key))
}

/// The integer at a dotted key path; 0 when absent.
fn u64_at(json: &Json, path: &str) -> u64 {
    match at(json, path) {
        Some(Json::Num(n)) => *n as u64,
        _ => 0,
    }
}

/// `probe` with `request`, requiring the member at `path` in the answer.
fn probe_for(addr: SocketAddr, request: &str, path: &str) -> std::io::Result<Json> {
    let json = probe(addr, request)?;
    match at(&json, path) {
        Some(_) => Ok(json),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("the answer to {request} has no `{path}`"),
        )),
    }
}

/// Asks the daemon for `stats` and scrapes the daemon-counter block out
/// of the answer.
pub fn probe_stats(addr: SocketAddr) -> std::io::Result<DaemonSnapshot> {
    let json = probe_for(addr, "{\"cmd\":\"stats\"}", "daemon")?;
    Ok(parse_stats_response(&json))
}

/// Asks the daemon for its `metrics` registry and scrapes the server-side
/// latency view out of the answer: the `queue_wait_us` histogram and every
/// per-kind `request_us_<kind>` p99 — numbers measured where the work
/// happened, to sit beside the harness's client-side samples.
pub fn probe_metrics(addr: SocketAddr) -> std::io::Result<ServerMetrics> {
    let json = probe_for(addr, "{\"cmd\":\"metrics\"}", "metrics.histograms")?;
    Ok(parse_metrics_response(&json))
}

/// The daemon counters of one `stats` response.
fn parse_stats_response(json: &Json) -> DaemonSnapshot {
    DaemonSnapshot {
        clients_served: u64_at(json, "daemon.clients_served"),
        clients_rejected: u64_at(json, "daemon.clients_rejected"),
        connections_peak: u64_at(json, "daemon.connections_peak"),
    }
}

/// The server-side view of one `metrics` response.
fn parse_metrics_response(json: &Json) -> ServerMetrics {
    let queue = "metrics.histograms.queue_wait_us";
    let mut metrics = ServerMetrics {
        requests_total: u64_at(json, "metrics.counters.requests_total"),
        queue_wait_count: u64_at(json, &format!("{queue}.count")),
        queue_wait_p50_us: u64_at(json, &format!("{queue}.p50_us")),
        queue_wait_p95_us: u64_at(json, &format!("{queue}.p95_us")),
        queue_wait_p99_us: u64_at(json, &format!("{queue}.p99_us")),
        ..ServerMetrics::default()
    };
    // Every `request_us_<kind>` histogram in report order; the set of
    // kinds is whatever the daemon actually served, not a fixed list.
    if let Some(Json::Obj(histograms)) = at(json, "metrics.histograms") {
        for (name, h) in histograms {
            if let Some(kind) = name.strip_prefix("request_us_") {
                metrics.per_kind.push(ServerKindStats {
                    kind: kind.to_string(),
                    count: u64_at(h, "count"),
                    p99_us: u64_at(h, "p99_us"),
                });
            }
        }
    }
    metrics
}

/// Asks the daemon at `addr` to shut itself down (daemon scope).
pub fn shutdown_daemon(addr: SocketAddr) -> std::io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writeln!(writer, "{{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}}")?;
    writer.flush()?;
    // The daemon may close before its goodbye is read; it is going down
    // either way.
    let mut bye = String::new();
    let _ = reader.read_line(&mut bye);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_and_scripts_are_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for id in 0..32 {
            let x = client_script(42, id);
            let y = client_script(42, id);
            assert_eq!(x.len(), y.len());
            for (p, q) in x.iter().zip(&y) {
                assert_eq!(p.kind, q.kind);
                assert_eq!(p.line, q.line);
            }
            assert_eq!(x.first().map(|r| r.kind), Some(Kind::Open));
            assert_eq!(x.last().map(|r| r.kind), Some(Kind::Shutdown));
        }
        // Different seeds move at least some clients to other workloads.
        let differs = (0..32).any(|id| {
            client_script(1, id)
                .iter()
                .zip(client_script(2, id).iter())
                .any(|(p, q)| p.line != q.line)
        });
        assert!(differs, "seed must influence the scripts");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&sorted, 0.0), 10);
        // Rank 4.5 rounds up: the estimator never understates the tail.
        assert_eq!(percentile(&sorted, 50.0), 60);
        assert_eq!(percentile(&sorted, 95.0), 100);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn stats_are_read_by_key_path() {
        // The daemon's keys also appear in a sibling block; each field is
        // read from its own object.
        let response = concat!(
            "{\"ok\":true,\"files\":[],\"passes_total\":{\"sccs_solved\":9},",
            "\"cache\":{\"clients_served\":77,\"connections_peak\":88},",
            "\"uptime_ms\":10,",
            "\"daemon\":{\"clients_served\":12,\"clients_rejected\":1,",
            "\"connections_current\":3,\"connections_peak\":7}}",
        );
        let s = parse_stats_response(&parse_json(response).unwrap());
        assert_eq!(
            (s.clients_served, s.clients_rejected, s.connections_peak),
            (12, 1, 7)
        );
    }

    #[test]
    fn metrics_scraping_is_block_scoped() {
        // `count` and `p99_us` repeat across sibling histograms, so each
        // is read by its path, not found by searching the whole
        // response.
        let response = concat!(
            "{\"ok\":true,\"uptime_ms\":1234,\"version\":\"0.1.0\",\"metrics\":",
            "{\"counters\":{\"requests_total\":42,\"metrics_scrapes\":1},",
            "\"histograms\":{",
            "\"queue_wait_us\":{\"count\":40,\"sum_us\":100,\"p50_us\":2,\"p95_us\":8,\"p99_us\":16},",
            "\"request_us_check\":{\"count\":10,\"sum_us\":90,\"p50_us\":4,\"p95_us\":16,\"p99_us\":32},",
            "\"request_us_open\":{\"count\":30,\"sum_us\":10,\"p50_us\":1,\"p95_us\":2,\"p99_us\":4}",
            "}}}",
        );
        let m = parse_metrics_response(&parse_json(response).unwrap());
        assert_eq!(m.requests_total, 42);
        assert_eq!(m.queue_wait_count, 40);
        assert_eq!(m.queue_wait_p50_us, 2);
        assert_eq!(m.queue_wait_p95_us, 8);
        assert_eq!(m.queue_wait_p99_us, 16);
        let kinds: Vec<(&str, u64, u64)> = m
            .per_kind
            .iter()
            .map(|k| (k.kind.as_str(), k.count, k.p99_us))
            .collect();
        assert_eq!(kinds, vec![("check", 10, 32), ("open", 30, 4)]);
    }

    #[test]
    fn validators_accept_the_real_response_shapes() {
        assert!(validate(Kind::Open, "{\"ok\":true,\"revision\":1}"));
        assert!(!validate(Kind::Open, "{\"ok\":false,\"error\":\"nope\"}"));
        assert!(validate(
            Kind::Check,
            "{\"ok\":true,\"status\":\"well-region-typed\"}"
        ));
        assert!(!validate(Kind::Check, "{\"ok\":true,\"status\":\"error\"}"));
        assert!(validate(
            Kind::Query,
            "{\"ok\":true,\"abs\":\"inv.Cell<r1>\"}"
        ));
        assert!(validate(Kind::Query, "{\"ok\":true,\"entails\":false}"));
        assert!(validate(
            Kind::Policy,
            "{\"ok\":true,\"status\":\"policy-ok\"}"
        ));
        assert!(validate(
            Kind::Policy,
            "{\"ok\":true,\"status\":\"policy-violations\"}"
        ));
        assert!(validate(Kind::Shutdown, "{\"ok\":true,\"status\":\"bye\"}"));
    }

    #[test]
    fn validators_read_members_not_substrings() {
        // Error replies whose message quotes a success shape, replies
        // whose members have the wrong types, and lines that are not JSON.
        let quoting = |text: &str| format!(r#"{{"ok":false,"error":{}}}"#, json_string(text));
        for (kind, reply) in [
            (Kind::Query, quoting(r#"bad "abs": here"#)),
            (Kind::Query, quoting(r#""entails":true"#)),
            (Kind::Check, quoting(r#""status":"well-region-typed""#)),
            (Kind::Policy, quoting(r#""status":"policy-ok""#)),
            (Kind::Shutdown, quoting(r#""status":"bye""#)),
            (Kind::Query, r#"{"ok":true,"abs":1}"#.to_string()),
            (Kind::Query, r#"{"ok":true,"entails":"yes"}"#.to_string()),
            (
                Kind::Check,
                r#"{"ok":true,"status":"well-region-typed""#.to_string(),
            ),
            (Kind::Open, r#"{"ok":"true"}"#.to_string()),
            (Kind::Open, r#"{"ok":true} trailing"#.to_string()),
        ] {
            assert!(!validate(kind, &reply), "{kind:?} accepted {reply}");
        }
    }

    #[test]
    fn every_workload_program_checks_cleanly() {
        // The scripts assert `well-region-typed`, so every (library,
        // consumer) pair must actually be a valid program — and the
        // query/policy lines must be answerable.
        use cj_driver::{Server, SessionOptions};
        for workload in &WORKLOADS {
            for consumer in &workload.consumers {
                let mut server = Server::new(SessionOptions::default());
                let open = server.handle_line(&open_line("lib.cj", workload.lib));
                assert!(open.contains("\"ok\":true"), "{open}");
                let open = server.handle_line(&open_line("main.cj", consumer));
                assert!(open.contains("\"ok\":true"), "{open}");
                let check = server.handle_line("{\"cmd\":\"check\"}");
                assert!(
                    check.contains("\"status\":\"well-region-typed\""),
                    "workload {} consumer `{consumer}`: {check}",
                    workload.class_name
                );
                let query = server.handle_line(&query_line(workload.class_name));
                assert!(query.contains("\"abs\":"), "{query}");
                let policy = server.handle_line(&policy_line(workload.class_name));
                assert!(policy.contains("\"status\":\"policy-"), "{policy}");
            }
        }
    }
}
