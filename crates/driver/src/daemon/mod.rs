//! `cjrcd` — the multi-client compile daemon behind `cjrc daemon`.
//!
//! A [`Daemon`] listens on a TCP or Unix-domain socket and speaks the
//! `cjrc serve` JSON-lines protocol ([`crate::server`]) *per connection*:
//! every client gets its own [`crate::server::Server`] over its own
//! [`crate::workspace::Workspace`] (private files, revisions and pass
//! counters). Clients share no compiler state: each compile infers from
//! its own workspace's kernel, so a client's replies are the ones an
//! isolated `cjrc serve` session gives for the same requests.
//!
//! # Front end
//!
//! **One event thread** multiplexes every connection through a
//! readiness-driven reactor ([`cj_net::EventLoop`] — epoll on Linux,
//! `poll(2)` elsewhere). Sockets are nonblocking; request lines are
//! framed incrementally by the bounded [`cj_net::LineFramer`] as bytes
//! arrive and handed to a worker pool, and responses flow back over a
//! wakeup pipe with write-side backpressure. Thousands of mostly-idle
//! editor connections cost one thread plus per-connection buffers.
//!
//! # Production hardening
//!
//! - **Backpressure** ([`DaemonConfig::max_clients`]): connections beyond
//!   the in-flight bound receive a structured
//!   `{"ok":false,...,"code":"capacity"}` line and are closed, instead of
//!   hanging in the accept queue.
//! - **Idle eviction** ([`DaemonConfig::idle_timeout`]): a client that
//!   completes no request within the bound is told
//!   (`{"ok":false,...,"code":"idle"}`) and disconnected, so a stalled or
//!   half-open peer cannot leak a connection slot.
//!
//! # Connection lifecycle
//!
//! 1. connect (TCP `host:port` or Unix socket path);
//! 2. send one JSON request per line, read one JSON response per line —
//!    exactly the `serve` protocol (`open`/`edit`/`close`/`check`/
//!    `annotate`/`run`/`query`/`stats`/`shutdown`);
//! 3. `{"cmd":"shutdown"}` (or EOF) ends the connection; the daemon keeps
//!    running;
//! 4. `{"cmd":"shutdown","scope":"daemon"}` ends the connection **and**
//!    stops the daemon: the accept loop exits, in-flight requests are
//!    drained, workers join, and [`Daemon::run`] returns.
//!
//! # Example (in-process)
//!
//! ```no_run
//! use cj_driver::{Daemon, DaemonConfig};
//!
//! let daemon = Daemon::bind_tcp("127.0.0.1:0", DaemonConfig::default()).unwrap();
//! println!("listening on {}", daemon.describe_addr());
//! let summary = daemon.run().unwrap(); // until a daemon-scope shutdown
//! println!("served {} clients", summary.clients_served);
//! ```

mod event;

use crate::server::Server;
use crate::workspace::SessionOptions;
use cj_diag::json::{json_string, parse_json};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Default session (inference + runtime) options for every client;
    /// requests may still override `mode`/`downcast` per call.
    pub opts: SessionOptions,
    /// Worker threads executing requests. Connections are not tied to
    /// workers; only CPU-bound request handling queues here.
    pub workers: usize,
    /// Backpressure bound: with more than this many connections in
    /// flight, further ones are rejected immediately with a structured
    /// JSON error instead of hanging in the accept queue. 0 = unbounded.
    pub max_clients: usize,
    /// Per-connection idle bound: a client that completes no request for
    /// this long is disconnected (with a structured JSON error).
    /// [`Duration::ZERO`] disables eviction.
    pub idle_timeout: Duration,
    /// TCP address of the HTTP metrics scrape endpoint (`GET /metrics`,
    /// `GET /metrics.json`), e.g. `"127.0.0.1:9464"`. `None` = no
    /// endpoint. Served by its own [`cj_net::EventLoop`] reactor thread,
    /// independent of the protocol front end.
    pub metrics_addr: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            opts: SessionOptions::default(),
            workers: 4,
            max_clients: 0,
            idle_timeout: Duration::from_secs(600),
            metrics_addr: None,
        }
    }
}

/// Live serving counters shared between the front end and every
/// connection's `Server`, so the `stats` command reports the daemon's
/// serving health alongside compilation statistics.
#[derive(Debug)]
pub struct DaemonStats {
    clients_served: AtomicU64,
    clients_rejected: AtomicU64,
    connections_current: AtomicU64,
    connections_peak: AtomicU64,
}

impl DaemonStats {
    fn new() -> DaemonStats {
        DaemonStats {
            clients_served: AtomicU64::new(0),
            clients_rejected: AtomicU64::new(0),
            connections_current: AtomicU64::new(0),
            connections_peak: AtomicU64::new(0),
        }
    }

    fn record_accept(&self) {
        self.clients_served.fetch_add(1, Ordering::Relaxed);
        let now = self.connections_current.fetch_add(1, Ordering::SeqCst) + 1;
        self.connections_peak.fetch_max(now, Ordering::SeqCst);
    }

    fn record_reject(&self) {
        self.clients_rejected.fetch_add(1, Ordering::Relaxed);
    }

    fn record_close(&self) {
        self.connections_current.fetch_sub(1, Ordering::SeqCst);
    }

    /// Connections accepted (and handed to the protocol layer) so far.
    pub fn clients_served(&self) -> u64 {
        self.clients_served.load(Ordering::Relaxed)
    }

    /// Connections turned away by the `max_clients` bound so far.
    pub fn clients_rejected(&self) -> u64 {
        self.clients_rejected.load(Ordering::Relaxed)
    }

    /// Connections open right now.
    pub fn connections_current(&self) -> u64 {
        self.connections_current.load(Ordering::SeqCst)
    }

    /// The concurrent-connection high-water mark.
    pub fn connections_peak(&self) -> u64 {
        self.connections_peak.load(Ordering::SeqCst)
    }

    /// The `stats` response's `"daemon"` object.
    pub(crate) fn to_json(&self) -> String {
        ServingReport {
            clients_served: self.clients_served(),
            clients_rejected: self.clients_rejected(),
            connections_current: Some(self.connections_current()),
            connections_peak: self.connections_peak(),
        }
        .to_json()
    }
}

/// The one serializer behind every daemon serving-counter report: the
/// `stats` response's `"daemon"` object (live, with
/// `connections_current`) and the `cjrc daemon --json` exit summary
/// (final). One code path keeps the shared field names from drifting
/// apart.
#[derive(Debug, Clone, Copy)]
struct ServingReport {
    clients_served: u64,
    clients_rejected: u64,
    connections_current: Option<u64>,
    connections_peak: u64,
}

impl ServingReport {
    fn to_json(self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{{\"clients_served\":{},\"clients_rejected\":{}",
            self.clients_served, self.clients_rejected
        );
        if let Some(current) = self.connections_current {
            let _ = write!(out, ",\"connections_current\":{current}");
        }
        let _ = write!(out, ",\"connections_peak\":{}}}", self.connections_peak);
        out
    }
}

/// What a finished daemon reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Connections accepted over the daemon's lifetime.
    pub clients_served: u64,
    /// Connections rejected by the `max_clients` backpressure bound.
    pub clients_rejected: u64,
    /// The concurrent-connection high-water mark.
    pub connections_peak: u64,
}

impl DaemonSummary {
    /// The `cjrc daemon --json` exit-summary line (same serializer as the
    /// `stats` response's `"daemon"` object).
    pub fn to_json(&self) -> String {
        ServingReport {
            clients_served: self.clients_served,
            clients_rejected: self.clients_rejected,
            connections_current: None,
            connections_peak: self.connections_peak,
        }
        .to_json()
    }
}

pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// The socket front end multiplexing many `serve`-protocol clients. See
/// the module docs.
pub struct Daemon {
    listener: Listener,
    config: DaemonConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<DaemonStats>,
    telemetry: Arc<crate::telemetry::Telemetry>,
    metrics_listener: Option<TcpListener>,
}

impl Daemon {
    /// Binds a TCP daemon (use port `0` to let the OS pick; read the
    /// result back with [`local_addr`](Daemon::local_addr)).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind_tcp(addr: &str, config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        Daemon::over(Listener::Tcp(listener), config)
    }

    /// Binds a Unix-domain-socket daemon at `path` (removed first if a
    /// stale socket file is present).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    #[cfg(unix)]
    pub fn bind_unix(path: &std::path::Path, config: DaemonConfig) -> std::io::Result<Daemon> {
        use std::os::unix::fs::FileTypeExt as _;
        if let Ok(meta) = std::fs::symlink_metadata(path) {
            if !meta.file_type().is_socket() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    format!("refusing to replace non-socket file `{}`", path.display()),
                ));
            }
            if UnixStream::connect(path).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("a daemon is already listening on `{}`", path.display()),
                ));
            }
            // A socket nothing answers on: stale leftover, safe to reclaim.
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        Daemon::over(Listener::Unix(listener), config)
    }

    fn over(listener: Listener, config: DaemonConfig) -> std::io::Result<Daemon> {
        let stats = Arc::new(DaemonStats::new());
        // Bind the scrape endpoint eagerly so `--metrics-addr` failures
        // surface at startup, and port 0 can be read back before `run`.
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        Ok(Daemon {
            listener,
            config,
            stop: Arc::new(AtomicBool::new(false)),
            stats,
            telemetry: Arc::new(crate::telemetry::Telemetry::new()),
            metrics_listener,
        })
    }

    /// The bound TCP address (`None` for a Unix-socket daemon).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(_) => None,
        }
    }

    /// A printable form of the listening address (`tcp://…` /  `unix://…`).
    pub fn describe_addr(&self) -> String {
        match &self.listener {
            Listener::Tcp(l) => match l.local_addr() {
                Ok(a) => format!("tcp://{a}"),
                Err(_) => "tcp://<unknown>".to_string(),
            },
            #[cfg(unix)]
            Listener::Unix(l) => match l.local_addr() {
                Ok(a) => match a.as_pathname() {
                    Some(p) => format!("unix://{}", p.display()),
                    None => "unix://<unnamed>".to_string(),
                },
                Err(_) => "unix://<unknown>".to_string(),
            },
        }
    }

    /// A handle that stops the accept loop when set (the in-band
    /// alternative is a `{"cmd":"shutdown","scope":"daemon"}` request).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The bound address of the HTTP metrics endpoint (`None` unless
    /// [`DaemonConfig::metrics_addr`] was set).
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Serves connections until a daemon-scope shutdown arrives (or the
    /// [`stop_handle`](Daemon::stop_handle) is set), then drains
    /// in-flight work, joins every worker and returns.
    ///
    /// # Errors
    ///
    /// Fatal listener/poller errors; individual connection I/O errors
    /// only terminate that connection.
    pub fn run(mut self) -> std::io::Result<DaemonSummary> {
        // The HTTP scrape endpoint runs on its own reactor thread for the
        // daemon's whole lifetime, beside the protocol front end.
        let metrics_thread = match self.metrics_listener.take() {
            Some(listener) => Some(crate::telemetry::spawn_metrics_endpoint(
                listener,
                Arc::clone(&self.telemetry),
                Some(Arc::clone(&self.stats)),
                Arc::clone(&self.stop),
            )?),
            None => None,
        };
        let fatal = event::serve(&self, Server::handle_line).err();
        // Unblock the metrics endpoint's poll loop even on a fatal
        // listener error.
        self.stop.store(true, Ordering::SeqCst);
        if let Some(metrics_thread) = metrics_thread {
            let _ = metrics_thread.join();
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(DaemonSummary {
                clients_served: self.stats.clients_served(),
                clients_rejected: self.stats.clients_rejected(),
                connections_peak: self.stats.connections_peak(),
            }),
        }
    }
}

/// The backpressure reject line — the same `{"ok":false,...}` shape every
/// protocol error uses, plus a machine-readable `"code"` so clients can
/// distinguish "retry later" from a malformed request.
fn capacity_reject_line(limit: usize) -> String {
    let error = format!(
        "daemon at capacity ({limit} active client{}); retry later",
        if limit == 1 { "" } else { "s" }
    );
    format!(
        "{{\"ok\":false,\"error\":{},\"code\":\"capacity\"}}",
        json_string(&error)
    )
}

/// The idle-eviction goodbye line.
fn idle_goodbye_line(idle_timeout: Duration) -> String {
    let error = format!(
        "idle timeout: no request completed in {}s",
        idle_timeout.as_secs_f64()
    );
    format!(
        "{{\"ok\":false,\"error\":{},\"code\":\"idle\"}}",
        json_string(&error)
    )
}

/// Whether a request line asks for a daemon-scope shutdown.
fn is_daemon_shutdown(line: &str) -> bool {
    parse_json(line).is_ok_and(|req| {
        req.get_str("cmd") == Some("shutdown") && req.get_str("scope") == Some("daemon")
    })
}

/// Largest accepted request line. Workspace files are capped at 1 MiB,
/// so even a fully escaped `open` fits comfortably; anything bigger is a
/// protocol violation (or an attack) and must not grow worker memory.
pub(crate) const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Decodes a request line for the protocol layer: move in the
/// (overwhelmingly common) valid-UTF-8 case, lossy copy only for a
/// malformed client.
fn decode_request(line: Vec<u8>) -> String {
    match String::from_utf8(line) {
        Ok(s) => s,
        Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
    }
}
