//! End-to-end tests for the `cjrcd` compile daemon: N concurrent socket
//! clients compiling overlapping programs must receive byte-identical
//! `check`/`annotate`/`query` answers to isolated sequential `Server`
//! sessions, pass counts included, a daemon-scope shutdown must drain
//! cleanly, and the backpressure and idle bounds must answer the clients
//! they turn away with structured errors.

#[path = "common/hostile.rs"]
mod hostile;

use cj_driver::{Daemon, DaemonConfig, Server, SessionOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const CELL: &str = "class Cell { Object item; Object get() { this.item } \
                    void put(Object o) { this.item = o; } }";

/// The request script of client `i`: the shared `cell.cj` plus a
/// client-specific consumer, then semantic queries.
fn script(i: usize) -> Vec<String> {
    let user = match i % 3 {
        0 => "class M { static Object f(Cell c) { c.get() } }",
        1 => "class M { static Object f(Cell c) { c.put(c.get()); c.get() } }",
        _ => {
            "class M { static Object f(Cell c) { Cell d = new Cell(null); \
              d.put(c.get()); d.get() } }"
        }
    };
    vec![
        format!(
            "{{\"cmd\":\"open\",\"file\":\"cell.cj\",\"text\":{}}}",
            cj_diag::json_string(CELL)
        ),
        format!(
            "{{\"cmd\":\"open\",\"file\":\"use.cj\",\"text\":{}}}",
            cj_diag::json_string(user)
        ),
        "{\"cmd\":\"check\"}".to_string(),
        "{\"cmd\":\"annotate\"}".to_string(),
        "{\"cmd\":\"query\",\"invariant\":\"Cell\"}".to_string(),
        "{\"cmd\":\"query\",\"invariant\":\"Cell\",\"entails\":\"r2>=r1\"}".to_string(),
        "{\"cmd\":\"query\",\"precondition\":\"f\"}".to_string(),
        "{\"cmd\":\"shutdown\"}".to_string(),
    ]
}

/// Runs a script against a live daemon over TCP, one response per line.
fn drive_tcp(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    lines
        .iter()
        .map(|line| {
            writeln!(writer, "{line}").expect("send request");
            writer.flush().expect("flush");
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            assert!(!response.is_empty(), "daemon closed early on `{line}`");
            response.trim_end().to_string()
        })
        .collect()
}

/// Runs the same script through an isolated in-process `Server`.
fn drive_isolated(lines: &[String]) -> Vec<String> {
    let mut server = Server::new(SessionOptions::default());
    lines.iter().map(|l| server.handle_line(l)).collect()
}

/// The full concurrent-clients e2e: the daemon must produce protocol
/// output byte-identical to isolated sessions.
#[test]
fn concurrent_clients_match_isolated_sessions() {
    let daemon = Daemon::bind_tcp(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 4,
            ..DaemonConfig::default()
        },
    )
    .expect("bind");
    let addr = daemon.local_addr().expect("tcp addr");
    let daemon_thread = std::thread::spawn(move || daemon.run().expect("daemon run"));

    // Phase 1: three clients connected and compiling at the same time.
    let mut clients = Vec::new();
    for i in 0..3 {
        clients.push(std::thread::spawn(move || (i, drive_tcp(addr, &script(i)))));
    }
    for handle in clients {
        let (i, got) = handle.join().expect("client thread");
        let want = drive_isolated(&script(i));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                g, w,
                "client {i}: daemon answer diverged from isolated session"
            );
        }
        // Sanity: the interesting answers actually appeared.
        assert!(got[2].contains("\"status\":\"well-region-typed\""));
        assert!(got[4].contains("\"abs\":\"inv.Cell<"));
        assert!(got[5].contains("\"entails\":true"));
    }

    // Phase 2: a fourth client arriving after the others answers like an
    // isolated session too, and its `stats` exposes the daemon counters
    // (how many clients, connection peak).
    let script4 = {
        let mut s = script(0);
        s.insert(s.len() - 1, "{\"cmd\":\"stats\"}".to_string());
        s
    };
    let got = drive_tcp(addr, &script4);
    let stats = &got[7];
    assert!(stats.contains("\"daemon\":{"), "{stats}");
    assert!(stats.contains("\"clients_served\":"), "{stats}");
    assert!(stats.contains("\"connections_peak\":"), "{stats}");
    // Byte-identical semantics for the late client too.
    let want = drive_isolated(&script(0));
    for (k, w) in want.iter().enumerate() {
        let g = if k < 7 { &got[k] } else { &got[k + 1] }; // skip stats
        if k == 7 {
            // shutdown response
            assert!(g.contains("\"status\":\"bye\""));
        } else {
            assert_eq!(g, w, "late client line {k}");
        }
    }

    // Phase 3: daemon-scope shutdown drains and joins cleanly.
    let bye = drive_tcp(
        addr,
        &["{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string()],
    );
    assert!(bye[0].contains("\"status\":\"bye\""), "{:?}", bye);
    let summary = daemon_thread.join().expect("daemon thread");
    assert_eq!(summary.clients_served, 5);
    assert!(
        summary.connections_peak >= 3,
        "three clients were connected at once, peak {}",
        summary.connections_peak
    );
}

/// Event front end: a client dripping a request one byte at a time (one
/// poller turn per byte) exercises torn-frame reassembly; the responses
/// must match a well-behaved client's byte for byte.
#[test]
fn event_frontend_reassembles_byte_dripped_requests() {
    let daemon = Daemon::bind_tcp("127.0.0.1:0", DaemonConfig::default()).expect("bind");
    let addr = daemon.local_addr().expect("tcp addr");
    let daemon_thread = std::thread::spawn(move || daemon.run().expect("daemon run"));

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let requests = vec![
        format!(
            "{{\"cmd\":\"open\",\"file\":\"cell.cj\",\"text\":{}}}",
            cj_diag::json_string(CELL)
        ),
        "{\"cmd\":\"check\"}".to_string(),
    ];
    let mut got = Vec::new();
    for request in &requests {
        for byte in request.as_bytes() {
            writer.write_all(std::slice::from_ref(byte)).expect("drip");
            writer.flush().expect("flush");
        }
        writer.write_all(b"\n").expect("terminate");
        writer.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        assert!(!response.is_empty(), "daemon closed early on `{request}`");
        got.push(response.trim_end().to_string());
    }
    assert!(
        got[1].contains("\"status\":\"well-region-typed\""),
        "{}",
        got[1]
    );
    let want = drive_isolated(&requests);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "dripped answer diverged");
    }
    drop(reader);
    drop(writer);

    let bye = drive_tcp(
        addr,
        &["{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string()],
    );
    assert!(bye[0].contains("\"status\":\"bye\""), "{bye:?}");
    daemon_thread.join().expect("daemon thread");
}

/// Event front end: several requests arriving in **one** TCP segment are
/// answered in order — the framer holds pipelined lines while a request
/// is in flight instead of dropping or reordering them.
#[test]
fn event_frontend_serves_pipelined_requests_in_order() {
    let daemon = Daemon::bind_tcp("127.0.0.1:0", DaemonConfig::default()).expect("bind");
    let addr = daemon.local_addr().expect("tcp addr");
    let daemon_thread = std::thread::spawn(move || daemon.run().expect("daemon run"));

    let requests = vec![
        format!(
            "{{\"cmd\":\"open\",\"file\":\"cell.cj\",\"text\":{}}}",
            cj_diag::json_string(CELL)
        ),
        "{\"cmd\":\"check\"}".to_string(),
        "{\"cmd\":\"query\",\"invariant\":\"Cell\"}".to_string(),
        "{\"cmd\":\"shutdown\"}".to_string(),
    ];
    let mut batch = String::new();
    for request in &requests {
        batch.push_str(request);
        batch.push('\n');
    }
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // The whole conversation in a single write: every request after the
    // first waits first in the framer, then behind the paused reader.
    writer.write_all(batch.as_bytes()).expect("send batch");
    writer.flush().expect("flush");
    let mut got = Vec::new();
    for request in &requests {
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        assert!(!response.is_empty(), "daemon closed early on `{request}`");
        got.push(response.trim_end().to_string());
    }
    let want = drive_isolated(&requests);
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "pipelined line {k}");
    }
    assert!(got[3].contains("\"status\":\"bye\""), "{}", got[3]);

    let bye = drive_tcp(
        addr,
        &["{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string()],
    );
    assert!(bye[0].contains("\"status\":\"bye\""), "{bye:?}");
    daemon_thread.join().expect("daemon thread");
}

/// Event front end: a half-open client (partial request, then silence)
/// is evicted by the idle clock with a structured goodbye — and while it
/// idles, a well-behaved client is served in full, proving the one event
/// thread is never pinned by the stalled connection.
#[test]
fn event_frontend_evicts_half_open_client_without_pinning() {
    let daemon = Daemon::bind_tcp(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 1,
            idle_timeout: Duration::from_millis(300),
            ..DaemonConfig::default()
        },
    )
    .expect("bind");
    let addr = daemon.local_addr().expect("tcp addr");
    let daemon_thread = std::thread::spawn(move || daemon.run().expect("daemon run"));

    // The half-open client: a torn request fragment, then silence. The
    // partial bytes must NOT reset the idle clock.
    let mut half_open = TcpStream::connect(addr).expect("half-open connect");
    half_open
        .write_all(b"{\"cmd\":\"chec")
        .expect("partial write");
    half_open.flush().expect("flush");

    // Meanwhile a full conversation completes on the same event thread.
    let got = drive_tcp(addr, &script(0));
    assert!(
        got[2].contains("\"status\":\"well-region-typed\""),
        "{}",
        got[2]
    );

    // The stalled client is told why it is being disconnected...
    half_open
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(half_open);
    let mut goodbye = String::new();
    reader.read_line(&mut goodbye).expect("idle goodbye");
    assert!(goodbye.contains("\"code\":\"idle\""), "{goodbye}");
    // ...and then actually disconnected.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0, "{rest}");

    let bye = drive_tcp(
        addr,
        &["{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string()],
    );
    assert!(bye[0].contains("\"status\":\"bye\""), "{bye:?}");
    let summary = daemon_thread.join().expect("daemon thread");
    assert_eq!(summary.clients_served, 3);
}

#[cfg(unix)]
#[test]
fn unix_socket_daemon_serves_and_shuts_down() {
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("cjrcd-test-{}.sock", std::process::id()));
    let daemon = Daemon::bind_unix(&path, DaemonConfig::default()).expect("bind unix");
    assert!(daemon.local_addr().is_none());
    assert!(daemon.describe_addr().starts_with("unix://"));
    let daemon_thread = std::thread::spawn(move || daemon.run().expect("daemon run"));

    let stream = UnixStream::connect(&path).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let requests = [
        format!(
            "{{\"cmd\":\"open\",\"file\":\"cell.cj\",\"text\":{}}}",
            cj_diag::json_string(CELL)
        ),
        "{\"cmd\":\"check\"}".to_string(),
        "{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string(),
    ];
    let mut responses = Vec::new();
    for line in &requests {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        responses.push(response);
    }
    assert!(responses[1].contains("\"status\":\"well-region-typed\""));
    assert!(responses[2].contains("\"status\":\"bye\""));
    let summary = daemon_thread.join().expect("daemon thread");
    assert_eq!(summary.clients_served, 1);
    let _ = std::fs::remove_file(&path);
}

/// The externally observable stop handle also ends the daemon (what a
/// supervising process would use instead of an in-band request).
#[test]
fn stop_handle_ends_the_accept_loop() {
    let daemon = Daemon::bind_tcp("127.0.0.1:0", DaemonConfig::default()).expect("bind");
    let stop = daemon.stop_handle();
    let handle = std::thread::spawn(move || daemon.run().expect("run"));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let summary = handle.join().expect("join");
    assert_eq!(summary.clients_served, 0);
}

/// A connected-but-silent client must not block a daemon-scope shutdown:
/// workers poll the stop flag between reads, so `run()` drains and
/// returns even while an idle connection is still open.
#[test]
fn idle_client_does_not_block_daemon_shutdown() {
    let daemon = Daemon::bind_tcp("127.0.0.1:0", DaemonConfig::default()).expect("bind");
    let addr = daemon.local_addr().expect("tcp addr");
    let daemon_thread = std::thread::spawn(move || daemon.run().expect("daemon run"));

    // The idle client: connects, sends nothing, and stays open.
    let _idle = TcpStream::connect(addr).expect("idle connect");
    let bye = drive_tcp(
        addr,
        &["{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string()],
    );
    assert!(bye[0].contains("\"status\":\"bye\""), "{bye:?}");
    let summary = daemon_thread
        .join()
        .expect("daemon must not hang on the idle client");
    assert_eq!(summary.clients_served, 2);
}

/// Both engines are selectable per request over the wire and agree on
/// the answer, and an unknown engine — the retired stack VM's `vm`
/// included — comes back as a *coded* structured error, not a silent
/// fallback to the default engine and not a bare prose string.
#[test]
fn run_requests_select_engines_and_reject_unknown_ones() {
    let daemon = Daemon::bind_tcp("127.0.0.1:0", DaemonConfig::default()).expect("bind");
    let addr = daemon.local_addr().expect("tcp addr");
    let daemon_thread = std::thread::spawn(move || daemon.run().expect("daemon run"));

    let responses = drive_tcp(
        addr,
        &[
            "{\"cmd\":\"open\",\"file\":\"m.cj\",\"text\":\"class M { static int main(int n) { \
             int acc = 0; int i = 0; while (i < n) { acc = acc + i; i = i + 1; } acc } }\"}"
                .to_string(),
            "{\"cmd\":\"run\",\"args\":[100],\"engine\":\"rvm\"}".to_string(),
            "{\"cmd\":\"run\",\"args\":[100],\"engine\":\"interp\"}".to_string(),
            "{\"cmd\":\"run\",\"args\":[100],\"engine\":\"jit\"}".to_string(),
            "{\"cmd\":\"run\",\"args\":[100],\"engine\":\"vm\"}".to_string(),
            "{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string(),
        ],
    );
    for (resp, engine) in responses[1..=2].iter().zip(["rvm", "interp"]) {
        assert!(resp.contains("\"ok\":true"), "[{engine}] {resp}");
        assert!(resp.contains("\"result\":\"4950\""), "[{engine}] {resp}");
        assert!(
            resp.contains(&format!("\"engine\":\"{engine}\"")),
            "[{engine}] {resp}"
        );
    }
    for (bad, engine) in responses[3..=4].iter().zip(["jit", "vm"]) {
        assert!(bad.contains("\"ok\":false"), "{bad}");
        assert!(bad.contains("\"code\":\"unknown-engine\""), "{bad}");
        assert!(bad.contains(&format!("unknown engine `{engine}`")), "{bad}");
    }
    daemon_thread.join().expect("daemon drains");
}

/// A protocol line of a million `[` gets an ordinary error reply instead
/// of overflowing the request parser's stack (which would abort the
/// daemon for every client), and the daemon keeps serving other
/// connections.
#[test]
fn deeply_nested_line_is_answered_and_the_daemon_keeps_serving() {
    let daemon = Daemon::bind_tcp("127.0.0.1:0", DaemonConfig::default()).expect("bind");
    let addr = daemon.local_addr().expect("tcp addr");
    let daemon_thread = std::thread::spawn(move || daemon.run().expect("daemon run"));

    let deep = drive_tcp(addr, &["[".repeat(1_000_000)]);
    assert!(deep[0].contains("\"ok\":false"), "{}", deep[0]);
    assert!(deep[0].contains("nesting deeper than"), "{}", deep[0]);
    let next = drive_tcp(
        addr,
        &[
            "{\"cmd\":\"stats\"}".to_string(),
            "{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string(),
        ],
    );
    assert!(next[0].contains("\"ok\":true"), "{}", next[0]);
    assert!(next[1].contains("\"status\":\"bye\""), "{}", next[1]);
    daemon_thread.join().expect("daemon drains");
}

/// A typo'd shutdown scope must be an error, not a connection-scope
/// shutdown the client mistakes for a daemon stop.
#[test]
fn unknown_shutdown_scope_is_rejected() {
    let mut server = Server::new(SessionOptions::default());
    let resp = server.handle_line("{\"cmd\":\"shutdown\",\"scope\":\"Daemon\"}");
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("unknown shutdown scope"), "{resp}");
    assert!(
        !server.is_done(),
        "a rejected shutdown must not stop the session"
    );
    let resp = server.handle_line("{\"cmd\":\"shutdown\",\"scope\":\"connection\"}");
    assert!(resp.contains("\"status\":\"bye\""), "{resp}");
    assert!(server.is_done());
}

/// One persistent protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn ask(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("a reply");
        assert!(!reply.is_empty(), "connection closed instead of replying");
        reply
    }
}

/// Hostile compiles on a one-worker daemon (a 2 MiB worker stack):
/// 30,000-item blocks and calls check, input nested far past the parser's
/// budget is diagnosed, another client is served between them, and a
/// daemon-scope shutdown then completes.
#[test]
fn hostile_programs_are_answered_while_other_clients_are_served() {
    let config = DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = daemon.local_addr().expect("tcp addr");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(daemon.run().is_ok()));
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);

    let long = hostile::long_programs(30_000)
        .into_iter()
        .map(|p| (p, true));
    let deep = hostile::deep_programs(30_000)
        .into_iter()
        .map(|p| (p, false));
    for ((name, src), legal) in long.chain(deep) {
        let open = format!(
            "{{\"cmd\":\"open\",\"file\":\"hostile.cj\",\"text\":{}}}",
            cj_diag::json_string(&src)
        );
        assert!(a.ask(&open).contains("\"ok\":true"), "{name}: open");
        let reply = a.ask("{\"cmd\":\"check\"}");
        if legal {
            assert!(reply.contains("well-region-typed"), "{name}: {reply}");
        } else {
            assert!(reply.contains("nesting too deep"), "{name}: {reply}");
        }
        let stats = b.ask("{\"cmd\":\"stats\"}");
        assert!(stats.contains("\"ok\":true"), "{name}: {stats}");
    }
    let bye = b.ask("{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}");
    assert!(bye.contains("\"status\":\"bye\""), "{bye}");
    assert_eq!(done_rx.recv_timeout(Duration::from_secs(60)), Ok(true));
}

#[test]
fn over_limit_connections_get_a_structured_reject() {
    let daemon = Daemon::bind_tcp(
        "127.0.0.1:0",
        DaemonConfig {
            max_clients: 1,
            workers: 2,
            ..DaemonConfig::default()
        },
    )
    .expect("bind");
    let addr = daemon.local_addr().unwrap();
    let handle = std::thread::spawn(move || daemon.run().expect("run"));

    // Client 1 occupies the single slot (and proves it is being served).
    let held = TcpStream::connect(addr).expect("client 1");
    let mut reader = BufReader::new(held.try_clone().unwrap());
    let mut writer = held;
    writeln!(writer, "{{\"cmd\":\"stats\"}}").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");

    // Client 2 must be rejected immediately — a structured JSON error,
    // not a hang in the accept queue.
    let rejected = TcpStream::connect(addr).expect("client 2");
    let mut reader = BufReader::new(rejected);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reject");
    assert!(line.contains("\"ok\":false"), "{line}");
    assert!(line.contains("\"code\":\"capacity\""), "{line}");
    assert!(
        line.contains("daemon at capacity (1 active client)"),
        "{line}"
    );
    let mut eof = String::new();
    assert_eq!(
        reader.read_line(&mut eof).unwrap(),
        0,
        "rejected connection must be closed"
    );

    // Client 1 ends; the slot frees up and a new client is served again.
    writeln!(writer, "{{\"cmd\":\"shutdown\"}}").unwrap();
    writer.flush().unwrap();
    line.clear();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\":\"bye\""), "{line}");
    drop((reader, writer));
    // The slot is released by the worker *after* the connection ends;
    // poll briefly instead of racing it.
    let mut served = None;
    for _ in 0..100 {
        let probe = TcpStream::connect(addr).expect("client 3");
        let mut reader = BufReader::new(probe.try_clone().unwrap());
        let mut writer = probe;
        writeln!(writer, "{{\"cmd\":\"stats\"}}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.contains("\"ok\":true") {
            served = Some((reader, writer));
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (mut reader, mut writer) = served.expect("slot must free after client 1 left");
    writeln!(writer, "{{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}}").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let summary = handle.join().unwrap();
    assert!(summary.clients_rejected >= 1, "{summary:?}");
}

/// A client that drips bytes without ever completing a line must hit the
/// idle bound exactly like a silent one — received bytes that complete
/// no request do not restart the idle clock — so it cannot hold its
/// connection slot indefinitely.
#[test]
fn byte_dripping_clients_hit_the_idle_bound_too() {
    let daemon = Daemon::bind_tcp(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 1,
            idle_timeout: Duration::from_millis(300),
            ..DaemonConfig::default()
        },
    )
    .expect("bind");
    let addr = daemon.local_addr().unwrap();
    let handle = std::thread::spawn(move || daemon.run().expect("run"));

    // The dripper: one byte every 40ms, never a newline.
    let dripper = TcpStream::connect(addr).expect("dripper");
    let mut drip_half = dripper.try_clone().unwrap();
    let dripping = std::thread::spawn(move || {
        for _ in 0..50 {
            if drip_half.write_all(b"x").is_err() {
                break;
            }
            let _ = drip_half.flush();
            std::thread::sleep(Duration::from_millis(40));
        }
    });

    // The dripper holds no worker: another client is served meanwhile.
    let got = drive_tcp(addr, &["{\"cmd\":\"stats\"}".to_string()]);
    assert!(got[0].contains("\"ok\":true"), "{}", got[0]);

    dripper
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(dripper);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"code\":\"idle\""), "{line}");
    dripping.join().unwrap();
    shut_down(addr);
    handle.join().unwrap();
}

/// Sends a daemon-scope shutdown on a fresh connection.
fn shut_down(addr: std::net::SocketAddr) {
    let bye = drive_tcp(
        addr,
        &["{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string()],
    );
    assert!(bye[0].contains("\"status\":\"bye\""), "{bye:?}");
}

#[test]
fn idle_clients_are_evicted_and_release_their_worker() {
    let daemon = Daemon::bind_tcp(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 1,
            idle_timeout: Duration::from_millis(300),
            ..DaemonConfig::default()
        },
    )
    .expect("bind");
    let addr = daemon.local_addr().unwrap();
    let handle = std::thread::spawn(move || daemon.run().expect("run"));

    // The stalled client: connects, sends half a line, then nothing. It
    // never holds the only worker: a request occupies a worker, a
    // connection does not.
    let stalled = TcpStream::connect(addr).expect("stalled client");
    let mut half = stalled.try_clone().unwrap();
    write!(half, "{{\"cmd\":\"st").unwrap();
    half.flush().unwrap();

    // A well-behaved client connects behind it and is served at once.
    let got = drive_tcp(addr, &["{\"cmd\":\"stats\"}".to_string()]);
    assert!(got[0].contains("\"ok\":true"), "{}", got[0]);

    // The stalled client is told why it was dropped, then disconnected.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stalled);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"code\":\"idle\""), "{line}");
    assert!(line.contains("idle timeout"), "{line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then EOF");
    shut_down(addr);
    handle.join().unwrap();
}
