//! The event-loop front end: **one** reactor thread
//! ([`cj_net::EventLoop`]) multiplexes every connection — nonblocking
//! accept, incremental line framing, write-side backpressure — while
//! decoded requests run on a worker pool. Workers push responses back
//! through a [`NetHandle`] (an mpsc command queue plus a wakeup pipe into
//! the poller).
//!
//! Per connection the reactor delivers at most one request at a time
//! (pipelined bytes wait in the framer, then in the kernel), so each
//! connection's `Server` is accessed serially even though ownership
//! hops between the event thread and workers — the `Mutex` around it is
//! uncontended by construction.
//!
//! Shutdown: a daemon-scope request sets the stop flag from the worker
//! (before its response is queued); the reactor keeps turning until no
//! request is in flight, then flushes pending responses — the shutdown
//! acknowledgement included — under a bounded grace period, closes every
//! connection and joins the pool.
//!
//! A request whose handler panics is answered with
//! `{"ok":false,...,"code":"internal"}` and only its connection is
//! closed: the worker, the in-flight count and every other client carry
//! on.

use super::{
    capacity_reject_line, decode_request, idle_goodbye_line, is_daemon_shutdown, Daemon, Listener,
    MAX_REQUEST_BYTES,
};
use crate::server::Server;
use cj_diag::json::json_string;
use cj_net::{EventLoop, NetConfig, NetEvent, NetHandle, NetListener, Token};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A worker's per-request step: the protocol handler of the connection's
/// `Server` ([`Server::handle_line`] in the daemon).
pub(super) type Handler = fn(&mut Server, &str) -> String;

/// One decoded request bound for the worker pool.
struct Job {
    token: Token,
    server: Arc<Mutex<Server>>,
    request: String,
    /// When the reactor queued this job — the worker charges the gap to
    /// the `queue_wait_us` histogram (and, under tracing, a
    /// cross-thread `queue-wait` interval).
    enqueued: Instant,
}

/// Releases one in-flight request when dropped — also when its handler
/// panicked — and wakes the reactor to re-check for a drained stop.
struct InFlight<'a> {
    count: &'a AtomicUsize,
    net: &'a NetHandle,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::SeqCst);
        self.net.wake();
    }
}

/// The reply to a request whose handler panicked.
fn internal_error_line(panic: &(dyn std::any::Any + Send)) -> String {
    let what = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic");
    let error = format!("internal error: request handler panicked: {what}");
    format!(
        "{{\"ok\":false,\"error\":{},\"code\":\"internal\"}}",
        json_string(&error)
    )
}

/// The reactor loop, answering each request through `handler`. See the
/// module docs.
pub(super) fn serve(daemon: &Daemon, handler: Handler) -> std::io::Result<()> {
    // The reactor owns a dup of the listener fd; the `Daemon` keeps its
    // original for `local_addr`/`describe_addr`.
    let net_listener = match &daemon.listener {
        Listener::Tcp(l) => NetListener::Tcp(l.try_clone()?),
        #[cfg(unix)]
        Listener::Unix(l) => NetListener::Unix(l.try_clone()?),
    };
    let net_config = NetConfig {
        max_clients: daemon.config.max_clients,
        idle_timeout: daemon.config.idle_timeout,
        max_line_bytes: MAX_REQUEST_BYTES,
    };
    let mut el = EventLoop::new(net_listener, net_config)?;
    let handle = el.handle();

    // The worker pool: the unit of work is one request, not one
    // connection's lifetime.
    let (jtx, jrx) = mpsc::channel::<Job>();
    let jrx = Arc::new(Mutex::new(jrx));
    let workers = daemon.config.workers.max(1);
    // Requests queued or executing. The reactor refuses to stop while
    // any are pending, so a drain never abandons an in-flight response.
    let in_flight = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let jrx = Arc::clone(&jrx);
        let stop = Arc::clone(&daemon.stop);
        let in_flight = Arc::clone(&in_flight);
        let telemetry = Arc::clone(&daemon.telemetry);
        let handle: NetHandle = handle.clone();
        handles.push(std::thread::spawn(move || loop {
            let job = jrx.lock().expect("daemon job queue poisoned").recv();
            let Ok(Job {
                token,
                server,
                request,
                enqueued,
            }) = job
            else {
                break; // reactor gone, queue drained
            };
            // Dropped last: the reactor may only observe "no work in
            // flight" once the response commands below are queued.
            let _in_flight = InFlight {
                count: &in_flight,
                net: &handle,
            };
            telemetry.record_queue_wait(enqueued.elapsed());
            cj_trace::record_interval("daemon", "queue-wait", enqueued);
            let daemon_stop = is_daemon_shutdown(&request);
            let (response, done) = {
                let _span = cj_trace::span("daemon", "worker-handle");
                let step = catch_unwind(AssertUnwindSafe(|| {
                    let mut server = server.lock().expect("connection server poisoned");
                    let response = handler(&mut server, request.trim_end_matches(['\n', '\r']));
                    (response, server.is_done())
                }));
                // A panicking handler may have left its `Server` half
                // updated: answer, then close only this connection.
                step.unwrap_or_else(|panic| (internal_error_line(&*panic), true))
            };
            if daemon_stop {
                // Before the response is queued: a client hanging up right
                // after asking for a daemon shutdown must still stop the
                // daemon.
                stop.store(true, Ordering::SeqCst);
            }
            let mut bytes = response.into_bytes();
            bytes.push(b'\n');
            handle.send(token, bytes);
            if daemon_stop || done {
                handle.close(token);
            } else {
                handle.resume(token);
            }
        }));
    }

    // Per-connection protocol state. `None` marks an over-capacity
    // connection that only ever receives the rejection line (excluded
    // from served/close accounting).
    let mut conns: HashMap<Token, Option<Arc<Mutex<Server>>>> = HashMap::new();
    let mut events: Vec<NetEvent> = Vec::new();
    let mut fatal = None;
    loop {
        if daemon.stop.load(Ordering::SeqCst) && in_flight.load(Ordering::SeqCst) == 0 {
            break;
        }
        events.clear();
        if let Err(e) = el.poll(&mut events, Duration::from_millis(50)) {
            fatal = Some(e);
            break;
        }
        for event in events.drain(..) {
            match event {
                NetEvent::Accepted {
                    token,
                    over_capacity: false,
                } => {
                    daemon.stats.record_accept();
                    let mut server = Server::new(daemon.config.opts.clone());
                    server.set_daemon_stats(Arc::clone(&daemon.stats));
                    server.set_telemetry(Arc::clone(&daemon.telemetry));
                    conns.insert(token, Some(Arc::new(Mutex::new(server))));
                }
                NetEvent::Accepted {
                    token,
                    over_capacity: true,
                } => {
                    daemon.stats.record_reject();
                    let mut line = capacity_reject_line(daemon.config.max_clients).into_bytes();
                    line.push(b'\n');
                    el.send(token, &line);
                    el.close(token);
                    conns.insert(token, None);
                }
                NetEvent::Line { token, line } => {
                    if daemon.stop.load(Ordering::SeqCst) {
                        // Stopping: new requests are dropped.
                        el.close(token);
                        continue;
                    }
                    let Some(Some(server)) = conns.get(&token) else {
                        continue;
                    };
                    let request = decode_request(line);
                    if request.trim().is_empty() {
                        el.resume(token);
                        continue;
                    }
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    let job = Job {
                        token,
                        server: Arc::clone(server),
                        request,
                        enqueued: Instant::now(),
                    };
                    if jtx.send(job).is_err() {
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        el.close(token);
                    }
                }
                NetEvent::IdleExpired { token } => {
                    let mut line = idle_goodbye_line(daemon.config.idle_timeout).into_bytes();
                    line.push(b'\n');
                    el.send(token, &line);
                    el.close(token);
                }
                NetEvent::Closed { token } => {
                    if let Some(Some(_)) = conns.remove(&token) {
                        daemon.stats.record_close();
                    }
                }
            }
        }
    }
    daemon.stop.store(true, Ordering::SeqCst);
    // Flush pending responses (the shutdown acknowledgement included)
    // under a bounded grace period, then close every connection.
    el.drain(Duration::from_secs(5));
    for (_, server) in conns.drain() {
        if server.is_some() {
            daemon.stats.record_close();
        }
    }
    drop(jtx);
    for handle in handles {
        let _ = handle.join();
    }
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    /// Panics on a `boom` request and serves everything else.
    fn panicky(server: &mut Server, line: &str) -> String {
        if line.contains("boom") {
            panic!("boom requested");
        }
        server.handle_line(line)
    }

    fn ask(stream: &TcpStream, line: &str) -> String {
        let mut writer = stream;
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        reply
    }

    #[test]
    fn a_panicking_handler_closes_only_its_connection() {
        let config = DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::bind_tcp("127.0.0.1:0", config).unwrap();
        let addr = daemon.local_addr().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(serve(&daemon, panicky).is_ok()));
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream
        };

        let a = connect();
        let b = connect();
        let reply = ask(&a, r#"{"cmd":"boom"}"#);
        assert!(reply.contains(r#""code":"internal""#), "{reply}");
        assert!(reply.contains("boom requested"), "{reply}");
        let mut rest = Vec::new();
        assert_eq!((&a).read_to_end(&mut rest).unwrap(), 0, "A is closed");

        // The one worker survived, and the other client is still served.
        assert!(ask(&b, r#"{"cmd":"stats"}"#).contains(r#""ok":true"#));
        let bye = ask(&b, r#"{"cmd":"shutdown","scope":"daemon"}"#);
        assert!(bye.contains(r#""status":"bye""#), "{bye}");
        // The panic released its in-flight slot: the drain completes.
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(10)), Ok(true));
    }
}
