//! The readiness-driven connection engine: one thread, one [`Poller`],
//! and a per-connection state machine — nonblocking accept, bounded
//! incremental line framing ([`LineFramer`]), write-side backpressure
//! with partial-write resumption, an idle clock, and capacity rejection.
//!
//! The loop is **externally driven**: the owner calls
//! [`EventLoop::poll`] in a loop and reacts to the [`NetEvent`]s it
//! fills in. Protocol processing happens elsewhere (the daemon's worker
//! pool); workers talk back through a clonable, thread-safe
//! [`NetHandle`] whose commands ride an mpsc queue and interrupt the
//! poller through a self-pipe wakeup.
//!
//! # Flow control
//!
//! After a [`NetEvent::Line`] is delivered for a connection, the loop
//! **pauses** it: no further lines are delivered — and no further bytes
//! are read off its socket, so the kernel's receive window throttles a
//! pipelining peer — until the owner calls `resume`. One request in
//! flight per connection, in order, with pipelined requests queuing
//! first in the framer and then in the kernel.
//!
//! Writes are opportunistic: `send` tries the socket immediately and
//! buffers only the unwritten tail, resuming on the next writability
//! event — a slow or stalled reader costs memory proportional to its own
//! backlog, never a thread.
//!
//! # Idle clock
//!
//! A connection's idle clock starts at accept and restarts every time a
//! response completes (`resume`); it is suspended while a request is in
//! flight. When it expires, [`NetEvent::IdleExpired`] fires once — the
//! owner typically sends a final line and calls `close`, which flushes
//! and then drops the connection.

use crate::framer::LineFramer;
use crate::poller::{Poller, Readiness};
use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// Reserved poller key of the listener.
const KEY_LISTENER: usize = 0;
/// Reserved poller key of the wakeup pipe.
const KEY_WAKE: usize = 1;
/// First poller key used for connections (`slot index + KEY_CONN_BASE`).
const KEY_CONN_BASE: usize = 2;
/// Bytes read per `read` call while a connection is readable.
const READ_CHUNK: usize = 16 * 1024;

/// A connection identity: slot index plus a generation stamp, so a
/// command aimed at a closed connection can never hit the unrelated one
/// that reused its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(u64);

impl Token {
    fn new(index: usize, generation: u32) -> Token {
        Token(((generation as u64) << 32) | index as u64)
    }

    fn index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}.{}", self.index(), self.generation())
    }
}

/// What [`EventLoop::poll`] reports.
#[derive(Debug, PartialEq, Eq)]
pub enum NetEvent {
    /// A connection was accepted. With `over_capacity`, the loop was at
    /// its `max_clients` bound: the connection is read-muted and the
    /// owner should send a rejection line and `close` it.
    Accepted {
        /// The new connection.
        token: Token,
        /// Accepted beyond the capacity bound (send-reject-and-close).
        over_capacity: bool,
    },
    /// One complete request line (terminator stripped). The connection
    /// is now paused until `resume`.
    Line {
        /// The connection the line arrived on.
        token: Token,
        /// The line, without its trailing `\n`.
        line: Vec<u8>,
    },
    /// The idle clock expired with no request in flight. Fired once; the
    /// connection is read-muted. The owner sends a goodbye and `close`s.
    IdleExpired {
        /// The idle connection.
        token: Token,
    },
    /// The connection is gone (peer hangup, I/O error, line overflow, or
    /// the flush after `close` finished) and its slot is free. Always the
    /// final event for a token.
    Closed {
        /// The departed connection.
        token: Token,
    },
}

/// Commands a [`NetHandle`] queues from other threads.
enum Cmd {
    Send(Token, Vec<u8>),
    Resume(Token),
    Close(Token),
}

/// A clonable, thread-safe remote control for an [`EventLoop`]: workers
/// use it to queue response bytes, resume paused connections, close them,
/// and interrupt the poller's wait.
#[derive(Clone)]
pub struct NetHandle {
    cmds: Sender<Cmd>,
    waker: crate::sys::Waker,
}

impl NetHandle {
    /// Queues `bytes` for the connection's write buffer (flushed with
    /// backpressure on the event thread).
    pub fn send(&self, token: Token, bytes: Vec<u8>) {
        let _ = self.cmds.send(Cmd::Send(token, bytes));
        self.waker.wake();
    }

    /// Re-enables line delivery after a response (restarts the idle
    /// clock; delivers the next pipelined line if one is buffered).
    pub fn resume(&self, token: Token) {
        let _ = self.cmds.send(Cmd::Resume(token));
        self.waker.wake();
    }

    /// Closes the connection once its pending writes have flushed.
    pub fn close(&self, token: Token) {
        let _ = self.cmds.send(Cmd::Close(token));
        self.waker.wake();
    }

    /// Interrupts the current (or next) poller wait — used after flipping
    /// an external stop flag the poll loop checks between waits.
    pub fn wake(&self) {
        self.waker.wake();
    }
}

/// Tuning knobs of an [`EventLoop`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Reject connections accepted while this many are already live
    /// (0 = unbounded).
    pub max_clients: usize,
    /// Idle bound between completed requests ([`Duration::ZERO`] = off).
    pub idle_timeout: Duration,
    /// Byte bound on a single request line.
    pub max_line_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_clients: 0,
            idle_timeout: Duration::ZERO,
            max_line_bytes: 16 << 20,
        }
    }
}

/// A listening socket the loop accepts from.
#[derive(Debug)]
pub enum NetListener {
    /// TCP.
    Tcp(TcpListener),
    /// Unix domain socket.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl NetListener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            NetListener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd as _;
        match self {
            NetListener::Tcp(l) => l.as_raw_fd(),
            #[cfg(unix)]
            NetListener::Unix(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<NetStream> {
        match self {
            NetListener::Tcp(l) => l.accept().map(|(s, _)| NetStream::Tcp(s)),
            #[cfg(unix)]
            NetListener::Unix(l) => l.accept().map(|(s, _)| NetStream::Unix(s)),
        }
    }
}

/// One accepted (or client-added) stream.
#[derive(Debug)]
pub enum NetStream {
    /// TCP.
    Tcp(TcpStream),
    /// Unix domain socket.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl NetStream {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_nonblocking(true),
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd as _;
        match self {
            NetStream::Tcp(s) => s.as_raw_fd(),
            #[cfg(unix)]
            NetStream::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.write(buf),
        }
    }
}

/// Per-connection state machine.
#[derive(Debug)]
struct Connection {
    stream: NetStream,
    framer: LineFramer,
    /// Pending outbound bytes (`out[out_pos..]` is unwritten).
    out: Vec<u8>,
    out_pos: usize,
    /// A line was delivered and not yet `resume`d (request in flight).
    paused: bool,
    /// Close once the write buffer drains.
    closing: bool,
    /// Peer half is done sending (EOF seen); close after the framer and
    /// write buffer drain.
    eof: bool,
    /// Accepted over the capacity bound (read-muted, excluded from the
    /// active count so it cannot wedge capacity accounting).
    rejected: bool,
    /// Idle event already fired (read-muted awaiting the owner's close).
    idle_fired: bool,
    /// Start of the current idle window.
    idle_since: Instant,
    /// Interest currently registered with the poller.
    want_read: bool,
    want_write: bool,
}

impl Connection {
    fn desired_read(&self) -> bool {
        !self.paused && !self.closing && !self.eof && !self.idle_fired && !self.rejected
    }

    fn desired_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Counts against the idle clock: live, not rejected, and with no
    /// request in flight.
    fn idle_eligible(&self) -> bool {
        !self.paused && !self.closing && !self.idle_fired && !self.rejected
    }
}

struct Slot {
    generation: u32,
    conn: Option<Connection>,
}

/// The single-threaded reactor. See the module docs.
pub struct EventLoop {
    poller: Poller,
    listener: Option<NetListener>,
    wake: crate::sys::WakePipe,
    cmd_tx: Sender<Cmd>,
    cmd_rx: Receiver<Cmd>,
    config: NetConfig,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Live connections (rejected ones included — they hold fds).
    live: usize,
    /// Live connections counted against `max_clients` (rejected excluded).
    active: usize,
    /// Highest `active` ever observed.
    peak_active: usize,
    /// Connections with a buffered complete line waiting for delivery
    /// after a `resume`.
    ready_lines: VecDeque<Token>,
    /// Tokens torn down since the last `poll`, awaiting their
    /// [`NetEvent::Closed`] notification.
    closed: Vec<Token>,
    readiness: Vec<Readiness>,
}

impl EventLoop {
    /// A server loop accepting from `listener` (made nonblocking here).
    pub fn new(listener: NetListener, config: NetConfig) -> io::Result<EventLoop> {
        let mut el = EventLoop::client(config)?;
        listener.set_nonblocking()?;
        el.poller
            .register(listener.raw_fd(), KEY_LISTENER, true, false)?;
        el.listener = Some(listener);
        Ok(el)
    }

    /// A loop with no listener — connections are added explicitly with
    /// [`add_stream`](EventLoop::add_stream). This is how the load
    /// generator multiplexes thousands of *outbound* client connections
    /// over the same machinery the daemon uses for inbound ones.
    pub fn client(config: NetConfig) -> io::Result<EventLoop> {
        let mut poller = Poller::new()?;
        let wake = crate::sys::WakePipe::new()?;
        poller.register(wake.read_fd(), KEY_WAKE, true, false)?;
        let (cmd_tx, cmd_rx) = std::sync::mpsc::channel();
        Ok(EventLoop {
            poller,
            listener: None,
            wake,
            cmd_tx,
            cmd_rx,
            config,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            active: 0,
            peak_active: 0,
            ready_lines: VecDeque::new(),
            closed: Vec::new(),
            readiness: Vec::new(),
        })
    }

    /// The readiness backend in use (`"epoll"` or `"poll"`).
    pub fn backend_name(&self) -> &'static str {
        self.poller.backend_name()
    }

    /// A thread-safe remote control (clonable; workers keep one each).
    pub fn handle(&self) -> NetHandle {
        NetHandle {
            cmds: self.cmd_tx.clone(),
            waker: self.wake.waker(),
        }
    }

    /// Live connections (rejected, still-flushing ones included).
    pub fn connections(&self) -> usize {
        self.live
    }

    /// Live connections counted against the capacity bound.
    pub fn active_connections(&self) -> usize {
        self.active
    }

    /// Highest concurrent active-connection count ever observed.
    pub fn peak_connections(&self) -> usize {
        self.peak_active
    }

    /// Registers an already connected stream (made nonblocking here) and
    /// returns its token. Counts against neither `max_clients` nor the
    /// idle clock semantics any differently than an accepted connection.
    pub fn add_stream(&mut self, stream: NetStream) -> io::Result<Token> {
        stream.set_nonblocking()?;
        self.install(stream, false)
    }

    fn install(&mut self, stream: NetStream, rejected: bool) -> io::Result<Token> {
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    conn: None,
                });
                self.slots.len() - 1
            }
        };
        let conn = Connection {
            stream,
            framer: LineFramer::new(self.config.max_line_bytes),
            out: Vec::new(),
            out_pos: 0,
            paused: false,
            closing: false,
            eof: false,
            rejected,
            idle_fired: false,
            idle_since: Instant::now(),
            want_read: !rejected,
            want_write: false,
        };
        if let Err(e) = self.poller.register(
            conn.stream.raw_fd(),
            KEY_CONN_BASE + index,
            conn.want_read,
            conn.want_write,
        ) {
            self.free.push(index);
            return Err(e);
        }
        self.slots[index].conn = Some(conn);
        self.live += 1;
        if !rejected {
            self.active += 1;
            self.peak_active = self.peak_active.max(self.active);
        }
        Ok(Token::new(index, self.slots[index].generation))
    }

    fn conn_mut(&mut self, token: Token) -> Option<&mut Connection> {
        let slot = self.slots.get_mut(token.index())?;
        if slot.generation != token.generation() {
            return None;
        }
        slot.conn.as_mut()
    }

    /// Queues bytes on the connection's write buffer, flushing as much as
    /// the socket accepts right now; the unwritten tail resumes on the
    /// next writability event. Unknown/stale tokens are ignored (the
    /// connection raced away — exactly like a failed write to a dead
    /// peer in a blocking design).
    pub fn send(&mut self, token: Token, bytes: &[u8]) {
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        // Compact the consumed prefix before growing the buffer.
        if conn.out_pos > 0 {
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        conn.out.extend_from_slice(bytes);
        self.flush_conn(token);
    }

    /// Re-enables line delivery (response complete): restarts the idle
    /// clock and delivers the next buffered pipelined line, if any, on
    /// the next [`poll`](EventLoop::poll).
    pub fn resume(&mut self, token: Token) {
        let has_line = {
            let Some(conn) = self.conn_mut(token) else {
                return;
            };
            conn.paused = false;
            conn.idle_since = Instant::now();
            conn.framer.has_line() || (conn.eof && conn.framer.pending_bytes() > 0)
        };
        if has_line {
            // Deliver on the next poll; keep it paused meanwhile.
            if let Some(conn) = self.conn_mut(token) {
                conn.paused = true;
            }
            self.ready_lines.push_back(token);
        } else {
            let close_now = {
                let Some(conn) = self.conn_mut(token) else {
                    return;
                };
                conn.eof && !conn.desired_write()
            };
            if close_now {
                // Peer already hung up and everything owed was written.
                self.ready_lines.retain(|&t| t != token);
                self.finalize_close(token);
                return;
            }
            self.update_interest(token);
        }
    }

    /// Closes once pending writes drain (immediately when none are).
    pub fn close(&mut self, token: Token) {
        let now = {
            let Some(conn) = self.conn_mut(token) else {
                return;
            };
            conn.closing = true;
            !conn.desired_write()
        };
        if now {
            self.ready_lines.retain(|&t| t != token);
            self.finalize_close(token);
        } else {
            self.update_interest(token);
        }
    }

    fn update_interest(&mut self, token: Token) {
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        let (r, w) = (conn.desired_read(), conn.desired_write());
        if conn.want_read == r && conn.want_write == w {
            return;
        }
        conn.want_read = r;
        conn.want_write = w;
        let fd = conn.stream.raw_fd();
        let _ = self.poller.modify(fd, KEY_CONN_BASE + token.index(), r, w);
    }

    /// Final teardown: deregister, drop the stream, free the slot, and
    /// queue [`NetEvent::Closed`] for the next [`poll`](EventLoop::poll)
    /// (closure can happen from command application or a direct-method
    /// call, where no event buffer is in hand).
    fn finalize_close(&mut self, token: Token) {
        let index = token.index();
        let Some(slot) = self.slots.get_mut(index) else {
            return;
        };
        if slot.generation != token.generation() {
            return;
        }
        let Some(conn) = slot.conn.take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.raw_fd());
        slot.generation = slot.generation.wrapping_add(1);
        self.live -= 1;
        if !conn.rejected {
            self.active -= 1;
        }
        self.free.push(index);
        self.closed.push(token);
        // Stream drops (and closes) here.
    }

    /// Writes as much of the pending buffer as the socket accepts. On a
    /// write error the connection is torn down immediately (the peer is
    /// gone; nothing to flush to).
    fn flush_conn(&mut self, token: Token) {
        let mut failed = false;
        let mut drained = false;
        {
            let Some(conn) = self.conn_mut(token) else {
                return;
            };
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if conn.out_pos >= conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
                drained = conn.closing;
            }
        }
        if failed {
            self.ready_lines.retain(|&t| t != token);
            self.finalize_close(token);
        } else if drained {
            self.ready_lines.retain(|&t| t != token);
            self.finalize_close(token);
        } else {
            self.update_interest(token);
        }
    }

    fn apply_cmds(&mut self) {
        while let Ok(cmd) = self.cmd_rx.try_recv() {
            match cmd {
                Cmd::Send(token, bytes) => self.send(token, &bytes),
                Cmd::Resume(token) => self.resume(token),
                Cmd::Close(token) => self.close(token),
            }
        }
    }

    fn accept_all(&mut self, events: &mut Vec<NetEvent>) -> io::Result<()> {
        loop {
            let listener = match &self.listener {
                Some(l) => l,
                None => return Ok(()),
            };
            match listener.accept() {
                Ok(stream) => {
                    if stream.set_nonblocking().is_err() {
                        continue;
                    }
                    let over =
                        self.config.max_clients > 0 && self.active >= self.config.max_clients;
                    match self.install(stream, over) {
                        Ok(token) => events.push(NetEvent::Accepted {
                            token,
                            over_capacity: over,
                        }),
                        Err(_) => continue,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::Interrupted
                            | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                // A broken listener must surface to the operator.
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads everything currently available on the connection, frames
    /// lines, and delivers at most one (then pauses). Returns `false`
    /// when the connection was torn down.
    fn read_conn(&mut self, token: Token, events: &mut Vec<NetEvent>) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let conn = match self.conn_mut(token) {
                Some(c) => c,
                None => return,
            };
            if !conn.desired_read() {
                return;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    if conn.framer.push(&chunk[..n]).is_err() {
                        // Single line over the byte bound: protocol
                        // violation, drop without ceremony.
                        self.ready_lines.retain(|&t| t != token);
                        self.finalize_close(token);
                        return;
                    }
                    if conn.framer.has_line() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.ready_lines.retain(|&t| t != token);
                    self.finalize_close(token);
                    return;
                }
            }
        }
        self.deliver_line(token, events);
    }

    /// Delivers one buffered line (or the EOF remainder / closure) if the
    /// connection is unpaused.
    fn deliver_line(&mut self, token: Token, events: &mut Vec<NetEvent>) {
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        if conn.paused || conn.closing || conn.idle_fired || conn.rejected {
            return;
        }
        if let Some(line) = conn.framer.next_line() {
            conn.paused = true;
            events.push(NetEvent::Line { token, line });
            self.update_interest(token);
            return;
        }
        if conn.eof {
            // Final unterminated request, if any, still gets served.
            if let Some(rest) = conn.framer.take_remainder() {
                conn.paused = true;
                events.push(NetEvent::Line { token, line: rest });
                self.update_interest(token);
                return;
            }
            let flushed = !conn.desired_write();
            if flushed {
                self.ready_lines.retain(|&t| t != token);
                self.finalize_close(token);
            } else {
                // Keep the connection until its pending bytes drain.
                let Some(conn) = self.conn_mut(token) else {
                    return;
                };
                conn.closing = true;
                self.update_interest(token);
            }
            return;
        }
        self.update_interest(token);
    }

    /// One reactor turn: apply queued commands, wait for readiness (up to
    /// `timeout`, shortened by the next idle deadline), then translate
    /// socket state into [`NetEvent`]s. Returns the number of events
    /// appended.
    ///
    /// # Errors
    ///
    /// Fatal poller or listener errors only; per-connection I/O errors
    /// tear down that connection (with a `Closed` event) instead.
    pub fn poll(&mut self, events: &mut Vec<NetEvent>, timeout: Duration) -> io::Result<usize> {
        let before = events.len();
        self.apply_cmds();
        // Lines buffered by `resume` are delivered before waiting.
        while let Some(token) = self.ready_lines.pop_front() {
            if let Some(conn) = self.conn_mut(token) {
                conn.paused = false;
                self.deliver_line(token, events);
            }
        }
        self.flush_closed(events);
        let wait = if events.len() > before {
            Duration::ZERO
        } else {
            match self.next_idle_deadline() {
                Some(deadline) => timeout.min(deadline.saturating_duration_since(Instant::now())),
                None => timeout,
            }
        };
        self.readiness.clear();
        let mut readiness = std::mem::take(&mut self.readiness);
        let hint = self.live + 2;
        self.poller.wait(&mut readiness, Some(wait), hint)?;
        // Span the dispatch half only, and only when the wait actually
        // returned readiness: timeout-only wakeups would otherwise flood
        // the trace with empty reactor events.
        let mut dispatch_span =
            (!readiness.is_empty()).then(|| cj_trace::span("daemon", "reactor-dispatch"));
        let mut fatal = None;
        for r in &readiness {
            match r.key {
                KEY_WAKE => self.wake.drain(),
                KEY_LISTENER => {
                    if let Err(e) = self.accept_all(events) {
                        fatal = Some(e);
                    }
                }
                key => {
                    let index = key - KEY_CONN_BASE;
                    let Some(slot) = self.slots.get(index) else {
                        continue;
                    };
                    if slot.conn.is_none() {
                        continue;
                    }
                    let token = Token::new(index, slot.generation);
                    if r.writable {
                        self.flush_conn(token);
                    }
                    if r.readable {
                        self.read_conn(token, events);
                    }
                }
            }
        }
        self.readiness = readiness;
        if let Some(e) = fatal {
            return Err(e);
        }
        // Commands that arrived while waiting.
        self.apply_cmds();
        self.expire_idle(events);
        self.flush_closed(events);
        if let Some(span) = &mut dispatch_span {
            span.add("events", (events.len() - before) as u64);
        }
        Ok(events.len() - before)
    }

    fn flush_closed(&mut self, events: &mut Vec<NetEvent>) {
        for token in self.closed.drain(..) {
            events.push(NetEvent::Closed { token });
        }
    }

    fn next_idle_deadline(&self) -> Option<Instant> {
        if self.config.idle_timeout.is_zero() {
            return None;
        }
        self.slots
            .iter()
            .filter_map(|s| s.conn.as_ref())
            .filter(|c| c.idle_eligible())
            .map(|c| c.idle_since + self.config.idle_timeout)
            .min()
    }

    fn expire_idle(&mut self, events: &mut Vec<NetEvent>) {
        if self.config.idle_timeout.is_zero() {
            return;
        }
        let now = Instant::now();
        let expired: Vec<Token> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let c = s.conn.as_ref()?;
                (c.idle_eligible() && now.duration_since(c.idle_since) >= self.config.idle_timeout)
                    .then_some(Token::new(i, s.generation))
            })
            .collect();
        for token in expired {
            if let Some(conn) = self.conn_mut(token) {
                conn.idle_fired = true;
                events.push(NetEvent::IdleExpired { token });
                self.update_interest(token);
            }
        }
    }

    /// Drains the loop for shutdown: applies queued commands, then keeps
    /// flushing pending write buffers for up to `grace`, and finally
    /// closes every remaining connection. Lines still buffered are
    /// discarded — the daemon is stopping.
    pub fn drain(&mut self, grace: Duration) {
        self.apply_cmds();
        let deadline = Instant::now() + grace;
        loop {
            let pending: Vec<Token> = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    let c = s.conn.as_ref()?;
                    c.desired_write().then_some(Token::new(i, s.generation))
                })
                .collect();
            if pending.is_empty() || Instant::now() >= deadline {
                break;
            }
            self.readiness.clear();
            let mut readiness = std::mem::take(&mut self.readiness);
            let left = deadline.saturating_duration_since(Instant::now());
            if self
                .poller
                .wait(
                    &mut readiness,
                    Some(left.min(Duration::from_millis(50))),
                    self.live + 2,
                )
                .is_err()
            {
                self.readiness = readiness;
                break;
            }
            for r in &readiness {
                if r.key >= KEY_CONN_BASE && r.writable {
                    let index = r.key - KEY_CONN_BASE;
                    if let Some(slot) = self.slots.get(index) {
                        if slot.conn.is_some() {
                            self.flush_conn(Token::new(index, slot.generation));
                        }
                    }
                }
            }
            self.readiness = readiness;
            self.apply_cmds();
        }
        let all: Vec<Token> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.conn.as_ref().map(|_| Token::new(i, s.generation)))
            .collect();
        for token in all {
            self.finalize_close(token);
        }
        self.ready_lines.clear();
        // Shutdown is terminal: nobody is polling for these anymore.
        self.closed.clear();
    }
}
