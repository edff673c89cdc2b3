//! End-to-end tests for `--cache-dir`-style persistence at the driver
//! layer, plus the daemon's production-hardening bounds (backpressure,
//! idle eviction): a *fresh process* (modelled as a fresh `Workspace` /
//! `Daemon` over a fresh memo) pointed at a populated cache directory
//! must produce byte-identical output to a from-scratch build while
//! reporting `sccs_disk_hits`, and a mutilated cache must cold-start
//! rather than fail.

use cj_driver::{Daemon, DaemonConfig, SessionOptions, Workspace};
use cj_persist::SccDiskCache;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CELL: &str = "class Cell { Object item; Object get() { this.item } \
                    void put(Object o) { this.item = o; } }";
const USER: &str = "class M { static Object f(Cell c) { c.put(c.get()); c.get() } }";

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cj-driver-persist-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workspace_with(dir: &PathBuf) -> (Workspace, usize) {
    let mut ws = Workspace::new(SessionOptions::default());
    let loaded = ws.attach_disk_cache(Arc::new(SccDiskCache::open(dir).expect("open cache")));
    (ws, loaded)
}

#[test]
fn workspace_warm_restart_is_bit_identical_and_reports_disk_hits() {
    let dir = tempdir("workspace");

    // The ground truth: an isolated, cache-less compile.
    let mut isolated = Workspace::new(SessionOptions::default());
    isolated.set_source("cell.cj", CELL).unwrap();
    isolated.set_source("use.cj", USER).unwrap();
    let want = isolated.annotate().unwrap();

    // "Process 1": cold compile against an empty cache, then persist.
    let (mut first, loaded) = workspace_with(&dir);
    assert_eq!(loaded, 0, "nothing cached yet");
    first.set_source("cell.cj", CELL).unwrap();
    first.set_source("use.cj", USER).unwrap();
    first.check().unwrap();
    assert_eq!(first.annotate().unwrap(), want);
    let counts = first.pass_counts();
    assert!(counts.sccs_solved > 0);
    assert_eq!(counts.sccs_disk_hits, 0);
    let persisted = first.compact_disk_cache().unwrap();
    assert!(persisted > 0, "solved SCCs must reach disk");
    drop(first);

    // "Process 2": a fresh workspace + fresh memo, warm from the dir.
    let (mut second, loaded) = workspace_with(&dir);
    assert!(loaded > 0, "restart must warm-load the persisted SCCs");
    second.set_source("cell.cj", CELL).unwrap();
    second.set_source("use.cj", USER).unwrap();
    second.check().unwrap();
    assert_eq!(
        second.annotate().unwrap(),
        want,
        "warm restart must be bit-identical to from-scratch"
    );
    let counts = second.pass_counts();
    assert!(
        counts.sccs_disk_hits >= 1,
        "disk reuse must be observable: {counts:?}"
    );
    assert_eq!(counts.sccs_solved, 0, "every SCC came from disk");
    assert_eq!(
        counts.sccs_shared_hits, 0,
        "disk hits are not cross-client hits"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_or_missing_cache_files_cold_start_without_errors() {
    let dir = tempdir("corrupt");
    let (mut first, _) = workspace_with(&dir);
    first.set_source("cell.cj", CELL).unwrap();
    first.check().unwrap();
    first.compact_disk_cache().unwrap();
    let snapshot = first.disk_cache().unwrap().snapshot_path();
    drop(first);

    // Overwrite the snapshot with garbage: attach loads 0, compiles fine.
    std::fs::write(&snapshot, b"\x00\xffgarbage, definitely not a cache").unwrap();
    let (mut cold, loaded) = workspace_with(&dir);
    assert_eq!(loaded, 0, "garbage must cold-start");
    cold.set_source("cell.cj", CELL).unwrap();
    cold.check().unwrap();
    assert_eq!(cold.pass_counts().sccs_disk_hits, 0);
    // And the cold process repopulates the cache for the next one.
    cold.compact_disk_cache().unwrap();
    let (_, reloaded) = workspace_with(&dir);
    assert!(reloaded > 0, "cache must be rebuilt after corruption");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two live processes (modelled as two open caches) pointed at one cache
/// directory: the second opener degrades to read-only — it still
/// warm-loads and reports disk hits, but persists nothing, so the two
/// writers can never interleave journal batches (the ROADMAP
/// "single-writer lease" item).
#[test]
fn second_cache_opener_is_read_only_but_still_warm() {
    let dir = tempdir("lock");
    let (mut first, _) = workspace_with(&dir);
    first.set_source("cell.cj", CELL).unwrap();
    first.check().unwrap();
    assert!(first.compact_disk_cache().unwrap() > 0);
    assert!(!first.disk_cache().unwrap().is_read_only());

    // `first` stays alive: its store holds the writer lease.
    let cache2 = Arc::new(SccDiskCache::open(&dir).expect("open degrades, not fails"));
    assert!(cache2.is_read_only());
    let mut second = Workspace::new(SessionOptions::default());
    let loaded = second.attach_disk_cache(Arc::clone(&cache2));
    assert!(loaded > 0, "read-only caches still warm-load");
    second.set_source("cell.cj", CELL).unwrap();
    second.check().unwrap();
    assert!(second.pass_counts().sccs_disk_hits >= 1);
    assert_eq!(
        second.flush_disk_cache().unwrap(),
        0,
        "read-only flush persists nothing"
    );
    assert_eq!(second.compact_disk_cache().unwrap(), 0);

    // Lease released: the next opener writes again.
    drop(first);
    let cache3 = SccDiskCache::open(&dir).unwrap();
    assert!(!cache3.is_read_only());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- daemon ----------------------------------------------------------------

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

fn compile_script() -> Vec<String> {
    vec![
        format!(
            "{{\"cmd\":\"open\",\"file\":\"cell.cj\",\"text\":{}}}",
            cj_diag::json_string(CELL)
        ),
        format!(
            "{{\"cmd\":\"open\",\"file\":\"use.cj\",\"text\":{}}}",
            cj_diag::json_string(USER)
        ),
        "{\"cmd\":\"check\"}".to_string(),
        "{\"cmd\":\"annotate\"}".to_string(),
        "{\"cmd\":\"stats\"}".to_string(),
        "{\"cmd\":\"shutdown\",\"scope\":\"daemon\"}".to_string(),
    ]
}

fn field(response: &str, name: &str) -> u64 {
    response
        .split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no numeric `{name}` in {response}"))
}

#[test]
fn daemon_restart_with_cache_dir_serves_disk_hits_bit_identically() {
    let dir = tempdir("daemon");
    let config = || DaemonConfig {
        cache_dir: Some(dir.clone()),
        workers: 2,
        ..DaemonConfig::default()
    };

    // Daemon incarnation 1: cold compile; shutdown persists the memo.
    let daemon = Daemon::bind_tcp("127.0.0.1:0", config()).expect("bind 1");
    assert_eq!(daemon.cache_entries_loaded(), 0);
    let addr = daemon.local_addr().unwrap();
    let handle = std::thread::spawn(move || daemon.run().expect("run 1"));
    let first = drive_tcp(addr, &compile_script());
    let summary = handle.join().unwrap();
    assert!(summary.cache_entries_persisted > 0, "{summary:?}");
    assert!(first[2].contains("\"status\":\"well-region-typed\""));
    assert_eq!(field(&first[2], "sccs_disk_hits"), 0);

    // Incarnation 2: same cache dir, fresh process state.
    let daemon = Daemon::bind_tcp("127.0.0.1:0", config()).expect("bind 2");
    assert!(
        daemon.cache_entries_loaded() > 0,
        "bind must warm-load the cache"
    );
    let addr = daemon.local_addr().unwrap();
    let handle = std::thread::spawn(move || daemon.run().expect("run 2"));
    let second = drive_tcp(addr, &compile_script());
    handle.join().unwrap();

    // Byte-identical semantic answers (check status, annotation)…
    assert_eq!(first[3], second[3], "annotate must be byte-identical");
    assert!(second[2].contains("\"status\":\"well-region-typed\""));
    // …with the reuse visible in the compile's pass counters and the
    // memo-wide stats block.
    assert!(
        field(&second[2], "sccs_disk_hits") >= 1,
        "warm daemon must report disk hits: {}",
        second[2]
    );
    assert_eq!(field(&second[2], "sccs_solved"), 0);
    assert!(field(&second[4], "disk_hits") >= 1, "{}", second[4]);
    let _ = std::fs::remove_dir_all(&dir);
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
