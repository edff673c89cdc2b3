//! The `loadgen` binary: floods a `cjrcd` with simulated clients and
//! writes the `BENCH_daemon.json` report.
//!
//! With `--addr` it drives an already-running daemon; without it, it
//! spawns an in-process daemon on an ephemeral port, loads it, and shuts it down afterwards — which is
//! what CI and the committed benchmark use:
//!
//! ```text
//! loadgen --clients 1200 --seed 42 --out BENCH_daemon.json \
//!         --assert-zero-errors --assert-min-peak 1000
//! ```

use cj_driver::{Daemon, DaemonConfig};
use cj_loadgen::{run, LoadConfig};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: Option<SocketAddr>,
    workers: usize,
    clients: usize,
    rate: f64,
    think_ms: u64,
    seed: u64,
    hold: bool,
    out: Option<String>,
    assert_zero_errors: bool,
    assert_p99_ms: Option<u64>,
    assert_min_peak: Option<u64>,
}

fn usage() -> &'static str {
    "usage: loadgen [--addr host:port] [--workers N]\n\
    \x20              [--clients N] [--rate CONNS_PER_SEC] [--think-ms N] [--seed N]\n\
    \x20              [--no-hold] [--out FILE]\n\
    \x20              [--assert-zero-errors] [--assert-p99-ms N] [--assert-min-peak N]\n\
    \n\
    Without --addr, an in-process cjrcd is spawned on an ephemeral port and\n\
    shut down afterwards."
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        workers: 2,
        clients: 200,
        rate: 0.0,
        think_ms: 0,
        seed: 42,
        hold: true,
        out: None,
        assert_zero_errors: false,
        assert_p99_ms: None,
        assert_min_peak: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => {
                args.addr = Some(
                    value("--addr")?
                        .parse()
                        .map_err(|e| format!("--addr: {e}"))?,
                );
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
            }
            "--think-ms" => {
                args.think_ms = value("--think-ms")?
                    .parse()
                    .map_err(|e| format!("--think-ms: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--no-hold" => args.hold = false,
            "--out" => args.out = Some(value("--out")?),
            "--assert-zero-errors" => args.assert_zero_errors = true,
            "--assert-p99-ms" => {
                args.assert_p99_ms = Some(
                    value("--assert-p99-ms")?
                        .parse()
                        .map_err(|e| format!("--assert-p99-ms: {e}"))?,
                );
            }
            "--assert-min-peak" => {
                args.assert_min_peak = Some(
                    value("--assert-min-peak")?
                        .parse()
                        .map_err(|e| format!("--assert-min-peak: {e}"))?,
                );
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.clients == 0 {
        return Err("--clients must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("loadgen: {message}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    // Spawn an in-process daemon unless one was pointed at.
    let (addr, daemon_thread) = match args.addr {
        Some(addr) => (addr, None),
        None => {
            let config = DaemonConfig {
                workers: args.workers,
                ..DaemonConfig::default()
            };
            let daemon = match Daemon::bind_tcp("127.0.0.1:0", config) {
                Ok(daemon) => daemon,
                Err(e) => {
                    eprintln!("loadgen: cannot spawn daemon: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = daemon.local_addr().expect("tcp daemon has an address");
            eprintln!(
                "loadgen: spawned in-process cjrcd on {addr} ({} workers)",
                args.workers.max(1)
            );
            (addr, Some(std::thread::spawn(move || daemon.run())))
        }
    };

    let config = LoadConfig {
        clients: args.clients,
        arrival_per_sec: args.rate,
        think: Duration::from_millis(args.think_ms),
        seed: args.seed,
        hold_barrier: args.hold,
        ..LoadConfig::new(addr)
    };
    eprintln!(
        "loadgen: {} clients against {addr} (rate {}/s, think {}ms, seed {}, barrier {})",
        config.clients, config.arrival_per_sec, args.think_ms, config.seed, config.hold_barrier
    );
    let outcome = run(&config);

    // Always try to shut a spawned daemon down, even after a failed run.
    if let Some(handle) = daemon_thread {
        if let Err(e) = cj_loadgen::shutdown_daemon(addr) {
            eprintln!("loadgen: daemon shutdown request failed: {e}");
        }
        match handle.join() {
            Ok(Ok(summary)) => eprintln!(
                "loadgen: daemon served {} client(s), peak {} concurrent",
                summary.clients_served, summary.connections_peak
            ),
            Ok(Err(e)) => eprintln!("loadgen: daemon exited with error: {e}"),
            Err(_) => eprintln!("loadgen: daemon thread panicked"),
        }
    }

    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let json = report.to_json(&config);
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("loadgen: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("loadgen: report written to {path}");
        }
        None => print!("{json}"),
    }
    eprintln!(
        "loadgen: {} requests in {:.2}s ({:.0} req/s), {} protocol error(s), \
         peak {} concurrent connection(s)",
        report.requests,
        report.elapsed.as_secs_f64(),
        report.requests_per_sec,
        report.protocol_errors,
        report.peak_connections_local,
    );
    if let Some(server) = &report.server {
        eprintln!(
            "loadgen: server side: {} request(s), queue wait p50 {}us / p99 {}us \
             over {} job(s)",
            server.requests_total,
            server.queue_wait_p50_us,
            server.queue_wait_p99_us,
            server.queue_wait_count,
        );
    }

    let mut failed = false;
    if args.assert_zero_errors && report.protocol_errors != 0 {
        eprintln!(
            "loadgen: FAIL: {} protocol error(s), expected 0",
            report.protocol_errors
        );
        failed = true;
    }
    if let Some(bound_ms) = args.assert_p99_ms {
        let worst_us = report.worst_p99_us();
        if worst_us > bound_ms * 1000 {
            eprintln!(
                "loadgen: FAIL: worst per-kind p99 is {}us, bound is {}ms",
                worst_us, bound_ms
            );
            failed = true;
        }
    }
    if let Some(min_peak) = args.assert_min_peak {
        let peak = report.peak_connections_local as u64;
        if peak < min_peak {
            eprintln!(
                "loadgen: FAIL: peak concurrency {} below required {}",
                peak, min_peak
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
