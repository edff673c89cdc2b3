//! # cj-bench — one binary, one measuring loop
//!
//! `cj-bench <mode>` regenerates the paper's tables and the committed
//! `BENCH_*.json` files (see `src/main.rs` for the modes). This library
//! holds what every mode shares:
//!
//! - [`measure`], the only timer: it repeats a cell until it has
//!   [`MIN_SAMPLES`] samples *and* [`MIN_TIME`] of measured time, and
//!   summarizes the wall times as [`Stats`] (median, min, MAD, n);
//!   [`measure_pair`] times two cells that are compared with each other,
//!   their samples alternating, to at least [`PAIR_SAMPLES`] each;
//! - the rows each mode records, and the gates over them as pure
//!   functions — a run exits 1 when any gate reports a failure.
//!
//! Absolute numbers differ from the paper (different decade, language and
//! machine); the *shape* — which programs reuse space, under which
//! subtyping mode, and how inference time scales — is the reproduction
//! target (the paper's Sec 6).
#![forbid(unsafe_code)]

use cj_benchmarks::Suite;
use cj_loadgen::LoadReport;
use cj_runtime::{Outcome, SpaceStats};
use std::time::{Duration, Instant};

/// Fewest samples a cell gets.
pub const MIN_SAMPLES: usize = 5;

/// Least measured time a cell gets.
pub const MIN_TIME: Duration = Duration::from_millis(500);

/// Fewest samples each cell of a [`measure_pair`] gets: at
/// [`MIN_SAMPLES`], the slowest paper inputs' medians move further
/// between two runs of one binary than an engine change does.
pub const PAIR_SAMPLES: usize = 15;

/// Summary of one cell's `n` samples: the median (the mean of the middle
/// two for even `n`), the smallest sample, and the median absolute
/// deviation from the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub median: f64,
    pub min: f64,
    pub mad: f64,
    pub n: usize,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

impl Stats {
    /// Summarizes `samples` (in any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Stats {
        let mut xs = samples.to_vec();
        let median = median(&mut xs);
        let mut deviations: Vec<f64> = xs.iter().map(|x| (x - median).abs()).collect();
        Stats {
            median,
            min: xs[0],
            mad: self::median(&mut deviations),
            n: xs.len(),
        }
    }

    /// The `{"median":…,"min":…,"mad":…,"n":…}` object.
    pub fn json(&self) -> String {
        format!(
            "{{\"median\":{:.4},\"min\":{:.4},\"mad\":{:.4},\"n\":{}}}",
            self.median, self.min, self.mad, self.n
        )
    }

    /// `median ± MAD`, to three significant digits of the median.
    pub fn show(&self) -> String {
        let decimals = (2.0 - self.median.log10().floor()).clamp(0.0, 4.0) as usize;
        format!("{:.decimals$} ± {:.decimals$}", self.median, self.mad)
    }
}

/// Whether a cell with `n` samples and `spent` measured time may stop.
pub fn enough(n: usize, spent: Duration) -> bool {
    n >= MIN_SAMPLES && spent >= MIN_TIME
}

/// One cell's wall times so far, in milliseconds, and their sum.
#[derive(Default)]
struct Samples {
    ms: Vec<f64>,
    spent: Duration,
}

impl Samples {
    /// Runs `f` once, timed.
    fn take<T>(&mut self, f: &mut impl FnMut() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let dt = t0.elapsed();
        self.ms.push(dt.as_secs_f64() * 1e3);
        self.spent += dt;
        out
    }
}

/// Runs `f` until [`enough`] and returns its last result with the wall
/// times of all runs, in milliseconds.
pub fn measure<T>(mut f: impl FnMut() -> T) -> (T, Stats) {
    let mut cell = Samples::default();
    loop {
        let out = cell.take(&mut f);
        if enough(cell.ms.len(), cell.spent) {
            return (out, Stats::of(&cell.ms));
        }
    }
}

/// [`measure`] for two cells that are compared with each other: their
/// samples alternate, so a drift of the machine hits both alike, and
/// each cell runs until it has [`PAIR_SAMPLES`] samples and
/// [`MIN_TIME`]. Returns each cell's last result with its wall times.
pub fn measure_pair<A, B>(
    mut f: impl FnMut() -> A,
    mut g: impl FnMut() -> B,
) -> ((A, Stats), (B, Stats)) {
    let (mut fs, mut gs) = (Samples::default(), Samples::default());
    let done = |c: &Samples| c.ms.len() >= PAIR_SAMPLES && c.spent >= MIN_TIME;
    let (mut a, mut b) = (fs.take(&mut f), gs.take(&mut g));
    while !done(&fs) || !done(&gs) {
        if !done(&fs) {
            a = fs.take(&mut f);
        }
        if !done(&gs) {
            b = gs.take(&mut g);
        }
    }
    ((a, Stats::of(&fs.ms)), (b, Stats::of(&gs.ms)))
}

/// Geometric mean (1 for no values).
pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(sum, n), x| (sum + x.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

/// What a run shows its user: the entry method's value, the `print`
/// output and the space statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    pub value: String,
    pub prints: Vec<String>,
    pub space: SpaceStats,
}

impl From<&Outcome> for Observed {
    fn from(out: &Outcome) -> Observed {
        Observed {
            value: out.value.to_string(),
            prints: out.prints.clone(),
            space: out.space,
        }
    }
}

/// One engine's timed run of one program: its wall time, the steps
/// (interpreter) or dispatches (register machine) it retired, and what it
/// showed.
#[derive(Debug, Clone)]
pub struct EngineRun {
    pub wall_ms: Stats,
    pub steps: u64,
    pub observed: Observed,
}

/// One `engines` row: a program, its input (`test` under `--quick`), the
/// size of its register code (`instructions`, of which `fused`
/// superinstructions), and its runs on the interpreter and on cj-rvm.
#[derive(Debug, Clone)]
pub struct EnginesRow {
    pub name: &'static str,
    pub suite: Suite,
    pub input: &'static str,
    pub instructions: usize,
    pub fused: u64,
    pub interp: EngineRun,
    pub rvm: EngineRun,
}

impl EnginesRow {
    /// Interpreter median over register-machine median.
    pub fn speedup(&self) -> f64 {
        self.interp.wall_ms.median / self.rvm.wall_ms.median
    }
}

/// Gate: the two engines agree on value, prints and space.
pub fn divergence_gate(rows: &[EnginesRow]) -> Vec<String> {
    rows.iter()
        .filter(|r| r.rvm.observed != r.interp.observed)
        .map(|r| format!("{}: rvm/interp diverged", r.name))
        .collect()
}

/// Gate: the register machine beats the interpreter on the Olden
/// geomean of median wall times.
pub fn speed_gate(rows: &[EnginesRow]) -> Vec<String> {
    let olden = geomean(
        rows.iter()
            .filter(|r| r.suite == Suite::Olden)
            .map(EnginesRow::speedup),
    );
    if olden > 1.0 {
        Vec::new()
    } else {
        vec![format!(
            "register machine is not faster than the interpreter on olden (geomean {olden:.2}x)"
        )]
    }
}

/// One program under one extent mode: the letregs the extent pass
/// rewrote, and what the run showed on each engine.
#[derive(Debug, Clone)]
pub struct ExtentRun {
    pub rewrites: u32,
    pub interp: Observed,
    pub rvm: Observed,
}

/// One `extents` row: a program under block-scoped (`paper`) and
/// liveness-tightened `letreg` placement.
#[derive(Debug, Clone)]
pub struct ExtentsRow {
    pub name: &'static str,
    pub suite: Suite,
    pub input: &'static str,
    pub paper: ExtentRun,
    pub liveness: ExtentRun,
}

/// Gate: under each extent mode the engines agree; the modes agree on
/// value, prints and allocation totals; liveness placement raises no
/// peak on either engine.
pub fn extents_gate(rows: &[ExtentsRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        let (p, l) = (&r.paper, &r.liveness);
        for (mode, run) in [("paper", p), ("liveness", l)] {
            if run.rvm != run.interp {
                failures.push(format!("{} [{mode}]: rvm/interp diverged", r.name));
            }
        }
        if (&p.interp.value, &p.interp.prints) != (&l.interp.value, &l.interp.prints) {
            failures.push(format!("{}: extent modes changed the observables", r.name));
        }
        if p.interp.space.total_allocated != l.interp.space.total_allocated {
            failures.push(format!(
                "{}: extent modes changed what was allocated",
                r.name
            ));
        }
        for (engine, paper, live) in [("interp", &p.interp, &l.interp), ("rvm", &p.rvm, &l.rvm)] {
            if live.space.peak_live > paper.space.peak_live {
                failures.push(format!(
                    "{}: liveness placement raised the {engine} peak ({} > {})",
                    r.name, live.space.peak_live, paper.space.peak_live
                ));
            }
        }
    }
    failures
}

/// The `daemon` mode's `--assert-zero-errors`, `--assert-p99-ms N` (a
/// bound on every request kind's p99) and `--assert-min-peak N` (the
/// least connection peak), each applied to every run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadAsserts {
    pub zero_errors: bool,
    pub p99_ms: Option<u64>,
    pub min_peak: Option<u64>,
}

/// Gate: every load run meets the asserted bounds.
pub fn load_gate(reports: &[LoadReport], asserts: LoadAsserts) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        if asserts.zero_errors && r.protocol_errors != 0 {
            failures.push(format!("run {i}: {} protocol error(s)", r.protocol_errors));
        }
        if let Some(bound) = asserts.p99_ms.filter(|&ms| r.worst_p99_us() > ms * 1000) {
            failures.push(format!(
                "run {i}: worst per-kind p99 is {}us, bound is {bound}ms",
                r.worst_p99_us()
            ));
        }
        let peak = r.peak_connections_local as u64;
        if let Some(min) = asserts.min_peak.filter(|&min| peak < min) {
            failures.push(format!("run {i}: peak concurrency {peak} below {min}"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use cj_loadgen::{Kind, KindStats};

    #[test]
    fn stats_of_odd_and_even_samples() {
        let odd = Stats::of(&[5.0, 1.0, 3.0, 100.0, 4.0]);
        // Sorted 1 3 4 5 100: median 4; deviations 3 1 0 1 96 → MAD 1.
        let parts = |s: Stats| (s.median, s.min, s.mad, s.n);
        assert_eq!(parts(odd), (4.0, 1.0, 1.0, 5));
        let even = Stats::of(&[8.0, 2.0, 6.0, 4.0]);
        // Median (4 + 6) / 2 = 5; deviations 3 1 1 3 → MAD (1 + 3) / 2.
        assert_eq!(parts(even), (5.0, 2.0, 2.0, 4));
        assert_eq!(Stats::of(&[7.0]).mad, 0.0);
        assert_eq!(odd.show(), "4.00 ± 1.00");
        assert_eq!(Stats::of(&[1125.6, 1130.0]).show(), "1128 ± 2");
        assert_eq!(Stats::of(&[0.0338, 0.0340]).show(), "0.0339 ± 0.0001");
        assert_eq!(Stats::of(&[0.0]).show(), "0.0000 ± 0.0000");
        assert_eq!(
            Stats::of(&[1.5, 1.5]).json(),
            r#"{"median":1.5000,"min":1.5000,"mad":0.0000,"n":2}"#
        );
    }

    #[test]
    fn a_cell_stops_only_after_both_minimums() {
        assert!(!enough(MIN_SAMPLES - 1, MIN_TIME * 10));
        assert!(!enough(MIN_SAMPLES * 100, MIN_TIME / 2));
        assert!(enough(MIN_SAMPLES, MIN_TIME));
        // Slow samples: the sample minimum binds.
        let (_, slow) = measure(|| std::thread::sleep(MIN_TIME / 4));
        assert_eq!(slow.n, MIN_SAMPLES);
        // Fast samples: the time minimum binds.
        let (_, fast) = measure(|| std::thread::sleep(Duration::from_millis(20)));
        assert!(fast.n >= 20 && fast.n < 26, "{fast:?}");
        assert!(fast.min >= 20.0);
    }

    #[test]
    fn paired_cells_alternate_until_each_has_enough() {
        let log = std::cell::RefCell::new(String::new());
        let ((_, slow), (_, fast)) = measure_pair(
            || {
                log.borrow_mut().push('f');
                std::thread::sleep(Duration::from_millis(35));
            },
            || {
                log.borrow_mut().push('g');
                std::thread::sleep(Duration::from_millis(10));
            },
        );
        // 15 samples of 35 ms pass the time minimum; 10 ms samples need
        // about 50, the rest taken after the slow cell is done.
        assert_eq!(slow.n, PAIR_SAMPLES);
        assert!(fast.n >= 50 && fast.n < 56, "{fast:?}");
        let log = log.into_inner();
        assert_eq!(&log[..2 * PAIR_SAMPLES], "fg".repeat(PAIR_SAMPLES));
        assert!(log[2 * PAIR_SAMPLES..].chars().all(|c| c == 'g'));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    fn observed(value: &str, peak_live: usize) -> Observed {
        Observed {
            value: value.to_string(),
            prints: vec!["1".to_string()],
            space: SpaceStats {
                total_allocated: 100,
                peak_live,
                regions_created: 2,
                objects_allocated: 3,
            },
        }
    }

    fn engines_row(suite: Suite, interp_ms: f64, rvm_ms: f64, rvm_value: &str) -> EnginesRow {
        let run = |ms: f64, value: &str| EngineRun {
            wall_ms: Stats::of(&[ms]),
            steps: 10,
            observed: observed(value, 50),
        };
        EnginesRow {
            name: "p",
            suite,
            input: "test",
            instructions: 1,
            fused: 0,
            interp: run(interp_ms, "42"),
            rvm: run(rvm_ms, rvm_value),
        }
    }

    #[test]
    fn a_diverging_engine_row_trips_the_divergence_gate() {
        assert!(divergence_gate(&[engines_row(Suite::Olden, 2.0, 1.0, "42")]).is_empty());
        let failures = divergence_gate(&[engines_row(Suite::Olden, 2.0, 1.0, "43")]);
        assert_eq!(failures, ["p: rvm/interp diverged"]);
        let mut row = engines_row(Suite::Olden, 2.0, 1.0, "42");
        row.rvm.observed.space.peak_live += 1;
        assert_eq!(divergence_gate(&[row]).len(), 1);
    }

    #[test]
    fn a_slower_olden_row_trips_the_speed_gate() {
        let fast = engines_row(Suite::Olden, 3.0, 1.0, "42");
        let slow = engines_row(Suite::Olden, 1.0, 4.0, "42");
        let regjava_slow = engines_row(Suite::RegJava, 1.0, 100.0, "42");
        assert!(speed_gate(&[fast.clone(), regjava_slow]).is_empty());
        // Geomean of 3 and 1/4 is below 1.
        assert_eq!(speed_gate(&[fast, slow]).len(), 1);
        assert_eq!(speed_gate(&[]).len(), 1);
    }

    fn extents_row(live_peak: usize, live_value: &str) -> ExtentsRow {
        let run = |peak: usize, value: &str| ExtentRun {
            rewrites: 0,
            interp: observed(value, peak),
            rvm: observed(value, peak),
        };
        ExtentsRow {
            name: "p",
            suite: Suite::RegJava,
            input: "test",
            paper: run(50, "42"),
            liveness: run(live_peak, live_value),
        }
    }

    #[test]
    fn a_higher_peak_or_changed_row_trips_the_extents_gate() {
        assert!(extents_gate(&[extents_row(50, "42"), extents_row(10, "42")]).is_empty());
        let raised = extents_gate(&[extents_row(51, "42")]);
        assert_eq!(raised.len(), 2, "{raised:?}");
        assert!(raised[0].contains("raised the interp peak (51 > 50)"));
        assert_eq!(extents_gate(&[extents_row(50, "7")]).len(), 1);
        let mut diverged = extents_row(50, "42");
        diverged.liveness.rvm.value = "7".to_string();
        assert_eq!(extents_gate(&[diverged]).len(), 1);
        let mut allocated = extents_row(50, "42");
        for o in [&mut allocated.liveness.interp, &mut allocated.liveness.rvm] {
            o.space.total_allocated += 8;
        }
        assert_eq!(extents_gate(&[allocated]).len(), 1);
    }

    #[test]
    fn load_assertions_trip_on_any_run() {
        let report = |errors: usize, p99_us: u64, peak: usize| LoadReport {
            requests: 2,
            protocol_errors: errors,
            requests_per_sec: 2000.0,
            peak_connections_local: peak,
            per_kind: vec![KindStats {
                kind: Kind::Check,
                count: 2,
                p50_us: 1,
                p95_us: p99_us,
                p99_us,
                max_us: p99_us,
            }],
            daemon: None,
            server: None,
        };
        let all = LoadAsserts {
            zero_errors: true,
            p99_ms: Some(5),
            min_peak: Some(2),
        };
        let good = report(0, 5000, 2);
        assert!(load_gate(std::slice::from_ref(&good), all).is_empty());
        assert_eq!(load_gate(&[good.clone(), report(1, 5000, 2)], all).len(), 1);
        assert_eq!(load_gate(&[report(0, 5001, 2)], all).len(), 1);
        assert_eq!(load_gate(&[report(0, 5000, 1)], all).len(), 1);
        assert!(load_gate(&[report(3, 9999, 0)], LoadAsserts::default()).is_empty());
    }
}
