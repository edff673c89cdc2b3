//! # cj-trace — structured tracing spans and a metrics registry
//!
//! A dependency-free observability layer in the spirit of rustc's
//! `-Z self-profile` (measureme): the whole pipeline — parse, typecheck,
//! per-SCC solve, extent rewriting, lowering to register code
//! (`lower`), policy check, execution (`rvm-exec`/`interp-exec`) —
//! and the daemon's internals (reactor dispatch, queue wait, worker
//! handling, persist flush) open [`span`]s that are recorded into
//! per-thread buffers with monotonic timestamps and attached counters.
//!
//! **Cost model.** Recording is off until [`install`] flips one global
//! `AtomicBool`. With no sink installed a [`span`] call is exactly one
//! relaxed atomic load and returns an inert guard whose drop is a no-op —
//! cheap enough to leave in release hot paths (the VM opens one span per
//! *program*, never per instruction). With a sink installed, a finished
//! span is one `Vec` push into a thread-local buffer; buffers flush into
//! the global sink in batches and on thread exit.
//!
//! [`summarize`] + [`render_summary`] fold the drained [`Event`]s into a
//! self-time/total-time table per phase (`cjrc trace-summary`). The
//! crate has no serialization of its own: `cj_driver::telemetry` writes
//! the Chrome trace-event file behind `--trace-out` (and reads it back)
//! and the wire form of a [`MetricsSnapshot`].
//!
//! Independently of spans, [`MetricsRegistry`] holds named monotone
//! counters and fixed-log-bucket latency [`Histogram`]s (p50/p95/p99)
//! keyed by request kind — the daemon's scrapeable surface behind the
//! `metrics` request and the `--metrics-addr` HTTP endpoint.

#![forbid(unsafe_code)]
#![forbid(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Global recording state
// ---------------------------------------------------------------------------

/// The one-word gate every [`span`] call loads. Nothing else is touched
/// while recording is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide monotonic epoch all event timestamps are relative to.
/// Established once, at the first [`install`]; Chrome trace timestamps
/// only need a consistent base, not an absolute one.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Next per-thread id. `ThreadId::as_u64` is unstable, and Chrome traces
/// render nicer with small dense tids anyway.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The global sink thread buffers flush into.
static SINK: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Thread buffers flush into [`SINK`] once they hold this many events.
const FLUSH_AT: usize = 512;

/// One finished span (or recorded interval), ready for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Category (taxonomy group), e.g. `"pipeline"` or `"daemon"`.
    pub cat: &'static str,
    /// Phase name, e.g. `"solve-scc"` or `"queue-wait"`.
    pub name: &'static str,
    /// Dense per-thread id (1-based, assigned in thread-creation order).
    pub tid: u64,
    /// Microseconds since the recording epoch.
    pub ts_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth on its thread when the span opened (0 = top level).
    pub depth: u16,
    /// Counters attached with [`Span::add`], exported as trace args.
    pub counters: Vec<(&'static str, u64)>,
}

struct ThreadBuf {
    tid: u64,
    depth: u16,
    events: Vec<Event>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.append(&mut self.events);
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // A thread that exits while recording is on must not lose its
        // tail: flush whatever is still buffered.
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        depth: 0,
        events: Vec::new(),
    });
}

/// Turns span recording on (idempotent). Events recorded before the
/// matching [`drain`] accumulate in per-thread buffers and the global
/// sink; any events left over from an earlier recording are discarded.
pub fn install() {
    let _ = EPOCH.set(Instant::now());
    SINK.lock().unwrap_or_else(|e| e.into_inner()).clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether a sink is installed. This is the exact load a [`span`] call
/// performs; exposed so instrumentation can skip counter preparation
/// that only matters when recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flushes the calling thread's buffer and returns everything recorded
/// so far, leaving recording on. Buffers of *other still-running*
/// threads are not visible until those threads flush (every `FLUSH_AT`
/// events) or exit — drain after joining the threads you care about.
pub fn drain() -> Vec<Event> {
    TLS.with(|tls| tls.borrow_mut().flush());
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *sink)
}

/// Turns recording off and returns every buffered event ([`drain`]).
pub fn uninstall() -> Vec<Event> {
    ENABLED.store(false, Ordering::SeqCst);
    drain()
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// An open span: records one [`Event`] covering its own lifetime when
/// dropped. Inert (and free) when no sink is installed.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    cat: &'static str,
    name: &'static str,
    start: Instant,
    counters: Vec<(&'static str, u64)>,
}

/// Opens a span. One relaxed atomic load when recording is off. The
/// span's depth is the count of same-thread spans still open above it,
/// re-read when it closes (drop order keeps the two in agreement).
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    TLS.with(|tls| {
        let mut buf = tls.borrow_mut();
        buf.depth = buf.depth.saturating_add(1);
    });
    Span(Some(ActiveSpan {
        cat,
        name,
        start: Instant::now(),
        counters: Vec::new(),
    }))
}

impl Span {
    /// Attaches a counter (exported as a trace-event arg). Accumulates
    /// on repeated keys.
    pub fn add(&mut self, key: &'static str, value: u64) {
        if let Some(active) = &mut self.0 {
            match active.counters.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v = v.saturating_add(value),
                None => active.counters.push((key, value)),
            }
        }
    }

    /// Whether this span will record an event (a sink was installed when
    /// it opened).
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let end = Instant::now();
        record_event(
            active.cat,
            active.name,
            active.start,
            end,
            active.counters,
            true,
        );
    }
}

/// Records a completed interval that started at `started` and ends now —
/// for durations whose start lives on another thread (e.g. the time a
/// job spent queued between the reactor and a worker). No-op when
/// recording is off.
pub fn record_interval(cat: &'static str, name: &'static str, started: Instant) {
    if !enabled() {
        return;
    }
    record_event(cat, name, started, Instant::now(), Vec::new(), false);
}

fn record_event(
    cat: &'static str,
    name: &'static str,
    start: Instant,
    end: Instant,
    counters: Vec<(&'static str, u64)>,
    close_depth: bool,
) {
    let epoch = *EPOCH.get_or_init(Instant::now);
    let ts_us = start.saturating_duration_since(epoch).as_micros() as u64;
    let dur_us = end.saturating_duration_since(start).as_micros() as u64;
    TLS.with(|tls| {
        let mut buf = tls.borrow_mut();
        let depth = if close_depth {
            buf.depth = buf.depth.saturating_sub(1);
            buf.depth
        } else {
            buf.depth
        };
        let tid = buf.tid;
        buf.events.push(Event {
            cat,
            name,
            tid,
            ts_us,
            dur_us,
            depth,
            counters,
        });
        if buf.events.len() >= FLUSH_AT {
            buf.flush();
        }
    });
}

// ---------------------------------------------------------------------------
// Self-time summary
// ---------------------------------------------------------------------------

/// Aggregated wall time of one phase across all its spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    /// The span name the row aggregates.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Total (inclusive) duration in microseconds.
    pub total_us: u64,
    /// Self time: total minus time spent in child spans on the same
    /// thread, in microseconds.
    pub self_us: u64,
}

/// Folds events into one row per span name, computing self time by
/// interval containment per thread (a span is a child of the innermost
/// same-thread span whose interval contains it). Rows are sorted by
/// descending self time.
pub fn summarize(events: &[Event]) -> Vec<PhaseSummary> {
    // Per-thread containment pass: sort by start (outer spans first on
    // ties), keep a stack of open intervals, charge each span's duration
    // to its innermost enclosing parent.
    let mut by_tid: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        by_tid.entry(ev.tid).or_default().push(i);
    }
    let mut child_us = vec![0u64; events.len()];
    for indices in by_tid.values_mut() {
        indices.sort_by_key(|&i| (events[i].ts_us, u64::MAX - events[i].dur_us));
        let mut stack: Vec<usize> = Vec::new();
        for &i in indices.iter() {
            let ev = &events[i];
            while let Some(&top) = stack.last() {
                let end = events[top].ts_us + events[top].dur_us;
                if end <= ev.ts_us {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child_us[parent] = child_us[parent].saturating_add(ev.dur_us);
            }
            stack.push(i);
        }
    }
    let mut rows: BTreeMap<&str, PhaseSummary> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let row = rows.entry(ev.name).or_insert_with(|| PhaseSummary {
            name: ev.name.to_string(),
            count: 0,
            total_us: 0,
            self_us: 0,
        });
        row.count += 1;
        row.total_us += ev.dur_us;
        row.self_us += ev.dur_us.saturating_sub(child_us[i]);
    }
    let mut rows: Vec<PhaseSummary> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    rows
}

/// Renders a [`summarize`] table: one aligned row per phase with span
/// count, self time, and total time.
pub fn render_summary(rows: &[PhaseSummary]) -> String {
    let name_width = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("phase".len()))
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_width$}  {:>8}  {:>12}  {:>12}\n",
        "phase", "count", "self(us)", "total(us)"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<name_width$}  {:>8}  {:>12}  {:>12}\n",
            row.name, row.count, row.self_us, row.total_us
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of fixed log buckets in a [`Histogram`]. Bucket 0 holds the
/// value 0; bucket `i >= 1` holds `[2^(i-1), 2^i)`; the last bucket is
/// open-ended. 40 buckets cover half a trillion microseconds — about
/// six days — before saturating.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-log-bucket latency histogram: lock-free to record, with
/// quantile estimates read from bucket upper bounds. Values are
/// conventionally microseconds but the histogram is unit-agnostic.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A point-in-time read of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// 50th-percentile estimate (bucket upper bound).
    pub p50: u64,
    /// 95th-percentile estimate (bucket upper bound).
    pub p95: u64,
    /// 99th-percentile estimate (bucket upper bound).
    pub p99: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a value lands in.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The half-open `[lo, hi)` range of a bucket; `hi` is `None` for
    /// the open-ended last bucket.
    pub fn bucket_range(index: usize) -> (u64, Option<u64>) {
        match index {
            0 => (0, Some(1)),
            i if i < HISTOGRAM_BUCKETS - 1 => (1 << (i - 1), Some(1 << i)),
            i => (1 << (i - 1), None),
        }
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in microseconds.
    pub fn record_duration(&self, duration: Duration) {
        self.record(duration.as_micros() as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Quantile estimate: the inclusive upper bound of the first bucket
    /// at which the cumulative count reaches `ceil(q * count)`. Returns
    /// 0 on an empty histogram; the open-ended last bucket reports
    /// `u64::MAX`. Because cumulative counts are monotone in the bucket
    /// index, `quantile(a) <= quantile(b)` whenever `a <= b`.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return match Histogram::bucket_range(i) {
                    (_, Some(hi)) => hi - 1,
                    (_, None) => u64::MAX,
                };
            }
        }
        u64::MAX
    }

    /// Reads count, sum and the p50/p95/p99 estimates at once.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Named monotone counters plus named latency [`Histogram`]s — the one
/// place the daemon's scattered per-subsystem atomics meet so a single
/// scrape sees them all. Histograms are created on first use and handed
/// out as `Arc`s, so recording never holds the registry lock.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// A point-in-time read of a whole [`MetricsRegistry`], ordered by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name/value pairs.
    pub counters: Vec<(String, u64)>,
    /// Histogram name/snapshot pairs.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a named counter (created at 0 on first use).
    pub fn add(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        match counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets a named counter to an absolute value (for mirroring an
    /// external monotone atomic into the registry at scrape time).
    pub fn set(&self, name: &str, value: u64) {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), value);
    }

    /// The named histogram, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Reads every counter and histogram at once.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

impl MetricsSnapshot {
    /// Plain-text exposition (one `name value` line per sample, with
    /// `{quantile="..."}` labels on histogram quantiles) — the body the
    /// `--metrics-addr` HTTP endpoint serves.
    pub fn render_text(&self) -> String {
        let mut out = String::from("# cjrc metrics, text exposition\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}{{quantile=\"0.5\"}} {}\n", h.p50));
            out.push_str(&format!("{name}{{quantile=\"0.95\"}} {}\n", h.p95));
            out.push_str(&format!("{name}{{quantile=\"0.99\"}} {}\n", h.p99));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tests that install/drain global recording state must not overlap.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = uninstall();
        {
            let mut s = span("test", "noop");
            assert!(!s.is_recording());
            s.add("counter", 1);
        }
        record_interval("test", "noop-interval", Instant::now());
        install();
        let events = uninstall();
        assert!(
            events.iter().all(|e| e.cat != "test"),
            "disabled spans must leave no events"
        );
    }

    #[test]
    fn nested_spans_record_depth_and_order() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install();
        {
            let mut outer = span("t", "outer");
            outer.add("k", 2);
            outer.add("k", 3);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span("t", "inner");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let events = uninstall();
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        let inner = events.iter().find(|e| e.name == "inner").expect("inner");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.tid, inner.tid);
        assert_eq!(outer.counters, vec![("k", 5)]);
        // The child interval is contained in the parent's.
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
    }

    #[test]
    fn cross_thread_spans_nest_independently() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install();
        let _main_outer = span("t", "main-outer");
        let handles: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    let _a = span("t", "worker-outer");
                    let _b = span("t", "worker-inner");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(_main_outer);
        let events = uninstall();
        let outers: Vec<_> = events.iter().filter(|e| e.name == "worker-outer").collect();
        let inners: Vec<_> = events.iter().filter(|e| e.name == "worker-inner").collect();
        assert_eq!(outers.len(), 2);
        assert_eq!(inners.len(), 2);
        // Each worker starts at depth 0 regardless of the main thread's
        // open span: nesting state is per-thread.
        assert!(outers.iter().all(|e| e.depth == 0));
        assert!(inners.iter().all(|e| e.depth == 1));
        // The two workers got distinct tids, both distinct from main's.
        let main_tid = events.iter().find(|e| e.name == "main-outer").unwrap().tid;
        assert_ne!(outers[0].tid, outers[1].tid);
        assert!(outers.iter().all(|e| e.tid != main_tid));
    }

    #[test]
    fn summary_computes_self_time_by_containment() {
        let events = vec![
            Event {
                cat: "t",
                name: "parent",
                tid: 1,
                ts_us: 0,
                dur_us: 100,
                depth: 0,
                counters: vec![],
            },
            Event {
                cat: "t",
                name: "child",
                tid: 1,
                ts_us: 10,
                dur_us: 30,
                depth: 1,
                counters: vec![],
            },
            Event {
                cat: "t",
                name: "child",
                tid: 1,
                ts_us: 50,
                dur_us: 20,
                depth: 1,
                counters: vec![],
            },
            // Same name on another thread: not a child of tid 1's parent.
            Event {
                cat: "t",
                name: "child",
                tid: 2,
                ts_us: 20,
                dur_us: 40,
                depth: 0,
                counters: vec![],
            },
        ];
        let rows = summarize(&events);
        let parent = rows.iter().find(|r| r.name == "parent").unwrap();
        assert_eq!(parent.total_us, 100);
        assert_eq!(parent.self_us, 50); // 100 - 30 - 20
        let child = rows.iter().find(|r| r.name == "child").unwrap();
        assert_eq!(child.count, 3);
        assert_eq!(child.total_us, 90);
        assert_eq!(child.self_us, 90);
        let table = render_summary(&rows);
        assert!(table.contains("phase"));
        assert!(table.contains("parent"));
    }

    #[test]
    fn histogram_bucket_ranges_partition_the_domain() {
        // Consecutive buckets tile [0, inf): each hi equals the next lo.
        let mut expected_lo = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(lo, expected_lo, "bucket {i} lower bound");
            match hi {
                Some(hi) => {
                    assert!(hi > lo);
                    expected_lo = hi;
                }
                None => assert_eq!(i, HISTOGRAM_BUCKETS - 1),
            }
        }
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.snapshot().count, 0);
    }

    proptest! {
        #[test]
        fn recorded_value_falls_in_its_reported_bucket(value in any::<u64>()) {
            let index = Histogram::bucket_index(value);
            let (lo, hi) = Histogram::bucket_range(index);
            prop_assert!(value >= lo);
            if let Some(hi) = hi {
                prop_assert!(value < hi);
            }
        }

        #[test]
        fn single_value_quantile_bounds_the_value(value in 0u64..1_000_000_000) {
            // Any quantile of a one-value histogram reports that value's
            // bucket upper bound: the value never exceeds the estimate,
            // and the estimate stays within one bucket (2x) of the value.
            let h = Histogram::new();
            h.record(value);
            let p99 = h.quantile(0.99);
            prop_assert!(value <= p99);
            let (lo, _) = Histogram::bucket_range(Histogram::bucket_index(value));
            prop_assert!(p99 >= lo);
        }

        #[test]
        fn quantiles_are_monotone(values in proptest::collection::vec(0u64..10_000_000, 1..64)) {
            let h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            let s = h.snapshot();
            prop_assert!(s.p50 <= s.p95);
            prop_assert!(s.p95 <= s.p99);
            prop_assert!(s.count == values.len() as u64);
            // The max recorded value never exceeds p100.
            let p100 = h.quantile(1.0);
            let max = *values.iter().max().unwrap();
            prop_assert!(max <= p100);
        }
    }

    #[test]
    fn registry_counters_and_histograms_round_trip() {
        let registry = MetricsRegistry::new();
        registry.add("requests_total", 2);
        registry.add("requests_total", 3);
        registry.set("uptime_ms", 1234);
        registry.histogram("request_us_check").record(100);
        registry.histogram("request_us_check").record(200);
        let snapshot = registry.snapshot();
        let counters: BTreeMap<_, _> = snapshot.counters.iter().cloned().collect();
        assert_eq!(counters["requests_total"], 5);
        assert_eq!(counters["uptime_ms"], 1234);
        let (name, h) = &snapshot.histograms[0];
        assert_eq!(name, "request_us_check");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 300);
        let text = snapshot.render_text();
        assert!(text.contains("requests_total 5\n"));
        assert!(text.contains("request_us_check_count 2\n"));
        assert!(text.contains("request_us_check{quantile=\"0.99\"}"));
    }
}
