//! Zero-overhead-when-disabled instrumentation for the decode + runtime
//! stack.
//!
//! The paper's evaluation is an *attribution* argument: program runtime is
//! decomposed into policy-attributed idle, extra rounds, and alignment
//! padding. End-of-run aggregates (`ProgramReport`, bench medians) can say
//! *how much* — they cannot say *where inside a run* slack spiked or which
//! stage of a decode round blew the cadence budget. This crate records the
//! missing time series: typed events (spans, counters, histogram samples)
//! flowing into per-thread preallocated ring buffers, exported as Chrome
//! trace-event JSON (loadable in Perfetto) and as an aggregated summary.
//!
//! # Cost model
//!
//! Instrumentation lives inside paths that decode a round in ~40 ns, so the
//! disabled path must be invisible:
//!
//! - **Disabled** (the default): every public recording function begins with
//!   a single `Relaxed` load of a process-global [`AtomicBool`] and returns.
//!   No timestamp is taken, no lock touched, no allocation made. The
//!   `telemetry-overhead` bench scenario measures this path and the CI
//!   compare gate holds it to the same 25% envelope as the decode scenarios.
//! - **Enabled**: events append into a fixed-capacity per-thread ring owned
//!   by the installed [`RingSink`]. Steady-state recording performs zero
//!   allocations (proven by a counting-allocator test in `ftqc-bench`);
//!   overflow drops the newest events and counts them rather than growing.
//!
//! # Sink contract
//!
//! Recording is routed through a process-global [`TelemetrySink`]. The
//! trait's methods must be cheap, non-blocking with respect to other
//! threads (per-thread buffers, not a shared queue), and must not allocate
//! in steady state. [`NullSink`] implements every method as a no-op; when no
//! sink is installed the enabled flag stays `false`, so the optimizer never
//! even reaches a virtual call.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(ftqc_telemetry::RingSink::with_capacity(1024));
//! ftqc_telemetry::install(sink.clone());
//!
//! {
//!     let _span = ftqc_telemetry::span("demo/work");
//!     ftqc_telemetry::counter("demo/items", 3);
//!     ftqc_telemetry::sample("demo/latency_ns", 17.0);
//! }
//!
//! ftqc_telemetry::uninstall();
//! let snapshot = sink.snapshot();
//! let json = ftqc_telemetry::chrome_trace_json(&snapshot);
//! assert!(json.contains("\"demo/work\""));
//! let summary = ftqc_telemetry::summarize(&snapshot);
//! assert_eq!(summary.spans[0].count, 1);
//! ```

mod export;
pub mod json;
mod ring;

pub use export::{
    chrome_trace_json, summarize, summary_json, CounterTotal, SampleStats, SpanStats, Summary,
};
pub use ring::{RingSink, ThreadEvents, TraceSnapshot, DEFAULT_CAPACITY};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Maximum number of [`Arg`] key/value pairs attachable to one event.
///
/// Events embed their arguments inline (`[Arg; MAX_ARGS]`) so recording
/// never allocates; extra arguments beyond this bound are silently ignored.
pub const MAX_ARGS: usize = 4;

/// A key/value argument attached to a span end or instant event.
///
/// Values are `f64` so one representation covers counts, durations, and
/// ratios; keys are `&'static str` so attaching an argument never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arg {
    /// Argument name as it appears in the exported trace's `args` object.
    pub key: &'static str,
    /// Argument value.
    pub value: f64,
}

impl Arg {
    /// Builds an argument pair.
    #[inline]
    pub fn new(key: &'static str, value: f64) -> Self {
        Arg { key, value }
    }
}

impl Default for Arg {
    fn default() -> Self {
        Arg {
            key: "",
            value: 0.0,
        }
    }
}

/// Destination for recorded events.
///
/// Implementations must be cheap and allocation-free in steady state: these
/// methods run inside decode hot loops. All methods default to no-ops so a
/// sink may implement only the event kinds it cares about.
pub trait TelemetrySink: Send + Sync {
    /// A span named `name` began at `ts_ns` (nanoseconds since the process
    /// time anchor) on the calling thread.
    fn begin_span(&self, name: &'static str, ts_ns: u64) {
        let _ = (name, ts_ns);
    }

    /// The most recent open span named `name` on the calling thread ended
    /// at `ts_ns`, carrying up to [`MAX_ARGS`] arguments.
    fn end_span(&self, name: &'static str, ts_ns: u64, args: &[Arg]) {
        let _ = (name, ts_ns, args);
    }

    /// Adds `delta` to the counter named `name`.
    fn counter(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Records one histogram sample for `name`.
    fn sample(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records a zero-duration marker at `ts_ns` with arguments.
    fn instant(&self, name: &'static str, ts_ns: u64, args: &[Arg]) {
        let _ = (name, ts_ns, args);
    }

    /// Attaches free-form run metadata (e.g. the active policy spec).
    /// Unlike the event methods this may allocate; it is called outside hot
    /// loops.
    fn annotate(&self, key: &'static str, text: &str) {
        let _ = (key, text);
    }
}

/// A sink that discards everything.
///
/// Installing `NullSink` flips the enabled flag on while keeping recording
/// free of side effects — useful for measuring the enabled-path dispatch
/// cost in isolation. With *no* sink installed the flag stays off and the
/// virtual calls below are never reached at all.
#[derive(Debug, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ANCHOR: OnceLock<Instant> = OnceLock::new();

#[allow(clippy::type_complexity)]
static SINK: RwLock<Option<Arc<dyn TelemetrySink>>> = RwLock::new(None);

/// Returns whether a sink is installed.
///
/// This is the entire disabled-path cost: one `Relaxed` atomic load. Code
/// with a non-trivial argument-gathering step should branch on this before
/// computing arguments.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the process-global recording destination and enables
/// recording. Replaces any previously installed sink.
pub fn install(sink: Arc<dyn TelemetrySink>) {
    let mut slot = SINK.write().expect("telemetry sink lock poisoned");
    *slot = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables recording and drops the installed sink reference.
///
/// Returns the sink that was installed, if any, so callers holding the only
/// other `Arc` can snapshot it afterwards.
pub fn uninstall() -> Option<Arc<dyn TelemetrySink>> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut slot = SINK.write().expect("telemetry sink lock poisoned");
    slot.take()
}

/// Nanoseconds since the process-wide time anchor (first telemetry use).
///
/// All event timestamps share this anchor, so cross-thread orderings in an
/// exported trace are meaningful.
#[inline]
pub fn now_ns() -> u64 {
    let anchor = ANCHOR.get_or_init(Instant::now);
    anchor.elapsed().as_nanos() as u64
}

#[inline]
fn with_sink(f: impl FnOnce(&dyn TelemetrySink)) {
    // Read lock, not a clone: recording must not bump the Arc refcount in
    // the hot path, and writers (install/uninstall) are rare.
    if let Ok(slot) = SINK.read() {
        if let Some(sink) = slot.as_deref() {
            f(sink);
        }
    }
}

/// RAII guard for a named span: records a begin event on creation and the
/// matching end event on drop (or via [`Span::end_with`]).
///
/// When telemetry is disabled the guard is disarmed: creation is one atomic
/// load and drop is one branch on a bool.
#[must_use = "a span measures the scope it is alive for; binding to _ drops it immediately"]
pub struct Span {
    name: &'static str,
    armed: bool,
}

impl Span {
    /// Ends the span now, attaching up to [`MAX_ARGS`] arguments to the end
    /// event.
    pub fn end_with(mut self, args: &[Arg]) {
        if self.armed {
            self.armed = false;
            let ts = now_ns();
            with_sink(|s| s.end_span(self.name, ts, args));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            let ts = now_ns();
            with_sink(|s| s.end_span(self.name, ts, &[]));
        }
    }
}

/// Opens a span named `name`, recording its begin timestamp.
///
/// `name` must be `'static` (typically a literal like `"decode/union-find"`)
/// so recording never allocates or copies strings.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, armed: false };
    }
    let ts = now_ns();
    with_sink(|s| s.begin_span(name, ts));
    Span { name, armed: true }
}

/// Adds `delta` to the counter named `name`.
///
/// Counter totals are aggregated exactly (they are not subject to ring
/// overflow) and exported both as Chrome `C` events and as summary totals.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_sink(|s| s.counter(name, delta));
}

/// Records one histogram sample for `name`; the summary reports
/// count/p50/p99/max per sample name.
#[inline]
pub fn sample(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_sink(|s| s.sample(name, value));
}

/// Records a zero-duration marker with arguments (e.g. one merge event with
/// its slack decomposition).
#[inline]
pub fn instant(name: &'static str, args: &[Arg]) {
    if !enabled() {
        return;
    }
    let ts = now_ns();
    with_sink(|s| s.instant(name, ts, args));
}

/// Attaches free-form metadata to the recording (exported under
/// `otherData`). Safe to call from cold paths only — may allocate.
#[inline]
pub fn annotate(key: &'static str, text: &str) {
    if !enabled() {
        return;
    }
    with_sink(|s| s.annotate(key, text));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Tests in this module mutate the process-global sink; serialize them.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_span_disarmed() {
        let _g = GUARD.lock().unwrap();
        uninstall();
        assert!(!enabled());
        let s = span("test/noop");
        assert!(!s.armed);
        drop(s);
        counter("test/noop", 1);
        sample("test/noop", 1.0);
        instant("test/noop", &[]);
    }

    #[test]
    fn install_uninstall_round_trip() {
        let _g = GUARD.lock().unwrap();
        let sink = Arc::new(RingSink::with_capacity(64));
        install(sink.clone());
        assert!(enabled());
        {
            let s = span("test/span");
            counter("test/count", 2);
            s.end_with(&[Arg::new("k", 1.0)]);
        }
        uninstall();
        assert!(!enabled());
        let snap = sink.snapshot();
        let events: usize = snap.threads.iter().map(|t| t.events.len()).sum();
        assert_eq!(events, 2, "one begin + one end");
        assert_eq!(snap.counters, vec![("test/count".to_string(), 2)]);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let _g = GUARD.lock().unwrap();
        install(Arc::new(NullSink));
        assert!(enabled());
        let s = span("test/null");
        s.end_with(&[Arg::new("a", 0.5)]);
        counter("test/null", 1);
        sample("test/null", 2.0);
        instant("test/null", &[Arg::new("b", 1.0)]);
        annotate("test/null", "meta");
        uninstall();
    }

    #[test]
    fn timestamps_are_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
