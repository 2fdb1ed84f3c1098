//! Benchmark-side spans around every call into a layer, and the
//! per-layer self-time table they give.
//!
//! Spans go straight into a [`RingSink`] owned by the benchmark rather
//! than through the global telemetry switch, so the library's own
//! instrumentation stays off and only the benchmark's layer boundaries
//! are recorded. A traced replay nests one `replay` root span around
//! leaf spans, one per layer call; the root's self time is the
//! residual: the replay's wall time minus the sum of the layers.

use crate::report::Report;
use crate::stats::residual;
use ftqc_telemetry::{
    chrome_trace_json, now_ns, summarize, RingSink, TelemetrySink, TraceSnapshot,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name of the root span of one replay.
pub const ROOT: &str = "replay";

/// Every layer span the workloads record, in table order. Each gets a
/// `share.<layer>` metric in every traced run (0 where the workload
/// bypasses the layer).
pub const LAYERS: &[&str] = &[
    "surface.schedule",
    "noise.lower",
    "sim.dem_extract",
    "decoder.graph_build",
    "decoder.decoder_build",
    "sim.sample",
    "sim.scan",
    "decoder.decode",
    "sim.round_extract",
    "decoder.stream",
    "estimator.workload",
    "estimator.estimate",
    "runtime.compile",
    "runtime.execute",
];

/// Records layer spans when on; runs the closures bare when off.
pub struct Tracer {
    sink: Option<Arc<RingSink>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { sink: None }
    }

    /// A tracer recording into a ring of `capacity` events per thread.
    pub fn on(capacity: usize) -> Tracer {
        Tracer {
            sink: Some(Arc::new(RingSink::with_capacity(capacity))),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Runs `f` as one call into layer `name`. Both events are pushed
    /// after `f` returns, so the cost of recording lands outside the
    /// layer's span (in the residual) rather than inside it.
    #[inline]
    pub fn layer<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(sink) = &self.sink else {
            return f();
        };
        let begin = now_ns();
        let out = f();
        let end = now_ns();
        sink.begin_span(name, begin);
        sink.end_span(name, end, &[]);
        out
    }

    /// Runs `f` as the root span that layer spans nest in.
    pub fn root<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(sink) = &self.sink else {
            return f();
        };
        sink.begin_span(ROOT, now_ns());
        let out = f();
        sink.end_span(ROOT, now_ns(), &[]);
        out
    }

    /// Everything recorded since the last call, clearing the ring.
    fn take(&self) -> TraceSnapshot {
        let sink = self.sink.as_ref().expect("take on a tracer that is off");
        let snapshot = sink.snapshot();
        sink.clear();
        snapshot
    }
}

/// Per-layer self time summed over traced replays.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// `(layer, total ns, calls)` in first-seen order.
    layers: Vec<(String, f64, u64)>,
    root_ns: f64,
    replays: u64,
    dropped: u64,
}

impl LayerTable {
    /// Adds one replay's recording.
    pub fn add(&mut self, snapshot: &TraceSnapshot) {
        let summary = summarize(snapshot);
        self.dropped += summary.dropped_events;
        for span in &summary.spans {
            if span.name == ROOT {
                self.root_ns += span.total_ns;
                self.replays += span.count;
                continue;
            }
            match self.layers.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some((_, ns, calls)) => {
                    *ns += span.total_ns;
                    *calls += span.count;
                }
                None => self
                    .layers
                    .push((span.name.clone(), span.total_ns, span.count)),
            }
        }
    }

    /// Total self time of `layer`, ns (0 if never called).
    pub fn ns(&self, layer: &str) -> f64 {
        self.find(layer).map_or(0.0, |(_, ns, _)| *ns)
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: &str) -> u64 {
        self.find(layer).map_or(0, |(_, _, calls)| *calls)
    }

    /// Mean self time of one call into `layer`, ns (0 if never called).
    pub fn ns_per_call(&self, layer: &str) -> f64 {
        match self.calls(layer) {
            0 => 0.0,
            calls => self.ns(layer) / calls as f64,
        }
    }

    /// Number of traced replays added.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Root time not covered by any layer span, ns.
    pub fn residual_ns(&self) -> f64 {
        let layers: Vec<f64> = self.layers.iter().map(|(_, ns, _)| *ns).collect();
        residual(self.root_ns, &layers)
    }

    fn find(&self, layer: &str) -> Option<&(String, f64, u64)> {
        self.layers.iter().find(|(n, _, _)| n == layer)
    }

    fn share(&self, ns: f64) -> f64 {
        if self.root_ns > 0.0 {
            ns / self.root_ns
        } else {
            0.0
        }
    }

    /// Prints the table: one row per layer, largest first, then the
    /// residual row and the total.
    pub fn print(&self, workload: &str) {
        let mut rows: Vec<&(String, f64, u64)> = self.layers.iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!(
            "layer self time, {workload}, {} traced replays",
            self.replays
        );
        println!(
            "  {:<24} {:>10} {:>14} {:>8}",
            "layer", "calls", "self ms", "share"
        );
        for (name, ns, calls) in rows {
            println!(
                "  {name:<24} {calls:>10} {:>14.3} {:>7.2}%",
                ns / 1e6,
                100.0 * self.share(*ns)
            );
        }
        let residual = self.residual_ns();
        println!(
            "  {:<24} {:>10} {:>14.3} {:>7.2}%",
            "residual",
            "-",
            residual / 1e6,
            100.0 * self.share(residual)
        );
        println!("  {:<24} {:>10} {:>14.3}", "total", "-", self.root_ns / 1e6);
    }

    /// Records `share.<layer>` for every declared layer and
    /// `share.residual`, plus a check that no span was dropped.
    pub fn report_shares(&self, report: &mut Report) {
        report.check(
            format!(
                "traced replays recorded every span ({} dropped)",
                self.dropped
            ),
            self.dropped == 0,
        );
        for layer in LAYERS {
            report.metric(
                format!("share.{layer}"),
                "fraction",
                self.share(self.ns(layer)),
            );
        }
        report.metric("share.residual", "fraction", self.share(self.residual_ns()));
    }
}

/// Result of [`attribute`].
pub struct Attribution {
    /// Per-layer self time over every traced replay.
    pub table: LayerTable,
    /// Traced wall time over untraced wall time, minus one.
    pub trace_overhead_share: f64,
}

/// Runs `replay` alternately untraced and traced, at least once each
/// and until `budget` is spent. The first traced replay is written as
/// a Chrome trace (Perfetto-loadable) to `trace_path`.
pub fn attribute(
    budget: Duration,
    capacity: usize,
    trace_path: &std::path::Path,
    mut replay: impl FnMut(&Tracer),
) -> Attribution {
    let off = Tracer::off();
    let on = Tracer::on(capacity);
    let mut table = LayerTable::default();
    let (mut off_s, mut on_s) = (0.0, 0.0);
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        replay(&off);
        off_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        on.root(|| replay(&on));
        on_s += t0.elapsed().as_secs_f64();
        let snapshot = on.take();
        if table.replays() == 0 {
            write_trace(trace_path, &snapshot);
        }
        table.add(&snapshot);
        if start.elapsed() >= budget {
            break;
        }
    }
    Attribution {
        table,
        trace_overhead_share: on_s / off_s - 1.0,
    }
}

fn write_trace(path: &std::path::Path, snapshot: &TraceSnapshot) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, chrome_trace_json(snapshot)));
    match written {
        Ok(()) => println!("chrome trace written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_nanos() < u128::from(ns) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn root_self_time_is_the_residual() {
        let tracer = Tracer::on(64);
        tracer.root(|| {
            tracer.layer("sim.sample", || busy(200_000));
            busy(100_000);
            tracer.layer("decoder.decode", || busy(300_000));
            tracer.layer("decoder.decode", || busy(300_000));
        });
        let mut table = LayerTable::default();
        table.add(&tracer.take());
        assert_eq!(table.replays(), 1);
        assert_eq!(table.calls("decoder.decode"), 2);
        assert_eq!(table.calls("sim.scan"), 0);
        assert!(table.ns("sim.sample") >= 200_000.0);
        assert!(table.ns("decoder.decode") >= 600_000.0);
        assert!(table.residual_ns() >= 100_000.0);
        // The table partitions the root exactly.
        let total = table.ns("sim.sample") + table.ns("decoder.decode") + table.residual_ns();
        assert!((total - table.root_ns).abs() < 1e-6);
        let mut report = Report::default();
        table.report_shares(&mut report);
        let shares: f64 = report
            .metrics()
            .iter()
            .filter(|m| m.name.starts_with("share."))
            .map(|m| m.value)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        assert!(report
            .metrics()
            .iter()
            .any(|m| m.name == "share.runtime.execute"));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing_but_runs_everything() {
        let tracer = Tracer::off();
        let mut ran = 0;
        tracer.root(|| tracer.layer("sim.scan", || ran += 1));
        assert_eq!(ran, 1);
        assert!(!tracer.is_on());
    }
}
