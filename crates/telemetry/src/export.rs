//! Trace export: Chrome trace-event JSON and aggregated summaries.
//!
//! Both exports are derived from one [`TraceSnapshot`], so a single
//! recording yields a Perfetto-loadable timeline *and* a machine-readable
//! attribution table. The JSON is hand-rolled on the crate's shared
//! [`json`](crate::json) escaper (no serde; the build is offline).
//!
//! Trace schema (the subset of the Chrome trace-event format we emit):
//!
//! - top level: `{"traceEvents": [...], "displayTimeUnit": "ns",
//!   "otherData": {...}}`
//! - every event object carries `name`, `ph`, `ts` (microseconds, 3 decimal
//!   places), `pid` (always 1), and `tid` (per-thread ring id)
//! - `ph` is one of `"B"`/`"E"` (span begin/end, balanced per thread),
//!   `"i"` (instant, scope `"t"`), `"C"` (counter / histogram sample), or
//!   `"M"` (one `thread_name` metadata event per thread)
//! - span-end and instant events carry their [`Arg`] pairs under `args`

use crate::json::push_json_str;
use crate::ring::{EventKind, TraceSnapshot};
use crate::Arg;
use std::fmt::Write as _;

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_args_object(out: &mut String, args: &[Arg]) {
    out.push('{');
    for (i, arg) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, arg.key);
        out.push(':');
        push_json_f64(out, arg.value);
    }
    out.push('}');
}

fn push_event_head(out: &mut String, name: &str, ph: &str, ts_ns: u64, tid: u32) {
    out.push_str("{\"name\":");
    push_json_str(out, name);
    let _ = write!(
        out,
        ",\"ph\":\"{ph}\",\"ts\":{:.3},\"pid\":1,\"tid\":{tid}",
        ts_ns as f64 / 1000.0
    );
}

/// Renders a snapshot as Chrome trace-event JSON (loadable in Perfetto or
/// `chrome://tracing`).
pub fn chrome_trace_json(snapshot: &TraceSnapshot) -> String {
    let total_events: usize = snapshot.threads.iter().map(|t| t.events.len()).sum();
    let mut out = String::with_capacity(128 * (total_events + snapshot.counters.len() + 4));
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push_sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };
    let mut end_ts = 0u64;
    for thread in &snapshot.threads {
        push_sep(&mut out);
        out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{}", thread.tid);
        out.push_str(",\"args\":{\"name\":");
        push_json_str(&mut out, &format!("ftqc-thread-{}", thread.tid));
        out.push_str("}}");
        for event in &thread.events {
            end_ts = end_ts.max(event.ts_ns);
            push_sep(&mut out);
            match event.kind {
                EventKind::Begin => {
                    push_event_head(&mut out, event.name, "B", event.ts_ns, thread.tid);
                    out.push('}');
                }
                EventKind::End => {
                    push_event_head(&mut out, event.name, "E", event.ts_ns, thread.tid);
                    out.push_str(",\"args\":");
                    push_args_object(&mut out, event.args());
                    out.push('}');
                }
                EventKind::Instant => {
                    push_event_head(&mut out, event.name, "i", event.ts_ns, thread.tid);
                    out.push_str(",\"s\":\"t\",\"args\":");
                    push_args_object(&mut out, event.args());
                    out.push('}');
                }
                EventKind::Sample => {
                    push_event_head(&mut out, event.name, "C", event.ts_ns, thread.tid);
                    out.push_str(",\"args\":");
                    push_args_object(&mut out, event.args());
                    out.push('}');
                }
            }
        }
    }
    // Counter totals as one trailing counter event each, timestamped at the
    // end of the recording so they do not distort the timeline.
    for (name, total) in &snapshot.counters {
        push_sep(&mut out);
        push_event_head(&mut out, name, "C", end_ts, 0);
        out.push_str(",\"args\":{\"value\":");
        let _ = write!(out, "{total}");
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ns\",\"otherData\":{");
    let dropped: u64 = snapshot.threads.iter().map(|t| t.dropped).sum();
    let _ = write!(out, "\"dropped_events\":{dropped}");
    for (key, text) in &snapshot.annotations {
        out.push(',');
        push_json_str(&mut out, key);
        out.push(':');
        push_json_str(&mut out, text);
    }
    out.push_str("}}");
    out
}

/// Aggregated statistics for one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStats {
    /// Span name.
    pub name: String,
    /// Number of completed (begin/end matched) spans.
    pub count: u64,
    /// Sum of span durations in nanoseconds.
    pub total_ns: f64,
    /// Median span duration (nearest rank).
    pub p50_ns: f64,
    /// 99th-percentile span duration (nearest rank).
    pub p99_ns: f64,
    /// Longest span duration.
    pub max_ns: f64,
}

/// Final total for one counter name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterTotal {
    /// Counter name.
    pub name: String,
    /// Exact total across all threads.
    pub total: u64,
}

/// Aggregated statistics for one histogram-sample series.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleStats {
    /// Sample series name.
    pub name: String,
    /// Number of samples recorded (and retained by the ring).
    pub count: u64,
    /// Median sample value (nearest rank).
    pub p50: f64,
    /// 99th-percentile sample value (nearest rank).
    pub p99: f64,
    /// Largest sample value.
    pub max: f64,
}

/// The aggregated-metrics view of a recording: per-span duration stats,
/// exact counter totals, and per-series sample stats.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Span duration statistics, sorted by name.
    pub spans: Vec<SpanStats>,
    /// Counter totals, sorted by name.
    pub counters: Vec<CounterTotal>,
    /// Histogram-sample statistics, sorted by name.
    pub samples: Vec<SampleStats>,
    /// Events lost to ring overflow (span stats undercount if nonzero).
    pub dropped_events: u64,
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Computes the aggregated summary of a snapshot.
///
/// Span durations are reconstructed per thread by matching each `End` event
/// to the most recent unmatched `Begin` of the same name (spans may nest).
pub fn summarize(snapshot: &TraceSnapshot) -> Summary {
    let mut span_durations: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut sample_values: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let record = |table: &mut Vec<(&'static str, Vec<f64>)>, name: &'static str, v: f64| match table
        .iter_mut()
        .find(|(n, _)| *n == name)
    {
        Some((_, vs)) => vs.push(v),
        None => table.push((name, vec![v])),
    };
    let mut stack: Vec<(&'static str, u64)> = Vec::new();
    for thread in &snapshot.threads {
        stack.clear();
        for event in &thread.events {
            match event.kind {
                EventKind::Begin => stack.push((event.name, event.ts_ns)),
                EventKind::End => {
                    if let Some(pos) = stack.iter().rposition(|(n, _)| *n == event.name) {
                        let (_, begin_ts) = stack.remove(pos);
                        let duration = event.ts_ns.saturating_sub(begin_ts) as f64;
                        record(&mut span_durations, event.name, duration);
                    }
                }
                EventKind::Sample => {
                    let value = event.args().first().map_or(0.0, |a| a.value);
                    record(&mut sample_values, event.name, value);
                }
                EventKind::Instant => {}
            }
        }
    }
    let mut spans: Vec<SpanStats> = span_durations
        .into_iter()
        .map(|(name, mut durations)| {
            durations.sort_by(|a, b| a.total_cmp(b));
            SpanStats {
                name: name.to_string(),
                count: durations.len() as u64,
                total_ns: durations.iter().sum(),
                p50_ns: nearest_rank(&durations, 0.50),
                p99_ns: nearest_rank(&durations, 0.99),
                max_ns: durations.last().copied().unwrap_or(0.0),
            }
        })
        .collect();
    spans.sort_by(|a, b| a.name.cmp(&b.name));
    let mut samples: Vec<SampleStats> = sample_values
        .into_iter()
        .map(|(name, mut values)| {
            values.sort_by(|a, b| a.total_cmp(b));
            SampleStats {
                name: name.to_string(),
                count: values.len() as u64,
                p50: nearest_rank(&values, 0.50),
                p99: nearest_rank(&values, 0.99),
                max: values.last().copied().unwrap_or(0.0),
            }
        })
        .collect();
    samples.sort_by(|a, b| a.name.cmp(&b.name));
    Summary {
        spans,
        counters: snapshot
            .counters
            .iter()
            .map(|(name, total)| CounterTotal {
                name: name.clone(),
                total: *total,
            })
            .collect(),
        samples,
        dropped_events: snapshot.threads.iter().map(|t| t.dropped).sum(),
    }
}

/// Renders a [`Summary`] as JSON (`schema: 1`).
pub fn summary_json(summary: &Summary) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":1,\"spans\":[");
    for (i, s) in summary.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, &s.name);
        let _ = write!(out, ",\"count\":{}", s.count);
        out.push_str(",\"total_ns\":");
        push_json_f64(&mut out, s.total_ns);
        out.push_str(",\"p50_ns\":");
        push_json_f64(&mut out, s.p50_ns);
        out.push_str(",\"p99_ns\":");
        push_json_f64(&mut out, s.p99_ns);
        out.push_str(",\"max_ns\":");
        push_json_f64(&mut out, s.max_ns);
        out.push('}');
    }
    out.push_str("],\"counters\":[");
    for (i, c) in summary.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, &c.name);
        let _ = write!(out, ",\"total\":{}}}", c.total);
    }
    out.push_str("],\"samples\":[");
    for (i, s) in summary.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, &s.name);
        let _ = write!(out, ",\"count\":{}", s.count);
        out.push_str(",\"p50\":");
        push_json_f64(&mut out, s.p50);
        out.push_str(",\"p99\":");
        push_json_f64(&mut out, s.p99);
        out.push_str(",\"max\":");
        push_json_f64(&mut out, s.max);
        out.push('}');
    }
    let _ = write!(out, "],\"dropped_events\":{}}}", summary.dropped_events);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingSink;
    use crate::TelemetrySink;

    fn sample_snapshot() -> TraceSnapshot {
        let sink = RingSink::with_capacity(64);
        sink.begin_span("outer", 1_000);
        sink.begin_span("inner", 2_000);
        sink.end_span("inner", 2_500, &[Arg::new("n", 3.0)]);
        sink.end_span("outer", 5_000, &[]);
        sink.begin_span("inner", 6_000);
        sink.end_span("inner", 6_300, &[]);
        sink.instant("marker", 7_000, &[Arg::new("slack", 42.0)]);
        sink.counter("shots", 64);
        sink.sample("weight", 5.0);
        sink.annotate("policy", "hybrid(1000)");
        sink.snapshot()
    }

    #[test]
    fn chrome_trace_has_required_fields() {
        let json = chrome_trace_json(&sample_snapshot());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"policy\":\"hybrid(1000)\""));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn summarize_matches_nested_spans() {
        let summary = summarize(&sample_snapshot());
        let inner = summary.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.count, 2);
        assert_eq!(inner.total_ns, 800.0);
        // Nearest rank rounds half away from zero: of [300, 500], p50 = 500.
        assert_eq!(inner.p50_ns, 500.0);
        assert_eq!(inner.max_ns, 500.0);
        let outer = summary.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(outer.total_ns, 4_000.0);
        assert_eq!(summary.counters[0].total, 64);
        assert_eq!(summary.samples[0].count, 1);
        assert_eq!(summary.samples[0].max, 5.0);
    }

    #[test]
    fn unmatched_end_is_ignored() {
        let sink = RingSink::with_capacity(8);
        sink.end_span("orphan", 10, &[]);
        sink.begin_span("open", 20);
        let summary = summarize(&sink.snapshot());
        assert!(summary.spans.is_empty());
    }

    #[test]
    fn summary_json_round_trips_key_fields() {
        let json = summary_json(&summarize(&sample_snapshot()));
        assert!(json.starts_with("{\"schema\":1"));
        assert!(json.contains("\"name\":\"inner\",\"count\":2"));
        assert!(json.contains("\"total\":64"));
        assert!(json.ends_with("\"dropped_events\":0}"));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        let original = "a\"b\\c\nd\u{1}\r\té";
        push_json_str(&mut out, original);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\\r\\té\"");
        assert_eq!(
            crate::json::Value::parse(&out),
            Ok(crate::json::Value::String(original.into()))
        );
        // Names and annotations in a trace go through the same escaper.
        let sink = RingSink::with_capacity(8);
        sink.annotate("k\"ey", "tab\there");
        let json = chrome_trace_json(&sink.snapshot());
        let doc = crate::json::Value::parse(&json).unwrap();
        let other = doc.field("otherData").unwrap();
        assert_eq!(other.get_str("k\"ey"), Some("tab\there"));
    }
}
