//! Chrome trace-event schema validation for telemetry exports.
//!
//! `ftqc_telemetry::chrome_trace_json` promises a well-formed subset of
//! the Chrome trace-event format (see the `export` module docs): these
//! tests parse an emitted trace back through the shared JSON reader
//! and check the structural invariants a trace viewer relies on —
//! every `E` closes a matching `B` on the same thread, timestamps are
//! monotone per thread, and every event carries `name`/`ph`/`pid`/`tid`.

use ftqc_telemetry::json::Value;
use ftqc_telemetry::{Arg, RingSink, TelemetrySink};
use std::sync::Arc;

/// Validates one trace document against the emitted-schema contract and
/// returns the number of non-metadata events seen.
fn validate_chrome_trace(json: &str) -> usize {
    let doc = Value::parse(json).expect("trace is valid JSON");
    assert_eq!(doc.get_str("displayTimeUnit"), Some("ns"));
    let other = doc.field("otherData").expect("otherData present");
    assert!(other.get_f64("dropped_events").is_some());
    let events = doc
        .field("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");

    // Per-tid open-span stacks and monotonicity watermarks.
    let mut stacks: Vec<(i64, Vec<String>)> = Vec::new();
    let mut last_ts: Vec<(i64, f64)> = Vec::new();
    let mut seen = 0usize;
    for event in events {
        let name = event.get_str("name").expect("event has name");
        let ph = event.get_str("ph").expect("event has ph");
        assert_eq!(event.get_f64("pid"), Some(1.0), "pid is always 1");
        let tid = event.get_f64("tid").expect("event has tid") as i64;
        if ph == "M" {
            assert_eq!(name, "thread_name");
            assert!(event
                .field("args")
                .and_then(|a| a.get_str("name"))
                .is_some());
            continue;
        }
        seen += 1;
        let ts = event.get_f64("ts").expect("event has ts");
        match last_ts.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, prev)) => {
                assert!(ts >= *prev, "tid {tid}: ts went backwards ({prev} -> {ts})");
                *prev = ts;
            }
            None => last_ts.push((tid, ts)),
        }
        let stack = match stacks.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, s)) => s,
            None => {
                stacks.push((tid, Vec::new()));
                &mut stacks.last_mut().unwrap().1
            }
        };
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                let pos = stack
                    .iter()
                    .rposition(|open| open == name)
                    .unwrap_or_else(|| panic!("tid {tid}: E '{name}' without open B"));
                stack.remove(pos);
                assert!(event.field("args").is_some());
            }
            "i" => assert_eq!(event.get_str("s"), Some("t"), "instant scope"),
            "C" => assert!(event.field("args").is_some()),
            other => panic!("unexpected ph '{other}'"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "tid {tid}: unclosed spans at end of trace: {stack:?}"
        );
    }
    seen
}

#[test]
fn constructed_trace_validates() {
    // Drive a sink directly (no global install — keeps tests in this
    // binary independent) with nested and repeated spans, instants,
    // samples, counters, and a second recording thread.
    let sink = Arc::new(RingSink::with_capacity(64));
    sink.begin_span("outer", 1_000);
    sink.begin_span("inner", 2_000);
    sink.end_span("inner", 2_500, &[Arg::new("n", 3.0)]);
    sink.instant("marker", 3_000, &[Arg::new("slack", 42.0)]);
    sink.end_span("outer", 5_000, &[]);
    sink.begin_span("inner", 6_000);
    sink.end_span("inner", 6_250, &[]);
    // No sink.sample() here: samples self-stamp with the real clock,
    // which would interleave with these hand-written timestamps. The
    // global-API test below covers samples.
    sink.counter("shots", 128);
    sink.annotate("policy", "hybrid(400)");
    let worker = sink.clone();
    std::thread::spawn(move || {
        worker.begin_span("worker", 1_500);
        worker.end_span("worker", 4_500, &[]);
        worker.counter("shots", 64);
    })
    .join()
    .unwrap();

    let json = ftqc_telemetry::chrome_trace_json(&sink.snapshot());
    let seen = validate_chrome_trace(&json);
    // 7 span/instant events on the main thread, 2 on the worker, plus
    // one trailing counter-total event.
    assert_eq!(seen, 10);
    assert!(json.contains("\"policy\":\"hybrid(400)\""));
}

#[test]
fn globally_recorded_trace_validates() {
    // The same contract must hold for a recording produced through the
    // global API — real `now_ns` timestamps, the span guard, nesting.
    let sink = Arc::new(RingSink::with_capacity(1 << 10));
    ftqc_telemetry::install(sink.clone());
    for i in 0..50 {
        let outer = ftqc_telemetry::span("t/outer");
        {
            let inner = ftqc_telemetry::span("t/inner");
            ftqc_telemetry::counter("t/iterations", 1);
            inner.end_with(&[Arg::new("i", i as f64)]);
        }
        ftqc_telemetry::instant("t/mark", &[]);
        ftqc_telemetry::sample("t/value", i as f64);
        outer.end_with(&[]);
    }
    ftqc_telemetry::uninstall();

    let snapshot = sink.snapshot();
    let json = ftqc_telemetry::chrome_trace_json(&snapshot);
    // 50 iterations x (B,E,B,E,i,C-sample) + 1 counter total.
    assert_eq!(validate_chrome_trace(&json), 50 * 6 + 1);

    // The summary derived from the same snapshot agrees on counts.
    let summary = ftqc_telemetry::summarize(&snapshot);
    let outer = summary.spans.iter().find(|s| s.name == "t/outer").unwrap();
    let inner = summary.spans.iter().find(|s| s.name == "t/inner").unwrap();
    assert_eq!((outer.count, inner.count), (50, 50));
    assert_eq!(summary.counters[0].total, 50);
    assert_eq!(summary.dropped_events, 0);
}
