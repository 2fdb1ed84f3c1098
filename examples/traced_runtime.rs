//! Record a cross-layer telemetry trace of the full stack — sampling,
//! batch decoding, streaming commits, adaptive stopping, and runtime
//! merges — then export it as Chrome trace-event JSON (open the file in
//! Perfetto or `chrome://tracing`) alongside an aggregated summary.
//!
//! ```text
//! cargo run --release --example traced_runtime [OUT_DIR]
//! ```
//!
//! Writes `OUT_DIR/traced_runtime.trace.json` and
//! `OUT_DIR/traced_runtime.summary.json` (default `OUT_DIR`: `results`),
//! and prints the span-attribution table — where the nanoseconds went.

use ftqc::decoder::{DecoderKind, StreamingConfig};
use ftqc::estimator::{workloads, LogicalEstimate};
use ftqc::experiments::EvalPipeline;
use ftqc::noise::HardwareConfig;
use ftqc::runtime::{execute, ProgramSchedule, RuntimeConfig};
use ftqc::sim::{sample_batch, RoundSchedule, RoundStream, StopRule};
use ftqc::surface::MemoryConfig;
use ftqc::sync::PolicySpec;
use ftqc::telemetry::{self, RingSink};
use std::sync::Arc;

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    // Everything recorded between install and uninstall lands in the
    // sink; with no sink installed the same code records nothing and
    // pays a single atomic load per call site.
    let sink = Arc::new(RingSink::new());
    telemetry::install(sink.clone());
    telemetry::annotate("example", "traced_runtime");

    // --- Layers 1, 2, 4: sample + batch-decode a d=3 memory under an
    // adaptive stop rule (spans: sim/sample_batch, sim/scan_block,
    // decode/count_batch, decode/union-find; events: exp/adaptive_batch).
    let hw = HardwareConfig::ibm();
    let pipeline = EvalPipeline::memory(MemoryConfig::new(3, 4, &hw))
        .physical_error(3e-3)
        .decoder(DecoderKind::UnionFind)
        .batch_shots(512)
        .seed(7)
        .build();
    let outcome = pipeline.run_adaptive(&StopRule::max_shots(2_048));
    println!("adaptive run: {} shots decoded", outcome.shots());

    // --- Layer 2, streaming path: push a few shots round by round
    // through the sliding-window decoder (events: stream/commit, with
    // window occupancy and running decode count).
    let schedule = RoundSchedule::from_circuit(pipeline.circuit());
    let batch = sample_batch(pipeline.circuit(), 64, 7);
    let mut rounds = RoundStream::new(&schedule);
    let mut stream = StreamingConfig::fused(2, 1).build(pipeline.decoder(), &schedule);
    let mut defects = Vec::with_capacity(schedule.max_round_len());
    rounds.begin_batch(&batch);
    for shot in 0..batch.shots.min(16) {
        rounds.begin_shot(shot);
        stream.begin_shot();
        while rounds.next_round_into(&batch, &mut defects).is_some() {
            let _ = stream.push_round(&defects);
        }
        let _ = stream.finish_shot();
    }

    // --- Layer 3: execute one workload's merge schedule under two
    // policies (spans: runtime/execute; events: runtime/merge with
    // per-merge slack and attributed idle).
    let workload = &workloads::catalog()[0];
    let estimate = LogicalEstimate::for_workload(workload, 1e-3, 1e-2);
    let program = ProgramSchedule::compile(workload, &estimate, 2_000, 7);
    for spec in ["passive", "dynamic-hybrid"] {
        let policy: PolicySpec = spec.parse().expect("valid policy spec");
        let report = execute(&program, &RuntimeConfig::new(&hw, policy, 7));
        println!(
            "{}: {} merges under {spec}, overhead {:.3}%",
            report.workload,
            report.merges,
            report.overhead_percent(),
        );
    }

    // --- Export: one recording, two views.
    telemetry::uninstall();
    let snapshot = sink.snapshot();
    let trace_path = format!("{out_dir}/traced_runtime.trace.json");
    std::fs::write(&trace_path, telemetry::chrome_trace_json(&snapshot)).expect("write trace file");
    let summary = telemetry::summarize(&snapshot);
    let summary_path = format!("{out_dir}/traced_runtime.summary.json");
    std::fs::write(&summary_path, telemetry::summary_json(&summary)).expect("write summary file");

    println!(
        "\n{:<24} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "p50 (ns)", "p99 (ns)", "total (us)"
    );
    for span in &summary.spans {
        println!(
            "{:<24} {:>8} {:>12.0} {:>12.0} {:>12.1}",
            span.name,
            span.count,
            span.p50_ns,
            span.p99_ns,
            span.total_ns / 1e3,
        );
    }
    println!();
    for counter in &summary.counters {
        println!("{:<24} {:>8}", counter.name, counter.total);
    }
    println!("\nwrote {trace_path} (+ {summary_path}) — load the trace in Perfetto");
}
