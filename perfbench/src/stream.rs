//! `stream-fused`: decoding syndrome rounds as they arrive.
//!
//! A d = 5 memory experiment on IBM hardware at p = 1e-3, 3d rounds
//! long, decoded by union-find through `StreamingConfig::fused(d, 1)`.
//! Pre-sampled shots are replayed round by round: each round is
//! extracted (`RoundStream::next_round_into`) and pushed, and the tail
//! is flushed; every `push_round` / `flush_round` call is one timed
//! round event. The loop is closed: the next round is fed as soon as
//! the last event returns, so the rate reported is the sustainable one
//! of one decoder thread.

use crate::common::{batch_seed, layered_chain, report_setup_layers, timed, timed_setups, Passes};
use crate::report::Report;
use crate::stats::{median, share_over, Latency};
use crate::trace::{attribute, Tracer};
use ftqc_decoder::{
    count_batch_errors_streaming, AnyDecoder, Decoder, DecoderKind, DecoderScratch,
    StreamingConfig, StreamingDecoder,
};
use ftqc_experiments::EvalPipeline;
use ftqc_noise::HardwareConfig;
use ftqc_sim::{
    batch_plan, sample_batch_with, FrameSimulator, RoundSchedule, RoundStream, SampleBatch,
};
use ftqc_surface::MemoryConfig;
use std::path::Path;
use std::time::{Duration, Instant};

const DISTANCE: u32 = 5;
const ROUNDS: u32 = 3 * DISTANCE;
const PHYSICAL_ERROR: f64 = 1e-3;
/// Shots of one replay pass.
const SHOTS: u64 = 512;
const BATCH_SHOTS: usize = 256;
const SETUPS: usize = 5;

fn streaming() -> StreamingConfig {
    StreamingConfig::fused(DISTANCE, 1)
}

fn memory() -> MemoryConfig {
    MemoryConfig::new(DISTANCE, ROUNDS, &HardwareConfig::ibm())
}

fn build(seed: u64) -> (EvalPipeline, RoundSchedule) {
    let pipeline = EvalPipeline::memory(memory())
        .physical_error(PHYSICAL_ERROR)
        .decoder(DecoderKind::UnionFind)
        .seed(seed)
        .build();
    let schedule = RoundSchedule::from_circuit(pipeline.circuit());
    drop(streaming().build(pipeline.decoder(), &schedule));
    (pipeline, schedule)
}

/// The pass's shots, sampled up front with the batch drivers' seeds.
fn presample(pipeline: &EvalPipeline, seed: u64) -> Vec<SampleBatch> {
    let mut sim = FrameSimulator::empty();
    batch_plan(SHOTS, BATCH_SHOTS)
        .into_iter()
        .map(|(index, size)| {
            let mut batch = SampleBatch::empty();
            sample_batch_with(
                pipeline.circuit(),
                size,
                batch_seed(seed, index),
                &mut sim,
                &mut batch,
            );
            batch
        })
        .collect()
}

/// Every round event of the passes replayed so far.
#[derive(Default)]
struct Events {
    /// Latency of each event, ns.
    ns: Vec<f64>,
    /// Inner decodes each event ran.
    decodes: Vec<u64>,
    /// Events that committed a round.
    commits: u64,
    /// Rounds pushed but never committed.
    uncommitted: u64,
}

/// One pass over `batches`: every shot streamed round by round, every
/// event timed. Returns the per-observable error counts.
fn pass(
    tracer: &Tracer,
    stream: &mut StreamingDecoder<&AnyDecoder>,
    rounds: &mut RoundStream,
    batches: &[SampleBatch],
    events: &mut Events,
) -> Vec<u64> {
    let mut defects = Vec::with_capacity(rounds.schedule().max_round_len());
    let mut errors = vec![0u64; batches[0].num_observables];
    for batch in batches {
        rounds.begin_batch(batch);
        for s in 0..batch.shots {
            rounds.begin_shot(s);
            stream.begin_shot();
            let mut pushed = 0u64;
            loop {
                let more = tracer.layer("sim.round_extract", || {
                    rounds.next_round_into(batch, &mut defects).is_some()
                });
                let before = stream.decode_count();
                let t0 = Instant::now();
                let commit = if more {
                    pushed += 1;
                    tracer.layer("decoder.stream", || stream.push_round(&defects))
                } else {
                    tracer.layer("decoder.stream", || stream.flush_round())
                };
                let ns = t0.elapsed().as_nanos() as f64;
                if !more && commit.is_none() {
                    break;
                }
                events.ns.push(ns);
                events.decodes.push(stream.decode_count() - before);
                events.commits += u64::from(commit.is_some());
            }
            events.uncommitted += pushed - u64::from(stream.committed_rounds());
            let predicted = stream.finish_shot();
            for (o, e) in errors.iter_mut().enumerate() {
                if batch.observable(o, s) != ((predicted >> o) & 1 == 1) {
                    *e += 1;
                }
            }
        }
    }
    errors
}

/// Checks that the streamed error counts equal the streaming batch
/// driver's on the same shots.
fn check(report: &mut Report, pipeline: &EvalPipeline, seed: u64, errors: &[u64]) {
    let driver = count_batch_errors_streaming(
        pipeline.circuit(),
        pipeline.decoder(),
        streaming(),
        &batch_plan(SHOTS, BATCH_SHOTS),
        seed,
        2,
    );
    let expected = crate::common::total_errors(&driver);
    report.check(
        format!("replayed errors {errors:?} equal count_batch_errors_streaming's {expected:?}"),
        errors == expected,
    );
    println!(
        "fused LER {:.3e} over {SHOTS} shots",
        errors[0] as f64 / SHOTS as f64
    );
}

/// The untraced run: passes of a fresh set-up and one replay of the
/// pre-sampled shots, until the budget is spent. A request is one
/// round event.
pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let mut passes = Passes::default();
    let mut batches = None;
    let mut events = Events::default();
    let mut first = None;
    let off = Tracer::off();
    let start = Instant::now();
    while passes.more(start, budget) {
        let ((pipeline, schedule), setup_s) = timed(|| build(seed));
        let batches = batches.get_or_insert_with(|| presample(&pipeline, seed));
        let mut stream = streaming().build(pipeline.decoder(), &schedule);
        let mut rounds = RoundStream::new(&schedule);
        let logged = events.ns.len();
        let errors = pass(&off, &mut stream, &mut rounds, batches, &mut events);
        let request_us: Vec<f64> = events.ns[logged..].iter().map(|ns| ns / 1e3).collect();
        passes.add(setup_s, request_us.len() as u64, &request_us);
        match &first {
            None => {
                check(&mut report, &pipeline, seed, &errors);
                first = Some(errors);
            }
            Some(first) if *first != errors => report.failed += SHOTS,
            Some(_) => {}
        }
    }
    report.attempted = events.ns.len() as u64;
    report.failed += events.uncommitted;
    report.check(
        format!(
            "every pushed round was committed ({} were not)",
            events.uncommitted
        ),
        events.uncommitted == 0,
    );
    let cycle_ns = HardwareConfig::ibm().cycle_time_ns();
    println!(
        "{:.1}% of round events over the {cycle_ns} ns cycle",
        100.0 * share_over(&events.ns, cycle_ns)
    );
    passes.report(&mut report);
    report
}

/// Time to batch-decode every shot's full syndrome once, ns.
fn batch_decode_ns(decoder: &AnyDecoder, batches: &[SampleBatch]) -> f64 {
    let mut syndromes = Vec::new();
    for batch in batches {
        for s in 0..batch.shots {
            syndromes.push(batch.flagged_detectors(s));
        }
    }
    let mut scratch = DecoderScratch::for_decoder(decoder);
    let mut times = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut acc = 0u32;
        for syndrome in &syndromes {
            let mut p = 0u32;
            decoder.decode_into(&mut scratch, syndrome, &mut p);
            acc ^= p;
        }
        std::hint::black_box(acc);
        times.push(t0.elapsed().as_nanos() as f64);
    }
    median(&mut times)
}

/// The traced run: the same passes with every extraction and every
/// round event as a layer call, after a traced set-up.
pub fn trace(seed: u64, budget: Duration, trace_path: &Path) -> Report {
    let mut report = Report::default();
    let ((pipeline, schedule), mut setup_s) = timed_setups(SETUPS, || build(seed));
    let setup_ms = median(&mut setup_s) * 1e3;
    let batches = presample(&pipeline, seed);
    let hw = HardwareConfig::ibm();
    let mut untraced = Events::default();
    let mut traced = Events::default();
    let mut mismatched = 0u64;
    let mut first = None;
    // Two events per extraction and per round event, plus slack.
    let capacity = 4 * (SHOTS as usize) * (ROUNDS as usize + 2 * DISTANCE as usize) + 64;
    let attribution = attribute(budget, capacity, trace_path, |tracer| {
        let (_, decoder) = layered_chain(
            tracer,
            || memory().build(),
            &hw,
            PHYSICAL_ERROR,
            DecoderKind::UnionFind,
            seed,
        );
        let mut stream = streaming().build(&decoder, &schedule);
        let mut rounds = RoundStream::new(&schedule);
        let events = if tracer.is_on() {
            &mut traced
        } else {
            &mut untraced
        };
        let errors = pass(tracer, &mut stream, &mut rounds, &batches, events);
        match &first {
            None => first = Some(errors),
            Some(first) if *first != errors => mismatched += SHOTS,
            Some(_) => {}
        }
    });
    report.failed += mismatched;
    let errors = first.expect("one pass");
    check(&mut report, &pipeline, seed, &errors);
    report.attempted += untraced.ns.len() as u64;
    report.failed += untraced.uncommitted + traced.uncommitted;
    report.check(
        format!(
            "every pushed round was committed ({} were not)",
            untraced.uncommitted + traced.uncommitted
        ),
        untraced.uncommitted + traced.uncommitted == 0,
    );
    report.attempted += traced.ns.len() as u64;
    let table = &attribution.table;
    table.print("stream-fused");
    table.report_shares(&mut report);
    report_setup_layers(&mut report, table, setup_ms);

    let events = &untraced;
    let event_ns: f64 = events.ns.iter().sum();
    let decodes: u64 = events.decodes.iter().sum();
    let (mut quiet, mut decoding): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for (&ns, &d) in events.ns.iter().zip(&events.decodes) {
        if d == 0 {
            quiet.push(ns)
        } else {
            decoding.push(ns)
        }
    }
    let quiet = Latency::of(&mut quiet);
    let decoding = Latency::of(&mut decoding);
    let all = Latency::of(&mut events.ns.clone());
    println!(
        "quiet rounds {}: p50 {:.0} ns; decoding rounds {}: p50 {:.0} ns, p99 {:.0} ns ({} beyond)",
        quiet.count, quiet.p50, decoding.count, decoding.p50, decoding.p99, decoding.beyond_p99
    );
    let passes = table.replays().max(1) as f64;
    let batch_ns = batch_decode_ns(pipeline.decoder(), &batches) * passes;
    report.metric(
        "sim.round_extract_ns",
        "ns",
        table.ns_per_call("sim.round_extract"),
    );
    report.metric(
        "decoder.stream_decodes_per_commit",
        "count",
        decodes as f64 / events.commits.max(1) as f64,
    );
    report.metric(
        "decoder.stream_decoding_round_share",
        "fraction",
        decoding.count as f64 / events.ns.len() as f64,
    );
    report.metric("decoder.stream_quiet_round_p50_ns", "ns", quiet.p50);
    report.metric("decoder.stream_decode_round_p50_ns", "ns", decoding.p50);
    report.metric("decoder.stream_decode_round_p99_ns", "ns", decoding.p99);
    report.metric(
        "decoder.stream_overhead_share",
        "fraction",
        (event_ns - batch_ns) / event_ns,
    );
    report.metric("stream.round_p99_ns", "ns", all.p99);
    report.metric(
        "stream.deadline_miss_share",
        "fraction",
        share_over(&events.ns, hw.cycle_time_ns()),
    );
    report.metric(
        "quality.logical_error_rate",
        "fraction",
        errors[0] as f64 / SHOTS as f64,
    );
    report.metric(
        "telemetry.trace_overhead_share",
        "fraction",
        attribution.trace_overhead_share,
    );
    report
}
