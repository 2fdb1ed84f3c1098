//! `idle-sweep`: a paper Fig. 1(c)-style curve of logical error rate
//! against idle time.
//!
//! A d = 3 memory experiment on IBM hardware at p = 1e-3 whose final
//! idle period is stepped across many points. Each point builds a
//! fresh pipeline with the lookup-table decoder and runs the adaptive
//! driver (`run_adaptive`, default chunk size, two worker threads) to
//! a failure target. Decoding is cheap here, so set-up, the sampler,
//! the scanner and the adaptive driver take the time.

use crate::common::{
    layered_chain, report_batch_path, report_setup_layers, timed, BatchReplay, Counts, DriverTimes,
    Passes,
};
use crate::report::Report;
use crate::stats::{sampled_shots, speculative_share};
use crate::trace::attribute;
use ftqc_decoder::DecoderKind;
use ftqc_experiments::EvalPipeline;
use ftqc_noise::HardwareConfig;
use ftqc_sim::{batch_plan, RunningEstimate, StopRule};
use ftqc_surface::MemoryConfig;
use std::path::Path;
use std::time::{Duration, Instant};

const DISTANCE: u32 = 3;
const PHYSICAL_ERROR: f64 = 1e-3;
const POINTS: u32 = 24;
/// Idle added per point, ns: point `i` idles `i * IDLE_STEP_NS`.
const IDLE_STEP_NS: f64 = 250.0;
const MIN_FAILURES: u64 = 5000;
const SHOT_CEILING: u64 = 1 << 20;
const BATCH_SHOTS: u64 = 1024;
/// `EvalPipeline`'s default adaptive chunk: 16 batches.
const CHUNK_SHOTS: u64 = 16 * BATCH_SHOTS;
const THREADS: usize = 2;

fn rule() -> StopRule {
    StopRule::max_shots(SHOT_CEILING).min_failures(MIN_FAILURES)
}

fn config(point: u32) -> MemoryConfig {
    let mut cfg = MemoryConfig::new(DISTANCE, DISTANCE + 1, &HardwareConfig::ibm());
    cfg.final_idle_ns = f64::from(point) * IDLE_STEP_NS;
    cfg
}

/// Evaluation seed of one point; the decoder's training seed stays the
/// workload seed across the sweep, as in Fig. 1(c).
fn point_seed(seed: u64, point: u32) -> u64 {
    seed.wrapping_add(u64::from(point))
}

fn build(seed: u64, point: u32) -> EvalPipeline {
    let pipeline = EvalPipeline::memory(config(point))
        .physical_error(PHYSICAL_ERROR)
        .decoder(DecoderKind::lut())
        .decoder_seed(seed)
        .seed(point_seed(seed, point))
        .threads(THREADS)
        .build();
    pipeline.decoder();
    pipeline
}

/// `(shots consumed, failures per observable)` of one point.
type Outcome = (u64, Vec<u64>);

/// The untraced run: whole sweeps until the budget is spent. A pass is
/// one sweep, the curve a researcher waits for; its set-up is every
/// point's build, and a request is one point's `run_adaptive`.
pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let rule = rule();
    let mut passes = Passes::default();
    let mut first: Vec<Outcome> = Vec::new();
    let start = Instant::now();
    while passes.more(start, budget) {
        let mut setup_s = 0.0;
        let mut consumed = 0;
        let mut request_us = Vec::with_capacity(POINTS as usize);
        for point in 0..POINTS {
            let (pipeline, build_s) = timed(|| build(seed, point));
            let (outcome, run_s) = timed(|| pipeline.run_adaptive(&rule));
            setup_s += build_s;
            request_us.push(run_s * 1e6);
            let shots = outcome.shots();
            consumed += shots;
            report.attempted += shots;
            let outcome = (shots, outcome.state.failures().to_vec());
            if passes.len() == 0 {
                first.push(outcome);
            } else if first[point as usize] != outcome {
                report.failed += shots;
            }
        }
        passes.add(setup_s, consumed, &request_us);
    }
    println!("idle ns   shots  failures  LER");
    for (point, (shots, failures)) in first.iter().enumerate() {
        println!(
            "{:>7.0} {shots:>7} {:>9}  {:.3e}",
            f64::from(point as u32) * IDLE_STEP_NS,
            failures[0],
            failures[0] as f64 / *shots as f64
        );
    }
    report.check(
        format!(
            "every point's (shots, failures) repeats across {} sweeps",
            passes.len()
        ),
        report.failed == 0,
    );
    report.check(
        "every point stops on its failure target, not the ceiling",
        first
            .iter()
            .all(|(s, f)| *s < SHOT_CEILING && f[0] >= MIN_FAILURES),
    );
    passes.report(&mut report);
    report
}

/// The adaptive driver's loop, replayed through the layers: whole
/// chunks are sampled, scanned and decoded, then the stop rule is
/// checked batch by batch, exactly as `run_adaptive` does.
fn adaptive_replay(
    tracer: &crate::trace::Tracer,
    replay: &mut BatchReplay,
    circuit: &ftqc_circuit::Circuit,
    decoder: &impl ftqc_decoder::Decoder,
    seed: u64,
    rule: &StopRule,
) -> Outcome {
    let mut state = RunningEstimate::new(circuit.num_observables() as usize);
    let chunk_batches = CHUNK_SHOTS.div_ceil(BATCH_SHOTS);
    'chunks: while rule.evaluate(&state).is_none() {
        let first = state.trials() / BATCH_SHOTS;
        let plan: Vec<(u64, usize)> = (first..first + chunk_batches)
            .map(|b| (b, b * BATCH_SHOTS))
            .take_while(|&(_, start)| start < rule.shot_ceiling())
            .map(|(b, start)| (b, (rule.shot_ceiling() - start).min(BATCH_SHOTS) as usize))
            .collect();
        let per_batch: Vec<Vec<u64>> = plan
            .iter()
            .map(|&spec| replay.batch(tracer, circuit, decoder, spec, seed))
            .collect();
        for (&(_, size), errors) in plan.iter().zip(&per_batch) {
            state.record(size as u64, errors);
            if rule.evaluate(&state).is_some() {
                break 'chunks;
            }
        }
    }
    (state.trials(), state.failures().to_vec())
}

/// The traced run: each point's set-up and adaptive run replayed one
/// layer call at a time on one thread, plus `run_adaptive` and
/// `count_batch_errors` timed as black boxes.
pub fn trace(seed: u64, budget: Duration, trace_path: &Path) -> Report {
    let mut report = Report::default();
    let rule = rule();
    let hw = HardwareConfig::ibm();
    // Black boxes first: the driver as a user calls it, per point.
    let mut build_s = 0.0;
    let mut adaptive_s = 0.0;
    let mut expected: Vec<Outcome> = Vec::new();
    let mut driver = DriverTimes {
        shots: 0,
        one_thread_s: 0.0,
        two_thread_s: 0.0,
        allocs: 0,
        agree: true,
    };
    let mut sampled = 0u64;
    for point in 0..POINTS {
        let (pipeline, s) = timed(|| build(seed, point));
        build_s += s;
        let (outcome, s) = timed(|| pipeline.run_adaptive(&rule));
        adaptive_s += s;
        let failures = outcome.state.failures().to_vec();
        let plan = batch_plan(outcome.shots(), BATCH_SHOTS as usize);
        driver.add(&DriverTimes::measure(
            pipeline.circuit(),
            pipeline.decoder(),
            &plan,
            point_seed(seed, point),
            &failures,
            1,
        ));
        sampled += sampled_shots(outcome.shots(), BATCH_SHOTS, CHUNK_SHOTS, SHOT_CEILING);
        expected.push((outcome.shots(), failures));
    }
    let consumed: u64 = expected.iter().map(|(s, _)| s).sum();
    let mut counts = [Counts::default(); 2];
    let mut mismatches = 0u64;
    let attribution = attribute(budget, 1 << 16, trace_path, |tracer| {
        for point in 0..POINTS {
            let (circuit, decoder) = layered_chain(
                tracer,
                || config(point).build(),
                &hw,
                PHYSICAL_ERROR,
                DecoderKind::lut(),
                seed,
            );
            let mut replay = BatchReplay::new(&decoder);
            let outcome = adaptive_replay(
                tracer,
                &mut replay,
                &circuit,
                &decoder,
                point_seed(seed, point),
                &rule,
            );
            if outcome != expected[point as usize] {
                mismatches += replay.counts.shots;
            }
            counts[usize::from(tracer.is_on())].add(replay.counts);
        }
    });
    let [off, on] = counts;
    report.attempted += off.shots + on.shots + 2 * driver.shots;
    report.failed += mismatches;
    driver.check(&mut report);
    let replayed_shots = on.shots / attribution.table.replays().max(1);
    report.check(
        "1-thread layer replay of every point matches run_adaptive's (shots, failures)",
        mismatches == 0,
    );
    report.check(
        format!("computed sampled shots ({sampled}) equal the replay's sampled shots ({replayed_shots})"),
        sampled == replayed_shots,
    );
    let table = &attribution.table;
    table.print("idle-sweep");
    table.report_shares(&mut report);
    report_setup_layers(&mut report, table, build_s * 1e3 / f64::from(POINTS));
    report_batch_path(&mut report, table, &on, &driver);
    report.metric(
        "experiments.adaptive_overhead_share",
        "fraction",
        (adaptive_s - driver.two_thread_s) / adaptive_s,
    );
    report.metric(
        "experiments.speculative_shot_share",
        "fraction",
        speculative_share(consumed, sampled),
    );
    let pooled: u64 = expected.iter().map(|(_, f)| f[0]).sum();
    report.metric(
        "quality.logical_error_rate",
        "fraction",
        pooled as f64 / consumed as f64,
    );
    report.metric(
        "telemetry.trace_overhead_share",
        "fraction",
        attribution.trace_overhead_share,
    );
    report
}
