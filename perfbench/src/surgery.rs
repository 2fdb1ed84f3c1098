//! `surgery-ler`: the logical error rate of paper Table 2's Hybrid row.
//!
//! A d = 5 two-patch Lattice Surgery experiment (T_P = 1000 ns,
//! T_P' = 1325 ns, tau = 1000 ns, `hybrid:eps=400`) on IBM hardware at
//! p = 1e-3, decoded by union-find. A request is one fixed-shot
//! `EvalPipeline::run` on one worker thread over a built pipeline, the
//! sample → scan → decode → count path with the decoder doing nearly
//! all the work. The traced run also times the batch driver at two
//! threads.

use crate::common::{
    layered_chain, report_batch_path, report_setup_layers, timed, timed_setups, total_errors,
    BatchReplay, Counts, DriverTimes, Passes,
};
use crate::report::Report;
use crate::trace::attribute;
use ftqc_decoder::DecoderKind;
use ftqc_experiments::{EvalPipeline, LsSetup};
use ftqc_noise::HardwareConfig;
use ftqc_sim::batch_plan;
use ftqc_sync::PolicySpec;
use std::path::Path;
use std::time::{Duration, Instant};

const DISTANCE: u32 = 5;
const PHYSICAL_ERROR: f64 = 1e-3;
/// Shots of one request: two batches. A request takes about 10 ms, so
/// it fits the gaps a loaded host leaves (see `Passes`); on two threads
/// it would need both vCPUs quiet at once, and its fastest time spread
/// twice as wide from run to run.
const REQUEST_SHOTS: u64 = 512;
const BATCH_SHOTS: usize = 256;
const THREADS: usize = 1;
/// Requests of one untimed pass, each over the pass's pipeline.
const PASS_REQUESTS: usize = 4;
/// Set-ups timed by the traced run; `setup.residual_ms` uses their
/// median.
const SETUPS: usize = 5;
/// Requests replayed in one traced pass.
const REPLAY_REQUESTS: u64 = 16;
/// Index of the merged observable, Table 2's LER column.
const MERGED: usize = 2;

fn hybrid_row() -> LsSetup {
    let hw = HardwareConfig::ibm();
    let mut setup = LsSetup::homogeneous(DISTANCE, &hw, PolicySpec::hybrid(400.0), 1000.0);
    setup.t_p_ns = 1000.0;
    setup.t_p_prime_ns = 1325.0;
    setup.decoder = DecoderKind::UnionFind;
    setup
}

fn build(seed: u64) -> EvalPipeline {
    let setup = hybrid_row();
    let pipeline = EvalPipeline::lattice_surgery(setup.surgery_config())
        .physical_error(PHYSICAL_ERROR)
        .decoder(setup.decoder)
        .shots(REQUEST_SHOTS)
        .batch_shots(BATCH_SHOTS)
        .seed(seed)
        .threads(THREADS)
        .build();
    pipeline.decoder();
    pipeline
}

/// The untraced run: passes of a fresh set-up and a few identical
/// requests, until the budget is spent.
pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let mut passes = Passes::default();
    let mut first = None;
    let start = Instant::now();
    while passes.more(start, budget) {
        let (pipeline, setup_s) = timed(|| build(seed));
        let mut request_us = [0.0; PASS_REQUESTS];
        for us in &mut request_us {
            let (ler, s) = timed(|| pipeline.run());
            *us = s * 1e6;
            report.attempted += REQUEST_SHOTS;
            match &first {
                None => first = Some(ler),
                Some(first) if *first != ler => report.failed += REQUEST_SHOTS,
                Some(_) => {}
            }
        }
        passes.add(setup_s, PASS_REQUESTS as u64 * REQUEST_SHOTS, &request_us);
    }
    let ler = first.expect("at least one request");
    println!("merged-observable LER {}", ler[MERGED]);
    report.check(
        format!(
            "{} fixed-shot runs of {REQUEST_SHOTS} shots gave identical error counts",
            passes.len() * PASS_REQUESTS
        ),
        report.failed == 0,
    );
    report.check(
        "decoding beats guessing on every observable",
        ler.iter().all(|e| e.rate() < 0.25),
    );
    passes.report(&mut report);
    report
}

/// The traced run: the same work replayed one layer call at a time on
/// one thread, plus the driver timed as a black box.
pub fn trace(seed: u64, budget: Duration, trace_path: &Path) -> Report {
    let mut report = Report::default();
    let (pipeline, mut setup_s) = timed_setups(SETUPS, || build(seed));
    let setup_ms = crate::stats::median(&mut setup_s) * 1e3;
    let expected: Vec<u64> = pipeline.run().iter().map(|e| e.successes()).collect();
    let plan = batch_plan(REQUEST_SHOTS, BATCH_SHOTS);
    let setup = hybrid_row();
    let mut counts = [Counts::default(); 2];
    let mut mismatches = 0u64;
    let attribution = attribute(budget, 1 << 12, trace_path, |tracer| {
        let (circuit, decoder) = layered_chain(
            tracer,
            || setup.surgery_config().build(),
            &setup.hardware,
            PHYSICAL_ERROR,
            setup.decoder,
            seed,
        );
        let mut replay = BatchReplay::new(&decoder);
        for _ in 0..REPLAY_REQUESTS {
            let per_batch: Vec<Vec<u64>> = plan
                .iter()
                .map(|&spec| replay.batch(tracer, &circuit, &decoder, spec, seed))
                .collect();
            if total_errors(&per_batch) != expected {
                mismatches += 1;
            }
        }
        counts[usize::from(tracer.is_on())].add(replay.counts);
    });
    let [off, on] = counts;
    report.attempted += off.shots + on.shots + 2 * 3 * REQUEST_SHOTS;
    report.failed += mismatches * REQUEST_SHOTS;
    report.check(
        "1-thread layer replay matches the EvalPipeline::run error counts",
        mismatches == 0,
    );
    let driver = DriverTimes::measure(
        pipeline.circuit(),
        pipeline.decoder(),
        &plan,
        seed,
        &expected,
        3,
    );
    driver.check(&mut report);
    let table = &attribution.table;
    table.print("surgery-ler");
    table.report_shares(&mut report);
    report_setup_layers(&mut report, table, setup_ms);
    report_batch_path(&mut report, table, &on, &driver);
    report.metric(
        "quality.logical_error_rate",
        "fraction",
        expected[MERGED] as f64 / REQUEST_SHOTS as f64,
    );
    report.metric(
        "telemetry.trace_overhead_share",
        "fraction",
        attribution.trace_overhead_share,
    );
    report
}
