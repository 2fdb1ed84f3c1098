//! `program-runtime`: a whole program executed under each sync policy.
//!
//! QFT-80 is estimated (`LogicalEstimate::for_workload`), compiled to a
//! merge schedule of 10^4 Lattice Surgery merges
//! (`ProgramSchedule::compile`), and executed by the discrete-event
//! runtime under `passive`, `active`, `hybrid:eps=400` and
//! `dynamic-hybrid` in turn, one policy per request. This is the
//! schedule → plan → execute path.

use crate::common::{timed, timed_setups, Passes};
use crate::report::Report;
use crate::stats::{median, residual};
use crate::trace::attribute;
use ftqc_bench::alloc::allocation_count;
use ftqc_estimator::{workloads, LogicalEstimate};
use ftqc_noise::{HardwareConfig, TimingModel};
use ftqc_runtime::{execute, ProgramReport, ProgramSchedule, RuntimeConfig};
use ftqc_sync::{PolicySpec, SlackWindow, SyncContext, DEFAULT_SLACK_WINDOW};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::{Duration, Instant};

const QFT_QUBITS: u32 = 80;
/// Merges of the compiled schedule. One execution takes 10-40 ms, so it
/// fits the gaps a loaded host leaves (see `Passes`); at 10^5 merges
/// the fastest pass spread by a third of its median from run to run.
const MERGES: u64 = 10_000;
const PHYSICAL_ERROR: f64 = 1e-3;
const ERROR_BUDGET: f64 = 1e-2;
const SETUPS: usize = 5;
/// Sync contexts in the planner corpus.
const CORPUS: usize = 4096;

/// The policies in request order, with their metric-name suffixes.
fn policies() -> [(&'static str, PolicySpec); 4] {
    [
        ("passive", PolicySpec::Passive),
        ("active", PolicySpec::Active),
        ("hybrid", PolicySpec::hybrid(400.0)),
        ("dynamic-hybrid", PolicySpec::dynamic_hybrid()),
    ]
}

fn build(seed: u64) -> ProgramSchedule {
    let workload = workloads::qft(QFT_QUBITS);
    let estimate = LogicalEstimate::for_workload(&workload, PHYSICAL_ERROR, ERROR_BUDGET);
    ProgramSchedule::compile(&workload, &estimate, MERGES, seed)
}

/// Checks that overheads fall from passive to dynamic-hybrid, the
/// paper's ordering.
fn check_ordering(report: &mut Report, reports: &[ProgramReport]) {
    let overheads: Vec<f64> = reports
        .iter()
        .map(ProgramReport::overhead_percent)
        .collect();
    println!("overhead % passive/active/hybrid/dynamic-hybrid: {overheads:.3?}");
    report.check(
        "overheads ordered passive >= active >= hybrid >= dynamic-hybrid",
        overheads.windows(2).all(|w| w[0] >= w[1]),
    );
}

/// The untraced run: passes of a fresh estimate and compile, then the
/// program under each of the four policies (one request each), until
/// the budget is spent.
pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let hw = HardwareConfig::ibm();
    let configs: Vec<RuntimeConfig> = policies()
        .into_iter()
        .map(|(_, policy)| RuntimeConfig::new(&hw, policy, seed))
        .collect();
    let mut passes = Passes::default();
    let mut first: Vec<ProgramReport> = Vec::new();
    let mut merges = 0;
    let start = Instant::now();
    while passes.more(start, budget) {
        let (schedule, setup_s) = timed(|| build(seed));
        merges = schedule.merges();
        let mut request_us = Vec::with_capacity(configs.len());
        for (i, config) in configs.iter().enumerate() {
            let (out, s) = timed(|| execute(&schedule, config));
            request_us.push(s * 1e6);
            report.attempted += out.merges;
            if passes.len() == 0 {
                first.push(out);
            } else if first[i] != out {
                report.failed += out.merges;
            }
        }
        passes.add(setup_s, merges * configs.len() as u64, &request_us);
    }
    report.check(
        format!(
            "{} passes reproduced each policy's first report",
            passes.len()
        ),
        report.failed == 0,
    );
    report.check(
        format!("every execution ran all {merges} scheduled merges"),
        first.iter().all(|r| r.merges == merges),
    );
    check_ordering(&mut report, &first);
    passes.report(&mut report);
    report
}

/// A fixed corpus of merge contexts drawn from the workload's timing
/// model: two calibrated cycle times, a uniform slack below the slower
/// one, and the controller's window of recently observed slacks.
fn corpus(seed: u64, rounds: u32) -> Vec<SyncContext> {
    let timing = TimingModel::for_hardware(&HardwareConfig::ibm());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut observed = SlackWindow::new(DEFAULT_SLACK_WINDOW);
    (0..CORPUS)
        .map(|_| {
            let t_p = timing.calibrated_cycle_ns(&mut rng);
            let t_p_prime = timing.calibrated_cycle_ns(&mut rng);
            let tau = rng.gen::<f64>() * t_p.max(t_p_prime);
            let ctx = SyncContext::new(tau, t_p, t_p_prime, rounds)
                .expect("drawn parameters are valid")
                .with_observed(observed.clone());
            observed.record(tau);
            ctx
        })
        .collect()
}

/// Mean ns of one `PolicySpec::plan` over the corpus, repeated until at
/// least 20 ms have been timed.
fn plan_ns(policy: &PolicySpec, corpus: &[SyncContext]) -> f64 {
    let mut plans = 0u64;
    let start = Instant::now();
    while plans == 0 || start.elapsed() < Duration::from_millis(20) {
        for ctx in corpus {
            std::hint::black_box(policy.plan(std::hint::black_box(ctx)).ok());
        }
        plans += corpus.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / plans as f64
}

/// The traced run: estimate, compile and execute under each policy as
/// layer calls, plus the planner timed over a context corpus.
pub fn trace(seed: u64, budget: Duration, trace_path: &Path) -> Report {
    let mut report = Report::default();
    let (schedule, mut setup_s) = timed_setups(SETUPS, || build(seed));
    let setup_ms = median(&mut setup_s) * 1e3;
    let hw = HardwareConfig::ibm();
    let policies = policies();
    let configs: Vec<RuntimeConfig> = policies
        .iter()
        .map(|(_, policy)| RuntimeConfig::new(&hw, policy.clone(), seed))
        .collect();
    let expected: Vec<ProgramReport> = configs.iter().map(|c| execute(&schedule, c)).collect();
    check_ordering(&mut report, &expected);
    let mut execute_ns = vec![Vec::new(); configs.len()];
    let mut allocs = vec![0u64; configs.len()];
    let mut mismatched = 0u64;
    let attribution = attribute(budget, 1 << 10, trace_path, |tracer| {
        let workload = tracer.layer("estimator.workload", || workloads::qft(QFT_QUBITS));
        let estimate = tracer.layer("estimator.estimate", || {
            LogicalEstimate::for_workload(&workload, PHYSICAL_ERROR, ERROR_BUDGET)
        });
        let schedule = tracer.layer("runtime.compile", || {
            ProgramSchedule::compile(&workload, &estimate, MERGES, seed)
        });
        for (i, config) in configs.iter().enumerate() {
            let a0 = allocation_count();
            let t0 = Instant::now();
            let out = tracer.layer("runtime.execute", || execute(&schedule, config));
            if !tracer.is_on() {
                execute_ns[i].push(t0.elapsed().as_nanos() as f64);
                allocs[i] = allocation_count() - a0;
            }
            if out != expected[i] {
                mismatched += out.merges;
            }
            report.attempted += out.merges;
        }
    });
    report.failed += mismatched;
    report.check(
        "every replayed execution reproduced its policy's report",
        mismatched == 0,
    );
    let table = &attribution.table;
    table.print("program-runtime");
    table.report_shares(&mut report);
    let setup_layers = [
        "estimator.workload",
        "estimator.estimate",
        "runtime.compile",
    ];
    let parts: Vec<f64> = setup_layers
        .iter()
        .map(|layer| table.ns_per_call(layer) / 1e6)
        .collect();
    report.metric("estimator.workload_ms", "ms", parts[0]);
    report.metric("estimator.estimate_ms", "ms", parts[1]);
    report.metric("runtime.compile_ms", "ms", parts[2]);
    report.metric("setup.residual_ms", "ms", residual(setup_ms, &parts));
    let corpus = corpus(seed, schedule.pre_merge_rounds);
    let merges = schedule.merges() as f64;
    for (i, ((name, policy), out)) in policies.iter().zip(&expected).enumerate() {
        let per_merge = median(&mut execute_ns[i]) / merges;
        let plan = plan_ns(policy, &corpus);
        println!(
            "{name}: execute {per_merge:.1} ns/merge, plan {plan:.1} ns ({:.1}% of execute per merge)",
            100.0 * plan / per_merge
        );
        report.metric(
            format!("runtime.execute_ns_per_merge.{name}"),
            "ns",
            per_merge,
        );
        report.metric(
            format!("runtime.allocs_per_merge.{name}"),
            "count",
            allocs[i] as f64 / merges,
        );
        report.metric(format!("sync.plan_ns.{name}"), "ns", plan);
        report.metric(
            format!("runtime.overhead_percent.{name}"),
            "%",
            out.overhead_percent(),
        );
        report.metric(
            format!("runtime.fallback_share.{name}"),
            "fraction",
            out.fallbacks as f64 / merges,
        );
        report.metric(
            format!("runtime.extra_rounds_per_merge.{name}"),
            "count",
            out.extra_rounds as f64 / merges,
        );
    }
    report.metric(
        "telemetry.trace_overhead_share",
        "fraction",
        attribution.trace_overhead_share,
    );
    report
}
