//! Integration tests for the program-level runtime: the paper's
//! qualitative policy ordering must hold for every workload (including
//! the drift-adaptive `dynamic-hybrid` extension), Hybrid must respect
//! its slack bound, and runs must be deterministic.

use ftqc::estimator::{workloads, LogicalEstimate};
use ftqc::noise::HardwareConfig;
use ftqc::runtime::{execute, ProgramReport, ProgramSchedule, RuntimeConfig};
use ftqc::sync::PolicySpec;

const SEED: u64 = 2025;
const EPSILON_NS: f64 = 400.0;
const MERGE_CAP: u64 = 400;

fn run_policy(schedule: &ProgramSchedule, policy: PolicySpec) -> ProgramReport {
    let hw = HardwareConfig::ibm();
    execute(schedule, &RuntimeConfig::new(&hw, policy, SEED))
}

/// The acceptance criterion: for every workload, Passive overhead >=
/// Active >= {Extra-Rounds, Hybrid}, DynamicHybrid never exceeds the
/// fixed Hybrid at the same tolerance cap, and Hybrid stays within its
/// configured slack bound.
#[test]
fn policy_ordering_reproduces_the_paper_for_every_workload() {
    for workload in workloads::catalog() {
        let estimate = LogicalEstimate::for_workload(&workload, 1e-3, 1e-2);
        let schedule = ProgramSchedule::compile(&workload, &estimate, MERGE_CAP, SEED);
        let passive = run_policy(&schedule, PolicySpec::Passive);
        let active = run_policy(&schedule, PolicySpec::Active);
        let extra = run_policy(&schedule, PolicySpec::ExtraRounds);
        let hybrid = run_policy(&schedule, PolicySpec::hybrid(EPSILON_NS));
        let dynamic = run_policy(&schedule, PolicySpec::dynamic_hybrid());
        let name = &workload.name;
        assert!(passive.overhead_percent() > 0.0, "{name}: no slack at all");
        assert!(
            passive.overhead_percent() >= active.overhead_percent(),
            "{name}: Passive {} < Active {}",
            passive.overhead_percent(),
            active.overhead_percent()
        );
        assert!(
            active.overhead_percent() >= extra.overhead_percent(),
            "{name}: Active {} < Extra-Rounds {}",
            active.overhead_percent(),
            extra.overhead_percent()
        );
        assert!(
            active.overhead_percent() >= hybrid.overhead_percent(),
            "{name}: Active {} < Hybrid {}",
            active.overhead_percent(),
            hybrid.overhead_percent()
        );
        // The adaptive tolerance tightens per merge, so DynamicHybrid
        // attributes no more idle than the fixed Hybrid at the same cap.
        assert!(
            hybrid.overhead_percent() >= dynamic.overhead_percent(),
            "{name}: Hybrid {} < DynamicHybrid {}",
            hybrid.overhead_percent(),
            dynamic.overhead_percent()
        );
        // Extra-round policies actually traded idle for rounds.
        assert!(extra.extra_rounds > 0, "{name}: Extra-Rounds ran none");
        assert!(hybrid.extra_rounds > 0, "{name}: Hybrid ran none");
        // Hybrid within its configured slack bound, per applied plan;
        // DynamicHybrid within its cap (its per-merge tolerance never
        // exceeds it).
        assert!(hybrid.hybrid_applied > 0, "{name}: Hybrid never applied");
        assert!(dynamic.hybrid_applied > 0, "{name}: Dynamic never applied");
        assert!(
            hybrid.max_hybrid_residual_ns < EPSILON_NS,
            "{name}: residual {} ns >= epsilon {EPSILON_NS} ns",
            hybrid.max_hybrid_residual_ns
        );
        assert!(
            dynamic.max_hybrid_residual_ns < EPSILON_NS,
            "{name}: dynamic residual {} ns >= cap {EPSILON_NS} ns",
            dynamic.max_hybrid_residual_ns
        );
    }
}

#[test]
fn runtime_is_deterministic_for_a_fixed_seed() {
    let workload = workloads::qft(80);
    let estimate = LogicalEstimate::for_workload(&workload, 1e-3, 1e-2);
    let schedule = ProgramSchedule::compile(&workload, &estimate, MERGE_CAP, SEED);
    for policy in [
        PolicySpec::Passive,
        PolicySpec::hybrid(EPSILON_NS),
        PolicySpec::dynamic_hybrid(),
    ] {
        let a = run_policy(&schedule, policy);
        let b = run_policy(&schedule, policy);
        assert_eq!(a, b, "{policy} not reproducible");
    }
    // A different seed perturbs the calibration draws and therefore
    // the measured overheads.
    let hw = HardwareConfig::ibm();
    let other = execute(
        &schedule,
        &RuntimeConfig::new(&hw, PolicySpec::Passive, SEED + 1),
    );
    assert_ne!(other, run_policy(&schedule, PolicySpec::Passive));
}

#[test]
fn passive_and_active_agree_on_wall_clock() {
    // The two pure idling policies place the same total idle
    // differently, so program runtime and attributed idle coincide.
    let workload = workloads::ising(98);
    let estimate = LogicalEstimate::for_workload(&workload, 1e-3, 1e-2);
    let schedule = ProgramSchedule::compile(&workload, &estimate, MERGE_CAP, SEED);
    let passive = run_policy(&schedule, PolicySpec::Passive);
    let active = run_policy(&schedule, PolicySpec::Active);
    assert_eq!(passive.total_ns, active.total_ns);
    assert_eq!(passive.sync_idle_ns, active.sync_idle_ns);
    assert_eq!(passive.alignment_idle_ns, 0);
    assert_eq!(active.alignment_idle_ns, 0);
}

#[test]
fn slack_histogram_accounts_every_merge() {
    let workload = workloads::wstate(118);
    let estimate = LogicalEstimate::for_workload(&workload, 1e-3, 1e-2);
    let schedule = ProgramSchedule::compile(&workload, &estimate, 300, SEED);
    let report = run_policy(&schedule, PolicySpec::Active);
    assert_eq!(report.slack.count(), report.merges);
    assert_eq!(report.slack.bins().iter().sum::<u64>(), report.merges);
    // Slack is a phase difference: bounded by the slowest involved
    // cycle (calibration spread + jitter stay within ~4% of nominal).
    let bound = 1.05 * HardwareConfig::ibm().cycle_time_ns();
    assert!(
        report.slack.max_ns() < bound,
        "max slack {} exceeds a cycle",
        report.slack.max_ns()
    );
}

#[test]
fn empty_program_report_is_all_zeros() {
    // Regression: a schedule with no merge events must report 0.0 (not
    // NaN) for both ratio metrics.
    let workload = workloads::qft(20);
    let estimate = LogicalEstimate::for_workload(&workload, 1e-3, 1e-2);
    let mut schedule = ProgramSchedule::compile(&workload, &estimate, 10, SEED);
    schedule.events.clear();
    let report = run_policy(&schedule, PolicySpec::Passive);
    assert_eq!(report.merges, 0);
    assert_eq!(report.total_ns, 0);
    assert_eq!(report.overhead_percent(), 0.0);
    assert_eq!(report.mean_slack_ns(), 0.0);
}
