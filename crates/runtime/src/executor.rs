//! Discrete-event execution of a program schedule under a sync policy.

use crate::metrics::{ProgramReport, SlackHistogram};
use crate::schedule::ProgramSchedule;
use ftqc_noise::{HardwareConfig, TimingModel};
use ftqc_sync::{Controller, CultivationModel, PatchId, PolicySpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Execution parameters for one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Synchronization policy every merge is planned with — any
    /// parseable [`PolicySpec`], including the adaptive
    /// `dynamic-hybrid` (which plans from the controller's recent
    /// slack window).
    pub policy: PolicySpec,
    /// Cycle-time heterogeneity injected into the patches.
    pub timing: TimingModel,
    /// Factory restart model: after each merge the consumed factory
    /// re-registers with a phase offset drawn from magic-state
    /// cultivation (paper Section 3.4.1). `None` keeps factories
    /// phase-locked to their merge partners (an idealized system whose
    /// only desynchronization sources are calibration and jitter).
    pub cultivation: Option<CultivationModel>,
    /// RNG seed; runs are bit-identical for a fixed seed regardless of
    /// host thread count (execution is a single deterministic event
    /// loop).
    pub seed: u64,
}

impl RuntimeConfig {
    /// The defaults used by the paper-style evaluation: `hardware`'s
    /// timing model, cultivation-driven factory restarts at
    /// `p = 1e-3`, and the given policy.
    pub fn new(hardware: &HardwareConfig, policy: PolicySpec, seed: u64) -> RuntimeConfig {
        RuntimeConfig {
            policy,
            timing: TimingModel::for_hardware(hardware),
            cultivation: Some(CultivationModel::for_error_rate(
                1e-3,
                hardware.cycle_time_ns(),
            )),
            seed,
        }
    }
}

/// Executes `schedule` under `config`, returning the program-level
/// report: total runtime, realized synchronization idle, extra rounds,
/// and the per-merge slack distribution.
///
/// The event loop is the system-scale composition of the repo's
/// building blocks: every compute patch and factory registers with the
/// [`Controller`] at a calibrated cycle time, the controller free-runs
/// between merges ([`Controller::run_until`], O(1)), each merge
/// re-times its two patches with fresh jitter/drift
/// ([`Controller::set_cycle_ticks`]), plans the synchronization under
/// `config.policy` ([`Controller::synchronize_report`]), holds the pair
/// merged for `d` rounds, and then deregisters/re-registers the factory
/// with a cultivation-drawn phase offset — the paper's per-operation
/// slack sources aggregated into whole-program runtime.
pub fn execute(schedule: &ProgramSchedule, config: &RuntimeConfig) -> ProgramReport {
    let span = ftqc_telemetry::span("runtime/execute");
    if ftqc_telemetry::enabled() {
        ftqc_telemetry::annotate("runtime/policy", &config.policy.to_string());
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut ctl = Controller::new();
    let nominal_ticks = (config.timing.base_cycle_ns.round() as u64).max(1);
    let draw_cycle = |rng: &mut SmallRng| -> (f64, u32) {
        let calibrated = config.timing.calibrated_cycle_ns(rng);
        (calibrated, (calibrated.round() as u32).max(1))
    };
    // Register the patch tables: compute patches first, factories after.
    let mut calibrated_ns: Vec<f64> = Vec::new();
    let register = |ctl: &mut Controller,
                    rng: &mut SmallRng,
                    calibrated_ns: &mut Vec<f64>,
                    phase: Option<u32>|
     -> PatchId {
        let (calibrated, ticks) = draw_cycle(rng);
        let phase = phase.map_or_else(|| rng.gen_range(0..ticks), |p| p % ticks);
        let id = ctl.add_patch(ticks, phase);
        let slot = id.0 as usize;
        if slot >= calibrated_ns.len() {
            calibrated_ns.resize(slot + 1, 0.0);
        }
        calibrated_ns[slot] = calibrated;
        id
    };
    let compute: Vec<PatchId> = (0..schedule.compute_patches)
        .map(|_| register(&mut ctl, &mut rng, &mut calibrated_ns, None))
        .collect();
    let mut factories: Vec<PatchId> = (0..schedule.factories)
        .map(|_| register(&mut ctl, &mut rng, &mut calibrated_ns, None))
        .collect();

    let requested = config.policy;
    let epsilon_bin = config.timing.base_cycle_ns / 8.0;
    let mut report = ProgramReport {
        workload: schedule.workload.clone(),
        policy: requested,
        merges: 0,
        total_ns: 0,
        sync_idle_ns: 0,
        alignment_idle_ns: 0,
        extra_rounds: 0,
        fallbacks: 0,
        hybrid_applied: 0,
        max_hybrid_residual_ns: 0.0,
        slack: SlackHistogram::new(epsilon_bin, 16),
    };

    let mut prev_cycle = 0u64;
    for event in &schedule.events {
        // Free-run every patch through the gap since the last merge.
        let gap = event.cycle - prev_cycle;
        prev_cycle = event.cycle;
        if gap > 0 {
            ctl.run_until(ctl.now() + gap * nominal_ticks);
        }
        let pair = [
            compute[event.compute as usize],
            factories[event.factory as usize],
        ];
        // Per-round jitter + drift: re-time the merging patches at the
        // cycle durations they realize *now*.
        for id in pair {
            let rounds = ctl.status(id).expect("live patch").rounds_completed;
            let observed =
                config
                    .timing
                    .observed_cycle_ns(calibrated_ns[id.0 as usize], rounds, &mut rng);
            ctl.set_cycle_ticks(id, (observed.round() as u32).max(1));
        }
        let sync = ctl
            .synchronize_report(&pair, &requested, schedule.pre_merge_rounds)
            .expect("live distinct patches always plan");
        report.merges += 1;
        report.sync_idle_ns += sync.planned_idle_ticks;
        report.alignment_idle_ns += sync.alignment_idle_ticks;
        report.extra_rounds += sync.extra_rounds;
        report.slack.record(sync.slack_ns);
        // The live Table-2 decomposition: one marker per merge carrying the
        // slack this merge observed and where its idle was attributed.
        if ftqc_telemetry::enabled() {
            ftqc_telemetry::instant(
                "runtime/merge",
                &[
                    ftqc_telemetry::Arg::new("slack_ns", sync.slack_ns),
                    ftqc_telemetry::Arg::new("sync_idle_ns", sync.planned_idle_ticks as f64),
                    ftqc_telemetry::Arg::new("alignment_idle_ns", sync.alignment_idle_ticks as f64),
                    ftqc_telemetry::Arg::new("extra_rounds", sync.extra_rounds as f64),
                ],
            );
        }
        for plan in ctl.last_plans() {
            match plan.policy {
                // A genuine Hybrid plan always runs z >= 1 extra rounds;
                // the slowest patch's no-op plan carries the requested
                // policy with zero rounds and is not "applied".
                PolicySpec::Hybrid { .. } | PolicySpec::DynamicHybrid { .. }
                    if plan.extra_rounds > 0 =>
                {
                    report.hybrid_applied += 1;
                    report.max_hybrid_residual_ns =
                        report.max_hybrid_residual_ns.max(plan.total_idle_ns());
                }
                _ if plan.policy != requested => {
                    report.fallbacks += 1;
                    ftqc_telemetry::counter("runtime/fallbacks", 1);
                }
                _ => {}
            }
        }
        // The pair stays merged for the joint-measurement window.
        ctl.run_until(sync.merge_tick + u64::from(schedule.merge_window_rounds) * nominal_ticks);
        // The factory restarts cultivation: it leaves the patch table
        // and returns with a completion-time phase offset.
        if let Some(model) = &config.cultivation {
            ctl.deregister(factories[event.factory as usize]);
            let offset_ns = model.sample_completion_ns(&mut rng);
            let id = register(
                &mut ctl,
                &mut rng,
                &mut calibrated_ns,
                Some(offset_ns.round() as u32),
            );
            factories[event.factory as usize] = id;
        }
    }
    report.total_ns = ctl.now();
    ftqc_telemetry::counter("runtime/merges", report.merges);
    span.end_with(&[
        ftqc_telemetry::Arg::new("merges", report.merges as f64),
        ftqc_telemetry::Arg::new("total_ns", report.total_ns as f64),
    ]);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ProgramSchedule;
    use ftqc_estimator::{workloads, LogicalEstimate};

    fn schedule(cap: u64) -> ProgramSchedule {
        let w = workloads::qft(20);
        let e = LogicalEstimate::for_workload(&w, 1e-3, 1e-2);
        ProgramSchedule::compile(&w, &e, cap, 11)
    }

    #[test]
    fn execute_is_deterministic() {
        let s = schedule(150);
        let cfg = RuntimeConfig::new(&HardwareConfig::ibm(), PolicySpec::Active, 5);
        assert_eq!(execute(&s, &cfg), execute(&s, &cfg));
    }

    #[test]
    fn runtime_covers_all_merges() {
        let s = schedule(150);
        let cfg = RuntimeConfig::new(&HardwareConfig::ibm(), PolicySpec::Passive, 5);
        let r = execute(&s, &cfg);
        assert_eq!(r.merges, 150);
        assert_eq!(r.slack.count(), 150);
        assert!(r.total_ns > 0);
        assert!(r.sync_idle_ns > 0, "cultivation slack must cost idle");
        assert!(r.overhead_percent() > 0.0 && r.overhead_percent() < 100.0);
    }

    #[test]
    fn ideal_single_pair_idles_only_for_its_first_alignment() {
        // One compute patch, one factory, no heterogeneity, no
        // cultivation restarts: the first merge absorbs the random
        // initial phase difference and every later merge finds the pair
        // already aligned — total idle below one cycle.
        let s = ProgramSchedule {
            workload: "single-pair".into(),
            compute_patches: 1,
            factories: 1,
            pre_merge_rounds: 8,
            merge_window_rounds: 7,
            scheduled_cycles: 50,
            total_merges: 50,
            events: (0..50)
                .map(|i| crate::MergeEvent {
                    cycle: i,
                    compute: 0,
                    factory: 0,
                })
                .collect(),
        };
        let mut cfg = RuntimeConfig::new(&HardwareConfig::ibm(), PolicySpec::Passive, 5);
        cfg.timing = TimingModel::ideal(1900.0);
        cfg.cultivation = None;
        let r = execute(&s, &cfg);
        assert_eq!(r.merges, 50);
        assert!(
            r.sync_idle_ns < 1900,
            "idle {} exceeds the first alignment",
            r.sync_idle_ns
        );
    }

    #[test]
    fn passive_and_active_realize_equal_runtime() {
        let s = schedule(200);
        let hw = HardwareConfig::ibm();
        let passive = execute(&s, &RuntimeConfig::new(&hw, PolicySpec::Passive, 5));
        let active = execute(&s, &RuntimeConfig::new(&hw, PolicySpec::Active, 5));
        // Same slack, same wall time: the policies differ in *where*
        // the idle sits (and so in error rate), not in how much.
        assert_eq!(passive.total_ns, active.total_ns);
        assert_eq!(passive.sync_idle_ns, active.sync_idle_ns);
    }

    #[test]
    fn hybrid_respects_its_slack_bound() {
        let s = schedule(200);
        let cfg = RuntimeConfig::new(&HardwareConfig::ibm(), PolicySpec::hybrid(400.0), 5);
        let r = execute(&s, &cfg);
        assert!(r.hybrid_applied > 0, "heterogeneous cycles enable Hybrid");
        assert!(
            r.max_hybrid_residual_ns < 400.0,
            "residual {} >= epsilon",
            r.max_hybrid_residual_ns
        );
    }

    #[test]
    fn dynamic_hybrid_never_idles_more_than_fixed_hybrid() {
        let s = schedule(200);
        let hw = HardwareConfig::ibm();
        let fixed = execute(&s, &RuntimeConfig::new(&hw, PolicySpec::hybrid(400.0), 5));
        let dynamic = execute(
            &s,
            &RuntimeConfig::new(&hw, PolicySpec::dynamic_hybrid(), 5),
        );
        assert!(dynamic.hybrid_applied > 0);
        assert!(
            dynamic.sync_idle_ns <= fixed.sync_idle_ns,
            "dynamic {} > fixed {}",
            dynamic.sync_idle_ns,
            fixed.sync_idle_ns
        );
        assert!(
            dynamic.overhead_percent() <= fixed.overhead_percent(),
            "dynamic {} > fixed {}",
            dynamic.overhead_percent(),
            fixed.overhead_percent()
        );
        // The adaptive tolerance never exceeds its cap.
        assert!(dynamic.max_hybrid_residual_ns < 400.0);
    }

    #[test]
    fn empty_schedule_reports_zeros_not_nan() {
        // Regression: an empty merge stream used to make the percentage
        // and mean-slack denominators zero; both must report 0.0, not
        // NaN.
        let s = ProgramSchedule {
            workload: "empty".into(),
            compute_patches: 1,
            factories: 1,
            pre_merge_rounds: 8,
            merge_window_rounds: 7,
            scheduled_cycles: 0,
            total_merges: 0,
            events: Vec::new(),
        };
        let cfg = RuntimeConfig::new(&HardwareConfig::ibm(), PolicySpec::Passive, 5);
        let r = execute(&s, &cfg);
        assert_eq!(r.merges, 0);
        assert_eq!(r.total_ns, 0);
        assert_eq!(r.overhead_percent(), 0.0);
        assert_eq!(r.mean_slack_ns(), 0.0);
        assert!(!r.overhead_percent().is_nan() && !r.mean_slack_ns().is_nan());
    }

    #[test]
    fn extra_rounds_converts_idle_into_rounds() {
        let s = schedule(200);
        let hw = HardwareConfig::ibm();
        let active = execute(&s, &RuntimeConfig::new(&hw, PolicySpec::Active, 5));
        let er = execute(&s, &RuntimeConfig::new(&hw, PolicySpec::ExtraRounds, 5));
        assert!(er.extra_rounds > 0);
        assert!(er.sync_idle_ns <= active.sync_idle_ns);
    }
}
