//! Logical clocks and k-patch synchronization (paper Section 4.3).

use crate::context::{SlackWindow, SyncContext};
use crate::policy::SyncPlan;
use crate::strategy::PolicySpec;
use crate::SyncError;

/// The logical clock of a patch: every patch completes one
/// syndrome-generation cycle per logical clock cycle, but the *phase*
/// of that clock varies between patches (paper Section 1), which is
/// what creates synchronization slack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicalClock {
    /// Duration of one syndrome-generation cycle, nanoseconds.
    pub cycle_time_ns: f64,
    /// Time already elapsed in the current cycle, nanoseconds
    /// (`0 <= phase < cycle_time`).
    pub phase_ns: f64,
}

impl LogicalClock {
    /// Creates a clock.
    ///
    /// # Panics
    ///
    /// Panics unless `cycle_time_ns` is positive and finite and
    /// `phase_ns` lies in `[0, cycle_time_ns)`.
    pub fn new(cycle_time_ns: f64, phase_ns: f64) -> LogicalClock {
        let clock = LogicalClock {
            cycle_time_ns,
            phase_ns,
        };
        assert!(
            clock.is_valid(),
            "phase {phase_ns} outside [0, {cycle_time_ns}) or cycle not positive and finite"
        );
        clock
    }

    /// Whether the clock meets [`new`](LogicalClock::new)'s contract.
    /// The fields are public, so a struct literal can bypass it.
    fn is_valid(&self) -> bool {
        self.cycle_time_ns.is_finite() && (0.0..self.cycle_time_ns).contains(&self.phase_ns)
    }

    /// Time remaining until this patch completes its current cycle.
    pub fn time_to_cycle_end_ns(&self) -> f64 {
        self.cycle_time_ns - self.phase_ns
    }

    /// The slack this patch must absorb to align with `slowest`: the
    /// extra time the slowest (most lagging) patch needs to finish its
    /// current cycle after this patch finishes its own.
    pub fn slack_against_ns(&self, slowest: &LogicalClock) -> f64 {
        (slowest.time_to_cycle_end_ns() - self.time_to_cycle_end_ns()).max(0.0)
    }
}

/// Synchronizes `k` patches: identifies the slowest (most lagging)
/// patch and plans a pairwise synchronization of every other patch
/// against it under `policy`, with adaptive policies reading the
/// controller's `observed` slack window (pass an empty window when
/// planning outside a controller). All pairwise plans are independent,
/// so a controller can apply them in parallel — the constant-time
/// property the paper claims in Section 4.3.
///
/// When the policy is infeasible for a particular pair (e.g. an
/// extra-round policy between equal cycle times, or a Hybrid bound
/// with no solution), that pair falls back to [`PolicySpec::Active`],
/// mirroring the runtime policy selection described in Section 5; the
/// fallback plan's `policy` field records it.
///
/// Replaces the contents of `plans` with one plan per clock, in clock
/// order, and returns the slowest patch's index; that patch gets a
/// no-op plan stamped with `policy`. Reusing `plans` across calls keeps
/// planning off the heap.
///
/// # Errors
///
/// Returns [`SyncError::InvalidParameter`] for an empty patch list,
/// `rounds == 0`, or a clock outside [`LogicalClock::new`]'s contract;
/// `plans` is then left empty.
///
/// # Example
///
/// ```
/// use ftqc_sync::{synchronize_patches, LogicalClock, PolicySpec, SlackWindow};
///
/// let clocks = [
///     LogicalClock::new(1900.0, 500.0),
///     LogicalClock::new(1900.0, 0.0),
///     LogicalClock::new(1900.0, 1200.0),
/// ];
/// let mut plans = Vec::new();
/// let window = SlackWindow::default();
/// let slowest = synchronize_patches(&PolicySpec::Active, &clocks, 8, &window, &mut plans).unwrap();
/// assert_eq!(slowest, 1); // phase 0: the full cycle still ahead of it
/// assert_eq!(plans[1].total_idle_ns(), 0.0);
/// assert!(plans[2].total_idle_ns() > plans[0].total_idle_ns());
/// ```
pub fn synchronize_patches(
    policy: &PolicySpec,
    clocks: &[LogicalClock],
    rounds: u32,
    observed: &SlackWindow,
    plans: &mut Vec<SyncPlan>,
) -> Result<usize, SyncError> {
    plans.clear();
    if clocks.is_empty() {
        return Err(SyncError::InvalidParameter("no patches to synchronize"));
    }
    if rounds == 0 {
        return Err(SyncError::InvalidParameter("rounds must be positive"));
    }
    if !clocks.iter().all(LogicalClock::is_valid) {
        return Err(SyncError::InvalidParameter(
            "clock outside LogicalClock::new's contract",
        ));
    }
    // The slowest patch is the one that takes longest to complete its
    // current code cycle.
    let slowest = clocks
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.time_to_cycle_end_ns()
                .total_cmp(&b.1.time_to_cycle_end_ns())
        })
        .map(|(i, _)| i)
        .expect("non-empty");
    let slow = &clocks[slowest];
    for (i, c) in clocks.iter().enumerate() {
        if i == slowest {
            plans.push(SyncPlan::noop(*policy, rounds));
            continue;
        }
        // Validated clocks make every pairwise context valid and the
        // Active fallback total, so no error leaves `plans` half full.
        let tau = c.slack_against_ns(slow);
        let ctx = SyncContext::new(tau, c.cycle_time_ns, slow.cycle_time_ns, rounds)?;
        let plan = policy
            .plan_observed(&ctx, observed)
            .or_else(|_| PolicySpec::Active.plan(&ctx))?;
        plans.push(plan);
    }
    Ok(slowest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`synchronize_patches`] outside a controller: no observed slack.
    fn plan_all(
        policy: &PolicySpec,
        clocks: &[LogicalClock],
        rounds: u32,
    ) -> Result<(Vec<SyncPlan>, usize), SyncError> {
        plan_observed(policy, clocks, rounds, &SlackWindow::default())
    }

    /// [`synchronize_patches`] into a fresh plan buffer.
    fn plan_observed(
        policy: &PolicySpec,
        clocks: &[LogicalClock],
        rounds: u32,
        observed: &SlackWindow,
    ) -> Result<(Vec<SyncPlan>, usize), SyncError> {
        let mut plans = Vec::new();
        let slowest = synchronize_patches(policy, clocks, rounds, observed, &mut plans)?;
        Ok((plans, slowest))
    }

    #[test]
    fn slack_is_time_difference_to_cycle_end() {
        let leading = LogicalClock::new(1900.0, 1500.0); // finishes in 400
        let lagging = LogicalClock::new(1900.0, 300.0); // finishes in 1600
        assert!((leading.slack_against_ns(&lagging) - 1200.0).abs() < 1e-9);
        assert_eq!(lagging.slack_against_ns(&leading), 0.0);
    }

    #[test]
    fn k_patch_sync_targets_slowest() {
        let clocks = [
            LogicalClock::new(1900.0, 100.0),
            LogicalClock::new(1900.0, 900.0),
            LogicalClock::new(1900.0, 1800.0),
        ];
        let (plans, slowest) = plan_all(&PolicySpec::Passive, &clocks, 8).unwrap();
        assert_eq!(slowest, 0);
        assert_eq!(plans[0].total_idle_ns(), 0.0);
        assert!((plans[1].total_idle_ns() - 800.0).abs() < 1e-9);
        assert!((plans[2].total_idle_ns() - 1700.0).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_cycle_times_allow_hybrid() {
        let clocks = [
            LogicalClock::new(1000.0, 0.0),   // finishes in 1000
            LogicalClock::new(1325.0, 425.0), // finishes in 900: leads
        ];
        let (plans, slowest) = plan_all(&PolicySpec::hybrid(400.0), &clocks, 8).unwrap();
        assert_eq!(slowest, 0);
        assert_eq!(plans[1].extra_rounds, 2); // min residual 250 at z = 2
        assert!((plans[1].total_idle_ns() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_policy_falls_back_to_active() {
        // Equal cycle times: ExtraRounds is impossible, falls back.
        let clocks = [
            LogicalClock::new(1900.0, 500.0),
            LogicalClock::new(1900.0, 0.0),
        ];
        let (plans, slowest) = plan_all(&PolicySpec::ExtraRounds, &clocks, 8).unwrap();
        assert_eq!(slowest, 1);
        assert_eq!(plans[0].policy, PolicySpec::Active);
        // The no-op plan still records the requested policy.
        assert_eq!(plans[1].policy, PolicySpec::ExtraRounds);
        assert!((plans[0].total_idle_ns() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_zero_rounds_rejected() {
        assert!(plan_all(&PolicySpec::Active, &[], 8).is_err());
        let c = [LogicalClock::new(1000.0, 0.0)];
        assert!(plan_all(&PolicySpec::Active, &c, 0).is_err());
    }

    #[test]
    fn single_patch_is_trivially_synchronized() {
        let c = [LogicalClock::new(1000.0, 400.0)];
        let (plans, slowest) = plan_all(&PolicySpec::Active, &c, 4).unwrap();
        assert_eq!(slowest, 0);
        assert_eq!(plans[0].total_idle_ns(), 0.0);
    }

    #[test]
    fn observed_window_reaches_adaptive_strategies() {
        let clocks = [
            LogicalClock::new(1000.0, 0.0),
            LogicalClock::new(1325.0, 425.0), // leads by 100
        ];
        let mut w = SlackWindow::new(8);
        for s in [120.0, 130.0, 140.0] {
            w.record(s);
        }
        let spec = PolicySpec::dynamic_hybrid();
        let (with_window, _) = plan_observed(&spec, &clocks, 8, &w).unwrap();
        let (without, _) = plan_all(&spec, &clocks, 8).unwrap();
        // The tightened tolerance can only shrink the planned idle.
        assert!(
            with_window[1].total_idle_ns() <= without[1].total_idle_ns() + 1e-9,
            "window {} vs empty {}",
            with_window[1].total_idle_ns(),
            without[1].total_idle_ns()
        );
    }

    #[test]
    fn clocks_outside_the_contract_are_rejected() {
        // Struct literals bypass `LogicalClock::new`; the planner must
        // reject them rather than panic on a NaN cycle or plan idle
        // from a phase outside the cycle.
        let good = LogicalClock::new(1900.0, 0.0);
        let bad = [
            LogicalClock {
                cycle_time_ns: f64::NAN,
                phase_ns: 0.0,
            },
            LogicalClock {
                cycle_time_ns: 1900.0,
                phase_ns: 2500.0,
            },
            LogicalClock {
                cycle_time_ns: 1900.0,
                phase_ns: -500.0,
            },
        ];
        for clock in bad {
            let mut plans = vec![SyncPlan::noop(PolicySpec::Active, 8)];
            let window = SlackWindow::default();
            let got =
                synchronize_patches(&PolicySpec::Active, &[good, clock], 8, &window, &mut plans);
            assert!(
                matches!(got, Err(SyncError::InvalidParameter(_))),
                "{clock:?}: {got:?}"
            );
            assert!(
                plans.is_empty(),
                "{clock:?}: a failed request leaves no plans"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn phase_must_be_within_cycle() {
        LogicalClock::new(1000.0, 1000.0);
    }
}
