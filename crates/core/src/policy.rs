//! Synchronization plans (paper Section 4).
//!
//! The planning logic itself lives in
//! [`PolicySpec::plan`](crate::PolicySpec::plan); this module keeps the
//! [`SyncPlan`] output type every policy produces, plus the
//! behavior-pinning tests for the per-policy plan shapes (paper
//! Sections 4.1–4.2, Table 2).

use crate::strategy::PolicySpec;

/// A concrete synchronization plan for the *leading* patch — a plain
/// `Copy` value.
///
/// The circuit generator realizes a plan by (a) appending
/// `extra_rounds` syndrome rounds before the merge, (b) inserting
/// `idle_per_round_ns` of idle time before each of the
/// `rounds + extra_rounds` pre-merge rounds, (c) spreading
/// `intra_round_idle_ns` across the internal layer boundaries of the
/// final round, and (d) idling `final_idle_ns` right before the merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncPlan {
    /// The policy this plan realizes. A plan produced through the
    /// k-patch composition whose `policy` differs from the requested
    /// spec records a per-pair fallback
    /// (see [`synchronize_patches`](crate::synchronize_patches)).
    pub policy: PolicySpec,
    /// Extra syndrome-generation rounds to run before the merge.
    pub extra_rounds: u32,
    /// Pre-merge rounds the plan was made for, extras excluded.
    pub rounds: u32,
    /// Idle inserted before every pre-merge round, extras included.
    pub idle_per_round_ns: f64,
    /// Idle distributed within the final pre-merge round.
    pub intra_round_idle_ns: f64,
    /// Idle inserted immediately before the Lattice Surgery operation.
    pub final_idle_ns: f64,
}

impl SyncPlan {
    /// Idle inserted before the pre-merge rounds, summed round by round
    /// exactly as the circuit generator inserts it.
    pub fn round_idle_ns(&self) -> f64 {
        let rounds = (self.rounds + self.extra_rounds) as usize;
        std::iter::repeat_n(self.idle_per_round_ns, rounds).sum()
    }

    /// Total idle time the plan inserts (the "Idling period" row of
    /// paper Table 2).
    pub fn total_idle_ns(&self) -> f64 {
        self.round_idle_ns() + self.intra_round_idle_ns + self.final_idle_ns
    }

    /// A no-op plan (already synchronized).
    pub fn noop(policy: PolicySpec, rounds: u32) -> SyncPlan {
        SyncPlan {
            policy,
            extra_rounds: 0,
            rounds,
            idle_per_round_ns: 0.0,
            intra_round_idle_ns: 0.0,
            final_idle_ns: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SyncContext;
    use crate::SyncError;

    /// `PolicySpec::X.plan(&SyncContext::new(tau, T_P, T_P', rounds))`.
    fn plan(
        spec: PolicySpec,
        tau_ns: f64,
        t_p_ns: f64,
        t_p_prime_ns: f64,
        rounds: u32,
    ) -> Result<SyncPlan, SyncError> {
        spec.plan(&SyncContext::new(tau_ns, t_p_ns, t_p_prime_ns, rounds)?)
    }

    #[test]
    fn passive_puts_everything_at_the_end() {
        let p = plan(PolicySpec::Passive, 500.0, 1900.0, 1900.0, 8).unwrap();
        assert_eq!(p.final_idle_ns, 500.0);
        assert_eq!(p.idle_per_round_ns, 0.0);
        assert_eq!(p.total_idle_ns(), 500.0);
        assert_eq!(p.extra_rounds, 0);
        assert_eq!(p.policy, PolicySpec::Passive);
    }

    #[test]
    fn active_distributes_evenly() {
        let p = plan(PolicySpec::Active, 800.0, 1900.0, 1900.0, 8).unwrap();
        assert_eq!(p.rounds, 8);
        assert!((p.idle_per_round_ns - 100.0).abs() < 1e-9);
        assert!((p.total_idle_ns() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn active_intra_goes_inside_last_round() {
        let p = plan(PolicySpec::ActiveIntra, 600.0, 1900.0, 1900.0, 8).unwrap();
        assert_eq!(p.intra_round_idle_ns, 600.0);
        assert_eq!(p.final_idle_ns, 0.0);
    }

    #[test]
    fn extra_rounds_plan_has_no_idle() {
        let p = plan(PolicySpec::ExtraRounds, 1000.0, 1000.0, 1325.0, 8).unwrap();
        assert_eq!(p.extra_rounds, 52);
        assert_eq!(p.total_idle_ns(), 0.0);
        assert_eq!(p.rounds + p.extra_rounds, 60);
    }

    #[test]
    fn hybrid_matches_table_2() {
        let p = plan(PolicySpec::hybrid(400.0), 1000.0, 1000.0, 1325.0, 8).unwrap();
        assert_eq!(p.extra_rounds, 4);
        assert!((p.total_idle_ns() - 300.0).abs() < 1e-9);
        // Residual spread across all 12 rounds.
        assert_eq!(p.rounds + p.extra_rounds, 12);
        assert!((p.idle_per_round_ns - 25.0).abs() < 1e-9);
        assert_eq!(p.policy, PolicySpec::hybrid(400.0));
    }

    #[test]
    fn slack_wraps_modulo_cycle() {
        // tau larger than the lagging cycle time wraps (phase
        // difference).
        let p = plan(PolicySpec::Passive, 2100.0, 1900.0, 1900.0, 8).unwrap();
        assert!((p.final_idle_ns - 200.0).abs() < 1e-9);
    }

    #[test]
    fn extra_rounds_rejects_equal_cycles() {
        assert!(matches!(
            plan(PolicySpec::ExtraRounds, 500.0, 1900.0, 1900.0, 8),
            Err(SyncError::EqualCycleTimes { .. })
        ));
    }

    #[test]
    fn zero_slack_is_noop_for_all_policies() {
        for spec in [
            PolicySpec::Passive,
            PolicySpec::Active,
            PolicySpec::ActiveIntra,
        ] {
            let p = plan(spec, 0.0, 1900.0, 1900.0, 8).unwrap();
            assert_eq!(p.total_idle_ns(), 0.0);
            assert_eq!(p.extra_rounds, 0);
        }
    }

    #[test]
    fn invalid_rounds_rejected() {
        assert!(plan(PolicySpec::Active, 100.0, 1900.0, 1900.0, 0).is_err());
    }
}
