//! Solvers for the Extra-Rounds (Eq. 1) and Hybrid (Eq. 2) conditions.

use crate::SyncError;

/// Tolerance (ns) for treating a residual as an exact integral solution.
const EXACT_TOL_NS: f64 = 1e-6;

/// Solves the Diophantine synchronization condition of paper Eq. (1):
/// find the smallest number of extra rounds `m` for the leading patch
/// (cycle time `t_p_ns`) such that `m * T_P + tau` is an integer
/// multiple of the lagging patch's cycle time `t_p_prime_ns`.
///
/// Returns the smallest such `m <= max_rounds`.
///
/// # Errors
///
/// * [`SyncError::EqualCycleTimes`] when `T_P == T_P'` — extra rounds
///   can never remove the slack (the phase difference is invariant).
/// * [`SyncError::NoIntegralSolution`] when no `m <= max_rounds` works
///   (paper Fig. 10 shows such configurations, e.g. `T_P' = 1200`,
///   `tau = 500`).
/// * [`SyncError::InvalidParameter`] for non-positive or non-finite
///   cycle times, or a negative or non-finite slack.
///
/// # Example
///
/// ```
/// use ftqc_sync::solve_extra_rounds;
///
/// // Paper Fig. 10: T_P = 1000, T_P' = 1150, tau = 500 -> 11 rounds.
/// assert_eq!(solve_extra_rounds(1000.0, 1150.0, 500.0, 100).unwrap(), 11);
/// ```
pub fn solve_extra_rounds(
    t_p_ns: f64,
    t_p_prime_ns: f64,
    tau_ns: f64,
    max_rounds: u32,
) -> Result<u32, SyncError> {
    validate(t_p_ns, t_p_prime_ns, tau_ns)?;
    if (t_p_ns - t_p_prime_ns).abs() < EXACT_TOL_NS {
        return Err(SyncError::EqualCycleTimes {
            cycle_time_ns: t_p_ns,
        });
    }
    for m in 0..=max_rounds {
        let elapsed = m as f64 * t_p_ns + tau_ns;
        let ratio = elapsed / t_p_prime_ns;
        if (ratio - ratio.round()).abs() * t_p_prime_ns < EXACT_TOL_NS && ratio.round() >= 0.0 {
            // m = 0 only counts when tau itself is already a multiple
            // (i.e. the patches are in phase).
            return Ok(m);
        }
    }
    Err(SyncError::NoIntegralSolution {
        t_p_ns,
        t_p_prime_ns,
        tau_ns,
        max_rounds,
    })
}

/// A Hybrid-policy solution: run `extra_rounds` additional rounds on the
/// leading patch and distribute `residual_ns` of idle time across the
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridSolution {
    /// Extra error-correction rounds (`z` in paper Eq. 2).
    pub extra_rounds: u32,
    /// Residual slack to idle away, strictly below the tolerance.
    pub residual_ns: f64,
}

/// Solves the Hybrid condition of paper Eq. (2): find the smallest
/// `1 <= z <= max_rounds` with residual misalignment
///
/// ```text
/// ceil((z * T_P + tau) / T_P') * T_P' - (z * T_P + tau) < epsilon_ns
/// ```
///
/// Only that residual needs to be idled away (Active-style). The
/// search starts at `z = 1` — the Hybrid policy by definition runs
/// extra rounds (`z = 0` would degenerate to pure Active). This
/// first-fit-from-one semantics reproduces the paper's worked examples
/// exactly: Table 2 (`tau = 1000`, `eps = 400` -> `z = 4`, 300 ns),
/// Section 4.2 (`tau = 800`, `eps = 200` -> `z = 3`, 175 ns) and the
/// neutral-atom round counts of Table 5. The paper bounds `max_rounds`
/// at 5 for superconducting systems (Section 4.2.1) and uses larger
/// bounds for the millisecond-scale neutral-atom study.
///
/// # Errors
///
/// Same parameter errors as [`solve_extra_rounds`], plus
/// [`SyncError::NoHybridSolution`] when no `z <= max_rounds`
/// satisfies the bound.
///
/// # Example
///
/// ```
/// use ftqc_sync::solve_hybrid;
///
/// // Paper Table 2: T_P = 1000, T_P' = 1325, tau = 1000, eps = 400
/// // -> 4 extra rounds with a 300 ns residual (round budget 5).
/// let s = solve_hybrid(1000.0, 1325.0, 1000.0, 400.0, 5).unwrap();
/// assert_eq!(s.extra_rounds, 4);
/// assert!((s.residual_ns - 300.0).abs() < 1e-6);
/// ```
pub fn solve_hybrid(
    t_p_ns: f64,
    t_p_prime_ns: f64,
    tau_ns: f64,
    epsilon_ns: f64,
    max_rounds: u32,
) -> Result<HybridSolution, SyncError> {
    validate(t_p_ns, t_p_prime_ns, tau_ns)?;
    if epsilon_ns.is_nan() || epsilon_ns <= 0.0 {
        return Err(SyncError::InvalidParameter("epsilon must be positive"));
    }
    if (t_p_ns - t_p_prime_ns).abs() < EXACT_TOL_NS {
        return Err(SyncError::EqualCycleTimes {
            cycle_time_ns: t_p_ns,
        });
    }
    for z in 1..=max_rounds.max(1) {
        let elapsed = z as f64 * t_p_ns + tau_ns;
        let residual = (elapsed / t_p_prime_ns).ceil() * t_p_prime_ns - elapsed;
        if residual < epsilon_ns {
            return Ok(HybridSolution {
                extra_rounds: z,
                residual_ns: residual,
            });
        }
    }
    Err(SyncError::NoHybridSolution {
        epsilon_ns,
        max_rounds,
    })
}

fn validate(t_p_ns: f64, t_p_prime_ns: f64, tau_ns: f64) -> Result<(), SyncError> {
    if !(t_p_ns.is_finite() && t_p_ns > 0.0 && t_p_prime_ns.is_finite() && t_p_prime_ns > 0.0) {
        return Err(SyncError::InvalidParameter("cycle times must be positive"));
    }
    if !tau_ns.is_finite() || tau_ns < 0.0 {
        return Err(SyncError::InvalidParameter(
            "slack must be finite and non-negative",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All eight configurations from paper Fig. 10.
    #[test]
    fn figure_10_configurations() {
        let cases: [(f64, f64, Option<u32>); 8] = [
            (1200.0, 500.0, None),
            (1200.0, 1000.0, Some(5)),
            (1150.0, 500.0, Some(11)),
            (1150.0, 1000.0, Some(22)),
            (1325.0, 500.0, Some(26)),
            (1325.0, 1000.0, Some(52)),
            (1725.0, 500.0, Some(34)),
            (1725.0, 1000.0, Some(68)),
        ];
        for (t_prime, tau, expect) in cases {
            let got = solve_extra_rounds(1000.0, t_prime, tau, 100).ok();
            assert_eq!(got, expect, "T_P'={t_prime}, tau={tau}");
        }
    }

    #[test]
    fn equal_cycle_times_rejected() {
        assert_eq!(
            solve_extra_rounds(1000.0, 1000.0, 500.0, 100),
            Err(SyncError::EqualCycleTimes {
                cycle_time_ns: 1000.0
            })
        );
        assert!(matches!(
            solve_hybrid(1000.0, 1000.0, 500.0, 100.0, 100),
            Err(SyncError::EqualCycleTimes { .. })
        ));
    }

    #[test]
    fn zero_slack_needs_zero_rounds() {
        assert_eq!(solve_extra_rounds(1000.0, 1150.0, 0.0, 100).unwrap(), 0);
    }

    #[test]
    fn table_2_hybrid() {
        let s = solve_hybrid(1000.0, 1325.0, 1000.0, 400.0, 5).unwrap();
        assert_eq!(s.extra_rounds, 4);
        assert!((s.residual_ns - 300.0).abs() < 1e-6);
    }

    #[test]
    fn section_4_2_worked_example() {
        // tau = 800, eps = 200: idling drops from 800 ns to 175 ns and
        // rounds from 31 (pure extra rounds) to 3.
        let s = solve_hybrid(1000.0, 1325.0, 800.0, 200.0, 5).unwrap();
        assert_eq!(s.extra_rounds, 3);
        assert!((s.residual_ns - 175.0).abs() < 1e-6);
        assert_eq!(solve_extra_rounds(1000.0, 1325.0, 800.0, 100).unwrap(), 31);
    }

    #[test]
    fn hybrid_takes_first_satisfying_z_from_one() {
        // With a huge epsilon the very first extra round already
        // satisfies the bound; z = 0 is never returned.
        let s = solve_hybrid(1000.0, 1325.0, 700.0, 2000.0, 10).unwrap();
        assert_eq!(s.extra_rounds, 1);
        assert!((s.residual_ns - 950.0).abs() < 1e-6);
    }

    #[test]
    fn table_5_neutral_atom_rounds() {
        // Paper Table 5 reports the max over T_P' = 2.2/2.4/2.6 ms.
        let ms = 1e6;
        let max_z = |tau_ms: f64, eps_ms: f64| {
            [2.2, 2.4, 2.6]
                .iter()
                .filter_map(|&tpp| {
                    solve_hybrid(2.0 * ms, tpp * ms, tau_ms * ms, eps_ms * ms, 12)
                        .ok()
                        .map(|s| s.extra_rounds)
                })
                .max()
                .unwrap()
        };
        assert_eq!(max_z(0.2, 0.1), 9);
        assert_eq!(max_z(0.6, 0.1), 3);
        assert_eq!(max_z(1.0, 0.1), 6);
        assert_eq!(max_z(1.6, 0.1), 8);
        assert_eq!(max_z(2.0, 0.1), 12);
        assert_eq!(max_z(0.2, 0.4), 5);
        assert_eq!(max_z(0.6, 0.4), 3);
    }

    #[test]
    fn hybrid_residual_always_below_epsilon() {
        for tau in [100.0, 300.0, 500.0, 900.0, 1300.0] {
            for eps in [50.0, 100.0, 400.0] {
                if let Ok(s) = solve_hybrid(1000.0, 1150.0, tau, eps, 50) {
                    assert!(s.residual_ns < eps, "tau={tau} eps={eps}");
                    assert!(s.residual_ns >= 0.0);
                }
            }
        }
    }

    #[test]
    fn no_hybrid_solution_within_bound() {
        // With a tiny epsilon and few rounds allowed, fail cleanly.
        let r = solve_hybrid(1000.0, 1150.0, 500.0, 1e-3, 3);
        assert!(matches!(r, Err(SyncError::NoHybridSolution { .. })));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(solve_extra_rounds(-1.0, 1150.0, 0.0, 10).is_err());
        assert!(solve_extra_rounds(1000.0, 1150.0, -5.0, 10).is_err());
        assert!(solve_hybrid(1000.0, 1150.0, 100.0, 0.0, 10).is_err());
        for r in [
            solve_extra_rounds(1000.0, 1325.0, f64::INFINITY, 100).map(|_| ()),
            solve_hybrid(1000.0, 1325.0, f64::INFINITY, 400.0, 5).map(|_| ()),
            solve_hybrid(1000.0, 1325.0, 1000.0, f64::NAN, 5).map(|_| ()),
        ] {
            assert!(matches!(r, Err(SyncError::InvalidParameter(_))), "{r:?}");
        }
    }

    #[test]
    fn neutral_atom_scale_solutions() {
        // Table 5 scale: millisecond cycles expressed in ns.
        let s = solve_hybrid(2e6, 2.2e6, 0.6e6, 0.1e6, 20).unwrap();
        assert!(s.extra_rounds > 0);
        assert!(s.residual_ns < 0.1e6);
    }
}
