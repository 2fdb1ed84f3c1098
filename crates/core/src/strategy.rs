//! The synchronization policies: the parseable [`PolicySpec`] value
//! type and its planner (paper Section 4 plus the drift-adaptive
//! `DynamicHybrid` extension).
//!
//! [`PolicySpec`] is the single representation of a policy — planned
//! through [`PolicySpec::plan`], handed to
//! [`Controller::synchronize_report`](crate::Controller::synchronize_report)
//! and [`synchronize_patches`](crate::synchronize_patches), and named
//! by its round-tripping `Display`/`FromStr` forms on the
//! `repro --policy` command line, in `RuntimeConfig`, bench group
//! labels and result tables.

use crate::context::{SlackWindow, SyncContext};
use crate::solver::{solve_extra_rounds, solve_hybrid};
use crate::{SyncError, SyncPlan};
use std::fmt;
use std::str::FromStr;

/// Default Hybrid tolerance (the paper's superconducting evaluations
/// use 400 ns).
pub const DEFAULT_EPSILON_NS: f64 = 400.0;
/// Default extra-round budget (paper Section 4.2.1 bounds
/// superconducting systems at 5).
pub const DEFAULT_MAX_EXTRA_ROUNDS: u32 = 5;
/// Default tolerance floor for `dynamic-hybrid` (ns).
pub const DEFAULT_DYNAMIC_FLOOR_NS: f64 = 50.0;
/// Default slack-window quantile for `dynamic-hybrid`.
pub const DEFAULT_DYNAMIC_QUANTILE: f64 = 0.25;
/// Default extended round budget for `dynamic-hybrid` (the neutral-atom
/// study of paper Table 5 already uses budgets past the
/// superconducting 5; the adaptive search may spend up to this many
/// rounds when that beats idling).
pub const DEFAULT_DYNAMIC_DEEP_ROUNDS: u32 = 25;

/// A named, parameterized synchronization policy.
///
/// `Display` and `FromStr` round-trip exactly, so the same string names
/// a policy on the `repro --policy` command line, in result tables, in
/// bench group labels and in checkpoint metadata:
///
/// | Spec | Meaning |
/// |------|---------|
/// | `passive` | idle the whole slack right before the merge |
/// | `active` | spread the slack across the pre-merge rounds |
/// | `active-intra` | spread it inside the final round |
/// | `extra-rounds` | remove it with extra rounds per Eq. (1) |
/// | `hybrid:eps=400,max=5` | Eq. (2) with residual tolerance `eps` ns |
/// | `dynamic-hybrid:eps=400,floor=50,q=0.25,max=5,deep=25` | Hybrid whose per-merge tolerance tracks the controller's recent slack window, spending up to `deep` rounds when that beats idling |
///
/// Parameters may be given in any order and omitted (defaults above);
/// `hybrid` and `dynamic-hybrid` alone are valid specs.
///
/// # Example
///
/// ```
/// use ftqc_sync::PolicySpec;
///
/// let spec: PolicySpec = "hybrid:eps=250,max=4".parse().unwrap();
/// assert_eq!(spec.to_string(), "hybrid:eps=250,max=4");
/// assert_eq!(spec.to_string().parse::<PolicySpec>().unwrap(), spec);
/// assert!("pasive".parse::<PolicySpec>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// The Passive baseline (paper Section 4.1.1).
    Passive,
    /// Active inter-round slack distribution (Section 4.1.2).
    Active,
    /// Active intra-round distribution (Section 4.1.3).
    ActiveIntra,
    /// Extra rounds per Eq. (1) (Section 4.1.4).
    ExtraRounds,
    /// Hybrid per Eq. (2) (Section 4.2).
    Hybrid {
        /// Maximum tolerated residual idle, ns.
        epsilon_ns: f64,
        /// Upper bound on extra rounds searched by Eq. (2).
        max_extra_rounds: u32,
    },
    /// Hybrid whose tolerance is chosen per merge from the controller's
    /// recent slack window instead of a fixed value, with a deeper
    /// round budget available when that beats idling — never worse
    /// than `Hybrid` at the same `eps` cap and `max` budget (see
    /// [`PolicySpec::plan`]).
    DynamicHybrid {
        /// Upper bound (and empty-window fallback) for the per-merge
        /// tolerance, ns.
        max_epsilon_ns: f64,
        /// Lower bound for the per-merge tolerance, ns.
        floor_ns: f64,
        /// Quantile of the recent slack window used as the tolerance.
        quantile: f64,
        /// Round budget of the fixed-Hybrid baseline the policy must
        /// never lose to (Eq. (2)'s `max`).
        max_extra_rounds: u32,
        /// Extended round budget the adaptive search may spend when the
        /// resulting residual beats every idling alternative.
        deep_rounds: u32,
    },
}

impl PolicySpec {
    /// A Hybrid spec with tolerance `epsilon_ns` and the paper's
    /// default round budget of 5.
    pub fn hybrid(epsilon_ns: f64) -> PolicySpec {
        PolicySpec::Hybrid {
            epsilon_ns,
            max_extra_rounds: DEFAULT_MAX_EXTRA_ROUNDS,
        }
    }

    /// A DynamicHybrid spec with the default parameters
    /// (`eps=400,floor=50,q=0.25,max=5,deep=25`).
    pub fn dynamic_hybrid() -> PolicySpec {
        PolicySpec::DynamicHybrid {
            max_epsilon_ns: DEFAULT_EPSILON_NS,
            floor_ns: DEFAULT_DYNAMIC_FLOOR_NS,
            quantile: DEFAULT_DYNAMIC_QUANTILE,
            max_extra_rounds: DEFAULT_MAX_EXTRA_ROUNDS,
            deep_rounds: DEFAULT_DYNAMIC_DEEP_ROUNDS,
        }
    }

    /// Plans how the leading patch described by `ctx` removes its
    /// slack against the lagging one before Lattice Surgery.
    ///
    /// # Contract
    ///
    /// * `ctx` is validated ([`SyncContext::new`]: positive finite
    ///   cycle times, finite non-negative slack, `rounds >= 1`), and the
    ///   plan removes the *wrapped* slack
    ///   ([`SyncContext::wrapped_tau_ns`]) — idle inserted plus slack
    ///   eliminated by extra rounds accounts for all of it (the
    ///   conservation property `tests/properties.rs` checks for every
    ///   policy).
    /// * The plan's `policy` field is stamped with `self` (callers use
    ///   it for fallback and overhead accounting).
    /// * Planning is deterministic: the same context yields the same
    ///   plan. Adaptivity comes from [`SyncContext::observed`], not
    ///   hidden state.
    ///
    /// `DynamicHybrid` is *dominant by construction* over the fixed
    /// `Hybrid { eps: max_epsilon_ns, max: max_extra_rounds }` baseline:
    ///
    /// 1. Compute the baseline's own plan (Eq. (2) first-fit at the cap
    ///    within `max_extra_rounds`), exactly as the fixed policy would
    ///    — including its failure, which the k-patch composition turns
    ///    into an Active fallback idling the full wrapped slack.
    /// 2. Pick the adaptive tolerance: the window's `quantile`-quantile
    ///    clamped to `[floor_ns, max_epsilon_ns]` (an empty window uses
    ///    the cap). Search `z <= deep_rounds` first-fit at that
    ///    tolerance, escalating it in doubling steps up to the cap; a
    ///    candidate found while the baseline is infeasible must also
    ///    beat the Active fallback (residual <= wrapped slack), since
    ///    extra rounds are only worth spending when they remove more
    ///    idle than they avoid.
    /// 3. Return whichever plan inserts less idle, floored by a plain
    ///    Active-style spread of the wrapped slack — an adaptive policy
    ///    never inserts more idle than the slack it removes. Only equal
    ///    cycle times (no hybrid exists at all) remain an error.
    ///
    /// # Errors
    ///
    /// Solver errors when the policy is infeasible for the pair (e.g.
    /// equal cycle times for an extra-round policy); the k-patch
    /// composition then falls back to [`PolicySpec::Active`], mirroring
    /// the runtime policy selection of paper Section 5.
    pub fn plan(&self, ctx: &SyncContext) -> Result<SyncPlan, SyncError> {
        self.plan_observed(ctx, &ctx.observed)
    }

    /// [`plan`](PolicySpec::plan) with `observed` standing in for
    /// `ctx.observed`: the k-patch composition borrows one window for
    /// every pairwise context instead of cloning it into each.
    pub(crate) fn plan_observed(
        &self,
        ctx: &SyncContext,
        observed: &SlackWindow,
    ) -> Result<SyncPlan, SyncError> {
        let tau = ctx.wrapped_tau_ns();
        match self {
            PolicySpec::Passive => Ok(SyncPlan {
                final_idle_ns: tau,
                ..SyncPlan::noop(*self, ctx.rounds)
            }),
            PolicySpec::Active => Ok(self.spread(ctx, 0, tau)),
            PolicySpec::ActiveIntra => Ok(SyncPlan {
                intra_round_idle_ns: tau,
                ..SyncPlan::noop(*self, ctx.rounds)
            }),
            PolicySpec::ExtraRounds => {
                let m = solve_extra_rounds(
                    ctx.t_p_ns,
                    ctx.t_p_prime_ns,
                    tau,
                    EXTRA_ROUNDS_SEARCH_LIMIT,
                )?;
                Ok(SyncPlan {
                    extra_rounds: m,
                    ..SyncPlan::noop(*self, ctx.rounds)
                })
            }
            PolicySpec::Hybrid {
                epsilon_ns,
                max_extra_rounds,
            } => self.hybrid_plan(ctx, *epsilon_ns, *max_extra_rounds),
            PolicySpec::DynamicHybrid {
                max_epsilon_ns,
                floor_ns,
                quantile,
                max_extra_rounds,
                deep_rounds,
            } => {
                // 1. The fixed-Hybrid baseline this policy must dominate.
                let baseline = self.hybrid_plan(ctx, *max_epsilon_ns, *max_extra_rounds);
                if let Err(
                    e @ (SyncError::EqualCycleTimes { .. } | SyncError::InvalidParameter(_)),
                ) = baseline
                {
                    return Err(e); // no hybrid of any kind exists
                }
                // 2. The adaptive candidate. While the baseline is
                // infeasible the alternative is an Active fallback
                // idling the wrapped slack, so a candidate must stay
                // below that.
                let limit = match &baseline {
                    Ok(_) => *max_epsilon_ns,
                    Err(_) => max_epsilon_ns.min(tau),
                };
                let tolerance = dynamic_tolerance(observed, *max_epsilon_ns, *floor_ns, *quantile);
                let deep = (*deep_rounds).max(*max_extra_rounds).max(1);
                let candidate = deep_search(ctx, tolerance, limit, deep)
                    .map(|(z, residual)| self.spread(ctx, z, residual));
                // 3. Whichever idles least, floored by the plain Active
                // spread. Prefer the baseline on ties (fewer extra
                // rounds), and the Active spread only when strictly
                // cheaper.
                let best = match (baseline.ok(), candidate) {
                    (Some(base), Some(cand)) if cand.total_idle_ns() < base.total_idle_ns() => {
                        Some(cand)
                    }
                    (Some(base), _) => Some(base),
                    (None, cand) => cand,
                };
                match best {
                    Some(plan) if plan.total_idle_ns() <= tau => Ok(plan),
                    _ => Ok(self.spread(ctx, 0, tau)),
                }
            }
        }
    }

    /// Solves Eq. (2) at tolerance `epsilon_ns` within
    /// `max_extra_rounds` and spreads the residual.
    fn hybrid_plan(
        &self,
        ctx: &SyncContext,
        epsilon_ns: f64,
        max_extra_rounds: u32,
    ) -> Result<SyncPlan, SyncError> {
        let sol = solve_hybrid(
            ctx.t_p_ns,
            ctx.t_p_prime_ns,
            ctx.wrapped_tau_ns(),
            epsilon_ns,
            max_extra_rounds,
        )?;
        Ok(self.spread(ctx, sol.extra_rounds, sol.residual_ns))
    }

    /// `extra_rounds` extra rounds plus `idle_ns` split evenly before
    /// every pre-merge round, extras included — the Active spread
    /// (`extra_rounds == 0`) and the one residual convention both
    /// Hybrid variants share.
    fn spread(&self, ctx: &SyncContext, extra_rounds: u32, idle_ns: f64) -> SyncPlan {
        SyncPlan {
            extra_rounds,
            idle_per_round_ns: idle_ns / (ctx.rounds + extra_rounds) as f64,
            ..SyncPlan::noop(*self, ctx.rounds)
        }
    }
}

/// Round budget Eq. (1) is searched over (the abstract solver studies
/// of paper Fig. 10 use the same horizon).
const EXTRA_ROUNDS_SEARCH_LIMIT: u32 = 100;

/// `DynamicHybrid`'s starting tolerance: the `observed` window's
/// `quantile`-quantile clamped to `[floor_ns, max_epsilon_ns]`, or the
/// cap when the window is empty.
fn dynamic_tolerance(
    observed: &SlackWindow,
    max_epsilon_ns: f64,
    floor_ns: f64,
    quantile: f64,
) -> f64 {
    observed.quantile_ns(quantile).map_or(max_epsilon_ns, |q| {
        q.clamp(floor_ns.min(max_epsilon_ns), max_epsilon_ns)
    })
}

/// First `z <= deep` whose Eq. (2) residual is below `tolerance`,
/// escalating the tolerance in doubling steps up to `limit` —
/// `(z, residual)` of the first hit.
fn deep_search(ctx: &SyncContext, tolerance: f64, limit: f64, deep: u32) -> Option<(u32, f64)> {
    let tau = ctx.wrapped_tau_ns();
    let residual = |z: u32| {
        let elapsed = z as f64 * ctx.t_p_ns + tau;
        (elapsed / ctx.t_p_prime_ns).ceil() * ctx.t_p_prime_ns - elapsed
    };
    let mut tol = tolerance.min(limit);
    while tol > 0.0 {
        if let Some(hit) = (1..=deep).map(|z| (z, residual(z))).find(|(_, r)| *r < tol) {
            return Some(hit);
        }
        if tol >= limit {
            return None;
        }
        tol = (tol * 2.0).min(limit);
    }
    None
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Passive => write!(f, "passive"),
            PolicySpec::Active => write!(f, "active"),
            PolicySpec::ActiveIntra => write!(f, "active-intra"),
            PolicySpec::ExtraRounds => write!(f, "extra-rounds"),
            PolicySpec::Hybrid {
                epsilon_ns,
                max_extra_rounds,
            } => write!(f, "hybrid:eps={epsilon_ns},max={max_extra_rounds}"),
            PolicySpec::DynamicHybrid {
                max_epsilon_ns,
                floor_ns,
                quantile,
                max_extra_rounds,
                deep_rounds,
            } => write!(
                f,
                "dynamic-hybrid:eps={max_epsilon_ns},floor={floor_ns},q={quantile},\
                 max={max_extra_rounds},deep={deep_rounds}"
            ),
        }
    }
}

/// Why a policy spec string failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyParseError(String);

impl fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for PolicyParseError {}

// analyzer: allow(alloc) -- the spec parser runs once per config, never per merge
fn parse_params<'a>(
    spec: &str,
    params: &'a str,
    keys: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, PolicyParseError> {
    let mut out = Vec::new();
    for item in params.split(',') {
        let (k, v) = item.split_once('=').ok_or_else(|| {
            PolicyParseError(format!("`{spec}`: expected key=value, got `{item}`"))
        })?;
        let (k, v) = (k.trim(), v.trim());
        if !keys.contains(&k) {
            return Err(PolicyParseError(format!(
                "`{spec}`: unknown parameter `{k}` (expected {})",
                keys.join("/")
            )));
        }
        if out.iter().any(|(seen, _)| *seen == k) {
            return Err(PolicyParseError(format!(
                "`{spec}`: duplicate parameter `{k}`"
            )));
        }
        out.push((k, v));
    }
    Ok(out)
}

fn parse_f64(spec: &str, key: &str, value: &str) -> Result<f64, PolicyParseError> {
    let v: f64 = value.parse().map_err(|_| {
        PolicyParseError(format!("`{spec}`: `{key}` takes a number, got `{value}`"))
    })?;
    if !v.is_finite() {
        return Err(PolicyParseError(format!(
            "`{spec}`: `{key}` must be finite"
        )));
    }
    Ok(v)
}

fn parse_u32(spec: &str, key: &str, value: &str) -> Result<u32, PolicyParseError> {
    value.parse().map_err(|_| {
        PolicyParseError(format!(
            "`{spec}`: `{key}` takes a positive integer, got `{value}`"
        ))
    })
}

impl FromStr for PolicySpec {
    type Err = PolicyParseError;

    fn from_str(s: &str) -> Result<PolicySpec, PolicyParseError> {
        let spec = s.trim();
        let (name, params) = match spec.split_once(':') {
            Some((n, p)) => (n.trim(), Some(p)),
            None => (spec, None),
        };
        let no_params = |variant: PolicySpec| match params {
            None => Ok(variant),
            Some(_) => Err(PolicyParseError(format!(
                "`{spec}`: `{name}` takes no parameters"
            ))),
        };
        match name {
            "passive" => no_params(PolicySpec::Passive),
            "active" => no_params(PolicySpec::Active),
            "active-intra" => no_params(PolicySpec::ActiveIntra),
            "extra-rounds" => no_params(PolicySpec::ExtraRounds),
            "hybrid" => {
                let mut epsilon_ns = DEFAULT_EPSILON_NS;
                let mut max_extra_rounds = DEFAULT_MAX_EXTRA_ROUNDS;
                if let Some(p) = params {
                    for (k, v) in parse_params(spec, p, &["eps", "max"])? {
                        match k {
                            "eps" => epsilon_ns = parse_f64(spec, k, v)?,
                            "max" => max_extra_rounds = parse_u32(spec, k, v)?,
                            _ => unreachable!(),
                        }
                    }
                }
                if epsilon_ns <= 0.0 {
                    return Err(PolicyParseError(format!("`{spec}`: eps must be positive")));
                }
                if max_extra_rounds == 0 {
                    return Err(PolicyParseError(format!("`{spec}`: max must be >= 1")));
                }
                Ok(PolicySpec::Hybrid {
                    epsilon_ns,
                    max_extra_rounds,
                })
            }
            "dynamic-hybrid" => {
                let mut max_epsilon_ns = DEFAULT_EPSILON_NS;
                let mut floor_ns = DEFAULT_DYNAMIC_FLOOR_NS;
                let mut quantile = DEFAULT_DYNAMIC_QUANTILE;
                let mut max_extra_rounds = DEFAULT_MAX_EXTRA_ROUNDS;
                let mut deep_rounds = DEFAULT_DYNAMIC_DEEP_ROUNDS;
                if let Some(p) = params {
                    for (k, v) in parse_params(spec, p, &["eps", "floor", "q", "max", "deep"])? {
                        match k {
                            "eps" => max_epsilon_ns = parse_f64(spec, k, v)?,
                            "floor" => floor_ns = parse_f64(spec, k, v)?,
                            "q" => quantile = parse_f64(spec, k, v)?,
                            "max" => max_extra_rounds = parse_u32(spec, k, v)?,
                            "deep" => deep_rounds = parse_u32(spec, k, v)?,
                            _ => unreachable!(),
                        }
                    }
                }
                if max_epsilon_ns <= 0.0 || floor_ns <= 0.0 {
                    return Err(PolicyParseError(format!(
                        "`{spec}`: eps and floor must be positive"
                    )));
                }
                if floor_ns > max_epsilon_ns {
                    return Err(PolicyParseError(format!(
                        "`{spec}`: floor must not exceed eps"
                    )));
                }
                if !(0.0..=1.0).contains(&quantile) {
                    return Err(PolicyParseError(format!("`{spec}`: q must be in [0, 1]")));
                }
                if max_extra_rounds == 0 {
                    return Err(PolicyParseError(format!("`{spec}`: max must be >= 1")));
                }
                if deep_rounds < max_extra_rounds {
                    return Err(PolicyParseError(format!("`{spec}`: deep must be >= max")));
                }
                Ok(PolicySpec::DynamicHybrid {
                    max_epsilon_ns,
                    floor_ns,
                    quantile,
                    max_extra_rounds,
                    deep_rounds,
                })
            }
            _ => Err(PolicyParseError(format!(
                "unknown policy `{name}` (expected passive, active, active-intra, \
                 extra-rounds, hybrid[:eps=..,max=..], \
                 dynamic-hybrid[:eps=..,floor=..,q=..,max=..,deep=..])"
            ))),
        }
    }
}
// analyzer: end-allow(alloc)

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Passive,
            PolicySpec::Active,
            PolicySpec::ActiveIntra,
            PolicySpec::ExtraRounds,
            PolicySpec::hybrid(400.0),
            PolicySpec::dynamic_hybrid(),
        ]
    }

    #[test]
    fn display_round_trips_for_every_builtin() {
        for spec in all_specs() {
            let text = spec.to_string();
            assert_eq!(text.parse::<PolicySpec>().unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn parse_accepts_defaults_and_param_order() {
        assert_eq!(
            "hybrid".parse::<PolicySpec>().unwrap(),
            PolicySpec::hybrid(400.0)
        );
        assert_eq!(
            "hybrid:max=7,eps=120.5".parse::<PolicySpec>().unwrap(),
            PolicySpec::Hybrid {
                epsilon_ns: 120.5,
                max_extra_rounds: 7
            }
        );
        assert_eq!(
            "dynamic-hybrid".parse::<PolicySpec>().unwrap(),
            PolicySpec::dynamic_hybrid()
        );
        assert_eq!(
            " dynamic-hybrid:q=0.9,eps=300,deep=12 "
                .parse::<PolicySpec>()
                .unwrap(),
            PolicySpec::DynamicHybrid {
                max_epsilon_ns: 300.0,
                floor_ns: 50.0,
                quantile: 0.9,
                max_extra_rounds: 5,
                deep_rounds: 12
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "pasive",
            "passive:eps=1",
            "hybrid:eps=0",
            "hybrid:eps=nope",
            "hybrid:banana=1",
            "hybrid:eps=100,eps=200",
            "hybrid:eps",
            "dynamic-hybrid:q=1.5",
            "dynamic-hybrid:floor=500,eps=400",
            "dynamic-hybrid:max=0",
            "dynamic-hybrid:deep=2,max=5",
            "",
        ] {
            assert!(bad.parse::<PolicySpec>().is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn dynamic_hybrid_tracks_the_window() {
        let strat = PolicySpec::dynamic_hybrid();
        let tolerance = |ctx: &SyncContext| dynamic_tolerance(&ctx.observed, 400.0, 50.0, 0.25);
        let base = SyncContext::new(1000.0, 1000.0, 1325.0, 8).unwrap();
        // Empty window: behaves exactly like the fixed Hybrid at the cap.
        assert_eq!(tolerance(&base), 400.0);
        let fixed = PolicySpec::hybrid(400.0).plan(&base).unwrap();
        let dynamic = strat.plan(&base).unwrap();
        assert_eq!(dynamic.extra_rounds, fixed.extra_rounds);
        assert!((dynamic.total_idle_ns() - fixed.total_idle_ns()).abs() < 1e-9);

        // A window of small slacks tightens the tolerance (clamped to
        // the floor) and the plan's residual obeys the tighter bound.
        let mut w = SlackWindow::new(8);
        for s in [120.0, 140.0, 130.0, 150.0] {
            w.record(s);
        }
        let ctx = base.clone().with_observed(w);
        let eps = tolerance(&ctx);
        assert!((50.0..=400.0).contains(&eps) && eps < 400.0, "eps={eps}");
        let plan = strat.plan(&ctx).unwrap();
        assert!(plan.total_idle_ns() <= fixed.total_idle_ns() + 1e-9);
        assert!(plan.total_idle_ns() < 400.0);
    }

    #[test]
    fn dynamic_hybrid_spends_deep_rounds_when_that_beats_idling() {
        // tau=500, T_P=1000, T_P'=1150: the fixed baseline (eps 400,
        // max 5) settles for z=4 with a 100 ns residual; z=11 removes
        // the slack exactly (11*1000 + 500 = 10*1150). A tight window
        // justifies the deeper search.
        let strat = PolicySpec::DynamicHybrid {
            max_epsilon_ns: 400.0,
            floor_ns: 10.0,
            quantile: 0.0,
            max_extra_rounds: 5,
            deep_rounds: 25,
        };
        let mut w = SlackWindow::new(4);
        w.record(5.0);
        let ctx = SyncContext::new(500.0, 1000.0, 1150.0, 8)
            .unwrap()
            .with_observed(w);
        assert_eq!(dynamic_tolerance(&ctx.observed, 400.0, 10.0, 0.0), 10.0);
        let fixed = PolicySpec::hybrid(400.0)
            .plan(&SyncContext::new(500.0, 1000.0, 1150.0, 8).unwrap())
            .unwrap();
        assert_eq!(fixed.extra_rounds, 4);
        assert!((fixed.total_idle_ns() - 100.0).abs() < 1e-9);
        let plan = strat.plan(&ctx).unwrap();
        assert_eq!(plan.extra_rounds, 11);
        assert!(plan.total_idle_ns() < 1e-9);
        // Equal cycle times stay a hard error (no hybrid exists at all).
        let equal = SyncContext::new(500.0, 1000.0, 1000.0, 8).unwrap();
        assert!(strat.plan(&equal).is_err());
    }

    #[test]
    fn dynamic_hybrid_beats_the_active_fallback_or_declines() {
        // Baseline infeasible within max rounds: a deep candidate is
        // accepted only when its residual undercuts the wrapped slack
        // the Active fallback would idle.
        let strat = PolicySpec::DynamicHybrid {
            max_epsilon_ns: 400.0,
            floor_ns: 50.0,
            quantile: 0.25,
            max_extra_rounds: 1,
            deep_rounds: 25,
        };
        let ctx = SyncContext::new(500.0, 1000.0, 1150.0, 8).unwrap();
        let plan = strat.plan(&ctx).unwrap();
        assert!(plan.extra_rounds > 1, "deep search engaged");
        assert!(
            plan.total_idle_ns() < 500.0,
            "candidate must beat the 500 ns Active fallback"
        );
        // A tiny slack that no round count can undercut degrades to
        // the plain Active spread: never more idle than the slack
        // itself (the fixed Hybrid would idle its z=1 residual of
        // 147 ns here).
        let tiny = SyncContext::new(3.0, 1000.0, 1150.0, 8).unwrap();
        let plan = strat.plan(&tiny).unwrap();
        assert_eq!(plan.extra_rounds, 0);
        assert!((plan.total_idle_ns() - 3.0).abs() < 1e-9);
    }
}
