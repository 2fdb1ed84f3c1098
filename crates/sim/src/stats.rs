//! Logical-error-rate statistics.

use std::fmt;

/// A binomial success-count estimate (e.g. logical errors over shots).
///
/// # Example
///
/// ```
/// use ftqc_sim::BinomialEstimate;
///
/// let e = BinomialEstimate::new(278, 100_000);
/// assert!((e.rate() - 2.78e-3).abs() < 1e-12);
/// let (lo, hi) = e.wilson_interval(1.96);
/// assert!(lo < e.rate() && e.rate() < hi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinomialEstimate {
    successes: u64,
    trials: u64,
}

impl BinomialEstimate {
    /// Creates an estimate from `successes` out of `trials`.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `successes > trials`.
    pub fn new(successes: u64, trials: u64) -> BinomialEstimate {
        assert!(trials > 0, "at least one trial required");
        assert!(successes <= trials, "more successes than trials");
        BinomialEstimate { successes, trials }
    }

    /// Number of observed successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Point estimate of the success probability.
    pub fn rate(&self) -> f64 {
        self.successes as f64 / self.trials as f64
    }

    /// Standard error of the point estimate.
    pub fn std_err(&self) -> f64 {
        let p = self.rate();
        (p * (1.0 - p) / self.trials as f64).sqrt()
    }

    /// Wilson score interval at `z` standard deviations (1.96 for 95%).
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        let n = self.trials as f64;
        let p = self.rate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// Merges two independent estimates over the same process.
    pub fn merged(&self, other: &BinomialEstimate) -> BinomialEstimate {
        BinomialEstimate::new(self.successes + other.successes, self.trials + other.trials)
    }

    /// The ratio `self.rate() / other.rate()` (the paper's "Reduction"
    /// metric when `self` is Passive and `other` is Active). Returns
    /// `f64::NAN` when `other` observed zero successes.
    pub fn ratio(&self, other: &BinomialEstimate) -> f64 {
        if other.successes == 0 {
            return f64::NAN;
        }
        self.rate() / other.rate()
    }
}

/// Incrementally merged logical-error counts over every observable of
/// a circuit — the streaming accumulator behind run-until-confident
/// evaluation.
///
/// Shots arrive in deterministic batches ([`record`]); the running
/// totals can be snapshotted into per-observable [`BinomialEstimate`]s
/// at any point, merged with another accumulator over the same process
/// ([`merge`]), or serialized for checkpoint/resume via
/// [`trials`]/[`failures`] + [`from_parts`].
///
/// [`record`]: RunningEstimate::record
/// [`merge`]: RunningEstimate::merge
/// [`trials`]: RunningEstimate::trials
/// [`failures`]: RunningEstimate::failures
/// [`from_parts`]: RunningEstimate::from_parts
///
/// # Example
///
/// ```
/// use ftqc_sim::{RunningEstimate, StopReason, StopRule};
///
/// let rule = StopRule::max_shots(1_000_000).min_failures(10);
/// let mut state = RunningEstimate::new(1);
/// state.record(5_000, &[12]);
/// assert_eq!(rule.evaluate(&state), Some(StopReason::FailureTarget));
/// assert_eq!(state.estimates()[0].successes(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningEstimate {
    trials: u64,
    failures: Vec<u64>,
}

impl RunningEstimate {
    /// An empty accumulator over `num_observables` observables.
    pub fn new(num_observables: usize) -> RunningEstimate {
        RunningEstimate {
            trials: 0,
            failures: vec![0; num_observables],
        }
    }

    /// Rebuilds an accumulator from checkpointed totals.
    ///
    /// # Panics
    ///
    /// Panics if any failure count exceeds `trials`.
    pub fn from_parts(trials: u64, failures: Vec<u64>) -> RunningEstimate {
        assert!(
            failures.iter().all(|&f| f <= trials),
            "more failures than trials"
        );
        RunningEstimate { trials, failures }
    }

    /// Folds in one batch: `shots` more trials with `failures[o]`
    /// failures on observable `o`.
    ///
    /// # Panics
    ///
    /// Panics if the observable count mismatches or any count exceeds
    /// `shots`.
    pub fn record(&mut self, shots: u64, failures: &[u64]) {
        assert_eq!(
            failures.len(),
            self.failures.len(),
            "observable count mismatch"
        );
        assert!(
            failures.iter().all(|&f| f <= shots),
            "more failures than shots in batch"
        );
        self.trials += shots;
        for (total, f) in self.failures.iter_mut().zip(failures) {
            *total += f;
        }
    }

    /// Merges another accumulator over the same process.
    ///
    /// # Panics
    ///
    /// Panics if the observable counts differ.
    pub fn merge(&mut self, other: &RunningEstimate) {
        self.record(other.trials, &other.failures);
    }

    /// Total trials accumulated so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Per-observable failure totals.
    pub fn failures(&self) -> &[u64] {
        &self.failures
    }

    /// Number of observables tracked.
    pub fn num_observables(&self) -> usize {
        self.failures.len()
    }

    /// Relative standard error of `observable`'s rate estimate
    /// (`std_err / rate`); infinite until that observable has seen at
    /// least one failure.
    pub fn rse(&self, observable: usize) -> f64 {
        if self.trials == 0 || self.failures[observable] == 0 {
            return f64::INFINITY;
        }
        let e = BinomialEstimate::new(self.failures[observable], self.trials);
        if e.rate() >= 1.0 {
            return 0.0;
        }
        e.std_err() / e.rate()
    }

    /// Snapshots the totals into one [`BinomialEstimate`] per
    /// observable.
    ///
    /// # Panics
    ///
    /// Panics if no trials have been recorded yet.
    pub fn estimates(&self) -> Vec<BinomialEstimate> {
        assert!(self.trials > 0, "no shots recorded");
        self.failures
            .iter()
            .map(|&f| BinomialEstimate::new(f, self.trials))
            .collect()
    }
}

/// Why an adaptive evaluation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every observable accumulated the configured failure count.
    FailureTarget,
    /// Every observable reached the configured relative standard error.
    RseTarget,
    /// The hard shot ceiling was reached first.
    ShotCeiling,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopReason::FailureTarget => "failure target reached",
            StopReason::RseTarget => "relative-standard-error target reached",
            StopReason::ShotCeiling => "shot ceiling reached",
        })
    }
}

/// Stopping criteria for run-until-confident evaluation.
///
/// A rule always carries a hard shot ceiling ([`max_shots`]) and may
/// additionally stop early once **every** observable has accumulated
/// [`min_failures`] failures or reached a relative standard error of
/// at most [`max_rse`] — the accumulate-enough-logical-errors loop
/// standard in decoder evaluation. Confidence criteria win over the
/// ceiling when both are met at the same point.
///
/// [`max_shots`]: StopRule::max_shots
/// [`min_failures`]: StopRule::min_failures
/// [`max_rse`]: StopRule::max_rse
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    min_failures: Option<u64>,
    max_rse: Option<f64>,
    max_shots: u64,
}

impl StopRule {
    /// A rule with only a hard shot ceiling (equivalent to a fixed
    /// `ceiling`-shot run).
    ///
    /// # Panics
    ///
    /// Panics if `ceiling` is zero.
    pub fn max_shots(ceiling: u64) -> StopRule {
        assert!(ceiling > 0, "shot ceiling must be positive");
        StopRule {
            min_failures: None,
            max_rse: None,
            max_shots: ceiling,
        }
    }

    /// Also stop once every observable has at least `failures`
    /// failures.
    ///
    /// # Panics
    ///
    /// Panics if `failures` is zero.
    pub fn min_failures(mut self, failures: u64) -> StopRule {
        assert!(failures > 0, "failure target must be positive");
        self.min_failures = Some(failures);
        self
    }

    /// Also stop once every observable's relative standard error is at
    /// most `rse`.
    ///
    /// # Panics
    ///
    /// Panics unless `rse` is finite and positive.
    pub fn max_rse(mut self, rse: f64) -> StopRule {
        assert!(rse.is_finite() && rse > 0.0, "rse target must be positive");
        self.max_rse = Some(rse);
        self
    }

    /// The hard shot ceiling.
    pub fn shot_ceiling(&self) -> u64 {
        self.max_shots
    }

    /// Evaluates the rule against the running totals; `Some` means
    /// stop now.
    pub fn evaluate(&self, state: &RunningEstimate) -> Option<StopReason> {
        if state.trials() > 0 {
            if let Some(target) = self.min_failures {
                if state.failures().iter().all(|&f| f >= target) {
                    return Some(StopReason::FailureTarget);
                }
            }
            if let Some(target) = self.max_rse {
                if (0..state.num_observables()).all(|o| state.rse(o) <= target) {
                    return Some(StopReason::RseTarget);
                }
            }
        }
        if state.trials() >= self.max_shots {
            return Some(StopReason::ShotCeiling);
        }
        None
    }
}

impl fmt::Display for BinomialEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} = {:.3e} ± {:.1e}",
            self.successes,
            self.trials,
            self.rate(),
            self.std_err()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_and_std_err() {
        let e = BinomialEstimate::new(50, 1000);
        assert!((e.rate() - 0.05).abs() < 1e-12);
        assert!((e.std_err() - (0.05f64 * 0.95 / 1000.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn wilson_contains_point_estimate() {
        for &(s, n) in &[(0u64, 100u64), (1, 100), (50, 100), (100, 100)] {
            let e = BinomialEstimate::new(s, n);
            let (lo, hi) = e.wilson_interval(1.96);
            assert!(lo <= e.rate() + 1e-12 && e.rate() <= hi + 1e-12);
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn merge_accumulates() {
        let a = BinomialEstimate::new(3, 100);
        let b = BinomialEstimate::new(7, 300);
        let m = a.merged(&b);
        assert_eq!(m.successes(), 10);
        assert_eq!(m.trials(), 400);
    }

    #[test]
    fn ratio_handles_zero() {
        let a = BinomialEstimate::new(10, 100);
        let b = BinomialEstimate::new(0, 100);
        assert!(a.ratio(&b).is_nan());
        let c = BinomialEstimate::new(5, 100);
        assert!((a.ratio(&c) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        BinomialEstimate::new(0, 0);
    }

    #[test]
    fn running_estimate_accumulates_and_snapshots() {
        let mut state = RunningEstimate::new(2);
        state.record(1_000, &[3, 10]);
        state.record(500, &[2, 0]);
        assert_eq!(state.trials(), 1_500);
        assert_eq!(state.failures(), &[5, 10]);
        let est = state.estimates();
        assert_eq!(est[0], BinomialEstimate::new(5, 1_500));
        assert_eq!(est[1], BinomialEstimate::new(10, 1_500));
        let mut other = RunningEstimate::new(2);
        other.record(500, &[1, 1]);
        state.merge(&other);
        assert_eq!(state.trials(), 2_000);
        assert_eq!(state.failures(), &[6, 11]);
    }

    #[test]
    fn running_estimate_roundtrips_through_parts() {
        let mut state = RunningEstimate::new(3);
        state.record(4_096, &[7, 0, 19]);
        let rebuilt = RunningEstimate::from_parts(state.trials(), state.failures().to_vec());
        assert_eq!(rebuilt, state);
    }

    #[test]
    #[should_panic(expected = "observable count mismatch")]
    fn record_checks_observable_count() {
        RunningEstimate::new(2).record(10, &[1]);
    }

    #[test]
    fn rse_tracks_failure_count() {
        let mut state = RunningEstimate::new(2);
        state.record(10_000, &[0, 100]);
        assert!(state.rse(0).is_infinite());
        // rse ~ 1/sqrt(failures) for rare events.
        assert!((state.rse(1) - 0.0995).abs() < 1e-3);
    }

    #[test]
    fn stop_rule_confidence_beats_ceiling() {
        let rule = StopRule::max_shots(1_000).min_failures(5).max_rse(0.5);
        let mut state = RunningEstimate::new(2);
        assert_eq!(rule.evaluate(&state), None); // nothing sampled yet
        state.record(100, &[5, 4]);
        // Observable 1 is short of the failure target but both meet rse.
        assert_eq!(rule.evaluate(&state), Some(StopReason::RseTarget));
        state.record(100, &[3, 1]);
        assert_eq!(rule.evaluate(&state), Some(StopReason::FailureTarget));
    }

    #[test]
    fn stop_rule_ceiling_is_a_backstop() {
        let rule = StopRule::max_shots(200).min_failures(1_000);
        let mut state = RunningEstimate::new(1);
        state.record(100, &[0]);
        assert_eq!(rule.evaluate(&state), None);
        state.record(100, &[0]);
        assert_eq!(rule.evaluate(&state), Some(StopReason::ShotCeiling));
    }
}
