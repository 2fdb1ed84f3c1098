//! Planning inputs: the [`SyncContext`] handed to
//! [`PolicySpec::plan`](crate::PolicySpec::plan) and the observed-timing
//! [`SlackWindow`] the controller feeds it from.

use crate::SyncError;
use std::collections::VecDeque;

/// Default number of recent merges a [`SlackWindow`] remembers.
pub const DEFAULT_SLACK_WINDOW: usize = 64;

/// A bounded window of recently observed per-merge slacks (ns), kept by
/// the [`Controller`](crate::Controller) and exposed to policies via
/// [`SyncContext::observed`] — the "recent slack histogram" that
/// drift-adaptive policies such as
/// [`PolicySpec::DynamicHybrid`](crate::PolicySpec::DynamicHybrid) pick
/// their per-merge tolerance from.
///
/// # Example
///
/// ```
/// use ftqc_sync::SlackWindow;
///
/// let mut w = SlackWindow::new(4);
/// for s in [100.0, 300.0, 200.0, 400.0, 500.0] {
///     w.record(s);
/// }
/// assert_eq!(w.len(), 4); // the oldest sample (100) was evicted
/// assert_eq!(w.quantile_ns(0.0), Some(200.0));
/// assert_eq!(w.quantile_ns(1.0), Some(500.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlackWindow {
    /// Held samples, oldest first.
    samples: VecDeque<f64>,
    /// The held samples ascending, equal values oldest first.
    sorted: Vec<f64>,
    capacity: usize,
}

impl Default for SlackWindow {
    /// An empty window remembering [`DEFAULT_SLACK_WINDOW`] merges.
    fn default() -> SlackWindow {
        SlackWindow::new(DEFAULT_SLACK_WINDOW)
    }
}

impl SlackWindow {
    /// An empty window remembering the last `capacity` samples. It
    /// allocates nothing until the first sample arrives.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> SlackWindow {
        assert!(capacity > 0, "slack window needs capacity");
        SlackWindow {
            samples: VecDeque::new(),
            sorted: Vec::new(),
            capacity,
        }
    }

    /// Records one merge's observed slack, evicting the oldest sample
    /// once the window is full. Non-finite and negative values are
    /// ignored (a window never poisons quantile queries).
    pub fn record(&mut self, slack_ns: f64) {
        if !slack_ns.is_finite() || slack_ns < 0.0 {
            return;
        }
        if self.samples.len() == self.capacity {
            let oldest = self.samples.pop_front().expect("full window");
            let at = self.sorted.partition_point(|s| *s < oldest);
            self.sorted.remove(at);
        }
        self.samples.push_back(slack_ns);
        let at = self.sorted.partition_point(|s| *s <= slack_ns);
        self.sorted.insert(at, slack_ns);
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no slack has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the held samples, or `None` when empty.
    pub fn mean_ns(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.samples.iter().sum::<f64>() / self.len() as f64)
    }

    /// Largest held sample, or `None` when empty.
    pub fn max_ns(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Nearest-rank quantile of the held samples (`q` clamped to
    /// `[0, 1]`), or `None` when empty. An index lookup: the window is
    /// kept sorted as samples arrive.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        Some(self.sorted[idx])
    }
}

/// Everything [`PolicySpec::plan`](crate::PolicySpec::plan) needs to plan
/// one pairwise synchronization: the slack, both cycle times, the pre-merge
/// round budget, and the controller's observed timing statistics.
///
/// Construct via [`SyncContext::new`], which validates the parameters
/// once so every policy can assume positive finite cycle times, a
/// finite non-negative slack and a positive round budget.
///
/// # Example
///
/// ```
/// use ftqc_sync::{PolicySpec, SyncContext};
///
/// let ctx = SyncContext::new(1000.0, 1000.0, 1325.0, 8).unwrap();
/// let plan = PolicySpec::hybrid(400.0).plan(&ctx).unwrap();
/// assert_eq!(plan.extra_rounds, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyncContext {
    /// Slack of the leading patch against the lagging one, ns.
    pub tau_ns: f64,
    /// Cycle time of the leading patch (`T_P`), ns.
    pub t_p_ns: f64,
    /// Cycle time of the lagging patch (`T_P'`), ns.
    pub t_p_prime_ns: f64,
    /// Pre-merge syndrome rounds available to the plan (normally
    /// `d + 1`).
    pub rounds: u32,
    /// Recently observed per-merge slacks, as maintained by the
    /// controller. Empty when planning outside a controller (e.g. the
    /// abstract solver studies), in which case adaptive policies fall
    /// back to their static parameters.
    pub observed: SlackWindow,
}

impl SyncContext {
    /// A validated context with an empty observation window.
    ///
    /// # Errors
    ///
    /// [`SyncError::InvalidParameter`] when `rounds == 0`, the slack is
    /// negative or non-finite, or a cycle time is non-positive or
    /// non-finite.
    pub fn new(
        tau_ns: f64,
        t_p_ns: f64,
        t_p_prime_ns: f64,
        rounds: u32,
    ) -> Result<SyncContext, SyncError> {
        if rounds == 0 {
            return Err(SyncError::InvalidParameter("rounds must be positive"));
        }
        if !tau_ns.is_finite() || tau_ns < 0.0 {
            return Err(SyncError::InvalidParameter(
                "slack must be finite and non-negative",
            ));
        }
        if !(t_p_ns.is_finite() && t_p_ns > 0.0 && t_p_prime_ns.is_finite() && t_p_prime_ns > 0.0) {
            return Err(SyncError::InvalidParameter("cycle times must be positive"));
        }
        Ok(SyncContext {
            tau_ns,
            t_p_ns,
            t_p_prime_ns,
            rounds,
            observed: SlackWindow::default(),
        })
    }

    /// Attaches the controller's observed slack window.
    pub fn with_observed(mut self, observed: SlackWindow) -> SyncContext {
        self.observed = observed;
        self
    }

    /// The slack reduced to a phase difference: `tau mod T_P'` (paper
    /// Section 4.1) — what every policy actually removes.
    pub fn wrapped_tau_ns(&self) -> f64 {
        self.tau_ns % self.t_p_prime_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_evicts_oldest_and_orders_quantiles() {
        let mut w = SlackWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.quantile_ns(0.5), None);
        for s in [10.0, 20.0, 30.0, 40.0] {
            w.record(s);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.quantile_ns(0.0), Some(20.0));
        assert_eq!(w.quantile_ns(0.5), Some(30.0));
        assert_eq!(w.quantile_ns(1.0), Some(40.0));
        assert_eq!(w.mean_ns(), Some(30.0));
        assert_eq!(w.max_ns(), Some(40.0));
    }

    #[test]
    fn window_ignores_invalid_samples() {
        let mut w = SlackWindow::new(4);
        w.record(f64::NAN);
        w.record(-1.0);
        w.record(f64::INFINITY);
        assert!(w.is_empty());
        w.record(0.0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let mut w = SlackWindow::new(4);
        w.record(1.0);
        w.record(2.0);
        assert_eq!(w.quantile_ns(-3.0), Some(1.0));
        assert_eq!(w.quantile_ns(7.0), Some(2.0));
        assert_eq!(w.quantile_ns(f64::NAN), Some(1.0));
    }

    #[test]
    fn context_validates_once() {
        assert!(SyncContext::new(100.0, 1900.0, 1900.0, 0).is_err());
        assert!(SyncContext::new(-1.0, 1900.0, 1900.0, 8).is_err());
        assert!(SyncContext::new(100.0, 0.0, 1900.0, 8).is_err());
        assert!(SyncContext::new(100.0, 1900.0, f64::NAN, 8).is_err());
        assert!(SyncContext::new(f64::INFINITY, 1000.0, 1325.0, 8).is_err());
        assert!(SyncContext::new(f64::NAN, 1000.0, 1325.0, 8).is_err());
        let ctx = SyncContext::new(2100.0, 1900.0, 1900.0, 8).unwrap();
        assert!((ctx.wrapped_tau_ns() - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_window_rejected() {
        SlackWindow::new(0);
    }
}
