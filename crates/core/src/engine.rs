//! The synchronization microarchitecture (paper Section 5, Fig. 12).

use crate::clock::{synchronize_patches, LogicalClock};
use crate::context::SlackWindow;
use crate::policy::SyncPlan;
use crate::strategy::PolicySpec;
use crate::SyncError;

/// Identifier of a logical patch in the controller's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatchId(pub u32);

/// Execution state of a patch inside the [`Controller`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchStatus {
    /// Controller tick at which the patch's current cycle completes.
    pub cycle_end_tick: u64,
    /// Rounds completed since registration.
    pub rounds_completed: u64,
    /// Cycle duration in ticks.
    pub cycle_ticks: u32,
}

/// The synchronization engine of Fig. 12 as a discrete-event QEC
/// controller: a patch table (cycle duration and current cycle end per
/// patch, with a valid bit), plus the phase and slack calculators that
/// plan a merge. Patches run syndrome rounds back-to-back, and a
/// synchronization request inserts the planned extra rounds and idle
/// barriers so that all involved patches start their merged round on
/// the same tick.
///
/// The paper assumes a 1 GHz controller clock, so one tick is one
/// nanosecond and the hardware's per-patch cycle counters need 10–12
/// bits for superconducting cycle times of 1000–2000 ns. Unlike that
/// counter table, the controller does not tick every patch: time
/// advance only raises a *settled* horizon, which a patch catches up to
/// in closed form when next read or written. Time advance is O(1) and a
/// merge costs O(patches merged), planned into reused buffers so a
/// warmed-up controller merges without touching the heap.
///
/// # Example
///
/// ```
/// use ftqc_sync::{Controller, PolicySpec};
///
/// let mut ctl = Controller::new();
/// let a = ctl.add_patch(1900, 0);
/// let b = ctl.add_patch(1900, 700); // 700 ticks out of phase
/// let report = ctl.synchronize_report(&[a, b], &PolicySpec::Active, 8).unwrap();
/// let merge_tick = report.merge_tick;
/// assert_eq!(ctl.status(a).unwrap().cycle_end_tick, merge_tick);
/// assert_eq!(ctl.status(b).unwrap().cycle_end_tick, merge_tick);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Controller {
    now: u64,
    /// Every valid patch's current cycle ends at or after this tick once
    /// settled to it (`ControlledPatch::settle`). Never below `now`.
    settled: u64,
    patches: Vec<ControlledPatch>,
    /// Deregistered slots available for reuse, so long-running programs
    /// that merge patches away and re-register them (one event per
    /// Lattice Surgery operation) keep the table bounded by the number
    /// of *live* patches instead of growing per merge.
    free: Vec<u32>,
    /// Slack observed by recent synchronization requests — the window
    /// adaptive policies plan from.
    slack_window: SlackWindow,
    /// Per-request scratch: the listed patches' clocks.
    clocks: Vec<LogicalClock>,
    /// The last request's plans, index-parallel to its ids.
    plans: Vec<SyncPlan>,
}

#[derive(Debug, Clone, Copy)]
struct ControlledPatch {
    cycle_ticks: u32,
    cycle_end_tick: u64,
    rounds_completed: u64,
    valid: bool,
}

impl ControlledPatch {
    /// Completes the rounds run back to back before `horizon`, so the
    /// current cycle ends at or after it. Catch-ups to non-decreasing
    /// horizons compose, so applying only the latest one is exact.
    fn settle(&mut self, horizon: u64) {
        if self.cycle_end_tick < horizon {
            let rounds = (horizon - self.cycle_end_tick - 1) / self.cycle_ticks as u64 + 1;
            self.cycle_end_tick += rounds * self.cycle_ticks as u64;
            self.rounds_completed += rounds;
        }
    }
}

impl Controller {
    /// An empty controller at tick 0.
    pub fn new() -> Controller {
        Controller::default()
    }

    /// Registers a patch whose current cycle started `phase_ticks` ago.
    /// Reuses the slot (and [`PatchId`]) of a previously deregistered
    /// patch when one is available.
    ///
    /// # Panics
    ///
    /// Panics if `cycle_ticks == 0` or `phase_ticks >= cycle_ticks`.
    pub fn add_patch(&mut self, cycle_ticks: u32, phase_ticks: u32) -> PatchId {
        assert!(cycle_ticks > 0, "cycle duration must be positive");
        assert!(phase_ticks < cycle_ticks, "phase must be within the cycle");
        let patch = ControlledPatch {
            cycle_ticks,
            cycle_end_tick: self.now + (cycle_ticks - phase_ticks) as u64,
            rounds_completed: 0,
            valid: true,
        };
        if let Some(slot) = self.free.pop() {
            self.patches[slot as usize] = patch;
            return PatchId(slot);
        }
        self.patches.push(patch);
        PatchId(self.patches.len() as u32 - 1)
    }

    /// Removes a patch from execution (merged or measured away). Its
    /// slot — and id — becomes reusable by the next
    /// [`add_patch`](Controller::add_patch).
    ///
    /// A documented no-op for ids the controller never issued and for
    /// already-deregistered (double-freed) ids — never a panic path,
    /// and a double free can never recycle the same slot twice.
    pub fn deregister(&mut self, id: PatchId) {
        if let Some(p) = self.patches.get_mut(id.0 as usize) {
            if p.valid {
                p.valid = false;
                self.free.push(id.0);
            }
        }
    }

    /// Number of patches currently executing rounds.
    pub fn active_patches(&self) -> usize {
        self.patches.iter().filter(|p| p.valid).count()
    }

    /// Changes a patch's cycle duration from its *next* round on — the
    /// hook for per-round cycle-time jitter and slow calibration drift.
    /// If the current round would now end later than one new cycle from
    /// the present, it is shortened to `now + cycle_ticks` (the round in
    /// flight cannot outlast the re-calibrated duration). Stale ids are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `cycle_ticks == 0`.
    pub fn set_cycle_ticks(&mut self, id: PatchId, cycle_ticks: u32) {
        assert!(cycle_ticks > 0, "cycle duration must be positive");
        let now = self.now;
        if let Some(p) = self.patches.get_mut(id.0 as usize) {
            if p.valid {
                p.settle(self.settled);
                p.cycle_ticks = cycle_ticks;
                p.cycle_end_tick = p.cycle_end_tick.min(now + cycle_ticks as u64);
            }
        }
    }

    /// Current controller tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Status of a patch, or `None` if the id is stale.
    pub fn status(&self, id: PatchId) -> Option<PatchStatus> {
        let mut p = *self.patches.get(id.0 as usize)?;
        p.settle(self.settled);
        p.valid.then_some(PatchStatus {
            cycle_end_tick: p.cycle_end_tick,
            rounds_completed: p.rounds_completed,
            cycle_ticks: p.cycle_ticks,
        })
    }

    /// Advances time to `tick`, every valid patch running syndrome rounds
    /// back-to-back. O(1): patches settle in closed form when next
    /// accessed, so jumping forward by billions of ticks costs the same
    /// as jumping by one cycle.
    pub fn run_until(&mut self, tick: u64) {
        assert!(tick >= self.now, "time cannot run backwards");
        // On the integer tick grid, "ends strictly after `tick`" is
        // "ends at or after `tick + 1`".
        self.settled = tick + 1;
        self.now = tick;
    }

    /// The slack observed by this controller's recent synchronization
    /// requests (most recent [`DEFAULT_SLACK_WINDOW`] merges), which
    /// [`synchronize_report`](Controller::synchronize_report) hands to
    /// adaptive policies through [`SyncContext::observed`].
    ///
    /// [`DEFAULT_SLACK_WINDOW`]: crate::DEFAULT_SLACK_WINDOW
    /// [`SyncContext::observed`]: crate::SyncContext::observed
    pub fn recent_slack(&self) -> &SlackWindow {
        &self.slack_window
    }

    /// The plans the last [`synchronize_report`](Controller::synchronize_report)
    /// applied, index-parallel to its `ids`; empty after a failed
    /// request. A plan whose `policy` differs from the requested one
    /// records a per-pair fallback to Active.
    pub fn last_plans(&self) -> &[SyncPlan] {
        &self.plans
    }

    /// Synchronizes the listed patches under `policy`, applying the
    /// planned extra rounds and idle barriers, and reports the tick at
    /// which every patch is aligned (the merged round can start) with
    /// full accounting: the slack the request had to absorb, the idle
    /// time actually realized on the tick grid and the extra rounds
    /// inserted. The per-patch plans stay readable through
    /// [`last_plans`](Controller::last_plans). This is what a
    /// program-level runtime uses to attribute synchronization
    /// overhead. Only the listed patches settle, in O(`ids.len()`); the
    /// rest catch up lazily.
    ///
    /// Pairwise plans (Section 4.3) can land different leading patches
    /// on different alignment points when extra-round policies are
    /// mixed across heterogeneous cycle times; the controller resolves
    /// this by topping up with idle barriers to the latest alignment
    /// point, which only ever *adds* slack absorbed Active-style.
    ///
    /// # Errors
    ///
    /// Propagates planning errors; invalid ids are rejected, as are
    /// duplicate ids (whose plans would otherwise be applied twice to
    /// the same patch, corrupting its round count and alignment).
    pub fn synchronize_report(
        &mut self,
        ids: &[PatchId],
        policy: &PolicySpec,
        rounds: u32,
    ) -> Result<ControllerSyncReport, SyncError> {
        self.plans.clear();
        self.clocks.clear();
        for (i, id) in ids.iter().enumerate() {
            let p = self
                .patches
                .get_mut(id.0 as usize)
                .filter(|p| p.valid)
                .ok_or(SyncError::InvalidParameter("invalid patch id"))?;
            // A pairwise scan: requests list a handful of patches.
            if ids[..i].contains(id) {
                return Err(SyncError::InvalidParameter("duplicate patch id"));
            }
            p.settle(self.settled);
            let remaining = p.cycle_end_tick - self.now;
            // `remaining == 0` (a cycle boundary exactly at `now`, e.g.
            // two back-to-back synchronizations) means a fresh cycle is
            // just starting: phase 0, not phase == cycle_ticks.
            let phase = (p.cycle_ticks as u64 - remaining) % p.cycle_ticks as u64;
            self.clocks
                .push(LogicalClock::new(p.cycle_ticks as f64, phase as f64));
        }
        let window = &self.slack_window;
        let slowest = synchronize_patches(policy, &self.clocks, rounds, window, &mut self.plans)?;
        // The largest slack any patch absorbs: its gap to the slowest.
        let slow = self.clocks[slowest];
        let slack_ns = (self.clocks.iter())
            .map(|c| c.slack_against_ns(&slow))
            .fold(0.0f64, f64::max);
        self.slack_window.record(slack_ns);
        // Apply each plan: the patch finishes its current cycle, runs
        // its extra rounds, then absorbs its idle budget.
        let finish = |p: &ControlledPatch, plan: &SyncPlan| {
            p.cycle_end_tick
                + plan.extra_rounds as u64 * p.cycle_ticks as u64
                + plan.total_idle_ns().round() as u64
        };
        let merge_tick = ids
            .iter()
            .zip(&self.plans)
            .map(|(id, plan)| finish(&self.patches[id.0 as usize], plan))
            .max()
            .expect("non-empty");
        let mut planned_idle_ticks = 0u64;
        let mut alignment_idle_ticks = 0u64;
        let mut extra_rounds = 0u64;
        for (id, plan) in ids.iter().zip(&self.plans) {
            let p = &mut self.patches[id.0 as usize];
            let t = finish(p, plan);
            // Top up to the common alignment point with additional full
            // rounds where they fit, idling the remainder.
            let top_up = (merge_tick - t) / p.cycle_ticks as u64;
            p.rounds_completed += 1 + plan.extra_rounds as u64 + top_up;
            extra_rounds += plan.extra_rounds as u64;
            planned_idle_ticks += plan.total_idle_ns().round() as u64;
            alignment_idle_ticks += merge_tick - t - top_up * p.cycle_ticks as u64;
            p.cycle_end_tick = merge_tick;
        }
        // Unlisted patches settle to the merge tick when next accessed, so
        // a later `set_cycle_ticks` re-times only rounds not yet run.
        self.now = merge_tick;
        self.settled = merge_tick;
        Ok(ControllerSyncReport {
            merge_tick,
            slack_ns,
            planned_idle_ticks,
            alignment_idle_ticks,
            extra_rounds,
        })
    }
}

/// Full accounting of one [`Controller::synchronize_report`] request;
/// its per-patch plans are [`Controller::last_plans`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerSyncReport {
    /// Tick at which every patch is aligned (the merged round starts).
    pub merge_tick: u64,
    /// The largest slack any patch had to absorb (the gap between the
    /// earliest- and latest-finishing patches when the request arrived).
    pub slack_ns: f64,
    /// Idle time the plans themselves insert (the "Idling period" of
    /// paper Table 2), summed over all listed patches — the quantity
    /// the policies compete on.
    pub planned_idle_ticks: u64,
    /// Sub-round idle added on top of the plans when topping every
    /// patch up to the common alignment point. Zero for pure idling
    /// policies (their plans end exactly on the slowest patch's
    /// boundary); extra-round plans target the paper's Eq. (1)/(2)
    /// phase condition, whose alignment point the pairwise composition
    /// pads to the latest boundary (see
    /// [`synchronize_report`](Controller::synchronize_report)).
    pub alignment_idle_ticks: u64,
    /// Extra syndrome rounds inserted by the plans, summed over patches.
    pub extra_rounds: u64,
}

impl ControllerSyncReport {
    /// Total idle realized by the request: planned plus alignment.
    pub fn total_idle_ticks(&self) -> u64 {
        self.planned_idle_ticks + self.alignment_idle_ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_synchronize_produces_plans() {
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1900, 0);
        let b = ctl.add_patch(1900, 0);
        // Desynchronize: c registers 500 ticks after a and b.
        ctl.run_until(500);
        let c = ctl.add_patch(1900, 0);
        let rep = ctl
            .synchronize_report(&[a, b, c], &PolicySpec::Active, 8)
            .unwrap();
        assert_eq!(ctl.last_plans().len(), 3);
        // c just started its cycle: a and b each idle 500.
        assert_eq!(ctl.last_plans()[2].total_idle_ns(), 0.0);
        assert_eq!(rep.planned_idle_ticks, 1000);
    }

    #[test]
    fn controller_aligns_equal_cycle_patches() {
        for policy in [&PolicySpec::Passive, &PolicySpec::Active] {
            let mut ctl = Controller::new();
            let a = ctl.add_patch(1900, 0);
            let b = ctl.add_patch(1900, 700);
            let tick = ctl
                .synchronize_report(&[a, b], policy, 8)
                .unwrap()
                .merge_tick;
            assert_eq!(ctl.status(a).unwrap().cycle_end_tick, tick);
            assert_eq!(ctl.status(b).unwrap().cycle_end_tick, tick);
        }
    }

    #[test]
    fn controller_hybrid_heterogeneous_alignment() {
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1000, 0);
        let b = ctl.add_patch(1325, 325);
        let tick = ctl
            .synchronize_report(&[a, b], &PolicySpec::hybrid(400.0), 8)
            .unwrap()
            .merge_tick;
        assert_eq!(ctl.status(a).unwrap().cycle_end_tick, tick);
        assert_eq!(ctl.status(b).unwrap().cycle_end_tick, tick);
        assert_eq!(ctl.now(), tick);
    }

    #[test]
    fn controller_runs_rounds_back_to_back() {
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1000, 0);
        ctl.run_until(3500);
        assert_eq!(ctl.status(a).unwrap().rounds_completed, 3);
        assert_eq!(ctl.status(a).unwrap().cycle_end_tick, 4000);
    }

    #[test]
    fn controller_rejects_stale_ids() {
        let mut ctl = Controller::new();
        let _ = ctl.add_patch(1000, 0);
        let bogus = PatchId(42);
        assert!(ctl
            .synchronize_report(&[bogus], &PolicySpec::Active, 8)
            .is_err());
    }

    #[test]
    fn controller_rejects_duplicate_ids_without_side_effects() {
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1000, 0);
        let b = ctl.add_patch(1000, 700);
        let before_a = ctl.status(a).unwrap();
        let before_b = ctl.status(b).unwrap();
        let err = ctl
            .synchronize_report(&[a, b, a], &PolicySpec::Active, 8)
            .unwrap_err();
        assert!(matches!(err, SyncError::InvalidParameter(_)));
        // The request must be rejected before any plan is applied:
        // round counts and alignment points are untouched.
        assert_eq!(ctl.status(a).unwrap(), before_a);
        assert_eq!(ctl.status(b).unwrap(), before_b);
        assert_eq!(ctl.now(), 0);
        // A clean request on the same controller still succeeds.
        let tick = ctl
            .synchronize_report(&[a, b], &PolicySpec::Active, 8)
            .unwrap()
            .merge_tick;
        assert_eq!(ctl.status(a).unwrap().cycle_end_tick, tick);
    }

    #[test]
    fn failed_request_leaves_no_plans() {
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1000, 0);
        let b = ctl.add_patch(1000, 700);
        for (ids, rounds) in [
            (&[a, b, a][..], 8),
            (&[a, PatchId(9)][..], 8),
            (&[a, b][..], 0),
        ] {
            ctl.synchronize_report(&[a, b], &PolicySpec::Active, 8)
                .unwrap();
            assert_eq!(ctl.last_plans().len(), 2);
            ctl.synchronize_report(ids, &PolicySpec::Active, rounds)
                .unwrap_err();
            assert!(ctl.last_plans().is_empty(), "{ids:?} x {rounds}");
        }
    }

    #[test]
    fn run_until_multi_second_jump_is_closed_form() {
        // Regression: `run_until` used to advance one round per loop
        // iteration, making a multi-second jump (billions of ticks at
        // 1 GHz) take billions of iterations. The closed form must
        // complete instantly with the identical round count.
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1900, 0);
        let b = ctl.add_patch(1111, 300);
        let ten_seconds = 10_000_000_000u64; // 10 s at 1 tick = 1 ns
        ctl.run_until(ten_seconds);
        // Patch a: first round ends at 1900, then every 1900 ticks.
        assert_eq!(
            ctl.status(a).unwrap().rounds_completed,
            (ten_seconds - 1900) / 1900 + 1
        );
        assert_eq!(
            ctl.status(b).unwrap().rounds_completed,
            (ten_seconds - 811) / 1111 + 1
        );
        // Cycle ends land strictly after `now`, on the round grid.
        let sa = ctl.status(a).unwrap();
        assert!(sa.cycle_end_tick > ten_seconds);
        assert!(sa.cycle_end_tick - ten_seconds <= 1900);
        assert_eq!(sa.cycle_end_tick % 1900, 0);
    }

    #[test]
    fn run_until_matches_round_by_round_reference() {
        // The closed form must agree with the old per-round loop.
        let mut ctl = Controller::new();
        let ids: Vec<PatchId> = [(1000u32, 0u32), (1325, 325), (1900, 700)]
            .iter()
            .map(|&(c, p)| ctl.add_patch(c, p))
            .collect();
        let mut reference: Vec<(u64, u64)> = [(1000u64, 1000u64), (1325, 1000), (1900, 1200)]
            .iter()
            .map(|&(c, end)| (c, end))
            .collect();
        let mut now = 0u64;
        for step in [1u64, 999, 1, 4321, 100_000, 7] {
            now += step;
            ctl.run_until(now);
            for (i, id) in ids.iter().enumerate() {
                let (cycle, end) = &mut reference[i];
                while *end <= now {
                    *end += *cycle;
                }
                assert_eq!(ctl.status(*id).unwrap().cycle_end_tick, *end, "patch {i}");
            }
        }
    }

    #[test]
    fn deregistered_slot_is_reused() {
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1000, 0);
        let b = ctl.add_patch(1100, 0);
        assert_eq!(ctl.active_patches(), 2);
        ctl.deregister(a);
        assert_eq!(ctl.active_patches(), 1);
        assert_eq!(ctl.status(a), None);
        // Deregistering twice does not double-free the slot.
        ctl.deregister(a);
        let c = ctl.add_patch(1300, 200);
        assert_eq!(c, a, "freed slot is reused");
        let d = ctl.add_patch(1400, 0);
        assert_eq!(d.0, 2, "no free slot left: the table grows");
        assert_eq!(ctl.status(c).unwrap().cycle_ticks, 1300);
        assert_eq!(ctl.status(b).unwrap().cycle_ticks, 1100);
    }

    #[test]
    fn set_cycle_ticks_applies_from_next_round() {
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1000, 0);
        ctl.run_until(500); // mid-round, 500 ticks remaining
        ctl.set_cycle_ticks(a, 2000);
        // The round in flight keeps its end; later rounds use 2000.
        assert_eq!(ctl.status(a).unwrap().cycle_end_tick, 1000);
        ctl.run_until(1000);
        assert_eq!(ctl.status(a).unwrap().cycle_end_tick, 3000);
        // Shrinking below the in-flight remainder clamps the round end.
        ctl.set_cycle_ticks(a, 100);
        assert_eq!(ctl.status(a).unwrap().cycle_end_tick, 1100);
        // Stale ids are ignored.
        ctl.set_cycle_ticks(PatchId(99), 500);
    }

    #[test]
    fn synchronize_report_accounts_idle_and_slack() {
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1900, 0);
        let b = ctl.add_patch(1900, 700); // leads by 700
        let rep = ctl
            .synchronize_report(&[a, b], &PolicySpec::Passive, 8)
            .unwrap();
        assert_eq!(rep.merge_tick, 1900);
        assert!((rep.slack_ns - 700.0).abs() < 1e-9);
        assert_eq!(rep.planned_idle_ticks, 700);
        assert_eq!(rep.alignment_idle_ticks, 0);
        assert_eq!(rep.total_idle_ticks(), 700);
        assert_eq!(rep.extra_rounds, 0);
        assert_eq!(ctl.last_plans().len(), 2);
        assert_eq!(ctl.now(), rep.merge_tick);
    }

    #[test]
    fn synchronize_report_passive_and_active_realize_equal_idle() {
        for tau in [137u32, 500, 1333] {
            let mut passive = Controller::new();
            let mut active = Controller::new();
            let (pa, pb) = (passive.add_patch(1900, 0), passive.add_patch(1900, tau));
            let (aa, ab) = (active.add_patch(1900, 0), active.add_patch(1900, tau));
            let p = passive
                .synchronize_report(&[pa, pb], &PolicySpec::Passive, 8)
                .unwrap();
            let a = active
                .synchronize_report(&[aa, ab], &PolicySpec::Active, 8)
                .unwrap();
            assert_eq!(p.planned_idle_ticks, a.planned_idle_ticks, "tau={tau}");
            assert_eq!(p.alignment_idle_ticks, 0, "tau={tau}");
            assert_eq!(a.alignment_idle_ticks, 0, "tau={tau}");
            assert_eq!(p.merge_tick, a.merge_tick, "tau={tau}");
        }
    }

    #[test]
    fn synchronize_report_records_fallback_policy() {
        // Equal cycle times make ExtraRounds infeasible pairwise; the
        // applied plan must record the Active fallback.
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1900, 0);
        let b = ctl.add_patch(1900, 700);
        ctl.synchronize_report(&[a, b], &PolicySpec::ExtraRounds, 8)
            .unwrap();
        let fallback = ctl
            .last_plans()
            .iter()
            .any(|plan| plan.policy == PolicySpec::Active);
        assert!(fallback, "leading patch fell back to Active");
    }

    #[test]
    fn synchronize_catches_up_patches_left_behind_the_clock() {
        // Regression: synchronizing [a, b] moves `now` without
        // advancing c; a following synchronize that includes c must
        // credit c's overdue rounds instead of underflowing on
        // `cycle_end - now`.
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1900, 0);
        let b = ctl.add_patch(1900, 700);
        let c = ctl.add_patch(1000, 0);
        let first = ctl
            .synchronize_report(&[a, b], &PolicySpec::Passive, 8)
            .unwrap()
            .merge_tick;
        assert!(first > 1000, "c's first cycle end is behind `now`");
        let rep = ctl
            .synchronize_report(&[b, c], &PolicySpec::Active, 8)
            .unwrap();
        assert!(rep.merge_tick >= first);
        // c ran its 1000-tick rounds back-to-back up to `now` before
        // planning: one full round plus the top-up to the merge.
        assert!(ctl.status(c).unwrap().rounds_completed >= 1);
        assert_eq!(ctl.status(c).unwrap().cycle_end_tick, rep.merge_tick);
        assert_eq!(ctl.status(b).unwrap().cycle_end_tick, rep.merge_tick);
    }

    #[test]
    fn synchronize_settles_unlisted_patches_to_the_merge_tick() {
        // Regression: synchronizing [a, b] moved `now` to 1900 but left
        // c's round that ended at 1000 uncredited, so a re-timing at
        // 1900 applied the new duration to nine rounds that never ran.
        let mut ctl = Controller::new();
        let c = ctl.add_patch(1000, 0);
        let a = ctl.add_patch(1900, 0);
        let b = ctl.add_patch(1900, 700);
        let tick = ctl
            .synchronize_report(&[a, b], &PolicySpec::Passive, 8)
            .unwrap()
            .merge_tick;
        assert_eq!(tick, 1900);
        let settled = ctl.status(c).unwrap();
        assert_eq!(settled.cycle_end_tick, 2000);
        assert_eq!(settled.rounds_completed, 1);
        // The round in flight ends at min(2000, 1900 + 100).
        ctl.set_cycle_ticks(c, 100);
        ctl.run_until(1900);
        let after = ctl.status(c).unwrap();
        assert_eq!(after.cycle_end_tick, 2000);
        assert_eq!(after.rounds_completed, 1);
    }

    #[test]
    fn back_to_back_synchronize_is_a_noop() {
        // Immediately re-synchronizing aligned patches must neither
        // panic (phase == cycle) nor insert idle.
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1900, 0);
        let b = ctl.add_patch(1900, 700);
        let first = ctl
            .synchronize_report(&[a, b], &PolicySpec::Active, 8)
            .unwrap()
            .merge_tick;
        let rep = ctl
            .synchronize_report(&[a, b], &PolicySpec::Active, 8)
            .unwrap();
        assert_eq!(rep.merge_tick, first);
        assert_eq!(rep.total_idle_ticks(), 0);
        assert_eq!(rep.slack_ns, 0.0);
    }

    #[test]
    fn deregister_unknown_or_freed_ids_is_a_noop() {
        // Ids never issued, double frees and re-frees of a reused slot
        // must all be safe no-ops.
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1000, 0);
        ctl.deregister(PatchId(999)); // never issued
        assert_eq!(ctl.active_patches(), 1);
        ctl.deregister(a);
        ctl.deregister(a); // double free
        ctl.deregister(a); // triple free, still fine
        assert_eq!(ctl.active_patches(), 0);
        // The slot is handed out exactly once despite the double free.
        let b = ctl.add_patch(1100, 0);
        assert_eq!(b, a, "freed slot reused");
        let c = ctl.add_patch(1200, 0);
        assert_ne!(c, b, "double free must not recycle the slot twice");
        // Re-freeing the reused slot works normally.
        ctl.deregister(b);
        assert_eq!(ctl.status(b), None);
        assert_eq!(ctl.status(c).unwrap().cycle_ticks, 1200);
    }

    #[test]
    fn controller_records_slack_window() {
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1900, 0);
        let b = ctl.add_patch(1900, 700);
        assert!(ctl.recent_slack().is_empty());
        ctl.synchronize_report(&[a, b], &PolicySpec::Active, 8)
            .unwrap();
        assert_eq!(ctl.recent_slack().len(), 1);
        assert!((ctl.recent_slack().max_ns().unwrap() - 700.0).abs() < 1e-9);
        // A back-to-back request observes (and records) zero slack.
        ctl.synchronize_report(&[a, b], &PolicySpec::Active, 8)
            .unwrap();
        assert_eq!(ctl.recent_slack().len(), 2);
    }

    #[test]
    fn dynamic_hybrid_plans_through_the_controller() {
        let spec = PolicySpec::dynamic_hybrid();
        let mut ctl = Controller::new();
        let a = ctl.add_patch(1000, 0);
        let b = ctl.add_patch(1325, 325);
        let rep = ctl.synchronize_report(&[a, b], &spec, 8).unwrap();
        assert_eq!(ctl.status(a).unwrap().cycle_end_tick, rep.merge_tick);
        assert_eq!(ctl.status(b).unwrap().cycle_end_tick, rep.merge_tick);
        // The applied plan is stamped with the dynamic spec.
        assert!(ctl.last_plans().iter().all(|p| p.policy == spec));
    }

    #[test]
    fn many_patch_sync_is_exact_for_active() {
        let mut ctl = Controller::new();
        let ids: Vec<PatchId> = (0..16)
            .map(|i| ctl.add_patch(1900, (i * 113) % 1900))
            .collect();
        let tick = ctl
            .synchronize_report(&ids, &PolicySpec::Active, 8)
            .unwrap()
            .merge_tick;
        for id in ids {
            assert_eq!(ctl.status(id).unwrap().cycle_end_tick, tick);
        }
    }
}
