//! Property-based tests over the core invariants.

use ftqc::pauli::{Pauli, PauliString};
use ftqc::sync::{
    solve_extra_rounds, solve_hybrid, synchronize_patches, Controller, ControllerSyncReport,
    LogicalClock, PatchId, PatchStatus, PolicySpec, SlackWindow, SyncContext, SyncError, SyncPlan,
};
use proptest::prelude::*;
use std::collections::VecDeque;

fn arb_pauli() -> impl Strategy<Value = Pauli> {
    prop_oneof![
        Just(Pauli::I),
        Just(Pauli::X),
        Just(Pauli::Y),
        Just(Pauli::Z)
    ]
}

/// Every built-in policy spec, parameterized from the generated values.
fn builtin_specs(eps: f64, floor_frac: f64, q: f64, max: u32) -> Vec<PolicySpec> {
    vec![
        PolicySpec::Passive,
        PolicySpec::Active,
        PolicySpec::ActiveIntra,
        PolicySpec::ExtraRounds,
        PolicySpec::Hybrid {
            epsilon_ns: eps,
            max_extra_rounds: max,
        },
        PolicySpec::DynamicHybrid {
            max_epsilon_ns: eps,
            floor_ns: eps * floor_frac,
            quantile: q,
            max_extra_rounds: max,
            deep_rounds: max + 20,
        },
    ]
}

proptest! {
    #[test]
    fn pauli_product_is_associative(a in arb_pauli(), b in arb_pauli(), c in arb_pauli()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn pauli_self_inverse(a in arb_pauli()) {
        prop_assert_eq!(a * a, Pauli::I);
    }

    #[test]
    fn string_commutation_is_symmetric(
        pairs_a in proptest::collection::vec((0u32..16, arb_pauli()), 0..8),
        pairs_b in proptest::collection::vec((0u32..16, arb_pauli()), 0..8),
    ) {
        let a = PauliString::from_pairs(16, pairs_a.iter().map(|&(q, p)| (q as usize, p)));
        let b = PauliString::from_pairs(16, pairs_b.iter().map(|&(q, p)| (q as usize, p)));
        prop_assert_eq!(a.commutes(&b), b.commutes(&a));
    }

    #[test]
    fn string_product_weight_bounded(
        pairs_a in proptest::collection::vec((0u32..16, arb_pauli()), 0..8),
        pairs_b in proptest::collection::vec((0u32..16, arb_pauli()), 0..8),
    ) {
        let a = PauliString::from_pairs(16, pairs_a.iter().map(|&(q, p)| (q as usize, p)));
        let b = PauliString::from_pairs(16, pairs_b.iter().map(|&(q, p)| (q as usize, p)));
        let prod = a.product(&b);
        prop_assert!(prod.weight() <= a.weight() + b.weight());
        // Multiplying back recovers a.
        prop_assert_eq!(prod.product(&b), a);
    }

    #[test]
    fn extra_rounds_solution_satisfies_eq1(
        tp in 500.0f64..2000.0,
        dt in 25.0f64..800.0,
        tau in 0.0f64..2000.0,
    ) {
        let tpp = tp + dt;
        if let Ok(m) = solve_extra_rounds(tp, tpp, tau, 200) {
            let elapsed = m as f64 * tp + tau;
            let ratio = elapsed / tpp;
            prop_assert!((ratio - ratio.round()).abs() * tpp < 1e-5,
                "m={m} does not satisfy Eq. (1)");
        }
    }

    #[test]
    fn hybrid_residual_always_below_tolerance(
        tp in 500.0f64..2000.0,
        dt in 25.0f64..800.0,
        tau in 0.0f64..2000.0,
        eps in 50.0f64..500.0,
    ) {
        let tpp = tp + dt;
        if let Ok(sol) = solve_hybrid(tp, tpp, tau, eps, 12) {
            prop_assert!(sol.residual_ns < eps);
            prop_assert!(sol.residual_ns >= 0.0);
            prop_assert!(sol.extra_rounds >= 1);
            // The residual is exactly the misalignment after z rounds.
            let elapsed = sol.extra_rounds as f64 * tp + tau;
            let expect = (elapsed / tpp).ceil() * tpp - elapsed;
            prop_assert!((sol.residual_ns - expect).abs() < 1e-6);
        }
    }

    /// `PolicySpec` strings are a faithful wire format: Display then
    /// FromStr recovers every built-in spec exactly, whatever its
    /// parameters.
    #[test]
    fn policy_specs_round_trip_through_strings(
        eps in 1.0f64..2000.0,
        floor_frac in 0.01f64..1.0,
        q in 0.0f64..1.0,
        max in 1u32..30,
    ) {
        for spec in builtin_specs(eps, floor_frac, q, max) {
            let text = spec.to_string();
            let parsed: PolicySpec = text.parse().unwrap_or_else(|e| {
                panic!("`{text}` failed to parse back: {e}")
            });
            prop_assert_eq!(&parsed, &spec);
            // A second round trip is the identity on the string, too.
            prop_assert_eq!(parsed.to_string(), text);
        }
    }

    /// Every built-in policy conserves slack: inserted idle plus the
    /// slack eliminated through extra rounds accounts for the full
    /// wrapped slack. For extra-round plans the eliminated share is
    /// pinned down by the alignment condition of Eq. (1)/(2):
    /// `m*T_P + tau_w + idle` lands on a lagging-cycle boundary.
    #[test]
    fn every_builtin_strategy_conserves_slack(
        tau in 0.0f64..2500.0,
        tp in 500.0f64..2000.0,
        dt in 25.0f64..800.0,
        rounds in 1u32..20,
        window in proptest::collection::vec(0.0f64..2000.0, 0..12),
        eps in 50.0f64..500.0,
        floor_frac in 0.01f64..1.0,
        q in 0.0f64..1.0,
    ) {
        let tpp = tp + dt;
        let mut observed = SlackWindow::default();
        for s in &window {
            observed.record(*s);
        }
        let ctx = SyncContext::new(tau, tp, tpp, rounds)
            .unwrap()
            .with_observed(observed);
        let tau_w = ctx.wrapped_tau_ns();
        for spec in builtin_specs(eps, floor_frac, q, 12) {
            let Ok(plan) = spec.plan(&ctx) else {
                continue; // infeasible pair for this policy
            };
            prop_assert!(plan.policy == spec, "{spec}: stamped {}", plan.policy);
            // The circuit generator idles before every pre-merge round,
            // extras included.
            prop_assert!(
                plan.rounds == rounds,
                "{spec}: planned for {} rounds, asked for {rounds}",
                plan.rounds
            );
            let entries = [plan.idle_per_round_ns, plan.intra_round_idle_ns, plan.final_idle_ns];
            for x in entries {
                prop_assert!(x.is_finite() && x >= 0.0, "{spec}: idle entry {x}");
            }
            let idle = plan.total_idle_ns();
            prop_assert!(idle >= -1e-9, "{spec}: negative idle {idle}");
            let round_compensation_ns = if plan.extra_rounds > 0 {
                // The plan may only claim slack was eliminated by
                // rounds if the Eq. (1)/(2) alignment actually holds.
                let elapsed = plan.extra_rounds as f64 * tp + tau_w + idle;
                let rem = elapsed % tpp;
                prop_assert!(
                    rem.min(tpp - rem) < 5e-6,
                    "{spec}: m={} does not align (remainder {rem})",
                    plan.extra_rounds
                );
                tau_w - idle
            } else {
                0.0
            };
            prop_assert!(
                (idle + round_compensation_ns - tau_w).abs() < 1e-6,
                "{spec}: idle {idle} + rounds {round_compensation_ns} != tau {tau_w}"
            );
        }
    }

    #[test]
    fn plans_conserve_the_slack(
        tau in 0.0f64..1800.0,
        rounds in 1u32..20,
    ) {
        let t = 1900.0;
        let ctx = SyncContext::new(tau, t, t, rounds).unwrap();
        for policy in [PolicySpec::Passive, PolicySpec::Active, PolicySpec::ActiveIntra] {
            let plan = policy.plan(&ctx).unwrap();
            // Equal cycle times: every idle-based policy inserts exactly
            // tau (mod wrap) of idle in total.
            let expect = tau % t;
            prop_assert!((plan.total_idle_ns() - expect).abs() < 1e-6,
                "{policy}: {} vs {expect}", plan.total_idle_ns());
            prop_assert_eq!(plan.extra_rounds, 0);
        }
    }

    #[test]
    fn hybrid_plan_idle_bounded_by_epsilon(
        tau in 0.0f64..1300.0,
        eps in 100.0f64..500.0,
    ) {
        let ctx = SyncContext::new(tau, 1000.0, 1325.0, 8).unwrap();
        let spec = PolicySpec::Hybrid { epsilon_ns: eps, max_extra_rounds: 12 };
        if let Ok(plan) = spec.plan(&ctx) {
            prop_assert!(plan.total_idle_ns() < eps);
        }
    }

    #[test]
    fn no_policy_idles_more_than_passive(
        tau in 0.0f64..2500.0,
        tp in 500.0f64..2000.0,
        dt in 25.0f64..800.0,
        rounds in 1u32..20,
    ) {
        let tpp = tp + dt;
        let ctx = SyncContext::new(tau, tp, tpp, rounds).unwrap();
        let passive = PolicySpec::Passive.plan(&ctx).unwrap();
        let policies = [
            PolicySpec::Active,
            PolicySpec::ActiveIntra,
            PolicySpec::ExtraRounds,
            PolicySpec::Hybrid { epsilon_ns: 400.0, max_extra_rounds: 12 },
            PolicySpec::dynamic_hybrid(),
        ];
        for policy in policies {
            let Ok(plan) = policy.plan(&ctx) else {
                continue; // infeasible pair for this policy
            };
            // Dead time right before the merge is monotonically no
            // worse than Passive's for every policy...
            prop_assert!(
                plan.final_idle_ns <= passive.final_idle_ns + 1e-9,
                "{policy}: final idle {} > Passive {}",
                plan.final_idle_ns,
                passive.final_idle_ns
            );
            // ...and so is the total inserted idle, except that a
            // Hybrid plan trades against its epsilon bound instead
            // (its residual can exceed a *small* tau but never eps).
            let bound = match &plan.policy {
                PolicySpec::Hybrid { epsilon_ns, .. } => {
                    passive.total_idle_ns().max(*epsilon_ns)
                }
                PolicySpec::DynamicHybrid { max_epsilon_ns, .. } => {
                    passive.total_idle_ns().max(*max_epsilon_ns)
                }
                _ => passive.total_idle_ns(),
            };
            prop_assert!(
                plan.total_idle_ns() <= bound + 1e-9,
                "{policy}: total idle {} > bound {bound}",
                plan.total_idle_ns()
            );
        }
    }

    #[test]
    fn extra_rounds_plan_is_idle_free_and_aligns(
        tau in 0.0f64..2000.0,
        tp in 500.0f64..2000.0,
        dt in 25.0f64..800.0,
        rounds in 1u32..20,
    ) {
        let tpp = tp + dt;
        let ctx = SyncContext::new(tau, tp, tpp, rounds).unwrap();
        if let Ok(plan) = PolicySpec::ExtraRounds.plan(&ctx) {
            prop_assert!(plan.policy == PolicySpec::ExtraRounds);
            prop_assert_eq!(plan.total_idle_ns(), 0.0);
            prop_assert_eq!(plan.rounds, rounds);
            // The chosen round count satisfies Eq. (1) for the wrapped
            // slack (the context reduces tau modulo the lagging cycle).
            let elapsed = plan.extra_rounds as f64 * tp + tau % tpp;
            let ratio = elapsed / tpp;
            prop_assert!((ratio - ratio.round()).abs() * tpp < 1e-5);
        }
    }
}

/// Reference model of [`Controller`]: every operation walks the whole
/// patch table eagerly, as the Fig. 12 counter table does in hardware.
/// A synchronization also credits the rounds unlisted patches finished
/// before the merge tick, so no patch is ever left behind the clock.
#[derive(Default)]
struct EagerController {
    now: u64,
    patches: Vec<EagerPatch>,
    free: Vec<u32>,
    window: SlackWindow,
    /// The last request's plans; empty after a failed request.
    plans: Vec<SyncPlan>,
}

#[derive(Clone, Copy)]
struct EagerPatch {
    cycle_ticks: u32,
    cycle_end_tick: u64,
    rounds_completed: u64,
    valid: bool,
}

impl EagerController {
    fn add_patch(&mut self, cycle_ticks: u32, phase_ticks: u32) -> PatchId {
        let patch = EagerPatch {
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

    fn deregister(&mut self, id: PatchId) {
        if let Some(p) = self.patches.get_mut(id.0 as usize) {
            if p.valid {
                p.valid = false;
                self.free.push(id.0);
            }
        }
    }

    fn set_cycle_ticks(&mut self, id: PatchId, cycle_ticks: u32) {
        let now = self.now;
        if let Some(p) = self.patches.get_mut(id.0 as usize).filter(|p| p.valid) {
            p.cycle_ticks = cycle_ticks;
            p.cycle_end_tick = p.cycle_end_tick.min(now + cycle_ticks as u64);
        }
    }

    fn status(&self, id: PatchId) -> Option<PatchStatus> {
        let p = self.patches.get(id.0 as usize)?;
        p.valid.then_some(PatchStatus {
            cycle_end_tick: p.cycle_end_tick,
            rounds_completed: p.rounds_completed,
            cycle_ticks: p.cycle_ticks,
        })
    }

    fn run_until(&mut self, tick: u64) {
        for p in self.patches.iter_mut().filter(|p| p.valid) {
            while p.cycle_end_tick <= tick {
                p.cycle_end_tick += p.cycle_ticks as u64;
                p.rounds_completed += 1;
            }
        }
        self.now = tick;
    }

    /// Runs every patch whose cycle ended before `now` up to it.
    fn catch_up(&mut self) {
        let now = self.now;
        for p in self.patches.iter_mut().filter(|p| p.valid) {
            while p.cycle_end_tick < now {
                p.cycle_end_tick += p.cycle_ticks as u64;
                p.rounds_completed += 1;
            }
        }
    }

    fn synchronize_report(
        &mut self,
        ids: &[PatchId],
        policy: &PolicySpec,
        rounds: u32,
    ) -> Result<ControllerSyncReport, SyncError> {
        self.plans.clear();
        self.catch_up();
        let mut requested = vec![false; self.patches.len()];
        let mut clocks = Vec::new();
        for id in ids {
            let p = self
                .patches
                .get(id.0 as usize)
                .filter(|p| p.valid)
                .ok_or(SyncError::InvalidParameter("invalid patch id"))?;
            if std::mem::replace(&mut requested[id.0 as usize], true) {
                return Err(SyncError::InvalidParameter("duplicate patch id"));
            }
            let remaining = p.cycle_end_tick - self.now;
            let phase = (p.cycle_ticks as u64 - remaining) % p.cycle_ticks as u64;
            clocks.push(LogicalClock::new(p.cycle_ticks as f64, phase as f64));
        }
        let worst = clocks
            .iter()
            .map(LogicalClock::time_to_cycle_end_ns)
            .fold(0.0f64, f64::max);
        let slack_ns = clocks
            .iter()
            .map(|c| worst - c.time_to_cycle_end_ns())
            .fold(0.0f64, f64::max);
        let mut plans = Vec::new();
        synchronize_patches(policy, &clocks, rounds, &self.window, &mut plans)?;
        self.window.record(slack_ns);
        let finish: Vec<u64> = ids
            .iter()
            .zip(&plans)
            .map(|(id, plan)| {
                let p = &self.patches[id.0 as usize];
                p.cycle_end_tick
                    + plan.extra_rounds as u64 * p.cycle_ticks as u64
                    + plan.total_idle_ns().round() as u64
            })
            .collect();
        let merge_tick = *finish.iter().max().expect("non-empty");
        let (mut planned_idle_ticks, mut alignment_idle_ticks, mut extra_rounds) = (0, 0, 0);
        for ((id, plan), t) in ids.iter().zip(&plans).zip(&finish) {
            let p = &mut self.patches[id.0 as usize];
            p.rounds_completed += 1 + plan.extra_rounds as u64;
            extra_rounds += plan.extra_rounds as u64;
            planned_idle_ticks += plan.total_idle_ns().round() as u64;
            let mut at = *t;
            while at + p.cycle_ticks as u64 <= merge_tick {
                at += p.cycle_ticks as u64;
                p.rounds_completed += 1;
            }
            alignment_idle_ticks += merge_tick - at;
            p.cycle_end_tick = merge_tick;
        }
        self.now = merge_tick;
        self.catch_up();
        self.plans = plans;
        Ok(ControllerSyncReport {
            merge_tick,
            slack_ns,
            planned_idle_ticks,
            alignment_idle_ticks,
            extra_rounds,
        })
    }
}

/// The nearest-rank quantile as a copy-and-sort over the held samples.
fn sorted_quantile(samples: &VecDeque<f64>, q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.iter().copied().collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    Some(sorted[((sorted.len() - 1) as f64 * q).round() as usize])
}

proptest! {
    /// The lazily settled [`Controller`] is observably identical to the
    /// eager model after every step of a random operation sequence,
    /// stale, never-issued and duplicated ids included.
    #[test]
    fn lazy_controller_matches_eager_model(
        initial in proptest::collection::vec((1u32..2500, 0u32..4096), 1..4),
        ops in proptest::collection::vec((0u32..10, 0u32..4096, 0u32..4096, 0u64..1 << 40), 1..64),
    ) {
        let mut lazy = Controller::new();
        let mut eager = EagerController::default();
        for &(cycle_ticks, phase) in &initial {
            lazy.add_patch(cycle_ticks, phase % cycle_ticks);
            eager.add_patch(cycle_ticks, phase % cycle_ticks);
        }
        for (step, &(kind, a, b, c)) in ops.iter().enumerate() {
            // Mostly a live id; one pick in eight ranges over everything
            // issued plus two ids never issued.
            let live: Vec<u32> = (0..eager.patches.len() as u32)
                .filter(|&i| eager.patches[i as usize].valid)
                .collect();
            let pick = |x: u64, k: u64| match (x >> (9 * k)) % 8 {
                0 => PatchId(((x >> (9 * k)) / 8 % (eager.patches.len() as u64 + 2)) as u32),
                _ if live.is_empty() => PatchId(0),
                _ => PatchId(live[((x + k) % live.len() as u64) as usize]),
            };
            let cycle = |x: u32| 1 + x % 2500;
            match kind {
                0 | 1 => {
                    let cycle_ticks = cycle(a);
                    let phase = b % cycle_ticks;
                    prop_assert_eq!(lazy.add_patch(cycle_ticks, phase), eager.add_patch(cycle_ticks, phase));
                }
                2 => {
                    lazy.deregister(pick(c, 0));
                    eager.deregister(pick(c, 0));
                }
                3 | 4 => {
                    // Zero, sub-cycle and multi-cycle advances.
                    let tick = eager.now + [0, c % 64, c % 5000, c % 200_000][(a % 4) as usize];
                    lazy.run_until(tick);
                    eager.run_until(tick);
                }
                5 => {
                    lazy.set_cycle_ticks(pick(c, 0), cycle(a));
                    eager.set_cycle_ticks(pick(c, 0), cycle(a));
                }
                _ => {
                    // Occasionally more ids than live patches, forcing a duplicate.
                    let n = if b % 8 == 0 { 4 } else { (1 + b as usize % 4).min(live.len().max(1)) };
                    let ids: Vec<PatchId> = (0..n as u64).map(|k| pick(c, k)).collect();
                    let eps = 50.0 + (a / 6 % 600) as f64;
                    let specs = builtin_specs(eps, 0.25, (a % 11) as f64 / 10.0, 1 + a % 7);
                    let policy = &specs[(a % 6) as usize];
                    let rounds = b / 4 % 16; // 0 is rejected by the planner
                    let (got, want) = (
                        lazy.synchronize_report(&ids, policy, rounds),
                        eager.synchronize_report(&ids, policy, rounds),
                    );
                    prop_assert!(got == want, "step {step}: {policy} over {ids:?}: {got:?} vs {want:?}");
                    let (got, want) = (lazy.last_plans(), eager.plans.as_slice());
                    prop_assert!(got == want, "step {step}: plans {got:?} vs {want:?}");
                }
            }
            prop_assert!(lazy.now() == eager.now, "step {step}: now {} vs {}", lazy.now(), eager.now);
            prop_assert!(lazy.recent_slack() == &eager.window, "step {step}: slack windows differ");
            for id in (0..eager.patches.len() as u32 + 2).map(PatchId) {
                let (got, want) = (lazy.status(id), eager.status(id));
                prop_assert!(got == want, "step {step} {id:?}: {got:?} vs {want:?}");
            }
        }
    }

    /// The incrementally sorted window answers every quantile bit for
    /// bit like a copy-and-sort of its samples: duplicates, signed
    /// zeros, rejected samples, evictions and out-of-range `q` included.
    #[test]
    fn slack_window_quantile_matches_copy_and_sort(
        capacity in 1usize..10,
        draws in proptest::collection::vec((0u32..8, 0.0f64..2000.0), 0..40),
        qs in proptest::collection::vec(-0.5f64..1.5, 1..6),
    ) {
        let mut window = SlackWindow::new(capacity);
        let mut reference = VecDeque::new();
        for &(kind, x) in &draws {
            let sample = match kind {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => -x - 1.0,
                4 => f64::INFINITY,
                5 => (x / 250.0).round() * 250.0, // frequent duplicates
                _ => x,
            };
            window.record(sample);
            if sample.is_finite() && sample >= 0.0 {
                if reference.len() == capacity {
                    reference.pop_front();
                }
                reference.push_back(sample);
            }
            prop_assert_eq!(window.len(), reference.len());
            prop_assert_eq!(window.max_ns(), reference.iter().copied().reduce(f64::max));
            let specials = [0.0, 1.0, f64::NAN, f64::NEG_INFINITY, f64::INFINITY];
            for &q in qs.iter().chain(&specials) {
                let (got, want) = (window.quantile_ns(q), sorted_quantile(&reference, q));
                prop_assert!(
                    got.map(f64::to_bits) == want.map(f64::to_bits),
                    "q = {q}: {got:?} vs {want:?}"
                );
            }
        }
    }
}
