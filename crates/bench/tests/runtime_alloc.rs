//! Counting-allocator proofs that the merge path never touches the
//! heap:
//!
//! * a warmed-up [`Controller`] plans and applies merges with **zero**
//!   heap allocations — every built-in policy, 2–4 patches per merge,
//!   the ExtraRounds → Active fallback included (exact, not
//!   statistical);
//! * `execute` allocates only its set-up: its allocation count is the
//!   same at 200 and at 2,000 merges for every `runtime-sweep` policy.

use ftqc_bench::alloc::{thread_allocation_count, CountingAlloc};
use ftqc_estimator::{workloads, LogicalEstimate};
use ftqc_noise::HardwareConfig;
use ftqc_runtime::{execute, ProgramSchedule, RuntimeConfig};
use ftqc_sync::{Controller, PatchId, PolicySpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Cycle durations the merging patches are re-timed to. Repeats make
/// equal-cycle pairs common, where ExtraRounds falls back to Active.
const CYCLES: [u32; 4] = [1000, 1150, 1325, 1900];

/// What a run of merges did, tallied without allocating.
#[derive(Default)]
struct Tally {
    fallbacks: u64,
    extra_rounds: u64,
}

/// Merges `first..first + merges` over `patches`: merge `m` lists 2–4
/// consecutive patches, re-times them, plans under the `m`-th built-in
/// policy and free-runs the controller past the merge tick.
fn merge_loop(ctl: &mut Controller, patches: &[PatchId], first: u64, merges: u64) -> Tally {
    let policies = [
        PolicySpec::Passive,
        PolicySpec::Active,
        PolicySpec::ActiveIntra,
        PolicySpec::ExtraRounds,
        PolicySpec::hybrid(400.0),
        PolicySpec::dynamic_hybrid(),
    ];
    let mut tally = Tally::default();
    let mut ids = [PatchId(0); 4];
    for m in first..first + merges {
        let n = 2 + (m % 3) as usize;
        for (k, id) in ids[..n].iter_mut().enumerate() {
            *id = patches[(m as usize + k) % patches.len()];
            ctl.set_cycle_ticks(*id, CYCLES[(m as usize * 7 + k * 3) % CYCLES.len()]);
        }
        let policy = &policies[(m % policies.len() as u64) as usize];
        let report = ctl
            .synchronize_report(&ids[..n], policy, 8)
            .expect("live distinct patches always plan");
        tally.extra_rounds += report.extra_rounds;
        tally.fallbacks += ctl
            .last_plans()
            .iter()
            .filter(|plan| plan.policy != *policy)
            .count() as u64;
        ctl.run_until(report.merge_tick + 1 + m * 131 % 1900);
    }
    tally
}

#[test]
fn warmed_controller_merges_without_allocating() {
    let mut ctl = Controller::new();
    let patches: Vec<PatchId> = (0..6).map(|i| ctl.add_patch(1900, i * 300)).collect();
    // Warm-up: the slack window fills and the plan buffers reach size.
    merge_loop(&mut ctl, &patches, 0, 200);
    let before = thread_allocation_count();
    let tally = merge_loop(&mut ctl, &patches, 200, 5_000);
    let allocs = thread_allocation_count() - before;
    assert_eq!(
        allocs, 0,
        "5000 warmed merges made {allocs} allocations; the merge path must not touch the heap"
    );
    assert!(
        tally.fallbacks > 0,
        "the ExtraRounds -> Active fallback ran"
    );
    assert!(tally.extra_rounds > 0, "extra-round plans ran");
}

#[test]
fn execute_allocations_do_not_grow_with_merges() {
    let workload = workloads::qft(80);
    let estimate = LogicalEstimate::for_workload(&workload, 1e-3, 1e-2);
    let short = ProgramSchedule::compile(&workload, &estimate, 200, 2025);
    let long = ProgramSchedule::compile(&workload, &estimate, 2_000, 2025);
    assert_eq!((short.merges(), long.merges()), (200, 2_000));
    let hw = HardwareConfig::ibm();
    for policy in [
        PolicySpec::Passive,
        PolicySpec::Active,
        PolicySpec::hybrid(400.0),
        PolicySpec::dynamic_hybrid(),
    ] {
        let config = RuntimeConfig::new(&hw, policy, 2025);
        let count = |schedule: &ProgramSchedule| {
            let before = thread_allocation_count();
            let report = execute(schedule, &config);
            std::hint::black_box(&report);
            drop(report);
            thread_allocation_count() - before
        };
        let (at_200, at_2000) = (count(&short), count(&long));
        assert_eq!(
            at_200, at_2000,
            "{policy}: execute made {at_200} allocations at 200 merges but {at_2000} at 2000"
        );
    }
}
