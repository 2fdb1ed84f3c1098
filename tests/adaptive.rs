//! Determinism and stopping-semantics tests for the adaptive
//! run-until-confident evaluation engine.

use ftqc::experiments::{EvalPipeline, EvalPipelineBuilder};
use ftqc::noise::HardwareConfig;
use ftqc::sim::{StopReason, StopRule};
use ftqc::surface::MemoryConfig;

/// A d = 3 memory pipeline builder at physical error rate `p`.
fn d3_memory(p: f64) -> EvalPipelineBuilder {
    let hw = HardwareConfig::ibm();
    EvalPipeline::memory(MemoryConfig::new(3, 4, &hw))
        .physical_error(p)
        .batch_shots(256)
        .seed(42)
}

#[test]
fn min_failures_run_resumed_off_a_chunk_boundary_matches_uninterrupted_run() {
    // Resuming at 5 batches shifts every later chunk by 5 batches
    // against the uninterrupted run's 16-batch chunks. The stopping
    // point still matches, because stopping is decided batch by batch
    // in global batch order.
    let pipeline = d3_memory(3e-3).build();
    let rule = StopRule::max_shots(60_000).min_failures(200);
    let uninterrupted = pipeline.run_adaptive(&rule);
    assert_eq!(uninterrupted.reason, StopReason::FailureTarget);
    // The stop falls past the first chunk, mid-way through a later one.
    assert!(
        uninterrupted.shots() > 16 * 256,
        "{}",
        uninterrupted.shots()
    );
    assert!(!uninterrupted.shots().is_multiple_of(16 * 256));
    let interrupted_at = 5 * 256;
    let partial = pipeline.run_adaptive(&StopRule::max_shots(interrupted_at));
    let resumed = pipeline.run_adaptive_with(&rule, Some(partial.state), |_| {});
    assert_eq!(resumed.reason, uninterrupted.reason);
    assert_eq!(resumed.state, uninterrupted.state);
}

#[test]
fn thread_count_does_not_change_adaptive_results() {
    let rule = StopRule::max_shots(60_000).min_failures(30);
    let one = d3_memory(3e-3).threads(1).build().run_adaptive(&rule);
    let eight = d3_memory(3e-3).threads(8).build().run_adaptive(&rule);
    assert_eq!(one.reason, eight.reason);
    assert_eq!(one.state, eight.state);
}

#[test]
fn min_failures_stops_strictly_before_ceiling_on_high_ler_config() {
    // p = 1e-2 is far above threshold for d = 3: failures accumulate
    // within a few hundred shots, so the failure target must fire long
    // before the 200k ceiling.
    let rule = StopRule::max_shots(200_000).min_failures(25);
    let outcome = d3_memory(1e-2).build().run_adaptive(&rule);
    assert_eq!(outcome.reason, StopReason::FailureTarget);
    assert!(
        outcome.shots() < 200_000,
        "adaptive run sampled the whole ceiling ({} shots)",
        outcome.shots()
    );
    assert!(outcome.estimates().iter().all(|e| e.successes() >= 25));
}

#[test]
fn rse_target_stops_with_stated_confidence() {
    let rule = StopRule::max_shots(200_000).max_rse(0.15);
    let pipeline = d3_memory(1e-2).build();
    let outcome = pipeline.run_adaptive(&rule);
    assert_eq!(outcome.reason, StopReason::RseTarget);
    for (o, e) in outcome.estimates().iter().enumerate() {
        assert!(
            e.std_err() / e.rate() <= 0.15,
            "observable {o} stopped at rse {}",
            e.std_err() / e.rate()
        );
    }
}

#[test]
fn ceiling_only_rule_matches_fixed_run_bit_for_bit() {
    let pipeline = d3_memory(3e-3).shots(5_000).build();
    let fixed = pipeline.run();
    let outcome = pipeline.run_adaptive(&StopRule::max_shots(5_000));
    assert_eq!(outcome.reason, StopReason::ShotCeiling);
    assert_eq!(outcome.estimates(), fixed);
}

#[test]
fn progress_states_stay_on_batch_boundaries_even_at_a_misaligned_ceiling() {
    // A ceiling mid-batch past one 16-batch chunk (2 x 4,096 + 100
    // with batch_shots 256) truncates the final batch; that partial
    // state must never reach on_progress, so every checkpoint remains
    // resumable under a later, larger ceiling.
    let pipeline = d3_memory(3e-3).build();
    let mut reported = Vec::new();
    let outcome = pipeline.run_adaptive_with(&StopRule::max_shots(2 * 4_096 + 100), None, |s| {
        reported.push(s.clone())
    });
    assert_eq!(outcome.shots(), 2 * 4_096 + 100);
    let trials: Vec<u64> = reported.iter().map(|s| s.trials()).collect();
    assert_eq!(trials, [4_096, 2 * 4_096]);
    // Raising the ceiling from the last checkpoint matches a direct
    // run (the partial tail is re-sampled).
    let resumed = pipeline.run_adaptive_with(
        &StopRule::max_shots(9_000),
        Some(reported.last().unwrap().clone()),
        |_| {},
    );
    let direct = pipeline.run_adaptive(&StopRule::max_shots(9_000));
    assert_eq!(resumed.state, direct.state);
}

#[test]
fn a_run_in_one_chunk_with_a_partial_last_batch_checkpoints_its_full_batches() {
    // 2,000 shots in 1,024-shot batches: one full batch and a partial
    // one, in a single chunk. The full batch reaches on_progress, so a
    // rerun re-samples only the 976-shot tail.
    let pipeline = d3_memory(3e-3).batch_shots(1_024).build();
    let rule = StopRule::max_shots(2_000);
    let mut reported = Vec::new();
    let direct = pipeline.run_adaptive_with(&rule, None, |s| reported.push(s.clone()));
    assert_eq!(direct.shots(), 2_000);
    let trials: Vec<u64> = reported.iter().map(|s| s.trials()).collect();
    assert_eq!(trials, [1_024]);
    let mut rerun_reported = 0;
    let resumed = pipeline.run_adaptive_with(&rule, reported.pop(), |_| rerun_reported += 1);
    assert_eq!(resumed, direct);
    assert_eq!(
        rerun_reported, 0,
        "the tail's state is off a batch boundary"
    );
}

#[test]
fn fingerprint_covers_the_decoder_training_seed() {
    use ftqc::decoder::DecoderKind;
    let lut = DecoderKind::Lut {
        train_shots: 1_000,
        capacity_bytes: 3 * 1024,
    };
    let a = d3_memory(1e-3).decoder(lut).decoder_seed(7).build();
    let b = d3_memory(1e-3).decoder(lut).decoder_seed(8).build();
    assert_ne!(a.fingerprint(), b.fingerprint());
}

#[test]
fn resumed_run_matches_uninterrupted_run() {
    let pipeline = d3_memory(3e-3).build();
    let full_rule = StopRule::max_shots(6_000);
    let uninterrupted = pipeline.run_adaptive(&full_rule);
    // Interrupt at 2048 shots (a batch boundary), then resume.
    let partial = pipeline.run_adaptive(&StopRule::max_shots(2_048));
    assert_eq!(partial.shots(), 2_048);
    let resumed = pipeline.run_adaptive_with(&full_rule, Some(partial.state), |_| {});
    assert_eq!(resumed.state, uninterrupted.state);
    assert_eq!(resumed.reason, uninterrupted.reason);
}
