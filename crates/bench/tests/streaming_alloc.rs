//! Counting-allocator proofs for the streaming decode path: once the
//! round stream and the sliding-window decoder have warmed up, pushing
//! a round — extraction from the sample batch included — performs
//! **zero** heap allocations (exact, not statistical), even on the
//! first pass (the buffers are presized from `ScratchCapacity`).

use ftqc_bench::alloc::{allocation_count, CountingAlloc};
use ftqc_decoder::{DecoderKind, DecodingGraph, StreamingConfig};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{sample_batch, DetectorErrorModel, RoundSchedule, RoundStream};
use ftqc_surface::MemoryConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The allocation counter is process-wide and the test harness runs
/// tests concurrently; every test takes this lock around its counted
/// region so a neighbour's allocations never leak into an assertion.
static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counter_guard() -> std::sync::MutexGuard<'static, ()> {
    COUNTER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Streams every shot of a pre-sampled batch through `config` `passes`
/// times and returns the allocations of the steady-state passes (one
/// warm-up pass grows scanner/scratch/round buffers).
fn steady_state_stream_allocs(kind: DecoderKind, config: StreamingConfig, passes: usize) -> u64 {
    let hw = HardwareConfig::ibm();
    let circuit =
        CircuitNoiseModel::standard(3e-3, &hw).apply(&MemoryConfig::new(3, 4, &hw).build());
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let batch = sample_batch(&circuit, 512, 7);
    let mut rounds = RoundStream::new(&schedule);
    let mut stream = config.build(&decoder, &schedule);
    let mut defects = Vec::with_capacity(schedule.max_round_len());
    let mut run = |count: bool| -> u64 {
        let before = allocation_count();
        rounds.begin_batch(&batch);
        for s in 0..batch.shots {
            rounds.begin_shot(s);
            stream.begin_shot();
            while rounds.next_round_into(&batch, &mut defects).is_some() {
                std::hint::black_box(stream.push_round(&defects));
            }
            std::hint::black_box(stream.finish_shot());
        }
        if count {
            allocation_count() - before
        } else {
            0
        }
    };
    run(false); // warm-up
    let mut total = 0;
    for _ in 0..passes {
        total += run(true);
    }
    total
}

#[test]
fn immediate_commit_window_is_also_allocation_free() {
    let _guard = counter_guard();
    // W = 1 without overlap commits on every push — the worst case for
    // commit-path allocations (one window decode per dirty round, and
    // artificial defects carried into the next round on most commits).
    for (kind, label) in [(DecoderKind::UnionFind, "UF"), (DecoderKind::Mwpm, "MWPM")] {
        let allocs = steady_state_stream_allocs(kind, StreamingConfig::fused(1, 0), 3);
        assert_eq!(allocs, 0, "W=1 {label} streaming must not touch the heap");
    }
}

#[test]
fn fused_mode_is_allocation_free_at_steady_state() {
    let _guard = counter_guard();
    // The fused commit path decodes each window in place on the full
    // graph, in the same globally indexed arenas as a batch decode:
    // after the warm-up pass, streaming must never touch the heap.
    for (kind, label) in [(DecoderKind::UnionFind, "UF"), (DecoderKind::Mwpm, "MWPM")] {
        for window in [1, 2] {
            let allocs = steady_state_stream_allocs(kind, StreamingConfig::fused(window, 1), 3);
            assert_eq!(
                allocs, 0,
                "fused W={window} {label} streaming must not touch the heap"
            );
        }
    }
}
