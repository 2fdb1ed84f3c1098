//! Counting-allocator proofs of the decode hot path's allocation
//! discipline (the tentpole guarantee behind `DecoderScratch` /
//! `decode_into`):
//!
//! * steady-state UF, MWPM, LUT and hierarchical decodes perform
//!   **zero** heap allocations per shot (exact, not statistical);
//! * `count_batch_errors` allocations do not scale with shots — the
//!   per-thread sampler buffers, syndrome buffer and decoder scratch
//!   are reused across every batch a worker claims, and nothing
//!   circuit- or DEM-derived is cloned per batch;
//! * LUT training allocates per distinct syndrome, not per shot.

use ftqc_bench::alloc::{allocation_count, thread_allocation_count, CountingAlloc};
use ftqc_decoder::{
    count_batch_errors, Decoder, DecoderKind, DecoderScratch, DecodingGraph, LutDecoder,
};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{batch_plan, sample_batch, DetectorErrorModel};
use ftqc_surface::MemoryConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `count_batch_errors` decodes on worker threads, so its tests read
/// the process-wide counter; every test takes this lock so that a
/// neighbour's set-up never leaks into those counts. The decode tests
/// run on one thread and read the per-thread counter, which the
/// harness's own threads cannot disturb.
static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counter_guard() -> std::sync::MutexGuard<'static, ()> {
    COUNTER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// d = 3 memory on IBM hardware at p = 1e-3: the `idle-sweep`
/// benchmark's circuit at final idle 0.
fn d3_circuit() -> ftqc_circuit::Circuit {
    let hw = HardwareConfig::ibm();
    CircuitNoiseModel::standard(1e-3, &hw).apply(&MemoryConfig::new(3, 4, &hw).build())
}

fn d3_setup(kind: DecoderKind) -> (ftqc_circuit::Circuit, ftqc_decoder::AnyDecoder) {
    let circuit = d3_circuit();
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let graph = DecodingGraph::from_dem(&dem);
    let decoder = kind.build(&circuit, graph, 2025);
    (circuit, decoder)
}

/// Decodes every pre-sampled syndrome `passes` times through one
/// reused scratch and returns the allocations the steady-state passes
/// performed (the first pass is the warm-up that grows the scratch).
fn steady_state_allocs(decoder: &impl Decoder, syndromes: &[Vec<u32>], passes: usize) -> u64 {
    let mut scratch = DecoderScratch::new();
    let mut correction = 0u32;
    for syndrome in syndromes {
        decoder.decode_into(&mut scratch, syndrome, &mut correction);
    }
    let before = thread_allocation_count();
    for _ in 0..passes {
        for syndrome in syndromes {
            decoder.decode_into(&mut scratch, syndrome, &mut correction);
            std::hint::black_box(correction);
        }
    }
    thread_allocation_count() - before
}

#[test]
fn uf_decode_is_allocation_free_at_steady_state() {
    let _guard = counter_guard();
    let (circuit, decoder) = d3_setup(DecoderKind::UnionFind);
    let batch = sample_batch(&circuit, 1024, 7);
    let syndromes: Vec<Vec<u32>> = (0..batch.shots)
        .map(|s| batch.flagged_detectors(s))
        .collect();
    assert!(syndromes.iter().any(|s| !s.is_empty()), "want real work");
    let allocs = steady_state_allocs(&decoder, &syndromes, 3);
    assert_eq!(
        allocs, 0,
        "UF decoded {} shots x3 with {allocs} allocations; the scratch path must not touch the heap",
        syndromes.len()
    );
}

#[test]
fn lut_decode_is_allocation_free_at_steady_state() {
    let _guard = counter_guard();
    // The hierarchical kind answers misses from its matcher's scratch.
    for kind in [DecoderKind::lut(), DecoderKind::hierarchical()] {
        let (circuit, decoder) = d3_setup(kind);
        let batch = sample_batch(&circuit, 1024, 7);
        let syndromes: Vec<Vec<u32>> = (0..batch.shots)
            .map(|s| batch.flagged_detectors(s))
            .collect();
        let allocs = steady_state_allocs(&decoder, &syndromes, 3);
        assert_eq!(allocs, 0, "{kind} decodes must not touch the heap");
    }
}

#[test]
fn mwpm_decode_is_allocation_free_at_steady_state() {
    let _guard = counter_guard();
    // Stronger than the acceptance floor (UF + LUT): the exact matcher
    // also runs dry once its Dijkstra rows and DP tables have grown.
    let (circuit, decoder) = d3_setup(DecoderKind::Mwpm);
    let batch = sample_batch(&circuit, 1024, 7);
    let syndromes: Vec<Vec<u32>> = (0..batch.shots)
        .map(|s| batch.flagged_detectors(s))
        .collect();
    let allocs = steady_state_allocs(&decoder, &syndromes, 3);
    assert_eq!(allocs, 0, "MWPM scratch decode must not touch the heap");
}

#[test]
fn count_batch_errors_allocations_do_not_scale_with_shots() {
    let _guard = counter_guard();
    // Same batch count, 8x the shots: the per-shot path (sampling rows,
    // syndrome extraction, decoding) must add no allocations. Only
    // buffer *growth* may differ, bounded by a handful of reallocs.
    let (circuit, decoder) = d3_setup(DecoderKind::UnionFind);
    let measure = |batch_shots: usize| {
        let plan = batch_plan(8 * batch_shots as u64, batch_shots);
        let before = allocation_count();
        let counts = count_batch_errors(&circuit, &decoder, &plan, 11, 1);
        std::hint::black_box(&counts);
        allocation_count() - before
    };
    let small = measure(64); // 512 shots
    let large = measure(512); // 4096 shots
    let growth_slack = 48; // log-factor buffer growth, not per-shot work
    assert!(
        large <= small + growth_slack,
        "allocations scaled with shots: {small} allocs at 512 shots vs {large} at 4096"
    );
}

#[test]
fn count_batch_errors_per_batch_overhead_is_result_vector_only() {
    let _guard = counter_guard();
    // Doubling the batch count at fixed batch size may only add the
    // returned per-batch count vectors (plus plan/result bookkeeping),
    // not any re-cloned circuit/DEM artifacts: budget 4 allocations
    // per extra batch.
    let (circuit, decoder) = d3_setup(DecoderKind::UnionFind);
    let measure = |batches: u64| {
        let plan = batch_plan(batches * 256, 256);
        let before = allocation_count();
        let counts = count_batch_errors(&circuit, &decoder, &plan, 11, 1);
        std::hint::black_box(&counts);
        allocation_count() - before
    };
    let base = measure(8);
    let doubled = measure(16);
    assert!(
        doubled <= base + 8 * 4,
        "per-batch overhead too high: {base} allocs for 8 batches vs {doubled} for 16"
    );
}

#[test]
fn lut_training_allocations_do_not_scale_with_shots() {
    let _guard = counter_guard();
    // 20,000 shots of the `idle-sweep` circuit at final idle 0 hold
    // 7,223 non-empty shots and 1,502 distinct syndromes. Training
    // reuses one sampler and one syndrome buffer, so it may allocate a
    // key and a mask list per distinct syndrome plus set-up and table
    // growth, but nothing per shot.
    let circuit = d3_circuit();
    let before = thread_allocation_count();
    let lut = LutDecoder::train(&circuit, 20_000, 1, 3 * 1024);
    let allocs = thread_allocation_count() - before;
    assert_eq!(lut.entries(), 614);
    assert!(
        allocs <= 4_000,
        "training made {allocs} allocations for 20,000 shots"
    );
}

#[test]
fn thread_counter_sees_only_its_own_thread() {
    let _guard = counter_guard();
    // Spawning allocates on the spawning thread, so the other thread
    // is started first and allocates between two barrier waits.
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            barrier.wait();
            std::hint::black_box(vec![0u8; 64]);
            barrier.wait();
        });
        let (process, thread) = (allocation_count(), thread_allocation_count());
        barrier.wait();
        barrier.wait();
        assert_eq!(
            thread_allocation_count(),
            thread,
            "another thread's allocation leaked in"
        );
        assert!(
            allocation_count() > process,
            "the process-wide counter saw it"
        );
        let before = thread_allocation_count();
        std::hint::black_box(vec![0u8; 64]);
        assert_eq!(
            thread_allocation_count() - before,
            1,
            "this thread's own allocation counted"
        );
    });
}
