//! Counting-allocator proof of "allocation-free by construction": a
//! workspace preallocated from the decoder's declared
//! [`ScratchCapacity`] (`DecoderScratch::for_decoder`) never touches
//! the heap — including on the very *first* decode, with no warm-up
//! pass. This is the property that makes the arena core suitable for
//! latency-critical deployment (no first-shot allocation spike), and it
//! is strictly stronger than the steady-state guarantee pinned by
//! `zero_alloc.rs`.

use ftqc_bench::alloc::{thread_allocation_count, CountingAlloc};
use ftqc_decoder::{Decoder, DecoderScratch, DecodingGraph, MwpmDecoder, UfDecoder};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{sample_batch, DetectorErrorModel};
use ftqc_surface::MemoryConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Syndromes plus a decoding graph for a distance-`d` memory circuit.
fn setup(d: u32) -> (DecodingGraph, Vec<Vec<u32>>) {
    let hw = HardwareConfig::ibm();
    let circuit =
        CircuitNoiseModel::standard(1e-3, &hw).apply(&MemoryConfig::new(d, d + 1, &hw).build());
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let graph = DecodingGraph::from_dem(&dem);
    let batch = sample_batch(&circuit, 512, 7);
    let syndromes: Vec<Vec<u32>> = (0..batch.shots)
        .map(|s| batch.flagged_detectors(s))
        .collect();
    assert!(syndromes.iter().any(|s| !s.is_empty()), "want real work");
    (graph, syndromes)
}

/// Decodes every syndrome exactly once through a capacity-preallocated
/// scratch — cold, no warm-up — and returns the allocations this
/// thread performed.
fn cold_allocs(decoder: &impl Decoder, syndromes: &[Vec<u32>]) -> u64 {
    let mut scratch = DecoderScratch::for_decoder(decoder);
    let mut correction = 0u32;
    let before = thread_allocation_count();
    for syndrome in syndromes {
        decoder.decode_into(&mut scratch, syndrome, &mut correction);
        std::hint::black_box(correction);
    }
    thread_allocation_count() - before
}

#[test]
fn uf_first_decode_through_bounded_scratch_is_allocation_free() {
    let (graph, syndromes) = setup(5);
    let decoder = UfDecoder::new(graph);
    let allocs = cold_allocs(&decoder, &syndromes);
    assert_eq!(
        allocs,
        0,
        "UF decoded {} cold shots with {allocs} allocations; the graph-derived \
         capacity bound must cover the first decode",
        syndromes.len()
    );
}

#[test]
fn mwpm_first_decode_through_bounded_scratch_is_allocation_free() {
    let (graph, syndromes) = setup(5);
    let decoder = MwpmDecoder::new(graph);
    let allocs = cold_allocs(&decoder, &syndromes);
    assert_eq!(
        allocs,
        0,
        "MWPM decoded {} cold shots with {allocs} allocations; the declared \
         capacity must cover the Dijkstra rows and DP tables up front",
        syndromes.len()
    );
}
