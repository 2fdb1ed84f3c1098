//! Capacity contract of the arena decoder core.
//!
//! [`ScratchCapacity`] promises that every scratch buffer's worst-case
//! size is a closed-form function of the decoding graph (plus the
//! matcher's exact-limit), so a workspace preallocated with
//! [`DecoderScratch::for_decoder`] never allocates on the hot path —
//! the allocation side is asserted by the counting-allocator tests in
//! `ftqc-bench` (`arena_alloc.rs`); these tests pin the *behavioral*
//! side of the contract:
//!
//! * a bounded workspace is bit-identical to an unbounded one over a
//!   randomized corpus, including adversarially heavy syndromes;
//! * debug builds panic with a clear message when a decode is pushed
//!   through a workspace bounded for a smaller graph (instead of
//!   silently growing past the declared bound).

use ftqc_decoder::{
    Decoder, DecoderScratch, DecodingGraph, MwpmDecoder, ScratchCapacity, UfDecoder,
};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::DetectorErrorModel;
use ftqc_surface::MemoryConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn decoding_graph(d: u32) -> DecodingGraph {
    let hw = HardwareConfig::ibm();
    let circuit =
        CircuitNoiseModel::standard(1e-3, &hw).apply(&MemoryConfig::new(d, d + 1, &hw).build());
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    DecodingGraph::from_dem(&dem)
}

/// Random syndromes up to `max_density`, always including the empty
/// syndrome and an all-detectors worst case.
fn adversarial_corpus(num_detectors: u32, max_density: f64, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut corpus = vec![Vec::new(), (0..num_detectors).collect()];
    for _ in 0..200 {
        let density = rng.gen::<f64>() * max_density;
        corpus.push(
            (0..num_detectors)
                .filter(|_| rng.gen_bool(density))
                .collect(),
        );
    }
    corpus
}

#[test]
fn declared_capacity_matches_the_graph() {
    let graph = decoding_graph(5);
    let (nodes, edges) = (graph.num_detectors(), graph.records().len() as u32);
    let uf = UfDecoder::new(graph.clone());
    assert_eq!(
        uf.scratch_capacity(),
        ScratchCapacity {
            nodes,
            edges,
            exact_limit: 0
        }
    );
    let mwpm = MwpmDecoder::new(graph).with_exact_limit(8);
    assert_eq!(
        mwpm.scratch_capacity(),
        ScratchCapacity {
            nodes,
            edges,
            exact_limit: 8
        }
    );
}

#[test]
fn capacity_max_is_elementwise() {
    let a = ScratchCapacity {
        nodes: 10,
        edges: 40,
        exact_limit: 6,
    };
    let b = ScratchCapacity {
        nodes: 25,
        edges: 30,
        exact_limit: 0,
    };
    let m = a.max(b);
    assert_eq!(
        m,
        ScratchCapacity {
            nodes: 25,
            edges: 40,
            exact_limit: 6
        }
    );
    // Sufficient for either input by construction.
    assert_eq!(m, m.max(a));
    assert_eq!(m, m.max(b));
}

/// The graph-derived bound is *sufficient*: decoding an adversarial
/// corpus (empty, dense-random, and every-detector syndromes) through a
/// bounded workspace matches the unbounded one bit for bit, and in
/// debug builds none of the bound assertions fire.
#[test]
fn bounded_scratch_is_bit_identical_to_unbounded() {
    let graph = decoding_graph(5);
    let corpus = adversarial_corpus(graph.num_detectors(), 0.4, 7);
    let uf = UfDecoder::new(graph.clone());
    let mwpm = MwpmDecoder::new(graph);
    for decoder in [&uf as &dyn Decoder, &mwpm] {
        let mut bounded = DecoderScratch::for_decoder(decoder);
        let mut unbounded = DecoderScratch::new();
        let (mut a, mut b) = (0u32, 0u32);
        for (i, syndrome) in corpus.iter().enumerate() {
            decoder.decode_into(&mut bounded, syndrome, &mut a);
            decoder.decode_into(&mut unbounded, syndrome, &mut b);
            assert_eq!(a, b, "syndrome #{i} diverged under a bounded scratch");
        }
    }
}

/// Pushing a larger graph through a workspace bounded for a smaller one
/// must fail loudly in debug builds, not silently grow the arenas.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "UfScratch bound overflow")]
fn undersized_node_bound_panics_in_debug() {
    let small = UfDecoder::new(decoding_graph(3));
    let big = UfDecoder::new(decoding_graph(5));
    let mut scratch = DecoderScratch::for_decoder(&small);
    let mut correction = 0u32;
    big.decode_into(&mut scratch, &[0, 1], &mut correction);
}

/// Same for the matcher's defect-count bound: a workspace declared for
/// `exact_limit = 2` must refuse a 4-defect exact matching in debug.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "MatchScratch bound overflow")]
fn undersized_exact_limit_panics_in_debug() {
    let graph = decoding_graph(3);
    let cap = ScratchCapacity {
        nodes: graph.num_detectors(),
        edges: graph.records().len() as u32,
        exact_limit: 2,
    };
    let mwpm = MwpmDecoder::new(graph).with_exact_limit(8);
    let mut scratch = DecoderScratch::with_capacity(cap);
    let mut correction = 0u32;
    mwpm.decode_into(&mut scratch, &[0, 1, 2, 3], &mut correction);
}
