//! Correction edges are the graph decoders' primary output.
//!
//! Union-find and MWPM (both its subset-DP matcher and its union-find
//! branch above `exact_limit`) return the edge set of their correction
//! through `decode_window_into`. Two properties pin it on seeded random
//! syndromes over d ∈ {3, 5} memory graphs, the d = 5 lattice-surgery
//! graph and mid-stream window views:
//!
//! * the boundary of the edge set (every detector an odd number of its
//!   edges end at) is exactly the syndrome, and
//! * the XOR of the edges' observables is `decode_into`'s mask.
//!
//! A view over the whole graph is the graph itself, so its edges are
//! the batch decode's. A mid-stream view's edges never reach below it,
//! which is what lets fused streaming commit them without touching a
//! finalized detector.

use ftqc_circuit::Circuit;
use ftqc_decoder::{
    Decoder, DecoderScratch, DecodingGraph, MwpmDecoder, UfDecoder, WindowView, NO_NODE,
};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{DetectorErrorModel, RoundSchedule};
use ftqc_surface::{LatticeSurgeryConfig, MemoryConfig};
use ftqc_sync::{PolicySpec, SyncContext};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TRIALS: usize = 300;

fn memory_circuit(d: u32) -> Circuit {
    let hw = HardwareConfig::ibm();
    CircuitNoiseModel::standard(1e-3, &hw).apply(&MemoryConfig::new(d, d + 1, &hw).build())
}

/// Paper Table 2's Hybrid row at d = 5, the graph `surgery-ler` decodes.
fn surgery_circuit() -> Circuit {
    let hw = HardwareConfig::ibm();
    let d = 5;
    let ctx = SyncContext::new(1000.0, 1000.0, 1325.0, d + 1).expect("valid context");
    let mut cfg = LatticeSurgeryConfig::new(d, &hw);
    cfg.plan = PolicySpec::hybrid(400.0)
        .plan(&ctx)
        .or_else(|_| PolicySpec::Active.plan(&ctx))
        .expect("active planning is total");
    cfg.lagging_round_stretch_ns = 325.0;
    CircuitNoiseModel::standard(1e-3, &hw).apply(&cfg.build())
}

fn graph_of(circuit: &Circuit) -> DecodingGraph {
    let (dem, _) = DetectorErrorModel::from_circuit(circuit, true);
    DecodingGraph::from_dem(&dem)
}

/// The detectors an odd number of `edges` end at, ascending.
fn boundary_of(graph: &DecodingGraph, edges: &[u32]) -> Vec<u32> {
    let mut odd = vec![false; graph.num_detectors() as usize];
    for &e in edges {
        let r = graph.records()[e as usize];
        for x in [r.u, r.v] {
            if x != NO_NODE {
                odd[x as usize] ^= true;
            }
        }
    }
    (0..graph.num_detectors())
        .filter(|&x| odd[x as usize])
        .collect()
}

/// A random syndrome of `n` detectors with at most `max_k` defects.
fn random_syndrome(rng: &mut SmallRng, n: u32, max_k: usize) -> Vec<u32> {
    let k = rng.gen_range(1..max_k.min(n as usize) + 1);
    let mut syndrome: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n)).collect();
    syndrome.sort_unstable();
    syndrome.dedup();
    syndrome
}

/// The graph decoders under test, built over `graph`: union-find, the
/// MWPM subset DP, and MWPM forced onto its union-find branch.
fn decoders(graph: &DecodingGraph) -> Vec<(&'static str, Box<dyn Decoder>)> {
    vec![
        ("uf", Box::new(UfDecoder::new(graph.clone()))),
        ("mwpm-dp", Box::new(MwpmDecoder::new(graph.clone()))),
        (
            "mwpm-uf",
            Box::new(MwpmDecoder::new(graph.clone()).with_exact_limit(2)),
        ),
    ]
}

/// Decodes random syndromes of up to `max_k` defects over the view of
/// `[dlo, dhi)` and checks both properties. The reference mask is a
/// batch decode by the same family over the materialized view graph.
fn check_window(label: &str, graph: &DecodingGraph, dlo: u32, dhi: u32, max_k: usize, seed: u64) {
    for (name, decoder) in decoders(graph) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::for_decoder(decoder.as_ref());
        let mut view = WindowView::new();
        view.set_range(dlo, dhi);
        let mut edges = Vec::new();
        let mut references: Option<Vec<(&'static str, Box<dyn Decoder>)>> = None;
        for trial in 0..TRIALS {
            let syndrome = random_syndrome(&mut rng, dhi - dlo, max_k);
            let windowed =
                decoder.decode_window_into(&mut scratch, &mut view, &syndrome, &mut edges);
            assert!(windowed, "{label} {name}: graph decoders decode windows");
            let local = view.graph();
            assert_eq!(
                boundary_of(local, &edges),
                syndrome,
                "{label} {name} trial {trial}: boundary of the correction"
            );
            let reference = references.get_or_insert_with(|| decoders(local));
            let (_, same_family) = reference
                .iter()
                .find(|(n, _)| *n == name)
                .expect("same family");
            let mut mask = 0u32;
            same_family.decode_into(&mut DecoderScratch::new(), &syndrome, &mut mask);
            assert_eq!(
                local.observables_of(&edges),
                mask,
                "{label} {name} trial {trial}: observables of the correction"
            );
            for &e in &edges {
                let r = view.source_record(e);
                assert!(
                    r.u >= dlo && (r.v == NO_NODE || r.v >= dlo),
                    "{label} {name} trial {trial}: edge {r:?} reaches below the view"
                );
            }
        }
    }
}

/// The whole-graph view: its edges are the batch decode's, and their
/// observables `decode_into`'s mask on the decoder itself.
fn check_batch(label: &str, graph: &DecodingGraph, max_k: usize, seed: u64) {
    let n = graph.num_detectors();
    for (name, decoder) in decoders(graph) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::for_decoder(decoder.as_ref());
        let mut view = WindowView::new();
        view.set_range(0, n);
        let mut edges = Vec::new();
        for trial in 0..TRIALS {
            let syndrome = random_syndrome(&mut rng, n, max_k);
            decoder.decode_window_into(&mut scratch, &mut view, &syndrome, &mut edges);
            assert_eq!(
                boundary_of(graph, &edges),
                syndrome,
                "{label} {name} trial {trial}: boundary of the correction"
            );
            let mut mask = 0u32;
            decoder.decode_into(&mut scratch, &syndrome, &mut mask);
            assert_eq!(
                graph.observables_of(&edges),
                mask,
                "{label} {name} trial {trial}: observables of the correction"
            );
        }
    }
}

#[test]
fn d3_memory_corrections_have_the_syndrome_as_boundary() {
    check_batch("memory d3", &graph_of(&memory_circuit(3)), 12, 31);
}

#[test]
fn d5_memory_corrections_have_the_syndrome_as_boundary() {
    check_batch("memory d5", &graph_of(&memory_circuit(5)), 16, 32);
}

#[test]
fn d5_surgery_corrections_have_the_syndrome_as_boundary() {
    check_batch("surgery d5", &graph_of(&surgery_circuit()), 16, 33);
}

#[test]
fn mid_stream_window_corrections_have_the_syndrome_as_boundary() {
    for (label, circuit) in [
        ("memory d3", memory_circuit(3)),
        ("memory d5", memory_circuit(5)),
    ] {
        let graph = graph_of(&circuit);
        let schedule = RoundSchedule::from_circuit(&circuit);
        let rounds = schedule.num_rounds();
        for (lo, hi) in [(1, 3), (2, rounds - 1), (rounds - 2, rounds)] {
            let (dlo, dhi) = schedule.window_envelope(lo, hi);
            check_window(
                &format!("{label} rounds {lo}..{hi}"),
                &graph,
                dlo,
                dhi,
                10,
                u64::from(lo * 97 + hi),
            );
        }
    }
}
