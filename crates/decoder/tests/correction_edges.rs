//! Correction edges are the graph decoders' primary output, and a
//! window decode in place on the full graph is the decode of the
//! materialized window.
//!
//! Union-find and MWPM (both its subset-DP matcher and its union-find
//! branch above `exact_limit`) return the edge set of their correction
//! through `decode_window_into`, restricted to a detector range
//! `[dlo, dhi)`. On seeded random syndromes over d ∈ {3, 5, 7} memory
//! graphs and the d = 5 lattice-surgery graph:
//!
//! * the boundary of the edge set (every detector an odd number of its
//!   edges end at, edges ending at or above `dhi` left out) is exactly
//!   the syndrome;
//! * over the full range, the XOR of the edges' observables is
//!   `decode_into`'s mask;
//! * no edge reaches below the range, which is what lets fused
//!   streaming commit them without touching a finalized detector; and
//! * over random ranges the edges are exactly those the same family
//!   returns on the range materialized as a graph of its own
//!   ([`rebuild_window`], the oracle), shifted by the window's first
//!   edge, with the same mask.
//!
//! The last test checks each fused commit's `stitched_edges` against
//! the cut edges of the materialized window it decoded.

use ftqc_circuit::Circuit;
use ftqc_decoder::{
    Decoder, DecoderScratch, DecodingGraph, EdgeRecord, MwpmDecoder, StreamingConfig, UfDecoder,
    NO_NODE,
};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{sample_batch, DetectorErrorModel, RoundSchedule, RoundStream};
use ftqc_surface::{LatticeSurgeryConfig, MemoryConfig};
use ftqc_sync::{PolicySpec, SyncContext};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TRIALS: usize = 300;
const FAMILIES: [&str; 3] = ["uf", "mwpm-dp", "mwpm-uf"];

fn memory_circuit(d: u32, rounds: u32) -> Circuit {
    let hw = HardwareConfig::ibm();
    CircuitNoiseModel::standard(1e-3, &hw).apply(&MemoryConfig::new(d, rounds, &hw).build())
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

/// The window of `src` over the detector range `[dlo, dhi)` as a graph
/// of its own: local node `i` is detector `dlo + i`, and its edges are
/// the run of `src`'s edges whose `u` is in the range (edges sort by
/// `u`), so window edge `e` is source edge `first + e`. An edge
/// leaving the range downward is omitted, and one leaving it upward
/// becomes a boundary edge at `u`, a *cut edge*. Returns
/// `(window, first, cut edges)`.
fn rebuild_window(src: &DecodingGraph, dlo: u32, dhi: u32) -> (DecodingGraph, u32, u32) {
    let first = src.records().partition_point(|r| r.u < dlo);
    let last = src.records().partition_point(|r| r.u < dhi);
    let run = &src.records()[first..last];
    let records = run
        .iter()
        .map(|r| EdgeRecord {
            u: r.u - dlo,
            v: if r.v < dhi { r.v - dlo } else { NO_NODE },
            ..*r
        })
        .collect();
    let cut = run.iter().filter(|r| r.v >= dhi && r.v != NO_NODE).count();
    (
        DecodingGraph::from_records(dhi - dlo, records),
        first as u32,
        cut as u32,
    )
}

/// The detectors below `dhi` an odd number of `edges` end at,
/// ascending.
fn boundary_of(graph: &DecodingGraph, dhi: u32, edges: &[u32]) -> Vec<u32> {
    let mut odd = vec![false; graph.num_detectors() as usize];
    for &e in edges {
        let r = graph.records()[e as usize];
        for x in [r.u, r.v] {
            if x < dhi {
                odd[x as usize] ^= true;
            }
        }
    }
    (0..graph.num_detectors())
        .filter(|&x| odd[x as usize])
        .collect()
}

/// A random syndrome of the detectors `[dlo, dhi)` with at most
/// `max_k` defects.
fn random_syndrome(rng: &mut SmallRng, (dlo, dhi): (u32, u32), max_k: usize) -> Vec<u32> {
    let k = rng.gen_range(1..max_k.min((dhi - dlo) as usize) + 1);
    let mut syndrome: Vec<u32> = (0..k).map(|_| rng.gen_range(dlo..dhi)).collect();
    syndrome.sort_unstable();
    syndrome.dedup();
    syndrome
}

/// A graph decoder of `family` over `graph`: union-find, the MWPM
/// subset DP, or MWPM forced onto its union-find branch.
fn decoder(family: &str, graph: DecodingGraph) -> Box<dyn Decoder> {
    match family {
        "uf" => Box::new(UfDecoder::new(graph)),
        "mwpm-dp" => Box::new(MwpmDecoder::new(graph)),
        "mwpm-uf" => Box::new(MwpmDecoder::new(graph).with_exact_limit(2)),
        _ => unreachable!("unknown family {family}"),
    }
}

/// Decodes `TRIALS` random syndromes of up to `max_k` defects over the
/// range `range(rng)` and checks the edge set's boundary, that no edge
/// reaches below the range, and that edges and mask are the
/// materialized window's.
fn check_ranges(
    label: &str,
    graph: &DecodingGraph,
    max_k: usize,
    seed: u64,
    mut range: impl FnMut(&mut SmallRng) -> (u32, u32),
) {
    for family in FAMILIES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let decoder = decoder(family, graph.clone());
        let mut scratch = DecoderScratch::for_decoder(decoder.as_ref());
        let (mut edges, mut local_edges) = (Vec::new(), Vec::new());
        for trial in 0..TRIALS {
            let (dlo, dhi) = range(&mut rng);
            let syndrome = random_syndrome(&mut rng, (dlo, dhi), max_k);
            let at = format!("{label} {family} trial {trial} [{dlo}, {dhi})");
            let on = decoder
                .decode_window_into(&mut scratch, (dlo, dhi), &syndrome, &mut edges)
                .expect("graph decoders decode windows");
            assert_eq!(
                boundary_of(on, dhi, &edges),
                syndrome,
                "{at}: boundary of the correction"
            );
            for &e in &edges {
                let r = on.records()[e as usize];
                assert!(r.u >= dlo, "{at}: edge {r:?} reaches below the range");
            }
            let (view, first, _) = rebuild_window(graph, dlo, dhi);
            let oracle = self::decoder(family, view);
            let local: Vec<u32> = syndrome.iter().map(|&d| d - dlo).collect();
            let n = dhi - dlo;
            let mut oracle_scratch = DecoderScratch::for_decoder(oracle.as_ref());
            let view = oracle
                .decode_window_into(&mut oracle_scratch, (0, n), &local, &mut local_edges)
                .expect("graph decoders decode windows");
            let shifted: Vec<u32> = local_edges.iter().map(|&e| e + first).collect();
            assert_eq!(edges, shifted, "{at}: edges of the materialized window");
            let mut mask = 0u32;
            oracle.decode_into(&mut oracle_scratch, &local, &mut mask);
            assert_eq!(view.observables_of(&local_edges), mask, "{at}: oracle mask");
            assert_eq!(on.observables_of(&edges), mask, "{at}: mask of the window");
            if (dlo, dhi) == (0, graph.num_detectors()) {
                decoder.decode_into(&mut scratch, &syndrome, &mut mask);
                assert_eq!(on.observables_of(&edges), mask, "{at}: batch mask");
            }
        }
    }
}

/// Whole-graph decodes, whose edges' observables are also
/// `decode_into`'s mask on the decoder itself.
fn check_batch(label: &str, graph: &DecodingGraph, max_k: usize, seed: u64) {
    let n = graph.num_detectors();
    check_ranges(label, graph, max_k, seed, |_| (0, n));
}

#[test]
fn d3_memory_corrections_have_the_syndrome_as_boundary() {
    check_batch("memory d3", &graph_of(&memory_circuit(3, 4)), 12, 31);
}

#[test]
fn d5_memory_corrections_have_the_syndrome_as_boundary() {
    check_batch("memory d5", &graph_of(&memory_circuit(5, 6)), 16, 32);
}

#[test]
fn d5_surgery_corrections_have_the_syndrome_as_boundary() {
    check_batch("surgery d5", &graph_of(&surgery_circuit()), 16, 33);
}

#[test]
fn mid_stream_window_corrections_have_the_syndrome_as_boundary() {
    for (label, circuit) in [
        ("memory d3", memory_circuit(3, 4)),
        ("memory d5", memory_circuit(5, 6)),
    ] {
        let graph = graph_of(&circuit);
        let schedule = RoundSchedule::from_circuit(&circuit);
        let rounds = schedule.num_rounds();
        for (lo, hi) in [(1, 3), (2, rounds - 1), (rounds - 2, rounds)] {
            let range = schedule.window_envelope(lo, hi);
            check_ranges(
                &format!("{label} rounds {lo}..{hi}"),
                &graph,
                10,
                u64::from(lo * 97 + hi),
                |_| range,
            );
        }
    }
}

#[test]
fn random_range_decodes_match_the_materialized_window() {
    for (label, circuit, seed) in [
        ("memory d3", memory_circuit(3, 9), 41),
        ("memory d5", memory_circuit(5, 15), 42),
        ("memory d7", memory_circuit(7, 14), 43),
        ("surgery d5", surgery_circuit(), 44),
    ] {
        let graph = graph_of(&circuit);
        let n = graph.num_detectors();
        check_ranges(label, &graph, 10, seed, |rng| {
            let dlo = rng.gen_range(0..n);
            (dlo, rng.gen_range(dlo + 1..n + 1))
        });
    }
}

#[test]
fn stitched_edges_count_the_decoded_windows_cut_edges() {
    // Every commit that decoded reports the cut edges of the window of
    // rounds [round - overlap, pushed) it decoded; the others report 0.
    let circuit = memory_circuit(5, 15);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let graph = DecodingGraph::from_dem(&dem);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let decoder = UfDecoder::new(graph.clone());
    let batch = sample_batch(&circuit, 64, 5);
    let mut decoded = 0;
    for (window, overlap) in [(5, 1), (2, 0), (1, 1)] {
        let mut stream = StreamingConfig::fused(window, overlap).build(&decoder, &schedule);
        let mut rounds = RoundStream::new(&schedule);
        rounds.begin_batch(&batch);
        let mut defects = Vec::new();
        for s in 0..batch.shots {
            rounds.begin_shot(s);
            stream.begin_shot();
            let mut pushed = 0;
            loop {
                let before = stream.decode_count();
                let more = rounds.next_round_into(&batch, &mut defects).is_some();
                let commit = if more {
                    pushed += 1;
                    stream.push_round(&defects)
                } else {
                    stream.flush_round()
                };
                let Some(commit) = commit else {
                    if more {
                        continue;
                    }
                    break;
                };
                let want = if stream.decode_count() > before {
                    decoded += 1;
                    let lo = commit.round.saturating_sub(overlap);
                    let (dlo, dhi) = schedule.window_envelope(lo, pushed);
                    rebuild_window(&graph, dlo, dhi).2
                } else {
                    0
                };
                assert_eq!(
                    commit.stitched_edges, want,
                    "fused({window}, {overlap}) shot {s} round {}",
                    commit.round
                );
            }
        }
    }
    assert!(decoded > 100, "want decoding commits, got {decoded}");
}
