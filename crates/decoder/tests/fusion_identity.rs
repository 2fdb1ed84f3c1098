//! Fused-mode contracts: windowed fusion's exactness boundary and its
//! measured accuracy inside it.
//!
//! Fused streaming is approximate *only* when defects are expelled
//! past the trailing window boundary before their partners arrive.
//! These tests pin both sides of that line for all four decoder
//! families: windows (or overlaps) covering the whole shot are
//! bit-identical to batch decoding; defect chains straddling two or
//! more window boundaries keep the telescoping/provenance invariants
//! at every overlap; and seeded fused-vs-batch error-count deltas stay
//! inside a small bound at the realistic `fused(W, overlap)` settings
//! the benches run.

use ftqc_circuit::Circuit;
use ftqc_decoder::{
    count_batch_errors, count_batch_errors_streaming, Decoder, DecoderKind, DecoderScratch,
    DecodingGraph, StreamingConfig,
};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{batch_plan, sample_batch, DetectorErrorModel, RoundSchedule, RoundStream};
use ftqc_surface::MemoryConfig;

const TRAIN_SHOTS: usize = 5_000;
const CAPACITY_BYTES: usize = 64 * 1024;

fn kinds() -> [(&'static str, DecoderKind); 4] {
    [
        ("uf", DecoderKind::UnionFind),
        ("mwpm", DecoderKind::Mwpm),
        (
            "lut",
            DecoderKind::Lut {
                train_shots: TRAIN_SHOTS,
                capacity_bytes: CAPACITY_BYTES,
            },
        ),
        (
            "hierarchical",
            DecoderKind::Hierarchical {
                train_shots: TRAIN_SHOTS,
                capacity_bytes: CAPACITY_BYTES,
            },
        ),
    ]
}

fn memory_circuit(d: u32, p: f64) -> Circuit {
    let hw = HardwareConfig::ibm();
    CircuitNoiseModel::standard(p, &hw).apply(&MemoryConfig::new(d, d + 1, &hw).build())
}

/// Streams every sampled shot through a fused stream built from
/// `config` and asserts bit-identity with one batch decode per shot —
/// the exactness contract for configurations that never expel a defect
/// mid-shot.
fn assert_fused_matches_batch(
    circuit: &Circuit,
    decoder: &(impl Decoder + ?Sized),
    config: StreamingConfig,
    shots: usize,
    seed: u64,
    label: &str,
) {
    let schedule = RoundSchedule::from_circuit(circuit);
    let batch = sample_batch(circuit, shots, seed);
    let mut rounds = RoundStream::new(&schedule);
    let mut stream = config.build(decoder, &schedule);
    let mut scratch = DecoderScratch::for_decoder(decoder);
    rounds.begin_batch(&batch);
    let mut defects = Vec::new();
    let mut full = Vec::new();
    let mut busy_shots = 0u32;
    for s in 0..batch.shots {
        rounds.begin_shot(s);
        stream.begin_shot();
        while rounds.next_round_into(&batch, &mut defects).is_some() {
            stream.push_round(&defects);
        }
        let streamed = stream.finish_shot();
        batch.flagged_detectors_into(s, &mut full);
        if !full.is_empty() {
            busy_shots += 1;
        }
        let mut reference = 0u32;
        decoder.decode_into(&mut scratch, &full, &mut reference);
        assert_eq!(streamed, reference, "{label}: shot {s} diverged from batch");
    }
    assert!(busy_shots > 0, "{label}: want non-empty shots");
}

#[test]
fn fused_window_covering_the_shot_is_bit_identical_to_batch() {
    // W ≥ total rounds: nothing commits before the end-of-shot drain,
    // and flush commits never expel, so fusion degenerates to exact
    // mode — bit for bit, for every decoder family and any overlap.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let num_rounds = RoundSchedule::from_circuit(&circuit).num_rounds();
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        for (window, overlap) in [(num_rounds, 0), (num_rounds, 1), (num_rounds + 5, 0)] {
            assert_fused_matches_batch(
                &circuit,
                &decoder,
                StreamingConfig::fused(window, overlap),
                512,
                17,
                &format!("{name} fused W={window} overlap={overlap}"),
            );
        }
    }
}

#[test]
fn full_overlap_never_expels_even_with_a_one_round_window() {
    // The exactness boundary is about *expulsion*, not window size: a
    // W = 1 stream that retains `num_rounds` rounds of committed
    // context behind the boundary never expels anything mid-shot, so
    // it too must match batch decoding bit for bit — while its commits
    // visibly carry cross-boundary context in their provenance.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let num_rounds = schedule.num_rounds();
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        assert_fused_matches_batch(
            &circuit,
            &decoder,
            StreamingConfig::fused(1, num_rounds),
            512,
            19,
            &format!("{name} fused W=1 overlap={num_rounds}"),
        );
    }
    // Provenance: with defects in consecutive rounds, later commits
    // must report the carried boundary context.
    let decoder = DecoderKind::UnionFind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
    let mut stream = StreamingConfig::fused(1, num_rounds).build(&decoder, &schedule);
    stream.begin_shot();
    let mut carried = 0u32;
    for r in 0..num_rounds {
        let d = schedule.detectors_in(r).next().unwrap();
        let c = stream.push_round(&[d]).expect("W=1 commits each push");
        carried = carried.max(c.boundary_defects);
    }
    stream.finish_shot();
    assert!(
        carried > 0,
        "full-overlap commits must report carried context"
    );
}

#[test]
fn defect_chains_straddling_multiple_window_boundaries() {
    // One defect in every round — a chain straddling num_rounds - 1
    // window boundaries at W = 1. For every overlap the commits must
    // keep the streaming invariants (in-order commits, deltas
    // telescoping to the final correction, all rounds committed), and
    // overlap ≥ num_rounds - 1 retains the whole chain through the
    // last commit, which makes the result exactly the batch decode.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let num_rounds = schedule.num_rounds();
    assert!(num_rounds >= 3, "need a chain straddling 2+ boundaries");
    let chain: Vec<u32> = (0..num_rounds)
        .map(|r| schedule.detectors_in(r).next().unwrap())
        .collect();
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        for overlap in [0, 1, num_rounds - 1, num_rounds] {
            let label = format!("{name} W=1 overlap={overlap}");
            let mut stream = StreamingConfig::fused(1, overlap).build(&decoder, &schedule);
            stream.begin_shot();
            let mut commits = Vec::new();
            for (r, &d) in chain.iter().enumerate() {
                let c = stream.push_round(&[d]).expect("W=1 commits each push");
                assert_eq!(c.round, r as u32, "{label}: commit order");
                commits.push(c);
            }
            let streamed = stream.finish_shot();
            assert_eq!(
                stream.committed_rounds(),
                num_rounds,
                "{label}: all rounds commit"
            );
            let xor_all = commits.iter().fold(0u32, |acc, c| acc ^ c.correction);
            assert_eq!(xor_all, streamed, "{label}: straddling commits telescope");
            assert_eq!(
                commits.last().unwrap().cumulative,
                streamed,
                "{label}: cumulative tracks emitted"
            );
            if overlap == 0 {
                // Immediate expulsion: no commit may claim carried
                // context.
                assert!(
                    commits.iter().all(|c| c.boundary_defects == 0),
                    "{label}: overlap=0 commits must not carry context"
                );
            } else {
                // The chain keeps at least one committed-round defect
                // behind the boundary for later commits.
                assert!(
                    commits.iter().any(|c| c.boundary_defects > 0),
                    "{label}: overlap>0 must carry the chain across boundaries"
                );
            }
            if overlap >= num_rounds - 1 {
                assert_eq!(
                    streamed,
                    decoder.predict(&chain),
                    "{label}: chain fully retained must match batch"
                );
            }
        }
    }
}

#[test]
fn window_decodes_report_stitched_edges() {
    // Graph decoders materialize the round-sliced view; a mid-stream
    // window of a multi-round circuit necessarily cuts round-spanning
    // edges, and the commit that decoded it must say so. Table
    // decoders (LUT) never build a view, so their provenance stays 0.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let num_rounds = schedule.num_rounds();
    let chain: Vec<u32> = (0..num_rounds)
        .map(|r| schedule.detectors_in(r).next().unwrap())
        .collect();
    let run = |kind: DecoderKind| -> u32 {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        let mut stream = StreamingConfig::fused(1, 1).build(&decoder, &schedule);
        stream.begin_shot();
        let mut stitched = 0u32;
        for &d in &chain {
            stitched = stitched.max(stream.push_round(&[d]).unwrap().stitched_edges);
        }
        stream.finish_shot();
        stitched
    };
    assert!(
        run(DecoderKind::UnionFind) > 0,
        "UF window decodes must report cut edges"
    );
    assert_eq!(
        run(DecoderKind::Lut {
            train_shots: TRAIN_SHOTS,
            capacity_bytes: CAPACITY_BYTES,
        }),
        0,
        "table decoders never materialize a view"
    );
}

#[test]
fn seeded_fused_vs_batch_error_delta_is_bounded_per_family() {
    // The realistic setting the latency benches run: fused(2, 1) on a
    // d = 3 memory. Fusion may disagree with batch on shots whose
    // defect chains outrun the retained context, but the aggregate
    // error-count delta must stay small — and overlap = 1 (retaining
    // one committed round of context) must not do worse than twice the
    // divergence of overlap = 0 plus slack, on the same seeded shots.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let plan = batch_plan(4_000, 512);
    let shots = 4_000u64;
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        let batch: u64 = count_batch_errors(&circuit, &decoder, &plan, 2025, 2)
            .iter()
            .flatten()
            .sum();
        let fused_total = |config: StreamingConfig| -> u64 {
            count_batch_errors_streaming(&circuit, &decoder, config, &plan, 2025, 2)
                .iter()
                .flatten()
                .sum()
        };
        let fused = fused_total(StreamingConfig::fused(2, 1));
        let delta = fused.abs_diff(batch);
        // Bound: the fused LER delta stays within 50% of the batch
        // error count (plus an absolute floor for tiny counts). The
        // measured deltas are far below this; the bound exists to
        // catch stitching regressions, not to pin the noise.
        assert!(
            delta <= batch / 2 + 8,
            "{name}: fused(2,1) diverged from batch by {delta} ({fused} vs {batch} errors / {shots} shots)"
        );
        let fused_bare = fused_total(StreamingConfig::fused(2, 0));
        let delta_bare = fused_bare.abs_diff(batch);
        assert!(
            delta <= 2 * delta_bare + 8,
            "{name}: overlap=1 (delta {delta}) should not be far worse than overlap=0 (delta {delta_bare})"
        );
    }
}
