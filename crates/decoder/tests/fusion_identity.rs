//! Streaming contracts: windowed fusion's exactness boundary and its
//! measured accuracy inside it.
//!
//! Fused streaming is approximate *only* when a round commits before
//! the end of the shot: its correction edges are then final, and the
//! ones reaching later rounds hand those rounds artificial defects.
//! These tests pin both sides of that line for both graph decoder
//! families: windows covering the whole shot are bit-identical to
//! batch decoding; one-round windows and defect chains straddling two
//! or more window boundaries keep the telescoping/provenance
//! invariants at every overlap; every commit runs at most one decode;
//! and seeded fused-vs-batch error-count deltas stay inside a small
//! bound at the realistic `fused(W, overlap)` settings the benches run.

use ftqc_circuit::Circuit;
use ftqc_decoder::{
    count_batch_errors, count_batch_errors_streaming, Decoder, DecoderKind, DecoderScratch,
    DecodingGraph, StreamingConfig,
};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{batch_plan, sample_batch, DetectorErrorModel, RoundSchedule, RoundStream};
use ftqc_surface::MemoryConfig;

fn kinds() -> [(&'static str, DecoderKind); 2] {
    [("uf", DecoderKind::UnionFind), ("mwpm", DecoderKind::Mwpm)]
}

fn memory_circuit(d: u32, p: f64) -> Circuit {
    let hw = HardwareConfig::ibm();
    CircuitNoiseModel::standard(p, &hw).apply(&MemoryConfig::new(d, d + 1, &hw).build())
}

/// Streams every sampled shot through a fused stream built from
/// `config` and asserts bit-identity with one batch decode per shot —
/// the exactness contract for configurations that commit nothing
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
    let mut busy_shots = 0u32;
    for s in 0..batch.shots {
        rounds.begin_shot(s);
        stream.begin_shot();
        while rounds.next_round_into(&batch, &mut defects).is_some() {
            stream.push_round(&defects);
        }
        let streamed = stream.finish_shot();
        let full = batch.flagged_detectors(s);
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
    // and flush commits never expel, so fusion degenerates to one
    // batch decode — bit for bit, for every decoder family and any
    // overlap.
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
fn one_round_window_commits_forward_under_full_overlap() {
    // W = 1 commits every round on arrival, so a graph decoder must
    // finalize each round's correction edges at once and hand the ones
    // reaching the next round to it as artificial defects; a full
    // overlap only keeps the committed rounds in the view as context.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let num_rounds = schedule.num_rounds();
    let config = StreamingConfig::fused(1, num_rounds);
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        let label = format!("{name} fused W=1 overlap={num_rounds}");
        // Every push commits its own round, the last commit leaves
        // nothing to carry, and the commits telescope.
        let batch = sample_batch(&circuit, 512, 19);
        let mut rounds = RoundStream::new(&schedule);
        let mut stream = config.build(&decoder, &schedule);
        let mut defects = Vec::new();
        let mut carried = 0u32;
        rounds.begin_batch(&batch);
        for s in 0..batch.shots {
            rounds.begin_shot(s);
            stream.begin_shot();
            let mut xor_all = 0u32;
            let mut last = None;
            while let Some(r) = rounds.next_round_into(&batch, &mut defects) {
                let c = stream.push_round(&defects).expect("W=1 commits each push");
                assert_eq!(c.round, r, "{label}: shot {s} commits its own round");
                xor_all ^= c.correction;
                carried += c.boundary_defects;
                last = Some(c);
            }
            assert!(stream.flush_round().is_none(), "{label}: nothing pending");
            let last = last.expect("rounds");
            assert_eq!(last.boundary_defects, 0, "{label}: shot {s} left defects");
            assert_eq!(
                stream.finish_shot(),
                xor_all,
                "{label}: shot {s} telescopes"
            );
        }
        assert!(
            carried > 0,
            "{label}: W=1 commits must carry defects forward"
        );
    }
}

#[test]
fn defect_chains_straddling_multiple_window_boundaries() {
    // One defect in every round — a chain straddling num_rounds - 1
    // window boundaries at W = 1. For every overlap the commits must
    // keep the streaming invariants: in-order commits, deltas
    // telescoping to the final correction, all rounds committed, and
    // `boundary_defects` counting the artificial defects each commit
    // carries forward — some, and none after the last round.
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
            assert_eq!(
                commits.last().unwrap().boundary_defects,
                0,
                "{label}: the last round carries nothing forward"
            );
            assert!(
                commits.iter().any(|c| c.boundary_defects > 0),
                "{label}: the chain must be carried across boundaries"
            );
        }
    }
}

#[test]
fn fused_commits_decode_at_most_once() {
    // The forward-window commit decodes the window once, and not at
    // all while no new defect arrived: no push or flush may run two
    // inner decodes.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let batch = sample_batch(&circuit, 256, 23);
    let mut rounds = RoundStream::new(&schedule);
    let mut defects = Vec::new();
    for (name, kind) in [("uf", DecoderKind::UnionFind), ("mwpm", DecoderKind::Mwpm)] {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        for (window, overlap) in [(1, 0), (2, 1), (3, 2)] {
            let label = format!("{name} fused W={window} overlap={overlap}");
            let mut stream = StreamingConfig::fused(window, overlap).build(&decoder, &schedule);
            let mut commits = 0u64;
            rounds.begin_batch(&batch);
            for s in 0..batch.shots {
                rounds.begin_shot(s);
                stream.begin_shot();
                loop {
                    let before = stream.decode_count();
                    let commit = match rounds.next_round_into(&batch, &mut defects) {
                        Some(_) => stream.push_round(&defects),
                        None => match stream.flush_round() {
                            Some(c) => Some(c),
                            None => break,
                        },
                    };
                    let ran = stream.decode_count() - before;
                    assert!(ran <= 1, "{label}: shot {s} ran {ran} decodes in one event");
                    commits += u64::from(commit.is_some());
                }
                stream.finish_shot();
            }
            assert!(
                stream.decode_count() > 0 && stream.decode_count() <= commits,
                "{label}: {} decodes over {commits} commits",
                stream.decode_count()
            );
        }
    }
}

#[test]
fn window_decodes_report_stitched_edges() {
    // A mid-stream window of a multi-round circuit necessarily cuts
    // round-spanning edges, and the commit that decoded it must say
    // so.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let num_rounds = schedule.num_rounds();
    let chain: Vec<u32> = (0..num_rounds)
        .map(|r| schedule.detectors_in(r).next().unwrap())
        .collect();
    let decoder = DecoderKind::UnionFind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
    let mut stream = StreamingConfig::fused(1, 1).build(&decoder, &schedule);
    stream.begin_shot();
    let mut stitched = 0u32;
    for &d in &chain {
        stitched = stitched.max(stream.push_round(&[d]).unwrap().stitched_edges);
    }
    stream.finish_shot();
    assert!(stitched > 0, "UF window decodes must report cut edges");
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
