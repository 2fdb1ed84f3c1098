//! Streaming ≡ batch bit-identity for the sliding-window decoder.
//!
//! The streaming layer's contract is that committed corrections
//! telescope to exactly the batch decode of the full syndrome, for any
//! decoder kind and any window size. These tests pin that over
//! thousands of sampled shots for all four kinds, exercise the window
//! edge cases (W = 1, W ≥ total rounds), defects straddling a commit
//! boundary, and the interaction of defect-free rounds with the
//! memoized empty-syndrome fast path, and check the parallel driver
//! (`count_batch_errors_streaming`) against `count_batch_errors`.

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

/// Streams every shot of a sampled batch through `stream` and asserts
/// each shot's finished correction is bit-identical to one batch
/// `decode_into` of the full syndrome — plus the telescoping
/// invariants on the commits themselves.
fn assert_stream_matches_batch(
    circuit: &Circuit,
    decoder: &(impl Decoder + ?Sized),
    window: u32,
    shots: usize,
    seed: u64,
    label: &str,
) {
    let schedule = RoundSchedule::from_circuit(circuit);
    let batch = sample_batch(circuit, shots, seed);
    let mut rounds = RoundStream::new(&schedule);
    let mut stream = StreamingConfig::exact(window).build(decoder, &schedule);
    let mut scratch = DecoderScratch::for_decoder(decoder);
    rounds.begin_batch(&batch);
    let mut defects = Vec::new();
    let mut full = Vec::new();
    let (mut empty_shots, mut busy_shots) = (0u32, 0u32);
    for s in 0..batch.shots {
        rounds.begin_shot(s);
        stream.begin_shot();
        let mut commits = Vec::new();
        while rounds.next_round_into(&batch, &mut defects).is_some() {
            assert!(
                stream.pending_rounds() < window,
                "{label}: window overfull before push"
            );
            if let Some(c) = stream.push_round(&defects) {
                commits.push(c);
            }
        }
        // Drain the tail by hand so every commit is captured, then
        // finish (now a no-op flush plus the final correction).
        while let Some(c) = stream.flush_round() {
            commits.push(c);
        }
        let streamed = stream.finish_shot();
        // Commit metadata: rounds commit exactly once, in order, and
        // deltas telescope to the final correction.
        for (i, c) in commits.iter().enumerate() {
            assert_eq!(c.round, i as u32, "{label}: commit order");
        }
        assert_eq!(
            stream.committed_rounds(),
            schedule.num_rounds(),
            "{label}: all rounds commit"
        );
        let xor_all = commits.iter().fold(0u32, |acc, c| acc ^ c.correction);
        assert_eq!(xor_all, stream.correction_so_far(), "{label}: telescoping");
        assert_eq!(streamed, stream.correction_so_far(), "{label}: finish");

        batch.flagged_detectors_into(s, &mut full);
        if full.is_empty() {
            empty_shots += 1;
        } else {
            busy_shots += 1;
        }
        let mut reference = 0u32;
        decoder.decode_into(&mut scratch, &full, &mut reference);
        assert_eq!(streamed, reference, "{label}: shot {s} diverged from batch");
    }
    assert!(
        empty_shots > 0 && busy_shots > 0,
        "{label}: want both empty ({empty_shots}) and non-empty ({busy_shots}) shots"
    );
}

#[test]
fn streaming_matches_batch_for_all_kinds_and_windows() {
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let num_rounds = RoundSchedule::from_circuit(&circuit).num_rounds();
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        for window in [1, 2, 3, num_rounds, num_rounds + 5] {
            let label = format!("{name} W={window}");
            // 3 × 512 = 1 536 randomized syndromes per (kind, window).
            for seed in [11, 12, 13] {
                assert_stream_matches_batch(&circuit, &decoder, window, 512, seed, &label);
            }
        }
    }
}

#[test]
fn streaming_matches_batch_at_distance_five() {
    let circuit = memory_circuit(5, 2e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let decoder = DecoderKind::UnionFind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
    for window in [1, 3] {
        assert_stream_matches_batch(
            &circuit,
            &decoder,
            window,
            1024,
            29,
            &format!("uf5 W={window}"),
        );
    }
}

#[test]
fn window_at_least_total_rounds_degenerates_to_batch() {
    // With W ≥ total rounds nothing commits until finish_shot, which
    // must then invoke the inner decoder exactly once for a non-empty
    // shot — literally batch decoding with extra bookkeeping.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let decoder = DecoderKind::UnionFind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let batch = sample_batch(&circuit, 256, 41);
    let mut rounds = RoundStream::new(&schedule);
    let mut stream = StreamingConfig::exact(schedule.num_rounds() + 3).build(&decoder, &schedule);
    rounds.begin_batch(&batch);
    // Prime the (per-stream, cross-shot) empty-syndrome memo with one
    // defect-free shot so the counts below are exact.
    stream.begin_shot();
    stream.finish_shot();
    assert_eq!(
        stream.decode_count(),
        1,
        "priming costs the one memo decode"
    );
    let mut defects = Vec::new();
    let mut full = Vec::new();
    let mut saw_busy = false;
    for s in 0..batch.shots {
        rounds.begin_shot(s);
        stream.begin_shot();
        let before = stream.decode_count();
        while rounds.next_round_into(&batch, &mut defects).is_some() {
            assert_eq!(
                stream.push_round(&defects),
                None,
                "nothing may commit inside an oversized window"
            );
        }
        assert_eq!(stream.decode_count(), before, "no decode before finish");
        stream.finish_shot();
        batch.flagged_detectors_into(s, &mut full);
        let expected = if full.is_empty() {
            0 // memoized
        } else {
            saw_busy = true;
            1
        };
        assert_eq!(
            stream.decode_count() - before,
            expected,
            "shot {s}: exactly one decode per non-empty shot"
        );
    }
    assert!(saw_busy);
}

#[test]
fn empty_rounds_ride_the_memoized_fast_path() {
    // W = 1 commits every round on arrival; rounds that add no defects
    // must not invoke the decoder at all, and a fully-empty shot must
    // reuse the one memoized empty-syndrome decode from prior shots.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let decoder = DecoderKind::UnionFind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let batch = sample_batch(&circuit, 512, 47);
    let mut rounds = RoundStream::new(&schedule);
    let mut stream = StreamingConfig::exact(1).build(&decoder, &schedule);
    rounds.begin_batch(&batch);
    // Prime the empty-syndrome memo so the counts below are exact.
    stream.begin_shot();
    stream.finish_shot();
    assert_eq!(stream.decode_count(), 1);
    let mut defects = Vec::new();
    let (mut empty_shots, mut partial_shots) = (0u32, 0u32);
    for s in 0..batch.shots {
        rounds.begin_shot(s);
        stream.begin_shot();
        let before = stream.decode_count();
        let mut dirty_rounds = 0u64;
        while rounds.next_round_into(&batch, &mut defects).is_some() {
            if !defects.is_empty() {
                dirty_rounds += 1;
            }
            stream.push_round(&defects);
        }
        stream.finish_shot();
        let spent = stream.decode_count() - before;
        if dirty_rounds == 0 {
            empty_shots += 1;
        } else if dirty_rounds < schedule.num_rounds() as u64 {
            partial_shots += 1;
        }
        // Exactly one decode per round that changed the syndrome:
        // defect-free rounds (and fully-empty shots) commit by pure
        // XOR against the memoized empty prediction.
        assert_eq!(
            spent, dirty_rounds,
            "shot {s}: {spent} decodes for {dirty_rounds} dirty rounds"
        );
    }
    assert!(
        empty_shots > 0 && partial_shots > 0,
        "want empty ({empty_shots}) and partially-empty ({partial_shots}) shots"
    );
}

#[test]
fn defects_straddling_a_commit_boundary() {
    // A matched defect pair split across rounds r and r+1: with W = 1,
    // round r is finalized before its partner arrives, so the commit
    // of r+1 must carry the fix-up delta. The telescoped result must
    // still equal the batch decode, and the two commits must differ
    // whenever the pair flips the prefix decode's prediction.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let schedule = RoundSchedule::from_circuit(&circuit);
    assert!(schedule.num_rounds() >= 3);
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        for r in 0..schedule.num_rounds() - 1 {
            // Last detector of round r and first of round r+1 — a
            // syndrome whose two halves live on opposite sides of the
            // commit boundary between r and r+1.
            let a = schedule.detectors_in(r).last().unwrap();
            let b = schedule.detectors_in(r + 1).next().unwrap();
            let mut stream = StreamingConfig::exact(1).build(&decoder, &schedule);
            stream.begin_shot();
            let mut commits = Vec::new();
            for round in 0..schedule.num_rounds() {
                let defects: Vec<u32> = [a, b]
                    .iter()
                    .copied()
                    .filter(|&d| schedule.round_of(d) == round)
                    .collect();
                commits.push(stream.push_round(&defects).expect("W=1 commits each push"));
            }
            let streamed = stream.finish_shot();
            assert_eq!(
                streamed,
                decoder.predict(&[a, b]),
                "{name} rounds {r},{}",
                r + 1
            );
            let xor_all = commits.iter().fold(0u32, |acc, c| acc ^ c.correction);
            assert_eq!(xor_all, streamed, "{name}: straddling commits telescope");
            // The commit of round r saw only the prefix decode [a].
            assert_eq!(
                commits[r as usize].cumulative,
                decoder.predict(&[a]),
                "{name}: early commit is the prefix decode"
            );
        }
    }
}

#[test]
fn out_of_order_round_indices_are_resorted() {
    // RoundSchedule tolerates interleaved detector numbering; the
    // streaming decoder must accept rounds whose indices are not
    // globally ascending and still match the batch decode of the
    // sorted union.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let decoder = DecoderKind::Mwpm.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let n = schedule.num_detectors();
    // "Round 0" carries high indices, "round 1" low ones.
    let (hi, lo) = ([n - 2, n - 1], [0u32, 1]);
    let mut stream = StreamingConfig::exact(2).build(&decoder, &schedule);
    stream.begin_shot();
    stream.push_round(&hi);
    stream.push_round(&lo);
    let mut union: Vec<u32> = hi.iter().chain(lo.iter()).copied().collect();
    union.sort_unstable();
    assert_eq!(stream.finish_shot(), decoder.predict(&union));
}

#[test]
fn parallel_streaming_driver_matches_batch_driver() {
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let plan = batch_plan(2_000, 512);
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        let batch = count_batch_errors(&circuit, &decoder, &plan, 2025, 2);
        for window in [1, 4] {
            let streamed = count_batch_errors_streaming(
                &circuit,
                &decoder,
                StreamingConfig::exact(window),
                &plan,
                2025,
                2,
            );
            assert_eq!(streamed, batch, "{name} W={window}");
        }
    }
}

#[test]
#[should_panic(expected = "window must be at least one round")]
fn zero_window_is_rejected() {
    let _ = StreamingConfig::exact(0);
}
