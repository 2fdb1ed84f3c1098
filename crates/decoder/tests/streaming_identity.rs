//! Streaming contracts of the sliding-window decoder.
//!
//! At every window and overlap, commits arrive once per round, in
//! order, and their deltas telescope to the shot's correction. That
//! correction is bit-identical to the batch decode of the full
//! syndrome when the window covers the shot. These tests pin both over
//! thousands of sampled shots for both graph decoders, exercise the
//! window edge cases (W = 1, W ≥ total rounds), defects straddling a
//! commit boundary, rounds arriving below held defects, the decode
//! counts of defect-free rounds and zero-round shots, check that a
//! surgery circuit's multi-run rounds concatenate to the batch
//! syndrome as a sorted set, check that the parallel driver
//! (`count_batch_errors_streaming`) is invariant to thread count and
//! matches `count_batch_errors` where streaming is exact, and that
//! table decoders, which have no correction edges, are rejected.

use ftqc_circuit::Circuit;
use ftqc_decoder::{
    count_batch_errors, count_batch_errors_streaming, Decoder, DecoderKind, DecoderScratch,
    DecodingGraph, StreamingConfig, NO_NODE,
};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{batch_plan, sample_batch, DetectorErrorModel, RoundSchedule, RoundStream};
use ftqc_surface::{LatticeSurgeryConfig, MemoryConfig};

fn kinds() -> [(&'static str, DecoderKind); 2] {
    [("uf", DecoderKind::UnionFind), ("mwpm", DecoderKind::Mwpm)]
}

fn memory_circuit(d: u32, p: f64) -> Circuit {
    let hw = HardwareConfig::ibm();
    CircuitNoiseModel::standard(p, &hw).apply(&MemoryConfig::new(d, d + 1, &hw).build())
}

/// Streams every shot of a sampled batch through a `fused(window, 1)`
/// stream and asserts the telescoping invariants on the commits. When
/// `identical`, it also asserts each shot's finished correction is
/// bit-identical to one batch `decode_into` of the full syndrome.
fn assert_stream_matches_batch(
    circuit: &Circuit,
    decoder: &(impl Decoder + ?Sized),
    window: u32,
    identical: bool,
    shots: usize,
    seed: u64,
    label: &str,
) {
    let schedule = RoundSchedule::from_circuit(circuit);
    let batch = sample_batch(circuit, shots, seed);
    let mut rounds = RoundStream::new(&schedule);
    let mut stream = StreamingConfig::fused(window, 1).build(decoder, &schedule);
    let mut scratch = DecoderScratch::for_decoder(decoder);
    rounds.begin_batch(&batch);
    let mut defects = Vec::new();
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

        let full = batch.flagged_detectors(s);
        if full.is_empty() {
            empty_shots += 1;
        } else {
            busy_shots += 1;
        }
        if identical {
            let mut reference = 0u32;
            decoder.decode_into(&mut scratch, &full, &mut reference);
            assert_eq!(streamed, reference, "{label}: shot {s} diverged from batch");
        }
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
            let identical = window >= num_rounds;
            // 3 × 512 = 1 536 randomized syndromes per (kind, window).
            for seed in [11, 12, 13] {
                assert_stream_matches_batch(
                    &circuit, &decoder, window, identical, 512, seed, &label,
                );
            }
        }
    }
}

#[test]
fn streaming_matches_batch_at_distance_five() {
    let circuit = memory_circuit(5, 2e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let decoder = DecoderKind::UnionFind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
    let num_rounds = RoundSchedule::from_circuit(&circuit).num_rounds();
    for window in [1, 3, num_rounds] {
        assert_stream_matches_batch(
            &circuit,
            &decoder,
            window,
            window >= num_rounds,
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
    let mut stream =
        StreamingConfig::fused(schedule.num_rounds() + 3, 0).build(&decoder, &schedule);
    rounds.begin_batch(&batch);
    // A shot with no pushed rounds decodes nothing and predicts no flip.
    stream.begin_shot();
    assert_eq!(
        stream.finish_shot(),
        0,
        "a zero-round shot predicts no flip"
    );
    assert_eq!(
        stream.decode_count(),
        0,
        "a zero-round shot decodes nothing"
    );
    let mut defects = Vec::new();
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
        let full = batch.flagged_detectors(s);
        let expected = if full.is_empty() {
            0 // nothing pending
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
fn quiet_rounds_decode_nothing_and_carried_rounds_at_most_once() {
    // W = 1 commits every round on arrival; rounds that add no defects
    // must not invoke the decoder at all, and neither may a zero-round
    // shot.
    // With no overlap, a round's window is decoded exactly when its
    // defects are non-empty, unless the
    // previous commit carried artificial defects into the rounds ahead:
    // they may cancel real ones or stand alone, so that round runs at
    // most one decode.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let batch = sample_batch(&circuit, 512, 47);
    let mut rounds = RoundStream::new(&schedule);
    let mut defects = Vec::new();
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        let mut stream = StreamingConfig::fused(1, 0).build(&decoder, &schedule);
        stream.begin_shot();
        assert_eq!(
            stream.finish_shot(),
            0,
            "{name}: a zero-round shot predicts no flip"
        );
        assert_eq!(
            stream.decode_count(),
            0,
            "{name}: a zero-round shot decodes nothing"
        );
        rounds.begin_batch(&batch);
        let (mut empty_shots, mut partial_shots, mut carried_rounds) = (0u32, 0u32, 0u32);
        for s in 0..batch.shots {
            rounds.begin_shot(s);
            stream.begin_shot();
            let mut dirty_rounds = 0u64;
            let mut carried = 0u32;
            while rounds.next_round_into(&batch, &mut defects).is_some() {
                let dirty = !defects.is_empty();
                dirty_rounds += u64::from(dirty);
                let before = stream.decode_count();
                let commit = stream.push_round(&defects).expect("W=1 commits each push");
                let spent = stream.decode_count() - before;
                if carried == 0 {
                    assert_eq!(
                        spent,
                        u64::from(dirty),
                        "{name} shot {s} round {}: {spent} decodes",
                        commit.round
                    );
                } else {
                    carried_rounds += 1;
                    assert!(spent <= 1, "{name} shot {s}: {spent} decodes in one round");
                }
                carried = commit.boundary_defects;
            }
            let before = stream.decode_count();
            stream.finish_shot();
            assert_eq!(
                stream.decode_count(),
                before,
                "{name}: nothing left to decode"
            );
            if dirty_rounds == 0 {
                empty_shots += 1;
            } else if dirty_rounds < schedule.num_rounds() as u64 {
                partial_shots += 1;
            }
        }
        assert!(
            empty_shots > 0 && partial_shots > 0,
            "{name}: want empty ({empty_shots}) and partially-empty ({partial_shots}) shots"
        );
        assert!(carried_rounds > 0, "{name}: W=1 carries defects forward");
    }

    // A wider window keeps the edges of a decode that no commit has
    // taken yet, and a quiet round leaves them valid: a defect pair
    // joined by an edge inside round 1, streamed at W = 3, costs one
    // decode at the commit of round 0 and none at the commit of round
    // 1, which takes the kept edge.
    let graph = DecodingGraph::from_dem(&dem);
    let round_1 = |d: u32| schedule.round_of(d) == 1;
    let pair = graph
        .records()
        .iter()
        .find(|r| round_1(r.u) && r.v != NO_NODE && round_1(r.v))
        .expect("an edge inside round 1");
    for kind in [DecoderKind::UnionFind, DecoderKind::Mwpm] {
        let decoder = kind.build(&circuit, graph.clone(), 2025);
        let mut stream = StreamingConfig::fused(3, 1).build(&decoder, &schedule);
        stream.begin_shot();
        for r in 0..schedule.num_rounds() {
            let defects: &[u32] = if r == 1 { &[pair.u, pair.v] } else { &[] };
            stream.push_round(defects);
        }
        stream.finish_shot();
        assert_eq!(
            stream.decode_count(),
            1,
            "{kind:?}: the kept edge is reused"
        );
    }
}

#[test]
fn defects_straddling_a_commit_boundary() {
    // A defect pair split across rounds r and r+1: with W = 1, round r
    // is finalized before its partner arrives, so the commit of r+1
    // must carry the fix-up. For every kind the commits telescope to
    // the shot's correction and the last commit carries nothing
    // forward.
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
            let mut stream = StreamingConfig::fused(1, 1).build(&decoder, &schedule);
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
            let xor_all = commits.iter().fold(0u32, |acc, c| acc ^ c.correction);
            assert_eq!(xor_all, streamed, "{name}: straddling commits telescope");
            assert_eq!(
                commits.last().unwrap().boundary_defects,
                0,
                "{name}: the last round carries nothing forward"
            );
        }
    }
}

#[test]
fn out_of_order_round_indices_are_resorted() {
    // RoundSchedule tolerates interleaved detector numbering; the
    // streaming decoder must accept rounds whose indices are not
    // globally ascending — the pending set re-sorts through
    // `cancel_pairs` — and, with a window covering the shot, still
    // match the batch decode. Every sampled shot is pushed last round
    // first.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let num_rounds = schedule.num_rounds();
    let batch = sample_batch(&circuit, 512, 53);
    let mut rounds = RoundStream::new(&schedule);
    let mut per_round = vec![Vec::new(); num_rounds as usize];
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        let mut stream = StreamingConfig::fused(num_rounds, 0).build(&decoder, &schedule);
        let mut telling_shots = 0u32;
        rounds.begin_batch(&batch);
        for s in 0..batch.shots {
            rounds.begin_shot(s);
            for defects in &mut per_round {
                rounds.next_round_into(&batch, defects).expect("a round");
            }
            stream.begin_shot();
            for defects in per_round.iter().rev() {
                stream.push_round(defects);
            }
            let full = batch.flagged_detectors(s);
            let expected = decoder.predict(&full);
            assert_eq!(stream.finish_shot(), expected, "{name}: shot {s}");
            let dirty_rounds = per_round.iter().filter(|d| !d.is_empty()).count();
            telling_shots += u32::from(expected != 0 && dirty_rounds > 1);
        }
        assert!(telling_shots > 0, "{name}: no shot whose order matters");
    }
}

#[test]
fn surgery_rounds_span_several_runs_and_concatenate_to_the_batch_set() {
    // Patch P' restarts its round tag at 0, so on a surgery circuit a
    // round holds detectors of both patches: several index runs. Its
    // concatenated rounds then equal the batch extraction as a sorted
    // set, not in order.
    let hw = HardwareConfig::ibm();
    let circuit =
        CircuitNoiseModel::standard(5e-3, &hw).apply(&LatticeSurgeryConfig::new(3, &hw).build());
    let schedule = RoundSchedule::from_circuit(&circuit);
    let multi_run = (0..schedule.num_rounds())
        .filter(|&r| schedule.runs_in(r).len() > 1)
        .count();
    assert!(multi_run > 0, "no surgery round spans more than one run");
    let batch = sample_batch(&circuit, 256, 7);
    let mut rounds = RoundStream::new(&schedule);
    let (mut defects, mut concatenated) = (Vec::new(), Vec::new());
    let mut out_of_order = 0u32;
    rounds.begin_batch(&batch);
    for s in 0..batch.shots {
        rounds.begin_shot(s);
        concatenated.clear();
        while rounds.next_round_into(&batch, &mut defects).is_some() {
            concatenated.extend_from_slice(&defects);
        }
        let full = batch.flagged_detectors(s);
        out_of_order += u32::from(concatenated != full);
        concatenated.sort_unstable();
        assert_eq!(concatenated, full, "shot {s}");
    }
    assert!(
        out_of_order > 0,
        "no shot whose rounds arrive out of index order"
    );
}

#[test]
fn parallel_streaming_driver_matches_batch_driver() {
    // The driver's counts do not depend on the thread count at any
    // window, and equal the batch driver's where streaming is exact:
    // when the window covers the shot.
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let num_rounds = RoundSchedule::from_circuit(&circuit).num_rounds();
    let plan = batch_plan(2_000, 512);
    for (name, kind) in kinds() {
        let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
        let batch = count_batch_errors(&circuit, &decoder, &plan, 2025, 2);
        for window in [1, 4, num_rounds] {
            let config = StreamingConfig::fused(window, 1);
            let streamed = count_batch_errors_streaming(&circuit, &decoder, config, &plan, 2025, 2);
            for threads in [1, 3] {
                assert_eq!(
                    count_batch_errors_streaming(&circuit, &decoder, config, &plan, 2025, threads),
                    streamed,
                    "{name} W={window}: {threads} threads"
                );
            }
            if window >= num_rounds {
                assert_eq!(streamed, batch, "{name} W={window}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "window must be at least one round")]
fn zero_window_is_rejected() {
    let _ = StreamingConfig::fused(0, 1);
}

#[test]
#[should_panic(expected = "streaming needs a decoder with a decoding graph \
                           (table decoders decline `decode_window_into`)")]
fn lut_stream_is_rejected() {
    build_table_stream(DecoderKind::lut());
}

#[test]
#[should_panic(expected = "streaming needs a decoder with a decoding graph \
                           (table decoders decline `decode_window_into`)")]
fn hierarchical_stream_is_rejected() {
    build_table_stream(DecoderKind::hierarchical());
}

/// Builds a `fused(2, 1)` stream over a table decoder of `kind`, which
/// has no correction edges to commit.
fn build_table_stream(kind: DecoderKind) {
    let circuit = memory_circuit(3, 3e-3);
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let decoder = kind.build(&circuit, DecodingGraph::from_dem(&dem), 2025);
    let schedule = RoundSchedule::from_circuit(&circuit);
    let _ = StreamingConfig::fused(2, 1).build(&decoder, &schedule);
}
