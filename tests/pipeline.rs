//! Acceptance tests for the unified `EvalPipeline` / `DecoderKind`
//! layer: every decoder family must beat guessing through the pipeline,
//! and pipeline results must be bit-identical to the hand-rolled chain
//! (`count_batch_errors` over the whole batch plan, summed per
//! observable) for a fixed seed.

use ftqc::decoder::{
    count_batch_errors, Decoder, DecoderKind, DecodingGraph, LutDecoder, MwpmDecoder, UfDecoder,
};
use ftqc::experiments::EvalPipeline;
use ftqc::noise::{CircuitNoiseModel, HardwareConfig};
use ftqc::sim::{batch_plan, DetectorErrorModel, StopReason, StopRule};
use ftqc::surface::MemoryConfig;

fn d3_memory() -> MemoryConfig {
    MemoryConfig::new(3, 4, &HardwareConfig::ibm())
}

#[test]
fn all_four_kinds_decode_d3_memory_below_guessing() {
    // A memory circuit stores one observable; guessing scores 50%.
    // Every decoder family must do far better through the pipeline.
    let pipeline = EvalPipeline::memory(d3_memory())
        .physical_error(1e-3)
        .shots(4_000)
        .batch_shots(512)
        .seed(3)
        .threads(2)
        .build();
    for kind in [
        DecoderKind::UnionFind,
        DecoderKind::Mwpm,
        DecoderKind::lut(),
        DecoderKind::hierarchical(),
    ] {
        let ler = pipeline.run_with(kind);
        assert_eq!(ler.len(), 1);
        assert!(
            ler[0].rate() < 0.1,
            "{kind} decodes far below the 50% guess rate, got {}",
            ler[0]
        );
    }
}

#[test]
fn pipeline_is_bit_identical_to_the_direct_chain() {
    // The chain spelled out step by step, down to one
    // `count_batch_errors` call over the whole plan. 3,000 shots at 512
    // end in a partial batch.
    let cfg = d3_memory();
    let circuit = CircuitNoiseModel::standard(1e-3, &cfg.hardware).apply(&cfg.build());
    let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
    let graph = DecodingGraph::from_dem(&dem);
    let (shots, batch, seed, threads) = (3_000u64, 512usize, 41u64, 2usize);
    let plan = batch_plan(shots, batch);
    // Per-observable failure counts, summed over the plan's batches.
    let direct_failures = |decoder: &dyn Decoder| -> Vec<u64> {
        let per_batch = count_batch_errors(&circuit, &decoder, &plan, seed, threads);
        (0..circuit.num_observables() as usize)
            .map(|o| per_batch.iter().map(|b| b[o]).sum())
            .collect()
    };

    let direct: Vec<(&str, Vec<u64>)> = vec![
        (
            "union-find",
            direct_failures(&UfDecoder::new(graph.clone())),
        ),
        ("mwpm", direct_failures(&MwpmDecoder::new(graph.clone()))),
        (
            "lut",
            direct_failures(&LutDecoder::train(&circuit, 20_000, seed, 3 * 1024)),
        ),
    ];

    let pipeline = EvalPipeline::memory(cfg)
        .shots(shots)
        .batch_shots(batch)
        .seed(seed)
        .threads(threads)
        .build();
    for (name, direct_failures) in direct {
        let kind = match name {
            "union-find" => DecoderKind::UnionFind,
            "mwpm" => DecoderKind::Mwpm,
            _ => DecoderKind::lut(),
        };
        let pipeline_ler = pipeline.run_with(kind);
        assert_eq!(direct_failures.len(), pipeline_ler.len());
        for (obs, (&d, p)) in direct_failures.iter().zip(&pipeline_ler).enumerate() {
            assert_eq!(
                d,
                p.successes(),
                "{name}, observable {obs}: direct {d} vs pipeline {p}"
            );
            assert_eq!(p.trials(), shots);
        }
        if kind == pipeline.decoder_kind() {
            // `run` and a ceiling-only `run_adaptive` of the same shot
            // count are the same loop: identical to the reference too.
            assert_eq!(pipeline.run(), pipeline_ler);
            let ceiling = pipeline.run_adaptive(&StopRule::max_shots(shots));
            assert_eq!(ceiling.reason, StopReason::ShotCeiling);
            assert_eq!(ceiling.shots(), shots);
            assert_eq!(ceiling.estimates(), pipeline_ler);
        }
    }
}

#[test]
fn pipeline_results_are_thread_count_invariant() {
    let run = |threads: usize| {
        EvalPipeline::memory(d3_memory())
            .shots(2_000)
            .batch_shots(256)
            .seed(42)
            .threads(threads)
            .build()
            .run()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one[0].successes(), four[0].successes());
}
