//! Stream a surface-code memory shot round by round through the
//! sliding-window decoder, printing each commit as it is finalized,
//! then verify the whole batch: exact-mode streaming with any window
//! is bit-identical to batch decoding (the telescoping-delta guarantee
//! behind `StreamingDecoder`), while fused mode decodes only the
//! uncommitted rounds — O(window) per round — and commits the
//! correction edges that reach each finalized round, at a small,
//! measured accuracy delta.
//!
//! ```text
//! cargo run --release --example streaming_decode
//! ```

use ftqc::decoder::{
    count_batch_errors, count_batch_errors_streaming, DecoderKind, StreamingConfig,
};
use ftqc::experiments::EvalPipeline;
use ftqc::noise::HardwareConfig;
use ftqc::sim::{batch_plan, sample_batch, RoundSchedule, RoundStream};
use ftqc::surface::MemoryConfig;

fn main() {
    let hw = HardwareConfig::ibm();
    let d = 3;
    let pipeline = EvalPipeline::memory(MemoryConfig::new(d, d + 1, &hw))
        .physical_error(3e-3)
        .decoder(DecoderKind::UnionFind)
        .seed(5)
        .build();
    let decoder = pipeline.decoder();
    let schedule = RoundSchedule::from_circuit(pipeline.circuit());
    println!(
        "d = {d} memory: {} detectors across {} rounds (largest round: {} detectors)\n",
        schedule.num_detectors(),
        schedule.num_rounds(),
        schedule.max_round_len(),
    );

    // --- One shot, narrated: window W = 2 finalizes round r when
    // round r + 1 arrives.
    let batch = sample_batch(pipeline.circuit(), 64, 5);
    let shot = (0..batch.shots)
        .find(|&s| batch.hamming_weight(s) >= 2)
        .expect("a shot with defects");
    let mut rounds = RoundStream::new(&schedule);
    let mut stream = StreamingConfig::exact(2).build(decoder, &schedule);
    rounds.begin_batch(&batch);
    rounds.begin_shot(shot);
    stream.begin_shot();
    let mut defects = Vec::new();
    println!("shot {shot}, window W = {}:", stream.window());
    while let Some(r) = rounds.next_round_into(&batch, &mut defects) {
        print!("  round {r} arrives ({} defects)", defects.len());
        match stream.push_round(&defects) {
            Some(c) => println!(
                " -> commit round {} (delta {:#04b}, cumulative {:#04b})",
                c.round, c.correction, c.cumulative
            ),
            None => println!(" -> window filling, nothing committed"),
        }
    }
    let streamed = stream.finish_shot();
    println!(
        "  finish_shot drains the tail -> total correction {streamed:#04b} \
         ({} decoder calls for {} rounds)\n",
        stream.decode_count(),
        schedule.num_rounds(),
    );

    // --- Whole-batch identity: per-observable error counts through
    // the exact streaming path equal the batch path, for any window.
    let plan = batch_plan(20_000, 512);
    let batch_counts = count_batch_errors(pipeline.circuit(), decoder, &plan, 7, 2);
    for window in [1, 2, schedule.num_rounds()] {
        let streamed_counts = count_batch_errors_streaming(
            pipeline.circuit(),
            decoder,
            StreamingConfig::exact(window),
            &plan,
            7,
            2,
        );
        assert_eq!(streamed_counts, batch_counts);
        let errors: u64 = streamed_counts.iter().map(|b| b[0]).sum();
        println!(
            "W = {window}: 20k shots streamed, observable-0 errors = {errors} \
             (bit-identical to batch decode)"
        );
    }

    // --- Fused mode: O(window) per round instead of O(prefix). Each
    // commit decodes the uncommitted rounds once, finalizes the
    // correction edges that reach the committing round, and hands
    // their far endpoints to the next rounds as artificial defects. A
    // commit cannot see defects more than W - 1 rounds ahead, which is
    // the accuracy trade: W = d gives it a code distance of lookahead.
    let batch_errors: u64 = batch_counts.iter().map(|b| b[0]).sum();
    for window in [2, d] {
        let fused_counts = count_batch_errors_streaming(
            pipeline.circuit(),
            decoder,
            StreamingConfig::fused(window, 1),
            &plan,
            7,
            2,
        );
        let fused_errors: u64 = fused_counts.iter().map(|b| b[0]).sum();
        println!(
            "fused W = {window}, overlap 1: observable-0 errors = {fused_errors} vs \
             {batch_errors} batch (delta {:+}) — bounded per-round cost, measured accuracy trade",
            fused_errors as i64 - batch_errors as i64,
        );
    }
}
