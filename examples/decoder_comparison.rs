//! Compare the decoding stack on a surface-code memory: union-find vs
//! exact matching vs a capacity-limited lookup table, plus paper
//! Fig. 22's latency model for hierarchical LUT+MWPM decoding (LUT
//! hits at 20 ns, misses at drawn matcher latencies). Every decoder is
//! built through the unified [`DecoderKind`]/[`EvalPipeline`] layer
//! over one shared circuit → DEM → graph preparation.
//!
//! ```text
//! cargo run --release --example decoder_comparison
//! ```

use ftqc::decoder::{AnyDecoder, DecoderKind};
use ftqc::experiments::EvalPipeline;
use ftqc::noise::HardwareConfig;
use ftqc::sim::sample_batch;
use ftqc::surface::MemoryConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let hw = HardwareConfig::ibm();
    let d = 3;
    let shots = 50_000;
    let pipeline = EvalPipeline::memory(MemoryConfig::new(d, d + 1, &hw))
        .physical_error(2e-3)
        .decoder(DecoderKind::UnionFind)
        .decoder_seed(1)
        .shots(shots)
        .seed(9)
        .threads(2)
        .build();
    println!(
        "d = {d} memory: {} detectors, {} error mechanisms ({} dropped)\n",
        pipeline.circuit().num_detectors(),
        pipeline.dem().mechanisms().len(),
        pipeline.dem_stats().dropped_hyperedges
    );

    println!("decoder     LER (observable 0)");
    for (name, kind) in [
        ("union-find", DecoderKind::UnionFind),
        ("MWPM", DecoderKind::Mwpm),
        (
            "LUT (3KB)",
            DecoderKind::Lut {
                train_shots: 50_000,
                capacity_bytes: 3 * 1024,
            },
        ),
    ] {
        println!("{name:<12}{}", pipeline.run_with(kind)[0]);
    }

    // Hierarchical decoding with Fig. 22's latency model: a LUT hit
    // costs 20 ns, a miss one draw from measured matcher latencies. The
    // table tier comes from the pipeline, trained on its circuit.
    let AnyDecoder::Lut(lut) = pipeline.build_decoder(DecoderKind::Lut {
        train_shots: 50_000,
        capacity_bytes: 3 * 1024,
    }) else {
        unreachable!("the Lut kind builds a LutDecoder")
    };
    let miss_samples_ns = [600.0, 900.0, 1500.0];
    let mut rng = SmallRng::seed_from_u64(5);
    let probe = sample_batch(pipeline.circuit(), 20_000, 3);
    let (mut hits, mut latency) = (0, 0.0);
    for s in 0..probe.shots {
        latency += if lut.lookup(&probe.flagged_detectors(s)).is_some() {
            hits += 1;
            20.0
        } else {
            miss_samples_ns[rng.gen_range(0..miss_samples_ns.len())]
        };
    }
    println!(
        "\nhierarchical decoder: hit rate {:.3}, mean latency {:.0} ns",
        hits as f64 / probe.shots as f64,
        latency / probe.shots as f64
    );
}
