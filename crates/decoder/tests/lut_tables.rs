//! Golden digests of trained lookup tables.
//!
//! Each case pins a trained table's entry count and an FNV-1a digest
//! of its entries sorted by syndrome, so a change to how the table is
//! trained or stored must reproduce every entry and prediction bit for
//! bit. The cases cover the `idle-sweep` benchmark's curve ends (d = 3
//! memory, IBM, p = 1e-3, final idle 0 and 5,750 ns, default LUT
//! budget, decoder seed 1), the d = 5 memory table of the arena
//! goldens (5,000 shots, 64 KB) and the d = 5 Passive surgery table of
//! paper Fig. 22 (20,000 shots, 3 MB).
//!
//! The table is read through the public lookup only. Every stored key
//! is a training syndrome, so the test replays the training sample
//! (4,096-shot batches, the trainer's batch-seed schedule) and looks up
//! each distinct syndrome; the hits must account for every entry.

use ftqc_circuit::Circuit;
use ftqc_decoder::{AnyDecoder, DecoderKind, DecodingGraph, LutDecoder};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{sample_batch, DetectorErrorModel};
use ftqc_surface::{LatticeSurgeryConfig, MemoryConfig};
use ftqc_sync::{PolicySpec, SyncContext};
use std::collections::BTreeSet;

/// The trainer's batch size and per-batch seed increment.
const TRAIN_BATCH: usize = 4096;
const SEED_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// `(entries, digest)` of one trained table.
fn fingerprint(lut: &LutDecoder, circuit: &Circuit, shots: usize, seed: u64) -> (usize, u64) {
    let mut seen = BTreeSet::new();
    let (mut remaining, mut batch_seed) = (shots, seed);
    while remaining > 0 {
        let n = remaining.min(TRAIN_BATCH);
        let batch = sample_batch(circuit, n, batch_seed);
        seen.extend((0..batch.shots).map(|s| batch.flagged_detectors(s)));
        batch_seed = batch_seed.wrapping_add(SEED_STEP);
        remaining -= n;
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u32| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut hits = 0;
    for syndrome in &seen {
        if let Some(prediction) = lut.lookup(syndrome) {
            hits += 1;
            feed(syndrome.len() as u32);
            syndrome.iter().copied().for_each(&mut feed);
            feed(prediction);
        }
    }
    assert_eq!(
        hits,
        lut.entries(),
        "every stored key is a training syndrome"
    );
    (hits, hash)
}

fn idle_sweep_circuit(final_idle_ns: f64) -> Circuit {
    let hw = HardwareConfig::ibm();
    let mut cfg = MemoryConfig::new(3, 4, &hw);
    cfg.final_idle_ns = final_idle_ns;
    CircuitNoiseModel::standard(1e-3, &hw).apply(&cfg.build())
}

/// `LsSetup::homogeneous(5, ibm, Passive, 500.0)`'s surgery circuit.
fn fig22_surgery_circuit() -> Circuit {
    let hw = HardwareConfig::ibm();
    let d = 5;
    let t = hw.cycle_time_ns();
    let ctx = SyncContext::new(500.0, t, t, d + 1).expect("valid context");
    let mut cfg = LatticeSurgeryConfig::new(d, &hw);
    cfg.plan = PolicySpec::Passive
        .plan(&ctx)
        .or_else(|_| PolicySpec::Active.plan(&ctx))
        .expect("active planning is total");
    CircuitNoiseModel::standard(1e-3, &hw).apply(&cfg.build())
}

#[test]
fn idle_sweep_tables_match_goldens() {
    for (idle_ns, want) in [
        (0.0, (614, 8321168885918230211)),
        (5750.0, (614, 3950315801298025210)),
    ] {
        let circuit = idle_sweep_circuit(idle_ns);
        let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
        let graph = DecodingGraph::from_dem(&dem);
        let AnyDecoder::Lut(lut) = DecoderKind::lut().build(&circuit, graph, 1) else {
            unreachable!("the Lut kind builds a LutDecoder")
        };
        let got = fingerprint(&lut, &circuit, 20_000, 1);
        assert_eq!(got, want, "idle {idle_ns} ns: (entries, digest)");
    }
}

#[test]
fn d5_memory_table_matches_golden() {
    let hw = HardwareConfig::ibm();
    let circuit =
        CircuitNoiseModel::standard(1e-3, &hw).apply(&MemoryConfig::new(5, 6, &hw).build());
    let lut = LutDecoder::train(&circuit, 5_000, 2025, 64 * 1024);
    assert_eq!(
        fingerprint(&lut, &circuit, 5_000, 2025),
        (3449, 1518350064250090146)
    );
}

#[test]
fn fig22_surgery_table_matches_golden() {
    let circuit = fig22_surgery_circuit();
    let lut = LutDecoder::train(&circuit, 20_000, 2025, 3 * 1024 * 1024);
    assert_eq!(
        fingerprint(&lut, &circuit, 20_000, 2025),
        (19996, 4929857334346374967)
    );
}
