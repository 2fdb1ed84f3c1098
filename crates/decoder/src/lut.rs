//! Capacity-limited lookup-table decoding (LILLIPUT-style).

use crate::evaluate::Decoder;
use crate::scratch::{DecoderScratch, ScratchCapacity};
use ftqc_circuit::Circuit;
use ftqc_sim::sample_batch;
use std::collections::HashMap;

/// A lookup-table decoder trained by sampling.
///
/// The table maps full syndromes (the set of flagged detectors) to the
/// majority observable-flip mask seen during training, and is capped at
/// a byte budget like the hardware LUTs of the paper's Fig. 22
/// evaluation (3 KB / 3 MB / 30 MB for `d = 3 / 5 / 7`): the most
/// frequent syndromes are kept. [`LutDecoder::lookup`] reports misses
/// so a hierarchical decoder can fall back to matching.
///
/// Used standalone (as [`Decoder`], predicting no flip on a miss) for
/// the repetition-code experiment of Fig. 1(c).
#[derive(Debug, Clone)]
pub struct LutDecoder {
    table: HashMap<Vec<u32>, u32>,
    bytes_per_entry: usize,
    num_detectors: u32,
}

impl LutDecoder {
    /// Trains a table from `shots` samples of `circuit`, keeping the
    /// most frequent syndromes that fit within `capacity_bytes`.
    ///
    /// Each entry costs one packed syndrome (`ceil(num_detectors / 8)`
    /// bytes) plus one byte of prediction, matching the sizing model of
    /// the paper's LUT references.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0` or `capacity_bytes == 0`.
    pub fn train(circuit: &Circuit, shots: usize, seed: u64, capacity_bytes: usize) -> LutDecoder {
        assert!(shots > 0 && capacity_bytes > 0);
        let bytes_per_entry = (circuit.num_detectors() as usize).div_ceil(8) + 1;
        let max_entries = (capacity_bytes / bytes_per_entry).max(1);
        // Count (syndrome -> (obs mask -> count)).
        let mut counts: HashMap<Vec<u32>, HashMap<u32, u64>> = HashMap::new();
        let mut remaining = shots;
        let mut batch_seed = seed;
        while remaining > 0 {
            let n = remaining.min(4096);
            let batch = sample_batch(circuit, n, batch_seed);
            batch_seed = batch_seed.wrapping_add(0x9E3779B97F4A7C15);
            for s in 0..batch.shots {
                let syndrome = batch.flagged_detectors(s);
                let mut mask = 0u32;
                for o in 0..batch.num_observables {
                    if batch.observable(o, s) {
                        mask |= 1 << o;
                    }
                }
                *counts.entry(syndrome).or_default().entry(mask).or_insert(0) += 1;
            }
            remaining -= n;
        }
        // Rank syndromes by frequency; majority mask per syndrome.
        let mut ranked: Vec<(u64, Vec<u32>, u32)> = counts
            .into_iter()
            .map(|(syn, by_mask)| {
                let total: u64 = by_mask.values().sum();
                let (best_mask, _) = by_mask
                    .into_iter()
                    .max_by_key(|&(mask, c)| (c, std::cmp::Reverse(mask)))
                    .expect("non-empty");
                (total, syn, best_mask)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(max_entries);
        LutDecoder {
            table: ranked.into_iter().map(|(_, s, m)| (s, m)).collect(),
            bytes_per_entry,
            num_detectors: circuit.num_detectors(),
        }
    }

    /// Looks up a syndrome; `None` on a miss.
    pub fn lookup(&self, flagged: &[u32]) -> Option<u32> {
        self.table.get(flagged).copied()
    }

    /// Number of stored syndromes.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Approximate table size in bytes under the hardware sizing model.
    pub fn size_bytes(&self) -> usize {
        self.table.len() * self.bytes_per_entry
    }
}

impl Decoder for LutDecoder {
    /// Table lookup never touches the heap (slice keys hash in place),
    /// so the scratch is unused — zero allocations per decode by
    /// construction.
    fn decode_into(&self, _scratch: &mut DecoderScratch, syndrome: &[u32], correction: &mut u32) {
        *correction = self.lookup(syndrome).unwrap_or(0);
    }

    /// The table decodes with no graph and no scratch; `nodes` sizes
    /// the syndrome buffers of the streaming layer.
    fn scratch_capacity(&self) -> ScratchCapacity {
        ScratchCapacity {
            nodes: self.num_detectors,
            edges: 0,
            exact_limit: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
    use ftqc_surface::RepetitionConfig;

    fn rep_circuit(idle: f64) -> Circuit {
        let hw = HardwareConfig::google();
        CircuitNoiseModel::standard(2e-3, &hw).apply(&RepetitionConfig::new(&hw, idle).build())
    }

    #[test]
    fn trained_lut_contains_trivial_syndrome() {
        let c = rep_circuit(0.0);
        let lut = LutDecoder::train(&c, 20_000, 3, 1024);
        assert_eq!(lut.lookup(&[]), Some(0));
        assert!(lut.entries() > 1);
    }

    #[test]
    fn capacity_limits_entries() {
        let c = rep_circuit(0.0);
        let small = LutDecoder::train(&c, 20_000, 3, 4);
        let large = LutDecoder::train(&c, 20_000, 3, 64 * 1024);
        assert!(small.entries() < large.entries());
        assert!(small.size_bytes() <= 4 || small.entries() == 1);
    }

    #[test]
    fn lut_decodes_repetition_code_reasonably() {
        use crate::evaluate::evaluate_ler;
        let c = rep_circuit(0.0);
        let lut = LutDecoder::train(&c, 50_000, 3, 64 * 1024);
        let ler = evaluate_ler(&c, &lut, 20_000, 1024, 7, 2);
        assert!(ler[0].rate() < 0.02, "LER {}", ler[0]);
    }

    #[test]
    fn misses_return_none() {
        let c = rep_circuit(0.0);
        let lut = LutDecoder::train(&c, 1_000, 3, 8);
        // An absurd syndrome unlikely to be stored.
        assert_eq!(lut.lookup(&[0, 1, 2, 3]), None);
    }
}
