//! Capacity-limited lookup-table decoding (LILLIPUT-style).

use crate::evaluate::Decoder;
use crate::scratch::{DecoderScratch, ScratchCapacity};
use ftqc_circuit::Circuit;
use ftqc_sim::{sample_batch_with, FrameSimulator, SampleBatch, SyndromeScanner, WordHasher};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Training shots sampled per batch.
const TRAIN_BATCH: usize = 4096;

/// A map keyed by syndromes (ascending detector ids). A `&[u32]` finds
/// its entry through `Borrow<[u32]>`, so lookups never allocate.
type SyndromeMap<V> = HashMap<Box<[u32]>, V, BuildHasherDefault<WordHasher>>;

/// A lookup-table decoder trained by sampling.
///
/// The table maps full syndromes (the set of flagged detectors) to the
/// majority observable-flip mask seen during training, and is capped at
/// a byte budget like the hardware LUTs of the paper's Fig. 22
/// evaluation (3 KB / 3 MB / 30 MB for `d = 3 / 5 / 7`): the most
/// frequent syndromes are kept. [`LutDecoder::lookup`] reports misses
/// so a hierarchical decoder can fall back to matching.
///
/// The table is a hash map from boxed syndromes to masks under a fixed
/// word-wise hash (no per-process random keys), looked up by borrowed
/// slice without allocating.
///
/// Used standalone (as [`Decoder`], predicting no flip on a miss) for
/// the repetition-code experiment of Fig. 1(c).
#[derive(Debug, Clone)]
pub struct LutDecoder {
    table: SyndromeMap<u32>,
    bytes_per_entry: usize,
    num_detectors: u32,
}

impl LutDecoder {
    /// Trains a table from `shots` samples of `circuit`, keeping the
    /// most frequent syndromes that fit within `capacity_bytes`.
    ///
    /// Each syndrome predicts its majority observable mask (ties to the
    /// smallest mask); syndromes rank by count (ties to the
    /// lexicographically smallest). Each entry costs one packed
    /// syndrome (`ceil(num_detectors / 8)` bytes) plus one byte of
    /// prediction, matching the sizing model of the paper's LUT
    /// references.
    ///
    /// Training samples 4,096-shot batches into one reused sampler and
    /// reads each shot through a [`SyndromeScanner`]; a syndrome's key
    /// is allocated only the first time it is seen.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0` or `capacity_bytes == 0`.
    pub fn train(circuit: &Circuit, shots: usize, seed: u64, capacity_bytes: usize) -> LutDecoder {
        assert!(shots > 0 && capacity_bytes > 0);
        // analyzer: allow(alloc) -- training: the sampler, scanner and
        // syndrome buffers grow once and are reused across batches; each
        // distinct syndrome allocates its key and mask list once.
        let mut sim = FrameSimulator::empty();
        let mut batch = SampleBatch::empty();
        let mut scanner = SyndromeScanner::new();
        let mut syndrome = Vec::new();
        // Per syndrome, its (observable mask, count) pairs.
        let mut tallies: SyndromeMap<Vec<(u32, u64)>> = SyndromeMap::default();
        let mut remaining = shots;
        let mut batch_seed = seed;
        while remaining > 0 {
            let n = remaining.min(TRAIN_BATCH);
            sample_batch_with(circuit, n, batch_seed, &mut sim, &mut batch);
            batch_seed = batch_seed.wrapping_add(0x9E3779B97F4A7C15);
            scanner.begin_batch(&batch);
            for s in 0..batch.shots {
                scanner.flagged_into(&batch, s, &mut syndrome);
                let mut mask = 0u32;
                for o in 0..batch.num_observables {
                    if batch.observable(o, s) {
                        mask |= 1 << o;
                    }
                }
                if let Some(by_mask) = tallies.get_mut(syndrome.as_slice()) {
                    match by_mask.iter_mut().find(|(m, _)| *m == mask) {
                        Some((_, count)) => *count += 1,
                        None => by_mask.push((mask, 1)),
                    }
                } else {
                    tallies.insert(syndrome.as_slice().into(), vec![(mask, 1)]);
                }
            }
            remaining -= n;
        }
        // analyzer: end-allow(alloc)
        LutDecoder::from_tallies(tallies, circuit.num_detectors(), capacity_bytes)
    }

    /// The table from training tallies, each a syndrome with its
    /// `(mask, count)` list: every syndrome predicts its majority mask
    /// (ties to the smallest mask), and the most frequent syndromes
    /// that fit `capacity_bytes` are kept (ties to the
    /// lexicographically smallest syndrome).
    fn from_tallies(
        tallies: impl IntoIterator<Item = (Box<[u32]>, Vec<(u32, u64)>)>,
        num_detectors: u32,
        capacity_bytes: usize,
    ) -> LutDecoder {
        let bytes_per_entry = (num_detectors as usize).div_ceil(8) + 1;
        let max_entries = (capacity_bytes / bytes_per_entry).max(1);
        // analyzer: allow(alloc) -- constructor: one ranking pass and
        // the table, built once per trained decoder.
        let mut ranked: Vec<(u64, Box<[u32]>, u32)> = tallies
            .into_iter()
            .map(|(syndrome, by_mask)| {
                let total = by_mask.iter().map(|&(_, count)| count).sum();
                let (majority, _) = by_mask
                    .into_iter()
                    .max_by_key(|&(mask, count)| (count, std::cmp::Reverse(mask)))
                    .expect("a tallied syndrome was seen");
                (total, syndrome, majority)
            })
            .collect();
        // Only the kept set matters, not its order: partition at the cut.
        if ranked.len() > max_entries {
            ranked.select_nth_unstable_by(max_entries, |a, b| {
                b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1))
            });
            ranked.truncate(max_entries);
        }
        let table = ranked.into_iter().map(|(_, s, m)| (s, m)).collect();
        // analyzer: end-allow(alloc)
        LutDecoder {
            table,
            bytes_per_entry,
            num_detectors,
        }
    }

    /// Looks up a syndrome; `None` on a miss. Never allocates.
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
    /// A lookup hashes the borrowed syndrome slice and never touches
    /// the heap, so the scratch is unused — zero allocations per decode
    /// by construction. A miss predicts no flip.
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
    fn equal_mask_counts_predict_the_smallest_mask() {
        let tallies = [(Box::from([3u32]), vec![(0b10, 5), (0b11, 2), (0b01, 5)])];
        let lut = LutDecoder::from_tallies(tallies, 16, 1024);
        assert_eq!(lut.lookup(&[3]), Some(0b01));
    }

    #[test]
    fn equal_totals_at_the_capacity_cut_keep_the_smallest_syndrome() {
        // 16 detectors: 3 bytes an entry, so 6 bytes hold two entries.
        let tallies = [
            (Box::from([4u32]), vec![(0, 3)]),
            (Box::from([2u32, 9]), vec![(1, 2), (0, 1)]),
            (Box::from([]), vec![(0, 10)]),
            (Box::from([1u32, 5]), vec![(1, 3)]),
        ];
        let lut = LutDecoder::from_tallies(tallies, 16, 6);
        assert_eq!(lut.entries(), 2);
        assert_eq!(lut.lookup(&[]), Some(0));
        assert_eq!(lut.lookup(&[1, 5]), Some(1));
        assert_eq!(lut.lookup(&[2, 9]), None);
        assert_eq!(lut.lookup(&[4]), None);
    }

    #[test]
    fn misses_return_none() {
        let c = rep_circuit(0.0);
        let lut = LutDecoder::train(&c, 1_000, 3, 8);
        // An absurd syndrome unlikely to be stored.
        assert_eq!(lut.lookup(&[0, 1, 2, 3]), None);
    }
}
