//! Hierarchical LUT + MWPM decoding (the decoder of Fig. 22).

use crate::evaluate::Decoder;
use crate::lut::LutDecoder;
use crate::mwpm::MwpmDecoder;
use crate::scratch::{DecoderScratch, ScratchCapacity};

/// A hierarchical decoder (Delfosse-style two-level): a fast
/// capacity-limited [`LutDecoder`] front end backed by an accurate
/// [`MwpmDecoder`].
///
/// A decode is a table lookup, with MWPM on a miss. The Fig. 22 study
/// prices the two tiers with its own latency model (20 ns hits, misses
/// drawn from measured matcher latencies); the decoder only decodes.
///
/// # Example
///
/// ```no_run
/// use ftqc_decoder::{Decoder, HierarchicalDecoder, LutDecoder, MwpmDecoder};
/// # fn demo(lut: LutDecoder, mwpm: MwpmDecoder) {
/// let h = HierarchicalDecoder::new(lut, mwpm);
/// println!("observable flips: {:#b}", h.predict(&[3, 17]));
/// # }
/// ```
#[derive(Debug)]
pub struct HierarchicalDecoder {
    lut: LutDecoder,
    mwpm: MwpmDecoder,
}

impl HierarchicalDecoder {
    /// Assembles the two-level decoder.
    pub fn new(lut: LutDecoder, mwpm: MwpmDecoder) -> HierarchicalDecoder {
        HierarchicalDecoder { lut, mwpm }
    }
}

impl Decoder for HierarchicalDecoder {
    fn decode_into(&self, scratch: &mut DecoderScratch, syndrome: &[u32], correction: &mut u32) {
        match self.lut.lookup(syndrome) {
            Some(prediction) => *correction = prediction,
            None => self.mwpm.decode_into(scratch, syndrome, correction),
        }
    }

    /// The LUT front end never touches the scratch, so the bound is the
    /// miss path's: the backing matcher's capacity.
    fn scratch_capacity(&self) -> ScratchCapacity {
        self.mwpm.scratch_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecodingGraph;
    use ftqc_circuit::Circuit;
    use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
    use ftqc_sim::{sample_batch, DetectorErrorModel};
    use ftqc_surface::MemoryConfig;

    fn setup() -> (Circuit, HierarchicalDecoder) {
        let hw = HardwareConfig::ibm();
        let c = CircuitNoiseModel::standard(1e-3, &hw).apply(&MemoryConfig::new(3, 4, &hw).build());
        let lut = LutDecoder::train(&c, 5_000, 1, 64 * 1024);
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        let h = HierarchicalDecoder::new(lut, MwpmDecoder::new(DecodingGraph::from_dem(&dem)));
        (c, h)
    }

    /// A hit is the fast tier: it answers from the table and never
    /// reaches the matcher, so a fresh scratch stays unallocated. Over
    /// fresh shots of the training circuit, the hits counted against the
    /// table cover over nine shots in ten.
    #[test]
    fn hits_are_fast_and_counted() {
        let (c, h) = setup();
        let batch = sample_batch(&c, 2_000, 7);
        let syndromes: Vec<Vec<u32>> = (0..batch.shots)
            .map(|s| batch.flagged_detectors(s))
            .collect();
        let mut correction = u32::MAX;

        let hit = syndromes
            .iter()
            .find(|d| d.len() >= 2 && h.lut.lookup(d).is_some());
        let hit = hit.expect("some multi-defect shot hits");
        let mut fresh = DecoderScratch::new();
        h.decode_into(&mut fresh, hit, &mut correction);
        assert_eq!(Some(correction), h.lut.lookup(hit));
        let untouched = fresh.edges.capacity() == 0 && fresh.matching.pair_d.capacity() == 0;
        assert!(untouched, "a hit must not run the matcher");

        let mut scratch = DecoderScratch::new();
        let mut hits = 0;
        for (s, syndrome) in syndromes.iter().enumerate() {
            h.decode_into(&mut scratch, syndrome, &mut correction);
            if let Some(stored) = h.lut.lookup(syndrome) {
                hits += 1;
                assert_eq!(correction, stored, "shot {s}");
            }
        }
        assert!(
            hits as f64 / batch.shots as f64 > 0.9,
            "{hits} hits of {}",
            batch.shots
        );
    }

    #[test]
    fn misses_fall_back_to_mwpm() {
        let (_, h) = setup();
        let (hit, miss) = ([], [0, 5, 9, 13, 17]); // the trivial syndrome is always trained
        let stored = h.lut.lookup(&hit).expect("trained syndrome hits");
        assert!(h.lut.lookup(&miss).is_none(), "improbable syndrome misses");
        let mut scratch = DecoderScratch::new();
        let mut correction = u32::MAX;
        h.decode_into(&mut scratch, &hit, &mut correction);
        assert_eq!(correction, stored);
        h.decode_into(&mut scratch, &miss, &mut correction);
        assert_eq!(correction, h.mwpm.predict(&miss));
    }
}
