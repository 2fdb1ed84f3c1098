//! Hierarchical LUT + MWPM decoding with a latency model (Fig. 22).

use crate::evaluate::Decoder;
use crate::lut::LutDecoder;
use crate::mwpm::MwpmDecoder;
use crate::scratch::{DecoderScratch, ScratchCapacity};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Latency model for the hierarchical decoder: LUT hits cost a fixed
/// 20 ns (the paper's assumption); misses invoke the slow matcher,
/// whose latency is drawn from a measured sample set.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Latency of a LUT hit, nanoseconds (paper: 20 ns).
    pub hit_ns: f64,
    /// Measured MWPM latencies to sample from, nanoseconds.
    pub miss_samples_ns: Vec<f64>,
}

impl LatencyModel {
    /// The paper's configuration: 20 ns hits, misses drawn from
    /// `miss_samples_ns`.
    ///
    /// # Panics
    ///
    /// Panics if the sample set is empty.
    pub fn new(miss_samples_ns: Vec<f64>) -> LatencyModel {
        assert!(!miss_samples_ns.is_empty(), "need at least one miss sample");
        LatencyModel {
            hit_ns: 20.0,
            miss_samples_ns,
        }
    }
}

/// One decode with its modelled latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedDecode {
    /// Predicted observable flip mask.
    pub prediction: u32,
    /// Modelled decode latency in nanoseconds.
    pub latency_ns: f64,
    /// Whether the LUT answered.
    pub hit: bool,
}

/// A hierarchical decoder (Delfosse-style two-level): a fast
/// capacity-limited [`LutDecoder`] front end backed by an accurate
/// [`MwpmDecoder`], with the latency model of the paper's Fig. 22
/// evaluation.
///
/// As a [`Decoder`], it is a plain LUT lookup with MWPM on a miss and
/// shares no mutable state between threads. Only the latency probe
/// ([`decode_timed`](HierarchicalDecoder::decode_timed)) counts hits
/// and draws miss latencies.
///
/// # Example
///
/// ```no_run
/// use ftqc_decoder::{DecodingGraph, HierarchicalDecoder, LatencyModel, LutDecoder, MwpmDecoder};
/// # fn demo(lut: LutDecoder, mwpm: MwpmDecoder) {
/// let mut h = HierarchicalDecoder::new(lut, mwpm, LatencyModel::new(vec![800.0]), 7);
/// let outcome = h.decode_timed(&[3, 17]);
/// println!("{} ns, hit = {}", outcome.latency_ns, outcome.hit);
/// # }
/// ```
#[derive(Debug)]
pub struct HierarchicalDecoder {
    lut: LutDecoder,
    mwpm: MwpmDecoder,
    latency: LatencyModel,
    rng: Mutex<SmallRng>,
    hits: std::sync::atomic::AtomicU64,
    total: std::sync::atomic::AtomicU64,
}

impl HierarchicalDecoder {
    /// Assembles the two-level decoder.
    pub fn new(
        lut: LutDecoder,
        mwpm: MwpmDecoder,
        latency: LatencyModel,
        seed: u64,
    ) -> HierarchicalDecoder {
        HierarchicalDecoder {
            lut,
            mwpm,
            latency,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            hits: std::sync::atomic::AtomicU64::new(0),
            total: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Decodes one syndrome, returning the prediction together with the
    /// modelled latency, and counts it towards
    /// [`hit_rate`](HierarchicalDecoder::hit_rate).
    pub fn decode_timed(&self, flagged: &[u32]) -> TimedDecode {
        let mut scratch = DecoderScratch::new();
        self.decode_timed_with(&mut scratch, flagged)
    }

    /// [`decode_timed`](HierarchicalDecoder::decode_timed) out of a
    /// reusable workspace: LUT hits never touch the heap, and misses
    /// decode through the matcher's scratch buffers.
    pub fn decode_timed_with(&self, scratch: &mut DecoderScratch, flagged: &[u32]) -> TimedDecode {
        use std::sync::atomic::Ordering;
        let (prediction, hit) = self.lookup_or_match(scratch, flagged);
        self.total.fetch_add(1, Ordering::Relaxed);
        let latency_ns = if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.latency.hit_ns
        } else {
            let mut rng = self.rng.lock().expect("rng poisoned");
            let i = rng.gen_range(0..self.latency.miss_samples_ns.len());
            self.latency.miss_samples_ns[i]
        };
        TimedDecode {
            prediction,
            latency_ns,
            hit,
        }
    }

    /// The LUT's answer, or the matcher's on a miss: `(prediction, hit)`.
    fn lookup_or_match(&self, scratch: &mut DecoderScratch, flagged: &[u32]) -> (u32, bool) {
        match self.lut.lookup(flagged) {
            Some(prediction) => (prediction, true),
            None => {
                let mut prediction = 0;
                self.mwpm.decode_into(scratch, flagged, &mut prediction);
                (prediction, false)
            }
        }
    }

    /// Fraction of [`decode_timed`](HierarchicalDecoder::decode_timed)
    /// calls answered by the LUT so far.
    pub fn hit_rate(&self) -> f64 {
        use std::sync::atomic::Ordering;
        let total = self.total.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        self.hits.load(Ordering::Relaxed) as f64 / total as f64
    }

    /// Resets the hit-rate counters.
    pub fn reset_counters(&self) {
        use std::sync::atomic::Ordering;
        self.hits.store(0, Ordering::Relaxed);
        self.total.store(0, Ordering::Relaxed);
    }
}

impl Decoder for HierarchicalDecoder {
    fn decode_into(&self, scratch: &mut DecoderScratch, syndrome: &[u32], correction: &mut u32) {
        *correction = self.lookup_or_match(scratch, syndrome).0;
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
    use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
    use ftqc_sim::DetectorErrorModel;
    use ftqc_surface::MemoryConfig;

    fn setup() -> HierarchicalDecoder {
        let hw = HardwareConfig::ibm();
        let c = CircuitNoiseModel::standard(1e-3, &hw).apply(&MemoryConfig::new(3, 4, &hw).build());
        let lut = LutDecoder::train(&c, 5_000, 1, 64 * 1024);
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        let mwpm = MwpmDecoder::new(DecodingGraph::from_dem(&dem));
        HierarchicalDecoder::new(lut, mwpm, LatencyModel::new(vec![500.0, 900.0]), 3)
    }

    #[test]
    fn hits_are_fast_and_counted() {
        let h = setup();
        let out = h.decode_timed(&[]); // trivial syndrome always trained
        assert!(out.hit);
        assert_eq!(out.latency_ns, 20.0);
        assert!(h.hit_rate() > 0.99);
    }

    #[test]
    fn misses_fall_back_to_mwpm() {
        let h = setup();
        // Improbable syndrome: miss.
        let out = h.decode_timed(&[0, 5, 9, 13, 17]);
        assert!(!out.hit);
        assert!(out.latency_ns >= 500.0);
        assert!(h.hit_rate() < 1.0);
    }

    #[test]
    fn decode_into_leaves_the_latency_probe_alone() {
        let (h, probe) = (setup(), setup());
        let miss = [0, 5, 9, 13, 17];
        assert!(h.lut.lookup(&[]).is_some() && h.lut.lookup(&miss).is_none());
        h.reset_counters();
        let mut scratch = DecoderScratch::new();
        let mut correction = 0;
        h.decode_into(&mut scratch, &[], &mut correction);
        h.decode_into(&mut scratch, &miss, &mut correction);
        assert_eq!(correction, h.mwpm.predict(&miss));
        assert_eq!(h.hit_rate(), 0.0, "decode_into must not count");
        // No miss latency was drawn either: the two latency streams
        // still agree draw for draw.
        for _ in 0..8 {
            assert_eq!(h.decode_timed(&miss), probe.decode_timed(&miss));
        }
    }

    #[test]
    fn counters_reset() {
        let h = setup();
        let _ = h.decode_timed(&[]);
        h.reset_counters();
        assert_eq!(h.hit_rate(), 0.0);
    }
}
