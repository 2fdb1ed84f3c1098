//! End-to-end logical-error-rate evaluation.

use crate::graph::DecodingGraph;
use crate::scratch::{DecoderScratch, ScratchCapacity};
use ftqc_circuit::Circuit;
use ftqc_sim::{batch_plan, parallel_batches_with, BatchSpec, BinomialEstimate, SyndromeScanner};

/// A syndrome decoder: maps the set of flagged detectors of one shot to
/// a predicted logical-observable flip mask.
pub trait Decoder: Sync {
    /// Decodes one shot out of a reusable workspace: writes the
    /// predicted observable flips (bit `i` = observable `i`) for a
    /// shot whose flagged detectors are `syndrome` (sorted ascending)
    /// into `correction`.
    ///
    /// This is the hot-loop entry point: implementations draw every
    /// temporary from `scratch`, so a caller that reuses one scratch
    /// per thread decodes with zero steady-state heap allocations.
    /// Results must be bit-identical to [`predict`](Decoder::predict)
    /// regardless of what previous decodes left in `scratch`.
    fn decode_into(&self, scratch: &mut DecoderScratch, syndrome: &[u32], correction: &mut u32);

    /// Decodes one windowed-fusion sub-problem in place on the
    /// decoder's graph, restricted to the detectors `dlo..dhi` of
    /// `range = (dlo, dhi)`: an edge whose far end is below `dlo`
    /// leaves the range downward and does not exist for the decode,
    /// and an edge whose far end is at or above `dhi` leaves it upward
    /// and ends at the boundary. `syndrome` holds detector ids
    /// inside the range, sorted ascending, and the edge ids of the
    /// correction land in `edges` (replacing its contents): the
    /// detectors below `dhi` that an odd number of them end at are
    /// exactly the syndrome. Returns the graph the edge ids index, or
    /// `None`, leaving `edges` alone, for a decoder with no graph to
    /// correct on.
    ///
    /// The decode touches only the window, which is what makes fused
    /// streaming O(window) per round, and over the full range
    /// `(0, num_detectors)` it is the batch decode. The default is the
    /// table decoders' answer: they return `None`, so they cannot
    /// stream ([`StreamingConfig::build`](crate::StreamingConfig::build)
    /// rejects them).
    fn decode_window_into(
        &self,
        _scratch: &mut DecoderScratch,
        _range: (u32, u32),
        _syndrome: &[u32],
        _edges: &mut Vec<u32>,
    ) -> Option<&DecodingGraph> {
        None
    }

    /// [`decode_into`](Decoder::decode_into) through a fresh workspace
    /// — the convenient allocating path for one-off decodes, tests and
    /// studies off the hot loop. This is a thin trait-level convenience
    /// wrapper; implementations never override it (bit-identity with
    /// `decode_into` is part of the contract, not something each family
    /// re-establishes).
    fn predict(&self, flagged: &[u32]) -> u32 {
        let mut scratch = DecoderScratch::new();
        let mut correction = 0;
        self.decode_into(&mut scratch, flagged, &mut correction);
        correction
    }

    /// Worst-case scratch sizes for any decode through this decoder.
    /// Every buffer's bound is a closed-form function of the decoder's
    /// inputs (the decoding graph for the matching families, the
    /// training circuit for the table family), so callers preallocate
    /// with [`DecoderScratch::for_decoder`], making even the first
    /// decode allocation-free — and debug builds panic if a decode ever
    /// exceeds a declared bound.
    fn scratch_capacity(&self) -> ScratchCapacity;
}

impl<D: Decoder + ?Sized> Decoder for &D {
    fn decode_into(&self, scratch: &mut DecoderScratch, syndrome: &[u32], correction: &mut u32) {
        (**self).decode_into(scratch, syndrome, correction)
    }

    fn decode_window_into(
        &self,
        scratch: &mut DecoderScratch,
        range: (u32, u32),
        syndrome: &[u32],
        edges: &mut Vec<u32>,
    ) -> Option<&DecodingGraph> {
        (**self).decode_window_into(scratch, range, syndrome, edges)
    }

    fn scratch_capacity(&self) -> ScratchCapacity {
        (**self).scratch_capacity()
    }
}

/// Samples `shots` shots of `circuit`, decodes every shot with
/// `decoder` and returns one logical-error estimate per observable
/// (a logical error is a shot where the decoder mispredicts that
/// observable's flip).
///
/// Deterministic for fixed `(seed, batch_shots)` regardless of thread
/// count.
///
/// # Panics
///
/// Panics if `shots`, `batch_shots` or `threads` is zero.
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn evaluate_ler(
    circuit: &Circuit,
    decoder: &impl Decoder,
    shots: u64,
    batch_shots: usize,
    seed: u64,
    threads: usize,
) -> Vec<BinomialEstimate> {
    let per_batch = count_batch_errors(
        circuit,
        decoder,
        &batch_plan(shots, batch_shots),
        seed,
        threads,
    );
    let mut totals = vec![0u64; circuit.num_observables() as usize];
    for batch in per_batch {
        for (t, e) in totals.iter_mut().zip(batch) {
            *t += e;
        }
    }
    totals
        .into_iter()
        .map(|e| BinomialEstimate::new(e, shots))
        .collect()
}

/// Samples and decodes an explicit batch plan, returning the
/// per-observable logical-error counts of every batch in plan order —
/// the streaming building block of the adaptive evaluation engine.
///
/// Each batch's shot stream is derived from its global index (see
/// [`ftqc_sim::parallel_batches_with`]), so counts are bit-identical
/// whether a plan runs in one call or in chunks, at any thread count.
///
/// The circuit is borrowed and every worker thread owns one reusable
/// [`DecoderScratch`], syndrome buffer, word-wise
/// [`SyndromeScanner`](ftqc_sim::SyndromeScanner) and sampler
/// workspace for its whole lifetime — nothing circuit- or DEM-derived
/// is cloned per batch, and a steady-state shot performs zero heap
/// allocations (the only per-batch allocation is the returned count
/// vector itself; asserted by the counting-allocator tests in
/// `ftqc-bench`).
///
/// Two per-shot fast paths, both bit-identity-tested: syndromes are
/// extracted word-wise (64-shot block transpose + `trailing_zeros`
/// scans) rather than by strided per-bit probes, and empty syndromes —
/// the common case at low physical error rates — skip the decoder call
/// entirely after one memoized decode of the empty syndrome per
/// worker (decoders are deterministic, so the memo is exact).
///
/// # Panics
///
/// Panics if `threads` is zero or any batch in the plan is empty.
pub fn count_batch_errors(
    circuit: &Circuit,
    decoder: &impl Decoder,
    batches: &[BatchSpec],
    seed: u64,
    threads: usize,
) -> Vec<Vec<u64>> {
    let num_obs = circuit.num_observables() as usize;
    parallel_batches_with(
        circuit,
        batches,
        seed,
        threads,
        || {
            (
                DecoderScratch::for_decoder(decoder),
                Vec::new(),
                SyndromeScanner::new(),
                None::<u32>,
            )
        },
        |batch, (scratch, syndrome, scanner, empty_pred)| {
            let span = ftqc_telemetry::span("decode/count_batch");
            let mut errors = vec![0u64; num_obs];
            let mut predicted = 0u32;
            let mut decoded = 0u64;
            scanner.begin_batch(batch);
            for s in 0..batch.shots {
                scanner.flagged_into(batch, s, syndrome);
                if syndrome.is_empty() {
                    predicted = *empty_pred.get_or_insert_with(|| {
                        let mut p = 0u32;
                        decoder.decode_into(scratch, &[], &mut p);
                        p
                    });
                } else {
                    decoder.decode_into(scratch, syndrome, &mut predicted);
                    decoded += 1;
                }
                for (o, err) in errors.iter_mut().enumerate() {
                    let actual = batch.observable(o, s);
                    let pred = (predicted >> o) & 1 == 1;
                    if actual != pred {
                        *err += 1;
                    }
                }
            }
            ftqc_telemetry::counter("decode/shots", batch.shots as u64);
            ftqc_telemetry::counter("decode/nonempty_shots", decoded);
            span.end_with(&[
                ftqc_telemetry::Arg::new("shots", batch.shots as f64),
                ftqc_telemetry::Arg::new("nonempty", decoded as f64),
            ]);
            errors
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecodingGraph, MwpmDecoder, UfDecoder};
    use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
    use ftqc_sim::DetectorErrorModel;
    use ftqc_surface::MemoryConfig;

    fn memory_circuit(d: u32, p: f64) -> Circuit {
        let hw = HardwareConfig::ibm();
        let cfg = MemoryConfig::new(d, d + 1, &hw);
        CircuitNoiseModel::standard(p, &hw).apply(&cfg.build())
    }

    #[test]
    fn decoding_beats_guessing() {
        let c = memory_circuit(3, 1e-3);
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        let uf = UfDecoder::new(DecodingGraph::from_dem(&dem));
        let ler = evaluate_ler(&c, &uf, 4_000, 512, 3, 2);
        assert!(ler[0].rate() < 0.1, "UF LER {}", ler[0]);
    }

    #[test]
    fn mwpm_at_least_as_good_as_uf_on_d3() {
        let c = memory_circuit(3, 3e-3);
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        let g = DecodingGraph::from_dem(&dem);
        let uf = UfDecoder::new(g.clone());
        let mwpm = MwpmDecoder::new(g);
        let shots = 20_000;
        let ler_uf = evaluate_ler(&c, &uf, shots, 1024, 9, 2);
        let ler_mwpm = evaluate_ler(&c, &mwpm, shots, 1024, 9, 2);
        // Identical shot stream; MWPM should not lose by more than
        // statistical slack.
        assert!(
            ler_mwpm[0].rate() <= ler_uf[0].rate() * 1.25 + 2.0 * ler_uf[0].std_err(),
            "mwpm {} vs uf {}",
            ler_mwpm[0],
            ler_uf[0]
        );
    }

    #[test]
    fn larger_distance_suppresses_errors() {
        let l3 = {
            let c = memory_circuit(3, 1e-3);
            let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
            let d = MwpmDecoder::new(DecodingGraph::from_dem(&dem));
            evaluate_ler(&c, &d, 30_000, 1024, 5, 2)[0].rate()
        };
        let l5 = {
            let c = memory_circuit(5, 1e-3);
            let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
            let d = MwpmDecoder::new(DecodingGraph::from_dem(&dem));
            evaluate_ler(&c, &d, 30_000, 1024, 5, 2)[0].rate()
        };
        assert!(
            l5 < l3,
            "distance 5 ({l5}) must beat distance 3 ({l3}) below threshold"
        );
    }

    #[test]
    fn fast_paths_are_bit_identical_to_naive_decoding() {
        // The word-wise syndrome extraction and the empty-syndrome skip
        // must not change a single error count: recompute with the
        // naive per-shot reference (strided per-bit extraction, decoder
        // invoked on every shot including empty ones) over the same
        // batch plan and require exact equality.
        let c = memory_circuit(3, 1e-3); // low p: most syndromes empty
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        let decoder = MwpmDecoder::new(DecodingGraph::from_dem(&dem));
        let plan = ftqc_sim::batch_plan(3_000, 512);
        let seed = 17;
        // Confirm the fast path is actually exercised: the shot stream
        // contains both empty and non-empty syndromes.
        let probe = ftqc_sim::sample_batch(&c, 512, seed);
        let weights: Vec<usize> = (0..probe.shots)
            .map(|s| probe.flagged_detectors(s).len())
            .collect();
        assert!(weights.contains(&0), "want empty syndromes");
        assert!(weights.iter().any(|&w| w > 0), "want real syndromes");
        let fast = count_batch_errors(&c, &decoder, &plan, seed, 2);
        let num_obs = c.num_observables() as usize;
        let naive = ftqc_sim::parallel_batches_with(
            &c,
            &plan,
            seed,
            1,
            DecoderScratch::new,
            |batch, scratch| {
                let mut errors = vec![0u64; num_obs];
                let mut predicted = 0u32;
                for s in 0..batch.shots {
                    let syndrome = batch.flagged_detectors(s);
                    decoder.decode_into(scratch, &syndrome, &mut predicted);
                    for (o, err) in errors.iter_mut().enumerate() {
                        if batch.observable(o, s) != ((predicted >> o) & 1 == 1) {
                            *err += 1;
                        }
                    }
                }
                errors
            },
        );
        assert_eq!(fast, naive, "fast paths diverged from the naive loop");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let c = memory_circuit(3, 1e-3);
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        let d = UfDecoder::new(DecodingGraph::from_dem(&dem));
        let a = evaluate_ler(&c, &d, 2_000, 256, 42, 1);
        let b = evaluate_ler(&c, &d, 2_000, 256, 42, 2);
        assert_eq!(a[0].successes(), b[0].successes());
    }
}
