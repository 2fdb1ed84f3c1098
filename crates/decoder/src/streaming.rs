//! Streaming decoding: [`StreamingConfig`], [`StreamingDecoder`],
//! [`RoundCommit`] and the [`count_batch_errors_streaming`] driver.
//!
//! A stream decodes only a window of rounds, in place on the decoding
//! graph restricted to the window's detector range
//! ([`Decoder::decode_window_into`]), and commits its correction edges
//! forward, one round at a time: per-round cost O(window), independent
//! of stream length, at the price of a small, measurable accuracy
//! delta. Streaming is a graph-decoder feature: table decoders have no
//! correction edges to commit, and [`StreamingConfig::build`] rejects
//! them.

use crate::evaluate::Decoder;
use crate::fusion::{FusedCommit, FusionCore};
use crate::scratch::DecoderScratch;
use ftqc_circuit::Circuit;
use ftqc_sim::{parallel_batches_with, BatchSpec, RoundSchedule, RoundStream};

/// Configuration of a [`StreamingDecoder`]: window size and overlap.
/// Build one with [`StreamingConfig::fused`], then obtain the decoder
/// with [`build`](StreamingConfig::build).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    window: u32,
    overlap: u32,
}

impl StreamingConfig {
    /// Round `r` is committed once round `r + window - 1` has arrived.
    /// Each commit decodes at most one window of rounds on the graph
    /// restricted to its detector range: the uncommitted rounds plus
    /// `overlap` committed rounds kept behind the committing round as
    /// defect-free context. It finalizes the correction edges that
    /// reach the committing round and carries their far endpoints
    /// forward as artificial defects; the `fusion-accuracy` harness
    /// measures the resulting accuracy delta against batch decoding.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn fused(window: u32, overlap: u32) -> StreamingConfig {
        assert!(window > 0, "streaming window must be at least one round");
        StreamingConfig { window, overlap }
    }

    /// The window size `W`.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Builds the streaming decoder for this configuration. The round
    /// schedule tells the decoder which detectors belong to which
    /// round.
    ///
    /// # Panics
    ///
    /// Panics if `decoder` has no decoding graph: table decoders
    /// ([`LutDecoder`](crate::LutDecoder),
    /// [`HierarchicalDecoder`](crate::HierarchicalDecoder)) decline
    /// [`Decoder::decode_window_into`], so they have no correction
    /// edges to commit.
    pub fn build<D: Decoder>(self, decoder: D, schedule: &RoundSchedule) -> StreamingDecoder<D> {
        StreamingDecoder::with_config(decoder, self, schedule)
    }
}

/// One finalized round emitted by [`StreamingDecoder`]: the correction
/// contribution of this round will never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundCommit {
    /// Index of the finalized round (0-based).
    pub round: u32,
    /// Observable-flip delta contributed by this commit (bit `i` =
    /// observable `i`). XOR-ing the `correction` of every commit of a
    /// shot yields the shot's full streamed correction.
    pub correction: u32,
    /// Running XOR of every correction committed so far this shot:
    /// after the last commit, the windowed estimate of the batch decode
    /// of the full syndrome (exactly the batch decode for a window
    /// covering the shot).
    pub cumulative: u32,
    /// Fusion provenance: artificial defects this commit carried
    /// forward — the uncommitted endpoints of the correction edges it
    /// finalized, which later windows must still correct.
    pub boundary_defects: u32,
    /// Fusion provenance: cut edges of the window this commit decoded
    /// — the graph's edges from a detector in the window's range to one
    /// above it, toward rounds not yet arrived, which the decode took
    /// as ending at the boundary. `0` on commits that reused an earlier
    /// decode.
    pub stitched_edges: u32,
}

/// Sliding-window streaming wrapper around a graph [`Decoder`] — the
/// real-time face of the decoding stack.
///
/// Batch evaluation decodes each shot's complete syndrome in one call.
/// A real-time decoder cannot wait for the shot to end: rounds arrive
/// one at a time, and corrections for old rounds must be *finalized*
/// (committed) while new rounds are still streaming in — the paper's
/// synchronization story presumes exactly this. `StreamingDecoder`
/// wraps a graph decoder (union-find or matching) and consumes
/// per-round defect lists (e.g. from
/// [`RoundStream`](ftqc_sim::RoundStream)) through a sliding window of
/// `W` rounds; a committed round's correction never changes
/// afterwards. Configure it with [`StreamingConfig`] (window and
/// overlap); per shot:
/// [`begin_shot`](StreamingDecoder::begin_shot), then
/// [`push_round`](StreamingDecoder::push_round) per round, then
/// [`finish_shot`](StreamingDecoder::finish_shot) to drain the tail.
/// [`count_batch_errors_streaming`] is the batch-driver form.
///
/// # O(window) per round
///
/// A commit decodes only the uncommitted rounds' defects (plus
/// `overlap` committed rounds of defect-free context), in place on the
/// decoding graph restricted to the window's detector range
/// ([`Decoder::decode_window_into`]; no window copy is built), and
/// finalizes the correction edges that reach the committing round.
/// Their far endpoints become artificial defects of the rounds after
/// it, so every later window corrects exactly what earlier commits
/// left over (the forward-window scheme of Skoric et al.; DESIGN.md
/// "Graph decoders: forward-window commits" carries the argument). The
/// window size `W` carries the real-time semantics: round `r` is
/// finalized once round `r + W - 1` has arrived (lookahead `W - 1`), so
/// `W = 1` commits every round on arrival. A commit runs at most one
/// window decode, and none when no new defect arrived since the last
/// one. The estimate is approximate — a commit cannot see defects more
/// than `W - 1` rounds ahead — and the `fusion-accuracy` harness
/// measures the residual LER delta; a window covering the whole shot
/// commits nothing before the end-of-shot drain, which decodes the
/// shot once, so it is bit-identical to batch decoding.
///
/// The steady state is cheap and allocation-free: commits only invoke
/// the decoder when the relevant syndrome changed since the last
/// decode (a defect-free round costs a few compares), a shot with no
/// rounds costs no decode, buffers are presized from
/// [`ScratchCapacity`](crate::ScratchCapacity), and the scratch is the
/// same reusable [`DecoderScratch`] the batch path uses.
///
/// # Example
///
/// ```
/// use ftqc_decoder::{DecodingGraph, StreamingConfig, UfDecoder, Decoder};
/// use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
/// use ftqc_sim::{sample_batch, DetectorErrorModel, RoundSchedule, RoundStream};
/// use ftqc_surface::MemoryConfig;
///
/// let hw = HardwareConfig::ibm();
/// let circuit = CircuitNoiseModel::standard(2e-3, &hw)
///     .apply(&MemoryConfig::new(3, 4, &hw).build());
/// let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
/// let decoder = UfDecoder::new(DecodingGraph::from_dem(&dem));
///
/// let schedule = RoundSchedule::from_circuit(&circuit);
/// let batch = sample_batch(&circuit, 64, 9);
/// let mut rounds = RoundStream::new(&schedule);
/// let mut stream = StreamingConfig::fused(2, 1).build(&decoder, &schedule); // W = 2
/// rounds.begin_batch(&batch);
///
/// let mut defects = Vec::new();
/// for s in 0..batch.shots {
///     rounds.begin_shot(s);
///     stream.begin_shot();
///     while let Some(_r) = rounds.next_round_into(&batch, &mut defects) {
///         if let Some(commit) = stream.push_round(&defects) {
///             // commit.correction is final for commit.round.
///         }
///     }
///     // The windowed estimate of batch-decoding the whole shot.
///     let _streamed = stream.finish_shot();
/// }
/// ```
pub struct StreamingDecoder<D> {
    decoder: D,
    config: StreamingConfig,
    scratch: DecoderScratch,
    fusion: FusionCore,
    /// XOR of every correction committed so far this shot.
    emitted: u32,
    pushed: u32,
    committed: u32,
    decodes: u64,
    /// Debug-asserted detector-index bound from the decoder's declared
    /// scratch capacity. A defect at or above this would silently grow
    /// buffers past their presized capacity and index outside the
    /// decoder's arenas.
    node_bound: u32,
}

impl<D: Decoder> StreamingDecoder<D> {
    /// See [`StreamingConfig::build`].
    ///
    /// The scratch is preallocated with
    /// [`DecoderScratch::for_decoder`] and every streaming buffer is
    /// presized from the decoder's declared
    /// [`scratch_capacity`](Decoder::scratch_capacity) and the round
    /// schedule, so decoding streams with zero heap allocations from
    /// the very first round.
    fn with_config(
        decoder: D,
        config: StreamingConfig,
        schedule: &RoundSchedule,
    ) -> StreamingDecoder<D> {
        let mut scratch = DecoderScratch::for_decoder(&decoder);
        let cap = decoder.scratch_capacity();
        let fusion = FusionCore::new(&decoder, &mut scratch, config.overlap, schedule, cap);
        StreamingDecoder {
            decoder,
            config,
            scratch,
            fusion,
            emitted: 0,
            pushed: 0,
            committed: 0,
            decodes: 0,
            node_bound: cap.nodes,
        }
    }

    /// Resets per-shot state.
    pub fn begin_shot(&mut self) {
        self.fusion.reset();
        self.emitted = 0;
        self.pushed = 0;
        self.committed = 0;
    }

    /// Feeds the next round's flagged detectors (sorted ascending, as
    /// [`RoundStream`] emits them). Returns the commit finalizing the
    /// oldest pending round when the window is full, `None` while it
    /// is still filling.
    ///
    /// Rounds may arrive with detector indices below already-pushed
    /// ones (misaligned streams à la block synchronization); the
    /// held defect set is re-sorted in place in that case, off the
    /// common path.
    pub fn push_round(&mut self, defects: &[u32]) -> Option<RoundCommit> {
        if !defects.is_empty() {
            debug_assert!(
                *defects.last().unwrap() < self.node_bound,
                "StreamingDecoder bound overflow: defect {} pushed through a decoder whose \
                 scratch capacity covers {} detectors (was the stream built for a smaller \
                 graph?)",
                defects.last().unwrap(),
                self.node_bound
            );
        }
        self.fusion.push(defects);
        self.pushed += 1;
        (self.pushed - self.committed >= self.config.window).then(|| self.commit_round())
    }

    /// Commits the oldest pending round without pushing a new one —
    /// `None` when nothing is pending. [`finish_shot`] drains the tail
    /// with this at end of stream; calling it early shrinks the
    /// effective lookahead of the round it flushes. The first flush
    /// decodes the remaining rounds once and the ones after it commit
    /// that decode, which is what makes a window covering the whole
    /// shot exactly batch-equivalent.
    ///
    /// [`finish_shot`]: StreamingDecoder::finish_shot
    pub fn flush_round(&mut self) -> Option<RoundCommit> {
        (self.pushed > self.committed).then(|| self.commit_round())
    }

    /// Flushes every pending round and returns the shot's total
    /// correction: the windowed estimate of batch-decoding the full
    /// syndrome in one [`Decoder::decode_into`] call, equal to it when
    /// no round committed before the end of the shot. A shot with no
    /// pushed rounds returns 0: only graph decoders stream, and they
    /// correct the empty syndrome to no flip.
    pub fn finish_shot(&mut self) -> u32 {
        while self.flush_round().is_some() {}
        self.emitted
    }

    /// Rounds pushed but not yet committed.
    pub fn pending_rounds(&self) -> u32 {
        self.pushed - self.committed
    }

    /// Rounds committed so far this shot.
    pub fn committed_rounds(&self) -> u32 {
        self.committed
    }

    /// XOR of every correction committed so far this shot.
    pub fn correction_so_far(&self) -> u32 {
        self.emitted
    }

    /// Total inner-decoder invocations since construction — a window
    /// with no defects is never decoded, which keeps this far below
    /// the round count (tests assert the exact values).
    pub fn decode_count(&self) -> u64 {
        self.decodes
    }

    /// The configuration this decoder was built with.
    pub fn config(&self) -> StreamingConfig {
        self.config
    }

    /// The configured window size `W`.
    pub fn window(&self) -> u32 {
        self.config.window
    }

    /// The wrapped decoder.
    pub fn decoder(&self) -> &D {
        &self.decoder
    }

    /// Finalizes the oldest pending round.
    fn commit_round(&mut self) -> RoundCommit {
        let round = self.committed;
        let FusedCommit {
            correction,
            carried: boundary_defects,
            stitched: stitched_edges,
            decoded,
        } = self
            .fusion
            .commit(&self.decoder, &mut self.scratch, round, self.pushed);
        self.decodes += u64::from(decoded);
        self.emitted ^= correction;
        self.committed = round + 1;
        // Explicitly gated so the disabled path pays one relaxed load and
        // never builds the argument arrays — this sits inside the ~40 ns
        // defect-free round commit that `decode-latency` gates in CI.
        if ftqc_telemetry::enabled() {
            ftqc_telemetry::instant(
                "stream/commit",
                &[
                    ftqc_telemetry::Arg::new("round", round as f64),
                    ftqc_telemetry::Arg::new("occupancy", (self.pushed - round) as f64),
                    ftqc_telemetry::Arg::new("decodes", self.decodes as f64),
                ],
            );
            ftqc_telemetry::instant(
                "stream/fuse",
                &[
                    ftqc_telemetry::Arg::new("round", round as f64),
                    ftqc_telemetry::Arg::new("boundary_defects", boundary_defects as f64),
                    ftqc_telemetry::Arg::new("stitched_edges", stitched_edges as f64),
                    ftqc_telemetry::Arg::new("active", self.fusion.pending_len() as f64),
                ],
            );
        }
        RoundCommit {
            round,
            correction,
            cumulative: self.emitted,
            boundary_defects,
            stitched_edges,
        }
    }
}

/// [`count_batch_errors`](crate::count_batch_errors), but every shot is
/// decoded through the streaming path: rounds are extracted one at a
/// time by a per-worker [`RoundStream`] and pushed through a
/// per-worker [`StreamingDecoder`] built from `config`, and the shot's
/// prediction is the XOR of its committed corrections.
///
/// The counts differ from
/// [`count_batch_errors`](crate::count_batch_errors) on the same plan
/// by the fusion accuracy delta, which the `fusion-accuracy` harness
/// measures per decoder family; they equal it for a window covering
/// the shot, and they do not depend on `threads` (the decoder-crate
/// streaming tests enforce both).
/// Steady-state shots allocate nothing
/// beyond the batch path (same scratch, same scanner, plus the
/// reusable round/window buffers).
///
/// # Panics
///
/// Panics if `threads` is zero, any batch in the plan is empty, the
/// circuit declares no detectors, or `decoder` is a table decoder
/// (see [`StreamingConfig::build`]).
pub fn count_batch_errors_streaming(
    circuit: &Circuit,
    decoder: &impl Decoder,
    config: StreamingConfig,
    batches: &[BatchSpec],
    seed: u64,
    threads: usize,
) -> Vec<Vec<u64>> {
    let num_obs = circuit.num_observables() as usize;
    let schedule = RoundSchedule::from_circuit(circuit);
    let schedule = &schedule;
    parallel_batches_with(
        circuit,
        batches,
        seed,
        threads,
        || {
            (
                config.build(decoder, schedule),
                RoundStream::new(schedule),
                Vec::with_capacity(schedule.max_round_len()),
            )
        },
        |batch, (stream, rounds, defects)| {
            // analyzer: allow(alloc) -- one tally vec per batch (not
            // per shot); batches are hundreds of shots.
            let mut errors = vec![0u64; num_obs];
            // analyzer: end-allow(alloc)
            rounds.begin_batch(batch);
            for s in 0..batch.shots {
                rounds.begin_shot(s);
                stream.begin_shot();
                while rounds.next_round_into(batch, defects).is_some() {
                    stream.push_round(defects);
                }
                let predicted = stream.finish_shot();
                for (o, err) in errors.iter_mut().enumerate() {
                    if batch.observable(o, s) != ((predicted >> o) & 1 == 1) {
                        *err += 1;
                    }
                }
            }
            errors
        },
    )
}
