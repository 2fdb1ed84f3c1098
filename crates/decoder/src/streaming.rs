//! Streaming decoding: [`StreamingConfig`], [`StreamingDecoder`],
//! [`RoundCommit`] and the [`count_batch_errors_streaming`] driver.
//!
//! A stream decodes only a window of rounds, in place on the decoding
//! graph restricted to the window's detector range
//! ([`Decoder::decode_window_into`]), and commits its correction edges
//! forward, one round at a time: per-round cost O(window), independent
//! of stream length, at the price of a small, measurable accuracy
//! delta. Table decoders have no edges; they stream through a prefix
//! path that re-decodes the accumulated syndrome on every commit.

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
    /// of the full syndrome (exactly the batch decode for a table
    /// decoder, or for a window covering the shot).
    pub cumulative: u32,
    /// Fusion provenance: artificial defects this commit carried
    /// forward — the uncommitted endpoints of the correction edges it
    /// finalized, which later windows must still correct. Always `0`
    /// for table decoders.
    pub boundary_defects: u32,
    /// Fusion provenance: cut edges of the window this commit decoded
    /// — the graph's edges from a detector in the window's range to one
    /// above it, toward rounds not yet arrived, which the decode took
    /// as ending at the boundary. `0` for table decoders and on commits
    /// that reused an earlier decode.
    pub stitched_edges: u32,
}

/// A table decoder's prefix state: the accumulated syndrome prefix and
/// its memoized decode.
struct PrefixState {
    /// Accumulated syndrome prefix (sorted ascending).
    syndrome: Vec<u32>,
    /// Decode of `syndrome`, valid only when `running_valid`.
    running: u32,
    running_valid: bool,
}

enum StreamPath {
    /// Table decoders, which have no correction edges.
    Prefix(PrefixState),
    /// Graph decoders. Boxed: the fusion core is ~10x the prefix state.
    Fused(Box<FusionCore>),
}

/// Sliding-window streaming wrapper around any [`Decoder`] — the
/// real-time face of the decoding stack.
///
/// Batch evaluation decodes each shot's complete syndrome in one call.
/// A real-time decoder cannot wait for the shot to end: rounds arrive
/// one at a time, and corrections for old rounds must be *finalized*
/// (committed) while new rounds are still streaming in — the paper's
/// synchronization story presumes exactly this. `StreamingDecoder`
/// wraps any [`Decoder`] and consumes per-round defect lists (e.g.
/// from [`RoundStream`](ftqc_sim::RoundStream)) through a sliding
/// window of `W` rounds; a committed round's correction never changes
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
/// # Table decoders: the prefix path
///
/// Table decoders have no correction edges. Every commit of theirs
/// decodes the full *accumulated prefix* of the syndrome and emits the
/// XOR **delta** against the corrections already committed. Deltas
/// telescope — XOR-ing every committed correction of a shot yields
/// exactly `decode(full syndrome)` — so their stream is bit-identical
/// to batch decoding at any window, at a per-commit cost that grows
/// with the stream.
///
/// Both paths keep the steady state cheap and allocation-free:
/// commits only invoke the decoder when the relevant syndrome changed
/// since the last decode (a defect-free round costs a few compares), the
/// all-empty syndrome is memoized per stream exactly like
/// `count_batch_errors`' empty-syndrome path, buffers are presized
/// from [`ScratchCapacity`](crate::ScratchCapacity), and the scratch
/// is the same reusable [`DecoderScratch`] the batch path uses.
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
    path: StreamPath,
    /// XOR of every correction committed so far this shot.
    emitted: u32,
    pushed: u32,
    committed: u32,
    /// Memoized decode of the empty syndrome (exact: decoders are
    /// deterministic), shared across shots.
    empty_pred: Option<u32>,
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
    /// [`scratch_capacity`](Decoder::scratch_capacity) (plus the round
    /// schedule, for a graph decoder), so decoding streams with zero
    /// heap allocations from the very first round.
    fn with_config(
        decoder: D,
        config: StreamingConfig,
        schedule: &RoundSchedule,
    ) -> StreamingDecoder<D> {
        assert!(
            config.window > 0,
            "streaming window must be at least one round"
        );
        let mut scratch = DecoderScratch::for_decoder(&decoder);
        let cap = decoder.scratch_capacity();
        let fused = FusionCore::new(&decoder, &mut scratch, config.overlap, schedule, cap);
        let path = match fused {
            // analyzer: allow(alloc) -- constructor: the fusion core is
            // boxed once per stream.
            Some(core) => StreamPath::Fused(Box::new(core)),
            // analyzer: end-allow(alloc)
            None => StreamPath::Prefix(PrefixState {
                syndrome: Vec::with_capacity(cap.nodes as usize),
                running: 0,
                running_valid: false,
            }),
        };
        StreamingDecoder {
            decoder,
            config,
            scratch,
            path,
            emitted: 0,
            pushed: 0,
            committed: 0,
            empty_pred: None,
            decodes: 0,
            node_bound: cap.nodes,
        }
    }

    /// Resets per-shot state (the empty-syndrome memo survives —
    /// decoders are deterministic across shots).
    pub fn begin_shot(&mut self) {
        match &mut self.path {
            StreamPath::Prefix(e) => {
                e.syndrome.clear();
                e.running = 0;
                e.running_valid = false;
            }
            StreamPath::Fused(f) => f.reset(),
        }
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
        match &mut self.path {
            StreamPath::Prefix(e) => {
                if !defects.is_empty() {
                    let in_order = e.syndrome.last().is_none_or(|&last| defects[0] > last);
                    e.syndrome.extend_from_slice(defects);
                    if !in_order {
                        e.syndrome.sort_unstable();
                    }
                    e.running_valid = false;
                }
            }
            StreamPath::Fused(f) => f.push(defects),
        }
        self.pushed += 1;
        (self.pushed - self.committed >= self.config.window).then(|| self.commit_round())
    }

    /// Commits the oldest pending round without pushing a new one —
    /// `None` when nothing is pending. [`finish_shot`] drains the tail
    /// with this at end of stream; calling it early shrinks the
    /// effective lookahead of the round it flushes. For a graph decoder
    /// the first flush decodes the remaining rounds once and the ones
    /// after it commit that decode, which is what makes a window
    /// covering the whole shot exactly batch-equivalent.
    ///
    /// [`finish_shot`]: StreamingDecoder::finish_shot
    pub fn flush_round(&mut self) -> Option<RoundCommit> {
        (self.pushed > self.committed).then(|| self.commit_round())
    }

    /// Flushes every pending round and returns the shot's total
    /// correction: the windowed estimate of batch-decoding the full
    /// syndrome in one [`Decoder::decode_into`] call, equal to it when
    /// no round committed before the end of the shot, and for table
    /// decoders always.
    pub fn finish_shot(&mut self) -> u32 {
        while self.flush_round().is_some() {}
        if self.pushed == 0 {
            // A shot with zero pushed rounds still has a defined
            // correction: the decode of the empty syndrome.
            let StreamingDecoder {
                decoder,
                scratch,
                empty_pred,
                decodes,
                ..
            } = self;
            return *empty_pred.get_or_insert_with(|| {
                let mut p = 0u32;
                decoder.decode_into(scratch, &[], &mut p);
                *decodes += 1;
                p
            });
        }
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

    /// Total inner-decoder invocations since construction — the
    /// empty-round and empty-syndrome fast paths keep this far below
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
        let StreamingDecoder {
            decoder,
            scratch,
            path,
            emitted,
            pushed,
            empty_pred,
            decodes,
            ..
        } = self;
        let (correction, boundary_defects, stitched_edges, defects_held) = match path {
            StreamPath::Prefix(e) => {
                prefix_running(decoder, scratch, e, empty_pred, decodes);
                (e.running ^ *emitted, 0, 0, e.syndrome.len())
            }
            StreamPath::Fused(f) => {
                let FusedCommit {
                    correction,
                    carried,
                    stitched,
                    decoded,
                } = f.commit(decoder, scratch, round, *pushed);
                *decodes += u64::from(decoded);
                (correction, carried, stitched, f.pending_len())
            }
        };
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
                    ftqc_telemetry::Arg::new("prefix_defects", defects_held as f64),
                ],
            );
            if matches!(self.path, StreamPath::Fused(_)) {
                ftqc_telemetry::instant(
                    "stream/fuse",
                    &[
                        ftqc_telemetry::Arg::new("round", round as f64),
                        ftqc_telemetry::Arg::new("boundary_defects", boundary_defects as f64),
                        ftqc_telemetry::Arg::new("stitched_edges", stitched_edges as f64),
                        ftqc_telemetry::Arg::new("active", defects_held as f64),
                    ],
                );
            }
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

/// Makes `e.running` the decode of a table decoder's accumulated
/// syndrome (memoizing the empty syndrome in `empty_pred`).
fn prefix_running<D: Decoder>(
    decoder: &D,
    scratch: &mut DecoderScratch,
    e: &mut PrefixState,
    empty_pred: &mut Option<u32>,
    decodes: &mut u64,
) {
    if e.running_valid {
        return;
    }
    if e.syndrome.is_empty() {
        e.running = *empty_pred.get_or_insert_with(|| {
            let mut p = 0u32;
            decoder.decode_into(scratch, &[], &mut p);
            *decodes += 1;
            p
        });
    } else {
        decoder.decode_into(scratch, &e.syndrome, &mut e.running);
        *decodes += 1;
    }
    e.running_valid = true;
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
/// measures per decoder family; they equal it for table decoders and
/// for a window covering the shot, and they do not depend on
/// `threads` (the decoder-crate streaming tests enforce both).
/// Steady-state shots allocate nothing
/// beyond the batch path (same scratch, same scanner, plus the
/// reusable round/window buffers).
///
/// # Panics
///
/// Panics if `threads` is zero, any batch in the plan is empty, or the
/// circuit declares no detectors.
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
