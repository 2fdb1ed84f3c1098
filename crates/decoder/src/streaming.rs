//! Streaming decoding: [`StreamingConfig`], [`StreamingDecoder`],
//! [`RoundCommit`] and the [`count_batch_errors_streaming`] driver.
//!
//! Two streaming modes share one decoder surface:
//!
//! * [`StreamingMode::Exact`] re-decodes the full accumulated syndrome
//!   prefix on every commit and emits telescoping XOR deltas —
//!   bit-identical to batch decoding for any [`Decoder`], at a
//!   per-round cost that grows with the stream.
//! * [`StreamingMode::Fused`] decodes only the active W-round window
//!   against a round-sliced [`WindowView`] of the decoding graph and
//!   stitches across window boundaries with a frozen-prefix mask
//!   (see the [`fusion`](crate::WindowView) module docs) — per-round
//!   cost O(window), independent of stream length, at the price of a
//!   small, measurable accuracy delta.

use crate::evaluate::Decoder;
use crate::fusion::FusionCore;
use crate::scratch::DecoderScratch;
use ftqc_circuit::Circuit;
use ftqc_sim::{parallel_batches_with, BatchSpec, RoundSchedule, RoundStream};

/// Which decode the streaming window performs on each commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamingMode {
    /// Decode the full accumulated syndrome prefix every commit.
    /// Bit-identical to batch decoding for any decoder (deltas
    /// telescope), but per-round cost grows with the stream.
    Exact,
    /// True windowed fusion: decode only the retained W-round window
    /// on a round-sliced graph view, carrying boundary defects forward
    /// and freezing the contribution of defects that scroll out.
    /// Per-round cost is O(window); accuracy is approximate (measured
    /// by the `fusion-accuracy` harness).
    Fused {
        /// Extra rounds of already-committed context retained behind
        /// the newest committed round before defects are expelled.
        /// `0` expels immediately at the commit boundary; larger
        /// values trade window size for accuracy. An overlap of at
        /// least the graph's round-spanning edge reach keeps matched
        /// pairs intact across commits.
        overlap: u32,
    },
}

/// When pending rounds are finalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Finalize the oldest pending round as soon as the window fills —
    /// one commit per push in steady state.
    PerRound,
    /// Accumulate `stride` rounds past the full window, then finalize
    /// them as one block commit (one decode amortized over `stride`
    /// rounds). `Strided { stride: 1 }` is equivalent to
    /// [`CommitPolicy::PerRound`].
    Strided {
        /// Rounds finalized per block commit.
        stride: u32,
    },
}

/// Configuration of a [`StreamingDecoder`]: window size, decode mode
/// and commit policy. Build one with [`StreamingConfig::exact`] or
/// [`StreamingConfig::fused`], optionally adjust the commit policy
/// with [`commit`](StreamingConfig::commit), then obtain the decoder
/// with [`build`](StreamingConfig::build).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    window: u32,
    mode: StreamingMode,
    commit: CommitPolicy,
}

impl StreamingConfig {
    /// An exact-mode configuration: round `r` is committed once round
    /// `r + window - 1` has arrived, and every commit re-decodes the
    /// full accumulated prefix (bit-identical to batch decoding).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn exact(window: u32) -> StreamingConfig {
        assert!(window > 0, "streaming window must be at least one round");
        StreamingConfig {
            window,
            mode: StreamingMode::Exact,
            commit: CommitPolicy::PerRound,
        }
    }

    /// A fused-mode configuration: commits decode only the retained
    /// window (plus `overlap` rounds of committed context) on a
    /// round-sliced graph view.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn fused(window: u32, overlap: u32) -> StreamingConfig {
        assert!(window > 0, "streaming window must be at least one round");
        StreamingConfig {
            window,
            mode: StreamingMode::Fused { overlap },
            commit: CommitPolicy::PerRound,
        }
    }

    /// Replaces the commit policy (default [`CommitPolicy::PerRound`]).
    ///
    /// # Panics
    ///
    /// Panics if a strided policy has a zero stride.
    pub fn commit(mut self, policy: CommitPolicy) -> StreamingConfig {
        if let CommitPolicy::Strided { stride } = policy {
            assert!(stride > 0, "commit stride must be at least one round");
        }
        self.commit = policy;
        self
    }

    /// The window size `W`.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The decode mode.
    pub fn mode(&self) -> StreamingMode {
        self.mode
    }

    /// The commit policy.
    pub fn commit_policy(&self) -> CommitPolicy {
        self.commit
    }

    /// Builds the streaming decoder for this configuration. The round
    /// schedule tells fused mode which detectors belong to which round
    /// (exact mode carries no per-round state, but takes the schedule
    /// uniformly so callers never branch on the mode).
    pub fn build<D: Decoder>(self, decoder: D, schedule: &RoundSchedule) -> StreamingDecoder<D> {
        StreamingDecoder::with_config(decoder, self, schedule)
    }
}

/// One block of finalized rounds emitted by [`StreamingDecoder`]: the
/// correction contribution of these rounds will never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundCommit {
    /// Index of the newest round being finalized (0-based; with the
    /// per-round commit policy, exactly the single finalized round).
    pub round: u32,
    /// Observable-flip delta contributed by this commit (bit `i` =
    /// observable `i`). XOR-ing the `correction` of every commit of a
    /// shot yields the shot's full streamed correction.
    pub correction: u32,
    /// Running XOR of every correction committed so far this shot. In
    /// exact mode this is, after the last commit, exactly the batch
    /// decode of the full syndrome; in fused mode it is the windowed
    /// estimate of it.
    pub cumulative: u32,
    /// Fusion provenance: defects from already-committed rounds that
    /// the window carried across the trailing boundary as context for
    /// this commit's decode. Always `0` in exact mode, and `0` on
    /// steady-state fused commits with `overlap: 0`.
    pub boundary_defects: u32,
    /// Fusion provenance: cut edges of the materialized window view —
    /// edges leaving the window that were remapped to
    /// artificial-boundary terminals (the stitching surface). `0` in
    /// exact mode and on commits that never materialized a view
    /// (memoized or table-decoded).
    pub stitched_edges: u32,
}

/// Exact-mode state: the accumulated syndrome prefix and its memoized
/// decode.
struct ExactState {
    /// Accumulated syndrome prefix (sorted ascending).
    syndrome: Vec<u32>,
    /// Decode of `syndrome`, valid only when `running_valid`.
    running: u32,
    running_valid: bool,
}

enum ModeState {
    Exact(ExactState),
    /// Boxed: the fusion core is ~10x the exact state.
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
/// afterwards. Configure it with [`StreamingConfig`] (window, mode,
/// commit policy); per shot:
/// [`begin_shot`](StreamingDecoder::begin_shot), then
/// [`push_round`](StreamingDecoder::push_round) per round, then
/// [`finish_shot`](StreamingDecoder::finish_shot) to drain the tail.
/// [`count_batch_errors_streaming`] is the batch-driver form.
///
/// # Exact mode: fusion by telescoping, not truncation
///
/// In [`StreamingMode::Exact`], every commit decodes the full
/// *accumulated prefix* of the syndrome and emits the XOR **delta**
/// against the corrections already committed. Deltas telescope —
/// XOR-ing every committed correction of a shot yields exactly
/// `decode(full syndrome)` — so the stream is bit-identical to batch
/// decoding *by construction, for any `Decoder`*, which is what lets
/// the identity tests pin all four decoder families. The window size
/// `W` carries the real-time semantics: round `r` is finalized once
/// round `r + W - 1` has arrived (lookahead `W - 1`), so `W = 1`
/// commits every round on arrival and `W ≥` total rounds degenerates
/// to batch decoding. The cost: each commit's decode spans the whole
/// prefix, so late rounds decode the entire shot's syndrome.
///
/// # Fused mode: O(window) per round
///
/// In [`StreamingMode::Fused`], commits decode only the *retained*
/// defects — the last `W + overlap` rounds — against a round-sliced
/// [`WindowView`](crate::WindowView) of the decoding graph whose cut
/// edges become artificial-boundary terminals. Defects that scroll
/// out are expelled: the decoder decodes the window once with them and
/// once without, and the XOR difference is frozen into a prefix mask,
/// so committed deltas keep telescoping. The estimate equals the batch
/// decode whenever no expelled defect would have re-paired with a
/// later one — windows at least as wide as the error diameter make
/// disagreements rare (the `fusion-accuracy` harness measures the
/// residual LER delta) — and a window covering the whole shot is
/// bit-identical, because nothing is ever expelled before the
/// end-of-shot drain.
///
/// Both modes keep the steady state cheap and allocation-free:
/// commits only invoke the decoder when the relevant syndrome changed
/// since the last decode (a defect-free round costs one XOR), the
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
/// let mut stream = StreamingConfig::exact(2).build(&decoder, &schedule); // W = 2
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
///     let streamed = stream.finish_shot();
///     // Exact mode: bit-identical to batch-decoding the whole shot:
///     let mut full = Vec::new();
///     batch.flagged_detectors_into(s, &mut full);
///     assert_eq!(streamed, decoder.predict(&full));
/// }
/// ```
pub struct StreamingDecoder<D> {
    decoder: D,
    config: StreamingConfig,
    scratch: DecoderScratch,
    mode: ModeState,
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
    /// schedule, for fused mode), so decoding streams with zero heap
    /// allocations from the very first round.
    fn with_config(
        decoder: D,
        config: StreamingConfig,
        schedule: &RoundSchedule,
    ) -> StreamingDecoder<D> {
        assert!(
            config.window > 0,
            "streaming window must be at least one round"
        );
        // analyzer: allow(alloc) -- constructor: one-time presizing of
        // the scratch and streaming buffers; the push/commit path
        // reuses them allocation-free.
        let scratch = DecoderScratch::for_decoder(&decoder);
        let cap = decoder.scratch_capacity();
        let mode = match config.mode {
            StreamingMode::Exact => ModeState::Exact(ExactState {
                syndrome: Vec::with_capacity(cap.nodes as usize),
                running: 0,
                running_valid: false,
            }),
            StreamingMode::Fused { overlap } => {
                ModeState::Fused(Box::new(FusionCore::new(overlap, schedule)))
            }
        };
        // analyzer: end-allow(alloc)
        StreamingDecoder {
            decoder,
            config,
            scratch,
            mode,
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
        match &mut self.mode {
            ModeState::Exact(e) => {
                e.syndrome.clear();
                e.running = 0;
                e.running_valid = false;
            }
            ModeState::Fused(f) => f.reset(),
        }
        self.emitted = 0;
        self.pushed = 0;
        self.committed = 0;
    }

    /// Feeds the next round's flagged detectors (sorted ascending, as
    /// [`RoundStream`] emits them). Returns the commit finalizing the
    /// oldest pending rounds when the window (plus any commit stride)
    /// is full, `None` while it is still filling.
    ///
    /// Rounds may arrive with detector indices below already-pushed
    /// ones (misaligned streams à la block synchronization); the
    /// retained defect set is re-sorted in place in that case, off the
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
        match &mut self.mode {
            ModeState::Exact(e) => {
                if !defects.is_empty() {
                    let in_order = e.syndrome.last().is_none_or(|&last| defects[0] > last);
                    e.syndrome.extend_from_slice(defects);
                    if !in_order {
                        e.syndrome.sort_unstable();
                    }
                    e.running_valid = false;
                }
            }
            ModeState::Fused(f) => f.push(defects),
        }
        self.pushed += 1;
        let (stride, threshold) = match self.config.commit {
            CommitPolicy::PerRound => (1, self.config.window),
            CommitPolicy::Strided { stride } => (stride, self.config.window + stride - 1),
        };
        if self.pushed - self.committed >= threshold {
            Some(self.commit_block(stride, true))
        } else {
            None
        }
    }

    /// Commits the oldest pending rounds (one, or up to the commit
    /// stride) without pushing a new round — `None` when nothing is
    /// pending. [`finish_shot`] drains the tail with this at end of
    /// stream; calling it early shrinks the effective lookahead of the
    /// rounds it flushes. Flush commits never expel fused context (the
    /// remaining rounds are decoded jointly), which is what makes a
    /// window covering the whole shot exactly batch-equivalent.
    ///
    /// [`finish_shot`]: StreamingDecoder::finish_shot
    pub fn flush_round(&mut self) -> Option<RoundCommit> {
        let pending = self.pushed - self.committed;
        if pending == 0 {
            return None;
        }
        let stride = match self.config.commit {
            CommitPolicy::PerRound => 1,
            CommitPolicy::Strided { stride } => stride,
        };
        Some(self.commit_block(stride.min(pending), false))
    }

    /// Flushes every pending round and returns the shot's total
    /// correction. In exact mode this is bit-identical to
    /// batch-decoding the full accumulated syndrome in one
    /// [`Decoder::decode_into`] call; in fused mode it is the windowed
    /// estimate (equal to batch whenever nothing was expelled).
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

    /// Finalizes the block of `k` pending rounds ending at round
    /// `committed + k - 1`. `slide` distinguishes the steady-state
    /// push path (fused mode advances the trailing boundary, expelling
    /// and freezing old defects) from the flush path (context is kept,
    /// so the remaining rounds decode jointly).
    fn commit_block(&mut self, k: u32, slide: bool) -> RoundCommit {
        let c_last = self.committed + k - 1;
        let StreamingDecoder {
            decoder,
            scratch,
            mode,
            pushed,
            empty_pred,
            decodes,
            ..
        } = self;
        let (estimate, boundary_defects, stitched_edges, defects_held) = match mode {
            ModeState::Exact(e) => {
                exact_running(decoder, scratch, e, empty_pred, decodes);
                (e.running, 0, 0, e.syndrome.len())
            }
            ModeState::Fused(f) => {
                let (a, fresh) = fused_estimate(decoder, scratch, f, *pushed, empty_pred, decodes);
                let estimate = f.frozen ^ a;
                let stitched = if fresh { f.view.cut_edges() } else { 0 };
                if slide {
                    let new_alo = (c_last + 1).saturating_sub(f.overlap);
                    let moved = new_alo > f.alo;
                    f.slide_to(new_alo);
                    if moved {
                        // Freeze the expelled prefix. This runs on
                        // *every* boundary advance, not only when
                        // defects were expelled: sliding shrinks the
                        // view, and the same active set can decode
                        // differently once the trailing rounds become
                        // cut edges. Folding `a ^ b` into the mask
                        // keeps the estimate continuous
                        // (frozen' ^ B = frozen ^ A); an empty active
                        // set short-circuits to the memoized empty
                        // prediction, so the fold is free there.
                        let (b, _) =
                            fused_estimate(decoder, scratch, f, *pushed, empty_pred, decodes);
                        f.frozen ^= a ^ b;
                    }
                }
                (
                    estimate,
                    f.carried(c_last + 1),
                    stitched,
                    f.active_len(),
                )
            }
        };
        let delta = estimate ^ self.emitted;
        self.emitted = estimate;
        self.committed = c_last + 1;
        // Explicitly gated so the disabled path pays one relaxed load and
        // never builds the argument arrays — this sits inside the ~40 ns
        // defect-free round commit that `decode-latency` gates in CI.
        if ftqc_telemetry::enabled() {
            ftqc_telemetry::instant(
                "stream/commit",
                &[
                    ftqc_telemetry::Arg::new("round", c_last as f64),
                    ftqc_telemetry::Arg::new("occupancy", (self.pushed - c_last) as f64),
                    ftqc_telemetry::Arg::new("decodes", self.decodes as f64),
                    ftqc_telemetry::Arg::new("prefix_defects", defects_held as f64),
                ],
            );
            if matches!(self.mode, ModeState::Fused(_)) {
                ftqc_telemetry::instant(
                    "stream/fuse",
                    &[
                        ftqc_telemetry::Arg::new("round", c_last as f64),
                        ftqc_telemetry::Arg::new("boundary_defects", boundary_defects as f64),
                        ftqc_telemetry::Arg::new("stitched_edges", stitched_edges as f64),
                        ftqc_telemetry::Arg::new("active", defects_held as f64),
                    ],
                );
            }
        }
        RoundCommit {
            round: c_last,
            correction: delta,
            cumulative: self.emitted,
            boundary_defects,
            stitched_edges,
        }
    }
}

/// Makes `e.running` the decode of the exact mode's accumulated
/// syndrome (memoizing the empty syndrome in `empty_pred`).
fn exact_running<D: Decoder>(
    decoder: &D,
    scratch: &mut DecoderScratch,
    e: &mut ExactState,
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

/// The fused window estimate `A = decode(active defects on the current
/// window view)`, memoized: an empty active set rides the shared
/// empty-syndrome memo, an unchanged (view, active) pair returns the
/// cached decode, and only genuinely new windows invoke the decoder.
/// Returns `(A, fresh)` where `fresh` marks a real windowed decode
/// (the only case with meaningful stitched-edge provenance).
fn fused_estimate<D: Decoder>(
    decoder: &D,
    scratch: &mut DecoderScratch,
    f: &mut FusionCore,
    pushed: u32,
    empty_pred: &mut Option<u32>,
    decodes: &mut u64,
) -> (u32, bool) {
    if f.active_len() == 0 {
        let p = *empty_pred.get_or_insert_with(|| {
            let mut p = 0u32;
            decoder.decode_into(scratch, &[], &mut p);
            *decodes += 1;
            p
        });
        return (p, false);
    }
    if f.cached_valid {
        return (f.cached, false);
    }
    f.prepare(pushed);
    let local = std::mem::take(&mut f.local);
    let mut a = 0u32;
    decoder.decode_window_into(scratch, &mut f.view, &local, &mut a);
    f.local = local;
    *decodes += 1;
    f.cached = a;
    f.cached_valid = true;
    (a, true)
}

/// [`count_batch_errors`](crate::count_batch_errors), but every shot is
/// decoded through the streaming path: rounds are extracted one at a
/// time by a per-worker [`RoundStream`] and pushed through a
/// per-worker [`StreamingDecoder`] built from `config`, and the shot's
/// prediction is the XOR of its committed corrections.
///
/// With an exact-mode config, streaming commits telescope to the batch
/// decode, so the returned per-batch error counts are bit-identical to
/// [`count_batch_errors`](crate::count_batch_errors) on the same plan
/// for any window — the decoder-crate identity tests enforce this for
/// all four decoder kinds. With a fused-mode config the counts differ
/// by the fusion accuracy delta, which the `fusion-accuracy` harness
/// measures per decoder family. Steady-state shots allocate nothing
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
