//! Streaming decoding: [`StreamingConfig`], [`StreamingDecoder`],
//! [`RoundCommit`] and the [`count_batch_errors_streaming`] driver.
//!
//! A stream decodes only a window of rounds. A graph decoder's
//! [`decode_window_into`](Decoder::decode_window_into) runs in place on
//! the full [`DecodingGraph`], restricted to the window's detector
//! range `[dlo, dhi)`, and returns global edge ids; nothing is copied
//! per decode. Per-round decode cost is therefore O(window),
//! independent of how long the stream has been running: the property
//! the paper's real-time decode budget needs and a full-prefix
//! re-decode cannot provide. Streaming is a graph-decoder feature:
//! table decoders have no correction edges to commit, and
//! [`StreamingConfig::build`] rejects them.
//!
//! Commits follow the forward-window scheme of Skoric et al.
//! (*Parallel window decoding enables scalable fault tolerant quantum
//! computation*, Nat. Commun. 2023). A graph decoder returns the edges
//! of its correction, not just their observable mask. Each commit
//! finalizes one round and keeps, of the window's correction, every
//! edge with an endpoint in a committed or the committing round; its
//! observables are the commit's correction. The other endpoint of such
//! an edge lies in an uncommitted round and becomes an *artificial
//! defect* there, XOR-ed into that round's real defects, so the next
//! window corrects what the commit left over. Edges wholly inside the
//! uncommitted rounds are kept for later commits, and are re-decoded
//! only once new defects arrive. The range skips the edges leaving it
//! downward, so a commit never flips a finalized detector again, and
//! `overlap` committed rounds stay in it as defect-free context. Edges
//! leaving it upward (its *cut edges*) end at the boundary. Every real
//! defect is therefore corrected exactly once, the commits' corrections
//! XOR to the stream's estimate, and a window that never commits
//! before the end of the shot decodes it in one batch decode.

use crate::evaluate::Decoder;
use crate::graph::{cancel_pairs, DecodingGraph, EdgeRecord, NO_NODE};
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
    /// Each commit decodes at most one window of rounds: the
    /// uncommitted rounds plus `overlap` committed rounds kept behind
    /// the committing round as defect-free context. The
    /// `fusion-accuracy` harness measures the resulting accuracy delta
    /// against batch decoding.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn fused(window: u32, overlap: u32) -> StreamingConfig {
        assert!(window > 0, "streaming window must be at least one round");
        StreamingConfig { window, overlap }
    }

    /// Builds the streaming decoder for this configuration. The round
    /// schedule tells the decoder which detectors belong to which
    /// round.
    ///
    /// The scratch is preallocated with
    /// [`DecoderScratch::for_decoder`] and every streaming buffer is
    /// presized from the decoder's declared
    /// [`scratch_capacity`](Decoder::scratch_capacity) and the round
    /// schedule, so decoding streams with zero heap allocations from
    /// the very first round.
    ///
    /// # Panics
    ///
    /// Panics if `decoder` has no decoding graph: table decoders
    /// ([`LutDecoder`](crate::LutDecoder),
    /// [`HierarchicalDecoder`](crate::HierarchicalDecoder)) decline
    /// [`Decoder::decode_window_into`], so they have no correction
    /// edges to commit.
    pub fn build<D: Decoder>(self, decoder: D, schedule: &RoundSchedule) -> StreamingDecoder<D> {
        let mut scratch = DecoderScratch::for_decoder(&decoder);
        let cap = decoder.scratch_capacity();
        // analyzer: allow(alloc) -- constructor: one-time copy of the
        // round schedule, the cut-edge table and presizing of the
        // defect and edge buffers; the push/commit path reuses them
        // allocation-free.
        let mut edges = Vec::with_capacity(cap.correction_edges());
        // An empty window decode tells graph decoders, which return
        // their graph, from table decoders, which decline.
        let graph = decoder
            .decode_window_into(&mut scratch, (0, 0), &[], &mut edges)
            .expect(
                "streaming needs a decoder with a decoding graph \
                 (table decoders decline `decode_window_into`)",
            );
        let cuts = CutTable::new(graph, schedule);
        let pending = Vec::with_capacity(cap.nodes as usize + cap.edges as usize);
        let retained = Vec::with_capacity(cap.edges as usize);
        let schedule = schedule.clone();
        // analyzer: end-allow(alloc)
        StreamingDecoder {
            decoder,
            config: self,
            scratch,
            schedule,
            cuts,
            pending,
            edges,
            retained,
            valid: true,
            ahead: false,
            emitted: 0,
            pushed: 0,
            committed: 0,
            decodes: 0,
            node_bound: cap.nodes,
        }
    }
}

/// The cut edges of every window a stream decodes, counted once up
/// front. A window ends at the end of one of the schedule's rounds;
/// for each such end `h`, `lower` lists the `u` endpoints of the
/// internal edges with `u < h <= v`, ascending, so the cut edges of
/// `[dlo, h)` are the listed endpoints at or above `dlo`.
struct CutTable {
    /// The distinct round ends, ascending.
    ends: Vec<u32>,
    /// `lower[off[i]..off[i + 1]]` belongs to `ends[i]`.
    off: Vec<u32>,
    lower: Vec<u32>,
}

impl CutTable {
    fn new(graph: &DecodingGraph, schedule: &RoundSchedule) -> CutTable {
        // analyzer: allow(alloc) -- constructor: one counting sort of
        // the graph's internal edges by the round ends they cross.
        let mut ends: Vec<u32> = (0..schedule.num_rounds())
            .map(|r| schedule.round_envelope(r).1)
            .collect();
        ends.sort_unstable();
        ends.dedup();
        // The indices of the ends in `(u, v]`.
        let crossed = |r: &EdgeRecord| {
            ends.partition_point(|&h| h <= r.u)..ends.partition_point(|&h| h <= r.v)
        };
        let internal = || graph.records().iter().filter(|r| r.v != NO_NODE);
        let mut off = vec![0u32; ends.len() + 1];
        for i in internal().flat_map(crossed) {
            off[i + 1] += 1;
        }
        for i in 0..ends.len() {
            off[i + 1] += off[i];
        }
        // Edges sort by `u`, so every list fills in ascending order.
        let mut fill = off.clone();
        let mut lower = vec![0u32; off[ends.len()] as usize];
        for r in internal() {
            for i in crossed(r) {
                lower[fill[i] as usize] = r.u;
                fill[i] += 1;
            }
        }
        // analyzer: end-allow(alloc)
        CutTable { ends, off, lower }
    }

    /// Cut edges of the window `[dlo, dhi)`: the internal edges with
    /// `dlo <= u < dhi <= v`.
    fn count(&self, dlo: u32, dhi: u32) -> u32 {
        let i = self
            .ends
            .binary_search(&dhi)
            .expect("a window ends at a round's end");
        let lower = &self.lower[self.off[i] as usize..self.off[i + 1] as usize];
        (lower.len() - lower.partition_point(|&u| u < dlo)) as u32
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
/// A commit decodes only the window's rounds, in place on the decoding
/// graph restricted to their detector range, and commits its
/// correction edges forward (DESIGN.md, "Graph decoders:
/// forward-window commits", carries the argument). The window size
/// `W` carries the real-time semantics: round `r` is finalized once
/// round `r + W - 1` has arrived (lookahead `W - 1`), so `W = 1`
/// commits every round on arrival. A commit runs at most one window
/// decode, and none when no new defect arrived since the last one. The
/// estimate is approximate — a commit cannot see defects more than
/// `W - 1` rounds ahead — and the `fusion-accuracy` harness measures
/// the residual LER delta; a window covering the whole shot commits
/// nothing before the end-of-shot drain, which decodes the shot once,
/// so it is bit-identical to batch decoding.
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
    schedule: RoundSchedule,
    cuts: CutTable,
    // Invariant: `pending` is the syndrome the uncommitted rounds still
    // need corrected — their real defects XOR the artificial defects
    // earlier commits carried forward — and while `valid`, `retained`
    // is a correction of the `pending` defects in the last decode's
    // window.
    /// Defects of uncommitted rounds, ascending.
    pending: Vec<u32>,
    /// Scratch: the edge ids of the last window decode.
    edges: Vec<u32>,
    /// Edges of the last decode no commit has taken yet.
    retained: Vec<EdgeRecord>,
    /// Whether `retained` still corrects `pending`.
    valid: bool,
    /// Whether an edge of the last decode left its window upward, so
    /// that the next round to arrive reaches it.
    ahead: bool,
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
    /// Resets per-shot state (buffers keep their capacity).
    pub fn begin_shot(&mut self) {
        self.pending.clear();
        self.retained.clear();
        self.valid = true;
        self.ahead = false;
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
        // New defects, or a round that an edge of the last decode
        // reached, invalidate that decode.
        if !defects.is_empty() || self.ahead {
            self.valid = false;
        }
        let in_order = self
            .pending
            .last()
            .is_none_or(|&last| defects.first().is_none_or(|&d| d > last));
        self.pending.extend_from_slice(defects);
        if !in_order {
            cancel_pairs(&mut self.pending);
        }
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

    /// The configured window size `W`.
    pub fn window(&self) -> u32 {
        self.config.window
    }

    /// Commits `round`, the oldest uncommitted one: decodes the window
    /// of rounds `[round - overlap, pushed)` when the retained
    /// correction is stale, takes every retained edge with an endpoint
    /// in a round up to `round`, and carries the uncommitted endpoints
    /// of those edges forward as artificial defects.
    fn commit_round(&mut self) -> RoundCommit {
        let round = self.committed;
        let mut stitched_edges = 0;
        if !self.valid {
            self.valid = true;
            self.ahead = false;
            self.retained.clear();
            let (dlo, dhi) = self
                .schedule
                .window_envelope(round.saturating_sub(self.config.overlap), self.pushed);
            // Artificial defects in rounds not yet arrived wait for them.
            let arrived = self.pending.partition_point(|&d| d < dhi);
            if arrived > 0 {
                let graph = self
                    .decoder
                    .decode_window_into(
                        &mut self.scratch,
                        (dlo, dhi),
                        &self.pending[..arrived],
                        &mut self.edges,
                    )
                    .expect("graph decoders decode every window");
                for &e in &self.edges {
                    let r = graph.records()[e as usize];
                    // A window edge's `u` is in range; a cut edge's `v` is beyond it.
                    self.ahead |= r.v != NO_NODE && r.v >= dhi;
                    self.retained.push(r);
                }
                self.decodes += 1;
                stitched_edges = self.cuts.count(dlo, dhi);
            }
        }
        let schedule = &self.schedule;
        let committed = |d: u32| d != NO_NODE && schedule.round_of(d) <= round;
        self.pending.retain(|&d| !committed(d));
        let (mut correction, mut boundary_defects) = (0, 0);
        let pending = &mut self.pending;
        self.retained.retain(|e| {
            if !committed(e.u) && !committed(e.v) {
                return true;
            }
            correction ^= e.observables;
            for x in [e.u, e.v] {
                if x != NO_NODE && !committed(x) {
                    pending.push(x);
                    boundary_defects += 1;
                }
            }
            false
        });
        if boundary_defects > 0 {
            cancel_pairs(&mut self.pending);
        }
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
                    ftqc_telemetry::Arg::new("active", self.pending.len() as f64),
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
