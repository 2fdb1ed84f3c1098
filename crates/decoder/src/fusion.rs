//! Windowed fusion: the forward-window commit state behind a graph
//! decoder's [`StreamingDecoder`](crate::StreamingDecoder).
//!
//! Fused streaming decodes only a window of rounds. A graph decoder's
//! [`decode_window_into`](crate::Decoder::decode_window_into) runs in
//! place on the full [`DecodingGraph`], restricted to the window's
//! detector range `[dlo, dhi)`, and returns global edge ids; nothing is
//! copied per decode. Per-round decode cost is therefore O(window),
//! independent of how long the stream has been running: the property
//! the paper's real-time decode budget needs and a full-prefix
//! re-decode cannot provide.
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
use crate::scratch::{DecoderScratch, ScratchCapacity};
use ftqc_sim::RoundSchedule;

/// The cut edges of every window a fused stream decodes, counted once
/// up front. A window ends at the end of one of the schedule's rounds;
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

/// One fused commit: what [`FusionCore::commit`] finalized.
pub(crate) struct FusedCommit {
    /// XOR of the committed edges' observables.
    pub(crate) correction: u32,
    /// Artificial defects handed to uncommitted rounds.
    pub(crate) carried: u32,
    /// Cut edges of the window this commit decoded (0 when it reused
    /// an earlier decode).
    pub(crate) stitched: u32,
    /// Whether the commit ran a window decode.
    pub(crate) decoded: bool,
}

/// Forward-window commit state of one streaming decoder.
///
/// Invariant: `pending` is the syndrome the uncommitted rounds still
/// need corrected — their real defects XOR the artificial defects
/// earlier commits carried forward — and while `valid`, `retained` is
/// a correction of the `pending` defects in the last decode's window.
pub(crate) struct FusionCore {
    /// Committed rounds kept in the window as context.
    overlap: u32,
    schedule: RoundSchedule,
    cuts: CutTable,
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
}

impl FusionCore {
    /// The fused state for `decoder`, or `None` for a decoder without
    /// edge output (a table decoder), which streams through the prefix
    /// path instead.
    pub(crate) fn new<D: Decoder>(
        decoder: &D,
        scratch: &mut DecoderScratch,
        overlap: u32,
        schedule: &RoundSchedule,
        cap: ScratchCapacity,
    ) -> Option<FusionCore> {
        // analyzer: allow(alloc) -- constructor: one-time copy of the
        // round schedule, the cut-edge table and presizing of the
        // defect and edge buffers; the push/commit path reuses them
        // allocation-free.
        let mut edges = Vec::with_capacity(cap.correction_edges());
        // An empty window decode tells graph decoders, which return
        // their graph, from table decoders, which decline.
        let graph = decoder.decode_window_into(scratch, (0, 0), &[], &mut edges)?;
        Some(FusionCore {
            overlap,
            schedule: schedule.clone(),
            cuts: CutTable::new(graph, schedule),
            pending: Vec::with_capacity(cap.nodes as usize + cap.edges as usize),
            edges,
            retained: Vec::with_capacity(cap.edges as usize),
            valid: true,
            ahead: false,
        })
        // analyzer: end-allow(alloc)
    }

    /// Resets per-shot state (buffers keep their capacity).
    pub(crate) fn reset(&mut self) {
        self.pending.clear();
        self.retained.clear();
        self.valid = true;
        self.ahead = false;
    }

    /// XORs one round's defects into the pending syndrome. New defects,
    /// or a round that an edge of the last decode reached, invalidate
    /// that decode.
    pub(crate) fn push(&mut self, defects: &[u32]) {
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
    }

    /// Number of pending defects.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Commits round `round`, the oldest uncommitted one, with rounds
    /// up to `pushed` arrived: decodes the window when the retained
    /// correction is stale, takes every retained edge with an endpoint
    /// in a round up to `round`, and carries the uncommitted endpoints
    /// of those edges forward as artificial defects.
    pub(crate) fn commit<D: Decoder>(
        &mut self,
        decoder: &D,
        scratch: &mut DecoderScratch,
        round: u32,
        pushed: u32,
    ) -> FusedCommit {
        let (decoded, stitched) = if self.valid {
            (false, 0)
        } else {
            self.decode(decoder, scratch, round, pushed)
        };
        let schedule = &self.schedule;
        let committed = |d: u32| d != NO_NODE && schedule.round_of(d) <= round;
        self.pending.retain(|&d| !committed(d));
        let (mut correction, mut carried) = (0, 0);
        let pending = &mut self.pending;
        self.retained.retain(|e| {
            if !committed(e.u) && !committed(e.v) {
                return true;
            }
            correction ^= e.observables;
            for x in [e.u, e.v] {
                if x != NO_NODE && !committed(x) {
                    pending.push(x);
                    carried += 1;
                }
            }
            false
        });
        if carried > 0 {
            cancel_pairs(&mut self.pending);
        }
        FusedCommit {
            correction,
            carried,
            stitched,
            decoded,
        }
    }

    /// Decodes the pending defects on the window of rounds
    /// `[round - overlap, pushed)` into `retained`. Returns whether the
    /// decoder ran and the window's cut-edge count.
    fn decode<D: Decoder>(
        &mut self,
        decoder: &D,
        scratch: &mut DecoderScratch,
        round: u32,
        pushed: u32,
    ) -> (bool, u32) {
        self.valid = true;
        self.ahead = false;
        self.retained.clear();
        let (dlo, dhi) = self
            .schedule
            .window_envelope(round.saturating_sub(self.overlap), pushed);
        // Artificial defects in rounds not yet arrived wait for them.
        let arrived = self.pending.partition_point(|&d| d < dhi);
        if arrived == 0 {
            return (false, 0);
        }
        let graph = decoder
            .decode_window_into(
                scratch,
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
        (true, self.cuts.count(dlo, dhi))
    }
}
