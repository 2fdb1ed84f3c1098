//! Windowed fusion: round-sliced graph views and the forward-window
//! commit state behind [`StreamingMode::Fused`](crate::StreamingMode).
//!
//! Fused streaming decodes only a window of rounds against a
//! [`WindowView`] — a compact sub-graph of the full [`DecodingGraph`]
//! rebuilt in place from the CSR arenas — so per-round decode cost is
//! O(window), independent of how long the stream has been running:
//! the property the paper's real-time decode budget needs and the
//! full-prefix exact mode cannot provide.
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
//! only once new defects arrive. The view omits the edges it would cut
//! on its committed side, so a commit never flips a finalized detector
//! again, and `overlap` committed rounds stay in it as defect-free
//! context. Every real defect is therefore corrected exactly once, the
//! commits' corrections XOR to the stream's estimate, and a window
//! that never commits before the end of the shot decodes it in one
//! batch decode.

use crate::evaluate::Decoder;
use crate::graph::{cancel_pairs, DecodingGraph, EdgeRecord, NO_NODE};
use crate::scratch::{DecoderScratch, ScratchCapacity};
use ftqc_sim::RoundSchedule;
use std::ops::Range;
use std::sync::Arc;

/// A round-sliced view of a [`DecodingGraph`], rebuilt in place.
///
/// The view covers a contiguous global-detector range `[dlo, dhi)`
/// (local node `i` = global detector `dlo + i`). Its edges are the run
/// of source edges leaving the range's detectors, so a view edge maps
/// to its source edge by an offset. Edges leaving the range upward
/// become boundary edges at their in-range endpoint (the view's *cut
/// edges*), and edges leaving it downward are omitted. The
/// view is *lazy*: [`set_range`](WindowView::set_range) only records
/// the range, and the graph decoder materializes the sub-graph when it
/// decodes the window. All buffers are reused across rebuilds, and
/// after the first build from a given source graph every rebuild is
/// allocation-free.
pub struct WindowView {
    /// Requested global-detector range (valid even when not built).
    dlo: u32,
    dhi: u32,
    /// Range the sub-graph was last materialized for.
    built: (u32, u32),
    /// The graph the buffers are sized for and the view was built from.
    src: Option<Arc<DecodingGraph>>,
    graph: DecodingGraph,
    /// Source-graph index of view edge 0.
    first: u32,
    /// Cut edges of the last materialized range.
    cut: u32,
}

impl Default for WindowView {
    fn default() -> WindowView {
        // analyzer: allow(alloc) -- constructor: the empty buffers are
        // presized on the first build and reused for every rebuild.
        WindowView {
            dlo: 0,
            dhi: 0,
            built: (u32::MAX, u32::MAX),
            src: None,
            graph: DecodingGraph::empty(),
            first: 0,
            cut: 0,
        }
        // analyzer: end-allow(alloc)
    }
}

impl WindowView {
    /// An empty view; set its range, then hand it to a graph decoder's
    /// [`decode_window_into`](crate::Decoder::decode_window_into).
    pub fn new() -> WindowView {
        WindowView::default()
    }

    /// Records the requested global-detector range `[dlo, dhi)` without
    /// building anything.
    pub fn set_range(&mut self, dlo: u32, dhi: u32) {
        debug_assert!(dlo <= dhi);
        self.dlo = dlo;
        self.dhi = dhi;
    }

    /// First global detector of the window: view-local syndrome index
    /// `i` names global detector `first_detector() + i`.
    #[inline]
    pub fn first_detector(&self) -> u32 {
        self.dlo
    }

    /// Materializes the sub-graph of `src` for the requested range (a
    /// no-op when it is already built for exactly this range and
    /// source) and returns the run of source edges it holds, which
    /// slices any per-edge table of `src` down to the view. Graph
    /// decoders call this from their `decode_window_into`.
    pub(crate) fn ensure(&mut self, src: &Arc<DecodingGraph>) -> Range<usize> {
        if !self.src.as_ref().is_some_and(|s| Arc::ptr_eq(s, src)) {
            // First contact with this source graph: pre-size every
            // buffer to the source's arenas so rebuilds never allocate.
            self.graph.reserve_for_window_of(src);
            self.src = Some(Arc::clone(src));
            self.built = (u32::MAX, u32::MAX);
        }
        if self.built != (self.dlo, self.dhi) {
            (self.first, self.cut) = self.graph.rebuild_window(src, self.dlo, self.dhi);
            self.built = (self.dlo, self.dhi);
        }
        let first = self.first as usize;
        first..first + self.graph.records().len()
    }

    /// The sub-graph last materialized by a window decode.
    #[inline]
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// The record of view edge `e` in the source graph, where it is
    /// edge `e` plus the view's offset: its global endpoints and
    /// observables.
    pub fn source_record(&self, e: u32) -> EdgeRecord {
        let src = self.src.as_ref().expect("view materialized");
        src.records()[(self.first + e) as usize]
    }

    /// Cut edges of the last materialized range: edges leaving it
    /// upward, which the view turned into boundary edges (0 until a
    /// window decode materializes the view).
    #[inline]
    pub fn cut_edges(&self) -> u32 {
        self.cut
    }
}

/// One fused commit: what [`FusionCore::commit`] finalized.
pub(crate) struct FusedCommit {
    /// XOR of the committed edges' observables.
    pub(crate) correction: u32,
    /// Artificial defects handed to uncommitted rounds.
    pub(crate) carried: u32,
    /// Cut edges of the view this commit decoded (0 when it reused an
    /// earlier decode).
    pub(crate) stitched: u32,
    /// Whether the commit ran a window decode.
    pub(crate) decoded: bool,
}

/// Forward-window commit state of one streaming decoder.
///
/// Invariant: `pending` is the syndrome the uncommitted rounds still
/// need corrected — their real defects XOR the artificial defects
/// earlier commits carried forward — and while `valid`, `retained` is
/// a correction of the `pending` defects in the last decode's view.
pub(crate) struct FusionCore {
    /// Committed rounds kept in the view as context.
    overlap: u32,
    schedule: RoundSchedule,
    view: WindowView,
    /// Defects of uncommitted rounds, global ids, ascending.
    pending: Vec<u32>,
    /// Scratch: the pending defects inside the view, view-local.
    local: Vec<u32>,
    /// Scratch: the view-local edges of the last window decode.
    edges: Vec<u32>,
    /// Edges of the last decode no commit has taken yet, as global
    /// source records.
    retained: Vec<EdgeRecord>,
    /// Whether `retained` still corrects `pending`.
    valid: bool,
    /// Whether an edge of the last decode left its view upward, so
    /// that the next round to arrive reaches it.
    ahead: bool,
}

impl FusionCore {
    /// The fused state for `decoder`, or `None` for a decoder without
    /// edge output (a table decoder), which streams through the exact
    /// prefix path instead.
    pub(crate) fn new<D: Decoder>(
        decoder: &D,
        scratch: &mut DecoderScratch,
        overlap: u32,
        schedule: &RoundSchedule,
        cap: ScratchCapacity,
    ) -> Option<FusionCore> {
        // analyzer: allow(alloc) -- constructor: one-time copy of the
        // round schedule and presizing of the defect and edge buffers;
        // the push/commit path reuses them allocation-free.
        let nodes = cap.nodes as usize;
        let mut core = FusionCore {
            overlap,
            schedule: schedule.clone(),
            view: WindowView::new(),
            pending: Vec::with_capacity(nodes + cap.edges as usize),
            local: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(cap.correction_edges()),
            retained: Vec::with_capacity(cap.edges as usize),
            valid: true,
            ahead: false,
        };
        // analyzer: end-allow(alloc)
        // An empty window decode tells graph decoders, which also size
        // the view for their graph, from table decoders, which decline.
        decoder
            .decode_window_into(scratch, &mut core.view, &[], &mut core.edges)
            .then_some(core)
    }

    /// Resets per-shot state (buffers and the materialized view keep
    /// their capacity).
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

    /// Decodes the pending defects on the view of rounds
    /// `[round - overlap, pushed)` into `retained`. Returns whether the
    /// decoder ran and the view's cut-edge count.
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
        self.local.clear();
        // Artificial defects in rounds not yet arrived wait for them.
        self.local
            .extend(self.pending.iter().filter(|&&d| d < dhi).map(|&d| d - dlo));
        if self.local.is_empty() {
            return (false, 0);
        }
        self.view.set_range(dlo, dhi);
        let windowed =
            decoder.decode_window_into(scratch, &mut self.view, &self.local, &mut self.edges);
        debug_assert!(windowed, "graph decoders decode every window");
        for &e in &self.edges {
            let r = self.view.source_record(e);
            // A view edge's `u` is in view; a cut edge's `v` is beyond it.
            self.ahead |= r.v != NO_NODE && r.v >= dhi;
            self.retained.push(r);
        }
        (true, self.view.cut_edges())
    }
}
