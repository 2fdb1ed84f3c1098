//! Windowed fusion: round-sliced graph views and the frozen-prefix
//! fusion state behind [`StreamingMode::Fused`](crate::StreamingMode).
//!
//! True windowed fusion decodes only the *active* W-round detector
//! window against a [`WindowView`] — a compact sub-graph of the full
//! [`DecodingGraph`] rebuilt in place from the CSR arenas, with edges
//! that leave the window remapped to artificial-boundary terminals
//! (the *cut edges* that fusion stitches across). Per-round decode
//! cost is therefore O(window), independent of how long the stream has
//! been running — the property the paper's real-time decode budget
//! needs and the full-prefix exact mode cannot provide.
//!
//! Stitching is mask-only ("frozen-prefix telescoping"): when defects
//! scroll past the trailing window boundary they are *expelled* from
//! the active set, and the XOR difference between the window decode
//! with and without them is folded into a `frozen` prefix mask. The
//! running estimate is always `frozen ^ decode(active window)`, so
//! commit deltas telescope exactly like exact mode's — only the
//! estimate itself is approximate, because an expelled defect can no
//! longer re-pair with a defect that arrives later. The `overlap`
//! knob delays expulsion by that many rounds, trading window size for
//! accuracy; flush-path commits (end of shot) never expel, which is
//! what makes a window covering the whole shot degenerate to the batch
//! decode bit for bit.

use crate::graph::DecodingGraph;
use crate::union_find::quantize_capacity;
use ftqc_sim::RoundSchedule;

/// A round-sliced view of a [`DecodingGraph`], rebuilt in place.
///
/// The view covers a contiguous global-detector range `[dlo, dhi)`
/// (local node `i` = global detector `dlo + i`). It is *lazy*: the
/// streaming layer only records the requested range, and the sub-graph
/// is materialized by [`WindowView::ensure`] the first time a
/// graph-based decoder actually needs it — table decoders never pay
/// for a rebuild. All buffers are reused across rebuilds, and after
/// the first [`ensure`](WindowView::ensure) against a given source
/// graph every rebuild is allocation-free.
pub struct WindowView {
    /// Requested global-detector range (valid even when not built).
    dlo: u32,
    dhi: u32,
    /// Range the sub-graph was last materialized for.
    built: (u32, u32),
    /// Address of the source graph the buffers are sized for
    /// (`0` = never built).
    built_for: usize,
    graph: DecodingGraph,
    /// Quantized union-find growth capacities, index-parallel to the
    /// view's edge records.
    capacity: Vec<u32>,
    /// Cut edges of the last materialized range: edges whose far
    /// endpoint fell outside the window and became an
    /// artificial-boundary terminal.
    cut: u32,
}

impl WindowView {
    pub(crate) fn new() -> WindowView {
        // analyzer: allow(alloc) -- constructor: the empty buffers are
        // presized on first `ensure` and reused for every rebuild.
        WindowView {
            dlo: 0,
            dhi: 0,
            built: (u32::MAX, u32::MAX),
            built_for: 0,
            graph: DecodingGraph::empty(),
            capacity: Vec::new(),
            cut: 0,
        }
        // analyzer: end-allow(alloc)
    }

    /// Records the requested global-detector range without building
    /// anything; [`ensure`](WindowView::ensure) materializes it on
    /// demand.
    pub(crate) fn set_range(&mut self, dlo: u32, dhi: u32) {
        debug_assert!(dlo <= dhi);
        self.dlo = dlo;
        self.dhi = dhi;
    }

    /// First global detector of the window: view-local syndrome index
    /// `i` names global detector `first_detector() + i`. Valid without
    /// materializing the sub-graph, which is what lets table decoders
    /// remap a windowed syndrome back to global ids without ever
    /// building a view graph.
    #[inline]
    pub fn first_detector(&self) -> u32 {
        self.dlo
    }

    /// Requested global-detector range `[lo, hi)`.
    pub fn detector_range(&self) -> (u32, u32) {
        (self.dlo, self.dhi)
    }

    /// Materializes the sub-graph of `src` for the requested range (a
    /// no-op when it is already built for exactly this range and
    /// source). Graph-based decoders call this from their
    /// `decode_window_into`; afterwards [`graph`](WindowView::graph),
    /// [`uf_capacities`](WindowView::uf_capacities) and
    /// [`cut_edges`](WindowView::cut_edges) describe the view.
    pub fn ensure(&mut self, src: &DecodingGraph) -> &DecodingGraph {
        let key = src as *const DecodingGraph as usize;
        if self.built_for != key {
            // First contact with this source graph: pre-size every
            // buffer to the source's arenas so rebuilds never allocate.
            self.graph.reserve_for_window_of(src);
            let want = src.records().len();
            self.capacity
                .reserve(want.saturating_sub(self.capacity.len()));
            self.built_for = key;
            self.built = (u32::MAX, u32::MAX);
        }
        if self.built != (self.dlo, self.dhi) {
            self.cut = self.graph.rebuild_window(src, self.dlo, self.dhi);
            self.capacity.clear();
            self.capacity.extend(
                self.graph
                    .records()
                    .iter()
                    .map(|r| quantize_capacity(r.weight)),
            );
            self.built = (self.dlo, self.dhi);
        }
        &self.graph
    }

    /// The materialized sub-graph (call [`ensure`](WindowView::ensure)
    /// first).
    #[inline]
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// Quantized union-find growth capacities of the materialized
    /// sub-graph, index-parallel to its edge records — the same
    /// quantization the full-graph [`UfDecoder`](crate::UfDecoder)
    /// uses, so a full-range view decodes bit-identically.
    #[inline]
    pub fn uf_capacities(&self) -> &[u32] {
        &self.capacity
    }

    /// Cut edges of the last materialized range (0 until
    /// [`ensure`](WindowView::ensure) runs).
    #[inline]
    pub fn cut_edges(&self) -> u32 {
        self.cut
    }
}

/// Frozen-prefix fusion state for one streaming decoder.
///
/// Invariant: the current cumulative-correction estimate is
/// `frozen ^ decode(active defects on the current window view)`. All
/// mutation happens through the streaming layer, which is responsible
/// for keeping `frozen` consistent when it expels defects (decode with
/// them, decode without them, XOR the difference in).
pub(crate) struct FusionCore {
    /// Rounds of context retained behind the newest committed round.
    pub(crate) overlap: u32,
    /// Per-detector round index (flattened from the schedule).
    round_of: Vec<u32>,
    /// Per-round global-detector envelope `[lo, hi)`.
    env: Vec<(u32, u32)>,
    num_rounds: u32,
    pub(crate) view: WindowView,
    /// Retained (not yet expelled) defects, global ids, ascending.
    pub(crate) active: Vec<u32>,
    /// Scratch: the active set remapped to view-local ids.
    pub(crate) local: Vec<u32>,
    /// XOR contribution of every expelled defect prefix.
    pub(crate) frozen: u32,
    /// Oldest retained round (monotone non-decreasing).
    pub(crate) alo: u32,
    /// Memoized decode of the current (view, active) pair.
    pub(crate) cached: u32,
    pub(crate) cached_valid: bool,
}

impl FusionCore {
    pub(crate) fn new(overlap: u32, schedule: &RoundSchedule) -> FusionCore {
        // analyzer: allow(alloc) -- constructor: one-time flattening of
        // the round schedule and presizing of the defect buffers; the
        // push/slide/decode path reuses them allocation-free.
        let round_of: Vec<u32> = (0..schedule.num_detectors())
            .map(|d| schedule.round_of(d))
            .collect();
        let env: Vec<(u32, u32)> = (0..schedule.num_rounds())
            .map(|r| schedule.round_envelope(r))
            .collect();
        // analyzer: end-allow(alloc)
        FusionCore {
            overlap,
            round_of,
            env,
            num_rounds: schedule.num_rounds(),
            view: WindowView::new(),
            active: Vec::with_capacity(schedule.num_detectors() as usize),
            local: Vec::with_capacity(schedule.num_detectors() as usize),
            frozen: 0,
            alo: 0,
            cached: 0,
            cached_valid: false,
        }
    }

    /// Resets per-shot state (buffers and the materialized view keep
    /// their capacity).
    pub(crate) fn reset(&mut self) {
        self.active.clear();
        self.frozen = 0;
        self.alo = 0;
        self.cached_valid = false;
    }

    /// Absorbs one round's defects into the active set, keeping it
    /// sorted. Invalidates the decode memo whenever the next decode
    /// could differ (new defects, or an existing active set whose
    /// window grows with the push).
    pub(crate) fn push(&mut self, defects: &[u32]) {
        if defects.is_empty() {
            // An empty round still widens the window's round range; if
            // anything is active the next decode sees a larger view.
            if !self.active.is_empty() {
                self.cached_valid = false;
            }
            return;
        }
        let in_order = self.active.last().is_none_or(|&last| defects[0] > last);
        self.active.extend_from_slice(defects);
        if !in_order {
            self.active.sort_unstable();
        }
        self.cached_valid = false;
    }

    /// The round range the next window decode must cover: from the
    /// oldest retained round through the newest pushed round, widened
    /// (defensively) to span every active defect.
    fn decode_rounds(&self, pushed: u32) -> (u32, u32) {
        let mut rlo = self.alo;
        let mut rhi = pushed.min(self.num_rounds).max(rlo + 1);
        for &d in &self.active {
            let r = self.round_of[d as usize];
            rlo = rlo.min(r);
            rhi = rhi.max(r + 1);
        }
        (rlo, rhi)
    }

    /// Sets the view's detector range for the next decode and remaps
    /// the active set into view-local ids (in `self.local`). Call with
    /// a non-empty active set.
    pub(crate) fn prepare(&mut self, pushed: u32) {
        debug_assert!(!self.active.is_empty());
        let (rlo, rhi) = self.decode_rounds(pushed);
        let mut dlo = u32::MAX;
        let mut dhi = 0;
        for r in rlo..rhi {
            let (lo, hi) = self.env[r as usize];
            dlo = dlo.min(lo);
            dhi = dhi.max(hi);
        }
        debug_assert!(self.active.iter().all(|&d| d >= dlo && d < dhi));
        self.view.set_range(dlo, dhi);
        self.local.clear();
        self.local.extend(self.active.iter().map(|&d| d - dlo));
    }

    /// Advances the trailing window boundary to `new_alo`, expelling
    /// active defects from rounds before it. Returns the number of
    /// defects expelled; when it is non-zero the caller must fold the
    /// decode difference into `frozen`. A no-op (returning 0) when the
    /// boundary would not move forward.
    pub(crate) fn slide_to(&mut self, new_alo: u32) -> u32 {
        if new_alo <= self.alo {
            return 0;
        }
        let before = self.active.len();
        let round_of = &self.round_of;
        self.active.retain(|&d| round_of[d as usize] >= new_alo);
        self.alo = new_alo;
        self.cached_valid = false;
        (before - self.active.len()) as u32
    }

    /// Number of retained (active) defects.
    pub(crate) fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Active defects belonging to rounds older than `committed` — the
    /// cross-boundary context a fused commit carried forward.
    pub(crate) fn carried(&self, committed: u32) -> u32 {
        self.active
            .iter()
            .filter(|&&d| self.round_of[d as usize] < committed)
            .count() as u32
    }
}
