//! The matching (decoding) graph, stored flat.
//!
//! The graph is built once per detector error model and then consumed
//! by every decode of every decoder family, so its layout *is* the
//! decode working set. Everything hot lives in flat, u32-indexed
//! arrays sized exactly from the graph:
//!
//! * adjacency is CSR (one offset array + one flat entry array of
//!   8-byte [`AdjEntry`] records, neighbor pre-resolved — no jagged
//!   `Vec<Vec<u32>>`, no per-node heap blocks);
//! * each edge is stored once, as a packed 24-byte [`EdgeRecord`]
//!   (endpoints as plain sentinel-coded u32s, weight, observable
//!   mask) — exactly what decoders read. Mechanism probabilities are
//!   folded into the weights at build time and not kept; they live in
//!   the detector error model the graph was built from;
//! * the Dijkstra workspace is an arena-backed *indexed* binary heap
//!   ([`DijkstraScratch`]) whose size is bounded by `nodes + 1` by
//!   construction — no lazy-deletion duplicates, no unbounded
//!   `BinaryHeap`.

use ftqc_sim::DetectorErrorModel;
use std::collections::HashMap;

/// Sentinel node index: "no node". Terminates intrusive lists and
/// encodes the virtual boundary endpoint in packed records.
pub const NO_NODE: u32 = u32::MAX;

/// An edge of the decoding graph: an independent error mechanism
/// connecting two detectors, or one detector and the boundary, packed
/// into 24 bytes. The boundary endpoint is [`NO_NODE`] rather than an
/// `Option`, so traversal is branch-light and the record has no
/// niche-layout surprises.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRecord {
    /// Log-likelihood weight `ln((1-p)/p)` of the merged mechanism
    /// probability `p`, clamped positive.
    pub weight: f64,
    /// First detector.
    pub u: u32,
    /// Second detector, or [`NO_NODE`] for a boundary edge.
    pub v: u32,
    /// Logical observables flipped when this edge is in the correction.
    pub observables: u32,
}

/// One CSR adjacency entry: 8 bytes. The far endpoint is pre-resolved
/// at build time, so traversals never branch on which end of the edge
/// record is "us".
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdjEntry {
    /// Index into [`DecodingGraph::records`].
    pub edge: u32,
    /// The other endpoint, or [`NO_NODE`] for a boundary edge.
    pub to: u32,
}

/// The decoding graph of a detector error model.
///
/// Nodes are detectors (`0 .. num_detectors`); a single virtual
/// boundary node absorbs all single-detector mechanisms. Parallel
/// mechanisms with identical endpoints and observable mask are merged
/// ("exactly one occurs"); mechanisms with more than two detectors are
/// dropped (`DemStats` counts them) — run DEM extraction with
/// decomposition enabled first. Edges are ordered by `u`, then boundary
/// edges before internal ones, then by `v` and observables. Every
/// internal edge has `u < v`, so an edge met from inside a detector
/// range `[dlo, dhi)` leaves it downward when its far end is below
/// `dlo` (such entries lead each CSR row) and upward when its `v` is at
/// or above `dhi`: the range rule of
/// [`Decoder::decode_window_into`](crate::Decoder::decode_window_into).
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    num_detectors: u32,
    /// The edge list, in edge-id order.
    rec: Vec<EdgeRecord>,
    /// CSR offsets: node `n`'s entries are `adj[adj_off[n]..adj_off[n + 1]]`
    /// (boundary edges listed under `u` only).
    adj_off: Vec<u32>,
    /// Flat CSR adjacency entries, ascending edge index per node.
    adj: Vec<AdjEntry>,
}

impl DecodingGraph {
    /// Builds the graph from a detector error model.
    ///
    /// Hyperedge mechanisms (more than 2 detectors) are excluded; with
    /// decomposition enabled upstream there should be none for
    /// surface-code circuits.
    pub fn from_dem(dem: &DetectorErrorModel) -> DecodingGraph {
        // analyzer: allow(alloc) -- constructor: runs once per DEM.
        let n = dem.num_detectors() as u32;
        // Merge parallel mechanisms by (endpoints, observables).
        let mut merged: HashMap<(u32, Option<u32>, u32), f64> = HashMap::new();
        for m in dem.mechanisms() {
            let key = match m.detectors.len() {
                0 => continue, // pure observable flips are not decodable
                1 => (m.detectors[0], None, m.observables),
                2 => {
                    let (a, b) = (m.detectors[0], m.detectors[1]);
                    (a.min(b), Some(a.max(b)), m.observables)
                }
                _ => continue, // not graphlike
            };
            let p = merged.entry(key).or_insert(0.0);
            *p = *p * (1.0 - m.probability) + m.probability * (1.0 - *p);
        }
        // `None < Some(_)`: boundary edges sort before internal ones.
        let mut classes: Vec<_> = merged.into_iter().collect();
        classes.sort_unstable_by_key(|&(key, _)| key);
        let rec = classes
            .into_iter()
            .map(|((u, v, observables), probability)| EdgeRecord {
                weight: weight_of(probability),
                u,
                v: v.unwrap_or(NO_NODE),
                observables,
            })
            .collect();
        // analyzer: end-allow(alloc)
        DecodingGraph::from_records(n, rec)
    }

    /// Builds the graph over `num_detectors` detectors whose edge `i`
    /// is `rec[i]`, deriving the CSR adjacency. [`from_dem`] is this
    /// with the DEM's merged mechanisms, sorted.
    ///
    /// [`from_dem`]: DecodingGraph::from_dem
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, an internal edge does not
    /// have `u < v` or the edges are not sorted by `u`: the order
    /// detector-range decodes rely on.
    pub fn from_records(num_detectors: u32, rec: Vec<EdgeRecord>) -> DecodingGraph {
        let n = num_detectors;
        assert!(
            rec.iter()
                .all(|r| r.u < n && (r.v == NO_NODE || (r.u < r.v && r.v < n)))
                && rec.windows(2).all(|w| w[0].u <= w[1].u),
            "edges must join detectors u < v and be sorted by u"
        );
        // analyzer: allow(alloc) -- constructor: runs once per graph.
        // CSR adjacency: count, prefix-sum, scatter. Scattering in
        // ascending edge order keeps each node's entries in ascending
        // edge index.
        let mut adj_off = vec![0u32; n as usize + 1];
        for r in &rec {
            adj_off[r.u as usize + 1] += 1;
            if r.v != NO_NODE {
                adj_off[r.v as usize + 1] += 1;
            }
        }
        for i in 0..n as usize {
            adj_off[i + 1] += adj_off[i];
        }
        let mut cursor: Vec<u32> = adj_off[..n as usize].to_vec();
        let mut adj = vec![AdjEntry { edge: 0, to: 0 }; adj_off[n as usize] as usize];
        for (i, r) in rec.iter().enumerate() {
            adj[cursor[r.u as usize] as usize] = AdjEntry {
                edge: i as u32,
                to: r.v,
            };
            cursor[r.u as usize] += 1;
            if r.v != NO_NODE {
                adj[cursor[r.v as usize] as usize] = AdjEntry {
                    edge: i as u32,
                    to: r.u,
                };
                cursor[r.v as usize] += 1;
            }
        }
        // analyzer: end-allow(alloc)
        DecodingGraph {
            num_detectors: n,
            rec,
            adj_off,
            adj,
        }
    }

    /// Number of detector nodes.
    pub fn num_detectors(&self) -> u32 {
        self.num_detectors
    }

    /// The edges, indexed by edge id.
    #[inline]
    pub fn records(&self) -> &[EdgeRecord] {
        &self.rec
    }

    /// CSR adjacency entries of detector `node` (boundary edges appear
    /// under their detector endpoint), in ascending edge index.
    #[inline]
    pub fn neighbors(&self, node: u32) -> &[AdjEntry] {
        &self.adj[self.adj_off[node as usize] as usize..self.adj_off[node as usize + 1] as usize]
    }

    /// [`neighbors`](DecodingGraph::neighbors) of `node` less the
    /// entries whose far end is below `dlo`, which leave a range
    /// starting at `dlo` downward. Edges sort by `u`, so those entries
    /// lead a row and cost one compare each to skip; over the full
    /// range the row is whole after one compare.
    #[inline]
    pub(crate) fn neighbors_from(&self, node: u32, dlo: u32) -> &[AdjEntry] {
        let row = self.neighbors(node);
        &row[row.iter().take_while(|a| a.to < dlo).count()..]
    }

    /// The observable mask of a correction: the XOR of the listed
    /// edges' [`EdgeRecord::observables`].
    pub fn observables_of(&self, edges: &[u32]) -> u32 {
        edges
            .iter()
            .fold(0, |mask, &e| mask ^ self.rec[e as usize].observables)
    }

    /// Single-source Dijkstra over the graph (boundary modelled as a
    /// virtual node `num_detectors`) into a reusable workspace. Results
    /// land in [`DijkstraScratch::dist`] (`f64::INFINITY` where
    /// unreachable), plus the shortest-path tree's predecessor edges.
    /// Nodes settle strictly in
    /// `(distance, node index)` order regardless of heap layout.
    ///
    /// Stops early once every node in `targets` *and* the boundary have
    /// been settled (matching only needs defect-to-defect and
    /// defect-to-boundary distances, which keeps the search local for
    /// sparse syndromes); an empty target list searches the whole
    /// graph. Allocation-free once the workspace is sized to the graph,
    /// which [`DijkstraScratch::bound`] does up front.
    pub fn dijkstra_to_with(&self, source: u32, targets: &[u32], scratch: &mut DijkstraScratch) {
        self.dijkstra_in(0, self.num_detectors, source, targets, scratch);
    }

    /// [`dijkstra_to_with`](DecodingGraph::dijkstra_to_with) restricted
    /// to the detector range `[dlo, dhi)`: an edge leaving the range
    /// downward is skipped, and one leaving it upward ends at the
    /// boundary. `source` and `targets` are detector ids; the
    /// workspace rows are window-local (detector `g` is row `g - dlo`,
    /// the boundary row `dhi - dlo`), so a search resets only
    /// window-sized rows. For the full range the two coincide.
    pub(crate) fn dijkstra_in(
        &self,
        dlo: u32,
        dhi: u32,
        source: u32,
        targets: &[u32],
        scratch: &mut DijkstraScratch,
    ) {
        let boundary = dhi - dlo;
        scratch.reset(boundary as usize + 1);
        let mut remaining: usize =
            targets.iter().filter(|&&t| t != source).count() + usize::from(!targets.is_empty()); // + the boundary
        let source = source - dlo;
        scratch.dist[source as usize] = 0.0;
        scratch.heap_push(source);
        while let Some(u) = scratch.heap_pop() {
            if !targets.is_empty() && u != source && (u == boundary || targets.contains(&(u + dlo)))
            {
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            if u == boundary {
                continue; // do not route through the boundary
            }
            let d = scratch.dist[u as usize];
            for &AdjEntry { edge, to } in self.neighbors_from(u + dlo, dlo) {
                let v = if to >= dhi { boundary } else { to - dlo };
                let r = &self.rec[edge as usize];
                let nd = d + r.weight;
                if nd < scratch.dist[v as usize] {
                    scratch.dist[v as usize] = nd;
                    scratch.pred[v as usize] = edge;
                    scratch.heap_relax(v);
                }
            }
        }
    }
}

/// Heap-position sentinel: node not yet reached.
const UNREACHED: u32 = u32::MAX;
/// Heap-position sentinel: node settled (popped).
const SETTLED: u32 = u32::MAX - 1;

/// Reusable Dijkstra workspace: distance and predecessor rows plus an
/// *indexed* binary min-heap held in two flat u32 arenas (`heap` =
/// node ids, `pos` = each node's heap slot). Decrease-key updates in
/// place, so the heap never holds stale duplicates and its size is
/// bounded by `nodes + 1` — the whole workspace is capacity-bounded by
/// the graph, which [`DijkstraScratch::bound`] exploits to preallocate
/// exactly.
///
/// The heap orders nodes by `(dist, node index)`, making the settle
/// order — and therefore every distance and shortest-path tree — a
/// pure function of the graph.
pub struct DijkstraScratch {
    pub(crate) dist: Vec<f64>,
    /// Edge through which each node reached in the last search was
    /// last relaxed: its shortest-path tree. Entries of nodes the
    /// search did not reach are stale.
    pub(crate) pred: Vec<u32>,
    heap: Vec<u32>,
    pos: Vec<u32>,
    /// Debug-asserted size bound (`nodes + 1`), set by
    /// [`bound`](DijkstraScratch::bound); `u32::MAX` = unbounded.
    bound_n: u32,
}

// analyzer: allow(alloc) -- constructors: empty buffers, sized once by
// `bound`.
impl Default for DijkstraScratch {
    fn default() -> DijkstraScratch {
        DijkstraScratch {
            dist: Vec::new(),
            pred: Vec::new(),
            heap: Vec::new(),
            pos: Vec::new(),
            bound_n: u32::MAX,
        }
    }
}

impl DijkstraScratch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> DijkstraScratch {
        DijkstraScratch::default()
    }
    // analyzer: end-allow(alloc)

    /// Preallocates every buffer for searches over `graph` and records
    /// the bound: subsequent searches on any graph of at most this size
    /// allocate nothing, and debug builds panic if a larger graph is
    /// searched through this workspace.
    pub fn bound(&mut self, graph: &DecodingGraph) {
        self.bound_nodes(graph.num_detectors() as usize + 1);
    }

    /// [`bound`](DijkstraScratch::bound) for a known search size `n`
    /// (detectors + 1 for the boundary).
    pub(crate) fn bound_nodes(&mut self, n: usize) {
        self.dist.reserve(n.saturating_sub(self.dist.len()));
        self.pred.reserve(n.saturating_sub(self.pred.len()));
        self.heap.reserve(n.saturating_sub(self.heap.len()));
        self.pos.reserve(n.saturating_sub(self.pos.len()));
        self.bound_n = n as u32;
    }

    /// Distances of the last search (`f64::INFINITY` = unreachable);
    /// the last index is the boundary.
    pub fn dist(&self) -> &[f64] {
        &self.dist
    }

    fn reset(&mut self, n: usize) {
        debug_assert!(
            self.bound_n == u32::MAX || n <= self.bound_n as usize,
            "DijkstraScratch bound overflow: search over {n} nodes through a workspace \
             bounded to {} (was the scratch built for a smaller graph?)",
            self.bound_n
        );
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        if self.pred.len() < n {
            self.pred.resize(n, 0);
        }
        self.pos.clear();
        self.pos.resize(n, UNREACHED);
        self.heap.clear();
    }

    /// `true` if `a` settles before `b`: strictly smaller distance,
    /// ties broken by node index.
    #[inline]
    fn before(&self, a: u32, b: u32) -> bool {
        let (da, db) = (self.dist[a as usize], self.dist[b as usize]);
        da < db || (da == db && a < b)
    }

    fn heap_push(&mut self, node: u32) {
        self.pos[node as usize] = self.heap.len() as u32;
        self.heap.push(node);
        self.sift_up(self.heap.len() - 1);
    }

    /// Push if unreached, decrease-key if already queued. Must only be
    /// called after improving `dist[node]` (a settled node can never
    /// improve under non-negative weights).
    fn heap_relax(&mut self, node: u32) {
        match self.pos[node as usize] {
            UNREACHED => self.heap_push(node),
            SETTLED => debug_assert!(false, "relaxed a settled node"),
            slot => self.sift_up(slot as usize),
        }
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let root = *self.heap.first()?;
        self.pos[root as usize] = SETTLED;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(root)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.before(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                self.pos[self.heap[i] as usize] = i as u32;
                self.pos[self.heap[parent] as usize] = parent as u32;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.before(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.before(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap.swap(i, best);
            self.pos[self.heap[i] as usize] = i as u32;
            self.pos[self.heap[best] as usize] = best as u32;
            i = best;
        }
    }
}

/// Appends to `edges` the shortest path from `source` to `target` in
/// the tree `pred` that a search over the detector range from `dlo`
/// left ([`DijkstraScratch`]'s predecessor row; `source` and `target`
/// are window-local rows, and `target` may be the boundary row).
pub(crate) fn push_path(
    graph: &DecodingGraph,
    dlo: u32,
    pred: &[u32],
    source: u32,
    target: u32,
    edges: &mut Vec<u32>,
) {
    let mut x = target;
    while x != source {
        let e = pred[x as usize];
        edges.push(e);
        let r = &graph.rec[e as usize];
        // Searches never route through the boundary, so an edge ending
        // there only ever leads *into* it, from its in-range end `u`.
        let next = if r.u == x + dlo { r.v } else { r.u };
        x = next - dlo;
    }
}

/// Sorts `ids` and keeps one copy of each id listed an odd number of
/// times: the mod-2 sum of the listed edges or detectors.
pub(crate) fn cancel_pairs(ids: &mut Vec<u32>) {
    ids.sort_unstable();
    let mut kept = 0;
    let mut i = 0;
    while i < ids.len() {
        let x = ids[i];
        let run = ids[i..].iter().take_while(|&&y| y == x).count();
        if run % 2 == 1 {
            ids[kept] = x;
            kept += 1;
        }
        i += run;
    }
    ids.truncate(kept);
}

/// The window of `src` over the detector range `[dlo, dhi)`, built as
/// a graph of its own: the oracle range decodes are checked against.
/// Local node `i` is detector `dlo + i`, and the window's edges are the
/// run of `src`'s edges whose `u` is in the range, so window edge `e`
/// is source edge `first + e`. An edge leaving the range downward is
/// omitted, and one leaving it upward becomes a boundary edge at `u`
/// (a *cut edge*). Returns `(window, first, cut edges)`.
#[cfg(test)]
pub(crate) fn materialize_window(
    src: &DecodingGraph,
    dlo: u32,
    dhi: u32,
) -> (DecodingGraph, u32, u32) {
    let first = src.rec.partition_point(|r| r.u < dlo);
    let last = src.rec.partition_point(|r| r.u < dhi);
    let run = &src.rec[first..last];
    let rec = run
        .iter()
        .map(|r| EdgeRecord {
            u: r.u - dlo,
            v: if r.v < dhi { r.v - dlo } else { NO_NODE },
            ..*r
        })
        .collect();
    let cut = run.iter().filter(|r| r.v >= dhi && r.v != NO_NODE).count();
    (
        DecodingGraph::from_records(dhi - dlo, rec),
        first as u32,
        cut as u32,
    )
}

/// Log-likelihood weight of an edge with flip probability `p`.
fn weight_of(p: f64) -> f64 {
    let p = p.clamp(1e-12, 0.5 - 1e-9);
    ((1.0 - p) / p).ln().max(1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_circuit::{Circuit, DetectorBasis, MeasRef, Op};

    /// A 3-detector chain with boundary edges at both ends.
    fn chain_circuit() -> Circuit {
        // Repetition-code-like: 4 data qubits, 3 parity checks; X error
        // on data i flips checks {i-1, i}.
        let mut c = Circuit::new(7);
        c.push(Op::ResetZ(vec![0, 1, 2, 3, 4, 5, 6]));
        c.push(Op::PauliChannel {
            qubits: vec![0, 1, 2, 3],
            px: 0.01,
            py: 0.0,
            pz: 0.0,
        });
        for (k, (a, b)) in [(0, 1), (1, 2), (2, 3)].iter().enumerate() {
            c.push(Op::cx([(*a as u32, (4 + k) as u32)]));
            c.push(Op::cx([(*b as u32, (4 + k) as u32)]));
        }
        c.push(Op::measure_z([4, 5, 6], 0.0));
        for k in 0..3 {
            c.push(Op::detector([MeasRef(k)], DetectorBasis::Z));
        }
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::ObservableInclude {
            observable: 0,
            records: vec![MeasRef(3)],
        });
        c
    }

    fn chain_graph() -> DecodingGraph {
        let (dem, _) = ftqc_sim::DetectorErrorModel::from_circuit(&chain_circuit(), true);
        DecodingGraph::from_dem(&dem)
    }

    #[test]
    fn chain_structure() {
        let g = chain_graph();
        assert_eq!(g.num_detectors(), 3);
        // Edges: boundary-0 (data 0), 0-1 (data 1), 1-2 (data 2),
        // 2-boundary (data 3).
        assert_eq!(g.records().len(), 4);
        let boundary_edges = g.records().iter().filter(|e| e.v == NO_NODE).count();
        assert_eq!(boundary_edges, 2);
    }

    #[test]
    fn edges_sort_by_u_with_boundary_edges_first() {
        let g = chain_graph();
        let keys: Vec<_> = g
            .records()
            .iter()
            .map(|r| (r.u, (r.v != NO_NODE).then_some(r.v), r.observables))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert_eq!(
            keys.iter().map(|k| (k.0, k.1)).collect::<Vec<_>>(),
            [(0, None), (0, Some(1)), (1, Some(2)), (2, None)]
        );
    }

    #[test]
    fn csr_matches_cold_records() {
        // Every CSR entry agrees with the edge list, and each node's
        // entries come back in ascending edge index.
        let g = chain_graph();
        let mut seen = 0usize;
        for node in 0..g.num_detectors() {
            let entries = g.neighbors(node);
            seen += entries.len();
            for pair in entries.windows(2) {
                assert!(pair[0].edge < pair[1].edge, "ascending edge order");
            }
            for entry in entries {
                let e = &g.records()[entry.edge as usize];
                let expect_to = if e.u == node {
                    e.v
                } else {
                    assert_eq!(e.v, node);
                    e.u
                };
                assert_eq!(entry.to, expect_to);
            }
        }
        // Each internal edge appears twice, each boundary edge once.
        let internal = g.records().iter().filter(|e| e.v != NO_NODE).count();
        assert_eq!(seen, 2 * internal + (g.records().len() - internal));
    }

    #[test]
    fn full_range_window_is_the_graph() {
        let g = chain_graph();
        let (w, first, cut) = materialize_window(&g, 0, g.num_detectors());
        assert_eq!((first, cut), (0, 0));
        assert_eq!(w.records(), g.records());
        assert_eq!(w.adj_off, g.adj_off);
        assert_eq!(w.adj, g.adj);
    }

    #[test]
    fn packed_layout_is_dense() {
        assert_eq!(std::mem::size_of::<AdjEntry>(), 8);
        assert_eq!(std::mem::size_of::<EdgeRecord>(), 24);
    }

    #[test]
    fn observable_rides_on_the_right_edge() {
        let g = chain_graph();
        // Only the data-0 mechanism (boundary edge of detector 0) flips
        // the observable.
        let e = g
            .records()
            .iter()
            .find(|e| e.u == 0 && e.v == NO_NODE)
            .expect("boundary edge");
        assert_eq!(e.observables, 1);
        for other in g.records().iter().filter(|e| !(e.u == 0 && e.v == NO_NODE)) {
            assert_eq!(other.observables, 0);
        }
    }

    #[test]
    fn dijkstra_distances_accumulate() {
        let g = chain_graph();
        let mut scratch = DijkstraScratch::new();
        g.dijkstra_to_with(0, &[], &mut scratch);
        let dist = scratch.dist();
        let w = g.records()[0].weight;
        assert!(dist[0] == 0.0);
        assert!((dist[1] - w).abs() < 1e-9);
        assert!((dist[2] - 2.0 * w).abs() < 1e-9);
        // Boundary is one edge away from detector 0, carrying the
        // observable.
        assert!((dist[3] - w).abs() < 1e-9);
        let mut path = Vec::new();
        push_path(&g, 0, &scratch.pred, 0, 3, &mut path);
        assert_eq!(path.len(), 1);
        assert_eq!(g.observables_of(&path), 1);
    }

    #[test]
    fn bounded_scratch_searches_without_growing() {
        let g = chain_graph();
        let mut scratch = DijkstraScratch::new();
        scratch.bound(&g);
        let caps = (scratch.dist.capacity(), scratch.heap.capacity());
        for source in 0..g.num_detectors() {
            g.dijkstra_to_with(source, &[], &mut scratch);
        }
        assert_eq!(
            caps,
            (scratch.dist.capacity(), scratch.heap.capacity()),
            "bounded workspace must never grow"
        );
        let mut unbounded = DijkstraScratch::new();
        g.dijkstra_to_with(2, &[], &mut unbounded);
        assert_eq!(scratch.dist(), unbounded.dist());
        // The boundary path's observables agree too.
        let boundary = g.num_detectors();
        let (mut bounded_path, mut unbounded_path) = (Vec::new(), Vec::new());
        push_path(&g, 0, &scratch.pred, 2, boundary, &mut bounded_path);
        push_path(&g, 0, &unbounded.pred, 2, boundary, &mut unbounded_path);
        assert_eq!(bounded_path, unbounded_path);
        assert_eq!(
            g.observables_of(&bounded_path),
            g.observables_of(&unbounded_path)
        );
    }

    #[test]
    fn parallel_mechanisms_merge() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.1,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.1,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let (dem, _) = ftqc_sim::DetectorErrorModel::from_circuit(&c, true);
        let g = DecodingGraph::from_dem(&dem);
        assert_eq!(g.records().len(), 1);
        let expect = 0.1 + 0.1 - 2.0 * 0.1 * 0.1;
        assert!((g.records()[0].weight - weight_of(expect)).abs() < 1e-12);
    }

    #[test]
    fn weight_is_monotone_in_probability() {
        assert!(weight_of(0.001) > weight_of(0.01));
        assert!(weight_of(0.01) > weight_of(0.1));
        assert!(weight_of(0.49) > 0.0);
        assert!(weight_of(0.9) > 0.0, "clamped, never negative");
    }
}
