//! Reusable decoder workspaces: the allocation seam of the decode hot
//! loop, laid out as flat u32 arenas.
//!
//! Every decoder family works out of a [`DecoderScratch`] via
//! [`Decoder::decode_into`](crate::Decoder::decode_into): the
//! union-find cluster/peeling arenas, the matcher's Dijkstra rows and
//! subset-DP tables, and the hierarchical front end's fallback all
//! live here instead of being allocated per shot. A worker thread
//! keeps one scratch for its lifetime (see
//! [`count_batch_errors`](crate::count_batch_errors)), so a
//! steady-state decode performs **zero heap allocations** — asserted
//! by the counting-allocator tests in `ftqc-bench`.
//!
//! Since the index-arena refactor the workspace is also
//! *capacity-bounded by construction*: every buffer's worst-case size
//! is a closed-form function of the decoding graph
//! ([`ScratchCapacity`]), [`DecoderScratch::for_decoder`] preallocates
//! to that bound up front, and debug builds panic if a decode ever
//! exceeds a declared bound. Node state is packed into 8-byte
//! ([`UfNode`]) and 16-byte (`UfRoot`) records with single-byte mark
//! flags, so the working set at large distance is a handful of dense
//! arrays instead of pointer-chased per-node structures.
//!
//! Ownership rules:
//!
//! * A scratch belongs to exactly one thread at a time (`decode_into`
//!   takes `&mut`); share nothing, clone nothing.
//! * Scratches are decoder-agnostic: the same scratch can serve a
//!   union-find decode on one shot and an MWPM decode on the next
//!   (the hierarchical decoder relies on this for its miss path).
//!   A *bounded* scratch is agnostic within its declared capacity.
//! * Buffers only ever grow; dropping the scratch is the only way
//!   memory is returned. Size is bounded by the declared capacity, or
//!   by the largest graph and heaviest syndrome decoded through an
//!   unbounded scratch.
//! * Contents between calls are unspecified, except that the
//!   union-find arenas are left pristine (each decode re-arms the
//!   entries it dirtied); results are bit-identical to a fresh
//!   scratch.

use crate::evaluate::Decoder;
use crate::graph::{DecodingGraph, DijkstraScratch, NO_NODE};

/// Worst-case workspace sizes for decoding through a given graph, the
/// contract behind "allocation-free by construction": every scratch
/// buffer's bound is a closed-form function of these three numbers.
///
/// Obtain one from a decoder via
/// [`Decoder::scratch_capacity`](crate::Decoder::scratch_capacity) and
/// preallocate with [`DecoderScratch::with_capacity`] /
/// [`DecoderScratch::for_decoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchCapacity {
    /// Detector nodes of the decoding graph.
    pub nodes: u32,
    /// Edges of the decoding graph.
    pub edges: u32,
    /// Largest defect count the exact matcher handles (`0` for
    /// decoders that never run the subset DP).
    pub exact_limit: u32,
}

impl ScratchCapacity {
    /// The capacity needed to decode any syndrome over `graph` with an
    /// exact-matching cutoff of `exact_limit` defects.
    pub fn for_graph(graph: &DecodingGraph, exact_limit: u32) -> ScratchCapacity {
        ScratchCapacity {
            nodes: graph.num_detectors(),
            edges: graph.records().len() as u32,
            exact_limit,
        }
    }

    /// The most correction edges a decode lists: a union-find
    /// correction holds at most one edge per node, and the matcher's
    /// up to `exact_limit` shortest paths at most `nodes` edges each
    /// (before paths that overlap cancel).
    pub fn correction_edges(&self) -> usize {
        self.nodes as usize * self.exact_limit.max(1) as usize
    }

    /// The element-wise maximum of two capacities: sufficient for any
    /// decode either input was sufficient for.
    pub fn max(self, other: ScratchCapacity) -> ScratchCapacity {
        ScratchCapacity {
            nodes: self.nodes.max(other.nodes),
            edges: self.edges.max(other.edges),
            exact_limit: self.exact_limit.max(other.exact_limit),
        }
    }
}

/// Grows `v`'s capacity to hold at least `n` elements without changing
/// its contents (a `reserve` relative to length, saturating).
fn reserve_to<T>(v: &mut Vec<T>, n: usize) {
    v.reserve(n.saturating_sub(v.len()));
}

/// Reusable workspace for [`Decoder::decode_into`] (the module-level
/// comment in `scratch.rs` spells out the ownership rules; DESIGN.md
/// "Arena decoder core" documents the layout and capacity model).
///
/// [`Decoder::decode_into`]: crate::Decoder::decode_into
///
/// # Example
///
/// ```
/// use ftqc_decoder::{Decoder, DecoderScratch, DecodingGraph, UfDecoder};
/// use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
/// use ftqc_sim::DetectorErrorModel;
/// use ftqc_surface::MemoryConfig;
///
/// let hw = HardwareConfig::ibm();
/// let circuit = CircuitNoiseModel::standard(1e-3, &hw)
///     .apply(&MemoryConfig::new(3, 4, &hw).build());
/// let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
/// let decoder = UfDecoder::new(DecodingGraph::from_dem(&dem));
/// // Preallocated to the graph-derived bound: even the *first* decode
/// // through this scratch touches the heap zero times.
/// let mut scratch = DecoderScratch::for_decoder(&decoder);
/// let mut correction = 0u32;
/// for syndrome in [vec![], vec![0, 1], vec![3]] {
///     decoder.decode_into(&mut scratch, &syndrome, &mut correction);
///     assert_eq!(correction, decoder.predict(&syndrome));
/// }
/// ```
#[derive(Default)]
pub struct DecoderScratch {
    pub(crate) uf: UfScratch,
    pub(crate) matching: MatchScratch,
    /// Correction edges of the last graph decode, whose observables
    /// XOR into the decode's mask.
    pub(crate) edges: Vec<u32>,
}

impl DecoderScratch {
    /// An empty, unbounded workspace; buffers grow on first use and are
    /// retained across decodes.
    pub fn new() -> DecoderScratch {
        DecoderScratch::default()
    }

    /// A workspace preallocated to `cap`: every decode within the
    /// capacity is allocation-free from the first shot, and debug
    /// builds panic if a decode exceeds the bound.
    pub fn with_capacity(cap: ScratchCapacity) -> DecoderScratch {
        let mut scratch = DecoderScratch::new();
        scratch.uf.bound(cap);
        scratch.matching.bound(cap);
        reserve_to(&mut scratch.edges, cap.correction_edges());
        scratch
    }

    /// [`with_capacity`](DecoderScratch::with_capacity) sized from the
    /// decoder's own declared bound
    /// ([`Decoder::scratch_capacity`](crate::Decoder::scratch_capacity)).
    pub fn for_decoder<D: Decoder + ?Sized>(decoder: &D) -> DecoderScratch {
        DecoderScratch::with_capacity(decoder.scratch_capacity())
    }
}

/// Packed per-node DSU record (8 bytes): parent link plus the intrusive
/// membership-list link. Index-parallel to the graph's detector nodes.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UfNode {
    /// DSU parent (self = root).
    pub(crate) parent: u32,
    /// Next member of this node's cluster list ([`NO_NODE`] = end).
    pub(crate) next: u32,
}

/// Packed per-root cluster record (16 bytes). Only meaningful while the
/// node is its cluster's DSU root.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UfRoot {
    /// First member of the intrusive membership list.
    pub(crate) head: u32,
    /// Last member (appended to on union).
    pub(crate) tail: u32,
    /// Cluster size (union by size).
    pub(crate) size: u32,
    /// [`PARITY`] | [`CLUSTER_BOUNDARY`] bits.
    pub(crate) flags: u32,
}

/// Root flag: the cluster holds an odd number of defects.
pub(crate) const PARITY: u32 = 1;
/// Root flag: the cluster has absorbed a boundary edge.
pub(crate) const CLUSTER_BOUNDARY: u32 = 2;

/// Mark-byte flag: node is a (current) defect.
pub(crate) const DEFECT: u8 = 1;
/// Mark-byte flag: node visited by the peeling BFS.
pub(crate) const VISITED: u8 = 2;
/// Mark-byte flag: node entered in the decode's touched list.
pub(crate) const TOUCHED: u8 = 4;

/// High bit of a `grown` entry: the edge has saturated (fully grown);
/// the low 30 bits keep the growth count.
pub(crate) const SATURATED: u32 = 1 << 31;
/// Bit 30 of a `grown` entry, set only while a growth round lists
/// frontiers: the edge is already on a growing cluster's frontier.
pub(crate) const LISTED: u32 = 1 << 30;

/// Sentinel edge index: "no edge" (peeling-tree root / boundary drain
/// absent).
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// One growing cluster's slice of a frontier list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    /// The cluster's root.
    pub(crate) root: u32,
    /// The cluster's size when its frontier was listed.
    pub(crate) size: u32,
    /// End of the slice (its start is the previous segment's end).
    pub(crate) end: u32,
}

/// Union-find arenas: packed DSU records, single-byte node marks, and
/// the growth/peeling state — all flat, u32-indexed, and bounded by
/// `(nodes, edges)` of the graph.
///
/// Between decodes the per-node and per-edge arenas are *pristine*:
/// every node its own singleton cluster with no marks and no tree
/// edge, every edge ungrown. A decode dirties only the nodes its
/// clusters reach, lists them in `touched`, and re-arms exactly those
/// entries (and their edges) before it returns, so neither end of a
/// decode costs O(nodes + edges).
pub(crate) struct UfScratch {
    /// Per-node DSU + membership-list record (8 B each).
    pub(crate) node: Vec<UfNode>,
    /// Per-node cluster record, live while the node is a root (16 B).
    pub(crate) root: Vec<UfRoot>,
    /// Per-node [`DEFECT`] | [`VISITED`] | [`TOUCHED`] mark bits.
    pub(crate) mark: Vec<u8>,
    /// Per-edge growth counter with the [`SATURATED`] high bit.
    pub(crate) grown: Vec<u32>,
    /// One bit per edge, set only while a frontier is being collected.
    pub(crate) edge_bits: Vec<u64>,
    /// Roots of still-odd clusters (one growth pass's worklist).
    pub(crate) roots: Vec<u32>,
    /// Unsaturated frontier edges of every growing cluster, one sorted
    /// slice per entry of `segments`.
    pub(crate) frontier: Vec<u32>,
    /// The growing clusters whose frontiers `frontier` lists, by root.
    pub(crate) segments: Vec<Segment>,
    /// The next round's `frontier`, built from this one; between
    /// listings, the frontier of a cluster that merged mid-pass.
    pub(crate) next_frontier: Vec<u32>,
    /// The next round's `segments`.
    pub(crate) next_segments: Vec<Segment>,
    /// Edges in the order they saturated (sorted before peeling).
    pub(crate) saturated: Vec<u32>,
    /// Nodes the decode dirtied: the syndrome plus every endpoint of
    /// a saturated edge, sorted.
    pub(crate) touched: Vec<u32>,
    /// Peeling BFS order; also *is* the BFS queue (FIFO scan-by-index).
    pub(crate) order: Vec<u32>,
    /// Peeling-tree parent edge per node ([`NO_EDGE`] = tree root).
    pub(crate) parent_edge: Vec<u32>,
    /// Peeling-tree roots with their boundary drain edge ([`NO_EDGE`]
    /// when the component has none).
    pub(crate) root_drains: Vec<(u32, u32)>,
    /// Debug-asserted bounds; `u32::MAX` = unbounded.
    bound_nodes: u32,
    bound_edges: u32,
}

// analyzer: allow(alloc) -- constructor: empty vecs, no heap touched
// until `bound()` preallocates the arenas.
impl Default for UfScratch {
    fn default() -> UfScratch {
        UfScratch {
            node: Vec::new(),
            root: Vec::new(),
            mark: Vec::new(),
            grown: Vec::new(),
            edge_bits: Vec::new(),
            roots: Vec::new(),
            frontier: Vec::new(),
            segments: Vec::new(),
            next_frontier: Vec::new(),
            next_segments: Vec::new(),
            saturated: Vec::new(),
            touched: Vec::new(),
            order: Vec::new(),
            parent_edge: Vec::new(),
            root_drains: Vec::new(),
            bound_nodes: u32::MAX,
            bound_edges: u32::MAX,
        }
    }
}
// analyzer: end-allow(alloc)

/// Node `i`'s DSU record when it is its own singleton cluster.
fn pristine_node(i: u32) -> UfNode {
    UfNode {
        parent: i,
        next: NO_NODE,
    }
}

/// Node `i`'s cluster record when it is its own singleton cluster.
fn pristine_root(i: u32) -> UfRoot {
    UfRoot {
        head: i,
        tail: i,
        size: 1,
        flags: 0,
    }
}

impl UfScratch {
    /// Preallocates every arena for decodes within `cap` and arms the
    /// debug-asserted bounds. The two frontier lists get `2 * edges`
    /// slots: an internal edge is listed once per endpoint before
    /// dedup, and once per cluster when two growing clusters share it.
    /// Every other list holds each node or edge at most once.
    pub(crate) fn bound(&mut self, cap: ScratchCapacity) {
        let n = cap.nodes as usize;
        let e = cap.edges as usize;
        reserve_to(&mut self.node, n);
        reserve_to(&mut self.root, n);
        reserve_to(&mut self.mark, n);
        reserve_to(&mut self.grown, e);
        reserve_to(&mut self.edge_bits, e.div_ceil(64));
        reserve_to(&mut self.roots, n);
        reserve_to(&mut self.frontier, 2 * e);
        reserve_to(&mut self.segments, n);
        reserve_to(&mut self.next_frontier, 2 * e);
        reserve_to(&mut self.next_segments, n);
        reserve_to(&mut self.saturated, e);
        reserve_to(&mut self.touched, n);
        reserve_to(&mut self.order, n);
        reserve_to(&mut self.parent_edge, n);
        reserve_to(&mut self.root_drains, n);
        self.bound_nodes = cap.nodes;
        self.bound_edges = cap.edges;
    }

    /// Readies the arenas for a graph with `nodes` detectors and
    /// `edges` edges: extends them with pristine entries when the graph
    /// is larger than any before (never shrinking them, so graphs of
    /// different sizes can share the scratch) and clears the per-decode
    /// lists. Allocation-free once the arenas hold the graph's size;
    /// debug builds panic when a declared bound is exceeded.
    pub(crate) fn arm(&mut self, nodes: usize, edges: usize) {
        debug_assert!(
            self.bound_nodes == u32::MAX || nodes <= self.bound_nodes as usize,
            "UfScratch bound overflow: {nodes} nodes through a workspace bounded to {} \
             (was the scratch built for a smaller graph?)",
            self.bound_nodes
        );
        debug_assert!(
            self.bound_edges == u32::MAX || edges <= self.bound_edges as usize,
            "UfScratch bound overflow: {edges} edges through a workspace bounded to {}",
            self.bound_edges
        );
        if self.node.len() < nodes {
            let have = self.node.len() as u32;
            self.node.extend((have..nodes as u32).map(pristine_node));
            self.root.extend((have..nodes as u32).map(pristine_root));
            self.mark.resize(nodes, 0);
            self.parent_edge.resize(nodes, NO_EDGE);
        }
        if self.grown.len() < edges {
            self.grown.resize(edges, 0);
            self.edge_bits.resize(edges.div_ceil(64), 0);
        }
        debug_assert!(self.is_pristine(), "UfScratch arenas dirty at decode start");
        self.saturated.clear();
        self.touched.clear();
        self.order.clear();
        self.root_drains.clear();
    }

    /// Whether every node and edge entry holds its pristine value.
    fn is_pristine(&self) -> bool {
        (0..self.node.len()).all(|i| {
            self.node[i] == pristine_node(i as u32)
                && self.root[i] == pristine_root(i as u32)
                && self.mark[i] == 0
                && self.parent_edge[i] == NO_EDGE
        }) && self.grown.iter().all(|&g| g == 0)
            && self.edge_bits.iter().all(|&w| w == 0)
    }

    /// Appends `x` to the touched list unless it is already there.
    pub(crate) fn touch(&mut self, x: u32) {
        if self.mark[x as usize] & TOUCHED == 0 {
            self.mark[x as usize] |= TOUCHED;
            self.touched.push(x);
        }
    }

    /// Returns every touched node, and every edge of `graph` at one, to
    /// its pristine value. Clusters only ever hold syndrome nodes and
    /// endpoints of saturated edges, and only their frontier edges
    /// grow, so this re-arms everything the decode wrote.
    pub(crate) fn rearm(&mut self, graph: &DecodingGraph) {
        for &x in &self.touched {
            self.node[x as usize] = pristine_node(x);
            self.root[x as usize] = pristine_root(x);
            self.mark[x as usize] = 0;
            self.parent_edge[x as usize] = NO_EDGE;
            for a in graph.neighbors(x) {
                self.grown[a.edge as usize] = 0;
            }
        }
    }

    /// Whether the cluster rooted at `r` is still growing: odd parity
    /// and no boundary contact.
    pub(crate) fn growing(&self, r: u32) -> bool {
        self.root[r as usize].flags & (PARITY | CLUSTER_BOUNDARY) == PARITY
    }

    /// Root of `x`'s cluster, with path compression.
    pub(crate) fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.node[root as usize].parent != root {
            root = self.node[root as usize].parent;
        }
        let mut cur = x;
        while self.node[cur as usize].parent != root {
            let next = self.node[cur as usize].parent;
            self.node[cur as usize].parent = root;
            cur = next;
        }
        root
    }

    /// Unions the clusters of `a` and `b` (union by size; the smaller
    /// membership list is appended to the larger in O(1)). Parity XORs,
    /// boundary contact ORs.
    pub(crate) fn union(&mut self, a: u32, b: u32) -> u32 {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        if self.root[ra as usize].size < self.root[rb as usize].size {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.node[rb as usize].parent = ra;
        let absorbed = self.root[rb as usize];
        let keep = &mut self.root[ra as usize];
        keep.flags = ((keep.flags ^ absorbed.flags) & PARITY)
            | ((keep.flags | absorbed.flags) & CLUSTER_BOUNDARY);
        keep.size += absorbed.size;
        let tail = keep.tail;
        keep.tail = absorbed.tail;
        self.node[tail as usize].next = absorbed.head;
        ra
    }
}

/// Matching buffers: one Dijkstra workspace, the shortest-path tree of
/// each defect's search, the flattened `k x k` distance matrix and the
/// `2^k` subset-DP tables of the exact matcher, bounded by the
/// matcher's `exact_limit`.
pub(crate) struct MatchScratch {
    pub(crate) dijkstra: DijkstraScratch,
    /// Predecessor row of defect `i`'s search, swapped out of the
    /// Dijkstra workspace so the matched paths can be walked after the
    /// DP.
    pub(crate) pred: Vec<Vec<u32>>,
    pub(crate) pair_d: Vec<f64>,
    pub(crate) bdry_d: Vec<f64>,
    pub(crate) dp: Vec<f64>,
    pub(crate) choice: Vec<(usize, Option<usize>)>,
    /// Debug-asserted defect-count bound; `u32::MAX` = unbounded.
    pub(crate) bound_k: u32,
}

// analyzer: allow(alloc) -- constructor: empty vecs, no heap touched
// until `bound()` preallocates the matrices and DP tables.
impl Default for MatchScratch {
    fn default() -> MatchScratch {
        MatchScratch {
            dijkstra: DijkstraScratch::new(),
            pred: Vec::new(),
            pair_d: Vec::new(),
            bdry_d: Vec::new(),
            dp: Vec::new(),
            choice: Vec::new(),
            bound_k: u32::MAX,
        }
    }
}
// analyzer: end-allow(alloc)

impl MatchScratch {
    /// Preallocates the `k x k` matrix, `k` predecessor rows and `2^k`
    /// DP tables for up to `cap.exact_limit` defects, plus the Dijkstra
    /// workspace for `cap.nodes` detectors, and arms the
    /// debug-asserted bound.
    pub(crate) fn bound(&mut self, cap: ScratchCapacity) {
        let k = cap.exact_limit as usize;
        let n = cap.nodes as usize + 1;
        if self.pred.len() < k {
            self.pred.resize_with(k, Default::default);
        }
        for row in &mut self.pred {
            reserve_to(row, n);
        }
        reserve_to(&mut self.pair_d, k * k);
        reserve_to(&mut self.bdry_d, k);
        reserve_to(&mut self.dp, 1usize << k);
        reserve_to(&mut self.choice, 1usize << k);
        self.dijkstra.bound_nodes(n);
        self.bound_k = cap.exact_limit;
    }
}
