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
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// Mark-byte flag, on a root: the cluster is on the growth clock (it
/// grows one unit per pass along its whole frontier).
pub(crate) const LIVE: u8 = 8;
/// Mark-byte flag, on a root: the cluster waits in the pass's visit
/// queue, and its due list is in use.
pub(crate) const QUEUED: u8 = 16;
/// Mark-byte flag, on a root: the cluster merged or met the boundary
/// in the current pass, so the clock no longer grows its frontier.
pub(crate) const CHANGED: u8 = 32;

/// High bit of a `grown` entry: the edge has saturated (fully grown).
pub(crate) const SATURATED: u32 = 1 << 31;

/// Sentinel edge index: "no edge" (peeling-tree root / boundary drain
/// absent).
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// Buckets of the growth ring. A frontier edge waits in the bucket of
/// the pass in which it fills, modulo `RING`. Capacities quantized from
/// `DecodingGraph::from_dem` weights are at most 111 units (`weight_of`
/// clamps p at 1e-12, and a unit is a quarter of a weight), so that
/// pass lies less than `RING` passes ahead of the one that files the
/// edge. A larger capacity lands in a bucket that comes up before its
/// pass, which only re-files it: an entry may wait in a bucket earlier
/// than its pass, never later.
pub(crate) const RING: u32 = 128;

/// One entry of a node's saturated adjacency list: a saturated edge
/// below the decode range's top, its far end, and the next entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SatEntry {
    pub(crate) edge: u32,
    pub(crate) to: u32,
    pub(crate) next: u32,
}

/// An edge's growth on the pass clock (16 bytes): the units it still
/// lacks as of pass `since`, and the growing clusters whose frontiers
/// list it, each of which adds one unit per pass after `since`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EdgeClock {
    /// Units short of saturation as of pass `since`; [`FULL`] once
    /// saturated.
    pub(crate) left: u32,
    /// The pass `left` is as of; [`NEVER`] while the decode has not
    /// written the edge.
    pub(crate) since: u32,
    /// Roots of the listing clusters ([`NO_NODE`] = empty slot).
    pub(crate) lister: [u32; 2],
}

/// [`EdgeClock::left`] of a saturated edge.
pub(crate) const FULL: u32 = u32::MAX;
/// [`EdgeClock::since`] of an edge the decode has not written.
pub(crate) const NEVER: u32 = u32::MAX;

/// An edge's clock state before a decode writes it.
pub(crate) const PRISTINE_CLOCK: EdgeClock = EdgeClock {
    left: 0,
    since: NEVER,
    lister: [NO_NODE; 2],
};

/// A doubly linked entry of the growth lists (see `UfScratch::ring`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Link {
    pub(crate) prev: u32,
    pub(crate) next: u32,
}

/// An edge's entry while it is in no list.
pub(crate) const UNLINKED: Link = Link {
    prev: NO_EDGE,
    next: NO_EDGE,
};

/// The entry of the empty list whose sentinel is `i`.
fn empty_list(i: u32) -> Link {
    Link { prev: i, next: i }
}

/// Union-find arenas: packed DSU records, single-byte node marks, and
/// the growth/peeling state — all flat, u32-indexed, and bounded by
/// `(nodes, edges)` of the graph.
///
/// Between decodes the per-node and per-edge arenas are *pristine*:
/// every node its own singleton cluster with no marks and no tree
/// edge, every edge ungrown and in no growth list. A decode dirties
/// only the nodes its clusters reach, lists them in `touched` and the
/// edges whose clock it wrote in `written`, and re-arms exactly those
/// entries and the ring entries still linked before it returns, so
/// neither end of a decode costs O(nodes + edges).
pub(crate) struct UfScratch {
    /// Per-node DSU + membership-list record (8 B each).
    pub(crate) node: Vec<UfNode>,
    /// Per-node cluster record, live while the node is a root (16 B).
    pub(crate) root: Vec<UfRoot>,
    /// Per-node [`DEFECT`] | [`VISITED`] | [`TOUCHED`] mark bits, and
    /// a root's [`LIVE`] | [`QUEUED`] | [`CHANGED`] growth bits.
    pub(crate) mark: Vec<u8>,
    /// Per-edge [`SATURATED`] bit, set once the edge is fully grown.
    pub(crate) grown: Vec<u32>,
    /// Per-edge growth state on the pass clock.
    pub(crate) clock: Vec<EdgeClock>,
    /// Edges whose clock the decode wrote, each once.
    pub(crate) written: Vec<u32>,
    /// The growth lists in one arena of intrusive links: `RING` bucket
    /// sentinels, one due-list sentinel per node, one row entry per
    /// node (at `row_base + x`), then one entry per edge (at
    /// `edge_base + e`); each entry is linked into at most one list.
    /// Bucket `b` holds the frontier edges that fill in a pass `p` with
    /// `p % RING == b`, and the row entries of the defects whose
    /// unfiled CSR-row edges may first fill in `p`; root `r`'s due list
    /// holds the edges that `r`'s unit fills in the current pass. A
    /// sentinel is valid only while its list is in use: a bucket while
    /// its `occupied` bit is set, a due list while its root is
    /// [`QUEUED`].
    pub(crate) ring: Vec<Link>,
    /// Index of node 0's row entry in `ring`.
    pub(crate) row_base: u32,
    /// Index of edge 0's entry in `ring`.
    pub(crate) edge_base: u32,
    /// Bit `b` set when bucket `b` holds an entry.
    pub(crate) occupied: u128,
    /// Per-node last pass whose unit the node's cluster gave its edges
    /// before it left the clock.
    pub(crate) off: Vec<u32>,
    /// Clusters on the clock.
    pub(crate) live: u32,
    /// One bit per edge, set only while a frontier is being collected.
    pub(crate) edge_bits: Vec<u64>,
    /// Ring indices drained from a growth list, or the edges of a
    /// merged cluster's frontier.
    pub(crate) frontier: Vec<u32>,
    /// Roots the current pass still visits, smallest first.
    pub(crate) visits: BinaryHeap<Reverse<u32>>,
    /// Roots that merged or met the boundary in the current pass.
    pub(crate) changed: Vec<u32>,
    /// Edges in the order they saturated (sorted before peeling).
    pub(crate) saturated: Vec<u32>,
    /// Nodes the decode dirtied: the syndrome plus every endpoint of
    /// a saturated edge, sorted.
    pub(crate) touched: Vec<u32>,
    /// Peeling BFS order; also *is* the BFS queue (FIFO scan-by-index).
    pub(crate) order: Vec<u32>,
    /// Per-node head of its saturated adjacency list in `sat_adj`
    /// ([`NO_EDGE`] = empty).
    pub(crate) sat_head: Vec<u32>,
    /// Saturated adjacency entries, two per saturated edge below the
    /// range's top.
    pub(crate) sat_adj: Vec<SatEntry>,
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
            clock: Vec::new(),
            written: Vec::new(),
            ring: Vec::new(),
            row_base: RING,
            edge_base: RING,
            occupied: 0,
            off: Vec::new(),
            live: 0,
            edge_bits: Vec::new(),
            frontier: Vec::new(),
            visits: BinaryHeap::new(),
            changed: Vec::new(),
            saturated: Vec::new(),
            touched: Vec::new(),
            order: Vec::new(),
            sat_head: Vec::new(),
            sat_adj: Vec::new(),
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
    /// debug-asserted bounds. The ring holds `RING + 2 * nodes + edges`
    /// entries, and a list drained from it at most `nodes + edges`
    /// (row entries and edges); the saturated adjacency holds two
    /// entries per edge; every other list holds each node or edge at
    /// most once (the visit queue, the changed list and the written
    /// edges are deduplicated by mark bits and clock state).
    pub(crate) fn bound(&mut self, cap: ScratchCapacity) {
        let n = cap.nodes as usize;
        let e = cap.edges as usize;
        reserve_to(&mut self.node, n);
        reserve_to(&mut self.root, n);
        reserve_to(&mut self.mark, n);
        reserve_to(&mut self.grown, e);
        reserve_to(&mut self.clock, e);
        reserve_to(&mut self.written, e);
        reserve_to(&mut self.ring, RING as usize + 2 * n + e);
        reserve_to(&mut self.off, n);
        reserve_to(&mut self.edge_bits, e.div_ceil(64));
        reserve_to(&mut self.frontier, e + n);
        self.visits.reserve(n.saturating_sub(self.visits.len()));
        reserve_to(&mut self.changed, n);
        reserve_to(&mut self.saturated, e);
        reserve_to(&mut self.touched, n);
        reserve_to(&mut self.order, n);
        reserve_to(&mut self.sat_head, n);
        reserve_to(&mut self.sat_adj, 2 * e);
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
            self.sat_head.resize(nodes, NO_EDGE);
            self.off.resize(nodes, 0);
        }
        if self.grown.len() < edges {
            self.grown.resize(edges, 0);
            self.clock.resize(edges, PRISTINE_CLOCK);
            self.edge_bits.resize(edges.div_ceil(64), 0);
        }
        // Every entry is unlinked and every sentinel unused between
        // decodes, so the entries may move up as the nodes grow.
        self.row_base = RING + self.node.len() as u32;
        self.edge_base = self.row_base + self.node.len() as u32;
        self.ring
            .resize(self.edge_base as usize + self.grown.len(), UNLINKED);
        debug_assert!(self.is_pristine(), "UfScratch arenas dirty at decode start");
        self.saturated.clear();
        self.touched.clear();
        self.order.clear();
        self.sat_adj.clear();
        self.root_drains.clear();
    }

    /// Whether every node and edge entry holds its pristine value.
    fn is_pristine(&self) -> bool {
        (0..self.node.len()).all(|i| {
            self.node[i] == pristine_node(i as u32)
                && self.root[i] == pristine_root(i as u32)
                && self.mark[i] == 0
                && self.parent_edge[i] == NO_EDGE
                && self.sat_head[i] == NO_EDGE
        }) && self.grown.iter().all(|&g| g == 0)
            && self.clock.iter().all(|&c| c == PRISTINE_CLOCK)
            && self.occupied == 0
            && self.ring[self.row_base as usize..]
                .iter()
                .all(|&l| l == UNLINKED)
            && self.edge_bits.iter().all(|&w| w == 0)
    }

    /// Appends `x` to the touched list unless it is already there.
    pub(crate) fn touch(&mut self, x: u32) {
        if self.mark[x as usize] & TOUCHED == 0 {
            self.mark[x as usize] |= TOUCHED;
            self.touched.push(x);
        }
    }

    /// Returns every node, edge and ring entry the decode wrote to its
    /// pristine value: the touched nodes (clusters only ever hold
    /// syndrome nodes and endpoints of saturated edges), the edges whose
    /// clock it wrote (which include the saturated ones), and the
    /// entries still waiting in a bucket.
    pub(crate) fn rearm(&mut self) {
        for &x in &self.touched {
            self.node[x as usize] = pristine_node(x);
            self.root[x as usize] = pristine_root(x);
            self.mark[x as usize] = 0;
            self.parent_edge[x as usize] = NO_EDGE;
            self.sat_head[x as usize] = NO_EDGE;
        }
        for &e in &self.written {
            self.grown[e as usize] = 0;
            self.clock[e as usize] = PRISTINE_CLOCK;
        }
        self.written.clear();
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros();
            let mut i = self.ring[b as usize].next;
            while i != b {
                let next = self.ring[i as usize].next;
                self.ring[i as usize] = UNLINKED;
                i = next;
            }
            self.occupied &= self.occupied - 1;
        }
    }

    /// Sets edge `e`'s clock, listing the edge as written.
    pub(crate) fn set_clock(&mut self, e: u32, clock: EdgeClock) {
        if self.clock[e as usize].since == NEVER {
            self.written.push(e);
        }
        self.clock[e as usize] = clock;
    }

    /// Prepends `(edge, to)` to `x`'s saturated adjacency list.
    pub(crate) fn push_sat(&mut self, x: u32, edge: u32, to: u32) {
        let next = self.sat_head[x as usize];
        self.sat_head[x as usize] = self.sat_adj.len() as u32;
        self.sat_adj.push(SatEntry { edge, to, next });
    }

    /// Links ring entry `i` into the bucket of pass `due`, which is
    /// after the current pass.
    pub(crate) fn file(&mut self, i: u32, due: u32) {
        let b = due % RING;
        if self.occupied & (1 << b) == 0 {
            self.occupied |= 1 << b;
            self.ring[b as usize] = empty_list(b);
        }
        self.link(b, i);
    }

    /// Links edge `e` into root `r`'s due list, queueing `r`.
    pub(crate) fn assign(&mut self, r: u32, e: u32) {
        self.queue(r);
        self.link(RING + r, self.edge_base + e);
    }

    /// Links entry `i` at the head of the list whose sentinel is `head`.
    fn link(&mut self, head: u32, i: u32) {
        let next = self.ring[head as usize].next;
        self.ring[i as usize] = Link { prev: head, next };
        self.ring[next as usize].prev = i;
        self.ring[head as usize].next = i;
    }

    /// Whether ring entry `i` is in a list.
    pub(crate) fn is_linked(&self, i: u32) -> bool {
        self.ring[i as usize].next != NO_EDGE
    }

    /// Takes ring entry `i` out of its list, if it is in one.
    pub(crate) fn unlink(&mut self, i: u32) {
        let Link { prev, next } = self.ring[i as usize];
        if next == NO_EDGE {
            return;
        }
        self.ring[prev as usize].next = next;
        self.ring[next as usize].prev = prev;
        self.ring[i as usize] = UNLINKED;
        if prev == next && prev < RING {
            // Only the bucket's sentinel is left.
            self.occupied &= !(1 << prev);
        }
    }

    /// Empties the list whose sentinel is `head` (bucket `head`, or the
    /// due list of root `head - RING`) into `out`, as ring indices.
    pub(crate) fn drain(&mut self, head: u32, out: &mut Vec<u32>) {
        let mut i = self.ring[head as usize].next;
        while i != head {
            let next = self.ring[i as usize].next;
            self.ring[i as usize] = UNLINKED;
            out.push(i);
            i = next;
        }
        self.ring[head as usize] = empty_list(head);
        if head < RING {
            self.occupied &= !(1 << head);
        }
    }

    /// Queues root `r` for a turn in the current growth pass, once,
    /// with an empty due list.
    pub(crate) fn queue(&mut self, r: u32) {
        if self.mark[r as usize] & QUEUED == 0 {
            self.mark[r as usize] |= QUEUED;
            self.ring[(RING + r) as usize] = empty_list(RING + r);
            self.visits.push(Reverse(r));
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
