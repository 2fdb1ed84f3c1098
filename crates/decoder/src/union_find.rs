//! Weighted union-find decoding (cluster growth + peeling) on flat
//! index arenas.

use crate::evaluate::Decoder;
use crate::graph::{AdjEntry, DecodingGraph, NO_NODE};
use crate::scratch::{
    DecoderScratch, EdgeClock, SatEntry, ScratchCapacity, UfScratch, CHANGED, CLUSTER_BOUNDARY,
    DEFECT, FULL, LIVE, NEVER, NO_EDGE, PARITY, QUEUED, RING, SATURATED, VISITED,
};
use std::cmp::Reverse;
use std::sync::Arc;

/// A weighted union-find decoder (Delfosse–Nickerson).
///
/// Odd clusters of flagged detectors grow along their frontier edges,
/// one unit per pass (each edge's capacity is its integer-scaled
/// log-likelihood weight); clusters merge when an edge saturates, and
/// stop growing once their defect parity is even or they touch the
/// boundary. A peeling pass over each cluster's spanning forest then
/// produces the correction, whose edge observable masks XOR into the
/// logical prediction.
///
/// The decode's cost follows the saturations and the clusters that
/// change, not the graph or the number of passes, as in the
/// almost-linear bound of Delfosse–Nickerson. Growth runs on a pass
/// clock: each frontier edge waits in one of 128 ring buckets, the one
/// of the pass in which it fills, so the decode jumps from one
/// saturating pass to the next, and a pass visits only the clusters
/// whose unit fills an edge in it or that a merge reached earlier in
/// it. Every other growing cluster advances by the clock alone. The
/// peeling forests follow the saturated edges' own adjacency lists,
/// seeded from the saturated edges and the syndrome instead of a scan
/// of the graph, and only the arena entries a decode wrote are
/// re-armed. The result is bit-identical to running every unit pass.
///
/// The whole decode runs over flat u32 arenas: CSR adjacency from the
/// graph, packed 8/16-byte DSU records and single-byte node marks from
/// the scratch — no per-node heap structures, which is what keeps
/// d ≥ 11 decodes inside the cache instead of chasing pointers.
///
/// Union-find trades a little accuracy against minimum-weight perfect
/// matching for near-linear decoding time, which is what makes the
/// paper-scale parameter sweeps (hundreds of configurations) tractable
/// on a workstation; the test suite cross-validates it against the
/// exact matcher on small codes.
#[derive(Debug, Clone)]
pub struct UfDecoder {
    graph: Arc<DecodingGraph>,
    /// Integer edge capacities (scaled weights).
    capacity: Vec<u32>,
}

/// Scale factor from log-likelihood weight to integer growth units.
const WEIGHT_SCALE: f64 = 4.0;

/// Quantizes a log-likelihood weight into integer growth units.
fn quantize_capacity(weight: f64) -> u32 {
    ((weight * WEIGHT_SCALE).round() as u32).max(1)
}

impl UfDecoder {
    /// Wraps a decoding graph, owned or already shared; a shared graph
    /// is never deep-copied, which is how
    /// [`MwpmDecoder`](crate::MwpmDecoder) shares one graph with its
    /// union-find fallback.
    pub fn new(graph: impl Into<Arc<DecodingGraph>>) -> UfDecoder {
        let graph = graph.into();
        // analyzer: allow(alloc) -- constructor: the quantized edge
        // capacities are computed once per graph, not per decode.
        let capacity = graph
            .records()
            .iter()
            .map(|e| quantize_capacity(e.weight))
            .collect();
        // analyzer: end-allow(alloc)
        UfDecoder { graph, capacity }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }
}

/// The union-find decode core over an explicit `(graph, capacity)`
/// pair, restricted to the detector range `[dlo, dhi)`: cluster growth
/// plus peeling, writing the correction's edges into `edges` and
/// returning the XOR of their observables. Inside the range an
/// adjacency entry whose far end is below `dlo` does not exist, and an
/// edge whose far end is at or above `dhi` ends at the boundary.
/// [`UfDecoder`] decodes a shot over the full range `(0, n)`, where
/// these tests reduce to the boundary sentinel's, and a fused window
/// over its own range — same core, same globally indexed arenas.
pub(crate) fn uf_decode(
    graph: &DecodingGraph,
    capacity: &[u32],
    s: &mut UfScratch,
    (dlo, dhi): (u32, u32),
    syndrome: &[u32],
    edges: &mut Vec<u32>,
) -> u32 {
    edges.clear();
    if syndrome.is_empty() {
        return 0;
    }
    debug_assert_eq!(capacity.len(), graph.records().len());
    debug_assert!(syndrome.iter().all(|d| (dlo..dhi).contains(d)));
    s.arm(graph.num_detectors() as usize, capacity.len());
    for &f in syndrome {
        s.mark[f as usize] |= DEFECT;
        s.root[f as usize].flags |= PARITY;
    }
    grow(graph, capacity, s, (dlo, dhi), syndrome);
    // Peeling: build spanning forests over saturated edges and peel
    // leaves, flipping defects toward the root (boundary-anchored
    // when available).
    let mask = peel(graph, s, dhi, syndrome, edges);
    s.rearm();
    mask
}

/// Appends the unsaturated edges at the members of `root`'s cluster
/// (walked through the intrusive list) to `out`, in ascending order
/// and each once, skipping the edges that leave the range downward
/// (far end below `dlo`). The edges are collected as bits of
/// `s.edge_bits` and read back word by word over the range they span,
/// which leaves the bitmap clear and costs no sort.
fn push_frontier(
    graph: &DecodingGraph,
    s: &mut UfScratch,
    dlo: u32,
    root: u32,
    out: &mut Vec<u32>,
) {
    let (mut lo, mut hi) = (u32::MAX, 0);
    let mut node = s.root[root as usize].head;
    while node != NO_NODE {
        for a in graph.neighbors_from(node, dlo) {
            if s.grown[a.edge as usize] & SATURATED == 0 {
                s.edge_bits[a.edge as usize / 64] |= 1 << (a.edge % 64);
                lo = lo.min(a.edge);
                hi = hi.max(a.edge);
            }
        }
        node = s.node[node as usize].next;
    }
    if lo > hi {
        return;
    }
    for w in lo / 64..=hi / 64 {
        let mut bits = std::mem::take(&mut s.edge_bits[w as usize]);
        while bits != 0 {
            out.push(w * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Number of growing clusters a lister pair names: the edge's growth
/// per pass.
fn rate(lister: [u32; 2]) -> u32 {
    (lister[0] != NO_NODE) as u32 + (lister[1] != NO_NODE) as u32
}

/// `left / rate` rounded up, for a rate of 1 or 2.
fn div_rate(left: u32, rate: u32) -> u32 {
    debug_assert!(rate == 1 || rate == 2);
    (left + rate - 1) >> (rate - 1)
}

/// Cluster growth on a pass clock, equivalent to running unit passes.
///
/// A unit pass grows each odd, boundary-free cluster (in ascending
/// root order) by one unit along each of its frontier edges (in
/// ascending edge order); an edge that reaches its capacity saturates
/// and merges the clusters at its ends, or gives its cluster boundary
/// contact. A cluster that merged earlier in a pass grows along its
/// merged frontier at its turn, or not at all if it is no longer a
/// growing root.
///
/// Here a clock does that growth. Each frontier edge keeps the units
/// it lacks as of a pass `since` and its listers, the growing clusters
/// whose frontiers hold it (at most two), and gains one unit per pass
/// and lister. It waits in the ring bucket of the pass in which it
/// fills, so the loop jumps from one saturating pass to the next, and
/// a pass visits only what can change in it, in ascending root order:
///
/// * the pass's bucket hands each due edge to the lister whose unit
///   fills it, and that cluster saturates its due edges, in ascending
///   order, at its turn. A unit pass would add the same units to its
///   other edges, which the clock already counts;
/// * a cluster that a merge reaches before its turn leaves the clock
///   and, if it is still a growing root at its turn, grows along its
///   merged frontier explicitly.
///
/// At the end of the pass the clusters that merged or met the boundary
/// go back on the clock, re-filing their frontiers, if they still grow.
/// Leaving the clock costs O(1): the pass a cluster's units stop at is
/// recorded, and an edge folds them in when it is next read, so an edge
/// may wait in a bucket earlier than its fill, never later, and is
/// re-filed when its bucket comes up. Until a decode writes an edge,
/// the defects at its ends list it from pass 0, so a defect's
/// frontier, its CSR row, is filed without a write to the clock: the
/// row edges that fill first each in their bucket, the rest as one row
/// entry. The loop ends once no cluster is on the clock, and re-arming
/// unlinks what is left in the ring. The cost follows the saturations
/// and the frontiers of the clusters that change, not the passes times
/// every frontier.
fn grow(
    graph: &DecodingGraph,
    capacity: &[u32],
    s: &mut UfScratch,
    (dlo, dhi): (u32, u32),
    syndrome: &[u32],
) {
    let mut g = Growth {
        graph,
        capacity,
        dlo,
        dhi,
        pass: 0,
        turn: NO_NODE,
    };
    for &x in syndrome {
        s.mark[x as usize] |= LIVE;
    }
    s.live = syndrome.len() as u32;
    for &x in syndrome {
        g.file_row(s, x);
    }
    // Borrowed out of the scratch while the turns need `&mut s`, and
    // handed back after, so its capacity is retained.
    let mut edges = std::mem::take(&mut s.frontier);
    while s.live != 0 && s.occupied != 0 {
        // Jump to the next pass in which an edge fills and hand each
        // of its edges to the lister whose unit fills it.
        g.pass += 1 + s
            .occupied
            .rotate_right((g.pass + 1) % RING)
            .trailing_zeros();
        edges.clear();
        s.drain(g.pass % RING, &mut edges);
        for &i in &edges {
            if i >= s.edge_base {
                g.refile(s, i - s.edge_base);
            } else {
                g.file_rest(s, i - s.row_base);
            }
        }
        // Every queued root was growing when the pass started; a merge
        // before its turn may have absorbed or neutralized it, or taken
        // it off the clock.
        while let Some(Reverse(x)) = s.visits.pop() {
            s.mark[x as usize] &= !QUEUED;
            g.turn = x;
            edges.clear();
            if s.find(x) != x || !s.growing(x) {
                // No turn: the edges it was due to fill wait for their
                // other lister, if any.
                s.drain(RING + x, &mut edges);
                for &i in &edges {
                    g.refile(s, i - s.edge_base);
                }
            } else if s.mark[x as usize] & CHANGED != 0 {
                g.regrow(s, x, &mut edges);
            } else {
                s.drain(RING + x, &mut edges);
                edges.sort_unstable();
                for &i in &edges {
                    g.fill(s, x, i - s.edge_base);
                }
            }
        }
        g.turn = NO_NODE;
        for i in 0..s.changed.len() {
            let c = s.changed[i];
            if s.find(c) == c && s.growing(c) {
                g.attach(s, c);
                s.mark[c as usize] = (s.mark[c as usize] | LIVE) & !CHANGED;
                s.live += 1;
            } else {
                s.mark[c as usize] &= !(LIVE | CHANGED);
            }
        }
        s.changed.clear();
    }
    s.frontier = edges;
}

/// One decode's growth context: the graph and range it grows in, and
/// the clock.
struct Growth<'a> {
    graph: &'a DecodingGraph,
    capacity: &'a [u32],
    dlo: u32,
    dhi: u32,
    /// The current pass.
    pass: u32,
    /// Root whose turn in the pass is under way: the listers up to it
    /// have grown their edges in this pass, those above it have not.
    turn: u32,
}

impl Growth<'_> {
    /// Edge `e` as of the end of pass `t` (at least its `since`): the
    /// units it lacks, counting its listers on the clock up to `t` and
    /// the others up to the pass they left it, and its listers on the
    /// clock.
    fn view(&self, s: &UfScratch, e: u32, t: u32) -> (i32, [u32; 2]) {
        let ends = || {
            let edge = &self.graph.records()[e as usize];
            (edge.u, edge.v)
        };
        self.view_with(s, e, ends, t)
    }

    /// [`view`](Growth::view) of edge `e`, whose ends `ends` yields
    /// (in either order) if the edge is pristine.
    fn view_with(
        &self,
        s: &UfScratch,
        e: u32,
        ends: impl FnOnce() -> (u32, u32),
        t: u32,
    ) -> (i32, [u32; 2]) {
        let c = s.clock[e as usize];
        let (mut left, since, lister) = if c.since == NEVER {
            let listed = |x: u32| {
                if x < self.dhi && s.mark[x as usize] & DEFECT != 0 {
                    x
                } else {
                    NO_NODE
                }
            };
            let (u, v) = ends();
            let cap = self.capacity[e as usize] as i32;
            (cap, 0, [listed(u), listed(v)])
        } else {
            (c.left as i32, c.since, c.lister)
        };
        let mut live = [NO_NODE; 2];
        for (slot, l) in lister.into_iter().enumerate() {
            if l == NO_NODE {
                continue;
            }
            if s.mark[l as usize] & (LIVE | CHANGED) == LIVE {
                live[slot] = l;
                left -= (t - since) as i32;
            } else {
                left -= (s.off[l as usize] - since) as i32;
            }
        }
        (left, live)
    }

    /// Files edge `e`, which lacks `left` units at the end of the last
    /// pass and has the listers `live` on the clock: in the due list of
    /// the lister whose unit fills it in this pass, or in the bucket of
    /// a later pass, or nowhere if no cluster grows it.
    fn place(&self, s: &mut UfScratch, e: u32, left: i32, live: [u32; 2]) {
        s.unlink(s.edge_base + e);
        let rate = rate(live);
        if rate == 0 {
            return;
        }
        debug_assert!(left > 0, "edge {e} full but not saturated");
        if left as u32 <= rate {
            // The first unit fills it, or the second of two listers.
            let [l0, l1] = live;
            let l = if left == 1 { l0.min(l1) } else { l0.max(l1) };
            debug_assert!(
                self.turn == NO_NODE || l > self.turn,
                "edge {e} fills after its turn"
            );
            s.assign(l, e);
        } else {
            let due = self.pass - 1 + div_rate(left as u32, rate);
            s.file(s.edge_base + e, due);
        }
    }

    /// Re-files edge `e` from its clock.
    fn refile(&self, s: &mut UfScratch, e: u32) {
        if s.clock[e as usize].left != FULL {
            let (left, live) = self.view(s, e, self.pass - 1);
            self.place(s, e, left, live);
        }
    }

    /// Pass in which the defect `x`'s row edge `a` fills, as of pass
    /// 0, or `u32::MAX` if another defect filed it: an edge between two
    /// defects grows from both ends and is filed from one of them.
    fn row_due(&self, s: &UfScratch, a: AdjEntry) -> u32 {
        let shared = a.to < self.dhi && s.mark[a.to as usize] & DEFECT != 0;
        if shared && s.is_linked(s.edge_base + a.edge) {
            return u32::MAX;
        }
        div_rate(self.capacity[a.edge as usize], 1 + shared as u32)
    }

    /// Files the CSR row of the defect `x`, a singleton on the clock
    /// since pass 0: the row edges that fill first, each in its bucket,
    /// and the rest of the row as one row entry in the bucket of the
    /// next pass in which one of them may fill. Most defects merge when
    /// their first edges fill, which leaves the rest of their row to
    /// the clusters that merge with them.
    fn file_row(&self, s: &mut UfScratch, x: u32) {
        let row = self.graph.neighbors_from(x, self.dlo);
        // The dues of a row's first edges are kept for the filing loop;
        // a longer row's others are computed again.
        let mut dues = [u32::MAX; 32];
        let mut first = u32::MAX;
        for (i, &a) in row.iter().enumerate() {
            let due = self.row_due(s, a);
            if let Some(d) = dues.get_mut(i) {
                *d = due;
            }
            first = first.min(due);
        }
        if first == u32::MAX {
            return;
        }
        let mut rest = u32::MAX;
        for (i, &a) in row.iter().enumerate() {
            let due = match dues.get(i) {
                Some(&due) => due,
                None => self.row_due(s, a),
            };
            if due == first {
                s.file(s.edge_base + a.edge, due);
            } else {
                rest = rest.min(due);
            }
        }
        if rest != u32::MAX {
            s.file(s.row_base + x, rest);
        }
    }

    /// The row entry of the defect `x` came up: if `x` is still a
    /// singleton on the clock, files each unfiled edge of its row. Else
    /// the clusters it merged into, and any other defect on its row,
    /// have filed those edges that still grow.
    fn file_rest(&self, s: &mut UfScratch, x: u32) {
        if s.mark[x as usize] & (LIVE | CHANGED) != LIVE || s.root[x as usize].size != 1 {
            return;
        }
        for a in self.graph.neighbors_from(x, self.dlo) {
            let c = s.clock[a.edge as usize];
            if c.since == NEVER && !s.is_linked(s.edge_base + a.edge) {
                let (left, live) = self.view_with(s, a.edge, || (x, a.to), self.pass - 1);
                self.place(s, a.edge, left, live);
            }
        }
    }

    /// Puts the growing cluster rooted at `r`, still marked changed, on
    /// the clock from the end of this pass: a lister of every
    /// unsaturated edge at its members, each re-filed for its new rate.
    fn attach(&self, s: &mut UfScratch, r: u32) {
        let mut node = s.root[r as usize].head;
        while node != NO_NODE {
            for a in self.graph.neighbors_from(node, self.dlo) {
                let c = s.clock[a.edge as usize];
                if c.left == FULL || (c.since == self.pass && c.lister[0] == r) {
                    continue;
                }
                let (left, [l0, l1]) = self.view_with(s, a.edge, || (node, a.to), self.pass);
                debug_assert!(l0 == NO_NODE || l1 == NO_NODE, "edge listed thrice");
                let other = if l0 == NO_NODE { l1 } else { l0 };
                let clock = EdgeClock {
                    left: left as u32,
                    since: self.pass,
                    lister: [r, other],
                };
                s.set_clock(a.edge, clock);
                let due = self.pass + div_rate(left as u32, 1 + (other != NO_NODE) as u32);
                s.unlink(s.edge_base + a.edge);
                s.file(s.edge_base + a.edge, due);
            }
            node = s.node[node as usize].next;
        }
    }

    /// Takes the cluster rooted at `r` off the clock as a merge or the
    /// boundary reaches it: its units stop after this pass if its turn
    /// has come and before it otherwise, when it is queued for its
    /// turn. Its edges fill no earlier for it, so they keep their
    /// buckets until these come up.
    fn detach(&self, s: &mut UfScratch, r: u32) {
        let passed = r <= self.turn;
        if !passed {
            s.queue(r);
        }
        s.off[r as usize] = self.pass - 1 + passed as u32;
        s.live -= 1;
    }

    /// Edge `e` at the turn of the root `x` on the clock: saturated if
    /// `x`'s unit of this pass fills it, else re-filed. Whether it
    /// fills is fixed when the turn starts: only `x`'s own units fill
    /// edges during it, and the clock already counts them.
    fn fill(&self, s: &mut UfScratch, x: u32, e: u32) {
        if s.clock[e as usize].left == FULL {
            return;
        }
        let (left, [l0, l1]) = self.view(s, e, self.pass - 1);
        if (l0 <= x) as i32 + (l1 <= x) as i32 >= left {
            self.saturate(s, e);
        } else {
            self.place(s, e, left, [l0, l1]);
        }
    }

    /// The turn of the growing root `x`, which a merge took off the
    /// clock: one unit along each edge of its merged frontier, in
    /// ascending order. The list is fixed when the turn starts: merges
    /// during the turn add members, not units. A merged cluster is
    /// never a singleton, whose frontier would be its CSR row.
    fn regrow(&self, s: &mut UfScratch, x: u32, frontier: &mut Vec<u32>) {
        push_frontier(self.graph, s, self.dlo, x, frontier);
        for &e in frontier.iter() {
            let (left, [l0, l1]) = self.view(s, e, self.pass - 1);
            if 1 + (l0 < x) as i32 + (l1 < x) as i32 >= left {
                self.saturate(s, e);
                continue;
            }
            let clock = EdgeClock {
                left: left as u32 - 1,
                since: self.pass - 1,
                lister: [l0, l1],
            };
            s.set_clock(e, clock);
            // The extra unit may make the edge fill sooner.
            self.place(s, e, left - 1, [l0, l1]);
        }
    }

    /// Saturates edge `e`: merges the clusters at its ends, or gives
    /// its cluster boundary contact.
    fn saturate(&self, s: &mut UfScratch, e: u32) {
        let ei = e as usize;
        s.grown[ei] |= SATURATED;
        let full = EdgeClock {
            left: FULL,
            since: 0,
            lister: [NO_NODE; 2],
        };
        s.set_clock(e, full);
        s.unlink(s.edge_base + e);
        s.saturated.push(e);
        let edge = &self.graph.records()[ei];
        if edge.v >= self.dhi {
            let r = s.find(edge.u);
            self.change(s, r);
            s.root[r as usize].flags |= CLUSTER_BOUNDARY;
        } else {
            let (ra, rb) = (s.find(edge.u), s.find(edge.v));
            if ra != rb {
                self.change(s, ra);
                self.change(s, rb);
                s.union(ra, rb);
            }
        }
    }

    /// Takes root `r`, which is about to merge or meet the boundary,
    /// off the clock if it is on it, and lists it as changed.
    fn change(&self, s: &mut UfScratch, r: u32) {
        if s.mark[r as usize] & (LIVE | CHANGED) == LIVE {
            self.detach(s, r);
        }
        if s.mark[r as usize] & CHANGED == 0 {
            s.mark[r as usize] |= CHANGED;
            s.changed.push(r);
        }
    }
}

impl Decoder for UfDecoder {
    fn decode_into(&self, scratch: &mut DecoderScratch, syndrome: &[u32], correction: &mut u32) {
        let DecoderScratch { uf, edges, .. } = scratch;
        let full = (0, self.graph.num_detectors());
        *correction = uf_decode(&self.graph, &self.capacity, uf, full, syndrome, edges);
    }

    fn decode_window_into(
        &self,
        scratch: &mut DecoderScratch,
        range: (u32, u32),
        syndrome: &[u32],
        edges: &mut Vec<u32>,
    ) -> Option<&DecodingGraph> {
        uf_decode(
            &self.graph,
            &self.capacity,
            &mut scratch.uf,
            range,
            syndrome,
            edges,
        );
        Some(&self.graph)
    }

    fn scratch_capacity(&self) -> ScratchCapacity {
        ScratchCapacity::for_graph(&self.graph, 0)
    }
}

/// Breadth-first spanning tree of `root`'s component in the saturated
/// subgraph below `dhi`, appended to `s.order` / `s.parent_edge`, over
/// the saturated adjacency lists (`s.sat_head`). The order array
/// doubles as the FIFO queue (new nodes are pushed at the tail and
/// scanned by index), so BFS needs no separate queue arena.
fn bfs(s: &mut UfScratch, root: u32) {
    s.mark[root as usize] |= VISITED;
    let mut scan = s.order.len();
    s.order.push(root);
    while scan < s.order.len() {
        let u = s.order[scan];
        scan += 1;
        let mut i = s.sat_head[u as usize];
        while i != NO_EDGE {
            let SatEntry { edge, to, next } = s.sat_adj[i as usize];
            if s.mark[to as usize] & VISITED == 0 {
                s.mark[to as usize] |= VISITED;
                s.parent_edge[to as usize] = edge;
                s.order.push(to);
            }
            i = next;
        }
    }
}

/// Peels the saturated subgraph (in `s.grown` / `s.mark`), in which an
/// edge reaching `dhi` or beyond ends at the boundary, appending the
/// correction's edges to `edges` and returning the XOR of their
/// observables, and lists the nodes the decode touched in `s.touched`.
///
/// The forest roots are the ones a scan of every edge and then every
/// node would pick, in the same order: first the detector end of each
/// saturated boundary edge, by edge index, then each node that is a
/// defect or ends a saturated edge, by node index.
fn peel(
    graph: &DecodingGraph,
    s: &mut UfScratch,
    dhi: u32,
    syndrome: &[u32],
    edges: &mut Vec<u32>,
) -> u32 {
    let rec = graph.records();
    let mut mask = 0u32;
    s.saturated.sort_unstable();
    // Each node's saturated edges below `dhi`, listed in ascending
    // order: the entries of its CSR row that a BFS follows.
    for i in (0..s.saturated.len()).rev() {
        let ei = s.saturated[i];
        let e = &rec[ei as usize];
        if e.v < dhi {
            s.push_sat(e.u, ei, e.v);
            s.push_sat(e.v, ei, e.u);
        }
    }
    // VISITED bits are clear here: marks start pristine and only the
    // peeling BFS below sets them.
    // Boundary-anchored spanning trees first: each root's BFS claims
    // its whole component before other roots are considered, so
    // boundary-reachable defects drain to the boundary.
    for i in 0..s.saturated.len() {
        let ei = s.saturated[i];
        let e = &rec[ei as usize];
        if e.v >= dhi && s.mark[e.u as usize] & VISITED == 0 {
            s.root_drains.push((e.u, ei));
            bfs(s, e.u);
        }
    }
    // Remaining components of the saturated subgraph.
    for &x in syndrome {
        s.touch(x);
    }
    for i in 0..s.saturated.len() {
        let e = &rec[s.saturated[i] as usize];
        s.touch(e.u);
        if e.v < dhi {
            s.touch(e.v);
        }
    }
    s.touched.sort_unstable();
    for i in 0..s.touched.len() {
        let node = s.touched[i];
        if s.mark[node as usize] & VISITED == 0 {
            s.root_drains.push((node, NO_EDGE));
            bfs(s, node);
        }
    }
    // Peel in reverse BFS order: each non-root node pushes its defect
    // to its parent through the tree edge.
    for i in (0..s.order.len()).rev() {
        let node = s.order[i];
        let ei = s.parent_edge[node as usize];
        if ei == NO_EDGE {
            continue; // root
        }
        if s.mark[node as usize] & DEFECT != 0 {
            let e = &rec[ei as usize];
            edges.push(ei);
            mask ^= e.observables;
            s.mark[node as usize] &= !DEFECT;
            let parent = if e.u == node {
                debug_assert!(e.v < dhi, "tree edges are internal");
                e.v
            } else {
                e.u
            };
            s.mark[parent as usize] ^= DEFECT;
        }
    }
    // Residual defects at roots drain through their boundary edge.
    for i in 0..s.root_drains.len() {
        let (root, bedge) = s.root_drains[i];
        if s.mark[root as usize] & DEFECT != 0 && bedge != NO_EDGE {
            edges.push(bedge);
            mask ^= rec[bedge as usize].observables;
            s.mark[root as usize] &= !DEFECT;
        }
    }
    mask
}

/// The unit-step growth and full-graph peel that [`uf_decode`]
/// replaced, kept as the oracle its equivalence tests compare against:
/// every pass walks every member of every growing cluster, and peeling
/// scans every edge and every node for forest roots.
#[cfg(test)]
mod reference {
    use super::*;

    /// Breadth-first spanning tree of `root`'s component in the
    /// saturated subgraph, scanning each node's whole CSR row.
    fn bfs(graph: &DecodingGraph, s: &mut UfScratch, dhi: u32, root: u32) {
        s.mark[root as usize] |= VISITED;
        let mut scan = s.order.len();
        s.order.push(root);
        while scan < s.order.len() {
            let u = s.order[scan];
            scan += 1;
            for a in graph.neighbors(u) {
                if s.grown[a.edge as usize] & SATURATED == 0 || a.to >= dhi {
                    continue;
                }
                if s.mark[a.to as usize] & VISITED == 0 {
                    s.mark[a.to as usize] |= VISITED;
                    s.parent_edge[a.to as usize] = a.edge;
                    s.order.push(a.to);
                }
            }
        }
    }

    /// Decodes `syndrome` through `s`, which it first resets in full,
    /// and returns the correction's observable mask.
    pub(super) fn decode(
        graph: &DecodingGraph,
        capacity: &[u32],
        s: &mut UfScratch,
        syndrome: &[u32],
    ) -> u32 {
        if syndrome.is_empty() {
            return 0;
        }
        let n = graph.num_detectors() as usize;
        let rec = graph.records();
        s.node.clear();
        s.root.clear();
        s.mark.clear();
        s.grown.clear();
        s.parent_edge.clear();
        s.arm(n, rec.len());
        for &f in syndrome {
            s.mark[f as usize] |= DEFECT;
            s.root[f as usize].flags |= PARITY;
        }
        let mut roots = Vec::new();
        let mut frontier = Vec::new();
        loop {
            roots.clear();
            for &x in syndrome {
                let r = s.find(x);
                if s.growing(r) {
                    roots.push(r);
                }
            }
            roots.sort_unstable();
            roots.dedup();
            if roots.is_empty() {
                break;
            }
            for &root in &roots {
                let r = s.find(root);
                if r != root || !s.growing(r) {
                    continue;
                }
                frontier.clear();
                let mut node = s.root[root as usize].head;
                while node != NO_NODE {
                    for a in graph.neighbors(node) {
                        if s.grown[a.edge as usize] & SATURATED == 0 {
                            frontier.push(a.edge);
                        }
                    }
                    node = s.node[node as usize].next;
                }
                frontier.sort_unstable();
                frontier.dedup();
                for &ei in &frontier {
                    s.grown[ei as usize] += 1;
                    if s.grown[ei as usize] >= capacity[ei as usize] {
                        s.grown[ei as usize] |= SATURATED;
                        let e = &rec[ei as usize];
                        if e.v == NO_NODE {
                            let r = s.find(e.u);
                            s.root[r as usize].flags |= CLUSTER_BOUNDARY;
                        } else {
                            s.union(e.u, e.v);
                        }
                    }
                }
            }
        }
        let mut mask = 0u32;
        for (ei, e) in rec.iter().enumerate() {
            if s.grown[ei] & SATURATED != 0 && e.v == NO_NODE && s.mark[e.u as usize] & VISITED == 0
            {
                s.root_drains.push((e.u, ei as u32));
                bfs(graph, s, NO_NODE, e.u);
            }
        }
        for node in 0..n as u32 {
            if s.mark[node as usize] & VISITED == 0 {
                let in_subgraph = graph
                    .neighbors(node)
                    .iter()
                    .any(|a| s.grown[a.edge as usize] & SATURATED != 0);
                if in_subgraph || s.mark[node as usize] & DEFECT != 0 {
                    s.root_drains.push((node, NO_EDGE));
                    bfs(graph, s, NO_NODE, node);
                }
            }
        }
        for i in (0..s.order.len()).rev() {
            let node = s.order[i];
            let ei = s.parent_edge[node as usize];
            if ei == NO_EDGE {
                continue;
            }
            if s.mark[node as usize] & DEFECT != 0 {
                let e = &rec[ei as usize];
                mask ^= e.observables;
                s.mark[node as usize] &= !DEFECT;
                let parent = if e.u == node { e.v } else { e.u };
                s.mark[parent as usize] ^= DEFECT;
            }
        }
        for i in 0..s.root_drains.len() {
            let (root, bedge) = s.root_drains[i];
            if s.mark[root as usize] & DEFECT != 0 && bedge != NO_EDGE {
                mask ^= rec[bedge as usize].observables;
                s.mark[root as usize] &= !DEFECT;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_circuit::{Circuit, DetectorBasis, MeasRef, Op};
    use ftqc_sim::DetectorErrorModel;

    /// Distance-5 repetition-code-like chain with observable on the
    /// first boundary edge.
    fn chain_graph(n_checks: u32, p: f64) -> DecodingGraph {
        let n_data = n_checks + 1;
        let mut c = Circuit::new(n_data + n_checks);
        c.push(Op::ResetZ((0..n_data + n_checks).collect()));
        c.push(Op::PauliChannel {
            qubits: (0..n_data).collect(),
            px: p,
            py: 0.0,
            pz: 0.0,
        });
        for k in 0..n_checks {
            c.push(Op::cx([(k, n_data + k)]));
            c.push(Op::cx([(k + 1, n_data + k)]));
        }
        c.push(Op::measure_z(
            (n_data..n_data + n_checks).collect::<Vec<_>>(),
            0.0,
        ));
        for k in 0..n_checks {
            c.push(Op::detector([MeasRef(k)], DetectorBasis::Z));
        }
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::ObservableInclude {
            observable: 0,
            records: vec![MeasRef(n_checks)],
        });
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        DecodingGraph::from_dem(&dem)
    }

    #[test]
    fn empty_syndrome_predicts_nothing() {
        let d = UfDecoder::new(chain_graph(4, 0.01));
        assert_eq!(d.predict(&[]), 0);
    }

    #[test]
    fn single_defect_matches_to_nearest_boundary() {
        let d = UfDecoder::new(chain_graph(4, 0.01));
        // Defect at detector 0: nearest boundary is the left one, whose
        // edge carries the observable.
        assert_eq!(d.predict(&[0]), 1);
        // Defect at the last detector: right boundary, no observable.
        assert_eq!(d.predict(&[3]), 0);
    }

    #[test]
    fn adjacent_pair_matches_internally() {
        let d = UfDecoder::new(chain_graph(4, 0.01));
        // Defects at detectors 1,2: error on data qubit 2 — no logical
        // flip.
        assert_eq!(d.predict(&[1, 2]), 0);
    }

    #[test]
    fn error_past_the_middle_flips_logical() {
        // A single data-0 error flips only detector 0 and the
        // observable; the decoder should predict the flip.
        let d = UfDecoder::new(chain_graph(6, 0.01));
        assert_eq!(d.predict(&[0]), 1);
    }

    /// Noisy memory (`rounds` = 0) or Table 2 Hybrid-row lattice
    /// surgery circuit at distance `d`.
    fn code_graph(d: u32, surgery: bool) -> DecodingGraph {
        use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
        use ftqc_surface::{LatticeSurgeryConfig, MemoryConfig};
        use ftqc_sync::{PolicySpec, SyncContext};
        let hw = HardwareConfig::ibm();
        let schedule = if surgery {
            let ctx = SyncContext::new(1000.0, 1000.0, 1325.0, d + 1).unwrap();
            let mut cfg = LatticeSurgeryConfig::new(d, &hw);
            cfg.plan = PolicySpec::hybrid(400.0)
                .plan(&ctx)
                .or_else(|_| PolicySpec::Active.plan(&ctx))
                .unwrap();
            cfg.lagging_round_stretch_ns = 325.0;
            cfg.build()
        } else {
            MemoryConfig::new(d, d + 1, &hw).build()
        };
        let circuit = CircuitNoiseModel::standard(1e-3, &hw).apply(&schedule);
        let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
        DecodingGraph::from_dem(&dem)
    }

    /// [`check_against_reference_up_to`] with capacities in 1..=40.
    fn check_against_reference(graph: &DecodingGraph, range: (u32, u32), trials: usize, seed: u64) {
        check_against_reference_up_to(graph, range, trials, seed, 40);
    }

    /// Decodes `trials` random syndromes of the detector range
    /// `[dlo, dhi)` under random integer capacities in
    /// 1..=`max_capacity` through one reused scratch and checks each
    /// against the reference run on the range's materialized window:
    /// same correction, same saturated edges, same peeling forest, up
    /// to the window's id offsets. Capacity 1 saturates on the first
    /// unit, and odd capacities on edges two clusters grow from both
    /// sides saturate in the middle of a pass.
    fn check_against_reference_up_to(
        graph: &DecodingGraph,
        (dlo, dhi): (u32, u32),
        trials: usize,
        seed: u64,
        max_capacity: u32,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let (window, first, _) = crate::graph::materialize_window(graph, dlo, dhi);
        let run = first as usize..first as usize + window.records().len();
        let mut scratch = UfScratch::default();
        let mut edges = Vec::new();
        let mut oracle = UfScratch::default();
        let mut capacity = vec![0u32; graph.records().len()];
        for trial in 0..trials {
            if trial % 4 == 0 {
                capacity
                    .iter_mut()
                    .for_each(|c| *c = rng.gen_range(1..max_capacity + 1));
            }
            let density = rng.gen::<f64>() * 0.3;
            let syndrome: Vec<u32> = (dlo..dhi).filter(|_| rng.gen_bool(density)).collect();
            let range = (dlo, dhi);
            let got = uf_decode(graph, &capacity, &mut scratch, range, &syndrome, &mut edges);
            assert_eq!(
                got,
                graph.observables_of(&edges),
                "trial {trial}: mask of the edges"
            );
            let local: Vec<u32> = syndrome.iter().map(|&d| d - dlo).collect();
            let want = reference::decode(&window, &capacity[run.clone()], &mut oracle, &local);
            assert_eq!(got, want, "trial {trial}: correction of {syndrome:?}");
            if syndrome.is_empty() {
                continue;
            }
            let s = &scratch;
            let saturated: Vec<u32> = (0..oracle.grown.len() as u32)
                .filter(|&ei| oracle.grown[ei as usize] & SATURATED != 0)
                .map(|ei| ei + first)
                .collect();
            assert_eq!(s.saturated, saturated, "trial {trial}: saturated edges");
            let order: Vec<u32> = oracle.order.iter().map(|&x| x + dlo).collect();
            assert_eq!(s.order, order, "trial {trial}: peeling order");
            let drains: Vec<(u32, u32)> = oracle
                .root_drains
                .iter()
                .map(|&(x, e)| (x + dlo, if e == NO_EDGE { e } else { e + first }))
                .collect();
            assert_eq!(s.root_drains, drains, "trial {trial}: forest roots");
        }
    }

    /// The full detector range of `graph`.
    fn full(graph: &DecodingGraph) -> (u32, u32) {
        (0, graph.num_detectors())
    }

    #[test]
    fn matches_reference_on_the_chain() {
        let g = chain_graph(8, 0.01);
        check_against_reference(&g, full(&g), 1000, 5);
    }

    #[test]
    fn matches_reference_on_d3_memory() {
        let g = code_graph(3, false);
        check_against_reference(&g, full(&g), 600, 6);
    }

    #[test]
    fn matches_reference_on_d5_memory() {
        let g = code_graph(5, false);
        check_against_reference(&g, full(&g), 200, 7);
    }

    #[test]
    fn matches_reference_on_d3_surgery() {
        let g = code_graph(3, true);
        check_against_reference(&g, full(&g), 200, 8);
    }

    #[test]
    fn matches_reference_on_a_d5_memory_window() {
        // Edges leaving the range downward are skipped, and edges
        // leaving it upward end at the boundary.
        let g = code_graph(5, false);
        let n = g.num_detectors();
        check_against_reference(&g, (n / 3, 2 * n / 3), 200, 9);
    }

    /// The largest capacity [`quantize_capacity`] yields: weights are
    /// at most `ln(1 / 1e-12)` (see `graph::weight_of`'s clamp).
    const MAX_CAPACITY: u32 = 111;

    #[test]
    fn max_capacity_bounds_every_quantized_weight() {
        assert_eq!(
            quantize_capacity(((1.0 - 1e-12) / 1e-12f64).ln()),
            MAX_CAPACITY
        );
    }

    #[test]
    fn matches_reference_on_d5_surgery() {
        // The benchmark's graph, with capacities spanning the whole
        // quantized range.
        let g = code_graph(5, true);
        check_against_reference_up_to(&g, full(&g), 100, 10, MAX_CAPACITY);
    }

    #[test]
    fn matches_reference_on_a_d5_surgery_window() {
        let g = code_graph(5, true);
        let n = g.num_detectors();
        check_against_reference_up_to(&g, (n / 3, 2 * n / 3), 100, 11, MAX_CAPACITY);
    }

    #[test]
    fn matches_reference_with_capacities_beyond_the_ring() {
        // A hand-built graph's weights may quantize past the ring's
        // 128 passes; such edges come up early and are re-filed.
        let g = chain_graph(8, 0.01);
        check_against_reference_up_to(&g, full(&g), 300, 12, 400);
    }

    #[test]
    fn declares_a_graph_sized_capacity() {
        let d = UfDecoder::new(chain_graph(4, 0.01));
        let cap = d.scratch_capacity();
        assert_eq!(cap.nodes, d.graph().num_detectors());
        assert_eq!(cap.edges as usize, d.graph().records().len());
        assert_eq!(cap.exact_limit, 0);
    }
}
