//! Weighted union-find decoding (cluster growth + peeling) on flat
//! index arenas.

use crate::evaluate::Decoder;
use crate::graph::{DecodingGraph, NO_NODE};
use crate::scratch::{
    DecoderScratch, ScratchCapacity, Segment, UfScratch, CLUSTER_BOUNDARY, DEFECT, LISTED, NO_EDGE,
    PARITY, SATURATED, VISITED,
};
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
/// The decode's cost follows the clusters, not the graph, as in the
/// almost-linear bound of Delfosse–Nickerson: growth jumps in one step
/// over the passes that saturate no edge, the peeling forests are
/// seeded from the saturated edges and the syndrome instead of a scan
/// of the graph, and only the arena entries a decode dirtied are
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
    /// Wraps a decoding graph.
    pub fn new(graph: DecodingGraph) -> UfDecoder {
        UfDecoder::from_shared(Arc::new(graph))
    }

    /// Wraps an already-shared decoding graph without deep-copying it —
    /// how [`MwpmDecoder`](crate::MwpmDecoder) shares one graph with
    /// its union-find fallback.
    pub fn from_shared(graph: Arc<DecodingGraph>) -> UfDecoder {
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
    s.rearm(graph);
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

/// Cluster growth. Every pass grows each odd, boundary-free cluster
/// (in ascending root order) by one unit along each of its frontier
/// edges (in ascending edge order); an edge that reaches its capacity
/// saturates and merges the clusters at its ends, or gives its
/// cluster boundary contact.
///
/// A pass that saturates nothing leaves the clusters as they were, so
/// the passes before the next saturation differ only in the counts
/// they add: one per pass on a frontier edge, two where two growing
/// clusters share it. Each round therefore lists every growing
/// cluster's frontier once, adds the counts of all those silent
/// passes in one step, and runs the pass that saturates. That pass
/// reuses a cluster's listed frontier unless the cluster merged
/// earlier in the pass — the only way its frontier can change — so
/// the result is exactly that of running every pass. A cluster that
/// did not merge since the last round keeps its listed frontier too,
/// less the edges that saturated.
fn grow(
    graph: &DecodingGraph,
    capacity: &[u32],
    s: &mut UfScratch,
    (dlo, dhi): (u32, u32),
    syndrome: &[u32],
) {
    let rec = graph.records();
    // The work lists are borrowed out of the scratch for the growth
    // loop (which needs `&mut s` for find/union) and handed back
    // after, so their capacity is retained.
    let mut roots = std::mem::take(&mut s.roots);
    let mut frontier = std::mem::take(&mut s.frontier);
    let mut segments = std::mem::take(&mut s.segments);
    let mut next = std::mem::take(&mut s.next_frontier);
    let mut next_segments = std::mem::take(&mut s.next_segments);
    // Roots of still-odd, boundary-free clusters. Every such cluster
    // holds a defect, and after the first round one that was growing
    // in the round before.
    roots.clear();
    roots.extend_from_slice(syndrome);
    segments.clear();
    loop {
        for r in roots.iter_mut() {
            *r = s.find(*r);
        }
        roots.retain(|&r| s.growing(r));
        roots.sort_unstable();
        roots.dedup();
        // List each frontier and find the first pass that saturates.
        next.clear();
        next_segments.clear();
        let mut passes = u32::MAX;
        let mut prev = segments.iter().peekable();
        let mut prev_start = 0;
        for &root in &roots {
            let size = s.root[root as usize].size;
            let start = next.len();
            while let Some(p) = prev.next_if(|p| p.root < root) {
                prev_start = p.end as usize;
            }
            match prev.next_if(|p| p.root == root) {
                Some(p) if p.size == size => {
                    for &ei in &frontier[prev_start..p.end as usize] {
                        if s.grown[ei as usize] & SATURATED == 0 {
                            next.push(ei);
                        }
                    }
                    prev_start = p.end as usize;
                }
                Some(p) => {
                    prev_start = p.end as usize;
                    push_frontier(graph, s, dlo, root, &mut next);
                }
                None => push_frontier(graph, s, dlo, root, &mut next),
            }
            for &ei in &next[start..] {
                let grown = s.grown[ei as usize];
                let left = capacity[ei as usize] - (grown & !LISTED);
                // Listed twice: two growing clusters share the edge.
                passes = passes.min(if grown & LISTED != 0 {
                    left.div_ceil(2)
                } else {
                    left
                });
                s.grown[ei as usize] = grown | LISTED;
            }
            next_segments.push(Segment {
                root,
                size,
                end: next.len() as u32,
            });
        }
        std::mem::swap(&mut frontier, &mut next);
        std::mem::swap(&mut segments, &mut next_segments);
        if passes == u32::MAX {
            // No growing cluster, or none with an edge left to grow.
            break;
        }
        let silent = passes - 1;
        for &ei in &frontier {
            s.grown[ei as usize] = (s.grown[ei as usize] & !LISTED) + silent;
        }
        // The saturating pass.
        let mut start = 0;
        for seg in &segments {
            let listed = start..seg.end as usize;
            start = seg.end as usize;
            // A merge earlier in this pass may have neutralized it.
            let r = s.find(seg.root);
            if r != seg.root || !s.growing(r) {
                continue;
            }
            let edges = if s.root[r as usize].size == seg.size {
                &frontier[listed]
            } else {
                next.clear();
                push_frontier(graph, s, dlo, r, &mut next);
                &next[..]
            };
            for &ei in edges {
                s.grown[ei as usize] += 1;
                if s.grown[ei as usize] >= capacity[ei as usize] {
                    s.grown[ei as usize] |= SATURATED;
                    s.saturated.push(ei);
                    let e = &rec[ei as usize];
                    if e.v >= dhi {
                        let r = s.find(e.u);
                        s.root[r as usize].flags |= CLUSTER_BOUNDARY;
                    } else {
                        s.union(e.u, e.v);
                    }
                }
            }
        }
        roots.clear();
        roots.extend(segments.iter().map(|seg| seg.root));
    }
    s.roots = roots;
    s.frontier = frontier;
    s.segments = segments;
    s.next_frontier = next;
    s.next_segments = next_segments;
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
/// subgraph below `dhi`, appended to `s.order` / `s.parent_edge`. The
/// order array doubles as the FIFO queue (new nodes are pushed at the
/// tail and scanned by index), so BFS needs no separate queue arena.
/// Edges leaving the range downward never grow, so the saturation test
/// skips them.
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
            bfs(graph, s, dhi, e.u);
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
            bfs(graph, s, dhi, node);
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

    /// Decodes `trials` random syndromes of the detector range
    /// `[dlo, dhi)` under random integer capacities in 1..=40 through
    /// one reused scratch and checks each against the reference run on
    /// the range's materialized window: same correction, same
    /// saturated edges, same peeling forest, up to the window's id
    /// offsets. Capacity 1 saturates on the first unit, and odd
    /// capacities on edges two clusters grow from both sides saturate
    /// in the middle of a pass.
    fn check_against_reference(
        graph: &DecodingGraph,
        (dlo, dhi): (u32, u32),
        trials: usize,
        seed: u64,
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
                capacity.iter_mut().for_each(|c| *c = rng.gen_range(1..41));
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

    #[test]
    fn declares_a_graph_sized_capacity() {
        let d = UfDecoder::new(chain_graph(4, 0.01));
        let cap = d.scratch_capacity();
        assert_eq!(cap.nodes, d.graph().num_detectors());
        assert_eq!(cap.edges as usize, d.graph().records().len());
        assert_eq!(cap.exact_limit, 0);
    }
}
