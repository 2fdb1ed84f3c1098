//! Minimum-weight perfect matching decoding.

use crate::evaluate::Decoder;
use crate::graph::{cancel_pairs, push_path, DecodingGraph};
use crate::scratch::{DecoderScratch, MatchScratch, ScratchCapacity};
use crate::union_find::UfDecoder;
use std::sync::Arc;
/// A minimum-weight perfect-matching decoder (the role PyMatching plays
/// in the paper's toolchain).
///
/// Flagged detectors are matched to each other or to the boundary so
/// that the total path weight through the decoding graph is minimal.
/// Pairwise distances come from per-defect Dijkstra, and the
/// correction is the matched pairs' shortest paths, read back from each
/// search's predecessor edges; the matching
/// itself is solved *exactly* by dynamic programming over defect
/// subsets, which is `O(2^k k)` for syndrome weight `k` — exact up to
/// [`MwpmDecoder::exact_limit`] defects (default 16) and delegated to
/// the union-find decoder beyond that. On `d`-round memory circuits
/// (IBM hardware, `p = 1e-3`, 4,096 shots) the fallback decodes 0.02%
/// of shots at `d = 5`, 8.6% at `d = 7`, 74% at `d = 9` and 99.7% at
/// `d = 11`, so at `d >= 9` this decoder is mostly union-find.
///
/// # Example
///
/// See the [crate-level example](crate) with `MwpmDecoder` substituted
/// for `UfDecoder`.
#[derive(Debug, Clone)]
pub struct MwpmDecoder {
    graph: Arc<DecodingGraph>,
    fallback: UfDecoder,
    exact_limit: usize,
}

impl MwpmDecoder {
    /// Wraps a decoding graph, owned or already shared, with the
    /// default exact-matching limit. A shared graph is never
    /// deep-copied, and the union-find fallback shares the same graph
    /// through an `Arc` rather than copying the edge and adjacency
    /// tables.
    pub fn new(graph: impl Into<Arc<DecodingGraph>>) -> MwpmDecoder {
        let graph = graph.into();
        MwpmDecoder {
            fallback: UfDecoder::new(Arc::clone(&graph)),
            graph,
            exact_limit: 16,
        }
    }

    /// Sets the syndrome weight above which decoding falls back to
    /// union-find.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero or above 24 (the subset DP table would
    /// not fit in memory).
    pub fn with_exact_limit(mut self, limit: usize) -> MwpmDecoder {
        assert!((1..=24).contains(&limit), "exact limit must be in 1..=24");
        self.exact_limit = limit;
        self
    }

    /// The syndrome weight up to which matching is exact.
    pub fn exact_limit(&self) -> usize {
        self.exact_limit
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }
}

/// Exact subset-DP matching of the flagged detectors over `graph`
/// restricted to the detector range `[dlo, dhi)` (the rule of
/// [`DecodingGraph::dijkstra_in`]), working out of `s` (the flattened
/// `k x k` distance matrix, each defect's shortest-path tree and the
/// `2^k` DP tables). Writes the edges of the minimum-weight pairing's
/// shortest paths into `edges`, an edge two paths share cancelling;
/// the XOR of their observables is the matcher's mask.
/// [`MwpmDecoder`] matches a shot over the full range and a fused
/// window over its own.
fn match_exact(
    graph: &DecodingGraph,
    s: &mut MatchScratch,
    (dlo, dhi): (u32, u32),
    flagged: &[u32],
    edges: &mut Vec<u32>,
) {
    let k = flagged.len();
    debug_assert!(
        s.bound_k == u32::MAX || k <= s.bound_k as usize,
        "MatchScratch bound overflow: {k} defects through a workspace bounded to {} \
         (was the scratch built for a smaller exact limit?)",
        s.bound_k
    );
    // The boundary's row in the window-local search rows.
    let boundary = dhi - dlo;
    // Pairwise distances and boundary distances, keeping each search's
    // shortest-path tree for the matched paths.
    s.pair_d.clear();
    s.pair_d.resize(k * k, f64::INFINITY);
    s.bdry_d.clear();
    s.bdry_d.resize(k, f64::INFINITY);
    if s.pred.len() < k {
        s.pred.resize_with(k, Default::default);
    }
    for (i, &f) in flagged.iter().enumerate() {
        graph.dijkstra_in(dlo, dhi, f, flagged, &mut s.dijkstra);
        for (j, &g) in flagged.iter().enumerate() {
            s.pair_d[i * k + j] = s.dijkstra.dist[(g - dlo) as usize];
        }
        s.bdry_d[i] = s.dijkstra.dist[boundary as usize];
        std::mem::swap(&mut s.dijkstra.pred, &mut s.pred[i]);
    }
    // dp[mask] = (cost, choice) over unmatched defects in `mask`.
    let full = (1usize << k) - 1;
    s.dp.clear();
    s.dp.resize(full + 1, f64::INFINITY);
    s.choice.clear();
    s.choice.resize(full + 1, (0, None));
    s.dp[0] = 0.0;
    for mask in 1..=full {
        let i = mask.trailing_zeros() as usize;
        let rest = mask & !(1 << i);
        // Match i to the boundary.
        if s.bdry_d[i] + s.dp[rest] < s.dp[mask] {
            s.dp[mask] = s.bdry_d[i] + s.dp[rest];
            s.choice[mask] = (i, None);
        }
        // Match i to another defect j.
        let mut bits = rest;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let sub = rest & !(1 << j);
            let cost = s.pair_d[i * k + j] + s.dp[sub];
            if cost < s.dp[mask] {
                s.dp[mask] = cost;
                s.choice[mask] = (i, Some(j));
            }
        }
    }
    // Walk the matched paths.
    edges.clear();
    let mut mask = full;
    while mask != 0 {
        let (i, j) = s.choice[mask];
        let (target, dist) = match j {
            None => {
                mask &= !(1 << i);
                (boundary, s.bdry_d[i])
            }
            Some(j) => {
                mask &= !(1 << i) & !(1 << j);
                (flagged[j] - dlo, s.pair_d[i * k + j])
            }
        };
        if dist.is_finite() {
            push_path(graph, dlo, &s.pred[i], flagged[i] - dlo, target, edges);
        }
    }
    cancel_pairs(edges);
}

impl Decoder for MwpmDecoder {
    fn decode_into(&self, scratch: &mut DecoderScratch, syndrome: &[u32], correction: &mut u32) {
        if syndrome.is_empty() {
            *correction = 0;
            return;
        }
        if syndrome.len() > self.exact_limit {
            return self.fallback.decode_into(scratch, syndrome, correction);
        }
        match_exact(
            &self.graph,
            &mut scratch.matching,
            (0, self.graph.num_detectors()),
            syndrome,
            &mut scratch.edges,
        );
        *correction = self.graph.observables_of(&scratch.edges);
    }

    fn decode_window_into(
        &self,
        scratch: &mut DecoderScratch,
        range: (u32, u32),
        syndrome: &[u32],
        edges: &mut Vec<u32>,
    ) -> Option<&DecodingGraph> {
        if syndrome.len() > self.exact_limit {
            // Same heavy-syndrome fallback as the batch path, on the
            // same range.
            return self
                .fallback
                .decode_window_into(scratch, range, syndrome, edges);
        }
        match_exact(&self.graph, &mut scratch.matching, range, syndrome, edges);
        Some(&self.graph)
    }

    fn scratch_capacity(&self) -> ScratchCapacity {
        ScratchCapacity::for_graph(&self.graph, self.exact_limit as u32)
    }
}

/// Flat upper-triangular index of the unordered defect pair `(i, j)`
/// among `k` defects — the same "no map, just math" layout the arena
/// core uses, exposed for the brute-force test reference.
#[cfg(test)]
pub fn tri_index(k: usize, i: usize, j: usize) -> usize {
    let (lo, hi) = (i.min(j), i.max(j));
    debug_assert!(lo < hi && hi < k);
    lo * (2 * k - lo - 1) / 2 + (hi - lo - 1)
}

/// Brute-force minimum-weight matching over explicit distances (a flat
/// triangular `pair_d`, indexed by [`tri_index`]), used by tests to
/// validate the DP.
#[cfg(test)]
pub fn brute_force_matching(k: usize, pair_d: &[f64], bdry_d: &[f64]) -> f64 {
    assert_eq!(pair_d.len(), k * k.saturating_sub(1) / 2);
    fn rec(k: usize, remaining: &[usize], pair_d: &[f64], bdry_d: &[f64]) -> f64 {
        let Some(&i) = remaining.first() else {
            return 0.0;
        };
        let rest = &remaining[1..];
        // Boundary.
        let mut best = bdry_d[i] + rec(k, rest, pair_d, bdry_d);
        for (idx, &j) in rest.iter().enumerate() {
            let mut r = rest.to_vec();
            r.remove(idx);
            let d = pair_d[tri_index(k, i, j)];
            best = best.min(d + rec(k, &r, pair_d, bdry_d));
        }
        best
    }
    let all: Vec<usize> = (0..k).collect();
    rec(k, &all, pair_d, bdry_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_circuit::{Circuit, DetectorBasis, MeasRef, Op};
    use ftqc_sim::DetectorErrorModel;

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
    fn matches_chain_cases() {
        let d = MwpmDecoder::new(chain_graph(4, 0.01));
        assert_eq!(d.predict(&[]), 0);
        assert_eq!(d.predict(&[0]), 1); // left boundary carries obs
        assert_eq!(d.predict(&[3]), 0); // right boundary
        assert_eq!(d.predict(&[1, 2]), 0); // internal pair
        assert_eq!(d.predict(&[0, 1]), 0); // error on data 1
    }

    /// Decodes `flagged` and asserts the DP's optimum equals the brute
    /// force over the same full-graph distances.
    fn assert_dp_is_optimal(decoder: &MwpmDecoder, flagged: &[u32], scratch: &mut DecoderScratch) {
        let g = &decoder.graph;
        let boundary = g.num_detectors() as usize;
        let k = flagged.len();
        let mut pair_d = vec![f64::INFINITY; k * (k - 1) / 2];
        let mut bdry_d = vec![0.0; k];
        let mut search = crate::DijkstraScratch::new();
        for (i, &f) in flagged.iter().enumerate() {
            g.dijkstra_to_with(f, &[], &mut search);
            let dist = search.dist();
            for (j, &h) in flagged.iter().enumerate().skip(i + 1) {
                pair_d[tri_index(k, i, j)] = dist[h as usize];
            }
            bdry_d[i] = dist[boundary];
        }
        let brute = brute_force_matching(k, &pair_d, &bdry_d);
        let mut correction = 0;
        decoder.decode_into(scratch, flagged, &mut correction);
        let dp = scratch.matching.dp[(1 << k) - 1];
        assert!(brute.is_finite(), "{flagged:?}: no finite matching");
        assert!(
            (dp - brute).abs() <= 1e-9,
            "{flagged:?}: DP optimum {dp} vs brute force {brute}"
        );
    }

    #[test]
    fn dp_matches_brute_force_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let decoder = MwpmDecoder::new(chain_graph(10, 0.01));
        let mut scratch = DecoderScratch::for_decoder(&decoder);
        for _ in 0..50 {
            let flagged: Vec<u32> = (0..10u32).filter(|_| rng.gen_bool(0.4)).collect();
            if !flagged.is_empty() {
                assert_dp_is_optimal(&decoder, &flagged, &mut scratch);
            }
        }
        // d = 3 memory syndromes of at most 8 defects.
        let hw = ftqc_noise::HardwareConfig::ibm();
        let circuit = ftqc_noise::CircuitNoiseModel::standard(3e-3, &hw)
            .apply(&ftqc_surface::MemoryConfig::new(3, 3, &hw).build());
        let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
        let decoder = MwpmDecoder::new(DecodingGraph::from_dem(&dem));
        let mut scratch = DecoderScratch::for_decoder(&decoder);
        let batch = ftqc_sim::sample_batch(&circuit, 400, 11);
        let mut checked = 0;
        for s in 0..batch.shots {
            let flagged = batch.flagged_detectors(s);
            if (1..=8).contains(&flagged.len()) {
                assert_dp_is_optimal(&decoder, &flagged, &mut scratch);
                checked += 1;
            }
        }
        assert!(checked >= 100, "only {checked} d = 3 syndromes checked");
    }

    #[test]
    fn parity_of_observable_matches_chain_semantics() {
        // On a chain with the observable on the left boundary, the
        // prediction flips exactly when the matching uses the left
        // boundary an odd number of times. Single defect at position i:
        // left if closer to left.
        let d = MwpmDecoder::new(chain_graph(9, 0.01));
        for i in 0..9u32 {
            let expect = if i < 4 { 1 } else { 0 }; // 9 checks: mid = 4
            if i != 4 {
                assert_eq!(d.predict(&[i]), expect, "defect {i}");
            }
        }
    }

    #[test]
    fn tri_index_is_a_bijection_onto_the_triangle() {
        let k = 7;
        let mut seen = vec![false; k * (k - 1) / 2];
        for i in 0..k {
            for j in (i + 1)..k {
                let idx = tri_index(k, i, j);
                assert_eq!(idx, tri_index(k, j, i), "order-insensitive");
                assert!(!seen[idx], "collision at ({i},{j})");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "surjective");
    }

    #[test]
    fn declares_capacity_with_its_exact_limit() {
        let d = MwpmDecoder::new(chain_graph(4, 0.01)).with_exact_limit(6);
        let cap = d.scratch_capacity();
        assert_eq!(cap.nodes, d.graph().num_detectors());
        assert_eq!(cap.exact_limit, 6);
    }

    #[test]
    fn window_searches_reset_window_sized_rows() {
        let g = chain_graph(20, 0.01);
        let d = MwpmDecoder::new(g.clone());
        let mut scratch = DecoderScratch::for_decoder(&d);
        let mut edges = Vec::new();
        let windowed = d.decode_window_into(&mut scratch, (6, 11), &[7, 9], &mut edges);
        assert!(windowed.is_some());
        // Five detectors and the boundary.
        assert_eq!(scratch.matching.dijkstra.dist().len(), 6);
        assert!(edges.iter().all(|&e| {
            let r = g.records()[e as usize];
            r.u >= 6 && r.u < 11
        }));
        d.decode_into(&mut scratch, &[7, 9], &mut 0);
        assert_eq!(
            scratch.matching.dijkstra.dist().len(),
            g.num_detectors() as usize + 1
        );
    }

    #[test]
    fn falls_back_to_union_find_above_limit() {
        let d = MwpmDecoder::new(chain_graph(20, 0.01)).with_exact_limit(4);
        let flagged: Vec<u32> = (0..12).collect();
        // 12 > 4: exercises the fallback path.
        let _ = d.predict(&flagged);
    }

    #[test]
    fn agrees_with_union_find_on_simple_syndromes() {
        let g = chain_graph(8, 0.01);
        let mwpm = MwpmDecoder::new(g.clone());
        let uf = UfDecoder::new(g);
        for i in 0..8u32 {
            for j in (i + 1)..8u32 {
                assert_eq!(
                    mwpm.predict(&[i, j]),
                    uf.predict(&[i, j]),
                    "defects {i},{j}"
                );
            }
        }
    }
}
