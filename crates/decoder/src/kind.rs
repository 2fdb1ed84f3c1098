//! Decoder selection: one constructor for the whole decoding stack.
//!
//! [`DecoderKind`] names each decoder family of the paper's toolchain
//! (union-find, exact matching, capacity-limited LUT, hierarchical
//! LUT+MWPM) together with its configuration, and [`DecoderKind::build`]
//! turns a kind into a ready [`AnyDecoder`] for a decoding graph. This
//! replaces the `mwpm: bool`-style branches that used to be copy-pasted
//! across the experiment runner, the figure modules and the examples.

use crate::evaluate::Decoder;
use crate::graph::DecodingGraph;
use crate::hierarchical::HierarchicalDecoder;
use crate::lut::LutDecoder;
use crate::mwpm::MwpmDecoder;
use crate::union_find::UfDecoder;
use ftqc_circuit::Circuit;

/// Default LUT training shots when none are configured.
const DEFAULT_TRAIN_SHOTS: usize = 20_000;
/// Default LUT capacity (the paper's 3 KB `d = 3` table).
const DEFAULT_CAPACITY_BYTES: usize = 3 * 1024;

/// Which decoder backs an evaluation.
///
/// The sampling-trained kinds (`Lut`, `Hierarchical`) carry their
/// training configuration so a kind is a complete, self-contained
/// recipe: `kind.build(&circuit, graph, seed)` is everything a caller
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoderKind {
    /// Weighted union-find (Delfosse–Nickerson style): the fast path
    /// for large parameter sweeps.
    UnionFind,
    /// Minimum-weight perfect matching (exact up to a syndrome-weight
    /// cutoff, union-find beyond): the PyMatching stand-in.
    Mwpm,
    /// Capacity-limited lookup table trained by sampling
    /// (LILLIPUT-style).
    Lut {
        /// Training shots sampled from the circuit.
        train_shots: usize,
        /// Byte budget of the table.
        capacity_bytes: usize,
    },
    /// LUT front end backed by MWPM (the decoder of Fig. 22).
    Hierarchical {
        /// Training shots sampled from the circuit.
        train_shots: usize,
        /// Byte budget of the front-end table.
        capacity_bytes: usize,
    },
}

impl DecoderKind {
    /// A LUT kind with the default training size and the paper's 3 KB
    /// capacity.
    pub fn lut() -> DecoderKind {
        DecoderKind::Lut {
            train_shots: DEFAULT_TRAIN_SHOTS,
            capacity_bytes: DEFAULT_CAPACITY_BYTES,
        }
    }

    /// A hierarchical kind with the default training size and capacity.
    pub fn hierarchical() -> DecoderKind {
        DecoderKind::Hierarchical {
            train_shots: DEFAULT_TRAIN_SHOTS,
            capacity_bytes: DEFAULT_CAPACITY_BYTES,
        }
    }

    /// The accuracy/throughput heuristic the experiment runner uses:
    /// exact matching up to `d = 5`, union-find beyond.
    ///
    /// The UF approximation systematically (if slightly) favours
    /// *clustered* idle errors over distributed ones, inverting
    /// sub-percent policy comparisons in weak-idle regimes — the
    /// paper's PyMatching baseline has no such bias, and neither does
    /// the exact matcher (see EXPERIMENTS.md).
    pub fn for_distance(d: u32) -> DecoderKind {
        if d <= 5 {
            DecoderKind::Mwpm
        } else {
            DecoderKind::UnionFind
        }
    }

    /// Short human-readable name (stable across configurations).
    pub fn name(&self) -> &'static str {
        match self {
            DecoderKind::UnionFind => "union-find",
            DecoderKind::Mwpm => "mwpm",
            DecoderKind::Lut { .. } => "lut",
            DecoderKind::Hierarchical { .. } => "hierarchical",
        }
    }

    /// Builds the decoder for `graph`.
    ///
    /// The sampling-trained kinds additionally draw training shots from
    /// `circuit` using `seed`; the graph-only kinds ignore both. No
    /// kind models latency: the Fig. 22 study prices the hierarchical
    /// decoder's hits and misses itself.
    pub fn build(&self, circuit: &Circuit, graph: DecodingGraph, seed: u64) -> AnyDecoder {
        self.build_shared(circuit, std::sync::Arc::new(graph), seed)
    }

    /// [`build`](DecoderKind::build) from an already-shared graph: no
    /// deep copy of the edge/adjacency tables is made anywhere in the
    /// construction, so callers holding one graph (like the evaluation
    /// pipeline) can build any number of decoders over it for free.
    pub fn build_shared(
        &self,
        circuit: &Circuit,
        graph: std::sync::Arc<DecodingGraph>,
        seed: u64,
    ) -> AnyDecoder {
        match *self {
            DecoderKind::UnionFind => AnyDecoder::UnionFind(UfDecoder::new(graph)),
            DecoderKind::Mwpm => AnyDecoder::Mwpm(MwpmDecoder::new(graph)),
            DecoderKind::Lut {
                train_shots,
                capacity_bytes,
            } => AnyDecoder::Lut(LutDecoder::train(
                circuit,
                train_shots,
                seed,
                capacity_bytes,
            )),
            DecoderKind::Hierarchical {
                train_shots,
                capacity_bytes,
            } => {
                let lut = LutDecoder::train(circuit, train_shots, seed, capacity_bytes);
                let mwpm = MwpmDecoder::new(graph);
                AnyDecoder::Hierarchical(HierarchicalDecoder::new(lut, mwpm))
            }
        }
    }
}

impl std::fmt::Display for DecoderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A decoder built from a [`DecoderKind`]: the closed union of the
/// workspace's decoder families, dispatching [`Decoder::predict`].
#[derive(Debug)]
pub enum AnyDecoder {
    /// See [`UfDecoder`].
    UnionFind(UfDecoder),
    /// See [`MwpmDecoder`].
    Mwpm(MwpmDecoder),
    /// See [`LutDecoder`].
    Lut(LutDecoder),
    /// See [`HierarchicalDecoder`].
    Hierarchical(HierarchicalDecoder),
}

impl AnyDecoder {
    /// The kind family this decoder belongs to.
    pub fn name(&self) -> &'static str {
        match self {
            AnyDecoder::UnionFind(_) => "union-find",
            AnyDecoder::Mwpm(_) => "mwpm",
            AnyDecoder::Lut(_) => "lut",
            AnyDecoder::Hierarchical(_) => "hierarchical",
        }
    }
}

impl Decoder for AnyDecoder {
    fn decode_into(
        &self,
        scratch: &mut crate::DecoderScratch,
        syndrome: &[u32],
        correction: &mut u32,
    ) {
        // Kind-tagged span names are static so recording never formats;
        // when telemetry is disabled this is one relaxed load + one branch.
        let span = ftqc_telemetry::span(match self {
            AnyDecoder::UnionFind(_) => "decode/union-find",
            AnyDecoder::Mwpm(_) => "decode/mwpm",
            AnyDecoder::Lut(_) => "decode/lut",
            AnyDecoder::Hierarchical(_) => "decode/hierarchical",
        });
        match self {
            AnyDecoder::UnionFind(d) => d.decode_into(scratch, syndrome, correction),
            AnyDecoder::Mwpm(d) => d.decode_into(scratch, syndrome, correction),
            AnyDecoder::Lut(d) => d.decode_into(scratch, syndrome, correction),
            AnyDecoder::Hierarchical(d) => d.decode_into(scratch, syndrome, correction),
        }
        span.end_with(&[ftqc_telemetry::Arg::new("defects", syndrome.len() as f64)]);
    }

    fn decode_window_into(
        &self,
        scratch: &mut crate::DecoderScratch,
        range: (u32, u32),
        syndrome: &[u32],
        edges: &mut Vec<u32>,
    ) -> Option<&DecodingGraph> {
        // Same kind-tagged spans as `decode_into`, suffixed so a trace
        // separates batch decodes from windowed-fusion decodes. Only
        // the graph decoders decode windows.
        let (name, decoder): (_, &dyn Decoder) = match self {
            AnyDecoder::UnionFind(d) => ("decode/union-find/window", d),
            AnyDecoder::Mwpm(d) => ("decode/mwpm/window", d),
            AnyDecoder::Lut(_) | AnyDecoder::Hierarchical(_) => return None,
        };
        let span = ftqc_telemetry::span(name);
        let graph = decoder.decode_window_into(scratch, range, syndrome, edges);
        span.end_with(&[ftqc_telemetry::Arg::new("defects", syndrome.len() as f64)]);
        graph
    }

    fn scratch_capacity(&self) -> crate::ScratchCapacity {
        match self {
            AnyDecoder::UnionFind(d) => d.scratch_capacity(),
            AnyDecoder::Mwpm(d) => d.scratch_capacity(),
            AnyDecoder::Lut(d) => d.scratch_capacity(),
            AnyDecoder::Hierarchical(d) => d.scratch_capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
    use ftqc_sim::DetectorErrorModel;
    use ftqc_surface::MemoryConfig;

    fn d3_graph() -> (Circuit, DecodingGraph) {
        let hw = HardwareConfig::ibm();
        let c = CircuitNoiseModel::standard(1e-3, &hw).apply(&MemoryConfig::new(3, 4, &hw).build());
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        let g = DecodingGraph::from_dem(&dem);
        (c, g)
    }

    #[test]
    fn every_kind_builds_its_family() {
        let (c, g) = d3_graph();
        for (kind, name) in [
            (DecoderKind::UnionFind, "union-find"),
            (DecoderKind::Mwpm, "mwpm"),
            (DecoderKind::lut(), "lut"),
            (DecoderKind::hierarchical(), "hierarchical"),
        ] {
            let dec = kind.build(&c, g.clone(), 5);
            assert_eq!(dec.name(), name);
            assert_eq!(kind.name(), name);
            // The trivial syndrome never predicts a flip.
            assert_eq!(dec.predict(&[]), 0);
        }
    }

    #[test]
    fn build_shared_never_deep_copies_the_graph() {
        let (c, g) = d3_graph();
        let arc = std::sync::Arc::new(g);
        let shared = |kind: DecoderKind| kind.build_shared(&c, std::sync::Arc::clone(&arc), 1);
        match shared(DecoderKind::UnionFind) {
            AnyDecoder::UnionFind(d) => assert!(std::ptr::eq(d.graph(), &*arc)),
            other => panic!("built {}", other.name()),
        }
        match shared(DecoderKind::Mwpm) {
            AnyDecoder::Mwpm(d) => assert!(std::ptr::eq(d.graph(), &*arc)),
            other => panic!("built {}", other.name()),
        }
        // The hierarchical decoder exposes no graph; a deep copy would
        // drop the handed-in `Arc` and leave the count where it was.
        let before = std::sync::Arc::strong_count(&arc);
        let hierarchical = shared(DecoderKind::Hierarchical {
            train_shots: 1_000,
            capacity_bytes: DEFAULT_CAPACITY_BYTES,
        });
        assert_eq!(hierarchical.name(), "hierarchical");
        assert!(std::sync::Arc::strong_count(&arc) > before);
    }

    #[test]
    fn distance_heuristic_matches_runner_policy() {
        assert_eq!(DecoderKind::for_distance(3), DecoderKind::Mwpm);
        assert_eq!(DecoderKind::for_distance(5), DecoderKind::Mwpm);
        assert_eq!(DecoderKind::for_distance(7), DecoderKind::UnionFind);
    }

    #[test]
    fn built_decoders_match_direct_construction() {
        let (c, g) = d3_graph();
        let direct_uf = UfDecoder::new(g.clone());
        let direct_mwpm = MwpmDecoder::new(g.clone());
        let built_uf = DecoderKind::UnionFind.build(&c, g.clone(), 1);
        let built_mwpm = DecoderKind::Mwpm.build(&c, g, 1);
        for syndrome in [vec![], vec![0u32], vec![0, 1], vec![2, 5, 7]] {
            assert_eq!(direct_uf.predict(&syndrome), built_uf.predict(&syndrome));
            assert_eq!(
                direct_mwpm.predict(&syndrome),
                built_mwpm.predict(&syndrome)
            );
        }
    }
}
