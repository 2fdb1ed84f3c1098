//! Decoders for surface-code detector error models.
//!
//! The decoding stack mirrors the paper's methodology:
//!
//! * [`DecodingGraph`] — the matching graph extracted from a
//!   [`DetectorErrorModel`](ftqc_sim::DetectorErrorModel), with
//!   log-likelihood edge weights and per-edge logical-observable masks.
//! * [`UfDecoder`] — a weighted union-find decoder (Delfosse–Nickerson
//!   style cluster growth + peeling), the fast path used for large
//!   parameter sweeps.
//! * [`MwpmDecoder`] — minimum-weight perfect matching on the flagged
//!   detectors: exact (subset dynamic programming over Dijkstra
//!   distances, the matched pairs' shortest paths recovered from the
//!   searches' predecessor edges) up to a configurable syndrome
//!   weight, falling back to union-find beyond it. This plays the role
//!   of PyMatching in the paper's toolchain.
//! * [`LutDecoder`] — a capacity-limited lookup-table decoder
//!   (LILLIPUT-style), used for the repetition-code experiment of
//!   Fig. 1(c) and the hierarchical decoder of Fig. 22.
//! * [`HierarchicalDecoder`] — LUT front end backed by MWPM: a table
//!   lookup, with matching on a miss. The Fig. 22 speedup study prices
//!   it with its own latency model (20 ns hits; miss latencies sampled
//!   from measured MWPM decode times).
//! * [`DecoderKind`] / [`AnyDecoder`] — unified decoder selection: a
//!   kind is a complete recipe (`kind.build(&circuit, graph, seed)`),
//!   so callers never branch on decoder families themselves.
//! * [`DecoderScratch`] — the reusable per-thread workspace behind
//!   [`Decoder::decode_into`]: every decoder family decodes out of it
//!   with zero steady-state heap allocations per shot, which is where
//!   the batch-decoding throughput lives (measured by `ftqc-bench`).
//! * [`count_batch_errors`] — the crate's one evaluation driver:
//!   samples and decodes an explicit batch plan under any [`Decoder`],
//!   with one scratch per worker thread, and returns per-batch
//!   logical-error counts. `ftqc-experiments`' `EvalPipeline` merges
//!   them chunk by chunk under a stop rule; a fixed-shot estimate is
//!   the sum over a [`batch_plan`](ftqc_sim::batch_plan).
//! * [`StreamingDecoder`] — the real-time face of the stack: a graph
//!   decoder consumed round by round through a sliding window of `W`
//!   rounds, committing corrections for rounds that scroll out.
//!   Configured by [`StreamingConfig`] (window and overlap), it holds
//!   the forward-window commit state itself: a commit decodes at most
//!   one window, in place on the graph restricted to its detector
//!   range, and finalizes the correction edges that reach the
//!   committed round — O(window) per round, independent of stream
//!   length, with a measured accuracy delta. The graph decoders'
//!   primary output is that edge set ([`Decoder::decode_window_into`]);
//!   their batch mask is the XOR of its edges' observables. Table
//!   decoders have no edges and do not stream: [`StreamingConfig::build`]
//!   rejects them.
//!   [`count_batch_errors_streaming`] is the batch-driver form; the
//!   `decode-latency` scenario of `ftqc-bench` measures per-round
//!   latency.
//!
//! # Example
//!
//! ```
//! use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
//! use ftqc_surface::MemoryConfig;
//! use ftqc_sim::DetectorErrorModel;
//! use ftqc_decoder::{count_batch_errors, DecodingGraph, UfDecoder};
//! use ftqc_sim::batch_plan;
//!
//! let hw = HardwareConfig::ibm();
//! let circuit = CircuitNoiseModel::standard(1e-3, &hw)
//!     .apply(&MemoryConfig::new(3, 4, &hw).build());
//! let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
//! let decoder = UfDecoder::new(DecodingGraph::from_dem(&dem));
//! let per_batch = count_batch_errors(&circuit, &decoder, &batch_plan(2_000, 256), 7, 2);
//! let failures: u64 = per_batch.iter().map(|batch| batch[0]).sum();
//! assert!(failures < 400); // far below the 50% random-guess rate
//! ```

mod evaluate;
mod graph;
mod hierarchical;
mod kind;
mod lut;
mod mwpm;
mod scratch;
mod streaming;
mod union_find;

pub use evaluate::{count_batch_errors, Decoder};
pub use graph::{AdjEntry, DecodingGraph, DijkstraScratch, EdgeRecord, NO_NODE};
pub use hierarchical::HierarchicalDecoder;
pub use kind::{AnyDecoder, DecoderKind};
pub use lut::LutDecoder;
pub use mwpm::MwpmDecoder;
pub use scratch::{DecoderScratch, ScratchCapacity};
pub use streaming::{count_batch_errors_streaming, RoundCommit, StreamingConfig, StreamingDecoder};
pub use union_find::UfDecoder;
