//! Bulk stabilizer-circuit sampling and detector error models.
//!
//! This crate is the workspace's Stim equivalent:
//!
//! * [`FrameSimulator`] / [`SampleBatch`] — a batched Pauli-frame
//!   simulator that propagates error frames for 64 shots per machine
//!   word and produces detector / observable flip samples.
//! * [`DetectorErrorModel`] — extraction of every error mechanism's
//!   detector footprint via a backward sensitivity sweep over detector
//!   sets, with greedy decomposition of hyperedges into graphlike
//!   (≤ 2 detector) mechanisms for matching decoders.
//! * [`verify_deterministic`] — a tableau-based check that every
//!   detector and observable of a circuit is deterministic under zero
//!   noise (the validity condition Stim enforces).
//! * [`parallel_batches_with`] over a [`batch_plan`] — a
//!   deterministic multithreaded shot runner whose per-batch seeds are
//!   derived from global batch indices, so a run can be streamed in
//!   chunks without changing its results; every worker keeps reusable
//!   per-thread state (sampler buffers are always reused), making
//!   steady-state batches allocation-free.
//! * [`RoundSchedule`] / [`RoundStream`] — round-streaming syndrome
//!   extraction: detectors grouped into measurement rounds by their
//!   `coords[2]` tag and replayed one round at a time through the
//!   scanner, feeding `ftqc-decoder`'s streaming sliding-window layer.
//! * [`WordHasher`] — the deterministic word-wise hasher that keys the
//!   DEM's footprint maps and `ftqc-decoder`'s lookup tables.
//! * [`BinomialEstimate`] — logical-error-rate statistics.
//! * [`RunningEstimate`] / [`StopRule`] — incremental estimate merging
//!   and the stopping criteria behind run-until-confident evaluation.
//!
//! # Example
//!
//! ```
//! use ftqc_circuit::{Circuit, DetectorBasis, MeasRef, Op};
//! use ftqc_sim::{sample_batch, verify_deterministic};
//!
//! // A noisy data qubit copied onto an ancilla and measured.
//! let mut c = Circuit::new(2);
//! c.push(Op::ResetZ(vec![0, 1]));
//! c.push(Op::Depolarize1 { qubits: vec![0], p: 0.3 });
//! c.push(Op::cx([(0, 1)]));
//! c.push(Op::measure_z([0, 1], 0.0));
//! c.push(Op::detector([MeasRef(1)], DetectorBasis::Z));
//! verify_deterministic(&c, 4).unwrap();
//! let batch = sample_batch(&c, 256, 42);
//! // The detector fires for X and Y errors (~2/3 of depolarizing events).
//! assert!(batch.count_detector_flips(0) > 0);
//! ```

mod dem;
mod frame;
mod hash;
mod parallel;
mod reference;
mod stats;
mod stream;

pub use dem::{DemStats, DetectorErrorModel, Mechanism};
pub use frame::{sample_batch, sample_batch_with, FrameSimulator, SampleBatch, SyndromeScanner};
pub use hash::WordHasher;
pub use parallel::{batch_plan, parallel_batches_with, BatchSpec};
pub use reference::{run_reference, verify_deterministic, ReferenceRun};
pub use stats::{BinomialEstimate, RunningEstimate, StopReason, StopRule};
pub use stream::{RoundSchedule, RoundStream};
