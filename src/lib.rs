//! # lattice-sync
//!
//! A from-scratch Rust reproduction of *Synchronization for
//! Fault-Tolerant Quantum Computers* (ISCA 2025): surface-code Lattice
//! Surgery simulation with timing-aware noise, the Passive / Active /
//! Active-intra / Extra-Rounds / Hybrid synchronization policies, the
//! runtime synchronization microarchitecture, a full decoding stack
//! (union-find, MWPM, LUT, hierarchical), and a reproduction harness
//! for every table and figure in the paper.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`pauli`] | `ftqc-pauli` | Pauli algebra, stabilizer tableau |
//! | [`circuit`] | `ftqc-circuit` | timed stabilizer-circuit IR |
//! | [`noise`] | `ftqc-noise` | hardware configs, idle + gate noise |
//! | [`sim`] | `ftqc-sim` | frame sampler, detector error models, round streaming |
//! | [`surface`] | `ftqc-surface` | rotated patches, Lattice Surgery |
//! | [`decoder`] | `ftqc-decoder` | UF / MWPM / LUT / hierarchical, streaming window |
//! | [`sync`] | `ftqc-sync` | **the paper's synchronization policies** |
//! | [`qasm`] | `ftqc-qasm` | OpenQASM 2 front end |
//! | [`estimator`] | `ftqc-estimator` | QRE-style resource estimation |
//! | [`runtime`] | `ftqc-runtime` | **whole-program discrete-event runtime** |
//! | [`experiments`] | `ftqc-experiments` | per-figure reproduction |
//! | [`telemetry`] | `ftqc-telemetry` | zero-overhead tracing, counters, trace export |
//! | [`analyzer`] | `ftqc-analyzer` | invariant lints, artifact static validation |
//!
//! # Quickstart
//!
//! The circuit → DEM → decoder → LER chain is owned end to end by
//! [`experiments::EvalPipeline`]; pick the decoder family with
//! [`decoder::DecoderKind`]:
//!
//! ```
//! use ftqc::decoder::DecoderKind;
//! use ftqc::experiments::EvalPipeline;
//! use ftqc::noise::HardwareConfig;
//! use ftqc::surface::LatticeSurgeryConfig;
//! use ftqc::sync::{PolicySpec, SyncContext};
//!
//! // Two d=3 patches, desynchronized by 500 ns, Active policy.
//! let hw = HardwareConfig::ibm();
//! let t = hw.cycle_time_ns();
//! let mut cfg = LatticeSurgeryConfig::new(3, &hw);
//! let ctx = SyncContext::new(500.0, t, t, 4).unwrap();
//! cfg.plan = PolicySpec::Active.plan(&ctx).unwrap();
//! let ler = EvalPipeline::lattice_surgery(cfg)
//!     .decoder(DecoderKind::UnionFind)
//!     .shots(2_000)
//!     .batch_shots(512)
//!     .seed(7)
//!     .build()
//!     .run();
//! println!("X_P X_P' logical error rate: {}", ler[2]);
//! ```
//!
//! Scale up from one operation to a whole program with [`runtime`]:
//! compile a workload's merge-event schedule and execute it under any
//! policy, with per-patch calibration heterogeneity and per-round
//! jitter injected:
//!
//! ```
//! use ftqc::estimator::{workloads, LogicalEstimate};
//! use ftqc::noise::HardwareConfig;
//! use ftqc::runtime::{execute, ProgramSchedule, RuntimeConfig};
//! use ftqc::sync::PolicySpec;
//!
//! let workload = workloads::qft(20);
//! let estimate = LogicalEstimate::for_workload(&workload, 1e-3, 1e-2);
//! let schedule = ProgramSchedule::compile(&workload, &estimate, 200, 2025);
//! let hw = HardwareConfig::ibm();
//! for policy in ["passive", "hybrid:eps=400,max=5", "dynamic-hybrid"] {
//!     let policy: PolicySpec = policy.parse().unwrap();
//!     let report = execute(&schedule, &RuntimeConfig::new(&hw, policy.clone(), 2025));
//!     println!(
//!         "{policy}: {:.2} ms, {:.2}% sync idle",
//!         report.total_ns as f64 / 1e6,
//!         report.overhead_percent(),
//!     );
//! }
//! ```
//!
//! Or decode in **real time**: feed syndrome rounds one at a time
//! through [`decoder::StreamingDecoder`], built by a
//! [`decoder::StreamingConfig`] that wraps a graph decoder (union-find
//! or matching) in a sliding window of `W` rounds and commits a final
//! correction for each round that scrolls out.
//! `StreamingConfig::fused(window, overlap)` decodes only the
//! uncommitted rounds, once per commit, and
//! commits the correction edges that reach each finalized round, for
//! O(window) per-round cost at a measured accuracy delta; a window
//! covering the shot is bit-identical to batch decoding. Table
//! decoders have no edges to commit and do not stream:
//!
//! ```
//! use ftqc::decoder::{DecoderKind, StreamingConfig};
//! use ftqc::experiments::EvalPipeline;
//! use ftqc::noise::HardwareConfig;
//! use ftqc::sim::{sample_batch, RoundSchedule, RoundStream};
//! use ftqc::surface::MemoryConfig;
//!
//! let hw = HardwareConfig::ibm();
//! let pipeline = EvalPipeline::memory(MemoryConfig::new(3, 4, &hw))
//!     .physical_error(3e-3)
//!     .decoder(DecoderKind::UnionFind)
//!     .build();
//! let schedule = RoundSchedule::from_circuit(pipeline.circuit());
//! let batch = sample_batch(pipeline.circuit(), 64, 5);
//!
//! let mut rounds = RoundStream::new(&schedule);
//! let mut stream = StreamingConfig::fused(2, 1) // W = 2, overlap 1
//!     .build(pipeline.decoder(), &schedule);
//! let mut defects = Vec::with_capacity(schedule.max_round_len());
//! rounds.begin_batch(&batch);
//! rounds.begin_shot(0);
//! stream.begin_shot();
//! while rounds.next_round_into(&batch, &mut defects).is_some() {
//!     if let Some(commit) = stream.push_round(&defects) {
//!         // `commit.correction` is final for `commit.round`.
//!         assert!(commit.round < schedule.num_rounds());
//!     }
//! }
//! let correction = stream.finish_shot();
//! # let _ = correction;
//! ```
//!
//! `cargo run --release --example streaming_decode` narrates one
//! shot's commits, proves that a window covering the shot ≡ batch over
//! 20 000 shots, and reports the accuracy delta of shorter windows;
//! the `decode-latency` bench scenario tracks the per-round latency
//! distribution and `fusion-accuracy` tracks the fused-vs-batch LER
//! delta.
//!
//! To see *where inside a run* the time goes, install a
//! [`telemetry::RingSink`] before running any of the above and export
//! the recording as a Perfetto-loadable Chrome trace — every layer
//! (sampling, scanning, decoding, streaming commits, runtime merges,
//! adaptive stop rules) emits spans and counters when telemetry is
//! enabled, and compiles down to one relaxed atomic load when it is
//! not. `cargo run --release --example traced_runtime` walks through a
//! traced policy sweep end to end.

pub use ftqc_analyzer as analyzer;
pub use ftqc_circuit as circuit;
pub use ftqc_decoder as decoder;
pub use ftqc_estimator as estimator;
pub use ftqc_experiments as experiments;
pub use ftqc_noise as noise;
pub use ftqc_pauli as pauli;
pub use ftqc_qasm as qasm;
pub use ftqc_runtime as runtime;
pub use ftqc_sim as sim;
pub use ftqc_surface as surface;
pub use ftqc_sync as sync;
pub use ftqc_telemetry as telemetry;
