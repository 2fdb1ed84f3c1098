//! System-scale discrete-event runtime: whole logical programs under
//! each synchronization policy.
//!
//! The paper's headline claim is *program-level*: desynchronization
//! inflates application runtime, and the Active / Extra-Rounds / Hybrid
//! policies recover most of it (Section 6). The rest of this workspace
//! provides the per-operation pieces — a `PolicySpec` plans one
//! pairwise synchronization, the `ftqc-sync` `Controller` ticks a
//! patch table,
//! `ftqc-estimator` sizes a workload — and this crate composes them
//! into a whole-program simulator:
//!
//! * [`ProgramSchedule::compile`] turns a
//!   [`Workload`](ftqc_estimator::Workload) +
//!   [`LogicalEstimate`](ftqc_estimator::LogicalEstimate) into a stream
//!   of lattice-surgery [`MergeEvent`]s over the workload's compute
//!   patches and magic-state factories, emitted at the estimator's
//!   `syncs_per_cycle` rate.
//! * [`execute`] runs that schedule through an extended
//!   `Controller`: patches register at calibrated cycle times
//!   ([`TimingModel`](ftqc_noise::TimingModel)), every merge re-times
//!   its patches with per-round jitter/drift, plans the
//!   synchronization under any configurable
//!   [`PolicySpec`](ftqc_sync::PolicySpec), and each consumed factory
//!   restarts with a cultivation-drawn phase offset
//!   ([`CultivationModel`](ftqc_sync::CultivationModel)).
//! * [`ProgramReport`] accumulates the program-level metrics: total
//!   runtime in ns, synchronization idle overhead %, extra-round
//!   counts, and a [`SlackHistogram`] of the slack absorbed per merge.
//!
//! Execution is a single deterministic event loop: reports are
//! bit-identical for a fixed seed regardless of host thread count.
//!
//! # Example
//!
//! ```
//! use ftqc_estimator::{workloads, LogicalEstimate};
//! use ftqc_noise::HardwareConfig;
//! use ftqc_runtime::{execute, ProgramSchedule, RuntimeConfig};
//! use ftqc_sync::PolicySpec;
//!
//! let workload = workloads::qft(20);
//! let estimate = LogicalEstimate::for_workload(&workload, 1e-3, 1e-2);
//! let schedule = ProgramSchedule::compile(&workload, &estimate, 200, 2025);
//! let hw = HardwareConfig::ibm();
//! let passive = execute(&schedule, &RuntimeConfig::new(&hw, PolicySpec::Passive, 2025));
//! let hybrid: PolicySpec = "hybrid:eps=400,max=5".parse().unwrap();
//! let hybrid = execute(&schedule, &RuntimeConfig::new(&hw, hybrid, 2025));
//! assert!(hybrid.overhead_percent() <= passive.overhead_percent());
//! ```

mod executor;
mod metrics;
mod schedule;

pub use executor::{execute, RuntimeConfig};
pub use metrics::{ProgramReport, SlackHistogram};
pub use schedule::{MergeEvent, ProgramSchedule};
