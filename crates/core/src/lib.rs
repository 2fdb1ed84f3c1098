//! Synchronization policies and control microarchitecture for
//! fault-tolerant quantum computers.
//!
//! This crate implements the primary contribution of *Synchronization
//! for Fault-Tolerant Quantum Computers* (ISCA 2025): policies that
//! eliminate the synchronization slack between logical surface-code
//! patches before a Lattice Surgery operation, and the runtime
//! microarchitecture that computes and applies them.
//!
//! * [`PolicySpec`] / [`SyncContext`] — the policies: the Passive,
//!   Active, Active-intra, Extra-Rounds and Hybrid policies (paper
//!   Section 4) plus the drift-adaptive `DynamicHybrid`, which picks its
//!   tolerance per merge from the controller's recent [`SlackWindow`].
//!   [`PolicySpec::plan`] plans from a validated context (slack, both
//!   cycle times, round budget, observed timing), and every policy is
//!   nameable as a round-trippable `Display`/`FromStr` spec
//!   (`"hybrid:eps=400,max=5"`).
//! * [`solve_extra_rounds`] — the Diophantine condition of Eq. (1).
//! * [`solve_hybrid`] — the bounded-slack condition of Eq. (2).
//! * [`LogicalClock`] and [`synchronize_patches`] — k-patch
//!   synchronization by pairwise alignment against the most lagging
//!   patch (Section 4.3).
//! * [`Controller`] — the patch table, phase calculator and slack
//!   calculator of the control microarchitecture (Section 5, Fig. 12)
//!   as a discrete-event controller that executes synchronized
//!   schedules and feeds observed slack back to adaptive policies.
//! * [`CultivationModel`] / [`qldpc_slack`] — the desynchronization
//!   case studies of Section 3.4 (magic-state cultivation and qLDPC
//!   memories).
//!
//! # Example
//!
//! ```
//! use ftqc_sync::{PolicySpec, SyncContext};
//!
//! // Patch P leads patch P' by 1000 ns; cycle times differ (Table 2).
//! let ctx = SyncContext::new(
//!     1000.0, // tau
//!     1000.0, // T_P
//!     1325.0, // T_P'
//!     8,      // rounds available before the merge (d + 1)
//! )
//! .unwrap();
//! let spec: PolicySpec = "hybrid:eps=400,max=5".parse().unwrap();
//! let plan = spec.plan(&ctx).unwrap();
//! assert_eq!(plan.extra_rounds, 4);
//! assert!((plan.total_idle_ns() - 300.0).abs() < 1e-6);
//! assert_eq!(spec.to_string().parse::<PolicySpec>().unwrap(), spec);
//! ```

mod case_studies;
mod clock;
mod context;
mod engine;
mod error;
mod policy;
mod solver;
mod strategy;

pub use case_studies::{
    dropout_cycle_time_ns, dropout_slack, qldpc_cycle_time_ns, qldpc_slack, CultivationModel,
    SlackStats,
};
pub use clock::{synchronize_patches, LogicalClock};
pub use context::{SlackWindow, SyncContext, DEFAULT_SLACK_WINDOW};
pub use engine::{Controller, ControllerSyncReport, PatchId, PatchStatus};
pub use error::SyncError;
pub use policy::SyncPlan;
pub use solver::{solve_extra_rounds, solve_hybrid, HybridSolution};
pub use strategy::{
    PolicyParseError, PolicySpec, DEFAULT_DYNAMIC_FLOOR_NS, DEFAULT_DYNAMIC_QUANTILE,
    DEFAULT_EPSILON_NS, DEFAULT_MAX_EXTRA_ROUNDS,
};
