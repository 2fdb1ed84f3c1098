//! Reproduction harness: one module per table and figure of the paper.
//!
//! Every experiment exposes a `run(&Config) -> Vec<Table>` function that
//! regenerates the corresponding rows/series of the paper's evaluation;
//! the `repro` binary dispatches to them and writes markdown + CSV.
//!
//! Shot counts are configurable: the paper sampled up to 100M shots on
//! a 128-core machine over days, so [`Config::quick`] uses reduced
//! presets that preserve the qualitative shape (who wins and by roughly
//! what factor) and [`Config::full`] scales everything up for
//! higher-confidence numbers. EXPERIMENTS.md records the measured
//! values next to the paper's.
//!
//! # Example
//!
//! ```
//! use ftqc_experiments::{fig10, Config};
//!
//! let tables = fig10::run(&Config::quick());
//! assert!(tables[0].to_markdown().contains("Not possible"));
//! ```

pub mod case_figs;
pub mod checkpoint;
pub mod decode_figs;
pub mod ler_figs;
pub mod pipeline;
pub mod runner;
pub mod runtime_figs;
pub mod solver_figs;
mod table;

pub use checkpoint::CheckpointStore;
pub use pipeline::{AdaptiveOutcome, EvalPipeline, EvalPipelineBuilder};
pub use runner::{ls_ler, run_eval, LsSetup};
pub use table::Table;

// Re-export experiment modules under their figure names for the binary.
pub use case_figs::{fig03c, fig04a, fig04b, fig06, fig20};
pub use decode_figs::{fig01c, fig07, fig22};
pub use ler_figs::{
    fig14, fig15, fig16, fig17, fig18, fig19_table4, fig1d, fig21_table5, table1, table2,
};
pub use runtime_figs::runtime;
pub use solver_figs::{fig10, fig11};

/// Global experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Monte-Carlo shots per configuration: the shot ceiling of every
    /// LER run when `stop` is `None`, and the base `repro`'s default
    /// `--max-shots` scales from.
    pub shots: u64,
    /// Code distances used by sweep experiments.
    pub distances: Vec<u32>,
    /// Code distance for single-distance experiments (paper: 11 or 15).
    pub focus_distance: u32,
    /// Worker threads.
    pub threads: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Stop rule of every LER evaluation ([`run_eval`]); `None` is the
    /// ceiling-only rule `StopRule::max_shots(shots)`, a fixed-shot
    /// run. Both go through the same loop
    /// ([`EvalPipeline::run_adaptive_with`]).
    pub stop: Option<ftqc_sim::StopRule>,
    /// Checkpoint store every LER run, fixed or adaptive, persists
    /// partial estimates to after every chunk (`repro --resume FILE`).
    pub checkpoint: Option<std::sync::Arc<CheckpointStore>>,
    /// Restricts policy-sweep experiments (currently `runtime`) to one
    /// synchronization policy (`repro --policy SPEC`); `None` runs the
    /// full policy catalog.
    pub policy: Option<ftqc_sync::PolicySpec>,
}

impl Config {
    /// Reduced preset: qualitative shapes in minutes on a laptop.
    pub fn quick() -> Config {
        Config {
            shots: 20_000,
            distances: vec![3, 5],
            focus_distance: 5,
            threads: 2,
            seed: 2025,
            stop: None,
            checkpoint: None,
            policy: None,
        }
    }

    /// Larger preset for overnight runs (still far below the paper's
    /// 100M-shot artifact, which needs a 128-core cluster).
    pub fn full() -> Config {
        Config {
            shots: 500_000,
            distances: vec![3, 5, 7, 9, 11],
            focus_distance: 11,
            threads: 2,
            seed: 2025,
            stop: None,
            checkpoint: None,
            policy: None,
        }
    }
}
