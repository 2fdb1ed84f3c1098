//! The measured perf subsystem: the **`ftqc-bench` scenario harness**
//! (this library + the `ftqc-bench` binary), which measures the named
//! hot-path scenarios the repository tracks over time — per-decoder
//! decode throughput, adaptive-pipeline shots/sec, runtime-sweep
//! merges/sec — and emits machine-readable `BENCH_<scenario>.json`
//! reports.
//!
//! The JSON reports are the perf trajectory of the repository: CI's
//! `perf-smoke` job regenerates them on reduced presets, uploads them
//! as artifacts, and (on pull requests) diffs them against the
//! baseline committed under `results/bench-baseline/` with
//! `ftqc-bench compare`, failing the build past a regression
//! threshold. See DESIGN.md ("Performance model & bench harness") for
//! the schema and the baseline-refresh procedure.
//!
//! [`alloc::CountingAlloc`] is the crate's counting allocator: installed
//! as the global allocator it makes allocation counts a first-class
//! measurement, which is how the zero-allocation claims of the decode
//! hot loop are asserted (`tests/zero_alloc.rs`) and reported
//! (`allocs_per_op` in every decode scenario).

pub mod alloc;
pub mod json;
pub mod scenarios;

pub use json::{BenchReport, BenchResult};
pub use scenarios::{calibrate, run_scenario, scenario_names, Preset};
