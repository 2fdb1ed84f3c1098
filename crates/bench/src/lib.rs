//! The measured perf subsystem: the **`ftqc-bench` scenario harness**
//! (this library + the `ftqc-bench` binary), which measures the named
//! hot-path scenarios the repository tracks over time — per-decoder
//! decode throughput, adaptive-pipeline shots/sec, runtime-sweep
//! merges/sec — and emits machine-readable `BENCH_<scenario>.json`
//! reports.
//!
//! CI's `perf-smoke` job regenerates the JSON reports on the quick
//! preset and uploads them as artifacts. On pull requests it runs the
//! merge base's binary and the change's in alternating pairs, and
//! `ftqc-bench compare` fails the build when a row is slower in most
//! pairs. See DESIGN.md ("Performance model & bench harness") for the
//! schema and the gate.
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
pub use scenarios::{run_scenario, scenario_names, Preset};
