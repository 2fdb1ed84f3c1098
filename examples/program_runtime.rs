//! Whole-program runtime under every synchronization policy.
//!
//! Compiles each MQTBench workload's merge-event schedule from its
//! resource estimate, executes it on an IBM-like system with
//! calibration heterogeneity + per-round jitter + cultivation-driven
//! factory restarts, and prints the program-level runtime and sync
//! overhead per policy.
//!
//! ```text
//! cargo run --release --example program_runtime
//! ```

use ftqc::estimator::{workloads, LogicalEstimate};
use ftqc::noise::HardwareConfig;
use ftqc::runtime::{execute, ProgramSchedule, RuntimeConfig};
use ftqc::sync::PolicySpec;

fn main() {
    let hw = HardwareConfig::ibm();
    let seed = 2025;
    // The same parseable spec strings `repro runtime --policy` takes.
    let policies: Vec<PolicySpec> = [
        "passive",
        "active",
        "active-intra",
        "extra-rounds",
        "hybrid:eps=400,max=5",
        "dynamic-hybrid",
    ]
    .iter()
    .map(|s| s.parse().expect("valid policy spec"))
    .collect();
    println!(
        "{:<14} {:<52} {:>8} {:>12} {:>12} {:>10} {:>8}",
        "workload", "policy", "merges", "runtime(ms)", "idle(us)", "overhead%", "extras"
    );
    for workload in workloads::catalog() {
        let estimate = LogicalEstimate::for_workload(&workload, 1e-3, 1e-2);
        // 2000 merges keeps the demo under a second per workload; pass
        // u64::MAX to execute the full program.
        let schedule = ProgramSchedule::compile(&workload, &estimate, 2_000, seed);
        for policy in &policies {
            let report = execute(&schedule, &RuntimeConfig::new(&hw, *policy, seed));
            println!(
                "{:<14} {:<52} {:>8} {:>12.3} {:>12.1} {:>10.3} {:>8}",
                report.workload,
                policy.to_string(),
                report.merges,
                report.total_ns as f64 / 1e6,
                report.sync_idle_ns as f64 / 1e3,
                report.overhead_percent(),
                report.extra_rounds,
            );
        }
        println!();
    }
}
