//! Pins `execute`'s output bit for bit: every catalog workload under
//! six policies and two runtime seeds, compared line by line against
//! `fixtures/execute-golden.txt`.
//!
//! Each fixture line is `format!("{report:?}")` of one
//! [`ProgramReport`]. `Debug` prints every `f64` in its shortest
//! round-trip form, so equal text means bit-equal reports. Any change
//! to the controller, the policies or the event loop that moves a
//! single tick or float shows up here as a named line.

use ftqc_estimator::{workloads, LogicalEstimate};
use ftqc_noise::HardwareConfig;
use ftqc_runtime::{execute, ProgramSchedule, RuntimeConfig};
use ftqc_sync::PolicySpec;

const GOLDEN: &str = include_str!("fixtures/execute-golden.txt");
const SCHEDULE_SEED: u64 = 7;
const MERGE_CAP: u64 = 2_000;
const RUNTIME_SEEDS: [u64; 2] = [1, 2025];

fn policies() -> [PolicySpec; 6] {
    [
        PolicySpec::Passive,
        PolicySpec::Active,
        PolicySpec::ActiveIntra,
        PolicySpec::ExtraRounds,
        PolicySpec::hybrid(400.0),
        PolicySpec::dynamic_hybrid(),
    ]
}

/// The fixture's lines in order: workload, then policy, then seed.
fn render() -> Vec<String> {
    let hw = HardwareConfig::ibm();
    let mut lines = Vec::new();
    for workload in workloads::catalog() {
        let estimate = LogicalEstimate::for_workload(&workload, 1e-3, 1e-2);
        let schedule = ProgramSchedule::compile(&workload, &estimate, MERGE_CAP, SCHEDULE_SEED);
        for policy in policies() {
            for seed in RUNTIME_SEEDS {
                let report = execute(&schedule, &RuntimeConfig::new(&hw, policy, seed));
                lines.push(format!("{report:?}"));
            }
        }
    }
    lines
}

#[test]
fn execute_reproduces_golden_reports() {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let actual = render();
    assert_eq!(actual.len(), 72, "6 workloads x 6 policies x 2 seeds");
    assert_eq!(expected.len(), actual.len(), "fixture line count");
    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(*want, got, "report {i} differs from the fixture");
    }
}
