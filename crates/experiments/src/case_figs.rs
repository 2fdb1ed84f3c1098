//! Case studies and analytical figures: 3(c), 4(a), 4(b), 6, 20.

use crate::{Config, Table};
use ftqc_estimator::{workloads, LogicalEstimate};
use ftqc_noise::{HardwareConfig, QuasiStaticDephasing};
use ftqc_sync::{
    qldpc_cycle_time_ns, qldpc_slack, synchronize_patches, CultivationModel, LogicalClock,
    PolicySpec, SlackWindow,
};

/// Paper Fig. 3(c): lower bound on synchronizations per logical cycle
/// for the six workloads (magic states / logical cycles).
pub mod fig03c {
    use super::*;

    /// Paper-reported cycle counts (figure annotations) for reference.
    const PAPER_CYCLES: [(&str, u64); 6] = [
        ("multiplier-75", 3255),
        ("wstate-118", 2224),
        ("shor-15", 118_693),
        ("qpe-80", 16_225),
        ("qft-80", 13_246),
        ("ising-98", 582),
    ];

    /// Regenerates the figure's series.
    pub fn run(_config: &Config) -> Vec<Table> {
        let mut t = Table::new(
            "fig03c_sync_rate",
            "Synchronizations per logical cycle (QRE-substitute estimate)",
            [
                "workload",
                "magic states",
                "logical cycles",
                "syncs/cycle",
                "paper cycles",
            ],
        );
        for w in workloads::catalog() {
            let e = LogicalEstimate::for_workload(&w, 1e-3, 1e-2);
            let paper = PAPER_CYCLES
                .iter()
                .find(|(n, _)| *n == w.name)
                .map(|(_, c)| c.to_string())
                .unwrap_or_default();
            t.push_row([
                w.name.clone(),
                e.magic_states.to_string(),
                e.logical_cycles.to_string(),
                format!("{:.2}", e.syncs_per_cycle),
                paper,
            ]);
        }
        vec![t]
    }
}

/// Paper Fig. 4(a): slack distribution induced by magic state
/// cultivation on IBM- and Google-like systems for two physical error
/// rates.
pub mod fig04a {
    use super::*;

    /// Regenerates median/mean/p95 slack per platform and error rate.
    pub fn run(config: &Config) -> Vec<Table> {
        let mut t = Table::new(
            "fig04a_cultivation_slack",
            "Cultivation-induced slack (ns): median / mean / p95",
            ["platform", "p", "median", "mean", "p95", "max"],
        );
        for hw in [HardwareConfig::ibm(), HardwareConfig::google()] {
            for p in [5e-4, 1e-3] {
                let model = CultivationModel::for_error_rate(p, hw.cycle_time_ns());
                let stats = model.slack_distribution(hw.cycle_time_ns(), 100_000, config.seed);
                t.push_row([
                    hw.name.to_string(),
                    format!("{p}"),
                    format!("{:.0}", stats.median_ns),
                    format!("{:.0}", stats.mean_ns),
                    format!("{:.0}", stats.p95_ns),
                    format!("{:.0}", stats.max_ns),
                ]);
            }
        }
        vec![t]
    }
}

/// Paper Fig. 4(b): slack between a surface-code patch and a qLDPC
/// memory (7 vs 4 CNOT layers) as a function of error-correction
/// rounds.
pub mod fig04b {
    use super::*;

    /// Regenerates the sawtooth series for IBM and Google.
    pub fn run(_config: &Config) -> Vec<Table> {
        let mut t = Table::new(
            "fig04b_qldpc_slack",
            "Slack (ns) vs rounds with a qLDPC memory",
            ["rounds", "IBM", "Google"],
        );
        let ibm = HardwareConfig::ibm();
        let goo = HardwareConfig::google();
        let t_ibm = ibm.cycle_time_ns();
        let t_goo = goo.cycle_time_ns();
        let q_ibm = qldpc_cycle_time_ns(
            ibm.gate_1q_ns,
            ibm.gate_2q_ns,
            ibm.readout_ns + ibm.reset_ns,
        );
        let q_goo = qldpc_cycle_time_ns(
            goo.gate_1q_ns,
            goo.gate_2q_ns,
            goo.readout_ns + goo.reset_ns,
        );
        for rounds in (0..=100).step_by(5) {
            t.push_row([
                rounds.to_string(),
                format!("{:.0}", qldpc_slack(rounds, t_ibm, q_ibm)),
                format!("{:.0}", qldpc_slack(rounds, t_goo, q_goo)),
            ]);
        }
        vec![t]
    }
}

/// Paper Fig. 6: physical-qubit mean fidelity when one idle period is
/// split across N gate-block repetitions (quasi-static dephasing +
/// X-X DD model; see DESIGN.md substitutions).
pub mod fig06 {
    use super::*;

    /// Regenerates mean fidelity for N = 20 and N = 200.
    pub fn run(_config: &Config) -> Vec<Table> {
        // Effective post-DD dephasing time calibrated to IBM Brisbane's
        // Fig. 6 fidelity scale; block error reflects imperfect DD
        // pulses.
        let model = QuasiStaticDephasing::new(7_000.0, 8e-4);
        let mut out = Vec::new();
        for n in [20u32, 200] {
            let mut t = Table::new(
                format!("fig06_n{n}"),
                format!("Mean fidelity vs total idle t_p (N = {n} repetitions)"),
                ["t_p (us)", "Passive", "Active"],
            );
            for tp_us in [0.8, 1.6, 2.4, 3.2, 4.0, 5.6] {
                let tp = tp_us * 1000.0;
                let passive = model.mean_fidelity(tp, 1, n);
                let active = model.mean_fidelity(tp, n, n);
                t.push_row([
                    format!("{tp_us}"),
                    format!("{passive:.4}"),
                    format!("{active:.4}"),
                ]);
            }
            out.push(t);
        }
        out
    }
}

/// Paper Fig. 20: workload CNOT concurrency (left) and the time the
/// synchronization engine needs to plan k-patch synchronization
/// (right).
pub mod fig20 {
    use super::*;
    use std::time::Instant;

    /// Regenerates both panels.
    pub fn run(_config: &Config) -> Vec<Table> {
        let mut left = Table::new(
            "fig20_concurrent_cnots",
            "Maximum concurrent CNOTs per workload",
            ["workload", "max concurrent CNOTs"],
        );
        for w in workloads::catalog() {
            left.push_row([w.name.clone(), w.analysis.max_concurrent_cnots.to_string()]);
        }
        let mut right = Table::new(
            "fig20_engine_latency",
            "Sync-engine planning time vs number of patches (Active and Hybrid)",
            ["patches", "Active (us)", "Hybrid (us)"],
        );
        for k in [2u32, 5, 10, 20, 30, 40, 50] {
            // The clocks a free-running patch table reaches after 12 345
            // ticks when every patch starts at phase 0.
            let clocks: Vec<LogicalClock> = (0..k)
                .map(|i| {
                    let cycle = 1000 + (i * 37) % 400;
                    LogicalClock::new(cycle as f64, (12_345 % cycle) as f64)
                })
                .collect();
            let observed = SlackWindow::default();
            // Plans into a reused buffer, as a warmed-up controller does.
            let mut plans = Vec::with_capacity(clocks.len());
            let mut timed = |policy: PolicySpec| {
                let reps = 200;
                let start = Instant::now();
                for _ in 0..reps {
                    synchronize_patches(&policy, &clocks, 12, &observed, &mut plans)
                        .expect("plannable");
                    std::hint::black_box(&plans);
                }
                start.elapsed().as_secs_f64() * 1e6 / reps as f64
            };
            let active = timed(PolicySpec::Active);
            let hybrid = timed(PolicySpec::hybrid(400.0));
            right.push_row([
                k.to_string(),
                format!("{active:.2}"),
                format!("{hybrid:.2}"),
            ]);
        }
        vec![left, right]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03c_covers_all_workloads() {
        let t = &fig03c::run(&Config::quick())[0];
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            let rate: f64 = row[3].parse().unwrap();
            assert!((0.5..=12.0).contains(&rate), "{row:?}");
        }
    }

    #[test]
    fn fig04a_slack_bounded_by_cycle() {
        let t = &fig04a::run(&Config::quick())[0];
        for row in &t.rows {
            let max: f64 = row[5].parse().unwrap();
            assert!(max < 2000.0, "{row:?}");
        }
    }

    #[test]
    fn fig04b_is_sawtooth() {
        let t = &fig04b::run(&Config::quick())[0];
        let ibm: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert_eq!(ibm[0], 0.0);
        let max = ibm.iter().copied().fold(0.0, f64::max);
        assert!(max > 1000.0, "drift accumulates");
        // Wraps at least once over 100 rounds.
        assert!(ibm.windows(2).any(|w| w[1] < w[0]));
    }

    #[test]
    fn fig06_active_dominates_passive() {
        for t in fig06::run(&Config::quick()) {
            for row in &t.rows {
                let passive: f64 = row[1].parse().unwrap();
                let active: f64 = row[2].parse().unwrap();
                assert!(active >= passive, "{row:?}");
            }
        }
    }

    #[test]
    fn fig20_latency_is_fast_and_flat() {
        let tables = fig20::run(&Config::quick());
        let right = &tables[1];
        for row in &right.rows {
            let active: f64 = row[1].parse().unwrap();
            assert!(active < 1_000.0, "planning must take microseconds: {row:?}");
        }
    }
}
