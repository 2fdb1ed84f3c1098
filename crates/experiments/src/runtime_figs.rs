//! Program-level runtime evaluation (the paper's Section 6 claim at
//! system scale): every workload executed under every policy.

use crate::{Config, Table};
use ftqc_estimator::{workloads, LogicalEstimate};
use ftqc_noise::HardwareConfig;
use ftqc_runtime::{execute, ProgramSchedule, RuntimeConfig};
use ftqc_sync::PolicySpec;

/// The `repro runtime` experiment: for each of the six MQTBench
/// workloads, compile the merge-event schedule from its resource
/// estimate and execute it under every synchronization policy on an
/// IBM-like system, reporting total runtime and synchronization
/// overhead — plus the per-merge slack distribution of the Passive
/// baseline for the first workload.
pub mod runtime {
    use super::*;

    /// The evaluated policies: the paper's five (Table 2 order)
    /// followed by the drift-adaptive `dynamic-hybrid` extension.
    /// `repro runtime --policy SPEC` restricts the run to one spec via
    /// [`Config::policy`].
    pub fn policies() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Passive,
            PolicySpec::Active,
            PolicySpec::ActiveIntra,
            PolicySpec::ExtraRounds,
            PolicySpec::hybrid(400.0),
            PolicySpec::dynamic_hybrid(),
        ]
    }

    /// Merge-event budget per (workload, policy) run: scales with the
    /// preset's shot count so `--shots` tunes runtime cost the same way
    /// it tunes the LER experiments (quick: 1000 merges, full: 25000).
    pub fn max_merges(config: &Config) -> u64 {
        (config.shots / 20).clamp(250, 25_000)
    }

    /// When telemetry is recording, runs a miniature decode workload —
    /// one d=3 batch + adaptive evaluation and a few streaming shots —
    /// purely so a `repro runtime --trace` recording carries span
    /// events from every instrumented layer (sampling, scanning,
    /// decoding, streaming commits, adaptive stop rules) alongside the
    /// runtime merge stream. Never runs untraced: the runtime tables
    /// are computed by a sequential event loop that this probe does not
    /// touch.
    fn trace_decode_probe(config: &Config) {
        use ftqc_decoder::{DecoderKind, StreamingConfig};
        use ftqc_sim::{sample_batch, RoundSchedule, RoundStream, StopRule};
        use ftqc_surface::MemoryConfig;

        let hw = HardwareConfig::ibm();
        let pipeline = crate::EvalPipeline::memory(MemoryConfig::new(3, 4, &hw))
            .physical_error(3e-3)
            .decoder(DecoderKind::UnionFind)
            .batch_shots(256)
            .seed(config.seed)
            .build();
        let _ = pipeline.run_adaptive(&StopRule::max_shots(512));
        let schedule = RoundSchedule::from_circuit(pipeline.circuit());
        let batch = sample_batch(pipeline.circuit(), 64, config.seed);
        let mut rounds = RoundStream::new(&schedule);
        let mut defects = Vec::with_capacity(schedule.max_round_len());
        // Both streaming modes, so recordings carry the exact commit
        // events (stream/commit) and the fused stitch provenance
        // (stream/fuse + decode/*/window spans).
        for config in [StreamingConfig::exact(2), StreamingConfig::fused(2, 1)] {
            let mut stream = config.build(pipeline.decoder(), &schedule);
            rounds.begin_batch(&batch);
            for s in 0..batch.shots.min(8) {
                rounds.begin_shot(s);
                stream.begin_shot();
                while rounds.next_round_into(&batch, &mut defects).is_some() {
                    let _ = stream.push_round(&defects);
                }
                let _ = stream.finish_shot();
            }
        }
    }

    /// Regenerates the {workload x policy} runtime/overhead table and
    /// the Passive slack histogram. Deterministic for a fixed
    /// `config.seed` regardless of `config.threads` (the runtime is a
    /// single sequential event loop). Policy labels are the
    /// round-trippable [`PolicySpec`] strings, so any row's policy
    /// column can be fed straight back to `repro runtime --policy`.
    pub fn run(config: &Config) -> Vec<Table> {
        if ftqc_telemetry::enabled() {
            trace_decode_probe(config);
        }
        let hw = HardwareConfig::ibm();
        let cap = max_merges(config);
        let selected = match &config.policy {
            Some(spec) => vec![*spec],
            None => policies(),
        };
        let mut t = Table::new(
            "runtime_overhead",
            format!(
                "Program runtime and sync overhead per policy (IBM-like, seed {}, \
                 <= {cap} merges per run)",
                config.seed
            ),
            [
                "workload",
                "policy",
                "merges",
                "runtime (ms)",
                "sync idle (us)",
                "overhead %",
                "extra rounds",
                "mean slack (ns)",
                "fallbacks",
                "p99 slack (ns)",
            ],
        );
        let mut hist = Table::new(
            "runtime_slack_hist",
            "Per-merge slack distribution, Passive baseline, first workload",
            ["bin start (ns)", "bin end (ns)", "merges"],
        );
        for (wi, w) in workloads::catalog().iter().enumerate() {
            let estimate = LogicalEstimate::for_workload(w, 1e-3, 1e-2);
            let schedule = ProgramSchedule::compile(w, &estimate, cap, config.seed);
            for policy in &selected {
                let report = execute(&schedule, &RuntimeConfig::new(&hw, *policy, config.seed));
                t.push_row([
                    w.name.clone(),
                    policy.to_string(),
                    report.merges.to_string(),
                    format!("{:.3}", report.total_ns as f64 / 1e6),
                    format!("{:.1}", report.sync_idle_ns as f64 / 1e3),
                    format!("{:.3}", report.overhead_percent()),
                    report.extra_rounds.to_string(),
                    format!("{:.0}", report.mean_slack_ns()),
                    report.fallbacks.to_string(),
                    format!("{:.0}", report.slack.percentile(0.99)),
                ]);
                if wi == 0 && *policy == PolicySpec::Passive {
                    let width = report.slack.bin_width_ns();
                    for (i, count) in report.slack.bins().iter().enumerate() {
                        hist.push_row([
                            format!("{:.0}", i as f64 * width),
                            format!("{:.0}", (i + 1) as f64 * width),
                            count.to_string(),
                        ]);
                    }
                }
            }
        }
        vec![t, hist]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Config {
        Config {
            shots: 2_000, // 250-merge cap
            seed: 2025,
            ..Config::quick()
        }
    }

    #[test]
    fn runtime_table_covers_all_workloads_and_policies() {
        let tables = runtime::run(&tiny_config());
        assert_eq!(tables[0].rows.len(), 6 * 6);
        assert_eq!(tables[1].rows.len(), 16); // histogram bins
        let merges: u64 = tables[1]
            .rows
            .iter()
            .map(|r| r[2].parse::<u64>().unwrap())
            .sum();
        assert_eq!(merges, 250);
    }

    #[test]
    fn runtime_policy_labels_round_trip() {
        let tables = runtime::run(&tiny_config());
        for row in &tables[0].rows {
            let spec: PolicySpec = row[1]
                .parse()
                .unwrap_or_else(|e| panic!("policy label `{}` must round-trip: {e}", row[1]));
            assert_eq!(spec.to_string(), row[1]);
        }
    }

    #[test]
    fn runtime_table_reproduces_policy_ordering() {
        let tables = runtime::run(&tiny_config());
        // Group rows per workload: overhead % is column 5.
        for chunk in tables[0].rows.chunks(6) {
            let overhead: Vec<f64> = chunk.iter().map(|r| r[5].parse().unwrap()).collect();
            let (passive, active, er, hybrid, dynamic) = (
                overhead[0],
                overhead[1],
                overhead[3],
                overhead[4],
                overhead[5],
            );
            let workload = &chunk[0][0];
            assert!(
                passive >= active,
                "{workload}: passive {passive} < active {active}"
            );
            assert!(
                active >= er,
                "{workload}: active {active} < extra-rounds {er}"
            );
            assert!(
                active >= hybrid,
                "{workload}: active {active} < hybrid {hybrid}"
            );
            assert!(
                hybrid >= dynamic,
                "{workload}: hybrid {hybrid} < dynamic-hybrid {dynamic}"
            );
        }
    }

    #[test]
    fn runtime_honours_policy_override() {
        let mut config = tiny_config();
        config.policy = Some(PolicySpec::dynamic_hybrid());
        let tables = runtime::run(&config);
        assert_eq!(tables[0].rows.len(), 6); // one row per workload
        for row in &tables[0].rows {
            assert_eq!(row[1], PolicySpec::dynamic_hybrid().to_string());
        }
        // No Passive run selected: the histogram stays empty.
        assert!(tables[1].rows.is_empty());
    }

    #[test]
    fn runtime_is_deterministic_per_seed() {
        let a = runtime::run(&tiny_config());
        let b = runtime::run(&tiny_config());
        assert_eq!(a, b);
        let mut other_threads = tiny_config();
        other_threads.threads = 7;
        assert_eq!(runtime::run(&other_threads), a);
    }
}
