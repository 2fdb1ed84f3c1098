//! Shared Lattice Surgery evaluation plumbing.

use crate::pipeline::EvalPipeline;
use crate::Config;
use ftqc_decoder::DecoderKind;
use ftqc_noise::HardwareConfig;
use ftqc_sim::{BinomialEstimate, StopRule};
use ftqc_surface::{LatticeSurgeryConfig, LsBasis};
use ftqc_sync::{PolicySpec, SyncContext, SyncPlan};

/// One Lattice Surgery evaluation point.
#[derive(Debug, Clone)]
pub struct LsSetup {
    /// Code distance.
    pub d: u32,
    /// Surgery basis.
    pub basis: LsBasis,
    /// Hardware configuration.
    pub hardware: HardwareConfig,
    /// Synchronization policy for the leading patch.
    pub policy: PolicySpec,
    /// Initial slack, nanoseconds.
    pub tau_ns: f64,
    /// Abstract cycle time of the leading patch used by the solvers
    /// (paper Section 7.3 uses 1000 ns).
    pub t_p_ns: f64,
    /// Abstract cycle time of the lagging patch.
    pub t_p_prime_ns: f64,
    /// Extra rounds added to *both* patches before the merge (the `R`
    /// of paper Fig. 18).
    pub extra_rounds_both: u32,
    /// Decoder family used for the evaluation.
    pub decoder: DecoderKind,
}

impl LsSetup {
    /// A same-cycle-time setup (only Passive/Active/Active-intra are
    /// meaningful) on the given hardware.
    ///
    /// Decodes with [`DecoderKind::for_distance`]: exact matching up to
    /// `d = 5` and union-find beyond — the paper's PyMatching baseline
    /// has no UF clustering bias, and neither does our exact matcher
    /// (see EXPERIMENTS.md).
    pub fn homogeneous(
        d: u32,
        hardware: &HardwareConfig,
        policy: PolicySpec,
        tau_ns: f64,
    ) -> LsSetup {
        let t = hardware.cycle_time_ns();
        LsSetup {
            d,
            basis: LsBasis::Z,
            hardware: hardware.clone(),
            policy,
            tau_ns,
            t_p_ns: t,
            t_p_prime_ns: t,
            extra_rounds_both: 0,
            decoder: DecoderKind::for_distance(d),
        }
    }

    /// The synchronization plan this setup induces. Falls back to
    /// Active when the policy is infeasible for the cycle times, as the
    /// runtime selector of paper Section 5 does.
    pub fn plan(&self) -> SyncPlan {
        let rounds = self.d + 1 + self.extra_rounds_both;
        let ctx = SyncContext::new(self.tau_ns, self.t_p_ns, self.t_p_prime_ns, rounds)
            .expect("setup parameters are validated");
        self.policy
            .plan(&ctx)
            .or_else(|_| PolicySpec::Active.plan(&ctx))
            .expect("active planning is total")
    }

    /// The Lattice Surgery circuit configuration this setup induces
    /// (basis, pre-merge rounds, synchronization plan and lagging-patch
    /// stretch), ready for [`EvalPipeline::lattice_surgery`].
    pub fn surgery_config(&self) -> LatticeSurgeryConfig {
        let mut cfg = LatticeSurgeryConfig::new(self.d, &self.hardware);
        cfg.basis = self.basis;
        cfg.pre_rounds = self.d + 1 + self.extra_rounds_both;
        cfg.plan = self.plan();
        cfg.lagging_round_stretch_ns = (self.t_p_prime_ns - self.t_p_ns).max(0.0);
        cfg
    }
}

/// Runs the Fig. 13 experiment for `setup`, returning per-observable
/// logical-error estimates (`[P, P', merged]`) through
/// [`run_eval`].
pub fn ls_ler(setup: &LsSetup, config: &Config, seed: u64) -> Vec<BinomialEstimate> {
    let pipeline = EvalPipeline::lattice_surgery(setup.surgery_config())
        .decoder(setup.decoder)
        .shots(config.shots)
        .seed(seed)
        .threads(config.threads)
        .build();
    debug_assert_eq!(pipeline.dem_stats().dropped_hyperedges, 0);
    run_eval(&pipeline, config)
}

/// Evaluates a prepared pipeline under `config.stop`, or under the
/// ceiling-only rule `StopRule::max_shots(pipeline.shots())` when it is
/// `None`. Every run resumes from, and checkpoints to,
/// `config.checkpoint`, keyed by the pipeline fingerprint. A stored
/// entry past the rule's ceiling is returned as stored, with a note on
/// stderr.
pub fn run_eval(pipeline: &EvalPipeline, config: &Config) -> Vec<BinomialEstimate> {
    let rule = config
        .stop
        .unwrap_or_else(|| StopRule::max_shots(pipeline.shots()));
    let key = format!("{:016x}", pipeline.fingerprint());
    let resume = config.checkpoint.as_ref().and_then(|store| store.get(&key));
    if let (Some(store), Some(state)) = (&config.checkpoint, &resume) {
        if state.trials() > rule.shot_ceiling() {
            eprintln!(
                "note: configuration {key} in {} has {} trials, above the {}-shot ceiling; \
                 using it as stored",
                store.path().display(),
                state.trials(),
                rule.shot_ceiling()
            );
        }
    }
    let outcome = pipeline.run_adaptive_with(&rule, resume, |state| {
        if let Some(store) = &config.checkpoint {
            if let Err(e) = store.put(&key, state) {
                eprintln!(
                    "warning: could not checkpoint to {}: {e}",
                    store.path().display()
                );
            }
        }
    });
    outcome.estimates()
}

/// The paper's "Reduction" metric: `LER_passive / LER_policy`, averaged
/// over the P and merged observables (Section 7.3 averages over
/// observables). Returns `NaN` when the policy observed zero errors.
pub fn reduction(passive: &[BinomialEstimate], policy: &[BinomialEstimate]) -> f64 {
    let p = passive[0].rate() + passive[2].rate();
    let a = policy[0].rate() + policy[2].rate();
    if a == 0.0 {
        return f64::NAN;
    }
    p / a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_setup_plans_match_policy() {
        let hw = HardwareConfig::ibm();
        let s = LsSetup::homogeneous(3, &hw, PolicySpec::Passive, 700.0);
        let plan = s.plan();
        assert_eq!(plan.final_idle_ns, 700.0);
        assert_eq!(plan.rounds, 4);
    }

    #[test]
    fn infeasible_policies_fall_back() {
        let hw = HardwareConfig::ibm();
        let mut s = LsSetup::homogeneous(3, &hw, PolicySpec::ExtraRounds, 700.0);
        // Equal cycle times: falls back to Active.
        let plan = s.plan();
        assert_eq!(plan.policy, PolicySpec::Active);
        s.policy = PolicySpec::hybrid(400.0);
        let _ = s.plan();
    }

    #[test]
    fn ls_ler_returns_three_observables() {
        let hw = HardwareConfig::ibm();
        let s = LsSetup::homogeneous(3, &hw, PolicySpec::Active, 500.0);
        let config = Config {
            shots: 2_000,
            seed: 7,
            ..Config::quick()
        };
        let ler = ls_ler(&s, &config, config.seed);
        assert_eq!(ler.len(), 3);
    }

    #[test]
    fn adaptive_ls_ler_stops_early_and_matches_fixed_prefix() {
        let hw = HardwareConfig::ibm();
        let s = LsSetup::homogeneous(3, &hw, PolicySpec::Passive, 1000.0);
        let fixed = Config {
            shots: 30_000,
            seed: 7,
            ..Config::quick()
        };
        let adaptive = Config {
            stop: Some(StopRule::max_shots(30_000).min_failures(40)),
            ..fixed.clone()
        };
        let f = ls_ler(&s, &fixed, 7);
        let a = ls_ler(&s, &adaptive, 7);
        // The d=3 Passive configuration fails often enough that 40
        // failures accumulate long before the ceiling.
        assert!(a[0].trials() < f[0].trials(), "adaptive must stop early");
        assert!(a.iter().all(|e| e.successes() >= 40));
    }

    #[test]
    fn fixed_run_eval_checkpoints_and_resumes_from_the_store() {
        let path =
            std::env::temp_dir().join(format!("ftqc-runner-ckpt-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = ftqc_surface::MemoryConfig::new(3, 4, &HardwareConfig::ibm());
        let pipeline = EvalPipeline::memory(cfg)
            .physical_error(3e-3)
            .shots(1_024)
            .batch_shots(256)
            .threads(1)
            .seed(5)
            .build();
        let config = Config {
            checkpoint: Some(std::sync::Arc::new(
                crate::CheckpointStore::open(&path).unwrap(),
            )),
            ..Config::quick()
        };
        assert!(config.stop.is_none(), "a fixed-shot run");
        let first = run_eval(&pipeline, &config);
        assert_eq!(first, pipeline.run());
        let store = crate::CheckpointStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        let key = format!("{:016x}", pipeline.fingerprint());
        assert_eq!(store.get(&key).map(|s| s.estimates()), Some(first.clone()));
        let resumed = Config {
            checkpoint: Some(std::sync::Arc::new(store)),
            ..config
        };
        assert_eq!(run_eval(&pipeline, &resumed), first);
        // The answer comes from the store, not from sampling again.
        let store = resumed.checkpoint.as_ref().unwrap();
        let planted = ftqc_sim::RunningEstimate::from_parts(1_024, vec![1_000]);
        store.put(&key, &planted).unwrap();
        assert_eq!(run_eval(&pipeline, &resumed), planted.estimates());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reduction_handles_zero_denominator() {
        let zero = vec![
            BinomialEstimate::new(0, 10),
            BinomialEstimate::new(0, 10),
            BinomialEstimate::new(0, 10),
        ];
        let some = vec![
            BinomialEstimate::new(1, 10),
            BinomialEstimate::new(1, 10),
            BinomialEstimate::new(1, 10),
        ];
        assert!(reduction(&some, &zero).is_nan());
        assert!((reduction(&some, &some) - 1.0).abs() < 1e-12);
    }
}
