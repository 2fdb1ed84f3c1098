//! Cross-crate integration tests: from policy planning through circuit
//! generation, noise, sampling and decoding.

use ftqc::decoder::DecoderKind;
use ftqc::experiments::EvalPipeline;
use ftqc::noise::{CircuitNoiseModel, HardwareConfig};
use ftqc::sim::{verify_deterministic, DetectorErrorModel};
use ftqc::surface::{LatticeSurgeryConfig, LsBasis, MemoryConfig, OBS_MERGED};
use ftqc::sync::{Controller, PolicySpec, SyncContext};

#[test]
fn every_policy_yields_valid_deterministic_circuits() {
    let hw = HardwareConfig::ibm();
    let t = hw.cycle_time_ns();
    let policies: Vec<(PolicySpec, f64, f64)> = vec![
        (PolicySpec::Passive, t, t),
        (PolicySpec::Active, t, t),
        (PolicySpec::ActiveIntra, t, t),
        (PolicySpec::ExtraRounds, 1000.0, 1150.0),
        (PolicySpec::hybrid(400.0), 1000.0, 1325.0),
        (PolicySpec::dynamic_hybrid(), 1000.0, 1325.0),
    ];
    for (policy, tp, tpp) in policies {
        for basis in [LsBasis::Z, LsBasis::X] {
            let mut cfg = LatticeSurgeryConfig::new(3, &hw);
            cfg.basis = basis;
            let ctx = SyncContext::new(800.0, tp, tpp, 4).expect("valid context");
            cfg.plan = policy.plan(&ctx).expect("plannable");
            cfg.lagging_round_stretch_ns = (tpp - tp).max(0.0);
            let circuit = CircuitNoiseModel::ideal().apply(&cfg.build());
            circuit.validate().expect("structurally valid");
            verify_deterministic(&circuit, 6)
                .unwrap_or_else(|e| panic!("{policy} / {basis:?}: {e}"));
        }
    }
}

#[test]
fn controller_schedule_matches_circuit_plan_totals() {
    // The discrete-event controller and the circuit generator must
    // agree on how much time a plan inserts.
    let spec = PolicySpec::hybrid(400.0);
    let plan = spec
        .plan(&SyncContext::new(1000.0, 1000.0, 1325.0, 8).unwrap())
        .unwrap();
    assert_eq!(plan.extra_rounds, 4);
    let mut ctl = Controller::new();
    let a = ctl.add_patch(1000, 0);
    let b = ctl.add_patch(1325, 325);
    let tick = ctl
        .synchronize_report(&[a, b], &spec, 8)
        .unwrap()
        .merge_tick;
    assert_eq!(ctl.status(a).unwrap().cycle_end_tick, tick);
    assert_eq!(ctl.status(b).unwrap().cycle_end_tick, tick);
}

#[test]
fn dem_is_graphlike_for_all_experiment_circuits() {
    let hw = HardwareConfig::google();
    for d in [3u32, 5] {
        for basis in [LsBasis::Z, LsBasis::X] {
            let mut cfg = LatticeSurgeryConfig::new(d, &hw);
            cfg.basis = basis;
            let circuit = CircuitNoiseModel::standard(1e-3, &hw).apply(&cfg.build());
            let (_, stats) = DetectorErrorModel::from_circuit(&circuit, true);
            assert_eq!(
                stats.dropped_hyperedges, 0,
                "d={d} {basis:?}: non-graphlike mechanisms"
            );
        }
    }
}

#[test]
fn memory_ler_improves_with_distance_for_both_decoders() {
    let hw = HardwareConfig::ibm();
    let mut rates = Vec::new();
    for d in [3u32, 5] {
        // One prepared pipeline per distance; both decoder kinds share
        // its circuit, DEM and graph.
        let pipeline = EvalPipeline::memory(MemoryConfig::new(d, d + 1, &hw))
            .decoder(DecoderKind::UnionFind)
            .shots(25_000)
            .seed(3)
            .threads(2)
            .build();
        let uf = pipeline.run();
        let mw = pipeline.run_with(DecoderKind::Mwpm);
        rates.push((uf[0].rate(), mw[0].rate()));
    }
    assert!(
        rates[1].0 < rates[0].0,
        "UF: d=5 {} vs d=3 {}",
        rates[1].0,
        rates[0].0
    );
    assert!(
        rates[1].1 < rates[0].1,
        "MWPM: d=5 {} vs d=3 {}",
        rates[1].1,
        rates[0].1
    );
}

#[test]
fn slack_hurts_and_sync_policies_recover() {
    // The core claim, end to end at small scale: ideal <= active and
    // active <= passive (with statistical slack).
    let hw = HardwareConfig::google();
    let t = hw.cycle_time_ns();
    let shots = 30_000;
    let run = |policy: PolicySpec, tau: f64, seed: u64| {
        let mut cfg = LatticeSurgeryConfig::new(3, &hw);
        cfg.plan = policy
            .plan(&SyncContext::new(tau, t, t, 4).unwrap())
            .unwrap();
        EvalPipeline::lattice_surgery(cfg)
            .decoder(DecoderKind::UnionFind)
            .shots(shots)
            .seed(seed)
            .threads(2)
            .build()
            .run()[OBS_MERGED as usize]
            .rate()
    };
    let ideal = run(PolicySpec::Passive, 0.0, 1);
    let passive = run(PolicySpec::Passive, 1000.0, 1);
    assert!(
        passive > ideal,
        "slack must cost fidelity: ideal {ideal} vs passive {passive}"
    );
}
