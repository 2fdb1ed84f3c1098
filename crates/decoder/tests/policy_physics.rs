//! End-to-end physics check: Active synchronization must beat Passive.

use ftqc_decoder::{evaluate_ler, DecodingGraph, UfDecoder};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::DetectorErrorModel;
use ftqc_surface::{LatticeSurgeryConfig, OBS_MERGED};
use ftqc_sync::{PolicySpec, SyncContext};

fn ler_for(policy: PolicySpec, tau: f64, d: u32, shots: u64) -> (f64, f64) {
    let hw = HardwareConfig::google();
    let t = hw.cycle_time_ns();
    let mut cfg = LatticeSurgeryConfig::new(d, &hw);
    let ctx = SyncContext::new(tau, t, t, d + 1).unwrap();
    cfg.plan = policy.plan(&ctx).unwrap();
    let c = CircuitNoiseModel::standard(1e-3, &hw).apply(&cfg.build());
    let (dem, stats) = DetectorErrorModel::from_circuit(&c, true);
    assert_eq!(stats.dropped_hyperedges, 0, "graphlike DEM expected");
    let dec = UfDecoder::new(DecodingGraph::from_dem(&dem));
    let ler = evaluate_ler(&c, &dec, shots, 1024, 99, 2);
    (ler[OBS_MERGED as usize].rate(), ler[0].rate())
}

/// Long-running statistical check; run explicitly with --ignored.
#[test]
#[ignore = "statistical check, ~17 s in release mode on 2 vCPUs"]
fn active_beats_passive_on_google_config() {
    let shots = 150_000;
    let (passive_merged, passive_p) = ler_for(PolicySpec::Passive, 1000.0, 7, shots);
    let (active_merged, active_p) = ler_for(PolicySpec::Active, 1000.0, 7, shots);
    eprintln!(
        "merged: passive={passive_merged:.5} active={active_merged:.5} ratio={:.3}",
        passive_merged / active_merged
    );
    eprintln!(
        "P:      passive={passive_p:.5} active={active_p:.5} ratio={:.3}",
        passive_p / active_p
    );
    assert!(active_p < passive_p, "Active must beat Passive on X_P");
}
