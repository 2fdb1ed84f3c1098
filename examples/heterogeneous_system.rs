//! A heterogeneous FTQC system: surface-code compute patches, a qLDPC
//! memory with a longer syndrome cycle, and a magic-state cultivation
//! module — the three desynchronization sources of paper Section 3 —
//! coordinated by the runtime synchronization engine of Section 5.
//!
//! ```text
//! cargo run --release --example heterogeneous_system
//! ```

use ftqc::noise::HardwareConfig;
use ftqc::sync::{qldpc_cycle_time_ns, qldpc_slack, Controller, CultivationModel, PolicySpec};

fn main() {
    let hw = HardwareConfig::ibm();
    let t_sc = hw.cycle_time_ns();
    let t_qldpc = qldpc_cycle_time_ns(hw.gate_1q_ns, hw.gate_2q_ns, hw.readout_ns + hw.reset_ns);
    println!("surface-code cycle: {t_sc:.0} ns, qLDPC cycle: {t_qldpc:.0} ns\n");

    // 1. How much slack does the qLDPC memory accumulate against the
    //    compute patches?
    println!("qLDPC phase drift (slack vs rounds):");
    for r in [1u32, 5, 9, 10, 20] {
        println!(
            "  after {r:>2} rounds: {:>6.0} ns",
            qldpc_slack(r, t_sc, t_qldpc)
        );
    }

    // 2. How much slack does cultivation introduce?
    let cult = CultivationModel::for_error_rate(1e-3, t_sc);
    let stats = cult.slack_distribution(t_sc, 50_000, 7);
    println!(
        "\ncultivation slack: median {:.0} ns, mean {:.0} ns, p95 {:.0} ns",
        stats.median_ns, stats.mean_ns, stats.p95_ns
    );

    // 3. The synchronization engine plans and executes the merge
    //    between a compute patch, the memory patch and the cultivation
    //    output: all three patches land on the same tick.
    let mut ctl = Controller::new();
    let compute = ctl.add_patch(t_sc as u32, 500);
    let memory = ctl.add_patch(t_qldpc as u32, 1200);
    let t_state = ctl.add_patch(t_sc as u32, 0);
    let patches = [compute, memory, t_state];
    let report = ctl
        .synchronize_report(&patches, &PolicySpec::hybrid(400.0), 12)
        .expect("plannable");
    // The controller keeps the request's plans, index-parallel to its ids.
    println!("\nsynchronization plans:");
    for (id, plan) in patches.iter().zip(ctl.last_plans()) {
        println!(
            "  patch {:?}: {:>2} extra rounds, {:>6.1} ns idle ({})",
            id,
            plan.extra_rounds,
            plan.total_idle_ns(),
            plan.policy
        );
    }
    let merge_tick = report.merge_tick;
    println!("\ncontroller: all patches aligned at tick {merge_tick}");
    for id in patches {
        let st = ctl.status(id).expect("valid");
        assert_eq!(st.cycle_end_tick, merge_tick);
        println!("  patch {id:?}: {} rounds completed", st.rounds_completed);
    }
}
