//! Logical-error-rate experiments: Figs. 1(d), 14–19, 21 and Tables
//! 1, 2, 4, 5.

use crate::runner::{ls_ler, reduction, LsSetup};
use crate::{Config, Table};
use ftqc_decoder::DecoderKind;
use ftqc_estimator::{program_ler_increase, workloads, LogicalEstimate};
use ftqc_noise::HardwareConfig;
use ftqc_surface::LsBasis;
use ftqc_sync::PolicySpec;

fn fmt_rate(r: f64) -> String {
    format!("{r:.3e}")
}

/// `rate [lo, hi]` with a 95% Wilson score interval — the stated
/// confidence adaptive runs buy.
fn fmt_ci(e: &ftqc_sim::BinomialEstimate) -> String {
    let (lo, hi) = e.wilson_interval(1.96);
    format!("{:.2e} [{lo:.2e}, {hi:.2e}]", e.rate())
}

fn fmt_red(r: f64) -> String {
    if r.is_nan() {
        "n/a".to_string()
    } else {
        format!("{r:.2}")
    }
}

/// Paper Fig. 14: LER reduction of Active over Passive for IBM- and
/// Google-like systems, both surgery bases, slacks 500/1000 ns.
pub mod fig14 {
    use super::*;

    /// Regenerates one table per (platform, basis).
    pub fn run(config: &Config) -> Vec<Table> {
        let mut out = Vec::new();
        for hw in [HardwareConfig::ibm(), HardwareConfig::google()] {
            for basis in [LsBasis::Z, LsBasis::X] {
                let mut t = Table::new(
                    format!(
                        "fig14_{}_{}basis",
                        hw.name.to_lowercase(),
                        match basis {
                            LsBasis::Z => "z",
                            LsBasis::X => "x",
                        }
                    ),
                    format!(
                        "Active/Passive LER reduction ({}, {basis:?}-basis surgery)",
                        hw.name
                    ),
                    [
                        "d",
                        "tau (ns)",
                        "reduction P",
                        "reduction merged",
                        "reduction avg",
                        "LER passive merged [95% CI]",
                        "LER active merged [95% CI]",
                        "shots (P/A)",
                    ],
                );
                for &d in &config.distances {
                    for tau in [500.0, 1000.0] {
                        let mut passive = LsSetup::homogeneous(d, &hw, PolicySpec::Passive, tau);
                        passive.basis = basis;
                        let mut active = LsSetup::homogeneous(d, &hw, PolicySpec::Active, tau);
                        active.basis = basis;
                        let p = ls_ler(&passive, config, config.seed);
                        let a = ls_ler(&active, config, config.seed + 1);
                        let red_p = p[0].ratio(&a[0]);
                        let red_m = p[2].ratio(&a[2]);
                        t.push_row([
                            d.to_string(),
                            format!("{tau}"),
                            fmt_red(red_p),
                            fmt_red(red_m),
                            fmt_red(reduction(&p, &a)),
                            fmt_ci(&p[2]),
                            fmt_ci(&a[2]),
                            format!("{}/{}", p[2].trials(), a[2].trials()),
                        ]);
                    }
                }
                out.push(t);
            }
        }
        out
    }
}

/// Paper Fig. 1(d): the normalized T count enabled by the Active
/// policy (deeper circuits at iso-fidelity scale with the LER
/// reduction).
pub mod fig1d {
    use super::*;

    /// Derives the normalized T count from the measured reduction.
    pub fn run(config: &Config) -> Vec<Table> {
        let hw = HardwareConfig::ibm();
        let d = config.focus_distance;
        let passive = LsSetup::homogeneous(d, &hw, PolicySpec::Passive, 1000.0);
        let active = LsSetup::homogeneous(d, &hw, PolicySpec::Active, 1000.0);
        let p = ls_ler(&passive, config, config.seed);
        let a = ls_ler(&active, config, config.seed + 1);
        let red = reduction(&p, &a);
        let mut t = Table::new(
            "fig01d_norm_t_count",
            "Normalized T count enabled by Active synchronization",
            ["policy", "normalized T count", "paper (d=15)"],
        );
        t.push_row(["Passive", "1.00", "1.00"]);
        t.push_row(["Active", &fmt_red(red), "2.40"]);
        vec![t]
    }
}

/// Paper Fig. 15: LER of an ideal (never-synchronizing) system vs
/// Active and Passive at worst-case slack.
pub mod fig15 {
    use super::*;

    /// Regenerates both observable panels for the IBM configuration.
    pub fn run(config: &Config) -> Vec<Table> {
        let hw = HardwareConfig::ibm();
        let mut t = Table::new(
            "fig15_cost_of_sync",
            "LER vs d: Ideal / Active / Passive (IBM, tau = 1000 ns, Z basis)",
            ["d", "observable", "Ideal", "Active", "Passive"],
        );
        for &d in &config.distances {
            let ideal = LsSetup::homogeneous(d, &hw, PolicySpec::Passive, 0.0);
            let act = LsSetup::homogeneous(d, &hw, PolicySpec::Active, 1000.0);
            let pas = LsSetup::homogeneous(d, &hw, PolicySpec::Passive, 1000.0);
            let li = ls_ler(&ideal, config, config.seed);
            let la = ls_ler(&act, config, config.seed + 1);
            let lp = ls_ler(&pas, config, config.seed + 2);
            for (obs, name) in [(2usize, "X_P X_P'"), (0usize, "X_P")] {
                t.push_row([
                    d.to_string(),
                    name.to_string(),
                    fmt_rate(li[obs].rate()),
                    fmt_rate(la[obs].rate()),
                    fmt_rate(lp[obs].rate()),
                ]);
            }
        }
        vec![t]
    }
}

/// Paper Fig. 16: relative increase in the final program LER when
/// synchronizing Passively instead of Actively, per workload.
pub mod fig16 {
    use super::*;

    /// Regenerates the bar values using measured per-sync LERs.
    pub fn run(config: &Config) -> Vec<Table> {
        let hw = HardwareConfig::ibm();
        let d = config.focus_distance;
        let rates = |policy: PolicySpec, tau: f64, seed: u64| {
            let setup = LsSetup::homogeneous(d, &hw, policy, tau);
            let l = ls_ler(&setup, config, seed);
            l[0].rate() + l[2].rate()
        };
        let e_ideal = rates(PolicySpec::Passive, 0.0, config.seed);
        let e_active = rates(PolicySpec::Active, 1000.0, config.seed + 1);
        let e_pas_1000 = rates(PolicySpec::Passive, 1000.0, config.seed + 2);
        let e_pas_500 = rates(PolicySpec::Passive, 500.0, config.seed + 3);
        // Per-round idle-free logical error for the base term.
        let e_round = e_ideal / (2.0 * (d as f64 + 1.0));
        let mut t = Table::new(
            "fig16_final_ler_increase",
            format!("Final-program LER increase vs ideal (measured at d = {d})"),
            [
                "workload",
                "Passive tau=1000",
                "Passive tau=500",
                "Active tau=1000",
            ],
        );
        for w in workloads::catalog() {
            let est = LogicalEstimate::for_workload(&w, 1e-3, 1e-2);
            let f = |e_sync: f64| fmt_red(program_ler_increase(&est, e_round, e_ideal, e_sync));
            t.push_row([w.name.clone(), f(e_pas_1000), f(e_pas_500), f(e_active)]);
        }
        vec![t]
    }
}

/// Paper Fig. 17: the Active-intra policy can help slightly or hurt.
pub mod fig17 {
    use super::*;

    /// Regenerates reductions (vs Passive) for both bases.
    pub fn run(config: &Config) -> Vec<Table> {
        let hw = HardwareConfig::ibm();
        let mut t = Table::new(
            "fig17_active_intra",
            "Active-intra/Passive LER reduction (IBM)",
            ["d", "basis", "tau (ns)", "reduction"],
        );
        for &d in &config.distances {
            for basis in [LsBasis::Z, LsBasis::X] {
                for tau in [500.0, 1000.0] {
                    let mut pas = LsSetup::homogeneous(d, &hw, PolicySpec::Passive, tau);
                    pas.basis = basis;
                    let mut intra = LsSetup::homogeneous(d, &hw, PolicySpec::ActiveIntra, tau);
                    intra.basis = basis;
                    let p = ls_ler(&pas, config, config.seed);
                    let i = ls_ler(&intra, config, config.seed + 1);
                    t.push_row([
                        d.to_string(),
                        format!("{basis:?}"),
                        format!("{tau}"),
                        fmt_red(reduction(&p, &i)),
                    ]);
                }
            }
        }
        vec![t]
    }
}

/// Paper Fig. 18: (a) distributing the slack over `d + 1 + R` rounds
/// has diminishing returns; (b) extra rounds alone raise the LER.
pub mod fig18 {
    use super::*;

    /// Regenerates both panels.
    pub fn run(config: &Config) -> Vec<Table> {
        let hw = HardwareConfig::ibm();
        let d = config.focus_distance;
        let mut a = Table::new(
            "fig18a_reduction_vs_extra_rounds",
            format!("Active/Passive reduction when slack spreads over d+1+R rounds (d = {d})"),
            ["R", "tau=500", "tau=1000"],
        );
        let mut b = Table::new(
            "fig18b_ler_vs_rounds",
            format!("LER vs extra rounds without any slack (d = {d})"),
            ["R", "LER (merged)"],
        );
        for r in [0u32, 2, 4, 6, 8, 10] {
            let mut cells = vec![r.to_string()];
            for tau in [500.0, 1000.0] {
                let mut pas = LsSetup::homogeneous(d, &hw, PolicySpec::Passive, tau);
                pas.extra_rounds_both = r;
                pas.decoder = DecoderKind::UnionFind; // large circuits; UF keeps this tractable
                let mut act = LsSetup::homogeneous(d, &hw, PolicySpec::Active, tau);
                act.extra_rounds_both = r;
                act.decoder = DecoderKind::UnionFind;
                let p = ls_ler(&pas, config, config.seed);
                let aa = ls_ler(&act, config, config.seed + 1);
                cells.push(fmt_red(reduction(&p, &aa)));
            }
            a.push_row(cells);
            let mut ideal = LsSetup::homogeneous(d, &hw, PolicySpec::Passive, 0.0);
            ideal.extra_rounds_both = r;
            ideal.decoder = DecoderKind::UnionFind;
            let l = ls_ler(&ideal, config, config.seed + 2);
            b.push_row([r.to_string(), fmt_rate(l[2].rate())]);
        }
        vec![a, b]
    }
}

/// Paper Fig. 19 and Table 4: Active vs Extra-Rounds vs Hybrid when the
/// cycle times differ (color/qLDPC-like lagging patches).
pub mod fig19_table4 {
    use super::*;

    /// Regenerates the policy comparison averaged over
    /// `T_P' = 1050/1100/1150 ns`.
    pub fn run(config: &Config) -> Vec<Table> {
        let hw = HardwareConfig::ibm();
        let d = config.focus_distance;
        let policies: Vec<(String, PolicySpec)> = vec![
            ("Active".into(), PolicySpec::Active),
            ("Extra Rounds".into(), PolicySpec::ExtraRounds),
            ("Hybrid (eps: 100)".into(), PolicySpec::hybrid(100.0)),
            ("Hybrid (eps: 200)".into(), PolicySpec::hybrid(200.0)),
            ("Hybrid (eps: 300)".into(), PolicySpec::hybrid(300.0)),
            ("Hybrid (eps: 400)".into(), PolicySpec::hybrid(400.0)),
        ];
        let mut fig = Table::new(
            "fig19_policy_reduction",
            format!("Reduction vs Passive, averaged over T_P' = 1050/1100/1150 (d = {d})"),
            ["policy", "tau=500", "tau=1000"],
        );
        let average = |policy: &PolicySpec, tau: f64, seed: u64| -> f64 {
            let mut total = 0.0;
            let mut n = 0.0;
            for tpp in [1050.0, 1100.0, 1150.0] {
                // Extra-round penalties dominate here; UF suffices.
                let mut pas = LsSetup::homogeneous(d, &hw, PolicySpec::Passive, tau);
                pas.t_p_ns = 1000.0;
                pas.t_p_prime_ns = tpp;
                pas.decoder = DecoderKind::UnionFind;
                let mut pol = LsSetup::homogeneous(d, &hw, *policy, tau);
                pol.t_p_ns = 1000.0;
                pol.t_p_prime_ns = tpp;
                pol.decoder = DecoderKind::UnionFind;
                let p = ls_ler(&pas, config, seed);
                let a = ls_ler(&pol, config, seed + 1);
                let r = reduction(&p, &a);
                if r.is_finite() {
                    total += r;
                    n += 1.0;
                }
            }
            if n > 0.0 {
                total / n
            } else {
                f64::NAN
            }
        };
        for (name, policy) in &policies {
            let r500 = average(policy, 500.0, config.seed);
            let r1000 = average(policy, 1000.0, config.seed + 10);
            fig.push_row([name.clone(), fmt_red(r500), fmt_red(r1000)]);
        }
        let mut t4 = Table::new(
            "table4_reduction_by_distance",
            "Average reduction vs Passive at tau = 1000 ns",
            ["d", "Active", "Extra Rounds", "Hybrid (eps=400)"],
        );
        for &dd in &config.distances {
            let mut row = vec![dd.to_string()];
            for policy in [
                PolicySpec::Active,
                PolicySpec::ExtraRounds,
                PolicySpec::hybrid(400.0),
            ] {
                let mut total = 0.0;
                let mut n = 0.0;
                for tpp in [1050.0, 1100.0, 1150.0] {
                    let mut pas = LsSetup::homogeneous(dd, &hw, PolicySpec::Passive, 1000.0);
                    pas.t_p_ns = 1000.0;
                    pas.t_p_prime_ns = tpp;
                    pas.decoder = DecoderKind::UnionFind;
                    let mut pol = LsSetup::homogeneous(dd, &hw, policy, 1000.0);
                    pol.t_p_ns = 1000.0;
                    pol.t_p_prime_ns = tpp;
                    pol.decoder = DecoderKind::UnionFind;
                    let p = ls_ler(&pas, config, config.seed + 20);
                    let a = ls_ler(&pol, config, config.seed + 21);
                    let r = reduction(&p, &a);
                    if r.is_finite() {
                        total += r;
                        n += 1.0;
                    }
                }
                row.push(fmt_red(if n > 0.0 { total / n } else { f64::NAN }));
            }
            t4.push_row(row);
        }
        vec![fig, t4]
    }
}

/// Paper Fig. 21 and Table 5: neutral-atom systems — Active barely
/// helps and Hybrid's extra rounds actively hurt.
pub mod fig21_table5 {
    use super::*;
    use ftqc_sync::solve_hybrid;

    /// Regenerates the QuEra reduction series and the extra-rounds
    /// table.
    pub fn run(config: &Config) -> Vec<Table> {
        let hw = HardwareConfig::quera();
        let d = config.focus_distance;
        let ms = 1e6; // ns per ms
        let taus_ms = [0.2, 0.6, 1.0, 1.6, 2.0];
        let tpp_ms = [2.2, 2.4, 2.6];
        let hybrid = |eps_ms: f64| PolicySpec::Hybrid {
            epsilon_ns: eps_ms * ms,
            max_extra_rounds: 12,
        };
        let mut fig = Table::new(
            "fig21_neutral_atom",
            format!("Reduction vs Passive on QuEra (d = {d}, averaged over T_P')"),
            [
                "tau (ms)",
                "Active",
                "Hybrid (eps: 0.1ms)",
                "Hybrid (eps: 0.4ms)",
            ],
        );
        for &tau_ms in &taus_ms {
            let mut row = vec![format!("{tau_ms}")];
            for policy in [PolicySpec::Active, hybrid(0.1), hybrid(0.4)] {
                let policy = &policy;
                let mut total = 0.0;
                let mut n = 0.0;
                for &tpp in &tpp_ms {
                    let mut pas = LsSetup::homogeneous(d, &hw, PolicySpec::Passive, tau_ms * ms);
                    pas.t_p_ns = 2.0 * ms;
                    pas.t_p_prime_ns = tpp * ms;
                    pas.decoder = DecoderKind::UnionFind;
                    let mut pol = LsSetup::homogeneous(d, &hw, *policy, tau_ms * ms);
                    pol.t_p_ns = 2.0 * ms;
                    pol.t_p_prime_ns = tpp * ms;
                    pol.decoder = DecoderKind::UnionFind;
                    let p = ls_ler(&pas, config, config.seed);
                    let a = ls_ler(&pol, config, config.seed + 1);
                    let r = reduction(&p, &a);
                    if r.is_finite() {
                        total += r;
                        n += 1.0;
                    }
                }
                row.push(fmt_red(if n > 0.0 { total / n } else { f64::NAN }));
            }
            fig.push_row(row);
        }
        let mut t5 = Table::new(
            "table5_hybrid_rounds",
            "Extra rounds needed by Hybrid on QuEra (max over T_P' = 2.2/2.4/2.6 ms)",
            [
                "eps (ms)", "tau=0.2", "tau=0.6", "tau=1.0", "tau=1.6", "tau=2.0",
            ],
        );
        for eps_ms in [0.1, 0.4] {
            let mut row = vec![format!("{eps_ms}")];
            for &tau_ms in &taus_ms {
                let max_rounds = tpp_ms
                    .iter()
                    .filter_map(|&tpp| {
                        solve_hybrid(2.0 * ms, tpp * ms, tau_ms * ms, eps_ms * ms, 12)
                            .ok()
                            .map(|s| s.extra_rounds)
                    })
                    .max();
                row.push(
                    max_rounds
                        .map(|m| m.to_string())
                        .unwrap_or_else(|| "-".into()),
                );
            }
            t5.push_row(row);
        }
        vec![fig, t5]
    }
}

/// Paper Table 1: logical error counts for Passive vs Active at
/// `T1 = 25 us`, `T2 = 40 us`.
pub mod table1 {
    use super::*;

    /// Regenerates the error-count table.
    pub fn run(config: &Config) -> Vec<Table> {
        let hw = HardwareConfig::table1();
        let mut t = Table::new(
            "table1_error_counts",
            format!(
                "Logical errors out of {} shots (T1=25us, T2=40us)",
                config.shots
            ),
            ["slack (ns)", "d", "Passive", "Active", "% reduction"],
        );
        for tau in [500.0, 1000.0] {
            for &d in &config.distances {
                let pas = LsSetup::homogeneous(d, &hw, PolicySpec::Passive, tau);
                let act = LsSetup::homogeneous(d, &hw, PolicySpec::Active, tau);
                let p = ls_ler(&pas, config, config.seed);
                let a = ls_ler(&act, config, config.seed + 1);
                let pe = p[0].successes() + p[2].successes();
                let ae = a[0].successes() + a[2].successes();
                let pct = if pe > 0 {
                    format!("{:.2}", 100.0 * (pe as f64 - ae as f64) / pe as f64)
                } else {
                    "n/a".into()
                };
                t.push_row([
                    format!("{tau}"),
                    d.to_string(),
                    pe.to_string(),
                    ae.to_string(),
                    pct,
                ]);
            }
        }
        vec![t]
    }
}

/// Paper Table 2: idling period, extra rounds and LER across policies
/// for `T_P = 1000`, `T_P' = 1325`, `tau = 1000`, `eps = 400`.
pub mod table2 {
    use super::*;

    /// Regenerates the comparison.
    pub fn run(config: &Config) -> Vec<Table> {
        let hw = HardwareConfig::ibm();
        let d = config.focus_distance;
        let mut t = Table::new(
            "table2_policy_comparison",
            format!("T_P=1000, T_P'=1325, tau=1000, eps=400 (d = {d})"),
            ["policy", "idling (ns)", "extra rounds", "LER (merged)"],
        );
        for (name, policy) in [
            ("Active", PolicySpec::Active),
            ("Extra Rounds", PolicySpec::ExtraRounds),
            ("Hybrid", PolicySpec::hybrid(400.0)),
        ] {
            let mut setup = LsSetup::homogeneous(d, &hw, policy, 1000.0);
            setup.t_p_ns = 1000.0;
            setup.t_p_prime_ns = 1325.0;
            setup.decoder = DecoderKind::UnionFind; // the 52-round Extra-Rounds circuit is large
            let plan = setup.plan();
            let l = ls_ler(&setup, config, config.seed);
            t.push_row([
                name.to_string(),
                format!("{:.0}", plan.total_idle_ns()),
                plan.extra_rounds.to_string(),
                fmt_rate(l[2].rate()),
            ]);
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            shots: 1_500,
            distances: vec![3],
            focus_distance: 3,
            threads: 2,
            seed: 7,
            ..Config::quick()
        }
    }

    #[test]
    fn fig14_produces_four_tables() {
        let tables = fig14::run(&tiny());
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].rows.len(), 2); // one distance, two taus
    }

    #[test]
    fn fig14_adaptive_rows_report_intervals_and_shots() {
        use ftqc_sim::StopRule;
        let config = Config {
            stop: Some(StopRule::max_shots(2_048).min_failures(10)),
            ..tiny()
        };
        let t = &fig14::run(&config)[0];
        for row in &t.rows {
            let ci = &row[5];
            assert!(ci.contains('[') && ci.contains(','), "no interval in {ci}");
            let (p_shots, a_shots) = row[7].split_once('/').expect("P/A shot counts");
            assert!(p_shots.parse::<u64>().unwrap() > 0);
            assert!(a_shots.parse::<u64>().unwrap() > 0);
        }
    }

    #[test]
    fn table2_plans_match_paper_structure() {
        let t = &table2::run(&tiny())[0];
        // Active idles 1000 ns, Extra Rounds runs 52 rounds with no
        // idle, Hybrid runs 4 rounds with 300 ns.
        assert_eq!(t.rows[0][1], "1000");
        assert_eq!(t.rows[1][2], "52");
        assert_eq!(t.rows[2][1], "300");
        assert_eq!(t.rows[2][2], "4");
    }

    #[test]
    fn table5_matches_paper_rounds() {
        let tables = fig21_table5::run(&Config {
            shots: 300,
            ..tiny()
        });
        let t5 = &tables[1];
        // Paper Table 5: eps=0.1 -> 9, 3, ...; eps=0.4 -> 5, 3, ...
        assert_eq!(t5.rows[0][1], "9");
        assert_eq!(t5.rows[0][2], "3");
        assert_eq!(t5.rows[1][1], "5");
        assert_eq!(t5.rows[1][2], "3");
    }
}
