//! Pins every built-in policy's plans bit for bit: a grid of contexts
//! under each spec, plus the k-patch composition over the Fig. 20 clock
//! sets, compared line by line against `fixtures/plan-golden.txt`.
//!
//! Each fixture line is `format!("{:?}", ..)` of one planning result,
//! errors included. `Debug` prints every `f64` in its shortest
//! round-trip form, so equal text means bit-equal plans.

use ftqc_sync::{synchronize_patches, LogicalClock, PolicySpec, SlackWindow, SyncContext};

const GOLDEN: &str = include_str!("fixtures/plan-golden.txt");
const SLACKS_NS: [f64; 4] = [0.0, 300.0, 1000.0, 2100.0];
const CYCLE_PAIRS_NS: [(f64, f64); 5] = [
    (1900.0, 1900.0),
    (1000.0, 1150.0),
    (1000.0, 1200.0),
    (1000.0, 1325.0),
    (1325.0, 1000.0),
];
const ROUNDS: u32 = 8;

fn contexts() -> Vec<SyncContext> {
    let mut out = Vec::new();
    for tau in SLACKS_NS {
        for (t_p, t_p_prime) in CYCLE_PAIRS_NS {
            out.push(SyncContext::new(tau, t_p, t_p_prime, ROUNDS).unwrap());
        }
    }
    out
}

fn windows() -> Vec<SlackWindow> {
    [&[][..], &[5.0], &[120.0, 140.0, 130.0, 150.0]]
        .iter()
        .map(|samples| {
            let mut w = SlackWindow::default();
            for s in *samples {
                w.record(*s);
            }
            w
        })
        .collect()
}

/// The Fig. 20 clock sets: patch `i` has a `1000 + (37 i mod 400)` ns
/// cycle and phase `12 345 mod cycle`.
fn fig20_clocks(k: u32) -> Vec<LogicalClock> {
    (0..k)
        .map(|i| {
            let cycle = 1000 + (i * 37) % 400;
            LogicalClock::new(cycle as f64, (12_345 % cycle) as f64)
        })
        .collect()
}

/// The fixture's lines in order: fixed specs over the context grid,
/// dynamic specs over the grid under each window, then the k-patch sets.
fn render() -> Vec<String> {
    let mut lines = Vec::new();
    let fixed = [
        "passive",
        "active",
        "active-intra",
        "extra-rounds",
        "hybrid",
        "hybrid:eps=200,max=3",
    ];
    for spec in fixed {
        let spec: PolicySpec = spec.parse().unwrap();
        for ctx in contexts() {
            lines.push(format!("{:?}", spec.plan(&ctx)));
        }
    }
    let dynamic = [
        "dynamic-hybrid",
        "dynamic-hybrid:eps=400,floor=10,q=0,max=1,deep=25",
    ];
    for spec in dynamic {
        let spec: PolicySpec = spec.parse().unwrap();
        for window in windows() {
            for ctx in contexts() {
                let ctx = ctx.with_observed(window.clone());
                lines.push(format!("{:?}", spec.plan(&ctx)));
            }
        }
    }
    for spec in [PolicySpec::Active, PolicySpec::hybrid(400.0)] {
        for k in [2, 10, 50] {
            let clocks = fig20_clocks(k);
            let mut plans = Vec::new();
            let result =
                synchronize_patches(&spec, &clocks, 12, &SlackWindow::default(), &mut plans)
                    .map(|slowest| (plans, slowest));
            lines.push(format!("{result:?}"));
        }
    }
    lines
}

#[test]
fn plans_reproduce_golden_fixture() {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let actual = render();
    assert_eq!(actual.len(), 246, "120 fixed + 120 dynamic + 6 k-patch");
    assert_eq!(expected.len(), actual.len(), "fixture line count");
    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(*want, got, "plan line {i} differs from the fixture");
    }
}
