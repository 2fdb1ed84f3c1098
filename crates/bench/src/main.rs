//! `ftqc-bench` — run named perf scenarios, emit `BENCH_*.json`, and
//! gate regressions by diffing two reports.
//!
//! ```text
//! ftqc-bench list
//! ftqc-bench run [SCENARIO ...] [--preset quick|full] [--out DIR] [--trace-dir DIR]
//! ftqc-bench compare BASELINE.json NEW.json [--threshold 0.25]
//! ```
//!
//! `run` writes one `BENCH_<scenario>.json` per scenario into `--out`
//! (default: the current directory). With `--trace-dir DIR` it also
//! records cross-layer telemetry while each scenario runs and writes
//! `TRACE_<scenario>.json` (Chrome trace-event JSON, Perfetto-loadable)
//! plus `TRACE_<scenario>.summary.json` (per-span p50/p99/max + counter
//! totals — the span-attribution numbers behind EXPERIMENTS.md's
//! "Where the nanoseconds go" table) into `DIR`. Tracing adds the
//! enabled-path recording cost to the measured numbers, so traced
//! medians are for *attribution*, not for updating baselines.
//! `compare` exits non-zero when any
//! row of NEW is more than `--threshold` (fractional) slower than the
//! same row of BASELINE, when a baseline row disappeared, or when an
//! allocation-free row started allocating — see DESIGN.md
//! ("Performance model & bench harness").

use ftqc_bench::alloc::{counting_enabled, CountingAlloc};
use ftqc_bench::{run_scenario, scenario_names, BenchReport, Preset};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            for name in scenario_names() {
                println!("{name}");
            }
            Ok(())
        }
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Err(Failure::Regression(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(1)
        }
    }
}

/// Why the binary exits non-zero: bad invocation/IO (exit 2) or a
/// genuine perf regression (exit 1).
enum Failure {
    Usage(String),
    Regression(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Usage(msg)
    }
}

fn usage() -> Failure {
    Failure::Usage(format!(
        "usage:\n  ftqc-bench list\n  ftqc-bench run [SCENARIO ...] [--preset quick|full] [--out DIR] [--trace-dir DIR]\n  ftqc-bench compare BASELINE.json NEW.json [--threshold 0.25]\n\nscenarios: {}",
        scenario_names().join(", ")
    ))
}

fn cmd_run(args: &[String]) -> Result<(), Failure> {
    let mut preset = Preset::Quick;
    let mut out_dir = String::from(".");
    let mut trace_dir: Option<String> = None;
    let mut scenarios: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => {
                preset = it
                    .next()
                    .ok_or_else(|| "--preset needs a value".to_string())?
                    .parse()?;
            }
            "--out" => {
                out_dir = it
                    .next()
                    .ok_or_else(|| "--out needs a value".to_string())?
                    .clone();
            }
            "--trace-dir" => {
                trace_dir = Some(
                    it.next()
                        .ok_or_else(|| "--trace-dir needs a value".to_string())?
                        .clone(),
                );
            }
            flag if flag.starts_with("--") => {
                return Err(Failure::Usage(format!("unknown flag '{flag}'")));
            }
            name => scenarios.push(name.to_string()),
        }
    }
    if scenarios.is_empty() {
        scenarios = scenario_names().iter().map(|s| s.to_string()).collect();
    }
    // Validate every name before spending minutes on the first one.
    for name in &scenarios {
        if !scenario_names().contains(&name.as_str()) {
            return Err(Failure::Usage(format!(
                "unknown scenario '{name}' (expected one of: {})",
                scenario_names().join(", ")
            )));
        }
    }
    if !counting_enabled() {
        eprintln!("warning: counting allocator not engaged; allocs_per_op will read 0");
    }
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create output directory {out_dir}: {e}"))?;
    // One recording sink for the whole run, drained (exported + cleared)
    // per scenario so each TRACE_*.json stands alone. Sized well above
    // the default: a traced scenario is an attribution run, so keeping
    // whole passes un-dropped matters more than memory.
    let sink = match &trace_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create trace directory {dir}: {e}"))?;
            let sink = std::sync::Arc::new(ftqc_telemetry::RingSink::with_capacity(1 << 19));
            ftqc_telemetry::install(sink.clone());
            Some(sink)
        }
        None => None,
    };
    for name in &scenarios {
        eprintln!("running {name} ({} preset)...", preset.name());
        let report = run_scenario(name, preset)?;
        for row in &report.results {
            println!(
                "{:<32} {:>14.1} ns/op {:>14.0} ops/s {:>8.2} allocs/op",
                format!("{}/{}", report.scenario, row.name),
                row.median_ns_per_op,
                row.ops_per_sec,
                row.allocs_per_op,
            );
        }
        let path = format!("{out_dir}/BENCH_{name}.json");
        std::fs::write(&path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
        if let (Some(dir), Some(sink)) = (&trace_dir, &sink) {
            let snapshot = sink.snapshot();
            let trace_path = format!("{dir}/TRACE_{name}.json");
            std::fs::write(&trace_path, ftqc_telemetry::chrome_trace_json(&snapshot))
                .map_err(|e| format!("cannot write {trace_path}: {e}"))?;
            let summary_path = format!("{dir}/TRACE_{name}.summary.json");
            let summary = ftqc_telemetry::summarize(&snapshot);
            std::fs::write(&summary_path, ftqc_telemetry::summary_json(&summary))
                .map_err(|e| format!("cannot write {summary_path}: {e}"))?;
            eprintln!("wrote {trace_path} (+ {summary_path})");
            sink.clear();
        }
    }
    if sink.is_some() {
        ftqc_telemetry::uninstall();
    }
    Ok(())
}

/// Allocation slack before an alloc-count increase counts as a
/// regression. Rows at or below the slack are gated absolutely — an
/// allocation-free hot path crossing from ~0 to >0.5 allocs/op always
/// fails; rows that already allocate in the baseline (e.g.
/// `runtime-sweep`, at 9.1–10.3 allocs/op) are gated *relatively*, by
/// the same fractional threshold as time.
const ALLOC_SLACK: f64 = 0.5;

fn cmd_compare(args: &[String]) -> Result<(), Failure> {
    let mut threshold = 0.25f64;
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .ok_or_else(|| "--threshold needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("bad --threshold: {e}"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(Failure::Usage(format!("unknown flag '{flag}'")));
            }
            _ => files.push(arg),
        }
    }
    let [base_path, new_path] = files.as_slice() else {
        return Err(usage());
    };
    let base = load(base_path)?;
    let new = load(new_path)?;
    if base.scenario != new.scenario {
        return Err(Failure::Usage(format!(
            "scenario mismatch: baseline is '{}', new is '{}'",
            base.scenario, new.scenario
        )));
    }
    if base.preset != new.preset {
        eprintln!(
            "warning: comparing presets '{}' (baseline) vs '{}' (new)",
            base.preset, new.preset
        );
    }
    // Host-speed normalization: judge new medians against a baseline
    // scaled by the calibration ratio, so a slower (or faster) machine
    // is gated on relative regressions, not on its hardware.
    let host_scale = if base.calibration_ns_per_op > 0.0 && new.calibration_ns_per_op > 0.0 {
        new.calibration_ns_per_op / base.calibration_ns_per_op
    } else {
        1.0
    };
    if (host_scale - 1.0).abs() > 0.05 {
        println!(
            "host calibration: baseline {:.2} ns/op, new {:.2} ns/op -> scaling baseline by {host_scale:.2}x",
            base.calibration_ns_per_op, new.calibration_ns_per_op
        );
    }
    let mut regressions = Vec::new();
    println!(
        "{:<28} {:>14} {:>14} {:>9} {:>12}",
        "row", "baseline ns/op", "new ns/op", "delta", "allocs/op"
    );
    for b in &base.results {
        let Some(n) = new.results.iter().find(|n| n.name == b.name) else {
            regressions.push(format!("row '{}' missing from {new_path}", b.name));
            continue;
        };
        let scaled_base = b.median_ns_per_op * host_scale;
        let delta = if scaled_base > 0.0 {
            n.median_ns_per_op / scaled_base - 1.0
        } else {
            0.0
        };
        let alloc_regressed = if b.allocs_per_op <= ALLOC_SLACK {
            n.allocs_per_op > b.allocs_per_op + ALLOC_SLACK
        } else {
            n.allocs_per_op > b.allocs_per_op * (1.0 + threshold)
        };
        let time_regressed = delta > threshold;
        println!(
            "{:<28} {:>14.1} {:>14.1} {:>+8.1}% {:>5.2}->{:<5.2}{}",
            b.name,
            b.median_ns_per_op,
            n.median_ns_per_op,
            delta * 100.0,
            b.allocs_per_op,
            n.allocs_per_op,
            match (time_regressed, alloc_regressed) {
                (true, true) => "  REGRESSION (time + allocs)",
                (true, false) => "  REGRESSION (time)",
                (false, true) => "  REGRESSION (allocs)",
                (false, false) => "",
            }
        );
        if time_regressed {
            regressions.push(format!(
                "'{}' is {:.1}% slower ({:.1} -> {:.1} ns/op host-normalized; threshold {:.0}%)",
                b.name,
                delta * 100.0,
                scaled_base,
                n.median_ns_per_op,
                threshold * 100.0
            ));
        }
        if alloc_regressed {
            regressions.push(format!(
                "'{}' allocates more per op ({:.2} -> {:.2})",
                b.name, b.allocs_per_op, n.allocs_per_op
            ));
        }
    }
    if regressions.is_empty() {
        println!(
            "OK: no row of '{}' regressed past {:.0}% vs {base_path}",
            base.scenario,
            threshold * 100.0
        );
        Ok(())
    } else {
        Err(Failure::Regression(format!(
            "{} regression(s) in scenario '{}':\n  {}",
            regressions.len(),
            base.scenario,
            regressions.join("\n  ")
        )))
    }
}

fn load(path: &str) -> Result<BenchReport, Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Failure::Usage(format!("cannot read {path}: {e}")))?;
    BenchReport::from_json(&text).map_err(|e| Failure::Usage(format!("cannot parse {path}: {e}")))
}
