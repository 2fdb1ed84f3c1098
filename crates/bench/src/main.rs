//! `ftqc-bench` — run named perf scenarios, emit `BENCH_*.json`, and
//! gate regressions over parent/change pairs of reports.
//!
//! ```text
//! ftqc-bench list
//! ftqc-bench run [SCENARIO ...] [--preset quick|full] [--out DIR] [--trace-dir DIR]
//! ftqc-bench compare DIR
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
//! medians are for *attribution*, not for gating.
//!
//! `compare` reads `DIR/pair-<i>/{parent,change}/BENCH_*.json`, as
//! `.github/perf-pairs.sh` writes them, and exits 1 when a parent row
//! is missing from the change, or when the change is more than 25%
//! slower, or allocates more than `ALLOC_SLACK` more per op, in more
//! than half the pairs — see DESIGN.md ("The CI gate").

use ftqc_bench::alloc::{counting_enabled, CountingAlloc};
use ftqc_bench::{run_scenario, scenario_names, BenchReport, Preset};
use std::collections::BTreeMap;
use std::path::Path;
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
        "usage:\n  ftqc-bench list\n  ftqc-bench run [SCENARIO ...] [--preset quick|full] [--out DIR] [--trace-dir DIR]\n  ftqc-bench compare DIR\n\nscenarios: {}",
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

/// A pair reads the change as slower when its median exceeds this
/// multiple of the parent's.
const SLOWER: f64 = 1.25;

/// A pair reads the change as allocating more when its allocs/op exceed
/// the parent's by more than this. Counts are exact per binary, so any
/// real increase past the slack shows in every pair; an
/// allocation-free hot path that starts allocating once per op fails.
const ALLOC_SLACK: f64 = 0.5;

/// One row's verdicts over the pairs whose parent reports it.
#[derive(Default)]
struct Tally {
    pairs: usize,
    missing: usize,
    slower: usize,
    allocating: usize,
    /// change / parent median, per pair the row is in both.
    ratios: Vec<f64>,
}

fn cmd_compare(args: &[String]) -> Result<(), Failure> {
    let [dir] = args else {
        return Err(usage());
    };
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read pair directory {dir}: {e}"))?;
    let mut pairs: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("pair-"))
        })
        .collect();
    pairs.sort();
    if pairs.is_empty() {
        return Err(Failure::Usage(format!(
            "no pair-<i> directories under {dir}"
        )));
    }
    let mut rows: BTreeMap<String, Tally> = BTreeMap::new();
    for pair in &pairs {
        let [parent_dir, change_dir] = ["parent", "change"].map(|side| pair.join(side));
        for side in [&parent_dir, &change_dir] {
            if !side.is_dir() {
                return Err(Failure::Usage(format!("{} is missing", side.display())));
            }
        }
        let mut names: Vec<_> = std::fs::read_dir(&parent_dir)
            .map_err(|e| format!("cannot read {}: {e}", parent_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        names.sort();
        for name in names {
            let parent = load(&parent_dir.join(&name))?;
            let change_path = change_dir.join(&name);
            let change = match change_path.exists() {
                true => load(&change_path)?.results,
                false => Vec::new(),
            };
            for p in &parent.results {
                let tally = rows
                    .entry(format!("{}/{}", parent.scenario, p.name))
                    .or_default();
                tally.pairs += 1;
                let Some(c) = change.iter().find(|c| c.name == p.name) else {
                    tally.missing += 1;
                    continue;
                };
                let ratio = if p.median_ns_per_op > 0.0 {
                    c.median_ns_per_op / p.median_ns_per_op
                } else {
                    1.0
                };
                tally.ratios.push(ratio);
                tally.slower += usize::from(ratio > SLOWER);
                tally.allocating += usize::from(c.allocs_per_op > p.allocs_per_op + ALLOC_SLACK);
            }
        }
    }
    let mut regressions = Vec::new();
    println!(
        "{:<44} {:>12} {:>8} {:>9}",
        "row", "median ratio", "slower", "allocs+"
    );
    for (row, tally) in rows {
        let Tally {
            pairs: n,
            missing,
            slower,
            allocating,
            mut ratios,
        } = tally;
        ratios.sort_by(f64::total_cmp);
        let median = ratios.get(ratios.len() / 2).map_or(f64::NAN, |r| *r);
        let mut why = Vec::new();
        if missing > 0 {
            why.push(format!("missing from the change in {missing} of {n} pairs"));
        }
        if 2 * slower > n {
            why.push(format!(
                "over {SLOWER}x the parent in {slower} of {n} pairs"
            ));
        }
        if 2 * allocating > n {
            why.push(format!(
                "allocs/op up by over {ALLOC_SLACK} in {allocating} of {n} pairs"
            ));
        }
        let flag = if why.is_empty() { "" } else { "  REGRESSION" };
        println!("{row:<44} {median:>11.2}x {slower:>5}/{n:<2} {allocating:>6}/{n:<2}{flag}");
        regressions.extend(why.into_iter().map(|w| format!("'{row}': {w}")));
    }
    if regressions.is_empty() {
        println!("OK: no row regressed over {} pairs in {dir}", pairs.len());
        Ok(())
    } else {
        Err(Failure::Regression(format!(
            "{} regression(s) over {} pairs:\n  {}",
            regressions.len(),
            pairs.len(),
            regressions.join("\n  ")
        )))
    }
}

fn load(path: &Path) -> Result<BenchReport, Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(BenchReport::from_json(&text)
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))?)
}
