//! The repository benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four workloads cover the repository's user paths (see
//! `BENCHMARK.json` and `perfbench/README.md`):
//!
//! * `surgery-ler` — lattice-surgery LER, sample → scan → decode → count;
//! * `idle-sweep` — an adaptive LER-vs-idle curve, set-up and sampling;
//! * `stream-fused` — round → stream → commit through fused decoding;
//! * `program-runtime` — schedule → plan → execute under four policies.
//!
//! With `--trace 0` a run measures the end-to-end metrics with no
//! tracing. With `--trace 1` it replays the same work one layer call at
//! a time under benchmark-side spans and reports the per-layer metrics,
//! a self-time table with a `residual` row, and a Chrome trace. Every
//! run checks its outputs. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod common;
mod program;
mod report;
mod stats;
mod stream;
mod surgery;
mod sweep;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOC: ftqc_bench::alloc::CountingAlloc = ftqc_bench::alloc::CountingAlloc::new();

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &[
    "surgery-ler",
    "idle-sweep",
    "stream-fused",
    "program-runtime",
];

/// `(name, unit)` of every end-to-end metric: what `--trace 0` reports
/// on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("request_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric: what `--trace 1` reports
/// on every workload, 0 where the workload bypasses the layer.
const PER_LAYER: &[(&str, &str)] = &[
    ("share.surface.schedule", "fraction"),
    ("share.noise.lower", "fraction"),
    ("share.sim.dem_extract", "fraction"),
    ("share.decoder.graph_build", "fraction"),
    ("share.decoder.decoder_build", "fraction"),
    ("share.sim.sample", "fraction"),
    ("share.sim.scan", "fraction"),
    ("share.decoder.decode", "fraction"),
    ("share.sim.round_extract", "fraction"),
    ("share.decoder.stream", "fraction"),
    ("share.estimator.workload", "fraction"),
    ("share.estimator.estimate", "fraction"),
    ("share.runtime.compile", "fraction"),
    ("share.runtime.execute", "fraction"),
    ("share.residual", "fraction"),
    ("surface.schedule_ms", "ms"),
    ("noise.lower_ms", "ms"),
    ("sim.dem_extract_ms", "ms"),
    ("decoder.graph_build_ms", "ms"),
    ("decoder.decoder_build_ms", "ms"),
    ("estimator.workload_ms", "ms"),
    ("estimator.estimate_ms", "ms"),
    ("runtime.compile_ms", "ms"),
    ("setup.residual_ms", "ms"),
    ("sim.sample_ns_per_shot", "ns"),
    ("sim.scan_ns_per_shot", "ns"),
    ("decoder.decode_ns_per_call", "ns"),
    ("decoder.nonempty_share", "fraction"),
    ("decoder.defects_per_shot", "count"),
    ("driver.residual_ns_per_shot", "ns"),
    ("driver.parallel_efficiency", "fraction"),
    ("alloc.allocs_per_shot", "count"),
    ("experiments.adaptive_overhead_share", "fraction"),
    ("experiments.speculative_shot_share", "fraction"),
    ("sim.round_extract_ns", "ns"),
    ("decoder.stream_decodes_per_commit", "count"),
    ("decoder.stream_decoding_round_share", "fraction"),
    ("decoder.stream_quiet_round_p50_ns", "ns"),
    ("decoder.stream_decode_round_p50_ns", "ns"),
    ("decoder.stream_decode_round_p99_ns", "ns"),
    ("decoder.stream_overhead_share", "fraction"),
    ("stream.round_p99_ns", "ns"),
    ("stream.deadline_miss_share", "fraction"),
    ("quality.logical_error_rate", "fraction"),
    ("runtime.execute_ns_per_merge.passive", "ns"),
    ("runtime.execute_ns_per_merge.active", "ns"),
    ("runtime.execute_ns_per_merge.hybrid", "ns"),
    ("runtime.execute_ns_per_merge.dynamic-hybrid", "ns"),
    ("runtime.allocs_per_merge.passive", "count"),
    ("runtime.allocs_per_merge.active", "count"),
    ("runtime.allocs_per_merge.hybrid", "count"),
    ("runtime.allocs_per_merge.dynamic-hybrid", "count"),
    ("sync.plan_ns.passive", "ns"),
    ("sync.plan_ns.active", "ns"),
    ("sync.plan_ns.hybrid", "ns"),
    ("sync.plan_ns.dynamic-hybrid", "ns"),
    ("runtime.overhead_percent.passive", "%"),
    ("runtime.overhead_percent.active", "%"),
    ("runtime.overhead_percent.hybrid", "%"),
    ("runtime.overhead_percent.dynamic-hybrid", "%"),
    ("runtime.fallback_share.passive", "fraction"),
    ("runtime.fallback_share.active", "fraction"),
    ("runtime.fallback_share.hybrid", "fraction"),
    ("runtime.fallback_share.dynamic-hybrid", "fraction"),
    ("runtime.extra_rounds_per_merge.passive", "count"),
    ("runtime.extra_rounds_per_merge.active", "count"),
    ("runtime.extra_rounds_per_merge.hybrid", "count"),
    ("runtime.extra_rounds_per_merge.dynamic-hybrid", "count"),
    ("telemetry.trace_overhead_share", "fraction"),
];

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: surgery-ler, idle-sweep, stream-fused, program-runtime";

/// Validated command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace wants 0 or 1, got '{value}'")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Orders `report`'s metrics as declared, fills each declared metric
/// the workload did not measure with 0, and panics on an undeclared
/// one (a bug in the benchmark, caught by the tests).
fn conform(mut report: Report, declared: &[(&str, &'static str)]) -> Report {
    let measured = report.take_metrics();
    for m in &measured {
        assert!(
            declared
                .iter()
                .any(|(name, unit)| *name == m.name && *unit == m.unit),
            "metric {} ({}) is not declared",
            m.name,
            m.unit
        );
    }
    for &(name, unit) in declared {
        let value = measured
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        report.metric(name, unit, value);
    }
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    println!(
        "perfbench {} seed {} for {} s, trace {}, {} threads available",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        let report = match args.workload {
            "surgery-ler" => surgery::trace(args.seed, budget, &path),
            "idle-sweep" => sweep::trace(args.seed, budget, &path),
            "stream-fused" => stream::trace(args.seed, budget, &path),
            _ => program::trace(args.seed, budget, &path),
        };
        conform(report, PER_LAYER)
    } else {
        let report = match args.workload {
            "surgery-ler" => surgery::run(args.seed, budget),
            "idle-sweep" => sweep::run(args.seed, budget),
            "stream-fused" => stream::run(args.seed, budget),
            _ => program::run(args.seed, budget),
        };
        conform(report, END_TO_END)
    };
    report.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&argv(
            "--workload stream-fused --seed 7 --seconds 10 --trace 1",
        ));
        assert_eq!(
            args,
            Ok(Args {
                workload: "stream-fused",
                seed: 7,
                seconds: 10,
                trace: true,
            })
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload idle-sweep",
            "--seed 1",
            "--workload idle-sweep --seed x",
            "--workload idle-sweep --seed 1 --trace 2",
            "--workload idle-sweep --seed 1 --frobnicate 3",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted: {bad}");
        }
    }

    /// The `"name": "<value>"` entries of one array in `BENCHMARK.json`.
    fn declared_names(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|rest| {
                rest.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn every_name_printed_is_declared_in_benchmark_json() {
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(declared_names("workloads"), WORKLOADS);
        assert_eq!(declared_names("end_to_end"), names(END_TO_END));
        assert_eq!(declared_names("per_layer"), names(PER_LAYER));
        let layers: Vec<String> = trace::LAYERS.iter().map(|l| format!("share.{l}")).collect();
        assert!(layers.iter().all(|l| names(PER_LAYER).contains(l)));
    }

    #[test]
    fn conform_orders_and_fills_declared_metrics() {
        let mut r = Report::default();
        r.attempted = 3;
        r.metric("ops_per_s", "1/s", 2.0);
        let out = conform(r, END_TO_END);
        let names: Vec<&str> = out.metrics().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "ops_per_s", "request_p50_us", "peak_rss_mb"]
        );
        assert_eq!(out.metrics()[1].value, 2.0);
        assert_eq!(out.metrics()[0].value, 0.0);
        assert_eq!(out.attempted, 3);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn conform_rejects_undeclared_metrics() {
        let mut r = Report::default();
        r.metric("made_up", "s", 1.0);
        conform(r, END_TO_END);
    }
}
