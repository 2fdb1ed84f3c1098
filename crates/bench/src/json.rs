//! The `BENCH_<scenario>.json` report format.
//!
//! Reports are flat and dependency-free by design (the build
//! environment has no serde): [`BenchReport::to_json`] emits them,
//! [`BenchReport::from_json`] parses them back through the workspace's
//! shared [`Value`] reader, and `ftqc-bench compare` diffs two of them. Schema
//! (`"schema": 1`):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "scenario": "decode-throughput",
//!   "preset": "quick",
//!   "results": [
//!     {
//!       "name": "uf/d3",
//!       "median_ns_per_op": 1532.8,
//!       "ops_per_sec": 652432.1,
//!       "allocs_per_op": 0.0,
//!       "samples": 7
//!     }
//!   ]
//! }
//! ```
//!
//! `median_ns_per_op` is the median across samples of (wall time /
//! ops); `ops_per_sec` is derived from it; `allocs_per_op` is measured
//! with the counting allocator (machine-independent); `samples` is the
//! number of timed repetitions. Unknown keys are ignored on read, so
//! the schema can grow additively.

use ftqc_telemetry::json::{push_json_str, Value};
use std::fmt::Write as _;

/// One measured operation of a scenario (e.g. one decoder at one
/// distance).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable row key, e.g. `"uf/d5"` — what `compare` joins on.
    pub name: String,
    /// Median nanoseconds per operation across samples.
    pub median_ns_per_op: f64,
    /// Operations per second (1e9 / `median_ns_per_op`).
    pub ops_per_sec: f64,
    /// Heap allocations per operation (0 when counting is disabled or
    /// the path is allocation-free).
    pub allocs_per_op: f64,
    /// Timed repetitions the median was taken over.
    pub samples: usize,
}

impl BenchResult {
    /// A result named `name` measured at `median_ns_per_op` with
    /// `allocs_per_op`, over `samples` repetitions.
    pub fn new(
        name: impl Into<String>,
        median_ns_per_op: f64,
        allocs_per_op: f64,
        samples: usize,
    ) -> BenchResult {
        BenchResult {
            name: name.into(),
            ops_per_sec: if median_ns_per_op > 0.0 {
                1e9 / median_ns_per_op
            } else {
                0.0
            },
            median_ns_per_op,
            allocs_per_op,
            samples,
        }
    }
}

/// A full scenario report — what one `BENCH_<scenario>.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Scenario name (also the file-name suffix).
    pub scenario: String,
    /// Preset the scenario ran under (`"quick"` / `"full"`).
    pub preset: String,
    /// ns/op of the fixed synthetic calibration loop on the measuring
    /// host (0 = not measured). `compare` divides new medians by the
    /// calibration ratio before applying its threshold, so a report
    /// from a slower machine is judged against a proportionally
    /// slower baseline instead of failing on hardware alone.
    pub calibration_ns_per_op: f64,
    /// Measured rows.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// Serializes the report (stable key order, two-space indent).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"scenario\": ");
        push_json_str(&mut out, &self.scenario);
        out.push_str(",\n  \"preset\": ");
        push_json_str(&mut out, &self.preset);
        out.push_str(",\n");
        if self.calibration_ns_per_op > 0.0 {
            let cal = fmt_f64(self.calibration_ns_per_op);
            let _ = writeln!(out, "  \"calibration_ns_per_op\": {cal},");
        }
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    {\n      \"name\": ");
            push_json_str(&mut out, &r.name);
            let median = fmt_f64(r.median_ns_per_op);
            let ops = fmt_f64(r.ops_per_sec);
            let allocs = fmt_f64(r.allocs_per_op);
            let sep = if i + 1 == self.results.len() { "" } else { "," };
            let _ = writeln!(out, ",\n      \"median_ns_per_op\": {median},");
            let _ = writeln!(out, "      \"ops_per_sec\": {ops},");
            let _ = writeln!(out, "      \"allocs_per_op\": {allocs},");
            let _ = writeln!(out, "      \"samples\": {}\n    }}{sep}", r.samples);
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report previously produced by
    /// [`to_json`](BenchReport::to_json) (or any JSON matching the
    /// schema; unknown keys are ignored).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = Value::parse(text)?;
        let scenario = doc
            .get_str("scenario")
            .ok_or("missing \"scenario\"")?
            .to_string();
        let preset = doc.get_str("preset").unwrap_or("").to_string();
        let calibration_ns_per_op = doc.get_f64("calibration_ns_per_op").unwrap_or(0.0);
        let rows = doc
            .field("results")
            .and_then(Value::as_array)
            .ok_or("missing \"results\" array")?;
        let mut results = Vec::with_capacity(rows.len());
        for row in rows {
            let name = row.get_str("name").ok_or("row missing \"name\"")?;
            let median = row
                .get_f64("median_ns_per_op")
                .ok_or("row missing \"median_ns_per_op\"")?;
            results.push(BenchResult {
                name: name.to_string(),
                median_ns_per_op: median,
                ops_per_sec: row.get_f64("ops_per_sec").unwrap_or_else(|| {
                    if median > 0.0 {
                        1e9 / median
                    } else {
                        0.0
                    }
                }),
                allocs_per_op: row.get_f64("allocs_per_op").unwrap_or(0.0),
                samples: row.get_f64("samples").unwrap_or(0.0) as usize,
            });
        }
        Ok(BenchReport {
            scenario,
            preset,
            calibration_ns_per_op,
            results,
        })
    }
}

/// Finite floats with enough digits to round-trip; JSON has no
/// infinities, so degenerate measurements serialize as 0.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            scenario: "decode-throughput".into(),
            preset: "quick".into(),
            calibration_ns_per_op: 2.125,
            results: vec![
                BenchResult::new("uf/d3", 1532.812, 0.0, 7),
                BenchResult::new("mwpm/d3", 20711.333, 12.25, 7),
            ],
        }
    }

    #[test]
    fn report_round_trips() {
        let report = sample_report();
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.scenario, report.scenario);
        assert_eq!(parsed.preset, report.preset);
        assert!((parsed.calibration_ns_per_op - report.calibration_ns_per_op).abs() < 1e-3);
        assert_eq!(parsed.results.len(), 2);
        for (a, b) in parsed.results.iter().zip(&report.results) {
            assert_eq!(a.name, b.name);
            assert!((a.median_ns_per_op - b.median_ns_per_op).abs() < 1e-3);
            assert!((a.allocs_per_op - b.allocs_per_op).abs() < 1e-3);
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let text = r#"{
            "schema": 1,
            "scenario": "s",
            "preset": "quick",
            "git": "abc123",
            "results": [
                {"name": "a", "median_ns_per_op": 10.0, "note": "x"}
            ]
        }"#;
        let report = BenchReport::from_json(text).unwrap();
        assert_eq!(report.results[0].name, "a");
        assert!((report.results[0].ops_per_sec - 1e8).abs() < 1.0);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "[1, 2",
            "{\"scenario\": 3, \"results\": []}",
            "{\"scenario\": \"s\"}",
            "{} trailing",
            "{\"scenario\" \"s\"}",
            "{\"scenario\": tru}",
            "{\"scenario\": \"\\x\"}",
            "{\"scenario\": \"s\", \"results\": [1,]}",
        ] {
            assert!(BenchReport::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn strings_escape_cleanly() {
        let report = BenchReport {
            scenario: "quote\"back\\slash".into(),
            preset: "p".into(),
            calibration_ns_per_op: 0.0,
            results: vec![],
        };
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.scenario, report.scenario);
    }

    #[test]
    fn committed_baselines_do_not_drift() {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench-baseline");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|ext| ext != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let report = BenchReport::from_json(&text).unwrap();
            let rewritten = report.to_json();
            let name = path.display();
            assert_eq!(
                BenchReport::from_json(&rewritten).unwrap(),
                report,
                "{name}"
            );
            assert_eq!(rewritten, text, "{name} re-serializes differently");
            checked += 1;
        }
        assert!(checked > 0, "no baselines under {}", dir.display());
    }
}
