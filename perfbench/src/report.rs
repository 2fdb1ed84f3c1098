//! What one benchmark run prints: check lines, metric lines, and the
//! final one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Result of one run: operations attempted and failed, the output
/// checks made, and the metrics measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run performed (shots, round events or merges).
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Records an output check and prints it.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        println!("check  {:<6} {what}", if ok { "ok" } else { "FAILED" });
        self.checks.push((what, ok));
    }

    /// The recorded metrics, in recording order.
    #[cfg(test)]
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Removes and returns the recorded metrics.
    pub fn take_metrics(&mut self) -> Vec<Metric> {
        std::mem::take(&mut self.metrics)
    }

    /// Whether every check passed, no operation failed and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.checks.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit. Values keep all their digits; a non-finite
    /// value (which makes the run incorrect) is written as `null`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Prints every metric on its own line, then the result line last.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("metric {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_with_its_unit() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("setup_s", "s", 0.25);
        r.metric("ops_per_s", "1/s", 1e6);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1000000.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn failures_and_bad_values_make_a_run_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        assert!(r.correct());
        r.metric("x", "s", f64::NAN);
        assert!(!r.correct());
        assert!(r.json().contains("\"value\": null"));
        let mut r = Report {
            attempted: 1,
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
        r.failed = 0;
        r.check("outputs agree", false);
        assert!(!r.correct());
        assert!(!Report::default().correct(), "nothing attempted");
    }
}
