//! The diagnostic engine shared by the source-lint and artifact
//! passes: stable codes, `file:line` spans, human and JSON rendering,
//! and the allowlist that suppresses accepted findings.

use ftqc_telemetry::json::push_json_str;
use std::fmt;

/// Stable diagnostic codes. `FTQC001..FTQC009` are source lints,
/// `FTQC010..` are artifact-validation findings. Codes are append-only:
/// a code is never renumbered or reused, so allowlists, CI greps and
/// test fixtures stay valid across releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// Allocating construct on a manifest-listed hot path.
    HotPathAlloc,
    /// Telemetry recording call not under an `enabled()` gate in a
    /// manifest-listed hot file.
    UnguardedTelemetry,
    /// `unsafe` block or impl without a `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// DEM file is syntactically malformed.
    DemParse,
    /// DEM file parsed but is semantically invalid (ids out of range,
    /// probabilities outside (0, 1), non-graphlike mechanisms, ...).
    DemSemantic,
    /// Detector round structure is not streamable: round tags must be
    /// contiguous integers and detector ids sorted by round, or
    /// `RoundSchedule` cannot be constructed.
    DemRounds,
    /// `DecodingGraph` CSR arrays are inconsistent, or a merged edge
    /// probability of its DEM is outside (0, 1).
    GraphCsr,
    /// `Decoder::scratch_capacity()` disagrees with the capacity
    /// re-derived independently from the DEM.
    ScratchCapacity,
    /// Policy spec outside its parameter domain (or unparsable).
    PolicyDomain,
    /// Workload / estimate parameter outside its domain.
    WorkloadDomain,
    /// QASM program failed to parse.
    QasmParse,
    /// Fused streaming window too short for the decoding graph: the
    /// window must cover the longest round-spanning edge, or a commit
    /// decides that edge before the round at its far end arrives.
    WindowDomain,
}

impl Code {
    /// The stable textual form, e.g. `"FTQC001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::HotPathAlloc => "FTQC001",
            Code::UnguardedTelemetry => "FTQC002",
            Code::UndocumentedUnsafe => "FTQC003",
            Code::DemParse => "FTQC010",
            Code::DemSemantic => "FTQC011",
            Code::DemRounds => "FTQC012",
            Code::GraphCsr => "FTQC013",
            Code::ScratchCapacity => "FTQC014",
            Code::PolicyDomain => "FTQC015",
            Code::WorkloadDomain => "FTQC016",
            Code::QasmParse => "FTQC017",
            Code::WindowDomain => "FTQC018",
        }
    }

    /// Every defined code, in numeric order.
    pub fn all() -> &'static [Code] {
        &[
            Code::HotPathAlloc,
            Code::UnguardedTelemetry,
            Code::UndocumentedUnsafe,
            Code::DemParse,
            Code::DemSemantic,
            Code::DemRounds,
            Code::GraphCsr,
            Code::ScratchCapacity,
            Code::PolicyDomain,
            Code::WorkloadDomain,
            Code::QasmParse,
            Code::WindowDomain,
        ]
    }

    /// Parses the textual form back into a code.
    pub fn parse(s: &str) -> Option<Code> {
        Code::all().iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a stable code, a `file:line` span and a message.
///
/// `line` is 1-based; line 0 means "whole artifact" (used for findings
/// that have no meaningful line, e.g. a policy-spec string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Path (workspace-relative for source lints) or artifact label
    /// (e.g. `<policy>`).
    pub file: String,
    /// 1-based line, or 0 when the finding spans the whole artifact.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        code: Code,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{} {}: {}", self.code, self.file, self.message)
        } else {
            write!(
                f,
                "{} {}:{}: {}",
                self.code, self.file, self.line, self.message
            )
        }
    }
}

/// Renders diagnostics one per line in the human format
/// `CODE file:line: message`.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Renders diagnostics as a JSON array (hand-rolled on the workspace's
/// shared escaper; no serde). Stable field order: `code`, `file`,
/// `line`, `message`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"code\":");
        push_json_str(&mut out, d.code.as_str());
        out.push_str(",\"file\":");
        push_json_str(&mut out, &d.file);
        out.push_str(",\"line\":");
        out.push_str(&d.line.to_string());
        out.push_str(",\"message\":");
        push_json_str(&mut out, &d.message);
        out.push('}');
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Accepted findings: `CODE path` pairs loaded from an allowlist file.
///
/// File format: one entry per line, `FTQC003 crates/foo/src/bar.rs`;
/// blank lines and `#` comments are ignored. An entry suppresses every
/// diagnostic with that code in that file — allowlisting is per
/// (code, file), not per line, so line churn never invalidates it.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<(Code, String)>,
}

impl Allowlist {
    /// Parses allowlist text; rejects unknown codes and malformed
    /// lines so a typo cannot silently allow everything.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let code = parts.next().unwrap_or("");
            let path = parts.next().unwrap_or("");
            if path.is_empty() || parts.next().is_some() {
                return Err(format!(
                    "allowlist line {}: expected `CODE path`, got `{line}`",
                    idx + 1
                ));
            }
            let code = Code::parse(code)
                .ok_or_else(|| format!("allowlist line {}: unknown code `{code}`", idx + 1))?;
            entries.push((code, path.to_string()));
        }
        Ok(Allowlist { entries })
    }

    /// Whether `d` is suppressed by this allowlist.
    pub fn allows(&self, d: &Diagnostic) -> bool {
        self.entries
            .iter()
            .any(|(code, path)| *code == d.code && *path == d.file)
    }

    /// Drops every allowlisted diagnostic from `diags`.
    pub fn filter(&self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags.into_iter().filter(|d| !self.allows(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_stay_ordered() {
        let mut prev = 0u32;
        for &code in Code::all() {
            assert_eq!(Code::parse(code.as_str()), Some(code));
            let n: u32 = code.as_str()[4..].parse().unwrap();
            assert!(n > prev, "codes must be strictly increasing");
            prev = n;
        }
        assert_eq!(Code::parse("FTQC999"), None);
    }

    #[test]
    fn display_formats_with_and_without_line() {
        let with = Diagnostic::new(Code::HotPathAlloc, "src/a.rs", 12, "no");
        assert_eq!(with.to_string(), "FTQC001 src/a.rs:12: no");
        let whole = Diagnostic::new(Code::PolicyDomain, "<policy>", 0, "bad");
        assert_eq!(whole.to_string(), "FTQC015 <policy>: bad");
    }

    #[test]
    fn json_escapes_specials() {
        let d = Diagnostic::new(Code::DemParse, "a\"b", 1, "tab\there");
        let json = render_json(&[d]);
        assert!(json.contains("\"a\\\"b\""));
        assert!(json.contains("tab\\there"));
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(render_json(&[]).trim(), "[]");
        // Every field reads back exactly through the shared codec.
        let d = Diagnostic::new(Code::QasmParse, "dir\\f.rs", 7, "cr\r nl\n ctl\u{1} é");
        let doc =
            ftqc_telemetry::json::Value::parse(&render_json(std::slice::from_ref(&d))).unwrap();
        let row = &doc.as_array().unwrap()[0];
        assert_eq!(row.get_str("code"), Some("FTQC017"));
        assert_eq!(row.get_str("file"), Some(d.file.as_str()));
        assert_eq!(row.get_f64("line"), Some(7.0));
        assert_eq!(row.get_str("message"), Some(d.message.as_str()));
    }

    #[test]
    fn allowlist_filters_matching_code_and_file() {
        let allow = Allowlist::parse(
            "# comment\n\nFTQC001 src/a.rs # cold constructor\nFTQC003 src/b.rs\n",
        )
        .unwrap();
        let kept = Diagnostic::new(Code::HotPathAlloc, "src/b.rs", 1, "x");
        let dropped = Diagnostic::new(Code::HotPathAlloc, "src/a.rs", 1, "x");
        assert!(!allow.allows(&kept));
        assert!(allow.allows(&dropped));
        let out = allow.filter(vec![kept.clone(), dropped]);
        assert_eq!(out, vec![kept]);
    }

    #[test]
    fn allowlist_rejects_unknown_code_and_bad_arity() {
        assert!(Allowlist::parse("FTQC099 src/a.rs").is_err());
        assert!(Allowlist::parse("FTQC001").is_err());
        assert!(Allowlist::parse("FTQC001 a b").is_err());
    }
}
