//! Workspace invariant linter and decode-artifact static validation.
//!
//! The workspace rests on invariants no stock tool checks: hot decode
//! paths must stay allocation-free, telemetry must stay behind the
//! `enabled()` guard on ~40 ns paths, every `unsafe` block must carry
//! its safety argument, and every decode artifact must be well-formed
//! before shots run. The counting-allocator and sanitizer tests catch
//! violations *dynamically* on the inputs they happen to exercise;
//! this crate catches them *statically* at the source.
//!
//! Two passes share one diagnostic engine ([`diag`]):
//!
//! - [`lints`] — source lints over a hand-rolled lexer ([`lexer`]):
//!   hot-path allocation (`FTQC001`), unguarded telemetry
//!   (`FTQC002`), undocumented `unsafe` (`FTQC003`). Obligations come
//!   from the checked-in [`manifest`] (`analyzer.manifest`), accepted
//!   findings from the allowlist (`analyzer.allow`).
//! - [`artifact`] — static validation of decode artifacts: `.dem`
//!   files (`FTQC010`–`FTQC012`), `DecodingGraph` CSR consistency
//!   (`FTQC013`), scratch-capacity cross-checks (`FTQC014`), policy
//!   and workload domains (`FTQC015`/`FTQC016`), QASM parses
//!   (`FTQC017`). Driven by `repro check` and by debug pre-flights in
//!   `EvalPipeline` / `ProgramSchedule::compile`.
//!
//! The CLI entry point is `cargo run -p ftqc-analyzer -- lint --deny`,
//! which CI requires to pass clean on the tree.
//!
//! # Example
//!
//! ```
//! use ftqc_analyzer::{lints, Code, Manifest};
//!
//! let manifest = Manifest::parse("[alloc-free]\nsrc/hot.rs\n").unwrap();
//! let diags = lints::lint_file(
//!     "src/hot.rs",
//!     "fn decode() { let v = Vec::new(); }",
//!     &manifest,
//! );
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code, Code::HotPathAlloc);
//! assert_eq!(diags[0].line, 1);
//! ```

pub mod artifact;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod manifest;

pub use diag::{render_human, render_json, Allowlist, Code, Diagnostic};
pub use manifest::Manifest;

use std::path::Path;

/// Conventional manifest location at the workspace root.
pub const MANIFEST_FILE: &str = "analyzer.manifest";
/// Conventional allowlist location at the workspace root.
pub const ALLOWLIST_FILE: &str = "analyzer.allow";

/// Runs the full source-lint pass over the tree at `root`, loading
/// the manifest from [`MANIFEST_FILE`] and the allowlist (optional)
/// from [`ALLOWLIST_FILE`]. Returns the surviving diagnostics.
///
/// # Errors
///
/// Configuration problems — missing/unparsable manifest, unparsable
/// allowlist, dangling manifest entry, IO failure — are errors, not
/// diagnostics: a broken configuration must fail loudly rather than
/// lint nothing.
pub fn lint_tree(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let manifest_path = root.join(MANIFEST_FILE);
    let manifest_text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let manifest = Manifest::parse(&manifest_text)?;
    let allowlist = match std::fs::read_to_string(root.join(ALLOWLIST_FILE)) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(_) => Allowlist::default(),
    };
    let diags = lints::lint_workspace(root, &manifest).map_err(|e| e.to_string())?;
    Ok(allowlist.filter(diags))
}

/// Debug pre-flight over a decoding graph freshly built from `dem`:
/// panics with the rendered `FTQC013` report if an edge probability is
/// out of range or the CSR arrays are inconsistent. Call sites gate
/// this behind `#[cfg(debug_assertions)]` — release pipelines skip it.
pub fn preflight_graph(
    label: &str,
    dem: &ftqc_sim::DetectorErrorModel,
    graph: &ftqc_decoder::DecodingGraph,
) {
    let diags = artifact::validate_graph(label, dem, graph);
    assert!(
        diags.is_empty(),
        "decoding-graph pre-flight failed:\n{}",
        render_human(&diags)
    );
}

/// Debug pre-flight over a workload's resource estimate: panics with
/// the rendered `FTQC016` report if a parameter is outside its
/// domain.
pub fn preflight_estimate(workload_name: &str, estimate: &ftqc_estimator::LogicalEstimate) {
    let diags = artifact::validate_estimate(workload_name, estimate);
    assert!(
        diags.is_empty(),
        "workload-estimate pre-flight failed:\n{}",
        render_human(&diags)
    );
}
