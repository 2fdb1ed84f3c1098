//! Fixture corpus: every diagnostic code fires exactly once on its
//! fixture, the real workspace is clean under both passes, and the
//! `ftqc-analyzer` binary honours `--deny` / `--json` on a seeded
//! violation tree.

use ftqc_analyzer::artifact::{self, DemFile};
use ftqc_analyzer::lints::lint_file;
use ftqc_analyzer::{Code, Manifest};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A manifest that polices every `.rs` fixture on both lists.
fn fixture_manifest() -> Manifest {
    Manifest::parse(
        "[alloc-free]\n\
         alloc_violation.rs\n\
         telemetry_violation.rs\n\
         unsafe_violation.rs\n\
         [telemetry-guarded]\n\
         alloc_violation.rs\n\
         telemetry_violation.rs\n\
         unsafe_violation.rs\n",
    )
    .expect("fixture manifest parses")
}

#[test]
fn each_source_lint_fires_exactly_once() {
    let manifest = fixture_manifest();
    for (file, code) in [
        ("alloc_violation.rs", Code::HotPathAlloc),
        ("telemetry_violation.rs", Code::UnguardedTelemetry),
        ("unsafe_violation.rs", Code::UndocumentedUnsafe),
    ] {
        let diags = lint_file(file, &fixture(file), &manifest);
        assert_eq!(diags.len(), 1, "{file}: {diags:?}");
        assert_eq!(diags[0].code, code, "{file}");
        assert!(diags[0].line > 0, "{file}: diagnostics carry a line");
    }
}

#[test]
fn unlisted_files_only_get_the_unsafe_audit() {
    // The alloc and telemetry lints are manifest-scoped; the unsafe
    // audit applies everywhere.
    let manifest = Manifest::parse("[alloc-free]\n[telemetry-guarded]\n").unwrap();
    assert!(lint_file(
        "alloc_violation.rs",
        &fixture("alloc_violation.rs"),
        &manifest
    )
    .is_empty());
    assert!(lint_file(
        "telemetry_violation.rs",
        &fixture("telemetry_violation.rs"),
        &manifest
    )
    .is_empty());
    let diags = lint_file(
        "unsafe_violation.rs",
        &fixture("unsafe_violation.rs"),
        &manifest,
    );
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::UndocumentedUnsafe);
}

#[test]
fn each_artifact_code_fires_exactly_once() {
    let diags = DemFile::parse("parse_error.dem", &fixture("parse_error.dem")).unwrap_err();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::DemParse);

    let file = DemFile::parse("semantic_error.dem", &fixture("semantic_error.dem")).unwrap();
    let diags = file.validate("semantic_error.dem");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::DemSemantic);

    let file = DemFile::parse("round_error.dem", &fixture("round_error.dem")).unwrap();
    let diags = file.validate("round_error.dem");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::DemRounds);
}

#[test]
fn good_dem_survives_the_full_validation_chain() {
    use ftqc_decoder::Decoder as _;
    let file = DemFile::parse("good.dem", &fixture("good.dem")).unwrap();
    assert!(file.validate("good.dem").is_empty());
    let model = file.to_model();
    let graph = ftqc_decoder::DecodingGraph::from_dem(&model);
    assert!(artifact::validate_graph("good.dem", &model, &graph).is_empty());
    let decoder = ftqc_decoder::UfDecoder::new(graph);
    assert!(artifact::validate_scratch("good.dem", &model, decoder.scratch_capacity()).is_empty());
}

#[test]
fn wrong_scratch_capacity_is_ftqc014() {
    let file = DemFile::parse("good.dem", &fixture("good.dem")).unwrap();
    let model = file.to_model();
    let wrong = ftqc_decoder::ScratchCapacity {
        nodes: 99,
        edges: 1,
        exact_limit: 0,
    };
    let diags = artifact::validate_scratch("good.dem", &model, wrong);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::ScratchCapacity);
}

#[test]
fn short_fused_window_is_ftqc018() {
    let file = DemFile::parse("good.dem", &fixture("good.dem")).unwrap();
    let mut rounds: Vec<(u32, u32)> = file
        .detectors
        .iter()
        .map(|&(_, id, r)| (id, r as u32))
        .collect();
    rounds.sort_unstable();
    let round_of = |d: u32| rounds[d as usize].1;
    let graph = ftqc_decoder::DecodingGraph::from_dem(&file.to_model());
    // good.dem spans two rounds with a cross-round edge: window 2 is
    // the minimum usable fused window, window 1 fires FTQC018 once.
    assert!(artifact::validate_window("good.dem", &graph, round_of, 2).is_empty());
    let diags = artifact::validate_window("good.dem", &graph, round_of, 1);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::WindowDomain);
}

/// The self-check the CI `analyzer` job enforces: both passes over the
/// real workspace report nothing.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let diags = ftqc_analyzer::lint_tree(root).expect("workspace lint runs");
    assert!(diags.is_empty(), "workspace not clean:\n{diags:?}");
}

/// A throwaway tree with one seeded violation per source-lint code.
fn seeded_tree(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ftqc-analyzer-corpus-{tag}-{}", std::process::id()));
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        dir.join(ftqc_analyzer::MANIFEST_FILE),
        "[alloc-free]\nsrc/hot.rs\n[telemetry-guarded]\nsrc/hot.rs\n",
    )
    .unwrap();
    std::fs::write(
        src.join("hot.rs"),
        "pub fn decode() {\n    let v: Vec<u32> = Vec::new();\n    drop(v);\n    \
         ftqc_telemetry::counter(\"x\", 1);\n    unsafe { core::hint::unreachable_unchecked() }\n}\n",
    )
    .unwrap();
    dir
}

#[test]
fn bin_denies_a_seeded_violation_tree() {
    let dir = seeded_tree("deny");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ftqc-analyzer"))
        .args(["lint", "--deny", "--root"])
        .arg(&dir)
        .output()
        .expect("run ftqc-analyzer");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    for code in ["FTQC001", "FTQC002", "FTQC003"] {
        assert!(stdout.contains(code), "missing {code} in: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bin_emits_json_and_allowlist_suppresses() {
    let dir = seeded_tree("json");
    let exe = env!("CARGO_BIN_EXE_ftqc-analyzer");
    let out = std::process::Command::new(exe)
        .args(["lint", "--json", "--root"])
        .arg(&dir)
        .output()
        .expect("run ftqc-analyzer");
    // Without --deny, findings are reported but the exit is 0.
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('['), "json: {stdout}");
    assert!(stdout.contains("\"code\""), "json: {stdout}");

    // Allowlisting every code for the file silences the run entirely.
    std::fs::write(
        dir.join(ftqc_analyzer::ALLOWLIST_FILE),
        "FTQC001 src/hot.rs\nFTQC002 src/hot.rs\nFTQC003 src/hot.rs\n",
    )
    .unwrap();
    let out = std::process::Command::new(exe)
        .args(["lint", "--deny", "--root"])
        .arg(&dir)
        .output()
        .expect("run ftqc-analyzer");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}
