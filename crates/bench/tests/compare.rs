//! The pair gate, driven through the real `ftqc-bench compare DIR`
//! executable: exit 0 clean, 1 flagged, 2 usage.
//!
//! Each test writes `DIR/pair-<i>/{parent,change}/BENCH_s.json` with
//! one or two rows and checks the verdict: a row is flagged when the
//! change is more than 25% slower in more than half the pairs, when it
//! allocates more than the slack over the parent in more than half the
//! pairs, or when it is missing from the change.

use ftqc_bench::{BenchReport, BenchResult};
use std::path::{Path, PathBuf};
use std::process::Output;

/// A fresh directory per test, under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftqc_bench_compare_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes one side of a pair: a report of scenario `s` holding `rows`
/// as `(name, ns/op, allocs/op)`.
fn write_side(dir: &Path, pair: usize, side: &str, rows: &[(&str, f64, f64)]) {
    let dir = dir.join(format!("pair-{pair}")).join(side);
    std::fs::create_dir_all(&dir).unwrap();
    let report = BenchReport {
        scenario: "s".into(),
        preset: "quick".into(),
        results: rows
            .iter()
            .map(|&(name, ns, allocs)| BenchResult::new(name, ns, allocs, 7))
            .collect(),
    };
    std::fs::write(dir.join("BENCH_s.json"), report.to_json()).unwrap();
}

/// Ten pairs of row `a`: the parent at 100 ns/op and 0 allocs/op, the
/// change as `change(pair)` gives it.
fn ten_pairs(tag: &str, change: impl Fn(usize) -> (f64, f64)) -> PathBuf {
    let dir = scratch(tag);
    for pair in 1..=10 {
        write_side(&dir, pair, "parent", &[("a", 100.0, 0.0)]);
        let (ns, allocs) = change(pair);
        write_side(&dir, pair, "change", &[("a", ns, allocs)]);
    }
    dir
}

fn compare(dir: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_ftqc-bench"))
        .arg("compare")
        .arg(dir)
        .output()
        .expect("spawn ftqc-bench")
}

/// `compare`'s exit code and stdout + stderr, for assertion messages;
/// removes `dir` after.
fn verdict(dir: &Path) -> (Option<i32>, String) {
    let out = compare(dir);
    let _ = std::fs::remove_dir_all(dir);
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}

#[test]
fn ten_identical_pairs_are_clean() {
    let (code, text) = verdict(&ten_pairs("identical", |_| (100.0, 0.0)));
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("OK"), "{text}");
}

#[test]
fn one_outlier_pair_is_clean() {
    let dir = ten_pairs("outlier", |pair| {
        (if pair == 4 { 300.0 } else { 100.0 }, 0.0)
    });
    let (code, text) = verdict(&dir);
    assert_eq!(code, Some(0), "{text}");
}

#[test]
fn slower_in_six_of_ten_pairs_is_flagged() {
    let dir = ten_pairs("six", |pair| (if pair <= 6 { 130.0 } else { 100.0 }, 0.0));
    let (code, text) = verdict(&dir);
    assert_eq!(code, Some(1), "{text}");
    assert!(
        text.contains("'s/a': over 1.25x the parent in 6 of 10 pairs"),
        "{text}"
    );
}

#[test]
fn slower_in_five_of_ten_pairs_is_clean() {
    let dir = ten_pairs("five", |pair| {
        (if pair % 2 == 0 { 130.0 } else { 100.0 }, 0.0)
    });
    let (code, text) = verdict(&dir);
    assert_eq!(code, Some(0), "{text}");
}

#[test]
fn allocation_free_row_that_allocates_is_flagged() {
    let (code, text) = verdict(&ten_pairs("allocs", |_| (100.0, 1.0)));
    assert_eq!(code, Some(1), "{text}");
    assert!(
        text.contains("allocs/op up by over 0.5 in 10 of 10 pairs"),
        "{text}"
    );
}

#[test]
fn row_missing_from_the_change_is_flagged() {
    let dir = scratch("missing");
    for pair in 1..=10 {
        write_side(&dir, pair, "parent", &[("a", 100.0, 0.0), ("b", 50.0, 0.0)]);
        write_side(&dir, pair, "change", &[("a", 100.0, 0.0)]);
    }
    let (code, text) = verdict(&dir);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("'s/b': missing from the change"), "{text}");
    assert!(!text.contains("'s/a'"), "{text}");
}

#[test]
fn pair_missing_one_side_is_a_usage_error() {
    let dir = ten_pairs("one-side", |_| (100.0, 0.0));
    std::fs::remove_dir_all(dir.join("pair-3").join("change")).unwrap();
    let (code, text) = verdict(&dir);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("change is missing"), "{text}");
    assert!(!text.contains("panicked"), "{text}");
}
