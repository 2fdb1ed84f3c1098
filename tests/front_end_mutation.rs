//! Malformed text never panics: every text front-end of the facade,
//! fed token-level mutations of a valid document, returns `Ok` or
//! `Err`.
//!
//! One mutator serves every format. It splits a seed document into
//! tokens, then deletes, substitutes, inserts or duplicates a few of
//! them, and parses the text after every edit. The front-ends are
//! `Circuit::parse`, `Program::parse` then `analyze`, `PolicySpec`'s
//! `FromStr`, `DemFile::parse` then `validate` then `to_model` (only
//! on a clean `validate`, as `repro check` does), and the telemetry
//! JSON reader.

use ftqc::analyzer::artifact::DemFile;
use ftqc::circuit::Circuit;
use ftqc::noise::{CircuitNoiseModel, HardwareConfig};
use ftqc::qasm::Program;
use ftqc::surface::MemoryConfig;
use ftqc::sync::PolicySpec;
use ftqc::telemetry::json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Splices the mutator inserts or substitutes: structure and
/// delimiters of every format, closers before openers, line breaks,
/// broken strings, and numbers the formats cannot hold (negative,
/// non-finite, past `u64`). No splice is a large valid count, so a
/// mutant never asks for a huge allocation.
const SPLICES: [&str; 26] = [
    "(",
    ")",
    "[",
    "]",
    ")(",
    "][",
    "{",
    "}",
    ",",
    ";",
    ":",
    "=",
    "\"",
    "\n",
    " ",
    "#",
    "*",
    "/",
    "-",
    "0",
    "-1",
    "1e999",
    "-1e400",
    "NaN",
    "pi",
    "18446744073709551616",
];

/// Splits text into tokens: whole strings (escapes included), runs of
/// number and keyword characters, runs of whitespace, and single
/// punctuation characters. Joining the tokens restores the text, so
/// line-based formats keep their line structure.
fn tokens(text: &str) -> Vec<String> {
    let word = |c: &char| c.is_ascii_alphanumeric() || "+-._".contains(*c);
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        let mut token = c.to_string();
        if c == '"' {
            while let Some(c) = chars.next() {
                token.push(c);
                match c {
                    '\\' => token.extend(chars.next()),
                    '"' => break,
                    _ => {}
                }
            }
        } else if word(&c) {
            while let Some(c) = chars.next_if(word) {
                token.push(c);
            }
        } else if c.is_whitespace() {
            while let Some(c) = chars.next_if(|c| c.is_whitespace()) {
                token.push(c);
            }
        }
        out.push(token);
    }
    out
}

/// The texts `edits` make of `seed`, one after each edit.
fn mutants(seed: &str, edits: &[(usize, usize, u8)]) -> Vec<String> {
    let mut toks = tokens(seed);
    let mut out = Vec::new();
    for &(at, splice, op) in edits {
        let at = at % toks.len().max(1);
        match op {
            _ if toks.is_empty() => toks.push(SPLICES[splice].to_string()),
            0 => {
                toks.remove(at);
            }
            1 => toks[at] = SPLICES[splice].to_string(),
            2 => toks.insert(at, SPLICES[splice].to_string()),
            _ => toks.insert(at, toks[at].clone()),
        }
        out.push(toks.concat());
    }
    out
}

/// Calls `front` on every mutant of `seed`; fails on the first panic.
fn assert_mutants_never_panic(
    seed: &str,
    edits: &[(usize, usize, u8)],
    front: impl Fn(&str),
) -> Result<(), proptest::test_runner::TestCaseError> {
    for text in mutants(seed, edits) {
        let outcome = catch_unwind(AssertUnwindSafe(|| front(&text)));
        proptest::prop_assert!(outcome.is_ok(), "panicked on:\n{}", text);
    }
    Ok(())
}

/// Up to five edits: `(token position, splice, operation)`.
fn edits() -> impl proptest::strategy::Strategy<Value = Vec<(usize, usize, u8)>> {
    proptest::collection::vec((0usize..1 << 16, 0usize..SPLICES.len(), 0u8..4), 1..6)
}

/// A noisy d = 3, one-round memory circuit in the text format.
fn circuit_seed() -> String {
    let hw = HardwareConfig::ibm();
    CircuitNoiseModel::standard(1e-3, &hw)
        .apply(&MemoryConfig::new(3, 1, &hw).build())
        .to_string()
}

/// A QASM program with registers, a broadcast, a parameterised gate
/// (`cp(pi/4)`, so a mutant can lose its angle) and measurements.
const QASM_SEED: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n// a comment\nqreg q[3];\ncreg c[3];\nh q;\ncp(pi/4) q[1], q[0];\nrz(-3*pi/8) q[2];\nu3(0.1,0.2,0.3) q[0];\nccx q[0], q[1], q[2];\nbarrier q;\nmeasure q[0] -> c[0];\n";

/// Policy specs covering bare names and every parameter list.
const POLICY_SEEDS: [&str; 4] = [
    "passive",
    "active-intra",
    "hybrid:eps=400,max=5",
    "dynamic-hybrid:eps=400,floor=50,q=0.25,max=5,deep=25",
];

/// A valid toy model: four detectors over two rounds.
const DEM_SEED: &str = "# toy model\ndem 4 1\ndetector 0 0 0 0\ndetector 1 1 0 0\ndetector 2 0 0 1\ndetector 3 1 0 1\nerror 0.01 D0\nerror 0.02 D0 D1\nerror 0.01 D1 L0\nerror 0.02 D0 D2\nerror 0.02 D1 D3\nerror 0.01 D2 D3\nerror 0.01 D3 L0\n";

/// A document with every JSON value kind, escapes included.
const JSON_SEED: &str = r#"{"version": 1, "name": "a\"b\\cé", "entries": {"k": {"trials": 40960, "failures": [12, 3, 9]}}, "rate": -1.5e-3, "ok": true, "none": null, "list": [[], {}, false]}"#;

#[test]
fn seeds_are_valid_and_tokens_rejoin_to_them() {
    let circuit = circuit_seed();
    assert!(Circuit::parse(&circuit).is_ok());
    Program::parse(QASM_SEED).unwrap().analyze(1e-10);
    for spec in POLICY_SEEDS {
        assert!(spec.parse::<PolicySpec>().is_ok(), "{spec}");
    }
    let dem = DemFile::parse("seed", DEM_SEED).unwrap();
    assert!(dem.validate("seed").is_empty());
    assert!(Value::parse(JSON_SEED).is_ok());
    for seed in [&circuit[..], QASM_SEED, DEM_SEED, JSON_SEED]
        .into_iter()
        .chain(POLICY_SEEDS)
    {
        assert_eq!(tokens(seed).concat(), seed);
    }
}

#[test]
fn qasm_corpus_reaches_the_angle_count_error() {
    // The same deterministic corpus `qasm_mutants_parse_or_error`
    // draws: some mutants give a known gate the wrong number of angles.
    use proptest::strategy::Strategy;
    let mut rng = proptest::test_runner::TestRng::deterministic();
    let reached = (0..proptest::test_runner::CASES)
        .flat_map(|_| mutants(QASM_SEED, &edits().sample(&mut rng)))
        .filter(|text| Program::parse(text).is_err_and(|e| e.to_string().contains("angle(s), got")))
        .count();
    assert!(reached > 0, "no mutant reached the angle-count error");
}

proptest::proptest! {
    #[test]
    fn circuit_mutants_parse_or_error(edits in edits()) {
        let seed = circuit_seed();
        assert_mutants_never_panic(&seed, &edits, |text| {
            let _ = Circuit::parse(text);
        })?;
    }

    #[test]
    fn qasm_mutants_parse_or_error(edits in edits()) {
        assert_mutants_never_panic(QASM_SEED, &edits, |text| {
            if let Ok(program) = Program::parse(text) {
                program.analyze(1e-10);
            }
        })?;
    }

    #[test]
    fn policy_mutants_parse_or_error(seed in 0usize..POLICY_SEEDS.len(), edits in edits()) {
        assert_mutants_never_panic(POLICY_SEEDS[seed], &edits, |text| {
            let _ = text.parse::<PolicySpec>();
        })?;
    }

    #[test]
    fn dem_mutants_parse_or_error(edits in edits()) {
        assert_mutants_never_panic(DEM_SEED, &edits, |text| {
            if let Ok(file) = DemFile::parse("mutant", text) {
                if file.validate("mutant").is_empty() {
                    file.to_model();
                }
            }
        })?;
    }

    #[test]
    fn json_mutants_parse_or_error(edits in edits()) {
        assert_mutants_never_panic(JSON_SEED, &edits, |text| {
            let _ = Value::parse(text);
        })?;
    }
}
