//! Bit-identity goldens for the arena decoder core.
//!
//! The flat-arena refactor (CSR graph, indexed Dijkstra heap, u32 node
//! arenas) must not change a single correction bit. These tests pin
//! every decoder kind's output over >= 1k randomized syndromes per code
//! distance (d in {3, 5, 11}, seed 2025) against goldens generated from
//! the pre-refactor implementation — the Dijkstra settle order is
//! specified as (distance, node index), so the goldens are a pure
//! function of the decoding graph, not of heap internals. One more
//! section pins union-find on the d = 5 lattice-surgery graph of paper
//! Table 2's Hybrid row, the graph the `surgery-ler` benchmark decodes.
//!
//! Regenerate after an *intentional* behavior change with:
//!
//! ```text
//! cargo test -p ftqc-decoder --test arena_identity --release \
//!     -- --ignored generate_goldens
//! ```

use ftqc_decoder::{Decoder, DecoderKind, DecoderScratch, DecodingGraph};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{sample_batch, DetectorErrorModel};
use ftqc_surface::{LatticeSurgeryConfig, MemoryConfig};
use ftqc_sync::{PolicySpec, SyncContext};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 2025;
const SYNDROMES: usize = 1_000;
const DISTANCES: [u32; 3] = [3, 5, 11];
const SURGERY_DISTANCE: u32 = 5;
const SURGERY_HEADER: &str = "uf surgery-d5 n=1000";

/// Reduced LUT training budget so the sampling-trained kinds stay fast
/// in debug builds; deterministic, so goldens don't care.
const TRAIN_SHOTS: usize = 5_000;
const CAPACITY_BYTES: usize = 64 * 1024;

fn kinds() -> [(&'static str, DecoderKind); 4] {
    [
        ("uf", DecoderKind::UnionFind),
        ("mwpm", DecoderKind::Mwpm),
        (
            "lut",
            DecoderKind::Lut {
                train_shots: TRAIN_SHOTS,
                capacity_bytes: CAPACITY_BYTES,
            },
        ),
        (
            "hierarchical",
            DecoderKind::Hierarchical {
                train_shots: TRAIN_SHOTS,
                capacity_bytes: CAPACITY_BYTES,
            },
        ),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join("arena_goldens.txt")
}

fn memory_circuit(d: u32) -> ftqc_circuit::Circuit {
    let hw = HardwareConfig::ibm();
    CircuitNoiseModel::standard(1e-3, &hw).apply(&MemoryConfig::new(d, d + 1, &hw).build())
}

/// Paper Table 2's Hybrid row at d = 5 (T_P = 1000 ns, T_P' = 1325 ns,
/// tau = 1000 ns, `hybrid:eps=400`, falling back to Active when
/// infeasible), as `LsSetup::surgery_config` builds it.
fn surgery_circuit() -> ftqc_circuit::Circuit {
    let hw = HardwareConfig::ibm();
    let d = SURGERY_DISTANCE;
    let ctx = SyncContext::new(1000.0, 1000.0, 1325.0, d + 1).expect("valid context");
    let mut cfg = LatticeSurgeryConfig::new(d, &hw);
    cfg.plan = PolicySpec::hybrid(400.0)
        .plan(&ctx)
        .or_else(|_| PolicySpec::Active.plan(&ctx))
        .expect("active planning is total");
    cfg.lagging_round_stretch_ns = 325.0;
    CircuitNoiseModel::standard(1e-3, &hw).apply(&cfg.build())
}

/// Half realistic syndromes sampled from the circuit, half random
/// detector subsets. Density is capped lower at large distance so the
/// heavy adversarial cases stay tractable while still pushing MWPM onto
/// its union-find fallback.
fn syndrome_corpus(circuit: &ftqc_circuit::Circuit, num_detectors: u32, d: u32) -> Vec<Vec<u32>> {
    let mut rng = SmallRng::seed_from_u64(SEED ^ u64::from(d));
    let sampled = sample_batch(circuit, SYNDROMES / 2, SEED);
    let max_density = if d >= 11 { 0.05 } else { 0.3 };
    let mut corpus = Vec::with_capacity(SYNDROMES);
    for s in 0..sampled.shots {
        corpus.push(sampled.flagged_detectors(s));
        let density = rng.gen::<f64>() * max_density;
        corpus.push(
            (0..num_detectors)
                .filter(|_| rng.gen_bool(density))
                .collect(),
        );
    }
    corpus.truncate(SYNDROMES);
    corpus
}

/// Decodes the corpus for one (kind, distance) memory config through a
/// reused scratch — the arena hot path — returning the correction
/// stream.
fn corrections(label: &str, kind: DecoderKind, d: u32) -> Vec<u32> {
    corrections_for(label, kind, &memory_circuit(d), d)
}

fn corrections_for(
    label: &str,
    kind: DecoderKind,
    circuit: &ftqc_circuit::Circuit,
    d: u32,
) -> Vec<u32> {
    let (dem, _) = DetectorErrorModel::from_circuit(circuit, true);
    let graph = DecodingGraph::from_dem(&dem);
    let corpus = syndrome_corpus(circuit, graph.num_detectors(), d);
    assert_eq!(corpus.len(), SYNDROMES, "{label}/d{d}: corpus size");
    let decoder = kind.build(circuit, graph, SEED);
    let mut scratch = DecoderScratch::new();
    let mut correction = 0u32;
    corpus
        .iter()
        .map(|syndrome| {
            decoder.decode_into(&mut scratch, syndrome, &mut correction);
            correction
        })
        .collect()
}

/// Renders one config's golden section under `header`.
fn section(header: &str, values: &[u32]) -> String {
    let mut out = format!("## {header}\n");
    for chunk in values.chunks(64) {
        for (i, v) in chunk.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{v:x}");
        }
        out.push('\n');
    }
    out
}

/// Parses the golden file into (header -> corrections).
fn parse_goldens(text: &str) -> std::collections::HashMap<String, Vec<u32>> {
    let mut map = std::collections::HashMap::new();
    let mut key: Option<String> = None;
    let mut values: Vec<u32> = Vec::new();
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("## ") {
            if let Some(k) = key.take() {
                map.insert(k, std::mem::take(&mut values));
            }
            key = Some(header.to_string());
        } else if line.starts_with('#') {
            // file-level comment
        } else if !line.trim().is_empty() {
            for tok in line.split_whitespace() {
                values.push(u32::from_str_radix(tok, 16).expect("hex correction"));
            }
        }
    }
    if let Some(k) = key {
        map.insert(k, values);
    }
    map
}

fn goldens() -> std::collections::HashMap<String, Vec<u32>> {
    let text = std::fs::read_to_string(golden_path())
        .expect("arena_goldens.txt missing; run the ignored generate_goldens test");
    parse_goldens(&text)
}

fn assert_matches(
    goldens: &std::collections::HashMap<String, Vec<u32>>,
    header: &str,
    got: &[u32],
) {
    let want = goldens
        .get(header)
        .unwrap_or_else(|| panic!("golden section '{header}' missing"));
    assert_eq!(got.len(), want.len(), "{header}: corpus size");
    let mismatches: Vec<usize> = (0..got.len()).filter(|&i| got[i] != want[i]).collect();
    assert!(
        mismatches.is_empty(),
        "{header}: {} / {} corrections diverged from pre-refactor goldens \
         (first at syndrome #{}: got {:#x}, want {:#x})",
        mismatches.len(),
        got.len(),
        mismatches[0],
        got[mismatches[0]],
        want[mismatches[0]],
    );
}

fn check_kind(label: &str, kind: DecoderKind) {
    let goldens = goldens();
    for d in DISTANCES {
        let got = corrections(label, kind, d);
        assert_matches(&goldens, &format!("{label} d{d} n={SYNDROMES}"), &got);
    }
}

fn surgery_corrections() -> Vec<u32> {
    corrections_for(
        "uf",
        DecoderKind::UnionFind,
        &surgery_circuit(),
        SURGERY_DISTANCE,
    )
}

#[test]
fn uf_matches_pre_refactor_goldens() {
    check_kind("uf", DecoderKind::UnionFind);
}

#[test]
fn uf_matches_surgery_goldens() {
    assert_matches(&goldens(), SURGERY_HEADER, &surgery_corrections());
}

#[test]
fn mwpm_matches_pre_refactor_goldens() {
    check_kind("mwpm", DecoderKind::Mwpm);
}

#[test]
fn lut_matches_pre_refactor_goldens() {
    let (label, kind) = kinds()[2];
    check_kind(label, kind);
}

#[test]
fn hierarchical_matches_pre_refactor_goldens() {
    let (label, kind) = kinds()[3];
    check_kind(label, kind);
}

/// Regenerates `tests/data/arena_goldens.txt` from the current
/// implementation. Ignored by default: run explicitly (see module docs)
/// only when a behavior change is intentional, and say so in the PR.
#[test]
#[ignore = "writes the golden file; run explicitly to regenerate"]
fn generate_goldens() {
    let mut out = String::from(
        "# Arena decoder bit-identity goldens.\n\
         # One section per (decoder kind, distance); hex corrections of\n\
         # the seeded randomized syndrome corpus (see arena_identity.rs).\n",
    );
    for (label, kind) in kinds() {
        for d in DISTANCES {
            let values = corrections(label, kind, d);
            out.push_str(&section(
                &format!("{label} d{d} n={}", values.len()),
                &values,
            ));
            eprintln!("generated {label}/d{d}");
        }
    }
    out.push_str(&section(SURGERY_HEADER, &surgery_corrections()));
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/data");
    std::fs::write(&path, out).expect("write goldens");
    eprintln!("wrote {}", path.display());
}
