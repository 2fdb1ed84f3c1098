//! Bit-identity goldens for fused streaming's mid-shot commits.
//!
//! A fused window that commits before the end of the shot is
//! approximate, so no batch decode can serve as its reference. These
//! goldens pin every [`RoundCommit`] instead — `round`, `correction`,
//! `boundary_defects` and `stitched_edges` — and each shot's final
//! estimate, for union-find, MWPM's subset DP and MWPM forced onto its
//! union-find branch (`with_exact_limit(2)`), on 3d-round memories at
//! d ∈ {3, 5, 7} and the d = 5 lattice-surgery circuit, under
//! `fused(d, 1)`, `fused(2, 0)` and `fused(1, 1)`.
//!
//! Regenerate after an *intentional* behavior change with:
//!
//! ```text
//! cargo test -p ftqc-decoder --test fused_goldens --release \
//!     -- --ignored generate_goldens
//! ```

use ftqc_circuit::Circuit;
use ftqc_decoder::{Decoder, DecodingGraph, MwpmDecoder, RoundCommit, StreamingConfig, UfDecoder};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{sample_batch, DetectorErrorModel, RoundSchedule, RoundStream};
use ftqc_surface::{LatticeSurgeryConfig, MemoryConfig};
use ftqc_sync::{PolicySpec, SyncContext};
use std::fmt::Write as _;
use std::path::PathBuf;

const PHYSICAL_ERROR: f64 = 3e-3;
const SHOTS: usize = 32;
const SEED: u64 = 2025;
const DECODERS: [&str; 3] = ["uf", "mwpm-dp", "mwpm-uf"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join("fused_goldens.txt")
}

/// A 3d-round memory experiment at distance `d`.
fn memory_circuit(d: u32) -> Circuit {
    let hw = HardwareConfig::ibm();
    CircuitNoiseModel::standard(PHYSICAL_ERROR, &hw)
        .apply(&MemoryConfig::new(d, 3 * d, &hw).build())
}

/// Paper Table 2's Hybrid row at d = 5, the circuit `surgery-ler`
/// decodes.
fn surgery_circuit() -> Circuit {
    let hw = HardwareConfig::ibm();
    let d = 5;
    let ctx = SyncContext::new(1000.0, 1000.0, 1325.0, d + 1).expect("valid context");
    let mut cfg = LatticeSurgeryConfig::new(d, &hw);
    cfg.plan = PolicySpec::hybrid(400.0)
        .plan(&ctx)
        .or_else(|_| PolicySpec::Active.plan(&ctx))
        .expect("active planning is total");
    cfg.lagging_round_stretch_ns = 325.0;
    CircuitNoiseModel::standard(PHYSICAL_ERROR, &hw).apply(&cfg.build())
}

/// The circuits under test, labelled, with their code distance.
fn circuits() -> Vec<(&'static str, u32, Circuit)> {
    vec![
        ("memory-d3", 3, memory_circuit(3)),
        ("memory-d5", 5, memory_circuit(5)),
        ("memory-d7", 7, memory_circuit(7)),
        ("surgery-d5", 5, surgery_circuit()),
    ]
}

fn decoder(name: &str, graph: DecodingGraph) -> Box<dyn Decoder> {
    match name {
        "uf" => Box::new(UfDecoder::new(graph)),
        "mwpm-dp" => Box::new(MwpmDecoder::new(graph)),
        "mwpm-uf" => Box::new(MwpmDecoder::new(graph).with_exact_limit(2)),
        _ => unreachable!("unknown decoder {name}"),
    }
}

/// The golden sections of decoder `name`: one per (circuit, config),
/// one line per shot holding its final estimate and then each commit
/// as `round:correction:boundary_defects:stitched_edges`, in hex.
fn sections(name: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (label, d, circuit) in circuits() {
        let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
        let decoder = decoder(name, DecodingGraph::from_dem(&dem));
        let schedule = RoundSchedule::from_circuit(&circuit);
        let batch = sample_batch(&circuit, SHOTS, SEED);
        for (window, overlap) in [(d, 1), (2, 0), (1, 1)] {
            let mut stream =
                StreamingConfig::fused(window, overlap).build(decoder.as_ref(), &schedule);
            let mut rounds = RoundStream::new(&schedule);
            rounds.begin_batch(&batch);
            let mut defects = Vec::new();
            let mut body = String::new();
            for s in 0..batch.shots {
                rounds.begin_shot(s);
                stream.begin_shot();
                let mut commits: Vec<RoundCommit> = Vec::new();
                while rounds.next_round_into(&batch, &mut defects).is_some() {
                    commits.extend(stream.push_round(&defects));
                }
                while let Some(commit) = stream.flush_round() {
                    commits.push(commit);
                }
                let _ = write!(body, "{:x}", stream.finish_shot());
                for c in &commits {
                    let _ = write!(
                        body,
                        " {:x}:{:x}:{:x}:{:x}",
                        c.round, c.correction, c.boundary_defects, c.stitched_edges
                    );
                }
                body.push('\n');
            }
            let header = format!("{name} {label} fused({window},{overlap}) shots={SHOTS}");
            out.push((header, body));
        }
    }
    out
}

/// Parses the golden file into (header -> section body).
fn goldens() -> std::collections::HashMap<String, String> {
    let text = std::fs::read_to_string(golden_path())
        .expect("fused_goldens.txt missing; run the ignored generate_goldens test");
    let mut map = std::collections::HashMap::new();
    let mut key: Option<String> = None;
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("## ") {
            key = Some(header.to_string());
            map.insert(header.to_string(), String::new());
        } else if line.starts_with('#') {
            // file-level comment
        } else if let Some(k) = &key {
            let body: &mut String = map.get_mut(k).expect("section opened");
            body.push_str(line);
            body.push('\n');
        }
    }
    map
}

fn check(name: &str) {
    let goldens = goldens();
    for (header, got) in sections(name) {
        let want = goldens
            .get(&header)
            .unwrap_or_else(|| panic!("golden section '{header}' missing"));
        if let Some((shot, (g, w))) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
        {
            panic!("{header}: shot {shot} diverged\n got: {g}\nwant: {w}");
        }
        assert_eq!(got.lines().count(), want.lines().count(), "{header}: shots");
    }
}

#[test]
fn uf_fused_commits_match_goldens() {
    check("uf");
}

#[test]
fn mwpm_dp_fused_commits_match_goldens() {
    check("mwpm-dp");
}

#[test]
fn mwpm_uf_fused_commits_match_goldens() {
    check("mwpm-uf");
}

/// Regenerates `tests/data/fused_goldens.txt` from the current
/// implementation. Ignored by default: run explicitly (see module docs)
/// only when a behavior change is intentional, and say so in the PR.
#[test]
#[ignore = "writes the golden file; run explicitly to regenerate"]
fn generate_goldens() {
    let mut out = String::from(
        "# Fused streaming bit-identity goldens (see fused_goldens.rs).\n\
         # One section per (decoder, circuit, config); one line per shot:\n\
         # final estimate, then round:correction:boundary_defects:stitched_edges\n\
         # for each commit, in hex.\n",
    );
    for name in DECODERS {
        for (header, body) in sections(name) {
            let _ = writeln!(out, "## {header}");
            out.push_str(&body);
        }
    }
    let path = golden_path();
    std::fs::write(&path, out).expect("write goldens");
    eprintln!("wrote {}", path.display());
}
