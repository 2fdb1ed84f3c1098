//! Bit-identity goldens for detector error model extraction.
//!
//! Every circuit family the experiments decode — memory at d in
//! {3, 5, 7} over 1, 3 and d rounds, the 15-round d = 5 memory that
//! streaming benchmarks replay, default lattice surgery at d in
//! {3, 5, 7}, and the d = 5 surgery of paper Table 2's Hybrid row — is
//! extracted in both `decompose` modes. Each extraction is pinned by its
//! mechanism count, its `DemStats` and an FNV-1a digest over every
//! mechanism's detectors, observable mask and probability bits, so any
//! change to the extractor that moves a single probability bit fails
//! here.
//!
//! Regenerate after an *intentional* behavior change with:
//!
//! ```text
//! cargo test --release --test dem_goldens -- --ignored generate_goldens
//! ```

use ftqc::circuit::Circuit;
use ftqc::experiments::LsSetup;
use ftqc::noise::{CircuitNoiseModel, HardwareConfig};
use ftqc::sim::DetectorErrorModel;
use ftqc::surface::{LatticeSurgeryConfig, MemoryConfig};
use ftqc::sync::PolicySpec;
use std::path::PathBuf;

const PHYSICAL_ERROR: f64 = 1e-3;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join("dem_goldens.txt")
}

fn noisy(schedule: &ftqc::circuit::Schedule) -> Circuit {
    CircuitNoiseModel::standard(PHYSICAL_ERROR, &HardwareConfig::ibm()).apply(schedule)
}

fn memory(d: u32, rounds: u32) -> Circuit {
    noisy(&MemoryConfig::new(d, rounds, &HardwareConfig::ibm()).build())
}

fn surgery(d: u32) -> Circuit {
    noisy(&LatticeSurgeryConfig::new(d, &HardwareConfig::ibm()).build())
}

/// Paper Table 2's Hybrid row at d = 5 (T_P = 1000 ns, T_P' = 1325 ns,
/// tau = 1000 ns, `hybrid:eps=400`), the circuit the `surgery-ler`
/// benchmark decodes.
fn table2_hybrid() -> Circuit {
    let hw = HardwareConfig::ibm();
    let mut setup = LsSetup::homogeneous(5, &hw, PolicySpec::hybrid(400.0), 1000.0);
    setup.t_p_ns = 1000.0;
    setup.t_p_prime_ns = 1325.0;
    noisy(&setup.surgery_config().build())
}

/// The pinned circuits, labelled.
fn circuits() -> Vec<(String, Circuit)> {
    let mut out = Vec::new();
    for d in [3, 5, 7] {
        let mut rounds = vec![1, 3, d];
        rounds.dedup();
        for r in rounds {
            out.push((format!("memory-d{d}-r{r}"), memory(d, r)));
        }
    }
    out.push(("memory-d5-r15".to_string(), memory(5, 15)));
    for d in [3, 5, 7] {
        out.push((format!("surgery-d{d}"), surgery(d)));
    }
    out.push(("table2-hybrid-d5".to_string(), table2_hybrid()));
    out
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One golden line: the extraction's size, statistics and digest.
fn golden_line(label: &str, circuit: &Circuit, decompose: bool) -> String {
    let (dem, stats) = DetectorErrorModel::from_circuit(circuit, decompose);
    let mut digest = Fnv::new();
    for m in dem.mechanisms() {
        digest.bytes(&(m.detectors.len() as u32).to_le_bytes());
        for &d in &m.detectors {
            digest.bytes(&d.to_le_bytes());
        }
        digest.bytes(&m.observables.to_le_bytes());
        digest.bytes(&m.probability.to_bits().to_le_bytes());
    }
    format!(
        "{label} decompose={} mechanisms={} components={} decomposed={} dropped={} digest={:016x}",
        u8::from(decompose),
        dem.mechanisms().len(),
        stats.components,
        stats.decomposed_hyperedges,
        stats.dropped_hyperedges,
        digest.0,
    )
}

fn check(decompose: bool) {
    let text = std::fs::read_to_string(golden_path())
        .expect("dem_goldens.txt missing; run the ignored generate_goldens test");
    let want: Vec<&str> = text
        .lines()
        .filter(|l| {
            !l.starts_with('#') && l.contains(&format!(" decompose={} ", u8::from(decompose)))
        })
        .collect();
    let got: Vec<String> = circuits()
        .iter()
        .map(|(label, c)| golden_line(label, c, decompose))
        .collect();
    assert_eq!(got.len(), want.len(), "golden line count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "DEM diverged from the golden");
    }
}

#[test]
fn decomposed_dems_match_goldens() {
    check(true);
}

#[test]
fn undecomposed_dems_match_goldens() {
    check(false);
}

/// `DemStats::forced_observable_splits` on the default circuits: the
/// d = 3 graphs carry forced splits (ROADMAP item 1), d >= 5 graphs none.
#[test]
fn forced_observable_splits_are_confined_to_d3() {
    let forced = |c: &Circuit| {
        DetectorErrorModel::from_circuit(c, true)
            .1
            .forced_observable_splits
    };
    assert_eq!(forced(&memory(3, 3)), 83, "memory d3 x 3");
    assert_eq!(forced(&surgery(3)), 272, "surgery d3");
    for d in [5, 7] {
        for rounds in [1, 2, 3, 6, d] {
            assert_eq!(forced(&memory(d, rounds)), 0, "memory d{d} x {rounds}");
        }
        assert_eq!(forced(&surgery(d)), 0, "surgery d{d}");
    }
}

/// Regenerates `tests/data/dem_goldens.txt` from the current
/// implementation. Ignored by default: run explicitly (see module docs)
/// only when a behavior change is intentional, and say so in the PR.
#[test]
#[ignore = "writes the golden file; run explicitly to regenerate"]
fn generate_goldens() {
    let mut out = String::from(
        "# Detector error model bit-identity goldens.\n\
         # One line per (circuit, decompose mode): mechanism count, DemStats\n\
         # and an FNV-1a digest of the mechanisms (see dem_goldens.rs).\n",
    );
    for decompose in [true, false] {
        for (label, circuit) in circuits() {
            out.push_str(&golden_line(&label, &circuit, decompose));
            out.push('\n');
        }
    }
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/data");
    std::fs::write(&path, out).expect("write goldens");
    eprintln!("wrote {}", path.display());
}
