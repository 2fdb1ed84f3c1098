//! Counting-allocator gate on detector error model extraction, the
//! largest set-up cost of every pipeline that decodes.
//!
//! Extraction tracks each qubit's sensitivity as an inline detector set
//! and merges components into fixed-key tables as it sweeps, so the
//! heap is touched about once per *output* mechanism (its detector
//! list) plus a few table growths — not once per component. The bound
//! of 2 allocations per mechanism is machine-independent, unlike a
//! timing gate, and a record-set sweep that allocates per component
//! (hundreds per mechanism) fails it.

use ftqc_bench::alloc::{thread_allocation_count, CountingAlloc};
use ftqc_circuit::Circuit;
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::DetectorErrorModel;
use ftqc_surface::{LatticeSurgeryConfig, MemoryConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const MAX_ALLOCS_PER_MECHANISM: f64 = 2.0;

fn noisy(schedule: &ftqc_circuit::Schedule) -> Circuit {
    CircuitNoiseModel::standard(1e-3, &HardwareConfig::ibm()).apply(schedule)
}

/// Extracts `circuit`'s decomposed model, asserting it allocates at most
/// [`MAX_ALLOCS_PER_MECHANISM`] times per output mechanism.
fn assert_extraction_allocs(label: &str, circuit: &Circuit) {
    let before = thread_allocation_count();
    let (dem, stats) = DetectorErrorModel::from_circuit(circuit, true);
    let allocs = thread_allocation_count() - before;
    let mechanisms = dem.mechanisms().len();
    assert!(stats.decomposed_hyperedges > 0, "{label}: want hyperedges");
    let per_mechanism = allocs as f64 / mechanisms as f64;
    assert!(
        per_mechanism <= MAX_ALLOCS_PER_MECHANISM,
        "{label}: {allocs} allocations for {mechanisms} mechanisms \
         ({per_mechanism:.2} per mechanism, bound {MAX_ALLOCS_PER_MECHANISM})"
    );
}

#[test]
fn surgery_d5_extraction_allocates_per_mechanism_not_per_component() {
    let circuit = noisy(&LatticeSurgeryConfig::new(5, &HardwareConfig::ibm()).build());
    assert_extraction_allocs("surgery d5", &circuit);
}

#[test]
fn memory_d5_15_rounds_extraction_allocates_per_mechanism_not_per_component() {
    let circuit = noisy(&MemoryConfig::new(5, 15, &HardwareConfig::ibm()).build());
    assert_extraction_allocs("memory d5 x 15", &circuit);
}
