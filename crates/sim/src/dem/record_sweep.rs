//! The record-space sensitivity sweep that `Extractor` replaced, kept
//! as the reference the detector-space sweep must reproduce bit for
//! bit.
//!
//! It tracks each qubit's sensitivity as the set of measurement records
//! an error would flip, maps every component to detectors as it is
//! emitted, and feeds them in emission order through the production
//! [`Merger`], so it checks the sweep alone. It assumes every detector
//! lists distinct records.

use super::{DemStats, DetectorErrorModel, Merger};
use ftqc_circuit::{Circuit, Op, Qubit};

/// Extracts `circuit`'s model the way the record-space sweep did.
pub(super) fn from_circuit(circuit: &Circuit, decompose: bool) -> (DetectorErrorModel, DemStats) {
    Extractor::new(circuit).extract(decompose)
}

/// Sorted-vec symmetric difference (XOR of sets).
pub(super) fn symdiff(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

struct Extractor<'a> {
    circuit: &'a Circuit,
    /// Records flipped by an X error on qubit q at the current (reverse)
    /// position.
    eff_x: Vec<Vec<u32>>,
    /// Records flipped by a Z error on qubit q.
    eff_z: Vec<Vec<u32>>,
    /// For each record: detectors containing it.
    rec_to_dets: Vec<Vec<u32>>,
    /// For each record: observable bitmask.
    rec_to_obs: Vec<u32>,
}

impl<'a> Extractor<'a> {
    fn new(circuit: &'a Circuit) -> Extractor<'a> {
        let n = circuit.num_qubits() as usize;
        let nrec = circuit.num_measurements() as usize;
        let mut rec_to_dets = vec![Vec::new(); nrec];
        let mut rec_to_obs = vec![0u32; nrec];
        let mut det = 0u32;
        for op in circuit.ops() {
            match op {
                Op::Detector { records, .. } => {
                    for r in records {
                        rec_to_dets[r.0 as usize].push(det);
                    }
                    det += 1;
                }
                Op::ObservableInclude {
                    observable,
                    records,
                } => {
                    assert!(
                        *observable < 32,
                        "at most 32 observables supported, got index {observable}"
                    );
                    for r in records {
                        rec_to_obs[r.0 as usize] ^= 1u32 << observable;
                    }
                }
                _ => {}
            }
        }
        Extractor {
            circuit,
            eff_x: vec![Vec::new(); n],
            eff_z: vec![Vec::new(); n],
            rec_to_dets,
            rec_to_obs,
        }
    }

    fn extract(mut self, decompose: bool) -> (DetectorErrorModel, DemStats) {
        let mut stats = DemStats::default();
        let mut merger = Merger::new(decompose);
        // Walk records backward: assign indices by pre-scanning.
        let mut next_record = self.circuit.num_measurements();
        let ops: Vec<&Op> = self.circuit.ops().iter().collect();
        for op in ops.into_iter().rev() {
            match op {
                Op::H(qs) => {
                    for &q in qs {
                        let q = q as usize;
                        let (x, z) = (
                            std::mem::take(&mut self.eff_x[q]),
                            std::mem::take(&mut self.eff_z[q]),
                        );
                        self.eff_x[q] = z;
                        self.eff_z[q] = x;
                    }
                }
                Op::S(qs) => {
                    // X -> Y = X*Z after the gate, so the effect of an X
                    // inserted before S is effX xor effZ.
                    for &q in qs {
                        let q = q as usize;
                        self.eff_x[q] = symdiff(&self.eff_x[q], &self.eff_z[q]);
                    }
                }
                Op::X(_) | Op::Y(_) | Op::Z(_) => {}
                Op::Cx(pairs) => {
                    for &(c, t) in pairs {
                        let (c, t) = (c as usize, t as usize);
                        // X_c -> X_c X_t; Z_t -> Z_c Z_t.
                        self.eff_x[c] = symdiff(&self.eff_x[c], &self.eff_x[t]);
                        self.eff_z[t] = symdiff(&self.eff_z[t], &self.eff_z[c]);
                    }
                }
                Op::ResetZ(qs) | Op::ResetX(qs) => {
                    for &q in qs {
                        self.eff_x[q as usize].clear();
                        self.eff_z[q as usize].clear();
                    }
                }
                Op::MeasureZ {
                    qubits,
                    flip_probability,
                } => {
                    for &q in qubits.iter().rev() {
                        next_record -= 1;
                        stats.components += 1;
                        self.measure_update(q, next_record, MeasKind::Z, false);
                        self.emit_flip(&mut merger, *flip_probability, next_record);
                    }
                }
                Op::MeasureX {
                    qubits,
                    flip_probability,
                } => {
                    for &q in qubits.iter().rev() {
                        next_record -= 1;
                        stats.components += 1;
                        self.measure_update(q, next_record, MeasKind::X, false);
                        self.emit_flip(&mut merger, *flip_probability, next_record);
                    }
                }
                Op::MeasureReset {
                    qubits,
                    flip_probability,
                } => {
                    for &q in qubits.iter().rev() {
                        next_record -= 1;
                        stats.components += 1;
                        self.measure_update(q, next_record, MeasKind::Z, true);
                        self.emit_flip(&mut merger, *flip_probability, next_record);
                    }
                }
                Op::PauliChannel { qubits, px, py, pz } => {
                    for &q in qubits {
                        let q = q as usize;
                        stats.components += 3;
                        if *px > 0.0 {
                            self.emit(&mut merger, *px, self.eff_x[q].clone());
                        }
                        if *py > 0.0 {
                            let recs = symdiff(&self.eff_x[q], &self.eff_z[q]);
                            self.emit(&mut merger, *py, recs);
                        }
                        if *pz > 0.0 {
                            self.emit(&mut merger, *pz, self.eff_z[q].clone());
                        }
                    }
                }
                Op::Depolarize1 { qubits, p } => {
                    let pc = p / 3.0;
                    for &q in qubits {
                        let q = q as usize;
                        stats.components += 3;
                        if pc > 0.0 {
                            self.emit(&mut merger, pc, self.eff_x[q].clone());
                            self.emit(&mut merger, pc, symdiff(&self.eff_x[q], &self.eff_z[q]));
                            self.emit(&mut merger, pc, self.eff_z[q].clone());
                        }
                    }
                }
                Op::Depolarize2 { pairs, p } => {
                    let pc = p / 15.0;
                    if pc <= 0.0 {
                        continue;
                    }
                    for &(a, b) in pairs {
                        stats.components += 15;
                        for code in 1u8..16 {
                            let recs_a = self.pauli_records(a, code >> 2);
                            let recs_b = self.pauli_records(b, code & 3);
                            self.emit(&mut merger, pc, symdiff(&recs_a, &recs_b));
                        }
                    }
                }
                Op::Detector { .. } | Op::ObservableInclude { .. } => {}
            }
        }
        debug_assert_eq!(next_record, 0, "record bookkeeping drift");

        let mechanisms = merger.finish(&mut stats);
        (
            DetectorErrorModel {
                num_detectors: self.circuit.num_detectors() as usize,
                num_observables: self.circuit.num_observables() as usize,
                mechanisms,
            },
            stats,
        )
    }

    /// Records flipped by Pauli `code` (0=I,1=X,2=Y,3=Z) on qubit `q`.
    fn pauli_records(&self, q: Qubit, code: u8) -> Vec<u32> {
        let q = q as usize;
        match code {
            0 => Vec::new(),
            1 => self.eff_x[q].clone(),
            2 => symdiff(&self.eff_x[q], &self.eff_z[q]),
            _ => self.eff_z[q].clone(),
        }
    }

    /// A classical readout flip of `record` with probability `p` is an
    /// error mechanism of its own.
    fn emit_flip(&self, merger: &mut Merger, p: f64, record: u32) {
        if p > 0.0 {
            self.emit(merger, p, vec![record]);
        }
    }

    fn measure_update(&mut self, q: Qubit, record: u32, kind: MeasKind, reset: bool) {
        let q = q as usize;
        match kind {
            MeasKind::Z => {
                // An X error before MZ flips the record; it survives the
                // measurement unless there is a reset. A Z error before
                // MZ neither flips nor survives.
                if reset {
                    self.eff_x[q] = vec![record];
                } else {
                    self.eff_x[q] = symdiff(&self.eff_x[q], &[record]);
                }
                self.eff_z[q].clear();
            }
            MeasKind::X => {
                if reset {
                    self.eff_z[q] = vec![record];
                } else {
                    self.eff_z[q] = symdiff(&self.eff_z[q], &[record]);
                }
                self.eff_x[q].clear();
            }
        }
    }

    /// Maps `records` to the detectors and observables they flip and
    /// hands the component to the merger.
    fn emit(&self, merger: &mut Merger, p: f64, records: Vec<u32>) {
        let mut dets: Vec<u32> = Vec::new();
        let mut obs = 0u32;
        for r in records {
            dets = symdiff(&dets, &self.rec_to_dets[r as usize]);
            obs ^= self.rec_to_obs[r as usize];
        }
        merger.emit(p, &dets, obs);
    }
}

enum MeasKind {
    X,
    Z,
}
