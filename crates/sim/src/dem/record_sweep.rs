//! The record-space sensitivity sweep that `Extractor` replaced, kept
//! as the reference the detector-space sweep must reproduce bit for
//! bit.
//!
//! It tracks each qubit's sensitivity as the set of measurement records
//! an error would flip, and maps every emitted component to detectors
//! afterwards. It assumes every detector lists distinct records.

use super::{DemStats, DetectorErrorModel, Mechanism};
use ftqc_circuit::{Circuit, Op, Qubit};
use std::collections::HashMap;

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

#[derive(Debug)]
struct RawComponent {
    probability: f64,
    detectors: Vec<u32>,
    observables: u32,
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
        let mut raw: Vec<RawComponent> = Vec::new();
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
                        self.emit_flip(&mut raw, *flip_probability, next_record);
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
                        self.emit_flip(&mut raw, *flip_probability, next_record);
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
                        self.emit_flip(&mut raw, *flip_probability, next_record);
                    }
                }
                Op::PauliChannel { qubits, px, py, pz } => {
                    for &q in qubits {
                        let q = q as usize;
                        stats.components += 3;
                        if *px > 0.0 {
                            self.emit(&mut raw, *px, self.eff_x[q].clone());
                        }
                        if *py > 0.0 {
                            let recs = symdiff(&self.eff_x[q], &self.eff_z[q]);
                            self.emit(&mut raw, *py, recs);
                        }
                        if *pz > 0.0 {
                            self.emit(&mut raw, *pz, self.eff_z[q].clone());
                        }
                    }
                }
                Op::Depolarize1 { qubits, p } => {
                    let pc = p / 3.0;
                    for &q in qubits {
                        let q = q as usize;
                        stats.components += 3;
                        if pc > 0.0 {
                            self.emit(&mut raw, pc, self.eff_x[q].clone());
                            self.emit(&mut raw, pc, symdiff(&self.eff_x[q], &self.eff_z[q]));
                            self.emit(&mut raw, pc, self.eff_z[q].clone());
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
                            self.emit(&mut raw, pc, symdiff(&recs_a, &recs_b));
                        }
                    }
                }
                Op::Detector { .. } | Op::ObservableInclude { .. } => {}
            }
        }
        debug_assert_eq!(next_record, 0, "record bookkeeping drift");

        // Map raw record-sets to detector sets via symmetric difference,
        // then merge / decompose.
        let merged = self.merge(raw, decompose, &mut stats);
        (
            DetectorErrorModel {
                num_detectors: self.circuit.num_detectors() as usize,
                num_observables: self.circuit.num_observables() as usize,
                mechanisms: merged,
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
    fn emit_flip(&self, raw: &mut Vec<RawComponent>, p: f64, record: u32) {
        if p > 0.0 {
            self.emit(raw, p, vec![record]);
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

    fn emit(&self, raw: &mut Vec<RawComponent>, p: f64, records: Vec<u32>) {
        if records.is_empty() {
            return;
        }
        let mut dets: Vec<u32> = Vec::new();
        let mut obs = 0u32;
        for r in records {
            dets = symdiff(&dets, &self.rec_to_dets[r as usize]);
            obs ^= self.rec_to_obs[r as usize];
        }
        if dets.is_empty() && obs == 0 {
            return;
        }
        raw.push(RawComponent {
            probability: p,
            detectors: dets,
            observables: obs,
        });
    }

    fn merge(
        &self,
        raw: Vec<RawComponent>,
        decompose: bool,
        stats: &mut DemStats,
    ) -> Vec<Mechanism> {
        let mut map: HashMap<(Vec<u32>, u32), f64> = HashMap::new();
        let mut add = |dets: Vec<u32>, obs: u32, p: f64| {
            let e = map.entry((dets, obs)).or_insert(0.0);
            // Two ways to produce the same flip pattern combine as
            // "exactly one occurs".
            *e = *e * (1.0 - p) + p * (1.0 - *e);
        };
        if !decompose {
            for c in raw {
                add(c.detectors, c.observables, c.probability);
            }
        } else {
            // First pass: everything graphlike goes in directly and
            // registers as an elementary edge.
            let mut elementary: Vec<(Vec<u32>, u32)> = Vec::new();
            let mut pending: Vec<RawComponent> = Vec::new();
            for c in raw {
                if c.detectors.len() <= 2 {
                    elementary.push((c.detectors.clone(), c.observables));
                    add(c.detectors, c.observables, c.probability);
                } else {
                    pending.push(c);
                }
            }
            use std::collections::HashSet;
            let edge_set: HashSet<Vec<u32>> = elementary.iter().map(|(d, _)| d.clone()).collect();
            let obs_for: HashMap<Vec<u32>, u32> =
                elementary.iter().map(|(d, o)| (d.clone(), *o)).collect();
            for c in pending {
                stats.decomposed_hyperedges += 1;
                match decompose_against(&c.detectors, &edge_set) {
                    Some(parts) => {
                        // Distribute observables: assign the component's
                        // observable mask XOR of the parts' own known
                        // masks to the first part so the total is right.
                        let mut assigned = 0u32;
                        let known: Vec<u32> = parts
                            .iter()
                            .map(|p| obs_for.get(p).copied().unwrap_or(0))
                            .collect();
                        if known.iter().fold(0, |a, b| a ^ b) != c.observables {
                            stats.forced_observable_splits += 1;
                        }
                        for (i, part) in parts.iter().enumerate() {
                            let mut o = known[i];
                            if i == 0 {
                                let total_known: u32 = known.iter().fold(0, |a, b| a ^ b);
                                o ^= c.observables ^ total_known;
                            }
                            assigned ^= o;
                            add(part.clone(), o, c.probability);
                        }
                        debug_assert_eq!(assigned, c.observables);
                    }
                    None => {
                        stats.dropped_hyperedges += 1;
                    }
                }
            }
        }
        let mut out: Vec<Mechanism> = map
            .into_iter()
            .filter(|&(_, p)| p > 0.0)
            .map(|((detectors, observables), probability)| Mechanism {
                probability,
                detectors,
                observables,
            })
            .collect();
        out.sort_by(|a, b| {
            a.detectors
                .cmp(&b.detectors)
                .then(a.observables.cmp(&b.observables))
        });
        out
    }
}

/// Tries to partition `dets` (sorted, > 2 entries) into groups of 1–2
/// detectors such that every group is an existing elementary edge.
pub(super) fn decompose_against(
    dets: &[u32],
    edges: &std::collections::HashSet<Vec<u32>>,
) -> Option<Vec<Vec<u32>>> {
    if dets.is_empty() {
        return Some(Vec::new());
    }
    let first = dets[0];
    // Try pairing `first` with each other detector.
    for (i, &other) in dets.iter().enumerate().skip(1) {
        let pair = vec![first, other];
        if edges.contains(&pair) {
            let mut rest: Vec<u32> = Vec::with_capacity(dets.len() - 2);
            for (j, &d) in dets.iter().enumerate() {
                if j != 0 && j != i {
                    rest.push(d);
                }
            }
            if let Some(mut sub) = decompose_against(&rest, edges) {
                sub.insert(0, pair);
                return Some(sub);
            }
        }
    }
    // Try `first` alone as a boundary edge.
    let single = vec![first];
    if edges.contains(&single) {
        if let Some(mut sub) = decompose_against(&dets[1..], edges) {
            sub.insert(0, single);
            return Some(sub);
        }
    }
    None
}

enum MeasKind {
    X,
    Z,
}
