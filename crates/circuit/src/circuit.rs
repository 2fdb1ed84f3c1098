//! Flat circuits and validation.

use crate::op::{DetectorBasis, MeasRef, Op, Qubit};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A flat, ordered list of operations over a fixed qubit register.
///
/// Circuits are append-only; measurement, detector and observable counts
/// are maintained incrementally so record references can be produced
/// while building.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    num_qubits: u32,
    ops: Vec<Op>,
    num_measurements: u32,
    num_detectors: u32,
    num_observables: u32,
}

impl Circuit {
    /// An empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: u32) -> Circuit {
        Circuit {
            num_qubits,
            ..Circuit::default()
        }
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of measurement records produced when running the circuit.
    pub fn num_measurements(&self) -> u32 {
        self.num_measurements
    }

    /// Number of detectors declared.
    pub fn num_detectors(&self) -> u32 {
        self.num_detectors
    }

    /// Number of logical observables declared (max index + 1).
    pub fn num_observables(&self) -> u32 {
        self.num_observables
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Appends an operation, returning the index of the first measurement
    /// record it produces (when it is a measurement).
    pub fn push(&mut self, op: Op) -> Option<MeasRef> {
        let first = match op.num_records() {
            0 => None,
            _ => Some(MeasRef(self.num_measurements)),
        };
        self.num_measurements += op.num_records() as u32;
        if matches!(op, Op::Detector { .. }) {
            self.num_detectors += 1;
        }
        if let Op::ObservableInclude { observable, .. } = op {
            self.num_observables = self.num_observables.max(observable + 1);
        }
        self.ops.push(op);
        first
    }

    /// Basis and coordinates of each detector, in declaration order.
    pub fn detector_metadata(&self) -> Vec<(DetectorBasis, [f64; 3])> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Detector { basis, coords, .. } => Some((*basis, *coords)),
                _ => None,
            })
            .collect()
    }

    /// Aggregate operation statistics.
    pub fn stats(&self) -> CircuitStats {
        let mut s = CircuitStats::default();
        for op in &self.ops {
            match op {
                Op::H(q) | Op::S(q) => s.one_qubit_gates += q.len(),
                Op::X(q) | Op::Y(q) | Op::Z(q) => s.one_qubit_gates += q.len(),
                Op::Cx(p) => s.two_qubit_gates += p.len(),
                Op::ResetZ(q) | Op::ResetX(q) => s.resets += q.len(),
                Op::MeasureZ { qubits, .. }
                | Op::MeasureX { qubits, .. }
                | Op::MeasureReset { qubits, .. } => s.measurements += qubits.len(),
                Op::PauliChannel { qubits, .. } | Op::Depolarize1 { qubits, .. } => {
                    s.noise_channels += qubits.len()
                }
                Op::Depolarize2 { pairs, .. } => s.noise_channels += pairs.len(),
                Op::Detector { .. } => s.detectors += 1,
                Op::ObservableInclude { .. } => {}
            }
        }
        s
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when a qubit index is out of range, a
    /// probability is outside `[0, 1]`, a gate layer repeats a qubit, or
    /// a detector/observable references a record that does not exist at
    /// the point of declaration.
    pub fn validate(&self) -> Result<(), CircuitError> {
        let mut records_so_far: u32 = 0;
        for (i, op) in self.ops.iter().enumerate() {
            for q in op.qubits() {
                if q >= self.num_qubits {
                    return Err(CircuitError {
                        op_index: i,
                        kind: ErrorKind::QubitOutOfRange(q, self.num_qubits),
                    });
                }
            }
            let prob = match op {
                Op::MeasureZ {
                    flip_probability, ..
                }
                | Op::MeasureX {
                    flip_probability, ..
                }
                | Op::MeasureReset {
                    flip_probability, ..
                } => Some(*flip_probability),
                Op::Depolarize1 { p, .. } | Op::Depolarize2 { p, .. } => Some(*p),
                Op::PauliChannel { px, py, pz, .. } => Some(px + py + pz),
                _ => None,
            };
            if let Some(p) = prob {
                if !(0.0..=1.0).contains(&p) {
                    return Err(CircuitError {
                        op_index: i,
                        kind: ErrorKind::InvalidProbability(p),
                    });
                }
            }
            // Gate layers must not repeat a qubit (they model one
            // physical layer).
            if matches!(
                op,
                Op::H(_) | Op::S(_) | Op::Cx(_) | Op::ResetZ(_) | Op::ResetX(_)
            ) {
                let qs = op.qubits();
                let set: HashSet<Qubit> = qs.iter().copied().collect();
                if set.len() != qs.len() {
                    return Err(CircuitError {
                        op_index: i,
                        kind: ErrorKind::RepeatedQubitInLayer,
                    });
                }
            }
            match op {
                Op::Detector { records, .. } | Op::ObservableInclude { records, .. } => {
                    for r in records {
                        if r.0 >= records_so_far {
                            return Err(CircuitError {
                                op_index: i,
                                kind: ErrorKind::RecordOutOfRange(r.0, records_so_far),
                            });
                        }
                    }
                }
                _ => {}
            }
            records_so_far += op.num_records() as u32;
        }
        Ok(())
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# qubits: {}", self.num_qubits)?;
        for op in &self.ops {
            writeln!(f, "{op}")?;
        }
        Ok(())
    }
}

/// Aggregate operation counts for a circuit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CircuitStats {
    /// Total single-qubit gate applications.
    pub one_qubit_gates: usize,
    /// Total two-qubit gate applications.
    pub two_qubit_gates: usize,
    /// Total reset applications.
    pub resets: usize,
    /// Total individual qubit measurements.
    pub measurements: usize,
    /// Total noise-channel applications (per qubit / pair).
    pub noise_channels: usize,
    /// Total detectors declared.
    pub detectors: usize,
}

/// A structural validation failure, reported with the offending op index.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitError {
    /// Index into [`Circuit::ops`] of the offending operation.
    pub op_index: usize,
    kind: ErrorKind,
}

#[derive(Debug, Clone, PartialEq)]
enum ErrorKind {
    QubitOutOfRange(Qubit, u32),
    InvalidProbability(f64),
    RepeatedQubitInLayer,
    RecordOutOfRange(u32, u32),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op {}: ", self.op_index)?;
        match &self.kind {
            ErrorKind::QubitOutOfRange(q, n) => {
                write!(f, "qubit {q} out of range for register of {n}")
            }
            ErrorKind::InvalidProbability(p) => write!(f, "probability {p} outside [0, 1]"),
            ErrorKind::RepeatedQubitInLayer => write!(f, "qubit repeated within a gate layer"),
            ErrorKind::RecordOutOfRange(r, n) => {
                write!(f, "record {r} referenced before it exists ({n} so far)")
            }
        }
    }
}

impl Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Op::ResetZ(vec![0, 1]));
        c.push(Op::h([0]));
        c.push(Op::cx([(0, 1)]));
        c.push(Op::measure_z([0, 1], 0.0));
        c.push(Op::detector([MeasRef(0), MeasRef(1)], DetectorBasis::Z));
        c
    }

    #[test]
    fn push_tracks_counts_and_first_record() {
        let mut c = Circuit::new(3);
        assert_eq!(c.push(Op::h([0])), None);
        assert_eq!(c.push(Op::measure_z([0, 1], 0.0)), Some(MeasRef(0)));
        assert_eq!(c.push(Op::measure_z([2], 0.0)), Some(MeasRef(2)));
        assert_eq!(c.num_measurements(), 3);
    }

    #[test]
    fn valid_circuit_passes() {
        bell().validate().unwrap();
    }

    #[test]
    fn qubit_out_of_range_fails() {
        let mut c = Circuit::new(1);
        c.push(Op::h([3]));
        assert!(c.validate().is_err());
    }

    #[test]
    fn future_record_reference_fails() {
        let mut c = Circuit::new(1);
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c.push(Op::measure_z([0], 0.0));
        assert!(c.validate().is_err());
    }

    #[test]
    fn repeated_layer_qubit_fails() {
        let mut c = Circuit::new(2);
        c.push(Op::cx([(0, 1), (1, 0)]));
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_probability_fails() {
        let mut c = Circuit::new(1);
        c.push(Op::Depolarize1 {
            qubits: vec![0],
            p: 1.5,
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn stats_count_ops() {
        let s = bell().stats();
        assert_eq!(s.one_qubit_gates, 1);
        assert_eq!(s.two_qubit_gates, 1);
        assert_eq!(s.resets, 2);
        assert_eq!(s.measurements, 2);
        assert_eq!(s.detectors, 1);
    }

    #[test]
    fn observable_count_tracks_max_index() {
        let mut c = Circuit::new(1);
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::ObservableInclude {
            observable: 3,
            records: vec![MeasRef(0)],
        });
        assert_eq!(c.num_observables(), 4);
    }

    #[test]
    fn display_renders_all_ops() {
        let text = bell().to_string();
        assert!(text.contains("CX 0 1"));
        assert!(text.contains("DETECTOR[Z]"));
    }
}
