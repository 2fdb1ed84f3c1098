//! Circuit operations.

use std::fmt;

/// Index of a physical qubit within a circuit.
pub type Qubit = u32;

/// An absolute index into the measurement record of a circuit.
///
/// Measurement operations append one record entry per measured qubit, in
/// the order the qubits are listed. Detectors and observables reference
/// these absolute indices (unlike Stim's relative `rec[-k]` lookback,
/// which is error-prone to generate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MeasRef(pub u32);

impl fmt::Display for MeasRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rec[{}]", self.0)
    }
}

/// The stabilizer basis a detector monitors.
///
/// Used for syndrome-Hamming-weight breakdowns (paper Fig. 7). Detector
/// error model extraction does not read it: it follows each error's
/// actual footprint, so an X error flips Z-type checks and vice versa
/// without being told.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorBasis {
    /// Detector compares X-type stabilizer measurements.
    X,
    /// Detector compares Z-type stabilizer measurements.
    Z,
}

/// A single circuit instruction.
///
/// Unitary layers act on a list of qubits (or qubit pairs) that must be
/// disjoint, mirroring a physical gate layer. Measurements append to the
/// global measurement record. Channels are probabilistic error
/// insertions sampled by the frame simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Hadamard on each listed qubit.
    H(Vec<Qubit>),
    /// Phase gate on each listed qubit.
    S(Vec<Qubit>),
    /// Pauli X on each listed qubit.
    X(Vec<Qubit>),
    /// Pauli Y on each listed qubit.
    Y(Vec<Qubit>),
    /// Pauli Z on each listed qubit.
    Z(Vec<Qubit>),
    /// Controlled-NOT on each listed `(control, target)` pair.
    Cx(Vec<(Qubit, Qubit)>),
    /// Reset each listed qubit to `|0>`.
    ResetZ(Vec<Qubit>),
    /// Reset each listed qubit to `|+>`.
    ResetX(Vec<Qubit>),
    /// Measure each listed qubit in the Z basis, appending one record per
    /// qubit. Each record is independently flipped with probability
    /// `flip_probability` (classical readout error).
    MeasureZ {
        /// Qubits to measure, in record order.
        qubits: Vec<Qubit>,
        /// Classical readout flip probability.
        flip_probability: f64,
    },
    /// Measure each listed qubit in the X basis (as `MeasureZ`).
    MeasureX {
        /// Qubits to measure, in record order.
        qubits: Vec<Qubit>,
        /// Classical readout flip probability.
        flip_probability: f64,
    },
    /// Measure in the Z basis and reset to `|0>` (the combined
    /// measure-and-reset used on surface-code measure qubits).
    MeasureReset {
        /// Qubits to measure-and-reset, in record order.
        qubits: Vec<Qubit>,
        /// Classical readout flip probability.
        flip_probability: f64,
    },
    /// Independent single-qubit Pauli channel applied to each listed
    /// qubit: X with probability `px`, Y with `py`, Z with `pz`.
    PauliChannel {
        /// Affected qubits.
        qubits: Vec<Qubit>,
        /// X error probability.
        px: f64,
        /// Y error probability.
        py: f64,
        /// Z error probability.
        pz: f64,
    },
    /// Single-qubit depolarizing channel: each of X, Y, Z with
    /// probability `p / 3`.
    Depolarize1 {
        /// Affected qubits.
        qubits: Vec<Qubit>,
        /// Total error probability.
        p: f64,
    },
    /// Two-qubit depolarizing channel on each listed pair: each of the 15
    /// non-identity two-qubit Paulis with probability `p / 15`.
    Depolarize2 {
        /// Affected qubit pairs.
        pairs: Vec<(Qubit, Qubit)>,
        /// Total error probability.
        p: f64,
    },
    /// A parity check over measurement records that is deterministic
    /// under zero noise; flipping it witnesses an error.
    Detector {
        /// Measurement records whose XOR forms the detector.
        records: Vec<MeasRef>,
        /// Stabilizer basis this detector monitors.
        basis: DetectorBasis,
        /// Debug coordinates `(x, y, t)`; `t` is the round index.
        coords: [f64; 3],
    },
    /// Adds measurement records into a logical observable's parity.
    ObservableInclude {
        /// Observable index.
        observable: u32,
        /// Measurement records XORed into the observable.
        records: Vec<MeasRef>,
    },
}

impl Op {
    /// Convenience constructor for a Hadamard layer.
    pub fn h(qubits: impl IntoIterator<Item = Qubit>) -> Op {
        Op::H(qubits.into_iter().collect())
    }

    /// Convenience constructor for a CNOT layer.
    pub fn cx(pairs: impl IntoIterator<Item = (Qubit, Qubit)>) -> Op {
        Op::Cx(pairs.into_iter().collect())
    }

    /// Convenience constructor for a Z-basis measurement layer.
    pub fn measure_z(qubits: impl IntoIterator<Item = Qubit>, flip_probability: f64) -> Op {
        Op::MeasureZ {
            qubits: qubits.into_iter().collect(),
            flip_probability,
        }
    }

    /// Convenience constructor for an X-basis measurement layer.
    pub fn measure_x(qubits: impl IntoIterator<Item = Qubit>, flip_probability: f64) -> Op {
        Op::MeasureX {
            qubits: qubits.into_iter().collect(),
            flip_probability,
        }
    }

    /// Convenience constructor for a measure-and-reset layer.
    pub fn measure_reset(qubits: impl IntoIterator<Item = Qubit>, flip_probability: f64) -> Op {
        Op::MeasureReset {
            qubits: qubits.into_iter().collect(),
            flip_probability,
        }
    }

    /// Convenience constructor for a detector with unset coordinates.
    pub fn detector(records: impl IntoIterator<Item = MeasRef>, basis: DetectorBasis) -> Op {
        Op::Detector {
            records: records.into_iter().collect(),
            basis,
            coords: [0.0; 3],
        }
    }

    /// Number of measurement records this op appends.
    pub fn num_records(&self) -> usize {
        match self {
            Op::MeasureZ { qubits, .. }
            | Op::MeasureX { qubits, .. }
            | Op::MeasureReset { qubits, .. } => qubits.len(),
            _ => 0,
        }
    }

    /// Whether this op is a noise channel (including readout flips).
    pub fn is_noise(&self) -> bool {
        match self {
            Op::PauliChannel { .. } | Op::Depolarize1 { .. } | Op::Depolarize2 { .. } => true,
            Op::MeasureZ {
                flip_probability, ..
            }
            | Op::MeasureX {
                flip_probability, ..
            }
            | Op::MeasureReset {
                flip_probability, ..
            } => *flip_probability > 0.0,
            _ => false,
        }
    }

    /// All qubits touched by this op (with duplicates for pair lists).
    pub fn qubits(&self) -> Vec<Qubit> {
        match self {
            Op::H(q)
            | Op::S(q)
            | Op::X(q)
            | Op::Y(q)
            | Op::Z(q)
            | Op::ResetZ(q)
            | Op::ResetX(q) => q.clone(),
            Op::MeasureZ { qubits, .. }
            | Op::MeasureX { qubits, .. }
            | Op::MeasureReset { qubits, .. }
            | Op::PauliChannel { qubits, .. }
            | Op::Depolarize1 { qubits, .. } => qubits.clone(),
            Op::Cx(pairs) | Op::Depolarize2 { pairs, .. } => {
                pairs.iter().flat_map(|&(a, b)| [a, b]).collect()
            }
            Op::Detector { .. } | Op::ObservableInclude { .. } => Vec::new(),
        }
    }

    /// The instruction mnemonic used by the text format.
    pub fn name(&self) -> &'static str {
        match self {
            Op::H(_) => "H",
            Op::S(_) => "S",
            Op::X(_) => "X",
            Op::Y(_) => "Y",
            Op::Z(_) => "Z",
            Op::Cx(_) => "CX",
            Op::ResetZ(_) => "R",
            Op::ResetX(_) => "RX",
            Op::MeasureZ { .. } => "M",
            Op::MeasureX { .. } => "MX",
            Op::MeasureReset { .. } => "MR",
            Op::PauliChannel { .. } => "PAULI_CHANNEL_1",
            Op::Depolarize1 { .. } => "DEPOLARIZE1",
            Op::Depolarize2 { .. } => "DEPOLARIZE2",
            Op::Detector { .. } => "DETECTOR",
            Op::ObservableInclude { .. } => "OBSERVABLE_INCLUDE",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())?;
        match self {
            Op::H(q)
            | Op::S(q)
            | Op::X(q)
            | Op::Y(q)
            | Op::Z(q)
            | Op::ResetZ(q)
            | Op::ResetX(q) => {
                for x in q {
                    write!(f, " {x}")?;
                }
            }
            Op::Cx(pairs) => {
                for (a, b) in pairs {
                    write!(f, " {a} {b}")?;
                }
            }
            Op::MeasureZ {
                qubits,
                flip_probability,
            }
            | Op::MeasureX {
                qubits,
                flip_probability,
            }
            | Op::MeasureReset {
                qubits,
                flip_probability,
            } => {
                if *flip_probability > 0.0 {
                    write!(f, "({flip_probability})")?;
                }
                for q in qubits {
                    write!(f, " {q}")?;
                }
            }
            Op::PauliChannel { qubits, px, py, pz } => {
                write!(f, "({px}, {py}, {pz})")?;
                for q in qubits {
                    write!(f, " {q}")?;
                }
            }
            Op::Depolarize1 { qubits, p } => {
                write!(f, "({p})")?;
                for q in qubits {
                    write!(f, " {q}")?;
                }
            }
            Op::Depolarize2 { pairs, p } => {
                write!(f, "({p})")?;
                for (a, b) in pairs {
                    write!(f, " {a} {b}")?;
                }
            }
            Op::Detector {
                records,
                basis,
                coords,
            } => {
                write!(
                    f,
                    "[{:?}]({}, {}, {})",
                    basis, coords[0], coords[1], coords[2]
                )?;
                for r in records {
                    write!(f, " {r}")?;
                }
            }
            Op::ObservableInclude {
                observable,
                records,
            } => {
                write!(f, "({observable})")?;
                for r in records {
                    write!(f, " {r}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts() {
        assert_eq!(Op::measure_z([0, 1, 2], 0.0).num_records(), 3);
        assert_eq!(Op::h([0]).num_records(), 0);
    }

    #[test]
    fn noise_detection() {
        assert!(Op::Depolarize1 {
            qubits: vec![0],
            p: 0.1
        }
        .is_noise());
        assert!(!Op::measure_z([0], 0.0).is_noise());
        assert!(Op::measure_z([0], 0.01).is_noise());
        assert!(!Op::h([0]).is_noise());
    }

    #[test]
    fn qubit_listing_for_pairs() {
        let op = Op::cx([(0, 1), (2, 3)]);
        assert_eq!(op.qubits(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Op::h([0, 2]).to_string(), "H 0 2");
        assert_eq!(Op::cx([(1, 2)]).to_string(), "CX 1 2");
        assert_eq!(
            Op::detector([MeasRef(4)], DetectorBasis::X).to_string(),
            "DETECTOR[X](0, 0, 0) rec[4]"
        );
    }
}
