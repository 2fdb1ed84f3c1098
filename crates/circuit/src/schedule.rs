//! Timed schedules: circuits with explicit per-op start times.

use crate::op::Op;

/// An operation with an explicit start time and duration (nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOp {
    /// Start time in nanoseconds from circuit start.
    pub start: f64,
    /// Duration in nanoseconds (zero for annotations).
    pub duration: f64,
    /// The operation.
    pub op: Op,
}

/// A circuit whose operations carry explicit wall-clock timing.
///
/// Schedules are what the surface-code builder emits: every gate layer,
/// measurement and annotation has a start time and duration, so a noise
/// model can compute how long each qubit idles between its operations and
/// insert the corresponding decoherence channels — exactly the behaviour
/// the paper describes for `lattice-sim` ("annotates idling errors based
/// on the idle periods experienced by the qubits after every operation").
///
/// Synchronization policies act on schedules by inserting *time gaps*
/// (idle periods) rather than explicit noise ops; the noise annotator
/// turns those gaps into Pauli idle channels.
///
/// # Example
///
/// ```
/// use ftqc_circuit::{Op, Schedule};
///
/// let mut s = Schedule::new(2);
/// s.push(0.0, 50.0, Op::h([0]));
/// s.push(50.0, 70.0, Op::cx([(0, 1)]));
/// s.push(120.0, 1500.0, Op::measure_z([0, 1], 0.0));
/// assert_eq!(s.end_time(), 1620.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    num_qubits: u32,
    ops: Vec<ScheduledOp>,
}

impl Schedule {
    /// An empty schedule over `num_qubits` qubits.
    pub fn new(num_qubits: u32) -> Schedule {
        Schedule {
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Appends an operation starting at `start` lasting `duration` ns.
    ///
    /// # Panics
    ///
    /// Panics if `start` or `duration` is negative or non-finite.
    pub fn push(&mut self, start: f64, duration: f64, op: Op) {
        assert!(
            start.is_finite() && start >= 0.0,
            "op start must be finite and non-negative, got {start}"
        );
        assert!(
            duration.is_finite() && duration >= 0.0,
            "op duration must be finite and non-negative, got {duration}"
        );
        self.ops.push(ScheduledOp {
            start,
            duration,
            op,
        });
    }

    /// The scheduled operations in insertion order.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// End time of the schedule: max over ops of `start + duration`.
    pub fn end_time(&self) -> f64 {
        self.ops
            .iter()
            .map(|s| s.start + s.duration)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_time_is_max_extent() {
        let mut s = Schedule::new(1);
        s.push(0.0, 500.0, Op::h([0]));
        s.push(100.0, 10.0, Op::h([0]));
        assert_eq!(s.end_time(), 500.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_start_panics() {
        let mut s = Schedule::new(1);
        s.push(-1.0, 0.0, Op::h([0]));
    }
}
