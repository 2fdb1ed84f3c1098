//! Pauli algebra and stabilizer (tableau) simulation.
//!
//! This crate provides the algebraic substrate used throughout the
//! workspace:
//!
//! * [`Pauli`] — a single-qubit Pauli operator.
//! * [`PauliString`] — a dense, bit-packed n-qubit Pauli operator with
//!   phase-free multiplication, commutation checks and weight queries.
//! * [`Tableau`] — an Aaronson–Gottesman CHP stabilizer simulator with
//!   deterministic-measurement detection, used to verify that the
//!   detectors and observables emitted by the surface-code circuit
//!   generator are deterministic under zero noise.
//!
//! # Example
//!
//! ```
//! use ftqc_pauli::{Pauli, Tableau};
//!
//! // Prepare a Bell pair and check the ZZ measurement is correlated.
//! let mut sim = Tableau::new(2);
//! sim.h(0);
//! sim.cx(0, 1);
//! let (m0, det0) = sim.measure_z(0, || false);
//! let (m1, det1) = sim.measure_z(1, || false);
//! assert!(!det0);       // first Z measurement of a Bell pair is random
//! assert!(det1);        // ... but the second is then determined
//! assert_eq!(m0, m1);   // ... and perfectly correlated
//! assert_eq!(Pauli::X * Pauli::Z, Pauli::Y); // (up to phase)
//! ```

mod pauli;
mod tableau;

pub use pauli::{Pauli, PauliString};
pub use tableau::Tableau;
