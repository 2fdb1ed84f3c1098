//! Clifford+T resource analysis of parsed programs.

use crate::parser::{Gate, Program};

/// T-gates required to synthesize one arbitrary-angle Z rotation to
/// accuracy `eps`, using the standard repeat-until-success estimate
/// `1.15 log2(1/eps) + 9.2` (as used by the Azure Quantum Resource
/// Estimator the paper relies on). Angles that are multiples of `pi/2`
/// are Clifford (0 T); odd multiples of `pi/4` cost exactly 1 T.
pub fn rotation_t_cost(angle: f64, eps: f64) -> u64 {
    let quarter = angle / std::f64::consts::FRAC_PI_4;
    let nearest = quarter.round();
    if (quarter - nearest).abs() < 1e-9 {
        let k = nearest.rem_euclid(8.0) as i64;
        return if k % 2 == 0 { 0 } else { 1 };
    }
    (1.15 * (1.0 / eps).log2() + 9.2).ceil() as u64
}

/// Gate-level resource analysis of a program.
///
/// Produced by [`Program::analyze`]; consumed by the logical resource
/// estimator (`ftqc-estimator`) to reproduce Figs. 3(c), 16 and 20.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Total qubits.
    pub num_qubits: u32,
    /// Total gate applications.
    pub gate_count: u64,
    /// Two-qubit gate applications (after decomposing ccx/swap).
    pub cnot_count: u64,
    /// T gates after Clifford+T decomposition.
    pub t_count: u64,
    /// Non-Clifford rotations that required synthesis.
    pub rotation_count: u64,
    /// Logical circuit depth (per-qubit critical path, ASAP layers).
    pub depth: u64,
    /// Maximum number of CNOTs sharing one ASAP layer (paper Fig. 20:
    /// the bound on concurrent Lattice Surgery operations).
    pub max_concurrent_cnots: u64,
}

impl Program {
    /// Analyzes the program: counts gates, decomposes into Clifford+T
    /// (`eps` is the per-rotation synthesis accuracy) and computes
    /// ASAP-schedule depth statistics.
    pub fn analyze(&self, eps: f64) -> Analysis {
        let mut t_count = 0u64;
        let mut rotation_count = 0u64;
        let mut cnot_count = 0u64;
        // ASAP layering: layer(gate) = 1 + max(layer of its qubits).
        // The table covers the qubits up to the highest one a gate
        // touches, not the declared registers, which may be far larger.
        let touched = self.gates.iter().flat_map(|g| &g.qubits).max();
        let mut qubit_layer = vec![0u64; touched.map_or(0, |&q| q as usize + 1)];
        let mut cnots_in_layer: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        for g in &self.gates {
            let (t, cx) = gate_costs(g, eps);
            t_count += t;
            cnot_count += cx;
            if t > 1 {
                rotation_count += 1;
            }
            let layer = 1 + g
                .qubits
                .iter()
                .map(|&q| qubit_layer[q as usize])
                .max()
                .unwrap_or(0);
            for &q in &g.qubits {
                qubit_layer[q as usize] = layer;
            }
            if cx > 0 {
                *cnots_in_layer.entry(layer).or_insert(0) += cx;
            }
        }
        Analysis {
            num_qubits: self.num_qubits,
            gate_count: self.gates.len() as u64,
            cnot_count,
            t_count,
            rotation_count,
            depth: qubit_layer.iter().copied().max().unwrap_or(0),
            max_concurrent_cnots: cnots_in_layer.values().copied().max().unwrap_or(0),
        }
    }
}

/// `(T cost, CNOT cost)` of one gate under Clifford+T decomposition.
fn gate_costs(g: &Gate, eps: f64) -> (u64, u64) {
    match g.name.as_str() {
        "h" | "x" | "y" | "z" | "s" | "sdg" | "sx" | "sxdg" | "id" => (0, 0),
        "t" | "tdg" => (1, 0),
        "cx" | "cz" | "cy" | "ch" => (0, 1),
        "swap" => (0, 3),
        "ccx" | "ccz" => (7, 6),
        "rz" | "rx" | "ry" | "p" | "u1" => (rotation_t_cost(g.params[0], eps), 0),
        // Controlled phase: 3 rotations of theta/2 + 2 CNOTs.
        "cp" | "cu1" | "crz" | "crx" | "cry" => (3 * rotation_t_cost(g.params[0] / 2.0, eps), 2),
        "rzz" | "rxx" | "ryy" => (rotation_t_cost(g.params[0], eps), 2),
        "u" | "u3" | "u2" => {
            // Euler decomposition: up to three rotations.
            let t: u64 = g.params.iter().map(|&a| rotation_t_cost(a, eps)).sum();
            (t, 0)
        }
        // Unknown gates: assume one synthesized rotation per parameter,
        // one CNOT per extra qubit (conservative).
        _ => {
            let t: u64 = g.params.iter().map(|&a| rotation_t_cost(a, eps)).sum();
            (t, g.qubits.len().saturating_sub(1) as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn clifford_angles_are_free() {
        for k in -8i32..=8 {
            let angle = k as f64 * PI / 2.0;
            assert_eq!(rotation_t_cost(angle, 1e-10), 0, "angle {angle}");
        }
    }

    #[test]
    fn quarter_angles_cost_one_t() {
        assert_eq!(rotation_t_cost(PI / 4.0, 1e-10), 1);
        assert_eq!(rotation_t_cost(-PI / 4.0, 1e-10), 1);
        assert_eq!(rotation_t_cost(3.0 * PI / 4.0, 1e-10), 1);
    }

    #[test]
    fn generic_angles_scale_with_accuracy() {
        let coarse = rotation_t_cost(0.3, 1e-3);
        let fine = rotation_t_cost(0.3, 1e-12);
        assert!(fine > coarse);
        assert!(coarse >= 10);
    }

    #[test]
    fn analysis_counts_toffoli() {
        let p = Program::parse("qreg q[3]; ccx q[0], q[1], q[2];").unwrap();
        let a = p.analyze(1e-10);
        assert_eq!(a.t_count, 7);
        assert_eq!(a.cnot_count, 6);
    }

    #[test]
    fn depth_follows_critical_path() {
        let p = Program::parse("qreg q[3]; h q[0]; cx q[0], q[1]; cx q[1], q[2];").unwrap();
        let a = p.analyze(1e-10);
        assert_eq!(a.depth, 3);
    }

    #[test]
    fn concurrent_cnots_counted_per_layer() {
        // Two disjoint CNOTs share layer 1.
        let p = Program::parse("qreg q[4]; cx q[0], q[1]; cx q[2], q[3];").unwrap();
        let a = p.analyze(1e-10);
        assert_eq!(a.max_concurrent_cnots, 2);
        assert_eq!(a.depth, 1);
    }

    #[test]
    fn huge_register_costs_only_the_touched_qubits() {
        // One word per declared qubit would be 32 GB here.
        let p = Program::parse("qreg q[4000000000]; h q[0];").unwrap();
        let a = p.analyze(1e-10);
        assert_eq!(a.num_qubits, 4_000_000_000);
        assert_eq!(a.depth, 1);
    }
}
