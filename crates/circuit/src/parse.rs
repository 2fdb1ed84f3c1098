//! Parsing of the Stim-like circuit text format emitted by
//! [`Circuit`]'s `Display` implementation.

use crate::{Circuit, DetectorBasis, MeasRef, Op, Qubit};
use std::error::Error;
use std::fmt;

/// A failure while parsing circuit text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseCircuitError {
    /// 1-based line number.
    pub line: usize,
    msg: String,
}

impl fmt::Display for ParseCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl Error for ParseCircuitError {}

fn err(line: usize, msg: impl Into<String>) -> ParseCircuitError {
    ParseCircuitError {
        line,
        msg: msg.into(),
    }
}

impl Circuit {
    /// Parses the text format produced by the `Display` implementation,
    /// so circuits round-trip through text (useful for snapshotting
    /// generated circuits and debugging them externally).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseCircuitError`] with the offending line on
    /// malformed input.
    ///
    /// # Example
    ///
    /// ```
    /// use ftqc_circuit::{Circuit, Op};
    ///
    /// let mut c = Circuit::new(2);
    /// c.push(Op::h([0]));
    /// c.push(Op::cx([(0, 1)]));
    /// c.push(Op::measure_z([0, 1], 0.0));
    /// let text = c.to_string();
    /// let back = Circuit::parse(&text).unwrap();
    /// assert_eq!(back.to_string(), text);
    /// ```
    pub fn parse(text: &str) -> Result<Circuit, ParseCircuitError> {
        let mut num_qubits: u32 = 0;
        let mut ops: Vec<Op> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# qubits:") {
                num_qubits = rest
                    .trim()
                    .parse()
                    .map_err(|_| err(line_no, "bad qubit count"))?;
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            ops.push(parse_op(line, line_no)?);
        }
        let mut c = Circuit::new(num_qubits);
        for op in ops {
            c.push(op);
        }
        c.validate()
            .map_err(|e| err(0, format!("parsed circuit invalid: {e}")))?;
        Ok(c)
    }
}

fn split_head(line: &str) -> (&str, &str) {
    match line.find(' ') {
        Some(i) => (&line[..i], line[i + 1..].trim()),
        None => (line, ""),
    }
}

fn parse_qubits(s: &str, line: usize) -> Result<Vec<Qubit>, ParseCircuitError> {
    s.split_whitespace()
        .map(|t| t.parse().map_err(|_| err(line, format!("bad qubit `{t}`"))))
        .collect()
}

fn parse_pairs(s: &str, line: usize) -> Result<Vec<(Qubit, Qubit)>, ParseCircuitError> {
    let q = parse_qubits(s, line)?;
    if q.len() % 2 != 0 {
        return Err(err(line, "pair instruction with odd qubit count"));
    }
    Ok(q.chunks(2).map(|c| (c[0], c[1])).collect())
}

fn parse_records(s: &str, line: usize) -> Result<Vec<MeasRef>, ParseCircuitError> {
    s.split_whitespace()
        .map(|t| {
            t.strip_prefix("rec[")
                .and_then(|x| x.strip_suffix(']'))
                .and_then(|x| x.parse().ok())
                .map(MeasRef)
                .ok_or_else(|| err(line, format!("bad record `{t}`")))
        })
        .collect()
}

/// Splits `NAME(args) operands` into `(args, operands)`.
fn split_parens(rest: &str, line: usize) -> Result<(&str, &str), ParseCircuitError> {
    let close = rest
        .find(')')
        .ok_or_else(|| err(line, "unclosed parenthesis"))?;
    Ok((&rest[..close], rest[close + 1..].trim()))
}

fn parse_op(line: &str, n: usize) -> Result<Op, ParseCircuitError> {
    let (head, rest) = split_head(line);
    // Instructions with parenthesized arguments keep them attached to
    // the head when there is no space, e.g. `DEPOLARIZE1(0.001) 0 1`.
    let (name, args, operands) = match head.find(['(', '[']) {
        Some(i) => {
            let name = &head[..i];
            let tail = format!("{} {rest}", &head[i..]);
            (name.to_string(), tail, String::new())
        }
        None => (head.to_string(), String::new(), rest.to_string()),
    };
    let op = match name.as_str() {
        "H" => Op::H(parse_qubits(&operands, n)?),
        "S" => Op::S(parse_qubits(&operands, n)?),
        "X" => Op::X(parse_qubits(&operands, n)?),
        "Y" => Op::Y(parse_qubits(&operands, n)?),
        "Z" => Op::Z(parse_qubits(&operands, n)?),
        "CX" => Op::Cx(parse_pairs(&operands, n)?),
        "R" => Op::ResetZ(parse_qubits(&operands, n)?),
        "RX" => Op::ResetX(parse_qubits(&operands, n)?),
        "M" | "MX" | "MR" => {
            let (flip, qubits_str) = if let Some(stripped) = args.strip_prefix('(') {
                let (inner, ops) = split_parens(stripped, n)?;
                (
                    inner
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| err(n, "bad flip probability"))?,
                    ops.to_string(),
                )
            } else {
                (0.0, operands)
            };
            let qubits = parse_qubits(&qubits_str, n)?;
            match name.as_str() {
                "M" => Op::MeasureZ {
                    qubits,
                    flip_probability: flip,
                },
                "MX" => Op::MeasureX {
                    qubits,
                    flip_probability: flip,
                },
                _ => Op::MeasureReset {
                    qubits,
                    flip_probability: flip,
                },
            }
        }
        "PAULI_CHANNEL_1" => {
            let stripped = args
                .strip_prefix('(')
                .ok_or_else(|| err(n, "PAULI_CHANNEL_1 needs probabilities"))?;
            let (inner, ops) = split_parens(stripped, n)?;
            let ps: Vec<f64> = inner
                .split(',')
                .map(|x| x.trim().parse().map_err(|_| err(n, "bad probability")))
                .collect::<Result<_, _>>()?;
            if ps.len() != 3 {
                return Err(err(n, "PAULI_CHANNEL_1 takes exactly three probabilities"));
            }
            Op::PauliChannel {
                qubits: parse_qubits(ops, n)?,
                px: ps[0],
                py: ps[1],
                pz: ps[2],
            }
        }
        "DEPOLARIZE1" | "DEPOLARIZE2" => {
            let stripped = args
                .strip_prefix('(')
                .ok_or_else(|| err(n, "depolarizing channel needs a probability"))?;
            let (inner, ops) = split_parens(stripped, n)?;
            let p: f64 = inner
                .trim()
                .parse()
                .map_err(|_| err(n, "bad probability"))?;
            if name == "DEPOLARIZE1" {
                Op::Depolarize1 {
                    qubits: parse_qubits(ops, n)?,
                    p,
                }
            } else {
                Op::Depolarize2 {
                    pairs: parse_pairs(ops, n)?,
                    p,
                }
            }
        }
        "DETECTOR" => {
            // Format: `[X](x, y, t) rec[..] ...`
            let stripped = args
                .strip_prefix('[')
                .ok_or_else(|| err(n, "detector needs a basis tag"))?;
            let close = stripped
                .find(']')
                .ok_or_else(|| err(n, "unclosed basis tag"))?;
            let basis = match &stripped[..close] {
                "X" => DetectorBasis::X,
                "Z" => DetectorBasis::Z,
                other => return Err(err(n, format!("unknown basis `{other}`"))),
            };
            let after = &stripped[close + 1..];
            let paren = after
                .strip_prefix('(')
                .ok_or_else(|| err(n, "detector needs coordinates"))?;
            let (inner, ops) = split_parens(paren, n)?;
            let coords: Vec<f64> = inner
                .split(',')
                .map(|x| x.trim().parse().map_err(|_| err(n, "bad coordinate")))
                .collect::<Result<_, _>>()?;
            if coords.len() != 3 {
                return Err(err(n, "detector takes three coordinates"));
            }
            Op::Detector {
                records: parse_records(ops, n)?,
                basis,
                coords: [coords[0], coords[1], coords[2]],
            }
        }
        "OBSERVABLE_INCLUDE" => {
            let stripped = args
                .strip_prefix('(')
                .ok_or_else(|| err(n, "observable needs an index"))?;
            let (inner, ops) = split_parens(stripped, n)?;
            let observable: u32 = inner
                .trim()
                .parse()
                .map_err(|_| err(n, "bad observable index"))?;
            // Consumers carry observables as a `u32` bitmask.
            if observable >= 32 {
                return Err(err(
                    n,
                    format!("observable index {observable} out of range (at most 32 observables)"),
                ));
            }
            Op::ObservableInclude {
                observable,
                records: parse_records(ops, n)?,
            }
        }
        other => return Err(err(n, format!("unknown instruction `{other}`"))),
    };
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_circuit() {
        let mut c = Circuit::new(3);
        c.push(Op::ResetZ(vec![0, 1, 2]));
        c.push(Op::h([0]));
        c.push(Op::S(vec![1]));
        c.push(Op::cx([(0, 1)]));
        c.push(Op::cx([(1, 2)]));
        c.push(Op::Depolarize1 {
            qubits: vec![0],
            p: 0.001,
        });
        c.push(Op::Depolarize2 {
            pairs: vec![(0, 1)],
            p: 0.002,
        });
        c.push(Op::PauliChannel {
            qubits: vec![2],
            px: 0.1,
            py: 0.2,
            pz: 0.3,
        });
        c.push(Op::measure_reset([2], 0.01));
        c.push(Op::measure_x([0], 0.0));
        c.push(Op::measure_z([1], 0.0));
        c.push(Op::Detector {
            records: vec![MeasRef(0), MeasRef(2)],
            basis: DetectorBasis::X,
            coords: [1.0, 2.0, 3.0],
        });
        c.push(Op::ObservableInclude {
            observable: 1,
            records: vec![MeasRef(1)],
        });
        let text = c.to_string();
        let back = Circuit::parse(&text).unwrap();
        assert_eq!(back.to_string(), text);
        assert_eq!(back.num_qubits(), 3);
        assert_eq!(back.num_measurements(), 3);
        assert_eq!(back.num_detectors(), 1);
        assert_eq!(back.num_observables(), 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = Circuit::parse("# qubits: 1\nFROB 0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("FROB"));
    }

    #[test]
    fn observable_index_past_the_mask_is_rejected() {
        let text =
            "# qubits: 1\nM 0\nOBSERVABLE_INCLUDE(31) rec[0]\nOBSERVABLE_INCLUDE(40) rec[0]\n";
        let e = Circuit::parse(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("observable index 40"), "{e}");
        let ok = Circuit::parse("# qubits: 1\nM 0\nOBSERVABLE_INCLUDE(31) rec[0]\n").unwrap();
        assert_eq!(ok.num_observables(), 32);
    }

    #[test]
    fn invalid_parsed_circuit_rejected() {
        // Detector referencing a missing record.
        let text = "# qubits: 1\nDETECTOR[Z](0, 0, 0) rec[5]\n";
        assert!(Circuit::parse(text).is_err());
    }

    #[test]
    fn generated_surgery_circuit_roundtrips() {
        // A realistic end-to-end roundtrip happens in the integration
        // tests; here a small multi-op sample with comments.
        let text = "# qubits: 2\n# a comment\nR 0 1\nH 0\nCX 0 1\nM 0 1\nDETECTOR[Z](0, 0, 0) rec[0] rec[1]\n";
        let c = Circuit::parse(text).unwrap();
        assert_eq!(c.num_detectors(), 1);
    }
}
