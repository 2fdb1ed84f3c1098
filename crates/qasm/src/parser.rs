//! A line-oriented OpenQASM 2 subset parser.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// One gate application (flattened over registers).
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Lower-case gate mnemonic (`h`, `cx`, `rz`, `ccx`, ...).
    pub name: String,
    /// Real parameters (angles), already evaluated.
    pub params: Vec<f64>,
    /// Global qubit indices.
    pub qubits: Vec<u32>,
}

/// A parsed OpenQASM 2 program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Total qubits across all quantum registers.
    pub num_qubits: u32,
    /// Gate list in program order (measure/barrier excluded).
    pub gates: Vec<Gate>,
    /// Number of measurement statements.
    pub measurements: u32,
}

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl Error for ParseError {}

fn err(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        line,
        msg: msg.into(),
    }
}

/// Evaluates a restricted angle expression: numbers, `pi`, unary minus,
/// `*`, `/` (sufficient for MQTBench-style outputs like `-3*pi/8`).
fn eval_expr(s: &str, line: usize) -> Result<f64, ParseError> {
    let s = s.trim();
    // Split on the top-level operators left-to-right (no parentheses in
    // the accepted subset).
    let mut sign = 1.0f64;
    let mut op = '*';
    let mut acc = 1.0f64;
    let mut first = true;
    let mut token = String::new();
    let flush = |tok: &str, line: usize| -> Result<f64, ParseError> {
        let t = tok.trim();
        if t.eq_ignore_ascii_case("pi") {
            Ok(std::f64::consts::PI)
        } else {
            t.parse::<f64>()
                .map_err(|_| err(line, format!("bad number `{t}`")))
        }
    };
    for ch in s.chars().chain(['\0']) {
        match ch {
            '*' | '/' | '\0' => {
                if token.trim().is_empty() && ch != '\0' {
                    return Err(err(line, "empty operand"));
                }
                if !token.trim().is_empty() {
                    let v = flush(&token, line)?;
                    if first {
                        acc = v;
                        first = false;
                    } else if op == '*' {
                        acc *= v;
                    } else {
                        acc /= v;
                    }
                }
                if ch != '\0' {
                    op = ch;
                }
                token.clear();
            }
            '-' if token.trim().is_empty() && first => sign = -sign,
            _ => token.push(ch),
        }
    }
    Ok(sign * acc)
}

impl Program {
    /// Parses an OpenQASM 2 source string.
    ///
    /// Supported statements: `OPENQASM`, `include`, `qreg`, `creg`,
    /// gate applications over the common `qelib1.inc` set, `measure`,
    /// `barrier`, and comments. Gate applications on whole registers
    /// are broadcast per qubit.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for malformed statements, unknown
    /// registers, out-of-range indices, or a known parameterised gate
    /// given the wrong number of angles (`rz q[0];`, `u2(0) q[0];`).
    pub fn parse(src: &str) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        // name -> (offset, size)
        let mut regs: HashMap<String, (u32, u32)> = HashMap::new();
        // Statements are `;`-separated; track line numbers roughly.
        let mut line_no = 0usize;
        for raw_line in src.lines() {
            line_no += 1;
            let line = match raw_line.find("//") {
                Some(i) => &raw_line[..i],
                None => raw_line,
            };
            for stmt in line.split(';') {
                let stmt = stmt.trim();
                if stmt.is_empty() {
                    continue;
                }
                prog.parse_statement(stmt, line_no, &mut regs)?;
            }
        }
        Ok(prog)
    }

    fn parse_statement(
        &mut self,
        stmt: &str,
        line: usize,
        regs: &mut HashMap<String, (u32, u32)>,
    ) -> Result<(), ParseError> {
        if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
            return Ok(());
        }
        if let Some(rest) = stmt.strip_prefix("qreg ") {
            let (name, size) = parse_reg_decl(rest, line)?;
            regs.insert(name, (self.num_qubits, size));
            self.num_qubits = self
                .num_qubits
                .checked_add(size)
                .ok_or_else(|| err(line, "registers hold more than 2^32 qubits"))?;
            return Ok(());
        }
        if stmt.starts_with("creg ") || stmt.starts_with("barrier") {
            return Ok(());
        }
        if stmt.starts_with("measure") {
            self.measurements += 1;
            return Ok(());
        }
        // Gate application: `name(params)? q[i], q[j], ...`
        let (head, args) = match stmt.find(|c: char| c.is_whitespace()) {
            Some(i) => (&stmt[..i], &stmt[i + 1..]),
            None => return Err(err(line, format!("malformed statement `{stmt}`"))),
        };
        let (name, params) = match head.find('(') {
            Some(i) => {
                let close = i + head[i..]
                    .rfind(')')
                    .ok_or_else(|| err(line, "unclosed parameter list"))?;
                let plist = &head[i + 1..close];
                let params = plist
                    .split(',')
                    .map(|p| eval_expr(p, line))
                    .collect::<Result<Vec<_>, _>>()?;
                (head[..i].to_lowercase(), params)
            }
            None => (head.to_lowercase(), Vec::new()),
        };
        if let Some(want) = angle_count(&name) {
            if params.len() != want {
                return Err(err(
                    line,
                    format!("gate `{name}` takes {want} angle(s), got {}", params.len()),
                ));
            }
        }
        // Operands: single qubits q[i] or whole registers q.
        let mut operand_sets: Vec<Vec<u32>> = Vec::new();
        for arg in args.split(',') {
            let arg = arg.trim();
            if arg.is_empty() {
                return Err(err(line, "empty operand"));
            }
            match arg.find('[') {
                Some(i) => {
                    let reg = &arg[..i];
                    let close = i + arg[i..]
                        .rfind(']')
                        .ok_or_else(|| err(line, "unclosed index"))?;
                    let idx: u32 = arg[i + 1..close]
                        .parse()
                        .map_err(|_| err(line, "bad qubit index"))?;
                    let &(off, size) = regs
                        .get(reg)
                        .ok_or_else(|| err(line, format!("unknown register `{reg}`")))?;
                    if idx >= size {
                        return Err(err(line, format!("index {idx} out of range for `{reg}`")));
                    }
                    operand_sets.push(vec![off + idx]);
                }
                None => {
                    let &(off, size) = regs
                        .get(arg)
                        .ok_or_else(|| err(line, format!("unknown register `{arg}`")))?;
                    operand_sets.push((off..off + size).collect());
                }
            }
        }
        if operand_sets.is_empty() {
            return Err(err(line, format!("gate `{name}` without operands")));
        }
        // Broadcast whole-register operands, which must agree in size.
        let broadcast = operand_sets.iter().map(|s| s.len()).max().unwrap_or(1);
        if operand_sets
            .iter()
            .any(|s| s.len() != 1 && s.len() != broadcast)
        {
            return Err(err(line, "register operands of different sizes"));
        }
        for k in 0..broadcast {
            let qubits: Vec<u32> = operand_sets
                .iter()
                .map(|s| if s.len() == 1 { s[0] } else { s[k] })
                .collect();
            self.gates.push(Gate {
                name: name.clone(),
                params: params.clone(),
                qubits,
            });
        }
        Ok(())
    }
}

/// The number of angles a known parameterised `qelib1.inc` gate takes;
/// `None` for every other gate, whose angles are not checked.
fn angle_count(name: &str) -> Option<usize> {
    match name {
        "rz" | "rx" | "ry" | "p" | "u1" | "cp" | "cu1" | "crz" | "crx" | "cry" | "rzz" | "rxx"
        | "ryy" => Some(1),
        "u2" => Some(2),
        "u" | "u3" => Some(3),
        _ => None,
    }
}

fn parse_reg_decl(rest: &str, line: usize) -> Result<(String, u32), ParseError> {
    let rest = rest.trim();
    let open = rest
        .find('[')
        .ok_or_else(|| err(line, "register declaration needs a size"))?;
    let close = open
        + rest[open..]
            .rfind(']')
            .ok_or_else(|| err(line, "unclosed register size"))?;
    let name = rest[..open].trim().to_string();
    let size: u32 = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| err(line, "bad register size"))?;
    Ok((name, size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_program() {
        let p = Program::parse(
            r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            creg c[2];
            h q[0];
            cx q[0], q[1];
            measure q[0] -> c[0];
            "#,
        )
        .unwrap();
        assert_eq!(p.num_qubits, 2);
        assert_eq!(p.gates.len(), 2);
        assert_eq!(p.measurements, 1);
        assert_eq!(p.gates[1].name, "cx");
        assert_eq!(p.gates[1].qubits, vec![0, 1]);
    }

    #[test]
    fn parses_parameters_with_pi() {
        let p = Program::parse("qreg q[1]; rz(-3*pi/8) q[0];").unwrap();
        let angle = p.gates[0].params[0];
        assert!((angle + 3.0 * std::f64::consts::PI / 8.0).abs() < 1e-12);
    }

    #[test]
    fn broadcasts_register_operands() {
        let p = Program::parse("qreg q[3]; h q;").unwrap();
        assert_eq!(p.gates.len(), 3);
        assert_eq!(p.gates[2].qubits, vec![2]);
    }

    #[test]
    fn multiple_registers_get_offsets() {
        let p = Program::parse("qreg a[2]; qreg b[2]; cx a[1], b[0];").unwrap();
        assert_eq!(p.num_qubits, 4);
        assert_eq!(p.gates[0].qubits, vec![1, 2]);
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let e = Program::parse("qreg q[1];\nh r[0];").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown register"));
        assert!(Program::parse("qreg q[1]; h q[4];").is_err());
    }

    #[test]
    fn wrong_angle_counts_are_parse_errors() {
        // Each of these once parsed and then panicked in `analyze`,
        // which indexes a rotation's first angle.
        for (src, msg) in [
            ("qreg q[2];\ncp q[1], q[0];", "`cp` takes 1 angle(s), got 0"),
            ("qreg q[1];\nrz q[0];", "`rz` takes 1 angle(s), got 0"),
            ("qreg q[1];\nu2(0) q[0];", "`u2` takes 2 angle(s), got 1"),
            (
                "qreg q[1];\nrx(0.1,0.2) q[0];",
                "`rx` takes 1 angle(s), got 2",
            ),
        ] {
            let e = Program::parse(src).unwrap_err();
            assert_eq!(e.line, 2, "{src}");
            assert!(e.to_string().contains(msg), "{src}: {e}");
        }
        let p = Program::parse("qreg q[2]; cp(pi/4) q[1], q[0]; u3(0.1,0.2,0.3) q[0];").unwrap();
        assert_eq!(p.analyze(1e-10).gate_count, 2);
    }

    #[test]
    fn malformed_statements_are_errors_not_panics() {
        for (src, msg) in [
            ("qreg a[2]; qreg b[3]; cx a, b;", "different sizes"),
            ("qreg a[4000000000]; qreg b[4000000000];", "2^32 qubits"),
            ("qreg q[1]; rz)(0.1 q[0];", "unclosed parameter list"),
            ("qreg q[1]; h q]0[;", "unclosed index"),
            ("qreg q]1[;", "unclosed register size"),
        ] {
            let e = Program::parse(src).unwrap_err();
            assert!(e.to_string().contains(msg), "{src}: {e}");
        }
    }

    #[test]
    fn comments_ignored() {
        let p = Program::parse("// header\nqreg q[1]; h q[0]; // trailing").unwrap();
        assert_eq!(p.gates.len(), 1);
    }
}
