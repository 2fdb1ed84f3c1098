//! Pass 2 — static validation of decode artifacts.
//!
//! Every artifact a decode run consumes can be checked for
//! well-formedness *before* any shots run: the textual detector error
//! model (`.dem` files, [`DemFile`]), the [`DecodingGraph`] CSR
//! arrays, the [`ScratchCapacity`] a decoder reports, policy specs
//! and workload estimates. `repro check` drives these from the CLI;
//! `EvalPipeline` and `ProgramSchedule::compile` run them as debug
//! pre-flights so a malformed artifact fails with a stable `FTQC0xx`
//! diagnostic instead of a deep panic.
//!
//! # The `.dem` text format
//!
//! ```text
//! # comment
//! dem <num_detectors> <num_observables>
//! detector <id> <x> <y> <round>
//! error <p> D<i> [D<j>] [L<k> ...]
//! ```
//!
//! One `dem` header, one `detector` line per detector (coordinates
//! `x y round`; `round` is the `coords[2]` round tag `RoundSchedule`
//! groups by), and one `error` line per mechanism: probability, the
//! flipped detectors as `D<i>` refs, and flipped logical observables
//! as `L<k>` refs.

use crate::diag::{Code, Diagnostic};
use ftqc_decoder::{DecodingGraph, ScratchCapacity, NO_NODE};
use ftqc_sim::{DetectorErrorModel, Mechanism};
use std::collections::{HashMap, HashSet};

/// A parsed `.dem` text file (see the [module docs](self) for the
/// format).
#[derive(Debug, Clone)]
pub struct DemFile {
    /// Declared detector count.
    pub num_detectors: usize,
    /// Declared observable count.
    pub num_observables: usize,
    /// `(line, id, round_tag)` per `detector` line, in file order.
    pub detectors: Vec<(usize, u32, f64)>,
    /// `(line, probability, detector_refs, observable_mask)` per
    /// `error` line, in file order.
    pub mechanisms: Vec<(usize, f64, Vec<u32>, u32)>,
}

impl DemFile {
    /// Parses `.dem` text. Returns every syntax error (`FTQC010`) at
    /// once rather than stopping at the first.
    pub fn parse(label: &str, text: &str) -> Result<DemFile, Vec<Diagnostic>> {
        let mut diags = Vec::new();
        let mut header: Option<(usize, usize)> = None;
        let mut detectors = Vec::new();
        let mut mechanisms = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut err = |msg: String| {
                diags.push(Diagnostic::new(Code::DemParse, label, lineno, msg));
            };
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[0] {
                "dem" => {
                    if header.is_some() {
                        err("duplicate `dem` header".to_string());
                    } else if fields.len() != 3 {
                        err("`dem` header needs `dem <num_detectors> <num_observables>`"
                            .to_string());
                    } else {
                        match (fields[1].parse::<usize>(), fields[2].parse::<usize>()) {
                            (Ok(n), Ok(m)) => header = Some((n, m)),
                            _ => err(format!(
                                "unparsable `dem` header counts `{} {}`",
                                fields[1], fields[2]
                            )),
                        }
                    }
                }
                "detector" => {
                    if header.is_none() {
                        err("`detector` before the `dem` header".to_string());
                    } else if fields.len() != 5 {
                        err("`detector` needs `detector <id> <x> <y> <round>`".to_string());
                    } else {
                        let id = fields[1].parse::<u32>();
                        let coords: Result<Vec<f64>, _> =
                            fields[2..5].iter().map(|f| f.parse::<f64>()).collect();
                        match (id, coords) {
                            (Ok(id), Ok(coords)) => detectors.push((lineno, id, coords[2])),
                            _ => err(format!("unparsable `detector` fields in `{line}`")),
                        }
                    }
                }
                "error" => {
                    if header.is_none() {
                        err("`error` before the `dem` header".to_string());
                    } else if fields.len() < 2 {
                        err("`error` needs `error <p> D<i>... L<k>...`".to_string());
                    } else {
                        match fields[1].parse::<f64>() {
                            Err(_) => err(format!("unparsable probability `{}`", fields[1])),
                            Ok(p) => {
                                let mut dets = Vec::new();
                                let mut obs = 0u32;
                                let mut ok = true;
                                for f in &fields[2..] {
                                    if let Some(d) = f.strip_prefix('D') {
                                        match d.parse::<u32>() {
                                            Ok(d) => dets.push(d),
                                            Err(_) => ok = false,
                                        }
                                    } else if let Some(l) = f.strip_prefix('L') {
                                        match l.parse::<u32>() {
                                            Ok(l) if l < 32 => obs |= 1 << l,
                                            _ => ok = false,
                                        }
                                    } else {
                                        ok = false;
                                    }
                                    if !ok {
                                        err(format!("unparsable `error` target `{f}`"));
                                        break;
                                    }
                                }
                                if ok {
                                    mechanisms.push((lineno, p, dets, obs));
                                }
                            }
                        }
                    }
                }
                other => err(format!("unknown directive `{other}`")),
            }
        }
        let (num_detectors, num_observables) = match header {
            Some(h) => h,
            None => {
                diags.push(Diagnostic::new(
                    Code::DemParse,
                    label,
                    0,
                    "missing `dem <num_detectors> <num_observables>` header",
                ));
                (0, 0)
            }
        };
        if diags.is_empty() {
            Ok(DemFile {
                num_detectors,
                num_observables,
                detectors,
                mechanisms,
            })
        } else {
            Err(diags)
        }
    }

    /// Semantic (`FTQC011`) and round-structure (`FTQC012`) checks.
    pub fn validate(&self, label: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let n = self.num_detectors;

        // --- FTQC011: declarations and mechanisms ------------------
        let mut seen: HashSet<u32> = HashSet::new();
        for &(line, id, _) in &self.detectors {
            if (id as usize) >= n {
                diags.push(Diagnostic::new(
                    Code::DemSemantic,
                    label,
                    line,
                    format!("detector id {id} out of range (header declares {n})"),
                ));
            } else if !seen.insert(id) {
                diags.push(Diagnostic::new(
                    Code::DemSemantic,
                    label,
                    line,
                    format!("detector id {id} declared twice"),
                ));
            }
        }
        if seen.len() < n && self.detectors.iter().all(|&(_, id, _)| (id as usize) < n) {
            diags.push(Diagnostic::new(
                Code::DemSemantic,
                label,
                0,
                format!(
                    "header declares {n} detectors but only {} are declared",
                    seen.len()
                ),
            ));
        }
        if self.mechanisms.is_empty() {
            diags.push(Diagnostic::new(
                Code::DemSemantic,
                label,
                0,
                "model declares no error mechanisms",
            ));
        }
        for (line, p, dets, obs) in &self.mechanisms {
            if !(*p > 0.0 && *p < 1.0) {
                diags.push(Diagnostic::new(
                    Code::DemSemantic,
                    label,
                    *line,
                    format!("mechanism probability {p} outside (0, 1)"),
                ));
            }
            if dets.windows(2).any(|w| w[0] >= w[1]) {
                diags.push(Diagnostic::new(
                    Code::DemSemantic,
                    label,
                    *line,
                    "mechanism detectors must be strictly ascending",
                ));
            }
            if let Some(&d) = dets.iter().find(|&&d| (d as usize) >= n) {
                diags.push(Diagnostic::new(
                    Code::DemSemantic,
                    label,
                    *line,
                    format!("mechanism references undeclared detector D{d}"),
                ));
            }
            if dets.len() > 2 {
                diags.push(Diagnostic::new(
                    Code::DemSemantic,
                    label,
                    *line,
                    format!(
                        "mechanism flips {} detectors — not graphlike; decompose hyperedges \
                         before decoding",
                        dets.len()
                    ),
                ));
            }
            if dets.is_empty() && *obs == 0 {
                diags.push(Diagnostic::new(
                    Code::DemSemantic,
                    label,
                    *line,
                    "mechanism flips neither detectors nor observables",
                ));
            }
            if self.num_observables < 32 && (*obs >> self.num_observables) != 0 {
                diags.push(Diagnostic::new(
                    Code::DemSemantic,
                    label,
                    *line,
                    format!(
                        "mechanism references observables beyond the declared {}",
                        self.num_observables
                    ),
                ));
            }
        }

        // --- FTQC012: streamable round structure -------------------
        let mut by_id = self.detectors.clone();
        by_id.sort_by_key(|&(_, id, _)| id);
        let mut prev_round = f64::NEG_INFINITY;
        let mut rounds: Vec<f64> = Vec::new();
        for &(line, id, round) in &by_id {
            if !round.is_finite() || round < 0.0 || round.fract() != 0.0 {
                diags.push(Diagnostic::new(
                    Code::DemRounds,
                    label,
                    line,
                    format!("detector {id} has non-integral round tag {round}"),
                ));
                continue;
            }
            if round < prev_round {
                diags.push(Diagnostic::new(
                    Code::DemRounds,
                    label,
                    line,
                    format!(
                        "detector {id} (round {round}) breaks the coords[2] sort: detector ids \
                         must be grouped by ascending round for RoundSchedule"
                    ),
                ));
            }
            prev_round = prev_round.max(round);
            if rounds.last() != Some(&round) {
                rounds.push(round);
            }
        }
        rounds.sort_by(f64::total_cmp);
        rounds.dedup();
        for (i, &r) in rounds.iter().enumerate() {
            if r != i as f64 {
                diags.push(Diagnostic::new(
                    Code::DemRounds,
                    label,
                    0,
                    format!("round tags are not contiguous from 0: expected round {i}, found {r}"),
                ));
                break;
            }
        }
        diags
    }

    /// Rebuilds an in-memory [`DetectorErrorModel`] from the parsed
    /// file. Call [`DemFile::validate`] first — this performs no
    /// checking of its own.
    pub fn to_model(&self) -> DetectorErrorModel {
        let mechanisms = self
            .mechanisms
            .iter()
            .map(|(_, probability, detectors, observables)| Mechanism {
                probability: *probability,
                detectors: detectors.clone(),
                observables: *observables,
            })
            .collect();
        DetectorErrorModel::from_parts(self.num_detectors, self.num_observables, mechanisms)
    }
}

/// The merged probability of each of the DEM's edge classes,
/// re-derived independently of `DecodingGraph::from_dem` but under its
/// merge rule: graphlike mechanisms keyed by `(lower detector, upper
/// detector or None, observables)`, parallel ones merged as "exactly
/// one occurs". Sorted by key, so entry `i` is graph edge `i`'s class.
fn edge_classes(dem: &DetectorErrorModel) -> Vec<f64> {
    let mut merged: HashMap<(u32, Option<u32>, u32), f64> = HashMap::new();
    for m in dem.mechanisms() {
        let key = match m.detectors[..] {
            [d] => (d, None, m.observables),
            [a, b] => (a.min(b), Some(a.max(b)), m.observables),
            _ => continue, // not graphlike / pure observable flip
        };
        let p = merged.entry(key).or_insert(0.0);
        *p = *p * (1.0 - m.probability) + m.probability * (1.0 - *p);
    }
    let mut classes: Vec<_> = merged.into_iter().collect();
    classes.sort_unstable_by_key(|&(key, _)| key);
    classes.into_iter().map(|(_, p)| p).collect()
}

/// `FTQC013`: the consistency of a [`DecodingGraph`] built from `dem`.
/// Every merged edge class of the DEM has a probability in `(0, 1)`;
/// and, through the graph's public traversal API: endpoint ranges,
/// positive finite weights, per-node adjacency in ascending edge order
/// with every internal edge appearing under both endpoints (boundary
/// edges under `u` only), and every detector with at least one edge
/// able to reach a boundary edge.
pub fn validate_graph(
    label: &str,
    dem: &DetectorErrorModel,
    graph: &DecodingGraph,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = graph.num_detectors();
    let records = graph.records();
    let mut err = |msg: String| {
        diags.push(Diagnostic::new(Code::GraphCsr, label, 0, msg));
    };

    for (i, p) in edge_classes(dem).into_iter().enumerate() {
        if !(p > 0.0 && p < 1.0) {
            err(format!("edge {i} probability {p} outside (0, 1)"));
        }
    }
    for (i, r) in records.iter().enumerate() {
        if r.u >= n || (r.v != NO_NODE && r.v >= n) {
            err(format!("edge {i} endpoint out of range ({} detectors)", n));
            continue;
        }
        if r.v != NO_NODE && r.v <= r.u {
            err(format!(
                "edge {i} endpoints not ascending (u {}, v {})",
                r.u, r.v
            ));
        }
        if !r.weight.is_finite() || r.weight <= 0.0 {
            err(format!("edge {i} weight {} not positive finite", r.weight));
        }
    }

    // Adjacency: ascending edge order per node, entries in range,
    // resolved far endpoints correct, appearance counts exact.
    let mut appearances = vec![0u32; records.len()];
    for node in 0..n {
        let mut prev_edge = None;
        for entry in graph.neighbors(node) {
            if (entry.edge as usize) >= records.len() {
                err(format!(
                    "node {node} adjacency references edge {} out of range",
                    entry.edge
                ));
                continue;
            }
            if prev_edge.is_some_and(|p| entry.edge <= p) {
                err(format!("node {node} adjacency not in ascending edge order"));
            }
            prev_edge = Some(entry.edge);
            appearances[entry.edge as usize] += 1;
            let r = &records[entry.edge as usize];
            let expected_to = if r.u == node {
                r.v
            } else if r.v == node {
                r.u
            } else {
                err(format!(
                    "node {node} adjacency lists edge {} which does not touch it",
                    entry.edge
                ));
                continue;
            };
            if entry.to != expected_to {
                err(format!(
                    "node {node} adjacency entry for edge {} resolves the wrong far endpoint",
                    entry.edge
                ));
            }
        }
    }
    for (i, r) in records.iter().enumerate() {
        let expected = if r.v != NO_NODE { 2 } else { 1 };
        if appearances[i] != expected {
            err(format!(
                "edge {i} appears {} times in the adjacency (expected {expected})",
                appearances[i]
            ));
        }
    }

    // Boundary reachability over the adjacency.
    let mut reach = vec![false; n as usize];
    let mut queue: Vec<u32> = (0..n)
        .filter(|&v| graph.neighbors(v).iter().any(|a| a.to == NO_NODE))
        .collect();
    for &v in &queue {
        reach[v as usize] = true;
    }
    while let Some(v) = queue.pop() {
        for a in graph.neighbors(v) {
            if a.to != NO_NODE && !reach[a.to as usize] {
                reach[a.to as usize] = true;
                queue.push(a.to);
            }
        }
    }
    for v in 0..n {
        if !reach[v as usize] && !graph.neighbors(v).is_empty() {
            err(format!(
                "detector {v} has edges but cannot reach a boundary edge"
            ));
        }
    }
    diags
}

/// `FTQC014`: cross-checks a decoder's reported
/// [`ScratchCapacity`] against the capacity re-derived independently
/// from the DEM (`nodes` = detector count, `edges` = merged edge
/// classes, the same merge rule `DecodingGraph::from_dem` applies).
/// Table decoders report `edges: 0`, which the DEM cross-check cannot
/// derive, so callers validate graph-holding decoders here.
pub fn validate_scratch(
    label: &str,
    dem: &DetectorErrorModel,
    cap: ScratchCapacity,
) -> Vec<Diagnostic> {
    let nodes = dem.num_detectors() as u32;
    let edges = edge_classes(dem).len() as u32;
    let mut diags = Vec::new();
    if cap.nodes != nodes || cap.edges != edges {
        diags.push(Diagnostic::new(
            Code::ScratchCapacity,
            label,
            0,
            format!(
                "decoder reports scratch capacity {} nodes / {} edges, but the DEM derives \
                 {nodes} nodes / {edges} edges",
                cap.nodes, cap.edges
            ),
        ));
    }
    diags
}

/// `FTQC018`: fused-streaming window domain check. A fused window of
/// `W` rounds decodes each committing round with the `W - 1` rounds
/// after it in view, so an edge whose endpoints are `k` rounds apart
/// needs `W >= k + 1` for both endpoints to be in view when the lower
/// one's round commits — a shorter window sees that edge only as a cut
/// edge at *every* commit, and hands the defect it carries to a round
/// the commit could not look at, rather than transiently.
/// `round_of` maps a global detector id to its round (e.g.
/// `RoundSchedule::round_of`, or the `.dem` file's round tags).
pub fn validate_window(
    label: &str,
    graph: &DecodingGraph,
    round_of: impl Fn(u32) -> u32,
    window: u32,
) -> Vec<Diagnostic> {
    let mut reach = 0u32;
    for r in graph.records().iter().filter(|r| r.v != NO_NODE) {
        reach = reach.max(round_of(r.u).abs_diff(round_of(r.v)));
    }
    let min_window = reach + 1;
    if window >= min_window {
        return Vec::new();
    }
    vec![Diagnostic::new(
        Code::WindowDomain,
        label,
        0,
        format!(
            "fused streaming window of {window} rounds cannot cover the graph's \
             longest round-spanning edge ({reach} rounds apart): use a window of \
             at least {min_window} rounds or the window boundary will cut that \
             edge at every commit"
        ),
    )]
}

/// `FTQC015`: policy-spec domain validation — the spec must parse
/// under [`PolicySpec`](ftqc_sync::PolicySpec)'s grammar, whose
/// parser enforces every parameter domain.
pub fn validate_policy(spec: &str) -> Vec<Diagnostic> {
    match spec.parse::<ftqc_sync::PolicySpec>() {
        Ok(_) => Vec::new(),
        Err(e) => vec![Diagnostic::new(
            Code::PolicyDomain,
            "<policy>",
            0,
            e.to_string(),
        )],
    }
}

/// `FTQC016`: code-distance domain check for decode experiments —
/// surface-code distances are odd and bounded (3..=31) so circuit
/// construction cannot blow up on a typo'd `--distance 300`.
pub fn validate_distance(distance: u64) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !(3..=31).contains(&distance) || distance.is_multiple_of(2) {
        diags.push(Diagnostic::new(
            Code::WorkloadDomain,
            "<distance>",
            0,
            format!("code distance {distance} outside the supported domain (odd, 3..=31)"),
        ));
    }
    diags
}

/// `FTQC016`: domain checks on a workload's resource estimate — the
/// invariants [`ProgramSchedule::compile`] assumes, checked up front
/// with a diagnostic instead of a deep assert.
///
/// [`ProgramSchedule::compile`]: https://docs.rs/ftqc-runtime
pub fn validate_estimate(
    workload_name: &str,
    estimate: &ftqc_estimator::LogicalEstimate,
) -> Vec<Diagnostic> {
    let label = format!("<workload {workload_name}>");
    let mut diags = Vec::new();
    let mut err = |msg: String| {
        diags.push(Diagnostic::new(Code::WorkloadDomain, label.clone(), 0, msg));
    };
    if estimate.code_distance < 3 || estimate.code_distance.is_multiple_of(2) {
        err(format!(
            "code distance {} is not an odd distance >= 3",
            estimate.code_distance
        ));
    }
    if estimate.logical_qubits == 0 {
        err("estimate has zero logical qubits".to_string());
    }
    if estimate.logical_cycles == 0 {
        err("estimate has zero logical cycles".to_string());
    }
    if estimate.magic_states == 0 {
        err("estimate has zero magic states (nothing to schedule)".to_string());
    }
    if estimate.factories == 0 {
        err("estimate has zero magic-state factories".to_string());
    }
    if !estimate.syncs_per_cycle.is_finite() || estimate.syncs_per_cycle < 0.0 {
        err(format!(
            "syncs_per_cycle {} is not finite and non-negative",
            estimate.syncs_per_cycle
        ));
    }
    if estimate.physical_qubits < estimate.logical_qubits {
        err(format!(
            "physical qubits {} below logical qubits {}",
            estimate.physical_qubits, estimate.logical_qubits
        ));
    }
    diags
}

/// `FTQC017`: the QASM source must parse.
pub fn validate_qasm(label: &str, source: &str) -> Vec<Diagnostic> {
    match ftqc_qasm::Program::parse(source) {
        Ok(_) => Vec::new(),
        Err(e) => vec![Diagnostic::new(Code::QasmParse, label, 0, e.to_string())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# three detectors over two rounds, one observable
dem 3 1
detector 0 0 0 0
detector 1 1 0 0
detector 2 0 0 1
error 0.01 D0 D1
error 0.02 D1 D2
error 0.005 D0
error 0.004 D2 L0
";

    #[test]
    fn good_dem_parses_validates_and_round_trips() {
        let dem = DemFile::parse("good.dem", GOOD).unwrap();
        assert_eq!(dem.num_detectors, 3);
        assert_eq!(dem.num_observables, 1);
        assert!(dem.validate("good.dem").is_empty());
        let model = dem.to_model();
        assert_eq!(model.num_detectors(), 3);
        assert_eq!(model.mechanisms().len(), 4);
        let graph = DecodingGraph::from_dem(&model);
        assert!(validate_graph("good.dem", &model, &graph).is_empty());
    }

    #[test]
    fn parse_errors_are_ftqc010() {
        let bad = "dem 2\nwhatever 1 2\n";
        let diags = DemFile::parse("bad.dem", bad).unwrap_err();
        assert!(diags.iter().all(|d| d.code == Code::DemParse));
        // Malformed header, unknown directive, and the trailing
        // missing-header summary (the header never parsed).
        assert_eq!(diags.len(), 3, "{diags:?}");
        let headerless = DemFile::parse("h.dem", "error 0.1 D0\n").unwrap_err();
        assert!(headerless
            .iter()
            .any(|d| d.message.contains("before the `dem` header")));
    }

    #[test]
    fn semantic_errors_are_ftqc011() {
        let bad = "\
dem 2 1
detector 0 0 0 0
detector 0 0 0 0
error 1.5 D0 D1
error 0.1 D1 D0
error 0.1 D5
error 0.1 D0 L7
";
        let dem = DemFile::parse("bad.dem", bad).unwrap();
        let diags = dem.validate("bad.dem");
        let semantic: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::DemSemantic)
            .collect();
        // duplicate decl, missing decl (id 1), p out of range, not
        // ascending, undeclared D5, observable out of range.
        assert_eq!(semantic.len(), 6, "{diags:?}");
    }

    #[test]
    fn round_structure_errors_are_ftqc012() {
        // Detector ids not grouped by ascending round.
        let unsorted = "\
dem 2 0
detector 0 0 0 1
detector 1 0 0 0
error 0.1 D0 D1
";
        let dem = DemFile::parse("u.dem", unsorted).unwrap();
        assert!(dem
            .validate("u.dem")
            .iter()
            .any(|d| d.code == Code::DemRounds && d.message.contains("sort")));

        // Round tags skipping a value.
        let gap = "\
dem 2 0
detector 0 0 0 0
detector 1 0 0 2
error 0.1 D0 D1
";
        let dem = DemFile::parse("g.dem", gap).unwrap();
        assert!(dem
            .validate("g.dem")
            .iter()
            .any(|d| d.code == Code::DemRounds && d.message.contains("contiguous")));
    }

    #[test]
    fn graph_validation_passes_on_real_graphs() {
        let model = DemFile::parse("good.dem", GOOD).unwrap().to_model();
        let graph = DecodingGraph::from_dem(&model);
        assert!(validate_graph("good.dem", &model, &graph).is_empty());
    }

    #[test]
    fn unreachable_component_is_ftqc013() {
        // Two detectors joined by one internal edge, no boundary edge
        // anywhere: consistent CSR, but the component cannot reach a
        // boundary.
        let model = DetectorErrorModel::from_parts(
            2,
            0,
            vec![Mechanism {
                probability: 0.1,
                detectors: vec![0, 1],
                observables: 0,
            }],
        );
        let graph = DecodingGraph::from_dem(&model);
        let diags = validate_graph("island.dem", &model, &graph);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::GraphCsr && d.message.contains("boundary")),
            "{diags:?}"
        );
    }

    #[test]
    fn merged_probability_outside_the_unit_interval_is_ftqc013() {
        // D0 and D1 each reach the boundary; the D0-D1 class merges
        // `parallel` mechanisms, which here come out at exactly 0 or 1.
        let model = |parallel: &[f64]| {
            let mut mechanisms: Vec<Mechanism> = [0u32, 1]
                .iter()
                .map(|&d| Mechanism {
                    probability: 0.01,
                    detectors: vec![d],
                    observables: 0,
                })
                .collect();
            mechanisms.extend(parallel.iter().map(|&probability| Mechanism {
                probability,
                detectors: vec![0, 1],
                observables: 0,
            }));
            DetectorErrorModel::from_parts(2, 0, mechanisms)
        };
        for (parallel, merged) in [
            (&[0.0][..], 0.0),
            (&[1.0][..], 1.0),
            (&[1.0, 1.0][..], 0.0),
            (&[0.0, 1.0][..], 1.0),
        ] {
            let dem = model(parallel);
            let graph = DecodingGraph::from_dem(&dem);
            let diags = validate_graph("p.dem", &dem, &graph);
            assert_eq!(diags.len(), 1, "{parallel:?}: {diags:?}");
            assert_eq!(diags[0].code, Code::GraphCsr);
            assert!(
                diags[0]
                    .message
                    .contains(&format!("probability {merged} outside (0, 1)")),
                "{parallel:?}: {diags:?}"
            );
        }
        let dem = model(&[0.5, 0.5]);
        assert!(validate_graph("p.dem", &dem, &DecodingGraph::from_dem(&dem)).is_empty());
    }

    #[test]
    fn scratch_capacity_cross_check() {
        let dem = DemFile::parse("good.dem", GOOD).unwrap().to_model();
        let graph = DecodingGraph::from_dem(&dem);
        let good = ScratchCapacity::for_graph(&graph, 0);
        assert!(validate_scratch("good.dem", &dem, good).is_empty());
        let wrong = ScratchCapacity {
            nodes: good.nodes,
            edges: good.edges + 1,
            exact_limit: 0,
        };
        let diags = validate_scratch("good.dem", &dem, wrong);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::ScratchCapacity);
    }

    #[test]
    fn window_domain_check() {
        // GOOD has a round-spanning edge (D1 round 0 — D2 round 1), so
        // the maximum reach is 1 and the minimum usable fused window
        // is 2 rounds.
        let file = DemFile::parse("good.dem", GOOD).unwrap();
        let rounds: Vec<u32> = {
            let mut by_id = file.detectors.clone();
            by_id.sort_by_key(|&(_, id, _)| id);
            by_id.iter().map(|&(_, _, r)| r as u32).collect()
        };
        let graph = DecodingGraph::from_dem(&file.to_model());
        let round_of = |d: u32| rounds[d as usize];
        assert!(validate_window("good.dem", &graph, round_of, 2).is_empty());
        assert!(validate_window("good.dem", &graph, round_of, 7).is_empty());
        let diags = validate_window("good.dem", &graph, round_of, 1);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::WindowDomain);
        assert!(diags[0].message.contains("at least 2 rounds"));
    }

    #[test]
    fn policy_and_distance_domains() {
        assert!(validate_policy("hybrid:eps=250,max=4").is_empty());
        assert!(validate_policy("dynamic-hybrid").is_empty());
        let diags = validate_policy("hybrid:eps=-4");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::PolicyDomain);
        assert!(validate_distance(3).is_empty());
        assert!(validate_distance(31).is_empty());
        for bad in [0, 2, 4, 33, 300] {
            assert_eq!(validate_distance(bad).len(), 1, "distance {bad}");
        }
    }

    #[test]
    fn estimate_domain_checks() {
        let workload = ftqc_estimator::workloads::qft(4);
        let est = ftqc_estimator::LogicalEstimate::for_workload(&workload, 1e-3, 0.01);
        assert!(validate_estimate(&workload.name, &est).is_empty());
        let mut bad = est.clone();
        bad.factories = 0;
        bad.syncs_per_cycle = f64::NAN;
        let diags = validate_estimate(&workload.name, &bad);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == Code::WorkloadDomain));
    }

    #[test]
    fn qasm_parse_check() {
        assert!(validate_qasm("<qasm>", "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n").is_empty());
        let diags = validate_qasm("<qasm>", "OPENQASM 2.0;\nqreg q[;\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::QasmParse);
        // A parameterised gate without its angle would panic the estimator.
        let diags = validate_qasm("<qasm>", "OPENQASM 2.0;\nqreg q[2];\ncp q[1], q[0];\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::QasmParse);
    }
}
