//! Detector error model extraction.

use crate::WordHasher;
use ftqc_circuit::{Circuit, Op};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

#[cfg(test)]
mod record_sweep;

/// One independent error mechanism: with probability `probability` the
/// listed detectors and observables flip.
#[derive(Debug, Clone, PartialEq)]
pub struct Mechanism {
    /// Occurrence probability.
    pub probability: f64,
    /// Flipped detectors, sorted ascending.
    pub detectors: Vec<u32>,
    /// Bitmask of flipped logical observables (observable `i` is bit
    /// `i`; at most 32 observables are supported).
    pub observables: u32,
}

/// Statistics from DEM extraction, mainly for diagnosing decompositions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemStats {
    /// Error-channel Pauli components examined.
    pub components: usize,
    /// Components that flip more than 2 detectors (hyperedges) and were
    /// decomposed against elementary (≤ 2 detector) edges. Counted only
    /// when decomposing.
    pub decomposed_hyperedges: usize,
    /// Hyperedges that could not be decomposed and were dropped from the
    /// model (the sampler still produces them; the decoder just has no
    /// edge for them). Nonzero values indicate a circuit structure the
    /// decoder graph cannot represent.
    pub dropped_hyperedges: usize,
    /// Decomposed hyperedges whose chosen split disagrees with the
    /// observables its parts' edges already carry, so part 0's
    /// observable was forced to make the parts XOR to the hyperedge's
    /// own. Each such part 0 is a parallel copy of an existing edge
    /// with a different observable, a single fault no decoder can
    /// correct; nonzero values flag a decoding graph built on it.
    pub forced_observable_splits: usize,
}

/// A detector error model: the set of independent error mechanisms of a
/// noisy circuit together with their detector/observable footprints.
///
/// Extracted by a backward *sensitivity sweep* (Gidney, *Stim*, 2021):
/// walking the circuit in reverse while maintaining, for every qubit,
/// the detectors and observables that an X (resp. Z) error at the
/// current position would flip. A measurement adds its record's effect
/// (the detectors and observables reading that record) to the error
/// that flips it, and a reset clears both, so every noise-channel Pauli
/// component is emitted with its detector footprint already known.
/// Components with the same footprint merge as independent events.
///
/// With `decompose` enabled (the default for matching decoders),
/// components flipping at most 2 detectors are *elementary edges*, and
/// every larger component — a hyperedge, typically a Y error or a
/// two-qubit error whose X and Z parts land on different edges — is
/// split greedily into elementary edges: its lowest detector pairs with
/// each other detector in turn, then stands alone as a boundary edge,
/// and the first complete split wins. Each part takes the observable
/// last seen on its edge and part 0 absorbs any remainder, so the parts
/// XOR to the hyperedge's observable ([`DemStats`] counts the splits
/// where that forces part 0). Hyperedges with no split are dropped and
/// counted.
///
/// # Example
///
/// ```
/// use ftqc_circuit::{Circuit, DetectorBasis, MeasRef, Op};
/// use ftqc_sim::DetectorErrorModel;
///
/// let mut c = Circuit::new(1);
/// c.push(Op::ResetZ(vec![0]));
/// c.push(Op::Depolarize1 { qubits: vec![0], p: 0.01 });
/// c.push(Op::measure_z([0], 0.0));
/// c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
/// let (dem, stats) = DetectorErrorModel::from_circuit(&c, true);
/// assert_eq!(dem.mechanisms().len(), 1); // X and Y components merge
/// assert_eq!(stats.dropped_hyperedges, 0);
/// ```
#[derive(Debug, Clone)]
pub struct DetectorErrorModel {
    num_detectors: usize,
    num_observables: usize,
    mechanisms: Vec<Mechanism>,
}

impl DetectorErrorModel {
    /// Extracts the detector error model of `circuit`.
    ///
    /// With `decompose = true`, components flipping more than 2
    /// detectors are greedily decomposed against the elementary
    /// (≤ 2 detector) mechanisms, as the type-level docs describe.
    ///
    /// # Panics
    ///
    /// Panics if an `OBSERVABLE_INCLUDE` names observable 32 or higher,
    /// since observables travel as a `u32` mask. [`Circuit::parse`]
    /// rejects such text, so only a circuit built op by op can get here.
    pub fn from_circuit(circuit: &Circuit, decompose: bool) -> (DetectorErrorModel, DemStats) {
        Extractor::new(circuit).extract(decompose)
    }
    /// Assembles a model directly from its parts — the seam
    /// `ftqc-analyzer` uses to reconstruct a model from a `.dem` text
    /// file. No validation happens here; run the analyzer's artifact
    /// checks over the result before decoding through it.
    pub fn from_parts(
        num_detectors: usize,
        num_observables: usize,
        mechanisms: Vec<Mechanism>,
    ) -> DetectorErrorModel {
        DetectorErrorModel {
            num_detectors,
            num_observables,
            mechanisms,
        }
    }

    /// Number of detectors in the underlying circuit.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of observables in the underlying circuit.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// The independent error mechanisms.
    pub fn mechanisms(&self) -> &[Mechanism] {
        &self.mechanisms
    }
}

/// Inline capacity of a [`DetSet`]: no effect or component of the
/// workspace's memory and surgery circuits flips more detectors.
const INLINE: usize = 4;

/// Padding of a [`DetSet::Inline`]'s unused slots; no detector index
/// reaches it.
const NONE: u32 = u32::MAX;

/// A sorted set of detector indices. Up to [`INLINE`] detectors sit
/// inline, padded with [`NONE`], so copying, hashing and comparing a set
/// never touches the heap; longer sets spill to a boxed slice. A set
/// spills only when it must, so equal sets are equal values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum DetSet {
    Inline([u32; INLINE]),
    Spilled(Box<[u32]>),
}

impl DetSet {
    const EMPTY: DetSet = DetSet::Inline([NONE; INLINE]);

    fn new(dets: &[u32]) -> DetSet {
        if dets.len() > INLINE {
            return DetSet::Spilled(dets.into());
        }
        let mut inline = [NONE; INLINE];
        inline[..dets.len()].copy_from_slice(dets);
        DetSet::Inline(inline)
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            DetSet::Inline(d) => &d[..d.iter().position(|&x| x == NONE).unwrap_or(INLINE)],
            DetSet::Spilled(d) => d,
        }
    }
}

/// What one Pauli error, or one measurement-record flip, flips
/// downstream: a set of detectors and a mask of observables.
#[derive(Debug, Clone)]
struct Effect {
    dets: DetSet,
    obs: u32,
}

impl Effect {
    const EMPTY: Effect = Effect {
        dets: DetSet::EMPTY,
        obs: 0,
    };

    /// The effect of both errors together; `buf` is scratch.
    fn xor(&self, other: &Effect, buf: &mut Vec<u32>) -> Effect {
        symdiff_into(self.dets.as_slice(), other.dets.as_slice(), buf);
        Effect {
            dets: DetSet::new(buf),
            obs: self.obs ^ other.obs,
        }
    }
}

/// Writes the symmetric difference (XOR) of the sorted sets `a` and `b`
/// to `out`.
fn symdiff_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
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
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Folds one more independent event of probability `p` into `key`'s:
/// two ways to produce the same flip pattern combine as "exactly one
/// occurs".
fn accumulate(probs: &mut WordMap<(DetSet, u32), f64>, key: (DetSet, u32), p: f64) {
    let e = probs.entry(key).or_insert(0.0);
    *e = *e * (1.0 - p) + p * (1.0 - *e);
}

/// Merges emitted components into mechanisms. Every footprint's
/// probability combines its components in emission order — the
/// hyperedges' parts after every elementary edge — so the result is
/// the same to the bit however the sweep is organised.
struct Merger {
    decompose: bool,
    /// Probability of each (detectors, observables) mechanism.
    probs: WordMap<(DetSet, u32), f64>,
    /// The last-seen observable of each elementary footprint; only kept
    /// when decomposing.
    edge_obs: WordMap<DetSet, u32>,
    /// Hyperedge components (footprint, observables, probability)
    /// awaiting decomposition, in emission order.
    hyperedges: Vec<(DetSet, u32, f64)>,
}

impl Merger {
    fn new(decompose: bool) -> Merger {
        Merger {
            decompose,
            probs: WordMap::default(),
            edge_obs: WordMap::default(),
            hyperedges: Vec::new(),
        }
    }

    /// Takes one component with probability `p`: it flips `dets` and
    /// the observables in `obs`.
    fn emit(&mut self, p: f64, dets: &[u32], obs: u32) {
        if dets.is_empty() && obs == 0 {
            return;
        }
        let footprint = DetSet::new(dets);
        if self.decompose {
            if dets.len() > 2 {
                self.hyperedges.push((footprint, obs, p));
                return;
            }
            self.edge_obs.insert(footprint.clone(), obs);
        }
        accumulate(&mut self.probs, (footprint, obs), p);
    }

    /// Decomposes the queued hyperedges — each distinct footprint once —
    /// and returns the mechanisms sorted by detectors, then observables.
    fn finish(mut self, stats: &mut DemStats) -> Vec<Mechanism> {
        // Each distinct footprint's split: its parts' range in `parts`
        // and the XOR of their edges' observables, or None if it has
        // none.
        let mut splits: WordMap<DetSet, Option<(usize, usize, u32)>> = WordMap::default();
        let mut parts: Vec<(DetSet, u32)> = Vec::new();
        let mut used: Vec<bool> = Vec::new();
        let edge_obs = |part: &DetSet| self.edge_obs.get(part).copied();
        for (footprint, obs, p) in std::mem::take(&mut self.hyperedges) {
            stats.decomposed_hyperedges += 1;
            let split = *splits.entry(footprint).or_insert_with_key(|footprint| {
                let dets = footprint.as_slice();
                used.clear();
                used.resize(dets.len(), false);
                let start = parts.len();
                let found = split_into_edges(dets, &mut used, &edge_obs, &mut parts);
                let known = parts[start..].iter().fold(0, |acc, (_, o)| acc ^ o);
                found.then_some((start, parts.len(), known))
            });
            let Some((start, end, known)) = split else {
                stats.dropped_hyperedges += 1;
                continue;
            };
            let forced = obs ^ known;
            if forced != 0 {
                stats.forced_observable_splits += 1;
            }
            for (i, (part, known)) in parts[start..end].iter().enumerate() {
                let o = if i == 0 { known ^ forced } else { *known };
                accumulate(&mut self.probs, (part.clone(), o), p);
            }
        }
        let mut mechanisms: Vec<Mechanism> = self
            .probs
            .into_iter()
            .filter(|&(_, p)| p > 0.0)
            .map(|((dets, observables), probability)| Mechanism {
                probability,
                detectors: dets.as_slice().to_vec(),
                observables,
            })
            .collect();
        // Keys are distinct, so the unstable sort is deterministic.
        mechanisms.sort_unstable_by(|a, b| {
            a.detectors
                .cmp(&b.detectors)
                .then(a.observables.cmp(&b.observables))
        });
        mechanisms
    }
}

/// Greedily partitions the entries of `dets` not yet `used` into
/// elementary edges — footprints for which `edge_obs` gives an
/// observable: the first unused detector pairs with each later unused
/// one in turn, then stands alone as a boundary edge, and the first
/// complete split wins. On success pushes the parts and their edges'
/// observables onto `parts` and returns true; otherwise leaves `parts`
/// and `used` as they were.
fn split_into_edges(
    dets: &[u32],
    used: &mut [bool],
    edge_obs: &impl Fn(&DetSet) -> Option<u32>,
    parts: &mut Vec<(DetSet, u32)>,
) -> bool {
    let Some(first) = used.iter().position(|&u| !u) else {
        return true;
    };
    used[first] = true;
    // Partners for `first`: each later unused detector, then
    // `dets.len()`, which stands for none (a boundary edge).
    for other in first + 1..=dets.len() {
        let partner = (other < dets.len()).then_some(other);
        let part = match partner {
            Some(i) if used[i] => continue,
            Some(i) => DetSet::new(&[dets[first], dets[i]]),
            None => DetSet::new(&[dets[first]]),
        };
        let Some(obs) = edge_obs(&part) else {
            continue;
        };
        if let Some(i) = partner {
            used[i] = true;
        }
        parts.push((part, obs));
        if split_into_edges(dets, used, edge_obs, parts) {
            return true;
        }
        parts.pop();
        if let Some(i) = partner {
            used[i] = false;
        }
    }
    used[first] = false;
    false
}

/// The backward sensitivity sweep.
struct Extractor<'a> {
    circuit: &'a Circuit,
    /// What an X error on qubit q at the current (reverse) position
    /// flips.
    eff_x: Vec<Effect>,
    /// What a Z error on qubit q flips.
    eff_z: Vec<Effect>,
    /// What a flip of each measurement record flips.
    records: Vec<Effect>,
    /// Scratch for symmetric differences.
    buf: Vec<u32>,
}

impl<'a> Extractor<'a> {
    fn new(circuit: &'a Circuit) -> Extractor<'a> {
        let n = circuit.num_qubits() as usize;
        let mut records = vec![Effect::EMPTY; circuit.num_measurements() as usize];
        let mut buf = Vec::new();
        let mut det = 0u32;
        for op in circuit.ops() {
            match op {
                Op::Detector { records: refs, .. } => {
                    // Toggle, so a record listed twice cancels as it does
                    // in the sampler.
                    for r in refs {
                        let effect = &mut records[r.0 as usize];
                        symdiff_into(effect.dets.as_slice(), &[det], &mut buf);
                        effect.dets = DetSet::new(&buf);
                    }
                    det += 1;
                }
                Op::ObservableInclude {
                    observable,
                    records: refs,
                } => {
                    assert!(
                        *observable < 32,
                        "at most 32 observables supported, got index {observable}"
                    );
                    for r in refs {
                        records[r.0 as usize].obs ^= 1u32 << observable;
                    }
                }
                _ => {}
            }
        }
        Extractor {
            circuit,
            eff_x: vec![Effect::EMPTY; n],
            eff_z: vec![Effect::EMPTY; n],
            records,
            buf,
        }
    }

    fn extract(mut self, decompose: bool) -> (DetectorErrorModel, DemStats) {
        let mut stats = DemStats::default();
        let mut merger = Merger::new(decompose);
        let mut next_record = self.records.len();
        for op in self.circuit.ops().iter().rev() {
            match op {
                Op::H(qs) => {
                    for &q in qs {
                        let q = q as usize;
                        std::mem::swap(&mut self.eff_x[q], &mut self.eff_z[q]);
                    }
                }
                Op::S(qs) => {
                    // X -> Y = X*Z after the gate, so the effect of an X
                    // inserted before S is effX xor effZ.
                    for &q in qs {
                        let q = q as usize;
                        self.eff_x[q] = self.eff_x[q].xor(&self.eff_z[q], &mut self.buf);
                    }
                }
                Op::X(_) | Op::Y(_) | Op::Z(_) => {}
                Op::Cx(pairs) => {
                    for &(c, t) in pairs {
                        let (c, t) = (c as usize, t as usize);
                        // X_c -> X_c X_t; Z_t -> Z_c Z_t.
                        self.eff_x[c] = self.eff_x[c].xor(&self.eff_x[t], &mut self.buf);
                        self.eff_z[t] = self.eff_z[t].xor(&self.eff_z[c], &mut self.buf);
                    }
                }
                Op::ResetZ(qs) | Op::ResetX(qs) => {
                    for &q in qs {
                        self.eff_x[q as usize] = Effect::EMPTY;
                        self.eff_z[q as usize] = Effect::EMPTY;
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
                    let reset = matches!(op, Op::MeasureReset { .. });
                    let (flipping, other) = if matches!(op, Op::MeasureX { .. }) {
                        (&mut self.eff_z, &mut self.eff_x)
                    } else {
                        (&mut self.eff_x, &mut self.eff_z)
                    };
                    for &q in qubits.iter().rev() {
                        let q = q as usize;
                        next_record -= 1;
                        stats.components += 1;
                        let record = &self.records[next_record];
                        // An error that flips the record also keeps its
                        // later effect, unless a reset follows; an error
                        // in the other basis neither flips nor survives.
                        flipping[q] = if reset {
                            record.clone()
                        } else {
                            flipping[q].xor(record, &mut self.buf)
                        };
                        other[q] = Effect::EMPTY;
                        // A classical readout flip is a mechanism of its own.
                        if *flip_probability > 0.0 {
                            merger.emit(*flip_probability, record.dets.as_slice(), record.obs);
                        }
                    }
                }
                Op::PauliChannel { qubits, px, py, pz } => {
                    for &q in qubits {
                        stats.components += 3;
                        self.emit_paulis(&mut merger, q as usize, [*px, *py, *pz]);
                    }
                }
                Op::Depolarize1 { qubits, p } => {
                    let pc = p / 3.0;
                    for &q in qubits {
                        stats.components += 3;
                        self.emit_paulis(&mut merger, q as usize, [pc; 3]);
                    }
                }
                Op::Depolarize2 { pairs, p } => {
                    let pc = p / 15.0;
                    if pc <= 0.0 {
                        continue;
                    }
                    for &(a, b) in pairs {
                        stats.components += 15;
                        let on_a = self.paulis(a as usize);
                        let on_b = self.paulis(b as usize);
                        // Code 0..16 is the Pauli pair (code >> 2, code & 3)
                        // with 0 = I, 1 = X, 2 = Y, 3 = Z.
                        for code in 1..16 {
                            let (ea, eb) = (&on_a[code >> 2], &on_b[code & 3]);
                            symdiff_into(ea.dets.as_slice(), eb.dets.as_slice(), &mut self.buf);
                            merger.emit(pc, &self.buf, ea.obs ^ eb.obs);
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

    /// The effects of I, X, Y and Z on qubit `q`.
    fn paulis(&mut self, q: usize) -> [Effect; 4] {
        let (x, z) = (&self.eff_x[q], &self.eff_z[q]);
        [Effect::EMPTY, x.clone(), x.xor(z, &mut self.buf), z.clone()]
    }

    /// Emits the X, Y and Z components of a single-qubit channel on `q`
    /// with probabilities `pxyz`, skipping those that never happen.
    fn emit_paulis(&mut self, merger: &mut Merger, q: usize, [px, py, pz]: [f64; 3]) {
        let (x, z) = (&self.eff_x[q], &self.eff_z[q]);
        if px > 0.0 {
            merger.emit(px, x.dets.as_slice(), x.obs);
        }
        if py > 0.0 {
            symdiff_into(x.dets.as_slice(), z.dets.as_slice(), &mut self.buf);
            merger.emit(py, &self.buf, x.obs ^ z.obs);
        }
        if pz > 0.0 {
            merger.emit(pz, z.dets.as_slice(), z.obs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_circuit::{DetectorBasis, MeasRef};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn symdiff_basics() {
        let mut out = Vec::new();
        for (a, b, want) in [
            (&[1, 3, 5][..], &[3, 4][..], &[1, 4, 5][..]),
            (&[], &[2], &[2]),
            (&[2], &[2], &[]),
        ] {
            assert_eq!(record_sweep::symdiff(a, b), want);
            symdiff_into(a, b, &mut out);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn det_sets_spill_only_past_inline_capacity() {
        let inline = DetSet::new(&[1, 2, 3, 4]);
        assert!(matches!(inline, DetSet::Inline(_)));
        assert_eq!(inline.as_slice(), [1, 2, 3, 4]);
        let spilled = DetSet::new(&[1, 2, 3, 4, 5]);
        assert!(matches!(spilled, DetSet::Spilled(_)));
        assert_eq!(spilled.as_slice(), [1, 2, 3, 4, 5]);
        assert_eq!(DetSet::new(&[]), DetSet::EMPTY);
        assert!(DetSet::EMPTY.as_slice().is_empty());
    }

    #[test]
    fn single_qubit_channel_footprint() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.01,
            py: 0.0,
            pz: 0.02,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        // Only the X component flips the detector; the Z component has no
        // footprint and is dropped.
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].detectors, vec![0]);
        assert!((dem.mechanisms()[0].probability - 0.01).abs() < 1e-12);
    }

    #[test]
    fn x_and_y_components_merge() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::Depolarize1 {
            qubits: vec![0],
            p: 0.3,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        assert_eq!(dem.mechanisms().len(), 1);
        // p(X) + p(Y) - 2 p(X) p(Y) with each 0.1.
        let expect = 0.1 + 0.1 - 2.0 * 0.01;
        assert!((dem.mechanisms()[0].probability - expect).abs() < 1e-12);
    }

    #[test]
    fn cx_propagation_reaches_both_records() {
        // X error on control before CX flips both subsequent Z
        // measurements.
        let mut c = Circuit::new(2);
        c.push(Op::ResetZ(vec![0, 1]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.05,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::cx([(0, 1)]));
        c.push(Op::measure_z([0, 1], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(1)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].detectors, vec![0, 1]);
    }

    #[test]
    fn observables_tracked() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.01,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::ObservableInclude {
            observable: 2,
            records: vec![MeasRef(0)],
        });
        let (dem, _) = DetectorErrorModel::from_circuit(&c, false);
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].observables, 1 << 2);
        assert_eq!(dem.num_observables(), 3);
    }

    #[test]
    fn measurement_flip_is_its_own_mechanism() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::measure_reset([0], 0.0));
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0), MeasRef(1)], DetectorBasis::Z));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.0,
            py: 0.0,
            pz: 0.0,
        });
        // No noise at all: empty DEM.
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        assert!(dem.mechanisms().is_empty());
    }

    #[test]
    fn x_before_measure_reset_hits_only_that_record() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.02,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_reset([0], 0.0));
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(1)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].detectors, vec![0]);
    }

    #[test]
    fn h_swaps_sensitivity() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.0,
            py: 0.0,
            pz: 0.04,
        });
        c.push(Op::h([0]));
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        assert_eq!(dem.mechanisms().len(), 1);
        assert!((dem.mechanisms()[0].probability - 0.04).abs() < 1e-12);
    }

    /// Runs the greedy split of `dets` against `edges`.
    fn split(dets: &[u32], edges: &[&[u32]]) -> Option<Vec<Vec<u32>>> {
        let edges: Vec<DetSet> = edges.iter().map(|e| DetSet::new(e)).collect();
        let edge_obs = |part: &DetSet| edges.contains(part).then_some(0);
        let mut used = vec![false; dets.len()];
        let mut parts = Vec::new();
        split_into_edges(dets, &mut used, &edge_obs, &mut parts)
            .then(|| parts.iter().map(|(p, _)| p.as_slice().to_vec()).collect())
    }

    #[test]
    fn decompose_against_splits_into_pairs() {
        let pairs: [&[u32]; 2] = [&[0, 1], &[2, 3]];
        let want = vec![vec![0, 1], vec![2, 3]];
        assert_eq!(split(&[0, 1, 2, 3], &pairs), Some(want));
        assert!(split(&[0, 2, 3], &pairs).is_none());
        let with_boundary: [&[u32]; 3] = [&[0, 1], &[2, 3], &[0]];
        let want = vec![vec![0], vec![2, 3]];
        assert_eq!(split(&[0, 2, 3], &with_boundary), Some(want));
    }

    #[test]
    fn split_backtracks_in_the_reference_order() {
        // Pairing 0 with 1 strands 2 and 3; pairing 0 with 2 works, and
        // is found before the boundary edge {0}.
        let edges: [&[u32]; 4] = [&[0, 1], &[0, 2], &[1, 3], &[0]];
        let want = vec![vec![0, 2], vec![1, 3]];
        assert_eq!(split(&[0, 1, 2, 3], &edges), Some(want));
    }

    /// `R 0; PAULI_CHANNEL_1(0.01, 0, 0) 0; M 0; DETECTOR rec[0] rec[0];
    /// DETECTOR rec[0]`.
    fn record_listed_twice() -> Circuit {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.01,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0), MeasRef(0)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c
    }

    #[test]
    fn record_listed_twice_in_a_detector_cancels() {
        let c = record_listed_twice();
        // The sampler XORs the two copies away: detector 0 never fires.
        let batch = crate::sample_batch(&c, 4096, 3);
        assert_eq!(batch.count_detector_flips(0), 0);
        for decompose in [true, false] {
            let (dem, stats) = DetectorErrorModel::from_circuit(&c, decompose);
            let want = vec![Mechanism {
                probability: 0.01,
                detectors: vec![1],
                observables: 0,
            }];
            assert_eq!(dem.mechanisms(), want, "decompose = {decompose}");
            assert_eq!(stats.dropped_hyperedges, 0);
        }
    }

    #[test]
    #[should_panic(expected = "at most 32 observables supported")]
    fn observable_32_panics_when_built_op_by_op() {
        let mut c = Circuit::new(1);
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::ObservableInclude {
            observable: 32,
            records: vec![MeasRef(0)],
        });
        let _ = DetectorErrorModel::from_circuit(&c, true);
    }

    #[test]
    fn forced_split_is_counted() {
        // X errors on qubits 0..4 flip {0, 2}, {1}, {0, 1} and {2} +
        // observable 0. An X0 X1 error flips {0, 1, 2}, whose greedy
        // split is {0, 1} + {2}: those edges' observables XOR to 1 while
        // the error's is 0, so part 0 is forced to a parallel {0, 1}
        // with observable 0 flipped.
        let mut c = Circuit::new(4);
        c.push(Op::ResetZ(vec![0, 1, 2, 3]));
        c.push(Op::PauliChannel {
            qubits: vec![0, 1, 2, 3],
            px: 0.01,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::Depolarize2 {
            pairs: vec![(0, 1)],
            p: 0.015,
        });
        c.push(Op::measure_z([0, 1, 2, 3], 0.0));
        c.push(Op::detector([MeasRef(0), MeasRef(2)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(1), MeasRef(2)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(0), MeasRef(3)], DetectorBasis::Z));
        c.push(Op::ObservableInclude {
            observable: 0,
            records: vec![MeasRef(3)],
        });
        let (dem, stats) = DetectorErrorModel::from_circuit(&c, true);
        // X0 X1, X0 Y1, Y0 X1 and Y0 Y1 all flip {0, 1, 2}.
        assert_eq!(stats.decomposed_hyperedges, 4);
        assert_eq!(stats.forced_observable_splits, 4);
        assert!(dem
            .mechanisms()
            .iter()
            .any(|m| m.detectors == [0, 1] && m.observables == 1));
        let (reference, reference_stats) = record_sweep::from_circuit(&c, true);
        assert_eq!(stats, reference_stats);
        assert_eq!(dem.mechanisms(), reference.mechanisms());
    }

    #[test]
    fn split_parts_take_the_last_seen_edge_observable() {
        // X0 flips {0, 1}; X1 flips {2}; X2 flips {2} and observable 0;
        // X3 flips {0, 1, 2}, which splits as {0, 1} + {2}. The sweep
        // emits X2 after X1, so edge {2} carries X2's observable, and
        // part {0, 1} is forced to flip it back.
        let mut c = Circuit::new(4);
        c.push(Op::ResetZ(vec![0, 1, 2, 3]));
        c.push(Op::PauliChannel {
            qubits: vec![0, 1, 2, 3],
            px: 0.01,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_z([0, 1, 2, 3], 0.0));
        let [r0, r1, r2, r3] = [0, 1, 2, 3].map(MeasRef);
        c.push(Op::detector([r0, r3], DetectorBasis::Z));
        c.push(Op::detector([r0, r3], DetectorBasis::Z));
        c.push(Op::detector([r1, r2, r3], DetectorBasis::Z));
        c.push(Op::ObservableInclude {
            observable: 0,
            records: vec![r2],
        });
        let (dem, stats) = DetectorErrorModel::from_circuit(&c, true);
        assert_eq!(stats.decomposed_hyperedges, 1);
        assert_eq!(stats.forced_observable_splits, 1);
        let footprints: Vec<(&[u32], u32)> = dem
            .mechanisms()
            .iter()
            .map(|m| (&m.detectors[..], m.observables))
            .collect();
        assert_eq!(
            footprints,
            [(&[0, 1][..], 0), (&[0, 1], 1), (&[2], 0), (&[2], 1)]
        );
        let (reference, reference_stats) = record_sweep::from_circuit(&c, true);
        assert_eq!(stats, reference_stats);
        assert_eq!(dem.mechanisms(), reference.mechanisms());
    }

    #[test]
    fn dem_rates_match_sampler() {
        // Cross-validate: detector marginal rate predicted by the DEM
        // matches the frame sampler on a two-detector circuit.
        let mut c = Circuit::new(2);
        c.push(Op::ResetZ(vec![0, 1]));
        c.push(Op::Depolarize2 {
            pairs: vec![(0, 1)],
            p: 0.15,
        });
        c.push(Op::measure_z([0, 1], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(1)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, false);
        // Predicted marginal for detector 0: sum over mechanisms
        // containing it (small p approximation fine at exact level here
        // because mechanisms are disjoint events from one channel).
        let p0: f64 = dem
            .mechanisms()
            .iter()
            .filter(|m| m.detectors.contains(&0))
            .map(|m| m.probability)
            .sum();
        let batch = crate::sample_batch(&c, 400_000, 17);
        let measured = batch.count_detector_flips(0) as f64 / 400_000.0;
        assert!(
            (p0 - measured).abs() < 0.005,
            "dem {p0} vs sampled {measured}"
        );
    }

    /// A random noisy circuit over `n` qubits: Clifford gates, all three
    /// resets and measurements (some with readout flips), all three
    /// channels, and detectors and observables over distinct earlier
    /// records — some wide enough to spill past [`INLINE`].
    fn random_circuit(rng: &mut SmallRng) -> Circuit {
        let n = rng.gen_range(1..6u32);
        let mut c = Circuit::new(n);
        let noise = |rng: &mut SmallRng| {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen::<f64>() * 0.1
            }
        };
        for _ in 0..rng.gen_range(4..40usize) {
            let q = rng.gen_range(0..n);
            let pair = (q, (q + rng.gen_range(1..n.max(2))) % n);
            let op = match rng.gen_range(0..13u32) {
                0 => Op::h([q]),
                1 => Op::S(vec![q]),
                2 if n > 1 => Op::cx([pair]),
                3 => Op::ResetZ(vec![q]),
                4 => Op::ResetX(vec![q]),
                5 => Op::measure_z([q], noise(rng)),
                6 => Op::measure_x([q], noise(rng)),
                7 => Op::measure_reset([q], noise(rng)),
                8 => Op::PauliChannel {
                    qubits: vec![q],
                    px: noise(rng),
                    py: noise(rng),
                    pz: noise(rng),
                },
                9 => Op::Depolarize1 {
                    qubits: vec![q],
                    p: noise(rng),
                },
                10 if n > 1 => Op::Depolarize2 {
                    pairs: vec![pair],
                    p: noise(rng),
                },
                _ => Op::X(vec![q]),
            };
            c.push(op);
            let measured = c.num_measurements();
            if measured == 0 {
                continue;
            }
            // Distinct records: the reference maps records to detectors
            // assuming so.
            let distinct = |rng: &mut SmallRng, max: u32| {
                let mut records: Vec<MeasRef> = (0..measured)
                    .filter(|_| rng.gen_bool(0.5))
                    .map(MeasRef)
                    .collect();
                records.truncate(max as usize);
                records
            };
            for _ in 0..rng.gen_range(0..3usize) {
                let wide = if rng.gen_bool(0.2) { 8 } else { 2 };
                let records = distinct(rng, wide);
                if !records.is_empty() {
                    c.push(Op::detector(records, DetectorBasis::Z));
                }
            }
            if rng.gen_bool(0.3) {
                c.push(Op::ObservableInclude {
                    observable: rng.gen_range(0..3),
                    records: distinct(rng, 3),
                });
            }
        }
        c
    }

    #[test]
    fn sweep_matches_record_space_reference_on_random_circuits() {
        let mut rng = SmallRng::seed_from_u64(2021);
        let (mut spilled, mut decomposed, mut dropped, mut forced) = (0, 0, 0, 0);
        for case in 0..2000 {
            let c = random_circuit(&mut rng);
            for decompose in [true, false] {
                let (dem, stats) = DetectorErrorModel::from_circuit(&c, decompose);
                let (want, want_stats) = record_sweep::from_circuit(&c, decompose);
                let context = format!("case {case}, decompose = {decompose}:\n{c}");
                assert_eq!(stats, want_stats, "{context}");
                assert_eq!(dem.mechanisms().len(), want.mechanisms().len(), "{context}");
                for (got, want) in dem.mechanisms().iter().zip(want.mechanisms()) {
                    assert_eq!(got.detectors, want.detectors, "{context}");
                    assert_eq!(got.observables, want.observables, "{context}");
                    assert_eq!(
                        got.probability.to_bits(),
                        want.probability.to_bits(),
                        "{context}"
                    );
                }
                spilled += dem
                    .mechanisms()
                    .iter()
                    .filter(|m| m.detectors.len() > INLINE)
                    .count();
                decomposed += stats.decomposed_hyperedges;
                dropped += stats.dropped_hyperedges;
                forced += stats.forced_observable_splits;
            }
        }
        // The corpus reaches every path it is meant to cover.
        for (path, hits) in [
            ("spilled footprints", spilled),
            ("decomposed hyperedges", decomposed),
            ("dropped hyperedges", dropped),
            ("forced splits", forced),
        ] {
            assert!(hits > 0, "no {path} in the random corpus");
        }
    }
}
