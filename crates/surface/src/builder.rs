//! Timed circuit generation for memory and Lattice Surgery experiments.

use crate::geometry::{Ancilla, Lattice, StabKind};
use ftqc_circuit::{DetectorBasis, MeasRef, Op, Qubit, Schedule};
use ftqc_noise::HardwareConfig;
use ftqc_sync::{PolicySpec, SyncPlan};
use std::collections::HashMap;

/// Observable index of `X_P` (resp. `Z_P` for X-basis surgery).
pub const OBS_P: u32 = 0;
/// Observable index of `X_P'` (resp. `Z_P'`).
pub const OBS_P_PRIME: u32 = 1;
/// Observable index of the Lattice Surgery parity `X_P X_P'` (resp.
/// `Z_P Z_P'`) — the product of the first-round outcomes of the new
/// seam stabilizers, i.e. the logical measurement the surgery performs
/// (paper Fig. 13).
pub const OBS_MERGED: u32 = 2;

/// Which Lattice Surgery basis to perform, following the paper's
/// naming: `Z`-basis surgery measures `X_P X_P'` (patches initialized
/// in `|+>`, observables `X_P X_P'` and `X_P`), `X`-basis surgery is
/// the CSS dual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LsBasis {
    /// Z-basis surgery (`X_P X_P'` measurement).
    Z,
    /// X-basis surgery (`Z_P Z_P'` measurement).
    X,
}

impl LsBasis {
    /// Whether odd-kind checks are physically X-type stabilizers.
    fn odd_is_x(self) -> bool {
        matches!(self, LsBasis::Z)
    }
}

/// Configuration for the two-patch Lattice Surgery experiment of paper
/// Fig. 13.
#[derive(Debug, Clone)]
pub struct LatticeSurgeryConfig {
    /// Code distance `d` of both patches.
    pub distance: u32,
    /// Surgery basis.
    pub basis: LsBasis,
    /// Hardware timing parameters.
    pub hardware: HardwareConfig,
    /// Syndrome rounds per patch before the merge (the paper uses
    /// `d + 1`).
    pub pre_rounds: u32,
    /// Merged syndrome rounds before the destructive readout (`d + 1`).
    pub merged_rounds: u32,
    /// Synchronization plan applied to the leading patch `P`, made for `pre_rounds` rounds.
    pub plan: SyncPlan,
    /// Extra idle inserted into each round of the lagging patch `P'`,
    /// emulating the longer syndrome cycle of a different code (e.g.
    /// `T_P' - T_P` worth of additional CNOT layers for color/qLDPC
    /// patches, paper Section 7.3).
    pub lagging_round_stretch_ns: f64,
}

impl LatticeSurgeryConfig {
    /// A synchronized (no-slack) experiment at distance `d` with the
    /// paper's default `d + 1` pre-merge and merged rounds.
    ///
    /// # Panics
    ///
    /// Panics if `d` is even.
    pub fn new(distance: u32, hardware: &HardwareConfig) -> LatticeSurgeryConfig {
        assert!(distance % 2 == 1, "code distance must be odd");
        LatticeSurgeryConfig {
            distance,
            basis: LsBasis::Z,
            hardware: hardware.clone(),
            pre_rounds: distance + 1,
            merged_rounds: distance + 1,
            plan: SyncPlan::noop(PolicySpec::Passive, distance + 1),
            lagging_round_stretch_ns: 0.0,
        }
    }

    /// Builds the timed schedule (see [`lattice_surgery_schedule`]).
    pub fn build(&self) -> Schedule {
        lattice_surgery_schedule(self)
    }
}

/// Configuration for a single-patch memory experiment.
#[derive(Debug, Clone)]
pub struct MemoryConfig {
    /// Code distance.
    pub distance: u32,
    /// Memory basis (uses the same orientation conventions as the
    /// corresponding surgery basis).
    pub basis: LsBasis,
    /// Hardware timing parameters.
    pub hardware: HardwareConfig,
    /// Number of syndrome rounds.
    pub rounds: u32,
    /// Idle inserted right before the final readout.
    pub final_idle_ns: f64,
}

impl MemoryConfig {
    /// An idle-free memory experiment of `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `d` is even.
    pub fn new(distance: u32, rounds: u32, hardware: &HardwareConfig) -> MemoryConfig {
        assert!(distance % 2 == 1, "code distance must be odd");
        MemoryConfig {
            distance,
            basis: LsBasis::Z,
            hardware: hardware.clone(),
            rounds,
            final_idle_ns: 0.0,
        }
    }

    /// Builds the timed schedule (see [`memory_schedule`]).
    pub fn build(&self) -> Schedule {
        memory_schedule(self)
    }
}

/// Per-ancilla CNOT corner orders (indices into
/// [`Ancilla::neighbors`], which is `(NE, NW, SE, SW)`). The pair is
/// conflict-free (no data qubit touched twice per layer), measures
/// commuting stabilizers, and routes hook errors parallel to the
/// tracked logical strings.
const ODD_ORDER: [usize; 4] = [0, 1, 2, 3]; // NE, NW, SE, SW
const EVEN_ORDER: [usize; 4] = [0, 2, 1, 3]; // NE, SE, NW, SW

struct Emitter {
    sched: Schedule,
    hw: HardwareConfig,
    basis: LsBasis,
    d: u32,
    /// Measurement records emitted so far.
    records: u32,
    /// Last measurement of each ancilla, by grid coordinate.
    last_meas: HashMap<(u32, u32), MeasRef>,
    /// Global round counter (detector coordinates).
    round_tag: u32,
}

impl Emitter {
    fn new(num_qubits: u32, hw: &HardwareConfig, basis: LsBasis, d: u32) -> Emitter {
        Emitter {
            sched: Schedule::new(num_qubits),
            hw: hw.clone(),
            basis,
            d,
            records: 0,
            last_meas: HashMap::new(),
            round_tag: 0,
        }
    }

    fn data_qubit(&self, col: u32, row: u32) -> Qubit {
        col * self.d + row
    }

    /// The data qubits of `region`, in its coordinate order.
    fn data_qubits(&self, region: &Lattice) -> Vec<Qubit> {
        region
            .data_coords()
            .iter()
            .map(|&(i, j)| self.data_qubit(i, j))
            .collect()
    }

    fn detector_basis(&self, kind: StabKind) -> DetectorBasis {
        match (kind, self.basis.odd_is_x()) {
            (StabKind::Odd, true) | (StabKind::Even, false) => DetectorBasis::X,
            _ => DetectorBasis::Z,
        }
    }

    /// Emits reset of the given data qubits (odd-basis init for data,
    /// i.e. `|+>` for Z-basis surgery) and Z-reset of ancillas, ending
    /// at `end`.
    fn emit_init(&mut self, end: f64, data: &[Qubit], buffer_even_basis: bool, ancillas: &[Qubit]) {
        let t = end - self.hw.reset_ns;
        // Patch data is initialized in the odd-check basis; the merge
        // buffer in the even-check basis.
        let data_op = if self.basis.odd_is_x() != buffer_even_basis {
            Op::ResetX(data.to_vec())
        } else {
            Op::ResetZ(data.to_vec())
        };
        self.sched.push(t, self.hw.reset_ns, data_op);
        if !ancillas.is_empty() {
            self.sched
                .push(t, self.hw.reset_ns, Op::ResetZ(ancillas.to_vec()));
        }
    }

    /// Emits one syndrome-generation round starting at `t0` over the
    /// given ancillas. Returns the end time.
    ///
    /// `first_of_patch` controls first-round detector rules;
    /// `seam_obs` collects first-measurement records of new merge-type
    /// checks (merged phase only); `intra_gap_ns` spreads Active-intra
    /// slack across the six internal layer boundaries; `stretch_ns`
    /// lengthens the round before its readout (lagging-patch cycles).
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        t0: f64,
        ancillas: &[Ancilla],
        anc_index: &HashMap<(u32, u32), Qubit>,
        first_of_patch: bool,
        seam_obs: Option<&mut Vec<MeasRef>>,
        intra_gap_ns: f64,
        stretch_ns: f64,
    ) -> f64 {
        let hw = self.hw.clone();
        let g = intra_gap_ns;
        let x_phys: Vec<Qubit> = ancillas
            .iter()
            .filter(|a| (a.kind == StabKind::Odd) == self.basis.odd_is_x())
            .map(|a| anc_index[&(a.a, a.b)])
            .collect();
        let mut t = t0;
        // Hadamard layer on physically-X ancillas.
        if !x_phys.is_empty() {
            self.sched.push(t, hw.gate_1q_ns, Op::h(x_phys.clone()));
        }
        t += hw.gate_1q_ns + g;
        // Four CNOT layers.
        for layer in 0..4 {
            let mut pairs: Vec<(Qubit, Qubit)> = Vec::new();
            for anc in ancillas {
                let order = match anc.kind {
                    StabKind::Odd => ODD_ORDER,
                    StabKind::Even => EVEN_ORDER,
                };
                let Some((ci, rj)) = anc.neighbors[order[layer]] else {
                    continue;
                };
                let dq = self.data_qubit(ci, rj);
                let aq = anc_index[&(anc.a, anc.b)];
                let anc_is_x = (anc.kind == StabKind::Odd) == self.basis.odd_is_x();
                if anc_is_x {
                    pairs.push((aq, dq)); // ancilla controls
                } else {
                    pairs.push((dq, aq)); // data controls
                }
            }
            if !pairs.is_empty() {
                self.sched.push(t, hw.gate_2q_ns, Op::cx(pairs));
            }
            t += hw.gate_2q_ns + g;
        }
        // Second Hadamard layer.
        if !x_phys.is_empty() {
            self.sched.push(t, hw.gate_1q_ns, Op::h(x_phys));
        }
        t += hw.gate_1q_ns + g + stretch_ns;
        // Measure-and-reset all ancillas; emit detectors.
        let meas_qubits: Vec<Qubit> = ancillas.iter().map(|a| anc_index[&(a.a, a.b)]).collect();
        self.sched.push(
            t,
            hw.readout_ns + hw.reset_ns,
            Op::measure_reset(meas_qubits, 0.0),
        );
        let first_rec = self.records;
        self.records += ancillas.len() as u32;
        t += hw.readout_ns + hw.reset_ns;
        let mut seam_obs = seam_obs;
        for (k, anc) in ancillas.iter().enumerate() {
            let rec = MeasRef(first_rec + k as u32);
            let records = match self.last_meas.insert((anc.a, anc.b), rec) {
                Some(prev) => vec![prev, rec],
                // Initialization basis makes odd checks deterministic
                // in their first round.
                None if first_of_patch && anc.kind == StabKind::Odd => vec![rec],
                None => {
                    if let (Some(obs), StabKind::Odd) = (seam_obs.as_deref_mut(), anc.kind) {
                        // New merge-type check: random individually,
                        // but the product over the seam is the
                        // logical surgery measurement.
                        obs.push(rec);
                    }
                    continue;
                }
            };
            let coords = [
                2.0 * anc.a as f64,
                2.0 * anc.b as f64,
                self.round_tag as f64,
            ];
            self.sched.push(
                t,
                0.0,
                Op::Detector {
                    records,
                    basis: self.detector_basis(anc.kind),
                    coords,
                },
            );
        }
        self.round_tag += 1;
        t
    }

    /// Emits the destructive data readout in the odd-check basis plus
    /// the final odd-check detectors, starting at `t0`.
    fn final_readout(&mut self, t0: f64, region: &Lattice, anc_present: &[Ancilla]) -> f64 {
        let data = region.data_coords();
        let qubits = self.data_qubits(region);
        let op = if self.basis.odd_is_x() {
            Op::measure_x(qubits.clone(), 0.0)
        } else {
            Op::measure_z(qubits.clone(), 0.0)
        };
        self.sched.push(t0, self.hw.readout_ns, op);
        let first_rec = self.records;
        self.records += qubits.len() as u32;
        let rec_of: HashMap<(u32, u32), MeasRef> = data
            .iter()
            .enumerate()
            .map(|(k, &c)| (c, MeasRef(first_rec + k as u32)))
            .collect();
        let t_end = t0 + self.hw.readout_ns;
        for anc in anc_present.iter().filter(|a| a.kind == StabKind::Odd) {
            let mut records: Vec<MeasRef> = anc.support().map(|c| rec_of[&c]).collect();
            records.push(self.last_meas[&(anc.a, anc.b)]);
            self.sched.push(
                t_end,
                0.0,
                Op::Detector {
                    records,
                    basis: self.detector_basis(StabKind::Odd),
                    coords: [
                        2.0 * anc.a as f64,
                        2.0 * anc.b as f64,
                        self.round_tag as f64,
                    ],
                },
            );
        }
        // Logical observables: vertical odd-basis strings on the outer
        // edge columns — both edges for a merged region (P and P'),
        // only one for a single patch.
        let merged_region = region.col_hi - region.col_lo + 1 > self.d;
        let columns = [(OBS_P, region.col_lo), (OBS_P_PRIME, region.col_hi)];
        for (obs, col) in columns.into_iter().take(1 + merged_region as usize) {
            let records: Vec<MeasRef> = (0..self.d).map(|j| rec_of[&(col, j)]).collect();
            self.sched.push(
                t_end,
                0.0,
                Op::ObservableInclude {
                    observable: obs,
                    records,
                },
            );
        }
        t_end
    }
}

/// Builds the Fig. 13 Lattice Surgery experiment as a timed schedule:
///
/// 1. both distance-`d` patches are initialized in the surgery basis
///    and run `pre_rounds` syndrome rounds, with patch `P`'s
///    synchronization slack absorbed per `cfg.plan` (pre-round idles,
///    intra-round idles, extra rounds and/or a final idle);
/// 2. the buffer column is initialized and the merged `d x (2d+1)`
///    patch runs `merged_rounds` rounds — the first merged round's new
///    seam checks form the [`OBS_MERGED`] logical measurement;
/// 3. all data is read out destructively, closing the [`OBS_P`] and
///    [`OBS_P_PRIME`] observables.
///
/// The returned schedule is noiseless; feed it through a
/// [`CircuitNoiseModel`](ftqc_noise::CircuitNoiseModel) to obtain the
/// sampled circuit.
///
/// # Panics
///
/// Panics on inconsistent configurations (even distance, zero rounds,
/// or a plan made for other than `pre_rounds` pre-merge rounds).
pub fn lattice_surgery_schedule(cfg: &LatticeSurgeryConfig) -> Schedule {
    let d = cfg.distance;
    assert!(d % 2 == 1, "code distance must be odd");
    assert!(
        cfg.pre_rounds > 0 && cfg.merged_rounds > 0,
        "rounds must be positive"
    );
    let plan = cfg.plan;
    assert_eq!(plan.rounds, cfg.pre_rounds, "plan made for other rounds");
    let rounds_p = cfg.pre_rounds + plan.extra_rounds;

    let patch_p = Lattice::patch(d, 0);
    let patch_q = Lattice::patch(d, d + 1);
    let merged = Lattice::merged(d);

    // Qubit indexing: data first (column-major over the merged width),
    // then the union of all ancilla coordinates.
    let num_data = (2 * d + 1) * d;
    let mut anc_index: HashMap<(u32, u32), Qubit> = HashMap::new();
    for anc in patch_p
        .ancillas()
        .iter()
        .chain(patch_q.ancillas().iter())
        .chain(merged.ancillas().iter())
    {
        let next = num_data + anc_index.len() as u32;
        anc_index.entry((anc.a, anc.b)).or_insert(next);
    }

    let hw = cfg.hardware.clone();
    let t_round = hw.cycle_time_ns();
    let intra_total = plan.intra_round_idle_ns;
    let intra_gap = intra_total / 6.0;

    // Span of each patch's pre-merge phase.
    let span_p: f64 = hw.reset_ns
        + plan.round_idle_ns()
        + rounds_p as f64 * t_round
        + intra_total
        + plan.final_idle_ns;
    let span_q: f64 =
        hw.reset_ns + cfg.pre_rounds as f64 * (t_round + cfg.lagging_round_stretch_ns);
    let merge_at = span_p.max(span_q);

    let mut em = Emitter::new(num_data + anc_index.len() as u32, &hw, cfg.basis, d);

    // --- Patch P (leading; plan applied), anchored to end at merge_at.
    let p_anc = patch_p.ancillas();
    let p_data = em.data_qubits(&patch_p);
    let p_anc_q: Vec<Qubit> = p_anc.iter().map(|a| anc_index[&(a.a, a.b)]).collect();
    let mut t = merge_at - span_p + hw.reset_ns;
    em.emit_init(t, &p_data, false, &p_anc_q);
    for r in 0..rounds_p {
        t += plan.idle_per_round_ns;
        let is_last = r + 1 == rounds_p;
        let gap = if is_last { intra_gap } else { 0.0 };
        t = em.round(t, &p_anc, &anc_index, r == 0, None, gap, 0.0);
    }
    debug_assert!((t + plan.final_idle_ns - merge_at).abs() < 1e-6);

    // --- Patch P' (lagging), back-to-back rounds ending at merge_at.
    em.round_tag = 0;
    let q_anc = patch_q.ancillas();
    let q_data = em.data_qubits(&patch_q);
    let q_anc_q: Vec<Qubit> = q_anc.iter().map(|a| anc_index[&(a.a, a.b)]).collect();
    let mut t = merge_at - span_q + hw.reset_ns;
    em.emit_init(t, &q_data, false, &q_anc_q);
    for r in 0..cfg.pre_rounds {
        t = em.round(
            t,
            &q_anc,
            &anc_index,
            r == 0,
            None,
            0.0,
            cfg.lagging_round_stretch_ns,
        );
    }
    debug_assert!((t - merge_at).abs() < 1e-6);

    // --- Merge: initialize the buffer column and the new seam
    // ancillas, then run merged rounds.
    em.round_tag = cfg.pre_rounds.max(rounds_p);
    let m_anc = merged.ancillas();
    let buffer_data: Vec<Qubit> = (0..d).map(|j| em.data_qubit(d, j)).collect();
    let new_anc_q: Vec<Qubit> = m_anc
        .iter()
        .filter(|a| !em.last_meas.contains_key(&(a.a, a.b)))
        .map(|a| anc_index[&(a.a, a.b)])
        .collect();
    em.emit_init(merge_at, &buffer_data, true, &new_anc_q);
    let mut t = merge_at;
    let mut seam_records: Vec<MeasRef> = Vec::new();
    for r in 0..cfg.merged_rounds {
        let seam = if r == 0 {
            Some(&mut seam_records)
        } else {
            None
        };
        t = em.round(t, &m_anc, &anc_index, false, seam, 0.0, 0.0);
    }
    em.sched.push(
        t,
        0.0,
        Op::ObservableInclude {
            observable: OBS_MERGED,
            records: seam_records,
        },
    );

    // --- Destructive readout + edge-column observables.
    em.final_readout(t, &merged, &m_anc);
    em.sched
}

/// Builds a single-patch memory experiment: initialize in the
/// odd-check basis, run `rounds` syndrome rounds, idle `final_idle_ns`
/// and read out destructively; observable 0 is the vertical logical
/// string on column 0.
///
/// # Panics
///
/// Panics on an even distance or zero rounds.
pub fn memory_schedule(cfg: &MemoryConfig) -> Schedule {
    let d = cfg.distance;
    assert!(d % 2 == 1, "code distance must be odd");
    assert!(cfg.rounds > 0, "rounds must be positive");
    let patch = Lattice::patch(d, 0);
    let anc = patch.ancillas();
    let num_data = d * d;
    let mut anc_index: HashMap<(u32, u32), Qubit> = HashMap::new();
    for (k, a) in anc.iter().enumerate() {
        anc_index.insert((a.a, a.b), num_data + k as u32);
    }
    let mut em = Emitter::new(num_data + anc.len() as u32, &cfg.hardware, cfg.basis, d);
    let data = em.data_qubits(&patch);
    let anc_q: Vec<Qubit> = anc.iter().map(|a| anc_index[&(a.a, a.b)]).collect();
    let mut t = cfg.hardware.reset_ns;
    em.emit_init(t, &data, false, &anc_q);
    for r in 0..cfg.rounds {
        t = em.round(t, &anc, &anc_index, r == 0, None, 0.0, 0.0);
    }
    t += cfg.final_idle_ns;
    em.final_readout(t, &patch, &anc);
    em.sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_noise::CircuitNoiseModel;
    use ftqc_sim::{verify_deterministic, DetectorErrorModel};
    use ftqc_sync::SyncContext;

    fn plan(spec: PolicySpec, tau: f64, tp: f64, tpp: f64, rounds: u32) -> SyncPlan {
        spec.plan(&SyncContext::new(tau, tp, tpp, rounds).unwrap())
            .unwrap()
    }

    fn hw() -> HardwareConfig {
        HardwareConfig::ibm()
    }

    #[test]
    fn memory_detectors_are_deterministic() {
        for basis in [LsBasis::Z, LsBasis::X] {
            let mut cfg = MemoryConfig::new(3, 4, &hw());
            cfg.basis = basis;
            let c = CircuitNoiseModel::ideal().apply(&cfg.build());
            c.validate().unwrap();
            verify_deterministic(&c, 8).unwrap_or_else(|e| panic!("{basis:?}: {e}"));
        }
    }

    #[test]
    fn memory_counts() {
        let cfg = MemoryConfig::new(3, 4, &hw());
        let c = CircuitNoiseModel::ideal().apply(&cfg.build());
        // 4 rounds x 8 stabilizers + 9 data readouts.
        assert_eq!(c.num_measurements(), 4 * 8 + 9);
        assert_eq!(c.num_observables(), 1);
    }

    #[test]
    fn surgery_detectors_are_deterministic_both_bases() {
        for basis in [LsBasis::Z, LsBasis::X] {
            let mut cfg = LatticeSurgeryConfig::new(3, &hw());
            cfg.basis = basis;
            let c = CircuitNoiseModel::ideal().apply(&cfg.build());
            c.validate().unwrap();
            verify_deterministic(&c, 8).unwrap_or_else(|e| panic!("{basis:?}: {e}"));
        }
    }

    #[test]
    fn surgery_with_plans_stays_deterministic() {
        let t = hw().cycle_time_ns();
        for policy in [
            PolicySpec::Passive,
            PolicySpec::Active,
            PolicySpec::ActiveIntra,
        ] {
            let mut cfg = LatticeSurgeryConfig::new(3, &hw());
            cfg.plan = plan(policy, 700.0, t, t, 4);
            let c = CircuitNoiseModel::ideal().apply(&cfg.build());
            verify_deterministic(&c, 6).unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }

    #[test]
    fn surgery_hybrid_plan_adds_rounds() {
        let mut cfg = LatticeSurgeryConfig::new(3, &hw());
        cfg.plan = plan(PolicySpec::hybrid(400.0), 1000.0, 1000.0, 1325.0, 4);
        cfg.lagging_round_stretch_ns = 325.0;
        let c = CircuitNoiseModel::ideal().apply(&cfg.build());
        c.validate().unwrap();
        verify_deterministic(&c, 6).unwrap();
    }

    #[test]
    fn surgery_observable_count_and_indices() {
        let cfg = LatticeSurgeryConfig::new(3, &hw());
        let c = CircuitNoiseModel::ideal().apply(&cfg.build());
        assert_eq!(c.num_observables(), 3);
    }

    #[test]
    fn idle_slack_produces_idle_channels() {
        let t = hw().cycle_time_ns();
        let mut passive = LatticeSurgeryConfig::new(3, &hw());
        passive.plan = plan(PolicySpec::Passive, 1000.0, t, t, 4);
        let mut synced = LatticeSurgeryConfig::new(3, &hw());
        synced.plan = SyncPlan::noop(PolicySpec::Passive, 4);
        let noisy_passive = CircuitNoiseModel::standard(1e-3, &hw()).apply(&passive.build());
        let noisy_synced = CircuitNoiseModel::standard(1e-3, &hw()).apply(&synced.build());
        assert!(
            noisy_passive.stats().noise_channels > noisy_synced.stats().noise_channels,
            "slack adds idle channels"
        );
    }

    #[test]
    fn graphlike_distance_is_d() {
        // The minimum-weight logical error in the decoding graph has d
        // edges: check via the DEM that no mechanism set smaller than d
        // flips OBS_P without detection. We verify the weaker but
        // sharp structural property that every single mechanism either
        // flips a detector or flips no observable.
        let cfg = LatticeSurgeryConfig::new(3, &hw());
        let c = CircuitNoiseModel::standard(1e-3, &hw()).apply(&cfg.build());
        let (dem, stats) = DetectorErrorModel::from_circuit(&c, true);
        assert_eq!(stats.dropped_hyperedges, 0, "all mechanisms graphlike");
        for m in dem.mechanisms() {
            assert!(
                !(m.detectors.is_empty() && m.observables != 0),
                "undetectable logical flip: {m:?}"
            );
        }
    }

    #[test]
    fn repetitionless_properties_hold_for_d5() {
        let cfg = LatticeSurgeryConfig::new(5, &hw());
        let c = CircuitNoiseModel::ideal().apply(&cfg.build());
        c.validate().unwrap();
        verify_deterministic(&c, 4).unwrap();
    }
}
