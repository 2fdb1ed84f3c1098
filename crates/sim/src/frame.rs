//! Batched Pauli-frame simulation.

use ftqc_circuit::{Circuit, Op, Qubit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WORD_BITS: usize = 64;

/// A batched Pauli-frame simulator.
///
/// Tracks, for every qubit, the X and Z components of the accumulated
/// error frame for `shots` Monte-Carlo shots simultaneously (64 shots
/// per `u64` word). Clifford gates permute frames in `O(words)` bit
/// operations; noise channels are sampled sparsely with geometric skips,
/// so the cost of noise scales with the number of *errors*, not the
/// number of shots.
///
/// Measurement records store the frame-induced *flip* of each
/// measurement relative to the noiseless reference, which is exactly
/// what detectors and observables consume — so detector samples come out
/// directly as syndrome bits.
#[derive(Debug)]
pub struct FrameSimulator {
    shots: usize,
    words: usize,
    xs: Vec<u64>,
    zs: Vec<u64>,
    records: Vec<u64>,
    num_records: usize,
    rng: SmallRng,
}

impl FrameSimulator {
    /// Creates a simulator for `num_qubits` qubits and a batch of
    /// `shots` shots, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn new(num_qubits: u32, shots: usize, seed: u64) -> FrameSimulator {
        let mut sim = FrameSimulator::empty();
        sim.reset(num_qubits, shots, seed);
        sim
    }

    /// A simulator with no capacity; call
    /// [`reset`](FrameSimulator::reset) before use. The starting point
    /// for callers that keep one simulator per worker thread and reuse
    /// its buffers across batches.
    pub fn empty() -> FrameSimulator {
        // analyzer: allow(alloc) -- constructor: empty vecs, grown once
        // by `reset` and reused across batches.
        FrameSimulator {
            shots: 0,
            words: 0,
            xs: Vec::new(),
            zs: Vec::new(),
            records: Vec::new(),
            num_records: 0,
            rng: SmallRng::seed_from_u64(0),
        }
        // analyzer: end-allow(alloc)
    }

    /// Re-arms the simulator for a fresh batch, reusing the frame and
    /// record buffers: once they have grown to a circuit's working-set
    /// size, steady-state batches allocate nothing here.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn reset(&mut self, num_qubits: u32, shots: usize, seed: u64) {
        assert!(shots > 0, "batch must contain at least one shot");
        let words = shots.div_ceil(WORD_BITS);
        let frame_words = num_qubits as usize * words;
        self.shots = shots;
        self.words = words;
        self.xs.clear();
        self.xs.resize(frame_words, 0);
        self.zs.clear();
        self.zs.resize(frame_words, 0);
        self.records.clear();
        self.num_records = 0;
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// Number of shots in this batch.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Runs every operation of `circuit` (detectors and observables are
    /// ignored here; use [`sample_batch`] to collect them).
    pub fn run(&mut self, circuit: &Circuit) {
        for op in circuit.ops() {
            self.apply(op);
        }
    }

    /// The measurement-flip record for measurement index `rec` as a word
    /// row.
    pub fn record_row(&self, rec: usize) -> &[u64] {
        &self.records[rec * self.words..(rec + 1) * self.words]
    }

    /// Number of measurement records produced so far.
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::H(qs) => {
                for &q in qs {
                    let (w, q) = (self.words, q as usize);
                    for i in 0..w {
                        std::mem::swap(&mut self.xs[q * w + i], &mut self.zs[q * w + i]);
                    }
                }
            }
            Op::S(qs) => {
                for &q in qs {
                    let (w, q) = (self.words, q as usize);
                    for i in 0..w {
                        self.zs[q * w + i] ^= self.xs[q * w + i];
                    }
                }
            }
            // Deterministic Pauli gates are part of the reference and do
            // not move error frames.
            Op::X(_) | Op::Y(_) | Op::Z(_) => {}
            Op::Cx(pairs) => {
                let w = self.words;
                for &(c, t) in pairs {
                    let (c, t) = (c as usize, t as usize);
                    for i in 0..w {
                        self.xs[t * w + i] ^= self.xs[c * w + i];
                        self.zs[c * w + i] ^= self.zs[t * w + i];
                    }
                }
            }
            Op::ResetZ(qs) | Op::ResetX(qs) => {
                for &q in qs {
                    let (w, q) = (self.words, q as usize);
                    self.xs[q * w..(q + 1) * w].fill(0);
                    self.zs[q * w..(q + 1) * w].fill(0);
                }
            }
            Op::MeasureZ {
                qubits,
                flip_probability,
            } => {
                for &q in qubits {
                    self.record_measurement(q, Basis::Z, *flip_probability, false);
                }
            }
            Op::MeasureX {
                qubits,
                flip_probability,
            } => {
                for &q in qubits {
                    self.record_measurement(q, Basis::X, *flip_probability, false);
                }
            }
            Op::MeasureReset {
                qubits,
                flip_probability,
            } => {
                for &q in qubits {
                    self.record_measurement(q, Basis::Z, *flip_probability, true);
                }
            }
            Op::PauliChannel { qubits, px, py, pz } => {
                let pt = px + py + pz;
                let (px, py) = (*px, *py);
                for &q in qubits {
                    self.for_each_hit(pt, |sim, shot| {
                        let u: f64 = sim.rng.gen::<f64>() * pt;
                        if u < px {
                            sim.flip_x(q, shot);
                        } else if u < px + py {
                            sim.flip_x(q, shot);
                            sim.flip_z(q, shot);
                        } else {
                            sim.flip_z(q, shot);
                        }
                    });
                }
            }
            Op::Depolarize1 { qubits, p } => {
                for &q in qubits {
                    self.for_each_hit(*p, |sim, shot| {
                        match sim.rng.gen_range(1..4u8) {
                            1 => sim.flip_x(q, shot),
                            2 => {
                                sim.flip_x(q, shot);
                                sim.flip_z(q, shot);
                            }
                            _ => sim.flip_z(q, shot),
                        };
                    });
                }
            }
            Op::Depolarize2 { pairs, p } => {
                for &(a, b) in pairs {
                    self.for_each_hit(*p, |sim, shot| {
                        let k = sim.rng.gen_range(1..16u8);
                        let (pa, pb) = (k >> 2, k & 3);
                        sim.apply_pauli_code(a, pa, shot);
                        sim.apply_pauli_code(b, pb, shot);
                    });
                }
            }
            Op::Detector { .. } | Op::ObservableInclude { .. } => {}
        }
    }

    /// Appends a measurement record row for qubit `q`, applying classical
    /// flip noise, and clears the appropriate post-measurement frame
    /// components (the measured-basis phase component is unphysical after
    /// the measurement and must not propagate; a reset clears both).
    fn record_measurement(&mut self, q: Qubit, basis: Basis, flip_p: f64, reset: bool) {
        let w = self.words;
        let qi = q as usize;
        let start = self.records.len();
        match basis {
            Basis::Z => self
                .records
                .extend_from_slice(&self.xs[qi * w..(qi + 1) * w]),
            Basis::X => self
                .records
                .extend_from_slice(&self.zs[qi * w..(qi + 1) * w]),
        }
        self.num_records += 1;
        if flip_p > 0.0 {
            self.for_each_hit(flip_p, |sim, shot| {
                sim.records[start + shot / WORD_BITS] ^= 1u64 << (shot % WORD_BITS);
            });
        }
        match basis {
            Basis::Z => {
                self.zs[qi * w..(qi + 1) * w].fill(0);
                if reset {
                    self.xs[qi * w..(qi + 1) * w].fill(0);
                }
            }
            Basis::X => {
                self.xs[qi * w..(qi + 1) * w].fill(0);
                if reset {
                    self.zs[qi * w..(qi + 1) * w].fill(0);
                }
            }
        }
    }

    #[inline]
    fn flip_x(&mut self, q: Qubit, shot: usize) {
        self.xs[q as usize * self.words + shot / WORD_BITS] ^= 1u64 << (shot % WORD_BITS);
    }

    #[inline]
    fn flip_z(&mut self, q: Qubit, shot: usize) {
        self.zs[q as usize * self.words + shot / WORD_BITS] ^= 1u64 << (shot % WORD_BITS);
    }

    #[inline]
    fn apply_pauli_code(&mut self, q: Qubit, code: u8, shot: usize) {
        // 0 = I, 1 = X, 2 = Y, 3 = Z.
        if code == 1 || code == 2 {
            self.flip_x(q, shot);
        }
        if code == 2 || code == 3 {
            self.flip_z(q, shot);
        }
    }

    /// Visits each shot where an event of probability `p` occurs, using
    /// geometric skip sampling so the cost is proportional to the number
    /// of events.
    fn for_each_hit(&mut self, p: f64, mut f: impl FnMut(&mut Self, usize)) {
        if p <= 0.0 {
            return;
        }
        if p >= 1.0 {
            for shot in 0..self.shots {
                f(self, shot);
            }
            return;
        }
        let ln_skip = (1.0 - p).ln();
        let mut shot = 0usize;
        loop {
            let u: f64 = 1.0 - self.rng.gen::<f64>(); // (0, 1]
            let skip = (u.ln() / ln_skip).floor();
            if !skip.is_finite() || skip >= (self.shots - shot) as f64 {
                return;
            }
            shot += skip as usize;
            f(self, shot);
            shot += 1;
            if shot >= self.shots {
                return;
            }
        }
    }
}

enum Basis {
    X,
    Z,
}

/// Detector and observable flip samples for one batch of shots.
///
/// Rows are bit-packed across shots: bit `s` of word `s / 64` in row `d`
/// is detector `d`'s value in shot `s`. Read shots' syndromes through a
/// [`SyndromeScanner`], which transposes a 64-shot block at a time;
/// [`flagged_detectors`](SampleBatch::flagged_detectors) is its per-bit
/// reference.
#[derive(Debug, Clone)]
pub struct SampleBatch {
    /// Number of shots in the batch.
    pub shots: usize,
    /// Words per row (`ceil(shots / 64)`).
    pub words: usize,
    /// `num_detectors` rows of detector flips.
    pub detectors: Vec<u64>,
    /// `num_observables` rows of observable flips.
    pub observables: Vec<u64>,
    /// Number of detector rows.
    pub num_detectors: usize,
    /// Number of observable rows.
    pub num_observables: usize,
}

impl SampleBatch {
    /// An empty batch; filled by [`sample_batch_with`]. The starting
    /// point for callers that keep one batch per worker thread and
    /// reuse its rows across samples.
    pub fn empty() -> SampleBatch {
        // analyzer: allow(alloc) -- constructor: empty rows, grown once
        // by `sample_batch_with` and reused across batches.
        SampleBatch {
            shots: 0,
            words: 0,
            detectors: Vec::new(),
            observables: Vec::new(),
            num_detectors: 0,
            num_observables: 0,
        }
        // analyzer: end-allow(alloc)
    }

    /// Detector `d`'s value in shot `s`.
    #[inline]
    pub fn detector(&self, d: usize, s: usize) -> bool {
        (self.detectors[d * self.words + s / WORD_BITS] >> (s % WORD_BITS)) & 1 == 1
    }

    /// Observable `o`'s flip in shot `s`.
    #[inline]
    pub fn observable(&self, o: usize, s: usize) -> bool {
        (self.observables[o * self.words + s / WORD_BITS] >> (s % WORD_BITS)) & 1 == 1
    }

    /// The flagged (fired) detector indices of shot `s`, ascending.
    ///
    /// The per-bit reference: one strided bit probe per detector and a
    /// fresh `Vec` per call. Tests check [`SyndromeScanner`] against it;
    /// code that walks a batch reads shots through a scanner instead.
    pub fn flagged_detectors(&self, s: usize) -> Vec<u32> {
        // analyzer: allow(alloc) -- per-bit reference; batch walks read
        // shots through a `SyndromeScanner` into a reused buffer.
        (0..self.num_detectors as u32)
            .filter(|&d| self.detector(d as usize, s))
            .collect()
        // analyzer: end-allow(alloc)
    }

    /// Total number of shots in which detector `d` fired.
    pub fn count_detector_flips(&self, d: usize) -> u64 {
        let mut total = 0u64;
        for w in 0..self.words {
            let mut word = self.detectors[d * self.words + w];
            // Mask out padding bits beyond `shots` in the last word (the
            // simulator never sets them, but be defensive).
            let valid = self.shots.saturating_sub(w * WORD_BITS);
            if valid < WORD_BITS {
                word &= (1u64 << valid) - 1;
            }
            total += word.count_ones() as u64;
        }
        total
    }
}

/// Word-wise syndrome extraction over a [`SampleBatch`].
///
/// The batch stores detector rows bit-packed *across shots*, so reading
/// one shot bit by bit ([`SampleBatch::flagged_detectors`]) is a
/// strided single-bit probe per detector — `num_detectors` cache lines
/// touched per shot. The scanner instead transposes one 64-shot block
/// of the detector bit-matrix at a time (64×64 bit-block transpose)
/// into shot-major rows, after which extracting a shot's syndrome is a
/// dense `trailing_zeros` scan over `ceil(num_detectors / 64)` words.
/// The transpose is amortized over the up-to-64 shots of its block —
/// exactly how the decode loop visits them.
///
/// Usage: call [`begin_batch`](SyndromeScanner::begin_batch) once per
/// batch (this invalidates any cached block), then
/// [`flagged_into`](SyndromeScanner::flagged_into) per shot (a shot's
/// Hamming weight is the length of its flagged list). Results are
/// bit-identical to [`SampleBatch::flagged_detectors`]. The scanner
/// reuses its transpose buffer across batches, so steady-state
/// scanning allocates nothing.
#[derive(Debug, Default)]
pub struct SyndromeScanner {
    /// Shot-major transposed block: 64 rows (one per shot lane) of
    /// `det_words` words; bit `d % 64` of word `d / 64` in row `lane`
    /// is detector `d`'s value for that lane's shot.
    t: Vec<u64>,
    det_words: usize,
    num_detectors: usize,
    /// Block index currently in `t` (`usize::MAX` = none).
    loaded: usize,
}

impl SyndromeScanner {
    /// An empty scanner; sized by the first
    /// [`begin_batch`](SyndromeScanner::begin_batch).
    pub fn new() -> SyndromeScanner {
        // analyzer: allow(alloc) -- constructor: the transpose buffer
        // is empty until `begin_batch` sizes it.
        SyndromeScanner {
            t: Vec::new(),
            det_words: 0,
            num_detectors: 0,
            loaded: usize::MAX,
        }
        // analyzer: end-allow(alloc)
    }

    /// Re-arms the scanner for `batch`, invalidating any cached block
    /// (always call when switching to a new batch, even one of the same
    /// shape — the scanner cannot tell two batches apart by itself).
    pub fn begin_batch(&mut self, batch: &SampleBatch) {
        self.det_words = batch.num_detectors.div_ceil(WORD_BITS);
        self.num_detectors = batch.num_detectors;
        self.t.clear();
        self.t.resize(WORD_BITS * self.det_words, 0);
        self.loaded = usize::MAX;
    }

    /// Transposes shot-block `block` of `batch` into `t`, unless it is
    /// the block already loaded.
    fn load_block(&mut self, batch: &SampleBatch, block: usize) {
        if self.loaded == block {
            return;
        }
        // Only the uncached path is traced: the cached early-return above
        // runs once per shot and must stay free of even a relaxed load.
        let span = ftqc_telemetry::span("sim/scan_block");
        debug_assert_eq!(
            self.num_detectors, batch.num_detectors,
            "SyndromeScanner used without begin_batch for this batch"
        );
        let mut buf = [0u64; WORD_BITS];
        for g in 0..self.det_words {
            for (r, slot) in buf.iter_mut().enumerate() {
                let d = g * WORD_BITS + r;
                *slot = if d < batch.num_detectors {
                    batch.detectors[d * batch.words + block]
                } else {
                    0
                };
            }
            transpose64(&mut buf);
            for (r, &word) in buf.iter().enumerate() {
                self.t[r * self.det_words + g] = word;
            }
        }
        self.loaded = block;
        span.end_with(&[ftqc_telemetry::Arg::new(
            "detectors",
            self.num_detectors as f64,
        )]);
    }

    /// The flagged detector indices of shot `s`, ascending, into a
    /// reusable buffer (cleared first). Bit-identical to
    /// [`SampleBatch::flagged_detectors`].
    pub fn flagged_into(&mut self, batch: &SampleBatch, s: usize, out: &mut Vec<u32>) {
        out.clear();
        self.load_block(batch, s / WORD_BITS);
        let lane = s % WORD_BITS;
        let row = &self.t[lane * self.det_words..(lane + 1) * self.det_words];
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push((w * WORD_BITS) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        if ftqc_telemetry::enabled() {
            ftqc_telemetry::counter("sim/defects", out.len() as u64);
        }
    }

    /// The flagged detector indices of shot `s` in `lo..hi`, ascending,
    /// **appended** to `out` (not cleared — a round made of several
    /// index runs accumulates across calls; clear between shots). This
    /// is the round-streaming primitive: a round's detectors are a
    /// handful of contiguous index ranges, and each range costs a
    /// masked word scan over the already-transposed shot row rather
    /// than a fresh pass over the whole syndrome.
    ///
    /// `hi` is clamped to the batch's detector count; an empty or
    /// inverted range appends nothing.
    pub fn flagged_range_into(
        &mut self,
        batch: &SampleBatch,
        s: usize,
        lo: u32,
        hi: u32,
        out: &mut Vec<u32>,
    ) {
        let hi = (hi as usize).min(batch.num_detectors);
        let lo = lo as usize;
        if lo >= hi {
            return;
        }
        self.load_block(batch, s / WORD_BITS);
        let lane = s % WORD_BITS;
        let row = &self.t[lane * self.det_words..(lane + 1) * self.det_words];
        let (w0, w1) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        for (w, &row_word) in row.iter().enumerate().take(w1 + 1).skip(w0) {
            let mut bits = row_word;
            if w == w0 {
                bits &= !0u64 << (lo % WORD_BITS);
            }
            if w == w1 && !hi.is_multiple_of(WORD_BITS) {
                bits &= (1u64 << (hi % WORD_BITS)) - 1;
            }
            while bits != 0 {
                out.push((w * WORD_BITS) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3, adjusted
/// for LSB-first columns): bit `i` of output word `k` equals bit `k`
/// of input word `i`.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Samples one batch of `shots` shots of `circuit`, returning detector
/// and observable flips.
///
/// # Panics
///
/// Panics if `shots == 0`.
pub fn sample_batch(circuit: &Circuit, shots: usize, seed: u64) -> SampleBatch {
    let mut sim = FrameSimulator::empty();
    let mut out = SampleBatch::empty();
    sample_batch_with(circuit, shots, seed, &mut sim, &mut out);
    out
}

/// [`sample_batch`] into caller-owned buffers: `sim` and `out` are
/// reset and refilled, so a worker thread that keeps both across
/// batches performs zero steady-state heap allocations per batch.
/// Produces bit-identical samples to [`sample_batch`] for the same
/// `(circuit, shots, seed)`.
///
/// # Panics
///
/// Panics if `shots == 0`.
pub fn sample_batch_with(
    circuit: &Circuit,
    shots: usize,
    seed: u64,
    sim: &mut FrameSimulator,
    out: &mut SampleBatch,
) {
    let span = ftqc_telemetry::span("sim/sample_batch");
    sim.reset(circuit.num_qubits(), shots, seed);
    sim.run(circuit);
    let words = sim.words;
    let num_detectors = circuit.num_detectors() as usize;
    let num_observables = circuit.num_observables() as usize;
    out.shots = shots;
    out.words = words;
    out.num_detectors = num_detectors;
    out.num_observables = num_observables;
    out.detectors.clear();
    out.detectors.resize(num_detectors * words, 0);
    out.observables.clear();
    out.observables.resize(num_observables * words, 0);
    let mut d = 0usize;
    for op in circuit.ops() {
        match op {
            Op::Detector { records, .. } => {
                for r in records {
                    let row = sim.record_row(r.0 as usize);
                    let dst = &mut out.detectors[d * words..(d + 1) * words];
                    for (dst, src) in dst.iter_mut().zip(row) {
                        *dst ^= src;
                    }
                }
                d += 1;
            }
            Op::ObservableInclude {
                observable,
                records,
            } => {
                let o = *observable as usize;
                for r in records {
                    let row = sim.record_row(r.0 as usize);
                    let dst = &mut out.observables[o * words..(o + 1) * words];
                    for (dst, src) in dst.iter_mut().zip(row) {
                        *dst ^= src;
                    }
                }
            }
            _ => {}
        }
    }
    if ftqc_telemetry::enabled() {
        ftqc_telemetry::counter("sim/shots", shots as u64);
    }
    span.end_with(&[
        ftqc_telemetry::Arg::new("shots", shots as f64),
        ftqc_telemetry::Arg::new("detectors", num_detectors as f64),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_circuit::{DetectorBasis, MeasRef};

    fn flip_rate(batch: &SampleBatch, det: usize) -> f64 {
        batch.count_detector_flips(det) as f64 / batch.shots as f64
    }

    #[test]
    fn noiseless_detectors_never_fire() {
        let mut c = Circuit::new(2);
        c.push(Op::ResetZ(vec![0, 1]));
        c.push(Op::h([0]));
        c.push(Op::cx([(0, 1)]));
        c.push(Op::measure_z([0, 1], 0.0));
        c.push(Op::detector([MeasRef(0), MeasRef(1)], DetectorBasis::Z));
        let b = sample_batch(&c, 640, 1);
        assert_eq!(b.count_detector_flips(0), 0);
    }

    #[test]
    fn x_error_flips_z_measurement() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 1.0,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let b = sample_batch(&c, 128, 7);
        assert_eq!(b.count_detector_flips(0), 128);
    }

    #[test]
    fn z_error_does_not_flip_z_measurement() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.0,
            py: 0.0,
            pz: 1.0,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let b = sample_batch(&c, 128, 7);
        assert_eq!(b.count_detector_flips(0), 0);
    }

    #[test]
    fn z_error_flips_x_measurement_through_h() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::h([0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.0,
            py: 0.0,
            pz: 1.0,
        });
        c.push(Op::h([0]));
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let b = sample_batch(&c, 64, 3);
        assert_eq!(b.count_detector_flips(0), 64);
    }

    #[test]
    fn cx_propagates_x_frames() {
        // X on control propagates to target.
        let mut c = Circuit::new(2);
        c.push(Op::ResetZ(vec![0, 1]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 1.0,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::cx([(0, 1)]));
        c.push(Op::measure_z([1], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let b = sample_batch(&c, 64, 3);
        assert_eq!(b.count_detector_flips(0), 64);
    }

    #[test]
    fn reset_clears_frames() {
        let mut c = Circuit::new(1);
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 1.0,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let b = sample_batch(&c, 64, 3);
        assert_eq!(b.count_detector_flips(0), 0);
    }

    #[test]
    fn measurement_flip_noise_has_right_rate() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::measure_z([0], 0.1));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let b = sample_batch(&c, 100_000, 99);
        let r = flip_rate(&b, 0);
        assert!((r - 0.1).abs() < 0.01, "rate {r}");
    }

    #[test]
    fn depolarize1_rate_is_two_thirds_on_z_basis() {
        // Only X and Y components (2/3 of events) flip a Z measurement.
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::Depolarize1 {
            qubits: vec![0],
            p: 0.3,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let b = sample_batch(&c, 100_000, 5);
        let r = flip_rate(&b, 0);
        assert!((r - 0.2).abs() < 0.01, "rate {r}");
    }

    #[test]
    fn depolarize2_rate_matches_marginal() {
        // P(first qubit has X or Y) = 8/15 * p.
        let mut c = Circuit::new(2);
        c.push(Op::ResetZ(vec![0, 1]));
        c.push(Op::Depolarize2 {
            pairs: vec![(0, 1)],
            p: 0.15,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let b = sample_batch(&c, 200_000, 11);
        let r = flip_rate(&b, 0);
        let expect = 0.15 * 8.0 / 15.0;
        assert!((r - expect).abs() < 0.005, "rate {r} vs {expect}");
    }

    #[test]
    fn observables_accumulate_records() {
        let mut c = Circuit::new(2);
        c.push(Op::ResetZ(vec![0, 1]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 1.0,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_z([0, 1], 0.0));
        c.push(Op::ObservableInclude {
            observable: 0,
            records: vec![MeasRef(0), MeasRef(1)],
        });
        let b = sample_batch(&c, 64, 1);
        assert!(b.observable(0, 0));
    }

    #[test]
    fn measure_reset_clears_state_but_records_flip() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 1.0,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_reset([0], 0.0));
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(1)], DetectorBasis::Z));
        let b = sample_batch(&c, 64, 1);
        assert_eq!(b.count_detector_flips(0), 64);
        assert_eq!(b.count_detector_flips(1), 0);
    }

    #[test]
    fn batch_not_multiple_of_64_counts_correctly() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 1.0,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let b = sample_batch(&c, 70, 1);
        assert_eq!(b.count_detector_flips(0), 70);
    }

    #[test]
    fn reused_buffers_sample_identically() {
        // A worker reusing one simulator + batch across differently
        // sized batches must reproduce the one-shot API bit for bit.
        let mut big = Circuit::new(2);
        big.push(Op::ResetZ(vec![0, 1]));
        big.push(Op::Depolarize1 {
            qubits: vec![0, 1],
            p: 0.1,
        });
        big.push(Op::measure_z([0, 1], 0.0));
        big.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        big.push(Op::detector([MeasRef(1)], DetectorBasis::Z));
        let mut sim = FrameSimulator::empty();
        let mut out = SampleBatch::empty();
        for (shots, seed) in [(700usize, 3u64), (64, 9), (1000, 3), (70, 1)] {
            sample_batch_with(&big, shots, seed, &mut sim, &mut out);
            let fresh = sample_batch(&big, shots, seed);
            assert_eq!(out.detectors, fresh.detectors);
            assert_eq!(out.observables, fresh.observables);
            assert_eq!(out.shots, fresh.shots);
            assert_eq!(out.words, fresh.words);
        }
    }

    #[test]
    fn flagged_into_matches_allocating_path() {
        let mut c = Circuit::new(2);
        c.push(Op::ResetZ(vec![0, 1]));
        c.push(Op::Depolarize1 {
            qubits: vec![0, 1],
            p: 0.2,
        });
        c.push(Op::measure_z([0, 1], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(1)], DetectorBasis::Z));
        let b = sample_batch(&c, 300, 12);
        let mut scanner = SyndromeScanner::new();
        scanner.begin_batch(&b);
        let mut buf = vec![99u32; 7]; // stale contents must be cleared
        for s in 0..b.shots {
            scanner.flagged_into(&b, s, &mut buf);
            assert_eq!(buf, b.flagged_detectors(s));
        }
    }

    /// A wide noisy circuit: one detector per qubit, so the detector
    /// count can exceed one word and padding lanes get exercised.
    fn wide_circuit(num_detectors: u32) -> Circuit {
        let mut c = Circuit::new(num_detectors);
        c.push(Op::ResetZ((0..num_detectors).collect()));
        c.push(Op::Depolarize1 {
            qubits: (0..num_detectors).collect(),
            p: 0.3,
        });
        c.push(Op::measure_z((0..num_detectors).collect::<Vec<_>>(), 0.0));
        for k in 0..num_detectors {
            c.push(Op::detector([MeasRef(k)], DetectorBasis::Z));
        }
        c
    }

    #[test]
    fn scanner_matches_per_bit_extraction() {
        // Shots and detectors both deliberately not multiples of 64, so
        // the last shot block and last detector word are partial.
        let c = wide_circuit(70);
        let b = sample_batch(&c, 300, 12);
        let mut scanner = SyndromeScanner::new();
        scanner.begin_batch(&b);
        let mut fast = vec![99u32; 5]; // stale contents must be cleared
        for s in 0..b.shots {
            scanner.flagged_into(&b, s, &mut fast);
            assert_eq!(fast, b.flagged_detectors(s), "shot {s}");
        }
    }

    #[test]
    fn scanner_handles_out_of_order_shots_and_new_batches() {
        let c = wide_circuit(65);
        let mut scanner = SyndromeScanner::new();
        let mut fast = Vec::new();
        for seed in [1u64, 2, 3] {
            let b = sample_batch(&c, 130, seed);
            scanner.begin_batch(&b); // invalidates the previous batch's block
                                     // Jump across blocks both ways: each jump reloads.
            for &s in &[129usize, 0, 64, 1, 128, 63, 65] {
                scanner.flagged_into(&b, s, &mut fast);
                assert_eq!(fast, b.flagged_detectors(s), "seed {seed} shot {s}");
            }
        }
    }

    #[test]
    fn transpose64_round_trips_and_transposes() {
        // Deterministic pseudo-random matrix via xorshift.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut a = [0u64; 64];
        for slot in &mut a {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
        }
        let orig = a;
        transpose64(&mut a);
        for (k, &row) in a.iter().enumerate() {
            for (i, &col) in orig.iter().enumerate() {
                assert_eq!((row >> i) & 1, (col >> k) & 1, "bit ({k},{i})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig, "transpose is an involution");
    }

    /// `n` detectors, each of which fires in every shot.
    fn all_flip_circuit(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Op::ResetZ((0..n).collect()));
        c.push(Op::PauliChannel {
            qubits: (0..n).collect(),
            px: 1.0,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_z((0..n).collect::<Vec<_>>(), 0.0));
        for k in 0..n {
            c.push(Op::detector([MeasRef(k)], DetectorBasis::Z));
        }
        c
    }

    #[test]
    fn scanner_reuses_state_across_batch_shapes() {
        // One scanner across batches whose detector counts shrink and
        // grow again (two words, one, two) and whose shot counts leave a
        // partial last block: `begin_batch` must resize the transpose
        // buffer each time, leaving no stale bits behind.
        let mut scanner = SyndromeScanner::new();
        let mut fast = vec![99u32; 3]; // stale contents must be cleared
        for (c, shots, seed) in [
            (wide_circuit(130), 200usize, 4u64),
            (all_flip_circuit(2), 70, 1),
            (wide_circuit(65), 129, 5),
        ] {
            let b = sample_batch(&c, shots, seed);
            scanner.begin_batch(&b);
            for s in 0..b.shots {
                scanner.flagged_into(&b, s, &mut fast);
                let reference: Vec<u32> = (0..b.num_detectors as u32)
                    .filter(|&d| b.detector(d as usize, s))
                    .collect();
                assert_eq!(fast, reference, "{shots} shots, shot {s}");
            }
        }
        // The all-flip batch: every shot's weight is its detector count.
        let b = sample_batch(&all_flip_circuit(2), 64, 1);
        scanner.begin_batch(&b);
        scanner.flagged_into(&b, 5, &mut fast);
        assert_eq!(fast.len(), 2);
        assert_eq!(fast, vec![0, 1]);
        assert_eq!(b.flagged_detectors(5), vec![0, 1]);
    }
}
