//! Round-streaming syndrome extraction ([`RoundSchedule`] /
//! [`RoundStream`]) — the real-time feed behind `ftqc-decoder`'s
//! streaming sliding-window layer.

use crate::frame::{SampleBatch, SyndromeScanner};
use ftqc_circuit::Circuit;

/// Static detector-to-round map of one circuit.
///
/// Rounds are the distinct values of `coords[2]` across the circuit's
/// detectors, in ascending order (the circuit builders use a
/// monotonically increasing round tag, so ascending tag order is
/// emission order). Each round's detector set is compressed into
/// contiguous `[lo, hi)` index runs. A memory circuit's round is a
/// single run; a lattice-surgery circuit's often is not, because the
/// lagging patch restarts the round tag at 0, so a pre-merge round
/// holds detectors of both patches (on the d = 3 surgery circuit, 4 of
/// 9 rounds span two runs).
#[derive(Debug, Clone)]
pub struct RoundSchedule {
    /// Round index of each detector.
    round_of: Vec<u32>,
    /// Run list, grouped by round via `run_off`.
    runs: Vec<(u32, u32)>,
    /// `runs[run_off[r] .. run_off[r + 1]]` are round `r`'s runs.
    run_off: Vec<u32>,
    /// Size of the largest round, in detectors.
    max_round_len: usize,
}

impl RoundSchedule {
    /// Groups `circuit`'s detectors into rounds by their `coords[2]`
    /// tag (NaN tags compare per `f64::total_cmp`).
    ///
    /// # Panics
    ///
    /// Panics if the circuit declares no detectors.
    pub fn from_circuit(circuit: &Circuit) -> RoundSchedule {
        let tags: Vec<f64> = circuit
            .detector_metadata()
            .iter()
            .map(|(_, coords)| coords[2])
            .collect();
        assert!(
            !tags.is_empty(),
            "RoundSchedule requires a circuit with detectors"
        );
        let mut uniq = tags.clone();
        uniq.sort_unstable_by(f64::total_cmp);
        uniq.dedup_by(|a, b| a.total_cmp(b).is_eq());
        let round_of: Vec<u32> = tags
            .iter()
            .map(|t| {
                uniq.binary_search_by(|u| u.total_cmp(t))
                    .expect("tag present in its own dedup") as u32
            })
            .collect();
        // Bucket detectors per round (ascending index within a round by
        // construction), then compress each bucket into runs.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); uniq.len()];
        for (d, &r) in round_of.iter().enumerate() {
            buckets[r as usize].push(d as u32);
        }
        let mut runs = Vec::new();
        let mut run_off = Vec::with_capacity(uniq.len() + 1);
        run_off.push(0u32);
        let mut max_round_len = 0usize;
        for dets in &buckets {
            max_round_len = max_round_len.max(dets.len());
            let mut iter = dets.iter().copied();
            let first = iter.next().expect("every round tag has a detector");
            let (mut lo, mut hi) = (first, first + 1);
            for d in iter {
                if d == hi {
                    hi += 1;
                } else {
                    runs.push((lo, hi));
                    lo = d;
                    hi = d + 1;
                }
            }
            runs.push((lo, hi));
            run_off.push(runs.len() as u32);
        }
        RoundSchedule {
            round_of,
            runs,
            run_off,
            max_round_len,
        }
    }

    /// Number of rounds (distinct `coords[2]` tags).
    pub fn num_rounds(&self) -> u32 {
        (self.run_off.len() - 1) as u32
    }

    /// Number of detectors covered by the schedule.
    pub fn num_detectors(&self) -> u32 {
        self.round_of.len() as u32
    }

    /// The round detector `d` is measured in.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn round_of(&self, d: u32) -> u32 {
        self.round_of[d as usize]
    }

    /// Round `r`'s detectors as contiguous `[lo, hi)` index runs.
    ///
    /// # Panics
    ///
    /// Panics if `r >= num_rounds()`.
    pub fn runs_in(&self, r: u32) -> &[(u32, u32)] {
        let (a, b) = (self.run_off[r as usize], self.run_off[r as usize + 1]);
        &self.runs[a as usize..b as usize]
    }

    /// Detector indices of round `r`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `r >= num_rounds()`.
    pub fn detectors_in(&self, r: u32) -> impl Iterator<Item = u32> + '_ {
        self.runs_in(r).iter().flat_map(|&(lo, hi)| lo..hi)
    }

    /// Size of the largest round, in detectors — the worst-case length
    /// of any per-round defect list, for presizing stream buffers.
    pub fn max_round_len(&self) -> usize {
        self.max_round_len
    }

    /// The detector-index envelope `[lo, hi)` of round `r`: the
    /// smallest contiguous index range containing every detector of the
    /// round. For a single-run round (every memory-circuit round) the
    /// envelope is exact; for a multi-run round (lattice surgery) it
    /// may cover foreign detectors, which windowed-fusion consumers
    /// treat as a (harmless) widening of the round slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= num_rounds()`.
    pub fn round_envelope(&self, r: u32) -> (u32, u32) {
        let runs = self.runs_in(r);
        let lo = runs
            .iter()
            .map(|&(lo, _)| lo)
            .min()
            .expect("round has runs");
        let hi = runs
            .iter()
            .map(|&(_, hi)| hi)
            .max()
            .expect("round has runs");
        (lo, hi)
    }

    /// The merged detector-index envelope of the round range
    /// `[lo_round, hi_round)` (clamped to the schedule), or `(0, 0)`
    /// when the clamped range is empty — the contiguous detector slice
    /// a windowed-fusion decoder materializes for that round window.
    pub fn window_envelope(&self, lo_round: u32, hi_round: u32) -> (u32, u32) {
        let hi_round = hi_round.min(self.num_rounds());
        let lo_round = lo_round.min(hi_round);
        if lo_round == hi_round {
            return (0, 0);
        }
        let mut lo = u32::MAX;
        let mut hi = 0;
        for r in lo_round..hi_round {
            let (rlo, rhi) = self.round_envelope(r);
            lo = lo.min(rlo);
            hi = hi.max(rhi);
        }
        (lo, hi)
    }
}

/// Replays one shot of a [`SampleBatch`] round by round.
///
/// Batch evaluation hands a decoder each shot's *complete* syndrome. A
/// real-time decoder never sees that: syndrome bits arrive one
/// measurement round at a time, and the decoder must act on a prefix.
/// `RoundStream` is the sim-side half of that pipeline — an
/// iterator-style cursor that emits each round's flagged detectors as
/// it is extracted, not after the whole batch. The emitted rounds of a
/// shot, concatenated, hold exactly the detectors of the batch
/// extraction ([`SyndromeScanner::flagged_into`]) as a set: in the same
/// order when every round is a single run (memory circuits), but not
/// always in ascending order when rounds span several runs (lattice
/// surgery), so compare them sorted. This crate's tests and
/// `ftqc-decoder`'s streaming identity suite pin both.
///
/// The stream owns a [`SyndromeScanner`], so consecutive shots of the
/// same 64-shot block share one transpose; per-round extraction is a
/// masked word scan over the transposed shot row
/// ([`SyndromeScanner::flagged_range_into`]). After the scanner's
/// buffers warm up, streaming a round allocates nothing.
///
/// Usage mirrors the scanner: [`begin_batch`](RoundStream::begin_batch)
/// once per batch, [`begin_shot`](RoundStream::begin_shot) per shot,
/// then [`next_round_into`](RoundStream::next_round_into) until it
/// returns `None`.
///
/// # Example
///
/// ```
/// use ftqc_circuit::{Circuit, DetectorBasis, MeasRef, Op};
/// use ftqc_sim::{sample_batch, RoundSchedule, RoundStream};
///
/// // Two noisy rounds of a single repeated measurement: detector 0
/// // compares nothing (round 0), detector 1 compares rounds 0 and 1.
/// let mut c = Circuit::new(1);
/// c.push(Op::ResetZ(vec![0]));
/// c.push(Op::measure_z([0], 0.02));
/// c.push(Op::Detector {
///     records: vec![MeasRef(0)],
///     basis: DetectorBasis::Z,
///     coords: [0.0, 0.0, 0.0], // round tag 0
/// });
/// c.push(Op::measure_z([0], 0.02));
/// c.push(Op::Detector {
///     records: vec![MeasRef(0), MeasRef(1)],
///     basis: DetectorBasis::Z,
///     coords: [0.0, 0.0, 1.0], // round tag 1
/// });
///
/// let schedule = RoundSchedule::from_circuit(&c);
/// assert_eq!(schedule.num_rounds(), 2);
/// assert_eq!(schedule.round_of(1), 1);
///
/// let batch = sample_batch(&c, 64, 7);
/// let mut stream = RoundStream::new(&schedule);
/// stream.begin_batch(&batch);
/// stream.begin_shot(3);
/// let mut defects = Vec::new();
/// let mut full = Vec::new();
/// while let Some(_round) = stream.next_round_into(&batch, &mut defects) {
///     full.extend_from_slice(&defects);
/// }
/// // Rounds concatenate to the batch-extracted syndrome.
/// assert_eq!(full, batch.flagged_detectors(3));
/// ```
#[derive(Debug)]
pub struct RoundStream<'a> {
    schedule: &'a RoundSchedule,
    scanner: SyndromeScanner,
    shot: usize,
    next_round: u32,
}

impl<'a> RoundStream<'a> {
    /// A stream over `schedule`; sized by the first
    /// [`begin_batch`](RoundStream::begin_batch).
    pub fn new(schedule: &'a RoundSchedule) -> RoundStream<'a> {
        RoundStream {
            schedule,
            scanner: SyndromeScanner::new(),
            shot: 0,
            next_round: u32::MAX,
        }
    }

    /// The schedule this stream replays.
    pub fn schedule(&self) -> &'a RoundSchedule {
        self.schedule
    }

    /// Re-arms the stream (and its scanner) for `batch`. Call
    /// [`begin_shot`](RoundStream::begin_shot) before reading rounds.
    ///
    /// # Panics
    ///
    /// Panics if the batch's detector count differs from the
    /// schedule's.
    pub fn begin_batch(&mut self, batch: &SampleBatch) {
        assert_eq!(
            batch.num_detectors,
            self.schedule.num_detectors() as usize,
            "batch and RoundSchedule disagree on detector count"
        );
        self.scanner.begin_batch(batch);
        self.next_round = u32::MAX;
    }

    /// Positions the stream at round 0 of shot `s`.
    pub fn begin_shot(&mut self, s: usize) {
        self.shot = s;
        self.next_round = 0;
    }

    /// Emits the next round's flagged detectors (ascending) into
    /// `out` (cleared first) and returns that round's index, or `None`
    /// once every round of the shot has been emitted. An empty `out`
    /// with `Some(r)` is a defect-free round, not end of shot.
    pub fn next_round_into(&mut self, batch: &SampleBatch, out: &mut Vec<u32>) -> Option<u32> {
        let r = self.next_round;
        if r >= self.schedule.num_rounds() {
            return None;
        }
        out.clear();
        for &(lo, hi) in self.schedule.runs_in(r) {
            self.scanner
                .flagged_range_into(batch, self.shot, lo, hi, out);
        }
        self.next_round = r + 1;
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::sample_batch;
    use ftqc_circuit::{DetectorBasis, MeasRef, Op};

    /// A chain of `rounds` noisy repeated measurements of `k` qubits:
    /// `k` detectors per round, round tag in `coords[2]`.
    fn chain_circuit(k: u32, rounds: u32, p: f64) -> Circuit {
        let mut c = Circuit::new(k);
        c.push(Op::ResetZ((0..k).collect()));
        for r in 0..rounds {
            c.push(Op::measure_z(0..k, p));
            for q in 0..k {
                let records = if r == 0 {
                    vec![MeasRef(k - 1 - q)]
                } else {
                    vec![MeasRef(k - 1 - q), MeasRef(2 * k - 1 - q)]
                };
                c.push(Op::Detector {
                    records,
                    basis: DetectorBasis::Z,
                    coords: [q as f64, 0.0, r as f64],
                });
            }
        }
        c
    }

    #[test]
    fn schedule_partitions_detectors() {
        let c = chain_circuit(3, 4, 0.1);
        let s = RoundSchedule::from_circuit(&c);
        assert_eq!(s.num_rounds(), 4);
        assert_eq!(s.num_detectors(), 12);
        assert_eq!(s.max_round_len(), 3);
        let mut seen = [false; 12];
        for r in 0..s.num_rounds() {
            for d in s.detectors_in(r) {
                assert_eq!(s.round_of(d), r);
                assert!(!seen[d as usize], "detector {d} in two rounds");
                seen[d as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x), "schedule must cover all detectors");
    }

    #[test]
    fn rounds_concatenate_to_batch_extraction() {
        let c = chain_circuit(5, 6, 0.15);
        let schedule = RoundSchedule::from_circuit(&c);
        let batch = sample_batch(&c, 200, 11);
        let mut stream = RoundStream::new(&schedule);
        stream.begin_batch(&batch);
        let mut defects = Vec::new();
        for s in 0..batch.shots {
            stream.begin_shot(s);
            let mut full = Vec::new();
            let mut rounds_seen = 0;
            while let Some(r) = stream.next_round_into(&batch, &mut defects) {
                assert_eq!(r, rounds_seen);
                rounds_seen += 1;
                full.extend_from_slice(&defects);
            }
            assert_eq!(rounds_seen, schedule.num_rounds());
            assert_eq!(full, batch.flagged_detectors(s), "shot {s}");
        }
    }

    #[test]
    fn range_scan_matches_filtered_full_scan() {
        let c = chain_circuit(7, 11, 0.2); // 77 detectors: crosses a word boundary
        let batch = sample_batch(&c, 130, 23);
        let mut scanner = SyndromeScanner::new();
        scanner.begin_batch(&batch);
        let mut full = Vec::new();
        for s in [0, 63, 64, 129] {
            scanner.flagged_into(&batch, s, &mut full);
            for (lo, hi) in [
                (0u32, 77u32),
                (0, 64),
                (64, 77),
                (13, 13),
                (5, 66),
                (70, 999),
            ] {
                let mut ranged = Vec::new();
                scanner.flagged_range_into(&batch, s, lo, hi, &mut ranged);
                let expect: Vec<u32> = full
                    .iter()
                    .copied()
                    .filter(|&d| d >= lo && d < hi.min(77))
                    .collect();
                assert_eq!(ranged, expect, "shot {s} range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn envelopes_cover_their_rounds() {
        let c = chain_circuit(3, 4, 0.1);
        let s = RoundSchedule::from_circuit(&c);
        for r in 0..s.num_rounds() {
            let (lo, hi) = s.round_envelope(r);
            for d in s.detectors_in(r) {
                assert!(
                    d >= lo && d < hi,
                    "round {r} detector {d} outside [{lo},{hi})"
                );
            }
        }
        // Contiguous builders: the window envelope is the union of the
        // per-round envelopes, and clamping is saturating.
        assert_eq!(s.window_envelope(0, 4), (0, 12));
        assert_eq!(s.window_envelope(1, 3), (3, 9));
        assert_eq!(s.window_envelope(2, 99), (6, 12));
        assert_eq!(s.window_envelope(4, 4), (0, 0));
        assert_eq!(s.window_envelope(7, 5), (0, 0));
    }

    #[test]
    fn non_contiguous_rounds_form_runs() {
        // Interleave two rounds' detectors: tags 0,1,0,1 → round 0 is
        // runs [0,1) and [2,3).
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        for tag in [0.0, 1.0, 0.0, 1.0] {
            c.push(Op::measure_z([0], 0.1));
            c.push(Op::Detector {
                records: vec![MeasRef(0)],
                basis: DetectorBasis::Z,
                coords: [0.0, 0.0, tag],
            });
        }
        let s = RoundSchedule::from_circuit(&c);
        assert_eq!(s.num_rounds(), 2);
        assert_eq!(s.runs_in(0), &[(0, 1), (2, 3)]);
        assert_eq!(s.runs_in(1), &[(1, 2), (3, 4)]);
        let batch = sample_batch(&c, 64, 5);
        let mut stream = RoundStream::new(&s);
        stream.begin_batch(&batch);
        let mut defects = Vec::new();
        for shot in 0..batch.shots {
            stream.begin_shot(shot);
            let mut by_round: Vec<Vec<u32>> = Vec::new();
            while stream.next_round_into(&batch, &mut defects).is_some() {
                by_round.push(defects.clone());
            }
            let mut merged: Vec<u32> = by_round.concat();
            merged.sort_unstable();
            assert_eq!(merged, batch.flagged_detectors(shot), "shot {shot}");
        }
    }
}
