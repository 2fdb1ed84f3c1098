//! Deterministic multithreaded shot running.

use crate::frame::{sample_batch_with, FrameSimulator, SampleBatch};
use ftqc_circuit::Circuit;

/// SplitMix64 finalizer, used to derive independent per-batch seeds.
fn mix_seed(seed: u64, batch: u64) -> u64 {
    let mut z = seed ^ batch.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One sampling work unit: `(global batch index, shots in the batch)`.
///
/// The **global index** — not the position within a plan slice — is
/// what derives the batch's seed, so any partition of the same plan
/// into sub-slices samples bit-identical shots.
pub type BatchSpec = (u64, usize);

/// The batch plan a `shots`-shot run executes: consecutive
/// `batch_shots`-sized batches starting at global index 0, with a
/// final partial batch holding the remainder.
///
/// # Panics
///
/// Panics if `shots == 0` or `batch_shots == 0`.
pub fn batch_plan(shots: u64, batch_shots: usize) -> Vec<BatchSpec> {
    assert!(shots > 0 && batch_shots > 0);
    let num_batches = shots.div_ceil(batch_shots as u64);
    (0..num_batches)
        .map(|b| {
            let size = if b == num_batches - 1 {
                (shots - b * batch_shots as u64) as usize
            } else {
                batch_shots
            };
            (b, size)
        })
        .collect()
}

/// Samples an explicit batch plan across `threads` OS threads,
/// applying `f` to every batch and returning the per-batch results in
/// plan order. Every worker calls `init` once and threads the
/// resulting state mutably through all the batches it claims.
///
/// Each batch's seed is derived from its **global index** alone, so a
/// plan produces the same results whatever the thread count, and
/// whether it is executed in one call or split into arbitrary
/// consecutive chunks — the streaming seam the adaptive evaluation
/// engine is built on. State never affects sampling.
///
/// This is also the allocation seam of the decode hot loop: the
/// sampler's frame/record buffers and the output [`SampleBatch`] are
/// owned by the worker and reused across batches, and `init` lets
/// callers attach their own reusable scratch (decoder workspaces,
/// syndrome buffers) — so a steady-state batch costs zero heap
/// allocations beyond what `f` itself returns. Stateless callers pass
/// `|| ()`.
///
/// # Example
///
/// ```
/// use ftqc_circuit::{Circuit, DetectorBasis, MeasRef, Op};
/// use ftqc_sim::{batch_plan, parallel_batches_with};
///
/// let mut c = Circuit::new(1);
/// c.push(Op::ResetZ(vec![0]));
/// c.push(Op::Depolarize1 { qubits: vec![0], p: 0.05 });
/// c.push(Op::measure_z([0], 0.0));
/// c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
/// let plan = batch_plan(10_000, 1024);
/// let counts = parallel_batches_with(&c, &plan, 7, 2, || (), |b, ()| {
///     b.count_detector_flips(0)
/// });
/// let total: u64 = counts.iter().sum();
/// assert!(total > 0);
/// ```
///
/// # Panics
///
/// Panics if `threads == 0` or any batch in the plan is empty.
pub fn parallel_batches_with<R, S, I, F>(
    circuit: &Circuit,
    batches: &[BatchSpec],
    seed: u64,
    threads: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&SampleBatch, &mut S) -> R + Sync,
{
    assert!(threads > 0);
    assert!(batches.iter().all(|&(_, size)| size > 0));
    let mut results: Vec<Option<R>> = Vec::with_capacity(batches.len());
    results.resize_with(batches.len(), || None);
    let next = std::sync::atomic::AtomicU64::new(0);
    // Lock-free result collection: every worker writes straight into
    // its claimed batch's slot. The atomic counter hands each plan
    // position to exactly one worker, so all writes are disjoint.
    let slots = SlotWriter(results.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(batches.len()) {
            scope.spawn(|| {
                let mut state = init();
                let mut sim = FrameSimulator::empty();
                let mut batch = SampleBatch::empty();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) as usize;
                    if i >= batches.len() {
                        break;
                    }
                    let (index, size) = batches[i];
                    sample_batch_with(circuit, size, mix_seed(seed, index), &mut sim, &mut batch);
                    let r = f(&batch, &mut state);
                    // SAFETY: `i < batches.len()` (checked above) indexes
                    // within the pre-sized vec, each position is claimed by
                    // exactly one worker via `fetch_add`, and the scope
                    // joins every worker before `results` is read again.
                    unsafe { slots.write(i, r) };
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("all batches processed"))
        .collect()
}

/// Shared base pointer into the per-batch result slots.
///
/// Safety contract (upheld by [`parallel_batches_with`]): concurrent
/// [`SlotWriter::write`] calls must target distinct indices within the
/// allocation, and the owning vec must outlive all writers.
struct SlotWriter<R>(*mut Option<R>);

impl<R> SlotWriter<R> {
    /// Writes `value` into slot `index`.
    ///
    /// # Safety
    ///
    /// `index` must be in bounds and not concurrently accessed.
    unsafe fn write(&self, index: usize, value: R) {
        // SAFETY: the caller guarantees `index` is in bounds of the
        // allocation behind `self.0` and that no other thread touches
        // that slot while this write runs.
        unsafe { *self.0.add(index) = Some(value) };
    }
}

// SAFETY: a SlotWriter is only a base address; the disjointness of the
// writes performed through it is guaranteed by the batch-index claim
// protocol above.
unsafe impl<R: Send> Send for SlotWriter<R> {}
// SAFETY: same argument as Send — shared references expose only
// `write`, whose caller contract rules out overlapping slot access.
unsafe impl<R: Send> Sync for SlotWriter<R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyndromeScanner;
    use ftqc_circuit::{DetectorBasis, MeasRef, Op};

    fn noisy_circuit() -> Circuit {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::Depolarize1 {
            qubits: vec![0],
            p: 0.05,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c
    }

    /// Detector-0 flips per batch of `plan`, stateless.
    fn flips(c: &Circuit, plan: &[BatchSpec], seed: u64, threads: usize) -> Vec<u64> {
        parallel_batches_with(
            c,
            plan,
            seed,
            threads,
            || (),
            |b, ()| b.count_detector_flips(0),
        )
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let c = noisy_circuit();
        let plan = batch_plan(5000, 512);
        assert_eq!(flips(&c, &plan, 42, 1), flips(&c, &plan, 42, 4));
    }

    #[test]
    fn total_shots_respected() {
        let c = noisy_circuit();
        let plan = batch_plan(1000, 300);
        let sizes = parallel_batches_with(&c, &plan, 1, 2, || (), |b, ()| b.shots as u64);
        assert_eq!(sizes.iter().sum::<u64>(), 1000);
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes[3], 100);
    }

    #[test]
    fn oversubscribed_threads_fill_every_slot() {
        // More workers than batches and tiny batches: stresses the
        // disjoint per-slot writes of the lock-free collection path.
        let c = noisy_circuit();
        let plan = batch_plan(4_097, 64);
        let a = flips(&c, &plan, 9, 16);
        assert_eq!(a.len(), 65);
        assert_eq!(a, flips(&c, &plan, 9, 1));
    }

    #[test]
    fn split_plans_match_one_call() {
        // The streaming property the adaptive engine relies on: a plan
        // executed in chunks equals the same plan executed at once.
        let c = noisy_circuit();
        let plan = batch_plan(5_000, 512);
        let full = flips(&c, &plan, 42, 4);
        let chunked: Vec<u64> = plan
            .chunks(3)
            .flat_map(|chunk| flips(&c, chunk, 42, 2))
            .collect();
        assert_eq!(full, chunked);
    }

    #[test]
    fn per_thread_state_reuses_and_matches_stateless_path() {
        let c = noisy_circuit();
        let plan = batch_plan(5_000, 512);
        // State: a scanner and a reusable syndrome buffer, as the
        // decode loop keeps.
        let state = || (SyndromeScanner::new(), Vec::<u32>::new());
        let stateful = parallel_batches_with(&c, &plan, 42, 4, state, |b, (scanner, buf)| {
            scanner.begin_batch(b);
            let mut flips = 0u64;
            for s in 0..b.shots {
                scanner.flagged_into(b, s, buf);
                flips += u64::from(buf.contains(&0));
            }
            flips
        });
        assert_eq!(flips(&c, &plan, 42, 4), stateful);
    }

    #[test]
    fn batch_plan_covers_shots_exactly() {
        let plan = batch_plan(1_000, 300);
        assert_eq!(plan, vec![(0, 300), (1, 300), (2, 300), (3, 100)]);
    }

    #[test]
    fn different_seeds_differ() {
        let c = noisy_circuit();
        let plan = batch_plan(20_000, 1024);
        let a: u64 = flips(&c, &plan, 1, 2).iter().sum();
        let b: u64 = flips(&c, &plan, 2, 2).iter().sum();
        assert_ne!(a, b);
    }
}
