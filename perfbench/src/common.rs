//! Pieces the workloads share: timed set-up, the end-to-end metric
//! set, and the layer-by-layer replay of a sampled batch.

use crate::report::Report;
use crate::stats::{median, residual, Latency};
use crate::trace::{LayerTable, Tracer};
use ftqc_bench::alloc::allocation_count;
use ftqc_circuit::{Circuit, Schedule};
use ftqc_decoder::{
    count_batch_errors, AnyDecoder, Decoder, DecoderKind, DecoderScratch, DecodingGraph,
};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{
    sample_batch_with, BatchSpec, DetectorErrorModel, FrameSimulator, SampleBatch, SyndromeScanner,
};
use std::sync::Arc;
use std::time::Instant;

/// Times `build` `repeats` times, returning the last result and every
/// duration in seconds.
pub fn timed_setups<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// The end-to-end measurements of one run, gathered pass by pass.
///
/// A workload repeats a fixed pass of requests, each pass with its own
/// set-up, until the budget is spent. Request `i` of every pass is the
/// same work, so the passes give each request many timings; the run
/// keeps each request's fastest. Operations per second and the request
/// latency percentiles are then taken over those fastest times, and
/// set-up time is the median of the run's set-ups.
///
/// Why the fastest: the spread between timings of the same request is
/// the host's, not the program's. On a shared 2-vCPU virtual machine,
/// co-tenant load slows memory-bound code by up to 1.7x (a dependent
/// multiply chain keeps its speed, a 1 MB pointer chase slows 1.45x),
/// in phases from milliseconds to minutes, and the share of a run they
/// cover varies from run to run, so the median request of 25-s windows
/// varied by 27-35% of its median. The load still leaves gaps of a few
/// milliseconds, so a request that takes 2-15 ms finds one many times a
/// run: its fastest time in 25-s windows varied by 5-7%. Requests of a
/// whole pass, or of 70 ms and more, rarely fit in a gap, which is why
/// every workload's requests are kept that short.
#[derive(Debug, Default)]
pub struct Passes {
    setup_s: Vec<f64>,
    /// Request time of each pass, seconds.
    busy_s: Vec<f64>,
    /// Fastest time of each request of the pass, microseconds.
    fastest_us: Vec<f64>,
    /// Operations one pass completes.
    ops: u64,
    peak_rss_mb: f64,
}

/// Passes every run makes, however short its budget.
pub const MIN_PASSES: usize = 10;

impl Passes {
    /// Passes recorded so far.
    pub fn len(&self) -> usize {
        self.setup_s.len()
    }

    /// Whether the run should make another pass.
    pub fn more(&self, start: Instant, budget: std::time::Duration) -> bool {
        self.len() < MIN_PASSES || start.elapsed() < budget
    }

    /// Records one pass: its set-up time, the operations its requests
    /// completed, and each request's latency, in pass order. Peak
    /// memory is read after the first pass, so that the logs a longer
    /// run keeps do not count as memory the workload needs.
    ///
    /// # Panics
    ///
    /// Panics if the pass holds another number of requests than the
    /// first one did.
    pub fn add(&mut self, setup_s: f64, ops: u64, request_us: &[f64]) {
        if self.len() == 0 {
            self.peak_rss_mb = peak_rss_mb();
            self.ops = ops;
            self.fastest_us = request_us.to_vec();
        }
        assert_eq!(
            request_us.len(),
            self.fastest_us.len(),
            "every pass makes the same requests"
        );
        for (fastest, &us) in self.fastest_us.iter_mut().zip(request_us) {
            *fastest = fastest.min(us);
        }
        self.setup_s.push(setup_s);
        self.busy_s.push(request_us.iter().sum::<f64>() / 1e6);
    }

    /// Records the end-to-end metrics: the median set-up time,
    /// operations per second and the median request latency over the
    /// requests' fastest times, and peak memory. The p99 of the fastest
    /// times is printed with the number of requests beyond it, and so
    /// is the rate of the median pass, to show the host's load; neither
    /// is recorded.
    pub fn report(mut self, report: &mut Report) {
        let fastest_s = self.fastest_us.iter().sum::<f64>() / 1e6;
        let ops_per_s = self.ops as f64 / fastest_s;
        let median_pass = self.ops as f64 / median(&mut self.busy_s);
        let latency = Latency::of(&mut self.fastest_us);
        let setup_s = median(&mut self.setup_s);
        println!(
            "{} passes of {} requests; over each request's fastest time:",
            self.setup_s.len(),
            latency.count
        );
        println!("  setup_s          {setup_s:>16.6} s (median set-up)");
        println!("  ops_per_s        {ops_per_s:>16.3} 1/s (median pass {median_pass:.3})");
        println!("  request_p50_us   {:>16.3} us", latency.p50);
        println!(
            "  request_p99_us   {:>16.3} us ({} requests beyond it)",
            latency.p99, latency.beyond_p99
        );
        report.metric("setup_s", "s", setup_s);
        report.metric("ops_per_s", "1/s", ops_per_s);
        report.metric("request_p50_us", "us", latency.p50);
        report.metric("peak_rss_mb", "MB", self.peak_rss_mb);
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Per-batch sampling seed, the same derivation `ftqc_sim`'s batch
/// drivers use (a SplitMix64 finalizer over the global batch index),
/// so a replay samples exactly the shots those drivers sample. The
/// replays check their error counts against the drivers', which pins
/// this copy to the original.
pub fn batch_seed(seed: u64, batch: u64) -> u64 {
    let mut z = seed ^ batch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The batch decode path taken apart: sample, scan and decode one
/// batch at a time, each as its own layer call, then count errors.
/// Buffers are reused across batches, like a driver worker's.
pub struct BatchReplay {
    sim: FrameSimulator,
    batch: SampleBatch,
    scanner: SyndromeScanner,
    scratch: DecoderScratch,
    syndrome: Vec<u32>,
    flat: Vec<u32>,
    offsets: Vec<usize>,
    predictions: Vec<u32>,
    empty_prediction: Option<u32>,
    /// What this replay has decoded so far.
    pub counts: Counts,
}

/// Work counts of batch replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Shots replayed.
    pub shots: u64,
    /// Shots with a non-empty syndrome (the decoder calls).
    pub nonempty: u64,
    /// Flagged detectors over all shots.
    pub defects: u64,
}

impl Counts {
    /// Adds `other` into these counts.
    pub fn add(&mut self, other: Counts) {
        self.shots += other.shots;
        self.nonempty += other.nonempty;
        self.defects += other.defects;
    }
}

impl BatchReplay {
    /// A replay with scratch sized for `decoder`, which every batch of
    /// the replay must use.
    pub fn new(decoder: &impl Decoder) -> BatchReplay {
        BatchReplay {
            sim: FrameSimulator::empty(),
            batch: SampleBatch::empty(),
            scanner: SyndromeScanner::new(),
            scratch: DecoderScratch::for_decoder(decoder),
            syndrome: Vec::new(),
            flat: Vec::new(),
            offsets: Vec::new(),
            predictions: Vec::new(),
            empty_prediction: None,
            counts: Counts::default(),
        }
    }

    /// Replays batch `spec` of a run seeded `seed`, returning its
    /// per-observable error counts.
    pub fn batch(
        &mut self,
        tracer: &Tracer,
        circuit: &Circuit,
        decoder: &impl Decoder,
        spec: BatchSpec,
        seed: u64,
    ) -> Vec<u64> {
        let (index, size) = spec;
        let Self {
            sim,
            batch,
            scanner,
            scratch,
            syndrome,
            flat,
            offsets,
            predictions,
            empty_prediction,
            ..
        } = self;
        tracer.layer("sim.sample", || {
            sample_batch_with(circuit, size, batch_seed(seed, index), sim, batch)
        });
        tracer.layer("sim.scan", || {
            scanner.begin_batch(batch);
            flat.clear();
            offsets.clear();
            offsets.push(0);
            for s in 0..batch.shots {
                scanner.flagged_into(batch, s, syndrome);
                flat.extend_from_slice(syndrome);
                offsets.push(flat.len());
            }
        });
        let nonempty = tracer.layer("decoder.decode", || {
            predictions.clear();
            let mut nonempty = 0u64;
            for s in 0..batch.shots {
                let shot = &flat[offsets[s]..offsets[s + 1]];
                let mut p = 0u32;
                if shot.is_empty() {
                    p = *empty_prediction.get_or_insert_with(|| {
                        let mut p = 0u32;
                        decoder.decode_into(scratch, &[], &mut p);
                        p
                    });
                } else {
                    decoder.decode_into(scratch, shot, &mut p);
                    nonempty += 1;
                }
                predictions.push(p);
            }
            nonempty
        });
        let mut errors = vec![0u64; batch.num_observables];
        for (s, &p) in predictions.iter().enumerate() {
            for (o, e) in errors.iter_mut().enumerate() {
                if batch.observable(o, s) != ((p >> o) & 1 == 1) {
                    *e += 1;
                }
            }
        }
        self.counts.add(Counts {
            shots: batch.shots as u64,
            nonempty,
            defects: flat.len() as u64,
        });
        errors
    }
}

/// The circuit → decoder chain that `EvalPipeline` builds, one layer
/// call at a time: schedule, noise lowering, DEM extraction, graph and
/// decoder construction.
pub fn layered_chain(
    tracer: &Tracer,
    schedule: impl FnOnce() -> Schedule,
    hardware: &HardwareConfig,
    physical_error: f64,
    kind: DecoderKind,
    decoder_seed: u64,
) -> (Circuit, AnyDecoder) {
    let schedule = tracer.layer("surface.schedule", schedule);
    let circuit = tracer.layer("noise.lower", || {
        CircuitNoiseModel::standard(physical_error, hardware).apply(&schedule)
    });
    let (dem, _) = tracer.layer("sim.dem_extract", || {
        DetectorErrorModel::from_circuit(&circuit, true)
    });
    let graph = tracer.layer("decoder.graph_build", || {
        Arc::new(DecodingGraph::from_dem(&dem))
    });
    let decoder = tracer.layer("decoder.decoder_build", || {
        kind.build_shared(&circuit, graph, decoder_seed)
    });
    (circuit, decoder)
}

/// The set-up layer metrics: mean ms per call of each chain layer, and
/// what the measured `setup_ms` leaves once they are taken out.
pub fn report_setup_layers(report: &mut Report, table: &LayerTable, setup_ms: f64) {
    let layers = [
        ("surface.schedule", "surface.schedule_ms"),
        ("noise.lower", "noise.lower_ms"),
        ("sim.dem_extract", "sim.dem_extract_ms"),
        ("decoder.graph_build", "decoder.graph_build_ms"),
        ("decoder.decoder_build", "decoder.decoder_build_ms"),
    ];
    let mut parts = Vec::new();
    for (layer, metric) in layers {
        let ms = table.ns_per_call(layer) / 1e6;
        parts.push(ms);
        report.metric(metric, "ms", ms);
    }
    report.metric("setup.residual_ms", "ms", residual(setup_ms, &parts));
}

/// `count_batch_errors` timed as a black box on one plan, at one and
/// at two worker threads.
pub struct DriverTimes {
    /// Shots in the plan.
    pub shots: u64,
    /// Median wall time of the 1-thread run, seconds.
    pub one_thread_s: f64,
    /// Median wall time of the 2-thread run, seconds.
    pub two_thread_s: f64,
    /// Heap allocations of one 1-thread run.
    pub allocs: u64,
    /// Whether every run's error counts matched the expected ones.
    pub agree: bool,
}

impl DriverTimes {
    /// Times `count_batch_errors` `repeats` times at each thread count,
    /// checking that both thread counts give `expected` per-observable
    /// error totals.
    pub fn measure(
        circuit: &Circuit,
        decoder: &impl Decoder,
        plan: &[BatchSpec],
        seed: u64,
        expected: &[u64],
        repeats: usize,
    ) -> DriverTimes {
        let shots: u64 = plan.iter().map(|&(_, size)| size as u64).sum();
        let mut times = [Vec::new(), Vec::new()];
        let mut allocs = 0;
        let mut agree = true;
        for _ in 0..repeats.max(1) {
            for (threads, times) in [1, 2].into_iter().zip(times.iter_mut()) {
                let a0 = allocation_count();
                let (errors, s) =
                    timed(|| count_batch_errors(circuit, decoder, plan, seed, threads));
                if threads == 1 {
                    allocs = allocation_count() - a0;
                }
                times.push(s);
                agree &= total_errors(&errors) == expected;
            }
        }
        let [mut one, mut two] = times;
        DriverTimes {
            shots,
            one_thread_s: median(&mut one),
            two_thread_s: median(&mut two),
            allocs,
            agree,
        }
    }

    /// Pools the times of another plan into these.
    pub fn add(&mut self, other: &DriverTimes) {
        self.shots += other.shots;
        self.one_thread_s += other.one_thread_s;
        self.two_thread_s += other.two_thread_s;
        self.allocs += other.allocs;
        self.agree &= other.agree;
    }

    /// Records the check that the driver agreed with the replay.
    pub fn check(&self, report: &mut Report) {
        report.check(
            "count_batch_errors at 1 and 2 threads matches the expected error counts",
            self.agree,
        );
    }
}

/// The batch-path layer metrics from traced replays that decoded
/// `counts`, set against the driver's black-box times.
pub fn report_batch_path(
    report: &mut Report,
    table: &LayerTable,
    counts: &Counts,
    driver: &DriverTimes,
) {
    let shots = counts.shots.max(1) as f64;
    let layers_ns_per_shot =
        (table.ns("sim.sample") + table.ns("sim.scan") + table.ns("decoder.decode")) / shots;
    let driver_ns_per_shot = driver.one_thread_s * 1e9 / driver.shots as f64;
    report.metric(
        "sim.sample_ns_per_shot",
        "ns",
        table.ns("sim.sample") / shots,
    );
    report.metric("sim.scan_ns_per_shot", "ns", table.ns("sim.scan") / shots);
    report.metric(
        "decoder.decode_ns_per_call",
        "ns",
        table.ns("decoder.decode") / counts.nonempty.max(1) as f64,
    );
    report.metric(
        "decoder.nonempty_share",
        "fraction",
        counts.nonempty as f64 / shots,
    );
    report.metric(
        "decoder.defects_per_shot",
        "count",
        counts.defects as f64 / shots,
    );
    report.metric(
        "driver.residual_ns_per_shot",
        "ns",
        residual(driver_ns_per_shot, &[layers_ns_per_shot]),
    );
    report.metric(
        "driver.parallel_efficiency",
        "fraction",
        driver.one_thread_s / (2.0 * driver.two_thread_s),
    );
    report.metric(
        "alloc.allocs_per_shot",
        "count",
        driver.allocs as f64 / driver.shots as f64,
    );
}

/// Adds per-batch error counts into one total per observable.
pub fn total_errors(per_batch: &[Vec<u64>]) -> Vec<u64> {
    let mut totals: Vec<u64> = Vec::new();
    for batch in per_batch {
        totals.resize(totals.len().max(batch.len()), 0);
        for (t, e) in totals.iter_mut().zip(batch) {
            *t += e;
        }
    }
    totals
}

/// Wall time of `f`, seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_totals_add_per_observable() {
        assert_eq!(total_errors(&[vec![1, 2, 3], vec![4, 5, 6]]), vec![5, 7, 9]);
        assert!(total_errors(&[]).is_empty());
    }

    #[test]
    fn passes_keep_each_requests_fastest_time() {
        let mut passes = Passes::default();
        passes.add(0.3, 40, &[10.0, 30.0, 20.0]);
        passes.add(0.1, 40, &[15.0, 25.0, 5.0]);
        passes.add(0.2, 40, &[12.0, 50.0, 8.0]);
        let mut report = Report::default();
        passes.report(&mut report);
        let value = |name: &str| {
            report
                .metrics()
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(value("setup_s"), 0.2);
        // Fastest times 10, 25 and 5 us: 40 operations in 40 us.
        assert!((value("ops_per_s") - 1e6).abs() < 1e-6);
        assert_eq!(value("request_p50_us"), 10.0);
    }

    #[test]
    #[should_panic(expected = "same requests")]
    fn passes_must_repeat_the_same_requests() {
        let mut passes = Passes::default();
        passes.add(0.1, 2, &[1.0, 2.0]);
        passes.add(0.1, 1, &[1.0]);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        let mb = peak_rss_mb();
        assert!(mb.is_finite() && mb > 0.0, "VmHWM {mb}");
    }
}
