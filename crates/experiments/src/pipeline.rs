//! The unified circuit → DEM → decoder → LER evaluation pipeline.
//!
//! Every experiment, example and integration test used to hand-roll
//! the same five-step chain — build a schedule, lower it through a
//! noise model, extract the detector error model, build a decoding
//! graph and decoder, then Monte-Carlo the logical error rate — each
//! with its own ad-hoc decoder branch. [`EvalPipeline`] owns that chain
//! end to end: a builder configures the circuit source, noise scale,
//! [`DecoderKind`], and the shot/batch/seed/thread parameters, and
//! [`EvalPipeline::run`] produces per-observable
//! [`BinomialEstimate`]s. Every estimate comes out of one loop, which
//! samples in deterministic chunks and stops at the first batch where
//! a [`StopRule`] holds: [`EvalPipeline::run_adaptive`] takes the rule,
//! and [`EvalPipeline::run`] is the ceiling-only rule at `shots`. The
//! intermediate artifacts (noisy circuit, DEM, decoding graph,
//! decoder) stay accessible for studies that need more than the final
//! rates (syndrome statistics, latency probes, raw sampling).
//!
//! Results are bit-identical to summing [`count_batch_errors`] over
//! `batch_plan(shots, batch_shots)` by hand: each batch's shot stream
//! comes from its global index, so chunking never changes a count
//! (asserted by the facade's `tests/pipeline.rs`).
//!
//! # Example
//!
//! ```
//! use ftqc_decoder::DecoderKind;
//! use ftqc_experiments::EvalPipeline;
//! use ftqc_noise::HardwareConfig;
//! use ftqc_surface::MemoryConfig;
//!
//! let hw = HardwareConfig::ibm();
//! let ler = EvalPipeline::memory(MemoryConfig::new(3, 4, &hw))
//!     .decoder(DecoderKind::Mwpm)
//!     .shots(2_000)
//!     .seed(7)
//!     .build()
//!     .run();
//! assert!(ler[0].rate() < 0.2); // far below the 50% guess rate
//! ```

use ftqc_circuit::{Circuit, Schedule};
use ftqc_decoder::{count_batch_errors, AnyDecoder, Decoder, DecoderKind, DecodingGraph};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{
    BatchSpec, BinomialEstimate, DemStats, DetectorErrorModel, RunningEstimate, StopReason,
    StopRule,
};
use ftqc_surface::{LatticeSurgeryConfig, MemoryConfig, RepetitionConfig};

/// Where the pipeline's circuit comes from.
enum Source {
    /// Single-patch memory experiment.
    Memory(MemoryConfig),
    /// Two-patch Lattice Surgery experiment.
    Surgery(LatticeSurgeryConfig),
    /// Three-qubit repetition code (Fig. 1c).
    Repetition(RepetitionConfig),
}

/// Builder for [`EvalPipeline`]; construct via the `EvalPipeline`
/// source constructors ([`EvalPipeline::memory`],
/// [`EvalPipeline::lattice_surgery`], …).
pub struct EvalPipelineBuilder {
    source: Source,
    physical_error: f64,
    decoder: DecoderKind,
    decoder_seed: Option<u64>,
    shots: u64,
    batch_shots: usize,
    seed: u64,
    threads: usize,
}

impl EvalPipelineBuilder {
    fn new(source: Source) -> EvalPipelineBuilder {
        EvalPipelineBuilder {
            source,
            physical_error: 1e-3,
            decoder: DecoderKind::UnionFind,
            decoder_seed: None,
            shots: 20_000,
            batch_shots: 1024,
            seed: 0,
            threads: 2,
        }
    }

    /// Physical error rate of the standard circuit noise model
    /// (default `1e-3`).
    pub fn physical_error(mut self, p: f64) -> Self {
        self.physical_error = p;
        self
    }

    /// Decoder family and configuration (default union-find).
    pub fn decoder(mut self, kind: DecoderKind) -> Self {
        self.decoder = kind;
        self
    }

    /// Seed for sampling-trained decoders (defaults to the evaluation
    /// seed) — split them when the training stream must stay fixed
    /// across an evaluation sweep, as Fig. 1(c) does.
    pub fn decoder_seed(mut self, seed: u64) -> Self {
        self.decoder_seed = Some(seed);
        self
    }

    /// Monte-Carlo shots (default 20 000).
    pub fn shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Shots per sampling batch (default 1024). Results are
    /// deterministic for fixed `(seed, batch_shots)` regardless of
    /// thread count.
    pub fn batch_shots(mut self, batch_shots: usize) -> Self {
        self.batch_shots = batch_shots;
        self
    }

    /// Base RNG seed for the evaluation (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for the evaluation (default 2).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Executes the front half of the chain (circuit lowering, DEM
    /// extraction, graph construction), returning the ready pipeline.
    /// The configured decoder is built lazily on first use, so
    /// pipelines driven only through
    /// [`run_with`](EvalPipeline::run_with) /
    /// [`build_decoder`](EvalPipeline::build_decoder) never pay for it.
    pub fn build(self) -> EvalPipeline {
        let circuit = self.build_circuit();
        // Decompose hyperedges into elementary edges: the matching
        // decoders need a graphlike model.
        let (dem, dem_stats) = DetectorErrorModel::from_circuit(&circuit, true);
        let graph = std::sync::Arc::new(DecodingGraph::from_dem(&dem));
        // Debug-build pre-flight: the CSR invariants FTQC013 checks are
        // assumed without re-validation by every decoder; catch a
        // malformed graph at construction, not mid-decode.
        #[cfg(debug_assertions)]
        ftqc_analyzer::preflight_graph("EvalPipeline::build", &dem, &graph);
        EvalPipeline {
            circuit,
            dem,
            dem_stats,
            graph,
            kind: self.decoder,
            decoder: std::sync::OnceLock::new(),
            decoder_seed: self.decoder_seed,
            shots: self.shots,
            batch_shots: self.batch_shots,
            seed: self.seed,
            threads: self.threads,
        }
    }

    /// Lowers the circuit source through the noise model and stops
    /// there — for sampling-only studies (syndrome statistics, raw
    /// flip rates) that never decode and should not pay for DEM
    /// extraction or graph construction.
    pub fn build_circuit(&self) -> Circuit {
        match &self.source {
            Source::Memory(cfg) => self.lower(&cfg.build(), &cfg.hardware),
            Source::Surgery(cfg) => self.lower(&cfg.build(), &cfg.hardware),
            Source::Repetition(cfg) => self.lower(&cfg.build(), &cfg.hardware),
        }
    }

    fn lower(&self, schedule: &Schedule, hardware: &HardwareConfig) -> Circuit {
        CircuitNoiseModel::standard(self.physical_error, hardware).apply(schedule)
    }
}

/// The prepared circuit → DEM → decoder chain; see the
/// [module docs](self).
pub struct EvalPipeline {
    circuit: Circuit,
    dem: DetectorErrorModel,
    dem_stats: DemStats,
    graph: std::sync::Arc<DecodingGraph>,
    kind: DecoderKind,
    decoder: std::sync::OnceLock<AnyDecoder>,
    decoder_seed: Option<u64>,
    shots: u64,
    batch_shots: usize,
    seed: u64,
    threads: usize,
}

impl EvalPipeline {
    /// Pipeline over a single-patch memory experiment.
    pub fn memory(cfg: MemoryConfig) -> EvalPipelineBuilder {
        EvalPipelineBuilder::new(Source::Memory(cfg))
    }

    /// Pipeline over the two-patch Lattice Surgery experiment.
    pub fn lattice_surgery(cfg: LatticeSurgeryConfig) -> EvalPipelineBuilder {
        EvalPipelineBuilder::new(Source::Surgery(cfg))
    }

    /// Pipeline over the three-qubit repetition code of Fig. 1(c).
    pub fn repetition(cfg: RepetitionConfig) -> EvalPipelineBuilder {
        EvalPipelineBuilder::new(Source::Repetition(cfg))
    }

    /// Samples `shots` shots, decodes every shot and returns one
    /// logical-error estimate per observable: the evaluation loop under
    /// the ceiling-only rule `StopRule::max_shots(shots)`.
    ///
    /// # Panics
    ///
    /// Panics if `shots`, `batch_shots` or `threads` is zero.
    pub fn run(&self) -> Vec<BinomialEstimate> {
        let rule = StopRule::max_shots(self.shots);
        self.drive(self.decoder(), &rule, None, |_| {}).estimates()
    }

    /// Run-until-confident evaluation: stops at the first batch where
    /// `rule` is satisfied (failure target, relative-standard-error
    /// target, or the hard shot ceiling).
    ///
    /// The builder's `shots` setting is ignored — the stop rule owns
    /// run length. Results are bit-identical for a fixed
    /// `(seed, batch_shots)` regardless of thread count; with a
    /// ceiling-only rule they are [`run`](EvalPipeline::run) at
    /// `shots = ceiling`.
    pub fn run_adaptive(&self, rule: &StopRule) -> AdaptiveOutcome {
        self.run_adaptive_with(rule, None, |_| {})
    }

    /// [`run_adaptive`](EvalPipeline::run_adaptive), resuming from a
    /// checkpointed partial estimate and reporting progress to
    /// `on_progress` (the checkpoint-persistence hook) after every
    /// chunk. Progress is only reported on batch boundaries — a
    /// ceiling-truncated partial batch is never checkpointed, so a
    /// checkpoint always resumes cleanly even under a later, larger
    /// ceiling (the partial tail is simply re-sampled).
    ///
    /// # Panics
    ///
    /// Panics if `resume` tracks a different observable count than the
    /// circuit, or ends off a batch boundary while `rule` is not yet
    /// satisfied (states from `on_progress` never do).
    pub fn run_adaptive_with(
        &self,
        rule: &StopRule,
        resume: Option<RunningEstimate>,
        on_progress: impl FnMut(&RunningEstimate),
    ) -> AdaptiveOutcome {
        self.drive(self.decoder(), rule, resume, on_progress)
    }

    /// The evaluation loop behind every `run*` method. It samples
    /// chunks of at least 16 batches, rounded up to a multiple of
    /// `threads` so no wave leaves a worker idle, cut off at the rule's
    /// shot ceiling. It merges the
    /// per-batch counts in global batch order and stops at the first
    /// batch where `rule` holds, so the stopping point does not depend
    /// on the chunk size.
    fn drive(
        &self,
        decoder: &impl Decoder,
        rule: &StopRule,
        resume: Option<RunningEstimate>,
        mut on_progress: impl FnMut(&RunningEstimate),
    ) -> AdaptiveOutcome {
        let num_obs = self.circuit.num_observables() as usize;
        let mut state = resume.unwrap_or_else(|| RunningEstimate::new(num_obs));
        assert_eq!(
            state.num_observables(),
            num_obs,
            "resume state does not match the circuit's observable count"
        );
        assert!(
            state.trials().is_multiple_of(self.batch_shots as u64)
                || rule.evaluate(&state).is_some(),
            "resume state must end on a batch boundary (trials {}, batch_shots {})",
            state.trials(),
            self.batch_shots
        );
        let threads = self.threads as u64;
        let chunk_batches = 16u64.div_ceil(threads) * threads;
        let span = ftqc_telemetry::span("exp/run_adaptive");
        loop {
            if let Some(reason) = rule.evaluate(&state) {
                span.end_with(&[ftqc_telemetry::Arg::new("trials", state.trials() as f64)]);
                return AdaptiveOutcome { state, reason };
            }
            let first = state.trials() / self.batch_shots as u64;
            let plan = chunk_plan(first, chunk_batches, self.batch_shots, rule.shot_ceiling());
            let per_batch =
                count_batch_errors(&self.circuit, decoder, &plan, self.seed, self.threads);
            for ((_, size), errors) in plan.iter().zip(&per_batch) {
                state.record(*size as u64, errors);
                let stop = rule.evaluate(&state).is_some();
                // One marker per stop-rule evaluation: the run's
                // decision points, visible on the trace timeline.
                if ftqc_telemetry::enabled() {
                    ftqc_telemetry::counter("exp/stop_evals", 1);
                    ftqc_telemetry::instant(
                        "exp/adaptive_batch",
                        &[
                            ftqc_telemetry::Arg::new("trials", state.trials() as f64),
                            ftqc_telemetry::Arg::new("batch_shots", *size as f64),
                            ftqc_telemetry::Arg::new("stop", if stop { 1.0 } else { 0.0 }),
                        ],
                    );
                }
                if stop {
                    break; // chunk-size-invariant stopping point
                }
            }
            if state.trials().is_multiple_of(self.batch_shots as u64) {
                on_progress(&state);
            }
        }
    }

    /// A stable 64-bit key for this evaluation configuration (noisy
    /// circuit, decoder kind, evaluation + decoder seeds, batch size)
    /// — what checkpoint entries are filed under, so a resumed run can
    /// never merge a partial estimate into a different configuration.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the circuit's canonical debug form plus the
        // sampling parameters.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fold(format!("{:?}", self.circuit).as_bytes());
        fold(format!("{:?}", self.kind).as_bytes());
        fold(&self.seed.to_le_bytes());
        // Sampling-trained decoders (e.g. Lut) decode differently per
        // training seed, which changes the measured counts.
        fold(&self.decoder_seed.unwrap_or(self.seed).to_le_bytes());
        fold(&(self.batch_shots as u64).to_le_bytes());
        hash
    }

    /// Runs the evaluation under a *different* decoder kind over the
    /// same prepared circuit/DEM/graph — the seam decoder-comparison
    /// studies use so artifacts are shared rather than rebuilt.
    pub fn run_with(&self, kind: DecoderKind) -> Vec<BinomialEstimate> {
        let decoder = self.build_decoder(kind);
        let rule = StopRule::max_shots(self.shots);
        self.drive(&decoder, &rule, None, |_| {}).estimates()
    }

    /// Builds an additional decoder of `kind` over this pipeline's
    /// graph — shared by `Arc`, never deep-copied — (sampling-trained
    /// kinds train on this pipeline's circuit with the configured
    /// decoder seed).
    pub fn build_decoder(&self, kind: DecoderKind) -> AnyDecoder {
        kind.build_shared(
            &self.circuit,
            std::sync::Arc::clone(&self.graph),
            self.decoder_seed.unwrap_or(self.seed),
        )
    }

    /// The noisy circuit under evaluation.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The extracted detector error model.
    pub fn dem(&self) -> &DetectorErrorModel {
        &self.dem
    }

    /// Extraction statistics (hyperedge drops etc.).
    pub fn dem_stats(&self) -> &DemStats {
        &self.dem_stats
    }

    /// The decoding graph shared by every decoder this pipeline builds.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// The configured decoder (built on first use).
    pub fn decoder(&self) -> &AnyDecoder {
        self.decoder.get_or_init(|| self.build_decoder(self.kind))
    }

    /// The configured decoder kind.
    pub fn decoder_kind(&self) -> DecoderKind {
        self.kind
    }

    /// Evaluation shot count.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Evaluation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// The next chunk of an evaluation: up to `chunk_batches` batches
/// starting at global index `first`, truncated so the run never
/// samples past `ceiling` total shots.
fn chunk_plan(first: u64, chunk_batches: u64, batch_shots: usize, ceiling: u64) -> Vec<BatchSpec> {
    let mut plan = Vec::new();
    for b in first..first + chunk_batches {
        let start = b * batch_shots as u64;
        if start >= ceiling {
            break;
        }
        let size = (ceiling - start).min(batch_shots as u64) as usize;
        plan.push((b, size));
    }
    plan
}

/// Result of an evaluation: the merged totals plus why the run
/// stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveOutcome {
    /// Merged per-observable totals at the stopping point.
    pub state: RunningEstimate,
    /// Which criterion fired.
    pub reason: StopReason,
}

impl AdaptiveOutcome {
    /// Per-observable estimates at the stopping point.
    pub fn estimates(&self) -> Vec<BinomialEstimate> {
        self.state.estimates()
    }

    /// Shots actually sampled before stopping.
    pub fn shots(&self) -> u64 {
        self.state.trials()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_noise::HardwareConfig;

    fn d3_memory() -> MemoryConfig {
        MemoryConfig::new(3, 4, &HardwareConfig::ibm())
    }

    #[test]
    fn pipeline_matches_direct_chain_bit_for_bit() {
        let cfg = d3_memory();
        let pipeline = EvalPipeline::memory(cfg.clone())
            .decoder(DecoderKind::UnionFind)
            .shots(2_000)
            .batch_shots(256)
            .seed(42)
            .threads(2)
            .build();
        // The hand-rolled chain, spelled out: one `count_batch_errors`
        // call over the whole batch plan, summed per observable.
        let circuit = CircuitNoiseModel::standard(1e-3, &cfg.hardware).apply(&cfg.build());
        let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
        let direct = ftqc_decoder::UfDecoder::new(DecodingGraph::from_dem(&dem));
        let plan = ftqc_sim::batch_plan(2_000, 256);
        let per_batch = count_batch_errors(&circuit, &direct, &plan, 42, 2);
        let direct_ler: Vec<BinomialEstimate> = (0..circuit.num_observables() as usize)
            .map(|o| BinomialEstimate::new(per_batch.iter().map(|b| b[o]).sum(), 2_000))
            .collect();
        assert_eq!(pipeline.run(), direct_ler);
    }

    #[test]
    fn run_with_shares_artifacts() {
        let pipeline = EvalPipeline::memory(d3_memory())
            .shots(1_000)
            .seed(3)
            .build();
        let uf = pipeline.run();
        let mwpm = pipeline.run_with(DecoderKind::Mwpm);
        assert_eq!(uf.len(), mwpm.len());
        assert_eq!(pipeline.decoder_kind(), DecoderKind::UnionFind);
        assert_eq!(pipeline.dem_stats().dropped_hyperedges, 0);
    }

    #[test]
    fn ceiling_only_adaptive_matches_fixed_run() {
        let pipeline = EvalPipeline::memory(d3_memory())
            .physical_error(3e-3)
            .shots(3_000)
            .batch_shots(256)
            .seed(11)
            .build();
        let fixed = pipeline.run();
        let adaptive = pipeline.run_adaptive(&StopRule::max_shots(3_000));
        assert_eq!(adaptive.reason, StopReason::ShotCeiling);
        assert_eq!(adaptive.shots(), 3_000);
        assert_eq!(adaptive.estimates(), fixed);
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let base = EvalPipeline::memory(d3_memory()).seed(1).build();
        let same = EvalPipeline::memory(d3_memory()).seed(1).build();
        let other_seed = EvalPipeline::memory(d3_memory()).seed(2).build();
        let other_decoder = EvalPipeline::memory(d3_memory())
            .seed(1)
            .decoder(DecoderKind::Mwpm)
            .build();
        assert_eq!(base.fingerprint(), same.fingerprint());
        assert_ne!(base.fingerprint(), other_seed.fingerprint());
        assert_ne!(base.fingerprint(), other_decoder.fingerprint());
    }
}
