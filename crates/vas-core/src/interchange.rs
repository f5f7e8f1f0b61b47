//! The Interchange algorithm (Algorithm 1 of the paper) and the
//! [`VasSampler`] built on top of it.
//!
//! Interchange is a hill-climbing solver for the VAS optimization problem:
//! it starts from the first `K` points of the stream and, for every further
//! data point, performs a *valid replacement* — swapping the new point into
//! the sample whenever doing so decreases the objective
//! `Σ_{i<j} κ̃(s_i, s_j)`.
//!
//! The replacement test is implemented with the paper's Expand/Shrink trick:
//! the *responsibility* of every sample element is maintained incrementally,
//! the candidate is (conceptually) added to form a set of size `K+1`, and the
//! element with the largest responsibility in the expanded set is dropped.
//! Theorem 2 shows this performs exactly the valid replacements.
//!
//! Three strategies reproduce the ablation of Figure 10:
//!
//! * [`InterchangeStrategy::Naive`] — "No ES": responsibilities are recomputed
//!   from scratch for every candidate (`O(K²)` kernel evaluations per tuple).
//! * [`InterchangeStrategy::ExpandShrink`] — "ES": incremental
//!   responsibilities, `O(K)` kernel evaluations per tuple.
//! * [`InterchangeStrategy::ExpandShrinkLocality`] — "ES+Loc": a spatial
//!   index over the current sample restricts kernel evaluations to the
//!   candidate's neighbourhood, exploiting the locality of the proximity
//!   function.
//!
//! The locality strategy is generic over the spatial index through the
//! [`LocalityIndex`] trait: the paper's R-tree, a dynamic k-d tree and the
//! default [`HashGrid`](vas_spatial::HashGrid) (cutoff-sized spatial-hash
//! cells — the fastest backend on this fixed-radius churn workload) are
//! interchangeable via [`VasConfig::with_locality_backend`], and
//! [`VasSampler::with_index`] accepts any statically-typed backend.
//!
//! Interchange is one sequential hill climb: every entry point, chunked or
//! point by point, runs the same fill/candidate loop on the calling thread.

use crate::checkpoint::{self, BuildOutcome, CheckpointPolicy};
use crate::kernel::{GaussianKernel, Kernel};
use crate::objective::objective;
use std::path::Path;
use std::time::{Duration, Instant};
use vas_data::{BoundingBox, Dataset, Point};
use vas_obs::{Counter, Phase, Recorder, ValueSeries};
use vas_sampling::{Sample, Sampler};
use vas_spatial::snapshot::{self as snap, SnapshotReader};
use vas_spatial::{AnyLocalityIndex, LocalityBackend, LocalityIndex, NeighborBatch};
use vas_stream::{write_atomic, PointSource, VasError};

/// Which inner-loop implementation the Interchange algorithm uses.
///
/// All strategies implement the same hill-climbing rule. `Naive` and
/// `ExpandShrink` make identical decisions until two responsibilities come
/// within floating-point rounding of each other: they sum in different
/// orders, so such a near-tie can be resolved differently, and from then on
/// the samples may differ (both remain valid Interchange runs).
/// `ExpandShrinkLocality` may also differ negligibly because kernel values
/// below the locality threshold are treated as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterchangeStrategy {
    /// Recompute responsibilities from scratch for every candidate ("No ES").
    Naive,
    /// Incrementally maintained responsibilities ("ES").
    ExpandShrink,
    /// Incremental responsibilities plus spatial-index neighbourhood pruning
    /// ("ES+Loc"); the index backend is chosen by
    /// [`VasConfig::with_locality_backend`].
    ExpandShrinkLocality,
}

impl InterchangeStrategy {
    /// Label used in experiment output ("No ES", "ES", "ES+Loc").
    pub fn label(&self) -> &'static str {
        match self {
            InterchangeStrategy::Naive => "No ES",
            InterchangeStrategy::ExpandShrink => "ES",
            InterchangeStrategy::ExpandShrinkLocality => "ES+Loc",
        }
    }
}

/// Configuration of the [`VasSampler`].
#[derive(Debug, Clone)]
pub struct VasConfig {
    /// Sample-size budget `K`.
    pub k: usize,
    /// Inner-loop strategy (default: `ExpandShrinkLocality`).
    pub strategy: InterchangeStrategy,
    /// Kernel bandwidth ε. `None` selects the paper's rule
    /// (dataset extent diagonal / 100) from the data itself.
    pub epsilon: Option<f64>,
    /// Kernel values below this threshold are treated as zero by the locality
    /// strategy (the paper's example threshold is ≈1e-7).
    pub locality_threshold: f64,
    /// Number of passes over the dataset made by [`VasSampler::build`]
    /// (the streaming [`Sampler`] interface always performs a single pass).
    pub passes: usize,
    /// Emit a [`ProgressEvent`] every this many observed tuples
    /// (0 disables progress reporting).
    pub progress_every: u64,
    /// Use the pre-optimization inner loop (`O(K)` Shrink scan, allocating
    /// spatial queries). Retained as the measured baseline of the
    /// `fig10_inner_loop` benchmark and as the reference implementation the
    /// determinism suite checks the optimized loop against bit-for-bit.
    pub legacy_inner_loop: bool,
    /// Which spatial index the locality strategy keeps the sample in
    /// (default: [`LocalityBackend::HashGrid`]). Only consulted by the
    /// runtime-dispatched constructors ([`VasSampler::new`],
    /// [`VasSampler::from_dataset`]); statically-typed samplers built with
    /// [`VasSampler::with_index`] bring their own backend.
    pub locality_backend: LocalityBackend,
    /// Force the point-at-a-time **scalar** kernel-evaluation path instead
    /// of the batched gather-then-evaluate path (SoA lanes through
    /// [`Kernel::eval_dist2_batch`]) that `ExpandShrink`/
    /// `ExpandShrinkLocality` candidates use by default. The two paths are
    /// bit-identical (pinned in `tests/determinism.rs`); this switch exists
    /// as the measured baseline of the `fig10_inner_loop` kernel-phase
    /// benchmark and as the reference the determinism suite compares
    /// against.
    pub scalar_kernel_path: bool,
}

impl VasConfig {
    /// Default configuration for a sample of size `k`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            strategy: InterchangeStrategy::ExpandShrinkLocality,
            epsilon: None,
            locality_threshold: 1e-6,
            passes: 1,
            progress_every: 0,
            legacy_inner_loop: false,
            scalar_kernel_path: false,
            locality_backend: LocalityBackend::default(),
        }
    }

    /// Sets the inner-loop strategy.
    pub fn with_strategy(mut self, strategy: InterchangeStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Fixes the kernel bandwidth ε explicitly.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Sets the number of passes used by [`VasSampler::build`].
    pub fn with_passes(mut self, passes: usize) -> Self {
        self.passes = passes.max(1);
        self
    }

    /// Sets the progress reporting interval (in observed tuples).
    pub fn with_progress_every(mut self, every: u64) -> Self {
        self.progress_every = every;
        self
    }

    /// Sets the locality threshold used by `ExpandShrinkLocality`.
    pub fn with_locality_threshold(mut self, threshold: f64) -> Self {
        self.locality_threshold = threshold;
        self
    }

    /// Selects the pre-optimization inner loop (see
    /// [`legacy_inner_loop`](Self::legacy_inner_loop)). Benchmarking and
    /// regression-testing only — the optimized loop produces bit-identical
    /// samples faster.
    pub fn with_legacy_inner_loop(mut self, legacy: bool) -> Self {
        self.legacy_inner_loop = legacy;
        self
    }

    /// Forces the scalar kernel-evaluation path (see
    /// [`scalar_kernel_path`](Self::scalar_kernel_path)). Benchmarking and
    /// regression-testing only — the batched path produces bit-identical
    /// samples faster.
    pub fn with_scalar_kernel_path(mut self, scalar: bool) -> Self {
        self.scalar_kernel_path = scalar;
        self
    }

    /// Selects the spatial-index backend the locality strategy uses (see
    /// [`locality_backend`](Self::locality_backend)).
    pub fn with_locality_backend(mut self, backend: LocalityBackend) -> Self {
        self.locality_backend = backend;
        self
    }

    /// Accepts and ignores a thread count: Interchange is a single
    /// sequential hill climb and has no worker threads. Kept so callers
    /// written against the former thread knob still compile; it returns
    /// `self` unchanged.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

/// A snapshot of Interchange progress, reported periodically while scanning.
///
/// The Figure 9 experiment ("processing time vs quality") is generated by
/// recording these events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressEvent {
    /// Number of tuples observed so far (across all passes).
    pub tuples_processed: u64,
    /// Number of valid replacements performed so far.
    pub replacements: u64,
    /// Current value of the optimization objective `Σ_{i<j} κ̃(s_i, s_j)`.
    /// For the locality strategy this is exact up to the ignored kernel tails.
    pub objective: f64,
    /// Wall-clock time since the sampler was created (or last reset).
    pub elapsed: Duration,
}

/// Callback receiving [`ProgressEvent`]s.
pub type ProgressSink = Box<dyn FnMut(ProgressEvent) + Send>;

/// The VAS sampler: Interchange over a stream of points.
///
/// Generic over the [`LocalityIndex`] backend the locality strategy keeps the
/// sample in. The default instantiation dispatches at runtime via
/// [`AnyLocalityIndex`] (selected by [`VasConfig::with_locality_backend`],
/// default [`HashGrid`](vas_spatial::HashGrid)); performance-critical callers
/// can pin a concrete backend with [`VasSampler::with_index`].
pub struct VasSampler<L: LocalityIndex = AnyLocalityIndex> {
    config: VasConfig,
    kernel: Option<GaussianKernel>,
    /// Locality cutoff radius (cached; `cutoff2` is its square). Both are
    /// derived once per kernel install so the hot loop never calls `sqrt`.
    cutoff: f64,
    cutoff2: f64,
    /// Current sample, slot-indexed; slots are stable across replacements.
    points: Vec<Point>,
    /// Responsibilities without the ½ factor: `rsp[i] = Σ_{j≠i} κ̃(s_i, s_j)`.
    rsp: Vec<f64>,
    /// Spatial index over the sample (ids are slot indices); only maintained
    /// by the locality strategy.
    index: L,
    /// [`argmax`] of `rsp`, the standing maximum the locality strategy's
    /// Shrink step reads; valid only while `max_fresh` holds.
    max_rsp: Option<(usize, f64)>,
    /// Whether `max_rsp` mirrors `rsp`. Cleared by every path that mutates
    /// `rsp` (fill, accepts, naive rebuilds) and restored lazily by the next
    /// locality candidate, so a run of rejects rescans nothing.
    max_fresh: bool,
    /// Reusable SoA gather scratch for the per-candidate neighbourhood query
    /// (`ids` lane-parallel to `dist2`), so the steady-state replacement test
    /// performs no allocation. The scalar path reuses its `ids` buffer too.
    gather: NeighborBatch,
    /// Reusable buffer of per-candidate kernel values, lane-parallel to
    /// `gather.ids` (the other half of the SoA delta representation).
    scratch_vals: Vec<f64>,
    /// Running objective value (½ of the responsibility sum, maintained
    /// incrementally).
    objective: f64,
    seen: u64,
    replacements: u64,
    /// Metrics/journal sink ([`Recorder::detached`] by default): kernel
    /// lanes, accepts/rejects and checkpoint events live in its registry
    /// rather than in dedicated fields. Strictly off the data path —
    /// nothing it measures feeds back into sampled state.
    recorder: Recorder,
    progress: Option<ProgressSink>,
    started: Instant,
}

impl<L: LocalityIndex> std::fmt::Debug for VasSampler<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VasSampler")
            .field("config", &self.config)
            .field("sample_len", &self.points.len())
            .field("seen", &self.seen)
            .field("replacements", &self.replacements)
            .field("objective", &self.objective)
            .finish()
    }
}

impl VasSampler {
    /// Creates a sampler whose locality backend is chosen at runtime from
    /// [`VasConfig::locality_backend`]. If `config.epsilon` is `None`, the
    /// bandwidth is resolved from the whole dataset by
    /// [`build`](Self::build) and [`sample_dataset`](Sampler::sample_dataset),
    /// and from the extent of the first `K` buffered points when the
    /// sampler is fed point by point through `observe`.
    pub fn new(config: VasConfig) -> Self {
        let index = AnyLocalityIndex::new(config.locality_backend);
        Self::with_index(config, index)
    }

    /// Creates a sampler whose bandwidth (if not fixed in the config) follows
    /// the paper's rule applied to `dataset`: ε = extent diagonal / 100.
    pub fn from_dataset(dataset: &Dataset, config: VasConfig) -> Self {
        let index = AnyLocalityIndex::new(config.locality_backend);
        Self::from_dataset_with_index(dataset, config, index)
    }
}

/// Tag values for [`InterchangeStrategy`] in the checkpoint payload.
fn strategy_tag(strategy: InterchangeStrategy) -> u8 {
    match strategy {
        InterchangeStrategy::Naive => 0,
        InterchangeStrategy::ExpandShrink => 1,
        InterchangeStrategy::ExpandShrinkLocality => 2,
    }
}

fn strategy_from_tag(tag: u8) -> Result<InterchangeStrategy, VasError> {
    match tag {
        0 => Ok(InterchangeStrategy::Naive),
        1 => Ok(InterchangeStrategy::ExpandShrink),
        2 => Ok(InterchangeStrategy::ExpandShrinkLocality),
        other => Err(VasError::Checkpoint {
            detail: format!("unknown strategy tag {other}"),
        }),
    }
}

/// Tag values for [`LocalityBackend`] in the checkpoint payload.
fn backend_tag(backend: LocalityBackend) -> u8 {
    match backend {
        LocalityBackend::RTree => 0,
        LocalityBackend::KdTree => 1,
        LocalityBackend::HashGrid => 2,
    }
}

fn backend_from_tag(tag: u8) -> Result<LocalityBackend, VasError> {
    match tag {
        0 => Ok(LocalityBackend::RTree),
        1 => Ok(LocalityBackend::KdTree),
        2 => Ok(LocalityBackend::HashGrid),
        other => Err(VasError::Checkpoint {
            detail: format!("unknown locality backend tag {other}"),
        }),
    }
}

/// A resume precondition that must match between the checkpoint and the
/// caller's configuration/source.
fn require_match<T: PartialEq + std::fmt::Debug>(
    what: &str,
    expected: T,
    found: T,
) -> Result<(), VasError> {
    if expected == found {
        Ok(())
    } else {
        Err(VasError::Mismatch {
            expected: format!("{what} {expected:?}"),
            found: format!("{found:?}"),
        })
    }
}

/// Checkpoint/resume for the runtime-dispatched sampler. The index snapshot
/// codec is backend-tagged (see [`vas_spatial::snapshot`]), so these entry
/// points live on the [`AnyLocalityIndex`]-backed sampler every driver and
/// benchmark uses.
impl VasSampler {
    /// Serializes the full sampler state plus the stream position into a
    /// checkpoint payload (the container framing — magic, version, CRC — is
    /// applied by [`write_checkpoint`](Self::write_checkpoint)).
    fn encode_checkpoint_payload(
        &self,
        pass: u64,
        chunks_consumed: u64,
        source_name: &str,
        chunk_capacity: u64,
    ) -> Result<Vec<u8>, VasError> {
        let kernel = self.kernel.as_ref().ok_or(VasError::Checkpoint {
            detail: "cannot checkpoint before the kernel bandwidth is resolved".into(),
        })?;
        let mut out = Vec::new();
        snap::put_u64(&mut out, self.config.k as u64);
        snap::put_u8(&mut out, strategy_tag(self.config.strategy));
        snap::put_u8(&mut out, self.config.legacy_inner_loop as u8);
        snap::put_u8(&mut out, self.config.scalar_kernel_path as u8);
        snap::put_u8(&mut out, backend_tag(self.config.locality_backend));
        snap::put_f64(&mut out, self.config.locality_threshold);
        snap::put_u64(&mut out, self.config.passes.max(1) as u64);
        snap::put_f64(&mut out, kernel.epsilon());
        snap::put_usize(&mut out, source_name.len());
        out.extend_from_slice(source_name.as_bytes());
        snap::put_u64(&mut out, chunk_capacity);
        snap::put_u64(&mut out, pass);
        snap::put_u64(&mut out, chunks_consumed);
        snap::put_usize(&mut out, self.points.len());
        for p in &self.points {
            snap::put_f64(&mut out, p.x);
            snap::put_f64(&mut out, p.y);
            snap::put_f64(&mut out, p.value);
        }
        snap::put_usize(&mut out, self.rsp.len());
        for &r in &self.rsp {
            snap::put_f64(&mut out, r);
        }
        snap::put_f64(&mut out, self.objective);
        snap::put_u64(&mut out, self.seen);
        snap::put_u64(&mut out, self.replacements);
        snap::put_u64(
            &mut out,
            self.recorder.registry().get(Counter::CoreKernelLanes),
        );
        let index_bytes = self.index.snapshot();
        snap::put_usize(&mut out, index_bytes.len());
        out.extend_from_slice(&index_bytes);
        Ok(out)
    }

    /// Atomically persists a checkpoint of the sampler at the given stream
    /// position: the file at `path` is replaced via temp + fsync + rename,
    /// so a crash mid-write leaves the previous checkpoint intact.
    pub fn write_checkpoint(
        &self,
        path: &Path,
        pass: u64,
        chunks_consumed: u64,
        source_name: &str,
        chunk_capacity: u64,
    ) -> Result<(), VasError> {
        let payload =
            self.encode_checkpoint_payload(pass, chunks_consumed, source_name, chunk_capacity)?;
        let bytes = checkpoint::encode_container(&payload);
        write_atomic(path, &bytes)
            .map_err(|e| VasError::io(format!("writing checkpoint {}", path.display()), e))
    }

    /// Restores a sampler from a checkpoint file, verifying that `config`
    /// asks for the run the checkpoint belongs to (budget, strategy,
    /// backend, threshold, passes — everything the sample bits depend on;
    /// progress reporting may differ, as the output does not depend on it).
    ///
    /// Returns the sampler plus the stream position to resume from:
    /// `(pass, chunks_consumed, source_name, chunk_capacity)`.
    pub fn resume_from_checkpoint(
        path: &Path,
        config: VasConfig,
    ) -> Result<(Self, u64, u64, String, u64), VasError> {
        Self::resume_from_checkpoint_recorded(path, config, Recorder::detached())
    }

    /// [`resume_from_checkpoint`](Self::resume_from_checkpoint) with a
    /// [`Recorder`] attached to the restored sampler: the checkpointed
    /// kernel-lane total is restored into its registry,
    /// `core_checkpoint_resumes` is counted and a `checkpoint_resume` event
    /// is journaled.
    pub fn resume_from_checkpoint_recorded(
        path: &Path,
        config: VasConfig,
        recorder: Recorder,
    ) -> Result<(Self, u64, u64, String, u64), VasError> {
        let label = path.display().to_string();
        let bytes = std::fs::read(path)
            .map_err(|e| VasError::io(format!("reading checkpoint {label}"), e))?;
        let payload = checkpoint::decode_container(&label, &bytes)?;
        let mut r = SnapshotReader::new(payload);
        let ck = |e: snap::SnapshotError| VasError::Checkpoint {
            detail: e.to_string(),
        };

        let k = r.take_usize("k").map_err(ck)?;
        let strategy = strategy_from_tag(r.take_u8("strategy").map_err(ck)?)?;
        let legacy = r.take_u8("legacy flag").map_err(ck)? != 0;
        let scalar = r.take_u8("scalar flag").map_err(ck)? != 0;
        let backend = backend_from_tag(r.take_u8("backend").map_err(ck)?)?;
        let threshold = r.take_f64("locality threshold").map_err(ck)?;
        let passes = r.take_u64("passes").map_err(ck)?;
        require_match("sample budget k", k, config.k)?;
        require_match("strategy", strategy, config.strategy)?;
        require_match("legacy_inner_loop", legacy, config.legacy_inner_loop)?;
        require_match("scalar_kernel_path", scalar, config.scalar_kernel_path)?;
        require_match("locality_backend", backend, config.locality_backend)?;
        require_match(
            "locality_threshold bits",
            threshold.to_bits(),
            config.locality_threshold.to_bits(),
        )?;
        require_match("passes", passes, config.passes.max(1) as u64)?;

        let epsilon = r.take_f64("epsilon").map_err(ck)?;
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(VasError::Checkpoint {
                detail: format!("checkpointed bandwidth {epsilon} is not finite positive"),
            });
        }
        if let Some(fixed) = config.epsilon {
            require_match("epsilon bits", epsilon.to_bits(), fixed.to_bits())?;
        }
        let name_len = r.take_usize("source name length").map_err(ck)?;
        let mut name_bytes = Vec::with_capacity(name_len.min(1 << 16));
        for _ in 0..name_len {
            name_bytes.push(r.take_u8("source name byte").map_err(ck)?);
        }
        let source_name = String::from_utf8(name_bytes).map_err(|_| VasError::Checkpoint {
            detail: "source name is not valid UTF-8".into(),
        })?;
        let chunk_capacity = r.take_u64("chunk capacity").map_err(ck)?;
        let pass = r.take_u64("pass index").map_err(ck)?;
        let chunks_consumed = r.take_u64("chunks consumed").map_err(ck)?;

        let n_points = r.take_usize("sample point count").map_err(ck)?;
        let mut points = Vec::with_capacity(n_points.min(1 << 20));
        for _ in 0..n_points {
            let x = r.take_f64("sample point x").map_err(ck)?;
            let y = r.take_f64("sample point y").map_err(ck)?;
            let value = r.take_f64("sample point value").map_err(ck)?;
            points.push(Point::with_value(x, y, value));
        }
        let n_rsp = r.take_usize("responsibility count").map_err(ck)?;
        let mut rsp = Vec::with_capacity(n_rsp.min(1 << 20));
        for _ in 0..n_rsp {
            rsp.push(r.take_f64("responsibility").map_err(ck)?);
        }
        let objective = r.take_f64("objective").map_err(ck)?;
        let seen = r.take_u64("seen").map_err(ck)?;
        let replacements = r.take_u64("replacements").map_err(ck)?;
        let kernel_lanes = r.take_u64("kernel lanes").map_err(ck)?;
        let index_len = r.take_usize("index snapshot length").map_err(ck)?;
        let mut index_bytes = Vec::with_capacity(index_len.min(1 << 20));
        for _ in 0..index_len {
            index_bytes.push(r.take_u8("index snapshot byte").map_err(ck)?);
        }
        r.expect_end().map_err(ck)?;

        if points.len() > k {
            return Err(VasError::Checkpoint {
                detail: format!("{} sample points for a budget of {k}", points.len()),
            });
        }
        if rsp.len() != points.len() {
            return Err(VasError::Checkpoint {
                detail: format!(
                    "{} responsibilities for {} sample points",
                    rsp.len(),
                    points.len()
                ),
            });
        }
        let index = AnyLocalityIndex::restore(&index_bytes).map_err(|e| VasError::Checkpoint {
            detail: e.to_string(),
        })?;
        require_match("index backend", index.backend(), backend)?;
        // Only the locality strategy keeps the sample in the index.
        let indexed = if strategy == InterchangeStrategy::ExpandShrinkLocality {
            points.len()
        } else {
            0
        };
        if index.len() != indexed {
            return Err(VasError::Checkpoint {
                detail: format!(
                    "index holds {} entries for {} sample points",
                    index.len(),
                    points.len()
                ),
            });
        }

        let mut sampler = VasSampler::new(config);
        sampler.recorder = recorder;
        sampler.install_kernel(GaussianKernel::new(epsilon));
        sampler.points = points;
        sampler.rsp = rsp;
        sampler.index = index;
        sampler.objective = objective;
        sampler.seen = seen;
        sampler.replacements = replacements;
        sampler
            .recorder
            .set_restored(Counter::CoreKernelLanes, kernel_lanes);
        sampler.recorder.inc(Counter::CoreCheckpointResumes, 1);
        sampler.recorder.event(
            "checkpoint_resume",
            &[
                ("pass", pass.into()),
                ("chunks_consumed", chunks_consumed.into()),
                ("points", (sampler.points.len() as u64).into()),
            ],
        );
        Ok((sampler, pass, chunks_consumed, source_name, chunk_capacity))
    }

    /// [`build_from_source`](Self::build_from_source) with periodic crash
    /// checkpoints per `policy`, from the beginning of the stream.
    ///
    /// Returns [`BuildOutcome::Complete`] with the final sample, or — only
    /// when the policy's deterministic kill switch is armed —
    /// [`BuildOutcome::Halted`], from which
    /// [`resume_build_from_source`](Self::resume_build_from_source) continues
    /// bit-identically.
    pub fn build_from_source_checkpointed<S: PointSource>(
        &mut self,
        source: &mut S,
        policy: &CheckpointPolicy,
    ) -> Result<BuildOutcome, VasError> {
        if self.kernel.is_none() {
            source.reset().map_err(|e| self.fatal(VasError::from(e)))?;
            let stats =
                vas_stream::scan_stats(source).map_err(|e| self.fatal(VasError::from(e)))?;
            self.install_kernel(GaussianKernel::for_bounds(&stats.bounds));
        }
        self.run_checkpointed(source, policy, 0, 0)
    }

    /// Resumes a checkpointed build: restores the sampler from
    /// `policy.path`, verifies the checkpoint belongs to (`config`,
    /// `source`), skips the chunks already consumed and streams the rest —
    /// producing a final sample **bit-identical** to the uninterrupted run.
    pub fn resume_build_from_source<S: PointSource>(
        config: VasConfig,
        source: &mut S,
        policy: &CheckpointPolicy,
    ) -> Result<(Self, BuildOutcome), VasError> {
        Self::resume_build_from_source_recorded(config, source, policy, Recorder::detached())
    }

    /// [`resume_build_from_source`](Self::resume_build_from_source) with a
    /// [`Recorder`] attached before the restore, so the resumed run's
    /// counters, phases and journal events land in the caller's registry.
    pub fn resume_build_from_source_recorded<S: PointSource>(
        config: VasConfig,
        source: &mut S,
        policy: &CheckpointPolicy,
        recorder: Recorder,
    ) -> Result<(Self, BuildOutcome), VasError> {
        let (mut sampler, pass, chunks, source_name, chunk_capacity) =
            Self::resume_from_checkpoint_recorded(&policy.path, config, recorder)?;
        require_match("source name", source_name.as_str(), source.name())?;
        require_match(
            "source chunk capacity",
            chunk_capacity,
            source.chunk_capacity() as u64,
        )?;
        let outcome = sampler.run_checkpointed(source, policy, pass, chunks)?;
        Ok((sampler, outcome))
    }

    /// The checkpointed streaming loop shared by fresh and resumed builds:
    /// per pass, skip `start_chunks` chunks (resume only), then observe
    /// chunk by chunk, checkpointing every `policy.every_chunks` chunks and
    /// honouring the deterministic kill switch.
    fn run_checkpointed<S: PointSource>(
        &mut self,
        source: &mut S,
        policy: &CheckpointPolicy,
        start_pass: u64,
        start_chunks: u64,
    ) -> Result<BuildOutcome, VasError> {
        let mut root = self.recorder.root_span("build_checkpointed");
        root.attr("start_pass", start_pass);
        root.attr("start_chunks", start_chunks);
        let passes = self.config.passes.max(1) as u64;
        let source_name = source.name().to_string();
        let chunk_capacity = source.chunk_capacity() as u64;
        let mut buf = Vec::new();
        let mut halted_after = 0u64;
        for pass in start_pass..passes {
            source.reset().map_err(|e| self.fatal(VasError::from(e)))?;
            let skip = if pass == start_pass { start_chunks } else { 0 };
            let mut chunk_index = 0u64;
            while chunk_index < skip {
                let n = source
                    .next_chunk(&mut buf)
                    .map_err(|e| self.fatal(VasError::from(e)))?;
                if n == 0 {
                    return Err(self.fatal(VasError::Mismatch {
                        expected: format!("at least {skip} chunks in source {source_name:?}"),
                        found: format!("{chunk_index} chunks"),
                    }));
                }
                chunk_index += 1;
            }
            loop {
                let n = source
                    .next_chunk(&mut buf)
                    .map_err(|e| self.fatal(VasError::from(e)))?;
                if n == 0 {
                    break;
                }
                self.observe_chunk(&buf);
                chunk_index += 1;
                halted_after += 1;
                if policy.every_chunks > 0 && chunk_index.is_multiple_of(policy.every_chunks) {
                    self.write_checkpoint(
                        &policy.path,
                        pass,
                        chunk_index,
                        &source_name,
                        chunk_capacity,
                    )?;
                    self.recorder.inc(Counter::CoreCheckpointWrites, 1);
                    self.recorder.event(
                        "checkpoint_write",
                        &[
                            ("pass", pass.into()),
                            ("chunk_index", chunk_index.into()),
                            ("points", (self.points.len() as u64).into()),
                        ],
                    );
                }
                if policy.halt_after_chunks == Some(halted_after) {
                    return Ok(BuildOutcome::Halted {
                        pass,
                        chunks_consumed: chunk_index,
                    });
                }
            }
        }
        Ok(BuildOutcome::Complete(self.finalize()))
    }
}

impl<L: LocalityIndex> VasSampler<L> {
    /// Creates a sampler over an explicit (statically-typed) locality index;
    /// `index` is cleared before use. See [`VasSampler::new`] for the
    /// bandwidth-resolution behaviour.
    pub fn with_index(config: VasConfig, index: L) -> Self {
        let kernel = config.epsilon.map(GaussianKernel::new);
        let mut sampler = Self {
            cutoff: f64::INFINITY,
            cutoff2: f64::INFINITY,
            kernel: None,
            points: Vec::new(),
            rsp: Vec::new(),
            index,
            max_rsp: None,
            max_fresh: false,
            gather: NeighborBatch::new(),
            scratch_vals: Vec::new(),
            objective: 0.0,
            seen: 0,
            replacements: 0,
            recorder: Recorder::detached(),
            progress: None,
            started: Instant::now(),
            config,
        };
        sampler.index.reset(1.0);
        if let Some(k) = kernel {
            sampler.install_kernel(k);
        }
        sampler
    }

    /// [`VasSampler::from_dataset`] over an explicit locality index.
    pub fn from_dataset_with_index(dataset: &Dataset, config: VasConfig, index: L) -> Self {
        let mut sampler = Self::with_index(config, index);
        if sampler.kernel.is_none() {
            sampler.install_kernel(GaussianKernel::for_dataset(dataset));
        }
        sampler
    }

    /// Registers a progress callback (see [`VasConfig::progress_every`]).
    pub fn set_progress_sink(&mut self, sink: ProgressSink) {
        self.progress = Some(sink);
    }

    /// Attaches a shared [`Recorder`]: kernel lanes, accepts/rejects and
    /// checkpoint events count into its registry; phase timings and journal
    /// events flow to it when enabled. Note that
    /// [`finalize`](Sampler::finalize) resets the registry's build-scoped
    /// counters (accepts, rejects, kernel lanes), so a registry shared
    /// across *concurrent* builds will see those views interleave —
    /// lifetime counters are unaffected.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Builder-style [`Self::set_recorder`].
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached [`Recorder`] ([`Recorder::detached`] unless one was
    /// installed).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The resolved kernel, if the bandwidth has been determined yet.
    pub fn kernel(&self) -> Option<&GaussianKernel> {
        self.kernel.as_ref()
    }

    /// Number of valid replacements performed so far.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Number of kernel-value lanes evaluated through the batched
    /// [`Kernel::eval_dist2_batch`] path so far (zero when
    /// [`VasConfig::scalar_kernel_path`] is set).
    ///
    /// Thin view over the metrics registry (`Counter::CoreKernelLanes`);
    /// kept for compatibility — new code should read the registry of the
    /// attached recorder directly.
    pub fn kernel_lanes(&self) -> u64 {
        self.recorder.registry().get(Counter::CoreKernelLanes)
    }

    /// Current value of the optimization objective.
    pub fn current_objective(&self) -> f64 {
        self.objective
    }

    /// Current sample contents (slot order).
    pub fn current_sample(&self) -> &[Point] {
        &self.points
    }

    /// Occupancy statistics of the locality index's cell decomposition, when
    /// the configured backend has one (the `HashGrid` does; tree backends
    /// return `None`). An on-demand probe of the same signal the sampler
    /// records through `vas-obs` when the fill phase completes — the
    /// measurement the density-adaptive cell-sizing decision was missing.
    pub fn grid_occupancy(&self) -> Option<vas_spatial::GridOccupancy> {
        self.index.occupancy_stats()
    }

    /// Runs the configured number of passes over `dataset` and returns the
    /// final sample. Multi-pass runs continue improving the same sample, as
    /// the paper does when more processing time is available.
    pub fn build(&mut self, dataset: &Dataset) -> Sample {
        let mut root = self.recorder.root_span("build");
        root.attr("n", dataset.len());
        root.attr("k", self.config.k);
        if self.kernel.is_none() {
            self.install_kernel(GaussianKernel::for_dataset(dataset));
        }
        for _ in 0..self.config.passes.max(1) {
            self.observe_chunk(&dataset.points);
        }
        self.finalize()
    }

    /// Streaming counterpart of [`build`](Self::build): runs the configured
    /// number of passes over any [`PointSource`] and returns the final
    /// sample, holding at most the sample (`K` slots) plus one source chunk
    /// in memory.
    ///
    /// If no bandwidth was fixed in the config, a one-pass bounds scan over
    /// the source resolves ε by the paper's rule first — folding the extent
    /// in stream order, so the resolved kernel is **bit-identical** to the
    /// one [`build`](Self::build) derives from the materialized dataset.
    /// Because the source contract guarantees a stable point order across
    /// `reset`s, the whole run is then bit-identical to `build` over the
    /// equivalent in-memory dataset (pinned in `tests/determinism.rs`).
    ///
    /// Errors from the underlying source (I/O, malformed rows) abort the
    /// build and surface as a typed [`VasError`] (corruption, truncation and
    /// retry exhaustion stay distinguishable); the sampler is left
    /// mid-stream and should be discarded or finalized.
    pub fn build_from_source<S: PointSource>(
        &mut self,
        source: &mut S,
    ) -> Result<Sample, VasError> {
        // A *root* span: besides heading the causal tree, it becomes the
        // tracer's ambient parent so decode spans recorded on the read-ahead
        // pipeline thread (spawned before this call) still land under the
        // build.
        let mut root = self.recorder.root_span("build_from_source");
        root.attr("k", self.config.k);
        root.attr("passes", self.config.passes.max(1));
        if self.kernel.is_none() {
            source.reset().map_err(|e| self.fatal(VasError::from(e)))?;
            let stats =
                vas_stream::scan_stats(source).map_err(|e| self.fatal(VasError::from(e)))?;
            self.install_kernel(GaussianKernel::for_bounds(&stats.bounds));
        }
        let mut buf = Vec::new();
        for _ in 0..self.config.passes.max(1) {
            source.reset().map_err(|e| self.fatal(VasError::from(e)))?;
            while source
                .next_chunk(&mut buf)
                .map_err(|e| self.fatal(VasError::from(e)))?
                > 0
            {
                self.observe_chunk(&buf);
            }
        }
        Ok(self.finalize())
    }

    /// Marks a build-fatal error on the observability side — journals a
    /// `fatal` event and dumps the flight recorder's ring to its post-mortem
    /// file, if one is attached — then hands the error back unchanged.
    /// Purely observational: the error value and the sampler state are
    /// untouched.
    fn fatal(&self, err: VasError) -> VasError {
        let _ = self.recorder.fatal(&err.to_string());
        err
    }

    /// Streaming counterpart of
    /// [`build_until_converged`](Self::build_until_converged): rescans the
    /// source until a full pass performs no valid replacement or
    /// `max_passes` is reached. Returns the sample and the passes made.
    pub fn build_from_source_until_converged<S: PointSource>(
        &mut self,
        source: &mut S,
        max_passes: usize,
    ) -> Result<(Sample, usize), VasError> {
        let mut root = self.recorder.root_span("build_from_source_until_converged");
        root.attr("k", self.config.k);
        root.attr("max_passes", max_passes);
        if self.kernel.is_none() {
            source.reset().map_err(|e| self.fatal(VasError::from(e)))?;
            let stats =
                vas_stream::scan_stats(source).map_err(|e| self.fatal(VasError::from(e)))?;
            self.install_kernel(GaussianKernel::for_bounds(&stats.bounds));
        }
        let mut buf = Vec::new();
        let mut passes = 0usize;
        loop {
            let before = self.replacements;
            source.reset().map_err(|e| self.fatal(VasError::from(e)))?;
            let mut streamed = 0u64;
            while source
                .next_chunk(&mut buf)
                .map_err(|e| self.fatal(VasError::from(e)))?
                > 0
            {
                streamed += buf.len() as u64;
                self.observe_chunk(&buf);
            }
            passes += 1;
            let replacements_this_pass = self.replacements - before;
            // Mirrors `build_until_converged`: the first pass also fills the
            // sample, so convergence requires a full sample and at least one
            // complete refinement pass.
            let filled = self.points.len() as u64 >= (self.config.k as u64).min(streamed);
            if (passes > 1 && replacements_this_pass == 0 && filled) || passes >= max_passes.max(1)
            {
                break;
            }
        }
        Ok((self.finalize(), passes))
    }

    /// Runs passes over `dataset` until a full pass performs **no** valid
    /// replacement (the paper's "run until no replacement decreases the
    /// optimization objective") or `max_passes` is reached, whichever comes
    /// first. Returns the sample together with the number of passes made.
    ///
    /// Convergence in this sense is a local optimum of the Interchange
    /// neighbourhood, which is exactly the state Theorem 3's approximation
    /// bound speaks about.
    pub fn build_until_converged(
        &mut self,
        dataset: &Dataset,
        max_passes: usize,
    ) -> (Sample, usize) {
        let mut root = self.recorder.root_span("build_until_converged");
        root.attr("n", dataset.len());
        root.attr("max_passes", max_passes);
        if self.kernel.is_none() {
            self.install_kernel(GaussianKernel::for_dataset(dataset));
        }
        let mut passes = 0usize;
        loop {
            let before = self.replacements;
            self.observe_chunk(&dataset.points);
            passes += 1;
            let replacements_this_pass = self.replacements - before;
            // The very first pass also fills the sample, so "no replacements"
            // only counts as convergence once the sample is full and at least
            // one complete refinement pass has run.
            let filled = self.points.len() >= self.config.k.min(dataset.len());
            if (passes > 1 && replacements_this_pass == 0 && filled) || passes >= max_passes.max(1)
            {
                break;
            }
        }
        (self.finalize(), passes)
    }

    /// Observes every point of `chunk` in order — the chunked counterpart of
    /// [`observe`](Sampler::observe), and the loop every `build*` driver
    /// runs. It is exactly the `observe` loop, split into a fill phase and a
    /// candidate phase so each can be timed and traced as one block.
    pub fn observe_chunk(&mut self, chunk: &[Point]) {
        let mut span = self.recorder.span("observe_chunk");
        span.attr("chunk_len", chunk.len());
        let replacements_before = self.replacements;
        let len_before = self.points.len();
        let was_filling = self.config.k > 0 && len_before < self.config.k;
        self.observe_chunk_inner(chunk);
        // Chunk-granularity observability accounting: every point of the
        // chunk was either a fill, an accepted replacement or a rejection.
        let accepts = self.replacements - replacements_before;
        let filled = (self.points.len() - len_before) as u64;
        self.recorder.inc(Counter::CoreAccepts, accepts);
        self.recorder.inc(
            Counter::CoreRejects,
            (chunk.len() as u64).saturating_sub(filled + accepts),
        );
        if was_filling && self.points.len() >= self.config.k {
            self.recorder.event(
                "phase_transition",
                &[
                    ("from", "fill".into()),
                    ("to", "candidate".into()),
                    ("seen", self.seen.into()),
                ],
            );
            // The fill just completed, so the locality index holds a full
            // K-sample: the representative moment to probe grid occupancy
            // (the density-adaptive cell-sizing signal). The probe scans the
            // whole cell table, so it only runs when observability is
            // attached — a detached build never pays for it.
            if self.recorder.timing_enabled() || self.recorder.journal().is_some() {
                if let Some(occ) = self.index.occupancy_stats() {
                    self.recorder
                        .record_value(ValueSeries::GridOccupiedCells, occ.cells_occupied as u64);
                    self.recorder.record_value(
                        ValueSeries::GridMaxCellPoints,
                        occ.max_points_per_cell as u64,
                    );
                    self.recorder.event(
                        "grid_occupancy",
                        &[
                            ("cells_occupied", (occ.cells_occupied as u64).into()),
                            ("points", (occ.points as u64).into()),
                            (
                                "mean_points_per_cell",
                                vas_obs::EventValue::F64(occ.mean_points_per_cell),
                            ),
                            (
                                "max_points_per_cell",
                                (occ.max_points_per_cell as u64).into(),
                            ),
                        ],
                    );
                }
            }
        }
    }

    fn observe_chunk_inner(&mut self, chunk: &[Point]) {
        let mut rest = chunk;
        if self.points.len() < self.config.k {
            let fill = (self.config.k - self.points.len()).min(rest.len());
            let started = self.recorder.timing_enabled().then(Instant::now);
            {
                let _span = self.recorder.span("fill");
                for p in &rest[..fill] {
                    self.observe(*p);
                }
            }
            if let Some(t0) = started {
                self.recorder
                    .record_phase_ns(Phase::Fill, t0.elapsed().as_nanos() as u64);
            }
            rest = &rest[fill..];
        }
        if rest.is_empty() {
            return;
        }
        let started = self.recorder.timing_enabled().then(Instant::now);
        {
            let _span = self.recorder.span("candidate_eval");
            for p in rest {
                self.observe(*p);
            }
        }
        if let Some(t0) = started {
            self.recorder
                .record_phase_ns(Phase::CandidateEval, t0.elapsed().as_nanos() as u64);
        }
    }

    fn install_kernel(&mut self, kernel: GaussianKernel) {
        let cutoff = kernel.effective_radius(self.config.locality_threshold);
        self.cutoff = cutoff;
        self.cutoff2 = cutoff * cutoff;
        self.kernel = Some(kernel);
        if self.index.is_empty() {
            // Re-tune the (still empty) index to the cutoff radius every
            // radius query will use: the HashGrid sizes its cells from it.
            self.index.reset(cutoff);
        }
    }

    /// Resolves the kernel bandwidth from the points buffered so far
    /// (used when streaming without a pre-declared ε).
    fn resolve_kernel_from_buffer(&mut self) {
        let bounds = BoundingBox::from_points(&self.points);
        let diag = bounds.diagonal();
        let epsilon = if diag.is_finite() && diag > 0.0 {
            diag / 100.0
        } else {
            1.0
        };
        self.install_kernel(GaussianKernel::new(epsilon));
        // Initialize responsibilities of the buffered points.
        self.initialize_state();
    }

    /// (Re)computes responsibilities, the locality index and the objective
    /// for the current `points`. Called once the kernel becomes available.
    fn initialize_state(&mut self) {
        let kernel = self.kernel.expect("kernel resolved");
        let n = self.points.len();
        self.rsp = vec![0.0; n];
        self.objective = 0.0;
        self.index.reset(self.cutoff);
        self.max_fresh = false;
        let use_locality = self.config.strategy == InterchangeStrategy::ExpandShrinkLocality;
        if use_locality {
            let mut neighbors: Vec<(usize, Point)> = Vec::new();
            for (i, p) in self.points.iter().enumerate() {
                // Contributions against already-inserted points only.
                self.index.query_radius_into(p, self.cutoff, &mut neighbors);
                for &(j, q) in &neighbors {
                    let v = kernel.eval(p, &q);
                    self.rsp[i] += v;
                    self.rsp[j] += v;
                    self.objective += v;
                }
                self.index.insert(i, *p);
            }
        } else {
            for i in 0..n {
                for j in (i + 1)..n {
                    let v = kernel.eval(&self.points[i], &self.points[j]);
                    self.rsp[i] += v;
                    self.rsp[j] += v;
                    self.objective += v;
                }
            }
        }
    }

    /// Handles a point while the sample is still being filled (|S| < K).
    fn observe_fill(&mut self, point: Point) {
        let slot = self.points.len();
        if let Some(kernel) = self.kernel {
            let use_locality = self.config.strategy == InterchangeStrategy::ExpandShrinkLocality;
            let mut own = 0.0;
            if use_locality {
                let cutoff = self.cutoff;
                let Self { index, rsp, .. } = self;
                index.for_each_in_radius_with_dist2(&point, cutoff, |j, _, d2| {
                    let v = kernel.eval_dist2(d2);
                    rsp[j] += v;
                    own += v;
                });
                self.index.insert(slot, point);
            } else {
                for (j, q) in self.points.iter().enumerate() {
                    let v = kernel.eval(&point, q);
                    self.rsp[j] += v;
                    own += v;
                }
            }
            self.objective += own;
            self.points.push(point);
            self.rsp.push(own);
            self.max_fresh = false;
        } else {
            // Bandwidth not known yet: buffer and defer.
            self.points.push(point);
            if self.points.len() == self.config.k {
                self.resolve_kernel_from_buffer();
            }
        }
    }

    /// Handles a candidate point once the sample is full: the Expand/Shrink
    /// replacement test.
    fn observe_candidate(&mut self, point: Point) {
        match (self.config.strategy, self.config.legacy_inner_loop) {
            (InterchangeStrategy::Naive, _) => self.candidate_naive(point),
            (InterchangeStrategy::ExpandShrink, false) => self.candidate_es_full(point),
            (InterchangeStrategy::ExpandShrinkLocality, false) => self.candidate_es_locality(point),
            (InterchangeStrategy::ExpandShrink, true) => self.candidate_es_legacy(point, false),
            (InterchangeStrategy::ExpandShrinkLocality, true) => {
                self.candidate_es_legacy(point, true)
            }
        }
    }

    /// "No ES": recompute every responsibility of the expanded set from
    /// scratch, then drop the maximum. `O(K²)` kernel evaluations.
    fn candidate_naive(&mut self, point: Point) {
        let kernel = self.kernel.expect("kernel resolved");
        let k = self.points.len();
        // Responsibilities in the expanded set S ∪ {t}, computed from scratch.
        let mut expanded_rsp = vec![0.0; k + 1];
        for i in 0..k {
            for j in (i + 1)..k {
                let v = kernel.eval(&self.points[i], &self.points[j]);
                expanded_rsp[i] += v;
                expanded_rsp[j] += v;
            }
            let v = kernel.eval(&self.points[i], &point);
            expanded_rsp[i] += v;
            expanded_rsp[k] += v;
        }
        // An all-NaN expanded set (a NaN candidate) drops slot 0.
        let max_idx = argmax(&expanded_rsp).map_or(0, |(i, _)| i);
        if max_idx == k {
            return; // the candidate itself is the most redundant: reject
        }
        // Accept: replace slot `max_idx` with the candidate and rebuild the
        // bookkeeping from scratch (this strategy has no incremental state).
        self.points[max_idx] = point;
        self.replacements += 1;
        self.rsp = crate::objective::responsibilities(&kernel, &self.points)
            .into_iter()
            .map(|r| 2.0 * r)
            .collect();
        self.objective = objective(&kernel, &self.points);
        self.max_fresh = false;
    }

    /// "ES" without locality: incremental Expand/Shrink with a dense delta
    /// vector. Inherently `O(K)` per tuple (every slot's responsibility
    /// changes in the expanded set), but allocation-free in steady state.
    fn candidate_es_full(&mut self, point: Point) {
        let kernel = self.kernel.expect("kernel resolved");
        let k = self.points.len();

        // --- Expand: vals[i] = κ̃(t, s_i) for every slot, in slot order (the
        // deltas are dense, so the slot index IS the lane index). By default
        // the squared distances are laid out as flat lanes and mapped in one
        // vectorizable `eval_dist2_batch` sweep; the scalar baseline
        // evaluates point-at-a-time. Both compute `eval_dist2(dist2(t, s_i))`
        // per lane in the same order, so they are bit-identical.
        let mut gather = std::mem::take(&mut self.gather);
        let mut vals = std::mem::take(&mut self.scratch_vals);
        gather.clear();
        vals.clear();
        let mut cand_rsp = 0.0;
        if self.config.scalar_kernel_path {
            for q in self.points.iter() {
                let v = kernel.eval(&point, q);
                vals.push(v);
                cand_rsp += v;
            }
        } else {
            for q in self.points.iter() {
                gather.dist2.push(point.dist2(q));
            }
            vals.resize(k, 0.0);
            kernel.eval_dist2_batch(&gather.dist2, &mut vals);
            self.recorder.inc(Counter::CoreKernelLanes, k as u64);
            for &v in &vals {
                cand_rsp += v;
            }
        }

        // --- Shrink: largest responsibility in the expanded set. Because
        // the deltas are dense and slot-ordered, `vals[i]` plays the role
        // the legacy loop's scattered `delta_of` vector played, without the
        // per-tuple allocation.
        let mut max_idx = usize::MAX; // usize::MAX encodes "the candidate"
        let mut max_val = cand_rsp;
        for (i, &r) in self.rsp.iter().enumerate() {
            let r = r + vals[i];
            if r > max_val {
                max_val = r;
                max_idx = i;
            }
        }

        if max_idx == usize::MAX {
            self.gather = gather;
            self.scratch_vals = vals;
            return; // candidate is the most redundant element: reject
        }

        // --- Accept: replace slot `max_idx` ("s_j") with the candidate.
        let removed = self.points[max_idx];
        let removed_rsp = self.rsp[max_idx];
        for (i, &v) in vals.iter().enumerate() {
            if i != max_idx {
                self.rsp[i] += v;
            }
        }
        let kappa_t_removed = vals[max_idx];
        for i in 0..k {
            if i != max_idx {
                self.rsp[i] -= kernel.eval(&removed, &self.points[i]);
            }
        }

        let new_rsp = cand_rsp - kappa_t_removed;
        self.points[max_idx] = point;
        self.rsp[max_idx] = new_rsp;
        self.objective += new_rsp - removed_rsp;
        self.replacements += 1;
        self.max_fresh = false;
        self.gather = gather;
        self.scratch_vals = vals;
    }

    /// "ES+Loc": Expand/Shrink with spatial-index locality and a cached
    /// maximum responsibility.
    ///
    /// A rejected candidate — the overwhelmingly common case once the sample
    /// has converged — costs only its `m` neighbourhood kernel evaluations
    /// plus an `O(1)` read of the cached maximum. An accepted candidate
    /// additionally updates its own and the removed point's neighbours and
    /// leaves the cache stale, so the next candidate pays one `O(K)`
    /// [`argmax`] rescan of `rsp`.
    fn candidate_es_locality(&mut self, point: Point) {
        let kernel = self.kernel.expect("kernel resolved");

        // --- Expand: evaluate the kernel against the candidate's
        // neighbourhood only. By default the index batch-gathers the
        // neighbourhood's `(id, dist2)` SoA lanes (in visitation order) and
        // one `eval_dist2_batch` sweep maps the distance lanes to kernel
        // values; `cand_rsp` then folds the value lanes left-to-right —
        // exactly the association order of the scalar visitor path
        // (`scalar_kernel_path`, the benchmarked baseline), so the two are
        // bit-identical.
        let mut gather = std::mem::take(&mut self.gather);
        let mut vals = std::mem::take(&mut self.scratch_vals);
        let mut cand_rsp = 0.0;
        if self.config.scalar_kernel_path {
            gather.clear();
            vals.clear();
            self.index
                .for_each_in_radius_with_dist2(&point, self.cutoff, |i, _, d2| {
                    let v = kernel.eval_dist2(d2);
                    gather.ids.push(i);
                    vals.push(v);
                    cand_rsp += v;
                });
        } else {
            self.index
                .gather_in_radius_into(&point, self.cutoff, &mut gather);
            vals.clear();
            vals.resize(gather.len(), 0.0);
            kernel.eval_dist2_batch(&gather.dist2, &mut vals);
            self.recorder
                .inc(Counter::CoreKernelLanes, gather.len() as u64);
            for &v in &vals {
                cand_rsp += v;
            }
        }

        self.shrink_apply_es_locality(point, &gather.ids, &vals, cand_rsp);
        self.gather = gather;
        self.scratch_vals = vals;
    }

    /// The Shrink + accept half of the "ES+Loc" replacement test, fed the
    /// Expand step's SoA delta lanes (`ids[n]` is the sample slot whose
    /// kernel value is `vals[n]`).
    fn shrink_apply_es_locality(
        &mut self,
        point: Point,
        ids: &[usize],
        vals: &[f64],
        cand_rsp: f64,
    ) {
        let kernel = self.kernel.expect("kernel resolved");

        // --- Shrink: the expanded-set maximum is either the candidate, a
        // neighbour slot raised by its delta, or the standing maximum over
        // all base responsibilities, cached since the last accept. The
        // legacy loop's first-wins scan keeps the lowest index of the
        // largest non-NaN base value, which is exactly what `argmax` keeps.
        if !self.max_fresh {
            self.max_rsp = argmax(&self.rsp);
            self.max_fresh = true;
        }
        let mut max_idx = usize::MAX; // usize::MAX encodes "the candidate"
        let mut max_val = cand_rsp;
        if let Some((i, r)) = self.max_rsp {
            if r > max_val {
                max_val = r;
                max_idx = i;
            }
        }
        for (&i, &v) in ids.iter().zip(vals) {
            let r = self.rsp[i] + v;
            if r > max_val {
                max_val = r;
                max_idx = i;
            }
        }

        if max_idx == usize::MAX {
            return; // candidate is the most redundant element: reject
        }

        // --- Accept: replace slot `max_idx` ("s_j") with the candidate.
        let removed = self.points[max_idx];
        let removed_rsp = self.rsp[max_idx];

        // Add the candidate's contributions to its neighbours.
        for (&i, &v) in ids.iter().zip(vals) {
            if i != max_idx {
                self.rsp[i] += v;
            }
        }
        // Subtract the removed element's contributions from its neighbours.
        let kappa_t_removed = ids
            .iter()
            .position(|&i| i == max_idx)
            .map(|n| vals[n])
            .unwrap_or_else(|| kernel.eval(&point, &removed));
        {
            let cutoff = self.cutoff;
            let Self { index, rsp, .. } = self;
            index.for_each_in_radius_with_dist2(&removed, cutoff, |i, _, d2| {
                if i != max_idx {
                    rsp[i] -= kernel.eval_dist2(d2);
                }
            });
        }
        self.index.remove(max_idx, &removed);
        self.index.insert(max_idx, point);

        let new_rsp = cand_rsp - kappa_t_removed;
        self.points[max_idx] = point;
        self.rsp[max_idx] = new_rsp;
        self.max_fresh = false;
        self.objective += new_rsp - removed_rsp;
        self.replacements += 1;
    }

    /// The pre-optimization "ES" / "ES+Loc" inner loop, retained verbatim as
    /// the benchmark baseline and the bit-identity reference (see
    /// [`VasConfig::legacy_inner_loop`]).
    fn candidate_es_legacy(&mut self, point: Point, locality: bool) {
        let kernel = self.kernel.expect("kernel resolved");
        let k = self.points.len();

        // --- Expand: responsibilities the candidate would add.
        // deltas[i] = κ̃(t, s_i) for the slots we evaluate.
        let (neighbor_ids, mut cand_rsp): (Vec<usize>, f64) = if locality {
            let neighbors = self.index.query_radius(&point, self.cutoff2.sqrt());
            let ids: Vec<usize> = neighbors.iter().map(|(id, _)| *id).collect();
            (ids, 0.0)
        } else {
            ((0..k).collect(), 0.0)
        };
        let mut deltas: Vec<(usize, f64)> = Vec::with_capacity(neighbor_ids.len());
        for &i in &neighbor_ids {
            let v = kernel.eval(&point, &self.points[i]);
            deltas.push((i, v));
            cand_rsp += v;
        }

        // --- Shrink: find the largest responsibility in the expanded set.
        // Non-neighbour slots keep their current responsibility; neighbour
        // slots gain their delta.
        let mut max_idx = usize::MAX; // usize::MAX encodes "the candidate"
        let mut max_val = cand_rsp;
        // Apply deltas temporarily by scanning: rsp_i' = rsp_i (+ delta_i).
        // To avoid a hash lookup per slot we scan deltas separately.
        let mut delta_of = vec![0.0; 0];
        if locality {
            // Sparse deltas: first scan all slots with their base value, then
            // adjust the neighbour slots.
            for (i, &r) in self.rsp.iter().enumerate() {
                if r > max_val {
                    max_val = r;
                    max_idx = i;
                }
            }
            for &(i, v) in &deltas {
                let r = self.rsp[i] + v;
                if r > max_val {
                    max_val = r;
                    max_idx = i;
                }
            }
        } else {
            delta_of = vec![0.0; k];
            for &(i, v) in &deltas {
                delta_of[i] = v;
            }
            for (i, &r) in self.rsp.iter().enumerate() {
                let r = r + delta_of[i];
                if r > max_val {
                    max_val = r;
                    max_idx = i;
                }
            }
        }

        if max_idx == usize::MAX {
            return; // candidate is the most redundant element: reject
        }

        // --- Accept: replace slot `max_idx` ("s_j") with the candidate.
        let removed = self.points[max_idx];
        let removed_rsp = self.rsp[max_idx];

        // Add the candidate's contributions to its neighbours.
        for &(i, v) in &deltas {
            if i != max_idx {
                self.rsp[i] += v;
            }
        }
        // Subtract the removed element's contributions from its neighbours.
        let kappa_t_removed;
        if locality {
            kappa_t_removed = deltas
                .iter()
                .find(|(i, _)| *i == max_idx)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| kernel.eval(&point, &removed));
            for (i, q) in self.index.query_radius(&removed, self.cutoff2.sqrt()) {
                if i != max_idx {
                    self.rsp[i] -= kernel.eval(&removed, &q);
                }
            }
            self.index.remove(max_idx, &removed);
            self.index.insert(max_idx, point);
        } else {
            kappa_t_removed = delta_of[max_idx];
            for i in 0..k {
                if i != max_idx {
                    self.rsp[i] -= kernel.eval(&removed, &self.points[i]);
                }
            }
        }

        let new_rsp = cand_rsp - kappa_t_removed;
        self.points[max_idx] = point;
        self.rsp[max_idx] = new_rsp;
        self.objective += new_rsp - removed_rsp;
        self.replacements += 1;
        self.max_fresh = false;
    }

    fn maybe_report_progress(&mut self) {
        if self.config.progress_every == 0 {
            return;
        }
        if !self.seen.is_multiple_of(self.config.progress_every) {
            return;
        }
        let event = ProgressEvent {
            tuples_processed: self.seen,
            replacements: self.replacements,
            objective: self.objective,
            elapsed: self.started.elapsed(),
        };
        if let Some(sink) = self.progress.as_mut() {
            sink(event);
        }
    }

    fn reset(&mut self) {
        self.points = Vec::new();
        self.rsp = Vec::new();
        self.index.reset(self.cutoff);
        self.max_fresh = false;
        self.gather = NeighborBatch::new();
        self.scratch_vals = Vec::new();
        self.objective = 0.0;
        self.seen = 0;
        self.replacements = 0;
        // Resets the registry's build-scoped counters (accepts, rejects,
        // kernel lanes); lifetime counters survive.
        self.recorder.registry().reset_build_counters();
        self.started = Instant::now();
        // Keep the resolved kernel: it describes the data domain, which does
        // not change between passes or reuse on the same table.
    }
}

impl<L: LocalityIndex> Sampler for VasSampler<L> {
    fn name(&self) -> &str {
        "vas"
    }

    fn target_size(&self) -> usize {
        self.config.k
    }

    fn observe(&mut self, point: Point) {
        self.seen += 1;
        if self.config.k == 0 {
            return;
        }
        if self.points.len() < self.config.k {
            self.observe_fill(point);
        } else {
            self.observe_candidate(point);
        }
        self.maybe_report_progress();
    }

    /// The default point-by-point driver, except that a bandwidth not yet
    /// resolved comes from the whole dataset (the paper's rule, as in
    /// [`build`](VasSampler::build) and
    /// [`from_dataset`](VasSampler::from_dataset)) rather than from the
    /// extent of the first `K` points. Points already buffered by earlier
    /// `observe` calls keep the deferred rule.
    fn sample_dataset(&mut self, dataset: &Dataset) -> Sample {
        if self.kernel.is_none() && self.points.is_empty() {
            self.install_kernel(GaussianKernel::for_dataset(dataset));
        }
        for p in dataset.iter() {
            self.observe(*p);
        }
        self.finalize()
    }

    fn finalize(&mut self) -> Sample {
        if self.kernel.is_none() && !self.points.is_empty() {
            // Stream ended before the buffer filled: resolve now so that the
            // responsibilities (and any later density pass) are well defined.
            self.resolve_kernel_from_buffer();
        }
        let points = std::mem::take(&mut self.points);
        let sample = Sample::new("vas", self.config.k, points);
        self.reset();
        sample
    }
}

/// The lowest index of the largest value and that value's exact bits: the
/// pick of a first-wins `v > best` scan from `best = −∞`. NaN never wins a
/// `>` and neither does −∞, so `None` means `values` is empty or holds only
/// NaN and −∞.
///
/// Two passes: eight independent `>` lanes find the maximum (the lanes keep
/// the loop free of a serial dependency, so it vectorizes), then a
/// find-first `==` tests eight values at a time for the block holding its
/// lowest index and picks the index within it. `==`, like `>`, does not tell
/// `-0.0` from `+0.0`, and the value is read back from `values[i]`, so the
/// result is bit-identical to the scan's whichever zero the lanes kept.
fn argmax(values: &[f64]) -> Option<(usize, f64)> {
    let chunks = values.chunks_exact(8);
    let tail = chunks.remainder();
    let mut lanes = [f64::NEG_INFINITY; 8];
    for chunk in chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = if v > *m { v } else { *m };
        }
    }
    let best = lanes
        .iter()
        .chain(tail)
        .fold(f64::NEG_INFINITY, |m, &v| if v > m { v } else { m });
    if best == f64::NEG_INFINITY {
        return None;
    }
    let i = values
        .chunks(8)
        .enumerate()
        .find(|(_, block)| block.iter().fold(false, |hit, &v| hit | (v == best)))
        .and_then(|(b, block)| block.iter().position(|&v| v == best).map(|j| 8 * b + j))
        .expect("the maximum is one of the values");
    Some((i, values[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::objective as objective_of;
    use vas_data::GeolifeGenerator;
    use vas_sampling::UniformSampler;

    fn small_dataset() -> Dataset {
        GeolifeGenerator::with_size(3_000, 17).generate()
    }

    #[test]
    fn produces_sample_of_requested_size() {
        let d = small_dataset();
        let mut s = VasSampler::from_dataset(&d, VasConfig::new(150));
        let sample = s.sample_dataset(&d);
        assert_eq!(sample.len(), 150);
        assert_eq!(sample.method, "vas");
        // All sample points come from the dataset.
        for p in &sample.points {
            assert!(d.points.contains(p));
        }
    }

    #[test]
    fn sample_smaller_than_budget_when_data_is_small() {
        let d = Dataset::from_points("tiny", (0..10).map(|i| Point::new(i as f64, 0.0)).collect());
        let mut s = VasSampler::from_dataset(&d, VasConfig::new(100));
        let sample = s.sample_dataset(&d);
        assert_eq!(sample.len(), 10);
    }

    #[test]
    fn sample_dataset_takes_epsilon_from_the_whole_dataset() {
        // Trip-ordered data: the first K points span a small part of the
        // extent, so an ε taken from them would differ from the paper's.
        let d = GeolifeGenerator::with_size(3_000, 17).generate();
        for k in [1usize, 150, 3_000, 5_000] {
            let a = VasSampler::new(VasConfig::new(k)).sample_dataset(&d);
            let b = VasSampler::from_dataset(&d, VasConfig::new(k)).sample_dataset(&d);
            assert_eq!(a.points.len(), b.points.len(), "k {k}");
            for (p, q) in a.points.iter().zip(&b.points) {
                let bits = |p: &Point| [p.x.to_bits(), p.y.to_bits(), p.value.to_bits()];
                assert_eq!(bits(p), bits(q), "k {k}");
            }
        }
    }

    #[test]
    fn zero_budget() {
        let d = small_dataset();
        let mut s = VasSampler::from_dataset(&d, VasConfig::new(0));
        assert!(s.sample_dataset(&d).is_empty());
    }

    #[test]
    fn naive_and_expand_shrink_agree_until_near_ties() {
        // Both strategies implement the identical replacement rule, so their
        // per-tuple decisions must agree exactly until a near-tie in
        // responsibilities is resolved differently by floating-point
        // summation order. On this workload that first divergence happens
        // only deep into the stream; we require perfect agreement for a
        // meaningful prefix, and that both keep obeying the hill-climbing
        // invariant afterwards.
        let d = GeolifeGenerator::with_size(400, 3).generate();
        let k = 30;
        let kernel = GaussianKernel::for_dataset(&d);
        let eps = kernel.bandwidth();
        let mut naive = VasSampler::from_dataset(
            &d,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::Naive)
                .with_epsilon(eps),
        );
        let mut es = VasSampler::from_dataset(
            &d,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::ExpandShrink)
                .with_epsilon(eps),
        );
        let mut agreed_prefix = 0usize;
        let mut diverged = false;
        for (i, p) in d.iter().enumerate() {
            naive.observe(*p);
            es.observe(*p);
            if !diverged {
                if naive.current_sample() == es.current_sample() {
                    agreed_prefix = i + 1;
                } else {
                    diverged = true;
                }
            }
        }
        assert!(
            agreed_prefix >= 100,
            "strategies disagreed after only {agreed_prefix} tuples"
        );
        // Regardless of where the paths split, both must end up with a far
        // better objective than uniform sampling over the same stream.
        let uni = UniformSampler::new(k, 1).sample_dataset(&d);
        let o_uni = objective_of(&kernel, &uni.points);
        let o_naive = objective_of(&kernel, naive.current_sample());
        let o_es = objective_of(&kernel, es.current_sample());
        assert!(o_naive < o_uni, "naive {o_naive} vs uniform {o_uni}");
        assert!(o_es < o_uni, "ES {o_es} vs uniform {o_uni}");
    }

    #[test]
    fn naive_strategy_never_increases_objective_after_fill() {
        let d = GeolifeGenerator::with_size(600, 29).generate();
        let kernel = GaussianKernel::for_dataset(&d);
        let k = 40;
        let mut s = VasSampler::from_dataset(
            &d,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::Naive)
                .with_epsilon(kernel.bandwidth()),
        );
        let mut prev = f64::INFINITY;
        for (i, p) in d.iter().enumerate() {
            s.observe(*p);
            if i + 1 >= k {
                let cur = objective_of(&kernel, s.current_sample());
                if i + 1 > k {
                    assert!(
                        cur <= prev + 1e-9,
                        "naive objective increased at tuple {i}: {prev} -> {cur}"
                    );
                }
                prev = cur;
            }
        }
    }

    #[test]
    fn locality_matches_expand_shrink_closely() {
        let d = GeolifeGenerator::with_size(2_000, 5).generate();
        let k = 100;
        let kernel = GaussianKernel::for_dataset(&d);
        let eps = kernel.bandwidth();
        let mut es = VasSampler::from_dataset(
            &d,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::ExpandShrink)
                .with_epsilon(eps),
        );
        let mut loc = VasSampler::from_dataset(
            &d,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::ExpandShrinkLocality)
                .with_epsilon(eps),
        );
        let a = es.sample_dataset(&d);
        let b = loc.sample_dataset(&d);
        let oa = objective_of(&kernel, &a.points);
        let ob = objective_of(&kernel, &b.points);
        // Truncating kernel tails flips near-tie replacement decisions, so the
        // two hill climbs reach *different* local optima; landing below ES is
        // fine. What the locality speed-up must not do is give up sample
        // quality, so only the regression direction is bounded.
        assert!(
            ob <= oa * 1.05 + 1e-9,
            "ES+Loc lost too much quality: ES={oa}, ES+Loc={ob}"
        );
    }

    #[test]
    fn vas_beats_uniform_sampling_on_the_objective() {
        let d = small_dataset();
        let k = 200;
        let kernel = GaussianKernel::for_dataset(&d);
        let mut vas = VasSampler::from_dataset(&d, VasConfig::new(k));
        let vas_sample = vas.sample_dataset(&d);
        let uni_sample = UniformSampler::new(k, 7).sample_dataset(&d);
        let vas_obj = objective_of(&kernel, &vas_sample.points);
        let uni_obj = objective_of(&kernel, &uni_sample.points);
        assert!(
            vas_obj < uni_obj,
            "VAS objective {vas_obj} should beat uniform {uni_obj}"
        );
    }

    #[test]
    fn replacements_only_decrease_the_objective() {
        // Track the objective after every observation: the hill-climbing
        // invariant is that accepted replacements never increase it.
        let d = GeolifeGenerator::with_size(1_500, 11).generate();
        let mut s = VasSampler::from_dataset(
            &d,
            VasConfig::new(80).with_strategy(InterchangeStrategy::ExpandShrink),
        );
        let mut prev = f64::INFINITY;
        let mut fill_done = false;
        for (i, p) in d.iter().enumerate() {
            s.observe(*p);
            if i + 1 == 80 {
                fill_done = true;
                prev = s.current_objective();
            } else if fill_done {
                let cur = s.current_objective();
                assert!(
                    cur <= prev + 1e-9,
                    "objective increased at tuple {i}: {prev} -> {cur}"
                );
                prev = cur;
            }
        }
    }

    #[test]
    fn incremental_objective_matches_reference() {
        let d = GeolifeGenerator::with_size(1_000, 13).generate();
        let kernel = GaussianKernel::for_dataset(&d);
        let mut s = VasSampler::from_dataset(
            &d,
            VasConfig::new(60)
                .with_strategy(InterchangeStrategy::ExpandShrink)
                .with_epsilon(kernel.bandwidth()),
        );
        for p in d.iter() {
            s.observe(*p);
        }
        let incremental = s.current_objective();
        let reference = objective_of(&kernel, s.current_sample());
        assert!(
            (incremental - reference).abs() < 1e-6 * (1.0 + reference),
            "incremental {incremental} vs reference {reference}"
        );
    }

    #[test]
    fn multi_pass_does_not_worsen_quality() {
        let d = GeolifeGenerator::with_size(2_000, 19).generate();
        let kernel = GaussianKernel::for_dataset(&d);
        let one = VasSampler::from_dataset(&d, VasConfig::new(100).with_passes(1)).build(&d);
        let three = VasSampler::from_dataset(&d, VasConfig::new(100).with_passes(3)).build(&d);
        let o1 = objective_of(&kernel, &one.points);
        let o3 = objective_of(&kernel, &three.points);
        assert!(o3 <= o1 + 1e-9, "more passes must not hurt: {o1} -> {o3}");
    }

    #[test]
    fn streaming_without_dataset_resolves_bandwidth() {
        let d = small_dataset();
        let mut s = VasSampler::new(VasConfig::new(50));
        assert!(s.kernel().is_none());
        let sample = s.sample_dataset(&d);
        assert_eq!(sample.len(), 50);
    }

    #[test]
    fn short_stream_resolves_bandwidth_at_finalize() {
        let d = Dataset::from_points("short", (0..5).map(|i| Point::new(i as f64, 1.0)).collect());
        let mut s = VasSampler::new(VasConfig::new(50));
        let sample = s.sample_dataset(&d);
        assert_eq!(sample.len(), 5);
        assert!(s.kernel().is_some());
    }

    #[test]
    fn progress_events_are_emitted_and_monotone() {
        let d = small_dataset();
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink_events = events.clone();
        let mut s = VasSampler::from_dataset(&d, VasConfig::new(100).with_progress_every(500));
        s.set_progress_sink(Box::new(move |e| sink_events.lock().unwrap().push(e)));
        let _ = s.sample_dataset(&d);
        let events = events.lock().unwrap();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[1].tuples_processed > w[0].tuples_processed);
            assert!(w[1].replacements >= w[0].replacements);
            // After the fill phase the objective only decreases.
            if w[0].tuples_processed > 100 {
                assert!(w[1].objective <= w[0].objective + 1e-9);
            }
        }
    }

    #[test]
    fn vas_sample_is_more_spread_out_than_uniform() {
        // The qualitative claim behind Figure 1: VAS covers sparse regions.
        let d = small_dataset();
        let k = 300;
        let vas = VasSampler::from_dataset(&d, VasConfig::new(k)).sample_dataset_helper(&d);
        let uni = UniformSampler::new(k, 3).sample_dataset(&d);
        // Count occupied cells of a coarse grid: more occupied cells = better
        // spatial coverage.
        let occupied =
            |pts: &[Point]| vas_spatial::UniformGrid::build(pts, 30, 30).occupied_cells();
        assert!(
            occupied(&vas.points) >= occupied(&uni.points),
            "VAS should cover at least as many cells as uniform sampling"
        );
    }

    impl VasSampler {
        /// Test helper: run a full pass (avoids the name clash with the
        /// `Sampler` trait method inside this test module).
        fn sample_dataset_helper(mut self, d: &Dataset) -> Sample {
            self.sample_dataset(d)
        }
    }

    #[test]
    fn build_until_converged_reaches_a_local_optimum() {
        let d = GeolifeGenerator::with_size(800, 23).generate();
        let kernel = GaussianKernel::for_dataset(&d);
        let mut sampler = VasSampler::from_dataset(
            &d,
            VasConfig::new(40)
                .with_strategy(InterchangeStrategy::ExpandShrink)
                .with_epsilon(kernel.bandwidth()),
        );
        let (sample, passes) = sampler.build_until_converged(&d, 20);
        assert_eq!(sample.len(), 40);
        assert!(
            passes >= 2,
            "needs at least one refinement pass, got {passes}"
        );
        assert!(passes <= 20);
        // Converged means: one more pass over the data changes nothing.
        let mut again = VasSampler::from_dataset(
            &d,
            VasConfig::new(40)
                .with_strategy(InterchangeStrategy::ExpandShrink)
                .with_epsilon(kernel.bandwidth()),
        );
        let (first, p1) = again.build_until_converged(&d, 20);
        if p1 < 20 {
            let obj_first = objective_of(&kernel, &first.points);
            // Re-running from that converged sample performs no improving swap,
            // so the objective cannot decrease further within one extra pass.
            let mut resume = VasSampler::from_dataset(
                &d,
                VasConfig::new(40)
                    .with_strategy(InterchangeStrategy::ExpandShrink)
                    .with_epsilon(kernel.bandwidth()),
            );
            for p in &first.points {
                resume.observe(*p);
            }
            for p in d.iter() {
                resume.observe(*p);
            }
            let resumed = resume.finalize();
            let obj_resumed = objective_of(&kernel, &resumed.points);
            assert!(obj_resumed <= obj_first + 1e-9);
        }
    }

    #[test]
    fn optimized_inner_loop_matches_legacy_bitwise_per_tuple() {
        // The optimized loop's contract: the cached-maximum Shrink and the
        // zero-allocation queries must not change a single replacement
        // decision. Lock-step the optimized and legacy samplers and compare
        // the full sample bit-for-bit after *every* observation.
        let d = GeolifeGenerator::with_size(3_000, 41).generate();
        let k = 120;
        // ES ignores the index entirely; ES+Loc must hold the contract on
        // every locality backend.
        let mut cases = vec![(
            InterchangeStrategy::ExpandShrink,
            LocalityBackend::default(),
        )];
        for backend in LocalityBackend::ALL {
            cases.push((InterchangeStrategy::ExpandShrinkLocality, backend));
        }
        for (strategy, backend) in cases {
            let eps = GaussianKernel::for_dataset(&d).bandwidth();
            let base = VasConfig::new(k)
                .with_strategy(strategy)
                .with_epsilon(eps)
                .with_locality_backend(backend);
            let mut optimized = VasSampler::from_dataset(&d, base.clone());
            let mut legacy = VasSampler::from_dataset(&d, base.with_legacy_inner_loop(true));
            for (t, p) in d.iter().enumerate() {
                optimized.observe(*p);
                legacy.observe(*p);
                let (a, b) = (optimized.current_sample(), legacy.current_sample());
                assert_eq!(a.len(), b.len());
                for (i, (pa, pb)) in a.iter().zip(b).enumerate() {
                    assert!(
                        pa.x.to_bits() == pb.x.to_bits() && pa.y.to_bits() == pb.y.to_bits(),
                        "{}/{backend}: slot {i} diverged at tuple {t}: {pa:?} vs {pb:?}",
                        strategy.label()
                    );
                }
                assert_eq!(
                    optimized.replacements(),
                    legacy.replacements(),
                    "{}/{backend}: replacement count diverged at tuple {t}",
                    strategy.label()
                );
            }
            assert_eq!(
                optimized.current_objective().to_bits(),
                legacy.current_objective().to_bits(),
                "{}/{backend}: objective bits diverged",
                strategy.label()
            );
        }
    }

    #[test]
    fn optimized_loop_survives_multiple_passes() {
        // Multi-pass runs exercise the cached maximum across fill → candidates →
        // another full pass without a reset in between.
        let d = GeolifeGenerator::with_size(1_200, 59).generate();
        let eps = GaussianKernel::for_dataset(&d).bandwidth();
        let base = VasConfig::new(80)
            .with_strategy(InterchangeStrategy::ExpandShrinkLocality)
            .with_epsilon(eps)
            .with_passes(3);
        let fast = VasSampler::from_dataset(&d, base.clone()).build(&d);
        let slow = VasSampler::from_dataset(&d, base.with_legacy_inner_loop(true)).build(&d);
        assert_eq!(fast.points, slow.points);
    }

    #[test]
    fn cached_state_survives_streaming_reuse() {
        // finalize() resets the sampler; a second stream through the same
        // instance must behave exactly like a fresh sampler.
        let d = GeolifeGenerator::with_size(2_000, 71).generate();
        let eps = GaussianKernel::for_dataset(&d).bandwidth();
        let config = VasConfig::new(100)
            .with_strategy(InterchangeStrategy::ExpandShrinkLocality)
            .with_epsilon(eps);
        let mut reused = VasSampler::from_dataset(&d, config.clone());
        let _ = reused.sample_dataset(&d);
        let second = reused.sample_dataset(&d);
        let fresh = VasSampler::from_dataset(&d, config).sample_dataset(&d);
        assert_eq!(second.points, fresh.points);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(InterchangeStrategy::Naive.label(), "No ES");
        assert_eq!(InterchangeStrategy::ExpandShrink.label(), "ES");
        assert_eq!(InterchangeStrategy::ExpandShrinkLocality.label(), "ES+Loc");
    }

    /// Reference for [`argmax`]: the plain first-wins scan the legacy Shrink
    /// step performs. Values are compared as bits, so `-0.0` and `+0.0`
    /// count as different results.
    fn first_wins_scan(values: &[f64]) -> Option<(usize, u64)> {
        let mut best = f64::NEG_INFINITY;
        let mut pick = None;
        for (i, &v) in values.iter().enumerate() {
            if v > best {
                best = v;
                pick = Some((i, v.to_bits()));
            }
        }
        pick
    }

    fn argmax_bits(values: &[f64]) -> Option<(usize, u64)> {
        argmax(values).map(|(i, v)| (i, v.to_bits()))
    }

    /// Deterministic values from an alphabet of ties and special floats.
    fn tie_heavy_value(code: u64) -> f64 {
        match code % 9 {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => f64::NEG_INFINITY,
            4 => f64::INFINITY,
            c => (c - 5) as f64 * 0.5,
        }
    }

    #[test]
    fn argmax_of_empty_nan_and_negative_infinity_input_is_none() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN]), None);
        assert_eq!(argmax(&[f64::NAN; 17]), None);
        assert_eq!(argmax(&[f64::NEG_INFINITY; 9]), None);
        assert_eq!(argmax(&[f64::NAN, f64::NEG_INFINITY, f64::NAN]), None);
    }

    #[test]
    fn argmax_skips_nan_lanes() {
        let mut values = vec![f64::NAN; 17];
        values[5] = 1.0;
        values[13] = 2.0;
        values[16] = 2.0;
        assert_eq!(argmax(&values), Some((13, 2.0)));
        assert_eq!(argmax(&[f64::INFINITY, f64::NAN]), Some((0, f64::INFINITY)));
        // A NaN ahead of the maximum neither wins nor hides it.
        assert_eq!(argmax(&[f64::NAN, 0.25, f64::NAN, 0.5]), Some((3, 0.5)));
    }

    #[test]
    fn argmax_ties_resolve_to_the_lowest_index() {
        let mut values = vec![0.0, 1.0, 1.0, 0.5, 1.0];
        assert_eq!(argmax(&values), Some((1, 1.0)));
        // Raising a later slot to the same value must not steal the win.
        values[4] = 1.0;
        assert_eq!(argmax(&values), Some((1, 1.0)));
        // A strictly greater later slot does win.
        values[4] = 1.0 + 1e-12;
        assert_eq!(argmax(&values).map(|(i, _)| i), Some(4));
        // Dropping it hands the win back to the earliest of the tied slots.
        values[4] = 0.0;
        assert_eq!(argmax(&values), Some((1, 1.0)));
        // Many isolated slots at 0.0, the common tie in a sparse sample.
        assert_eq!(argmax(&[0.0; 37]), Some((0, 0.0)));
        // A tie split across the lanes and the tail keeps the first.
        let mut values = vec![0.0; 17];
        values[6] = 3.0;
        values[9] = 3.0;
        values[16] = 3.0;
        assert_eq!(argmax(&values), Some((6, 3.0)));
    }

    #[test]
    fn argmax_keeps_the_bits_of_the_first_signed_zero() {
        assert_eq!(argmax_bits(&[-0.0, 0.0]), Some((0, (-0.0f64).to_bits())));
        assert_eq!(argmax_bits(&[0.0, -0.0]), Some((0, 0.0f64.to_bits())));
        // The zeros sit in different lanes, and the lanes' maximum may be
        // either of them; the first zero's bits still come back.
        let mut values = vec![-1.0; 17];
        values[2] = -0.0;
        values[11] = 0.0;
        assert_eq!(argmax_bits(&values), Some((2, (-0.0f64).to_bits())));
        values[2] = 0.0;
        values[11] = -0.0;
        assert_eq!(argmax_bits(&values), Some((2, 0.0f64.to_bits())));
    }

    #[test]
    fn argmax_matches_the_first_wins_scan_at_every_short_length() {
        // Lengths 0..=17 cover an empty input, a tail alone, one full
        // 8-lane block with and without a tail, and two blocks plus a tail.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..=17 {
            for _ in 0..200 {
                let values: Vec<f64> = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        tie_heavy_value(state >> 33)
                    })
                    .collect();
                assert_eq!(argmax_bits(&values), first_wins_scan(&values), "{values:?}");
            }
        }
    }

    proptest::proptest! {
        /// `argmax` agrees with the first-wins scan on arbitrary inputs:
        /// finite values, ties, signed zeros, NaN and infinities.
        #[test]
        fn argmax_agrees_with_the_first_wins_scan(
            raw in proptest::collection::vec((0u64..18, -1.0e3f64..1.0e3), 0..70),
        ) {
            let values: Vec<f64> = raw
                .iter()
                .map(|&(code, v)| if code < 9 { tie_heavy_value(code) } else { v })
                .collect();
            proptest::prop_assert_eq!(argmax_bits(&values), first_wins_scan(&values));
        }
    }

    #[test]
    fn every_locality_backend_produces_a_full_quality_sample() {
        // Different backends visit neighbourhoods in different orders, so the
        // hill climbs may reach different local optima — but each must yield
        // a complete sample whose objective beats uniform sampling.
        let d = GeolifeGenerator::with_size(2_500, 61).generate();
        let k = 120;
        let kernel = GaussianKernel::for_dataset(&d);
        let uni = UniformSampler::new(k, 5).sample_dataset(&d);
        let o_uni = objective_of(&kernel, &uni.points);
        for backend in LocalityBackend::ALL {
            let config = VasConfig::new(k)
                .with_epsilon(kernel.bandwidth())
                .with_locality_backend(backend);
            let sample = VasSampler::from_dataset(&d, config).sample_dataset(&d);
            assert_eq!(sample.len(), k, "backend {backend}");
            let o = objective_of(&kernel, &sample.points);
            assert!(
                o < o_uni,
                "backend {backend}: {o} should beat uniform {o_uni}"
            );
        }
    }

    #[test]
    fn statically_typed_backend_matches_the_runtime_dispatched_one() {
        // `with_index` pins the backend at compile time; the produced sample
        // must be bit-identical to the enum-dispatched sampler configured for
        // the same backend.
        let d = GeolifeGenerator::with_size(2_000, 67).generate();
        let eps = GaussianKernel::for_dataset(&d).bandwidth();
        let config = VasConfig::new(100)
            .with_epsilon(eps)
            .with_locality_backend(LocalityBackend::HashGrid);
        let via_enum = VasSampler::from_dataset(&d, config.clone()).sample_dataset(&d);
        let via_static =
            VasSampler::from_dataset_with_index(&d, config, vas_spatial::HashGrid::new())
                .sample_dataset(&d);
        assert_eq!(via_enum.points, via_static.points);
    }

    #[test]
    fn config_backend_defaults_to_hashgrid() {
        assert_eq!(
            VasConfig::new(10).locality_backend,
            LocalityBackend::HashGrid
        );
    }

    fn assert_samples_bitwise_equal(a: &[Point], b: &[Point], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (p, q)) in a.iter().zip(b).enumerate() {
            assert!(
                p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits(),
                "{what}: slot {i} diverged: {p:?} vs {q:?}"
            );
        }
    }

    #[test]
    fn build_from_source_is_bit_identical_to_build() {
        // The streaming entry point must not change a single replacement
        // decision, including the ε resolution pre-pass (no epsilon in the
        // config → both paths must derive the same bandwidth).
        let d = GeolifeGenerator::with_size(4_000, 83).generate();
        for k in [0usize, 150] {
            let config = VasConfig::new(k);
            let reference = VasSampler::from_dataset(&d, config.clone()).build(&d);
            let mut streaming = VasSampler::new(config);
            let mut source = vas_stream::DatasetSource::with_chunk_size(&d, 257);
            let sample = streaming.build_from_source(&mut source).unwrap();
            assert_samples_bitwise_equal(&sample.points, &reference.points, "stream vs build");
        }
    }

    #[test]
    fn build_from_source_multi_pass_matches_build() {
        let d = GeolifeGenerator::with_size(1_500, 7).generate();
        let config = VasConfig::new(90).with_passes(3);
        let reference = VasSampler::from_dataset(&d, config.clone()).build(&d);
        let mut streaming = VasSampler::new(config);
        let mut source = vas_stream::DatasetSource::with_chunk_size(&d, 64);
        let sample = streaming.build_from_source(&mut source).unwrap();
        assert_samples_bitwise_equal(&sample.points, &reference.points, "multi-pass");
    }

    #[test]
    fn build_from_source_until_converged_matches_in_memory() {
        let d = GeolifeGenerator::with_size(800, 23).generate();
        let eps = GaussianKernel::for_dataset(&d).bandwidth();
        let config = VasConfig::new(40)
            .with_strategy(InterchangeStrategy::ExpandShrink)
            .with_epsilon(eps);
        let (reference, ref_passes) =
            VasSampler::from_dataset(&d, config.clone()).build_until_converged(&d, 20);
        let mut streaming = VasSampler::new(config);
        let mut source = vas_stream::DatasetSource::with_chunk_size(&d, 100);
        let (sample, passes) = streaming
            .build_from_source_until_converged(&mut source, 20)
            .unwrap();
        assert_eq!(passes, ref_passes);
        assert_samples_bitwise_equal(&sample.points, &reference.points, "until converged");
    }

    #[test]
    fn observe_chunk_equals_observe_loop_sequentially() {
        // The chunked loop must be *the* `observe` loop, not a near-copy.
        let d = GeolifeGenerator::with_size(2_000, 101).generate();
        let config = VasConfig::new(100);
        let mut chunked = VasSampler::from_dataset(&d, config.clone());
        let mut plain = VasSampler::from_dataset(&d, config);
        for chunk in d.points.chunks(333) {
            chunked.observe_chunk(chunk);
        }
        for p in d.iter() {
            plain.observe(*p);
        }
        assert_samples_bitwise_equal(
            chunked.current_sample(),
            plain.current_sample(),
            "observe_chunk vs observe",
        );
        assert_eq!(chunked.replacements(), plain.replacements());
        assert_eq!(chunked.seen, plain.seen);
    }

    #[test]
    fn sampler_crosses_threads() {
        // The audit the parallel drivers rely on: a sampler (any backend)
        // can be moved to a worker thread wholesale.
        fn assert_send<T: Send>() {}
        assert_send::<VasSampler>();
        assert_send::<VasSampler<vas_spatial::HashGrid>>();
        assert_send::<VasSampler<vas_spatial::RTree>>();
        assert_send::<VasSampler<vas_spatial::KdTree>>();
        let d = GeolifeGenerator::with_size(500, 3).generate();
        let handle = std::thread::spawn(move || {
            let mut s = VasSampler::from_dataset(&d, VasConfig::new(50));
            s.sample_dataset(&d).len()
        });
        assert_eq!(handle.join().unwrap(), 50);
    }

    fn temp_checkpoint(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "vas-core-ckpt-{}-{tag}.vascheckpt",
            std::process::id()
        ))
    }

    fn assert_samples_bit_equal(a: &Sample, b: &Sample, what: &str) {
        assert_eq!(a.points.len(), b.points.len(), "{what}: lengths differ");
        for (i, (p, q)) in a.points.iter().zip(&b.points).enumerate() {
            assert!(
                p.x.to_bits() == q.x.to_bits()
                    && p.y.to_bits() == q.y.to_bits()
                    && p.value.to_bits() == q.value.to_bits(),
                "{what}: point {i} differs"
            );
        }
    }

    /// Kill-and-resume at several chunk boundaries, every backend: the
    /// resumed build must reproduce the uninterrupted sample bit for bit.
    /// (The exhaustive boundary sweep lives in `tests/determinism.rs` and
    /// the `fault_matrix` harness.)
    #[test]
    fn checkpoint_resume_is_bit_identical_per_backend() {
        let d = GeolifeGenerator::with_size(4_000, 11).generate();
        for backend in LocalityBackend::ALL {
            let config = VasConfig::new(120).with_locality_backend(backend);
            let mut clean_src = vas_stream::DatasetSource::with_chunk_size(&d, 512);
            let clean = VasSampler::new(config.clone())
                .build_from_source(&mut clean_src)
                .unwrap();

            for kill_after in [1u64, 3, 5, 7] {
                let path = temp_checkpoint(&format!("{backend}-{kill_after}"));
                let policy = CheckpointPolicy::every(&path, 1).halting_after(kill_after);
                let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 512);
                let outcome = VasSampler::new(config.clone())
                    .build_from_source_checkpointed(&mut src, &policy)
                    .unwrap();
                assert!(outcome.is_halted(), "{backend}: kill switch did not fire");

                let resume_policy = CheckpointPolicy::every(&path, 1);
                let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 512);
                let (_, outcome) =
                    VasSampler::resume_build_from_source(config.clone(), &mut src, &resume_policy)
                        .unwrap();
                let resumed = outcome.into_sample().expect("resumed run completes");
                assert_samples_bit_equal(
                    &resumed,
                    &clean,
                    &format!("{backend}, killed after chunk {kill_after}"),
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }

    /// A checkpoint written mid-pass with a sparser cadence than the kill
    /// point: the resume re-processes the chunks after the last checkpoint
    /// and still lands on the clean sample's bits.
    #[test]
    fn resume_from_stale_checkpoint_reprocesses_the_gap() {
        let d = GeolifeGenerator::with_size(3_000, 7).generate();
        let config = VasConfig::new(80);
        let mut clean_src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
        let clean = VasSampler::new(config.clone())
            .build_from_source(&mut clean_src)
            .unwrap();

        let path = temp_checkpoint("stale");
        // Checkpoints at chunks 3, 6, 9…; killed after chunk 7 → resume
        // restarts from chunk 6's state and re-observes chunk 7.
        let policy = CheckpointPolicy::every(&path, 3).halting_after(7);
        let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
        let outcome = VasSampler::new(config.clone())
            .build_from_source_checkpointed(&mut src, &policy)
            .unwrap();
        assert!(outcome.is_halted());

        let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
        let (_, outcome) = VasSampler::resume_build_from_source(
            config,
            &mut src,
            &CheckpointPolicy::every(&path, 3),
        )
        .unwrap();
        assert_samples_bit_equal(
            &outcome.into_sample().unwrap(),
            &clean,
            "stale checkpoint resume",
        );
        std::fs::remove_file(&path).ok();
    }

    /// Resume preconditions: a checkpoint must refuse a mismatching
    /// configuration or source.
    #[test]
    fn resume_rejects_mismatched_config_and_source() {
        let d = GeolifeGenerator::with_size(2_000, 5).generate();
        let config = VasConfig::new(60);
        let path = temp_checkpoint("mismatch");
        let policy = CheckpointPolicy::every(&path, 1).halting_after(2);
        let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
        VasSampler::new(config.clone())
            .build_from_source_checkpointed(&mut src, &policy)
            .unwrap();

        // Wrong budget.
        let err = VasSampler::resume_from_checkpoint(&path, VasConfig::new(61)).unwrap_err();
        assert!(matches!(err, VasError::Mismatch { .. }), "{err}");
        // Wrong backend.
        let err = VasSampler::resume_from_checkpoint(
            &path,
            VasConfig::new(60).with_locality_backend(LocalityBackend::RTree),
        )
        .unwrap_err();
        assert!(matches!(err, VasError::Mismatch { .. }), "{err}");
        // Wrong source (different chunk capacity).
        let mut other = vas_stream::DatasetSource::with_chunk_size(&d, 128);
        let err =
            VasSampler::resume_build_from_source(config.clone(), &mut other, &policy).unwrap_err();
        assert!(matches!(err, VasError::Mismatch { .. }), "{err}");
        // Corrupted checkpoint: flip one byte.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = VasSampler::resume_from_checkpoint(&path, config.clone()).unwrap_err();
        assert!(
            matches!(
                err,
                VasError::ChecksumMismatch { .. }
                    | VasError::Corrupt { .. }
                    | VasError::UnsupportedVersion { .. }
                    | VasError::Truncated { .. }
            ),
            "{err}"
        );

        // CRC-valid checkpoints whose sample has an impossible shape.
        let mut sampler = VasSampler::from_dataset(&d, VasConfig::new(8));
        for p in d.points.iter().take(100) {
            sampler.observe(*p);
        }
        // More sample points than the budget: K = 4 with 8 points.
        sampler.config.k = 4;
        sampler.write_checkpoint(&path, 0, 1, "shape", 256).unwrap();
        let err = VasSampler::resume_from_checkpoint(&path, VasConfig::new(4)).unwrap_err();
        assert!(matches!(err, VasError::Checkpoint { .. }), "{err}");
        // A 5-entry index under an 8-point sample.
        sampler.config.k = 8;
        sampler.index = AnyLocalityIndex::new(LocalityBackend::default());
        sampler.index.reset(sampler.cutoff);
        for (slot, p) in d.points.iter().take(5).enumerate() {
            sampler.index.insert(slot, *p);
        }
        sampler.write_checkpoint(&path, 0, 1, "shape", 256).unwrap();
        let err = VasSampler::resume_from_checkpoint(&path, VasConfig::new(8)).unwrap_err();
        assert!(matches!(err, VasError::Checkpoint { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The format has no reader for older containers: a version-1 file is
    /// refused before any sampler state is decoded.
    #[test]
    fn version_1_checkpoint_is_unsupported() {
        let d = GeolifeGenerator::with_size(1_000, 5).generate();
        let config = VasConfig::new(40);
        let path = temp_checkpoint("v1");
        let policy = CheckpointPolicy::every(&path, 1).halting_after(2);
        let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
        VasSampler::new(config.clone())
            .build_from_source_checkpointed(&mut src, &policy)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = VasSampler::resume_from_checkpoint(&path, config).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, VasError::UnsupportedVersion { found: 1, .. }),
            "{err}"
        );
    }

    proptest::proptest! {
        /// Checkpoint round-trip under adversarial float payloads: values
        /// carry NaN / -0.0 / subnormal bit patterns (and coordinates may be
        /// -0.0 or subnormal — any finite bits), the build is killed at an
        /// arbitrary chunk boundary, and the resume must land on the clean
        /// build's bits exactly.
        #[test]
        fn checkpoint_round_trip_survives_special_float_payloads(
            raw in proptest::collection::vec(
                (-50.0f64..50.0, -50.0f64..50.0, -1.0e6f64..1.0e6, 0u8..8),
                300..700,
            ),
            kill_after in 1u64..6,
            chunk in 48usize..160,
        ) {
            let points: Vec<Point> = raw
                .iter()
                .map(|&(x, y, v, special)| {
                    // Smuggle the special bit patterns in through the value
                    // channel (any f64) and the coordinates (any finite f64).
                    let (x, y, v) = match special {
                        0 => (x, y, f64::NAN),
                        1 => (x, y, -0.0),
                        2 => (x, y, 5e-324),
                        3 => (-0.0, y, v),
                        4 => (x, 5e-324, v),
                        5 => (x, -0.0, -v),
                        _ => (x, y, v),
                    };
                    Point::with_value(x, y, v)
                })
                .collect();
            let d = Dataset::new("proptest", vas_data::DatasetKind::External, points);
            let config = VasConfig::new(40);
            let mut src = vas_stream::DatasetSource::with_chunk_size(&d, chunk);
            let clean = VasSampler::new(config.clone())
                .build_from_source(&mut src)
                .unwrap();

            let path = std::env::temp_dir().join(format!(
                "vas-core-ckpt-prop-{}-{kill_after}-{chunk}.vascheckpt",
                std::process::id()
            ));
            let policy = CheckpointPolicy::every(&path, 1).halting_after(kill_after);
            let mut src = vas_stream::DatasetSource::with_chunk_size(&d, chunk);
            let outcome = VasSampler::new(config.clone())
                .build_from_source_checkpointed(&mut src, &policy)
                .unwrap();
            let resumed = if outcome.is_halted() {
                let mut src = vas_stream::DatasetSource::with_chunk_size(&d, chunk);
                let (_, outcome) = VasSampler::resume_build_from_source(
                    config,
                    &mut src,
                    &CheckpointPolicy::every(&path, 1),
                )
                .unwrap();
                outcome.into_sample().unwrap()
            } else {
                // The kill point fell past the stream's end: the run
                // completed; its sample must already match.
                outcome.into_sample().unwrap()
            };
            std::fs::remove_file(&path).ok();
            proptest::prop_assert_eq!(resumed.points.len(), clean.points.len());
            for (p, q) in resumed.points.iter().zip(&clean.points) {
                proptest::prop_assert_eq!(p.x.to_bits(), q.x.to_bits());
                proptest::prop_assert_eq!(p.y.to_bits(), q.y.to_bits());
                proptest::prop_assert_eq!(p.value.to_bits(), q.value.to_bits());
            }
        }

        /// Arbitrary single-byte corruption anywhere in a checkpoint file
        /// must surface as a typed error from resume — never a panic, never
        /// a silently restored sampler.
        #[test]
        fn corrupted_checkpoint_resumes_to_typed_errors(
            offset_frac in 0.0f64..1.0,
            flip in 1u8..255,
            truncate in proptest::bool::ANY,
        ) {
            let d = GeolifeGenerator::with_size(1_500, 3).generate();
            let config = VasConfig::new(50);
            let path = std::env::temp_dir().join(format!(
                "vas-core-ckpt-corrupt-{}-{flip}-{truncate}.vascheckpt",
                std::process::id()
            ));
            let policy = CheckpointPolicy::every(&path, 1).halting_after(2);
            let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
            VasSampler::new(config.clone())
                .build_from_source_checkpointed(&mut src, &policy)
                .unwrap();

            let mut bytes = std::fs::read(&path).unwrap();
            let offset = ((bytes.len() - 1) as f64 * offset_frac) as usize;
            if truncate {
                bytes.truncate(offset);
            } else {
                bytes[offset] ^= flip;
            }
            std::fs::write(&path, &bytes).unwrap();
            let err = VasSampler::resume_from_checkpoint(&path, config).unwrap_err();
            std::fs::remove_file(&path).ok();
            proptest::prop_assert!(
                matches!(
                    err,
                    VasError::ChecksumMismatch { .. }
                        | VasError::Corrupt { .. }
                        | VasError::Truncated { .. }
                        | VasError::UnsupportedVersion { .. }
                        | VasError::Checkpoint { .. }
                ),
                "unexpected error shape: {}", err
            );
        }
    }

    #[test]
    fn build_from_source_propagates_source_errors() {
        // A CSV with a malformed row mid-stream must surface the error.
        let path =
            std::env::temp_dir().join(format!("vas-core-badsource-{}.csv", std::process::id()));
        std::fs::write(&path, "1.0,2.0\n3.0,4.0\nbroken,row,here\n").unwrap();
        let mut source = vas_stream::CsvSource::open(&path, "bad").unwrap();
        let mut sampler = VasSampler::new(VasConfig::new(10));
        let err = sampler.build_from_source(&mut source).unwrap_err();
        assert_eq!(err.io_kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }
}
