//! The offline sample catalog.
//!
//! Section II-D of the paper: samples are built **offline**, like an index,
//! for the column pairs that are frequently visualized; at query time the
//! database picks a pre-built sample whose size fits the latency budget.
//! [`SampleCatalog`] is that ladder of samples for one projected dataset:
//! a sorted collection of samples of increasing size, each tagged with the
//! method that produced it, plus the selection rule "largest sample not
//! exceeding the budget".

use std::time::Instant;
use vas_data::Dataset;
use vas_obs::{Counter, Phase, Recorder};
use vas_sampling::{Sample, Sampler};

/// A ladder of pre-built samples of increasing size for one dataset
/// projection.
#[derive(Debug, Clone, Default)]
pub struct SampleCatalog {
    /// Samples sorted by ascending actual size.
    samples: Vec<Sample>,
}

impl SampleCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a catalog by running `sampler_factory(k)` for every size in
    /// `sizes` over the same dataset. The factory lets callers choose the
    /// method (uniform, stratified, VAS) and per-size configuration.
    ///
    /// The rungs are independent, so each runs on a scoped worker of its
    /// own ([`vas_par::par_map_vec_ordered_recorded`], one range per rung;
    /// the calling thread takes the first rung, so a one-rung ladder spawns
    /// nothing). The factory is still called on the calling thread **in
    /// `sizes` order**, so a stateful factory (seeding, say) sees the same
    /// call sequence as a one-by-one loop, and the samples are inserted in
    /// `sizes` order: the catalog is bit-identical to running the rungs one
    /// after another. A panic in any rung propagates to the caller after
    /// every worker has joined.
    pub fn build<S, F>(dataset: &Dataset, sizes: &[usize], sampler_factory: F) -> Self
    where
        S: Sampler + Send,
        F: FnMut(usize) -> S,
    {
        Self::build_recorded(dataset, sizes, sampler_factory, &Recorder::detached())
    }

    /// [`build`](Self::build) with a [`Recorder`]: the fan-out counts its
    /// workers into `par_tasks_executed`, and each rung opens one
    /// `catalog_build` span (attribute `k`) parented under the caller's open
    /// span, counts into `storage_catalog_samples_built` and, with timing
    /// enabled, feeds its wall-clock into the `catalog_build` phase
    /// histogram.
    pub fn build_recorded<S, F>(
        dataset: &Dataset,
        sizes: &[usize],
        mut sampler_factory: F,
        recorder: &Recorder,
    ) -> Self
    where
        S: Sampler + Send,
        F: FnMut(usize) -> S,
    {
        let samplers: Vec<S> = sizes.iter().map(|&k| sampler_factory(k)).collect();
        // Captured here so the spans of rungs on spawned workers parent
        // under the caller's span rather than float as roots.
        let parent = recorder.current_ctx();
        let samples = vas_par::par_map_vec_ordered_recorded(
            recorder,
            sizes.len().max(1),
            samplers,
            |i, mut sampler| {
                let started = recorder.timing_enabled().then(Instant::now);
                let sample = {
                    let mut span = recorder.span_under("catalog_build", parent);
                    span.attr("k", sizes[i]);
                    sampler.sample_dataset(dataset)
                };
                if let Some(t0) = started {
                    recorder.record_phase_ns(Phase::CatalogBuild, t0.elapsed().as_nanos() as u64);
                }
                recorder.inc(Counter::StorageCatalogSamplesBuilt, 1);
                sample
            },
        );
        let mut catalog = Self::new();
        for sample in samples {
            catalog.insert(sample);
        }
        catalog
    }

    /// Builds a **nested** ladder: the largest sample is drawn from the full
    /// dataset, and every smaller sample is drawn from the next larger one,
    /// so `S_100 ⊆ S_1000 ⊆ S_10000 ⊆ D`.
    ///
    /// Nesting has two practical benefits for the offline-index use case of
    /// Section II-D: the total construction cost is dominated by the single
    /// largest run (the smaller ones scan only the previous sample), and a
    /// client that upgrades its latency budget mid-session only receives
    /// *additional* points rather than a disjoint set, so already-rendered
    /// dots never disappear.
    pub fn build_nested<S, F>(dataset: &Dataset, sizes: &[usize], mut sampler_factory: F) -> Self
    where
        S: Sampler,
        F: FnMut(usize) -> S,
    {
        let mut catalog = Self::new();
        let mut ordered: Vec<usize> = sizes.to_vec();
        ordered.sort_unstable();
        ordered.dedup();

        let mut source = dataset.clone();
        for &k in ordered.iter().rev() {
            let mut sampler = sampler_factory(k);
            let sample = sampler.sample_dataset(&source);
            source = Dataset::from_points(format!("{}[{k}]", dataset.name), sample.points.clone());
            catalog.insert(sample);
        }
        catalog
    }

    /// Adds a sample to the catalog.
    pub fn insert(&mut self, sample: Sample) {
        self.samples.push(sample);
        self.samples.sort_by_key(Sample::len);
    }

    /// Number of samples stored.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the catalog holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The stored samples, sorted by ascending size.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The available sample sizes, ascending.
    pub fn sizes(&self) -> Vec<usize> {
        self.samples.iter().map(Sample::len).collect()
    }

    /// The largest sample whose size does not exceed `max_points` — the
    /// paper's budget-to-sample conversion. Returns `None` when every stored
    /// sample is larger than the budget (the caller then either renders
    /// nothing or falls back to the smallest sample, a policy decision left
    /// to the engine).
    pub fn best_within(&self, max_points: usize) -> Option<&Sample> {
        self.samples.iter().rev().find(|s| s.len() <= max_points)
    }

    /// The smallest stored sample, if any.
    pub fn smallest(&self) -> Option<&Sample> {
        self.samples.first()
    }

    /// The largest stored sample, if any.
    pub fn largest(&self) -> Option<&Sample> {
        self.samples.last()
    }

    /// Total number of points stored across all samples (the storage
    /// footprint of the "index").
    pub fn total_points(&self) -> usize {
        self.samples.iter().map(Sample::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_data::GeolifeGenerator;
    use vas_sampling::UniformSampler;

    fn dataset() -> Dataset {
        GeolifeGenerator::with_size(5_000, 61).generate()
    }

    fn catalog() -> SampleCatalog {
        SampleCatalog::build(&dataset(), &[100, 1_000, 2_500], |k| {
            UniformSampler::new(k, 42)
        })
    }

    #[test]
    fn build_creates_one_sample_per_size() {
        let c = catalog();
        assert_eq!(c.len(), 3);
        assert_eq!(c.sizes(), vec![100, 1_000, 2_500]);
        assert_eq!(c.total_points(), 3_600);
        assert!(!c.is_empty());
    }

    #[test]
    fn best_within_picks_the_largest_fitting_sample() {
        let c = catalog();
        assert_eq!(c.best_within(5_000).unwrap().len(), 2_500);
        assert_eq!(c.best_within(2_500).unwrap().len(), 2_500);
        assert_eq!(c.best_within(2_499).unwrap().len(), 1_000);
        assert_eq!(c.best_within(100).unwrap().len(), 100);
        assert!(c.best_within(99).is_none());
    }

    #[test]
    fn smallest_and_largest() {
        let c = catalog();
        assert_eq!(c.smallest().unwrap().len(), 100);
        assert_eq!(c.largest().unwrap().len(), 2_500);
        let empty = SampleCatalog::new();
        assert!(empty.smallest().is_none());
        assert!(empty.best_within(1_000).is_none());
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        // Four rungs, so more workers than a two-core machine has cores.
        let d = dataset();
        let sizes = [100usize, 400, 1_000, 2_500];
        let parallel = SampleCatalog::build(&d, &sizes, |k| UniformSampler::new(k, 42));
        let sequential: Vec<Sample> = sizes
            .iter()
            .map(|&k| UniformSampler::new(k, 42).sample_dataset(&d))
            .collect();
        assert_eq!(parallel.sizes(), sizes);
        for (a, b) in parallel.samples().iter().zip(&sequential) {
            assert_eq!(a.method, b.method);
            assert_eq!(a.target_size, b.target_size);
            assert_eq!(a.points.len(), b.points.len());
            for (p, q) in a.points.iter().zip(&b.points) {
                assert_eq!(p.x.to_bits(), q.x.to_bits(), "k {}", a.target_size);
                assert_eq!(p.y.to_bits(), q.y.to_bits(), "k {}", a.target_size);
                assert_eq!(p.value.to_bits(), q.value.to_bits(), "k {}", a.target_size);
            }
        }
    }

    #[test]
    fn recorded_builds_count_samples_and_time_the_catalog_phase() {
        use std::sync::Arc;
        let d = dataset();
        let sizes = [100usize, 400, 1_000];
        let tracer = Arc::new(vas_obs::Tracer::new());
        let recorder = Recorder::new(Arc::new(vas_obs::MetricsRegistry::new()))
            .with_timing(true)
            .with_tracer(Arc::clone(&tracer));
        let caller = recorder.span("caller");
        let caller_id = recorder
            .current_ctx()
            .expect("caller span is open")
            .span_id();
        let catalog =
            SampleCatalog::build_recorded(&d, &sizes, |k| UniformSampler::new(k, 42), &recorder);
        drop(caller);
        assert_eq!(catalog.sizes(), sizes);
        assert_eq!(
            recorder.registry().get(Counter::StorageCatalogSamplesBuilt),
            sizes.len() as u64
        );
        assert_eq!(recorder.registry().get(Counter::ParTasksExecuted), 3);
        let snap = recorder.registry().snapshot();
        assert_eq!(snap.phase_calls(Phase::CatalogBuild), 3);

        // One `catalog_build` span per rung, each tagged with its `k` and
        // parented under the caller's span whichever thread ran it.
        let spans = tracer.spans();
        let mut ks: Vec<String> = spans
            .iter()
            .filter(|s| s.name == "catalog_build")
            .map(|s| {
                assert_eq!(s.parent, Some(caller_id), "{s:?}");
                let attr = |key: &str| s.attrs.iter().find(|(k, _)| k == key);
                attr("k").expect("k attribute").1.clone()
            })
            .collect();
        ks.sort_by_key(|k| k.parse::<usize>().unwrap());
        assert_eq!(ks, ["100", "400", "1000"]);
    }

    #[test]
    fn parallel_build_calls_the_factory_in_sizes_order() {
        // Stateful factories (e.g. deriving per-size seeds from a counter)
        // must observe the same call sequence as a one-by-one loop.
        let d = dataset();
        let mut calls = Vec::new();
        let _ = SampleCatalog::build(&d, &[500, 100, 300], |k| {
            calls.push(k);
            UniformSampler::new(k, 1)
        });
        assert_eq!(calls, vec![500, 100, 300]);
    }

    #[test]
    fn empty_and_one_rung_ladders() {
        let d = dataset();
        assert!(SampleCatalog::build(&d, &[], |k| UniformSampler::new(k, 1)).is_empty());
        let one = SampleCatalog::build(&d, &[250], |k| UniformSampler::new(k, 1));
        assert_eq!(one.sizes(), vec![250]);
    }

    #[test]
    fn nested_catalog_produces_subset_chain() {
        let d = dataset();
        let sizes = [50usize, 400, 1_500];
        let c = SampleCatalog::build_nested(&d, &sizes, |k| UniformSampler::new(k, 9));
        assert_eq!(c.sizes(), vec![50, 400, 1_500]);
        // Every smaller sample is a subset of the next larger one.
        let samples = c.samples();
        for window in samples.windows(2) {
            let (small, large) = (&window[0], &window[1]);
            for p in &small.points {
                assert!(
                    large.points.contains(p),
                    "nested property violated between sizes {} and {}",
                    small.len(),
                    large.len()
                );
            }
        }
        // And the largest is a subset of the dataset.
        for p in &samples.last().unwrap().points {
            assert!(d.points.contains(p));
        }
    }

    #[test]
    fn nested_catalog_deduplicates_sizes() {
        let d = dataset();
        let c = SampleCatalog::build_nested(&d, &[100, 100, 300], |k| UniformSampler::new(k, 1));
        assert_eq!(c.sizes(), vec![100, 300]);
    }

    #[test]
    fn insert_keeps_samples_sorted() {
        let d = dataset();
        let mut c = SampleCatalog::new();
        c.insert(UniformSampler::new(500, 1).sample_dataset(&d));
        c.insert(UniformSampler::new(50, 1).sample_dataset(&d));
        c.insert(UniformSampler::new(200, 1).sample_dataset(&d));
        assert_eq!(c.sizes(), vec![50, 200, 500]);
    }
}
