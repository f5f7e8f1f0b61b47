//! Regression tests pinning down determinism: the same seed must produce
//! byte-identical output across independent runs of every generator and
//! sampler. Future PRs that parallelize the hot loops (Interchange, R-tree
//! queries, dataset generation) must preserve this property — these tests
//! are the tripwire.

use vas::prelude::*;

/// Two points are byte-identical when every coordinate has the same bit
/// pattern — stricter than `==`, which would accept `-0.0 == 0.0`.
fn assert_points_bitwise_equal(a: &[Point], b: &[Point], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        let pb = [p.x.to_bits(), p.y.to_bits(), p.value.to_bits()];
        let qb = [q.x.to_bits(), q.y.to_bits(), q.value.to_bits()];
        assert_eq!(pb, qb, "{what}: point {i} differs: {p:?} vs {q:?}");
    }
}

#[test]
fn geolife_generator_is_deterministic_per_seed() {
    let a = GeolifeGenerator::with_size(10_000, 77).generate();
    let b = GeolifeGenerator::with_size(10_000, 77).generate();
    assert_points_bitwise_equal(&a.points, &b.points, "GeolifeGenerator");

    // And a different seed actually changes the stream.
    let c = GeolifeGenerator::with_size(10_000, 78).generate();
    assert!(
        a.points.iter().zip(&c.points).any(|(p, q)| p != q),
        "different seeds must produce different datasets"
    );
}

#[test]
fn splom_and_gaussian_generators_are_deterministic_per_seed() {
    let a = SplomGenerator::with_size(5_000, 3).generate();
    let b = SplomGenerator::with_size(5_000, 3).generate();
    assert_points_bitwise_equal(&a.points, &b.points, "SplomGenerator");

    let a = GaussianMixtureGenerator::paper_clustering_dataset(0, 5_000, 9).generate();
    let b = GaussianMixtureGenerator::paper_clustering_dataset(0, 5_000, 9).generate();
    assert_points_bitwise_equal(&a.points, &b.points, "GaussianMixtureGenerator");
}

#[test]
fn uniform_sampler_is_deterministic_per_seed() {
    let data = GeolifeGenerator::with_size(20_000, 5).generate();
    let a = UniformSampler::new(500, 42).sample_dataset(&data);
    let b = UniformSampler::new(500, 42).sample_dataset(&data);
    assert_points_bitwise_equal(&a.points, &b.points, "UniformSampler");
}

#[test]
fn stratified_sampler_is_deterministic_per_seed() {
    let data = GeolifeGenerator::with_size(20_000, 5).generate();
    let bounds = data.bounds();
    let a = StratifiedSampler::square(500, bounds, 10, 42).sample_dataset(&data);
    let b = StratifiedSampler::square(500, bounds, 10, 42).sample_dataset(&data);
    assert_points_bitwise_equal(&a.points, &b.points, "StratifiedSampler");
}

#[test]
fn vas_sampler_is_deterministic() {
    // The Interchange algorithm is seedless (fully determined by the input
    // stream), so two runs over the same dataset must agree exactly — for
    // every strategy and every locality backend.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let mut cases = vec![(
        InterchangeStrategy::ExpandShrink,
        LocalityBackend::default(),
    )];
    for backend in LocalityBackend::ALL {
        cases.push((InterchangeStrategy::ExpandShrinkLocality, backend));
    }
    for (strategy, backend) in cases {
        let config = VasConfig::new(300)
            .with_strategy(strategy)
            .with_locality_backend(backend);
        let a = VasSampler::from_dataset(&data, config.clone()).sample_dataset(&data);
        let b = VasSampler::from_dataset(&data, config).sample_dataset(&data);
        assert_points_bitwise_equal(
            &a.points,
            &b.points,
            &format!("VasSampler ({}, {backend})", strategy.label()),
        );
    }
}

#[test]
fn optimized_inner_loop_is_bit_identical_to_the_legacy_implementation() {
    // The optimized Interchange inner loop (a Shrink step that reads a
    // cached maximum instead of rescanning every slot, zero-allocation
    // spatial queries, cached cutoff radius) must be a pure speed-up: on the
    // seeds pinned here, both `ExpandShrink` and `ExpandShrinkLocality` must
    // produce samples byte-identical to the pre-refactor implementation,
    // which is retained behind `VasConfig::with_legacy_inner_loop` exactly
    // for this test and for the `fig10_inner_loop` benchmark baseline.
    for seed in [21u64, 99] {
        let data = GeolifeGenerator::with_size(10_000, seed).generate();
        let mut cases = vec![(
            InterchangeStrategy::ExpandShrink,
            LocalityBackend::default(),
        )];
        for backend in LocalityBackend::ALL {
            cases.push((InterchangeStrategy::ExpandShrinkLocality, backend));
        }
        for (strategy, backend) in cases {
            let config = VasConfig::new(300)
                .with_strategy(strategy)
                .with_locality_backend(backend);
            let optimized = VasSampler::from_dataset(&data, config.clone()).sample_dataset(&data);
            let legacy = VasSampler::from_dataset(&data, config.with_legacy_inner_loop(true))
                .sample_dataset(&data);
            assert_points_bitwise_equal(
                &optimized.points,
                &legacy.points,
                &format!(
                    "VasSampler optimized vs legacy ({}, {backend}, seed {seed})",
                    strategy.label()
                ),
            );
        }
    }
}

#[test]
fn es_loc_over_hashgrid_is_bit_identical_to_the_legacy_loop_per_tuple() {
    // The PR 3 contract, the same one PR 2 pinned for the R-tree: switching
    // the locality backend to the spatial hash is a pure speed-up. Lock-step
    // the optimized and legacy samplers over the HashGrid backend and compare
    // the full sample bit-for-bit after *every* observation. The second case
    // streams every point twice, so twin slots can tie exactly for the
    // largest responsibility, and K = 203 leaves a tail after the 8-lane
    // blocks of the optimized loop's maximum scan.
    let plain = GeolifeGenerator::with_size(6_000, 47).generate();
    let twins: Vec<Point> = GeolifeGenerator::with_size(3_000, 53)
        .generate()
        .iter()
        .flat_map(|p| [*p, *p])
        .collect();
    let twins = Dataset::from_points("geolife-twins", twins);
    for (data, k) in [(&plain, 200), (&twins, 203)] {
        let config = VasConfig::new(k)
            .with_strategy(InterchangeStrategy::ExpandShrinkLocality)
            .with_locality_backend(LocalityBackend::HashGrid);
        let mut optimized = VasSampler::from_dataset(data, config.clone());
        let mut legacy = VasSampler::from_dataset(data, config.with_legacy_inner_loop(true));
        for (t, p) in data.iter().enumerate() {
            optimized.observe(*p);
            legacy.observe(*p);
            assert_points_bitwise_equal(
                optimized.current_sample(),
                legacy.current_sample(),
                &format!("ES+Loc over HashGrid, K = {k}, at tuple {t}"),
            );
            assert_eq!(
                optimized.replacements(),
                legacy.replacements(),
                "K = {k}: replacement count diverged at tuple {t}"
            );
        }
        assert_eq!(
            optimized.current_objective().to_bits(),
            legacy.current_objective().to_bits(),
            "K = {k}: objective bits diverged"
        );
    }
}

#[test]
fn es_loc_matches_the_legacy_loop_on_nan_coordinates() {
    // A NaN candidate has no neighbours, so once it is swapped in its
    // slot's responsibility is NaN. The legacy first-wins scan never picks
    // a NaN slot as the maximum, and the optimized loop must agree. This
    // pins agreement only; it is not a policy for non-finite input. The k-d
    // tree requires finite coordinates (its median rebuild panics on NaN),
    // so both loops fail alike there and it has nothing to compare.
    let mut data = GeolifeGenerator::with_size(20_000, 7).generate();
    for p in data.points.iter_mut().skip(3_000).step_by(997) {
        p.x = f64::NAN;
    }
    for k in [50, 200] {
        for backend in LocalityBackend::ALL {
            if backend == LocalityBackend::KdTree {
                continue;
            }
            let config = VasConfig::new(k)
                .with_strategy(InterchangeStrategy::ExpandShrinkLocality)
                .with_locality_backend(backend);
            let optimized = VasSampler::from_dataset(&data, config.clone()).sample_dataset(&data);
            let legacy = VasSampler::from_dataset(&data, config.with_legacy_inner_loop(true))
                .sample_dataset(&data);
            assert!(
                legacy.points.iter().any(|p| p.x.is_nan()),
                "K = {k}, {backend}: the legacy sample keeps no NaN point"
            );
            assert_points_bitwise_equal(
                &optimized.points,
                &legacy.points,
                &format!("ES+Loc with NaN coordinates vs legacy (K = {k}, {backend})"),
            );
        }
    }
}

#[test]
fn streaming_generator_sources_match_materializing_generators() {
    // The out-of-core pipeline's first link: a generator streamed in chunks
    // must emit bit-for-bit the dataset `generate()` materializes, for every
    // generator family, across awkward chunk sizes, and again after a reset.
    let geolife = GeolifeGenerator::with_size(8_000, 77);
    let reference = geolife.generate();
    for chunk in [1usize, 997, 8_000, 9_001] {
        let mut source = GeolifeSource::new(geolife.clone(), chunk);
        let streamed = source.read_all().unwrap();
        assert_points_bitwise_equal(
            &streamed,
            &reference.points,
            &format!("GeolifeSource chunk {chunk}"),
        );
        source.reset().unwrap();
        let rescanned = source.read_all().unwrap();
        assert_points_bitwise_equal(
            &rescanned,
            &reference.points,
            &format!("GeolifeSource rescan chunk {chunk}"),
        );
    }

    let gaussian = GaussianMixtureGenerator::paper_clustering_dataset(1, 5_000, 9);
    let reference = gaussian.generate();
    let streamed = vas::stream::GaussianMixtureSource::new(gaussian, 613)
        .read_all()
        .unwrap();
    assert_points_bitwise_equal(&streamed, &reference.points, "GaussianMixtureSource");

    let splom = SplomGenerator::with_size(5_000, 3);
    let reference = splom.generate();
    let streamed = vas::stream::SplomSource::new(splom, 0, 1, 613)
        .read_all()
        .unwrap();
    assert_points_bitwise_equal(&streamed, &reference.points, "SplomSource");
}

#[test]
fn chunked_spill_round_trip_is_bit_exact() {
    // Generator → spill file → reader must reproduce the stream exactly;
    // this is the link that turns the codec's per-value bit-exactness into a
    // whole-pipeline guarantee.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-spill-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 777).unwrap();
    let restored = ChunkedReader::open(&path).unwrap().read_dataset().unwrap();
    assert_points_bitwise_equal(&restored.points, &data.points, "chunked spill round trip");
    std::fs::remove_file(path).ok();
}

#[test]
fn build_from_source_over_chunked_spill_is_bit_identical_to_build() {
    // The out-of-core contract: spilling a dataset to the chunked columnar
    // format and streaming it through `build_from_source` must reproduce
    // `build()` over the in-memory dataset bit-for-bit — same seed, every
    // locality backend's default (optimized) path, plus plain ES. The kernel
    // bandwidth is left unset so the streaming ε-resolution pre-pass is part
    // of the pinned contract too.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-bfs-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    let mut cases = vec![(
        InterchangeStrategy::ExpandShrink,
        LocalityBackend::default(),
    )];
    for backend in LocalityBackend::ALL {
        cases.push((InterchangeStrategy::ExpandShrinkLocality, backend));
    }
    for (strategy, backend) in cases {
        let config = VasConfig::new(300)
            .with_strategy(strategy)
            .with_locality_backend(backend);
        let reference = VasSampler::from_dataset(&data, config.clone()).build(&data);
        let mut reader = ChunkedReader::open(&path).unwrap();
        let streamed = VasSampler::new(config)
            .build_from_source(&mut reader)
            .unwrap();
        assert_points_bitwise_equal(
            &streamed.points,
            &reference.points,
            &format!(
                "build_from_source vs build ({}, {backend})",
                strategy.label()
            ),
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn streaming_pipeline_end_to_end_is_deterministic() {
    // Full out-of-core path, twice: streaming generator → spill → streaming
    // sampler. Two independent runs over two independent spill files must
    // agree exactly.
    let run = |tag: &str| {
        let path = std::env::temp_dir().join(format!(
            "vas-determinism-e2e-{}-{tag}.vaschunk",
            std::process::id()
        ));
        let mut generator = GeolifeSource::new(GeolifeGenerator::with_size(12_000, 5), 2_048);
        spill_source(&mut generator, &path).unwrap();
        let mut reader = ChunkedReader::open(&path).unwrap();
        let sample = VasSampler::new(VasConfig::new(200))
            .build_from_source(&mut reader)
            .unwrap();
        std::fs::remove_file(path).ok();
        sample
    };
    let a = run("a");
    let b = run("b");
    assert_points_bitwise_equal(&a.points, &b.points, "end-to-end streaming pipeline");
}

#[test]
fn parallel_pipeline_is_bit_identical_to_sequential_build_per_backend() {
    // Pipelined chunk read-ahead (`PrefetchSource`, a producer thread
    // decoding ahead of the sampler) must reproduce the sequential `build()`
    // bit-for-bit on every locality backend. The kernel bandwidth is left
    // unset so the streaming ε-resolution pre-pass runs through the prefetch
    // pipeline too.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-par-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    for backend in LocalityBackend::ALL {
        let config = VasConfig::new(300).with_locality_backend(backend);
        let reference = VasSampler::from_dataset(&data, config.clone()).build(&data);
        let reader = ChunkedReader::open(&path).unwrap();
        let mut source = vas::stream::PrefetchSource::new(reader);
        let streamed = VasSampler::new(config)
            .build_from_source(&mut source)
            .unwrap();
        assert_points_bitwise_equal(
            &streamed.points,
            &reference.points,
            &format!("prefetch vs build ({backend})"),
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn batched_kernel_path_is_bit_identical_to_the_scalar_path_per_backend() {
    // The PR 6 contract: the batched SoA kernel-evaluation path (batch-gather
    // neighbourhood lanes + `eval_dist2_batch` sweeps, the default) must
    // reproduce the point-at-a-time scalar path (retained behind
    // `VasConfig::with_scalar_kernel_path`) bit-for-bit — on every locality
    // backend, and for the dense `ExpandShrink` strategy.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    for backend in LocalityBackend::ALL {
        let config = VasConfig::new(300).with_locality_backend(backend);
        let scalar = VasSampler::from_dataset(&data, config.clone().with_scalar_kernel_path(true))
            .build(&data);
        let batched = VasSampler::from_dataset(&data, config).build(&data);
        assert_points_bitwise_equal(
            &batched.points,
            &scalar.points,
            &format!("batched vs scalar kernel path ({backend})"),
        );
    }
    let es = VasConfig::new(300).with_strategy(InterchangeStrategy::ExpandShrink);
    let scalar =
        VasSampler::from_dataset(&data, es.clone().with_scalar_kernel_path(true)).build(&data);
    let batched = VasSampler::from_dataset(&data, es).build(&data);
    assert_points_bitwise_equal(
        &batched.points,
        &scalar.points,
        "batched vs scalar kernel path (dense ES)",
    );
}

#[test]
fn parallel_loss_estimates_are_bit_identical_to_sequential() {
    let data = GeolifeGenerator::with_size(6_000, 33).generate();
    let kernel = GaussianKernel::for_dataset(&data);
    let sample = VasSampler::from_dataset(&data, VasConfig::new(200)).sample_dataset(&data);
    let sequential = LossEstimator::new(&data, &kernel, LossConfig::default());
    let seq = sequential.evaluate(&kernel, &sample.points);
    for threads in [2usize, 4] {
        let parallel = LossEstimator::new(
            &data,
            &kernel,
            LossConfig {
                threads,
                ..LossConfig::default()
            },
        );
        let par = parallel.evaluate(&kernel, &sample.points);
        assert_eq!(par.mean.to_bits(), seq.mean.to_bits(), "threads {threads}");
        assert_eq!(
            par.median.to_bits(),
            seq.median.to_bits(),
            "threads {threads}"
        );
    }
}

#[test]
fn density_embedding_is_deterministic() {
    let data = GeolifeGenerator::with_size(10_000, 33).generate();
    let sample = VasSampler::from_dataset(&data, VasConfig::new(200)).sample_dataset(&data);
    let a = vas::core::density::with_embedded_density(sample.clone(), &data);
    let b = vas::core::density::with_embedded_density(sample.clone(), &data);
    assert_eq!(
        a.densities, b.densities,
        "density counters must be reproducible"
    );
    // And the striped parallel pass must agree exactly with the sequential
    // one at any thread count.
    for threads in [2usize, 4] {
        let parallel = vas::core::density::density_counts_threaded(&sample.points, &data, threads);
        assert_eq!(
            Some(parallel),
            a.densities,
            "parallel density counts diverged at {threads} threads"
        );
    }
}

/// A VAS rung that embeds density counters into its sample, so a ladder
/// can be compared on densities as well as points.
struct DensityVas(VasSampler);

impl Sampler for DensityVas {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn target_size(&self) -> usize {
        self.0.target_size()
    }
    fn observe(&mut self, point: Point) {
        self.0.observe(point);
    }
    fn finalize(&mut self) -> Sample {
        self.0.finalize()
    }
    fn sample_dataset(&mut self, dataset: &Dataset) -> Sample {
        with_embedded_density(self.0.sample_dataset(dataset), dataset)
    }
}

#[test]
fn catalog_ladder_is_bit_identical_to_building_each_rung_in_turn() {
    // `VizEngine::build_catalog` runs each rung on a worker of its own, and
    // this ladder has more rungs than a two-core machine has cores. Every
    // rung must equal the same sampler run alone over the table's
    // projection, in points and in densities.
    let data = GeolifeGenerator::with_size(10_000, 41).generate();
    let sizes = [150usize, 400, 700];
    let mut engine = VizEngine::new();
    engine.register_table(Table::from_dataset(&data));
    let projected =
        engine
            .table(&data.name)
            .expect("registered")
            .to_dataset("x", "y", Some("value"));
    let rung = |k| VasSampler::new(VasConfig::new(k));
    let sequential: Vec<Sample> = sizes
        .iter()
        .map(|&k| DensityVas(rung(k)).sample_dataset(&projected))
        .collect();

    engine
        .build_catalog(&data.name, "x", "y", Some("value"), &sizes, rung)
        .unwrap();
    assert_eq!(engine.catalog_sizes(&data.name, "x", "y"), sizes);
    for (&k, expected) in sizes.iter().zip(&sequential) {
        let view = engine
            .query(&VizQuery::full(data.name.clone()).with_budget(k))
            .unwrap();
        assert_points_bitwise_equal(&view.points, &expected.points, &format!("engine rung {k}"));
    }

    // The engine's catalog path with densities embedded per rung.
    let catalog = SampleCatalog::build(&projected, &sizes, |k| DensityVas(rung(k)));
    for (got, expected) in catalog.samples().iter().zip(&sequential) {
        let what = format!("catalog rung {}", expected.target_size);
        assert_points_bitwise_equal(&got.points, &expected.points, &what);
        assert!(expected.densities.is_some(), "{what}: no densities");
        assert_eq!(got.densities, expected.densities, "{what}: densities");
    }
}

#[test]
fn kill_and_resume_is_bit_identical_per_backend() {
    // The PR 7 contract: a streaming build killed at *any* chunk boundary
    // and resumed from its `.vascheckpt` must reproduce the uninterrupted
    // sample bit for bit — on every locality backend. The checkpoint
    // carries a byte-exact snapshot of the locality index, so the restored
    // index's future visitation order — and with it every accept/reject
    // decision — is exactly the original's.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-ckpt-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    for backend in LocalityBackend::ALL {
        let config = VasConfig::new(300).with_locality_backend(backend);
        let reference = {
            let mut reader = ChunkedReader::open(&path).unwrap();
            VasSampler::new(config.clone())
                .build_from_source(&mut reader)
                .unwrap()
        };
        for kill_after in [1u64, 4, 8] {
            let ckpt = std::env::temp_dir().join(format!(
                "vas-determinism-{}-{backend}-{kill_after}.vascheckpt",
                std::process::id()
            ));
            let policy = CheckpointPolicy::every(&ckpt, 1).halting_after(kill_after);
            let mut reader = ChunkedReader::open(&path).unwrap();
            let outcome = VasSampler::new(config.clone())
                .build_from_source_checkpointed(&mut reader, &policy)
                .unwrap();
            assert!(
                outcome.is_halted(),
                "kill switch did not fire ({backend}, kill {kill_after})"
            );

            let mut reader = ChunkedReader::open(&path).unwrap();
            let (_, outcome) = VasSampler::resume_build_from_source(
                config.clone(),
                &mut reader,
                &CheckpointPolicy::every(&ckpt, 1),
            )
            .unwrap();
            let resumed = outcome.into_sample().expect("resumed build completes");
            assert_points_bitwise_equal(
                &resumed.points,
                &reference.points,
                &format!("kill-and-resume ({backend}, kill {kill_after})"),
            );
            std::fs::remove_file(&ckpt).ok();
        }
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn instrumented_build_is_bit_identical_to_the_uninstrumented_build() {
    // The PR 8 contract: observability is off the data path. A build with a
    // fully attached recorder — live registry, event journal, phase timers,
    // instrumented reader and prefetch pipeline — must reproduce the
    // detached-recorder build bit-for-bit, on every locality backend. The
    // kernel bandwidth is left unset so the ε-resolution pre-pass streams
    // through the instrumented stack too.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-obs-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    for backend in LocalityBackend::ALL {
        let config = VasConfig::new(300).with_locality_backend(backend);
        let uninstrumented = {
            let reader = ChunkedReader::open(&path).unwrap();
            let mut source = vas::stream::PrefetchSource::new(reader);
            VasSampler::new(config.clone())
                .build_from_source(&mut source)
                .unwrap()
        };
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        let journal = std::sync::Arc::new(Journal::in_memory());
        let recorder = Recorder::new(std::sync::Arc::clone(&registry))
            .with_journal(std::sync::Arc::clone(&journal))
            .with_timing(true);
        let instrumented = {
            let reader = ChunkedReader::open(&path)
                .unwrap()
                .with_recorder(recorder.clone());
            let mut source =
                vas::stream::PrefetchSource::new(reader).with_recorder(recorder.clone());
            VasSampler::new(config)
                .with_recorder(recorder.clone())
                .build_from_source(&mut source)
                .unwrap()
        };
        assert_points_bitwise_equal(
            &instrumented.points,
            &uninstrumented.points,
            &format!("instrumented vs uninstrumented build ({backend})"),
        );
        // The instrumentation must actually have been live. Build-scoped
        // counters (accepts, rejects) reset when `finalize` ends the
        // build, so the liveness probes are lifetime metrics: chunk
        // decodes and the candidate-phase call histogram.
        assert!(
            registry.get(Counter::StreamChunksDecoded) > 0,
            "no chunk decodes recorded ({backend})"
        );
        assert!(
            registry.snapshot().phase_calls(Phase::CandidateEval) > 0,
            "no candidate-phase timings recorded ({backend})"
        );
        assert!(!journal.lines().is_empty(), "journal is empty ({backend})");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn traced_build_is_bit_identical_to_the_detached_build() {
    // The ISSUE 9 contract extends PR 8's: the causal layer — hierarchical
    // span tracing plus the flight-recorder ring — is off the data path
    // too. A build with the *entire* observability stack attached (registry,
    // journal, timers, tracer, flight ring, instrumented reader and prefetch
    // pipeline) must reproduce the detached-recorder build bit-for-bit, on
    // every locality backend.
    let data = GeolifeGenerator::with_size(10_000, 23).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-trace-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    for backend in LocalityBackend::ALL {
        let config = VasConfig::new(300).with_locality_backend(backend);
        let detached = {
            let reader = ChunkedReader::open(&path).unwrap();
            let mut source = vas::stream::PrefetchSource::new(reader);
            VasSampler::new(config.clone())
                .build_from_source(&mut source)
                .unwrap()
        };
        let tracer = std::sync::Arc::new(Tracer::new());
        let flight = std::sync::Arc::new(FlightRecorder::new());
        let recorder = Recorder::new(std::sync::Arc::new(MetricsRegistry::new()))
            .with_journal(std::sync::Arc::new(Journal::in_memory()))
            .with_timing(true)
            .with_tracer(std::sync::Arc::clone(&tracer))
            .with_flight(std::sync::Arc::clone(&flight));
        let traced = {
            let reader = ChunkedReader::open(&path)
                .unwrap()
                .with_recorder(recorder.clone());
            let mut source =
                vas::stream::PrefetchSource::new(reader).with_recorder(recorder.clone());
            VasSampler::new(config)
                .with_recorder(recorder.clone())
                .build_from_source(&mut source)
                .unwrap()
        };
        assert_points_bitwise_equal(
            &traced.points,
            &detached.points,
            &format!("traced vs detached build ({backend})"),
        );
        // The causal layer must actually have been live: spans recorded
        // and mirrored into the flight ring, and the exported trace must
        // survive its own parser.
        assert!(!tracer.is_empty(), "no spans recorded ({backend})");
        assert!(!flight.is_empty(), "flight ring is empty ({backend})");
        let parsed =
            parse_chrome_trace(&tracer.to_chrome_trace()).expect("exported trace must parse");
        assert_eq!(
            parsed.len(),
            tracer.spans().len(),
            "trace round trip lost spans ({backend})"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn sharded_build_is_bit_identical_across_chunkings_and_s1_matches_unsharded() {
    // The ISSUE 10 contract: sharded sampling is a *deterministic* scale-out.
    // For every locality backend and S ∈ {1, 2, 4}, `build_sharded` over the
    // in-memory dataset is the reference; the streamed
    // `build_sharded_from_source` must reproduce it bit-for-bit across
    // awkward chunk sizes (the shard
    // assignment is a pure per-point function, so how the stream is chunked
    // must not matter). At S = 1 the single shard carries the full budget
    // with no oversampling, so the whole pipeline must collapse to the plain
    // unsharded `build()`, bit for bit.
    let data = GeolifeGenerator::with_size(6_000, 21).generate();
    for backend in LocalityBackend::ALL {
        let base = VasConfig::new(200).with_locality_backend(backend);
        let unsharded = VasSampler::from_dataset(&data, base.clone()).build(&data);
        for shards in [1usize, 2, 4] {
            let reference = ShardedSampler::new(base.clone(), shards).build_sharded(&data);
            if shards == 1 {
                assert_points_bitwise_equal(
                    &reference.points,
                    &unsharded.points,
                    &format!("S = 1 sharded vs unsharded build ({backend})"),
                );
            }
            for chunk in [613usize, 2_048] {
                let mut source = DatasetSource::with_chunk_size(&data, chunk);
                let streamed = ShardedSampler::new(base.clone(), shards)
                    .build_sharded_from_source(&mut source)
                    .unwrap();
                assert_points_bitwise_equal(
                    &streamed.points,
                    &reference.points,
                    &format!(
                        "sharded stream vs in-memory ({backend}, S = {shards}, chunk {chunk})"
                    ),
                );
            }
        }
    }
}

#[test]
fn retried_transient_faults_leave_the_sample_bits_unchanged() {
    // Fault tolerance must not cost determinism: a build whose source fails
    // transiently (and is retried) must equal the fault-free build exactly.
    let data = GeolifeGenerator::with_size(8_000, 55).generate();
    let reference = {
        let mut source = DatasetSource::with_chunk_size(&data, 512);
        VasSampler::new(VasConfig::new(250))
            .build_from_source(&mut source)
            .unwrap()
    };
    let injector = FaultInjectorSource::new(
        DatasetSource::with_chunk_size(&data, 512),
        FaultPlan::transient(99, 4, 2),
    );
    let mut source = RetryingSource::new(injector, RetryPolicy::immediate(4));
    let retried = VasSampler::new(VasConfig::new(250))
        .build_from_source(&mut source)
        .unwrap();
    assert!(
        source.retries() > 0,
        "the fault plan never fired; the scenario is vacuous"
    );
    assert_points_bitwise_equal(
        &retried.points,
        &reference.points,
        "retried vs fault-free build",
    );
}
