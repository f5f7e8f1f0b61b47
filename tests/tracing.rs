//! Acceptance tests for the causal span layer: one traced build must
//! export a Chrome-trace JSON document whose span tree is complete — every
//! shard worker's `worker_task` span reaches the consuming build's root
//! through its parent chain, and the read-ahead thread's decode spans parent
//! under the same root — plus the flight recorder's post-mortem dump on the
//! fatal path.

use std::collections::HashMap;
use std::sync::Arc;
use vas::prelude::*;

/// Builds a fully traced run over a spilled chunked stream behind read-ahead
/// prefetch — a `ShardedSampler` over `shards` shards, or the plain
/// `VasSampler` when `shards` is `None` — returning the recorded spans and
/// the sample.
fn traced_build(
    n: usize,
    config: VasConfig,
    shards: Option<usize>,
    tag: &str,
) -> (Vec<SpanRecord>, Vec<Point>) {
    let data = GeolifeGenerator::with_size(n, 31).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-tracing-accept-{}-{n}-{tag}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 512).unwrap();
    let tracer = Arc::new(Tracer::new());
    let recorder = Recorder::new(Arc::new(MetricsRegistry::new()))
        .with_timing(true)
        .with_tracer(Arc::clone(&tracer));
    let sample = {
        let reader = ChunkedReader::open(&path)
            .unwrap()
            .with_recorder(recorder.clone());
        let mut source = PrefetchSource::new(reader).with_recorder(recorder.clone());
        match shards {
            Some(shards) => ShardedSampler::new(config, shards)
                .with_recorder(recorder.clone())
                .build_sharded_from_source(&mut source),
            None => VasSampler::new(config)
                .with_recorder(recorder.clone())
                .build_from_source(&mut source),
        }
        .unwrap()
    };
    std::fs::remove_file(&path).ok();
    // The acceptance shape is asserted on the *exported* trace, so the
    // Chrome-trace encoder and parser are part of the contract.
    let spans = parse_chrome_trace(&tracer.to_chrome_trace()).expect("exported trace parses");
    (spans, sample.points)
}

/// Walks `span`'s parent chain to its root (bounded, in case of corruption).
fn root_of<'a>(
    span: &'a SpanRecord,
    by_id: &'a HashMap<u64, &'a SpanRecord>,
) -> Option<&'a SpanRecord> {
    let mut cur = span;
    for _ in 0..64 {
        match cur.parent {
            None => return Some(cur),
            Some(p) => cur = by_id.get(&p)?,
        }
    }
    None
}

#[test]
fn traced_build_produces_a_complete_causal_tree() {
    // Two shards: the streaming sharded build fans out one persistent worker
    // per shard, each on its own thread.
    let (spans, _) = traced_build(40_000, VasConfig::new(150), Some(2), "sharded");
    assert!(!spans.is_empty(), "the traced build recorded no spans");
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();

    // Exactly one root, and it is the consuming build.
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(
        roots.len(),
        1,
        "expected one root span, got {:?}",
        roots.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    assert_eq!(roots[0].name, "build_sharded_from_source");

    // Every worker span parents (transitively) under that root — the shard
    // workers run on spawned scope threads, so this is the cross-thread
    // propagation contract.
    let workers: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "worker_task").collect();
    assert!(workers.len() >= 2, "expected a worker_task span per shard");
    for w in &workers {
        assert!(w.parent.is_some(), "worker span {} has no parent", w.id);
        let root = root_of(w, &by_id).expect("worker parent chain resolves");
        assert_eq!(
            root.id, roots[0].id,
            "worker span {} roots under {:?}, not the build",
            w.id, root.name
        );
    }
    assert!(
        workers.iter().any(|w| w.thread != roots[0].thread),
        "no worker span ran on a thread other than the consumer's"
    );

    // The read-ahead producer decodes chunks on its own pre-existing thread;
    // its chunk_decode spans must still parent under the build root (via the
    // tracer's ambient root context).
    let decodes: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "chunk_decode").collect();
    assert!(!decodes.is_empty(), "no chunk_decode spans were recorded");
    for d in &decodes {
        let root = root_of(d, &by_id).expect("decode parent chain resolves");
        assert_eq!(root.id, roots[0].id, "decode span {} is orphaned", d.id);
    }
    assert!(
        decodes.iter().all(|d| d.thread != roots[0].thread),
        "prefetch decodes should run on the read-ahead thread"
    );

    // Phase sites inside the loop are present as spans.
    for name in ["fill", "candidate_eval", "prefetch_wait"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "expected at least one {name:?} span"
        );
    }
}

#[test]
fn sequential_traced_build_has_no_foreign_roots() {
    // The unsharded build: a single build root and no orphans.
    let (spans, _) = traced_build(6_000, VasConfig::new(200), None, "sequential");
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].name, "build_from_source");
    for s in &spans {
        let root = root_of(s, &by_id).expect("parent chain resolves");
        assert_eq!(
            root.id, roots[0].id,
            "span {} ({}) is orphaned",
            s.id, s.name
        );
    }
}

#[test]
fn unsharded_build_runs_on_one_thread_whatever_with_threads_says() {
    // Interchange is one sequential hill climb: `with_threads` is accepted
    // and ignored, so the sample keeps the default build's bits and no
    // worker fans out.
    let (spans, points) = traced_build(40_000, VasConfig::new(150).with_threads(4), None, "t4");
    let (_, reference) = traced_build(40_000, VasConfig::new(150), None, "t1");
    assert_eq!(points.len(), reference.len());
    for (i, (p, q)) in points.iter().zip(&reference).enumerate() {
        assert!(
            p.x.to_bits() == q.x.to_bits()
                && p.y.to_bits() == q.y.to_bits()
                && p.value.to_bits() == q.value.to_bits(),
            "point {i} differs: {p:?} vs {q:?}"
        );
    }
    let workers = spans.iter().filter(|s| s.name == "worker_task").count();
    assert_eq!(
        workers, 0,
        "the unsharded build fanned out {workers} workers"
    );
}

#[test]
fn fatal_build_error_dumps_the_flight_recorder() {
    // The crash flight recorder: a typed fatal error inside
    // `build_from_source` must dump the ring of recent spans/events to the
    // configured post-mortem path.
    let data = GeolifeGenerator::with_size(4_000, 37).generate();
    let spill =
        std::env::temp_dir().join(format!("vas-tracing-fatal-{}.vaschunk", std::process::id()));
    spill_dataset(&data, &spill, 256).unwrap();
    let dump = std::env::temp_dir().join(format!(
        "vas-tracing-fatal-{}.flight.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&dump).ok();

    let flight = Arc::new(FlightRecorder::new());
    flight.set_dump_path(&dump);
    let tracer = Arc::new(Tracer::new());
    let recorder = Recorder::new(Arc::new(MetricsRegistry::new()))
        .with_timing(true)
        .with_tracer(tracer)
        .with_flight(Arc::clone(&flight));

    let reader = ChunkedReader::open(&spill)
        .unwrap()
        .with_recorder(recorder.clone());
    let injector = FaultInjectorSource::new(reader, FaultPlan::fatal_after(2));
    let mut source = RetryingSource::new(injector, RetryPolicy::immediate(3));
    let result = VasSampler::new(VasConfig::new(100))
        .with_recorder(recorder.clone())
        .build_from_source(&mut source);

    assert!(result.is_err(), "the fatal fault must fail the build");
    assert!(flight.dumps() > 0, "the fatal path never dumped the ring");
    let text = std::fs::read_to_string(&dump).expect("post-mortem dump exists");
    let mut lines = text.lines();
    let header = lines.next().expect("dump has a header line");
    assert!(
        header.contains("\"kind\":\"flight_dump\""),
        "header: {header}"
    );
    assert!(
        lines.clone().count() > 0,
        "the dump carries no ring entries"
    );
    // Ring entries are one JSON object per line, spans and events mixed.
    assert!(
        lines.any(|l| l.contains("\"kind\":\"span\"")),
        "no span entries in the dump"
    );

    std::fs::remove_file(&spill).ok();
    std::fs::remove_file(&dump).ok();
}
