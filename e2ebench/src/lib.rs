//! End-to-end benchmark of the VAS user path: raw points → `vas-stream`
//! spill → `vas-core` sample → `vas-storage` catalog save/load →
//! `VizEngine::query` → `vas-viz` render, checked op by op.
//!
//! A run sets up its workload a few times (`setup_s` is the median), then
//! spends the measured seconds on build ops and on view cycles, in the
//! workload's proportion, and finally scores the sample (Monte-Carlo loss)
//! and the sampled canvases (against exact canvases). With `trace` set the
//! same ops run under a live `vas-obs` recorder, and the per-layer numbers
//! come from the spans the benchmark opened around each crate call plus the
//! counters the program keeps.

#![forbid(unsafe_code)]

pub mod spans;
pub mod stats;
pub mod workload;

use serde::Value;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vas_data::Point;
use vas_obs::{MetricsRegistry, Recorder, Tracer};
use workload::{
    build_op, setup, view_op, BuildOut, Params, Setup, ViewKind, ViewOut, Workload,
    BUDGETED_PER_CYCLE,
};

/// End-to-end metrics (`--trace 0`), name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("build_points_per_s", "points/s"),
    ("loss_log_ratio", "log10"),
    ("view_p50_ms", "ms"),
    ("view_p90_ms", "ms"),
    ("exact_view_p50_ms", "ms"),
    ("exact_view_p90_ms", "ms"),
    ("view_ink_jaccard", "ratio"),
    ("view_density_corr", "pearson"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), name and unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("vas-stream.spill_write_ms", "ms"),
    ("vas-stream.spill_bytes_per_point", "bytes/point"),
    ("vas-stream.read_ms", "ms"),
    ("vas-stream.chunks_decoded", "count"),
    ("vas-core.sample_self_ms", "ms"),
    ("vas-core.kernel_lanes_per_tuple", "lanes/tuple"),
    ("vas-core.accept_ratio", "ratio"),
    ("vas-par.tasks_executed", "count"),
    ("vas-storage.save_ms", "ms"),
    ("vas-storage.load_ms", "ms"),
    ("vas-storage.catalog_bytes_per_point", "bytes/point"),
    ("vas-storage.build_catalog_ms", "ms"),
    ("vas-storage.query_us", "us"),
    ("vas-viz.render_us", "us"),
    ("vas-storage.exact_query_ms", "ms"),
    ("vas-viz.exact_render_ms", "ms"),
    ("vas-storage.rows_examined_per_row_returned", "rows/row"),
    (
        "vas-storage.exact_rows_examined_per_row_returned",
        "rows/row",
    ),
    ("vas-viz.points_drawn_per_view", "points"),
    ("vas-viz.exact_points_drawn_per_view", "points"),
    ("vas-obs.trace_overhead_ratio", "ratio"),
    ("op.build_unaccounted_share", "ratio"),
];

/// Largest share of a traced build op's wall time that may fall outside
/// the layer spans before the op counts as failed.
pub const MAX_UNACCOUNTED_SHARE: f64 = 0.01;

/// The flush policy of the program's writers, stated with every run.
pub const FLUSH_POLICY: &str = "spill: sync_data at finish; catalog: temp file + fsync + rename \
                                for every file, manifest last";

/// The result of one run.
#[derive(Debug)]
pub struct RunOutput {
    /// Every op passed its checks and every metric could be computed.
    pub correct: bool,
    /// Ops attempted (build ops and views).
    pub attempted: u64,
    /// Ops that returned an error or failed an output check.
    pub failed: u64,
    /// Metric name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sizes, settings and sample counts of the run.
    pub record: Value,
    /// The first few failure messages.
    pub problems: Vec<String>,
    /// The traced run's spans as Chrome-trace JSON.
    pub trace_json: Option<String>,
}

/// Attempted/failed bookkeeping. A failed check never aborts the run.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    /// Counts one op; returns its output when it passed every check.
    fn op<T>(
        &mut self,
        what: &str,
        result: Result<T, String>,
        problems: fn(&T) -> &[String],
    ) -> Option<T> {
        self.attempted += 1;
        let found: Vec<String> = match &result {
            Ok(out) => problems(out).to_vec(),
            Err(e) => vec![e.clone()],
        };
        if found.is_empty() {
            return result.ok();
        }
        self.failed += 1;
        self.note(format!("{what}: {}", found.join("; ")));
        None
    }

    fn note(&mut self, problem: String) {
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }
}

fn secs_of<T>(outs: &[T], secs: fn(&T) -> f64) -> Vec<f64> {
    outs.iter().map(secs).collect()
}

/// `VmHWM` of this process in MiB (Linux).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs workload `w` with seed `seed`, keeping spill and catalog files in
/// `dir`. `Err` only when set-up itself fails; failed ops are counted.
pub fn run(
    w: Workload,
    p: &Params,
    seed: u64,
    trace: bool,
    dir: &Path,
) -> Result<RunOutput, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let registry = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::with_capacity(1 << 21));
    let traced = Recorder::new(Arc::clone(&registry))
        .with_tracer(Arc::clone(&tracer))
        .with_timing(true);
    let detached = Recorder::detached();
    let live = if trace { &traced } else { &detached };

    // Set-up, several times; keep the last (only one alive at a time, so
    // the peak memory is one set-up's).
    let setups = if trace { 1 } else { p.setups.max(1) };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut current: Option<Setup> = None;
    for _ in 0..setups {
        drop(current.take());
        let started = Instant::now();
        current = Some(setup(w, p, seed, live)?);
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let s = current.expect("at least one set-up ran");

    let mut ledger = Ledger::default();
    let started = Instant::now();
    let elapsed = || started.elapsed().as_secs_f64();

    // Build ops and view cycles are interleaved, each taking its share of
    // the time so far, so both sample the whole run rather than one stretch
    // of it. Traced runs alternate untraced and traced build ops, so the
    // tracing overhead is measured under the same conditions.
    let min_builds = if trace {
        p.min_build_ops.max(5)
    } else {
        p.min_build_ops
    };
    let mut reference: Option<Vec<Point>> = None;
    let (mut plain, mut traced_builds): (Vec<BuildOut>, Vec<BuildOut>) = (Vec::new(), Vec::new());
    // Reserved up front: growing these mid-run reshuffles the heap, and that
    // moved peak RSS between two levels 20% apart from seed to seed.
    let mut views: Vec<ViewOut> = Vec::with_capacity(1 << 17);
    let mut exact_views: Vec<ViewOut> = Vec::with_capacity(1 << 14);
    let (mut builds, mut cycles, mut build_secs) = (0, 0, 0.0);
    while builds < min_builds || cycles < p.min_view_cycles || elapsed() < p.seconds {
        let build_turn = match (builds < min_builds, cycles < p.min_view_cycles) {
            (true, false) => true,
            (false, true) => false,
            _ => build_secs <= elapsed() * w.build_share(),
        };
        if build_turn {
            let traced_op = trace && builds % 2 == 1;
            let rec = if traced_op { &traced } else { &detached };
            let op_started = Instant::now();
            let result = build_op(w, p, &s, dir, rec, reference.as_deref());
            build_secs += op_started.elapsed().as_secs_f64();
            if let Some(out) = ledger.op("build", result, |o: &BuildOut| &o.problems) {
                reference.get_or_insert_with(|| out.sample.clone());
                // The first op warms caches: checked, not timed.
                if builds > 0 {
                    if traced_op {
                        traced_builds.push(out)
                    } else {
                        plain.push(out)
                    }
                }
            }
            builds += 1;
        } else {
            // One view cycle: budgeted views, then one exact view.
            for j in 0..BUDGETED_PER_CYCLE {
                let result = view_op(
                    &s,
                    p,
                    ViewKind::Budgeted,
                    cycles * BUDGETED_PER_CYCLE + j,
                    live,
                );
                views.extend(ledger.op("budgeted view", result, |o: &ViewOut| &o.problems));
            }
            let result = view_op(&s, p, ViewKind::Exact, cycles, live);
            exact_views.extend(ledger.op("exact view", result, |o: &ViewOut| &o.problems));
            cycles += 1;
        }
    }
    let measured_secs = elapsed();
    // Before scoring, whose estimator would otherwise set the peak.
    let peak_rss = peak_rss_mib();

    let mut missing = Vec::new();
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        let value = value.filter(|v| v.is_finite()).unwrap_or_else(|| {
            missing.push(name);
            0.0
        });
        metrics.push((name, value, unit));
    };
    let mut trace_json = None;
    if !trace {
        let quality = s.view_quality(p);
        if let Err(e) = &quality {
            ledger.note(format!("view quality: {e}"));
        }
        let (jaccard, corr) = quality.ok().unzip();
        let ms = |outs: &[ViewOut], pct: f64| {
            stats::percentile(&secs_of(outs, |o| o.secs), pct).map(|v| v * 1e3)
        };
        put("setup_s", stats::median(&setup_secs));
        put(
            "build_points_per_s",
            stats::median(&secs_of(&plain, |o| o.secs)).map(|s| p.n as f64 / s),
        );
        put(
            "loss_log_ratio",
            reference.as_deref().map(|r| s.loss_log_ratio(r)),
        );
        put("view_p50_ms", ms(&views, 50.0));
        put("view_p90_ms", ms(&views, 90.0));
        put("exact_view_p50_ms", ms(&exact_views, 50.0));
        put("exact_view_p90_ms", ms(&exact_views, 90.0));
        put("view_ink_jaccard", jaccard);
        put("view_density_corr", corr);
        put("peak_rss_mb", peak_rss);
    } else {
        let layers = LayerTimes::from_tracer(&tracer);
        for share in layers
            .unaccounted_shares
            .iter()
            .filter(|s| **s > MAX_UNACCOUNTED_SHARE)
        {
            ledger.failed += 1;
            ledger.note(format!(
                "traced build op: {:.2}% of its wall time is outside the layer spans",
                share * 100.0
            ));
        }
        if tracer.dropped() > 0 {
            ledger.note(format!("tracer dropped {} spans", tracer.dropped()));
        }
        let tallies: Vec<_> = traced_builds.iter().map(|o| o.tally).collect();
        let per_op = |f: fn(&workload::Tally) -> u64| {
            stats::mean(&tallies.iter().map(|t| f(t) as f64).collect::<Vec<_>>())
        };
        let (accepts, rejects) = tallies
            .iter()
            .fold((0u64, 0u64), |(a, r), t| (a + t.accepts, r + t.rejects));
        let ratio = |num: usize, den: usize| (den > 0).then(|| num as f64 / den as f64);
        let sum = |outs: &[ViewOut], f: fn(&ViewOut) -> usize| outs.iter().map(f).sum::<usize>();
        put(
            "vas-stream.spill_write_ms",
            layers.build_ms(spans::SPILL_WRITE),
        );
        put(
            "vas-stream.spill_bytes_per_point",
            traced_builds
                .first()
                .map(|o| o.spill_bytes as f64 / p.n as f64),
        );
        put("vas-stream.read_ms", layers.build_ms(spans::READ));
        put("vas-stream.chunks_decoded", per_op(|t| t.chunks_decoded));
        put("vas-core.sample_self_ms", layers.build_ms(spans::SAMPLE));
        // Sharded builds: shard workers share one registry and each one's
        // finalize resets `CoreKernelLanes`, so the count is not observable
        // there; reported as 0.
        let lanes = if w.shards() > 1 {
            Some(0.0)
        } else {
            per_op(|t| t.lanes).map(|l| l / p.n as f64)
        };
        put("vas-core.kernel_lanes_per_tuple", lanes);
        put(
            "vas-core.accept_ratio",
            ratio(accepts as usize, (accepts + rejects) as usize),
        );
        put("vas-par.tasks_executed", per_op(|t| t.par_tasks));
        put("vas-storage.save_ms", layers.build_ms(spans::SAVE));
        put("vas-storage.load_ms", layers.build_ms(spans::LOAD));
        put(
            "vas-storage.catalog_bytes_per_point",
            traced_builds
                .first()
                .map(|o| o.catalog_bytes as f64 / p.k() as f64),
        );
        put(
            "vas-storage.build_catalog_ms",
            layers.mean_self_ms(None, spans::BUILD_CATALOG),
        );
        put(
            "vas-storage.query_us",
            layers
                .mean_self_ms(Some(spans::OP_VIEW), spans::QUERY)
                .map(|v| v * 1e3),
        );
        put(
            "vas-viz.render_us",
            layers
                .mean_self_ms(Some(spans::OP_VIEW), spans::RENDER)
                .map(|v| v * 1e3),
        );
        put(
            "vas-storage.exact_query_ms",
            layers.mean_self_ms(Some(spans::OP_EXACT_VIEW), spans::QUERY),
        );
        put(
            "vas-viz.exact_render_ms",
            layers.mean_self_ms(Some(spans::OP_EXACT_VIEW), spans::RENDER),
        );
        put(
            "vas-storage.rows_examined_per_row_returned",
            ratio(sum(&views, |o| o.source_size), sum(&views, |o| o.points)),
        );
        put(
            "vas-storage.exact_rows_examined_per_row_returned",
            ratio(
                sum(&exact_views, |o| o.source_size),
                sum(&exact_views, |o| o.points),
            ),
        );
        put(
            "vas-viz.points_drawn_per_view",
            ratio(sum(&views, |o| o.points), views.len()),
        );
        put(
            "vas-viz.exact_points_drawn_per_view",
            ratio(sum(&exact_views, |o| o.points), exact_views.len()),
        );
        let traced_med = stats::median(&secs_of(&traced_builds, |o| o.secs));
        let plain_med = stats::median(&secs_of(&plain, |o| o.secs));
        put(
            "vas-obs.trace_overhead_ratio",
            traced_med.zip(plain_med).map(|(a, b)| a / b),
        );
        put("op.build_unaccounted_share", layers.unaccounted_share());
        trace_json = Some(tracer.to_chrome_trace());
    }
    for name in &missing {
        ledger.note(format!("metric {name} could not be computed"));
    }
    let record = record(
        w,
        p,
        seed,
        trace,
        measured_secs,
        &[
            ("setups", setup_secs.len()),
            ("build_ops", plain.len()),
            ("traced_build_ops", traced_builds.len()),
            ("views", views.len()),
            ("exact_views", exact_views.len()),
        ],
    );
    Ok(RunOutput {
        correct: ledger.failed == 0 && ledger.problems.is_empty(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        record,
        problems: ledger.problems,
        trace_json,
    })
}

/// Per-layer self times of a traced run, grouped by the op they ran in.
#[derive(Debug, Default)]
struct LayerTimes {
    /// Per traced build op: share of its wall time outside every layer span.
    unaccounted_shares: Vec<f64>,
    /// (op root name or "" outside ops, span name) → (self µs, spans).
    by_layer: HashMap<(String, String), (u64, u64)>,
    /// Total unaccounted µs and wall µs over traced build ops.
    unaccounted: (u64, u64),
}

impl LayerTimes {
    fn from_tracer(tracer: &Tracer) -> Self {
        let owned = spans::self_times(&tracer.spans());
        let names: HashMap<u64, &str> = owned.iter().map(|s| (s.id, s.name.as_str())).collect();
        let mut out = LayerTimes::default();
        for s in &owned {
            let root = names[&s.root];
            if s.id == s.root && root == spans::OP_BUILD {
                out.unaccounted_shares
                    .push(s.self_us as f64 / s.dur_us.max(1) as f64);
                out.unaccounted.0 += s.self_us;
                out.unaccounted.1 += s.dur_us;
            }
            let key = (
                if root.starts_with("op.") { root } else { "" }.to_string(),
                s.name.clone(),
            );
            let entry = out.by_layer.entry(key).or_default();
            entry.0 += s.self_us;
            entry.1 += 1;
        }
        out
    }

    /// Mean self time per traced build op of `layer`, ms.
    fn build_ms(&self, layer: &str) -> Option<f64> {
        let ops = self.unaccounted_shares.len();
        let (self_us, _) = self
            .by_layer
            .get(&(spans::OP_BUILD.to_string(), layer.to_string()))?;
        Some(*self_us as f64 / ops as f64 / 1e3)
    }

    /// Mean self time per span of `layer` inside ops named `op` (or outside
    /// any op when `None`), ms.
    fn mean_self_ms(&self, op: Option<&str>, layer: &str) -> Option<f64> {
        let (self_us, n) = self
            .by_layer
            .get(&(op.unwrap_or("").to_string(), layer.to_string()))?;
        (*n > 0).then(|| *self_us as f64 / *n as f64 / 1e3)
    }

    fn unaccounted_share(&self) -> Option<f64> {
        (self.unaccounted.1 > 0).then(|| self.unaccounted.0 as f64 / self.unaccounted.1 as f64)
    }
}

/// The run's self-description: sizes, settings, environment, sample counts.
fn record(
    w: Workload,
    p: &Params,
    seed: u64,
    trace: bool,
    measured: f64,
    samples: &[(&str, usize)],
) -> Value {
    let num = |v: f64| Value::Number(v);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Object(vec![
        ("workload".into(), Value::String(w.name().into())),
        ("seed".into(), Value::String(seed.to_string())),
        ("trace".into(), Value::Bool(trace)),
        ("nproc".into(), num(nproc as f64)),
        ("n".into(), num(p.n as f64)),
        ("k".into(), num(p.k() as f64)),
        (
            "ladder".into(),
            Value::Array(p.ladder.iter().map(|&k| num(k as f64)).collect()),
        ),
        ("shards".into(), num(w.shards() as f64)),
        ("threads".into(), num(workload::THREADS as f64)),
        ("chunk".into(), num(p.chunk as f64)),
        ("flush_policy".into(), Value::String(FLUSH_POLICY.into())),
        ("build_profile".into(), Value::String(profile.into())),
        ("measured_s".into(), num(measured)),
        ("build_share".into(), num(w.build_share())),
        (
            "samples".into(),
            Value::Object(
                samples
                    .iter()
                    .map(|(k, v)| (k.to_string(), num(*v as f64)))
                    .collect(),
            ),
        ),
    ])
}
