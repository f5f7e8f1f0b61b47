//! # vas-obs
//!
//! The unified observability layer of the VAS reproduction: one
//! [`MetricsRegistry`] of typed monotonic counters, phase-scoped wall-clock
//! timers feeding fixed-bucket latency [`Histogram`]s (p50/p95/p99), an
//! append-only JSONL event [`Journal`], and two exporters over a
//! [`MetricsSnapshot`] — structured JSON ([`export::snapshot_to_json`]) and
//! Prometheus text exposition ([`export::snapshot_to_prometheus`]). On top
//! of the flat metrics sits the causal layer: hierarchical spans
//! ([`trace::Tracer`], exported as Chrome-trace/Perfetto JSON) and a crash
//! [`FlightRecorder`] that dumps the last N spans/events to a post-mortem
//! file when a fatal path fires.
//!
//! Every layer of the stack records through a cheap, cloneable [`Recorder`]
//! handle: `vas-core`'s Interchange loop (fill vs candidate-eval phases,
//! accepts/rejects/kernel lanes, checkpoint write/resume events, shard fill
//! and merge), `vas-stream` (chunk decode and prefetch latency, retries
//! absorbed, CRC failures, corruption skips), `vas-par` (worker busy time,
//! read-ahead channel occupancy, contained panics) and `vas-storage` (per-K
//! catalog build times, persist commit events).
//!
//! ## The off-the-data-path determinism rule
//!
//! The workspace's load-bearing contract is **bit-identical determinism**
//! (`tests/determinism.rs` pins every backend, chunking and shard fan-out to
//! the same sample, bit for bit). Instrumentation must therefore never sit
//! *on* the data path:
//!
//! * **No measured value may influence sampled state.** Counters, timers and
//!   journal entries are write-only from the algorithm's point of view —
//!   nothing in `vas-core` ever branches on a metric. The instrumented build
//!   is pinned bit-identical to the uninstrumented build by
//!   `tests/determinism.rs`.
//! * **Disabled means no-op.** Every component records through a
//!   [`Recorder`]; the default [`Recorder::detached`] handle has timing off
//!   and no journal, so the hot path performs *zero* `Instant::now` calls
//!   and no I/O. Counter increments remain (they back the long-standing
//!   public getters such as `VasSampler::kernel_lanes()`) but are relaxed
//!   atomic adds batched at chunk granularity.
//! * **Overhead is measured, not assumed.** The `obs_overhead` phase of the
//!   `fig10_inner_loop` harness times a fully instrumented build (journal +
//!   timing) against the detached build and enforces a ≤3% throughput
//!   ceiling plus a `bit_identical` flag in `results/BENCH_obs.json`,
//!   non-zero exit on violation.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use vas_obs::{export, Counter, Journal, MetricsRegistry, Phase, Recorder};
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let journal = Arc::new(Journal::in_memory());
//! let rec = Recorder::new(Arc::clone(&registry))
//!     .with_journal(Arc::clone(&journal))
//!     .with_timing(true);
//!
//! // Count, time, journal.
//! rec.inc(Counter::StreamChunksDecoded, 1);
//! {
//!     let _guard = rec.phase(Phase::ChunkDecode);
//!     // ... decode a chunk ...
//! }
//! rec.event("checkpoint_write", &[("pass", 0u64.into()), ("chunks", 8u64.into())]);
//!
//! // Snapshot and export.
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter(Counter::StreamChunksDecoded), 1);
//! let json = export::snapshot_to_json(&snap);
//! let prom = export::snapshot_to_prometheus(&snap);
//! assert!(json.contains("stream_chunks_decoded"));
//! assert!(prom.contains("vas_stream_chunks_decoded_total 1"));
//! assert_eq!(journal.lines().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod histogram;
pub mod journal;
pub mod recorder;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use flight::FlightRecorder;
pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use journal::{EventValue, Journal};
pub use recorder::{PhaseGuard, Recorder};
pub use registry::{Counter, MetricsRegistry, Phase, ValueSeries};
pub use snapshot::MetricsSnapshot;
pub use trace::{parse_chrome_trace, SpanContext, SpanGuard, SpanRecord, Tracer};
