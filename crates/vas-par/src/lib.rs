//! # vas-par
//!
//! The deterministic parallel execution substrate of the VAS reproduction.
//!
//! Every hot loop in this workspace lives under a hard contract pinned by
//! `tests/determinism.rs`: the same input stream must produce
//! **bit-identical** output, run to run, thread count to thread count. That
//! rules out the usual "throw rayon at it" approach twice over — the build
//! environment cannot vendor rayon, and work-stealing reductions fold results
//! in a scheduling-dependent order, which changes floating-point sums by an
//! ulp and the sampler's replacement decisions with them. Interchange itself
//! is one sequential hill climb; what runs in parallel is the shard fan-out,
//! the catalog ladder, the chunk read-ahead and the embarrassingly parallel
//! loss/density loops.
//!
//! This crate supplies the two primitives the rest of the workspace
//! parallelizes with instead, both built directly on [`std::thread`]:
//!
//! * **Ordered fan-out/fan-in combinators** ([`exec`]) — input is split into
//!   *contiguous index ranges*, one scoped worker per range, and results are
//!   concatenated (or folded) in **range order**. Whatever the OS scheduler
//!   does, the fan-in observes results in exactly the order a sequential loop
//!   would have produced them, so a deterministic per-item function yields a
//!   deterministic combined result at any thread count.
//! * **A double-buffered background pipeline stage** ([`pipeline`]) — a
//!   producer running on its own worker thread feeding a bounded channel,
//!   with an epoch/rewind protocol so consumers can `reset` mid-stream
//!   without tearing down the worker. `vas-stream`'s `PrefetchSource` is
//!   this stage wrapped around a `PointSource`.
//! * **A free-running scatter pipeline** ([`scatter`]) — one producer
//!   routing items to `S` persistent workers over bounded queues, fan-in in
//!   consumer order. The sharded sampling path fans out one Interchange
//!   sampler per shard through it; because the stages are decoupled by the
//!   queues, shard workers evaluate batch `b` while the producer is already
//!   decoding and routing batch `b + 1` — the free-running batch pipelining
//!   the lock-step read-ahead path could not express.
//!
//! Workers are **scoped**: they are spawned inside each combinator call via
//! [`std::thread::scope`] and joined before it returns, so closures may borrow
//! from the caller's stack (the loss estimator's probe workers share the
//! dataset and its spatial index by reference). A persistent pool would
//! require either `'static` tasks or `unsafe` lifetime erasure; the workspace
//! forbids `unsafe`, and thread spawn cost (~10µs) is noise at the chunk
//! granularity (thousands of points) every caller fans out at.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod pipeline;
pub mod scatter;

pub use exec::{
    effective_threads, par_chunk_fold_ordered, par_map_ordered, par_map_vec_ordered,
    par_map_vec_ordered_recorded, split_ranges, try_par_map_ordered, try_par_map_ordered_recorded,
    WorkerPanic,
};
pub use pipeline::{ReadAhead, Stage, Step};
pub use scatter::scatter_ordered;
