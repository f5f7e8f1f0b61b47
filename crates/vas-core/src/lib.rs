//! # vas-core
//!
//! The core contribution of *"Visualization-Aware Sampling for Very Large
//! Databases"* (Park, Cafarella, Mozafari — ICDE 2016): selecting a size-`K`
//! subset of a 2-D dataset that minimizes a visualization-driven loss, so
//! that scatter and map plots rendered from the sample remain faithful at
//! every zoom level.
//!
//! ## The VAS problem
//!
//! For a proximity kernel `κ` (Gaussian by default), the paper defines the
//! visualization loss of a sample `S` as `∫ 1 / Σ_{s∈S} κ(x, s) dx` and shows
//! (via a second-order Taylor expansion) that minimizing it is equivalent to
//! the combinatorial problem
//!
//! ```text
//!     min_{S ⊆ D, |S| = K}  Σ_{i<j} κ̃(s_i, s_j)
//! ```
//!
//! i.e. picking `K` points that are as mutually spread-out as possible under
//! the kernel. The problem is NP-hard; the paper's practical solver is the
//! **Interchange** hill-climbing algorithm with *responsibility* bookkeeping
//! (Expand/Shrink) and an R-tree locality optimization.
//!
//! ## Crate layout
//!
//! * [`kernel`] — proximity kernels and bandwidth (ε) selection.
//! * [`objective`](mod@objective) — the optimization objective and responsibilities.
//! * [`interchange`] — the Interchange algorithm in its three variants
//!   (`Naive`, `ExpandShrink`, `ExpandShrinkLocality`) behind the
//!   [`VasSampler`] type, which implements the common
//!   [`Sampler`](vas_sampling::Sampler) trait. Out-of-core datasets stream
//!   through
//!   [`VasSampler::build_from_source`](interchange::VasSampler::build_from_source),
//!   which drives the same loop from any `vas_stream::PointSource` in
//!   `K + one-chunk` memory, bit-identical to an in-memory build.
//! * [`density`] — the density-embedding second pass (Section V).
//! * [`outlier`] — outlier-preserving sample augmentation (the paper's
//!   future-work discussion on outlier-detection tasks).
//!
//! ## Quick start
//!
//! ```
//! use vas_core::{VasConfig, VasSampler};
//! use vas_sampling::Sampler;
//! use vas_data::GeolifeGenerator;
//!
//! let data = GeolifeGenerator::with_size(2_000, 42).generate();
//! let mut sampler = VasSampler::from_dataset(&data, VasConfig::new(100));
//! let sample = sampler.sample_dataset(&data);
//! assert_eq!(sample.len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod density;
pub mod interchange;
pub mod kernel;
pub mod objective;
pub mod outlier;
pub mod shard;

pub use checkpoint::{BuildOutcome, CheckpointPolicy};
pub use density::{density_counts_threaded, embed_density};
pub use interchange::{InterchangeStrategy, ProgressEvent, VasConfig, VasSampler};
pub use kernel::{GaussianKernel, Kernel, KernelKind};
pub use objective::{objective, responsibilities, responsibility_of};
pub use outlier::{find_outliers, with_outliers, Outlier};
pub use shard::{shard_budgets, ShardedSampler};
pub use vas_spatial::{AnyLocalityIndex, LocalityBackend, LocalityIndex};
