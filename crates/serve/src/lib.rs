//! `broadmatch-serve`: a lock-free-read serving runtime for the ICDE 2009
//! broad-match index.
//!
//! The paper's data structure answers a broad-match query with one plan and
//! one probe/scan pass over an immutable index. This crate turns that
//! single-threaded structure into a serving system:
//!
//! 1. **Whole queries on a pool.** [`ServeRuntime::query`] pushes each
//!    query onto one bounded MPMC queue ([`BoundedQueue`]); a pool worker
//!    pops it and runs it whole with
//!    [`broadmatch::BroadMatchIndex::query_with_overlay`], so answers are
//!    bit-identical to single-threaded execution — hits, order, and
//!    statistics. A full queue rejects at admission with a retry-after
//!    hint instead of queueing unboundedly.
//! 2. **The index is immutable between rebuilds.** Reoptimization
//!    (remapping, maintenance compaction) produces a *new* index, which
//!    [`ServeRuntime::publish`] swaps in atomically via an RCU-style
//!    [`ArcSwap`]: readers take **zero locks**, never block on a publish,
//!    and each query sees exactly one consistent snapshot.
//!
//! Metrics live in a `broadmatch-telemetry` registry: end-to-end latency,
//! queue wait and service time as separate histograms
//! ([`LatencyHistogram`], re-exported from the telemetry crate) in the same
//! 5 ms buckets the `broadmatch-netsim` simulator reports — so measured
//! service times feed straight back into the paper's network-capacity
//! model (Fig. 9) — plus probe/scan counters, queue depth and snapshot-age
//! gauges, a sampling span tracer, and Prometheus text exposition via
//! [`ServeRuntime::prometheus`].
//!
//! ```
//! use std::sync::Arc;
//! use broadmatch::{AdInfo, IndexBuilder, MatchType};
//! use broadmatch_serve::{ServeConfig, ServeRuntime};
//!
//! let mut builder = IndexBuilder::new();
//! builder.add("cheap used books", AdInfo::with_bid(1, 25)).unwrap();
//! let index = Arc::new(builder.build().unwrap());
//!
//! let runtime = ServeRuntime::start(index, ServeConfig::default());
//! let resp = runtime.query("cheap used books online", MatchType::Broad).unwrap();
//! assert_eq!(resp.hits.len(), 1);
//! assert_eq!(resp.version, 1);
//! ```
//!
//! Unsafe code is confined to [`arcswap`] (the core crate forbids unsafe
//! entirely); everything here is std-only.

#![warn(missing_docs)]

pub mod arcswap;
pub mod poison;
pub mod queue;
pub mod runtime;
pub mod update;

pub use arcswap::ArcSwap;
// The latency histogram moved to `broadmatch-telemetry` so every crate
// shares one implementation; re-exported here for compatibility.
pub use broadmatch_telemetry::{LatencyHistogram, DEFAULT_BUCKET_MS};
pub use queue::{BoundedQueue, PushError};
pub use runtime::{QueryResponse, ServeConfig, ServeError, ServeMetrics, ServeRuntime};
pub use update::UpdateConfig;
