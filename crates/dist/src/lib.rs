//! **tricheck-dist** — sharded multi-process sweeps over a persistent
//! on-disk execution-space store.
//!
//! The single-process sweep engine (`tricheck-core`) already guarantees
//! that every (test, mapping) pair compiles once and every distinct
//! compiled program is enumerated once *per run*. This crate extends
//! both guarantees across process lifetimes:
//!
//! - [`DiskStore`] persists enumerated execution spaces (keyed by the
//!   stable structural [`Fingerprint`](tricheck_litmus::Fingerprint))
//!   and C11 verdicts (keyed by test name + content hash) in a
//!   versioned, checksummed, atomically-replaced binary format. A warm
//!   store turns "enumerate once per sweep" into "enumerate once,
//!   ever"; any corruption, truncation or version mismatch evicts the
//!   file and degrades to recompute — never to a wrong row.
//! - [`run_sharded`] deals a sweep's (test × stack) work across N
//!   worker *processes* by fingerprint range, speaks a line-oriented
//!   stdio protocol with each self-spawned worker, and merges the
//!   per-shard results through the same aggregation path the
//!   single-process engine uses — so the merged rows are bit-identical
//!   to [`Sweep::run_matrix`](tricheck_core::Sweep::run_matrix) by
//!   construction. Shards sharing a cache directory share the store,
//!   which is what makes exactly-once hold *across* processes on a
//!   warm cache (summed per-shard `space_enumerations == 0`).
//!
//! See `crates/dist/README.md` for the file-format and protocol
//! specifications.
//!
//! # Example: a persistent, sharded Figure 15 sweep
//!
//! ```no_run
//! use tricheck_dist::{run_sharded, DistOptions, MatrixSpec};
//!
//! let tests = tricheck_litmus::suite::full_suite();
//! let opts = DistOptions {
//!     shards: 4,
//!     cache_dir: Some("./tricheck-cache".into()),
//!     ..DistOptions::default()
//! };
//! let dist = run_sharded(MatrixSpec::Riscv, &tests, &opts)?;
//! println!("{} bugs", dist.results.grand_total_bugs());
//! println!("store: {}", dist.store_stats());
//! # Ok::<(), tricheck_dist::DistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod shard;
mod store;

pub use shard::{
    run_sharded, shard_of, shard_worker_stdio, DistError, DistOptions, DistResults, ShardReport,
    ERROR_MARKER, PROTOCOL_VERSION, RESULT_MARKER,
};
pub use store::{DiskStore, StoreError, FORMAT_VERSION};
/// The built-in studies a sharded run can name, re-exported from
/// `tricheck-core` so `run_sharded` callers need one import.
pub use tricheck_core::MatrixSpec;
